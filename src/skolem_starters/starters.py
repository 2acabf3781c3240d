"""Starter domain types and the four verifiers.

A starter for Z_n (n = 2k + 1 odd) is a set of k unordered pairs of
distinct nonzero residues whose 2k members are exactly {1, .., n-1}
and whose +- differences mod n also cover {1, .., n-1} exactly.  On
top of the base property:

  strong     -- the k pair sums mod n are pairwise distinct and nonzero
  Skolem     -- the integer differences hi - lo are exactly {1, .., k}
  cardioidal -- every pair has the doubling shape {x, 2x mod n}

A Pair is a NamedTuple (lo, hi), so Pair(1, 2) == (1, 2) and pairs
order and hash as plain tuples.  Starter.from_pairs validates and
canonicalizes in one loop; all four verdicts come from one pass over
the pairs, made once per Starter and kept on it, which classify and
each verify_* function read.  A decoded classification is checked.

Verifiers return (verdict, witness): the witness is the first
offending element / difference / sum / pair, kept small on purpose --
it exists for debugging, not for enumerating every failure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Any, Iterable, NamedTuple


class MalformedStarter(ValueError):
    """Candidate violates the structural shape of a starter."""


class Pair(NamedTuple):
    """Unordered pair of distinct nonzero residues, stored as lo < hi."""

    lo: int
    hi: int


Verdict = tuple[bool, "str | None"]


@dataclass(frozen=True)
class Starter:
    """A candidate starter: odd modulus plus canonically sorted pairs.

    recipe and classification are optional attachments (filled in by
    the construction layer); they never take part in equality, so two
    starters are equal exactly when their pair sets coincide.
    """

    modulus: int
    pairs: tuple[Pair, ...]
    recipe: Any = field(default=None, compare=False, repr=False)
    classification: "Classification | None" = field(default=None, compare=False, repr=False)
    # The witnesses of the one verification pass, which _verdict keeps.
    _witnesses: "tuple[str | None, ...] | None" = field(default=None, init=False, compare=False, repr=False)

    @property
    def k(self) -> int:
        return (self.modulus - 1) // 2

    @classmethod
    def from_pairs(cls, modulus: int, pairs: Iterable[tuple[int, int] | Pair]) -> "Starter":
        """Reduce each pair mod n, order it lo < hi, drop repeats, sort.

        The modulus and every pair member must be an int (bool is
        not); every pair must have exactly two members.
        """
        if type(modulus) is not int or modulus < 3 or modulus % 2 == 0:
            raise MalformedStarter(f"modulus must be an odd integer >= 3, got {modulus!r}")
        # A pair (lo, hi) is keyed as lo * n + hi: the keys sort in
        # (lo, hi) order, and ints deduplicate and sort faster than tuples.
        keys: set[int] = set()
        add = keys.add
        for pr in pairs:
            try:
                a, b = pr
            except (TypeError, ValueError):
                raise MalformedStarter(f"pair {pr!r} does not have exactly two members") from None
            if type(a) is not int or type(b) is not int:
                raise MalformedStarter(f"pair {pr!r} has a member that is not an integer")
            a %= modulus
            b %= modulus
            if 0 < a < b:
                add(a * modulus + b)
            elif 0 < b < a:
                add(b * modulus + a)
            elif a == 0 or b == 0:
                raise MalformedStarter(f"pair ({a}, {b}) contains 0 mod {modulus}")
            else:
                raise MalformedStarter(f"pair members coincide: {a} mod {modulus}")
        # tuple.__new__ builds each Pair in C, skipping Pair's Python-level __new__.
        ordered = map(divmod, sorted(keys), repeat(modulus))
        return cls(modulus, tuple(map(tuple.__new__, repeat(Pair), ordered)))

    def with_metadata(self, recipe: Any = None, classification: "Classification | None" = None) -> "Starter":
        copy = replace(self, recipe=recipe, classification=classification)
        # Same pairs, same verdicts: the copy keeps a pass already made.
        object.__setattr__(copy, "_witnesses", self._witnesses)
        return copy


_VERDICTS = ("starter", "strong", "skolem", "cardioidal")


@dataclass
class Classification:
    """Joint verdict of the four verifiers with failure witnesses.

    When is_starter is false the strong/Skolem verdicts are still
    computed but `dependent` is set: they describe a near-miss, not a
    starter.
    """

    is_starter: bool
    is_strong: bool
    is_skolem: bool
    is_cardioidal: bool
    dependent: bool
    witnesses: dict[str, str] = field(default_factory=dict)

    @property
    def all_four(self) -> bool:
        return self.is_starter and self.is_strong and self.is_skolem and self.is_cardioidal

    def to_dict(self) -> dict[str, Any]:
        return {
            "starter": self.is_starter,
            "strong": self.is_strong,
            "skolem": self.is_skolem,
            "cardioidal": self.is_cardioidal,
            "dependent": self.dependent,
            "witnesses": dict(self.witnesses),
        }


def _verify_all(s: Starter) -> tuple[str | None, str | None, str | None, str | None]:
    """The starter, strong, Skolem and cardioidal witnesses in one pass.

    The pass counts members, difference classes and integer
    differences in lists indexed by value, and settles the strong and
    cardioidal verdicts on the fly.  Each witness is the one the
    verifier's docstring names, None where the verdict holds; finding
    a starter or Skolem witness rescans the pairs, on failure only.
    Expects the canonical pairs from_pairs makes: 0 < lo < hi < n.
    """
    n, k, pairs = s.modulus, s.k, s.pairs
    if len(pairs) != k:
        raise MalformedStarter(f"modulus {n} needs {k} pairs, got {len(pairs)}")
    members = [0] * n
    classes = [0] * (k + 1)
    diffs = [0] * n
    by_sum: list[Pair | None] = [None] * n
    strong = cardioidal = None
    for pr in pairs:
        lo, hi = pr
        members[lo] += 1
        members[hi] += 1
        d = hi - lo
        diffs[d] += 1
        classes[d if d <= k else n - d] += 1
        if strong is None:
            t = (lo + hi) % n
            if t == 0:
                strong = f"pair ({lo}, {hi}) has sum 0 mod {n}"
            elif by_sum[t] is None:
                by_sum[t] = pr
            else:
                a, b = by_sum[t]
                strong = f"pairs ({a}, {b}) and ({lo}, {hi}) share sum {t} mod {n}"
        if cardioidal is None and (2 * lo - hi) % n and (2 * hi - lo) % n:
            cardioidal = f"pair ({lo}, {hi}) is not a doubling pair mod {n}"

    # k pairs fill the n - 1 member slots, the k classes and (when
    # Skolem) the k differences 1..k: each is right exactly when every
    # slot holds one.
    starter = None
    if members.count(1) != n - 1:
        e = next(e for e in range(1, n) if members[e] != 1)
        if members[e]:
            starter = f"element {e} occurs {members[e]} times among pair members"
        else:
            starter = f"element {e} never occurs among pair members"
    elif classes.count(1) != k:
        d = next(d for d in (hi - lo for lo, hi in pairs) if classes[min(d, n - d)] > 1)
        c = min(d, n - d)
        starter = f"difference class {{{c}, {n - c}}} covered more than once"
    skolem = None
    if diffs[1:k + 1].count(1) != k:
        # Some d exceeds k or repeats; with k pairs no d in 1..k can
        # then be missing without one of these showing first.
        for lo, hi in pairs:
            d = hi - lo
            if d > k:
                skolem = f"integer difference {d} of pair ({lo}, {hi}) exceeds {k}"
                break
            if diffs[d] > 1:
                skolem = f"integer difference {d} occurs {diffs[d]} times"
                break
    return starter, strong, skolem, cardioidal


def _verdict(s: Starter, i: int) -> Verdict:
    """Verdict i of the one pass over s, made on first use and kept."""
    if s._witnesses is None:
        object.__setattr__(s, "_witnesses", _verify_all(s))
    witness = s._witnesses[i]
    return witness is None, witness


def verify_starter(s: Starter) -> Verdict:
    """Endpoints exhaust 1..n-1 and +-differences mod n do as well.

    Witness: the smallest element not occurring exactly once, else the
    first pair whose difference class repeats.
    """
    return _verdict(s, 0)


def verify_strong(s: Starter) -> Verdict:
    """Pair sums mod n are pairwise distinct and nonzero.

    Witness: the first pair with sum 0, or with the sum of an earlier
    pair, which it names.
    """
    return _verdict(s, 1)


def verify_skolem(s: Starter) -> Verdict:
    """Integer differences hi - lo are exactly {1, .., k}.

    Equivalent to indexing the pairs so the i-th has difference i:
    with 0 < hi - lo < n both readings demand the same k-element set.
    Witness: the first pair whose difference exceeds k or repeats.
    """
    return _verdict(s, 2)


def verify_cardioidal(s: Starter) -> Verdict:
    """Every pair has the doubling shape {x, 2x mod n}.

    Witness: the first pair that is not a doubling pair.
    """
    return _verdict(s, 3)


def classify(s: Starter) -> Classification:
    """Run all four verifiers and bundle verdicts plus witnesses.

    One pass per Starter settles all four and is kept on it, so
    classify on a starter already verified makes no second pass.  The
    verdicts still go through the public verify_* functions, so
    whatever wraps them (perfbench's tracer counts verdicts there) sees
    each one.
    """
    verdicts = (verify_starter(s), verify_strong(s), verify_skolem(s), verify_cardioidal(s))
    (ok_starter, _), (ok_strong, _), (ok_skolem, _), (ok_card, _) = verdicts
    return Classification(
        is_starter=ok_starter,
        is_strong=ok_strong,
        is_skolem=ok_skolem,
        is_cardioidal=ok_card,
        dependent=not ok_starter,
        witnesses={name: w for name, (_, w) in zip(_VERDICTS, verdicts) if w is not None},
    )


def negate_starter(s: Starter) -> Starter:
    """Map every pair elementwise to its negative mod n, re-canonicalized.

    An involution; it preserves the starter, strong and cardioidal
    verdicts (sums negate, doubling pairs stay doubling pairs).
    """
    n = s.modulus
    return Starter.from_pairs(n, ((n - pr.hi, n - pr.lo) for pr in s.pairs))


# --- JSON interchange ------------------------------------------------------
#
# {"modulus": int, "pairs": [[lo, hi], ...], "recipe": {...}|null,
#  "classification": {...}|null}
# with pairs sorted ascending so output is byte-stable: starter_to_json
# is byte-identical to json.dumps(starter_to_dict(s), indent=2).


def _attachments(s: Starter) -> tuple[Any, dict[str, Any] | None]:
    recipe = s.recipe
    if recipe is not None and hasattr(recipe, "to_dict"):
        recipe = recipe.to_dict()
    return recipe, s.classification.to_dict() if s.classification else None


def starter_to_dict(s: Starter) -> dict[str, Any]:
    recipe, classification = _attachments(s)
    return {
        "modulus": s.modulus,
        "pairs": list(map(list, s.pairs)),
        "recipe": recipe,
        "classification": classification,
    }


_DOCUMENT_KEYS = frozenset({"modulus", "pairs", "recipe", "classification"})


def _same_json(value: Any, want: Any) -> bool:
    """value equals want as a JSON value: true is not 1, and objects
    have the same keys."""
    if isinstance(want, dict):
        return (isinstance(value, dict) and value.keys() == want.keys()
                and all(_same_json(value[key], w) for key, w in want.items()))
    return type(value) is type(want) and value == want


def starter_from_dict(doc: dict[str, Any]) -> Starter:
    """Decode and validate a starter document; MalformedStarter if it
    is not one.  A classification other than null must be exactly the
    one classify gives for the pairs; the starter carries that one."""
    if not isinstance(doc, dict):
        raise MalformedStarter(f"a starter document is a JSON object, got {type(doc).__name__}")
    missing = [key for key in ("modulus", "pairs") if key not in doc]
    if missing:
        raise MalformedStarter(f"starter document lacks {' and '.join(missing)}")
    unknown = [key for key in doc if key not in _DOCUMENT_KEYS]
    if unknown:
        raise MalformedStarter(f"unknown keys in starter document: {', '.join(map(repr, unknown))}")
    if not isinstance(doc["pairs"], list):
        raise MalformedStarter(f"pairs must be a list, got {type(doc['pairs']).__name__}")
    recipe = doc.get("recipe")
    if recipe is not None and not isinstance(recipe, dict):
        raise MalformedStarter(f"recipe must be an object or null, got {type(recipe).__name__}")
    s = Starter.from_pairs(doc["modulus"], doc["pairs"])
    cls = doc.get("classification")
    if cls is None:
        return s.with_metadata(recipe=recipe)
    computed = classify(s)
    want = computed.to_dict()
    if not _same_json(cls, want):
        raise MalformedStarter(f"classification is not the one its pairs give: {json.dumps(want)}")
    return s.with_metadata(recipe=recipe, classification=computed)


# One pair as json.dumps(indent=2) lays it out inside the document.
_PAIR_JSON = "    [\n      %d,\n      %d\n    ]"


def _nested(value: Any) -> str:
    """value as json.dumps(indent=2) lays it out one level down."""
    return json.dumps(value, indent=2).replace("\n", "\n  ")


def starter_to_json(s: Starter) -> str:
    recipe, classification = _attachments(s)
    pairs = "[\n" + ",\n".join(map(_PAIR_JSON.__mod__, s.pairs)) + "\n  ]" if s.pairs else "[]"
    return (
        f'{{\n  "modulus": {json.dumps(s.modulus)},\n  "pairs": {pairs},\n'
        f'  "recipe": {_nested(recipe)},\n  "classification": {_nested(classification)}\n}}'
    )


def starter_from_json(text: str) -> Starter:
    """Decode a starter document; MalformedStarter if it is not one,
    nested too deeply for the decoder included."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise MalformedStarter("JSON document is nested too deeply") from None
    return starter_from_dict(doc)
