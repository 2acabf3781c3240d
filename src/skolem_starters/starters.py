"""Starter domain types and the four verifiers.

A starter for Z_n (n = 2k + 1 odd) is a set of k unordered pairs of
distinct nonzero residues whose 2k members are exactly {1, .., n-1}
and whose +- differences mod n also cover {1, .., n-1} exactly.  On
top of the base property:

  strong     -- the k pair sums mod n are pairwise distinct and nonzero
  Skolem     -- the integer differences hi - lo are exactly {1, .., k}
  cardioidal -- every pair has the doubling shape {x, 2x mod n}

A Starter keeps its canonical pairs as two int columns, lows and
highs, sorted in (lo, hi) order.  Starter.from_pairs validates and
canonicalizes on one of two paths: a sized input of at least 64 pairs
with n <= 4 * len(pairs) is sorted by counting, in a list of n slots
indexed by lo; any other input, and one where a lo meets a second hi,
goes through a set of keys lo * n + hi and a sort.  The counting
path's read-back, _partner_columns, is shared with the constructions'
orbit walk and the exhaustive search's solutions, which fill the slots
themselves: neither recipe builds nor search results go through
from_pairs, and negate_starter sorts the negated columns itself.  The
verifiers and the JSON encoder walk the columns.  Its pairs property
builds a tuple of Pairs on each read: a Pair is a NamedTuple (lo, hi),
so Pair(1, 2) == (1, 2) and pairs order and hash as plain tuples.  All
four verdicts come from one pass over the pairs, made once per Starter
and kept on it, which classify and each verify_* function read.  A
Classification stores only the witnesses, and a decoded classification
is checked.

One layout rule writes every JSON document the library emits, the
starter document and cli's scan and search reports: _at lays a value
out as the indented json.dumps does at a given depth, and every
template comes from _object and _array, once per key layout.  Only a
recipe object goes through the indented json.dumps, whose pure-Python
encoder costs far more than the rest.  json itself is imported on
first use: building, verifying and classifying a starter never load it.

Verifiers return (verdict, witness): the witness is the first
offending element / difference / sum / pair, kept small on purpose --
it exists for debugging, not for enumerating every failure.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Sized
from functools import lru_cache
from itertools import compress, repeat
from typing import Any, NamedTuple


class MalformedStarter(ValueError):
    """Candidate violates the structural shape of a starter."""


class Pair(NamedTuple):
    """Unordered pair of distinct nonzero residues, stored as lo < hi."""

    lo: int
    hi: int


Verdict = tuple[bool, "str | None"]

# Fewest pairs that Starter.from_pairs sorts by counting; the search's
# many small starters stay on the key set, which allocates less.
_COUNTING_MIN_PAIRS = 64

# Writes a slot of an immutable Starter, past its __setattr__.
_set = object.__setattr__


class Starter:
    """A candidate starter: odd modulus plus canonically sorted pairs.

    Pair i is (lows[i], highs[i]), 0 < lo < hi < n, in ascending
    (lo, hi) order; build one with from_pairs (the constructions pass
    the columns of their walk, which they then certify, and the search
    the columns of its placements).  recipe and
    classification are optional attachments (filled in by the
    construction layer); they never take part in equality, hashing or
    the repr, so two starters are equal exactly when their pair sets
    coincide.  A Starter is immutable: assigning or deleting an
    attribute raises AttributeError.
    """

    # __weakref__: callers may hold a starter weakly.
    __slots__ = ("modulus", "lows", "highs", "recipe", "classification", "_witnesses", "__weakref__")

    modulus: int
    lows: tuple[int, ...]
    highs: tuple[int, ...]
    recipe: Any
    classification: "Classification | None"
    # The witnesses of the one verification pass, which _verdict keeps.
    _witnesses: "tuple[str | None, ...] | None"

    def __init__(self, modulus: int, lows: tuple[int, ...], highs: tuple[int, ...],
                 recipe: Any = None, classification: "Classification | None" = None) -> None:
        _set(self, "modulus", modulus)
        _set(self, "lows", lows)
        _set(self, "highs", highs)
        _set(self, "recipe", recipe)
        _set(self, "classification", classification)
        _set(self, "_witnesses", None)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.modulus, self.lows, self.highs) == (other.modulus, other.lows, other.highs)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.modulus, self.lows, self.highs))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(modulus={self.modulus!r}, lows={self.lows!r}, highs={self.highs!r})"

    def __reduce__(self) -> tuple[Any, ...]:
        # The default reduction restores slots by assignment, which
        # __setattr__ refuses; pickle and copy rebuild through __init__.
        return type(self), (self.modulus, self.lows, self.highs, self.recipe, self.classification)

    @property
    def k(self) -> int:
        return (self.modulus - 1) // 2

    @property
    def pairs(self) -> tuple[Pair, ...]:
        """The pairs as Pairs, built afresh on each read."""
        # tuple.__new__ builds each Pair in C, skipping Pair's Python-level __new__.
        return tuple(map(tuple.__new__, repeat(Pair), zip(self.lows, self.highs)))

    @classmethod
    def from_pairs(cls, modulus: int, pairs: Iterable[tuple[int, int] | Pair]) -> "Starter":
        """Reduce each pair mod n, order it lo < hi, drop repeats, sort.

        The modulus and every pair member must be a plain int (a bool
        or other int subclass is not);
        pairs must be iterable, every pair of exactly two members.

        A sized input of at least _COUNTING_MIN_PAIRS pairs with
        n <= 4 * len(pairs) is sorted by counting: partner[lo] = hi in
        a list of n slots, read back in lo order.  If one lo meets a
        second hi, the pairs seen so far move to the key set and the
        rest follow them there.  Any other input takes the key set
        from the start: each pair keyed as lo * n + hi, then sorted,
        so a huge modulus with few pairs allocates nothing of size n.
        """
        if type(modulus) is not int or modulus < 3 or modulus % 2 == 0:
            raise MalformedStarter(f"modulus must be an odd integer >= 3, got {modulus!r}")
        if not isinstance(pairs, Iterable):
            raise MalformedStarter(f"pairs must be iterable, got {type(pairs).__name__}")
        counting = isinstance(pairs, Sized) and _COUNTING_MIN_PAIRS <= len(pairs) and modulus <= 4 * len(pairs)
        partner: list[int] | None = [0] * modulus if counting else None
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
            if not 0 < a < b:
                if 0 < b < a:
                    a, b = b, a
                elif a == 0 or b == 0:
                    raise MalformedStarter(f"pair ({a}, {b}) contains 0 mod {modulus}")
                else:
                    raise MalformedStarter(f"pair members coincide: {a} mod {modulus}")
            if partner is None:
                add(a * modulus + b)
            elif not partner[a]:
                partner[a] = b
            elif partner[a] != b:
                keys.update([lo * modulus + hi for lo, hi in enumerate(partner) if hi])
                partner = None
                add(a * modulus + b)
        if partner is not None:
            return cls(modulus, *_partner_columns(partner))
        ordered = sorted(keys)
        return cls(modulus, tuple([key // modulus for key in ordered]),
                   tuple([key % modulus for key in ordered]))

    def with_metadata(self, recipe: Any = None, classification: "Classification | None" = None) -> "Starter":
        copy = type(self)(self.modulus, self.lows, self.highs, recipe, classification)
        # Same pairs, same verdicts: the copy keeps a pass already made.
        _set(copy, "_witnesses", self._witnesses)
        return copy


def _partner_columns(partner: list[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The canonical columns of partner[lo] = hi (0 for no pair), a list
    of n slots: the lows in ascending order and the highs beside them.

    Shared by Starter.from_pairs' counting path, the constructions'
    orbit walk and the exhaustive search's solutions, which fill the
    slots themselves.
    """
    # x + 0 makes fresh ints in sorted order: reusing the caller's ints,
    # which sit in their input order, slows every later walk over highs.
    return (tuple(compress(range(len(partner)), partner)),
            tuple(map(operator.add, filter(None, partner), repeat(0))))


_VERDICTS = ("starter", "strong", "skolem", "cardioidal")


class Classification:
    """Joint verdict of the four verifiers, stored as the failing ones'
    witnesses: a verdict holds exactly when its name has no witness.
    Two classifications are equal when their witnesses are; a
    Classification cannot be hashed.

    When is_starter is false the strong/Skolem verdicts are still
    computed but `dependent` is set: they describe a near-miss.
    """

    __slots__ = ("witnesses",)

    witnesses: dict[str, str]

    def __init__(self, witnesses: dict[str, str]) -> None:
        self.witnesses = witnesses

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.witnesses == other.witnesses
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(witnesses={self.witnesses!r})"

    def __reduce__(self) -> tuple[Any, ...]:
        # Pickle protocols 0 and 1 refuse a slotted class by default.
        return type(self), (self.witnesses,)

    is_starter = property(lambda self: "starter" not in self.witnesses)
    is_strong = property(lambda self: "strong" not in self.witnesses)
    is_skolem = property(lambda self: "skolem" not in self.witnesses)
    is_cardioidal = property(lambda self: "cardioidal" not in self.witnesses)
    dependent = property(lambda self: not self.is_starter)

    @property
    def all_four(self) -> bool:
        return self.is_starter and self.is_strong and self.is_skolem and self.is_cardioidal

    def to_dict(self) -> dict[str, Any]:
        verdicts = {name: name not in self.witnesses for name in _VERDICTS}
        return {**verdicts, "dependent": self.dependent, "witnesses": dict(self.witnesses)}


def _verify_all(s: Starter) -> tuple[str | None, str | None, str | None, str | None]:
    """The starter, strong, Skolem and cardioidal witnesses in one pass.

    The pass counts members, difference classes and integer
    differences in lists indexed by value, and settles the strong and
    cardioidal verdicts on the fly.  Each witness is the one the
    verifier's docstring names, None where the verdict holds; finding
    a starter or Skolem witness rescans the pairs, on failure only.
    Expects the canonical pairs from_pairs makes: 0 < lo < hi < n.
    """
    n, k, lows, highs = s.modulus, s.k, s.lows, s.highs
    if len(lows) != k:
        raise MalformedStarter(f"modulus {n} needs {k} pairs, got {len(lows)}")
    members = [0] * n
    classes = [0] * (k + 1)
    diffs = [0] * n
    # by_sum[t] is the lo of the pair with sum t (0 for none): its hi
    # is (t - lo) mod n.
    by_sum = [0] * n
    strong = cardioidal = None
    for lo, hi in zip(lows, highs):
        members[lo] += 1
        members[hi] += 1
        d = hi - lo
        diffs[d] += 1
        classes[d if d <= k else n - d] += 1
        if strong is None:
            t = (lo + hi) % n
            if t == 0:
                strong = f"pair ({lo}, {hi}) has sum 0 mod {n}"
            elif not by_sum[t]:
                by_sum[t] = lo
            else:
                a = by_sum[t]
                strong = f"pairs ({a}, {(t - a) % n}) and ({lo}, {hi}) share sum {t} mod {n}"
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
        d = next(d for d in (hi - lo for lo, hi in zip(lows, highs)) if classes[min(d, n - d)] > 1)
        c = min(d, n - d)
        starter = f"difference class {{{c}, {n - c}}} covered more than once"
    skolem = None
    if diffs[1:k + 1].count(1) != k:
        # Some d exceeds k or repeats; with k pairs no d in 1..k can
        # then be missing without one of these showing first.
        for lo, hi in zip(lows, highs):
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
        _set(s, "_witnesses", _verify_all(s))
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
    """Run all four verifiers and bundle their witnesses.

    One pass per Starter settles all four and is kept on it, so
    classify on a starter already verified makes no second pass.  The
    verdicts still go through the public verify_* functions, so
    whatever wraps them (perfbench's tracer counts verdicts there) sees
    each one.
    """
    verdicts = (verify_starter(s), verify_strong(s), verify_skolem(s), verify_cardioidal(s))
    return Classification({name: w for name, (_, w) in zip(_VERDICTS, verdicts) if w is not None})


def negate_starter(s: Starter) -> Starter:
    """Map every pair elementwise to its negative mod n, re-canonicalized.

    An involution; it preserves the starter, strong, Skolem and
    cardioidal verdicts (sums negate, (lo, hi) goes to (n - hi, n - lo)
    with the same hi - lo, doubling pairs stay doubling pairs).  The
    negated pairs sort in (lo, hi) order exactly as the (hi, lo) pairs
    sort descending, repeated highs included, so the columns are sorted
    once and mapped, with nothing to check or reduce.
    """
    n = s.modulus
    pairs = sorted(zip(s.highs, s.lows), reverse=True)
    return Starter(n, tuple([n - hi for hi, _ in pairs]), tuple([n - lo for _, lo in pairs]))


# --- JSON interchange ------------------------------------------------------
#
# {"modulus": int, "pairs": [[lo, hi], ...], "recipe": {...}|null,
#  "classification": {...}|null}
# with pairs sorted ascending so output is byte-stable: starter_to_json
# is byte-identical to _at(starter_to_dict(s), "").


def _recipe_value(s: Starter) -> Any:
    """The recipe as its document holds it: a Recipe as its dict."""
    recipe = s.recipe
    return recipe.to_dict() if recipe is not None and hasattr(recipe, "to_dict") else recipe


def starter_to_dict(s: Starter) -> dict[str, Any]:
    cls = s.classification
    return {
        "modulus": s.modulus,
        "pairs": list(map(list, zip(s.lows, s.highs))),
        "recipe": _recipe_value(s),
        "classification": None if cls is None else cls.to_dict(),
    }


_DOCUMENT_KEYS = ("modulus", "pairs", "recipe", "classification")


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
        raise MalformedStarter(f"classification is not the one its pairs give: {_dumps(want)}")
    return s.with_metadata(recipe=recipe, classification=computed)


def _dumps(value: Any, **options: Any) -> str:
    """json.dumps, imported on the first call, which then rebinds
    _dumps to it: later calls cost what json.dumps costs."""
    global _dumps
    from json import dumps as _dumps
    return _dumps(value, **options)


def _loads(text: str) -> Any:
    """json.loads, imported on the first call as _dumps is."""
    global _loads
    from json import loads as _loads
    return _loads(text)


def _at(value: Any, pad: str) -> str:
    """value as json.dumps(indent=2) lays it out below a line indented
    by pad.  Only a non-empty array or object spans lines; anything else
    is json.dumps(value), which takes the C encoder."""
    if isinstance(value, (dict, list, tuple)):
        return _dumps(value, indent=2).replace("\n", "\n" + pad)
    return _dumps(value)


def _array(items: list[str], pad: str) -> str:
    """An array of items, each already laid out below a line indented
    by pad + "  ", as _at lays it out at pad."""
    separator = f",\n  {pad}"
    return f"[\n  {pad}{separator.join(items)}\n{pad}]" if items else "[]"


def _key(key: Any) -> str:
    """The str json.dumps makes of an object key: 1 is "1", True
    "true", None "null", 2.5 "2.5".  It also refuses what json.dumps
    refuses."""
    if isinstance(key, str):
        return key
    if isinstance(key, (int, float)) or key is None:
        return _dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _quoted(key: str) -> str:
    """json.dumps(key) of a str key.  Printable ASCII other than " and \\
    is what json.dumps writes as it is, so the templates made at import,
    whose keys are all such, need no json."""
    if key.isascii() and key.isprintable() and '"' not in key and "\\" not in key:
        return f'"{key}"'
    return _dumps(key)


@lru_cache(maxsize=64)
def _object(keys: tuple[str, ...], pad: str) -> str:
    """A %s template of an object with these keys, as _at lays it out at
    pad, for values laid out by _at(value, pad + "  "); made once.  A
    key known only at run time goes through _key first: the keys 1,
    1.0 and True, or 0.0 and -0.0, are equal, so they would share one
    template, yet json.dumps writes each apart."""
    members = [_quoted(key).replace("%", "%%") + ": %s" for key in keys]
    return "{" + _array(members, pad)[1:-1] + "}"


_JSON_BOOLS = ("false", "true")
_DOCUMENT_JSON = _object(_DOCUMENT_KEYS, "")
_CLASSIFICATION_JSON = _object((*_VERDICTS, "dependent", "witnesses"), "  ")
_PAIR_JSON = _array(["%d", "%d"], "    ")


def _classification_json(cls: Classification) -> str:
    """cls.to_dict() as _at lays it out at "  "."""
    witnesses = cls.witnesses
    written = _object(tuple(map(_key, witnesses)), "    ") % tuple([_at(w, "      ") for w in witnesses.values()])
    verdicts = [_JSON_BOOLS[name not in witnesses] for name in _VERDICTS]
    return _CLASSIFICATION_JSON % (*verdicts, _JSON_BOOLS["starter" in witnesses], written)


def starter_to_json(s: Starter) -> str:
    """_at(starter_to_dict(s), ""), filled into the document's template."""
    recipe, cls = _recipe_value(s), s.classification
    # Slicing interleaves the columns faster than chain does.
    flat = [0] * (2 * len(s.lows))
    flat[::2], flat[1::2] = s.lows, s.highs
    # One format call writes the whole document, each lo and hi into its own
    # slot, and copies no pairs text (_DOCUMENT_JSON's keys hold no "%").
    template = _DOCUMENT_JSON % ("%s", _array([_PAIR_JSON] * len(s.lows), "  "), "%s", "%s")
    return template % (s.modulus, *flat, "null" if recipe is None else _at(recipe, "  "),
                       "null" if cls is None else _classification_json(cls))


def starter_from_json(text: str) -> Starter:
    """Decode a starter document; MalformedStarter if it is not one,
    nested too deeply for the decoder included."""
    try:
        doc = _loads(text)
    except RecursionError:
        raise MalformedStarter("JSON document is nested too deeply") from None
    return starter_from_dict(doc)
