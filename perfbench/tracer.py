"""Spans and counts at the layer boundaries of skolem_starters.

The tracer wraps each layer's public functions at every binding a
caller looks them up through (module globals and class attributes), so
nothing under src/ changes.  Calls made inside modnt are not wrapped,
except discrete_log, whose count must include the calls that
cyclotomic_index makes.  Spans are recorded only while a benchmark
operation is running and stay in memory until write() is called.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import skolem_starters
from skolem_starters import cli, constructions, modnt, search, starters

MODULES = {
    "modnt": modnt,
    "starters": starters,
    "constructions": constructions,
    "search": search,
    "cli": cli,
}

RECIPES = {
    "horton_starter": "horton",
    "qr_starter": "qr",
    "cyclotomic_starter": "cyclotomic",
    "prime_power_starter": "prime_power",
    "prime_power_cyclotomic_starter": "prime_power_cyclotomic",
    "pq_starter": "pq",
    "pq_cyclotomic_starter": "pq_cyclotomic",
}
VERIFIERS = ("verify_starter", "verify_strong", "verify_skolem", "verify_cardioidal")

# (layer, function name) -> what the span's outcome records on return.
FUNCTIONS = {
    **{("modnt", name): None for name in (
        "mod_pow", "is_prime", "factorize", "euler_phi", "multiplicative_order",
        "is_primitive_root", "find_primitive_root", "lift_primitive_root",
        "euler_class", "quadratic_residues", "discrete_log", "cyclotomic_index",
        "cyclotomic_class", "cyclic_coset", "crt_map", "crt_inverse", "crt_solve",
        "unit_partition_ppow", "unit_partition_pq",
    )},
    **{("starters", name): "verdict" for name in VERIFIERS},
    ("starters", "classify"): None,
    ("starters", "starter_to_dict"): None,
    ("starters", "starter_to_json"): "length",
    ("starters", "starter_from_dict"): None,
    ("starters", "starter_from_json"): None,
    ("starters", "negate_starter"): None,
    **{("constructions", name): None for name in RECIPES},
    ("constructions", "check_minus_one_coset"): None,
    ("constructions", "check_two_in_coset"): None,
    ("search", "scan_qr_primes"): None,
    ("search", "scan_cyclotomic_primes"): None,
    ("search", "scan_pq_pairs"): None,
    ("search", "find_common_primitive_root"): None,
    ("search", "exhaustive_skolem_search"): "length",
    ("search", "enumerate_starters"): "length",
    ("cli", "main"): None,
}

# Classmethods wrapped on their class: (layer, class, method) -> outcome.
CLASSMETHODS = {
    ("starters", "Starter", "from_pairs"): "pairs",
    ("modnt", "CyclotomicStructure", "for_prime"): None,
    ("modnt", "GroupContext", "for_prime"): None,
    ("modnt", "GroupContext", "for_prime_power"): None,
    ("modnt", "GroupContext", "for_product"): None,
}

# Functions whose calls inside their own layer are wrapped too.
IN_LAYER = {"discrete_log"}


def _outcome(kind, result):
    if kind == "length":
        return len(result)
    if kind == "pairs":
        return len(result.pairs)
    if kind == "verdict":
        ok, witness = result
        return "pass" if ok else ("witness" if witness is not None else "bare")
    return None


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, item."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, item, outcome]
        self.items: list[str] = []
        self.recording = False
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def begin_item(self, label: str) -> None:
        self.items.append(label)
        self.recording = True

    def end_item(self) -> None:
        self.recording = False

    def _wrap(self, name: str, fn, kind):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, len(self.items) - 1, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            span[5] = _outcome(kind, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every binding of the traced functions.

        A function or class the library no longer has is skipped; its
        metrics then read zero.
        """
        bindings = [skolem_starters, *MODULES.values()]
        for (layer, fname), kind in FUNCTIONS.items():
            home = MODULES[layer]
            original = getattr(home, fname, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{layer}.{fname}", original, kind)
            for module in bindings:
                if module is home and layer == "modnt" and fname not in IN_LAYER:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        for (layer, cname, mname), kind in CLASSMETHODS.items():
            method = vars(getattr(MODULES[layer], cname, object)).get(mname)
            if not isinstance(method, classmethod):
                continue
            wrapper = self._wrap(f"{layer}.{cname}.{mname}", method.__func__, kind)
            self._patch(getattr(MODULES[layer], cname), mname, classmethod(wrapper))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def write(self, fh) -> None:
        """Append the spans as JSON lines: a header, then one span a line."""
        fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "item", "outcome"],
                             "items": self.items}) + "\n")
        for span in self.spans:
            fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list], traced_wall: float) -> dict[str, float]:
    """Per-layer counts and self times of one traced round."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counted: dict[str, int] = {}
    outcomes: dict[str, list] = {}
    for span, t in zip(spans, own):
        name, outcome = span[0], span[5]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + t
        if isinstance(outcome, int):
            counted[name] = counted.get(name, 0) + outcome
        outcomes.setdefault(name, []).append(outcome)

    def total(table, names):
        return sum(table.get(n, 0) for n in names)

    def names(layer, *fnames):
        return [f"{layer}.{f}" for f in fnames]

    modnt_names = [n for n in calls if n.startswith("modnt.")]
    recipes = names("constructions", *RECIPES)
    verifiers = names("starters", *VERIFIERS)
    exhaustive = "search.exhaustive_skolem_search"
    searches = outcomes.get(exhaustive, [])
    recipe_outcomes = [o for n in recipes for o in outcomes.get(n, [])]
    verdicts = [o for n in verifiers for o in outcomes.get(n, [])]
    rejects = [o for o in verdicts if o != "pass"]

    m = {
        "modnt.calls": total(calls, modnt_names),
        "modnt.self_s": total(self_s, modnt_names),
        "modnt.discrete_log.calls": calls.get("modnt.discrete_log", 0),
        "modnt.discrete_log.self_s": self_s.get("modnt.discrete_log", 0.0),
        "search.scan.self_s": total(self_s, names("search", "scan_qr_primes", "scan_cyclotomic_primes", "scan_pq_pairs")),
        "search.common_root.calls": calls.get("search.find_common_primitive_root", 0),
        "search.common_root.self_s": self_s.get("search.find_common_primitive_root", 0.0),
        "search.exhaustive.calls": calls.get(exhaustive, 0),
        "search.exhaustive.self_s": self_s.get(exhaustive, 0.0),
        "search.enumerate.self_s": self_s.get("search.enumerate_starters", 0.0),
        "search.solutions": counted.get(exhaustive, 0),
        "search.found": sum(1 for o in searches if isinstance(o, int) and o > 0),
        "search.exhausted": sum(1 for o in searches if o == 0),
        "search.timeouts": sum(1 for o in searches if o == "SearchTimeout"),
        "constructions.self_s": total(self_s, [n for n in calls if n.startswith("constructions.")]),
    }
    for fname, method in RECIPES.items():
        m[f"constructions.{method}.self_s"] = self_s.get(f"constructions.{fname}", 0.0)
    m["constructions.certificates.self_s"] = total(
        self_s, names("constructions", "check_minus_one_coset", "check_two_in_coset"))
    m["constructions.refused_frac"] = (
        sum(1 for o in recipe_outcomes if o == "CoverageFailure") / max(len(recipe_outcomes), 1))
    canon = "starters.Starter.from_pairs"
    m["starters.canon.calls"] = calls.get(canon, 0)
    m["starters.canon.pairs"] = counted.get(canon, 0)
    m["starters.canon.self_s"] = self_s.get(canon, 0.0)
    m["starters.verify.calls"] = len(verdicts)
    m["starters.verify.self_s"] = total(self_s, verifiers + ["starters.classify"])
    m["starters.verify.witness_frac"] = (
        sum(1 for o in rejects if o == "witness") / max(len(rejects), 1))
    m["starters.json.encode_s"] = total(self_s, names("starters", "starter_to_dict", "starter_to_json"))
    m["starters.json.decode_s"] = total(self_s, names("starters", "starter_from_dict", "starter_from_json"))
    m["starters.json.bytes"] = counted.get("starters.starter_to_json", 0)
    m["cli.self_s"] = self_s.get("cli.main", 0.0)
    m["trace.coverage_frac"] = sum(own) / traced_wall if traced_wall > 0 else 0.0
    return m


def median_metrics(per_round: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
