"""The three workloads.  Each builds its inputs from the seed once, then
runs rounds: every round makes the same library calls and checks every
result against the known answers in known.py.

Library functions are looked up on their module at call time, so a
traced round reaches them through the tracer's wrappers.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from time import monotonic

from skolem_starters import cli, constructions, search, starters

import known


def run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main in-process, with stdout captured and stderr discarded."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def naive_verdicts(starter) -> dict[str, bool]:
    return known.pair_sets(starter.modulus, known.pairs_of(starter))


def decode_and_classify(texts: list[str]) -> list:
    out = []
    for text in texts:
        s = starters.starter_from_json(text)
        out.append((s, starters.classify(s)))
    return out


def check_decoded(s, decoded) -> str | None:
    """The decoded starter equals s and its verdicts match plain counting."""
    d, c = decoded
    if d != s:
        return f"modulus {s.modulus}: decoded pairs differ from the emitted ones"
    v = naive_verdicts(d)
    if (c.is_starter, c.is_strong, c.is_skolem) != (v["starter"], v["strong"], v["skolem"]):
        return f"modulus {s.modulus}: verdicts {c.to_dict()} differ from naive {v}"
    return None


def check_near_miss(cls: dict, element: int) -> str | None:
    """cls is a classification document; the witness must name the defect."""
    if cls["starter"]:
        return "near-miss accepted as a starter"
    witness = cls["witnesses"].get("starter")
    if not known.names_element(witness, element):
        return f"witness {witness!r} does not name element {element}"
    return None


def _primes(lo: int, hi: int) -> list[int]:
    return [p for p in range(lo, hi) if known.is_prime(p)]


# Emitting Z_173377 takes half a second, a quarter of the other steps,
# so it runs more than once a round for as many seconds of samples.
EMIT_REPEAT = 3


class BigPQ:
    """The Z_173377 starter: build, emit, CLI verify, CLI reject."""

    name = "big-pq"

    def __init__(self, seed: int, workdir: str, deadline: float) -> None:
        self.rng = random.Random(seed)
        self.path = os.path.join(workdir, "z173377.json")
        self.near_path = os.path.join(workdir, "z173377-near.json")
        self.element: int | None = None

    def round(self, rnd) -> None:
        s = rnd.op(
            "construct Z_173377",
            lambda: constructions.pq_cyclotomic_starter(281, 617, 3),
            "solve",
            lambda s: None if len(s.pairs) == known.Z173377_PAIRS and s.classification.all_four
            else "wrong Z_173377 starter",
        )
        if s is None:
            return
        text = rnd.op("emit Z_173377", lambda: self._emit(s), "emit", self._check_digest,
                      EMIT_REPEAT)
        if text is None:
            return
        if self.element is None:
            near, self.element = known.plant_defect(json.loads(text), self.rng)
            with open(self.near_path, "w", encoding="utf-8") as fh:
                json.dump(near, fh, indent=2)
        rnd.op("cli verify Z_173377", lambda: run_cli(["verify", "--in", self.path, "--json"]),
               "verify", self._check_accepted)
        rnd.op("cli verify near-miss", lambda: run_cli(["verify", "--in", self.near_path, "--json"]),
               "reject", self._check_rejected)

    def _emit(self, s) -> str:
        text = starters.starter_to_json(s)
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return text

    @staticmethod
    def _check_digest(text: str) -> str | None:
        digest = hashlib.sha256(text.encode()).hexdigest()
        return None if digest == known.Z173377_SHA256 else f"JSON sha256 {digest} differs"

    @staticmethod
    def _check_accepted(result) -> str | None:
        code, out = result
        doc = json.loads(out)
        cls = doc["classification"]
        if code != 0 or not (cls["starter"] and cls["strong"] and cls["skolem"]):
            return f"exit {code}, verdicts {cls}"
        if len(doc["pairs"]) != known.Z173377_PAIRS:
            return f"{len(doc['pairs'])} pairs in the verified document"
        return None

    def _check_rejected(self, result) -> str | None:
        code, out = result
        if code != 1:
            return f"exit {code}"
        return check_near_miss(json.loads(out)["classification"], self.element)

    def close(self) -> None:
        for path in (self.path, self.near_path):
            if os.path.exists(path):
                os.remove(path)


class ScanBuild:
    """Parameter scans with certificates, then one item per small
    admissible parameter set: build, JSON round trip, reject a near-miss.

    pq_cyclotomic_starter has no small instance (the smallest admissible
    pair is 281 * 617, which big-pq builds), so the items cover the
    other six recipes.
    """

    name = "scan-build"

    def __init__(self, seed: int, workdir: str, deadline: float) -> None:
        self.rng = random.Random(seed)
        self.items = self._items()
        self.near: dict[str, tuple[str, int]] = {}
        self.sampled = False

    def _items(self) -> list[tuple[str, tuple, bool, bool]]:
        """(label, (recipe name, *arguments), Skolem expected, refusal expected)."""
        rng = self.rng
        items = []

        def beta():
            return rng.choice((2, "2inv"))

        for p in _primes(5, 1000):
            if p % 8 == 3:
                for b in (2, "2inv"):
                    items.append((f"qr {p} {b}", ("qr_starter", p, b), True, False))
            if p % 4 == 3:
                b = rng.choice([b for b in range(2, p - 1) if pow(b, (p - 1) // 2, p) == p - 1])
                items.append((f"horton {p} {b}", ("horton_starter", p, b), False, False))
        for p in known.CYCLOTOMIC_K3_UPTO_5000:
            b = beta()
            items.append((f"cyclotomic {p} {b}", ("cyclotomic_starter", p, 3, b), True, False))
        for p, n in ((11, 1), (11, 2), (11, 3), (19, 2), (43, 2)):
            b = beta()
            items.append((f"prime-power {p}^{n} {b}", ("prime_power_starter", p, n, b), True, False))
        for p in (281, 617):
            b = beta()
            items.append((f"prime-power-cyclotomic {p} {b}",
                          ("prime_power_cyclotomic_starter", p, 3, 1, b), True, False))
        qr_primes = [p for p in _primes(5, 121) if p % 8 == 3]
        for i, p in enumerate(qr_primes):
            for q in qr_primes[i + 1:]:
                if (q - 1) % (p - 1):
                    # The recipe needs gcd(p-1, q-1) = 2 and refuses otherwise.
                    refused = math.gcd(p - 1, q - 1) > 2
                    items.append((f"pq {p} {q}", ("pq_starter", p, q, beta()), True, refused))
        return items

    def round(self, rnd) -> None:
        reports = {}
        for label, fn in (
            ("pq-pairs 5000", lambda: search.scan_pq_pairs(5000)),
            ("cyclotomic k=3 200000", lambda: search.scan_cyclotomic_primes(3, 200000)),
            ("cyclotomic k=4 200000", lambda: search.scan_cyclotomic_primes(4, 200000)),
            ("cyclotomic k=5 200000", lambda: search.scan_cyclotomic_primes(5, 200000)),
            ("pq-pairs cyclotomic k=3 20000", lambda: search.scan_pq_pairs(20000, "cyclotomic", 3)),
        ):
            reports[label] = rnd.op(f"scan {label}", fn, "solve", self._scan_check(label))
        pairs = reports["pq-pairs cyclotomic k=3 20000"]
        if pairs is not None:
            rnd.op("coset certificates", lambda: self._certificates(pairs), "solve",
                   lambda counts: None
                   if counts == (known.MINUS_ONE_CERTIFIED, known.TWO_IN_COSET_CERTIFIED)
                   else f"certified counts {counts}")
        if not self.sampled:
            self.sampled = True
            self._naive_sample(rnd, reports)
        for item in self.items:
            self._item(rnd, *item)

    @staticmethod
    def _scan_check(label: str):
        want = known.SCANS[label]

        def check(report) -> str | None:
            got = (len(report.hits), known.params_digest(report))
            return None if got == want else f"hits {got}, expected {want}"

        return check

    @staticmethod
    def _certificates(report) -> tuple[int, int]:
        minus_one = two = 0
        for hit in report.hits:
            root = hit.certificates["common_root"]
            if root is None:
                continue
            p, q = hit.params["p"], hit.params["q"]
            minus_one += constructions.check_minus_one_coset(p, q, 3, root)
            two += constructions.check_two_in_coset(p, q, 3, root)
        return minus_one, two

    def _naive_sample(self, rnd, reports) -> None:
        """Recompute a seeded sample of scan hits by trial division and
        successive powers.  Untimed, once a run."""
        for k in (3, 4, 5):
            report = reports[f"cyclotomic k={k} 200000"]
            if report is None:
                continue
            for hit in self.rng.sample(report.hits, 2):
                p, cert = hit.params["p"], hit.certificates
                t, r = (p - 1) >> k, cert["root"]
                ok = (known.is_prime(p) and t << k == p - 1 and t == cert["t"] and t % 2 == 1
                      and t > 1 and known.order(r, p) == p - 1
                      and all(known.order(x, p) != p - 1 for x in range(2, r))
                      and known.dlog(2, r, p) % (1 << k) == 1 << (k - 1)
                      and known.order(2, p) == cert["ord2"])
                rnd.expect(f"naive cyclotomic k={k} p={p}", ok, f"certificates {cert} are wrong")
        for label in ("pq-pairs 5000", "pq-pairs cyclotomic k=3 20000"):
            report = reports[label]
            if report is None:
                continue
            for hit in self.rng.sample(report.hits, 3):
                p, q, cert = hit.params["p"], hit.params["q"], hit.certificates
                r = cert["common_root"]

                def primitive(x):
                    return x % p and x % q and known.order(x, p) == p - 1 and known.order(x, q) == q - 1

                ok = (known.is_prime(p) and known.is_prime(q) and p < q and (q - 1) % (p - 1)
                      and primitive(r) and not any(primitive(x) for x in range(2, r))
                      and cert["gcd_p1_q1"] == math.gcd(p - 1, q - 1))
                rnd.expect(f"naive {label} ({p}, {q})", ok, f"certificates {cert} are wrong")

    def _item(self, rnd, label, build, skolem, refusal) -> None:
        recipe, *args = build

        def attempt():
            try:
                return getattr(constructions, recipe)(*args)
            except constructions.CoverageFailure as exc:
                return exc

        def refused(result) -> bool:
            return isinstance(result, constructions.CoverageFailure)

        def check(result) -> str | None:
            if refusal or refused(result):
                return None if refusal and refused(result) else f"refusal expected: {refusal}, got {result!r}"
            v = naive_verdicts(result)
            if not (v["starter"] and v["strong"]) or (skolem and not v["skolem"]):
                return f"wrong starter, naive verdicts {v}"
            return None

        s = rnd.op(f"{label} build", attempt, lambda r: "reject" if refused(r) else "solve", check)
        if s is None or refused(s):
            return
        text = rnd.op(f"{label} emit", lambda: starters.starter_to_json(s), "emit")
        decoded = rnd.op(f"{label} verify", lambda: decode_and_classify([text]), "verify",
                         lambda d: check_decoded(s, d[0]) or self._check_recipe(s, d[0][0]))
        if decoded is None:
            return
        if label not in self.near:
            near, element = known.plant_defect(json.loads(text), self.rng)
            self.near[label] = (json.dumps(near, indent=2), element)
        near_text, element = self.near[label]
        rnd.op(f"{label} reject", lambda: starters.classify(starters.starter_from_json(near_text)),
               "reject", lambda c: check_near_miss(c.to_dict(), element))

    @staticmethod
    def _check_recipe(s, decoded) -> str | None:
        recipe = json.loads(json.dumps(s.recipe.to_dict()))
        return None if decoded.recipe == recipe else f"recipe {decoded.recipe} differs from {recipe}"

    def close(self) -> None:
        pass


# Searches below n = 21 take under half a second, too short for one
# sample to be steady on a shared machine, so they run more than once.
SHORT_REPEAT = 3


def _repeat(n: int) -> int:
    return SHORT_REPEAT if n < 21 else 1


def _found_or_proof(found) -> str:
    return "solve" if found else "reject"


class SearchLadder:
    """Exhaustive search: the plain ladder, strong first-found, find_all,
    and the enumerate_starters cross-check.  An empty result is a proof
    of nonexistence; a timeout raises, so it fails instead."""

    name = "search-ladder"

    def __init__(self, seed: int, workdir: str, deadline: float) -> None:
        self.deadline = deadline

    def timeout(self) -> float:
        return max(0.0, min(60.0, self.deadline - monotonic()))

    def round(self, rnd) -> None:
        for n in range(3, 28, 2):
            self.first(rnd, n, strong=False)
        for n in (11, 17, 19, 25, 27, 33):
            self.first(rnd, n, strong=True)
        enumerated = {n: self.enumerate(rnd, n) for n in range(3, 16, 2)}
        for strong in (False, True):
            for n in range(3, 22, 2):
                self.find_all(rnd, n, strong, enumerated.get(n))

    def first(self, rnd, n: int, strong: bool) -> None:
        label = f"{'strong' if strong else 'plain'} n={n}"

        def check(found) -> str | None:
            # Every n in the strong slice is admissible; plain follows the n mod 8 law.
            if bool(found) != (strong or known.skolem_exists(n)):
                return f"found {len(found)}, but existence is {known.skolem_exists(n)}"
            v = naive_verdicts(found[0]) if found else None
            if v and not (v["starter"] and v["skolem"] and (v["strong"] or not strong)):
                return f"wrong starter, naive verdicts {v}"
            return None

        found = rnd.op(
            label,
            lambda: search.exhaustive_skolem_search(n, require_strong=strong, timeout=self.timeout()),
            _found_or_proof, check, _repeat(n))
        if found:
            self._emit_verify(rnd, label, found)

    @staticmethod
    def enumerate(rnd, n: int):
        want = known.ENUMERATED[n]
        return rnd.op(
            f"enumerate n={n}", lambda: search.enumerate_starters(n), "solve",
            lambda found: None if len(found) == want and all(naive_verdicts(s)["starter"] for s in found)
            else f"{len(found)} starters, expected {want}",
            _repeat(n))

    def find_all(self, rnd, n: int, strong: bool, enumerated) -> None:
        label = f"find_all {'strong' if strong else 'plain'} n={n}"
        want = known.FIND_ALL[strong][n]

        def check(found) -> str | None:
            if len(found) != want:
                return f"{len(found)} solutions, expected {want}"
            sets = {frozenset(known.pairs_of(s)) for s in found}
            if len(sets) != len(found):
                return "duplicate solutions"
            for s in found:
                v = naive_verdicts(s)
                if not (v["starter"] and v["skolem"] and (v["strong"] or not strong)):
                    return f"wrong solution, naive verdicts {v}"
            if enumerated is not None:
                expected = set()
                for s in enumerated:
                    v = naive_verdicts(s)
                    if v["skolem"] and (v["strong"] or not strong):
                        expected.add(frozenset(known.pairs_of(s)))
                if expected != sets:
                    return "solutions differ from the enumerate_starters cross-check"
            return None

        found = rnd.op(
            label,
            lambda: search.exhaustive_skolem_search(
                n, require_strong=strong, find_all=True, timeout=self.timeout()),
            _found_or_proof, check, _repeat(n))
        if found:
            self._emit_verify(rnd, label, found)

    @staticmethod
    def _emit_verify(rnd, label: str, found) -> None:
        texts = rnd.op(f"{label} emit", lambda: [starters.starter_to_json(s) for s in found],
                       "emit", repeat=SHORT_REPEAT)
        if texts is None:
            return

        def check(decoded) -> str | None:
            if len(decoded) != len(found):
                return f"{len(decoded)} documents decoded for {len(found)} starters"
            return next(filter(None, map(check_decoded, found, decoded)), None)

        rnd.op(f"{label} verify", lambda: decode_and_classify(texts), "verify", check, SHORT_REPEAT)

    def close(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (BigPQ, ScanBuild, SearchLadder)}
