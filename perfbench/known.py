"""Known answers the benchmark checks every output against, and naive
reference code (trial division, successive powers, plain counting) that
shares no code path with the library."""

from __future__ import annotations

import hashlib
import json
import math

# sha256 of starter_to_json(pq_cyclotomic_starter(281, 617, 3)): the
# byte-identical JSON contract for refactors.
Z173377_SHA256 = "f9f95240bdff260b35aa1c6d5ddf14b41d89fdff154165b8975029a96c2135a7"
Z173377_PAIRS = 86688

# Scan pins: (hit count, params_digest of the hits).
SCANS = {
    "pq-pairs 5000": (13731, "c9823f07b4216479"),
    "cyclotomic k=3 200000": (550, "0be5f857b8615382"),
    "cyclotomic k=4 200000": (140, "8a7938d6604948c4"),
    "cyclotomic k=5 200000": (36, "e1554e82bb166c9a"),
    "pq-pairs cyclotomic k=3 20000": (2340, "01bccee34650edcd"),
}
# Over the 2340 cyclotomic pairs, all of which have a common root.
MINUS_ONE_CERTIFIED = 2340
TWO_IN_COSET_CERTIFIED = 1882

# Primes p <= 5000 admissible for cyclotomic_starter(p, 3).
CYCLOTOMIC_K3_UPTO_5000 = (
    281, 617, 1033, 1049, 1097, 1193, 1481, 1753, 2281, 2393,
    2473, 2857, 3049, 3529, 3673, 3833, 4153, 4217, 4457, 4937,
)

# Number of Skolem (plain) and strong Skolem starters of Z_n.
FIND_ALL = {
    False: {3: 1, 5: 0, 7: 0, 9: 6, 11: 10, 13: 0, 15: 0, 17: 504, 19: 2656, 21: 0},
    True: {3: 0, 5: 0, 7: 0, 9: 0, 11: 2, 13: 0, 15: 0, 17: 38, 19: 102, 21: 0},
}
# Number of starters of Z_n (any differences), n <= 15.
ENUMERATED = {3: 1, 5: 1, 7: 3, 9: 9, 11: 25, 13: 133, 15: 631}


def skolem_exists(n: int) -> bool:
    """Skolem starters of Z_n exist exactly when n = 1 or 3 (mod 8)."""
    return n % 8 in (1, 3)


def params_digest(report) -> str:
    return hashlib.sha256(json.dumps([h.params for h in report.hits]).encode()).hexdigest()[:16]


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def order(x: int, m: int) -> int:
    v, e = x % m, 1
    while v != 1:
        v = v * x % m
        e += 1
    return e


def dlog(x: int, r: int, m: int) -> int:
    v, e = 1, 0
    while v != x % m:
        v = v * r % m
        e += 1
    return e


def pair_sets(modulus: int, pairs) -> dict[str, bool]:
    """Starter, strong and Skolem verdicts by plain counting."""
    k = (modulus - 1) // 2
    members = sorted(x for pr in pairs for x in pr)
    classes = sorted(min((b - a) % modulus, (a - b) % modulus) for a, b in pairs)
    sums = [(a + b) % modulus for a, b in pairs]
    diffs = sorted(abs(b - a) for a, b in pairs)
    return {
        "starter": len(pairs) == k and members == list(range(1, modulus))
        and classes == list(range(1, k + 1)),
        "strong": 0 not in sums and len(set(sums)) == len(sums),
        "skolem": diffs == list(range(1, k + 1)),
    }


def pairs_of(starter) -> list[tuple[int, int]]:
    return [(pr.lo, pr.hi) for pr in starter.pairs]


def plant_defect(doc: dict, rng) -> tuple[dict, int]:
    """Copy a starter document with one member duplicated.

    The higher member of one pair is replaced by the higher member of
    another, so one element occurs twice and one never occurs.  Returns
    the document and the element the starter witness must name: the
    smaller of the two, which the verifier meets first.
    """
    pairs = [list(pr) for pr in doc["pairs"]]
    i, j = rng.sample(range(len(pairs)), 2)
    lost, doubled = max(pairs[i]), max(pairs[j])
    pairs[i] = [min(pairs[i]), doubled]
    near = dict(doc, pairs=pairs, classification=None)
    return near, min(lost, doubled)


def names_element(witness: str | None, element: int) -> bool:
    return witness is not None and f"element {element} " in witness
