"""Naive reference implementations used as independent test oracles.

Everything here is deliberately dumb -- successive powers, trial
division, full scans -- so that it shares no code path with the
library functions it cross-checks.
"""

from __future__ import annotations

import math
from collections import Counter

from skolem_starters.starters import Classification, MalformedStarter, Pair, Starter


def naive_order(x: int, m: int) -> int:
    v, e = x % m, 1
    while v != 1:
        v = v * x % m
        e += 1
        assert e <= m, "not a unit"
    return e


def naive_dlog(x: int, r: int, m: int) -> int | None:
    v, e = 1, 0
    x %= m
    while v != x:
        v = v * r % m
        e += 1
        if e >= m:
            return None
    return e


def trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def squares_set(p: int) -> set[int]:
    return {pow(i, 2, p) for i in range(1, p)}


def naive_coset(g: int, shift: int, m: int) -> set[int]:
    out: set[int] = set()
    v = shift % m
    while v not in out:
        out.add(v)
        v = v * g % m
    return out


# --- the original verifiers ---------------------------------------------------
#
# Four separate passes with Counters, kept as the slow reference the
# fused single-pass verifiers in skolem_starters.starters must match,
# witnesses included.


def _require_shape(s: Starter) -> None:
    if len(s.pairs) != s.k:
        raise MalformedStarter(
            f"modulus {s.modulus} needs {s.k} pairs, got {len(s.pairs)}"
        )


def verify_starter(s: Starter) -> tuple[bool, str | None]:
    """Endpoints exhaust 1..n-1 and +-differences mod n do as well."""
    _require_shape(s)
    n = s.modulus
    members = Counter()
    for pr in s.pairs:
        members[pr.lo] += 1
        members[pr.hi] += 1
    for e in range(1, n):
        if members[e] > 1:
            return False, f"element {e} occurs {members[e]} times among pair members"
        if members[e] == 0:
            return False, f"element {e} never occurs among pair members"
    diffs = Counter()
    for pr in s.pairs:
        d = (pr.hi - pr.lo) % n
        diffs[d] += 1
        diffs[n - d] += 1
    for pr in s.pairs:
        d = (pr.hi - pr.lo) % n
        if diffs[d] > 1:
            lo_d = min(d, n - d)
            return False, f"difference class {{{lo_d}, {n - lo_d}}} covered more than once"
    return True, None


def verify_strong(s: Starter) -> tuple[bool, str | None]:
    """Pair sums mod n are pairwise distinct and nonzero."""
    _require_shape(s)
    n = s.modulus
    seen: dict[int, Pair] = {}
    for pr in s.pairs:
        t = (pr.lo + pr.hi) % n
        if t == 0:
            return False, f"pair ({pr.lo}, {pr.hi}) has sum 0 mod {n}"
        if t in seen:
            other = seen[t]
            return False, (
                f"pairs ({other.lo}, {other.hi}) and ({pr.lo}, {pr.hi}) share sum {t} mod {n}"
            )
        seen[t] = pr
    return True, None


def verify_skolem(s: Starter) -> tuple[bool, str | None]:
    """Integer differences hi - lo are exactly {1, .., k}.

    Equivalent to indexing the pairs so the i-th has difference i:
    with 0 < hi - lo < n both readings demand the same k-element set.
    """
    _require_shape(s)
    k = s.k
    diffs = Counter(pr.hi - pr.lo for pr in s.pairs)
    for pr in s.pairs:
        d = pr.hi - pr.lo
        if d > k:
            return False, f"integer difference {d} of pair ({pr.lo}, {pr.hi}) exceeds {k}"
        if diffs[d] > 1:
            return False, f"integer difference {d} occurs {diffs[d]} times"
    for d in range(1, k + 1):
        if diffs[d] == 0:
            return False, f"integer difference {d} missing"
    return True, None


def verify_cardioidal(s: Starter) -> tuple[bool, str | None]:
    """Every pair has the doubling shape {x, 2x mod n}."""
    _require_shape(s)
    n = s.modulus
    for pr in s.pairs:
        if (2 * pr.lo - pr.hi) % n != 0 and (2 * pr.hi - pr.lo) % n != 0:
            return False, f"pair ({pr.lo}, {pr.hi}) is not a doubling pair mod {n}"
    return True, None


def classify(s: Starter) -> Classification:
    """Run all four verifiers and bundle verdicts plus witnesses."""
    ok_starter, w_starter = verify_starter(s)
    ok_strong, w_strong = verify_strong(s)
    ok_skolem, w_skolem = verify_skolem(s)
    ok_card, w_card = verify_cardioidal(s)
    witnesses = {}
    for name, w in (
        ("starter", w_starter),
        ("strong", w_strong),
        ("skolem", w_skolem),
        ("cardioidal", w_card),
    ):
        if w is not None:
            witnesses[name] = w
    return Classification(
        is_starter=ok_starter,
        is_strong=ok_strong,
        is_skolem=ok_skolem,
        is_cardioidal=ok_card,
        dependent=not ok_starter,
        witnesses=witnesses,
    )
