"""Naive reference implementations used as independent test oracles.

Everything here is deliberately dumb -- successive powers, trial
division, full scans -- so that it shares no code path with the
library functions it cross-checks.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Sized

from skolem_starters.modnt import InvalidModulus, NotAUnit
from skolem_starters.starters import Classification, MalformedStarter, Pair, Starter


def naive_order(x: int, m: int) -> int:
    v, e = x % m, 1
    while v != 1:
        v = v * x % m
        e += 1
        assert e <= m, "not a unit"
    return e


def trial_factorize(m: int) -> dict[int, int]:
    """{prime: exponent} of m >= 1, by trial division by every d >= 2."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    return factors


def euler_phi(m: int) -> int:
    """Count of units modulo m."""
    phi = 1
    for p, e in trial_factorize(m).items():
        phi *= p ** (e - 1) * (p - 1)
    return phi


def multiplicative_order(x: int, m: int) -> int:
    """Least e >= 1 with x^e = 1 (mod m): the order routine the library
    retired, kept as the reference modnt._order_of_2 must match.

    The group order is factored and the exponent is descended through
    its divisors, so this stays cheap even when the order is large.
    """
    if m < 2:
        raise InvalidModulus(f"modulus must be >= 2, got {m}")
    x %= m
    if math.gcd(x, m) != 1:
        raise NotAUnit(f"{x} is not a unit mod {m}")
    order = euler_phi(m)
    for p in trial_factorize(order):
        while order % p == 0 and pow(x, order // p, m) == 1:
            order //= p
    return order


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


# The 12 bases that decide every m < 2^64 (see full_miller_rabin).
FULL_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def full_miller_rabin(m: int) -> bool:
    """Trial division by FULL_MR_BASES, then Miller-Rabin with all 12 of
    them whatever the size of m: the reference the size-tiered
    modnt.is_prime must match below 2^64."""
    if m < 2:
        return False
    for a in FULL_MR_BASES:
        if m % a == 0:
            return m == a
    d, r = m - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in FULL_MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def full_group_in_half_shift(x: int, r: int, p: int, q: int, delta: int) -> bool:
    """x lies in the coset r^(delta/2) <r^delta> mod pq, r a common
    primitive root of p and q: the logs of x in the full groups mod p
    and mod q, by successive powers, agree mod gcd(p-1, q-1) and the
    one mod p is delta/2 mod delta."""
    ep, eq = naive_dlog(x, r, p), naive_dlog(x, r, q)
    return (ep - eq) % math.gcd(p - 1, q - 1) == 0 and ep % delta == delta >> 1


def squares_set(p: int) -> set[int]:
    return {pow(i, 2, p) for i in range(1, p)}


def naive_coset(g: int, shift: int, m: int) -> set[int]:
    out: set[int] = set()
    v = shift % m
    while v not in out:
        out.add(v)
        v = v * g % m
    return out


def walk_pairs(modulus: int, root: int, delta: int, mult: int) -> tuple[list[tuple[int, int]], list[int]]:
    """The pairs (x, mult*x) over the low half of every orbit of
    x -> root*x, in walk order, and the orbit leaders: the pair-list
    walk that constructions._walk replaced.

    Each least residue c not yet visited leads the orbit x = c * root^e,
    and x is kept when e mod delta < delta/2.  Nothing is checked, so an
    orbit of any length, and a multiplier that gives no starter, walk
    here as they come.
    """
    seen = bytearray(modulus)
    pairs, leaders = [], []
    for c in range(1, modulus):
        if not seen[c]:
            leaders.append(c)
            x, e = c, 0
            while not seen[x]:
                seen[x] = 1
                if e % delta < delta >> 1:
                    pairs.append((x, x * mult % modulus))
                x, e = x * root % modulus, e + 1
    return pairs, leaders


def canonical_pairs(n: int, pairs: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The pairs Starter.from_pairs keeps: each member reduced mod n,
    each pair ordered lo < hi, repeats dropped, sorted.  MalformedStarter
    for a pair with a member 0 mod n or two equal members."""
    reduced = [(a % n, b % n) for a, b in pairs]
    for a, b in reduced:
        if a == 0 or b == 0 or a == b:
            raise MalformedStarter(f"pair ({a}, {b}) is not a pair of Z_{n}")
    return tuple(sorted({(min(a, b), max(a, b)) for a, b in reduced}))


def reference_from_pairs(modulus: int, pairs) -> Starter:
    """Starter.from_pairs as it was before it tested each pair's range
    first: every member reduced mod n, then ordered or refused.  The
    same two paths -- counting for a sized input of at least 64 pairs
    with n <= 4 * len(pairs), else a set of keys lo * n + hi -- the
    same fallback from the one to the other, and the same texts."""
    if type(modulus) is not int or modulus < 3 or modulus % 2 == 0:
        raise MalformedStarter(f"modulus must be an odd integer >= 3, got {modulus!r}")
    if not isinstance(pairs, Iterable):
        raise MalformedStarter(f"pairs must be iterable, got {type(pairs).__name__}")
    counting = isinstance(pairs, Sized) and 64 <= len(pairs) and modulus <= 4 * len(pairs)
    partner: list[int] | None = [0] * modulus if counting else None
    keys: set[int] = set()
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
            keys.add(a * modulus + b)
        elif not partner[a]:
            partner[a] = b
        elif partner[a] != b:
            keys.update([lo * modulus + hi for lo, hi in enumerate(partner) if hi])
            partner = None
            keys.add(a * modulus + b)
    if partner is not None:
        lows = [lo for lo, hi in enumerate(partner) if hi]
        return Starter(modulus, tuple(lows), tuple([partner[lo] for lo in lows]))
    ordered = sorted(keys)
    return Starter(modulus, tuple([key // modulus for key in ordered]),
                   tuple([key % modulus for key in ordered]))


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
    """Run all four verifiers and bundle their witnesses, after checking
    that each verdict holds exactly when its verifier gives no witness."""
    witnesses = {}
    for name, (ok, w) in (
        ("starter", verify_starter(s)),
        ("strong", verify_strong(s)),
        ("skolem", verify_skolem(s)),
        ("cardioidal", verify_cardioidal(s)),
    ):
        assert ok is (w is None), (name, ok, w)
        if w is not None:
            witnesses[name] = w
    return Classification(witnesses)


# --- the original exhaustive search -------------------------------------------
#
# The bytearray-and-set backtracking that the bitmask search in
# skolem_starters.search replaced, with its timeout taken out.  It
# walks the whole tree in the bitmask search's order (largest
# difference first, ascending lower endpoint) with no negation cut, so
# the two must return the same starters in the same order.


def backtrack_skolem_search(n: int, *, require_strong: bool = False, find_all: bool = False) -> list[Starter]:
    k = (n - 1) // 2
    used = bytearray(n)
    sums_seen: set[int] = set()
    chosen: list[tuple[int, int]] = []
    solutions: list[Starter] = []

    def place(i: int) -> bool:
        if i == 0:
            solutions.append(Starter.from_pairs(n, chosen))
            return not find_all
        for a in range(1, n - i):
            b = a + i
            if used[a] or used[b]:
                continue
            if require_strong:
                t = (a + b) % n
                if t == 0 or t in sums_seen:
                    continue
                sums_seen.add(t)
            used[a] = used[b] = 1
            chosen.append((a, b))
            if place(i - 1):
                return True
            chosen.pop()
            used[a] = used[b] = 0
            if require_strong:
                sums_seen.discard((a + b) % n)
        return False

    place(k)
    return solutions


def backtrack_fills(positions: Iterable[int], m: int) -> bool:
    """Whether disjoint pairs (a, a + d), one for each d in 1..m, cover
    exactly `positions`, by backtracking over a set, largest d first."""
    free = set(positions)

    def place(d: int) -> bool:
        if d == 0:
            return not free
        for a in sorted(free):
            if a + d in free:
                free.difference_update((a, a + d))
                if place(d - 1):
                    return True
                free.update((a, a + d))
        return False

    return len(free) == 2 * m and place(m)


# --- the original starter enumeration -----------------------------------------
#
# The bytearray walk that the bitmask enumerate_starters in
# skolem_starters.search replaced.  It pairs the smallest unused
# element with every higher unused one in ascending order, as the
# bitmask walk does, so the two must list the same starters in the same
# order.  Each pairing is re-checked by the Counter verifier above.


def bytearray_enumerate_starters(n: int) -> list[Starter]:
    k = (n - 1) // 2
    used = bytearray(n)
    class_used = bytearray(k + 1)
    current: list[tuple[int, int]] = []
    found: list[Starter] = []

    def rec(placed: int) -> None:
        if placed == k:
            cand = Starter.from_pairs(n, current)
            if verify_starter(cand)[0]:
                found.append(cand)
            return
        a = 1
        while used[a]:
            a += 1
        used[a] = 1
        for b in range(a + 1, n):
            if used[b]:
                continue
            d = b - a
            cls = min(d, n - d)
            if class_used[cls]:
                continue
            class_used[cls] = 1
            used[b] = 1
            current.append((a, b))
            rec(placed + 1)
            current.pop()
            used[b] = 0
            class_used[cls] = 0
        used[a] = 0

    rec(0)
    return found
