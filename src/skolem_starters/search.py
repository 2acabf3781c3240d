"""Parameter scans and exhaustive brute-force oracles at small moduli.

The scanners find primes / prime pairs admissible for the doubling
constructions.  Both prime scans walk one arithmetic progression,
p = 3 (mod 8) from 11 for qr and p = 2^k t + 1, t odd, for
cyclotomic; they test 2 with modnt.in_half_class and prove each prime
that passes once, in modnt's memo, where its root and ord_p(2) are
read.  Each scan refuses with BoundExceeded a scan of more than 10^6
candidates.  The exhaustive searcher settles Skolem and strong Skolem
existence for a single small modulus (n <= 1001) by complete
backtracking over bitmasks of the free positions and, for strong
starters only, the used pair sums.  A solution's columns are read
from the positions it placed, with no Starter.from_pairs.  It
walks half the tree: negation maps solutions to solutions, so the
largest difference is placed only in the lower half of its range,
and find_all adds the mirrored solutions in search order.  The plain
search also skips subproblems already proven to have no completion,
kept in a table of fixed size keyed by the free positions up to
translation.  The search uses neither the n mod 8 law nor a parity
argument, so it stays an independent check of that law.
enumerate_starters lists every starter outright, on bitmasks of the
free elements and the used difference classes, as an independent
cross-check of both the verifiers and the searcher: it re-checks each
one with Starter.from_pairs and verify_starter.

A scan returns a ScanReport of ScanHits.  Both are NamedTuples, so
they compare as plain tuples of their fields.
"""

from __future__ import annotations

import math
import sys
import time
from typing import Any, NamedTuple

from .modnt import (
    _odd_prime,
    _order_of_2,
    _root_exponents,
    find_primitive_root,
    in_half_class,
    InvalidModulus,
    is_primitive_root,
)
from .starters import _partner_columns, negate_starter, Starter, verify_starter


class SearchTimeout(TimeoutError):
    """Wall-clock budget exhausted before the search space was."""


class BoundExceeded(ValueError):
    """Requested work is beyond a named bound on a search, enumeration,
    construction or scan."""


# Most candidates one scan examines: the qr limit itself, terms of the
# cyclotomic progression, or the prime pairs scan_pq_pairs forms.
_SCAN_BOUND = 10**6


def _require_scan_bound(candidates: int, what: str) -> None:
    if candidates > _SCAN_BOUND:
        raise BoundExceeded(f"{what}: {candidates} candidates exceed the scan bound {_SCAN_BOUND}")


def _require_ints(**values: Any) -> None:
    """First check of every scan and search: refuse an integer argument
    that is not a plain int (a bool, another int subclass, a float),
    naming it, before any walk, test or recursion."""
    for name, value in values.items():
        if type(value) is not int:
            raise ValueError(f"{name} must be an int, got {value!r}")


class ScanHit(NamedTuple):
    params: dict[str, int]
    certificates: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        return {"params": dict(self.params), "certificates": dict(self.certificates)}


class ScanReport(NamedTuple):
    kind: str
    bound: int
    hits: tuple[ScanHit, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "bound": self.bound,
            "hits": [h.to_dict() for h in self.hits],
        }


def _progression_primes(start: int, limit: int, step: int, delta: int) -> list[int]:
    """The primes p = start + j * step <= limit with 2 in the half-shift
    class of delta mod p.

    The one-pow class test comes first: it refuses most terms before
    the costlier primality test.  That test fills modnt's memo, where
    the roots and orders of the scans find each hit proven.
    """
    return [p for p in range(start, limit + 1, step) if in_half_class(2, p, p - 1, delta) and _odd_prime(p)]


def _qr_primes(limit: int) -> list[int]:
    """The p of scan_qr_primes(limit), without certificates."""
    _require_ints(limit=limit)
    _require_scan_bound(limit, f"qr-primes up to {limit}")
    # 11, 19, 27, ...: the p = 3 (mod 8) other than 3.  With delta = 2 the
    # class test is Euler's criterion, which every such prime meets, as 2
    # is a non-residue mod it.
    return _progression_primes(11, limit, 8, 2)


def scan_qr_primes(limit: int) -> ScanReport:
    """Primes p <= limit with p = 3 (mod 8), p != 3.

    Each hit is annotated with ord(2) mod p; for these primes 2 is a
    non-residue, which forces ord(2) = 2 (mod 4).
    """
    hits = tuple(
        ScanHit(params={"p": p}, certificates={"p_mod_8": 3, "ord2": _order_of_2(p)})
        for p in _qr_primes(limit)
    )
    return ScanReport(kind="qr-primes", bound=limit, hits=hits)


def _cyclotomic_primes(k: int, limit: int) -> list[int]:
    """The p of scan_cyclotomic_primes(k, limit), without certificates."""
    _require_ints(k=k, limit=limit)
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    if k >= limit.bit_length():  # 2^k > limit, so no p = 2^k t + 1 fits
        return []
    # At most limit / 2^(k+1) terms: 3 * 2^k + 1, step 2^(k+1), exactly the
    # p = 2^k t + 1 with t odd >= 3.
    _require_scan_bound(limit >> (k + 1), f"cyclotomic-primes up to {limit}")
    return _progression_primes(3 << k | 1, limit, 2 << k, 1 << k)


def scan_cyclotomic_primes(k: int, limit: int) -> ScanReport:
    """Primes p = 2^k * t + 1 <= limit (t odd > 1) with 2 in the class
    r^(2^(k-1)) <r^(2^k)>, that is, class index of 2 exactly 2^(k-1)."""
    hits = tuple(
        ScanHit(
            params={"p": p, "k": k},
            certificates={
                "t": (p - 1) >> k,
                "root": find_primitive_root(p),
                "index2": 1 << (k - 1),
                "ord2": _order_of_2(p),
            },
        )
        for p in _cyclotomic_primes(k, limit)
    )
    return ScanReport(kind="cyclotomic-primes", bound=limit, hits=hits)


def find_common_primitive_root(p: int, q: int) -> int:
    """Smallest r >= 2 primitive mod both p and q; by the CRT one lies below p*q.

    is_primitive_root refuses a p or q that is not an odd prime."""
    _require_ints(p=p, q=q)
    if p == q:
        raise InvalidModulus(f"({p}, {q}) must be distinct odd primes")
    return next(r for r in range(2, p * q) if is_primitive_root(r, p) and is_primitive_root(r, q))


# The candidate roots 2..63 of one scan_pq_pairs mask.
_MASK_ROOTS = 64


def _root_mask(p: int) -> int:
    """Bit r set for each r in 2.._MASK_ROOTS - 1 that is a primitive
    root mod the odd prime p, r >= p taken mod p.

    r is a root exactly when r^e is neither 1 nor 0 for each e of
    _root_exponents(p): 1 marks a non-root, 0 a multiple of p.  One
    comprehension per e collects the r with r^e < 2; the mask holds the
    rest.
    """
    others = 0
    for e in _root_exponents(p):
        others |= sum([1 << r for r in range(2, _MASK_ROOTS) if pow(r, e, p) < 2])
    return ((1 << _MASK_ROOTS) - 4) & ~others


def scan_pq_pairs(limit: int, mode: str = "qr", k: int | None = None) -> ScanReport:
    """Prime pairs p < q <= limit admissible for the two-prime recipes.

    qr mode, which takes no k: both = 3 (mod 8) and != 3.  cyclotomic
    mode: both primes accepted by scan_cyclotomic_primes(k, limit).  The
    primes are taken without their scan certificates, so the pair count
    is bounded before any root or order is computed.  Both modes require
    (p-1) to not divide (q-1); hits carry the smallest common
    primitive root and gcd(p-1, q-1), which the plain two-prime
    recipe needs to be 2.

    Each base prime p gets one mask, bit r set for each r in
    2.._MASK_ROOTS - 1 that is a primitive root mod p (_root_mask), so a
    pair's smallest common root is the lowest bit of the AND of its two
    masks.  When that AND is empty, which few pairs meet,
    find_common_primitive_root searches from 2 again.
    """
    if mode == "qr":
        if k is not None:
            raise ValueError("qr mode takes no k")
        base = _qr_primes(limit)
        kind = "pq-pairs"
    elif mode == "cyclotomic":
        if k is None:
            raise ValueError("cyclotomic mode needs k")
        base = _cyclotomic_primes(k, limit)
        kind = f"pq-pairs-cyclotomic-{k}"
    else:
        raise ValueError(f"unknown mode {mode!r}")
    size = len(base)
    _require_scan_bound(size * (size - 1) // 2, f"{kind} up to {limit}")
    masks = [_root_mask(p) for p in base]
    hits = []
    for i in range(size):
        p, mask_p = base[i], masks[i]
        for j in range(i + 1, size):
            q = base[j]
            if (q - 1) % (p - 1) == 0:
                continue
            common = mask_p & masks[j]
            root = (common & -common).bit_length() - 1 if common else find_common_primitive_root(p, q)
            hits.append(
                ScanHit(
                    {"p": p, "q": q} if k is None else {"p": p, "q": q, "k": k},
                    {"common_root": root, "gcd_p1_q1": math.gcd(p - 1, q - 1)},
                )
            )
    return ScanReport(kind=kind, bound=limit, hits=tuple(hits))


# Exhaustive search recurses once per difference, (n - 1) / 2 deep; its
# bound keeps that well inside the interpreter's recursion limit.
_SEARCH_BOUND = 1001
_ENUMERATION_BOUND = 15
# The dead-state table of the plain search: its two slot counts, both
# prime, and the deepest level it holds.  Slot key % S holds
# key // (2 S), at most (2^(n-2) - 1) // S for a key below 2^(n-1).
# When 2^(n-2) <= 255 * _DEAD_BYTE_SLOTS (every n <= 29) that fits in
# 0..254, and the table is a 514 KB bytearray of just over 2^27 / 255
# slots, with 255 for empty.  A wider n takes a list of _DEAD_SLOTS,
# with -1 for empty: 0.5 MB of pointers, plus an int object for each
# stored value above 256.
_DEAD_BYTE_SLOTS = 526367
_DEAD_SLOTS = 65521
_DEAD_DEPTH = 6


def _dead_table(n: int) -> bytearray | list[int]:
    """The empty dead-state table of the plain search at modulus n."""
    if 1 << (n - 2) <= 255 * _DEAD_BYTE_SLOTS:
        return bytearray(b"\xff") * _DEAD_BYTE_SLOTS
    return [-1] * _DEAD_SLOTS


def exhaustive_skolem_search(
    n: int,
    *,
    require_strong: bool = False,
    find_all: bool = False,
    timeout: float | None = 60.0,
) -> list[Starter]:
    """Complete backtracking search for Skolem starters of Z_n.

    Differences are placed largest-first, the pair (a, a + i) for
    difference i in ascending a, so results come in lexicographic order
    of (a_k, .., a_1) and the order is deterministic.  Bits 1..n-1 of
    the int `free` are the unused positions, so the open a are the bits
    of free & (free >> i).  There are two recursions, each down to
    i = 1, where a placement completes a solution: plain(i, free), and
    strong(i, free, sums), where bit t of `sums` marks a used pair sum,
    refused as is t = 0.  chosen[i - 1] holds the low bit 1 << a of the
    pair placed for difference i; only a solution turns these bits
    into its columns.  It writes a + i into slot a of a list of n and
    reads the columns back with _partner_columns, as the constructions'
    orbit walk does: the placed pairs partition 1..n-1 with a < a + i,
    so no slot is written twice, nothing needs reducing, and no
    solution goes through Starter.from_pairs.

    Negation x -> n - x (negate_starter) maps Skolem starters to Skolem
    starters and strong ones to strong ones (sums negate), and takes
    each a_i to n - i - a_i; the top pair (a, a + k) goes to
    (k + 1 - a, n - a).  So the top pair is placed only at
    a <= (k + 1) / 2, which halves the tree.  The first result is
    unchanged: it is the least one, and the solution set is closed
    under negation.  With find_all, the negations of the solutions
    whose top pair negation does not fix are appended, in reverse:
    negation reverses the order, so the list stays in search order.

    plain keeps a table of dead subproblems, a transposition table
    (Greenblatt et al. 1967; Zobrist 1970).  Placing differences
    i, .., 1 on the positions of `free` depends on `free` alone, for
    i < k, and on it only up to translation: plain positions are the
    integers 1..n-1, with no wrap-around.  So at 2 <= i <= _DEAD_DEPTH
    the key is free // (free & -free), an odd number below 2^(n-1)
    whose popcount 2i also names the level.  A subproblem is dead when
    its subtree added no solution: it returned False in first-found
    mode, and in find_all mode, where leaf returns False, the solution
    count did not change.  Either way it has no completion, so
    skipping it loses nothing.  The table has a fixed number of slots
    (_dead_table): S = _DEAD_BYTE_SLOTS one-byte slots when every
    stored value fits in a byte, n <= 29, and a list of S = _DEAD_SLOTS
    slots for a wider n.  Slot key % S holds key // (2 S): the key and
    S are odd, so the slot and that quotient give back the whole key.
    A new key overwrites the old: a collision only evicts, so it can
    miss a hit but never makes a live subproblem dead.  The caller
    tests the table, so a hit costs no call.  The table is allocated
    at the first refill of the clock budget below, so a search of under
    4096 candidates allocates none.  strong keeps no table: its
    subproblem depends on the used sums too, which translation does
    not keep, and a table keyed on free | sums << n measured slower on
    the strong searches of n <= 33.

    Each call charges its candidate count to a budget of 4096 and,
    when the budget runs out, refills it and reads the clock, which a
    timeout of None never reads.  A table hit charges nothing, and the
    charged total is still an exact count of the candidates examined.
    An int timeout beyond float range sets no deadline, as math.inf
    does.  An empty result means proven nonexistence by exhaustion;
    running out of wall clock raises SearchTimeout instead, so the two
    can never be confused.  A modulus above 1001 raises BoundExceeded,
    and a timeout that is not None or a non-bool int or float >= 0
    raises ValueError.
    """
    _require_ints(n=n)
    if n < 3 or n % 2 == 0:
        raise ValueError(f"modulus must be odd and >= 3, got {n}")
    if n > _SEARCH_BOUND:
        raise BoundExceeded(f"exhaustive search is capped at n <= {_SEARCH_BOUND}, got {n}")
    # Not a bool; written so that NaN fails too: no clock reading ever exceeds it.
    if timeout is not None and (type(timeout) not in (int, float) or not timeout >= 0):
        raise ValueError(f"timeout must be a non-negative number of seconds, got {timeout!r}")
    k = (n - 1) // 2
    # An int timeout beyond float range would overflow the sum: like math.inf, it sets no deadline.
    deadline = None if timeout is None or timeout > sys.float_info.max else time.monotonic() + timeout
    # chosen[i - 1] is the low bit 1 << a of the pair (a, a + i) of
    # difference i: nothing to undo on backtrack.
    chosen = [0] * k
    solutions: list[Starter] = []
    # Candidates still to place before the clock is read again.
    budget = 4096
    # Bits 1..(k + 1) // 2: the a the top pair (a, a + k) may take.
    top = (2 << (k + 1) // 2) - 2
    # plain's dead-state table, slot -> key // span, its slot count S,
    # span = 2 S, and the highest level whose loop tests its children in
    # it; 0 and no table until the first refill.
    dead: bytearray | list[int] = []
    slots = span = 1
    dead_top = 0

    def tick() -> None:
        nonlocal budget, dead, slots, span, dead_top
        budget += 4096
        if not dead_top and not require_strong:
            dead = _dead_table(n)
            slots = len(dead)
            span = 2 * slots
            dead_top = min(_DEAD_DEPTH + 1, k)
        if deadline is not None and time.monotonic() > deadline:
            raise SearchTimeout(f"search at modulus {n} exceeded {timeout} s")

    def leaf() -> bool:
        partner = [0] * n
        for i, low in enumerate(chosen, 1):
            a = low.bit_length() - 1
            partner[a] = a + i
        solutions.append(Starter(n, *_partner_columns(partner)))
        return not find_all

    def plain(i: int, free: int) -> bool:
        nonlocal budget
        cand = free & (free >> i)
        if i == k:
            cand &= top
        budget -= cand.bit_count()
        if budget < 0:
            tick()
        if 2 < i <= dead_top:
            # The table test, inlined: a dead child costs no call and no charge.
            while cand:
                low = cand & -cand
                cand ^= low
                rest = free ^ (low | low << i)
                key = rest // (rest & -rest)
                slot = key % slots
                key //= span
                if dead[slot] == key:
                    continue
                chosen[i - 1] = low
                count = len(solutions)
                if plain(i - 1, rest):
                    return True
                if len(solutions) == count:
                    dead[slot] = key
            return False
        while cand:
            low = cand & -cand
            cand ^= low
            chosen[i - 1] = low
            if leaf() if i == 1 else plain(i - 1, free ^ (low | low << i)):
                return True
        return False

    def strong(i: int, free: int, sums: int) -> bool:
        nonlocal budget
        cand = free & (free >> i)
        if i == k:
            cand &= top
        budget -= cand.bit_count()
        if budget < 0:
            tick()
        while cand:
            low = cand & -cand
            cand ^= low
            t = (2 * (low.bit_length() - 1) + i) % n
            if t == 0 or sums >> t & 1:
                continue
            chosen[i - 1] = low
            if leaf() if i == 1 else strong(i - 1, free ^ (low | low << i), sums | 1 << t):
                return True
        return False

    try:
        if require_strong:
            strong(k, (1 << n) - 2, 0)
        else:
            plain(k, (1 << n) - 2)
    finally:
        # Each recursion holds itself in a closure cell: break the cycles that keep the results.
        del plain, strong
    if find_all:
        # (m, n - m) is the top pair negation fixes when k is odd; when k
        # is even its difference is k + 1, so no solution holds it.
        m = (k + 1) // 2
        solutions += [negate_starter(s) for s in reversed(solutions) if (m, n - m) not in zip(s.lows, s.highs)]
    return solutions


def enumerate_starters(n: int) -> list[Starter]:
    """Every starter for Z_n by exhaustive pairing, n <= 15.

    Pairs off the smallest unused element against every higher one, in
    ascending order, whose difference class is still free.  Bits
    1..n-1 of the int `free` are the unused elements and bit c of
    `classes` marks the used class {c, n - c}, read from a table of the
    class bit of each difference.  A completed pairing is a starter by
    construction, and each one is re-checked with Starter.from_pairs
    and verify_starter anyway, so this stays an independent oracle.
    """
    _require_ints(n=n)
    if n < 3 or n % 2 == 0:
        raise ValueError(f"modulus must be odd and >= 3, got {n}")
    if n > _ENUMERATION_BOUND:
        raise BoundExceeded(f"enumeration is capped at n <= {_ENUMERATION_BOUND}, got {n}")
    # class_bit[d] is the bit of the class {d, n - d}.
    class_bit = [1 << min(d, n - d) for d in range(n)]
    current: list[tuple[int, int]] = []
    found: list[Starter] = []

    def rec(free: int, classes: int) -> None:
        if not free:
            cand = Starter.from_pairs(n, current)
            ok, _ = verify_starter(cand)
            if ok:
                # A fresh copy: the result keeps no verification pass
                # that only this check asked for.
                found.append(Starter(n, cand.lows, cand.highs))
            return
        low = free & -free
        a = low.bit_length() - 1
        rest = cand = free ^ low
        while cand:
            high = cand & -cand
            cand ^= high
            b = high.bit_length() - 1
            c = class_bit[b - a]
            if classes & c:
                continue
            current.append((a, b))
            rec(rest ^ high, classes | c)
            current.pop()

    rec((1 << n) - 2, 0)
    del rec  # rec holds itself, as plain and strong do
    return found
