"""Exact modular arithmetic on odd moduli.

Primality, primitive roots and their lift to prime powers, ord_p(2),
the root-free half-class test (with delta = 2 it is Euler's criterion
for a non-residue), the Chinese-remainder map of a pair of residues,
and a baby-step/giant-step discrete log.

Primality is trial division by the first 12 primes, then Miller-Rabin
with the first few of them as bases, as many as the size of m needs:
the least strong pseudoprime to all the primes up to b is known for
each b (Jaeschke 1993; Sorenson and Webster 2015), and an m below it
needs no more bases.

  m below                     bases
  2 047                       2
  1 373 653                   2, 3
  25 326 001                  2, 3, 5
  3 215 031 751               2..7
  2 152 302 898 747           2..11
  3 474 749 660 383           2..13
  341 550 071 728 321         2..17
  3 825 123 056 546 413 051   2..23
  2^64                        all 12, 2..37

Residues are canonical representatives in 1..m-1 (0 is never a unit).
Everything is computed on plain Python ints, so intermediate products
cannot overflow; moduli up to 2^63 - 1 are accepted, although the
scan-style callers stay far below that.  All functions give the same
result for the same arguments and are safe to call concurrently.  The
one state kept is a memo of the factorization of p - 1 for each odd
prime p a primitive-root test has seen, so a scan that tests many
roots of one prime factors p - 1 once; no result depends on it.  A
refusal raises and is never kept.  The memo is also the library's one
proof of primality, read only here: _odd_prime proves a prime through
it and _order_of_2 reads ord_p(2) from it.  constructions proves its
primes there, after bounding each of them, so from constructions it
holds at most the 78 498 primes up to the construction bound.  A scan
proves there each term of its progression that passes the class test
of 2, and its roots and orders find each hit proven.  Its scan bound
counts terms, not the limit: a qr scan proves primes up to 10^6, and a
cyclotomic scan, whose terms are about limit/2^(k+1), up to
limit < 2^(k+1) (10^6 + 1), so scan_cyclotomic_primes(3, 16 000 015)
proves primes up to 1.6 * 10^7, and a larger k reaches further.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple


class NotAUnit(ValueError):
    """Argument is not invertible modulo the given modulus."""


class InvalidModulus(ValueError):
    """Modulus violates a precondition (parity, primality, shape)."""


class NotInSubgroup(ValueError):
    """Element lies outside the cyclic subgroup being searched."""


# Deterministic Miller-Rabin witnesses, valid for all n < 2^64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_LIMIT_64 = 1 << 64

# (bound, b): the first b of _MR_BASES decide every m below bound, the
# least strong pseudoprime to all b of them (see the module docstring).
_MR_TIERS = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (_LIMIT_64, 12),
)


def is_prime(m: int) -> bool:
    """Deterministic primality test, exact for the full 64-bit range.

    Trial division by the 12 bases, then Miller-Rabin with the first b
    of them for the least tier bound above m (the module docstring's
    table, from Jaeschke 1993 and Sorenson and Webster 2015).
    """
    if m >= _LIMIT_64:
        raise ValueError(f"primality is only guaranteed below 2^64, got {m}")
    if m < 2:
        return False
    for p in _MR_BASES:
        if m % p == 0:
            return m == p
    d = m - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    bases = next(b for bound, b in _MR_TIERS if m < bound)
    for a in _MR_BASES[:bases]:
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


def factorize(m: int) -> dict[int, int]:
    """Prime factorization by trial division, {prime: exponent}."""
    if m < 1:
        raise ValueError(f"cannot factor {m}")
    factors: dict[int, int] = {}
    for p in (2, 3):
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
    d = 5
    while d * d <= m:
        for p in (d, d + 2):
            while m % p == 0:
                factors[p] = factors.get(p, 0) + 1
                m //= p
        d += 6
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    return factors


def _root_exponents(p: int) -> tuple[int, ...]:
    """The exponents (p - 1)/f, f a prime factor of p - 1, of the odd prime p.

    r mod p is a primitive root exactly when r^e != 1 for each of them.
    A p that is not a plain int (a bool, another int subclass, a float)
    is refused with InvalidModulus before the cache is consulted: 281.0
    and True would otherwise hash like 281 and 1.
    """
    if type(p) is not int:
        raise InvalidModulus(f"{p!r} is not an odd prime")
    return _odd_prime_exponents(p)


@functools.cache
def _odd_prime_exponents(p: int) -> tuple[int, ...]:
    # Memoized per odd prime; a refusal raises, so it is never cached.
    if not is_prime(p) or p == 2:
        raise InvalidModulus(f"{p} is not an odd prime")
    return tuple((p - 1) // f for f in factorize(p - 1))


def _odd_prime(p: int) -> bool:
    """Whether p is an odd prime, proven once in the memo."""
    try:
        _root_exponents(p)
    except InvalidModulus:
        return False
    return True


def _order_of_2(p: int) -> int:
    """ord_p(2) for an odd prime p, read from the factorization of p - 1
    in the memo: the exponent descends through its prime factors."""
    order = p - 1
    for e in _root_exponents(p):
        f = (p - 1) // e
        while order % f == 0 and pow(2, order // f, p) == 1:
            order //= f
    return order


def is_primitive_root(r: int, p: int) -> bool:
    """Whether r generates the full unit group of the odd prime p."""
    exponents = _root_exponents(p)
    r %= p
    if r == 0:
        return False
    # A loop, not all() over a generator: the root searches and the
    # certificates call this once per candidate r.
    for e in exponents:
        if pow(r, e, p) == 1:
            return False
    return True


def find_primitive_root(p: int) -> int:
    """Smallest generator of Z_p^*, deterministic."""
    _root_exponents(p)  # refuses p = 2, whose range below is empty, with the rest
    return next(r for r in range(2, p) if is_primitive_root(r, p))


def lift_primitive_root(p: int, n: int) -> int:
    """A generator of the units mod p^n, from the smallest root r of Z_p^*.

    r generates the unit group of every p^n unless r^(p-1) = 1
    (mod p^2); in that single bad case r + p does, and is returned for
    every n >= 2 (the least such p is 40487).  For n = 1, r itself is
    returned.  A p that is not an odd prime raises InvalidModulus
    before an n < 1 raises ValueError.
    """
    r = find_primitive_root(p)
    if n < 1:
        raise ValueError(f"exponent must be >= 1, got {n}")
    if n == 1 or pow(r, p - 1, p * p) != 1:
        return r
    return r + p


def discrete_log(x: int, r: int, m: int, order: int) -> int:
    """Exponent e in 0..order-1 with r^e = x (mod m).

    Baby-step/giant-step in O(sqrt(order)) time and memory; `order`
    must be the multiplicative order of r mod m and x must lie in the
    subgroup generated by r.
    """
    if m < 2:
        raise InvalidModulus(f"modulus must be >= 2, got {m}")
    x %= m
    r %= m
    if math.gcd(r, m) != 1:
        raise NotAUnit(f"{r} is not a unit mod {m}")
    if math.gcd(x, m) != 1:
        raise NotInSubgroup(f"{x} is not a unit mod {m}")
    step = math.isqrt(order - 1) + 1
    baby: dict[int, int] = {}
    v = 1
    for j in range(step):
        baby.setdefault(v, j)
        v = v * r % m
    giant = pow(r, -step, m)
    g = x
    for i in range(step):
        if g in baby:
            return (i * step + baby[g]) % order
        g = g * giant % m
    raise NotInSubgroup(f"{x} is not a power of {r} mod {m}")


def in_half_class(x: int, m: int, order: int, delta: int) -> bool:
    """Whether x lies in the half-shift class r^(delta/2) <r^delta> mod m.

    The unit group mod m must be cyclic of the given order, with delta
    a power of 2 dividing it, as for an odd prime power m.  Then -1 is
    its only element of order 2, and x = r^e has x^(order/delta) = -1
    exactly when e = delta/2 (mod delta), for every generator r: a
    power-residue test, with no primitive root and no discrete log.
    For a prime m and delta = 2 it is Euler's criterion: x is a
    quadratic non-residue.  A non-unit x is in no class.  The units
    mod pq are not cyclic, so this does not apply there.
    """
    return pow(x, order // delta, m) == m - 1


def _check_pq(p: int, q: int) -> None:
    if not is_prime(p) or p == 2 or not is_prime(q) or q == 2:
        raise InvalidModulus(f"({p}, {q}) are not odd primes")
    if p == q:
        raise InvalidModulus(f"primes must be distinct, got {p} twice")


def crt_inverse(a: int, b: int, p: int, q: int) -> int:
    """The unique x mod pq with x = a (mod p) and x = b (mod q)."""
    _check_pq(p, q)
    n = p * q
    return (a * q * pow(q, -1, p) + b * p * pow(p, -1, q)) % n


class GroupContext(NamedTuple):
    """Modulus together with its factor shape and a chosen generator.

    Built by for_prime_power: shape is "prime_power", factor_data is
    (p, n), and the stored root generates the units mod p^n.
    """

    modulus: int
    shape: str
    primitive_root: int
    factor_data: tuple[int, int]

    @classmethod
    def for_prime_power(cls, p: int, n: int) -> "GroupContext":
        root = lift_primitive_root(p, n)
        return cls(p**n, "prime_power", root, (p, n))
