"""Exact modular arithmetic on odd moduli.

Primality, multiplicative orders, primitive roots and their lift to
prime powers, the root-free half-class test (with delta = 2 it is
Euler's criterion for a non-residue), the Chinese-remainder map of a
pair of residues, and a baby-step/giant-step discrete log.

Residues are canonical representatives in 1..m-1 (0 is never a unit).
Everything is computed on plain Python ints, so intermediate products
cannot overflow; moduli up to 2^63 - 1 are accepted, although the
scan-style callers stay far below that.  All functions are pure and
safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class NotAUnit(ValueError):
    """Argument is not invertible modulo the given modulus."""


class InvalidModulus(ValueError):
    """Modulus violates a precondition (parity, primality, shape)."""


class NotPrimitiveRoot(ValueError):
    """Claimed generator does not generate the unit group."""


class NotInSubgroup(ValueError):
    """Element lies outside the cyclic subgroup being searched."""


# Deterministic Miller-Rabin witnesses, valid for all n < 2^64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_LIMIT_64 = 1 << 64


def is_prime(m: int) -> bool:
    """Deterministic primality test, exact for the full 64-bit range."""
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
    for a in _MR_BASES:
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


def euler_phi(m: int) -> int:
    """Count of units modulo m."""
    phi = 1
    for p, e in factorize(m).items():
        phi *= p ** (e - 1) * (p - 1)
    return phi


def multiplicative_order(x: int, m: int) -> int:
    """Least e >= 1 with x^e = 1 (mod m).

    The group order is factored and the exponent is descended through
    its divisors, so this stays cheap even when the order is large.
    """
    if m < 2:
        raise InvalidModulus(f"modulus must be >= 2, got {m}")
    x %= m
    if math.gcd(x, m) != 1:
        raise NotAUnit(f"{x} is not a unit mod {m}")
    order = euler_phi(m)
    for p in factorize(order):
        while order % p == 0 and pow(x, order // p, m) == 1:
            order //= p
    return order


def is_primitive_root(r: int, p: int) -> bool:
    """Whether r generates the full unit group of the odd prime p."""
    if not is_prime(p) or p == 2:
        raise InvalidModulus(f"{p} is not an odd prime")
    r %= p
    if r == 0:
        return False
    return all(pow(r, (p - 1) // f, p) != 1 for f in factorize(p - 1))


def find_primitive_root(p: int) -> int:
    """Smallest generator of Z_p^*, deterministic."""
    if not is_prime(p) or p == 2:
        raise InvalidModulus(f"{p} is not an odd prime")
    exponents = [(p - 1) // f for f in factorize(p - 1)]
    for r in range(2, p):
        if all(pow(r, e, p) != 1 for e in exponents):
            return r
    raise InvalidModulus(f"no primitive root found for {p}")  # pragma: no cover


def lift_primitive_root(r: int, p: int, n: int) -> int:
    """Adjust a primitive root of Z_p^* so it generates the units mod p^n.

    A root of Z_p^* already generates the unit group of every p^n
    unless r^(p-1) = 1 (mod p^2); in that single bad case r + p does.
    For n = 1 the root is returned unchanged.
    """
    if n < 1:
        raise ValueError(f"exponent must be >= 1, got {n}")
    if not is_primitive_root(r, p):
        raise NotPrimitiveRoot(f"{r} does not generate the units mod {p}")
    if n == 1:
        return r
    if pow(r, p - 1, p * p) != 1:
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


@dataclass(frozen=True)
class GroupContext:
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
        root = lift_primitive_root(find_primitive_root(p), p, n)
        return cls(p**n, "prime_power", root, (p, n))
