"""Explicit constructions of strong Skolem (cardioidal) starters.

Every recipe is one instance of the same idea (Ogandzhanyants,
Kondratieva and Shalaby, Strong Skolem starters, J. Combin. Des. 27,
2019): keep the low half of every orbit of a multiplier r and pair
each kept x with beta*x, beta = 2 or the inverse of 2 (any
non-residue for horton_starter).  One walk, _walk, visits each orbit
x = c * r^e mod m from its least residue c and keeps the x with
e mod delta < delta/2.  A recipe checks its hypotheses, picks m, r
and delta, walks once and certifies the pairs (_certified):

  Z_p      qr, horton (r primitive, delta = 2) and cyclotomic
           (p = 2^k t + 1, delta = 2^k)
  Z_{p^n}  prime_power and prime_power_cyclotomic, r the lifted
           root: its orbits are the strata p^i * (units mod p^(n-i))
  Z_{pq}   pq and pq_cyclotomic, r a common primitive root: its
           orbits are p * (units mod q), q * (units mod p) and the
           cosets of <r>; the second unit leader is lambda

Doubling and negation both map the kept half of an orbit onto the
other half when 2 and -1 lie in the half-shift class
r^(delta/2) <r^delta>.  The hypotheses at p settle this mod p^n, and
-1 always lies there mod pq; only 2 mod pq is checked before the walk.

A modulus, or a coset certificate's prime, above _CONSTRUCTION_BOUND
raises BoundExceeded before any arithmetic.  Hypothesis checks come
next and raise HypothesisViolation; every successful construction is
then self-verified with all four verifiers before it is returned, so
an invalid object can never escape -- verification failure raises
CoverageFailure with the witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any

from .modnt import (
    discrete_log,
    find_primitive_root,
    in_half_class,
    is_prime,
    is_primitive_root,
    lift_primitive_root,
)
from .search import BoundExceeded, find_common_primitive_root
from .starters import classify, Starter

BETA_TWO = 2
BETA_TWO_INVERSE = "2inv"

# Largest modulus a recipe builds; a build near it (Z_999979) peaks at
# about 190 MB.  Z_173377 and Z_78961 = 281^2 sit well inside it.
_CONSTRUCTION_BOUND = 10**6


class HypothesisViolation(ValueError):
    """Arguments fail the arithmetic hypotheses of the construction."""


class CoverageFailure(RuntimeError):
    """The walked pairs do not form a starter with the promised verdicts."""


@dataclass(frozen=True)
class Recipe:
    """Method name plus every parameter needed to reproduce a starter."""

    method: str
    p: int
    q: int | None = None
    n: int | None = None
    k: int | None = None
    beta: int | str | None = None
    lam: int | None = None
    root: int | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "method": self.method,
            "p": self.p,
            "q": self.q,
            "n": self.n,
            "k": self.k,
            "beta": self.beta,
            "lambda": self.lam,
            "root": self.root,
        }


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise HypothesisViolation(message)


def normalize_beta(beta: int | str) -> int | str:
    """Canonicalize a multiplier argument to 2, "2inv", or a residue.

    An int, a string of ASCII digits or "2inv"; every bool and float is
    refused, so 2.0 fails as 3.0 does.
    """
    if beta == BETA_TWO_INVERSE:
        return BETA_TWO_INVERSE
    if isinstance(beta, str) and beta.isascii() and beta.isdigit():
        return int(beta)
    if isinstance(beta, int) and not isinstance(beta, bool):
        return beta
    raise ValueError(f"unrecognized beta {beta!r}")


def _require_bounded(p: int, q: int = 1, n: int = 1, *, each_prime: bool = False, **others: int) -> None:
    """First check of every recipe and certificate, before any arithmetic:
    p, q, n and the others are ints, not bools, as normalize_beta asks of
    beta (HypothesisViolation); the modulus (pq)^n, or with each_prime
    both primes, is at most _CONSTRUCTION_BOUND (BoundExceeded), a huge n
    refused before the power is built."""
    for key, value in {"p": p, "q": q, "n": n, **others}.items():
        _require(isinstance(value, int) and not isinstance(value, bool), f"{key} must be an int, got {value!r}")
    for m in (p, q) if each_prime else (p * q,):
        if n > _CONSTRUCTION_BOUND.bit_length() or n > 0 and m**n > _CONSTRUCTION_BOUND:
            shown = m if n == 1 else f"{m}^{n}"
            name = "prime" if each_prime else "modulus"
            raise BoundExceeded(f"{name} {shown} exceeds the construction bound {_CONSTRUCTION_BOUND}")


def _doubling_beta(beta: int | str) -> int | str:
    """Normalize beta and require one of the two doubling multipliers."""
    beta = normalize_beta(beta)
    _require(beta in (BETA_TWO, BETA_TWO_INVERSE), f"beta must be 2 or {BETA_TWO_INVERSE!r}")
    return beta


def _beta_multiplier(beta: int | str, modulus: int) -> int:
    if beta == BETA_TWO_INVERSE:
        return pow(2, -1, modulus)
    return int(beta) % modulus


def _require_qr_prime(p: int, name: str = "p", mod: int = 8) -> None:
    """p is a prime, 3 (mod `mod`), other than 3."""
    _require(is_prime(p), f"{name} = {p} is not prime")
    _require(p % mod == 3, f"{name} = {p} must be 3 (mod {mod})")
    _require(p != 3, f"{name} = 3 is excluded")


def _cyclotomic_shape(p: int, k: int, name: str = "p") -> None:
    """p is a prime 2^k t + 1 with k >= 3 and t odd > 1."""
    _require(k >= 3, f"k must be >= 3, got {k}")
    _require(is_prime(p), f"{name} = {p} is not prime")
    # (p - 1) & (1 - p) is the largest power of 2 dividing p - 1; 2^k is
    # not built before k is known to be small.
    _require(k < ((p - 1) & (1 - p)).bit_length(), f"2^{k} does not divide {name} - 1 = {p - 1}")
    t = (p - 1) >> k
    _require(t % 2 == 1, f"({name}-1)/2^{k} = {t} must be odd")
    _require(t > 1, f"({name}-1)/2^{k} must exceed 1")


def _cyclotomic_prime(p: int, k: int, name: str = "p") -> None:
    """The cyclotomic shape, with 2 in the class r^(2^(k-1)) <r^(2^k)> of Z_p^*."""
    _cyclotomic_shape(p, k, name)
    delta = 1 << k
    _require(
        in_half_class(2, p, p - 1, delta), f"2 is not in the class r^{delta >> 1} <r^{delta}> mod {p}"
    )


def _require_pq_pair(p: int, q: int) -> None:
    _require(p < q, f"need p < q, got ({p}, {q})")
    _require((q - 1) % (p - 1) != 0, f"(p-1) = {p - 1} divides (q-1) = {q - 1}")


def _walk(modulus: int, root: int, delta: int, mult: int) -> tuple[list[tuple[int, int]], list[int]]:
    """The pairs {x, mult*x} over the low half of every orbit of
    x -> root*x, and the orbit leaders.

    Each least residue c not yet visited leads the orbit x = c * root^e,
    and x is kept when e mod delta < delta/2; delta must divide every
    orbit length.
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


def _in_half_shift(x: int, root: int, p: int, q: int, delta: int) -> bool:
    """The unit x lies in the coset root^(delta/2) <root^delta> mod pq,
    root a common primitive root of p and q: _half_shift of the
    exponents of x mod p and mod q, two discrete logs."""
    return _half_shift(discrete_log(x, root, p, p - 1), discrete_log(x, root, q, q - 1), p, q, delta)


def _half_shift(ep: int, eq: int, p: int, q: int, delta: int) -> bool:
    """The unit root^ep mod p, root^eq mod q lies in the coset
    root^(delta/2) <root^delta> mod pq, delta dividing p-1 and q-1.

    It is root^e for an e = ep (mod p-1), eq (mod q-1), which exists
    exactly when ep = eq (mod gcd(p-1, q-1)); then e = ep (mod delta).
    """
    return (ep - eq) % math.gcd(p - 1, q - 1) == 0 and ep % delta == delta >> 1


def _prime_power(p: int, n: int, root: int, delta: int, recipe: Recipe) -> Starter:
    """The certified walk on Z_{p^n}, root generating the units mod p^n.

    Its orbits are the strata p^i * (units mod p^(n-i)), i < n.  A
    stratum is covered by its own pairs and differences when 2 and -1
    lie in the class root^(delta/2) <root^delta> of its unit group.
    delta divides p - 1, so that class is fixed mod p, where the
    recipe's hypotheses have already placed 2 and -1.
    """
    pairs, _ = _walk(p**n, root, delta, _beta_multiplier(recipe.beta, p**n))
    return _certified(p**n, pairs, recipe)


def _pq(p: int, q: int, delta: int, recipe: Recipe) -> Starter:
    """The certified walk on Z_{pq} with the smallest common primitive
    root r, which the recipe records with lambda.

    The orbits of r are p * (units mod q), q * (units mod p) and the
    cosets of <r> in the units.  They are covered when 2 and -1 lie in
    the coset r^(delta/2) <r^delta>.  -1 always does: its exponents
    (p-1)/2 = 2^(k-1) t1 and (q-1)/2 = 2^(k-1) t2 (delta = 2^k, t1 and
    t2 odd) agree mod gcd(p-1, q-1) and are delta/2 mod delta.  2 may
    not, which the congruence of its two discrete logs decides
    (_in_half_shift, CoverageFailure).  lambda is the first unit leader
    after 1, the smallest unit outside <r>.
    """
    modulus = p * q
    root = find_common_primitive_root(p, q)
    if not _in_half_shift(2, root, p, q, delta):
        raise CoverageFailure(f"2 is not in the coset r^{delta >> 1} <r^{delta}> mod {modulus}")
    pairs, leaders = _walk(modulus, root, delta, _beta_multiplier(recipe.beta, modulus))
    lam = next(c for c in leaders[1:] if c % p and c % q)
    return _certified(modulus, pairs, replace(recipe, lam=lam, root=root))


def _certified(modulus: int, pairs: list, recipe: Recipe, *, all_four: bool = True) -> Starter:
    """The pairs, canonicalized and self-verified.

    The result carries the recipe and a fresh classification.  It must
    pass all four verifiers (with all_four=False: starter and strong);
    otherwise CoverageFailure reports the witnesses.
    """
    s = Starter.from_pairs(modulus, pairs)
    cls = classify(s)
    required = cls.all_four if all_four else (cls.is_starter and cls.is_strong)
    if not required:
        raise CoverageFailure(
            f"{recipe.method} construction with {recipe.to_dict()} failed "
            f"self-verification: {cls.witnesses}"
        )
    return s.with_metadata(recipe=recipe, classification=cls)


def horton_starter(p: int, beta: int | str) -> Starter:
    """Strong starter {{x, beta*x} : x quadratic residue mod p}.

    Needs p = 3 (mod 4), p != 3, and a non-residue multiplier other
    than -1.  Strong and a starter always; Skolem / cardioidal only
    for the doubling multipliers, which qr_starter specializes to.
    """
    _require_bounded(p)
    _require_qr_prime(p, mod=4)
    beta = normalize_beta(beta)
    beta_r = _beta_multiplier(beta, p)
    _require(beta_r % p != 0, "beta must be a unit")
    _require(in_half_class(beta_r, p, p - 1, 2), f"beta = {beta_r} is a quadratic residue mod {p}")
    _require(beta_r != p - 1, "beta = -1 is excluded")
    recipe = Recipe(method="horton", p=p, beta=beta if beta == BETA_TWO_INVERSE else beta_r)
    pairs, _ = _walk(p, find_primitive_root(p), 2, beta_r)
    return _certified(p, pairs, recipe, all_four=False)


def qr_starter(p: int, beta: int | str = BETA_TWO) -> Starter:
    """Strong Skolem starter {{x, 2x} : x quadratic residue mod p}.

    For p = 3 (mod 8), p != 3, the multiplier 2 (or its inverse) is a
    non-residue, the pairs are doubling pairs, and the result passes
    all four verifiers.  The 2inv variant equals the negation of the
    2 variant.
    """
    _require_bounded(p)
    _require_qr_prime(p)
    beta = _doubling_beta(beta)
    return _prime_power(p, 1, find_primitive_root(p), 2, Recipe(method="qr", p=p, beta=beta))


def cyclotomic_starter(p: int, k: int, beta: int | str = BETA_TWO) -> Starter:
    """Strong Skolem starter over the low half of the cyclotomic classes.

    For p = 2^k t + 1 (k >= 3, t odd > 1) with 2 in the class
    r^(2^(k-1)) <r^(2^k)>: pairs {x, 2x} with x over the classes
    r^j <r^(2^k)>, j < 2^(k-1).  Doubling lands in the upper half, and
    so does negation (t odd), so the pair members and the differences
    both sweep Z_p^*.  The n = 1 case of prime_power_cyclotomic_starter.
    """
    _require_bounded(p, k=k)
    _cyclotomic_prime(p, k)
    beta = _doubling_beta(beta)
    root = find_primitive_root(p)
    recipe = Recipe(method="cyclotomic", p=p, k=k, beta=beta, root=root)
    return _prime_power(p, 1, root, 1 << k, recipe)


def prime_power_starter(p: int, n: int, beta: int | str = BETA_TWO) -> Starter:
    """Strong Skolem starter for Z_{p^n}, p = 3 (mod 8), p != 3, n >= 1.

    The nonzero residues split into strata p^i * (units mod p^(n-i));
    inside stratum i the pairs are {p^i x, 2 p^i x} with x over the
    index-2 subgroup generated by the square of a primitive root, so
    each stratum is covered by its own pairs and differences.  n = 1
    degenerates to the plain quadratic-residue construction.
    """
    _require_bounded(p, n=n)
    _require_qr_prime(p)
    _require(n >= 1, f"n must be >= 1, got {n}")
    beta = _doubling_beta(beta)
    root = lift_primitive_root(find_primitive_root(p), p, n)
    recipe = Recipe(method="prime_power", p=p, n=n, beta=beta, root=root)
    return _prime_power(p, n, root, 2, recipe)


def prime_power_cyclotomic_starter(
    p: int, k: int, n: int, beta: int | str = BETA_TWO
) -> Starter:
    """Cyclotomic variant of prime_power_starter for p = 2^k t + 1.

    Stratum i uses x over the low-half class union of the unit group
    mod p^(n-i), taken with respect to the lifted primitive root.
    """
    _require_bounded(p, n=n, k=k)
    _cyclotomic_prime(p, k)
    _require(n >= 1, f"n must be >= 1, got {n}")
    beta = _doubling_beta(beta)
    root = lift_primitive_root(find_primitive_root(p), p, n)
    recipe = Recipe(method="prime_power_cyclotomic", p=p, k=k, n=n, beta=beta, root=root)
    return _prime_power(p, n, root, 1 << k, recipe)


def pq_starter(p: int, q: int, beta: int | str = BETA_TWO) -> Starter:
    """Strong Skolem starter for Z_{pq}, p, q = 3 (mod 8), p < q.

    The walk of a common primitive root r with delta = 2 (see _pq)
    keeps p * QR(q), q * QR(p), <r^2> and lambda <r^2>.  The units hold
    gcd(p-1, q-1) cosets of <r> and the recipe is stated for two, so
    pairs that pass the congruence hypotheses with a larger gcd raise
    CoverageFailure.
    """
    _require_bounded(p, q)
    _require_qr_prime(p)
    _require_qr_prime(q, "q")
    _require_pq_pair(p, q)
    beta = _doubling_beta(beta)
    g = math.gcd(p - 1, q - 1)
    if g != 2:
        raise CoverageFailure(
            f"gcd(p-1, q-1) = {g}: the four cosets of <r^2> span only "
            f"{2 * (p - 1) * (q - 1) // g} of the {(p - 1) * (q - 1)} units mod {p * q}"
        )
    return _pq(p, q, 2, Recipe(method="pq", p=p, q=q, beta=beta))


def pq_cyclotomic_starter(p: int, q: int, k: int, beta: int | str = BETA_TWO) -> Starter:
    """Strong Skolem starter for Z_{pq}, p = 2^k t1 + 1, q = 2^k t2 + 1.

    The walk of a common primitive root r with delta = 2^k (see _pq):
    the multiples of p and of q are covered like in cyclotomic_starter,
    mod q and mod p, and the units by the low half of every coset of
    <r>.  The smallest unit outside <r> is recorded as lambda.
    """
    _require_bounded(p, q, k=k)
    _cyclotomic_prime(p, k, "p")
    _cyclotomic_prime(q, k, "q")
    _require_pq_pair(p, q)
    beta = _doubling_beta(beta)
    return _pq(p, q, 1 << k, Recipe(method="pq_cyclotomic", p=p, q=q, k=k, beta=beta))


def check_minus_one_coset(p: int, q: int, k: int, r: int) -> bool:
    """Certify that -1 behaves like a half-shift for the pair (p, q).

    For p = 2^k t1 + 1, q = 2^k t2 + 1 (t1 < t2 odd > 1) and r a
    non-residue mod both primes: checks r^((p-1)(q-1)/2^(k+1)) = -1
    (mod pq) exactly; when r is additionally a common primitive root,
    also checks that -1 lies in the coset r^(2^(k-1)) <r^(2^k)> of
    the units mod pq, from its exponents (p-1)/2 and (q-1)/2 with no
    discrete log.

    Both checks are theorems under these hypotheses, so the result is
    True or a HypothesisViolation, never False: the exponent is
    2^(k-1) t1 t2 with t1, t2 odd, so Euler's criterion makes the power
    -1 mod p and mod q; the exponents 2^(k-1) t1, 2^(k-1) t2 of -1 are
    2^(k-1) mod 2^k and agree mod gcd(p-1, q-1) = 2^k gcd(t1, t2).
    """
    _require_bounded(p, q, k=k, r=r, each_prime=True)
    _cyclotomic_shape(p, k, "p")
    _cyclotomic_shape(q, k, "q")
    delta = 1 << k
    _require((p - 1) // delta < (q - 1) // delta, "need t1 < t2")
    for m in (p, q):
        _require(in_half_class(r, m, m - 1, 2), f"r = {r} is not a quadratic non-residue mod {m}")
    modulus = p * q
    exponent = (p - 1) * (q - 1) // (1 << (k + 1))
    result = pow(r, exponent, modulus) == modulus - 1
    if is_primitive_root(r, p) and is_primitive_root(r, q):
        result = result and _half_shift((p - 1) // 2, (q - 1) // 2, p, q, delta)
    return result


def check_two_in_coset(p: int, q: int, k: int, r: int) -> bool:
    """Certify that 2 lifts into the half-shift coset mod pq.

    Preconditions: p and q are distinct primes, in either order, 2^k
    divides p - 1 and q - 1 (t even is allowed), r is a common
    primitive root, and 2 lies in the class r^(2^(k-1)) <r^(2^k)> both
    mod p and mod q.  The conclusion -- 2 lies in that coset mod pq --
    is then decided by the congruence of its two discrete logs
    (_in_half_shift).
    """
    _require_bounded(p, q, k=k, r=r, each_prime=True)
    _require(p != q, f"p and q must be distinct, got {p} twice")
    _require(k >= 3, f"k must be >= 3, got {k}")
    for name, value in (("p", p), ("q", q)):
        _require(is_prime(value), f"{name} = {value} is not prime")
        _require(k < ((value - 1) & (1 - value)).bit_length(), f"2^{k} does not divide {name} - 1")
    _require(
        is_primitive_root(r, p) and is_primitive_root(r, q),
        f"r = {r} must be a common primitive root of {p} and {q}",
    )
    delta = 1 << k
    for value in (p, q):
        _require(
            in_half_class(2, value, value - 1, delta),
            f"2 is not in the class r^{delta >> 1} <r^{delta}> mod {value}",
        )
    return _in_half_shift(2, r, p, q, delta)
