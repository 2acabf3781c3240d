"""Explicit constructions of strong Skolem (cardioidal) starters.

Every recipe is one instance of the same idea (Ogandzhanyants,
Kondratieva and Shalaby, Strong Skolem starters, J. Combin. Des. 27,
2019): keep the low half of every orbit of a multiplier r and pair
each kept x with beta*x, beta = 2 or the inverse of 2 (any
non-residue for horton_starter).  One walk, _walk, visits each orbit
x = c * r^e mod m from its least residue c, keeps the x with
e mod delta < delta/2 and writes each kept pair into the slot of its
smaller member: it makes the starter's canonical columns itself, with
no pair list and no Starter.from_pairs.  delta must divide every orbit
length.  A walk that breaks this, writes a slot twice or makes a pair
with a member 0 mod m is refused with CoverageFailure and never
returned.  A recipe checks its hypotheses, picks m, r and delta, and
ends in one call _certified(m, r, delta, recipe), which walks, records
lambda and certifies the columns:

  Z_p      qr, horton (r primitive, delta = 2) and cyclotomic
           (p = 2^k t + 1, delta = 2^k)
  Z_{p^n}  prime_power and prime_power_cyclotomic, r the lifted
           root: its orbits are the strata p^i * (units mod p^(n-i))
  Z_{pq}   pq and pq_cyclotomic, r the smallest common primitive
           root: its orbits are p * (units mod q), q * (units mod p)
           and the cosets of <r>; the second unit leader is lambda

The recipe a starter carries is a Recipe, a NamedTuple, so
Recipe("qr", 19) == ("qr", 19, None, None, None, None, None, None) and
recipes compare and hash as plain tuples.

Doubling and negation both map the kept half of an orbit onto the
other half when 2 and -1 lie in the half-shift class
r^(delta/2) <r^delta>.  The hypotheses place them there mod p, and
delta divides p - 1, so the class is fixed mod p and holds on every
stratum of Z_{p^n}.  Mod pq, -1 always lies in the coset: its
exponents (p-1)/2 = (delta/2) t1 mod p and (q-1)/2 = (delta/2) t2
mod q, t1 and t2 odd, agree mod gcd(p-1, q-1) and are delta/2 mod
delta.  2 is settled by the hypotheses of pq_starter and checked
first by pq_cyclotomic_starter.  The coset certificates compute only
what their hypotheses leave open: nothing for -1, and for
check_two_in_coset, when gcd(p-1, q-1) = delta, two power-residue
tests, which its hypotheses already passed; for a larger gcd, the logs
of 2 mod p and mod q, each taken in the subgroup of order
gcd(p-1, q-1).

Every argument is refused before any arithmetic: a parameter that is
not a plain int, or an n < 1, raises HypothesisViolation, and then a
modulus, or any one prime, above _CONSTRUCTION_BOUND raises
BoundExceeded.  Hypothesis checks come next and raise
HypothesisViolation; every successful construction is then
self-verified before it is returned, so an invalid object can never
escape: a doubling multiplier (2 or its inverse) must pass all four
verifiers, and any other horton multiplier must give a strong starter.
A failure raises CoverageFailure with the witnesses.

This module keeps no state.  A hypothesis check formats its message
only when it refuses, and _require_prime proves an odd prime with
modnt._odd_prime, in modnt's memo of the factorization of p - 1, the
one the primitive-root search reads: each prime is proven once per
process for the recipes, the certificates and the primitive-root
search, whatever name a message gives it.
"""

from __future__ import annotations

import math
from typing import Any, NamedTuple, NoReturn

from .modnt import (
    _odd_prime,
    discrete_log,
    find_primitive_root,
    in_half_class,
    is_primitive_root,
    lift_primitive_root,
)
from .search import BoundExceeded, find_common_primitive_root
from .starters import _partner_columns, classify, Starter

BETA_TWO = 2
BETA_TWO_INVERSE = "2inv"

# Largest modulus a recipe builds; a build near it (Z_999979) peaks at
# about 150 MB, and decoding its JSON at about 185 MB (Python 3.11).
# Z_173377 and Z_78961 = 281^2 sit well inside it.
_CONSTRUCTION_BOUND = 10**6


class HypothesisViolation(ValueError):
    """Arguments fail the arithmetic hypotheses of the construction."""


class CoverageFailure(RuntimeError):
    """The walked pairs do not form a starter with the promised verdicts."""


class Recipe(NamedTuple):
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
        return dict(zip(_RECIPE_KEYS, self))


# The JSON key of each Recipe field, in field order; "lambda" is a Python
# keyword.
_RECIPE_KEYS = tuple("lambda" if name == "lam" else name for name in Recipe._fields)


def _require(condition: bool, message: str, *args: object) -> None:
    """Refuse unless condition holds; message.format(*args) is built only
    on refusal."""
    if not condition:
        raise HypothesisViolation(message.format(*args))


def normalize_beta(beta: int | str) -> int | str:
    """Canonicalize a multiplier argument to 2, "2inv", or a residue.

    A plain int, a string of ASCII digits or "2inv"; every bool, other
    int subclass and float is refused, so 2.0 fails as 3.0 does.
    """
    if beta == BETA_TWO_INVERSE:
        return BETA_TWO_INVERSE
    if isinstance(beta, str) and beta.isascii() and beta.isdigit():
        return int(beta)
    if type(beta) is int:
        return beta
    raise ValueError(f"unrecognized beta {beta!r}")


def _require_bounded(p: int, q: int = 1, n: int = 1, *, each_prime: bool = False, **others: int) -> None:
    """First check of every recipe and certificate, before any arithmetic:
    p, q, n and the others, in that order, are plain ints, not bools or
    other int subclasses, as normalize_beta asks of beta, and n >= 1
    (HypothesisViolation); the modulus (pq)^n, unless each_prime, then
    p and q are at most _CONSTRUCTION_BOUND (BoundExceeded), a huge n
    refused before the power is built.  Each prime is bounded on its
    own, so a q <= 0 cannot carry a p above the bound to a primality
    test.  A refusal text is built only when it is raised."""
    if type(p) is not int:
        raise HypothesisViolation(f"p must be an int, got {p!r}")
    if type(q) is not int:
        raise HypothesisViolation(f"q must be an int, got {q!r}")
    if type(n) is not int:
        raise HypothesisViolation(f"n must be an int, got {n!r}")
    for key, value in others.items():
        if type(value) is not int:
            raise HypothesisViolation(f"{key} must be an int, got {value!r}")
    if n < 1:
        raise HypothesisViolation(f"n must be >= 1, got {n}")
    huge = n > _CONSTRUCTION_BOUND.bit_length()
    if not each_prime and (huge or (p * q) ** n > _CONSTRUCTION_BOUND):
        _refuse_bound("modulus", p * q, n)
    if huge or p**n > _CONSTRUCTION_BOUND:
        _refuse_bound("prime", p, n)
    if q**n > _CONSTRUCTION_BOUND:
        _refuse_bound("prime", q, n)


def _refuse_bound(name: str, m: int, n: int) -> NoReturn:
    """The modulus or prime m, raised to n, is above _CONSTRUCTION_BOUND."""
    shown = m if n == 1 else f"{m}^{n}"
    raise BoundExceeded(f"{name} {shown} exceeds the construction bound {_CONSTRUCTION_BOUND}")


def _doubling_beta(beta: int | str) -> int | str:
    """Normalize beta and require one of the two doubling multipliers."""
    beta = normalize_beta(beta)
    _require(beta in (BETA_TWO, BETA_TWO_INVERSE), "beta must be 2 or {!r}", BETA_TWO_INVERSE)
    return beta


def _beta_multiplier(beta: int | str, modulus: int) -> int:
    if beta == BETA_TWO_INVERSE:
        return pow(2, -1, modulus)
    return int(beta) % modulus


def _require_prime(p: int, name: str) -> None:
    """p is a prime.  An odd p is proven by modnt._odd_prime, in the
    memo find_primitive_root reads; 2 is left to the congruence and 2-adic
    checks, which refuse it."""
    _require(p == 2 or _odd_prime(p), "{} = {} is not prime", name, p)


def _require_qr_prime(p: int, name: str = "p", mod: int = 8) -> None:
    """p is a prime, 3 (mod `mod`), other than 3."""
    _require_prime(p, name)
    _require(p % mod == 3, "{} = {} must be 3 (mod {})", name, p, mod)
    _require(p != 3, "{} = 3 is excluded", name)


def _two_adic_prime(p: int, k: int, name: str = "p") -> None:
    """k >= 3 and p is a prime with 2^k dividing p - 1."""
    _require(k >= 3, "k must be >= 3, got {}", k)
    _require_prime(p, name)
    # (p - 1) & (1 - p) is the largest power of 2 dividing p - 1; 2^k is
    # not built before k is known to be small.
    _require(k < ((p - 1) & (1 - p)).bit_length(), "2^{} does not divide {} - 1 = {}", k, name, p - 1)


def _cyclotomic_shape(p: int, k: int, name: str = "p") -> None:
    """p is a prime 2^k t + 1 with k >= 3 and t odd > 1."""
    _two_adic_prime(p, k, name)
    t = (p - 1) >> k
    _require(t % 2 == 1, "({}-1)/2^{} = {} must be odd", name, k, t)
    _require(t > 1, "({}-1)/2^{} must exceed 1", name, k)


_TWO_OUT_OF_CLASS = "2 is not in the class r^{} <r^{}> mod {}"


def _cyclotomic_prime(p: int, k: int, name: str = "p") -> None:
    """The cyclotomic shape, with 2 in the class r^(2^(k-1)) <r^(2^k)> of Z_p^*."""
    _cyclotomic_shape(p, k, name)
    delta = 1 << k
    _require(in_half_class(2, p, p - 1, delta), _TWO_OUT_OF_CLASS, delta >> 1, delta, p)


def _require_pq_pair(p: int, q: int) -> None:
    _require(p < q, "need p < q, got ({}, {})", p, q)
    _require((q - 1) % (p - 1) != 0, "(p-1) = {} divides (q-1) = {}", p - 1, q - 1)


def _walk(
    modulus: int, root: int, delta: int, mult: int
) -> tuple[tuple[int, ...], tuple[int, ...], list[int]]:
    """The canonical columns of the pairs {x, mult*x} over the low half
    of every orbit of x -> root*x, and the orbit leaders.

    Each least residue c not yet visited leads the orbit x = c * root^e,
    and x is kept when e mod delta < delta/2: the walk keeps delta/2
    steps, skips delta/2, and so on, with no e mod delta per step.  Each
    kept x writes partner[min(x, y)] = max(x, y), y = mult*x mod
    modulus, and the slots are read back as Starter.from_pairs' counting
    path reads them (_partner_columns).

    delta must divide every orbit length: an orbit that ends inside a
    block keeps more than half of itself, so the walk makes more than
    (modulus - 1)/2 pairs.  CoverageFailure refuses what a walk can get
    wrong, and nothing is returned then: a slot written twice, a pair
    with a member 0 mod modulus, and a pair count other than
    (modulus - 1)/2.  Pairs whose members coincide and every other
    defect are left to the verifiers, which _certified runs.
    """
    n = modulus
    seen = bytearray(n)
    seen[0] = 1  # 0 leads no orbit, and a step onto it ends one
    partner = [0] * n
    leaders = []
    half = range(delta >> 1)
    c = 1
    while c > 0:
        leaders.append(c)
        x = c
        # Keep half a block of delta steps, then skip half: a step onto a
        # seen x ends the orbit (break), a block run in full goes on (else).
        while True:
            for _ in half:
                seen[x] = 1
                y = x * mult % n
                if x < y:
                    if partner[x]:
                        _refuse_slot(n, root, x, partner[x], y)
                    partner[x] = y
                elif y and not partner[y]:
                    partner[y] = x
                else:
                    _refuse_slot(n, root, y, partner[y], x)
                x = x * root % n
                if seen[x]:
                    break
            else:
                for _ in half:
                    seen[x] = 1
                    x = x * root % n
                    if seen[x]:
                        break
                else:
                    continue
            break
        c = seen.find(0, c + 1)
    lows, highs = _partner_columns(partner)
    if len(lows) != n >> 1:
        raise CoverageFailure(
            f"the walk of {root} with delta = {delta} mod {n} made {len(lows)} pairs, not {n >> 1}"
        )
    return lows, highs, leaders


def _refuse_slot(modulus: int, root: int, lo: int, old: int, hi: int) -> None:
    """A kept x of the walk of root mod modulus made (lo, hi), and slot lo
    is taken by old or lo is 0."""
    if lo == 0:
        raise CoverageFailure(
            f"the walk of {root} mod {modulus} made pair (0, {hi}): a member is 0 mod {modulus}"
        )
    raise CoverageFailure(
        f"the walk of {root} mod {modulus} wrote slot {lo} twice: pairs ({lo}, {old}) and ({lo}, {hi})"
    )


def _in_half_shift(x: int, root: int, p: int, q: int, delta: int) -> bool:
    """The unit x lies in the coset root^(delta/2) <root^delta> mod pq,
    root a common primitive root of p and q and delta a power of 2
    dividing p-1 and q-1.

    Write x = root^ep mod p and root^eq mod q.  Then x is root^e for an
    e = ep (mod p-1), eq (mod q-1), which exists exactly when
    ep = eq (mod g), g = gcd(p-1, q-1), and e = ep (mod delta).  Only
    ep and eq mod g are needed, as delta divides g.

    When g = delta, that asks only for ep = eq = delta/2 (mod delta):
    x in the half-shift class mod p and mod q, each a power-residue
    test (modnt.in_half_class), with no discrete log.  Otherwise each
    log is taken in the subgroup of order g (Pohlig-Hellman): with
    c = (p-1)/g, x^c = (root^c)^ep mod p, root^c of order g.  So each
    baby-step/giant-step run takes about sqrt(g) steps, not
    sqrt(p-1).
    """
    g = math.gcd(p - 1, q - 1)
    if g == delta:
        return in_half_class(x, p, p - 1, delta) and in_half_class(x, q, q - 1, delta)
    ep, eq = (discrete_log(pow(x, (m - 1) // g, m), pow(root, (m - 1) // g, m), m, g) for m in (p, q))
    return ep == eq and ep % delta == delta >> 1


def _certified(modulus: int, root: int, delta: int, recipe: Recipe) -> Starter:
    """The starter whose columns the walk of root on Z_modulus with the
    multiplier of recipe.beta writes, self-verified; a walk refused by
    _walk raises its CoverageFailure here.

    lambda is the first unit orbit leader after 1, the smallest unit
    outside <root>: None mod p^n, whose units root generates.  The
    result carries the recipe with that lambda and a fresh
    classification.  A doubling multiplier, 2 or its inverse
    (modulus+1)/2, must pass all four verifiers, any other (horton)
    multiplier must give a strong starter; otherwise CoverageFailure
    reports the witnesses.
    """
    mult = _beta_multiplier(recipe.beta, modulus)
    lows, highs, leaders = _walk(modulus, root, delta, mult)
    recipe = recipe._replace(lam=next((c for c in leaders[1:] if math.gcd(c, modulus) == 1), None))
    s = Starter(modulus, lows, highs)
    cls = classify(s)
    doubling = mult in (2, (modulus + 1) >> 1)
    if not (cls.all_four if doubling else cls.is_starter and cls.is_strong):
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
    _require(in_half_class(beta_r, p, p - 1, 2), "beta = {} is a quadratic residue mod {}", beta_r, p)
    _require(beta_r != p - 1, "beta = -1 is excluded")
    recipe = Recipe(method="horton", p=p, beta=beta if beta == BETA_TWO_INVERSE else beta_r)
    return _certified(p, find_primitive_root(p), 2, recipe)


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
    return _certified(p, find_primitive_root(p), 2, Recipe(method="qr", p=p, beta=beta))


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
    return _certified(p, root, 1 << k, recipe)


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
    beta = _doubling_beta(beta)
    root = lift_primitive_root(p, n)
    recipe = Recipe(method="prime_power", p=p, n=n, beta=beta, root=root)
    return _certified(p**n, root, 2, recipe)


def prime_power_cyclotomic_starter(
    p: int, k: int, n: int, beta: int | str = BETA_TWO
) -> Starter:
    """Cyclotomic variant of prime_power_starter for p = 2^k t + 1.

    Stratum i uses x over the low-half class union of the unit group
    mod p^(n-i), taken with respect to the lifted primitive root.
    """
    _require_bounded(p, n=n, k=k)
    _cyclotomic_prime(p, k)
    beta = _doubling_beta(beta)
    root = lift_primitive_root(p, n)
    recipe = Recipe(method="prime_power_cyclotomic", p=p, k=k, n=n, beta=beta, root=root)
    return _certified(p**n, root, 1 << k, recipe)


def pq_starter(p: int, q: int, beta: int | str = BETA_TWO) -> Starter:
    """Strong Skolem starter for Z_{pq}, p, q = 3 (mod 8), p < q.

    The walk of the smallest common primitive root r with delta = 2
    keeps p * QR(q), q * QR(p), <r^2> and lambda <r^2>, and -1 lies in
    r <r^2> (see the module docstring).  The units hold
    gcd(p-1, q-1) cosets of <r> and the recipe is stated for two, so
    pairs that pass the congruence hypotheses with a larger gcd raise
    CoverageFailure.  With gcd 2, 2 lies in the coset r <r^2> with no
    discrete log: p, q = 3 (mod 8) make 2 a non-residue mod both, so
    its two exponents are odd, agree mod 2 and are 1 mod delta = 2.
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
    root = find_common_primitive_root(p, q)
    return _certified(p * q, root, 2, Recipe(method="pq", p=p, q=q, beta=beta, root=root))


def pq_cyclotomic_starter(p: int, q: int, k: int, beta: int | str = BETA_TWO) -> Starter:
    """Strong Skolem starter for Z_{pq}, p = 2^k t1 + 1, q = 2^k t2 + 1.

    The walk of the smallest common primitive root r with delta = 2^k:
    the multiples of p and of q are covered like in cyclotomic_starter,
    mod q and mod p, and the units by the low half of every coset of
    <r>.  The smallest unit outside <r> is recorded as lambda.  -1
    lies in the coset r^(delta/2) <r^delta> mod pq, its exponents
    agreeing mod gcd(p-1, q-1) (see the module docstring); 2 may miss
    it only when gcd(p-1, q-1) > delta, and then its logs mod p and
    mod q, taken in the subgroup of order gcd(p-1, q-1), decide
    (_in_half_shift).
    """
    _require_bounded(p, q, k=k)
    _cyclotomic_prime(p, k, "p")
    _cyclotomic_prime(q, k, "q")
    _require_pq_pair(p, q)
    beta = _doubling_beta(beta)
    root, delta = find_common_primitive_root(p, q), 1 << k
    if not _in_half_shift(2, root, p, q, delta):
        raise CoverageFailure(f"2 is not in the coset r^{delta >> 1} <r^{delta}> mod {p * q}")
    recipe = Recipe(method="pq_cyclotomic", p=p, q=q, k=k, beta=beta, root=root)
    return _certified(p * q, root, delta, recipe)


def check_minus_one_coset(p: int, q: int, k: int, r: int) -> bool:
    """Certify that -1 behaves like a half-shift for the pair (p, q).

    Hypotheses, checked in this order: p = 2^k t1 + 1 and
    q = 2^k t2 + 1 are primes with k >= 3, t1 < t2 odd > 1, and r is a
    quadratic non-residue mod p and mod q.  A failed hypothesis raises
    HypothesisViolation; otherwise the result is True, with nothing
    left to compute.

    The theorem: then r^((p-1)(q-1)/2^(k+1)) = -1 (mod pq), and when r
    is also a common primitive root, -1 lies in the coset
    r^(2^(k-1)) <r^(2^k)> of the units mod pq.  The exponent is
    2^(k-1) t1 t2 with t1, t2 odd, so Euler's criterion makes the power
    -1 mod p and mod q.  The exponents 2^(k-1) t1 and 2^(k-1) t2 of -1
    mod p and mod q are 2^(k-1) mod 2^k and agree mod
    gcd(p-1, q-1) = 2^k gcd(t1, t2).  Tests check both conclusions for
    every small pair with k = 3, 4 and 5.
    """
    _require_bounded(p, q, k=k, r=r, each_prime=True)
    _cyclotomic_shape(p, k, "p")
    _cyclotomic_shape(q, k, "q")
    _require((p - 1) >> k < (q - 1) >> k, "need t1 < t2")
    for m in (p, q):
        _require(in_half_class(r, m, m - 1, 2), "r = {} is not a quadratic non-residue mod {}", r, m)
    return True


def check_two_in_coset(p: int, q: int, k: int, r: int) -> bool:
    """Certify that 2 lifts into the half-shift coset mod pq.

    Preconditions: p and q are distinct primes, in either order, 2^k
    divides p - 1 and q - 1 (t even is allowed), r is a common
    primitive root, and 2 lies in the class r^(2^(k-1)) <r^(2^k)> both
    mod p and mod q.  The conclusion -- 2 lies in that coset mod pq --
    is then decided by the congruence of its logs mod p and mod q,
    each taken in the subgroup of order gcd(p-1, q-1) (_in_half_shift).
    When gcd(p-1, q-1) = 2^k the class tests settle it with no log:
    the two logs need agree only mod 2^k, where both are 2^(k-1), so
    the result is True.
    """
    _require_bounded(p, q, k=k, r=r, each_prime=True)
    _require(p != q, "p and q must be distinct, got {} twice", p)
    _two_adic_prime(p, k, "p")
    _two_adic_prime(q, k, "q")
    common = is_primitive_root(r, p) and is_primitive_root(r, q)
    _require(common, "r = {} must be a common primitive root of {} and {}", r, p, q)
    delta = 1 << k
    for value in (p, q):
        _require(in_half_class(2, value, value - 1, delta), _TWO_OUT_OF_CLASS, delta >> 1, delta, value)
    return _in_half_shift(2, r, p, q, delta)
