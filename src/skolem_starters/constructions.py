"""Explicit constructions of strong Skolem (cardioidal) starters.

Every recipe is one instance of the same idea: doubling pairs
{c*x, beta*c*x} (beta = 2 or the inverse of 2), one family per
multiplier c, with x over a union of cosets of a subgroup, chosen so
that the pair members and the +- differences each sweep out the
nonzero residues exactly once.  A recipe checks its hypotheses, builds
its Recipe, and takes its families (c, xs) from one of two cores:
_strata for Z_{p^n} (Z_p is n = 1) or _pq_families for Z_{pq}.
_certified builds every pair, canonicalizes once and runs the four
verifiers.

  horton_starter            Z_p,   x over the quadratic residues, any
                            non-residue multiplier (strong only)
  qr_starter                Z_p,   p = 3 (mod 8), multiplier 2 or 2^-1
  cyclotomic_starter        Z_p,   p = 2^k t + 1, x over the low half
                            of the cyclotomic classes
  prime_power_starter       Z_{p^n}, one family per unit stratum
                            p^i * (units mod p^(n-i)), x over <r^2>
  prime_power_cyclotomic_starter   the cyclotomic variant of the above
  pq_starter                Z_{pq}, four families: p * QR(q),
                            q * QR(p), and <r^2>, lambda * <r^2>
  pq_cyclotomic_starter     the cyclotomic variant for p, q = 1 (mod 8)

The low half of the classes of r is the union of the cosets
r^j <r^delta>, j < delta/2 (_half_union); delta = 2 gives <r^2>.
Doubling and negation both map it onto the high half when 2 and -1
lie in the half-shift class r^(delta/2) <r^delta>: mod a prime power
the power-residue test modnt.in_half_class, mod pq (units not cyclic)
_in_half_shift, which combines two discrete logs.

Hypothesis checks happen first and raise HypothesisViolation; every
successful construction is then self-verified with all four verifiers
before it is returned, so an invalid object can never escape --
verification failure raises CoverageFailure with the witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from .modnt import (
    crt_solve,
    cyclic_coset,
    discrete_log,
    euler_class,
    find_primitive_root,
    GroupContext,
    in_half_class,
    is_prime,
    is_primitive_root,
    lift_primitive_root,
    quadratic_residues,
    ResidueClass,
)
from .search import find_common_primitive_root
from .starters import classify, Starter

BETA_TWO = 2
BETA_TWO_INVERSE = "2inv"


class HypothesisViolation(ValueError):
    """Arguments fail the arithmetic hypotheses of the construction."""


class CoverageFailure(RuntimeError):
    """Assembled pair families do not partition the nonzero residues."""


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
    """Canonicalize a multiplier argument to 2, "2inv", or a residue."""
    if beta in (2, "2"):
        return BETA_TWO
    if beta in (BETA_TWO_INVERSE, "two_inverse", "2^-1"):
        return BETA_TWO_INVERSE
    if isinstance(beta, int):
        return beta
    if isinstance(beta, str) and beta.isdigit():
        return int(beta)
    raise ValueError(f"unrecognized beta {beta!r}")


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


def _half_union(root: int, delta: int, m: int) -> set[int]:
    """Union of the cosets root^j <root^delta> mod m, j = 0 .. delta/2 - 1."""
    sub = cyclic_coset(pow(root, delta, m), 1, m)
    out: set[int] = set()
    for j in range(delta >> 1):
        shift = pow(root, j, m)
        out.update(shift * s % m for s in sub)
    return out


def _in_half_shift(x: int, root: int, p: int, q: int, delta: int) -> bool:
    """The unit x lies in the coset root^(delta/2) <root^delta> mod pq,
    root a common primitive root of p and q.

    The exponent of x comes from the two componentwise discrete logs,
    recombined on the exponents; the moduli p-1 and q-1 share a
    factor, so the recombination can be unsolvable, which is exactly
    the x outside the subgroup generated by root.
    """
    ep = discrete_log(x, root, p, p - 1)
    eq = discrete_log(x, root, q, q - 1)
    solved = crt_solve(ep, p - 1, eq, q - 1)
    return solved is not None and solved[0] % delta == delta >> 1


def _strata(p: int, n: int, root: int, delta: int) -> list[tuple[int, set[int]]]:
    """The families (p^i, low half of the classes of root mod p^(n-i)), i < n.

    The strata p^i * (units mod p^(n-i)) split the nonzero residues mod
    p^n; root generates the units mod p^n.  A stratum is covered by its
    own pairs and differences when 2 and -1 lie in the class
    root^(delta/2) <root^delta> of its unit group.  That follows from
    the hypotheses at p, but it is re-checked for every stratum, by
    in_half_class, rather than assumed (CoverageFailure).
    """
    for i in range(n):
        m = p ** (n - i)
        for target, name in ((2, "2"), (m - 1, "-1")):
            if not in_half_class(target, m, m // p * (p - 1), delta):
                raise CoverageFailure(f"{name} is not in the class r^{delta >> 1} <r^{delta}> mod {m}")
    return [(p**i, _half_union(root, delta, p ** (n - i))) for i in range(n)]


def _pq_families(p: int, q: int, delta: int) -> tuple[list[tuple[int, set[int]]], int, int]:
    """The Z_{pq} families, the common primitive root r, and lambda.

    p * H_q and q * H_p cover the multiples of p and of q, H_m the low
    half of the classes of r mod m.  With 2 and -1 both in the coset
    r^(delta/2) <r^delta> of R = <r> (CoverageFailure if not), each
    coset c*R splits into doubling pairs {c x, 2 c x}, x over the low
    half H of R (H and 2H tile R, and -H = 2H).  The multipliers c are
    the smallest yet-uncovered units; lambda is the first after 1.
    """
    modulus = p * q
    root = find_common_primitive_root(p, q)
    for target, name in ((2, "2"), (modulus - 1, "-1")):
        if not _in_half_shift(target, root, p, q, delta):
            raise CoverageFailure(
                f"{name} is not in the coset r^{delta >> 1} <r^{delta}> mod {modulus}"
            )
    half_union = _half_union(root, delta, modulus)
    span = half_union | {2 * x % modulus for x in half_union}  # span == <r>
    unit_count = (p - 1) * (q - 1)
    covered = set(span)
    multipliers = [1]
    c = 2
    while len(covered) < unit_count:
        while c in covered or c % p == 0 or c % q == 0:
            c += 1
            if c >= modulus:
                raise CoverageFailure(
                    f"transversal of <r> mod {modulus} incomplete: "
                    f"{len(covered)} of {unit_count} units covered"
                )
        multipliers.append(c)
        covered.update(c * y % modulus for y in span)
    families = [(p, _half_union(root, delta, q)), (q, _half_union(root, delta, p))]
    families += [(c, half_union) for c in multipliers]
    return families, root, multipliers[1]


def _certified(modulus: int, families: list, recipe: Recipe, *, all_four: bool = True) -> Starter:
    """The pairs {c*x, beta*c*x} mod modulus for every family (c, xs),
    with beta from the recipe, canonicalized and self-verified.

    The result carries the recipe and a fresh classification.  It must
    pass all four verifiers (with all_four=False: starter and strong);
    otherwise CoverageFailure reports the witnesses.
    """
    mult = _beta_multiplier(recipe.beta, modulus)
    s = Starter.from_pairs(
        modulus, [(c * x % modulus, c * x * mult % modulus) for c, xs in families for x in xs]
    )
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
    _require_qr_prime(p, mod=4)
    beta = normalize_beta(beta)
    beta_r = _beta_multiplier(beta, p)
    _require(beta_r % p != 0, "beta must be a unit")
    _require(euler_class(beta_r, p) is ResidueClass.NQR, f"beta = {beta_r} is a quadratic residue mod {p}")
    _require(beta_r != p - 1, "beta = -1 is excluded")
    recipe = Recipe(method="horton", p=p, beta=beta if beta == BETA_TWO_INVERSE else beta_r)
    return _certified(p, [(1, quadratic_residues(p))], recipe, all_four=False)


def qr_starter(p: int, beta: int | str = BETA_TWO) -> Starter:
    """Strong Skolem starter {{x, 2x} : x quadratic residue mod p}.

    For p = 3 (mod 8), p != 3, the multiplier 2 (or its inverse) is a
    non-residue, the pairs are doubling pairs, and the result passes
    all four verifiers.  The 2inv variant equals the negation of the
    2 variant.
    """
    _require_qr_prime(p)
    beta = _doubling_beta(beta)
    recipe = Recipe(method="qr", p=p, beta=beta)
    return _certified(p, [(1, quadratic_residues(p))], recipe)


def cyclotomic_starter(p: int, k: int, beta: int | str = BETA_TWO) -> Starter:
    """Strong Skolem starter over the low half of the cyclotomic classes.

    For p = 2^k t + 1 (k >= 3, t odd > 1) whose class index of 2 is
    2^(k-1): pairs {x, 2x} with x ranging over the union of classes
    0 .. 2^(k-1) - 1.  Doubling then lands in the upper half, so the
    pair members sweep all of Z_p^*, and the index of -1 is 2^(k-1)
    automatically (t odd), which makes the differences sweep it too.
    This is the n = 1 case of prime_power_cyclotomic_starter.
    """
    _cyclotomic_prime(p, k)
    beta = _doubling_beta(beta)
    root = find_primitive_root(p)
    recipe = Recipe(method="cyclotomic", p=p, k=k, beta=beta, root=root)
    return _certified(p, _strata(p, 1, root, 1 << k), recipe)


def prime_power_starter(p: int, n: int, beta: int | str = BETA_TWO) -> Starter:
    """Strong Skolem starter for Z_{p^n}, p = 3 (mod 8), p != 3, n >= 1.

    The nonzero residues split into strata p^i * (units mod p^(n-i));
    inside stratum i the pairs are {p^i x, 2 p^i x} with x over the
    index-2 subgroup generated by the square of a primitive root, so
    each stratum is covered by its own pairs and differences.  n = 1
    degenerates to the plain quadratic-residue construction.
    """
    _require_qr_prime(p)
    _require(n >= 1, f"n must be >= 1, got {n}")
    beta = _doubling_beta(beta)
    ctx = GroupContext.for_prime_power(p, n)
    root = ctx.primitive_root
    recipe = Recipe(method="prime_power", p=p, n=n, beta=beta, root=root)
    return _certified(ctx.modulus, _strata(p, n, root, 2), recipe)


def prime_power_cyclotomic_starter(
    p: int, k: int, n: int, beta: int | str = BETA_TWO
) -> Starter:
    """Cyclotomic variant of prime_power_starter for p = 2^k t + 1.

    Stratum i uses x over the low-half class union of the unit group
    mod p^(n-i), taken with respect to the lifted primitive root.
    """
    _cyclotomic_prime(p, k)
    _require(n >= 1, f"n must be >= 1, got {n}")
    beta = _doubling_beta(beta)
    root = lift_primitive_root(find_primitive_root(p), p, n)
    recipe = Recipe(method="prime_power_cyclotomic", p=p, k=k, n=n, beta=beta, root=root)
    return _certified(p**n, _strata(p, n, root, 1 << k), recipe)


def pq_starter(p: int, q: int, beta: int | str = BETA_TWO) -> Starter:
    """Strong Skolem starter for Z_{pq}, p, q = 3 (mod 8), p < q.

    Three families of doubling pairs: p * QR(q) covers the multiples
    of p, q * QR(p) the multiples of q, and the unit part is swept by
    the cyclic group generated by the square of a common primitive
    root r together with one shifted copy lambda * <r^2>, lambda the
    smallest unit outside <r^2> and 2<r^2>.  The four cosets <r^2>,
    2<r^2>, lambda<r^2>, 2*lambda<r^2> must tile the units, which
    additionally requires gcd(p-1, q-1) = 2; pairs that pass the
    stated congruence hypotheses but have a larger gcd cannot be
    covered by this recipe and raise CoverageFailure.
    """
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
    families, root, lam = _pq_families(p, q, 2)  # <r^2> mod q is QR(q): r is primitive mod q
    recipe = Recipe(method="pq", p=p, q=q, beta=beta, lam=lam, root=root)
    return _certified(p * q, families, recipe)


def pq_cyclotomic_starter(p: int, q: int, k: int, beta: int | str = BETA_TWO) -> Starter:
    """Strong Skolem starter for Z_{pq}, p = 2^k t1 + 1, q = 2^k t2 + 1.

    The multiples of p and of q are covered like in
    cyclotomic_starter, working mod q and mod p respectively.  The
    unit part is one copy of the low-half class union H of <r>, r a
    common primitive root, per coset of <r>: 2 and -1 both sit in the
    coset r^(2^(k-1)) <r^(2^k)>, so each copy splits into doubling
    pairs (see _pq_families).  The smallest unit outside <r> is
    recorded as lambda in the recipe.
    """
    _cyclotomic_prime(p, k, "p")
    _cyclotomic_prime(q, k, "q")
    _require_pq_pair(p, q)
    beta = _doubling_beta(beta)
    families, root, lam = _pq_families(p, q, 1 << k)
    recipe = Recipe(method="pq_cyclotomic", p=p, q=q, k=k, beta=beta, lam=lam, root=root)
    return _certified(p * q, families, recipe)


def check_minus_one_coset(p: int, q: int, k: int, r: int) -> bool:
    """Certify that -1 behaves like a half-shift for the pair (p, q).

    For p = 2^k t1 + 1, q = 2^k t2 + 1 (t1 < t2 odd > 1) and r a
    non-residue mod both primes: checks r^((p-1)(q-1)/2^(k+1)) = -1
    (mod pq) exactly; when r is additionally a common primitive root,
    also checks that -1 lies in the coset r^(2^(k-1)) <r^(2^k)> of
    the units mod pq.
    """
    _cyclotomic_shape(p, k, "p")
    _cyclotomic_shape(q, k, "q")
    delta = 1 << k
    _require((p - 1) // delta < (q - 1) // delta, "need t1 < t2")
    for m in (p, q):
        _require(euler_class(r, m) is ResidueClass.NQR, f"r = {r} is a quadratic residue mod {m}")
    modulus = p * q
    exponent = (p - 1) * (q - 1) // (1 << (k + 1))
    result = pow(r, exponent, modulus) == modulus - 1
    if is_primitive_root(r, p) and is_primitive_root(r, q):
        result = result and _in_half_shift(modulus - 1, r, p, q, delta)
    return result


def check_two_in_coset(p: int, q: int, k: int, r: int) -> bool:
    """Certify that 2 lifts into the half-shift coset mod pq.

    Preconditions: 2^k divides p - 1 and q - 1 (t even is allowed), r
    is a common primitive root, and 2 lies in the class
    r^(2^(k-1)) <r^(2^k)> both mod p and mod q.  The conclusion -- 2
    lies in that coset mod pq -- is then confirmed by combining the
    componentwise discrete logs of 2 through the exponent congruences.
    """
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
