import functools
import math
from collections import Counter

import pytest

from skolem_starters import constructions
from skolem_starters.constructions import (
    _CONSTRUCTION_BOUND,
    _in_half_shift,
    check_minus_one_coset,
    check_two_in_coset,
    CoverageFailure,
    cyclotomic_starter,
    horton_starter,
    HypothesisViolation,
    pq_cyclotomic_starter,
    pq_starter,
    prime_power_cyclotomic_starter,
    prime_power_starter,
    qr_starter,
)
from skolem_starters.modnt import find_primitive_root, in_half_class, multiplicative_order
from skolem_starters.search import (
    BoundExceeded,
    enumerate_starters,
    exhaustive_skolem_search,
    find_common_primitive_root,
    scan_cyclotomic_primes,
    scan_qr_primes,
)
from skolem_starters.starters import (
    classify,
    MalformedStarter,
    negate_starter,
    Starter,
    starter_to_json,
)
from oracles import naive_coset, naive_dlog, naive_order, squares_set, trial_division_prime

from test_json_golden import _grid_calls, DIGESTS
from test_starters import Z19_PAIRS, Z11_PAIRS


def pair_set(s: Starter) -> set[tuple[int, int]]:
    return {(p.lo, p.hi) for p in s.pairs}


# ---- horton_starter ---------------------------------------------------------


def test_horton_11_2_matches_hand_computation():
    s = horton_starter(11, 2)
    assert pair_set(s) == set(Z11_PAIRS)
    # independent: QR(11) from the full square table
    assert squares_set(11) == {1, 3, 4, 5, 9}
    assert s.classification.is_starter and s.classification.is_strong


@pytest.mark.parametrize("beta", [2.0, 3.0, 7.0, True, False, "²", "٣"])
def test_beta_refuses_floats_bools_and_other_digits(beta):
    # One domain: an int, a string of ASCII digits or "2inv". 2.0 == 2 and
    # True == 1 compare equal to residues, but neither is one; "²" and "٣"
    # pass str.isdigit.
    for recipe in (qr_starter, horton_starter):
        with pytest.raises(ValueError, match="unrecognized beta"):
            recipe(11, beta)
    assert constructions.normalize_beta("7") == constructions.normalize_beta(7) == 7


def test_horton_rejects_beta_minus_one():
    with pytest.raises(HypothesisViolation):
        horton_starter(11, 10)


@pytest.mark.parametrize(
    "p,beta", [(13, 2), (3, 2), (11, 3), (11, 0)]  # 13 = 1 mod 4; 3 excluded; 3 in QR(11); 0
)
def test_horton_rejects_bad_hypotheses(p, beta):
    with pytest.raises(HypothesisViolation):
        horton_starter(p, beta)


def test_horton_7_is_strong_but_not_skolem():
    # p = 7 = 3 (mod 4) with beta = 3: a strong starter that is neither
    # Skolem (7 = 7 mod 8 admits none) nor cardioidal.
    s = horton_starter(7, 3)
    assert pair_set(s) == {(1, 3), (2, 6), (4, 5)}
    cls = classify(s)
    assert cls.is_starter and cls.is_strong
    assert not cls.is_skolem and not cls.is_cardioidal


def test_horton_19_2_same_verdicts_as_fixture():
    assert classify(horton_starter(19, 2)).to_dict() == classify(
        Starter.from_pairs(19, Z19_PAIRS)
    ).to_dict()


# ---- qr_starter ---------------------------------------------------------------


def test_qr_11_2_all_four():
    s = qr_starter(11, 2)
    assert pair_set(s) == set(Z11_PAIRS)
    assert s.classification.all_four
    assert s.recipe.method == "qr" and s.recipe.beta == 2


def test_qr_19_two_inverse_is_negation_and_equals_fixture():
    s2 = qr_starter(19, 2)
    s2inv = qr_starter(19, "2inv")
    assert s2inv == negate_starter(s2)
    assert s2inv == Starter.from_pairs(19, Z19_PAIRS)


def test_qr_rejects_wrong_congruence_class():
    with pytest.raises(HypothesisViolation):
        qr_starter(17, 2)  # 17 = 1 (mod 8)
    with pytest.raises(HypothesisViolation):
        qr_starter(3, 2)
    with pytest.raises(HypothesisViolation):
        qr_starter(11, 7)  # beta must be 2 or 2inv


def test_qr_sweep_small_range():
    for p in (11, 19, 43, 59, 67, 83):
        s2 = qr_starter(p, 2)
        sinv = qr_starter(p, "2inv")
        assert len(s2.pairs) == (p - 1) // 2
        assert s2.classification.all_four
        assert sinv == negate_starter(s2)


# ---- cyclotomic_starter ---------------------------------------------------------


def test_cyclotomic_281_3():
    s = cyclotomic_starter(281, 3)
    assert len(s.pairs) == 140
    assert s.classification.all_four
    assert s.recipe.root == 3 and s.recipe.k == 3


def test_cyclotomic_281_two_inverse_is_negation():
    assert cyclotomic_starter(281, 3, "2inv") == negate_starter(cyclotomic_starter(281, 3))


@pytest.mark.parametrize("p", [73, 41])
def test_cyclotomic_rejects_wrong_index_of_two(p):
    # ord(2) = 9 mod 73 and 20 mod 41 put 2 outside the half-shift class
    with pytest.raises(HypothesisViolation):
        cyclotomic_starter(p, 3)


def test_cyclotomic_rejects_bad_shape():
    with pytest.raises(HypothesisViolation):
        cyclotomic_starter(281, 2)  # k < 3
    with pytest.raises(HypothesisViolation):
        cyclotomic_starter(97, 3)  # (p-1)/8 = 12 even
    with pytest.raises(HypothesisViolation):
        cyclotomic_starter(17, 4)  # t = 1
    with pytest.raises(HypothesisViolation):
        cyclotomic_starter(91, 1)  # not prime, and k < 3
    with pytest.raises(HypothesisViolation):
        cyclotomic_starter(91, 3)  # not prime
    with pytest.raises(HypothesisViolation):
        cyclotomic_starter(281, 10**20)  # refused before 2^k is built


# ---- prime_power_starter ---------------------------------------------------------


def test_prime_power_n1_collapses_to_qr():
    assert prime_power_starter(11, 1, 2) == qr_starter(11, 2)


def test_prime_power_11_squared():
    s = prime_power_starter(11, 2, 2)
    assert len(s.pairs) == 60
    assert s.classification.all_four
    assert s.recipe.root == 2
    # stratum bookkeeping: 55 unit pairs, 5 pairs of multiples of 11
    unit_pairs = [p for p in s.pairs if p.lo % 11]
    scaled_pairs = [p for p in s.pairs if p.lo % 11 == 0]
    assert len(unit_pairs) == 55 and len(scaled_pairs) == 5
    assert all(p.hi % 11 for p in unit_pairs)
    assert all(p.hi % 11 == 0 for p in scaled_pairs)


def test_prime_power_two_inverse_is_negation():
    assert prime_power_starter(11, 2, "2inv") == negate_starter(prime_power_starter(11, 2, 2))


def test_prime_power_rejects_bad_hypotheses():
    with pytest.raises(HypothesisViolation):
        prime_power_starter(13, 2, 2)
    with pytest.raises(HypothesisViolation):
        prime_power_starter(3, 2, 2)
    with pytest.raises(HypothesisViolation):
        prime_power_starter(11, 0, 2)


# ---- prime_power_cyclotomic_starter ------------------------------------------------


def test_prime_power_cyclotomic_n1_collapses():
    assert prime_power_cyclotomic_starter(281, 3, 1, 2) == cyclotomic_starter(281, 3)


def test_prime_power_cyclotomic_281_squared():
    s = prime_power_cyclotomic_starter(281, 3, 2, 2)
    assert len(s.pairs) == (281**2 - 1) // 2 == 39480
    assert s.classification.all_four
    assert s.recipe.root == 3  # 3^280 != 1 mod 281^2, no lift needed


def test_prime_power_cyclotomic_two_inverse_is_negation():
    a = prime_power_cyclotomic_starter(281, 3, 2, "2inv")
    b = negate_starter(prime_power_cyclotomic_starter(281, 3, 2, 2))
    assert a == b


def test_prime_power_cyclotomic_rejects_bad_index():
    with pytest.raises(HypothesisViolation):
        prime_power_cyclotomic_starter(73, 3, 2, 2)


# ---- pq_starter ----------------------------------------------------------------


def test_pq_11_19():
    s = pq_starter(11, 19, 2)
    assert len(s.pairs) == 104
    assert s.classification.all_four
    assert s.recipe.root == 2 and s.recipe.lam == 3
    # family sizes (q-side, p-side, units) = (9, 5, 90)
    p_family = [pr for pr in s.pairs if pr.lo % 11 == 0]
    q_family = [pr for pr in s.pairs if pr.lo % 19 == 0]
    unit_family = [pr for pr in s.pairs if pr.lo % 11 and pr.lo % 19]
    assert (len(p_family), len(q_family), len(unit_family)) == (9, 5, 90)
    assert all(pr.hi % 11 == 0 for pr in p_family)
    assert all(pr.hi % 19 == 0 for pr in q_family)


def test_pq_lambda_is_smallest_valid():
    # independent derivation: <2^2> mod 209 has 45 members; lambda is the
    # smallest unit outside <4> and 2<4>
    span = naive_coset(4, 1, 209)
    assert len(span) == 45
    excluded = span | {2 * x % 209 for x in span}
    lam = next(c for c in range(2, 209) if c % 11 and c % 19 and c not in excluded)
    assert pq_starter(11, 19, 2).recipe.lam == lam == 3
    # Mod 11 * 179 every unit below 13 lies in <r>: the walk's second leader
    # is 11, a non-unit, and lambda is the next leader, the unit 13.
    r = find_common_primitive_root(11, 179)
    span = naive_coset(r, 1, 11 * 179)
    lam = next(c for c in range(2, 11 * 179) if c % 11 and c % 179 and c not in span)
    assert pq_starter(11, 179).recipe.lam == lam == 13


def test_pq_two_inverse_is_negation():
    assert pq_starter(11, 19, "2inv") == negate_starter(pq_starter(11, 19, 2))


def test_pq_rejects_bad_hypotheses():
    with pytest.raises(HypothesisViolation):
        pq_starter(3, 11, 2)  # p = 3 excluded (3 | n breaks strongness)
    with pytest.raises(HypothesisViolation):
        pq_starter(19, 11, 2)  # p < q required
    with pytest.raises(HypothesisViolation):
        pq_starter(11, 31, 2)  # 30 = 0 mod 10: (p-1) | (q-1)
    with pytest.raises(HypothesisViolation):
        pq_starter(11, 17, 2)  # 17 = 1 mod 8


def test_pq_coverage_gap_when_gcd_exceeds_two():
    # (19, 43) passes every stated congruence hypothesis, but
    # gcd(18, 42) = 6 leaves the four cosets of <r^2> covering only a
    # third of the units: the recipe cannot produce a starter.
    with pytest.raises(CoverageFailure):
        pq_starter(19, 43, 2)


# ---- pq_cyclotomic_starter --------------------------------------------------------


def test_pq_cyclotomic_rejects_index_failure():
    # 313 = 8 * 39 + 1 is shape-valid but 2 sits in the wrong class
    with pytest.raises(HypothesisViolation):
        pq_cyclotomic_starter(281, 313, 3, 2)


def test_pq_cyclotomic_rejects_bad_shape():
    with pytest.raises(HypothesisViolation):
        pq_cyclotomic_starter(617, 281, 3, 2)
    with pytest.raises(HypothesisViolation):
        pq_cyclotomic_starter(281, 617, 2, 2)


def test_two_family_unit_part_cannot_cover():
    # With one multiplier the unit families span 2 * lcm(280, 616) of the
    # 172480 units; the classification shows the failure concretely.
    p, q = 281, 617
    m = p * q
    root = find_common_primitive_root(p, q)
    printed_lam = pow(root, 4, m)  # inside <r>, as the narrow reading allows

    def low_half(mod):  # the classes r^j <r^8> mod `mod`, j < 4
        return set().union(*(naive_coset(pow(root, 8, mod), pow(root, j, mod), mod) for j in range(4)))

    families = [(p, low_half(q)), (q, low_half(p)), (1, low_half(m)), (printed_lam, low_half(m))]
    s = Starter.from_pairs(m, [(c * x % m, 2 * c * x % m) for c, xs in families for x in xs])
    assert len(s.pairs) < (m - 1) // 2
    # wrong pair count is structural, classify refuses it outright
    with pytest.raises(MalformedStarter):
        classify(s)


# ---- negation / coset certificates ------------------------------------------------


def test_minus_one_coset_certificate():
    root = find_common_primitive_root(281, 617)
    assert root == 3
    assert (281 - 1) * (617 - 1) // 16 == 10780
    assert check_minus_one_coset(281, 617, 3, root)


def test_minus_one_coset_rejects_quadratic_residue_base():
    # 2 is a square mod 281 (281 = 1 mod 8), so it fails the precondition
    with pytest.raises(HypothesisViolation):
        check_minus_one_coset(281, 617, 3, 2)


def test_minus_one_coset_accepts_non_root_nqr():
    # any shared non-residue satisfies the power congruence even without
    # being a primitive root: 3^7 keeps the non-residue character on
    # both sides but has order (p-1)/7 and (q-1)/7 there
    r = 3**7
    assert naive_order(r % 281, 281) == 40
    assert naive_order(r % 617, 617) == 88
    assert check_minus_one_coset(281, 617, 3, r)
    assert pow(r, 10780, 281 * 617) == 281 * 617 - 1


def test_minus_one_coset_takes_no_discrete_log(monkeypatch):
    # 3 is a common primitive root of 281 and 617, so the coset branch runs:
    # the exponents of -1 are (p-1)/2 and (q-1)/2, known without a log.
    def refuse(*args):
        raise AssertionError("discrete_log called")

    monkeypatch.setattr(constructions, "discrete_log", refuse)
    assert check_minus_one_coset(281, 617, 3, 3) is True


def test_minus_one_coset_holds_for_every_small_k3_pair():
    # The certificate is a theorem: for every pair of primes 8t + 1 with t
    # odd > 1, -1 lies in the half-shift coset of the smallest common
    # primitive root, by the discrete-log oracle, and the smallest common
    # non-residue passes the certificate.
    primes = [p for p in range(25, 2000, 16) if trial_division_prime(p)]
    squares = {p: squares_set(p) for p in primes}
    checked = 0
    for i, p in enumerate(primes):
        for q in primes[i + 1:]:
            r = find_common_primitive_root(p, q)
            ep, eq = naive_dlog(p - 1, r, p), naive_dlog(q - 1, r, q)
            assert (ep - eq) % math.gcd(p - 1, q - 1) == 0, (p, q, r)
            assert ep % 8 == eq % 8 == 4, (p, q, r)
            r = next(x for x in range(2, p) if x not in squares[p] and x not in squares[q])
            assert check_minus_one_coset(p, q, 3, r) is True, (p, q, r)
            checked += 1
    assert checked == 561


def test_two_in_coset_certificate():
    assert check_two_in_coset(281, 617, 3, 3)


def test_two_in_coset_refuses_equal_primes(monkeypatch):
    # 281^2 is no two-prime modulus: refused before any primality test or log.
    for name in ("is_prime", "is_primitive_root", "discrete_log", "in_half_class"):
        monkeypatch.setattr(constructions, name, None)
    with pytest.raises(HypothesisViolation, match="must be distinct"):
        check_two_in_coset(281, 281, 3, 3)
    monkeypatch.undo()
    # The coset mod pq does not depend on the order of the primes.
    assert check_two_in_coset(617, 281, 3, 3) is True
    assert check_two_in_coset(1481, 281, 3, 3) is False


def test_in_half_shift_matches_the_walk_of_the_common_root():
    # For every pair of odd primes p < q below 60 and every unit x mod pq:
    # x lies in r^(delta/2) <r^delta> exactly when the walk r^e,
    # e < lcm(p-1, q-1), visits x at an e = delta/2 (mod delta).
    primes = [p for p in range(3, 60) if trial_division_prime(p)]
    checked = Counter()
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            m, g, r = p * q, math.gcd(p - 1, q - 1), find_common_primitive_root(p, q)
            exponent, x = {}, 1
            for e in range(math.lcm(p - 1, q - 1)):
                exponent[x] = e
                x = x * r % m
            for delta in (d for d in (2, 4, 8) if g % d == 0):
                for x in range(1, m):
                    if x % p and x % q:
                        visited = x in exponent and exponent[x] % delta == delta >> 1
                        assert _in_half_shift(x, r, p, q, delta) == visited, (p, q, delta, x)
                checked[delta] += 1
    assert checked[2] == len(primes) * (len(primes) - 1) // 2
    assert checked[4] and checked[8]


def test_two_in_coset_accepts_even_t():
    # 113 = 2^3 * 14 + 1 and 577 = 2^3 * 72 + 1: the certificate needs only
    # 2^k | p - 1, not the recipes' t odd > 1.
    assert check_two_in_coset(113, 577, 3, 5) is True


def test_pq_cyclotomic_refuses_two_outside_the_coset_before_the_walk():
    # 1481 = 2^3 * 185 + 1 meets every hypothesis, and 2 is in the half-shift
    # class mod 281 and mod 1481, but not in the coset mod 281 * 1481; -1 is.
    with pytest.raises(CoverageFailure, match=r"^2 is not in the coset r\^4 <r\^8> mod 416161$"):
        pq_cyclotomic_starter(281, 1481, 3)
    assert check_two_in_coset(281, 1481, 3, 3) is False
    assert _in_half_shift(281 * 1481 - 1, 3, 281, 1481, 8)


def test_minus_one_coset_refuses_a_base_divisible_by_p_or_q():
    for r in (0, 281, 617, 281 * 617):
        with pytest.raises(HypothesisViolation, match="is not a quadratic non-residue") as info:
            check_minus_one_coset(281, 617, 3, r)
        assert "is a quadratic residue" not in str(info.value)


def test_two_in_coset_rejects_non_root():
    with pytest.raises(HypothesisViolation):
        check_two_in_coset(281, 617, 3, 2)


def test_two_in_coset_rejects_wrong_local_class():
    # r = 5: a common primitive root of (11, 19)-style shapes does not
    # exist here, so use (281, 617) with a root whose local index of 2
    # differs -- 3 is the smallest; find another root where 2's index
    # stays 4 mod 8 only for valid roots, so just check a bad k instead.
    with pytest.raises(HypothesisViolation):
        check_two_in_coset(281, 617, 2, 3)


# ---- cross-cutting invariants -----------------------------------------------------


def test_every_accepted_prime_has_ord2_2_mod_4():
    for hit in scan_qr_primes(300).hits:
        assert multiplicative_order(2, hit.params["p"]) % 4 == 2
    for hit in scan_cyclotomic_primes(3, 300).hits:
        assert multiplicative_order(2, hit.params["p"]) % 4 == 2


def test_construction_is_deterministic():
    assert starter_to_json(qr_starter(19, 2)) == starter_to_json(qr_starter(19, 2))
    a, b = pq_starter(11, 19, 2), pq_starter(11, 19, 2)
    assert a == b and a.recipe == b.recipe


def test_constructed_pair_counts():
    for s, n in (
        (qr_starter(11, 2), 11),
        (qr_starter(19, 2), 19),
        (cyclotomic_starter(281, 3), 281),
        (prime_power_starter(11, 2, 2), 121),
        (pq_starter(11, 19, 2), 209),
    ):
        assert s.modulus == n
        assert len(s.pairs) == (n - 1) // 2


def test_lifted_root_order_in_each_stratum_group():
    s = prime_power_starter(11, 3, 2)
    root = s.recipe.root
    for m in (11, 121, 1331):
        assert naive_order(root % m, m) == m // 11 * 10


def test_construction_bound(monkeypatch):
    # Z_173377 and Z_78961 = 281^2, the largest moduli built here, sit well inside.
    assert 4 * max(281 * 617, 281**2) < _CONSTRUCTION_BOUND
    # Refused before any arithmetic: no primality test, no root, no p^n.  The
    # first two and the pq pair meet every hypothesis of their recipes.
    monkeypatch.setattr(constructions, "is_prime", None)
    for build, args in (
        (qr_starter, (1000003,)),
        (horton_starter, (1000003, 2)),
        (qr_starter, (10**15 + 91,)),
        (cyclotomic_starter, (10**15 + 1, 3)),
        (prime_power_starter, (11, 10**8)),
        (prime_power_cyclotomic_starter, (281, 3, 10**8)),
        (pq_starter, (1019, 1051)),
        (pq_cyclotomic_starter, (281, 3617, 3)),
    ):
        with pytest.raises(BoundExceeded, match="exceeds the construction bound"):
            build(*args)


# Each recipe and certificate with arguments that meet its hypotheses,
# horton's beta fixed: every positional argument is an integer parameter.
_INTEGER_CALLS = (
    (functools.partial(horton_starter, beta=7), (11,)),
    (qr_starter, (11,)),
    (cyclotomic_starter, (281, 3)),
    (prime_power_starter, (11, 2)),
    (prime_power_cyclotomic_starter, (281, 3, 2)),
    (pq_starter, (11, 19)),
    (pq_cyclotomic_starter, (281, 617, 3)),
    (check_minus_one_coset, (281, 617, 3, 3)),
    (check_two_in_coset, (281, 617, 3, 3)),
)


def test_every_recipe_refuses_a_bool_or_float_integer_parameter(monkeypatch):
    # The rule normalize_beta applies to beta: True == 1 and 2.0 == 2, yet
    # both are refused, before any primality test, root or log.
    for name in ("is_prime", "is_primitive_root", "find_primitive_root", "discrete_log", "in_half_class"):
        monkeypatch.setattr(constructions, name, None)
    for build, args in _INTEGER_CALLS:
        for i in range(len(args)):
            for bad in (True, 2.0):
                with pytest.raises(HypothesisViolation, match="must be an int"):
                    build(*args[:i], bad, *args[i + 1 :])


def test_coset_certificate_bound(monkeypatch):
    # Each prime is bounded, not pq: scans certify pairs with pq near 4 * 10^8.
    # Refused before any primality test, factorization or discrete log.
    for name in ("is_prime", "is_primitive_root", "discrete_log", "in_half_class"):
        monkeypatch.setattr(constructions, name, None)
    big = _CONSTRUCTION_BOUND + 1
    for check in (check_minus_one_coset, check_two_in_coset):
        for p, q in ((281, 8000000000393), (8000000000009, 8000000000393), (big, big + 2)):
            with pytest.raises(BoundExceeded, match="exceeds the construction bound"):
                check(p, q, 3, 3)


# ---- doubling orbits ---------------------------------------------------------------


def _doubling_orbits(n: int) -> list[list[int]]:
    """The orbits of x -> 2x on 1 .. n-1, each walked from its least member."""
    orbits, seen = [], set()
    for c in range(1, n):
        if c not in seen:
            orbit = [c]
            while 2 * orbit[-1] % n != c:
                orbit.append(2 * orbit[-1] % n)
            seen.update(orbit)
            orbits.append(orbit)
    return orbits


def _one_parity_per_orbit(s: Starter) -> bool:
    """Every pair is an edge {y, 2y} of a doubling orbit, and the tails y
    in each orbit are exactly its even steps or exactly its odd steps."""
    n = s.modulus
    tails = set()
    for lo, hi in s.pairs:
        if hi == 2 * lo % n:
            tails.add(lo)
        elif lo == 2 * hi % n:
            tails.add(hi)
        else:
            return False
    return all(
        tails.intersection(orbit) in (set(orbit[0::2]), set(orbit[1::2]))
        for orbit in _doubling_orbits(n)
    )


_DOUBLING_RECIPES = {
    "qr_starter",
    "cyclotomic_starter",
    "prime_power_starter",
    "prime_power_cyclotomic_starter",
    "pq_starter",
    "pq_cyclotomic_starter",
}


@functools.cache
def _doubling_starters() -> tuple[tuple[str, tuple, Starter], ...]:
    """(recipe, arguments, starter) for every starter the six doubling
    recipes build over the golden grid and the pinned parameter sets,
    Z_173377 included."""
    calls = {call for call in [*_grid_calls(), *DIGESTS] if call[0] in _DOUBLING_RECIPES}
    built = []
    for recipe, args in sorted(calls, key=repr):
        try:
            built.append((recipe, args, getattr(constructions, recipe)(*args)))
        except (HypothesisViolation, CoverageFailure):
            pass
    return tuple(built)


def test_doubling_recipes_take_one_parity_per_orbit():
    built = Counter()
    for recipe, args, s in _doubling_starters():
        assert _one_parity_per_orbit(s), (recipe, args)
        built[recipe] += 1
    assert set(built) == _DOUBLING_RECIPES
    assert sum(built.values()) == 176


def test_two_and_minus_one_lie_in_the_half_shift_class_at_every_stratum():
    # The Z_p and Z_{p^n} recipes check 2 and -1 at p only: delta divides
    # p - 1, so their class mod every p^j is fixed mod p.  Checked here by
    # the power-residue test and by the discrete-log oracle.
    checked = Counter()
    for recipe, args, s in _doubling_starters():
        r = s.recipe
        if r.q is not None:
            continue
        delta = 1 << (r.k or 1)
        root = r.root or find_primitive_root(r.p)
        for j in range(1, (r.n or 1) + 1):
            m = r.p**j
            for x in (2, m - 1):
                assert in_half_class(x, m, m // r.p * (r.p - 1), delta), (recipe, args, m, x)
                assert naive_dlog(x, root, m) % delta == delta >> 1, (recipe, args, m, x)
        checked[recipe] += 1
    assert set(checked) == _DOUBLING_RECIPES - {"pq_starter", "pq_cyclotomic_starter"}


def test_minus_one_and_two_lie_in_the_half_shift_coset_of_every_pq_starter():
    # _pq checks 2 only: -1 always lies in the coset.
    checked = Counter()
    for recipe, args, s in _doubling_starters():
        r = s.recipe
        if r.q is None:
            continue
        delta = 1 << (r.k or 1)
        for x in (2, r.p * r.q - 1):
            assert _in_half_shift(x, r.root, r.p, r.q, delta), (recipe, args, x)
        checked[recipe] += 1
    assert set(checked) == {"pq_starter", "pq_cyclotomic_starter"}


def test_one_parity_check_rejects_other_starters():
    assert not _one_parity_per_orbit(horton_starter(11, 7))
    # Doubling edges along the one orbit 1, 2, 4, 8, 5, 10, ... of Z_11, not alternating.
    assert not _one_parity_per_orbit(Starter.from_pairs(11, [(1, 2), (2, 4), (4, 8), (8, 5), (5, 10)]))
    assert _one_parity_per_orbit(negate_starter(qr_starter(11)))


def _check_cardioidal_count(n, starters):
    # For 3 not dividing n, Z_n has 2^(number of doubling orbits) cardioidal
    # starters when every orbit has length 2 (mod 4), and none otherwise.
    orbits = _doubling_orbits(n)
    cardioidal = [s for s in starters if classify(s).is_cardioidal]
    expected = 2 ** len(orbits) if all(len(orbit) % 4 == 2 for orbit in orbits) else 0
    assert len(cardioidal) == expected
    assert all(_one_parity_per_orbit(s) for s in cardioidal)


@pytest.mark.parametrize("n", [n for n in range(3, 16, 2) if n % 3])
def test_cardioidal_count_is_two_to_the_orbits(n):
    _check_cardioidal_count(n, enumerate_starters(n))


@pytest.mark.parametrize("n", [n for n in range(3, 22, 2) if n % 3])
def test_cardioidal_count_in_the_search_is_two_to_the_orbits(n):
    # {x, 2x mod n} has integer difference min(x, n - x), so every cardioidal
    # starter is Skolem and the search must meet all of them.
    _check_cardioidal_count(n, exhaustive_skolem_search(n, find_all=True))
