import functools
import hashlib
import math
import re
import sys
from collections import Counter

import pytest

from skolem_starters import constructions, modnt
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
    Recipe,
)
from skolem_starters.modnt import find_primitive_root, in_half_class
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
from oracles import (
    full_group_in_half_shift,
    multiplicative_order,
    naive_coset,
    naive_dlog,
    naive_order,
    squares_set,
    trial_division_prime,
    walk_pairs,
)

from test_json_golden import _grid_calls, DIGESTS
from test_starters import Z19_PAIRS, Z11_PAIRS


def pair_set(s: Starter) -> set[tuple[int, int]]:
    return {(p.lo, p.hi) for p in s.pairs}


def test_recipe_keeps_its_keywords_repr_document_keys_and_replace():
    r = Recipe(method="pq", p=11, q=19, beta=2, lam=3, root=2)
    assert pq_starter(11, 19, 2).recipe == r
    assert repr(r) == "Recipe(method='pq', p=11, q=19, n=None, k=None, beta=2, lam=3, root=2)"
    assert r.to_dict() == {"method": "pq", "p": 11, "q": 19, "n": None, "k": None,
                           "beta": 2, "lambda": 3, "root": 2}
    assert list(r.to_dict()) == ["method", "p", "q", "n", "k", "beta", "lambda", "root"]
    assert r._replace(lam=5) == Recipe("pq", 11, 19, None, None, 2, 5, 2) and r.lam == 3


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
    # 3 is a common primitive root of 281 and 617, yet the certificate
    # computes nothing past its hypotheses: no root test and no log.
    for name in ("discrete_log", "is_primitive_root"):
        def refuse(*args, name=name):
            raise AssertionError(f"{name} called")

        monkeypatch.setattr(constructions, name, refuse)
    assert check_minus_one_coset(281, 617, 3, 3) is True


def _check_minus_one_theorem(k: int) -> int:
    # The certificate is a theorem: for every pair of primes 2^k t + 1 < 2000
    # with t odd > 1, -1 lies in the half-shift coset of the smallest common
    # primitive root, by the discrete-log oracle, and the power of the
    # smallest common non-residue is -1 mod pq; that non-residue passes the
    # certificate.  Returns the number of pairs checked.
    delta = 1 << k
    primes = [p for p in range(3 * delta + 1, 2000, 2 * delta) if trial_division_prime(p)]
    squares = {p: squares_set(p) for p in primes}
    checked = 0
    for i, p in enumerate(primes):
        for q in primes[i + 1:]:
            r = find_common_primitive_root(p, q)
            ep, eq = naive_dlog(p - 1, r, p), naive_dlog(q - 1, r, q)
            assert (ep - eq) % math.gcd(p - 1, q - 1) == 0, (p, q, r)
            assert ep % delta == eq % delta == delta >> 1, (p, q, r)
            r = next(x for x in range(2, p) if x not in squares[p] and x not in squares[q])
            assert pow(r, (p - 1) * (q - 1) // (2 * delta), p * q) == p * q - 1, (p, q, r)
            assert check_minus_one_coset(p, q, k, r) is True, (p, q, r)
            checked += 1
    return checked


def test_minus_one_coset_holds_for_every_small_k3_pair():
    assert _check_minus_one_theorem(3) == 561


@pytest.mark.parametrize("k,pairs", [(4, 120), (5, 21)])
def test_minus_one_coset_holds_for_every_small_pair_at_larger_k(k, pairs):
    # 16 primes 16t + 1 and 7 primes 32t + 1 below 2000: every k the
    # certificate accepts is held to the theorem, not k = 3 alone.
    assert _check_minus_one_theorem(k) == pairs


def test_two_in_coset_certificate():
    assert check_two_in_coset(281, 617, 3, 3)


def test_two_in_coset_refuses_equal_primes(monkeypatch):
    # 281^2 is no two-prime modulus: refused before any primality test or log.
    for name in ("_odd_prime", "is_primitive_root", "discrete_log", "in_half_class"):
        monkeypatch.setattr(constructions, name, None)
    with pytest.raises(HypothesisViolation, match="must be distinct"):
        check_two_in_coset(281, 281, 3, 3)
    monkeypatch.undo()
    # The coset mod pq does not depend on the order of the primes.
    assert check_two_in_coset(617, 281, 3, 3) is True
    assert check_two_in_coset(1481, 281, 3, 3) is False


def test_two_in_coset_takes_no_log_when_the_gcd_is_two_to_the_k(monkeypatch):
    # gcd(p-1, q-1) = 8 = 2^3: the logs of 2 need agree only mod 8, where the
    # class tests put both at 4, so the certificate takes no log.  113 =
    # 2^3 * 14 + 1 has an even t.
    def refuse(*args):
        raise AssertionError("discrete_log called")

    monkeypatch.setattr(constructions, "discrete_log", refuse)
    assert math.gcd(281 - 1, 1033 - 1) == math.gcd(113 - 1, 1033 - 1) == 8
    assert check_two_in_coset(281, 1033, 3, 11) is True
    assert check_two_in_coset(113, 1033, 3, 5) is True
    assert _in_half_shift(2, 11, 281, 1033, 8) is True


def test_two_in_coset_takes_both_logs_when_the_gcd_exceeds_two_to_the_k(monkeypatch):
    # gcd 56 and 16: one log mod p and one mod q, each in the subgroup of
    # order gcd(p-1, q-1).
    calls = []

    def counted(x, r, m, order):
        calls.append((m, order))
        return modnt.discrete_log(x, r, m, order)

    monkeypatch.setattr(constructions, "discrete_log", counted)
    for p, q, r, g in ((281, 617, 3, 56), (113, 577, 5, 16)):
        calls.clear()
        assert math.gcd(p - 1, q - 1) == g
        assert check_two_in_coset(p, q, 3, r) is True
        assert calls == [(p, g), (q, g)]


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


def test_projected_logs_match_the_full_group_logs():
    # The logs mod p and mod q are taken in the subgroup of order
    # gcd(p-1, q-1); the oracle takes them in the full groups, by
    # successive powers.  Every pair of cyclotomic primes below 3000 for
    # k = 3 and 4, and x in {2, -1, 3, 5, 7}, each a unit mod pq here.
    # Then each prime 2^k t + 1 < 3000 with t even, paired with each of
    # those primes that makes gcd(p-1, q-1) = 2^k, where the class tests
    # decide with no log; where 2 is in the half-shift class mod both,
    # check_two_in_coset says True.
    checked, certified = Counter(), Counter()
    for k in (3, 4):
        delta = 1 << k
        primes = [hit.params["p"] for hit in scan_cyclotomic_primes(k, 3000).hits]
        even_t = [p for p in range(2 * delta + 1, 3000, 2 * delta) if trial_division_prime(p)]
        pairs = [(p, q) for i, p in enumerate(primes) for q in primes[i + 1 :]]
        pairs += [(p, q) for p in even_t for q in primes if math.gcd(p - 1, q - 1) == delta]
        for p, q in pairs:
            r = find_common_primitive_root(p, q)
            for x in (2, -1, 3, 5, 7):
                x %= p * q
                assert x % p and x % q
                expected = full_group_in_half_shift(x, r, p, q, delta)
                assert _in_half_shift(x, r, p, q, delta) == expected, (p, q, k, x)
                checked[k, expected, math.gcd(p - 1, q - 1) == delta] += 1
            if in_half_class(2, p, p - 1, delta):
                expected = full_group_in_half_shift(2, r, p, q, delta)
                assert check_two_in_coset(p, q, k, r) == expected, (p, q, k)
                # With gcd 2^k the hypotheses' class tests are the verdict.
                assert expected or math.gcd(p - 1, q - 1) > delta, (p, q, k)
                certified[k, expected, "even t" if (p - 1) >> k & 1 == 0 else "odd t"] += 1
    # Both verdicts occur at both k, with a log and without.
    assert set(checked) == {(k, v, no_log) for k in (3, 4) for v in (True, False) for no_log in (True, False)}
    assert certified == {
        (3, True, "even t"): 96,
        (3, True, "odd t"): 54,
        (3, False, "odd t"): 12,
        (4, True, "even t"): 4,
        (4, True, "odd t"): 3,
    }


def test_two_in_coset_accepts_even_t():
    # 113 = 2^3 * 14 + 1 and 577 = 2^3 * 72 + 1: the certificate needs only
    # 2^k | p - 1, not the recipes' t odd > 1, and refuses a larger 2^k in
    # the recipes' words.
    assert check_two_in_coset(113, 577, 3, 5) is True
    with pytest.raises(HypothesisViolation, match=r"^2\^4 does not divide p - 1 = 280$"):
        check_two_in_coset(281, 577, 4, 5)
    with pytest.raises(HypothesisViolation, match=r"^2\^5 does not divide q - 1 = 240$"):
        check_two_in_coset(97, 241, 5, 5)


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
    monkeypatch.setattr(constructions, "_odd_prime", None)
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


class _Int(int):
    pass


def test_every_recipe_refuses_a_bool_or_float_integer_parameter(monkeypatch):
    # The rule normalize_beta and Starter.from_pairs apply: True == 1,
    # 2.0 == 2 and _Int(11) == 11, yet all are refused, before any
    # primality test, root or log.
    for name in ("_odd_prime", "is_primitive_root", "find_primitive_root", "discrete_log", "in_half_class"):
        monkeypatch.setattr(constructions, name, None)
    for build, args in _INTEGER_CALLS:
        for i in range(len(args)):
            for bad in (True, 2.0, _Int(args[i])):
                with pytest.raises(HypothesisViolation, match="must be an int"):
                    build(*args[:i], bad, *args[i + 1 :])


def test_a_walk_that_fails_its_verdicts_is_refused(monkeypatch):
    # Swapping the highs of the first two pairs keeps a pairing of the
    # walked elements but breaks its differences: every recipe certifies
    # its walk and refuses that instead of returning it.
    walk = constructions._walk

    def swapped(*args):
        lows, highs, leaders = walk(*args)
        return lows, (highs[1], highs[0], *highs[2:]), leaders

    monkeypatch.setattr(constructions, "_walk", swapped)
    for build, args, method in (
        (qr_starter, (19,), "qr"),
        (pq_starter, (11, 19), "pq"),
        (horton_starter, (7, 3), "horton"),
    ):
        with pytest.raises(CoverageFailure, match=f"^{method} construction with .* failed self-verification: "):
            build(*args)
    monkeypatch.undo()
    # A non-doubling horton beta need only give a strong starter.
    cls = horton_starter(7, 3).classification
    assert cls.is_starter and cls.is_strong and not cls.is_skolem


@pytest.mark.parametrize(
    "corrupt,match",
    [
        # 4 = 2^2 pairs 7 with 16 and, two steps on, with 9.
        (
            lambda m, r, d, mult: (m, r, d, 4),
            r"^the walk of 2 mod 19 wrote slot 7 twice: pairs \(7, 16\) and \(7, 9\)$",
        ),
        (lambda m, r, d, mult: (m, r, d, 0), r"^the walk of 2 mod 19 made pair \(0, 1\): a member is 0 mod 19$"),
        # 5 has order 9 mod 19: each of its two orbits keeps 5 of its 9 steps.
        (lambda m, r, d, mult: (m, 5, d, mult), r"^the walk of 5 with delta = 2 mod 19 made 10 pairs, not 9$"),
    ],
    ids=["slot written twice", "member 0", "pair count"],
)
def test_a_walk_that_goes_wrong_is_refused_before_any_starter_is_made(monkeypatch, corrupt, match):
    # The walk itself refuses a slot written twice, a pair with a member 0
    # mod m and a pair count other than k: CoverageFailure, never
    # MalformedStarter or a raw error, and nothing reaches the verifiers.
    walk = constructions._walk
    monkeypatch.setattr(constructions, "_walk", lambda *args: walk(*corrupt(*args)))
    monkeypatch.setattr(constructions, "classify", None)
    with pytest.raises(CoverageFailure, match=match):
        qr_starter(19)


def test_the_walk_writes_the_columns_of_the_pair_list_walk(monkeypatch):
    # Every walk a golden recipe makes, Z_173377 and Z_78961 = 281^2 among
    # them: the columns are from_pairs' canonical pairs of the pair-list
    # oracle, and the leaders are the oracle's.
    walk, walks = constructions._walk, []

    def recorded(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(constructions, "_walk", recorded)
    for recipe, args in [*DIGESTS, ("prime_power_cyclotomic_starter", (281, 3, 2))]:
        getattr(constructions, recipe)(*args)
    assert {args[0] for args in walks} >= {173377, 78961}
    assert len(walks) == len(DIGESTS) + 1
    for args in walks:
        pairs, leaders = walk_pairs(*args)
        s = Starter.from_pairs(args[0], pairs)
        assert walk(*args) == (s.lows, s.highs, leaders), args


def test_coset_certificate_bound(monkeypatch):
    # Each prime is bounded, not pq: scans certify pairs with pq near 4 * 10^8.
    # Refused before any primality test, factorization or discrete log.
    for name in ("_odd_prime", "is_primitive_root", "discrete_log", "in_half_class"):
        monkeypatch.setattr(constructions, name, None)
    big = _CONSTRUCTION_BOUND + 1
    for check in (check_minus_one_coset, check_two_in_coset):
        for p, q in ((281, 8000000000393), (8000000000009, 8000000000393), (big, big + 2)):
            with pytest.raises(BoundExceeded, match="exceeds the construction bound"):
                check(p, q, 3, 3)


def test_a_second_certificate_on_the_same_primes_tests_no_primality(monkeypatch):
    # Each prime is proven once, in modnt's memo; the shape checks are
    # plain arithmetic on the proven primes.
    assert check_minus_one_coset(281, 617, 3, 3) and check_two_in_coset(281, 617, 3, 3)

    def refuse(m):
        raise AssertionError(f"is_prime({m}) called")

    monkeypatch.setattr(modnt, "is_prime", refuse)
    assert check_minus_one_coset(281, 617, 3, 3) is True
    assert check_two_in_coset(281, 617, 3, 3) is True


def _record_primality_tests(monkeypatch) -> list[int]:
    """Start from an empty modnt memo of proven primes, whatever ran
    before, and record each number the library tests for primality,
    through every module that binds is_prime."""
    memo = functools.cache(modnt._odd_prime_exponents.__wrapped__)
    monkeypatch.setattr(modnt, "_odd_prime_exponents", memo)
    is_prime, calls = modnt.is_prime, []
    for name, module in list(sys.modules.items()):
        if name.startswith("skolem_starters") and getattr(module, "is_prime", None) is is_prime:
            monkeypatch.setattr(module, "is_prime", lambda m: calls.append(m) or is_prime(m))
    return calls


def test_a_refused_prime_is_refused_again(monkeypatch):
    # A refusal raises and is never memoized: a number that is not prime is
    # tested afresh on every call, and a prime once.
    calls = _record_primality_tests(monkeypatch)
    for _ in range(2):
        with pytest.raises(HypothesisViolation, match=r"^2\^3 does not divide p - 1 = 282$"):
            check_two_in_coset(283, 617, 3, 3)
        with pytest.raises(HypothesisViolation, match="^p = 287 is not prime$"):
            check_minus_one_coset(287, 617, 3, 3)
        with pytest.raises(HypothesisViolation, match=r"^\(p-1\)/2\^4 must exceed 1$"):
            cyclotomic_starter(17, 4)
    # 283 fails the 2-adic check and 17 = 2^4 + 1 the cyclotomic shape's
    # t > 1, but both are proven prime first and are not tested again.
    assert calls == [283, 287, 17, 287]


def test_a_prime_proven_as_q_is_not_tested_again_as_p(monkeypatch):
    # The memo keys on the prime alone, not on the name a message gives it.
    calls = _record_primality_tests(monkeypatch)
    assert check_two_in_coset(281, 617, 3, 3) is True
    assert calls == [281, 617]
    assert check_two_in_coset(617, 281, 3, 3) is True
    assert calls == [281, 617]


def test_the_qr_recipes_share_the_proven_primes(monkeypatch):
    # 19 proven by qr_starter is not tested again as the q of pq_starter.
    calls = _record_primality_tests(monkeypatch)
    qr_starter(19)
    assert calls == [19]
    pq_starter(11, 19)
    assert calls == [19, 11]


def test_n_below_one_is_refused_before_any_primality_test(monkeypatch):
    # n < 1 is refused with the bound, before p is tested: nothing enters
    # the memo, which keeps only primes up to the bound.
    calls = _record_primality_tests(monkeypatch)
    for _ in range(2):
        with pytest.raises(HypothesisViolation, match="^n must be >= 1, got 0$"):
            prime_power_starter(1000003, 0)
    assert calls == []
    assert modnt._odd_prime_exponents.cache_info().currsize == 0


def test_a_prime_above_the_bound_is_refused_whatever_q_is(monkeypatch):
    # p is bounded on its own: a q <= 0 leaves pq under the bound, and p,
    # prime and 3 (mod 8), must still not be tested or kept.
    calls = _record_primality_tests(monkeypatch)
    for q in (-1, 0):
        with pytest.raises(BoundExceeded, match="^prime 1000003 exceeds the construction bound 1000000$"):
            pq_starter(1000003, q)
        with pytest.raises(BoundExceeded, match="^prime 1000033 exceeds the construction bound 1000000$"):
            pq_cyclotomic_starter(1000033, q, 3)
    assert calls == []
    assert modnt._odd_prime_exponents.cache_info().currsize == 0


@pytest.mark.parametrize(
    "call,args,tested",
    [(qr_starter, (19,), [19]), (pq_cyclotomic_starter, (281, 617, 3), [281, 617])],
    ids=["qr_starter(19)", "pq_cyclotomic_starter(281, 617, 3)"],
)
def test_each_prime_is_proven_once_by_the_library(monkeypatch, call, args, tested):
    # The hypothesis check and the primitive-root search share one proof.
    calls = _record_primality_tests(monkeypatch)
    call(*args)
    assert calls == tested


# Every refusal of the hypothesis layer with its full text: each _require
# site at least once, both refusals of _require_bounded and normalize_beta.
_REFUSALS = (
    (qr_starter, (True,), HypothesisViolation, "p must be an int, got True"),
    (pq_starter, (11, 19.0), HypothesisViolation, "q must be an int, got 19.0"),
    (prime_power_starter, (11, 2.0), HypothesisViolation, "n must be an int, got 2.0"),
    (cyclotomic_starter, (281, True), HypothesisViolation, "k must be an int, got True"),
    (check_two_in_coset, (281, 617, 3, 3.0), HypothesisViolation, "r must be an int, got 3.0"),
    (qr_starter, (1000003,), BoundExceeded, "modulus 1000003 exceeds the construction bound 1000000"),
    (
        prime_power_starter,
        (11, 10**8),
        BoundExceeded,
        "modulus 11^100000000 exceeds the construction bound 1000000",
    ),
    (
        check_minus_one_coset,
        (281, 1000003, 3, 3),
        BoundExceeded,
        "prime 1000003 exceeds the construction bound 1000000",
    ),
    (constructions.normalize_beta, (2.0,), ValueError, "unrecognized beta 2.0"),
    (qr_starter, (19, 3), HypothesisViolation, "beta must be 2 or '2inv'"),
    (qr_starter, (35,), HypothesisViolation, "p = 35 is not prime"),
    (pq_starter, (11, 35), HypothesisViolation, "q = 35 is not prime"),
    (qr_starter, (7,), HypothesisViolation, "p = 7 must be 3 (mod 8)"),
    (horton_starter, (13, 2), HypothesisViolation, "p = 13 must be 3 (mod 4)"),
    (pq_starter, (11, 23), HypothesisViolation, "q = 23 must be 3 (mod 8)"),
    (qr_starter, (3,), HypothesisViolation, "p = 3 is excluded"),
    (pq_starter, (11, 3), HypothesisViolation, "q = 3 is excluded"),
    (cyclotomic_starter, (281, 2), HypothesisViolation, "k must be >= 3, got 2"),
    (cyclotomic_starter, (289, 3), HypothesisViolation, "p = 289 is not prime"),
    (pq_cyclotomic_starter, (281, 289, 3), HypothesisViolation, "q = 289 is not prime"),
    (check_two_in_coset, (283, 617, 3, 3), HypothesisViolation, "2^3 does not divide p - 1 = 282"),
    (check_two_in_coset, (281, 283, 3, 3), HypothesisViolation, "2^3 does not divide q - 1 = 282"),
    (cyclotomic_starter, (17, 3), HypothesisViolation, "(p-1)/2^3 = 2 must be odd"),
    (check_minus_one_coset, (281, 17, 3, 3), HypothesisViolation, "(q-1)/2^3 = 2 must be odd"),
    (cyclotomic_starter, (17, 4), HypothesisViolation, "(p-1)/2^4 must exceed 1"),
    (cyclotomic_starter, (41, 3), HypothesisViolation, "2 is not in the class r^4 <r^8> mod 41"),
    (pq_starter, (19, 11), HypothesisViolation, "need p < q, got (19, 11)"),
    (pq_starter, (11, 131), HypothesisViolation, "(p-1) = 10 divides (q-1) = 130"),
    (horton_starter, (11, 0), HypothesisViolation, "beta must be a unit"),
    (horton_starter, (11, 4), HypothesisViolation, "beta = 4 is a quadratic residue mod 11"),
    (horton_starter, (11, 10), HypothesisViolation, "beta = -1 is excluded"),
    (prime_power_starter, (11, 0), HypothesisViolation, "n must be >= 1, got 0"),
    (prime_power_cyclotomic_starter, (281, 3, 0), HypothesisViolation, "n must be >= 1, got 0"),
    # n < 1 is refused with the bound, before p, too large to test, is tested.
    (prime_power_starter, (2**64 + 3, 0), HypothesisViolation, "n must be >= 1, got 0"),
    (prime_power_cyclotomic_starter, (2**64 + 3, 3, 0), HypothesisViolation, "n must be >= 1, got 0"),
    # Each prime is bounded on its own, whatever pq is.
    (pq_starter, (1000003, -1), BoundExceeded, "prime 1000003 exceeds the construction bound 1000000"),
    (
        pq_cyclotomic_starter,
        (2**64 + 3, -1, 3),
        BoundExceeded,
        "prime 18446744073709551619 exceeds the construction bound 1000000",
    ),
    (pq_starter, (11, -1), HypothesisViolation, "q = -1 is not prime"),
    # 2 is prime, and the congruence or the 2-adic check refuses it.
    (qr_starter, (2,), HypothesisViolation, "p = 2 must be 3 (mod 8)"),
    (cyclotomic_starter, (2, 3), HypothesisViolation, "2^3 does not divide p - 1 = 1"),
    (check_two_in_coset, (2, 617, 3, 3), HypothesisViolation, "2^3 does not divide p - 1 = 1"),
    (check_minus_one_coset, (617, 281, 3, 3), HypothesisViolation, "need t1 < t2"),
    (
        check_minus_one_coset,
        (281, 617, 3, 2),
        HypothesisViolation,
        "r = 2 is not a quadratic non-residue mod 281",
    ),
    (check_two_in_coset, (281, 281, 3, 3), HypothesisViolation, "p and q must be distinct, got 281 twice"),
    (
        check_two_in_coset,
        (281, 617, 3, 2),
        HypothesisViolation,
        "r = 2 must be a common primitive root of 281 and 617",
    ),
    (check_two_in_coset, (281, 89, 3, 3), HypothesisViolation, "2 is not in the class r^4 <r^8> mod 89"),
)


@pytest.mark.parametrize(
    "call,args,error,text", _REFUSALS, ids=[f"{call.__name__}{args}" for call, args, *_ in _REFUSALS]
)
def test_every_refusal_has_its_exact_text(call, args, error, text):
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        call(*args)


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
    # pq_cyclotomic_starter checks 2 only: -1 always lies in the coset.
    # pq_starter checks neither: with p, q = 3 (mod 8) and gcd(p-1, q-1) = 2,
    # both are non-residues mod p and mod q, so their exponents are odd,
    # agree mod the gcd and are 1 mod delta = 2.
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
    # Every pair below 400 that pq_starter's hypotheses admit with gcd 2,
    # by the discrete-log oracle at the common primitive root it uses.
    primes = [p for p in range(3, 400, 8) if trial_division_prime(p)]
    pairs = 0
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            if math.gcd(p - 1, q - 1) != 2 or (q - 1) % (p - 1) == 0:
                continue
            r = find_common_primitive_root(p, q)
            for x in (2, p * q - 1):
                assert naive_dlog(x, r, p) % 2 == naive_dlog(x, r, q) % 2 == 1, (p, q, x)
            pairs += 1
    assert pairs == 117


def test_pq_starter_takes_no_discrete_log(monkeypatch):
    # 2 lies in the coset by the theorem above, so pq_starter builds the
    # same document with the discrete log gone; pq_cyclotomic_starter,
    # where 2 can miss the coset, still takes one.
    def refuse(*args):
        raise AssertionError("discrete log taken")

    monkeypatch.setattr(constructions, "discrete_log", refuse)
    text = starter_to_json(pq_starter(11, 19))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[("pq_starter", (11, 19, 2))]
    with pytest.raises(AssertionError, match="discrete log taken"):
        pq_cyclotomic_starter(281, 617, 3)


def test_qr_starter_is_the_doubling_walk_only_when_every_orbit_leader_is_a_residue():
    # The walk of x -> 2x keeps the leader of each orbit and qr_starter keeps
    # the quadratic residues, so the two agree exactly when every leader is
    # a residue.  That holds whenever 2 is a primitive root, but not only
    # then: ord(2) is 50 mod 251 and 362 mod 1811.  qr_starter cannot be
    # replaced by the walk without moving its digests.
    primes = [p for p in range(11, 3000, 8) if trial_division_prime(p)]
    agree = []
    for p in primes:
        lows, highs, leaders = constructions._walk(p, 2, 2, 2)
        same = qr_starter(p) == Starter(p, lows, highs)
        residues = squares_set(p)
        assert same == all(c in residues for c in leaders), p
        if same:
            agree.append(p)
    assert (len(primes), len(agree)) == (108, 80)
    assert {43, 283, 307, 331}.isdisjoint(agree)
    assert [p for p in agree if naive_order(2, p) != p - 1] == [251, 1811]


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
