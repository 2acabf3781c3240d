import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skolem_starters.constructions import (
    check_two_in_coset,
    HypothesisViolation,
    pq_cyclotomic_starter,
    prime_power_cyclotomic_starter,
)
from skolem_starters.modnt import (
    _odd_prime,
    _order_of_2,
    crt_inverse,
    discrete_log,
    factorize,
    find_primitive_root,
    GroupContext,
    in_half_class,
    InvalidModulus,
    is_prime,
    is_primitive_root,
    lift_primitive_root,
    NotAUnit,
    NotInSubgroup,
)
from oracles import (
    euler_phi,
    full_miller_rabin,
    multiplicative_order,
    naive_coset,
    naive_dlog,
    naive_order,
    squares_set,
    trial_division_prime,
    trial_factorize,
    walk_pairs,
)


# ---- is_prime --------------------------------------------------------------


def test_is_prime_examples():
    assert is_prime(19)
    assert not is_prime(121)
    assert is_prime(281)
    assert not is_prime(1)


def test_is_prime_agrees_with_trial_division_below_3000():
    for n in range(3000):
        assert is_prime(n) == trial_division_prime(n), n


def test_is_prime_on_strong_pseudoprimes():
    # Composites that fool small Miller-Rabin witness sets: the least
    # strong pseudoprime to the bases of each tier of is_prime, which is
    # the bound where the next tier starts.
    assert not is_prime(2047)  # pseudoprime to base 2
    assert not is_prime(1373653)  # pseudoprime to bases 2, 3
    assert not is_prime(25326001)  # pseudoprime to bases 2, 3, 5
    assert not is_prime(3215031751)  # pseudoprime to bases 2, 3, 5, 7
    assert not is_prime(2152302898747)  # pseudoprime to all bases <= 11
    assert not is_prime(3474749660383)  # pseudoprime to all bases <= 13
    assert not is_prime(341550071728321)  # pseudoprime to all bases <= 17
    assert not is_prime(3825123056546413051)  # pseudoprime to all bases <= 23
    assert is_prime((1 << 61) - 1)
    with pytest.raises(ValueError):
        is_prime(1 << 64)


# Where is_prime moves to one more Miller-Rabin base, below 2^64.
_MR_TIER_BOUNDS = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
)


def _prime_from(n, step):
    """The first prime met walking from n by step, +1 or -1."""
    while not full_miller_rabin(n):
        n += step
    return n


def _semiprime_near(bound, p, above):
    """p' * q for the prime p' <= p and the nearest prime q with
    p' * q above bound, or at most bound."""
    p = _prime_from(p, -1)
    return p * (_prime_from(bound // p + 1, 1) if above else _prime_from(bound // p, -1))


_ODD_OF_EVERY_SIZE = st.integers(2, 64).flatmap(lambda b: st.integers(1 << (b - 1), (1 << b) - 1)).map(lambda m: m | 1)
_ODD_NEAR_A_BOUND = st.sampled_from(_MR_TIER_BOUNDS).flatmap(lambda b: st.integers(b - 2000, b + 2000)).map(
    lambda m: m | 1
)
_SEMIPRIMES_NEAR_A_BOUND = st.sampled_from(_MR_TIER_BOUNDS).flatmap(
    lambda b: st.builds(_semiprime_near, st.just(b), st.integers(3, math.isqrt(b)), st.booleans())
)


@settings(max_examples=600, deadline=None)
@given(m=st.one_of(_ODD_OF_EVERY_SIZE, _ODD_NEAR_A_BOUND, _SEMIPRIMES_NEAR_A_BOUND))
def test_tiered_is_prime_matches_all_twelve_bases(m):
    # Odd m of 2 to 64 bits, odd m beside each tier bound, and products of
    # two primes on either side of each bound.
    assert is_prime(m) == full_miller_rabin(m), m


# ---- the retired order routine, oracles.multiplicative_order -----------------


def test_order_examples():
    assert multiplicative_order(1, 19) == 1
    assert multiplicative_order(2, 19) == 18
    assert multiplicative_order(2, 281) == 70
    assert multiplicative_order(2, 281) % 4 == 2


def test_order_rejects_non_units():
    with pytest.raises(NotAUnit):
        multiplicative_order(38, 19)
    with pytest.raises(NotAUnit):
        multiplicative_order(6, 9)


def test_refusals_of_factorize_order_and_discrete_log_have_their_exact_text():
    with pytest.raises(ValueError, match="^cannot factor 0$"):
        factorize(0)
    with pytest.raises(InvalidModulus, match="^modulus must be >= 2, got 1$"):
        multiplicative_order(2, 1)
    with pytest.raises(InvalidModulus, match="^modulus must be >= 2, got 1$"):
        discrete_log(2, 3, 1, 1)
    with pytest.raises(NotAUnit, match="^3 is not a unit mod 9$"):
        discrete_log(2, 3, 9, 6)


@settings(max_examples=200, deadline=None)
@given(m=st.integers(min_value=3, max_value=4000), x=st.integers(min_value=2, max_value=10**6))
def test_order_matches_successive_powers(m, x):
    x %= m
    if x == 0 or math.gcd(x, m) != 1:
        x = 1
    assert multiplicative_order(x, m) == naive_order(x, m)


def test_euler_phi_small():
    assert euler_phi(1) == 1
    assert euler_phi(121) == 110
    assert euler_phi(209) == 180
    assert factorize(173377) == {281: 1, 617: 1}


@settings(max_examples=200, deadline=None)
@given(m=st.integers(min_value=1, max_value=10**7))
def test_factorize_matches_trial_division(m):
    assert factorize(m) == trial_factorize(m)


# ---- the memo: _odd_prime and _order_of_2 ------------------------------------


def test_odd_prime_is_the_memo_proof():
    assert [m for m in range(-3, 400) if _odd_prime(m)] == [m for m in range(3, 400) if trial_division_prime(m)]
    # Not a plain int: refused, not proven, as _root_exponents refuses it.
    assert not any(_odd_prime(bad) for bad in (True, 281.0, "281", None))


def test_order_of_2_matches_the_retired_order_routine():
    for p in range(3, 5000, 2):
        if trial_division_prime(p):
            assert _order_of_2(p) == multiplicative_order(2, p) == naive_order(2, p), p
    assert _order_of_2(281) == 70
    for bad in (1, 2, 9, 281.0):
        with pytest.raises(InvalidModulus):
            _order_of_2(bad)


# ---- primitive roots -------------------------------------------------------


@pytest.mark.parametrize("p,root", [(11, 2), (19, 2), (41, 6), (281, 3), (617, 3)])
def test_find_primitive_root(p, root):
    r = find_primitive_root(p)
    assert r == root
    assert naive_order(r, p) == p - 1
    # smallest: everything below has a proper-divisor order
    for c in range(2, r):
        assert naive_order(c, p) < p - 1


def test_find_primitive_root_is_the_smallest_generator_below_2000():
    # Every odd prime, its memoized exponents of p - 1 checked against the
    # oracle; the second call of each reads them from the cache.
    for p in range(3, 2000, 2):
        if trial_division_prime(p):
            r = find_primitive_root(p)
            assert naive_order(r, p) == p - 1, p
            assert all(naive_order(c, p) < p - 1 for c in range(2, r)), p
            assert find_primitive_root(p) == r


def test_is_primitive_root_matches_the_naive_order_below_200():
    for p in range(3, 200, 2):
        if trial_division_prime(p):
            for r in range(-p, 2 * p):
                expected = r % p != 0 and naive_order(r, p) == p - 1
                assert is_primitive_root(r, p) is expected, (r, p)


def test_find_primitive_root_rejects_non_prime():
    # 281 is cached first: an equal float or bool must still be refused, not
    # answered from the int's entry, and a refusal is refused again.
    assert find_primitive_root(281) == 3 and is_primitive_root(3, 281)
    for p in (121, 2, 1, 0, -7, 281.0, 11.0, True, "281", None, [281]):
        for _ in range(2):
            with pytest.raises(InvalidModulus):
                find_primitive_root(p)
            with pytest.raises(InvalidModulus):
                is_primitive_root(3, p)


def test_lift_primitive_root_examples():
    assert lift_primitive_root(11, 2) == 2  # 2^10 = 56 != 1 mod 121
    assert lift_primitive_root(11, 1) == 2
    assert lift_primitive_root(19, 1) == 2
    # frozen from an independent big-int evaluation: 6^40 mod 1681 = 124
    assert pow(6, 40, 41 * 41) == 124
    assert lift_primitive_root(41, 3) == 6


def test_lift_primitive_root_adds_p_when_the_root_does_not_lift():
    # 40487 is the least prime whose smallest root, 5, has 5^(p-1) = 1
    # (mod p^2); 5 + p generates the units mod p^2 and p^3, 5 does not.
    # Checked here with pow alone: g generates the units mod m exactly
    # when g^(phi/f) != 1 for each prime f of phi = p^(n-1) (p - 1).
    p = 40487
    assert p - 1 == 2 * 31 * 653 and all(map(trial_division_prime, (p, 31, 653)))
    assert all(pow(5, (p - 1) // f, p) != 1 for f in (2, 31, 653))
    assert pow(5, p - 1, p * p) == 1
    for n in (2, 3):
        m, phi = p**n, p ** (n - 1) * (p - 1)
        assert all(pow(p + 5, phi // f, m) != 1 for f in (2, 31, 653, p)), n
        assert not all(pow(5, phi // f, m) != 1 for f in (2, 31, 653, p)), n
    assert lift_primitive_root(p, 1) == 5
    assert lift_primitive_root(p, 2) == lift_primitive_root(p, 3) == p + 5 == 40492


def test_lift_primitive_root_refuses_an_exponent_below_1():
    with pytest.raises(ValueError, match="exponent must be >= 1, got 0"):
        lift_primitive_root(11, 0)
    # The prime is checked first.
    with pytest.raises(InvalidModulus):
        lift_primitive_root(121, 0)


@pytest.mark.parametrize("p", [p for p in range(3, 101) if trial_division_prime(p)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_lift_primitive_root_order_is_group_order(p, n):
    g = lift_primitive_root(p, n)
    m = p**n
    assert naive_order(g % m, m) == p ** (n - 1) * (p - 1)


# ---- quadratic residues: in_half_class with delta = 2 (Euler's criterion) ---


def test_in_half_class_with_delta_2_marks_the_non_residues():
    assert not in_half_class(1, 19, 18, 2)
    assert in_half_class(2, 19, 18, 2)
    assert in_half_class(10, 19, 18, 2)
    assert squares_set(19) == {1, 4, 5, 6, 7, 9, 11, 16, 17}
    assert not any(in_half_class(x, 19, 18, 2) for x in squares_set(19))
    assert all(in_half_class(x, 19, 18, 2) for x in set(range(1, 19)) - squares_set(19))


def test_qr_counts_for_all_primes_to_10000():
    for p in range(3, 10001, 2):
        if not trial_division_prime(p):
            continue
        qr = squares_set(p)
        assert len(qr) == (p - 1) // 2
        assert not any(in_half_class(x, p, p - 1, 2) for x in list(qr)[:3])


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from([7, 11, 19, 43, 281, 617, 1009]),
    x=st.integers(min_value=1, max_value=10**6),
    y=st.integers(min_value=1, max_value=10**6),
)
def test_qr_multiplicativity(p, x, y):
    x, y = x % p or 1, y % p or 1
    same_class = in_half_class(x, p, p - 1, 2) == in_half_class(y, p, p - 1, 2)
    assert (not in_half_class(x * y % p, p, p - 1, 2)) == same_class


# ---- discrete_log ----------------------------------------------------------


def test_discrete_log_examples():
    assert discrete_log(1, 2, 19, 18) == 0
    assert discrete_log(2, 2, 19, 18) == 1
    assert discrete_log(4, 2, 19, 18) == 2


def test_discrete_log_outside_subgroup():
    # <4> mod 11 is the residue set {1, 3, 4, 5, 9}; 2 is not in it
    with pytest.raises(NotInSubgroup):
        discrete_log(2, 4, 11, 5)
    with pytest.raises(NotInSubgroup):
        discrete_log(11, 2, 121, 110)


@pytest.mark.parametrize("m,r", [(19, 2), (101, 2), (1009, 11), (121, 2), (1331, 2)])
def test_discrete_log_full_sweep_vs_naive(m, r):
    order = naive_order(r, m)
    v = 1
    for e in range(order):
        assert discrete_log(v, r, m, order) == e
        assert naive_dlog(v, r, m) == e
        v = v * r % m


# ---- cyclotomic classes ----------------------------------------------------


def test_cyclotomic_recipes_refuse_a_bad_shape():
    # 281 = 2^3 * 35 + 1: the shape and root the cyclotomic recipes build on.
    p, delta = 281, 8
    assert (((p - 1) & (1 - p)), (p - 1) // delta, find_primitive_root(p)) == (8, 35, 3)
    assert not is_primitive_root(2, p)  # ord(2) = 70
    # The shapes refused by cyclotomic_starter are refused by the Z_{p^n}
    # and Z_{pq} recipes too.
    for bad, k in [(17, 4), (97, 3), (91, 3)]:  # t = 1, t = 12 even, not prime
        with pytest.raises(HypothesisViolation):
            prime_power_cyclotomic_starter(bad, k, 2)
        with pytest.raises(HypothesisViolation):
            pq_cyclotomic_starter(bad, 617, k)


def test_cyclotomic_recipes_refuse_a_huge_k():
    # Refused from the 2-adic valuation of p - 1, before 2^k is built.
    with pytest.raises(HypothesisViolation):
        prime_power_cyclotomic_starter(281, 10**20, 2)
    with pytest.raises(HypothesisViolation):
        pq_cyclotomic_starter(281, 617, 10**20)
    with pytest.raises(HypothesisViolation):
        check_two_in_coset(281, 617, 10**20, 3)


@pytest.mark.parametrize("p,k", [(281, 3), (41, 3), (11, 1), (617, 3)])
def test_cyclotomic_classes_partition(p, k):
    root, delta = find_primitive_root(p), 1 << k
    seen: set[int] = set()
    for j in range(delta):
        cls = naive_coset(pow(root, delta, p), pow(root, j, p), p)
        assert len(cls) == (p - 1) // delta
        assert not (cls & seen)
        assert all(naive_dlog(x, root, p) % delta == j for x in list(cls)[:4])
        assert all(in_half_class(x, p, p - 1, delta) == (j == delta >> 1) for x in cls)
        seen |= cls
    assert seen == set(range(1, p))


def test_in_half_class_examples():
    # 281 = 2^3 * 35 + 1 with root 3: 2 = 3^e with e = 4 (mod 8)
    assert in_half_class(2, 281, 280, 8)
    assert in_half_class(280, 281, 280, 8)
    assert not in_half_class(1, 281, 280, 8)
    assert not in_half_class(3, 281, 280, 8)
    # 2 is a non-residue mod 11^2; mod 41 = 2^3 * 5 + 1 its class index is 2 (mod 8)
    assert in_half_class(2, 121, 110, 2)
    assert not in_half_class(2, 41, 40, 8)


# Largest prime per exponent, keeping the prime powers below about 10^5.
_HALF_CLASS_PRIMES = {1: 3000, 2: 300, 3: 47}


@pytest.mark.parametrize("n", sorted(_HALF_CLASS_PRIMES))
def test_in_half_class_matches_discrete_log_index(n):
    # Against the class index e mod 2^k of the discrete log e to a generator
    # of the units mod p^n, for every k up to the 2-adic valuation of p - 1.
    for p in range(3, _HALF_CLASS_PRIMES[n] + 1, 2):
        if not trial_division_prime(p):
            continue
        m = p**n
        order = m // p * (p - 1)
        root = lift_primitive_root(p, n)
        valuation = ((p - 1) & (1 - p)).bit_length() - 1
        for x in (2, m - 1, 3, 5, root, m - 2):
            if x % p == 0:
                continue
            e = discrete_log(x, root, m, order)
            for k in range(1, valuation + 1):
                delta = 1 << k
                assert in_half_class(x, m, order, delta) == (e % delta == delta >> 1), (x, m, k)


# ---- cyclic cosets: the orbits of the pair-list walk ------------------------


def test_walk_examples():
    # The pair-list oracle of constructions._walk.  Mod 11, <4> = {1, 3, 4, 5, 9}
    # = QR(11) and 2<4> are the two orbits of x -> 4x, walked 1, 4, 5, 9, 3 and
    # 2, 8, 10, 7, 6; even steps are kept.
    assert walk_pairs(11, 4, 2, 2) == ([(1, 2), (5, 10), (3, 6), (2, 4), (10, 9), (6, 1)], [1, 2])
    # A primitive root has one orbit per stratum p^i * (units mod p^(n-i)).
    pairs, leaders = walk_pairs(11, 2, 2, 2)
    assert (leaders, {x for x, _ in pairs}) == ([1], squares_set(11))
    pairs, leaders = walk_pairs(121, 2, 2, 61)
    assert leaders == [1, 11]
    assert {x for x, _ in pairs} == (squares_set(121) - {0}) | {11 * y for y in squares_set(11)}
    assert all(y == 61 * x % 121 for x, y in pairs)


@settings(max_examples=100, deadline=None)
@given(
    m=st.sampled_from([11, 19, 121, 209, 1331]),
    g=st.integers(min_value=1, max_value=10**4),
    mult=st.integers(min_value=1, max_value=10**4),
)
def test_walk_orbits_tile_the_residues_and_keep_every_other_step(m, g, mult):
    g %= m
    if g == 0 or math.gcd(g, m) != 1:
        g = 2 if math.gcd(2, m) == 1 else 3
    pairs, leaders = walk_pairs(m, g, 2, mult)
    # The leaders are the least members of the cosets c <g>, which tile 1 .. m-1.
    cosets = [naive_coset(g, c, m) for c in leaders]
    assert all(c == min(coset) for c, coset in zip(leaders, cosets))
    assert sum(map(len, cosets)) == m - 1
    assert set().union(*cosets) == set(range(1, m))
    # Every other step of each orbit is paired with its multiple by mult.
    kept = [x for x, _ in pairs]
    assert all(y == x * mult % m for x, y in pairs)
    assert len(set(kept)) == len(kept) == sum((len(coset) + 1) // 2 for coset in cosets)
    for c, coset in zip(leaders, cosets):
        if len(coset) % 2 == 0:
            assert coset.intersection(kept) == naive_coset(g * g, c, m)


# ---- CRT -------------------------------------------------------------------


def test_crt_examples():
    assert crt_inverse(1, 1, 11, 19) == 1
    assert crt_inverse(9, 1, 11, 19) == 20
    assert crt_inverse(2, 2, 11, 19) == 2
    with pytest.raises(InvalidModulus):
        crt_inverse(5, 5, 11, 11)


def test_crt_round_trip_is_identity_on_units():
    for x in range(1, 209):
        if x % 11 == 0 or x % 19 == 0:
            continue
        a, b = x % 11, x % 19
        assert crt_inverse(a, b, 11, 19) == x


def test_crt_unit_bijection():
    images = {crt_inverse(a, b, 11, 19) for a in range(1, 11) for b in range(1, 19)}
    assert len(images) == 180
    assert images == {x for x in range(1, 209) if x % 11 and x % 19}


# ---- unit partitions -------------------------------------------------------
# The splittings the prime-power and two-prime recipes cover orbit by
# orbit, built from the lifted root and from Chinese remaindering.


def _strata(p: int, n: int) -> list[frozenset[int]]:
    """p^i * (units mod p^(n-i)) for i = 0 .. n-1, from one lifted root."""
    root = GroupContext.for_prime_power(p, n).primitive_root
    return [
        frozenset(p**i * u for u in naive_coset(root, 1, p ** (n - i))) for i in range(n)
    ]


def test_unit_partition_ppow_examples():
    (only,) = _strata(11, 1)
    assert only == set(range(1, 11))
    s0, s1 = _strata(11, 2)
    assert len(s0) == 110
    assert s1 == {11 * u for u in range(1, 11)}


@pytest.mark.parametrize("p,n", [(3, 4), (11, 2), (11, 3), (7, 3)])
def test_unit_partition_ppow_is_a_partition(p, n):
    strata = _strata(p, n)
    assert len(strata) == n
    union: set[int] = set()
    for i, stratum in enumerate(strata):
        assert len(stratum) == p ** (n - i) - p ** (n - i - 1)
        assert all(math.gcd(x, p**n) == p**i for x in stratum)
        assert not (stratum & union)
        union |= stratum
    assert union == set(range(1, p**n))


def test_unit_partition_pq_examples():
    for p, q in ((11, 19), (3, 5)):
        pz = {crt_inverse(0, b, p, q) for b in range(1, q)}
        qz = {crt_inverse(a, 0, p, q) for a in range(1, p)}
        units = {crt_inverse(a, b, p, q) for a in range(1, p) for b in range(1, q)}
        assert pz == {p * x for x in range(1, q)}
        assert qz == {q * x for x in range(1, p)}
        assert (len(pz), len(qz), len(units)) == (q - 1, p - 1, (p - 1) * (q - 1))
        assert pz | qz | units == set(range(1, p * q))
    with pytest.raises(InvalidModulus):
        crt_inverse(1, 1, 19, 19)


# ---- GroupContext ----------------------------------------------------------


def test_group_context_factories():
    ctx = GroupContext.for_prime_power(11, 2)
    assert (ctx.modulus, ctx.shape, ctx.primitive_root) == (121, "prime_power", 2)
    assert ctx.factor_data == (11, 2)
    assert naive_order(ctx.primitive_root, 121) == 110
    ctx = GroupContext.for_prime_power(19, 1)
    assert (ctx.modulus, ctx.primitive_root, ctx.factor_data) == (19, 2, (19, 1))
    with pytest.raises(InvalidModulus):
        GroupContext.for_prime_power(121, 2)


def test_module_is_pure():
    assert _order_of_2(281) == _order_of_2(281)
    assert find_primitive_root(281) == find_primitive_root(281)
