import copy
import json
import pickle
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skolem_starters import cli, search, starters
from skolem_starters.constructions import pq_cyclotomic_starter, qr_starter
from skolem_starters.modnt import is_prime
from skolem_starters.starters import (
    Classification,
    classify,
    MalformedStarter,
    negate_starter,
    Pair,
    Starter,
    starter_from_dict,
    starter_from_json,
    starter_to_dict,
    starter_to_json,
    verify_cardioidal,
    verify_skolem,
    verify_starter,
    verify_strong,
)
import oracles
from oracles import canonical_pairs

# The published 9-pair strong Skolem starter for Z_19 -- the golden fixture.
Z19_PAIRS = [
    (17, 18), (2, 4), (3, 6), (11, 15), (9, 14),
    (7, 13), (5, 12), (8, 16), (1, 10),
]

# The 5-pair doubling starter for Z_11 built from the quadratic residues.
Z11_PAIRS = [(1, 2), (3, 6), (4, 8), (5, 10), (7, 9)]


@pytest.fixture
def z19():
    return Starter.from_pairs(19, Z19_PAIRS)


@pytest.fixture
def z11():
    return Starter.from_pairs(11, Z11_PAIRS)


# ---- Pair / Starter canonicalization ----------------------------------------


def test_pair_canonicalizes():
    assert Starter.from_pairs(19, [(4, 2)]).pairs == (Pair(2, 4),)
    assert Starter.from_pairs(19, [(22, 40)]).pairs == (Pair(2, 3),)
    with pytest.raises(MalformedStarter):
        Starter.from_pairs(19, [(0, 4)])
    with pytest.raises(MalformedStarter):
        Starter.from_pairs(19, [(19, 4)])
    with pytest.raises(MalformedStarter):
        Starter.from_pairs(19, [(23, 4)])


def test_starter_sorts_and_dedupes():
    s = Starter.from_pairs(11, [(7, 9), (1, 2), (2, 1), (3, 6), (4, 8), (5, 10)])
    assert [(p.lo, p.hi) for p in s.pairs] == sorted(Z11_PAIRS)
    assert s.k == 5


def test_starter_rejects_bad_modulus():
    with pytest.raises(MalformedStarter):
        Starter.from_pairs(4, [(1, 2)])
    with pytest.raises(MalformedStarter):
        Starter.from_pairs(1, [])


def test_starter_rejects_pairs_that_are_not_iterable():
    for pairs in (None, 7, Pair):
        with pytest.raises(MalformedStarter, match="pairs must be iterable"):
            Starter.from_pairs(5, pairs)


def test_verifiers_reject_wrong_pair_count():
    short = Starter.from_pairs(19, Z19_PAIRS[:5])
    for verifier in (verify_starter, verify_strong, verify_skolem, verify_cardioidal):
        with pytest.raises(MalformedStarter):
            verifier(short)
    with pytest.raises(MalformedStarter):
        classify(short)


# ---- the golden fixture ------------------------------------------------------


def test_z19_fixture_is_strong_skolem_cardioidal(z19):
    cls = classify(z19)
    assert cls.all_four
    assert not cls.dependent
    assert cls.witnesses == {}
    # the Skolem differences are exactly 1..9, pair (17, 18) carrying 1
    assert sorted(p.hi - p.lo for p in z19.pairs) == list(range(1, 10))


def test_z19_sums_are_distinct_nonzero(z19):
    sums = sorted((p.lo + p.hi) % 19 for p in z19.pairs)
    assert sums == sorted({1, 4, 5, 6, 7, 9, 11, 16, 17})
    assert 0 not in sums


# ---- verify_starter ----------------------------------------------------------


def test_minimal_starter():
    ok, witness = verify_starter(Starter.from_pairs(3, [(1, 2)]))
    assert ok and witness is None


def test_duplicate_difference_class_is_caught():
    ok, witness = verify_starter(Starter.from_pairs(5, [(1, 2), (3, 4)]))
    assert not ok
    assert witness == "difference class {1, 4} covered more than once"


def test_duplicate_element_is_caught():
    s = Starter.from_pairs(7, [(1, 2), (1, 4), (5, 6)])
    ok, witness = verify_starter(s)
    assert not ok
    assert "element 1 occurs 2 times" in witness


def test_missing_element_is_caught():
    # 2 is reused, so 1 never occurs; the ascending scan reports 1 first
    s = Starter.from_pairs(9, [(2, 3), (4, 5), (6, 7), (2, 8)])
    ok, witness = verify_starter(s)
    assert not ok
    assert witness == "element 1 never occurs among pair members"


# ---- verify_strong -----------------------------------------------------------


def test_forced_zero_sum_at_modulus_3():
    s = Starter.from_pairs(3, [(1, 2)])
    ok, witness = verify_strong(s)
    assert not ok
    assert witness == "pair (1, 2) has sum 0 mod 3"


def test_z11_doubling_starter_is_strong(z11):
    ok, witness = verify_strong(z11)
    assert ok and witness is None
    assert sorted((p.lo + p.hi) % 11 for p in z11.pairs) == [1, 3, 4, 5, 9]


def test_shared_sum_is_caught():
    # pairs (1, 4) and (2, 3) both sum to 5 mod 9
    s = Starter.from_pairs(9, [(1, 4), (2, 3), (5, 7), (6, 8)])
    ok, witness = verify_strong(s)
    assert not ok
    assert "share sum 5" in witness


# ---- verify_skolem -----------------------------------------------------------


def test_skolem_examples(z19):
    assert verify_skolem(z19) == (True, None)
    assert verify_skolem(Starter.from_pairs(3, [(1, 2)])) == (True, None)
    ok, witness = verify_skolem(Starter.from_pairs(5, [(2, 3), (1, 4)]))
    assert not ok
    assert "difference" in witness


def test_skolem_rejects_repeated_difference():
    s = Starter.from_pairs(9, [(1, 2), (3, 4), (5, 7), (6, 8)])
    ok, witness = verify_skolem(s)
    assert not ok
    assert "occurs 2 times" in witness


# ---- verify_cardioidal ---------------------------------------------------------


def test_cardioidal_examples(z19):
    assert verify_cardioidal(z19) == (True, None)
    assert verify_cardioidal(Starter.from_pairs(3, [(1, 2)])) == (True, None)
    ok, witness = verify_cardioidal(Starter.from_pairs(5, [(2, 3), (1, 4)]))
    assert not ok
    assert witness in (
        "pair (1, 4) is not a doubling pair mod 5",
        "pair (2, 3) is not a doubling pair mod 5",
    )


def test_cardioidal_wraparound(z19):
    # (17, 18): 2 * 18 = 36 = 17 (mod 19)
    assert verify_cardioidal(Starter.from_pairs(19, [(17, 18)] + [(i, 2 * i) for i in (1, 2, 3, 4, 5, 6, 7, 8)]))[0]


# ---- classify ------------------------------------------------------------------


def test_classify_modulus_3_exercises_strong_boundary():
    cls = classify(Starter.from_pairs(3, [(1, 2)]))
    assert (cls.is_starter, cls.is_strong, cls.is_skolem, cls.is_cardioidal) == (
        True,
        False,
        True,
        True,
    )
    assert not cls.dependent
    assert set(cls.witnesses) == {"strong"}


def test_classify_z11_all_four(z11):
    assert classify(z11).all_four


def test_classify_flags_dependent_verdicts():
    cls = classify(Starter.from_pairs(5, [(1, 2), (3, 4)]))
    assert not cls.is_starter
    assert cls.dependent


def test_classification_verdicts_are_read_from_its_witnesses():
    # Every subset of the four names as the failing verifiers: each verdict
    # holds exactly when its name has no witness.
    names = ("starter", "strong", "skolem", "cardioidal")
    assert Classification.__slots__ == ("witnesses",)
    for mask in range(16):
        failing = [name for i, name in enumerate(names) if mask >> i & 1]
        witnesses = {name: f"{name} witness" for name in failing}
        cls = Classification(witnesses)
        doc = cls.to_dict()
        assert list(doc) == [*names, "dependent", "witnesses"]
        assert [doc[name] for name in names] == [name not in failing for name in names]
        assert [cls.is_starter, cls.is_strong, cls.is_skolem, cls.is_cardioidal] == [
            name not in failing for name in names
        ]
        assert doc["dependent"] is cls.dependent is ("starter" in failing)
        assert doc["witnesses"] == witnesses and list(doc["witnesses"]) == failing
        assert doc["witnesses"] is not witnesses
        assert cls.all_four is (mask == 0)


def test_classify_is_pure(z19):
    assert classify(z19) == classify(z19)


# ---- negate_starter -------------------------------------------------------------


def test_negate_examples(z11):
    assert negate_starter(Starter.from_pairs(3, [(1, 2)])) == Starter.from_pairs(3, [(1, 2)])
    negated = negate_starter(z11)
    assert {(p.lo, p.hi) for p in negated.pairs} == {
        (9, 10), (5, 8), (3, 7), (1, 6), (2, 4),
    }


def test_negate_is_involution(z19, z11):
    for s in (z19, z11):
        assert negate_starter(negate_starter(s)) == s


def test_negate_preserves_verdicts(z19, z11):
    for s in (z19, z11, Starter.from_pairs(3, [(1, 2)])):
        before = classify(s)
        after = classify(negate_starter(s))
        assert before.is_starter == after.is_starter
        assert before.is_strong == after.is_strong
        assert before.is_cardioidal == after.is_cardioidal


def _negated_by_from_pairs(s):
    """The negation as negate_starter made it before it sorted the
    columns itself: (n - hi, n - lo) for each pair, through from_pairs."""
    n = s.modulus
    return Starter.from_pairs(n, [(n - hi, n - lo) for lo, hi in zip(s.lows, s.highs)])


@st.composite
def _few_or_many_pairs(draw):
    """An odd n and pairs of Z_n for from_pairs: up to 12 pairs, or 64
    and more (the counting path where n <= 4 * len), their highs drawn
    from a few values half the time, so that many pairs share a high."""
    n = draw(st.integers(1, 150), label="k") * 2 + 1
    if draw(st.booleans(), label="shared highs"):
        highs = draw(st.lists(st.integers(2, n - 1), min_size=1, max_size=4))
    else:
        highs = range(2, n)
    count = draw(st.integers(0, 12) | st.integers(64, 200), label="pairs")
    drawn = draw(st.lists(st.tuples(st.sampled_from(highs), st.integers(0, n)), min_size=count, max_size=count))
    return n, [(x % (hi - 1) + 1, hi) for hi, x in drawn]


@settings(max_examples=200, deadline=None)
@given(case=_few_or_many_pairs())
@example(case=(257, [(lo, 256) for lo in range(1, 70)]))
@example(case=(101, [(lo, 100 - lo % 3) for lo in range(1, 97)]))
def test_negation_is_from_pairs_of_the_negated_pairs(case):
    # negate_starter sorts the (hi, lo) pairs descending where it called
    # from_pairs: the same columns, repeated highs included.
    n, pairs = case
    s = Starter.from_pairs(n, pairs)
    negated, want = negate_starter(s), _negated_by_from_pairs(s)
    assert (negated.modulus, negated.lows, negated.highs) == (want.modulus, want.lows, want.highs)
    assert type(negated.lows) is tuple and type(negated.highs) is tuple


def test_negation_of_z_173377_is_from_pairs_of_the_negated_pairs():
    s = pq_cyclotomic_starter(281, 617, 3)
    negated, want = negate_starter(s), _negated_by_from_pairs(s)
    assert len(negated.lows) == 86688
    assert (negated.lows, negated.highs) == (want.lows, want.highs)
    assert negate_starter(negated) == s


def test_difference_classes_partition(z19):
    # the k classes {d, n-d} of a starter tile 1..n-1
    classes = [(p.hi - p.lo) % 19 for p in z19.pairs]
    covered = set(classes) | {19 - d for d in classes}
    assert covered == set(range(1, 19))


# ---- random-input robustness ------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_classify_never_crashes_on_full_size_candidates(data):
    n = data.draw(st.sampled_from([5, 7, 9, 11]))
    k = (n - 1) // 2
    pairs = []
    for _ in range(k):
        a = data.draw(st.integers(min_value=1, max_value=n - 1))
        b = data.draw(st.integers(min_value=1, max_value=n - 1))
        if a == b:
            b = a % (n - 1) + 1
        pairs.append((a, b))
    s = Starter.from_pairs(n, pairs)
    if len(s.pairs) != k:
        with pytest.raises(MalformedStarter):
            classify(s)
    else:
        cls = classify(s)
        assert cls == classify(s)


def _pair_lists(data, n):
    """Two lists of pairs of Z_n, as from_pairs may be given them:
    repeats, reversed pairs, members out of range or negative, empty,
    short and long lists, and now and then a pair that is not a pair of
    Z_n.  Half the time the second list names the same pair set."""
    # Distinct nonzero residues a and b != a, each shifted by a multiple of n.
    pair = st.builds(
        lambda a, d, i, j: (a + i * n, (a + d - 1) % (n - 1) + 1 + j * n),
        st.integers(1, n - 1), st.integers(1, n - 2), st.integers(-2, 2), st.integers(-2, 2),
    )
    first = data.draw(st.lists(pair, max_size=n + 1))
    if first and data.draw(st.booleans()):
        first += data.draw(st.lists(st.sampled_from(first), max_size=3))
    if data.draw(st.integers(0, 9)) == 0:
        bad = data.draw(st.tuples(st.integers(-n, 2 * n), st.integers(-n, 2 * n)))
        first.insert(data.draw(st.integers(0, len(first))), bad)
    if not data.draw(st.booleans()):
        return first, data.draw(st.lists(pair, max_size=n + 1))
    second = [
        (b + i * n, a + j * n) if flip else (a + i * n, b + j * n)
        for (a, b), flip, i, j in zip(
            first,
            data.draw(st.lists(st.booleans(), min_size=len(first), max_size=len(first))),
            data.draw(st.lists(st.integers(-1, 1), min_size=len(first), max_size=len(first))),
            data.draw(st.lists(st.integers(-1, 1), min_size=len(first), max_size=len(first))),
        )
    ]
    return first, data.draw(st.permutations(second))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_canonicalization_matches_the_oracle(data):
    n = data.draw(st.sampled_from([3, 5, 7, 9, 11]), label="n")
    first, second = _pair_lists(data, n)
    built = []
    for ps in (first, second):
        try:
            want = canonical_pairs(n, ps)
        except MalformedStarter:
            with pytest.raises(MalformedStarter):
                Starter.from_pairs(n, ps)
            return
        s = Starter.from_pairs(n, ps)
        assert s.pairs == want
        assert all(type(pr) is Pair for pr in s.pairs)
        built.append(s)
    s, t = built
    same = set(s.pairs) == set(t.pairs)
    assert (s == t) is same
    assert (s == t and hash(s) == hash(t)) is same
    dressed = s.with_metadata(recipe={"name": "any"})
    assert dressed == s and hash(dressed) == hash(s)
    if len(s.pairs) == s.k:
        dressed = s.with_metadata(classification=classify(s))
    for u in (s, dressed):
        assert starter_to_json(u) == json.dumps(starter_to_dict(u), indent=2)
    negated = negate_starter(s)
    assert negated.pairs == canonical_pairs(n, [(-a, -b) for a, b in s.pairs])
    assert negate_starter(negated) == s
    assert negate_starter(negated).pairs == s.pairs


def _real_starter(n):
    """A starter of Z_n: the qr recipe's for a prime n = 3 (mod 8),
    else the patterned starter {x, -x}."""
    if n % 8 == 3 and is_prime(n):
        s = qr_starter(n)
        return list(zip(s.lows, s.highs))
    return [(x, n - x) for x in range(1, (n + 1) // 2)]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_counting_sort_matches_the_oracle(data):
    # Inputs large enough for from_pairs to sort by counting: a real
    # starter of Z_n, 131 <= n <= 301, shuffled, members reversed and
    # shifted by multiples of n, some pairs repeated, now and then a lo
    # with a second hi (the fallback to the key set) or a malformed
    # pair.  A list cut to just under n / 4 pairs takes the key set.
    n = data.draw(st.integers(65, 150), label="k") * 2 + 1
    base = data.draw(st.permutations(_real_starter(n)))
    pairs = [
        (b + i * n, a + j * n) if flip else (a + i * n, b + j * n)
        for (a, b), flip, i, j in zip(
            base,
            data.draw(st.lists(st.booleans(), min_size=len(base), max_size=len(base))),
            data.draw(st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base))),
            data.draw(st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base))),
        )
    ]
    for pr in data.draw(st.lists(st.sampled_from(pairs), max_size=8), label="repeats"):
        pairs.insert(data.draw(st.integers(0, len(pairs))), pr)
    if data.draw(st.booleans(), label="second hi"):
        lo, hi = data.draw(st.sampled_from([(a, b) for a, b in base if a < n - 2]))
        other = data.draw(st.integers(lo + 1, n - 2))
        pairs.insert(data.draw(st.integers(0, len(pairs))), (lo, other + (other >= hi)))
    if data.draw(st.integers(0, 9)) == 0:
        bad = data.draw(st.sampled_from([(0, 5), (5, 5 + n), (-n, 7), (3, 3)]))
        pairs.insert(data.draw(st.integers(0, len(pairs))), bad)
    if n > 4 * 64 and data.draw(st.booleans(), label="set path"):
        pairs = pairs[: data.draw(st.sampled_from([(n - 1) // 4, (n + 3) // 4]), label="cut")]
    assert len(pairs) >= 64
    try:
        want = canonical_pairs(n, pairs)
    except MalformedStarter:
        with pytest.raises(MalformedStarter) as sized:
            Starter.from_pairs(n, pairs)
        with pytest.raises(MalformedStarter) as unsized:
            Starter.from_pairs(n, iter(pairs))
        assert str(sized.value) == str(unsized.value)
        return
    s = Starter.from_pairs(n, pairs)
    assert s.pairs == want
    assert all(type(x) is int for x in s.lows + s.highs)
    t = Starter.from_pairs(n, iter(pairs))
    assert (s.lows, s.highs) == (t.lows, t.highs)


def _shaped_pair(draw, n, a, b):
    """The pair {a, b} of Z_n as from_pairs may be given it: canonical,
    swapped, or with each member shifted by -2n..2n."""
    lo, hi = min(a, b), max(a, b)
    shape = draw(st.sampled_from(["canonical", "swapped", "shifted"]), label="shape")
    if shape == "canonical":
        return lo, hi
    if shape == "swapped":
        return hi, lo
    i, j = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    return (a + i * n, b + j * n) if draw(st.booleans()) else (b + i * n, a + j * n)


def _bad_pair(draw, n):
    """A pair from_pairs refuses: a member 0 mod n, members equal mod n, a
    bool or float member, or the wrong number of members."""
    a = draw(st.integers(1, n - 1))
    i, j = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    kind = draw(st.sampled_from(["zero", "equal", "bool", "float", "members"]), label="bad")
    if kind == "zero":
        return draw(st.permutations([i * n, a + j * n]))
    if kind == "equal":
        return a + i * n, a + j * n
    if kind == "bool":
        return draw(st.permutations([draw(st.booleans()), a]))
    if kind == "float":
        return draw(st.permutations([float(a), draw(st.integers(1, n - 1))]))
    return draw(st.sampled_from([(), (a,), (a, a + 1, a + 2), a, None, [a, 1, 2]]))


@st.composite
def _reference_inputs(draw):
    """An odd n and pairs for from_pairs and the reference loop: up to 12
    pairs of small n (the key set), or a real starter of n >= 129, shuffled
    (at least 64 pairs with n <= 4 * len, the counting path); each pair
    shaped by _shaped_pair.  Now and then a few pairs of Z_n are added,
    which may give a lo a second hi, and now and then a pair that is
    refused."""
    if draw(st.booleans(), label="counting"):
        n = draw(st.integers(64, 150), label="k") * 2 + 1
        base = draw(st.permutations(_real_starter(n)))
    else:
        n = draw(st.integers(1, 40), label="k") * 2 + 1
        base = draw(st.lists(st.tuples(st.integers(1, n - 1), st.integers(1, n - 1)).filter(
            lambda pr: pr[0] != pr[1]), max_size=12))
    pairs = [_shaped_pair(draw, n, a, b) for a, b in base]
    if n > 3 and draw(st.booleans(), label="extra"):
        for _ in range(draw(st.integers(1, 3))):
            a = draw(st.integers(1, n - 2))
            pairs.insert(draw(st.integers(0, len(pairs))),
                         _shaped_pair(draw, n, a, draw(st.integers(a + 1, n - 1))))
    if draw(st.booleans(), label="refused"):
        for _ in range(draw(st.integers(1, 2))):
            pairs.insert(draw(st.integers(0, len(pairs))), _bad_pair(draw, n))
    return n, pairs


@settings(max_examples=200, deadline=None)
@given(case=_reference_inputs())
@example(case=(19, [(18, 17), (4, 2), (25, -13), (0, 5)]))
@example(case=(19, [(1, 2), (3, 19)]))
@example(case=(19, [(1, 2), (20, 40)]))
@example(case=(7, [(1, 2), (True, 3)]))
@example(case=(7, [(1, 2), (3.0, 5)]))
@example(case=(7, [(1, 2), (1, 2, 3)]))
def test_from_pairs_matches_the_reference_loop(case):
    # The range-first from_pairs against the loop that reduced every
    # member first: the same columns, or the same MalformedStarter text,
    # on a list (the counting path when it is long enough) and on an
    # iterator (always the key set).
    n, pairs = case
    for given_as in (list, iter):
        try:
            want = oracles.reference_from_pairs(n, given_as(pairs))
        except MalformedStarter as exc:
            with pytest.raises(MalformedStarter) as got:
                Starter.from_pairs(n, given_as(pairs))
            assert str(got.value) == str(exc)
            continue
        s = Starter.from_pairs(n, given_as(pairs))
        assert (s.modulus, s.lows, s.highs) == (want.modulus, want.lows, want.highs)
        assert type(s.lows) is tuple and type(s.highs) is tuple


def test_a_huge_modulus_with_few_pairs_allocates_nothing_of_its_size():
    # A sized input with n > 4 * len(pairs) takes the key set: no list
    # of n slots, so this returns at once and not after gigabytes.
    n = 10**12 + 1
    start = time.perf_counter()
    assert Starter.from_pairs(n, [(1, 2)]).pairs == ((1, 2),)
    s = Starter.from_pairs(n, [(i, i + 1) for i in range(1, 200)])
    assert time.perf_counter() - start < 0.5
    assert s.lows == tuple(range(1, 200))


# ---- JSON interchange ---------------------------------------------------------


def test_json_round_trip(z19):
    s = z19.with_metadata(classification=classify(z19))
    doc = starter_to_dict(s)
    assert doc["pairs"] == sorted(doc["pairs"])
    back = starter_from_dict(doc)
    assert back == z19
    assert back.classification == s.classification
    assert starter_from_json(starter_to_json(s)) == z19


def test_json_is_byte_stable(z19):
    a = starter_to_json(Starter.from_pairs(19, Z19_PAIRS))
    b = starter_to_json(Starter.from_pairs(19, list(reversed(Z19_PAIRS))))
    assert a == b
    assert json.loads(a)["modulus"] == 19


# Strings with quotes, backslashes, control and non-ASCII characters,
# and any JSON value built from them: a decoded document's recipe object.
_JSON_TEXT = st.text(st.sampled_from('a"\\/\x00\x1f\n\t\x7f\u00e9\u2028\U0001f600') | st.characters(), max_size=6)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_JSON_TEXT, inner, max_size=3),
    max_leaves=12,
)
# Pair sets whose classifications have no witness (Z_11, Z_19), one
# (Z_3, not strong) and all four (a near-miss of Z_7).
_DOCUMENT_PAIRS = [(3, [(1, 2)]), (7, [(1, 2), (1, 3), (4, 6)]), (11, Z11_PAIRS), (19, Z19_PAIRS)]


@settings(max_examples=300, deadline=None)
@given(
    pairs=st.sampled_from(_DOCUMENT_PAIRS),
    recipe=st.none() | st.dictionaries(_JSON_TEXT, _JSON_VALUES, max_size=4),
    classified=st.booleans(),
)
def test_starter_to_json_lays_out_decoded_documents_as_json_dumps_does(pairs, recipe, classified):
    n, ps = pairs
    cls = classify(Starter.from_pairs(n, ps)).to_dict() if classified else None
    doc = {"modulus": n, "pairs": [list(pr) for pr in ps], "recipe": recipe, "classification": cls}
    s = starter_from_json(json.dumps(doc))
    assert starter_to_json(s) == json.dumps(starter_to_dict(s), indent=2)
    assert starter_from_json(starter_to_json(s)).recipe == s.recipe


# Text with the characters a template or the encoder must escape: "%"
# (a template's own), quotes, backslashes, control and non-ASCII.
_TEMPLATE_TEXT = st.text(st.sampled_from('%s"\\\x00\x1f\n\x7f\u00e9\u2028\U0001f600') | st.characters(), max_size=6)


@settings(max_examples=200, deadline=None)
@given(witnesses=st.dictionaries(_TEMPLATE_TEXT, _TEMPLATE_TEXT, max_size=4))
def test_starter_to_json_writes_any_text_witnesses_as_json_dumps_does(witnesses):
    # Names other than the four verdicts fill a key template made at run time.
    s = Starter.from_pairs(19, Z19_PAIRS).with_metadata(classification=Classification(witnesses))
    assert starter_to_json(s) == json.dumps(starter_to_dict(s), indent=2)


# Any JSON value; test_cli's scan report property draws from it too.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(
    value=st.dictionaries(_TEMPLATE_TEXT, _json_values, max_size=4) | st.lists(_json_values, max_size=4),
    pad=st.sampled_from(["", "  ", "    "]),
)
def test_the_layout_rule_lays_out_any_object_or_array_as_json_dumps_does(value, pad):
    inner = pad + "  "
    if isinstance(value, dict):
        text = starters._object(tuple(value), pad) % tuple([starters._at(v, inner) for v in value.values()])
    else:
        text = starters._array([starters._at(v, inner) for v in value], pad)
    assert text == json.dumps(value, indent=2).replace("\n", "\n" + pad)
    assert starters._at(value, pad) == text
    assert (starters._object((), pad), starters._array([], pad)) == ("{}", "[]")


# Object keys json.dumps turns into text: 1 into "1", True into "true",
# None into "null", 2.5 into "2.5", and text as it is.
_ANY_KEY = st.none() | st.booleans() | st.integers() | st.floats() | _TEMPLATE_TEXT


@settings(max_examples=300, deadline=None)
@given(
    witnesses=st.dictionaries(_ANY_KEY, _TEMPLATE_TEXT, max_size=4),
    hits=st.lists(
        st.tuples(st.dictionaries(_ANY_KEY, st.integers(), max_size=3), st.dictionaries(_ANY_KEY, _json_values, max_size=3)),
        max_size=4,
    ),
)
def test_keys_that_are_not_text_are_written_as_json_dumps_writes_them(witnesses, hits):
    s = Starter.from_pairs(19, Z19_PAIRS).with_metadata(classification=Classification(witnesses))
    text = starter_to_json(s)
    assert text == starters._at(starter_to_dict(s), "")
    json.loads(text)
    report = search.ScanReport("qr-primes", 3000, tuple(search.ScanHit(p, c) for p, c in hits))
    text = cli._scan_json(report)
    assert text == starters._at(report.to_dict(), "")
    json.loads(text)


def test_equal_keys_of_other_types_are_written_apart():
    # 1, 1.0 and True are one dict key, as are 0.0 and -0.0, yet json.dumps
    # writes each apart: no template made for one serves another.
    layouts = ((1, None, 2.5), (True, None, 2.5), (1.0, None, 2.5), (0.0,), (-0.0,), (False,), (0,))
    for keys in layouts:
        s = Starter.from_pairs(19, Z19_PAIRS).with_metadata(classification=Classification(dict.fromkeys(keys, "x")))
        assert starter_to_json(s) == starters._at(starter_to_dict(s), ""), keys
    report = search.ScanReport("qr-primes", 3000, tuple(search.ScanHit(dict.fromkeys(keys, 1), {}) for keys in layouts))
    assert cli._scan_json(report) == starters._at(report.to_dict(), "")
    with pytest.raises(TypeError, match="^keys must be str, int, float, bool or None, not tuple$"):
        starter_to_json(s.with_metadata(classification=Classification({(1, 2): "x"})))


def test_with_metadata_keeps_the_type_the_pairs_and_the_verification_pass(z19):
    class Sub(Starter):
        pass

    s = Sub.from_pairs(19, Z19_PAIRS)
    cls = classify(s)
    copy = s.with_metadata(recipe={"method": "qr"}, classification=cls)
    assert type(copy) is Sub
    assert copy == s and hash(copy) == hash(s)
    assert (copy.recipe, copy.classification) == ({"method": "qr"}, cls)
    assert copy._witnesses is s._witnesses is not None
    assert z19.with_metadata()._witnesses is None


def test_starter_refuses_assignment_and_deletion_of_every_attribute(z19):
    for name in ("modulus", "lows", "highs", "recipe", "classification", "_witnesses", "other"):
        with pytest.raises(AttributeError):
            setattr(z19, name, None)
        with pytest.raises(AttributeError):
            delattr(z19, name)
    assert z19 == Starter.from_pairs(19, Z19_PAIRS)


def test_starter_equality_hash_and_repr_ignore_its_attachments(z19):
    s = z19.with_metadata(recipe={"method": "qr"}, classification=classify(z19))
    assert s == z19 and hash(s) == hash(z19)
    assert repr(s) == repr(z19) == (
        "Starter(modulus=19, lows=(1, 2, 3, 5, 7, 8, 9, 11, 17), highs=(10, 4, 6, 12, 13, 16, 14, 15, 18))"
    )
    assert z19 != (19, z19.lows, z19.highs)
    assert z19 != Starter.from_pairs(19, Z19_PAIRS[:-1] + [(1, 2)])


def test_starter_can_be_held_weakly(z19):
    ref = weakref.ref(z19)
    assert ref() is z19


def test_starter_pickles_and_copies_with_its_attachments():
    s = qr_starter(19)
    clones = [pickle.loads(pickle.dumps(s, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in [*clones, copy.copy(s), copy.deepcopy(s)]:
        assert type(clone) is Starter and clone == s
        assert clone.recipe == s.recipe and clone.classification == s.classification
        assert starter_to_json(clone) == starter_to_json(s)


def test_classification_compares_by_its_witnesses_and_cannot_be_hashed():
    a = Classification({"strong": "pair (1, 2) has sum 0 mod 3"})
    assert a == Classification(dict(a.witnesses)) and a != Classification({})
    assert a != a.witnesses
    assert repr(a) == "Classification(witnesses={'strong': 'pair (1, 2) has sum 0 mod 3'})"
    with pytest.raises(TypeError):
        hash(a)


def test_importing_the_library_loads_neither_dataclasses_nor_inspect():
    # Either costs a fresh interpreter about 10 ms before any starter is
    # built.  Nor is json loaded until a document is written or read:
    # building and certifying a starter never needs it.
    src = Path(__file__).resolve().parent.parent / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import skolem_starters; "
            "skolem_starters.qr_starter(19); "
            "print(sorted({'dataclasses', 'inspect', 'json'} & sys.modules.keys()))")
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# The document of Z_3 = {(1, 2)} with its classification, and edits that
# make the classification something other than the one its pair gives.
Z3_DOC = {
    "modulus": 3,
    "pairs": [[1, 2]],
    "recipe": None,
    "classification": {
        "starter": True, "strong": False, "skolem": True, "cardioidal": True,
        "dependent": False, "witnesses": {"strong": "pair (1, 2) has sum 0 mod 3"},
    },
}


def _without(key):
    cls = dict(Z3_DOC["classification"])
    del cls[key]
    return cls


@pytest.mark.parametrize(
    "cls",
    [
        pytest.param(dict(Z3_DOC["classification"], strong=True), id="flipped-verdict"),
        pytest.param(dict(Z3_DOC["classification"], starter=1), id="one-for-true"),
        pytest.param(_without("dependent"), id="missing-dependent"),
        pytest.param(_without("witnesses"), id="missing-witnesses"),
        pytest.param(dict(Z3_DOC["classification"], witnesses={"strong": "pair (1, 2) has sum 0 mod 5"}),
                     id="stale-witness"),
        pytest.param(dict(Z3_DOC["classification"], extra=None), id="extra-key"),
    ],
)
def test_decoded_classification_must_be_the_pairs_own(capsys, tmp_path, cls):
    doc = dict(Z3_DOC, classification=cls)
    with pytest.raises(MalformedStarter, match="classification"):
        starter_from_dict(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for mode in (["--json"], []):
        code = cli.main(["verify", "--in", str(path), *mode])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("error: classification ") and "Traceback" not in err
    back = starter_from_dict(Z3_DOC)
    assert back.classification == classify(back)
    assert back.classification.to_dict() == Z3_DOC["classification"]


_Z3_CLASSIFICATION_TEXT = (
    'classification is not the one its pairs give: {"starter": true, "strong": false, "skolem": true, '
    '"cardioidal": true, "dependent": false, "witnesses": {"strong": "pair (1, 2) has sum 0 mod 3"}}'
)


@pytest.mark.parametrize(
    "doc, text",
    [
        pytest.param([], "a starter document is a JSON object, got list", id="not-an-object"),
        pytest.param({"pairs": [[1, 2]]}, "starter document lacks modulus", id="no-modulus"),
        pytest.param({"modulus": 3}, "starter document lacks pairs", id="no-pairs"),
        pytest.param({}, "starter document lacks modulus and pairs", id="neither"),
        pytest.param({"recipe": None, "extra": 1}, "starter document lacks modulus and pairs",
                     id="missing-before-unknown"),
        pytest.param({"zeta": 1, "modulus": 3, "Alpha": 2, "pairs": [[1, 2]], 1: 3, "recipe": None},
                     "unknown keys in starter document: 'zeta', 'Alpha', 1", id="unknown-in-document-order"),
        pytest.param({"modulus": 3, "pairs": ((1, 2),), "zeta": 1}, "unknown keys in starter document: 'zeta'",
                     id="unknown-before-pairs"),
        pytest.param({"modulus": 3, "pairs": ((1, 2),)}, "pairs must be a list, got tuple", id="pairs-tuple"),
        pytest.param({"modulus": 3, "pairs": "12", "recipe": 5}, "pairs must be a list, got str",
                     id="pairs-before-recipe"),
        pytest.param({"modulus": 3, "pairs": [[1, 2]], "recipe": [1]}, "recipe must be an object or null, got list",
                     id="recipe-list"),
        pytest.param({"modulus": 3, "pairs": [[1, 2]], "recipe": False}, "recipe must be an object or null, got bool",
                     id="recipe-false"),
        pytest.param({"modulus": 3, "pairs": [[1, 3]], "recipe": "qr"}, "recipe must be an object or null, got str",
                     id="recipe-before-pairs-values"),
        pytest.param({"modulus": 3, "pairs": [[1, 3]], "classification": dict(Z3_DOC["classification"], strong=True)},
                     "pair (1, 0) contains 0 mod 3", id="pairs-before-classification"),
        pytest.param({"modulus": 4, "pairs": [[1, 2]], "classification": []},
                     "modulus must be an odd integer >= 3, got 4", id="modulus"),
        pytest.param(dict(Z3_DOC, classification=dict(Z3_DOC["classification"], strong=True)),
                     _Z3_CLASSIFICATION_TEXT, id="classification-flipped"),
        pytest.param(dict(Z3_DOC, classification=[]), _Z3_CLASSIFICATION_TEXT, id="classification-list"),
    ],
)
def test_starter_from_dict_refusal_texts(doc, text):
    # Each refusal names its defect in these words, the first defect in
    # this order: shape, missing keys, unknown keys, pairs, recipe, the
    # pairs' values, classification.  The document is left as it was.
    before = copy.deepcopy(doc)
    with pytest.raises(MalformedStarter) as refused:
        starter_from_dict(doc)
    assert str(refused.value) == text
    assert doc == before


@pytest.mark.parametrize("classified", [False, True])
def test_starter_from_dict_attaches_the_recipe_and_the_classification(classified):
    recipe = {"method": "qr", "p": 3, "steps": [[1, 2]]}
    doc = dict(Z3_DOC, recipe=recipe, classification=Z3_DOC["classification"] if classified else None)
    before = copy.deepcopy(doc)
    s = starter_from_dict(doc)
    assert (s.modulus, s.lows, s.highs) == (3, (1,), (2,))
    assert s.recipe is recipe
    if classified:
        assert s.classification == classify(s)
        assert s.classification.to_dict() == Z3_DOC["classification"]
    else:
        assert s.classification is None
    assert doc == before and doc["recipe"] is recipe


def test_one_verification_pass_per_starter(monkeypatch, z19):
    passes = []
    verify_all = starters._verify_all
    monkeypatch.setattr(starters, "_verify_all", lambda s: passes.append(s) or verify_all(s))
    cls = classify(z19)
    for verify in (verify_starter, verify_strong, verify_skolem, verify_cardioidal):
        assert verify(z19)[0]
    copy = z19.with_metadata(recipe={"method": "qr", "p": 19}, classification=cls)
    assert classify(copy) == cls
    assert len(passes) == 1
    text = starter_to_json(copy)
    passes.clear()
    back = starter_from_json(text)
    assert classify(back) == cls
    assert len(passes) == 1
