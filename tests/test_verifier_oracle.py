"""The single-pass verifiers against the original four-pass ones.

tests/oracles.py keeps the original verifiers and classify.  Every
candidate here must get the same Classification.to_dict() from both,
witnesses included, and a wrong-size candidate must be refused by both
with the same MalformedStarter message.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from skolem_starters.constructions import cyclotomic_starter, pq_starter, qr_starter
from skolem_starters.search import enumerate_starters
from skolem_starters.starters import (
    classify,
    MalformedStarter,
    negate_starter,
    Starter,
    verify_cardioidal,
    verify_skolem,
    verify_starter,
    verify_strong,
)

CORPUS = {n: enumerate_starters(n) for n in range(3, 16, 2)}
CONSTRUCTED = [qr_starter(43, 2), qr_starter(59, "2inv"), pq_starter(11, 19, 2), cyclotomic_starter(281, 3)]
BASES = [s for found in CORPUS.values() for s in found] + CONSTRUCTED

PAIRS = (
    (verify_starter, oracles.verify_starter),
    (verify_strong, oracles.verify_strong),
    (verify_skolem, oracles.verify_skolem),
    (verify_cardioidal, oracles.verify_cardioidal),
)


def assert_same_verdicts(s: Starter) -> None:
    try:
        want = oracles.classify(s).to_dict()
    except MalformedStarter as exc:
        with pytest.raises(MalformedStarter) as got:
            classify(s)
        assert str(got.value) == str(exc)
        for fast, _ in PAIRS:
            with pytest.raises(MalformedStarter):
                fast(s)
        return
    assert classify(s).to_dict() == want
    for fast, slow in PAIRS:
        assert fast(s) == slow(s)


def test_enumerated_corpus_and_negations():
    assert sum(map(len, CORPUS.values())) == 803
    for found in CORPUS.values():
        for s in found:
            assert_same_verdicts(s)
            assert_same_verdicts(negate_starter(s))


def test_constructed_starters():
    for s in CONSTRUCTED:
        assert classify(s).all_four
        assert_same_verdicts(s)


def _rebuild(modulus, pairs):
    """Starter.from_pairs, or None for pairs it refuses (a zero member or
    a pair with equal members), which never reach a verifier."""
    try:
        return Starter.from_pairs(modulus, pairs)
    except MalformedStarter:
        return None


@st.composite
def near_misses(draw):
    base = draw(st.sampled_from(BASES))
    n = base.modulus
    pairs = [list(pr) for pr in base.pairs]
    element = st.integers(min_value=1, max_value=n - 1)
    kind = draw(st.sampled_from(["move", "duplicate", "drop", "add"]))
    i = draw(st.integers(min_value=0, max_value=len(pairs) - 1))
    side = draw(st.integers(min_value=0, max_value=1))
    if kind == "move":
        pairs[i][side] = draw(element)
    elif kind == "duplicate":
        j = draw(st.integers(min_value=0, max_value=len(pairs) - 1))
        pairs[i][side] = pairs[j][draw(st.integers(min_value=0, max_value=1))]
    elif kind == "drop":
        del pairs[i]
    else:
        pairs.append([draw(element), draw(element)])
    return n, pairs


@settings(max_examples=400, deadline=None)
@given(near_misses())
def test_near_misses(candidate):
    s = _rebuild(*candidate)
    if s is not None:
        assert_same_verdicts(s)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_random_pairings(data):
    # Every element once, paired at random: the difference-class and
    # Skolem witnesses do the work here.
    n = data.draw(st.sampled_from([7, 9, 11, 13, 19, 25, 43]))
    members = data.draw(st.permutations(range(1, n)))
    assert_same_verdicts(Starter.from_pairs(n, list(zip(members[::2], members[1::2]))))


@pytest.mark.parametrize("n,size", [(3, 0), (5, 3), (9, 3), (9, 5), (19, 1), (19, 10)])
def test_wrong_size_candidates(n, size):
    s = Starter.from_pairs(n, [(1, j) for j in range(2, size + 2)])
    assert len(s.pairs) == size
    assert_same_verdicts(s)
    with pytest.raises(MalformedStarter):
        oracles.classify(s)


def test_doubling_test_without_mod_on_every_canonical_pair():
    # For 0 < lo < hi < n the fused verifier reads hi = 2 lo and
    # lo = 2 hi (mod n) as hi == 2*lo and lo == 2*hi - n.  Every canonical
    # pair of every odd n <= 61, on a starter made of k copies of it, gets
    # the oracle's verdict and witness, which take the mod.
    doubling = 0
    for n in range(3, 62, 2):
        k = (n - 1) // 2
        for lo in range(1, n):
            for hi in range(lo + 1, n):
                mod_form = (2 * lo - hi) % n == 0 or (2 * hi - lo) % n == 0
                assert (hi == 2 * lo or lo == 2 * hi - n) == mod_form, (n, lo, hi)
                s = Starter(n, (lo,) * k, (hi,) * k)
                assert verify_cardioidal(s) == oracles.verify_cardioidal(s), (n, lo, hi)
                assert verify_cardioidal(s)[0] is mod_form
                doubling += mod_form
    # The pairs {x, 2x mod n}, 0 < x < n: n - 1 of them, one fewer when
    # 3 | n, where x = n/3 and 2n/3 make the same pair.
    assert doubling == sum(n - 1 - (n % 3 == 0) for n in range(3, 62, 2))
