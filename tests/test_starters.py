import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skolem_starters import cli, starters
from skolem_starters.starters import (
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
