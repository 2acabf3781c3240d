import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skolem_starters import constructions, search
from skolem_starters.cli import _METHODS, main
from test_starters import Z19_PAIRS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- construct -----------------------------------------------------------------


def test_construct_qr_19_json(capsys):
    code, out, err = run(capsys, "construct", "--method", "qr", "--p", "19", "--beta", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["modulus"] == 19
    assert len(doc["pairs"]) == 9
    assert doc["classification"]["starter"] is True
    assert doc["classification"]["skolem"] is True
    assert doc["recipe"]["method"] == "qr"
    assert doc["recipe"]["beta"] == 2


def test_construct_json_stdout_is_single_document(capsys):
    code, out, _ = run(capsys, "construct", "--method", "pq", "--p", "11", "--q", "19", "--json")
    assert code == 0
    doc = json.loads(out)  # would fail if stdout carried anything else
    assert doc["recipe"]["lambda"] == 3 and doc["recipe"]["root"] == 2


def test_construct_is_byte_stable(capsys):
    _, out1, _ = run(capsys, "construct", "--method", "cyclotomic", "--p", "281", "--k", "3", "--json")
    _, out2, _ = run(capsys, "construct", "--method", "cyclotomic", "--p", "281", "--k", "3", "--json")
    assert out1 == out2


def test_construct_horton_with_explicit_residue_beta(capsys):
    code, out, _ = run(capsys, "construct", "--method", "horton", "--p", "11", "--beta", "7", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["recipe"]["beta"] == 7
    assert doc["classification"]["starter"] and doc["classification"]["strong"]


def test_construct_hypothesis_violation_exits_2(capsys):
    code, out, err = run(capsys, "construct", "--method", "qr", "--p", "17", "--json")
    assert code == 2
    assert out == ""
    assert "3 (mod 8)" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--method", "cyclotomic", "--p", "281"],
        ["--method", "pq-cyclotomic", "--p", "281", "--q", "617"],
        ["--method", "prime-power-cyclotomic", "--p", "281", "--n", "2"],
    ],
)
def test_construct_huge_k_exits_2(capsys, argv):
    # k above the 2-adic valuation of p - 1 is refused before 2^k is built.
    code, out, err = run(capsys, "construct", *argv, "--k", str(10**20))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--method", "prime-power", "--p", "11", "--n", str(10**8)],
        ["--method", "prime-power-cyclotomic", "--p", "281", "--k", "3", "--n", str(10**8)],
        ["--method", "qr", "--p", str(10**15 + 91)],
    ],
)
def test_construct_beyond_bound_exits_2(capsys, argv):
    # Refused before any arithmetic: p^n is never built, p - 1 never factored.
    code, out, err = run(capsys, "construct", *argv, "--json")
    assert (code, out) == (2, "")
    assert err.startswith("error: modulus ")
    assert err.endswith(" exceeds the construction bound 1000000\n") and err.count("\n") == 1


@pytest.mark.parametrize("beta", ["two_inverse", "2^-1"])
def test_construct_unlisted_beta_alias_exits_2(capsys, beta):
    code, out, err = run(capsys, "construct", "--method", "qr", "--p", "19", "--beta", beta)
    assert (code, out, err) == (2, "", f"error: unrecognized beta {beta!r}\n")


def test_construct_missing_parameter_exits_2(capsys):
    code, _, err = run(capsys, "construct", "--method", "pq", "--p", "11", "--json")
    assert code == 2
    assert "--q" in err


def test_construct_human_mode_orders_by_difference(capsys):
    code, out, _ = run(capsys, "construct", "--method", "qr", "--p", "11")
    assert code == 0
    assert "verdicts: starter=True strong=True skolem=True cardioidal=True" in out
    d_lines = [line for line in out.splitlines() if line.strip().startswith("d=")]
    assert [line.split(":")[0].strip() for line in d_lines] == [f"d={i}" for i in range(1, 6)]


# ---- verify ---------------------------------------------------------------------


def test_verify_inline_modulus_3(capsys):
    code, out, _ = run(capsys, "verify", "--modulus", "3", "--pairs", "1,2", "--json")
    assert code == 1  # strong fails
    doc = json.loads(out)
    assert doc["classification"] == {
        "starter": True,
        "strong": False,
        "skolem": True,
        "cardioidal": True,
        "dependent": False,
        "witnesses": {"strong": "pair (1, 2) has sum 0 mod 3"},
    }


def test_verify_inline_golden_fixture(capsys):
    pairs = ";".join(f"{a},{b}" for a, b in Z19_PAIRS)
    code, out, _ = run(capsys, "verify", "--modulus", "19", "--pairs", pairs, "--json")
    assert code == 0
    assert json.loads(out)["classification"]["cardioidal"] is True


def test_verify_corrupted_fixture_exits_1_with_witness(capsys):
    corrupted = [(16, 18)] + Z19_PAIRS[1:]  # swap one element: 16 duplicated
    pairs = ";".join(f"{a},{b}" for a, b in corrupted)
    code, out, _ = run(capsys, "verify", "--modulus", "19", "--pairs", pairs, "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["classification"]["starter"] is False
    assert "witnesses" in doc["classification"] and doc["classification"]["witnesses"]


def test_verify_round_trip_preserves_classification(capsys, tmp_path):
    out_file = tmp_path / "starter.json"
    code, _, _ = run(
        capsys, "construct", "--method", "qr", "--p", "19", "--out", str(out_file), "--json"
    )
    assert code == 0
    embedded = json.loads(out_file.read_text())["classification"]
    code, out, _ = run(capsys, "verify", "--in", str(out_file), "--json")
    assert code == 0
    assert json.loads(out)["classification"] == embedded


def test_verify_missing_input_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--modulus", "19")
    assert code == 2
    assert "verify needs" in err


def test_verify_unreadable_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--in", str(tmp_path / "missing.json"))
    assert code == 2


def test_verify_malformed_pairs_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--modulus", "9", "--pairs", "1,2,3")
    assert code == 2


# ---- scan -----------------------------------------------------------------------


def test_scan_qr_primes(capsys):
    code, out, _ = run(capsys, "scan", "--kind", "qr-primes", "--limit", "30", "--json")
    assert code == 0
    doc = json.loads(out)
    assert [h["params"]["p"] for h in doc["hits"]] == [11, 19]


def test_scan_cyclotomic_no_hits_exits_1(capsys):
    code, out, _ = run(
        capsys, "scan", "--kind", "cyclotomic-primes", "--k", "3", "--limit", "100", "--json"
    )
    assert code == 1
    assert json.loads(out)["hits"] == []


@pytest.mark.parametrize("kind", ["cyclotomic-primes", "pq-pairs"])
def test_scan_huge_k_is_an_empty_scan(capsys, kind):
    # 2^k > limit: nothing to scan, and 2^k is never built.
    code, out, err = run(capsys, "scan", "--kind", kind, "--k", str(10**20), "--limit", "1000", "--json")
    assert code == 1
    assert json.loads(out)["hits"] == []
    assert err == ""


@pytest.mark.parametrize(
    "argv, err",
    [
        (["construct", "--method", "qr", "--p", "11", "--q", "19", "--n", "5", "--k", "3"],
         "error: --method qr takes no --q\n"),
        (["construct", "--method", "cyclotomic", "--p", "281", "--k", "3", "--n", "2"],
         "error: --method cyclotomic takes no --n\n"),
        (["scan", "--kind", "qr-primes", "--limit", "30", "--k", "3"],
         "error: scan --kind qr-primes takes no --k\n"),
        (["verify", "--in", "F", "--modulus", "3", "--pairs", "1,2"],
         "error: verify --in takes no --modulus\n"),
        (["verify", "--in", "F", "--pairs", "1,2"], "error: verify --in takes no --pairs\n"),
    ],
)
def test_argument_that_would_be_ignored_exits_2(capsys, monkeypatch, argv, err):
    # Refused before any arithmetic; the file F is never opened.
    def refuse(*args, **kwargs):
        raise AssertionError("reached the library")

    for name in ("qr_starter", "cyclotomic_starter"):
        monkeypatch.setattr(constructions, name, refuse)
    monkeypatch.setattr(search, "scan_qr_primes", refuse)
    assert run(capsys, *argv) == (2, "", err)


def test_scan_cyclotomic_requires_k(capsys):
    code, _, err = run(capsys, "scan", "--kind", "cyclotomic-primes", "--limit", "100")
    assert code == 2
    assert "--k" in err


def test_scan_sieve_out_of_memory_exits_2(capsys, monkeypatch):
    # A sieve of 10^18 bytes is refused by the scan bound before it is allocated.
    code, out, err = run(capsys, "scan", "--kind", "qr-primes", "--limit", str(10**18), "--json")
    assert code == 2
    assert out == ""
    assert err == f"error: qr-primes up to {10**18}: {10**18} candidates exceed the scan bound 1000000\n"
    # A sieve that cannot be allocated still exits 2.
    def no_memory(limit):
        raise MemoryError

    monkeypatch.setattr(search, "_primes_upto", no_memory)
    code, out, err = run(capsys, "scan", "--kind", "qr-primes", "--limit", "100", "--json")
    assert (code, out, err) == (2, "", "error: MemoryError\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["--kind", "cyclotomic-primes", "--k", "3", "--limit", str(10**15)],
        ["--kind", "pq-pairs", "--limit", str(10**8)],
    ],
)
def test_scan_beyond_bound_exits_2(capsys, argv):
    code, out, err = run(capsys, "scan", *argv, "--json")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith(" exceed the scan bound 1000000\n")
    assert err.count("\n") == 1


def test_scan_pq_pairs(capsys):
    code, out, _ = run(capsys, "scan", "--kind", "pq-pairs", "--limit", "25", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["hits"][0]["params"] == {"p": 11, "q": 19}


# ---- search ---------------------------------------------------------------------


def test_search_nonexistent_exits_1(capsys):
    code, out, _ = run(capsys, "search", "--modulus", "5")
    assert code == 1
    assert "nonexistent (exhausted)" in out


def test_search_found_json(capsys):
    code, out, _ = run(capsys, "search", "--modulus", "19", "--strong", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] == 1
    cls = doc["starters"][0]["classification"]
    assert cls["starter"] and cls["strong"] and cls["skolem"]


def test_search_timeout_exits_3(capsys):
    code, _, err = run(capsys, "search", "--modulus", "21", "--timeout", "0.001")
    assert code == 3
    assert "timeout" in err


@pytest.mark.parametrize("timeout", ["nan", "-1"])
def test_search_bad_timeout_exits_2(capsys, timeout):
    code, out, err = run(capsys, "search", "--modulus", "21", "--timeout", timeout)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "timeout" in err


def test_search_modulus_beyond_bound_exits_2(capsys):
    code, out, err = run(capsys, "search", "--modulus", "20001")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "1001" in err


def test_search_all_modulus_3(capsys):
    code, out, _ = run(capsys, "search", "--modulus", "3", "--all", "--json")
    assert code == 0
    assert json.loads(out)["found"] == 1


# ---- selftest ---------------------------------------------------------------------


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "passed 8/8"
    assert all(line.startswith("ok") for line in lines[:-1])


# ---- malformed starter documents: typed refusal, exit 2 ----------------------

VALID_DOC = {"modulus": 3, "pairs": [[1, 2]], "recipe": None, "classification": None}
Z19_DOC = {"modulus": 19, "pairs": [list(pr) for pr in Z19_PAIRS], "recipe": None}


@pytest.mark.parametrize(
    "doc",
    [
        pytest.param({"pairs": [[1, 2]]}, id="missing-modulus"),
        pytest.param({"modulus": 3, "pairs": [[1]]}, id="one-member-pair"),
        pytest.param({"modulus": 3, "pairs": None}, id="null-pairs"),
        pytest.param([[1, 2]], id="top-level-list"),
        pytest.param(dict(VALID_DOC, classification={"starter": True}), id="partial-classification"),
        pytest.param({"modulus": 3.7, "pairs": [[1, 2]]}, id="float-modulus"),
        pytest.param({"modulus": 3, "pairs": [[True, 2]]}, id="bool-member"),
        pytest.param({"modulus": 3, "pairs": [[1, 2, 3]]}, id="three-member-pair"),
        pytest.param(dict(Z19_DOC, recipe=5), id="number-recipe"),
        pytest.param(dict(Z19_DOC, recipe=[1, 2]), id="list-recipe"),
        pytest.param(dict(Z19_DOC, recipe="qr"), id="string-recipe"),
        pytest.param(dict(Z19_DOC, extra=1), id="unknown-key"),
    ],
)
def test_verify_malformed_document_exits_2(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for mode in (["--json"], []):
        code, out, err = run(capsys, "verify", "--in", str(path), *mode)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err


def test_verify_well_formed_document_still_verifies(capsys, tmp_path):
    path = tmp_path / "good.json"
    path.write_text(json.dumps(VALID_DOC))
    code, out, _ = run(capsys, "verify", "--in", str(path), "--json")
    assert code == 1  # Z_3 is Skolem but not strong
    assert json.loads(out)["classification"]["skolem"] is True
    path.write_text(json.dumps(dict(Z19_DOC, recipe={"method": "qr", "p": 19})))
    for mode in (["--json"], []):
        code, _, _ = run(capsys, "verify", "--in", str(path), *mode)
        assert code == 0


def test_verify_deeply_nested_document_exits_2(capsys, tmp_path):
    # json.dumps cannot build this document; the decoder runs out of
    # recursion depth on it.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    for mode in (["--json"], []):
        code, out, err = run(capsys, "verify", "--in", str(path), *mode)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err


# ---- fuzzed verify input: exit 0, 1 or 2, and nothing on stdout with 2 ------

_VERDICT_KEYS = ("starter", "strong", "skolem", "cardioidal")
_json_leaves = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5)
_json_values = st.recursive(
    _json_leaves,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=6,
)
_odd_values = st.sampled_from([None, True, 0, -1, 2.5, "", "x", [], {}, [[]], [1, 2], {"a": 1}])
_VALID_DOCUMENT = {
    "modulus": 19,
    "pairs": [list(pr) for pr in Z19_PAIRS],
    "recipe": {"method": "qr", "p": 19},
    "classification": dict.fromkeys(_VERDICT_KEYS, True) | {"dependent": False, "witnesses": {}},
}


@st.composite
def _near_documents(draw):
    """The Z_19 document with one or two of its parts broken."""
    doc = json.loads(json.dumps(_VALID_DOCUMENT))
    for _ in range(draw(st.integers(1, 2))):
        part = draw(st.sampled_from(["value", "value", "value", "drop", "extra", "pair", "member", "verdict"]))
        pairs, cls = doc.get("pairs"), doc.get("classification")
        if part == "value":
            doc[draw(st.sampled_from(sorted(_VALID_DOCUMENT)))] = draw(_odd_values | _json_leaves)
        elif part == "drop" and doc:
            del doc[draw(st.sampled_from(sorted(doc)))]
        elif part == "extra":
            doc[draw(st.text(max_size=5))] = draw(_json_values)
        elif part == "pair" and isinstance(pairs, list) and pairs:
            pairs[draw(st.integers(0, len(pairs) - 1))] = draw(
                st.lists(st.integers(-20, 40) | _json_leaves, max_size=3) | _odd_values
            )
        elif part == "member" and isinstance(pairs, list) and pairs and isinstance(pairs[0], list) and pairs[0]:
            pairs[0][draw(st.integers(0, len(pairs[0]) - 1))] = draw(st.integers(-20, 40) | _json_leaves)
        elif part == "verdict" and isinstance(cls, dict) and cls:
            key = draw(st.sampled_from(sorted(cls)))
            if draw(st.booleans()):
                del cls[key]
            else:
                cls[key] = draw(_odd_values | _json_leaves)
    return doc


_inline_pairs = st.lists(
    st.tuples(st.integers(-3, 30), st.integers(-3, 30)).map(lambda ab: f"{ab[0]},{ab[1]}"), max_size=12
).map(";".join)
_verify_inputs = st.one_of(
    st.tuples(st.just("document"), _near_documents() | _json_values),
    st.tuples(
        st.just("inline"),
        st.integers(-5, 40).map(str) | st.text(max_size=8),
        _inline_pairs | st.text(alphabet="0123456789,; -", max_size=24) | st.text(max_size=10),
    ),
)


def _check_clean_exit(argv):
    """Exit 0, 1 or 2, no traceback, and nothing on stdout with 2."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing an option value exits 2
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""


@settings(max_examples=250, derandomize=True, deadline=None)
@given(case=_verify_inputs, as_json=st.booleans())
def test_verify_fuzzed_input_exits_0_1_or_2(tmp_path_factory, case, as_json):
    if case[0] == "document":
        path = tmp_path_factory.getbasetemp() / "fuzzed.json"
        path.write_text(json.dumps(case[1]))
        argv = ["verify", "--in", str(path)]
    else:
        argv = ["verify", f"--modulus={case[1]}", f"--pairs={case[2]}"]
    _check_clean_exit(argv + ["--json"] * as_json)


# ---- fuzzed construct and scan numbers: refused up front or built small -------

# Zero, negative, or far past every bound, so a refusal comes before any
# loop or allocation that grows with the number; the small values let a
# valid argument sit beside a broken one.
_numbers = st.integers(max_value=0) | st.integers(min_value=10**7, max_value=10**60)
_small = st.sampled_from([3, 11, 19])


@st.composite
def _number_argvs(draw):
    if draw(st.booleans()):
        method = draw(st.sampled_from(sorted(_METHODS)))
        names = [name for name in _METHODS[method] if name != "beta"]
        return ["construct", f"--method={method}"] + [f"--{name}={draw(_numbers | _small)}" for name in names]
    kind = draw(st.sampled_from(["qr-primes", "cyclotomic-primes", "pq-pairs"]))
    argv = ["scan", f"--kind={kind}", f"--limit={draw(_numbers)}"]
    if kind == "cyclotomic-primes" or draw(st.booleans()):
        argv.append(f"--k={draw(_numbers)}")
    return argv


@settings(max_examples=250, derandomize=True, deadline=None)
@given(argv=_number_argvs(), as_json=st.booleans())
def test_construct_and_scan_fuzzed_numbers_exit_0_1_or_2(argv, as_json):
    _check_clean_exit(argv + ["--json"] * as_json)
