import json

import pytest

from skolem_starters.cli import main
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


def test_scan_cyclotomic_requires_k(capsys):
    code, _, err = run(capsys, "scan", "--kind", "cyclotomic-primes", "--limit", "100")
    assert code == 2
    assert "--k" in err


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
    ],
)
def test_verify_malformed_document_exits_2(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--in", str(path), "--json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_verify_well_formed_document_still_verifies(capsys, tmp_path):
    path = tmp_path / "good.json"
    path.write_text(json.dumps(VALID_DOC))
    code, out, _ = run(capsys, "verify", "--in", str(path), "--json")
    assert code == 1  # Z_3 is Skolem but not strong
    assert json.loads(out)["classification"]["skolem"] is True
