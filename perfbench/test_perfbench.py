"""Self-tests of the benchmark: planted wrong answers and a forced search
timeout must count as failures, and the metric names printed must be
the ones BENCHMARK.json declares.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from time import monotonic

import run  # puts the checkout's src/ on sys.path
import harness
import tracer
import workloads
from skolem_starters import constructions, search, starters

ROOT = run.ROOT
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _scan_build(tmp_path):
    return workloads.ScanBuild(1, str(tmp_path), monotonic() + 60)


def test_correct_item_passes(tmp_path):
    rnd = harness.Round()
    _scan_build(tmp_path)._item(rnd, "qr 19 2", ("qr_starter", 19, 2), True, False)
    assert (rnd.attempted, rnd.failed) == (4, 0)


def test_planted_wrong_starter_fails(tmp_path, monkeypatch):
    real = constructions.qr_starter

    def wrong(p, beta=2):
        s = real(p, beta)
        (a, b), (c, d), *rest = [(pr.lo, pr.hi) for pr in s.pairs]
        bad = starters.Starter.from_pairs(p, [(a, d), (c, b), *rest])
        return bad.with_metadata(recipe=s.recipe, classification=s.classification)

    monkeypatch.setattr(constructions, "qr_starter", wrong)
    rnd = harness.Round()
    _scan_build(tmp_path)._item(rnd, "qr 19 2", ("qr_starter", 19, 2), True, False)
    assert rnd.failed == 1 and rnd.failed / rnd.attempted > 0


def test_unexpected_refusal_fails(tmp_path, monkeypatch):
    def refuse(*args):
        raise constructions.CoverageFailure("planted")

    monkeypatch.setattr(constructions, "pq_starter", refuse)
    rnd = harness.Round()
    _scan_build(tmp_path)._item(rnd, "pq 11 19 2", ("pq_starter", 11, 19, 2), True, False)
    assert rnd.failed == 1


def test_expected_refusal_is_correct(tmp_path):
    rnd = harness.Round()
    # gcd(42, 58) = 2 admits 43 * 59; gcd(18, 42) = 6 refuses 19 * 43.
    _scan_build(tmp_path)._item(rnd, "pq 19 43 2", ("pq_starter", 19, 43, 2), True, True)
    assert (rnd.attempted, rnd.failed) == (1, 0)
    assert rnd.seconds("reject") > 0 and rnd.seconds("solve") == 0


def test_planted_wrong_count_fails(tmp_path, monkeypatch):
    real = search.exhaustive_skolem_search

    def one_short(n, **kwargs):
        return real(n, **kwargs)[:-1]

    monkeypatch.setattr(search, "exhaustive_skolem_search", one_short)
    rnd = harness.Round()
    workloads.SearchLadder(1, str(tmp_path), monotonic() + 60).find_all(rnd, 17, True, None)
    assert rnd.failed == 1


def test_right_count_passes(tmp_path):
    rnd = harness.Round()
    ladder = workloads.SearchLadder(1, str(tmp_path), monotonic() + 60)
    ladder.find_all(rnd, 11, False, ladder.enumerate(rnd, 11))
    assert (rnd.attempted, rnd.failed) == (4, 0)


def test_forced_timeout_is_failed_not_exhausted(tmp_path):
    ladder = workloads.SearchLadder(1, str(tmp_path), deadline=monotonic())
    rnd = harness.Round(tracer.Tracer())
    rnd.tracer.install()
    try:
        ladder.first(rnd, 23, strong=False)
    finally:
        rnd.tracer.uninstall()
    assert rnd.failed == 1 and "SearchTimeout" in rnd.failures[0]
    layers = tracer.layer_metrics(rnd.tracer.spans, rnd.wall)
    assert layers["search.timeouts"] == 1
    assert layers["search.exhausted"] == 0


def test_end_to_end_names_match_benchmark_json():
    rnd = harness.Round()
    rnd.op("one", lambda: None, "solve")
    metrics = run.end_to_end_metrics([rnd], [0.1], 1.0)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == declared


def test_times_are_scaled_by_the_calibration():
    calibration = harness.Calibration()
    rnd = harness.Round(calibration=calibration)
    rnd.op("sleep", lambda: time.sleep(0.2), "solve")
    assert sum(calibration.samples) >= 0.2 * calibration.SHARE
    scale = calibration.scale()
    assert scale == harness.REFERENCE_S / statistics.median(calibration.samples)
    metrics = run.end_to_end_metrics([rnd], [0.1], scale)
    assert metrics["setup_s"]["value"] == 0.1 * scale
    assert metrics["solve_s"]["value"] == rnd.seconds("solve") * scale


def test_layer_names_match_benchmark_json(tmp_path):
    workload = _scan_build(tmp_path)
    plain = harness.Round()
    workload._item(plain, "qr 19 2", ("qr_starter", 19, 2), True, False)
    traced = harness.Round(tracer.Tracer())
    traced.tracer.install()
    try:
        workload._item(traced, "qr 19 2", ("qr_starter", 19, 2), True, False)
    finally:
        traced.tracer.uninstall()
    metrics = run.layer_metrics([plain, traced])
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    assert metrics["constructions.qr.self_s"]["value"] > 0
    assert metrics["starters.verify.witness_frac"]["value"] == 1.0


def test_tracer_restores_every_binding():
    before = (constructions.qr_starter, constructions.find_common_primitive_root,
              starters.Starter.__dict__["from_pairs"], search.is_primitive_root)
    t = tracer.Tracer()
    t.install()
    assert constructions.qr_starter is not before[0]
    t.uninstall()
    after = (constructions.qr_starter, constructions.find_common_primitive_root,
             starters.Starter.__dict__["from_pairs"], search.is_primitive_root)
    assert after == before


def test_tracer_skips_functions_the_library_lost(monkeypatch):
    from skolem_starters import modnt

    monkeypatch.delattr(modnt, "crt_inverse")
    monkeypatch.delattr(modnt, "GroupContext")
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert not hasattr(modnt, "crt_inverse")


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "big-pq", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
