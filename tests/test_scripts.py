"""The scripts under scripts/ run end to end and report verified output."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_scan_params_builds_every_admissible_starter():
    out = run_script("scan_params.py", "--limit", "120")
    built = [line for line in out.splitlines() if "all_four=" in line]
    uncoverable = [line for line in out.splitlines() if "uncoverable" in line]
    assert len(built) > 20 and uncoverable
    assert all(line.endswith("all_four=True") for line in built)
    assert "  p=   11 " in out and "  (11, 19) " in out


def test_strong_skolem_sweep_reverifies_what_it_finds():
    out = run_script("strong_skolem_sweep.py", "--start", "11", "--stop", "20", "--timeout", "5")
    lines = out.splitlines()
    assert [line.split()[0] for line in lines] == ["n=", "n=", "n="]
    assert [int(line.split()[1]) for line in lines] == [11, 17, 19]
    assert all("re-verified=True" in line for line in lines)
