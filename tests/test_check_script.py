"""Smoke test for ``scripts/check.sh``: the suite must run from any cwd.

Guards the bug class fixed in this repo's first green PR: a relative
``PYTHONPATH=src`` (or relative pytest paths) silently breaking as soon
as tests run from outside the repo root.  The script is exercised from a
temporary directory with ``PYTHONPATH`` scrubbed from the environment —
exactly the situation that broke the seed's example tests.

The subset run here (a handful of fast pipeline unit tests) deliberately
excludes this module, so the check cannot recurse into itself.
"""

import os
import shutil
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECK_SH = REPO_ROOT / "scripts" / "check.sh"

# Fast, dependency-light selection proving imports and collection work.
SMOKE_SELECTION = "tests/test_pipeline.py::TestPipelineRun"


@pytest.mark.skipif(shutil.which("bash") is None, reason="bash unavailable")
def test_check_script_runs_from_foreign_cwd(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run(
        ["bash", str(CHECK_SH), SMOKE_SELECTION],
        capture_output=True,
        text=True,
        cwd=tmp_path,  # decidedly not the repo root
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, (
        f"check.sh failed from {tmp_path}:\n{result.stdout[-2000:]}"
        f"\n{result.stderr[-2000:]}"
    )
    assert "passed" in result.stdout or "." in result.stdout


def test_check_script_is_executable():
    assert CHECK_SH.exists()
    assert os.access(CHECK_SH, os.X_OK), "scripts/check.sh must be chmod +x"


@pytest.mark.skipif(shutil.which("bash") is None, reason="bash unavailable")
def test_check_script_smoke_boots_and_drains_server(tmp_path):
    """``--smoke`` boots the HTTP service on an ephemeral port, hits
    /health over a real socket, and exits 0 after a graceful shutdown —
    from a foreign cwd, like everything else the script does."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run(
        ["bash", str(CHECK_SH), "--smoke"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, (
        f"check.sh --smoke failed:\n{result.stdout[-2000:]}"
        f"\n{result.stderr[-2000:]}"
    )
    assert "/health ok" in result.stdout
    assert "graceful shutdown clean" in result.stdout


def _run_check(args, cwd, timeout=300):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        ["bash", str(CHECK_SH), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=timeout,
    )


@pytest.mark.skipif(shutil.which("bash") is None, reason="bash unavailable")
def test_check_script_stress_repeats_selection(tmp_path):
    """``--stress N`` reruns a selection N times and reports every round."""
    result = _run_check(["--stress", "2", SMOKE_SELECTION], tmp_path)
    assert result.returncode == 0, (
        result.stdout[-2000:] + result.stderr[-2000:]
    )
    assert "stress round 1/2" in result.stdout
    assert "stress round 2/2" in result.stdout
    assert "stress: 2 round(s) passed" in result.stdout


@pytest.mark.skipif(shutil.which("bash") is None, reason="bash unavailable")
def test_check_script_stress_stops_at_first_failure(tmp_path):
    failing = tmp_path / "test_always_fails.py"
    failing.write_text("def test_fails():\n    assert False\n")
    result = _run_check(["--stress", "3", str(failing)], tmp_path)
    assert result.returncode == 1
    assert "stress round 1/3" in result.stdout
    assert "stress round 2/3" not in result.stdout
    assert "round 1/3 failed" in result.stderr


@pytest.mark.skipif(shutil.which("bash") is None, reason="bash unavailable")
@pytest.mark.parametrize("rounds", [[], ["0"], ["many"]])
def test_check_script_stress_needs_round_count(tmp_path, rounds):
    result = _run_check(["--stress", *rounds], tmp_path, timeout=60)
    assert result.returncode == 2
    assert "positive round count" in result.stderr
