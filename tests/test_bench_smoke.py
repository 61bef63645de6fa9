"""Smoke target for the benchmark suite.

Benchmarks only run when someone asks for timings, so without this they
could silently rot (import errors, renamed experiment kwargs, stale
assertions).  This target runs every benchmark exactly once with timing
disabled, and runs ``scripts/perf_report.py --smoke``, inside the
ordinary test flow.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.bench

REPO_ROOT = Path(__file__).resolve().parent.parent


def _run(cmd):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else f"{src}{os.pathsep}{existing}"
    return subprocess.run(
        cmd, cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=600
    )


def test_benchmarks_run_once_without_timing():
    """Every bench_*.py runs once (--benchmark-disable: no timing claims)."""
    result = _run(
        [
            sys.executable,
            "-m",
            "pytest",
            "benchmarks",
            "-q",
            "--benchmark-disable",
            "-p",
            "no:cacheprovider",
        ]
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_perf_report_smoke_mode():
    """The perf report script's workloads all execute."""
    result = _run([sys.executable, "scripts/perf_report.py", "--smoke"])
    assert result.returncode == 0, result.stdout + result.stderr
    assert "rate_change_storm: ok" in result.stdout


def test_perf_report_report_suite_smoke_mode():
    """The report suite's miss-then-hit check passes against a fresh cache."""
    result = _run(
        [sys.executable, "scripts/perf_report.py", "--suite", "report", "--smoke"]
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "report runner: ok" in result.stdout


def test_perf_report_models_suite_smoke_mode():
    """The models suite runs reduced-size workloads once and verifies the
    analytic fast paths produce checksums identical to the retained
    reference implementations."""
    result = _run(
        [sys.executable, "scripts/perf_report.py", "--suite", "models", "--smoke"]
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "models suite: ok" in result.stdout
    assert "identical=False" not in result.stdout


def test_perf_report_hybrid_suite_smoke_mode():
    """The hybrid suite runs one small discrete-vs-hybrid head-to-head per
    phase (underloaded 'dht' and saturated 'surge') and verifies the
    outcomes agree with a clean oracle."""
    result = _run(
        [sys.executable, "scripts/perf_report.py", "--suite", "hybrid", "--smoke"]
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "hybrid suite: ok" in result.stdout


def test_bench_hybrid_artifact_has_saturated_phase():
    """The committed BENCH_hybrid.json carries the saturated phase and its
    10x gate was met when it was generated."""
    import json

    payload = json.loads((REPO_ROOT / "BENCH_hybrid.json").read_text())
    assert payload["saturated_speedup_target"] == 10.0
    assert payload["saturated_meets_target"] is True
    assert payload["saturated"], "saturated head-to-head rows missing"
    for entry in payload["saturated"].values():
        assert entry["outcomes_match"] and entry["oracle_clean"]
        assert entry["policy"] == "no-mitigation"


def test_perf_report_soak_suite_smoke_mode():
    """The soak suite records a tiny soak trace, replays it, and verifies
    it byte-for-byte (the RSS gate itself only runs in full mode)."""
    result = _run(
        [sys.executable, "scripts/perf_report.py", "--suite", "soak", "--smoke"]
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "soak suite: ok" in result.stdout


def test_bench_soak_artifact_meets_rss_gate():
    """The committed BENCH_soak.json shows flat memory across a 10x
    horizon (streaming, not retaining) and a byte-verified trace."""
    import json

    payload = json.loads((REPO_ROOT / "BENCH_soak.json").read_text())
    assert payload["rss_target"] == 1.1
    assert payload["meets_target"] is True
    assert payload["rss_ratio"] <= payload["rss_target"]
    assert payload["verified"] is True
    assert payload["oracle_clean"] is True
    assert payload["rows"], "per-horizon soak rows missing"


def test_perf_report_campaign_suite_smoke_mode():
    """The campaign suite runs a reduced sweep once and verifies a clean
    oracle plus a byte-identical in-process rerun."""
    result = _run(
        [sys.executable, "scripts/perf_report.py", "--suite", "campaign", "--smoke"]
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "campaign suite: ok" in result.stdout
    assert "clean=True" in result.stdout and "identical=True" in result.stdout
