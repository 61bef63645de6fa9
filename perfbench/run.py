"""The repository's benchmark: one workload, timed, checked, summarised.

    python3 perfbench/run.py --workload campaign-discrete --seed 7 \
        --seconds 28 --trace 0

``--workload all`` runs every workload in turn, each printing its own
lines.  Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` prints the per-layer split from spans around the
program's public entry points, with the layer predictions checked.
Every measurement runs in a fresh interpreter (``child.py``), and the
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The lines before it repeat every metric by name and unit, with those
that are printed and not gated: pass and set-up seconds, those defined
on one workload only (``requests_per_s``, ``run_p90_ms``,
``trace_bytes_per_request``) and ``failed_fraction``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / ".out"  # where child.py writes its files

WORKLOAD_NAMES = ("campaign-discrete", "hybrid-scale", "soak-traced", "report-models")

#: Every run, child processes included, ends within this many seconds.
TIME_LIMIT_S = 170.0

#: CPU seconds of ``child.reference_load`` on an idle host of the machine
#: this benchmark was defined on (2-vCPU Xeon virtual machine, Python
#: 3.11.7).  ``setup_s`` is the set-up's CPU time scaled to that speed.
REFERENCE_S = 0.018


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _spawn(args, workload: str, deadline: float) -> Dict:
    """Run ``child.py`` once; its JSON result line, parsed."""
    # One thread: numpy's BLAS pool would add CPU time of its own.
    env = dict(os.environ, PYTHONHASHSEED="0", REPRO_NO_NATIVE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("no time left for another benchmark process")
    command += ["--spawned-at", repr(time.monotonic())]
    # A process group of its own, so a timeout also stops its set-up probes.
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        stdout, __ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, command)
    return json.loads(stdout.decode("utf-8").strip().splitlines()[-1])


def end_to_end(run: Dict) -> Dict[str, Optional[float]]:
    """Every end-to-end metric; None where it is not defined."""
    walls = run["walls"]
    units = run["units_ms"]
    requests = run["requests"][0] if run["requests"] else 0
    return {
        # CPU time, because the host takes this process's CPU away for
        # stretches of seconds; wall time counts those stretches, CPU
        # time does not.  Each is divided by the reference load's CPU time
        # measured with it, so that the host's speed, which drifts by
        # tens of percent within minutes, cancels out.  Medians over the
        # run's samples.
        "setup_s": REFERENCE_S * statistics.median(
            s["setup_s"] / s["reference_s"] for s in run["setups"]),
        "setup_wall_s": statistics.median(s["setup_wall_s"] for s in run["setups"]),
        "cpu_s": statistics.median(run["cpus"]),
        "pass_ref": statistics.median(c / r for c, r in zip(run["cpus"], run["refs"])),
        "wall_s": statistics.median(walls),
        "requests_per_s": sum(run["requests"]) / sum(walls) if requests else None,
        "run_p50_ms": statistics.median(units) if units else None,
        # p90 needs >= 10 samples beyond it in every pass.
        "run_p90_ms": (statistics.quantiles(units, n=10, method="inclusive")[8]
                       if len(units) / len(walls) >= 100 else None),
        "peak_rss_mb": run["peak_rss_mb"],
        "trace_bytes_per_request": (run["trace_bytes"][0] / requests
                                    if run["trace_bytes"] and run["trace_bytes"][0]
                                    and requests else None),
        "failed_fraction": run["failed"] / run["attempted"],
    }


UNITS = {
    "setup_s": "s", "setup_wall_s": "s", "cpu_s": "s", "pass_ref": "ref", "wall_s": "s",
    "requests_per_s": "1/s", "run_p50_ms": "ms", "run_p90_ms": "ms", "peak_rss_mb": "MB",
    "trace_bytes_per_request": "B", "failed_fraction": "ratio",
}


def _benchmark_spec() -> Dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _check_predictions(workload: str, layers: Dict[str, float]) -> List[str]:
    """The traced split against predictions.json; one line per claim."""
    with open(HERE / "predictions.json", encoding="utf-8") as fh:
        claims = [c for c in json.load(fh)["checks"] if c["workload"] == workload]
    # Every layer's self time competes; the pass totals do not.
    candidates = [m["name"] for m in _benchmark_spec()["per_layer"]
                  if m["unit"] == "s" and m["name"] not in ("other_s", "traced_wall_s")]
    lines = []
    for claim in claims:
        group = claim["metrics"]
        values = {n: layers[n] for n in candidates if n not in group}
        label = " + ".join(group)
        values[label] = sum(layers[n] for n in group)
        order = sorted(values, key=lambda n: -values[n])
        rank = order.index(label) + 1
        ok = rank <= claim["within_top"]
        lines.append(
            f"prediction {'PASS' if ok else 'FAIL'}: {claim['claim']} "
            f"(rank {rank}; top: "
            + ", ".join(f"{n}={values[n]:.4f}" for n in order[:3]) + ")"
        )
    return lines


def _run_one(args, workload: str, spec: Dict) -> int:
    """Measure one workload and print its lines; the exit status."""
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        run = _spawn(args, workload, deadline)
    except (subprocess.SubprocessError, TimeoutError, ValueError) as exc:
        print(f"error: benchmark process failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(OUT_DIR, ignore_errors=True)
    correct = run["failed"] == 0
    for problem in run["problems"]:
        print(f"problem: {problem}")
    print(f"workload {workload} seed {args.seed}: {len(run['walls'])} untraced "
          f"and {len(run['traced_walls'])} traced passes; outputs "
          + ("checked against the pins" if run["pins_checked"]
             else "checked by the oracle, reruns and replay (no pins at this seed)"))
    print("pass walls (s): untraced " + " ".join(f"{w:.3f}" for w in run["walls"])
          + "; traced " + " ".join(f"{w:.3f}" for w in run["traced_walls"]))
    print("pass CPU (s): " + " ".join(f"{c:.3f}" for c in run["cpus"])
          + "; reference CPU (ms) " + " ".join(f"{1e3 * r:.2f}" for r in run["refs"]))
    print("set-up CPU (s): " + " ".join(f"{s['setup_s']:.3f}" for s in run["setups"])
          + "; reference CPU (ms) "
          + " ".join(f"{1e3 * s['reference_s']:.2f}" for s in run["setups"])
          + "; wall (s) " + " ".join(f"{s['setup_wall_s']:.3f}" for s in run["setups"]))
    if args.trace:
        if "layers" not in run:
            print("error: no traced pass completed", file=sys.stderr)
            return 1
        values = run["layers"]
        attributed = values["traced_wall_s"] - values["other_s"]
        if values["other_s"] < -1e-9:
            correct = False
            print(f"problem: layer self times sum to {attributed:.6f} s, "
                  f"more than the traced wall {values['traced_wall_s']:.6f} s")
        for name, unit in ((m["name"], m["unit"]) for m in spec["per_layer"]):
            print(f"  {name:26s} {values[name]:14.6f} {unit}")
        for line in _check_predictions(workload, values):
            print(line)
    else:
        values = end_to_end(run)
        for name, value in values.items():
            shown = "n/a (not defined on this workload)" if value is None else f"{value:.6f}"
            print(f"  {name:26s} {shown} {UNITS[name]}")
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = _benchmark_spec()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    return max(_run_one(args, name, spec) for name in names)


if __name__ == "__main__":
    sys.exit(main())
