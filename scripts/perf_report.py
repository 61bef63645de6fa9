#!/usr/bin/env python
"""Time the benchmark suites and emit JSON reports.

Seven suites, selected with ``--suite`` (or ``all`` to run every one):

* ``engine`` (default) -- the kernel microbenchmarks, timed as
  baseline-vs-after (``BENCH_engine.json``);
* ``report`` -- the full EXPERIMENTS.md regeneration through the cached
  parallel runner: cold serial, cold parallel, and warm-cache passes,
  with a byte-identical cross-check (``BENCH_report.json``);
* ``models`` -- the component-model hot paths (zoned streaming, remap
  counting, the metrics layer) plus full e01/e02/e03 regenerations,
  each timed against the retained reference implementations in the same
  process, asserting bit-identical checksums (``BENCH_models.json``);
* ``campaign`` -- the fault-campaign engine: scenario-run throughput for
  the standard e26 sweep plus an in-process byte-identical rerun check
  (``BENCH_campaign.json``);
* ``hybrid`` -- the fluid/discrete engine: discrete-vs-hybrid wall clock
  on overlap sizes both engines can run (outcomes must match; the
  recorded speedup must clear 20x) plus hybrid-only timings at a million
  concurrent clients (``BENCH_hybrid.json``);
* ``sweep`` -- the generative scenario sweep: 100 machine-generated
  scenarios on each engine, oracle-clean with a byte-identical rerun
  digest (``BENCH_sweep.json``);
* ``soak`` -- the soak campaign's memory contract: the same streaming
  soak recorded in two fresh subprocesses at a 10x horizon difference,
  each reporting its own peak RSS; the ratio must stay <= 1.1x and the
  trace must verify byte-for-byte (``BENCH_soak.json``).

Usage (from the repo root)::

    # Record an engine baseline with the current kernel:
    PYTHONPATH=src python scripts/perf_report.py --save baseline.json

    # Or record a baseline against an older kernel revision:
    git worktree add /tmp/oldrepo <rev>
    python scripts/perf_report.py --kernel-src /tmp/oldrepo/src --save baseline.json

    # After optimising, compare and write the summary:
    PYTHONPATH=src python scripts/perf_report.py \
        --baseline baseline.json --out BENCH_engine.json

    # Regenerate the report-suite numbers:
    PYTHONPATH=src python scripts/perf_report.py --suite report

    # Regenerate the component-model numbers (reference vs analytic):
    PYTHONPATH=src python scripts/perf_report.py --suite models

    # Regenerate the fault-campaign numbers:
    PYTHONPATH=src python scripts/perf_report.py --suite campaign

    # Regenerate the hybrid-engine numbers (discrete vs fluid/discrete):
    PYTHONPATH=src python scripts/perf_report.py --suite hybrid

    # Regenerate the soak RSS-flatness numbers:
    PYTHONPATH=src python scripts/perf_report.py --suite soak

    # Regenerate every BENCH_*.json in one pass:
    PYTHONPATH=src python scripts/perf_report.py --suite all

    # Smoke mode (CI): run every workload once, no timing claims:
    PYTHONPATH=src python scripts/perf_report.py --smoke
    PYTHONPATH=src python scripts/perf_report.py --suite report --smoke

Engine workloads are timed as best-of-``--repeats`` wall clock, which is
the standard way to reduce scheduler noise for sub-second
microbenchmarks; the report suite times whole regeneration passes.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def time_workload(fn, kwargs, repeats: int) -> dict:
    """Best-of-N wall-clock seconds plus the workload's checksum."""
    best = float("inf")
    checksum = None
    for _ in range(repeats):
        start = time.perf_counter()
        checksum = fn(**kwargs)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return {"seconds": best, "checksum": checksum}


def run_all(workloads: dict, repeats: int) -> dict:
    results = {}
    for name, (fn, kwargs) in workloads.items():
        results[name] = time_workload(fn, kwargs, repeats)
        print(f"  {name:20s} {results[name]['seconds'] * 1e3:9.2f} ms")
    return results


def run_report_suite(args) -> int:
    """Time full-report regeneration: cold serial / cold parallel / warm.

    All three passes must be byte-identical -- the cache and the pool
    are pure wall-clock levers.  Writes ``BENCH_report.json`` (or
    ``--out``).
    """
    import hashlib
    import os
    import shutil
    import tempfile

    from repro.analysis.cache import ResultCache
    from repro.experiments import ALL_EXPERIMENTS
    from repro.experiments.report import generate
    from repro.experiments.runner import run_suite

    cache_root = Path(tempfile.mkdtemp(prefix="repro-report-bench-"))
    try:
        if args.smoke:
            subset = ["e05", "a5"]
            first = run_suite(subset, cache=ResultCache(cache_root))
            second = run_suite(subset, cache=ResultCache(cache_root))
            ok = all(not r.cached for r in first) and all(r.cached for r in second)
            identical = [r.table.digest() for r in first] == [
                r.table.digest() for r in second
            ]
            for run in second:
                print(f"  {run.experiment}: {'hit' if run.cached else 'MISS'}")
            if not (ok and identical):
                print("report-suite smoke FAILED", file=sys.stderr)
                return 1
            print("  report runner: ok")
            return 0

        passes = {}
        print(f"timing the {len(ALL_EXPERIMENTS)}-experiment report "
              f"(workers={args.workers}, {os.cpu_count()} cores):")
        start = time.perf_counter()
        cold_serial = generate()
        passes["cold_serial_seconds"] = time.perf_counter() - start
        print(f"  cold serial, uncached   {passes['cold_serial_seconds']:8.2f} s")

        start = time.perf_counter()
        cold_parallel = generate(workers=args.workers, cache=ResultCache(cache_root))
        passes["cold_parallel_seconds"] = time.perf_counter() - start
        print(f"  cold parallel (pool)    {passes['cold_parallel_seconds']:8.2f} s")

        start = time.perf_counter()
        warm = generate(workers=args.workers, cache=ResultCache(cache_root))
        passes["warm_cache_seconds"] = time.perf_counter() - start
        print(f"  warm cache              {passes['warm_cache_seconds']:8.2f} s")

        byte_identical = cold_serial == cold_parallel == warm
        payload = {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "workers": args.workers,
            "experiments": len(ALL_EXPERIMENTS),
            **passes,
            "cold_parallel_speedup": passes["cold_serial_seconds"]
            / passes["cold_parallel_seconds"],
            "warm_speedup_vs_cold_serial": passes["cold_serial_seconds"]
            / passes["warm_cache_seconds"],
            "byte_identical": byte_identical,
            "report_sha256": hashlib.sha256(cold_serial.encode("utf-8")).hexdigest(),
        }
        out = args.out or "BENCH_report.json"
        Path(out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}")
        print(f"  cold parallel speedup   {payload['cold_parallel_speedup']:6.2f}x")
        print(f"  warm vs cold serial     {payload['warm_speedup_vs_cold_serial']:6.2f}x")
        print(f"  byte identical          {byte_identical}")
        return 0 if byte_identical else 1
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)


def run_campaign_suite(args) -> int:
    """Time the fault-campaign engine and re-verify its determinism.

    Runs the standard e26 campaign (workloads x families x policies x
    scenarios) twice in one process and requires byte-identical scorecard
    digests, then writes scenario-throughput numbers to
    ``BENCH_campaign.json``.  Smoke mode shrinks the request counts and
    skips the JSON.
    """
    from repro.faults.campaign import run_campaign

    kwargs = dict(seed=7, verify_determinism=False)
    if args.smoke:
        kwargs.update(scenarios_per_family=1, n_requests=120)

    start = time.perf_counter()
    first = run_campaign(**kwargs)
    elapsed = time.perf_counter() - start
    second = run_campaign(**kwargs)
    digest = first.table().digest()
    identical = digest == second.table().digest()
    clean = not first.violations
    scenarios = len(first.outcomes)
    print(f"  {scenarios} scenario runs in {elapsed:.2f} s "
          f"({scenarios / elapsed:.1f}/s), oracle clean={clean}, "
          f"rerun identical={identical}")
    if not (identical and clean):
        print("campaign suite FAILED", file=sys.stderr)
        return 1
    if args.smoke:
        print("  campaign suite: ok")
        return 0

    payload = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "scenario_runs": scenarios,
        "seconds": elapsed,
        "scenarios_per_second": scenarios / elapsed,
        "scorecard_sha256": digest,
        "byte_identical": identical,
        "oracle_violations": len(first.violations),
    }
    out = args.out or "BENCH_campaign.json"
    Path(out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


def run_hybrid_suite(args) -> int:
    """Time the hybrid engine against the discrete engine, then at scale.

    Overlap sizes (both engines can run them) are timed head-to-head on
    the same scenario and seed; the outcomes must agree on every count
    and work total, and the worst-case speedup must clear 20x.  Scale
    rows then time the hybrid engine alone at a million concurrent
    clients per workload.  A ``saturated`` phase repeats the exercise on
    the overloaded ``surge`` workload (timer-free policy, closed-form
    FIFO queueing reconstruction) with its own 10x gate -- discrete runs
    carry real queues there, so the baseline is slower per request but
    the fluid win is bounded by the in-window discrete share.  Writes
    ``BENCH_hybrid.json``; smoke mode runs one small head-to-head per
    phase with no timing claims.
    """
    from repro.core.hybrid import run_scenario_hybrid, scale_scenario, scale_workload
    from repro.faults import campaign

    seed, family, policy = 7, "magnitude", "fixed-timeout"

    def agrees(d, h) -> bool:
        if (d.n_requests, d.slo_violations, d.failed_requests) != (
            h.n_requests, h.slo_violations, h.failed_requests
        ):
            return False
        return all(
            abs(getattr(d, f) - getattr(h, f)) <= 1e-9
            for f in ("issued_work", "completed_work", "wasted_work")
        )

    def head_to_head(name: str, n_requests: int, repeats: int = 1,
                     run_policy: str = policy):
        workload = scale_workload(campaign.WORKLOADS[name], n_requests)
        scenario = scale_scenario(workload, family, seed, 0)
        discrete_s = hybrid_s = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            discrete = campaign.run_scenario(workload, scenario, run_policy)
            discrete_s = min(discrete_s, time.perf_counter() - start)
            start = time.perf_counter()
            hybrid = run_scenario_hybrid(workload, scenario, run_policy)
            hybrid_s = min(hybrid_s, time.perf_counter() - start)
        clean = not discrete.violations and not hybrid.violations
        return {
            "workload": name,
            "requests": n_requests,
            "policy": run_policy,
            "discrete_seconds": discrete_s,
            "hybrid_seconds": hybrid_s,
            "speedup": discrete_s / hybrid_s if hybrid_s else float("inf"),
            "outcomes_match": agrees(discrete, hybrid),
            "oracle_clean": clean,
        }

    if args.smoke:
        entry = head_to_head("dht", 2400)
        saturated_entry = head_to_head("surge", 960, run_policy="no-mitigation")
        for e in (entry, saturated_entry):
            if not (e["outcomes_match"] and e["oracle_clean"]):
                print("hybrid suite smoke FAILED", file=sys.stderr)
                return 1
        print("  hybrid suite: ok")
        return 0

    overlap = {}
    ok = True
    print("timing discrete vs hybrid (same scenario, same seed, "
          f"policy={policy!r}, best of {args.repeats}):")
    for name, n_requests in (("dht", 20_000), ("dht", 60_000),
                             ("raid10", 20_000)):
        entry = head_to_head(name, n_requests, repeats=args.repeats)
        ok = ok and entry["outcomes_match"] and entry["oracle_clean"]
        overlap[f"{name}_{n_requests}"] = entry
        print(f"  {name:8s} n={n_requests:<7d} discrete "
              f"{entry['discrete_seconds']:7.2f} s  hybrid "
              f"{entry['hybrid_seconds']:7.3f} s  "
              f"{entry['speedup']:6.1f}x  match={entry['outcomes_match']}")

    saturated = {}
    print("timing discrete vs hybrid on the saturated 'surge' workload "
          f"(policy='no-mitigation', best of {args.repeats}):")
    for name, n_requests in (("surge", 20_000), ("surge", 60_000)):
        entry = head_to_head(name, n_requests, repeats=args.repeats,
                             run_policy="no-mitigation")
        ok = ok and entry["outcomes_match"] and entry["oracle_clean"]
        saturated[f"{name}_{n_requests}"] = entry
        print(f"  {name:8s} n={n_requests:<7d} discrete "
              f"{entry['discrete_seconds']:7.2f} s  hybrid "
              f"{entry['hybrid_seconds']:7.3f} s  "
              f"{entry['speedup']:6.1f}x  match={entry['outcomes_match']}")

    scale = {}
    print("timing hybrid alone at a million clients:")
    for name in ("raid10", "dht", "surge"):
        run_policy = "no-mitigation" if name == "surge" else policy
        workload = scale_workload(campaign.WORKLOADS[name], 1_000_000)
        scenario = scale_scenario(workload, family, seed, 0)
        start = time.perf_counter()
        outcome = run_scenario_hybrid(workload, scenario, run_policy)
        seconds = time.perf_counter() - start
        clean = not outcome.violations
        ok = ok and clean
        scale[name] = {
            "clients": 1_000_000,
            "seconds": seconds,
            "discrete_requests": outcome.n_requests,
            "oracle_clean": clean,
        }
        print(f"  {name:8s} 10^6 clients in {seconds:7.3f} s "
              f"({outcome.n_requests} requests resolved, clean={clean})")

    min_speedup = min(e["speedup"] for e in overlap.values())
    meets_target = min_speedup >= 20.0
    saturated_min = min(e["speedup"] for e in saturated.values())
    saturated_meets = saturated_min >= 10.0
    payload = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "policy": policy,
        "scenario_family": family,
        "overlap": overlap,
        "saturated": saturated,
        "scale": scale,
        "min_speedup": min_speedup,
        "speedup_target": 20.0,
        "meets_target": meets_target,
        "saturated_min_speedup": saturated_min,
        "saturated_speedup_target": 10.0,
        "saturated_meets_target": saturated_meets,
    }
    out = args.out or "BENCH_hybrid.json"
    Path(out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    print(f"  worst-case speedup      {min_speedup:6.1f}x "
          f"(target 20x: {'met' if meets_target else 'MISSED'})")
    print(f"  saturated worst case    {saturated_min:6.1f}x "
          f"(target 10x: {'met' if saturated_meets else 'MISSED'})")
    if not ok:
        print("hybrid suite FAILED: outcome mismatch or oracle violation",
              file=sys.stderr)
        return 1
    return 0 if (meets_target and saturated_meets) else 1


def run_sweep_suite(args) -> int:
    """Time the generative scenario sweep and re-verify its determinism.

    Runs ``repro.scenario.run_sweep`` on both engines in one process:
    every generated scenario must come back oracle-clean, and a second
    sweep under the same seed must reproduce the sweep digest
    byte-identically.  Writes scenario-throughput numbers to
    ``BENCH_sweep.json``; smoke mode shrinks the count and skips the
    JSON.
    """
    from repro.scenario import run_sweep

    count = 10 if args.smoke else 100
    entries = {}
    ok = True
    for engine in ("discrete", "hybrid"):
        start = time.perf_counter()
        first = run_sweep(seed=7, count=count, engine=engine,
                          verify_determinism=False)
        elapsed = time.perf_counter() - start
        second = run_sweep(seed=7, count=count, engine=engine,
                           verify_determinism=False)
        identical = first.digest() == second.digest()
        clean = not first.violations
        ok = ok and identical and clean
        entries[engine] = {
            "scenarios": count,
            "seconds": elapsed,
            "scenarios_per_second": count / elapsed if elapsed else float("inf"),
            "sweep_sha256": first.digest(),
            "byte_identical": identical,
            "oracle_violations": len(first.violations),
            "hybrid_fallbacks": len(first.fallbacks),
        }
        print(f"  {engine:8s} {count} scenarios in {elapsed:.2f} s "
              f"({count / elapsed:.1f}/s), oracle clean={clean}, "
              f"rerun identical={identical}, "
              f"fallbacks={len(first.fallbacks)}")
    if not ok:
        print("sweep suite FAILED: oracle violation or digest drift",
              file=sys.stderr)
        return 1
    if args.smoke:
        print("  sweep suite: ok")
        return 0

    payload = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": 7,
        "engines": entries,
    }
    out = args.out or "BENCH_sweep.json"
    Path(out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


#: The soak RSS child: records a soak to a trace with no windows
#: retained and reports its own peak RSS.  Run in a fresh subprocess per
#: horizon so ``ru_maxrss`` (a process-lifetime high-water mark) reflects
#: that horizon alone.
_SOAK_CHILD = """
import json, resource, sys, time
from repro.telemetry import record_soak
n_windows, n_requests, trace = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
start = time.perf_counter()
result = record_soak(trace, seed=7, n_windows=n_windows,
                     injectors_per_window=2, n_requests=n_requests,
                     engine="hybrid", retain_windows=False)
seconds = time.perf_counter() - start
import os
print(json.dumps({
    "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "windows": result.n_windows,
    "requests": result.requests,
    "horizon_s": result.horizon,
    "oracle_clean": result.ok,
    "seconds": seconds,
    "trace_bytes": os.path.getsize(trace),
}))
"""


def run_soak_suite(args) -> int:
    """Gate the soak campaign's O(1)-memory claim and verify its traces.

    Two fresh subprocesses record the same soak (hybrid engine, windows
    streamed to a trace, none retained) at a 10x horizon difference;
    each reports its own ``ru_maxrss``.  The large run's peak RSS must
    stay within 1.1x of the small run's -- a flat memory profile across
    a 10x virtual-horizon growth -- and the small trace must replay and
    verify byte-for-byte.  Writes ``BENCH_soak.json``; smoke mode does
    an in-process record/replay/verify round trip with no RSS claim.
    """
    import os
    import subprocess
    import tempfile

    from repro.telemetry import record_soak, replay_trace, verify_trace

    if args.smoke:
        with tempfile.TemporaryDirectory(prefix="repro-soak-smoke-") as tmp:
            trace = os.path.join(tmp, "soak.jsonl")
            result = record_soak(trace, seed=7, n_windows=3,
                                 injectors_per_window=1, n_requests=40,
                                 engine="hybrid", retain_windows=False)
            replay = replay_trace(trace)
            verify = verify_trace(trace)
            ok = (result.ok and replay.consistent and replay.read.clean_close
                  and len(replay.windows) == 3 and verify.ok)
            if not ok:
                print("soak suite smoke FAILED", file=sys.stderr)
                if not verify.ok:
                    print(verify.render(), file=sys.stderr)
                return 1
        print("  soak suite: ok")
        return 0

    n_requests = 2_000
    windows_small, windows_large = 6, 60
    env = dict(os.environ)
    env["PYTHONPATH"] = args.kernel_src + os.pathsep + env.get("PYTHONPATH", "")
    rows = {}
    print(f"soak RSS across a 10x horizon ({n_requests} clients/window, "
          "hybrid, windows streamed to trace, none retained):")
    with tempfile.TemporaryDirectory(prefix="repro-soak-bench-") as tmp:
        for label, n_windows in (("small", windows_small),
                                 ("large", windows_large)):
            trace = os.path.join(tmp, f"soak_{label}.jsonl")
            proc = subprocess.run(
                [sys.executable, "-c", _SOAK_CHILD, str(n_windows),
                 str(n_requests), trace],
                env=env, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(f"soak child ({label}) failed:\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            rows[label] = json.loads(proc.stdout.strip().splitlines()[-1])
            row = rows[label]
            print(f"  {label:6s} {row['windows']:3d} windows "
                  f"({row['horizon_s'] / 3600.0:6.1f}h virtual)  rss "
                  f"{row['maxrss_kb'] / 1024.0:7.1f} MiB  "
                  f"{row['seconds']:6.2f} s  trace "
                  f"{row['trace_bytes'] / 1024.0:8.1f} KiB  "
                  f"clean={row['oracle_clean']}")
        verify = verify_trace(os.path.join(tmp, "soak_small.jsonl"))
        print(f"  {verify.render()}")

    rss_ratio = rows["large"]["maxrss_kb"] / rows["small"]["maxrss_kb"]
    meets_target = rss_ratio <= 1.1
    clean = rows["small"]["oracle_clean"] and rows["large"]["oracle_clean"]
    payload = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "n_requests": n_requests,
        "rows": rows,
        "rss_ratio": rss_ratio,
        "rss_target": 1.1,
        "meets_target": meets_target,
        "verified": verify.ok,
        "oracle_clean": clean,
    }
    out = args.out or "BENCH_soak.json"
    Path(out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    print(f"  rss ratio (10x horizon) {rss_ratio:6.3f}x "
          f"(target <= 1.1x: {'met' if meets_target else 'MISSED'})")
    if not (clean and verify.ok):
        print("soak suite FAILED: oracle violation or verify mismatch",
              file=sys.stderr)
        return 1
    return 0 if meets_target else 1


def run_models_suite(args) -> int:
    """Time the component-model hot paths against their retained
    reference implementations and write ``BENCH_models.json``.

    Every workload is run both ways in one process; the checksums must
    be *identical* (the analytic paths are bit-exact, not approximate),
    so any drift fails the run before a speedup is reported.
    """
    from models_workloads import MACRO_EXPERIMENTS, MODEL_WORKLOADS, experiment_digest

    repeats = 1 if args.smoke else args.repeats
    workloads = dict(MODEL_WORKLOADS)
    if args.smoke:
        # Reduced sizes: enough to exercise every code path, not to time.
        workloads = {
            "zoned_stream": (MODEL_WORKLOADS["zoned_stream"][0],
                             {"nblocks": 4_000, "n_zones": 16}),
            "random_io_remaps": (MODEL_WORKLOADS["random_io_remaps"][0],
                                 {"n_requests": 400}),
            "metric_raid_run": (MODEL_WORKLOADS["metric_raid_run"][0],
                                {"n_requests": 400, "n_slos": 10}),
        }

    entries = {}
    ok = True
    print(f"timing {len(workloads)} model workloads + "
          f"{len(MACRO_EXPERIMENTS)} experiment macros "
          f"(best of {repeats}, reference vs analytic):")
    for name, (fn, kwargs) in workloads.items():
        ref = time_workload(fn, {**kwargs, "impl": "reference"}, repeats)
        opt = time_workload(fn, {**kwargs, "impl": "analytic"}, repeats)
        identical = ref["checksum"] == opt["checksum"]
        ok = ok and identical
        entries[name] = {
            "reference_seconds": ref["seconds"],
            "analytic_seconds": opt["seconds"],
            "speedup": ref["seconds"] / opt["seconds"] if opt["seconds"] else float("inf"),
            "checksum": repr(opt["checksum"]),
            "checksum_identical": identical,
        }
        print(f"  {name:20s} {entries[name]['speedup']:6.2f}x  "
              f"identical={identical}")

    macro_kwargs = {"e01": {"n_blocks": 60}, "e02": {"n_blocks": 60},
                    "e03": {"nblocks": 1200}} if args.smoke else {}
    for exp in MACRO_EXPERIMENTS:
        kwargs = macro_kwargs.get(exp, {})
        ref = time_workload(experiment_digest, {"experiment": exp, "impl": "reference", **kwargs}, repeats)
        opt = time_workload(experiment_digest, {"experiment": exp, "impl": "analytic", **kwargs}, repeats)
        identical = ref["checksum"] == opt["checksum"]
        ok = ok and identical
        entries[exp] = {
            "reference_seconds": ref["seconds"],
            "analytic_seconds": opt["seconds"],
            "speedup": ref["seconds"] / opt["seconds"] if opt["seconds"] else float("inf"),
            "checksum": opt["checksum"],
            "checksum_identical": identical,
        }
        print(f"  {exp:20s} {entries[exp]['speedup']:6.2f}x  identical={identical}")

    if not ok:
        print("models suite FAILED: checksum drift between reference and "
              "analytic implementations", file=sys.stderr)
        return 1
    if args.smoke:
        print("  models suite: ok")
        return 0

    payload = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repeats": repeats,
        "workloads": entries,
    }
    out = args.out or "BENCH_models.json"
    Path(out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


def run_engine_suite(args) -> int:
    """Time the kernel microbenchmarks (the default suite).

    With ``--save`` the raw timings are written as a baseline; with
    ``--baseline`` they are compared against one and the summary goes to
    ``BENCH_engine.json``.  Under ``--suite all``, when neither is given,
    the ``baseline_seconds`` stored in an existing ``BENCH_engine.json``
    are reused so the comparison still has a denominator.
    """
    from engine_workloads import WORKLOADS

    if args.smoke:
        for name, (fn, kwargs) in WORKLOADS.items():
            fn(**kwargs)
            print(f"  {name}: ok")
        return 0

    print(f"timing {len(WORKLOADS)} workloads (best of {args.repeats}):")
    results = run_all(WORKLOADS, args.repeats)
    payload = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repeats": args.repeats,
        "results": results,
    }

    if args.save:
        Path(args.save).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.save}")
        return 0

    baseline_results = None
    if args.baseline:
        baseline_results = json.loads(Path(args.baseline).read_text())["results"]
    elif args.suite == "all":
        prior = Path(args.out or "BENCH_engine.json")
        if prior.is_file():
            stored = json.loads(prior.read_text()).get("workloads", {})
            baseline_results = {
                name: {"seconds": entry["baseline_seconds"]}
                for name, entry in stored.items()
                if "baseline_seconds" in entry
            }
            print(f"  (baseline seconds reused from {prior})")

    if baseline_results is None:
        return 0

    report = {
        "python": payload["python"],
        "platform": payload["platform"],
        "repeats": args.repeats,
        "workloads": {},
    }
    for name, after in results.items():
        base = baseline_results.get(name)
        entry = {"after_seconds": after["seconds"], "checksum": after["checksum"]}
        if base is not None:
            entry["baseline_seconds"] = base["seconds"]
            entry["speedup"] = base["seconds"] / after["seconds"] if after["seconds"] else float("inf")
        report["workloads"][name] = entry
    out = args.out or "BENCH_engine.json"
    Path(out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    for name, entry in report["workloads"].items():
        if "speedup" in entry:
            print(f"  {name:20s} {entry['speedup']:6.2f}x")
    return 0


SUITES = {
    "engine": run_engine_suite,
    "report": run_report_suite,
    "models": run_models_suite,
    "campaign": run_campaign_suite,
    "hybrid": run_hybrid_suite,
    "sweep": run_sweep_suite,
    "soak": run_soak_suite,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite",
                        choices=tuple(SUITES) + ("all",),
                        default="engine",
                        help="engine microbenchmarks (default), full-report "
                             "regeneration timings, component-model "
                             "reference-vs-analytic timings, fault-campaign "
                             "throughput + determinism, hybrid-engine "
                             "discrete-vs-fluid timings, or all of them")
    parser.add_argument("--save", metavar="PATH", help="write raw timings to PATH")
    parser.add_argument("--baseline", metavar="PATH", help="baseline timings to compare against")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="report path (default BENCH_engine.json / BENCH_report.json)")
    parser.add_argument("--repeats", type=int, default=5, help="best-of-N timing repeats")
    parser.add_argument("--workers", type=int, default=4,
                        help="pool size for the report suite's parallel passes")
    parser.add_argument("--smoke", action="store_true",
                        help="run each workload once with no timing output (CI rot check)")
    parser.add_argument("--kernel-src", metavar="PATH", default=str(REPO_ROOT / "src"),
                        help="src/ tree whose kernel to import (e.g. a `git worktree` "
                             "of the pre-optimisation revision, to record a baseline)")
    args = parser.parse_args(argv)

    if not Path(args.kernel_src, "repro").is_dir():
        parser.error(f"--kernel-src {args.kernel_src}: no repro package found there")
    if args.baseline and not Path(args.baseline).is_file():
        parser.error(f"--baseline {args.baseline}: file not found")
    if args.suite == "all" and args.out:
        parser.error("--out is per-suite; each suite writes its own "
                     "BENCH_*.json under --suite all")

    for entry in (args.kernel_src, str(REPO_ROOT / "benchmarks")):
        if entry not in sys.path:
            sys.path.insert(0, entry)

    if args.suite == "all":
        rc = 0
        for name, suite_fn in SUITES.items():
            print(f"== {name} suite ==")
            rc = max(rc, suite_fn(args))
        return rc

    return SUITES[args.suite](args)


if __name__ == "__main__":
    raise SystemExit(main())
