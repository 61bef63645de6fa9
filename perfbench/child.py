"""One benchmark process: set up a workload, then time passes of it.

``run.py`` starts this script in a fresh interpreter for every
measurement, so imports, peak memory and set-up are measured per
process.  It also times a fixed reference load, the measure of the
host's speed that ``setup_s`` and ``pass_ref`` are divided by.  The raw
samples go to standard output as one JSON line; anything the program
prints goes to standard error.

    python3 perfbench/child.py --workload NAME --seed N --seconds S \
        --trace 0|1 --spawned-at MONOTONIC [--setup-only]
"""

from __future__ import annotations

import argparse
import heapq
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Files a run writes (the soak's trace); run.py removes the directory.
OUT_DIR = HERE / ".out"
#: Set-up samples per run: this process plus set-up-only processes.
SETUP_SAMPLES = 5
#: Repeats of the reference load after set-up; the sample is their median.
REFERENCE_REPEATS = 5
#: During a pass: a short reference load every this many CPU seconds.
SAMPLE_EVERY_S = 0.05
SAMPLE_ITERATIONS = 3_000


def reference_load(iterations: int = 30_000) -> float:
    """A fixed interpreter-bound load of the simulator's kind: heap, dict, float."""
    heap: list = []
    table: dict = {}
    x = 0.0
    for i in range(iterations):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        if len(heap) > 256:
            heapq.heappop(heap)
        table[i & 1023] = x
        x = 0.5 * x + table.get((i * 31) & 1023, 1.0)
    return x


def reference_cpu() -> float:
    """CPU seconds of :func:`reference_load` on this CPU, now."""
    times = []
    for __ in range(REFERENCE_REPEATS):
        start = time.thread_time()
        reference_load()
        times.append(time.thread_time() - start)
    return statistics.median(times)


class SpeedSampler:
    """Times a short reference load all through a pass, off its clocks.

    The host's speed changes within seconds, so one sample before and
    one after a pass of several seconds can miss what the pass ran at.
    SIGPROF interrupts the pass every :data:`SAMPLE_EVERY_S` of CPU time
    (between two bytecodes), and the handler times the load with the
    stopwatch paused, so the pass and its units do not count it.
    """

    def __init__(self, watch):
        self.watch = watch
        self.samples: list = []

    def _sample(self, signum=None, frame=None) -> None:
        if self.watch.is_paused:
            return  # a check is running; sample at the next tick
        with self.watch.paused():
            start = time.thread_time()
            reference_load(SAMPLE_ITERATIONS)
            self.samples.append(time.thread_time() - start)

    @contextmanager
    def running(self):
        """Sample through the block; ``samples`` holds the block's samples."""
        self.samples = []
        self._sample()
        previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() just before this process started")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def _probe_setup(args) -> dict:
    """The set-up sample of a fresh process that only sets up."""
    command = [sys.executable, __file__, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
               "--setup-only"]
    command += ["--spawned-at", repr(time.monotonic())]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=60, check=True)
    return json.loads(done.stdout.decode("utf-8").strip().splitlines()[-1])


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    result_out, sys.stdout = sys.stdout, sys.stderr

    from workloads import WORKLOADS, PassResult, Stopwatch, check_pins
    from checks import PINS_PATH

    watch = Stopwatch()
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR, watch)
    tracer = None
    setup_scenario_s = 0.0
    if args.trace:
        import layers
        from spans import Tracer

        tracer = Tracer(clock=watch.now)
        patch = layers.instrument(tracer)
        try:
            workload.setup()
        finally:
            patch.undo()
        setup_scenario_s = tracer.self_time.get("scenario.load_s", 0.0)
        tracer.reset()
    else:
        workload.setup()
    # CPU time since the process started, the wall time from just before
    # it, then the reference load at the speed the set-up ran at.
    setup = {
        "setup_s": time.process_time(),
        "setup_wall_s": time.monotonic() - args.spawned_at,
    }
    setup["reference_s"] = reference_cpu()
    if args.setup_only:
        print(json.dumps(setup), file=result_out)
        return 0

    pins = json.loads(PINS_PATH.read_text(encoding="utf-8")) if PINS_PATH.exists() else {}
    out = {
        "setups": [setup],
        "walls": [], "cpus": [], "refs": [], "traced_walls": [], "units_ms": [],
        "requests": [], "trace_bytes": [], "attempted": 0, "failed": 0,
        "problems": [], "pins_checked": workload.pinned(pins) is not None,
    }
    began = time.perf_counter()
    sampler = SpeedSampler(watch)
    last = {False: None, True: None}
    passes = 0
    while True:
        traced = bool(args.trace) and passes % 2 == 1
        patch = layers.instrument(tracer) if traced else None
        if traced:
            tracer.enter(layers.GLUE)
        start, start_cpu = watch.now(), watch.cpu_now()
        try:
            with sampler.running() if not traced else nullcontext():
                result = workload.run_pass()
        except Exception:  # a crashed pass is a failed unit, not a crashed benchmark
            traceback.print_exc()
            result = PassResult(units_ms=[], requests=0, attempted=1, failed=1,
                                problems=[traceback.format_exc(limit=3)])
        finally:
            if traced:
                tracer.exit()
                patch.undo()
        wall, cpu = watch.now() - start, watch.cpu_now() - start_cpu
        with watch.paused():
            check_pins(workload, result, pins)
        between = time.perf_counter()
        passes += 1
        last[traced] = wall
        out["attempted"] += result.attempted
        out["failed"] += result.failed
        out["problems"] += result.problems[: max(0, 20 - len(out["problems"]))]
        if traced:
            out["traced_walls"].append(wall)
        else:
            out["walls"].append(wall)
            out["cpus"].append(cpu)
            # The mean sample: samples fall evenly over the pass's CPU time.
            out["refs"].append(statistics.fmean(sampler.samples))
            out["units_ms"] += result.units_ms
            out["requests"].append(result.requests)
            out["trace_bytes"].append(result.trace_bytes)
        if result.failed and not result.units_ms:
            break  # the pass crashed; more passes would only repeat it
        if not args.trace and len(out["setups"]) < SETUP_SAMPLES:
            # Set-up samples between the first passes.
            out["setups"].append(_probe_setup(args))
        traced_next = bool(args.trace) and passes % 2 == 1
        estimate = (last[traced_next] or 2.0 * wall) + time.perf_counter() - between
        if passes >= 1 + args.trace and (
            time.perf_counter() - began + estimate > args.seconds
        ):
            break
    workload.close()
    if tracer is not None and out["traced_walls"]:
        out["layers"] = layers.layer_metrics(
            tracer.self_time, tracer.counts,
            traced_wall=sum(out["traced_walls"]),
            untraced_wall=sum(out["walls"]) / len(out["walls"]),
            passes=len(out["traced_walls"]),
            setup_scenario_s=setup_scenario_s,
        )
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out), file=result_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
