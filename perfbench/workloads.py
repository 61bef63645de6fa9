"""The four benchmark workloads, driven through the program's public API.

Each workload is built from the seed in :meth:`Workload.setup` and runs
one *pass* of its timed body in :meth:`Workload.run_pass`.  A pass
reports the host time of each of its units (a ``run_scenario`` call, a
soak window, or an experiment), the simulated requests it resolved,
and how many of its units failed a check.  Checks run with the
:class:`Stopwatch` paused, so they never count as the program's time.

Importing this module imports the program (``repro``); callers put the
checkout's ``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro import telemetry
from repro.core.hybrid import scale_scenario, scale_workload
from repro.experiments import ALL_EXPERIMENTS, runner
from repro.faults import campaign
from repro.scenario import bundle
from repro.telemetry import StreamingTraceSink

from checks import fingerprint, table_sha
from spans import Patcher

__all__ = ["DEFAULT_SEED", "PassResult", "Stopwatch", "WORKLOADS", "Workload"]

#: The seed the correctness pins were recorded at (the CLI default).
DEFAULT_SEED = 7


class Stopwatch:
    """Host clocks that stand still inside :meth:`paused` blocks.

    :meth:`now` reads wall time; :meth:`cpu_now` reads this thread's
    CPU time, which leaves out the time the host ran something else on
    this process's CPU.  (Not the process's: while a CPU-time interval
    timer is armed, Linux advances that clock in whole ticks.)
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 cpu_clock: Callable[[], float] = time.thread_time):
        self._clocks = (clock, cpu_clock)
        self._paused_at: Optional[tuple] = None
        self._excluded = [0.0, 0.0]

    def _read(self, which: int) -> float:
        raw = (self._clocks[which]() if self._paused_at is None
               else self._paused_at[which])
        return raw - self._excluded[which]

    def now(self) -> float:
        return self._read(0)

    def cpu_now(self) -> float:
        return self._read(1)

    @property
    def is_paused(self) -> bool:
        return self._paused_at is not None

    @contextmanager
    def paused(self):
        self._paused_at = tuple(clock() for clock in self._clocks)
        try:
            yield
        finally:
            for which, clock in enumerate(self._clocks):
                self._excluded[which] += clock() - self._paused_at[which]
            self._paused_at = None


@dataclass
class PassResult:
    """What one pass of a workload produced."""

    units_ms: List[float]
    requests: int
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    trace_bytes: int = 0
    #: Ordered fingerprints (outcomes, or rendered tables) for the pins.
    fingerprints: List[str] = field(default_factory=list)


def failed_units(outcomes) -> int:
    """Failed ``run_scenario`` units among primary outcomes.

    An oracle violation fails the primary run; a digest mismatch
    (the oracle's ``determinism:`` violation) fails its same-seed rerun.
    """
    failed = 0
    for outcome in outcomes:
        rerun = [v.startswith("determinism") for v in outcome.violations]
        failed += any(rerun) + (not all(rerun))
    return failed


class Workload:
    """Base: the unit clock around ``campaign.run_scenario``."""

    name = ""

    def __init__(self, seed: int, out_dir: Path, watch: Stopwatch):
        self.seed = seed
        self.out_dir = out_dir
        self.watch = watch
        self._units: List[float] = []
        self._requests = 0
        self._on_outcome: Optional[Callable] = None
        self._hooks = Patcher()
        self._hook_run_scenario()

    def close(self) -> None:
        """Take the unit clocks off the program again."""
        self._hooks.undo()

    def _hook_run_scenario(self) -> None:
        # run_campaign and run_soak resolve run_scenario as a module
        # global at call time, so one attribute covers every caller.
        inner = campaign.run_scenario
        watch = self.watch

        def run_scenario(*args, **kwargs):
            start = watch.now()
            outcome = inner(*args, **kwargs)
            self._units.append(1e3 * (watch.now() - start))
            self._requests += outcome.n_requests
            if self._on_outcome is not None:
                with watch.paused():
                    self._on_outcome(outcome)
            return outcome

        self._hooks.function(campaign, "run_scenario", lambda fn: run_scenario)

    def setup(self) -> None:
        """Load and compile the stock scenario bundle; build the inputs."""
        bundle.scenarios()

    def _take_units(self) -> tuple:
        units, requests = self._units, self._requests
        self._units, self._requests = [], 0
        return units, requests

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def pinned(self, pins: Dict) -> Optional[List[str]]:
        """The pinned fingerprints that apply at this seed, else None."""
        entry = pins.get(self.name)
        if entry is None or entry.get("seed") not in (None, self.seed):
            return None
        return entry["fingerprints"]


class CampaignDiscrete(Workload):
    """``run_campaign`` with the CLI defaults on the discrete engine."""

    name = "campaign-discrete"

    def run_pass(self) -> PassResult:
        result = campaign.run_campaign(seed=self.seed)
        units, requests = self._take_units()
        with self.watch.paused():
            return PassResult(
                units_ms=units,
                requests=requests,
                attempted=len(units),
                failed=failed_units(result.outcomes),
                problems=result.violations,
                fingerprints=[fingerprint(o) for o in result.outcomes],
            )


#: (workload, policy) cells of e27's million-client scale rows.
SCALE_CELLS = (
    ("raid10", "fixed-timeout"),
    ("dht", "fixed-timeout"),
    ("surge", "no-mitigation"),
)


class HybridScale(Workload):
    """e27's scale rows: hybrid run, same-seed rerun, digest check."""

    name = "hybrid-scale"
    n_requests = 1_000_000

    def setup(self) -> None:
        super().setup()
        self.cells = []
        for name, policy in SCALE_CELLS:
            big = scale_workload(campaign.WORKLOADS[name], self.n_requests)
            scenario = scale_scenario(big, "magnitude", self.seed, 0)
            self.cells.append((big, scenario, policy))

    def run_pass(self) -> PassResult:
        oracle = campaign.InvariantOracle()
        failed = 0
        problems: List[str] = []
        prints: List[str] = []
        for big, scenario, policy in self.cells:
            first = campaign.run_scenario(big, scenario, policy, engine="hybrid")
            rerun = campaign.run_scenario(big, scenario, policy, check=False,
                                          engine="hybrid")
            first.violations.extend(oracle.check_determinism(first, rerun))
            del rerun
            with self.watch.paused():
                failed += failed_units([first])
                problems += [f"{big.name}/{policy}: {v}" for v in first.violations]
                prints.append(fingerprint(first))
            del first
        units, requests = self._take_units()
        return PassResult(units_ms=units, requests=requests, attempted=len(units),
                          failed=failed, problems=problems, fingerprints=prints)


class SoakTraced(Workload):
    """``record_soak`` into a fresh trace file, then ``replay_trace`` of it."""

    name = "soak-traced"
    n_windows = 8
    n_requests = 20_000

    def __init__(self, seed: int, out_dir: Path, watch: Stopwatch):
        super().__init__(seed, out_dir, watch)
        self._window_start = 0.0
        self._windows: List[float] = []
        self._hook_windows()

    def _hook_windows(self) -> None:
        # A window runs from its run-start record to its window record.
        watch = self.watch
        start_fn = StreamingTraceSink.write_run_start
        window_fn = StreamingTraceSink.write_window

        def write_run_start(sink, *args, **kwargs):
            self._window_start = watch.now()
            return start_fn(sink, *args, **kwargs)

        def write_window(sink, *args, **kwargs):
            result = window_fn(sink, *args, **kwargs)
            self._windows.append(1e3 * (watch.now() - self._window_start))
            return result

        self._hooks.method(StreamingTraceSink, "write_run_start",
                           lambda fn: write_run_start)
        self._hooks.method(StreamingTraceSink, "write_window", lambda fn: write_window)

    def setup(self) -> None:
        super().setup()
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.path = self.out_dir / f"soak-{self.seed}.jsonl"

    def run_pass(self) -> PassResult:
        prints: List[str] = []
        self._on_outcome = lambda outcome: prints.append(fingerprint(outcome))
        try:
            result = telemetry.record_soak(
                self.path, seed=self.seed, workload="raid10",
                family="magnitude", policy="stutter-aware",
                n_windows=self.n_windows, n_requests=self.n_requests,
                engine="hybrid",
            )
            replay = telemetry.replay_trace(self.path)
        finally:
            self._on_outcome = None
        __, requests = self._take_units()
        windows, self._windows = self._windows, []
        with self.watch.paused():
            replay_problems = [f"replay: {note}" for note in replay.integrity]
            totals = (
                sum(w.requests for w in replay.windows),
                sum(w.slo_violations for w in replay.windows),
                sum(w.failed_requests for w in replay.windows),
            )
            expected = (result.requests, result.slo_violations, result.failed_requests)
            if len(replay.windows) != self.n_windows or totals != expected:
                replay_problems.append(
                    f"replay: {len(replay.windows)} windows with totals "
                    f"{totals}, soak reported {self.n_windows} with {expected}"
                )
            # Window violations read "window[w]: ..."; count each window once.
            bad_windows = {v.split(":", 1)[0] for v in result.violations}
            trace_bytes = self.path.stat().st_size
            self.path.unlink()
        return PassResult(
            units_ms=windows,
            requests=requests,
            attempted=self.n_windows + 1,  # the windows and the replay
            failed=len(bad_windows) + (1 if replay_problems else 0),
            problems=list(result.violations) + replay_problems,
            trace_bytes=trace_bytes,
            fingerprints=prints,
        )


#: Experiments the other workloads cover (and e27 + e29 alone are ~63 s).
EXCLUDED_EXPERIMENTS = ("e26", "e27", "e28", "e29")


class ReportModels(Workload):
    """``run_suite`` over the report minus e26-e29, serial, no cache.

    The experiments take no seed: their tables are fixed.  The seed
    only shuffles the order they run in, so every seed checks every
    table against its pin.
    """

    name = "report-models"

    def setup(self) -> None:
        super().setup()
        self.ids = [key for key in ALL_EXPERIMENTS if key not in EXCLUDED_EXPERIMENTS]
        random.Random(self.seed).shuffle(self.ids)

    def run_pass(self) -> PassResult:
        runs = runner.run_suite(self.ids, workers=None, cache=None)
        with self.watch.paused():
            by_id = {run.experiment: table_sha(run.table) for run in runs}
            return PassResult(
                units_ms=[1e3 * run.seconds for run in runs],
                requests=0,
                attempted=len(runs),
                failed=0,
                fingerprints=[by_id[key] for key in sorted(by_id)],
            )


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (CampaignDiscrete, HybridScale, SoakTraced, ReportModels)
}


def check_pins(workload: Workload, result: PassResult, pins: Dict) -> None:
    """Count units whose fingerprint differs from its pin as failed."""
    expected = workload.pinned(pins)
    if expected is None:
        return
    if len(expected) != len(result.fingerprints):
        result.failed = result.attempted
        result.problems.append(
            f"pins: {len(result.fingerprints)} outputs, {len(expected)} pinned"
        )
        return
    wrong = [i for i, (a, b) in enumerate(zip(result.fingerprints, expected)) if a != b]
    if wrong:
        result.failed = max(result.failed, len(wrong))
        result.problems.append(
            f"pins: outputs {wrong[:8]} differ from the pinned fingerprints"
        )
