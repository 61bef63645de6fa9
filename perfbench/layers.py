"""Which public functions belong to which layer, and the per-layer metrics.

The layers are the program's modules.  :func:`instrument` wraps their
public entry points in :class:`~spans.Tracer` spans for the traced run
only; :func:`layer_metrics` turns one traced pass's self times and
counts into the ``per_layer`` metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterator, Tuple

from repro.analysis.report import Table
from repro.core import estimator, hybrid
from repro.experiments import ALL_EXPERIMENTS, experiment_substrates, runner
from repro.faults import campaign
from repro.policy.base import MitigationPolicy
from repro.scenario import bundle, compile as scenario_compile, spec as scenario_spec
from repro.sim import engine, fluid, metrics
from repro.telemetry import reader, record, replay, sink

from spans import Patcher, Tracer

__all__ = [
    "MODEL_SUBSTRATES",
    "PER_LAYER",
    "TIME_LAYERS",
    "instrument",
    "layer_metrics",
]

#: Self-time layers, each reported under its own name (seconds per pass).
TIME_LAYERS = (
    "engine.run_s",
    "campaign.run_s",
    "campaign.route_s",
    "policy.s",
    "hybrid.run_s",
    "hybrid.fluid_s",
    "metrics.s",
    "digest.s",
    "analysis.table_s",
    "telemetry.write_s",
    "telemetry.read_s",
    "scenario.load_s",
)

MODEL_SUBSTRATES = ("storage", "network", "processor", "cluster", "core")

#: The benchmark's own glue between calls into the program.
GLUE = "bench.glue"

#: (metric, unit) in the order the traced run prints them.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("engine.run_s", "s"),
    ("engine.events", "count"),
    ("engine.us_per_event", "us"),
    ("campaign.run_s", "s"),
    ("campaign.route_s", "s"),
    ("campaign.attempts", "count"),
    ("campaign.useful_ratio", "ratio"),
    ("policy.s", "s"),
    ("policy.calls", "count"),
    ("hybrid.run_s", "s"),
    ("hybrid.fluid_s", "s"),
    ("hybrid.fallbacks", "count"),
    ("hybrid.discrete_fraction", "ratio"),
    ("metrics.s", "s"),
    ("metrics.pushes", "count"),
    ("digest.s", "s"),
    ("digest.floats", "count"),
    ("digest.us_per_float", "us"),
    ("analysis.table_s", "s"),
    ("telemetry.write_s", "s"),
    ("telemetry.records", "count"),
    ("telemetry.read_s", "s"),
    ("scenario.load_s", "s"),
) + tuple((f"models.{name}_s", "s") for name in MODEL_SUBSTRATES) + (
    ("other_s", "s"),
    ("traced_wall_s", "s"),
    ("trace_overhead", "ratio"),
)


def _subclasses(cls: type) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def instrument(tracer: Tracer) -> Patcher:
    """Wrap every layer's public entry points; ``undo()`` the result."""
    patch = Patcher()
    counts = tracer.counts
    seen_seq = weakref.WeakKeyDictionary()

    def span(layer, count=None, hook=None):
        return lambda fn: tracer.wrap(fn, layer, count=count, hook=hook)

    def methods(classes, names, layer, count=None, hook=None):
        for cls in classes:
            for name in names:
                patch.method(cls, name, span(layer, count, hook))

    # sim.engine: events scheduled = growth of the sequence counter.
    def events(args, result, error):
        sim = args[0]
        counts["engine.events"] += sim._seq - seen_seq.get(sim, 0)
        seen_seq[sim] = sim._seq

    methods([engine.Simulator], ["run"], "engine.run_s", hook=events)

    # faults.campaign (routing on its own).
    def resolved(args, result, error):
        if result is not None:
            counts["campaign.requests"] += result.n_requests

    def attempted(args, result, error):
        if tracer.depth["hybrid.run_s"]:
            counts["hybrid.attempts"] += 1

    patch.function(campaign, "run_scenario", span("campaign.run_s", hook=resolved))
    for name in ("run_campaign", "run_soak", "generate_scenario", "generate_scenarios"):
        patch.function(campaign, name, span("campaign.run_s"))
    methods([campaign.CampaignEngine], ["run", "give_up", "preseed_request"],
            "campaign.run_s")
    methods([campaign.CampaignEngine], ["attempt"], "campaign.run_s",
            count="campaign.attempts", hook=attempted)
    methods([campaign.CampaignEngine], ["pick_candidate"], "campaign.route_s")
    methods([campaign.InvariantOracle], ["check", "check_determinism"], "campaign.run_s")

    # policy (+ core.estimator).
    policies = list(_subclasses(MitigationPolicy))
    methods(policies, ["pick", "start", "on_attempt_completed", "on_attempt_failed"],
            "policy.s", count="policy.calls")
    methods(policies, ["bind", "retry_elsewhere", "hybrid_fast_forward",
                       "current_timeout", "believed_rate"], "policy.s")
    estimators = list(_subclasses(estimator.RateEstimator)) + [estimator.LatencyEstimator]
    methods(estimators, ["observe", "rate", "timeout"], "policy.s")

    # core.hybrid + sim.fluid.
    def hybrid_outcome(args, result, error):
        if isinstance(error, hybrid.HybridInfeasible):
            counts["hybrid.fallbacks"] += 1
        elif result is not None:
            counts["hybrid.requests"] += result.n_requests

    patch.function(hybrid, "run_scenario_hybrid", span("hybrid.run_s", hook=hybrid_outcome))
    for name in ("fifo_uniform_ramps", "fifo_completions"):
        patch.function(fluid, name, span("hybrid.fluid_s"))

    # sim.metrics.
    methods([metrics.P2Quantile, metrics.StreamingMoments], ["push"],
            "metrics.s", count="metrics.pushes")
    methods([metrics.LatencyRecorder], ["record"], "metrics.s", count="metrics.pushes")
    methods([metrics.P2Quantile], ["combine", "value"], "metrics.s")
    methods([metrics.StreamingMoments], ["merge"], "metrics.s")
    methods([metrics.LatencyRecorder], ["summary", "quantile", "count_over"], "metrics.s")

    # digest / serialization.
    def floats(args, result, error):
        counts["digest.floats"] += len(args[0].latencies)

    methods([campaign.ScenarioOutcome], ["digest"], "digest.s", hook=floats)
    methods([Table], ["digest"], "digest.s")
    methods([Table], ["to_dict", "from_dict", "render"], "analysis.table_s")

    # telemetry.
    methods([sink.StreamingTraceSink], ["on_record"], "telemetry.write_s",
            count="telemetry.records")
    methods([sink.StreamingTraceSink],
            ["__init__", "write_header", "write_run_start", "write_run_end",
             "write_window", "write_end", "flush", "close"], "telemetry.write_s")
    methods([record.TraceRecorder], ["begin_run", "end_run"], "telemetry.write_s")
    patch.function(record, "record_soak", span("telemetry.write_s"))
    patch.function(reader, "read_trace", span("telemetry.read_s"))
    patch.function(replay, "replay_trace", span("telemetry.read_s"))

    # scenario.
    patch.function(bundle, "scenarios", span("scenario.load_s"))
    patch.function(scenario_spec, "load_spec", span("scenario.load_s"))
    patch.function(scenario_compile, "compile_spec", span("scenario.load_s"))
    patch.function(record, "stock_spec_digests", span("scenario.load_s"))

    # Component models: an experiment's self time, by substrate tag.  A
    # multi-substrate tag ("a+b") matches no metric and lands in other_s.
    for key, tag in experiment_substrates().items():
        patch.item(ALL_EXPERIMENTS, key,
                   tracer.wrap(ALL_EXPERIMENTS[key], f"models.{tag}_s"))
    patch.function(runner, "run_suite", span(GLUE))
    return patch


def layer_metrics(self_time: Dict[str, float], counts: Dict[str, int],
                  traced_wall: float, untraced_wall: float,
                  passes: int, setup_scenario_s: float) -> Dict[str, float]:
    """Per-pass per-layer metrics from totals over ``passes`` traced passes."""
    per = {k: v / passes for k, v in self_time.items()}
    n = {k: v / passes for k, v in counts.items()}
    wall = traced_wall / passes
    out: Dict[str, float] = {name: per.get(name, 0.0) for name in TIME_LAYERS}
    for name in MODEL_SUBSTRATES:
        out[f"models.{name}_s"] = per.get(f"models.{name}_s", 0.0)
    attributed = sum(out.values())
    out["scenario.load_s"] += setup_scenario_s
    events = n.get("engine.events", 0.0)
    attempts = n.get("campaign.attempts", 0.0)
    floats = n.get("digest.floats", 0.0)
    hybrid_requests = n.get("hybrid.requests", 0.0)
    out.update({
        "engine.events": events,
        "engine.us_per_event": 1e6 * out["engine.run_s"] / events if events else 0.0,
        "campaign.attempts": attempts,
        "campaign.useful_ratio": n.get("campaign.requests", 0.0) / attempts if attempts else 0.0,
        "policy.calls": n.get("policy.calls", 0.0),
        "hybrid.fallbacks": n.get("hybrid.fallbacks", 0.0),
        "hybrid.discrete_fraction": (n.get("hybrid.attempts", 0.0) / hybrid_requests
                                     if hybrid_requests else 0.0),
        "metrics.pushes": n.get("metrics.pushes", 0.0),
        "digest.floats": floats,
        "digest.us_per_float": 1e6 * out["digest.s"] / floats if floats else 0.0,
        "telemetry.records": n.get("telemetry.records", 0.0),
        "other_s": wall - attributed,
        "traced_wall_s": wall,
        "trace_overhead": wall / untraced_wall - 1.0,
    })
    return {name: out[name] for name, __ in PER_LAYER}
