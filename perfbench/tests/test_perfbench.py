"""Tests for the benchmark's own code: spans, fingerprints, failure counts, seeds."""

import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from checks import fingerprint
from child import SpeedSampler
from run import end_to_end
from repro.faults import campaign
from spans import Patcher, Tracer
from workloads import (
    CampaignDiscrete,
    HybridScale,
    PassResult,
    Stopwatch,
    check_pins,
    failed_units,
)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_subtracts_only_direct_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.enter("root")          # t=0
    clock.t = 1.0
    tracer.enter("a")             # t=1
    clock.t = 2.0
    tracer.enter("b")             # t=2
    clock.t = 5.0
    assert tracer.exit() == 3.0   # b: 2..5
    clock.t = 6.0
    tracer.enter("b")             # t=6
    clock.t = 7.0
    tracer.exit()                 # b: 6..7
    clock.t = 8.0
    assert tracer.exit() == 7.0   # a: 1..8, children cover 4
    clock.t = 10.0
    assert tracer.exit() == 10.0  # root: 0..10, child a covers 7
    assert tracer.self_time == {"root": 3.0, "a": 3.0, "b": 4.0}
    assert sum(tracer.self_time.values()) == 10.0


def test_wrapped_calls_count_once_per_outer_call_and_close_on_error():
    tracer = Tracer(clock=FakeClock())

    class Base:
        def pick(self):
            return "base"

    class Child(Base):
        def pick(self):
            return super().pick()

    patch = Patcher()
    for cls in (Base, Child):
        patch.method(cls, "pick", lambda fn: tracer.wrap(fn, "policy.s", count="calls"))
    try:
        assert Child().pick() == "base"
        assert tracer.counts["calls"] == 1
    finally:
        patch.undo()
    assert "pick" in Base.__dict__ and Child().pick() == "base"
    assert tracer.counts["calls"] == 1  # unwrapped again

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "layer")()
    tracer.reset()  # raises if the failed call left its span open


def test_paused_time_is_invisible_to_spans():
    clock = FakeClock()
    watch = Stopwatch(clock=clock)
    tracer = Tracer(clock=watch.now)
    tracer.enter("root")
    clock.t = 1.0
    with watch.paused():
        tracer.enter("check")
        clock.t = 4.0
        tracer.exit()
    clock.t = 5.0
    assert tracer.exit() == 2.0
    assert tracer.self_time["check"] == 0.0


def test_paused_time_is_left_out_of_both_clocks():
    wall, cpu = FakeClock(), FakeClock()
    watch = Stopwatch(clock=wall, cpu_clock=cpu)
    wall.t, cpu.t = 1.0, 0.5
    with watch.paused():
        wall.t, cpu.t = 4.0, 3.5
        assert (watch.now(), watch.cpu_now()) == (1.0, 0.5)
    wall.t, cpu.t = 6.0, 4.5
    assert (watch.now(), watch.cpu_now()) == (3.0, 1.5)


def test_speed_samples_are_left_out_of_the_pass_clocks():
    watch = Stopwatch()
    sampler = SpeedSampler(watch)
    start, raw_start = watch.cpu_now(), time.thread_time()
    with sampler.running():
        while time.thread_time() < raw_start + 0.3:
            pass
        with watch.paused():  # a check: no sample inside it
            taken = len(sampler.samples)
            sampler._sample()
            assert len(sampler.samples) == taken
    raw = time.thread_time() - raw_start
    assert len(sampler.samples) >= 3  # one at the start, then one per 0.05 s
    assert watch.cpu_now() - start == pytest.approx(raw - sum(sampler.samples), abs=2e-3)


def test_pass_and_setup_are_divided_by_their_reference():
    run = {
        "setups": [{"setup_s": s, "reference_s": r, "setup_wall_s": 0.5}
                   for s, r in ((0.2, 0.018), (0.6, 0.036), (0.25, 0.018))],
        "walls": [2.2, 4.4, 2.0], "cpus": [2.0, 4.0, 1.8], "refs": [0.02, 0.04, 0.02],
        "units_ms": [1.0], "requests": [], "trace_bytes": [], "peak_rss_mb": 40.0,
        "attempted": 3, "failed": 0,
    }
    values = end_to_end(run)
    # A host twice as slow doubles both the pass and its reference.
    assert values["pass_ref"] == pytest.approx(100.0)
    assert values["cpu_s"] == 2.0 and values["wall_s"] == 2.2
    assert values["setup_s"] == pytest.approx(0.25)  # at the 18 ms reference
    assert values["setup_wall_s"] == 0.5


def _outcome(latencies):
    return SimpleNamespace(
        latencies=latencies, n_requests=3, slo_violations=1, failed_requests=0,
        issued_work=3.5, completed_work=3.0, claimed_work=2.5, wasted_work=0.5,
    )


def test_fingerprint_same_for_list_and_float64_array():
    values = [0.1, 2.5e-3, 1e300, 7.0]
    assert fingerprint(_outcome(values)) == fingerprint(
        _outcome(np.array(values, dtype=np.float64))
    )
    assert fingerprint(_outcome(values)) != fingerprint(_outcome(values[::-1]))
    changed = _outcome(values)
    changed.wasted_work = 0.5000000000000001
    assert fingerprint(changed) != fingerprint(_outcome(values))


def _small_outcome(seed=7):
    workload = replace(campaign.WORKLOADS["raid10"], n_requests=40)
    scenario = campaign.generate_scenario(workload, "magnitude", seed, 0)
    return campaign.run_scenario(workload, scenario, "fixed-timeout")


def test_failed_units_counts_an_injected_oracle_violation():
    clean, hit, rerun = _small_outcome(), _small_outcome(), _small_outcome()
    assert failed_units([clean, hit, rerun]) == 0
    hit.violations.append("no-hang: 1 requests unresolved at horizon")
    assert failed_units([clean, hit, rerun]) == 1
    rerun.violations.append("determinism: rerun digest aaaa != bbbb")
    assert failed_units([clean, hit, rerun]) == 2
    result = PassResult(units_ms=[1.0] * 6, requests=120, attempted=6,
                        failed=failed_units([clean, hit, rerun]))
    assert result.failed / result.attempted == pytest.approx(2 / 6)


def test_a_fingerprint_off_its_pin_fails_the_unit():
    workload = SimpleNamespace(pinned=lambda pins: pins["w"])
    result = PassResult(units_ms=[1.0, 1.0], requests=2, attempted=2, failed=0,
                        fingerprints=["a", "b"])
    check_pins(workload, result, {"w": ["a", "b"]})
    assert result.failed == 0
    check_pins(workload, result, {"w": ["a", "c"]})
    assert result.failed == 1 and result.problems


def test_seed_reaches_the_generated_scenarios(tmp_path):
    scenarios = {}
    for seed in (7, 11):
        workload = HybridScale(seed, tmp_path, Stopwatch())
        try:
            workload.setup()
        finally:
            workload.close()
        scenarios[seed] = [scenario for __, scenario, __ in workload.cells]
        assert all(s.seed == seed for s in scenarios[seed])
    assert [s.events for s in scenarios[7]] != [s.events for s in scenarios[11]]


def test_campaign_pass_runs_the_campaign_at_the_seed(tmp_path, monkeypatch):
    seen = {}

    def fake_run_campaign(**kwargs):
        seen.update(kwargs)
        return SimpleNamespace(outcomes=[], violations=[])

    monkeypatch.setattr(campaign, "run_campaign", fake_run_campaign)
    workload = CampaignDiscrete(23, tmp_path, Stopwatch())
    try:
        workload.run_pass()
    finally:
        workload.close()
    assert seen == {"seed": 23}


def test_unit_clock_is_removed_on_close(tmp_path):
    original = campaign.run_scenario
    workload = CampaignDiscrete(7, tmp_path, Stopwatch())
    assert campaign.run_scenario is not original
    workload.close()
    assert campaign.run_scenario is original
