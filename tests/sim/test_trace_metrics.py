"""Unit tests for tracing and metrics."""

import numpy as np
import pytest

from repro.sim import (
    AvailabilityMeter,
    Counter,
    LatencyRecorder,
    ThroughputMeter,
    TimeSeries,
    TraceRecord,
    Tracer,
    Simulator,
    UtilizationMeter,
)


class TestTracer:
    def test_emit_records_time_kind_subject(self):
        sim = Simulator()
        tracer = Tracer(sim)

        def proc():
            yield sim.timeout(2.0)
            tracer.emit("fault", "disk0", {"factor": 0.5})

        sim.process(proc())
        sim.run()
        [rec] = tracer.records
        assert rec.time == 2.0
        assert rec.kind == "fault"
        assert rec.subject == "disk0"
        assert rec.detail == {"factor": 0.5}

    def test_select_filters(self):
        sim = Simulator()
        tracer = Tracer(sim)
        tracer.emit("fault", "disk0")
        tracer.emit("fault", "disk1")
        tracer.emit("repair", "disk0")
        assert tracer.count(kind="fault") == 2
        assert tracer.count(subject="disk0") == 2
        assert tracer.count(kind="fault", subject="disk0") == 1
        assert tracer.count(kind="nothing") == 0

    def test_select_predicate(self):
        sim = Simulator()
        tracer = Tracer(sim)
        tracer.emit("x", "s", 1)
        tracer.emit("x", "s", 5)
        assert len(tracer.select(predicate=lambda r: r.detail > 3)) == 1

    def test_disabled_tracer_drops_records(self):
        sim = Simulator()
        tracer = Tracer(sim, enabled=False)
        tracer.emit("fault", "disk0")
        assert len(tracer) == 0

    def test_clear(self):
        sim = Simulator()
        tracer = Tracer(sim)
        tracer.emit("a", "b")
        tracer.clear()
        assert len(tracer) == 0


class TestTimeSeries:
    def _series(self):
        sim = Simulator()
        ts = TimeSeries(sim, "rate")

        def proc():
            ts.record(10.0)
            yield sim.timeout(5.0)
            ts.record(2.0)
            yield sim.timeout(5.0)
            ts.record(6.0)
            yield sim.timeout(2.0)

        sim.process(proc())
        sim.run()
        return ts

    def test_at_returns_holding_value(self):
        ts = self._series()
        assert ts.at(0.0) == 10.0
        assert ts.at(4.999) == 10.0
        assert ts.at(5.0) == 2.0
        assert ts.at(100.0) == 6.0

    def test_at_before_first_record_is_none(self):
        sim = Simulator()
        ts = TimeSeries(sim)
        assert ts.at(0.0) is None

    def test_time_average(self):
        ts = self._series()
        # 5s@10 + 5s@2 + 2s@6 over 12s = (50+10+12)/12 = 6.0
        assert ts.time_average() == pytest.approx(6.0)

    def test_time_average_subwindow(self):
        ts = self._series()
        # [5, 10): all at 2.0
        assert ts.time_average(5.0, 10.0) == pytest.approx(2.0)

    def test_window(self):
        ts = self._series()
        assert ts.window(0.0, 6.0) == [(0.0, 10.0), (5.0, 2.0)]


class TestCounter:
    def test_incr_and_get(self):
        c = Counter()
        c.incr("timeouts")
        c.incr("timeouts", 4)
        assert c.get("timeouts") == 5
        assert c["timeouts"] == 5

    def test_missing_is_zero(self):
        assert Counter().get("nope") == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter().incr("x", -1)

    def test_as_dict_snapshot(self):
        c = Counter()
        c.incr("a")
        snap = c.as_dict()
        c.incr("a")
        assert snap == {"a": 1}


class TestThroughputMeter:
    def test_rate_over_elapsed(self):
        sim = Simulator()
        meter = ThroughputMeter(sim)

        def proc():
            yield sim.timeout(10.0)
            meter.record(50.0)

        sim.process(proc())
        sim.run()
        assert meter.rate() == pytest.approx(5.0)
        assert meter.job_rate() == pytest.approx(0.1)

    def test_reset_restarts_window(self):
        sim = Simulator()
        meter = ThroughputMeter(sim)

        def proc():
            yield sim.timeout(5.0)
            meter.record(100.0)
            meter.reset()
            yield sim.timeout(5.0)
            meter.record(10.0)

        sim.process(proc())
        sim.run()
        assert meter.rate() == pytest.approx(2.0)

    def test_zero_elapsed_rate_is_zero(self):
        sim = Simulator()
        meter = ThroughputMeter(sim)
        assert meter.rate() == 0.0

    def test_negative_work_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ThroughputMeter(sim).record(-1.0)


class TestLatencyRecorder:
    def test_summary_basic(self):
        rec = LatencyRecorder()
        for x in [1.0, 2.0, 3.0, 4.0, 5.0]:
            rec.record(x)
        s = rec.summary()
        assert s.count == 5
        assert s.mean == pytest.approx(3.0)
        assert s.minimum == 1.0
        assert s.maximum == 5.0
        assert s.p50 == pytest.approx(3.0)

    def test_quantile_interpolates(self):
        rec = LatencyRecorder()
        rec.record(0.0)
        rec.record(10.0)
        assert rec.quantile(0.5) == pytest.approx(5.0)

    def test_empty_summary_is_zeros(self):
        s = LatencyRecorder().summary()
        assert s.count == 0 and s.mean == 0.0

    def test_bad_inputs_rejected(self):
        rec = LatencyRecorder()
        with pytest.raises(ValueError):
            rec.record(-1.0)
        with pytest.raises(ValueError):
            rec.quantile(1.5)

    @pytest.mark.parametrize("streaming", [False, True])
    def test_record_many_matches_a_record_loop(self, streaming):
        values = np.array([0.3, 0.1, 0.2, 0.0, 0.7, 0.1 + 0.2])
        loop = LatencyRecorder(streaming=streaming)
        for x in values.tolist():
            loop.record(x)
        batch = LatencyRecorder(streaming=streaming)
        batch.record_many(values[:2])
        batch.record_many(values[2:])
        assert batch.summary() == loop.summary()
        assert batch.samples == loop.samples
        assert all(type(x) is float for x in batch.samples)

    def test_record_many_accepts_a_list_and_invalidates_the_cache(self):
        rec = LatencyRecorder()
        rec.record_many([3.0, 1.0])
        assert rec.quantile(1.0) == 3.0
        rec.record_many([9.0])
        assert rec.quantile(1.0) == 9.0

    def test_record_many_rejects_negatives_like_record(self):
        rec = LatencyRecorder()
        with pytest.raises(ValueError) as single:
            rec.record(-2.5)
        with pytest.raises(ValueError) as batch:
            rec.record_many(np.array([1.0, float("nan"), -2.5, -7.0]))
        assert str(batch.value) == str(single.value)
        assert len(rec) == 0


class TestUtilizationMeter:
    def test_half_busy(self):
        sim = Simulator()
        meter = UtilizationMeter(sim)

        def proc():
            meter.set_busy()
            yield sim.timeout(5.0)
            meter.set_idle()
            yield sim.timeout(5.0)

        sim.process(proc())
        sim.run()
        assert meter.utilization() == pytest.approx(0.5)

    def test_idempotent_marks(self):
        sim = Simulator()
        meter = UtilizationMeter(sim)
        meter.set_busy()
        meter.set_busy()
        meter.set_idle()
        meter.set_idle()
        assert meter.utilization() == 0.0  # zero elapsed


class TestAvailabilityMeter:
    def test_fraction_within_slo(self):
        meter = AvailabilityMeter(slo=1.0)
        meter.record(0.5)
        meter.record(0.9)
        meter.record(2.0)
        meter.record(None)  # never served
        assert meter.availability() == pytest.approx(0.5)

    def test_empty_is_fully_available(self):
        assert AvailabilityMeter(slo=1.0).availability() == 1.0

    def test_monotone_in_slo(self):
        meter = AvailabilityMeter(slo=1.0)
        for r in [0.1, 0.5, 1.5, 3.0, None]:
            meter.record(r)
        values = [meter.availability_at(s) for s in [0.05, 0.2, 1.0, 2.0, 10.0]]
        assert values == sorted(values)

    def test_bad_slo_rejected(self):
        with pytest.raises(ValueError):
            AvailabilityMeter(slo=0.0)

    def test_negative_response_rejected(self):
        meter = AvailabilityMeter(slo=1.0)
        with pytest.raises(ValueError):
            meter.record(-0.1)


class TestTraceRecordSlots:
    def test_no_dict_per_record(self):
        """Traces allocate one record per event; slots keep them small
        and reject stray attribute writes.  (On some CPython 3.11
        builds a frozen+slots dataclass raises TypeError rather than
        FrozenInstanceError — gh-90562 — either way the write fails.)"""
        rec = TraceRecord(0.0, "kind", "subject")
        assert not hasattr(rec, "__dict__")
        with pytest.raises((AttributeError, TypeError)):
            rec.extra = 1
        with pytest.raises((AttributeError, TypeError)):
            rec.kind = "other"

    def test_record_still_pickles_and_compares(self):
        import pickle

        rec = TraceRecord(1.0, "io", "disk0", detail=("read", 7))
        assert pickle.loads(pickle.dumps(rec)) == rec
