"""Combine operators: StreamingMoments.merge and P2Quantile.combine.

``merge`` is what folds soak windows' moments into the rolling and
whole-run statistics.  The contract: merge is *as if* every observation
had been pushed into one recorder -- count/min/max exact, mean/variance
to float rounding (1e-9 against exact recomputation) -- and the quantile
combine is exact while samples are retained, bounded and monotone once
estimators go into marker mode.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.metrics import P2Quantile, StreamingMoments


def _filled(values):
    moments = StreamingMoments()
    for v in values:
        moments.push(v)
    return moments


sample_lists = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    max_size=40,
)


class TestStreamingMomentsMerge:
    def test_merge_matches_single_stream(self):
        rng = random.Random(13)
        a = [rng.uniform(0, 100) for _ in range(500)]
        b = [rng.uniform(50, 200) for _ in range(300)]
        merged = _filled(a).merge(_filled(b))
        combined = _filled(a + b)
        assert merged.count == combined.count
        assert merged.minimum == combined.minimum
        assert merged.maximum == combined.maximum
        assert merged.mean == pytest.approx(combined.mean, abs=1e-9)
        assert merged.variance == pytest.approx(combined.variance, abs=1e-9)

    def test_merge_into_empty(self):
        values = [3.0, 1.0, 4.0]
        merged = StreamingMoments().merge(_filled(values))
        assert merged.count == 3
        assert merged.mean == _filled(values).mean
        assert merged.minimum == 1.0
        assert merged.maximum == 4.0

    def test_merge_empty_is_noop(self):
        moments = _filled([2.0, 8.0])
        before = (moments.count, moments.mean, moments.variance)
        moments.merge(StreamingMoments())
        assert (moments.count, moments.mean, moments.variance) == before

    def test_merge_returns_self_for_chaining(self):
        a = _filled([1.0])
        assert a.merge(_filled([2.0])) is a

    def test_chained_lane_fold(self):
        rng = random.Random(7)
        lanes = [[rng.gauss(0, 1) for _ in range(rng.randint(0, 30))] for _ in range(8)]
        folded = StreamingMoments()
        for lane in lanes:
            folded.merge(_filled(lane))
        flat = [v for lane in lanes for v in lane]
        reference = _filled(flat)
        assert folded.count == reference.count
        assert folded.mean == pytest.approx(reference.mean, abs=1e-9)
        assert folded.variance == pytest.approx(reference.variance, abs=1e-9)

    @given(sample_lists, sample_lists)
    @settings(max_examples=60, deadline=None)
    def test_merge_property(self, a, b):
        merged = _filled(a).merge(_filled(b))
        combined = _filled(a + b)
        assert merged.count == combined.count
        if combined.count:
            assert merged.minimum == combined.minimum
            assert merged.maximum == combined.maximum
            scale = max(1.0, abs(combined.mean))
            assert merged.mean == pytest.approx(combined.mean, rel=1e-9, abs=1e-9 * scale)
            vscale = max(1.0, combined.variance)
            assert merged.variance == pytest.approx(
                combined.variance, rel=1e-7, abs=1e-7 * vscale
            )


class TestP2QuantileCombine:
    def test_small_lanes_combine_exactly(self):
        # Every lane below five samples: the pooled quantile is exact.
        lanes = []
        pooled = []
        rng = random.Random(3)
        for _ in range(6):
            estimator = P2Quantile(0.5)
            for _ in range(rng.randint(1, 4)):
                x = rng.uniform(0, 10)
                estimator.push(x)
                pooled.append(x)
            lanes.append(estimator)
        exact = P2Quantile(0.5)
        # Reference: exact interpolated median over the pooled samples.
        pooled.sort()
        pos = 0.5 * (len(pooled) - 1)
        lo, hi = int(math.floor(pos)), int(math.ceil(pos))
        frac = pos - lo
        expected = pooled[lo] * (1 - frac) + pooled[hi] * frac
        assert P2Quantile.combine(lanes) == expected

    def test_empty_lanes_are_ignored(self):
        a = P2Quantile(0.9)
        for x in (1.0, 2.0, 3.0):
            a.push(x)
        assert P2Quantile.combine([P2Quantile(0.9), a]) == a.value()

    def test_all_empty_returns_zero(self):
        assert P2Quantile.combine([P2Quantile(0.5), P2Quantile(0.5)]) == 0.0

    def test_mismatched_quantiles_rejected(self):
        with pytest.raises(ValueError):
            P2Quantile.combine([P2Quantile(0.5), P2Quantile(0.9)])

    def test_marker_mode_bounded_by_pooled_extremes(self):
        rng = random.Random(21)
        lanes = []
        lo, hi = math.inf, -math.inf
        for _ in range(4):
            estimator = P2Quantile(0.9)
            for _ in range(200):
                x = rng.expovariate(0.5)
                estimator.push(x)
                lo, hi = min(lo, x), max(hi, x)
            lanes.append(estimator)
        combined = P2Quantile.combine(lanes)
        assert lo <= combined <= hi

    def test_marker_mode_near_true_quantile(self):
        rng = random.Random(8)
        samples = []
        lanes = []
        for _ in range(5):
            estimator = P2Quantile(0.5)
            for _ in range(400):
                x = rng.uniform(0, 1)
                estimator.push(x)
                samples.append(x)
            lanes.append(estimator)
        samples.sort()
        true_median = samples[len(samples) // 2]
        assert P2Quantile.combine(lanes) == pytest.approx(true_median, abs=0.05)

    def test_monotone_in_q(self):
        rng = random.Random(4)
        data = [[rng.gauss(10, 3) for _ in range(150)] for _ in range(3)]
        previous = -math.inf
        for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
            lanes = []
            for lane_data in data:
                estimator = P2Quantile(q)
                for x in lane_data:
                    estimator.push(x)
                lanes.append(estimator)
            value = P2Quantile.combine(lanes)
            assert value >= previous
            previous = value

    @given(
        st.lists(
            st.lists(
                st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
                min_size=1,
                max_size=30,
            ),
            min_size=1,
            max_size=5,
        ),
        st.sampled_from([0.1, 0.5, 0.9]),
    )
    @settings(max_examples=50, deadline=None)
    def test_combine_bounded_property(self, lane_data, q):
        lanes = []
        flat = []
        for data in lane_data:
            estimator = P2Quantile(q)
            for x in data:
                estimator.push(x)
                flat.append(x)
            lanes.append(estimator)
        combined = P2Quantile.combine(lanes)
        assert min(flat) <= combined <= max(flat)
