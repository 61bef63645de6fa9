"""Batch folds: QuantileSketch and StreamingMoments.push_many.

The sketch's contract is what lets soak windows and trace rollups fold
whole latency arrays at once: every quantile lies within ``2**-8``
relative of the order statistic at ``floor(q*(n-1))``; merging is
exact, so merged shards equal one fold over the concatenation; and the
serialized form round-trips.  ``push_many`` on the moments must agree
with a ``push`` loop, whatever the batch split.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.metrics import QuantileSketch, StreamingMoments

#: Latency-like values: zero or normal floats across many binades.
values = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-300, max_value=1e300, allow_nan=False,
              allow_infinity=False),
)
batches = st.lists(values, min_size=1, max_size=200)
quantiles = st.floats(min_value=0.0, max_value=1.0)


class TestSketchAccuracy:
    @settings(max_examples=200, deadline=None)
    @given(batches, quantiles)
    def test_quantile_within_relative_bound_of_order_statistic(self, xs, q):
        sketch = QuantileSketch().push_many(xs)
        exact = sorted(xs)[math.floor(q * (len(xs) - 1))]
        got = sketch.quantile(q)
        assert abs(got - exact) <= 2.0 ** -8 * exact

    @settings(max_examples=100, deadline=None)
    @given(values, st.integers(1, 50), quantiles)
    def test_constant_stream_is_exact(self, x, n, q):
        assert QuantileSketch().push_many([x] * n).quantile(q) == x

    def test_extremes_are_exact(self):
        xs = np.random.default_rng(3).exponential(0.01, 5000)
        sketch = QuantileSketch().push_many(xs)
        assert sketch.quantile(0.0) == xs.min()
        assert sketch.quantile(1.0) == xs.max()
        assert sketch.count == xs.size

    def test_signed_zeros_share_a_bucket(self):
        plus = QuantileSketch().push_many([0.0])
        minus = QuantileSketch().push_many([-0.0])
        assert plus.to_dict() == minus.to_dict()
        assert minus.to_dict()["keys"] == [0]
        assert math.copysign(1.0, minus.quantile(0.5)) == 1.0
        both = QuantileSketch().push_many([0.0, -0.0, 0.0])
        assert both.to_dict()["counts"] == [3] and both.quantile(0.5) == 0.0

    @pytest.mark.parametrize("bad", [-1.0, float("inf"), float("nan")])
    def test_rejects_negative_and_non_finite(self, bad):
        sketch = QuantileSketch()
        with pytest.raises(ValueError, match="finite and >= 0"):
            sketch.push_many([1.0, bad])
        assert sketch.count == 0

    def test_quantile_rejects_q_outside_unit_interval(self):
        with pytest.raises(ValueError, match="q must be in"):
            QuantileSketch().quantile(1.5)


class TestSketchMerge:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(values, max_size=100), st.lists(values, max_size=100))
    def test_merge_equals_one_fold_over_the_concatenation(self, xs, ys):
        whole = QuantileSketch().push_many(xs + ys).to_dict()
        a = QuantileSketch().push_many(xs)
        b = QuantileSketch().push_many(ys)
        assert QuantileSketch().merge(a).merge(b).to_dict() == whole
        assert QuantileSketch().merge(b).merge(a).to_dict() == whole
        assert QuantileSketch.merged([b, a]).to_dict() == whole

    @settings(max_examples=50, deadline=None)
    @given(st.lists(batches, min_size=1, max_size=6))
    def test_merge_is_associative(self, parts):
        sketches = [QuantileSketch().push_many(p) for p in parts]
        left = QuantileSketch.merged(sketches)
        right = QuantileSketch()
        for sketch in reversed(sketches):
            right = QuantileSketch().merge(sketch).merge(right)
        assert left.to_dict() == right.to_dict()

    def test_merge_does_not_alias_the_other_sketch(self):
        a = QuantileSketch().push_many([1.0, 2.0])
        b = QuantileSketch().merge(a)
        b.push_many([3.0])
        assert a.to_dict()["counts"] == [1, 1] and a.count == 2


class TestSketchSerialization:
    def test_empty_sketch(self):
        empty = QuantileSketch()
        assert empty.count == 0
        assert empty.quantile(0.99) == 0.0
        payload = empty.to_dict()
        assert payload == {"keys": [], "counts": [], "min": math.inf,
                           "max": -math.inf}
        back = QuantileSketch.from_dict(payload)
        assert back.count == 0 and back.to_dict() == payload
        assert QuantileSketch().push_many([]).to_dict() == payload
        full = QuantileSketch().push_many([2.0])
        assert full.merge(empty).to_dict() == QuantileSketch().push_many([2.0]).to_dict()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(values, max_size=100), quantiles)
    def test_round_trip(self, xs, q):
        sketch = QuantileSketch().push_many(xs)
        back = QuantileSketch.from_dict(sketch.to_dict())
        assert back.to_dict() == sketch.to_dict()
        assert back.count == sketch.count
        assert back.quantile(q) == sketch.quantile(q)


def _pushed(xs):
    moments = StreamingMoments()
    for x in xs:
        moments.push(x)
    return moments


def _close(a: StreamingMoments, b: StreamingMoments) -> None:
    """Exact count and extremes; mean and variance within 1e-12 relative.

    The variance is compared on the scale of the raw second moment
    (``variance + mean**2``): a stream whose spread is a few ulps of
    its mean has a variance that no float fold computes to 1e-12 of
    itself, and both folds err there by the same order.
    """
    assert a.count == b.count
    assert a.minimum == b.minimum and a.maximum == b.maximum
    assert a.mean == pytest.approx(b.mean, rel=1e-12, abs=0.0)
    scale = b.variance + b.mean * b.mean
    assert abs(a.variance - b.variance) <= 1e-12 * scale


moments_values = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


class TestMomentsPushMany:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(moments_values, min_size=1, max_size=200))
    def test_matches_a_push_loop(self, xs):
        _close(StreamingMoments().push_many(np.array(xs)), _pushed(xs))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(moments_values, min_size=1, max_size=200),
           st.lists(st.integers(0, 200), max_size=5))
    def test_any_split_gives_the_same_result(self, xs, cuts):
        whole = StreamingMoments().push_many(xs)
        split = StreamingMoments()
        edges = [0] + sorted(c % (len(xs) + 1) for c in cuts) + [len(xs)]
        for lo, hi in zip(edges, edges[1:]):
            split.push_many(xs[lo:hi])
        _close(split, whole)

    @settings(max_examples=50, deadline=None)
    @given(moments_values, st.integers(1, 100))
    def test_constant_batch_is_exact(self, x, n):
        moments = StreamingMoments().push_many([x] * n)
        assert moments.mean == x and moments.variance == 0.0

    def test_empty_batch_is_a_no_op(self):
        moments = StreamingMoments().push_many([1.0, 3.0])
        before = moments.to_dict()
        assert moments.push_many([]).to_dict() == before
        assert StreamingMoments().push_many([]).to_dict() == StreamingMoments().to_dict()
