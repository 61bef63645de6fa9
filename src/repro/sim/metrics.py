"""Performance metrics for simulated systems.

The paper's benefits argument (Section 3.3) is framed in terms of
*availability* as defined by Gray & Reuter: "the fraction of the offered
load that is processed with acceptable response times."
:class:`AvailabilityMeter` implements exactly that definition; the other
meters provide the throughput/latency/utilization views the experiments
report.

Two recording modes
-------------------

The latency and availability meters default to *exact* mode: every
sample is retained, quantiles are computed over the full sorted sample
set, and every number in EXPERIMENTS.md is reproducible bit for bit.
For production-scale runs whose sample counts would not fit in memory,
both accept ``streaming=True``: an O(1)-memory mode built on
:class:`StreamingMoments` (Welford mean/variance, exact) and
:class:`P2Quantile` (the Jain & Chlamtac P² estimator, approximate).
Counts, means, extremes and SLO fractions stay exact in streaming mode;
only the quantiles are estimates, so keep the default for anything that
feeds a regression-checked table.

Batch folds
-----------

Soak windows and trace statistics fold whole latency arrays at once:
:meth:`StreamingMoments.push_many` and :class:`QuantileSketch`, a
log-linear bucket histogram (DDSketch-style, Masson, Rim & Lee, VLDB
2019) whose merge is exact integer addition and whose quantiles carry a
relative-error bound of ``2**-8``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .engine import Simulator

__all__ = [
    "ThroughputMeter",
    "LatencyRecorder",
    "UtilizationMeter",
    "AvailabilityMeter",
    "LatencySummary",
    "StreamingMoments",
    "QuantileSketch",
    "P2Quantile",
]


class StreamingMoments:
    """Welford's online mean/variance: O(1) memory, one pass.

    Numerically stable for arbitrarily long streams — the classic
    sum/sum-of-squares shortcut cancels catastrophically once the mean
    dwarfs the spread, which is exactly the regime a week-long
    production run reaches.  Count, mean, min and max are exact;
    variance matches the two-pass population variance to float rounding.
    """

    __slots__ = ("count", "mean", "_m2", "minimum", "maximum")

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def push(self, x: float) -> None:
        """Fold one observation into the running moments."""
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)
        if x < self.minimum:
            self.minimum = x
        if x > self.maximum:
            self.maximum = x

    def merge(self, other: "StreamingMoments") -> "StreamingMoments":
        """Fold another recorder's stream into this one, in place.

        Chan et al.'s parallel-variance combine: the result is as if
        every observation behind ``other`` had been pushed here.  Count,
        min and max are exact; mean and variance agree with a single
        combined stream to float rounding (``tests/sim/test_lane_merge.py``
        pins 1e-9 against exact recomputation).  Returns ``self`` so
        folds over soak windows chain:
        ``reduce(lambda a, b: a.merge(b), windows)``.
        """
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self._m2 = other._m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return self
        total = self.count + other.count
        delta = other.mean - self.mean
        self._m2 = self._m2 + other._m2 + delta * delta * (self.count * other.count / total)
        self.mean = self.mean + delta * (other.count / total)
        self.count = total
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum
        return self

    def push_many(self, values) -> "StreamingMoments":
        """Fold a whole batch of observations in; returns ``self``.

        The batch's own moments are computed exactly as far as a double
        allows -- count, min and max exactly, mean and M2 with
        :func:`math.fsum` (correctly rounded, so the same bits on every
        platform) -- and then folded in through :meth:`merge`.  The
        result agrees with a :meth:`push` loop to float rounding.
        (``fsum`` reads the arrays through a memoryview, one float at a
        time, rather than over a ``tolist()`` copy of the batch.)
        """
        values = np.asarray(values, dtype=np.float64).ravel()
        if not values.size:
            return self
        batch = StreamingMoments()
        batch.count = int(values.size)
        batch.minimum = float(values.min())
        batch.maximum = float(values.max())
        # The clamp keeps a constant batch exact: its mean is its value.
        mean = math.fsum(memoryview(values)) / batch.count
        batch.mean = min(max(mean, batch.minimum), batch.maximum)
        deviations = values - batch.mean
        batch._m2 = math.fsum(memoryview(deviations * deviations))
        return self.merge(batch)

    def to_dict(self) -> dict:
        """Exact JSON-ready state; :meth:`from_dict` round-trips it.

        Floats are carried verbatim (``repr`` round-trip through JSON
        is exact for finite doubles); infinities from the empty
        recorder survive because the JSON layer emits ``Infinity``
        literals.  Trace run-end/window records embed this, so a replay
        reconstructs scorecard statistics bit-for-bit.
        """
        return {
            "count": self.count,
            "mean": self.mean,
            "m2": self._m2,
            "min": self.minimum,
            "max": self.maximum,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StreamingMoments":
        """Rebuild a recorder serialized by :meth:`to_dict`."""
        moments = cls()
        moments.count = int(payload["count"])
        moments.mean = float(payload["mean"])
        moments._m2 = float(payload["m2"])
        moments.minimum = float(payload["min"])
        moments.maximum = float(payload["max"])
        return moments

    @property
    def variance(self) -> float:
        """Population variance of the observations so far (0 if empty)."""
        if self.count == 0:
            return 0.0
        return self._m2 / self.count

    @property
    def stddev(self) -> float:
        """Population standard deviation (0 if empty)."""
        return math.sqrt(self.variance)


#: Mantissa bits a :class:`QuantileSketch` bucket key keeps.  Each
#: binade splits into ``2**7`` equal buckets, so a bucket's midpoint is
#: within ``2**-8`` relative of every value in it.
SKETCH_MANTISSA_BITS = 7
_SKETCH_SHIFT = 52 - SKETCH_MANTISSA_BITS
_NO_KEYS = np.zeros(0, dtype=np.int64)


class QuantileSketch:
    """A mergeable log-linear bucket histogram of non-negative values.

    DDSketch-style (Masson, Rim & Lee, VLDB 2019), with the bucket key
    read straight off the float64 bit pattern: the 11 exponent bits and
    the top :data:`SKETCH_MANTISSA_BITS` mantissa bits.  Keying is
    integer arithmetic with no logarithm, so keys -- and any trace that
    carries them -- are byte-identical on every platform.

    * :meth:`push_many` is one ``np.bincount`` per batch.
    * :meth:`merge` adds counts: exact, associative and commutative, so
      sharded or windowed folds merge to exactly the sketch of the
      concatenated stream.
    * :meth:`quantile` answers within ``2**-8`` relative of the order
      statistic for normal floats; the extremes are exact, answers are
      clamped to them (so a constant stream reads back exactly), and
      the zero bucket reads 0.0.

    Keys and counts are kept sparse (sorted, unique), so memory is the
    number of occupied buckets: about 128 per factor of two spanned.
    """

    __slots__ = ("_keys", "_counts", "count", "minimum", "maximum")

    def __init__(self):
        self._keys = _NO_KEYS
        self._counts = _NO_KEYS
        self.count = 0
        self.minimum = math.inf
        self.maximum = -math.inf

    def push_many(self, values) -> "QuantileSketch":
        """Fold a batch of finite, non-negative values in; returns ``self``."""
        # ``+ 0.0`` folds -0.0 into +0.0 before the bits are read.
        values = np.asarray(values, dtype=np.float64).ravel() + 0.0
        if not values.size:
            return self
        lo, hi = float(values.min()), float(values.max())
        if not (lo >= 0.0 and hi < math.inf):
            raise ValueError(
                f"sketch values must be finite and >= 0, got range [{lo}, {hi}]"
            )
        keys = values.view(np.int64) >> _SKETCH_SHIFT
        base = int(keys.min())
        counts = np.bincount(keys - base)
        occupied = np.flatnonzero(counts)
        batch = QuantileSketch()
        batch._keys = occupied + base
        batch._counts = counts[occupied]
        batch.count = int(values.size)
        batch.minimum = lo
        batch.maximum = hi
        return self.merge(batch)

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Add another sketch's counts into this one, in place; returns ``self``."""
        if other.count == 0:
            return self
        if self.count == 0:
            self._keys, self._counts = other._keys, other._counts
        else:
            keys = np.union1d(self._keys, other._keys)
            counts = np.zeros(keys.size, dtype=np.int64)
            counts[np.searchsorted(keys, self._keys)] += self._counts
            counts[np.searchsorted(keys, other._keys)] += other._counts
            self._keys, self._counts = keys, counts
        self.count += other.count
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        return self

    @classmethod
    def merged(cls, sketches: Sequence["QuantileSketch"]) -> "QuantileSketch":
        """A fresh sketch of every stream behind ``sketches``."""
        out = cls()
        for sketch in sketches:
            out.merge(sketch)
        return out

    def quantile(self, q: float) -> float:
        """The q-quantile: the midpoint of the bucket holding rank ``q*(n-1)``.

        The first and last ranks read the exact extremes.  Returns 0.0
        for an empty sketch.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = math.floor(q * (self.count - 1))
        if rank == 0:
            return self.minimum
        if rank == self.count - 1:
            return self.maximum
        i = int(np.searchsorted(np.cumsum(self._counts), rank, side="right"))
        key = int(self._keys[i])
        if key == 0:
            return self.minimum  # the zero bucket (0.0 and tiny subnormals)
        edges = np.array([key, key + 1], dtype=np.int64) << _SKETCH_SHIFT
        low, high = edges.view(np.float64).tolist()
        return min(max((low + high) / 2.0, self.minimum), self.maximum)

    def to_dict(self) -> dict:
        """Exact JSON-ready state (sparse keys/counts); :meth:`from_dict` round-trips it."""
        return {
            "keys": self._keys.tolist(),
            "counts": self._counts.tolist(),
            "min": self.minimum,
            "max": self.maximum,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "QuantileSketch":
        """Rebuild a sketch serialized by :meth:`to_dict`."""
        sketch = cls()
        sketch._keys = np.asarray(payload["keys"], dtype=np.int64)
        sketch._counts = np.asarray(payload["counts"], dtype=np.int64)
        sketch.count = int(sketch._counts.sum())
        sketch.minimum = float(payload["min"])
        sketch.maximum = float(payload["max"])
        return sketch


class P2Quantile:
    """The P² (piecewise-parabolic) single-quantile estimator.

    Jain & Chlamtac 1985: five markers track the running q-quantile
    without storing observations.  Until five samples arrive the exact
    order statistics are kept, so small streams report exact values;
    beyond that the marker heights are adjusted with a parabolic
    interpolation and the estimate is approximate (typically within a
    percent or two for smooth distributions).
    """

    __slots__ = ("q", "_heights", "_positions", "_desired", "_increments")

    def __init__(self, q: float):
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        self.q = q
        self._heights: List[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]

    @property
    def count(self) -> int:
        """Observations folded in so far."""
        if len(self._heights) < 5:
            return len(self._heights)
        return int(self._positions[4])

    def push(self, x: float) -> None:
        """Fold one observation into the estimator."""
        heights = self._heights
        if len(heights) < 5:
            heights.append(x)
            heights.sort()
            return
        # Locate the marker cell containing x, clamping the extremes.
        if x < heights[0]:
            heights[0] = x
            k = 0
        elif x >= heights[4]:
            heights[4] = x
            k = 3
        else:
            k = 0
            while x >= heights[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            self._positions[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]
        # Nudge the three interior markers toward their desired positions.
        for i in (1, 2, 3):
            d = self._desired[i] - self._positions[i]
            if (d >= 1.0 and self._positions[i + 1] - self._positions[i] > 1.0) or (
                d <= -1.0 and self._positions[i - 1] - self._positions[i] < -1.0
            ):
                step = 1.0 if d >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, step)
                self._positions[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        n, h = self._positions, self._heights
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        n, h = self._positions, self._heights
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (n[j] - n[i])

    def value(self) -> float:
        """Current estimate of the q-quantile (0.0 if no observations)."""
        heights = self._heights
        if not heights:
            return 0.0
        if len(heights) < 5:
            # Exact small-sample quantile, same interpolation as the
            # exact recorder.
            if len(heights) == 1:
                return heights[0]
            pos = self.q * (len(heights) - 1)
            lo = int(math.floor(pos))
            hi = int(math.ceil(pos))
            frac = pos - lo
            return heights[lo] * (1 - frac) + heights[hi] * frac
        return heights[2]

    def to_dict(self) -> dict:
        """Exact JSON-ready marker state; :meth:`from_dict` round-trips it."""
        return {
            "q": self.q,
            "heights": list(self._heights),
            "positions": list(self._positions),
            "desired": list(self._desired),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "P2Quantile":
        """Rebuild an estimator serialized by :meth:`to_dict`."""
        estimator = cls(float(payload["q"]))
        estimator._heights = [float(x) for x in payload["heights"]]
        estimator._positions = [float(x) for x in payload["positions"]]
        estimator._desired = [float(x) for x in payload["desired"]]
        return estimator

    def _cdf_points(self) -> Tuple[List[float], List[float]]:
        """This estimator's piecewise-linear CDF as (heights, fractions).

        While samples are retained the points are the exact empirical
        CDF under the same convention as :meth:`value`; in marker mode
        marker ``i`` at position ``n_i`` estimates the
        ``(n_i - 1)/(count - 1)`` quantile.
        """
        heights = self._heights
        if len(heights) < 5:
            c = len(heights)
            if c <= 1:
                return list(heights), [1.0] * c
            return list(heights), [k / (c - 1) for k in range(c)]
        c = self._positions[4]
        return sorted(heights), [(n - 1.0) / (c - 1.0) for n in self._positions]

    @classmethod
    def combine(cls, estimators: Sequence["P2Quantile"]) -> float:
        """One q-quantile over several estimators.

        Exact merging of P² sketches is impossible (markers discard the
        samples), so this is tiered:

        * If every estimator still retains its samples (< 5 observations
          each), the pooled retained samples give the **exact** combined
          quantile, same interpolation as the exact recorder.
        * Otherwise the estimators' piecewise-linear marker CDFs are mixed
          with count weights and the mixture is inverted at ``q`` —
          approximate, but monotone in ``q`` and bounded by the pooled
          extremes (properties pinned in ``tests/sim/test_lane_merge.py``).

        All estimators must track the same ``q``.  Returns 0.0 when no
        estimator has observations (matching :meth:`value` on empty).
        """
        qs = {e.q for e in estimators}
        if len(qs) > 1:
            raise ValueError(f"estimators track different quantiles: {sorted(qs)}")
        live = [e for e in estimators if e.count > 0]
        if not live:
            return 0.0
        q = live[0].q
        if all(len(e._heights) < 5 for e in live):
            pooled = sorted(h for e in live for h in e._heights)
            # _quantile's v*(1-f) + v*f interpolation can round an ulp
            # past a tied extreme; the pooled-extremes bound is part of
            # this method's contract, so clamp.
            x = LatencyRecorder._quantile(pooled, q)
            return min(max(x, pooled[0]), pooled[-1])
        total = sum(e.count for e in live)
        lanes = [(e.count / total,) + e._cdf_points() for e in live]

        def mixture(x: float) -> float:
            acc = 0.0
            for weight, xs, ps in lanes:
                if x < xs[0]:
                    continue
                if x >= xs[-1]:
                    acc += weight
                    continue
                i = bisect_right(xs, x) - 1
                if xs[i + 1] == xs[i]:
                    acc += weight * ps[i + 1]
                else:
                    span = (x - xs[i]) / (xs[i + 1] - xs[i])
                    acc += weight * (ps[i] + (ps[i + 1] - ps[i]) * span)
            return acc

        candidates = sorted({x for __, xs, __ in lanes for x in xs})
        values = [mixture(x) for x in candidates]
        if q <= values[0]:
            return candidates[0]
        for i in range(1, len(candidates)):
            if values[i] >= q:
                lo, hi = candidates[i - 1], candidates[i]
                flo, fhi = values[i - 1], values[i]
                if fhi <= flo:
                    return hi
                x = lo + (hi - lo) * (q - flo) / (fhi - flo)
                # The interpolation can overshoot hi (or undershoot lo)
                # by an ulp when the slope ratio rounds to ~1; the
                # pooled-extremes bound is part of the contract.
                return min(max(x, lo), hi)
        return candidates[-1]


class ThroughputMeter:
    """Counts completed work and reports rates over elapsed time."""

    def __init__(self, sim: Simulator, name: str = "throughput"):
        self.sim = sim
        self.name = name
        self._start = sim.now
        self.completed_work = 0.0
        self.completed_jobs = 0

    def record(self, work: float) -> None:
        """Record ``work`` units completed now."""
        if work < 0:
            raise ValueError(f"work must be >= 0, got {work}")
        self.completed_work += work
        self.completed_jobs += 1

    def reset(self) -> None:
        """Zero the counters and restart the measurement window."""
        self._start = self.sim.now
        self.completed_work = 0.0
        self.completed_jobs = 0

    @property
    def elapsed(self) -> float:
        """Length of the current measurement window."""
        return self.sim.now - self._start

    def rate(self) -> float:
        """Completed work per unit time over the window (0 if empty)."""
        if self.elapsed <= 0:
            return 0.0
        return self.completed_work / self.elapsed

    def job_rate(self) -> float:
        """Completed jobs per unit time over the window."""
        if self.elapsed <= 0:
            return 0.0
        return self.completed_jobs / self.elapsed


@dataclass(frozen=True)
class LatencySummary:
    """Summary statistics for a batch of latencies."""

    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p90: float
    p99: float
    stddev: float


class LatencyRecorder:
    """Collects per-request latencies and summarises them.

    Exact mode (the default) retains every sample; the sorted view
    needed by :meth:`quantile` / :meth:`summary` is cached and
    invalidated on :meth:`record`, so repeated summary calls over a
    stable sample set cost O(1) instead of re-sorting each time.
    (Mutate samples through :meth:`record` only; writing to ``samples``
    directly bypasses the cache invalidation.)

    ``streaming=True`` switches to O(1) memory for production-scale
    runs: moments via :class:`StreamingMoments` and one
    :class:`P2Quantile` per entry of ``quantiles`` (default the
    p50/p90/p99 that :meth:`summary` reports).  Quantiles are then
    approximate and :meth:`quantile` only answers the tracked ones;
    ``samples`` stays empty.
    """

    def __init__(
        self,
        name: str = "latency",
        streaming: bool = False,
        quantiles: Sequence[float] = (0.50, 0.90, 0.99),
    ):
        self.name = name
        self.streaming = streaming
        self.samples: List[float] = []
        self._sorted: Optional[List[float]] = None
        self._moments: Optional[StreamingMoments] = None
        self._estimators: dict = {}
        if streaming:
            self._moments = StreamingMoments()
            for q in quantiles:
                self._estimators[q] = P2Quantile(q)

    def record(self, latency: float) -> None:
        """Record one request latency."""
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        if self.streaming:
            self._moments.push(latency)
            for estimator in self._estimators.values():
                estimator.push(latency)
            return
        self.samples.append(latency)
        self._sorted = None

    def record_many(self, values) -> None:
        """Record a batch of latencies, in order, as a :meth:`record` loop would.

        The negative-value check runs once over the whole batch and
        raises the same error as :meth:`record` for the first negative
        value, before anything is recorded.
        """
        values = np.asarray(values, dtype=np.float64)
        negative = np.flatnonzero(values < 0)
        if negative.size:
            raise ValueError(f"latency must be >= 0, got {float(values[negative[0]])}")
        if self.streaming:
            for latency in values.tolist():
                self.record(latency)
            return
        self.samples.extend(values.tolist())
        self._sorted = None

    def _ordered(self) -> List[float]:
        """The cached sorted view of the samples."""
        if self._sorted is None or len(self._sorted) != len(self.samples):
            self._sorted = sorted(self.samples)
        return self._sorted

    def __len__(self) -> int:
        if self.streaming:
            return self._moments.count
        return len(self.samples)

    @staticmethod
    def _quantile(ordered: List[float], q: float) -> float:
        """Linear-interpolated quantile of a pre-sorted list."""
        if not ordered:
            return 0.0
        if len(ordered) == 1:
            return ordered[0]
        pos = q * (len(ordered) - 1)
        lo = int(math.floor(pos))
        hi = int(math.ceil(pos))
        frac = pos - lo
        return ordered[lo] * (1 - frac) + ordered[hi] * frac

    def quantile(self, q: float) -> float:
        """The q-quantile (q in [0, 1]) of recorded latencies.

        In streaming mode only the quantiles named at construction are
        tracked; asking for any other q raises ``ValueError``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.streaming:
            estimator = self._estimators.get(q)
            if estimator is None:
                raise ValueError(
                    f"streaming recorder tracks {sorted(self._estimators)}, "
                    f"not q={q}; list it in `quantiles` at construction"
                )
            return estimator.value()
        return self._quantile(self._ordered(), q)

    def count_over(self, threshold: float) -> int:
        """How many recorded latencies exceed ``threshold``.

        This is the SLO-violation count the campaign scorecards report
        (a request violates a latency SLO when it takes strictly longer
        than the SLO).  Answered with one bisect over the cached sorted
        view; exact mode only -- the streaming recorder does not retain
        samples, so it cannot answer an arbitrary threshold after the
        fact.
        """
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        if self.streaming:
            raise ValueError(
                "count_over needs retained samples; use streaming=False"
            )
        ordered = self._ordered()
        return len(ordered) - bisect_right(ordered, threshold)

    def summary(self) -> LatencySummary:
        """Full summary of the recorded latencies.

        Exact mode computes every field from the retained samples;
        streaming mode reads the Welford moments (count/mean/extremes
        exact, stddev to float rounding) and the P² estimates for any
        tracked p50/p90/p99 (0.0 for untracked ones).
        """
        if self.streaming:
            moments = self._moments
            if moments.count == 0:
                return LatencySummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

            def estimate(q: float) -> float:
                estimator = self._estimators.get(q)
                return estimator.value() if estimator is not None else 0.0

            return LatencySummary(
                count=moments.count,
                mean=moments.mean,
                minimum=moments.minimum,
                maximum=moments.maximum,
                p50=estimate(0.50),
                p90=estimate(0.90),
                p99=estimate(0.99),
                stddev=moments.stddev,
            )
        if not self.samples:
            return LatencySummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        ordered = self._ordered()
        n = len(ordered)
        mean = sum(ordered) / n
        var = sum((x - mean) ** 2 for x in ordered) / n
        return LatencySummary(
            count=n,
            mean=mean,
            minimum=ordered[0],
            maximum=ordered[-1],
            p50=self._quantile(ordered, 0.50),
            p90=self._quantile(ordered, 0.90),
            p99=self._quantile(ordered, 0.99),
            stddev=math.sqrt(var),
        )


class UtilizationMeter:
    """Tracks the busy fraction of a component over time."""

    def __init__(self, sim: Simulator, name: str = "utilization"):
        self.sim = sim
        self.name = name
        self._busy_since: Optional[float] = None
        self._busy_total = 0.0
        self._start = sim.now

    def set_busy(self) -> None:
        """Mark the component busy (idempotent)."""
        if self._busy_since is None:
            self._busy_since = self.sim.now

    def set_idle(self) -> None:
        """Mark the component idle (idempotent)."""
        if self._busy_since is not None:
            self._busy_total += self.sim.now - self._busy_since
            self._busy_since = None

    def utilization(self) -> float:
        """Busy fraction since construction (in [0, 1])."""
        elapsed = self.sim.now - self._start
        if elapsed <= 0:
            return 0.0
        busy = self._busy_total
        if self._busy_since is not None:
            busy += self.sim.now - self._busy_since
        return min(1.0, busy / elapsed)


class AvailabilityMeter:
    """Gray & Reuter availability: fraction of load served within an SLO.

    Each offered request is recorded with its response time (or as
    *unserved* if it never completed); availability is the fraction whose
    response time was at most ``slo``.

    Exact mode (the default) retains every response time so
    :meth:`availability_at` can answer any SLO exactly — via one bisect
    over a cached sorted view, invalidated on :meth:`record`.
    ``streaming=True`` drops the per-request list for O(1) memory:
    :meth:`availability` and the construction-time SLO stay exact, and
    :meth:`availability_at` interpolates over a P² quantile ladder
    (approximate; still monotone in the SLO).
    """

    #: Quantile ladder backing the streaming-mode availability curve.
    _LADDER: Tuple[float, ...] = (0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999)

    def __init__(self, slo: float, name: str = "availability", streaming: bool = False):
        if slo <= 0:
            raise ValueError(f"slo must be > 0, got {slo}")
        self.slo = slo
        self.name = name
        self.streaming = streaming
        self.offered = 0
        self.within_slo = 0
        self.unserved = 0
        self.response_times: List[float] = []
        self._sorted: Optional[List[float]] = None
        self._ladder: List[P2Quantile] = (
            [P2Quantile(q) for q in self._LADDER] if streaming else []
        )

    def record(self, response_time: Optional[float]) -> None:
        """Record one offered request.

        ``response_time`` of ``None`` means the request was never served
        (it still counts against availability).
        """
        self.offered += 1
        if response_time is None:
            self.unserved += 1
            if not self.streaming:
                self.response_times.append(float("inf"))
                self._sorted = None
            return
        if response_time < 0:
            raise ValueError(f"response time must be >= 0, got {response_time}")
        if self.streaming:
            for estimator in self._ladder:
                estimator.push(response_time)
        else:
            self.response_times.append(response_time)
            self._sorted = None
        if response_time <= self.slo:
            self.within_slo += 1

    def availability(self) -> float:
        """Fraction of offered load served within the SLO (in [0, 1])."""
        if self.offered == 0:
            return 1.0
        return self.within_slo / self.offered

    def _ordered(self) -> List[float]:
        """The cached sorted view of the response times (exact mode)."""
        if self._sorted is None or len(self._sorted) != len(self.response_times):
            self._sorted = sorted(self.response_times)
        return self._sorted

    def availability_at(self, slo: float) -> float:
        """Availability recomputed against a different SLO.

        Monotone nondecreasing in ``slo`` by construction.  Exact mode
        answers with one bisect over the cached sorted response times;
        streaming mode inverts the P² quantile ladder by linear
        interpolation (exact at 0 served, approximate between ladder
        points, never counting unserved requests as available).
        """
        if self.offered == 0:
            return 1.0
        if not self.streaming:
            return bisect_right(self._ordered(), slo) / self.offered
        served = self.offered - self.unserved
        if served == 0:
            return 0.0
        served_fraction = served / self.offered
        # Independent P² estimators can cross by tiny margins; a running
        # max re-imposes the monotone CDF the interpolation needs.
        values: List[float] = []
        for estimator in self._ladder:
            value = estimator.value()
            values.append(value if not values else max(value, values[-1]))
        quantiles = list(zip(values, self._LADDER))
        # CDF estimate among *served* requests, then scaled by the served
        # fraction so unserved load always counts as unavailable.
        if slo < quantiles[0][0]:
            cdf = 0.0
        elif slo >= quantiles[-1][0]:
            cdf = 1.0
        else:
            cdf = quantiles[0][1]
            for (lo_v, lo_q), (hi_v, hi_q) in zip(quantiles, quantiles[1:]):
                if lo_v <= slo < hi_v:
                    frac = 0.0 if hi_v == lo_v else (slo - lo_v) / (hi_v - lo_v)
                    cdf = lo_q + frac * (hi_q - lo_q)
                    break
                cdf = hi_q
        return cdf * served_fraction
