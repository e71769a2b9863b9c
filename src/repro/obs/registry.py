"""Metric primitives: counters, gauges, and log2-bucketed histograms.

Everything here depends on numpy alone (imported by both the functional
machine and the MLSim replay engine) and serializes to plain
JSON-native values, so metric documents can ride inside ``BENCH_*.json``
artifacts under the bench layer's byte-determinism contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Schema tag of the functional-machine metrics document
#: (:func:`repro.obs.observer.machine_metrics`).
MACHINE_SCHEMA = "repro-obs-machine-v1"
#: Schema tag of the replay metrics document
#: (``MLSimResult.metrics`` when collected).
REPLAY_SCHEMA = "repro-obs-replay-v1"

#: Every metric-document version this code base can interpret.  Artifact
#: loaders (``repro bench compare``) refuse anything else rather than
#: silently comparing fields whose meaning may have changed.
KNOWN_OBS_SCHEMAS = frozenset({MACHINE_SCHEMA, REPLAY_SCHEMA})

#: Histogram bucket upper bounds: 1, 2, 4, ... 2^20 microseconds.  A
#: final implicit +inf bucket catches anything slower than ~one second.
_BUCKET_BOUNDS = tuple(float(1 << i) for i in range(21))


@dataclass
class Counter:
    """A monotonically increasing count."""

    value: int = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def to_dict(self) -> int:
        return self.value


@dataclass
class Gauge:
    """A sampled value with running high-water mark."""

    value: float = 0.0
    high_water: float = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.high_water:
            self.high_water = value

    def to_dict(self) -> dict[str, float]:
        return {"value": self.value, "high_water": self.high_water}


@dataclass
class Histogram:
    """A latency histogram over power-of-two microsecond buckets.

    Buckets are upper bounds 1, 2, 4 ... 2^20 µs plus a final overflow
    bucket; :meth:`to_dict` emits only the non-empty buckets, keyed by
    their bound (``"inf"`` for the overflow), so empty histograms stay
    tiny in artifacts.
    """

    count: int = 0
    total: float = 0.0
    max: float = 0.0
    _buckets: list[int] = field(
        default_factory=lambda: [0] * (len(_BUCKET_BOUNDS) + 1))

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value
        for i, bound in enumerate(_BUCKET_BOUNDS):
            if value <= bound:
                self._buckets[i] += 1
                return
        self._buckets[-1] += 1

    @classmethod
    def of(cls, values) -> Histogram:
        """The histogram :meth:`observe` builds from ``values`` one at a
        time, in array operations: the total summed in order (a
        sequential ``np.add.accumulate``), each value in the first
        bucket whose bound is not below it."""
        values = np.asarray(values, dtype=np.float64)
        h = cls(count=len(values))
        if h.count:
            h.total = float(np.add.accumulate(
                np.concatenate(((0.0,), values)))[-1])
            h.max = float(np.fmax.reduce(values, initial=0.0))
            h._buckets = np.bincount(
                np.searchsorted(_BUCKET_BOUNDS, values),
                minlength=len(_BUCKET_BOUNDS) + 1).tolist()
        return h

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, object]:
        buckets: dict[str, int] = {}
        for i, n in enumerate(self._buckets):
            if n:
                key = ("inf" if i == len(_BUCKET_BOUNDS)
                       else str(int(_BUCKET_BOUNDS[i])))
                buckets[key] = n
        return {
            "count": self.count,
            "total_us": self.total,
            "max_us": self.max,
            "buckets": buckets,
        }


@dataclass
class MetricsRegistry:
    """A flat name -> metric namespace with canonical JSON rendering."""

    _metrics: dict[str, Counter | Gauge | Histogram] = field(
        default_factory=dict)

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def _get(self, name: str, kind: type):
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}")
        return metric

    def to_dict(self) -> dict[str, object]:
        """All metrics in name order (deterministic regardless of
        registration order)."""
        return {name: self._metrics[name].to_dict()
                for name in sorted(self._metrics)}
