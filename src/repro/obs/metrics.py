"""Counters and histograms for the discovery stack (§5 measurements).

A :class:`MetricsRegistry` keys every metric by ``(name, labels)``:
``counter("net.messages", node=3)`` and ``counter("net.messages", node=7)``
are distinct series, which is how per-node and per-directory breakdowns
fall out of one flat registry.

Everything is plain Python ints/floats — no dependencies, no locks (the
simulation is single-threaded), no background collection.  Sinks read the
registry through :meth:`MetricsRegistry.snapshot`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque

#: Observations kept per histogram for quantile estimation.  Quantiles are
#: nearest-rank over the most recent window — deterministic (no sampling
#: RNG) and bounded; ``count``/``total``/``min``/``max`` remain exact over
#: the full lifetime.
QUANTILE_WINDOW = 4096

#: The quantiles every histogram snapshot reports.
QUANTILES = (0.5, 0.95, 0.99)

#: Upper bounds (seconds) of the cumulative histogram buckets every
#: histogram also maintains — a Prometheus-style exponential ladder from
#: 0.5 ms to 10 s, sized for the latency distributions this repo records
#: (query handling, client round trips).  ``+Inf`` is implicit.
DEFAULT_BUCKET_BOUNDS = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


class Counter:
    """A monotonic (or settable) integer series."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1)."""
        self.value += amount

    def set(self, value: int) -> None:
        """Overwrite the value (mirroring an externally kept counter)."""
        self.value = value

    def snapshot(self) -> dict:
        """This series as a JSON-serializable record."""
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "type": "counter",
            "value": self.value,
        }

    def __repr__(self) -> str:
        return f"Counter({self.name}{dict(self.labels)}={self.value})"


class Histogram:
    """A streaming summary: count / total / min / max of observations,
    nearest-rank p50/p95/p99 over the most recent
    :data:`QUANTILE_WINDOW` observations, plus exact cumulative bucket
    counts over :data:`DEFAULT_BUCKET_BOUNDS` (the Prometheus
    ``_bucket{le=...}`` exposition)."""

    __slots__ = ("name", "labels", "count", "total", "min", "max", "_values", "_buckets")

    def __init__(self, name: str, labels: tuple) -> None:
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._values: deque[float] = deque(maxlen=QUANTILE_WINDOW)
        # Per-bucket (non-cumulative) counts; the final slot is +Inf.
        # Exact over the full lifetime, unlike the windowed quantiles.
        self._buckets = [0] * (len(DEFAULT_BUCKET_BOUNDS) + 1)

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._values.append(value)
        index = bisect_left(DEFAULT_BUCKET_BOUNDS, value)
        self._buckets[index] += 1

    def buckets(self) -> list[tuple[float, int]]:
        """Cumulative ``(le, count)`` pairs; the last ``le`` is ``+Inf``."""
        out: list[tuple[float, int]] = []
        running = 0
        bounds = DEFAULT_BUCKET_BOUNDS + (float("inf"),)
        for bound, count in zip(bounds, self._buckets):
            running += count
            out.append((bound, running))
        return out

    @property
    def mean(self) -> float:
        """Average observation (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float | None:
        """Nearest-rank quantile over the retained window (None when empty).

        Raises:
            ValueError: if ``q`` is outside ``(0, 1]``.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if not self._values:
            return None
        ordered = sorted(self._values)
        rank = math.ceil(q * len(ordered)) - 1
        return ordered[rank]

    def snapshot(self) -> dict:
        """This series as a JSON-serializable record (with quantiles)."""
        record = {
            "name": self.name,
            "labels": dict(self.labels),
            "type": "histogram",
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }
        ordered = sorted(self._values)
        for q in QUANTILES:
            key = f"p{int(q * 100)}"
            if ordered:
                record[key] = ordered[math.ceil(q * len(ordered)) - 1]
            else:
                record[key] = None
        record["buckets"] = [
            ["+Inf" if math.isinf(le) else le, count] for le, count in self.buckets()
        ]
        return record

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name}{dict(self.labels)}: n={self.count}, "
            f"mean={self.mean:.4g})"
        )


class MetricsRegistry:
    """All metric series of one observability instance."""

    def __init__(self) -> None:
        self._series: dict[tuple[str, tuple], Counter | Histogram] = {}

    def __len__(self) -> int:
        return len(self._series)

    @staticmethod
    def _key(name: str, labels: dict) -> tuple[str, tuple]:
        return (name, tuple(sorted(labels.items())))

    def counter(self, name: str, **labels) -> Counter:
        """The counter for ``(name, labels)``, created on first use.

        Raises:
            TypeError: the series exists with a different metric type.
        """
        key = self._key(name, labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = Counter(name, key[1])
        elif not isinstance(series, Counter):
            raise TypeError(f"{name}{labels} is a {type(series).__name__}, not a Counter")
        return series

    def histogram(self, name: str, **labels) -> Histogram:
        """The histogram for ``(name, labels)``, created on first use.

        Raises:
            TypeError: the series exists with a different metric type.
        """
        key = self._key(name, labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = Histogram(name, key[1])
        elif not isinstance(series, Histogram):
            raise TypeError(f"{name}{labels} is a {type(series).__name__}, not a Histogram")
        return series

    def snapshot(self) -> list[dict]:
        """All series as JSON-serializable records, deterministically
        ordered by (name, labels)."""
        return [series.snapshot() for _key, series in sorted(self._series.items())]

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._series)} series)"

