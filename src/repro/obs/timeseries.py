"""Windowed metric snapshots on the simulated clock.

The cumulative :class:`~repro.obs.metrics.MetricsRegistry` answers "how
much, in total"; the paper's §5 evaluation needs "how much, *when*" —
message load around an election, Bloom false positives after churn,
per-window query throughput as the MANET evolves.
:class:`TimeSeriesRecorder` closes that gap: it snapshots the registry at
a configurable **simulated** interval and stores the per-window *deltas*
(counter increments; histogram count/total movement with the window
mean), so a run becomes a trajectory instead of one final total.

The recorder is driven by a periodic simulator event
(:meth:`TimeSeriesRecorder.attach` uses
:meth:`~repro.network.simulator.Simulator.schedule_every` with
``daemon=True``, so the recording tick never keeps an otherwise-drained
simulation alive).  Window records flow through the sink abstraction via
``emit_timeseries`` — :class:`~repro.obs.sinks.JsonlSink` writes one
``{"type": "timeseries", ...}`` record per window.

Out-of-order snapshot requests (a callback asking for a snapshot at a
time at or before the last window's end) are refused rather than
recorded: a window's delta is defined against the previous window's end,
and rewinding the clock would double-count increments.  The refusal is
counted in :attr:`TimeSeriesRecorder.skipped`; the next in-order snapshot
still produces correct deltas.
"""

from __future__ import annotations

from collections.abc import Callable

#: Snapshot interval (simulated seconds) when none is given.
DEFAULT_INTERVAL = 1.0


def _series_key(record: dict) -> tuple:
    return (record["name"], tuple(sorted(record["labels"].items())))


class TimeSeriesRecorder:
    """Per-window metric deltas over a cumulative registry.

    Args:
        metrics: the registry to snapshot.
        interval: simulated seconds between periodic snapshots.
        emit: callback receiving each finished window record (sink
            fan-out; :meth:`repro.obs.Observability.start_timeseries`
            wires it to every ``emit_timeseries``-capable sink).

    A window record is JSON-serializable::

        {"window": 3, "t_start": 2.0, "t_end": 3.0,
         "deltas": [{"name": "net.messages", "labels": {"node": 0},
                     "type": "counter", "delta": 4, "value": 17}, ...]}

    Histogram deltas carry ``delta_count``, ``delta_total`` and the
    window ``mean`` (delta_total / delta_count) plus the cumulative
    ``count``.  Series that did not move in a window are omitted, so idle
    windows are cheap and the JSONL form stays compact.
    """

    def __init__(
        self,
        metrics,
        interval: float = DEFAULT_INTERVAL,
        emit: Callable[[dict], None] | None = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.metrics = metrics
        self.interval = interval
        self.windows: list[dict] = []
        #: Out-of-order snapshot requests refused (see module docstring).
        self.skipped = 0
        self._emit = emit
        self._last_time: float | None = None
        self._baseline: dict[tuple, dict] = {}
        self._cancel: Callable[[], None] | None = None
        self._sim = None

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self, sim_time: float) -> dict | None:
        """Close the current window at ``sim_time`` and record its deltas.

        Returns the window record, or ``None`` for an out-of-order
        request (``sim_time`` at or before the previous window's end —
        refused, counted in :attr:`skipped`, baselines untouched).
        """
        if self._last_time is not None and sim_time <= self._last_time:
            self.skipped += 1
            return None
        records = self.metrics.snapshot()
        deltas: list[dict] = []
        for record in records:
            key = _series_key(record)
            previous = self._baseline.get(key)
            delta = self._delta(record, previous)
            if delta is not None:
                deltas.append(delta)
            self._baseline[key] = record
        window = {
            "window": len(self.windows),
            "t_start": self._last_time if self._last_time is not None else 0.0,
            "t_end": sim_time,
            "deltas": deltas,
        }
        self._last_time = sim_time
        self.windows.append(window)
        if self._emit is not None:
            self._emit(window)
        return window

    @staticmethod
    def _delta(record: dict, previous: dict | None) -> dict | None:
        """The movement of one series since ``previous`` (None if idle)."""
        base = {"name": record["name"], "labels": record["labels"], "type": record["type"]}
        if record["type"] == "counter":
            moved = record["value"] - (previous["value"] if previous else 0)
            if not moved:
                return None
            return {**base, "delta": moved, "value": record["value"]}
        delta_count = record["count"] - (previous["count"] if previous else 0)
        if not delta_count:
            return None
        delta_total = record["total"] - (previous["total"] if previous else 0.0)
        return {
            **base,
            "delta_count": delta_count,
            "delta_total": delta_total,
            "mean": delta_total / delta_count,
            "count": record["count"],
        }

    # ------------------------------------------------------------------
    # Simulator binding
    # ------------------------------------------------------------------
    def attach(self, sim) -> Callable[[], None]:
        """Snapshot every :attr:`interval` simulated seconds on ``sim``.

        The periodic event is a *daemon*: it never keeps ``sim.run()``
        alive once all model events have drained.  Returns (and also
        stores) a cancel function; :meth:`finalize` cancels and closes
        the trailing partial window.

        Raises:
            RuntimeError: if already attached.
        """
        if self._cancel is not None:
            raise RuntimeError("recorder is already attached to a simulator")
        self._sim = sim
        self._cancel = sim.schedule_every(
            self.interval, lambda: self.snapshot(sim.now), daemon=True
        )
        return self._cancel

    def finalize(self) -> dict | None:
        """Stop the periodic tick and close the trailing partial window.

        Safe to call multiple times and without :meth:`attach` (then it
        only snapshots when a simulator was ever seen).  Returns the
        final window record, if one was produced.
        """
        if self._cancel is not None:
            self._cancel()
            self._cancel = None
        if self._sim is not None:
            return self.snapshot(self._sim.now)
        return None

    def __repr__(self) -> str:
        return (
            f"TimeSeriesRecorder(interval={self.interval}, "
            f"{len(self.windows)} windows, skipped={self.skipped})"
        )
