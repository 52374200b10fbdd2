"""Observability for the discovery stack: tracing + metrics + sinks.

The paper's evaluation (§2.4, §5) is entirely about *where time goes* —
reasoner cost vs. encoded matching, per-hop forwarding overhead, Bloom
false-positive rates.  This package gives the stack one first-class
telemetry layer instead of ad-hoc counters:

* :class:`~repro.obs.spans.Tracer` — hierarchical spans covering parse →
  concept encoding → Bloom admission → capability scoring, plus
  one span per §4 forwarding hop (directory id, hop count, admit/reject
  verdict, cache hit/miss flags), grouped across asynchronous hops by a
  per-query trace id;
* :class:`~repro.obs.metrics.MetricsRegistry` — counters and histograms
  (publishes, queries, cache hits, Bloom false positives, messages/bytes
  per node) with label-bound per-directory / per-simulation scopes;
* :mod:`~repro.obs.sinks` — in-memory ring buffer and JSONL file sinks;
  ``repro.cli trace-report`` renders the JSONL form.

Everything hangs off an :class:`Observability` façade, in one of three
states:

* :data:`NULL_OBS`, the default wired through the stack: ``enabled`` and
  ``tracing`` are both False, so every instrumented hot path costs one
  attribute check (the <5 % regression budget of the benchmarks);
* metrics only, an :class:`Observability` with no sink (what
  ``repro.cli serve`` builds by default): counters and histograms guard
  with ``if obs.enabled:`` and are recorded; spans guard with
  ``if obs.tracing:`` and are not built, and frames carry no trace
  context unless they relay one that arrived with the query;
* traced, once a sink is attached (a ``--collector`` attaches one):
  every query builds its span tree and stamps its context on the
  frames it causes.

See ``docs/OBSERVABILITY.md`` for the span schema and metric names.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs.events import EventLog, LifecycleEvent
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.sinks import JsonlSink, RingBufferSink
from repro.obs.spans import NO_CONTEXT, Span, TraceContext, Tracer
from repro.obs.timeseries import TimeSeriesRecorder

__all__ = [
    "Observability",
    "NULL_OBS",
    "install",
    "Span",
    "TraceContext",
    "Tracer",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "LifecycleEvent",
    "EventLog",
    "TimeSeriesRecorder",
    "RingBufferSink",
    "JsonlSink",
]


class Observability:
    """Tracing + metrics façade threaded through the discovery stack.

    Metrics are recorded whenever the instance exists; spans only while
    :attr:`tracing` is true, that is while some sink reads them.

    Args:
        sinks: objects with ``emit(span)`` (and optionally
            ``emit_metrics(snapshot)`` / ``close()``) receiving finished
            root spans.  Sinks appended to :attr:`sinks` later count too.
    """

    enabled = True

    def __init__(self, sinks=()) -> None:
        self.sinks = list(sinks)
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(self._emit_span)
        self.events = EventLog(self._emit_event)
        self.timeseries: TimeSeriesRecorder | None = None
        self._closed = False

    def _emit_span(self, span: Span) -> None:
        for sink in self.sinks:
            sink.emit(span)

    def _emit_event(self, event: LifecycleEvent) -> None:
        for sink in self.sinks:
            emit_event = getattr(sink, "emit_event", None)
            if emit_event is not None:
                emit_event(event)

    def _emit_timeseries(self, window: dict) -> None:
        for sink in self.sinks:
            emit_timeseries = getattr(sink, "emit_timeseries", None)
            if emit_timeseries is not None:
                emit_timeseries(window)

    # -- tracing ---------------------------------------------------------
    @property
    def tracing(self) -> bool:
        """Whether instrumented code builds spans: a sink is attached to
        read them.  Derived from :attr:`sinks`; it cannot be set."""
        return bool(self.sinks)

    def span(self, name: str, **kwargs):
        """Open a timed span (context manager); see :meth:`Tracer.span`."""
        return self.tracer.span(name, **kwargs)

    def event(self, name: str, **kwargs) -> Span:
        """Record a zero-duration span; see :meth:`Tracer.event`."""
        return self.tracer.event(name, **kwargs)

    # -- lifecycle events ------------------------------------------------
    def lifecycle(
        self,
        kind: str,
        sim_time: float | None = None,
        node: int | None = None,
        cause: str | None = None,
        **attrs,
    ) -> LifecycleEvent:
        """Record one protocol lifecycle event; see :meth:`EventLog.record`."""
        return self.events.record(kind, sim_time=sim_time, node=node, cause=cause, **attrs)

    # -- time series -----------------------------------------------------
    def start_timeseries(self, sim, interval: float = 1.0) -> TimeSeriesRecorder:
        """Snapshot windowed metric deltas every ``interval`` *simulated*
        seconds on ``sim`` (a daemon event — it never keeps a drained
        simulation alive).  Windows flow to every
        ``emit_timeseries``-capable sink; :meth:`close` finalizes the
        trailing partial window.

        Raises:
            RuntimeError: if a recorder was already started.
        """
        if self.timeseries is not None:
            raise RuntimeError("a time-series recorder is already running")
        self.timeseries = TimeSeriesRecorder(
            self.metrics, interval=interval, emit=self._emit_timeseries
        )
        self.timeseries.attach(sim)
        return self.timeseries

    # -- metrics ---------------------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        """Shorthand for ``self.metrics.counter(...)``."""
        return self.metrics.counter(name, **labels)

    def histogram(self, name: str, **labels) -> Histogram:
        """Shorthand for ``self.metrics.histogram(...)``."""
        return self.metrics.histogram(name, **labels)

    # -- lifecycle -------------------------------------------------------
    def flush(self) -> None:
        """Push the current metrics snapshot to every capable sink."""
        snapshot = self.metrics.snapshot()
        for sink in self.sinks:
            emit_metrics = getattr(sink, "emit_metrics", None)
            if emit_metrics is not None:
                emit_metrics(snapshot)

    def close(self) -> None:
        """Finalize the time series, flush metrics, then close every sink
        that supports it.  Idempotent: a second call is a no-op, so a
        ``finally:``/context-manager close composes with an explicit one.
        """
        if self._closed:
            return
        self._closed = True
        if self.timeseries is not None:
            self.timeseries.finalize()
        self.flush()
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "Observability":
        return self

    def __exit__(self, *exc) -> None:
        # Close even when the run raised mid-simulation: the line-buffered
        # JSONL sinks have already flushed every finished record, and the
        # final metrics snapshot captures the state at the failure point.
        self.close()

    def __repr__(self) -> str:
        return f"Observability({len(self.sinks)} sinks, {self.metrics!r})"


class _NullSeries:
    """Accepts any metric operation and does nothing."""

    __slots__ = ()
    value = 0
    count = 0
    total = 0.0
    mean = 0.0

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: int) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


class _NullSpan:
    """Accepts attribute writes and discards them."""

    __slots__ = ("attrs",)

    def __init__(self) -> None:
        self.attrs: dict = {}


class _NullTracer:
    """Tracer stand-in: no context is ever active, activation is free."""

    __slots__ = ()
    origin = ""

    def activate(self, context):
        return NO_CONTEXT

    def current_context(self):
        return None

    def current_traceparent(self):
        return None


class _NullEventLog:
    """Event-log stand-in: records nothing, counts nothing."""

    __slots__ = ()
    emitted = 0

    def record(self, kind: str, **kwargs) -> None:
        return None


class _NullMetrics:
    """Registry stand-in returning the shared null series."""

    __slots__ = ()

    def counter(self, name: str, **labels) -> _NullSeries:
        return _NULL_SERIES

    def histogram(self, name: str, **labels) -> _NullSeries:
        return _NULL_SERIES

    def snapshot(self) -> list:
        return []


_NULL_SERIES = _NullSeries()


class _NullObservability:
    """The no-op default: ``enabled`` and ``tracing`` are False and every
    operation is free.

    Instrumented hot paths guard with ``if obs.enabled:`` (metrics) or
    ``if obs.tracing:`` (spans) so the disabled cost is one attribute
    load; the methods below still exist so unguarded call sites (cold
    paths, tests) stay safe.
    """

    enabled = False
    tracing = False
    sinks: tuple = ()
    timeseries = None

    def __init__(self) -> None:
        self.metrics = _NullMetrics()
        self._span = _NullSpan()
        self.events = _NullEventLog()
        self.tracer = _NullTracer()

    @contextmanager
    def span(self, name: str, **kwargs):
        yield self._span

    def event(self, name: str, **kwargs) -> _NullSpan:
        return self._span

    def lifecycle(self, kind: str, **kwargs) -> None:
        return None

    def start_timeseries(self, sim, interval: float = 1.0) -> None:
        return None

    def counter(self, name: str, **labels) -> _NullSeries:
        return _NULL_SERIES

    def histogram(self, name: str, **labels) -> _NullSeries:
        return _NULL_SERIES

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def __enter__(self) -> "_NullObservability":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def __repr__(self) -> str:
        return "NULL_OBS"


#: The shared disabled instance every instrumented module defaults to.
NULL_OBS = _NullObservability()


def install(obs: Observability, network) -> None:
    """Wire an observability instance through a running deployment.

    Sets ``network.obs`` and ``network.runtime.obs``, wires the topology
    route cache to emit ``cache.invalidate`` lifecycle events, and wires
    every existing agent.  Agents wire in one of two ways:

    * anything exposing ``wire_observability(obs)`` (directory agents) is
      asked to wire itself — and because
      :meth:`~repro.protocols.base.DirectoryAgentBase.attach` calls the
      same hook, directories elected or installed *after* ``install()``
      inherit the live instance too;
    * otherwise, a ``directory`` attribute with an ``obs`` slot is
      pointed at ``obs`` directly (legacy duck-typing),

    so protocol-level hop spans and directory-level match spans land in
    one trace stream regardless of when the directory appeared.
    """
    network.obs = obs
    network.runtime.obs = obs
    routes = getattr(network, "routes", None)
    if routes is not None and hasattr(routes, "on_invalidate"):
        def _route_flushed(dropped: int) -> None:
            obs.lifecycle(
                "cache.invalidate",
                sim_time=network.runtime.now,
                cause="topology_changed",
                cache="route",
                dropped=dropped,
            )
        routes.on_invalidate = _route_flushed
    for node in network.nodes.values():
        # Live fabrics list remote peers as agent-less stubs.
        for agent in getattr(node, "agents", ()):
            wire = getattr(agent, "wire_observability", None)
            if wire is not None:
                wire(obs)
                continue
            directory = getattr(agent, "directory", None)
            if directory is not None and hasattr(directory, "obs"):
                directory.obs = obs
