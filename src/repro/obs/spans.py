"""Structured query tracing: hierarchical spans over the discovery stack.

A :class:`Span` is one timed step of answering (or publishing) a request —
parsing a document, resolving concept codes, selecting candidate graphs,
descending a capability DAG, or processing one forwarding hop of the §4
backbone.  Spans nest: whatever is opened while another span is active
becomes its child, so a single ``query.handle`` span at the origin
directory carries the whole local decomposition beneath it.

Forwarding is asynchronous (each hop is a separate simulator event), so a
query's spans cannot all share one stack.  They share a **trace id**
instead: the origin directory stamps ``q<node>.<query_id>`` on its
top-level span, and every remote-hop span minted while serving the same
query carries the same id.  Grouping by trace id reconstructs the per-query
hop timeline that :mod:`repro.obs.report` renders.

Determinism: every span carries a monotonically increasing ``seq`` number
and the simulated time it was opened at.  Both are pure functions of the
(seeded, deterministic) simulation, unlike the wall-clock ``start``/``end``
stamps — :meth:`Span.signature` therefore folds everything *except* the
wall clock, which is what the trace-determinism test compares.
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Callable
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

TRACEPARENT_VERSION = "00"

#: What :meth:`Tracer.activate` returns for ``None``: a reusable no-op
#: context manager, so untraced queries pay no generator per activation.
NO_CONTEXT = nullcontext()


@dataclass(frozen=True)
class TraceContext:
    """A W3C-traceparent-style reference to a span in some process.

    Carried on the wire (``Envelope.trace``) so a span opened in a
    downstream process can parent onto the span that caused the message.
    ``trace_id`` and ``span_id`` must not contain ``-`` (the repo's ids —
    ``q<node>.<id>`` and ``n<node>.s<seq>`` — never do).

    Args:
        trace_id: the logical query's id, shared by every hop.
        span_id: the id of the span (or minted context) being referenced.
        sampled: whether downstream spans should be recorded.
    """

    trace_id: str
    span_id: str
    sampled: bool = True

    def to_traceparent(self) -> str:
        """Serialize as ``00-<trace_id>-<span_id>-<01|00>``."""
        flags = "01" if self.sampled else "00"
        return f"{TRACEPARENT_VERSION}-{self.trace_id}-{self.span_id}-{flags}"

    @classmethod
    def from_traceparent(cls, header: str | None) -> "TraceContext | None":
        """Parse a traceparent string; ``None``/malformed input gives ``None``."""
        if not header:
            return None
        parts = header.split("-")
        if len(parts) != 4 or not parts[1] or not parts[2]:
            return None
        return cls(trace_id=parts[1], span_id=parts[2], sampled=parts[3] != "00")


@dataclass
class Span:
    """One traced step; children are the steps taken while it was open.

    Args:
        name: step name (``query.parse``, ``dag.descend``, ``hop.remote``…).
        seq: tracer-wide monotonic sequence number (deterministic order).
        trace_id: groups the spans of one logical query across hops.
        sim_time: simulated clock when opened (None outside a simulation).
        attrs: free-form details (directory id, hop count, verdicts, flags).
        span_id: process-unique deterministic id (``<origin>s<seq>``).
        parent_span_id: the span this one descends from — the enclosing
            span in-process, or the upstream span named by a propagated
            :class:`TraceContext` when opened at the top level.
    """

    name: str
    seq: int
    trace_id: str | None = None
    sim_time: float | None = None
    attrs: dict = field(default_factory=dict)
    start: float = 0.0
    end: float = 0.0
    children: list["Span"] = field(default_factory=list)
    span_id: str | None = None
    parent_span_id: str | None = None

    @property
    def duration(self) -> float:
        """Wall-clock seconds between open and close (0 for events)."""
        return max(0.0, self.end - self.start)

    def to_dict(self, timestamps: bool = True) -> dict:
        """JSON-serializable form; ``timestamps=False`` drops wall-clock
        fields (the deterministic projection sinks and tests use)."""
        record = {
            "name": self.name,
            "seq": self.seq,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
            "sim_time": self.sim_time,
            "attrs": dict(self.attrs),
            "children": [child.to_dict(timestamps) for child in self.children],
        }
        if timestamps:
            record["duration_us"] = round(self.duration * 1e6, 3)
        return record

    def signature(self) -> tuple:
        """Hashable tree identity *modulo wall-clock timestamps*.

        ``span_id``/``parent_span_id`` are derived from ``seq`` and the
        tree structure, so they add nothing here and stay out — the
        signature is byte-compatible with pre-tracing recordings.
        """
        return (
            self.name,
            self.seq,
            self.trace_id,
            self.sim_time,
            tuple(sorted((key, repr(value)) for key, value in self.attrs.items())),
            tuple(child.signature() for child in self.children),
        )

    def context(self) -> "TraceContext | None":
        """This span as a propagatable context (None without a trace id)."""
        if self.trace_id is None or self.span_id is None:
            return None
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    def walk(self):
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, seq={self.seq}, trace={self.trace_id}, "
            f"{len(self.children)} children)"
        )


class Tracer:
    """Builds span trees; completed top-level spans are handed to ``emit``.

    Args:
        emit: callback receiving each finished root span (sink fan-out).
        origin: prefix baked into every span id minted by this tracer.
            Live processes set it to ``n<node_id>.`` so span ids are
            unique across the fleet; the simulator's single shared tracer
            keeps the default empty prefix (its seq is already global).
    """

    def __init__(self, emit: Callable[[Span], None] | None = None, origin: str = "") -> None:
        self._seq = itertools.count(1)
        self._ctx_seq = itertools.count(1)
        self._stack: list[Span] = []
        self._context_stack: list[TraceContext] = []
        self._emit = emit
        self.origin = origin
        self.finished = 0

    def _open(
        self,
        name: str,
        trace_id: str | None,
        sim_time: float | None,
        attrs: dict,
        parent: TraceContext | None = None,
    ) -> Span:
        parent_span_id = None
        if parent is not None:
            if trace_id is None:
                trace_id = parent.trace_id
            parent_span_id = parent.span_id
        if self._stack:
            top = self._stack[-1]
            if trace_id is None:
                trace_id = top.trace_id
            if parent_span_id is None:
                parent_span_id = top.span_id
        elif parent is None and self._context_stack:
            ambient = self._context_stack[-1]
            if trace_id is None:
                trace_id = ambient.trace_id
            parent_span_id = ambient.span_id
        seq = next(self._seq)
        span = Span(
            name=name,
            seq=seq,
            trace_id=trace_id,
            sim_time=sim_time,
            attrs=attrs,
            span_id=f"{self.origin}s{seq}",
            parent_span_id=parent_span_id,
        )
        span.start = time.perf_counter()
        if self._stack:
            self._stack[-1].children.append(span)
        return span

    @contextmanager
    def span(
        self,
        name: str,
        trace_id: str | None = None,
        sim_time: float | None = None,
        parent: TraceContext | None = None,
        **attrs,
    ):
        """Open a timed span; nested opens become children.  The yielded
        span's ``attrs`` may be filled while it is open.  ``parent`` links
        the span under an upstream process's span (trace id inherited,
        ``parent_span_id`` recorded)."""
        span = self._open(name, trace_id, sim_time, attrs, parent=parent)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()
            if not self._stack:
                self._finish(span)

    def event(
        self,
        name: str,
        trace_id: str | None = None,
        sim_time: float | None = None,
        parent: TraceContext | None = None,
        **attrs,
    ) -> Span:
        """A zero-duration span: a point fact (a Bloom verdict, a forward
        decision, a response arrival).  Nests like :meth:`span`."""
        span = self._open(name, trace_id, sim_time, attrs, parent=parent)
        span.end = span.start
        if not self._stack:
            self._finish(span)
        return span

    def new_context(self, trace_id: str) -> TraceContext:
        """Mint a context that is not backed by a recorded span.

        Clients use this to root a trace without perturbing the span
        ``seq`` stream (contexts draw from a separate counter), so
        enabling propagation does not change simulated trace signatures.
        """
        return TraceContext(trace_id=trace_id, span_id=f"{self.origin}c{next(self._ctx_seq)}")

    def activate(self, context: TraceContext | None):
        """Make ``context`` the ambient trace context for the body.

        While active, messages stamped via :meth:`current_traceparent`
        (and top-level spans opened without an explicit parent) pick it
        up.  ``None`` is a no-op so call sites need no branching.
        """
        if context is None:
            return NO_CONTEXT
        return self._activated(context)

    @contextmanager
    def _activated(self, context: TraceContext):
        self._context_stack.append(context)
        try:
            yield
        finally:
            self._context_stack.pop()

    def current_context(self) -> TraceContext | None:
        """The innermost open span's context, else the active ambient one."""
        if self._stack:
            context = self._stack[-1].context()
            if context is not None:
                return context
        if self._context_stack:
            return self._context_stack[-1]
        return None

    def current_traceparent(self) -> str | None:
        """Serialized :meth:`current_context` for wire stamping (or None)."""
        context = self.current_context()
        return context.to_traceparent() if context is not None else None

    def _finish(self, span: Span) -> None:
        self.finished += 1
        if self._emit is not None:
            self._emit(span)
