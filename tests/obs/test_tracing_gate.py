"""Metrics always, spans only for a reader: the simulated half.

An :class:`~repro.obs.Observability` without a sink records every
counter and histogram but builds no span.  Attaching a sink adds the
span trees and must not move a single metric.
"""

from __future__ import annotations

from repro.experiments import fig10_traced_run
from repro.obs import Observability, RingBufferSink


def _run(sinks):
    obs = Observability(sinks=sinks)
    summary = fig10_traced_run(obs, seed=42, directory_count=3, services=3)
    return obs, summary


def test_sink_adds_spans_and_changes_no_metric():
    metrics_only, summary_a = _run([])
    sink = RingBufferSink()
    traced, summary_b = _run([sink])
    assert summary_a == summary_b
    assert metrics_only.metrics.snapshot() == traced.metrics.snapshot()
    names = {series["name"] for series in metrics_only.metrics.snapshot()}
    assert {"dir.queries", "net.messages", "client.query_latency"} <= names
    # Only the run with a reader built spans, forwarding hops included.
    assert metrics_only.tracer.finished == 0
    assert next(metrics_only.tracer._seq) == 1
    spans = {span.name for root in sink.spans for span in root.walk()}
    assert {"query.handle", "dag.descend", "hop.forward", "hop.remote"} <= spans
