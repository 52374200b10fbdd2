"""Unit tests for the observability layer: spans, metrics, sinks, report."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    NULL_OBS,
    JsonlSink,
    MetricsRegistry,
    Observability,
    RingBufferSink,
    Tracer,
)
from repro.obs.report import load_trace, render_trace_report, strip_timestamps


class TestSpans:
    def test_nesting_builds_a_tree(self):
        finished = []
        tracer = Tracer(finished.append)
        with tracer.span("query.handle", trace_id="q0.1") as root:
            with tracer.span("query.parse") as parse:
                parse.attrs["bytes"] = 10
            tracer.event("bloom.test", peer=1, admitted=True)
        assert len(finished) == 1
        (span,) = finished
        assert span is root
        assert [child.name for child in span.children] == [
            "query.parse",
            "bloom.test",
        ]
        assert span.children[0].attrs == {"bytes": 10}

    def test_children_inherit_trace_id(self):
        tracer = Tracer()
        with tracer.span("query.handle", trace_id="q3.7"):
            with tracer.span("dag.descend") as child:
                pass
        assert child.trace_id == "q3.7"

    def test_seq_is_monotonic_in_open_order(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            with tracer.span("b") as b:
                pass
            with tracer.span("c") as c:
                pass
        assert a.seq < b.seq < c.seq

    def test_event_is_zero_duration(self):
        tracer = Tracer()
        event = tracer.event("hop.forward", peer=4)
        assert event.duration == 0.0
        assert tracer.finished == 1

    def test_signature_excludes_wall_clock(self):
        tracer = Tracer()
        with tracer.span("a", trace_id="t", sim_time=1.0) as one:
            tracer.event("b", flag=True)
        with tracer.span("a", trace_id="t", sim_time=1.0) as two:
            tracer.event("b", flag=True)
        two.seq, two.children[0].seq = one.seq, one.children[0].seq
        one.start, one.end = 0.0, 99.0  # wildly different wall clock
        assert one.signature() == two.signature()

    def test_to_dict_round_trips_through_json(self):
        tracer = Tracer()
        with tracer.span("a", trace_id="t", sim_time=2.5) as span:
            tracer.event("b")
        record = json.loads(json.dumps(span.to_dict()))
        assert record["name"] == "a"
        assert record["children"][0]["name"] == "b"
        assert "duration_us" in record
        assert "duration_us" not in span.to_dict(timestamps=False)


class TestMetrics:
    def test_labels_separate_series(self):
        registry = MetricsRegistry()
        registry.counter("net.messages", node=1).inc()
        registry.counter("net.messages", node=2).inc(5)
        assert registry.counter("net.messages", node=1).value == 1
        assert registry.counter("net.messages", node=2).value == 5
        assert len(registry) == 2

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        latency = registry.histogram("query.latency")
        for value in (1.0, 3.0, 2.0):
            latency.observe(value)
        assert latency.count == 3
        assert latency.mean == 2.0
        assert latency.min == 1.0 and latency.max == 3.0

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_scope_binds_labels_and_shares_registry(self):
        registry = MetricsRegistry()
        node_scope = registry.scope(node=3)
        node_scope.counter("dir.queries").inc()
        nested = node_scope.scope(run=1)
        nested.counter("dir.queries").inc()
        assert registry.counter("dir.queries", node=3).value == 1
        assert registry.counter("dir.queries", node=3, run=1).value == 1
        # The scope's snapshot is the whole registry's.
        assert nested.snapshot() == registry.snapshot()

    def test_snapshot_is_sorted_and_serializable(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a", node=9).inc()
        registry.histogram("c")
        snapshot = registry.snapshot()
        assert [record["name"] for record in snapshot] == ["a", "b", "c"]
        empty = snapshot[2]
        assert empty["min"] is None and empty["max"] is None
        json.dumps(snapshot)

    def test_histogram_quantiles_nearest_rank(self):
        registry = MetricsRegistry()
        latency = registry.histogram("query.latency")
        for value in range(1, 101):  # 1..100
            latency.observe(float(value))
        assert latency.quantile(0.5) == 50.0
        assert latency.quantile(0.95) == 95.0
        assert latency.quantile(0.99) == 99.0
        assert latency.quantile(1.0) == 100.0
        snapshot = latency.snapshot()
        assert (snapshot["p50"], snapshot["p95"], snapshot["p99"]) == (50.0, 95.0, 99.0)

    def test_quantiles_empty_and_invalid(self):
        registry = MetricsRegistry()
        latency = registry.histogram("h")
        assert latency.quantile(0.5) is None
        assert latency.snapshot()["p95"] is None
        with pytest.raises(ValueError):
            latency.quantile(0.0)
        with pytest.raises(ValueError):
            latency.quantile(1.5)

    def test_scope_label_collisions_resolve_innermost_wins(self):
        registry = MetricsRegistry()
        scope = registry.scope(node=1)
        # A call-site label overrides the scope's binding...
        scope.counter("x", node=2).inc()
        assert registry.counter("x", node=2).value == 1
        assert registry.counter("x", node=1).value == 0
        # ...and a nested scope overrides its parent.
        scope.scope(node=3).counter("y").inc()
        assert registry.counter("y", node=3).value == 1


class TestSinks:
    def test_ring_buffer_caps_spans(self):
        sink = RingBufferSink(capacity=2)
        tracer = Tracer(sink.emit)
        for index in range(3):
            tracer.event(f"e{index}")
        assert [span.name for span in sink.spans] == ["e1", "e2"]

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            obs = Observability(sinks=[sink])
            with obs.span("query.handle", trace_id="q0.1", sim_time=1.0):
                obs.event("hop.forward", peer=2)
            obs.counter("dir.queries", node=0).inc()
            obs.close()
        spans, metrics = load_trace(path)
        assert len(spans) == 1
        assert spans[0]["children"][0]["attrs"] == {"peer": 2}
        assert metrics == [
            {"name": "dir.queries", "labels": {"node": 0}, "type": "counter", "value": 1}
        ]

    def test_jsonl_without_timestamps_is_deterministic(self, tmp_path):
        lines = []
        for _run in range(2):
            path = tmp_path / "trace.jsonl"
            with JsonlSink(path, timestamps=False) as sink:
                tracer = Tracer(sink.emit)
                with tracer.span("a", trace_id="t", sim_time=1.5):
                    tracer.event("b")
            lines.append(path.read_text())
        assert lines[0] == lines[1]

    def test_ring_buffer_event_wraparound(self):
        from repro.obs import EventLog

        sink = RingBufferSink(capacity=3)
        log = EventLog(sink.emit_event)
        for index in range(5):
            log.record(f"kind.{index}")
        # Only the most recent `capacity` events survive, in order.
        assert [event.kind for event in sink.events] == ["kind.2", "kind.3", "kind.4"]
        assert [event.seq for event in sink.events] == [3, 4, 5]
        assert log.emitted == 5

    def test_jsonl_records_are_flushed_line_by_line(self, tmp_path):
        # A run that dies mid-simulation must leave every finished record
        # on disk even though close() never ran.
        path = tmp_path / "crash.jsonl"
        sink = JsonlSink(path)
        tracer = Tracer(sink.emit)
        tracer.event("before.crash")
        content = path.read_text()  # sink still open — no close, no flush
        assert '"before.crash"' in content

    def test_jsonl_write_after_close_appends(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        tracer = Tracer(sink.emit)
        tracer.event("first")
        sink.close()
        tracer.event("second")  # reopen must append, not truncate
        sink.close()
        names = [json.loads(line)["name"] for line in path.read_text().splitlines()]
        assert names == ["first", "second"]


class TestObservabilityFacade:
    def test_scoped_shares_tracer_and_sinks(self):
        sink = RingBufferSink()
        obs = Observability(sinks=[sink])
        node_obs = obs.scoped(node=5)
        with node_obs.span("query.handle"):
            pass
        node_obs.counter("dir.queries").inc()
        assert len(sink.spans) == 1
        assert obs.metrics.counter("dir.queries", node=5).value == 1

    def test_scoped_view_sees_sinks_attached_later(self):
        """A sink appended to the parent after a view exists reaches the
        view too: views share the sink list, as ``scoped`` promises."""
        obs = Observability()
        node_obs = obs.scoped(node=5)
        assert not node_obs.tracing
        sink = RingBufferSink()
        obs.sinks.append(sink)
        assert node_obs.tracing
        with node_obs.span("query.handle"):
            pass
        assert len(sink.spans) == 1

    def test_tracing_follows_the_sinks(self):
        assert Observability().tracing is False
        obs = Observability(sinks=[RingBufferSink()])
        assert obs.tracing is True
        obs.sinks.clear()
        assert obs.tracing is False
        with pytest.raises(AttributeError):
            obs.tracing = True  # derived from the sinks, never set

    def test_flush_pushes_snapshot_to_sinks(self):
        sink = RingBufferSink()
        obs = Observability(sinks=[sink])
        obs.counter("net.messages").inc(3)
        assert sink.metrics is None
        obs.flush()
        assert sink.metrics[0]["value"] == 3

    def test_close_is_idempotent(self, tmp_path):
        path = tmp_path / "run.jsonl"
        sink = JsonlSink(path)
        obs = Observability(sinks=[sink])
        obs.counter("a").inc()
        obs.close()
        written = path.read_text()
        obs.close()  # second close: no duplicate metrics snapshot
        assert path.read_text() == written
        assert sum(1 for line in written.splitlines() if '"metrics"' in line) == 1

    def test_context_manager_closes_on_exception(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with pytest.raises(RuntimeError, match="mid-simulation"):
            with Observability(sinks=[JsonlSink(path)]) as obs:
                obs.event("before.failure", trace_id="t")
                obs.counter("net.messages").inc(2)
                raise RuntimeError("mid-simulation failure")
        records = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = [record["type"] for record in records]
        # The span written before the crash survived and the final metrics
        # snapshot was still flushed by __exit__.
        assert kinds == ["span", "metrics"]
        assert records[1]["metrics"][0]["value"] == 2


class TestNullObservability:
    def test_disabled_and_free(self):
        assert NULL_OBS.enabled is False
        assert NULL_OBS.tracing is False
        with NULL_OBS.span("anything", trace_id="t") as span:
            span.attrs["key"] = "value"  # writable, discarded
        NULL_OBS.event("e")
        NULL_OBS.counter("c", node=1).inc()
        NULL_OBS.histogram("h").observe(2.0)
        assert NULL_OBS.scoped(node=1) is NULL_OBS
        assert NULL_OBS.metrics.snapshot() == []
        NULL_OBS.flush()
        NULL_OBS.close()


class TestInstall:
    def _network(self):
        from repro.network.node import Network
        from repro.network.simulator import Simulator
        from repro.network.topology import Bounds, Position

        network = Network(Simulator(), bounds=Bounds(100, 100), radio_range=500.0)
        network.add_node(0, Position(0.0, 0.0))
        return network

    def _toy_directory_agent(self):
        from repro.protocols.base import DirectoryAgentBase

        class _Store:
            def __init__(self):
                self.obs = NULL_OBS

        class _Toy(DirectoryAgentBase):
            def __init__(self):
                super().__init__()
                self.directory = _Store()

        return _Toy()

    def test_install_wires_existing_directories(self):
        network = self._network()
        agent = network.nodes[0].add_agent(self._toy_directory_agent())
        obs = Observability()
        from repro.obs import install

        install(obs, network)
        assert agent.directory.obs is obs

    def test_directories_added_after_install_inherit_live_obs(self):
        # Regression: directories elected/installed *after* install() used
        # to keep tracing into NULL_OBS (the election/handoff blind spot).
        network = self._network()
        obs = Observability()
        from repro.obs import install

        install(obs, network)
        agent = network.nodes[0].add_agent(self._toy_directory_agent())
        assert agent.directory.obs is obs
        assert agent.request_cache.on_invalidate is not None

    def test_attach_without_installed_obs_stays_null(self):
        network = self._network()
        agent = network.nodes[0].add_agent(self._toy_directory_agent())
        assert agent.directory.obs is NULL_OBS
        assert agent.request_cache.on_invalidate is None


class TestReport:
    def _trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            obs = Observability(sinks=[sink])
            with obs.span("query.handle", trace_id="q0.1", sim_time=1.0) as span:
                span.attrs["directory"] = 0
                obs.event("hop.forward", peer=1)
            obs.event("hop.remote", trace_id="q0.1", sim_time=1.2, directory=1)
            obs.event("summary.push")  # untraced
            obs.counter("net.messages", node=0).inc(2)
            obs.close()
        return path

    def test_render_groups_by_trace_and_counts_hops(self, tmp_path):
        spans, metrics = load_trace(self._trace(tmp_path))
        report = render_trace_report(spans, metrics)
        assert "query q0.1 (2 root spans, 2 hop records)" in report
        assert "hop.forward" in report and "hop.remote" in report
        assert "untraced spans: 1" in report
        assert "net.messages" in report and "node=0" in report

    def test_strip_timestamps_is_the_deterministic_projection(self, tmp_path):
        spans, _metrics = load_trace(self._trace(tmp_path))
        stripped = strip_timestamps(spans[0])
        assert "duration_us" not in stripped
        assert all("duration_us" not in child for child in stripped["children"])
        assert stripped["name"] == "query.handle"
