"""Tests for structured lifecycle events: the log, sinks, and the stack's
emission sites (elections, handoffs, churn, summary and cache flushes)."""

from __future__ import annotations

import json

from repro.network.node import Network
from repro.network.simulator import Simulator
from repro.network.topology import Bounds, Position
from repro.obs import EventLog, JsonlSink, NULL_OBS, Observability, RingBufferSink, install
from repro.obs.report import load_run


class TestEventLog:
    def test_seq_is_monotonic_and_log_wide(self):
        log = EventLog()
        first = log.record("election.promoted", node=1)
        second = log.record("churn.join", node=2)
        assert (first.seq, second.seq) == (1, 2)
        assert log.emitted == 2

    def test_record_carries_clock_node_cause_and_attrs(self):
        event = EventLog().record(
            "handoff.start", sim_time=3.5, node=1, cause="resignation", successor=4
        )
        assert event.sim_time == 3.5
        assert event.node == 1
        assert event.cause == "resignation"
        assert event.attrs == {"successor": 4}

    def test_to_dict_round_trips_through_json(self):
        event = EventLog().record("summary.refresh", sim_time=1.0, node=0, peers=2)
        record = json.loads(json.dumps(event.to_dict()))
        assert record["kind"] == "summary.refresh"
        assert record["attrs"] == {"peers": 2}

    def test_signature_is_deterministic(self):
        one = EventLog().record("churn.join", sim_time=2.0, node=5, cause="late_join")
        two = EventLog().record("churn.join", sim_time=2.0, node=5, cause="late_join")
        assert one.signature() == two.signature()


class TestFacade:
    def test_lifecycle_fans_out_to_sinks(self, tmp_path):
        path = tmp_path / "run.jsonl"
        ring = RingBufferSink()
        with JsonlSink(path) as jsonl:
            obs = Observability(sinks=[ring, jsonl])
            obs.lifecycle("election.promoted", sim_time=1.0, node=3, cause="self_elected")
            obs.close()
        assert [event.kind for event in ring.events] == ["election.promoted"]
        run = load_run(path)
        assert run["events"][0]["node"] == 3

    def test_events_from_every_node_share_one_sequence(self):
        sink = RingBufferSink()
        obs = Observability(sinks=[sink])
        obs.lifecycle("churn.join", node=1)
        obs.lifecycle("churn.leave", node=2)
        assert [(event.node, event.seq) for event in sink.events] == [(1, 1), (2, 2)]

    def test_null_observability_lifecycle_is_free(self):
        assert NULL_OBS.lifecycle("anything", node=1, cause="x") is None
        assert NULL_OBS.events.emitted == 0


def _mesh_network(node_count: int = 2):
    sim = Simulator()
    network = Network(sim, bounds=Bounds(100, 100), radio_range=500.0, seed=0)
    for nid in range(node_count):
        network.add_node(nid, Position(10.0 * nid, 10.0))
    return sim, network


class TestStackEmission:
    def test_route_cache_flush_emits_cache_invalidate(self):
        sim, network = _mesh_network()
        network.start()
        sink = RingBufferSink()
        install(Observability(sinks=[sink]), network)
        network.hop_count(0, 1)  # populate the route cache
        network.add_node(2, Position(50.0, 50.0))  # topology change flushes it
        kinds = [event.kind for event in sink.events]
        assert "cache.invalidate" in kinds
        invalidate = next(e for e in sink.events if e.kind == "cache.invalidate")
        assert invalidate.attrs["cache"] == "route"
        assert invalidate.cause == "topology_changed"

    def test_late_join_emits_churn_join(self):
        _sim, network = _mesh_network()
        network.start()
        sink = RingBufferSink()
        install(Observability(sinks=[sink]), network)
        network.add_node(7, Position(30.0, 30.0))
        join = next(e for e in sink.events if e.kind == "churn.join")
        assert join.node == 7

    def test_request_cache_flush_emits_cache_invalidate(self):
        from repro.protocols.base import DirectoryAgentBase

        class _ToyDirectory(DirectoryAgentBase):
            def __init__(self):
                super().__init__()
                self._version = 0

            def request_cache_version(self):
                return self._version

            def parse_request(self, document):
                return document.upper()

            def local_query(self, parsed):
                return []

            def summaries_admitting(self, parsed, peer_ids):
                return {peer_id: False for peer_id in peer_ids}

        sim, network = _mesh_network()
        sink = RingBufferSink()
        install(Observability(sinks=[sink]), network)
        agent = network.nodes[0].add_agent(_ToyDirectory())
        network.start()
        agent._parsed_request("<doc/>")
        agent._version = 1  # §3.2 re-encode: next read flushes the cache
        agent._parsed_request("<doc/>")
        flush = next(e for e in sink.events if e.kind == "cache.invalidate")
        assert flush.attrs["cache"] == "request"
        assert flush.cause == "codes_reencoded"
        assert flush.attrs["dropped"] == 1
