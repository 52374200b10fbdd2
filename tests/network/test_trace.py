"""Tests for protocol event tracing."""

import pytest

from repro.core.codes import CodeTable
from repro.network.election import ElectionConfig
from repro.network.node import Network
from repro.network.simulator import Simulator
from repro.network.trace import EventTrace, TraceEvent
from repro.ontology.registry import OntologyRegistry
from repro.protocols.deployment import Deployment, DeploymentConfig
from repro.services.xml_codec import profile_to_xml, request_to_xml

FAST_ELECTION = ElectionConfig(
    advert_interval=5.0,
    advert_hops=2,
    directory_timeout=10.0,
    check_interval=2.0,
    reply_window=1.0,
    election_hops=2,
)


class TestEventTrace:
    def test_record_and_filter(self):
        trace = EventTrace()
        trace.record(1.0, 3, "publish", "svc-a")
        trace.record(2.0, 3, "query", "#1")
        trace.record(3.0, 4, "publish", "svc-b")
        assert len(trace) == 3
        assert [e.detail for e in trace.filter(kind="publish")] == ["svc-a", "svc-b"]
        assert [e.kind for e in trace.filter(actor=3)] == ["publish", "query"]

    def test_capacity_drops_oldest(self):
        trace = EventTrace(capacity=3)
        for index in range(5):
            trace.record(float(index), 0, "tick", str(index))
        assert len(trace) == 3
        assert trace.dropped == 2
        assert trace.events[0].detail == "2"

    def test_unbounded_capacity(self):
        trace = EventTrace(capacity=0)
        for index in range(50):
            trace.record(float(index), 0, "tick")
        assert len(trace) == 50

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            EventTrace(capacity=-1)

    def test_timeline_rendering(self):
        trace = EventTrace()
        trace.record(1.5, 7, "promote", "became directory")
        text = trace.timeline()
        assert "1.500s" in text and "promote" in text
        assert EventTrace().timeline() == "(no events)"

    def test_kinds_counts(self):
        trace = EventTrace()
        trace.record(1.0, 0, "flood")
        trace.record(2.0, 0, "flood")
        trace.record(3.0, 0, "unicast")
        assert trace.kinds() == {"flood": 2, "unicast": 1}

    def test_event_str(self):
        event = TraceEvent(time=2.25, actor=12, kind="query", detail="#5")
        assert "node  12" in str(event)


class TestNetworkRecord:
    def test_detail_is_formatted_only_while_recording(self):
        class Unprintable:
            def __str__(self):
                raise AssertionError("formatted with the trace off")

        network = Network(Simulator())
        network.record(1, "query", "#%s from node %s", Unprintable(), 2)  # off: no-op
        network.trace = EventTrace()
        network.record(1, "query", "#%s from node %s", 7, 2)
        network.record(1, "publish", "svc%1")  # no args: taken verbatim
        assert [event.detail for event in network.trace.events] == ["#7 from node 2", "svc%1"]


class TestDeploymentTracing:
    def test_fig6_steps_traced_in_order(self, small_workload):
        """The Fig. 6 interaction leaves its footprint in the trace:
        promote → publish → query → (forward →) respond."""
        table = CodeTable(OntologyRegistry(small_workload.ontologies))
        deployment = Deployment(
            DeploymentConfig(node_count=25, protocol="sariadne", election=FAST_ELECTION, seed=3),
            table=table,
        )
        trace = EventTrace()
        deployment.network.trace = trace
        deployment.run_until_directories(minimum=2)
        profile = small_workload.make_service(0)
        document = profile_to_xml(
            profile,
            annotations=table.annotate(profile.provided),
            codes_version=table.version,
        )
        deployment.publish_from(5, document, service_uri=profile.uri)
        request = small_workload.matching_request(profile)
        request_doc = request_to_xml(
            request,
            annotations=table.annotate(request.capabilities),
            codes_version=table.version,
        )
        response = deployment.query_from(20, request_doc)
        assert response is not None

        kinds = trace.kinds()
        for expected in ("promote", "publish", "query", "respond", "flood", "unicast"):
            assert kinds.get(expected, 0) >= 1, expected
        first_promote = next(e.time for e in trace.events if e.kind == "promote")
        first_publish = next(e.time for e in trace.events if e.kind == "publish")
        first_query = next(e.time for e in trace.events if e.kind == "query")
        first_respond = next(e.time for e in trace.events if e.kind == "respond")
        assert first_promote <= first_publish <= first_query <= first_respond

    def test_tracing_disabled_by_default(self, small_workload):
        table = CodeTable(OntologyRegistry(small_workload.ontologies))
        deployment = Deployment(
            DeploymentConfig(node_count=10, protocol="sariadne", election=FAST_ELECTION, seed=1, radio_range=400.0),
            table=table,
        )
        assert deployment.network.trace is None
        deployment.run_until_directories(minimum=1)  # must not crash
