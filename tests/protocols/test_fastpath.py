"""Backbone fast path: parse-once forwarding over the §4 backbone.

A request document used to be re-parsed at every step of Fig. 6 — once
per peer-summary probe, once per local match, once per receiving
directory.  The fast path parses it once at the origin (content-addressed
request cache) and ships the parsed form on the wire; these tests pin
the parse counts, the wire decode/fallback paths, the §3.2 stale-code
recovery, forwarded answers against an in-process directory, and the
empty, unforwarded answer to a request that does not parse.
"""

import re

import pytest

from repro.core.directory import SemanticDirectory
from repro.network.messages import (
    CodeRefreshResponse,
    DirectoryHandoff,
    EncodedRequest,
    PublishService,
    QueryRequest,
    QueryResponse,
    RemoteQuery,
    RemoteResponse,
    SummaryRequest,
)
from repro.network.node import Network, ProtocolAgent
from repro.network.simulator import Simulator
from repro.network.topology import Bounds, Position
from repro.protocols.ariadne import AriadneClientAgent, AriadneDirectoryAgent
from repro.protocols.sariadne import SAriadneClientAgent, SAriadneDirectoryAgent
from repro.services.wsdl import WsdlDescription, WsdlOperation, WsdlRequest
from repro.services.xml_codec import (
    CODEC_STATS,
    profile_to_xml,
    request_to_xml,
    wsdl_to_xml,
)

from tests.protocols.test_base import mesh


def protocol_mesh(make_directory, make_client, directory_count=3):
    """Full-mesh backbone plus one client homed on directory 0."""
    sim = Simulator()
    network = Network(sim, bounds=Bounds(100, 100), radio_range=500.0)
    directories = {}
    nid = 0
    for _ in range(directory_count):
        node = network.add_node(nid, Position(10.0 * nid, 10.0))
        directories[nid] = node.add_agent(make_directory())
        nid += 1
    client_node = network.add_node(nid, Position(10.0 * nid, 20.0))
    client = client_node.add_agent(make_client(lambda: 0))
    network.start()
    for agent in directories.values():
        agent.join_backbone()
    sim.run(until=5.0)
    return sim, network, directories, client


def semantic_mesh(table, directory_count=3):
    """Full-mesh S-Ariadne backbone plus one client homed on directory 0."""
    return protocol_mesh(
        lambda: SAriadneDirectoryAgent(table, forward_window=0.5),
        SAriadneClientAgent,
        directory_count,
    )


def syntactic_mesh(directory_count=3):
    """Full-mesh Ariadne backbone plus one client homed on directory 0."""
    return protocol_mesh(
        lambda: AriadneDirectoryAgent(forward_window=0.5),
        AriadneClientAgent,
        directory_count,
    )


def profile_doc(workload, table, index):
    profile = workload.make_service(index)
    return profile.uri, profile_to_xml(
        profile, annotations=table.annotate(profile.provided), codes_version=table.version
    )


def request_doc(workload, table, index, version_offset=0):
    request = workload.matching_request(workload.make_service(index))
    return request_to_xml(
        request,
        annotations=table.annotate(request.capabilities),
        codes_version=table.version + version_offset,
    )


class TestParseOnceForwarding:
    def test_forwarded_query_decodes_wire_without_reparse(self, small_workload, small_table):
        sim, network, directories, client = semantic_mesh(small_table)
        uri, doc = profile_doc(small_workload, small_table, 0)
        network.nodes[3].unicast(1, PublishService(doc))  # remote-only hit
        sim.run(until=sim.now + 3.0)

        before = CODEC_STATS.snapshot()
        query_id = client.query(request_doc(small_workload, small_table, 0))
        sim.run(until=sim.now + 5.0)
        after = CODEC_STATS.snapshot()

        _latency, results = client.responses[query_id]
        assert any(row[0] == uri for row in results)
        # One parse at the origin; the answering peer decoded the wire form.
        assert after[1] - before[1] == 1  # request_parses
        assert directories[0].requests_parsed == 1
        assert directories[1].wire_decodes >= 1
        assert directories[1].requests_parsed == 0

    def test_repeated_query_parses_once(self, small_workload, small_table):
        sim, _network, directories, client = semantic_mesh(small_table, directory_count=1)
        doc = request_doc(small_workload, small_table, 0)
        before = CODEC_STATS.snapshot()
        for _ in range(4):
            client.query(doc)
            sim.run(until=sim.now + 2.0)
        after = CODEC_STATS.snapshot()
        assert after[1] - before[1] == 1
        assert directories[0].requests_parsed == 1
        assert directories[0].request_cache.stats.hits >= 3

    def test_forwarded_answers_match_directory_oracle(self, small_workload, small_table):
        """Answers assembled over the backbone equal one in-process
        directory holding every advertisement."""
        sim, network, _directories, client = semantic_mesh(small_table)
        oracle = SemanticDirectory(small_table)
        for index in range(4):
            _uri, doc = profile_doc(small_workload, small_table, index)
            network.nodes[3].unicast((index % 2) + 1, PublishService(doc))  # remote only
            oracle.publish_xml(doc)
        sim.run(until=sim.now + 3.0)
        for index in range(4):
            doc = request_doc(small_workload, small_table, index)
            query_id = client.query(doc)
            sim.run(until=sim.now + 5.0)
            expected = sorted(
                {(m.service_uri, m.capability.uri, m.distance) for m in oracle.query_xml(doc)},
                key=lambda row: (row[2], row[0]),
            )
            assert expected
            assert client.responses[query_id][1] == tuple(expected)

    def test_wire_version_mismatch_falls_back_to_document(
        self, small_workload, small_table
    ):
        sim, network, directories, _client = semantic_mesh(small_table, directory_count=2)
        doc = request_doc(small_workload, small_table, 0)
        stale_wire = EncodedRequest(
            protocol="sariadne", codes_version=small_table.version + 1
        )
        network.nodes[0].unicast(1, RemoteQuery(99, doc, 0, wire=stale_wire))
        sim.run(until=sim.now + 2.0)
        assert directories[1].wire_fallbacks == 1
        assert directories[1].requests_parsed == 1  # parsed the XML instead

    def test_foreign_protocol_wire_falls_back(self, small_workload, small_table):
        sim, network, directories, _client = semantic_mesh(small_table, directory_count=2)
        doc = request_doc(small_workload, small_table, 0)
        foreign = EncodedRequest(protocol="ariadne", codes_version=None, data=("u", (), ()))
        network.nodes[0].unicast(1, RemoteQuery(98, doc, 0, wire=foreign))
        sim.run(until=sim.now + 2.0)
        assert directories[1].wire_fallbacks == 1


class Recorder(ProtocolAgent):
    """Collects the payloads of the given kinds delivered to its node."""

    def __init__(self, kinds):
        super().__init__()
        self.kinds = kinds
        self.got = []

    def on_message(self, envelope) -> None:
        if isinstance(envelope.payload, self.kinds):
            self.got.append(envelope.payload)


def _wsdl(cls, uri, **fields):
    operation = WsdlOperation("getStream", inputs=("title",), outputs=("stream",))
    return wsdl_to_xml(cls(uri=uri, operations=(operation,), keywords=("media",), **fields))


@pytest.fixture(params=["sariadne", "ariadne"])
def backbone(request, small_workload, small_table):
    """A 3-directory backbone with one service held by directory 1 only.

    Returns the mesh, a well-formed request for that service, its URI and
    a well-formed document that is not a request (an advertisement).
    """
    if request.param == "sariadne":
        sim, network, directories, client = semantic_mesh(small_table)
        uri, advert = profile_doc(small_workload, small_table, 0)
        good = request_doc(small_workload, small_table, 0)
    else:
        sim, network, directories, client = syntactic_mesh()
        uri = "urn:x:svc:1"
        advert = _wsdl(WsdlDescription, uri, port_type="Media")
        good = _wsdl(WsdlRequest, "urn:x:req:1")
    network.nodes[3].unicast(1, PublishService(advert))
    sim.run(until=sim.now + 3.0)
    return sim, network, directories, client, good, uri, advert


def _still_answers(sim, directories, client, good, uri):
    """The backbone keeps running: a well-formed query is forwarded to
    directory 1 and answered."""
    query_id = client.query(good)
    sim.run(until=sim.now + 5.0)
    assert directories[0].queries_forwarded == 1
    assert any(row[0] == uri for row in client.responses[query_id][1])


class TestMalformedRequests:
    """A request document that does not parse gets an empty answer and is
    never forwarded; the directory keeps serving."""

    @pytest.mark.parametrize("bad", ["<garbage", "advert"])
    def test_client_query_answered_empty_and_not_forwarded(self, backbone, bad):
        sim, network, directories, client, good, uri, advert = backbone
        document = advert if bad == "advert" else bad
        responses = network.nodes[3].add_agent(Recorder(QueryResponse))
        network.nodes[3].unicast(0, QueryRequest(41, document))
        sim.run(until=sim.now + 3.0)
        assert responses.got == [QueryResponse(41, ())]
        assert all(agent.queries_forwarded == 0 for agent in directories.values())
        _still_answers(sim, directories, client, good, uri)

    @pytest.mark.parametrize("bad", ["<garbage", "advert"])
    def test_remote_query_answered_empty(self, backbone, bad):
        sim, network, directories, client, good, uri, advert = backbone
        document = advert if bad == "advert" else bad
        responses = network.nodes[0].add_agent(Recorder(RemoteResponse))
        network.nodes[0].unicast(1, RemoteQuery(42, document, 0))
        sim.run(until=sim.now + 3.0)
        assert responses.got == [RemoteResponse(42, ())]
        assert all(agent.queries_forwarded == 0 for agent in directories.values())
        _still_answers(sim, directories, client, good, uri)


def garble_code(document: str) -> str:
    """The document with every embedded concept code made unparseable
    (the XML itself stays well-formed)."""
    garbled, count = re.subn(r'code="[^"]*"', 'code="zz;4;0.1,0.2"', document)
    assert count
    return garbled


class TestMalformedCodes:
    """A well-formed document whose embedded code does not parse: the
    query is answered empty with no code refresh, the advertisement is
    counted in ``publish_errors``, and the directory keeps serving."""

    def test_query_answered_empty_without_refresh(self, small_workload, small_table):
        sim, network, directories, client = semantic_mesh(small_table, directory_count=2)
        uri, advert = profile_doc(small_workload, small_table, 0)
        network.nodes[2].unicast(1, PublishService(advert))
        sim.run(until=sim.now + 3.0)
        refreshes = network.nodes[2].add_agent(Recorder(CodeRefreshResponse))
        bad = garble_code(request_doc(small_workload, small_table, 0))
        query_id = client.query(bad)
        sim.run(until=sim.now + 5.0)
        assert client.responses[query_id][1] == ()
        assert refreshes.got == [] and not client.code_updates
        good = request_doc(small_workload, small_table, 0)
        query_id = client.query(good)
        sim.run(until=sim.now + 5.0)
        assert any(row[0] == uri for row in client.responses[query_id][1])

    def test_publish_counted_as_error(self, small_workload, small_table):
        sim, network, directories, client = semantic_mesh(small_table, directory_count=1)
        _uri, advert = profile_doc(small_workload, small_table, 0)
        network.nodes[1].unicast(0, PublishService(garble_code(advert)))
        sim.run(until=sim.now + 3.0)
        agent = directories[0]
        assert agent.publish_errors == 1
        assert agent.stale_publishes == 0
        assert agent.local_capability_count() == 0

    def test_handoff_batch_falls_back_per_document(self, small_workload, small_table):
        sim, network, directories, client = semantic_mesh(small_table, directory_count=1)
        uri, advert = profile_doc(small_workload, small_table, 0)
        _bad_uri, other = profile_doc(small_workload, small_table, 1)
        batch = (advert, garble_code(other))
        network.nodes[1].unicast(0, DirectoryHandoff(from_directory=1, documents=batch))
        sim.run(until=sim.now + 3.0)
        agent = directories[0]
        assert agent.publish_errors == 1
        assert agent.directory.profile(uri) is not None


class TestStaleCodeRecovery:
    def test_stale_request_gets_empty_answer_plus_fresh_codes(
        self, small_workload, small_table
    ):
        sim, network, directories, client = semantic_mesh(small_table, directory_count=2)
        _uri, doc = profile_doc(small_workload, small_table, 0)
        network.nodes[2].unicast(0, PublishService(doc))
        sim.run(until=sim.now + 3.0)
        stale = request_doc(small_workload, small_table, 0, version_offset=5)
        query_id = client.query(stale)
        sim.run(until=sim.now + 5.0)
        _latency, results = client.responses[query_id]
        assert results == ()  # stale codes: no match, but no crash either
        # The §3.2 recovery machinery answered with the current codes.
        assert client.latest_code_version == small_table.version
        assert client.code_updates


class TestForwardTieBreak:
    def test_equal_rank_peers_ordered_by_id(self):
        sim, _network, directories, _clients = mesh(directory_count=4)
        origin = directories[0]
        for nid in (1, 2, 3):
            directories[nid].documents.append("service-t")
            directories[nid]._mark_content_changed()
        sim.run(until=sim.now + 3.0)
        # Full mesh: every peer is 1 hop with full battery — the ranking
        # must fall back to the peer id, identically on every call.
        first = origin._rank_forward_peers("service-t")
        assert first == [1, 2, 3]
        for _ in range(5):
            assert origin._rank_forward_peers("service-t") == first


class TestReactiveRefreshExactlyOnce:
    def test_threshold_crossing_sends_one_request_and_resets(self):
        _sim, _network, directories, _clients = mesh(directory_count=2)
        origin = directories[0]
        origin.false_positive_min_samples = 4
        origin._peer_forwarded[1] = 4
        sent = []
        origin.node.unicast = lambda dest, payload: sent.append((dest, payload)) or True
        for _ in range(4):
            origin._note_false_positive(1)
        requests = [p for _dest, p in sent if isinstance(p, SummaryRequest)]
        # 1/4 and 2/4 stay under the 0.5 threshold, 3/4 crosses it exactly
        # once; the reset counters (0 forwarded) block the fourth call.
        assert len(requests) == 1
        assert origin.summary_refreshes_requested == 1
        assert origin._peer_forwarded[1] == 0
        assert origin._peer_empty[1] == 1  # the post-reset sample


class TestHandoffWithQueriesInFlight:
    def test_in_flight_query_concludes_and_content_survives(self):
        sim, network, directories, clients = mesh(directory_count=3)
        client = next(iter(clients.values()))
        network.nodes[client.node.node_id].unicast(1, PublishService("service-h"))
        sim.run(until=sim.now + 3.0)

        query_id = client.query("service-h")
        deadline = sim.now + 2.0
        while directories[0].queries_forwarded == 0 and sim.now < deadline:
            sim.run(until=sim.now + 0.002)
        assert directories[0].queries_forwarded >= 1
        # Hand off while the forwarded RemoteQuery is still in flight.
        assert directories[1].hand_off_to(2)
        sim.run(until=sim.now + 10.0)

        # The in-flight query concluded (whatever it saw) — no hang.
        assert query_id in client.responses
        # The advertisement survived the handoff and is discoverable again.
        assert "service-h" in directories[2].documents
        retry_id = client.query("service-h")
        sim.run(until=sim.now + 10.0)
        _latency, results = client.responses[retry_id]
        assert any(row[0] == "service-h" for row in results)
