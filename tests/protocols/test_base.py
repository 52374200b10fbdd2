"""Tests for the shared protocol machinery (backbone, forwarding)."""

import pytest

from repro.network.messages import (
    DirectoryAnnounce,
    PublishService,
    QueryRequest,
    SummaryRequest,
)
from repro.network.node import Network
from repro.network.simulator import Simulator
from repro.network.topology import Bounds, Position
from repro.protocols.base import (
    ClientAgentBase,
    DirectoryAgentBase,
    QueryOutcome,
    QueryTicket,
)
from repro.util.bloom import BloomFilter


class ToyDirectory(DirectoryAgentBase):
    """A trivial directory: stores documents verbatim, parses a request to
    its own text, answers by substring, summarizes by document text, admits
    when the probe text is present."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.documents: list[str] = []

    def local_publish(self, document: str) -> str:
        self.documents.append(document)
        return document  # the document text doubles as its service URI

    def local_withdraw(self, service_uri: str) -> None:
        self.documents = [d for d in self.documents if service_uri not in d]

    def parse_request(self, document: str) -> str:
        return document

    def local_query(self, parsed: str):
        return [(doc, doc, 0) for doc in self.documents if parsed in doc]

    def build_summary(self) -> BloomFilter:
        bloom = BloomFilter(self.summary_bits, self.summary_hashes)
        for doc in self.documents:
            bloom.add(doc)
        return bloom

    def summaries_admitting(self, parsed: str, peer_ids):
        # Toy rule: peer may hold docs equal to the probe.
        return {peer_id: parsed in self.peer_summaries[peer_id] for peer_id in peer_ids}


def mesh(directory_count=2, client_count=1):
    """Full mesh: directories + clients all in range."""
    sim = Simulator()
    network = Network(sim, bounds=Bounds(100, 100), radio_range=500.0)
    directories = {}
    clients = {}
    nid = 0
    for _ in range(directory_count):
        node = network.add_node(nid, Position(10.0 * nid, 10.0))
        directories[nid] = node.add_agent(ToyDirectory(forward_window=0.5))
        nid += 1
    first_directory = 0
    for _ in range(client_count):
        node = network.add_node(nid, Position(10.0 * nid, 20.0))
        clients[nid] = node.add_agent(ClientAgentBase(lambda: first_directory))
        nid += 1
    network.start()
    for agent in directories.values():
        agent.join_backbone()
    sim.run(until=5.0)
    return sim, network, directories, clients


class TestBackbone:
    def test_announce_builds_peer_sets(self):
        _sim, _network, directories, _ = mesh(directory_count=3)
        for nid, agent in directories.items():
            assert agent.known_peers == set(directories) - {nid}

    def test_summaries_exchanged_on_join(self):
        _sim, _network, directories, _ = mesh(directory_count=2)
        assert 1 in directories[0].peer_summaries
        assert 0 in directories[1].peer_summaries

    def test_summary_request_answered(self):
        sim, network, directories, _ = mesh(directory_count=2)
        directories[1].documents.append("fresh")
        directories[1].peer_summaries.clear()
        network.nodes[0].unicast(1, SummaryRequest(requester_directory=0))
        sim.run(until=sim.now + 2.0)
        assert 0 in directories[0].peer_summaries or directories[0].peer_summaries


class TestPublishWithdraw:
    def test_publish_reaches_directory(self):
        sim, _network, directories, clients = mesh()
        client = next(iter(clients.values()))
        assert client.publish("service-alpha")
        sim.run(until=sim.now + 2.0)
        assert "service-alpha" in directories[0].documents

    def test_withdraw(self):
        sim, _network, directories, clients = mesh()
        client = next(iter(clients.values()))
        client.publish("service-alpha")
        sim.run(until=sim.now + 2.0)
        client.withdraw("service-alpha")
        sim.run(until=sim.now + 2.0)
        assert directories[0].documents == []

    def test_summary_repushed_after_publish(self):
        sim, _network, directories, clients = mesh()
        client = next(iter(clients.values()))
        client.publish("service-alpha")
        sim.run(until=sim.now + 3.0)
        summary_at_peer = directories[1].peer_summaries[0]
        assert "service-alpha" in summary_at_peer


class TestQueryFlow:
    def test_local_hit_answered_immediately(self):
        sim, _network, directories, clients = mesh()
        client = next(iter(clients.values()))
        client.publish("service-alpha")
        sim.run(until=sim.now + 3.0)
        query_id = client.query("service-alpha")
        sim.run(until=sim.now + 3.0)
        latency, results = client.responses[query_id]
        assert results and results[0][0] == "service-alpha"
        assert latency < 0.5  # no forwarding round needed

    def test_remote_hit_via_forwarding(self):
        sim, network, directories, clients = mesh(directory_count=2)
        directories[1].documents.append("service-remote")
        directories[1]._mark_content_changed()
        sim.run(until=sim.now + 3.0)
        client = next(iter(clients.values()))
        query_id = client.query("service-remote")
        sim.run(until=sim.now + 5.0)
        latency, results = client.responses[query_id]
        assert results and results[0][0] == "service-remote"
        assert directories[0].queries_forwarded == 1

    def test_miss_returns_empty(self):
        sim, _network, _directories, clients = mesh()
        client = next(iter(clients.values()))
        query_id = client.query("service-nonexistent")
        sim.run(until=sim.now + 5.0)
        _latency, results = client.responses[query_id]
        assert results == ()

    def test_stale_summary_filters_forwarding(self):
        sim, _network, directories, clients = mesh(directory_count=2)
        # Peer 1 holds nothing; its (empty) summary must filter forwarding.
        client = next(iter(clients.values()))
        client.query("service-unknown")
        sim.run(until=sim.now + 5.0)
        assert directories[0].queries_forwarded == 0

    def test_duplicate_results_deduplicated(self):
        sim, _network, directories, clients = mesh(directory_count=2)
        directories[0].documents.append("service-alpha")
        directories[1].documents.append("service-alpha")
        directories[0]._mark_content_changed()
        directories[1]._mark_content_changed()
        sim.run(until=sim.now + 3.0)
        client = next(iter(clients.values()))
        query_id = client.query("service-alpha")
        sim.run(until=sim.now + 5.0)
        _latency, results = client.responses[query_id]
        assert len(results) == 1

    def test_rows_of_one_service_at_equal_distance_ranked_by_capability(self):
        """Rows tied on distance and service come out by capability, not
        in the set-iteration order of the de-duplicated rows (which
        follows ``PYTHONHASHSEED``)."""
        sim, _network, directories, clients = mesh()
        capabilities = [f"cap-{letter}" for letter in "fbdaec"]
        directories[0].local_query = lambda parsed: [
            ("service-alpha", capability, 1) for capability in capabilities
        ] + [("service-beta", "cap-z", 0)]
        client = next(iter(clients.values()))
        query_id = client.query("anything")
        sim.run(until=sim.now + 3.0)
        _latency, results = client.responses[query_id]
        assert list(results) == [("service-beta", "cap-z", 0)] + [
            ("service-alpha", capability, 1) for capability in sorted(capabilities)
        ]


class TestClientWithoutDirectory:
    def test_publish_fails_gracefully(self):
        sim = Simulator()
        network = Network(sim)
        node = network.add_node(0, Position(0, 0))
        client = node.add_agent(ClientAgentBase(lambda: None))
        network.start()
        assert not client.publish("doc")
        ticket = client.query("doc")
        assert not ticket
        assert ticket.outcome is QueryOutcome.NO_DIRECTORY


class TestQueryTicketOutcomes:
    def test_answered_query_resolves_ticket(self):
        sim, _network, directories, clients = mesh()
        client = next(iter(clients.values()))
        client.publish("service-alpha")
        sim.run(until=sim.now + 3.0)
        ticket = client.query("service-alpha")
        assert ticket  # dispatched successfully
        assert ticket.outcome is QueryOutcome.PENDING
        sim.run(until=sim.now + 3.0)
        assert ticket.outcome is QueryOutcome.ANSWERED
        # Backwards-compatible lookup: tickets hash/compare as their id.
        assert ticket in client.responses
        assert client.responses[ticket] == client.responses[ticket.query_id]

    def test_send_failure_distinguished_from_no_directory(self):
        sim = Simulator()
        network = Network(sim, bounds=Bounds(1000, 1000), radio_range=50.0)
        node = network.add_node(0, Position(0, 0))
        # The known directory sits out of radio range: the unicast has no
        # route and fails immediately.
        network.add_node(7, Position(900, 900))
        client = node.add_agent(ClientAgentBase(lambda: 7))
        network.start()
        ticket = client.query("doc")
        assert not ticket
        assert ticket.outcome is QueryOutcome.SEND_FAILED

    def test_exhausted_after_retries_without_answer(self):
        sim, network, directories, clients = mesh()
        client = next(iter(clients.values()))
        # Sever the link after dispatch by making the directory drop
        # queries: it never concludes, so the client's retry horizon
        # passes without a response.
        directories[0].on_message = lambda envelope: None
        ticket = client.query("service-gone", retries=2, retry_timeout=1.0)
        assert ticket.outcome is QueryOutcome.PENDING
        sim.run(until=sim.now + 60.0)
        assert ticket.outcome is QueryOutcome.EXHAUSTED
        assert ticket not in client.responses

    def test_ticket_equality_and_repr(self):
        answered = QueryTicket(3, QueryOutcome.ANSWERED)
        assert answered == QueryTicket(3, QueryOutcome.PENDING)
        assert answered == 3
        assert answered != QueryTicket(4, QueryOutcome.ANSWERED)
        assert hash(answered) == hash(3)
        assert "3" in repr(answered)


class TestReactiveSummaryExchange:
    """§4: summaries are re-requested when false positives exceed the
    threshold."""

    def _saturate(self, directories, clients, sim):
        """Make peer 1's summary admit everything, then hammer it with
        queries it cannot answer."""
        client = next(iter(clients.values()))
        origin = directories[0]
        origin.false_positive_min_samples = 3
        # A summary whose bits are all set admits any probe.
        from repro.util.bloom import BloomFilter

        saturated = BloomFilter(origin.summary_bits, origin.summary_hashes)
        saturated._bits = (1 << saturated.m) - 1
        origin.peer_summaries[1] = saturated
        for index in range(6):
            client.query(f"service-missing-{index}")
            sim.run(until=sim.now + 3.0)
        return origin

    def test_refresh_requested_after_false_positives(self):
        sim, _network, directories, clients = mesh(directory_count=2)
        origin = self._saturate(directories, clients, sim)
        assert origin.summary_refreshes_requested >= 1
        # The refreshed summary no longer admits the missing documents.
        refreshed = origin.peer_summaries[1]
        assert "service-missing-99" not in refreshed

    def test_counters_reset_after_refresh(self):
        sim, _network, directories, clients = mesh(directory_count=2)
        origin = self._saturate(directories, clients, sim)
        assert origin._peer_empty.get(1, 0) <= origin.false_positive_min_samples


class TestForwardRanking:
    """§4: forwarding prefers near, well-charged directories and honours
    the peer cap."""

    def test_cap_limits_forwarding(self):
        sim, _network, directories, clients = mesh(directory_count=4)
        origin = directories[0]
        origin.max_forward_peers = 1
        # Every peer holds the document so all summaries admit it.
        for nid in (1, 2, 3):
            directories[nid].documents.append("service-x")
            directories[nid]._mark_content_changed()
        sim.run(until=sim.now + 3.0)
        client = next(iter(clients.values()))
        query_id = client.query("service-x")
        sim.run(until=sim.now + 5.0)
        assert origin.queries_forwarded == 1
        _latency, results = client.responses[query_id]
        assert results  # the single chosen peer answered

    def test_ranking_prefers_nearer_peer(self):
        from repro.network.node import Network
        from repro.network.simulator import Simulator
        from repro.network.topology import Bounds, Position

        sim = Simulator()
        network = Network(sim, bounds=Bounds(1000, 100), radio_range=120.0)
        # A line: origin(0) - near(1) - far(2); far is 2 hops away.
        agents = {}
        for nid, x in [(0, 0.0), (1, 100.0), (2, 200.0)]:
            node = network.add_node(nid, Position(x, 50.0))
            agents[nid] = node.add_agent(ToyDirectory(forward_window=0.5))
        network.start()
        for agent in agents.values():
            agent.join_backbone()
        sim.run(until=5.0)
        for nid in (1, 2):
            agents[nid].documents.append("service-y")
            agents[nid]._mark_content_changed()
        sim.run(until=sim.now + 3.0)
        ranked = agents[0]._rank_forward_peers("service-y")
        assert ranked == [1, 2]

    def test_ranking_prefers_battery_at_equal_distance(self):
        sim, network, directories, _clients = mesh(directory_count=3)
        network.nodes[1].battery = 0.2
        network.nodes[2].battery = 0.9
        for nid in (1, 2):
            directories[nid].documents.append("service-z")
            directories[nid]._mark_content_changed()
        sim.run(until=sim.now + 3.0)
        ranked = directories[0]._rank_forward_peers("service-z")
        assert ranked == [2, 1]
