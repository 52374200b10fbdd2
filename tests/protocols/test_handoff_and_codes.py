"""Tests for directory handoff (§5 Fig. 7 scenario) and the §3.2
stale-code refresh protocol, plus hybrid wired/wireless routing."""

import pytest

from repro.core.codes import CodeTable
from repro.network.election import ElectionConfig
from repro.network.messages import DirectoryHandoff, PublishService
from repro.network.node import Network
from repro.network.simulator import Simulator
from repro.network.topology import Position
from repro.obs import Observability, install
from repro.ontology.generator import OntologyShape, generate_ontology
from repro.ontology.registry import OntologyRegistry
from repro.protocols.deployment import Deployment, DeploymentConfig
from repro.protocols.sariadne import SAriadneDirectoryAgent
from repro.services.xml_codec import profile_to_xml, request_to_xml

FAST_ELECTION = ElectionConfig(
    advert_interval=5.0,
    advert_hops=2,
    directory_timeout=10.0,
    check_interval=2.0,
    reply_window=1.0,
    election_hops=2,
)


@pytest.fixture(scope="module")
def table(small_workload):
    return CodeTable(OntologyRegistry(small_workload.ontologies))


def deployment_with_services(small_workload, table, count=6, seed=3):
    config = DeploymentConfig(
        node_count=25, protocol="sariadne", election=FAST_ELECTION, seed=seed
    )
    deployment = Deployment(config, table=table)
    deployment.run_until_directories(minimum=2)
    services = small_workload.make_services(count)
    for index, profile in enumerate(services):
        document = profile_to_xml(
            profile,
            annotations=table.annotate(profile.provided),
            codes_version=table.version,
        )
        deployment.publish_from(index % 25, document, service_uri=profile.uri)
    return deployment, services


def request_doc(small_workload, table, profile):
    request = small_workload.matching_request(profile)
    return request_to_xml(
        request,
        annotations=table.annotate(request.capabilities),
        codes_version=table.version,
    )


class TestHandoff:
    def test_services_survive_directory_departure(self, small_workload, table):
        deployment, services = deployment_with_services(small_workload, table)
        departing = deployment.directory_ids()[0]
        # Pick a non-directory successor.
        successor = next(
            nid for nid in range(25) if nid not in deployment.directory_agents
        )
        held_before = len(deployment.directory_agents[departing].cached_documents())
        assert deployment.transfer_directory(departing, successor)
        assert departing not in deployment.directory_agents
        assert successor in deployment.directory_agents
        held_after = len(deployment.directory_agents[successor].cached_documents())
        assert held_after >= held_before
        # Every service is still discoverable after the handoff.
        deployment.sim.run(until=deployment.sim.now + 10.0)
        for index, profile in enumerate(services):
            response = deployment.query_from(
                (index * 3 + 1) % 25, request_doc(small_workload, table, profile)
            )
            assert response is not None
            _latency, results = response
            assert any(row[0] == profile.uri for row in results), profile.uri

    def test_transfer_from_non_directory_rejected(self, small_workload, table):
        deployment, _services = deployment_with_services(small_workload, table, count=1)
        non_directory = next(
            nid for nid in range(25) if nid not in deployment.directory_agents
        )
        with pytest.raises(KeyError):
            deployment.transfer_directory(non_directory, 0)


class TestPublishCounting:
    def test_each_accepted_document_counted_once(self, small_workload, table):
        """N publications plus a handoff of M documents read N+M on one
        ``dir.publishes`` series, labelled with the directory's node."""
        publishes, handed_off = 3, 4
        documents = [
            profile_to_xml(
                profile,
                annotations=table.annotate(profile.provided),
                codes_version=table.version,
            )
            for profile in small_workload.make_services(publishes + handed_off)
        ]
        sim = Simulator()
        network = Network(sim, radio_range=200.0)
        network.add_node(0, Position(0, 0)).add_agent(SAriadneDirectoryAgent(table))
        sender = network.add_node(1, Position(50, 0))
        obs = Observability()
        install(obs, network)
        for document in documents[:publishes]:
            sender.unicast(0, PublishService(document))
        sender.unicast(
            0, DirectoryHandoff(documents=tuple(documents[publishes:]), from_directory=1)
        )
        sim.run()
        series = [
            (record["labels"], record["value"])
            for record in obs.metrics.snapshot()
            if record["name"] == "dir.publishes"
        ]
        assert series == [({"node": 0}, publishes + handed_off)]


class TestCodeRefresh:
    def test_stale_publish_triggers_refresh(self, small_workload, table):
        deployment, _services = deployment_with_services(small_workload, table, count=1)
        publisher = 7
        client = deployment.clients[publisher]
        profile = small_workload.make_service(40)
        stale_document = profile_to_xml(
            profile,
            annotations=table.annotate(profile.provided),
            codes_version=table.version + 99,  # stale!
        )
        client.publish(stale_document, service_uri=profile.uri)
        deployment.sim.run(until=deployment.sim.now + 3.0)
        # The directory rejected the stale codes and sent fresh ones.
        assert client.latest_code_version == table.version
        concepts = {c for cap in profile.provided for c in cap.concepts()}
        assert concepts <= set(client.code_updates)
        # Not cached under the stale codes.
        directory = deployment.directory_agents[deployment.clients[publisher].directory_id()]
        assert directory.stale_publishes >= 1

    def test_republish_with_refreshed_codes_succeeds(self, small_workload, table):
        deployment, _services = deployment_with_services(small_workload, table, count=1)
        publisher = 7
        client = deployment.clients[publisher]
        profile = small_workload.make_service(41)
        stale = profile_to_xml(
            profile,
            annotations=table.annotate(profile.provided),
            codes_version=table.version + 1,
        )
        client.publish(stale, service_uri=profile.uri)
        deployment.sim.run(until=deployment.sim.now + 3.0)
        assert client.latest_code_version == table.version
        fresh = profile_to_xml(
            profile,
            annotations=client.code_updates,
            codes_version=client.latest_code_version,
        )
        client.publish(fresh, service_uri=profile.uri)
        deployment.sim.run(until=deployment.sim.now + 3.0)
        response = deployment.query_from(3, request_doc(small_workload, table, profile))
        assert response is not None
        _latency, results = response
        assert any(row[0] == profile.uri for row in results)

    def test_malformed_publish_counted_not_fatal(self, small_workload, table):
        deployment, _services = deployment_with_services(small_workload, table, count=1)
        directory_id = deployment.directory_ids()[0]
        agent = deployment.directory_agents[directory_id]
        deployment.network.nodes[0].unicast(directory_id, PublishService("<garbage"))
        deployment.sim.run(until=deployment.sim.now + 2.0)
        assert agent.publish_errors == 1


class TestWiredLinks:
    def test_wired_link_bridges_partition(self):
        from repro.network.node import Network
        from repro.network.simulator import Simulator
        from repro.network.topology import Position

        sim = Simulator()
        network = Network(sim, radio_range=50.0)
        network.add_node(0, Position(0, 0))
        network.add_node(1, Position(400, 400))
        assert not network.is_connected()
        network.add_wired_link(0, 1)
        assert network.is_connected()
        assert network.is_wired(0, 1) and network.is_wired(1, 0)

    def test_wired_hop_is_faster(self):
        from repro.network.node import Network, ProtocolAgent
        from repro.network.simulator import Simulator
        from repro.network.topology import Position

        times = {}

        class Stamper(ProtocolAgent):
            def __init__(self, label, sim):
                super().__init__()
                self.label = label
                self.sim = sim

            def on_message(self, envelope):
                times[self.label] = self.sim.now

        sim = Simulator()
        network = Network(sim, radio_range=150.0)
        network.add_node(0, Position(0, 0))
        wireless_peer = network.add_node(1, Position(100, 0))
        wired_peer = network.add_node(2, Position(100, 100))
        network.add_wired_link(0, 2)
        wireless_peer.add_agent(Stamper("wireless", sim))
        wired_peer.add_agent(Stamper("wired", sim))
        network.start()
        network.nodes[0].unicast(1, PublishService("<x/>"))
        network.nodes[0].unicast(2, PublishService("<x/>"))
        sim.run()
        assert times["wired"] < times["wireless"]

    def test_wired_link_validation(self):
        from repro.network.node import Network
        from repro.network.simulator import Simulator
        from repro.network.topology import Position

        network = Network(Simulator())
        network.add_node(0, Position(0, 0))
        with pytest.raises(KeyError):
            network.add_wired_link(0, 9)
        with pytest.raises(ValueError):
            network.add_wired_link(0, 0)
