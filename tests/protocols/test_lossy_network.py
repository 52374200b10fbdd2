"""Failure injection: discovery over a lossy wireless medium.

The §4 protocol must degrade gracefully when frames are lost: flooding is
naturally redundant, unicast queries recover via client retries.  Loss
comes from a :class:`~repro.network.faults.FaultPlan` chaos window, the
fabric's one loss model.
"""

import pytest

from repro.core.codes import CodeTable
from repro.network.election import ElectionConfig
from repro.network.faults import FaultPlan
from repro.network.node import Network
from repro.network.simulator import Simulator
from repro.network.topology import Position
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


class TestLossModel:
    def test_lossless_network_drops_nothing(self):
        sim = Simulator()
        network = Network(sim, radio_range=200.0)
        network.add_node(0, Position(0, 0))
        network.add_node(1, Position(50, 0))
        from repro.network.messages import PublishService

        for _ in range(50):
            network.nodes[0].unicast(1, PublishService("<x/>"))
        sim.run()
        assert network.stats.drops_lost == 0
        assert network.stats.deliveries == 50

    def test_lossy_unicast_drops_some(self):
        sim = Simulator()
        network = Network(sim, radio_range=200.0, seed=5)
        network.add_node(0, Position(0, 0))
        network.add_node(1, Position(50, 0))
        network.install_fault_plan(FaultPlan(seed=5).chaos(start=0.0, loss=0.3))
        from repro.network.messages import PublishService

        for _ in range(200):
            network.nodes[0].unicast(1, PublishService("<x/>"))
        sim.run()
        assert network.stats.drops_lost > 20
        assert network.stats.deliveries < 200
        assert network.stats.deliveries + network.stats.drops_lost == 200

    def test_lossy_flood_still_spreads(self):
        """Flooding redundancy: with a dense mesh, moderate loss rarely
        stops propagation entirely."""
        from repro.network.messages import PublishService
        from repro.network.node import ProtocolAgent

        received = set()

        class Sink(ProtocolAgent):
            def __init__(self, nid):
                super().__init__()
                self.nid = nid

            def on_message(self, envelope):
                received.add(self.nid)

        sim = Simulator()
        network = Network(sim, radio_range=300.0, seed=1)
        for i in range(10):
            node = network.add_node(i, Position(30.0 * i, 0))
            node.add_agent(Sink(i))
        network.install_fault_plan(FaultPlan(seed=1).chaos(start=0.0, loss=0.2))
        network.start()
        network.nodes[0].broadcast(PublishService("<x/>"), ttl=5)
        sim.run()
        assert len(received) >= 5


class TestDiscoveryUnderLoss:
    @pytest.fixture(scope="class")
    def table(self, small_workload):
        return CodeTable(OntologyRegistry(small_workload.ontologies))

    def test_retries_recover_lost_queries(self, small_workload, table):
        config = DeploymentConfig(
            node_count=25, protocol="sariadne", election=FAST_ELECTION, seed=6
        )
        deployment = Deployment(config, table=table)
        deployment.run_until_directories(minimum=1)
        # Publish while the network is still reliable.
        profile = small_workload.make_service(1)
        document = profile_to_xml(
            profile,
            annotations=table.annotate(profile.provided),
            codes_version=table.version,
        )
        deployment.publish_from(4, document, service_uri=profile.uri)
        # Now make the medium lossy and query with retries.  Each leg of
        # the exchange (request, response) is lost independently.
        deployment.install_fault_plan(
            FaultPlan(seed=6).chaos(start=deployment.sim.now, loss=0.15)
        )
        request = small_workload.matching_request(profile)
        request_document = request_to_xml(
            request,
            annotations=table.annotate(request.capabilities),
            codes_version=table.version,
        )
        client = deployment.clients[20]
        answered = 0
        for _ in range(10):
            ticket = client.query(request_document, retries=8, retry_timeout=2.0)
            assert ticket
            deployment.sim.run(until=deployment.sim.now + 25.0)
            if ticket in client.responses:
                answered += 1
        # Single attempts would regularly vanish; retries recover them.
        assert answered >= 9, (answered, client.retries_sent)
        assert client.retries_sent > 0
