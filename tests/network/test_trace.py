"""The Fig. 6 steps of a simulated deployment, read from the obs stack.

Promotion, publication, query handling, forwarding and the response each
leave a documented record (docs/OBSERVABILITY.md): the
``election.promoted`` lifecycle event, the ``dir.publishes`` counter, the
``query.handle`` span, the ``hop.forward`` event and the
``query.respond`` event.
"""

from repro.core.codes import CodeTable
from repro.network.election import ElectionConfig
from repro.obs import Observability, RingBufferSink, install
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


def counter_total(obs: Observability, name: str) -> int:
    """Sum of every series of counter ``name``."""
    return sum(
        series["value"] for series in obs.metrics.snapshot() if series["name"] == name
    )


class TestDeploymentTracing:
    def test_fig6_steps_traced_in_order(self, small_workload):
        """The Fig. 6 interaction leaves its footprint in the obs stack:
        promote → publish → handle → (forward →) respond."""
        table = CodeTable(OntologyRegistry(small_workload.ontologies))
        deployment = Deployment(
            DeploymentConfig(node_count=25, protocol="sariadne", election=FAST_ELECTION, seed=3),
            table=table,
        )
        sink = RingBufferSink()
        obs = Observability(sinks=[sink])
        install(obs, deployment.network)
        deployment.run_until_directories(minimum=2)
        profile = small_workload.make_service(0)
        document = profile_to_xml(
            profile,
            annotations=table.annotate(profile.provided),
            codes_version=table.version,
        )
        deployment.publish_from(5, document, service_uri=profile.uri)
        assert counter_total(obs, "dir.publishes") >= 1
        request = small_workload.matching_request(profile)
        request_doc = request_to_xml(
            request,
            annotations=table.annotate(request.capabilities),
            codes_version=table.version,
        )
        response = deployment.query_from(20, request_doc)
        assert response is not None

        spans = [span for root in sink.spans for span in root.walk()]
        first_promote = min(
            event.sim_time for event in sink.events if event.kind == "election.promoted"
        )
        first_handle = min(span.sim_time for span in spans if span.name == "query.handle")
        first_respond = min(span.sim_time for span in spans if span.name == "query.respond")
        assert first_promote <= first_handle <= first_respond
        # The fabric's sends: metrics count every message, the traffic
        # stats split them into floods and unicasts.
        assert counter_total(obs, "net.messages") > 0
        assert deployment.network.stats.broadcasts > 0
        assert deployment.network.stats.unicasts > 0
