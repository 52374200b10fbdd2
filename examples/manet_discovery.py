"""S-Ariadne over a mobile ad hoc network (paper §4, Fig. 6).

A 36-node MANET with random-waypoint mobility: nodes elect directories on
the fly, directories form a cooperating backbone exchanging Bloom-filter
summaries, clients publish semantic advertisements to their vicinity
directory, and queries are forwarded only to directories likely to hold a
match.  The protocol steps are read back from the observability stack
(docs/OBSERVABILITY.md).  The same scenario is then repeated with the
syntactic Ariadne baseline to contrast recall under vocabulary mismatch.

Run:  python examples/manet_discovery.py
"""

from repro import CodeTable, OntologyRegistry, ServiceWorkload
from repro.network.election import ElectionConfig
from repro.network.topology import RandomWaypoint
from repro.obs import Observability, RingBufferSink, install
from repro.protocols.deployment import Deployment, DeploymentConfig
from repro.services.wsdl import WsdlOperation, WsdlRequest
from repro.services.xml_codec import profile_to_xml, request_to_xml, wsdl_to_xml

NODES = 36
ELECTION = ElectionConfig(
    advert_interval=5.0,
    advert_hops=2,
    directory_timeout=10.0,
    check_interval=2.0,
    reply_window=1.0,
    election_hops=2,
)
#: The Fig. 6 query steps as the directories record them.
QUERY_STEPS = ("query.handle", "hop.forward", "query.respond")


def query_steps(sink: RingBufferSink) -> list[tuple[float, str, dict]]:
    """Every query step as ``(sim_time, name, attrs)`` in time order; a
    forward decision takes the time of the handling span it sits in."""
    steps = []
    for root in sink.spans:
        time = root.sim_time
        for span in root.walk():
            if span.sim_time is not None:
                time = span.sim_time
            if span.name in QUERY_STEPS:
                steps.append((time, span.name, span.attrs))
    return sorted(steps, key=lambda step: step[0])


def semantic_scenario(workload: ServiceWorkload, table: CodeTable) -> None:
    print("== S-Ariadne deployment ==")
    deployment = Deployment(
        DeploymentConfig(
            node_count=NODES, protocol="sariadne", election=ELECTION, seed=7, radio_range=170.0
        ),
        table=table,
        mobility=RandomWaypoint(min_speed=0.3, max_speed=1.2, pause_time=15.0),
    )
    sink = RingBufferSink()
    obs = Observability(sinks=[sink])
    install(obs, deployment.network)
    count = deployment.run_until_directories(minimum=2)
    print(
        f"t={deployment.sim.now:5.1f}s elected {count} directories: "
        f"{deployment.directory_ids()} (coverage {deployment.coverage():.0%})"
    )

    services = workload.make_services(15)
    for index, profile in enumerate(services):
        document = profile_to_xml(
            profile,
            annotations=table.annotate(profile.provided),
            codes_version=table.version,
        )
        deployment.publish_from(index % NODES, document, service_uri=profile.uri)
    print(f"t={deployment.sim.now:5.1f}s published {len(services)} services across the network")

    hits = 0
    total_latency = 0.0
    for index in range(8):
        target = services[index]
        request = workload.matching_request(target)
        document = request_to_xml(
            request,
            annotations=table.annotate(request.capabilities),
            codes_version=table.version,
        )
        response = deployment.query_from((index * 5 + 3) % NODES, document)
        assert response is not None, "no directory reachable"
        latency, results = response
        found = any(row[0] == target.uri for row in results)
        hits += found
        total_latency += latency
        print(
            f"  query {index}: {'hit ' if found else 'MISS'} in {latency * 1e3:6.1f} ms"
            f" ({len(results)} result(s))"
        )
    stats = deployment.network.stats
    print(
        f"semantic recall {hits}/8, mean latency {total_latency / 8 * 1e3:.1f} ms simulated;"
        f" traffic {stats.broadcasts} bcast / {stats.unicasts} ucast"
        f" / {stats.bytes_sent // 1024} KiB"
    )
    steps = query_steps(sink)
    counts = {
        "election.promoted": sum(event.kind == "election.promoted" for event in sink.events),
        "dir.publishes": sum(
            series["value"]
            for series in obs.metrics.snapshot()
            if series["name"] == "dir.publishes"
        ),
    }
    for name in QUERY_STEPS:
        counts[name] = sum(step_name == name for _time, step_name, _attrs in steps)
    print("protocol events: " + ", ".join(f"{name}={count}" for name, count in counts.items()))
    print("last protocol events:")
    for time, name, attrs in steps[-4:]:
        details = " ".join(f"{key}={value}" for key, value in attrs.items())
        print(f"  [{time:9.3f}s] {name:<14} {details}")
    print()


def syntactic_scenario(workload: ServiceWorkload) -> None:
    print("== Ariadne baseline (syntactic) ==")
    deployment = Deployment(
        DeploymentConfig(
            node_count=NODES, protocol="ariadne", election=ELECTION, seed=7, radio_range=170.0
        )
    )
    deployment.run_until_directories(minimum=2)
    services = workload.make_services(15)
    for index, profile in enumerate(services):
        deployment.publish_from(
            index % NODES, wsdl_to_xml(ServiceWorkload.wsdl_twin(profile)), service_uri=profile.uri
        )

    # Exact-interface request: syntactic discovery works...
    exact = ServiceWorkload.wsdl_request_for(services[2])
    response = deployment.query_from(11, wsdl_to_xml(exact))
    found = response is not None and any(row[0] == services[2].uri for row in response[1])
    print(f"  exact interface strings : {'hit' if found else 'miss'}")

    # ...but a synonymous vocabulary finds nothing (the paper's motivation).
    renamed = WsdlRequest(
        uri=exact.uri,
        operations=tuple(
            WsdlOperation("fetch" + op.name, op.inputs, op.outputs) for op in exact.operations
        ),
        keywords=exact.keywords,
    )
    response = deployment.query_from(11, wsdl_to_xml(renamed))
    found = response is not None and bool(response[1])
    print(f"  synonymous interface    : {'hit' if found else 'miss'}  <- why semantics matter")


def main() -> None:
    workload = ServiceWorkload(seed=7)
    table = CodeTable(OntologyRegistry(workload.ontologies))
    semantic_scenario(workload, table)
    syntactic_scenario(workload)


if __name__ == "__main__":
    main()
