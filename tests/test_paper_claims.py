"""The paper's claims as executable assertions — a reproduction checklist.

Each test quotes a sentence of the paper and asserts the corresponding
behaviour of this implementation (on fast, reduced-scale variants; the
full-scale timing shapes live in ``benchmarks/``).  Reading this module
top to bottom is reading the paper's claims being checked.
"""

import pytest

from repro.core.capability_graph import CapabilityDag
from repro.core.codes import CodeTable, StaleCodesError
from repro.core.directory import FlatDirectory, SemanticDirectory
from repro.core.matching import CodeMatcher, TaxonomyMatcher
from repro.ontology.registry import OntologyRegistry
from repro.services.profile import Capability, ServiceProfile, ServiceRequest

MEDIA = "http://repro.example.org/media"


def r(name):
    return f"{MEDIA}/resources#{name}"


def s(name):
    return f"{MEDIA}/servers#{name}"


class TestSection1Claims:
    """§1 — motivation."""

    def test_syntactic_discovery_needs_exact_agreement(self):
        """'WSDL-based service discovery relies on the syntactic
        conformance of the required interfaces with the provided ones.'"""
        from repro.registry.syntactic import SyntacticRegistry
        from repro.services.wsdl import WsdlDescription, WsdlOperation, WsdlRequest

        registry = SyntacticRegistry()
        registry.publish_wsdl(
            WsdlDescription(
                uri="urn:x:svc:1",
                port_type="Media",
                operations=(WsdlOperation("getVideoStream", ("title",), ("stream",)),),
            )
        )
        same = WsdlRequest(
            uri="urn:x:r1",
            operations=(WsdlOperation("getVideoStream", ("title",), ("stream",)),),
        )
        synonym = WsdlRequest(
            uri="urn:x:r2",
            operations=(WsdlOperation("fetchVideoStream", ("title",), ("stream",)),),
        )
        assert registry.query_wsdl(same)
        assert not registry.query_wsdl(synonym)

    def test_semantic_discovery_survives_vocabulary_mismatch(self, media_table):
        """'Ontology-based semantic reasoning enables discovering ...
        services whose published provided functionalities match a required
        functionality, even if there is no syntactic conformance.'"""
        directory = SemanticDirectory(media_table)
        directory.publish(
            ServiceProfile(
                uri="urn:x:svc:streamer",
                name="Streamer",
                provided=(
                    Capability.build(
                        "urn:x:c:p",
                        "EmitMediaFlow",  # nothing in common with the request's names
                        inputs=[r("DigitalResource")],
                        outputs=[r("Stream")],
                        category=s("DigitalServer"),
                    ),
                ),
            )
        )
        request = ServiceRequest(
            uri="urn:x:req",
            capabilities=(
                Capability.build(
                    "urn:x:c:q",
                    "GetVideoStream",
                    inputs=[r("VideoResource")],
                    outputs=[r("VideoStream")],
                    category=s("VideoServer"),
                ),
            ),
        )
        assert directory.query(request)


class TestSection2Claims:
    """§2.3 — the matching relation and its worked example."""

    def test_match_means_substitutability(self, media_taxonomy):
        """'Match(C1, C2) ... allows identifying whether capability C1 is
        equivalent or includes capability C2, i.e., if C1 can substitute
        C2.'"""
        matcher = TaxonomyMatcher(media_taxonomy)
        generic = Capability.build(
            "urn:x:c:g", "SendDigitalStream",
            inputs=[r("DigitalResource")], outputs=[r("Stream")], category=s("DigitalServer"),
        )
        specific = Capability.build(
            "urn:x:c:s", "GetVideoStream",
            inputs=[r("VideoResource")], outputs=[r("VideoStream")], category=s("VideoServer"),
        )
        assert matcher.match(generic, specific)
        assert not matcher.match(specific, generic)

    def test_worked_example_distance_three(self, media_taxonomy):
        """'The relation Match(SendDigitalStream, GetVideoStream) holds,
        and the semantic distance between these capabilities is equal to
        3.'"""
        matcher = TaxonomyMatcher(media_taxonomy)
        provided = Capability.build(
            "urn:x:c:g", "SendDigitalStream",
            inputs=[r("DigitalResource")], outputs=[r("Stream")], category=s("DigitalServer"),
        )
        requested = Capability.build(
            "urn:x:c:s", "GetVideoStream",
            inputs=[r("VideoResource")], outputs=[r("VideoStream")], category=s("VideoServer"),
        )
        assert matcher.semantic_distance(provided, requested) == 3

    def test_distance_null_without_subsumption(self, media_taxonomy):
        """'If concept1 does not subsume concept2 ... the distance ... does
        not have a numeric value.'"""
        assert media_taxonomy.distance(r("VideoResource"), r("GameResource")) is None

    def test_reasoning_dominates_online_match(self, small_workload):
        """'The time to load and classify ontologies takes from 76% to 78%
        of the total time for matching' (shape: reasoning dominates)."""
        from repro.ontology.owl_xml import ontology_to_xml
        from repro.registry.naive_semantic import OnlineMatchmaker
        from repro.services.xml_codec import profile_to_xml, request_to_xml

        profile = small_workload.make_service(0)
        request = small_workload.matching_request(profile)
        report = OnlineMatchmaker().match_documents(
            profile_to_xml(profile),
            request_to_xml(request),
            [ontology_to_xml(o) for o in small_workload.ontologies],
        )
        assert report.reasoning_share > 0.5


class TestSection3Claims:
    """§3 — the two optimizations."""

    def test_semantic_reasoning_reduces_to_numeric_comparison(self, media_table):
        """'To infer whether a concept C1 ... subsumes another concept C2
        ... it is sufficient to compare whether I1 is included in I2.'"""
        over = media_table.code(r("DigitalResource"))
        under = media_table.code(r("VideoResource"))
        # Pure numeric containment — no taxonomy involved.
        assert over.subsumes(under)
        assert not under.subsumes(over)

    def test_codes_are_versioned(self, media_table):
        """'Service advertisements and service requests specify the version
        of the codes being used.'"""
        with pytest.raises(StaleCodesError):
            media_table.resolve_annotations({}, version=media_table.version + 1)

    def test_equivalent_capabilities_share_a_vertex(self, media_taxonomy):
        """'If both Match(C1, C2) and Match(C2, C1) hold and
        SemanticDistance ... = 0, then C1 and C2 will be represented by a
        single vertex.'"""
        matcher = TaxonomyMatcher(media_taxonomy)
        dag = CapabilityDag()
        twin = dict(inputs=[r("DigitalResource")], outputs=[r("Stream")], category=s("DigitalServer"))
        a = dag.insert(Capability.build("urn:x:c:a", "A", **twin), "svc1", matcher)
        b = dag.insert(Capability.build("urn:x:c:b", "B", **twin), "svc2", matcher)
        assert a == b

    def test_roots_are_most_generic(self, media_taxonomy):
        """'These capabilities [roots] are said to be more generic ...
        their provided outputs subsume the outputs of other
        capabilities.'"""
        matcher = TaxonomyMatcher(media_taxonomy)
        dag = CapabilityDag()
        dag.insert(Capability.build("urn:x:c:g", "G", outputs=[r("DigitalResource")]), "a", matcher)
        dag.insert(Capability.build("urn:x:c:s", "S", outputs=[r("VideoResource")]), "b", matcher)
        root = dag.roots()[0].representative
        leaf = dag.leaves()[0].representative
        assert media_taxonomy.subsumes(next(iter(root.outputs)), next(iter(leaf.outputs)))

    def test_query_filters_graphs_by_ontology_index(self, media_table):
        """'This [the request's ontology] allows to filter out the DAG2 as
        it is indexed with only the ontology O3.'"""
        directory = SemanticDirectory(media_table)
        directory.publish(
            ServiceProfile(
                uri="urn:x:svc:1",
                name="S",
                provided=(Capability.build("urn:x:c:1", "C", outputs=[r("Stream")]),),
            )
        )
        foreign = ServiceRequest(
            uri="urn:x:req:f",
            capabilities=(
                Capability.build("urn:x:c:f", "F", outputs=["http://other.org/o#X"]),
            ),
        )
        assert directory.query(foreign) == []

    def test_fewer_matches_than_flat_scan(self, small_workload, small_table):
        """'It is sufficient to perform a semantic match with a subset of
        the capabilities ... rather than ... all the capabilities hosted by
        a directory.'"""
        directory = SemanticDirectory(small_table)
        flat = FlatDirectory(small_table, use_concept_index=False)
        services = small_workload.make_services(30)
        for profile in services:
            directory.publish(profile)
            flat.publish(profile)
        request = small_workload.matching_request(services[0])
        before = directory.stats.capability_matches
        answers = directory.query(request)
        used = directory.stats.capability_matches - before
        assert answers and answers[0].service_uri == services[0].uri
        assert flat.query(request)
        assert used < flat.stats.capability_matches
        assert flat.stats.capability_matches == flat.capability_count * len(request.capabilities)

    def test_insertion_work_independent_of_directory_size(self, small_workload, small_table):
        """'The number of semantic matches performed ... to insert a
        capability depends neither on the total number of services on the
        directory nor on the number of graphs.'"""
        counts = []
        for size in (10, 40):
            directory = SemanticDirectory(small_table)
            for index in range(size):
                directory.publish(small_workload.make_service(index))
            matcher = CodeMatcher(table=small_table)
            probe = small_workload.make_service(500).provided[0]
            graph = directory._graphs.setdefault(probe.ontologies(), CapabilityDag())
            graph.insert(probe, "urn:x:probe", matcher)
            counts.append(matcher.stats.capability_matches)
        # Insert work tracks the target graph, not the directory size.
        assert counts[1] <= counts[0] + directory.capability_count // 4


class TestSection4Claims:
    """§4 — the distributed protocol."""

    def test_bloom_summary_never_misses_cached_content(self, small_workload):
        """'If there is a bit that is not set to 1, the directory will not
        contain the required capability' (and the contrapositive: cached
        content is always admitted)."""
        from repro.core.summaries import DirectorySummary

        summary = DirectorySummary()
        capabilities = [small_workload.make_service(i).provided[0] for i in range(20)]
        for capability in capabilities:
            summary.add_capability(capability)
        for capability in capabilities:
            assert summary.might_hold(capability)

    def test_elections_produce_directories_and_coverage(self, small_workload):
        """'This mechanism allows electing directories with the best
        physical properties and distributing them efficiently.'"""
        from repro.network.election import ElectionConfig
        from repro.protocols.deployment import Deployment, DeploymentConfig

        table = CodeTable(OntologyRegistry(small_workload.ontologies))
        deployment = Deployment(
            DeploymentConfig(
                node_count=16,
                protocol="sariadne",
                radio_range=200.0,
                election=ElectionConfig(
                    advert_interval=5.0,
                    advert_hops=2,
                    directory_timeout=10.0,
                    check_interval=2.0,
                    reply_window=1.0,
                    election_hops=2,
                ),
                seed=2,
            ),
            table=table,
        )
        assert deployment.run_until_directories(minimum=1) >= 1
        deployment.sim.run(until=deployment.sim.now + 60.0)
        assert deployment.coverage() == 1.0


class TestSection5Claims:
    """§5 — the headline results (shape at reduced scale; full scale in
    benchmarks/)."""

    def test_sariadne_best_answer_equals_exhaustive(self, small_workload, small_table):
        """'Selecting the advertisement whose description best fits the
        user's requirements' — the optimized query loses nothing on this
        workload."""
        classified = SemanticDirectory(small_table)
        flat = FlatDirectory(small_table)
        services = small_workload.make_services(25)
        for profile in services:
            classified.publish(profile)
            flat.publish(profile)
        for index in (0, 7, 19):
            request = small_workload.matching_request(services[index])
            optimized = classified.query(request)
            exhaustive = flat.query(request)
            assert bool(optimized) == bool(exhaustive)
            if optimized:
                assert optimized[0].distance == exhaustive[0].distance

    def test_publish_once_parse_once(self, small_workload, small_table):
        """'Using S-Ariadne, the services are parsed once at the publishing
        phase' — queries never re-parse stored advertisements."""
        from repro.services.xml_codec import profile_to_xml

        directory = SemanticDirectory(small_table)
        for index in range(10):
            profile = small_workload.make_service(index)
            directory.publish_xml(
                profile_to_xml(
                    profile,
                    annotations=small_table.annotate(profile.provided),
                    codes_version=small_table.version,
                )
            )
        parse_after_publish = directory.timer.seconds("parse")
        request = small_workload.matching_request(small_workload.make_service(3))
        for _ in range(20):
            directory.query(request)  # parsed requests are passed in-memory
        assert directory.timer.seconds("parse") == parse_after_publish
