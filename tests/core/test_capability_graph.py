"""Tests for capability DAG classification (§3.3): insertion, ordering
invariants, query modes, removal."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.capability_graph import CapabilityDag, QueryMode
from repro.core.matching import TaxonomyMatcher
from repro.services.profile import Capability

NS = "http://repro.example.org/media"


def r(name: str) -> str:
    return f"{NS}/resources#{name}"


def s(name: str) -> str:
    return f"{NS}/servers#{name}"


def cap(name, inputs=(), outputs=(), category=None) -> Capability:
    return Capability.build(
        f"urn:x:cap:{name}", name, inputs=inputs, outputs=outputs, category=category
    )


@pytest.fixture()
def matcher(media_taxonomy):
    return TaxonomyMatcher(media_taxonomy)


@pytest.fixture()
def fig1_dag(matcher):
    """SendDigitalStream (generic) over ProvideGame (specific)."""
    dag = CapabilityDag()
    dag.insert(
        cap("SendDigitalStream", [r("DigitalResource")], [r("Stream")], s("DigitalServer")),
        "urn:x:svc:workstation",
        matcher,
    )
    dag.insert(
        cap("ProvideGame", [r("GameResource")], [r("Stream")], s("GameServer")),
        "urn:x:svc:workstation",
        matcher,
    )
    return dag


class TestInsertion:
    def test_generic_becomes_root(self, fig1_dag):
        roots = fig1_dag.roots()
        assert len(roots) == 1
        assert roots[0].representative.name == "SendDigitalStream"

    def test_specific_becomes_leaf(self, fig1_dag):
        leaves = fig1_dag.leaves()
        assert len(leaves) == 1
        assert leaves[0].representative.name == "ProvideGame"

    def test_edge_direction_generic_to_specific(self, fig1_dag):
        root = fig1_dag.roots()[0]
        leaf = fig1_dag.leaves()[0]
        assert leaf.node_id in root.children
        assert root.node_id in leaf.parents

    def test_insertion_order_irrelevant(self, matcher):
        dag = CapabilityDag()
        dag.insert(cap("ProvideGame", [r("GameResource")], [r("Stream")], s("GameServer")), "w", matcher)
        dag.insert(
            cap("SendDigitalStream", [r("DigitalResource")], [r("Stream")], s("DigitalServer")),
            "w",
            matcher,
        )
        assert dag.roots()[0].representative.name == "SendDigitalStream"
        assert dag.leaves()[0].representative.name == "ProvideGame"

    def test_equivalent_capabilities_merge(self, matcher):
        dag = CapabilityDag()
        n1 = dag.insert(cap("A", outputs=[r("Stream")]), "svc1", matcher)
        n2 = dag.insert(cap("B", outputs=[r("Stream")]), "svc2", matcher)
        assert n1 == n2
        assert len(dag) == 1
        assert dag.size == 2

    def test_unrelated_capabilities_are_separate_roots(self, matcher):
        dag = CapabilityDag()
        dag.insert(cap("A", outputs=[r("Stream")]), "s1", matcher)
        dag.insert(cap("B", outputs=[r("Title")]), "s2", matcher)
        assert len(dag.roots()) == 2

    def test_middle_insertion_rewires_reduction(self, matcher):
        """Insert generic, then specific, then the middle one: the direct
        generic→specific edge must be replaced by the two-step chain."""
        dag = CapabilityDag()
        top = dag.insert(cap("Top", outputs=[r("Resource")]), "s", matcher)
        bottom = dag.insert(cap("Bottom", outputs=[r("VideoResource")]), "s", matcher)
        middle = dag.insert(cap("Middle", outputs=[r("DigitalResource")]), "s", matcher)
        nodes = {n.node_id: n for n in dag.nodes()}
        assert nodes[top].children == {middle}
        assert nodes[middle].children == {bottom}
        assert nodes[bottom].parents == {middle}

    def test_ontology_index(self, fig1_dag):
        ontologies = fig1_dag.ontologies()
        assert f"{NS}/resources" in ontologies
        assert f"{NS}/servers" in ontologies


class TestQuery:
    @pytest.fixture()
    def request_video(self):
        return cap("GetVideoStream", [r("VideoResource")], [r("VideoStream")], s("VideoServer"))

    def test_greedy_finds_fig1_match(self, fig1_dag, matcher, request_video):
        hits = fig1_dag.query(request_video, matcher, QueryMode.GREEDY)
        assert hits
        assert hits[0].capability.name == "SendDigitalStream"
        assert hits[0].distance == 3

    def test_exhaustive_agrees_with_greedy_here(self, fig1_dag, matcher, request_video):
        greedy = fig1_dag.query(request_video, matcher, QueryMode.GREEDY)
        exhaustive = fig1_dag.query(request_video, matcher, QueryMode.EXHAUSTIVE)
        assert greedy[0].distance == exhaustive[0].distance

    def test_no_match_returns_empty(self, fig1_dag, matcher):
        hits = fig1_dag.query(cap("X", outputs=[r("Title")]), matcher)
        assert hits == []

    def test_greedy_descends_to_more_specific(self, matcher):
        dag = CapabilityDag()
        dag.insert(cap("Generic", outputs=[r("Resource")], category=s("Server")), "s1", matcher)
        dag.insert(
            cap("Specific", outputs=[r("VideoResource")], category=s("VideoServer")),
            "s2",
            matcher,
        )
        request = cap("Want", outputs=[r("VideoResource")], category=s("VideoServer"))
        hits = dag.query(request, matcher, QueryMode.GREEDY)
        assert hits[0].capability.name == "Specific"
        assert hits[0].distance == 0

    def test_results_sorted_by_distance(self, matcher):
        dag = CapabilityDag()
        dag.insert(cap("Far", outputs=[r("Resource")]), "s1", matcher)
        dag.insert(cap("Near", outputs=[r("DigitalResource")]), "s2", matcher)
        request = cap("Want", outputs=[r("VideoResource")])
        hits = dag.query(request, matcher, QueryMode.EXHAUSTIVE)
        assert [h.capability.name for h in hits] == ["Near", "Far"]
        assert [h.distance for h in hits] == [1, 2]

    def test_query_uses_few_matches(self, matcher):
        """The §3.3 point: greedy querying touches roots + one path, not
        every stored capability."""
        dag = CapabilityDag()
        chain = ["Resource", "DigitalResource", "VideoResource"]
        for i, concept in enumerate(chain):
            dag.insert(cap(f"C{i}", outputs=[r(concept)]), f"s{i}", matcher)
        # Several unrelated roots to pad the graph.
        dag.insert(cap("U1", outputs=[r("Title")]), "u1", matcher)
        before = matcher.stats.capability_matches
        dag.query(cap("Want", outputs=[r("VideoStream")]), matcher, QueryMode.GREEDY)
        used = matcher.stats.capability_matches - before
        assert used <= len(dag.nodes()) + 1


class TestSubsumeePrefilter:
    """Insertion matches only the vertices the newcomer may subsume."""

    @pytest.mark.parametrize("cached", [True, False])
    def test_unrelated_leaves_cost_no_match(self, media_table, cached):
        from repro.core.matching import CodeMatcher
        from repro.util.cache import DistanceCache

        matcher = CodeMatcher(table=media_table, cache=DistanceCache() if cached else None)
        dag = CapabilityDag()
        for name in ("Title", "Stream", "SoundResource", "GameResource"):
            dag.insert(cap(name, outputs=[r(name)]), "pad", matcher)
        assert len(dag.leaves()) == 4
        before = matcher.stats.capability_matches
        video = dag.insert(cap("Video", outputs=[r("VideoResource")]), "new", matcher)
        assert matcher.stats.capability_matches == before
        assert len(dag.leaves()) == 5 and len(dag.roots()) == 5
        # A generic newcomer still finds its subsumees: one match for each
        # leaf whose outputs it covers, none for the others.
        before = matcher.stats.capability_matches
        digital = dag.insert(cap("Digital", outputs=[r("DigitalResource")]), "new", matcher)
        assert matcher.stats.capability_matches - before == 3
        nodes = {node.representative.name: node for node in dag.nodes()}
        assert nodes["Digital"].node_id == digital
        assert {nodes[n].node_id for n in ("SoundResource", "GameResource")} | {video} == (
            nodes["Digital"].children
        )

    def test_matcher_without_sets_matches_every_leaf(self, matcher):
        dag = CapabilityDag()
        for name in ("Title", "Stream", "SoundResource", "GameResource"):
            dag.insert(cap(name, outputs=[r(name)]), "pad", matcher)
        before = matcher.stats.capability_matches
        dag.insert(cap("Video", outputs=[r("VideoResource")]), "new", matcher)
        # Each padding vertex is a root and a leaf: matched once by the
        # top-down and once by the bottom-up search.
        assert matcher.stats.capability_matches - before == 2 * 4


class TestRemoval:
    def test_remove_service_drops_entries(self, fig1_dag):
        removed = fig1_dag.remove_service("urn:x:svc:workstation")
        assert removed == 2
        assert len(fig1_dag) == 0

    def test_remove_one_of_merged_entries_keeps_node(self, matcher):
        dag = CapabilityDag()
        dag.insert(cap("A", outputs=[r("Stream")]), "svc1", matcher)
        dag.insert(cap("B", outputs=[r("Stream")]), "svc2", matcher)
        assert dag.remove_service("svc1") == 1
        assert len(dag) == 1
        assert dag.size == 1

    def test_remove_middle_relinks(self, matcher):
        dag = CapabilityDag()
        dag.insert(cap("Top", outputs=[r("Resource")]), "keep", matcher)
        dag.insert(cap("Middle", outputs=[r("DigitalResource")]), "gone", matcher)
        dag.insert(cap("Bottom", outputs=[r("VideoResource")]), "keep", matcher)
        dag.remove_service("gone")
        nodes = {n.representative.name: n for n in dag.nodes()}
        assert nodes["Top"].children == {nodes["Bottom"].node_id}
        assert nodes["Bottom"].parents == {nodes["Top"].node_id}

    def test_remove_unknown_service_noop(self, fig1_dag):
        before = fig1_dag.to_text()
        assert fig1_dag.remove_service("urn:x:svc:nobody") == 0
        assert fig1_dag.to_text() == before

    def test_merged_vertex_goes_with_its_last_service(self, matcher):
        dag = CapabilityDag()
        dag.insert(cap("A", outputs=[r("Stream")]), "svc1", matcher)
        dag.insert(cap("B", outputs=[r("Stream")]), "svc2", matcher)
        dag.insert(cap("C", outputs=[r("Stream")]), "svc2", matcher)
        dag.insert(cap("D", outputs=[r("Title")]), "svc1", matcher)
        assert dag.remove_service("svc2") == 2
        assert dag.size == 2 and len(dag) == 2
        assert dag.remove_service("svc2") == 0
        assert dag.remove_service("svc1") == 2
        assert len(dag) == 0


class TestDagInvariants:
    """Property tests: the graph stays a transitively-reduced partial order
    consistent with the Match relation, whatever the insertion order."""

    @given(st.permutations(range(6)), st.integers(min_value=0, max_value=30))
    @settings(max_examples=40, deadline=None)
    def test_invariants_random_populations(self, small_workload, order, base):
        matcher = TaxonomyMatcher(small_workload.taxonomy)
        dag = CapabilityDag()
        profiles = [small_workload.make_service(base + i) for i in range(6)]
        for index in order:
            dag.insert(profiles[index].provided[0], profiles[index].uri, matcher)

        nodes = {n.node_id: n for n in dag.nodes()}
        assert dag.size == 6
        # 1. Edges agree with Match (parent substitutes child).
        for node in nodes.values():
            for child_id in node.children:
                child = nodes[child_id]
                assert matcher.match(node.representative, child.representative)
                assert child_id != node.node_id
        # 2. Acyclic.
        seen_stack = []

        def visit(node_id, trail):
            assert node_id not in trail, "cycle"
            for child_id in nodes[node_id].children:
                visit(child_id, trail | {node_id})

        for node in dag.roots():
            visit(node.node_id, set())
        # 3. Roots have no parents; leaves no children; symmetry of links.
        for node in nodes.values():
            for child_id in node.children:
                assert node.node_id in nodes[child_id].parents
            for parent_id in node.parents:
                assert node.node_id in nodes[parent_id].children
        # 4. Completeness: every subsuming pair is connected by a path.
        def reachable(from_id):
            out, stack = set(), [from_id]
            while stack:
                current = stack.pop()
                for child_id in nodes[current].children:
                    if child_id not in out:
                        out.add(child_id)
                        stack.append(child_id)
            return out

        for a in nodes.values():
            reach = reachable(a.node_id)
            for b in nodes.values():
                if a.node_id == b.node_id:
                    continue
                if matcher.match(a.representative, b.representative) and not matcher.match(
                    b.representative, a.representative
                ):
                    assert b.node_id in reach, "missing order path"

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=30, deadline=None)
    def test_greedy_never_worse_than_exhaustive_roots(self, small_workload, base):
        """Greedy explores from matching roots; any hit it returns must be
        a genuine match with correct distance."""
        matcher = TaxonomyMatcher(small_workload.taxonomy)
        dag = CapabilityDag()
        profiles = [small_workload.make_service(base + i) for i in range(8)]
        for profile in profiles:
            dag.insert(profile.provided[0], profile.uri, matcher)
        request = small_workload.matching_request(profiles[0]).capabilities[0]
        for hit in dag.query(request, matcher, QueryMode.GREEDY):
            assert matcher.semantic_distance(hit.capability, request) == hit.distance


class TestMutualMatchMerging:
    """Documented deviation: the paper merges vertices only at mutual
    distance 0; mutual matches at non-zero distance would create a 2-cycle,
    so we merge them too (entries stay separate)."""

    def test_mutual_match_nonzero_distance_exists_and_merges(self, matcher):
        a = cap("A", outputs=[r("DigitalResource")])
        b = cap("B", outputs=[r("DigitalResource"), r("VideoResource")])
        # Mutual match with asymmetric distances:
        assert matcher.match(a, b) and matcher.match(b, a)
        assert matcher.semantic_distance(a, b) == 1
        assert matcher.semantic_distance(b, a) == 0
        dag = CapabilityDag()
        dag.insert(a, "svc-a", matcher)
        dag.insert(b, "svc-b", matcher)
        assert len(dag) == 1  # merged: no 2-cycle
        assert dag.size == 2
        # Both entries are returned on a query hitting the vertex.
        hits = dag.query(cap("W", outputs=[r("DigitalResource")]), matcher)
        assert {h.service_uri for h in hits} == {"svc-a", "svc-b"}


class TestTextRendering:
    def test_hierarchy_rendered(self, fig1_dag):
        text = fig1_dag.to_text()
        lines = text.splitlines()
        assert lines[0].startswith("- SendDigitalStream")
        assert lines[1].startswith("  - ProvideGame")
        assert "urn:x:svc:workstation" in text

    def test_empty_graph(self):
        assert CapabilityDag().to_text() == "(empty graph)"

    def test_shared_child_marked_once(self, matcher):
        """A diamond: the shared bottom vertex prints with a revisit mark."""
        dag = CapabilityDag()
        dag.insert(cap("TopA", outputs=[r("Resource")], category=s("Server")), "a", matcher)
        dag.insert(cap("TopB", outputs=[r("Resource")], category=s("DigitalServer")), "b", matcher)
        dag.insert(
            cap("Bottom", outputs=[r("VideoResource")], category=s("VideoServer")),
            "c",
            matcher,
        )
        text = dag.to_text()
        assert text.count("Bottom") >= 1  # rendered under at least one root


class TestConceptIndex:
    """The concept index (vertices by representative output and property
    concept) through random insert/remove sequences: it stays equal to one
    rebuilt from the surviving vertices, selects what a brute-force
    pairwise code subsumption test over the same vertices selects, and
    changes no answer.  A flat
    directory fed the same sequence keeps the same kind of index over its
    entries, with the same guarantees against its linear scan."""

    FOREIGN = "http://nowhere.org/o#Unencoded"

    @staticmethod
    def _capability(data, pool, near, uri):
        """A random capability, its concepts mostly from ``near`` (a few
        concepts and their relatives) so that capabilities subsume each
        other and the graphs grow edges."""
        fields = {}
        for field, most in (("inputs", 3), ("outputs", 2), ("properties", 2)):
            fields[field] = [
                data.draw(st.sampled_from(near if data.draw(st.integers(0, 3)) else pool))
                for _ in range(data.draw(st.integers(0, most)))
            ]
        return Capability.build(uri, uri.rsplit(":", 1)[-1], **fields)

    @staticmethod
    def _rebuilt(dag):
        outputs: dict[str, set[int]] = {}
        properties: dict[str, set[int]] = {}
        for node in dag.nodes():
            for concept in node.representative.outputs:
                outputs.setdefault(concept, set()).add(node)
            for concept in node.representative.properties:
                properties.setdefault(concept, set()).add(node)
        return outputs, properties

    @staticmethod
    def _covered(table, items, requested):
        """Brute-force candidates: the items whose capability holds, for
        every requested output (property), a provided output (property)
        whose table code subsumes it; ``None`` when nothing is requested
        on either side."""
        if not requested.outputs and not requested.properties:
            return None

        def covers(provided, concept):
            return concept in table and any(
                over in table and table.code(over).subsumes(table.code(concept))
                for over in provided
            )

        return {
            item
            for item, capability in items
            if all(covers(capability.outputs, c) for c in requested.outputs)
            and all(covers(capability.properties, c) for c in requested.properties)
        }

    @staticmethod
    def _shape(dag):
        return [
            (
                node.node_id,
                node.representative.uri,
                sorted(node.parents),
                sorted(node.children),
                [(entry.capability.uri, entry.service_uri) for entry in node.entries],
            )
            for node in dag.nodes()
        ]

    @pytest.mark.parametrize("suite", ["media", "small"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_churn_keeps_index_candidates_and_answers(
        self, suite, data, media_table, media_taxonomy, small_table, small_workload
    ):
        from repro.core.directory import FlatDirectory
        from repro.core.matching import CodeMatcher
        from repro.services.profile import ServiceProfile, ServiceRequest
        from repro.util.cache import DistanceCache

        table, taxonomy = (
            (media_table, media_taxonomy)
            if suite == "media"
            else (small_table, small_workload.taxonomy)
        )
        pool = sorted(c for c in taxonomy.concepts() if c in table)
        anchors = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        near = sorted(
            {
                c
                for anchor in anchors
                for c in taxonomy.ancestors(anchor) | taxonomy.children(anchor) | {anchor}
                if c in table
            }
        )
        stand_in = dataclasses.replace(table.code(pool[0]), uri=self.FOREIGN)
        matchers = {
            "kernel": CodeMatcher(table=table, cache=DistanceCache()),
            "uncached": CodeMatcher(table=table),
            # An embedded code the table lacks: no subsumer maps, full scan.
            "foreign": CodeMatcher(table=table, extra_codes={self.FOREIGN: stand_in}),
        }
        assert matchers["foreign"].subsumers(pool[0]) is None
        dags = {name: CapabilityDag() for name in matchers}
        flat = FlatDirectory(table)
        linear = FlatDirectory(table, use_concept_index=False)
        provided: dict[str, list[Capability]] = {}
        for step in range(data.draw(st.integers(1, 14))):
            service = f"urn:x:svc:{data.draw(st.integers(0, 4))}"
            if data.draw(st.integers(0, 3)) == 0:
                removed = {name: dag.remove_service(service) for name, dag in dags.items()}
                removed["flat"] = flat.unpublish(service)
                removed["linear"] = linear.unpublish(service)
                provided.pop(service, None)
                assert len(set(removed.values())) == 1
            else:
                capability = self._capability(data, pool, near, f"urn:x:cap:C{step}")
                for name, dag in dags.items():
                    dag.insert(capability, service, matchers[name])
                provided.setdefault(service, []).append(capability)
                profile = ServiceProfile(
                    uri=service, name=service, provided=tuple(provided[service])
                )
                flat.publish(profile)
                linear.publish(profile)
        shapes = [self._shape(dag) for dag in dags.values()]
        assert shapes[0] == shapes[1] == shapes[2]
        for dag in dags.values():
            assert (dag._index._by_output, dag._index._by_property) == self._rebuilt(dag)

        entries = [(entry_id, capability) for entry_id, (capability, _s) in flat._entries.items()]
        for number in range(data.draw(st.integers(1, 4))):
            requested = self._capability(data, pool, near, f"urn:x:cap:R{number}")
            for name in ("kernel", "uncached"):
                matcher = matchers[name]
                vertices = [(node, node.representative) for node in dags[name].nodes()]
                assert dags[name].candidates(requested, matcher) == self._covered(
                    table, vertices, requested
                )
                assert flat._index.candidates(requested, matcher) == self._covered(
                    table, entries, requested
                )
            assert dags["foreign"].candidates(requested, matchers["foreign"]) is None
            for mode in QueryMode:
                answers = [
                    dag.query(requested, matchers[name], mode) for name, dag in dags.items()
                ]
                assert answers[0] == answers[1] == answers[2]
            request = ServiceRequest(uri=f"urn:x:req:R{number}", capabilities=(requested,))
            assert flat.query(request) == linear.query(request)
        assert (
            matchers["kernel"].stats.capability_matches
            == matchers["uncached"].stats.capability_matches
        )

    def test_no_outputs_or_properties_means_no_filtering(self, small_workload, small_table):
        from repro.core.capability_graph import ConceptIndex
        from repro.core.matching import CodeMatcher

        capability = small_workload.make_service(0).provided[0]
        index = ConceptIndex()
        index.add(1, capability)
        bare = capability.build(uri="urn:repro:req", name="bare", inputs=["urn:x#i"])
        assert index.candidates(bare, CodeMatcher(table=small_table)) is None

    def test_unknown_requested_concept_yields_empty(self, small_workload, small_table):
        from repro.core.capability_graph import ConceptIndex
        from repro.core.matching import CodeMatcher

        capability = small_workload.make_service(0).provided[0]
        index = ConceptIndex()
        index.add(1, capability)
        alien = capability.build(
            uri="urn:repro:req", name="alien", outputs=["http://nowhere.example#Thing"]
        )
        assert index.candidates(alien, CodeMatcher(table=small_table)) == set()

    def test_unresolvable_provider_left_to_the_full_scan(self, small_workload, small_table):
        """A capability whose concepts the table lacks can match only
        through codes a document embeds; a matcher holding such codes gives
        no subsumer maps, so the index never filters it out."""
        from repro.core.capability_graph import ConceptIndex
        from repro.core.matching import CodeMatcher

        known = small_workload.make_service(0).provided[0]
        index = ConceptIndex()
        index.add(1, known)
        opaque_output = "http://elsewhere.example#Out"
        opaque = known.build(uri="urn:repro:opaque", name="opaque", outputs=[opaque_output])
        index.add(2, opaque)
        requested = known.build(uri="urn:repro:req", name="req", outputs=[opaque_output])
        stand_in = dataclasses.replace(
            small_table.code(sorted(known.outputs)[0]), uri=opaque_output
        )
        embedded = CodeMatcher(table=small_table, extra_codes={opaque_output: stand_in})
        assert index.candidates(requested, embedded) is None
        assert index.candidates(requested, CodeMatcher(table=small_table)) == set()

    def test_candidates_superset_of_matches(self, small_workload, small_table):
        """Soundness: every capability the matcher accepts is a candidate."""
        from repro.core.capability_graph import ConceptIndex
        from repro.core.matching import CodeMatcher

        matcher = CodeMatcher(table=small_table)
        index = ConceptIndex()
        capabilities = {}
        for i in range(40):
            for capability in small_workload.make_service(i).provided:
                item_id = len(capabilities)
                capabilities[item_id] = capability
                index.add(item_id, capability)
        for probe in range(8):
            request = small_workload.matching_request(small_workload.make_service(probe))
            for requested in request.capabilities:
                candidates = index.candidates(requested, matcher)
                accepted = {
                    item_id
                    for item_id, capability in capabilities.items()
                    if matcher.match(capability, requested)
                }
                assert candidates is not None and accepted <= candidates
                assert accepted

    def test_descend_span_reports_candidates(self, media_table):
        from repro.core.matching import CodeMatcher
        from repro.obs import Observability, RingBufferSink

        matcher = CodeMatcher(table=media_table)
        dag = CapabilityDag()
        dag.insert(cap("Digital", outputs=[r("DigitalResource")]), "svc-a", matcher)
        dag.insert(cap("Video", outputs=[r("VideoResource")]), "svc-b", matcher)
        dag.insert(cap("Server", outputs=[s("DigitalServer")]), "svc-c", matcher)
        sink = RingBufferSink()
        dag.obs = Observability(sinks=[sink])
        hits = dag.query(cap("Want", outputs=[r("VideoResource")]), matcher)
        # The server vertex cannot cover a resource output: not a candidate.
        assert [(hit.service_uri, hit.distance) for hit in hits] == [("svc-b", 0), ("svc-a", 1)]
        (span,) = [span for span in sink.spans if span.name == "dag.descend"]
        assert span.attrs["vertices"] == 3
        assert span.attrs["candidates"] == 2
        assert span.attrs["hits"] == 2
