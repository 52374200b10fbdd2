"""Tests for the semantic directory (§3.3) and the flat baseline (Fig. 9)."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codes import CodeTable, StaleCodesError
from repro.core.directory import FlatDirectory, SemanticDirectory
from repro.core.capability_graph import QueryMode
from repro.core.matching import CodeMatcher
from repro.ontology.model import Ontology
from repro.ontology.registry import OntologyRegistry
from repro.services.profile import Capability, ServiceProfile, ServiceRequest
from repro.services.xml_codec import ServiceSyntaxError, profile_to_xml, request_to_xml

NS = "http://repro.example.org/media"


def r(name: str) -> str:
    return f"{NS}/resources#{name}"


def s(name: str) -> str:
    return f"{NS}/servers#{name}"


def workstation() -> ServiceProfile:
    send = Capability.build(
        "urn:x:cap:SendDigitalStream",
        "SendDigitalStream",
        inputs=[r("DigitalResource")],
        outputs=[r("Stream")],
        category=s("DigitalServer"),
        includes=("urn:x:cap:ProvideGame",),
    )
    game = Capability.build(
        "urn:x:cap:ProvideGame",
        "ProvideGame",
        inputs=[r("GameResource")],
        outputs=[r("Stream")],
        category=s("GameServer"),
    )
    return ServiceProfile(uri="urn:x:svc:workstation", name="Workstation", provided=(send, game))


def video_request() -> ServiceRequest:
    capability = Capability.build(
        "urn:x:cap:GetVideoStream",
        "GetVideoStream",
        inputs=[r("VideoResource")],
        outputs=[r("VideoStream")],
        category=s("VideoServer"),
    )
    return ServiceRequest(uri="urn:x:req:video", capabilities=(capability,))


class TestPublish:
    def test_publish_and_counts(self, media_table):
        directory = SemanticDirectory(media_table)
        directory.publish(workstation())
        assert len(directory) == 1
        assert directory.capability_count == 2
        assert directory.graph_count >= 1

    def test_publish_xml_roundtrip(self, media_table):
        directory = SemanticDirectory(media_table)
        profile = workstation()
        doc = profile_to_xml(
            profile,
            annotations=media_table.annotate(profile.provided),
            codes_version=media_table.version,
        )
        restored = directory.publish_xml(doc)
        assert restored.uri == profile.uri
        assert directory.capability_count == 2

    def test_stale_codes_rejected(self, media_table):
        directory = SemanticDirectory(media_table)
        profile = workstation()
        doc = profile_to_xml(
            profile,
            annotations=media_table.annotate(profile.provided),
            codes_version=media_table.version + 5,
        )
        with pytest.raises(StaleCodesError):
            directory.publish_xml(doc)

    def test_republish_replaces(self, media_table):
        directory = SemanticDirectory(media_table)
        directory.publish(workstation())
        directory.publish(workstation())
        assert len(directory) == 1
        assert directory.capability_count == 2

    def test_malformed_document(self, media_table):
        with pytest.raises(ServiceSyntaxError):
            SemanticDirectory(media_table).publish_xml("<nope>")


class TestQuery:
    def test_fig1_scenario(self, media_table):
        """The PDA's GetVideoStream should select SendDigitalStream (which
        includes GetVideoStream's functionality) at distance 3."""
        directory = SemanticDirectory(media_table)
        directory.publish(workstation())
        matches = directory.query(video_request())
        assert matches
        assert matches[0].capability.name == "SendDigitalStream"
        assert matches[0].distance == 3
        assert matches[0].service_uri == "urn:x:svc:workstation"

    def test_query_xml(self, media_table):
        directory = SemanticDirectory(media_table)
        directory.publish(workstation())
        request = video_request()
        doc = request_to_xml(
            request,
            annotations=media_table.annotate(request.capabilities),
            codes_version=media_table.version,
        )
        matches = directory.query_xml(doc)
        assert matches and matches[0].distance == 3

    def test_graph_preselection_filters_foreign_ontologies(self, media_table):
        """The paper's DAG2/O3 example: graphs sharing no ontology with the
        request are never searched, whether the concept index answers (no
        code, no candidate) or the request's embedded codes leave the
        directory without subsumer maps."""
        directory = SemanticDirectory(media_table)
        directory.publish(workstation())
        thing = "http://elsewhere.org/onto#Thing2"
        foreign = Capability.build("urn:x:req:foreign", "F", outputs=[thing])
        request = ServiceRequest(uri="urn:x:req:f", capabilities=(foreign,))
        embedded = {thing: dataclasses.replace(media_table.code(r("Stream")), uri=thing)}
        before = directory.stats.capability_matches
        assert directory.query(request) == []
        assert directory.query(request, embedded) == []
        assert directory.stats.capability_matches == before

    def test_empty_directory(self, media_table):
        assert SemanticDirectory(media_table).query(video_request()) == []

    def test_exhaustive_mode(self, media_table):
        directory = SemanticDirectory(media_table, query_mode=QueryMode.EXHAUSTIVE)
        directory.publish(workstation())
        matches = directory.query(video_request())
        assert matches[0].distance == 3

    def test_best_match_ranked_first(self, media_table):
        directory = SemanticDirectory(media_table)
        directory.publish(workstation())
        exact = ServiceProfile(
            uri="urn:x:svc:videoserver",
            name="VideoServer",
            provided=(
                Capability.build(
                    "urn:x:cap:GetVideoStreamImpl",
                    "GetVideoStreamImpl",
                    inputs=[r("VideoResource")],
                    outputs=[r("VideoStream")],
                    category=s("VideoServer")),
            ),
        )
        directory.publish(exact)
        matches = directory.query(video_request())
        assert matches[0].service_uri == "urn:x:svc:videoserver"
        assert matches[0].distance == 0


class TestUnpublish:
    def test_unpublish_removes(self, media_table):
        directory = SemanticDirectory(media_table)
        directory.publish(workstation())
        removed = directory.unpublish("urn:x:svc:workstation")
        assert removed == 2
        assert directory.query(video_request()) == []
        assert directory.graph_count == 0

    def test_unpublish_unknown(self, media_table):
        assert SemanticDirectory(media_table).unpublish("urn:x:svc:none") == 0

    def test_summary_rebuilt_after_unpublish(self, media_table):
        directory = SemanticDirectory(media_table)
        directory.publish(workstation())
        directory.unpublish("urn:x:svc:workstation")
        assert not directory.summary.might_answer(video_request())


class TestFlatDirectory:
    def test_same_answers_as_classified(self, media_table):
        classified = SemanticDirectory(media_table)
        flat = FlatDirectory(media_table)
        classified.publish(workstation())
        flat.publish(workstation())
        c = classified.query(video_request())
        f = flat.query(video_request())
        assert c[0].distance == f[0].distance == 3
        assert c[0].service_uri == f[0].service_uri

    def test_flat_matches_all_capabilities(self, small_workload, small_table):
        """Fig. 9's point: the flat baseline's match count scales with the
        directory size, the classified one's does not."""
        from repro.core.matching import CodeMatcher

        flat = FlatDirectory(small_table)
        classified = SemanticDirectory(small_table)
        services = small_workload.make_services(30)
        for profile in services:
            flat.publish(profile)
            classified.publish(profile)
        request = small_workload.matching_request(services[5])

        flat_hits = flat.query(request)
        classified_hits = classified.query(request)
        assert {h.service_uri for h in classified_hits} <= {
            h.service_uri for h in flat_hits
        } or classified_hits[0].distance == flat_hits[0].distance
        # Best answer is the same.
        assert classified_hits[0].distance == flat_hits[0].distance

    def test_unpublish(self, media_table):
        flat = FlatDirectory(media_table)
        flat.publish(workstation())
        assert flat.unpublish("urn:x:svc:workstation") == 2
        assert flat.capability_count == 0

    def test_publish_xml(self, media_table):
        flat = FlatDirectory(media_table)
        profile = workstation()
        flat.publish_xml(profile_to_xml(profile))
        assert len(flat) == 1


def _rows(matches) -> list[tuple[str, str, int]]:
    """Ranked rows *in order*: directory equality is bit-identical."""
    return [(m.service_uri, m.capability.uri, m.distance) for m in matches]


def _pair(table, profiles=()):
    """A kernel-path and a linear-scan flat directory holding ``profiles``."""
    kernel = FlatDirectory(table)
    linear = FlatDirectory(table, use_concept_index=False)
    kernel.publish_batch(profiles)
    linear.publish_batch(profiles)
    return kernel, linear


def _one_each(capabilities) -> list[ServiceProfile]:
    """One single-capability service per capability."""
    return [
        ServiceProfile(uri=f"urn:x:svc:{i}", name=f"svc{i}", provided=(capability,))
        for i, capability in enumerate(capabilities)
    ]


class TestFlatKernelEqualsLinear:
    """``FlatDirectory``'s default path (concept-index preselection, then
    the subsumer-map kernel) answers exactly like the Fig. 9 linear scan
    with the scalar matcher."""

    def test_batch_query_equals_linear(self, small_workload, small_table):
        batched = FlatDirectory(small_table)
        linear = FlatDirectory(small_table, use_concept_index=False)
        profiles = [small_workload.make_service(i) for i in range(25)]
        batched.publish_batch(profiles)
        linear.publish_batch(profiles)

        def canon(matches):
            return [
                (m.requested.uri, m.capability.uri, m.service_uri, m.distance)
                for m in matches
            ]

        for probe in range(8):
            request = small_workload.matching_request(profiles[probe])
            assert canon(batched.query(request)) == canon(linear.query(request))

    def test_workload_requests(self, small_workload, small_table):
        kernel, linear = _pair(small_table, small_workload.make_services(60))
        for probe in range(25):
            request = small_workload.matching_request(small_workload.make_service(probe))
            assert kernel.query(request) == linear.query(request)

    def test_unrelated_requests(self, small_workload, small_table):
        kernel, linear = _pair(
            small_table, _one_each(small_workload.make_service(i).provided[0] for i in range(30))
        )
        for probe in range(10):
            request = small_workload.unrelated_request(probe)
            assert kernel.query(request) == linear.query(request)

    def test_unknown_requested_output_matches_nothing(self, small_workload, small_table):
        kernel, linear = _pair(small_table, [small_workload.make_service(0)])
        alien = Capability.build(
            uri="urn:x:alien", name="alien", outputs=["http://nowhere.example#Out"]
        )
        request = ServiceRequest(uri="urn:x:req:alien", capabilities=(alien,))
        assert kernel.query(request) == [] == linear.query(request)
        assert kernel.stats.capability_matches == 0  # preselection left nothing

    def test_empty_directory(self, small_table):
        kernel, linear = _pair(small_table)
        requested = Capability.build(uri="urn:x:r", name="r", outputs=["urn:x#o"])
        request = ServiceRequest(uri="urn:x:req:r", capabilities=(requested,))
        assert kernel.query(request) == [] == linear.query(request)

    def test_selective_query_scores_fewer_than_every_entry(self, small_workload, small_table):
        profiles = small_workload.make_services(30)
        kernel, linear = _pair(small_table, profiles)
        request = ServiceRequest(
            uri="urn:x:req:one",
            capabilities=small_workload.matching_request(profiles[0]).capabilities[:1],
        )
        assert kernel.query(request) == linear.query(request) != []
        assert linear.stats.capability_matches == linear.capability_count
        assert kernel.stats.capability_matches < kernel.capability_count

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_capabilities_match_scalar(self, small_workload, small_table, data):
        """Random IOPE sets from the real concept pool, alien concepts and
        empty sets included."""
        pool = sorted({c for onto in small_workload.ontologies for c in onto.concepts})
        concept = st.sampled_from(pool + ["http://nowhere.example#Alien"])
        concept_set = st.lists(concept, min_size=0, max_size=4)

        def build(i: int) -> Capability:
            return Capability.build(
                uri=f"urn:x:h:{i}",
                name=f"h{i}",
                inputs=data.draw(concept_set, label=f"inputs{i}"),
                outputs=data.draw(concept_set, label=f"outputs{i}"),
                properties=data.draw(concept_set, label=f"properties{i}"),
            )

        n_entries = data.draw(st.integers(min_value=0, max_value=8), label="n")
        kernel, linear = _pair(small_table, _one_each(build(i) for i in range(n_entries)))
        request = ServiceRequest(uri="urn:x:req:h", capabilities=(build(999),))
        assert kernel.query(request) == linear.query(request)


class TestIndexedFlatDirectoryEquality:
    @pytest.mark.parametrize("seed", [0, 7, 21, 1234])
    def test_indexed_equals_linear_across_seeds(self, small_workload, small_table, seed):
        """The headline property: FlatDirectory with the concept index
        returns exactly the linear scan's result set."""
        from repro.services.generator import ServiceWorkload

        workload = ServiceWorkload(shape=small_workload.shape, seed=seed)
        profiles = [workload.make_service(i) for i in range(30)]
        indexed, linear = _pair(small_table, profiles)

        def canon(matches):
            return sorted(
                (m.requested.uri, m.capability.uri, m.service_uri, m.distance)
                for m in matches
            )

        for probe in range(10):
            request = workload.matching_request(workload.make_service(probe))
            assert canon(indexed.query(request)) == canon(linear.query(request))

    def test_equality_survives_churn(self, small_workload, small_table):
        profiles = [small_workload.make_service(i) for i in range(20)]
        indexed, linear = _pair(small_table, profiles)
        for directory in (linear, indexed):
            for victim in profiles[::3]:
                directory.unpublish(victim.uri)
        request = small_workload.matching_request(profiles[1])

        def canon(matches):
            return sorted(
                (m.requested.uri, m.capability.uri, m.service_uri, m.distance)
                for m in matches
            )

        assert canon(indexed.query(request)) == canon(linear.query(request))


#: A concept no code table holds: embedding a code for it leaves the
#: directory's matcher without subsumer maps.
FOREIGN = "http://nowhere.org/o#Unencoded"


def _request_rows(matches) -> list[tuple[str, str, str, int]]:
    """Ranked rows with their requested capability, as :func:`_per_graph_rows`
    gives them."""
    return [(m.requested.uri, m.service_uri, m.capability.uri, m.distance) for m in matches]


class _NoMaps(CodeMatcher):
    """A table matcher that hands out no subsumer maps: every graph it
    queries scans all of its vertices."""

    def subsumers(self, concept):
        return None


def _per_graph_rows(directory, request, mode, shared_only):
    """The per-graph algorithm the one-probe search replaced, as an oracle.

    For each requested capability: the graphs (only those sharing an
    ontology with it when ``shared_only``) keyed by exactly its ontologies
    first, then by decreasing overlap, then in creation order; each graph
    queried on its own over all its vertices; in greedy mode, no graph
    after the first whose hits so far include a perfect match.
    """
    matcher = _NoMaps(table=directory.table)
    rows = []
    for requested in request.capabilities:
        wanted = requested.ontologies()
        graphs = [
            (key, graph)
            for key, graph in directory.graphs().items()
            if key & wanted or not shared_only
        ]
        graphs.sort(key=lambda item: (item[0] != wanted, -len(item[0] & wanted)))
        hits = []
        for _key, graph in graphs:
            hits.extend(graph.query(requested, matcher, mode))
            if mode is QueryMode.GREEDY and any(hit.distance == 0 for hit in hits):
                break
        hits.sort(key=lambda m: (m.distance, m.service_uri, m.capability.uri))
        rows.extend((requested.uri, m.service_uri, m.capability.uri, m.distance) for m in hits)
    return rows


class TestOneProbeEqualsPerGraph:
    """``SemanticDirectory`` answers each requested capability with one
    probe of its directory-wide concept index and one search over the
    graphs holding candidates.  Through random publish/withdraw churn its
    rows equal the per-graph algorithm's, in both query modes.  Subsumer
    maps are exact across ontologies (``owl:Thing`` subsumes every
    concept), so on the concept-index path every graph is a candidate;
    without maps (a foreign embedded code, or a request naming neither
    outputs nor properties) only the graphs sharing an ontology with the
    request are, as in the paper's DAG2/O3 example."""

    FOREIGN = "http://nowhere.org/o#Unencoded"

    @staticmethod
    def _capability(data, pool, near, uri):
        fields = {}
        for field, most in (("inputs", 2), ("outputs", 2), ("properties", 2)):
            fields[field] = [
                data.draw(st.sampled_from(near if data.draw(st.integers(0, 3)) else pool))
                for _ in range(data.draw(st.integers(0, most)))
            ]
        return Capability.build(uri, uri.rsplit(":", 1)[-1], **fields)

    @pytest.mark.parametrize("suite", ["media", "small"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_churn_rows_equal_per_graph_oracle(
        self, suite, data, media_table, media_taxonomy, small_table, small_workload
    ):
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
        directories = {mode: SemanticDirectory(table, query_mode=mode) for mode in QueryMode}
        published: list[Capability] = []
        for step in range(data.draw(st.integers(1, 16))):
            service = f"urn:x:svc:{data.draw(st.integers(0, 5))}"
            if data.draw(st.integers(0, 3)) == 0:
                for directory in directories.values():
                    directory.unpublish(service)
                continue
            provided = tuple(
                self._capability(data, pool, near, f"urn:x:cap:C{step}.{number}")
                for number in range(data.draw(st.integers(1, 2)))
            )
            published.extend(provided)
            profile = ServiceProfile(uri=service, name=service, provided=provided)
            for directory in directories.values():
                directory.publish(profile)
        stand_in = dataclasses.replace(table.code(pool[0]), uri=self.FOREIGN)
        for number in range(data.draw(st.integers(1, 4))):
            if published and data.draw(st.booleans()):
                # An advertised capability, offered extra inputs, asks for a
                # perfect match; the extra inputs' ontologies can move it
                # out of the graph keyed by exactly the request's ones.
                advertised = data.draw(st.sampled_from(published))
                extra = data.draw(st.lists(st.sampled_from(pool), max_size=2))
                requested = Capability.build(
                    f"urn:x:cap:R{number}",
                    f"R{number}",
                    inputs=sorted(advertised.inputs | set(extra)),
                    outputs=sorted(advertised.outputs),
                    properties=sorted(advertised.properties),
                )
            else:
                requested = self._capability(data, pool, near, f"urn:x:cap:R{number}")
            request = ServiceRequest(uri=f"urn:x:req:R{number}", capabilities=(requested,))
            for mode, directory in directories.items():

                def rows(matches):
                    return [
                        (m.requested.uri, m.service_uri, m.capability.uri, m.distance)
                        for m in matches
                    ]

                no_maps = not (requested.outputs or requested.properties)
                assert rows(directory.query(request)) == _per_graph_rows(
                    directory, request, mode, shared_only=no_maps
                )
                assert rows(directory.query(request, {self.FOREIGN: stand_in})) == (
                    _per_graph_rows(directory, request, mode, shared_only=True)
                )


TRI = "http://repro.example.org/tri"
#: The levels of each of the three ``TRI`` ontologies, most generic first.
LEVELS = ("Top", "Mid", "Leaf")


def t(ontology: str, name: str) -> str:
    return f"{TRI}/{ontology}#{name}"


@pytest.fixture(scope="module")
def tri_table():
    """Three ontologies ``a``, ``b``, ``c``, each ``Top > Mid > Leaf`` plus
    ``Top > Other``: enough to key three graphs that one request visits
    in turn (exact key, then overlap 2, then overlap 1)."""
    ontologies = []
    for name in "abc":
        ontology = Ontology(uri=f"{TRI}/{name}", version="1")
        ontology.concept(t(name, "Top"))
        ontology.concept(t(name, "Mid"), parents=(t(name, "Top"),))
        ontology.concept(t(name, "Leaf"), parents=(t(name, "Mid"),))
        ontology.concept(t(name, "Other"), parents=(t(name, "Top"),))
        ontology.validate()
        ontologies.append(ontology)
    return CodeTable(OntologyRegistry(ontologies))


def _tri_request() -> ServiceRequest:
    """Inputs ``a``/``b``/``c`` leaves, output the ``a`` leaf: graphs keyed
    ``{a, b, c}``, ``{a, b}`` and ``{a}`` are visited in that order."""
    requested = Capability.build(
        "urn:x:cap:Want",
        "Want",
        inputs=[t("a", "Leaf"), t("b", "Leaf"), t("c", "Leaf")],
        outputs=[t("a", "Leaf")],
    )
    return ServiceRequest(uri="urn:x:req:want", capabilities=(requested,))


def _tri_service(ontologies: str, output: str) -> ServiceProfile:
    """One capability taking the leaves of ``ontologies`` and giving the
    ``a`` concept ``output``; its graph is keyed by ``ontologies``."""
    capability = Capability.build(
        f"urn:x:cap:{ontologies}",
        ontologies,
        inputs=[t(name, "Leaf") for name in ontologies],
        outputs=[t("a", output)],
    )
    return ServiceProfile(uri=f"urn:x:svc:{ontologies}", name=ontologies, provided=(capability,))


class TestOneScoringPass:
    """``SemanticDirectory`` scores the candidates of every graph in one
    pass, records the hits the paper's per-graph greedy search records,
    and keeps the graphs visited up to the first perfect hit."""

    @staticmethod
    def _chain(media_table, mode):
        """A directory over one graph ``Generic -> Digital -> Video``, each
        vertex more specific than its parent."""
        directory = SemanticDirectory(media_table, query_mode=mode)
        for name, given, gives in (
            ("Generic", "Resource", "Stream"),
            ("Digital", "DigitalResource", "Stream"),
            ("Video", "VideoResource", "VideoStream"),
        ):
            capability = Capability.build(
                f"urn:x:cap:{name}", name, inputs=[r(given)], outputs=[r(gives)]
            )
            directory.publish(
                ServiceProfile(uri=f"urn:x:svc:{name}", name=name, provided=(capability,))
            )
        (graph,) = directory.graphs().values()
        assert [root.representative.name for root in graph.roots()] == ["Generic"]
        assert [leaf.representative.name for leaf in graph.leaves()] == ["Video"]
        return directory

    @staticmethod
    def _video() -> ServiceRequest:
        requested = Capability.build(
            "urn:x:cap:Video", "Video", inputs=[r("VideoResource")], outputs=[r("VideoStream")]
        )
        return ServiceRequest(uri="urn:x:req:video", capabilities=(requested,))

    @pytest.mark.parametrize(
        "mode, expected",
        [
            (QueryMode.GREEDY, [("Video", 0), ("Generic", 3)]),
            (QueryMode.EXHAUSTIVE, [("Video", 0), ("Digital", 2), ("Generic", 3)]),
        ],
    )
    def test_greedy_reports_matched_root_and_descent_end(self, media_table, mode, expected):
        """Greedy: the root matches at distance 3 and its descent ends on
        the perfect leaf; both are hits, the vertex passed through is not.
        Exhaustive: every vertex is."""
        directory = self._chain(media_table, mode)
        assert _rows(directory.query(self._video())) == [
            (f"urn:x:svc:{name}", f"urn:x:cap:{name}", distance) for name, distance in expected
        ]

    def test_descent_runs_no_match_on_children_outside_the_candidates(self, media_table):
        """A ``Stream`` from a ``VideoResource``: the root matches and
        descends to ``Digital``; ``Video`` cannot match, is no candidate,
        and costs no semantic match."""
        directory = self._chain(media_table, QueryMode.GREEDY)
        requested = Capability.build(
            "urn:x:cap:Any", "Any", inputs=[r("VideoResource")], outputs=[r("Stream")]
        )
        before = directory.stats.capability_matches
        rows = directory.query(ServiceRequest(uri="urn:x:req:any", capabilities=(requested,)))
        assert _rows(rows) == [
            ("urn:x:svc:Digital", "urn:x:cap:Digital", 1),
            ("urn:x:svc:Generic", "urn:x:cap:Generic", 2),
        ]
        assert directory.stats.capability_matches - before == 2

    @staticmethod
    def _tri_directory(tri_table, mode, outputs):
        """Services keyed ``{a}``, ``{a, b}``, ``{a, b, c}`` published in
        that order, the reverse of the request's visit order."""
        directory = SemanticDirectory(tri_table, query_mode=mode)
        for ontologies in ("a", "ab", "abc"):
            directory.publish(_tri_service(ontologies, outputs[ontologies]))
        assert directory.graph_count == 3
        return directory

    def test_perfect_match_in_second_graph_keeps_first_drops_third(self, tri_table):
        outputs = {"abc": "Mid", "ab": "Leaf", "a": "Leaf"}
        greedy = self._tri_directory(tri_table, QueryMode.GREEDY, outputs)
        assert _rows(greedy.query(_tri_request())) == [
            ("urn:x:svc:ab", "urn:x:cap:ab", 0),
            ("urn:x:svc:abc", "urn:x:cap:abc", 1),
        ]
        exhaustive = self._tri_directory(tri_table, QueryMode.EXHAUSTIVE, outputs)
        assert _rows(exhaustive.query(_tri_request())) == [
            ("urn:x:svc:a", "urn:x:cap:a", 0),
            ("urn:x:svc:ab", "urn:x:cap:ab", 0),
            ("urn:x:svc:abc", "urn:x:cap:abc", 1),
        ]

    def test_descend_span_counts_every_graph_scored(self, tri_table):
        """``graphs`` counts the graphs holding candidates, all scored in
        the one pass, including the one whose hits the cutoff drops."""
        from repro.obs import Observability, RingBufferSink

        outputs = {"abc": "Mid", "ab": "Leaf", "a": "Leaf"}
        directory = self._tri_directory(tri_table, QueryMode.GREEDY, outputs)
        sink = RingBufferSink()
        directory.obs = Observability(sinks=[sink])
        directory.query(_tri_request())
        (span,) = [span for span in sink.spans if span.name == "dag.descend"]
        assert (span.attrs["candidates"], span.attrs["graphs"], span.attrs["hits"]) == (3, 3, 2)

    def test_perfect_match_in_first_graph_drops_the_rest(self, tri_table):
        outputs = {"abc": "Leaf", "ab": "Mid", "a": "Leaf"}
        greedy = self._tri_directory(tri_table, QueryMode.GREEDY, outputs)
        assert _rows(greedy.query(_tri_request())) == [("urn:x:svc:abc", "urn:x:cap:abc", 0)]

    #: Input ontology sets of the perfect substitutes, one per graph key
    #: (the ``a`` output puts ``a`` in every key).
    SUBSETS = ("a", "ab", "ac", "abc", "b", "c", "bc")

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_per_graph_oracle_with_edges_and_perfects(self, data, tri_table):
        """Perfect substitutes in two to four graphs, a more generic
        capability above some of them (a graph edge), and random
        capabilities: in both modes, through the concept index and
        through the foreign-code fallback, the rows equal those of
        :meth:`CapabilityDag.query` run graph by graph in visit order
        (``_per_graph_rows``)."""
        pool = [t(name, level) for name in "abc" for level in (*LEVELS, "Other")]

        def raised(concept: str) -> str:
            ontology, level = concept.rsplit("/", 1)[-1].split("#")
            return t(ontology, LEVELS[max(0, LEVELS.index(level) - 1)])

        extra = data.draw(st.lists(st.sampled_from(pool), max_size=2), label="extra")
        output = t("a", data.draw(st.sampled_from(LEVELS[1:]), label="output"))
        properties = data.draw(
            st.sampled_from([[], [t("c", "Leaf")], [t("b", "Mid")]]), label="properties"
        )
        requested = Capability.build(
            "urn:x:cap:R",
            "R",
            inputs=[t("a", "Leaf"), t("b", "Leaf"), t("c", "Leaf"), *extra],
            outputs=[output],
            properties=properties,
        )
        keyed = {"a"} | {concept.rsplit("/", 1)[-1][0] for concept in properties}
        subsets = data.draw(
            st.lists(
                st.sampled_from(self.SUBSETS),
                min_size=2,
                max_size=4,
                unique_by=lambda subset: frozenset(subset) | keyed,
            ),
            label="subsets",
        )
        provided = []
        for number, subset in enumerate(subsets):
            inputs = [t(name, "Leaf") for name in subset]
            provided.append(
                Capability.build(
                    f"urn:x:cap:P{number}",
                    f"P{number}",
                    inputs=inputs,
                    outputs=[output],
                    properties=properties,
                )
            )
            if number == 0 or data.draw(st.booleans(), label=f"generic{number}"):
                provided.append(
                    Capability.build(
                        f"urn:x:cap:G{number}",
                        f"G{number}",
                        inputs=[raised(concept) for concept in inputs],
                        outputs=[raised(output)],
                        properties=[raised(concept) for concept in properties],
                    )
                )
        concepts = st.lists(st.sampled_from(pool), max_size=2)
        for number in range(data.draw(st.integers(0, 6), label="random")):
            provided.append(
                Capability.build(
                    f"urn:x:cap:X{number}",
                    f"X{number}",
                    inputs=data.draw(concepts),
                    outputs=data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2)),
                    properties=data.draw(concepts),
                )
            )
        order = data.draw(st.permutations(provided), label="order")
        request = ServiceRequest(uri="urn:x:req:R", capabilities=(requested,))
        stand_in = dataclasses.replace(tri_table.code(t("a", "Top")), uri=FOREIGN)
        for mode in QueryMode:
            directory = SemanticDirectory(tri_table, query_mode=mode)
            for capability in order:
                directory.publish(
                    ServiceProfile(
                        uri=f"urn:x:svc:{capability.name}",
                        name=capability.name,
                        provided=(capability,),
                    )
                )
            graphs = directory.graphs().values()
            assert any(node.children for graph in graphs for node in graph.nodes())
            perfect_graphs = {
                node.graph()
                for graph in graphs
                for node in graph.nodes()
                for entry in node.entries
                if entry.capability.name.startswith("P")
            }
            assert len(perfect_graphs) == len(subsets) >= 2
            assert _request_rows(directory.query(request)) == _per_graph_rows(
                directory, request, mode, shared_only=False
            )
            assert _request_rows(directory.query(request, {FOREIGN: stand_in})) == (
                _per_graph_rows(directory, request, mode, shared_only=True)
            )


class TestEngineCacheCoherence:
    """The kernel path's concept index and distance cache outlive single
    queries: a publish or an unpublish storm must reach them, so a query
    never sees stale rows."""

    def test_unpublish_storm_never_serves_stale_rows(self, small_workload, small_table):
        directory = FlatDirectory(small_table)
        profiles = small_workload.make_services(30)
        for profile in profiles:
            directory.publish(profile)
        request = small_workload.matching_request(profiles[0])
        directory.query(request)  # warm the distance cache
        keep = profiles[0].uri
        for profile in profiles:
            if profile.uri != keep:
                directory.unpublish(profile.uri)
        survivors = {row[0] for row in _rows(directory.query(request))}
        assert survivors <= {keep}, f"stale rows served: {survivors}"

    def test_publish_after_warm_query_is_visible(self, small_workload, small_table):
        directory = FlatDirectory(small_table)
        late = small_workload.make_service(7)
        request = small_workload.matching_request(late)
        for profile in small_workload.iter_services(5):
            directory.publish(profile)
        directory.query(request)  # warm without `late` published
        directory.publish(late)
        assert late.uri in {row[0] for row in _rows(directory.query(request))}

    @settings(max_examples=25, deadline=None)
    @given(ops=st.lists(st.tuples(st.booleans(), st.integers(0, 11)), max_size=14))
    def test_interleaved_churn_equals_scalar_rebuild(
        self, small_workload, small_table, ops
    ):
        """Any publish/unpublish interleaving: the kernel path answers
        exactly like a scalar directory fed the same ops, with a query
        (cache warm) forced between every mutation."""
        cached = FlatDirectory(small_table)
        scalar = FlatDirectory(small_table, use_concept_index=False)
        request = small_workload.matching_request(small_workload.make_service(0))
        for is_publish, index in ops:
            profile = small_workload.make_service(index)
            if is_publish:
                cached.publish(profile)
                scalar.publish(profile)
            else:
                cached.unpublish(profile.uri)
                scalar.unpublish(profile.uri)
            assert _rows(cached.query(request)) == _rows(scalar.query(request))


class TestWorkloadScale:
    def test_all_derived_requests_resolved(self, small_workload, small_table):
        """Every matching_request must find its advertiser (§5 recall)."""
        directory = SemanticDirectory(small_table)
        services = small_workload.make_services(40)
        for profile in services:
            directory.publish(profile)
        missing = []
        for profile in services:
            request = small_workload.matching_request(profile)
            matches = directory.query(request)
            if not any(m.service_uri == profile.uri for m in matches):
                missing.append(profile.uri)
        assert not missing, missing


class TestStateSnapshot:
    """Directory persistence: export/import with codes, no reasoner on the
    importing side (the Fig. 7 successor-directory scenario)."""

    def test_roundtrip_preserves_answers(self, media_table):
        directory = SemanticDirectory(media_table)
        directory.publish(workstation())
        restored = SemanticDirectory.from_state(directory.export_state())
        assert len(restored) == 1
        assert restored.capability_count == 2
        original = directory.query(video_request())
        recovered = restored.query(video_request())
        assert [(m.service_uri, m.distance) for m in recovered] == [
            (m.service_uri, m.distance) for m in original
        ]

    def test_restored_table_has_no_taxonomy(self, media_table):
        directory = SemanticDirectory(media_table)
        directory.publish(workstation())
        restored = SemanticDirectory.from_state(directory.export_state())
        assert restored.table.taxonomy is None
        assert restored.table.version == media_table.version

    def test_empty_directory_roundtrip(self, media_table):
        directory = SemanticDirectory(media_table)
        restored = SemanticDirectory.from_state(directory.export_state())
        assert len(restored) == 0
        assert restored.query(video_request()) == []

    def test_malformed_snapshot_rejected(self, media_table):
        with pytest.raises(ValueError):
            SemanticDirectory.from_state("<nope")
        with pytest.raises(ValueError):
            SemanticDirectory.from_state("<Wrong/>")
        with pytest.raises(ValueError):
            SemanticDirectory.from_state("<DirectoryState version='1'/>")

    def test_kwargs_forwarded(self, media_table):
        directory = SemanticDirectory(media_table)
        directory.publish(workstation())
        restored = SemanticDirectory.from_state(
            directory.export_state(), query_mode=QueryMode.EXHAUSTIVE
        )
        assert restored.query_mode is QueryMode.EXHAUSTIVE
