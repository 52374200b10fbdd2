"""Tests for the §2.3 Match relation and SemanticDistance, including the
paper's worked example (Fig. 1, total distance 3) and the transitivity
property the capability DAG relies on."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codes import ConceptCode
from repro.core.matching import CodeMatcher, TaxonomyMatcher
from repro.services.profile import Capability
from repro.util.cache import DistanceCache

NS = "http://repro.example.org/media"


def r(name: str) -> str:
    return f"{NS}/resources#{name}"


def s(name: str) -> str:
    return f"{NS}/servers#{name}"


@pytest.fixture()
def send_digital_stream() -> Capability:
    """The workstation's provided capability (Fig. 1)."""
    return Capability.build(
        "urn:x:cap:SendDigitalStream",
        "SendDigitalStream",
        inputs=[r("DigitalResource")],
        outputs=[r("Stream")],
        category=s("DigitalServer"),
    )


@pytest.fixture()
def get_video_stream() -> Capability:
    """The PDA's required capability (Fig. 1)."""
    return Capability.build(
        "urn:x:cap:GetVideoStream",
        "GetVideoStream",
        inputs=[r("VideoResource")],
        outputs=[r("VideoStream")],
        category=s("VideoServer"),
    )


@pytest.fixture()
def provide_game() -> Capability:
    """The workstation's second capability (Fig. 1)."""
    return Capability.build(
        "urn:x:cap:ProvideGame",
        "ProvideGame",
        inputs=[r("GameResource")],
        outputs=[r("Stream")],
        category=s("GameServer"),
    )


@pytest.fixture(params=["taxonomy", "codes"])
def matcher(request, media_taxonomy, media_table):
    """Both oracles must implement identical semantics."""
    if request.param == "taxonomy":
        return TaxonomyMatcher(media_taxonomy)
    return CodeMatcher(table=media_table)


class TestWorkedExample:
    def test_match_holds(self, matcher, send_digital_stream, get_video_stream):
        assert matcher.match(send_digital_stream, get_video_stream)

    def test_distance_is_three(self, matcher, send_digital_stream, get_video_stream):
        """'The semantic distance between these capabilities is equal to 3'
        — 1 (input) + 1 (output) + 1 (category)."""
        assert matcher.semantic_distance(send_digital_stream, get_video_stream) == 3

    def test_reverse_does_not_match(self, matcher, send_digital_stream, get_video_stream):
        # GetVideoStream cannot substitute SendDigitalStream.
        assert not matcher.match(get_video_stream, send_digital_stream)

    def test_provide_game_does_not_match_video_request(
        self, matcher, provide_game, get_video_stream
    ):
        # GameServer does not subsume VideoServer; inputs mismatch too.
        assert not matcher.match(provide_game, get_video_stream)

    def test_exact_match_distance_zero(self, matcher, get_video_stream):
        twin = Capability.build(
            "urn:x:cap:twin",
            "Twin",
            inputs=[r("VideoResource")],
            outputs=[r("VideoStream")],
            category=s("VideoServer"),
        )
        assert matcher.semantic_distance(twin, get_video_stream) == 0

    def test_send_digital_more_generic_than_provide_game(
        self, matcher, send_digital_stream, provide_game
    ):
        """§3.3: 'SendDigitalStream is more generic than ProvideGame'."""
        assert matcher.match(send_digital_stream, provide_game)
        assert not matcher.match(provide_game, send_digital_stream)

    def test_pairings_reported(self, matcher, send_digital_stream, get_video_stream):
        outcome = matcher.match_outcome(send_digital_stream, get_video_stream)
        kinds = {p[0] for p in outcome.pairings}
        assert kinds == {"input", "output", "property"}
        assert all(p[3] == 1 for p in outcome.pairings)


class TestMatchSemantics:
    def test_provider_missing_output_fails(self, matcher):
        provided = Capability.build("urn:x:p", "P", outputs=[r("Stream")])
        requested = Capability.build(
            "urn:x:q", "Q", outputs=[r("Stream"), r("Title")]
        )
        assert not matcher.match(provided, requested)

    def test_provider_extra_outputs_ok(self, matcher):
        provided = Capability.build("urn:x:p", "P", outputs=[r("Stream"), r("Title")])
        requested = Capability.build("urn:x:q", "Q", outputs=[r("Stream")])
        assert matcher.match(provided, requested)

    def test_provider_input_without_requester_offer_fails(self, matcher):
        provided = Capability.build("urn:x:p", "P", inputs=[r("Title")], outputs=[r("Stream")])
        requested = Capability.build("urn:x:q", "Q", outputs=[r("Stream")])
        assert not matcher.match(provided, requested)

    def test_requester_extra_inputs_ok(self, matcher):
        provided = Capability.build("urn:x:p", "P", outputs=[r("Stream")])
        requested = Capability.build(
            "urn:x:q", "Q", inputs=[r("Title"), r("GameResource")], outputs=[r("Stream")]
        )
        assert matcher.match(provided, requested)

    def test_empty_capabilities_match_trivially(self, matcher):
        provided = Capability.build("urn:x:p", "P")
        requested = Capability.build("urn:x:q", "Q")
        assert matcher.semantic_distance(provided, requested) == 0

    def test_unknown_concept_fails_gracefully(self, matcher):
        provided = Capability.build("urn:x:p", "P", outputs=["http://nowhere.org/o#X"])
        requested = Capability.build("urn:x:q", "Q", outputs=["http://nowhere.org/o#X"])
        # Unknown concepts cannot be proven to subsume: no match, no crash.
        assert not matcher.match(provided, requested)

    def test_distance_picks_minimum_partner(self, matcher):
        provided = Capability.build(
            "urn:x:p", "P", outputs=[r("Stream"), r("VideoStream")]
        )
        requested = Capability.build("urn:x:q", "Q", outputs=[r("VideoStream")])
        # VideoStream matched by provided VideoStream at distance 0, not by
        # Stream at distance 1.
        assert matcher.semantic_distance(provided, requested) == 0

    def test_stats_counted(self, media_taxonomy, send_digital_stream, get_video_stream):
        matcher = TaxonomyMatcher(media_taxonomy)
        matcher.match(send_digital_stream, get_video_stream)
        assert matcher.stats.capability_matches == 1
        assert matcher.stats.concept_comparisons >= 3


class TestOraclesAgree:
    def test_taxonomy_and_codes_identical_on_workload(self, small_workload, small_table):
        taxonomy_matcher = TaxonomyMatcher(small_workload.taxonomy)
        code_matcher = CodeMatcher(table=small_table)
        services = small_workload.make_services(20)
        for i, provider in enumerate(services):
            request = small_workload.matching_request(provider)
            for profile in services:
                for cap in profile.provided:
                    for req_cap in request.capabilities:
                        assert taxonomy_matcher.match(cap, req_cap) == code_matcher.match(
                            cap, req_cap
                        ), (i, profile.uri)


class TestTransitivity:
    """Match transitivity is what makes the DAG prunings sound (§3.3)."""

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=60, deadline=None)
    def test_match_transitive_on_random_triples(self, small_workload, seed):
        import random

        taxonomy = small_workload.taxonomy
        matcher = TaxonomyMatcher(taxonomy)
        rng = random.Random(seed)
        services = [small_workload.make_service(rng.randrange(60)) for _ in range(3)]
        caps = [svc.provided[0] for svc in services]
        a, b, c = caps
        if matcher.match(a, b) and matcher.match(b, c):
            assert matcher.match(a, c)

    def test_match_reflexive(self, matcher, send_digital_stream):
        assert matcher.match(send_digital_stream, send_digital_stream)
        assert matcher.semantic_distance(send_digital_stream, send_digital_stream) == 0


class TestCodeMatcherConstruction:
    def test_requires_some_source(self):
        with pytest.raises(ValueError):
            CodeMatcher()

    def test_extra_codes_without_table(self, media_table, get_video_stream):
        annotations = media_table.annotate([get_video_stream])
        codes = media_table.resolve_annotations(annotations, media_table.version)
        matcher = CodeMatcher(extra_codes=codes)
        assert matcher.match(get_video_stream, get_video_stream)

    def test_extra_codes_extend_table(self, media_table):
        # A concept only present in embedded codes is still matchable.
        code = media_table.code(r("Stream"))
        matcher = CodeMatcher(table=None, extra_codes={r("Stream"): code})
        provided = Capability.build("urn:x:p", "P", outputs=[r("Stream")])
        requested = Capability.build("urn:x:q", "Q", outputs=[r("Stream")])
        assert matcher.match(provided, requested)


UNKNOWN = "http://nowhere.org/o#Unencoded"


def _near(data, taxonomy, pool: list[str], anchors) -> str:
    """A concept from ``pool``, or one related to an anchor (itself, an
    ancestor or a child), so that subsumption is common in the draws."""
    if anchors and data.draw(st.booleans()):
        anchor = data.draw(st.sampled_from(sorted(anchors)))
        if anchor not in taxonomy:
            return anchor
        related = taxonomy.ancestors(anchor) | taxonomy.children(anchor) | {anchor}
        return data.draw(st.sampled_from(sorted(related)))
    return data.draw(st.sampled_from(pool))


def _capability(data, taxonomy, pool: list[str], uri: str, like=None) -> Capability:
    """A random capability; with ``like``, its concepts lean toward that
    capability's (and each field's earlier draws, so that one concept can
    subsume several requested inputs at different distances)."""
    fields = {}
    for field, most in (("inputs", 4), ("outputs", 3), ("properties", 2)):
        concepts: list[str] = []
        for _ in range(data.draw(st.integers(0, most))):
            anchors = set(concepts) | (getattr(like, field) if like else set())
            concepts.append(_near(data, taxonomy, pool, anchors))
        fields[field] = concepts
    return Capability.build(uri, uri.rsplit(":", 1)[-1], **fields)


class TestSubsumerMapKernel:
    """The subsumer-map kernel (a cached ``CodeMatcher``'s ``match`` /
    ``semantic_distance``) must agree exactly with per-pair evaluation
    (``match_outcome``), whatever codes the document embeds."""

    MODES = ("none", "equal_copies", "resolved", "foreign_concept", "differing_code")

    @staticmethod
    def _embedded(mode, table, capabilities, data):
        concepts = sorted(
            {c for cap in capabilities for c in cap.concepts() if c in table}
        )
        if mode == "none":
            return None
        if mode == "equal_copies":
            return {
                c: ConceptCode.deserialize(c, table.code(c).serialize()) for c in concepts
            }
        if mode == "resolved":
            annotations = {c: table.code(c).serialize() for c in concepts}
            return table.resolve_annotations(annotations, table.version)
        if not concepts:
            return None
        source = table.code(data.draw(st.sampled_from(concepts)))
        if mode == "foreign_concept":
            return {UNKNOWN: dataclasses.replace(source, uri=UNKNOWN)}
        target = data.draw(st.sampled_from(concepts))
        return {target: dataclasses.replace(source, uri=target)}

    @pytest.mark.parametrize("suite", ["media", "small"])
    @pytest.mark.parametrize("mode", MODES)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_kernel_equals_per_pair(
        self, suite, mode, data, media_table, media_taxonomy, small_table, small_workload
    ):
        table, taxonomy = (
            (media_table, media_taxonomy)
            if suite == "media"
            else (small_table, small_workload.taxonomy)
        )
        pool = sorted(taxonomy.concepts()) + [UNKNOWN]
        requested = _capability(data, taxonomy, pool, "urn:x:cap:Requested")
        provided = [
            _capability(data, taxonomy, pool, f"urn:x:cap:P{i}", like=requested)
            for i in range(4)
        ]
        extra = self._embedded(mode, table, [requested, *provided], data)
        cache = DistanceCache()
        kernel = CodeMatcher(table=table, extra_codes=extra, cache=cache)
        oracle = CodeMatcher(table=table, extra_codes=extra)  # no cache: per pair
        # Independent of how a matcher sorts embedded codes out: one code
        # map in which the embedded codes shadow the table's.
        used = requested.concepts().union(*(cap.concepts() for cap in provided))
        shadowed = {c: table.code(c) for c in used if c in table} | (extra or {})
        # (A CodeMatcher needs some code; a never-drawn stand-in serves
        # draws without one.)
        stand_in = "http://nowhere.org/o#StandIn"
        reference = CodeMatcher(extra_codes=shadowed or {stand_in: table.code(pool[0])})
        # Each provided capability twice: the first use of ``requested``
        # probes its input maps one by one, later uses the merged map.
        for candidate in provided + provided:
            outcome = reference.match_outcome(candidate, requested)
            expected = outcome.distance if outcome.matched else None
            # The reverse direction compiles each provided capability once.
            reverse = reference.match_outcome(requested, candidate)
            for matcher in (kernel, oracle):
                assert matcher.semantic_distance(candidate, requested) == expected
                assert matcher.match(candidate, requested) is outcome.matched
                assert matcher.match(requested, candidate) is reverse.matched
        assert kernel.stats.capability_matches == oracle.stats.capability_matches
        if mode in ("none", "equal_copies", "resolved"):
            # Table-only codes: the cache holds one subsumer map per
            # concept and no pairs.
            assert len(cache) <= len(used)
        if suite == "media" and mode == "none":
            # Tree-shaped taxonomy: code distances equal taxonomy levels.
            reasoner = TaxonomyMatcher(taxonomy)
            for candidate in provided:
                assert kernel.semantic_distance(
                    candidate, requested
                ) == reasoner.semantic_distance(candidate, requested)

    def test_subsumer_maps_equal_pairwise_distances(self, small_workload, small_table):
        """``CodeTable.subsumers`` holds exactly the concepts a per-pair
        ``concept_distance`` finds subsuming, at the same distances."""
        concepts = sorted(
            {
                c
                for i in range(10)
                for cap in small_workload.make_service(i).provided
                for c in cap.concepts()
            }
        )
        matcher = CodeMatcher(table=small_table)
        probes = [
            c
            for i in range(10, 20)
            for cap in small_workload.make_service(i).provided
            for c in cap.concepts()
        ]
        for probe in probes + [UNKNOWN]:
            subsumers = small_table.subsumers(probe)
            got = {c: d for c, d in subsumers.items() if c in concepts}
            expected = {
                c: d
                for c in concepts
                if (d := matcher.concept_distance(c, probe)) is not None
            }
            assert got == expected

    def test_repeat_compile_hits_the_cache(
        self, media_table, send_digital_stream, get_video_stream
    ):
        cache = DistanceCache()
        first = CodeMatcher(table=media_table, cache=cache)
        assert first.semantic_distance(send_digital_stream, get_video_stream) == 3
        assert first.stats.cache_hits == 0 and first.stats.cache_misses > 0
        second = CodeMatcher(table=media_table, cache=cache)
        assert second.semantic_distance(send_digital_stream, get_video_stream) == 3
        assert second.stats.cache_misses == 0 and second.stats.cache_hits > 0
