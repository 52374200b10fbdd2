"""Tests for code tables: numeric subsumption/distance, versioning, wire
format."""

import pytest

from repro.core.codes import CodeTable, ConceptCode, StaleCodesError, UnknownConceptError
from repro.core.encoding import IntervalEncoder
from repro.ontology.generator import OntologyShape, generate_ontology
from repro.ontology.model import THING
from repro.ontology.registry import OntologyRegistry
from repro.services.profile import Capability

NS = "http://repro.example.org/media"


def r(name: str) -> str:
    return f"{NS}/resources#{name}"


def s(name: str) -> str:
    return f"{NS}/servers#{name}"


class TestNumericSubsumption:
    def test_matches_taxonomy_on_media(self, media_table):
        taxonomy = media_table.taxonomy
        concepts = [c for c in taxonomy.concepts() if c != THING]
        for a in concepts:
            for b in concepts:
                assert media_table.subsumes(a, b) == taxonomy.subsumes(a, b), (a, b)

    def test_matches_taxonomy_on_random_dag(self):
        onto = generate_ontology(
            "http://x.org/codes",
            OntologyShape(concepts=60, properties=10, multi_parent_fraction=0.25),
            seed=7,
        )
        registry = OntologyRegistry([onto])
        table = CodeTable(registry)
        taxonomy = table.taxonomy
        concepts = [c for c in taxonomy.concepts() if c != THING]
        for a in concepts:
            for b in concepts:
                assert table.subsumes(a, b) == taxonomy.subsumes(a, b), (a, b)

    def test_thing_cases(self, media_table):
        assert media_table.subsumes(THING, r("Stream"))
        assert not media_table.subsumes(r("Stream"), THING)

    def test_unknown_concept_raises(self, media_table):
        with pytest.raises(UnknownConceptError):
            media_table.code("http://x.org/unknown#C")


class TestSubsumees:
    """``CodeTable.subsumees`` against the per-pair code test it indexes."""

    @staticmethod
    def _multi_parent_table():
        onto = generate_ontology(
            "http://x.org/codes",
            OntologyShape(concepts=60, properties=10, multi_parent_fraction=0.25),
            seed=7,
        )
        return CodeTable(OntologyRegistry([onto]))

    @pytest.mark.parametrize("suite", ["media", "small", "multi_parent"])
    def test_equals_brute_force(self, suite, media_table, small_table):
        table = {
            "media": media_table,
            "small": small_table,
            "multi_parent": self._multi_parent_table(),
        }[suite]
        if suite == "multi_parent":
            taxonomy = table.taxonomy
            assert any(len(taxonomy.parents(c)) > 1 for c in taxonomy.concepts())
        concepts = list(table._codes)
        for concept in concepts:
            code = table.code(concept)
            expected = {c for c in concepts if code.subsumes(table.code(c))}
            assert table.subsumees(concept) == expected, concept
            assert concept in expected
            assert all(concept in table.subsumers(c) for c in expected)

    def test_unknown_concept_is_empty(self, media_table):
        assert media_table.subsumees("http://x.org/unknown#C") == frozenset()


class TestNumericDistance:
    def test_tree_distance_exact(self, media_table):
        # The media ontologies are trees: depth difference == level count.
        assert media_table.distance(r("DigitalResource"), r("VideoResource")) == 1
        assert media_table.distance(r("Resource"), r("VideoResource")) == 2
        assert media_table.distance(s("Server"), s("GameServer")) == 2

    def test_distance_none_when_not_subsuming(self, media_table):
        assert media_table.distance(r("VideoResource"), r("DigitalResource")) is None

    def test_distance_zero_on_self(self, media_table):
        assert media_table.distance(r("Stream"), r("Stream")) == 0

    def test_distance_from_thing_is_depth(self, media_table):
        assert media_table.distance(THING, r("VideoResource")) == 3

    def test_agrees_with_taxonomy_on_trees(self, media_table):
        taxonomy = media_table.taxonomy
        concepts = [c for c in taxonomy.concepts() if c != THING]
        for a in concepts:
            for b in concepts:
                assert media_table.distance(a, b) == taxonomy.distance(a, b), (a, b)


class TestVersioning:
    def test_version_tracks_registry_snapshot(self, media_ontologies):
        registry = OntologyRegistry(list(media_ontologies))
        table = CodeTable(registry)
        assert table.version == registry.snapshot_version

    def test_stale_codes_rejected(self, media_table):
        with pytest.raises(StaleCodesError):
            media_table.resolve_annotations({}, version=media_table.version + 1)

    def test_missing_version_rejected(self, media_table):
        with pytest.raises(StaleCodesError):
            media_table.resolve_annotations({}, version=None)

    def test_reencoding_after_evolution(self, media_ontologies):
        registry = OntologyRegistry(list(media_ontologies))
        old_table = CodeTable(registry)
        extra = generate_ontology("http://x.org/new", OntologyShape(concepts=5), seed=0)
        registry.register(extra)  # ontology evolution
        new_table = CodeTable(registry)
        assert new_table.version > old_table.version
        annotations = old_table.annotate(
            [Capability.build("urn:x:cap", "C", outputs=[r("Stream")])]
        )
        with pytest.raises(StaleCodesError):
            new_table.resolve_annotations(annotations, version=old_table.version)


class TestWireFormat:
    def test_serialize_roundtrip(self, media_table):
        code = media_table.code(r("VideoResource"))
        restored = ConceptCode.deserialize(code.uri, code.serialize())
        assert restored == code

    def test_roundtrip_preserves_behaviour(self, media_table):
        over = media_table.code(r("DigitalResource"))
        under = media_table.code(r("VideoResource"))
        over2 = ConceptCode.deserialize(over.uri, over.serialize())
        under2 = ConceptCode.deserialize(under.uri, under.serialize())
        assert over2.subsumes(under2)
        assert over2.distance_to(under2) == 1

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            ConceptCode.deserialize("http://x.org#C", "garbage")
        with pytest.raises(ValueError):
            ConceptCode.deserialize("http://x.org#C", "0.1,0.2;notanint;0.1,0.2")


class TestAnnotation:
    def test_annotate_covers_all_concepts(self, media_table):
        cap = Capability.build(
            "urn:x:cap",
            "GetVideoStream",
            inputs=[r("VideoResource")],
            outputs=[r("VideoStream")],
            category=s("VideoServer"),
        )
        annotations = media_table.annotate([cap])
        assert set(annotations) == cap.concepts()

    def test_resolve_annotations_roundtrip(self, media_table):
        cap = Capability.build("urn:x:cap", "C", outputs=[r("Stream")])
        annotations = media_table.annotate([cap])
        resolved = media_table.resolve_annotations(annotations, media_table.version)
        assert resolved[r("Stream")] == media_table.code(r("Stream"))

    def test_annotate_unknown_concept_raises(self, media_table):
        cap = Capability.build("urn:x:cap", "C", outputs=["http://x.org/none#C"])
        with pytest.raises(UnknownConceptError):
            media_table.annotate([cap])


class TestExactEncoderTable:
    def test_exact_encoder_same_semantics(self, media_registry):
        table = CodeTable(media_registry, encoder=IntervalEncoder(exact=True))
        assert table.subsumes(r("DigitalResource"), r("VideoResource"))
        assert table.distance(r("DigitalResource"), r("VideoResource")) == 1


class TestTableSnapshot:
    """§3.2 distribution: a table round-trips through XML and keeps all
    numeric behaviour without any reasoner on the receiving side."""

    def test_roundtrip_preserves_codes(self, media_table):
        restored = CodeTable.from_xml(media_table.to_xml())
        assert restored.version == media_table.version
        assert len(restored) == len(media_table)
        for concept in (r("Stream"), r("VideoResource"), s("DigitalServer")):
            assert restored.code(concept) == media_table.code(concept)

    def test_restored_table_answers_queries(self, media_table):
        restored = CodeTable.from_xml(media_table.to_xml())
        assert restored.subsumes(r("DigitalResource"), r("VideoResource"))
        assert restored.distance(r("DigitalResource"), r("VideoResource")) == 1
        assert restored.taxonomy is None  # no reasoner shipped

    def test_restored_table_serves_a_directory(self, media_table):
        from repro.core.directory import SemanticDirectory
        from repro.services.profile import ServiceProfile

        restored = CodeTable.from_xml(media_table.to_xml())
        directory = SemanticDirectory(restored)
        cap = Capability.build(
            "urn:x:cap:snap",
            "Snap",
            inputs=[r("DigitalResource")],
            outputs=[r("Stream")],
            category=s("DigitalServer"),
        )
        directory.publish(ServiceProfile(uri="urn:x:svc:snap", name="S", provided=(cap,)))
        from repro.services.profile import ServiceRequest

        request = ServiceRequest(
            uri="urn:x:req:snap",
            capabilities=(
                Capability.build(
                    "urn:x:cap:want",
                    "Want",
                    inputs=[r("VideoResource")],
                    outputs=[r("Stream")],
                    category=s("VideoServer")),
            ),
        )
        matches = directory.query(request)
        assert matches and matches[0].service_uri == "urn:x:svc:snap"

    def test_malformed_documents_rejected(self):
        with pytest.raises(ValueError):
            CodeTable.from_xml("<nope")
        with pytest.raises(ValueError):
            CodeTable.from_xml("<Wrong/>")
        with pytest.raises(ValueError):
            CodeTable.from_xml("<CodeTable version='1'><Bogus/></CodeTable>")
        with pytest.raises(ValueError):
            CodeTable.from_xml("<CodeTable version='1'><Code uri='urn:x'/></CodeTable>")
