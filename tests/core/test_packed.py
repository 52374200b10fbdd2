"""Packed batch matching engine: bitwise-identical to the scalar matcher.

The headline property of ``repro.core.packed``: for any directory content
and any request — including adversarial ones hypothesis composes from the
workload's concept pool — ``BatchMatchEngine.match_capability`` returns
exactly the ``(entry, SemanticDistance)`` pairs the per-entry scalar
``Matcher`` computes.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.directory import FlatDirectory
from repro.core.matching import CodeMatcher
from repro.core.packed import BatchMatchEngine, PackedCodeTable
from repro.services.profile import Capability


def scalar_pairs(entries, matcher, requested):
    """The oracle: scalar SemanticDistance per entry, skipping non-matches."""
    distances = matcher.semantic_distance_many(
        [cap for cap in entries.values()], requested
    )
    return {
        entry_id: dist
        for entry_id, dist in zip(entries.keys(), distances)
        if dist is not None
    }


def _rows(matches) -> list[tuple[str, str, int]]:
    """Ranked rows *in order*: directory equality is bit-identical."""
    return [(m.service_uri, m.capability.uri, m.distance) for m in matches]


class TestPackedCodeTable:
    def test_subsumer_distances_match_scalar(self, small_workload, small_table):
        concepts = sorted(
            {
                c
                for i in range(10)
                for cap in small_workload.make_service(i).provided
                for c in cap.concepts()
            }
        )
        matcher = CodeMatcher(table=small_table)
        packed = PackedCodeTable(concepts, matcher.lookup)
        probe_concepts = [
            c
            for i in range(10, 20)
            for cap in small_workload.make_service(i).provided
            for c in cap.concepts()
        ]
        for probe in probe_concepts:
            code = matcher.lookup(probe)
            if code is None:
                continue
            got = packed.subsumer_distances(code)
            expected = {}
            for concept in concepts:
                index = packed.index.get(concept)
                if index is None:
                    continue
                d = matcher.concept_distance(concept, probe)
                if d is not None:
                    expected[index] = d
            assert got == expected

    def test_unknown_concepts_skipped(self, small_table):
        matcher = CodeMatcher(table=small_table)
        packed = PackedCodeTable(["http://nowhere.example#X"], matcher.lookup)
        assert len(packed.index) == 0


class TestEngineEqualsScalar:
    def test_workload_requests(self, small_workload, small_table):
        matcher = CodeMatcher(table=small_table)
        entries = {}
        for i in range(60):
            for cap in small_workload.make_service(i).provided:
                entries[len(entries) + 1] = cap
        engine = BatchMatchEngine(entries, matcher.lookup)
        for probe in range(25):
            request = small_workload.matching_request(small_workload.make_service(probe))
            for requested in request.capabilities:
                pairs, stats = engine.match_capability(requested, matcher.lookup)
                assert dict(pairs) == scalar_pairs(entries, matcher, requested)
                assert stats.batch_size == len(entries)
                assert stats.pruned + stats.evaluated == stats.batch_size
                # Pruning is sound: every match survived the prune.
                assert len(pairs) <= stats.evaluated

    def test_unrelated_requests(self, small_workload, small_table):
        matcher = CodeMatcher(table=small_table)
        entries = {
            i + 1: small_workload.make_service(i).provided[0] for i in range(30)
        }
        engine = BatchMatchEngine(entries, matcher.lookup)
        for probe in range(10):
            request = small_workload.unrelated_request(probe)
            for requested in request.capabilities:
                pairs, _stats = engine.match_capability(requested, matcher.lookup)
                assert dict(pairs) == scalar_pairs(entries, matcher, requested)

    def test_unknown_requested_output_matches_nothing(self, small_workload, small_table):
        matcher = CodeMatcher(table=small_table)
        entries = {1: small_workload.make_service(0).provided[0]}
        engine = BatchMatchEngine(entries, matcher.lookup)
        alien = Capability.build(
            uri="urn:x:alien", name="alien", outputs=["http://nowhere.example#Out"]
        )
        pairs, stats = engine.match_capability(alien, matcher.lookup)
        assert pairs == []
        assert stats.pruned == stats.batch_size
        assert dict(pairs) == scalar_pairs(entries, matcher, alien)

    def test_empty_engine(self, small_table):
        matcher = CodeMatcher(table=small_table)
        engine = BatchMatchEngine({}, matcher.lookup)
        requested = Capability.build(uri="urn:x:r", name="r", outputs=["urn:x#o"])
        pairs, stats = engine.match_capability(requested, matcher.lookup)
        assert pairs == [] and stats.batch_size == 0


class TestEngineProperty:
    """Hypothesis: random IOPE sets drawn from the real concept pool."""

    @staticmethod
    def _concept_pool(workload):
        return sorted(
            {c for onto in workload.ontologies for c in onto.concepts}
        )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_capabilities_match_scalar(self, small_workload, small_table, data):
        pool = self._concept_pool(small_workload)
        alien = "http://nowhere.example#Alien"
        concept = st.sampled_from(pool + [alien])
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
        entries = {i + 1: build(i) for i in range(n_entries)}
        requested = build(999)
        matcher = CodeMatcher(table=small_table)
        engine = BatchMatchEngine(entries, matcher.lookup)
        pairs, stats = engine.match_capability(requested, matcher.lookup)
        assert dict(pairs) == scalar_pairs(entries, matcher, requested)
        assert stats.batch_size == len(entries)


class TestDirectoryIntegration:
    def test_batch_follows_interval_index_default(self, small_workload, small_table):
        request = small_workload.matching_request(small_workload.make_service(0))
        packed = FlatDirectory(small_table)
        packed.publish(small_workload.make_service(0))
        assert packed.query(request) and packed._engine is not None
        linear = FlatDirectory(small_table, use_interval_index=False)
        linear.publish(small_workload.make_service(0))
        assert linear.query(request) and linear._engine is None

    def test_batch_query_equals_linear(self, small_workload, small_table):
        batched = FlatDirectory(small_table)
        linear = FlatDirectory(small_table, use_interval_index=False)
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

    def test_engine_cache_tracks_epoch(self, small_workload, small_table):
        directory = FlatDirectory(small_table)
        profiles = [small_workload.make_service(i) for i in range(6)]
        directory.publish_batch(profiles)
        request = small_workload.matching_request(profiles[0])
        assert directory.query(request)
        first = directory._engine
        assert directory._batch_engine() is first  # cached across queries
        directory.unpublish(profiles[0].uri)
        assert directory.query(request) == []  # rebuilt: withdrawn entry gone
        assert directory._engine is not first

    def test_batch_metrics_emitted(self, small_workload, small_table):
        from repro.obs import Observability

        directory = FlatDirectory(small_table)
        directory.obs = Observability()
        directory.publish_batch([small_workload.make_service(i) for i in range(4)])
        request = small_workload.matching_request(small_workload.make_service(0))
        directory.query(request)
        names = {
            (series["name"], tuple(sorted(dict(series["labels"]).items())))
            for series in directory.obs.metrics.snapshot()
        }
        assert any(name == "match.batch_queries" for name, _labels in names)
        assert any(name == "match.batch_size" for name, _labels in names)
        assert any(name == "match.candidates_pruned" for name, _labels in names)
        assert ("match.batch_queries", ()) in names  # one engine: no label


class TestEngineCacheCoherence:
    """Packed tables are epoch-keyed caches: a publish or an unpublish
    storm must invalidate them — a query may never see stale rows."""

    def test_unpublish_storm_never_serves_stale_rows(self, small_workload, small_table):
        directory = FlatDirectory(small_table)
        profiles = small_workload.make_services(30)
        for profile in profiles:
            directory.publish(profile)
        request = small_workload.matching_request(profiles[0])
        directory.query(request)  # warm the packed table
        keep = profiles[0].uri
        for profile in profiles:
            if profile.uri != keep:
                directory.unpublish(profile.uri)
        survivors = {row[0] for row in _rows(directory.query(request))}
        assert survivors <= {keep}, f"stale packed rows served: {survivors}"

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
        """Any publish/unpublish interleaving: the epoch-cached packed
        engine answers exactly like a scalar directory fed the same ops,
        with a query (cache warm) forced between every mutation."""
        cached = FlatDirectory(small_table)
        scalar = FlatDirectory(small_table, use_interval_index=False)
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
