"""The indexed, cached query engine: shared distance cache, batch APIs,
incremental Bloom summaries (docs/PERFORMANCE.md)."""

from __future__ import annotations

import random

import pytest

from repro.core.codes import CodeTable, StaleCodesError
from repro.core.directory import FlatDirectory, SemanticDirectory
from repro.core.summaries import DirectorySummary
from repro.services.profile import Capability, ServiceRequest
from repro.services.xml_codec import ServiceSyntaxError, profile_to_xml, request_to_xml


def canon(matches):
    return sorted(
        (m.requested.uri, m.capability.uri, m.service_uri, m.distance) for m in matches
    )


class TestSharedDistanceCache:
    def test_cache_warms_across_queries(self, small_workload, small_table):
        directory = SemanticDirectory(small_table)
        directory.publish_batch(small_workload.make_service(i) for i in range(20))
        request = small_workload.matching_request(small_workload.make_service(3))
        directory.query(request)
        warm_hits = directory.stats.cache_hits
        directory.query(request)
        # The repeat query answers its concept comparisons from the memo.
        assert directory.stats.cache_hits > warm_hits
        assert directory.distance_cache.stats.hit_rate > 0

    def test_repeated_query_results_stable(self, small_workload, small_table):
        directory = SemanticDirectory(small_table)
        directory.publish_batch(small_workload.make_service(i) for i in range(20))
        request = small_workload.matching_request(small_workload.make_service(3))
        assert canon(directory.query(request)) == canon(directory.query(request))

    def test_cache_disabled_by_size_zero(self, small_workload, small_table):
        directory = SemanticDirectory(small_table, distance_cache_size=0)
        assert directory.distance_cache is None
        directory.publish(small_workload.make_service(0))
        request = small_workload.matching_request(small_workload.make_service(0))
        directory.query(request)
        directory.query(request)
        assert directory.stats.cache_hits == 0
        assert directory.stats.concept_comparisons > 0

    def test_table_swap_flushes_cache(self, small_workload, small_registry, small_table):
        """A new code-table snapshot (§3.2 re-encoding) must invalidate
        every memoized distance — the version key changes."""
        directory = SemanticDirectory(small_table)
        directory.publish_batch(small_workload.make_service(i) for i in range(10))
        request = small_workload.matching_request(small_workload.make_service(0))
        before = canon(directory.query(request))
        assert len(directory.distance_cache) > 0

        small_registry.register(small_workload.ontologies[0])  # bump snapshot
        new_table = CodeTable(small_registry)
        assert new_table.version != small_table.version
        directory.table = new_table
        after = directory.query(request)
        assert directory.distance_cache.stats.invalidations == 1
        assert directory.distance_cache.version == (id(new_table), new_table.version)
        # Same ontology content, so re-encoded answers are unchanged.
        assert canon(after) == before

    def test_stale_documents_still_rejected(self, small_workload, small_table):
        """The cache never weakens §3.2 versioning: documents carrying
        codes from another snapshot keep raising StaleCodesError."""
        directory = SemanticDirectory(small_table)
        profile = small_workload.make_service(0)
        doc = profile_to_xml(
            profile,
            annotations=small_table.annotate(profile.provided),
            codes_version=small_table.version + 7,
        )
        with pytest.raises(StaleCodesError):
            directory.publish_xml(doc)
        with pytest.raises(StaleCodesError):
            directory.publish_xml_batch([doc])


class TestUnselectiveRequests:
    """Requests shaped like the live benchmark's ``broad_match`` mix (every
    leaf of two ontologies as inputs, one leaf output, codes embedded)
    answer identically through the subsumer-map kernel and the per-pair
    path."""

    @staticmethod
    def _leaves(workload, ontology):
        taxonomy = workload.taxonomy
        return sorted(
            c for c in ontology.concepts if not taxonomy.children(taxonomy.canonical(c))
        )

    def test_kernel_and_per_pair_agree(self, small_workload, small_table):
        table = small_table
        kernel = SemanticDirectory(table)
        per_pair = SemanticDirectory(table, distance_cache_size=0)
        for index in range(96):
            profile = small_workload.make_service(index)
            document = profile_to_xml(
                profile, annotations=table.annotate(profile.provided), codes_version=table.version
            )
            for directory in (kernel, per_pair):
                directory.publish_xml(document)
        rng = random.Random(5)
        compared = 0
        for number in range(24):
            first, second = rng.sample(small_workload.ontologies, 2)
            leaves = self._leaves(small_workload, first) + self._leaves(small_workload, second)
            capability = Capability.build(
                f"urn:x:cap:broad{number}",
                f"Broad{number}",
                inputs=leaves,
                outputs=[rng.choice(leaves)],
            )
            request = ServiceRequest(uri=f"urn:x:req:broad{number}", capabilities=(capability,))
            document = request_to_xml(
                request,
                annotations=table.annotate(request.capabilities),
                codes_version=table.version,
            )
            expected = canon(per_pair.query_xml(document))
            assert canon(kernel.query_xml(document)) == expected
            compared += bool(expected)
        assert compared >= 3
        assert kernel.stats.capability_matches == per_pair.stats.capability_matches


class TestBatchApis:
    def test_query_batch_equals_one_at_a_time(self, small_workload, small_table):
        directory = SemanticDirectory(small_table)
        directory.publish_batch(small_workload.make_service(i) for i in range(25))
        requests = [
            small_workload.matching_request(small_workload.make_service(i)) for i in range(6)
        ]
        batched = directory.query_batch(requests)
        assert len(batched) == len(requests)
        for request, batch_result in zip(requests, batched):
            assert canon(batch_result) == canon(directory.query(request))

    def test_publish_batch_equals_sequential(self, small_workload, small_table):
        profiles = [small_workload.make_service(i) for i in range(15)]
        batched = SemanticDirectory(small_table)
        sequential = SemanticDirectory(small_table)
        assert batched.publish_batch(profiles) == len(profiles)
        for profile in profiles:
            sequential.publish(profile)
        assert len(batched) == len(sequential)
        assert batched.capability_count == sequential.capability_count
        request = small_workload.matching_request(profiles[4])
        assert canon(batched.query(request)) == canon(sequential.query(request))

    def test_publish_xml_batch_is_atomic_on_bad_document(
        self, small_workload, small_table
    ):
        directory = SemanticDirectory(small_table)
        good = profile_to_xml(small_workload.make_service(0))
        with pytest.raises(ServiceSyntaxError):
            directory.publish_xml_batch([good, "<nope>"])
        assert len(directory) == 0  # nothing published from the failed batch

    def test_flat_directory_batch_parity(self, small_workload, small_table):
        profiles = [small_workload.make_service(i) for i in range(12)]
        flat = FlatDirectory(small_table)
        assert flat.publish_batch(profiles) == len(profiles)
        requests = [small_workload.matching_request(profiles[i]) for i in range(3)]
        batched = flat.query_batch(requests)
        for request, batch_result in zip(requests, batched):
            assert canon(batch_result) == canon(flat.query(request))


class TestIncrementalSummary:
    def test_unpublish_updates_summary_without_rebuild(
        self, small_workload, small_table, monkeypatch
    ):
        directory = SemanticDirectory(small_table)
        directory.publish_batch(small_workload.make_service(i) for i in range(10))

        def forbidden(self, capabilities):
            raise AssertionError("unpublish must not rebuild the summary")

        monkeypatch.setattr(DirectorySummary, "rebuild", forbidden)
        removed = directory.unpublish(small_workload.make_service(3).uri)
        assert removed >= 1

    def test_summary_bits_equal_fresh_rebuild_after_churn(
        self, small_workload, small_table
    ):
        """The §4 guarantee: incrementally maintained bits are identical
        to a from-scratch summary over the surviving content."""
        directory = SemanticDirectory(small_table)
        profiles = [small_workload.make_service(i) for i in range(12)]
        directory.publish_batch(profiles)
        for victim in profiles[::2]:
            directory.unpublish(victim.uri)

        fresh = DirectorySummary()
        for capability in directory.capabilities():
            fresh.add_capability(capability)
        assert directory.summary.bloom.to_bytes() == fresh.bloom.to_bytes()
        assert directory.summary.snapshot().to_bytes() == fresh.bloom.to_bytes()

    def test_unpublish_removed_count_and_absence(self, small_workload, small_table):
        directory = SemanticDirectory(small_table)
        profiles = [small_workload.make_service(i) for i in range(8)]
        directory.publish_batch(profiles)
        target = profiles[2]
        assert directory.unpublish(target.uri) == len(target.provided)
        assert directory.unpublish(target.uri) == 0
        request = small_workload.matching_request(target)
        assert all(m.service_uri != target.uri for m in directory.query(request))


class TestStateRoundTrip:
    def test_export_import_preserves_answers(self, small_workload, small_table):
        directory = SemanticDirectory(small_table)
        directory.publish_batch(small_workload.make_service(i) for i in range(10))
        restored = SemanticDirectory.from_state(directory.export_state())
        assert len(restored) == len(directory)
        assert restored.table.version == small_table.version
        request = small_workload.matching_request(small_workload.make_service(1))
        assert canon(restored.query(request)) == canon(directory.query(request))


class TestCompiledRequestMemo:
    """Query-path matchers keep each requested capability's compiled form
    in the directory's version-keyed distance cache, keyed by the
    capability; publication does not."""

    @staticmethod
    def _rows(matches):
        return [(m.service_uri, m.capability.uri, m.distance) for m in matches]

    @staticmethod
    def _copy(request):
        """An equal request built from fresh objects."""
        return ServiceRequest(
            uri=request.uri,
            capabilities=tuple(
                Capability.build(
                    cap.uri,
                    cap.name,
                    inputs=sorted(cap.inputs),
                    outputs=sorted(cap.outputs),
                    properties=sorted(cap.properties),
                    category=cap.category,
                )
                for cap in request.capabilities
            ),
            requester=request.requester,
        )

    def test_publishing_adds_no_entries(self, small_workload, small_table):
        directory = SemanticDirectory(small_table)
        profiles = [small_workload.make_service(i) for i in range(30)]
        directory.publish_batch(profiles[:20])
        for profile in profiles[20:]:
            directory.publish(profile)
        cache = directory.distance_cache
        assert len(cache) > 0  # subsumer maps only
        assert not any(cap in cache for profile in profiles for cap in profile.provided)

    def test_equal_requests_share_one_entry(self, small_workload, small_table):
        directory = SemanticDirectory(small_table)
        directory.publish_batch(small_workload.make_service(i) for i in range(30))
        request = small_workload.matching_request(small_workload.make_service(4))
        first = directory.query(request)
        cache = directory.distance_cache
        assert all(cap in cache for cap in request.capabilities)
        entries, hits = len(cache), directory.stats.cache_hits
        twin = self._copy(request)
        assert twin.capabilities == request.capabilities
        assert all(a is not b for a, b in zip(twin.capabilities, request.capabilities))
        second = directory.query(twin)
        assert len(cache) == entries
        assert directory.stats.cache_hits > hits
        assert self._rows(second) == self._rows(first) and first
        # Each answer names its own request's capability.
        assert all(m.requested is twin.capabilities[0] for m in second)

    def test_table_version_change_flushes_entries(
        self, small_workload, small_registry, small_table
    ):
        directory = SemanticDirectory(small_table)
        directory.publish_batch(small_workload.make_service(i) for i in range(20))
        request = small_workload.matching_request(small_workload.make_service(2))
        (capability,) = request.capabilities
        before = self._rows(directory.query(request))
        cache = directory.distance_cache
        compiled = cache.get(capability)
        assert compiled is not None

        small_registry.register(small_workload.ontologies[0])  # bump snapshot
        directory.table = CodeTable(small_registry)
        assert self._rows(directory.query(request)) == before
        assert cache.stats.invalidations == 1
        assert cache.get(capability) is not compiled
