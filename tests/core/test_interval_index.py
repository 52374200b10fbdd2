"""Sorted interval index: stabbing equals the linear scan it replaces."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.directory import FlatDirectory
from repro.core.interval_index import CandidateIndex, IntervalIndex
from repro.core.matching import CodeMatcher


def linear_stab(intervals_by_id: dict[int, list[tuple[float, float]]], lo: float, hi: float):
    """Reference implementation: scan every interval of every item."""
    return {
        item_id
        for item_id, intervals in intervals_by_id.items()
        if any(ilo <= lo and hi <= ihi for ilo, ihi in intervals)
    }


class TestIntervalIndex:
    def test_empty_index_stabs_nothing(self):
        assert IntervalIndex().stab(0.0, 1.0) == set()

    def test_basic_containment(self):
        index = IntervalIndex()
        index.insert(1, ((0.0, 10.0),))
        index.insert(2, ((2.0, 5.0),))
        index.insert(3, ((6.0, 9.0),))
        assert index.stab(3.0, 4.0) == {1, 2}
        assert index.stab(7.0, 8.0) == {1, 3}
        assert index.stab(0.0, 10.0) == {1}
        assert index.stab(11.0, 12.0) == set()

    def test_partially_overlapping_intervals(self):
        """Merged DAG codes are not laminar — NCLists must handle partial
        overlap, where plain nesting trees lose answers."""
        index = IntervalIndex()
        index.insert(1, ((0.0, 6.0),))
        index.insert(2, ((4.0, 10.0),))  # overlaps 1 without nesting
        index.insert(3, ((5.0, 6.0),))
        assert index.stab(5.0, 6.0) == {1, 2, 3}
        assert index.stab(4.5, 5.5) == {1, 2}
        assert index.stab(9.0, 10.0) == {2}

    def test_identical_intervals_share_a_node(self):
        index = IntervalIndex()
        index.insert(1, ((1.0, 2.0),))
        index.insert(2, ((1.0, 2.0),))
        assert index.stab(1.0, 2.0) == {1, 2}

    def test_discard_removes_item(self):
        index = IntervalIndex()
        index.insert(1, ((0.0, 4.0),))
        index.insert(2, ((1.0, 3.0),))
        index.discard(1)
        assert index.stab(2.0, 2.5) == {2}
        index.discard(99)  # absent id: no-op
        assert len(index) == 1

    def test_lazy_rebuild_amortizes_mutation_bursts(self):
        index = IntervalIndex()
        for item in range(10):
            index.insert(item, ((float(item), float(item) + 2.0),))
        assert index.rebuilds == 0
        index.stab(0.5, 1.0)
        index.stab(3.5, 4.0)
        assert index.rebuilds == 1  # one rebuild serves the query storm
        index.discard(3)
        index.stab(0.5, 1.0)
        # A discard tombstones its nodes in place — no O(n log n) rebuild.
        assert index.rebuilds == 1
        assert index.inplace_updates >= 1
        assert index.stab(3.5, 4.0) == {2}  # 3 gone; 4's [4,6] starts too late

    def test_discard_storm_defers_rebuild(self):
        """Regression for the discard-triggered rebuild storm: withdrawing
        k services from an n-entry index must not cost k full rebuilds.
        Discards tombstone in place; one deferred rebuild (at most) fires
        only once enough nodes have emptied."""
        from repro.core.interval_index import STALE_NODE_REBUILD_MIN

        index = IntervalIndex()
        n = 4 * STALE_NODE_REBUILD_MIN
        for item in range(n):
            index.insert(item, ((float(item), float(item) + 1.0),))
        index.stab(0.5, 0.75)
        assert index.rebuilds == 1
        # Interleave discards with queries — the old behavior rebuilt on
        # the first stab after *every* discard.
        removed = list(range(0, n, 2))
        for item in removed:
            index.discard(item)
            index.stab(float(item) + 1.25, float(item) + 1.5)
        assert index.rebuilds <= 2  # initial build + at most one deferred
        assert index.inplace_updates >= len(removed) - 1
        survivors = {i for i in range(n) if i % 2 == 1}
        for item in sorted(survivors)[:10]:
            assert index.stab(float(item) + 0.25, float(item) + 0.5) == {item}
        for item in removed[:10]:
            assert item not in index.stab(float(item) + 0.25, float(item) + 0.5)

    def test_inplace_insert_reuses_existing_nodes(self):
        """Re-inserting an id over interval keys already in the node set
        (the publish/unpublish churn pattern) skips the rebuild too."""
        index = IntervalIndex()
        index.insert(1, ((0.0, 4.0),))
        index.insert(2, ((0.0, 4.0), (6.0, 8.0)))
        index.stab(1.0, 2.0)
        assert index.rebuilds == 1
        index.discard(1)
        index.insert(3, ((0.0, 4.0),))  # same interval key: in-place
        assert index.stab(1.0, 2.0) == {2, 3}
        assert index.rebuilds == 1
        assert index.inplace_updates >= 2

    interval = st.tuples(
        st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=30)
    ).map(lambda pair: (float(min(pair)), float(max(pair))))

    @settings(max_examples=200, deadline=None)
    @given(
        items=st.dictionaries(
            st.integers(min_value=0, max_value=50),
            st.lists(interval, min_size=1, max_size=4),
            max_size=25,
        ),
        query=interval,
    )
    def test_stab_equals_linear_scan(self, items, query):
        """Property: for random (non-laminar) interval sets, the NCList
        stab returns exactly the linear scan's answer."""
        index = IntervalIndex()
        for item_id, intervals in items.items():
            index.insert(item_id, tuple(intervals))
        lo, hi = query
        assert index.stab(lo, hi) == linear_stab(items, lo, hi)


class TestCandidateIndex:
    def test_no_outputs_or_properties_means_no_filtering(self, small_workload, small_table):
        capability = small_workload.make_service(0).provided[0]
        index = CandidateIndex()
        matcher = CodeMatcher(table=small_table)
        index.insert(1, capability, matcher.lookup)
        bare = capability.build(uri="urn:repro:req", name="bare", inputs=["urn:x#i"])
        assert index.candidates(bare, matcher.lookup) is None

    def test_unknown_requested_concept_yields_empty(self, small_workload, small_table):
        capability = small_workload.make_service(0).provided[0]
        index = CandidateIndex()
        matcher = CodeMatcher(table=small_table)
        index.insert(1, capability, matcher.lookup)
        alien = capability.build(
            uri="urn:repro:req", name="alien", outputs=["http://nowhere.example#Thing"]
        )
        assert index.candidates(alien, matcher.lookup) == set()

    def test_unresolvable_provider_stays_always_candidate(self, small_workload, small_table):
        """A capability whose concepts had no codes at insertion must never
        be filtered out (its concepts may resolve via later embedded codes)."""
        known = small_workload.make_service(0).provided[0]
        index = CandidateIndex()
        matcher = CodeMatcher(table=small_table)
        index.insert(1, known, matcher.lookup)
        opaque = known.build(
            uri="urn:repro:opaque", name="opaque", outputs=["http://elsewhere.example#Out"]
        )
        index.insert(2, opaque, matcher.lookup)
        requested = known.build(
            uri="urn:repro:req", name="req", outputs=sorted(known.outputs)[:1]
        )
        candidates = index.candidates(requested, matcher.lookup)
        assert candidates is not None and 2 in candidates

    def test_candidates_superset_of_matches(self, small_workload, small_table):
        """Soundness: every capability the matcher accepts is a candidate."""
        matcher = CodeMatcher(table=small_table)
        index = CandidateIndex()
        capabilities = {}
        for i in range(40):
            for cap in small_workload.make_service(i).provided:
                item_id = len(capabilities)
                capabilities[item_id] = cap
                index.insert(item_id, cap, matcher.lookup)
        for probe in range(8):
            request = small_workload.matching_request(small_workload.make_service(probe))
            for requested in request.capabilities:
                candidates = index.candidates(requested, matcher.lookup)
                accepted = {
                    item_id
                    for item_id, cap in capabilities.items()
                    if matcher.match(cap, requested)
                }
                if candidates is not None:
                    assert accepted <= candidates


class TestIndexedFlatDirectoryEquality:
    @pytest.mark.parametrize("seed", [0, 7, 21, 1234])
    def test_indexed_equals_linear_across_seeds(self, small_workload, small_table, seed):
        """The headline property: FlatDirectory with the interval index
        returns exactly the linear scan's result set."""
        from repro.services.generator import ServiceWorkload

        workload = ServiceWorkload(shape=small_workload.shape, seed=seed)
        linear = FlatDirectory(small_table, use_interval_index=False)
        indexed = FlatDirectory(small_table)
        profiles = [workload.make_service(i) for i in range(30)]
        linear.publish_batch(profiles)
        indexed.publish_batch(profiles)

        def canon(matches):
            return sorted(
                (m.requested.uri, m.capability.uri, m.service_uri, m.distance)
                for m in matches
            )

        for probe in range(10):
            request = workload.matching_request(workload.make_service(probe))
            assert canon(indexed.query(request)) == canon(linear.query(request))

    def test_equality_survives_churn(self, small_workload, small_table):
        linear = FlatDirectory(small_table, use_interval_index=False)
        indexed = FlatDirectory(small_table)
        profiles = [small_workload.make_service(i) for i in range(20)]
        for directory in (linear, indexed):
            directory.publish_batch(profiles)
            for victim in profiles[::3]:
                directory.unpublish(victim.uri)
        request = small_workload.matching_request(profiles[1])

        def canon(matches):
            return sorted(
                (m.requested.uri, m.capability.uri, m.service_uri, m.distance)
                for m in matches
            )

        assert canon(indexed.query(request)) == canon(linear.query(request))


class TestIntrospection:
    """Tombstone counts and deferred-rebuild triggers are surfaced for
    operators: ``describe()`` strings and pull-based obs gauges."""

    def test_tombstones_count_emptied_nodes(self):
        index = IntervalIndex()
        for item in range(6):
            index.insert(item, ((float(item), float(item) + 1.0),))
        index.stab(0.25, 0.5)
        assert index.tombstones == 0
        index.discard(2)
        index.discard(4)
        assert index.tombstones == 2
        assert not index.rebuild_pending
        text = index.describe()
        assert "2 tombstones" in text
        assert "rebuild pending" not in text

    def test_deferred_rebuild_trigger_visible_then_cleared(self):
        from repro.core.interval_index import STALE_NODE_REBUILD_MIN

        index = IntervalIndex()
        n = 4 * STALE_NODE_REBUILD_MIN
        for item in range(n):
            index.insert(item, ((float(item), float(item) + 1.0),))
        index.stab(0.5, 0.75)
        for item in range(0, n - 2, 1):
            index.discard(item)
            if index.rebuild_pending:
                break
        assert index.rebuild_pending
        assert "rebuild pending" in index.describe()
        index.stab(float(n) - 1.5, float(n) - 1.25)  # pays the rebuild
        assert not index.rebuild_pending
        assert index.tombstones == 0
        assert index.rebuilds == 2

    def test_candidate_index_aggregates_sub_indexes(self, small_workload, small_table):
        matcher = CodeMatcher(table=small_table)
        index = CandidateIndex()
        capabilities = [
            capability
            for profile in small_workload.make_services(12)
            for capability in profile.provided
        ]
        for item_id, capability in enumerate(capabilities):
            index.insert(item_id, capability, matcher.lookup)
        request = small_workload.matching_request(small_workload.make_service(0))
        index.candidates(request.capabilities[0], matcher.lookup)  # builds both
        assert index.tombstones == 0
        for item_id in range(2, len(capabilities)):
            index.discard(item_id)
        assert index.tombstones > 0
        text = index.describe()
        assert "outputs:" in text and "properties:" in text
        assert "tombstones" in text
        assert index.rebuilds >= 1
