"""Sharded directory tier: routing, pruning soundness, deterministic
merges, rebalance, snapshots, and packed-engine cache coherence.

The load-bearing property is *bit-identical equality*: a ``ShardRouter``
over K shards must return exactly the ranked list a single unsharded
directory returns on the same content — order included — at every K and
across resizes.  The second property is §4 soundness: a shard the Bloom
summaries prune ("not admitted") must genuinely hold no match.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.capability_graph import QueryMode
from repro.core.directory import FlatDirectory, SemanticDirectory
from repro.core.sharding import (
    ShardRouter,
    ShardedSemanticDirectory,
    service_shard_key,
    shard_index_for,
)
from repro.obs import Observability


def _rows(matches) -> list[tuple[str, str, int]]:
    """Ranked rows *in order*: equality below is bit-identical."""
    return [(m.service_uri, m.capability.uri, m.distance) for m in matches]


def _requests(workload, count: int = 15):
    return [
        workload.matching_request(workload.make_service(index)) for index in range(count)
    ] + [workload.unrelated_request(index) for index in range(3)]


class TestRouting:
    def test_shard_index_deterministic_and_in_range(self, small_workload):
        for index in range(20):
            key = service_shard_key(small_workload.make_service(index))
            assert shard_index_for(key, 8) == shard_index_for(key, 8)
            assert 0 <= shard_index_for(key, 8) < 8

    def test_invalid_shard_counts_rejected(self, small_table):
        with pytest.raises(ValueError):
            shard_index_for(frozenset(), 0)
        with pytest.raises(ValueError):
            ShardRouter(small_table, 0)
        with pytest.raises(ValueError):
            ShardRouter(small_table, 4).resize(0)

    def test_service_placed_atomically(self, small_workload, small_table):
        router = ShardRouter(small_table, 8)
        for profile in small_workload.iter_services(30):
            index = router.publish(profile)
            assert router.shard_of(profile.uri) == index
            hosted = router.shards[index].profile(profile.uri)
            assert hosted is not None
            assert len(hosted.provided) == len(profile.provided)
        assert len(router) == 30
        assert sum(len(shard) for shard in router.shards) == 30

    def test_republish_replaces_not_duplicates(self, small_workload, small_table):
        router = ShardRouter(small_table, 4)
        profile = small_workload.make_service(0)
        router.publish(profile)
        router.publish(profile)
        assert len(router) == 1
        assert router.capability_count == len(profile.provided)

    def test_unpublish_withdraws_everywhere(self, small_workload, small_table):
        router = ShardRouter(small_table, 4)
        profiles = small_workload.make_services(10)
        for profile in profiles:
            router.publish(profile)
        target = profiles[3]
        removed = router.unpublish(target.uri)
        assert removed == len(target.provided)
        assert router.shard_of(target.uri) is None
        assert router.unpublish(target.uri) == 0
        request = small_workload.matching_request(target)
        assert target.uri not in {row[0] for row in _rows(router.query(request))}


class TestPruning:
    def test_pruned_shards_hold_no_match(self, small_workload, small_table):
        router = ShardRouter(small_table, 8)
        router.publish_batch(small_workload.iter_services(40))
        pruned_total = 0
        for request in _requests(small_workload):
            admitted = set(router.admitted_shards(request))
            for index, shard in enumerate(router.shards):
                if index not in admitted:
                    pruned_total += 1
                    assert shard.query(request) == [], (
                        f"summary pruned shard {index} but it holds a match"
                    )
        assert pruned_total > 0, "workload never exercised the pruning path"

    def test_summaries_disabled_fans_out_everywhere(self, small_workload, small_table):
        router = ShardRouter(small_table, 5, use_summaries=False)
        router.publish_batch(small_workload.iter_services(10))
        request = small_workload.matching_request(small_workload.make_service(0))
        assert router.admitted_shards(request) == [0, 1, 2, 3, 4]


class TestEquality:
    """Sharded scatter/gather ≡ one unsharded directory, order included."""

    def test_flat_shards_match_unsharded(self, small_workload, small_table):
        router = ShardRouter(small_table, 8)
        flat = FlatDirectory(small_table, use_interval_index=False, use_batch_engine=True)
        for profile in small_workload.iter_services(60):
            router.publish(profile)
            flat.publish(profile)
        requests = _requests(small_workload)
        batched = router.query_batch(requests)
        for request, sharded in zip(requests, batched):
            assert _rows(sharded) == _rows(flat.query(request))
            assert _rows(router.query(request)) == _rows(sharded)

    def test_semantic_shards_match_unsharded(self, small_workload, small_table):
        # EXHAUSTIVE: GREEDY's cross-graph early exit is shard-local state,
        # so only the exhaustive mode is defined to be partition-invariant.
        sharded = ShardedSemanticDirectory(
            small_table, 4, query_mode=QueryMode.EXHAUSTIVE
        )
        single = SemanticDirectory(small_table, query_mode=QueryMode.EXHAUSTIVE)
        for profile in small_workload.iter_services(40):
            sharded.publish(profile)
            single.publish(profile)
        for request in _requests(small_workload):
            assert _rows(sharded.query(request)) == _rows(single.query(request))

    def test_equality_invariant_across_k(self, small_workload, small_table):
        requests = _requests(small_workload)
        reference = None
        for shard_count in (1, 2, 3, 8):
            router = ShardRouter(small_table, shard_count)
            router.publish_batch(small_workload.iter_services(50))
            answers = [_rows(rows) for rows in router.query_batch(requests)]
            if reference is None:
                reference = answers
            else:
                assert answers == reference, f"K={shard_count} diverged"


class TestResize:
    def test_merge_fast_path_preserves_content(self, small_workload, small_table):
        router = ShardRouter(small_table, 8)
        router.publish_batch(small_workload.iter_services(50))
        requests = _requests(small_workload)
        expected = [_rows(rows) for rows in router.query_batch(requests)]
        for shard_count in (4, 2, 1):
            router.resize(shard_count)
            assert router.shard_count == shard_count
            assert len(router) == 50
            assert [_rows(rows) for rows in router.query_batch(requests)] == expected

    def test_split_rehashes_to_canonical_placement(self, small_workload, small_table):
        router = ShardRouter(small_table, 2)
        router.publish_batch(small_workload.iter_services(40))
        requests = _requests(small_workload)
        expected = [_rows(rows) for rows in router.query_batch(requests)]
        router.resize(8)
        for profile in router.services():
            assert router.shard_of(profile.uri) == shard_index_for(
                service_shard_key(profile), 8
            )
        assert [_rows(rows) for rows in router.query_batch(requests)] == expected

    def test_resize_reports_moved_services(self, small_workload, small_table):
        router = ShardRouter(small_table, 8)
        router.publish_batch(small_workload.iter_services(30))
        before = dict(router._service_shard)
        moved = router.resize(4)
        after = router._service_shard
        assert moved == sum(1 for uri in after if before[uri] != after[uri])
        # Fast-path merge folds shard i onto i % 4 without rehashing.
        for uri, index in after.items():
            assert index == before[uri] % 4

    def test_pruning_still_sound_after_resize(self, small_workload, small_table):
        router = ShardRouter(small_table, 8)
        router.publish_batch(small_workload.iter_services(40))
        router.resize(4)
        for request in _requests(small_workload, count=8):
            admitted = set(router.admitted_shards(request))
            for index, shard in enumerate(router.shards):
                if index not in admitted:
                    assert shard.query(request) == []


class TestSnapshot:
    def test_round_trip_same_k(self, small_workload, small_table):
        router = ShardRouter(small_table, 4)
        router.publish_batch(small_workload.iter_services(25))
        restored = ShardRouter.from_state(router.export_state())
        assert restored.shard_count == 4
        assert restored.capability_count == router.capability_count
        for request in _requests(small_workload, count=8):
            assert _rows(restored.query(request)) == _rows(router.query(request))

    def test_restore_into_different_k_rebalances(self, small_workload, small_table):
        router = ShardRouter(small_table, 8)
        router.publish_batch(small_workload.iter_services(25))
        restored = ShardRouter.from_state(router.export_state(), shard_count=3)
        assert restored.shard_count == 3
        assert len(restored) == len(router)
        for request in _requests(small_workload, count=8):
            assert _rows(restored.query(request)) == _rows(router.query(request))

    def test_sharded_semantic_round_trip(self, small_workload, small_table):
        tier = ShardedSemanticDirectory(small_table, 4)
        tier.publish_batch(small_workload.iter_services(15))
        restored = ShardedSemanticDirectory.from_state(tier.export_state())
        assert restored.shard_count == 4
        assert restored.capability_count == tier.capability_count

    def test_malformed_snapshot_rejected(self, small_table):
        with pytest.raises(ValueError):
            ShardRouter.from_state("<NotDirectoryState/>")
        with pytest.raises(ValueError):
            ShardRouter.from_state("not xml at all")


class TestObservability:
    def test_scatter_metrics_and_rebalance_event(self, small_workload, small_table):
        events = []

        class _Sink:
            def emit_event(self, event):
                events.append(event)

        obs = Observability(sinks=[_Sink()])
        router = ShardRouter(small_table, 4)
        router.obs = obs
        router.publish_batch(small_workload.iter_services(20))
        requests = _requests(small_workload, count=6)
        router.query_batch(requests)
        assert obs.counter("dir.shard.queries").value == len(requests)
        fanout = obs.histogram("dir.shard.fanout")
        assert fanout.count == len(requests)
        assert 0 <= fanout.max <= 4
        assert obs.counter("dir.shard.publishes", shard="0").value >= 0

        router.resize(2, cause="unit_test")
        rebalance = [event for event in events if event.kind == "shard.rebalance"]
        assert len(rebalance) == 1
        assert rebalance[0].cause == "unit_test"
        assert rebalance[0].attrs["shards_before"] == 4
        assert rebalance[0].attrs["shards_after"] == 2
        assert rebalance[0].attrs["fast_merge"] is True
        assert obs.counter("dir.shard.rebalances").value == 1

        router.export_metrics()
        sizes = router.shard_sizes()
        for index, size in enumerate(sizes):
            assert (
                obs.counter("dir.shard.capabilities", shard=str(index)).value == size
            )

    def test_describe_reports_skew(self, small_workload, small_table):
        router = ShardRouter(small_table, 4)
        router.publish_batch(small_workload.iter_services(12))
        text = router.describe()
        assert "4 shards" in text
        assert "skew" in text
        assert router.skew() >= 1.0


class TestEngineCacheCoherence:
    """Packed tables are epoch-keyed caches: a publish, unpublish storm, or
    rebalance must invalidate them — a query may never see stale rows."""

    def test_unpublish_storm_never_serves_stale_rows(self, small_workload, small_table):
        directory = FlatDirectory(
            small_table, use_interval_index=False, use_batch_engine=True
        )
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
        directory = FlatDirectory(
            small_table, use_interval_index=False, use_batch_engine=True
        )
        late = small_workload.make_service(7)
        request = small_workload.matching_request(late)
        for profile in small_workload.iter_services(5):
            directory.publish(profile)
        directory.query(request)  # warm without `late` published
        directory.publish(late)
        assert late.uri in {row[0] for row in _rows(directory.query(request))}

    def test_rebalance_invalidates_every_shard_engine(
        self, small_workload, small_table
    ):
        router = ShardRouter(small_table, 8)
        router.publish_batch(small_workload.iter_services(20))
        late = small_workload.make_service(40)
        request = small_workload.matching_request(late)
        router.query(request)  # warm all admitted shard engines
        router.publish(late)
        router.resize(4)  # publish → rebalance → query: no stale tables
        assert late.uri in {row[0] for row in _rows(router.query(request))}
        router.unpublish(late.uri)
        router.resize(2)
        assert late.uri not in {row[0] for row in _rows(router.query(request))}

    @settings(max_examples=25, deadline=None)
    @given(ops=st.lists(st.tuples(st.booleans(), st.integers(0, 11)), max_size=14))
    def test_interleaved_churn_equals_scalar_rebuild(
        self, small_workload, small_table, ops
    ):
        """Any publish/unpublish interleaving: the epoch-cached packed
        engine answers exactly like a scalar directory fed the same ops,
        with a query (cache warm) forced between every mutation."""
        cached = FlatDirectory(
            small_table, use_interval_index=False, use_batch_engine=True
        )
        scalar = FlatDirectory(
            small_table, use_interval_index=False, use_batch_engine=False
        )
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
