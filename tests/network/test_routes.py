"""Route cache soundness: cached answers == fresh BFS, under churn.

The fabric's :class:`~repro.network.topology.RouteCache` replaces a
fresh O(n²) breadth-first search per unicast/peer probe.  These tests
pin the contract that makes that safe: after *any* topology mutation —
moves, wired-link changes, node insertion, even direct position writes
that bypass the invalidation hooks — every cached hop count and path
must agree with the uncached reference BFS.
"""

import random

import pytest

from repro.network.node import Network
from repro.network.simulator import Simulator
from repro.network.topology import Bounds, Position


def make_network(node_count=12, seed=0, radio_range=140.0):
    rng = random.Random(seed)
    network = Network(Simulator(), bounds=Bounds(400, 400), radio_range=radio_range)
    for nid in range(node_count):
        network.add_node(nid, Position(rng.uniform(0, 400), rng.uniform(0, 400)))
    return network, rng


def assert_routes_match_reference(network):
    """Every (source, dest) pair: cached hops/path == fresh BFS."""
    ids = list(network.nodes)
    for source in ids:
        for dest in ids:
            reference = network._bfs_shortest_path(source, dest)
            cached_hops = network.hop_count(source, dest)
            cached_path = network.shortest_path(source, dest)
            if reference is None:
                assert cached_hops is None and cached_path is None
            else:
                assert cached_hops == len(reference) - 1
                assert cached_path is not None
                assert len(cached_path) == len(reference)
                assert cached_path[0] == source and cached_path[-1] == dest
                # The cached path must be walkable on the real topology.
                for a, b in zip(cached_path, cached_path[1:]):
                    assert b in {n.node_id for n in network.neighbors(a)}


class TestRouteCacheChurn:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_cached_routes_equal_fresh_bfs_under_churn(self, seed):
        network, rng = make_network(seed=seed)
        assert_routes_match_reference(network)  # cold cache
        next_id = len(network.nodes)
        for step in range(15):
            op = rng.choice(["move", "wire", "unwire", "add", "raw_move"])
            ids = list(network.nodes)
            if op == "move":
                network.move_node(
                    rng.choice(ids), Position(rng.uniform(0, 400), rng.uniform(0, 400))
                )
            elif op == "wire":
                a, b = rng.sample(ids, 2)
                network.add_wired_link(a, b)
            elif op == "unwire":
                a, b = rng.sample(ids, 2)
                network.remove_wired_link(a, b)
            elif op == "add":
                network.add_node(
                    next_id, Position(rng.uniform(0, 400), rng.uniform(0, 400))
                )
                next_id += 1
            else:
                # Direct position write, bypassing move_node's invalidate —
                # the fingerprint check must still catch it.
                node = network.nodes[rng.choice(ids)]
                node.position = Position(rng.uniform(0, 400), rng.uniform(0, 400))
            assert_routes_match_reference(network)

    def test_direct_position_write_flushes_via_fingerprint(self):
        network = Network(Simulator(), radio_range=120.0)
        network.add_node(0, Position(0, 0))
        network.add_node(1, Position(100, 0))
        network.add_node(2, Position(200, 0))
        assert network.hop_count(0, 2) == 2
        # Teleport node 1 out of range without telling the network.
        network.nodes[1].position = Position(1000, 1000)
        assert network.hop_count(0, 2) is None
        assert network.shortest_path(0, 2) is None

    def test_stable_topology_runs_one_bfs_per_source(self):
        network, _rng = make_network(seed=5)
        ids = list(network.nodes)
        for _ in range(3):
            for source in ids:
                for dest in ids:
                    network.hop_count(source, dest)
        assert network.routes.stats.bfs_runs == len(ids)
        assert network.routes.stats.hits > 0

    def test_invalidate_bumps_epoch_and_reruns_bfs(self):
        network, _rng = make_network(seed=6)
        network.hop_count(0, 1)
        runs_before = network.routes.stats.bfs_runs
        epoch_before = network.routes.epoch
        network.add_wired_link(0, 1)
        assert network.routes.epoch > epoch_before
        assert network.hop_count(0, 1) == 1  # wired link short-circuits
        assert network.routes.stats.bfs_runs > runs_before

    def test_cached_routes_match_reference(self):
        network, _rng = make_network(seed=7)
        for source in network.nodes:
            for dest in network.nodes:
                reference = network._bfs_shortest_path(source, dest)
                assert network.shortest_path(source, dest) == reference
                expected = None if reference is None else len(reference) - 1
                assert network.hop_count(source, dest) == expected

    def test_self_route(self):
        network, _rng = make_network(node_count=3, seed=8)
        assert network.hop_count(1, 1) == 0
        assert network.shortest_path(1, 1) == [1]
