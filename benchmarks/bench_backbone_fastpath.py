"""Backbone fast path: parse-once forwarding + route caching.

Fig. 10-style deployment scaled to the network layer: 50 nodes on a
connected grid, 4 of them elected S-Ariadne directories, advertisements
spread across all four so most queries must be forwarded over the §4
backbone.  Directories parse each request once (content-addressed
request cache), forward ``EncodedRequest`` wire forms so peers skip the
XML parse, and the fabric answers hop counts from its route cache.

The headline assertion is deterministic, not wall-clock: per-query
forwarding overhead = XML request parses + shortest-path computations
(both counted, not timed) must stay at or below
:data:`MAX_OVERHEAD_PER_QUERY` on every seed, every query must find its
service, and every node pair's cached hop count must equal a fresh BFS.
Wall-clock queries/sec and simulated per-hop latency are reported
alongside.
"""

from __future__ import annotations

import os
import random
import time

import pytest

from benchmarks._report import save_report, series_table
from repro.network.messages import PublishService
from repro.network.node import Network
from repro.network.simulator import Simulator
from repro.network.topology import Bounds, grid_positions
from repro.protocols.sariadne import SAriadneClientAgent, SAriadneDirectoryAgent
from repro.services.xml_codec import CODEC_STATS, profile_to_xml, request_to_xml

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
#: Traced mode: repeat the fast workload with observability enabled and
#: write a JSONL trace with the per-hop breakdown of every forwarded query.
TRACE = bool(os.environ.get("REPRO_BENCH_TRACE"))
NODE_COUNT = 50
DIRECTORY_COUNT = 4
SERVICES = 8 if SMOKE else 20
DISTINCT_QUERIES = 4 if SMOKE else 10
QUERY_REPEATS = 2  # every distinct request issued twice: cold then warm
SEEDS = [0] if SMOKE else [0, 1, 2]
#: Ceiling on parses + route computations per query.  A third of the
#: smallest per-query overhead measured when every probe re-parsed the
#: document and every send ran its own BFS (8.25, smoke seed 0); the
#: cached path reads 1.1-1.5.
MAX_OVERHEAD_PER_QUERY = 2.75
BOUNDS = Bounds(600.0, 600.0)
RADIO_RANGE = 130.0


@pytest.fixture(scope="module")
def documents(directory_workload, directory_table):
    """Annotated advertisement + request documents (built once)."""
    table = directory_table
    adverts = []
    for index in range(SERVICES):
        profile = directory_workload.make_service(index)
        adverts.append(
            (
                profile.uri,
                profile_to_xml(
                    profile,
                    annotations=table.annotate(profile.provided),
                    codes_version=table.version,
                ),
            )
        )
    requests = []
    for index in range(DISTINCT_QUERIES):
        profile = directory_workload.make_service(index)
        request = directory_workload.matching_request(profile)
        requests.append(
            (
                profile.uri,
                request_to_xml(
                    request,
                    annotations=table.annotate(request.capabilities),
                    codes_version=table.version,
                ),
            )
        )
    return adverts, requests


def build_backbone(table, seed: int):
    """50-node grid, 4 directories, clients homed on the nearest one."""
    rng = random.Random(seed)
    sim = Simulator()
    network = Network(sim, bounds=BOUNDS, radio_range=RADIO_RANGE, seed=seed)
    positions = grid_positions(NODE_COUNT, BOUNDS)
    for node_id in range(NODE_COUNT):
        network.add_node(node_id, positions[node_id])
    assert network.is_connected()
    directory_ids = sorted(rng.sample(range(NODE_COUNT), DIRECTORY_COUNT))
    directories = {}
    for node_id in directory_ids:
        directories[node_id] = network.nodes[node_id].add_agent(
            SAriadneDirectoryAgent(table, forward_window=0.5)
        )

    def nearest_directory(node_id: int) -> int:
        position = network.nodes[node_id].position
        return min(
            directory_ids,
            key=lambda d: (position.distance_to(network.nodes[d].position), d),
        )

    clients = {}
    for node_id in range(NODE_COUNT):
        if node_id in directories:
            continue
        clients[node_id] = network.nodes[node_id].add_agent(
            SAriadneClientAgent(lambda nid=node_id: nearest_directory(nid))
        )
    network.start()
    for agent in directories.values():
        agent.join_backbone()
    sim.run(until=10.0)
    return sim, network, directories, clients, directory_ids


def run_workload(table, documents, seed: int, obs=None):
    """Publish, settle, query; returns the workload's counters.

    When ``obs`` is given it is installed over the deployment before the
    workload runs, so the trace captures every forwarding hop.
    """
    adverts, requests = documents
    sim, network, directories, clients, directory_ids = build_backbone(table, seed)
    if obs is not None:
        from repro.obs import install

        install(obs, network)
    rng = random.Random(seed + 1000)
    client_ids = sorted(clients)
    for index, (_uri, document) in enumerate(adverts):
        home = directory_ids[index % DIRECTORY_COUNT]
        publisher = rng.choice(client_ids)
        network.nodes[publisher].unicast(home, PublishService(document))
    sim.run(until=sim.now + 10.0)  # summaries settle

    parses_before = CODEC_STATS.snapshot()
    routes_before = network.routes.stats.bfs_runs
    results = []
    latencies = []
    start = time.perf_counter()
    for repeat in range(QUERY_REPEATS):
        for index, (uri, document) in enumerate(requests):
            client_id = client_ids[(seed + 7 * index + repeat) % len(client_ids)]
            client = clients[client_id]
            query_id = client.query(document)
            sim.run(until=sim.now + 5.0)
            latency, rows = client.responses[query_id]
            results.append((client_id, uri, rows))
            latencies.append(latency)
    wall_seconds = time.perf_counter() - start
    parses_after = CODEC_STATS.snapshot()
    routes_after = network.routes.stats.bfs_runs
    # Per-hop latency is derived after the counter window closes so these
    # harness-side route lookups don't pollute the overhead metric.
    per_hop = [
        latency / max(network.hop_count(client_id, clients[client_id].directory_id()) or 1, 1)
        for (client_id, _uri, _rows), latency in zip(results, latencies)
    ]

    query_count = QUERY_REPEATS * len(requests)
    counters = {
        "request_parses": parses_after[1] - parses_before[1],
        "route_computations": routes_after - routes_before,
        "queries": query_count,
        "wall_seconds": wall_seconds,
        "mean_latency": sum(latencies) / len(latencies),
        "mean_per_hop_latency": sum(per_hop) / len(per_hop),
        "recall": sum(
            1 for _cid, uri, rows in results if any(r[0] == uri for r in rows)
        )
        / query_count,
    }
    # Hop-count parity: the cached answers must equal a fresh BFS for
    # every (client, directory) pair on this topology.
    for client_id in client_ids:
        for directory_id in directory_ids:
            reference = network._bfs_shortest_path(client_id, directory_id)
            expected = None if reference is None else len(reference) - 1
            assert network.hop_count(client_id, directory_id) == expected
    return counters


def overhead_per_query(counters: dict) -> float:
    return (counters["request_parses"] + counters["route_computations"]) / counters[
        "queries"
    ]


def test_backbone_fastpath_report(benchmark, directory_table, documents):
    rows = []
    metrics = {}
    overheads = []
    for seed in SEEDS:
        fast = run_workload(directory_table, documents, seed)
        assert fast["recall"] == 1.0, f"seed {seed}: recall {fast['recall']}"
        overhead = overhead_per_query(fast)
        overheads.append(overhead)
        rows.append(
            [
                seed,
                f"{overhead:.2f}",
                fast["request_parses"],
                fast["route_computations"],
                f"{fast['queries'] / fast['wall_seconds']:.0f}",
                f"{fast['mean_per_hop_latency'] * 1e3:.2f}",
            ]
        )
        metrics[f"overhead_fast_{seed}"] = (overhead, "parses+route computations per query")
        metrics[f"queries_per_sec_fast_{seed}"] = (
            fast["queries"] / fast["wall_seconds"],
            "queries/s",
        )
        metrics[f"per_hop_latency_fast_{seed}"] = (
            fast["mean_per_hop_latency"],
            "seconds",
        )
        metrics[f"cold_request_parses_{seed}"] = (fast["request_parses"], "parses")
    # The headline claim: bounded per-query forwarding overhead on every
    # seed, with every query answered (asserted above).
    for seed, overhead in zip(SEEDS, overheads):
        assert overhead <= MAX_OVERHEAD_PER_QUERY, (
            f"seed {seed}: {overhead:.2f} parses+route computations per query"
        )
    table = series_table(
        ["seed", "ovh/query", "parses", "route comps", "q/s", "per-hop ms"],
        rows,
    )
    table += (
        "\noverhead = XML request parses + shortest-path computations (deterministic"
        "\ncounters, not wall-clock); every query answered and every cached hop count"
        f"\nequal to a fresh BFS; ceiling {MAX_OVERHEAD_PER_QUERY} per query"
        "\ncold vs warm: a directory parses a request document once and repeats hit"
        f" its request cache ({DISTINCT_QUERIES} distinct requests,"
        f" {QUERY_REPEATS * DISTINCT_QUERIES} queries)"
    )
    save_report(
        "backbone_fastpath",
        table,
        metrics=metrics,
        config={
            "nodes": NODE_COUNT,
            "directories": DIRECTORY_COUNT,
            "services": SERVICES,
            "distinct_queries": DISTINCT_QUERIES,
            "query_repeats": QUERY_REPEATS,
            "seeds": SEEDS,
        },
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


@pytest.mark.skipif(not TRACE, reason="set REPRO_BENCH_TRACE=1 for the traced mode")
def test_backbone_fastpath_traced(directory_table, documents):
    """Traced mode: one fast-path workload with observability enabled.

    Writes ``benchmarks/results/trace_backbone_fastpath.jsonl`` and
    asserts the rendered report shows per-hop spans for every forwarded
    query (hop.forward at the origin, hop.remote at each answering peer).
    """
    import pathlib

    from repro.obs import JsonlSink, Observability, RingBufferSink
    from repro.obs.report import load_trace, render_trace_report

    outdir = pathlib.Path(__file__).parent / "results"
    outdir.mkdir(exist_ok=True)
    trace_path = outdir / "trace_backbone_fastpath.jsonl"
    ring = RingBufferSink()
    with JsonlSink(trace_path) as jsonl:
        obs = Observability(sinks=[ring, jsonl])
        counters = run_workload(directory_table, documents, SEEDS[0], obs=obs)
        obs.close()
    assert counters["recall"] == 1.0
    spans, metrics = load_trace(trace_path)
    report = render_trace_report(spans, metrics)
    def names(record):
        yield record["name"]
        for child in record.get("children", []):
            yield from names(child)

    handled = [s for s in spans if s["name"] == "query.handle"]
    assert handled
    forwarded = [s for s in handled if "hop.forward" in set(names(s))]
    assert forwarded, "no forwarded queries captured in the trace"
    assert "hop.forward" in report and "hop.remote" in report
    assert "net.messages" in report
    print(report)


def test_route_cache_amortizes_bfs(directory_table, documents):
    """Cold vs warm route cache: steady-state queries run no new BFS."""
    sim, network, _directories, clients, directory_ids = build_backbone(
        directory_table, seed=0
    )
    client_ids = sorted(clients)
    for client_id in client_ids:
        for directory_id in directory_ids:
            network.hop_count(client_id, directory_id)
    warm_runs = network.routes.stats.bfs_runs
    for client_id in client_ids:
        for directory_id in directory_ids:
            network.hop_count(client_id, directory_id)
    assert network.routes.stats.bfs_runs == warm_runs  # fully amortized
    assert warm_runs <= len(client_ids) + len(directory_ids)
