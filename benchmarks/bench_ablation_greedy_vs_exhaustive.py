"""Ablation — the paper's greedy root-descent query vs exhaustive search.

The §3.3 query algorithm matches the request against graph roots and
descends toward the minimum semantic distance.  This ablation quantifies
what the heuristic trades away: number of capability matches evaluated
(its whole point) and answer quality (best distance found) against an
exhaustive evaluation of every vertex.
"""

from __future__ import annotations

import pytest

from benchmarks._report import save_report, series_table
from repro.core.capability_graph import QueryMode
from repro.core.directory import SemanticDirectory
from repro.core.matching import CodeMatcher
from repro.services.generator import ServiceWorkload

SIZES = [20, 60, 100]
QUERIES = 30


@pytest.fixture(scope="module")
def directories(directory_workload: ServiceWorkload, directory_table):
    built = {}
    for mode in QueryMode:
        per_size = {}
        for size in SIZES:
            directory = SemanticDirectory(directory_table, query_mode=mode)
            for index in range(size):
                directory.publish(directory_workload.make_service(index))
            per_size[size] = directory
        built[mode] = per_size
    return built


@pytest.mark.parametrize("mode", list(QueryMode), ids=lambda m: m.value)
def test_query_mode(benchmark, directories, directory_workload, mode):
    directory = directories[mode][100]
    request = directory_workload.matching_request(directory_workload.make_service(3))
    hits = benchmark(directory.query, request)
    assert hits


def test_ablation_report(benchmark, directories, directory_workload, directory_table):
    rows = []
    for size in SIZES:
        stats = {}
        for mode in QueryMode:
            directory = directories[mode][size]
            matches_used = 0
            distances = []
            answered = 0
            for index in range(min(QUERIES, size)):
                request = directory_workload.matching_request(
                    directory_workload.make_service(index)
                )
                matcher = CodeMatcher(table=directory_table)
                hits = []
                for capability in request.capabilities:
                    # Every graph: one holding no candidate runs no match.
                    for graph in directory.graphs().values():
                        hits.extend(graph.query(capability, matcher, mode))
                matches_used += matcher.stats.capability_matches
                if hits:
                    answered += 1
                    distances.append(min(h.distance for h in hits))
            stats[mode] = (matches_used, answered, distances)
        greedy_matches, greedy_answered, greedy_distances = stats[QueryMode.GREEDY]
        full_matches, full_answered, full_distances = stats[QueryMode.EXHAUSTIVE]
        # Greedy must not lose answers or return worse best-distances here.
        assert greedy_answered == full_answered
        assert greedy_distances == full_distances
        rows.append(
            [
                size,
                greedy_matches,
                full_matches,
                f"{full_matches / max(greedy_matches, 1):.1f}x",
                greedy_answered,
            ]
        )
    table = series_table(
        ["services", "greedy matches", "exhaustive matches", "savings", "answered"],
        rows,
    )
    table += "\ngreedy answers matched exhaustive answers (same best distances) on this workload"
    metrics = {}
    for row in rows:
        metrics[f"greedy_matches_{row[0]}"] = row[1]
        metrics[f"exhaustive_matches_{row[0]}"] = row[2]
    save_report(
        "ablation_greedy_vs_exhaustive",
        table,
        metrics=metrics,
        config={"sizes": [row[0] for row in rows], "workload_seed": 42},
        units="capability matches",
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
