"""Experiment E5 — Fig. 9: time to match a service request.

Paper setting (§5): directories caching 1→100 services answer a
single-capability request; the classified (optimized) directory is
compared with an unclassified one.  Findings to reproduce in shape:

* the non-optimized directory is meaningfully slower (paper: ~+50 %);
* the optimized directory's response time is nearly constant in the
  directory size and in the order of a few milliseconds at most (ours is
  well below — 2026 hardware and no 2006 XML stack);
* results are reported without request parse time, as in the paper.

A third series shows the flat directory on its default path
(docs/PERFORMANCE.md): identical result sets, but the entries that can
match are preselected from a concept index over subsumer maps and scored
by the subsumer-map kernel instead of scanning every cached capability.
Each point is the median of 50 warm queries.
"""

from __future__ import annotations

import pytest

from benchmarks._report import save_report
from repro.core.directory import FlatDirectory, SemanticDirectory
from repro.services.generator import ServiceWorkload

DIRECTORY_SIZES = [1, 20, 40, 60, 80, 100]


@pytest.fixture(scope="module")
def populations(directory_workload: ServiceWorkload, directory_table):
    classified = {}
    flat = {}
    flat_indexed = {}
    for size in DIRECTORY_SIZES:
        semantic = SemanticDirectory(directory_table)
        # The paper's non-optimized baseline is a genuine linear scan.
        baseline = FlatDirectory(directory_table, use_concept_index=False)
        indexed = FlatDirectory(directory_table)
        profiles = [directory_workload.make_service(index) for index in range(size)]
        semantic.publish_batch(profiles)
        baseline.publish_batch(profiles)
        indexed.publish_batch(profiles)
        classified[size] = semantic
        flat[size] = baseline
        flat_indexed[size] = indexed
    # Target service 0 so the request has a genuine answer at every size.
    request = directory_workload.matching_request(directory_workload.make_service(0))
    return classified, flat, flat_indexed, request


def test_optimized_query_100(benchmark, populations):
    classified, _flat, _flat_indexed, request = populations
    hits = benchmark(classified[100].query, request)
    assert hits


def test_flat_query_100(benchmark, populations):
    _classified, flat, _flat_indexed, request = populations
    hits = benchmark(flat[100].query, request)
    assert hits


def test_flat_indexed_query_100(benchmark, populations):
    """Flat directory on the concept index and kernel — same results."""
    _classified, flat, flat_indexed, request = populations
    hits = benchmark(flat_indexed[100].query, request)
    assert hits

    def key(match):
        return (match.distance, match.service_uri, match.capability.uri)

    assert sorted(hits, key=key) == sorted(flat[100].query(request), key=key)


def test_fig9_report(benchmark):
    """Regenerates the Fig. 9 series: optimized vs non-optimized."""
    from repro.experiments import fig9_match_request

    result = fig9_match_request()
    flat_times = [result.extras[f"flat_{size}"] for size in DIRECTORY_SIZES]
    indexed_times = [result.extras[f"flat_indexed_{size}"] for size in DIRECTORY_SIZES]
    optimized_times = [result.extras[f"optimized_{size}"] for size in DIRECTORY_SIZES]
    # Shape checks: flat degrades with size, classified stays flatter and
    # is faster at the maximum size, and the indexed flat directory beats
    # the linear scan decisively at the maximum size.
    assert flat_times[-1] > flat_times[0]
    assert flat_times[-1] > optimized_times[-1]
    flat_growth = flat_times[-1] / max(flat_times[0], 1e-9)
    optimized_growth = optimized_times[-1] / max(optimized_times[0], 1e-9)
    assert optimized_growth < flat_growth
    assert flat_times[-1] > 1.5 * indexed_times[-1]
    units = {
        name: "ratio" if name.endswith("_at_max") else "seconds"
        for name in result.extras
    }
    save_report(
        "fig9_match_request",
        result.render(),
        metrics=result.extras,
        config={"sizes": DIRECTORY_SIZES, "seed": 42},
        units=units,
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
