"""Query-engine microbenchmarks: distance cache, concept index, batching.

Workload: a directory caching 100 services answers a Zipf-distributed
request stream (rank weight ``1/rank^1.1``) over 30 distinct requests —
the skew a pervasive environment produces when a few popular capabilities
(printing, media rendering) dominate discovery traffic.  Reported series:

* **cold vs warm** — the same request stream against a freshly
  published :class:`SemanticDirectory` and the stream again on the same
  directory, with the shared distance cache's hit rate.  A hit or miss is
  one whole entry: a concept's subsumer map, or a compiled requested
  capability on the query path (``docs/PERFORMANCE.md``, "Subsumer
  maps"), not a concept pair.  ``query_batch`` compiles each distinct
  capability once and every map is fetched on first use, so the rates
  read low even when little work is left;
* **flat linear vs flat indexed** — the Fig. 9 baseline scan against the
  same directory on its default path: entries preselected by a concept
  index over subsumer maps and scored by the subsumer-map kernel;
* **batch vs one-at-a-time** — ``query_batch`` against a Python-level
  query loop.

Results land in ``benchmarks/results/query_cache.txt``.
"""

from __future__ import annotations

import random
import time

import pytest

from benchmarks._report import save_report, series_table
from repro.core.directory import FlatDirectory, SemanticDirectory
from repro.services.generator import ServiceWorkload

SERVICES = 100
DISTINCT_REQUESTS = 30
STREAM_LENGTH = 300
ZIPF_EXPONENT = 1.1
SEED = 2006


def zipf_stream(requests, length=STREAM_LENGTH, seed=SEED):
    """A Zipf-weighted sample of the distinct requests, rank 1 heaviest."""
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(requests))]
    return rng.choices(requests, weights=weights, k=length)


@pytest.fixture(scope="module")
def query_workload(directory_workload: ServiceWorkload, directory_table):
    profiles = [directory_workload.make_service(index) for index in range(SERVICES)]
    requests = [
        directory_workload.matching_request(profiles[index])
        for index in range(DISTINCT_REQUESTS)
    ]
    return profiles, zipf_stream(requests)


def _fresh_semantic(directory_table, profiles) -> SemanticDirectory:
    directory = SemanticDirectory(directory_table)
    directory.publish_batch(profiles)
    return directory


def _mean_us(fn, repeats: int) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats * 1e6


def test_semantic_warm_stream(benchmark, directory_table, query_workload):
    """Steady-state: the Zipf stream against a hot distance cache."""
    profiles, stream = query_workload
    directory = _fresh_semantic(directory_table, profiles)
    directory.query_batch(stream)  # warm the cache
    result = benchmark(directory.query_batch, stream)
    assert len(result) == len(stream)
    assert directory.distance_cache.stats.hit_rate > 0.5


def test_flat_indexed_stream(benchmark, directory_table, query_workload):
    profiles, stream = query_workload
    directory = FlatDirectory(directory_table)
    directory.publish_batch(profiles)
    result = benchmark(directory.query_batch, stream)
    assert len(result) == len(stream)


def test_flat_linear_stream(benchmark, directory_table, query_workload):
    profiles, stream = query_workload
    directory = FlatDirectory(directory_table, use_concept_index=False)
    directory.publish_batch(profiles)
    result = benchmark(directory.query_batch, stream)
    assert len(result) == len(stream)


def test_query_cache_report(benchmark, directory_table, query_workload):
    """The committed series: cold/warm, linear/indexed, loop/batch."""
    profiles, stream = query_workload
    rows: list[list[object]] = []

    # -- cold vs warm (per-query µs over the whole stream) ---------------
    cold_directory = _fresh_semantic(directory_table, profiles)
    cold_start = time.perf_counter()
    cold_directory.query_batch(stream)
    cold_us = (time.perf_counter() - cold_start) / len(stream) * 1e6
    cold_hit_rate = cold_directory.distance_cache.stats.hit_rate

    warm_us = _mean_us(lambda: cold_directory.query_batch(stream), repeats=3) / len(stream)
    warm_hit_rate = cold_directory.distance_cache.stats.hit_rate
    rows.append(["semantic cold", f"{cold_us:.1f}", f"{cold_hit_rate:.1%}"])
    rows.append(["semantic warm", f"{warm_us:.1f}", f"{warm_hit_rate:.1%}"])

    # -- flat linear vs flat indexed -------------------------------------
    linear = FlatDirectory(directory_table, use_concept_index=False)
    linear.publish_batch(profiles)
    indexed = FlatDirectory(directory_table)
    indexed.publish_batch(profiles)
    linear_us = _mean_us(lambda: linear.query_batch(stream), repeats=2) / len(stream)
    indexed_us = _mean_us(lambda: indexed.query_batch(stream), repeats=2) / len(stream)
    rows.append(["flat linear", f"{linear_us:.1f}", "-"])
    rows.append(["flat indexed", f"{indexed_us:.1f}", "-"])

    # -- batch vs one-at-a-time ------------------------------------------
    warm = cold_directory

    def loop():
        for request in stream:
            warm.query(request)

    loop_us = _mean_us(loop, repeats=3) / len(stream)
    batch_us = _mean_us(lambda: warm.query_batch(stream), repeats=3) / len(stream)
    rows.append(["semantic loop", f"{loop_us:.1f}", "-"])
    rows.append(["semantic batch", f"{batch_us:.1f}", "-"])

    # Shape assertions mirroring docs/PERFORMANCE.md's claims.
    assert warm_us <= cold_us
    assert indexed_us < linear_us
    assert batch_us <= loop_us * 1.1  # batching never meaningfully worse
    assert warm_hit_rate > 0.5

    table = series_table(["configuration", "us/query", "cache hit rate"], rows)
    notes = "\n".join(
        [
            f"{SERVICES} services, {DISTINCT_REQUESTS} distinct requests, "
            f"Zipf(s={ZIPF_EXPONENT}) stream of {STREAM_LENGTH}",
            f"concept-index speedup over linear flat scan: {linear_us / indexed_us:.1f}x",
        ]
    )
    save_report(
        "query_cache",
        f"{table}\n\n{notes}",
        metrics={
            "cold_us_per_query": (cold_us, "us"),
            "warm_us_per_query": (warm_us, "us"),
            "flat_linear_us_per_query": (linear_us, "us"),
            "flat_indexed_us_per_query": (indexed_us, "us"),
            "semantic_loop_us_per_query": (loop_us, "us"),
            "semantic_batch_us_per_query": (batch_us, "us"),
            "warm_hit_rate": (warm_hit_rate, "fraction"),
        },
        config={
            "services": SERVICES,
            "distinct_requests": DISTINCT_REQUESTS,
            "zipf_exponent": ZIPF_EXPONENT,
            "stream_length": STREAM_LENGTH,
            "seed": SEED,
            "workload_seed": 42,
        },
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
