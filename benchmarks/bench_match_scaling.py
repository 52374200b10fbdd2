"""Flat directory scaling: per-query latency from 10² to 10⁵⁺.

The flat directory's default path preselects the entries that can match
from a concept index over subsumer maps (the one the capability graphs
keep) and scores only those with the subsumer-map kernel; this sweep
pits it against the scalar per-entry matcher on identical content:

* ``scalar`` — ``FlatDirectory(use_concept_index=False)``: the paper's
  linear scan, one ``match_outcome`` per cached capability (measured only
  up to 10⁴ entries; beyond that it is minutes per point);
* ``batch`` — ``FlatDirectory(table)``: the concept index and kernel over
  the same flat list.  "pruned %" is the share of entries one query
  never scores (from the ``capability_matches`` counter).

A second table times one *unselective* request (every leaf of two
ontologies as inputs, one leaf output, like the live benchmark's
``broad_match`` mix) on both directory kinds at every size: the flat
``batch`` path and ``SemanticDirectory``, whose one concept-index probe
spans all of its capability graphs and whose one pass scores the
candidates of all of them.  Their rows must agree (greedy mode may drop
graphs only after a perfect match), and the table also counts the
semantic matches each kind runs for the request, a deterministic counter.

A third table times soft-state re-publication on the live benchmark's
catalog (4096 annotated advertisements at seed 7, the documents a
``repro.cli serve`` directory receives): every document is published
once, then each is published again, which withdraws the held copy and
classifies the new one.  It reports microseconds per service (median of
``REPUBLISH_PASSES`` passes) and the semantic matches per capability
insertion, a deterministic counter (docs/PERFORMANCE.md,
*Subsumee-direction pruning at insertion*).

Gates (hard asserts, also exported for ``obs regress``):

* batch and scalar return identical match sets at every co-measured size;
* batch is ≥ 3× faster than scalar at 10⁴ capabilities;
* batch per-query latency stays within 20× from 10² to the largest size
  measured (near-flat on log-log; the scalar path grows ~100× per decade);
* the semantic directory runs no more semantic matches for the
  unselective request than the flat one, at every size;
* re-publication runs fewer than one semantic match per insertion (one
  per leaf of the target graph, ~17, before insertion was prefiltered).

Smoke mode (``REPRO_BENCH_SMOKE=1``) sweeps 10²–10⁴; the full run adds
10⁵, and ``REPRO_BENCH_XL=1`` adds 10⁶ (minutes of publish time alone).
"""

from __future__ import annotations

import os
import statistics
import time

from benchmarks._report import save_report
from repro.core.codes import CodeTable
from repro.core.directory import FlatDirectory, SemanticDirectory
from repro.ontology.registry import OntologyRegistry
from repro.protocols.deployment import DeploymentConfig
from repro.protocols.live_deploy import annotated_profile_doc, build_catalog
from repro.services.generator import ServiceWorkload, WorkloadShape
from repro.services.profile import Capability, ServiceRequest

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
XL = bool(os.environ.get("REPRO_BENCH_XL"))

SIZES = [100, 1_000, 10_000] if SMOKE else [100, 1_000, 10_000, 100_000]
if XL and not SMOKE:
    SIZES.append(1_000_000)
#: Largest size the scalar linear scan is measured at.
SCALAR_CAP = 10_000
#: The size the ≥3× speedup floor is gated at.
GATE_SIZE = 10_000
SPEEDUP_FLOOR = 3.0
#: The re-publication catalog: the live benchmark's seed and size.
REPUBLISH_SEED = 7
REPUBLISH_SERVICES = 4096
REPUBLISH_PASSES = 3


def _mean_query_seconds(fn, repeats: int) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats


def _repeats_for(size: int) -> int:
    return max(3, min(30, 300_000 // size))


def _canon(matches) -> list[tuple[str, str, int]]:
    return sorted((m.service_uri, m.capability.uri, m.distance) for m in matches)


def _unselective_request(workload: ServiceWorkload) -> ServiceRequest:
    """Every leaf of the first two ontologies as inputs, the first one's
    first leaf as the output."""
    taxonomy = workload.taxonomy
    leaves = [
        sorted(
            concept
            for concept in ontology.concepts
            if not taxonomy.children(taxonomy.canonical(concept))
        )
        for ontology in workload.ontologies[:2]
    ]
    capability = Capability.build(
        uri="urn:repro:request:unselective",
        name="Unselective",
        inputs=leaves[0] + leaves[1],
        outputs=leaves[0][:1],
    )
    return ServiceRequest(uri="urn:repro:request:u", capabilities=(capability,))


def _republish(metrics: dict[str, object]) -> list[str]:
    """Re-publish the seed-7 catalog; record and gate its cost."""
    config = DeploymentConfig(node_count=2, protocol="sariadne", seed=REPUBLISH_SEED)
    workload, table = build_catalog(config)
    catalog = [annotated_profile_doc(workload, table, i) for i in range(REPUBLISH_SERVICES)]
    inserts = sum(len(profile.provided) for profile, _document in catalog)
    directory = SemanticDirectory(table)
    for _profile, document in catalog:
        directory.publish_xml(document)
    timings = []
    for _ in range(REPUBLISH_PASSES):
        before = directory.stats.capability_matches
        start = time.perf_counter()
        for _profile, document in catalog:
            directory.publish_xml(document)
        timings.append((time.perf_counter() - start) / REPUBLISH_SERVICES)
        matches = directory.stats.capability_matches - before
    per_service_us = statistics.median(timings) * 1e6
    per_insert = matches / inserts
    metrics["republish_us_per_service"] = per_service_us
    metrics["republish_matches_per_insert"] = per_insert
    assert per_insert < 1.0, (
        f"re-publication ran {per_insert:.2f} semantic matches per insertion"
    )
    return [
        f"re-publication, seed-{REPUBLISH_SEED} catalog of {REPUBLISH_SERVICES} services "
        f"({inserts} capabilities), median of {REPUBLISH_PASSES} passes:",
        f"{per_service_us:.1f} us per service, {matches} semantic matches "
        f"({per_insert:.3f} per insertion)",
    ]


def test_match_scaling_report():
    workload = ServiceWorkload(WorkloadShape(), seed=42)
    table = CodeTable(OntologyRegistry(workload.ontologies))
    request = workload.matching_request(workload.make_service(0))
    unselective = _unselective_request(workload)

    metrics: dict[str, object] = {}
    lines = [
        f"{'capabilities':>12} {'scalar ms':>12} {'batch ms':>12} "
        f"{'speedup':>9} {'pruned %':>9}",
    ]
    unselective_lines = [
        f"{'capabilities':>12} {'flat ms':>12} {'semantic ms':>12} {'rows':>6} "
        f"{'flat matches':>13} {'semantic matches':>17}",
    ]
    batch_series: dict[int, float] = {}
    scalar_series: dict[int, float] = {}

    for size in SIZES:
        batch_dir = FlatDirectory(table)
        scalar_dir = FlatDirectory(table, use_concept_index=False)
        semantic_dir = SemanticDirectory(table)
        measure_scalar = size <= SCALAR_CAP
        # iter_services streams the population: no profile list is ever
        # materialized, so 10⁵–10⁶ sizes stay within bounded generator
        # memory (the directory itself holds the published capabilities).
        for profile in workload.iter_services(size):
            batch_dir.publish(profile)
            semantic_dir.publish(profile)
            if measure_scalar:
                scalar_dir.publish(profile)

        repeats = _repeats_for(size)
        scored_before = batch_dir.stats.capability_matches
        batch_hits = batch_dir.query(request)  # warm: fills the distance cache
        scored = batch_dir.stats.capability_matches - scored_before
        scanned = batch_dir.capability_count * len(request.capabilities)
        pruned_pct = 100.0 * (scanned - scored) / max(1, scanned)
        batch_s = _mean_query_seconds(lambda: batch_dir.query(request), repeats)
        batch_series[size] = batch_s
        metrics[f"batch_s_{size}"] = batch_s

        if measure_scalar:
            scalar_hits = scalar_dir.query(request)
            assert _canon(batch_hits) == _canon(scalar_hits), (
                f"batch/scalar result divergence at size {size}"
            )
            scalar_repeats = max(3, repeats // 5)
            scalar_s = _mean_query_seconds(
                lambda: scalar_dir.query(request), scalar_repeats
            )
            scalar_series[size] = scalar_s
            metrics[f"scalar_s_{size}"] = scalar_s
            speedup = scalar_s / max(batch_s, 1e-12)
            speedup_txt = f"{speedup:8.1f}x"
            scalar_txt = f"{scalar_s * 1e3:12.3f}"
        else:
            speedup_txt = f"{'—':>9}"
            scalar_txt = f"{'—':>12}"
        lines.append(
            f"{size:>12} {scalar_txt} {batch_s * 1e3:12.3f} "
            f"{speedup_txt} {pruned_pct:8.1f}%"
        )

        flat_before = batch_dir.stats.capability_matches
        flat_rows = _canon(batch_dir.query(unselective))
        flat_matches = batch_dir.stats.capability_matches - flat_before
        semantic_before = semantic_dir.stats.capability_matches
        semantic_rows = _canon(semantic_dir.query(unselective))
        semantic_matches = semantic_dir.stats.capability_matches - semantic_before
        assert set(semantic_rows) <= set(flat_rows), f"semantic rows not flat rows at {size}"
        assert semantic_rows == flat_rows or any(row[2] == 0 for row in semantic_rows), (
            f"semantic/flat unselective divergence at size {size}"
        )
        assert semantic_matches <= flat_matches, (
            f"semantic directory ran {semantic_matches} semantic matches for the "
            f"unselective request at size {size}, the flat one {flat_matches}"
        )
        metrics[f"unselective_flat_matches_{size}"] = flat_matches
        metrics[f"unselective_semantic_matches_{size}"] = semantic_matches
        flat_s = _mean_query_seconds(lambda: batch_dir.query(unselective), repeats)
        semantic_s = _mean_query_seconds(lambda: semantic_dir.query(unselective), repeats)
        metrics[f"unselective_flat_s_{size}"] = flat_s
        metrics[f"unselective_semantic_s_{size}"] = semantic_s
        unselective_lines.append(
            f"{size:>12} {flat_s * 1e3:12.3f} {semantic_s * 1e3:12.3f} {len(semantic_rows):>6} "
            f"{flat_matches:>13} {semantic_matches:>17}"
        )

    # --- gates ---------------------------------------------------------
    gate_speedup = scalar_series[GATE_SIZE] / max(batch_series[GATE_SIZE], 1e-12)
    metrics["batch_speedup_at_10000"] = gate_speedup
    assert gate_speedup >= SPEEDUP_FLOOR, (
        f"indexed flat speedup at {GATE_SIZE} capabilities is "
        f"{gate_speedup:.1f}x, below the {SPEEDUP_FLOOR}x floor"
    )
    largest = max(batch_series)
    flatness = batch_series[largest] / max(batch_series[min(batch_series)], 1e-12)
    metrics["batch_latency_growth"] = flatness
    assert flatness < 20.0 * (largest / min(batch_series)) ** 0.25, (
        f"batch latency grew {flatness:.1f}x from {min(batch_series)} to "
        f"{largest} capabilities — no longer near-flat"
    )
    lines.append(
        f"speedup at {GATE_SIZE}: {gate_speedup:.1f}x (floor {SPEEDUP_FLOOR}x); "
        f"batch latency growth {min(batch_series)}→{largest}: {flatness:.1f}x"
    )
    lines.append("")
    lines.append("unselective request (every leaf of two ontologies in, one leaf out):")
    lines.extend(unselective_lines)
    lines.append("")
    lines.extend(_republish(metrics))

    units = {
        name: "ratio"
        if "speedup" in name or "growth" in name
        else "matches"
        if "_matches" in name
        else "seconds"
        for name in metrics
    }
    units["republish_us_per_service"] = "us"
    save_report(
        "match_scaling",
        "\n".join(lines),
        metrics=metrics,
        config={
            "sizes": SIZES,
            "seed": 42,
            "smoke": SMOKE,
            "scalar_cap": SCALAR_CAP,
            "republish_seed": REPUBLISH_SEED,
            "republish_services": REPUBLISH_SERVICES,
        },
        units=units,
    )
