"""Quality/latency Pareto frontier of every discovery backend.

A labeled-relevance workload scores all six discovery backends — the
semantic directory, flat baseline (concept index and linear scan),
syntactic WSDL registry, annotated taxonomy, on-line matchmaker and GiST
directory — on the same catalog and query set.  Ground truth comes
from the scalar ``Matcher`` oracle (:mod:`repro.core.quality`): a service
is relevant when any provided capability matches any requested one, so
precision/recall are service-level and comparable across backends that
return different amounts of capability detail.

Reported per backend: p50 per-query latency, macro precision, macro
recall — the axes of the Pareto plot in ``docs/MATCHMAKING.md``.

Gates (hard asserts, also exported for ``obs regress``):

* ``flat`` (concept index + subsumer-map kernel) returns the exhaustive
  (``flat-linear``) ranking **bit for bit** on every query;
* strict dominance of the ``semantic`` directory over the on-line
  matchmaker: equal-or-better recall at ≥ 2× lower p50 (measured on the
  same query subset — the on-line backend re-reasons per query, so it
  answers a subsample, as in ``examples/matchmaker_shootout.py``);
* ``semantic`` and ``flat`` keep perfect precision and recall.

Smoke mode (``REPRO_BENCH_SMOKE=1``) shrinks the catalog and the
on-line subsample; the backends and gates are identical.
"""

from __future__ import annotations

import os
import statistics
import time

from benchmarks._report import save_report, series_table
from repro.core.codes import CodeTable
from repro.core.directory import FlatDirectory, SemanticDirectory
from repro.core.quality import mean_scores, relevant_services, score_answer
from repro.ontology.generator import OntologyShape
from repro.ontology.registry import OntologyRegistry
from repro.registry import (
    AnnotatedTaxonomyRegistry,
    GistDirectory,
    OnlineSemanticRegistry,
    SyntacticRegistry,
)
from repro.services.generator import ServiceWorkload, WorkloadShape

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

SEED = 7
POPULATION = 100 if SMOKE else 400
MATCHING_QUERIES = 16
UNRELATED_QUERIES = 4
#: Queries the on-line matchmaker answers (per-query re-reasoning makes
#: the full set minutes of wall-clock; the gate compares on this subset).
ONLINE_SUBSET = 3 if SMOKE else 6
SPEEDUP_FLOOR = 2.0
#: Backends whose answers must be exact: perfect precision and recall.
EXACT = ("semantic", "flat")


def _measure(backend, requests, repeats: int):
    """Per-query answers and mean latency (seconds) per query."""
    answers, latencies = [], []
    for request in requests:
        rows = backend.query(request)  # warm-up: lazy index/engine builds
        start = time.perf_counter()
        for _ in range(repeats):
            rows = backend.query(request)
        latencies.append((time.perf_counter() - start) / repeats)
        answers.append(rows)
    return answers, latencies


def test_matchmaker_pareto_report():
    shape = WorkloadShape(
        ontology_count=6,
        ontology_shape=OntologyShape(concepts=25, properties=6),
        capabilities_per_service=2,
        inputs_per_capability=2,
        outputs_per_capability=2,
        properties_per_capability=1,
    )
    workload = ServiceWorkload(shape=shape, seed=SEED)
    table = CodeTable(OntologyRegistry(workload.ontologies))
    profiles = workload.make_services(POPULATION)
    requests = [
        workload.matching_request(profiles[i]) for i in range(MATCHING_QUERIES)
    ] + [workload.unrelated_request(index=i) for i in range(UNRELATED_QUERIES)]
    labels = [
        relevant_services(profiles, request, table=table) for request in requests
    ]

    backends = {
        "semantic": SemanticDirectory(table),
        "flat": FlatDirectory(table),
        "flat-linear": FlatDirectory(table, use_concept_index=False),
        "syntactic": SyntacticRegistry(),
        "annotated": AnnotatedTaxonomyRegistry(workload.taxonomy),
        "gist": GistDirectory(table),
        "online": OnlineSemanticRegistry(workload.ontologies),
    }
    for backend in backends.values():
        backend.publish_batch(profiles)

    metrics: dict[str, object] = {}
    rows_out = []
    p50: dict[str, float] = {}
    answers: dict[str, list] = {}
    online_requests = requests[:ONLINE_SUBSET]
    for name, backend in backends.items():
        if name == "online":
            backend_requests, repeats = online_requests, 1
        else:
            backend_requests, repeats = requests, 3
        backend_answers, latencies = _measure(backend, backend_requests, repeats)
        answers[name] = backend_answers
        scores = [
            score_answer(rows, labels[i]) for i, rows in enumerate(backend_answers)
        ]
        precision, recall = mean_scores(scores)
        p50[name] = statistics.median(latencies)
        metrics[f"p50_ms_{name}"] = p50[name] * 1e3
        metrics[f"precision_{name}"] = precision
        metrics[f"recall_{name}"] = recall
        rows_out.append(
            [
                name,
                f"{p50[name] * 1e3:.3f}",
                f"{precision:.3f}",
                f"{recall:.3f}",
                len(backend_requests),
            ]
        )

    # --- gate 1: concept index == exhaustive ranking, bit for bit -----
    for i, request in enumerate(requests):
        assert answers["flat"][i] == answers["flat-linear"][i], (
            f"flat (concept index) diverged from the exhaustive ranking on "
            f"query {i} ({request.uri})"
        )

    # --- gate 2: strict dominance over the on-line matchmaker ----------
    subset_scores = {
        name: mean_scores(
            [
                score_answer(rows, labels[i])
                for i, rows in enumerate(answers[name][:ONLINE_SUBSET])
            ]
        )
        for name in ("semantic", "online")
    }
    semantic_subset_p50 = statistics.median(
        _measure(backends["semantic"], online_requests, 3)[1]
    )
    speedup = p50["online"] / max(semantic_subset_p50, 1e-12)
    metrics["semantic_speedup_vs_online"] = speedup
    metrics["recall_semantic_subset"] = subset_scores["semantic"][1]
    assert subset_scores["semantic"][1] >= subset_scores["online"][1], (
        "semantic recall fell below the on-line matchmaker: "
        f"{subset_scores['semantic'][1]:.3f} < {subset_scores['online'][1]:.3f}"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"semantic p50 is only {speedup:.1f}x faster than the on-line "
        f"matchmaker (floor {SPEEDUP_FLOOR}x)"
    )

    # --- gate 3: the exact backends stay exact --------------------------
    for name in EXACT:
        for axis in ("precision", "recall"):
            value = metrics[f"{axis}_{name}"]
            assert value == 1.0, f"{name} {axis} is {value:.3f}, not 1.0"

    table_text = series_table(
        ["backend", "p50 ms", "precision", "recall", "queries"], rows_out
    )
    lines = [
        f"catalog: {POPULATION} services, {len(requests)} labeled queries",
        table_text,
        f"semantic vs online: {speedup:.1f}x lower p50 at "
        f"equal-or-better recall (floor {SPEEDUP_FLOOR}x)",
    ]
    save_report(
        "matchmaker_pareto",
        "\n".join(lines),
        metrics=metrics,
        config={
            "population": POPULATION,
            "queries": len(requests),
            "online_subset": ONLINE_SUBSET,
            "seed": SEED,
            "smoke": SMOKE,
        },
        units={
            name: (
                "ms"
                if name.startswith("p50_ms_")
                else "ratio"
            )
            for name in metrics
        },
    )
