#!/usr/bin/env python3
"""Regenerate every benchmark artifact and fingerprint the bundle.

One command rebuilds the repo's entire figure/table bundle — every
``benchmarks/results/BENCH_*.json`` and its human-readable ``*.txt``
twin — and writes ``artifacts_manifest.json``: a SHA-256 manifest of the
bundle's **inputs** (the benchmark sources that produced it) and
**outputs** (each artifact's stable schema: benchmark name, metric
names + units, generator seeds). See ``ARTIFACTS.md`` for the
methodology and ``--check`` contract.

Output hashes deliberately exclude metric *values*, timestamps, git
SHAs and the run config: two runs on different machines produce the
same manifest as long as the benchmarks still emit the same artifacts
with the same metric schema from the same seeds. Values themselves are
regression-gated separately, by ``repro.cli obs regress`` against
``benchmarks/baselines/``.

Usage::

    python tools/make_artifacts.py                  # full-mode bundle
    python tools/make_artifacts.py --smoke --check  # the CI gate
    python tools/make_artifacts.py --smoke --write-baseline
    python tools/make_artifacts.py --only pareto    # one family, no gate

``--check`` diffs the freshly built manifest against the committed
``benchmarks/baselines/artifacts_manifest.json`` (which is the
*smoke-mode* manifest — CI machines run smoke) and exits 1 on any
drift, printing exactly what changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"
RESULTS_DIR = BENCH_DIR / "results"
BASELINE_MANIFEST = BENCH_DIR / "baselines" / "artifacts_manifest.json"
MANIFEST_SCHEMA = 1

#: Every pytest-runnable benchmark module → the report name(s) it writes
#: (``results/<name>.txt`` + ``results/BENCH_<name>.json``). The live
#: deployment artifact (``BENCH_deployment_smoke.json``) is the one
#: exception — it needs real serve/loadgen processes (ARTIFACTS.md §3).
BENCH_REPORTS: dict[str, tuple[str, ...]] = {
    "bench_ablation_greedy_vs_exhaustive": ("ablation_greedy_vs_exhaustive",),
    "bench_backbone_fastpath": ("backbone_fastpath",),
    "bench_bloom_summaries": ("e10_bloom_summaries",),
    "bench_chaos_recovery": ("chaos_recovery",),
    "bench_churn_availability": ("churn_availability",),
    "bench_composition": ("composition_schemes",),
    "bench_encoding_scalability": ("e7_encoding_scalability",),
    "bench_fig10_ariadne_vs_sariadne": ("fig10_ariadne_vs_sariadne",),
    "bench_fig2_reasoner_cost": ("fig2_reasoner_cost",),
    "bench_fig7_graph_creation": ("fig7_graph_creation",),
    "bench_fig8_publish": ("fig8_publish",),
    "bench_fig9_match_request": ("fig9_match_request",),
    "bench_forwarding_policies": ("forwarding_policies",),
    "bench_gist_directory": ("e8_gist_directory",),
    "bench_handoff": ("handoff_state_transfer",),
    "bench_match_scaling": ("match_scaling",),
    "bench_matchmaker_pareto": ("matchmaker_pareto",),
    "bench_network_discovery": ("e11_network_discovery",),
    "bench_query_cache": ("query_cache",),
    "bench_srinivasan_registry": ("e9_srinivasan_registry",),
}

#: Sources whose hashes go into the manifest's ``inputs`` section: a
#: benchmark edit without a regenerated manifest fails ``--check``.
INPUT_GLOBS = ("bench_*.py", "_report.py", "conftest.py", "regress_tolerances.json")


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def input_hashes() -> dict[str, str]:
    """``{repo-relative path: sha256}`` for every manifest input."""
    hashes: dict[str, str] = {}
    for pattern in INPUT_GLOBS:
        for path in sorted(BENCH_DIR.glob(pattern)):
            hashes[str(path.relative_to(REPO_ROOT))] = _sha256_bytes(path.read_bytes())
    return hashes


def stable_artifact_hash(payload: dict) -> str:
    """SHA-256 of a ``BENCH_*.json``'s machine-independent schema.

    Folds the benchmark name, the sorted (metric name, units) pairs and
    the generator seeds — never values, config, git state or clocks.
    """
    canonical = {
        "benchmark": payload.get("benchmark"),
        "metrics": sorted(
            (entry.get("name", ""), entry.get("units", ""))
            for entry in payload.get("metrics", [])
        ),
        "seeds": payload.get("manifest", {}).get("seeds", {}),
    }
    return _sha256_bytes(json.dumps(canonical, sort_keys=True).encode("utf-8"))


def build_manifest(reports: list[str], smoke: bool) -> dict:
    """The bundle manifest for the named reports (all must exist)."""
    artifacts: dict[str, dict] = {}
    for report in sorted(reports):
        path = RESULTS_DIR / f"BENCH_{report}.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        artifacts[report] = {
            "sha256": stable_artifact_hash(payload),
            "metrics": len(payload.get("metrics", [])),
            "seeds": payload.get("manifest", {}).get("seeds", {}),
        }
    return {
        "schema": MANIFEST_SCHEMA,
        "mode": "smoke" if smoke else "full",
        "inputs": input_hashes(),
        "artifacts": artifacts,
    }


def diff_manifests(fresh: dict, committed: dict) -> list[str]:
    """Human-readable drift lines between two manifests (empty = clean)."""
    problems: list[str] = []
    if fresh.get("mode") != committed.get("mode"):
        problems.append(
            f"mode: fresh={fresh.get('mode')} committed={committed.get('mode')}"
        )
    for section in ("inputs", "artifacts"):
        fresh_items = fresh.get(section, {})
        committed_items = committed.get(section, {})
        for key in sorted(set(fresh_items) | set(committed_items)):
            if key not in committed_items:
                problems.append(f"{section}: {key} is new (not in committed manifest)")
            elif key not in fresh_items:
                problems.append(f"{section}: {key} vanished from the fresh bundle")
            elif fresh_items[key] != committed_items[key]:
                problems.append(f"{section}: {key} changed")
    return problems


def run_benches(modules: list[str], smoke: bool) -> None:
    """Run each benchmark module under pytest, loudly, fail-fast."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, str(REPO_ROOT), env.get("PYTHONPATH")) if p
    )
    if smoke:
        env["REPRO_BENCH_SMOKE"] = "1"
    else:
        env.pop("REPRO_BENCH_SMOKE", None)
    for module in modules:
        started = time.perf_counter()
        print(f"[make-artifacts] {module} ...", flush=True)
        result = subprocess.run(
            [sys.executable, "-m", "pytest", f"benchmarks/{module}.py", "-q",
             "-p", "no:cacheprovider"],
            cwd=REPO_ROOT,
            env=env,
        )
        if result.returncode != 0:
            raise SystemExit(f"make-artifacts: {module} failed ({result.returncode})")
        print(
            f"[make-artifacts] {module} ok ({time.perf_counter() - started:.1f}s)",
            flush=True,
        )
        for report in BENCH_REPORTS[module]:
            for artefact in (f"{report}.txt", f"BENCH_{report}.json"):
                if not (RESULTS_DIR / artefact).is_file():
                    raise SystemExit(
                        f"make-artifacts: {module} did not write results/{artefact}"
                    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="run with REPRO_BENCH_SMOKE=1 (the CI mode; what the committed "
        "manifest fingerprints)",
    )
    parser.add_argument(
        "--only", metavar="SUBSTR",
        help="only run benchmark modules whose name contains SUBSTR "
        "(disables --check/--write-baseline: a partial bundle has no manifest)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="diff the fresh manifest against the committed baseline; exit 1 on drift",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help=f"copy the fresh manifest to {BASELINE_MANIFEST.relative_to(REPO_ROOT)}",
    )
    args = parser.parse_args(argv)

    modules = sorted(BENCH_REPORTS)
    if args.only:
        modules = [m for m in modules if args.only in m]
        if not modules:
            print(f"make-artifacts: no benchmark matches --only {args.only!r}",
                  file=sys.stderr)
            return 2

    run_benches(modules, smoke=args.smoke)

    if args.only:
        print(f"[make-artifacts] partial bundle ({len(modules)} module(s)); "
              "manifest not written")
        return 0

    reports = [report for module in modules for report in BENCH_REPORTS[module]]
    manifest = build_manifest(reports, smoke=args.smoke)
    manifest_path = RESULTS_DIR / "artifacts_manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"[make-artifacts] {len(reports)} artifact(s) → "
          f"{manifest_path.relative_to(REPO_ROOT)}")

    if args.write_baseline:
        BASELINE_MANIFEST.write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        print(f"[make-artifacts] baseline written → "
              f"{BASELINE_MANIFEST.relative_to(REPO_ROOT)}")

    if args.check:
        if not BASELINE_MANIFEST.is_file():
            print(f"make-artifacts: no committed manifest at {BASELINE_MANIFEST}",
                  file=sys.stderr)
            return 1
        committed = json.loads(BASELINE_MANIFEST.read_text(encoding="utf-8"))
        drift = diff_manifests(manifest, committed)
        for line in drift:
            print(f"DRIFT {line}")
        print(f"[make-artifacts] manifest check: {len(drift)} drift(s)")
        return 1 if drift else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
