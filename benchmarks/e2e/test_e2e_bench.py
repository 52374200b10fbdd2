"""Self-test of the live discovery benchmark, at tiny scale.

Run from the repository root (``benchmarks/conftest.py`` imports
``repro``)::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Every workload runs traced and untraced on a 512-service catalog for
one measured second; the output must carry every metric
``BENCHMARK.json`` names, with its unit.  Smaller catalogs leave a
shard without some ontology, and the shard summaries then prune matches
the reference finds (see README.md).  A corrupted oracle must fail the
run, and a checkout without the program's sources must fail before
measuring.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import mixes  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seed", "3", "--seconds", "1", "--catalog", "512"]


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture(scope="module")
def reports() -> dict[tuple[str, int], dict]:
    """The last-line JSON of every workload, untraced (0) and traced (1).

    Two runs at a time: untraced runs on one CPU, traced runs on another
    when there are two.
    """
    cpus = sorted(os.sched_getaffinity(0))
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = {
            (workload, trace): pool.submit(
                _bench, "--workload", workload, "--trace", str(trace),
                "--cpu", str(cpus[trace % len(cpus)]), *TINY,
            )
            for workload in mixes.WORKLOADS
            for trace in (0, 1)
        }
    results = {}
    for key, future in runs.items():
        done = future.result()
        assert done.returncode == 0, done.stderr[-2000:]
        results[key] = json.loads(done.stdout.splitlines()[-1])
    return results


def test_spec_names_the_benchmark():
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(mixes.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(reports, trace, section):
    wanted = {entry["name"]: entry["unit"] for entry in SPEC[section]}
    for workload in mixes.WORKLOADS:
        report = reports[workload, trace]
        assert set(report) == {"correct", "attempted", "failed", "metrics"}
        assert report["correct"] is True
        assert report["attempted"] >= 1 and report["failed"] == 0
        printed = {name: entry["unit"] for name, entry in report["metrics"].items()}
        assert printed == wanted, workload


def test_every_layer_has_spans(reports):
    """Each per-layer metric is backed by measurements on some workload
    (a layer off a workload's path reads 0 there)."""
    for entry in SPEC["per_layer"]:
        assert any(
            reports[workload, 1]["metrics"][entry["name"]]["value"] != 0
            for workload in mixes.WORKLOADS
        ), entry["name"]


def test_frames_per_query_follow_the_topology(reports):
    for workload in mixes.WORKLOADS:
        frames = reports[workload, 1]["metrics"]["wire.frames_per_query"]["value"]
        assert frames == (4 if workload == "backbone_churn" else 2), workload


def test_corrupted_oracle_fails_the_run(monkeypatch, capsys):
    build = mixes.build_mix

    def corrupted(name, seed, catalog_size=None):
        mix = build(name, seed, catalog_size)
        mix.expected[0] = mix.expected[0] + (("urn:repro:service:bogus", "urn:x", 0),)
        return mix

    monkeypatch.setattr(mixes, "build_mix", corrupted)
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", "hot_repeat", *TINY]) == 1
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert report["correct"] is False and report["failed"] > 0


def test_bare_benchmark_directory_refuses_to_run(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "hot_repeat", *TINY, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
