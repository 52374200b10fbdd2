"""The reproducibility bundle stays honest (``tools/make_artifacts.py``).

Three cheap invariants, none of which run a benchmark:

* every ``benchmarks/bench_*.py`` module is declared in the
  ``BENCH_REPORTS`` table, so new experiments cannot stay out of the
  bundle;
* the stable artifact hash really is stable: values, git state and
  machine-dependent config must not move it, while schema changes
  (metric renamed, reseeded) must;
* the committed manifest's ``inputs`` section matches the benchmark
  sources in the working tree — editing a benchmark without
  regenerating the manifest fails here first, before CI reruns the
  whole bundle.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import docs_lint  # noqa: E402
import make_artifacts  # noqa: E402


def _payload(**overrides):
    base = {
        "benchmark": "demo",
        "config": {"population": 100, "backend": "numpy"},
        "metrics": [
            {"name": "p50_ms", "value": 1.23, "units": "ms"},
            {"name": "recall", "value": 1.0, "units": "ratio"},
        ],
        "manifest": {"git_sha": "abc", "seeds": {"seed": 7}},
    }
    base.update(overrides)
    return base


class TestStableHash:
    def test_values_and_provenance_do_not_move_the_hash(self):
        a = make_artifacts.stable_artifact_hash(_payload())
        b = make_artifacts.stable_artifact_hash(
            _payload(
                config={"population": 400, "backend": "stdlib"},
                metrics=[
                    {"name": "recall", "value": 0.5, "units": "ratio"},
                    {"name": "p50_ms", "value": 99.0, "units": "ms"},
                ],
                manifest={"git_sha": "fff", "dirty": True, "seeds": {"seed": 7}},
            )
        )
        assert a == b  # order, values, config, git state all excluded

    def test_schema_changes_move_the_hash(self):
        base = make_artifacts.stable_artifact_hash(_payload())
        renamed = _payload()
        renamed["metrics"][0]["name"] = "p99_ms"
        reseeded = _payload(manifest={"seeds": {"seed": 8}})
        assert make_artifacts.stable_artifact_hash(renamed) != base
        assert make_artifacts.stable_artifact_hash(reseeded) != base


class TestBundleCoverage:
    def test_every_bench_module_is_declared(self):
        modules = {
            path.stem for path in (REPO_ROOT / "benchmarks").glob("bench_*.py")
        }
        declared = set(make_artifacts.BENCH_REPORTS)
        assert modules == declared, (
            "benchmarks/ and make_artifacts.BENCH_REPORTS disagree: "
            f"undeclared={sorted(modules - declared)} "
            f"stale={sorted(declared - modules)}"
        )

    def test_committed_manifest_inputs_match_working_tree(self):
        committed = json.loads(
            make_artifacts.BASELINE_MANIFEST.read_text(encoding="utf-8")
        )
        assert committed["schema"] == make_artifacts.MANIFEST_SCHEMA
        assert committed["mode"] == "smoke"
        assert committed["inputs"] == make_artifacts.input_hashes(), (
            "benchmark sources changed without regenerating the manifest — "
            "run: python tools/make_artifacts.py --smoke --write-baseline"
        )
        assert set(committed["artifacts"]) == {
            report
            for reports in make_artifacts.BENCH_REPORTS.values()
            for report in reports
        }


class TestManifestDiff:
    def test_clean_diff(self):
        manifest = {"mode": "smoke", "inputs": {"a": "1"}, "artifacts": {"x": {}}}
        assert make_artifacts.diff_manifests(manifest, json.loads(json.dumps(manifest))) == []

    def test_drift_kinds_reported(self):
        fresh = {"mode": "smoke", "inputs": {"a": "1", "b": "2"}, "artifacts": {}}
        committed = {"mode": "full", "inputs": {"a": "9", "c": "3"}, "artifacts": {}}
        drift = "\n".join(make_artifacts.diff_manifests(fresh, committed))
        assert "mode" in drift
        assert "a changed" in drift
        assert "b is new" in drift
        assert "c vanished" in drift


class TestDocsLint:
    def test_repo_markdown_is_clean(self):
        assert docs_lint.lint(REPO_ROOT) == []

    def test_dangling_link_and_ghost_metric_detected(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "OBSERVABILITY.md").write_text(
            "| metric | labels |\n|---|---|\n| `match.stage.real` | — |\n"
        )
        (tmp_path / "BAD.md").write_text(
            "See [gone](docs/NOPE.md) and [ok](docs/OBSERVABILITY.md).\n"
            "Ghost `match.stage.fake` vs real `match.stage.real`.\n"
        )
        findings = "\n".join(docs_lint.lint(tmp_path))
        assert "dangling link docs/NOPE.md" in findings
        assert "match.stage.fake" in findings
        assert "match.stage.real" not in findings

    def test_anchor_check(self, tmp_path):
        (tmp_path / "A.md").write_text("# Title\n\n## 2. The wire format\n")
        (tmp_path / "B.md").write_text(
            "[good](A.md#2-the-wire-format) [bad](A.md#missing-section)\n"
        )
        findings = "\n".join(docs_lint.lint(tmp_path))
        assert "no such anchor #missing-section" in findings
        assert "2-the-wire-format" not in findings

    def test_module_reference_check(self, tmp_path):
        package = tmp_path / "src" / "repro" / "core"
        package.mkdir(parents=True)
        (package.parent / "__init__.py").write_text("")
        (package / "__init__.py").write_text("")
        (package / "directory.py").write_text("class SemanticDirectory:\n    pass\n")
        (tmp_path / "README.md").write_text(
            "`repro.core.directory.SemanticDirectory` lives; see [notes](NOTES.md).\n"
        )
        (tmp_path / "NOTES.md").write_text("`repro.core.selection` is gone.\n")
        (tmp_path / "PAPER.md").write_text("Quotes `repro.services.amigos`.\n")
        findings = docs_lint.lint(tmp_path)
        assert findings == ["NOTES.md:1: no module or name repro.core.selection under src/"]
