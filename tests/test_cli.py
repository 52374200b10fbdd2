"""Tests for the command-line interface."""

import pathlib

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])


class TestCapacity:
    def test_prints_capacities(self, capsys):
        assert main(["capacity", "--p", "2", "--k", "5"]) == 0
        out = capsys.readouterr().out
        assert "first-level entries" in out
        assert "nesting levels" in out


class TestWorkload:
    def test_writes_documents(self, tmp_path, capsys):
        rc = main(
            [
                "workload",
                "--services",
                "3",
                "--ontologies",
                "4",
                "--seed",
                "5",
                "--outdir",
                str(tmp_path),
                "--wsdl",
            ]
        )
        assert rc == 0
        assert len(list(tmp_path.glob("ontology_*.xml"))) == 4
        assert len(list(tmp_path.glob("service_*.xml"))) == 3 + 3  # incl. wsdl twins
        assert len(list(tmp_path.glob("request_*.xml"))) == 3

    def test_documents_parse_back(self, tmp_path):
        main(
            ["workload", "--services", "2", "--ontologies", "3", "--seed", "1", "--outdir", str(tmp_path)]
        )
        from repro.ontology.owl_xml import ontology_from_xml
        from repro.services.xml_codec import profile_from_xml

        for path in tmp_path.glob("ontology_*.xml"):
            ontology_from_xml(path.read_text())
        for path in tmp_path.glob("service_*.xml"):
            profile, annotations = profile_from_xml(path.read_text())
            assert profile.provided
            assert annotations  # workload embeds codes


class TestMatch:
    @pytest.fixture()
    def workload_dir(self, tmp_path) -> pathlib.Path:
        main(
            ["workload", "--services", "2", "--ontologies", "3", "--seed", "2", "--outdir", str(tmp_path)]
        )
        return tmp_path

    def test_derived_request_matches(self, workload_dir, capsys):
        rc = main(
            [
                "match",
                str(workload_dir / "service_001.xml"),
                str(workload_dir / "request_001.xml"),
                "--ontologies",
                str(workload_dir),
            ]
        )
        assert rc == 0
        assert "distance=" in capsys.readouterr().out

    def test_cross_request_usually_fails(self, workload_dir, capsys):
        rc = main(
            [
                "match",
                str(workload_dir / "service_000.xml"),
                str(workload_dir / "request_001.xml"),
                "--ontologies",
                str(workload_dir),
            ]
        )
        out = capsys.readouterr().out
        assert ("NO MATCH" in out) == (rc == 1)

    def test_missing_ontologies_dir(self, workload_dir, tmp_path_factory, capsys):
        empty = tmp_path_factory.mktemp("empty")
        rc = main(
            [
                "match",
                str(workload_dir / "service_000.xml"),
                str(workload_dir / "request_000.xml"),
                "--ontologies",
                str(empty),
            ]
        )
        assert rc == 2


class TestExperimentCommand:
    def test_e7_runs_quickly(self, capsys):
        assert main(["experiment", "e7"]) == 0
        out = capsys.readouterr().out
        assert "first-level entries" in out
        assert "===== e7 =====" in out


class TestInspect:
    def test_inspect_prints_graphs(self, tmp_path, capsys):
        main(
            ["workload", "--services", "3", "--ontologies", "3", "--seed", "4", "--outdir", str(tmp_path)]
        )
        capsys.readouterr()
        rc = main(["inspect", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "loaded 3 service(s)" in out
        assert "graph over" in out
        assert "Capability_" in out

    def test_inspect_empty_dir(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path)]) == 2


class TestValidate:
    def test_clean_workload_passes(self, tmp_path, capsys):
        main(
            ["workload", "--services", "3", "--ontologies", "3", "--seed", "6", "--outdir", str(tmp_path)]
        )
        capsys.readouterr()
        assert main(["validate", str(tmp_path)]) == 0
        assert "no problems found" in capsys.readouterr().out

    def test_unknown_concept_flagged(self, tmp_path, capsys):
        main(
            ["workload", "--services", "2", "--ontologies", "3", "--seed", "6", "--outdir", str(tmp_path)]
        )
        rogue = (
            "<Service uri='urn:x:svc:rogue' name='r'>"
            "<Capability uri='urn:x:cap:r' name='c' provided='true'>"
            "<output concept='http://unknown.org/onto#X'/>"
            "</Capability></Service>"
        )
        (tmp_path / "service_zz.xml").write_text(rogue)
        capsys.readouterr()
        assert main(["validate", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "unknown concept http://unknown.org/onto#X" in out

    def test_stale_codes_flagged(self, tmp_path, capsys):
        main(
            ["workload", "--services", "1", "--ontologies", "3", "--seed", "6", "--outdir", str(tmp_path)]
        )
        doc = (tmp_path / "service_000.xml").read_text()
        import re

        stale = re.sub(r'codesVersion="\d+"', 'codesVersion="999"', doc)
        (tmp_path / "service_000.xml").write_text(stale)
        capsys.readouterr()
        assert main(["validate", str(tmp_path)]) == 1
        assert "stale codes" in capsys.readouterr().out

    def test_malformed_document_flagged(self, tmp_path, capsys):
        main(
            ["workload", "--services", "1", "--ontologies", "3", "--seed", "6", "--outdir", str(tmp_path)]
        )
        (tmp_path / "service_bad.xml").write_text("<Service")
        capsys.readouterr()
        assert main(["validate", str(tmp_path)]) == 1

    def test_empty_dir(self, tmp_path):
        assert main(["validate", str(tmp_path)]) == 2


class TestTraceReport:
    def test_renders_jsonl_trace(self, tmp_path, capsys):
        from repro.obs import JsonlSink, Observability

        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            obs = Observability(sinks=[sink])
            with obs.span("query.handle", trace_id="q0.1", sim_time=0.5):
                obs.event("hop.forward", peer=2)
            obs.counter("dir.queries", node=0).inc()
            obs.close()
        assert main(["trace-report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "query q0.1" in out
        assert "hop.forward" in out
        assert "dir.queries" in out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["trace-report", str(tmp_path / "nope.jsonl")]) == 2

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["trace-report", str(path)]) == 1


def _traced_run_file(tmp_path) -> pathlib.Path:
    """Produce a run file with events, windows, and final metrics."""
    from repro.network.simulator import Simulator
    from repro.obs import JsonlSink, Observability

    path = tmp_path / "run.jsonl"
    sim = Simulator()
    with JsonlSink(path) as sink:
        obs = Observability(sinks=[sink])
        obs.start_timeseries(sim, interval=1.0)
        sim.schedule(0.5, lambda: obs.counter("dir.queries", node=0).inc())
        sim.schedule(
            1.5, lambda: obs.histogram("query.latency", node=0).observe(0.25)
        )
        sim.run(until=2.0)
        obs.lifecycle("churn.join", sim_time=1.2, node=7, cause="late_join")
        obs.close()
    return path


class TestObsTimeline:
    def test_merges_events_and_windows(self, tmp_path, capsys):
        path = _traced_run_file(tmp_path)
        assert main(["obs", "timeline", str(path)]) == 0
        out = capsys.readouterr().out
        assert "churn.join" in out
        assert "cause=late_join" in out
        assert "window" in out
        assert "dir.queries" in out
        assert "p95" in out  # quantiles render in the final metric table

    def test_export_flags_write_csv_and_openmetrics(self, tmp_path, capsys):
        path = _traced_run_file(tmp_path)
        csv_path = tmp_path / "windows.csv"
        om_path = tmp_path / "metrics.prom"
        rc = main(
            [
                "obs",
                "timeline",
                str(path),
                "--csv",
                str(csv_path),
                "--openmetrics",
                str(om_path),
            ]
        )
        assert rc == 0
        assert csv_path.read_text().startswith("window,")
        om = om_path.read_text()
        assert "dir_queries_total" in om
        assert om.endswith("# EOF\n")

    def test_missing_file(self, tmp_path):
        assert main(["obs", "timeline", str(tmp_path / "nope.jsonl")]) == 2

    def test_empty_run(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["obs", "timeline", str(path)]) == 1


def _bench_file(directory: pathlib.Path, name: str, metrics: dict) -> None:
    import json

    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "benchmark": name,
        "config": {},
        "metrics": [
            {"name": key, "value": value, "units": "seconds"}
            for key, value in metrics.items()
        ],
    }
    (directory / f"BENCH_{name}.json").write_text(json.dumps(payload))


class TestObsDiff:
    def test_flags_changes_beyond_threshold(self, tmp_path, capsys):
        base, cand = tmp_path / "base", tmp_path / "cand"
        _bench_file(base, "fig9", {"match_s": 1.0, "steady": 1.0})
        _bench_file(cand, "fig9", {"match_s": 2.0, "steady": 1.01})
        assert main(["obs", "diff", str(base), str(cand)]) == 0
        out = capsys.readouterr().out
        assert "match_s" in out
        assert "<<<" in out
        assert out.count("<<<") == 1  # steady is inside the threshold

    def test_accepts_single_files(self, tmp_path, capsys):
        base, cand = tmp_path / "base", tmp_path / "cand"
        _bench_file(base, "fig9", {"m": 1.0})
        _bench_file(cand, "fig9", {"m": 1.0})
        rc = main(
            [
                "obs",
                "diff",
                str(base / "BENCH_fig9.json"),
                str(cand / "BENCH_fig9.json"),
            ]
        )
        assert rc == 0

    def test_missing_inputs(self, tmp_path):
        assert main(["obs", "diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 2


class TestObsRegress:
    def test_self_comparison_passes(self, tmp_path, capsys):
        base = tmp_path / "base"
        _bench_file(base, "fig9", {"match_s": 1.0})
        rc = main(
            ["obs", "regress", "--baseline", str(base), "--candidate", str(base)]
        )
        assert rc == 0
        assert "0 regressed" in capsys.readouterr().out

    def test_injected_regression_fails_nonzero(self, tmp_path, capsys):
        import json

        base, cand = tmp_path / "base", tmp_path / "cand"
        _bench_file(base, "fig9", {"match_s": 1.0})
        _bench_file(cand, "fig9", {"match_s": 100.0})
        config = tmp_path / "tol.json"
        config.write_text(json.dumps({"default": {"tolerance": 0.5}}))
        rc = main(
            [
                "obs",
                "regress",
                "--baseline",
                str(base),
                "--candidate",
                str(cand),
                "--config",
                str(config),
            ]
        )
        assert rc == 1
        assert "regressed" in capsys.readouterr().out

    def test_empty_dirs_exit_2(self, tmp_path):
        base, cand = tmp_path / "base", tmp_path / "cand"
        base.mkdir(), cand.mkdir()
        rc = main(["obs", "regress", "--baseline", str(base), "--candidate", str(cand)])
        assert rc == 2


class TestDirStats:
    def _workload(self, tmp_path):
        main(
            [
                "workload",
                "--services",
                "6",
                "--ontologies",
                "4",
                "--seed",
                "5",
                "--outdir",
                str(tmp_path),
            ]
        )

    def test_plain_directory_stats(self, tmp_path, capsys):
        self._workload(tmp_path)
        capsys.readouterr()
        assert main(["dir", "stats", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "6 service(s)" in out
        assert "SemanticDirectory" in out

    def test_describe_dumps_capability_graphs(self, tmp_path, capsys):
        self._workload(tmp_path)
        capsys.readouterr()
        assert main(["dir", "stats", str(tmp_path), "--describe"]) == 0
        out = capsys.readouterr().out
        assert "6 service(s)" in out
        assert "SemanticDirectory" in out
        assert "graph" in out

    def test_missing_workload_dir_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["dir", "stats", str(empty)]) == 2
