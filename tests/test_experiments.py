"""Tests for the experiment library (small-scale runs for speed).

The full-scale shape assertions live in ``benchmarks/``; here we verify
the machinery: results are well formed, series have the requested sizes,
rendering works, and the registry dispatches.
"""

import pytest

from repro.experiments import (
    EXPERIMENTS,
    ExperimentResult,
    e7_encoding_scalability,
    fig7_graph_creation,
    fig8_publish,
    fig9_match_request,
    run_experiment,
)


class TestResultRendering:
    def test_render_contains_all_cells(self):
        result = ExperimentResult(
            name="x", header=["a", "b"], rows=[[1, "y"], [22, "zz"]], notes=["note!"]
        )
        text = result.render()
        assert "a" in text and "b" in text
        assert "22" in text and "zz" in text
        assert text.endswith("note!")

    def test_render_empty_rows(self):
        result = ExperimentResult(name="x", header=["only", "header"])
        assert "only" in result.render()


class TestRegistry:
    def test_all_registered_names(self):
        assert set(EXPERIMENTS) == {
            "fig2",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "e7",
            "e8",
            "e9",
            "e10",
            "directory_failover",
        }

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("fig99")


class TestSmallScaleRuns:
    def test_fig7_small(self):
        result = fig7_graph_creation(sizes=[1, 5])
        assert len(result.rows) == 2
        assert result.extras["parse_5"] > 0

    def test_fig8_small(self):
        result = fig8_publish(sizes=[1, 5], repeats=2)
        assert len(result.rows) == 2
        assert result.extras["insert_5"] >= 0

    def test_fig9_small(self):
        result = fig9_match_request(sizes=[1, 5], repeats=2)
        assert len(result.rows) == 2
        assert "overhead_at_max" in result.extras

    def test_e7(self):
        result = e7_encoding_scalability(concepts=40)
        assert result.extras["first_p2k5"] > 100
        assert result.extras["exact_seconds"] > 0

    def test_e8_small(self):
        from repro.experiments import e8_gist_directory

        result = e8_gist_directory(sizes=[50, 200])
        assert result.extras["search_200"] < result.extras["build_200"]

    def test_e9_small(self):
        from repro.experiments import e9_srinivasan_registry

        result = e9_srinivasan_registry(services=20)
        assert result.extras["publish_ratio"] > 1.0

    def test_e10(self):
        from repro.experiments import e10_bloom_summaries

        result = e10_bloom_summaries(stored=30, probes=100)
        assert result.extras["fp_m1024k6"] <= result.extras["fp_m64k2"]


class TestFastVariants:
    def test_fig2_single_repeat(self):
        from repro.experiments import fig2_reasoner_cost

        result = fig2_reasoner_cost(repeats=1)
        assert result.extras["semantic_syntactic_ratio"] > 1.0
        assert len(result.rows) == 3

    def test_fig10_small(self):
        from repro.experiments import fig10_ariadne_vs_sariadne

        result = fig10_ariadne_vs_sariadne(sizes=[1, 5], repeats=2)
        assert len(result.rows) == 2
        assert result.extras["ariadne_5"] > 0
