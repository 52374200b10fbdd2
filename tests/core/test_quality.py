"""Relevance labeling and precision/recall scoring (``repro.core.quality``).

The scorer is the measurement instrument of the Pareto bench, so it gets
direct unit coverage: oracle-derived labels agree with the exhaustive
backend, edge conventions (empty answer, empty label set) follow the
retrieval convention, and the exhaustive backend scores perfect
precision *and* recall on every labeled case by construction.
"""

from __future__ import annotations

import pytest

from repro.core.directory import FlatDirectory
from repro.registry import SyntacticRegistry
from repro.services.profile import ServiceRequest
from repro.core.quality import (
    QualityScore,
    mean_scores,
    relevant_services,
    returned_services,
    score_answer,
)


@pytest.fixture(scope="module")
def profiles(small_workload):
    return small_workload.make_services(20)


class TestRelevanceLabels:
    def test_labels_agree_with_exhaustive_backend(
        self, small_workload, small_table, profiles
    ):
        directory = FlatDirectory(small_table, use_concept_index=False)
        directory.publish_batch(profiles)
        for i in range(0, 20, 3):
            request = small_workload.matching_request(profiles[i])
            labels = relevant_services(profiles, request, table=small_table)
            assert returned_services(directory.query(request)) == labels
            assert profiles[i].uri in labels

    def test_unrelated_request_has_no_labels(self, small_workload, small_table, profiles):
        request = small_workload.unrelated_request()
        assert relevant_services(profiles, request, table=small_table) == frozenset()

    def test_needs_table_or_matcher(self, small_workload, profiles):
        with pytest.raises(ValueError):
            relevant_services(profiles, small_workload.matching_request(profiles[0]))


class TestScoreConventions:
    def test_perfect_answer(self):
        score = QualityScore(returned=4, relevant=4, hits=4)
        assert score.precision == 1.0 and score.recall == 1.0 and score.f1 == 1.0

    def test_empty_answer_empty_labels_is_perfect(self):
        score = QualityScore(returned=0, relevant=0, hits=0)
        assert score.precision == 1.0 and score.recall == 1.0

    def test_empty_answer_with_labels_misses(self):
        score = QualityScore(returned=0, relevant=3, hits=0)
        assert score.precision == 1.0 and score.recall == 0.0 and score.f1 == 0.0

    def test_partial_answer(self):
        score = QualityScore(returned=4, relevant=8, hits=2)
        assert score.precision == 0.5 and score.recall == 0.25

    def test_mean_is_macro(self):
        averaged = mean_scores(
            [
                QualityScore(returned=1, relevant=1, hits=1),
                QualityScore(returned=2, relevant=4, hits=1),
            ]
        )
        assert averaged == (0.75, 0.625)

    def test_mean_rejects_empty(self):
        with pytest.raises(ValueError):
            mean_scores([])


class TestBackendScoring:
    def test_exhaustive_backend_scores_perfect(
        self, small_workload, small_table, profiles
    ):
        directory = FlatDirectory(small_table, use_concept_index=False)
        directory.publish_batch(profiles)
        for i in range(0, 20, 4):
            request = small_workload.matching_request(profiles[i])
            labels = relevant_services(profiles, request, table=small_table)
            score = score_answer(directory.query(request), labels)
            assert score.precision == 1.0 and score.recall == 1.0

    def test_keyword_backend_keeps_precision_loses_recall(
        self, small_workload, small_table, profiles
    ):
        """The syntactic baseline needs the exact interface: it finds a
        service asked for by its own capabilities, but misses it behind a
        request phrased in other (subsuming) concepts — so recall drops
        below 1 while every returned service stays relevant."""
        registry = SyntacticRegistry()
        registry.publish_batch(profiles)
        exact = ServiceRequest(uri="urn:x:exact", capabilities=profiles[0].provided)
        derived = small_workload.matching_request(profiles[0])
        scores = []
        for request in (exact, derived):
            labels = relevant_services(profiles, request, table=small_table)
            scores.append(score_answer(registry.query(request), labels))
        precision, recall = mean_scores(scores)
        assert scores[0].hits == 1
        assert scores[1].relevant and scores[1].hits == 0
        assert precision == 1.0
        assert 0.0 < recall < 1.0
