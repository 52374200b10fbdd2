"""Retrieval-quality scoring for discovery backends.

Comparing backends on quality as well as latency needs labeled
relevance.  This module derives the labels from the system's own ground
truth: the scalar :class:`~repro.core.matching.Matcher` oracle — the §2.3
reference every engine (concept index, subsumer-map kernel, gist) is
already property-tested against.  A service is *relevant* to a request
when any of its provided capabilities matches any requested capability
under the oracle; a backend's answer is scored service-level against that
set.

Scoring is service-level (not capability-level) on purpose: the syntactic
WSDL baseline returns bare service URIs with no capability detail, and the
paper's user-facing question is "which services can serve me" — so the
coarsest common denominator is the fair comparison across all six
backends.  ``benchmarks/bench_matchmaker_pareto.py`` uses these helpers to
trace the precision/recall-vs-latency frontier (methodology in
``docs/MATCHMAKING.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.codes import CodeTable
from repro.core.directory import DirectoryMatch
from repro.core.matching import CodeMatcher, Matcher
from repro.services.profile import ServiceProfile, ServiceRequest


def relevant_services(
    profiles: Iterable[ServiceProfile],
    request: ServiceRequest,
    table: CodeTable | None = None,
    matcher: Matcher | None = None,
) -> frozenset[str]:
    """URIs of every service relevant to ``request`` under the oracle.

    A service is relevant when any provided capability matches any
    requested capability.  Pass either a ``table`` (a
    :class:`~repro.core.matching.CodeMatcher` is built over it) or an
    explicit ``matcher``; the explicit matcher wins when both are given.

    Raises:
        ValueError: when neither ``table`` nor ``matcher`` is given.
    """
    if matcher is None:
        if table is None:
            raise ValueError("relevant_services needs a table or a matcher")
        matcher = CodeMatcher(table=table)
    relevant: set[str] = set()
    for profile in profiles:
        if any(
            matcher.match(provided, requested)
            for provided in profile.provided
            for requested in request.capabilities
        ):
            relevant.add(profile.uri)
    return frozenset(relevant)


def returned_services(matches: Iterable[DirectoryMatch]) -> frozenset[str]:
    """The distinct service URIs a backend's answer names."""
    return frozenset(match.service_uri for match in matches)


@dataclass(frozen=True)
class QualityScore:
    """Service-level retrieval quality of one answer against one label set.

    ``precision`` is hits over returned, ``recall`` hits over relevant;
    both follow the retrieval convention of scoring 1.0 on an empty
    denominator (returning nothing when nothing is relevant is perfect).
    """

    returned: int
    relevant: int
    hits: int

    @property
    def precision(self) -> float:
        """Fraction of returned services that are relevant."""
        return self.hits / self.returned if self.returned else 1.0

    @property
    def recall(self) -> float:
        """Fraction of relevant services that were returned."""
        return self.hits / self.relevant if self.relevant else 1.0

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall (0 when both are 0)."""
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0


def score_answer(
    matches: Iterable[DirectoryMatch], relevant: frozenset[str]
) -> QualityScore:
    """Score one backend answer against a label set from
    :func:`relevant_services`."""
    returned = returned_services(matches)
    return QualityScore(
        returned=len(returned),
        relevant=len(relevant),
        hits=len(returned & relevant),
    )


def mean_scores(scores: Iterable[QualityScore]) -> tuple[float, float]:
    """Macro-averaged ``(precision, recall)`` over per-query scores.

    Macro (average of per-query ratios, the matchmaking-literature
    convention) rather than micro (ratio of summed counts), so a single
    huge query cannot drown the rest of the workload.

    Raises:
        ValueError: on an empty score sequence.
    """
    rows = list(scores)
    if not rows:
        raise ValueError("mean_scores needs at least one score")
    precision = sum(s.precision for s in rows) / len(rows)
    recall = sum(s.recall for s in rows) / len(rows)
    return precision, recall
