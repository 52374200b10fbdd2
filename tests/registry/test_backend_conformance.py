"""Conformance suite for the unified :class:`DiscoveryBackend` contract.

Every discovery mechanism in the repository — the two core directories
and all four baseline registries — must expose the
same surface: ``publish`` (profiles), ``unpublish`` returning the removed
entry count, ``query`` (a :class:`ServiceRequest`) returning
:class:`DirectoryMatch` rows, the batch forms, ``capability_count``,
``describe`` and the structured ``describe_info`` schema.  The suite runs
the same scenario over every backend; per-backend matching *quality*
differs (syntactic matching needs the exact interface), so requests here
reuse the published profile's own capabilities — an exact request every
backend must answer.
"""

from __future__ import annotations

import warnings

import pytest

from repro.core.directory import FlatDirectory, SemanticDirectory
from repro.registry import (
    AnnotatedTaxonomyRegistry,
    DirectoryMatch,
    DiscoveryBackend,
    GistDirectory,
    OnlineSemanticRegistry,
    SyntacticRegistry,
)
from repro.services.generator import ServiceWorkload
from repro.services.profile import ServiceRequest

BACKENDS = ["semantic", "flat", "syntactic", "annotated", "online", "gist"]


@pytest.fixture(scope="module")
def profiles(small_workload):
    return small_workload.make_services(4)


@pytest.fixture
def backend(request, small_workload, small_table):
    """One fresh backend instance per test, parametrized over all six."""
    kind = request.param
    if kind == "semantic":
        return SemanticDirectory(small_table)
    if kind == "flat":
        return FlatDirectory(small_table)
    if kind == "syntactic":
        return SyntacticRegistry()
    if kind == "annotated":
        return AnnotatedTaxonomyRegistry(small_workload.taxonomy)
    if kind == "online":
        return OnlineSemanticRegistry(small_workload.ontologies)
    if kind == "gist":
        return GistDirectory(small_table)
    raise AssertionError(kind)


def exact_request(profile) -> ServiceRequest:
    """A request for exactly the profile's provided capabilities."""
    return ServiceRequest(
        uri=f"{profile.uri}/request", capabilities=profile.provided
    )


def publish_all(backend, profiles) -> None:
    for profile in profiles:
        backend.publish(profile)


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
class TestDiscoveryBackendConformance:
    def test_satisfies_protocol(self, backend, profiles):
        assert isinstance(backend, DiscoveryBackend)

    def test_publish_then_query_finds_service(self, backend, profiles):
        publish_all(backend, profiles)
        for profile in profiles:
            matches = backend.query(exact_request(profile))
            assert matches, f"{backend.describe()}: no match for {profile.uri}"
            assert all(isinstance(m, DirectoryMatch) for m in matches)
            assert any(m.service_uri == profile.uri for m in matches)
            # Distances are sortable ints, best-first.
            distances = [m.distance for m in matches]
            assert all(isinstance(d, int) for d in distances)
            assert distances == sorted(distances)

    def test_query_batch_matches_query(self, backend, profiles):
        publish_all(backend, profiles)
        requests = [exact_request(profile) for profile in profiles]
        batched = backend.query_batch(requests)
        assert len(batched) == len(requests)
        for request, rows in zip(requests, batched):
            assert rows == backend.query(request)

    def test_publish_batch_counts(self, backend, profiles):
        assert backend.publish_batch(profiles) == len(profiles)
        assert backend.capability_count > 0

    def test_unpublish_returns_entry_count(self, backend, profiles):
        publish_all(backend, profiles)
        victim = profiles[0]
        removed = backend.unpublish(victim.uri)
        assert isinstance(removed, int) and removed > 0
        # Idempotent: a second withdrawal removes nothing.
        assert backend.unpublish(victim.uri) == 0
        assert backend.unpublish("urn:никто:missing") == 0
        matches = backend.query(exact_request(victim))
        assert all(m.service_uri != victim.uri for m in matches)
        # The other services are untouched.
        survivor = profiles[1]
        assert any(
            m.service_uri == survivor.uri
            for m in backend.query(exact_request(survivor))
        )

    def test_republish_after_unpublish(self, backend, profiles):
        publish_all(backend, profiles)
        victim = profiles[0]
        backend.unpublish(victim.uri)
        backend.publish(victim)
        assert any(
            m.service_uri == victim.uri
            for m in backend.query(exact_request(victim))
        )

    def test_capability_count_tracks_publications(self, backend, profiles):
        assert backend.capability_count == 0
        publish_all(backend, profiles)
        populated = backend.capability_count
        assert populated >= len(profiles)  # at least one entry per service
        backend.unpublish(profiles[0].uri)
        assert backend.capability_count < populated

    def test_describe_mentions_population(self, backend, profiles):
        publish_all(backend, profiles)
        description = backend.describe()
        assert isinstance(description, str) and description

    def test_describe_info_schema(self, backend, profiles):
        """The normalized structured summary: every backend fills the same
        four fields, and the counters agree with the backend's state."""
        publish_all(backend, profiles)
        info = backend.describe_info()
        assert set(info) == {"kind", "services", "capability_count", "index"}
        assert info["kind"] == type(backend).__name__
        assert info["services"] == len(profiles)
        assert isinstance(info["capability_count"], int)
        assert info["capability_count"] == backend.capability_count
        assert info["capability_count"] >= len(profiles)
        assert isinstance(info["index"], str) and info["index"]
        # describe() renders the same numbers (no drifting dual formats).
        first_line = backend.describe().splitlines()[0]
        assert info["kind"] in first_line
        assert f"{info['services']} services" in first_line
        assert str(info["capability_count"]) in first_line

    def test_canonical_surface_emits_no_warnings(self, backend, profiles):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            publish_all(backend, profiles)
            backend.query(exact_request(profiles[0]))
            backend.query_batch([exact_request(profiles[1])])
            backend.unpublish(profiles[0].uri)
            _ = backend.capability_count
            backend.describe()
            backend.describe_info()


class TestShimsRemoved:
    """The deprecated pre-unification signatures are gone for good.

    ``publish``/``query`` accept only the canonical profile/request
    types now; raw WSDL and bare capabilities must use the explicit
    ``publish_wsdl`` / ``query_wsdl`` / ``query_capability`` spellings.
    The misuse failure mode is an immediate ``AttributeError`` from the
    semantic accessors the canonical path calls — not a silent
    wrong-type match.
    """

    def test_syntactic_rejects_raw_wsdl_forms(self, small_workload):
        registry = SyntacticRegistry()
        profile = small_workload.make_service(0)
        twin = ServiceWorkload.wsdl_twin(profile)
        with pytest.raises(AttributeError):
            registry.publish(twin)
        request = ServiceWorkload.wsdl_request_for(profile)
        with pytest.raises(AttributeError):
            registry.query(request)
        # The explicit raw-WSDL spellings are the supported path.
        registry.publish_wsdl(twin)
        assert any(d.uri == profile.uri for d in registry.query_wsdl(request))

    def test_annotated_rejects_bare_capability(self, small_workload):
        registry = AnnotatedTaxonomyRegistry(small_workload.taxonomy)
        profile = small_workload.make_service(0)
        registry.publish(profile)
        capability = profile.provided[0]
        with pytest.raises(AttributeError):
            registry.query(capability)
        ranked = registry.query_capability(capability)
        assert any(r.service_uri == profile.uri for r in ranked)
