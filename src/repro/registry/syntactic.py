"""Syntactic WSDL registry: Ariadne's local matching / UDDI reference.

Classical SDPs "support the discovery of services according to syntactic
interface descriptions, and thus assume worldwide knowledge and agreement
about service interfaces" (§1).  The registry below is that baseline: a
linear scan of cached WSDL descriptions with string-equality interface
conformance (:meth:`repro.services.wsdl.WsdlDescription.conforms_to`),
shortlisted by a keyword inverted index when the request carries keywords.

Its response time grows with the number of cached services — the rising
Ariadne curve of Fig. 10 — because nothing about a WSDL description allows
the directory to rule services out without inspecting them.
"""

from __future__ import annotations

from collections import defaultdict

from repro.core.directory import DirectoryMatch
from repro.registry.base import render_describe
from repro.services.profile import ServiceProfile, ServiceRequest, capability_tokens
from repro.services.wsdl import WsdlDescription, WsdlOperation, WsdlRequest
from repro.services.xml_codec import ServiceSyntaxError, wsdl_from_xml
from repro.util.ids import uri_fragment
from repro.util.timing import PhaseTimer


def _wsdl_of_profile(profile: ServiceProfile) -> WsdlDescription:
    """The WSDL rendering of a semantic profile (mirrors the workload
    generator's ``wsdl_twin``): one operation per provided capability,
    concept URIs reduced to their fragments, keywords from names and
    fragments."""
    operations = tuple(
        WsdlOperation(
            name=cap.name,
            inputs=tuple(sorted(uri_fragment(c) for c in cap.inputs)),
            outputs=tuple(sorted(uri_fragment(c) for c in cap.outputs)),
        )
        for cap in profile.provided
    )
    keywords: set[str] = set()
    for cap in profile.provided:
        keywords |= capability_tokens(cap)
    return WsdlDescription(
        uri=profile.uri,
        port_type=profile.name,
        operations=operations,
        keywords=tuple(sorted(keywords)),
    )


def _wsdl_of_request(request: ServiceRequest) -> WsdlRequest:
    """The syntactic rendering of a semantic request: the literal interface
    a requester sharing the provider's vocabulary would ask for."""
    operations = tuple(
        WsdlOperation(
            name=cap.name,
            inputs=tuple(sorted(uri_fragment(c) for c in cap.inputs)),
            outputs=tuple(sorted(uri_fragment(c) for c in cap.outputs)),
        )
        for cap in request.capabilities
    )
    keywords = tuple(sorted(cap.name for cap in request.capabilities))
    return WsdlRequest(uri=request.uri, operations=operations, keywords=keywords)


class SyntacticRegistry:
    """A WSDL/UDDI-style registry with linear-scan interface matching.

    An inverted keyword index shortlists candidates when the request
    carries keywords (UDDI's category-bag analogue); conformance is still
    checked per candidate.
    """

    def __init__(self) -> None:
        self._services: dict[str, WsdlDescription] = {}
        self._by_keyword: dict[str, set[str]] = defaultdict(set)
        self.timer = PhaseTimer()

    def __len__(self) -> int:
        return len(self._services)

    def descriptions(self) -> list[WsdlDescription]:
        """All cached WSDL descriptions."""
        return list(self._services.values())

    # ------------------------------------------------------------------
    # Publication
    # ------------------------------------------------------------------
    def publish_wsdl(self, description: WsdlDescription) -> None:
        """Cache a WSDL description (republish replaces)."""
        self.unpublish(description.uri)
        self._services[description.uri] = description
        for keyword in description.keywords:
            self._by_keyword[keyword].add(description.uri)

    def publish(self, profile: ServiceProfile) -> None:
        """Register a service profile, cached as its WSDL rendering.

        Raw :class:`WsdlDescription` objects go through
        :meth:`publish_wsdl`; the deprecated shim that accepted them here
        was removed with the live-runtime release.
        """
        self.publish_wsdl(_wsdl_of_profile(profile))

    def publish_batch(self, profiles) -> int:
        """Publish many profiles; returns the count (batch parity with
        :meth:`repro.core.directory.SemanticDirectory.publish_batch`)."""
        count = 0
        for profile in profiles:
            self.publish_wsdl(_wsdl_of_profile(profile))
            count += 1
        return count

    def publish_xml(self, document: str) -> WsdlDescription:
        """Parse and cache a WSDL document.

        Raises:
            ServiceSyntaxError: malformed document, or a request document.
        """
        with self.timer.phase("parse"):
            parsed = wsdl_from_xml(document)
        if not isinstance(parsed, WsdlDescription):
            raise ServiceSyntaxError("expected a <Definitions> document, got a request")
        self.publish_wsdl(parsed)
        return parsed

    def publish_xml_batch(self, documents: list[str]) -> list[WsdlDescription]:
        """Parse and cache many WSDL documents; all are parsed before the
        first is cached, so a malformed document aborts the whole batch.

        Raises:
            ServiceSyntaxError: a malformed or request document.
        """
        with self.timer.phase("parse"):
            parsed = [wsdl_from_xml(document) for document in documents]
        for description in parsed:
            if not isinstance(description, WsdlDescription):
                raise ServiceSyntaxError("expected a <Definitions> document, got a request")
        for description in parsed:
            self.publish_wsdl(description)
        return parsed

    def unpublish(self, uri: str) -> int:
        """Withdraw a service; returns the number of capability entries
        (operations) removed, 0 when the service was not cached."""
        description = self._services.pop(uri, None)
        if description is None:
            return 0
        for keyword in description.keywords:
            self._by_keyword[keyword].discard(uri)
        return max(1, len(description.operations))

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def _candidates(self, request: WsdlRequest) -> list[WsdlDescription]:
        if request.keywords:
            # The shortlist is authoritative: keyword preselection, like the
            # §4 Bloom summaries, may miss but never falls back to a scan.
            uris: set[str] = set()
            for keyword in request.keywords:
                uris |= self._by_keyword.get(keyword, set())
            return [self._services[uri] for uri in sorted(uris)]
        return list(self._services.values())

    def query_wsdl(self, request: WsdlRequest) -> list[WsdlDescription]:
        """All cached services whose interface conforms to the request."""
        with self.timer.phase("match"):
            return [
                description
                for description in self._candidates(request)
                if description.conforms_to(request)
            ]

    def query(self, request: ServiceRequest) -> list[DirectoryMatch]:
        """Match a semantic request against the cached WSDL interfaces.

        The request is rendered syntactically (the interface a requester
        sharing the provider's vocabulary would ask for) and matched by
        string conformance — so only exact-vocabulary requests hit, which
        is the syntactic baseline's defining limitation.  Matches carry
        distance 0 and no capability detail (WSDL has neither).

        Raw :class:`WsdlRequest` objects go through :meth:`query_wsdl`;
        the deprecated shim that accepted them here was removed with the
        live-runtime release.
        """
        hits = self.query_wsdl(_wsdl_of_request(request))
        return [
            DirectoryMatch(requested=None, capability=None, service_uri=description.uri, distance=0)
            for description in sorted(hits, key=lambda d: d.uri)
        ]

    def query_batch(self, requests) -> list[list[DirectoryMatch]]:
        """Match many requests; one result list per request, in order."""
        return [self.query(request) for request in requests]

    def query_xml(self, document: str) -> list[WsdlDescription]:
        """Parse a request document and answer it.

        Raises:
            ServiceSyntaxError: malformed document, or a description
                document where a request was expected.
        """
        with self.timer.phase("parse"):
            parsed = wsdl_from_xml(document)
        if not isinstance(parsed, WsdlRequest):
            raise ServiceSyntaxError("expected an <InterfaceRequest> document")
        return self.query_wsdl(parsed)

    @property
    def capability_count(self) -> int:
        """Total cached operations (WSDL's analogue of capabilities)."""
        return sum(len(description.operations) for description in self._services.values())

    def describe_info(self) -> dict:
        """Structured backend summary (the normalized ``describe`` schema:
        ``kind``/``services``/``capability_count``/``index``); the
        capability count is WSDL operations."""
        return {
            "kind": type(self).__name__,
            "services": len(self),
            "capability_count": self.capability_count,
            "index": "keyword inverted index",
        }

    def describe(self) -> str:
        """One-line backend summary."""
        return render_describe(self.describe_info())

    def __repr__(self) -> str:
        return f"SyntacticRegistry({len(self)} services)"


class WsdlDocumentRegistry:
    """Ariadne's original directory behaviour: store WSDL *documents*.

    The paper attributes Ariadne's linearly growing response time (Fig. 10)
    to the fact that, unlike S-Ariadne, "the matching is performed by
    syntactically comparing the WSDL descriptions" at query time — cached
    advertisements are kept as documents and processed per request, whereas
    S-Ariadne parses once at publication.  This registry reproduces that
    behaviour: :meth:`query_xml` parses every stored document before the
    conformance scan.
    """

    def __init__(self) -> None:
        self._documents: dict[str, str] = {}
        self.timer = PhaseTimer()

    def __len__(self) -> int:
        return len(self._documents)

    def publish_xml(self, document: str) -> None:
        """Store an advertisement document verbatim (publication is a cache
        write; all processing is deferred to query time)."""
        parsed = wsdl_from_xml(document)  # reject garbage at the door
        if not isinstance(parsed, WsdlDescription):
            raise ServiceSyntaxError("expected a <Definitions> document, got a request")
        self._documents[parsed.uri] = document

    def unpublish(self, uri: str) -> bool:
        """Drop a stored document."""
        return self._documents.pop(uri, None) is not None

    def query_xml(self, request_document: str) -> list[WsdlDescription]:
        """Parse the request and every stored description, then scan."""
        with self.timer.phase("parse"):
            request = wsdl_from_xml(request_document)
            if not isinstance(request, WsdlRequest):
                raise ServiceSyntaxError("expected an <InterfaceRequest> document")
            descriptions = [wsdl_from_xml(doc) for doc in self._documents.values()]
        with self.timer.phase("match"):
            return [
                description
                for description in descriptions
                if isinstance(description, WsdlDescription)
                and description.conforms_to(request)
            ]

    def __repr__(self) -> str:
        return f"WsdlDocumentRegistry({len(self)} documents)"
