"""S-Ariadne: semantic discovery over the directory backbone (§4–5).

Each elected directory hosts a :class:`~repro.core.directory.SemanticDirectory`
(encoded matching + capability graphs) and summarizes the ontology
footprint of its cached capabilities in a Bloom filter; requests are
forwarded only to directories whose summaries admit the request's
ontologies — §4's cooperation scheme.
"""

from __future__ import annotations

from repro.core.codes import CodeTable
from repro.core.directory import SemanticDirectory
from repro.core.summaries import SummaryBank
from repro.network.messages import CodeRefreshResponse, EncodedRequest
from repro.protocols.base import ClientAgentBase, DirectoryAgentBase, ResultRow
from repro.services.profile import Capability, ServiceRequest
from repro.services.xml_codec import (
    CodeAnnotations,
    ServiceSyntaxError,
    profile_from_xml,
    request_from_xml,
)
from repro.util.bloom import BloomFilter

#: Wire-form discriminator for :class:`EncodedRequest` payloads.
WIRE_PROTOCOL = "sariadne"


class ParsedSemanticRequest:
    """Parse-once form of an Amigo-S request (backbone fast path).

    Bundles the parsed :class:`ServiceRequest` with its §3.2 code
    annotations; the resolved matcher codes are memoized per code-table
    snapshot so resolution, like parsing, happens once per node.  Codes
    equal to the table's own are dropped in the memo, once, instead of by
    every matcher the request reaches.
    """

    __slots__ = ("request", "annotations", "_extra", "_extra_key")

    def __init__(self, request: ServiceRequest, annotations: CodeAnnotations) -> None:
        self.request = request
        self.annotations = annotations
        self._extra = None
        self._extra_key = None

    def resolve(self, table: CodeTable) -> dict | None:
        """Matcher codes for the embedded annotations (memoized per
        table snapshot): the ones the table cannot stand in for, ``None``
        when there are none.

        Raises:
            StaleCodesError: annotations minted against another snapshot.
            MalformedCodeError: an embedded code does not parse.
        """
        key = (id(table), table.version)
        if self._extra_key != key:
            self._extra = (
                table.foreign_codes(
                    table.resolve_annotations(self.annotations.codes, self.annotations.version)
                )
                if self.annotations
                else None
            )
            self._extra_key = key
        return self._extra

    def to_wire(self) -> EncodedRequest:
        """Flatten to the protocol-agnostic wire tuples."""
        request = self.request
        capabilities = tuple(
            (
                cap.uri,
                cap.name,
                tuple(sorted(cap.inputs)),
                tuple(sorted(cap.outputs)),
                tuple(sorted(cap.properties)),
                cap.category or "",
            )
            for cap in request.capabilities
        )
        codes = tuple(sorted(self.annotations.codes.items()))
        return EncodedRequest(
            protocol=WIRE_PROTOCOL,
            codes_version=self.annotations.version,
            data=(request.uri, request.requester, capabilities, codes),
        )

    @classmethod
    def from_wire(cls, wire: EncodedRequest) -> "ParsedSemanticRequest | None":
        """Rebuild from wire tuples; None when the form is foreign."""
        if wire.protocol != WIRE_PROTOCOL or len(wire.data) != 4:
            return None
        uri, requester, capabilities, codes = wire.data
        request = ServiceRequest(
            uri=uri,
            capabilities=tuple(
                Capability.build(
                    uri=cap_uri,
                    name=name,
                    inputs=inputs,
                    outputs=outputs,
                    properties=properties,
                    category=category or None,
                )
                for cap_uri, name, inputs, outputs, properties, category in capabilities
            ),
            requester=requester,
        )
        annotations = CodeAnnotations(version=wire.codes_version, codes=dict(codes))
        return cls(request, annotations)


class SAriadneDirectoryAgent(DirectoryAgentBase):
    """A directory running optimized semantic matching.

    Args:
        table: the code table for the ontologies in force (shared by all
            participants of a deployment — §3.2's versioned codes).
    """

    def __init__(
        self,
        table: CodeTable,
        forward_window: float = 1.0,
        summary_bits: int = 512,
        summary_hashes: int = 4,
    ) -> None:
        super().__init__(forward_window, summary_bits, summary_hashes)
        self.directory = SemanticDirectory(
            table, summary_bits=summary_bits, summary_hashes=summary_hashes
        )
        self._summary_bank: SummaryBank | None = None
        self._summary_bank_epoch: int | None = None

    def local_publish(self, document: str) -> str:
        """Cache one Amigo-S advertisement; returns its service URI."""
        return self.directory.publish_xml(document).uri

    def local_publish_batch(self, documents: list[str]) -> list[str]:
        """Bulk ingestion for handoff transfers: one directory call parses,
        validates and classifies the whole batch (all-or-nothing — the base
        class falls back to per-document publication on rejection)."""
        return [profile.uri for profile in self.directory.publish_xml_batch(documents)]

    def local_withdraw(self, service_uri: str) -> None:
        """Drop a cached advertisement (idempotent)."""
        self.directory.unpublish(service_uri)

    def build_summary(self) -> BloomFilter:
        """Snapshot the incrementally-maintained ontology summary."""
        if self.obs.enabled:
            self.obs.counter("dir.summary_builds", node=self.node.node_id).inc()
        # The directory maintains its counting summary incrementally on
        # publish/withdraw; snapshotting it replaces the former rebuild
        # over every cached capability (same bits — tested).
        return self.directory.summary.snapshot()

    # ------------------------------------------------------------------
    # Request hooks: parse once, then match and test the parsed form
    # ------------------------------------------------------------------
    def parse_request(self, document: str) -> ParsedSemanticRequest | None:
        """Parse a request document once; ``None`` if malformed."""
        try:
            request, annotations = request_from_xml(document)
        except ServiceSyntaxError:
            return None
        return ParsedSemanticRequest(request, annotations)

    def local_query(self, parsed: ParsedSemanticRequest) -> list[ResultRow]:
        """Answer a parsed request from the local semantic directory.

        Raises:
            StaleCodesError: the request's embedded codes belong to another
                code-table snapshot.
            MalformedCodeError: an embedded code does not parse.
        """
        obs = self.obs
        if obs.tracing:
            with obs.span("query.encode", sim_time=self.runtime.now) as span:
                extra = parsed.resolve(self.directory.table)
                span.attrs["annotated"] = bool(parsed.annotations)
        else:
            extra = parsed.resolve(self.directory.table)
        matches = self.directory.query(parsed.request, extra)
        return [(m.service_uri, m.capability.uri, m.distance) for m in matches]

    def _peer_summary_bank(self) -> SummaryBank:
        """The batch tester over the current peer summaries, rebuilt only
        when :attr:`peer_summaries` mutates (epoch-keyed, like the packed
        match engine's table cache)."""
        epoch = self._peer_summaries_epoch
        if self._summary_bank is None or self._summary_bank_epoch != epoch:
            self._summary_bank = SummaryBank(self.peer_summaries)
            self._summary_bank_epoch = epoch
        return self._summary_bank

    def summaries_admitting(
        self, parsed: ParsedSemanticRequest, peer_ids: list[int]
    ) -> dict[int, bool]:
        """Batch §4 preselection: may each peer's content answer this?
        Hashes the request's ontology items once and tests every peer
        filter in one pass (the same verdicts as
        :meth:`~repro.core.summaries.DirectorySummary.might_answer` on
        each peer's summary)."""
        verdicts = self._peer_summary_bank().might_answer(parsed.request)
        return {peer_id: verdicts[peer_id] for peer_id in peer_ids}

    def encode_request(self, parsed: ParsedSemanticRequest) -> EncodedRequest | None:
        """Pack the parsed request for forwarding (peers skip the XML)."""
        return parsed.to_wire()

    def decode_request(self, wire: EncodedRequest) -> ParsedSemanticRequest | None:
        """Rebuild the parse-once form from its wire tuples."""
        if (
            wire.codes_version is not None
            and wire.codes_version != self.directory.table.version
        ):
            # §3.2 code-table mismatch: fall back to the XML document, whose
            # re-parse feeds the refresh_codes_for recovery machinery.
            return None
        return ParsedSemanticRequest.from_wire(wire)

    def request_cache_version(self):
        """Parse-cache key: entries go stale when the code table moves."""
        table = self.directory.table
        return (id(table), table.version)

    def refresh_codes_for(self, document: str) -> CodeRefreshResponse | None:
        """Answer a stale-coded publication or query with the current codes
        (§3.2).

        The concepts are read from the document itself — an advertisement's
        provided/required capabilities or a request's requirements; codes
        are returned for every concept this directory's table covers, so
        the sender can re-annotate and retry.
        """
        try:
            profile, _annotations = profile_from_xml(document)
            capabilities = (*profile.provided, *profile.required)
        except ServiceSyntaxError:
            try:
                request, _annotations = request_from_xml(document)
            except ServiceSyntaxError:
                return None
            capabilities = request.capabilities
        table = self.directory.table
        codes: list[tuple[str, str]] = []
        for capability in capabilities:
            for concept in sorted(capability.concepts()):
                if concept in table:
                    codes.append((concept, table.code(concept).serialize()))
        return CodeRefreshResponse(version=table.version, codes=tuple(codes))


class SAriadneClientAgent(ClientAgentBase):
    """A client speaking the semantic protocol (Amigo-S documents)."""
