"""Ariadne: the syntactic semi-distributed discovery baseline (§5).

Ariadne is the protocol S-Ariadne extends: the same semi-distributed
architecture (elected directories, Bloom-filter cooperation) but WSDL-based
syntactic matching locally.  Directory summaries hash the *keywords* of
cached WSDL descriptions; a request is forwarded to a peer only if all its
keywords are present in the peer's summary.
"""

from __future__ import annotations

from repro.network.messages import EncodedRequest
from repro.protocols.base import ClientAgentBase, DirectoryAgentBase, ResultRow
from repro.registry.syntactic import SyntacticRegistry
from repro.services.wsdl import WsdlOperation, WsdlRequest
from repro.services.xml_codec import ServiceSyntaxError, wsdl_from_xml
from repro.util.bloom import BloomFilter

#: Wire-form discriminator for :class:`EncodedRequest` payloads.
WIRE_PROTOCOL = "ariadne"


class AriadneDirectoryAgent(DirectoryAgentBase):
    """A directory running syntactic WSDL matching."""

    def __init__(self, forward_window: float = 1.0, summary_bits: int = 512, summary_hashes: int = 4) -> None:
        super().__init__(forward_window, summary_bits, summary_hashes)
        self.registry = SyntacticRegistry()

    def local_publish(self, document: str) -> str:
        """Cache one WSDL advertisement; returns its service URI."""
        return self.registry.publish_xml(document).uri

    def local_withdraw(self, service_uri: str) -> None:
        """Drop a cached advertisement (idempotent)."""
        self.registry.unpublish(service_uri)

    def build_summary(self) -> BloomFilter:
        """Bloom filter over the keywords of every cached description."""
        if self.obs.enabled:
            self.obs.counter("dir.summary_builds", node=self.node.node_id).inc()
        bloom = BloomFilter(self.summary_bits, self.summary_hashes)
        for description in self.registry.descriptions():
            for keyword in description.keywords:
                bloom.add(keyword)
        return bloom

    # ------------------------------------------------------------------
    # Request hooks: parse once, then match and test the parsed form
    # ------------------------------------------------------------------
    def parse_request(self, document: str) -> WsdlRequest | None:
        """Parse a request document once; ``None`` if malformed or not a
        request."""
        try:
            parsed = wsdl_from_xml(document)
        except ServiceSyntaxError:
            return None
        return parsed if isinstance(parsed, WsdlRequest) else None

    def local_query(self, parsed: WsdlRequest) -> list[ResultRow]:
        """Answer a parsed WSDL request from the local cache (keyword
        match)."""
        hits = self.registry.query_wsdl(parsed)
        # Syntactic conformance is binary: every hit gets distance 0.
        return [(description.uri, description.port_type, 0) for description in hits]

    def summaries_admitting(
        self, parsed: WsdlRequest, peer_ids: list[int]
    ) -> dict[int, bool]:
        """Forward preselection: are all request keywords in each peer's
        summary?  A request without keywords gives nothing to preselect
        on, so every peer admits it."""
        summaries = self.peer_summaries
        return {
            peer_id: all(keyword in summaries[peer_id] for keyword in parsed.keywords)
            for peer_id in peer_ids
        }

    def encode_request(self, parsed: WsdlRequest) -> EncodedRequest | None:
        """Pack the parsed request for forwarding (peers skip the XML)."""
        operations = tuple(
            (op.name, tuple(op.inputs), tuple(op.outputs)) for op in parsed.operations
        )
        return EncodedRequest(
            protocol=WIRE_PROTOCOL,
            codes_version=None,  # syntactic matching has no §3.2 code table
            data=(parsed.uri, operations, tuple(parsed.keywords)),
        )

    def decode_request(self, wire: EncodedRequest) -> WsdlRequest | None:
        """Rebuild a :class:`WsdlRequest` from its wire form."""
        if wire.protocol != WIRE_PROTOCOL or len(wire.data) != 3:
            return None
        uri, operations, keywords = wire.data
        return WsdlRequest(
            uri=uri,
            operations=tuple(
                WsdlOperation(name=name, inputs=tuple(inputs), outputs=tuple(outputs))
                for name, inputs, outputs in operations
            ),
            keywords=tuple(keywords),
        )

    def request_cache_version(self):
        """Version key for the parse cache (constant: nothing goes stale)."""
        # Syntactic parses never go stale; a constant token keeps the
        # version-keyed cache warm for the agent's lifetime.
        return 0


class AriadneClientAgent(ClientAgentBase):
    """A client speaking the syntactic protocol (WSDL documents)."""
