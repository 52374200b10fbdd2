"""Shared protocol machinery: directory backbone, forwarding, clients.

Implements the §4 interaction pattern common to Ariadne and S-Ariadne
(Fig. 6): a client sends its request to the directory of its vicinity
(step 1); the directory answers from its local cache (step 2); for misses
it forwards the request to the subset of peer directories whose exchanged
summaries suggest they may hold relevant advertisements (step 3); remote
directories answer locally (4) and reply (5); the origin directory merges
and responds to the client (6).

Concrete protocols plug in how to *parse* a request once, how to *match*
the parsed request locally, how to *summarize* content, and how to *test*
a parsed request against peer summaries.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.codes import MalformedCodeError, StaleCodesError
from repro.network.messages import (
    CodeRefreshResponse,
    DirectoryAdvert,
    DirectoryAnnounce,
    DirectoryHandoff,
    EncodedRequest,
    Envelope,
    PublishService,
    QueryRequest,
    QueryResponse,
    RemoteQuery,
    RemoteResponse,
    SummaryExchange,
    SummaryRequest,
    WithdrawService,
)
from repro.network.node import ProtocolAgent
from repro.obs.spans import TraceContext
from repro.services.xml_codec import ServiceSyntaxError
from repro.util.bloom import BloomFilter
from repro.util.cache import RequestCache

#: Distinguishes "no cached parse for this document" from a cached
#: ``None`` (a malformed document, or not a request).
_UNCACHED = object()

#: Hop budget for backbone formation floods (network-wide reach).
BACKBONE_TTL = 16

ResultRow = tuple[str, str, int]


class QueryOutcome(enum.Enum):
    """Lifecycle of a client query (see :meth:`ClientAgentBase.query`)."""

    #: Sent; no response yet (and no retry budget has run out).
    PENDING = "pending"
    #: A :class:`QueryResponse` arrived (possibly with zero results).
    ANSWERED = "answered"
    #: A response arrived, but the answering directory could not hear
    #: from every forwarded peer (partition, crash): the results cover
    #: only the reachable part of the backbone.
    PARTIAL = "partial"
    #: No directory was known/reachable when the query was issued.
    NO_DIRECTORY = "no_directory"
    #: A directory was known but the initial send failed.
    SEND_FAILED = "send_failed"
    #: Every retry elapsed without a response (lossy-network loss).
    EXHAUSTED = "exhausted"


class QueryTicket:
    """Typed result of :meth:`ClientAgentBase.query`.

    Replaces the old ``int | None`` return, which conflated "no directory"
    with nothing else and made retry exhaustion invisible.  The ticket is
    truthy when the query was actually sent, and hashes/compares as its
    ``query_id`` so existing ``client.responses[ticket]`` lookups (the
    dict is keyed by the integer id) keep working.
    """

    __slots__ = ("query_id", "outcome")

    def __init__(self, query_id: int | None, outcome: QueryOutcome) -> None:
        self.query_id = query_id
        self.outcome = outcome

    def __bool__(self) -> bool:
        return self.outcome not in (QueryOutcome.NO_DIRECTORY, QueryOutcome.SEND_FAILED)

    def __hash__(self) -> int:
        return hash(self.query_id)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QueryTicket):
            return self.query_id == other.query_id
        return self.query_id == other

    def __repr__(self) -> str:
        return f"QueryTicket(#{self.query_id}, {self.outcome.value})"


@dataclass
class PendingQuery:
    """Book-keeping for a query awaiting remote responses.

    ``trace`` stores the handling ``query.handle`` span's serialized
    context so the ``query.respond`` event (fired from a forward-window
    timer, outside any span) and the :class:`QueryResponse` frame still
    join the query's trace.  An untraced query stores the context its
    frame arrived with, which the response then relays.
    """

    query_id: int
    client_id: int
    results: list[ResultRow] = field(default_factory=list)
    outstanding: set[int] = field(default_factory=set)
    concluded: bool = False
    trace: str | None = None


class DirectoryAgentBase(ProtocolAgent):
    """A cooperating directory (§4).  Subclasses implement the hooks:

    * :meth:`local_publish` — cache one advertisement document;
    * :meth:`local_withdraw` — drop a service;
    * :meth:`build_summary` — Bloom filter over the current content;
    * :meth:`parse_request` — parse a request document, once per node;
    * :meth:`local_query` — answer a parsed request from the cache;
    * :meth:`summaries_admitting` — which peer summaries admit it?

    A request whose document does not parse gets an empty local answer
    and is not forwarded.

    Args:
        forward_window: how long to wait for remote responses (s).
        summary_bits / summary_hashes: Bloom parameters for exchange.
    """

    def __init__(
        self,
        forward_window: float = 1.0,
        summary_bits: int = 512,
        summary_hashes: int = 4,
        summary_push_delay: float = 0.5,
        max_forward_peers: int | None = None,
    ) -> None:
        super().__init__()
        self.forward_window = forward_window
        #: Cap on peers queried per request; admitted peers are ranked by
        #: hop distance and remaining battery (§4: "selected according to
        #: their Bloom filters and additional parameters such as remaining
        #: battery lifetime and the distance between the respective
        #: directories").  ``None`` queries every admitted peer.
        self.max_forward_peers = max_forward_peers
        #: Disable Bloom preselection entirely (the flood-to-all baseline
        #: the §4 cooperation scheme improves on; ablation E10b).
        self.use_summaries = True
        self.summary_bits = summary_bits
        self.summary_hashes = summary_hashes
        self.summary_push_delay = summary_push_delay
        self.peer_summaries: dict[int, BloomFilter] = {}
        #: Mutation epoch of :attr:`peer_summaries`; bumped on every
        #: receipt, eviction and wipe so batch admission caches (the
        #: S-Ariadne summary bank) know when their snapshot went stale.
        self._peer_summaries_epoch = 0
        self.known_peers: set[int] = set()
        self._pending: dict[int, PendingQuery] = {}
        self._summary_flush_scheduled = False
        self._documents_by_service: dict[str, str] = {}
        self.queries_forwarded = 0
        self.publish_errors = 0
        self.stale_publishes = 0
        # Reactive summary exchange (§4): track, per peer, how many
        # forwarded queries came back empty; past the threshold the peer's
        # summary is treated as stale and re-requested.
        self.false_positive_threshold = 0.5
        self.false_positive_min_samples = 5
        self._peer_forwarded: dict[int, int] = {}
        self._peer_empty: dict[int, int] = {}
        self.summary_refreshes_requested = 0
        # Graceful degradation: a peer that stays silent across this many
        # consecutive forwarded queries is presumed dead (crash, partition)
        # and its Bloom summary is evicted — forwarding into a black hole
        # costs a full forward_window per query.  Any message from the
        # peer resets the count; a later announce/summary re-admits it.
        self.peer_silence_threshold = 3
        self._peer_silent: dict[int, int] = {}
        self.peers_evicted = 0
        # A request document is parsed/encoded at most once per node and
        # carried pre-parsed on forwarded messages.
        self.request_cache = RequestCache()
        self.requests_parsed = 0
        self.wire_decodes = 0
        self.wire_fallbacks = 0

    # ------------------------------------------------------------------
    # Observability wiring
    # ------------------------------------------------------------------
    def attach(self, node) -> None:
        """Bind to the node and, when the network already carries a live
        observability instance, wire it immediately — directories elected
        or installed *after* ``repro.obs.install()`` ran (election
        promotions, handoffs, churn recovery) inherit it this way instead
        of silently tracing into the null object."""
        super().attach(node)
        obs = self.obs
        if obs.enabled:
            self.wire_observability(obs)

    def wire_observability(self, obs) -> None:
        """Point this directory's backing store and caches at ``obs``.

        Called by ``repro.obs.install()`` for existing agents and by
        :meth:`attach` for agents added later.  Wires the backing
        :class:`~repro.core.directory.SemanticDirectory` (when the
        protocol has one) and hooks the request cache so §3.2 re-encoding
        flushes surface as ``cache.invalidate`` lifecycle events.
        """
        directory = getattr(self, "directory", None)
        if directory is not None and hasattr(directory, "obs"):
            directory.obs = obs

        def _request_cache_flushed(dropped: int) -> None:
            node = self.node
            obs.lifecycle(
                "cache.invalidate",
                sim_time=node.network.runtime.now if node is not None and node.network else None,
                node=node.node_id if node is not None else None,
                cause="codes_reencoded",
                cache="request",
                dropped=dropped,
            )

        self.request_cache.on_invalidate = _request_cache_flushed

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def local_publish(self, document: str) -> str:
        """Cache one advertisement document; returns the service URI."""
        raise NotImplementedError

    def local_publish_batch(self, documents: list[str]) -> list[str]:
        """Cache many advertisement documents; returns their service URIs.

        The default loops :meth:`local_publish`; protocols with a bulk
        directory path (S-Ariadne's ``publish_xml_batch``) override it so
        a handoff ingests the whole transfer in one directory call.  A
        failing document fails the whole batch — the caller falls back to
        per-document publication for isolation.
        """
        return [self.local_publish(document) for document in documents]

    def local_withdraw(self, service_uri: str) -> None:
        """Remove a cached service."""
        raise NotImplementedError

    def local_capability_count(self) -> int:
        """Advertised capabilities currently cached on this node.

        Used by resilience experiments and ``repro.cli dir stats`` to
        assert zero-loss failover across the whole deployment.  The
        default reads the backing directory; protocols without one fall
        back to the raw advertisement documents they hold.
        """
        directory = getattr(self, "directory", None)
        count = getattr(directory, "capability_count", None)
        if count is not None:
            return count
        return len(self._documents_by_service)

    def build_summary(self) -> BloomFilter:
        """Bloom summary of the current content."""
        raise NotImplementedError

    def refresh_codes_for(self, document: str) -> CodeRefreshResponse | None:
        """Fresh interval codes for a stale-coded document (§3.2).

        Semantic directories override this; the syntactic protocol has no
        codes and returns None (nothing to refresh).
        """
        return None

    # ------------------------------------------------------------------
    # Request hooks (parse once, then match and test the parsed form)
    # ------------------------------------------------------------------
    def parse_request(self, document: str) -> object | None:
        """One-time parsed form of a request document.

        Returns ``None`` when the document is malformed or not a request;
        such a request gets an empty local answer and is not forwarded.
        """
        raise NotImplementedError

    def local_query(self, parsed: object) -> list[ResultRow]:
        """Answer a parsed request from the local cache.

        Raises:
            StaleCodesError: the request's codes belong to another
                code-table snapshot (§3.2); the caller answers empty and
                sends :meth:`refresh_codes_for`'s codes back.
            MalformedCodeError: an embedded code does not parse; the
                caller answers empty.
        """
        raise NotImplementedError

    def summaries_admitting(
        self, parsed: object, peer_ids: list[int]
    ) -> dict[int, bool]:
        """Admission verdict of each peer's summary for one parsed request:
        could a directory with that summary hold a match?

        Every id in ``peer_ids`` has an entry in :attr:`peer_summaries`.
        """
        raise NotImplementedError

    def encode_request(self, parsed: object) -> EncodedRequest | None:
        """Wire form of a parsed request for forwarded messages, or None."""
        return None

    def decode_request(self, wire: EncodedRequest) -> object | None:
        """Rebuild the parsed form from a received wire form.

        Returns ``None`` on protocol or code-table-version mismatch — the
        receiver then falls back to parsing the XML document.
        """
        return None

    def request_cache_version(self):
        """Version token guarding the request cache (None = unversioned).

        Semantic protocols return their ``(id(table), table.version)``
        snapshot so §3.2 re-encoding flushes memoized parses at the same
        moment stale codes start being rejected.
        """
        return None

    def _parsed_request(self, document: str) -> object | None:
        """Parse-once: the cached parsed form of ``document``.

        Content-addressed (document hash) and version-keyed, so the same
        request — re-issued, retried, or probed against N peer summaries —
        is parsed exactly once per code-table snapshot.
        """
        cache = self.request_cache
        cache.ensure_version(self.request_cache_version())
        parsed = cache.get_document(document, _UNCACHED)
        if parsed is _UNCACHED:
            self.requests_parsed += 1
            obs = self.obs
            if obs.tracing:
                with obs.span(
                    "query.parse", sim_time=self.runtime.now
                ) as span:
                    parsed = self.parse_request(document)
                    span.attrs["bytes"] = len(document)
            else:
                parsed = self.parse_request(document)
            cache.put_document(document, parsed)
        return parsed

    def _request_from_wire(
        self, wire: EncodedRequest | None, document: str
    ) -> object | None:
        """Parsed form of an incoming request, preferring the wire form.

        A decodable wire form skips the XML parse entirely; decode
        failures (foreign protocol, §3.2 code-table mismatch) fall back
        to the content-addressed parse of the document.
        """
        if wire is not None:
            decoded = self.decode_request(wire)
            if decoded is not None:
                self.wire_decodes += 1
                cache = self.request_cache
                cache.ensure_version(self.request_cache_version())
                cache.put_document(document, decoded)
                return decoded
            self.wire_fallbacks += 1
        return self._parsed_request(document)

    # ------------------------------------------------------------------
    # Backbone membership
    # ------------------------------------------------------------------
    def join_backbone(self) -> None:
        """Announce this directory network-wide and push the first summary.

        Called when the node is promoted to directory (election hook).
        """
        self.node.broadcast(
            DirectoryAnnounce(self.node.node_id, reply_expected=True), ttl=BACKBONE_TTL
        )

    def _send_summary_to(self, peer_id: int) -> None:
        bloom = self.build_summary()
        self.node.unicast(
            peer_id,
            SummaryExchange(
                directory_id=self.node.node_id,
                bloom_bits=bloom.to_bytes(),
                bloom_m=bloom.m,
                bloom_k=bloom.k,
            ),
        )

    def broadcast_summary(self, cause: str = "manual") -> None:
        """Push a fresh summary to every known peer (e.g. after churn)."""
        peers = sorted(self.known_peers)
        if peers and self.obs.enabled:
            self.obs.lifecycle(
                "summary.refresh",
                sim_time=self.runtime.now,
                node=self.node.node_id,
                cause=cause,
                peers=len(peers),
            )
        for peer_id in peers:
            self._send_summary_to(peer_id)

    def _mark_content_changed(self) -> None:
        """Debounced summary re-exchange after publish/withdraw: peers must
        learn about new content or forwarding would filter on stale bits."""
        if self._summary_flush_scheduled:
            return
        self._summary_flush_scheduled = True

        def flush() -> None:
            self._summary_flush_scheduled = False
            self.broadcast_summary(cause="content_changed")

        self.runtime.schedule(self.summary_push_delay, flush)

    def _rank_forward_peers(self, parsed: object) -> list[int]:
        """Peers to forward a parsed request to: Bloom-admitted, ranked by
        hop distance then by remaining battery, capped at
        :attr:`max_forward_peers`.

        The ranking sort key ends in the peer id, so iteration order over
        ``known_peers`` (a set) cannot affect the result — no pre-sort
        needed.  Hop distances come from the network's route cache, one
        O(1) lookup per peer on a stable topology.
        """
        network = self.node.network
        obs = self.obs
        verdicts: dict[int, bool] = {}
        if self.use_summaries and self.peer_summaries:
            with_summary = [p for p in self.known_peers if p in self.peer_summaries]
            verdicts = self.summaries_admitting(parsed, with_summary)
        admitted = []
        for peer_id in self.known_peers:
            if self.use_summaries and peer_id in verdicts:
                admits = verdicts[peer_id]
                if obs.tracing:
                    obs.event("bloom.test", peer=peer_id, admitted=admits)
                if not admits:
                    continue
            hops = network.hop_count(self.node.node_id, peer_id)
            if hops is None:
                continue
            battery = network.nodes[peer_id].battery if peer_id in network.nodes else 0.0
            admitted.append((hops, -battery, peer_id))
        admitted.sort()
        ranked = [peer_id for _hops, _battery, peer_id in admitted]
        if self.max_forward_peers is not None:
            ranked = ranked[: self.max_forward_peers]
        return ranked

    def _note_false_positive(self, peer_id: int) -> None:
        """A forwarded query to ``peer_id`` returned nothing: its summary
        admitted a miss.  Past the threshold, request a fresh summary —
        the §4 reactive exchange."""
        if self.obs.enabled:
            self.obs.counter("bloom.false_positives", node=self.node.node_id).inc()
        self._peer_empty[peer_id] = self._peer_empty.get(peer_id, 0) + 1
        forwarded = self._peer_forwarded.get(peer_id, 0)
        empty = self._peer_empty[peer_id]
        if (
            forwarded >= self.false_positive_min_samples
            and empty / forwarded > self.false_positive_threshold
        ):
            self._peer_forwarded[peer_id] = 0
            self._peer_empty[peer_id] = 0
            self.summary_refreshes_requested += 1
            if self.obs.enabled:
                self.obs.lifecycle(
                    "summary.refresh_requested",
                    sim_time=self.runtime.now,
                    node=self.node.node_id,
                    cause="false_positive_rate",
                    peer=peer_id,
                    empty=empty,
                    forwarded=forwarded,
                )
            self.node.unicast(peer_id, SummaryRequest(requester_directory=self.node.node_id))

    # ------------------------------------------------------------------
    # Handoff (§5's Fig. 7 scenario: directory leaves, successor hosts)
    # ------------------------------------------------------------------
    def cached_documents(self) -> list[str]:
        """The advertisement documents this directory currently hosts."""
        return list(self._documents_by_service.values())

    def hand_off_to(self, successor_id: int) -> bool:
        """Transfer all cached advertisements to a successor directory and
        empty this one.  Returns False when the successor is unreachable
        (state is then kept)."""
        obs = self.obs
        documents = tuple(self._documents_by_service.values())
        if obs.enabled:
            obs.lifecycle(
                "handoff.start",
                sim_time=self.runtime.now,
                node=self.node.node_id,
                cause="resignation",
                successor=successor_id,
                documents=len(documents),
            )
        accepted = self.node.unicast(
            successor_id, DirectoryHandoff(documents=documents, from_directory=self.node.node_id)
        )
        if accepted:
            for service_uri in list(self._documents_by_service):
                self.local_withdraw(service_uri)
            self._documents_by_service.clear()
            self._mark_content_changed()
        if obs.enabled:
            obs.lifecycle(
                "handoff.finish",
                sim_time=self.runtime.now,
                node=self.node.node_id,
                cause="resignation",
                successor=successor_id,
                accepted=accepted,
            )
        return accepted

    # ------------------------------------------------------------------
    # Publication plumbing
    # ------------------------------------------------------------------
    def _handle_publish(self, source: int, document: str) -> None:
        try:
            service_uri = self.local_publish(document)
        except StaleCodesError:
            self.stale_publishes += 1
            refresh = self.refresh_codes_for(document)
            if refresh is not None:
                self.node.unicast(source, refresh)
            return
        except (ServiceSyntaxError, MalformedCodeError):
            self.publish_errors += 1
            return
        if self.obs.enabled:
            self.obs.counter("dir.publishes", node=self.node.node_id).inc()
        self._documents_by_service[service_uri] = document
        self._mark_content_changed()

    def _handle_publish_batch(self, source: int, documents: tuple[str, ...]) -> None:
        """Ingest a document batch (handoff transfers) through the bulk
        hook, falling back to per-document publication when any document
        is rejected so one bad advertisement cannot sink the rest."""
        if not documents:
            return
        try:
            service_uris = self.local_publish_batch(list(documents))
        except (StaleCodesError, ServiceSyntaxError, MalformedCodeError):
            for document in documents:
                self._handle_publish(source, document)
            return
        if self.obs.enabled:
            self.obs.counter("dir.publishes", node=self.node.node_id).inc(len(service_uris))
        for service_uri, document in zip(service_uris, documents):
            self._documents_by_service[service_uri] = document
        self._mark_content_changed()

    # ------------------------------------------------------------------
    # Query orchestration (Fig. 6)
    # ------------------------------------------------------------------
    def _local_results(
        self, source: int, document: str, parsed: object | None
    ) -> list[ResultRow]:
        """Local cache answer with §3.2 stale-code recovery: a request
        minted against another code-table snapshot gets an empty answer
        plus a :class:`CodeRefreshResponse` so the sender can re-annotate
        (the same machinery stale publications already use).  A request
        that did not parse (``parsed is None``) or whose embedded codes do
        not parse gets an empty answer and no refresh."""
        if parsed is None:
            return []
        try:
            return self.local_query(parsed)
        except StaleCodesError:
            refresh = self.refresh_codes_for(document)
            if refresh is not None:
                self.node.unicast(source, refresh)
            return []
        except MalformedCodeError:
            return []

    def _trace_id(self, origin_directory: int, query_id: int) -> str:
        """The id grouping every hop span of one logical query: stamped by
        the origin directory, reconstructed by remote directories from the
        forwarded message's origin + query id."""
        return f"q{origin_directory}.{query_id}"

    def _cache_verdict(self, parsed_before: int, decoded_before: int) -> str:
        """How the request's parsed form was obtained, judged from the
        parse/decode counter movement across ``_request_from_wire``."""
        if self.wire_decodes > decoded_before:
            return "wire"
        if self.requests_parsed > parsed_before:
            return "miss"
        return "hit"

    def _handle_client_query(
        self, client_id: int, query: QueryRequest, trace: str | None = None
    ) -> None:
        node = self.node
        obs = self.obs
        context = TraceContext.from_traceparent(trace)
        if obs.tracing:
            scope = obs.span(
                "query.handle",
                trace_id=self._trace_id(node.node_id, query.query_id),
                sim_time=self.runtime.now,
                parent=context,
                directory=node.node_id,
                client=client_id,
                query_id=query.query_id,
            )
        else:
            # Untraced: build nothing, but relay an incoming context on
            # every frame this query causes.
            scope = obs.tracer.activate(context)
        with scope as span:
            if obs.enabled:
                obs.counter("dir.queries", node=node.node_id).inc()
            parsed_before, decoded_before = self.requests_parsed, self.wire_decodes
            parsed = self._request_from_wire(query.wire, query.document)
            local = self._local_results(client_id, query.document, parsed)  # step 2
            # The deferred conclusion (a forward-window timer, outside any
            # span) rejoins the trace through the handling span's context,
            # or relays the incoming one.
            pending = PendingQuery(
                query.query_id,
                client_id,
                results=list(local),
                trace=trace if span is None else obs.tracer.current_traceparent(),
            )
            if span is not None:
                span.attrs["cache"] = self._cache_verdict(parsed_before, decoded_before)
                span.attrs["local_results"] = len(local)
            self._pending[query.query_id] = pending
            if not local and parsed is not None:
                # Step 3: forward to peers whose summaries admit the request,
                # preferring nearby, well-charged directories (§4).  The wire
                # form is encoded once and shared by every forwarded copy, so
                # peers skip the XML parse entirely.
                wire = self.encode_request(parsed)
                for peer_id in self._rank_forward_peers(parsed):
                    if node.unicast(
                        peer_id,
                        RemoteQuery(query.query_id, query.document, node.node_id, wire=wire),
                    ):
                        pending.outstanding.add(peer_id)
                        self.queries_forwarded += 1
                        self._peer_forwarded[peer_id] = self._peer_forwarded.get(peer_id, 0) + 1
                        if obs.tracing:
                            obs.event("hop.forward", peer=peer_id)
            if span is not None:
                span.attrs["forwarded"] = len(pending.outstanding)
            if pending.outstanding:
                self.runtime.schedule(
                    self.forward_window, lambda: self._conclude(query.query_id)
                )
            else:
                self._conclude(query.query_id)

    def _handle_remote_query(self, query: RemoteQuery, trace: str | None = None) -> None:
        obs = self.obs
        network = self.node.network
        context = TraceContext.from_traceparent(trace)
        # The RemoteResponse is sent inside the scope so its frame carries
        # this hop's context (or the relayed one) back to the origin.
        if obs.tracing:
            scope = obs.span(
                "hop.remote",
                trace_id=self._trace_id(query.origin_directory, query.query_id),
                sim_time=network.runtime.now,
                parent=context,
                directory=self.node.node_id,
                origin=query.origin_directory,
                hops=network.hop_count(query.origin_directory, self.node.node_id),
            )
        else:
            scope = obs.tracer.activate(context)
        with scope as span:
            parsed_before, decoded_before = self.requests_parsed, self.wire_decodes
            parsed = self._request_from_wire(query.wire, query.document)
            results = self._local_results(query.origin_directory, query.document, parsed)  # step 4
            if span is not None:
                span.attrs["cache"] = self._cache_verdict(parsed_before, decoded_before)
                span.attrs["results"] = len(results)
                span.attrs["admitted"] = bool(results)
            self.node.unicast(
                query.origin_directory, RemoteResponse(query.query_id, tuple(results))
            )  # step 5

    def _conclude(self, query_id: int) -> None:
        pending = self._pending.pop(query_id, None)
        if pending is None or pending.concluded:
            return
        pending.concluded = True
        # Peers still outstanding stayed silent through the whole forward
        # window: answer anyway (flagged partial) and count the silence
        # toward eviction rather than leaving the client hanging.
        partial = bool(pending.outstanding)
        for peer_id in sorted(pending.outstanding):
            self._note_peer_silent(peer_id)
        # Distance, service, capability: a total order over distinct rows.
        ranked = sorted(set(pending.results), key=lambda row: (row[2], row[0], row[1]))
        obs = self.obs
        context = TraceContext.from_traceparent(pending.trace)
        if obs.tracing:
            obs.event(
                "query.respond",
                trace_id=self._trace_id(self.node.node_id, query_id),
                sim_time=self.runtime.now,
                parent=context,
                directory=self.node.node_id,
                results=len(ranked),
                partial=partial,
            )
        with obs.tracer.activate(context):
            self.node.unicast(
                pending.client_id, QueryResponse(query_id, tuple(ranked), partial=partial)
            )  # step 6

    def _note_peer_silent(self, peer_id: int) -> None:
        """A forwarded query to ``peer_id`` timed out unanswered.  After
        :attr:`peer_silence_threshold` consecutive timeouts the peer is
        presumed dead and evicted from the backbone view (summary, peer
        set, health counters); a later announce or summary re-admits it.
        """
        count = self._peer_silent.get(peer_id, 0) + 1
        self._peer_silent[peer_id] = count
        if count < self.peer_silence_threshold:
            return
        was_known = peer_id in self.known_peers
        self.known_peers.discard(peer_id)
        if self.peer_summaries.pop(peer_id, None) is not None:
            self._peer_summaries_epoch += 1
        self._peer_silent.pop(peer_id, None)
        self._peer_forwarded.pop(peer_id, None)
        self._peer_empty.pop(peer_id, None)
        if was_known:
            self.peers_evicted += 1
            if self.obs.enabled:
                self.obs.lifecycle(
                    "peer.evicted",
                    sim_time=self.runtime.now,
                    node=self.node.node_id,
                    cause="silent_timeouts",
                    peer=peer_id,
                    timeouts=count,
                )

    def _note_peer_alive(self, peer_id: int) -> None:
        """Any traffic from a peer clears its silence strikes."""
        self._peer_silent.pop(peer_id, None)

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------
    def on_crash(self, wipe_state: bool) -> None:
        """In-flight queries die with the node; a hard crash also loses
        the cached advertisements and the backbone view (clients restore
        content via soft-state refresh, §4)."""
        self._pending.clear()
        self._peer_silent.clear()
        self._summary_flush_scheduled = False
        if not wipe_state:
            return
        for service_uri in list(self._documents_by_service):
            self.local_withdraw(service_uri)
        self._documents_by_service.clear()
        self.peer_summaries.clear()
        self._peer_summaries_epoch += 1
        self.known_peers.clear()

    def on_restart(self) -> None:
        """Rejoin the backbone: re-announce so peers re-admit this
        directory and summaries flow again in both directions."""
        self.join_backbone()

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def on_message(self, envelope: Envelope) -> None:
        """Dispatch directory-side protocol traffic (Fig. 6 steps)."""
        payload = envelope.payload
        if isinstance(payload, PublishService):
            self._handle_publish(envelope.source, payload.document)
        elif isinstance(payload, WithdrawService):
            self.local_withdraw(payload.service_uri)
            self._documents_by_service.pop(payload.service_uri, None)
            self._mark_content_changed()
        elif isinstance(payload, DirectoryHandoff):
            self._handle_publish_batch(envelope.source, payload.documents)
        elif isinstance(payload, QueryRequest):
            self._handle_client_query(envelope.source, payload, trace=envelope.trace)
        elif isinstance(payload, RemoteQuery):
            self._handle_remote_query(payload, trace=envelope.trace)
        elif isinstance(payload, RemoteResponse):
            if self.obs.tracing:
                self.obs.event(
                    "hop.response",
                    trace_id=self._trace_id(self.node.node_id, payload.query_id),
                    sim_time=self.runtime.now,
                    parent=TraceContext.from_traceparent(envelope.trace),
                    directory=self.node.node_id,
                    peer=envelope.source,
                    results=len(payload.results),
                )
            self._note_peer_alive(envelope.source)
            if not payload.results:
                self._note_false_positive(envelope.source)
            pending = self._pending.get(payload.query_id)
            if pending is not None and not pending.concluded:
                pending.results.extend(payload.results)
                pending.outstanding.discard(envelope.source)
                if not pending.outstanding:
                    self._conclude(payload.query_id)
        elif isinstance(payload, SummaryExchange):
            self.peer_summaries[payload.directory_id] = BloomFilter.from_bytes(
                payload.bloom_bits, payload.bloom_m, payload.bloom_k
            )
            self._peer_summaries_epoch += 1
            self.known_peers.add(payload.directory_id)
            self._note_peer_alive(payload.directory_id)
        elif isinstance(payload, SummaryRequest):
            if self.obs.enabled:
                self.obs.lifecycle(
                    "summary.refresh",
                    sim_time=self.runtime.now,
                    node=self.node.node_id,
                    cause="peer_request",
                    peers=1,
                    requester=payload.requester_directory,
                )
            self._send_summary_to(payload.requester_directory)
        elif isinstance(payload, DirectoryAnnounce):
            if payload.directory_id != self.node.node_id:
                self.known_peers.add(payload.directory_id)
                self._note_peer_alive(payload.directory_id)
                self._send_summary_to(payload.directory_id)
                if payload.reply_expected:
                    self.node.unicast(
                        payload.directory_id,
                        DirectoryAnnounce(self.node.node_id, reply_expected=False),
                    )


class ClientAgentBase(ProtocolAgent):
    """A service consumer/provider node.

    Publishes advertisement documents to its vicinity directory and issues
    discovery requests, recording results and simulated response times.
    """

    #: When True (live loadgen), every traced query also records a
    #: ``client.query`` event — the root span of the distributed trace.
    #: Off by default so simulated trace signatures keep their historical
    #: span sequence.
    trace_queries = False

    def __init__(self, directory_resolver: Callable[[], int | None]) -> None:
        super().__init__()
        self._resolve_directory = directory_resolver
        self.responses: dict[int, tuple[float, tuple[ResultRow, ...]]] = {}
        self._issue_times: dict[int, float] = {}
        self._published_at: dict[str, int] = {}
        self._next_query_id = 1
        #: Fresh codes received after a stale-coded publication (§3.2):
        #: the application re-annotates its documents from these.
        self.code_updates: dict[str, str] = {}
        self.latest_code_version: int | None = None
        self.retries_sent = 0
        self._advertised: dict[str, str] = {}
        self._refresh_cancel = None
        self._tickets: dict[int, QueryTicket] = {}
        # Scheduled simulator events per in-flight query, cancelled the
        # moment the response arrives (leaving them armed leaks one live
        # event per answered query and keeps drained runs alive).
        self._exhaust_events: dict[int, object] = {}
        self._retry_events: dict[int, object] = {}
        #: Directories this client has heard advertise.  An advert from a
        #: *previously unseen* directory signals failover (the old one
        #: crashed or resigned and a successor was elected) and triggers
        #: immediate re-registration of soft-state advertisements instead
        #: of waiting for the next refresh tick.
        self._seen_directories: set[int] = set()

    def directory_id(self) -> int | None:
        """The directory currently responsible for this node's area."""
        return self._resolve_directory()

    def publish(self, document: str, service_uri: str | None = None) -> bool:
        """Register an advertisement with the vicinity directory.

        Returns False when no directory is known/reachable.  When
        ``service_uri`` is given, the responsible directory is remembered
        so a later :meth:`withdraw` reaches the directory actually holding
        the advertisement (the vicinity directory may change between the
        two as elections proceed).
        """
        directory = self.directory_id()
        if directory is None:
            return False
        accepted = self.node.unicast(directory, PublishService(document))
        if accepted and service_uri is not None:
            self._published_at[service_uri] = directory
        return accepted

    def withdraw(self, service_uri: str) -> bool:
        """Withdraw a previously published service (from the directory it
        was published to, falling back to the current vicinity one)."""
        self._advertised.pop(service_uri, None)
        directory = self._published_at.pop(service_uri, None)
        if directory is None:
            directory = self.directory_id()
        if directory is None:
            return False
        return self.node.unicast(directory, WithdrawService(service_uri))

    def advertise(self, document: str, service_uri: str, refresh_interval: float = 30.0) -> bool:
        """Soft-state publication: publish now and re-publish periodically.

        Directory caches are soft state in dynamic networks — a crashed or
        departed directory loses its content, and periodic refresh is what
        restores it on whichever directory now covers the client's
        vicinity (the same pattern SLP/UPnP use).  :meth:`withdraw` stops
        the refresh.
        """
        self._advertised[service_uri] = document
        accepted = self.publish(document, service_uri=service_uri)
        if not self._refresh_cancel:
            self._refresh_cancel = self.runtime.schedule_every(
                refresh_interval, self._refresh_advertisements
            )
        return accepted

    def _refresh_advertisements(self) -> None:
        for service_uri, document in list(self._advertised.items()):
            # Re-resolve the directory each round: the vicinity may have
            # changed (election churn, crash, mobility).  When it has,
            # withdraw the copy left at the previous directory so a later
            # :meth:`withdraw` does not miss it.
            previous = self._published_at.pop(service_uri, None)
            self.publish(document, service_uri=service_uri)
            current = self._published_at.get(service_uri)
            if previous is not None and current is not None and previous != current:
                self.node.unicast(previous, WithdrawService(service_uri))

    def _trace_id_for(self, directory: int, query_id: int) -> str:
        """The trace id the directory will stamp for this query — minting
        it client-side lets the request frame carry the trace context
        without changing the id scheme
        (:meth:`DirectoryAgentBase._trace_id`)."""
        return f"q{directory}.{query_id}"

    def query(
        self,
        document: str,
        retries: int = 0,
        retry_timeout: float = 3.0,
        retry_backoff: float = 2.0,
    ) -> QueryTicket:
        """Issue a discovery request; returns a :class:`QueryTicket`.

        The ticket is falsy when nothing was sent, and its ``outcome``
        says *why* — ``NO_DIRECTORY`` (no directory known/reachable) vs
        ``SEND_FAILED`` (a directory was known but the send failed) — the
        two cases the old ``int | None`` return collapsed.  On success the
        ticket starts ``PENDING``, turns ``ANSWERED`` (or ``PARTIAL`` for
        a response assembled across an impaired backbone) when the
        response arrives in :attr:`responses` (keyed by query id; the
        ticket itself works as the key), and — when ``retries`` were
        requested — turns ``EXHAUSTED`` once the whole retry budget
        elapses silently.

        Args:
            retries: how many times to re-send when no response arrives
                within the current silence window (lossy-network
                recovery; the latency recorded is from the *first*
                attempt).
            retry_timeout: initial silence window before a re-send (s).
            retry_backoff: multiplier applied to the silence window after
                every re-send (exponential backoff; 1.0 restores the
                historical fixed interval).

        Returns:
            A :class:`QueryTicket` tracking the query's lifecycle.
        """
        directory = self.directory_id()
        if directory is None:
            return QueryTicket(None, QueryOutcome.NO_DIRECTORY)
        query_id = self._next_query_id
        self._next_query_id += 1
        self._issue_times[query_id] = self.runtime.now
        obs = self.obs
        context = None
        if obs.tracing:
            # Root the distributed trace at the client: the request frame
            # carries this context so the directory's query.handle span
            # parents onto it.  The trace id matches what the directory
            # would stamp anyway, so simulated ids are unchanged.
            trace_id = self._trace_id_for(directory, query_id)
            if self.trace_queries:
                root = obs.event(
                    "client.query",
                    trace_id=trace_id,
                    sim_time=self.runtime.now,
                    client=self.node.node_id,
                    directory=directory,
                    query_id=query_id,
                )
                context = root.context()
            if context is None:
                context = obs.tracer.new_context(trace_id)
        with obs.tracer.activate(context):
            sent = self.node.unicast(directory, QueryRequest(query_id, document))
        if not sent:
            del self._issue_times[query_id]
            return QueryTicket(query_id, QueryOutcome.SEND_FAILED)
        ticket = QueryTicket(query_id, QueryOutcome.PENDING)
        self._tickets[query_id] = ticket
        if retries > 0:
            self._schedule_retry(query_id, document, retries, retry_timeout, retry_backoff)
            # The whole budget: the initial window plus one (backed-off)
            # window per re-send.  Cancelled on resolution — an armed
            # timer per answered query is a per-query event leak.
            budget = sum(
                retry_timeout * retry_backoff**attempt for attempt in range(retries + 1)
            )
            self._exhaust_events[query_id] = self.runtime.schedule(
                budget, lambda: self._mark_exhausted(query_id)
            )
        return ticket

    def _mark_exhausted(self, query_id: int) -> None:
        self._exhaust_events.pop(query_id, None)
        self._cancel_event(self._retry_events, query_id)
        ticket = self._tickets.get(query_id)
        if ticket is not None and ticket.outcome is QueryOutcome.PENDING:
            self._tickets.pop(query_id, None)
            ticket.outcome = QueryOutcome.EXHAUSTED

    def _cancel_event(self, store: dict[int, object], query_id: int) -> None:
        event = store.pop(query_id, None)
        if event is not None:
            event.cancel()

    def _schedule_retry(
        self,
        query_id: int,
        document: str,
        retries_left: int,
        retry_timeout: float,
        retry_backoff: float = 2.0,
    ) -> None:
        """Arm the next re-send after ``retry_timeout`` of silence; each
        subsequent window is ``retry_backoff`` times longer (exponential
        backoff, so a dead or partitioned directory is probed ever less
        aggressively instead of being hammered at a fixed rate)."""

        def retry() -> None:
            self._retry_events.pop(query_id, None)
            if query_id in self.responses or query_id not in self._issue_times:
                return
            directory = self.directory_id()
            if directory is None:
                return
            self.retries_sent += 1
            self.node.unicast(directory, QueryRequest(query_id, document))
            if retries_left > 1:
                self._schedule_retry(
                    query_id,
                    document,
                    retries_left - 1,
                    retry_timeout * retry_backoff,
                    retry_backoff,
                )

        self._retry_events[query_id] = self.runtime.schedule(retry_timeout, retry)

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------
    def on_crash(self, wipe_state: bool) -> None:
        """In-flight queries die with the node (tickets turn
        ``EXHAUSTED``, their timers are disarmed); a hard crash also
        forgets soft-state advertisements and received results."""
        for query_id in list(self._tickets):
            self._cancel_event(self._exhaust_events, query_id)
            self._cancel_event(self._retry_events, query_id)
            ticket = self._tickets.pop(query_id)
            if ticket.outcome is QueryOutcome.PENDING:
                ticket.outcome = QueryOutcome.EXHAUSTED
        self._issue_times.clear()
        if not wipe_state:
            return
        self.responses.clear()
        self._advertised.clear()
        self._published_at.clear()
        self.code_updates.clear()
        if self._refresh_cancel is not None:
            self._refresh_cancel()
            self._refresh_cancel = None

    def on_restart(self) -> None:
        """Re-register surviving soft-state advertisements immediately
        instead of waiting for the next refresh tick."""
        if self._advertised:
            self._refresh_advertisements()

    def on_message(self, envelope: Envelope) -> None:
        """Dispatch client-side traffic (responses, adverts, codes)."""
        payload = envelope.payload
        if isinstance(payload, QueryResponse):
            self._cancel_event(self._exhaust_events, payload.query_id)
            self._cancel_event(self._retry_events, payload.query_id)
            issued = self._issue_times.pop(payload.query_id, None)
            if issued is not None:
                latency = self.runtime.now - issued
                self.responses[payload.query_id] = (latency, payload.results)
                obs = self.obs
                if obs.enabled:
                    obs.histogram(
                        "client.query_latency", node=self.node.node_id
                    ).observe(latency)
                ticket = self._tickets.pop(payload.query_id, None)
                if ticket is not None:
                    ticket.outcome = (
                        QueryOutcome.PARTIAL if payload.partial else QueryOutcome.ANSWERED
                    )
        elif isinstance(payload, DirectoryAdvert):
            # Failover re-registration: a *never-before-seen* directory
            # advertising in this vicinity means an election replaced a
            # crashed or resigned one — push the soft-state
            # advertisements now rather than waiting for the next
            # refresh interval.  Adverts from already-known directories
            # (normal beaconing) change nothing.
            if payload.directory_id not in self._seen_directories:
                first = not self._seen_directories
                self._seen_directories.add(payload.directory_id)
                if self._advertised and not first:
                    self._refresh_advertisements()
        elif isinstance(payload, CodeRefreshResponse):
            self.latest_code_version = payload.version
            self.code_updates.update(payload.codes)
