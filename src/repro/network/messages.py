"""Protocol message payloads exchanged over the simulated network.

Each message travels inside an :class:`Envelope` (added by the fabric) and
carries one of the payload dataclasses below.  Payload sizes are estimated
for the latency model: XML documents count their actual length, fixed-form
messages use small constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass


@dataclass(frozen=True)
class Envelope:
    """Routing wrapper the network fabric adds around a payload.

    Args:
        kind: payload discriminator (the payload class name).
        payload: one of the dataclasses below.
        source: originating node id.
        dest: destination node id for unicast, ``None`` for broadcast.
        msg_id: globally unique id (duplicate suppression in floods).
        ttl: remaining hops for flooded messages.
        hops: hops travelled so far.
        trace: serialized :class:`~repro.obs.spans.TraceContext`
            (traceparent string) of the span that caused this message, or
            ``None`` when tracing is off or no span was active.  Both
            fabrics stamp it at send time; receivers parent their spans
            onto it, which is what stitches one query's spans across
            processes.
    """

    kind: str
    payload: object
    source: int
    dest: int | None
    msg_id: int
    ttl: int = 0
    hops: int = 0
    trace: str | None = None


#: Fixed per-message framing overhead (headers, discriminator).
_FRAME_BYTES = 32
#: Encoded size of a scalar field (ids, counters, flags, floats).
_SCALAR_BYTES = 8
#: Minimum wire size: small control frames are padded to the historical
#: 64-byte constant, so the latency model for beacons/acks is unchanged.
_MIN_PAYLOAD_BYTES = 64


def _field_size(value: object) -> int:
    """Recursive encoded size of one payload field."""
    if value is None:
        return 0
    if isinstance(value, str):
        return len(value)
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, (bool, int, float)):
        return _SCALAR_BYTES
    if isinstance(value, (list, tuple, set, frozenset)):
        # A small length prefix plus every element.
        return _SCALAR_BYTES + sum(_field_size(item) for item in value)
    if isinstance(value, dict):
        return _SCALAR_BYTES + sum(
            _field_size(k) + _field_size(v) for k, v in value.items()
        )
    if is_dataclass(value):
        return sum(_field_size(getattr(value, f.name)) for f in fields(value))
    return _SCALAR_BYTES


def payload_size(payload: object) -> int:
    """Approximate wire size in bytes (drives transmission delay).

    Every payload dataclass is measured structurally — strings and bytes
    count their length, scalars a fixed word, and containers recurse — so
    result tuples (``QueryResponse``/``RemoteResponse``), code-refresh
    tables (``CodeRefreshResponse``), handoff batches and Bloom summary
    pushes all pay for the bytes they actually carry.  The former
    implementation special-cased ``document``/``bloom_bits`` fields and
    silently billed everything else a 64-byte constant; that constant
    survives only as the padded floor for small control frames.
    """
    if is_dataclass(payload):
        size = _FRAME_BYTES + sum(
            _field_size(getattr(payload, f.name)) for f in fields(payload)
        )
    else:
        size = _FRAME_BYTES + _field_size(payload)
    return max(size, _MIN_PAYLOAD_BYTES)


# --- live transport -----------------------------------------------------


@dataclass(frozen=True)
class Hello:
    """Live-fabric connection handshake: the first frame on every socket.

    The simulated fabric knows who every node is; a freshly accepted
    TCP/UDS connection does not.  ``Hello`` binds the connection to the
    sender's node id so the receiver can route replies back over the same
    socket — which is what lets a pure client (``repro.cli loadgen``)
    query a directory without listening on an address of its own.
    """

    node_id: int


# --- telemetry plane --------------------------------------------------------


@dataclass(frozen=True)
class TelemetryHello:
    """First frame a process sends the telemetry collector: who am I.

    Args:
        node_id: the sender's fabric node id.
        role: operator-facing role label (``"directory"`` / ``"loadgen"``).
        pid: operating-system process id, for ``obs top``.
    """

    node_id: int
    role: str
    pid: int


@dataclass(frozen=True)
class TelemetryBatch:
    """A batch of observability records shipped to the collector.

    Args:
        node_id: the sender's fabric node id.
        records: JSON-encoded sink records (the same ``{"type": ...}``
            shapes :class:`~repro.obs.sinks.JsonlSink` writes) — strings
            because the wire codec serializes dataclasses, not open dicts.
        backlog: records still buffered at the sender after this batch
            (``obs top``'s span-backlog column).
    """

    node_id: int
    records: tuple[str, ...] = field(default_factory=tuple)
    backlog: int = 0


@dataclass(frozen=True)
class TelemetryQuery:
    """An operator tool asking the collector a question.

    Args:
        kind: ``"top"`` (fleet snapshot), ``"trace"`` (stitched trace;
            ``arg`` is a trace id, ``latest`` or ``widest``), ``"traces"``
            (known trace ids) or ``"metrics"`` (merged OpenMetrics text).
        arg: kind-specific argument.
    """

    kind: str
    arg: str = ""


@dataclass(frozen=True)
class TelemetryReply:
    """The collector's answer to a :class:`TelemetryQuery`.

    Args:
        kind: echoes the query kind.
        body: JSON-encoded answer (``"metrics"`` replies carry raw
            OpenMetrics text instead).
    """

    kind: str
    body: str = ""


# --- directory deployment (§4) --------------------------------------------


@dataclass(frozen=True)
class DirectoryAdvert:
    """Periodic 'I am a directory' beacon, flooded up to H hops."""

    directory_id: int


@dataclass(frozen=True)
class ElectionCall:
    """Election initiation, flooded up to H hops."""

    initiator: int
    election_id: int


@dataclass(frozen=True)
class ElectionReply:
    """A candidate's willingness + fitness, unicast to the initiator."""

    candidate: int
    election_id: int
    fitness: float


@dataclass(frozen=True)
class Appointment:
    """The initiator's choice, unicast to the winning candidate."""

    directory_id: int
    election_id: int


# --- directory cooperation (§4) --------------------------------------------


@dataclass(frozen=True)
class DirectoryAnnounce:
    """Backbone formation: a new directory introduces itself network-wide
    so peer directories learn about each other ("a backbone of directories
    constituting a virtual network")."""

    directory_id: int
    reply_expected: bool = True


@dataclass(frozen=True)
class SummaryExchange:
    """A directory's Bloom summary, shared with peer directories."""

    directory_id: int
    bloom_bits: bytes
    bloom_m: int
    bloom_k: int


@dataclass(frozen=True)
class SummaryRequest:
    """Reactive request for a fresh summary (false positives too high)."""

    requester_directory: int


@dataclass(frozen=True)
class DirectoryHandoff:
    """A departing directory transfers its cached advertisements to a
    successor ("when a directory leaves the network and ... another one
    is elected and has to host the set of service descriptions available
    in its vicinity" — §5's Fig. 7 scenario)."""

    documents: tuple[str, ...]
    from_directory: int


@dataclass(frozen=True)
class CodeRefreshResponse:
    """Fresh interval codes after a stale-code publication (§3.2:
    "services periodically check the version of codes that they are using
    and update their codes in the case of ontology evolution")."""

    version: int
    codes: tuple[tuple[str, str], ...]


# --- service discovery ------------------------------------------------------


@dataclass(frozen=True)
class PublishService:
    """A client registers a service advertisement (XML document)."""

    document: str


@dataclass(frozen=True)
class WithdrawService:
    """A client withdraws a service."""

    service_uri: str


@dataclass(frozen=True)
class EncodedRequest:
    """Parse-once wire form of a discovery request (backbone fast path).

    The §4 forwarding scheme used to make every receiving directory
    re-parse the same XML document.  The origin directory now attaches
    this pre-parsed, pre-encoded form to the messages it forwards:

    Args:
        protocol: minting agent family (``"sariadne"`` / ``"ariadne"``);
            receivers ignore wire forms minted by another protocol.
        codes_version: the §3.2 code-table snapshot the embedded codes
            were resolved against; a receiver whose table disagrees falls
            back to parsing ``document`` (and from there to the existing
            ``refresh_codes_for`` machinery).
        data: protocol-specific nested tuples — the parsed request's
            capabilities plus resolved concept codes.  Plain tuples keep
            the message layer free of service-model imports.
    """

    protocol: str
    codes_version: int | None
    data: tuple = ()


@dataclass(frozen=True)
class QueryRequest:
    """A client's discovery request (XML document).

    ``wire`` optionally carries the :class:`EncodedRequest` fast-path
    form; the XML document always travels too, as the fallback and the
    source of truth for re-parsing on code-table mismatch.
    """

    query_id: int
    document: str
    wire: EncodedRequest | None = None


@dataclass(frozen=True)
class QueryResponse:
    """Directory → client: matched services for a query.

    ``results`` is a tuple of ``(service_uri, capability_uri, distance)``;
    syntactic directories use a distance of 0 for all hits.  ``partial``
    marks answers assembled while one or more forwarded peers stayed
    silent (partition, crash): the results cover only the reachable part
    of the backbone.
    """

    query_id: int
    results: tuple[tuple[str, str, int], ...] = field(default_factory=tuple)
    partial: bool = False


@dataclass(frozen=True)
class RemoteQuery:
    """Directory → peer directory: forwarded query (§4 step 3).

    Carries the origin's :class:`EncodedRequest` when its protocol has a
    wire form, so the peer answers without re-parsing the XML document.
    """

    query_id: int
    document: str
    origin_directory: int
    wire: EncodedRequest | None = None


@dataclass(frozen=True)
class RemoteResponse:
    """Peer directory → origin directory: remote hits (§4 step 5)."""

    query_id: int
    results: tuple[tuple[str, str, int], ...] = field(default_factory=tuple)
