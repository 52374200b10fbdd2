"""Length-prefixed wire codec for every protocol message.

On the live fabric the :class:`~repro.network.messages.Envelope`
dataclasses *are* the frame format — the same payloads the simulator
passes by reference travel TCP/UDS as::

    ┌──────────────┬─────────────────────────────────────────────┐
    │ length (u32, │ UTF-8 JSON array:                           │
    │ big-endian)  │ [kind, source, dest, msg_id, ttl, hops,     │
    │              │  trace, *payload_fields]                    │
    └──────────────┴─────────────────────────────────────────────┘

The body is positional: seven header slots, then the payload's fields in
the order its dataclass declares them (``kind`` names the class, so the
decoder knows that order and the arity).  No key names travel.

``trace`` is the optional W3C-traceparent-style context
(:class:`~repro.obs.spans.TraceContext`) stamped by the sending fabric.
It is set only when the send happens inside a traced query (a sink or
collector is attached) or relays a context that arrived with the query;
otherwise it is ``null``.

JSON keeps the codec dependency-free and debuggable on the wire; the two
payload field types JSON cannot express natively are tagged:

* ``bytes`` (Bloom summary bitsets) → ``{"__b64__": "<base64>"}``
* nested :class:`~repro.network.messages.EncodedRequest` →
  ``{"__enc__": [protocol, codes_version, data]}`` (positional too)

Every sequence field in :mod:`repro.network.messages` is a tuple, so
decoding converts JSON arrays back to tuples recursively — a decoded
payload is ``==`` to (and hashes like) the original dataclass, which is
what makes the simulator-vs-live equivalence test able to compare result
rows directly.  Any body that is not a well-formed frame raises
:class:`WireError`, and nothing else.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import struct

from repro.network import messages as _messages
from repro.network.messages import EncodedRequest, Envelope

#: Payload classes admissible on the wire, keyed by ``Envelope.kind``.
#: Built from the messages module itself so a new payload dataclass is
#: wire-ready the moment it is defined (the round-trip property test
#: iterates this registry to keep the guarantee honest).
PAYLOAD_TYPES: dict[str, type] = {
    cls.__name__: cls
    for cls in vars(_messages).values()
    if dataclasses.is_dataclass(cls)
    and isinstance(cls, type)
    and cls is not Envelope
}

#: Field names of each registered payload class, in declaration order:
#: the order its values take in a frame body.
_FIELDS: dict[type, tuple[str, ...]] = {
    cls: tuple(field.name for field in dataclasses.fields(cls))
    for cls in PAYLOAD_TYPES.values()
}

#: Hard ceiling on a single frame (16 MiB).  A directory handoff of an
#: entire million-service catalog is batched above this layer; anything
#: larger than this in one frame is a corrupt or hostile length prefix.
MAX_FRAME = 16 * 1024 * 1024

_LENGTH = struct.Struct(">I")
#: Header slots before the payload fields:
#: kind, source, dest, msg_id, ttl, hops, trace.
_HEADER = 7
#: Field types JSON carries as they are.
_SCALARS = frozenset({str, int, float, bool, type(None)})
#: Frames are built from fresh lists, so no container can contain itself.
_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"), check_circular=False)
_DECODER = json.JSONDecoder()


class WireError(ValueError):
    """A frame that cannot be encoded or decoded."""


def _encode_value(value: object) -> object:
    """Lower one payload field into JSON-expressible form."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [item if type(item) in _SCALARS else _encode_value(item) for item in value]
    if isinstance(value, (bytes, bytearray)):
        return {"__b64__": base64.b64encode(bytes(value)).decode("ascii")}
    if isinstance(value, EncodedRequest):
        return {"__enc__": _encode_fields(value, _FIELDS[EncodedRequest])}
    raise WireError(f"field value {value!r} is not wire-encodable")


def _encode_fields(obj: object, names: tuple[str, ...]) -> list:
    """The values of ``obj``'s fields ``names``, in order, lowered."""
    values = [getattr(obj, name) for name in names]
    return [value if type(value) in _SCALARS else _encode_value(value) for value in values]


def _decode_value(value: object) -> object:
    """Invert :func:`_encode_value` (arrays come back as tuples)."""
    if type(value) is list:
        return tuple([item if type(item) in _SCALARS else _decode_value(item) for item in value])
    if type(value) is not dict:
        return value
    if len(value) == 1:
        if "__b64__" in value:
            text = value["__b64__"]
            if type(text) is str:
                try:
                    return base64.b64decode(text, validate=True)
                except ValueError as exc:
                    raise WireError(f"malformed __b64__ field: {exc}") from exc
        elif "__enc__" in value:
            fields = value["__enc__"]
            if type(fields) is list and len(fields) == len(_FIELDS[EncodedRequest]):
                return EncodedRequest(*[_decode_value(item) for item in fields])
    raise WireError(f"malformed tagged object {value!r:.80}")


def encode_frame(envelope: Envelope) -> bytes:
    """Serialize one envelope to its length-prefixed wire frame.

    Raises:
        WireError: for payload types outside the message registry, for
            field values the codec cannot express, or for frames over
            :data:`MAX_FRAME`.
    """
    payload = envelope.payload
    cls = type(payload)
    names = _FIELDS.get(cls)
    if names is None:
        raise WireError(f"{cls.__name__} is not a registered wire payload")
    body = [
        cls.__name__,
        envelope.source,
        envelope.dest,
        envelope.msg_id,
        envelope.ttl,
        envelope.hops,
        envelope.trace,
    ]
    try:
        body += _encode_fields(payload, names)
        data = _ENCODER.encode(body).encode("utf-8")
    except (TypeError, UnicodeEncodeError, RecursionError) as exc:
        raise WireError(f"frame is not wire-encodable: {exc}") from exc
    if len(data) > MAX_FRAME:
        raise WireError(f"frame of {len(data)} bytes exceeds MAX_FRAME")
    return _LENGTH.pack(len(data)) + data


def decode_frame(data: bytes) -> Envelope:
    """Deserialize one frame *body* (without the length prefix).

    Raises:
        WireError: on malformed JSON, a body that is not a header array,
            header fields of the wrong type, unknown payload kinds,
            payloads of the wrong arity, or malformed tagged fields.
    """
    try:
        body = _DECODER.decode(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise WireError(f"malformed frame: {exc}") from exc
    if type(body) is not list or len(body) < _HEADER:
        raise WireError("frame body is not a header array")
    kind, source, dest, msg_id, ttl, hops, trace = body[:_HEADER]
    cls = PAYLOAD_TYPES.get(kind) if type(kind) is str else None
    if cls is None:
        raise WireError(f"unknown payload kind {kind!r:.80}")
    if not (
        type(source) is int
        and type(msg_id) is int
        and type(ttl) is int
        and type(hops) is int
        and (dest is None or type(dest) is int)
        and (trace is None or type(trace) is str)
    ):
        raise WireError(f"malformed {kind} frame header")
    values = body[_HEADER:]
    if len(values) != len(_FIELDS[cls]):
        raise WireError(f"{kind} takes {len(_FIELDS[cls])} fields, got {len(values)}")
    try:
        values = [value if type(value) in _SCALARS else _decode_value(value) for value in values]
    except RecursionError as exc:
        raise WireError("frame nests too deeply") from exc
    return Envelope(kind, cls(*values), source, dest, msg_id, ttl, hops, trace)


async def read_frame(reader) -> Envelope | None:
    """Read one length-prefixed frame from an :class:`asyncio.StreamReader`.

    Returns ``None`` on clean EOF (peer closed between frames).

    Raises:
        WireError: on truncated frames, oversized length prefixes, or
            undecodable bodies.
    """
    import asyncio

    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise WireError("connection closed mid-length-prefix") from exc
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME:
        raise WireError(f"length prefix {length} exceeds MAX_FRAME")
    try:
        data = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise WireError("connection closed mid-frame") from exc
    return decode_frame(data)
