"""Length-prefixed wire codec for every protocol message.

On the live fabric the :class:`~repro.network.messages.Envelope`
dataclasses *are* the frame format — the same payloads the simulator
passes by reference travel TCP/UDS as::

    ┌──────────────┬─────────────────────────────────────────────┐
    │ length (u32, │ UTF-8 JSON object:                          │
    │ big-endian)  │ {"kind", "payload", "source", "dest",       │
    │              │  "msg_id", "ttl", "hops"[, "trace"]}        │
    └──────────────┴─────────────────────────────────────────────┘

``trace`` is the optional W3C-traceparent-style context
(:class:`~repro.obs.spans.TraceContext`) stamped by the sending fabric.
It is present only when the send happens inside a traced query (a sink
or collector is attached) or relays a context that arrived with the
query; otherwise it is omitted entirely, so untraced frames are
byte-identical to the previous format.

JSON keeps the codec dependency-free and debuggable on the wire; the two
payload field types JSON cannot express natively are tagged:

* ``bytes`` (Bloom summary bitsets) → ``{"__b64__": "<base64>"}``
* nested :class:`~repro.network.messages.EncodedRequest` →
  ``{"__enc__": {...fields...}}``

Every sequence field in :mod:`repro.network.messages` is a tuple, so
decoding converts JSON arrays back to tuples recursively — a decoded
payload is ``==`` to (and hashes like) the original dataclass, which is
what makes the simulator-vs-live equivalence test able to compare result
rows directly.
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

#: Hard ceiling on a single frame (16 MiB).  A directory handoff of an
#: entire million-service catalog is batched above this layer; anything
#: larger than this in one frame is a corrupt or hostile length prefix.
MAX_FRAME = 16 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class WireError(ValueError):
    """A frame that cannot be encoded or decoded."""


def _encode_value(value: object) -> object:
    """Lower one payload field into JSON-expressible form."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (bytes, bytearray)):
        return {"__b64__": base64.b64encode(bytes(value)).decode("ascii")}
    if isinstance(value, (tuple, list)):
        return [_encode_value(item) for item in value]
    if isinstance(value, EncodedRequest):
        return {
            "__enc__": {
                field.name: _encode_value(getattr(value, field.name))
                for field in dataclasses.fields(value)
            }
        }
    raise WireError(f"field value {value!r} is not wire-encodable")


def _decode_value(value: object) -> object:
    """Invert :func:`_encode_value` (arrays come back as tuples)."""
    if isinstance(value, list):
        return tuple(_decode_value(item) for item in value)
    if isinstance(value, dict):
        if "__b64__" in value:
            return base64.b64decode(value["__b64__"])
        if "__enc__" in value:
            fields = {
                key: _decode_value(item) for key, item in value["__enc__"].items()
            }
            return EncodedRequest(**fields)
        raise WireError(f"unknown tagged object {sorted(value)!r}")
    return value


def encode_frame(envelope: Envelope) -> bytes:
    """Serialize one envelope to its length-prefixed wire frame.

    Raises:
        WireError: for payload types outside the message registry, for
            field values the codec cannot express, or for frames over
            :data:`MAX_FRAME`.
    """
    payload = envelope.payload
    cls = type(payload)
    if PAYLOAD_TYPES.get(cls.__name__) is not cls:
        raise WireError(f"{cls.__name__} is not a registered wire payload")
    body = {
        "kind": cls.__name__,
        "payload": {
            field.name: _encode_value(getattr(payload, field.name))
            for field in dataclasses.fields(payload)
        },
        "source": envelope.source,
        "dest": envelope.dest,
        "msg_id": envelope.msg_id,
        "ttl": envelope.ttl,
        "hops": envelope.hops,
    }
    if envelope.trace is not None:
        body["trace"] = envelope.trace
    data = json.dumps(body, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
    if len(data) > MAX_FRAME:
        raise WireError(f"frame of {len(data)} bytes exceeds MAX_FRAME")
    return _LENGTH.pack(len(data)) + data


def decode_frame(data: bytes) -> Envelope:
    """Deserialize one frame *body* (without the length prefix).

    Raises:
        WireError: on malformed JSON, unknown payload kinds, or payload
            fields that do not match the dataclass signature.
    """
    try:
        body = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"malformed frame: {exc}") from exc
    if not isinstance(body, dict):
        raise WireError("frame body is not an object")
    try:
        cls = PAYLOAD_TYPES[body["kind"]]
        raw_fields = body["payload"]
        fields = {key: _decode_value(value) for key, value in raw_fields.items()}
        payload = cls(**fields)
        return Envelope(
            kind=body["kind"],
            payload=payload,
            source=body["source"],
            dest=body["dest"],
            msg_id=body["msg_id"],
            ttl=body["ttl"],
            hops=body["hops"],
            trace=body.get("trace"),
        )
    except WireError:
        raise
    except (KeyError, TypeError) as exc:
        raise WireError(f"malformed frame: {exc}") from exc


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
