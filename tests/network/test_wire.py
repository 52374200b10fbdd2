"""Round-trip property tests for the live wire codec.

Every payload dataclass in :mod:`repro.network.messages` must survive
``encode_frame`` → ``decode_frame`` bit-exactly — including ``None``
optionals, unicode URIs/documents, empty and non-empty tuples, and raw
``bytes`` Bloom bitsets.  The strategies below are generated *from the
registry*, so a payload added to ``messages.py`` without codec coverage
fails ``test_every_payload_type_has_a_strategy`` instead of silently
shipping unserializable.
"""

from __future__ import annotations

import dataclasses
import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import messages as m
from repro.network.wire import (
    MAX_FRAME,
    PAYLOAD_TYPES,
    WireError,
    decode_frame,
    encode_frame,
)

# Unicode-heavy text: URIs and XML documents with astral and RTL
# characters, so the UTF-8 leg of the codec is genuinely exercised.
text = st.text(max_size=40)
uri = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=60
)
node_id = st.integers(min_value=0, max_value=2**31 - 1)
distance = st.integers(min_value=-(2**31), max_value=2**31 - 1)
result_rows = st.tuples()  # placeholder, replaced below


def _rows():
    return st.lists(
        st.tuples(uri, uri, distance).map(tuple), max_size=4
    ).map(tuple)


encoded_request = st.builds(
    m.EncodedRequest,
    protocol=st.sampled_from(["sariadne", "ariadne"]),
    codes_version=st.none() | st.integers(min_value=0, max_value=2**31),
    data=st.lists(
        st.tuples(uri, st.lists(uri, max_size=3).map(tuple)).map(tuple), max_size=3
    ).map(tuple),
)

#: One strategy per wire payload class, keyed like PAYLOAD_TYPES.
PAYLOAD_STRATEGIES: dict[str, st.SearchStrategy] = {
    "Hello": st.builds(m.Hello, node_id=node_id),
    "DirectoryAdvert": st.builds(m.DirectoryAdvert, directory_id=node_id),
    "ElectionCall": st.builds(m.ElectionCall, initiator=node_id, election_id=node_id),
    "ElectionReply": st.builds(
        m.ElectionReply,
        candidate=node_id,
        election_id=node_id,
        fitness=st.floats(allow_nan=False, allow_infinity=False, width=32),
    ),
    "Appointment": st.builds(m.Appointment, directory_id=node_id, election_id=node_id),
    "DirectoryAnnounce": st.builds(
        m.DirectoryAnnounce, directory_id=node_id, reply_expected=st.booleans()
    ),
    "SummaryExchange": st.builds(
        m.SummaryExchange,
        directory_id=node_id,
        bloom_bits=st.binary(max_size=64),
        bloom_m=st.integers(min_value=0, max_value=2**20),
        bloom_k=st.integers(min_value=0, max_value=16),
    ),
    "SummaryRequest": st.builds(m.SummaryRequest, requester_directory=node_id),
    "DirectoryHandoff": st.builds(
        m.DirectoryHandoff,
        documents=st.lists(text, max_size=4).map(tuple),
        from_directory=node_id,
    ),
    "CodeRefreshResponse": st.builds(
        m.CodeRefreshResponse,
        version=node_id,
        codes=st.lists(st.tuples(uri, text).map(tuple), max_size=4).map(tuple),
    ),
    "PublishService": st.builds(m.PublishService, document=text),
    "WithdrawService": st.builds(m.WithdrawService, service_uri=uri),
    "EncodedRequest": encoded_request,
    "QueryRequest": st.builds(
        m.QueryRequest,
        query_id=node_id,
        document=text,
        wire=st.none() | encoded_request,
    ),
    "QueryResponse": st.builds(
        m.QueryResponse, query_id=node_id, results=_rows(), partial=st.booleans()
    ),
    "RemoteQuery": st.builds(
        m.RemoteQuery,
        query_id=node_id,
        document=text,
        origin_directory=node_id,
        wire=st.none() | encoded_request,
    ),
    "RemoteResponse": st.builds(m.RemoteResponse, query_id=node_id, results=_rows()),
    "TelemetryHello": st.builds(
        m.TelemetryHello,
        node_id=node_id,
        role=st.sampled_from(["directory", "loadgen", "collector"]),
        pid=node_id,
    ),
    "TelemetryBatch": st.builds(
        m.TelemetryBatch,
        node_id=node_id,
        records=st.lists(text, max_size=4).map(tuple),
        backlog=st.integers(min_value=0, max_value=2**20),
    ),
    "TelemetryQuery": st.builds(
        m.TelemetryQuery,
        kind=st.sampled_from(["top", "trace", "traces", "metrics"]),
        arg=text,
    ),
    "TelemetryReply": st.builds(m.TelemetryReply, kind=text, body=text),
}

envelopes = st.sampled_from(sorted(PAYLOAD_STRATEGIES)).flatmap(
    lambda kind: st.builds(
        m.Envelope,
        kind=st.just(kind),
        payload=PAYLOAD_STRATEGIES[kind],
        source=node_id,
        dest=st.none() | node_id,
        msg_id=node_id,
        ttl=st.integers(min_value=0, max_value=16),
        hops=st.integers(min_value=0, max_value=16),
        trace=st.none() | st.text(max_size=30),
    )
)


def test_every_payload_type_has_a_strategy():
    """A payload added to messages.py must gain codec coverage here."""
    assert set(PAYLOAD_STRATEGIES) == set(PAYLOAD_TYPES)


@given(envelope=envelopes)
@settings(max_examples=300, deadline=None)
def test_envelope_round_trips_exactly(envelope):
    frame = encode_frame(envelope)
    (length,) = struct.unpack(">I", frame[:4])
    assert length == len(frame) - 4
    assert decode_frame(frame[4:]) == envelope


#: One deterministic instance per payload class (fast non-property smoke).
PAYLOAD_EXAMPLES = [
    m.Hello(3),
    m.DirectoryAdvert(1),
    m.ElectionCall(2, 9),
    m.ElectionReply(4, 9, 3.5),
    m.Appointment(4, 9),
    m.DirectoryAnnounce(1, reply_expected=False),
    m.SummaryExchange(1, b"\x00\xff\x10", 512, 4),
    m.SummaryRequest(2),
    m.DirectoryHandoff(("<doc a/>", "<doc b/>"), 1),
    m.CodeRefreshResponse(7, (("urn:c", "0.5:0.75"),)),
    m.PublishService("<profile/>"),
    m.WithdrawService("urn:svc:1"),
    m.EncodedRequest("sariadne", 7, (("cap", ("urn:a", "urn:b")),)),
    m.QueryRequest(5, "<req/>", m.EncodedRequest("sariadne", None)),
    m.QueryResponse(5, (("s", "c", 2),), partial=True),
    m.RemoteQuery(5, "<req/>", 0, None),
    m.RemoteResponse(5, ()),
    m.TelemetryHello(1, "loadgen", 4242),
    m.TelemetryBatch(1, ('{"type":"span","name":"query.handle"}',), backlog=3),
    m.TelemetryQuery("trace", "q0.5"),
    m.TelemetryReply("top", '{"nodes": {}}'),
]


@pytest.mark.parametrize(
    "payload", PAYLOAD_EXAMPLES, ids=lambda p: type(p).__name__
)
def test_each_payload_kind_round_trips(payload):
    envelope = m.Envelope(
        kind=type(payload).__name__, payload=payload, source=1, dest=2, msg_id=3, ttl=4, hops=5
    )
    assert decode_frame(encode_frame(envelope)[4:]) == envelope


def test_examples_cover_every_payload_type():
    assert {type(p).__name__ for p in PAYLOAD_EXAMPLES} == set(PAYLOAD_TYPES)


def test_unicode_uri_and_document_survive():
    payload = m.QueryRequest(7, "<req uri='urn:répro:𝓼ервис'>данные</req>")
    envelope = m.Envelope("QueryRequest", payload, 0, 1, 2)
    back = decode_frame(encode_frame(envelope)[4:])
    assert back.payload.document == payload.document


def test_none_fields_survive():
    envelope = m.Envelope(
        "QueryRequest", m.QueryRequest(1, "d", None), source=0, dest=None, msg_id=9
    )
    back = decode_frame(encode_frame(envelope)[4:])
    assert back.payload.wire is None
    assert back.dest is None


def test_trace_context_rides_the_frame():
    """A stamped traceparent survives; an unstamped frame carries none."""
    traced = m.Envelope(
        "QueryRequest",
        m.QueryRequest(1, "d"),
        source=0,
        dest=1,
        msg_id=9,
        trace="00-q0.1-n1.c1-01",
    )
    assert decode_frame(encode_frame(traced)[4:]).trace == "00-q0.1-n1.c1-01"
    untraced = m.Envelope("QueryRequest", m.QueryRequest(1, "d"), 0, 1, 9)
    frame = encode_frame(untraced)
    assert decode_frame(frame[4:]).trace is None
    assert decode_frame(frame[4:]) == dataclasses.replace(traced, trace=None)


#: Exact frames, prefix included.  A format change must edit these
#: deliberately; the round-trip properties alone would accept any codec.
GOLDEN_FRAMES = {
    "QueryRequest": (
        m.Envelope(
            "QueryRequest",
            m.QueryRequest(
                5,
                "<req/>",
                m.EncodedRequest("sariadne", 7, (("urn:cap", ("urn:a", "urn:b")),)),
            ),
            source=3,
            dest=0,
            msg_id=42,
            ttl=1,
            hops=0,
        ),
        b'\x00\x00\x00f["QueryRequest",3,0,42,1,0,null,5,"<req/>",'
        b'{"__enc__":["sariadne",7,[["urn:cap",["urn:a","urn:b"]]]]}]',
    ),
    "QueryResponse": (
        m.Envelope(
            "QueryResponse",
            m.QueryResponse(5, (("urn:svc:1", "urn:cap", 2),)),
            source=0,
            dest=3,
            msg_id=43,
            ttl=1,
            hops=0,
            trace="00-q0.5-n0.c1-01",
        ),
        b'\x00\x00\x00S["QueryResponse",0,3,43,1,0,"00-q0.5-n0.c1-01",5,'
        b'[["urn:svc:1","urn:cap",2]],false]',
    ),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_FRAMES))
def test_golden_frame_bytes(kind):
    envelope, frame = GOLDEN_FRAMES[kind]
    assert encode_frame(envelope) == frame
    assert decode_frame(frame[4:]) == envelope


def test_decoded_sequences_are_tuples():
    """Agents hash and compare results; lists would break that."""
    rows = (("s", "c", 1), ("t", "d", 0))
    envelope = m.Envelope("QueryResponse", m.QueryResponse(1, rows), 0, 1, 2)
    back = decode_frame(encode_frame(envelope)[4:]).payload
    assert back.results == rows
    assert isinstance(back.results, tuple)
    assert all(isinstance(row, tuple) for row in back.results)


def test_unregistered_payload_rejected():
    class Rogue:
        pass

    with pytest.raises(WireError):
        encode_frame(m.Envelope("Rogue", Rogue(), 0, 1, 2))


def test_malformed_frames_rejected():
    with pytest.raises(WireError):
        decode_frame(b"not json")
    with pytest.raises(WireError):
        decode_frame(b'{"kind": "NoSuchPayload", "payload": {}}')
    with pytest.raises(WireError):
        decode_frame(b'{"kind": "Hello", "payload": {"wrong_field": 1}}')


#: Bodies the decoder must refuse with ``WireError`` and nothing else.
MALFORMED_BODIES = {
    "object_body": b'{"kind": "Hello", "payload": [1]}',
    "short_header": b'["Hello", 1, 0, 2, 0, 0]',
    "unknown_kind": b'["NoSuchPayload", 1, 0, 2, 0, 0, null]',
    "unhashable_kind": b'[["Hello"], 1, 0, 2, 0, 0, null, 1]',
    "envelope_kind": b'["Envelope", 1, 0, 2, 0, 0, null, 1]',
    "too_few_fields": b'["Hello", 1, 0, 2, 0, 0, null]',
    "too_many_fields": b'["Hello", 1, 0, 2, 0, 0, null, 1, 2]',
    "ttl_not_int": b'["Hello", 1, 0, 2, "x", 0, null, 1]',
    "source_bool": b'["Hello", true, 0, 2, 0, 0, null, 1]',
    "dest_float": b'["Hello", 1, 0.5, 2, 0, 0, null, 1]',
    "trace_not_str": b'["Hello", 1, 0, 2, 0, 0, 7, 1]',
    "enc_not_array": b'["QueryRequest", 1, 0, 2, 0, 0, null, 1, "d", {"__enc__": 5}]',
    "enc_arity": b'["QueryRequest", 1, 0, 2, 0, 0, null, 1, "d", {"__enc__": ["a"]}]',
    "b64_invalid": b'["SummaryExchange", 1, 0, 2, 0, 0, null, 1, {"__b64__": "@@@"}, 8, 1]',
    "b64_not_str": b'["SummaryExchange", 1, 0, 2, 0, 0, null, 1, {"__b64__": 5}, 8, 1]',
    "b64_extra_key": b'["SummaryExchange", 1, 0, 2, 0, 0, null, 1, {"__b64__": "", "x": 1}, 8, 1]',
    "untagged_object": b'["PublishService", 1, 0, 2, 0, 0, null, {"other": 1}]',
    "nested_too_deep": b"[" * 100_000,
    "not_utf8": b"\xff\xfe",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_BODIES))
def test_malformed_positional_frames_raise_wire_error(case):
    with pytest.raises(WireError):
        decode_frame(MALFORMED_BODIES[case])


#: Arbitrary JSON, with the tagged objects and header-shaped arrays mixed
#: in so the property reaches past the first shape check.
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=10)
    | st.sampled_from(sorted(PAYLOAD_TYPES))
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=8), children, max_size=3)
    | st.dictionaries(st.sampled_from(["__b64__", "__enc__"]), children, min_size=1),
    max_leaves=20,
)
header = st.tuples(
    st.integers(),
    st.none() | st.integers(),
    st.integers(),
    st.integers(),
    st.integers(),
    st.none() | st.text(max_size=5),
).map(list)
header_shaped = st.sampled_from(sorted(PAYLOAD_TYPES)).flatmap(
    lambda kind: st.tuples(
        st.just(kind),
        header | header | st.lists(json_values, min_size=6, max_size=6),
        st.lists(
            json_scalars | st.lists(json_scalars, max_size=3) | json_values,
            min_size=len(dataclasses.fields(PAYLOAD_TYPES[kind])),
            max_size=len(dataclasses.fields(PAYLOAD_TYPES[kind])),
        ),
    )
).map(lambda parts: [parts[0], *parts[1], *parts[2]])


@given(body=json_values | header_shaped | header_shaped)
@settings(max_examples=500, deadline=None)
def test_any_json_body_decodes_or_raises_wire_error(body):
    data = json.dumps(body).encode("utf-8")
    try:
        envelope = decode_frame(data)
    except WireError:
        return
    assert isinstance(envelope, m.Envelope)
    assert type(envelope.payload) is PAYLOAD_TYPES[envelope.kind]


def test_oversized_frame_rejected():
    big = m.Envelope(
        "PublishService", m.PublishService("x" * (MAX_FRAME + 1)), 0, 1, 2
    )
    with pytest.raises(WireError):
        encode_frame(big)
