"""Live-fabric unit tests: handshake, routing, failure mapping.

The equivalence suite (``test_live_equivalence``) proves whole-protocol
fidelity; these tests pin the fabric-level semantics — Hello-keyed
connection reuse, clique broadcast, and the transport-failure contract
(``unicast -> False``, never ``OSError``, with client outcomes mapping
to ``SEND_FAILED`` / ``EXHAUSTED``) — plus framing, malformed input,
unencodable payloads and the bounded send side.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import socket
import struct

import pytest

from repro.network.live import LiveFabric, parse_address
from repro.network.messages import (
    DirectoryAdvert,
    Envelope,
    Hello,
    PublishService,
    QueryResponse,
)
from repro.network.wire import MAX_FRAME, encode_frame
from repro.network.node import ProtocolAgent


class Recorder(ProtocolAgent):
    """Collects every delivered envelope."""

    def __init__(self):
        super().__init__()
        self.got: list[Envelope] = []

    def on_message(self, envelope: Envelope) -> None:
        self.got.append(envelope)


def run(coro):
    return asyncio.run(coro)


def test_parse_address():
    assert parse_address("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")
    assert parse_address("tcp:127.0.0.1:9000") == ("tcp", "127.0.0.1", "9000")
    for bad in ("x", "udp:1:2", "tcp:nohost", "unix:", "tcp:h:port"):
        with pytest.raises(ValueError):
            parse_address(bad)


def test_unicast_and_reply_over_one_socket(tmp_path):
    """The dialing side never listens; replies ride the inbound socket."""

    async def scenario():
        address = f"unix:{os.path.join(str(tmp_path), 's.sock')}"
        server = LiveFabric(0, listen=address)
        client = LiveFabric(1, peers={0: address})
        server_log = server.node.add_agent(Recorder())
        client_log = client.node.add_agent(Recorder())
        await server.start()
        await client.start()
        assert client.node.unicast(0, PublishService("<doc/>"))
        await asyncio.sleep(0.2)
        assert [e.payload for e in server_log.got] == [PublishService("<doc/>")]
        # Hello registered the client: the server can reply and broadcast.
        assert server.is_up(1)
        assert server.hop_count(0, 1) == 1
        assert server.node.unicast(1, PublishService("reply"))
        server.node.broadcast(DirectoryAdvert(0), ttl=2)
        await asyncio.sleep(0.2)
        payloads = [e.payload for e in client_log.got]
        assert PublishService("reply") in payloads
        assert DirectoryAdvert(0) in payloads
        await client.close()
        await server.close()

    run(scenario())


def test_envelope_metadata_on_the_wire(tmp_path):
    async def scenario():
        address = f"unix:{os.path.join(str(tmp_path), 's.sock')}"
        server = LiveFabric(0, listen=address)
        client = LiveFabric(1, peers={0: address})
        log = server.node.add_agent(Recorder())
        await server.start()
        await client.start()
        client.node.unicast(0, PublishService("x"))
        await asyncio.sleep(0.2)
        (envelope,) = log.got
        assert envelope.source == 1
        assert envelope.dest == 0
        assert envelope.kind == "PublishService"
        assert envelope.hops == 2  # one queued hop + the delivery bump
        await client.close()
        await server.close()

    run(scenario())


def test_unknown_peer_unicast_returns_false():
    async def scenario():
        fabric = LiveFabric(0)
        await fabric.start()
        assert fabric.node.unicast(99, PublishService("x")) is False
        assert fabric.stats.drops_unreachable == 1
        await fabric.close()

    run(scenario())


def test_connect_refused_marks_link_dead_not_raises(tmp_path):
    """The OSError-mapping satellite: refused dials surface as a dead
    link (``unicast -> False``), never as an exception in agent code."""

    async def scenario():
        nowhere = f"unix:{os.path.join(str(tmp_path), 'absent.sock')}"
        fabric = LiveFabric(0, peers={9: nowhere})
        fabric.connect_retries = 2
        fabric.connect_backoff = 0.01
        await fabric.start()
        # Optimistic while the link task is still dialing/backing off.
        assert fabric.node.unicast(9, PublishService("x")) is True
        await asyncio.sleep(0.3)
        assert fabric.is_up(9) is False
        assert fabric.node.unicast(9, PublishService("x")) is False
        assert fabric.hop_count(0, 9) is None
        await fabric.close()

    run(scenario())


def test_client_outcomes_on_dead_directory(tmp_path):
    """End to end through the client agent: a refused directory yields
    ``EXHAUSTED`` for the in-flight query (optimistic send, retries
    elapse) and ``SEND_FAILED`` once the link is known dead."""
    from repro.protocols.base import QueryOutcome
    from repro.protocols.sariadne import SAriadneClientAgent

    async def scenario():
        nowhere = f"unix:{os.path.join(str(tmp_path), 'absent.sock')}"
        fabric = LiveFabric(1, peers={0: nowhere})
        fabric.connect_retries = 2
        fabric.connect_backoff = 0.01
        client = fabric.node.add_agent(SAriadneClientAgent(lambda: 0))
        await fabric.start()
        ticket = client.query("<req/>", retries=1, retry_timeout=0.1)
        assert ticket.outcome is QueryOutcome.PENDING  # optimistic accept
        deadline = asyncio.get_event_loop().time() + 5.0
        while ticket.outcome is QueryOutcome.PENDING:
            assert asyncio.get_event_loop().time() < deadline
            await asyncio.sleep(0.01)
        assert ticket.outcome is QueryOutcome.EXHAUSTED
        # The link is dead now: the failure is synchronous and typed.
        second = client.query("<req/>")
        assert second.outcome is QueryOutcome.SEND_FAILED
        assert not second
        await fabric.close()

    run(scenario())


def test_broadcast_skips_dead_links(tmp_path):
    async def scenario():
        good = f"unix:{os.path.join(str(tmp_path), 'good.sock')}"
        bad = f"unix:{os.path.join(str(tmp_path), 'bad.sock')}"
        server = LiveFabric(0, listen=good)
        log = server.node.add_agent(Recorder())
        await server.start()
        fabric = LiveFabric(1, peers={0: good, 9: bad})
        fabric.connect_retries = 1
        fabric.connect_backoff = 0.01
        await fabric.start()
        await asyncio.sleep(0.2)  # let the bad link die
        fabric.node.broadcast(DirectoryAdvert(1), ttl=2)
        await asyncio.sleep(0.2)
        assert [e.payload for e in log.got] == [DirectoryAdvert(1)]
        assert fabric.neighbors(1) == [server.nodes[0]] or [
            n.node_id for n in fabric.neighbors(1)
        ] == [0]
        await fabric.close()
        await server.close()

    run(scenario())


def test_duplicate_peer_id_rejected():
    async def scenario():
        with pytest.raises(ValueError):
            LiveFabric(0, peers={0: "unix:/tmp/x.sock"})

    run(scenario())


def test_election_and_advert_over_live_fabric(tmp_path):
    """The §4 loop on sockets: a capable node self-elects after silence
    and its adverts teach a plain client who the directory is."""
    from repro.network.election import ElectionAgent, ElectionConfig

    fast = ElectionConfig(
        advert_interval=0.2, directory_timeout=0.15, check_interval=0.05, reply_window=0.05
    )

    async def scenario():
        address = f"unix:{os.path.join(str(tmp_path), 's.sock')}"
        server = LiveFabric(0, listen=address)
        server_election = server.node.add_agent(ElectionAgent(config=fast))
        client = LiveFabric(1, peers={0: address})
        client_election = client.node.add_agent(
            ElectionAgent(config=fast, directory_capable=False)
        )
        await server.start()
        await client.start()
        deadline = asyncio.get_event_loop().time() + 5.0
        while client_election.current_directory is None:
            assert asyncio.get_event_loop().time() < deadline
            await asyncio.sleep(0.02)
        assert server_election.is_directory
        assert client_election.current_directory == 0
        await client.close()
        await server.close()

    run(scenario())


def _bad_then_good(tmp_path, workload, table, garble):
    """Publish an advertisement to a live S-Ariadne directory, then send
    ``garble(advert)`` as a second advertisement and ``garble(request)``
    as a query, then the well-formed request on the same connection: the
    bad query gets a zero-row answer and the good one is answered too."""
    from repro.network.messages import QueryRequest, QueryResponse
    from repro.protocols.sariadne import SAriadneDirectoryAgent
    from repro.services.xml_codec import profile_to_xml, request_to_xml

    profile = workload.make_service(0)
    advert = profile_to_xml(
        profile,
        annotations=table.annotate(profile.provided),
        codes_version=table.version,
    )
    request = workload.matching_request(profile)
    good = request_to_xml(
        request,
        annotations=table.annotate(request.capabilities),
        codes_version=table.version,
    )

    async def answer(log, query_id):
        deadline = asyncio.get_event_loop().time() + 5.0
        while True:
            for envelope in log.got:
                payload = envelope.payload
                if isinstance(payload, QueryResponse) and payload.query_id == query_id:
                    return payload
            assert asyncio.get_event_loop().time() < deadline, f"query {query_id} unanswered"
            await asyncio.sleep(0.01)

    async def scenario():
        address = f"unix:{os.path.join(str(tmp_path), 's.sock')}"
        server = LiveFabric(0, listen=address)
        agent = server.node.add_agent(SAriadneDirectoryAgent(table))
        client = LiveFabric(1, peers={0: address})
        log = client.node.add_agent(Recorder())
        await server.start()
        await client.start()
        try:
            assert client.node.unicast(0, PublishService(advert))
            assert client.node.unicast(0, PublishService(garble(advert)))
            assert client.node.unicast(0, QueryRequest(1, garble(good)))
            assert (await answer(log, 1)).results == ()
            assert client.node.unicast(0, QueryRequest(2, good))
            rows = (await answer(log, 2)).results
            assert any(row[0] == profile.uri for row in rows)
        finally:
            await client.close()
            await server.close()
        return agent

    return run(scenario())


def test_malformed_query_answered_and_connection_survives(
    tmp_path, small_workload, small_table
):
    """A query whose document does not parse gets a zero-row answer, and
    the peer connection keeps serving: a well-formed query sent after it
    on the same socket is answered too."""
    agent = _bad_then_good(tmp_path, small_workload, small_table, lambda _doc: "<garbage")
    assert agent.publish_errors == 1


def test_malformed_code_answered_and_connection_survives(
    tmp_path, small_workload, small_table
):
    """Well-formed documents whose embedded codes do not parse: the
    advertisement is counted as a publish error, the query gets a
    zero-row answer, and the connection keeps serving."""
    from tests.protocols.test_fastpath import garble_code

    agent = _bad_then_good(tmp_path, small_workload, small_table, garble_code)
    assert agent.publish_errors == 1


class Echo(ProtocolAgent):
    """Answers every ``PublishService`` with the same payload."""

    def on_message(self, envelope: Envelope) -> None:
        if isinstance(envelope.payload, PublishService):
            self.node.unicast(envelope.source, envelope.payload)


async def _wait_for(condition, timeout: float = 5.0) -> None:
    deadline = asyncio.get_event_loop().time() + timeout
    while not condition():
        assert asyncio.get_event_loop().time() < deadline, "condition never held"
        await asyncio.sleep(0.01)


def _frame(payload, source: int = 5) -> bytes:
    return encode_frame(Envelope(type(payload).__name__, payload, source, 0, 1))


def _body(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


def test_frames_split_and_batched_arrive_in_order(tmp_path):
    """Several frames in one read, and one frame spread over many reads,
    are all delivered, in send order."""

    async def scenario():
        address = os.path.join(str(tmp_path), "s.sock")
        server = LiveFabric(0, listen=f"unix:{address}")
        log = server.node.add_agent(Recorder())
        await server.start()
        reader, writer = await asyncio.open_unix_connection(address)
        writer.write(b"".join(_frame(p) for p in (Hello(5), PublishService("a"), PublishService("b"))))
        await writer.drain()
        for byte in _frame(PublishService("c")):
            writer.write(bytes([byte]))
            await writer.drain()
        await _wait_for(lambda: len(log.got) == 3)
        assert [e.payload.document for e in log.got] == ["a", "b", "c"]
        writer.close()
        await server.close()

    run(scenario())


def test_unencodable_payload_is_dropped_and_the_link_keeps_serving(tmp_path):
    """A payload the codec rejects is dropped and counted at flush; the
    link stays up and later sends — in the same flush or a later one —
    are delivered."""

    async def scenario():
        address = f"unix:{os.path.join(str(tmp_path), 's.sock')}"
        server = LiveFabric(0, listen=address)
        log = server.node.add_agent(Recorder())
        client = LiveFabric(1, peers={0: address})
        await server.start()
        await client.start()
        bad = QueryResponse(1, results=({"x": 1},))
        assert client.node.unicast(0, bad)
        assert client.node.unicast(0, PublishService("same flush"))
        await _wait_for(lambda: len(log.got) == 1)
        assert client.node.unicast(0, bad)
        await asyncio.sleep(0.05)
        assert client.is_up(0)
        assert client.node.unicast(0, PublishService("later flush"))
        await _wait_for(lambda: len(log.got) == 2)
        assert [e.payload for e in log.got] == [
            PublishService("same flush"),
            PublishService("later flush"),
        ]
        assert client.stats.drops_unencodable == 2
        await client.close()
        await server.close()

    run(scenario())


def test_bytes_sent_counts_framed_bytes(tmp_path):
    """Live traffic stats count the frames that went out, prefix
    included; the ``Hello`` is connection overhead and not counted."""

    async def scenario():
        address = f"unix:{os.path.join(str(tmp_path), 's.sock')}"
        server = LiveFabric(0, listen=address)
        log = server.node.add_agent(Recorder())
        client = LiveFabric(1, peers={0: address})
        await server.start()
        await client.start()
        client.node.unicast(0, PublishService("<doc/>"))
        await _wait_for(lambda: len(log.got) == 1)
        sent = dataclasses.replace(log.got[0], hops=log.got[0].hops - 1)
        assert client.stats.bytes_sent == len(encode_frame(sent))
        await client.close()
        await server.close()

    run(scenario())


MALFORMED = {
    "undecodable_body": lambda: _frame(Hello(5)) + struct.pack(">I", 5) + b"{oops",
    "wrong_arity": lambda: _frame(Hello(5)) + _body(b'["PublishService",5,0,1,0,0,null]'),
    "bad_header_type": lambda: _frame(Hello(5)) + _body(b'["PublishService",5,0,1,"x",0,null,"d"]'),
    "oversized_prefix": lambda: _frame(Hello(5)) + struct.pack(">I", MAX_FRAME + 1),
    "first_frame_not_hello": lambda: _frame(PublishService("x")),
    "no_hello_in_time": lambda: b"",
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_closes_only_its_connection(tmp_path, case):
    """The offending peer sees EOF, the node keeps accepting and answering
    new connections, and ``close()`` leaves no accepted socket open."""

    async def scenario():
        address = os.path.join(str(tmp_path), "s.sock")
        server = LiveFabric(0, listen=f"unix:{address}")
        server.connect_timeout = 0.2
        server.node.add_agent(Echo())
        await server.start()
        bystander = LiveFabric(2, peers={0: f"unix:{address}"})
        heard = bystander.node.add_agent(Recorder())
        await bystander.start()
        reader, writer = await asyncio.open_unix_connection(address)
        writer.write(MALFORMED[case]())
        await writer.drain()
        assert await asyncio.wait_for(reader.read(), 2.0) == b""
        writer.close()
        fresh = LiveFabric(1, peers={0: f"unix:{address}"})
        answers = fresh.node.add_agent(Recorder())
        await fresh.start()
        assert fresh.node.unicast(0, PublishService("after"))
        assert bystander.node.unicast(0, PublishService("bystander"))
        await _wait_for(lambda: answers.got and heard.got)
        assert answers.got[0].payload == PublishService("after")
        assert heard.got[0].payload == PublishService("bystander")
        await fresh.close()
        await bystander.close()
        await server.close()
        assert not server._connections

    run(scenario())


def test_slow_consumer_is_bounded_and_refused(tmp_path, monkeypatch):
    """A peer that stops reading: the link's unsent bytes stay at or under
    the cap, further sends return False and count as overflow, and a
    client query through that link fails as ``SEND_FAILED``."""
    from repro.network import live
    from repro.protocols.base import QueryOutcome
    from repro.protocols.sariadne import SAriadneClientAgent

    cap = 256 * 1024
    monkeypatch.setattr(live, "MAX_LINK_BUFFER", cap)

    async def scenario():
        path = os.path.join(str(tmp_path), "stuck.sock")
        stuck = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        stuck.bind(path)
        stuck.listen(1)  # never accepted, never read
        fabric = LiveFabric(1, peers={0: f"unix:{path}"})
        fabric.connect_timeout = 0.2
        client = fabric.node.add_agent(SAriadneClientAgent(lambda: 0))
        await fabric.start()
        link = fabric._links[0]
        await _wait_for(lambda: link.transport is not None)
        chunk = PublishService("x" * 4096)
        refused = False
        for _ in range(2000):
            if not fabric.node.unicast(0, chunk):
                refused = True
                break
            await asyncio.sleep(0)
            assert link.unsent_bytes() <= cap
        assert refused
        await asyncio.sleep(0)
        assert link.unsent_bytes() <= cap
        assert fabric.node.unicast(0, chunk) is False
        assert fabric.stats.drops_overflow >= 2
        assert fabric.is_up(0)
        assert client.query("<req/>").outcome is QueryOutcome.SEND_FAILED
        await fabric.close()
        stuck.close()

    run(scenario())
