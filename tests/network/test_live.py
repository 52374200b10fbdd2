"""Live-fabric unit tests: handshake, routing, failure mapping.

The equivalence suite (``test_live_equivalence``) proves whole-protocol
fidelity; these tests pin the fabric-level semantics — Hello-keyed
connection reuse, clique broadcast, and the transport-failure contract
(``unicast -> False``, never ``OSError``, with client outcomes mapping
to ``SEND_FAILED`` / ``EXHAUSTED``).
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.network.live import LiveFabric, parse_address
from repro.network.messages import DirectoryAdvert, Envelope, PublishService
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
