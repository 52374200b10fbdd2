"""The benchmark's client side: one asyncio process, one event-loop thread.

Each :class:`Connection` is a ``LoadGenerator`` fabric (one socket to one
directory) carrying the stock ``SAriadneClientAgent`` plus an
:class:`Observer` agent that resolves one ``asyncio.Future`` per
``QueryResponse`` and one for the first ``DirectoryAdvert`` — answers are
awaited, never polled.

Two kinds of timed work, both on ``loop.time()``:

* publication bursts, each closed by a barrier query whose answer proves
  the burst landed (the socket is FIFO);
* closed-loop windows with a fixed number of queries outstanding: one
  for latency, several for throughput.

Every answer is checked against the mix's oracle.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from xml.etree import ElementTree

from repro.network.messages import DirectoryAdvert, QueryResponse
from repro.network.node import ProtocolAgent
from repro.obs import NULL_OBS
from repro.protocols.live_deploy import LoadGenerator

#: A query unanswered this long after it was sent has failed.
TIMEOUT_S = 2.0


#: The host-speed loop's input: a fixed document shaped like a request,
#: parsed ``REF_PARSES`` times per reading (about 3-5 ms in all).
REF_DOCUMENT = "<request>" + "".join(
    f'<capability uri="c{i}"><input>concept{i}</input><output ref="o{i}"/></capability>'
    for i in range(60)
) + "</request>"
REF_PARSES = 30


def ref_loop_ms() -> float:
    """Time a fixed piece of work: a reading of the host's speed, taken
    between timed phases so each can be scaled to a common speed.

    The work parses XML into objects and reads them into a dict, as a
    directory does with each request.  A shared host slows such
    allocation-heavy code more than a tight arithmetic loop, and only a
    reading of the same kind scales the directory's timings back to a
    steady number.
    """
    start = time.perf_counter()
    for _ in range(REF_PARSES):
        root = ElementTree.fromstring(REF_DOCUMENT)
        {node.get("uri"): node.find("input").text for node in root}
    return (time.perf_counter() - start) * 1e3


class Observer(ProtocolAgent):
    """Resolves a future per ``QueryResponse`` and on the first advert."""

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        super().__init__()
        self._loop = loop
        self.waiters: dict[int, asyncio.Future] = {}
        self.advert: asyncio.Future = loop.create_future()

    def on_message(self, envelope) -> None:
        """Stamp and hand over responses and the first advert."""
        payload = envelope.payload
        if isinstance(payload, QueryResponse):
            waiter = self.waiters.pop(payload.query_id, None)
            if waiter is not None and not waiter.done():
                waiter.set_result((self._loop.time(), payload))
        elif isinstance(payload, DirectoryAdvert) and not self.advert.done():
            self.advert.set_result(self._loop.time())


class Connection:
    """One client fabric with one link to one directory.

    Args:
        config: the deployment config the servers run.
        address: the directory's protocol address.
        node_id: this client's node id.
        directory_node_id: the directory's node id.
        recorder: when given, ``client.send``/``client.recv`` spans are
            recorded around the client agent's calls.
    """

    def __init__(self, config, address: str, node_id: int, directory_node_id: int, recorder=None):
        loop = asyncio.get_running_loop()
        self.generator = LoadGenerator(
            config,
            connect=address,
            node_id=node_id,
            directory_node_id=directory_node_id,
            obs=NULL_OBS,
        )
        self.client = self.generator.client
        self.observer = Observer(loop)
        self.generator.fabric.node.add_agent(self.observer)
        #: Every query id this connection issued.
        self.query_ids: list[int] = []
        self.recorder = recorder
        if recorder is not None:
            receive = self.client.on_message

            def traced_receive(envelope) -> None:
                payload = envelope.payload
                if isinstance(payload, QueryResponse):
                    recorder.call("client.recv", receive, envelope, qid=payload.query_id)
                else:
                    receive(envelope)

            self.client.on_message = traced_receive

    async def start(self) -> None:
        """Dial the directory."""
        await self.generator.start()

    def send(self, document: str):
        """Issue one query; returns ``(query id, future)`` or ``None`` when
        the transport refused it."""
        if self.recorder is None:
            ticket = self.client.query(document)
        else:
            ticket, span = self.recorder.call("client.send", self.client.query, document)
            span["qid"] = ticket.query_id
        if not ticket:
            return None
        self.query_ids.append(ticket.query_id)
        waiter = asyncio.get_running_loop().create_future()
        self.observer.waiters[ticket.query_id] = waiter
        return ticket.query_id, waiter

    async def ask(self, document: str, timeout: float = 30.0):
        """Send one query and await its response payload.

        Raises:
            RuntimeError: when the send fails or no answer arrives in time.
        """
        sent = self.send(document)
        if sent is None:
            raise RuntimeError("query send failed")
        try:
            _when, payload = await asyncio.wait_for(sent[1], timeout)
        except asyncio.TimeoutError:
            raise RuntimeError(f"no answer within {timeout} s") from None
        return payload

    async def close(self) -> None:
        """Tear the fabric down."""
        await self.generator.close()


@dataclass
class Tally:
    """Outcome counts of measured queries."""

    attempted: int = 0
    answered: int = 0
    send_failed: int = 0
    timed_out: int = 0
    partial: int = 0
    mismatched: int = 0
    query_ids: list[int] = field(default_factory=list)

    @property
    def failed(self) -> int:
        """Queries that did not produce a correct, complete, timely answer."""
        return self.send_failed + self.timed_out + self.partial + self.mismatched

    def add(self, other: "Tally") -> None:
        """Fold another tally into this one."""
        for name in ("attempted", "answered", "send_failed", "timed_out", "partial", "mismatched"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.query_ids += other.query_ids


def _judge(mix, tally: Tally, index: int, payload) -> bool:
    """Classify one answer; True when it counts as answered."""
    if payload.partial:
        tally.partial += 1
        return False
    tally.answered += 1
    if not mix.check(index, payload.results):
        tally.mismatched += 1
    return True


class Writes:
    """Interleaves churn writes with queries: one per ``every`` queries."""

    def __init__(self, writer, connection: Connection | None, every: int) -> None:
        self.writer = writer
        self.connection = connection
        self.every = every
        self._queries = 0
        self.failed = 0

    def after_query(self) -> None:
        """Count a query; write when it is the write's turn."""
        if self.connection is None:
            return
        self._queries += 1
        if self._queries % self.every == 0 and not self.writer.write(self.connection.client):
            self.failed += 1


async def publish_burst(connection: Connection, documents: list[str], barrier: str) -> float:
    """Publish ``documents``; returns services/s, timed until the barrier
    query sent after them is answered."""
    loop = asyncio.get_running_loop()
    started = loop.time()
    for document in documents:
        if not connection.client.publish(document):
            raise RuntimeError("publish send failed")
    payload = await connection.ask(barrier)
    if payload.partial:
        raise RuntimeError("barrier query answered partial")
    return len(documents) / (loop.time() - started)


@dataclass
class Window:
    """One closed-loop window: answered latencies (s), its start and
    length on ``loop.time()``, and the outcome tally."""

    latencies: list[float]
    started: float
    elapsed: float
    tally: Tally

    @property
    def rate(self) -> float:
        """Answered queries per second."""
        return len(self.latencies) / self.elapsed


async def closed_loop(
    connection: Connection, mix, sequence, window_s: float, outstanding: int, writes: Writes
) -> Window:
    """Keep ``outstanding`` queries in flight for ``window_s``.

    Each of ``outstanding`` workers sends its next request as soon as the
    previous one is answered; a query's latency runs from its send to its
    answer.  With one worker this is the latency a lone waiting client
    sees, with several the throughput of a saturated directory.
    """
    loop = asyncio.get_running_loop()
    # The client agent keeps every answer for its application; this one
    # reads answers from the observer, so the store only costs
    # garbage-collector time.
    connection.client.responses.clear()
    tally = Tally()
    latencies: list[float] = []
    started = loop.time()
    end = started + window_s

    async def worker() -> None:
        while loop.time() < end:
            index = next(sequence)
            issued = loop.time()
            sent = connection.send(mix.requests[index])
            tally.attempted += 1
            writes.after_query()
            if sent is None:
                tally.send_failed += 1
                continue
            qid, waiter = sent
            tally.query_ids.append(qid)
            done, _pending = await asyncio.wait([waiter], timeout=TIMEOUT_S)
            if not done:
                waiter.cancel()
                connection.observer.waiters.pop(qid, None)
                tally.timed_out += 1
                continue
            answered_at, payload = waiter.result()
            if _judge(mix, tally, index, payload):
                latencies.append(answered_at - issued)

    await asyncio.gather(*(worker() for _ in range(outstanding)))
    return Window(latencies, started, loop.time() - started, tally)
