"""Wall-clock asyncio fabric: the protocol agents on real sockets.

This module is the second implementation of the structural
:class:`~repro.network.runtime.Runtime` / :class:`~repro.network.runtime.Transport`
surfaces (the first is the discrete-event pair
:class:`~repro.network.simulator.Simulator` + :class:`~repro.network.node.Network`).
The agents in :mod:`repro.protocols` and :mod:`repro.network.election`
run on it **unmodified**: a :class:`LiveFabric` hosts one local
:class:`LiveNode` per process, peers are other processes reached over
TCP or unix-domain sockets, and every
:class:`~repro.network.messages.Envelope` travels as a
:mod:`repro.network.wire` frame instead of a Python reference.

Topology model: the live overlay is a *fully connected* clique — every
configured or handshaken peer is one hop away, broadcasts are fanned out
to each connected peer exactly once (no re-flooding; the clique makes it
redundant), and ``hop_count`` is 1 for every known peer.  This matches
the infrastructure-backed deployments of §1; simulating multi-hop radio
topologies remains the simulator's job.

Connection handling:

* one full-duplex socket per peer pair, reused for all traffic in both
  directions, driven by one :class:`asyncio.Protocol` per connection.
  The first frame on every socket is a
  :class:`~repro.network.messages.Hello` naming the dialing node, so the
  accepting side can route replies back over the same socket — a pure
  client (``repro.cli loadgen``) never listens.
* receiving: ``data_received`` splits the byte stream into
  length-prefixed frames and hands each decoded envelope to the local
  agents synchronously — no reader task sits between the socket and the
  agents.  A malformed frame (undecodable body, length prefix over
  :data:`~repro.network.wire.MAX_FRAME`, a first frame that is not
  ``Hello``, or no ``Hello`` within ``connect_timeout``) closes that one
  connection; the listener and every other connection keep serving.
* sending: ``unicast``/``flood`` append the envelope to the peer link's
  pending list and arm at most one ``loop.call_soon`` flush per link,
  which encodes everything sent during that loop turn and hands it to
  the transport in a single ``write``.  An envelope the codec rejects
  is dropped and counted; the rest of the batch still goes out.  Frames
  encoded while a dialed link is still connecting wait in its backlog
  and follow the ``Hello`` in send order.
* bounded: a link refuses sends (``unicast() -> False``) once its unsent
  bytes — backlog plus the transport's write buffer — reach
  :data:`MAX_LINK_BUFFER`, and a flush drops frames that would cross it,
  so a peer that stops reading cannot grow the sender's memory.
* a dial task per configured peer connects with exponential backoff and
  then waits for the connection to close before re-dialing.  Connect
  refusals and socket timeouts are **never** raised to agents: after
  ``connect_retries`` consecutive failures the link is marked dead and
  ``unicast`` returns ``False``, which the client machinery in
  :mod:`repro.protocols.base` already maps to
  ``QueryOutcome.SEND_FAILED`` (immediately) or ``EXHAUSTED`` (when the
  failure happens after an optimistic accept).  That keeps transport
  fault semantics identical across both fabrics.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import random
import struct
from collections.abc import Callable

from repro.network import wire
from repro.network.messages import Envelope, Hello
from repro.network.node import ProtocolAgent, TrafficStats
from repro.network.wire import MAX_FRAME, WireError, encode_frame
from repro.obs import NULL_OBS

#: Cap on one link's unsent bytes: its pre-connect backlog plus the
#: transport's write buffer.  Twice :data:`~repro.network.wire.MAX_FRAME`,
#: so one maximal frame always fits, and far above the largest burst a
#: client sends in one go (a 1024-advertisement publication, ~1 MiB).
MAX_LINK_BUFFER = 2 * MAX_FRAME

_LENGTH = struct.Struct(">I")


class LiveRuntime:
    """:class:`~repro.network.runtime.Runtime` over the asyncio clock.

    ``now`` is wall-clock seconds since the runtime was created (the
    loop's monotonic clock, so it never goes backwards).  Scheduling maps
    one-to-one onto ``loop.call_later``.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop | None = None) -> None:
        self._loop = loop if loop is not None else asyncio.get_event_loop()
        self._t0 = self._loop.time()
        #: Mirrors ``Simulator.obs`` so ``repro.obs.install`` can wire
        #: either engine without knowing which one it got.
        self.obs = NULL_OBS

    @property
    def now(self) -> float:
        """Seconds of wall clock since fabric start."""
        return self._loop.time() - self._t0

    def schedule(
        self, delay: float, callback: Callable[[], None], daemon: bool = False
    ):
        """Run ``callback`` after ``delay`` wall-clock seconds.

        ``daemon`` is accepted for signature compatibility; a live
        process has no drained-heap termination condition, so the flag
        has nothing to mean here.
        """
        return self._loop.call_later(max(0.0, delay), callback)

    def schedule_at(self, time: float, callback: Callable[[], None], daemon: bool = False):
        """Run ``callback`` at an absolute :attr:`now` timestamp."""
        return self.schedule(time - self.now, callback)

    def schedule_every(
        self,
        interval: float,
        callback: Callable[[], None],
        jitter: float = 0.0,
        rng: random.Random | None = None,
        daemon: bool = False,
    ) -> Callable[[], None]:
        """Run ``callback`` every ``interval`` (+ uniform jitter) seconds.

        Returns a zero-argument cancel function, like the simulator.
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        draw = (rng or random).uniform
        state = {"handle": None, "cancelled": False}

        def arm() -> None:
            delay = interval + (draw(0.0, jitter) if jitter else 0.0)
            state["handle"] = self._loop.call_later(delay, fire)

        def fire() -> None:
            if state["cancelled"]:
                return
            callback()
            if not state["cancelled"]:
                arm()

        def cancel() -> None:
            state["cancelled"] = True
            if state["handle"] is not None:
                state["handle"].cancel()

        arm()
        return cancel


class RemotePeer:
    """Directory-facing stub for a node living in another process.

    Appears in :attr:`LiveFabric.nodes` so peer-ranking code
    (``network.nodes[peer].battery``) works unchanged; the battery is a
    neutral constant because live deployments are mains-powered.
    """

    def __init__(self, node_id: int, battery: float = 1.0) -> None:
        self.node_id = node_id
        self.battery = battery

    def __repr__(self) -> str:
        return f"RemotePeer({self.node_id})"


class LiveNode:
    """The one in-process node of a :class:`LiveFabric`.

    Structurally a :class:`~repro.network.node.NetNode` as far as agents
    are concerned: ``add_agent`` / ``broadcast`` / ``unicast`` /
    ``deliver`` plus ``battery`` — there is just no position, because the
    live overlay has no radio geometry.
    """

    def __init__(self, node_id: int, battery: float = 1.0) -> None:
        self.node_id = node_id
        self.battery = battery
        self.agents: list[ProtocolAgent] = []
        self.network: LiveFabric | None = None

    def add_agent(self, agent: ProtocolAgent) -> ProtocolAgent:
        """Attach a protocol agent (same contract as ``NetNode``)."""
        agent.attach(self)
        self.agents.append(agent)
        return agent

    def broadcast(self, payload: object, ttl: int = 1) -> None:
        """Fan ``payload`` out to every connected peer (one overlay hop)."""
        assert self.network is not None, "node not added to a fabric"
        self.network.flood(self, payload, ttl)

    def unicast(self, dest: int, payload: object) -> bool:
        """Send ``payload`` to peer ``dest``; False when unroutable."""
        assert self.network is not None, "node not added to a fabric"
        return self.network.unicast(self, dest, payload)

    def deliver(self, envelope: Envelope) -> None:
        """Hand an envelope to every attached agent."""
        for agent in list(self.agents):
            agent.on_message(envelope)

    def __repr__(self) -> str:
        return f"LiveNode({self.node_id})"


def parse_address(address: str) -> tuple[str, ...]:
    """Parse ``unix:<path>`` / ``tcp:<host>:<port>`` address strings.

    Returns ``("unix", path)`` or ``("tcp", host, port_str)``.

    Raises:
        ValueError: on any other scheme or shape.
    """
    scheme, sep, rest = address.partition(":")
    if not sep or not rest:
        raise ValueError(f"address must be unix:<path> or tcp:<host>:<port>, got {address!r}")
    if scheme == "unix":
        return ("unix", rest)
    if scheme == "tcp":
        host, sep, port = rest.rpartition(":")
        if not sep or not host or not port.isdigit():
            raise ValueError(f"tcp address must be tcp:<host>:<port>, got {address!r}")
        return ("tcp", host, port)
    raise ValueError(f"unknown address scheme {scheme!r} in {address!r}")


class _PeerLink:
    """One peer's send side: pending envelopes, backlog, socket, liveness."""

    def __init__(self, peer_id: int, address: str | None) -> None:
        self.peer_id = peer_id
        #: Dial target; ``None`` for inbound-only peers (they dialed us).
        self.address = address
        #: Envelopes sent during the current loop turn, encoded by the
        #: one flush armed when the first of them arrived.
        self.pending: list[Envelope] = []
        #: Frames flushed while a dialed link had no socket; written
        #: right after the next connection's ``Hello``.
        self.backlog: list[bytes] = []
        self.backlog_bytes = 0
        self.transport: asyncio.Transport | None = None
        #: Size of the last frame a flush dropped for want of room (0 once
        #: a flush fits everything): sends are refused until that much
        #: room is free again.
        self.blocked = 0
        #: Set after ``connect_retries`` consecutive dial failures; a
        #: dead link refuses sends (→ ``SEND_FAILED``) instead of
        #: queueing into the void.
        self.dead = False
        self.task: asyncio.Task | None = None

    def unsent_bytes(self) -> int:
        """Bytes encoded for this peer that the kernel has not taken."""
        buffered = self.transport.get_write_buffer_size() if self.transport is not None else 0
        return self.backlog_bytes + buffered

    def full(self) -> bool:
        """True when a new frame would not fit under :data:`MAX_LINK_BUFFER`."""
        return self.unsent_bytes() + self.blocked >= MAX_LINK_BUFFER


class _Connection(asyncio.Protocol):
    """One socket's receive side, dialed or accepted.

    Splits the byte stream into length-prefixed frames and hands each
    decoded envelope to the fabric as it completes.  A dialed connection
    knows its link from the start; an accepted one learns it from the
    ``Hello`` that must be its first frame.
    """

    def __init__(self, fabric: LiveFabric, link: _PeerLink | None) -> None:
        self.fabric = fabric
        self.link = link
        self.transport: asyncio.Transport | None = None
        #: Resolved by ``connection_lost``; the dial task awaits it.
        self.closed = fabric._loop.create_future()
        #: Bytes of an incomplete frame, and how many it needs in total.
        self._partial = bytearray()
        self._need = 0
        self._hello_timer: asyncio.TimerHandle | None = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        self.fabric._connections.add(self)
        if self.link is None:
            self._hello_timer = self.fabric._loop.call_later(
                self.fabric.connect_timeout, self.reject, "hello_timeout"
            )
        else:
            self.fabric._link_up(self.link, transport)

    def connection_lost(self, exc: Exception | None) -> None:
        if self._hello_timer is not None:
            self._hello_timer.cancel()
        self.fabric._connections.discard(self)
        link = self.link
        if link is not None and link.transport is self.transport:
            link.transport = None
        if not self.closed.done():
            self.closed.set_result(None)

    def reject(self, cause: str) -> None:
        """Close this connection over a protocol violation."""
        if self.transport.is_closing():
            return
        self.transport.close()
        fabric = self.fabric
        if fabric.obs.enabled:
            fabric.obs.lifecycle(
                "link.rejected",
                sim_time=fabric.runtime.now,
                node=fabric.node.node_id,
                cause=cause,
                peer=self.link.peer_id if self.link is not None else None,
            )

    def data_received(self, data: bytes) -> None:
        if self._partial:
            self._partial += data
            if len(self._partial) < self._need:
                return
            data = bytes(self._partial)
            self._partial = bytearray()
        end = len(data)
        offset = 0
        while end - offset >= _LENGTH.size:
            (length,) = _LENGTH.unpack_from(data, offset)
            if length > MAX_FRAME:
                self.reject("oversized_frame")
                return
            stop = offset + _LENGTH.size + length
            if stop > end:
                break
            try:
                envelope = wire.decode_frame(data[offset + _LENGTH.size : stop])
            except WireError:
                self.reject("malformed_frame")
                return
            offset = stop
            self._received(envelope)
            if self.transport.is_closing():
                return
        if offset < end:
            self._partial = bytearray(memoryview(data)[offset:])
            if end - offset >= _LENGTH.size:
                self._need = _LENGTH.size + _LENGTH.unpack_from(data, offset)[0]
            else:
                self._need = _LENGTH.size

    def _received(self, envelope: Envelope) -> None:
        if self.link is None:
            if not isinstance(envelope.payload, Hello):
                self.reject("no_hello")
                return
            self._hello_timer.cancel()
            self.link = self.fabric._greeted(envelope.payload.node_id, self.transport)
            return
        self.fabric._deliver_local(
            Envelope(
                kind=envelope.kind,
                payload=envelope.payload,
                source=envelope.source,
                dest=envelope.dest,
                msg_id=envelope.msg_id,
                ttl=max(0, envelope.ttl - 1),
                hops=envelope.hops + 1,
                trace=envelope.trace,
            )
        )


class LiveFabric:
    """A process's view of the live deployment: one node, many sockets.

    Satisfies the slice of the :class:`~repro.network.node.Network`
    surface the agents actually touch — ``runtime``, ``obs``, ``nodes``,
    ``rng``, ``stats``, ``hop_count``, ``neighbors``, ``is_up``,
    ``down`` — so directory, client, and election agents are bit-for-bit
    the same code objects that run in the simulator.

    Args:
        node_id: this process's node id (must differ from every peer).
        listen: ``unix:``/``tcp:`` address to accept connections on, or
            ``None`` for a client-only fabric.
        peers: mapping of peer node id → dial address.  Peers that dial
            *us* are learned dynamically from their ``Hello``.
        seed: seeds :attr:`rng` (election stagger jitter).
        battery: local node battery (election fitness input).
    """

    def __init__(
        self,
        node_id: int,
        listen: str | None = None,
        peers: dict[int, str] | None = None,
        seed: int = 0,
        battery: float = 1.0,
    ) -> None:
        self.runtime = LiveRuntime()
        self._loop = self.runtime._loop
        self.obs = NULL_OBS
        self.faults = None
        self.rng = random.Random(seed)
        self.stats = TrafficStats()
        self.down: set[int] = set()
        self.listen_address = listen
        self.node = LiveNode(node_id, battery)
        self.node.network = self
        self.nodes: dict[int, LiveNode | RemotePeer] = {node_id: self.node}
        self._links: dict[int, _PeerLink] = {}
        for peer_id, address in (peers or {}).items():
            if peer_id == node_id:
                raise ValueError(f"peer id {peer_id} collides with the local node")
            self.nodes[peer_id] = RemotePeer(peer_id)
            self._links[peer_id] = _PeerLink(peer_id, address)
        self._msg_ids = itertools.count(1)
        self._server: asyncio.AbstractServer | None = None
        #: Every open connection, dialed or accepted.
        self._connections: set[_Connection] = set()
        #: Dial policy: ``connect_retries`` attempts with exponential
        #: backoff starting at ``connect_backoff`` seconds, each attempt
        #: bounded by ``connect_timeout``.  An accepted connection must
        #: say ``Hello`` within ``connect_timeout`` too.
        self.connect_retries = 5
        self.connect_backoff = 0.05
        self.connect_timeout = 2.0
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener (if any), start dial tasks and agents."""
        if self._started:
            return
        self._started = True
        if self.listen_address is not None:
            parts = parse_address(self.listen_address)
            accept = functools.partial(_Connection, self, None)
            if parts[0] == "unix":
                self._server = await self._loop.create_unix_server(accept, path=parts[1])
            else:
                self._server = await self._loop.create_server(
                    accept, host=parts[1], port=int(parts[2])
                )
        for link in self._links.values():
            if link.address is not None:
                link.task = asyncio.ensure_future(self._run_link(link))
        for agent in list(self.node.agents):
            agent.on_start()

    async def close(self) -> None:
        """Stop the listener and dial tasks, then close every connection.

        Bytes already handed to a transport get ``connect_timeout``
        seconds to reach the peer; connections still open after that are
        aborted, so no socket outlives the call.
        """
        if self._server is not None:
            self._server.close()
        tasks = [link.task for link in self._links.values() if link.task is not None]
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        for link in self._links.values():
            if link.pending:
                self._flush(link)
        connections = list(self._connections)
        for connection in connections:
            connection.transport.close()
        if connections:
            closing = [connection.closed for connection in connections]
            _done, stuck = await asyncio.wait(closing, timeout=self.connect_timeout)
            for connection in connections:
                if connection.closed in stuck:
                    connection.transport.abort()
            await asyncio.gather(*closing)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # Structural Network surface (what agents touch)
    # ------------------------------------------------------------------
    def is_up(self, node_id: int) -> bool:
        """True for the local node and every peer with a live link."""
        if node_id == self.node.node_id:
            return True
        link = self._links.get(node_id)
        return link is not None and not link.dead

    def neighbors(self, node_id: int) -> list[RemotePeer]:
        """Every known live peer (the overlay is one-hop complete).

        Only answerable for the local node; a live process cannot see
        another process's adjacency.
        """
        if node_id != self.node.node_id:
            return []
        return [
            self.nodes[peer_id]
            for peer_id, link in sorted(self._links.items())
            if not link.dead
        ]

    def hop_count(self, source: int, dest: int) -> int | None:
        """0 to self, 1 to any known live peer, ``None`` otherwise."""
        if source == dest:
            return 0
        if dest == self.node.node_id or self.is_up(dest):
            return 1
        return None

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def unicast(self, origin: LiveNode, dest: int, payload: object) -> bool:
        """Queue ``payload`` for peer ``dest``; it leaves with the link's
        next flush, at the end of the current loop turn.

        Returns False — the agents' existing unreachable signal — when
        the peer is unknown, its link has been declared dead after
        exhausting connect retries, it is inbound-only and its socket is
        gone, or the link already holds :data:`MAX_LINK_BUFFER` unsent
        bytes.  Never raises transport errors.
        """
        if dest == self.node.node_id:
            envelope = self._wrap(payload, dest=dest, hops=0)
            self.runtime.schedule(0.0, lambda: self._deliver_local(envelope))
            return True
        link = self._links.get(dest)
        if link is None or link.dead or (link.address is None and link.transport is None):
            self.stats.drops_unreachable += 1
            return False
        if link.full():
            self._dropped("overflow")
            return False
        self.stats.unicasts += 1
        if self.obs.enabled:
            self.obs.counter("net.messages", node=origin.node_id).inc()
        self._enqueue(link, self._wrap(payload, dest=dest, hops=1))
        return True

    def flood(self, origin: LiveNode, payload: object, ttl: int) -> None:
        """Fan out to every live peer once (clique overlay — no relay)."""
        envelope = self._wrap(payload, dest=None, hops=0, ttl=ttl)
        self.stats.broadcasts += 1
        for _peer_id, link in sorted(self._links.items()):
            if link.dead or (link.address is None and link.transport is None):
                continue
            if link.full():
                self._dropped("overflow")
                continue
            if self.obs.enabled:
                self.obs.counter("net.messages", node=origin.node_id).inc()
            self._enqueue(link, envelope)

    def _wrap(self, payload: object, dest: int | None, hops: int, ttl: int = 0) -> Envelope:
        # Stamp the ambient trace context (the span this send happens
        # inside, or an activated query context: a client's, or one an
        # untraced query relays) onto the frame.  Untraced queries with no
        # incoming context activate nothing, so their frames carry none.
        trace = self.obs.tracer.current_traceparent() if self.obs.enabled else None
        return Envelope(
            kind=type(payload).__name__,
            payload=payload,
            source=self.node.node_id,
            dest=dest,
            msg_id=next(self._msg_ids),
            ttl=ttl,
            hops=hops,
            trace=trace,
        )

    def _enqueue(self, link: _PeerLink, envelope: Envelope) -> None:
        link.pending.append(envelope)
        if len(link.pending) == 1:
            self._loop.call_soon(self._flush, link)

    def _flush(self, link: _PeerLink) -> None:
        """Encode every envelope sent to ``link`` this loop turn and hand
        the frames to its socket in one write (or to its backlog while a
        dialed link connects)."""
        envelopes, link.pending = link.pending, []
        room = MAX_LINK_BUFFER - link.unsent_bytes()
        frames: list[bytes] = []
        size = 0
        link.blocked = 0
        for envelope in envelopes:
            try:
                frame = encode_frame(envelope)
            except WireError:
                self._dropped("unencodable")
                continue
            if size + len(frame) > room:
                # Sends of this loop turn were accepted before their size
                # was known; the ones that do not fit are lost here.
                link.blocked = len(frame)
                self._dropped("overflow")
                continue
            frames.append(frame)
            size += len(frame)
        if not frames:
            return
        transport = link.transport
        if transport is not None and not transport.is_closing():
            transport.write(b"".join(frames))
        elif link.address is not None and not link.dead:
            link.backlog.extend(frames)
            link.backlog_bytes += size
        else:
            # The socket vanished after the send was accepted: the frames
            # are gone, like a radio loss — the sender cannot tell.
            self.stats.drops_lost += len(frames)
            return
        self.stats.bytes_sent += size
        if self.obs.enabled:
            self.obs.counter("net.bytes", node=self.node.node_id).inc(size)

    def _dropped(self, cause: str) -> None:
        """Count one send refused or frame dropped (``overflow`` /
        ``unencodable``)."""
        if cause == "overflow":
            self.stats.drops_overflow += 1
        else:
            self.stats.drops_unencodable += 1
        if self.obs.enabled:
            self.obs.counter("net.dropped", node=self.node.node_id, cause=cause).inc()

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def _deliver_local(self, envelope: Envelope) -> None:
        self.stats.deliveries += 1
        self.node.deliver(envelope)

    def _greeted(self, peer_id: int, transport: asyncio.Transport) -> _PeerLink:
        """Bind an accepted connection to the peer its ``Hello`` names."""
        link = self._links.get(peer_id)
        if link is None:
            link = _PeerLink(peer_id, address=None)
            self._links[peer_id] = link
            self.nodes.setdefault(peer_id, RemotePeer(peer_id))
        if link.address is None:
            # Inbound-only peer: replies go back over this socket.
            link.transport = transport
            link.dead = False
        return link

    # ------------------------------------------------------------------
    # Link maintenance
    # ------------------------------------------------------------------
    def _link_up(self, link: _PeerLink, transport: asyncio.Transport) -> None:
        """A dialed connection is open: say ``Hello``, then the backlog."""
        link.transport = transport
        link.dead = False
        hello = encode_frame(self._wrap(Hello(self.node.node_id), dest=link.peer_id, hops=0))
        transport.write(b"".join([hello, *link.backlog]))
        link.backlog = []
        link.backlog_bytes = 0

    async def _dial(self, link: _PeerLink) -> _Connection:
        parts = parse_address(link.address)
        connection = functools.partial(_Connection, self, link)
        if parts[0] == "unix":
            connect = self._loop.create_unix_connection(connection, path=parts[1])
        else:
            connect = self._loop.create_connection(connection, host=parts[1], port=int(parts[2]))
        _transport, protocol = await asyncio.wait_for(connect, self.connect_timeout)
        return protocol

    async def _run_link(self, link: _PeerLink) -> None:
        """Own an outbound link: dial with backoff, then wait for the
        connection to close and dial again.

        A broken connection is re-dialed with a fresh retry budget; only
        ``connect_retries`` *consecutive* failures kill the link.  Death
        is what surfaces to agents — as ``unicast() -> False``, never as
        an exception.
        """
        while True:
            connection = None
            backoff = self.connect_backoff
            for _attempt in range(self.connect_retries):
                try:
                    connection = await self._dial(link)
                    break
                except (OSError, asyncio.TimeoutError):
                    await asyncio.sleep(backoff)
                    backoff *= 2
            if connection is None:
                link.dead = True
                self.stats.drops_lost += len(link.backlog)
                link.backlog = []
                link.backlog_bytes = 0
                if self.obs.enabled:
                    self.obs.lifecycle(
                        "link.dead",
                        sim_time=self.runtime.now,
                        node=self.node.node_id,
                        peer=link.peer_id,
                        cause="connect_failed",
                    )
                return
            # Shielded: cancelling this task (close()) must not cancel the
            # future close() itself waits on.
            await asyncio.shield(connection.closed)
            # Loop to re-dial with a fresh backoff schedule.

    def __repr__(self) -> str:
        return f"LiveFabric(node={self.node.node_id}, peers={sorted(self._links)})"
