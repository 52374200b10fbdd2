"""Nodes, protocol agents and the wireless fabric.

The fabric implements three primitives the §4 protocol needs:

* **neighbor broadcast** — delivered to every node in radio range;
* **TTL flooding** — each node rebroadcasts unseen flood messages with a
  decremented TTL and a small forwarding jitter (duplicate suppression per
  message id), giving the "up to a given number of hops" propagation of
  directory advertisements and election calls;
* **multi-hop unicast** — routed along the current shortest hop path
  (recomputed per send, which abstracts the underlying MANET routing
  protocol — the original Ariadne work sits on top of one), with per-hop
  latency plus a size/bandwidth term.

Traffic counters (messages, bytes, drops) feed the protocol benchmarks.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass, field

from repro.network.messages import Envelope, payload_size
from repro.network.simulator import Simulator
from repro.network.topology import Bounds, Position, RouteCache, StaticPlacement
from repro.obs import NULL_OBS


class ProtocolAgent:
    """Base class for protocol state machines attached to a node.

    Subclasses override :meth:`on_start` (called when the simulation is
    wired up) and :meth:`on_message`.
    """

    def __init__(self) -> None:
        self.node: NetNode | None = None

    @property
    def runtime(self):
        """The fabric's :class:`~repro.network.runtime.Runtime` clock.

        Agents schedule and timestamp exclusively through this surface,
        never through a concrete engine — the same agent code runs on the
        discrete-event :class:`~repro.network.simulator.Simulator` and on
        the wall-clock :class:`~repro.network.live.LiveRuntime`.

        Raises:
            RuntimeError: when the agent is not attached to a fabric yet.
        """
        node = self.node
        if node is None or node.network is None:
            raise RuntimeError("agent is not attached to a network fabric")
        return node.network.runtime

    @property
    def obs(self):
        """The network's observability instance (NULL_OBS when detached or
        when none is installed)."""
        node = self.node
        if node is not None and node.network is not None:
            return node.network.obs
        return NULL_OBS

    def attach(self, node: "NetNode") -> None:
        """Bind the agent to its node (done by ``NetNode.add_agent``)."""
        self.node = node

    def on_start(self) -> None:
        """Called once when the network starts."""

    def on_message(self, envelope: Envelope) -> None:
        """Called for every envelope delivered to this node."""

    def on_crash(self, wipe_state: bool) -> None:
        """Called when the hosting node crashes (fault injection).

        Args:
            wipe_state: True for a hard crash — the agent must drop its
                volatile state; False models a reboot that keeps state.
        """

    def on_restart(self) -> None:
        """Called when the hosting node comes back up after a crash."""


@dataclass
class TrafficStats:
    """Fabric counters."""

    broadcasts: int = 0
    unicasts: int = 0
    floods_forwarded: int = 0
    deliveries: int = 0
    bytes_sent: int = 0
    drops_unreachable: int = 0
    drops_lost: int = 0
    drops_down: int = 0
    #: Live fabric only: sends refused, or frames dropped at flush, that
    #: would take a peer link past ``live.MAX_LINK_BUFFER`` unsent bytes.
    drops_overflow: int = 0
    #: Live fabric only: envelopes the wire codec rejected at flush.
    drops_unencodable: int = 0


class NetNode:
    """A wireless device: position, battery, attached protocol agents."""

    def __init__(self, node_id: int, position: Position, battery: float = 1.0) -> None:
        self.node_id = node_id
        self.position = position
        self.battery = battery
        self.agents: list[ProtocolAgent] = []
        self.network: Network | None = None
        self._seen_floods: set[int] = set()
        self._seen_order: deque[int] = deque()

    def add_agent(self, agent: ProtocolAgent) -> ProtocolAgent:
        """Attach a protocol agent."""
        agent.attach(self)
        self.agents.append(agent)
        return agent

    # -- sending ---------------------------------------------------------
    def broadcast(self, payload: object, ttl: int = 1) -> None:
        """Flood ``payload`` up to ``ttl`` hops from this node."""
        assert self.network is not None, "node not added to a network"
        self.network.flood(self, payload, ttl)

    def unicast(self, dest: int, payload: object) -> bool:
        """Send ``payload`` to node ``dest`` over the current topology.

        Returns False if no route exists (message dropped).
        """
        assert self.network is not None, "node not added to a network"
        return self.network.unicast(self, dest, payload)

    # -- receiving ---------------------------------------------------------
    def deliver(self, envelope: Envelope) -> None:
        """Hand an envelope to every attached agent."""
        for agent in list(self.agents):
            agent.on_message(envelope)

    def note_flood(self, msg_id: int, max_remembered: int = 4096) -> bool:
        """Record a flood id; returns True when seen for the first time."""
        if msg_id in self._seen_floods:
            return False
        self._seen_floods.add(msg_id)
        self._seen_order.append(msg_id)
        if len(self._seen_order) > max_remembered:
            self._seen_floods.discard(self._seen_order.popleft())
        return True

    def __repr__(self) -> str:
        return f"NetNode({self.node_id}, pos=({self.position.x:.0f},{self.position.y:.0f}))"


class Network:
    """The wireless fabric tying nodes, topology and the event engine.

    Args:
        sim: the discrete-event engine.
        bounds: deployment area.
        radio_range: unit-disc radius (m).
        per_hop_latency: MAC + propagation delay per hop (s).
        bandwidth: bytes/s for the transmission-delay term.
        mobility: placement/mobility model (default static).
        mobility_interval: how often positions advance (s); 0 disables.
        seed: RNG seed for placement, jitter and mobility.
    """

    def __init__(
        self,
        sim: Simulator,
        bounds: Bounds = Bounds(500.0, 500.0),
        radio_range: float = 120.0,
        per_hop_latency: float = 0.004,
        bandwidth: float = 250_000.0,
        mobility=None,
        mobility_interval: float = 1.0,
        loss_rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self.sim = sim
        #: The structural :class:`~repro.network.runtime.Runtime` clock
        #: agents schedule against.  Here it *is* the simulator; the live
        #: fabric exposes a :class:`~repro.network.live.LiveRuntime`
        #: instead.  Agent code must only ever touch ``network.runtime``.
        self.runtime = sim
        self.bounds = bounds
        self.radio_range = radio_range
        self.per_hop_latency = per_hop_latency
        self.bandwidth = bandwidth
        self.mobility = mobility if mobility is not None else StaticPlacement()
        self.mobility_interval = mobility_interval
        self.loss_rate = loss_rate
        #: Battery drained per KiB sent/received (radio dominates energy on
        #: small devices); 0 disables the energy model.
        self.battery_cost_per_kb = 0.0
        #: Optional :class:`repro.network.trace.EventTrace` recording fabric
        #: and protocol events.
        self.trace = None
        #: Observability (tracing + metrics); ``repro.obs.install`` swaps
        #: in a live instance, the default null object costs one flag check.
        self.obs = NULL_OBS
        self.rng = random.Random(seed)
        self.nodes: dict[int, NetNode] = {}
        self.stats = TrafficStats()
        self._msg_ids = itertools.count(1)
        self._wired: dict[int, set[int]] = {}
        self.wired_latency = per_hop_latency / 4
        self._started = False
        #: Memoized hop counts / parent trees, one BFS per source per
        #: topology epoch instead of one per send.
        self.routes = RouteCache(self._adjacency_snapshot, self._topology_fingerprint)
        #: Deterministic chaos layer (``install_fault_plan``); ``None``
        #: keeps every fault hook on its zero-cost path.
        self.faults = None
        #: Node ids currently crashed: unreachable, non-forwarding, and
        #: their agents receive nothing until ``restart_node``.
        self.down: set[int] = set()
        #: Severed links as sorted ``(a, b)`` pairs (radio *and* wired).
        self._cut_links: set[tuple[int, int]] = set()
        #: Active partition: node id -> group index; ``None`` when whole.
        #: Nodes absent from every group share an implicit extra island.
        self._partition: dict[int, int] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node_id: int, position: Position | None = None, battery: float = 1.0) -> NetNode:
        """Create and register a node.

        Raises:
            ValueError: on duplicate node ids.
        """
        if node_id in self.nodes:
            raise ValueError(f"duplicate node id {node_id}")
        if position is None:
            position = self.mobility.initial_position(node_id, self.bounds, self.rng)
        node = NetNode(node_id, position, battery)
        node.network = self
        self.nodes[node_id] = node
        self.routes.invalidate()
        if self._started and self.obs.enabled:
            self.obs.lifecycle(
                "churn.join", sim_time=self.sim.now, node=node_id, cause="late_join"
            )
        return node

    def start(self) -> None:
        """Start agents and the mobility clock (idempotent)."""
        if self._started:
            return
        self._started = True
        if self.mobility_interval > 0 and not isinstance(self.mobility, StaticPlacement):
            self.sim.schedule_every(self.mobility_interval, self._mobility_tick)
        for node in self.nodes.values():
            for agent in node.agents:
                agent.on_start()

    def _mobility_tick(self) -> None:
        for node in self.nodes.values():
            node.position = self.mobility.step(
                node.node_id, node.position, self.mobility_interval, self.bounds, self.rng
            )
        self.routes.invalidate()

    def add_wired_link(self, a: int, b: int) -> None:
        """Connect two nodes with an infrastructure (wired) link.

        The paper targets hybrid environments "that integrate heterogeneous
        wireless network technologies (i.e., ad hoc and infrastructure-
        based networking)" (§1): infrastructure nodes are reachable
        regardless of radio range and with lower per-hop latency.

        Raises:
            KeyError: if either node id is unknown.
        """
        if a not in self.nodes or b not in self.nodes:
            raise KeyError((a, b))
        if a == b:
            raise ValueError("cannot wire a node to itself")
        self._wired.setdefault(a, set()).add(b)
        self._wired.setdefault(b, set()).add(a)
        self.routes.invalidate()

    def remove_wired_link(self, a: int, b: int) -> None:
        """Tear down an infrastructure link (no-op when absent)."""
        self._wired.get(a, set()).discard(b)
        self._wired.get(b, set()).discard(a)
        self.routes.invalidate()

    def is_wired(self, a: int, b: int) -> bool:
        """True iff a wired link exists between the two nodes."""
        return b in self._wired.get(a, ())

    def move_node(self, node_id: int, position: Position) -> None:
        """Reposition a node, invalidating cached routes.

        Direct writes to ``node.position`` are still caught by the route
        cache's fingerprint check; this helper just makes intent explicit.
        """
        self.nodes[node_id].position = position
        self.routes.invalidate()

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def install_fault_plan(self, plan):
        """Attach a :class:`~repro.network.faults.FaultPlan` and arm it.

        Schedules every timed fault on the simulator and wires the
        stochastic chaos windows into the delivery path.  Returns the
        :class:`~repro.network.faults.FaultInjector` (for its stats).

        Raises:
            RuntimeError: if a plan is already installed (plans are
                per-run; compose faults into one plan instead).
        """
        from repro.network.faults import FaultInjector

        if self.faults is not None:
            raise RuntimeError("a fault plan is already installed")
        injector = FaultInjector(plan, self)
        self.faults = injector
        injector.arm()
        return injector

    def is_up(self, node_id: int) -> bool:
        """True while the node is registered and not crashed."""
        return node_id in self.nodes and node_id not in self.down

    def crash_node(self, node_id: int, wipe_state: bool = True, cause: str = "fault") -> None:
        """Take a node down: unreachable, non-forwarding, agents notified.

        Unlike removing the node, a crash is reversible via
        :meth:`restart_node`.  Idempotent while already down.

        Args:
            node_id: node to crash.
            wipe_state: passed to each agent's ``on_crash`` — True drops
                volatile agent state, False preserves it (soft reboot).
            cause: recorded on the ``fault.node_crash`` lifecycle event.

        Raises:
            KeyError: on an unknown node id.
        """
        node = self.nodes[node_id]
        if node_id in self.down:
            return
        self.down.add(node_id)
        self.routes.invalidate()
        if self.obs.enabled:
            self.obs.lifecycle(
                "fault.node_crash",
                sim_time=self.sim.now,
                node=node_id,
                cause=cause,
                wipe_state=wipe_state,
            )
        for agent in list(node.agents):
            agent.on_crash(wipe_state)

    def restart_node(self, node_id: int, cause: str = "fault") -> None:
        """Bring a crashed node back up and notify its agents.

        No-op when the node is not down.

        Raises:
            KeyError: on an unknown node id.
        """
        node = self.nodes[node_id]
        if node_id not in self.down:
            return
        self.down.discard(node_id)
        self.routes.invalidate()
        if self.obs.enabled:
            self.obs.lifecycle(
                "fault.node_restart", sim_time=self.sim.now, node=node_id, cause=cause
            )
        for agent in list(node.agents):
            agent.on_restart()

    @staticmethod
    def _link_key(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    def cut_link(self, a: int, b: int, cause: str = "fault") -> None:
        """Sever the link between two nodes (radio and wired alike).

        Raises:
            KeyError: if either node id is unknown.
        """
        if a not in self.nodes or b not in self.nodes:
            raise KeyError((a, b))
        key = self._link_key(a, b)
        if key in self._cut_links:
            return
        self._cut_links.add(key)
        self.routes.invalidate()
        if self.obs.enabled:
            self.obs.lifecycle(
                "fault.link_cut", sim_time=self.sim.now, node=a, cause=cause, peer=b
            )

    def heal_link(self, a: int, b: int, cause: str = "fault") -> None:
        """Restore a previously cut link (no-op when not cut)."""
        key = self._link_key(a, b)
        if key not in self._cut_links:
            return
        self._cut_links.discard(key)
        self.routes.invalidate()
        if self.obs.enabled:
            self.obs.lifecycle(
                "fault.link_healed", sim_time=self.sim.now, node=a, cause=cause, peer=b
            )

    def set_partition(self, groups, cause: str = "fault") -> None:
        """Partition the network into isolated groups.

        Nodes listed in different groups cannot communicate; nodes not
        listed anywhere form one implicit remainder island together.
        Replaces any previous partition.

        Args:
            groups: iterable of iterables of node ids.
            cause: recorded on the ``fault.partition`` lifecycle event.
        """
        partition: dict[int, int] = {}
        for index, group in enumerate(groups):
            for node_id in group:
                partition[node_id] = index
        self._partition = partition
        self.routes.invalidate()
        if self.obs.enabled:
            sizes = [0] * (max(partition.values()) + 1 if partition else 0)
            for index in partition.values():
                sizes[index] += 1
            self.obs.lifecycle(
                "fault.partition",
                sim_time=self.sim.now,
                cause=cause,
                groups=len(sizes),
                sizes=tuple(sizes),
            )

    def heal_partition(self, cause: str = "fault") -> None:
        """Merge the partition back into one network (no-op when whole)."""
        if self._partition is None:
            return
        self._partition = None
        self.routes.invalidate()
        if self.obs.enabled:
            self.obs.lifecycle(
                "fault.partition_healed", sim_time=self.sim.now, cause=cause
            )

    # ------------------------------------------------------------------
    # Topology queries
    # ------------------------------------------------------------------
    def neighbors(self, node_id: int) -> list[NetNode]:
        """Nodes reachable in one hop: radio range plus wired links.

        Crashed nodes, cut links and active partitions (fault injection)
        all prune the adjacency; an up node with no surviving neighbors
        is simply unreachable until the fault heals.
        """
        if node_id in self.down:
            return []
        origin = self.nodes[node_id]
        wired = self._wired.get(node_id, set())
        down = self.down
        cuts = self._cut_links
        partition = self._partition
        group = partition.get(node_id) if partition is not None else None
        result = []
        for node in self.nodes.values():
            nid = node.node_id
            if nid == node_id or nid in down:
                continue
            if partition is not None and partition.get(nid) != group:
                continue
            if cuts and self._link_key(node_id, nid) in cuts:
                continue
            if nid in wired or origin.position.distance_to(node.position) <= self.radio_range:
                result.append(node)
        return result

    def _adjacency_snapshot(self) -> dict[int, list[int]]:
        """One-hop adjacency for every node (route-cache snapshot)."""
        return {
            node_id: [n.node_id for n in self.neighbors(node_id)]
            for node_id in self.nodes
        }

    def _topology_fingerprint(self) -> int:
        """Cheap O(n) token identifying the current connectivity graph.

        Hashes every node's position plus the wired link set, radio range
        and the fault state (down nodes, cut links, partition): equal
        fingerprints imply identical adjacency, so the route cache stays
        sound even when positions are written directly (mobility models,
        tests) without an explicit invalidation.
        """
        return hash(
            (
                self.radio_range,
                tuple(
                    (node_id, node.position.x, node.position.y)
                    for node_id, node in self.nodes.items()
                ),
                tuple(
                    (node_id, tuple(sorted(links)))
                    for node_id, links in sorted(self._wired.items())
                ),
                tuple(sorted(self.down)),
                tuple(sorted(self._cut_links)),
                None
                if self._partition is None
                else tuple(sorted(self._partition.items())),
            )
        )

    def shortest_path(self, source: int, dest: int) -> list[int] | None:
        """Hop-shortest path between two nodes on the current topology.

        Served from the lazy route cache (one BFS per source per topology
        epoch).
        """
        return self.routes.path(source, dest)

    def hop_count(self, source: int, dest: int) -> int | None:
        """Hops on the shortest path, ``None`` when unreachable.

        O(1) amortized on a stable topology — the peer-ranking fast path
        (`DirectoryAgentBase._rank_forward_peers`) asks this per peer per
        query and must not pay a BFS each time.
        """
        return self.routes.hops(source, dest)

    def _bfs_shortest_path(self, source: int, dest: int) -> list[int] | None:
        """Uncached BFS (reference implementation the route cache must
        agree with; the churn property test asserts exactly that)."""
        if source == dest:
            return [source]
        parents: dict[int, int] = {source: source}
        queue: deque[int] = deque([source])
        while queue:
            current = queue.popleft()
            for neighbor in self.neighbors(current):
                nid = neighbor.node_id
                if nid in parents:
                    continue
                parents[nid] = current
                if nid == dest:
                    path = [dest]
                    while path[-1] != source:
                        path.append(parents[path[-1]])
                    path.reverse()
                    return path
                queue.append(nid)
        return None

    def is_connected(self) -> bool:
        """True iff every node can reach every other node."""
        if not self.nodes:
            return True
        start = next(iter(self.nodes))
        seen = {start}
        queue = deque([start])
        while queue:
            for neighbor in self.neighbors(queue.popleft()):
                if neighbor.node_id not in seen:
                    seen.add(neighbor.node_id)
                    queue.append(neighbor.node_id)
        return len(seen) == len(self.nodes)

    # ------------------------------------------------------------------
    # Communication primitives
    # ------------------------------------------------------------------
    def _delay(self, payload: object, hops: int = 1) -> float:
        return hops * (self.per_hop_latency + payload_size(payload) / self.bandwidth)

    def record(self, actor: int, kind: str, detail: str = "", *args: object) -> None:
        """Record a trace event if tracing is enabled (no-op otherwise).

        With ``args``, ``detail`` is a ``%``-format applied to them only
        when the event is recorded, so callers on hot paths build no
        string while the trace is off.
        """
        if self.trace is not None:
            if args:
                detail = detail % args
            self.trace.record(self.sim.now, actor, kind, detail)

    def flood(self, origin: NetNode, payload: object, ttl: int) -> None:
        """TTL-bounded flooding with per-node duplicate suppression.

        Silently dropped when the origin node is crashed.
        """
        if origin.node_id in self.down:
            self.stats.drops_down += 1
            return
        self.record(origin.node_id, "flood", "%s ttl=%s", type(payload).__name__, ttl)
        envelope = Envelope(
            kind=type(payload).__name__,
            payload=payload,
            source=origin.node_id,
            dest=None,
            msg_id=next(self._msg_ids),
            ttl=ttl,
            trace=self.obs.tracer.current_traceparent() if self.obs.enabled else None,
        )
        origin.note_flood(envelope.msg_id)
        self._radiate(origin, envelope)

    def _drain(self, node: NetNode, size: int) -> None:
        if self.battery_cost_per_kb:
            node.battery = max(0.0, node.battery - self.battery_cost_per_kb * size / 1024)

    def _radiate(self, sender: NetNode, envelope: Envelope) -> None:
        self.stats.broadcasts += 1
        size = payload_size(envelope.payload)
        self.stats.bytes_sent += size
        if self.obs.enabled:
            self.obs.counter("net.messages", node=sender.node_id).inc()
            self.obs.counter("net.bytes", node=sender.node_id).inc(size)
        self._drain(sender, size)
        delay = self._delay(envelope.payload)
        faults = self.faults
        chaos = faults is not None and faults.has_message_chaos
        for neighbor in self.neighbors(sender.node_id):
            if self.loss_rate and self.rng.random() < self.loss_rate:
                self.stats.drops_lost += 1
                continue
            link_delay = delay
            copies = 1
            if chaos:
                fate = faults.message_fate(
                    sender.node_id, neighbor.node_id, envelope.kind
                )
                if fate is not None:
                    if fate.lost:
                        self.stats.drops_lost += 1
                        continue
                    link_delay += fate.extra_delay
                    copies += fate.duplicates
            for _ in range(copies):
                self.sim.schedule(
                    link_delay, lambda n=neighbor: self._flood_receive(n, envelope)
                )

    def _flood_receive(self, node: NetNode, envelope: Envelope) -> None:
        if node.node_id in self.down:
            self.stats.drops_down += 1
            return
        if not node.note_flood(envelope.msg_id):
            return
        self.stats.deliveries += 1
        self._drain(node, payload_size(envelope.payload))
        delivered = Envelope(
            kind=envelope.kind,
            payload=envelope.payload,
            source=envelope.source,
            dest=None,
            msg_id=envelope.msg_id,
            ttl=envelope.ttl - 1,
            hops=envelope.hops + 1,
            trace=envelope.trace,
        )
        node.deliver(delivered)
        if delivered.ttl > 0:
            self.stats.floods_forwarded += 1
            jitter = self.rng.uniform(0.0, 0.002)
            self.sim.schedule(jitter, lambda: self._radiate(node, delivered))

    def unicast(self, origin: NetNode, dest: int, payload: object) -> bool:
        """Route a message along the current shortest path.

        Returns False and counts a drop when the destination is
        unreachable (which includes crashed endpoints and severed paths).
        """
        if dest not in self.nodes:
            raise KeyError(dest)
        if origin.node_id in self.down:
            self.stats.drops_down += 1
            return False
        self.record(origin.node_id, "unicast", "%s -> %s", type(payload).__name__, dest)
        path = self.shortest_path(origin.node_id, dest)
        if path is None:
            self.stats.drops_unreachable += 1
            return False
        hops = max(1, len(path) - 1)
        envelope = Envelope(
            kind=type(payload).__name__,
            payload=payload,
            source=origin.node_id,
            dest=dest,
            msg_id=next(self._msg_ids),
            hops=hops,
            trace=self.obs.tracer.current_traceparent() if self.obs.enabled else None,
        )
        self.stats.unicasts += 1
        size = payload_size(payload)
        self.stats.bytes_sent += size * hops
        if self.obs.enabled:
            self.obs.counter("net.messages", node=origin.node_id).inc()
            self.obs.counter("net.bytes", node=origin.node_id).inc(size * hops)
        self._drain(origin, size)
        # Per-hop independent loss: the message dies if any hop loses it.
        if self.loss_rate:
            survive = (1.0 - self.loss_rate) ** hops
            if self.rng.random() > survive:
                self.stats.drops_lost += 1
                return True  # sender cannot tell; the message is just gone
        # Stochastic chaos windows (fault injection): end-to-end fate.
        extra_delay = 0.0
        copies = 1
        faults = self.faults
        if faults is not None and faults.has_message_chaos:
            fate = faults.message_fate(origin.node_id, dest, envelope.kind)
            if fate is not None:
                if fate.lost:
                    self.stats.drops_lost += 1
                    return True  # as with radio loss: sender cannot tell
                extra_delay = fate.extra_delay
                copies += fate.duplicates
        # Per-hop latency: wired infrastructure hops are cheaper.
        delay = 0.0
        for a, b in zip(path, path[1:]):
            hop_latency = self.wired_latency if self.is_wired(a, b) else self.per_hop_latency
            delay += hop_latency + size / self.bandwidth
        delay = delay if delay > 0 else self._delay(payload)
        target = self.nodes[dest]
        for _ in range(copies):
            self.sim.schedule(
                delay + extra_delay, lambda: self._unicast_receive(target, envelope)
            )
        return True

    def _unicast_receive(self, node: NetNode, envelope: Envelope) -> None:
        if node.node_id in self.down:
            self.stats.drops_down += 1
            return
        self.stats.deliveries += 1
        self._drain(node, payload_size(envelope.payload))
        node.deliver(envelope)

    def __repr__(self) -> str:
        return f"Network({len(self.nodes)} nodes, range={self.radio_range})"
