"""Directory election for dynamic deployment (paper §4).

"If for a given period of time, a node does not receive any directory
advertisement, the node initiates the election of a directory.  The
election process is done by broadcasting an election message in the
network up to a given number of hops.  Then, nodes can either accept or
refuse to act as a directory, depending on a number of parameters such as
network coverage, mobility and remaining/available resources. [...] A node
acting as a directory then periodically advertises its presence in its
vicinity."

:class:`ElectionAgent` runs on every node.  Directory-capable nodes answer
election calls with a fitness score combining coverage (current neighbor
count), remaining battery, and a mobility penalty; the initiator appoints
the fittest candidate, which promotes itself (invoking the
``on_promoted`` callback through which the discovery protocols install
their directory behaviour) and starts advertising.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass

from repro.network.messages import (
    Appointment,
    DirectoryAdvert,
    ElectionCall,
    ElectionReply,
    Envelope,
)
from repro.network.node import ProtocolAgent

_election_ids = itertools.count(1)


@dataclass(frozen=True)
class ElectionConfig:
    """Timing and scope parameters of the §4 deployment protocol.

    Args:
        advert_interval: period of directory presence beacons (s).
        advert_hops: beacon flooding scope (the directory's "vicinity").
        directory_timeout: silence after which a node starts an election.
        check_interval: how often the silence condition is evaluated.
        reply_window: how long an initiator collects candidate replies.
        election_hops: flooding scope of election calls.
        mobility_penalty: fitness deduction for mobile nodes.
    """

    advert_interval: float = 10.0
    advert_hops: int = 2
    directory_timeout: float = 25.0
    check_interval: float = 5.0
    reply_window: float = 2.0
    election_hops: int = 2
    mobility_penalty: float = 0.3


class ElectionAgent(ProtocolAgent):
    """Per-node state machine of the directory deployment protocol.

    Args:
        config: protocol timing/scope parameters.
        directory_capable: whether this node accepts the directory role.
        is_mobile: nodes flagged mobile bid with a fitness penalty.
        on_promoted: callback fired when this node becomes a directory
            (used by Ariadne/S-Ariadne to install directory behaviour).
    """

    def __init__(
        self,
        config: ElectionConfig = ElectionConfig(),
        directory_capable: bool = True,
        is_mobile: bool = False,
        on_promoted: Callable[[], None] | None = None,
    ) -> None:
        super().__init__()
        self.config = config
        self.directory_capable = directory_capable
        self.is_mobile = is_mobile
        self.on_promoted = on_promoted
        self.is_directory = False
        self.current_directory: int | None = None
        self.last_advert_time = 0.0
        self._last_election_heard = float("-inf")
        self._pending_replies: dict[int, list[ElectionReply]] = {}
        self._initiated: set[int] = set()
        self._stop_advertising: Callable[[], None] | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        """Arm the staggered periodic coverage check."""
        runtime = self.runtime
        self.last_advert_time = runtime.now
        rng = self.node.network.rng
        # Stagger the first check so the whole network does not fire at once.
        runtime.schedule(rng.uniform(0.0, self.config.check_interval), self._check_coverage)

    def _check_coverage(self) -> None:
        runtime = self.runtime
        # An election call heard recently counts as coverage activity:
        # concurrent initiations would elect a directory per initiator.
        last_activity = max(self.last_advert_time, self._last_election_heard)
        silence = runtime.now - last_activity
        if (
            not self.is_directory
            and silence >= self.config.directory_timeout
            and self.node.network.is_up(self.node.node_id)
        ):
            self._initiate_election()
        runtime.schedule(self.config.check_interval, self._check_coverage)

    # ------------------------------------------------------------------
    # Election
    # ------------------------------------------------------------------
    def fitness(self) -> float:
        """Directory suitability: coverage + battery − mobility penalty."""
        coverage = len(self.node.network.neighbors(self.node.node_id))
        score = coverage + 2.0 * self.node.battery
        if self.is_mobile:
            score -= self.config.mobility_penalty * coverage
        return score

    def _initiate_election(self) -> None:
        election_id = next(_election_ids)
        # Deliberately no election_id attr: ids come from a process-global
        # counter, and lifecycle events must be deterministic per seeded
        # run (the trace-determinism test compares their signatures).
        if self.obs.enabled:
            self.obs.lifecycle(
                "election.initiated",
                sim_time=self.runtime.now,
                node=self.node.node_id,
                cause="directory_silence",
            )
        self._initiated.add(election_id)
        self._pending_replies[election_id] = []
        # The initiator is its own first candidate.
        if self.directory_capable:
            self._pending_replies[election_id].append(
                ElectionReply(self.node.node_id, election_id, self.fitness())
            )
        self.node.broadcast(
            ElectionCall(self.node.node_id, election_id), ttl=self.config.election_hops
        )
        self.runtime.schedule(
            self.config.reply_window, lambda: self._conclude_election(election_id)
        )

    def _conclude_election(self, election_id: int) -> None:
        replies = self._pending_replies.pop(election_id, [])
        if not replies:
            return  # nobody can serve; a later check will retry
        winner = max(replies, key=lambda r: (r.fitness, -r.candidate))
        if winner.candidate == self.node.node_id:
            self._promote(cause="self_elected")
        else:
            self.node.unicast(winner.candidate, Appointment(winner.candidate, election_id))

    def _promote(self, cause: str = "appointed") -> None:
        if self.is_directory:
            return
        if self.obs.enabled:
            self.obs.lifecycle(
                "election.promoted",
                sim_time=self.runtime.now,
                node=self.node.node_id,
                cause=cause,
            )
        self.is_directory = True
        self.current_directory = self.node.node_id
        config = self.config
        runtime = self.runtime
        self._advertise()
        self._stop_advertising = runtime.schedule_every(config.advert_interval, self._advertise)
        if self.on_promoted is not None:
            self.on_promoted()

    def assume_directory(self, cause: str = "configured") -> None:
        """Promote this node to directory without waiting for an election.

        Multi-directory live deployments use this: a second directory
        process that hears the backbone's adverts would otherwise treat
        the vicinity as covered and never self-elect.  Promotion runs
        the full §4 path (lifecycle event, advert beacon, callback), so
        downstream wiring is identical to winning an election.
        """
        self._promote(cause=cause)

    def step_down(self, cause: str = "resignation") -> None:
        """Stop acting as a directory (e.g. battery exhausted, departing)."""
        if not self.is_directory:
            return
        if self.obs.enabled:
            self.obs.lifecycle(
                "election.resigned",
                sim_time=self.runtime.now,
                node=self.node.node_id,
                cause=cause,
            )
        self.is_directory = False
        if self._stop_advertising is not None:
            self._stop_advertising()
            self._stop_advertising = None

    def _advertise(self) -> None:
        self.node.broadcast(DirectoryAdvert(self.node.node_id), ttl=self.config.advert_hops)
        self.last_advert_time = self.runtime.now

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------
    def on_crash(self, wipe_state: bool) -> None:
        """A crashed directory resigns; survivors re-elect after the
        usual silence timeout (the §4 recovery path)."""
        self.step_down(cause="crash")
        self.current_directory = None
        self._pending_replies.clear()

    def on_restart(self) -> None:
        """Rejoin as an ordinary node: reset the silence clock so the
        node listens for the (possibly new) directory before bidding."""
        self.last_advert_time = self.runtime.now

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def on_message(self, envelope: Envelope) -> None:
        """Dispatch election traffic (adverts, calls, replies)."""
        payload = envelope.payload
        if isinstance(payload, DirectoryAdvert):
            self.last_advert_time = self.runtime.now
            self.current_directory = payload.directory_id
        elif isinstance(payload, ElectionCall):
            self._last_election_heard = self.runtime.now
            if self.directory_capable and not self.is_directory:
                self.node.unicast(
                    payload.initiator,
                    ElectionReply(self.node.node_id, payload.election_id, self.fitness()),
                )
        elif isinstance(payload, ElectionReply):
            if payload.election_id in self._pending_replies:
                self._pending_replies[payload.election_id].append(payload)
        elif isinstance(payload, Appointment):
            if payload.directory_id == self.node.node_id:
                self._promote()
