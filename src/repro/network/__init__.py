"""Hybrid wireless network substrate (paper §4's deployment environment).

S-Ariadne targets "open pervasive computing environments that integrate
heterogeneous wireless network technologies (i.e., ad hoc and
infrastructure-based networking)".  The original evaluation ran on real
hardware; this package provides the simulated equivalent:

* :mod:`repro.network.simulator` — deterministic discrete-event engine;
* :mod:`repro.network.topology` — positions, disc radio model, random
  waypoint mobility;
* :mod:`repro.network.messages` — protocol message payloads;
* :mod:`repro.network.node` — nodes, protocol agents, the network fabric
  (neighbor broadcast, TTL flooding with duplicate suppression, multi-hop
  unicast);
* :mod:`repro.network.election` — the §4 directory election protocol
  (vicinity advertisements, on-the-fly elections, fitness-based choice);
* :mod:`repro.network.faults` — deterministic fault injection (seeded
  :class:`~repro.network.faults.FaultPlan`: crashes, link cuts,
  partitions, stochastic message chaos).
"""

from repro.network.simulator import Simulator
from repro.network.topology import Bounds, Position, RandomWaypoint, StaticPlacement
from repro.network.node import Network, NetNode, ProtocolAgent
from repro.network.election import ElectionAgent, ElectionConfig
from repro.network.faults import (
    CrashNode,
    CutLink,
    FaultInjector,
    FaultPlan,
    MessageChaos,
    PartitionNetwork,
)

__all__ = [
    "Simulator",
    "Bounds",
    "Position",
    "RandomWaypoint",
    "StaticPlacement",
    "Network",
    "NetNode",
    "ProtocolAgent",
    "ElectionAgent",
    "ElectionConfig",
    "FaultPlan",
    "FaultInjector",
    "CrashNode",
    "CutLink",
    "PartitionNetwork",
    "MessageChaos",
]
