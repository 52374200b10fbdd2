"""Turn-key protocol deployments over the simulated network.

:class:`Deployment` wires up a full §4 scenario: N nodes placed in an
area, every node running the election agent, directory-capable nodes able
to install Ariadne or S-Ariadne directory behaviour when elected, and
client agents for publishing/querying.  Used by the ``manet_discovery``
example, the protocol integration tests and benchmarks E10–E11.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import InitVar, dataclass, field

from repro.core.codes import CodeTable
from repro.network.election import ElectionAgent, ElectionConfig
from repro.network.node import Network, NetNode
from repro.network.simulator import Simulator
from repro.network.topology import Bounds, Position, StaticPlacement, grid_positions
from repro.protocols.ariadne import AriadneClientAgent, AriadneDirectoryAgent
from repro.protocols.base import ClientAgentBase, DirectoryAgentBase
from repro.protocols.sariadne import SAriadneClientAgent, SAriadneDirectoryAgent

#: Schema version stamped into every serialized config; bumped whenever a
#: field changes meaning so stale files fail loudly instead of silently
#: reconfiguring an experiment.
CONFIG_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class DeploymentConfig:
    """Scenario parameters.

    Args:
        node_count: number of devices.
        protocol: ``"sariadne"`` or ``"ariadne"``.
        bounds: deployment area.
        radio_range: disc radius (m).
        grid: place nodes on a grid (deterministic connectivity) instead
            of uniformly at random.
        directory_capable_fraction: share of nodes willing to serve.
        infrastructure_nodes: the first N nodes form a wired backbone
            (pairwise links, always directory-capable) — the paper's §1
            hybrid ad hoc + infrastructure setting.
        forward_window: remote-response collection window (s).
        election: §4 election timing parameters.
        seed: placement / jitter seed.
        directory_shards: retired; accepted and ignored, so version-1
            config files that still name it keep loading.  Every elected
            node hosts one directory.
    """

    node_count: int = 30
    protocol: str = "sariadne"
    bounds: Bounds = Bounds(500.0, 500.0)
    radio_range: float = 150.0
    grid: bool = True
    directory_capable_fraction: float = 0.5
    infrastructure_nodes: int = 0
    forward_window: float = 1.0
    election: ElectionConfig = field(default_factory=ElectionConfig)
    seed: int = 0
    directory_shards: InitVar[int | None] = None

    def __post_init__(self, directory_shards: int | None) -> None:
        if self.protocol not in ("sariadne", "ariadne"):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.node_count < 2:
            raise ValueError(f"node_count must be >= 2, got {self.node_count}")
        if not 0 <= self.infrastructure_nodes <= self.node_count:
            raise ValueError(
                f"infrastructure_nodes must be in [0, node_count], got {self.infrastructure_nodes}"
            )

    # ------------------------------------------------------------------
    # Serialization: the one config surface serve / loadgen / experiments
    # share, instead of per-entrypoint kwargs.
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Versioned plain-dict form (JSON/TOML-expressible values only)."""
        return {
            "config_version": CONFIG_SCHEMA_VERSION,
            "node_count": self.node_count,
            "protocol": self.protocol,
            "bounds": {"width": self.bounds.width, "height": self.bounds.height},
            "radio_range": self.radio_range,
            "grid": self.grid,
            "directory_capable_fraction": self.directory_capable_fraction,
            "infrastructure_nodes": self.infrastructure_nodes,
            "forward_window": self.forward_window,
            "election": {
                "advert_interval": self.election.advert_interval,
                "advert_hops": self.election.advert_hops,
                "directory_timeout": self.election.directory_timeout,
                "check_interval": self.election.check_interval,
                "reply_window": self.election.reply_window,
                "election_hops": self.election.election_hops,
                "mobility_penalty": self.election.mobility_penalty,
            },
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DeploymentConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unspecified keys keep their defaults, so config files only name
        what they change.  The retired ``directory_shards`` key is
        accepted and dropped.

        Raises:
            ValueError: on an unsupported ``config_version`` or unknown
                keys (typos in a config file must not pass silently).
        """
        data = dict(data)
        data.pop("directory_shards", None)
        version = data.pop("config_version", CONFIG_SCHEMA_VERSION)
        if version != CONFIG_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported config_version {version!r} (this build reads "
                f"version {CONFIG_SCHEMA_VERSION})"
            )
        kwargs: dict = {}
        if "bounds" in data:
            raw = data.pop("bounds")
            kwargs["bounds"] = Bounds(float(raw["width"]), float(raw["height"]))
        if "election" in data:
            kwargs["election"] = ElectionConfig(**data.pop("election"))
        simple = {
            "node_count",
            "protocol",
            "radio_range",
            "grid",
            "directory_capable_fraction",
            "infrastructure_nodes",
            "forward_window",
            "seed",
        }
        unknown = set(data) - simple
        if unknown:
            raise ValueError(f"unknown DeploymentConfig keys: {sorted(unknown)}")
        kwargs.update(data)
        return cls(**kwargs)

    @classmethod
    def load(cls, path) -> "DeploymentConfig":
        """Load a config from a ``.toml`` or ``.json`` file.

        TOML files may either put the keys at the top level or under a
        ``[deployment]`` table (so one file can carry other sections,
        e.g. loadgen knobs, without confusing the parser).

        Raises:
            ValueError: for extensions other than ``.toml`` / ``.json``,
                and for schema violations (via :meth:`from_dict`).
        """
        import json
        from pathlib import Path

        path = Path(path)
        if path.suffix == ".toml":
            import tomllib

            with path.open("rb") as handle:
                data = tomllib.load(handle)
            data = data.get("deployment", data)
        elif path.suffix == ".json":
            with path.open("r", encoding="utf-8") as handle:
                data = json.load(handle)
            data = data.get("deployment", data)
        else:
            raise ValueError(f"config files must be .toml or .json, got {path.name!r}")
        return cls.from_dict(data)


class Deployment:
    """A running scenario: simulator + network + agents.

    Args:
        config: scenario parameters.
        table: code table (required for the semantic protocol; ignored for
            the syntactic one).
        mobility: optional mobility model (default static).
    """

    def __init__(
        self,
        config: DeploymentConfig,
        table: CodeTable | None = None,
        mobility=None,
    ) -> None:
        if config.protocol == "sariadne" and table is None:
            raise ValueError("the semantic protocol needs a CodeTable")
        self.config = config
        self.table = table
        self.sim = Simulator()
        self.network = Network(
            self.sim,
            bounds=config.bounds,
            radio_range=config.radio_range,
            mobility=mobility if mobility is not None else StaticPlacement(),
            seed=config.seed,
        )
        self.clients: dict[int, ClientAgentBase] = {}
        self.elections: dict[int, ElectionAgent] = {}
        self.directory_agents: dict[int, DirectoryAgentBase] = {}
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _make_directory_agent(self) -> DirectoryAgentBase:
        if self.config.protocol == "sariadne":
            return SAriadneDirectoryAgent(
                self.table,
                forward_window=self.config.forward_window,
            )
        return AriadneDirectoryAgent(forward_window=self.config.forward_window)

    def _make_client_agent(self, resolver: Callable[[], int | None]) -> ClientAgentBase:
        if self.config.protocol == "sariadne":
            return SAriadneClientAgent(resolver)
        return AriadneClientAgent(resolver)

    def _build(self) -> None:
        config = self.config
        rng = random.Random(config.seed)
        positions: list[Position | None]
        if config.grid:
            positions = list(grid_positions(config.node_count, config.bounds))
        else:
            positions = [None] * config.node_count
        for node_id in range(config.node_count):
            node = self.network.add_node(node_id, positions[node_id])
            is_infrastructure = node_id < config.infrastructure_nodes
            capable = is_infrastructure or rng.random() < config.directory_capable_fraction
            election = ElectionAgent(
                config=config.election,
                directory_capable=capable,
                is_mobile=not is_infrastructure and config.infrastructure_nodes > 0,
                on_promoted=lambda n=node: self._install_directory(n),
            )
            node.add_agent(election)
            self.elections[node_id] = election
            client = self._make_client_agent(
                lambda nid=node_id: self._resolve_directory(nid)
            )
            node.add_agent(client)
            self.clients[node_id] = client
        # Wire the infrastructure backbone pairwise.
        for a in range(config.infrastructure_nodes):
            for b in range(a + 1, config.infrastructure_nodes):
                self.network.add_wired_link(a, b)
        self.network.start()

    def _install_directory(self, node: NetNode) -> None:
        if node.node_id in self.directory_agents:
            return
        agent = self._make_directory_agent()
        node.add_agent(agent)
        self.directory_agents[node.node_id] = agent
        agent.join_backbone()

    def _resolve_directory(self, node_id: int) -> int | None:
        election = self.elections[node_id]
        if election.is_directory:
            return node_id
        if election.current_directory is not None:
            return election.current_directory
        # Fall back to the nearest known directory (association bootstrap).
        if not self.directory_agents:
            return None
        origin = self.network.nodes[node_id]
        return min(
            self.directory_agents,
            key=lambda did: origin.position.distance_to(self.network.nodes[did].position),
        )

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run_until_directories(self, minimum: int = 1, deadline: float = 300.0) -> int:
        """Advance the simulation until ``minimum`` directories exist.

        Returns the number of directories; may be below ``minimum`` if the
        deadline passes (e.g. a partitioned network).
        """
        step = 5.0
        while len(self.directory_agents) < minimum and self.sim.now < deadline:
            self.sim.run(until=self.sim.now + step)
        return len(self.directory_agents)

    def publish_from(self, node_id: int, document: str, service_uri: str | None = None) -> bool:
        """Publish an advertisement from a node and settle the network."""
        accepted = self.clients[node_id].publish(document, service_uri=service_uri)
        self.sim.run(until=self.sim.now + 2.0)
        return accepted

    def query_from(self, node_id: int, document: str, settle: float = 5.0):
        """Issue a request from a node; returns ``(latency, results)`` or
        ``None`` when no directory was reachable / no response arrived."""
        client = self.clients[node_id]
        ticket = client.query(document)
        if not ticket:
            return None
        self.sim.run(until=self.sim.now + settle)
        return client.responses.get(ticket)

    def transfer_directory(self, from_id: int, to_id: int) -> bool:
        """Retire the directory on ``from_id``, handing its cached
        advertisements to ``to_id`` (the §5 Fig. 7 scenario: a directory
        leaves and a newly elected one must host its descriptions).

        Installs directory behaviour on the successor if it has none.
        Returns False when the handoff message could not be routed.
        """
        if from_id not in self.directory_agents:
            raise KeyError(f"node {from_id} is not a directory")
        self._install_directory(self.network.nodes[to_id])
        outgoing = self.directory_agents[from_id]
        accepted = outgoing.hand_off_to(to_id)
        if accepted:
            self.elections[from_id].step_down()
            self.elections[from_id].directory_capable = False
            self.network.nodes[from_id].agents.remove(outgoing)
            del self.directory_agents[from_id]
        if not self.sim.running:
            self.sim.run(until=self.sim.now + 2.0)
        return accepted

    def crash_directory(self, node_id: int) -> None:
        """Abruptly remove a directory: no handoff, cached state lost.

        Models node failure/departure without the courtesy of §5's state
        transfer; recovery relies on re-election plus the clients'
        soft-state refresh (:meth:`ClientAgentBase.advertise`).

        Raises:
            KeyError: if the node is not a directory.
        """
        agent = self.directory_agents.pop(node_id)
        self.network.nodes[node_id].agents.remove(agent)
        if self.network.obs.enabled:
            self.network.obs.lifecycle(
                "churn.leave",
                sim_time=self.network.runtime.now,
                node=node_id,
                cause="crash",
                documents=len(agent.cached_documents()),
            )
        self.elections[node_id].step_down(cause="crash")
        self.elections[node_id].directory_capable = False

    def enable_battery_management(
        self, threshold: float = 0.2, check_interval: float = 10.0
    ) -> None:
        """Replace directories whose battery runs low (§4: elections weigh
        "remaining/available resources").

        Every ``check_interval`` simulated seconds, any directory below
        ``threshold`` hands its state to the highest-battery
        directory-capable node that is not already serving, then retires.
        """

        def check() -> None:
            for directory_id in list(self.directory_agents):
                node = self.network.nodes[directory_id]
                if node.battery >= threshold:
                    continue
                candidates = [
                    nid
                    for nid, election in self.elections.items()
                    if election.directory_capable
                    and nid not in self.directory_agents
                    and self.network.nodes[nid].battery > threshold
                ]
                if not candidates:
                    continue  # nobody can take over; keep serving
                successor = max(candidates, key=lambda nid: self.network.nodes[nid].battery)
                self.transfer_directory(directory_id, successor)

        self.sim.schedule_every(check_interval, check)

    def install_fault_plan(self, plan):
        """Attach a :class:`~repro.network.faults.FaultPlan` to the
        underlying fabric and arm it; returns the injector (for stats)."""
        return self.network.install_fault_plan(plan)

    def directory_ids(self) -> list[int]:
        """Nodes currently acting as directories."""
        return sorted(self.directory_agents)

    def coverage(self) -> float:
        """Fraction of nodes that currently know a responsible directory."""
        covered = sum(1 for nid in self.clients if self._resolve_directory(nid) is not None)
        return covered / len(self.clients)

    def __repr__(self) -> str:
        return (
            f"Deployment({self.config.protocol}, {len(self.network.nodes)} nodes, "
            f"{len(self.directory_agents)} directories, t={self.sim.now:.1f}s)"
        )
