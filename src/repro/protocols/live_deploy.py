"""Turn-key *live* deployments: serve a directory, generate load.

The wall-clock twin of :mod:`repro.protocols.deployment`: the same
election / directory / client agents, but hosted on a
:class:`~repro.network.live.LiveFabric` where every peer is a separate
process reached over TCP or unix-domain sockets.  Two roles:

* :class:`DirectoryServer` (``repro.cli serve``) — a node that elects
  itself directory (the §4 machinery, genuinely: it times out on
  directory silence, initiates an election, wins as the only candidate,
  and starts beaconing ``DirectoryAdvert``), hosts one
  :class:`~repro.core.directory.SemanticDirectory`, and exports live
  OpenMetrics over a second listener.
* :class:`LoadGenerator` (``repro.cli loadgen``) — a pure client (no
  listener of its own) that discovers the directory from its adverts,
  publishes a slice of the §5 :class:`ServiceWorkload`, and drives
  closed-loop queries, reporting QPS and latency quantiles from the
  client-side obs histogram.

Both sides derive workload and code table deterministically from
``config.seed``, so the interval codes embedded in loadgen's documents
resolve against the directory's table — exactly like the simulated
deployments, where the shared table travels by reference.
"""

from __future__ import annotations

import asyncio
import json
import pathlib

from repro.core.codes import CodeTable
from repro.network.election import ElectionAgent
from repro.network.live import LiveFabric
from repro.obs import NULL_OBS, Observability
from repro.obs.collector import CollectorClient
from repro.obs.export import run_manifest, to_openmetrics
from repro.ontology.registry import OntologyRegistry
from repro.protocols.base import QueryOutcome
from repro.protocols.deployment import DeploymentConfig
from repro.protocols.sariadne import SAriadneClientAgent, SAriadneDirectoryAgent
from repro.services.generator import ServiceWorkload, WorkloadShape
from repro.services.xml_codec import profile_to_xml, request_to_xml

#: Node id conventions of a two-process deployment; multi-directory
#: deployments pass explicit ids instead.
SERVE_NODE_ID = 0
LOADGEN_NODE_ID = 1


def build_catalog(config: DeploymentConfig) -> tuple[ServiceWorkload, CodeTable]:
    """The §5 workload + code table both roles derive from ``config.seed``."""
    workload = ServiceWorkload(WorkloadShape(), seed=config.seed)
    table = CodeTable(OntologyRegistry(workload.ontologies))
    return workload, table


def annotated_profile_doc(workload: ServiceWorkload, table: CodeTable, index: int):
    """(profile, XML document) for service ``index``, codes embedded."""
    profile = workload.make_service(index)
    document = profile_to_xml(
        profile, annotations=table.annotate(profile.provided), codes_version=table.version
    )
    return profile, document


def annotated_request_doc(workload: ServiceWorkload, table: CodeTable, index: int) -> str:
    """A request matching service ``index``, codes embedded."""
    request = workload.matching_request(workload.make_service(index))
    return request_to_xml(
        request, annotations=table.annotate(request.capabilities), codes_version=table.version
    )


class DirectoryServer:
    """One live directory process.

    Args:
        config: the shared deployment config (seed → workload/table,
            election timings, forward window).
        listen: protocol listener address (``unix:<path>`` /
            ``tcp:<host>:<port>``).
        metrics_listen: optional second listener serving the obs
            metrics snapshot as an OpenMetrics HTTP response per GET.
        node_id: this directory's node id.
        obs: live :class:`~repro.obs.Observability`; defaults to a
            metrics-only instance so the exporter always has substance.
        peers: extra fabric peers to dial (``{node_id: address}``) —
            how a second directory process joins the backbone.
        collector: optional telemetry collector address; when set, its
            sink turns tracing on, and every span/event/metric this
            process records is shipped there.
        force_directory: promote immediately instead of waiting out the
            §4 election.  Required for any directory beyond the first:
            a node hearing the backbone's adverts considers the
            vicinity covered and would never self-elect.
    """

    def __init__(
        self,
        config: DeploymentConfig,
        listen: str,
        metrics_listen: str | None = None,
        node_id: int = SERVE_NODE_ID,
        obs: Observability | None = None,
        peers: dict[int, str] | None = None,
        collector: str | None = None,
        force_directory: bool = False,
    ) -> None:
        self.config = config
        self.workload, self.table = build_catalog(config)
        self.obs = obs if obs is not None else Observability()
        if self.obs.enabled:
            # Fleet-unique span ids: stitched traces must never collide
            # across processes that each count spans from 1.
            self.obs.tracer.origin = f"n{node_id}."
        self.fabric = LiveFabric(node_id, listen=listen, peers=peers, seed=config.seed)
        self.fabric.obs = self.obs
        self.fabric.runtime.obs = self.obs
        self.metrics_listen = metrics_listen
        self.force_directory = force_directory
        self._metrics_server: asyncio.AbstractServer | None = None
        self.collector: CollectorClient | None = (
            CollectorClient(self.obs, collector, node_id, "directory")
            if collector is not None and self.obs.enabled
            else None
        )
        self.directory: SAriadneDirectoryAgent | None = None
        self.election = ElectionAgent(
            config=config.election,
            directory_capable=True,
            on_promoted=self._install_directory,
        )
        self.fabric.node.add_agent(self.election)

    def _install_directory(self) -> None:
        if self.directory is not None:
            return
        agent = SAriadneDirectoryAgent(
            self.table,
            forward_window=self.config.forward_window,
        )
        self.fabric.node.add_agent(agent)
        self.directory = agent
        agent.join_backbone()

    async def start(self) -> None:
        """Bind listeners, start the election clock (or promote outright),
        the wall-clock time-series recorder and the telemetry shipper."""
        await self.fabric.start()
        if self.obs.enabled and self.obs.timeseries is None:
            # LiveRuntime implements the simulator's schedule_every/now
            # surface, so `obs timeline` works on live runs too.
            self.obs.start_timeseries(self.fabric.runtime)
        if self.force_directory:
            self.election.assume_directory()
        if self.collector is not None:
            await self.collector.start()
        if self.metrics_listen is not None:
            from repro.network.live import parse_address

            parts = parse_address(self.metrics_listen)
            if parts[0] == "unix":
                self._metrics_server = await asyncio.start_unix_server(
                    self._answer_scrape, path=parts[1]
                )
            else:
                self._metrics_server = await asyncio.start_server(
                    self._answer_scrape, host=parts[1], port=int(parts[2])
                )

    async def wait_elected(self, timeout: float = 30.0) -> None:
        """Block until the §4 election has promoted this node.

        Raises:
            TimeoutError: when the election does not conclude in time.
        """
        deadline = asyncio.get_event_loop().time() + timeout
        while self.directory is None:
            if asyncio.get_event_loop().time() > deadline:
                raise TimeoutError("election did not conclude in time")
            await asyncio.sleep(0.02)

    async def _answer_scrape(self, reader, writer) -> None:
        """Answer one HTTP GET with the current OpenMetrics snapshot."""
        try:
            while True:
                line = await asyncio.wait_for(reader.readline(), 5.0)
                if not line or line in (b"\r\n", b"\n"):
                    break
            body = to_openmetrics(self.obs.metrics.snapshot()).encode("utf-8")
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                b"Content-Length: " + str(len(body)).encode("ascii") + b"\r\n"
                b"Connection: close\r\n\r\n" + body
            )
            await writer.drain()
        except (OSError, asyncio.TimeoutError):
            pass
        finally:
            writer.close()

    async def close(self) -> None:
        """Stop both listeners, ship the final telemetry batch, and tear
        down every link task."""
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
            self._metrics_server = None
        if self.collector is not None:
            await self.collector.close()
        await self.fabric.close()


class LoadGenerator:
    """A closed-loop live client: publish, then query and measure.

    Args:
        config: the shared deployment config (must carry the same seed
            as the server's, or the embedded codes will not resolve).
        connect: the directory's protocol address.
        node_id: this client's node id.
        directory_node_id: the node id the server listens as.
        obs: live observability; defaults to a metrics-only instance
            (the latency histogram feeds the reported quantiles).
        collector: optional telemetry collector address; when set, the
            client traces its queries and its spans (including the
            ``client.query`` trace roots) ship there for cross-process
            stitching.
    """

    def __init__(
        self,
        config: DeploymentConfig,
        connect: str,
        node_id: int = LOADGEN_NODE_ID,
        directory_node_id: int = SERVE_NODE_ID,
        obs: Observability | None = None,
        collector: str | None = None,
    ) -> None:
        self.config = config
        self.workload, self.table = build_catalog(config)
        self.obs = obs if obs is not None else Observability()
        if self.obs.enabled:
            self.obs.tracer.origin = f"n{node_id}."
        self.fabric = LiveFabric(
            node_id, peers={directory_node_id: connect}, seed=config.seed
        )
        self.fabric.obs = self.obs
        self.fabric.runtime.obs = self.obs
        self.node_id = node_id
        self.collector: CollectorClient | None = (
            CollectorClient(self.obs, collector, node_id, "loadgen")
            if collector is not None and self.obs.enabled
            else None
        )
        # Track the directory from its live adverts — the resolver is the
        # same election-state lookup the simulated clients use, so a
        # directory that never advertises yields NO_DIRECTORY, not a hang.
        self.election = ElectionAgent(
            config=config.election, directory_capable=False
        )
        self.fabric.node.add_agent(self.election)
        self.client = SAriadneClientAgent(lambda: self.election.current_directory)
        # Live clients mint a client.query root span per query so the
        # stitched trace starts at the requester, not the directory.
        self.client.trace_queries = True
        self.fabric.node.add_agent(self.client)

    async def start(self) -> None:
        """Dial the directory and start the agents (and telemetry)."""
        await self.fabric.start()
        if self.obs.enabled and self.obs.timeseries is None:
            self.obs.start_timeseries(self.fabric.runtime)
        if self.collector is not None:
            await self.collector.start()

    async def wait_directory(self, timeout: float = 30.0) -> int:
        """Block until a directory advert names the vicinity directory.

        Raises:
            TimeoutError: when no advert arrives in time (server down,
                wrong address, or the election never concluded).
        """
        deadline = asyncio.get_event_loop().time() + timeout
        while self.election.current_directory is None:
            if asyncio.get_event_loop().time() > deadline:
                raise TimeoutError("no directory advert heard in time")
            await asyncio.sleep(0.02)
        return self.election.current_directory

    async def publish(self, services: int, refresh_interval: float = 30.0) -> int:
        """Advertise the first ``services`` workload profiles; returns
        how many sends were accepted by the transport."""
        accepted = 0
        for index in range(services):
            profile, document = annotated_profile_doc(self.workload, self.table, index)
            if self.client.advertise(document, profile.uri, refresh_interval=refresh_interval):
                accepted += 1
            await asyncio.sleep(0)
        return accepted

    async def run(
        self,
        services: int = 8,
        queries: int = 50,
        retries: int = 2,
        retry_timeout: float = 1.0,
        settle: float = 0.3,
        resolve_timeout: float = 10.0,
        query_services: int | None = None,
    ) -> dict:
        """Publish, then drive ``queries`` closed-loop discovery requests.

        Each query targets service ``i % N`` (so every one has a known
        match), waits for its ticket to resolve, and moves on — the
        classic closed-loop load shape, which makes reported QPS a
        round-trip-throughput number rather than an offered rate.

        ``query_services`` decouples the query mix from what *this*
        process published: a loadgen pointed at the backbone can query
        services another loadgen published at a peer directory (the
        cross-directory forwarding path), including with ``services=0``
        (publish nothing, query everything).

        Returns:
            A summary dict: ``qps``, ``latency_p50_ms`` / ``p99``,
            outcome counts, and the elapsed wall-clock seconds.
        """
        directory = await self.wait_directory()
        published = await self.publish(services)
        await asyncio.sleep(settle)
        if query_services is None:
            query_services = services
        request_docs = [
            annotated_request_doc(self.workload, self.table, index)
            for index in range(query_services)
        ]
        outcomes: dict[str, int] = {}
        loop = asyncio.get_event_loop()
        started = loop.time()
        attempted = queries if request_docs else 0
        for number in range(attempted):
            ticket = self.client.query(
                request_docs[number % query_services],
                retries=retries,
                retry_timeout=retry_timeout,
            )
            deadline = loop.time() + resolve_timeout
            while ticket.outcome is QueryOutcome.PENDING and loop.time() < deadline:
                await asyncio.sleep(0.001)
            outcomes[ticket.outcome.value] = outcomes.get(ticket.outcome.value, 0) + 1
        elapsed = loop.time() - started
        histogram = self.obs.histogram("client.query_latency", node=self.node_id)
        answered = outcomes.get("answered", 0) + outcomes.get("partial", 0)
        p50 = histogram.quantile(0.5)
        p99 = histogram.quantile(0.99)
        return {
            "directory": directory,
            "published": published,
            "queries": attempted,
            "answered": answered,
            "outcomes": outcomes,
            "elapsed_s": elapsed,
            "qps": answered / elapsed if elapsed > 0 else 0.0,
            "latency_p50_ms": p50 * 1e3 if p50 is not None else None,
            "latency_p99_ms": p99 * 1e3 if p99 is not None else None,
        }

    async def close(self) -> None:
        """Ship the final telemetry batch and tear the fabric down."""
        if self.collector is not None:
            await self.collector.close()
        await self.fabric.close()


def write_bench_report(summary: dict, config: DeploymentConfig, path) -> None:
    """Persist a loadgen summary as a ``BENCH_deployment_smoke.json``.

    Same shape as the benchmark harness's reports (metrics list + config
    + provenance manifest), so ``repro.cli obs regress`` gates it against
    the committed baseline exactly like any other benchmark.
    """
    config_dict = {
        **config.to_dict(),
        "services": summary["published"],
        "queries": summary["queries"],
    }
    metrics = [
        {"name": "qps", "value": summary["qps"], "units": "1/s"},
        {"name": "answered", "value": summary["answered"], "units": ""},
    ]
    for key, units in (("latency_p50_ms", "ms"), ("latency_p99_ms", "ms")):
        if summary[key] is not None:
            metrics.append({"name": key, "value": summary[key], "units": units})
    payload = {
        "benchmark": "deployment_smoke",
        "config": config_dict,
        "metrics": metrics,
        "manifest": run_manifest(config=config_dict),
    }
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
