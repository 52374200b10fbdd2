"""Reproduction experiments as a library: one function per paper figure.

Each function regenerates the series behind a table/figure of the paper's
evaluation and returns an :class:`ExperimentResult` with the raw series
(for assertions and further processing) and a rendered, paper-style text
table.  The benchmark harness (``benchmarks/``) and the CLI
(``python -m repro.cli experiment <name>``) both call these functions, so
there is exactly one implementation of every experiment.

See ``EXPERIMENTS.md`` for the paper-vs-measured discussion of each.
"""

from __future__ import annotations

import os
import pickle
import statistics
import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

from repro.core.directory import FlatDirectory, SemanticDirectory
from repro.core.encoding import IntervalEncoder, first_level_capacity, nesting_capacity
from repro.ontology.owl_xml import ontology_to_xml
from repro.ontology.reasoner import ClassificationStrategy
from repro.ontology.registry import OntologyRegistry
from repro.core.codes import CodeTable
from repro.registry.naive_semantic import OnlineMatchmaker
from repro.registry.syntactic import SyntacticRegistry, WsdlDocumentRegistry
from repro.services.generator import PAPER_FIG2_SHAPE, ServiceWorkload, WorkloadShape
from repro.services.xml_codec import profile_to_xml, request_to_xml, wsdl_to_xml
from repro.util.timing import PhaseTimer

#: Directory sizes swept by the §5 experiments (the paper: 1 → 100).
DIRECTORY_SIZES = [1, 20, 40, 60, 80, 100]


@dataclass
class ExperimentResult:
    """One experiment's regenerated data.

    Args:
        name: experiment id (``fig2`` ... ``e7``).
        header: column names of the series.
        rows: the series, one list per plotted point.
        notes: free-form lines appended to the rendered table (paper
            reference values, caveats).
        extras: named scalar findings (ratios, shares) for assertions.
    """

    name: str
    header: list[str]
    rows: list[list[object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    extras: dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        """Fixed-width table plus notes — the paper-style report block."""
        widths = [
            max(len(str(self.header[i])), *(len(str(row[i])) for row in self.rows))
            if self.rows
            else len(str(self.header[i]))
            for i in range(len(self.header))
        ]
        lines = ["  ".join(str(self.header[i]).rjust(widths[i]) for i in range(len(self.header)))]
        for row in self.rows:
            lines.append("  ".join(str(row[i]).rjust(widths[i]) for i in range(len(row))))
        lines.extend(self.notes)
        return "\n".join(lines)


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f}"


def _mean_seconds(fn: Callable[[], object], repeats: int) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats


def _median_seconds(fn: Callable[[], object], repeats: int) -> float:
    """Median of ``repeats`` timed calls after one untimed warm-up call:
    a cold first call and a scheduler outlier move a mean, not a median."""
    fn()
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - start)
    return statistics.median(timings)


# ---------------------------------------------------------------------------
# Workload construction helpers
# ---------------------------------------------------------------------------


def fig2_workload(seed: int = 42) -> ServiceWorkload:
    """§2.4 setting: 99-class/39-property ontology, 7-in/3-out capability."""
    return ServiceWorkload(PAPER_FIG2_SHAPE, seed=seed)


def directory_workload(seed: int = 42) -> ServiceWorkload:
    """§5 setting: 22 ontologies, one provided capability per service."""
    return ServiceWorkload(WorkloadShape(), seed=seed)


def _table_for(workload: ServiceWorkload) -> CodeTable:
    return CodeTable(OntologyRegistry(workload.ontologies))


def _annotated_profile_doc(workload: ServiceWorkload, table: CodeTable, index: int) -> str:
    profile = workload.make_service(index)
    return profile_to_xml(
        profile, annotations=table.annotate(profile.provided), codes_version=table.version
    )


def _annotated_request_doc(workload: ServiceWorkload, table: CodeTable, index: int) -> str:
    request = workload.matching_request(workload.make_service(index))
    return request_to_xml(
        request, annotations=table.annotate(request.capabilities), codes_version=table.version
    )


# ---------------------------------------------------------------------------
# Fig. 2 — cost of on-line semantic matching
# ---------------------------------------------------------------------------


def fig2_reasoner_cost(seed: int = 42, repeats: int = 5) -> ExperimentResult:
    """E1/E2: per-'reasoner' phase breakdown of one on-line match plus the
    syntactic reference point.

    Each strategy is measured ``repeats`` times and the fastest run kept —
    a single shot is vulnerable to scheduler/GC pauses that distort the
    phase shares.
    """
    workload = fig2_workload(seed)
    profile = workload.make_service(0)
    request = workload.matching_request(profile)
    profile_doc = profile_to_xml(profile)
    request_doc = request_to_xml(request)
    ontology_docs = [ontology_to_xml(onto) for onto in workload.ontologies]

    result = ExperimentResult(
        name="fig2",
        header=["reasoner", "parse(ms)", "load+classify(ms)", "match(ms)", "total(ms)", "reasoning", "tests"],
    )
    enumerative_total = None
    for strategy in ClassificationStrategy:
        report = None
        for _ in range(max(1, repeats)):
            candidate = OnlineMatchmaker(strategy=strategy).match_documents(
                profile_doc, request_doc, ontology_docs
            )
            if report is None or candidate.total_seconds < report.total_seconds:
                report = candidate
        if not report.outcome.matched:
            raise RuntimeError(f"fig2 workload must match (strategy {strategy.value})")
        result.rows.append(
            [
                strategy.value,
                _ms(report.parse_seconds),
                _ms(report.load_seconds + report.classify_seconds),
                _ms(report.match_seconds),
                _ms(report.total_seconds),
                f"{report.reasoning_share:.1%}",
                report.subsumption_tests,
            ]
        )
        result.extras[f"share_{strategy.value}"] = report.reasoning_share
        if strategy is ClassificationStrategy.ENUMERATIVE:
            enumerative_total = report.total_seconds

    registry = SyntacticRegistry()
    registry.publish_wsdl(ServiceWorkload.wsdl_twin(profile))
    wsdl_request = ServiceWorkload.wsdl_request_for(profile)
    syntactic_seconds = _mean_seconds(lambda: registry.query_wsdl(wsdl_request), repeats=50)
    ratio = enumerative_total / max(syntactic_seconds, 1e-9)
    result.extras["syntactic_seconds"] = syntactic_seconds
    result.extras["semantic_syntactic_ratio"] = ratio
    result.notes = [
        "",
        f"syntactic (UDDI-style) query: {_ms(syntactic_seconds)} ms",
        f"semantic/syntactic ratio (enumerative): {ratio:.0f}x",
        "paper: ~4-5 s semantic vs ~160 ms UDDI; load+classify 76-78% of total",
    ]
    return result


# ---------------------------------------------------------------------------
# Fig. 7 — creating graphs in an empty directory
# ---------------------------------------------------------------------------


def fig7_graph_creation(seed: int = 42, sizes: list[int] | None = None) -> ExperimentResult:
    """E3: parse / create-graphs / total for bulk loading a directory."""
    sizes = sizes if sizes is not None else DIRECTORY_SIZES
    workload = directory_workload(seed)
    table = _table_for(workload)
    documents = [_annotated_profile_doc(workload, table, i) for i in range(max(sizes))]

    result = ExperimentResult(
        name="fig7", header=["services", "parse(ms)", "create graphs(ms)", "total(ms)"]
    )
    for size in sizes:
        directory = SemanticDirectory(table)
        for document in documents[:size]:
            directory.publish_xml(document)
        parse = directory.timer.seconds("parse")
        classify = directory.timer.seconds("classify") + directory.timer.seconds("encode")
        result.rows.append([size, _ms(parse), _ms(classify), _ms(parse + classify)])
        result.extras[f"parse_{size}"] = parse
        result.extras[f"classify_{size}"] = classify
    result.notes = [
        "paper Fig.7: graph creation negligible vs XML parse; total <= ~350 ms at 100 services",
        "note: our XML parse is much faster relative to matching than the paper's 2006",
        "stack, so the two phases are comparable here; both grow linearly as in the paper",
    ]
    return result


# ---------------------------------------------------------------------------
# Fig. 8 — publishing one advertisement
# ---------------------------------------------------------------------------


def fig8_publish(seed: int = 42, sizes: list[int] | None = None, repeats: int = 20) -> ExperimentResult:
    """E4: parse / insert / total for one publication vs directory size.

    Each size's parse and insert times are the medians over ``repeats``
    publish/withdraw rounds of the probe advertisement.
    ``extras["matches_<size>"]`` counts the semantic matches one probe
    publication runs, a deterministic measure of the insertion work.
    """
    sizes = sizes if sizes is not None else DIRECTORY_SIZES
    workload = directory_workload(seed)
    table = _table_for(workload)
    probe_profile = workload.make_service(10_000)
    probe_doc = profile_to_xml(
        probe_profile, annotations=table.annotate(probe_profile.provided), codes_version=table.version
    )

    result = ExperimentResult(
        name="fig8", header=["directory size", "parse(ms)", "insert(ms)", "total(ms)", "matches"]
    )
    for size in sizes:
        directory = SemanticDirectory(table)
        for index in range(size):
            directory.publish(workload.make_service(index))

        # One untimed round first, as _median_seconds does: the first
        # publication into a fresh directory pays cold caches.
        directory.publish_xml(probe_doc)
        directory.unpublish(probe_profile.uri)
        parses, inserts, matches = [], [], set()
        for _ in range(repeats):
            directory.timer = timer = PhaseTimer()
            before = directory.stats.capability_matches
            directory.publish_xml(probe_doc)
            matches.add(directory.stats.capability_matches - before)
            directory.unpublish(probe_profile.uri)
            parses.append(timer.seconds("parse"))
            inserts.append(timer.seconds("classify") + timer.seconds("encode"))
        (matched,) = matches  # every round publishes into the same graphs
        parse = statistics.median(parses)
        insert = statistics.median(inserts)
        result.rows.append([size, _ms(parse), _ms(insert), _ms(parse + insert), matched])
        result.extras[f"insert_{size}"] = insert
        result.extras[f"parse_{size}"] = parse
        result.extras[f"matches_{size}"] = matched
    result.notes = ["paper Fig.8: insert nearly constant and negligible vs parse"]
    return result


# ---------------------------------------------------------------------------
# Fig. 9 — matching a request: classified vs flat
# ---------------------------------------------------------------------------


def fig9_match_request(
    seed: int = 42, sizes: list[int] | None = None, repeats: int = 50
) -> ExperimentResult:
    """E5: optimized (classified) vs non-optimized query time, each point
    the median of ``repeats`` warm queries."""
    sizes = sizes if sizes is not None else DIRECTORY_SIZES
    workload = directory_workload(seed)
    table = _table_for(workload)
    request = workload.matching_request(workload.make_service(0))

    result = ExperimentResult(
        name="fig9",
        header=[
            "services",
            "optimized query(us)",
            "non-optimized query(us)",
            "flat+index query(us)",
        ],
    )
    for size in sizes:
        classified = SemanticDirectory(table)
        # The paper's non-optimized baseline is a genuine linear scan; the
        # third column shows the same flat directory on its default path, a
        # concept index and the subsumer-map kernel (docs/PERFORMANCE.md):
        # identical results, fewer semantic matches.
        flat = FlatDirectory(table, use_concept_index=False)
        flat_indexed = FlatDirectory(table)
        profiles = [workload.make_service(index) for index in range(size)]
        classified.publish_batch(profiles)
        flat.publish_batch(profiles)
        flat_indexed.publish_batch(profiles)
        optimized = _median_seconds(lambda: classified.query(request), repeats)
        unoptimized = _median_seconds(lambda: flat.query(request), repeats)
        indexed = _median_seconds(lambda: flat_indexed.query(request), repeats)
        result.rows.append(
            [
                size,
                f"{optimized * 1e6:.1f}",
                f"{unoptimized * 1e6:.1f}",
                f"{indexed * 1e6:.1f}",
            ]
        )
        result.extras[f"optimized_{size}"] = optimized
        result.extras[f"flat_{size}"] = unoptimized
        result.extras[f"flat_indexed_{size}"] = indexed
    overhead = result.extras[f"flat_{sizes[-1]}"] / result.extras[f"optimized_{sizes[-1]}"] - 1
    result.extras["overhead_at_max"] = overhead
    result.extras["index_speedup_at_max"] = (
        result.extras[f"flat_{sizes[-1]}"] / result.extras[f"flat_indexed_{sizes[-1]}"]
    )
    result.notes = [
        f"non-optimized overhead at {sizes[-1]} services: {overhead:.0%}",
        "paper Fig.9: non-optimized ~+50% over optimized; optimized ~constant, few ms",
        f"concept-index speedup over linear flat scan at {sizes[-1]} services: "
        f"{result.extras['index_speedup_at_max']:.1f}x",
    ]
    return result


# ---------------------------------------------------------------------------
# Fig. 10 — Ariadne vs S-Ariadne
# ---------------------------------------------------------------------------


def fig10_ariadne_vs_sariadne(
    seed: int = 42, sizes: list[int] | None = None, repeats: int = 10
) -> ExperimentResult:
    """E6: syntactic (document-scanning) vs semantic (optimized) response."""
    sizes = sizes if sizes is not None else DIRECTORY_SIZES
    workload = directory_workload(seed)
    table = _table_for(workload)
    target = workload.make_service(0)
    request_doc = _annotated_request_doc(workload, table, 0)
    wsdl_request_doc = wsdl_to_xml(ServiceWorkload.wsdl_request_for(target))

    result = ExperimentResult(
        name="fig10", header=["services", "Ariadne(ms)", "S-Ariadne(ms)"]
    )
    for size in sizes:
        ariadne = WsdlDocumentRegistry()
        sariadne = SemanticDirectory(table)
        for index in range(size):
            profile = workload.make_service(index)
            ariadne.publish_xml(wsdl_to_xml(ServiceWorkload.wsdl_twin(profile)))
        sariadne.publish_xml_batch(
            _annotated_profile_doc(workload, table, index) for index in range(size)
        )
        a = _mean_seconds(lambda: ariadne.query_xml(wsdl_request_doc), repeats)
        s = _mean_seconds(lambda: sariadne.query_xml(request_doc), repeats)
        result.rows.append([size, _ms(a), _ms(s)])
        result.extras[f"ariadne_{size}"] = a
        result.extras[f"sariadne_{size}"] = s
    result.notes = [
        "paper Fig.10: Ariadne grows with directory size; S-Ariadne almost stable",
        "and faster at 100 services",
    ]
    return result


def fig10_traced_run(
    obs,
    seed: int = 42,
    directory_count: int = 3,
    services: int = 4,
    fault_plan=None,
) -> dict[str, object]:
    """An instrumented Fig. 10-style backbone run for tracing.

    Builds a full-mesh S-Ariadne backbone, publishes every advertisement
    on a *remote* directory, then queries each from a client homed on
    directory 0 — so every query crosses the backbone (Fig. 6 steps 3–5)
    and produces forwarding-hop spans.  A windowed time-series recorder
    runs on the simulated clock throughout, and the run ends with a §4
    lifecycle episode: a late node joins (churn + route-cache flush),
    elects itself directory (no advertisements reach it), and receives a
    handoff from directory 1 — so the timeline carries election, churn,
    summary-refresh, cache-invalidation and handoff events alongside the
    metric windows.  All telemetry flows into ``obs``; the run is fully
    deterministic for a given ``seed`` so two runs yield identical span
    trees and event signatures modulo wall-clock timestamps.

    Args:
        obs: the :class:`~repro.obs.Observability` receiving telemetry.
        seed: workload and network seed.
        directory_count: backbone size.
        services: advertisements published / queries issued.
        fault_plan: optional :class:`~repro.network.faults.FaultPlan`
            installed before traffic starts.  An *empty* plan must leave
            the run bit-identical to passing ``None`` — the zero-fault
            determinism guarantee the fault tests pin down.

    Returns:
        A summary dict: issued/answered query counts, the trace ids of
        the issued queries, and the id of the late-elected directory.
    """
    from repro.network.election import ElectionAgent, ElectionConfig
    from repro.network.messages import PublishService
    from repro.network.node import Network
    from repro.network.simulator import Simulator
    from repro.network.topology import Bounds, Position
    from repro.obs import install
    from repro.protocols.sariadne import SAriadneClientAgent, SAriadneDirectoryAgent

    workload = directory_workload(seed)
    table = _table_for(workload)
    sim = Simulator()
    network = Network(sim, bounds=Bounds(100, 100), radio_range=500.0, seed=seed)
    directories = {}
    for nid in range(directory_count):
        node = network.add_node(nid, Position(10.0 * nid, 10.0))
        directories[nid] = node.add_agent(
            SAriadneDirectoryAgent(table, forward_window=0.5)
        )
    client_node = network.add_node(directory_count, Position(10.0 * directory_count, 20.0))
    client = client_node.add_agent(SAriadneClientAgent(lambda: 0))
    network.start()
    install(obs, network)
    if fault_plan is not None:
        network.install_fault_plan(fault_plan)
    if obs.timeseries is None:
        obs.start_timeseries(sim, interval=1.0)
    for agent in directories.values():
        agent.join_backbone()
    sim.run(until=5.0)

    remote_ids = [nid for nid in directories if nid != 0] or [0]
    for index in range(services):
        document = _annotated_profile_doc(workload, table, index)
        target = remote_ids[index % len(remote_ids)]
        client_node.unicast(target, PublishService(document))
    sim.run(until=sim.now + 3.0)

    tickets = []
    for index in range(services):
        document = _annotated_request_doc(workload, table, index)
        tickets.append(client.query(document))
        sim.run(until=sim.now + 5.0)

    # Lifecycle episode: late join -> self-election -> handoff.  The new
    # node hears no directory advertisements (the static backbone does not
    # beacon), so its election call finds no rival candidates and it
    # promotes itself; directory 1 then hands its content over.
    late_id = directory_count + 1
    late_node = network.add_node(late_id, Position(10.0 * late_id, 30.0))
    late_directory: dict[str, object] = {}

    def _install_late_directory() -> None:
        agent = late_node.add_agent(SAriadneDirectoryAgent(table, forward_window=0.5))
        agent.join_backbone()
        late_directory["agent"] = agent

    election = late_node.add_agent(
        ElectionAgent(
            ElectionConfig(
                advert_interval=5.0,
                directory_timeout=1.0,
                check_interval=0.5,
                reply_window=0.5,
            ),
            directory_capable=True,
            on_promoted=_install_late_directory,
        )
    )
    election.on_start()  # the network already started; wire the agent in
    sim.run(until=sim.now + 4.0)
    handed_off = False
    if election.is_directory and 1 in directories:
        handed_off = directories[1].hand_off_to(late_id)
        sim.run(until=sim.now + 2.0)

    # One more backbone query after the episode, so the timeline shows
    # post-handoff load in its trailing windows.
    final_ticket = client.query(_annotated_request_doc(workload, table, 0))
    tickets.append(final_ticket)
    sim.run(until=sim.now + 5.0)

    for directory in directories.values():
        directory.directory.export_metrics()
    if late_directory:
        late_directory["agent"].directory.export_metrics()
    if obs.timeseries is not None:
        obs.timeseries.finalize()
    obs.flush()
    return {
        "issued": len(tickets),
        "answered": sum(1 for t in tickets if t in client.responses),
        "trace_ids": [f"q0.{t.query_id}" for t in tickets if t],
        "late_directory": late_id if election.is_directory else None,
        "handed_off": handed_off,
    }


# ---------------------------------------------------------------------------
# Chaos — recovery under deterministic fault injection
# ---------------------------------------------------------------------------

#: The canned fault plans the chaos experiment/benchmark/CLI sweep.
CHAOS_PLANS = ("directory_crash", "partition", "lossy_links")


def canned_fault_plan(name: str, deployment, fault_at: float, heal_at: float, seed: int = 0):
    """Build one of the three canned fault plans for a running deployment.

    The plans cover the three failure families the paper's §4 resilience
    story leans on:

    * ``directory_crash`` — the first elected directory hard-crashes (no
      restart); recovery comes from re-election plus the clients'
      soft-state re-registration.
    * ``partition`` — the area splits into left/right halves at
      ``fault_at`` and heals at ``heal_at``; queries inside each island
      keep working partially (``QueryOutcome.PARTIAL``).
    * ``lossy_links`` — a stochastic chaos window (30% loss, 5%
      duplication, up to 10 ms extra delay) between ``fault_at`` and
      ``heal_at``; client retries with exponential backoff recover.

    Args:
        name: one of :data:`CHAOS_PLANS`.
        deployment: the running :class:`~repro.protocols.deployment.Deployment`
            (the plan targets its current directories/positions).
        fault_at: simulated time the fault strikes.
        heal_at: simulated time the fault heals (ignored by
            ``directory_crash`` — crashes do not heal themselves).
        seed: the plan's chaos-window RNG seed.

    Returns:
        A :class:`~repro.network.faults.FaultPlan`.

    Raises:
        ValueError: on an unknown plan name.
    """
    from repro.network.faults import FaultPlan

    plan = FaultPlan(seed=seed)
    if name == "directory_crash":
        victims = deployment.directory_ids()
        if not victims:
            raise ValueError("no directory elected yet; run the deployment first")
        plan.crash(at=fault_at, node=victims[0], wipe_state=True)
    elif name == "partition":
        network = deployment.network
        mid_x = deployment.config.bounds.width / 2
        left = tuple(
            nid for nid in sorted(network.nodes) if network.nodes[nid].position.x < mid_x
        )
        right = tuple(nid for nid in sorted(network.nodes) if nid not in set(left))
        plan.partition(at=fault_at, groups=(left, right), heal_at=heal_at)
    elif name == "lossy_links":
        plan.chaos(
            start=fault_at, stop=heal_at, loss=0.3, duplicate=0.05, extra_delay=0.01
        )
    else:
        raise ValueError(f"unknown chaos plan {name!r}; expected one of {CHAOS_PLANS}")
    return plan


def _resolve_deployment_config(config, default_factory):
    """The shared config surface: accept a ready
    :class:`~repro.protocols.deployment.DeploymentConfig`, a path to a
    TOML/JSON file (the same files ``repro.cli serve`` / ``loadgen``
    read), or ``None`` for the experiment's built-in default."""
    from repro.protocols.deployment import DeploymentConfig

    if config is None:
        return default_factory()
    if isinstance(config, DeploymentConfig):
        return config
    return DeploymentConfig.load(config)


def chaos_recovery(
    plan_name: str,
    seed: int = 0,
    obs=None,
    node_count: int = 25,
    services: int = 8,
    windows: int = 12,
    window_seconds: float = 10.0,
    queries_per_window: int = 4,
    fault_window: int = 4,
    heal_window: int = 8,
    config=None,
) -> ExperimentResult:
    """Measure discovery success ratio and recovery time under one canned
    fault plan.

    Builds a 25-node S-Ariadne deployment (fast election timings, every
    node directory-capable), advertises ``services`` soft-state
    advertisements, then drives ``windows`` measurement windows of
    ``window_seconds`` each, issuing ``queries_per_window`` rotating
    discovery requests per window.  The fault strikes at the start of
    window ``fault_window`` and (where the plan supports healing) heals
    at the start of window ``heal_window``.

    Everything runs on the simulated clock from seeded RNGs, so the whole
    chaos run — fault times, message fates, recovery trajectory — is
    bit-reproducible for a given ``(plan_name, seed)``.

    Args:
        plan_name: one of :data:`CHAOS_PLANS`.
        seed: deployment + fault-plan seed.
        obs: optional :class:`~repro.obs.Observability`; when given, the
            run is fully instrumented (the ``fault.*`` chronology lands
            on the timeline).
        node_count: deployment size.
        services: soft-state advertisements (and distinct requests).
        windows: total measurement windows.
        window_seconds: length of one window (simulated seconds).
        queries_per_window: discovery requests issued per window.
        fault_window: window index at which the fault strikes.
        heal_window: window index at which healing faults heal.
        config: optional deployment override — a
            :class:`~repro.protocols.deployment.DeploymentConfig` or a
            path to the same TOML/JSON files ``repro.cli serve`` and
            ``loadgen`` read; when given it replaces the built-in
            deployment (and ``node_count``/``seed`` follow it).

    Returns:
        An :class:`ExperimentResult` with one row per window
        (``[window, t_start, success, phase]``) and extras:
        ``success_pre`` / ``success_during`` / ``success_post`` (mean
        success ratios per phase), ``recovery_s`` (seconds from the fault
        to the first window back at the pre-fault ratio; ``-1`` when it
        never recovers) and ``recovered`` (0/1).
    """
    from repro.network.election import ElectionConfig
    from repro.protocols.deployment import Deployment, DeploymentConfig

    workload = directory_workload(42)
    table = _table_for(workload)
    deployment_config = _resolve_deployment_config(
        config,
        lambda: DeploymentConfig(
            node_count=node_count,
            protocol="sariadne",
            election=ElectionConfig(
                advert_interval=5.0,
                advert_hops=2,
                directory_timeout=10.0,
                check_interval=2.0,
                reply_window=1.0,
                election_hops=2,
            ),
            seed=seed,
            directory_capable_fraction=1.0,
        ),
    )
    node_count = deployment_config.node_count
    deployment = Deployment(deployment_config, table=table)
    if obs is not None:
        from repro.obs import install

        install(obs, deployment.network)
    deployment.run_until_directories(minimum=1)

    request_docs = []
    for index in range(services):
        document = _annotated_profile_doc(workload, table, index)
        provider = deployment.clients[(index * 3) % node_count]
        provider.advertise(
            document,
            workload.make_service(index).uri,
            refresh_interval=window_seconds,
        )
        request_docs.append(_annotated_request_doc(workload, table, index))
    deployment.sim.run(until=deployment.sim.now + 5.0)

    t0 = deployment.sim.now
    fault_at = t0 + fault_window * window_seconds
    heal_at = t0 + heal_window * window_seconds
    plan = canned_fault_plan(plan_name, deployment, fault_at, heal_at, seed=seed)
    deployment.install_fault_plan(plan)

    result = ExperimentResult(
        name=f"chaos_{plan_name}",
        header=["window", "t_start", "success", "phase"],
    )
    ratios: list[float] = []
    slice_seconds = window_seconds / queries_per_window
    query_index = 0
    for window in range(windows):
        window_start = deployment.sim.now
        successes = 0
        for _ in range(queries_per_window):
            client = deployment.clients[(query_index * 7) % node_count]
            document = request_docs[query_index % len(request_docs)]
            ticket = client.query(document, retries=1, retry_timeout=2.0)
            query_index += 1
            deployment.sim.run(until=deployment.sim.now + slice_seconds)
            if ticket:
                response = client.responses.get(ticket.query_id)
                if response is not None and response[1]:
                    successes += 1
        ratio = successes / queries_per_window
        ratios.append(ratio)
        phase = (
            "pre"
            if window < fault_window
            else ("impaired" if window < heal_window else "post")
        )
        result.rows.append([window, f"{window_start - t0:.0f}", f"{ratio:.2f}", phase])

    pre = ratios[:fault_window]
    impaired = ratios[fault_window:heal_window]
    post = ratios[heal_window:]
    success_pre = sum(pre) / len(pre) if pre else 0.0
    success_during = sum(impaired) / len(impaired) if impaired else 0.0
    success_post = sum(post) / len(post) if post else 0.0
    recovery_s = -1.0
    for window in range(fault_window, windows):
        if ratios[window] >= success_pre:
            # The window *end* is when the recovered ratio is established.
            recovery_s = (window + 1) * window_seconds - fault_window * window_seconds
            break
    result.extras["success_pre"] = success_pre
    result.extras["success_during"] = success_during
    result.extras["success_post"] = success_post
    result.extras["recovery_s"] = recovery_s
    result.extras["recovered"] = 1.0 if recovery_s >= 0 else 0.0
    injector = deployment.network.faults
    result.notes = [
        f"plan={plan_name} seed={seed} fault@{fault_at - t0:.0f}s heal@{heal_at - t0:.0f}s",
        (
            f"faults executed: crashes={injector.stats.crashes} "
            f"partitions={injector.stats.partitions} "
            f"msg_lost={injector.stats.messages_lost} "
            f"msg_dup={injector.stats.messages_duplicated}"
        ),
    ]
    if obs is not None and obs.timeseries is not None:
        obs.timeseries.finalize()
    if obs is not None:
        obs.flush()
    return result


def directory_failover(
    seed: int = 0,
    obs=None,
    node_count: int = 10,
    services: int = 10,
    refresh_interval: float = 10.0,
    deadline: float = 120.0,
    config=None,
) -> ExperimentResult:
    """Crash the elected directory; prove zero-loss recovery via
    election, soft-state refresh, and a follow-up handoff.

    The scenario deploys S-Ariadne over one radio vicinity (every node in
    range, so exactly one directory serves at a time), each elected node
    hosting one :class:`~repro.core.directory.SemanticDirectory`.  After
    ``services`` soft-state advertisements settle, the canned
    ``directory_crash`` :class:`~repro.network.faults.FaultPlan` kills the
    primary with ``wipe_state=True`` (its whole directory lost at once).
    Recovery then has to come from the §4 machinery: re-election promotes
    a successor, whose vicinity advert triggers the clients' immediate
    re-registration.  Once the capability count is restored, the
    experiment re-issues every request and demands *row-identical*
    results, then exercises the §5 handoff path — the recovered primary
    transfers its state to a named successor — and checks count and
    results once more.

    Returns:
        An :class:`ExperimentResult` with one row per phase
        (``[phase, directory, capabilities, results_ok]``) and extras:
        ``caps_pre`` / ``caps_post`` / ``caps_handoff`` (capability counts
        across all directories), ``services_lost`` (post-recovery deficit — the
        zero-loss assertion), ``results_equal`` / ``handoff_ok`` (0/1 row
        equality per phase), ``recovery_s`` (simulated seconds from crash
        to restored count) and ``recovered``.
    """
    from repro.network.election import ElectionConfig
    from repro.network.topology import Bounds
    from repro.protocols.deployment import Deployment, DeploymentConfig

    workload = directory_workload(42)
    table = _table_for(workload)
    deployment_config = _resolve_deployment_config(
        config,
        lambda: DeploymentConfig(
            node_count=node_count,
            protocol="sariadne",
            bounds=Bounds(200.0, 200.0),
            radio_range=300.0,  # one vicinity: a single directory at a time
            election=ElectionConfig(
                advert_interval=5.0,
                advert_hops=2,
                directory_timeout=10.0,
                check_interval=2.0,
                reply_window=1.0,
                election_hops=2,
            ),
            seed=seed,
            directory_capable_fraction=1.0,
        ),
    )
    deployment = Deployment(deployment_config, table=table)
    if obs is not None:
        from repro.obs import install

        install(obs, deployment.network)
    deployment.run_until_directories(minimum=1)

    primary = deployment.directory_ids()[0]
    # Providers and requesters live on nodes that survive the crash: the
    # fault kills the primary *node* (client included), and a provider
    # dying with its service is departure, not directory data loss.
    survivors = [nid for nid in sorted(deployment.clients) if nid != primary]

    request_docs = []
    for index in range(services):
        document = _annotated_profile_doc(workload, table, index)
        provider = deployment.clients[survivors[index % len(survivors)]]
        provider.advertise(
            document, workload.make_service(index).uri, refresh_interval=refresh_interval
        )
        request_docs.append(_annotated_request_doc(workload, table, index))
    deployment.sim.run(until=deployment.sim.now + 5.0)

    def cached_capabilities() -> int:
        return sum(
            agent.local_capability_count()
            for agent in deployment.directory_agents.values()
        )

    def query_rows() -> list[tuple]:
        rows: list[tuple] = []
        for index, document in enumerate(request_docs):
            requester = survivors[(index * 3 + 1) % len(survivors)]
            response = deployment.query_from(requester, document)
            rows.append(tuple(sorted(response[1])) if response else ())
        return rows

    caps_pre = cached_capabilities()
    rows_pre = query_rows()

    result = ExperimentResult(
        name="directory_failover",
        header=["phase", "directory", "capabilities", "results_ok"],
    )
    result.rows.append(["pre", primary, caps_pre, "-"])

    crash_at = deployment.sim.now + 2.0
    plan = canned_fault_plan(
        "directory_crash", deployment, fault_at=crash_at, heal_at=crash_at, seed=seed
    )
    deployment.install_fault_plan(plan)

    recovery_s = -1.0
    start = deployment.sim.now
    while deployment.sim.now < start + deadline:
        deployment.sim.run(until=deployment.sim.now + 5.0)
        directories = [d for d in deployment.directory_ids() if d != primary]
        if directories and cached_capabilities() >= caps_pre:
            recovery_s = deployment.sim.now - crash_at
            break
    caps_post = cached_capabilities()
    successor = next(
        (d for d in deployment.directory_ids() if d != primary), None
    )
    rows_post = query_rows() if successor is not None else [()] * len(request_docs)
    results_equal = 1.0 if rows_post == rows_pre else 0.0
    result.rows.append(
        ["post-crash", successor if successor is not None else "-", caps_post,
         "yes" if results_equal else "NO"]
    )

    # §5 handoff: the recovered primary transfers its directory to a successor.
    handoff_ok = 0.0
    caps_handoff = 0
    if successor is not None:
        handoff_target = next(
            nid
            for nid in sorted(deployment.clients)
            if nid not in (primary, successor)
        )
        deployment.transfer_directory(successor, handoff_target)
        deployment.sim.run(until=deployment.sim.now + 10.0)
        caps_handoff = cached_capabilities()
        rows_handoff = query_rows()
        handoff_ok = 1.0 if (
            caps_handoff >= caps_pre and rows_handoff == rows_pre
        ) else 0.0
        result.rows.append(
            ["post-handoff", handoff_target, caps_handoff, "yes" if handoff_ok else "NO"]
        )

    result.extras["caps_pre"] = float(caps_pre)
    result.extras["caps_post"] = float(caps_post)
    result.extras["caps_handoff"] = float(caps_handoff)
    result.extras["services_lost"] = float(max(0, caps_pre - caps_post))
    result.extras["results_equal"] = results_equal
    result.extras["handoff_ok"] = handoff_ok
    result.extras["recovery_s"] = recovery_s
    result.extras["recovered"] = 1.0 if recovery_s >= 0 else 0.0
    result.notes = [
        f"seed={seed} services={services} "
        f"primary={primary} recovery={recovery_s:.0f}s",
        "crash wipes the directory; recovery = election + soft-state "
        "re-registration; handoff transfers the rebuilt directory",
    ]
    if obs is not None:
        for agent in deployment.directory_agents.values():
            directory = getattr(agent, "directory", None)
            if directory is not None and hasattr(directory, "export_metrics"):
                directory.export_metrics()
        obs.flush()
    return result


# ---------------------------------------------------------------------------
# E7 — §3.2 encoding scalability
# ---------------------------------------------------------------------------


def e7_encoding_scalability(seed: int = 9, concepts: int = 300) -> ExperimentResult:
    """E7: float64 capacities of the slot layout + float-vs-exact ablation."""
    from repro.ontology.generator import OntologyShape, generate_ontology
    from repro.ontology.reasoner import Reasoner

    result = ExperimentResult(
        name="e7", header=["parameters", "first-level entries", "nesting levels"]
    )
    for p, k in [(2, 5), (2, 10), (3, 5), (4, 5)]:
        first = first_level_capacity(p, k)
        depth = nesting_capacity(p, k)
        result.rows.append([f"p={p},k={k}", first, depth])
        result.extras[f"first_p{p}k{k}"] = first
        result.extras[f"depth_p{p}k{k}"] = depth

    onto = generate_ontology(
        "http://repro.example.org/enc",
        OntologyShape(concepts=concepts, properties=20),
        seed=seed,
    )
    taxonomy = Reasoner().load([onto]).classify()
    start = time.perf_counter()
    IntervalEncoder(exact=False).encode(taxonomy)
    float_seconds = time.perf_counter() - start
    start = time.perf_counter()
    IntervalEncoder(exact=True).encode(taxonomy)
    exact_seconds = time.perf_counter() - start
    result.extras["float_seconds"] = float_seconds
    result.extras["exact_seconds"] = exact_seconds
    result.notes = [
        "",
        "paper (its layout, p=2, k=5): 1071 first-level entries, 462 levels",
        f"encode {concepts} concepts: float {float_seconds * 1e3:.2f} ms,"
        f" exact Fractions {exact_seconds * 1e3:.2f} ms"
        f" ({exact_seconds / max(float_seconds, 1e-9):.1f}x slower, no capacity limit)",
    ]
    return result


# ---------------------------------------------------------------------------
# E8 — §3.1 numeric-index trade-off (after [3])
# ---------------------------------------------------------------------------


def e8_gist_directory(sizes: list[int] | None = None, seed: int = 0) -> ExperimentResult:
    """E8: R-tree search stays cheap while bulk insertion costs orders of
    magnitude more (the [3] trade-off the paper cites)."""
    import random

    from repro.registry.gist import GistIndex, Rect

    sizes = sizes if sizes is not None else [100, 1_000, 5_000, 10_000]

    def random_rect(rng: random.Random) -> Rect:
        x = rng.random() * 0.99
        return Rect(x, min(1.0, x + rng.random() * 0.01 + 1e-6), 0.0, 1.0)

    result = ExperimentResult(
        name="e8", header=["entries", "bulk insert(ms)", "search(us)", "depth"]
    )
    for size in sizes:
        rng = random.Random(seed)
        index = GistIndex()
        start = time.perf_counter()
        for i in range(size):
            index.insert(random_rect(rng), f"svc{i}")
        build_seconds = time.perf_counter() - start
        probe_rng = random.Random(99)
        probes = [random_rect(probe_rng) for _ in range(200)]
        start = time.perf_counter()
        for probe in probes:
            index.search(probe)
        search_seconds = (time.perf_counter() - start) / len(probes)
        result.rows.append(
            [size, _ms(build_seconds), f"{search_seconds * 1e6:.1f}", index.depth()]
        )
        result.extras[f"build_{size}"] = build_seconds
        result.extras[f"search_{size}"] = search_seconds
    result.notes = ["paper ([3], 2003 hardware): search ~ms at 10k entries, insertion ~3 s"]
    return result


# ---------------------------------------------------------------------------
# E9 — §3.1 annotated-taxonomy trade-off (after [13])
# ---------------------------------------------------------------------------


def e9_srinivasan_registry(seed: int = 42, services: int = 100) -> ExperimentResult:
    """E9: publish is a clear multiple of a plain registry's; queries are
    lookup-only."""
    from repro.registry.srinivasan import AnnotatedTaxonomyRegistry

    workload = directory_workload(seed)
    profiles = workload.make_services(services)
    twins = [ServiceWorkload.wsdl_twin(profile) for profile in profiles]

    # Best-of-3: the syntactic baseline is microseconds per publish and a
    # single noisy run would distort the ratio.
    syntactic_publish = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        syntactic = SyntacticRegistry()
        for twin in twins:
            syntactic.publish_wsdl(twin)
        syntactic_publish = min(
            syntactic_publish, (time.perf_counter() - start) / services
        )

    annotated = None
    annotated_publish = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        annotated = AnnotatedTaxonomyRegistry(workload.taxonomy)
        for profile in profiles:
            annotated.publish(profile)
        annotated_publish = min(
            annotated_publish, (time.perf_counter() - start) / services
        )

    request = workload.matching_request(profiles[3]).capabilities[0]
    query_seconds = _mean_seconds(lambda: annotated.query_capability(request), repeats=200)
    ratio = annotated_publish / max(syntactic_publish, 1e-9)
    result = ExperimentResult(name="e9", header=["metric", "value"])
    result.rows = [
        ["syntactic publish (per svc)", f"{syntactic_publish * 1e6:.1f} us"],
        ["annotated publish (per svc)", f"{annotated_publish * 1e6:.1f} us"],
        ["publish ratio", f"{ratio:.1f}x"],
        ["annotated query", f"{query_seconds * 1e6:.1f} us"],
        ["annotation records written", annotated.publish_work],
    ]
    result.extras["publish_ratio"] = ratio
    result.extras["query_seconds"] = query_seconds
    result.notes = [
        "paper ([13]): publish ~7x UDDI publish; query in milliseconds without reasoning"
    ]
    return result


# ---------------------------------------------------------------------------
# E10 — §4 Bloom-filter summary quality
# ---------------------------------------------------------------------------


def e10_bloom_summaries(stored: int = 60, probes: int = 300) -> ExperimentResult:
    """E10: false-positive rate across (m, k); never a false negative."""
    from repro.core.summaries import DirectorySummary
    from repro.services.profile import Capability

    def synthetic(index: int, namespace: str) -> Capability:
        return Capability.build(
            f"urn:x:cap:{index}", f"C{index}", outputs=[f"{namespace}#Out{index}"]
        )

    result = ExperimentResult(
        name="e10", header=["parameters", "false positives", "fill"]
    )
    for m, k in [(64, 2), (128, 4), (256, 4), (512, 4), (1024, 6)]:
        summary = DirectorySummary(m=m, k=k)
        namespaces = [f"http://stored.org/{i}" for i in range(stored)]
        for index, namespace in enumerate(namespaces):
            summary.add_capability(synthetic(index, namespace))
        missed = sum(
            1
            for index, namespace in enumerate(namespaces)
            if not summary.might_hold(synthetic(index, namespace))
        )
        if missed:
            raise RuntimeError("Bloom summaries must never produce false negatives")
        false_hits = sum(
            1
            for index in range(probes)
            if summary.might_hold(synthetic(index, f"http://absent.org/{index}"))
        )
        rate = false_hits / probes
        result.rows.append([f"m={m},k={k}", f"{rate:.2%}", f"{summary.bloom.fill_ratio:.2f}"])
        result.extras[f"fp_m{m}k{k}"] = rate
    result.notes = [
        'paper §4: "values can be chosen so that the probability of false positive is minimized"'
    ]
    return result


#: Registry of runnable experiments (used by the CLI and tests).
EXPERIMENTS: dict[str, Callable[[], ExperimentResult]] = {
    "fig2": fig2_reasoner_cost,
    "fig7": fig7_graph_creation,
    "fig8": fig8_publish,
    "fig9": fig9_match_request,
    "fig10": fig10_ariadne_vs_sariadne,
    "e7": e7_encoding_scalability,
    "e8": e8_gist_directory,
    "e9": e9_srinivasan_registry,
    "e10": e10_bloom_summaries,
    "directory_failover": directory_failover,
}


def run_experiment(name: str) -> ExperimentResult:
    """Run one experiment by id.

    Raises:
        KeyError: for unknown experiment names.
    """
    try:
        runner = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: {', '.join(sorted(EXPERIMENTS))}"
        ) from None
    return runner()


# ---------------------------------------------------------------------------
# Parallel multi-trial runner
# ---------------------------------------------------------------------------


def _call_trial(task: tuple[Callable[[int], object], int]) -> object:
    """Worker entry point: unpack and run one ``(trial_fn, seed)`` task.

    Module-level so it pickles under every multiprocessing start method.
    """
    trial_fn, seed = task
    return trial_fn(seed)


def run_trials(
    trial_fn: Callable[[int], object],
    seeds: Iterable[int],
    processes: int | None = None,
) -> list[object]:
    """Run ``trial_fn(seed)`` for every seed, in parallel when possible.

    Results come back in seed order, so for a deterministic ``trial_fn``
    (one whose output depends only on the seed, not on wall-clock or
    process identity) the returned list is identical to the sequential
    ``[trial_fn(s) for s in seeds]`` — the execution backend is invisible.

    Parallelism is opportunistic: ``trial_fn`` must be picklable (a
    module-level function or ``functools.partial`` of one), and the host
    must allow worker processes.  When either fails — sandboxes that deny
    semaphores, lambdas, interactive-only functions — the runner falls
    back to the in-process sequential loop rather than erroring.

    Args:
        trial_fn: one experiment trial; receives the trial's seed.
        seeds: per-trial seeds; also defines result order.
        processes: worker-pool size (default: CPU count, capped at the
            number of trials).  ``1`` forces the sequential path.
    """
    seed_list = list(seeds)
    if not seed_list:
        return []
    if processes is None:
        processes = os.cpu_count() or 1
    processes = max(1, min(processes, len(seed_list)))
    if processes > 1:
        tasks = [(trial_fn, seed) for seed in seed_list]
        try:
            import multiprocessing

            try:
                # fork shares the already-imported library with workers;
                # fall back to the platform default (spawn) elsewhere.
                context = multiprocessing.get_context("fork")
            except ValueError:
                context = multiprocessing.get_context()
            with context.Pool(processes) as pool:
                return pool.map(_call_trial, tasks)
        except (
            OSError,  # no semaphores / fds in restricted environments
            PermissionError,
            ImportError,
            ValueError,
            AttributeError,  # unpicklable local function
            pickle.PicklingError,
        ):
            pass
    return [trial_fn(seed) for seed in seed_list]


def merge_trial_results(results: Sequence[object]) -> dict[str, dict[str, object]]:
    """Deterministically aggregate per-trial metrics.

    Args:
        results: per-trial outputs in seed order — either plain
            ``{metric: value}`` mappings or :class:`ExperimentResult`
            objects (whose ``extras`` are used).

    Returns:
        ``{metric: {"mean", "min", "max", "values"}}`` for every metric
        present in *all* trials, with ``values`` in trial order.  The mean
        is accumulated in trial order, so the merge is bitwise identical
        whether the trials ran sequentially or in a worker pool.
    """
    metric_maps = [
        result.extras if isinstance(result, ExperimentResult) else dict(result)
        for result in results
    ]
    if not metric_maps:
        return {}
    shared = [
        key for key in metric_maps[0] if all(key in m for m in metric_maps[1:])
    ]
    merged: dict[str, dict[str, object]] = {}
    for key in shared:
        values = [m[key] for m in metric_maps]
        total = 0.0
        for value in values:
            total += value
        merged[key] = {
            "mean": total / len(values),
            "min": min(values),
            "max": max(values),
            "values": values,
        }
    return merged
