"""Command-line interface: run experiments, generate workloads, inspect
encodings.

Usage::

    python -m repro.cli experiment fig2        # one paper experiment
    python -m repro.cli experiment all         # every registered one
    python -m repro.cli workload --services 20 --seed 7 --outdir /tmp/wl
    python -m repro.cli capacity --p 2 --k 5   # §3.2 float64 limits
    python -m repro.cli match <profile.xml> <request.xml> --ontologies dir/
    python -m repro.cli trace-report trace.jsonl  # render a recorded trace

The same functions back the benchmark harness, so CLI output matches the
``benchmarks/results/`` artefacts.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.core.codes import CodeTable
from repro.core.encoding import first_level_capacity, nesting_capacity
from repro.core.matching import TaxonomyMatcher
from repro.experiments import EXPERIMENTS, run_experiment
from repro.ontology.owl_xml import ontology_from_xml, ontology_to_xml
from repro.ontology.reasoner import Reasoner
from repro.ontology.registry import OntologyRegistry
from repro.services.generator import ServiceWorkload, WorkloadShape
from repro.services.xml_codec import (
    profile_from_xml,
    profile_to_xml,
    request_from_xml,
    request_to_xml,
    wsdl_to_xml,
)


def _load_deployment_config(args: argparse.Namespace):
    """The shared ``--config`` surface of ``serve`` / ``loadgen``."""
    from repro.protocols.deployment import DeploymentConfig

    if args.config is not None:
        return DeploymentConfig.load(args.config)
    return DeploymentConfig(node_count=2)


def _parse_peer_args(pairs: list[str] | None) -> dict[int, str] | None:
    """``--peer ID=ADDR`` pairs → the LiveFabric peers mapping.

    Raises:
        ValueError: on a malformed pair.
    """
    if not pairs:
        return None
    peers: dict[int, str] = {}
    for pair in pairs:
        node_id, _, address = pair.partition("=")
        if not _ or not node_id.strip().lstrip("-").isdigit() or not address:
            raise ValueError(f"--peer expects ID=ADDR, got {pair!r}")
        peers[int(node_id)] = address
    return peers


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.protocols.live_deploy import DirectoryServer

    config = _load_deployment_config(args)
    try:
        peers = _parse_peer_args(args.peer)
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2

    async def run() -> int:
        server = DirectoryServer(
            config,
            listen=args.listen,
            metrics_listen=args.metrics,
            node_id=args.node_id,
            peers=peers,
            collector=args.collector,
            force_directory=args.assume_directory,
        )
        await server.start()
        print(f"serve: node {args.node_id} listening on {args.listen}", flush=True)
        await server.wait_elected(timeout=args.election_timeout)
        print(
            "serve: elected directory;"
            + (f" metrics on {args.metrics}" if args.metrics else ""),
            flush=True,
        )
        try:
            if args.duration is not None:
                await asyncio.sleep(args.duration)
            else:
                await asyncio.Event().wait()
        except asyncio.CancelledError:
            pass
        finally:
            await server.close()
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from repro.protocols.live_deploy import LoadGenerator, write_bench_report

    config = _load_deployment_config(args)

    async def run() -> int:
        gen = LoadGenerator(
            config,
            connect=args.connect,
            node_id=args.node_id,
            directory_node_id=args.directory_node_id,
            collector=args.collector,
        )
        await gen.start()
        try:
            summary = await gen.run(
                services=args.services,
                queries=args.queries,
                query_services=args.query_services,
            )
        finally:
            await gen.close()
        print(
            f"loadgen: {summary['answered']}/{summary['queries']} answered, "
            f"{summary['qps']:.1f} qps, "
            f"p50 {summary['latency_p50_ms'] or float('nan'):.2f} ms, "
            f"p99 {summary['latency_p99_ms'] or float('nan'):.2f} ms "
            f"(outcomes: {summary['outcomes']})"
        )
        if args.out is not None:
            write_bench_report(summary, config, args.out)
            print(f"loadgen: wrote {args.out}")
        # A publish-only loadgen (zero queries attempted) succeeded if it
        # got this far; a querying one must have at least one answer.
        return 0 if summary["answered"] > 0 or summary["queries"] == 0 else 1

    try:
        return asyncio.run(run())
    except TimeoutError as exc:
        print(f"loadgen: {exc}", file=sys.stderr)
        return 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    names = sorted(EXPERIMENTS) if args.name == "all" else [args.name]
    for name in names:
        try:
            result = run_experiment(name)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        print(f"===== {name} =====")
        print(result.render())
        print()
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    workload = ServiceWorkload(WorkloadShape(ontology_count=args.ontologies), seed=args.seed)
    table = CodeTable(OntologyRegistry(workload.ontologies))
    for onto in workload.ontologies:
        name = onto.uri.rsplit("/", 1)[-1]
        (outdir / f"ontology_{name}.xml").write_text(ontology_to_xml(onto))
    for index in range(args.services):
        profile = workload.make_service(index)
        document = profile_to_xml(
            profile,
            annotations=table.annotate(profile.provided),
            codes_version=table.version,
        )
        (outdir / f"service_{index:03d}.xml").write_text(document)
        request = workload.matching_request(profile)
        request_doc = request_to_xml(
            request,
            annotations=table.annotate(request.capabilities),
            codes_version=table.version,
        )
        (outdir / f"request_{index:03d}.xml").write_text(request_doc)
        if args.wsdl:
            (outdir / f"service_{index:03d}.wsdl.xml").write_text(
                wsdl_to_xml(ServiceWorkload.wsdl_twin(profile))
            )
    print(
        f"wrote {args.services} services (+requests), {len(workload.ontologies)} ontologies"
        f" to {outdir} (code version {table.version})"
    )
    return 0


def _cmd_capacity(args: argparse.Namespace) -> int:
    first = first_level_capacity(args.p, args.k)
    depth = nesting_capacity(args.p, args.k)
    print(f"p={args.p} k={args.k} (float64):")
    print(f"  first-level entries: {first}")
    print(f"  nesting levels     : {depth}")
    print("  paper's layout reported 1071 / 462 for p=2, k=5")
    return 0


def _cmd_match(args: argparse.Namespace) -> int:
    ontologies = []
    for path in sorted(pathlib.Path(args.ontologies).glob("ontology_*.xml")):
        ontologies.append(ontology_from_xml(path.read_text()))
    if not ontologies:
        print(f"no ontology_*.xml files under {args.ontologies}", file=sys.stderr)
        return 2
    taxonomy = Reasoner().load(ontologies).classify()
    matcher = TaxonomyMatcher(taxonomy)
    profile, _ = profile_from_xml(pathlib.Path(args.profile).read_text())
    request, _ = request_from_xml(pathlib.Path(args.request).read_text())
    exit_code = 1
    for requested in request.capabilities:
        for provided in profile.provided:
            outcome = matcher.match_outcome(provided, requested)
            verdict = (
                f"distance={outcome.distance}" if outcome.matched else "NO MATCH"
            )
            print(f"Match({provided.name}, {requested.name}): {verdict}")
            if outcome.matched:
                exit_code = 0
                for kind, over, under, d in outcome.pairings:
                    print(f"  {kind:<9} {over} ⊒ {under} (d={d})")
    return exit_code


def _cmd_validate(args: argparse.Namespace) -> int:
    """Validate a workload directory: parsable documents, known concepts,
    consistent code versions."""
    from repro.ontology.model import OntologyError
    from repro.services.xml_codec import ServiceSyntaxError

    root = pathlib.Path(args.workload_dir)
    problems: list[str] = []
    ontologies = []
    for path in sorted(root.glob("ontology_*.xml")):
        try:
            ontologies.append(ontology_from_xml(path.read_text()))
        except (OntologyError, ValueError) as exc:
            problems.append(f"{path.name}: {exc}")
    if not ontologies:
        print(f"no ontology_*.xml files under {root}", file=sys.stderr)
        return 2
    registry = OntologyRegistry(ontologies)
    table = CodeTable(registry)
    known = {c for onto in ontologies for c in onto.concepts}

    def check_capabilities(path: pathlib.Path, capabilities, version) -> None:
        for capability in capabilities:
            for concept in sorted(capability.concepts()):
                if concept not in known:
                    problems.append(f"{path.name}: unknown concept {concept}")
        if version is not None and version != table.version:
            problems.append(
                f"{path.name}: stale codes (version {version}, registry at {table.version})"
            )

    service_count = request_count = 0
    for path in sorted(root.glob("service_*.xml")):
        if path.name.endswith(".wsdl.xml"):
            continue
        try:
            profile, annotations = profile_from_xml(path.read_text())
        except ServiceSyntaxError as exc:
            problems.append(f"{path.name}: {exc}")
            continue
        service_count += 1
        check_capabilities(path, (*profile.provided, *profile.required), annotations.version)
    for path in sorted(root.glob("request_*.xml")):
        try:
            request, annotations = request_from_xml(path.read_text())
        except ServiceSyntaxError as exc:
            problems.append(f"{path.name}: {exc}")
            continue
        request_count += 1
        check_capabilities(path, request.capabilities, annotations.version)

    print(
        f"checked {len(ontologies)} ontologies, {service_count} services,"
        f" {request_count} requests (code version {table.version})"
    )
    if problems:
        for problem in problems:
            print(f"  PROBLEM {problem}")
        print(f"{len(problems)} problem(s) found")
        return 1
    print("no problems found")
    return 0


def _cmd_trace_report(args: argparse.Namespace) -> int:
    from repro.obs.report import load_trace, render_trace_report

    path = pathlib.Path(args.trace_file)
    if not path.exists():
        print(f"no such trace file: {path}", file=sys.stderr)
        return 2
    spans, metrics = load_trace(path)
    if not spans and not metrics:
        print(f"{path} contains no spans or metrics", file=sys.stderr)
        return 1
    print(render_trace_report(spans, metrics))
    return 0


def _cmd_obs_timeline(args: argparse.Namespace) -> int:
    from repro.obs.report import load_run, render_timeline

    path = pathlib.Path(args.run_file)
    if not path.exists():
        print(f"no such run file: {path}", file=sys.stderr)
        return 2
    run = load_run(path)
    if not any(run[key] for key in ("events", "timeseries", "spans", "metrics")):
        print(f"{path} contains no telemetry records", file=sys.stderr)
        return 1
    print(render_timeline(run))
    if args.csv:
        from repro.obs.export import timeseries_to_csv

        pathlib.Path(args.csv).write_text(timeseries_to_csv(run["timeseries"]))
        print(f"wrote time-series CSV to {args.csv}")
    if args.openmetrics:
        from repro.obs.export import to_openmetrics

        pathlib.Path(args.openmetrics).write_text(to_openmetrics(run["metrics"]))
        print(f"wrote OpenMetrics exposition to {args.openmetrics}")
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    from repro.obs.export import diff_runs, load_bench_dir, load_bench_file

    def load(path_str: str) -> dict:
        path = pathlib.Path(path_str)
        if path.is_dir():
            return load_bench_dir(path)
        if not path.is_file():
            return {}
        name, metrics = load_bench_file(path)
        return {name: metrics}

    baseline, candidate = load(args.baseline), load(args.candidate)
    if not baseline or not candidate:
        empty = args.baseline if not baseline else args.candidate
        print(f"no BENCH_*.json results under {empty}", file=sys.stderr)
        return 2
    rows = diff_runs(baseline, candidate, threshold=args.threshold)
    width = max(len(f"{row['benchmark']}/{row['metric']}") for row in rows)
    flagged = 0
    for row in rows:
        label = f"{row['benchmark']}/{row['metric']}"
        before = "-" if row["baseline"] is None else f"{row['baseline']:.6g}"
        after = "-" if row["candidate"] is None else f"{row['candidate']:.6g}"
        if row["change"] is None:
            change = "     n/a"
        else:
            change = f"{row['change']:+8.1%}"
        mark = ""
        if row["flag"]:
            flagged += 1
            mark = "  <<<"
        print(f"  {label:<{width}}  {before:>12} -> {after:>12}  {change}{mark}")
    print(
        f"\n{len(rows)} metric(s) compared, {flagged} beyond the "
        f"{args.threshold:.0%} threshold"
    )
    return 0


def _cmd_obs_regress(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs.export import check_regressions, load_bench_dir

    baseline = load_bench_dir(args.baseline)
    candidate = load_bench_dir(args.candidate)
    if not baseline:
        print(f"no baseline BENCH_*.json results under {args.baseline}", file=sys.stderr)
        return 2
    if not candidate:
        print(f"no candidate BENCH_*.json results under {args.candidate}", file=sys.stderr)
        return 2
    config = {}
    config_path = pathlib.Path(args.config)
    if config_path.exists():
        config = _json.loads(config_path.read_text())
    findings = check_regressions(baseline, candidate, config)
    regressed = [f for f in findings if f["status"] == "regressed"]
    compared = [f for f in findings if f["status"] in ("ok", "regressed")]
    skipped = [f for f in findings if f["status"] == "skipped"]
    for finding in regressed:
        print(
            f"  REGRESSED {finding['benchmark']}/{finding['metric']}: "
            f"{finding['candidate']:.6g} vs baseline {finding['baseline']:.6g} "
            f"(limit {finding['limit']:.6g}, tolerance {finding['tolerance']:.0%}, "
            f"{finding['direction']} is better)"
        )
    if args.verbose:
        for finding in skipped:
            print(
                f"  skipped {finding['benchmark']}/{finding['metric']}: {finding['reason']}"
            )
    print(
        f"{len(compared)} metric(s) gated, {len(regressed)} regressed, "
        f"{len(skipped)} skipped"
    )
    if regressed:
        return 1
    if not compared:
        print("nothing was gated: no benchmark present in both sets", file=sys.stderr)
        return 2
    return 0


def _cmd_obs_collect(args: argparse.Namespace) -> int:
    import asyncio

    from repro.obs.collector import TelemetryCollector

    async def run() -> int:
        collector = TelemetryCollector(args.listen, out=args.out)
        await collector.start()
        print(
            f"collector: listening on {args.listen}"
            + (f", appending to {args.out}" if args.out else ""),
            flush=True,
        )
        try:
            if args.duration is not None:
                await asyncio.sleep(args.duration)
            else:
                await asyncio.Event().wait()
        except asyncio.CancelledError:
            pass
        finally:
            await collector.close()
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


def _cmd_obs_top(args: argparse.Namespace) -> int:
    import asyncio

    from repro.obs.collector import query_collector, render_top

    async def run() -> int:
        while True:
            snapshot = await query_collector(args.collector, "top")
            print(render_top(snapshot), flush=True)
            if args.once:
                return 0
            print()
            await asyncio.sleep(args.interval)

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0
    except ConnectionError as exc:
        print(f"obs top: {exc}", file=sys.stderr)
        return 1


def _cmd_obs_trace(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.obs.collector import query_collector, render_stitched

    async def run() -> int:
        stitched = await query_collector(args.collector, "trace", args.trace_id)
        if stitched is None:
            known = await query_collector(args.collector, "traces")
            print(f"obs trace: no trace {args.trace_id!r}", file=sys.stderr)
            if known:
                print(f"known trace ids: {', '.join(known[-10:])}", file=sys.stderr)
            return 1
        print(render_stitched(stitched))
        if args.out is not None:
            pathlib.Path(args.out).write_text(json.dumps(stitched, indent=2) + "\n")
            print(f"wrote stitched trace to {args.out}")
        if args.min_processes and len(stitched["processes"]) < args.min_processes:
            print(
                f"obs trace: trace spans {len(stitched['processes'])} process(es), "
                f"required {args.min_processes}",
                file=sys.stderr,
            )
            return 1
        return 0

    try:
        return asyncio.run(run())
    except ConnectionError as exc:
        print(f"obs trace: {exc}", file=sys.stderr)
        return 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.experiments import CHAOS_PLANS, chaos_recovery

    plans = list(CHAOS_PLANS) if args.plan == "all" else [args.plan]
    failed = 0
    for plan_name in plans:
        obs = None
        sink = None
        if args.obs:
            from repro.obs import Observability
            from repro.obs.sinks import JsonlSink

            out = pathlib.Path(args.obs)
            if len(plans) > 1:
                out = out.with_name(f"{out.stem}_{plan_name}{out.suffix}")
            sink = JsonlSink(out)
            obs = Observability(sinks=[sink])
        result = chaos_recovery(plan_name, seed=args.seed, obs=obs)
        if obs is not None:
            obs.close()
            print(f"wrote chaos telemetry to {sink.path}")
        print(f"===== chaos: {plan_name} =====")
        print(result.render())
        print()
        if not result.extras.get("recovered"):
            failed += 1
            print(f"NOT RECOVERED: {plan_name}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.core.directory import SemanticDirectory

    root = pathlib.Path(args.workload_dir)
    ontologies = [
        ontology_from_xml(path.read_text()) for path in sorted(root.glob("ontology_*.xml"))
    ]
    if not ontologies:
        print(f"no ontology_*.xml files under {root}", file=sys.stderr)
        return 2
    registry = OntologyRegistry(ontologies)
    directory = SemanticDirectory(CodeTable(registry))
    count = 0
    for path in sorted(root.glob("service_*.xml")):
        if path.name.endswith(".wsdl.xml"):
            continue
        directory.publish_xml(path.read_text())
        count += 1
    print(f"loaded {count} service(s) from {root}\n")
    print(directory.describe_graphs())
    return 0


def _load_workload_documents(root: pathlib.Path) -> tuple[CodeTable | None, list[str]]:
    """Code table + advertisement documents of a ``workload`` output dir."""
    ontologies = [
        ontology_from_xml(path.read_text()) for path in sorted(root.glob("ontology_*.xml"))
    ]
    if not ontologies:
        return None, []
    documents = [
        path.read_text()
        for path in sorted(root.glob("service_*.xml"))
        if not path.name.endswith(".wsdl.xml")
    ]
    return CodeTable(OntologyRegistry(ontologies)), documents


def _cmd_dir_stats(args: argparse.Namespace) -> int:
    from repro.core.directory import SemanticDirectory

    root = pathlib.Path(args.workload_dir)
    table, documents = _load_workload_documents(root)
    if table is None:
        print(f"no ontology_*.xml files under {root}", file=sys.stderr)
        return 2
    directory = SemanticDirectory(table)
    directory.publish_xml_batch(documents)
    print(
        f"{len(documents)} service(s), {directory.capability_count} capabilities "
        f"from {root}"
    )
    print(repr(directory))
    if args.describe:
        print()
        print(directory.describe_graphs())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-discovery",
        description="S-Ariadne reproduction: experiments, workloads, matching.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    experiment = subparsers.add_parser(
        "experiment", help="run a paper experiment and print its series"
    )
    experiment.add_argument(
        "name", choices=[*sorted(EXPERIMENTS), "all"], help="experiment id"
    )
    experiment.set_defaults(func=_cmd_experiment)

    workload = subparsers.add_parser(
        "workload", help="generate an XML workload (ontologies, services, requests)"
    )
    workload.add_argument("--services", type=int, default=10)
    workload.add_argument("--ontologies", type=int, default=22)
    workload.add_argument("--seed", type=int, default=0)
    workload.add_argument("--outdir", required=True)
    workload.add_argument("--wsdl", action="store_true", help="also write WSDL twins")
    workload.set_defaults(func=_cmd_workload)

    capacity = subparsers.add_parser(
        "capacity", help="measure §3.2 float64 encoding capacities"
    )
    capacity.add_argument("--p", type=int, default=2)
    capacity.add_argument("--k", type=int, default=5)
    capacity.set_defaults(func=_cmd_capacity)

    match = subparsers.add_parser(
        "match", help="match a service profile against a request (files)"
    )
    match.add_argument("profile")
    match.add_argument("request")
    match.add_argument("--ontologies", required=True, help="directory of ontology_*.xml")
    match.set_defaults(func=_cmd_match)

    from repro.experiments import CHAOS_PLANS

    chaos = subparsers.add_parser(
        "chaos",
        help="run a canned fault plan and report recovery (nonzero exit when not recovered)",
    )
    chaos.add_argument(
        "plan",
        choices=[*CHAOS_PLANS, "all"],
        help="canned fault plan (or 'all' for the full sweep)",
    )
    chaos.add_argument("--seed", type=int, default=0, help="deployment + fault seed")
    chaos.add_argument(
        "--obs",
        help="write the instrumented run (fault.* chronology included) to this JSONL"
        " file; feed it to `obs timeline`",
    )
    chaos.set_defaults(func=_cmd_chaos)

    inspect = subparsers.add_parser(
        "inspect",
        help="build a directory from a workload dir and print its capability graphs",
    )
    inspect.add_argument("workload_dir", help="output of the 'workload' command")
    inspect.set_defaults(func=_cmd_inspect)

    dir_cmd = subparsers.add_parser("dir", help="directory content tools")
    dir_sub = dir_cmd.add_subparsers(dest="dir_command", required=True)
    dir_stats = dir_sub.add_parser(
        "stats",
        help="publish a workload dir into a directory and report capability counts",
    )
    dir_stats.add_argument("workload_dir", help="output of the 'workload' command")
    dir_stats.add_argument(
        "--describe",
        action="store_true",
        help="also dump the capability graphs",
    )
    dir_stats.set_defaults(func=_cmd_dir_stats)

    trace_report = subparsers.add_parser(
        "trace-report",
        help="render a JSONL trace (per-query hop timeline + node metrics)",
    )
    trace_report.add_argument("trace_file", help="JSONL file written by JsonlSink")
    trace_report.set_defaults(func=_cmd_trace_report)

    validate = subparsers.add_parser(
        "validate",
        help="check a workload dir: parsable XML, known concepts, fresh codes",
    )
    validate.add_argument("workload_dir", help="output of the 'workload' command")
    validate.set_defaults(func=_cmd_validate)

    obs = subparsers.add_parser(
        "obs", help="observatory tools: timelines, run diffs, regression gates"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    timeline = obs_sub.add_parser(
        "timeline",
        help="merged lifecycle events + windowed metric deltas from a JSONL run",
    )
    timeline.add_argument("run_file", help="JSONL file written by JsonlSink")
    timeline.add_argument("--csv", help="also write the time-series windows as CSV")
    timeline.add_argument(
        "--openmetrics", help="also write the final metrics in OpenMetrics text format"
    )
    timeline.set_defaults(func=_cmd_obs_timeline)

    diff = obs_sub.add_parser(
        "diff", help="compare two benchmark result sets side by side"
    )
    diff.add_argument("baseline", help="BENCH_*.json file or directory")
    diff.add_argument("candidate", help="BENCH_*.json file or directory")
    diff.add_argument(
        "--threshold",
        type=float,
        default=0.1,
        help="relative change beyond which a metric is highlighted (default 0.1)",
    )
    diff.set_defaults(func=_cmd_obs_diff)

    regress = obs_sub.add_parser(
        "regress",
        help="gate fresh bench JSONs against committed baselines (nonzero exit on regression)",
    )
    regress.add_argument(
        "--baseline", required=True, help="directory of committed baseline BENCH_*.json files"
    )
    regress.add_argument(
        "--candidate",
        default="benchmarks/results",
        help="directory of freshly produced BENCH_*.json files (default benchmarks/results)",
    )
    regress.add_argument(
        "--config",
        default="benchmarks/regress_tolerances.json",
        help="per-benchmark/per-metric tolerance config (JSON)",
    )
    regress.add_argument(
        "--verbose", action="store_true", help="also list skipped benchmarks/metrics"
    )
    regress.set_defaults(func=_cmd_obs_regress)

    collect = obs_sub.add_parser(
        "collect",
        help="run the telemetry collector serve/loadgen ship spans and metrics to",
    )
    collect.add_argument(
        "--listen", required=True, help="collector address: unix:<path> or tcp:<host>:<port>"
    )
    collect.add_argument(
        "--out", default=None, help="append every ingested record to this JSONL artifact"
    )
    collect.add_argument(
        "--duration", type=float, default=None, help="exit after N seconds (default: run until killed)"
    )
    collect.set_defaults(func=_cmd_obs_collect)

    top = obs_sub.add_parser(
        "top", help="live fleet view: per-node qps, latency quantiles, span backlog"
    )
    top.add_argument(
        "--collector", required=True, help="a running collector's address (unix:/tcp:)"
    )
    top.add_argument(
        "--interval", type=float, default=2.0, help="seconds between refreshes (default 2)"
    )
    top.add_argument(
        "--once", action="store_true", help="print one snapshot and exit"
    )
    top.set_defaults(func=_cmd_obs_top)

    trace = obs_sub.add_parser(
        "trace", help="render one stitched cross-process trace from the collector"
    )
    trace.add_argument(
        "trace_id", help="a trace id, or 'latest' / 'widest' (most processes)"
    )
    trace.add_argument(
        "--collector", required=True, help="a running collector's address (unix:/tcp:)"
    )
    trace.add_argument(
        "--min-processes",
        type=int,
        default=0,
        help="exit nonzero unless the trace spans at least N processes (CI assertion)",
    )
    trace.add_argument(
        "--out", default=None, help="also write the stitched trace as JSON here"
    )
    trace.set_defaults(func=_cmd_obs_trace)

    serve = subparsers.add_parser(
        "serve",
        help="host a live elected directory on a TCP/UDS address (docs/DEPLOYMENT.md)",
    )
    serve.add_argument(
        "--listen", required=True, help="protocol address: unix:<path> or tcp:<host>:<port>"
    )
    serve.add_argument(
        "--metrics", default=None, help="optional OpenMetrics HTTP address (unix:/tcp:)"
    )
    serve.add_argument(
        "--config", default=None, help="DeploymentConfig file (.toml/.json); seeds the shared catalog"
    )
    serve.add_argument("--node-id", type=int, default=0, help="this directory's node id")
    serve.add_argument(
        "--peer",
        action="append",
        default=None,
        metavar="ID=ADDR",
        help="dial another directory's fabric address (repeatable; backbone membership)",
    )
    serve.add_argument(
        "--collector", default=None, help="ship spans/events/metrics to this collector address"
    )
    serve.add_argument(
        "--assume-directory",
        action="store_true",
        help="promote immediately instead of waiting for the §4 election "
        "(required for every directory beyond the first)",
    )
    serve.add_argument(
        "--duration", type=float, default=None, help="exit after N seconds (default: run until killed)"
    )
    serve.add_argument(
        "--election-timeout",
        type=float,
        default=30.0,
        help="max seconds to wait for the §4 election to conclude",
    )
    serve.set_defaults(func=_cmd_serve)

    loadgen = subparsers.add_parser(
        "loadgen",
        help="drive closed-loop queries against a live directory (docs/DEPLOYMENT.md)",
    )
    loadgen.add_argument(
        "--connect", required=True, help="the directory's protocol address (unix:/tcp:)"
    )
    loadgen.add_argument(
        "--config", default=None, help="DeploymentConfig file — must match the server's seed"
    )
    loadgen.add_argument("--services", type=int, default=8, help="workload profiles to publish")
    loadgen.add_argument("--queries", type=int, default=50, help="closed-loop queries to issue")
    loadgen.add_argument(
        "--query-services",
        type=int,
        default=None,
        help="query the first N workload services instead of only what this "
        "process published (0 with --services publishes without querying)",
    )
    loadgen.add_argument(
        "--collector", default=None, help="ship spans/events/metrics to this collector address"
    )
    loadgen.add_argument("--node-id", type=int, default=1, help="this client's node id")
    loadgen.add_argument(
        "--directory-node-id", type=int, default=0, help="node id the server runs as"
    )
    loadgen.add_argument(
        "--out", default=None, help="write a BENCH_deployment_smoke.json summary here"
    )
    loadgen.set_defaults(func=_cmd_loadgen)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
