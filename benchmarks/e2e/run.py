"""Live discovery benchmark: real ``repro.cli serve`` processes, one client.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload hot_repeat --seed 7
    python3 benchmarks/e2e/run.py --workload broad_match --trace 1
    python3 benchmarks/e2e/run.py --workload cold_unique --repeat 5 --out results.json

Each run spawns the directory servers on unix sockets under
``.e2e_bench/`` in the working tree, publishes the mix's catalog, warms
up, then measures rounds of a latency window, a throughput window
(untraced runs only) and a re-publication burst for ``--seconds``.
Every answer is checked against an in-process reference directory; a
wrong answer makes the run exit 1.

The client, the servers and a fixed reference workload share one CPU.
The reference is timed between phases, and each timing is scaled to a
host on which it takes ``HOST_REF_MS``.  On a shared host whose speed
drifts from minute to minute this takes most of the drift out of the
numbers, while a change to the program's own cost shows in full.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": F,
     "metrics": {"query_p50_ms": {"value": 1.02, "unit": "ms"}, ...}}

Without ``--trace`` the metrics are the end-to-end ones; with it, the
per-layer ones (see README.md).  ``--repeat N`` reports medians over N
runs and writes their quartiles to ``--out``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import itertools
import json
import os
import pathlib
import selectors
import shutil
import statistics
import sys
from dataclasses import dataclass

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent

#: Closed-loop windows of a round: one query outstanding for latency,
#: ``OUTSTANDING`` for throughput.
LATENCY_WINDOW_S = 0.4
SATURATION_WINDOW_S = 0.3
OUTSTANDING = 8
#: Catalog services re-published at the end of each round.
REPUBLISH = 128
#: The catalog is published in chunks of this many services, each closed
#: by a barrier query.
CATALOG_CHUNK = 1024
#: Rounds run and discarded before measuring.
WARMUP_S = 1.0
#: Deployments timed for ``setup_s``, each stopped again; the run then
#: gets a fresh one.
SPAWNS = 3
#: Host reading the timings are scaled to: about the fastest readings of
#: ``load.ref_loop_ms`` on the 2-vCPU VM the benchmark was calibrated on.
HOST_REF_MS = 3.0
#: Node ids: queried directory A, backbone peer B, reader and writer.
A_ID, B_ID, READER_ID, WRITER_ID = 0, 2, 1, 3

E2E_UNITS = {
    "setup_s": "s",
    "publish_per_s": "1/s",
    "query_p50_ms": "ms",
    "max_qps": "1/s",
    "server_rss_mb": "MiB",
}


def _precise_loop() -> asyncio.AbstractEventLoop:
    """The client's event loop, on ``select`` rather than ``epoll``.

    ``epoll`` rounds every timeout up to a whole millisecond, which would
    stretch the client's waits; ``select`` takes microseconds, and the
    client watches only one or two sockets.
    """
    return asyncio.SelectorEventLoop(selectors.SelectSelector())


def _log(message: str) -> None:
    print(f"e2e: {message}", file=sys.stderr, flush=True)


class Host:
    """Host-speed readings between consecutive timed phases."""

    def __init__(self) -> None:
        from load import ref_loop_ms

        self._measure = ref_loop_ms
        self._last = ref_loop_ms()

    def reading(self) -> float:
        """The phase that just ended: mean loop time before and after it."""
        now = self._measure()
        mean = (self._last + now) / 2
        self._last = now
        return mean


def scaled(seconds: float, ref_ms: float) -> float:
    """A duration as it would read on a host whose loop takes
    ``HOST_REF_MS``."""
    return seconds * HOST_REF_MS / ref_ms


@dataclass
class Round:
    """One measured round: windows and re-publication rate, each with the
    host reading taken around it."""

    latency: object
    latency_ref: float
    saturation: object | None
    saturation_ref: float | None
    publish_per_s: float
    publish_ref: float


async def _deploy(fleet, mix, traced: bool, recorder):
    """Spawn the mix's servers and connect the client(s); returns
    ``(servers, connections)``."""
    from load import Connection

    first = await fleet.spawn("A", A_ID, traced=traced)
    servers = [first]
    connections = [Connection(mix.config, first.address, READER_ID, A_ID, recorder)]
    if mix.backbone:
        second = await fleet.spawn("B", B_ID, peers={A_ID: first.address}, traced=traced)
        servers.append(second)
        connections.append(Connection(mix.config, second.address, WRITER_ID, B_ID, recorder))
    for connection in connections:
        await connection.start()
    return servers, connections


async def _up(fleet, mix, traced: bool, recorder):
    """Deploy and wait until every connection hears its directory's first
    advert; returns ``(servers, connections, seconds taken)``."""
    loop = asyncio.get_running_loop()
    started = loop.time()
    servers, connections = await _deploy(fleet, mix, traced, recorder)
    heard = await asyncio.wait_for(asyncio.gather(*(c.observer.advert for c in connections)), 60.0)
    return servers, connections, max(heard) - started


async def _down(fleet, connections) -> None:
    """Disconnect the client and stop every server."""
    for connection in connections:
        await connection.close()
    await fleet.close()


async def _await_forwarding(reader, mix, deadline_s: float = 15.0) -> None:
    """Wait until A forwards to B: B's summary push is debounced, so A
    answers empty until the post-catalog summary arrives."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + deadline_s
    while True:
        payload = await reader.ask(mix.requests[0])
        if not payload.partial and mix.check(0, payload.results):
            return
        if loop.time() > deadline:
            raise RuntimeError("directory A never forwarded to B")
        await asyncio.sleep(0.05)


async def _rounds(seconds, reader, publisher, mix, sequence, slices, writes, saturate) -> list[Round]:
    """Run rounds until ``seconds`` have passed.

    A round is a latency window, a throughput window when ``saturate``,
    and a burst re-publishing the next slice of the catalog.  A
    re-publication replaces an advertisement the directory already
    holds (a soft-state refresh), so the catalog, and every expected
    answer, stays the same.
    """
    from load import closed_loop, publish_burst

    loop = asyncio.get_running_loop()
    end = loop.time() + seconds
    rounds = []
    host = Host()
    while loop.time() < end:
        latency = await closed_loop(reader, mix, sequence, LATENCY_WINDOW_S, 1, writes)
        latency_ref = host.reading()
        saturation = saturation_ref = None
        if saturate:
            saturation = await closed_loop(
                reader, mix, sequence, SATURATION_WINDOW_S, OUTSTANDING, writes
            )
            saturation_ref = host.reading()
        rate = await publish_burst(publisher, next(slices), mix.requests[0])
        rounds.append(Round(latency, latency_ref, saturation, saturation_ref, rate, host.reading()))
    return rounds


async def _pass(
    mix, seconds: float, traced: bool, saturate: bool, spawns: int, rundir: pathlib.Path
) -> dict:
    """Time ``spawns`` throw-away deployments, then deploy, publish, warm
    up and measure once.

    Each timed deployment is stopped before the host reading that closes
    it: a server still busy starting up would share the CPU with the
    reading and skew it.
    """
    from fleet import Fleet
    from layers import SpanRecorder, install
    from load import Tally, Writes, publish_burst
    from mixes import CHURN_QUERIES_PER_WRITE, ChurnWriter

    rundir.mkdir(parents=True, exist_ok=True)
    config_path = rundir / "deployment.json"
    config_path.write_text(json.dumps(mix.config.to_dict(), indent=2) + "\n")
    recorder = SpanRecorder("client") if traced else None
    restore = install(recorder, directory=False) if traced else None
    with open(rundir / "servers.log", "ab") as log:
        fleet = Fleet(ROOT, rundir, config_path, log)
        connections = []
        try:
            setups, setup_refs = [], []
            host = Host()
            for _ in range(spawns):
                _servers, connections, elapsed = await _up(fleet, mix, traced, recorder)
                await _down(fleet, connections)
                connections = []
                setups.append(elapsed)
                setup_refs.append(host.reading())
            servers, connections, _elapsed = await _up(fleet, mix, traced, recorder)
            reader = connections[0]
            writer = connections[1] if mix.backbone else None
            publisher = writer or reader
            for first in range(0, len(mix.catalog), CATALOG_CHUNK):
                chunk = mix.catalog[first : first + CATALOG_CHUNK]
                await publish_burst(publisher, chunk, mix.requests[0])
            if writer is not None:
                await _await_forwarding(reader, mix)
            writes = Writes(ChurnWriter(mix.churn), writer, CHURN_QUERIES_PER_WRITE)
            sequence = mix.sequence()
            slices = itertools.cycle(
                [mix.catalog[first : first + REPUBLISH] for first in range(0, len(mix.catalog), REPUBLISH)]
            )
            args = (reader, publisher, mix, sequence, slices, writes, saturate)
            warm = await _rounds(min(WARMUP_S, seconds / 10), *args)
            rounds = await _rounds(seconds, *args)
            rss = max(server.peak_rss_mib() for server in servers)
            excluded = set(writer.query_ids) if writer is not None else set()
        finally:
            await _down(fleet, connections)
            if restore is not None:
                restore()
    tally = Tally()
    for measured in rounds:
        tally.add(measured.latency.tally)
        if measured.saturation is not None:
            tally.add(measured.saturation.tally)
    return {
        "setups": setups,
        "setup_refs": setup_refs,
        "warm": warm,
        "rounds": rounds,
        "rss": rss,
        "tally": tally,
        "writes_failed": writes.failed,
        "excluded": excluded,
        "recorder": recorder,
        "span_files": [server.spans for server in servers] if traced else [],
    }


def _query_p50_ms(rounds: list[Round], scale: bool = True) -> float:
    """Median latency of every latency-window query, each scaled by its
    window's host reading unless ``scale`` is false."""
    latencies = [
        scaled(value, r.latency_ref) if scale else value
        for r in rounds
        for value in r.latency.latencies
    ]
    if not latencies:
        raise RuntimeError("no query was answered")
    return statistics.median(latencies) * 1e3


def _details(result: dict) -> dict:
    from layers import quantile

    tally = result["tally"]
    rounds = result["rounds"]
    latencies = [value for r in rounds for value in r.latency.latencies]

    def ms(values, q):
        return quantile(values, q) * 1e3 if values else None

    return {
        "fail_frac": tally.failed / max(tally.attempted, 1),
        "outcomes": {
            name: getattr(tally, name)
            for name in ("attempted", "answered", "send_failed", "timed_out", "partial", "mismatched")
        },
        "setups_s": result["setups"],
        "setup_refs_ms": result["setup_refs"],
        "latency_queries": len(latencies),
        "latency_p50_ms": ms(latencies, 0.5),
        "latency_p90_ms": ms(latencies, 0.9),
        "latency_p99_ms": ms(latencies, 0.99),
        "rounds": [
            {
                "queries": len(r.latency.latencies),
                "p50_ms": ms(r.latency.latencies, 0.5),
                "p90_ms": ms(r.latency.latencies, 0.9),
                "latency_ref_ms": r.latency_ref,
                "saturation_qps": r.saturation.rate if r.saturation is not None else None,
                "saturation_ref_ms": r.saturation_ref,
                "publish_per_s": r.publish_per_s,
                "publish_ref_ms": r.publish_ref,
            }
            for r in rounds
        ],
        "churn_writes_failed": result["writes_failed"],
    }


async def measure(mix, seconds: float, trace: bool, rundir: pathlib.Path) -> dict:
    """One benchmark run of ``mix``; returns metrics, tally and details."""
    from layers import layer_metrics, load_spans, with_self_times

    if not trace:
        result = await _pass(mix, seconds, False, True, SPAWNS, rundir)
        rounds = result["rounds"]
        metrics = {
            "setup_s": statistics.median(map(scaled, result["setups"], result["setup_refs"])),
            "publish_per_s": statistics.median(
                r.publish_per_s / scaled(1.0, r.publish_ref) for r in rounds
            ),
            "query_p50_ms": _query_p50_ms(rounds),
            "max_qps": statistics.median(
                r.saturation.rate / scaled(1.0, r.saturation_ref) for r in rounds
            ),
            "server_rss_mb": result["rss"],
        }
        return {"metrics": metrics, "tally": result["tally"], "details": _details(result)}

    # Per-layer run: an untraced pass gives the reference p50 for the
    # tracing overhead, then the same rounds run on traced servers, each
    # for half of ``seconds``.  Neither reports set-up time or throughput,
    # so each deploys once and runs latency windows and re-publication
    # bursts only.
    untraced = await _pass(mix, seconds / 2, False, False, 0, rundir)
    traced = await _pass(mix, seconds / 2, True, False, 0, rundir)
    processes = [
        (with_self_times(traced["recorder"].spans), []),
        *((with_self_times(spans), lags) for spans, lags in map(load_spans, traced["span_files"])),
    ]
    excluded = traced["excluded"]
    warm_ids = {qid for r in traced["warm"] for qid in r.latency.tally.query_ids}
    measured = {qid for r in traced["rounds"] for qid in r.latency.tally.query_ids} - excluded
    windows = [(r.latency.started, r.latency.started + r.latency.elapsed) for r in traced["rounds"]]
    metrics, table = layer_metrics(processes, (warm_ids | measured) - excluded, measured, windows)
    reference = _query_p50_ms(untraced["rounds"])
    traced_p50 = _query_p50_ms(traced["rounds"])
    metrics["host.ref_loop_ms"] = statistics.median(r.latency_ref for r in traced["rounds"])
    metrics["trace.overhead_share"] = (traced_p50 - reference) / reference
    tally = untraced["tally"]
    tally.add(traced["tally"])
    table = [
        f"{mix.name}: traced query_p50_ms {traced_p50:.3f} (untraced {reference:.3f}); "
        f"unscaled {_query_p50_ms(traced['rounds'], scale=False):.3f}; "
        f"{len(measured)} measured queries",
        *table,
    ]
    details = {"traced": _details(traced), "untraced": _details(untraced), "budget": table}
    return {"metrics": metrics, "tally": tally, "details": details}


def _summary(runs: list[dict], units) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name] for run in runs]
        q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        summary[name] = {
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "unit": units[name],
        }
    return summary


def _merge_out(path: pathlib.Path, workload: str, record: dict) -> None:
    data = json.loads(path.read_text()) if path.is_file() else {"workloads": {}}
    data["workloads"][workload] = record
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=16.0, help="measured time per run")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1 (or bare --trace): report per-layer metrics from traced servers",
    )
    parser.add_argument("--repeat", type=int, default=1, help="runs to take medians over")
    parser.add_argument("--out", type=pathlib.Path, help="merge per-run results into this JSON file")
    parser.add_argument("--catalog", type=int, help="catalog size override (small self-test runs)")
    parser.add_argument("--cpu", type=int, help="CPU to run on (default: the highest one allowed)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"e2e: no repro sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    # This file's sibling modules import ``repro``, so every function here
    # imports them only once the sources are known to be there.
    from layers import LAYER_UNITS
    from mixes import WORKLOADS, build_mix

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.repeat < 1 or args.seconds <= 0:
        parser.error("--repeat and --seconds must be positive")

    allowed = os.sched_getaffinity(0)
    if args.cpu is not None and args.cpu not in allowed:
        parser.error(f"--cpu must be one of {sorted(allowed)}")

    if args.out is not None:
        args.out = args.out.resolve()
    # Relative paths keep the unix socket names short wherever the
    # checkout lives.
    os.chdir(ROOT)
    rundir = pathlib.Path(".e2e_bench") / str(os.getpid())
    units = LAYER_UNITS if args.trace else E2E_UNITS
    mix = build_mix(args.workload, args.seed, args.catalog)
    # The mix and oracle live for the whole process: keep them out of the
    # collector's scans, which would otherwise stall the client mid-window.
    gc.collect()
    gc.freeze()
    # One CPU runs the client, the servers (they inherit the affinity) and
    # the host-speed loop, so the loop reads the speed the measured work
    # got, and no query waits for an idle CPU to wake.
    os.sched_setaffinity(0, {max(allowed) if args.cpu is None else args.cpu})
    runs, correct, attempted, failed = [], True, 0, 0
    try:
        for number in range(args.repeat):
            _log(f"{args.workload} seed {args.seed} run {number + 1}/{args.repeat}")
            with asyncio.Runner(loop_factory=_precise_loop) as runner:
                run = runner.run(
                    measure(mix, args.seconds, bool(args.trace), rundir / str(number))
                )
            tally = run["tally"]
            correct = correct and tally.mismatched == 0
            attempted += tally.attempted
            failed += tally.failed
            runs.append({"metrics": run["metrics"], "details": run["details"]})
            for line in run["details"].get("budget", []):
                _log(line)
    finally:
        os.sched_setaffinity(0, allowed)
        gc.unfreeze()
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            rundir.parent.rmdir()
        except OSError:
            pass
    summary = _summary(runs, units)
    if args.out is not None:
        _merge_out(
            args.out,
            args.workload,
            {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
             "runs": runs, "summary": summary},
        )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": entry["median"], "unit": entry["unit"]}
            for name, entry in summary.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
