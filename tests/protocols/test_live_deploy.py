"""In-process serve + loadgen: the tier-1 twin of the CI smoke job.

Runs a :class:`DirectoryServer` and a :class:`LoadGenerator` in one
event loop over a unix socket — real election, real wire frames, real
latency histograms — and checks the whole closed loop: election →
advert discovery → publish → answered queries → metrics scrape → BENCH
report.
"""

from __future__ import annotations

import asyncio
import json
import os

import pytest

from repro.core.directory import SemanticDirectory
from repro.network import live
from repro.network.election import ElectionConfig
from repro.obs import TraceContext
from repro.protocols.base import QueryOutcome
from repro.protocols.deployment import DeploymentConfig
from repro.protocols.live_deploy import (
    SERVE_NODE_ID,
    DirectoryServer,
    LoadGenerator,
    annotated_profile_doc,
    annotated_request_doc,
    build_catalog,
    write_bench_report,
)


def fast_config(**overrides) -> DeploymentConfig:
    return DeploymentConfig(
        node_count=2,
        protocol="sariadne",
        seed=7,
        election=ElectionConfig(
            advert_interval=0.2,
            directory_timeout=0.15,
            check_interval=0.05,
            reply_window=0.05,
        ),
        **overrides,
    )


def test_build_catalog_is_seed_deterministic():
    """Server and client must derive interchangeable codes from the seed."""
    config = fast_config()
    workload_a, table_a = build_catalog(config)
    workload_b, table_b = build_catalog(config)
    assert table_a.version == table_b.version
    profile_a, doc_a = annotated_profile_doc(workload_a, table_a, 0)
    profile_b, doc_b = annotated_profile_doc(workload_b, table_b, 0)
    assert profile_a.uri == profile_b.uri
    assert doc_a == doc_b
    assert annotated_request_doc(workload_a, table_a, 2) == annotated_request_doc(
        workload_b, table_b, 2
    )


def test_serve_loadgen_closed_loop(tmp_path):
    """Election, publish, queries, scrape, and the BENCH report."""
    config = fast_config(directory_shards=2)  # retired key: accepted, ignored
    address = f"unix:{os.path.join(str(tmp_path), 'serve.sock')}"
    metrics = f"unix:{os.path.join(str(tmp_path), 'metrics.sock')}"

    async def scenario():
        server = DirectoryServer(config, listen=address, metrics_listen=metrics)
        await server.start()
        await server.wait_elected(timeout=10.0)
        assert server.election.is_directory
        assert server.directory is not None
        assert type(server.directory.directory) is SemanticDirectory

        loadgen = LoadGenerator(config, connect=address)
        await loadgen.start()
        summary = await loadgen.run(services=3, queries=6, settle=0.2)

        # Scrape the live metrics endpoint like CI's curl would.
        reader, writer = await asyncio.open_unix_connection(
            os.path.join(str(tmp_path), "metrics.sock")
        )
        writer.write(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        await writer.drain()
        scrape = await reader.read()
        writer.close()

        await loadgen.close()
        await server.close()
        return summary, scrape.decode("utf-8")

    summary, scrape = asyncio.run(scenario())
    assert summary["directory"] == 0
    assert summary["published"] == 3
    assert summary["answered"] == 6
    assert summary["outcomes"] == {"answered": 6}
    assert summary["qps"] > 0
    assert summary["latency_p50_ms"] is not None
    assert summary["latency_p99_ms"] >= summary["latency_p50_ms"]

    assert scrape.startswith("HTTP/1.1 200 OK")
    body = scrape.split("\r\n\r\n", 1)[1]
    assert "# EOF" in body
    assert "dir_publishes_total" in body

    out = tmp_path / "BENCH_deployment_smoke.json"
    write_bench_report(summary, config, out)
    report = json.loads(out.read_text())
    assert report["benchmark"] == "deployment_smoke"
    names = {metric["name"] for metric in report["metrics"]}
    assert {"qps", "answered", "latency_p50_ms", "latency_p99_ms"} <= names
    assert report["config"]["seed"] == config.seed
    assert report["config"]["queries"] == 6
    assert "manifest" in report


async def _scrape(path: str) -> str:
    reader, writer = await asyncio.open_unix_connection(path)
    writer.write(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
    await writer.drain()
    raw = await reader.read()
    writer.close()
    return raw.decode("utf-8")


class TestMetricsListener:
    def test_concurrent_scrapes_all_answered(self, tmp_path):
        config = fast_config()
        address = f"unix:{os.path.join(str(tmp_path), 'serve.sock')}"
        metrics_path = os.path.join(str(tmp_path), "metrics.sock")

        async def scenario():
            server = DirectoryServer(
                config,
                listen=address,
                metrics_listen=f"unix:{metrics_path}",
                force_directory=True,
            )
            await server.start()
            try:
                return await asyncio.gather(*(_scrape(metrics_path) for _ in range(8)))
            finally:
                await server.close()

        scrapes = asyncio.run(scenario())
        assert len(scrapes) == 8
        for scrape in scrapes:
            assert scrape.startswith("HTTP/1.1 200 OK")
            assert scrape.rstrip().endswith("# EOF")

    def test_bind_failure_surfaces_not_hangs(self, tmp_path):
        """A metrics address that is already taken: start() raises instead
        of serving nothing.  TCP, because asyncio replaces existing unix
        socket paths rather than failing the bind."""
        config = fast_config()

        async def scenario():
            squatter = await asyncio.start_server(
                lambda r, w: None, host="127.0.0.1", port=0
            )
            port = squatter.sockets[0].getsockname()[1]
            server = DirectoryServer(
                config,
                listen=f"unix:{os.path.join(str(tmp_path), 'serve.sock')}",
                metrics_listen=f"tcp:127.0.0.1:{port}",
            )
            try:
                with pytest.raises(OSError):
                    await server.start()
            finally:
                await server.close()
                squatter.close()
                await squatter.wait_closed()

        asyncio.run(scenario())

    def test_scrape_after_shutdown_is_refused(self, tmp_path):
        """Once close() returns, the listener is gone — a scrape fails
        fast instead of hanging on a half-torn-down server."""
        config = fast_config()
        address = f"unix:{os.path.join(str(tmp_path), 'serve.sock')}"
        metrics_path = os.path.join(str(tmp_path), "metrics.sock")

        async def scenario():
            server = DirectoryServer(
                config, listen=address, metrics_listen=f"unix:{metrics_path}"
            )
            await server.start()
            assert (await _scrape(metrics_path)).startswith("HTTP/1.1 200 OK")
            await server.close()
            with pytest.raises((ConnectionError, FileNotFoundError, OSError)):
                await _scrape(metrics_path)

        asyncio.run(scenario())


def test_loadgen_times_out_without_server(tmp_path):
    config = fast_config()
    nowhere = f"unix:{os.path.join(str(tmp_path), 'absent.sock')}"

    async def scenario():
        loadgen = LoadGenerator(config, connect=nowhere)
        await loadgen.start()
        with pytest.raises(TimeoutError):
            await loadgen.wait_directory(timeout=0.4)
        await loadgen.close()

    asyncio.run(scenario())


class TestSpansOnlyForReaders:
    """A server builds spans and stamps trace contexts only when a sink
    reads them; its metrics never depend on that."""

    @pytest.fixture
    def frames(self, monkeypatch):
        """Every frame the fabrics of this process write, as JSON."""
        written: list[dict] = []
        encode = live.encode_frame

        def recording(envelope):
            frame = encode(envelope)
            written.append(json.loads(frame[4:]))
            return frame

        monkeypatch.setattr(live, "encode_frame", recording)
        return written

    def test_default_server_builds_no_span_and_stamps_no_frame(self, tmp_path, frames):
        config = fast_config()
        address = f"unix:{os.path.join(str(tmp_path), 'serve.sock')}"

        async def scenario():
            server = DirectoryServer(config, listen=address)
            await server.start()
            await server.wait_elected(timeout=10.0)
            loadgen = LoadGenerator(config, connect=address)
            await loadgen.start()
            summary = await loadgen.run(services=2, queries=3, settle=0.2)
            await loadgen.close()
            await server.close()
            return server, summary

        server, summary = asyncio.run(scenario())
        assert summary["answered"] == 3
        assert server.obs.enabled and not server.obs.tracing
        kinds = {frame["kind"] for frame in frames}
        assert {"QueryRequest", "QueryResponse"} <= kinds
        assert not [frame for frame in frames if "trace" in frame]
        assert server.obs.tracer.finished == 0
        assert next(server.obs.tracer._seq) == 1  # no span was ever opened
        counters = {
            series["name"]: series["value"]
            for series in server.obs.metrics.snapshot()
            if series["labels"] == {"node": SERVE_NODE_ID} and series["type"] == "counter"
        }
        assert counters["dir.queries"] == 3
        assert counters["net.messages"] >= 3

    def test_untraced_server_relays_an_incoming_context(self, tmp_path, frames):
        """A server without a sink opens no span for a query that arrives
        with a trace context, and answers with that context unchanged so
        a traced process downstream still joins the trace."""
        config = fast_config()
        address = f"unix:{os.path.join(str(tmp_path), 'serve.sock')}"
        context = TraceContext("q0.1", "n1.c1")

        async def scenario():
            server = DirectoryServer(config, listen=address)
            await server.start()
            await server.wait_elected(timeout=10.0)
            loadgen = LoadGenerator(config, connect=address)
            await loadgen.start()
            await loadgen.wait_directory()
            await loadgen.publish(1)
            await asyncio.sleep(0.2)
            document = annotated_request_doc(loadgen.workload, loadgen.table, 0)
            with loadgen.obs.tracer.activate(context):
                ticket = loadgen.client.query(document)
            deadline = asyncio.get_event_loop().time() + 5.0
            while ticket.outcome is QueryOutcome.PENDING:
                assert asyncio.get_event_loop().time() < deadline
                await asyncio.sleep(0.005)
            await loadgen.close()
            await server.close()
            return server, ticket

        server, ticket = asyncio.run(scenario())
        assert ticket.outcome is QueryOutcome.ANSWERED
        assert server.obs.enabled and not server.obs.tracing
        assert server.obs.tracer.finished == 0
        assert next(server.obs.tracer._seq) == 1
        relayed = {
            frame["kind"]: frame.get("trace")
            for frame in frames
            if frame["kind"] in ("QueryRequest", "QueryResponse")
        }
        assert relayed == {
            "QueryRequest": context.to_traceparent(),
            "QueryResponse": context.to_traceparent(),
        }
