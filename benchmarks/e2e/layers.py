"""Per-layer tracing from outside the program, and the layer metrics.

:func:`install` wraps public entry points of each layer in the running
process — the wire codec as ``network.live`` binds it, the fabric's
``unicast``, the S-Ariadne directory agent's hooks and its directory's
``query``/``publish_xml``/``unpublish`` — and records one span per call
into a :class:`SpanRecorder`.  Nothing inside the program changes; the
wrappers time the call into each function.

Spans of one query share its query id (the client's id travels in every
query-carrying payload, forwarded ones included).  Wrapped calls are
synchronous, so nesting is a stack and a span's self time is its
duration minus the durations of its children.  All times are
``time.perf_counter`` seconds, which on Linux is the system-wide
monotonic clock also behind ``loop.time()``.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import time
from collections import defaultdict
from collections.abc import Callable

from repro.network import live, wire
from repro.network.messages import QueryRequest, RemoteQuery, RemoteResponse
from repro.protocols.live_deploy import DirectoryServer
from repro.protocols.sariadne import SAriadneDirectoryAgent

_MISSING = object()

#: Payloads a directory's ``on_message`` handles on a query's path.
_QUERY_KINDS = (QueryRequest, RemoteQuery, RemoteResponse)

#: Period of the event-loop lateness probe in each traced server.
LOOP_PROBE_S = 0.005

#: Per-layer metric names and units, in report order.
LAYER_UNITS = {
    "wire.encode_us": "us",
    "wire.decode_us": "us",
    "wire.frames_per_query": "frames/query",
    "wire.bytes_per_query": "B/query",
    "live.outbox_wait_p50_us": "us",
    "live.outbox_wait_p99_us": "us",
    "live.loop_lag_p99_us": "us",
    "dir.handle_self_us": "us",
    "dir.parse_us": "us",
    "dir.parse_per_query": "parses/query",
    "dir.admit_us": "us",
    "dir.wire_decode_us": "us",
    "match.query_p50_us": "us",
    "match.query_p99_us": "us",
    "match.rows_per_query": "rows/query",
    "match.publish_us": "us",
    "match.unpublish_us": "us",
    "client.send_us": "us",
    "client.recv_us": "us",
    "host.ref_loop_ms": "ms",
    "e2e.residual_share": "ratio",
    "trace.overhead_share": "ratio",
}

#: Span names whose self time lies on a query's blocking path.
PATH_LAYERS = (
    "client.send",
    "live.outbox_wait",
    "wire.encode",
    "wire.decode",
    "dir.handle",
    "dir.parse",
    "dir.admit",
    "dir.wire_decode",
    "match.query",
    "client.recv",
)


class SpanRecorder:
    """In-memory spans (and loop-lateness samples) of one process.

    Args:
        process: label written with every span (``client``, ``A``, ``B``).
    """

    def __init__(self, process: str) -> None:
        self.process = process
        self.spans: list[dict] = []
        #: ``(due time, lateness)`` of every loop probe, in seconds.
        self.loop_lag: list[tuple[float, float]] = []
        self._stack: list[int] = []
        self._queued: dict[int, tuple[float, int | None]] = {}

    def add(self, name: str, start: float, end: float, qid: int | None, **attrs) -> None:
        """Record a finished span with no parent."""
        self.spans.append({"name": name, "start": start, "end": end, "qid": qid, "parent": None, **attrs})

    def call(self, name: str, fn, *args, qid: int | None = None):
        """Run ``fn(*args)`` inside a span; returns ``(result, span)``.

        A span opened inside another inherits its query id.
        """
        parent = self._stack[-1] if self._stack else None
        if qid is None and parent is not None:
            qid = self.spans[parent]["qid"]
        span = {"name": name, "start": 0.0, "end": 0.0, "qid": qid, "parent": parent}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()
        try:
            return fn(*args), span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def queued(self, payload: object) -> None:
        """Note that ``payload`` entered an outbox now.

        When the send happens inside a span, the payload cannot leave
        before that span's outermost ancestor returns (one event-loop
        thread), so its wait starts there instead.
        """
        root = self._stack[0] if self._stack else None
        self._queued[id(payload)] = (time.perf_counter(), root)

    def dequeued(self, payload: object, now: float, qid: int) -> None:
        """Close the outbox wait of ``payload`` at ``now``."""
        entry = self._queued.pop(id(payload), None)
        if entry is None:
            return
        start, root = entry
        if root is not None:
            start = max(start, self.spans[root]["end"])
        self.add("live.outbox_wait", start, now, qid)

    def dump(self, path) -> None:
        """Write every span and loop probe as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps({"proc": self.process, **span}) + "\n")
            for due, lateness in self.loop_lag:
                out.write(json.dumps({"proc": self.process, "name": "live.loop_lag",
                                      "start": due, "lag": lateness}) + "\n")


def _query_id(payload: object) -> int | None:
    return getattr(payload, "query_id", None)


def install(recorder: SpanRecorder, directory: bool) -> Callable[[], None]:
    """Wrap the layer entry points of this process.

    Args:
        recorder: where spans go.
        directory: also wrap the directory-side layers (the S-Ariadne
            agent's hooks, its directory, and a loop-lateness probe
            started with each :class:`DirectoryServer`).

    Returns:
        A function restoring every original.
    """
    patched: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        patched.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, make(original))

    def encode(original):
        def encode_frame(envelope):
            qid = _query_id(envelope.payload)
            if qid is None:
                return original(envelope)
            start = time.perf_counter()
            recorder.dequeued(envelope.payload, start, qid)
            frame = original(envelope)
            recorder.add("wire.encode", start, time.perf_counter(), qid, bytes=len(frame))
            return frame

        return encode_frame

    def decode(original):
        def decode_frame(data):
            start = time.perf_counter()
            envelope = original(data)
            end = time.perf_counter()
            qid = _query_id(envelope.payload)
            if qid is not None:
                recorder.add("wire.decode", start, end, qid, bytes=len(data) + 4)
            return envelope

        return decode_frame

    def unicast(original):
        def wrapped(self, origin, dest, payload):
            accepted = original(self, origin, dest, payload)
            if accepted and _query_id(payload) is not None:
                recorder.queued(payload)
            return accepted

        return wrapped

    patch(live, "encode_frame", encode)
    patch(wire, "decode_frame", decode)
    patch(live.LiveFabric, "unicast", unicast)
    if directory:
        _install_directory_side(recorder, patch)

    def restore() -> None:
        for owner, attr, original in reversed(patched):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    return restore


def _install_directory_side(recorder: SpanRecorder, patch) -> None:
    def spanned(name: str):
        def make(original):
            def wrapped(*args):
                return recorder.call(name, original, *args)[0]

            return wrapped

        return make

    def on_message(original):
        def wrapped(self, envelope):
            payload = envelope.payload
            if not isinstance(payload, _QUERY_KINDS):
                return original(self, envelope)
            return recorder.call("dir.handle", original, self, envelope, qid=payload.query_id)[0]

        return wrapped

    def query(original):
        def wrapped(*args):
            result, span = recorder.call("match.query", original, *args)
            span["rows"] = len(result)
            return result

        return wrapped

    def install_directory(original):
        def wrapped(self):
            original(self)
            store = self.directory.directory
            store.query = query(store.query)
            store.publish_xml = spanned("match.publish")(store.publish_xml)
            store.unpublish = spanned("match.unpublish")(store.unpublish)

        return wrapped

    def start(original):
        async def wrapped(self):
            await original(self)
            loop = asyncio.get_running_loop()

            def arm() -> None:
                due = loop.time() + LOOP_PROBE_S

                def fire() -> None:
                    recorder.loop_lag.append((due, loop.time() - due))
                    arm()

                loop.call_at(due, fire)

            arm()

        return wrapped

    patch(SAriadneDirectoryAgent, "on_message", on_message)
    patch(SAriadneDirectoryAgent, "parse_request", spanned("dir.parse"))
    patch(SAriadneDirectoryAgent, "summaries_admitting", spanned("dir.admit"))
    patch(SAriadneDirectoryAgent, "decode_request", spanned("dir.wire_decode"))
    patch(DirectoryServer, "_install_directory", install_directory)
    patch(DirectoryServer, "start", start)


def load_spans(path) -> tuple[list[dict], list[tuple[float, float]]]:
    """Spans and loop probes of one process's JSON-lines dump."""
    spans, lags = [], []
    with open(path, encoding="utf-8") as lines:
        for line in lines:
            record = json.loads(line)
            if record["name"] == "live.loop_lag":
                lags.append((record["start"], record["lag"]))
            else:
                spans.append(record)
    return spans, lags


def with_self_times(spans: list[dict]) -> list[dict]:
    """Annotate each span of one process with ``dur`` and ``self``."""
    covered = defaultdict(float)
    for span in spans:
        span["dur"] = span["end"] - span["start"]
        if span["parent"] is not None:
            covered[span["parent"]] += span["dur"]
    for index, span in enumerate(spans):
        span["self"] = span["dur"] - covered[index]
    return spans


def quantile(values, q: float) -> float:
    """Inclusive-method quantile ``q`` of a non-empty sequence."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def layer_metrics(
    processes: list[tuple[list[dict], list[tuple[float, float]]]],
    traced: set[int],
    measured: set[int],
    windows: list[tuple[float, float]],
) -> tuple[dict[str, float], list[str]]:
    """Per-layer numbers of one traced pass.

    Args:
        processes: ``(spans, loop probes)`` per process, self times set.
        traced: ids of every latency-window query (warm-up included);
            timing quantiles come from their spans.
        measured: ids of the measured latency-window queries; per-query
            counts and the residual come from these.
        windows: ``(start, end)`` of each measured latency window; loop
            probes due inside one count.

    Returns:
        ``(metrics, budget table lines)``.  A layer that never ran on this
        workload reads 0.
    """
    by_name: dict[str, list[dict]] = defaultdict(list)
    by_query: dict[int, list[dict]] = defaultdict(list)
    for spans, _lags in processes:
        for span in spans:
            by_name[span["name"]].append(span)
            if span["qid"] in measured:
                by_query[span["qid"]].append(span)
    count = max(len(measured), 1)

    def timing(name: str, q: float = 0.5, field: str = "self", scope=traced) -> float:
        values = [
            span[field] for span in by_name[name] if scope is None or span["qid"] in scope
        ]
        return quantile(values, q) * 1e6 if values else 0.0

    def per_query(name: str, field: str | None = None) -> float:
        spans = [span for span in by_name[name] if span["qid"] in measured]
        return sum(span[field] if field else 1 for span in spans) / count

    def in_window(due: float) -> bool:
        return any(start <= due <= end for start, end in windows)

    lag_p99 = []
    for _spans, lags in processes:
        served = [lag for due, lag in lags if in_window(due)]
        if served:
            lag_p99.append(quantile(served, 0.99))
    metrics = {
        "wire.encode_us": timing("wire.encode"),
        "wire.decode_us": timing("wire.decode"),
        "wire.frames_per_query": per_query("wire.encode"),
        "wire.bytes_per_query": per_query("wire.encode", "bytes"),
        "live.outbox_wait_p50_us": timing("live.outbox_wait"),
        "live.outbox_wait_p99_us": timing("live.outbox_wait", 0.99),
        "live.loop_lag_p99_us": max(lag_p99) * 1e6 if lag_p99 else 0.0,
        "dir.handle_self_us": timing("dir.handle"),
        "dir.parse_us": timing("dir.parse"),
        "dir.parse_per_query": per_query("dir.parse"),
        "dir.admit_us": timing("dir.admit"),
        "dir.wire_decode_us": timing("dir.wire_decode"),
        "match.query_p50_us": timing("match.query"),
        "match.query_p99_us": timing("match.query", 0.99),
        "match.rows_per_query": per_query("match.query", "rows"),
        "match.publish_us": timing("match.publish", scope=None),
        "match.unpublish_us": timing("match.unpublish", scope=None),
        "client.send_us": timing("client.send"),
        "client.recv_us": timing("client.recv"),
    }
    residual, table = _budget(by_query)
    metrics["e2e.residual_share"] = residual
    return metrics, table


def _budget(by_query: dict[int, list[dict]]) -> tuple[float, list[str]]:
    """Median residual share, and the latency budget of the median query.

    A query's latency here runs from the start of ``client.send`` to the
    end of ``client.recv``; its residual is the part no layer's self time
    covers (socket transfer, event-loop wake-ups, unwrapped glue).  The
    budget averages each layer's self time over the queries whose latency
    lies between the 45th and 55th percentile, so the rows and the
    residual add up to the median latency.
    """
    rows = []
    for spans in by_query.values():
        names = {span["name"]: span for span in spans}
        if "client.send" not in names or "client.recv" not in names:
            continue
        latency = names["client.recv"]["end"] - names["client.send"]["start"]
        layers = defaultdict(float)
        for span in spans:
            layers[span["name"]] += span["self"]
        rows.append((latency, layers))
    if not rows:
        return 0.0, []
    residual = statistics.median(1.0 - sum(layers.values()) / latency for latency, layers in rows)
    rows.sort(key=lambda row: row[0])
    band = rows[int(len(rows) * 0.45) : max(int(len(rows) * 0.55), int(len(rows) * 0.45) + 1)]
    mean_latency = statistics.fmean(latency for latency, _layers in band)
    lines = [f"{'layer (self time)':<22} {'us/query':>10} {'share':>7}"]
    attributed = 0.0
    for name in PATH_LAYERS:
        value = statistics.fmean(layers.get(name, 0.0) for _latency, layers in band)
        attributed += value
        lines.append(f"{name:<22} {value * 1e6:>10.1f} {value / mean_latency:>7.1%}")
    rest = mean_latency - attributed
    lines.append(f"{'residual':<22} {rest * 1e6:>10.1f} {rest / mean_latency:>7.1%}")
    lines.append(
        f"{'= median latency':<22} {mean_latency * 1e6:>10.1f} "
        f"(send -> recv, {len(band)} queries in the 45-55th percentile band)"
    )
    return residual, lines
