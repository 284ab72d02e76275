"""The benchmark of the default serving stack, driven from outside.

Usage::

    python3 perfbench/run.py --workload {online,bulk,local-cpu} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each run starts fresh serving processes
(``serve.py``), drives one seeded workload against them, checks every
answer and prints human-readable lines followed by one JSON result line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced for half the time each and reports the
per-layer ledger (see ``BENCHMARK.json`` for both lists).  Workloads:

``online``
    Open loop: single-spec v2 requests on a seeded Poisson schedule,
    multiplexed by ``id`` over two binary-framed connections to one service.
``bulk``
    Closed loop: one client submits distinct tables, one pipeline request
    each, to a two-worker thread cluster.
``local-cpu``
    Closed loop in process (``Client.local``) over unique retrieval-heavy
    specs with no backend delay: paper-core and simulated-model CPU.  Its
    figures are pure host CPU speed, which drifts on a shared host (over
    ten seeds its ``tasks_per_s`` spread, IQR/median, was 0.14-0.22), so
    ``BENCHMARK.json`` does not list it: run it by hand, on a quiet host,
    to check a CPU-side change.

A run whose answers fail a check prints ``"correct": false``.  An online
run whose generator fell behind its schedule, or whose queue kept growing,
did not offer the load it claims: it prints why and exits with code 3
without a result line.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from typing import Any

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SERVE = os.path.join(ROOT, "perfbench", "serve.py")

#: Setups measured per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Online arrival rate (requests/s), about half the default stack's
#: capacity (11.5 requests/s measured at 30 ms per round trip).
ONLINE_RATE = 6.0
#: Online requests sent as one burst to warm a fresh service.
ONLINE_WARMUP = 24
#: Connections the online client multiplexes over.
ONLINE_CONNECTIONS = 2
#: Open-loop validity: 99th-percentile send lateness allowed, half the mean
#: gap between arrivals -- later than that, the generator no longer offers
#: the load its schedule claims.
MAX_LAG_P99_S = 0.5 / ONLINE_RATE
#: Seconds allowed for in-flight requests to finish after sending stops.
DRAIN_TIMEOUT_S = 30.0
#: Blocking-path self times must add up to the traced latency within this.
LEDGER_TOLERANCE = 0.05
#: Whole-run watchdog: a run must end within 180 s.
WATCHDOG_S = 170
LAYERS = ("client", "router", "service", "engine", "cache", "backend")


# --------------------------------------------------------------- processes
class Server:
    """One ``serve.py`` process; ``setup_s`` runs from spawn to ready."""

    live: list["Server"] = []

    def __init__(self, stack: str, trace: bool, *extra: str):
        self.started = time.perf_counter()
        command = [sys.executable, SERVE, "--stack", stack, *extra]
        if trace:
            command.append("--trace")
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT
        )
        Server.live.append(self)
        self.port = self.read()["ready"]
        self.ready = time.perf_counter()

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"serving process exited with {self.proc.wait()}")
        return json.loads(line)

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        if self in Server.live:
            Server.live.remove(self)

    @classmethod
    def stop_all(cls) -> None:
        for server in list(cls.live):
            server.proc.kill()
            server.proc.wait()
            cls.live.remove(server)


# ------------------------------------------------------------ wire client
class MuxConnection:
    """A negotiated binary connection with many requests in flight by ``id``."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.pending: dict[Any, asyncio.Future] = {}
        self.reader_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def open(cls, port: int) -> "MuxConnection":
        from repro.serving.transport import (
            FRAME_BINARY, MAX_FRAME_BYTES, client_hello, encode_line, is_handshake,
        )

        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=MAX_FRAME_BYTES + 1024
        )
        writer.write(encode_line(client_hello((FRAME_BINARY,))) + b"\n")
        await writer.drain()
        reply = json.loads(await reader.readline())
        if not (is_handshake(reply) and reply.get("frame") == FRAME_BINARY):
            raise RuntimeError(f"server did not negotiate binary frames: {reply}")
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        from repro.serving.transport import decode_frame_payload, read_frame

        try:
            while True:
                body = await read_frame(self.reader)
                if body is None:
                    break
                received = time.perf_counter()
                payload = decode_frame_payload(body)
                future = self.pending.pop(payload.get("id"), None)
                if future is not None and not future.done():
                    future.set_result((payload, received))
        finally:
            for future in self.pending.values():
                if not future.done():
                    future.set_exception(ConnectionError("connection closed"))

    async def request(self, payload: dict) -> tuple[dict, float]:
        from repro.serving.transport import encode_frame

        future = asyncio.get_running_loop().create_future()
        self.pending[payload["id"]] = future
        self.writer.write(encode_frame(payload))
        await self.writer.drain()
        return await future

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass
        await self.reader_task


# ---------------------------------------------------------------- checking
class Checker:
    """Well-formedness, exact-repeat and ground-truth checks of answers."""

    def __init__(self) -> None:
        self.problems: list[str] = []
        self.graded = 0
        self.right = 0

    def fail(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    def grade(self, answer: Any, truth: Any) -> None:
        from repro.eval.metrics import values_match

        if truth is None:
            return
        self.graded += 1
        self.right += bool(values_match(answer, truth))

    def answer_shape(self, kind: str, answer: Any) -> None:
        expected = bool if kind in ("entity_resolution", "error_detection") else str
        if kind == "imputation" and answer is None:
            return
        if not isinstance(answer, expected):
            self.fail(f"{kind} answer {answer!r} is not a {expected.__name__}")

    @property
    def accuracy(self) -> float:
        return self.right / self.graded if self.graded else 0.0


def decode(payload: Any, request_id: Any, checker: Checker):
    """The TaskResult of a v2 response, or ``None`` when it is malformed."""
    from repro.api.protocol import decode_response

    if not (isinstance(payload, dict) and payload.get("v") == 2
            and payload.get("id") == request_id and isinstance(payload.get("ok"), bool)):
        checker.fail(f"malformed response to {request_id}: {str(payload)[:200]}")
        return None
    try:
        return decode_response(payload)
    except Exception as exc:  # any decode failure is a malformed response
        checker.fail(f"undecodable response to {request_id}: {exc}")
        return None


# ------------------------------------------------------------- span ledger
def ledger(roots: list, spans: list, e2e_s: list[float], window: tuple[float, float]):
    """Per-layer metrics from the traced spans, and the ledger's own check.

    ``roots`` are the client spans, each with the request ids it carried;
    a server span answering one of those ids is the root's child.  Only
    server spans inside ``window`` count.  Returns ``(metrics, problems)``:
    a problem is a request no server span answered, a span that overruns
    its parent by more than 1 ms, or blocking-path self times that do not
    add up to ``e2e_s`` (the client-measured latencies) within
    ``LEDGER_TOLERANCE``.
    """
    from perfbench.ledger import blocking_path, children_index, median, self_time

    spans = [s for s in spans if window[0] <= s.start and s.end <= window[1]]
    index = children_index(spans)
    by_id: dict[Any, list] = {}
    for span in spans:
        if span.parent is None:
            for request_id in span.attrs.get("ids", ()):
                by_id.setdefault(request_id, []).append(span)
    for root in roots:
        linked = [s for rid in root.attrs.get("ids", ()) for s in by_id.get(rid, ())]
        if linked:
            index[root.sid] = linked
    problems = []
    unanswered = sum(1 for root in roots if not index.get(root.sid))
    if unanswered:
        problems.append(f"{unanswered} of {len(roots)} requests have no server span")
    parents = {span.sid: span for span in (*roots, *spans)}
    overruns = sum(
        1
        for parent_sid, children in index.items()
        if parent_sid in parents
        for child in children
        if child.start < parents[parent_sid].start - 1e-3
        or child.end > parents[parent_sid].end + 1e-3
    )
    if overruns:
        problems.append(f"{overruns} spans overrun their parent")
    path = {layer: 0.0 for layer in LAYERS}
    transport = []
    for root in roots:
        parts = blocking_path(root, index)
        transport.append(parts.get("client", 0.0))
        for layer, seconds in parts.items():
            path[layer] += seconds
    total = sum(path.values())
    sum_ratio = total / sum(e2e_s) if e2e_s else 0.0
    if abs(sum_ratio - 1.0) > LEDGER_TOLERANCE:
        problems.append(
            f"blocking-path self times sum to {sum_ratio:.4f} of the latency "
            f"(tolerance {LEDGER_TOLERANCE})"
        )

    def selfs(layer: str) -> list[float]:
        return [self_time(s, index.get(s.sid, ())) for s in spans if s.layer == layer]

    def p50_ms(values: list[float]) -> float:
        return median(values) * 1e3 if values else 0.0

    def mean_attr(layer: str, attr: str) -> float:
        values = [s.attrs[attr] for s in spans if s.layer == layer]
        return sum(values) / len(values) if values else 0.0

    metrics = {
        "transport.overhead_ms.p50": p50_ms(transport),
        "service.requests_per_call": mean_attr("service", "requests"),
        "service.self_ms.p50": p50_ms(selfs("service")),
        "engine.calls": float(sum(1 for s in spans if s.layer == "engine")),
        "engine.tasks_per_call": mean_attr("engine", "tasks"),
        "engine.self_ms.p50": p50_ms(selfs("engine")),
        "cache.self_ms.p50": p50_ms(selfs("cache")),
        # Printed only: without a router (online, local-cpu) this time would
        # read a constant 0 ms; the router's blocking-path share is listed.
        "cluster.router_self_ms.p50": p50_ms(selfs("router")),
        "ledger.sum_ratio": sum_ratio,
    }
    for layer in LAYERS:
        metrics[f"ledger.share.{layer}"] = path[layer] / total if total else 0.0
    return metrics, problems


def stats_metrics(stats: dict) -> dict[str, float]:
    """Layer counters from the ``stats`` snapshot the server answers."""
    counters = stats["metrics"]["counters"]
    histograms = stats["metrics"]["histograms"]
    batches = counters.get("batcher.batches", 0)
    hits, misses = counters.get("cache.hits", 0), counters.get("cache.misses", 0)
    routed = [v for k, v in counters.items() if k.startswith("router.routed.")]
    return {
        "batcher.mean_batch": counters.get("batcher.requests", 0) / batches if batches else 0.0,
        "batcher.queue_wait_ms.p50": (
            histograms.get("batcher.queue_wait", {}).get("p50", 0.0) * 1e3
        ),
        "batcher.flush.size": float(counters.get("batcher.flush.size", 0)),
        "batcher.flush.idle": float(counters.get("batcher.flush.idle", 0)),
        "batcher.flush.timeout": float(counters.get("batcher.flush.timeout", 0)),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "llm.calls": float(counters.get("llm.calls", 0)),
        "cluster.imbalance": (
            max(routed) / (sum(routed) / len(routed)) if routed and sum(routed) else 1.0
        ),
        "cluster.requeued": float(counters.get("router.requeued", 0)),
    }


def backend_metrics(before: dict, after: dict, tasks: int, window_s: float) -> dict:
    delta = {k: after[k] - before[k] for k in ("round_trips", "wait_s", "sim_cpu_s")}
    return {
        "backend.round_trips_per_task": delta["round_trips"] / tasks if tasks else 0.0,
        "backend.wait_s": delta["wait_s"],
        "backend.sim_cpu_s": delta["sim_cpu_s"],
        "backend.busy_share": (
            (delta["wait_s"] + delta["sim_cpu_s"]) / (window_s * after["backends"])
        ),
    }


# ---------------------------------------------------------------- workloads
async def control(conn: MuxConnection, what: str) -> Any:
    response, _ = await conn.request({"id": f"perfbench-{what}", "perfbench": what})
    return response["perfbench"]


async def stats_request(conn: MuxConnection, reset: bool = False) -> dict:
    from repro.api.protocol import encode_request
    from repro.api.stats_spec import StatsSpec

    response, _ = await conn.request(
        encode_request(StatsSpec(reset=reset), request_id="perfbench-stats")
    )
    return response["result"]["answer"]


async def online_session(server: Server, seed: int, seconds: float, trace: bool,
                         warm_only: bool = False) -> dict:
    """Warm one fresh service up, then (unless ``warm_only``) run the open loop."""
    from perfbench import inputs
    from perfbench.ledger import Span, Tracer, poisson_schedule
    from repro.api.protocol import encode_request

    conns = [await MuxConnection.open(server.port) for _ in range(ONLINE_CONNECTIONS)]
    items = inputs.online_items(seed)
    checker = Checker()

    async def send(conn, item, request_id, due: float) -> dict:
        entry = {"item": item, "id": request_id, "due": due, "sent": time.perf_counter()}
        try:
            payload, received = await asyncio.wait_for(
                conn.request(encode_request(item.spec, request_id)), DRAIN_TIMEOUT_S
            )
        except (asyncio.TimeoutError, ConnectionError) as exc:
            entry["error"] = f"transport: {exc!r}"
            return entry
        entry["received"] = received
        result = decode(payload, request_id, checker)
        if result is None:
            entry["error"] = "malformed"
        elif not result.ok:
            entry["error"] = f"{result.error.code}: {result.error.message}"
        else:
            entry["answer"] = result.answer
        return entry

    try:
        now = time.perf_counter()
        warm = inputs.online_items(seed, stream="warm-up")
        warmed = await asyncio.gather(*(
            send(conns[i % len(conns)], next(warm), f"warm-up-{i}", now)
            for i in range(ONLINE_WARMUP)
        ))
        if any("error" in entry for entry in warmed):
            raise RuntimeError(f"warm-up failed: {[e.get('error') for e in warmed][:3]}")
        setup_s = time.perf_counter() - server.started
        if warm_only:
            return {"setup_s": setup_s}
        before = await control(conns[0], "counters")
        if trace:
            await stats_request(conns[0], reset=True)
        schedule = poisson_schedule(ONLINE_RATE, seconds, seed)
        start = time.perf_counter()
        pending: list[asyncio.Task] = []
        inflight: list[int] = []
        for i, offset in enumerate(schedule):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            inflight.append(sum(1 for task in pending if not task.done()))
            pending.append(asyncio.ensure_future(
                send(conns[i % len(conns)], next(items), i, due)
            ))
        stop = time.perf_counter()
        backlog = sum(1 for task in pending if not task.done())
        # Timed entries in stream order; an entry's ``id`` is its position.
        history = await asyncio.gather(*pending)
        drained = time.perf_counter()
        after = await control(conns[0], "counters")
        stats = await stats_request(conns[0]) if trace else None
        spans = await control(conns[0], "spans") if trace else []
    finally:
        for conn in conns:
            await conn.close()

    # ---- checks: well-formed answers, exact repeats, ground truth
    lateness = sorted(entry["sent"] - entry["due"] for entry in history)
    failed = [entry for entry in history if "error" in entry]
    answered: dict[int, Any] = {}
    repeats = 0
    for entry in history:
        item = entry["item"]
        if "answer" not in entry:
            continue
        answered[entry["id"]] = entry["answer"]
        checker.answer_shape(item.kind, entry["answer"])
        checker.grade(entry["answer"], item.truth)
        if item.repeat_of is not None:
            repeats += 1
            original = answered.get(item.repeat_of)
            fixed = item.kind in ("transformation", "entity_resolution")
            if fixed and item.repeat_of in answered and original != entry["answer"]:
                checker.fail(
                    f"repeat of request {item.repeat_of} ({item.kind}) answered "
                    f"{entry['answer']!r}, first answered {original!r}"
                )
    from perfbench.ledger import quantile

    lag_p99 = quantile(lateness, 99).value if lateness else 0.0
    quarter = max(1, len(inflight) // 4)
    growing = (
        sum(inflight[-quarter:]) / quarter > 2 * sum(inflight[:quarter]) / quarter + 2
    )
    latencies = [
        entry["received"] - entry["due"] if "error" not in entry else float("inf")
        for entry in history
    ]
    out = {
        "setup_s": setup_s,
        "latencies": latencies,
        "attempted": len(history),
        "failed": len(failed),
        "tasks": len(history) - len(failed),
        "window_s": stop - start,
        "busy_s": drained - start,
        "checker": checker,
        "counters": (before, after),
        "validity": {
            "lag_p99_ms": lag_p99 * 1e3,
            "lag_max_ms": (lateness[-1] if lateness else 0.0) * 1e3,
            "backlog_at_stop": backlog,
            "inflight_first_quarter": sum(inflight[:quarter]) / quarter,
            "inflight_last_quarter": sum(inflight[-quarter:]) / quarter,
            "repeat_share": repeats / len(history) if history else 0.0,
        },
        "invalid": (
            f"generator lagged: p99 lateness {lag_p99 * 1e3:.1f} ms" if lag_p99 > MAX_LAG_P99_S
            else "queue kept growing" if growing else None
        ),
    }
    if trace:
        tracer = Tracer()
        roots = [
            tracer.record("client", e["sent"], e["received"], ids=[e["id"]])
            for e in history if "received" in e
        ]
        # The ledger must account for latency as the user saw it: from the
        # due time, so generator lateness shows as time no layer explains.
        layers, out["ledger_problems"] = ledger(
            roots,
            [Span.from_payload(p) for p in spans],
            [e["received"] - e["due"] for e in history if "received" in e],
            (start, drained),
        )
        out["layers"] = {**layers, **stats_metrics(stats)}
    return out


def run_online(seed: int, seconds: float, trace: bool, setups: int) -> dict:
    setup_times = []
    for _ in range(setups - 1):
        server = Server("single", False)
        try:
            setup_times.append(asyncio.run(
                online_session(server, seed, seconds, False, warm_only=True)
            )["setup_s"])
        finally:
            server.stop()
    server = Server("single", trace)
    try:
        out = asyncio.run(online_session(server, seed, seconds, trace))
    finally:
        server.stop()
    out["setup_times"] = setup_times + [out["setup_s"]]
    return out


def run_bulk(seed: int, seconds: float, trace: bool, setups: int) -> dict:
    from perfbench import inputs
    from perfbench.ledger import Span, Tracer
    from repro.api import Client

    items = inputs.bulk_items(seed)
    warm = next(items)
    setup_times = []
    for attempt in range(setups):
        server = Server("cluster", trace)
        client = Client.remote("127.0.0.1", server.port, timeout=DRAIN_TIMEOUT_S, pool_size=1)
        result = client.submit_many([warm.spec])[0]
        if not result.ok:
            raise RuntimeError(f"bulk warm-up failed: {result.error}")
        setup_times.append(time.perf_counter() - server.started)
        if attempt < setups - 1:
            client.close()
            server.stop()
    tracer = Tracer()
    checker = Checker()
    before = asyncio.run(_bulk_control(server.port, "counters", reset_stats=trace))
    latencies, rates, roots, reports = [], [], [], []
    attempted = failed = rows = 0
    try:
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline:
            item = next(items)
            attempted += 1
            sent = time.perf_counter()
            result = client.submit_many([item.spec])[0]
            received = time.perf_counter()
            if trace:
                roots.append(tracer.record("client", sent, received, ids=[result.id]))
            if not result.ok:
                failed += 1
                checker.fail(f"table failed: {result.error}")
                continue
            latencies.append(received - sent)
            rates.append(item.tasks / (received - sent))
            rows += item.tasks
            reports.append(result.answer["report"])
            check_table(item, result.answer, checker)
        end = time.perf_counter()
        after, stats, spans = asyncio.run(_bulk_finish(server.port, trace))
    finally:
        client.close()
        server.stop()
    out = {
        "setup_times": setup_times,
        "latencies": latencies + [float("inf")] * failed,
        "rates": rates + [0.0] * failed,
        "attempted": attempted,
        "failed": failed,
        "tasks": rows,
        "window_s": end - start,
        "checker": checker,
        "counters": (before, after),
        "validity": {"tables": attempted, "rows_per_table": rows / max(1, attempted - failed)},
        "invalid": None,
    }
    if trace:
        specs = sum(r["specs"] for r in reports)
        submitted = sum(r["submitted"] for r in reports)
        layers, out["ledger_problems"] = ledger(
            roots, [Span.from_payload(p) for p in spans], latencies, (start, end)
        )
        out["layers"] = {
            **layers,
            **stats_metrics(stats),
            "flow.dedup_factor": specs / submitted if submitted else 0.0,
            "flow.waves": sum(r["waves"] for r in reports) / len(reports) if reports else 0.0,
        }
    return out


async def _bulk_control(port: int, what: str, reset_stats: bool = False) -> Any:
    conn = await MuxConnection.open(port)
    try:
        answer = await control(conn, what)
        if reset_stats:
            await stats_request(conn, reset=True)
        return answer
    finally:
        await conn.close()


async def _bulk_finish(port: int, trace: bool):
    conn = await MuxConnection.open(port)
    try:
        after = await control(conn, "counters")
        stats = await stats_request(conn) if trace else None
        spans = await control(conn, "spans") if trace else []
        return after, stats, spans
    finally:
        await conn.close()


def check_table(item, answer: dict, checker: Checker) -> None:
    """Grade a cleaned table; the copies of one listing must agree exactly."""
    rows = answer.get("rows")
    if not isinstance(rows, list) or len(rows) != len(item.truth):
        checker.fail(f"table answered {len(rows or [])} rows for {len(item.truth)}")
        return
    by_listing: dict[tuple, dict] = {}
    for row, truth, source in zip(rows, item.truth, item.spec.rows):
        for column, expected in truth.items():
            checker.grade(row.get(column), expected)
        key = (source["name"], source["phone"])
        cleaned = {column: row.get(column) for column in truth}
        if by_listing.setdefault(key, cleaned) != cleaned:
            checker.fail(f"copies of {key[0]!r} were cleaned differently")


def run_local(seed: int, seconds: float, trace: bool, setups: int) -> dict:
    from perfbench import inputs
    from perfbench.ledger import Span

    extra = ("--seed", str(seed), "--seconds", str(seconds))
    setup_times = []
    for _ in range(setups - 1):
        server = Server("local", False, *extra)
        setup_times.append(server.ready - server.started)
        server.stop()
    server = Server("local", trace, *extra)
    setup_times.append(server.ready - server.started)
    try:
        server.proc.stdin.write("go\n")
        server.proc.stdin.flush()
        report = server.read()
    finally:
        server.stop()
    items = inputs.local_items(seed)
    stream: list = []
    checker = Checker()
    latencies, rates = [], []
    attempted = failed = 0
    for chunk in report["chunks"]:
        while len(stream) < chunk["first"] + len(chunk["results"]):
            stream.append(next(items))
        latencies.append(chunk["end"] - chunk["start"])
        answered = sum(1 for ok, *_ in chunk["results"] if ok)
        rates.append(answered / (chunk["end"] - chunk["start"]))
        for offset, (ok, answer, error, _tokens) in enumerate(chunk["results"]):
            item = stream[chunk["first"] + offset]
            attempted += 1
            if not ok:
                failed += 1
                checker.fail(f"{item.kind} failed: {error}")
                continue
            checker.answer_shape(item.kind, answer)
            checker.grade(answer, item.truth)
    start, end = report["window"]
    out = {
        "setup_times": setup_times,
        "latencies": latencies,
        "rates": rates,
        "attempted": attempted,
        "failed": failed,
        "tasks": attempted - failed,
        "window_s": end - start,
        "checker": checker,
        "counters": tuple(report["counters"]),
        "validity": {"chunks": len(latencies)},
        "invalid": None,
    }
    if trace:
        spans = [Span.from_payload(p) for p in report["spans"]]
        roots = [s for s in spans if s.layer == "client"]
        layers, out["ledger_problems"] = ledger(
            roots, spans, latencies, (start, end)
        )
        out["layers"] = {**layers, **stats_metrics(report["stats"])}
    return out


WORKLOADS = {"online": run_online, "bulk": run_bulk, "local-cpu": run_local}
#: What each workload's ``trace.overhead_ratio`` compares: metric, and
#: whether a bigger value is worse.
HEADLINE = {"online": ("latency_p50_ms", True), "bulk": ("tasks_per_s", False),
            "local-cpu": ("tasks_per_s", False)}


# ------------------------------------------------------------------ report
def end_to_end(out: dict) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, samples)."""
    from perfbench.ledger import median, quantile

    latencies = out["latencies"]
    before, after = out["counters"]
    billed = after["billed_tokens"] - before["billed_tokens"]
    return {
        "setup_s": (median(out["setup_times"]), "s", len(out["setup_times"])),
        "latency_p50_ms": (quantile(latencies, 50).value * 1e3, "ms", len(latencies)),
        "tasks_per_s": (
            median(out["rates"]) if "rates" in out else out["tasks"] / out["busy_s"],
            "1/s",
            len(out.get("rates", ())) or out["tasks"],
        ),
        "billed_tokens_per_task": (billed / max(1, out["tasks"]), "tokens", out["tasks"]),
        "answer_accuracy": (out["checker"].accuracy, "share", out["checker"].graded),
        "peak_rss_mb": (after["rss_mb"], "MB", 1),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the default serving stack.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to benchmark: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

    def watchdog(signum, frame):
        raise TimeoutError(f"run exceeded {WATCHDOG_S} s")

    signal.signal(signal.SIGALRM, watchdog)
    signal.alarm(WATCHDOG_S)
    run = WORKLOADS[args.workload]
    try:
        if args.trace:
            half = args.seconds / 2
            plain = run(args.seed, half, False, 1)
            out = run(args.seed, half, True, 1)
        else:
            out = run(args.seed, args.seconds, False, SETUP_REPEATS)
    finally:
        signal.alarm(0)
        Server.stop_all()

    checker = out["checker"]
    print(f"workload {args.workload}: sent {out['attempted']}, "
          f"succeeded {out['attempted'] - out['failed']}, failed {out['failed']} "
          f"(failed_share {out['failed'] / max(1, out['attempted']):.4f})")
    print(f"  validity: {json.dumps(out['validity'])}")
    metrics = end_to_end(out)
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<28} {value:12.4f} {unit:<7} n={samples}")
    if args.workload == "bulk":
        value, unit, samples = metrics["tasks_per_s"]
        print(f"  {'rows_per_s':<28} {value:12.4f} {unit:<7} n={samples}  (a bulk task is a row)")
    print_tails(out["latencies"])
    for problem in checker.problems:
        print(f"  CHECK FAILED: {problem}")
    invalid = out["invalid"] or (plain["invalid"] if args.trace else None)
    if invalid:
        # An open loop that fell behind its schedule did not offer the load
        # it claims: report it, but measure nothing.
        print(f"  INVALID RUN, not measured: {invalid}")
        return 3
    correct = not checker.problems

    spec = load_spec()
    if args.trace:
        layers = dict(out["layers"])
        layers["cache.repeat_share"] = out["validity"].get("repeat_share", 0.0)
        layers.update(backend_metrics(*out["counters"], out["tasks"], out["window_s"]))
        layers.setdefault("flow.dedup_factor", 1.0)
        layers.setdefault("flow.waves", 0.0)
        name, bigger_is_worse = HEADLINE[args.workload]
        traced, untraced = metrics[name][0], end_to_end(plain)[name][0]
        layers["trace.overhead_ratio"] = (
            traced / untraced if bigger_is_worse else untraced / traced
        )
        print(f"  ledger: blocking-path self times sum to {layers['ledger.sum_ratio']:.4f} "
              f"of the traced latency (tolerance {LEDGER_TOLERANCE})")
        for problem in out["ledger_problems"]:
            print(f"  CHECK FAILED: ledger: {problem}")
        correct = correct and not out["ledger_problems"]
        for entry in spec["per_layer"]:
            print(f"  {entry['name']:<32} {layers[entry['name']]:12.4f} {entry['unit']}")
        listed = {entry["name"] for entry in spec["per_layer"]}
        for name in sorted(set(layers) - listed):
            print(f"  {name:<32} {layers[name]:12.4f} (printed only)")
        reported = {
            entry["name"]: {"value": layers[entry["name"]], "unit": entry["unit"]}
            for entry in spec["per_layer"]
        }
    else:
        reported = {
            entry["name"]: {"value": metrics[entry["name"]][0], "unit": entry["unit"]}
            for entry in spec["end_to_end"]
        }
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": reported,
    }))
    return 0


def print_tails(latencies: list[float]) -> None:
    """Tail percentiles with their support; a tail needs 10 samples beyond it."""
    from perfbench.ledger import quantile, tail_quantile

    if not latencies:
        return
    for q in (95, 99):
        result = quantile(latencies, q)
        note = "" if result.beyond >= 10 else "  (too few samples beyond for a tail figure)"
        print(f"  {f'latency_p{q}_ms':<28} {result.value * 1e3:12.4f} {'ms':<7} "
              f"n={result.n}, {result.beyond} beyond{note}")
    tail = tail_quantile(latencies)
    print(f"  highest supported tail: p{tail.q:g} = {tail.value * 1e3:.4f} ms")


def load_spec() -> dict:
    """The metric lists of ``BENCHMARK.json``: names and units to report."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


if __name__ == "__main__":
    sys.exit(main())
