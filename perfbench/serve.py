"""The serving process of one benchmark run: a fresh stack per process.

``run.py`` starts it; it is not meant to be run by hand.

``--stack single`` / ``--stack cluster``
    Builds the stack (``stack.build_single`` / ``stack.build_cluster``),
    serves it on the wire transport at an ephemeral port, prints
    ``{"ready": <port>}`` and serves until its standard input closes.  A
    request object carrying a ``"perfbench"`` key is a control request
    answered here, never by the stack: ``"counters"`` returns the backends'
    counters and this process's peak RSS, ``"spans"`` the recorded spans.
``--stack local``
    Builds the stack in process behind ``Client.local``, warms it up on the
    head of the local-cpu stream, prints ``{"ready": null}``, waits for one
    line on standard input (or exits at end of input), then submits the rest of the stream in chunks for
    ``--seconds`` and prints the outcome as one JSON line.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import inputs, stack  # noqa: E402
from perfbench.ledger import Tracer  # noqa: E402

#: Specs per ``submit_many`` call of the local-cpu loop.
LOCAL_CHUNK = 16
#: Chunks submitted to warm the local stack before it reports ready.
LOCAL_WARMUP_CHUNKS = 1
#: Span ids of the serving process start here, clear of the client's.
SERVER_SID_BASE = 1 << 40


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def counters(front) -> dict:
    totals: dict[str, float] = {"backends": len(stack.backends(front))}
    for backend in stack.backends(front):
        for name, value in backend.counters().items():
            totals[name] = totals.get(name, 0) + value
    totals["rss_mb"] = peak_rss_mb()
    return totals


def serve(front, tracer: Tracer | None) -> None:
    def control(request: dict):
        what = request.get("perfbench")
        if what == "spans":
            return tracer.dump() if tracer is not None else []
        return counters(front)

    def handle_batch(batch: list) -> list:
        if not any(isinstance(r, dict) and "perfbench" in r for r in batch):
            return front.handle_batch(batch)
        work = [r for r in batch if not (isinstance(r, dict) and "perfbench" in r)]
        answers = [
            {"id": r.get("id"), "perfbench": control(r)}
            for r in batch
            if isinstance(r, dict) and "perfbench" in r
        ]
        return answers + (front.handle_batch(work) if work else [])

    async def main() -> None:
        from repro.serving import start_line_server

        loop = asyncio.get_running_loop()
        stop = asyncio.Event()

        def wait_for_eof() -> None:
            sys.stdin.read()
            loop.call_soon_threadsafe(stop.set)

        server = await start_line_server(handle_batch, "127.0.0.1", 0)
        threading.Thread(target=wait_for_eof, daemon=True).start()
        emit({"ready": server.sockets[0].getsockname()[1]})
        await stop.wait()
        # The client has closed its connections by now; let their handlers
        # see EOF and finish before the loop shuts down and cancels them.
        await asyncio.sleep(0.2)
        server.close()
        await server.wait_closed()

    asyncio.run(main())


def run_local(front, tracer: Tracer | None, seed: int, seconds: float) -> None:
    from repro.api import Client

    client = Client.local(pipeline=front.pipeline, engine=front.engine)
    items = inputs.local_items(seed)
    position = 0

    def submit(record: list | None) -> None:
        nonlocal position
        chunk = [next(items) for _ in range(LOCAL_CHUNK)]
        specs = [item.spec for item in chunk]
        started = time.perf_counter()
        if tracer is not None:
            with tracer.span("client", client, requests=len(specs)):
                results = client.submit_many(specs)
        else:
            results = client.submit_many(specs)
        ended = time.perf_counter()
        if record is not None:
            record.append(
                {
                    "first": position,
                    "start": started,
                    "end": ended,
                    "results": [
                        [r.ok, r.answer, r.error.code if r.error else None, r.tokens]
                        for r in results
                    ],
                }
            )
        position += len(chunk)

    for _ in range(LOCAL_WARMUP_CHUNKS):
        submit(None)
    emit({"ready": None})
    if not sys.stdin.readline():
        return  # stopped after set-up: only set-up time was wanted
    client.stats(reset=True)
    before = counters(front)
    if tracer is not None:
        tracer.spans.clear()
    chunks: list = []
    window_start = time.perf_counter()
    deadline = window_start + seconds
    while time.perf_counter() < deadline:
        submit(chunks)
    window_end = time.perf_counter()
    emit(
        {
            "window": [window_start, window_end],
            "chunks": chunks,
            "counters": [before, counters(front)],
            "stats": client.stats(),
            "spans": tracer.dump() if tracer is not None else [],
        }
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stack", choices=("single", "cluster", "local"), required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)

    knowledge = inputs.world_knowledge()
    if args.stack == "cluster":
        front = stack.build_cluster(knowledge)
    else:
        delay = 0.0 if args.stack == "local" else stack.ROUND_TRIP_S
        front = stack.build_single(knowledge, delay)
    tracer = Tracer(SERVER_SID_BASE) if args.trace else None
    if tracer is not None:
        stack.install_tracing(tracer, front)
    if args.stack == "local":
        run_local(front, tracer, args.seed, args.seconds)
        return 0
    # As `repro serve` does: the health monitor runs, and a cluster is
    # watched by its supervisor.
    front.monitor.start()
    supervisor = None
    if args.stack == "cluster":
        from repro.cluster import Supervisor

        supervisor = Supervisor(front)
        supervisor.start()
    try:
        serve(front, tracer)
    finally:
        if supervisor is not None:
            supervisor.stop()
        front.monitor.stop()
        if args.stack == "cluster":
            front.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
