"""The serving stack under test, its stand-in backend, and the span wrappers.

The stack is what ``repro serve`` builds by default: ``build_service`` with
its default engine and pipeline configuration and an in-memory
``CachedLLM``, no tenancy and no admission limits -- or, for the cluster,
``Router.local`` as ``serve --cluster`` builds it.  The only substitution is
the backend: :class:`DelayedBackend` puts the simulated LLM behind a fixed
delay per round trip, standing in for a remote completion API.

:func:`install_tracing` wraps the public entry points of each layer with
:class:`~perfbench.ledger.Tracer` spans.  It patches classes of the running
process only; no program file changes.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Sequence

from repro.llm.base import LanguageModel
from repro.llm.simulated import SimulatedLLM

#: Fixed delay of one backend round trip (one ``complete_batch`` call).
#: Long enough that the wait, not host CPU, dominates an online request:
#: on a shared 2-vCPU host, two CPU-bound neighbours raised the online p50
#: by 42% at 10 ms per round trip and by 20% at 30 ms, and over ten seeds
#: the p50's spread (IQR/median) fell from 0.14-0.21 to 0.07.
ROUND_TRIP_S = 0.030
#: Shard workers of the bulk cluster.
CLUSTER_WORKERS = 2


class DelayedBackend(LanguageModel):
    """A simulated LLM reached through a fixed-latency round trip.

    Every call -- a single prompt or a batch -- sleeps ``delay`` once, then
    lets the simulated model answer.  Tokens it records are the tokens a
    remote API would bill; the cache in front of it keeps hits off the bill.
    """

    def __init__(self, knowledge: Any, delay: float = ROUND_TRIP_S):
        self.inner = SimulatedLLM(knowledge=knowledge)
        super().__init__(tokenizer=self.inner.tokenizer)
        self.name = f"delayed({self.inner.name})"
        self.delay = delay
        self._lock = threading.Lock()
        self.round_trips = 0
        self.prompts = 0
        self.wait_s = 0.0
        self.sim_cpu_s = 0.0

    def _account(self, prompts: int, waited: float, cpu: float) -> None:
        with self._lock:
            self.round_trips += 1
            self.prompts += prompts
            self.wait_s += waited
            self.sim_cpu_s += cpu

    def _round_trip(self, prompts: Sequence[str], kind: str):
        started = time.perf_counter()
        if self.delay:
            time.sleep(self.delay)
        waited = time.perf_counter() - started
        cpu_started = time.thread_time()
        texts = [self.inner._complete_text(prompt) for prompt in prompts]
        self._account(len(prompts), waited, time.thread_time() - cpu_started)
        return [self._record(prompt, text, kind) for prompt, text in zip(prompts, texts)]

    def _complete_text(self, prompt: str) -> str:
        # Abstract in LanguageModel; complete() and complete_batch() below
        # are the entry points the stack calls.
        return self._round_trip([prompt], "other")[0].text

    def complete(self, prompt: str, kind: str = "other"):
        return self._round_trip([prompt], kind)[0]

    def complete_batch(self, prompts, kind: str = "other"):
        return self._round_trip(list(prompts), kind)

    def counters(self) -> dict[str, float]:
        with self._lock:
            return {
                "round_trips": self.round_trips,
                "prompts": self.prompts,
                "wait_s": self.wait_s,
                "sim_cpu_s": self.sim_cpu_s,
                "billed_tokens": self.usage.total_tokens,
            }


def build_single(knowledge: Any, delay: float = ROUND_TRIP_S):
    """``repro serve``'s default single-process stack over the delayed backend."""
    from repro.serving import build_service

    return build_service(llm=DelayedBackend(knowledge, delay))


def build_cluster(knowledge: Any, delay: float = ROUND_TRIP_S):
    """``repro serve --cluster --workers 2``'s stack over delayed backends."""
    from repro.cluster import Router

    return Router.local(
        CLUSTER_WORKERS, llm_factory=lambda index: DelayedBackend(knowledge, delay)
    )


def backends(front: Any) -> list[DelayedBackend]:
    """Every delayed backend behind a service or a router."""
    return [service.pipeline.llm.inner for service in services(front)]


def services(front: Any) -> list[Any]:
    workers = getattr(front, "workers", None)
    if workers is None:
        return [front]
    return [worker.service for worker in workers.values()]


def install_tracing(tracer: Any, front: Any) -> None:
    """Record a span around each layer's public entry point.

    Layers: ``router`` (``Router.handle_batch``), ``service``
    (``ServingService.handle_batch``), ``engine`` (``ExecutionEngine.run``),
    ``cache`` (``CachedLLM.complete_batch``) and ``backend`` (the delayed
    backend's ``complete_batch``).  The engine's LLM calls run on the
    batcher's executor thread and cluster workers on their own threads, so
    those layers are linked to their owner for parent lookup.
    """
    from repro.cluster import Router
    from repro.llm.cache import CachedLLM
    from repro.serving.engine import ExecutionEngine
    from repro.serving.service import ServingService

    def wrap(cls: type, name: str, layer: str, describe) -> None:
        original = getattr(cls, name)

        def traced(self, *args, **kwargs):
            args, attrs = describe(args)
            with tracer.span(layer, self, **attrs):
                return original(self, *args, **kwargs)

        traced.__wrapped__ = original
        setattr(cls, name, traced)

    def requests(args):
        batch = list(args[0])
        ids = [r.get("id") for r in batch if isinstance(r, dict)]
        return (batch, *args[1:]), {"requests": len(batch), "ids": ids}

    def engine_run(args):
        pipeline, tasks = args[0], list(args[1])
        return (pipeline, tasks, *args[2:]), {"tasks": len(tasks)}

    def prompts(args):
        batch = list(args[0])
        return (batch, *args[1:]), {"prompts": len(batch)}

    wrap(Router, "handle_batch", "router", requests)
    wrap(ServingService, "handle_batch", "service", requests)
    wrap(ExecutionEngine, "run", "engine", engine_run)
    wrap(CachedLLM, "complete_batch", "cache", prompts)
    wrap(DelayedBackend, "complete_batch", "backend", prompts)
    for service in services(front):
        if front is not service:
            tracer.link(service, front)
        tracer.link(service.pipeline.llm, service.engine)
