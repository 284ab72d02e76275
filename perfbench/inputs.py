"""Seeded inputs of the three workloads, with the truth to check answers by.

The pools come from the repository's synthetic datasets built with a fixed
dataset seed, so the simulated model's world knowledge (which the serving
process loads at set-up, :func:`world_knowledge`) is the same in every run;
``--seed`` picks which pool entries, which evidence rows and which repeats a
run sends.  Every generated item is an :class:`Item`: the spec the program
receives, plus what the benchmark checks the answer against.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Iterator

#: Dataset seed of the pools; fixed so the backend's knowledge never varies.
POOL_SEED = 0
ER_POOLS = ("beer", "amazon_google", "itunes_amazon", "walmart_amazon")
#: Rows of evidence shipped with an online imputation / detection request.
ONLINE_EVIDENCE_ROWS = 6
#: Rows of evidence shipped with a local-cpu imputation / detection request.
LOCAL_EVIDENCE_ROWS = 20
#: Distinct rows of one bulk table, each present DUPLICATION times.
BULK_DISTINCT_ROWS = 16
BULK_MASKED_ROWS = 4
BULK_DUPLICATION = 3
PHONE_EXAMPLES = (("212-555-0199", "2125550199"), ("415-555-0134", "4155550134"))
BULK_STAGES = (
    {"op": "detect_errors", "column": "phone"},
    {"op": "impute", "column": "city"},
    {"op": "transform", "column": "phone", "examples": [list(p) for p in PHONE_EXAMPLES],
     "output_column": "digits"},
)


@dataclass
class Item:
    """One unit of work: a spec plus what its answer is checked against."""

    spec: Any
    kind: str
    #: Ground truth of the answer (``None`` when the task has none).
    truth: Any = None
    #: Index of the earlier item this one exactly repeats, if any.
    repeat_of: int | None = None
    #: Work units the item stands for (bulk: its table's rows).
    tasks: int = 1


@lru_cache(maxsize=1)
def _pools() -> dict[str, Any]:
    from repro.datasets import load_dataset

    return {
        "restaurant": load_dataset("restaurant", seed=POOL_SEED, n_records=400, n_tasks=200),
        "hospital": load_dataset("hospital", seed=POOL_SEED, n_records=150),
        "stackoverflow": load_dataset("stackoverflow", seed=POOL_SEED, n_cases=300),
        **{name: load_dataset(name, seed=POOL_SEED) for name in ER_POOLS},
    }


def world_knowledge():
    """The simulated model's knowledge: the union of every pool's facts."""
    from repro.llm.knowledge import WorldKnowledge

    knowledge = WorldKnowledge()
    for dataset in _pools().values():
        knowledge = knowledge.merge(dataset.knowledge)
    return knowledge


def _evidence(task, size: int, rng: random.Random) -> tuple[list[dict], dict]:
    """``size`` rows of the task's table including its target, shuffled."""
    rows = task.table().to_dicts()
    target = task.record.to_dict()
    others = [row for row in rows if row != target]
    picked = rng.sample(others, size - 1) + [target]
    rng.shuffle(picked)
    return picked, target


def _imputation(rng: random.Random, size: int) -> Item:
    from repro.api import ImputationSpec

    dataset = _pools()["restaurant"]
    index = rng.randrange(len(dataset.tasks))
    task = dataset.tasks[index]
    rows, target = _evidence(task, size, rng)
    spec = ImputationSpec(rows=rows, target=target, attribute=task.attribute,
                          table_name="restaurant", primary_key="name")
    return Item(spec, "imputation", dataset.ground_truth[index])


def _detection(rng: random.Random, size: int) -> Item:
    from repro.api import ErrorDetectionSpec

    dataset = _pools()["hospital"]
    index = rng.randrange(len(dataset.tasks))
    task = dataset.tasks[index]
    rows, target = _evidence(task, size, rng)
    spec = ErrorDetectionSpec(rows=rows, target=target, attribute=task.attribute,
                              table_name="hospital", primary_key="provider_number")
    return Item(spec, "error_detection", dataset.ground_truth[index])


def _deck(rng: random.Random, size: int) -> Iterator[int]:
    """Indices ``0..size-1`` in shuffled order, reshuffled when used up."""
    while True:
        order = list(range(size))
        rng.shuffle(order)
        yield from order


def _er_pairs() -> int:
    """Distinct resolution specs: every pool pair, in both orders."""
    return 2 * sum(len(_pools()[name].tasks) for name in ER_POOLS)


def _resolution(pair: int) -> Item:
    from repro.api import EntityResolutionSpec

    pools = _pools()
    swapped, pair = divmod(pair, _er_pairs() // 2)
    for name in ER_POOLS:
        dataset = pools[name]
        if pair < len(dataset.tasks):
            break
        pair -= len(dataset.tasks)
    task = dataset.tasks[pair]
    a, b = task.record_a.to_dict(), task.record_b.to_dict()
    if swapped:
        a, b = b, a
    return Item(EntityResolutionSpec(record_a=a, record_b=b), "entity_resolution",
                dataset.ground_truth[pair])


def _transformation(index: int) -> Item:
    from repro.api import TransformationSpec

    dataset = _pools()["stackoverflow"]
    task = dataset.tasks[index]
    spec = TransformationSpec(value=task.source, examples=[list(e) for e in task.examples])
    return Item(spec, "transformation", dataset.ground_truth[index])


def online_items(seed: int, stream: str = "timed") -> Iterator[Item]:
    """The online mix, endless, in shuffled blocks of 20 requests.

    Each block holds four fresh requests of each kind -- transformation and
    entity resolution (context supplied in the request), imputation and
    error detection over a small evidence table (retrieval-heavy) -- plus
    one exact repeat of an earlier request of each kind: 20% repeats.
    Fixing the per-block counts keeps the mix, and so the fast/slow split of
    latencies, identical from seed to seed.  ``stream`` names an independent
    sequence of the same mix (the warm-up draws its own).  Transformations and resolution pairs are dealt from shuffled
    decks, so only the repeats send a spec twice.
    """
    rng = random.Random(f"online:{stream}:{seed}")
    transformations = _deck(rng, len(_pools()["stackoverflow"].tasks))
    pairs = _deck(rng, _er_pairs())
    makers = {
        "transformation": lambda: _transformation(next(transformations)),
        "entity_resolution": lambda: _resolution(next(pairs)),
        "imputation": lambda: _imputation(rng, ONLINE_EVIDENCE_ROWS),
        "error_detection": lambda: _detection(rng, ONLINE_EVIDENCE_ROWS),
    }
    fresh_per_block = 4
    position = 0
    earlier: dict[str, list[tuple[int, Item]]] = {kind: [] for kind in makers}
    first = True
    while True:
        slots = [(kind, False) for kind in makers for _ in range(fresh_per_block)]
        # The first block has nothing to repeat yet; it stays all fresh.
        slots += [(kind, not first) for kind in makers]
        first = False
        rng.shuffle(slots)
        for kind, repeat in slots:
            if repeat:
                index, item = rng.choice(earlier[kind])
                item = Item(item.spec, kind, item.truth, repeat_of=index)
            else:
                item = makers[kind]()
                earlier[kind].append((position, item))
            position += 1
            yield item


def local_items(seed: int) -> Iterator[Item]:
    """Unique imputation, detection and resolution specs, 2:2:1, endless.

    Evidence tables are larger than online's; a spec whose wire form was
    already generated is skipped, so the stream never repeats.  Resolution
    pairs are the only finite source: after 1280 the stream goes on without.
    """
    rng = random.Random(f"local:{seed}")

    seen: set[str] = set()
    order = ["imputation", "error_detection", "imputation", "error_detection", "er"]
    pairs = list(range(_er_pairs()))
    rng.shuffle(pairs)
    while True:
        for kind in order:
            if kind == "er":
                if not pairs:
                    continue
                item = _resolution(pairs.pop())
            else:
                while True:
                    item = (_imputation if kind == "imputation" else _detection)(
                        rng, LOCAL_EVIDENCE_ROWS
                    )
                    key = json.dumps(item.spec.to_request(), sort_keys=True)
                    if key not in seen:
                        seen.add(key)
                        break
            yield item


def expected_phone(phone: str) -> str:
    """The output the bulk transform's examples define for a phone number."""
    return phone.replace("-", "")


def bulk_items(seed: int) -> Iterator[Item]:
    """Distinct restaurant tables, each with every row present three times.

    A table has ``BULK_DISTINCT_ROWS`` listings, ``BULK_MASKED_ROWS`` of
    them with the city masked.  The truth is per output cell the pipeline
    computes: the masked cities, the reformatted phones and (no error was
    injected) ``False`` for every phone error flag; ``None`` marks a cell
    the input already held.
    """
    from repro.api import PipelineSpec

    rng = random.Random(f"bulk:{seed}")
    dataset = _pools()["restaurant"]
    rows = dataset.table.to_dicts()
    truth_of = {
        task.record.to_dict()["name"]: truth
        for task, truth in zip(dataset.tasks, dataset.ground_truth)
    }
    masked = [row for row in rows if row["city"] is None]
    complete = [row for row in rows if row["city"] is not None]
    seen: set[tuple[str, ...]] = set()
    while True:
        picked = rng.sample(masked, BULK_MASKED_ROWS) + rng.sample(
            complete, BULK_DISTINCT_ROWS - BULK_MASKED_ROWS
        )
        key = tuple(sorted(row["name"] for row in picked))
        if key in seen:
            continue
        seen.add(key)
        table = [dict(row) for row in picked for _ in range(BULK_DUPLICATION)]
        rng.shuffle(table)
        truth = [
            {
                "city": truth_of[row["name"]] if row["city"] is None else None,
                "digits": expected_phone(row["phone"]),
                "phone_error": False,
            }
            for row in table
        ]
        spec = PipelineSpec(rows=table, stages=[dict(s) for s in BULK_STAGES],
                            table_name="restaurant_lake", primary_key=None)
        yield Item(spec, "pipeline", truth, tasks=len(table))
