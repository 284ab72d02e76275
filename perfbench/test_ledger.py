"""Self-tests of the benchmark's measurement helpers (``perfbench/ledger.py``)."""

import threading

import pytest

from perfbench.ledger import (
    Span,
    Tracer,
    blocking_path,
    children_index,
    covered,
    median,
    poisson_schedule,
    quantile,
    self_time,
    tail_quantile,
)


def test_quantile_is_nearest_rank_with_its_sample_count():
    values = list(range(1, 101))  # 1..100, shuffled order must not matter
    values.reverse()
    p50 = quantile(values, 50)
    assert (p50.value, p50.n, p50.beyond) == (50, 100, 50)
    p99 = quantile(values, 99)
    assert (p99.value, p99.beyond) == (99, 1)
    assert quantile([7.0], 95).value == 7.0
    with pytest.raises(ValueError):
        quantile([], 50)
    with pytest.raises(ValueError):
        quantile([1.0], 0)


def test_tail_quantile_needs_ten_samples_beyond():
    assert tail_quantile(list(range(1000))).q == 99.0  # 10 beyond the 990th
    assert tail_quantile(list(range(999))).q == 95.0  # p99 would leave 9
    assert tail_quantile(list(range(5))).q == 50.0  # nothing qualifies


def test_median_averages_the_middle_pair():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5


def test_poisson_schedule_is_seeded_bounded_and_at_rate():
    first = poisson_schedule(50.0, 200.0, seed=3)
    assert first == poisson_schedule(50.0, 200.0, seed=3)
    assert first != poisson_schedule(50.0, 200.0, seed=4)
    assert len(first) == 10_000 == len(poisson_schedule(50.0, 200.0, seed=4))
    assert all(0 <= a <= b < 200.0 for a, b in zip(first, first[1:]))
    # Poisson gaps are exponential: mean 1/rate, and about e^-1 of them
    # exceed the mean (a fixed-interval schedule would give none or all).
    gaps = [b - a for a, b in zip(first, first[1:])]
    assert abs(sum(gaps) / len(gaps) - 1 / 50.0) < 0.001
    long_share = sum(gap > 1 / 50.0 for gap in gaps) / len(gaps)
    assert abs(long_share - 0.3679) < 0.02
    with pytest.raises(ValueError):
        poisson_schedule(0.0, 1.0, seed=0)


def test_covered_merges_overlaps_and_clips_to_the_window():
    assert covered(0, 10, [(1, 3), (2, 5), (8, 12)]) == 6
    assert covered(0, 10, []) == 0
    assert covered(0, 10, [(-5, 20)]) == 10


def test_self_time_subtracts_the_union_of_children():
    parent = Span(1, "service", 0.0, 10.0)
    children = [Span(2, "engine", 1.0, 3.0, 1), Span(3, "engine", 2.0, 5.0, 1)]
    assert self_time(parent, children) == pytest.approx(6.0)
    assert self_time(parent, []) == pytest.approx(10.0)


def test_blocking_path_follows_the_last_finishing_child_and_adds_up():
    root = Span(1, "router", 0.0, 10.0)
    fast = Span(2, "fast", 1.0, 4.0, 1)
    slow = Span(3, "slow", 2.0, 9.0, 1)
    inner = Span(4, "inner", 3.0, 5.0, 3)
    ledger = blocking_path(root, children_index([root, fast, slow, inner]))
    # root: 9..10 and 0..1; slow: 2..3 and 5..9; inner: 3..5; fast only
    # 1..2, where it is the one still running.
    assert ledger == pytest.approx({"router": 2.0, "slow": 5.0, "inner": 2.0, "fast": 1.0})
    assert sum(ledger.values()) == pytest.approx(root.duration)


def test_blocking_path_clips_children_that_overrun_their_parent():
    root = Span(1, "client", 0.0, 4.0)
    child = Span(2, "service", 1.0, 6.0, 1)
    ledger = blocking_path(root, children_index([root, child]))
    assert ledger == pytest.approx({"client": 1.0, "service": 3.0})


def test_tracer_nests_on_a_thread_and_links_across_threads():
    tracer = Tracer(sid_base=100)
    owner, worker_obj = object(), object()
    tracer.link(worker_obj, owner)

    def worker():
        with tracer.span("worker", worker_obj):
            pass

    with tracer.span("outer", owner) as outer:
        with tracer.span("inner") as inner:
            pass
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive()
    spans = {span.layer: span for span in tracer.spans}
    assert outer.sid == 100 and outer.parent is None
    assert inner.parent == outer.sid
    assert spans["worker"].parent == outer.sid
    assert outer.start <= inner.start <= inner.end <= outer.end
    recorded = tracer.record("client", 1.0, 2.0, ids=[7])
    assert recorded.parent is None and recorded.attrs == {"ids": [7]}
    assert [Span.from_payload(p) for p in tracer.dump()] == tracer.spans
