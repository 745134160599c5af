"""Unit tests of the benchmark's own helpers: tail-percentile selection,
open-loop lateness accounting, self-time subtraction, outcome counting and
the comparison verdicts.  Fake clocks only; nothing here is timed."""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchlib  # noqa: E402
import compare  # noqa: E402


# --------------------------------------------------------------------------- #
# Tail percentile selection
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "planned, expected",
    [
        (20, 50.0),      # 10 beyond p50; p75 would leave 5
        (50, 80.0),      # 10 beyond p80; p90 would leave 5
        (100, 90.0),
        (999, 98.0),     # p99 would leave 9
        (1000, 99.0),
        (2000, 99.5),
        (5000, 99.8),
        (10000, 99.9),
    ],
)
def test_tail_percentile_is_highest_with_ten_beyond(planned, expected):
    chosen = benchlib.tail_percentile(planned)
    assert chosen == expected
    assert benchlib.beyond_count(planned, chosen) >= benchlib.MIN_BEYOND
    higher = [p for p in benchlib.TAIL_LADDER if p > chosen]
    assert all(benchlib.beyond_count(planned, p) < benchlib.MIN_BEYOND for p in higher)


@pytest.mark.parametrize(
    "planned, min_beyond, expected", [(5000, 50, 99.0), (4000, 50, 98.0), (50, 10, 80.0)]
)
def test_tail_percentile_with_more_samples_beyond(planned, min_beyond, expected):
    assert benchlib.tail_percentile(planned, min_beyond) == expected


def test_tail_percentile_refuses_too_few_samples():
    with pytest.raises(ValueError):
        benchlib.tail_percentile(19)


def test_nearest_rank_percentile_leaves_beyond_count_samples_above():
    values = list(range(1, 101))  # 1..100
    assert benchlib.percentile(values, 90.0) == 90
    assert sum(v > 90 for v in values) == benchlib.beyond_count(100, 90.0) == 10
    assert benchlib.percentile(values, 50.0) == 50
    assert benchlib.percentile([7.0], 99.0) == 7.0


def test_block_tail_ignores_a_slow_spell_but_not_a_steady_tail():
    quiet = [1.0] * 90 + [2.0] * 10          # p90 of a block is 1.0, p95 is 2.0
    slow_spell = [5.0] * 100                  # one block where the host was slow
    values = quiet + quiet + slow_spell + quiet + quiet
    tail, per_block = benchlib.block_tail(values, 95.0, 5)
    assert per_block == [2.0, 2.0, 5.0, 2.0, 2.0]
    assert tail == 2.0
    assert benchlib.percentile(values, 95.0) == 5.0  # the whole-run tail is the spell
    with pytest.raises(ValueError):
        benchlib.block_tail([1.0, 2.0], 95.0, 5)


def test_relative_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    q1, mid, q3 = benchlib.quartiles(values)
    assert (q1, mid, q3) == (10.5, 12.0, 13.5)
    assert benchlib.relative_spread(values) == pytest.approx(3.0 / 12.0)
    assert benchlib.relative_spread([1.0, 1.0, 1.0]) == 0.0


# --------------------------------------------------------------------------- #
# Open-loop lateness accounting
# --------------------------------------------------------------------------- #
class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_open_loop_sends_on_schedule_when_on_time():
    clock = FakeClock()
    sent = []
    start, lateness = benchlib.open_loop(
        lambda i, due: sent.append((i, due, clock())), 4, rate=10.0,
        clock=clock, sleep=clock.sleep,
    )
    assert start == 100.0
    assert [due for _, due, _ in sent] == pytest.approx([100.0, 100.1, 100.2, 100.3])
    assert [at for _, _, at in sent] == pytest.approx([100.0, 100.1, 100.2, 100.3])
    assert lateness == pytest.approx([0.0, 0.0, 0.0, 0.0])


def test_open_loop_stall_makes_later_requests_late_and_keeps_schedule():
    clock = FakeClock()
    dues = []

    def send(i, due):
        dues.append(due)
        if i == 1:
            clock.now += 0.25  # the generator stalls for 250 ms inside send

    _, lateness = benchlib.open_loop(send, 5, rate=10.0, clock=clock, sleep=clock.sleep)
    # Request 2 was due at +0.2 but could only go at +0.35; request 3 (due
    # +0.3) goes right after it; request 4 (due +0.4) is on time again.
    assert lateness == pytest.approx([0.0, 0.0, 0.15, 0.05, 0.0])
    assert dues == pytest.approx([100.0, 100.1, 100.2, 100.3, 100.4])


def test_latency_counts_from_scheduled_send_and_skips_unfinished():
    due = [0.0, 0.1, 0.2]
    done = [0.01, None, 0.5]  # request 2 waited behind a stall
    assert benchlib.latencies_from_due(due, done) == pytest.approx([0.01, 0.3])


# --------------------------------------------------------------------------- #
# Self-time subtraction
# --------------------------------------------------------------------------- #
class TickClock:
    """Integer clock advanced by hand."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_is_duration_minus_direct_children():
    clock = TickClock()
    tracer = benchlib.Tracer(clock=clock)
    root = tracer.begin("op")
    clock.now = 10
    child = tracer.begin("child")
    clock.now = 40
    grandchild = tracer.begin("grandchild")
    clock.now = 55
    tracer.end(grandchild)
    clock.now = 60
    tracer.end(child)
    clock.now = 70
    second = tracer.begin("child")
    clock.now = 90
    tracer.end(second)
    clock.now = 100
    tracer.end(root)

    summary = benchlib.span_summary(tracer.spans)
    assert summary["op"] == {"count": 1, "total_ns": 100, "children_ns": 70, "self_ns": 30}
    assert summary["child"] == {"count": 2, "total_ns": 70, "children_ns": 15, "self_ns": 55}
    assert summary["grandchild"]["self_ns"] == 15
    assert benchlib.self_time_consistent(summary)


def test_self_time_check_rejects_overlapping_children():
    spans = [["op", None, 0, 10], ["a", 0, 0, 8], ["b", 0, 2, 9]]  # children overlap
    assert not benchlib.self_time_consistent(benchlib.span_summary(spans))


def test_spans_from_several_threads_each_get_their_own_record():
    tracer = benchlib.Tracer()
    inner = tracer.timed("inner", lambda: None)
    outer = tracer.timed("outer", lambda: [inner() for _ in range(3)])
    threads = [
        threading.Thread(target=lambda: [outer() for _ in range(500)]) for _ in range(4)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a race would show
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert all(span[3] is not None for span in tracer.spans)
    summary = benchlib.span_summary(tracer.spans)
    assert summary["outer"]["count"] == 2000
    assert summary["inner"]["count"] == 6000
    assert benchlib.self_time_consistent(summary)


class Greeter:
    def hello(self, name):
        return f"hello {name}"

    @classmethod
    def make(cls):
        return cls()


def test_wrap_times_methods_and_classmethods_then_restores():
    tracer = benchlib.Tracer()
    original = Greeter.__dict__["hello"]
    tracer.wrap(Greeter, "hello", "greet")
    tracer.wrap(Greeter, "make", "make")
    builders = {"x": lambda: 3}
    tracer.wrap(builders, "x", "build")
    assert Greeter.make().hello("a") == "hello a"
    assert builders["x"]() == 3
    assert [span[0] for span in tracer.spans] == ["make", "greet", "build"]
    tracer.unwrap_all()
    assert Greeter.__dict__["hello"] is original
    assert isinstance(Greeter.__dict__["make"], classmethod)
    assert Greeter.make().hello("b") == "hello b"
    assert len(tracer.spans) == 3


# --------------------------------------------------------------------------- #
# error_rate counting
# --------------------------------------------------------------------------- #
def test_error_rate_counts_failures_and_failed_checks():
    outcomes = benchlib.Outcomes()
    for ok in (True, True, False, True):
        outcomes.record(ok, "rejected")
    assert outcomes.attempted == 4 and outcomes.failed == 1
    assert outcomes.error_rate == 0.25
    assert not outcomes.correct
    outcomes.check("rows_sum_to_one", False, "max diff 1e-3")
    assert outcomes.failed == 2 and outcomes.error_rate == 0.5
    assert outcomes.checks == {"rows_sum_to_one": False}


def test_clean_run_is_correct_with_zero_error_rate():
    outcomes = benchlib.Outcomes()
    for _ in range(3):
        outcomes.record(True)
    outcomes.check("answers_match", True)
    assert outcomes.correct and outcomes.error_rate == 0.0


def test_nothing_attempted_is_all_errors():
    assert benchlib.Outcomes().error_rate == 1.0


# --------------------------------------------------------------------------- #
# Comparison verdicts
# --------------------------------------------------------------------------- #
LOWER = {"name": "latency_p50_ms", "better": "lower", "bound": 0.1}
HIGHER = {"name": "bags_per_s", "better": "higher", "bound": 0.1}


def test_verdict_agree_within_bound():
    assert compare.verdict(LOWER, [10.0, 10.1, 9.9, 10.0], [10.5, 10.4, 10.6, 10.5]) == "agree"


def test_verdict_worse_beyond_bound_in_either_direction():
    assert compare.verdict(LOWER, [10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.0]) == "worse"
    assert compare.verdict(HIGHER, [100.0, 101.0, 99.0, 100.0], [80.0, 81.0, 79.0, 80.0]) == "worse"


def test_verdict_unresolved_when_spread_exceeds_bound():
    noisy = [5.0, 10.0, 15.0, 20.0]
    assert compare.verdict(LOWER, [10.0, 10.0, 10.0, 10.0], noisy) == "unresolved"


def test_verdict_agree_when_every_new_run_beats_every_base_run():
    assert benchlib.relative_spread([10.0, 14.0, 18.0, 20.0]) > LOWER["bound"]
    assert compare.verdict(LOWER, [10.0, 14.0, 18.0, 20.0], [5.0, 6.0, 8.0, 9.0]) == "agree"
