"""Pure helpers shared by the benchmark runner, its child processes and
``compare.py``: percentile, block-tail and spread statistics, open-loop
lateness accounting, operation/check outcome counting, a garbage-collection
watch, a span tracer with self-time subtraction, and the environment record
stamped on every result.

Nothing here imports ``repro``; the unit tests in ``test_benchlib.py`` drive
every helper with fake clocks and hand-built spans.
"""

from __future__ import annotations

import gc
import inspect
import math
import os
import platform
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Candidate tail percentiles, lowest first.
TAIL_LADDER = (50.0, 75.0, 80.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.8, 99.9)

#: A tail percentile must leave at least this many samples beyond it.
MIN_BEYOND = 10


# --------------------------------------------------------------------------- #
# Percentiles
# --------------------------------------------------------------------------- #
def beyond_count(n: int, percentile: float) -> int:
    """Samples strictly beyond the nearest-rank ``percentile`` of ``n`` samples."""
    rank = math.ceil(round(percentile / 100.0 * n, 9))
    return n - max(rank, 1)


def tail_percentile(
    planned_samples: int,
    min_beyond: int = MIN_BEYOND,
    ladder: Sequence[float] = TAIL_LADDER,
) -> float:
    """The highest ladder percentile leaving ``min_beyond`` planned samples beyond it.

    Each workload fixes its tail percentile from the sample count it plans
    for, so the percentile does not move between runs.
    """
    best = None
    for percentile in ladder:
        if beyond_count(planned_samples, percentile) >= min_beyond:
            best = percentile
    if best is None:
        raise ValueError(
            f"{planned_samples} samples leave fewer than {min_beyond} beyond any "
            f"percentile in {tuple(ladder)}"
        )
    return best


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``p``% at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = math.ceil(round(p / 100.0 * len(ordered), 9))
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def block_tail(values: Sequence[float], p: float, blocks: int) -> Tuple[float, List[float]]:
    """Median over ``blocks`` consecutive equal slices of each slice's ``p``-th percentile.

    ``values`` are in time order, so a slice is a stretch of the run.  A host
    slow spell of a few seconds stretches the tail of the slices it covers;
    the median over slices leaves it out, while a tail the program causes
    all through the run shows in every slice.  Returns ``(tail, per_slice)``.
    """
    size = len(values) // blocks
    if size == 0:
        raise ValueError(f"{len(values)} samples cannot fill {blocks} blocks")
    tails = [percentile(values[i * size:(i + 1) * size], p) for i in range(blocks)]
    return statistics.median(tails), tails


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        value = float(values[0])
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median (0 for a constant series)."""
    q1, mid, q3 = quartiles(values)
    if mid == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(mid)


# --------------------------------------------------------------------------- #
# Open-loop load generation
# --------------------------------------------------------------------------- #
def open_loop(
    send: Callable[[int, float], None],
    count: int,
    rate: float,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> Tuple[float, List[float]]:
    """Send ``count`` requests on a fixed schedule of ``rate`` per second.

    Request ``i`` is due at ``start + i / rate`` whatever happened before it;
    the generator sleeps until then, or sends at once when it is already
    late.  ``send(i, due)`` must not block on the answer.  Returns
    ``(start, lateness)``: how many seconds after its due time each request
    was actually handed to ``send``.
    """
    start = clock()
    lateness: List[float] = []
    for i in range(count):
        due = start + i / rate
        now = clock()
        if now < due:
            sleep(due - now)
            now = clock()
        lateness.append(max(0.0, now - due))
        send(i, due)
    return start, lateness


def latencies_from_due(due: Sequence[float], done: Sequence[Optional[float]]) -> List[float]:
    """Per-request latency counted from the scheduled send, not the actual one.

    A stall that makes the generator late shows up in every delayed
    request's latency.  Requests that never finished (``None``) are left out:
    they count as failed operations instead.
    """
    return [end - start for start, end in zip(due, done) if end is not None]


# --------------------------------------------------------------------------- #
# Outcome counting
# --------------------------------------------------------------------------- #
class Outcomes:
    """Attempted/failed operations plus named output checks.

    Rejected, raised, non-finite and failed-check operations all count as
    failed; a failed check also marks the run incorrect.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: Dict[str, bool] = {}
        self.failures: List[str] = []

    def record(self, ok: bool, reason: str = "operation failed") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(reason)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """A correctness check over the outputs; failing it adds a failed operation."""
        self.checks[name] = bool(ok)
        if not ok:
            self.failed += 1
            self.failures.append(f"check {name} failed {detail}".strip())

    @property
    def correct(self) -> bool:
        return all(self.checks.values()) and self.failed == 0

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


class GcWatch:
    """Counts and times the interpreter's garbage collections while active.

    A collection holds the interpreter lock, so every thread stalls for its
    duration; the longest one bounds how far one pause can push a tail.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.counts = [0, 0, 0]
        self.seconds = [0.0, 0.0, 0.0]
        self.longest = 0.0
        self._started: Optional[float] = None

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = self.clock()
        elif self._started is not None:
            elapsed = self.clock() - self._started
            self.counts[info["generation"]] += 1
            self.seconds[info["generation"]] += elapsed
            self.longest = max(self.longest, elapsed)
            self._started = None

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)

    def as_dict(self) -> Dict[str, object]:
        return {
            "collections": list(self.counts),
            "pause_ms": [round(s * 1e3, 3) for s in self.seconds],
            "longest_pause_ms": round(self.longest * 1e3, 3),
        }


# --------------------------------------------------------------------------- #
# Span tracing
# --------------------------------------------------------------------------- #
class Tracer:
    """Nested, thread-local spans on an integer nanosecond clock.

    ``wrap`` replaces a function at the attribute its caller resolves with a
    timing wrapper; ``unwrap_all`` puts every original back.  Span
    records are ``[name, parent_index, start_ns, end_ns]``; self time is
    computed after the run by :func:`span_summary`.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()  # several threads may open spans at once
        self._restore: List[Callable[[], None]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        record = [name, stack[-1] if stack else None, None, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        record[2] = self.clock()
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][3] = self.clock()
        self._stack().pop()

    def timed(self, name: str, func: Callable) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            try:
                return func(*args, **kwargs)
            finally:
                tracer.end(index)

        wrapper.__wrapped__ = func
        return wrapper

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` (or ``owner[attr]`` for a dict) until :meth:`unwrap_all`."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = replacement
            self._restore.append(lambda: owner.__setitem__(attr, original))
        else:
            original = inspect.getattr_static(owner, attr)
            setattr(owner, attr, replacement)
            self._restore.append(lambda: setattr(owner, attr, original))

    def wrap(self, owner, attr: str, name: str) -> None:
        """Time every call made through ``owner.attr`` (module, class or dict)."""
        if isinstance(owner, dict):
            self.patch(owner, attr, self.timed(name, owner[attr]))
            return
        static = inspect.getattr_static(owner, attr)
        if isinstance(static, classmethod):
            replacement = classmethod(self.timed(name, static.__func__))
        elif isinstance(static, staticmethod):
            replacement = staticmethod(self.timed(name, static.__func__))
        else:
            replacement = self.timed(name, static)
        self.patch(owner, attr, replacement)

    def unwrap_all(self) -> None:
        while self._restore:
            self._restore.pop()()


def span_summary(spans: Sequence[list]) -> Dict[str, Dict[str, int]]:
    """Per span name: ``count``, ``total_ns``, ``children_ns`` and ``self_ns``.

    A span's self time is its duration minus the durations of its direct
    children; children nest inside their parent on one thread, so they cover
    disjoint parts of its interval.  On the integer clock
    ``self_ns + children_ns == total_ns`` holds exactly for every name.
    """
    children = defaultdict(int)
    for name, parent, start, end in spans:
        if parent is not None and end is not None:
            children[parent] += end - start
    summary: Dict[str, Dict[str, int]] = {}
    for index, (name, parent, start, end) in enumerate(spans):
        if end is None:
            continue
        entry = summary.setdefault(
            name, {"count": 0, "total_ns": 0, "children_ns": 0, "self_ns": 0}
        )
        duration = end - start
        entry["count"] += 1
        entry["total_ns"] += duration
        entry["children_ns"] += children[index]
        entry["self_ns"] += duration - children[index]
    return summary


def self_time_consistent(summary: Dict[str, Dict[str, int]]) -> bool:
    """Every operation's self time plus its children equals its total, and no
    self time is negative (a negative one means spans did not nest)."""
    return all(
        entry["self_ns"] + entry["children_ns"] == entry["total_ns"] and entry["self_ns"] >= 0
        for entry in summary.values()
    )


# --------------------------------------------------------------------------- #
# Environment record
# --------------------------------------------------------------------------- #
#: Thread-count variables pinned to 1 in every workload process.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def peak_rss_mb() -> float:
    """This process's own peak resident set (``VmHWM``), in MiB."""
    with open("/proc/self/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text(encoding="ascii").strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    try:
        return (root / ".git" / ref).read_text(encoding="ascii").strip()
    except OSError:
        pass
    packed = root / ".git" / "packed-refs"
    try:
        for line in packed.read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def environment_record(root: Path, seed: int, env: Dict[str, str]) -> Dict[str, object]:
    """Where a result came from; ``env`` is the workload processes' environment."""
    import numpy

    return {
        "git_sha": git_sha(root),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {key: env.get(key) for key in BLAS_ENV},
        "pythonhashseed": env.get("PYTHONHASHSEED"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": sys.platform,
        "seed": seed,
    }
