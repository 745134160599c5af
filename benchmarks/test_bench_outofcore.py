"""Benchmark for the out-of-core corpus engine (format-v3 shard stores).

Three claims are recorded (``latest/outofcore.txt``):

1. **Encode fan-out** — ``BagEncoder.encode_store(bags, workers=2)`` against
   the serial vectorized encoder over the same streamed bags.  Parity is
   asserted (parallel output bitwise equal to serial); the speedup is
   *recorded, not asserted* — on a single-CPU runner forked workers time-slice
   one core and legitimately show no gain, and the table should say so rather
   than a skipped assert pretending otherwise.
2. **End-to-end out-of-core run** — a child process loads a saved synthetic
   store, trains a few batches and serves a slice, once fully in RAM and once
   memmapped.  Per-stage wall-clock and each child's peak RSS are recorded,
   and the two modes must agree bit-for-bit on the training loss and the
   served-probability checksum.
3. **Memory budget** — the same probe under a hard ``RLIMIT_DATA`` cap: the
   memmapped run completes inside a budget the in-RAM run cannot even load
   under (exit code 3 = ``MemoryError``).

Scale comes from ``REPRO_BENCH_PROFILE``; the ``huge`` profile streams a
million-bag corpus through the store.  When the streamed encode corpus is
capped below the profile's bag count the cap is printed in the report.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.corpus.loader import BagEncoder
from repro.corpus.store import CorpusStore
from repro.corpus.stream import (
    DEFAULT_VOCAB_SIZE,
    stream_bags,
    synthetic_store,
    synthetic_vocabulary,
)
from repro.utils.tables import format_table

from conftest import SEED, write_report

PROFILE = os.environ.get("REPRO_BENCH_PROFILE", "small").lower()

# (bags streamed through the encode benchmark, bags in the on-disk store,
#  RLIMIT_DATA budget for the probe children, MiB)
_SIZES = {
    "tiny": (2_000, 150_000, 32),
    "small": (6_000, 150_000, 32),
    "medium": (12_000, 400_000, 48),
    "huge": (50_000, 1_000_000, 64),
}
ENCODE_BAGS, STORE_BAGS, BUDGET_MB = _SIZES.get(PROFILE, _SIZES["small"])

# The encode benchmark materialises its bag list, so it is capped well below
# the store size; the store itself is generated vectorized and saved sharded.
ENCODE_WORKERS = 2
TRAIN_BATCHES = 2
SERVE_BAGS = 64

ALL_COLUMNS = [
    "token_ids", "head_position_ids", "tail_position_ids", "segment_ids",
    "sentence_offsets", "bag_offsets", "bag_widths", "labels",
    "head_entity_ids", "tail_entity_ids", "relation_ids", "relation_offsets",
    "head_type_ids", "head_type_offsets", "tail_type_ids", "tail_type_offsets",
]


def _dir_size_mb(path: Path) -> float:
    return sum(f.stat().st_size for f in path.iterdir()) / (1024 * 1024)


def _probe(store: Path, mode: str, budget_mb: int) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    return subprocess.run(
        [
            sys.executable, "-m", "repro.corpus.stream",
            "--store", str(store), "--mode", mode, "--budget-mb", str(budget_mb),
            "--train-batches", str(TRAIN_BATCHES), "--serve-bags", str(SERVE_BAGS),
            "--vocab-size", str(DEFAULT_VOCAB_SIZE),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=1800,
    )


def test_outofcore_engine():
    rows = []

    # ------------------------------------------------------------------ #
    # Stage 1: serial vs forked-worker encode over streamed bags
    # ------------------------------------------------------------------ #
    bags = list(stream_bags(ENCODE_BAGS, seed=SEED))
    encoder = BagEncoder(synthetic_vocabulary(DEFAULT_VOCAB_SIZE))

    start = time.perf_counter()
    serial = encoder.encode_store(bags)
    serial_seconds = time.perf_counter() - start
    start = time.perf_counter()
    parallel = encoder.encode_store(bags, workers=ENCODE_WORKERS)
    parallel_seconds = time.perf_counter() - start

    # Parity before any timing claims: fan-out must change nothing.
    for name in ALL_COLUMNS:
        np.testing.assert_array_equal(
            np.asarray(getattr(parallel, name)),
            np.asarray(getattr(serial, name)),
            err_msg=name,
        )
    rows.append(["encode serial", f"{len(bags)} bags", f"{serial_seconds:.2f}s", "-"])
    rows.append([
        f"encode workers={ENCODE_WORKERS}",
        f"{len(bags)} bags",
        f"{parallel_seconds:.2f}s",
        f"{serial_seconds / parallel_seconds:.2f}x vs serial",
    ])

    with tempfile.TemporaryDirectory(prefix="repro-bench-ooc-") as scratch:
        store_dir = Path(scratch) / "store"

        # -------------------------------------------------------------- #
        # Stage 2: build + persist the big synthetic store
        # -------------------------------------------------------------- #
        start = time.perf_counter()
        store = synthetic_store(STORE_BAGS, seed=SEED)
        generate_seconds = time.perf_counter() - start
        start = time.perf_counter()
        store.save_sharded(store_dir)
        save_seconds = time.perf_counter() - start
        disk_mb = _dir_size_mb(store_dir)
        rows.append([
            "generate store", f"{STORE_BAGS} bags", f"{generate_seconds:.2f}s", "-",
        ])
        rows.append([
            "save sharded (v3)", f"{disk_mb:.0f} MiB on disk", f"{save_seconds:.2f}s", "-",
        ])
        del store

        # -------------------------------------------------------------- #
        # Stage 3: end-to-end child runs, in-RAM vs memmapped
        # -------------------------------------------------------------- #
        reports = {}
        for mode in ("ram", "mmap"):
            result = _probe(store_dir, mode, budget_mb=0)
            assert result.returncode == 0, (mode, result.stderr)
            reports[mode] = json.loads(result.stdout)
            report = reports[mode]
            rows.append([
                f"end-to-end ({mode})",
                f"load {report['load_s']:.2f}s + train {report['train_s']:.2f}s"
                f" + serve {report['serve_s']:.2f}s",
                f"{report['load_s'] + report['train_s'] + report['serve_s']:.2f}s",
                f"peak RSS {report['peak_rss_kb'] / 1024:.0f} MiB",
            ])
        # The two modes must be the *same computation*.
        assert reports["ram"]["train_loss"] == reports["mmap"]["train_loss"]
        assert reports["ram"]["prob_checksum"] == reports["mmap"]["prob_checksum"]
        rss_ratio = reports["mmap"]["peak_rss_kb"] / reports["ram"]["peak_rss_kb"]
        rows.append([
            "peak RSS ratio", "mmap / ram", f"{rss_ratio:.2f}", "recorded, not asserted",
        ])

        # -------------------------------------------------------------- #
        # Stage 4: hard RLIMIT_DATA budget
        # -------------------------------------------------------------- #
        budget_mmap = _probe(store_dir, "mmap", budget_mb=BUDGET_MB)
        budget_ram = _probe(store_dir, "ram", budget_mb=BUDGET_MB)
        mmap_note = (
            f"exit {budget_mmap.returncode}"
            + (" (completed)" if budget_mmap.returncode == 0 else "")
        )
        ram_note = (
            f"exit {budget_ram.returncode}"
            + (" (MemoryError)" if budget_ram.returncode == 3 else "")
        )
        rows.append([
            f"budget {BUDGET_MB} MiB (mmap)", f"{STORE_BAGS} bags", mmap_note, "-",
        ])
        rows.append([
            f"budget {BUDGET_MB} MiB (ram)", f"{STORE_BAGS} bags", ram_note, "-",
        ])
        assert budget_mmap.returncode == 0, budget_mmap.stderr

    title = (
        f"Out-of-core corpus engine (profile={PROFILE}, encode corpus capped at "
        f"{ENCODE_BAGS} of {STORE_BAGS} store bags, train_batches={TRAIN_BATCHES}, "
        f"serve_bags={SERVE_BAGS}, cpu_count={os.cpu_count()})"
    )
    write_report(
        "outofcore",
        format_table(["stage", "size", "time / outcome", "note"], rows, title=title),
    )


def test_memmapped_store_reload_is_lazy(tmp_path):
    """Loading a saved store memmapped touches none of the column bytes."""
    store = synthetic_store(100_000, seed=SEED)
    target = tmp_path / "store"
    store.save_sharded(target)

    start = time.perf_counter()
    mapped = CorpusStore.load(target, mmap=True)
    mapped_seconds = time.perf_counter() - start
    start = time.perf_counter()
    in_ram = CorpusStore.load(target)
    ram_seconds = time.perf_counter() - start

    assert isinstance(mapped.token_ids, np.memmap)
    # Spot parity on a random slice, then require the mapped open to be at
    # least as fast as the full read (it does no column I/O at all).
    rng = np.random.default_rng(SEED)
    indices = rng.choice(len(store), size=256, replace=False)
    np.testing.assert_array_equal(
        np.asarray(mapped.labels[indices]), np.asarray(in_ram.labels[indices])
    )
    assert mapped_seconds <= ram_seconds * 2, (mapped_seconds, ram_seconds)
