"""Acceptance test: 8-worker work-stealing Eclat beats serial by ≥4× —
and is bit-identical while doing so.

The speedup assertion needs real cores; on hosts with fewer than eight
available CPUs (e.g. single-core CI sandboxes or ``taskset``-restricted
shells) it is skipped, while the bit-identical half still runs
everywhere.
"""

from __future__ import annotations

import os
import time

import pytest

try:
    _AVAILABLE_CPUS = len(os.sched_getaffinity(0))
except AttributeError:  # pragma: no cover - non-Linux
    _AVAILABLE_CPUS = os.cpu_count() or 1

STEAL_WORKERS = 8
STEAL_MIN_SPEEDUP = 4.0


@pytest.mark.skipif(
    _AVAILABLE_CPUS < STEAL_WORKERS,
    reason=(
        f"needs >= {STEAL_WORKERS} available CPUs, have {_AVAILABLE_CPUS}"
    ),
)
def test_eight_worker_steal_at_least_4x_on_skewed_workload():
    """The PR 6 acceptance floor: stolen depth-2 subtree tasks over the
    shared-memory store reach ≥4× serial at 8 workers on the skewed
    dense-block family (``benchmarks/bench_steal.py``'s workload)."""
    from benchmarks.bench_steal import SKEWED, skewed_database

    from repro.mining.eclat import eclat
    from repro.parallel.eclat import eclat_parallel

    database = skewed_database()
    threshold = SKEWED["threshold_rows"]

    best_parallel = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        parallel = eclat_parallel(
            database, threshold, workers=STEAL_WORKERS
        )
        best_parallel = min(best_parallel, time.perf_counter() - start)

    best_serial = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        serial = eclat(database, threshold)
        best_serial = min(best_serial, time.perf_counter() - start)

    # Bit-identical first: a fast wrong answer is worthless.
    assert parallel.interesting == serial.interesting
    assert parallel.maximal == serial.maximal
    assert parallel.negative_border == serial.negative_border
    assert parallel.supports == serial.supports
    assert parallel.queries == serial.queries

    speedup = best_serial / best_parallel
    assert speedup >= STEAL_MIN_SPEEDUP, (
        f"8-worker stealing Eclat only {speedup:.2f}x faster than serial "
        f"(serial {best_serial:.3f}s, parallel {best_parallel:.3f}s); "
        f"acceptance floor is {STEAL_MIN_SPEEDUP}x"
    )


def test_steal_workload_parallel_is_bit_identical_everywhere():
    """The correctness half of the steal acceptance criterion, ungated.

    A scaled-down skewed dense-block database through the real
    8-worker stealing path — asserting every result field including
    Theorem 10/21 accounting.
    """
    import random

    from repro.datasets.transactions import TransactionDatabase
    from repro.mining.eclat import eclat
    from repro.obs.tracer import Tracer
    from repro.parallel.eclat import eclat_parallel
    from repro.util.bitset import Universe

    class _Done(Tracer):
        def __init__(self):
            self.done = []

        def event(self, name, **attrs):
            if name == "eclat.done":
                self.done.append(attrs)

    rng = random.Random(4242)
    rows = []
    for _ in range(600):
        row = 0
        if rng.random() < 0.8:
            for item in range(10):
                if rng.random() < 0.8:
                    row |= 1 << item
        for item in range(10, 24):
            if rng.random() < 0.05:
                row |= 1 << item
        rows.append(row)
    database = TransactionDatabase(Universe(range(24)), rows)
    serial = eclat(database, 40)
    serial_done, parallel_done = _Done(), _Done()
    eclat(database, 40, tracer=serial_done)
    parallel = eclat_parallel(
        database, 40, workers=STEAL_WORKERS, tracer=parallel_done
    )
    assert parallel.interesting == serial.interesting
    assert parallel.maximal == serial.maximal
    assert parallel.negative_border == serial.negative_border
    assert parallel.supports == serial.supports
    assert parallel.border_supports == serial.border_supports
    assert parallel.queries == serial.queries
    assert parallel.nodes == serial.nodes
    # The diffset node counts travel in the done events.
    assert parallel_done.done == serial_done.done
