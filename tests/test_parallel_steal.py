"""Determinism suite for the parallel Eclat.

The ordered fold's contract is stronger than "same answer": the fold
order — and with it every budget cut point, trace accounting, and
partial-result frontier — must be **bit-identical to the serial
engine** at every worker count and under every completion order.  This
module drives that contract with hypothesis across random databases,
thresholds, worker counts, and mid-run budget cuts; plus the
serial-fallback path.  The pool's own ordering and crash-retry
behaviour is unit-tested in ``test_parallel_pool.py``.

CI runs this module at ``--workers 2`` and ``--workers 4`` (the pytest
option; see ``tests/conftest.py``).
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.transactions import TransactionDatabase
from repro.mining.eclat import eclat
from repro.obs.monitor import TheoremMonitor
from repro.parallel.eclat import (
    _SPLIT_TAIL,
    _mine_payload,
    _root_class,
    eclat_parallel,
)
from repro.parallel.pool import WorkerPool, WorkerPoolBroken
from repro.runtime.budget import Budget
from repro.runtime.partial import PartialResult
from repro.util.bitset import Universe

# Every example spawns a process pool; keep counts low — the value is
# in the cross-product of structures, not example volume.
EXAMPLES = 6


def _random_database(
    rng: random.Random, n_items: int, n_rows: int
) -> TransactionDatabase:
    universe = Universe(range(n_items))
    rows = [rng.getrandbits(n_items) for _ in range(n_rows)]
    return TransactionDatabase(universe, rows)


def _assert_identical(serial, parallel):
    assert parallel.interesting == serial.interesting
    assert parallel.maximal == serial.maximal
    assert parallel.negative_border == serial.negative_border
    assert parallel.supports == serial.supports
    assert parallel.queries == serial.queries
    assert parallel.nodes == serial.nodes
    assert parallel.diffset_nodes == serial.diffset_nodes


# -- whole-run equivalence ---------------------------------------------


@given(data=st.data())
@settings(max_examples=EXAMPLES, deadline=None)
def test_steal_bit_identical_to_serial(data, worker_count):
    seed = data.draw(st.integers(min_value=0, max_value=2**20))
    n_items = data.draw(st.integers(min_value=1, max_value=12))
    n_rows = data.draw(st.integers(min_value=1, max_value=120))
    threshold = data.draw(st.integers(min_value=1, max_value=12))
    database = _random_database(random.Random(seed), n_items, n_rows)
    serial = eclat(database, threshold)
    parallel = eclat_parallel(database, threshold, workers=worker_count)
    _assert_identical(serial, parallel)


def test_transports_and_schedules_agree(worker_count):
    database = _random_database(random.Random(99), 11, 150)
    serial = eclat(database, 6)
    parallel = eclat_parallel(database, 6, workers=worker_count)
    _assert_identical(serial, parallel)


def test_task_local_maxima_dominated_across_tasks(worker_count):
    # Items 0..5 are all frequent: roots 0 and 1 have tails of 5 and 4
    # and are split into depth-2 tasks, roots 2..4 ship whole.
    # {2,3,4} is maximal within root 2's task but lies under {1,2,3,4}
    # from split task (1, 2); {3,4} is maximal within root 3's task but
    # lies under sets of two other tasks.  Bd+ must still match serial.
    universe = Universe(range(6))
    rows = [0b011110] * 2 + [0b100001] * 2 + [0b000011] * 2
    database = TransactionDatabase(universe, rows)
    members, is_diff = _root_class(database.tidsets_view(), len(rows), 2)
    assert len(members) == 6 and len(members) - 2 >= _SPLIT_TAIL
    assert len(members) - 3 < _SPLIT_TAIL
    local = {
        position: _mine_payload(members, is_diff, 2, {}, position, None)[5]
        for position in (2, 3)
    }
    assert 0b011100 in local[2] and 0b011000 in local[3]

    serial = eclat(database, 2)
    assert 0b011100 not in serial.maximal
    assert 0b011000 not in serial.maximal
    parallel = eclat_parallel(database, 2, workers=worker_count)
    _assert_identical(serial, parallel)


# -- budget cuts --------------------------------------------------------


@given(data=st.data())
@settings(max_examples=EXAMPLES, deadline=None)
def test_budget_cut_partials_identical_everywhere(data, worker_count):
    seed = data.draw(st.integers(min_value=0, max_value=2**20))
    database = _random_database(random.Random(seed), 10, 60)
    full = eclat(database, 4)
    max_queries = data.draw(
        st.integers(min_value=1, max_value=max(1, full.queries - 1))
    )
    partial = eclat_parallel(
        database,
        4,
        workers=worker_count,
        budget=Budget(max_queries=max_queries),
    )
    assert isinstance(partial, PartialResult)
    assert partial.reason == "queries"
    assert partial.queries >= max_queries
    certificate = partial.certificate()
    assert certificate.ok, certificate
    reference = (
        tuple(sorted(partial.history.items())),
        tuple(sorted(partial.frontier)),
        partial.queries,
    )
    # independent of the worker count
    other = eclat_parallel(
        database,
        4,
        workers=worker_count + 1,
        budget=Budget(max_queries=max_queries),
    )
    assert isinstance(other, PartialResult)
    assert (
        tuple(sorted(other.history.items())),
        tuple(sorted(other.frontier)),
        other.queries,
    ) == reference


def test_budget_cut_trace_certified(worker_count):
    database = _random_database(random.Random(12), 10, 80)
    monitor = TheoremMonitor()
    partial = eclat_parallel(
        database,
        5,
        workers=worker_count,
        budget=Budget(max_queries=20),
        tracer=monitor,
    )
    assert isinstance(partial, PartialResult)
    report = monitor.report()
    assert report.ok, report.summary()


# -- tracing and certification -----------------------------------------


def test_monitor_certifies_stolen_trace(worker_count):
    database = _random_database(random.Random(31), 11, 120)
    monitor = TheoremMonitor()
    parallel = eclat_parallel(
        database,
        5,
        workers=worker_count,
        tracer=monitor,
    )
    serial = eclat(database, 5)
    _assert_identical(serial, parallel)
    report = monitor.report()
    assert report.ok, report.summary()


def test_steal_events_validate_against_schema(worker_count):
    import io
    import json

    from repro.obs.jsonl import JsonlTraceWriter
    from repro.obs.schema import validate_trace

    database = _random_database(random.Random(32), 10, 100)
    buffer = io.StringIO()
    writer = JsonlTraceWriter(buffer)
    eclat_parallel(database, 4, workers=worker_count, tracer=writer)
    writer.close()
    records = [
        json.loads(line)
        for line in buffer.getvalue().splitlines()
        if line.strip()
    ]
    assert validate_trace(records) == []
    names = [record["name"] for record in records]
    assert "worker.batch" in names
    assert "shm.publish" in names
    assert "shm.attach" in names


# -- crash tolerance ----------------------------------------------------


def test_eclat_serial_fallback_on_broken_pool(monkeypatch, worker_count):
    # Force the pool to report itself dead: the engine must finish on
    # the coordinator with a bit-identical result.
    def _broken_map(self, fn, task_args):
        raise WorkerPoolBroken("injected")

    monkeypatch.setattr(WorkerPool, "map_in_order", _broken_map)
    database = _random_database(random.Random(55), 10, 90)
    serial = eclat(database, 5)

    class _EventTracer:
        enabled = True

        def __init__(self):
            self.events = []

        def event(self, name, **attrs):
            self.events.append(name)

        def span(self, name, **attrs):
            from repro.obs.tracer import _NullSpan

            return _NullSpan()

    tracer = _EventTracer()
    parallel = eclat_parallel(
        database, 5, workers=worker_count, tracer=tracer
    )
    _assert_identical(serial, parallel)
    assert "worker.fallback" in tracer.events
