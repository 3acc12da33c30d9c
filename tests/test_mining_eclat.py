"""Tests for the depth-first vertical (tidset/diffset) Eclat miner.

The headline contract is the equivalence theorem: on every database and
threshold, :func:`repro.mining.eclat.eclat` produces the same theory,
positive border, and negative border as the generic levelwise walk, and
the same support table as Apriori — with budgets, tracing, and worker
sharding composing without changing any of it.
"""

from __future__ import annotations

import importlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import BudgetExhausted
from repro.core.oracle import CountingOracle
from repro.datasets.transactions import TransactionDatabase
from repro.instances.frequent_itemsets import (
    FrequencyPredicate,
    mine_frequent_itemsets,
)
from repro.mining.apriori import apriori
from repro.mining.eclat import eclat
from repro.mining.levelwise import levelwise
from repro.obs.jsonl import JsonlTraceWriter
from repro.obs.monitor import TheoremMonitor
from repro.obs.schema import parse_trace, validate_trace
from repro.obs.tracer import MultiTracer, Tracer
from repro.parallel.eclat import eclat_parallel
from repro.runtime.budget import Budget
from repro.runtime.partial import PartialResult
from repro.util.bitset import Universe

from tests.conftest import labels

# The package re-exports ``eclat`` under the module's name.
_eclat_module = importlib.import_module("repro.mining.eclat")


def _random_database(rng, n_items, n_rows):
    universe = Universe(range(n_items))
    rows = [rng.randrange(1 << n_items) for _ in range(n_rows)]
    return TransactionDatabase(universe, rows)


def _assert_frontier_covers_undecided(partial, n_items):
    """Every mask the history leaves undecided extends a frontier mask.

    Under monotonicity a mask is decided when it contains a mask
    answered False or lies inside a mask answered True; every other
    mask of the lattice must specialize some lower-frontier element.
    """
    answered = partial.history.items()
    for mask in range(1 << n_items):
        if any(
            (h & ~mask == 0) if not answer else (mask & ~h == 0)
            for h, answer in answered
        ):
            continue
        assert any(
            front & ~mask == 0 for front in partial.frontier
        ), (partial.reason, mask)


@pytest.fixture
def figure1_database() -> TransactionDatabase:
    """A database whose 2-frequent sets realize Figure 1 exactly."""
    return TransactionDatabase.from_transactions(
        [
            {"A", "B", "C"},
            {"A", "B", "C"},
            {"B", "D"},
            {"B", "D"},
        ]
    )


class TestEclatOnFigure1:
    def test_maximal_and_borders(self, figure1_database):
        result = eclat(figure1_database, 2)
        universe = figure1_database.universe
        assert labels(universe, result.maximal) == ["ABC", "BD"]
        reference = apriori(figure1_database, 2)
        assert result.maximal == reference.maximal
        assert result.negative_border == reference.negative_border
        assert result.interesting == tuple(reference.frequent_masks())
        assert result.supports == reference.supports

    def test_relative_threshold(self, figure1_database):
        assert eclat(figure1_database, 0.5).maximal == (
            eclat(figure1_database, 2).maximal
        )

    def test_counts_nodes(self, figure1_database):
        result = eclat(figure1_database, 2)
        assert result.nodes >= 1
        assert 0 <= result.diffset_nodes <= result.nodes


class TestEclatEdgeCases:
    def test_empty_database_nothing_frequent(self):
        database = TransactionDatabase(Universe("AB"), [])
        result = eclat(database, 1)
        assert result.interesting == ()
        assert result.maximal == ()
        assert result.negative_border == (0,)
        assert result.queries == 1

    def test_zero_threshold_everything_frequent(self):
        database = TransactionDatabase(Universe("AB"), [])
        result = eclat(database, 0)
        assert result.maximal == (0b11,)
        assert result.negative_border == ()

    def test_rejects_bad_on_exhaust(self, figure1_database):
        with pytest.raises(ValueError):
            eclat(figure1_database, 1, on_exhaust="explode")


class TestEclatEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=0, max_value=14),
        st.integers(min_value=0, max_value=5),
        st.randoms(use_true_random=False),
    )
    def test_matches_levelwise_and_apriori(
        self, n_items, n_rows, threshold, rng
    ):
        database = _random_database(rng, n_items, n_rows)
        result = eclat(database, threshold)
        oracle = CountingOracle(FrequencyPredicate(database, threshold))
        reference = levelwise(database.universe, oracle)
        assert sorted(result.interesting) == sorted(reference.interesting)
        assert result.maximal == reference.maximal
        assert result.negative_border == reference.negative_border
        if threshold >= 1:
            assert result.supports == apriori(database, threshold).supports

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=0, max_value=14),
        st.integers(min_value=0, max_value=5),
        st.randoms(use_true_random=False),
    )
    def test_query_count_is_prefix_anchored(
        self, n_items, n_rows, threshold, rng
    ):
        """Every evaluation extends a frequent prefix: the Theorem 2
        floor and the one-AND-per-frequent-set ceiling both hold."""
        database = _random_database(rng, n_items, n_rows)
        result = eclat(database, threshold)
        floor = len(result.maximal) + len(result.negative_border)
        ceiling = 1 + n_items * max(1, len(result.interesting))
        assert floor <= result.queries <= ceiling


class TestEclatBudgets:
    def _database(self):
        universe = Universe(range(6))
        rows = [i % 63 or 1 for i in range(1, 40)]
        return TransactionDatabase(universe, rows)

    def test_exact_query_limit_and_certificate(self):
        database = self._database()
        full = eclat(database, 4)
        for limit in range(1, full.queries + 1):
            partial = eclat(
                database, 4, budget=Budget(max_queries=limit)
            )
            if isinstance(partial, PartialResult):
                assert partial.queries <= limit
                assert partial.algorithm == "eclat"
                assert partial.frontier_kind == "lower"
                assert partial.certificate().ok
            else:
                # Enough budget to finish: identical complete result.
                assert partial.maximal == full.maximal
                assert limit >= full.queries

    def test_generous_budget_is_transparent(self):
        database = self._database()
        full = eclat(database, 4)
        budgeted = eclat(
            database, 4, budget=Budget(max_queries=10_000)
        )
        assert not isinstance(budgeted, PartialResult)
        assert budgeted.maximal == full.maximal
        assert budgeted.queries == full.queries

    def test_on_exhaust_raise(self):
        database = self._database()
        with pytest.raises(BudgetExhausted) as excinfo:
            eclat(
                database,
                4,
                budget=Budget(max_queries=2),
                on_exhaust="raise",
            )
        assert excinfo.value.partial is not None
        assert excinfo.value.partial.certificate().ok

    def test_frontier_bounds_the_undecided_region(self):
        """Every undecided mask specializes a frontier mask (the lower
        frontier completeness claim the certificate relies on)."""
        database = self._database()
        full = eclat(database, 4)
        decided_true = set(full.interesting)
        for limit in (1, 3, 7, 15):
            partial = eclat(
                database, 4, budget=Budget(max_queries=limit)
            )
            assert isinstance(partial, PartialResult)
            assert partial.frontier_complete
            _assert_frontier_covers_undecided(partial, 6)
            # Sanity: the frontier claim is about *this* database too.
            assert decided_true  # non-trivial workload


class TestEclatTracing:
    def test_trace_transparent_and_certified(
        self, figure1_database, tmp_path
    ):
        plain = eclat(figure1_database, 2)
        trace_path = tmp_path / "eclat.jsonl"
        writer = JsonlTraceWriter(trace_path)
        monitor = TheoremMonitor()
        traced = eclat(figure1_database, 2, tracer=writer)
        writer.close()
        monitored = eclat(figure1_database, 2, tracer=monitor)
        assert traced.maximal == plain.maximal
        assert traced.queries == plain.queries
        assert monitored.maximal == plain.maximal
        report = monitor.report()
        assert report.ok, report.summary()
        records = parse_trace(str(trace_path))
        assert validate_trace(records) == []
        names = {record["name"] for record in records}
        assert {"eclat.run", "eclat.node", "eclat.done"} <= names
        queries = [
            record
            for record in records
            if record["name"] == "oracle.query"
        ]
        assert len(queries) == plain.queries

    def test_budgeted_trace_certified(self):
        universe = Universe(range(5))
        database = TransactionDatabase(
            universe, [31, 7, 14, 28, 19, 21] * 3
        )
        monitor = TheoremMonitor()
        partial = eclat(
            database, 3, budget=Budget(max_queries=9), tracer=monitor
        )
        assert isinstance(partial, PartialResult)
        report = monitor.report()
        assert report.ok, report.summary()


class _InterruptingTracer(Tracer):
    """Raise ``KeyboardInterrupt`` at the ``k``-th event named ``name``."""

    def __init__(self, name, k):
        self.name = name
        self.remaining = k

    def event(self, name, **attrs):
        if name == self.name:
            self.remaining -= 1
            if self.remaining == 0:
                raise KeyboardInterrupt


class TestEclatInterrupts:
    """A Ctrl-C anywhere in a run yields a certified partial whose lower
    frontier covers every undecided mask: inside the hot kernel, at any
    traced event of a serial run, and at any coordinator event of a
    2-worker run."""

    N_ITEMS = 6
    ROWS = [i % 63 or 1 for i in range(1, 40)]
    THRESHOLD = 4

    @pytest.fixture(params=["auto", "roaring", "block"])
    def database(self, request, monkeypatch):
        backend = request.param
        if backend == "block":
            # Forked workers inherit the patched crossover.
            monkeypatch.setattr(_eclat_module, "_BLOCK_MIN_ROWS", 0)
            backend = "auto"
        return TransactionDatabase(
            Universe(range(self.N_ITEMS)), self.ROWS, backend=backend
        )

    def _assert_certified_interrupt(self, result):
        assert isinstance(result, PartialResult)
        assert result.reason == "interrupt"
        assert result.frontier_complete
        assert result.certificate().ok
        _assert_frontier_covers_undecided(result, self.N_ITEMS)

    def test_hot_path_kernel_interrupt(self, database, monkeypatch):
        # The package re-exports the function under the module's name.
        module = importlib.import_module("repro.mining.eclat")
        nodes = eclat(database, self.THRESHOLD).nodes
        kernels = {
            name: getattr(module, name)
            for name in ("_expand", "_expand_roaring", "_expand_block")
        }
        for k in range(1, nodes + 1):
            for j in range(3):
                calls = [0]

                def cutting(kernel, k=k, j=j, calls=calls):
                    # The k-th node answers j extensions, then Ctrl-C.
                    def cut(prefix, is_diff, supp, cover, exts, *rest):
                        calls[0] += 1
                        if calls[0] == k:
                            kernel(prefix, is_diff, supp, cover, exts[:j], *rest)
                            raise KeyboardInterrupt
                        return kernel(prefix, is_diff, supp, cover, exts, *rest)

                    return cut

                for name, kernel in kernels.items():
                    monkeypatch.setattr(module, name, cutting(kernel))
                self._assert_certified_interrupt(
                    eclat(database, self.THRESHOLD)
                )
                assert calls[0] == k

    @pytest.mark.parametrize("workers", [None, 2])
    def test_traced_interrupt(self, database, workers):
        recorder = _RecordingTracer()
        eclat(database, self.THRESHOLD, tracer=recorder, workers=workers)
        for name in ("oracle.query", "eclat.node"):
            count = sum(1 for event, _ in recorder.events if event == name)
            assert count > 1
            for k in range(1, count + 1):
                self._assert_certified_interrupt(
                    eclat(
                        database,
                        self.THRESHOLD,
                        tracer=_InterruptingTracer(name, k),
                        workers=workers,
                    )
                )


class TestEclatParallel:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=4),
        st.randoms(use_true_random=False),
    )
    def test_workers_bit_identical(self, n_items, n_rows, threshold, rng):
        database = _random_database(rng, n_items, n_rows)
        serial = eclat(database, threshold)
        parallel = eclat_parallel(database, threshold, workers=2)
        assert parallel.interesting == serial.interesting
        assert parallel.maximal == serial.maximal
        assert parallel.negative_border == serial.negative_border
        assert parallel.supports == serial.supports
        assert parallel.queries == serial.queries

    def test_worker_count_fixture(self, worker_count):
        universe = Universe(range(7))
        rows = [(i * 37) % 127 or 1 for i in range(1, 60)]
        database = TransactionDatabase(universe, rows)
        serial = eclat(database, 5)
        sharded = eclat(database, 5, workers=worker_count)
        assert sharded.interesting == serial.interesting
        assert sharded.maximal == serial.maximal
        assert sharded.negative_border == serial.negative_border
        assert sharded.queries == serial.queries

    def test_parallel_budget_partial_certified(self):
        universe = Universe(range(6))
        rows = [(i * 11) % 63 or 1 for i in range(1, 50)]
        database = TransactionDatabase(universe, rows)
        partial = eclat_parallel(
            database, 4, workers=2, budget=Budget(max_queries=8)
        )
        assert isinstance(partial, PartialResult)
        assert partial.reason == "queries"
        # Waves are the atomic budget unit: dispatched subtrees run to
        # completion, so queries may exceed the limit by one wave's
        # worth — but everything recorded must still certify.
        assert partial.queries >= 8
        assert partial.certificate().ok

    def test_workers_one_is_serial(self, figure1_database):
        assert eclat_parallel(figure1_database, 2, workers=1).maximal == (
            eclat(figure1_database, 2).maximal
        )


class TestEclatEntryPoint:
    def test_mine_frequent_itemsets_eclat(self, figure1_database):
        theory = mine_frequent_itemsets(
            figure1_database, 2, algorithm="eclat"
        )
        reference = mine_frequent_itemsets(
            figure1_database, 2, algorithm="levelwise"
        )
        assert theory.maximal == reference.maximal
        assert theory.negative_border == reference.negative_border
        assert "supports" in theory.extra
        assert "nodes" in theory.extra

    def test_workers_routed(self, figure1_database):
        theory = mine_frequent_itemsets(
            figure1_database, 2, algorithm="eclat", workers=2
        )
        serial = mine_frequent_itemsets(
            figure1_database, 2, algorithm="eclat"
        )
        assert theory.maximal == serial.maximal
        assert theory.queries == serial.queries

    def test_resume_rejected(self, figure1_database):
        with pytest.raises(ValueError):
            mine_frequent_itemsets(
                figure1_database, 2, algorithm="eclat", resume="x.json"
            )


def _roaring_pair(rng, n_items, n_rows):
    universe = Universe(range(n_items))
    rows = [rng.randrange(1 << n_items) for _ in range(n_rows)]
    return (
        TransactionDatabase(universe, rows),
        TransactionDatabase(universe, rows, backend="roaring"),
    )


class _RecordingTracer(Tracer):
    """Capture every event as ``(name, attrs)`` for comparison."""

    def __init__(self):
        self.events = []

    def event(self, name, **attrs):
        self.events.append((name, dict(attrs)))


class TestEclatRoaringBitIdentity:
    """Eclat over compressed columns vs the default big-int backend.

    Everything the theorems speak about — theory, borders, supports,
    query and node accounting, trace events — must be bit-identical.
    The only sanctioned differences are the *representation
    diagnostics*: ``diffset_nodes`` and the per-node ``kind`` trace
    attribute, because the byte-size tidset→diffset switch legitimately
    flips at different points for compressed containers than for
    big-int images.
    """

    DIAGNOSTIC_ATTRS = ("kind", "diffset_nodes")

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=0, max_value=14),
        st.integers(min_value=0, max_value=5),
        st.randoms(use_true_random=False),
    )
    def test_serial_results_identical(self, n_items, n_rows, threshold, rng):
        reference_db, roaring_db = _roaring_pair(rng, n_items, n_rows)
        reference = eclat(reference_db, threshold)
        result = eclat(roaring_db, threshold)
        assert result.interesting == reference.interesting
        assert result.maximal == reference.maximal
        assert result.negative_border == reference.negative_border
        assert result.supports == reference.supports
        assert result.queries == reference.queries
        assert result.nodes == reference.nodes

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=12),
        st.randoms(use_true_random=False),
    )
    def test_traces_identical_up_to_diagnostics(self, n_items, n_rows, rng):
        reference_db, roaring_db = _roaring_pair(rng, n_items, n_rows)
        traces = []
        for database in (reference_db, roaring_db):
            recorder = _RecordingTracer()
            monitor = TheoremMonitor()
            eclat(database, 2, tracer=MultiTracer(recorder, monitor))
            report = monitor.report()
            assert report.ok, report.summary()
            traces.append(
                [
                    (
                        name,
                        {
                            key: value
                            for key, value in attrs.items()
                            if key not in self.DIAGNOSTIC_ATTRS
                        },
                    )
                    for name, attrs in recorder.events
                ]
            )
        assert traces[0] == traces[1]

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=14),
        st.integers(min_value=1, max_value=12),
        st.randoms(use_true_random=False),
    )
    def test_budget_cuts_identical(self, n_items, n_rows, limit, rng):
        reference_db, roaring_db = _roaring_pair(rng, n_items, n_rows)
        reference = eclat(
            reference_db, 2, budget=Budget(max_queries=limit)
        )
        result = eclat(roaring_db, 2, budget=Budget(max_queries=limit))
        assert isinstance(result, PartialResult) == isinstance(
            reference, PartialResult
        )
        if isinstance(reference, PartialResult):
            # Same cut point, same frontier, same history — compare the
            # whole data surface except wall-clock timing.
            for attr in dir(reference):
                if attr.startswith("_") or attr == "elapsed":
                    continue
                ref_value = getattr(reference, attr)
                if callable(ref_value):
                    continue
                assert getattr(result, attr) == ref_value, attr
            assert result.certificate().ok
        else:
            assert result.maximal == reference.maximal
            assert result.queries == reference.queries

    def test_parallel_both_transports_identical(self, worker_count):
        universe = Universe(range(7))
        rows = [(i * 37) % 127 or 1 for i in range(1, 60)]
        serial = eclat(TransactionDatabase(universe, rows), 5)
        roaring_db = TransactionDatabase(universe, rows, backend="roaring")
        parallel = eclat_parallel(roaring_db, 5, workers=worker_count)
        assert parallel.interesting == serial.interesting
        assert parallel.maximal == serial.maximal
        assert parallel.negative_border == serial.negative_border
        assert parallel.supports == serial.supports
        assert parallel.queries == serial.queries

    def test_entry_point_on_roaring_database(self, figure1_database):
        roaring_db = TransactionDatabase(
            figure1_database.universe,
            figure1_database.transaction_masks,
            backend="roaring",
        )
        theory = mine_frequent_itemsets(roaring_db, 2, algorithm="eclat")
        reference = mine_frequent_itemsets(
            figure1_database, 2, algorithm="levelwise"
        )
        assert theory.maximal == reference.maximal
        assert theory.negative_border == reference.negative_border


class TestEclatBlockBitIdentity:
    """Eclat over block covers vs the big-int kernel.

    The crossover is patched to 0 so that small databases take the
    block kernel (:func:`repro.mining.eclat._expand_block`).  It counts
    rows like the int kernel and switches to diffsets by the same row
    rule, so everything is identical: answers, ``supports`` insertion
    order, ``nodes``, ``diffset_nodes``, every trace event and every
    budget cut.
    """

    @staticmethod
    def _blocks():
        return mock.patch.object(_eclat_module, "_BLOCK_MIN_ROWS", 0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=0, max_value=14),
        st.integers(min_value=0, max_value=5),
        st.randoms(use_true_random=False),
    )
    def test_serial_results_identical(self, n_items, n_rows, threshold, rng):
        database = _random_database(rng, n_items, n_rows)
        reference = eclat(database, threshold)
        with self._blocks():
            result = eclat(database, threshold)
        assert result == reference
        assert list(result.supports.items()) == list(
            reference.supports.items()
        )
        assert result.nodes == reference.nodes
        assert result.diffset_nodes == reference.diffset_nodes

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=12),
        st.randoms(use_true_random=False),
    )
    def test_traces_identical(self, n_items, n_rows, rng):
        database = _random_database(rng, n_items, n_rows)
        traces = []
        for blocks in (False, True):
            recorder = _RecordingTracer()
            monitor = TheoremMonitor()
            with mock.patch.object(
                _eclat_module, "_BLOCK_MIN_ROWS", 0 if blocks else 1 << 62
            ):
                eclat(database, 2, tracer=MultiTracer(recorder, monitor))
            report = monitor.report()
            assert report.ok, report.summary()
            traces.append(recorder.events)
        assert traces[0] == traces[1]

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=14),
        st.integers(min_value=1, max_value=12),
        st.randoms(use_true_random=False),
    )
    def test_budget_cuts_identical(self, n_items, n_rows, limit, rng):
        database = _random_database(rng, n_items, n_rows)
        reference = eclat(database, 2, budget=Budget(max_queries=limit))
        with self._blocks():
            result = eclat(database, 2, budget=Budget(max_queries=limit))
        assert type(result) is type(reference)
        if isinstance(reference, PartialResult):
            for attr in dir(reference):
                if attr.startswith("_") or attr == "elapsed":
                    continue
                ref_value = getattr(reference, attr)
                if callable(ref_value):
                    continue
                assert getattr(result, attr) == ref_value, attr
            assert result.certificate().ok
        else:
            assert result == reference

    @pytest.mark.parametrize("limit", [None, 5, 17, 40])
    def test_parallel_identical(self, worker_count, limit):
        universe = Universe(range(7))
        rows = [(i * 37) % 127 or 1 for i in range(1, 60)]
        database = TransactionDatabase(universe, rows)

        def mine(workers):
            budget = None if limit is None else Budget(max_queries=limit)
            return eclat(database, 5, workers=workers, budget=budget)

        references = {"serial": mine(None), "parallel": mine(worker_count)}
        with self._blocks():
            results = {"serial": mine(None), "parallel": mine(worker_count)}
        for path, reference in references.items():
            result = results[path]
            assert type(result) is type(reference), path
            if isinstance(reference, PartialResult):
                assert result.history == reference.history, path
                assert result.frontier == reference.frontier, path
                assert result.certificate().ok
            else:
                assert result == reference, path
                assert result.supports == reference.supports, path
                assert result.nodes == reference.nodes, path
