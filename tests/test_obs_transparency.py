"""Tracing is observationally free: on vs off, bit-identical results.

The property behind the ``tracer.enabled`` hot-path contract: attaching
a full tracer stack (JSONL writer + metrics + theorem monitor) to any
engine changes neither its output nor its query accounting.  Hypothesis
generates random planted theories; each engine runs twice and the
results must be equal field-for-field.
"""

from __future__ import annotations

import io

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.oracle import CountingOracle
from repro.datasets.planted import random_planted_theory
from repro.mining.dualize_advance import dualize_and_advance
from repro.mining.levelwise import levelwise
from repro.mining.maxminer import maxminer_maxth
from repro.obs import (
    JsonlTraceWriter,
    MetricsRegistry,
    RecordTracer,
    TheoremMonitor,
)

@st.composite
def _planted(draw):
    n = draw(st.integers(min_value=4, max_value=7))
    max_size = draw(st.integers(min_value=3, max_value=n - 1))
    return random_planted_theory(
        n,
        draw(st.integers(min_value=1, max_value=3)),
        min_size=draw(st.integers(min_value=1, max_value=2)),
        max_size=max_size,
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )


_PLANTED = _planted()


def _full_stack():
    """The complete tracer stack the CLI would wire up."""
    return RecordTracer(
        JsonlTraceWriter(io.StringIO()).feed_record,
        MetricsRegistry().feed_record,
        TheoremMonitor().feed_record,
    )


def _accounting(oracle: CountingOracle) -> tuple[int, int, int]:
    return (
        oracle.distinct_queries,
        oracle.total_calls,
        oracle.evaluations,
    )


class TestTracingTransparency:
    @settings(max_examples=25, deadline=None)
    @given(planted=_PLANTED)
    def test_levelwise(self, planted):
        plain_oracle = CountingOracle(planted.is_interesting)
        plain = levelwise(planted.universe, plain_oracle)
        traced_oracle = CountingOracle(planted.is_interesting)
        traced = levelwise(
            planted.universe, traced_oracle, tracer=_full_stack()
        )
        assert traced == plain
        assert traced.queries == plain.queries
        assert traced.levels == plain.levels
        assert _accounting(traced_oracle) == _accounting(plain_oracle)

    @settings(max_examples=15, deadline=None)
    @given(planted=_PLANTED, engine=st.sampled_from(["fk", "berge"]))
    def test_dualize_and_advance(self, planted, engine):
        plain_oracle = CountingOracle(planted.is_interesting)
        plain = dualize_and_advance(
            planted.universe, plain_oracle, engine=engine
        )
        traced_oracle = CountingOracle(planted.is_interesting)
        traced = dualize_and_advance(
            planted.universe,
            traced_oracle,
            engine=engine,
            tracer=_full_stack(),
        )
        assert traced.maximal == plain.maximal
        assert traced.negative_border == plain.negative_border
        assert traced.queries == plain.queries
        assert traced.iterations == plain.iterations
        assert _accounting(traced_oracle) == _accounting(plain_oracle)

    @settings(max_examples=25, deadline=None)
    @given(planted=_PLANTED)
    def test_maxminer(self, planted):
        plain_oracle = CountingOracle(planted.is_interesting)
        plain = maxminer_maxth(planted.universe, plain_oracle)
        traced_oracle = CountingOracle(planted.is_interesting)
        traced = maxminer_maxth(
            planted.universe, traced_oracle, tracer=_full_stack()
        )
        assert traced == plain
        assert traced.queries == plain.queries
        assert traced.nodes == plain.nodes
        assert _accounting(traced_oracle) == _accounting(plain_oracle)

    @settings(max_examples=15, deadline=None)
    @given(planted=_PLANTED)
    def test_monitor_certifies_every_generated_instance(self, planted):
        monitor = TheoremMonitor()
        levelwise(
            planted.universe,
            CountingOracle(planted.is_interesting),
            tracer=RecordTracer(monitor.feed_record),
        )
        report = monitor.report()
        assert report.ok, report.violations
        assert report.certified("theorem10")
        assert report.certified("trace_accounting")


class TestParallelTracingTransparency:
    """The cross-process plane is transparent too: worker-side
    buffers keep and ship their records, but the mined theory and
    the query accounting stay bit-identical to an untraced run."""

    def _database(self):
        from repro.datasets.synthetic import (
            QuestParameters,
            generate_quest_database,
        )

        return generate_quest_database(
            QuestParameters(
                n_items=16,
                n_transactions=200,
                avg_transaction_length=5,
                avg_pattern_length=3,
            ),
            seed=13,
        )

    def test_parallel_eclat_bit_identical_with_worker_collection(self):
        from repro.parallel.eclat import eclat_parallel

        database = self._database()
        plain = eclat_parallel(database, 10, workers=2)
        sink = io.StringIO()
        writer = JsonlTraceWriter(sink)
        traced = eclat_parallel(
            database, 10, workers=2,
            tracer=RecordTracer(
                writer.feed_record, TheoremMonitor().feed_record
            ),
        )
        assert traced.maximal == plain.maximal
        assert traced.negative_border == plain.negative_border
        assert traced.supports == plain.supports
        assert traced.queries == plain.queries
        assert traced.nodes == plain.nodes
        # The stitched stream really carries worker-side records.
        names = {
            line.split('"name": "', 1)[1].split('"', 1)[0]
            for line in sink.getvalue().splitlines()
            if '"name": "' in line
        }
        assert "worker.task" in names, f"no worker spans in {sorted(names)}"


class TestServiceTracingTransparency:
    """Request-scoped service tracing never changes a response."""

    def _cores(self):
        from repro.service.state import ServiceCore
        from repro.util.bitset import Universe
        from repro.datasets.transactions import TransactionDatabase

        universe = Universe(range(6))
        rows = [0b000111, 0b001110, 0b011100, 0b111000, 0b000111,
                0b001110, 0b110001, 0b101010]
        database = TransactionDatabase(universe, rows)
        plain = ServiceCore(database, 2)
        traced = ServiceCore(
            database, 2, tracer=_full_stack(), registry=MetricsRegistry()
        )
        return plain, traced

    def test_mine_append_threshold_identical(self):
        plain, traced = self._cores()
        try:
            assert traced.mine() == plain.mine()
            assert traced.mine(min_support=1) == plain.mine(min_support=1)
            new_rows = [0b010101, 0b101010]
            assert traced.append(new_rows) == plain.append(new_rows)
            assert traced.set_threshold(3) == plain.set_threshold(3)
            assert traced.mine() == plain.mine()
            assert traced.digest() == plain.digest()
        finally:
            plain.close()
            traced.close()
