"""TheoremMonitor: online certification and tamper detection.

Satellite 4: a live monitor attached to each engine must certify the
paper's theorems on honest runs, and a *corrupted* trace — one charged
``oracle.query`` record dropped, a contradictory answer injected, a
fabricated non-growing ``Bd+`` event — must be flagged.  Also covers the
cumulative-elapsed resume semantics added to the checkpoints.
"""

from __future__ import annotations

import io
import json

from repro.core.oracle import CountingOracle
from repro.datasets.planted import PlantedTheory, random_planted_theory
from repro.mining.dualize_advance import dualize_and_advance
from repro.mining.levelwise import levelwise
from repro.obs import JsonlTraceWriter, RecordTracer, TheoremMonitor
from repro.runtime.budget import Budget
from repro.runtime.checkpoint import Checkpoint
from repro.runtime.partial import PartialResult
from repro.util.bitset import Universe


def _figure1():
    universe = Universe("ABCD")
    planted = PlantedTheory.from_sets(
        universe, [{"A", "B", "C"}, {"B", "D"}]
    )
    return universe, planted


def _record_levelwise(universe, predicate):
    """Run levelwise under a writer; return the parsed records."""
    buffer = io.StringIO()
    with JsonlTraceWriter(buffer) as writer:
        levelwise(
            universe, predicate, tracer=RecordTracer(writer.feed_record)
        )
    return [
        json.loads(line) for line in buffer.getvalue().splitlines() if line
    ]


class TestLiveCertification:
    def test_levelwise_figure1_certifies_theorem10(self):
        universe, planted = _figure1()
        monitor = TheoremMonitor()
        result = levelwise(
            universe,
            planted.is_interesting,
            tracer=RecordTracer(monitor.feed_record),
        )
        report = monitor.report()
        assert report.ok, report.violations
        assert report.certified("theorem10")
        assert report.certified("trace_accounting")
        assert report.certified("theorem12")
        assert report.certified("corollary14")
        # Figure 1 arithmetic: |Th|=10, |Bd-|=2, so exactly 12 queries.
        assert result.queries == 12
        theorem10 = next(
            check for check in report.checks if check.name == "theorem10"
        )
        assert (theorem10.measured, theorem10.expected) == (12, 12)

    def test_dualize_certifies_theorem21_and_monotonicity(self):
        universe, planted = _figure1()
        monitor = TheoremMonitor()
        dualize_and_advance(
            universe,
            planted.is_interesting,
            tracer=RecordTracer(monitor.feed_record),
        )
        report = monitor.report()
        assert report.ok, report.violations
        assert report.certified("theorem21")
        assert report.certified("bracket_monotonicity")
        assert report.certified("trace_accounting")

    def test_planted_seeds_certify(self):
        for seed in range(5):
            planted = random_planted_theory(
                6, 2, min_size=1, max_size=4, seed=seed
            )
            monitor = TheoremMonitor()
            levelwise(
                planted.universe,
                CountingOracle(planted.is_interesting),
                tracer=RecordTracer(monitor.feed_record),
            )
            report = monitor.report()
            assert report.ok, (seed, report.violations)
            assert report.certified("theorem10")

    def test_summary_mentions_status(self):
        universe, planted = _figure1()
        monitor = TheoremMonitor()
        levelwise(
            universe,
            planted.is_interesting,
            tracer=RecordTracer(monitor.feed_record),
        )
        summary = monitor.report().summary()
        assert "ok" in summary
        assert "theorem10" in summary

    def test_empty_monitor_reports_nothing_observed(self):
        report = TheoremMonitor().report()
        assert "no certifiable events" in report.summary()


class TestOfflineReplay:
    def test_from_trace_agrees_with_live_monitor(self):
        universe, planted = _figure1()
        records = _record_levelwise(universe, planted.is_interesting)
        report = TheoremMonitor.from_trace(records).report()
        assert report.ok, report.violations
        assert report.certified("theorem10")
        assert report.certified("trace_accounting")


class TestTamperDetection:
    def test_dropped_query_event_is_flagged(self):
        """Deleting one charged oracle.query breaks trace accounting."""
        universe, planted = _figure1()
        records = _record_levelwise(universe, planted.is_interesting)
        drop_index = next(
            index
            for index, record in enumerate(records)
            if record["name"] == "oracle.query"
            and record["attrs"].get("charged")
        )
        corrupted = records[:drop_index] + records[drop_index + 1 :]
        report = TheoremMonitor.from_trace(corrupted).report()
        assert not report.ok
        assert not report.certified("trace_accounting")
        assert any("dropped or duplicated" in v for v in report.violations)
        # Theorem 10 itself still holds (the engine's own arithmetic is
        # consistent); only the trace-vs-report cross-check fails.
        assert report.certified("theorem10")

    def test_duplicated_query_event_is_flagged(self):
        universe, planted = _figure1()
        records = _record_levelwise(universe, planted.is_interesting)
        charged = next(
            record
            for record in records
            if record["name"] == "oracle.query"
            and record["attrs"].get("charged")
        )
        position = records.index(charged)
        corrupted = records[: position + 1] + [charged] + records[position + 1 :]
        report = TheoremMonitor.from_trace(corrupted).report()
        assert not report.certified("trace_accounting")

    def test_contradictory_answers_are_flagged(self):
        monitor = TheoremMonitor()
        tracer = RecordTracer(monitor.feed_record)
        tracer.event("oracle.query", mask=3, answer=True, charged=True)
        tracer.event("oracle.query", mask=3, answer=False, charged=False)
        report = monitor.report()
        assert any("both ways" in v for v in report.violations)

    def test_non_growing_bracket_is_flagged(self):
        """A fabricated dualize.maximal inside an earlier maximal set."""
        monitor = TheoremMonitor()
        tracer = RecordTracer(monitor.feed_record)
        tracer.event("dualize.maximal", mask=0b111, iteration=1)
        tracer.event("dualize.maximal", mask=0b011, iteration=2)
        report = monitor.report()
        assert any("did not grow" in v for v in report.violations)

    def test_frontier_regrowth_is_flagged(self):
        monitor = TheoremMonitor()
        tracer = RecordTracer(monitor.feed_record)
        tracer.event("dualize.probe", mask=0b101, answer=False, fresh=True)
        tracer.event("dualize.counterexample", mask=0b101, iteration=1)
        report = monitor.report()
        assert any("frontier grew back" in v for v in report.violations)

    def test_unclosed_span_is_flagged(self):
        monitor = TheoremMonitor()
        tracer = RecordTracer(monitor.feed_record)
        tracer.span("levelwise.run", n=4, resumed=False)  # never closed
        report = monitor.report()
        assert any("never closed" in v for v in report.violations)


class TestCumulativeElapsed:
    """Satellite 1: checkpoints bank wall-clock across resume segments."""

    def test_checkpoint_banks_elapsed_seconds(self):
        planted = random_planted_theory(6, 2, min_size=1, max_size=4, seed=3)
        partial = levelwise(
            planted.universe,
            planted.is_interesting,
            budget=Budget(max_queries=3),
        )
        assert isinstance(partial, PartialResult)
        banked = partial.checkpoint.accounting["elapsed"]
        assert banked > 0.0
        # The PartialResult samples the clock a hair after the
        # checkpoint snapshot, so it can only be slightly later.
        assert partial.elapsed >= banked

    def test_resumed_run_reports_cumulative_elapsed(self):
        planted = random_planted_theory(6, 2, min_size=1, max_size=4, seed=3)
        partial = levelwise(
            planted.universe,
            planted.is_interesting,
            budget=Budget(max_queries=3),
        )
        banked = partial.checkpoint.accounting["elapsed"]
        # The JSON round trip stands in for an arbitrarily long pause:
        # the time between segments must never be billed, only carried.
        restored = Checkpoint.from_json(partial.checkpoint.to_json())
        second = levelwise(
            planted.universe,
            planted.is_interesting,
            budget=Budget(max_queries=partial.queries + 1),
            resume=restored,
        )
        assert isinstance(second, PartialResult)
        assert second.elapsed >= banked
        assert second.checkpoint.accounting["elapsed"] >= banked

    def test_dualize_checkpoint_banks_elapsed(self):
        planted = random_planted_theory(6, 2, min_size=1, max_size=4, seed=7)
        partial = dualize_and_advance(
            planted.universe,
            planted.is_interesting,
            budget=Budget(max_queries=2),
        )
        assert isinstance(partial, PartialResult)
        banked = partial.checkpoint.accounting["elapsed"]
        assert banked > 0.0
        restored = Checkpoint.from_json(partial.checkpoint.to_json())
        second = dualize_and_advance(
            planted.universe,
            planted.is_interesting,
            budget=Budget(max_queries=partial.queries + 1),
            resume=restored,
        )
        assert isinstance(second, PartialResult)
        assert second.elapsed >= banked

    def test_monitor_certifies_resumed_segment(self):
        """A resumed run's done event checks only the fresh segment."""
        planted = random_planted_theory(6, 2, min_size=1, max_size=4, seed=3)
        partial = levelwise(
            planted.universe,
            planted.is_interesting,
            budget=Budget(max_queries=3),
        )
        monitor = TheoremMonitor()
        tracer = RecordTracer(monitor.feed_record)
        result = levelwise(
            planted.universe,
            planted.is_interesting,
            resume=partial.checkpoint,
            tracer=tracer,
        )
        report = monitor.report()
        assert report.ok, report.violations
        assert report.certified("theorem10")
        assert report.certified("trace_accounting")
        baseline = levelwise(planted.universe, planted.is_interesting)
        assert result.queries == baseline.queries
