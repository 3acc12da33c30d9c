"""Traced engine runs: schema-valid JSONL, exception-safe emission.

Every engine is run with a live :class:`JsonlTraceWriter` behind a
:class:`RecordTracer`; the recorded file must parse, validate against
the event schema, and keep spans balanced.  Exception safety: a predicate raising mid-run under an
active writer still leaves a balanced, parseable trace with the error
recorded on the aborted spans.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.core.oracle import CountingOracle
from repro.datasets.planted import PlantedTheory
from repro.datasets.synthetic import (
    QuestParameters,
    generate_quest_database,
)
from repro.hypergraph.enumeration import minimal_transversals
from repro.hypergraph.hypergraph import Hypergraph
from repro.mining.apriori import apriori
from repro.mining.dualize_advance import dualize_and_advance
from repro.mining.levelwise import levelwise
from repro.mining.maxminer import maxminer_maxth
from repro.obs import (
    JsonlTraceWriter,
    RecordTracer,
    parse_trace,
    validate_trace,
)
from repro.util.bitset import Universe

from benchmarks.trace_report import build_report


def _figure1():
    universe = Universe("ABCD")
    planted = PlantedTheory.from_sets(
        universe, [{"A", "B", "C"}, {"B", "D"}]
    )
    return universe, planted


def _trace(run):
    """Run an engine under a buffer-backed writer; return its records."""
    buffer = io.StringIO()
    with JsonlTraceWriter(buffer) as writer:
        run(RecordTracer(writer.feed_record))
    return [
        json.loads(line) for line in buffer.getvalue().splitlines() if line
    ]


class TestSchemaValidRuns:
    def test_levelwise_trace_validates(self):
        universe, planted = _figure1()
        records = _trace(
            lambda w: levelwise(universe, planted.is_interesting, tracer=w)
        )
        assert validate_trace(records) == []
        names = {record["name"] for record in records}
        assert {"levelwise.run", "levelwise.level", "levelwise.done"} <= names
        assert "oracle.query" in names

    @pytest.mark.parametrize("engine", ["fk", "berge"])
    def test_dualize_trace_validates(self, engine):
        universe, planted = _figure1()
        records = _trace(
            lambda w: dualize_and_advance(
                universe, planted.is_interesting, engine=engine, tracer=w
            )
        )
        assert validate_trace(records) == []
        names = {record["name"] for record in records}
        assert {"dualize.run", "dualize.probe", "dualize.maximal",
                "dualize.done"} <= names
        if engine == "fk":
            assert "fk.check" in names
        else:
            assert "dualize.family" in names

    def test_maxminer_trace_validates(self):
        universe, planted = _figure1()
        records = _trace(
            lambda w: maxminer_maxth(
                universe, planted.is_interesting, tracer=w
            )
        )
        assert validate_trace(records) == []
        names = {record["name"] for record in records}
        assert {"maxminer.run", "maxminer.node", "maxminer.done"} <= names

    def test_apriori_trace_validates(self):
        database = generate_quest_database(
            QuestParameters(n_items=12, n_transactions=80), seed=5
        )
        records = _trace(lambda w: apriori(database, 8, tracer=w))
        assert validate_trace(records) == []
        names = {record["name"] for record in records}
        assert {"apriori.run", "apriori.level", "apriori.done"} <= names

    @pytest.mark.parametrize("method", ["berge", "fk"])
    def test_transversal_trace_validates(self, method):
        universe = Universe(range(4))
        hypergraph = Hypergraph.from_sets(
            [{0, 1}, {1, 2}, {2, 3}], universe
        )
        records = _trace(
            lambda w: minimal_transversals(
                hypergraph, method=method, tracer=w
            )
        )
        assert validate_trace(records) == []
        names = {record["name"] for record in records}
        assert ("berge.run" if method == "berge" else "fk.check") in names

    def test_trace_report_aggregates_levelwise(self):
        universe, planted = _figure1()
        records = _trace(
            lambda w: levelwise(universe, planted.is_interesting, tracer=w)
        )
        report = build_report(records)
        assert report["queries"]["charged"] == 12  # |Th|=10 + |Bd-|=2
        assert [row["candidates"] for row in report["levels"]] == [
            1, 4, 6, 1,
        ]
        assert report["spans"]["levelwise.run"]["count"] == 1


class PredicateDown(Exception):
    """What the failing predicate below raises."""


def _always_failing(mask):
    raise PredicateDown(f"no answer for {mask:#x}")


class TestExceptionSafety:
    """Satellite 2: an oracle blow-up leaves a balanced trace."""

    def test_levelwise_failure_leaves_balanced_trace(self):
        universe, _ = _figure1()
        buffer = io.StringIO()
        writer = JsonlTraceWriter(buffer)
        with pytest.raises(PredicateDown):
            with writer:
                levelwise(
                    universe,
                    CountingOracle(_always_failing),
                    tracer=RecordTracer(writer.feed_record),
                )
        records = [
            json.loads(line)
            for line in buffer.getvalue().splitlines()
            if line
        ]
        assert validate_trace(records) == []
        closes = [r for r in records if r["kind"] == "span_close"]
        assert closes, "aborted spans must still emit close records"
        assert any(r.get("error") == "PredicateDown" for r in closes)

    def test_dualize_failure_leaves_balanced_trace(self):
        universe, _ = _figure1()
        buffer = io.StringIO()
        writer = JsonlTraceWriter(buffer)
        with pytest.raises(PredicateDown):
            with writer:
                dualize_and_advance(
                    universe,
                    CountingOracle(_always_failing),
                    tracer=RecordTracer(writer.feed_record),
                )
        records = [
            json.loads(line)
            for line in buffer.getvalue().splitlines()
            if line
        ]
        assert validate_trace(records) == []
        run_close = [
            r
            for r in records
            if r["kind"] == "span_close" and r["name"] == "dualize.run"
        ]
        assert run_close and run_close[0]["error"] == "PredicateDown"

    def test_interrupted_file_trace_still_parses(self, tmp_path):
        """Per-line flushing: the file is consumable before close()."""
        universe, _ = _figure1()
        path = tmp_path / "interrupted.jsonl"
        writer = JsonlTraceWriter(path)
        with pytest.raises(PredicateDown):
            levelwise(
                universe,
                CountingOracle(_always_failing),
                tracer=RecordTracer(writer.feed_record),
            )
        # Simulate never reaching writer.close(): read the file as-is.
        records = parse_trace(str(path))
        assert records, "flushed lines must be readable without close()"
        for record in records:
            assert record["kind"] in (
                "span_open", "span_close", "event", "counter", "gauge",
            )
        writer.close()
