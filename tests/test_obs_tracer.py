"""Unit tests for the ``repro.obs`` primitives.

Covers the tracer protocol (null/default semantics), the record tracer
(record shape, injectable clock, span lifecycle, consumer isolation),
the JSONL writer (span nesting, interrupt safety, rotation), the
metrics registry as a record consumer, and the record-schema
validators.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.obs import (
    DEFAULT_SECONDS_BUCKETS,
    JsonlTraceWriter,
    MetricsRegistry,
    NULL_TRACER,
    RecordTracer,
    as_tracer,
    validate_record,
    validate_trace,
)
from repro.obs.metrics import Histogram


def _ticking():
    """A clock that advances one second per reading."""
    clock_value = [0.0]

    def clock():
        clock_value[0] += 1.0
        return clock_value[0]

    return clock


class TestProtocol:
    def test_null_tracer_is_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.event("x", a=1)
        NULL_TRACER.counter("x")
        NULL_TRACER.gauge("x", 1.0)
        with NULL_TRACER.span("x", a=1) as span:
            span.note(b=2)  # all no-ops, nothing raised

    def test_as_tracer_normalizes_none(self):
        assert as_tracer(None) is NULL_TRACER
        tracer = RecordTracer()
        assert as_tracer(tracer) is tracer

    def test_span_notes_reach_every_consumer(self):
        first, second = [], []
        tracer = RecordTracer(first.append, second.append)
        with tracer.span("s", a=1) as span:
            span.note(b=2)
        assert first == second
        assert [r["kind"] for r in first] == ["span_open", "span_close"]
        assert first[-1]["attrs"] == {"a": 1, "b": 2}

    def test_counter_and_gauge_record_shape(self):
        records = []
        tracer = RecordTracer(records.append, clock=lambda: 0.0)
        tracer.counter("oracle.cache_hit", 2)
        tracer.gauge("dualize.family", 7, rank=1)
        assert records == [
            {"kind": "counter", "name": "oracle.cache_hit", "delta": 2,
             "ts": 0.0},
            {"kind": "gauge", "name": "dualize.family", "value": 7,
             "ts": 0.0, "attrs": {"rank": 1}},
        ]


class TestJsonlWriter:
    def _records(self, buffer: io.StringIO) -> list[dict]:
        return [
            json.loads(line)
            for line in buffer.getvalue().splitlines()
            if line
        ]

    def test_event_record_shape_with_frozen_clock(self):
        ticks = iter([0.0, 1.5])
        buffer = io.StringIO()
        writer = JsonlTraceWriter(buffer)
        tracer = RecordTracer(writer.feed_record, clock=lambda: next(ticks))
        tracer.event("oracle.query", mask=3, answer=True, charged=True)
        [record] = self._records(buffer)
        assert record == {
            "kind": "event",
            "name": "oracle.query",
            "ts": 1.5,
            "attrs": {"mask": 3, "answer": True, "charged": True},
        }
        assert writer.records_written == 1

    def test_span_nesting_ids_parent_and_dur(self):
        buffer = io.StringIO()
        tracer = RecordTracer(
            JsonlTraceWriter(buffer).feed_record, clock=_ticking()
        )
        with tracer.span("outer", n=4):
            with tracer.span("inner") as inner:
                inner.note(done=True)
        records = self._records(buffer)
        kinds = [(r["kind"], r["name"]) for r in records]
        assert kinds == [
            ("span_open", "outer"),
            ("span_open", "inner"),
            ("span_close", "inner"),
            ("span_close", "outer"),
        ]
        outer_open, inner_open, inner_close, outer_close = records
        assert inner_open["parent"] == outer_open["id"]
        assert "parent" not in outer_open
        assert inner_close["id"] == inner_open["id"]
        assert inner_close["dur"] > 0
        assert inner_close["attrs"] == {"done": True}
        assert validate_trace(records) == []

    def test_span_close_records_error_type(self):
        buffer = io.StringIO()
        tracer = RecordTracer(
            JsonlTraceWriter(buffer).feed_record, clock=lambda: 0.0
        )
        with pytest.raises(RuntimeError):
            with tracer.span("risky"):
                raise RuntimeError("boom")
        close = self._records(buffer)[-1]
        assert close["kind"] == "span_close"
        assert close["error"] == "RuntimeError"

    def test_each_line_is_flushed_and_close_is_idempotent(self, tmp_path):
        path = tmp_path / "t.jsonl"
        writer = JsonlTraceWriter(path)
        tracer = RecordTracer(writer.feed_record)
        tracer.event("oracle.cache_hit")
        # Readable before close: flushed per line.
        assert path.read_text().count("\n") == 1
        writer.close()
        writer.close()
        tracer.event("late")  # dropped silently after close
        assert writer.records_written == 1

    def test_file_object_sink_is_not_closed(self):
        buffer = io.StringIO()
        with JsonlTraceWriter(buffer) as writer:
            RecordTracer(writer.feed_record).event("e")
        assert not buffer.closed

    def test_timestamps_are_monotone_in_file_order(self):
        buffer = io.StringIO()
        tracer = RecordTracer(JsonlTraceWriter(buffer).feed_record)
        for _ in range(5):
            tracer.event("e")
        timestamps = [r["ts"] for r in self._records(buffer)]
        assert timestamps == sorted(timestamps)


class TestMetrics:
    def test_histogram_buckets_and_stats(self):
        histogram = Histogram("h", boundaries=(1.0, 2.0))
        for value in (0.5, 1.5, 5.0):
            histogram.observe(value)
        assert histogram.buckets == [1, 1, 1]
        assert histogram.count == 3
        assert histogram.min == 0.5 and histogram.max == 5.0
        assert histogram.mean() == pytest.approx(7.0 / 3.0)

    def test_histogram_rejects_unsorted_boundaries(self):
        with pytest.raises(ValueError):
            Histogram("h", boundaries=(2.0, 1.0))

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)

    def test_registry_folds_record_stream(self):
        registry = MetricsRegistry()
        ticks = iter([0.0, 0.0, 0.0, 0.0, 0.0, 0.25])
        tracer = RecordTracer(
            registry.feed_record, clock=lambda: next(ticks)
        )
        tracer.event("oracle.query", mask=1)
        tracer.counter("oracle.cache_hit", 2)
        tracer.gauge("dualize.family", 7)
        with tracer.span("levelwise.level", rank=1):
            pass
        snap = registry.snapshot()
        assert snap["counters"]["events.oracle.query"] == 1
        assert snap["counters"]["oracle.cache_hit"] == 2
        assert snap["gauges"]["dualize.family"]["value"] == 7
        histogram = snap["histograms"]["span.levelwise.level.seconds"]
        assert histogram["count"] == 1
        assert histogram["sum"] == pytest.approx(0.25)

    def test_span_error_counter(self):
        registry = MetricsRegistry()
        tracer = RecordTracer(registry.feed_record, clock=lambda: 0.0)
        with pytest.raises(ValueError):
            with tracer.span("fk.check"):
                raise ValueError
        assert registry.snapshot()["counters"]["span.fk.check.errors"] == 1

    def test_render_writes_aligned_table(self):
        registry = MetricsRegistry()
        registry.counter("events.oracle.query").inc(3)
        out = io.StringIO()
        registry.render(out)
        assert "events.oracle.query" in out.getvalue()
        assert "counter" in out.getvalue()

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_SECONDS_BUCKETS) == sorted(
            DEFAULT_SECONDS_BUCKETS
        )


class TestSchema:
    def test_valid_event_passes(self):
        record = {
            "kind": "event",
            "name": "oracle.query",
            "ts": 0.0,
            "attrs": {"mask": 1, "answer": True, "charged": True},
        }
        assert validate_record(record) == []

    def test_unknown_kind_flagged(self):
        assert validate_record({"kind": "blob", "name": "x", "ts": 0})

    def test_missing_required_attr_flagged(self):
        record = {
            "kind": "event",
            "name": "oracle.query",
            "ts": 0.0,
            "attrs": {"mask": 1},
        }
        problems = validate_record(record)
        assert any("answer" in p for p in problems)

    def test_ts_regression_flagged(self):
        record = {"kind": "event", "name": "custom.thing", "ts": 1.0}
        assert validate_record(record, previous_ts=2.0)

    def test_uncatalogued_names_are_structurally_valid(self):
        record = {"kind": "event", "name": "user.custom", "ts": 0.0}
        assert validate_record(record) == []

    def test_unbalanced_span_flagged(self):
        records = [
            {
                "kind": "span_open",
                "name": "levelwise.run",
                "ts": 0.0,
                "id": 1,
                "attrs": {"n": 4, "resumed": False},
            }
        ]
        problems = validate_trace(records)
        assert any("never closed" in p for p in problems)

    def test_mismatched_close_name_flagged(self):
        records = [
            {
                "kind": "span_open",
                "name": "levelwise.run",
                "ts": 0.0,
                "id": 1,
                "attrs": {"n": 4, "resumed": False},
            },
            {
                "kind": "span_close",
                "name": "dualize.run",
                "ts": 1.0,
                "id": 1,
                "dur": 1.0,
            },
        ]
        problems = validate_trace(records)
        assert any("does not match" in p for p in problems)


class TestCrashArtifactsAndRotation:
    """parse_trace damage tolerance and writer rotation (long-lived
    service support): a torn final line is a crash artifact, interior
    damage is corruption, and rotate() must leave *both* files
    independently balanced."""

    def _write_trace(self, path, lines):
        with open(path, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")

    def test_torn_final_line_warns_and_parses_prefix(self, tmp_path):
        from repro.obs import parse_trace

        path = tmp_path / "trace.jsonl"
        good = json.dumps(
            {"kind": "event", "name": "x", "ts": 0.0, "attrs": {}}
        )
        self._write_trace(path, [good, good])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "ev')  # killed mid-write
        with pytest.warns(UserWarning, match="torn final line"):
            records = parse_trace(str(path))
        assert len(records) == 2

    def test_interior_damage_still_raises(self, tmp_path):
        from repro.obs import parse_trace

        path = tmp_path / "trace.jsonl"
        good = json.dumps(
            {"kind": "event", "name": "x", "ts": 0.0, "attrs": {}}
        )
        self._write_trace(path, [good, "not json", good])
        with pytest.raises(ValueError, match=":2:"):
            parse_trace(str(path))

    def test_newline_terminated_corrupt_final_line_raises(self, tmp_path):
        """A bad final line that ends in a newline was fully written —
        corruption, not a torn tail (mirrors the WAL's rule)."""
        from repro.obs import parse_trace

        path = tmp_path / "trace.jsonl"
        good = json.dumps(
            {"kind": "event", "name": "x", "ts": 0.0, "attrs": {}}
        )
        self._write_trace(path, [good, '{"kind": "ev'])
        with pytest.raises(ValueError, match=":2:"):
            parse_trace(str(path))

    def test_rotate_keeps_both_files_balanced(self, tmp_path):
        from repro.obs import parse_trace

        first = tmp_path / "trace.1.jsonl"
        second = tmp_path / "trace.2.jsonl"
        writer = JsonlTraceWriter(str(first))
        tracer = RecordTracer(writer.feed_record, clock=_ticking())
        with tracer.span("service.request", endpoint="/mine"):
            with tracer.span("request.work", n=4) as inner:
                tracer.event("oracle.query", mask=1, answer=True,
                             charged=True)
                writer.rotate(str(second))
                inner.note(queries=1)
        writer.close()

        old = parse_trace(str(first))
        new = parse_trace(str(second))
        assert validate_trace(old) == []
        assert validate_trace(new) == []
        # The old file ends with synthetic closes, innermost first.
        closes = [r for r in old if r["kind"] == "span_close"]
        assert [c["name"] for c in closes] == [
            "request.work", "service.request"
        ]
        assert all(c["attrs"]["rotated"] for c in closes)
        # The new file re-opens the same spans, outermost first, with
        # the parent chain intact, then records the real closes.
        opens = [r for r in new if r["kind"] == "span_open"]
        assert [o["name"] for o in opens] == [
            "service.request", "request.work"
        ]
        assert opens[1]["parent"] == opens[0]["id"]
        real_closes = [r for r in new if r["kind"] == "span_close"]
        assert [c["name"] for c in real_closes] == [
            "request.work", "service.request"
        ]
        assert real_closes[0]["attrs"].get("queries") == 1
        # ts stays monotone within each file.
        for trace in (old, new):
            stamps = [r["ts"] for r in trace]
            assert stamps == sorted(stamps)

    def test_rotate_refuses_external_sinks_and_closed_writers(
        self, tmp_path
    ):
        buffer = io.StringIO()
        writer = JsonlTraceWriter(buffer)
        with pytest.raises(ValueError, match="path-owned"):
            writer.rotate(str(tmp_path / "x.jsonl"))
        owned = JsonlTraceWriter(str(tmp_path / "y.jsonl"))
        owned.close()
        with pytest.raises(ValueError, match="closed"):
            owned.rotate(str(tmp_path / "z.jsonl"))


def _grenade(record):
    """A consumer that raises on every record — the worst sibling."""
    raise RuntimeError(f"{record['kind']} boom")


class TestConsumerIsolation:
    """Regression: one raising consumer must never starve its siblings.

    The ordering matters — the crashing consumer is registered *first*,
    so a tracer that stopped at the first exception would drop the
    record for everyone after it.
    """

    def test_event_counter_gauge_reach_later_consumers(self):
        records = []
        tracer = RecordTracer(_grenade, records.append)
        tracer.event("eclat.node", prefix=1, tail=2, kind="closed")
        tracer.counter("queries", 3)
        tracer.gauge("depth", 4)
        assert [(r["kind"], r["name"]) for r in records] == [
            ("event", "eclat.node"), ("counter", "queries"),
            ("gauge", "depth"),
        ]
        assert records[0]["attrs"] == {"prefix": 1, "tail": 2,
                                       "kind": "closed"}

    def test_span_open_close_survive_a_crashing_consumer(self):
        records = []
        tracer = RecordTracer(_grenade, records.append)
        with tracer.span("eclat.run", n=4, threshold=2) as span:
            span.note(nodes=9)
        assert [(r["kind"], r["name"]) for r in records] == [
            ("span_open", "eclat.run"), ("span_close", "eclat.run")
        ]
        assert records[-1]["attrs"]["nodes"] == 9, (
            "note was lost behind the crash"
        )

    def test_stitch_reaches_later_consumers(self):
        records = []
        batch = [{"kind": "event", "name": "worker.batch", "ts": 0.0,
                  "attrs": {"n": 1}}]
        RecordTracer(_grenade, records.append).stitch(batch)
        assert [(r["name"], r["attrs"]) for r in records] == [
            ("worker.batch", {"n": 1})
        ]

    def test_instrumented_code_never_sees_the_exception(self):
        tracer = RecordTracer(_grenade)
        tracer.event("anything")  # must not raise
        with tracer.span("region"):
            pass

    def test_durable_writer_stays_valid_next_to_a_grenade(self):
        sink = io.StringIO()
        writer = JsonlTraceWriter(sink)
        tracer = RecordTracer(_grenade, writer.feed_record, _grenade)
        with tracer.span("eclat.run", n=3, threshold=1):
            tracer.event("eclat.node", prefix=0, tail=1, kind="open")
        records = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert validate_trace(records) == []
        assert [r["kind"] for r in records] == [
            "span_open", "event", "span_close"
        ]
