"""JSONL trace persistence: one record per line, flushed as written.

The format is deliberately plain so that any log tooling (``jq``,
pandas, :mod:`benchmarks.trace_report`) can consume it:

* every line is one JSON object, a record built by a
  :class:`~repro.obs.tracer.RecordTracer` (see :mod:`repro.obs.schema`
  for the full record schema);
* ``ts`` is seconds since the tracer's clock zero, read from its
  *injectable monotonic clock* (tests freeze it; production uses
  :func:`time.monotonic`), so timestamps never go backwards and are
  immune to wall-clock adjustments;
* ``kind`` is one of ``span_open``, ``span_close``, ``event``,
  ``counter``, ``gauge``;
* spans carry an ``id`` (and ``parent`` when nested); the close record
  repeats the id and adds ``dur`` plus any
  :meth:`~repro.obs.tracer.Span.note` payload, and records the
  exception type under ``error`` when the region raised.

Each line is flushed immediately, so a trace survives ``SIGKILL``, an
oracle blowing up mid-span, or Ctrl-C with at most the current line
lost — the price is a syscall per record, which only a run that opted
into tracing pays.
"""

from __future__ import annotations

import io
import json
import os
from typing import Any

__all__ = ["JsonlTraceWriter"]


class JsonlTraceWriter:
    """Write trace records as JSON lines to a path or file object.

    Args:
        sink: a path (opened and owned by the writer) or an open text
            file object (flushed but not closed by :meth:`close`).

    Attach it to a tracer as a consumer,
    ``RecordTracer(writer.feed_record)``.  The writer is also a context
    manager; ``close()`` is idempotent and safe to call from a
    ``finally`` block after an interrupt, and records fed after it are
    dropped.
    """

    def __init__(self, sink: "str | os.PathLike | io.TextIOBase"):
        if isinstance(sink, (str, os.PathLike)):
            self._file = open(sink, "w", encoding="utf-8")
            self._owns_file = True
            self.path: str | None = os.fspath(sink)
        else:
            self._file = sink
            self._owns_file = False
            self.path = None
        self._closed = False
        # The span_open record of each span open in the stream, in
        # open order: what rotate() closes and re-opens.
        self._open: dict[int, dict[str, Any]] = {}
        self._ts = 0.0
        self.records_written = 0

    def feed_record(self, record: dict[str, Any]) -> None:
        """Write one record as a line and flush it."""
        if self._closed:
            return
        kind = record["kind"]
        if kind == "span_open":
            self._open[record["id"]] = record
        elif kind == "span_close":
            self._open.pop(record["id"], None)
        self._write(record)

    def _write(self, record: dict[str, Any]) -> None:
        self._file.write(json.dumps(record, default=str) + "\n")
        self._file.flush()
        self._ts = record["ts"]
        self.records_written += 1

    def rotate(self, sink: "str | os.PathLike") -> None:
        """Roll the trace to a new file without dropping open spans.

        Long-lived processes rotate traces to bound file growth; the
        subtlety is spans open *across* the boundary.  Each file must
        independently satisfy :func:`~repro.obs.schema.validate_trace`
        (balanced spans), so rotation, from the span opens this writer
        has written and not yet closed:

        1. writes a synthetic ``span_close`` (``attrs.rotated=True``,
           ``dur`` 0) into the old file for every open span, innermost
           first;
        2. switches to the new file;
        3. writes each open span's ``span_open`` again — same id, name,
           attrs, and parent link — outermost first, tagged
           ``rotated=True``.

        The spans themselves are untouched: their eventual real close
        lands in the new file and matches the re-written open.  The
        synthetic records carry the ``ts`` of the last record written,
        so ``ts`` stays monotone within each file.  Only path-owned
        writers can rotate.
        """
        if self._closed:
            raise ValueError("cannot rotate a closed writer")
        if not self._owns_file:
            raise ValueError(
                "rotate() requires a path-owned writer, not an external "
                "file object"
            )
        opened = list(self._open.values())
        for record in reversed(opened):
            self._write({
                "kind": "span_close",
                "name": record["name"],
                "id": record["id"],
                "dur": 0.0,
                "ts": self._ts,
                "attrs": {**record.get("attrs", {}), "rotated": True},
            })
        self._file.close()
        self._file = open(sink, "w", encoding="utf-8")
        self.path = os.fspath(sink)
        for record in opened:
            self._write({
                **record,
                "ts": self._ts,
                "attrs": {**record.get("attrs", {}), "rotated": True},
            })

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._owns_file:
            self._file.close()
        else:
            try:
                self._file.flush()
            except ValueError:  # sink already closed by its owner
                pass

    def __enter__(self) -> "JsonlTraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"JsonlTraceWriter({state}, records={self.records_written})"
