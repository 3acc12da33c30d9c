"""The tracer protocol, and the one tracer that builds trace records.

Every engine in this library accepts a ``tracer=`` argument.  The
default is :data:`NULL_TRACER`, whose methods are all no-ops and whose
``enabled`` attribute is ``False`` — hot paths guard their emission with
``if tracer.enabled:`` so a disabled run pays exactly one attribute
lookup per would-be event (property-tested: enabling a tracer changes
no algorithm output and no query accounting).

Four primitives, mirroring the usual metrics/tracing split:

* ``span(name, **attrs)`` — a timed region, used as a context manager.
  The returned span supports ``note(**attrs)`` to attach summary
  payloads that are emitted with the close record (e.g. a levelwise
  level opens with ``candidates=|C_l|`` and closes with
  ``interesting=...``/``rejected=...``).  Exiting the ``with`` block —
  normally *or through an exception* — always emits the close record,
  which is what makes emission exception-safe by construction.
* ``event(name, **attrs)`` — a point-in-time record (an oracle query,
  a Dualize-and-Advance counterexample).
* ``counter(name, delta=1, **attrs)`` — a monotonically accumulating
  quantity (cache hits).
* ``gauge(name, value, **attrs)`` — a sampled level (live family size).

:class:`RecordTracer` is the concrete tracer: it turns each call into
one record of the :mod:`repro.obs.schema` shape and hands that record,
in order, to each of its *consumers* — any callable taking one record.
The ``feed_record`` method of a
:class:`~repro.obs.jsonl.JsonlTraceWriter` persists it, that of a
:class:`~repro.obs.metrics.MetricsRegistry` aggregates it, that of a
:class:`~repro.obs.monitor.TheoremMonitor` checks the paper's
invariants on it, and a :class:`~repro.obs.context.RecordBuffer` keeps
it for stitching into another process's or thread's stream.
"""

from __future__ import annotations

import time
from typing import Any, Callable

__all__ = ["Tracer", "Span", "NullTracer", "NULL_TRACER", "RecordTracer",
           "as_tracer"]


class _NullSpan:
    """Shared inert span: nothing to record, nothing to close."""

    __slots__ = ()

    def note(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Protocol base.  Subclass and override what you consume.

    ``enabled`` is the hot-path switch: engines skip attribute packing
    entirely when it is ``False``, so only genuinely active tracers
    should report ``True``.
    """

    enabled = True

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def span(self, name: str, **attrs: Any):
        return _NULL_SPAN

    def counter(self, name: str, delta: int = 1, **attrs: Any) -> None:
        pass

    def gauge(self, name: str, value: float, **attrs: Any) -> None:
        pass

    def stitch(self, records) -> None:
        """Fold a batch of already-recorded remote records into this
        tracer.

        The cross-process transport: a worker buffers its records in a
        :class:`~repro.obs.context.RecordBuffer`, ships them back with
        its result, and the coordinator calls ``stitch`` at the
        deterministic fold point.  Records arrive complete (spans
        balanced, durations measured in the worker) and must not be
        re-measured — so this is a separate method rather than a replay
        through :meth:`span`.  The base implementation ignores them;
        :meth:`RecordTracer.stitch` remaps them into its stream.
        """


class NullTracer(Tracer):
    """The disabled tracer: every method is a no-op.

    ``enabled`` is ``False`` so instrumented code skips even building
    the attribute dict — the whole cost of tracing-off is the
    ``tracer.enabled`` attribute lookup.
    """

    enabled = False

    def __repr__(self) -> str:
        return "NULL_TRACER"


#: Module-level singleton used as the default everywhere.
NULL_TRACER = NullTracer()


def as_tracer(tracer: "Tracer | None") -> Tracer:
    """Normalize an optional tracer argument (``None`` → disabled)."""
    return NULL_TRACER if tracer is None else tracer


class Span:
    """A :class:`RecordTracer` span: opened on creation, closed once.

    ``__exit__`` emits the close record exactly once, naming the
    exception type under ``error`` when the region raised.  The open
    and the close record share the span's ``attrs`` dict, so a consumer
    that keeps records (a :class:`~repro.obs.context.RecordBuffer`)
    finds the notes on the kept open record too.
    """

    __slots__ = ("name", "attrs", "_tracer", "_id", "_t0", "_closed")

    def __init__(self, tracer: "RecordTracer", name: str, attrs: dict):
        self.name = name
        self.attrs = attrs
        self._tracer = tracer
        self._closed = False
        tracer._span_counter += 1
        self._id = tracer._span_counter
        self._t0 = ts = tracer._now()
        record: dict[str, Any] = {
            "kind": "span_open", "name": name, "id": self._id
        }
        stack = tracer._stack
        if stack:
            record["parent"] = stack[-1]
        record["ts"] = ts
        if attrs:
            record["attrs"] = attrs
        stack.append(self._id)
        tracer._emit(record)

    def note(self, **attrs: Any) -> None:
        """Attach summary attributes, emitted with the close record."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._closed:
            return
        self._closed = True
        tracer = self._tracer
        stack = tracer._stack
        if stack and stack[-1] == self._id:
            stack.pop()
        elif self._id in stack:  # closed out of order
            stack.remove(self._id)
        ts = tracer._now()
        record: dict[str, Any] = {
            "kind": "span_close",
            "name": self.name,
            "id": self._id,
            "dur": ts - self._t0,
        }
        if exc_type is not None:
            record["error"] = exc_type.__name__
        record["ts"] = ts
        if self.attrs:
            record["attrs"] = self.attrs
        tracer._emit(record)


class RecordTracer(Tracer):
    """Build each trace record once and hand it to every consumer.

    Args:
        *consumers: callables taking one record dict, called in order
            for every record.  They must treat the record as read-only:
            every consumer receives the same dict.  One raising never
            drops the record for the consumers after it, never
            unbalances their spans and never reaches the instrumented
            code — a crashing consumer next to the durable
            :class:`~repro.obs.jsonl.JsonlTraceWriter` cannot corrupt
            the trace.
        clock: monotonic clock for ``ts`` and ``dur``; defaults to
            :func:`time.monotonic`.
        context: a :class:`~repro.obs.context.TraceContext` to record
            under — its trace id, and its clock zero so that a worker's
            ``ts`` is relative to the coordinator's.  Without one the
            tracer starts a new trace whose zero is its construction.

    Span ids count up from 1 per tracer.  ``ts`` is seconds since the
    clock zero, clamped at 0 (a worker's clock may sit slightly behind
    the coordinator zero it was given).  Single-threaded by design,
    like the engines; the service gives each request its own buffer.
    """

    def __init__(
        self,
        *consumers: Callable[[dict], Any],
        clock: Callable[[], float] | None = None,
        context=None,
    ):
        self._consumers = consumers
        self._clock = clock if clock is not None else time.monotonic
        if context is None:
            # Imported here: every engine imports this module, and
            # uuid loads a C extension and ``platform`` with it.
            import uuid

            self.trace_id = uuid.uuid4().hex
            self.clock_offset = self._clock()
        else:
            self.trace_id = context.trace_id
            self.clock_offset = context.clock_offset
        self._stack: list[int] = []
        self._span_counter = 0

    @property
    def current_span(self) -> int | None:
        """The id of the innermost open span, or ``None``."""
        return self._stack[-1] if self._stack else None

    def _now(self) -> float:
        ts = self._clock() - self.clock_offset
        return ts if ts > 0.0 else 0.0

    def _emit(self, record: dict[str, Any]) -> None:
        for consume in self._consumers:
            try:
                consume(record)
            except Exception:
                continue

    def event(self, name: str, **attrs: Any) -> None:
        record: dict[str, Any] = {
            "kind": "event", "name": name, "ts": self._now()
        }
        if attrs:
            record["attrs"] = attrs
        self._emit(record)

    def span(self, name: str, **attrs: Any) -> Span:
        return Span(self, name, attrs)

    def counter(self, name: str, delta: int = 1, **attrs: Any) -> None:
        record: dict[str, Any] = {
            "kind": "counter", "name": name, "delta": delta,
            "ts": self._now(),
        }
        if attrs:
            record["attrs"] = attrs
        self._emit(record)

    def gauge(self, name: str, value: float, **attrs: Any) -> None:
        record: dict[str, Any] = {
            "kind": "gauge", "name": name, "value": value,
            "ts": self._now(),
        }
        if attrs:
            record["attrs"] = attrs
        self._emit(record)

    def stitch(self, records) -> None:
        """Hand a drained :class:`~repro.obs.context.RecordBuffer`
        batch to the consumers as part of this stream.

        Remote records arrive complete — balanced spans, worker-measured
        ``dur`` — but carry *local* span ids and remote timestamps, so
        each is copied and remapped:

        * span ids are renumbered onto this tracer's id sequence
          (unique ids per trace);
        * a top-level remote span is re-parented under the span open
          here (the fold point's span — deterministic, because folds
          happen in sequence order);
        * ``ts`` is re-stamped with this tracer's clock, keeping each
          consumer's stream monotone; the worker-measured ``dur`` is
          kept (it is a duration, and exactly what per-worker
          attribution needs);
        * a close whose open is not in the batch is dropped.

        Because each batch is balanced, a stitched file still passes
        :func:`~repro.obs.schema.validate_trace` and rotation keeps
        working (no remote span is ever left open across a boundary).
        """
        id_map: dict[int, int] = {}
        anchor = self.current_span
        for record in records:
            rec = dict(record)
            attrs = rec.pop("attrs", None)
            kind = rec.get("kind")
            if kind == "span_open":
                local = rec.get("id")
                self._span_counter += 1
                rec["id"] = id_map[local] = self._span_counter
                parent = id_map.get(rec.pop("parent", None), anchor)
                if parent is not None:
                    rec["parent"] = parent
            elif kind == "span_close":
                mapped = id_map.get(rec.get("id"))
                if mapped is None:
                    continue
                rec["id"] = mapped
            rec["ts"] = self._now()
            if attrs:
                rec["attrs"] = attrs
            self._emit(rec)

    def __repr__(self) -> str:
        return (
            f"RecordTracer(trace={self.trace_id[:8]}, "
            f"consumers={len(self._consumers)})"
        )
