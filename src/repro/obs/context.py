"""Cross-process trace propagation: contexts and record buffers.

A :class:`~repro.obs.tracer.RecordTracer` owns one span-id sequence and
one clock zero, and its consumers (the JSONL file, the registry, the
monitor) live in one process — none of which can be shared with a
worker process or written from concurrent threads.  This module is the
seam that carries tracing *across* the pool boundary, and across the
service's handler threads, without giving up the single-stream
contract:

* :class:`TraceContext` — the small, picklable identity of the
  coordinator's trace (trace id, the span the remote records belong
  under, and the coordinator's monotonic clock zero).  It ships to
  workers through the existing pool-initializer handshake
  (:class:`~repro.parallel.pool.WorkerPool` ``trace_context=``), the
  same channel the shared-memory handle uses.
* :class:`RecordBuffer` — a record consumer that *keeps* the records of
  its own :class:`~repro.obs.tracer.RecordTracer` instead of writing
  them.  A worker runs its task under the buffer's tracer, then
  :meth:`~RecordBuffer.drain`\\ s the balanced batch and returns it
  with the task result.  The coordinator folds results in deterministic
  sequence order and calls :meth:`~repro.obs.tracer.Tracer.stitch` at
  each fold, so the final trace has one deterministic record order,
  balanced spans, and monotone timestamps — ``validate_trace``-clean by
  construction.

The transport changes *nothing* about mining results: buffers only
observe, the records ride the existing result tuples, and stitching
happens at the same fold points that already exist — the
tracing-on/off bit-identity property suite covers the worker path.
"""

from __future__ import annotations

import time
import uuid
from dataclasses import dataclass
from typing import Any

from repro.obs.tracer import RecordTracer, Tracer

__all__ = [
    "TraceContext",
    "RecordBuffer",
    "install_worker_collector",
    "active_collector",
]


@dataclass(frozen=True)
class TraceContext:
    """The picklable identity of a coordinator trace.

    Attributes:
        trace_id: opaque hex id of the coordinator's trace stream.
        parent_span: coordinator span id the remote records logically
            belong under (``None`` at top level).  Informational — the
            coordinator re-anchors stitched records under whatever span
            is open at the fold point, which is the same span on every
            deterministic run.
        clock_offset: the coordinator's monotonic-clock zero.  Workers
            stamp buffered records relative to it so raw worker
            timestamps are comparable across processes (``fork`` shares
            the monotonic epoch); stitching re-stamps ``ts`` with the
            coordinator clock anyway, so this is best-effort context,
            never a correctness input.
    """

    trace_id: str
    parent_span: int | None
    clock_offset: float

    @classmethod
    def capture(cls, tracer: Tracer) -> "TraceContext":
        """Snapshot ``tracer``'s context for shipment to workers.

        A :class:`~repro.obs.tracer.RecordTracer` answers with its real
        identity and its innermost open span; for any other tracer a
        fresh anonymous context is minted — workers only need *a*
        consistent clock zero and id to buffer against.
        """
        if isinstance(tracer, RecordTracer):
            return cls(
                trace_id=tracer.trace_id,
                parent_span=tracer.current_span,
                clock_offset=tracer.clock_offset,
            )
        return cls(
            trace_id=uuid.uuid4().hex,
            parent_span=None,
            clock_offset=time.monotonic(),
        )


class RecordBuffer:
    """Keep one task's or one request's records for later stitching.

    Two deployments share it:

    * **worker processes** — installed by the pool initializer from a
      shipped :class:`TraceContext`; each task drains its batch into
      the result tuple (:func:`install_worker_collector` /
      :func:`active_collector`);
    * **service handler threads** — one buffer per HTTP request, so
      the shared tracer receives each request's span tree as one
      contiguous, lock-guarded stitch instead of interleaved records
      from concurrent threads.

    :attr:`tracer` is the buffer's own
    :class:`~repro.obs.tracer.RecordTracer`, recording under
    ``context``: records carry *local* span ids and timestamps relative
    to ``context.clock_offset``, and stitching remaps the ids into the
    destination stream and re-stamps ``ts``, keeping the
    worker-measured ``dur``.

    :meth:`drain` returns the buffered batch and empties the buffer for
    the next task.  Draining with a span still open raises — a
    half-open batch could never satisfy ``validate_trace`` and points
    at a task that leaked a span.
    """

    def __init__(self, context: TraceContext):
        self._records: list[dict[str, Any]] = []
        self.tracer = RecordTracer(self._records.append, context=context)

    def __len__(self) -> int:
        return len(self._records)

    def drain(self) -> tuple[dict[str, Any], ...]:
        """Take the buffered batch and empty the buffer.

        Raises:
            ValueError: when a span is still open — the batch would be
                unbalanced and could never stitch cleanly.
        """
        if self.tracer.current_span is not None:
            raise ValueError(
                "cannot drain with a span still open; close every span "
                "before returning the batch"
            )
        records = tuple(self._records)
        self._records.clear()
        return records

    def __repr__(self) -> str:
        return (
            f"RecordBuffer(trace={self.tracer.trace_id[:8]}, "
            f"buffered={len(self._records)})"
        )


# The per-process buffer a pool initializer installs.  One slot per
# worker process (same pattern as the engines' _WORKER_STATE dicts):
# tasks are executed strictly one at a time per process, so a single
# buffer per process is race-free.
_ACTIVE: list[RecordBuffer | None] = [None]


def install_worker_collector(context: TraceContext | None) -> None:
    """Install (or clear) this process's record buffer.

    Called by the :class:`~repro.parallel.pool.WorkerPool` initializer
    wrapper in each worker process — and again on every pool restart,
    so a rebuilt worker is indistinguishable from the original.
    """
    _ACTIVE[0] = (
        RecordBuffer(context) if context is not None else None
    )


def active_collector() -> RecordBuffer | None:
    """The buffer installed in this process, or ``None`` (untraced)."""
    return _ACTIVE[0]
