"""Graceful degradation: admission control and deadlines.

A long-lived miner must stay *predictable* under overload — the
degradation ladder, in order of preference:

1. **Serve** — a slot is free; the request runs under a per-request
   deadline (a :class:`~repro.runtime.budget.Budget`, the same
   cooperative mechanism the engines already honor), so no request can
   hang past its deadline: a cut mine returns a *certified*
   :class:`~repro.runtime.partial.PartialResult` (HTTP 206), never an
   uncertified answer.
2. **Shed** — all slots are busy and the wait queue is full: the
   request is refused immediately with :class:`Saturated` (HTTP 503 +
   ``Retry-After``), which costs the server nothing and tells the
   client exactly when to come back.
"""

from __future__ import annotations

import threading

from repro.core.errors import ReproError
from repro.obs.tracer import as_tracer

__all__ = ["AdmissionController", "Saturated"]


class Saturated(ReproError):
    """The admission queue is full; retry after ``retry_after`` seconds.

    Attributes:
        retry_after: the suggested client backoff (the ``Retry-After``
            header value) — a conservative estimate of when a slot will
            plausibly be free.
    """

    def __init__(self, retry_after: float):
        super().__init__(
            f"admission queue saturated; retry after {retry_after:.1f}s"
        )
        self.retry_after = retry_after


class AdmissionController:
    """A bounded concurrency gate with load-shedding.

    ``max_concurrent`` requests run at once; up to ``max_queued`` more
    wait (FIFO via the condition queue) at most ``queue_timeout``
    seconds; everything beyond that is shed *immediately* with
    :class:`Saturated` — under saturation the cheapest correct answer
    is a fast 503, not a growing queue of doomed work.

    Args:
        max_concurrent: simultaneous slots (≥ 1).
        max_queued: waiters allowed beyond the slots (0 = shed the
            moment all slots are busy).
        queue_timeout: seconds a waiter may block before being shed.
        retry_after: the backoff hint attached to :class:`Saturated`.
        tracer: optional tracer (``service.shed`` events).
        registry: optional :class:`~repro.obs.metrics.MetricsRegistry`;
            when given, the controller keeps the always-on production
            instruments current — ``repro_admission_active`` /
            ``repro_admission_waiting`` gauges and the
            ``repro_requests_shed_total`` counter — so ``/metrics``
            scrapes see queue pressure without tracing enabled.
    """

    def __init__(
        self,
        max_concurrent: int = 4,
        *,
        max_queued: int = 8,
        queue_timeout: float = 1.0,
        retry_after: float = 1.0,
        tracer=None,
        registry=None,
    ):
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be positive")
        if max_queued < 0:
            raise ValueError("max_queued must be non-negative")
        self._cond = threading.Condition()
        self._max_concurrent = max_concurrent
        self._max_queued = max_queued
        self._queue_timeout = queue_timeout
        self._retry_after = retry_after
        self._active = 0
        self._waiting = 0
        self.admitted = 0
        self.shed = 0
        self._tracer = as_tracer(tracer)
        self._registry = registry
        self._sync_gauges()

    def _sync_gauges(self) -> None:
        # Called with self._cond held (or before concurrency starts).
        if self._registry is not None:
            self._registry.gauge("repro_admission_active").set(self._active)
            self._registry.gauge("repro_admission_waiting").set(self._waiting)

    def _count_shed(self) -> None:
        if self._registry is not None:
            self._registry.counter("repro_requests_shed_total").inc()

    def acquire(self, tracer=None) -> None:
        """Take a slot or raise :class:`Saturated` (never hangs:
        bounded queue, bounded wait).

        ``tracer`` overrides the constructor tracer for this call's
        ``service.shed`` event — the HTTP layer passes its
        request-scoped tracer so shed records land inside the
        request's stitched span tree instead of racing other handler
        threads into the shared writer.
        """
        t = self._tracer if tracer is None else tracer
        with self._cond:
            if self._active < self._max_concurrent:
                self._active += 1
                self.admitted += 1
                self._sync_gauges()
                return
            if self._waiting >= self._max_queued:
                self.shed += 1
                self._count_shed()
                if t.enabled:
                    t.event(
                        "service.shed", waiting=self._waiting, queued=False
                    )
                raise Saturated(self._retry_after)
            self._waiting += 1
            self._sync_gauges()
            try:
                admitted = self._cond.wait_for(
                    lambda: self._active < self._max_concurrent,
                    timeout=self._queue_timeout,
                )
            finally:
                self._waiting -= 1
            if not admitted:
                self.shed += 1
                self._count_shed()
                self._sync_gauges()
                if t.enabled:
                    t.event(
                        "service.shed", waiting=self._waiting, queued=True
                    )
                raise Saturated(self._retry_after)
            self._active += 1
            self.admitted += 1
            self._sync_gauges()

    def release(self) -> None:
        """Free a slot and wake one waiter."""
        with self._cond:
            self._active -= 1
            self._sync_gauges()
            self._cond.notify()

    def __enter__(self) -> "AdmissionController":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def snapshot(self) -> dict:
        """Occupancy counters for ``/metrics``."""
        with self._cond:
            return {
                "active": self._active,
                "waiting": self._waiting,
                "admitted": self.admitted,
                "shed": self.shed,
                "max_concurrent": self._max_concurrent,
                "max_queued": self._max_queued,
            }
