"""A persistent, crash-tolerant worker pool for the parallel engines.

:class:`WorkerPool` is the one place in :mod:`repro.parallel` that talks
to :class:`concurrent.futures.ProcessPoolExecutor`.  It adds the three
behaviours every parallel engine here relies on:

* **serial mode** — ``workers <= 1`` builds no processes at all;
  :attr:`parallel` is then ``False`` and callers run their own serial
  path.  Every parallel entry point in this package therefore degrades
  to the exact serial algorithm with zero overhead.
* **ordered dispatch** — :meth:`map_in_order` submits a whole task
  list and yields results in *submission* order, never in completion
  order, so a fold over them does not depend on OS scheduling.
* **bounded crash recovery** — when the pool dies mid-batch (a worker
  was OOM-killed, segfaulted, or the executor broke), the tasks not yet
  yielded are resubmitted to a freshly spawned pool, at most
  ``max_restarts`` times, mirroring the bounded-retry semantics of
  :class:`~repro.runtime.resilient.ResilientOracle`.  Once restarts are
  exhausted the pool marks itself broken and raises
  :class:`WorkerPoolBroken`; callers fall back to their serial path,
  so a dying pool degrades a run, never corrupts it.  Re-running a task
  is safe because every task shipped through this pool is a pure
  function of its arguments — re-execution cannot change an answer.

The ``fork`` start method is preferred on platforms that offer it (the
pool is spawned before any numpy threads exist, and fork makes pool
startup cheap enough to use inside tests); elsewhere the platform
default is used.
"""

from __future__ import annotations

import multiprocessing
from collections import deque
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

__all__ = ["WorkerPool", "WorkerPoolBroken", "resolve_workers"]


def _initializer_with_context(context, initializer, initargs):
    """Worker-process bootstrap when a trace context is shipped.

    Must be a module-level function (it crosses the process boundary by
    pickle).  Installs the process's buffering
    :class:`~repro.obs.context.WorkerTraceCollector` *before* the
    engine's own initializer runs, so even initializer-time spans could
    be collected; because it is stored as the pool's initializer it is
    rerun on every restart — a rebuilt worker traces exactly like the
    original.
    """
    from repro.obs.context import install_worker_collector

    install_worker_collector(context)
    if initializer is not None:
        initializer(*initargs)


class WorkerPoolBroken(RuntimeError):
    """The pool died and its restart allowance is spent.

    Callers catch this and fall back to their serial implementation;
    results stay bit-identical because every parallel kernel in this
    package computes the same function as its serial counterpart.
    """


def resolve_workers(workers: int | None) -> int:
    """Normalize a worker-count argument to an ``int >= 1``.

    ``None`` means serial (parallelism is opt-in), any value below 1 is
    clamped to 1.  The CLI and the engine entry points all route their
    ``workers`` argument through here so "serial" has one spelling.
    """
    if workers is None:
        return 1
    return max(1, int(workers))


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class WorkerPool:
    """A restartable :class:`ProcessPoolExecutor` with ordered dispatch.

    Args:
        workers: process count; ``<= 1`` (or ``None``) means serial mode
            — no executor is created and :attr:`parallel` is ``False``.
        initializer: optional per-process initializer (e.g. the store
            attach of :mod:`repro.parallel.eclat`); rerun on every
            restart, so a rebuilt pool is indistinguishable from the
            original.
        initargs: arguments for ``initializer``; must be picklable.
        max_restarts: how many times a broken pool may be rebuilt
            before :class:`WorkerPoolBroken` is raised (default 1).
        trace_context: optional :class:`~repro.obs.context.TraceContext`
            shipped to every worker process through the initializer
            handshake (the same channel the shared-memory handle uses).
            When given, each worker installs a buffering
            :class:`~repro.obs.context.WorkerTraceCollector` before the
            engine initializer runs; tasks fetch it with
            :func:`~repro.obs.context.active_collector` and return the
            drained record batch with their results for coordinator-side
            stitching.  Restarts reship the context automatically.
        tracer: optional :class:`~repro.obs.tracer.Tracer`; emits a
            ``worker.pool`` event per (re)spawn and a ``worker.crash``
            event per pool failure.
    """

    __slots__ = (
        "workers",
        "_initializer",
        "_initargs",
        "_restarts_left",
        "_executor",
        "_broken",
        "_tracer",
        "_finalizers",
    )

    def __init__(
        self,
        workers: int | None,
        *,
        initializer: Callable | None = None,
        initargs: tuple = (),
        max_restarts: int = 1,
        trace_context=None,
        tracer=None,
    ):
        from repro.obs.tracer import as_tracer

        if max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        self.workers = resolve_workers(workers)
        if trace_context is not None:
            self._initializer = _initializer_with_context
            self._initargs = (trace_context, initializer, initargs)
        else:
            self._initializer = initializer
            self._initargs = initargs
        self._restarts_left = max_restarts
        self._executor: ProcessPoolExecutor | None = None
        self._broken = False
        self._tracer = as_tracer(tracer)
        self._finalizers: list[Callable[[], None]] = []
        if self.workers > 1:
            self._spawn()

    def add_finalizer(self, finalizer: Callable[[], None]) -> None:
        """Register a cleanup callback bound to this pool's lifetime.

        Finalizers run exactly once, on the first :meth:`close` — which
        the context manager guarantees even on exceptions and
        ``KeyboardInterrupt``.  This is how engines tie shared-memory
        segments (:class:`~repro.parallel.shm.ShmVerticalStore`) to the
        pool: close the pool, release the segment — no leak paths.
        """
        self._finalizers.append(finalizer)

    @property
    def parallel(self) -> bool:
        """True while the pool has live processes to dispatch to."""
        return self.workers > 1 and not self._broken

    def _spawn(self) -> None:
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=_pool_context(),
            initializer=self._initializer,
            initargs=self._initargs,
        )
        if self._tracer.enabled:
            self._tracer.event("worker.pool", workers=self.workers)

    def _teardown(self) -> None:
        if self._executor is not None:
            # cancel_futures guards against a wedged queue; the broken
            # executor's processes are already gone or being reaped.
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def restart(self, error: BaseException | None = None) -> None:
        """Tear the pool down and respawn it, consuming one restart.

        The recovery path of :meth:`map_in_order`: emits a
        ``worker.crash`` event, and once the restart allowance is spent
        marks the pool permanently broken and raises
        :class:`WorkerPoolBroken` so callers take their serial path.
        """
        self._teardown()
        fatal = self._restarts_left <= 0
        if self._tracer.enabled:
            self._tracer.event(
                "worker.crash",
                error=type(error).__name__ if error else "restart",
                fatal=fatal,
            )
        if fatal:
            self._broken = True
            raise WorkerPoolBroken(str(error) or "pool broken") from error
        self._restarts_left -= 1
        self._spawn()

    def submit(self, fn: Callable, *args):
        """Submit one task to the live executor (no implicit recovery).

        Returns a :class:`concurrent.futures.Future`.  Unlike
        :meth:`map_in_order` this performs *no* retry or restart: a
        submission that trips over a broken executor raises that
        executor's :class:`BrokenProcessPool`, and a dead future raises
        it from ``result()``, for the caller to handle.

        Raises:
            WorkerPoolBroken: in serial mode or permanently broken.
        """
        if not self.parallel:
            raise WorkerPoolBroken("pool is serial or permanently broken")
        return self._executor.submit(fn, *args)

    def map_in_order(
        self, fn: Callable, task_args: Sequence[tuple]
    ) -> Iterator:
        """Run ``fn(*args)`` for every argument tuple, yielding in order.

        Every task is submitted up front; results are yielded strictly
        in submission order as each one is ready, and each future is
        dropped once read.  Exceptions raised *by* ``fn`` propagate
        unchanged (they are deterministic and retrying cannot help); a
        *pool* death — :class:`BrokenProcessPool` — triggers a rebuild
        and a resubmission of the tasks not yet yielded, once per
        remaining restart.  When the caller stops early (an exception
        in its loop, or closing the iterator) the tasks that have not
        started are cancelled, so an abandoned batch cannot wedge the
        executor's queue or strand worker processes past :meth:`close`.

        Raises:
            WorkerPoolBroken: at the call, in serial mode or when the
                pool is already broken; during iteration, when the
                restart allowance is exhausted.
        """
        if not self.parallel:
            raise WorkerPoolBroken("pool is serial or permanently broken")
        return self._ordered(fn, task_args)

    def _ordered(self, fn: Callable, task_args: Sequence[tuple]):
        futures: deque = deque()
        yielded = 0
        try:
            while yielded < len(task_args):
                try:
                    if not futures:
                        futures.extend(
                            self._executor.submit(fn, *args)
                            for args in task_args[yielded:]
                        )
                    result = futures[0].result()
                except BrokenProcessPool as error:
                    futures.clear()
                    self.restart(error)
                    continue
                futures.popleft()
                yielded += 1
                yield result
        finally:
            for future in futures:
                future.cancel()

    def close(self) -> None:
        """Shut the executor down and run finalizers (idempotent).

        Queued-but-unstarted work is cancelled — after an interrupt
        nobody is left to consume it — and registered finalizers run
        exactly once, each shielded from the others, so pool-scoped
        resources (shared-memory segments above all) are released on
        every exit path.
        """
        try:
            if self._executor is not None:
                self._executor.shutdown(wait=True, cancel_futures=True)
                self._executor = None
        finally:
            self._broken = True
            finalizers, self._finalizers = self._finalizers, []
            for finalizer in finalizers:
                try:
                    finalizer()
                except Exception:  # pragma: no cover - defensive
                    pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "parallel" if self.parallel else "serial/broken"
        return f"WorkerPool(workers={self.workers}, {state})"
