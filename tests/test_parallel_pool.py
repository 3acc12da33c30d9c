"""Unit tests for the worker pool.

The determinism-facing surface (parallel == serial on whole mining
runs) lives in ``test_parallel_steal.py`` and
``test_hypergraph_mmcs.py``; this module exercises the machinery
underneath: ordered dispatch, crash recovery with bounded restarts,
finalizers, and resource release on interrupt.
"""

from __future__ import annotations

import os

import pytest

from repro.obs.tracer import Tracer
from repro.parallel import WorkerPool, WorkerPoolBroken, resolve_workers


class RecordingTracer(Tracer):
    """Captures (name, attrs) event pairs for assertions."""

    def __init__(self):
        self.events: list[tuple[str, dict]] = []

    def event(self, name, **attrs):
        self.events.append((name, attrs))

    def names(self) -> set[str]:
        return {name for name, _ in self.events}


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom {x}")


def _crash_once(sentinel, value):
    """Kill the worker process the first time, succeed after.

    The sentinel file marks that the crash already happened, so the
    whole-batch retry on the rebuilt pool completes.
    """
    if not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        os._exit(3)
    return value


# -- resolve_workers ----------------------------------------------------


def test_resolve_workers_normalization():
    assert resolve_workers(None) == 1
    assert resolve_workers(0) == 1
    assert resolve_workers(-4) == 1
    assert resolve_workers(1) == 1
    assert resolve_workers(6) == 6


# -- WorkerPool ---------------------------------------------------------


def test_pool_serial_mode_has_no_processes():
    pool = WorkerPool(1)
    assert not pool.parallel
    with pytest.raises(WorkerPoolBroken):
        pool.map_in_order(_square, [(2,)])
    pool.close()


def test_pool_map_preserves_submission_order():
    with WorkerPool(2) as pool:
        results = pool.map_in_order(_square, [(i,) for i in range(20)])
    assert results == [i * i for i in range(20)]


def test_pool_task_exceptions_propagate_unwrapped():
    with WorkerPool(2) as pool:
        with pytest.raises(ValueError, match="boom 3"):
            pool.map_in_order(_boom, [(3,)])
        # a task error does not break the pool
        assert pool.parallel
        assert pool.map_in_order(_square, [(4,)]) == [16]


def test_pool_restarts_after_worker_crash(tmp_path):
    sentinel = str(tmp_path / "crashed")
    tracer = RecordingTracer()
    with WorkerPool(2, max_restarts=1, tracer=tracer) as pool:
        results = pool.map_in_order(
            _crash_once, [(sentinel, i) for i in range(6)]
        )
        assert results == list(range(6))
        assert pool.parallel
    assert "worker.crash" in tracer.names()


def test_pool_breaks_permanently_when_restarts_exhausted(tmp_path):
    sentinel = str(tmp_path / "never")  # crash keyed on a fresh path

    with WorkerPool(2, max_restarts=0) as pool:
        with pytest.raises(WorkerPoolBroken):
            pool.map_in_order(_crash_once, [(sentinel, 0)])
        assert not pool.parallel


# -- finalizers and resource release ------------------------------------


def test_finalizers_run_once_on_close():
    pool = WorkerPool(2)
    calls: list[str] = []
    pool.add_finalizer(lambda: calls.append("a"))
    pool.add_finalizer(lambda: calls.append("b"))
    pool.close()
    pool.close()
    assert calls == ["a", "b"]


def test_finalizers_run_even_when_one_raises():
    pool = WorkerPool(2)
    calls: list[str] = []

    def _bad():
        raise RuntimeError("finalizer exploded")

    pool.add_finalizer(_bad)
    pool.add_finalizer(lambda: calls.append("after"))
    pool.close()
    assert calls == ["after"]


def test_finalizers_run_on_context_exception():
    calls: list[str] = []
    with pytest.raises(ValueError):
        with WorkerPool(2) as pool:
            pool.add_finalizer(lambda: calls.append("released"))
            raise ValueError("engine failure")
    assert calls == ["released"]


def test_interrupted_shm_run_releases_everything():
    """A KeyboardInterrupt mid-run must leave no pool, no segment, and
    no resource_tracker warnings behind (the satellite-1 contract)."""
    import subprocess
    import sys
    import textwrap

    script = textwrap.dedent(
        """
        import random
        import repro.parallel.eclat as eclat_module
        from repro.datasets.transactions import TransactionDatabase
        from repro.parallel.eclat import eclat_parallel
        from repro.runtime.partial import PartialResult
        from repro.util.bitset import Universe

        rng = random.Random(3)
        universe = Universe(range(12))
        database = TransactionDatabase(
            universe, [rng.getrandbits(12) for _ in range(150)]
        )

        # interrupt the engine mid-schedule: the first fold raises
        original = eclat_module.StealScheduler.run

        def interrupting_run(self, fold):
            raise KeyboardInterrupt

        eclat_module.StealScheduler.run = interrupting_run
        result = eclat_parallel(database, 4, workers=2)
        assert isinstance(result, PartialResult), type(result)
        print("INTERRUPT-OK")
        """
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONWARNINGS": "always"},
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert "INTERRUPT-OK" in completed.stdout
    # the resource tracker reports leaked segments/semaphores on stderr
    # at interpreter exit; a clean teardown prints nothing of the sort
    assert "leaked shared_memory" not in completed.stderr, completed.stderr
    assert "leaked semaphore" not in completed.stderr, completed.stderr
