"""Multi-core execution layer: one path, work stealing over shared memory.

Two parallel kernels, both with a bit-identical-to-serial contract and
a serial fallback (``workers <= 1``, or a pool that died past its
restart allowance):

* :func:`~repro.parallel.eclat.eclat_parallel` — the depth-first
  vertical miner with subtree tasks dynamically *work-stolen* across
  the pool (:class:`~repro.parallel.steal.StealScheduler`); each worker
  mines through the serial hot kernel and results fold in task-sequence
  order, so the merged result is the serial one bit for bit at every
  worker count and steal schedule.
* :func:`~repro.parallel.mmcs.mmcs_transversals_parallel` — the MMCS
  hitting-set search tree split at depth 2 into work-stolen subtree
  tasks, folding in traversal order.

Eclat's transaction data reaches workers through a
:class:`~repro.parallel.shm.ShmVerticalStore`: the vertical bitmaps are
published once into a shared-memory segment and every worker maps the
same pages (zero-copy).

See ``docs/API.md`` §12–14 for the determinism guarantees and
worker-crash semantics.
"""

from repro.parallel.eclat import eclat_parallel
from repro.parallel.mmcs import mmcs_transversals_parallel
from repro.parallel.pool import WorkerPool, WorkerPoolBroken, resolve_workers
from repro.parallel.shm import ShmHandle, ShmVerticalStore
from repro.parallel.steal import StealScheduler

__all__ = [
    "WorkerPool",
    "WorkerPoolBroken",
    "resolve_workers",
    "ShmHandle",
    "ShmVerticalStore",
    "StealScheduler",
    "eclat_parallel",
    "mmcs_transversals_parallel",
]
