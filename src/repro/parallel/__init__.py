"""Multi-core execution layer: one path, ordered dispatch over shared memory.

Two parallel kernels, both with a bit-identical-to-serial contract and
a serial fallback (``workers <= 1``, or a pool that died past its
restart allowance):

* :func:`~repro.parallel.eclat.eclat_parallel` — the depth-first
  vertical miner with subtree tasks submitted up front through
  :meth:`~repro.parallel.pool.WorkerPool.map_in_order`; each worker
  mines through the serial hot kernel and results fold in task-sequence
  order, so the merged result is the serial one bit for bit at every
  worker count and completion order.
* :func:`~repro.parallel.mmcs.mmcs_transversals_parallel` — the MMCS
  hitting-set search tree split at depth 2 into subtree tasks, folding
  in traversal order through the same dispatch path.

Eclat's transaction data reaches workers through a
:class:`~repro.parallel.shm.ShmVerticalStore`: the vertical bitmaps are
published once into a shared-memory segment and every worker maps the
same pages (zero-copy).

See ``docs/API.md`` §12–14 for the determinism guarantees and
worker-crash semantics.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.parallel.pool": ("WorkerPool", "WorkerPoolBroken", "resolve_workers"),
    "repro.parallel.shm": ("ShmHandle", "ShmVerticalStore"),
    "repro.parallel.eclat": ("eclat_parallel",),
    "repro.parallel.mmcs": ("mmcs_transversals_parallel",),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
