"""Frozen PR 5 wave-scheduled parallel Eclat, for A/B benchmarking.

The shipped :func:`repro.parallel.eclat.eclat_parallel` replaced static
dispatch waves (batches of ``workers`` whole root subtrees behind a
barrier, the database pickled into every worker) with split subtree
tasks over a shared-memory store.  This module preserves the *old*
scheduling and transport — whole-root tasks, ``map_in_order`` waves,
columns shipped through the pool initializer — on top of the shipped
mining kernels, so ``bench_steal`` can time exactly the scheduling and
transport delta on one machine.  Kept under ``benchmarks/`` (not part
of the library) and stripped of budgets/tracing: full runs only.
"""

from __future__ import annotations

from repro.datasets.transactions import TransactionDatabase
from repro.mining.eclat import _maximal_from_supports, _mine_subtree
from repro.parallel.eclat import _root_class
from repro.parallel.pool import WorkerPool
from repro.util.bitset import popcount
from repro.util.prefix import parents_all_in

_WORKER_STATE: dict = {}


def _init_wave_worker(columns, n_rows, threshold) -> None:
    _WORKER_STATE.clear()
    members, is_diff = _root_class(list(columns), n_rows, threshold)
    _WORKER_STATE["members"] = members
    _WORKER_STATE["is_diff"] = is_diff
    _WORKER_STATE["threshold"] = threshold


def _mine_root(position: int):
    members = _WORKER_STATE["members"]
    bit, supp, cover = members[position]
    supports: dict[int, int] = {}
    rejected: list[int] = []
    _mine_subtree(
        bit,
        _WORKER_STATE["is_diff"],
        supp,
        cover,
        members[position + 1 :],
        _WORKER_STATE["threshold"],
        supports,
        rejected,
        [],
    )
    return supports, rejected


def eclat_waves(
    database: TransactionDatabase, min_support: int | float, workers: int
):
    """The PR 5 parallel Eclat: whole-root waves, pickled transport.

    Returns ``(interesting, maximal, negative_border, supports)`` —
    the comparable payload of an Eclat
    :class:`~repro.core.theory.Theory`.
    """
    threshold = (
        database.absolute_support(min_support)
        if isinstance(min_support, float)
        else min_support
    )
    n = len(database.universe)
    n_rows = database.n_transactions
    columns = database.tidsets_view()

    supports: dict[int, int] = {}
    rejected: list[int] = []
    if n_rows < threshold:
        return (), (), (0,), {}
    supports[0] = n_rows
    for item in range(n):
        supp = popcount(columns[item])
        if supp >= threshold:
            supports[1 << item] = supp
        else:
            rejected.append(1 << item)
    members, _ = _root_class(columns, n_rows, threshold)
    task_count = max(0, len(members) - 1)
    with WorkerPool(
        workers,
        initializer=_init_wave_worker,
        initargs=(tuple(columns), n_rows, threshold),
    ) as pool:
        next_position = 0
        while next_position < task_count:
            wave = list(
                range(
                    next_position,
                    min(next_position + pool.workers, task_count),
                )
            )
            results = pool.map_in_order(
                _mine_root, [(position,) for position in wave]
            )
            for sub_supports, sub_rejected in results:
                supports.update(sub_supports)
                rejected.extend(sub_rejected)
            next_position = wave[-1] + 1

    frequent_set = set(supports)
    negative = [
        mask for mask in rejected if parents_all_in(mask, frequent_set)
    ]
    maximal = _maximal_from_supports(supports)
    return (
        tuple(sorted(supports, key=lambda m: (popcount(m), m))),
        tuple(sorted(maximal, key=lambda m: (popcount(m), m))),
        tuple(sorted(negative, key=lambda m: (popcount(m), m))),
        supports,
    )
