"""Parallel Eclat over a shared-memory vertical store.

PR 5 sharded the Rymon tree at its first level and dispatched root
subtrees in deterministic *waves* — a barrier per ``workers`` subtrees.
On the skewed class sizes the paper's borders produce (one deep prefix
subtree, many shallow ones) a wave runs at the speed of its slowest
subtree.  This engine removes both the barrier and the per-worker
pickled database copy:

* **transport** — the coordinator publishes the column bitmaps once
  into a :class:`~repro.parallel.shm.ShmVerticalStore`; the pool
  initializer ships only the small segment handle, and each worker
  materializes its columns straight from the mapped pages (no pickle
  stream).
* **dispatch** — every task is submitted up front through
  :meth:`~repro.parallel.pool.WorkerPool.map_in_order`, so an idle
  worker takes the next queued task the moment it finishes, and
  results fold strictly by task sequence number as each one is ready.
  Large root classes are *split* one level down (every depth-2 subtree
  of a root whose tail has at least ``_SPLIT_TAIL`` members becomes its
  own task), so even a single dominant root subtree spreads across all
  workers.

**Determinism.**  The task list, the split rule, and the fold order are
functions of the database and threshold alone — never of the worker
count or the completion order.  Workers compute pure functions of their
payloads; every side effect (support recording, query charging, budget
checks, trace events) happens coordinator-side in fold order.  The
coordinator evaluates its own nodes — the root class and the depth-2
node of each split root — with the same kernel call the workers make,
into a node-local dict, and charges them by replaying the answers in
extension order through the serial engine's charge step
(:class:`repro.mining.eclat._Run`).  A split root is *computed* during
task building (workers need the task list immediately) but *charged*
at the root's serial DFS position in the fold stream, so theory, Bd+,
Bd-, supports, node counts, and Theorem 10/21 query accounting are
bit-identical to the serial engine at every worker count — and a
mid-run budget cut lands between the same two fold steps everywhere,
making budgeted :class:`~repro.runtime.partial.PartialResult`s
deterministic too (one task subtree is the overshoot unit).

The partial's lower frontier stays *complete* at any cut, a Ctrl-C
included.  Tasks fold whole, so it needs no progress state: it is the
node frontier (extensions plus pairs of the confirmed ones) of the root
class and of every root member, rebuilt from the answers recorded so
far.  Every undecided mask extends one of these (monotonicity decides
the rest).

Crash tolerance is the pool's: a dying pool resubmits the tasks not yet
folded to a rebuilt pool through the bounded restart allowance; past it
the coordinator mines the remaining sequence numbers itself
(``worker.fallback``), still folding in order.  The
shared-memory segment is tied to the pool as a finalizer — pool close
(normal, exception, or interrupt) unlinks it, with an ``atexit`` hook
as the last line of defence against leaked ``/dev/shm`` entries.
"""

from __future__ import annotations

import os
import time

from repro.core.errors import BudgetExhausted
from repro.datasets.transactions import TransactionDatabase
from repro.mining.eclat import (
    EclatResult,
    _expand_for,
    _maximal_from_supports,
    _mine_subtree,
    _root_cover,
    _Run,
)
from repro.obs.context import TraceContext, active_collector
from repro.parallel.pool import WorkerPool, WorkerPoolBroken, resolve_workers
from repro.parallel.shm import ShmHandle, ShmVerticalStore
from repro.runtime.partial import PartialResult

__all__ = ["eclat_parallel"]

#: Root members whose candidate tail has at least this many members are
#: split into one task per depth-2 subtree; shorter tails ship as one
#: whole-root task.  A constant (never derived from the worker count)
#: so the task list — and with it every budget cut point — is identical
#: at every worker count.
_SPLIT_TAIL = 4

# Per-process worker state: set once by the pool initializer, read by
# every _mine_task call in that process.
_WORKER_STATE: dict = {}


def _root_class(
    columns: list, n_rows: int, threshold: int, answers: dict | None = None
) -> tuple[list[tuple[int, int, int]], bool]:
    """The root equivalence class, exactly as the serial engine forms it.

    Returns the frequent singleton members ``(bit, supp, cover)`` and
    whether the class switched to diffset covers.  Rather than
    duplicating the switch rule (which differs per cover
    representation: row counts for big ints, container bytes for
    roaring covers), this delegates to the same expand kernel the
    serial engine runs on its root node — so coordinator and every
    worker agree with serial bit for bit on both backends.  ``answers``
    optionally receives the frequent singletons' supports, which the
    coordinator replays to charge the root class.
    """
    full_cover = _root_cover(columns, n_rows)
    root_exts = [
        (1 << item, 0, column) for item, column in enumerate(columns)
    ]
    return _expand_for(full_cover)(
        0, False, n_rows, full_cover, root_exts, threshold,
        {} if answers is None else answers, [],
    )


def _init_steal_worker(handle: ShmHandle, threshold: int) -> None:
    """Build the per-process mining state from the published store.

    Attaches the segment and reads the columns from the mapped pages,
    then unmaps — the kernel owns its columns from here.
    """
    _WORKER_STATE.clear()
    store = ShmVerticalStore.attach(handle)
    try:
        columns = store.columns()
    finally:
        store.close()
    members, is_diff = _root_class(columns, handle.n_rows, threshold)
    _WORKER_STATE["members"] = members
    _WORKER_STATE["is_diff"] = is_diff
    _WORKER_STATE["threshold"] = threshold
    _WORKER_STATE["expansions"] = {}


def _mine_payload(
    members: list[tuple[int, int, int]],
    is_diff: bool,
    threshold: int,
    expansions: dict,
    position: int,
    split_index: int | None,
) -> tuple[dict[int, int], list[int], int, int, float, list[int]]:
    """Mine one task subtree — the pure kernel both sides share.

    ``split_index=None`` mines the whole subtree under root member
    ``position``; otherwise the depth-2 subtree under that root's
    ``split_index``-th child.  Child classes of split roots are derived
    once per process and memoized in ``expansions`` (their evaluations
    are charged coordinator-side; recomputation here is pure).
    Returns ``(supports, rejected, nodes, diffset_nodes, seconds,
    maximal)``, where ``maximal`` holds the task's sets with no
    one-item extension among its own supports — its Bd+ candidates.
    """
    t0 = time.perf_counter()
    bit, supp, cover = members[position]
    supports: dict[int, int] = {}
    rejected: list[int] = []
    if split_index is None:
        nodes, diffset_nodes = _mine_subtree(
            bit,
            is_diff,
            supp,
            cover,
            members[position + 1 :],
            threshold,
            supports,
            rejected,
        )
    else:
        node = expansions.get(position)
        if node is None:
            node = _expand_for(cover)(
                bit,
                is_diff,
                supp,
                cover,
                members[position + 1 :],
                threshold,
                {},
                [],
            )
            expansions[position] = node
        child_members, child_diff = node
        child_bit, child_supp, child_cover = child_members[split_index]
        nodes, diffset_nodes = _mine_subtree(
            bit | child_bit,
            child_diff,
            child_supp,
            child_cover,
            child_members[split_index + 1 :],
            threshold,
            supports,
            rejected,
        )
    maximal = _maximal_from_supports(supports)
    seconds = time.perf_counter() - t0
    return supports, rejected, nodes, diffset_nodes, seconds, maximal


def _mine_task(position: int, split_index: int | None):
    """Worker entry point: mine one task from the initializer state.

    Returns the :func:`_mine_payload` 6-tuple extended with the drained
    trace-record batch (empty when the run is untraced).  The worker
    wraps its work in a ``worker.task`` span on the process's buffering
    collector — it never emits ``oracle.query`` events itself; those
    are re-emitted (and charged) coordinator-side in fold order, so the
    :class:`~repro.obs.monitor.TheoremMonitor` accounting stays
    single-counted and bit-identical to serial.
    """
    args = (
        _WORKER_STATE["members"],
        _WORKER_STATE["is_diff"],
        _WORKER_STATE["threshold"],
        _WORKER_STATE["expansions"],
        position,
        split_index,
    )
    collector = active_collector()
    if collector is None:
        return (*_mine_payload(*args), ())
    with collector.span(
        "worker.task",
        position=position,
        split=split_index,
        worker=os.getpid(),
    ) as span:
        result = _mine_payload(*args)
        span.note(
            supported=len(result[0]),
            rejected=len(result[1]),
            nodes=result[2],
            seconds=round(result[4], 6),
        )
    return (*result, collector.drain())


def eclat_parallel(
    database: TransactionDatabase,
    min_support: int | float,
    *,
    workers: int | None = None,
    budget=None,
    on_exhaust: str = "return",
    tracer=None,
) -> "EclatResult | PartialResult":
    """Depth-first vertical mining, fanned out across a worker pool.

    Args:
        database: the transaction database.
        min_support: absolute (int) or relative (float) threshold.
        workers: worker processes; ``None`` or ``<= 1`` delegates to the
            serial :func:`repro.mining.eclat.eclat`.
        budget: optional :class:`~repro.runtime.budget.Budget`, charged
            coordinator-side in fold order — before every answer the
            coordinator charges and before every task fold, so cut
            points are identical at every worker count (one task
            subtree is the overshoot unit).
        on_exhaust: ``"return"`` or ``"raise"``, as in the serial
            engine.
        tracer: optional tracer.  The coordinator emits the
            ``eclat.run`` span, ``shm.publish``/``shm.attach`` for the
            shared store, root-level ``eclat.node`` events, one
            ``oracle.query`` event per evaluation (worker answers are
            re-emitted on fold — same masks and answers as serial,
            grouped per subtree), one ``worker.batch`` event per folded
            task, and the ``eclat.done`` accounting that
            :class:`~repro.obs.monitor.TheoremMonitor` certifies.
            Workers never emit ``oracle.query`` records (that would
            double-charge the accounting); instead each task runs under
            a buffered ``worker.task`` span — position, split index,
            pid, and worker-measured duration — that rides home with
            the result tuple and is stitched into the coordinator
            stream at the fold point (see
            :class:`~repro.obs.context.WorkerTraceCollector`), so one
            trace file holds the whole multi-process run and still
            certifies unchanged.

    Returns:
        The same :class:`~repro.mining.eclat.EclatResult` (or certified
        :class:`~repro.runtime.partial.PartialResult`, also on
        ``KeyboardInterrupt``) the serial engine produces — identical
        theory, borders, supports, node counts, and accounting.
    """
    if resolve_workers(workers) <= 1:
        from repro.mining.eclat import eclat

        return eclat(
            database,
            min_support,
            budget=budget,
            on_exhaust=on_exhaust,
            tracer=tracer,
        )
    run = _Run(database, min_support, budget, on_exhaust, tracer)
    tracer = run.tracer
    threshold = run.threshold
    supports = run.supports
    rejected = run.rejected
    n = len(database.universe)
    n_rows = database.n_transactions
    columns = database.tidsets_view()
    singletons = [(1 << item,) for item in range(n)]

    # Bd+ bookkeeping: each task's local maxima (the coordinator's own
    # join at the end), and every set known to have a frequent one-item
    # extension.
    candidates: list[int] = []
    marked: set[int] = set()
    nodes = diffset_nodes = 0
    # The root class, once charged.  Tasks fold whole, so at a cut the
    # coordinator's DFS state is this one frame at next index 0.
    members: list[tuple[int, int, int]] = []
    root_is_diff = False
    tasks: list[tuple[int, int | None]] = []
    # Split roots: position -> (the depth-2 node's answers, its members'
    # bits), computed at task building and charged at the root's DFS
    # slot in the fold stream.
    splits: dict[int, tuple[dict[int, int], list[int]]] = {}
    # Task sequence number -> the split roots charged just before its
    # fold.
    pre_charges: dict[int, list[int]] = {}

    def charge_split(position: int) -> None:
        """Charge a split root's depth-2 node at its serial DFS slot."""
        nonlocal nodes, diffset_nodes
        nodes += 1
        if root_is_diff:
            diffset_nodes += 1
        bit = members[position][0]
        tail = members[position + 1 :]
        run.open(bit, root_is_diff, len(tail))
        run.replay(bit, tail, splits[position][0])

    def merge(seq: int, result) -> None:
        nonlocal nodes, diffset_nodes
        sub_supports, sub_rejected, sub_nodes, sub_diff = result[:4]
        # Rejections first: a Ctrl-C between the two lines leaves the
        # task's frequent sets undecided, so its root member's node
        # frontier still covers the whole task.
        rejected.extend(sub_rejected)
        supports.update(sub_supports)
        if tracer.enabled:
            for mask in sub_supports:
                tracer.event(
                    "oracle.query", mask=mask, answer=True, charged=True
                )
            for mask in sub_rejected:
                tracer.event(
                    "oracle.query", mask=mask, answer=False, charged=True
                )
        nodes += sub_nodes
        diffset_nodes += sub_diff
        if sub_supports:
            # A frequent X ∪ {i} outside X's task differs from X in one
            # of its own task's prefix bits, so those are the only
            # parents a task's sets can have in another task.  The
            # prefix itself (coordinator-evaluated) is a parent too.
            position, split_index = tasks[seq]
            prefix_bits = [members[position][0]]
            if split_index is not None:
                prefix_bits.append(splits[position][1][split_index])
            prefix = 0
            for bit in prefix_bits:
                prefix |= bit
                marked.update([mask ^ bit for mask in sub_supports])
            marked.add(prefix)
            candidates.extend(result[5])

    def fold(seq: int, result) -> None:
        for position in pre_charges.get(seq, ()):
            charge_split(position)
        if budget is not None:
            budget.check(queries=run.queries, family=len(members))
        # Stitch the worker's buffered trace records at the fold point:
        # folds happen strictly in sequence order, so the stitched
        # record order is deterministic at every worker count.  (The
        # serial fallback path folds bare 6-tuples — nothing to stitch.)
        records = result[6] if len(result) > 6 else ()
        if tracer.enabled and records:
            tracer.stitch(records)
        merge(seq, result)
        if tracer.enabled:
            tracer.event(
                "worker.batch",
                shard=seq,
                size=len(result[0]) + len(result[1]),
                seconds=round(result[4], 6),
            )

    with tracer.span("eclat.run", n=n, threshold=threshold) as run_span:
        store = ShmVerticalStore.publish(database)
        if tracer.enabled:
            tracer.event(
                "shm.publish",
                segment=store.handle.name,
                bytes=store.handle.n_bytes,
                rows=n_rows,
                items=n,
            )
        pool = WorkerPool(
            workers,
            initializer=_init_steal_worker,
            initargs=(store.handle, threshold),
            trace_context=(
                TraceContext.capture(tracer) if tracer.enabled else None
            ),
            tracer=tracer,
        )
        # Pool lifetime == segment lifetime: close() runs this on every
        # exit path (success, exception, interrupt).
        pool.add_finalizer(store.unlink)
        if tracer.enabled:
            tracer.event(
                "shm.attach",
                segment=store.handle.name,
                workers=pool.workers,
            )
        try:
            if not run.probe_empty(n_rows):
                return run.complete((), 0, 0, run_span)
            # The root class, charged like a split root: one kernel call
            # (the one every worker makes) into a node-local dict, then
            # its answers in item order.  ``members`` is set only after
            # the replay, since a cut reads it as the charged root.
            nodes = 1
            run.open(0, False, n)
            answers: dict[int, int] = {}
            root = _root_class(columns, n_rows, threshold, answers)
            run.replay(0, singletons, answers)
            members, root_is_diff = root

            # Build the task list: one task per short root subtree, one
            # per depth-2 subtree of long roots.  Split expansions are
            # computed here (pure — tasks must exist before dispatch)
            # and queued for charging at their fold-order slot.
            pending_charge: list[int] = []
            for position in range(len(members) - 1):
                bit, supp, cover = members[position]
                tail = members[position + 1 :]
                if len(tail) < _SPLIT_TAIL:
                    position_tasks = [(position, None)]
                else:
                    answers = {}
                    child_members, _ = _expand_for(cover)(
                        bit, root_is_diff, supp, cover, tail, threshold,
                        answers, [],
                    )
                    splits[position] = (
                        answers,
                        [member[0] for member in child_members],
                    )
                    pending_charge.append(position)
                    position_tasks = [
                        (position, split_index)
                        for split_index in range(len(child_members) - 1)
                    ]
                for task in position_tasks:
                    if pending_charge:
                        pre_charges[len(tasks)] = pending_charge
                        pending_charge = []
                    tasks.append(task)

            if tasks:
                folded = 0
                try:
                    for result in pool.map_in_order(_mine_task, tasks):
                        fold(folded, result)
                        folded += 1
                except WorkerPoolBroken:
                    if tracer.enabled:
                        tracer.event(
                            "worker.fallback", reason="pool-broken"
                        )
                    # Finish the remaining sequence numbers on the
                    # coordinator, folding through the same path.
                    local_expansions: dict = {}
                    for seq in range(folded, len(tasks)):
                        position, split_index = tasks[seq]
                        fold(
                            seq,
                            _mine_payload(
                                members,
                                root_is_diff,
                                threshold,
                                local_expansions,
                                position,
                                split_index,
                            ),
                        )
            for position in pending_charge:
                charge_split(position)
        except BudgetExhausted as exhausted:
            return run.partial(
                exhausted.reason,
                singletons,
                [(0, root_is_diff, members, 0)],
                run_span,
            )
        except KeyboardInterrupt:
            return run.partial(
                "interrupt",
                singletons,
                [(0, root_is_diff, members, 0)],
                run_span,
            )
        finally:
            pool.close()

        # The sets the coordinator charged (∅, the root members and the
        # split roots' children) have at most two items, so none of
        # them extends a task's set; among themselves, their own
        # maximal ones are the candidates.
        own = [0] + [member[0] for member in members]
        for position, (_, child_bits) in splits.items():
            own += [members[position][0] | bit for bit in child_bits]
        candidates.extend(_maximal_from_supports(own))
        return run.complete(
            [mask for mask in candidates if mask not in marked],
            nodes,
            diffset_nodes,
            run_span,
        )
