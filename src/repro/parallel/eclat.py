"""Work-stealing parallel Eclat over a shared-memory vertical store.

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
* **scheduling** — tasks go through a
  :class:`~repro.parallel.steal.StealScheduler`: a coordinator-owned
  deque, idle workers steal from the tail the moment they finish, and
  results fold strictly by task sequence number.  Large root classes
  are *split* one level down (every depth-2 subtree of a root whose
  tail has at least ``_SPLIT_TAIL`` members becomes its own task), so
  even a single dominant root subtree spreads across all workers.

**Determinism.**  The task list, the split rule, and the fold order are
functions of the database and threshold alone — never of the worker
count or the steal schedule.  Workers compute pure functions of their
payloads; every side effect (support recording, query charging, budget
checks, trace events) happens coordinator-side in fold order.  The
depth-2 evaluations of a split root are *computed* during task
building (workers need the task list immediately) but *charged* at the
root's serial DFS position in the fold stream, so theory, Bd+, Bd-,
supports, node counts, and Theorem 10/21 query accounting are
bit-identical to the serial engine at every worker count — and a
mid-run budget cut lands between the same two fold steps everywhere,
making budgeted :class:`~repro.runtime.partial.PartialResult`s
deterministic too (the wave-free replacement for PR 5's wave-granular
budgets; one task subtree is now the overshoot unit).

The partial's lower frontier stays *complete* at any cut: remaining
singletons (and pairwise masks of confirmed ones) during the root
class; during a split-root charge its unreplayed pair masks plus
pairwise specializations of its confirmed members; pairwise root masks
for every untouched subtree; and for a charged split root the pairwise
specializations of its child prefixes per unfolded task.  Every
undecided mask extends one of these (monotonicity decides the rest).

Crash tolerance is the scheduler's: a dying pool reclaims in-flight
tasks and retries on a rebuilt pool through the bounded restart
allowance; past it the coordinator mines the remaining sequence
numbers itself (``worker.fallback``), still folding in order.  The
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
)
from repro.obs.context import TraceContext, active_collector
from repro.obs.tracer import as_tracer
from repro.parallel.pool import WorkerPool, WorkerPoolBroken, resolve_workers
from repro.parallel.shm import ShmHandle, ShmVerticalStore
from repro.parallel.steal import StealScheduler
from repro.runtime.partial import PartialResult, build_partial
from repro.util.bitset import popcount, rank_sorted
from repro.util.prefix import parents_all_in

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
    columns: list, n_rows: int, threshold: int
) -> tuple[list[tuple[int, int, int]], bool]:
    """The root equivalence class, exactly as the serial engine forms it.

    Returns the frequent singleton members ``(bit, supp, cover)`` and
    whether the class switched to diffset covers.  Rather than
    duplicating the switch rule (which differs per cover
    representation: row counts for big ints, container bytes for
    roaring covers), this delegates to the same expand kernel the
    serial engine runs on its root node — so coordinator and every
    worker agree with serial bit for bit on both backends.
    """
    if columns and type(columns[0]) is not int:
        from repro.util.roaring import RoaringBitmap

        full_cover = RoaringBitmap.full(n_rows)
    else:
        full_cover = (1 << n_rows) - 1
    root_exts = [
        (1 << item, 0, column) for item, column in enumerate(columns)
    ]
    return _expand_for(full_cover)(
        0, False, n_rows, full_cover, root_exts, threshold, {}, []
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
    steal_rng=None,
) -> "EclatResult | PartialResult":
    """Depth-first vertical mining, work-stolen across a worker pool.

    Args:
        database: the transaction database.
        min_support: absolute (int) or relative (float) threshold.
        workers: worker processes; ``None`` or ``<= 1`` delegates to the
            serial :func:`repro.mining.eclat.eclat`.
        budget: optional :class:`~repro.runtime.budget.Budget`, charged
            coordinator-side in fold order — before every coordinator
            evaluation and before every task fold, so cut points are
            identical at every worker count (one task subtree is the
            overshoot unit).
        on_exhaust: ``"return"`` or ``"raise"``, as in the serial
            engine.
        tracer: optional tracer.  The coordinator emits the
            ``eclat.run`` span, ``shm.publish``/``shm.attach`` for the
            shared store, root-level ``eclat.node`` events, one
            ``oracle.query`` event per evaluation (worker answers are
            re-emitted on fold — same masks and answers as serial,
            grouped per subtree), one ``worker.steal`` event per steal,
            one ``worker.batch`` event per folded task, and the
            ``eclat.done`` accounting that
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
        steal_rng: test hook — a ``random.Random``-like object that
            turns tail steals into seeded random steals; results are
            independent of it by construction, which the determinism
            suite asserts.

    Returns:
        The same :class:`~repro.mining.eclat.EclatResult` (or certified
        :class:`~repro.runtime.partial.PartialResult`) the serial
        engine produces — identical theory, borders, supports, node
        counts, and accounting.
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
    if on_exhaust not in ("return", "raise"):
        raise ValueError(
            f"on_exhaust must be 'return' or 'raise', got {on_exhaust!r}"
        )
    threshold = (
        database.absolute_support(min_support)
        if isinstance(min_support, float)
        else min_support
    )
    if threshold < 0:
        raise ValueError("min_support must be non-negative")
    tracer = as_tracer(tracer)
    universe = database.universe
    n = len(universe)
    n_rows = database.n_transactions
    columns = database.tidsets_view()

    supports: dict[int, int] = {}
    rejected: list[int] = []
    # Bd+ bookkeeping: the candidates (coordinator-evaluated frequent
    # sets plus each task's local maxima) and every set known to have
    # a frequent one-item extension.
    candidates: list[int] = []
    marked: set[int] = set()
    queries = 0
    nodes = 0
    diffset_nodes = 0
    run_t0 = time.monotonic()
    if budget is not None:
        budget.begin()

    members: list[tuple[int, int, int]] = []
    root_is_diff = False
    tasks: list[tuple[int, int | None]] = []
    charges: dict[int, tuple[list[tuple[int, bool, int]], int]] = {}
    split_child_bits: dict[int, list[int]] = {}
    charged: set[int] = set()
    # Cut-point state for frontier construction: which stage the fold
    # stream is in, how far the singleton scan got, the confirmed
    # frequent singletons, the in-progress charge replay (position,
    # next index), and the first unfolded task sequence number.
    phase: dict = {
        "stage": "root",
        "next_item": 0,
        "confirmed": [],
        "charge": None,
        "next_unfolded": 0,
    }

    def make_partial(reason: str) -> PartialResult:
        frontier: list[int] = []
        if phase["stage"] == "root":
            # Nothing decided yet: ∅ alone covers everything.
            frontier.append(0)
        elif phase["stage"] == "singletons":
            # Unevaluated singletons cover every mask containing them;
            # a mask of decided singletons is either decided False or
            # extends a pair of confirmed ones.
            for item in range(phase["next_item"], n):
                frontier.append(1 << item)
            bits = phase["confirmed"]
            for a in range(len(bits)):
                for b in range(a + 1, len(bits)):
                    frontier.append(bits[a] | bits[b])
        else:
            progress = phase["charge"]
            if progress is not None:
                # Mid-charge on one split root: its unreplayed pair
                # masks, plus pairwise specializations of the members
                # confirmed so far (their subtrees are all unfolded).
                position, index = progress
                replay, _ = charges[position]
                for mask, _, _ in replay[index:]:
                    frontier.append(mask)
                confirmed = [
                    mask for mask, answer, _ in replay[:index] if answer
                ]
                for a in range(len(confirmed)):
                    for b in range(a + 1, len(confirmed)):
                        frontier.append(confirmed[a] | confirmed[b])
            unfolded: dict[int, list[int]] = {}
            for seq in range(phase["next_unfolded"], len(tasks)):
                position, split_index = tasks[seq]
                unfolded.setdefault(position, []).append(split_index)
            for position in range(max(0, len(members) - 1)):
                if progress is not None and position == progress[0]:
                    continue  # handled above
                if position in charged:
                    # Pairs are decided; each unfolded depth-2 task is
                    # covered by the pairwise specializations of its
                    # child prefixes.
                    prefixes = [
                        members[position][0] | child
                        for child in split_child_bits[position]
                    ]
                    for split_index in unfolded.get(position, ()):
                        for later in range(split_index + 1, len(prefixes)):
                            frontier.append(
                                prefixes[split_index] | prefixes[later]
                            )
                elif position in charges or position in unfolded:
                    # Untouched subtree (uncharged split root, or
                    # unfolded whole-root task): every mask under it
                    # extends a pair of root members.
                    bit_p = members[position][0]
                    for later_bit, _, _ in members[position + 1 :]:
                        frontier.append(bit_p | later_bit)
        # Every evaluated mask sits in exactly one of the two.
        history = dict.fromkeys(supports, True)
        history.update(dict.fromkeys(rejected, False))
        return build_partial(
            universe,
            "eclat",
            reason,
            history,
            interesting=list(supports),
            negative_candidates=rejected,
            frontier=frontier,
            frontier_kind="lower",
            frontier_complete=True,
            queries=queries,
            total_calls=queries,
            evaluations=queries,
            elapsed=time.monotonic() - run_t0,
        )

    def finish_partial(reason: str, run_span) -> PartialResult:
        partial = make_partial(reason)
        if tracer.enabled:
            run_span.note(outcome="partial", reason=reason)
        if on_exhaust == "raise":
            raise BudgetExhausted(reason, partial=partial)
        return partial

    def record(mask: int, answer: bool, supp: int) -> None:
        # Coordinator-side evaluations (∅, the singletons, split-root
        # pairs): each frequent one is a Bd+ candidate and marks all of
        # its parents.
        nonlocal queries
        queries += 1
        if answer:
            supports[mask] = supp
            candidates.append(mask)
            remaining = mask
            while remaining:
                low = remaining & -remaining
                marked.add(mask ^ low)
                remaining ^= low
        else:
            rejected.append(mask)
        if tracer.enabled:
            tracer.event(
                "oracle.query", mask=mask, answer=answer, charged=True
            )

    def charge_expansion(position: int) -> None:
        """Charge a split root's depth-2 evaluations at its DFS slot.

        Replays the precomputed pair answers in extension order with
        the exact budget checks the serial engine performs at this
        node, and counts the node — so query totals, node totals, and
        cut points match serial.
        """
        nonlocal nodes, diffset_nodes
        replay, tail_len = charges[position]
        nodes += 1
        if root_is_diff:
            diffset_nodes += 1
        if tracer.enabled:
            tracer.event(
                "eclat.node",
                prefix=members[position][0],
                tail=tail_len,
                kind="diff" if root_is_diff else "tid",
            )
        if budget is not None:
            budget.check(queries=queries, family=tail_len)
        progress = [position, 0]
        phase["charge"] = progress
        for index, (mask, answer, supp) in enumerate(replay):
            if budget is not None:
                budget.check(queries=queries)
            record(mask, answer, supp)
            progress[1] = index + 1
        phase["charge"] = None
        charged.add(position)

    def merge(seq: int, result) -> None:
        nonlocal queries, nodes, diffset_nodes
        sub_supports, sub_rejected, sub_nodes, sub_diff = result[:4]
        supports.update(sub_supports)
        rejected.extend(sub_rejected)
        if tracer.enabled:
            for mask in sub_supports:
                tracer.event(
                    "oracle.query", mask=mask, answer=True, charged=True
                )
            for mask in sub_rejected:
                tracer.event(
                    "oracle.query", mask=mask, answer=False, charged=True
                )
        queries += len(sub_supports) + len(sub_rejected)
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
                prefix_bits.append(split_child_bits[position][split_index])
            prefix = 0
            for bit in prefix_bits:
                prefix |= bit
                marked.update([mask ^ bit for mask in sub_supports])
            marked.add(prefix)
            candidates.extend(result[5])

    # pre_charges maps a task sequence number to the split roots whose
    # charge belongs immediately before that fold; assigned during task
    # building below.
    pre_charges: dict[int, list[int]] = {}

    def fold(seq: int, result) -> None:
        for position in pre_charges.get(seq, ()):
            charge_expansion(position)
        if budget is not None:
            budget.check(queries=queries, family=len(members))
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
        phase["next_unfolded"] = seq + 1

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
            # Coordinator: ∅ and the root class (all singletons), the
            # exact probes the serial engine issues first.
            if budget is not None:
                budget.check(queries=0)
            record(0, n_rows >= threshold, n_rows)
            if 0 not in supports:
                if tracer.enabled:
                    run_span.note(outcome="complete", queries=queries)
                    tracer.event(
                        "eclat.done",
                        queries=queries,
                        theory=0,
                        negative=1,
                        maximal=0,
                        rank=0,
                        n=n,
                        nodes=0,
                        diffset_nodes=0,
                    )
                return EclatResult(
                    universe=universe,
                    interesting=(),
                    maximal=(),
                    negative_border=(0,),
                    queries=queries,
                    min_support=threshold,
                    supports=supports,
                )
            phase["stage"] = "singletons"
            nodes = 1
            if tracer.enabled:
                tracer.event("eclat.node", prefix=0, tail=n, kind="tid")
            if budget is not None:
                budget.check(queries=queries, family=n)
            for item in range(n):
                if budget is not None:
                    budget.check(queries=queries)
                supp = popcount(columns[item])
                record(1 << item, supp >= threshold, supp)
                phase["next_item"] = item + 1
                if supp >= threshold:
                    phase["confirmed"].append(1 << item)
            members, root_is_diff = _root_class(columns, n_rows, threshold)

            # Build the task list: one task per short root subtree, one
            # per depth-2 subtree of long roots.  Split expansions are
            # computed here (pure — tasks must exist before dispatch)
            # and queued for charging at their fold-order slot.
            pending_charge: list[int] = []
            for position in range(max(0, len(members) - 1)):
                bit, supp, cover = members[position]
                tail = members[position + 1 :]
                if len(tail) < _SPLIT_TAIL:
                    seq = len(tasks)
                    if pending_charge:
                        pre_charges[seq] = pending_charge
                        pending_charge = []
                    tasks.append((position, None))
                    continue
                scratch_supports: dict[int, int] = {}
                child_members, _ = _expand_for(cover)(
                    bit,
                    root_is_diff,
                    supp,
                    cover,
                    tail,
                    threshold,
                    scratch_supports,
                    [],
                )
                replay = []
                for ext_bit, _, _ in tail:
                    mask = bit | ext_bit
                    child_supp = scratch_supports.get(mask)
                    replay.append(
                        (mask, child_supp is not None, child_supp or 0)
                    )
                charges[position] = (replay, len(tail))
                split_child_bits[position] = [
                    member[0] for member in child_members
                ]
                pending_charge.append(position)
                for split_index in range(len(child_members) - 1):
                    seq = len(tasks)
                    if pending_charge:
                        pre_charges[seq] = pending_charge
                        pending_charge = []
                    tasks.append((position, split_index))
            tail_charges = pending_charge
            phase["stage"] = "tree"

            if tasks:
                scheduler = StealScheduler(
                    pool,
                    _mine_task,
                    tasks,
                    tracer=tracer,
                    steal_rng=steal_rng,
                )
                try:
                    if not pool.parallel:
                        raise WorkerPoolBroken("pool is not available")
                    scheduler.run(fold)
                except WorkerPoolBroken:
                    if tracer.enabled:
                        tracer.event(
                            "worker.fallback", reason="pool-broken"
                        )
                    # Finish the remaining sequence numbers on the
                    # coordinator, folding through the same path.
                    local_expansions: dict = {}
                    for seq in range(phase["next_unfolded"], len(tasks)):
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
            for position in tail_charges:
                charge_expansion(position)
        except BudgetExhausted as exhausted:
            return finish_partial(exhausted.reason, run_span)
        except KeyboardInterrupt:
            return finish_partial("interrupt", run_span)
        finally:
            pool.close()

        negative = [
            mask for mask in rejected if parents_all_in(mask, supports)
        ]
        sorted_maximal = tuple(
            rank_sorted(mask for mask in candidates if mask not in marked)
        )
        if tracer.enabled:
            rank = max((popcount(m) for m in sorted_maximal), default=0)
            run_span.note(outcome="complete", queries=queries)
            tracer.event(
                "eclat.done",
                queries=queries,
                theory=len(supports),
                negative=len(negative),
                maximal=len(sorted_maximal),
                rank=rank,
                n=n,
                nodes=nodes,
                diffset_nodes=diffset_nodes,
            )
        return EclatResult(
            universe=universe,
            interesting=tuple(rank_sorted(supports)),
            maximal=sorted_maximal,
            negative_border=tuple(rank_sorted(negative)),
            queries=queries,
            min_support=threshold,
            supports=supports,
            nodes=nodes,
            diffset_nodes=diffset_nodes,
        )
