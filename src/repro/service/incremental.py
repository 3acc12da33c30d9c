"""Incremental border maintenance (Theorem 2 / Corollary 4 delta pass).

The paper's central structural result says the borders are exactly what
verification needs: ``Bd+`` certifies everything below it interesting,
``Bd-`` certifies everything above it uninteresting (Theorem 2), and a
transcript touching just the border re-validates a claimed theory
(Corollary 4).  For a *maintained* theory this turns updates into a
certified fast path — when transactions are appended or the threshold
moves, the only place the theory can change is *through the old
border*:

* appending rows only increases supports, so every old theory member
  stays frequent and every newly frequent set is a superset of some old
  ``Bd-`` member that itself became frequent (its minimal formerly
  infrequent subsets sit in ``Bd-`` by definition);
* raising the threshold only evicts known members, whose exact supports
  the maintained table already holds;
* lowering it (or any mixed update) again admits new sets only through
  newly satisfied ``Bd-`` members.

The repair therefore (1) refreshes the supports of the old theory with
one *delta-only* counting pass, (2) re-evaluates the old ``Bd-`` on the
new database, and (3) grows a breadth-first closure from the ``Bd-``
members that flipped to frequent, generating candidates only when every
immediate generalization is already known frequent (the Algorithm 9
safety rule).  Every support the new theory or new ``Bd-`` needs is
evaluated exactly once; the result is property-tested bit-identical to
from-scratch mining across random databases, thresholds, and batch
splits (``tests/test_service_incremental.py``).

When an update invalidates too much of the border — the closure would
evaluate more than ``repair_limit`` fresh supports — the repair aborts
and falls back to a full :func:`~repro.mining.eclat.eclat` remine, so
the fast path's worst case never exceeds from-scratch cost by more than
the budget that tripped.

Accounting: fresh full-database support evaluations are *charged*
(``queries``), exactly like an engine's ``Is-interesting`` calls; the
delta-only refresh of already-known supports is counted separately
(``support_updates``) because it answers no new membership question —
that split is precisely the Theorem 2 story of what maintenance must
pay for.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

from repro.datasets.transactions import TransactionDatabase
from repro.mining.eclat import _maximal_from_supports, eclat
from repro.obs.tracer import as_tracer
from repro.util.bitset import rank_sorted
from repro.util.prefix import parents_all_in

__all__ = [
    "MaintainedTheory",
    "RepairStats",
    "append_database",
    "apply_append",
    "apply_threshold",
    "mine_initial",
]


def _canonical_supports(supports: dict[int, int]) -> dict[int, int]:
    """Support table in (cardinality, value) order — one canonical
    insertion order regardless of which path (initial mine, repair,
    remine, snapshot restore) produced the table, so iteration order
    can never leak into later results."""
    return {
        mask: supports[mask]
        for mask in rank_sorted(supports)
    }


@dataclass(frozen=True)
class RepairStats:
    """What one update cost.

    Attributes:
        evaluated: fresh full-database supports charged (border
            re-evaluations plus closure candidates).
        support_updates: delta-only refreshes of already-known supports
            (uncharged; see module docs).
        promoted: old ``Bd-`` members that became frequent.
        dropped: old theory members evicted by the update.
        remined: ``True`` when the repair budget tripped and the state
            was rebuilt by a full remine instead.
    """

    evaluated: int = 0
    support_updates: int = 0
    promoted: int = 0
    dropped: int = 0
    remined: bool = False


@dataclass(frozen=True)
class MaintainedTheory:
    """The hot certified state of a mining service.

    An immutable value: updates build a new instance and the service
    swaps the reference atomically, so concurrent readers always see a
    consistent (database, threshold, theory, borders) quadruple.

    Attributes:
        database: the current transaction database.
        threshold: the maintained absolute support threshold.
        supports: support count of every frequent itemset (``∅``
            included), in canonical (cardinality, value) order.
        maximal: ``Bd+`` — the maximal frequent itemsets.
        negative: ``Bd-`` — the minimal infrequent itemsets.
        queries: cumulative distinct support evaluations charged across
            the initial mine and every repair/remine (deterministic, so
            WAL replay reproduces it bit for bit).
        support_updates: cumulative uncharged delta refreshes.
        repairs: updates served by the border-delta fast path.
        remines: updates that fell back to a full remine.
    """

    database: TransactionDatabase
    threshold: int
    supports: dict[int, int] = field(compare=False)
    maximal: tuple[int, ...] = ()
    negative: tuple[int, ...] = ()
    queries: int = 0
    support_updates: int = 0
    repairs: int = 0
    remines: int = 0

    def is_frequent(self, mask: int) -> bool:
        """Certified membership via the border bracket (zero queries).

        Theorem 2: ``mask`` is frequent iff it specializes into some
        ``Bd+`` member; otherwise it dominates a ``Bd-`` witness.
        """
        return any(mask & top == mask for top in self.maximal)

    def member_witness(self, mask: int) -> tuple[bool, int]:
        """``(is_frequent, witness)`` where the witness certifies the
        answer: a dominating ``Bd+`` member for yes, a contained
        ``Bd-`` member for no (always exists for exact borders)."""
        for top in self.maximal:
            if mask & top == mask:
                return True, top
        for bottom in self.negative:
            if mask & bottom == bottom:
                return False, bottom
        raise AssertionError(  # pragma: no cover - borders are exact
            f"mask {mask:#x} escaped the border bracket"
        )

    def theory_at(
        self, threshold: int
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Borders at a *stricter* threshold, from the hot table alone.

        For ``threshold >= self.threshold`` the full support closure
        already contains every set that could be frequent, so both
        borders are computable with zero database work: ``Bd+`` is the
        maximal table entries still over the line, ``Bd-`` collects the
        minimal sets under it (old ``Bd-`` members and newly evicted
        table entries whose parents all survive).  At the maintained
        threshold itself nothing is evicted, so the answer is the
        stored ``(maximal, negative)`` pair.

        Raises:
            ValueError: for a looser threshold — that needs a repair or
                a fresh mine, not a filter.
        """
        if threshold < self.threshold:
            raise ValueError(
                f"threshold {threshold} is below the maintained "
                f"{self.threshold}; the hot table cannot answer it"
            )
        if threshold == self.threshold:
            return self.maximal, self.negative
        frequent = {
            mask: supp
            for mask, supp in self.supports.items()
            if supp >= threshold
        }
        frequent_set = set(frequent)
        evicted = [mask for mask in self.supports if mask not in frequent_set]
        negative = [
            mask
            for mask in (*self.negative, *evicted)
            if parents_all_in(mask, frequent_set)
        ]
        return (
            tuple(rank_sorted(_maximal_from_supports(frequent))),
            tuple(rank_sorted(negative)),
        )


def mine_initial(
    database: TransactionDatabase,
    min_support: int | float,
    *,
    tracer=None,
) -> MaintainedTheory:
    """Mine the full theory once (depth-first vertical engine) and wrap
    it as the service's maintained state."""
    threshold = (
        database.absolute_support(min_support)
        if isinstance(min_support, float)
        else int(min_support)
    )
    result = eclat(database, threshold, tracer=tracer)
    return MaintainedTheory(
        database=database,
        threshold=threshold,
        supports=_canonical_supports(result.supports),
        maximal=result.maximal,
        negative=result.negative_border,
        queries=result.queries,
    )


def append_database(
    database: TransactionDatabase, delta_masks: list[int]
) -> TransactionDatabase:
    """A new database with ``delta_masks`` appended: O(items · delta)
    column extension, carrying the row list when ``database`` holds one
    (:meth:`~repro.datasets.transactions.TransactionDatabase.appended`).
    """
    return database.appended(delta_masks)


class _RepairBudgetExceeded(Exception):
    """Internal: the closure outgrew ``repair_limit``; remine instead."""


def _repair(
    state: MaintainedTheory,
    new_db: TransactionDatabase,
    new_threshold: int,
    repair_limit: int | None,
) -> tuple[MaintainedTheory, RepairStats]:
    """Border-delta repair of ``state`` against a new (db, threshold).

    See the module docstring for the completeness argument; raises
    :class:`_RepairBudgetExceeded` when more than ``repair_limit`` fresh
    evaluations would be needed.
    """
    n_items = len(state.database.universe)
    n_delta = new_db.n_transactions - state.database.n_transactions
    evaluated = 0
    support_updates = 0

    # 1. Refresh the known supports with one delta-only pass (counts of
    # the *new* rows alone; old counts are already in the table).
    if n_delta > 0:
        n_old = state.database.n_transactions
        if new_db.backend == "roaring":
            delta_columns = [
                column.sliced(n_old, new_db.n_transactions)
                for column in new_db.tidsets_view()
            ]
        else:
            delta_columns = [
                column >> n_old for column in new_db.tidsets_view()
            ]
        delta_db = TransactionDatabase.from_vertical(
            state.database.universe,
            delta_columns,
            n_delta,
            backend=state.database.backend,
        )
        masks = list(state.supports)
        delta_counts = delta_db.support_counts(masks)
        refreshed = {
            mask: state.supports[mask] + delta
            for mask, delta in zip(masks, delta_counts)
        }
        support_updates = len(masks)
    else:
        refreshed = dict(state.supports)

    frequent: dict[int, int] = {
        mask: supp for mask, supp in refreshed.items() if supp >= new_threshold
    }
    dropped = len(refreshed) - len(frequent)
    # Everything evaluated-and-infrequent this epoch; final Bd- filters
    # it against the final frequent family.
    infrequent: set[int] = {
        mask for mask in refreshed if mask not in frequent
    }

    def charge() -> None:
        nonlocal evaluated
        evaluated += 1
        if repair_limit is not None and evaluated > repair_limit:
            raise _RepairBudgetExceeded

    # 2. Re-evaluate the old negative border: the only gate through
    # which new members can enter the theory.
    promoted: deque[int] = deque()
    for mask in state.negative:
        charge()
        supp = new_db.support_count(mask)
        if supp >= new_threshold:
            frequent[mask] = supp
            promoted.append(mask)
        else:
            infrequent.add(mask)
    n_promoted = len(promoted)

    # 3. Breadth-first closure above the promoted members.  A candidate
    # is generated only when all its immediate generalizations are
    # frequent; the member whose processing *completes* that condition
    # generates it, so every reachable set is evaluated exactly once.
    queue = promoted
    while queue:
        parent = queue.popleft()
        for item in range(n_items):
            bit = 1 << item
            if parent & bit:
                continue
            candidate = parent | bit
            if candidate in frequent or candidate in infrequent:
                continue
            if not parents_all_in(candidate, frequent):
                continue
            charge()
            supp = new_db.support_count(candidate)
            if supp >= new_threshold:
                frequent[candidate] = supp
                queue.append(candidate)
            else:
                infrequent.add(candidate)

    frequent_set = set(frequent)
    negative = tuple(
        rank_sorted(
            mask for mask in infrequent if parents_all_in(mask, frequent_set)
        )
    )
    maximal = tuple(rank_sorted(_maximal_from_supports(frequent)))
    stats = RepairStats(
        evaluated=evaluated,
        support_updates=support_updates,
        promoted=n_promoted,
        dropped=dropped,
    )
    new_state = replace(
        state,
        database=new_db,
        threshold=new_threshold,
        supports=_canonical_supports(frequent),
        maximal=maximal,
        negative=negative,
        queries=state.queries + evaluated,
        support_updates=state.support_updates + support_updates,
        repairs=state.repairs + 1,
    )
    return new_state, stats


def _remine(
    state: MaintainedTheory,
    new_db: TransactionDatabase,
    new_threshold: int,
) -> tuple[MaintainedTheory, RepairStats]:
    result = eclat(new_db, new_threshold)
    new_state = replace(
        state,
        database=new_db,
        threshold=new_threshold,
        supports=_canonical_supports(result.supports),
        maximal=result.maximal,
        negative=result.negative_border,
        queries=state.queries + result.queries,
        remines=state.remines + 1,
    )
    return new_state, RepairStats(evaluated=result.queries, remined=True)


def _update(
    state: MaintainedTheory,
    new_db: TransactionDatabase,
    new_threshold: int,
    repair_limit: int | None,
    tracer,
) -> tuple[MaintainedTheory, RepairStats]:
    tracer = as_tracer(tracer)
    try:
        new_state, stats = _repair(state, new_db, new_threshold, repair_limit)
    except _RepairBudgetExceeded:
        if tracer.enabled:
            tracer.event("service.remine", reason="repair_budget")
        new_state, stats = _remine(state, new_db, new_threshold)
    if tracer.enabled:
        tracer.event(
            "service.repair",
            evaluated=stats.evaluated,
            promoted=stats.promoted,
            dropped=stats.dropped,
            remined=stats.remined,
        )
    return new_state, stats


def apply_append(
    state: MaintainedTheory,
    delta_masks: list[int],
    *,
    repair_limit: int | None = None,
    tracer=None,
) -> tuple[MaintainedTheory, RepairStats]:
    """Append transactions and repair the borders.

    Args:
        state: the current maintained theory.
        delta_masks: appended transactions as masks over the universe.
        repair_limit: abort the delta repair after this many fresh
            evaluations and remine from scratch (``None`` = never).
        tracer: optional tracer (``service.repair`` /
            ``service.remine`` events).

    Returns:
        ``(new_state, stats)`` — the input state is never mutated.
    """
    new_db = append_database(state.database, delta_masks)
    return _update(state, new_db, state.threshold, repair_limit, tracer)


def apply_threshold(
    state: MaintainedTheory,
    min_support: int | float,
    *,
    repair_limit: int | None = None,
    tracer=None,
) -> tuple[MaintainedTheory, RepairStats]:
    """Move the maintained threshold and repair the borders.

    Raising the threshold only filters the hot table (plus border
    re-evaluation); lowering it grows the theory through the old
    ``Bd-``, exactly like an append.
    """
    new_threshold = (
        state.database.absolute_support(min_support)
        if isinstance(min_support, float)
        else int(min_support)
    )
    if new_threshold < 0:
        raise ValueError("min_support must be non-negative")
    return _update(
        state, state.database, new_threshold, repair_limit, tracer
    )
