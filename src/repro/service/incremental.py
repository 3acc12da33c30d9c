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

The state keeps the support of every ``Th`` member *and* of every
``Bd-`` member — the two borders are the whole certificate, and their
supports are what re-verifying it needs.  The repair therefore
(1) refreshes both tables with one *delta-only* counting pass over the
appended rows alone, (2) re-verifies the old ``Bd-`` from its refreshed
table, and (3) grows a breadth-first closure from the ``Bd-`` members
that flipped to frequent, generating candidates only when every
immediate generalization is already known frequent (the Algorithm 9
safety rule) and counting each on the full database.  Every support the
new theory or new ``Bd-`` needs is evaluated exactly once; the result
is property-tested bit-identical to from-scratch mining across random
databases, thresholds, and batch splits
(``tests/test_service_incremental.py``).  A threshold move has no
delta, so a raise touches no database at all.

When an update invalidates too much of the border — the repair would
charge more than ``repair_limit`` queries — the repair aborts
and falls back to a full :func:`~repro.mining.eclat.eclat` remine, so
the fast path's worst case never exceeds from-scratch cost by more than
the budget that tripped.

Accounting: each old ``Bd-`` member and each closure candidate is
*charged* one query (``queries``), exactly like an engine's
``Is-interesting`` calls — Corollary 4's price for re-verifying the
border, whether the answer comes from the delta-refreshed table or from
a full count; the delta-only refresh of the ``Th`` table is counted
separately (``support_updates``) because it answers no membership
question — that split is precisely the Theorem 2 story of what
maintenance must pay for.
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
        evaluated: queries charged: one per old ``Bd-`` member
            re-verified (answered from the delta-refreshed table) plus
            one per closure candidate (a full-database count).
        support_updates: delta-only refreshes of the ``Th`` supports
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
        negative_supports: support count of each ``Bd-`` member,
            aligned with ``negative`` — Eclat's ``border_supports`` after
            a mine.  Derived data, like ``supports``' values: outside
            equality and the snapshot, whose restore recounts it from
            the rows.
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
    negative_supports: tuple[int, ...] = field(default=(), compare=False)
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
    threshold = database.absolute_support(min_support)
    result = eclat(database, threshold, tracer=tracer)
    return MaintainedTheory(
        database=database,
        threshold=threshold,
        supports=_canonical_supports(result.supports),
        maximal=result.maximal,
        negative=result.negative_border,
        negative_supports=result.border_supports,
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
    delta: list[int],
) -> tuple[MaintainedTheory, RepairStats]:
    """Border-delta repair of ``state`` against a new (db, threshold).

    ``delta`` holds the rows ``new_db`` appends to ``state.database``
    (empty for a threshold move).  See the module docstring for the
    completeness argument; raises :class:`_RepairBudgetExceeded` when
    more than ``repair_limit`` queries would be charged.
    """
    n_items = len(state.database.universe)
    old_negative = state.negative
    evaluated = 0

    # 1. Refresh the known supports of Th and Bd- with one delta-only
    # pass: counts of the appended rows alone, added to the stored ones.
    # The delta database is "auto" on every backend: the counts are
    # the same, and a batch this size goes through numpy.
    if delta:
        delta_db = TransactionDatabase(state.database.universe, delta)
        n_theory = len(state.supports)
        counts = delta_db.support_counts([*state.supports, *old_negative])
        refreshed = {
            mask: supp + count
            for (mask, supp), count in zip(state.supports.items(), counts)
        }
        negative_supports = [
            supp + count
            for supp, count in zip(
                state.negative_supports, counts[n_theory:]
            )
        ]
        support_updates = n_theory
    else:
        refreshed = state.supports
        negative_supports = state.negative_supports
        support_updates = 0

    frequent: dict[int, int] = {
        mask: supp for mask, supp in refreshed.items() if supp >= new_threshold
    }
    dropped = len(refreshed) - len(frequent)
    # Support of everything known infrequent this epoch; the final Bd-
    # filters it against the final frequent family.
    infrequent: dict[int, int] = {
        mask: supp for mask, supp in refreshed.items() if supp < new_threshold
    }

    def charge() -> None:
        nonlocal evaluated
        evaluated += 1
        if repair_limit is not None and evaluated > repair_limit:
            raise _RepairBudgetExceeded

    # 2. Re-verify the old negative border — the only gate through which
    # new members can enter the theory — from its refreshed supports.
    promoted: deque[int] = deque()
    for mask, supp in zip(old_negative, negative_supports, strict=True):
        charge()
        if supp >= new_threshold:
            frequent[mask] = supp
            promoted.append(mask)
        else:
            infrequent[mask] = supp
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
                infrequent[candidate] = supp

    if not dropped and not n_promoted:
        # The same Th: the borders and the canonical order stand.
        supports = frequent
        maximal = state.maximal
        negative = old_negative
    else:
        # New members arrive only through promotion; filtering alone
        # keeps the canonical order.
        supports = _canonical_supports(frequent) if n_promoted else frequent
        maximal = tuple(rank_sorted(_maximal_from_supports(frequent)))
        if dropped:
            border = [
                mask
                for mask in infrequent
                if parents_all_in(mask, frequent)
            ]
        else:
            # Nothing left Th: the old Bd- members keep their parents,
            # and the closure evaluated only sets whose parents were
            # all frequent.
            border = infrequent
        negative = tuple(rank_sorted(border))
        negative_supports = [infrequent[mask] for mask in negative]
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
        supports=supports,
        maximal=maximal,
        negative=negative,
        negative_supports=tuple(negative_supports),
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
        negative_supports=result.border_supports,
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
    delta: list[int],
) -> tuple[MaintainedTheory, RepairStats]:
    tracer = as_tracer(tracer)
    try:
        new_state, stats = _repair(
            state, new_db, new_threshold, repair_limit, delta
        )
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
        repair_limit: abort the delta repair after this many charged
            evaluations and remine from scratch (``None`` = never).
        tracer: optional tracer (``service.repair`` /
            ``service.remine`` events).

    Returns:
        ``(new_state, stats)`` — the input state is never mutated.
    """
    delta = list(delta_masks)
    new_db = append_database(state.database, delta)
    return _update(
        state, new_db, state.threshold, repair_limit, tracer, delta
    )


def apply_threshold(
    state: MaintainedTheory,
    min_support: int | float,
    *,
    repair_limit: int | None = None,
    tracer=None,
) -> tuple[MaintainedTheory, RepairStats]:
    """Move the maintained threshold and repair the borders.

    Raising the threshold only filters the hot tables — the border is
    re-verified from its stored supports, so no database is touched;
    lowering it grows the theory through the old ``Bd-``, exactly like
    an append.
    """
    new_threshold = state.database.absolute_support(min_support)
    return _update(
        state, state.database, new_threshold, repair_limit, tracer, []
    )
