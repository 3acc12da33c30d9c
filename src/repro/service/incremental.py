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
supports are what re-verifying it needs — and every update runs
through a :class:`~repro.service.table.SupportTable` of them:

* rows appended, or a lower below the given table: a table built
  from the state for this update (1) refreshes its supports with one
  *delta-only* counting pass over the appended rows alone, (2)
  re-verifies the old ``Bd-`` from those refreshed supports, and (3)
  grows a breadth-first closure from the ``Bd-`` members that crossed
  the new threshold, generating candidates only when every immediate
  generalization is already known frequent (the Algorithm 9 safety
  rule) and counting each on the full database
  (:meth:`~repro.service.table.SupportTable.sync`);
* a raise, read from a table built from the state for this update, or
  a lower to a table the caller kept from an earlier, lower cold mine:
  no delta, no closure, no database work — the new borders are read
  from the table by comparing supports.

A state keeps no table: an update, or a read above the maintained
threshold, builds one from the state for itself
(:meth:`MaintainedTheory._new_table`), so concurrent readers share
nothing but the immutable state.

Every support the new theory or new ``Bd-`` needs is evaluated exactly
once; the result is model-checked bit-identical to from-scratch mining
across random histories of appends, threshold moves and restarts
(``tests/test_service_model.py``).

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

from dataclasses import dataclass, field, replace

from repro.datasets.transactions import TransactionDatabase
from repro.mining.eclat import _maximal_from_supports, eclat
from repro.obs.tracer import as_tracer
from repro.service.encoding import Families, encode_families
from repro.service.table import SupportTable
from repro.util.bitset import rank_sorted

__all__ = [
    "MaintainedTheory",
    "RepairStats",
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
    _encoded: Families | None = field(
        default=None, init=False, repr=False, compare=False
    )

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

    def encoded(self) -> Families:
        """``supports``, ``maximal`` and ``negative`` as compact JSON
        (:func:`~repro.service.encoding.encode_families`), which the
        digest and the read bodies splice.  Encoded on first use and
        kept with this state."""
        if self._encoded is None:
            object.__setattr__(
                self,
                "_encoded",
                encode_families(self.supports, self.maximal, self.negative),
            )
        return self._encoded

    def _new_table(self) -> SupportTable:
        """``Th ∪ Bd-`` with their supports as a
        :class:`~repro.service.table.SupportTable` at the maintained
        threshold — every stricter theory, read by comparison — built
        for one caller, which may change it."""
        return SupportTable(
            len(self.database.universe),
            self.supports,
            self.negative,
            self.negative_supports,
            self.threshold,
            self.database.n_transactions,
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


class _RepairBudgetExceeded(Exception):
    """Internal: the closure outgrew ``repair_limit``; remine instead."""


def _repair(
    state: MaintainedTheory,
    new_db: TransactionDatabase,
    new_threshold: int,
    repair_limit: int | None,
    table: SupportTable | None = None,
) -> tuple[MaintainedTheory, RepairStats]:
    """Border repair of ``state`` against a new (db, threshold), read
    from a support table.

    ``table`` (counted on ``state.database``) serves when its floor is
    at or below ``new_threshold``; else a table built from the state
    does, and when the theory can grow past it — rows appended, or a
    lower — it syncs to ``new_db`` at ``new_threshold``; see the
    module docstring for the completeness argument.

    Charges: one query per old ``Bd-`` member and per closure
    candidate.  The old ``Th ∪ Bd-`` lies inside the new one unless
    the threshold rises, so that is a difference of sizes; a raise
    charges the old ``Bd-`` alone.  Raises
    :class:`_RepairBudgetExceeded` when more than ``repair_limit``
    queries would be charged, before the closure counts the level
    that would pass it.
    """
    evaluated = len(state.negative)

    def charge(n: int) -> None:
        nonlocal evaluated
        evaluated += n
        if repair_limit is not None and evaluated > repair_limit:
            raise _RepairBudgetExceeded

    charge(0)
    grows = new_db.n_transactions > state.database.n_transactions
    if grows or table is None or table.floor > new_threshold:
        table = state._new_table()
    if grows or table.floor > new_threshold:
        promoted = table.sync(new_db, new_threshold, charge)
    else:
        promoted = sum(
            supp >= new_threshold for supp in state.negative_supports
        )
    # Bd+ is read off the complete new Th, so a read at the table's
    # floor (every repair that grows the theory) derives nothing.
    read = table.read(new_threshold, maximal=False)
    supports = dict(zip(read.theory.tolist(), read.theory_supports.tolist()))
    if new_threshold > state.threshold:
        dropped = len(state.supports) - len(read.theory)
    else:
        dropped = 0
        # What the closure charged, or would have: a table that
        # already covered the lower charged nothing yet.
        charge(
            len(read.theory) + len(read.negative) - len(state.supports)
            - evaluated
        )
    support_updates = len(state.supports) if grows else 0
    new_state = replace(
        state,
        database=new_db,
        threshold=new_threshold,
        supports=supports,
        maximal=tuple(_maximal_from_supports(supports)),
        negative=tuple(read.negative.tolist()),
        negative_supports=tuple(read.negative_supports.tolist()),
        queries=state.queries + evaluated,
        support_updates=state.support_updates + support_updates,
        repairs=state.repairs + 1,
    )
    stats = RepairStats(
        evaluated=evaluated,
        support_updates=support_updates,
        promoted=promoted,
        dropped=dropped,
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
    table: SupportTable | None = None,
) -> tuple[MaintainedTheory, RepairStats]:
    tracer = as_tracer(tracer)
    try:
        new_state, stats = _repair(
            state, new_db, new_threshold, repair_limit, table
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
    new_db = state.database.appended(delta_masks)
    return _update(state, new_db, state.threshold, repair_limit, tracer)


def apply_threshold(
    state: MaintainedTheory,
    min_support: int | float,
    *,
    repair_limit: int | None = None,
    tracer=None,
    table: SupportTable | None = None,
) -> tuple[MaintainedTheory, RepairStats]:
    """Move the maintained threshold and repair the borders.

    A move is read from a support table whenever one covers the new
    threshold: ``table`` (counted on ``state.database``) when its floor
    is at or below it, else, for a raise, one built from the state.  No
    database is touched then.  A lower below ``table`` grows the theory
    through the old ``Bd-``, exactly like an append.  Either way the
    state and the :class:`RepairStats` are the same, charges and
    ``repair_limit`` fallback included.

    Raises:
        ValueError: when ``table`` counted other rows than
            ``state.database``'s.
    """
    new_threshold = state.database.absolute_support(min_support)
    if table is not None and (
        table.n_rows != state.database.n_transactions
    ):
        raise ValueError(
            f"the table counted {table.n_rows} rows; the state's "
            f"database holds {state.database.n_transactions}"
        )
    return _update(
        state, state.database, new_threshold, repair_limit, tracer, table
    )
