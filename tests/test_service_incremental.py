"""Incremental border maintenance ≡ from-scratch mining, bit for bit.

Theorem 2 / Corollary 4 say the old border is *sufficient information*
to certify and repair the theory after an update — so the repaired
state must be indistinguishable from remining: same support table (in
canonical order), same ``Bd+``, same ``Bd-``.  The hypothesis sweep
drives random databases through random append/threshold histories with
random batch splits and random repair budgets, comparing against
:func:`~repro.mining.eclat.eclat` at every step.
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import BACKENDS
from repro.datasets.transactions import TransactionDatabase
from repro.mining.eclat import eclat
from repro.service.incremental import (
    RepairStats,
    append_database,
    apply_append,
    apply_threshold,
    mine_initial,
)
from repro.util.bitset import Universe, popcount, rank_sorted
from repro.util.prefix import parents_all_in


def _universe(n_items: int) -> Universe:
    return Universe([f"i{k}" for k in range(n_items)])


def _assert_matches_scratch(state):
    scratch = eclat(state.database, state.threshold)
    assert state.maximal == scratch.maximal
    assert state.negative == scratch.negative_border
    assert state.supports == scratch.supports
    # A hot read at the maintained threshold answers from the stored
    # borders; they must be the exact borders, whatever path built them.
    assert state.theory_at(state.threshold) == (
        scratch.maximal,
        scratch.negative_border,
    )
    # Canonical iteration order regardless of the path that built it.
    assert list(state.supports) == sorted(
        state.supports, key=lambda m: (popcount(m), m)
    )
    # The stored Bd- supports, aligned with the border, whatever path
    # (initial mine, repair, remine) refreshed them.
    assert state.negative_supports == tuple(
        state.database.support_count(mask) for mask in state.negative
    )


class _ReferenceBudgetExceeded(Exception):
    pass


def _reference_update(state, new_db, new_threshold, repair_limit):
    """The repair without stored ``Bd-`` supports: every old ``Bd-``
    member is recounted on the full database.  Returns the support
    table, ``Bd-`` and the :class:`RepairStats` of the update, remine
    fallback included."""
    delta = new_db.transaction_masks[state.database.n_transactions :]
    evaluated = 0

    def charge():
        nonlocal evaluated
        evaluated += 1
        if repair_limit is not None and evaluated > repair_limit:
            raise _ReferenceBudgetExceeded

    try:
        if delta:
            delta_db = TransactionDatabase(new_db.universe, delta)
            refreshed = {
                mask: supp + delta_db.support_count(mask)
                for mask, supp in state.supports.items()
            }
        else:
            refreshed = dict(state.supports)
        frequent = {
            mask: supp
            for mask, supp in refreshed.items()
            if supp >= new_threshold
        }
        dropped = len(refreshed) - len(frequent)
        infrequent = set(refreshed) - set(frequent)
        promoted = deque()
        for mask in state.negative:
            charge()
            supp = new_db.support_count(mask)
            if supp >= new_threshold:
                frequent[mask] = supp
                promoted.append(mask)
            else:
                infrequent.add(mask)
        n_promoted = len(promoted)
        while promoted:
            parent = promoted.popleft()
            for item in range(len(new_db.universe)):
                candidate = parent | 1 << item
                if (
                    candidate == parent
                    or candidate in frequent
                    or candidate in infrequent
                    or not parents_all_in(candidate, frequent)
                ):
                    continue
                charge()
                supp = new_db.support_count(candidate)
                if supp >= new_threshold:
                    frequent[candidate] = supp
                    promoted.append(candidate)
                else:
                    infrequent.add(candidate)
    except _ReferenceBudgetExceeded:
        result = eclat(new_db, new_threshold)
        return (
            result.supports,
            result.negative_border,
            RepairStats(evaluated=result.queries, remined=True),
        )
    negative = tuple(
        rank_sorted(m for m in infrequent if parents_all_in(m, frequent))
    )
    return frequent, negative, RepairStats(
        evaluated=evaluated,
        support_updates=len(refreshed) if delta else 0,
        promoted=n_promoted,
        dropped=dropped,
    )


@st.composite
def _scenario(draw):
    n_items = draw(st.integers(2, 6))
    n_rows = draw(st.integers(1, 12))
    rows = [
        draw(st.integers(0, (1 << n_items) - 1)) for _ in range(n_rows)
    ]
    threshold = draw(st.integers(1, max(1, n_rows)))
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            batch = [
                draw(st.integers(0, (1 << n_items) - 1))
                for _ in range(draw(st.integers(1, 4)))
            ]
            steps.append(("append", batch))
        else:
            steps.append(("threshold", draw(st.integers(1, n_rows + 6))))
    limit = draw(st.one_of(st.none(), st.integers(0, 8)))
    return n_items, rows, threshold, steps, limit


class TestEquivalenceWithScratchMining:
    @given(_scenario())
    @settings(max_examples=120, deadline=None)
    def test_update_history_matches_remining(self, scenario):
        n_items, rows, threshold, steps, limit = scenario
        for backend in BACKENDS:
            database = TransactionDatabase(
                _universe(n_items), rows, backend=backend
            )
            state = mine_initial(database, threshold)
            _assert_matches_scratch(state)
            for kind, payload in steps:
                if kind == "append":
                    state, stats = apply_append(
                        state, payload, repair_limit=limit
                    )
                else:
                    state, stats = apply_threshold(
                        state, payload, repair_limit=limit
                    )
                _assert_matches_scratch(state)

    @given(
        st.integers(2, 5),
        st.lists(st.integers(0, 31), min_size=1, max_size=10),
        st.lists(st.integers(0, 31), min_size=1, max_size=8),
        st.integers(1, 6),
        st.integers(0, 6),
    )
    @settings(max_examples=120, deadline=None)
    def test_batch_split_is_irrelevant(
        self, n_items, rows, delta, threshold, split
    ):
        """Appending [delta] in one batch or any two-way split lands on
        the identical state (digest-level, minus accounting which
        legitimately differs per batch boundary)."""
        mask_limit = (1 << n_items) - 1
        rows = [r & mask_limit for r in rows]
        delta = [d & mask_limit for d in delta]
        for backend in BACKENDS:
            database = TransactionDatabase(
                _universe(n_items), rows, backend=backend
            )
            base = mine_initial(database, threshold)
            whole, _ = apply_append(base, delta)
            cut = min(split, len(delta))
            first, _ = apply_append(base, delta[:cut])
            second, _ = apply_append(first, delta[cut:])
            assert whole.supports == second.supports
            assert whole.maximal == second.maximal
            assert whole.negative == second.negative
            assert (
                whole.database.transaction_masks
                == second.database.transaction_masks
            )
            assert (
                whole.database.tidsets_view()
                == second.database.tidsets_view()
            )

    def test_accounting_is_deterministic(self):
        def run():
            database = TransactionDatabase(
                _universe(5), [21, 7, 28, 19, 21, 3, 12]
            )
            state = mine_initial(database, 3)
            state, _ = apply_append(state, [31, 5, 17])
            state, _ = apply_threshold(state, 4)
            state, _ = apply_append(state, [9])
            return state
        first, second = run(), run()
        assert first.queries == second.queries
        assert first.support_updates == second.support_updates
        assert (first.repairs, first.remines) == (
            second.repairs,
            second.remines,
        )


class TestRepairMechanics:
    def test_zero_budget_forces_remine_with_equal_result(self):
        database = TransactionDatabase(_universe(4), [3, 5, 9, 15, 7])
        state = mine_initial(database, 2)
        repaired, stats_r = apply_append(state, [11, 13])
        remined, stats_m = apply_append(state, [11, 13], repair_limit=0)
        assert stats_r.remined is False
        assert stats_m.remined is True
        assert repaired.supports == remined.supports
        assert repaired.maximal == remined.maximal
        assert repaired.negative == remined.negative
        assert remined.remines == 1 and remined.repairs == 0

    def test_append_monotonicity_never_drops_members(self):
        database = TransactionDatabase(_universe(4), [3, 5, 9])
        state = mine_initial(database, 2)
        before = set(state.supports)
        after, stats = apply_append(state, [15, 7])
        assert before <= set(after.supports)
        assert stats.dropped == 0

    def test_threshold_raise_uses_zero_fresh_evaluations_beyond_border(
        self,
    ):
        database = TransactionDatabase(
            _universe(5), [7, 7, 7, 25, 25, 14, 3]
        )
        state = mine_initial(database, 2)
        raised, stats = apply_threshold(state, 4)
        # Only the old Bd- is re-evaluated; the closure adds nothing
        # because supports cannot grow on the same database.
        assert stats.evaluated == len(state.negative)
        assert stats.support_updates == 0
        _assert_matches_scratch(raised)

    def test_repair_charges_accumulate_into_queries(self):
        database = TransactionDatabase(_universe(4), [3, 5, 9, 15])
        state = mine_initial(database, 2)
        q0 = state.queries
        after, stats = apply_append(state, [7, 11])
        assert stats.remined is False
        assert after.queries == q0 + stats.evaluated

    def test_states_are_immutable_values(self):
        database = TransactionDatabase(_universe(3), [3, 5, 7])
        state = mine_initial(database, 2)
        snapshot = (
            dict(state.supports),
            state.maximal,
            state.negative,
            state.queries,
        )
        apply_append(state, [1, 2, 4])
        apply_threshold(state, 3)
        assert snapshot == (
            dict(state.supports),
            state.maximal,
            state.negative,
            state.queries,
        )


class TestHotTableQueries:
    def test_theory_at_stricter_threshold_matches_scratch(self):
        database = TransactionDatabase(
            _universe(5), [7, 7, 21, 21, 28, 3, 31]
        )
        state = mine_initial(database, 2)
        for threshold in (2, 3, 4, 5, 9):
            maximal, negative = state.theory_at(threshold)
            scratch = eclat(database, threshold)
            assert maximal == scratch.maximal
            assert negative == scratch.negative_border

    def test_theory_at_looser_threshold_is_refused(self):
        database = TransactionDatabase(_universe(3), [3, 5, 7])
        state = mine_initial(database, 3)
        with pytest.raises(ValueError, match="below the maintained"):
            state.theory_at(1)

    def test_member_witness_certifies_both_answers(self):
        database = TransactionDatabase(_universe(4), [3, 3, 5, 9, 15])
        state = mine_initial(database, 2)
        for mask in range(16):
            frequent, witness = state.member_witness(mask)
            assert frequent == (
                database.support_count(mask) >= state.threshold
            )
            if frequent:
                assert mask & witness == mask  # witness dominates
                assert witness in state.maximal
            else:
                assert mask & witness == witness  # witness is contained
                assert witness in state.negative


class TestAppendDatabase:
    def test_vertical_append_equals_horizontal_rebuild(self):
        universe = _universe(5)
        old = [7, 21, 3]
        delta = [31, 8, 0]
        for backend in BACKENDS:
            appended = append_database(
                TransactionDatabase(universe, old, backend=backend), delta
            )
            rebuilt = TransactionDatabase(
                universe, old + delta, backend=backend
            )
            assert appended.backend == backend
            assert appended.transaction_masks == rebuilt.transaction_masks
            assert appended.tidsets_view() == rebuilt.tidsets_view()
            assert appended.n_transactions == 6

    def test_foreign_items_are_rejected(self):
        database = TransactionDatabase(_universe(3), [3])
        with pytest.raises(ValueError, match="unknown items"):
            append_database(database, [8])


class TestRowListCarriedThroughAppends:
    """An append hands the old row list plus the delta to the new
    database instead of leaving it to be decoded from the extended
    columns.  Every service write reads all rows (``digest()``, and
    compaction), so a decode there costs O(items · rows) per write."""

    @pytest.fixture()
    def decodes(self, monkeypatch):
        """Row counts of every column-to-row decode (a ``_rows_view``
        call on a database that holds no row list)."""
        calls = []
        original = TransactionDatabase._rows_view

        def spy(database):
            if database._rows is None:
                calls.append(database.n_transactions)
            return original(database)

        monkeypatch.setattr(TransactionDatabase, "_rows_view", spy)
        return calls

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_appends_carry_rows_without_decoding(self, backend, decodes):
        rows = [7, 21, 3, 28, 7, 19]
        database = TransactionDatabase(_universe(5), rows, backend=backend)
        state = mine_initial(database, 2)
        expected = list(rows)
        history = (([31, 6], None, 3), ([12], 0, 2), ([25, 7, 0], None, 4))
        for batch, limit, threshold in history:
            state, _ = apply_append(state, batch, repair_limit=limit)
            expected += batch
            assert state.database._rows == expected
            state, _ = apply_threshold(state, threshold)
            assert state.database._rows == expected
        assert state.remines == 1
        assert decodes == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_vertical_only_database_decodes_once(self, backend, decodes):
        base = TransactionDatabase(
            _universe(5), [7, 21, 3, 28], backend=backend
        )
        vertical = TransactionDatabase.from_vertical(
            base.universe,
            base.tidsets_view(),
            base.n_transactions,
            backend=backend,
        )
        state = mine_initial(vertical, 2)
        state, _ = apply_append(state, [31, 6])
        assert state.database._rows is None
        assert state.database.transaction_masks == [7, 21, 3, 28, 31, 6]
        assert decodes == [6]
        for batch in ([12], [25, 7]):
            state, _ = apply_append(state, batch)
            assert state.database._rows is not None
        assert state.database.transaction_masks == [
            7, 21, 3, 28, 31, 6, 12, 25, 7,
        ]
        assert state.database.tidsets_view() == TransactionDatabase(
            base.universe, state.database.transaction_masks, backend=backend
        ).tidsets_view()
        assert decodes == [6]


class TestStoredBorderSupports:
    """The state keeps every ``Bd-`` member's support, so a repair
    re-verifies the old border from a table the delta pass refreshed
    instead of recounting it on the full database — at the same charge
    per member."""

    @given(_scenario())
    @settings(max_examples=120, deadline=None)
    def test_accounting_equals_the_recounting_repair(self, scenario):
        n_items, rows, threshold, steps, limit = scenario
        for backend in BACKENDS:
            database = TransactionDatabase(
                _universe(n_items), rows, backend=backend
            )
            state = mine_initial(database, threshold)
            queries = state.queries
            support_updates = 0
            for kind, payload in steps:
                if kind == "append":
                    new, stats = apply_append(
                        state, payload, repair_limit=limit
                    )
                else:
                    new, stats = apply_threshold(
                        state, payload, repair_limit=limit
                    )
                supports, negative, expected = _reference_update(
                    state, new.database, new.threshold, limit
                )
                assert stats == expected
                assert new.supports == supports
                assert new.negative == negative
                queries += expected.evaluated
                support_updates += expected.support_updates
                assert new.queries == queries
                assert new.support_updates == support_updates
                state = new

    @pytest.fixture()
    def counts(self, monkeypatch):
        """``(rows, mask)`` of every support count a database makes,
        batched or one at a time."""
        calls = []
        count_one = TransactionDatabase.support_count
        count_many = TransactionDatabase.support_counts

        def one(database, mask):
            calls.append((database.n_transactions, mask))
            return count_one(database, mask)

        def many(database, masks):
            masks = list(masks)
            calls.extend((database.n_transactions, mask) for mask in masks)
            return count_many(database, masks)

        monkeypatch.setattr(TransactionDatabase, "support_count", one)
        monkeypatch.setattr(TransactionDatabase, "support_counts", many)
        return calls

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_append_recounts_no_old_border_member(self, backend, counts):
        database = TransactionDatabase(
            _universe(5), [7, 21, 3, 28, 7, 19, 25, 14], backend=backend
        )
        state = mine_initial(database, 3)
        counts.clear()
        new, stats = apply_append(state, [31, 6, 12])
        assert stats.promoted and not stats.remined
        full = new.database.n_transactions
        old_border = set(state.negative)
        # The delta pass counts every old member on the 3 new rows ...
        assert old_border <= {mask for rows, mask in counts if rows == 3}
        # ... and the full database sees only closure candidates.
        assert {mask for rows, mask in counts if rows == full}.isdisjoint(
            old_border
        )
        _assert_matches_scratch(new)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mines_take_border_supports_from_eclat(self, backend, counts):
        """A mine stores the ``Bd-`` supports Eclat counted: neither the
        first mine nor a forced remine counts on the mined database."""
        database = TransactionDatabase(
            _universe(5), [7, 21, 3, 28, 7, 19, 25, 14], backend=backend
        )
        state = mine_initial(database, 3)
        assert counts == []
        _assert_matches_scratch(state)
        counts.clear()
        new, stats = apply_append(state, [31, 6, 12], repair_limit=0)
        assert stats.remined
        full = new.database.n_transactions
        assert [mask for rows, mask in counts if rows == full] == []
        _assert_matches_scratch(new)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_threshold_raise_touches_no_database(self, backend, counts):
        database = TransactionDatabase(
            _universe(5), [7, 7, 7, 25, 25, 14, 3], backend=backend
        )
        state = mine_initial(database, 2)
        counts.clear()
        raised, stats = apply_threshold(state, 4)
        assert counts == []
        assert stats.dropped and stats.evaluated == len(state.negative)
        _assert_matches_scratch(raised)
