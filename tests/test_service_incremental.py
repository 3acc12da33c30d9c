"""Incremental border maintenance ≡ from-scratch mining, bit for bit.

Theorem 2 / Corollary 4 say the old border is *sufficient information*
to certify and repair the theory after an update — so the repaired
state must be indistinguishable from remining: same support table (in
canonical order), same ``Bd+``, same ``Bd-``.  The references here —
:func:`_assert_matches_scratch` against :func:`~repro.mining.eclat.eclat`
and :func:`_reference_update`, the repair that recounts every old
``Bd-`` member — are what ``tests/test_service_model.py`` checks every
step of its random service histories against; this file pins the
repair's mechanics, the support table and the core's use of it.
"""

from __future__ import annotations

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import BACKENDS
from repro.datasets.transactions import TransactionDatabase
from repro.mining.eclat import eclat
from repro.service.incremental import (
    RepairStats,
    apply_append,
    apply_threshold,
    mine_initial,
)
from repro.service.state import ServiceCore
from repro.service.table import SupportTable
from repro.util.bitset import Universe, popcount, rank_sorted
from repro.util.prefix import parents_all_in


def _universe(n_items: int) -> Universe:
    return Universe([f"i{k}" for k in range(n_items)])


def _assert_matches_scratch(state):
    scratch = eclat(state.database, state.threshold)
    assert state.maximal == scratch.maximal
    assert state.negative == scratch.negative_border
    assert state.supports == scratch.supports
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


class TestEquivalenceWithScratchMining:
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
            appended = TransactionDatabase(
                universe, old, backend=backend
            ).appended(delta)
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
            database.appended([8])


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

    @pytest.fixture()
    def counts(self, monkeypatch):
        """``(rows, mask)`` of every support count a database makes,
        batched or one at a time."""
        calls = []
        count_one = TransactionDatabase.support_count
        count_many = TransactionDatabase.support_counts
        count_words = TransactionDatabase.word_support_counts

        def one(database, mask):
            calls.append((database.n_transactions, mask))
            return count_one(database, mask)

        def many(database, masks):
            masks = list(masks)
            calls.extend((database.n_transactions, mask) for mask in masks)
            return count_many(database, masks)

        def words(database, vector):
            calls.extend(
                (database.n_transactions, mask) for mask in vector.tolist()
            )
            return count_words(database, vector)

        monkeypatch.setattr(TransactionDatabase, "support_count", one)
        monkeypatch.setattr(TransactionDatabase, "support_counts", many)
        monkeypatch.setattr(TransactionDatabase, "word_support_counts", words)
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


def _table_of(database, floor):
    """The support table of a complete mine at ``floor``."""
    theory = eclat(database, floor)
    return SupportTable(
        len(database.universe),
        theory.supports,
        theory.negative_border,
        theory.border_supports,
        theory.min_support,
        database.n_transactions,
    )


def _assert_read_matches_eclat(table, database, threshold):
    theory, supports, maximal, negative, negative_supports = (
        family.tolist() for family in table.read(threshold)
    )
    scratch = eclat(database, threshold)
    assert dict(zip(theory, supports)) == scratch.supports
    assert theory == rank_sorted(scratch.supports)
    assert tuple(maximal) == scratch.maximal
    assert tuple(negative) == scratch.negative_border
    assert tuple(negative_supports) == scratch.border_supports


def _random_database(n_items, n_rows, seed, backend="auto"):
    rng = random.Random(seed)
    # Sparse rows over a dense core, so the theory has depth at any width.
    rows = [
        rng.getrandbits(min(n_items, 6))
        | 1 << rng.randrange(n_items)
        | 1 << rng.randrange(n_items)
        for _ in range(n_rows)
    ]
    return TransactionDatabase(_universe(n_items), rows, backend=backend)


class TestSupportTable:
    """``Th ∪ Bd-`` at a floor answers every threshold at or above it by
    comparison (Theorem 2, Corollary 4), on either side of a machine
    word, after appended rows and after re-basing."""

    @pytest.mark.parametrize("n_items", [6, 70])
    def test_reads_match_eclat_at_every_threshold_above_the_floor(
        self, n_items
    ):
        database = _random_database(n_items, 40, seed=n_items)
        table = _table_of(database, 3)
        for threshold in range(3, database.n_transactions + 2):
            _assert_read_matches_eclat(table, database, threshold)
        with pytest.raises(ValueError, match="below the table's floor"):
            table.read(2)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_items", [6, 70])
    def test_sync_and_rebase_match_eclat(self, n_items, backend):
        rng = random.Random(n_items)
        database = _random_database(n_items, 30, seed=1, backend=backend)
        # Vertical only, as the service holds its databases.
        database = TransactionDatabase.from_vertical(
            database.universe,
            database.tidsets_view(),
            database.n_transactions,
            backend=backend,
        )
        table = _table_of(database, 4)
        for step in range(4):
            delta = _random_database(n_items, 8, seed=10 + step)
            database = database.appended(delta.transaction_masks)
            table.sync(database)
            assert table.n_rows == database.n_transactions
            for threshold in (table.floor, table.floor + 1, table.floor + 3):
                _assert_read_matches_eclat(table, database, threshold)
            table.rebase(table.floor + rng.randrange(3))
            _assert_read_matches_eclat(table, database, table.floor)
        assert database._rows is None  # the delta count decoded no rows

    def test_sync_refuses_a_database_it_ran_ahead_of(self):
        database = _random_database(5, 10, seed=0)
        table = _table_of(database.appended([31]), 2)
        with pytest.raises(ValueError, match="counted 11 rows"):
            table.sync(database)

    def test_a_table_counted_on_other_rows_is_refused(self):
        database = _random_database(5, 10, seed=0)
        state = mine_initial(database, 3)
        table = _table_of(database.appended([31]), 2)
        with pytest.raises(ValueError, match="counted 11 rows"):
            apply_threshold(state, 2, table=table)

    def test_threads_reading_one_fresh_table_agree_with_eclat(self):
        """A table nobody changes is read without a lock: readers that
        find its derived supports missing each derive them, and none
        sees another's half-done work."""
        import sys
        import threading

        database = _random_database(12, 150, seed=11)
        thresholds = [5, 6, 8, 11, 15, 21]
        expected = {
            threshold: eclat(database, threshold)
            for threshold in thresholds
        }
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(8):
                table = mine_initial(database, 4)._new_table()  # underived
                barrier = threading.Barrier(len(thresholds))
                answers = []

                def read(threshold, table=table, barrier=barrier):
                    barrier.wait()
                    answers.append((threshold, table.read(threshold)))

                threads = [
                    threading.Thread(target=read, args=(threshold,))
                    for threshold in thresholds
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert len(answers) == len(thresholds)
                for threshold, answer in answers:
                    scratch = expected[threshold]
                    assert tuple(answer.maximal.tolist()) == scratch.maximal
                    assert tuple(answer.negative.tolist()) == (
                        scratch.negative_border
                    )
                    assert dict(zip(
                        answer.theory.tolist(),
                        answer.theory_supports.tolist(),
                    )) == scratch.supports
        finally:
            sys.setswitchinterval(interval)


class TestServiceSupportTable:
    """A core that serves cold mines from its support table answers
    each as a fresh Eclat would and stays digest-identical to a twin
    that never served one; a restart empties the table."""

    def test_hit_miss_rebase_and_restart(self, tmp_path, monkeypatch):
        import repro.service.state as service_state

        mines = []
        real_eclat = service_state.eclat

        def counted(database, threshold, **kwargs):
            mines.append(threshold)
            return real_eclat(database, threshold, **kwargs)

        monkeypatch.setattr(service_state, "eclat", counted)
        database = _random_database(8, 40, seed=5)
        state_dir = str(tmp_path / "state")
        twin = ServiceCore(database, 12)
        core = ServiceCore(database, 12, state_dir=state_dir)
        try:
            assert core.mine(4)[0] == "mined"  # a miss becomes the table
            for rows in ([255, 3, 96], [17, 200]):
                assert core.append(rows) == twin.append(rows)
            source, answer = core.mine(6)  # a hit, re-based to 6
            assert (source, answer["queries"]) == ("table", 0)
            assert answer["supports"] == eclat(core.state.database, 6).supports
            assert core._table.floor == 6
            # A lower to the floor is read from the table, charged as
            # the closure charges it.
            assert core.set_threshold(6) == twin.set_threshold(6)
            assert core.mine(5)[0] == "mined"  # below the floor: a miss
            assert core.mine(12)[0] == "hot"
            assert mines == [4, 5]
        finally:
            core.close()
            twin.close()
        with ServiceCore(database, 12, state_dir=state_dir) as core:
            assert core.digest() == twin.digest()
            assert core.mine(5)[0] == "mined"  # the restart emptied it

    def test_a_mine_over_the_cap_answers_but_is_not_kept(self):
        """A cold mine keeps its table only when it holds at most
        ``_TABLE_CAP`` times the state's ``|Th ∪ Bd-|`` members; one
        over the cap answers as Eclat does and leaves the kept table
        as it was."""
        from repro.service.state import _TABLE_CAP

        database = _random_database(8, 40, seed=5)
        # Above the row count Th is empty and Th ∪ Bd- is {∅} alone.
        core = ServiceCore(database, database.n_transactions + 1)
        under, over = database.n_transactions, 2
        size = {
            threshold: len(theory.supports) + len(theory.negative_border)
            for threshold in (under, over)
            for theory in [eclat(database, threshold)]
        }
        assert size[under] <= _TABLE_CAP < size[over]

        assert core.mine(under)[0] == "mined"  # under the cap: kept
        kept = core._table
        assert (kept.floor, kept.n_rows) == (under, 40)
        source, answer = core.mine(over)
        scratch = eclat(database, over)
        assert source == "mined"
        assert answer["supports"] == scratch.supports
        assert tuple(answer["maximal"]) == scratch.maximal
        assert tuple(answer["negative"]) == scratch.negative_border
        assert answer["queries"] == scratch.queries
        assert core._table is kept and kept.floor == under
        assert len(kept.masks) == size[under]
        assert core.mine(under)[0] == "table"

    def test_a_raise_leaves_the_cold_table_alone(self):
        """A raise reads a table built from the state: the cold-mine
        table catches up on appended rows only when a lower or a cold
        mine uses it."""
        database = _random_database(8, 40, seed=5)
        core = ServiceCore(database, 12)
        twin = ServiceCore(database, 12)
        assert core.mine(4)[0] == "mined"
        table = core._table
        counted = table.n_rows
        for rows in ([255, 3, 96], [17, 200]):
            assert core.append(rows) == twin.append(rows)
        assert core.set_threshold(14) == twin.set_threshold(14)
        assert core._table is table and table.n_rows == counted
        assert core.set_threshold(6) == twin.set_threshold(6)
        assert table.n_rows == core.state.database.n_transactions

    def test_concurrent_cold_mines_and_writes_share_one_table(self):
        """Cold mines on three threads race appends and threshold moves
        through one table: each answer is Eclat's on the rows it read
        (its ∅ support names them), and the state is a twin's."""
        import sys
        import threading

        database = _random_database(8, 40, seed=7)
        rng = random.Random(3)
        writes = []
        for step in range(12):
            if step % 3 == 2:
                writes.append(("threshold", rng.choice([10, 12, 14])))
            else:
                writes.append(("append", [rng.getrandbits(8) for _ in range(4)]))
        core = ServiceCore(database, 12)
        answers = []

        def read(seed):
            draw = random.Random(seed)
            for _ in range(25):
                answers.append(core.mine(draw.randint(2, 11)))

        def write():
            for kind, payload in writes:
                if kind == "append":
                    core.append(payload)
                else:
                    core.set_threshold(payload)

        threads = [threading.Thread(target=read, args=(i,)) for i in range(3)]
        threads.append(threading.Thread(target=write))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)

        rows = database.transaction_masks + [
            row for kind, payload in writes if kind == "append"
            for row in payload
        ]
        assert {source for source, _ in answers} >= {"table", "mined"}
        for _, answer in answers:
            read_rows = rows[: answer["supports"][0]]
            scratch = eclat(
                TransactionDatabase(database.universe, read_rows),
                answer["threshold"],
            )
            assert answer["supports"] == scratch.supports
            assert tuple(answer["maximal"]) == scratch.maximal
            assert tuple(answer["negative"]) == scratch.negative_border

        twin = ServiceCore(database, 12)
        for kind, payload in writes:
            if kind == "append":
                twin.append(payload)
            else:
                twin.set_threshold(payload)
        assert core.digest() == twin.digest()
