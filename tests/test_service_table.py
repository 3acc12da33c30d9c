"""The support table's kernels against the per-item loops they replaced.

``SupportTable._derive`` and ``SupportTable._close`` peel each mask's
bits, lowest first: one numpy pass per bit position, as many as the
largest rank.  The references here are the loops they replaced, one
numpy pass per universe item.  The derived supports, the closure's
members, supports and per-level charges must equal theirs on random
downward-closed families with their ``Bd-``: ``uint64`` tables, object
tables over more than 64 items, ``∅``-only and rank-1 tables.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.transactions import TransactionDatabase
from repro.service.table import SupportTable, _popcounts
from repro.util.bitset import Universe, iter_bits


def _reference_derive(table):
    """``(smallest parent support, largest extension support)``, one
    pass per universe item."""
    masks, supports = table.masks, table.supports
    order = np.argsort(masks, kind="stable")
    ordered = masks[order]
    min_parent = np.full(len(masks), np.iinfo(np.int64).max)
    max_extension = np.full(len(masks), -1)
    for bit in table._bits:
        members = np.flatnonzero(masks & bit)
        if not len(members):
            continue
        parents = order[np.searchsorted(ordered, masks[members] ^ bit)]
        min_parent[members] = np.minimum(
            min_parent[members], supports[parents]
        )
        max_extension[parents] = np.maximum(
            max_extension[parents], supports[members]
        )
    return min_parent, max_extension


def _reference_close(table, database, frontier, charge):
    """The closure above ``frontier``, checking every candidate's
    parents one universe item at a time."""
    floor = table.floor
    bits = table._bits
    while len(frontier):
        support_of = table._finder()
        candidates = np.sort((frontier[:, None] | bits[None, :]).ravel())
        fresh = support_of(candidates) < 0
        fresh[1:] &= candidates[1:] != candidates[:-1]
        candidates = candidates[fresh]
        complete = np.ones(len(candidates), dtype=bool)
        for bit in bits:
            members = np.flatnonzero(candidates & bit)
            complete[members] &= (
                support_of(candidates[members] ^ bit) >= floor
            )
        candidates = candidates[complete]
        charge(len(candidates))
        supports = np.array(
            [database.support_count(mask) for mask in candidates.tolist()],
            dtype=np.int64,
        )
        table._append(candidates, supports)
        frontier = candidates[supports >= floor]
    masks = table.masks
    order = np.lexsort((masks, _popcounts(masks)))
    masks[:] = masks[order]
    table.supports[:] = table.supports[order]


def _border_table(database, floor, n_rows=None):
    """``Th ∪ Bd-`` of ``database``'s first ``n_rows`` rows at
    ``floor``, by brute force over the items that occur, as a table."""
    if n_rows is None:
        n_rows = database.n_transactions
    prefix = TransactionDatabase(
        database.universe, database.transaction_masks[:n_rows]
    )
    occurring = 0
    for row in prefix.transaction_masks:
        occurring |= row
    items = list(iter_bits(occurring))
    theory = {}
    for subset in range(1 << len(items)):
        mask = sum(1 << items[k] for k in iter_bits(subset))
        support = prefix.support_count(mask)
        if support >= floor:
            theory[mask] = support
    negative = set() if theory else {0}
    for mask in theory:
        for item in range(len(database.universe)):
            candidate = mask | 1 << item
            if candidate not in theory and all(
                candidate ^ 1 << k in theory for k in iter_bits(candidate)
            ):
                negative.add(candidate)
    negative = sorted(negative)
    return SupportTable(
        len(database.universe),
        theory,
        negative,
        [prefix.support_count(mask) for mask in negative],
        floor,
        n_rows,
    )


@st.composite
def _databases(draw):
    """A database whose rows use at most seven items, over a universe
    of at most 8 items (a ``uint64`` table) or of 65-72 (an object
    table), so its theory stays small at either width."""
    wide = draw(st.booleans())
    n_items = draw(st.integers(65, 72) if wide else st.integers(1, 8))
    active = draw(st.lists(
        st.integers(0, n_items - 1), min_size=1, max_size=7, unique=True
    ))
    picks = draw(st.lists(
        st.integers(0, (1 << len(active)) - 1), max_size=14
    ))
    rows = [
        sum(1 << active[k] for k in iter_bits(pick)) for pick in picks
    ]
    universe = Universe([f"i{k}" for k in range(n_items)])
    return TransactionDatabase(universe, rows)


def _assert_derives_as_the_reference(table):
    min_parent, max_extension = table._derive()
    expected_min, expected_max = _reference_derive(table)
    assert min_parent.tolist() == expected_min.tolist()
    assert max_extension.tolist() == expected_max.tolist()


def _assert_closes_as_the_reference(database, n_rows, floor, lower):
    """``sync`` of the table counted on the first ``n_rows`` rows at
    ``floor``, to all rows at ``lower``, against the reference closure
    run after the same delta count."""
    table = _border_table(database, floor, n_rows)
    reference = _border_table(database, floor, n_rows)
    charges, expected_charges = [], []
    crossed = table.sync(database, lower, charges.append)

    below = reference.supports < floor
    reference.supports[:] = [
        database.support_count(mask) for mask in reference.masks.tolist()
    ]
    reference.floor = lower
    frontier = reference.masks[below & (reference.supports >= lower)]
    assert crossed == len(frontier)
    if len(frontier):
        _reference_close(
            reference, database, frontier, expected_charges.append
        )
    assert charges == expected_charges
    assert table.masks.tolist() == reference.masks.tolist()
    assert table.supports.tolist() == reference.supports.tolist()
    # Both are Th ∪ Bd- of every row at the lower floor.
    scratch = _border_table(database, lower)
    assert table.masks.tolist() == scratch.masks.tolist()
    assert table.supports.tolist() == scratch.supports.tolist()


class TestDerivedSupports:
    @settings(max_examples=150, deadline=None)
    @given(database=_databases(), data=st.data())
    def test_matches_the_per_item_loop(self, database, data):
        floor = data.draw(st.integers(1, database.n_transactions + 1))
        _assert_derives_as_the_reference(_border_table(database, floor))

    @pytest.mark.parametrize("n_items", [3, 70])
    @pytest.mark.parametrize(
        "rows, floor, members",
        [
            ([], 1, [0]),  # Th empty: the table is {∅}
            ([0b011, 0b101], 3, [0]),  # the same, above the row count
            ([0b011, 0b100], 2, [0, 1, 2, 4]),  # Th = {∅}, Bd- singletons
            ([0b011, 0b001], 2, [0, 1, 2, 4]),  # Th = {∅, {0}}
        ],
    )
    def test_empty_set_only_and_rank_one_tables(
        self, n_items, rows, floor, members
    ):
        universe = Universe([f"i{k}" for k in range(n_items)])
        table = _border_table(TransactionDatabase(universe, rows), floor)
        if len(members) > 1:  # ∅ is frequent: every singleton is a member
            members = members + [1 << k for k in range(3, n_items)]
        assert table.masks.tolist() == members
        assert _popcounts(table.masks).max() <= 1
        _assert_derives_as_the_reference(table)


class TestClosure:
    @settings(max_examples=150, deadline=None)
    @given(database=_databases(), data=st.data())
    def test_matches_the_per_item_loop(self, database, data):
        n_rows = data.draw(st.integers(0, database.n_transactions))
        floor = data.draw(st.integers(1, n_rows + 1))
        lower = data.draw(st.integers(1, floor))
        _assert_closes_as_the_reference(database, n_rows, floor, lower)

    @pytest.mark.parametrize("n_items", [3, 70])
    def test_from_an_empty_set_only_table(self, n_items):
        """A table of ``{∅}`` alone (no row yet) closes to the whole
        theory once rows arrive and the floor is met."""
        universe = Universe([f"i{k}" for k in range(n_items)])
        database = TransactionDatabase(
            universe, [0b111, 0b011, 0b110, 0b011]
        )
        _assert_closes_as_the_reference(database, 0, 1, 1)
        _assert_closes_as_the_reference(database, 0, 2, 2)
