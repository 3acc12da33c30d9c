"""Tests for streamed columnar ingestion (builder + basket CSV reader).

The contract under test: a database built column-by-column through
:class:`ColumnarBuilder` equals the one built from the same transactions
through :meth:`TransactionDatabase.from_transactions`, stays vertical
(``_rows`` unmaterialized), and is independent of basket arrival order
when the universe is discovered dynamically.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import ColumnarBuilder, read_baskets_csv
from repro.datasets.transactions import TransactionDatabase
from repro.util.bitset import Universe

transactions_strategy = st.lists(
    st.sets(st.integers(min_value=0, max_value=14), max_size=6),
    max_size=30,
)


def _reference(transactions):
    items = sorted({item for basket in transactions for item in basket})
    universe = Universe(items if items else [0])
    masks = [universe.to_mask(basket) for basket in transactions]
    return universe, TransactionDatabase(universe, masks)


class TestColumnarBuilder:
    @settings(max_examples=60, deadline=None)
    @given(transactions_strategy)
    def test_matches_horizontal_construction(self, transactions):
        builder = ColumnarBuilder()
        for basket in transactions:
            builder.add(basket)
        built = builder.to_database()
        universe, expected = _reference(transactions)
        if any(basket for basket in transactions):
            assert list(built.universe.items) == list(universe.items)
            assert built.transaction_masks == [
                universe.to_mask(basket) for basket in transactions
            ]
        assert built.n_transactions == len(transactions)

    @settings(max_examples=40, deadline=None)
    @given(transactions_strategy, st.randoms(use_true_random=False))
    def test_arrival_order_independent(self, transactions, rng):
        shuffled = list(transactions)
        rng.shuffle(shuffled)
        first = ColumnarBuilder()
        second = ColumnarBuilder()
        for basket in transactions:
            first.add(basket)
        for basket in shuffled:
            second.add(basket)
        # Same multiset of baskets, different arrival order: the sorted
        # dynamic universe makes the *universes* equal; rows follow each
        # feed order.
        assert list(first.to_database().universe.items) == (
            list(second.to_database().universe.items)
        )
        assert sorted(first.to_database().transaction_masks) == (
            sorted(second.to_database().transaction_masks)
        )

    def test_stays_vertical(self):
        builder = ColumnarBuilder()
        builder.add([1, 3])
        builder.add([2])
        db = builder.to_database()
        # Check before touching transaction_masks — that accessor
        # materializes (and caches) the horizontal rows on demand.
        assert db._rows is None
        assert db.transaction_masks == [
            db.universe.to_mask({1, 3}),
            db.universe.to_mask({2}),
        ]

    def test_duplicate_items_collapse(self):
        builder = ColumnarBuilder()
        builder.add([4, 4, 4, 2])
        db = builder.to_database()
        assert db.support_count(db.universe.to_mask({4})) == 1
        assert db.transaction_masks == [db.universe.to_mask({2, 4})]

    def test_fixed_universe_rejects_unknown_items(self):
        builder = ColumnarBuilder(Universe([1, 2, 3]))
        builder.add([1, 3])
        with pytest.raises(ValueError):
            builder.add([9])

    def test_empty_builder(self):
        builder = ColumnarBuilder(Universe([1, 2]))
        db = builder.to_database()
        assert db.n_transactions == 0
        assert db.transaction_masks == []

    @pytest.mark.parametrize("backend", ["auto", "roaring"])
    def test_backend_passthrough(self, backend):
        builder = ColumnarBuilder(backend=backend)
        builder.add([1, 2])
        builder.add([2, 5])
        db = builder.to_database()
        _, expected = _reference([{1, 2}, {2, 5}])
        assert db.transaction_masks == expected.transaction_masks
        for mask in db.universe.singletons():
            assert db.support_count(mask) == expected.support_count(mask)


class TestReadBasketsCsv:
    def _write(self, tmp_path, text, name="baskets.csv"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_groups_consecutive_orders(self, tmp_path):
        path = self._write(tmp_path, "100,1\n100,2\n101,2\n102,1\n102,3\n")
        db = read_baskets_csv(path)
        u = db.universe
        assert db._rows is None
        assert db.transaction_masks == [
            u.to_mask({1, 2}),
            u.to_mask({2}),
            u.to_mask({1, 3}),
        ]

    def test_named_header_fields(self, tmp_path):
        path = self._write(
            tmp_path, "order_id,product_id\n7,3\n7,5\n8,3\n"
        )
        db = read_baskets_csv(
            path, order_field="order_id", item_field="product_id"
        )
        u = db.universe
        assert db.transaction_masks == [u.to_mask({3, 5}), u.to_mask({3})]

    def test_header_sniffed_from_non_numeric_item(self, tmp_path):
        path = self._write(tmp_path, "order,item\n1,4\n1,6\n")
        db = read_baskets_csv(path)
        assert db.n_transactions == 1
        assert db.transaction_masks == [db.universe.to_mask({4, 6})]

    def test_forced_headerless(self, tmp_path):
        path = self._write(tmp_path, "1,4\n2,4\n2,5\n")
        db = read_baskets_csv(path, has_header=False)
        u = db.universe
        assert db.transaction_masks == [u.to_mask({4}), u.to_mask({4, 5})]

    def test_nonconsecutive_same_order_is_two_baskets(self, tmp_path):
        # Grouping is by *consecutive* equal order ids — an order id
        # reappearing later starts a new basket, per the export contract.
        path = self._write(tmp_path, "1,2\n3,4\n1,5\n", name="oo.csv")
        db = read_baskets_csv(path, has_header=False)
        assert db.n_transactions == 3

    def test_empty_file(self, tmp_path):
        path = self._write(tmp_path, "")
        db = read_baskets_csv(path)
        assert db.n_transactions == 0

    def test_malformed_row_raises(self, tmp_path):
        path = self._write(tmp_path, "1,2\n3\n")
        with pytest.raises(ValueError):
            read_baskets_csv(path, has_header=False)

    def test_named_field_without_header_raises(self, tmp_path):
        path = self._write(tmp_path, "1,2\n")
        with pytest.raises(ValueError):
            read_baskets_csv(path, item_field="product_id", has_header=False)

    def test_string_items_with_fixed_universe(self, tmp_path):
        path = self._write(tmp_path, "o1,apple\no1,bread\no2,apple\n")
        universe = Universe(["apple", "bread", "milk"])
        db = read_baskets_csv(
            path, has_header=False, universe=universe, item_type=str
        )
        assert db.transaction_masks == [
            universe.to_mask({"apple", "bread"}),
            universe.to_mask({"apple"}),
        ]

    def test_roaring_backend(self, tmp_path):
        path = self._write(tmp_path, "1,2\n1,3\n2,2\n3,3\n3,4\n")
        plain = read_baskets_csv(path, has_header=False)
        roaring = read_baskets_csv(path, has_header=False, backend="roaring")
        assert roaring.backend == "roaring"
        assert roaring.transaction_masks == plain.transaction_masks
