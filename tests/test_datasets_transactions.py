"""Tests for the TransactionDatabase substrate."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.transactions import TransactionDatabase
from repro.util.bitset import Universe


class TestConstruction:
    def test_from_transactions_infers_universe(self):
        database = TransactionDatabase.from_transactions(
            [{"milk", "bread"}, {"milk"}]
        )
        assert database.universe.items == ("bread", "milk")
        assert database.n_transactions == 2

    def test_explicit_universe(self):
        universe = Universe("ABCD")
        database = TransactionDatabase.from_transactions([{"B"}], universe)
        assert database.n_items == 4

    def test_out_of_universe_mask_rejected(self):
        with pytest.raises(ValueError):
            TransactionDatabase(Universe("AB"), [0b100])

    def test_duplicate_rows_kept(self):
        database = TransactionDatabase(Universe("AB"), [0b11, 0b11])
        assert database.n_transactions == 2
        assert database.support_count(0b11) == 2

    def test_empty_database(self):
        database = TransactionDatabase(Universe("AB"), [])
        assert database.n_transactions == 0
        assert database.support_count(0b01) == 0
        assert database.frequency(0b01) == 0.0


class TestSupportCounting:
    @pytest.fixture
    def database(self):
        return TransactionDatabase.from_transactions(
            [{"A", "B", "C"}, {"A", "B"}, {"B", "C"}, {"C"}]
        )

    def test_empty_itemset_support_is_row_count(self, database):
        assert database.support_count(0) == 4

    def test_singleton_support(self, database):
        assert database.support_count(database.universe.to_mask({"B"})) == 3

    def test_pair_support(self, database):
        assert (
            database.support_count(database.universe.to_mask({"A", "B"})) == 2
        )

    def test_unsupported_set(self, database):
        mask = database.universe.to_mask({"A", "C"})
        assert database.support_count(mask) == 1

    def test_frequency(self, database):
        assert database.frequency(database.universe.to_mask({"B"})) == 0.75

    def test_is_frequent(self, database):
        mask = database.universe.to_mask({"B"})
        assert database.is_frequent(mask, 3)
        assert not database.is_frequent(mask, 4)

    def test_item_support_counts(self, database):
        assert database.item_support_counts() == [2, 3, 3]

    @settings(max_examples=80)
    @given(
        st.integers(min_value=1, max_value=7),
        st.lists(st.integers(min_value=0, max_value=127), max_size=15),
        st.integers(min_value=0, max_value=127),
    )
    def test_vertical_counting_matches_row_scan(self, n_items, rows, probe):
        universe = Universe(range(n_items))
        mask_limit = universe.full_mask
        rows = [row & mask_limit for row in rows]
        probe &= mask_limit
        database = TransactionDatabase(universe, rows)
        expected = sum(1 for row in rows if probe & row == probe)
        assert database.support_count(probe) == expected


class TestAbsoluteSupport:
    def test_ceiling_semantics(self):
        database = TransactionDatabase(Universe("A"), [0b1] * 10)
        assert database.absolute_support(0.25) == 3
        assert database.absolute_support(0.0) == 0
        assert database.absolute_support(1.0) == 10

    def test_tiny_positive_threshold_needs_one_row(self):
        database = TransactionDatabase(Universe("A"), [0b1] * 10)
        assert database.absolute_support(1e-9) == 1

    def test_out_of_range_rejected(self):
        database = TransactionDatabase(Universe("A"), [0b1])
        with pytest.raises(ValueError):
            database.absolute_support(1.5)

    def test_a_row_count_is_normalized_and_checked(self):
        # The one threshold rule: anything but a float is a row count.
        database = TransactionDatabase(Universe("A"), [0b1] * 10)
        assert database.absolute_support(3) == 3
        assert type(database.absolute_support(True)) is int
        assert database.absolute_support(12) == 12
        with pytest.raises(ValueError, match="non-negative"):
            database.absolute_support(-1)
        with pytest.raises(ValueError):
            database.absolute_support(float("nan"))


class TestProjection:
    def test_project_keeps_row_count(self):
        database = TransactionDatabase.from_transactions(
            [{"A", "B"}, {"C"}], Universe("ABC")
        )
        projected = database.project(database.universe.to_mask({"A", "B"}))
        assert projected.n_transactions == 2
        assert projected.n_items == 2

    def test_projected_supports(self):
        database = TransactionDatabase.from_transactions(
            [{"A", "B"}, {"A"}, {"B"}], Universe("AB")
        )
        projected = database.project(database.universe.to_mask({"A"}))
        assert projected.support_count(projected.universe.to_mask({"A"})) == 2


class TestDunders:
    def test_len_iter_repr(self):
        database = TransactionDatabase(Universe("AB"), [0b01, 0b10])
        assert len(database) == 2
        assert list(database) == [0b01, 0b10]
        assert "2 transactions" in repr(database)

    def test_transactions_as_sets(self):
        database = TransactionDatabase(Universe("AB"), [0b01])
        assert database.transactions_as_sets() == [frozenset({"A"})]

    def test_transaction_masks_is_copy(self):
        database = TransactionDatabase(Universe("AB"), [0b01])
        masks = database.transaction_masks
        masks.append(0b10)
        assert database.n_transactions == 1


class TestVerticalBackends:
    """The tidset surface and agreement of the counting kernels."""

    @pytest.fixture
    def database(self):
        return TransactionDatabase(
            Universe(range(5)), [0b10111, 0b00111, 0b11010, 0b01010, 0b10001]
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=12),
        st.lists(st.integers(min_value=0, max_value=63), max_size=12),
        st.randoms(use_true_random=False),
    )
    def test_backends_agree_on_support_counts(
        self, n_items, n_rows, masks, rng
    ):
        universe = Universe(range(n_items))
        rows = [rng.randrange(1 << n_items) for _ in range(n_rows)]
        database = TransactionDatabase(universe, rows)
        roaring = TransactionDatabase(universe, rows, backend="roaring")
        masks = [mask & ((1 << n_items) - 1) for mask in masks]
        reference = [database.support_count(mask) for mask in masks]
        assert database.support_counts(masks) == reference
        assert roaring.support_counts(masks) == reference
        if masks:
            # auto's large-batch kernel, run on a batch of any size
            assert database._support_counts_numpy(masks) == reference

    def test_few_rows_vectorize_only_large_one_word_batches(
        self, monkeypatch
    ):
        """Under 128 rows (a service append's delta) numpy's fixed cost
        pays off from 512 masks, and only in its one-word kernel."""
        batches = []
        kernel = TransactionDatabase._support_counts_numpy

        def spy(database, masks):
            batches.append(len(masks))
            return kernel(database, masks)

        monkeypatch.setattr(TransactionDatabase, "_support_counts_numpy", spy)
        rng = random.Random(5)
        for n_items, expected in ((64, [512]), (65, [])):
            universe = Universe(range(n_items))
            database = TransactionDatabase(
                universe, [rng.getrandbits(n_items) for _ in range(10)]
            )
            masks = [rng.getrandbits(n_items) for _ in range(512)]
            reference = [database.support_count(mask) for mask in masks]
            assert database.support_counts(masks[:511]) == reference[:511]
            assert database.support_counts(masks) == reference
            assert batches == expected
            batches.clear()

    def test_full_tidset_covers_every_row(self, database):
        assert database.full_tidset == 0b11111
        assert database.tidset(0) == database.full_tidset

    def test_tidset_popcount_is_support(self, database):
        for mask in range(1 << database.n_items):
            assert (
                database.tidset(mask).bit_count()
                == database.support_count(mask)
            ), bin(mask)

    def test_tidsets_view_holds_singleton_columns(self, database):
        columns = database.tidsets_view()
        assert len(columns) == database.n_items
        for item_index, column in enumerate(columns):
            assert column == database.tidset(1 << item_index)

    def test_unknown_backend_rejected(self, database):
        with pytest.raises(ValueError):
            TransactionDatabase(Universe("A"), [1], backend="columnar")
        for retired in ("numpy", "int", "tidset", "diffset"):
            with pytest.raises(ValueError, match="'auto', 'roaring'"):
                TransactionDatabase(Universe("A"), [1], backend=retired)

    def test_backend_property_reports_choice(self):
        database = TransactionDatabase(Universe("A"), [1], backend="roaring")
        assert database.backend == "roaring"
        assert TransactionDatabase(Universe("A"), [1]).backend == "auto"


class TestRoaringBackend:
    """The compressed-column backend against the big-int reference.

    ``tidsets_view()`` holds :class:`RoaringBitmap` columns here;
    equality with the reference is checked through ``to_int()``, which
    maps a column back onto the exact big-int bitmask the other
    backends carry.
    """

    @staticmethod
    def _pair(rows, n_items=5):
        universe = Universe(range(n_items))
        return (
            TransactionDatabase(universe, rows),
            TransactionDatabase(universe, rows, backend="roaring"),
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=20),
        st.randoms(use_true_random=False),
    )
    def test_vertical_surface_matches_int_backend(
        self, n_items, n_rows, rng
    ):
        rows = [rng.randrange(1 << n_items) for _ in range(n_rows)]
        reference, roaring = self._pair(rows, n_items)
        assert roaring.full_tidset.to_int() == reference.full_tidset
        for mask in range(1 << n_items):
            assert roaring.tidset(mask).to_int() == reference.tidset(mask)
            assert roaring.support_count(mask) == (
                reference.support_count(mask)
            )
            for item_index in range(n_items):
                if mask >> item_index & 1:
                    continue
                # Eclat's diffset: the prefix rows lacking one more item.
                column = roaring.tidsets_view()[item_index]
                assert roaring.tidset(mask).andnot(column).to_int() == (
                    reference.tidset(mask)
                    & ~reference.tidsets_view()[item_index]
                )

    def test_columns_are_roaring_bitmaps(self):
        from repro.util.roaring import RoaringBitmap

        _, roaring = self._pair([0b101, 0b011, 0b110])
        for column in roaring.tidsets_view():
            assert isinstance(column, RoaringBitmap)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.sets(st.integers(min_value=0, max_value=7), max_size=5),
            max_size=15,
        )
    )
    def test_from_columnar_matches_horizontal(self, transactions):
        universe = Universe(range(8))
        rows = [universe.to_mask(basket) for basket in transactions]
        item_rows = [
            [t for t, basket in enumerate(transactions) if item in basket]
            for item in range(8)
        ]
        for backend in ("auto", "roaring"):
            built = TransactionDatabase.from_columnar(
                universe, item_rows, len(transactions), backend=backend
            )
            assert built._rows is None
            assert built.transaction_masks == rows

    def test_project_preserves_counts(self):
        reference, roaring = self._pair([0b10111, 0b00111, 0b11010])
        kept = 0b01011
        ref_projected = reference.project(kept)
        roaring_projected = roaring.project(kept)
        for mask in range(1 << ref_projected.n_items):
            assert roaring_projected.support_count(mask) == (
                ref_projected.support_count(mask)
            )
