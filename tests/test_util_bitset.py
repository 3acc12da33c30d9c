"""Unit tests for repro.util.bitset."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.bitset import (
    Universe,
    iter_bits,
    iter_submasks,
    mask_of_indices,
    popcount,
    rank_sorted,
)


class TestPopcount:
    def test_zero(self):
        assert popcount(0) == 0

    def test_full_byte(self):
        assert popcount(0xFF) == 8

    def test_sparse(self):
        assert popcount(0b1010001) == 3

    @given(st.integers(min_value=0, max_value=2**64))
    def test_matches_bin_count(self, mask):
        assert popcount(mask) == bin(mask).count("1")


class TestRankSorted:
    def test_cardinality_then_value(self):
        assert rank_sorted([0b110, 0b1, 0, 0b11, 0b100]) == [
            0, 0b1, 0b100, 0b11, 0b110
        ]

    @given(
        st.lists(
            st.one_of(
                st.just(0),
                st.integers(min_value=0, max_value=2**8),
                st.integers(min_value=2**64, max_value=2**130),
            )
        ).map(lambda masks: masks + masks[: len(masks) // 2])
    )
    def test_equals_the_lambda_key_form(self, masks):
        # Duplicates, zero and masks wider than one machine word.
        assert rank_sorted(masks) == sorted(
            masks, key=lambda m: (popcount(m), m)
        )
        assert rank_sorted(iter(masks)) == rank_sorted(masks)


class TestIterBits:
    def test_empty(self):
        assert list(iter_bits(0)) == []

    def test_increasing_order(self):
        assert list(iter_bits(0b10110)) == [1, 2, 4]

    @given(st.sets(st.integers(min_value=0, max_value=30)))
    def test_round_trip_with_mask_of_indices(self, indices):
        mask = mask_of_indices(indices)
        assert set(iter_bits(mask)) == indices


class TestMaskOfIndices:
    def test_empty(self):
        assert mask_of_indices([]) == 0

    def test_values(self):
        assert mask_of_indices([0, 2]) == 0b101

    def test_duplicates_collapse(self):
        assert mask_of_indices([1, 1, 1]) == 0b10

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mask_of_indices([-1])


class TestIterSubmasks:
    def test_zero_has_one_submask(self):
        assert list(iter_submasks(0)) == [0]

    def test_count_is_power_of_two(self):
        submasks = list(iter_submasks(0b1011))
        assert len(submasks) == 8
        assert len(set(submasks)) == 8

    @given(st.integers(min_value=0, max_value=(1 << 10) - 1))
    def test_all_are_submasks(self, mask):
        for sub in iter_submasks(mask):
            assert sub & mask == sub


class TestUniverse:
    def test_basic_round_trip(self):
        universe = Universe("ABCD")
        mask = universe.to_mask({"A", "C"})
        assert mask == 0b101
        assert universe.to_set(mask) == frozenset({"A", "C"})

    def test_duplicate_items_rejected(self):
        with pytest.raises(ValueError):
            Universe("AAB")

    def test_full_mask(self):
        assert Universe(range(5)).full_mask == 0b11111

    def test_index_and_item(self):
        universe = Universe(["x", "y", "z"])
        assert universe.index_of("y") == 1
        assert universe.item_at(2) == "z"

    def test_foreign_item_raises(self):
        with pytest.raises(KeyError):
            Universe("AB").to_mask({"C"})

    def test_complement(self):
        universe = Universe("ABC")
        assert universe.complement(0b001) == 0b110

    def test_singletons(self):
        assert Universe("AB").singletons() == [1, 2]

    def test_label_shorthand(self):
        universe = Universe("ABCD")
        assert universe.label(0b1011) == "ABD"
        assert universe.label(0) == "{}"

    def test_label_multichar_items_get_separator(self):
        universe = Universe(["item1", "item2"])
        assert universe.label(0b11) == "item1,item2"

    def test_contains_len_iter(self):
        universe = Universe("AB")
        assert "A" in universe and "Z" not in universe
        assert len(universe) == 2
        assert list(universe) == ["A", "B"]

    def test_equality_and_hash(self):
        assert Universe("AB") == Universe("AB")
        assert Universe("AB") != Universe("BA")
        assert hash(Universe("AB")) == hash(Universe("AB"))

    def test_to_sorted_tuple(self):
        universe = Universe("ABCD")
        assert universe.to_sorted_tuple(0b1010) == ("B", "D")

    @given(st.sets(st.integers(min_value=0, max_value=11)))
    def test_mask_set_round_trip(self, subset):
        universe = Universe(range(12))
        assert universe.to_set(universe.to_mask(subset)) == frozenset(subset)
