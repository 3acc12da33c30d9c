"""Tests for the zero-dependency compressed-bitmap kernel.

The contract is exact agreement with the big-int bitset model: every
:class:`~repro.util.roaring.RoaringBitmap` operation must match the
same operation on ``to_int()`` images, container kinds must follow the
canonical selection rule (so structural equality is set equality), and
the flat serialization must round-trip bit-for-bit — that layout is
what the shm plane publishes.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.roaring import CHUNK, RoaringBitmap

# Index pools that exercise all three container kinds across chunk
# boundaries: dense runs (run containers), scattered values (array),
# and a heavy band (bitmap), in chunks 0, 1, and 3.
index_sets = st.sets(
    st.one_of(
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=CHUNK - 50, max_value=CHUNK + 50),
        st.integers(min_value=3 * CHUNK, max_value=3 * CHUNK + 9000),
    ),
    max_size=400,
)


def _as_int(indices) -> int:
    bits = 0
    for index in indices:
        bits |= 1 << index
    return bits


class TestConstruction:
    @settings(max_examples=80, deadline=None)
    @given(index_sets)
    def test_from_indices_round_trips(self, indices):
        bitmap = RoaringBitmap.from_indices(indices)
        assert bitmap.to_int() == _as_int(indices)
        assert bitmap.bit_count() == len(indices)
        assert list(bitmap) == sorted(indices)

    @settings(max_examples=80, deadline=None)
    @given(index_sets)
    def test_from_int_agrees_with_from_indices(self, indices):
        assert RoaringBitmap.from_int(_as_int(indices)) == (
            RoaringBitmap.from_indices(indices)
        )

    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError):
            RoaringBitmap.from_indices([3, -1])

    def test_full_covers_every_row(self):
        for n_rows in (0, 1, 63, CHUNK, CHUNK + 1, 3 * CHUNK + 7):
            full = RoaringBitmap.full(n_rows)
            assert full.bit_count() == n_rows
            assert full.to_int() == (1 << n_rows) - 1

    def test_max_index(self):
        assert RoaringBitmap.from_indices([]).max_index() == -1
        assert RoaringBitmap.from_indices([0]).max_index() == 0
        assert RoaringBitmap.from_indices([5, CHUNK + 9]).max_index() == (
            CHUNK + 9
        )
        assert RoaringBitmap.full(2 * CHUNK).max_index() == 2 * CHUNK - 1


class TestSetAlgebra:
    @settings(max_examples=80, deadline=None)
    @given(index_sets, index_sets)
    def test_and_matches_int_model(self, a, b):
        left, right = RoaringBitmap.from_indices(a), (
            RoaringBitmap.from_indices(b)
        )
        assert (left & right).to_int() == (_as_int(a) & _as_int(b))

    @settings(max_examples=80, deadline=None)
    @given(index_sets, index_sets)
    def test_andnot_matches_int_model(self, a, b):
        left, right = RoaringBitmap.from_indices(a), (
            RoaringBitmap.from_indices(b)
        )
        assert left.andnot(right).to_int() == (_as_int(a) & ~_as_int(b))

    @settings(max_examples=60, deadline=None)
    @given(index_sets, index_sets)
    def test_structural_equality_is_set_equality(self, a, b):
        left, right = RoaringBitmap.from_indices(a), (
            RoaringBitmap.from_indices(b)
        )
        assert (left == right) == (set(a) == set(b))

    def test_full_chunk_fast_paths(self):
        full = RoaringBitmap.full(2 * CHUNK)
        scattered = RoaringBitmap.from_indices([7, CHUNK + 123])
        assert (full & scattered) == scattered
        assert scattered.andnot(full).bit_count() == 0
        assert full.andnot(scattered).bit_count() == 2 * CHUNK - 2


class TestSlicingAndAppend:
    @settings(max_examples=60, deadline=None)
    @given(index_sets, st.sets(st.integers(0, 200), max_size=40))
    def test_with_appended_matches_int_model(self, indices, extra):
        bitmap = RoaringBitmap.from_indices(indices)
        base = bitmap.max_index() + 1
        appended = sorted(base + offset for offset in extra)
        grown = bitmap.with_appended(appended)
        assert grown.to_int() == _as_int(indices) | _as_int(appended)

    def test_with_appended_rejects_non_increasing(self):
        bitmap = RoaringBitmap.from_indices([10])
        with pytest.raises(ValueError):
            bitmap.with_appended([5])
        with pytest.raises(ValueError):
            bitmap.with_appended([20, 20])


class TestSerialization:
    @settings(max_examples=80, deadline=None)
    @given(index_sets)
    def test_serialize_round_trips(self, indices):
        bitmap = RoaringBitmap.from_indices(indices)
        blob = bitmap.serialize()
        assert len(blob) == bitmap.byte_size()
        assert RoaringBitmap.deserialize(blob) == bitmap

    @settings(max_examples=30, deadline=None)
    @given(index_sets)
    def test_pickle_round_trips(self, indices):
        bitmap = RoaringBitmap.from_indices(indices)
        assert pickle.loads(pickle.dumps(bitmap)) == bitmap

    def test_deserialize_rejects_truncation(self):
        blob = RoaringBitmap.from_indices(range(100)).serialize()
        with pytest.raises(ValueError):
            RoaringBitmap.deserialize(blob[:-1])

    def test_compression_on_structured_data(self):
        """The point of the kernel: runs and sparse covers stay small
        where the big-int image pays for its highest set bit."""
        n_rows = 1_000_000
        run = RoaringBitmap.from_indices(range(0, n_rows, 1))
        sparse = RoaringBitmap.from_indices(range(0, n_rows, 20_000))
        dense_int_bytes = (n_rows + 7) // 8
        assert run.byte_size() < dense_int_bytes // 100
        assert sparse.byte_size() < dense_int_bytes // 100
