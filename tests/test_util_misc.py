"""Unit tests for repro.util.combinatorics and rng."""

from __future__ import annotations

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.util.combinatorics import binomial, sum_binomials
from repro.util.rng import make_rng


class TestBinomial:
    def test_known_values(self):
        assert binomial(5, 2) == 10
        assert binomial(10, 0) == 1
        assert binomial(10, 10) == 1

    def test_out_of_range_is_zero(self):
        assert binomial(3, 5) == 0
        assert binomial(3, -1) == 0
        assert binomial(-2, 1) == 0

    @given(st.integers(0, 20), st.integers(0, 20))
    def test_pascal_identity(self, n, k):
        assert binomial(n + 1, k + 1) == binomial(n, k) + binomial(n, k + 1)


class TestSumBinomials:
    def test_full_sum_is_powerset(self):
        assert sum_binomials(6, 6) == 64

    def test_partial(self):
        assert sum_binomials(4, 1) == 5  # ∅ plus four singletons

    def test_k_beyond_n_clamps(self):
        assert sum_binomials(3, 100) == 8


class TestMakeRng:
    def test_seed_reproducible(self):
        assert make_rng(42).random() == make_rng(42).random()

    def test_passthrough(self):
        rng = random.Random(1)
        assert make_rng(rng) is rng

    def test_none_gives_rng(self):
        assert isinstance(make_rng(None), random.Random)
