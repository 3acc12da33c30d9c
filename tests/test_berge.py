"""Unit tests for Berge multiplication."""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.hypergraph.berge import berge_transversal_masks
from repro.hypergraph.enumeration import brute_force_transversal_masks
from repro.hypergraph.generators import (
    complete_k_uniform_hypergraph,
    matching_hypergraph,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.util.bitset import Universe, popcount

from tests.conftest import labels, mask_families


class TestBergeBasics:
    def test_empty_family(self):
        assert berge_transversal_masks([]) == [0]

    def test_empty_edge_kills_all(self):
        assert berge_transversal_masks([0, 0b1]) == []

    def test_single_edge(self):
        assert berge_transversal_masks([0b101]) == [0b001, 0b100]

    def test_paper_example8(self):
        """Tr({D, AC}) = {AD, CD} (Example 8)."""
        universe = Universe("ABCD")
        edges = [universe.to_mask({"D"}), universe.to_mask({"A", "C"})]
        transversals = berge_transversal_masks(edges)
        assert labels(universe, transversals) == ["AD", "CD"]

    def test_disjoint_pairs(self):
        """Two disjoint pairs: 4 transversals (one vertex per pair)."""
        transversals = berge_transversal_masks([0b0011, 0b1100])
        assert len(transversals) == 4
        assert all(popcount(t) == 2 for t in transversals)

    def test_unminimized_input_accepted(self):
        assert berge_transversal_masks([0b01, 0b11]) == [0b01]

    def test_output_sorted_by_cardinality(self):
        transversals = berge_transversal_masks([0b011, 0b101, 0b110])
        sizes = [popcount(t) for t in transversals]
        assert sizes == sorted(sizes)


class TestBergeAgainstBruteForce:
    @given(mask_families(max_vertices=7, max_edges=6))
    def test_matches_brute_force(self, data):
        n, family = data
        assert sorted(berge_transversal_masks(family)) == sorted(
            brute_force_transversal_masks(family, n)
        )


class TestBergeOnNamedFamilies:
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_matching_count(self, n):
        """Example 19's family has exactly 2^{n/2} minimal transversals."""
        hypergraph = matching_hypergraph(n)
        transversals = berge_transversal_masks(hypergraph.edge_masks)
        assert len(transversals) == 1 << (n // 2)
        assert all(popcount(t) == n // 2 for t in transversals)

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 3), (6, 2)])
    def test_complete_k_uniform_duality(self, n, k):
        """Tr of all k-subsets is all (n-k+1)-subsets."""
        hypergraph = complete_k_uniform_hypergraph(n, k)
        transversals = berge_transversal_masks(hypergraph.edge_masks)
        expected_size = n - k + 1
        assert all(popcount(t) == expected_size for t in transversals)
        from repro.util.combinatorics import binomial

        assert len(transversals) == binomial(n, expected_size)


class TestTransversalHypergraph:
    def test_involution_on_simple_families(self):
        """Tr(Tr(H)) = H for simple hypergraphs (a classical identity)."""
        universe = Universe("ABCDE")
        edges = list(
            Hypergraph.from_sets(
                [{"A", "B"}, {"B", "C", "D"}, {"E"}], universe
            ).edge_masks
        )
        assert berge_transversal_masks(berge_transversal_masks(edges)) == edges
