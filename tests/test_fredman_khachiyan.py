"""Unit and property tests for the Fredman–Khachiyan duality machinery."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hypergraph.berge import berge_transversal_masks
from repro.hypergraph.fredman_khachiyan import (
    DualityWitness,
    check_duality,
    find_new_minimal_transversal,
)
from repro.util.antichain import minimize_masks
from repro.util.bitset import Universe

from tests.conftest import mask_families


def _evaluate_dnf(terms, assignment):
    return any(term & assignment == term for term in terms)


def _is_valid_witness(f_terms, g_terms, variables_mask, witness):
    """A witness must satisfy g(a) == f(V \\ a)."""
    complement = variables_mask & ~witness.assignment
    return _evaluate_dnf(g_terms, witness.assignment) == _evaluate_dnf(
        f_terms, complement
    )


class TestCheckDualityPositive:
    def test_example8_pair_is_dual(self):
        universe = Universe("ABCD")
        f = [universe.to_mask({"D"}), universe.to_mask({"A", "C"})]
        g = [universe.to_mask({"A", "D"}), universe.to_mask({"C", "D"})]
        assert check_duality(f, g, universe.full_mask) is None

    def test_self_dual_single_variable(self):
        assert check_duality([0b1], [0b1], 0b1) is None

    def test_constants_are_dual(self):
        # f ≡ 0 and g ≡ 1.
        assert check_duality([], [0], 0b111) is None
        # f ≡ 1 and g ≡ 0.
        assert check_duality([0], [], 0b111) is None

    def test_and_or_duality(self):
        # f = x0·x1, dual g = x0 ∨ x1.
        assert check_duality([0b11], [0b01, 0b10], 0b11) is None


class TestCheckDualityNegative:
    def test_missing_transversal_detected(self):
        universe = Universe("ABCD")
        f = [universe.to_mask({"D"}), universe.to_mask({"A", "C"})]
        g = [universe.to_mask({"A", "D"})]  # CD missing
        witness = check_duality(f, g, universe.full_mask)
        assert witness is not None
        assert witness.kind == "both_false"
        assert _is_valid_witness(f, g, universe.full_mask, witness)

    def test_disjoint_pair_gives_both_true(self):
        # f = x0, g = x1: terms disjoint.
        witness = check_duality([0b01], [0b10], 0b11)
        assert witness is not None
        assert witness.kind == "both_true"
        assert _is_valid_witness([0b01], [0b10], 0b11, witness)

    def test_constant_mismatches(self):
        witness = check_duality([], [], 0b11)  # f≡0, g≡0: not dual
        assert witness is not None
        witness = check_duality([0], [0], 0b11)  # f≡1, g≡1: not dual
        assert witness is not None

    def test_foreign_variable_rejected(self):
        with pytest.raises(ValueError):
            check_duality([0b100], [0b1], 0b011)


class TestCheckDualityProperty:
    @settings(max_examples=300)
    @given(mask_families(max_vertices=7, max_edges=5))
    def test_agrees_with_berge_and_witnesses_check_out(self, data):
        n, family = data
        variables_mask = (1 << n) - 1
        f_terms = minimize_masks(family)
        true_dual = berge_transversal_masks(f_terms)
        # The true dual must be certified.
        assert check_duality(f_terms, true_dual, variables_mask) is None

    @settings(max_examples=300)
    @given(
        mask_families(max_vertices=6, max_edges=5),
        st.randoms(use_true_random=False),
    )
    def test_perturbed_dual_yields_valid_witness(self, data, rng):
        n, family = data
        variables_mask = (1 << n) - 1
        f_terms = minimize_masks(family)
        true_dual = berge_transversal_masks(f_terms)
        if not true_dual:
            return
        # Remove one element of the dual: must be detected with a valid
        # witness.
        index = rng.randrange(len(true_dual))
        broken = true_dual[:index] + true_dual[index + 1 :]
        witness = check_duality(f_terms, broken, variables_mask)
        assert witness is not None
        assert _is_valid_witness(f_terms, broken, variables_mask, witness)


class TestFindNewMinimalTransversal:
    def test_enumerates_example8(self):
        universe = Universe("ABCD")
        edges = [universe.to_mask({"D"}), universe.to_mask({"A", "C"})]
        found = []
        while True:
            transversal = find_new_minimal_transversal(
                edges, found, universe.full_mask
            )
            if transversal is None:
                break
            found.append(transversal)
        assert sorted(found) == sorted(
            [universe.to_mask({"A", "D"}), universe.to_mask({"C", "D"})]
        )

    def test_empty_hypergraph(self):
        assert find_new_minimal_transversal([], [], 0b11) == 0
        assert find_new_minimal_transversal([], [0], 0b11) is None

    def test_empty_edge_rejected(self):
        with pytest.raises(ValueError):
            find_new_minimal_transversal([0], [], 0b1)

    def test_non_transversal_known_set_detected(self):
        # {A} is not a transversal of {{B}}: both-true witness ⇒ error.
        with pytest.raises(ValueError):
            find_new_minimal_transversal([0b10], [0b01], 0b11)

    def test_each_yield_is_new_and_minimal(self):
        universe = Universe(range(6))
        edges = [0b000011, 0b001100, 0b110000]
        found: list[int] = []
        while True:
            transversal = find_new_minimal_transversal(
                edges, found, universe.full_mask
            )
            if transversal is None:
                break
            assert transversal not in found
            assert all(transversal & edge for edge in edges)
            # minimality
            from repro.util.bitset import iter_bits

            for bit_index in iter_bits(transversal):
                reduced = transversal & ~(1 << bit_index)
                assert not all(reduced & edge for edge in edges)
            found.append(transversal)
        assert len(found) == 8  # 2 × 2 × 2 choices


class TestWitnessDataclass:
    def test_frozen(self):
        witness = DualityWitness(assignment=0b1, kind="both_false")
        with pytest.raises(AttributeError):
            witness.assignment = 0b10
