"""Failure injection: how the library behaves on *broken* inputs.

The framework's guarantees all assume a monotone ``q``; these tests
confirm that the audit oracle surfaces violations instead of letting the
algorithms return silently wrong borders, and that verification rejects
corrupted answers.
"""

from __future__ import annotations

import pytest

from repro.core.errors import MonotonicityError
from repro.core.oracle import MonotonicityCheckingOracle
from repro.core.verification import verify_maxth
from repro.datasets.planted import PlantedTheory, random_planted_theory
from repro.mining.dualize_advance import dualize_and_advance
from repro.mining.levelwise import levelwise
from repro.mining.maxminer import maxminer_maxth
from repro.util.bitset import Universe


@pytest.fixture
def universe():
    return Universe("ABCD")


@pytest.fixture
def planted(universe):
    return PlantedTheory.from_sets(universe, [{"A", "B", "C"}, {"B", "D"}])


def _lying_predicate(planted, lie_mask):
    """The planted predicate with one answer flipped."""
    return lambda mask: planted.is_interesting(mask) != (mask == lie_mask)


class TestAuditedMining:
    def test_levelwise_with_honest_predicate_passes_audit(
        self, universe, planted
    ):
        oracle = MonotonicityCheckingOracle(planted.is_interesting)
        result = levelwise(universe, oracle)
        assert len(result.maximal) == 2

    def test_levelwise_never_exposes_border_lies(self, universe):
        """Levelwise queries nothing above the negative border — the
        very property that makes it correct for monotone q also means a
        non-monotone 'statistical significance' predicate (the paper's
        §2 caveat) silently loses the isolated significant set."""

        def significance(mask: int) -> bool:
            # Only the specific pattern ABD is 'significant' (plus ∅).
            return mask == universe.to_mask("ABD") or mask == 0

        oracle = MonotonicityCheckingOracle(significance)
        result = levelwise(universe, oracle)  # no violation *observed*
        assert universe.to_mask("ABD") not in result.maximal

    def test_audit_catches_violation_across_algorithms(self):
        """Each algorithm individually only queries a frontier that can
        look monotone; two algorithms sharing one audited oracle probe
        *both sides* of a violation and the audit fires.  MaxMiner's
        lookahead asks the full set (true), levelwise then asks the
        singletons (false) — an observed non-monotonicity."""
        universe = Universe("ABC")

        def non_monotone(mask: int) -> bool:
            # ∅ and the full set are 'interesting', nothing in between.
            return mask == 0 or mask == universe.full_mask

        oracle = MonotonicityCheckingOracle(non_monotone)
        maxminer_maxth(universe, oracle)  # sees only ∅ and ABC: quiet
        with pytest.raises(MonotonicityError):
            levelwise(universe, oracle)  # singletons contradict ABC

    def test_consistent_lie_mines_wrong_theory_verification_rejects(
        self, universe, planted
    ):
        """A single flipped answer can be *observationally consistent* —
        the miner returns a wrong theory with no violation to catch.
        Verifying the wrong answer against the honest oracle rejects it
        (Corollary 4 in its intended role)."""
        lying = _lying_predicate(planted, universe.to_mask("AD"))
        wrong = dualize_and_advance(universe, lying)
        assert set(wrong.maximal) != set(planted.maximal_masks)
        verdict = verify_maxth(
            universe, planted.is_interesting, list(wrong.maximal)
        )
        assert not verdict.is_valid


class TestVerificationRejectsCorruption:
    def test_flipped_positive_border_detected(self, universe, planted):
        lying = _lying_predicate(planted, universe.to_mask("ABC"))
        result = verify_maxth(
            universe, lying, list(planted.maximal_masks)
        )
        assert not result.is_valid
        assert result.witness == universe.to_mask("ABC")

    def test_flipped_negative_border_detected(self, universe, planted):
        lying = _lying_predicate(planted, universe.to_mask("CD"))
        result = verify_maxth(
            universe, lying, list(planted.maximal_masks)
        )
        assert not result.is_valid
        assert result.witness == universe.to_mask("CD")

    def test_deep_lies_are_invisible_to_verification(self, universe, planted):
        """Corollary 4 is tight: verification only probes the border, so
        a lie strictly inside the theory cannot be noticed — exactly the
        |Bd(S)| information bound of Theorem 2."""
        lying = _lying_predicate(planted, universe.to_mask("B"))
        result = verify_maxth(
            universe, lying, list(planted.maximal_masks)
        )
        assert result.is_valid  # the lie was outside Bd(S)


class TestMinersOnAdversarialShapes:
    def test_all_miners_on_antichain_of_singletons(self):
        universe = Universe(range(6))
        planted = PlantedTheory(
            universe, tuple(1 << i for i in range(6))
        )
        expected = tuple(sorted(planted.maximal_masks))
        assert tuple(sorted(
            levelwise(universe, planted.is_interesting).maximal
        )) == expected
        assert tuple(sorted(
            dualize_and_advance(universe, planted.is_interesting).maximal
        )) == expected
        assert tuple(sorted(
            maxminer_maxth(universe, planted.is_interesting).maximal
        )) == expected

    def test_miners_on_complement_pair_structure(self):
        """Example 19's shape as a live mining problem: maximal sets are
        complements of a perfect matching."""
        n = 10
        universe = Universe(range(n))
        full = universe.full_mask
        maximal = tuple(
            full & ~(0b11 << (2 * i)) for i in range(n // 2)
        )
        planted = PlantedTheory(universe, maximal)
        advance = dualize_and_advance(universe, planted.is_interesting)
        assert set(advance.maximal) == set(planted.maximal_masks)
        # Bd- here is the transversal family of the matching: 2^{n/2}.
        assert len(advance.negative_border) == 2 ** (n // 2)

    def test_shuffled_advance_seeds_agree_on_tricky_shape(self):
        planted = random_planted_theory(8, 4, min_size=3, max_size=6, seed=99)
        reference = None
        for seed in range(10):
            result = dualize_and_advance(
                planted.universe, planted.is_interesting, shuffle=seed
            )
            if reference is None:
                reference = (result.maximal, result.negative_border)
            assert (result.maximal, result.negative_border) == reference
