"""Planted theories: pure-oracle mining workloads with known ground truth.

A planted theory fixes an antichain of maximal interesting sets ``MTh``
directly and answers ``Is-interesting`` as "is the queried set contained
in some planted maximal set".  This is the cleanest possible instance of
the paper's model of computation (Section 3): algorithms see nothing but
the oracle, and every quantity in the theorems — ``|MTh|``, ``|Bd-|``,
rank, width — is computable exactly from the plant.  It is how E2/E3/E7
measure query counts against the proven bounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.borders import negative_border_from_positive
from repro.util.antichain import maximize_masks
from repro.util.bitset import Universe, mask_of_indices, popcount, rank_sorted
from repro.util.rng import make_rng


@dataclass(frozen=True)
class PlantedTheory:
    """A downward-closed theory defined by its maximal sets.

    Attributes:
        universe: the attribute universe.
        maximal_masks: the planted ``MTh`` as a tuple of masks (an
            antichain; normalized on construction via ``maximize``).
    """

    universe: Universe
    maximal_masks: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        # Sort ascending by (cardinality, value) — the order every miner
        # reports — so ground-truth comparisons are plain equality.
        normalized = tuple(rank_sorted(maximize_masks(self.maximal_masks)))
        object.__setattr__(self, "maximal_masks", normalized)

    @classmethod
    def from_sets(cls, universe: Universe, maximal_sets) -> "PlantedTheory":
        """Build from item-set maximal elements."""
        return cls(universe, tuple(universe.to_mask(s) for s in maximal_sets))

    def is_interesting(self, mask: int) -> bool:
        """The planted ``q``: containment in some maximal set."""
        return any(mask & maximal == mask for maximal in self.maximal_masks)

    def theory_masks(self) -> list[int]:
        """All interesting masks (the full downward closure).

        Exponential in the largest maximal set; ground truth for tests.
        """
        seen: set[int] = set()
        for maximal in self.maximal_masks:
            sub = maximal
            while True:
                seen.add(sub)
                if sub == 0:
                    break
                sub = (sub - 1) & maximal
        return rank_sorted(seen)

    def theory_size(self) -> int:
        """``|Th|`` — size of the downward closure (via explicit walk)."""
        return len(self.theory_masks())

    def negative_border_masks(self) -> list[int]:
        """``Bd-`` via Theorem 7: transversals of complemented maximals.

        For the empty plant the negative border is ``{∅}`` (nothing at
        all is interesting); for a plant containing the full universe the
        border is empty (everything is interesting).
        """
        return negative_border_from_positive(self.universe, self.maximal_masks)

    def rank(self) -> int:
        """``rank(MTh)``: the size of the largest maximal set."""
        if not self.maximal_masks:
            return 0
        return max(popcount(m) for m in self.maximal_masks)


def random_planted_theory(
    n_attributes: int,
    n_maximal: int,
    min_size: int = 1,
    max_size: int | None = None,
    seed: int | random.Random | None = None,
) -> PlantedTheory:
    """A random planted theory with maximal sets in a size band.

    The drawn family is maximized, so fewer than ``n_maximal`` sets can
    survive.  ``max_size`` defaults to ``n_attributes - 1`` so that the
    negative border is never empty.
    """
    if n_attributes <= 0:
        raise ValueError("need a positive number of attributes")
    max_size = (n_attributes - 1) if max_size is None else max_size
    if not 0 <= min_size <= max_size <= n_attributes:
        raise ValueError("invalid size band")
    rng = make_rng(seed)
    universe = Universe(range(n_attributes))
    masks = []
    for _ in range(n_maximal):
        size = rng.randint(min_size, max_size)
        masks.append(mask_of_indices(rng.sample(range(n_attributes), size)))
    return PlantedTheory(universe, tuple(masks))
