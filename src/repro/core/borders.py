"""Borders of theories (Section 3 of the paper).

For a downward-closed ``S ⊆ L``:

* ``Bd+(S)`` — the *positive border*: maximal elements of ``S``;
* ``Bd-(S)`` — the *negative border*: minimal elements outside ``S``
  all of whose generalizations lie in ``S``;
* ``Bd(S) = Bd+(S) ∪ Bd-(S)``.

For arbitrary ``S`` the borders are those of its downward closure.
Theorem 7 computes the negative border without touching the data:
``Bd-(S) = f⁻¹(Tr(H(S)))`` where ``H(S)`` collects the complements of
the positive-border sets.  This module provides both that transversal
route (any engine) and a brute-force route used as ground truth in
tests.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.hypergraph.enumeration import minimal_transversals
from repro.hypergraph.hypergraph import Hypergraph
from repro.util.antichain import maximize_masks
from repro.util.bitset import Universe, iter_submasks, rank_sorted


def downward_closure(masks: Iterable[int]) -> list[int]:
    """All subsets of all given masks (the closure under generalization).

    Exponential in the largest mask; ground truth for tests and small
    worked examples.
    """
    closed: set[int] = set()
    for mask in masks:
        for sub in iter_submasks(mask):
            closed.add(sub)
    return rank_sorted(closed)


def positive_border(masks: Iterable[int]) -> list[int]:
    """``Bd+(S)``: the maximal sets of the family.

    Accepts arbitrary families (not only downward-closed ones), per the
    paper's generalized definition ``Bd(S) = Bd(closure(S))`` — the
    maximal sets of a family equal those of its downward closure.
    Border maintenance goes through the antichain kernel layer
    (:mod:`repro.util.antichain`); incremental consumers should hold a
    :class:`~repro.util.antichain.MaximalFamilyTracker` instead of
    re-reducing on every insertion.
    """
    return rank_sorted(maximize_masks(masks))


def negative_border_from_positive(
    universe: Universe,
    positive_border_masks: Iterable[int],
    method: str = "berge",
) -> list[int]:
    """``Bd-`` from ``Bd+`` via Theorem 7: ``Tr({R \\ X : X ∈ Bd+})``.

    Handles the degenerate cases explicitly:

    * empty positive border (nothing is interesting, not even ``∅``):
      the negative border is ``{∅}``;
    * the full universe in the border (everything is interesting): the
      negative border is empty.
    """
    maximal = maximize_masks(positive_border_masks)
    full = universe.full_mask
    if not maximal:
        return [0]
    complements = [full & ~mask for mask in maximal]
    if any(complement == 0 for complement in complements):
        return []
    hypergraph = Hypergraph(universe, complements, validate=False)
    return minimal_transversals(hypergraph, method=method)


def negative_border_brute_force(
    universe: Universe, interesting_masks: Iterable[int]
) -> list[int]:
    """``Bd-`` by scanning the whole powerset (tests only, ``O(2^n · n)``).

    ``interesting_masks`` may be any family; its downward closure defines
    the theory.  A mask is on the negative border iff it is not in the
    theory but all its immediate generalizations are.
    """
    theory = set(downward_closure(interesting_masks))
    border_masks: list[int] = []
    for mask in range(universe.full_mask + 1):
        if mask in theory:
            continue
        if _all_parents_in(mask, theory):
            border_masks.append(mask)
    return rank_sorted(border_masks)


def _all_parents_in(mask: int, theory: set[int]) -> bool:
    remaining = mask
    while remaining:
        low = remaining & -remaining
        if (mask & ~low) not in theory:
            return False
        remaining ^= low
    return True


def border(
    universe: Universe, masks: Iterable[int], method: str = "berge"
) -> tuple[list[int], list[int]]:
    """``(Bd+(S), Bd-(S))`` of an arbitrary family, via Theorem 7."""
    positive = positive_border(masks)
    negative = negative_border_from_positive(universe, positive, method=method)
    return positive, negative
