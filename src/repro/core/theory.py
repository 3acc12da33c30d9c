"""The :class:`Theory` result type and a brute-force reference miner.

A :class:`Theory` packages what the mining algorithms return: the
universe, the interesting sentences (when fully enumerated), the maximal
interesting sentences ``MTh``, the negative border, and the number of
``Is-interesting`` queries spent.  Algorithms that never enumerate the
full theory (Dualize and Advance) leave ``interesting`` as ``None``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.borders import negative_border_brute_force, positive_border
from repro.util.bitset import Universe, popcount, rank_sorted


@dataclass(frozen=True)
class Theory:
    """The (partial) theory of a mining problem.

    Attributes:
        universe: the attribute universe.
        maximal: ``MTh`` — maximal interesting masks, an antichain.
        negative_border: ``Bd-(Th)`` — minimal uninteresting masks.
        interesting: every interesting mask, or ``None`` when the
            algorithm did not enumerate the full theory.
        queries: distinct ``Is-interesting`` evaluations spent.
    """

    universe: Universe
    maximal: tuple[int, ...]
    negative_border: tuple[int, ...]
    interesting: tuple[int, ...] | None = None
    queries: int = 0
    extra: dict = field(default_factory=dict, compare=False)

    def maximal_sets(self) -> list[frozenset]:
        """``MTh`` as ``frozenset`` objects."""
        return [self.universe.to_set(mask) for mask in self.maximal]

    def negative_border_sets(self) -> list[frozenset]:
        """``Bd-`` as ``frozenset`` objects."""
        return [self.universe.to_set(mask) for mask in self.negative_border]

    def interesting_sets(self) -> list[frozenset] | None:
        """The full theory as sets, when available."""
        if self.interesting is None:
            return None
        return [self.universe.to_set(mask) for mask in self.interesting]

    def theory_size(self) -> int | None:
        """``|Th|`` when the full theory was enumerated."""
        return None if self.interesting is None else len(self.interesting)

    def border_size(self) -> int:
        """``|Bd(Th)| = |Bd+| + |Bd-|`` — the Theorem 2 lower bound."""
        return len(self.maximal) + len(self.negative_border)

    def rank(self) -> int:
        """``rank(MTh)``: size of the largest maximal set."""
        if not self.maximal:
            return 0
        return max(popcount(mask) for mask in self.maximal)

    def is_interesting(self, mask: int) -> bool:
        """Membership in the theory, decided from ``MTh``."""
        return any(mask & maximal == mask for maximal in self.maximal)

    def to_dict(self) -> dict:
        """A JSON-serializable snapshot of the theory.

        Items are rendered through ``str`` (round-trips exactly for
        string universes; integer universes round-trip via
        :meth:`from_dict`'s ``item_type`` hook).  ``extra`` is not
        serialized — it may hold arbitrary algorithm internals.
        """
        universe_items = [str(item) for item in self.universe.items]
        return {
            "universe": universe_items,
            "maximal": [
                sorted(str(i) for i in self.universe.to_set(mask))
                for mask in self.maximal
            ],
            "negative_border": [
                sorted(str(i) for i in self.universe.to_set(mask))
                for mask in self.negative_border
            ],
            "interesting": (
                None
                if self.interesting is None
                else [
                    sorted(str(i) for i in self.universe.to_set(mask))
                    for mask in self.interesting
                ]
            ),
            "queries": self.queries,
        }

    @classmethod
    def from_dict(cls, payload: dict, item_type=str) -> "Theory":
        """Rebuild a theory from :meth:`to_dict` output.

        Args:
            payload: the serialized form.
            item_type: constructor applied to each serialized item name
                (pass ``int`` for integer universes).
        """
        universe = Universe(item_type(item) for item in payload["universe"])

        def masks(families):
            return tuple(
                universe.to_mask(item_type(i) for i in family)
                for family in families
            )

        return cls(
            universe=universe,
            maximal=masks(payload["maximal"]),
            negative_border=masks(payload["negative_border"]),
            interesting=(
                None
                if payload["interesting"] is None
                else masks(payload["interesting"])
            ),
            queries=payload["queries"],
        )


def compute_theory_brute_force(
    universe: Universe, predicate: Callable[[int], bool]
) -> Theory:
    """Mine by scanning the entire powerset — ground truth for tests.

    Queries every one of the ``2^n`` sentences; only usable for small
    universes.  Raises no monotonicity checks; combine with
    :class:`~repro.core.oracle.MonotonicityCheckingOracle` if the
    predicate is untrusted.
    """
    interesting = [
        mask for mask in range(universe.full_mask + 1) if predicate(mask)
    ]
    maximal = positive_border(interesting)
    negative = negative_border_brute_force(universe, interesting)
    return Theory(
        universe=universe,
        maximal=tuple(maximal),
        negative_border=tuple(negative),
        interesting=tuple(rank_sorted(interesting)),
        queries=universe.full_mask + 1,
    )
