"""The :class:`Theory` result type and a brute-force reference miner.

A :class:`Theory` is what every complete run of a set-lattice miner
returns: the universe, the maximal interesting sentences ``MTh``, the
negative border, the interesting sentences (when fully enumerated) and
the number of ``Is-interesting`` queries spent.  By Theorem 2 and
Corollary 4 the two borders are the whole certificate; the other fields
are figures the engine computed on the way.  Algorithms that never
enumerate the full theory (Dualize and Advance, MaxMiner) leave
``interesting`` as ``None``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.borders import negative_border_brute_force, positive_border
from repro.util.bitset import Universe, popcount, rank_sorted


@dataclass(frozen=True)
class Theory:
    """The theory of a mining problem, with its border certificate.

    Attributes:
        universe: the attribute universe.
        maximal: ``MTh`` — maximal interesting masks, an antichain.
        negative_border: ``Bd-(Th)`` — minimal uninteresting masks, or
            ``None`` when the engine did not compute it (MaxMiner's own
            result; methods treat it as they treat
            ``interesting=None``).
        interesting: every interesting mask, or ``None`` when the
            algorithm did not enumerate the full theory.
        queries: distinct ``Is-interesting`` evaluations spent.
        min_support: the absolute support threshold of a frequent-set
            run, ``None`` for other predicates.
        supports: support count of every frequent mask (``∅`` maps to
            the database size), where the engine counted them (Apriori,
            Eclat).
        border_supports: support count of each ``Bd-`` member, aligned
            with ``negative_border``, where the engine counted them
            (Apriori, Eclat).
        nodes: search-tree nodes expanded (Eclat, MaxMiner); 0 for the
            engines without a search tree.
        iterations: Dualize and Advance's per-iteration trace
            (:class:`~repro.mining.dualize_advance.DualizeAdvanceIteration`);
            empty for the other engines.

    Equality compares the certificate and its accounting (``universe``,
    the borders, ``interesting``, ``queries``, ``min_support``); the
    support tables and the search figures stay outside it.
    """

    universe: Universe
    maximal: tuple[int, ...]
    negative_border: tuple[int, ...] | None
    interesting: tuple[int, ...] | None = None
    queries: int = 0
    min_support: int | None = None
    supports: dict[int, int] | None = field(default=None, compare=False)
    border_supports: tuple[int, ...] | None = field(
        default=None, compare=False
    )
    nodes: int = field(default=0, compare=False)
    iterations: tuple = field(default=(), compare=False)

    def maximal_sets(self) -> list[frozenset]:
        """``MTh`` as ``frozenset`` objects."""
        return [self.universe.to_set(mask) for mask in self.maximal]

    def negative_border_sets(self) -> list[frozenset] | None:
        """``Bd-`` as ``frozenset`` objects, when computed."""
        if self.negative_border is None:
            return None
        return [self.universe.to_set(mask) for mask in self.negative_border]

    def interesting_sets(self) -> list[frozenset] | None:
        """The full theory as sets, when available."""
        if self.interesting is None:
            return None
        return [self.universe.to_set(mask) for mask in self.interesting]

    def theory_size(self) -> int | None:
        """``|Th|`` when the full theory was enumerated."""
        return None if self.interesting is None else len(self.interesting)

    def border_size(self) -> int | None:
        """``|Bd(Th)| = |Bd+| + |Bd-|`` — the Theorem 2 lower bound —
        when ``Bd-`` was computed."""
        if self.negative_border is None:
            return None
        return len(self.maximal) + len(self.negative_border)

    @property
    def levels(self) -> tuple[tuple[int, ...], ...] | None:
        """``Th`` by rank, when enumerated: ``levels[i]`` holds the
        rank-``i`` members, with one level per rank of ``Th ∪ Bd-``.

        Those are the levels a levelwise walk evaluates (Theorem 10),
        so ``len(levels)`` is its number of passes; a last level of
        ``Bd-`` members alone is empty.
        """
        if self.interesting is None:
            return None
        top = max(
            map(popcount, (*self.interesting, *(self.negative_border or ()))),
            default=-1,
        )
        levels: list[list[int]] = [[] for _ in range(top + 1)]
        for mask in self.interesting:
            levels[popcount(mask)].append(mask)
        return tuple(map(tuple, levels))

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
        :meth:`from_dict`'s ``item_type`` hook).  Only the certificate
        and its accounting are serialized, not the support tables or
        the search figures.
        """
        def names(masks):
            if masks is None:
                return None
            return [
                sorted(str(i) for i in self.universe.to_set(mask))
                for mask in masks
            ]

        return {
            "universe": [str(item) for item in self.universe.items],
            "maximal": names(self.maximal),
            "negative_border": names(self.negative_border),
            "interesting": names(self.interesting),
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
            if families is None:
                return None
            return tuple(
                universe.to_mask(item_type(i) for i in family)
                for family in families
            )

        return cls(
            universe=universe,
            maximal=masks(payload["maximal"]),
            negative_border=masks(payload["negative_border"]),
            interesting=masks(payload["interesting"]),
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
