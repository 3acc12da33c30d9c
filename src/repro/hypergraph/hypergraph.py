"""The :class:`Hypergraph` value type and family minimization.

Following Section 3 of the paper, a *simple* hypergraph on a vertex set
``R`` is a family of non-empty subsets of ``R`` (the *edges*) none of which
contains another.  Transversal computations are only well behaved on
simple hypergraphs, so the constructor validates simplicity by default and
:meth:`Hypergraph.simple` normalizes an arbitrary family by keeping its
minimal sets.

Internally edges are integer bitmasks over a :class:`~repro.util.Universe`;
the set-valued API converts lazily.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.util.antichain import DominanceIndex, minimize_masks
from repro.util.bitset import Universe, iter_bits, popcount, rank_sorted


class NonSimpleHypergraphError(ValueError):
    """Raised when a family violates the simple-hypergraph conditions."""


class Hypergraph:
    """An immutable simple hypergraph over a fixed universe.

    Args:
        universe: the vertex universe (fixes the bit indexing).
        edges: an iterable of bitmasks, one per edge.
        validate: when true (default), reject empty edges and families
            that are not antichains with :class:`NonSimpleHypergraphError`.
            Use :meth:`Hypergraph.simple` to normalize instead of reject.

    The empty hypergraph (no edges) is allowed and is simple; its unique
    minimal transversal is the empty set.

    Attributes:
        edge_index: the :class:`~repro.util.antichain.DominanceIndex`
            over ``edge_masks`` that validation builds (and
            :meth:`simple` builds for its minimized family), kept so MMCS
            reuses it instead of minimizing and indexing the edges
            again.  ``None`` when ``validate=False``: such edges are not
            known to be an antichain.
    """

    __slots__ = (
        "universe", "edge_masks", "edge_index", "_covered_mask", "_max_size"
    )

    def __init__(
        self,
        universe: Universe,
        edges: Iterable[int],
        *,
        validate: bool = True,
    ):
        self.universe = universe
        masks = rank_sorted(set(edges))
        index = None
        if validate:
            for mask in masks:
                if mask == 0:
                    raise NonSimpleHypergraphError("edges must be non-empty")
                if mask & ~universe.full_mask:
                    raise NonSimpleHypergraphError(
                        "edge uses vertices outside the universe"
                    )
            # Distinct and rank-sorted, so every edge containing masks[i]
            # other than itself sits at a later position: the lowest one
            # is the first pair a ⊆ b in (i, j) order.
            index = DominanceIndex(masks)
            for position, a in enumerate(masks):
                supersets = index.containing(a) ^ (1 << position)
                if supersets:
                    b = masks[(supersets & -supersets).bit_length() - 1]
                    raise NonSimpleHypergraphError(
                        "family is not an antichain: "
                        f"{universe.label(a)} ⊆ {universe.label(b)}"
                    )
        self.edge_masks: tuple[int, ...] = tuple(masks)
        self.edge_index: DominanceIndex | None = index
        # Lazily cached derived facts (the class is immutable, but these
        # were recomputed on every call before PR 1).
        self._covered_mask: int | None = None
        self._max_size: int | None = None

    @classmethod
    def simple(cls, universe: Universe, edges: Iterable[int]) -> "Hypergraph":
        """Build the simple hypergraph of the *minimal* sets of ``edges``.

        Empty edges are rejected (a family containing the empty set has no
        transversals and is not a hypergraph in the paper's sense).
        """
        minimized = minimize_masks(edges)
        if minimized and minimized[0] == 0:
            raise NonSimpleHypergraphError("edges must be non-empty")
        hypergraph = cls(universe, minimized, validate=False)
        hypergraph.edge_index = DominanceIndex(minimized)
        return hypergraph

    @classmethod
    def from_sets(
        cls,
        edge_sets: Iterable[Iterable],
        universe: Universe | None = None,
    ) -> "Hypergraph":
        """Build a hypergraph from item-sets, inferring the universe.

        When ``universe`` is omitted, it is the sorted union of all edges
        (items must be mutually orderable).
        """
        materialized = [frozenset(edge) for edge in edge_sets]
        if universe is None:
            vertices: set = set()
            for edge in materialized:
                vertices |= edge
            universe = Universe(sorted(vertices))
        return cls(universe, (universe.to_mask(edge) for edge in materialized))

    # -- basic queries ----------------------------------------------------

    @property
    def n_vertices(self) -> int:
        """Number of vertices in the universe (not just covered ones)."""
        return len(self.universe)

    @property
    def n_edges(self) -> int:
        """Number of edges."""
        return len(self.edge_masks)

    def __len__(self) -> int:
        return len(self.edge_masks)

    def __iter__(self) -> Iterator[int]:
        return iter(self.edge_masks)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Hypergraph)
            and self.universe == other.universe
            and self.edge_masks == other.edge_masks
        )

    def __hash__(self) -> int:
        return hash((self.universe, self.edge_masks))

    def __repr__(self) -> str:
        labels = ", ".join(self.universe.label(m) for m in self.edge_masks[:6])
        suffix = ", ..." if len(self.edge_masks) > 6 else ""
        return f"Hypergraph({{{labels}{suffix}}})"

    def edges_as_sets(self) -> list[frozenset]:
        """The edges as ``frozenset`` objects, smallest first."""
        return [self.universe.to_set(mask) for mask in self.edge_masks]

    def covered_vertices_mask(self) -> int:
        """Mask of vertices that belong to at least one edge (cached)."""
        if self._covered_mask is None:
            covered = 0
            for mask in self.edge_masks:
                covered |= mask
            self._covered_mask = covered
        return self._covered_mask

    def min_edge_size(self) -> int:
        """Cardinality of the smallest edge (0 for the empty hypergraph).

        Edges are stored sorted by cardinality, so this is the first one.
        """
        if not self.edge_masks:
            return 0
        return popcount(self.edge_masks[0])

    def max_edge_size(self) -> int:
        """Cardinality of the largest edge (0 for the empty hypergraph,
        cached otherwise)."""
        if not self.edge_masks:
            return 0
        if self._max_size is None:
            self._max_size = max(popcount(mask) for mask in self.edge_masks)
        return self._max_size

    # -- transversal predicates -------------------------------------------

    def is_transversal(self, mask: int) -> bool:
        """True when ``mask`` intersects every edge (a hitting set)."""
        return all(mask & edge for edge in self.edge_masks)

    def is_minimal_transversal(self, mask: int) -> bool:
        """True when ``mask`` is a transversal and no proper subset is.

        Minimality is equivalent to every vertex of ``mask`` being
        *critical*: it is the sole hitter of at least one edge.
        """
        if not self.is_transversal(mask):
            return False
        for bit_index in iter_bits(mask):
            reduced = mask & ~(1 << bit_index)
            if self.is_transversal(reduced):
                return False
        return True

    def is_independent(self, mask: int) -> bool:
        """True when ``mask`` contains no edge (an independent set)."""
        return all(edge & ~mask for edge in self.edge_masks)

    # -- derived hypergraphs ----------------------------------------------

    def complement_hypergraph(self) -> "Hypergraph":
        """The hypergraph of edge complements, ``{R \\ E : E ∈ H}``.

        This is the construction ``H(S)`` of Theorem 7 when the edges are
        the positive border of a theory.  Complementation reverses
        inclusion, so the result of complementing an antichain is again an
        antichain — but a full-universe edge would complement to the empty
        set, which is rejected.
        """
        full = self.universe.full_mask
        return Hypergraph(
            self.universe, (full & ~mask for mask in self.edge_masks)
        )

    def restrict(self, vertex_mask: int) -> "Hypergraph":
        """Trace on a vertex subset: edges intersected with ``vertex_mask``.

        Edges that become empty are dropped, and the family is
        re-minimized (intersection can break the antichain property).
        The universe is kept so that masks stay comparable.
        """
        traced = [mask & vertex_mask for mask in self.edge_masks]
        nonempty = [mask for mask in traced if mask]
        return Hypergraph.simple(self.universe, nonempty)
