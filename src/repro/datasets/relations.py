"""Relation instances for functional-dependency and key discovery.

Section 2 of the paper lists "finding keys or inclusion dependencies from
relation instances" among the MaxTh instances, and Section 5 notes the
agree-set route: the maximal sets on which two rows agree determine the
keys via one hypergraph-transversal computation (Mannila–Räihä).  This
module provides the relation value type, agree-set computation, and a
generator that plants keys.
"""

from __future__ import annotations

import random
from collections.abc import Hashable, Iterable, Sequence

from repro.util.antichain import maximize_masks
from repro.util.bitset import Universe, iter_bits, popcount, rank_sorted
from repro.util.rng import make_rng


class Relation:
    """An immutable relation instance: named attributes, tuple rows.

    Args:
        attributes: attribute names, in column order.
        rows: the tuples; each must have one value per attribute.
    """

    __slots__ = ("universe", "rows")

    def __init__(
        self, attributes: Iterable[Hashable], rows: Iterable[Sequence]
    ):
        self.universe = Universe(attributes)
        materialized = [tuple(row) for row in rows]
        width = len(self.universe)
        for row in materialized:
            if len(row) != width:
                raise ValueError(
                    f"row width {len(row)} != attribute count {width}"
                )
        self.rows: tuple[tuple, ...] = tuple(materialized)

    @property
    def attributes(self) -> tuple:
        """Attribute names in column order."""
        return self.universe.items

    @property
    def n_rows(self) -> int:
        """Number of tuples."""
        return len(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"Relation({list(self.attributes)!r}, {self.n_rows} rows)"

    def projection_values(self, attribute_mask: int) -> set[tuple]:
        """Distinct value tuples of the projection on a column mask."""
        indices = list(iter_bits(attribute_mask))
        return {tuple(row[i] for i in indices) for row in self.rows}

    # -- agree sets ---------------------------------------------------------

    def agree_set_masks(self) -> list[int]:
        """All distinct pairwise agree sets, as masks.

        ``ag(t, u)`` is the set of attributes on which rows ``t`` and
        ``u`` coincide.  Quadratic in the number of rows; relations in
        this library's experiments are small-to-medium, and the stratified
        approach (partition refinement) is not needed at that scale.
        """
        agree_sets: set[int] = set()
        rows = self.rows
        n_columns = len(self.universe)
        for i in range(len(rows)):
            row_i = rows[i]
            for j in range(i + 1, len(rows)):
                row_j = rows[j]
                mask = 0
                for column in range(n_columns):
                    if row_i[column] == row_j[column]:
                        mask |= 1 << column
                agree_sets.add(mask)
        return rank_sorted(agree_sets)

    def maximal_agree_set_masks(self) -> list[int]:
        """The inclusion-maximal agree sets (the ``max`` sets of [16])."""
        return maximize_masks(self.agree_set_masks())

    # -- direct dependency checks -------------------------------------------

    def is_superkey(self, attribute_mask: int) -> bool:
        """True when no two distinct rows agree on all masked attributes.

        The empty mask is a superkey only for relations with ≤ 1 row.
        """
        indices = list(iter_bits(attribute_mask))
        seen: set[tuple] = set()
        for row in self.rows:
            key = tuple(row[i] for i in indices)
            if key in seen:
                return False
            seen.add(key)
        return True

    def satisfies_fd(self, lhs_mask: int, rhs_index: int) -> bool:
        """True when the functional dependency ``lhs → attribute`` holds."""
        indices = list(iter_bits(lhs_mask))
        mapping: dict[tuple, object] = {}
        for row in self.rows:
            key = tuple(row[i] for i in indices)
            value = row[rhs_index]
            if key in mapping:
                if mapping[key] != value:
                    return False
            else:
                mapping[key] = value
        return True


def generate_relation_with_keys(
    n_attributes: int,
    n_rows: int,
    planted_keys: Sequence[Iterable[int]] | None = None,
    domain_size: int = 4,
    seed: int | random.Random | None = None,
) -> Relation:
    """A random relation over integer attributes, optionally forcing keys.

    Args:
        n_attributes: number of columns (attribute names are ``0..n-1``).
        n_rows: number of tuples.
        planted_keys: attribute-index sets that must be superkeys of the
            output.  Enforced by re-rolling colliding rows; small domains
            plus many rows may make a plant infeasible, which raises.
        domain_size: values are drawn uniformly from ``0..domain_size-1``.

    The *minimal* keys of the result can be a refinement of the plant
    (random collisions elsewhere may create extra keys); callers needing
    exact ground truth should derive it with the agree-set route.
    """
    if n_attributes <= 0 or n_rows < 0 or domain_size <= 0:
        raise ValueError("invalid relation shape")
    rng = make_rng(seed)
    key_masks = [
        sum(1 << i for i in key) for key in (planted_keys or [])
    ]
    for key_mask in key_masks:
        width = popcount(key_mask)
        if domain_size**width < n_rows:
            raise ValueError(
                "planted key domain too small for the requested row count"
            )
    rows: list[tuple[int, ...]] = []
    seen_per_key: list[set[tuple]] = [set() for _ in key_masks]
    attempts_budget = 1000 * max(1, n_rows)
    while len(rows) < n_rows:
        attempts_budget -= 1
        if attempts_budget < 0:
            raise RuntimeError("could not satisfy planted keys; widen domain")
        candidate = tuple(rng.randrange(domain_size) for _ in range(n_attributes))
        projections = [
            tuple(candidate[i] for i in iter_bits(mask)) for mask in key_masks
        ]
        if any(p in seen for p, seen in zip(projections, seen_per_key)):
            continue
        rows.append(candidate)
        for projection, seen in zip(projections, seen_per_key):
            seen.add(projection)
    return Relation(range(n_attributes), rows)
