"""Hypergraph families used by the experiments and the test suite.

Each generator returns a :class:`~repro.hypergraph.Hypergraph` over an
integer universe ``0..n-1`` and, where the paper states one, documents the
closed form of its transversal family so benchmarks can assert shape
without recomputing ground truth.
"""

from __future__ import annotations

import random

from repro.hypergraph.hypergraph import Hypergraph
from repro.util.antichain import minimize_masks
from repro.util.bitset import Universe, mask_of_indices
from repro.util.rng import make_rng


def _integer_universe(n: int) -> Universe:
    if n <= 0:
        raise ValueError("universe size must be positive")
    return Universe(range(n))


def matching_hypergraph(n: int) -> Hypergraph:
    """The paper's Example 19 family: a perfect matching of pairs.

    Edges are ``{x_{2i}, x_{2i+1}}`` for ``i = 0..n/2-1`` (``n`` even).
    Its minimal transversals are exactly the ``2^{n/2}`` sets choosing one
    endpoint from every pair — the family whose *intermediate* appearance
    inside Dualize and Advance blows up even though the final borders of
    the surrounding mining problem are small.
    """
    if n <= 0 or n % 2:
        raise ValueError("matching hypergraph needs a positive even n")
    universe = _integer_universe(n)
    edges = [mask_of_indices((2 * i, 2 * i + 1)) for i in range(n // 2)]
    return Hypergraph(universe, edges)


def matching_transversal_count(n: int) -> int:
    """``|Tr(matching_hypergraph(n))| = 2^{n/2}`` (Example 19)."""
    if n <= 0 or n % 2:
        raise ValueError("matching hypergraph needs a positive even n")
    return 1 << (n // 2)


def complete_k_uniform_hypergraph(n: int, k: int) -> Hypergraph:
    """All ``k``-subsets of ``0..n-1``.

    ``Tr`` is the complete ``(n-k+1)``-uniform hypergraph: a set misses
    some ``k``-subset exactly when its complement has ≥ k vertices.
    Useful both as a stress case and as the ``H(S)`` arising from the
    "all sets of size n-2 are maximal" construction of Example 19.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    universe = _integer_universe(n)
    from itertools import combinations

    edges = [mask_of_indices(combo) for combo in combinations(range(n), k)]
    return Hypergraph(universe, edges)


def path_hypergraph(n: int) -> Hypergraph:
    """Consecutive pairs ``{i, i+1}``; transversals are path vertex covers.

    The number of minimal transversals grows like a Padovan-style
    recurrence — super-polynomial but far tamer than the matching family —
    making it a good mid-hardness fixture.
    """
    if n < 2:
        raise ValueError("path hypergraph needs n >= 2")
    universe = _integer_universe(n)
    edges = [mask_of_indices((i, i + 1)) for i in range(n - 1)]
    return Hypergraph(universe, edges)


def large_edge_hypergraph(
    n: int,
    k: int,
    n_edges: int,
    seed: int | random.Random | None = None,
) -> Hypergraph:
    """A random hypergraph whose every edge has at least ``n - k`` vertices.

    This is the input class of Corollary 15: each edge is the complement
    of a random set of size ≤ k.  The family is minimized, so the result
    may have fewer than ``n_edges`` edges.
    """
    if not 0 <= k < n:
        raise ValueError("need 0 <= k < n")
    rng = make_rng(seed)
    universe = _integer_universe(n)
    full = universe.full_mask
    edges: set[int] = set()
    for _ in range(n_edges):
        hole_size = rng.randint(0, k)
        hole = mask_of_indices(rng.sample(range(n), hole_size))
        edges.add(full & ~hole)
    return Hypergraph.simple(universe, edges)


def random_simple_hypergraph(
    n: int,
    n_edges: int,
    min_edge_size: int = 1,
    max_edge_size: int | None = None,
    seed: int | random.Random | None = None,
) -> Hypergraph:
    """A random simple hypergraph with edges in a size band.

    Draws ``n_edges`` random sets and keeps their minimal antichain, so
    the output can be smaller than requested; it is never empty as long as
    ``n_edges >= 1``.
    """
    if n <= 0 or n_edges < 0:
        raise ValueError("need positive n and non-negative n_edges")
    max_edge_size = n if max_edge_size is None else max_edge_size
    if not 1 <= min_edge_size <= max_edge_size <= n:
        raise ValueError("invalid edge-size band")
    rng = make_rng(seed)
    universe = _integer_universe(n)
    raw: list[int] = []
    for _ in range(n_edges):
        size = rng.randint(min_edge_size, max_edge_size)
        raw.append(mask_of_indices(rng.sample(range(n), size)))
    return Hypergraph(universe, minimize_masks(raw), validate=False)
