"""Corollary 15: transversals of large-edge hypergraphs via levelwise search.

The paper's observation: if every edge of ``H`` has at least ``n - k``
vertices, then every *non-transversal* has at most ``k`` vertices (a set
of size ``k+1`` meets every edge by pigeonhole).  Declare the
non-transversals "interesting" — a downward-closed property — and run the
levelwise algorithm up the subset lattice.  The negative border of the
resulting theory is exactly ``Tr(H)``, and for ``k = O(log n)`` the whole
computation is input-polynomial, improving on the constant-``k`` result of
Eiter and Gottlob (their Theorem 5.4).

Notably the algorithm never reads the hypergraph's structure directly: it
only asks "is this subset a transversal?", exactly the black-box access
pattern the paper emphasizes.  The search is the library's one Algorithm 9
engine, :func:`~repro.mining.levelwise.levelwise`, run on that predicate.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.util.antichain import minimize_masks
from repro.util.bitset import Universe


def levelwise_transversal_masks(
    edge_masks: Sequence[int],
    n_vertices: int,
    is_transversal: Callable[[int], bool] | None = None,
) -> list[int]:
    """All minimal transversals, found as the negative border of the
    non-transversal theory.

    Args:
        edge_masks: the hypergraph edges (used only through the
            transversal predicate unless ``is_transversal`` is supplied).
        n_vertices: size of the vertex universe.
        is_transversal: optional black-box override of the predicate, so
            callers can count queries or inject failures.

    Returns:
        The minimal transversal masks sorted by (cardinality, value).

    Complexity: ``O(|NT| · n)`` predicate evaluations where ``NT`` is the
    set of non-transversals; for edges of size ≥ n−k, ``|NT| ≤ Σ_{i≤k}
    C(n, i)``, which is polynomial for fixed ``k`` and quasi-polynomial
    for ``k = O(log n)`` (Corollary 14 / 15 of the paper).
    """
    edges = minimize_masks(edge_masks)
    if not edges:
        return [0]
    if edges[0] == 0:
        return []
    if is_transversal is None:

        def is_transversal(mask: int, _edges=tuple(edges)) -> bool:
            return all(mask & edge for edge in _edges)

    # Imported here: transversal methods that never take this path
    # load no miner.
    from repro.mining.levelwise import levelwise

    theory = levelwise(
        Universe(range(n_vertices)), lambda mask: not is_transversal(mask)
    )
    return list(theory.negative_border)
