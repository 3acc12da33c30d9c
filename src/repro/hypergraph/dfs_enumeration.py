"""Depth-first minimal-transversal enumeration (branch on an uncovered
edge).

A fifth engine, in the Kavvadias–Stavropoulos tradition: maintain a
partial transversal, pick the first edge it misses, and branch on that
edge's vertices.  Two prunings keep the search sane:

* **criticality** — a vertex is added only if it stays *critical*
  afterwards would be checked lazily; instead we enforce the standard
  invariant that every chosen vertex was chosen to hit a then-uncovered
  edge, so the final set can only violate minimality through later
  redundancy, which a leaf-time minimality check filters;
* **deduplication** — the same minimal transversal can be reached along
  several branches, so results are emitted through a seen-set.

Unlike Berge multiplication this is *memory-light* (no intermediate
antichain) and naturally lazy — it yields transversals as the search
walks — at the price of no output-polynomial guarantee.  It exists as an
independent implementation to cross-validate the other engines and as
the baseline "simple DFS" in the ablation discussion.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from repro.hypergraph.hypergraph import Hypergraph, minimize_family
from repro.util.bitset import iter_bits, rank_sorted


def iter_minimal_transversals_dfs(
    hypergraph: Hypergraph,
) -> Iterator[int]:
    """Lazily yield every minimal transversal, each exactly once."""
    yield from dfs_transversal_masks_iter(hypergraph.edge_masks)


def dfs_transversal_masks_iter(edge_masks: Sequence[int]) -> Iterator[int]:
    """DFS enumeration over a raw mask family (minimized internally)."""
    edges = minimize_family(edge_masks)
    if not edges:
        yield 0
        return
    if edges[0] == 0:
        return

    seen: set[int] = set()

    def all_critical(candidate: int) -> bool:
        # Criticality is monotone under growth: a vertex that is not the
        # sole hitter of some edge *now* never becomes one later, so any
        # partial set with a redundant vertex can be pruned outright.
        for bit_index in iter_bits(candidate):
            reduced = candidate & ~(1 << bit_index)
            if all(reduced & edge for edge in edges if candidate & edge):
                return False
        return True

    def first_uncovered(candidate: int) -> int | None:
        for edge in edges:
            if not candidate & edge:
                return edge
        return None

    stack: list[int] = [0]
    while stack:
        partial = stack.pop()
        missed = first_uncovered(partial)
        if missed is None:
            # Every vertex was kept critical along the way, so a covered
            # leaf is a minimal transversal; dedup across branch orders.
            if partial not in seen:
                seen.add(partial)
                yield partial
            continue
        for bit_index in iter_bits(missed):
            extended = partial | (1 << bit_index)
            if all_critical(extended):
                stack.append(extended)

    return


def dfs_transversal_masks(edge_masks: Sequence[int]) -> list[int]:
    """The complete family via DFS, sorted like the other engines."""
    return rank_sorted(dfs_transversal_masks_iter(edge_masks))
