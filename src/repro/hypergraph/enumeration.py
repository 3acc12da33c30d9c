"""Unified access to the transversal engines, plus reference baselines.

``minimal_transversals(H, method=...)`` dispatches between:

* ``"berge"`` — :mod:`repro.hypergraph.berge` multiplication (default);
* ``"fk"`` — incremental enumeration driven by Fredman–Khachiyan duality
  witnesses (the paper's Corollary 22 engine);
* ``"mmcs"`` — the MMCS branch-and-bound enumerator of
  :mod:`repro.hypergraph.mmcs` (arXiv:1805.01310), the engine that
  dominates at data-profiling scale (see docs/API.md §17);
* ``"levelwise"`` — the paper's Corollary 15 special case (efficient when
  every edge has at least ``n - k`` vertices for small ``k``);
* ``"brute"`` — exhaustive scan of the powerset, for testing only.

All engines agree on every input; the test suite asserts this with
hypothesis-generated hypergraphs.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from repro.core.errors import BudgetExhausted
from repro.hypergraph.berge import berge_transversal_masks
from repro.hypergraph.fredman_khachiyan import find_new_minimal_transversal
from repro.hypergraph.hypergraph import Hypergraph, minimize_family
from repro.hypergraph.levelwise_transversal import levelwise_transversal_masks
from repro.hypergraph.mmcs import _with_prefix_partial, mmcs_transversal_masks
from repro.util.bitset import iter_bits, rank_sorted

_METHODS = ("berge", "fk", "mmcs", "levelwise", "brute")
_BUDGETED = ("berge", "fk", "mmcs")
_PARALLEL = ("mmcs",)


def minimize_transversal_mask(edge_masks: Sequence[int], transversal: int) -> int:
    """Greedily shrink a transversal to a minimal one (vertices low→high).

    Args:
        edge_masks: the hypergraph edges.
        transversal: any transversal of the family.

    Raises:
        ValueError: when ``transversal`` does not hit every edge.
    """
    if not all(transversal & edge for edge in edge_masks):
        raise ValueError("input is not a transversal")
    for bit_index in iter_bits(transversal):
        reduced = transversal & ~(1 << bit_index)
        if all(reduced & edge for edge in edge_masks):
            transversal = reduced
    return transversal


def brute_force_transversal_masks(
    edge_masks: Sequence[int], n_vertices: int
) -> list[int]:
    """All minimal transversals by scanning the full powerset.

    Exponential in ``n_vertices``; intended as the ground truth for tests
    with small universes.
    """
    edges = minimize_family(edge_masks)
    if not edges:
        return [0]
    if edges[0] == 0:
        return []
    transversals = [
        mask
        for mask in range(1 << n_vertices)
        if all(mask & edge for edge in edges)
    ]
    return rank_sorted(minimize_family(transversals))


def iter_minimal_transversals(
    hypergraph: Hypergraph, method: str = "fk", budget=None, tracer=None
) -> Iterator[int]:
    """Incrementally yield minimal transversal masks.

    With ``method="fk"`` this is a genuine incremental enumerator: the
    ``i``-th transversal is produced after ``i`` duality tests, matching
    the "incremental T(I, i) time" notion of Section 3 of the paper.
    Other methods compute the full family first and then yield from it.

    A :class:`~repro.runtime.budget.Budget` is honored by the ``"fk"``,
    ``"berge"``, and ``"mmcs"`` engines (checked per
    enumeration step / edge / search node); the reference baselines
    reject it.  A ``tracer`` is likewise forwarded to those engines
    (``fk.check`` spans per enumeration step, ``berge.run`` /
    ``berge.edge`` spans, ``mmcs.run`` spans) and ignored by the
    baselines.
    """
    if method == "fk":
        found: list[int] = []
        while True:
            if budget is not None:
                budget.check(family=len(found))
            nxt = find_new_minimal_transversal(
                hypergraph.edge_masks,
                found,
                hypergraph.universe.full_mask,
                budget=budget,
                tracer=tracer,
            )
            if nxt is None:
                return
            found.append(nxt)
            yield nxt
    elif method in _METHODS:
        yield from minimal_transversals(
            hypergraph, method=method, budget=budget, tracer=tracer
        )
    else:
        raise ValueError(f"unknown method {method!r}; expected one of {_METHODS}")


def minimal_transversals(
    hypergraph: Hypergraph,
    method: str = "berge",
    budget=None,
    tracer=None,
    workers: int | None = None,
) -> list[int]:
    """The complete family ``Tr(H)`` as a sorted list of masks.

    Args:
        workers: worker processes for ``"mmcs"``, which runs
            depth-2 subtree tasks; the output is bit-identical to the
            serial engine.  ``None`` or ``<= 1``
            runs serially.

    Raises:
        BudgetExhausted: with a
            :class:`~repro.runtime.partial.PartialDualization` attached,
            when a supplied budget trips (``"berge"``: the transversals
            of the processed edge prefix; ``"fk"``/``"mmcs"``:
            the genuine minimal transversals enumerated so far).
        ValueError: when a budget is supplied with a reference baseline
            (``"levelwise"``, ``"brute"``), which do not
            support cooperative checks, or when ``workers > 1`` is
            combined with a method other than ``"mmcs"``.
    """
    if workers is not None and workers > 1 and method not in _PARALLEL:
        raise ValueError(f"workers are only supported by methods {_PARALLEL}")
    if method == "mmcs":
        if workers is not None and workers > 1:
            from repro.parallel.mmcs import mmcs_transversals_parallel

            return mmcs_transversals_parallel(
                hypergraph.edge_masks,
                workers,
                budget=budget,
                tracer=tracer,
            )
        return mmcs_transversal_masks(
            hypergraph.edge_masks, budget=budget, tracer=tracer
        )
    if method == "berge":
        return berge_transversal_masks(
            hypergraph.edge_masks, budget=budget, tracer=tracer
        )
    if method == "fk":
        found: list[int] = []
        try:
            for mask in iter_minimal_transversals(
                hypergraph, method="fk", budget=budget, tracer=tracer
            ):
                found.append(mask)
        except BudgetExhausted as exhausted:
            raise _with_prefix_partial(
                exhausted, found, hypergraph.edge_masks
            ) from exhausted
        return rank_sorted(found)
    if budget is not None:
        raise ValueError(f"budgets are only supported by {_BUDGETED}")
    if method == "levelwise":
        return levelwise_transversal_masks(
            hypergraph.edge_masks, len(hypergraph.universe)
        )
    if method == "brute":
        return brute_force_transversal_masks(
            hypergraph.edge_masks, len(hypergraph.universe)
        )
    raise ValueError(f"unknown method {method!r}; expected one of {_METHODS}")
