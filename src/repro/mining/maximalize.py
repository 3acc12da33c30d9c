"""Greedy extension of an interesting set to a maximal one (Step 9).

Dualize and Advance, shuffled or not, calls this routine:
given an interesting ``X``, add one attribute at a time, keeping those
that preserve interestingness.  A single left-to-right pass suffices on
the subset lattice: if adding ``v`` failed against an intermediate set it
also fails against any superset, by monotonicity of ``q``.  The pass
costs at most ``n - |X|`` queries, within the paper's
``rank(MTh) · width(L, ⪯)`` accounting in Theorem 21.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.util.bitset import Universe


def greedy_maximalize(
    universe: Universe,
    predicate: Callable[[int], bool],
    start_mask: int,
    order: Sequence[int] | None = None,
) -> int:
    """Extend ``start_mask`` to a maximal interesting set.

    Args:
        universe: the attribute universe.
        predicate: the monotone ``q``; ``start_mask`` must satisfy it
            (not re-verified here — callers have just queried it).
        order: attribute indices in the order extensions are attempted;
            defaults to ``0..n-1``.  Randomizing it yields the uniform
            random-maximal-set sampler of [11].

    Returns:
        A mask that is interesting and maximal: every one-item extension
        is uninteresting.
    """
    indices = range(len(universe)) if order is None else order
    current = start_mask
    for attribute_index in indices:
        bit = 1 << attribute_index
        if current & bit:
            continue
        extended = current | bit
        if predicate(extended):
            current = extended
    return current
