"""Small combinatorial helpers used by bound calculators and generators."""

from __future__ import annotations

from math import comb


def binomial(n: int, k: int) -> int:
    """Binomial coefficient ``C(n, k)``, zero outside the valid range."""
    if k < 0 or k > n or n < 0:
        return 0
    return comb(n, k)


def sum_binomials(n: int, k: int) -> int:
    """``Σ_{i=0..k} C(n, i)`` — the number of subsets of size at most k.

    This is the paper's ``dc(k)`` for the subset lattice restricted to the
    downward closure of a rank-``k`` element intersected with the counting
    of all small sets; it appears in Corollary 14's bound on ``|Bd-|``.
    """
    return sum(binomial(n, i) for i in range(0, min(k, n) + 1))
