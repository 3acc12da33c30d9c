"""Randomized MaxTh discovery (Gunopulos–Mannila–Saluja, [11] in the paper).

The empirical companion of Dualize and Advance: instead of deriving every
counterexample from a transversal computation, first *sample* maximal
interesting sets cheaply — a random permutation followed by one greedy
pass yields a maximal set, every maximal set having positive probability —
and only fall back to the transversal machinery to certify completeness
(or fetch a counterexample the sampler keeps missing).  The sampling
phase often finds most of ``MTh`` with far fewer dualizations, which is
the effect [11] reported and experiment E7/E9 revisits.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass

from repro.core.oracle import CountingOracle
from repro.hypergraph.fredman_khachiyan import find_new_minimal_transversal
from repro.mining.maximalize import greedy_maximalize
from repro.util.bitset import Universe, rank_sorted
from repro.util.rng import make_rng


def random_maximal_set(
    universe: Universe,
    predicate: Callable[[int], bool],
    seed: int | random.Random | None = None,
) -> int:
    """Sample one maximal interesting set via a random greedy pass.

    Requires ``q(∅)`` to hold (callers check).  Every maximal set is
    reachable: the permutation placing its members first produces it.
    """
    rng = make_rng(seed)
    order = list(range(len(universe)))
    rng.shuffle(order)
    return greedy_maximalize(universe, predicate, 0, order=order)


@dataclass(frozen=True)
class RandomizedMaxThResult:
    """Output of :func:`randomized_maxth`.

    Attributes:
        maximal: ``MTh``.
        negative_border: ``Bd-(MTh)``.
        queries: distinct oracle evaluations.
        sampled: maximal sets found by pure sampling.
        advanced: maximal sets that needed a transversal counterexample.
        dualizations: how many incremental transversal steps ran.
    """

    universe: Universe
    maximal: tuple[int, ...]
    negative_border: tuple[int, ...]
    queries: int
    sampled: int
    advanced: int
    dualizations: int


def randomized_maxth(
    universe: Universe,
    predicate: Callable[[int], bool],
    patience: int = 5,
    seed: int | random.Random | None = None,
) -> RandomizedMaxThResult:
    """The [11] algorithm: sample maximal sets, then dualize to certify.

    Args:
        universe: the attribute universe.
        predicate: the monotone ``q``.
        patience: how many consecutive duplicate samples end the sampling
            phase (per round).
        seed: RNG seed for reproducibility.

    The certification phase is exactly Dualize and Advance with the FK
    engine, warm-started with the sampled family; on an incomplete family
    it returns a counterexample that is extended (again randomly) and the
    sampling phase resumes.
    """
    oracle = (
        predicate
        if isinstance(predicate, CountingOracle)
        else CountingOracle(predicate)
    )
    start_queries = oracle.distinct_queries
    rng = make_rng(seed)
    full = universe.full_mask

    if not oracle(0):
        return RandomizedMaxThResult(
            universe=universe,
            maximal=(),
            negative_border=(0,),
            queries=oracle.distinct_queries - start_queries,
            sampled=0,
            advanced=0,
            dualizations=0,
        )

    maximal: set[int] = set()
    sampled = 0
    advanced = 0
    dualizations = 0

    while True:
        # Sampling phase: draw random maximal sets until `patience`
        # consecutive draws produce nothing new.
        misses = 0
        while misses < patience:
            candidate = random_maximal_set(universe, oracle, seed=rng)
            if candidate in maximal:
                misses += 1
            else:
                maximal.add(candidate)
                sampled += 1
                misses = 0

        # Certification phase: enumerate Bd-(C) incrementally; stop at
        # the first interesting transversal (counterexample) or exhaust.
        complements = [full & ~mask for mask in maximal]
        if any(complement == 0 for complement in complements):
            border: list[int] = []
            break
        probed: list[int] = []
        counterexample: int | None = None
        while True:
            dualizations += 1
            transversal = find_new_minimal_transversal(
                complements, probed, full
            )
            if transversal is None:
                break
            probed.append(transversal)
            if oracle(transversal):
                counterexample = transversal
                break
        if counterexample is None:
            border = [mask for mask in probed if not oracle(mask)]
            break
        order = list(range(len(universe)))
        rng.shuffle(order)
        maximal.add(
            greedy_maximalize(universe, oracle, counterexample, order=order)
        )
        advanced += 1

    return RandomizedMaxThResult(
        universe=universe,
        maximal=tuple(rank_sorted(maximal)),
        negative_border=tuple(rank_sorted(border)),
        queries=oracle.distinct_queries - start_queries,
        sampled=sampled,
        advanced=advanced,
        dualizations=dualizations,
    )
