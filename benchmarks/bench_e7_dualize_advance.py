"""E7 — Lemma 20 and Theorem 21: Dualize-and-Advance complexity.

Measures, on planted workloads spanning shallow-to-deep theories:

* iterations = |MTh| + 1 (one discovery per maximal set + certification);
* per-iteration fresh probes ≤ |Bd-(MTh)| + 1 (Lemma 20);
* total queries ≤ |MTh| · (|Bd-| + rank·width) (Theorem 21).
"""

from __future__ import annotations

from repro.datasets.planted import random_planted_theory
from repro.mining.bounds import (
    lemma20_enumeration_bound,
    theorem21_dualize_advance_bound,
)
from repro.mining.dualize_advance import dualize_and_advance

from benchmarks.conftest import record

SHAPES = [
    # (n, n_maximal, min_size, max_size, label)
    (10, 3, 2, 4, "shallow"),
    (12, 5, 4, 8, "medium"),
    (16, 4, 10, 14, "deep"),
    (20, 6, 12, 18, "very deep"),
]


def test_lemma20_and_theorem21_across_shapes():
    for index, (n, n_max, lo, hi, label) in enumerate(SHAPES):
        planted = random_planted_theory(
            n, n_max, min_size=lo, max_size=hi, seed=300 + index
        )
        result = dualize_and_advance(planted.universe, planted.is_interesting)
        assert result.maximal == planted.maximal_masks

        lemma_bound = lemma20_enumeration_bound(len(result.negative_border))
        max_enumerated = max(step.enumerated for step in result.iterations)
        assert max_enumerated <= lemma_bound

        theorem_bound = theorem21_dualize_advance_bound(
            max(1, len(result.maximal)),
            len(result.negative_border),
            result.rank(),
            n,
        )
        slack = len(result.negative_border) + 1
        assert result.queries <= theorem_bound + slack

        assert len(result.iterations) == len(result.maximal) + 1
        record(
            "E7",
            f"{label:>9}: n={n:>2} |MTh|={len(result.maximal)} "
            f"|Bd-|={len(result.negative_border):>4} rank={result.rank():>2} "
            f"iter={len(result.iterations):>2} "
            f"maxEnum={max_enumerated:>4}≤{lemma_bound:>4} "
            f"queries={result.queries:>5}≤{theorem_bound + slack:>6} (Thm 21)",
        )


def test_dualize_advance_benchmark_fk(benchmark):
    planted = random_planted_theory(16, 4, min_size=10, max_size=14, seed=302)
    result = benchmark(
        lambda: dualize_and_advance(
            planted.universe, planted.is_interesting, engine="fk"
        )
    )
    assert result.maximal == planted.maximal_masks


def test_dualize_advance_benchmark_berge(benchmark):
    planted = random_planted_theory(16, 4, min_size=10, max_size=14, seed=302)
    result = benchmark(
        lambda: dualize_and_advance(
            planted.universe, planted.is_interesting, engine="berge"
        )
    )
    assert result.maximal == planted.maximal_masks
