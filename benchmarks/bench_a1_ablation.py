"""A1 — ablations of the design choices called out in DESIGN.md.

Three knobs, each isolated with everything else fixed:

1. **Incremental dualizer** (one Berge-step / FK warm start per new
   maximal set) vs the literal per-iteration recomputation of
   Algorithm 16 — on the Berge engine measured here, identical query
   bills and very different wall clock (FK's rebuilt family comes in
   another order, so its bill may differ; see ``dualize_and_advance``).
2. **FK branching rule**: the max-frequency choice of the FK analysis vs
   naive lowest-index branching — both exact, different recursion shapes.
3. **Oracle memoization**: the paper's cost model counts distinct
   sentences; pricing *re-evaluations* shows how much D&A's
   re-certification pattern relies on the memo.
"""

from __future__ import annotations

import time

from repro.boolean.dualization import dnf_to_cnf
from repro.boolean.families import threshold_function
from repro.core.oracle import CountingOracle
from repro.datasets.planted import random_planted_theory
from repro.hypergraph.fredman_khachiyan import check_duality
from repro.mining.dualize_advance import dualize_and_advance

from benchmarks.conftest import record


def _workload():
    return random_planted_theory(14, 6, min_size=6, max_size=11, seed=4242)


class TestIncrementalDualizerAblation:
    def test_same_queries_different_time(self):
        planted = _workload()

        incremental_oracle = CountingOracle(planted.is_interesting)
        start = time.perf_counter()
        fast = dualize_and_advance(
            planted.universe, incremental_oracle, engine="berge"
        )
        fast_seconds = time.perf_counter() - start

        naive_oracle = CountingOracle(planted.is_interesting)
        start = time.perf_counter()
        slow = dualize_and_advance(
            planted.universe, naive_oracle, engine="berge", incremental=False
        )
        slow_seconds = time.perf_counter() - start

        assert fast.maximal == slow.maximal
        assert fast.negative_border == slow.negative_border
        assert fast.queries == slow.queries  # ablation is time-only
        record(
            "A1",
            f"incremental dualizer: {fast_seconds * 1000:8.2f}ms vs "
            f"naive recomputation {slow_seconds * 1000:8.2f}ms "
            f"({slow_seconds / max(fast_seconds, 1e-9):5.1f}× slower), "
            f"queries identical on berge ({fast.queries})",
        )

    def test_incremental_benchmark(self, benchmark):
        planted = _workload()
        result = benchmark(
            lambda: dualize_and_advance(
                planted.universe, planted.is_interesting, engine="berge"
            )
        )
        assert result.maximal == planted.maximal_masks

    def test_naive_benchmark(self, benchmark):
        planted = _workload()
        result = benchmark(
            lambda: dualize_and_advance(
                planted.universe,
                planted.is_interesting,
                engine="berge",
                incremental=False,
            )
        )
        assert result.maximal == planted.maximal_masks


class TestFKBranchingRuleAblation:
    def test_rules_agree_and_report_time(self):
        f = threshold_function(11, 5)
        g = dnf_to_cnf(f)
        timings = {}
        for rule in ("max_frequency", "lowest_index"):
            start = time.perf_counter()
            witness = check_duality(
                list(f.terms), list(g.clauses), f.universe.full_mask,
                variable_rule=rule,
            )
            timings[rule] = time.perf_counter() - start
            assert witness is None
        record(
            "A1",
            f"FK branching: max_frequency="
            f"{timings['max_frequency'] * 1000:8.2f}ms, lowest_index="
            f"{timings['lowest_index'] * 1000:8.2f}ms on threshold(11,5) "
            f"dual pair",
        )

    def test_max_frequency_benchmark(self, benchmark):
        f = threshold_function(10, 5)
        g = dnf_to_cnf(f)
        result = benchmark(
            lambda: check_duality(
                list(f.terms), list(g.clauses), f.universe.full_mask
            )
        )
        assert result is None

    def test_lowest_index_benchmark(self, benchmark):
        f = threshold_function(10, 5)
        g = dnf_to_cnf(f)
        result = benchmark(
            lambda: check_duality(
                list(f.terms),
                list(g.clauses),
                f.universe.full_mask,
                variable_rule="lowest_index",
            )
        )
        assert result is None


class TestMemoizationAblation:
    def test_reevaluation_overhead_measured(self):
        planted = _workload()
        memoized = CountingOracle(planted.is_interesting)
        dualize_and_advance(planted.universe, memoized)
        unmemoized = CountingOracle(planted.is_interesting, memoize=False)
        dualize_and_advance(planted.universe, unmemoized)

        assert memoized.evaluations == memoized.distinct_queries
        assert unmemoized.evaluations >= unmemoized.distinct_queries
        overhead = unmemoized.evaluations / max(1, unmemoized.distinct_queries)
        record(
            "A1",
            f"memoization: {memoized.distinct_queries} distinct sentences; "
            f"without memo the predicate runs {unmemoized.evaluations} times "
            f"({overhead:4.2f}× — D&A re-certifies survivors each round)",
        )
