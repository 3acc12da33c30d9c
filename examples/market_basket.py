#!/usr/bin/env python3
"""Market-basket analysis on a Quest-style synthetic dataset.

The workload the paper's introduction motivates: generate an IBM-Quest
style basket database (the stand-in for the non-redistributable FIMI
datasets), write/read it through the standard FIMI ``.dat`` format, mine
frequent itemsets at several thresholds, compare the levelwise and
Dualize-and-Advance query bills, and derive association rules.

Run:
    python examples/market_basket.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import read_fimi, write_fimi
from repro.datasets.synthetic import QuestParameters, generate_quest_database
from repro.instances.frequent_itemsets import mine_frequent_itemsets
from repro.mining.association_rules import association_rules_from_supports
from repro.mining.bounds import corollary13_frequent_sets_bound


def main() -> None:
    params = QuestParameters(
        n_items=40,
        n_transactions=1200,
        avg_transaction_length=8,
        n_patterns=10,
        avg_pattern_length=4,
    )
    database = generate_quest_database(params, seed=2024)
    print(f"Generated {database} (T8.I4 style)")

    # Round-trip through the FIMI on-disk format.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "quest.dat"
        write_fimi(database, path)
        database = read_fimi(path, universe=database.universe)
        print(f"Round-tripped through FIMI format at {path.name}")
    print()

    print(
        f"{'σ':>6} {'|MTh|':>6} {'|Bd-|':>6} {'k':>3} "
        f"{'apriori q':>10} {'D&A q':>8} {'Cor.13 bound':>13}"
    )
    for sigma in (0.25, 0.15, 0.10):
        apriori_theory = mine_frequent_itemsets(database, sigma)
        advance_theory = mine_frequent_itemsets(
            database, sigma, algorithm="dualize_advance", seed=0
        )
        assert apriori_theory.maximal == advance_theory.maximal
        k = apriori_theory.rank()
        bound = corollary13_frequent_sets_bound(
            k, database.n_items, len(apriori_theory.maximal)
        )
        print(
            f"{sigma:>6.2f} {len(apriori_theory.maximal):>6} "
            f"{len(apriori_theory.negative_border):>6} {k:>3} "
            f"{apriori_theory.queries:>10} {advance_theory.queries:>8} "
            f"{bound:>13}"
        )
    print()

    # Association rules at σ = 0.10 (Section 2's post-processing).
    theory = mine_frequent_itemsets(database, 0.10)
    rules = association_rules_from_supports(
        database.universe,
        theory.supports,
        database.n_transactions,
        min_confidence=0.8,
    )
    print(f"Top association rules (conf ≥ 0.8): {len(rules)} found")
    for rule in rules[:10]:
        print(f"  {rule}")


if __name__ == "__main__":
    main()
