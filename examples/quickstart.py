#!/usr/bin/env python3
"""Quickstart: the paper's Figure 1 worked example, end to end.

Builds the four-attribute database whose 2-frequent sets form the lattice
of Figure 1, mines it with all four algorithms, verifies the result with
the Corollary 4 optimum, and prints the learning-theory translation of
Example 25.

Run:
    python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    CountingOracle,
    TransactionDatabase,
    mine_frequent_itemsets,
    verify_maxth,
)
from repro.instances.frequent_itemsets import FrequencyPredicate
from repro.learning.correspondence import (
    cnf_from_maximal_sets,
    dnf_from_negative_border,
)


def main() -> None:
    # The database realizing Figure 1: ABC twice, BD twice.
    database = TransactionDatabase.from_transactions(
        [
            {"A", "B", "C"},
            {"A", "B", "C"},
            {"B", "D"},
            {"B", "D"},
        ]
    )
    universe = database.universe
    print(f"Database: {database}")
    print()

    print("Mining 2-frequent itemsets with each algorithm:")
    for algorithm in ("apriori", "levelwise", "eclat", "dualize_advance"):
        theory = mine_frequent_itemsets(
            database, 2, algorithm=algorithm, seed=0
        )
        maximal = sorted(universe.label(mask) for mask in theory.maximal)
        border = sorted(universe.label(mask) for mask in theory.negative_border)
        print(
            f"  {algorithm:>16}: MTh = {maximal}  Bd- = {border}  "
            f"queries = {theory.queries}"
        )
    print()

    # Verification (Problem 3) at the Corollary 4 optimum.
    theory = mine_frequent_itemsets(database, 2)
    oracle = CountingOracle(FrequencyPredicate(database, 2))
    verdict = verify_maxth(universe, oracle, list(theory.maximal))
    print(
        f"Verification: valid={verdict.is_valid} using {verdict.queries} "
        f"queries (|Bd+|={verdict.checked_positive}, "
        f"|Bd-|={verdict.checked_negative} — the Corollary 4 optimum)"
    )
    print()

    # Example 25: the learning-theory reading.
    dnf = dnf_from_negative_border(universe, theory.negative_border)
    cnf = cnf_from_maximal_sets(universe, theory.maximal)
    print("Example 25 translation (q(S) ⟺ f(χ_S)=0):")
    print(f"  {dnf}")
    print(f"  {cnf}")


if __name__ == "__main__":
    main()
