"""E12 — the Section 2 instances, mined end to end.

Frequent itemsets (with association rules), keys/functional dependencies
(oracle route cross-checked against the agree-set + HTR route), inclusion
dependencies, and episodes — each exercised on generated data with the
structural identities asserted.
"""

from __future__ import annotations

from repro.datasets.relations import Relation, generate_relation_with_keys
from repro.datasets.sequences import generate_event_sequence
from repro.datasets.synthetic import QuestParameters, generate_quest_database
from repro.instances.episodes import mine_parallel_episodes
from repro.instances.frequent_itemsets import mine_frequent_itemsets
from repro.instances.functional_dependencies import (
    fd_lhs_via_agree_sets,
    mine_minimal_keys,
    minimal_keys_via_agree_sets,
)
from repro.instances.inclusion_dependencies import mine_inclusion_dependencies
from repro.mining.association_rules import association_rules_from_supports

from benchmarks.conftest import record


def _quest():
    # Sparse enough (avg 6 of 40 items) that σ=0.08 keeps |Th| in the
    # low thousands; at density 10/25 the same threshold explodes the
    # theory past 10^5 and a benchmark round takes minutes.
    return generate_quest_database(
        QuestParameters(
            n_items=40, n_transactions=500, avg_transaction_length=6
        ),
        seed=12,
    )


def _relation():
    return generate_relation_with_keys(
        6, 40, planted_keys=[(0, 1)], domain_size=8, seed=12
    )


def test_frequent_itemsets_and_rules():
    database = _quest()
    theory = mine_frequent_itemsets(database, 0.08)
    rules = association_rules_from_supports(
        database.universe,
        theory.supports,
        database.n_transactions,
        min_confidence=0.7,
    )
    assert theory.maximal
    record(
        "E12",
        f"frequent sets: |MTh|={len(theory.maximal)} "
        f"|Bd-|={len(theory.negative_border)} rules(conf≥0.7)={len(rules)}",
    )


def test_keys_two_routes_agree():
    relation = _relation()
    oracle_theory = mine_minimal_keys(relation, algorithm="dualize_advance")
    direct = minimal_keys_via_agree_sets(relation)
    assert sorted(oracle_theory.negative_border) == sorted(direct)
    assert relation.is_superkey(relation.universe.to_mask({0, 1}))
    record(
        "E12",
        f"keys: {len(direct)} minimal keys; oracle route = agree-set route; "
        f"oracle queries={oracle_theory.queries}",
    )


def test_fd_discovery():
    relation = _relation()
    total = 0
    for rhs in relation.attributes:
        total += len(fd_lhs_via_agree_sets(relation, rhs))
    record("E12", f"FDs: {total} minimal LHSs across {len(relation.attributes)} RHS attributes")
    assert total > 0


def test_inclusion_dependencies():
    relation = _relation()
    fragment = Relation(
        ["u", "v"], [(row[0], row[1]) for row in relation.rows[:20]]
    )
    theory = mine_inclusion_dependencies(fragment, relation)
    pair_sets = theory.maximal_sets()
    assert any(
        {("u", 0), ("v", 1)} <= pair_set for pair_set in pair_sets
    )
    record(
        "E12",
        f"INDs: {len(pair_sets)} maximal INDs; projected fragment "
        f"rediscovered as {{u⊆0, v⊆1}}",
    )


def test_episode_mining():
    sequence = generate_event_sequence(
        "ABCD", 300, planted_episodes=[("A", "B")], injection_rate=0.3, seed=9
    )
    result = mine_parallel_episodes(
        sequence, window_width=4, min_frequency=0.2, max_length=3
    )
    assert ("A", "B") in result.interesting
    record(
        "E12",
        f"episodes: {len(result.interesting)} frequent parallel episodes, "
        f"{len(result.maximal)} maximal, planted A,B recovered",
    )


def test_frequent_mining_benchmark(benchmark):
    database = _quest()
    theory = benchmark(lambda: mine_frequent_itemsets(database, 0.08))
    assert theory.maximal


def test_key_discovery_benchmark(benchmark):
    relation = _relation()
    keys = benchmark(lambda: minimal_keys_via_agree_sets(relation))
    assert keys


def test_ind_mining_benchmark(benchmark):
    relation = _relation()
    fragment = Relation(
        ["u", "v"], [(row[0], row[1]) for row in relation.rows[:20]]
    )
    theory = benchmark(lambda: mine_inclusion_dependencies(fragment, relation))
    assert theory.maximal


def test_episode_mining_benchmark(benchmark):
    sequence = generate_event_sequence(
        "ABCD", 300, planted_episodes=[("A", "B")], injection_rate=0.3, seed=9
    )
    result = benchmark(
        lambda: mine_parallel_episodes(
            sequence, window_width=4, min_frequency=0.2, max_length=3
        )
    )
    assert result.interesting
