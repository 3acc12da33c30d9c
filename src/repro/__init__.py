"""repro — reproduction of *Data Mining, Hypergraph Transversals, and
Machine Learning* (Gunopulos, Mannila, Khardon, Toivonen; PODS 1997).

The library implements the paper's framework end to end:

* **Framework** (:mod:`repro.core`): theories ``Th(L, r, q)``, borders,
  representation as sets, counting ``Is-interesting`` oracles, and the
  query-optimal verification of Corollary 4.
* **Algorithms** (:mod:`repro.mining`): the levelwise algorithm
  (Algorithm 9, with the Apriori specialization) and Dualize and Advance
  (Algorithm 16, with Berge or Fredman–Khachiyan transversal engines
  and the shuffled advance of [11]), plus every quantitative bound.
* **Hypergraph dualization** (:mod:`repro.hypergraph`): Berge
  multiplication, the Fredman–Khachiyan duality test with witness-driven
  incremental enumeration, and the paper's new polynomial special case
  (Corollary 15).
* **Learning** (:mod:`repro.learning` / :mod:`repro.boolean`): the exact
  learner for monotone Boolean functions with membership queries via the
  mining correspondence (Theorem 24, Corollaries 26–29).
* **Instances** (:mod:`repro.instances`): frequent itemsets and
  association rules, keys and functional dependencies (oracle and
  agree-set routes), inclusion dependencies, and episodes (including the
  demonstration that episodes are *not* representable as sets).
* **Data** (:mod:`repro.datasets`): transaction databases with FIMI
  I/O, a Quest-style basket generator, planted-theory oracles, relation
  and event-sequence generators.

Quickstart::

    from repro import TransactionDatabase, mine_frequent_itemsets

    db = TransactionDatabase.from_transactions(
        [{"A", "B", "C"}, {"B", "D"}, {"A", "B", "C"}, {"B", "D"}])
    theory = mine_frequent_itemsets(db, min_support=2)
    print(theory.maximal_sets())   # maximal frequent itemsets
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "repro.core.oracle": ("CountingOracle",),
    "repro.core.errors": ("MonotonicityError", "RepresentationError"),
    "repro.core.language": ("SetLanguage",),
    "repro.core.theory": ("Theory",),
    "repro.core.verification": ("verify_maxth",),
    "repro.boolean.monotone": ("MonotoneCNF", "MonotoneDNF"),
    "repro.boolean.dualization": ("dnf_to_cnf", "dual_dnf"),
    "repro.datasets.planted": ("PlantedTheory",),
    "repro.datasets.transactions": ("TransactionDatabase",),
    "repro.datasets.synthetic": ("generate_quest_database",),
    "repro.datasets.fimi": ("read_fimi", "write_fimi"),
    "repro.hypergraph.hypergraph": ("Hypergraph",),
    "repro.hypergraph.enumeration": ("minimal_transversals",),
    "repro.instances.frequent_itemsets": ("mine_frequent_itemsets",),
    "repro.instances.inclusion_dependencies": (
        "mine_inclusion_dependencies",
    ),
    "repro.instances.functional_dependencies": (
        "mine_minimal_keys",
        "minimal_keys_via_agree_sets",
    ),
    "repro.instances.episodes": ("mine_parallel_episodes",),
    "repro.learning.oracles": ("MembershipOracle",),
    "repro.learning.exact": ("learn_monotone_function",),
    "repro.learning.levelwise_learner": ("learn_short_complement_cnf",),
    "repro.mining.apriori": ("apriori",),
    "repro.mining.association_rules": ("association_rules_from_supports",),
    "repro.mining.dualize_advance": ("dualize_and_advance",),
    "repro.mining.levelwise": ("levelwise",),
    "repro.util.bitset": ("Universe",),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
__all__.append("__version__")
