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

from repro.core import (
    CountingOracle,
    MonotonicityError,
    RepresentationError,
    SetLanguage,
    Theory,
    verify_maxth,
)
from repro.boolean import MonotoneCNF, MonotoneDNF, dnf_to_cnf, dual_dnf
from repro.datasets import (
    PlantedTheory,
    TransactionDatabase,
    generate_quest_database,
    read_fimi,
    write_fimi,
)
from repro.hypergraph import Hypergraph, minimal_transversals
from repro.instances import (
    mine_frequent_itemsets,
    mine_inclusion_dependencies,
    mine_minimal_keys,
    mine_parallel_episodes,
    minimal_keys_via_agree_sets,
)
from repro.learning import (
    MembershipOracle,
    learn_monotone_function,
    learn_short_complement_cnf,
)
from repro.mining import (
    apriori,
    association_rules_from_supports,
    dualize_and_advance,
    levelwise,
)
from repro.util import Universe

__version__ = "1.0.0"

__all__ = [
    "CountingOracle",
    "MonotonicityError",
    "RepresentationError",
    "SetLanguage",
    "Theory",
    "verify_maxth",
    "MonotoneCNF",
    "MonotoneDNF",
    "dnf_to_cnf",
    "dual_dnf",
    "PlantedTheory",
    "TransactionDatabase",
    "generate_quest_database",
    "read_fimi",
    "write_fimi",
    "Hypergraph",
    "minimal_transversals",
    "mine_frequent_itemsets",
    "mine_inclusion_dependencies",
    "mine_minimal_keys",
    "mine_parallel_episodes",
    "minimal_keys_via_agree_sets",
    "MembershipOracle",
    "learn_monotone_function",
    "learn_short_complement_cnf",
    "apriori",
    "association_rules_from_supports",
    "dualize_and_advance",
    "levelwise",
    "Universe",
    "__version__",
]
