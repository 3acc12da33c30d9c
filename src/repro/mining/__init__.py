"""The paper's mining algorithms and their bound calculators.

* :mod:`repro.mining.levelwise` — Algorithm 9, both the subset-lattice
  fast path and a generic-language version (used by episodes).
* :mod:`repro.mining.apriori` — the classic frequent-set specialization
  of levelwise with join-based candidate generation and vertical-bitmap
  support counting.
* :mod:`repro.mining.eclat` — the depth-first vertical counterpart
  (Eclat/dEclat): equivalence-class enumeration with memoized
  tidset/diffset covers, same theory and borders as levelwise.
* :mod:`repro.mining.dualize_advance` — Algorithm 16, engine-parametric
  over the transversal enumerator (Berge, Fredman–Khachiyan or MMCS);
  ``shuffle=seed`` gives the randomized advance of [11].
* :mod:`repro.mining.bounds` — closed forms of every quantitative bound
  (Theorems 10/12/21, Corollaries 13/14/22) so experiments can assert
  measured-vs-proven.
"""

from repro.mining.levelwise import (
    GenericLevelwiseResult,
    LevelwiseResult,
    levelwise,
    levelwise_generic,
)
from repro.mining.apriori import AprioriResult, apriori
from repro.mining.eclat import EclatResult, eclat
from repro.mining.dualize_advance import (
    DualizeAdvanceIteration,
    DualizeAdvanceResult,
    dualize_and_advance,
)
from repro.mining.maximalize import greedy_maximalize
from repro.mining.maxminer import MaxMinerResult, maxminer, maxminer_maxth
from repro.mining.bounds import (
    corollary13_frequent_sets_bound,
    corollary14_negative_border_bound,
    theorem10_exact_query_count,
    theorem12_levelwise_bound,
    theorem21_dualize_advance_bound,
)
from repro.mining.association_rules import (
    AssociationRule,
    association_rules_from_supports,
)

__all__ = [
    "GenericLevelwiseResult",
    "LevelwiseResult",
    "levelwise",
    "levelwise_generic",
    "AprioriResult",
    "apriori",
    "EclatResult",
    "eclat",
    "DualizeAdvanceIteration",
    "DualizeAdvanceResult",
    "dualize_and_advance",
    "greedy_maximalize",
    "MaxMinerResult",
    "maxminer",
    "maxminer_maxth",
    "corollary13_frequent_sets_bound",
    "corollary14_negative_border_bound",
    "theorem10_exact_query_count",
    "theorem12_levelwise_bound",
    "theorem21_dualize_advance_bound",
    "AssociationRule",
    "association_rules_from_supports",
]
