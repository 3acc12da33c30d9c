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

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.mining.levelwise": (
        "GenericLevelwiseResult",
        "LevelwiseResult",
        "levelwise",
        "levelwise_generic",
    ),
    "repro.mining.apriori": ("AprioriResult", "apriori"),
    "repro.mining.eclat": ("EclatResult", "eclat"),
    "repro.mining.dualize_advance": (
        "DualizeAdvanceIteration",
        "DualizeAdvanceResult",
        "dualize_and_advance",
    ),
    "repro.mining.maximalize": ("greedy_maximalize",),
    "repro.mining.maxminer": ("MaxMinerResult", "maxminer", "maxminer_maxth"),
    "repro.mining.bounds": (
        "corollary13_frequent_sets_bound",
        "corollary14_negative_border_bound",
        "theorem10_exact_query_count",
        "theorem12_levelwise_bound",
        "theorem21_dualize_advance_bound",
    ),
    "repro.mining.association_rules": (
        "AssociationRule",
        "association_rules_from_supports",
    ),
}
# Each of these four shares its name with a submodule, whose import
# would rebind the package attribute to the module.
__all__, __getattr__, __dir__ = lazy_exports(
    globals(), _EXPORTS, eager=("apriori", "eclat", "levelwise", "maxminer")
)
