"""Low-level utilities shared by every subsystem.

The public surface is re-exported here so that callers can write
``from repro.util import Universe, popcount`` without caring about the
internal module layout.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.util.antichain": (
        "AntichainIndex",
        "MaximalFamilyTracker",
        "maximize_masks",
        "merge_antichains",
        "minimize_masks",
    ),
    "repro.util.bitset": (
        "Universe",
        "iter_bits",
        "iter_submasks",
        "lowest_bit",
        "mask_of_indices",
        "popcount",
        "rank_sorted",
    ),
    "repro.util.prefix": ("parents_all_in", "prefix_join_candidates"),
    "repro.util.combinatorics": (
        "binomial",
        "iter_subsets",
        "iter_subsets_of_size",
        "powerset_size",
        "sum_binomials",
    ),
    "repro.util.rng": ("make_rng",),
    "repro.util.stats": ("RunningStats", "geometric_mean"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
