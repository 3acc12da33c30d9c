"""Low-level utilities shared by every subsystem.

The public surface is re-exported here so that callers can write
``from repro.util import Universe, popcount`` without caring about the
internal module layout.
"""

from repro.util.antichain import (
    AntichainIndex,
    MaximalFamilyTracker,
    maximize_masks,
    merge_antichains,
    minimize_masks,
)
from repro.util.bitset import (
    Universe,
    iter_bits,
    iter_submasks,
    lowest_bit,
    mask_of_indices,
    popcount,
    rank_sorted,
)
from repro.util.prefix import parents_all_in, prefix_join_candidates
from repro.util.combinatorics import (
    binomial,
    iter_subsets,
    iter_subsets_of_size,
    powerset_size,
    sum_binomials,
)
from repro.util.rng import make_rng
from repro.util.stats import RunningStats, geometric_mean

__all__ = [
    "AntichainIndex",
    "MaximalFamilyTracker",
    "maximize_masks",
    "merge_antichains",
    "minimize_masks",
    "Universe",
    "iter_bits",
    "iter_submasks",
    "lowest_bit",
    "mask_of_indices",
    "popcount",
    "rank_sorted",
    "parents_all_in",
    "prefix_join_candidates",
    "binomial",
    "iter_subsets",
    "iter_subsets_of_size",
    "powerset_size",
    "sum_binomials",
    "make_rng",
    "RunningStats",
    "geometric_mean",
]
