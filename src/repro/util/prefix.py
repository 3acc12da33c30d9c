"""Prefix-bucketed candidate generation (step 5 of Algorithm 9).

Both the subset-lattice levelwise walk and Apriori generate rank-``l+1``
candidates from the rank-``l`` survivors the same way: extend each mask
with every item above its top bit, deduplicate, and keep the extension
only when *all* its immediate generalizations survived.  The seed
implementation scanned ``range(top_bit, n)`` per mask — ``O(|F_l|·n)``
set probes before pruning ever starts.

:func:`prefix_join_candidates` is the classic Apriori-gen join realized
on bitmasks: bucket the level by the mask-minus-top-bit *prefix*; two
masks join exactly when they share a bucket, and the joined candidate is
``prefix | top_i | top_j``.  Every candidate whose two largest-item
parents survived is produced exactly once (the pair of top bits is
determined by the candidate), so the ``seen``-set and the ``n``-wide
scan both disappear; the remaining immediate generalizations are then
probed as before.  The output is **bit-identical** to the seed
generator — same candidate set, same sorted order — which is what keeps
Theorem 10 accounting, checkpoints, and the parallel determinism
contract untouched (property-tested in ``tests/test_util_prefix.py``).

:func:`parents_all_in` is the shared immediate-generalization check that
previously existed twice (``_parents_all_interesting`` in levelwise,
``_subsets_frequent`` in Apriori); the Eclat engine reuses it to filter
its rejected sets down to the true negative border.
"""

from __future__ import annotations

from collections.abc import Container, Iterable

__all__ = ["parents_all_in", "prefix_join_candidates"]


def parents_all_in(mask: int, family: Container[int]) -> bool:
    """True when every immediate generalization of ``mask`` is in ``family``.

    The immediate generalizations of a rank-``l`` mask are its ``l``
    subsets of rank ``l-1`` (drop one bit).  The empty mask has no
    generalizations, so it passes vacuously.
    """
    remaining = mask
    while remaining:
        low = remaining & -remaining
        if (mask & ~low) not in family:
            return False
        remaining ^= low
    return True


def prefix_join_candidates(
    level_masks: Iterable[int], n: int, known: set[int] | None = None
) -> list[int]:
    """Rank-``l+1`` candidates from the rank-``l`` survivors, by prefix join.

    Args:
        level_masks: the surviving masks of one level.  All masks must
            have the same popcount (levels are graded by rank; this is
            the only shape the algorithms produce).
        n: universe width — only consulted for the rank-0 level
            ``[0]``, whose children are all ``n`` singletons (a join
            needs two parents, the empty set has none).
        known: the membership set probed by the prune step.  Defaults to
            ``set(level_masks)``; levelwise passes its full interesting
            set instead, which is equivalent because the immediate
            generalizations of a rank-``l+1`` mask all have rank ``l``.

    Returns:
        The pruned candidate list in ascending numeric order — exactly
        the list the seed ``O(|F_l|·n)`` generator returned.
    """
    if known is None:
        known = set(level_masks)
    buckets: dict[int, list[int]] = {}
    for mask in level_masks:
        if mask == 0:
            # Rank-0 level: every singleton is a child of ∅ and its only
            # immediate generalization is ∅ itself.
            return [1 << i for i in range(n)] if 0 in known else []
        top = 1 << (mask.bit_length() - 1)
        bucket = buckets.get(mask ^ top)
        if bucket is None:
            buckets[mask ^ top] = [top]
        else:
            bucket.append(top)
    candidates: list[int] = []
    for prefix, tops in buckets.items():
        if len(tops) < 2:
            continue
        tops = sorted(set(tops))
        # The two generating parents (drop high_top, drop low_top) are
        # in the level by bucket construction; only the prefix-bit
        # removals remain to be probed.  Filtering the whole pair batch
        # one prefix bit at a time performs exactly the probes a
        # short-circuiting per-pair scan would (a pair drops out at its
        # first missing parent) but keeps the inner loop in a list
        # comprehension.
        pairs: list[int] = []
        for i, low_top in enumerate(tops):
            base = prefix | low_top
            pairs.extend([base | high_top for high_top in tops[i + 1 :]])
        remaining = prefix
        while remaining and pairs:
            low = remaining & -remaining
            pairs = [mask for mask in pairs if mask ^ low in known]
            remaining ^= low
        candidates.extend(pairs)
    candidates.sort()
    return candidates
