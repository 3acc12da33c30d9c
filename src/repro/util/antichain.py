"""Fast antichain kernels: one-shot reduction and an incremental index.

Every algorithm in this library bottoms out in the same two set-family
operations — keep the inclusion-*minimal* members (the ``min`` step of
Berge multiplication, Fredman–Khachiyan fusion, and ``Bd-`` upkeep) or
the inclusion-*maximal* members (``Bd+`` upkeep) — and the naive
``O(m²)`` pairwise-subset scan is exactly what melts down on the
``2^{n/2}``-sized intermediate families of the paper's Example 19.

This module is the kernel layer that the hot callers
(:mod:`repro.hypergraph.berge`, :mod:`repro.hypergraph.fredman_khachiyan`,
:mod:`repro.core.borders`, :mod:`repro.mining.maximalize`) are wired
onto.  Four engineering devices, all exact:

* **popcount bucketing** — after deduplication, two sets of equal
  cardinality can never strictly contain one another, so candidates are
  processed level by level and only ever subset-tested against strictly
  smaller kept sets.  Families whose members share one cardinality (the
  matching-family blow-up) reduce in near-linear time.
* **low-bit indexing** — a kept set ``K ⊆ X`` must have its lowest bit
  inside ``X``, so kept sets are filed under their lowest set bit and a
  candidate only scans the buckets of its own bits.
* **item bitmaps** — for maximization the dual index keeps, per item, a
  bitmap of the kept members holding it; a candidate is dominated iff
  the AND of its items' bitmaps is non-zero, so no member is scanned
  (:class:`DominanceIndex` is the same index over a fixed family).
* **signature prefiltering** — masks wider than one machine word are
  folded to a 64-bit signature (OR of their 64-bit chunks);
  ``sig(K) & ~sig(X) != 0`` disproves ``K ⊆ X`` without touching the
  big integers.

:class:`AntichainIndex` packages the same machinery incrementally:
``insert``-with-subsumption and ``covers(mask)`` queries, the access
pattern of a live Berge multiplication or an incremental-dualization
known-transversal family.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from repro.util.bitset import rank_sorted

_WORD = 0xFFFFFFFFFFFFFFFF


def _signature(mask: int) -> int:
    """Fold a mask into one 64-bit word; subset implies signature-subset."""
    if mask.bit_length() <= 64:
        return mask
    signature = 0
    while mask:
        signature |= mask & _WORD
        mask >>= 64
    return signature


class AntichainIndex:
    """An incrementally maintained antichain of inclusion-minimal masks.

    The index stores a family in which no mask contains another and
    answers two questions fast:

    * :meth:`covers` — is some stored mask a subset of a query mask?
      (equivalently: would the query be redundant in a minimal family);
    * :meth:`add` — insert with subsumption: refuse masks that are
      covered, evict stored masks the new one is a subset of.

    Internally masks are filed under their lowest set bit, so a cover
    query touches only the buckets of the query's own bits; each bucket
    carries a parallel list of 64-bit signatures once any stored mask is
    wider than one word.  A popcount histogram lets :meth:`add` skip the
    eviction scan whenever nothing larger than the new mask is stored —
    the common case when insertions arrive in cardinality order.

    Args:
        masks: optional initial family.
        assume_antichain: when true the initial family is trusted to be
            an antichain (and non-empty masks) and loaded without checks;
            the default routes every mask through :meth:`add`.
    """

    __slots__ = ("_by_low", "_sigs", "_pc_hist", "_n", "_wide", "_has_zero")

    def __init__(
        self, masks: Iterable[int] = (), *, assume_antichain: bool = False
    ):
        self._by_low: dict[int, list[int]] = {}
        self._sigs: dict[int, list[int]] = {}
        self._pc_hist: dict[int, int] = {}
        self._n = 0
        self._wide = False
        self._has_zero = False
        if assume_antichain:
            for mask in masks:
                self.add_unchecked(mask)
        else:
            for mask in masks:
                self.add(mask)

    # -- size / iteration --------------------------------------------------

    def __len__(self) -> int:
        return self._n + (1 if self._has_zero else 0)

    def __iter__(self) -> Iterator[int]:
        if self._has_zero:
            yield 0
        for bucket in self._by_low.values():
            yield from bucket

    def __contains__(self, mask: int) -> bool:
        if mask == 0:
            return self._has_zero
        bucket = self._by_low.get(mask & -mask)
        return bucket is not None and mask in bucket

    def sorted_masks(self) -> list[int]:
        """The stored antichain sorted by (cardinality, value)."""
        return rank_sorted(self)

    # -- queries -----------------------------------------------------------

    def covers(self, mask: int, *, proper: bool = False) -> bool:
        """True when some stored mask is a subset of ``mask``.

        With ``proper=True`` only *strict* subsets count, so a mask that
        is itself stored is not covered by its own copy — the distinction
        that keeps duplicate handling exact when merging antichains.
        """
        if self._has_zero:
            if not proper or mask != 0:
                return True
        if self._n == 0:
            return False
        by_low = self._by_low
        if self._wide:
            not_sig = ~_signature(mask)
            sigs = self._sigs
            remaining = mask
            while remaining:
                low = remaining & -remaining
                bucket = by_low.get(low)
                if bucket is not None:
                    bucket_sigs = sigs[low]
                    for position, kept_sig in enumerate(bucket_sigs):
                        if kept_sig & not_sig:
                            continue
                        kept = bucket[position]
                        if kept & mask == kept and (
                            not proper or kept != mask
                        ):
                            return True
                remaining ^= low
            return False
        remaining = mask
        while remaining:
            low = remaining & -remaining
            bucket = by_low.get(low)
            if bucket is not None:
                for kept in bucket:
                    if kept & mask == kept and (not proper or kept != mask):
                        return True
            remaining ^= low
        return False

    # -- mutation ----------------------------------------------------------

    def add_unchecked(self, mask: int) -> None:
        """File a mask without cover/eviction checks.

        The caller guarantees the stored family stays an antichain —
        e.g. masks of one cardinality that already passed :meth:`covers`,
        or a pre-minimized seed family.
        """
        if mask == 0:
            self._has_zero = True
            return
        low = mask & -mask
        bucket = self._by_low.get(low)
        if bucket is None:
            bucket = self._by_low[low] = []
            self._sigs[low] = []
        bucket.append(mask)
        if not self._wide and mask.bit_length() > 64:
            self._widen()  # recomputes every bucket, including this mask
        elif self._wide:
            self._sigs[low].append(_signature(mask))
        cardinality = mask.bit_count()
        self._pc_hist[cardinality] = self._pc_hist.get(cardinality, 0) + 1
        self._n += 1

    def _widen(self) -> None:
        """Switch to signature-prefiltered buckets (first wide mask seen)."""
        self._wide = True
        for low, bucket in self._by_low.items():
            self._sigs[low] = [_signature(kept) for kept in bucket]

    def add(self, mask: int) -> bool:
        """Insert with subsumption; returns whether the mask was kept.

        A covered mask (some stored subset, including an identical copy)
        is refused; otherwise stored strict supersets are evicted first.
        """
        if self.covers(mask):
            return False
        if mask == 0:
            # The empty set covers everything: it becomes the sole member.
            self._clear_nonzero()
            self._has_zero = True
            return True
        cardinality = mask.bit_count()
        if any(pc > cardinality and count for pc, count in self._pc_hist.items()):
            doomed = [
                kept for kept in self if kept != mask and kept & mask == mask
            ]
            for kept in doomed:
                self.discard(kept)
        self.add_unchecked(mask)
        return True

    def discard(self, mask: int) -> bool:
        """Remove one stored mask; returns whether it was present."""
        if mask == 0:
            present = self._has_zero
            self._has_zero = False
            return present
        low = mask & -mask
        bucket = self._by_low.get(low)
        if bucket is None:
            return False
        try:
            position = bucket.index(mask)
        except ValueError:
            return False
        bucket.pop(position)
        if self._wide:
            self._sigs[low].pop(position)
        self._forget(mask, low, bucket)
        return True

    def discard_many(self, dead: set[int]) -> None:
        """Bulk removal in one pass per bucket (mass turnover, e.g. the
        non-hitters of a Berge multiplication step)."""
        if not dead:
            return
        if 0 in dead:
            self._has_zero = False
        for low in list(self._by_low):
            bucket = self._by_low[low]
            if not any(kept in dead for kept in bucket):
                continue
            survivors = [kept for kept in bucket if kept not in dead]
            removed = [kept for kept in bucket if kept in dead]
            self._by_low[low] = survivors
            if self._wide:
                self._sigs[low] = [_signature(kept) for kept in survivors]
            for kept in removed:
                cardinality = kept.bit_count()
                self._pc_hist[cardinality] -= 1
                self._n -= 1
            if not survivors:
                del self._by_low[low]
                del self._sigs[low]

    def _forget(self, mask: int, low: int, bucket: list[int]) -> None:
        cardinality = mask.bit_count()
        self._pc_hist[cardinality] -= 1
        self._n -= 1
        if not bucket:
            del self._by_low[low]
            del self._sigs[low]

    def _clear_nonzero(self) -> None:
        self._by_low.clear()
        self._sigs.clear()
        self._pc_hist.clear()
        self._n = 0


def minimize_masks(masks: Iterable[int]) -> list[int]:
    """Inclusion-minimal members of a family, sorted by (cardinality, value).

    Exact replacement for the quadratic reference kernel: deduplicate,
    bucket by popcount, and subset-test each level only against the
    strictly smaller survivors through an :class:`AntichainIndex`.
    Sets within one level are never compared (equal cardinality + distinct
    ⇒ incomparable), which is what collapses the Example 19 worst case.
    """
    unique = rank_sorted(set(masks))
    if not unique:
        return []
    if unique[0] == 0:
        return [0]
    total = len(unique)
    if total == 1:
        return unique
    kept: list[int] = []
    index = AntichainIndex()
    position = 0
    while position < total:
        cardinality = unique[position].bit_count()
        level_end = position
        survivors: list[int] = []
        while (
            level_end < total
            and unique[level_end].bit_count() == cardinality
        ):
            candidate = unique[level_end]
            if not index.covers(candidate):
                survivors.append(candidate)
            level_end += 1
        kept.extend(survivors)
        if level_end < total:
            for mask in survivors:
                index.add_unchecked(mask)
        position = level_end
    return kept


def maximize_masks(masks: Iterable[int]) -> list[int]:
    """Inclusion-maximal members, sorted by (-cardinality, value).

    Dual of :func:`minimize_masks`, over :class:`DominanceIndex`'s
    per-item bitmaps: ``containing[item]`` has bit ``i`` set when kept
    member ``i`` holds the item, so a candidate is dominated iff the
    AND of its items' bitmaps is non-zero, and the first empty AND
    clears it.  No kept member is scanned.  A level's survivors are
    indexed once the level ends, since members of one cardinality
    never contain each other.
    """
    unique = sorted(set(masks))
    # Stable, so members of one cardinality keep their value order.
    unique.sort(key=int.bit_count, reverse=True)
    total = len(unique)
    if total <= 1:
        return unique
    kept: list[int] = []
    containing: dict[int, int] = {}
    position = 0
    while position < total:
        cardinality = unique[position].bit_count()
        level_end = position
        survivors: list[int] = []
        while (
            level_end < total
            and unique[level_end].bit_count() == cardinality
        ):
            candidate = unique[level_end]
            if cardinality == 0:
                # The empty set is dominated by anything already kept.
                if not kept:
                    survivors.append(candidate)
            elif not _containing(containing, candidate, -1):
                survivors.append(candidate)
            level_end += 1
        if level_end < total and survivors:
            offset = len(kept)
            for low, bitmap in _item_bitmaps(survivors).items():
                containing[low] = containing.get(low, 0) | bitmap << offset
        kept.extend(survivors)
        position = level_end
    return kept


def _containing(bitmaps: dict[int, int], mask: int, common: int) -> int:
    """``common`` ANDed with the item bitmaps of ``mask``'s items,
    stopping at the first empty AND: the indexed members containing
    ``mask``."""
    remaining = mask
    while remaining:
        low = remaining & -remaining
        common &= bitmaps.get(low, 0)
        if not common:
            return 0
        remaining ^= low
    return common


#: ``_BIT_DIGITS[j]`` translates a byte to the ASCII digit of its bit
#: ``j`` (``b"0"`` or ``b"1"``).
_BIT_DIGITS = tuple(
    bytes(48 | byte >> j & 1 for byte in range(256)) for j in range(8)
)


def _item_bitmaps(masks: Sequence[int]) -> dict[int, int]:
    """Map each item bit set in some mask to the bitmap of the
    positions of the masks holding it, ascending by item.

    The transpose runs in C: every mask is packed into ``width`` bytes,
    last mask first and most significant byte first, so one strided
    slice lists byte ``k`` of every mask in the digit order
    ``int(..., 2)`` reads, and one ``translate`` per item turns the
    slice into that item's binary digits.  Python touches each mask
    once, not each of its bits.
    """
    union = 0
    for mask in masks:
        union |= mask
    if not union:
        return {}
    width = (union.bit_length() + 7) >> 3
    packed = b"".join(
        [mask.to_bytes(width, "big") for mask in reversed(masks)]
    )
    bitmaps: dict[int, int] = {}
    for byte in range(width):
        byte_items = union >> 8 * byte & 0xFF
        if not byte_items:
            continue
        lane = packed[width - 1 - byte :: width]
        for bit in range(8):
            if byte_items >> bit & 1:
                bitmaps[1 << 8 * byte + bit] = int(
                    lane.translate(_BIT_DIGITS[bit]), 2
                )
    return bitmaps


class DominanceIndex:
    """A fixed family, indexed by bit: which members contain each item.

    Each item maps to a bitmap over the member positions (bit ``i`` is
    ``masks[i]``) that contain it, so :meth:`containing` — which members
    contain ``mask``? — is the AND of the bitmaps of ``mask``'s items,
    stopping at the first empty one, with no member scanned.
    :meth:`MaximalFamilyTracker.dominates` instead walks its complement
    index, whose buckets fill up on a wide family.

    Args:
        masks: the family (duplicates and non-maximal members allowed).
    """

    __slots__ = ("_members", "_all")

    def __init__(self, masks: Iterable[int]):
        masks = list(masks)
        self._members = _item_bitmaps(masks)
        self._all = (1 << len(masks)) - 1

    def containing(self, mask: int) -> int:
        """Bitmap of the member positions whose mask contains ``mask``
        (every member for ``mask == 0``)."""
        return _containing(self._members, mask, self._all)

    def dominates(self, mask: int) -> bool:
        """True when ``mask`` is a subset of some member."""
        return self.containing(mask) != 0


_NAIVE_MERGE_CUTOFF = 1024


def merge_antichains(a: list[int], b: list[int]) -> list[int]:
    """``min(a ∪ b)`` of two families that are each already antichains.

    Only cross-family subsumption is possible, so the work is the two
    directed scans instead of a full re-minimization — the ``g0 ∨ g1``
    fusion step of the Fredman–Khachiyan recursion.  Equal masks present
    in both families are kept exactly once.  Output order matches
    :func:`minimize_masks`.
    """
    if not a or not b:
        return rank_sorted(a or b)
    if len(a) * len(b) <= _NAIVE_MERGE_CUTOFF:
        keep_a = [
            mask
            for mask in a
            if not any(other & mask == other for other in b)
        ]
        keep_b = [
            mask
            for mask in b
            if not any(
                other & mask == other and other != mask for other in a
            )
        ]
        return rank_sorted(keep_a + keep_b)
    index_a = AntichainIndex(a, assume_antichain=True)
    index_b = AntichainIndex(b, assume_antichain=True)
    keep_a = [mask for mask in a if not index_b.covers(mask)]
    keep_b = [mask for mask in b if not index_a.covers(mask, proper=True)]
    return rank_sorted(keep_a + keep_b)


class MaximalFamilyTracker:
    """Live ``Bd+`` maintenance: the maximal antichain of sets seen so far.

    The dual view of :class:`AntichainIndex` — internally each set is
    stored as its complement within the fixed universe, turning superset
    subsumption into the index's native subset subsumption.  Used by
    search-style miners (MaxMiner's ``covered`` pruning, greedy
    maximalization consumers) to keep the discovered maximal family tight
    without quadratic rescans.

    Args:
        full_mask: the universe mask complements are taken against.
        masks: optional initial family.
    """

    __slots__ = ("full_mask", "_index")

    def __init__(self, full_mask: int, masks: Iterable[int] = ()):
        self.full_mask = full_mask
        self._index = AntichainIndex()
        for mask in masks:
            self.add(mask)

    def __len__(self) -> int:
        return len(self._index)

    def __iter__(self) -> Iterator[int]:
        full = self.full_mask
        for complement in self._index:
            yield full & ~complement

    def __contains__(self, mask: int) -> bool:
        return (self.full_mask & ~mask) in self._index

    def add(self, mask: int) -> bool:
        """Insert with subsumption; returns whether the set was kept.

        A set already below some tracked set is refused; tracked sets
        below the new one are evicted.
        """
        if mask & ~self.full_mask:
            raise ValueError("mask uses vertices outside the universe")
        return self._index.add(self.full_mask & ~mask)

    def dominates(self, mask: int) -> bool:
        """True when ``mask`` is a subset of some tracked set."""
        return self._index.covers(self.full_mask & ~mask)

    def masks(self) -> list[int]:
        """The tracked maximal family sorted by (cardinality, value)."""
        return rank_sorted(self)
