"""A support table: ``Th ∪ Bd-`` at one floor, read at any threshold above it.

By Theorem 2 and Corollary 4 the supports of ``Th ∪ Bd-`` at a floor
``c`` certify the theory at every threshold ``θ ≥ c``: a set whose
parents are all frequent at ``θ`` has them frequent at ``c`` too, so it
lies in the table.  Each border is then a comparison per member, with
two supports derived once per table version — the smallest support of
the member's parents and the largest support of its one-item
extensions in the table (an extension outside the table is infrequent
at the floor, so below ``θ``):

* ``Th(θ)``:  ``s ≥ θ``;
* ``Bd+(θ)``: ``s ≥ θ >`` the largest extension support;
* ``Bd-(θ)``: ``s < θ ≤`` the smallest parent support (``∅`` has no
  parents, so it joins ``Bd-`` exactly when the database has fewer
  than ``θ`` rows).

The table is flat numpy arrays in the canonical (cardinality, value)
order, so every family it reads comes out canonical.  Masks are
``uint64`` when the universe fits a machine word and Python ints in an
object array otherwise (the same arithmetic, one element at a time).

Rows appended to the database after the table was counted are folded
in by :meth:`SupportTable.sync`, which may also lower the floor: one
delta count of those rows against every member, then the closure above
the members that crossed the floor — the service's border repair
(:mod:`repro.service.incremental` runs every update through it).
:meth:`SupportTable.rebase` raises the floor to a threshold already
read, which drops every member outside ``Th ∪ Bd-`` there, so a table
re-based to a relative threshold does not grow with the data.

What a table costs follows its members' rank and the delta's size, not
the universe's width.  The derived supports and the closure's parent
check peel each mask's bits, lowest first, one numpy pass per bit
position: as many passes as the largest rank, each finding the parent
that drops that bit by binary search.  The delta count of a few
appended rows tests each row against every member
(:meth:`~repro.datasets.transactions.TransactionDatabase.word_support_counts`).
Only the closure's candidates, one-item extensions of the members that
crossed the floor, are generated per item.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from itertools import chain
from typing import NamedTuple

__all__ = ["SupportTable", "TableRead"]


class TableRead(NamedTuple):
    """The theory at one threshold, as read from a table: numpy arrays
    in canonical order, for the caller to convert what it uses
    (``maximal`` is ``None`` for a read that left ``Bd+`` out)."""

    theory: object
    theory_supports: object
    maximal: object
    negative: object
    negative_supports: object


def _popcounts(masks):
    import numpy as np

    if masks.dtype == object:
        return np.frompyfunc(int.bit_count, 1, 1)(masks).astype(np.int64)
    return np.bitwise_count(masks)


class SupportTable:
    """``Th ∪ Bd-`` of a database prefix at ``floor``, with supports.

    Args:
        n_items: the universe width (``uint64`` masks up to 64).
        supports: the support of every ``Th`` member.
        negative: the ``Bd-`` members.
        negative_supports: their supports, aligned.
        floor: the threshold ``Th`` and ``Bd-`` are taken at.
        n_rows: the database rows the supports count.

    Attributes:
        floor: the absolute threshold the table is complete at.
        n_rows: the database rows its supports count.
        masks: the members, canonical order (numpy ``uint64`` or
            object array).
        supports: their supports (numpy ``int64``), aligned.

    Members and supports live in buffers allocated with a sixteenth of
    spare room and rewritten in place by :meth:`sync` and
    :meth:`rebase` (``masks`` and ``supports`` are views); a caller
    sharing a table it mutates serializes those calls with its reads.
    A table nobody mutates may be read from any number of threads: the
    two derived supports are computed on the first read into arrays of
    their own and published in one assignment, so a reader sees either
    none or a complete pair.
    """

    __slots__ = (
        "floor", "n_rows", "_size", "_masks", "_supports", "_derived",
        "_bits",
    )

    def __init__(
        self,
        n_items: int,
        supports: Mapping[int, int],
        negative: Sequence[int],
        negative_supports: Sequence[int],
        floor: int,
        n_rows: int,
    ):
        import numpy as np

        dtype = np.uint64 if n_items <= 64 else object
        size = len(supports) + len(negative)
        masks = np.fromiter(chain(supports, negative), dtype, size)
        counts = np.fromiter(
            chain(supports.values(), negative_supports), np.int64, size
        )
        order = np.lexsort((masks, _popcounts(masks)))
        capacity = size + size // 16
        self._masks = np.empty(capacity, dtype=dtype)
        self._supports = np.empty(capacity, dtype=np.int64)
        np.take(masks, order, out=self._masks[:size])
        np.take(counts, order, out=self._supports[:size])
        self._derived = None
        self._size = size
        self.floor = floor
        self.n_rows = n_rows
        self._bits = np.array([1 << i for i in range(n_items)], dtype=dtype)

    @property
    def masks(self):
        return self._masks[: self._size]

    @property
    def supports(self):
        return self._supports[: self._size]

    def _append(self, masks, supports) -> None:
        """Add members at the end (growing the buffers by a sixteenth
        when they are full); the derived supports go stale."""
        import numpy as np

        size = self._size + len(masks)
        if size > len(self._masks):
            capacity = size + size // 16
            for name in ("_masks", "_supports"):
                old = getattr(self, name)
                new = np.empty(capacity, dtype=old.dtype)
                new[: self._size] = old[: self._size]
                setattr(self, name, new)
        self._masks[self._size : size] = masks
        self._supports[self._size : size] = supports
        self._size = size
        self._derived = None

    def _finder(self):
        """``support_of(queries)``: each query mask's support, ``-1``
        where it is no member (for the table as it is now)."""
        import numpy as np

        order = np.argsort(self.masks, kind="stable")
        ordered = self.masks[order]
        supports = self.supports
        last = len(ordered) - 1

        def support_of(queries):
            at = np.minimum(np.searchsorted(ordered, queries), last)
            return np.where(ordered[at] == queries, supports[order[at]], -1)

        return support_of

    def _derive(self):
        """``(smallest parent support, largest extension support)`` per
        member, computed once per table version."""
        import numpy as np

        derived = self._derived
        if derived is not None:
            return derived
        masks, supports = self.masks, self.supports
        order = np.argsort(masks, kind="stable")
        ordered = masks[order]
        min_parent = np.full(self._size, np.iinfo(np.int64).max)
        max_extension = np.full(self._size, -1)
        # Pass j peels the j-th lowest bit of every member of rank at
        # least j: a suffix of the canonical order.  Every parent of a
        # member is a member: Th is downward closed and each Bd-
        # member's parents lie in Th.
        ranks = _popcounts(masks)
        starts = np.searchsorted(ranks, range(1, ranks.max(initial=0) + 1))
        rest = masks.copy()
        for start in starts:
            peeled = rest[start:]
            low = peeled & -peeled
            peeled ^= low
            parents = order[np.searchsorted(ordered, masks[start:] ^ low)]
            np.minimum(
                min_parent[start:], supports[parents], out=min_parent[start:]
            )
            np.maximum.at(max_extension, parents, supports[start:])
        # One assignment: a concurrent reader sees no pair or this one.
        derived = self._derived = (min_parent, max_extension)
        return derived

    def _select(self, threshold: int, maximal: bool = True):
        """Boolean masks of ``Th``, ``Bd+`` (``None`` unless
        ``maximal``) and ``Bd-`` at ``threshold``.  At the floor itself
        ``Bd-`` is every infrequent member, so only ``Bd+`` needs the
        derived supports there."""
        if threshold < self.floor:
            raise ValueError(
                f"threshold {threshold} is below the table's floor "
                f"{self.floor}"
            )
        frequent = self.supports >= threshold
        if not maximal and threshold == self.floor:
            return frequent, None, ~frequent
        min_parent, max_extension = self._derive()
        return (
            frequent,
            frequent & (max_extension < threshold) if maximal else None,
            ~frequent & (min_parent >= threshold),
        )

    def read(self, threshold: int, maximal: bool = True) -> TableRead:
        """``Th``, ``Bd+`` and ``Bd-`` at ``threshold >= floor``, with
        the supports of ``Th`` and ``Bd-``, by comparison alone.  With
        ``maximal=False`` the read leaves ``Bd+`` out (``None``), and a
        read at the floor then derives nothing."""
        frequent, positive, negative = self._select(threshold, maximal)
        masks, supports = self.masks, self.supports
        return TableRead(
            masks[frequent],
            supports[frequent],
            None if positive is None else masks[positive],
            masks[negative],
            supports[negative],
        )

    def rebase(self, threshold: int) -> None:
        """Raise the floor to ``threshold``: keep ``Th ∪ Bd-`` there.

        The derived supports are dropped with the rest of the old
        version; the next read derives them again.
        """
        if threshold <= self.floor:
            return
        frequent, _, negative = self._select(threshold, maximal=False)
        keep = frequent | negative
        size = int(keep.sum())
        self._masks[:size] = self.masks[keep]
        self._supports[:size] = self.supports[keep]
        self._derived = None
        self._size = size
        self.floor = threshold

    def sync(self, database, floor: int | None = None, charge=None) -> int:
        """Bring the table to ``database`` and, when given, down to a
        lower ``floor``: count the rows appended since the table was
        counted, then close it above the members that crossed the floor.

        ``database`` must extend the rows the table counted (the
        service's databases only ever append).  Each closure candidate
        — a non-member whose parents are all frequent at the floor —
        is counted once on the full database; ``charge(n)``, when
        given, hears of each breadth-first level's ``n`` candidates
        before they are counted and may raise to stop the closure.

        Returns:
            how many members crossed the floor: the ``Bd-`` members
            that became frequent.
        """
        n_rows = database.n_transactions
        if n_rows < self.n_rows:
            raise ValueError(
                f"the table counted {self.n_rows} rows; the database "
                f"holds {n_rows}"
            )
        old_floor = self.floor
        if floor is None:
            floor = old_floor
        elif floor > old_floor:
            raise ValueError(
                f"sync lowers the floor {old_floor}; {floor} needs rebase"
            )
        supports = self.supports
        below = supports < old_floor
        if n_rows > self.n_rows:
            delta = database.tail(self.n_rows)
            if self._masks.dtype == object:
                supports += delta.support_counts(self.masks.tolist())
            else:
                supports += delta.word_support_counts(self.masks)
            self.n_rows = n_rows
            self._derived = None
        self.floor = floor
        crossed = self.masks[below & (supports >= floor)]
        if len(crossed):
            self._close(database, crossed, charge)
        return len(crossed)

    def _close(self, database, frontier, charge) -> None:
        """Add every set above ``frontier`` whose parents are all
        frequent at the floor, breadth first, then restore the
        canonical order."""
        import numpy as np

        floor = self.floor
        bits = self._bits
        count = database.support_count
        while len(frontier):
            support_of = self._finder()
            candidates = np.sort((frontier[:, None] | bits[None, :]).ravel())
            # Deduplicate and drop members (each parent among them).
            fresh = support_of(candidates) < 0
            fresh[1:] &= candidates[1:] != candidates[:-1]
            candidates = candidates[fresh]
            # Peel each candidate's bits, lowest first, and drop it at
            # its first parent below the floor.
            alive = np.arange(len(candidates))
            rest = candidates.copy()
            while len(alive):
                peeled = rest[alive]
                low = peeled & -peeled
                kept = support_of(candidates[alive] ^ low) >= floor
                alive = alive[kept]
                rest[alive] = peeled[kept] ^ low[kept]
                alive = alive[rest[alive] != 0]
            candidates = candidates[rest == 0]
            if charge is not None:
                charge(len(candidates))
            supports = np.array(
                [count(mask) for mask in candidates.tolist()],
                dtype=np.int64,
            )
            self._append(candidates, supports)
            frontier = candidates[supports >= floor]
        masks = self.masks
        order = np.lexsort((masks, _popcounts(masks)))
        masks[:] = masks[order]
        self.supports[:] = self.supports[order]
