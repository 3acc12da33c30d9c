"""0/1 transaction databases with fast vertical support counting.

A transaction database is the 0/1 relation ``r`` of Section 2 of the
paper: rows are transactions, columns are items, and the *support* of an
itemset ``X`` is the number of rows with 1 in every column of ``X``.

Three representations are kept in sync:

* horizontal — one bitmask per transaction (over the item universe), the
  natural form for generators and I/O;
* vertical — one arbitrary-precision integer per item whose bit ``t`` is
  set when transaction ``t`` contains the item.  Support counting is then
  a chain of big-int ANDs plus one popcount, which is orders of magnitude
  faster in CPython than row scanning;
* chunked vertical (lazy) — the same column bitmaps as a
  ``(n_items, ⌈n/64⌉)`` ``uint64`` numpy matrix, built on first use by
  :meth:`support_counts` so a *whole candidate level* is counted with a
  handful of vectorized calls instead of one Python loop per itemset.

The numpy path is an exact accelerator: counts are bit-identical to the
pure-int path, small batches use the big-int kernel (the rule is in
:meth:`TransactionDatabase.support_counts`), and nothing about query
accounting changes.  numpy is imported by the functions that run it —
the column builder behind :meth:`TransactionDatabase.from_columnar`
and the batched :meth:`TransactionDatabase.support_counts` — so a
program that calls neither never loads it.

The vertical column bitmaps double as Eclat's *tidsets*: the tidset of
an itemset is the AND of its item columns (:meth:`tidset`).  The
depth-first miner (:mod:`repro.mining.eclat`) seeds its root class
from :meth:`tidsets_view` and memoizes covers per branch rather than
re-deriving them per query.

``backend="roaring"`` swaps the big-int columns for compressed
:class:`~repro.util.roaring.RoaringBitmap` covers (64K-row chunks in
array/bitmap/run containers) — the same vertical surface, bit-identical
counts, but per-cover memory proportional to the *compressed* size
instead of ``n/8`` bytes, which is what makes million-row vertical
mining feasible (docs/API.md §18).
"""

from __future__ import annotations

from array import array
from collections.abc import Hashable, Iterable, Sequence

from repro.util.bitset import Universe, iter_bits, popcount
from repro.util.roaring import RoaringBitmap

#: The accepted ``backend=`` values (the CLI's ``--backend`` flag
#: validates against this exact tuple).
BACKENDS = ("auto", "roaring")

# Below these sizes the big-int kernel wins on dispatch overhead alone.
_AUTO_MIN_ROWS = 128
_AUTO_MIN_BATCH = 64
# Under _AUTO_MIN_ROWS rows (a service append's delta) the AND chains
# are short and numpy's fixed cost dominates: its one-word kernel wins
# from about 256-384 masks at 40 items, the multi-word one not below
# 4,096 (sweep in docs/API.md §9).
_SMALL_MIN_BATCH = 512
# Vectorized groups are processed in blocks so the shared-conjunction
# working set stays cache-resident (larger blocks thrash measurably).
_BATCH_BLOCK = 2048


def _column_from_rows(rows: Iterable[int], n_rows: int) -> int:
    """The big-int column of one item's row indices.

    The bits are set in a ``uint64`` word array with numpy, then read
    into one int with a single ``int.from_bytes``.
    """
    import numpy as np

    indices = (
        np.asarray(rows)
        if isinstance(rows, array)
        else np.fromiter(rows, dtype=np.int64)
    )
    if len(indices) and not (indices.min() >= 0 and indices.max() < n_rows):
        raise ValueError("column uses rows outside the database")
    words = np.zeros((n_rows + 63) // 64, dtype="<u8")
    np.bitwise_or.at(
        words,
        indices >> 6,
        np.left_shift(np.uint64(1), (indices & 63).astype(np.uint64)),
    )
    return int.from_bytes(words.tobytes(), "little")


class TransactionDatabase:
    """An immutable 0/1 relation over an item universe.

    Args:
        universe: the item universe (column order).
        transaction_masks: one bitmask per row over ``universe``.
        backend: vertical-counting backend — ``"auto"`` (default:
            big-int columns, counted with numpy for large batches and
            with big-int ANDs otherwise) or ``"roaring"`` (compressed
            container bitmaps for million-row covers).  Both return
            bit-identical counts; the choice is the memory/speed trade
            at scale.

    Rows may repeat (multiset semantics, as in market-basket data).
    """

    __slots__ = (
        "universe",
        "_rows",
        "_n_rows",
        "_columns",
        "_backend",
        "_matrix",
    )

    def __init__(
        self,
        universe: Universe,
        transaction_masks: Iterable[int],
        *,
        backend: str = "auto",
    ):
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        self.universe = universe
        rows = list(transaction_masks)
        for row in rows:
            if row & ~universe.full_mask:
                raise ValueError("transaction uses items outside the universe")
        self._rows: list[int] | None = rows
        self._n_rows: int = len(rows)
        if backend == "roaring":
            self._columns = self._build_roaring_columns(rows, len(universe))
        else:
            self._columns = self._build_columns(rows, len(universe))
        self._backend = backend
        self._matrix = None  # chunked vertical bitmaps, built lazily

    @classmethod
    def from_vertical(
        cls,
        universe: Universe,
        columns: Sequence[int],
        n_rows: int,
        *,
        backend: str = "auto",
    ) -> "TransactionDatabase":
        """Build directly from per-item column bitmaps (tidsets).

        The vertical-first constructor behind streamed ingestion and
        service appends: the instance is built without ever
        materializing the horizontal row list.  Rows are derived lazily
        (and only) when a horizontal view is actually requested
        (``transaction_masks``, ``project``, iteration); every counting
        path — ``support_count``, ``support_counts``, tidsets — works
        straight off the columns.
        """
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        if len(columns) != len(universe):
            raise ValueError(
                f"expected {len(universe)} columns, got {len(columns)}"
            )
        if n_rows < 0:
            raise ValueError("n_rows must be non-negative")
        if backend == "roaring":
            converted = [
                column
                if isinstance(column, RoaringBitmap)
                else RoaringBitmap.from_int(column)
                for column in columns
            ]
            for column in converted:
                if column.max_index() >= n_rows:
                    raise ValueError(
                        "column uses rows outside the database"
                    )
        else:
            converted = [
                column.to_int()
                if isinstance(column, RoaringBitmap)
                else column
                for column in columns
            ]
            full = (1 << n_rows) - 1
            for column in converted:
                if column & ~full:
                    raise ValueError(
                        "column uses rows outside the database"
                    )
        database = cls.__new__(cls)
        database.universe = universe
        database._rows = None
        database._n_rows = n_rows
        database._columns = converted
        database._backend = backend
        database._matrix = None
        return database

    def appended(self, delta_masks: Iterable[int]) -> "TransactionDatabase":
        """A new database with ``delta_masks`` appended as its last rows.

        Columns are extended instead of re-transposing every row:
        ``new_col = old_col | (delta_col << n_old)`` on ``"auto"``,
        :meth:`~repro.util.roaring.RoaringBitmap.with_appended` on
        ``"roaring"`` — O(items · delta).  When this database already
        holds its row list, the result gets ``old rows + delta`` (a
        pointer copy) and horizontal reads of it decode nothing;
        otherwise the result is vertical-only, like this one.
        """
        delta = list(delta_masks)
        full = self.universe.full_mask
        for mask in delta:
            if mask & ~full:
                raise ValueError("appended transaction uses unknown items")
        n_old = self._n_rows
        delta_columns = self._build_columns(delta, len(self.universe))
        if self._backend == "roaring":
            columns = [
                column.with_appended(
                    n_old + row_index for row_index in iter_bits(bits)
                )
                for column, bits in zip(self._columns, delta_columns)
            ]
        else:
            columns = [
                column | (bits << n_old)
                for column, bits in zip(self._columns, delta_columns)
            ]
        database = self.from_vertical(
            self.universe, columns, n_old + len(delta), backend=self._backend
        )
        if self._rows is not None:
            database._rows = self._rows + delta
        return database

    def _rows_view(self) -> list[int]:
        """The horizontal row list, materialized from columns on demand.

        Instances built by :meth:`from_vertical` carry no rows until a
        horizontal consumer asks; the reconstruction (transpose of the
        column bitmaps) preserves the exact row order the columns
        encode, so a round trip is the identity.
        """
        if self._rows is None:
            decode = iter if self._backend == "roaring" else iter_bits
            rows = [0] * self._n_rows
            for item_index, column in enumerate(self._columns):
                item_bit = 1 << item_index
                for row_index in decode(column):
                    rows[row_index] |= item_bit
            self._rows = rows
        return self._rows

    @staticmethod
    def _build_columns(rows: Sequence[int], n_items: int) -> list[int]:
        columns = [0] * n_items
        for row_index, row in enumerate(rows):
            row_bit = 1 << row_index
            for item_index in iter_bits(row):
                columns[item_index] |= row_bit
        return columns

    @staticmethod
    def _build_roaring_columns(
        rows: Sequence[int], n_items: int
    ) -> list[RoaringBitmap]:
        item_rows: list[list[int]] = [[] for _ in range(n_items)]
        for row_index, row in enumerate(rows):
            for item_index in iter_bits(row):
                item_rows[item_index].append(row_index)
        return [RoaringBitmap.from_indices(r) for r in item_rows]

    @classmethod
    def from_columnar(
        cls,
        universe: Universe,
        item_rows: Iterable[Iterable[int]],
        n_rows: int,
        *,
        backend: str = "auto",
    ) -> "TransactionDatabase":
        """Build from per-item row-index lists, skipping row bitmasks.

        The streamed-ingestion constructor: loaders that accumulate
        ``item → sorted row indices`` (``read_fimi``,
        ``read_baskets_csv``) hand the columnar form straight to the
        vertical store.  At a million rows this avoids ~10M big-int OR
        operations on 125 KB masks that building horizontal rows first
        would cost — the columns are assembled with numpy bit sets and
        one ``int.from_bytes`` per item (``"auto"``) or container
        builders (``"roaring"``) instead.  ``item_rows`` is consumed
        once, in universe order, so a caller can release each list as
        its column is built.
        """
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        if backend == "roaring":
            columns: list = [
                RoaringBitmap.from_indices(rows) for rows in item_rows
            ]
        else:
            columns = [_column_from_rows(rows, n_rows) for rows in item_rows]
        if len(columns) != len(universe):
            raise ValueError(
                f"expected {len(universe)} item row lists, "
                f"got {len(columns)}"
            )
        return cls.from_vertical(
            universe, columns, n_rows, backend=backend
        )

    @classmethod
    def from_transactions(
        cls,
        transactions: Iterable[Iterable[Hashable]],
        universe: Universe | None = None,
        *,
        backend: str = "auto",
    ) -> "TransactionDatabase":
        """Build from item collections, inferring a sorted universe.

        Example:
            >>> db = TransactionDatabase.from_transactions(
            ...     [{"bread", "milk"}, {"milk"}])
            >>> db.support_count(db.universe.to_mask({"milk"}))
            2
        """
        materialized = [frozenset(t) for t in transactions]
        if universe is None:
            items: set = set()
            for transaction in materialized:
                items |= transaction
            universe = Universe(sorted(items))
        return cls(
            universe,
            (universe.to_mask(t) for t in materialized),
            backend=backend,
        )

    # -- shape --------------------------------------------------------------

    @property
    def n_transactions(self) -> int:
        """Number of rows."""
        return self._n_rows

    @property
    def n_items(self) -> int:
        """Number of columns (universe size)."""
        return len(self.universe)

    def __len__(self) -> int:
        return self._n_rows

    def __iter__(self):
        return iter(self._rows_view())

    def __repr__(self) -> str:
        return (
            f"TransactionDatabase({self.n_transactions} transactions, "
            f"{self.n_items} items)"
        )

    @property
    def backend(self) -> str:
        """The configured vertical-counting backend name."""
        return self._backend

    @property
    def transaction_masks(self) -> list[int]:
        """A copy of the horizontal representation (safe to mutate)."""
        return list(self._rows_view())

    def _masks_view(self) -> list[int]:
        """The internal row list, zero-copy.

        For internal hot paths (projection, batch counting, benchmark
        harnesses) that would otherwise pay a defensive copy per call.
        Callers must not mutate the returned list.
        """
        return self._rows_view()

    def transactions_as_sets(self) -> list[frozenset]:
        """Rows as ``frozenset`` objects (allocates; for inspection)."""
        return [self.universe.to_set(row) for row in self._rows_view()]

    # -- support ------------------------------------------------------------

    def support_count(self, itemset_mask: int) -> int:
        """Number of transactions containing every item of the mask.

        The empty itemset is contained in every transaction, so its
        support is ``n_transactions`` — which is why the empty set is
        always frequent (the levelwise seed).
        """
        if itemset_mask == 0:
            return self._n_rows
        columns = self._columns
        bits = iter_bits(itemset_mask)
        accumulator = columns[next(bits)]
        for item_index in bits:
            accumulator &= columns[item_index]
            if not accumulator:
                return 0
        return popcount(accumulator)

    def support_counts(self, itemset_masks: Iterable[int]) -> list[int]:
        """Support counts of a whole batch of itemsets in one pass.

        The batched form of :meth:`support_count`: semantically
        ``[self.support_count(m) for m in itemset_masks]``, bit for bit.
        On the ``"auto"`` backend a large batch over enough rows is
        grouped by itemset size and each group is resolved with a
        vectorized AND-reduce plus ``bitwise_count`` over the chunked
        vertical bitmaps, amortizing all per-itemset Python dispatch —
        the level-at-a-time database pass of practical Apriori
        implementations.  On fewer than 128 rows only a batch of at
        least 512 masks over at most 64 items is vectorized.  Small
        batches and the ``"roaring"`` backend run one AND-chain per
        mask.
        """
        masks = list(itemset_masks)
        if self._n_rows >= _AUTO_MIN_ROWS:
            vectorize = len(masks) >= _AUTO_MIN_BATCH
        else:
            vectorize = (
                len(masks) >= _SMALL_MIN_BATCH and len(self.universe) <= 64
            )
        if vectorize and self._backend != "roaring":
            return self._support_counts_numpy(masks)
        count = self.support_count
        return [count(mask) for mask in masks]

    def _vertical_matrix(self):
        """The chunked vertical bitmaps: ``(n_items, ⌈n/64⌉)`` uint64."""
        if self._matrix is None:
            import numpy as np

            n_chunks = (self._n_rows + 63) // 64
            n_bytes = n_chunks * 8
            packed = b"".join(
                column.to_bytes(n_bytes, "little")
                for column in self._columns
            )
            self._matrix = np.frombuffer(packed, dtype="<u8").reshape(
                len(self._columns), n_chunks
            )
        return self._matrix

    def _conjunctions(self, masks_matrix, size: int, is_sorted: bool):
        """Row bitmaps of each itemset in a ``(d, ⌈items/64⌉)`` uint64
        mask matrix, all of popcount ``size``, via shared parents.

        Each itemset's conjunction is its lowest bit's column ANDed with
        the conjunction of its *parent* (the itemset minus that bit);
        parents are deduplicated, so siblings share one recursive
        computation.  Itemsets with a common parent occupy a contiguous
        numeric interval, hence for sorted input the dedup is a
        consecutive compare and the expansion a sequential ``repeat``
        rather than a gather.  No per-itemset Python work anywhere —
        that, not the AND itself, is what the scalar path pays for.
        """
        import numpy as np

        matrix = self._vertical_matrix()
        d = len(masks_matrix)
        arange = np.arange(d)
        low_chunk = (masks_matrix != 0).argmax(axis=1)
        chunk_values = masks_matrix[arange, low_chunk]
        low_bit = chunk_values & (np.uint64(0) - chunk_values)
        ext = (
            low_chunk.astype(np.uint64) << np.uint64(6)
            | np.bitwise_count(low_bit - np.uint64(1))
        ).astype(np.intp)
        columns = matrix.take(ext, axis=0)
        if size == 1:
            return columns
        parents = masks_matrix.copy()
        parents[arange, low_chunk] ^= low_bit
        if is_sorted:
            fresh = np.empty(d, dtype=bool)
            fresh[0] = True
            if d > 1:
                fresh[1:] = (parents[1:] != parents[:-1]).any(axis=1)
            starts = np.flatnonzero(fresh)
            group_sizes = np.diff(np.append(starts, d))
            unique_conj = self._conjunctions(
                parents[fresh], size - 1, False
            )
            conjunction = np.repeat(unique_conj, group_sizes, axis=0)
            np.bitwise_and(conjunction, columns, out=conjunction)
            return conjunction
        order = np.lexsort(tuple(parents.T))
        parents_sorted = parents[order]
        fresh = np.empty(d, dtype=bool)
        fresh[0] = True
        if d > 1:
            fresh[1:] = (parents_sorted[1:] != parents_sorted[:-1]).any(
                axis=1
            )
        unique_conj = self._conjunctions(
            parents_sorted[fresh], size - 1, False
        )
        parent_id = np.empty(d, dtype=np.intp)
        parent_id[order] = np.cumsum(fresh) - 1
        conjunction = unique_conj.take(parent_id, axis=0)
        np.bitwise_and(conjunction, columns, out=conjunction)
        return conjunction

    def _conjunctions_1chunk(self, masks_vector, size: int, is_sorted: bool):
        """Single-chunk variant of :meth:`_conjunctions`.

        For universes of at most 64 items the mask matrix degenerates to
        a flat uint64 vector, so parent computation is a scalar ``xor``
        and dedup ordering a plain ``argsort`` — measurably faster than
        the general row-wise machinery.
        """
        import numpy as np

        matrix = self._vertical_matrix()
        d = len(masks_vector)
        low_bit = masks_vector & (np.uint64(0) - masks_vector)
        ext = np.bitwise_count(low_bit - np.uint64(1)).astype(np.intp)
        columns = matrix.take(ext, axis=0)
        if size == 1:
            return columns
        parents = masks_vector ^ low_bit
        if is_sorted:
            fresh = np.empty(d, dtype=bool)
            fresh[0] = True
            fresh[1:] = parents[1:] != parents[:-1]
            starts = np.flatnonzero(fresh)
            group_sizes = np.diff(np.append(starts, d))
            unique_conj = self._conjunctions_1chunk(
                parents[starts], size - 1, False
            )
            conjunction = np.repeat(unique_conj, group_sizes, axis=0)
            np.bitwise_and(conjunction, columns, out=conjunction)
            return conjunction
        order = np.argsort(parents, kind="stable")
        parents_sorted = parents[order]
        fresh = np.empty(d, dtype=bool)
        fresh[0] = True
        fresh[1:] = parents_sorted[1:] != parents_sorted[:-1]
        unique_conj = self._conjunctions_1chunk(
            parents_sorted[fresh], size - 1, False
        )
        parent_id = np.empty(d, dtype=np.intp)
        parent_id[order] = np.cumsum(fresh) - 1
        conjunction = unique_conj.take(parent_id, axis=0)
        np.bitwise_and(conjunction, columns, out=conjunction)
        return conjunction

    def _support_counts_numpy_1chunk(self, masks: list[int]) -> list[int]:
        import numpy as np

        n = len(masks)
        n_rows = self._n_rows
        vector = np.fromiter(masks, dtype=np.uint64, count=n)
        sizes = np.bitwise_count(vector)
        out = np.empty(n, dtype=np.int64)
        out[sizes == 0] = n_rows
        order = np.lexsort((vector, sizes))
        vector_sorted = vector[order]
        sizes_sorted = sizes[order]
        max_size = int(sizes_sorted[-1])
        bounds = np.searchsorted(sizes_sorted, np.arange(max_size + 2))
        for size in range(1, max_size + 1):
            lo, hi = int(bounds[size]), int(bounds[size + 1])
            if lo == hi:
                continue
            for start in range(lo, hi, _BATCH_BLOCK):
                conjunction = self._conjunctions_1chunk(
                    vector_sorted[start : start + _BATCH_BLOCK], size, True
                )
                out[order[start : start + _BATCH_BLOCK]] = (
                    np.bitwise_count(conjunction).sum(
                        axis=1, dtype=np.int64
                    )
                )
        return out.tolist()

    def _support_counts_numpy(self, masks: list[int]) -> list[int]:
        n = len(masks)
        if n == 0:
            return []
        if len(self.universe) <= 64:
            return self._support_counts_numpy_1chunk(masks)
        import numpy as np

        n_rows = self._n_rows
        mask_chunks = max(1, (len(self.universe) + 63) // 64)
        mask_bytes = mask_chunks * 8
        packed = b"".join(m.to_bytes(mask_bytes, "little") for m in masks)
        masks_matrix = np.frombuffer(packed, dtype="<u8").reshape(
            n, mask_chunks
        )
        sizes = np.bitwise_count(masks_matrix).sum(axis=1, dtype=np.int64)
        out = np.empty(n, dtype=np.int64)
        out[sizes == 0] = n_rows
        for size in range(1, int(sizes.max(initial=0)) + 1):
            positions = np.flatnonzero(sizes == size)
            if not len(positions):
                continue
            group = masks_matrix[positions]
            # Sort so same-parent itemsets are adjacent (they share the
            # conjunction of everything above their lowest bit).
            order = np.lexsort(tuple(group.T))
            positions = positions[order]
            group = group[order]
            for start in range(0, len(positions), _BATCH_BLOCK):
                conjunction = self._conjunctions(
                    group[start : start + _BATCH_BLOCK], size, True
                )
                out[positions[start : start + _BATCH_BLOCK]] = (
                    np.bitwise_count(conjunction).sum(
                        axis=1, dtype=np.int64
                    )
                )
        return out.tolist()

    # -- tidsets (the Eclat vertical surface) --------------------------------

    @property
    def full_tidset(self):
        """Cover of every transaction (the tidset of ∅).

        A big-int bitmask, or a :class:`RoaringBitmap` of all rows on
        the ``"roaring"`` backend (run containers; O(n / 64Ki) size).
        """
        if self._backend == "roaring":
            return RoaringBitmap.full(self._n_rows)
        return (1 << self._n_rows) - 1

    def tidsets_view(self) -> list[int]:
        """The per-item column bitmaps (tidsets of singletons), zero-copy.

        Bit ``t`` of entry ``i`` is set when transaction ``t`` contains
        item ``i``.  The depth-first miner seeds its root equivalence
        class from this list.  Callers must not mutate the returned
        list.
        """
        return self._columns

    def tidset(self, itemset_mask: int) -> int:
        """Bitmask of the transactions containing every item of the mask.

        ``support_count(m) == popcount(tidset(m))`` by construction; the
        empty itemset's tidset is :attr:`full_tidset`.
        """
        if itemset_mask == 0:
            return self.full_tidset
        columns = self._columns
        bits = iter_bits(itemset_mask)
        accumulator = columns[next(bits)]
        for item_index in bits:
            accumulator &= columns[item_index]
        return accumulator

    def frequency(self, itemset_mask: int) -> float:
        """Relative support in ``[0, 1]`` (0.0 for an empty database)."""
        if not self._n_rows:
            return 0.0
        return self.support_count(itemset_mask) / self._n_rows

    def is_frequent(self, itemset_mask: int, min_support: int) -> bool:
        """True when support count reaches the absolute threshold."""
        return self.support_count(itemset_mask) >= min_support

    def absolute_support(self, min_frequency: float) -> int:
        """Convert a relative threshold ``σ`` to an absolute row count.

        Uses ceiling semantics: a set is ``σ``-frequent iff its count is
        at least ``ceil(σ · n)`` (with a floor of 1 row for ``σ > 0``).
        """
        if not 0.0 <= min_frequency <= 1.0:
            raise ValueError("min_frequency must be within [0, 1]")
        import math

        if min_frequency == 0.0:
            return 0
        return max(1, math.ceil(min_frequency * self._n_rows))

    def item_support_counts(self) -> list[int]:
        """Support count of each single item, in universe order."""
        return [popcount(column) for column in self._columns]

    def project(self, item_mask: int) -> "TransactionDatabase":
        """Database restricted to the items in ``item_mask``.

        The universe shrinks to the selected items; rows are intersected
        (and kept even when they become empty, preserving row count and
        hence relative frequencies).
        """
        selected = [self.universe.item_at(i) for i in iter_bits(item_mask)]
        sub_universe = Universe(selected)
        rows = []
        for row in self._masks_view():
            projected = row & item_mask
            rows.append(sub_universe.to_mask(
                self.universe.item_at(i) for i in iter_bits(projected)
            ))
        return TransactionDatabase(sub_universe, rows, backend=self._backend)

