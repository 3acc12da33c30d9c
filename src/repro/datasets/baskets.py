"""Streamed basket ingestion into columnar form.

Real retail exports (the Instacart ``order_products`` CSVs are the
canonical example) arrive as *pair* rows — ``order_id,product_id`` —
sorted by order, not as one-line-per-transaction files.  At millions of
rows the transpose-from-horizontal path is the memory wall: it holds
every transaction mask in a Python list before a single column exists.

:class:`ColumnarBuilder` inverts that.  Callers feed transactions one at
a time; the builder appends the row index to each member item's index
list and forgets the row.  ``to_database()`` hands the per-item index
lists straight to
:meth:`~repro.datasets.transactions.TransactionDatabase.from_columnar`,
so the finished database is vertical-only (``_rows`` stays
unmaterialized) — memory is proportional to the *item occurrences*,
never to ``n_rows × n_items``.

:func:`read_baskets_csv` is the file-level wrapper: it streams a CSV of
``(order, item)`` pairs, groups consecutive rows with equal order ids
into one transaction (the export's sort order makes this exact), and
returns the built database.

numpy is imported by :meth:`ColumnarBuilder.add_pairs`, the bulk form
behind :func:`~repro.datasets.fimi.read_fimi`, on its first call; the
row-at-a-time :meth:`ColumnarBuilder.add` does not need it.
"""

from __future__ import annotations

import csv
import os
from array import array
from collections.abc import Iterable

from repro.datasets.transactions import TransactionDatabase
from repro.util.bitset import Universe

__all__ = ["ColumnarBuilder", "read_baskets_csv"]


class ColumnarBuilder:
    """Accumulate transactions item-by-item into vertical index lists.

    Args:
        universe: optional fixed universe.  When given, items outside it
            raise :class:`ValueError`; when omitted, the universe is
            discovered as items arrive and sorted on ``to_database()``
            (so the built database is independent of arrival order).
        backend: vertical backend for the built database (any value
            accepted by :class:`TransactionDatabase`).
    """

    def __init__(
        self, universe: Universe | None = None, *, backend: str = "auto"
    ):
        self._universe = universe
        self._backend = backend
        self._slots: dict = (
            {item: index for index, item in enumerate(universe.items)}
            if universe is not None
            else {}
        )
        self._dynamic = universe is None
        # One unsigned-64 index array per item slot; rows arrive in
        # ascending order so each array is sorted by construction.
        self._columns: list[array] | None = [
            array("Q") for _ in range(len(self._slots))
        ]
        self._n_rows = 0
        self._database: TransactionDatabase | None = None

    @property
    def n_rows(self) -> int:
        """Transactions added so far."""
        return self._n_rows

    @property
    def n_items(self) -> int:
        """Distinct items seen (or the fixed universe size)."""
        return len(self._slots)

    def _open_columns(self) -> list[array]:
        """The row arrays, while the database is not yet built."""
        if self._columns is None:
            raise ValueError("the database of this builder is already built")
        return self._columns

    def _slot(self, item) -> int:
        """The column slot of ``item``, opened on first sight."""
        slot = self._slots.get(item)
        if slot is None:
            if not self._dynamic:
                raise ValueError(
                    f"item {item!r} is outside the fixed universe"
                )
            slot = len(self._slots)
            self._slots[item] = slot
            self._columns.append(array("Q"))
        return slot

    def add(self, items: Iterable) -> int:
        """Append one transaction; returns its row index.

        Duplicate items within one transaction collapse to a single
        membership (baskets are sets).
        """
        columns = self._open_columns()
        row_index = self._n_rows
        seen: set[int] = set()
        for item in items:
            slot = self._slot(item)
            if slot not in seen:
                seen.add(slot)
                columns[slot].append(row_index)
        self._n_rows += 1
        return row_index

    def add_pairs(self, rows, items, n_rows: int) -> None:
        """Append ``n_rows`` transactions given as ``(row, item)`` pairs.

        The bulk form of :meth:`add`: ``rows`` and ``items`` are equal
        length ``int64`` arrays, ``rows`` non-decreasing offsets in
        ``[0, n_rows)`` from the first new row.  The pairs are grouped
        by item with one stable sort, so each item's rows stay
        ascending; a pair repeated within a row counts once, and rows
        without pairs are empty transactions.
        """
        import numpy as np

        columns = self._open_columns()
        keys = items
        if len(items) and int(items.max()) - int(items.min()) < 1 << 16:
            # numpy's stable sort of 16-bit keys is a radix sort.
            keys = (items - items.min()).astype(np.uint16)
        order = np.argsort(keys, kind="stable")
        items = items[order]
        rows = rows[order]
        rows += self._n_rows
        new_item = np.ones(len(items), dtype=bool)
        new_item[1:] = items[1:] != items[:-1]
        fresh = new_item.copy()
        fresh[1:] |= rows[1:] != rows[:-1]
        starts = np.flatnonzero(new_item[fresh]).tolist()
        items = items[fresh]
        # Row indices are non-negative: their int64 bytes are the
        # columns' unsigned ones.
        row_bytes = memoryview(rows[fresh]).cast("B")
        for item, start, end in zip(
            items[starts].tolist(), starts, [*starts[1:], len(items)]
        ):
            columns[self._slot(item)].frombytes(row_bytes[8 * start : 8 * end])
        self._n_rows += n_rows

    def to_database(self) -> TransactionDatabase:
        """Build the vertical database from the accumulated columns.

        A dynamically discovered universe is sorted first and the
        columns permuted to match, so two ingests of the same baskets
        in different arrival orders build equal databases.  Each row
        array is released as soon as its column is built, so the build
        never holds every row array and every column at once.  That
        finishes the builder: later calls return the same database,
        and adding transactions raises.
        """
        if self._database is None:
            if self._dynamic:
                ordered = sorted(self._slots)
                universe = Universe(ordered)
                slots = [self._slots[item] for item in ordered]
            else:
                universe = self._universe
                slots = range(len(self._slots))
            columns, self._columns = self._columns, None

            def released():
                for slot in slots:
                    rows, columns[slot] = columns[slot], None
                    yield rows

            self._database = TransactionDatabase.from_columnar(
                universe, released(), self._n_rows, backend=self._backend
            )
        return self._database


def _resolve_field(name_or_index, header: list[str] | None, what: str) -> int:
    """Map a column spec (int index or header name) to a list index."""
    if isinstance(name_or_index, int):
        return name_or_index
    if header is None:
        raise ValueError(
            f"{what} given by name {name_or_index!r} but the file has "
            "no header row"
        )
    try:
        return header.index(name_or_index)
    except ValueError:
        raise ValueError(
            f"{what} {name_or_index!r} not found in header {header!r}"
        ) from None


def read_baskets_csv(
    path: str | os.PathLike,
    *,
    order_field: int | str = 0,
    item_field: int | str = 1,
    has_header: bool | None = None,
    universe: Universe | None = None,
    backend: str = "auto",
    item_type=int,
) -> TransactionDatabase:
    """Stream an Instacart-style order/item pair CSV into a database.

    One input row is one ``(order, item)`` pair; consecutive rows with
    the same order value form one transaction (the standard export sort
    order).  The whole file is processed in one pass holding only the
    current basket and the growing columnar form.

    Args:
        path: CSV file to read.
        order_field: column holding the order id, by position or (when
            the file has a header) by name.
        item_field: column holding the item id, likewise.
        has_header: ``True``/``False`` to force; ``None`` sniffs — the
            first row is a header when either field is named, or when
            its item cell fails ``item_type``.
        universe: optional fixed universe (unknown items then raise).
        backend: vertical backend for the built database.
        item_type: callable applied to raw item cells (default ``int``;
            use ``str`` to keep product codes opaque).
    """
    named_fields = isinstance(order_field, str) or isinstance(item_field, str)
    builder = ColumnarBuilder(universe, backend=backend)
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        first = next(reader, None)
        if first is None:
            return builder.to_database()
        header: list[str] | None = None
        pending: list | None = None
        if has_header or (has_header is None and named_fields):
            header = first
        elif has_header is None and not named_fields:
            try:
                item_type(first[item_field])
            except (ValueError, IndexError):
                header = first
            else:
                pending = first
        else:
            pending = first
        order_at = _resolve_field(order_field, header, "order_field")
        item_at = _resolve_field(item_field, header, "item_field")

        current_order = None
        basket: list = []
        started = False

        def rows():
            if pending is not None:
                yield pending
            yield from reader

        for row in rows():
            if not row:
                continue
            try:
                order = row[order_at]
                item = item_type(row[item_at])
            except (IndexError, ValueError) as error:
                raise ValueError(
                    f"malformed basket row {row!r}: {error}"
                ) from error
            if started and order != current_order:
                builder.add(basket)
                basket = []
            current_order = order
            started = True
            basket.append(item)
        if started:
            builder.add(basket)
    return builder.to_database()
