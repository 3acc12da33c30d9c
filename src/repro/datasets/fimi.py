"""FIMI ``.dat`` format I/O.

The Frequent Itemset Mining Implementations repository format: one
transaction per line, items as whitespace-separated non-negative
integers.  The synthetic generators write this format so the on-disk
path is the same one a user of the public FIMI datasets would exercise.
"""

from __future__ import annotations

import os
from collections.abc import Iterable

from repro.datasets.baskets import ColumnarBuilder
from repro.datasets.transactions import TransactionDatabase
from repro.util.bitset import Universe, iter_bits


def write_fimi(database: TransactionDatabase, path: str | os.PathLike) -> None:
    """Write a database as FIMI ``.dat``.

    Items are written via ``str()``; integer universes round-trip exactly,
    other item types need re-mapping on read.
    Empty transactions produce empty lines (the format allows them).
    """
    universe = database.universe
    with open(path, "w", encoding="ascii") as handle:
        for row in database:
            items = (str(universe.item_at(i)) for i in iter_bits(row))
            handle.write(" ".join(items))
            handle.write("\n")


def read_fimi(
    path: str | os.PathLike,
    universe: Universe | None = None,
    *,
    backend: str = "auto",
) -> TransactionDatabase:
    """Read a FIMI ``.dat`` file into a :class:`TransactionDatabase`.

    Each line feeds a :class:`~repro.datasets.baskets.ColumnarBuilder`
    and the database is built with
    :meth:`~repro.datasets.transactions.TransactionDatabase.from_columnar`:
    the file is read once and the horizontal row list is *never*
    materialized, in the builder or in the database.  Memory is
    proportional to item occurrences, which is what makes million-row
    files ingestible.

    Args:
        path: the file to read.
        universe: optional pre-built integer universe; when omitted,
            the universe is the sorted set of item ids seen in the file.
        backend: vertical backend for the built database.

    Blank lines become empty transactions (they still count toward the
    total row count, matching FIMI tooling conventions).

    Raises:
        ValueError: a token is not an integer, an item lies outside
            the supplied ``universe``, or an inferred item id is
            negative.
    """
    builder = ColumnarBuilder(universe, backend=backend)
    with open(path, "r", encoding="ascii") as handle:
        for line in handle:
            builder.add(int(token) for token in line.split())
    database = builder.to_database()
    # The inferred universe is sorted, so one comparison covers every id.
    items = database.universe.items
    if universe is None and items and items[0] < 0:
        raise ValueError(
            f"item id {items[0]} is negative; FIMI item ids are "
            "non-negative integers"
        )
    return database


#: Alias of :func:`read_fimi`; existing callers import this name.
read_fimi_stream = read_fimi


def write_transactions(
    transactions: Iterable[Iterable[int]], path: str | os.PathLike
) -> None:
    """Write raw integer transactions as FIMI ``.dat`` without a database."""
    with open(path, "w", encoding="ascii") as handle:
        for transaction in transactions:
            handle.write(" ".join(str(item) for item in sorted(transaction)))
            handle.write("\n")
