"""FIMI ``.dat`` format I/O.

The Frequent Itemset Mining Implementations repository format: one
transaction per line, items as whitespace-separated non-negative
integers.  The synthetic generators write this format so the on-disk
path is the same one a user of the public FIMI datasets would exercise.

:func:`read_fimi` parses with numpy, imported by the first read (with
the parser's byte tables), so writing a file or importing this module
does not load it.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from functools import cache
from typing import TYPE_CHECKING

from repro.datasets.baskets import ColumnarBuilder
from repro.datasets.transactions import TransactionDatabase
from repro.util.bitset import Universe, iter_bits

if TYPE_CHECKING:
    import numpy as np

#: Bytes :func:`read_fimi` reads at a time.  Each block is parsed up to
#: its last line end and the rest carried into the next one, so a line
#: longer than a block is carried whole.
_READ_BLOCK = 1 << 15

# Byte classes of the FIMI grammar (0 = not allowed anywhere).
_DIGIT, _SIGN, _SPACE, _LF, _CR = 1, 2, 3, 4, 5

#: Digits a token may have before its value is checked in Python:
#: every 18-digit number fits an int64.
_FAST_DIGITS = 18
_INT64 = range(-(1 << 63), 1 << 63)


@cache
def _byte_classes():
    """The grammar class of each byte value: a 256-entry ``uint8``
    table."""
    import numpy as np

    classes = np.zeros(256, dtype=np.uint8)
    classes[np.frombuffer(b"0123456789", dtype=np.uint8)] = _DIGIT
    classes[np.frombuffer(b"+-", dtype=np.uint8)] = _SIGN
    classes[np.frombuffer(b" \t\v\f", dtype=np.uint8)] = _SPACE
    classes[ord("\n")] = _LF
    classes[ord("\r")] = _CR
    return classes


@cache
def _powers_of_ten():
    """``10 ** place`` for each of the :data:`_FAST_DIGITS` places
    (``int64``)."""
    import numpy as np

    return 10 ** np.arange(_FAST_DIGITS, dtype=np.int64)


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


def _token_error(data, position: int, line: int, what: str) -> ValueError:
    """A :class:`ValueError` naming the line and the token at ``position``."""
    classes = _byte_classes()
    start = end = position
    while start > 0 and classes[data[start - 1]] in (0, _DIGIT, _SIGN):
        start -= 1
    while end < len(data) and classes[data[end]] in (0, _DIGIT, _SIGN):
        end += 1
    token = bytes(data[start:end]).decode("ascii", "backslashreplace")
    return ValueError(f"line {line}: {what} {token!r}")


def _token_spans(
    data: np.ndarray, after_cr: bool, first_line: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Token ``starts`` and ``ends`` and the line-end positions of ``data``.

    ``data`` holds ``uint8`` bytes that end with a line end; ``after_cr``
    says whether the byte before them was a ``\\r`` (a ``\\n`` right
    after one completes a CRLF and ends no line), and ``first_line`` is
    the 1-based number of their first line, for error messages.
    """
    import numpy as np

    kind = _byte_classes()[data]
    is_cr = kind == _CR
    line_end = kind == _LF
    line_end[0] &= not after_cr
    line_end[1:] &= ~is_cr[:-1]
    line_end |= is_cr
    line_ends = np.flatnonzero(line_end)

    def fail(position: int) -> ValueError:
        line = first_line + int(np.searchsorted(line_ends, position))
        return _token_error(data, position, line, "invalid token")

    if not kind.all():
        raise fail(int(np.argmin(kind)))
    token = kind <= _SIGN
    # Tokens and gaps alternate, and ``data`` ends in a gap.
    bounds = np.flatnonzero(token[1:] != token[:-1])
    bounds += 1
    if token[0]:
        bounds = np.concatenate(([0], bounds))
    starts, ends = bounds[0::2], bounds[1::2]
    # A sign must open its token and be followed by a digit.
    signs = np.flatnonzero(kind == _SIGN)
    misplaced = token[signs - 1] | (kind[signs + 1] != _DIGIT)
    if misplaced.any():
        raise fail(int(signs[misplaced.argmax()]))
    return starts, ends, line_ends


def _parse_lines(
    data: np.ndarray, after_cr: bool, first_line: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """The ``(row, item)`` pairs of a run of whole lines.

    Arguments as for :func:`_token_spans`.  Returns the row offset of
    each token within the run, the token values (``int64``) and the
    number of lines.
    """
    import numpy as np

    powers = _powers_of_ten()
    starts, ends, line_ends = _token_spans(data, after_cr, first_line)
    n_digits = ends - starts
    n_digits -= data[starts] < ord("0")  # a leading sign
    values = np.zeros(len(starts), dtype=np.int64)
    position = ends - 1
    for place in range(min(int(n_digits.max(initial=0)), _FAST_DIGITS)):
        digit = data.take(position, mode="clip").astype(np.int64)
        digit -= ord("0")
        digit *= powers[place]
        np.add(values, digit, out=values, where=n_digits > place)
        position -= 1
    np.negative(values, out=values, where=data[starts] == ord("-"))
    for index in np.flatnonzero(n_digits > _FAST_DIGITS).tolist():
        start = int(starts[index])
        value = int(bytes(data[start : ends[index]]))
        if value not in _INT64:
            line = first_line + int(np.searchsorted(line_ends, start))
            raise _token_error(
                data, start, line, "item id outside the int64 range:"
            )
        values[index] = value
    return np.searchsorted(line_ends, starts), values, len(line_ends)


def _fimi_blocks(
    handle,
) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
    """Parse a binary FIMI stream block by block (:func:`_parse_lines`).

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r``, as in text-mode
    reading, also where a CRLF pair straddles two blocks; a last line
    without a line end is a row too.
    """
    import numpy as np

    carry = b""
    after_cr = False
    line = 1
    while True:
        block = handle.read(_READ_BLOCK)
        if not block:
            if carry:
                data = np.frombuffer(carry + b"\n", dtype=np.uint8)
                yield _parse_lines(data, after_cr, line)
            return
        buffer = carry + block if carry else block
        cut = max(buffer.rfind(b"\n"), buffer.rfind(b"\r")) + 1
        carry = buffer[cut:]
        if cut:
            data = np.frombuffer(buffer, dtype=np.uint8, count=cut)
            rows, items, n_lines = _parse_lines(data, after_cr, line)
            yield rows, items, n_lines
            after_cr = buffer[cut - 1] == ord("\r")
            line += n_lines


def read_fimi(
    path: str | os.PathLike,
    universe: Universe | None = None,
    *,
    backend: str = "auto",
) -> TransactionDatabase:
    """Read a FIMI ``.dat`` file into a :class:`TransactionDatabase`.

    The file is read in fixed-size binary blocks cut at line ends; numpy
    parses each block into ``(row, item)`` pairs, which
    :meth:`~repro.datasets.baskets.ColumnarBuilder.add_pairs` groups by
    item and appends to the item columns, and the database is built
    with
    :meth:`~repro.datasets.transactions.TransactionDatabase.from_columnar`.
    The horizontal row list is *never* materialized, in the builder or
    in the database: memory is the item occurrences plus the parse of
    one block, which is what makes million-row files ingestible.

    The grammar: a token is ``[+-]?[0-9]+`` with a value in the int64
    range; tokens are separated by spaces, tabs, ``\\v`` or ``\\f``;
    lines end at ``\\n``, ``\\r\\n`` or ``\\r``.  Blank lines
    become empty transactions (they still count toward the total row
    count, matching FIMI tooling conventions), a last line without a
    line end is a transaction, and an item repeated within a line
    counts once.

    Args:
        path: the file to read.
        universe: optional pre-built integer universe; when omitted,
            the universe is the sorted set of item ids seen in the file.
        backend: vertical backend for the built database.

    Raises:
        ValueError: a byte outside the grammar or a token outside int64
            (the message names the 1-based line and the token), an item
            outside the supplied ``universe``, or a negative inferred
            item id.
    """
    builder = ColumnarBuilder(universe, backend=backend)
    with open(path, "rb") as handle:
        for rows, items, n_lines in _fimi_blocks(handle):
            builder.add_pairs(rows, items, n_lines)
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
