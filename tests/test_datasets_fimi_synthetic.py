"""Tests for FIMI I/O and the Quest-style generator."""

from __future__ import annotations

import importlib
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.baskets import ColumnarBuilder
from repro.datasets.fimi import (
    read_fimi,
    read_fimi_stream,
    write_fimi,
    write_transactions,
)
from repro.datasets.synthetic import QuestParameters, generate_quest_database
from repro.datasets.transactions import TransactionDatabase
from repro.util.bitset import Universe

fimi_module = importlib.import_module("repro.datasets.fimi")


def _reference_read(path, universe=None, backend="auto"):
    """The per-line reader: text mode, ``line.split()`` and ``int``."""
    builder = ColumnarBuilder(universe, backend=backend)
    with open(path, "r", encoding="ascii") as handle:
        for line in handle:
            builder.add(int(token) for token in line.split())
    database = builder.to_database()
    items = database.universe.items
    if universe is None and items and items[0] < 0:
        raise ValueError(f"item id {items[0]} is negative")
    return database


def _outcome(read, path, **kwargs):
    """What a reader makes of a file: its database's data, or an error."""
    try:
        database = read(path, **kwargs)
    except ValueError:
        return "ValueError"
    return (
        database.universe.items,
        database.n_transactions,
        [int(column) for column in database.tidsets_view()],
    )


_TOKENS = st.one_of(
    st.integers(min_value=0, max_value=40).map(str),
    st.tuples(
        st.sampled_from(["", "+", "-"]),
        st.sampled_from(["", "0", "00"]),
        st.integers(min_value=0, max_value=40),
    ).map(lambda parts: f"{parts[0]}{parts[1]}{parts[2]}"),
    st.sampled_from(["+", "-", "1-2", "--1", "+-3", "4+"]),
)
_SEPARATORS = st.text(alphabet=" \t\v\f", min_size=1, max_size=3)
_LINE = st.tuples(
    st.text(alphabet=" \t", max_size=2),
    st.lists(st.tuples(_TOKENS, _SEPARATORS), max_size=6),
    st.sampled_from(["\n", "\r\n", "\r"]),
).map(lambda p: p[0] + "".join(t + s for t, s in p[1]) + p[2])


class TestFimiRoundTrip:
    def test_integer_round_trip(self, tmp_path):
        universe = Universe(range(5))
        database = TransactionDatabase(universe, [0b00111, 0b10001, 0b00000])
        path = tmp_path / "data.dat"
        write_fimi(database, path)
        loaded = read_fimi(path, universe=universe)
        assert loaded.transaction_masks == database.transaction_masks

    def test_read_infers_universe(self, tmp_path):
        path = tmp_path / "data.dat"
        path.write_text("3 7 11\n7\n")
        database = read_fimi(path)
        assert database.universe.items == (3, 7, 11)
        assert database.n_transactions == 2

    def test_blank_lines_are_empty_transactions(self, tmp_path):
        path = tmp_path / "data.dat"
        path.write_text("1 2\n\n2\n")
        database = read_fimi(path)
        assert database.n_transactions == 3
        assert database.support_count(0) == 3

    def test_write_transactions_sorts_items(self, tmp_path):
        path = tmp_path / "raw.dat"
        write_transactions([[3, 1, 2], [5]], path)
        assert path.read_text() == "1 2 3\n5\n"

    def test_written_file_is_plain_ascii(self, tmp_path):
        universe = Universe(range(3))
        database = TransactionDatabase(universe, [0b101])
        path = tmp_path / "data.dat"
        write_fimi(database, path)
        assert path.read_text() == "0 2\n"

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.sets(st.integers(min_value=0, max_value=30), max_size=8),
            max_size=25,
        ),
        st.booleans(),
    )
    def test_property_round_trip(self, transactions, trailing_newline):
        """write → read is the identity, including empty transactions
        (blank lines) and files with or without a final newline."""
        items = sorted({item for basket in transactions for item in basket})
        universe = Universe(items if items else [0])
        database = TransactionDatabase(
            universe, [universe.to_mask(basket) for basket in transactions]
        )
        # hypothesis forbids the function-scoped tmp_path fixture under
        # @given, so manage a scratch file per example by hand.
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "round.dat"
            write_fimi(database, path)
            # A trailing *empty* transaction is encoded as a final blank
            # line; dropping the newline would delete it, so the
            # no-final-newline variant only applies when the last row
            # has items.
            if not trailing_newline and transactions and transactions[-1]:
                text = path.read_text()
                if text.endswith("\n"):
                    path.write_text(text[:-1])
            loaded = read_fimi(path, universe=universe)
            assert loaded.transaction_masks == database.transaction_masks

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.sets(st.integers(min_value=0, max_value=30), max_size=8),
            min_size=1,
            max_size=25,
        ).filter(lambda baskets: any(baskets))
    )
    def test_stream_matches_read_without_universe(self, transactions):
        """The streamed read infers the universe and rows that the
        horizontal construction from the same baskets would."""
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "stream.dat"
            write_transactions(
                [sorted(basket) for basket in transactions], path
            )
            eager = TransactionDatabase.from_transactions(transactions)
            streamed = read_fimi(path)
            assert streamed.universe.items == eager.universe.items
            assert streamed.transaction_masks == eager.transaction_masks

    def test_stream_stays_vertical(self, tmp_path):
        path = tmp_path / "vert.dat"
        path.write_text("1 2\n\n2 5\n")
        database = read_fimi(path)
        assert database._rows is None
        assert database.n_transactions == 3
        assert read_fimi_stream is read_fimi

    @pytest.mark.parametrize("backend", ["auto", "roaring"])
    def test_backend_flows_through_readers(self, backend, tmp_path):
        path = tmp_path / "be.dat"
        path.write_text("0 1\n1 2\n")
        database = read_fimi(path, backend=backend)
        assert database.backend == backend
        assert database.n_transactions == 2

    def test_negative_item_id_rejected(self, tmp_path):
        path = tmp_path / "neg.dat"
        path.write_text("1 2\n-3 4\n")
        with pytest.raises(ValueError, match="item id -3 is negative"):
            read_fimi(path)

    def test_item_outside_supplied_universe_rejected(self, tmp_path):
        path = tmp_path / "out.dat"
        path.write_text("0 1\n1 9\n")
        with pytest.raises(ValueError, match="9"):
            read_fimi(path, universe=Universe(range(3)))


class TestFimiReaderConformance:
    """The block reader against the per-line reference, byte by byte.

    Blocks are shrunk to a few bytes, so lines, tokens and CRLF pairs
    straddle block boundaries.
    """

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(_LINE, max_size=8),
        st.booleans(),
        st.integers(min_value=1, max_value=16),
    )
    def test_matches_per_line_reference(self, lines, final_end, block):
        text = "".join(lines)
        if not final_end:
            text = text.rstrip("\r\n")
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "diff.dat"
            path.write_bytes(text.encode("ascii"))
            with mock.patch.object(fimi_module, "_READ_BLOCK", block):
                assert _outcome(read_fimi, path) == _outcome(
                    _reference_read, path
                )

    @pytest.mark.parametrize(
        "data, rows",
        [
            (b"1 2\r\n3\r\n", [{1, 2}, {3}]),
            (b"1 2\r3\r", [{1, 2}, {3}]),
            (b"1\t2\v3\f4\n", [{1, 2, 3, 4}]),
            (b"1\n\n\n2\n", [{1}, set(), set(), {2}]),
            (b"5 5 5 6\n", [{5, 6}]),
            (b"007 0010\n", [{7, 10}]),
            (b"+3 -0 +0\n", [{0, 3}]),
            (b"1 2\n3 4", [{1, 2}, {3, 4}]),
            (b"", []),
            (b"\r\n", [set()]),
            (b" ".join(b"%d" % i for i in range(400)) + b"\n2\n",
             [set(range(400)), {2}]),
        ],
    )
    @pytest.mark.parametrize("block", [1, 4, 1 << 16])
    @pytest.mark.parametrize("backend", ["auto", "roaring"])
    def test_explicit_cases(self, tmp_path, data, rows, block, backend):
        path = tmp_path / "case.dat"
        path.write_bytes(data)
        with mock.patch.object(fimi_module, "_READ_BLOCK", block):
            database = read_fimi(path, backend=backend)
        universe = Universe(sorted(set().union(*rows)))
        assert database.universe.items == universe.items
        assert database.backend == backend
        assert database.transaction_masks == [
            universe.to_mask(row) for row in rows
        ]

    @pytest.mark.parametrize(
        "data, token",
        [
            (b"1 2\n3 x\n", "x"),
            (b"1 2\n1_0\n", "1_0"),
            (b"1 2\n4 \xc3\xa9\n", "\\xc3\\xa9"),
            (b"1 2\n4 \x1c 5\n", "\x1c"),
            (b"1 2\n" + b"9" * 20 + b"\n", "9" * 20),
            (b"1 2\r\n-9223372036854775809\n", "-9223372036854775809"),
            (b"1 2\n3 4-5\n", "4-5"),
        ],
    )
    @pytest.mark.parametrize("block", [2, 1 << 16])
    def test_malformed_token_names_line(self, tmp_path, data, token, block):
        path = tmp_path / "bad.dat"
        path.write_bytes(data)
        with mock.patch.object(fimi_module, "_READ_BLOCK", block):
            with pytest.raises(ValueError, match="line 2") as caught:
                read_fimi(path)
        assert repr(token) in str(caught.value)

    def test_int64_extremes_accepted(self, tmp_path):
        path = tmp_path / "wide.dat"
        path.write_bytes(b"9223372036854775807 00000000000000000000001\n")
        database = read_fimi(path)
        assert database.universe.items == (1, 9223372036854775807)


class TestQuestParameters:
    def test_defaults_valid(self):
        QuestParameters()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_items": 0},
            {"avg_transaction_length": 0},
            {"corruption": 1.0},
            {"pattern_reuse": -0.1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            QuestParameters(**kwargs)


class TestQuestGenerator:
    def test_shape(self):
        params = QuestParameters(n_items=50, n_transactions=200)
        database = generate_quest_database(params, seed=1)
        assert database.n_items == 50
        assert database.n_transactions == 200

    def test_deterministic_with_seed(self):
        params = QuestParameters(n_items=30, n_transactions=100)
        a = generate_quest_database(params, seed=7)
        b = generate_quest_database(params, seed=7)
        assert a.transaction_masks == b.transaction_masks

    def test_different_seeds_differ(self):
        params = QuestParameters(n_items=30, n_transactions=100)
        a = generate_quest_database(params, seed=1)
        b = generate_quest_database(params, seed=2)
        assert a.transaction_masks != b.transaction_masks

    def test_average_length_in_ballpark(self):
        params = QuestParameters(
            n_items=100, n_transactions=2000, avg_transaction_length=10
        )
        database = generate_quest_database(params, seed=3)
        average = sum(
            mask.bit_count() for mask in database.transaction_masks
        ) / len(database)
        assert 5 <= average <= 20

    def test_patterns_create_correlation(self):
        """Pattern-driven data has some pair far above independence."""
        params = QuestParameters(
            n_items=40,
            n_transactions=1500,
            avg_transaction_length=8,
            n_patterns=5,
            corruption=0.1,
        )
        database = generate_quest_database(params, seed=5)
        n = database.n_transactions
        best_lift = 0.0
        counts = database.item_support_counts()
        for i in range(database.n_items):
            for j in range(i + 1, database.n_items):
                if counts[i] < 30 or counts[j] < 30:
                    continue
                joint = database.support_count((1 << i) | (1 << j)) / n
                expected = (counts[i] / n) * (counts[j] / n)
                if expected > 0:
                    best_lift = max(best_lift, joint / expected)
        assert best_lift > 1.5

    def test_round_trips_through_fimi(self, tmp_path):
        params = QuestParameters(n_items=20, n_transactions=50)
        database = generate_quest_database(params, seed=11)
        path = tmp_path / "quest.dat"
        write_fimi(database, path)
        loaded = read_fimi(path, universe=database.universe)
        assert loaded.transaction_masks == database.transaction_masks
