"""The mining service as one state machine, checked against its references.

A hypothesis :class:`~hypothesis.stateful.RuleBasedStateMachine` drives a
durable :class:`~repro.service.state.ServiceCore` (either backend, a
row-built or vertical-only seed, compaction every 2 records, a drawn
``repair_limit``) and an in-memory twin that gets the same writes and no
reads, through appends, threshold raises and lowers (by an offset, to
a relative threshold, or into the kept table's range), cold, hot and
stricter ``/mine``, re-sent and escaped operation ids, and reopens that
replay a WAL record.  After every step:

* the digest is the SHA-256 of the full canonical JSON
  (``_reference_digest``) and the twin's, with the same ``queries``;
* the state is scratch :func:`~repro.mining.eclat.eclat`'s, in canonical
  order, with the stored ``Bd-`` supports recounted
  (``_assert_matches_scratch``);
* the served ``/borders`` and ``/mine`` bodies are the reference bodies.

Each write's :class:`~repro.service.incremental.RepairStats` and charges
equal the recounting repair's (``_reference_update``); every cold or
stricter ``/mine`` equals a fresh Eclat and comes from the kept table
exactly when that table covers it; a reopen keeps the digest and starts
with no kept table.
"""

from __future__ import annotations

import shutil
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.datasets import BACKENDS
from repro.datasets.transactions import TransactionDatabase
from repro.mining.eclat import eclat
from repro.service.state import ServiceCore
from repro.util.bitset import Universe

from tests.test_service_encoding import (
    _OP_IDS,
    _reference_bodies,
    _reference_digest,
    _served_bodies,
)
from tests.test_service_incremental import (
    _assert_matches_scratch,
    _reference_update,
)

#: An offset from the maintained threshold (below it a cold ``/mine``
#: or a lower, above it a stricter read or a raise) or a relative one.
LEVELS = st.one_of(st.integers(-6, 6), st.sampled_from([0.1, 0.25, 0.5]))


class ServiceModel(RuleBasedStateMachine):
    @initialize(
        n_items=st.integers(2, 6),
        rows=st.lists(st.integers(0, 63), min_size=1, max_size=12),
        threshold=st.integers(1, 12),
        backend=st.sampled_from(BACKENDS),
        vertical=st.booleans(),
        limit=st.one_of(st.none(), st.integers(0, 8)),
    )
    def open(self, n_items, rows, threshold, backend, vertical, limit):
        self.full = (1 << n_items) - 1
        universe = Universe([f"i{k}" for k in range(n_items)])
        database = TransactionDatabase(
            universe, [row & self.full for row in rows], backend=backend
        )
        if vertical:
            database = TransactionDatabase.from_vertical(
                universe,
                database.tidsets_view(),
                database.n_transactions,
                backend=backend,
            )
        threshold = min(threshold, len(rows))
        self.limit = limit
        self.ledger: dict[str, int] = {}
        self.state_dir = tempfile.mkdtemp()
        self.open_core = lambda: ServiceCore(
            database, threshold, state_dir=self.state_dir, durable=False,
            compact_every=2, repair_limit=limit,
        )
        self.core = self.open_core()
        self.twin = ServiceCore(database, threshold, repair_limit=limit)

    def teardown(self):
        if hasattr(self, "twin"):
            self.core.close()
            self.twin.close()
        if hasattr(self, "state_dir"):
            shutil.rmtree(self.state_dir)

    def _level(self, value):
        """``value`` as ``set_threshold``/``mine`` take it."""
        if isinstance(value, float):
            return value
        return max(0, self.core.state.threshold + value)

    def _write(self, kind, payload, op_id):
        before = self.core.state
        call = "append" if kind == "append" else "set_threshold"
        answer = getattr(self.core, call)(payload, op_id=op_id)
        assert answer == getattr(self.twin, call)(payload, op_id=op_id)
        seq, stats, digest = answer
        assert digest == self.core.digest()
        if stats is None:  # an applied id: answered from the ledger
            assert seq == self.ledger[op_id] and self.core.state is before
            return
        if op_id is not None:
            self.ledger[op_id] = seq
        new = self.core.state
        supports, negative, expected = _reference_update(
            before, new.database, new.threshold, self.limit
        )
        assert stats == expected
        assert (new.supports, new.negative) == (supports, negative)
        assert new.queries == before.queries + expected.evaluated
        assert new.support_updates == (
            before.support_updates + expected.support_updates
        )
        assert (new.repairs, new.remines) == (
            before.repairs + (not expected.remined),
            before.remines + expected.remined,
        )

    @rule(rows=st.lists(st.integers(0, 63), max_size=4), op_id=_OP_IDS)
    def append(self, rows, op_id):
        self._write("append", [row & self.full for row in rows], op_id)

    @rule(value=LEVELS, op_id=_OP_IDS)
    def move_threshold(self, value, op_id):
        self._write("threshold", self._level(value), op_id)

    @precondition(lambda self: self.core._table is not None)
    @rule(above=st.integers(0, 2), op_id=_OP_IDS)
    def move_into_the_table(self, above, op_id):
        """A move the kept table covers when it is a lower."""
        self._write("threshold", self.core._table.floor + above, op_id)

    @precondition(lambda self: self.ledger)
    @rule(data=st.data())
    def resend(self, data):
        op_id = data.draw(st.sampled_from(sorted(self.ledger)))
        kind = data.draw(st.sampled_from(["append", "threshold"]))
        self._write(kind, [self.full] if kind == "append" else 0, op_id)

    @rule(values=st.lists(LEVELS, min_size=1, max_size=3))
    def mine(self, values):
        for value in values:
            state, table = self.core.state, self.core._table
            source, answer = self.core.mine(self._level(value))
            threshold = answer["threshold"]
            scratch = eclat(state.database, threshold)
            assert answer["supports"] == scratch.supports
            assert tuple(answer["maximal"]) == scratch.maximal
            assert tuple(answer["negative"]) == scratch.negative_border
            if threshold >= state.threshold:
                assert source == "hot"
                assert answer["supports"] is not state.supports
            elif table is not None and table.floor <= threshold:
                assert source == "table"
            else:
                assert source == "mined"
                assert answer["queries"] == scratch.queries
            if source != "mined":
                assert answer["queries"] == 0

    @precondition(lambda self: self.core._wal.pending())
    @rule()
    def reopen(self):
        """Recover from the snapshot (if any) and a WAL record."""
        digest = self.core.digest()
        self.core.close()
        self.core = self.open_core()
        assert self.core.digest() == digest
        assert self.core._table is None

    @invariant()
    def matches_the_references(self):
        core = self.core
        digest = core.digest()
        assert digest == _reference_digest(core, self.ledger)
        assert digest == self.twin.digest()
        assert core.state.queries == self.twin.state.queries
        _assert_matches_scratch(core.state)
        borders, mine, stricter = _reference_bodies(core)
        assert _served_bodies(core) == (borders, mine, mine, stricter)


ServiceModel.TestCase.settings = settings(
    max_examples=100,
    stateful_step_count=20,
    deadline=None,
    report_multiple_bugs=False,  # shrink one failure, within the timeout
)
TestServiceModel = ServiceModel.TestCase
