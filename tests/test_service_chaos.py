"""Chaos suite: kill the service at random instants, demand bit-identical recovery.

The acceptance criterion is brutal and simple: after a ``SIGKILL`` at
*any* instant, restarting the service and idempotently re-sending every
batch must land on a state whose SHA-256 digest equals the digest of a
run that was never interrupted.  Two layers:

* **in-process crash simulation** — fast and fully deterministic:
  random crash points are simulated by abandoning the core and
  truncating the WAL tail by a random number of bytes (exactly the
  artifact a torn write leaves), across both the no-compaction and
  aggressive-compaction regimes;
* **subprocess SIGKILL harness** — the real thing: ``python -m repro
  serve`` gets ``SIGKILL`` at a random moment during an ``/append``
  burst, is restarted on the same state directory, and must converge
  to the reference digest once all batches are re-sent.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.datasets import BACKENDS
from repro.datasets.transactions import TransactionDatabase
from repro.runtime.checkpoint import Checkpoint
from repro.service import ServiceCore
from repro.service.state import SNAPSHOT_NAME, WAL_NAME, _state_payload
from repro.util.bitset import Universe

N_ITEMS = 5


def _database(backend: str = "auto"):
    return TransactionDatabase(
        Universe([f"i{k}" for k in range(N_ITEMS)]),
        [7, 21, 3, 28, 7, 19],
        backend=backend,
    )


def _batches(rng: random.Random, count: int):
    return [
        (
            f"op-{index}",
            [
                rng.getrandbits(N_ITEMS)
                for _ in range(rng.randint(1, 3))
            ],
        )
        for index in range(count)
    ]


def _reference_digest(state_dir, batches, **core_kwargs) -> str:
    with ServiceCore(
        _database(), 2, state_dir=str(state_dir), **core_kwargs
    ) as core:
        for op_id, rows in batches:
            core.append(rows, op_id=op_id)
        return core.digest()


class TestInProcessCrashSimulation:
    def _run_chaos(self, tmp_path, seed: int, **core_kwargs) -> None:
        rng = random.Random(seed)
        batches = _batches(rng, 8)
        reference = _reference_digest(
            tmp_path / "reference", batches, **core_kwargs
        )

        chaos_dir = tmp_path / "chaos"
        core = ServiceCore(
            _database(), 2, state_dir=str(chaos_dir), **core_kwargs
        )
        sent = 0
        while sent < len(batches):
            crash_after = rng.randint(sent, len(batches))
            for op_id, rows in batches[sent:crash_after]:
                core.append(rows, op_id=op_id)
            sent = crash_after
            # -- simulated SIGKILL: abandon the core, tear the WAL tail
            core.close()
            wal_path = chaos_dir / WAL_NAME
            if wal_path.exists() and wal_path.stat().st_size > 0:
                torn = rng.randint(0, 25)
                with open(wal_path, "ab") as handle:
                    handle.truncate(
                        max(0, wal_path.stat().st_size - torn)
                    )
            # -- restart + idempotent re-send of everything so far
            core = ServiceCore(
                _database(), 2, state_dir=str(chaos_dir), **core_kwargs
            )
            for op_id, rows in batches[:sent]:
                core.append(rows, op_id=op_id)
        digest = core.digest()
        core.close()
        assert digest == reference

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_truncation_chaos_recovers_bit_identical(
        self, tmp_path, seed
    ):
        self._run_chaos(tmp_path, seed)

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_chaos_survives_aggressive_compaction(self, tmp_path, seed):
        """Crashes interleaved with snapshot+reset every 2 records."""
        self._run_chaos(tmp_path, seed, compact_every=2)

    def test_clean_runs_are_digest_deterministic(self, tmp_path):
        batches = _batches(random.Random(0), 6)
        first = _reference_digest(tmp_path / "a", batches)
        second = _reference_digest(tmp_path / "b", batches)
        assert first == second


class TestDigestContract:
    """What :meth:`ServiceCore.digest` hashes, and what a mutation
    returns with it.  Clients keep digests across restarts, so the
    hashed content and its order are part of the wire contract."""

    # Digests of the fixed history below, recorded when the state
    # payload's content and order were defined.  A failure here means
    # digests that clients already hold no longer match: change the
    # payload only on purpose, never as a side effect.
    PINNED = {
        "auto": (
            "043a555366becc4872cf4d1e46865841d68f3503ebe93728be4cc6ee45d3b6a5"
        ),
        "roaring": (
            "7e04f6a442d777ec0c170338c121ce386941fb388781fe22de726a8a74e88c06"
        ),
    }

    @pytest.mark.parametrize("layout", ["rows", "vertical"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_digest_of_fixed_history_is_pinned(
        self, tmp_path, backend, layout
    ):
        """Two appends, a threshold move and one compaction, from a
        seed database built from rows or from columns alone."""
        database = _database(backend)
        if layout == "vertical":
            database = TransactionDatabase.from_vertical(
                database.universe,
                database.tidsets_view(),
                database.n_transactions,
                backend=backend,
            )
        state_dir = str(tmp_path / "state")
        with ServiceCore(
            database, 2, state_dir=state_dir, compact_every=3
        ) as core:
            core.append([31, 6], op_id="pin-1")
            core.set_threshold(3, op_id="pin-2")
            core.append([12, 25, 7], op_id="pin-3")
            assert core.metrics()["wal_pending"] == 0  # compacted
            assert core.digest() == self.PINNED[backend]
        with ServiceCore(database, 2, state_dir=state_dir) as core:
            assert core.seq == 3
            assert core.digest() == self.PINNED[backend]

    def test_duplicate_op_returns_original_seq_and_current_digest(self):
        """A re-sent op answers with the seq it was first applied at
        and the digest of the state *now*, so a client re-sending a
        whole history after a crash ends holding the final digest."""
        with ServiceCore(_database(), 2) as core:
            seq_a, _, digest_a = core.append([31, 6], op_id="A")
            seq_b, _, digest_b = core.append([12], op_id="B")
            seq, stats, digest = core.append([31, 6], op_id="A")
            assert (seq_a, seq_b, core.seq) == (1, 2, 2)
            assert seq == seq_a
            assert stats is None
            assert digest == core.digest() == digest_b
            assert digest != digest_a

    def test_empty_op_id_dedups_across_a_reopen(self, tmp_path):
        """``""`` is an op id like any other: the WAL logs it, so a
        re-sent op is still answered from the ledger after a restart."""
        state_dir = str(tmp_path / "state")
        with ServiceCore(_database(), 2, state_dir=state_dir) as core:
            assert core.append([15], op_id="")[0] == 1
            assert core.append([15], op_id="")[:2] == (1, None)
            digest = core.digest()
        with ServiceCore(_database(), 2, state_dir=state_dir) as core:
            seq, stats, again = core.append([15], op_id="")
            assert (seq, stats, core.seq) == (1, None, 1)
            assert again == core.digest() == digest

    def test_roaring_state_survives_compaction_and_reopen(self, tmp_path):
        batches = _batches(random.Random(5), 7)
        state_dir = str(tmp_path / "state")
        with ServiceCore(
            _database("roaring"), 2, state_dir=state_dir, compact_every=2
        ) as core:
            for op_id, rows in batches:
                core.append(rows, op_id=op_id)
            assert core.metrics()["wal_pending"] == 1  # 3 compactions
            digest = core.digest()
        with ServiceCore(
            _database("roaring"), 2, state_dir=state_dir
        ) as core:
            assert core.state.database.backend == "roaring"
            assert core.seq == len(batches)
            assert core.digest() == digest
        with ServiceCore(_database("roaring"), 2) as memory:
            for op_id, rows in batches:
                memory.append(rows, op_id=op_id)
            assert memory.digest() == digest


class TestRecoveredBorderSupports:
    """The snapshot does not hold the ``Bd-`` supports; recovery
    recounts them from the restored rows, and WAL replay refreshes
    them like any write, so the next repair starts from the same
    table as an uninterrupted run."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_snapshot_plus_wal_restores_border_supports(
        self, tmp_path, backend
    ):
        batches = _batches(random.Random(9), 7)
        state_dir = str(tmp_path / "state")
        with ServiceCore(
            _database(backend), 2, state_dir=state_dir, compact_every=3
        ) as core:
            for op_id, rows in batches[:4]:
                core.append(rows, op_id=op_id)
            core.set_threshold(3, op_id="raise")
            for op_id, rows in batches[4:]:
                core.append(rows, op_id=op_id)
            assert core.metrics()["wal_pending"] == 2  # snapshot + WAL
            expected = core.state
        with ServiceCore(
            _database(backend), 2, state_dir=state_dir
        ) as recovered:
            state = recovered.state
        assert state.negative == expected.negative
        assert state.negative_supports == expected.negative_supports
        assert state.negative_supports == tuple(
            state.database.support_count(mask) for mask in state.negative
        )


class TestBadRequestsNeverPoisonTheLog:
    """Regression: a mutation that cannot apply must be rejected
    *before* it reaches the WAL.  A durably logged record that raises
    on replay would make every subsequent restart fail — one bad
    request would permanently brick the service."""

    def test_out_of_universe_append_rejected_unlogged(self, tmp_path):
        state_dir = tmp_path / "state"
        with ServiceCore(
            _database(), 2, state_dir=str(state_dir)
        ) as core:
            before = core.digest()
            with pytest.raises(ValueError):
                core.append([1 << N_ITEMS])  # item outside the universe
            with pytest.raises(ValueError):
                core.append([-1])  # negative row mask
            with pytest.raises(ValueError):
                core.append([7, 1 << N_ITEMS])  # valid prefix, bad tail
            assert core.seq == 0
            assert core.digest() == before
        # Nothing was logged: recovery succeeds and matches.
        with ServiceCore(
            _database(), 2, state_dir=str(state_dir)
        ) as core:
            assert core.seq == 0
            assert core.digest() == before

    def test_bad_threshold_rejected_unlogged(self, tmp_path):
        state_dir = tmp_path / "state"
        with ServiceCore(
            _database(), 2, state_dir=str(state_dir)
        ) as core:
            before = core.digest()
            with pytest.raises(ValueError):
                core.set_threshold(-1)
            with pytest.raises(ValueError):
                core.set_threshold(2.5)  # float > 1: not a frequency
            assert core.digest() == before
        with ServiceCore(
            _database(), 2, state_dir=str(state_dir)
        ) as core:
            assert core.digest() == before

    def test_good_mutation_after_rejected_one_still_applies(
        self, tmp_path
    ):
        state_dir = tmp_path / "state"
        with ServiceCore(
            _database(), 2, state_dir=str(state_dir)
        ) as core:
            with pytest.raises(ValueError):
                core.append([1 << N_ITEMS])
            seq, stats, digest = core.append([7], op_id="good")
            assert seq == 1
            assert stats is not None
            assert digest == core.digest()
        with ServiceCore(
            _database(), 2, state_dir=str(state_dir)
        ) as core:
            assert core.seq == 1
            assert core.digest() == digest


class TestRetiredBackendSnapshot:
    """Snapshots written while ``numpy``/``int``/``tidset``/``diffset``
    were backend names still recover: those backends held big-int
    columns with ``auto``'s counts, so they load as ``auto``."""

    @pytest.mark.parametrize("retired", ["numpy", "int", "tidset", "diffset"])
    def test_snapshot_loads_as_auto(self, tmp_path, retired):
        with ServiceCore(_database(), 2) as reference:
            reference.append([7, 28])
            payload = _state_payload(reference.state, reference.seq, {})
            expected_digest = reference.digest()
            expected = reference.state
        assert payload["backend"] == "auto"
        payload["backend"] = retired
        state_dir = tmp_path / "state"
        state_dir.mkdir()
        Checkpoint(
            algorithm="service",
            universe_items=tuple(_database().universe.items),
            state=payload,
            accounting={"queries": payload["queries"]},
        ).save(state_dir / SNAPSHOT_NAME)
        with ServiceCore(
            _database(), 2, state_dir=str(state_dir)
        ) as core:
            assert core.seq == 1
            assert core.state.database.backend == "auto"
            assert core.state.supports == expected.supports
            assert core.state.maximal == expected.maximal
            assert core.state.negative == expected.negative
            assert core.digest() == expected_digest


# -- subprocess SIGKILL harness -----------------------------------------


def _spawn_server(data_path, state_dir):
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            str(data_path),
            "--min-support",
            "2",
            "--port",
            "0",
            "--state-dir",
            str(state_dir),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    banner = process.stdout.readline()
    assert "serving on http://" in banner, banner
    port = int(banner.split("http://", 1)[1].split("—")[0].strip().rsplit(":", 1)[1])
    return process, port


def _post_append(port, op_id, rows, timeout=10):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/append",
        data=json.dumps({"rows": rows, "op": op_id}).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def _send_all(port, batches) -> str:
    digest = None
    for op_id, rows in batches:
        digest = _post_append(port, op_id, rows)["digest"]
    return digest


@pytest.mark.skipif(os.name != "posix", reason="needs SIGKILL")
class TestSubprocessSIGKILL:
    @pytest.mark.parametrize("seed", [101, 202])
    def test_sigkill_midburst_recovers_bit_identical(
        self, tmp_path, seed
    ):
        rng = random.Random(seed)
        data = tmp_path / "data.dat"
        assert main(
            ["generate", str(data), "--items", str(N_ITEMS),
             "--transactions", "10", "--seed", "5"]
        ) == 0
        batches = _batches(rng, 10)

        reference_proc, reference_port = _spawn_server(
            data, tmp_path / "reference"
        )
        try:
            reference = _send_all(reference_port, batches)
        finally:
            reference_proc.terminate()
            reference_proc.wait(timeout=15)

        state_dir = tmp_path / "chaos"
        process, port = _spawn_server(data, state_dir)
        # Fire the burst; murder the server at a random instant inside
        # it.  Requests racing the kill may fail — that is the point.
        kill_after = rng.uniform(0.0, 0.2)
        killer = time.monotonic() + kill_after
        killed = False
        for op_id, rows in batches:
            if not killed and time.monotonic() >= killer:
                process.send_signal(signal.SIGKILL)
                process.wait(timeout=15)
                killed = True
            try:
                _post_append(port, op_id, rows, timeout=2)
            except (urllib.error.URLError, ConnectionError, OSError):
                pass
        if not killed:
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=15)

        # Restart on the same state directory, re-send everything.
        process, port = _spawn_server(data, state_dir)
        try:
            digest = _send_all(port, batches)
        finally:
            process.terminate()
            process.wait(timeout=15)
        assert digest == reference
