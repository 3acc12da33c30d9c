"""End-to-end smoke for the mining service: start, mine, append, verify.

Boots ``python -m repro serve`` on a generated FIMI file, then drives
the whole advertised lifecycle over real HTTP: ``/health``,
``/borders``, a hot ``/mine``, an ``/append`` batch, a duplicate
``/append`` (idempotency), two rejected appends (an over-limit body
answers 413 and a float row 400, each leaving the digest unchanged), a
``/threshold`` raise, a ``/mine`` above it (read from a table built
from the state: ``"hot"``, no queries, the digest unchanged), cold
``/mine`` requests below it around an append at the raised threshold
(a miss that becomes the support table, a hit at a higher threshold
that the table answers, a miss below the first; none changes the
digest), a lower back (read from that table), and ``/metrics`` —
verifying after every mutation that the *incrementally maintained*
theory is bit-identical to from-scratch :func:`~repro.mining.eclat.eclat`
on the same rows, with a non-empty ``Bd-`` at every threshold compared
(an empty one would match a theory answered for the wrong threshold).
The server compacts every :data:`COMPACT_EVERY`
records, so a ``SIGTERM`` and a restart on the same state directory
recover from a snapshot plus WAL records; the recovered theory and one
more append are checked the same way.  Each ``SIGTERM`` must exit
cleanly, and the server's standard error must hold no ``Traceback``
(it is captured, and echoed to ours when not empty).  ``--backend``
(default ``auto``) is passed to ``repro serve``; the from-scratch
reference always mines the default backend, so the served theory is
also checked across backends.  CI runs this as
``make serve-smoke``, once per backend; it is also a quick local
check::

    PYTHONPATH=src python -m benchmarks.serve_smoke smoke.dat --state-dir /tmp/state

Exits non-zero on the first divergence.
"""

from __future__ import annotations

import argparse
import http.client
import json
import random
import signal
import subprocess
import sys
import tempfile
import urllib.error
import urllib.request

from repro.datasets.fimi import read_fimi
from repro.datasets.transactions import BACKENDS, TransactionDatabase
from repro.mining.eclat import eclat
from repro.service.server import MAX_BODY_BYTES

MIN_SUPPORT = 3
#: Compaction period of the smoke's server: the third record folds the
#: state into a snapshot, so the restart replays the fourth from WAL.
COMPACT_EVERY = 3


def _get(port: int, path: str) -> dict:
    # /metrics content-negotiates: ask for the JSON form explicitly
    # (the default exposition is Prometheus text).
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        headers={"Accept": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


def _post(port: int, path: str, body: dict) -> dict:
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


def _rejected_status(port: int, body: dict | None) -> int:
    """Status of an ``/append`` the server must refuse.

    ``body=None`` declares a body one byte over the server's limit and
    sends only the headers: the server must answer without reading it.
    """
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        if body is None:
            connection.putrequest("POST", "/append")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            connection.endheaders()
        else:
            connection.request(
                "POST", "/append", json.dumps(body).encode(),
                {"Content-Type": "application/json"},
            )
        return connection.getresponse().status
    finally:
        connection.close()


def _scratch(database, threshold):
    """From-scratch eclat at ``threshold``, refused when its ``Bd-`` is
    empty: then the whole lattice is frequent, and a served theory
    answered for the wrong threshold would still match it."""
    scratch = eclat(database, threshold)
    assert scratch.negative_border, (
        f"scratch Bd- is empty at {threshold}: the comparison is vacuous"
    )
    return scratch


def _check_against_scratch(port: int, database, threshold) -> None:
    """The served borders must equal a from-scratch eclat, bit for bit."""
    scratch = _scratch(database, threshold)
    borders = _get(port, "/borders")
    assert borders["maximal"] == list(scratch.maximal), "Bd+ diverged"
    assert borders["negative"] == list(scratch.negative_border), (
        "Bd- diverged"
    )
    mined = _get(port, "/mine")
    assert mined["partial"] is False and mined["source"] == "hot"
    assert dict(
        (mask, supp) for mask, supp in mined["supports"]
    ) == scratch.supports, "support table diverged"


def _digest(port: int) -> str:
    """The current digest: what a replay of an applied op returns."""
    return _post(port, "/append", {"rows": [], "op": "smoke-1"})["digest"]


def _mine_at(port: int, database, threshold: int, source: str) -> None:
    """A ``/mine`` off the maintained threshold must answer as scratch
    eclat does, from ``source``, and leave the digest as it was."""
    before = _digest(port)
    mined = _get(port, f"/mine?min_support={threshold}")
    scratch = _scratch(database, threshold)
    assert mined["partial"] is False
    assert mined["source"] == source, (threshold, mined["source"])
    assert mined["queries"] == (
        scratch.queries if source == "mined" else 0
    )
    assert dict(
        (mask, supp) for mask, supp in mined["supports"]
    ) == scratch.supports, f"/mine at {threshold}: supports diverged"
    assert mined["maximal"] == list(scratch.maximal), "Bd+ diverged"
    assert mined["negative"] == list(scratch.negative_border), (
        "Bd- diverged"
    )
    assert _digest(port) == before, f"/mine at {threshold} changed the digest"


def _start(args):
    """``repro serve`` on ``args``' data and state directory: the
    process, its port and the file its standard error goes to."""
    stderr = tempfile.TemporaryFile()
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", args.data,
            "--min-support", str(MIN_SUPPORT),
            "--port", "0", "--state-dir", args.state_dir,
            "--compact-every", str(COMPACT_EVERY),
            "--backend", args.backend,
        ],
        stdout=subprocess.PIPE,
        stderr=stderr,
        text=True,
    )
    try:
        banner = process.stdout.readline()
        assert "serving on http://" in banner, f"bad banner: {banner!r}"
        port = int(
            banner.split("http://", 1)[1]
            .split("—")[0]
            .strip()
            .rsplit(":", 1)[1]
        )
    except BaseException:
        _stop(process, stderr)
        raise
    print(
        f"serve-smoke: server up on port {port} "
        f"(backend {args.backend})"
    )
    return process, port, stderr


def _stop(process: subprocess.Popen, stderr) -> tuple[int, str]:
    """``SIGTERM`` the server; its exit code and standard error."""
    process.send_signal(signal.SIGTERM)
    code = process.wait(timeout=15)
    stderr.seek(0)
    text = stderr.read().decode("utf-8", "replace")
    stderr.close()
    if text:
        sys.stderr.write(text)
    return code, text


def _assert_clean(stopped: tuple[int, str]) -> None:
    code, stderr = stopped
    assert code == 0, f"server exited {code}, wanted clean shutdown"
    assert "Traceback" not in stderr, "the server printed a traceback"
    print("serve-smoke: clean shutdown, exit 0, no traceback")


def _append(port: int, database, rows: list[int], op: str):
    """Append ``rows`` as op ``op``; returns the response and the
    database the server should now hold."""
    response = _post(port, "/append", {"rows": rows, "op": op})
    assert response["duplicate"] is False
    return response, TransactionDatabase(
        database.universe, database.transaction_masks + rows
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("data", help="FIMI .dat file to serve")
    parser.add_argument("--state-dir", required=True)
    parser.add_argument("--backend", choices=BACKENDS, default="auto")
    args = parser.parse_args(argv)

    database = read_fimi(args.data)
    n_items = len(database.universe)
    rng = random.Random(13)
    raised = MIN_SUPPORT + 2

    process, port, stderr = _start(args)
    try:
        assert _get(port, "/health")["status"] == "ok"
        _check_against_scratch(port, database, MIN_SUPPORT)
        print("serve-smoke: initial theory == scratch eclat")

        delta = [rng.getrandbits(n_items) for _ in range(10)]
        first, database = _append(port, database, delta, "smoke-1")
        assert first["seq"] == 1
        _check_against_scratch(port, database, MIN_SUPPORT)
        print("serve-smoke: post-append theory == scratch eclat")

        again = _post(port, "/append", {"rows": delta, "op": "smoke-1"})
        assert again["duplicate"] is True and again["seq"] == 1
        assert again["digest"] == first["digest"], "idempotent replay mutated"
        print("serve-smoke: duplicate append is a no-op")

        for body, expected in ((None, 413), ({"rows": [1.5]}, 400)):
            status = _rejected_status(port, body)
            assert status == expected, f"{body}: {status}, wanted {expected}"
            # A replay of the applied op reports the current digest.
            again = _post(port, "/append", {"rows": delta, "op": "smoke-1"})
            assert again["digest"] == first["digest"], f"{body} mutated"
        print("serve-smoke: over-limit body is 413, float row 400, "
              "digest unchanged")

        _post(port, "/threshold", {"min_support": raised})
        _check_against_scratch(port, database, raised)
        print("serve-smoke: post-threshold theory == scratch eclat")

        # Half the rows: a stricter answer must differ from the
        # maintained theory to tell the two apart.
        stricter = database.n_transactions // 2
        assert eclat(database, stricter).supports != eclat(
            database, raised
        ).supports, "the stricter threshold does not change the theory"
        _mine_at(port, database, stricter, "hot")
        print("serve-smoke: /mine above the threshold == scratch eclat, "
              "digest unchanged")

        metrics = _get(port, "/metrics")
        assert metrics["seq"] == 2
        assert metrics["n_transactions"] == database.n_transactions

        _mine_at(port, database, MIN_SUPPORT, "mined")
        delta = [rng.getrandbits(n_items) for _ in range(10)]
        _, database = _append(port, database, delta, "smoke-2")
        _check_against_scratch(port, database, raised)
        print("serve-smoke: append at the raised threshold == scratch eclat")
        _mine_at(port, database, MIN_SUPPORT + 1, "table")
        _mine_at(port, database, MIN_SUPPORT - 1, "mined")
        print("serve-smoke: cold /mine miss, table hit, miss == scratch "
              "eclat, digest unchanged")

        _post(port, "/threshold", {"min_support": MIN_SUPPORT})
        _check_against_scratch(port, database, MIN_SUPPORT)
        print("serve-smoke: threshold lowered back (from the table) == "
              "scratch eclat")

        metrics = _get(port, "/metrics")
        assert metrics["seq"] == 4
        assert metrics["wal_pending"] == 4 - COMPACT_EVERY, metrics
    finally:
        stopped = _stop(process, stderr)
    _assert_clean(stopped)

    process, port, stderr = _start(args)
    try:
        metrics = _get(port, "/metrics")
        assert metrics["seq"] == 4 and metrics["threshold"] == MIN_SUPPORT
        _check_against_scratch(port, database, MIN_SUPPORT)
        print("serve-smoke: snapshot + WAL recovery == scratch eclat")

        delta = [rng.getrandbits(n_items) for _ in range(10)]
        _, database = _append(port, database, delta, "smoke-3")
        _check_against_scratch(port, database, MIN_SUPPORT)
        print("serve-smoke: append after recovery == scratch eclat")
    finally:
        stopped = _stop(process, stderr)
    _assert_clean(stopped)
    return 0


if __name__ == "__main__":
    sys.exit(main())
