"""The telemetry of four traced runs, pinned record by record.

Each run goes through the entry point a user drives — ``repro mine``
and ``repro transversals`` through :func:`repro.cli.main`, and a
:class:`~repro.service.MiningServer` behind the CLI's own observability
stack — and its JSONL trace is reduced to what does not depend on the
clock, the pid or the shared-memory name: ``ts`` and ``dur`` are
dropped, and so are the ``seconds`` attr (a wall time), the
``segment`` attr (a shm name) and ``worker.task``'s ``worker`` (a pid).
Kind, name, id, parent, error, every other attr and the record order
are kept and hashed.  Beside each digest the tests pin what the
stream's other consumers concluded from it: the metrics registry's
counters and histogram counts, and the theorem monitor's verdict,
both as the CLI printed it and as an offline replay of the file
concludes it.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import time

import pytest

from repro.cli import _build_tracer, main
from repro.datasets.fimi import read_fimi
from repro.obs import TheoremMonitor, parse_trace, validate_trace
from repro.obs.metrics import labelled
from repro.service import MiningServer, ServiceCore

DATA = ["--items", "16", "--transactions", "120", "--avg-length", "5",
        "--seed", "7"]
EDGES = "0 1, 1 2, 2 3, 3 4, 4 5, 5 0, 0 2, 1 3, 2 4"


ECLAT_VERDICT = (
    "theorem monitor: ok (3/3 checks passed: theorem12, theorem2_floor, "
    "trace_accounting; 0 violations)"
)


def _normalized(records):
    out = []
    for record in records:
        kept = {
            key: value
            for key, value in record.items()
            if key not in ("ts", "dur", "attrs")
        }
        attrs = dict(record.get("attrs") or {})
        attrs.pop("seconds", None)
        attrs.pop("segment", None)
        if record["name"] == "worker.task":
            attrs.pop("worker", None)
        if attrs:
            kept["attrs"] = attrs
        out.append(kept)
    return out


def _digest(records):
    text = json.dumps(_normalized(records), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _replayed(records):
    report = TheoremMonitor.from_trace(records).report()
    return (
        report.ok,
        [
            (check.name, check.ok, check.measured, check.expected,
             check.bound)
            for check in report.checks
        ],
        list(report.violations),
    )


def _metrics_table(stderr):
    """The counters and histogram counts of a ``--metrics`` table."""
    counters, histograms = {}, {}
    for line in stderr.splitlines():
        fields = line.split()
        if len(fields) >= 3 and fields[1] == "counter":
            counters[fields[0]] = int(fields[2])
        elif len(fields) >= 3 and fields[1] == "histogram":
            histograms[fields[0]] = int(fields[2].removeprefix("n="))
    return counters, histograms


def _monitor_line(stderr):
    [line] = [
        line for line in stderr.splitlines()
        if line.startswith("theorem monitor:")
    ]
    return line


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("pinned") / "data.dat")
    assert main(["generate", path, *DATA]) == 0
    return path


def _traced(capsys, tmp_path, argv):
    capsys.readouterr()
    trace = str(tmp_path / "trace.jsonl")
    assert main([*argv, "--trace", trace]) == 0
    stderr = capsys.readouterr().err
    records = parse_trace(trace)
    assert validate_trace(records) == []
    return records, stderr


def test_cli_eclat_mine(dataset, tmp_path, capsys):
    records, stderr = _traced(capsys, tmp_path, [
        "mine", dataset, "--min-support", "0.1", "--algorithm", "eclat",
        "--metrics",
    ])
    assert len(records) == 1654
    assert _digest(records) == (
        "dee65680e2b77643f721eca74944a8075def38e6862aeb0efb5876dd883d5518"
    )
    assert _metrics_table(stderr) == (
        {
            "events.eclat.done": 1,
            "events.eclat.node": 375,
            "events.oracle.query": 1276,
        },
        {"span.eclat.run.seconds": 1},
    )
    assert _monitor_line(stderr) == ECLAT_VERDICT
    assert _replayed(records) == (
        True,
        [
            ("trace_accounting", True, 1276, 1276, None),
            ("theorem2_floor", True, 1276, None, 709),
            ("theorem12", True, 1276, None, 122369),
        ],
        [],
    )


def test_cli_mmcs_transversals(tmp_path, capsys):
    records, stderr = _traced(capsys, tmp_path, [
        "transversals", "--edges", EDGES, "--method", "mmcs",
    ])
    assert len(records) == 25
    assert _digest(records) == (
        "d7f46b4f5614d22a0763e3829ec51f204f68ab276c6e944364c35bdae6133c05"
    )
    assert _monitor_line(stderr) == (
        "theorem monitor: ok (3/3 checks passed: mmcs_antichain, "
        "mmcs_nodes, mmcs_outputs; 0 violations)"
    )
    assert _replayed(records) == (
        True,
        [
            ("mmcs_outputs", True, 6, 6, None),
            ("mmcs_antichain", True, 6, None, None),
            ("mmcs_nodes", True, 16, 16, None),
        ],
        [],
    )


def test_cli_eclat_two_workers(dataset, tmp_path, capsys):
    records, stderr = _traced(capsys, tmp_path, [
        "mine", dataset, "--min-support", "0.1", "--algorithm", "eclat",
        "--workers", "2", "--metrics",
    ])
    assert len(records) == 1580
    assert _digest(records) == (
        "fc594cd28ca2e7cc7b51b6c292fcb8ac43d9ba59eb50c95e751f53cac8e548eb"
    )
    assert _metrics_table(stderr) == (
        {
            "events.eclat.done": 1,
            "events.eclat.node": 13,
            "events.oracle.query": 1276,
            "events.shm.attach": 1,
            "events.shm.publish": 1,
            "events.worker.batch": 95,
            "events.worker.pool": 1,
        },
        {"span.eclat.run.seconds": 1, "span.worker.task.seconds": 95},
    )
    assert _monitor_line(stderr) == ECLAT_VERDICT
    assert _replayed(records) == (
        True,
        [
            ("trace_accounting", True, 1276, 1276, None),
            ("theorem2_floor", True, 1276, None, 709),
            ("theorem12", True, 1276, None, 122369),
        ],
        [],
    )


#: (method, path, JSON body or None); every request carries its own
#: ``X-Request-Id``.
REQUESTS = [
    ("GET", "/health", None),
    ("GET", "/borders", None),
    ("GET", "/member?mask=6", None),
    ("GET", "/mine", None),
    ("GET", "/mine?min_support=6", None),
    ("POST", "/append", {"rows": [7, 12, 1030], "op": "pin-append"}),
    ("POST", "/threshold", {"min_support": 10}),
    ("GET", "/mine?min_support=8", None),
    ("GET", "/metrics", None),
]


def _served(endpoint):
    return labelled("repro_requests_total", endpoint=endpoint, status="200")


def _latency(endpoint):
    return labelled("repro_request_seconds", endpoint=endpoint)


def _await_requests(registry, count):
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and sum(
        value
        for name, value in registry.snapshot()["counters"].items()
        if name.startswith("repro_requests_total")
    ) < count:
        time.sleep(0.005)


def test_served_requests(dataset, tmp_path, capsys):
    trace = str(tmp_path / "serve.jsonl")
    obs = _build_tracer(
        argparse.Namespace(trace=trace, metrics=True, profile=None)
    )
    core = ServiceCore(
        read_fimi(dataset), 12, tracer=obs.tracer, registry=obs.registry
    )
    server = MiningServer(
        core, port=0, tracer=obs.tracer, registry=obs.registry,
        trace_writer=obs.writer,
    ).start_background()
    try:
        statuses = []
        for index, (method, path, body) in enumerate(REQUESTS):
            headers = {"X-Request-Id": f"pin-{index:02d}"}
            payload = None
            if body is not None:
                payload = json.dumps(body).encode()
                headers["Content-Type"] = "application/json"
            connection = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=30
            )
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            response.read()
            connection.close()
            assert response.getheader("X-Request-Id") == headers[
                "X-Request-Id"
            ]
            statuses.append(response.status)
            # A request is stitched, then counted, after its answer
            # went out: wait for the count so that the next request's
            # records cannot land first.
            _await_requests(obs.registry, index + 1)
    finally:
        server.stop()
        capsys.readouterr()
        obs.finalize()
    stderr = capsys.readouterr().err
    assert statuses == [200] * len(REQUESTS)
    records = parse_trace(trace)
    assert validate_trace(records) == []
    assert len(records) == 9001
    assert _digest(records) == (
        "3a90c9e57ba893966fb2648c852eb6db9dca6fc7a2c17a6cb8006c484bcc7ecf"
    )
    snapshot = obs.registry.snapshot()

    assert snapshot["counters"] == {
        "events.eclat.done": 1,
        "events.eclat.node": 2480,
        "events.oracle.query": 6476,
        "events.service.append": 1,
        "events.service.repair": 2,
        "events.service.threshold": 1,
        "repro_requests_shed_total": 0,
        _served("/append"): 1,
        _served("/borders"): 1,
        _served("/health"): 1,
        _served("/member"): 1,
        _served("/metrics"): 1,
        _served("/mine"): 3,
        _served("/threshold"): 1,
    }

    assert {
        name: histogram["count"]
        for name, histogram in snapshot["histograms"].items()
    } == {
        _latency("/append"): 1,
        _latency("/borders"): 1,
        _latency("/health"): 1,
        _latency("/member"): 1,
        _latency("/metrics"): 1,
        _latency("/mine"): 3,
        _latency("/threshold"): 1,
        "span.eclat.run.seconds": 1,
        "span.service.admission.seconds": 5,
        "span.service.apply.seconds": 2,
        "span.service.mine.seconds": 3,
        "span.service.request.seconds": 9,
    }
    assert _monitor_line(stderr) == ECLAT_VERDICT
    assert _replayed(records) == (
        True,
        [
            ("trace_accounting", True, 6476, 6476, None),
            ("theorem2_floor", True, 6476, None, 1358),
            ("theorem12", True, 6476, None, 1994753),
        ],
        [],
    )
