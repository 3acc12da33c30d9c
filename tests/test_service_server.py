"""Graceful degradation and the HTTP surface of the mining service.

Two layers, bottom up: the :class:`AdmissionController` (bounded
queue, immediate shedding) and the stdlib HTTP server end to end —
including the 503 + ``Retry-After`` and certified-206 contracts.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.datasets.transactions import TransactionDatabase
from repro.obs.tracer import Tracer
from repro.service import (
    AdmissionController,
    MiningServer,
    Saturated,
    ServiceCore,
)
from repro.util.bitset import Universe


class RecordingTracer(Tracer):
    def __init__(self):
        self.events: list[tuple[str, dict]] = []

    def event(self, name, **attrs):
        self.events.append((name, attrs))

    def names(self) -> set[str]:
        return {name for name, _ in self.events}


# -- AdmissionController ------------------------------------------------


class TestAdmissionController:
    def test_admits_within_capacity(self):
        gate = AdmissionController(2, max_queued=0)
        with gate:
            with gate:
                snap = gate.snapshot()
                assert snap["active"] == 2
        snap = gate.snapshot()
        assert snap["active"] == 0
        assert snap["admitted"] == 2
        assert snap["shed"] == 0

    def test_sheds_immediately_when_queue_full(self):
        gate = AdmissionController(
            1, max_queued=0, retry_after=7.0
        )
        gate.acquire()
        try:
            with pytest.raises(Saturated) as excinfo:
                gate.acquire()
            assert excinfo.value.retry_after == 7.0
            assert gate.snapshot()["shed"] == 1
        finally:
            gate.release()

    def test_queued_waiter_sheds_after_timeout(self):
        gate = AdmissionController(
            1, max_queued=1, queue_timeout=0.05
        )
        gate.acquire()
        try:
            with pytest.raises(Saturated):
                gate.acquire()  # waits 0.05s, then shed
            snap = gate.snapshot()
            assert snap["shed"] == 1
            assert snap["waiting"] == 0
        finally:
            gate.release()

    def test_queued_waiter_admitted_on_release(self):
        gate = AdmissionController(1, max_queued=1, queue_timeout=5.0)
        gate.acquire()
        admitted = threading.Event()

        def waiter():
            gate.acquire()
            admitted.set()
            gate.release()

        thread = threading.Thread(target=waiter)
        thread.start()
        try:
            # The waiter is parked, not shed.
            assert not admitted.wait(0.05)
            gate.release()
            assert admitted.wait(2.0)
        finally:
            thread.join(timeout=2.0)
        snap = gate.snapshot()
        assert snap["admitted"] == 2
        assert snap["shed"] == 0

    def test_shed_emits_trace_event(self):
        tracer = RecordingTracer()
        gate = AdmissionController(1, max_queued=0, tracer=tracer)
        gate.acquire()
        with pytest.raises(Saturated):
            gate.acquire()
        gate.release()
        assert "service.shed" in tracer.names()

    def test_rejects_nonsensical_bounds(self):
        with pytest.raises(ValueError):
            AdmissionController(0)
        with pytest.raises(ValueError):
            AdmissionController(1, max_queued=-1)


# -- HTTP end to end ----------------------------------------------------


def _decode(headers, raw):
    if "application/json" in (headers.get("Content-Type") or ""):
        return json.loads(raw)
    return raw.decode("utf-8")


def _request(port, path, body=None, headers=None):
    url = f"http://127.0.0.1:{port}{path}"
    if body is not None:
        request = urllib.request.Request(
            url,
            data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json", **(headers or {})},
            method="POST",
        )
    else:
        request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return (
                response.status,
                _decode(response.headers, response.read()),
                dict(response.headers),
            )
    except urllib.error.HTTPError as error:
        return (
            error.code,
            _decode(error.headers, error.read()),
            dict(error.headers),
        )


@pytest.fixture()
def server(tmp_path):
    database = TransactionDatabase(
        Universe(["a", "b", "c", "d"]), [3, 3, 5, 9, 15, 7]
    )
    core = ServiceCore(database, 2, state_dir=str(tmp_path / "state"))
    srv = MiningServer(
        core,
        port=0,
        admission=AdmissionController(
            2, max_queued=0, retry_after=9.0
        ),
    ).start_background()
    yield srv
    srv.stop()


class TestHTTPEndpoints:
    def test_health(self, server):
        status, payload, _ = _request(server.port, "/health")
        assert status == 200
        assert payload == {"status": "ok", "seq": 0}

    def test_unknown_path_is_404(self, server):
        status, payload, _ = _request(server.port, "/nope")
        assert status == 404
        assert "unknown path" in payload["error"]

    def test_borders_match_core_state(self, server):
        status, payload, _ = _request(server.port, "/borders")
        assert status == 200
        state = server.core.state
        assert payload["maximal"] == list(state.maximal)
        assert payload["negative"] == list(state.negative)
        assert payload["threshold"] == 2

    def test_member_is_certified(self, server):
        status, payload, _ = _request(server.port, "/member?mask=3")
        assert status == 200
        assert payload["frequent"] is True
        assert payload["witness_kind"] == "Bd+"
        assert payload["witness"] & 3 == 3

    def test_member_rejects_bad_mask(self, server):
        status, payload, _ = _request(server.port, "/member?mask=zebra")
        assert status == 400
        status, _, _ = _request(server.port, "/member?mask=255")
        assert status == 400  # outside the universe

    def test_mine_hot_path(self, server):
        status, payload, _ = _request(server.port, "/mine")
        assert status == 200
        assert payload["partial"] is False
        assert payload["source"] == "hot"
        supports = dict(
            (mask, supp) for mask, supp in payload["supports"]
        )
        assert all(supp >= 2 for supp in supports.values())

    def test_mine_looser_threshold_runs_eclat(self, server):
        status, payload, _ = _request(server.port, "/mine?min_support=1")
        assert status == 200
        assert payload["source"] == "mined"
        assert payload["threshold"] == 1

    def test_mine_zero_deadline_returns_certified_206(self, server):
        status, payload, _ = _request(
            server.port, "/mine?min_support=1&deadline=0"
        )
        assert status == 206
        assert payload["partial"] is True
        assert payload["certified"] is True
        assert payload["reason"] == "timeout"

    def test_append_then_duplicate_is_idempotent(self, server):
        status, first, _ = _request(
            server.port, "/append", {"rows": [15, 11], "op": "batch-1"}
        )
        assert status == 200
        assert first["seq"] == 1
        assert first["duplicate"] is False
        status, second, _ = _request(
            server.port, "/append", {"rows": [15, 11], "op": "batch-1"}
        )
        assert status == 200
        assert second["seq"] == 1
        assert second["duplicate"] is True
        assert second["digest"] == first["digest"]

    def test_threshold_move(self, server):
        status, payload, _ = _request(
            server.port, "/threshold", {"min_support": 3}
        )
        assert status == 200
        assert payload["seq"] == 1
        status, borders, _ = _request(server.port, "/borders")
        assert borders["threshold"] == 3

    def test_append_without_rows_is_400(self, server):
        status, payload, _ = _request(server.port, "/append", {})
        assert status == 400

    def test_bad_append_is_400_and_leaves_service_usable(self, server):
        # Out-of-universe and negative rows are rejected *before* the
        # WAL, so the service keeps serving (and can keep restarting).
        status, _, _ = _request(
            server.port, "/append", {"rows": [1 << 10]}
        )
        assert status == 400
        status, _, _ = _request(server.port, "/append", {"rows": [-1]})
        assert status == 400
        # Rows must be JSON integers: no float, boolean or string is
        # coerced into a row.
        for rows in ([1.9], [True], ["7"], "15"):
            status, _, _ = _request(server.port, "/append", {"rows": rows})
            assert status == 400, rows
        # Op ids are strings: the ledger sorts them, and a snapshot
        # restores them as strings.
        status, _, _ = _request(
            server.port, "/append", {"rows": [15], "op": 1}
        )
        assert status == 400
        assert server.core.seq == 0
        status, payload, _ = _request(
            server.port, "/append", {"rows": [15], "op": "good"}
        )
        assert status == 200
        assert payload["seq"] == 1

    def test_bad_threshold_is_400_and_leaves_service_usable(self, server):
        status, _, _ = _request(
            server.port, "/threshold", {"min_support": -1}
        )
        assert status == 400
        status, _, _ = _request(
            server.port, "/threshold", {"min_support": 2.5}
        )
        assert status == 400
        for value in (True, False, "3"):
            status, _, _ = _request(
                server.port, "/threshold", {"min_support": value}
            )
            assert status == 400, value
        assert server.core.seq == 0
        status, payload, _ = _request(
            server.port, "/threshold", {"min_support": 3}
        )
        assert status == 200
        assert payload["seq"] == 1

    def test_oversized_body_is_413_without_reading_it(self, server):
        from repro.service.server import MAX_BODY_BYTES

        head = (
            "POST /append HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
        )
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=5
        ) as sock:
            sock.sendall(head.encode("ascii"))
            # Only the headers were sent: a server that waits for the
            # body never answers, and recv times out.
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        status_line, _, rest = reply.partition(b"\r\n")
        headers, _, body = rest.partition(b"\r\n\r\n")
        assert status_line.split()[1] == b"413"
        assert b"connection: close" in headers.lower()
        assert "limit" in json.loads(body)["error"]
        status, payload, _ = _request(server.port, "/health")
        assert status == 200
        assert payload["seq"] == 0

    def test_metrics_include_admission_snapshot(self, server):
        status, payload, _ = _request(
            server.port, "/metrics", headers={"Accept": "application/json"}
        )
        assert status == 200
        assert payload["n_transactions"] == 6
        assert payload["admission"]["max_concurrent"] == 2

    def test_metrics_default_is_prometheus_text(self, server):
        status, body, headers = _request(server.port, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in headers["Content-Type"]
        assert isinstance(body, str)
        assert "# TYPE repro_service_seq gauge" in body
        assert "repro_admission_active 0" in body
        assert body.endswith("\n")

    def test_request_id_echoed_and_minted(self, server):
        _, _, headers = _request(
            server.port, "/health", headers={"X-Request-Id": "abc-123"}
        )
        assert headers["X-Request-Id"] == "abc-123"
        _, _, headers = _request(server.port, "/health")
        assert len(headers["X-Request-Id"]) == 16

    def test_request_latency_histograms_always_on(self, server):
        _request(server.port, "/mine")
        _request(server.port, "/health")
        status, body, _ = _request(server.port, "/metrics")
        assert status == 200
        assert 'repro_request_seconds_count{endpoint="/mine"} 1' in body
        assert (
            'repro_requests_total{endpoint="/mine",status="200"} 1' in body
        )

    def test_saturation_is_503_with_retry_after(self, server):
        gate = server.admission
        gate.acquire()
        gate.acquire()  # both slots busy, queue length 0
        try:
            status, payload, headers = _request(server.port, "/mine")
            assert status == 503
            assert "saturated" in payload["error"]
            assert headers["Retry-After"] == "9"
            # Observability endpoints bypass admission.
            status, _, _ = _request(server.port, "/health")
            assert status == 200
            status, _, _ = _request(server.port, "/metrics")
            assert status == 200
        finally:
            gate.release()
            gate.release()
        status, _, _ = _request(server.port, "/mine")
        assert status == 200


class StitchRecorder(Tracer):
    """A shared tracer that keeps every stitched request record."""

    def __init__(self):
        self.stitched: list[dict] = []

    def stitch(self, records):
        self.stitched.extend(records)


def test_request_is_stitched_before_it_is_counted():
    """A client that sees a request in the counters may stop the
    server at once, so the request's records must already be in the
    shared tracer when ``observe_request`` counts it."""
    tracer = StitchRecorder()
    core = ServiceCore(
        TransactionDatabase(Universe(["a", "b", "c"]), [3, 5, 7]), 2
    )
    srv = MiningServer(core, port=0, tracer=tracer).start_background()
    observed: list[tuple[str, list]] = []
    observe = srv.observe_request

    def spy(endpoint, status, seconds):
        observed.append(
            (endpoint, [record["name"] for record in tracer.stitched])
        )
        observe(endpoint, status, seconds)

    srv.observe_request = spy
    try:
        status, _, _ = _request(srv.port, "/mine")
        assert status == 200
        # The counter is recorded after the response bytes go out.
        deadline = time.monotonic() + 10
        while not observed and time.monotonic() < deadline:
            time.sleep(0.01)
    finally:
        srv.stop()
    assert len(observed) == 1
    endpoint, stitched = observed[0]
    assert endpoint == "/mine"
    assert "service.request" in stitched
    assert "service.mine" in stitched
