"""End-to-end smoke for the telemetry plane: serve traced, scrape, stitch.

Boots ``python -m repro serve --trace --trace-rotate`` on a generated
FIMI file and exercises the full observability surface over real HTTP:

* ``X-Request-Id`` round-trip — a client-supplied id is echoed, an
  omitted one is minted;
* ``/metrics`` content negotiation — the default scrape is Prometheus
  text exposition (``# TYPE`` headers, cumulative ``_bucket`` lines,
  per-endpoint latency histograms), ``Accept: application/json`` keeps
  the JSON counters form;
* enough traffic (mines, appends, a threshold move) to force at least
  one trace rotation;
* a ``SIGTERM`` shutdown, then offline checks on every rotated trace
  segment: each file independently passes
  :func:`~repro.obs.schema.validate_trace`, the stitched stream
  certifies under the :class:`~repro.obs.monitor.TheoremMonitor`, and
  :mod:`benchmarks.trace_report` folds a per-request latency table out
  of it.

CI runs this as ``make obs-smoke``::

    PYTHONPATH=src python -m benchmarks.obs_smoke smoke.dat \
        --trace /tmp/obs/trace.jsonl

Exits non-zero on the first divergence.
"""

from __future__ import annotations

import argparse
import glob
import json
import random
import signal
import subprocess
import sys
import time
import urllib.request

from repro.datasets.fimi import read_fimi
from repro.obs.monitor import TheoremMonitor
from repro.obs.schema import parse_trace, validate_trace

from benchmarks.trace_report import build_report

MIN_SUPPORT = 3
ROTATE_EVERY = 60


def _fetch(port: int, path: str, *, body=None, headers=None):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(body).encode() if body is not None else None,
        headers={
            **({"Content-Type": "application/json"} if body else {}),
            **(headers or {}),
        },
        method="POST" if body is not None else "GET",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.read(), dict(response.headers)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("data", help="FIMI .dat file to serve")
    parser.add_argument(
        "--trace", required=True, help="trace path (rotated siblings too)"
    )
    args = parser.parse_args(argv)

    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", args.data,
            "--min-support", str(MIN_SUPPORT), "--port", "0",
            "--trace", args.trace,
            "--trace-rotate", str(ROTATE_EVERY),
        ],
        stdout=subprocess.PIPE,
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
        print(f"obs-smoke: traced server up on port {port}")

        # Request-id round trip.
        _, headers = _fetch(
            port, "/health", headers={"X-Request-Id": "obs-smoke-1"}
        )
        assert headers["X-Request-Id"] == "obs-smoke-1", "id not echoed"
        _, headers = _fetch(port, "/health")
        assert len(headers["X-Request-Id"]) == 16, "no id minted"
        print("obs-smoke: X-Request-Id echoed and minted")

        # Content negotiation on /metrics.
        body, headers = _fetch(port, "/metrics")
        text = body.decode("utf-8")
        assert headers["Content-Type"].startswith("text/plain"), (
            f"default scrape is {headers['Content-Type']}"
        )
        assert "# TYPE repro_requests_total counter" in text
        assert 'repro_request_seconds_bucket{endpoint="/health"' in text
        assert "repro_admission_active" in text
        body, headers = _fetch(
            port, "/metrics", headers={"Accept": "application/json"}
        )
        payload = json.loads(body)
        assert payload["seq"] == 0 and "admission" in payload
        print("obs-smoke: /metrics negotiates Prometheus text and JSON")

        # Traffic: enough traced requests to force a rotation.
        database = read_fimi(args.data)
        n_items = len(database.universe)
        rng = random.Random(29)
        for batch in range(3):
            rows = [rng.getrandbits(n_items) for _ in range(5)]
            _fetch(port, "/append", body={"rows": rows})
        _fetch(port, "/threshold", body={"min_support": MIN_SUPPORT + 1})
        for _ in range(25):
            _fetch(port, "/mine")
            _fetch(port, "/borders")
        # Cold mines (below the maintained threshold) run a real eclat
        # under the request span — the stitched trace then carries
        # theorem-certifiable accounting, not just service plumbing.
        for _ in range(2):
            _fetch(port, "/mine?min_support=2")
        # Latency/status are recorded *after* the response bytes go out,
        # so a scrape racing the last request can be one observation
        # behind (Prometheus scrapes are eventually consistent).  Poll.
        expected = 'repro_requests_total{endpoint="/mine",status="200"} 27'
        deadline = time.monotonic() + 5.0
        while True:
            body, _ = _fetch(port, "/metrics")
            text = body.decode("utf-8")
            if expected in text or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        assert expected in text, "request counter did not track the mines"
        print("obs-smoke: production counters track the request mix")
    finally:
        process.send_signal(signal.SIGTERM)
        code = process.wait(timeout=15)
    assert code == 0, f"server exited {code}, wanted clean shutdown"

    segments = sorted(glob.glob(args.trace + "*"))
    assert len(segments) >= 2, (
        f"expected rotation to produce multiple segments, got {segments}"
    )
    monitor = TheoremMonitor()
    total = 0
    requests: dict = {}
    for segment in segments:
        records = parse_trace(segment)
        problems = validate_trace(records)
        assert not problems, f"{segment}: {problems}"
        total += len(records)
        for record in records:
            monitor.feed_record(record)
        report = build_report(records)
        for endpoint, stats in report["requests"].items():
            row = requests.setdefault(endpoint, 0)
            requests[endpoint] = row + stats["count"]
    assert requests.get("/mine", 0) == 27, f"request table: {requests}"
    verdict = monitor.report()
    assert verdict.ok, f"monitor rejected the stitched trace: {verdict}"
    assert verdict.checks, "cold mines should yield certifiable checks"
    print(
        f"obs-smoke: {len(segments)} trace segments, {total} records, "
        f"all valid; per-request table {requests}; "
        f"monitor ok ({len(verdict.checks)} checks)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
