"""The ``serve_mixed`` workload: a closed-loop request mix against
``repro serve``.

The server runs as its own process with durable fsync, exactly as a user
starts it (``python -m repro serve data.dat --state-dir DIR``), except
that ``--compact-every`` is lowered from 64 to 16 so the ~40 writes of a
run trigger compaction two or three times.  Two client threads, each
with one keep-alive connection, replay a seeded plan of fixed batches
(:data:`~benchmarks.ledger.inputs.BATCH_MIX`); a job is one batch.

The traced run adds two views the HTTP run cannot give: the server's own
``/metrics`` (WAL fsync, compactions, shedding, server-side latency)
and an in-process :class:`~repro.service.ServiceCore` twin that replays
the same plan with a span around every core call, plus a probe pass
that prices ``apply_append`` and ``WriteAheadLog.append`` on the exact
pre-state of each append.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

from benchmarks.ledger.child import peak_rss_mb, spawn
from benchmarks.ledger.inputs import (
    BATCH_SIZE,
    COLD_SUPPORT,
    HOT_SUPPORT,
    READ_KINDS,
    WRITE_KINDS,
    BasketShape,
    derive_seed,
    request_plan,
    write_baskets,
)
from benchmarks.ledger.spans import Ledger, median_of, unattributed_frac

NAME = "serve_mixed"
FULL = BasketShape(40, 10_000, 20, 6.0, 0.25, 6.0, shape_seed=11)
SMOKE = BasketShape(24, 2_000, 10, 4.0, 0.25, 4.0, shape_seed=11)
COMPACT_EVERY = 16
CLIENTS = 2
MAX_BATCHES = 5_000
#: Fixed-length probe pass, so its counts compare across runs.
PROBE_BATCHES = 4
STARTUP_TIMEOUT = 60.0
REQUEST_TIMEOUT = 60.0
READ_ENDPOINTS = ("/member", "/borders", "/health")


class ServeFailed(RuntimeError):
    """The server failed to start, answer, or stop."""


def make_inputs(seed: int, workdir: Path, smoke: bool) -> dict:
    shape = SMOKE if smoke else FULL
    path = workdir / "serve.dat"
    write_baskets(path, shape, derive_seed(seed, NAME))
    return {"path": str(path), "shape": shape, "seed": seed,
            "workdir": str(workdir)}


def mask_of(items) -> int:
    """Item ids are universe indices: every item occurs in the data."""
    mask = 0
    for item in items:
        mask |= 1 << item
    return mask


# -- server process ----------------------------------------------------------


class Server:
    """One ``repro serve`` process on a fresh state directory."""

    def __init__(self, data_path: str, state_dir: Path, src: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p
        )
        started = time.perf_counter()
        self.log = open(state_dir.with_suffix(".log"), "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", data_path,
             "--min-support", str(HOT_SUPPORT), "--port", "0",
             "--state-dir", str(state_dir),
             "--compact-every", str(COMPACT_EVERY)],
            stdout=subprocess.PIPE, stderr=self.log, env=env,
        )
        try:
            self.port = self._read_port()
            client = Client(self.port)
            try:
                status, _ = client.call("GET", "/health")
            finally:
                client.close()
            if status != 200:
                raise ServeFailed(f"/health answered {status}")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _read_port(self) -> int:
        timer = threading.Timer(STARTUP_TIMEOUT, self.process.kill)
        timer.start()
        try:
            banner = self.process.stdout.readline().decode("utf-8", "replace")
        finally:
            timer.cancel()
        found = re.search(r"http://[^:]+:(\d+)", banner)
        if found is None:
            raise ServeFailed(f"no serving banner (got {banner!r})")
        return int(found.group(1))

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.log.close()


class Client:
    """One keep-alive HTTP connection."""

    def __init__(self, port: int):
        self.connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT
        )

    def call(self, method: str, path: str, body: dict | None = None):
        if body is None:
            self.connection.request(method, path)
        else:
            self.connection.request(
                method, path, body=json.dumps(body).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
        response = self.connection.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.connection.close()


def _http_request(request):
    """(method, path, body) of one planned request."""
    kind = request.kind
    if kind == "mine":
        return "GET", "/mine", None
    if kind == "member":
        return "GET", f"/member?mask={mask_of(request.items)}", None
    if kind == "borders":
        return "GET", "/borders", None
    if kind == "health":
        return "GET", "/health", None
    if kind == "append":
        return "POST", "/append", {"rows": [mask_of(r) for r in request.rows]}
    if kind == "threshold":
        return "POST", "/threshold", {"min_support": request.value}
    return "GET", f"/mine?min_support={COLD_SUPPORT}", None


class LoadResult:
    """Batch times, per-request samples and acknowledged appends."""

    def __init__(self):
        self.batch_times: list[float] = []
        self.samples: list[tuple[str, float]] = []
        self.failures: list[str] = []
        self.appended: list[int] = []
        self.lock = threading.Lock()

    @property
    def attempted(self) -> int:
        return len(self.samples) + len(self.failures)


def _client_loop(client: Client, requests, load: LoadResult) -> None:
    for request in requests:
        method, path, body = _http_request(request)
        start = time.perf_counter()
        try:
            status, _ = client.call(method, path, body)
        except (OSError, http.client.HTTPException) as error:
            client.close()
            with load.lock:
                load.failures.append(f"{request.kind}: {error!r}")
            continue
        elapsed = time.perf_counter() - start
        with load.lock:
            if status != 200:
                load.failures.append(f"{request.kind}: HTTP {status}")
                continue
            load.samples.append((request.kind, elapsed))
            if request.kind == "append":
                load.appended.extend(body["rows"])


def run_load(port: int, inputs: dict, seconds: float) -> LoadResult:
    """Closed loop: an untimed warm-up batch, then batches until
    ``seconds`` of batch time elapsed."""
    load = LoadResult()
    clients = [Client(port) for _ in range(CLIENTS)]
    try:
        plan = request_plan(inputs["shape"], inputs["seed"], MAX_BATCHES)
        for index, batch in enumerate(plan):
            threads = [
                threading.Thread(
                    target=_client_loop,
                    args=(clients[i], batch[i::CLIENTS], load),
                )
                for i in range(CLIENTS)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if index:
                load.batch_times.append(time.perf_counter() - start)
            if sum(load.batch_times) >= seconds:
                break
    finally:
        for client in clients:
            client.close()
    return load


def check(port: int, inputs: dict, load: LoadResult) -> list[str]:
    """Final ``/borders`` and hot ``/mine`` must equal a from-scratch
    Eclat over the base rows plus every acknowledged append."""
    from repro.datasets import TransactionDatabase, read_fimi
    from repro.mining import eclat

    client = Client(port)
    try:
        status_b, borders = client.call("GET", "/borders")
        status_m, mined = client.call("GET", "/mine")
    finally:
        client.close()
    if status_b != 200 or status_m != 200:
        return [f"final reads answered {status_b}/{status_m}"]
    borders, mined = json.loads(borders), json.loads(mined)
    base = read_fimi(inputs["path"])
    universe = base.universe
    if tuple(universe.items) != tuple(range(inputs["shape"].n_items)):
        return ["base data does not use every item"]
    database = TransactionDatabase(
        universe, list(base.transaction_masks) + load.appended
    )
    reference = eclat(database, borders["threshold"])
    errors = []
    if borders["maximal"] != list(reference.maximal):
        errors.append("final /borders Bd+ differs from a fresh mine")
    if borders["negative"] != list(reference.negative_border):
        errors.append("final /borders Bd- differs from a fresh mine")
    if dict(map(tuple, mined["supports"])) != reference.supports:
        errors.append("final hot /mine supports differ from a fresh mine")
    if mined["maximal"] != list(reference.maximal):
        errors.append("final hot /mine Bd+ differs from a fresh mine")
    return errors


# -- untraced run ------------------------------------------------------------


def run(inputs: dict, seconds: float, processes: int, src: Path) -> dict:
    """End-to-end metrics over ``processes`` fresh servers.

    Each server starts on its own empty state directory and serves the
    plan from its first batch for ``seconds / processes`` of batch time,
    so every server sees the same growth of its state; the run reports
    the medians of start-up times, batch times and peak RSS.
    """
    workdir = Path(inputs["workdir"])
    setup_times: list[float] = []
    batch_times: list[float] = []
    peaks: list[float] = []
    errors: list[str] = []
    failures: list[str] = []
    attempted = 0
    for index in range(processes):
        server = Server(inputs["path"], workdir / f"state-{index}", src)
        try:
            load = run_load(server.port, inputs, seconds / processes)
            errors += check(server.port, inputs, load)
            peaks.append(peak_rss_mb(server.process.pid))
        finally:
            server.stop()
        setup_times.append(server.setup_s)
        batch_times += load.batch_times
        failures += load.failures
        attempted += load.attempted
    return {
        "errors": errors,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "job_times": batch_times,
        "metrics": {
            "setup_s": statistics.median(setup_times),
            "job_s": statistics.median(batch_times),
            "peak_rss_mb": statistics.median(peaks),
        },
    }


# -- traced run --------------------------------------------------------------


def _prometheus(text: str) -> dict[str, float]:
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            values[key] = float(value)
    return values


def _scrape(port: int) -> dict[str, float]:
    client = Client(port)
    try:
        status, body = client.call("GET", "/metrics")
    finally:
        client.close()
    if status != 200:
        raise ServeFailed(f"/metrics answered {status}")
    return _prometheus(body.decode("utf-8"))


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def http_metrics(load: LoadResult, before: dict, after: dict) -> dict:
    """Client-side latencies by class, and what ``/metrics`` adds."""
    by_kind: dict[str, list[float]] = {}
    for kind, seconds in load.samples:
        by_kind.setdefault(kind, []).append(seconds)
    reads = [s for k in READ_KINDS for s in by_kind.get(k, ())]
    writes = [s for k in WRITE_KINDS for s in by_kind.get(k, ())]

    def delta(key: str) -> float:
        return after.get(key, 0.0) - before.get(key, 0.0)

    server_sum = server_count = 0.0
    for endpoint in READ_ENDPOINTS:
        label = f'{{endpoint="{endpoint}"}}'
        server_sum += delta(f"repro_request_seconds_sum{label}")
        server_count += delta(f"repro_request_seconds_count{label}")
    client_reads = [s for k in ("member", "borders", "health")
                    for s in by_kind.get(k, ())]
    fsyncs = delta("repro_wal_fsync_seconds_count")
    return {
        "http.req_per_s":
            BATCH_SIZE * len(load.batch_times) / sum(load.batch_times),
        "http.read_p50_ms": statistics.median(reads) * 1e3,
        "http.read_p95_ms": _percentile(reads, 0.95) * 1e3,
        "http.write_p50_ms": statistics.median(writes) * 1e3,
        "http.write_p95_ms": _percentile(writes, 0.95) * 1e3,
        "http.cold_mine_p50_ms": statistics.median(by_kind["cold"]) * 1e3,
        "service.wal_fsync_mean_ms":
            delta("repro_wal_fsync_seconds_sum") / fsyncs * 1e3,
        "service.compactions": int(delta("repro_compaction_seconds_count")),
        "service.shed": int(delta("repro_requests_shed_total")),
        "service.http_overhead_ms": (
            statistics.mean(client_reads) - server_sum / server_count
        ) * 1e3,
    }


def trace(inputs: dict, seconds: float, src: Path) -> dict:
    """Per-layer metrics: HTTP half against the untraced server, then
    the in-process twin in a spawned child."""
    workdir = Path(inputs["workdir"])
    server = Server(inputs["path"], workdir / "state-trace", src)
    try:
        before = _scrape(server.port)
        load = run_load(server.port, inputs, seconds / 2)
        after = _scrape(server.port)
        errors = check(server.port, inputs, load)
    finally:
        server.stop()
    metrics = http_metrics(load, before, after)
    _, body = spawn(twin_main, inputs, seconds / 2, label=f"{NAME} twin")
    metrics.update(body["metrics"])
    return {
        "errors": errors,
        "attempted": load.attempted + body["attempted"],
        "failed": len(load.failures),
        "failures": load.failures[:5],
        "metrics": metrics,
        "spans": body["spans"],
    }


def _execute(core, request, mask_rows):
    kind = request.kind
    if kind == "append":
        return core.append(mask_rows)
    if kind == "threshold":
        return core.set_threshold(request.value)
    if kind == "mine":
        return core.mine()
    if kind == "cold":
        return core.mine(COLD_SUPPORT)
    if kind == "member":
        return core.member(mask_of(request.items))
    if kind == "borders":
        state = core.state
        return list(state.maximal), list(state.negative)
    return core.seq


def _twin(inputs: dict, seconds: float) -> dict:
    from repro.datasets import read_fimi
    from repro.service import ServiceCore, WriteAheadLog, apply_append

    workdir = Path(inputs["workdir"])
    database = read_fimi(inputs["path"])
    ledger = Ledger(NAME)
    plain: list[float] = []
    traced: list[float] = []
    core = ServiceCore(database, HOT_SUPPORT, state_dir=workdir / "twin",
                       compact_every=COMPACT_EVERY)
    attempted = 0
    try:
        plan = request_plan(inputs["shape"], inputs["seed"], MAX_BATCHES)
        for index, batch in enumerate(plan):
            rows = [[mask_of(r) for r in q.rows] for q in batch]
            attempted += len(batch)
            if index == 0:  # untimed warm-up, as in the batch workloads
                for request, masks in zip(batch, rows):
                    _execute(core, request, masks)
                continue
            start = time.perf_counter()
            if index % 2:
                with ledger.span("job", index):
                    for request, masks in zip(batch, rows):
                        with ledger.span(f"service.{request.kind}", index):
                            _execute(core, request, masks)
                traced.append(time.perf_counter() - start)
            else:
                for request, masks in zip(batch, rows):
                    _execute(core, request, masks)
                plain.append(time.perf_counter() - start)
            if len(traced) >= 2 and sum(plain) + sum(traced) >= seconds:
                break
    finally:
        core.close()

    # Probe pass: a fresh twin replays the first PROBE_BATCHES; before
    # each append, the repair and the fsync'd log write are priced on
    # the same pre-state.
    core = ServiceCore(database, HOT_SUPPORT, state_dir=workdir / "probe",
                       compact_every=COMPACT_EVERY)
    scratch = WriteAheadLog(str(workdir / "scratch.wal"))
    repairs, wals, others = [], [], []
    evaluated = writes = 0
    try:
        plan = request_plan(inputs["shape"], inputs["seed"], PROBE_BATCHES)
        for batch in plan:
            for request in batch:
                masks = [mask_of(r) for r in request.rows]
                if request.kind == "append":
                    t0 = time.perf_counter()
                    apply_append(core.state, masks)
                    t1 = time.perf_counter()
                    scratch.append("append", rows=masks)
                    t2 = time.perf_counter()
                    _, stats, _ = core.append(masks)
                    t3 = time.perf_counter()
                    repairs.append(t1 - t0)
                    wals.append(t2 - t1)
                    others.append((t3 - t2) - (t1 - t0) - (t2 - t1))
                elif request.kind == "threshold":
                    _, stats, _ = core.set_threshold(request.value)
                else:
                    _execute(core, request, masks)
                    continue
                evaluated += stats.evaluated
                writes += 1
        remines = core.state.remines
    finally:
        scratch.close()
        core.close()

    records = ledger.records
    metrics = {
        "service.append_ms": median_of(records, "service.append") * 1e3,
        "service.threshold_ms": median_of(records, "service.threshold") * 1e3,
        "service.mine_hot_ms": median_of(records, "service.mine") * 1e3,
        "service.mine_cold_ms": median_of(records, "service.cold") * 1e3,
        "service.member_us": median_of(records, "service.member") * 1e6,
        "service.repair_ms": statistics.median(repairs) * 1e3,
        "service.wal_ms": statistics.median(wals) * 1e3,
        "service.append_other_ms": statistics.median(others) * 1e3,
        "service.evaluated": evaluated / writes,
        "service.remines": remines,
        f"ledger.{NAME}.unattributed_frac": unattributed_frac(records),
        f"ledger.{NAME}.trace_overhead":
            statistics.median(traced) / statistics.median(plain),
    }
    return {"metrics": metrics, "spans": records, "attempted": attempted}


def twin_main(conn, inputs: dict, seconds: float) -> None:
    """Spawned-child entry for the in-process twin (the protocol of
    :func:`benchmarks.ledger.child.child_main`)."""
    try:
        conn.send(("ready", None))
        conn.send(("done", _twin(inputs, seconds)))
    except Exception:
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()
