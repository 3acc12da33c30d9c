"""The zero-dependency HTTP front end of the mining service.

Stdlib only — :class:`http.server.ThreadingHTTPServer` with one thread
per connection — because the service layer's value is the protocol
(WAL-first durability, certified answers, bounded admission), not the
web framework.  Endpoints, all JSON unless noted:

=====================  ====  ==============================================
path                   verb  behavior
=====================  ====  ==============================================
``/health``            GET   liveness + current sequence number
``/metrics``           GET   Prometheus text exposition (version 0.0.4)
                             by default — per-endpoint latency
                             histograms, admission gauges, shed/partial
                             counters, WAL fsync and compaction
                             histograms, plus the maintained-theory
                             counters as ``repro_service_*`` gauges.
                             ``Accept: application/json`` keeps the
                             original JSON counters form
``/borders``           GET   ``Bd+`` / ``Bd-`` of the maintained theory
``/member?mask=M``     GET   certified membership via the border bracket
``/mine``              GET   frequent itemsets at ``min_support`` (query
                             param; defaults to the maintained threshold).
                             Hot thresholds are served with zero database
                             work (``"source": "hot"``); looser ones are
                             read from the last cold mine's support table
                             when its floor covers them (``"table"``,
                             ``"queries": 0``), else mined under the
                             request deadline (``"mined"``), which may
                             return **206** with a certified partial
                             result
``/append``            POST  ``{"rows": [...], "op": "..."}`` — durably
                             append transactions, repair the borders
``/threshold``         POST  ``{"min_support": x, "op": "..."}`` — move
                             the maintained threshold
=====================  ====  ==============================================

Degradation contract (the acceptance criteria of the service):

* expensive endpoints (``/mine``, ``/append``, ``/threshold``) pass
  through the :class:`~repro.service.admission.AdmissionController`;
  saturation answers **503** with a ``Retry-After`` header immediately
  instead of queueing unboundedly;
* every mine runs under a :class:`~repro.runtime.budget.Budget`
  deadline (``deadline`` query param, a number capped by the server
  maximum; a NaN or negative one is a **400**); a cut returns **206** with the certified bracket — ``Bd+`` so far, the
  verified ``Bd-`` prefix, the open frontier — never a silently
  truncated answer;
* ``/health`` and ``/metrics`` bypass admission, so the server stays
  observable while shedding.

Observability contract (per request):

* every request gets a **request id** — the client's ``X-Request-Id``
  header, or a fresh one — echoed back as ``X-Request-Id`` on the
  response and attached to the request's trace records;
* when tracing is on, each request records into its own
  :class:`~repro.obs.context.RecordBuffer`: a ``service.request`` span
  tree covering admission wait (``service.admission``), WAL fsync
  (``service.wal``), border repair (``service.apply``), and the mine
  itself (``service.mine`` with the full ``eclat.run`` tree on cold
  mines).  The finished batch is stitched into the shared tracer under
  one lock at request end, so the shared tracer's consumers (the
  :class:`~repro.obs.jsonl.JsonlTraceWriter`, the registry, the
  monitor) see each request as one contiguous, balanced,
  monitor-certifiable block — never interleaved records from
  concurrent handler threads;
* the **registry instruments are always on** (no tracing needed):
  ``repro_request_seconds{endpoint=...}`` latency histograms,
  ``repro_requests_total{endpoint=...,status=...}``,
  ``repro_partial_results_total``, the admission gauges/shed counter,
  and the WAL/compaction histograms the core feeds.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.core.errors import ReproError
from repro.obs.context import RecordBuffer, TraceContext
from repro.obs.metrics import (
    LATENCY_SECONDS_BUCKETS,
    MetricsRegistry,
    labelled,
    render_prometheus,
)
from repro.obs.tracer import NULL_TRACER, as_tracer
from repro.runtime.budget import Budget
from repro.runtime.partial import PartialResult
from repro.service.admission import AdmissionController, Saturated
from repro.service.encoding import encode_families, object_pieces
from repro.service.state import ServiceCore

__all__ = ["MiningServer"]

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Largest request body a handler reads.  A longer ``Content-Length``
#: answers 413 before any of the body is read, and the connection
#: closes, so one request cannot make a handler thread buffer whatever
#: a client sends.  4 MiB holds about 280,000 rows of a 40-item
#: universe as decimal JSON; the largest append of the smokes and the
#: ledger is 10 such rows.
MAX_BODY_BYTES = 1 << 22


class _BodyTooLarge(Exception):
    """A request declared a body longer than :data:`MAX_BODY_BYTES`."""


def _partial_payload(partial: PartialResult) -> dict:
    """JSON shape of a certified partial answer (HTTP 206 body)."""
    certificate = partial.certificate()
    return {
        "partial": True,
        "algorithm": partial.algorithm,
        "reason": partial.reason,
        "interesting": list(partial.interesting),
        "positive_border": list(partial.positive_border),
        "negative": list(partial.negative),
        "frontier": list(partial.frontier),
        "frontier_kind": partial.frontier_kind,
        "frontier_complete": partial.frontier_complete,
        "queries": partial.queries,
        "certified": bool(certificate.ok),
    }


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-miner/1.0"
    # Keep-alive clients otherwise hit Nagle/delayed-ACK stalls (tens
    # of milliseconds per small JSON response); every response here is
    # a single complete write, so there is nothing for Nagle to batch.
    disable_nagle_algorithm = True

    # -- plumbing -----------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        pass  # request logging goes through the tracer, not stderr

    @property
    def core(self) -> ServiceCore:
        return self.server.core

    def parse_request(self) -> bool:
        # One handler serves every request of a keep-alive connection,
        # so each request resolves its own id.
        self._request_id = None
        return super().parse_request()

    def _request_identity(self) -> str:
        rid = self._request_id
        if rid is None:
            rid = self.headers.get("X-Request-Id") or uuid.uuid4().hex[:16]
            self._request_id = rid
        return rid

    def _send_bytes(
        self, status: int, body: bytes, content_type: str, headers=()
    ) -> None:
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Request-Id", self._request_identity())
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: dict, headers=()) -> None:
        """Send ``payload`` as compact JSON.  A ``bytes`` value is JSON
        already, such as a state's encoded families, and is spliced as
        it is (:func:`~repro.service.encoding.object_pieces`)."""
        self._send_bytes(
            status,
            b"".join(object_pieces(payload.items())),
            "application/json",
            headers,
        )

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise _BodyTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        if length <= 0:
            return {}
        raw = self.rfile.read(length)
        payload = json.loads(raw.decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _dispatch(self, handler) -> None:
        """Run one endpoint handler under the request's span tree.

        The handler receives the request-scoped tracer (the tracer of
        the request's buffer when tracing is on, else the null tracer)
        and must route every record through it — the batch is stitched
        into the shared tracer exactly once, at the end, under the
        server's stitch lock.  Latency and status are recorded in the
        registry on every path, traced or not, after the stitch.
        """
        endpoint = urlparse(self.path).path
        request_id = self._request_identity()
        buffer = self.server.request_buffer()
        tracer = NULL_TRACER if buffer is None else buffer.tracer
        self._status = 0
        t0 = time.perf_counter()
        try:
            if tracer.enabled:
                with tracer.span(
                    "service.request", endpoint=endpoint, request=request_id
                ):
                    handler(tracer)
            else:
                handler(tracer)
        except Saturated as error:
            self._send_json(
                503,
                {"error": str(error)},
                headers=(("Retry-After", f"{error.retry_after:.0f}"),),
            )
        except _BodyTooLarge as error:
            # The unread body would be parsed as the next request.
            self._send_json(
                413, {"error": str(error)}, headers=(("Connection", "close"),)
            )
        except (ValueError, KeyError, json.JSONDecodeError) as error:
            self._send_json(400, {"error": str(error)})
        except ReproError as error:
            self._send_json(500, {"error": str(error)})
        finally:
            # Stitch before counting: a client that sees the request in
            # the counters may stop the server, and the trace must
            # already hold the request's records whole by then.
            if buffer is not None:
                self.server.stitch_request(buffer)
            self.server.observe_request(
                endpoint, self._status, time.perf_counter() - t0
            )

    # -- GET ----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        parsed = urlparse(self.path)
        query = parse_qs(parsed.query)
        routes = {
            "/health": lambda t: self._health(t),
            "/metrics": lambda t: self._metrics(t),
            "/borders": lambda t: self._borders(t),
            "/member": lambda t: self._member(query, t),
            "/mine": lambda t: self._mine(query, t),
        }
        handler = routes.get(parsed.path)
        if handler is None:
            self._send_json(404, {"error": f"unknown path {parsed.path}"})
            return
        self._dispatch(handler)

    def _health(self, tracer) -> None:
        self._send_json(
            200, {"status": "ok", "seq": self.core.seq}
        )

    def _metrics(self, tracer) -> None:
        """Metrics scrape, content-negotiated.

        The Prometheus text exposition is the default (what ``curl``
        and any scraper gets); clients that ask for
        ``application/json`` keep the original counters document.
        """
        accept = self.headers.get("Accept") or ""
        if "application/json" in accept:
            payload = self.core.metrics()
            payload["admission"] = self.server.admission.snapshot()
            self._send_json(200, payload)
            return
        self._send_bytes(
            200,
            self.server.render_metrics().encode("utf-8"),
            PROMETHEUS_CONTENT_TYPE,
        )

    def _borders(self, tracer) -> None:
        state, seq = self.core.published
        families = state.encoded()
        self._send_json(
            200,
            {
                "seq": seq,
                "threshold": state.threshold,
                "maximal": families.maximal,
                "negative": families.negative,
            },
        )

    def _member(self, query: dict, tracer) -> None:
        mask = int(query["mask"][0], 0)
        self._send_json(200, self.core.member(mask))

    def _mine(self, query: dict, tracer) -> None:
        min_support = None
        if "min_support" in query:
            raw = query["min_support"][0]
            min_support = float(raw) if "." in raw else int(raw)
        deadline = float(
            query.get("deadline", [self.server.default_deadline])[0]
        )
        # Budget refuses a NaN deadline, which min() passes through.
        budget = Budget(timeout=min(deadline, self.server.max_deadline))
        with tracer.span("service.admission"):
            self.server.admission.acquire(tracer)
        state = self.core.state
        try:
            kind, result = self.core.mine(
                min_support, budget=budget, tracer=tracer, state=state
            )
        finally:
            self.server.admission.release()
        if kind == "partial":
            self.server.registry.counter("repro_partial_results_total").inc()
            if tracer.enabled:
                tracer.event("service.deadline", reason=result.reason)
            self._send_json(206, _partial_payload(result))
            return
        if kind == "hot" and result["threshold"] == state.threshold:
            families = state.encoded()  # the state's own, kept
        else:
            families = encode_families(
                result["supports"], result["maximal"], result["negative"]
            )
        self._send_json(
            200,
            {
                "partial": False,
                "source": kind,
                "threshold": result["threshold"],
                "supports": families.supports,
                "maximal": families.maximal,
                "negative": families.negative,
                "queries": result["queries"],
            },
        )

    # -- POST ---------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        parsed = urlparse(self.path)
        routes = {
            "/append": lambda t: self._append(t),
            "/threshold": lambda t: self._threshold(t),
        }
        handler = routes.get(parsed.path)
        if handler is None:
            self._send_json(404, {"error": f"unknown path {parsed.path}"})
            return
        self._dispatch(handler)

    def _append(self, tracer) -> None:
        body = self._read_body()
        rows = body["rows"]
        # ``bool`` is an ``int`` subclass: ``true`` must not append row 1.
        if not isinstance(rows, list) or any(type(r) is not int for r in rows):
            raise ValueError("rows must be a list of JSON integers")
        op_id = body.get("op")
        with tracer.span("service.admission"):
            self.server.admission.acquire(tracer)
        try:
            seq, stats, digest = self.core.append(
                rows, op_id=op_id, tracer=tracer
            )
        finally:
            self.server.admission.release()
        self._send_json(
            200,
            {
                "seq": seq,
                "duplicate": stats is None,
                "evaluated": stats.evaluated if stats else 0,
                "remined": stats.remined if stats else False,
                "digest": digest,
            },
        )

    def _threshold(self, tracer) -> None:
        body = self._read_body()
        value = body["min_support"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError("min_support must be a number")
        op_id = body.get("op")
        with tracer.span("service.admission"):
            self.server.admission.acquire(tracer)
        try:
            seq, stats, digest = self.core.set_threshold(
                value, op_id=op_id, tracer=tracer
            )
        finally:
            self.server.admission.release()
        self._send_json(
            200,
            {
                "seq": seq,
                "duplicate": stats is None,
                "evaluated": stats.evaluated if stats else 0,
                "remined": stats.remined if stats else False,
                "digest": digest,
            },
        )


class MiningServer(ThreadingHTTPServer):
    """A long-lived mining server bound to one :class:`ServiceCore`.

    Args:
        core: the durable state machine (owns the WAL and snapshots).
        host, port: bind address; ``port=0`` picks a free port (read
            the result from :attr:`server_address`).
        admission: optional pre-configured admission controller; the
            default one shares this server's metrics registry.
        default_deadline: per-request deadline (seconds) when the
            client does not pass one.
        max_deadline: hard cap on client-requested deadlines.
        tracer: optional tracer.  Handler threads never write to it
            directly: each request buffers its records in a
            :class:`~repro.obs.context.RecordBuffer` and the batch is
            stitched under :attr:`_stitch_lock` at request end, so a
            single-threaded :class:`~repro.obs.tracer.RecordTracer` and
            its consumers are safe behind a threading server.
        registry: optional :class:`~repro.obs.metrics.MetricsRegistry`
            backing ``/metrics``; a private one is created when absent,
            so the production instruments are always on.
        trace_writer: the path-owned
            :class:`~repro.obs.jsonl.JsonlTraceWriter` consuming
            ``tracer``'s records, when rotation is wanted.
        trace_rotate: rotate ``trace_writer`` after this many written
            records (0 = never).  Rotation happens between requests
            (under the stitch lock, when no spans are open), to
            ``<path>.1``, ``<path>.2``, ... — each file independently
            ``validate_trace``-clean.

    ``daemon_threads`` is on: a shedding server must never be kept
    alive by a stuck handler thread.
    """

    daemon_threads = True

    def __init__(
        self,
        core: ServiceCore,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        admission: AdmissionController | None = None,
        default_deadline: float = 5.0,
        max_deadline: float = 30.0,
        tracer=None,
        registry: MetricsRegistry | None = None,
        trace_writer=None,
        trace_rotate: int = 0,
    ):
        super().__init__((host, port), _Handler)
        self.core = core
        self.tracer = as_tracer(tracer)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.admission = (
            admission
            if admission is not None
            else AdmissionController(registry=self.registry)
        )
        self.default_deadline = default_deadline
        self.max_deadline = max_deadline
        self.trace_writer = trace_writer
        self.trace_rotate = trace_rotate
        self._stitch_lock = threading.Lock()
        self._rotate_index = 0
        self._rotated_at = 0
        self._trace_base = (
            trace_writer.path if trace_writer is not None else None
        )
        self._trace_context = (
            TraceContext.capture(self.tracer) if self.tracer.enabled else None
        )
        self._thread: threading.Thread | None = None

    def handle_error(self, request, client_address) -> None:
        """Report an exception that escaped a handler, unless it is a
        :class:`ConnectionError`: the client reset or closed the
        connection while being answered, which is no server fault."""
        if isinstance(sys.exc_info()[1], ConnectionError):
            return
        super().handle_error(request, client_address)

    # -- per-request tracing ------------------------------------------

    def request_buffer(self) -> RecordBuffer | None:
        """A fresh request-scoped record buffer (``None`` untraced)."""
        if self._trace_context is None:
            return None
        return RecordBuffer(self._trace_context)

    def stitch_request(self, buffer: RecordBuffer) -> None:
        """Fold one finished request's records into the shared tracer.

        Serialized by the stitch lock — each request lands as one
        contiguous block; a rotation check runs after, when the
        writer provably has no open spans.
        """
        try:
            records = buffer.drain()
        except ValueError:  # a handler leaked a span — drop, don't crash
            return
        if not records:
            return
        with self._stitch_lock:
            self.tracer.stitch(records)
            self._maybe_rotate()

    def _maybe_rotate(self) -> None:
        # Caller holds the stitch lock.
        writer = self.trace_writer
        if (
            writer is None
            or self.trace_rotate <= 0
            or self._trace_base is None
        ):
            return
        if writer.records_written - self._rotated_at >= self.trace_rotate:
            self._rotate_index += 1
            writer.rotate(f"{self._trace_base}.{self._rotate_index}")
            self._rotated_at = writer.records_written

    # -- production metrics -------------------------------------------

    def observe_request(
        self, endpoint: str, status: int, seconds: float
    ) -> None:
        """Record one request into the always-on registry instruments."""
        registry = self.registry
        registry.histogram(
            labelled("repro_request_seconds", endpoint=endpoint),
            boundaries=LATENCY_SECONDS_BUCKETS,
        ).observe(seconds)
        registry.counter(
            labelled(
                "repro_requests_total",
                endpoint=endpoint,
                status=str(status),
            )
        ).inc()

    def render_metrics(self) -> str:
        """The Prometheus text exposition of the full registry.

        Maintained-theory counters are synced from the core as
        ``repro_service_*`` gauges at scrape time (they are snapshots
        of durable state, not event streams), and the admission
        occupancy gauges are refreshed in case the controller was
        built without a registry.
        """
        registry = self.registry
        for key, value in self.core.metrics().items():
            if isinstance(value, (int, float)):
                registry.gauge(f"repro_service_{key}").set(value)
        snapshot = self.admission.snapshot()
        registry.gauge("repro_admission_active").set(snapshot["active"])
        registry.gauge("repro_admission_waiting").set(snapshot["waiting"])
        shed = registry.counter("repro_requests_shed_total")
        if snapshot["shed"] > shed.value:  # controller not registry-backed
            shed.inc(snapshot["shed"] - shed.value)
        return render_prometheus(registry)

    @property
    def port(self) -> int:
        return self.server_address[1]

    def start_background(self) -> "MiningServer":
        """Serve from a daemon thread (tests and the smoke target)."""
        self._thread = threading.Thread(
            target=self.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Graceful shutdown: stop accepting, then close the WAL.

        ``core.close()`` runs last and takes the core's mutation lock,
        so a handler thread still mid-``/append`` finishes its
        log-and-apply before the WAL file handle goes away.
        """
        self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self.server_close()
        self.core.close()
