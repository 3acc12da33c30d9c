"""Command-line interface.

The subcommands mirror the library's main entry points::

    python -m repro generate --items 50 --transactions 1000 out.dat
    python -m repro mine out.dat --min-support 0.1 --algorithm apriori
    python -m repro transversals --edges "0 1, 1 2, 2 0" --method berge
    python -m repro serve out.dat --min-support 0.1 --state-dir state/
    python -m repro figure1

``figure1`` replays the paper's worked example, which doubles as a
smoke test of an installation.

Each subcommand imports what it runs inside its handler, so building the
parser loads only :mod:`argparse`, the error types and the backend
names: ``transversals`` builds no database and loads no miner, service
or numpy code, and ``serve`` loads no transversal engine.

Exit codes: ``0`` — complete result; ``2`` — usage or input error
(bad file, malformed ``--edges``, invalid checkpoint); ``3`` — a budget
limit tripped and a *certified partial* result was printed (resume with
``--resume`` if ``--checkpoint`` was given); ``130`` — interrupted
(Ctrl-C), also with a partial when the engine supports one.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.core.errors import BudgetExhausted, ReproError
from repro.datasets.transactions import BACKENDS

if TYPE_CHECKING:
    from repro.runtime.budget import Budget
    from repro.runtime.partial import PartialResult

EXIT_OK = 0
EXIT_ERROR = 2
EXIT_PARTIAL = 3
EXIT_INTERRUPT = 130


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Border-based data mining, hypergraph dualization, and "
            "monotone-function learning (PODS '97 reproduction)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="write a Quest-style synthetic FIMI .dat file"
    )
    generate.add_argument("output", help="path of the .dat file to write")
    generate.add_argument("--items", type=int, default=100)
    generate.add_argument("--transactions", type=int, default=1000)
    generate.add_argument("--avg-length", type=int, default=10)
    generate.add_argument("--patterns", type=int, default=20)
    generate.add_argument("--avg-pattern-length", type=int, default=4)
    generate.add_argument("--corruption", type=float, default=0.25)
    generate.add_argument("--seed", type=int, default=None)

    mine = subparsers.add_parser(
        "mine", help="mine maximal frequent itemsets from a FIMI .dat file"
    )
    mine.add_argument("input", help="FIMI .dat file to read")
    mine.add_argument(
        "--min-support",
        type=float,
        default=0.1,
        help="relative (0,1] or absolute whole-number (>1) support "
        "threshold; non-integral values above 1 are rejected",
    )
    mine.add_argument(
        "--algorithm",
        choices=(
            "apriori",
            "levelwise",
            "eclat",
            "dualize_advance",
            "maxminer",
        ),
        default="apriori",
    )
    mine.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed for --algorithm dualize_advance's shuffled advance "
        "(default: the deterministic advance)",
    )
    mine.add_argument(
        "--show",
        type=int,
        default=20,
        help="print at most this many maximal sets",
    )
    mine.add_argument(
        "--engine",
        choices=("berge", "fk", "mmcs"),
        default="berge",
        help="transversal engine for --algorithm dualize_advance "
        "('mmcs' materializes the family with the MMCS branch-and-bound "
        "enumerator)",
    )
    mine.add_argument(
        "--budget-queries",
        type=int,
        default=None,
        metavar="N",
        help="stop after N distinct support queries (certified partial, "
        "exit code 3)",
    )
    mine.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline for the mining run",
    )
    mine.add_argument(
        "--max-family",
        type=int,
        default=None,
        metavar="N",
        help="largest live candidate level / transversal family allowed",
    )
    mine.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="write a resumable JSON checkpoint here when a budget trips "
        "(levelwise and dualize_advance)",
    )
    mine.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help="resume from a checkpoint written by an interrupted run "
        "with the same dataset and flags",
    )
    mine.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for --algorithm eclat: subtree tasks "
        "over one shared-memory copy of the vertical store (results "
        "are bit-identical to serial)",
    )
    _add_backend_flag(mine)
    _add_observability_flags(mine)

    transversals = subparsers.add_parser(
        "transversals", help="minimal transversals of a hypergraph"
    )
    transversals.add_argument(
        "--edges",
        required=True,
        help="comma-separated edges of space-separated vertex ids, "
        'e.g. "0 1, 1 2, 2 0"',
    )
    transversals.add_argument(
        "--method",
        choices=("berge", "fk", "mmcs", "levelwise", "brute"),
        default="berge",
    )
    transversals.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline (berge/fk/mmcs only; partial "
        "family, exit 3)",
    )
    transversals.add_argument(
        "--max-family",
        type=int,
        default=None,
        metavar="N",
        help="largest intermediate transversal family allowed "
        "(berge/fk/mmcs only)",
    )
    transversals.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for --method mmcs: depth-2 subtree "
        "tasks (results are bit-identical to serial)",
    )
    _add_observability_flags(transversals)

    serve = subparsers.add_parser(
        "serve",
        help="run the crash-safe incremental mining service "
        "(WAL-backed; SIGTERM shuts down gracefully)",
    )
    serve.add_argument("input", help="FIMI .dat file with the initial data")
    serve.add_argument(
        "--min-support",
        type=float,
        default=0.1,
        help="relative (0,1] or absolute whole-number (>1) support "
        "threshold; non-integral values above 1 are rejected",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8177,
        help="bind port; 0 picks a free one (printed at startup)",
    )
    serve.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="directory for the write-ahead log and snapshots; a "
        "restart with the same data replays it to the exact pre-crash "
        "state (omit for an in-memory, non-durable server)",
    )
    serve.add_argument(
        "--compact-every",
        type=int,
        default=64,
        metavar="N",
        help="fold the WAL into a snapshot after N logged operations",
    )
    serve.add_argument(
        "--repair-limit",
        type=int,
        default=None,
        metavar="N",
        help="border-repair evaluations allowed per append before "
        "falling back to a full remine",
    )
    serve.add_argument(
        "--max-concurrent",
        type=int,
        default=4,
        metavar="N",
        help="simultaneous expensive requests before queueing",
    )
    serve.add_argument(
        "--max-queued",
        type=int,
        default=8,
        metavar="N",
        help="queued requests before shedding with 503 + Retry-After",
    )
    serve.add_argument(
        "--default-deadline",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="per-request mining deadline when the client sends none "
        "(deadline cuts return certified HTTP 206 partials)",
    )
    serve.add_argument(
        "--trace-rotate",
        type=int,
        default=0,
        metavar="N",
        help="with --trace: rotate the trace file after N records "
        "(FILE, FILE.1, FILE.2, ... — each independently valid; "
        "0 = never rotate)",
    )
    _add_backend_flag(serve)
    _add_observability_flags(serve)

    subparsers.add_parser(
        "figure1", help="replay the paper's Figure 1 worked example"
    )
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.datasets.fimi import write_fimi
    from repro.datasets.synthetic import (
        QuestParameters,
        generate_quest_database,
    )

    params = QuestParameters(
        n_items=args.items,
        n_transactions=args.transactions,
        avg_transaction_length=args.avg_length,
        n_patterns=args.patterns,
        avg_pattern_length=args.avg_pattern_length,
        corruption=args.corruption,
    )
    database = generate_quest_database(params, seed=args.seed)
    write_fimi(database, args.output)
    print(
        f"wrote {database.n_transactions} transactions over "
        f"{database.n_items} items to {args.output}"
    )
    return 0


def _read_database(path: str, backend: str = "auto"):
    """Read a FIMI file with one-line contextual error messages.

    ``--backend`` is validated first — before any file I/O — so the
    error is about the flag, not misattributed to the dataset (``main``
    maps the :class:`ValueError` to exit code 2).
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown --backend {backend!r}; expected one of "
            f"{', '.join(BACKENDS)}"
        )
    from repro.datasets.fimi import read_fimi

    try:
        return read_fimi(path, backend=backend)
    except OSError as error:
        detail = error.strerror or str(error)
        raise OSError(f"cannot read {path}: {detail}") from error
    except ValueError as error:
        raise ValueError(
            f"{path} is not a valid FIMI .dat file: {error}"
        ) from error


def _add_backend_flag(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--backend",
        default="auto",
        metavar="NAME",
        help="vertical store backend for the transaction database: "
        f"{', '.join(BACKENDS)} ('roaring' is the compressed "
        "container-bitmap store for large row counts); unknown names "
        "are a one-line error, exit 2",
    )


def _add_observability_flags(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a JSONL event trace here (one record per line; "
        "schema in docs/API.md §11; aggregate with "
        "python -m benchmarks.trace_report)",
    )
    subparser.add_argument(
        "--metrics",
        action="store_true",
        help="print a metrics summary table and the theorem-monitor "
        "verdict on stderr at exit",
    )
    subparser.add_argument(
        "--profile",
        default=None,
        metavar="FILE",
        help="run the sampling profiler and write folded stacks here "
        "(flamegraph-compatible 'stack count' lines; zero overhead "
        "when absent)",
    )


class _ObsStack:
    """What the observability flags built, exposed piecewise.

    ``tracer`` is ``None`` when neither ``--trace`` nor ``--metrics``
    was given (engines then skip all instrumentation); ``writer`` /
    ``registry`` / ``profiler`` are the individual components for
    commands that need them directly (``serve`` wires the writer into
    trace rotation and shares the registry with ``/metrics``).
    ``finalize()`` must run in a ``finally`` block.
    """

    __slots__ = ("tracer", "writer", "registry", "profiler", "finalize")

    def __init__(self, tracer, writer, registry, profiler, finalize):
        self.tracer = tracer
        self.writer = writer
        self.registry = registry
        self.profiler = profiler
        self.finalize = finalize


def _build_tracer(args: argparse.Namespace) -> _ObsStack:
    """Build the CLI observability stack from ``--trace`` /
    ``--metrics`` / ``--profile``.

    ``finalize()`` closes the JSONL writer (flushing is per-line, so
    even an interrupt leaves a parseable trace), prints the metrics
    table plus the :class:`~repro.obs.monitor.TheoremMonitor` verdict
    to stderr, and stops the profiler and writes its folded stacks.
    The profiler is started here, so the whole command (including
    dataset parsing) is attributed.
    """
    trace_path = getattr(args, "trace", None)
    want_metrics = getattr(args, "metrics", False)
    profile_path = getattr(args, "profile", None)
    profiler = None
    if profile_path:
        from repro.obs import SamplingProfiler

        profiler = SamplingProfiler()
        profiler.start()
    if not trace_path and not want_metrics:
        def finalize_profile() -> None:
            if profiler is not None:
                profiler.stop()
                stacks = profiler.write(profile_path)
                print(
                    f"profile written to {profile_path} "
                    f"({stacks} stacks, {profiler.total_samples} samples)",
                    file=sys.stderr,
                )

        return _ObsStack(None, None, None, profiler, finalize_profile)
    from repro.obs import (
        JsonlTraceWriter,
        MetricsRegistry,
        RecordTracer,
        TheoremMonitor,
    )

    writer = JsonlTraceWriter(trace_path) if trace_path else None
    registry = MetricsRegistry() if want_metrics else None
    monitor = TheoremMonitor()
    tracer = RecordTracer(*(
        consumer.feed_record
        for consumer in (writer, registry, monitor)
        if consumer is not None
    ))

    def finalize() -> None:
        if writer is not None:
            writer.close()
        if registry is not None:
            registry.render(sys.stderr)
        if trace_path:
            print(f"trace written to {trace_path}", file=sys.stderr)
        print(monitor.report().summary(), file=sys.stderr)
        if profiler is not None:
            profiler.stop()
            stacks = profiler.write(profile_path)
            print(
                f"profile written to {profile_path} "
                f"({stacks} stacks, {profiler.total_samples} samples)",
                file=sys.stderr,
            )

    return _ObsStack(tracer, writer, registry, profiler, finalize)


def _build_budget(args: argparse.Namespace) -> Budget | None:
    max_queries = getattr(args, "budget_queries", None)
    timeout = getattr(args, "timeout", None)
    max_family = getattr(args, "max_family", None)
    if max_queries is None and timeout is None and max_family is None:
        return None
    from repro.runtime.budget import Budget

    return Budget(
        max_queries=max_queries, timeout=timeout, max_family=max_family
    )


def _report_partial(args: argparse.Namespace, partial: PartialResult) -> int:
    """Print a certified partial result and return the exit code."""
    universe = partial.universe
    # Persist the checkpoint before any output: stdout may be a closed
    # pipe (e.g. `... | head`), and losing the resume state to an EPIPE
    # would defeat the point of checkpointing.
    checkpoint_path = getattr(args, "checkpoint", None)
    if checkpoint_path and partial.checkpoint is not None:
        partial.checkpoint.save(checkpoint_path)
    print(
        f"partial result ({partial.reason}): |Bd+ so far| = "
        f"{len(partial.positive_border)}, |verified Bd-| = "
        f"{len(partial.negative)}, frontier = {len(partial.frontier)}"
        f"{'' if partial.frontier_complete else '+'}, "
        f"queries = {partial.queries}"
    )
    certificate = partial.certificate()
    status = "valid" if certificate.ok else "INVALID"
    print(
        f"certificate: {status} "
        f"({certificate.checked_positive} Bd+ / "
        f"{certificate.checked_negative} Bd- entries checked)"
    )
    for mask in partial.positive_border[: args.show]:
        print(" ", universe.label(mask, sep=" "))
    hidden = len(partial.positive_border) - args.show
    if hidden > 0:
        print(f"  ... ({hidden} more)")
    if checkpoint_path and partial.checkpoint is not None:
        print(f"checkpoint written to {checkpoint_path} (resume with --resume)")
    elif checkpoint_path:
        print(
            f"no checkpoint written: {partial.algorithm} does not "
            "support resume"
        )
    return EXIT_INTERRUPT if partial.reason == "interrupt" else EXIT_PARTIAL


def _resolve_min_support(value: float) -> int | float:
    """Interpret ``--min-support``: (0, 1] is a relative frequency, a
    value above 1 is an absolute row count and must be integral —
    silently truncating 2.5 to 2 would change the mined theory without
    notice, so that is rejected instead (``main`` maps the
    :class:`ValueError` to exit code 2)."""
    if value > 1:
        if value != int(value):
            raise ValueError(
                f"--min-support {value} is neither a relative "
                "frequency in (0, 1] nor a whole-number absolute "
                "row count"
            )
        return int(value)
    return value


def _cmd_mine(args: argparse.Namespace) -> int:
    from repro.instances.frequent_itemsets import mine_frequent_itemsets
    from repro.runtime.partial import PartialResult

    database = _read_database(args.input, args.backend)
    threshold = _resolve_min_support(args.min_support)
    budget = _build_budget(args)
    obs = _build_tracer(args)
    try:
        theory = mine_frequent_itemsets(
            database,
            threshold,
            algorithm=args.algorithm,
            seed=args.seed,
            engine=args.engine,
            budget=budget,
            resume=args.resume,
            tracer=obs.tracer,
            workers=args.workers,
        )
    finally:
        obs.finalize()
    print(
        f"{args.input}: {database.n_transactions} rows, "
        f"{database.n_items} items; algorithm={args.algorithm}"
    )
    if isinstance(theory, PartialResult):
        return _report_partial(args, theory)
    print(
        f"|MTh| = {len(theory.maximal)}, |Bd-| = "
        f"{len(theory.negative_border)}, queries = {theory.queries}"
    )
    universe = theory.universe
    for mask in theory.maximal[: args.show]:
        print(" ", universe.label(mask, sep=" "))
    hidden = len(theory.maximal) - args.show
    if hidden > 0:
        print(f"  ... ({hidden} more)")
    return EXIT_OK


def _parse_edges(text: str) -> list[frozenset[int]]:
    edges: list[frozenset[int]] = []
    for chunk in text.split(","):
        try:
            vertices = frozenset(int(token) for token in chunk.split())
        except ValueError:
            raise ValueError(
                f"bad --edges: {chunk.strip()!r} is not a list of "
                "integer vertex ids"
            ) from None
        if not vertices:
            raise ValueError("edges must be non-empty")
        edges.append(vertices)
    if not edges:
        raise ValueError("at least one edge is required")
    return edges


def _cmd_transversals(args: argparse.Namespace) -> int:
    from repro.hypergraph.enumeration import minimal_transversals
    from repro.hypergraph.hypergraph import Hypergraph
    from repro.util.bitset import Universe

    edges = _parse_edges(args.edges)
    vertices = sorted(set().union(*edges))
    universe = Universe(vertices)
    hypergraph = Hypergraph.from_sets(edges, universe)
    budget = _build_budget(args)
    obs = _build_tracer(args)
    try:
        family = minimal_transversals(
            hypergraph,
            method=args.method,
            budget=budget,
            tracer=obs.tracer,
            workers=args.workers,
        )
    except BudgetExhausted as exhausted:
        partial = exhausted.partial
        if partial is None:
            print(
                f"budget exhausted ({exhausted.reason}); no partial family",
                file=sys.stderr,
            )
            return EXIT_PARTIAL
        done = len(partial.processed_edges)
        total = done + len(partial.remaining_edges)
        print(
            f"partial family ({partial.reason}): {len(partial.family)} "
            f"transversals, {done}/{total} edges folded ({args.method}):"
        )
        for mask in partial.family:
            print(" ", universe.label(mask, sep=" "))
        return EXIT_PARTIAL
    finally:
        obs.finalize()
    print(f"{len(family)} minimal transversals ({args.method}):")
    for mask in family:
        print(" ", universe.label(mask, sep=" "))
    return EXIT_OK


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.obs import MetricsRegistry
    from repro.service import AdmissionController, MiningServer, ServiceCore

    database = _read_database(args.input, args.backend)
    threshold = _resolve_min_support(args.min_support)
    obs = _build_tracer(args)
    tracer = obs.tracer
    # The service's production instruments are always on; --metrics
    # additionally folds the trace stream into the same registry and
    # prints the table at exit, so /metrics and the exit table agree.
    registry = obs.registry if obs.registry is not None else MetricsRegistry()
    stop = threading.Event()

    def _on_signal(signum, frame):
        stop.set()

    previous = {
        sig: signal.signal(sig, _on_signal)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        core = ServiceCore(
            database,
            threshold,
            state_dir=args.state_dir,
            compact_every=args.compact_every,
            repair_limit=args.repair_limit,
            tracer=tracer,
            registry=registry,
        )
        server = MiningServer(
            core,
            args.host,
            args.port,
            admission=AdmissionController(
                args.max_concurrent,
                max_queued=args.max_queued,
                registry=registry,
            ),
            default_deadline=args.default_deadline,
            tracer=tracer,
            registry=registry,
            trace_writer=obs.writer,
            trace_rotate=args.trace_rotate,
        )
        server.start_background()
        state = core.state
        print(
            f"serving on http://{args.host}:{server.port} — "
            f"{state.database.n_transactions} rows, "
            f"{len(state.database.universe)} items, "
            f"threshold {state.threshold}, seq {core.seq}"
            + (f", state in {args.state_dir}" if args.state_dir else
               " (in-memory)"),
            flush=True,
        )
        stop.wait()
        print("shutting down", file=sys.stderr)
        server.stop()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        obs.finalize()
    return EXIT_OK


def _cmd_figure1(_: argparse.Namespace) -> int:
    from repro.datasets.planted import PlantedTheory
    from repro.learning.correspondence import (
        cnf_from_maximal_sets,
        dnf_from_negative_border,
    )
    from repro.mining.dualize_advance import dualize_and_advance
    from repro.mining.levelwise import levelwise
    from repro.util.bitset import Universe

    universe = Universe("ABCD")
    planted = PlantedTheory.from_sets(universe, [{"A", "B", "C"}, {"B", "D"}])
    walk = levelwise(universe, planted.is_interesting)
    advance = dualize_and_advance(universe, planted.is_interesting)
    print("Figure 1: MTh = {ABC, BD} over R = {A, B, C, D}")
    print(
        "  levelwise:  MTh =",
        sorted(universe.label(m) for m in walk.maximal),
        f"({walk.queries} queries)",
    )
    print(
        "  dualize+advance: Bd- =",
        sorted(universe.label(m) for m in advance.negative_border),
        f"({advance.queries} queries)",
    )
    dnf = dnf_from_negative_border(universe, list(advance.negative_border))
    cnf = cnf_from_maximal_sets(universe, list(advance.maximal))
    print(f"  Example 25: {dnf!r} = {cnf!r}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "mine": _cmd_mine,
    "transversals": _cmd_transversals,
    "serve": _cmd_serve,
    "figure1": _cmd_figure1,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, ReproError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPT


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
