"""Spawned child processes: several per measured run, one per traced run.

``spawn`` (not ``fork``) starts every child from a bare interpreter, so
``setup_s`` includes the interpreter and program imports a user pays,
and the child's peak RSS is the workload's own, not the parent's pages.

On a shared host the same code runs a few percent faster or slower in
one process than in the next (memory layout, neighbours on the
machine), so an untraced run spreads its measured job time over several
children and pools their samples, as ``pyperf`` does.
"""

from __future__ import annotations

import multiprocessing
import statistics
import time
import traceback

from benchmarks.ledger.spans import Ledger, unattributed_frac

#: Seconds a child may take to answer before the run is abandoned.
CHILD_TIMEOUT = 170.0


class ChildFailed(RuntimeError):
    """A child raised, died, or did not answer in time."""


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set of a process's current address space (VmHWM).

    Not ``ru_maxrss``: that survives ``exec``, so a spawned child would
    report the parent's peak whenever the parent is the larger one.
    """
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ChildFailed(f"no VmHWM for process {pid}")


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it.

    The first ``spawn`` starts the tracker, a helper process that
    spawned children and their worker pools share; it would otherwise
    exit only after this process has gone.  Call once, at exit.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def _warm_up(workload, state):
    """One untimed job: it takes the process's first-touch allocations,
    and its result is the one the parent checks."""
    outcome = workload.job(state)
    return outcome, workload.payload(outcome), workload.fingerprint(outcome)


def run_jobs(workload, state, seconds: float) -> dict:
    """Untraced jobs until ``seconds`` of job time have been measured."""
    outcome, payload, first = _warm_up(workload, state)
    del outcome  # a kept result would make later jobs page in fresh memory
    times: list[float] = []
    mismatches = 0
    while not times or sum(times) < seconds:
        start = time.perf_counter()
        outcome = workload.job(state)
        times.append(time.perf_counter() - start)
        if workload.fingerprint(outcome) != first:
            mismatches += 1
        del outcome
    return {
        "times": times,
        "payload": payload,
        "fingerprint": first,
        "mismatches": mismatches,
        "peak_rss_mb": peak_rss_mb(),
    }


def trace_jobs(workload, state, seconds: float) -> dict:
    """Alternate untraced and traced jobs, then derive per-layer metrics.

    Alternation cancels drift between the two sides, so the ratio of
    their medians is the tracing overhead.
    """
    kept, payload, first = _warm_up(workload, state)
    ledger = Ledger(workload.name)
    plain: list[float] = []
    traced: list[float] = []
    mismatches = 0
    index = 0
    while len(traced) < 2 or sum(plain) + sum(traced) < seconds:
        start = time.perf_counter()
        if index % 2:
            with ledger.span("job", index):
                outcome = workload.job(state, ledger, index)
            traced.append(time.perf_counter() - start)
        else:
            outcome = workload.job(state)
            plain.append(time.perf_counter() - start)
        if workload.fingerprint(outcome) != first:
            mismatches += 1
        del outcome
        index += 1
    metrics = workload.layers(state, kept, ledger)
    metrics[f"ledger.{workload.name}.unattributed_frac"] = unattributed_frac(
        ledger.records
    )
    metrics[f"ledger.{workload.name}.trace_overhead"] = (
        statistics.median(traced) / statistics.median(plain)
    )
    return {"times": plain + traced, "payload": payload,
            "mismatches": mismatches, "metrics": metrics,
            "spans": ledger.records}


def child_main(conn, name: str, inputs: dict, mode: str,
               seconds: float) -> None:
    """Entry point of a batch-workload child (``mode``: run or trace).

    Protocol, shared with :func:`benchmarks.ledger.serve.twin_main`: send
    ``("ready", None)`` once set up, then ``("done", result)``, or
    ``("error", traceback)`` at any point.
    """
    try:
        from benchmarks.ledger.workloads import BATCH_WORKLOADS

        workload = BATCH_WORKLOADS[name]
        state = workload.setup(inputs)
        conn.send(("ready", None))
        body = run_jobs if mode == "run" else trace_jobs
        conn.send(("done", body(workload, state, seconds)))
    except Exception:
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


def _receive(receiver, label: str):
    if not receiver.poll(CHILD_TIMEOUT):
        raise ChildFailed(f"{label} did not answer in time")
    try:
        kind, body = receiver.recv()
    except EOFError:
        raise ChildFailed(f"{label} exited early") from None
    if kind == "error":
        raise ChildFailed(f"{label} failed:\n{body}")
    return body


def spawn(target, *args, label: str) -> tuple[float, dict]:
    """Run ``target(conn, *args)`` in a spawned child.

    Returns (seconds from spawn to its ready message, its result).
    """
    context = multiprocessing.get_context("spawn")
    receiver, sender = context.Pipe(duplex=False)
    process = context.Process(target=target, args=(sender, *args))
    start = time.perf_counter()
    process.start()
    sender.close()
    try:
        _receive(receiver, label)
        setup_s = time.perf_counter() - start
        result = _receive(receiver, label)
    finally:
        receiver.close()
        process.join(CHILD_TIMEOUT)
        if process.is_alive():
            process.kill()
            process.join()
    if process.exitcode != 0:
        raise ChildFailed(f"{label} exited {process.exitcode}")
    return setup_s, result
