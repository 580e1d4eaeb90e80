"""Pass loop, span tracer and small statistics shared by every workload.

A workload is a list of operations (``Op``).  One pass runs each
operation once, in order, as a closed loop with one client; a run
repeats whole passes until its time is up, so every run attempts the
same operations in the same proportions.  Each operation's output is
checked after its timer stops.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

from child.sitecustomize import peak_rss_kb


@dataclass
class Op:
    """One timed call into the program.

    ``fn`` makes the call and returns its output; ``check`` receives the
    output and says whether it is right.  ``span`` names the layer
    function the call enters, as ``<module>.<function>``.  ``terms`` is
    the number of terms the operation reads, writes or evaluates, and
    ``counts`` carries extra sizes recorded on the span (term pairs,
    characters, flops).  An operation with ``known_fault`` set fails
    today because of a recorded defect in the program; its failures are
    counted but do not make the run incorrect.
    """

    name: str
    span: str
    fn: Callable[[], Any]
    check: Callable[[Any], bool]
    terms: int = 0
    counts: dict = field(default_factory=dict)
    known_fault: bool = False


def once(full_check: Callable[[Any], bool]) -> Callable[[Any], bool]:
    """Run ``full_check`` on the first output; later outputs of the same
    operation must have the same length and hash.

    The full checks recompute the answer independently and cost more
    than the operation itself; a pass repeats identical inputs, so
    later passes only need to reproduce the verified value.
    """
    seen: list = []

    def check(out) -> bool:
        if not seen:
            ok = full_check(out)
            seen.append((ok, len(out), hash(out)))
            return ok
        ok, length, digest = seen[0]
        return ok and len(out) == length and hash(out) == digest

    return check


class Tracer:
    """In-memory spans: name, start, end, parent span and pass id.

    A span may cover one call or a loop of calls to the same function;
    ``counts`` on the span then says how many.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.pass_id = -1

    def begin(self, name: str, **counts) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "pass": self.pass_id,
            "start": 0.0,
            "end": 0.0,
            **counts,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn: Callable, *args, **counts):
        span = self.begin(name, **counts)
        try:
            return fn(*args)
        finally:
            self.end(span)


@dataclass
class Context:
    """Where the run is: the checkout root, its ``src`` directory, the
    benchmark directory and the interpreter to launch children with."""

    root: str
    src: str
    bench: str
    python: str


@dataclass
class Plan:
    """A workload's operations, the sweep's inputs for a traced run, and
    how the run reads its peak resident memory."""

    ops: list[Op]
    subject: Any
    peak_rss_mb: Callable[[], float] = field(default=lambda: peak_rss_kb() / 1024)


@dataclass
class RunResult:
    passes: list[list[float]]  # per pass, the duration of each operation
    attempted: int
    failed: int
    correct: bool


def run_passes(
    ops: list[Op],
    seconds: float,
    tracer: Tracer | None = None,
    sweep: Callable[[Tracer], None] | None = None,
) -> RunResult:
    """Repeat whole passes over ``ops`` until ``seconds`` have gone by.

    Checks run outside the timers.  With a tracer every operation gets a
    span under its pass's root span, and ``sweep`` then adds the direct
    layer calls of a traced pass.
    """
    passes: list[list[float]] = []
    attempted = failed = 0
    correct = True
    start = time.perf_counter()
    while True:
        durations = []
        root = None
        if tracer is not None:
            tracer.pass_id = len(passes)
            root = tracer.begin("pass")
        for op in ops:
            span = tracer.begin(op.span, op=op.name, **op.counts) if tracer else None
            t0 = time.perf_counter()
            try:
                out = op.fn()
            except Exception:  # a failing operation is counted, the run goes on
                durations.append(time.perf_counter() - t0)
                if span is not None:
                    tracer.end(span)
                traceback.print_exc(file=sys.stderr)
                attempted += 1
                failed += 1
                correct = correct and op.known_fault
                continue
            durations.append(time.perf_counter() - t0)
            if span is not None:
                tracer.end(span)
            attempted += 1
            if not op.check(out):
                failed += 1
                if not op.known_fault:
                    correct = False
                    print(f"bench: wrong output from {op.name}", file=sys.stderr)
            del out
        if tracer is not None:
            if sweep is not None:
                sweep_span = tracer.begin("sweep")
                sweep(tracer)
                tracer.end(sweep_span)
            tracer.end(root)
        passes.append(durations)
        if time.perf_counter() - start >= seconds:
            break
    return RunResult(passes, attempted, failed, correct)


def summary(values: list[float]) -> dict:
    """Sample count, median and quartiles (inclusive method)."""
    values = list(values)
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "q1": q1, "median": med, "q3": q3}


def digest(terms) -> str:
    """SHA-256 of a term dict's items in natural order, coefficients as
    floats: the compact form in which reference answers reach the
    measuring process."""
    h = hashlib.sha256()
    for word, coeff in sorted(dict(terms).items()):
        h.update(repr((word, float(coeff))).encode())
    return h.hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def in_child(fn: Callable, *args):
    """``fn(*args)`` computed in a forked process, which has ended when
    this returns.  The memory the computation takes does not count in
    this process's peak, and what it imports (numpy) stays out of it."""
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_send_result, args=(send, fn, args))
    proc.start()
    send.close()
    try:
        ok, value = receive.recv()
    finally:
        proc.join()
    if not ok:
        raise RuntimeError(f"reference computation failed:\n{value}")
    return value


def _send_result(send, fn, args) -> None:
    try:
        send.send((True, fn(*args)))
    except Exception:
        send.send((False, traceback.format_exc()))
    send.close()


def git_sha(root) -> str:
    """Commit of the checkout, or ``unknown`` outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.abspath(root)))
    try:
        done = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True, env=env
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import {module}\n"
    "t = time.perf_counter() - t\n"
    "print(t * 1000, len(sys.modules), 'numpy' in sys.modules)\n"
)


def import_probe(python: str, src: str, samples: int, module: str) -> dict:
    """Time ``import <module>`` in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=src)
    times, modules, numpy_loaded = [], [], False
    for _ in range(samples):
        done = subprocess.run(
            [python, "-c", IMPORT_PROBE.format(module=module)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        ms, count, numpy = done.stdout.split()
        times.append(float(ms))
        modules.append(int(count))
        numpy_loaded = numpy_loaded or numpy == "True"
    return {"import_ms": times, "modules_loaded": modules, "numpy_loaded": numpy_loaded}
