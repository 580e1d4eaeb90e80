"""Benchmark for ncpoly: four workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload algebra --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

With ``--trace 0`` a run prints the end-to-end metrics, measured with
tracing off; with ``--trace 1`` it prints the per-layer metrics of a
traced run.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Each
run also writes a record (and, when traced, its spans) under
``bench/results/``.  ``--workload all`` runs every workload in its own
process, one after another, and prints them together.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from harness import Context, Tracer, git_sha, import_probe, in_child, run_passes, summary

WORKLOADS = ("algebra", "roundtrip", "numeric", "cli_calls")
# An untraced run sets up before its passes (at least SETUP_LEAST times) and
# again after them (at least once), each time going on while that round's
# set-ups took under SETUP_SECONDS, up to SETUP_MOST.  Two rounds 25 s apart
# see the machine in two states, where one round sees it in one.  A traced
# run sets up once.
SETUP_LEAST, SETUP_MOST, SETUP_SECONDS = 3, 25, 1.0
IMPORT_PROBES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "terms_per_s": "terms/s",
    "call_p50_ms": "ms",
    "call_p75_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "words.reduce_s": "s",
    "words.sort_key_s": "s",
    "element.construct_s": "s",
    "element.mul_s": "s",
    "element.pow_s": "s",
    "element.add_s": "s",
    "element.pairs_per_s": "pairs/s",
    "element.terms_s": "s",
    "parsing.parse_s": "s",
    "parsing.chars_per_s": "chars/s",
    "textio.print_s": "s",
    "textio.to_json_s": "s",
    "textio.from_json_s": "s",
    "calculus.derivative_s": "s",
    "calculus.substitute_s": "s",
    "randomgen.random_element_s": "s",
    "randomgen.random_assignment_s": "s",
    "matrixeval.evaluate_s": "s",
    "matrixeval.homcheck_s": "s",
    "matrixeval.inverse_s": "s",
    "matrixeval.gflops_computed": "GFLOP/s",
    "cli.import_ms": "ms",
    "cli.modules_loaded": "count",
    "cli.repl_line_ms": "ms",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def context() -> Context:
    bench = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench)
    return Context(root=root, src=os.path.join(root, "src"), bench=bench, python=sys.executable)


def end_to_end(plan, result, peak_rss_mb: float, import_s: float, setups: list[float]) -> dict:
    walls = [sum(durations) for durations in result.passes]
    calls_ms = [1000 * d for durations in result.passes for d in durations]
    terms = sum(op.terms for op in plan.ops)
    calls = summary(calls_ms)
    stats = {
        "setup_s": summary([import_s + s for s in setups]),
        "wall_s": summary(walls),
        "terms_per_s": summary([terms / w for w in walls]),
        "call_p50_ms": dict(calls),
        "call_p75_ms": dict(calls),
        "peak_rss_mb": summary([peak_rss_mb]),
    }
    values = {name: s["median"] for name, s in stats.items()}
    values["call_p75_ms"] = calls["q3"]
    return {
        name: {"value": values[name], "unit": END_TO_END_UNITS[name], **stats[name]}
        for name in END_TO_END_UNITS
    }


def per_layer(result, tracer, ctx) -> tuple[dict, dict]:
    from sweep import layer_metrics

    probe = import_probe(ctx.python, ctx.src, IMPORT_PROBES, "ncpoly.cli")
    stats = layer_metrics(tracer.spans, probe)
    metrics = {
        name: {"value": stats[name]["median"], "unit": PER_LAYER_UNITS[name], **stats[name]}
        for name in PER_LAYER_UNITS
    }
    walls = [sum(durations) for durations in result.passes]
    extra = {"traced_wall_s": summary(walls), "cli_import_loads_numpy": probe["numpy_loaded"]}
    return metrics, extra


def set_up(workload, seed: int, least: int, seconds: float) -> tuple[list[float], dict]:
    """Times of ``least`` or more set-ups (see SETUP_SECONDS), and the inputs."""
    times, inputs = [], None
    while len(times) < least or (sum(times) < seconds and len(times) < SETUP_MOST):
        inputs = None  # free the previous inputs before making the next
        start = time.perf_counter()
        inputs = workload.setup(seed)
        times.append(time.perf_counter() - start)
    return times, inputs


def run_one(args, ctx: Context) -> int:
    sys.path.insert(0, ctx.src)
    workload = importlib.import_module(args.workload)  # imports ncpoly; see import_probe
    if args.trace:
        _, inputs = set_up(workload, args.seed, 1, 0.0)
    else:
        setups, inputs = set_up(workload, args.seed, SETUP_LEAST, SETUP_SECONDS)
    plan = workload.build(inputs, in_child(workload.references, inputs), ctx)

    tracer = None
    if args.trace:
        from sweep import make_sweep

        tracer = Tracer()
        result = run_passes(plan.ops, args.seconds, tracer, make_sweep(plan.subject))
        metrics, extra = per_layer(result, tracer, ctx)
    else:
        result = run_passes(plan.ops, args.seconds)
        peak = plan.peak_rss_mb()  # before the second round adds a copy of the inputs
        setups += set_up(workload, args.seed, 1, SETUP_SECONDS)[0]
        imports = import_probe(ctx.python, ctx.src, IMPORT_PROBES, "ncpoly")["import_ms"]
        import_s = statistics.median(imports) / 1000
        metrics, extra = end_to_end(plan, result, peak, import_s, setups), {"import_ncpoly_ms": imports}

    write_record(args, ctx, plan, result, metrics, extra, tracer)
    for name, m in metrics.items():
        print(
            f"{args.workload:10} {name:30} {m['value']:14.6g} {m['unit']:8}"
            f" n={m['n']} q1={m['q1']:.6g} q3={m['q3']:.6g}"
        )
    print(f"{args.workload:10} attempted={result.attempted} failed={result.failed} correct={result.correct}")
    line = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }
    print(json.dumps(line))
    return 0 if result.correct else 1


def write_record(args, ctx, plan, result, metrics, extra, tracer) -> None:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "passes": len(result.passes),
        "operation_ms": {
            op.name: summary([1000 * durations[i] for durations in result.passes])
            for i, op in enumerate(plan.ops)
        },
        "metrics": metrics,
        **extra,
        "git_sha": git_sha(ctx.root),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
    }
    out = os.path.join(ctx.bench, "results")
    os.makedirs(out, exist_ok=True)
    stem = os.path.join(out, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    if tracer is not None:
        with open(stem + "-spans.json", "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)


def run_all(args, ctx: Context) -> int:
    """Each workload in its own process, so each reports its own peak memory."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        argv = [ctx.python, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, cwd=ctx.root)
        lines = done.stdout.splitlines()
        if not lines or not lines[-1].startswith("{"):
            sys.stderr.write(done.stderr)
            print(f"{name:10} failed with exit code {done.returncode}")
            status = 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    ctx = context()
    if not os.path.isfile(os.path.join(ctx.src, "ncpoly", "__init__.py")):
        print(f"bench: no ncpoly package under {ctx.src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, ctx)
    return run_one(args, ctx)


if __name__ == "__main__":
    sys.exit(main())
