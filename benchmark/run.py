"""Benchmark command for the cocycle package.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  It imports ``cocycle`` from ``src/`` of the
same tree, runs the named workload as a closed loop with one client in this
single-threaded process, checks every output against closed-form oracles,
and prints one JSON object as its last line of output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (setup_s, op_p50_s,
items_per_s, peak_rss_mib); with ``--trace 1`` they are the per-layer ones
from ``tracing.py``, and the trace is written to ``.bench_traces/``.
See README.md in this directory.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_OPS = 3          # ops measured even when --seconds is shorter
SETUP_PROBES = 9     # fresh processes timed for setup_s after the timed ops; the median is reported
PROBE_TIMEOUT_S = 60


def import_program():
    """Import ``cocycle`` from this tree's src/, never from elsewhere."""
    if not (SRC / "cocycle" / "__init__.py").is_file():
        raise SystemExit(f"error: no cocycle package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cocycle

    if Path(cocycle.__file__).resolve().parent != SRC / "cocycle":
        raise SystemExit(f"error: imported cocycle from {cocycle.__file__}, not {SRC}")


def prepare(workload, seed: int, workdir: str) -> None:
    """Set-up before the first timed op: one small op of the workload, run
    and checked, which pays lazy imports and numpy's first calls."""
    op = workload.op(seed, -1, workdir, size="small")
    problems = op.problems(op.collect(op.run()))
    if problems:
        raise SystemExit(f"error: warm-up op incorrect: {problems[:3]}")


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from launching a fresh interpreter to the point where it is
    ready for its first timed op."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    t0 = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.close()
        if proc.wait(timeout=PROBE_TIMEOUT_S) != 0 or line.strip() != "ready":
            raise SystemExit(f"error: setup probe failed (exit {proc.returncode})")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return elapsed


def measure(workload, seed: int, seconds: float, workdir: str, tracer=None):
    """Closed loop over ops until ``seconds`` have passed (at least MIN_OPS).
    ``attempted`` and ``failed`` count operations (CLI calls or real
    points); an op that raises fails all of its operations.  Returns op
    times, items, attempted, failed, problems and per-op layer metrics."""
    from tracing import op_metrics

    times, items, per_op, problems = [], 0, [], []
    ops = attempted = failed = 0
    start = perf_counter()
    while ops < MIN_OPS or perf_counter() - start < seconds:
        op = workload.op(seed, ops, workdir)
        op.reset()
        gc.collect()
        if tracer is not None:
            tracer.begin_op(ops)
        ops += 1
        attempted += op.operations
        try:
            t0 = perf_counter()
            raw = op.run()
            dt = perf_counter() - t0
            out = op.collect(raw)
        except Exception:  # the op boundary: count it, keep measuring
            failed += op.operations
            traceback.print_exc()
            continue
        if tracer is not None:
            per_op.append(op_metrics(tracer))
        times.append(dt)
        items += op.items(out)
        problems += op.problems(out)
        failed += op.failures(out)
    return times, items, attempted, failed, problems, per_op


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    (ROOT / ".bench_run").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_run")
    try:
        if args.setup_probe:
            prepare(workload, args.seed, workdir)
            print("ready", flush=True)
            return 0
        tracer = None
        if args.trace:
            from tracing import Tracer, install

            tracer = Tracer()
            install(tracer)
        prepare(workload, args.seed, workdir)
        times, items, attempted, failed, problems, per_op = measure(
            workload, args.seed, args.seconds, workdir, tracer)
        # after the timed ops, so no probe runs between them
        setup = [] if args.trace else [setup_probe(workload.name, args.seed)
                                       for _ in range(SETUP_PROBES)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems[:20]:
        print(f"incorrect: {p}", file=sys.stderr)
    op_p50 = statistics.median(times) if times else float("nan")
    items_per_s = items / sum(times) if times else 0.0
    # op times of the traced run too, so tracing overhead can be read off
    print("# " + json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                             "op_p50_s": op_p50, "items_per_s": items_per_s}))
    if tracer is not None:
        from tracing import LAYER_METRICS

        traces = ROOT / ".bench_traces"
        traces.mkdir(exist_ok=True)
        tracer.dump(str(traces / f"{args.workload}-seed{args.seed}.json"), per_op)
        metrics = {
            name: {"value": statistics.median(m[name] for m in per_op) if per_op else 0.0,
                   "unit": unit}
            for name, (unit, _) in LAYER_METRICS.items()
        }
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "op_p50_s": {"value": op_p50, "unit": "s"},
            "items_per_s": {"value": items_per_s, "unit": "items/s"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                             "unit": "MiB"},
        }
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
