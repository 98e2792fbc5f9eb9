"""Steadiness mode: run each workload back to back, as two sets of runs
with one seed per run, and summarize every metric of each set.

    python3 benchmark/steadiness.py [--workloads W ...] [--runs 10]
                                    [--seconds 25] [--trace 0]

Set 1 uses seeds 1..runs and set 2 seeds runs+1..2*runs.  The runs of a
workload alternate between the two sets, so a drift of the machine's
speed reaches both alike.

For each metric and set it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread (the
interquartile distance as a share of the median) and the largest relative
distance of one run from the median.  For end-to-end metrics it also
prints the bound from BENCHMARK.json, whether the spread is below a third
of it, and whether set 2's median is no worse than set 1's by more than
the bound.  It exits 1 if any of these fails, or if the share of failed
operations differs between runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if trace:  # a traced run's op times, for the tracing overhead
        summary = json.loads(next(ln for ln in lines if ln.startswith("# {"))[2:])
        for name in ("op_p50_s", "items_per_s"):
            result["metrics"][f"traced.{name}"] = {"value": summary[name]}
    return result


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "largest": max(abs(v - med) for v in values) / med if med else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}

    steady = True
    for workload in args.workloads:
        sets = ([], [])
        for i in range(1, args.runs + 1):
            for k, runs in enumerate(sets):
                runs.append(run_once(workload, k * args.runs + i, args.seconds, args.trace))
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        steady = steady and len(shares) == 1
        medians = []
        for k, runs in enumerate(sets, 1):
            print(f"\n{workload}, set {k}: {len(runs)} runs, "
                  f"all correct: {all(r['correct'] for r in runs)}, "
                  f"failed shares: {sorted(shares)}, attempted: {[r['attempted'] for r in runs]}")
            print(f"  {'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} "
                  f"{'largest':>7s}  bound")
            summary = {}
            for name in runs[0]["metrics"]:
                s = summary[name] = summarize([r["metrics"][name]["value"] for r in runs])
                verdict = ""
                if name in bounds:
                    ok = s["spread"] < bounds[name] / 3
                    steady = steady and ok
                    verdict = f"{bounds[name]:.2f} {'ok' if ok else 'SPREAD TOO WIDE'}"
                print(f"  {name:32s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                      f"{s['spread']:7.3f} {s['largest']:7.3f}  {verdict}")
            medians.append(summary)
        print(f"\n{workload}, set 2 median against set 1:")
        for name in medians[0]:
            a, b = medians[0][name]["median"], medians[1][name]["median"]
            change = (b - a) / a if a else 0.0
            verdict = ""
            if name in bounds:
                worse = change if lower[name] else -change
                ok = worse <= bounds[name]
                steady = steady and ok
                verdict = "ok" if ok else "WORSE THAN BOUND"
            print(f"  {name:32s} {change:+8.3f}  {verdict}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
