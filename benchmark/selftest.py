"""Self-test of the benchmark's checks; times nothing and runs in seconds.

    python3 benchmark/selftest.py

For each workload it runs one small op, requires its check to accept the
output, then requires the check to reject each of these corruptions:
one value moved by 1e-6, one key (row, sample, record or point) missing,
a wrong exit code, and an output file that was not written (each call's
alone, and all of them after the next op's reset, which must remove the
files the first op left).  ``real-points`` calls the API, so it has no
exit code or files; its value is moved by 1e-6 in the direction of its
existing error, since the check there accepts anything within
epsilon = 1e-6, and a point at a known-faulty target must count as failed
when it misses epsilon and only then.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, import_program  # noqa: E402

SHIFT = 1e-6
NDJSON_VALUES = ("max_residual", "lhs", "rhs", "slack")


def value_mutants(kind: str, text: str) -> list[str]:
    if kind == "csv":
        lines = text.splitlines()
        out = []
        for i in sorted({1, len(lines) // 2, len(lines) - 1}):
            parts = lines[i].split(",")
            parts[1] = repr(float(parts[1]) + SHIFT)
            out.append("\n".join(lines[:i] + [",".join(parts)] + lines[i + 1 :]) + "\n")
        return out
    if kind == "json":
        out = []
        n = len(json.loads(text)["samples"])
        for i in sorted({0, n // 2, n - 1}):
            obj = json.loads(text)
            obj["samples"][i]["f"] += SHIFT
            out.append(json.dumps(obj))
        return out
    records = [json.loads(line) for line in text.splitlines()]
    out = []
    for i, rec in enumerate(records):
        for field in NDJSON_VALUES:
            if isinstance(rec.get(field), float):
                changed = [dict(r) for r in records]
                changed[i][field] = rec[field] + SHIFT
                out.append("\n".join(json.dumps(r) for r in changed) + "\n")
    return out


def key_mutants(kind: str, text: str) -> list[str]:
    if kind == "json":
        obj = json.loads(text)
        del obj["samples"][len(obj["samples"]) // 2]
        return [json.dumps(obj)]
    lines = text.splitlines()
    if kind == "csv":
        drop = [len(lines) // 2]
    else:
        drop = range(len(lines))  # every NDJSON record in turn
    return ["\n".join(lines[:i] + lines[i + 1 :]) + "\n" for i in drop]


def mutants(op, out):
    """(label, corrupted output) pairs for one op's output."""
    from workloads import CliOp

    if isinstance(op, CliOp):
        for i, (call, (rc, text)) in enumerate(zip(op.calls, out)):
            where = " ".join(call.argv[:3])
            swap = lambda new: out[:i] + [new] + out[i + 1 :]  # noqa: E731
            for m in value_mutants(call.kind, text):
                yield f"{where}: value moved", swap((rc, m))
            for m in key_mutants(call.kind, text):
                yield f"{where}: key missing", swap((rc, m))
            yield f"{where}: exit code {1 - rc}", swap((1 - rc, text))
            yield f"{where}: no output file", swap((rc, None))
        return
    errors = {(k.label, t): out[(k.label, t)] - k.f(t) for k, t in op.points}
    worst = max(errors, key=lambda key: abs(errors[key]))
    moved = dict(out)
    moved[worst] += SHIFT if errors[worst] >= 0 else -SHIFT
    yield f"point {worst}: value moved", moved
    missing = dict(out)
    del missing[next(iter(missing))]
    yield "one point missing", missing


def stale_outputs_rejected(workload, op, out, workdir) -> bool:
    """The next op's reset removes this op's files, so collecting without
    running finds none of them."""
    following = workload.op(1, 1, workdir, size="small")
    following.reset()
    stale = following.collect([rc for rc, _ in out])
    return all(following.calls[i].problems(rc, text) for i, (rc, text) in enumerate(stale))


def faulty_points_counted() -> bool:
    """A known-faulty point fails when it misses epsilon and is never an
    incorrect output."""
    from oracles import seed_kernel
    from workloads import EPSILON, PointsOp

    sine = seed_kernel("sine")
    t = 1707.6281
    op = PointsOp([], [(sine, t)])
    near, far = {("sine", t): sine.f(t) + EPSILON / 2}, {("sine", t): sine.f(t) + 2 * EPSILON}
    return (op.failures(near), op.failures(far), op.problems(near), op.problems(far)) == (0, 1, [], [])


def main() -> int:
    import_program()
    from workloads import WORKLOADS, CliOp

    ok = True
    (ROOT / ".bench_run").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".bench_run")
    try:
        for name, workload in WORKLOADS.items():
            op = workload.op(1, 0, workdir, size="small")
            out = op.collect(op.run())
            clean = op.problems(out)
            missed = [label for label, bad in mutants(op, out) if not op.problems(bad)]
            total = sum(1 for _ in mutants(op, out)) + 1
            if isinstance(op, CliOp):
                if not stale_outputs_rejected(workload, op, out, workdir):
                    missed.append("files left by the previous op")
            elif not faulty_points_counted():
                missed.append("known-faulty point counted wrongly")
            good = not clean and not missed
            ok = ok and good
            print(f"{'PASS' if good else 'FAIL'} {name}: clean output "
                  f"{'accepted' if not clean else 'REJECTED ' + str(clean[:2])}; "
                  f"{total - len(missed)}/{total} corruptions rejected")
            for label in missed:
                print(f"    not rejected: {label}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
