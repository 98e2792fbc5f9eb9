"""Reference scaling curves for the superlinear paths; not end-to-end
metrics, and no check of outputs beyond the exit codes.

    python3 benchmark/curves.py

Prints the median wall time of 3 runs of each point, in this process:
  - `verify-bound --seed hoelder --delta 1/4` against --denominators 16..40;
  - `reconstruct_point` (sine, epsilon 1e-6, fresh solver) against |t|;
  - `reconstruct --seed sine --engine dyadic --format json` on [-2, 2]
    against --dyadic-level 10..13.
The `--box 2` three-delta verify-bound case is left out: it runs for more
than ten minutes.
"""

from __future__ import annotations

import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, import_program  # noqa: E402

REPEATS = 3


def timed(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    import_program()
    from cocycle import builtin_seed, cocycle_from_seed, reconstruct_point
    from cocycle.cli import run

    (ROOT / ".bench_run").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="curves-", dir=ROOT / ".bench_run")
    out = os.path.join(workdir, "out")

    def cli(*argv):
        def call():
            rc = run([*argv, "--out", out])
            if rc != 0:
                raise SystemExit(f"{' '.join(argv)} exited {rc}")
        return call

    try:
        print("verify-bound --seed hoelder --delta 1/4")
        for den in (16, 24, 32, 40):
            t = timed(cli("verify-bound", "--seed", "hoelder", "--delta", "1/4",
                          "--denominators", str(den)))
            print(f"  --denominators {den:3d}  {t:8.3f} s")

        print("reconstruct_point, sine, epsilon 1e-6")
        F = cocycle_from_seed(builtin_seed("sine"))
        for target in (10.3, 103.7, 1003.1, 4999.2):
            t = timed(lambda: reconstruct_point(F, target, epsilon=1e-6))
            print(f"  |t| = {target:7.1f}  {t:8.3f} s")

        print("reconstruct --seed sine --engine dyadic --format json --interval -2 2")
        for level in (10, 11, 12, 13):
            t = timed(cli("reconstruct", "--seed", "sine", "--engine", "dyadic",
                          "--dyadic-level", str(level), "--interval", "-2", "2",
                          "--format", "json"))
            print(f"  --dyadic-level {level}  {t:8.3f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
