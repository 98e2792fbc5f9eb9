"""The four benchmark workloads: their seeded inputs, the op each one
repeats, and the checks of every output against closed-form oracles.

Every op is a fixed bundle of work that spans its workload's whole input
mix, so op times are identically distributed; inputs are drawn from
``(workload, seed, op index)``, so one seed always gives the same inputs.
CLI ops call ``cocycle.cli.run(argv)`` in process and write with ``--out``
into a work directory; each CLI call builds its own ``LatticeSolver``.
The ``real-points`` op calls ``reconstruct_point`` without a solver, so
each point gets a fresh one.

An operation is one CLI call or one real point; ``attempted`` and
``failed`` count operations, and every op attempts the same number.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from oracles import (
    SEEDS,
    SMOOTH_SEEDS,
    Kernel,
    bilinear_kernel,
    dyadic_keys,
    farey_keys,
    seed_kernel,
)

INTERVAL = ("-2", "2")
EPSILON = 1e-6  # real-point tolerance requested from reconstruct_point
RESIDUAL_TOL = 1e-9  # slack when a residual or bound is recomputed
BOUND_DELTA = Fraction(1, 4)


class OpFailed(Exception):
    """The program raised or exited with a usage/evaluation error."""


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _bilinear(rng: random.Random) -> Kernel:
    return bilinear_kernel(Fraction(rng.randint(1, 9), rng.randint(2, 9)))


# --- output checks -------------------------------------------------------

def _compare_keys(seen: list[Fraction], expected: list[Fraction]) -> list[str]:
    problems = []
    if len(seen) != len(set(seen)):
        problems.append(f"{len(seen) - len(set(seen))} duplicate keys")
    missing = set(expected) - set(seen)
    extra = set(seen) - set(expected)
    if missing:
        problems.append(f"{len(missing)} keys missing, e.g. {min(missing)}")
    if extra:
        problems.append(f"{len(extra)} unexpected keys, e.g. {min(extra)}")
    return problems


def _compare_values(rows, oracle, tolerance: float) -> list[str]:
    worst, where = 0.0, None
    for key, value in rows:
        err = abs(value - oracle(float(key)))
        if not err <= worst:  # also catches NaN
            worst, where = err, key
    if not worst <= tolerance:
        return [f"|f - oracle| = {worst:.3g} at t = {where} exceeds {tolerance:g}"]
    return []


def check_table_csv(text: str, kernel: Kernel, expected: list[Fraction]) -> list[str]:
    """CSV table from `reconstruct`: every key once, values near the oracle."""
    lines = text.splitlines()
    if not lines or lines[0] not in ("t,f", "t,f,t_exact"):
        return [f"bad CSV header {lines[:1]}"]
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        key = Fraction(parts[2]) if len(parts) == 3 and parts[2] else Fraction(parts[0])
        if float(parts[0]) != float(key):
            return [f"row {line!r}: t does not match its exact key"]
        rows.append((key, float(parts[1])))
    return _compare_keys([k for k, _ in rows], expected) + _compare_values(
        rows, kernel.f, kernel.tolerance
    )


def check_table_json(
    text: str, kernel: Kernel, expected: list[Fraction], engine: str
) -> list[str]:
    """JSON table from `reconstruct --format json` for the given engine."""
    obj = json.loads(text)
    if obj.get("engine") != engine:
        return [f"engine {obj.get('engine')!r}, expected {engine!r}"]
    rows = [
        (Fraction(r["t_exact"]) if "t_exact" in r else Fraction(r["t"]), float(r["f"]))
        for r in obj["samples"]
    ]
    oracle = kernel.ck if engine == "ck" else kernel.f
    return _compare_keys([k for k, _ in rows], expected) + _compare_values(
        rows, oracle, kernel.tolerance
    )


def _records(text: str) -> dict[str, list[dict]]:
    by_check: dict[str, list[dict]] = {}
    for line in text.splitlines():
        rec = json.loads(line)
        by_check.setdefault(rec["check"], []).append(rec)
    return by_check


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(b))


def check_residuals(text: str, F: Callable, samples: int, box: float) -> list[str]:
    """NDJSON from `check`: one kurepa and one symmetry record, each
    maximum recomputed at its reported witness."""
    by_check = _records(text)
    problems = []
    if sorted(by_check) != ["kurepa", "symmetry"] or any(
        len(v) != 1 for v in by_check.values()
    ):
        return [f"expected one kurepa and one symmetry record, got {sorted(by_check)}"]
    for name, arity, resid in (
        ("kurepa", 3, lambda x, y, z: F(x + y, z) + F(x, y) - F(y, z) - F(x, y + z)),
        ("symmetry", 2, lambda x, y: F(x, y) - F(y, x)),
    ):
        rec = by_check[name][0]
        witness = rec["witness"]
        if len(witness) != arity or any(not abs(w) <= box for w in witness):
            problems.append(f"{name}: witness {witness} outside the sampled box")
            continue
        worst = rec["max_residual"]
        if not _close(worst, abs(resid(*witness)), RESIDUAL_TOL):
            problems.append(
                f"{name}: reported {worst!r}, recomputed {abs(resid(*witness))!r}"
            )
        if rec["pass"] != (worst <= rec["tolerance"]):
            problems.append(f"{name}: pass flag disagrees with the residual")
        if rec["params"].get("samples") != samples:
            problems.append(f"{name}: {rec['params']} does not report {samples} samples")
    return problems


def _pair_scan(keys: list[Fraction], values: list[float], delta: Fraction) -> float:
    worst = 0.0
    j = 0
    for i, k in enumerate(keys):
        j = max(j, i + 1)
        while j < len(keys) and keys[j] - k <= delta:
            j += 1
        for v in values[i + 1 : j]:
            worst = max(worst, abs(v - values[i]))
    return worst


def _grid_pairs_max(F, M: float, step: float, delta: float, seed: int) -> float:
    """Largest |F(a) - F(b)| over random pairs of the grid on [-M, M]^2 with
    spacing ``step`` and |a - b| <= delta."""
    n = round(2 * M / step)
    axis = np.linspace(-M, M, n + 1)
    reach = int(math.floor(delta / step + 1e-9))
    gen = np.random.default_rng(seed)
    count = 4000
    i, j = gen.integers(0, n + 1, count), gen.integers(0, n + 1, count)
    di, dj = gen.integers(-reach, reach + 1, count), gen.integers(-reach, reach + 1, count)
    keep = (
        ((di * step) ** 2 + (dj * step) ** 2 <= delta * delta * (1 + 1e-12))
        & (0 <= i + di) & (i + di <= n) & (0 <= j + dj) & (j + dj <= n)
    )
    i, j, di, dj = i[keep], j[keep], di[keep], dj[keep]
    a = F(axis[i], axis[j])
    b = F(axis[i + di], axis[j + dj])
    return float(np.max(np.abs(a - b)))


def check_bound(text: str, kernel: Kernel, order: int, seed: int) -> list[str]:
    """NDJSON from `verify-bound --delta 1/4 --denominators <order>` on
    [-1, 1]: lhs values recomputed from oracle values on the same keys,
    rhs/3 at least the kernel's variation over sampled grid pairs."""
    by_check = _records(text)
    if sorted(by_check) != ["lattice-bound", "modulus-bound"] or any(
        len(v) != 1 for v in by_check.values()
    ):
        return [f"expected one modulus-bound and one lattice-bound record, got {sorted(by_check)}"]
    problems = []
    for name, rec in ((n, v[0]) for n, v in by_check.items()):
        if Fraction(rec["params"]["delta"]) != BOUND_DELTA:
            problems.append(f"{name}: delta {rec['params']['delta']}")
        if rec["slack"] != rec["rhs"] - rec["lhs"]:
            problems.append(f"{name}: slack {rec['slack']!r} is not rhs - lhs")
        if rec["pass"] != (rec["lhs"] <= rec["rhs"] + rec["tolerance"]):
            problems.append(f"{name}: pass flag disagrees with lhs and rhs")
        if not rec["pass"]:
            problems.append(f"{name}: bound reported as failed")

    rec = by_check["modulus-bound"][0]
    keys = farey_keys(order, -1, 1)
    lhs = _pair_scan(keys, [kernel.f(float(k)) for k in keys], BOUND_DELTA)
    if not abs(rec["lhs"] - lhs) <= 2 * kernel.tolerance:
        problems.append(f"modulus-bound: lhs {rec['lhs']!r}, oracle {lhs!r}")
    sampled = _grid_pairs_max(kernel.F, 1.0, rec["params"]["grid_step"], float(BOUND_DELTA), seed)
    if not sampled <= rec["rhs"] / 3.0 + RESIDUAL_TOL:
        problems.append(f"modulus-bound: rhs/3 = {rec['rhs'] / 3!r} below sampled {sampled!r}")

    rec = by_check["lattice-bound"][0]
    h = abs(kernel.h(float(BOUND_DELTA)))
    if not abs(rec["lhs"] - h) <= kernel.tolerance:
        problems.append(f"lattice-bound: lhs {rec['lhs']!r}, oracle |h(1/4)| = {h!r}")
    return problems


# --- ops -----------------------------------------------------------------

@dataclass
class Call:
    """One in-process CLI invocation and the check of what it writes."""

    argv: list[str]
    expect_rc: int
    kind: str  # csv, json or ndjson
    check: Callable[[str], list[str]]

    def problems(self, rc: int, text: str | None) -> list[str]:
        if rc != self.expect_rc:
            return [f"exit code {rc}, expected {self.expect_rc}"]
        if text is None:
            return ["no --out file written"]
        return self.check(text)

    def items(self, text: str | None) -> int:
        if text is None:
            return 0
        if self.kind == "json":
            return len(json.loads(text)["samples"])
        return len(text.splitlines()) - (self.kind == "csv")


class CliOp:
    """A bundle of CLI calls; ``run`` is the timed part."""

    def __init__(self, calls: list[Call], workdir: str):
        self.calls = calls
        self.paths = [os.path.join(workdir, f"call{i}.out") for i in range(len(calls))]
        self.operations = len(calls)

    def reset(self) -> None:
        """Remove earlier ops' outputs, so a call that writes nothing
        cannot pass on an older file."""
        for path in self.paths:
            if os.path.exists(path):
                os.remove(path)

    def run(self):
        from cocycle import cli  # looked up per op so a traced run sees its wrappers

        return [cli.run(c.argv + ["--out", p]) for c, p in zip(self.calls, self.paths)]

    def collect(self, rcs):
        out = []
        for call, path, rc in zip(self.calls, self.paths, rcs):
            if rc == 2:
                raise OpFailed(f"exit code 2 from {' '.join(call.argv)}")
            if not os.path.exists(path):
                out.append((rc, None))
                continue
            with open(path, encoding="utf-8") as fh:
                out.append((rc, fh.read()))
        return out

    def failures(self, out) -> int:
        return 0

    def problems(self, out) -> list[str]:
        return [
            f"{' '.join(c.argv)}: {p}"
            for c, (rc, text) in zip(self.calls, out)
            for p in c.problems(rc, text)
        ]

    def items(self, out) -> int:
        return sum(c.items(text) for c, (_, text) in zip(self.calls, out))


class PointsOp:
    """Real-point values from ``reconstruct_point`` at seeded targets, and
    at fixed ``faulty`` targets where the program is known to miss epsilon.
    A faulty point whose value misses epsilon counts as a failed operation,
    not as an incorrect output; any other point that misses it is incorrect."""

    def __init__(self, points: list[tuple[Kernel, float]],
                 faulty: list[tuple[Kernel, float]] = ()):
        self.points = points
        self.faulty = list(faulty)
        self.operations = len(points) + len(self.faulty)

    def reset(self) -> None:
        pass

    def run(self):
        from cocycle import continuous, expressions

        values = {}
        specs = {}
        for kernel, t in self.points + self.faulty:
            F = specs.get(kernel.label)
            if F is None:
                g = expressions.builtin_seed(kernel.label)
                F = specs[kernel.label] = expressions.cocycle_from_seed(g)
            values[(kernel.label, t)] = continuous.reconstruct_point(F, t, epsilon=EPSILON)
        return values

    def collect(self, values):
        return values

    @staticmethod
    def _misses(values, points) -> list[tuple[tuple, float]]:
        """(key, error) of each point whose value is not within epsilon."""
        misses = []
        for kernel, t in points:
            key = (kernel.label, t)
            if key in values:
                err = abs(values[key] - kernel.f(t))
                if not err <= EPSILON:  # also catches NaN
                    misses.append((key, err))
        return misses

    def problems(self, values) -> list[str]:
        expected = {(k.label, t) for k, t in self.points + self.faulty}
        problems = []
        if set(values) != expected:
            problems.append(
                f"{len(expected - set(values))} points missing, "
                f"{len(set(values) - expected)} unexpected"
            )
        for key, err in self._misses(values, self.points):
            problems.append(f"{key}: |f - oracle| = {err:.3g} exceeds {EPSILON:g}")
        return problems

    def failures(self, values) -> int:
        return len(self._misses(values, self.faulty))

    def items(self, values) -> int:
        return len(values)


# --- workloads -----------------------------------------------------------

class RationalGrid:
    """Euclid-chain reconstruction to CSV over the Farey grid on [-2, 2]
    for the five builtin seeds and one seeded bilinear kernel."""

    name = "rational-grid"
    ORDER = {"full": 48, "small": 8}

    def op(self, seed: int, index: int, workdir: str, size: str = "full") -> CliOp:
        rng = _rng(self.name, seed, index)
        order = self.ORDER[size]
        expected = farey_keys(order, -2, 2)
        calls = []
        for kernel in [seed_kernel(n) for n in SEEDS] + [_bilinear(rng)]:
            argv = ["reconstruct", *kernel.argv, "--engine", "euclid-chain",
                    "--denominators", str(order), "--interval", *INTERVAL]
            calls.append(Call(argv, 0, "csv",
                              lambda text, k=kernel: check_table_csv(text, k, expected)))
        return CliOp(calls, workdir)


class DyadicGrid:
    """Dyadic-engine JSON over [-2, 2] at a fixed level, plus the ck route
    on a coarser dyadic sub-grid, for the smooth seeds and one seeded
    bilinear kernel."""

    name = "dyadic-grid"
    LEVELS = {"full": (10, 6), "small": (4, 3)}

    def op(self, seed: int, index: int, workdir: str, size: str = "full") -> CliOp:
        rng = _rng(self.name, seed, index)
        level, ck_level = self.LEVELS[size]
        kernels = [seed_kernel(n) for n in SMOOTH_SEEDS] + [_bilinear(rng)]
        calls = []
        for engine, lev in (("dyadic", level), ("ck", ck_level)):
            expected = dyadic_keys(lev, -2, 2)
            for kernel in kernels:
                argv = ["reconstruct", *kernel.argv, "--engine", engine,
                        "--dyadic-level", str(lev), "--interval", *INTERVAL,
                        "--format", "json"]
                calls.append(Call(
                    argv, 0, "json",
                    lambda text, k=kernel, e=expected, g=engine: check_table_json(text, k, e, g),
                ))
        return CliOp(calls, workdir)


def _kernel_xy2(x, y):
    return x * y * y


class Verify:
    """`check` on the five builtin seeds and on the non-solvable x*y^2
    (exit 1 is correct), then `verify-bound --delta 1/4` for hoelder at a
    density where the kernel's window maxima dominate."""

    name = "verify"
    SIZES = {"full": (400, 1000, 40), "small": (20, 50, 8)}
    BOX = 2.0  # the `check` command's default sampling half-width

    def op(self, seed: int, index: int, workdir: str, size: str = "full") -> CliOp:
        rng = _rng(self.name, seed, index)
        samples, bad_samples, order = self.SIZES[size]
        calls = []
        for name in SEEDS:
            kernel = seed_kernel(name)
            argv = ["check", *kernel.argv, "--samples", str(samples),
                    "--rng-seed", str(rng.randrange(1 << 30))]
            calls.append(Call(argv, 0, "ndjson",
                              lambda text, F=kernel.F: check_residuals(text, F, samples, self.BOX)))
        argv = ["check", "--expr", "x*y^2", "--samples", str(bad_samples),
                "--rng-seed", str(rng.randrange(1 << 30))]
        calls.append(Call(argv, 1, "ndjson",
                          lambda text: check_residuals(text, _kernel_xy2, bad_samples, self.BOX)))
        hoelder = seed_kernel("hoelder")
        argv = ["verify-bound", *hoelder.argv, "--delta", "1/4", "--denominators", str(order)]
        pair_seed = rng.randrange(1 << 30)
        calls.append(Call(argv, 0, "ndjson",
                          lambda text: check_bound(text, hoelder, order, pair_seed)))
        return CliOp(calls, workdir)


class RealPoints:
    """``reconstruct_point(F, t, epsilon=1e-6)`` at float targets: one
    seeded target per unit stratum of [-4, 4] for each builtin seed, one
    seeded far target in each third of 1e3 <= |t| < 5e3 for hoelder and
    square, and for sine one fixed far target in each third.

    The sine far targets do not depend on the seed.  Each lies where
    ``modulus_probe``'s anchor spacing M/16 (M = ceil|t| + 1) is close to a
    multiple of 2*pi, so the probe aliases and the returned value misses
    epsilon: every one fails, on every run, and is counted in ``failed``.
    Seeded sine far targets would land in such a window on some seeds only."""

    name = "real-points"
    FAR_SEEDS = ("hoelder", "square")
    FAR_BANDS = tuple((1e3 + i * 4e3 / 3, 1e3 + (i + 1) * 4e3 / 3) for i in range(3))
    SINE_FAR = (1707.6281, -3215.6281, 4924.6281)  # M = 1709, 3217, 4926
    SIZES = {"full": (range(-4, 4), FAR_BANDS, SINE_FAR),
             "small": (range(0, 1), ((1e2, 2e2),), ())}

    def op(self, seed: int, index: int, workdir: str, size: str = "full") -> PointsOp:
        rng = _rng(self.name, seed, index)
        strata, bands, sine_far = self.SIZES[size]
        points = []
        for name in SEEDS:
            kernel = seed_kernel(name)
            points += [(kernel, k + rng.random()) for k in strata]
            if name in self.FAR_SEEDS:
                points += [(kernel, rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi))
                           for lo, hi in bands]
        sine = seed_kernel("sine")
        return PointsOp(points, [(sine, t) for t in sine_far])


WORKLOADS = {w.name: w for w in (RationalGrid(), DyadicGrid(), Verify(), RealPoints())}
