"""Acceptance gate: one test per shipped guarantee, one printed verdict
line each (the lines bypass capture, so they appear in any run mode).

Every expected value is a closed-form oracle evaluated in the test, or a
hand-derived constant, never a recorded output of the code under test.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from conftest import ALL_SEEDS, SMOOTH_SEEDS, oracle_solution, seed_kernel
from cocycle import (
    LatticeSolver,
    affine_difference,
    bivariate_expression,
    check_bound_c0,
    grid_keys,
    h_rational,
    kurepa_residual,
    modulus_probe,
    reconstruct_ck_point,
    reconstruct_ck_table,
    reconstruct_point,
    reconstruct_table,
)
from cocycle.cli import run
from cocycle.smooth import _dl


def _verdict(capsys, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[acceptance] {name}: {status} ({detail})")
    assert ok, f"{name}: {detail}"


def test_round_trip_denominators_64(capsys):
    keys = grid_keys((-2, 2), denominators=64)
    worst_overall = 0.0
    slowest = 0.0
    ok = True
    for name in ALL_SEEDS:
        tol = 1e-7 if name == "hoelder" else 1e-9
        F = seed_kernel(name)
        oracle = oracle_solution(name)
        start = time.perf_counter()
        table = reconstruct_table(F, keys)
        elapsed = time.perf_counter() - start
        worst = max(abs(table.value_at(k) - oracle(k)) for k in keys)
        ok = ok and worst <= tol and elapsed < 2.0
        worst_overall = max(worst_overall, worst)
        slowest = max(slowest, elapsed)
    _verdict(
        capsys,
        "round-trip on denominators <= 64 over [-2, 2]",
        ok,
        f"max |f - oracle| = {worst_overall:.3e}, slowest seed {slowest:.2f}s",
    )


def test_engine_agreement_dyadic_level_10(capsys):
    keys = grid_keys((0, 1), dyadic_level=10)
    worst = 0.0
    for name in SMOOTH_SEEDS:
        solver = LatticeSolver(seed_kernel(name))
        for k in keys:
            gap = abs(solver.h(k, "euclid-chain") - solver.h(k, "dyadic"))
            worst = max(worst, gap)
    _verdict(
        capsys,
        "engine agreement on dyadic level <= 10",
        worst <= 1e-10,
        f"max disagreement = {worst:.3e}",
    )


def _random_lattice_point(rng: random.Random) -> Fraction:
    den = rng.randint(1, 16)
    return Fraction(rng.randint(-2 * den, 2 * den), den)


def test_cocycle_restoration(capsys):
    rng = random.Random(101)
    worst_lattice = 0.0
    for name in ALL_SEEDS:
        F = seed_kernel(name)
        solver = LatticeSolver(F)
        for _ in range(200):
            x = _random_lattice_point(rng)
            y = _random_lattice_point(rng)
            resid = abs(
                F(float(x), float(y))
                - (solver.f_value(x + y) - solver.f_value(x) - solver.f_value(y))
            )
            worst_lattice = max(worst_lattice, resid)
    worst_real = 0.0
    for name in ALL_SEEDS:
        F = seed_kernel(name)
        solver = LatticeSolver(F)
        for _ in range(20):
            x = rng.uniform(-1, 1)
            y = rng.uniform(-1, 1)
            fx = reconstruct_point(F, x, epsilon=1e-6, solver=solver)
            fy = reconstruct_point(F, y, epsilon=1e-6, solver=solver)
            fxy = reconstruct_point(F, x + y, epsilon=1e-6, solver=solver)
            worst_real = max(worst_real, abs(F(x, y) - (fxy - fx - fy)))
    ok = worst_lattice <= 1e-9 and worst_real <= 1e-5
    _verdict(
        capsys,
        "cocycle restoration (1000 rational pairs, 100 real pairs)",
        ok,
        f"lattice residual = {worst_lattice:.3e}, real residual = {worst_real:.3e}",
    )


def test_modulus_transfer_bound(capsys):
    deltas = [Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)]
    start = time.perf_counter()
    ok = True
    worst_slack = math.inf
    for name in ALL_SEEDS:
        F = seed_kernel(name)
        table = reconstruct_table(F, grid_keys((-2, 2), dyadic_level=4), engine="dyadic")
        for M in (1, 2):
            report = check_bound_c0(F, table, deltas, M)
            ok = ok and report.passed
            worst_slack = min(
                worst_slack,
                min(r.slack for r in report.results if r.check == "modulus-bound"),
            )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _verdict(
        capsys,
        "modulus transfer factor 3 (all seeds, deltas 1/4 1/8 1/16, M 1 and 2)",
        ok,
        f"min slack = {worst_slack:.3e}, total {elapsed:.2f}s",
    )


def test_lattice_values_bounded_by_kernel_modulus(capsys):
    rng = random.Random(202)
    fractions: list[Fraction] = []
    while len(fractions) < 50:
        n = rng.randint(3, 1000)
        p = rng.randint(1, (n - 1) // 2)
        r = Fraction(p, n)
        if r not in fractions and 0 < r < Fraction(1, 2):
            fractions.append(r)
    box = ((0.0, 1.0), (0.0, 1.0))
    ok = True
    worst_margin = math.inf
    for name in ALL_SEEDS:
        F = seed_kernel(name)
        f00 = F(0.0, 0.0)
        solver = LatticeSolver(F)
        for r in fractions:
            lhs = abs(solver.h(r))
            rhs = 2.0 * modulus_probe(
                lambda x, y: F(x, y) - f00, float(r), box
            ) + 1e-6
            ok = ok and lhs <= rhs
            worst_margin = min(worst_margin, rhs - lhs)
    _verdict(
        capsys,
        "lattice bound |h(p/n)| <= 2 omega(H; p/n) (50 fractions, n <= 1000)",
        ok,
        f"min margin = {worst_margin:.3e}",
    )


def test_smooth_route(capsys):
    F = bivariate_expression("2*x*y")
    point_val = reconstruct_ck_point(F, 0.5)
    ok = abs(point_val - 0.25) <= 1e-8
    keys = grid_keys((0, 1), dyadic_level=6)
    worst_resid = 0.0
    worst_anti = 0.0
    for name in SMOOTH_SEEDS:
        Fs = seed_kernel(name)
        f_ck = reconstruct_ck_table(Fs, keys)
        f_c0 = reconstruct_table(Fs, keys)
        _, _, resid = affine_difference(f_ck, f_c0, keys)
        worst_resid = max(worst_resid, resid)
        # h1(t) + h2(t) = dF/dl(t, 0) + dF/dl(0, t) - dF/dl(0, 0)
        base = _dl(Fs, 0.0, 0.0)
        worst_anti = max(
            worst_anti,
            max(abs(_dl(Fs, float(k), 0.0) + _dl(Fs, 0.0, float(k)) - base) for k in keys),
        )
    ok = ok and worst_resid <= 1e-6 and worst_anti <= 1e-6
    _verdict(
        capsys,
        "smooth route (point value, affine gap to continuous route, h1 = -h2)",
        ok,
        f"|f(0.5) - 0.25| = {abs(point_val - 0.25):.3e}, "
        f"affine residual = {worst_resid:.3e}, max |h1 + h2| = {worst_anti:.3e}",
    )


def test_additivity_defect_gate(capsys):
    rng = random.Random(303)
    triples = [tuple(rng.uniform(-1, 1) for _ in range(3)) for _ in range(1000)]
    worst = 0.0
    for name in ALL_SEEDS:
        report = kurepa_residual(seed_kernel(name), triples)
        worst = max(worst, report.results[0].max_residual)
    skew = kurepa_residual(bivariate_expression("x*y^2"), [(1.0, 1.0, 1.0)])
    skew_resid = skew.results[0].max_residual
    cli_code = run(["check", "--expr", "x*y^2", "--box", "1", "--samples", "100"])
    ok = worst <= 1e-10 and abs(skew_resid - 2.0) <= 1e-12 and cli_code == 1
    _verdict(
        capsys,
        "identity gate (cocycles pass, x*y^2 fails with residual 2 and exit 1)",
        ok,
        f"cocycle residual = {worst:.3e}, counterexample residual = {skew_resid}, "
        f"cli exit = {cli_code}",
    )


def test_performance_stress(capsys):
    F = seed_kernel("sine")
    oracle = oracle_solution("sine")
    r = Fraction(1, 1000003)
    start = time.perf_counter()
    value = h_rational(F, r)
    chain_time = time.perf_counter() - start
    # h = f + F(0,0) and F(0,0) = 0 for the sine seed
    chain_err = abs(value - oracle(r))

    solver = LatticeSolver(seed_kernel("expo"))
    keys = grid_keys((0, 1), dyadic_level=12)
    start = time.perf_counter()
    for k in keys:
        solver.h(k, "dyadic")
    grid_time = time.perf_counter() - start

    ok = chain_time < 2.0 and chain_err <= 1e-9 and grid_time < 1.0
    _verdict(
        capsys,
        "performance (million-denominator chain, memoized level-12 grid)",
        ok,
        f"chain {chain_time:.2f}s (err {chain_err:.1e}), grid {grid_time:.2f}s",
    )
