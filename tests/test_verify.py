from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALL_SEEDS, seed_kernel
from cocycle import (
    EvaluationError,
    ReconstructedFunction,
    affine_difference,
    bivariate_expression,
    check_bound_c0,
    cocycle_residual,
    grid_gap,
    grid_keys,
    kurepa_residual,
    modulus_estimate,
    modulus_probe,
    reconstruct_table,
    symmetry_residual,
)
from cocycle import verify
from cocycle.verify import _window_max_2d

F_BILINEAR = bivariate_expression("2*x*y")
F_SKEW = bivariate_expression("x*y^2")

_REPORT_KEYS = [
    "check",
    "params",
    "max_residual",
    "witness",
    "lhs",
    "rhs",
    "slack",
    "pass",
    "tolerance",
]


def _random_points(n, dim, span=1.0, seed=0):
    rng = random.Random(seed)
    return [tuple(rng.uniform(-span, span) for _ in range(dim)) for _ in range(n)]


class TestKurepaResidual:
    def test_bilinear_satisfies_identity(self):
        report = kurepa_residual(F_BILINEAR, _random_points(200, 3))
        assert report.passed
        assert report.results[0].max_residual <= 1e-12

    def test_skew_counterexample_at_unit_triple(self):
        # (x+y)z^2 + xy^2 = 3 versus yz^2 + x(y+z)^2 = 5 at (1,1,1)
        report = kurepa_residual(F_SKEW, [(1.0, 1.0, 1.0)])
        result = report.results[0]
        assert result.max_residual == 2.0
        assert not report.passed
        assert result.witness == (1.0, 1.0, 1.0)

    def test_constant_kernel_passes(self):
        F = bivariate_expression("3")
        report = kurepa_residual(F, _random_points(50, 3))
        assert report.results[0].max_residual == 0.0

    def test_witness_reevaluates_to_maximum(self):
        report = kurepa_residual(F_SKEW, _random_points(100, 3, seed=5))
        x, y, z = report.results[0].witness
        again = abs(
            F_SKEW(x + y, z) + F_SKEW(x, y) - F_SKEW(y, z) - F_SKEW(x, y + z)
        )
        assert again == report.results[0].max_residual

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            kurepa_residual(F_BILINEAR, [])


class TestSymmetryResidual:
    def test_cocycle_is_symmetric(self):
        for name in ALL_SEEDS:
            report = symmetry_residual(seed_kernel(name), _random_points(100, 2, 2.0))
            assert report.results[0].max_residual <= 1e-12

    def test_skew_kernel_detected(self):
        report = symmetry_residual(F_SKEW, [(1.0, 2.0)])
        assert report.results[0].max_residual == 2.0
        assert not report.passed


class TestCocycleResidual:
    def test_callable_oracle(self):
        report = cocycle_residual(
            F_BILINEAR, lambda t: float(t) ** 2 - float(t), _random_points(100, 2)
        )
        assert report.results[0].max_residual <= 1e-12

    def test_zero_kernel_zero_solution(self):
        F = bivariate_expression("0")
        report = cocycle_residual(F, lambda t: 0.0, _random_points(20, 2))
        assert report.results[0].max_residual == 0.0

    def test_corrupted_table_caught_with_witness(self):
        keys = grid_keys((0, 1), denominators=4)
        table = reconstruct_table(F_BILINEAR, keys)
        table.samples[Fraction(1, 2)] += 0.1
        pairs = [
            (Fraction(1, 4), Fraction(1, 4)),
            (Fraction(1, 3), Fraction(1, 3)),
            (Fraction(1, 4), Fraction(1, 2)),
            (Fraction(1, 3), Fraction(2, 3)),
        ]
        report = cocycle_residual(F_BILINEAR, table, pairs)
        result = report.results[0]
        assert result.max_residual >= 0.1 - 1e-9
        assert Fraction(1, 2) in set(result.witness) | {sum(result.witness)}

    def test_table_without_extension_rule(self):
        table = reconstruct_table(F_BILINEAR, grid_keys((0, 1), denominators=2))
        with pytest.raises(LookupError):
            cocycle_residual(F_BILINEAR, table, [(Fraction(1, 5), Fraction(1, 5))])


UNIT_BOX = ((0.0, 1.0), (0.0, 1.0))
SYMMETRIC_BOX = ((-1.0, 1.0), (-1.0, 1.0))


class TestModulusEstimate:
    # a kernel that ignores y has the modulus of its x profile: the widest
    # pairs at distance delta lie along the x axis
    def test_identity_map(self):
        got = modulus_estimate(lambda x, y: x, 0.1, UNIT_BOX, 0.05)
        assert got == pytest.approx(0.1, abs=1e-12)

    def test_constant(self):
        assert modulus_estimate(lambda x, y: 7.0, 0.25, UNIT_BOX, 0.05) == 0.0

    def test_parabola_on_symmetric_interval(self):
        got = modulus_estimate(lambda x, y: x * x - x, 1 / 8, SYMMETRIC_BOX, 1 / 64)
        assert got == pytest.approx(23 / 64, abs=1e-12)

    def test_parabola_against_brute_force(self):
        # independent check: direct max over all pairs of a fine 1-D grid,
        # which the x axis of the box grid reproduces
        xs = np.linspace(-1.0, 1.0, 257)
        vals = xs * xs - xs
        brute = 0.0
        for i in range(len(xs)):
            close = np.abs(xs - xs[i]) <= 1 / 8 + 1e-12
            brute = max(brute, float(np.max(np.abs(vals[close] - vals[i]))))
        got = modulus_estimate(lambda x, y: x * x - x, 1 / 8, SYMMETRIC_BOX, 1 / 128)
        assert got == pytest.approx(brute, abs=1e-9)

    def test_two_dimensional(self):
        got = modulus_estimate(F_BILINEAR, 0.25, ((0.0, 1.0), (0.0, 1.0)), 1 / 16)
        # independent brute force on a 2x finer nested grid, all pairs;
        # it sees a superset of the estimator's pairs, so it dominates
        xs = np.linspace(0, 1, 33)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        vals = 2 * X * Y
        brute = 0.0
        flatX, flatY, flatV = X.ravel(), Y.ravel(), vals.ravel()
        for i in range(len(flatV)):
            d2 = (flatX - flatX[i]) ** 2 + (flatY - flatY[i]) ** 2
            close = d2 <= 0.25**2 * (1 + 1e-12)
            brute = max(brute, float(np.max(np.abs(flatV[close] - flatV[i]))))
        # axis moves alone give 2 * delta at the far edge
        assert 0.5 - 1e-12 <= got <= brute + 1e-12

    def test_monotone_in_delta(self):
        f = lambda x, y: np.sin(3 * x) + y
        box = ((0.0, 2.0), (0.0, 2.0))
        small = modulus_estimate(f, 0.1, box, 0.02)
        large = modulus_estimate(f, 0.3, box, 0.02)
        assert small <= large + 1e-15

    def test_monotone_in_domain(self):
        f = lambda x, y: x * x + y
        inner = modulus_estimate(f, 0.25, UNIT_BOX, 0.05)
        outer = modulus_estimate(f, 0.25, ((-2.0, 2.0), (-2.0, 2.0)), 0.05)
        assert inner <= outer + 1e-15

    def test_step_must_not_exceed_delta(self):
        with pytest.raises(ValueError):
            modulus_estimate(lambda x, y: x, 0.1, UNIT_BOX, 0.2)

    def test_empty_domain(self):
        for box in (((1.0, 1.0), (0.0, 1.0)), ((0.0, 1.0), (1.0, 1.0))):
            with pytest.raises(ValueError):
                modulus_estimate(lambda x, y: x, 0.1, box, 0.05)

    def test_positive_delta_required(self):
        with pytest.raises(ValueError):
            modulus_estimate(lambda x, y: x, 0.0, UNIT_BOX, 0.05)

    @pytest.mark.parametrize(
        "fn", [seed_kernel("expo"), seed_kernel("sine"), lambda x, y: float(x) * float(y)],
        ids=["expo", "sine", "scalar-only"],
    )
    def test_row_blocks_equal_one_grid(self, fn, monkeypatch):
        # the grid is filled in row blocks; any block size, down to one
        # row, gives the value of a single full-grid evaluation
        box = ((-1.0, 2.0), (-0.5, 1.5))
        got = []
        for points in (10**9, 1000, 1):
            monkeypatch.setattr(verify, "_BLOCK_POINTS", points)
            got.append(modulus_estimate(fn, 0.25, box, 1 / 32))
        assert got[1] == got[0] and got[2] == got[0]

    @pytest.mark.parametrize(
        "domain,step,delta",
        [
            # 200,001^2 cells, 320 GB per float64 buffer
            (((-100, 100), (-100, 100)), 1e-3, 0.25),
            # 2,001^2 cells, under the cell limit, but 1,001 window passes
            (((0, 1), (0, 1)), 1 / 2000, 0.25),
        ],
        ids=["cells", "window-work"],
    )
    def test_oversized_grid_refused(self, domain, step, delta, monkeypatch):
        _refuse_grid(monkeypatch)
        with pytest.raises(ValueError, match="kernel grid too large"):
            modulus_estimate(F_BILINEAR, delta, domain, step)

    def test_grid_under_the_limits_admitted(self, monkeypatch):
        _refuse_grid(monkeypatch)
        with pytest.raises(Admitted) as exc:
            modulus_estimate(F_BILINEAR, 0.25, ((0, 1), (0, 2)), 1 / 64)
        assert exc.value.args == (65 * 129,)

    @pytest.mark.parametrize("domain", [(0.0, 1.0), ((0.0, 1.0),), ((0, 1), (0, 1), (0, 1))])
    def test_domain_must_be_a_box(self, domain):
        with pytest.raises(ValueError, match="must be a box"):
            modulus_estimate(lambda x, y: x, 0.1, domain, 0.05)
        with pytest.raises(ValueError, match="must be a box"):
            modulus_probe(lambda x, y: x, 0.1, domain)


def _brute_window_max_2d(vals, sx, sy, delta):
    # every offset (di, dj) in the delta-disk, each unordered pair once
    imax = int(math.floor(delta / sx + 1e-9))
    jmax = int(math.floor(delta / sy + 1e-9))
    worst = 0.0
    d2 = delta * delta * (1.0 + 1e-12)
    for di in range(0, imax + 1):
        for dj in range(-jmax, jmax + 1):
            if di == 0 and dj <= 0:
                continue
            if (di * sx) ** 2 + (dj * sy) ** 2 > d2:
                continue
            if di >= vals.shape[0] or abs(dj) >= vals.shape[1]:
                continue
            if dj >= 0:
                a = vals[di:, dj:]
                b = vals[: vals.shape[0] - di, : vals.shape[1] - dj]
            else:
                a = vals[di:, :dj]
                b = vals[: vals.shape[0] - di, -dj:]
            worst = max(worst, float(np.max(np.abs(a - b))))
    return worst


def _sample_values(shape, rng_seed, ties):
    rng = np.random.default_rng(rng_seed)
    if ties:
        return rng.integers(-3, 4, size=shape).astype(np.float64)
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4)


_STEPS = st.one_of(
    st.sampled_from([1 / 64, 1 / 10, 1 / 3, 0.25, 2 / 7]),
    st.floats(min_value=1e-3, max_value=1.0),
)
# delta as a multiple of a step: below one step, beyond the grid's
# extent, and at or just off whole multiples, where the 1e-9 floor slack
# and the 1e-12 disk slack decide which offsets count
_RATIOS = st.one_of(
    st.floats(min_value=0.1, max_value=45.0),
    st.builds(
        lambda k, e: k * (1.0 + e),
        st.integers(min_value=1, max_value=45),
        st.sampled_from([0.0, -1e-10, -1e-13, 1e-13, 1e-10]),
    ),
)


class TestWindowMaxKernels:
    @settings(max_examples=300, deadline=None)
    @given(
        n0=st.integers(1, 30),
        n1=st.integers(1, 30),
        sx=_STEPS,
        sy=_STEPS,
        ratio=_RATIOS,
        on_y=st.booleans(),
        rng_seed=st.integers(0, 2**32 - 1),
        ties=st.booleans(),
    )
    def test_2d_equals_pairwise(self, n0, n1, sx, sy, ratio, on_y, rng_seed, ties):
        vals = _sample_values((n0, n1), rng_seed, ties)
        delta = ratio * (sy if on_y else sx)
        got = _window_max_2d(vals, sx, sy, delta)
        assert got == _brute_window_max_2d(vals, sx, sy, delta)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 17), (17, 1), (1, 30), (30, 1)])
    @pytest.mark.parametrize("delta", [0.05, 0.1, 0.35, 1.0, 5.0])
    def test_2d_single_row_and_column(self, shape, delta):
        vals = _sample_values(shape, 11, False)
        sx, sy = 0.1, 0.07
        got = _window_max_2d(vals, sx, sy, delta)
        assert got == _brute_window_max_2d(vals, sx, sy, delta)

    @pytest.mark.parametrize("step", [1 / 64, 0.1, 1 / 3, 0.3, 2 / 7, 0.7])
    @pytest.mark.parametrize("k", [5, 10, 13, 17, 25])
    def test_2d_pythagorean_offsets(self, step, k):
        # offsets like (3, 4) at delta = 5 * step sit on the disk's rim
        vals = _sample_values((30, 30), k, False)
        delta = k * step
        assert _window_max_2d(vals, step, step, delta) == _brute_window_max_2d(
            vals, step, step, delta
        )


class TestNonFiniteKernel:
    @staticmethod
    def _nan_at_corner(x, y):
        # a plain callable: arrays fail float() and fall back to scalars
        x, y = float(x), float(y)
        return math.nan if (x, y) == (1.0, 1.0) else x * y

    def test_modulus_estimate_rejects_nan_2d(self):
        with pytest.raises(EvaluationError):
            modulus_estimate(self._nan_at_corner, 0.25, UNIT_BOX, 1 / 16)

    @staticmethod
    def _nan_on_edge(x, y):
        x = float(x)
        return math.nan if x == 1.0 else x

    def test_modulus_estimate_rejects_nan_on_edge(self):
        with pytest.raises(EvaluationError):
            modulus_estimate(self._nan_on_edge, 0.25, UNIT_BOX, 1 / 16)

    def test_bound_check_rejects_nan(self):
        table = reconstruct_table(F_BILINEAR, grid_keys((-1, 1), denominators=16))
        with pytest.raises(EvaluationError):
            check_bound_c0(self._nan_at_corner, table, [Fraction(1, 8)], 1)

    def test_modulus_probe_rejects_nan_on_edge(self):
        # max(worst, nan) used to drop the direction and return 0.0
        with pytest.raises(EvaluationError):
            modulus_probe(self._nan_on_edge, 0.25, UNIT_BOX)

    def test_modulus_probe_rejects_nan_2d(self):
        with pytest.raises(EvaluationError):
            modulus_probe(self._nan_at_corner, 0.25, UNIT_BOX)


class TestModulusProbe:
    def test_identity_map(self):
        got = modulus_probe(lambda x, y: x, 0.1, UNIT_BOX)
        assert got == pytest.approx(0.1, abs=1e-12)

    def test_never_exceeds_fine_grid_estimate(self):
        # the probe's diagonal pairs lie off the grid and can beat it for
        # a kernel that varies in y; this one, like the 1-D original, ignores y
        f = lambda x, y: np.sin(4 * x) + x
        box = ((0.0, 2.0), (0.0, 2.0))
        probe = modulus_probe(f, 0.125, box)
        grid = modulus_estimate(f, 0.125, box, 0.125 / 16)
        assert probe <= grid + 1e-9

    def test_captures_square_root_edge(self):
        # the defect of sqrt(|t|) decays like sqrt(delta) near the axes;
        # anchors on the box edge must see it
        F = seed_kernel("hoelder")
        f00 = F(0.0, 0.0)
        H = lambda x, y: F(x, y) - f00
        delta = 1 / 256
        got = modulus_probe(H, delta, ((0.0, 1.0), (0.0, 1.0)))
        assert got >= 0.8 * (math.sqrt(delta) - delta)

    def test_small_delta_cost_is_flat(self):
        F = seed_kernel("square")
        for delta in (1e-3, 1e-6, 1e-9):
            got = modulus_probe(F, delta, ((-1.0, 1.0), (-1.0, 1.0)))
            assert 0.0 < got <= 6 * delta + 1e-15


class Admitted(Exception):
    """A grid got past the size guards to the sampler."""


def _refuse_grid(monkeypatch):
    # the guard has to act before the kernel grid is allocated
    def grid(fn, xs, ys):
        raise Admitted(len(xs) * len(ys))

    monkeypatch.setattr(verify, "_grid", grid)


class TestBoundChecks:
    def test_bilinear_passes(self):
        table = reconstruct_table(F_BILINEAR, grid_keys((-1, 1), denominators=32))
        report = check_bound_c0(
            F_BILINEAR, table, [Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)], 1
        )
        assert report.passed
        kinds = {r.check for r in report.results}
        assert kinds == {"modulus-bound", "lattice-bound"}

    def test_transfer_factor_is_three(self):
        # right side must be exactly 3x the kernel modulus estimate
        table = reconstruct_table(F_BILINEAR, grid_keys((-1, 1), denominators=16))
        report = check_bound_c0(F_BILINEAR, table, [Fraction(1, 8)], 1)
        row = next(r for r in report.results if r.check == "modulus-bound")
        step = row.params["grid_step"]
        omega = modulus_estimate(F_BILINEAR, 1 / 8, ((-1.0, 1.0), (-1.0, 1.0)), step)
        assert row.rhs == pytest.approx(3.0 * omega, rel=1e-12)

    def test_delta_domain_validation(self):
        table = reconstruct_table(F_BILINEAR, grid_keys((-1, 1), denominators=8))
        for bad in (Fraction(1, 2), Fraction(3, 5), Fraction(0), Fraction(-1, 4)):
            with pytest.raises(ValueError):
                check_bound_c0(F_BILINEAR, table, [bad], 1)

    def test_requires_deltas(self):
        table = reconstruct_table(F_BILINEAR, grid_keys((-1, 1), denominators=8))
        with pytest.raises(ValueError):
            check_bound_c0(F_BILINEAR, table, [], 1)

    def test_requires_fine_enough_table(self):
        table = reconstruct_table(F_BILINEAR, grid_keys((-1, 1), denominators=4))
        with pytest.raises(ValueError):
            check_bound_c0(F_BILINEAR, table, [Fraction(1, 16)], 1)

    def test_rejects_small_box(self):
        table = reconstruct_table(F_BILINEAR, grid_keys((-1, 1), denominators=8))
        with pytest.raises(ValueError):
            check_bound_c0(F_BILINEAR, table, [Fraction(1, 4)], 0)

    @pytest.mark.parametrize("name", ["expo", "sine", "hoelder"])
    def test_row_blocks_equal_one_grid(self, name, monkeypatch):
        # the kernel grid is filled in row blocks; any block size, down to
        # one row, gives the report of a single full-grid evaluation
        F = seed_kernel(name)
        table = reconstruct_table(F, grid_keys((-2, 2), denominators=16))
        reports = []
        for points in (10**9, 1000, 1):
            monkeypatch.setattr(verify, "_BLOCK_POINTS", points)
            reports.append(check_bound_c0(F, table, [Fraction(1, 8)], 2).to_ndjson())
        assert reports[1] == reports[0] and reports[2] == reports[0]

    @staticmethod
    def _zero_table(keys):
        return ReconstructedFunction(keys=keys, values=[0.0] * len(keys), engine="dyadic")

    @pytest.mark.parametrize(
        "M,keys,deltas",
        [
            # 8,193^2 cells: f sampled at 1/1024 on [-1, 1]
            (1, dict(dyadic_level=10), [Fraction(1, 512), Fraction(1, 8)]),
            # 64,001^2 cells: f sampled at 1/8 on [-1000, 1000]
            (1000, dict(dyadic_level=3), [Fraction(1, 4)]),
            # 2,049^2 cells, under the cell limit, but 769 window passes
            (1, dict(dyadic_level=8), [Fraction(3, 8)]),
        ],
        ids=["cells", "wide-box", "window-work"],
    )
    def test_oversized_kernel_grid_refused(self, M, keys, deltas, monkeypatch):
        _refuse_grid(monkeypatch)
        table = self._zero_table(grid_keys((-M, M), **keys))
        with pytest.raises(ValueError, match="kernel grid too large"):
            check_bound_c0(F_BILINEAR, table, deltas, M)

    @pytest.mark.parametrize(
        "M,den,deltas,cells",
        [
            (2, 128, [Fraction(1, 4), Fraction(1, 16), Fraction(1, 64)], 2049**2),
            (1, 300, [Fraction(1, 300)], 2401**2),
        ],
        ids=["box-2-three-deltas", "delta-1/300"],
    )
    def test_documented_grids_admitted(self, M, den, deltas, cells, monkeypatch):
        _refuse_grid(monkeypatch)
        table = self._zero_table(grid_keys((-M, M), denominators=den))
        with pytest.raises(Admitted) as exc:
            check_bound_c0(F_BILINEAR, table, deltas, M)
        assert exc.value.args == (cells,)

    @pytest.mark.parametrize(
        "M,grid,densities",
        [(3, "denominators", range(120, 122)), (9, "denominators", range(40, 42)),
         (45, "denominators", range(8, 10)), (1, "dyadic_level", range(8, 10))],
    )
    def test_grid_gap_lays_out_the_keys_kernel_grid(self, M, grid, densities, monkeypatch):
        # verify-bound plans the kernel grid from grid_gap before the keys
        # exist, and check_bound_c0 again from the keys' exact widest gap:
        # the two gaps are equal, on both sides of the cell limit (about
        # 2,896 points per axis)
        gaps, plan = [], verify._plan

        def spy(deltas, M, gap):
            gaps.append(gap)
            return plan(deltas, M, gap)

        monkeypatch.setattr(verify, "_plan", spy)
        messages = []
        for density in densities:
            table = self._zero_table(grid_keys((-M, M), **{grid: density}))
            # a small delta: the cell limit decides, or else the spacing
            with pytest.raises(ValueError) as exc:
                check_bound_c0(F_BILINEAR, table, [Fraction(1, 10**4)], M)
            messages.append(str(exc.value))
            assert gaps[-1] == grid_gap((-M, M), **{grid: density})
        assert "too coarse" in messages[0] and "kernel grid too large" in messages[-1]

    def test_spacing_equal_to_delta_admitted(self):
        # the keys' float gaps reach 0.33333333333333337; the exact gap is 1/3
        table = reconstruct_table(F_BILINEAR, grid_keys((-1, 1), denominators=3))
        report = check_bound_c0(F_BILINEAR, table, [Fraction(1, 3)], 1)
        assert report.passed and len(report.results) == 2

    def test_kernel_grid_laid_out_once(self, monkeypatch):
        layouts, layout = [], verify._layout

        def spy(deltas, domain, *args):
            layouts.append(domain)
            return layout(deltas, domain, *args)

        monkeypatch.setattr(verify, "_layout", spy)
        table = reconstruct_table(F_BILINEAR, grid_keys((-2, 2), denominators=16))
        check_bound_c0(F_BILINEAR, table, [Fraction(1, 4), Fraction(1, 8)], 2)
        assert layouts.count(((-2, 2), (-2, 2))) == 1

    def test_coarse_second_delta_refused_before_F(self):
        # f is sampled at gaps up to 1/8: fine for 1/4, too coarse for 1/16
        calls = []

        def F(x, y):
            calls.append((x, y))
            return 2.0 * x * y

        table = self._zero_table(grid_keys((-1, 1), denominators=8))
        with pytest.raises(ValueError, match="too coarse for delta 1/16"):
            check_bound_c0(F, table, [Fraction(1, 4), Fraction(1, 16)], 1)
        assert calls == []

    def test_ndjson_schema(self):
        table = reconstruct_table(F_BILINEAR, grid_keys((-1, 1), denominators=8))
        report = check_bound_c0(F_BILINEAR, table, [Fraction(1, 8)], 1)
        lines = report.to_ndjson().strip().split("\n")
        assert len(lines) == 2
        for line in lines:
            obj = json.loads(line)
            assert list(obj) == _REPORT_KEYS
        first = json.loads(lines[0])
        assert first["params"]["delta"] == "1/8"


class TestAffineDifference:
    def test_exact_affine_gap(self):
        grid = [Fraction(k, 8) for k in range(9)]
        slope, intercept, residual = affine_difference(
            lambda t: float(t) ** 2, lambda t: float(t) ** 2 - float(t), grid
        )
        assert slope == pytest.approx(1.0, abs=1e-12)
        assert intercept == pytest.approx(0.0, abs=1e-12)
        assert residual <= 1e-12

    def test_identical_functions(self):
        grid = [0.0, 0.5, 1.0]
        slope, intercept, residual = affine_difference(math.sin, math.sin, grid)
        assert slope == 0.0 and intercept == 0.0 and residual == 0.0

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            affine_difference(math.sin, math.cos, [0.0])
