"""Diagnostics tests: discrete orthonormality, mode errors, rate fits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homokin.diagnostics import (
    ConvergenceReport,
    EnergyField,
    ModeSeries,
    fit_rate,
    legendre_modes,
    mode_error,
    norm_difference,
    orthonormal_polynomials,
)
from oracles import CellEnergyField, stieltjes_polynomials


def midpoint_grid(n, lo=0.0, hi=1.0):
    h = (hi - lo) / n
    return lo + (np.arange(n) + 0.5) * h, np.full(n, h)


class TestOrthonormalPolynomials:
    def test_discrete_orthonormality(self):
        nodes, weights = midpoint_grid(200)
        polys = orthonormal_polynomials(nodes, weights, 8)
        gram = (weights * polys) @ polys.T
        assert np.max(np.abs(gram - np.eye(9))) < 1e-12

    def test_matches_shifted_legendre_on_fine_grids(self):
        nodes, weights = midpoint_grid(4096)
        polys = orthonormal_polynomials(nodes, weights, 3)
        x = 2 * nodes - 1
        legendre = np.stack(
            [
                np.ones_like(x),
                np.sqrt(3) * x,
                np.sqrt(5) * 0.5 * (3 * x**2 - 1),
                np.sqrt(7) * 0.5 * (5 * x**3 - 3 * x),
            ]
        )
        assert np.max(np.abs(polys - legendre)) < 1e-5

    def test_mode_cap(self):
        nodes, weights = midpoint_grid(64)
        with pytest.raises(ValueError):
            orthonormal_polynomials(nodes, weights, 17)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3000),
        k_max=st.integers(0, 16),
        lo=st.floats(-2.0, 2.0),
        width=st.floats(0.05, 4.0),
    )
    def test_closed_form_matches_stieltjes_oracle(self, n, k_max, lo, width):
        k_max = min(k_max, n - 1)
        nodes, weights = midpoint_grid(n, lo, lo + width)
        polys = orthonormal_polynomials(nodes, weights, k_max)
        # the Gram matrix through long-double sums, so that it measures the
        # rows and not its own rounding
        rows = polys.astype(np.longdouble)
        gram = np.einsum("ke,je,e->kj", rows, rows, weights.astype(np.longdouble))
        gap = np.max(np.abs(gram.astype(float) - np.eye(k_max + 1)))
        if k_max**2 > 4 * n:
            # past the recurrence's stable range (documented): fewer digits
            assert gap <= 1e-12
            return
        assert gap <= 1e-13
        # the basis does not change under a shift of E, so the oracle runs on
        # the same grid centred at 0: a window far from 0 rounds its nodes by
        # eps |E|, which the oracle's recurrence would read as a change of
        # grid.  Rows scale as 1/sqrt(width).
        centred, _ = midpoint_grid(n, -0.5 * width, 0.5 * width)
        oracle = stieltjes_polynomials(centred, weights, k_max)
        assert np.max(np.abs(polys - oracle)) * np.sqrt(width) <= 1e-12

    @pytest.mark.parametrize(
        "grid",
        [
            lambda n, w: (np.linspace(0.0, 1.0, n) ** 2, w),  # nonuniform nodes
            lambda n, w: (np.linspace(0.0, 1.0, n), w),       # gaps 1/(n-1), weights 1/n
            lambda n, w: (midpoint_grid(n)[0], w * (1.0 + np.arange(n) / n)),
            lambda n, w: (midpoint_grid(n)[0], w[:-1]),       # length mismatch
            lambda n, w: (midpoint_grid(n)[0][::-1], w),      # decreasing nodes
        ],
        ids=["squared", "endpoint", "weights", "short-weights", "decreasing"],
    )
    def test_grid_that_is_not_uniform_midpoint_raises(self, grid):
        nodes, weights = grid(40, midpoint_grid(40)[1])
        with pytest.raises(ValueError, match="uniform midpoint grid"):
            orthonormal_polynomials(nodes, weights, 4)


class TestModes:
    def test_flat_field_loads_only_mode_zero(self):
        nodes, weights = midpoint_grid(300)
        times = np.linspace(0, 1, 5)
        field = EnergyField(times, nodes, weights, np.ones((5, 300)))
        modes = legendre_modes(field, 8)
        assert np.max(np.abs(modes[0].values - 1.0)) < 1e-10
        for m in modes[1:]:
            assert np.max(np.abs(m.values)) < 1e-10

    def test_polynomial_field_is_reproduced(self):
        nodes, weights = midpoint_grid(128)
        polys = orthonormal_polynomials(nodes, weights, 8)
        times = np.zeros(1)
        field = EnergyField(times, nodes, weights, polys[3][None, :])
        modes = legendre_modes(field, 8)
        assert abs(modes[3].values[0] - 1.0) < 1e-10
        for k in (0, 1, 2, 4, 5, 6, 7, 8):
            assert abs(modes[k].values[0]) < 1e-10

    def test_time_profile_passes_through_mode_zero(self):
        nodes, weights = midpoint_grid(100)
        times = np.linspace(0, 2, 21)
        vals = np.exp(-times)[:, None] * np.ones((1, 100))
        field = EnergyField(times, nodes, weights, vals)
        modes = legendre_modes(field, 2)
        assert np.max(np.abs(modes[0].values - np.exp(-times))) < 1e-12

    def test_bessel_inequality_monotone(self):
        nodes, weights = midpoint_grid(256)
        rng = np.random.default_rng(3)
        phi = np.cumsum(rng.standard_normal(256)) / 16.0
        field = EnergyField(np.zeros(1), nodes, weights, phi[None, :])
        norm_sq = float(weights @ phi**2)
        partial = []
        for k_max in (0, 2, 4, 8):
            modes = legendre_modes(field, k_max)
            partial.append(sum(m.values[0] ** 2 for m in modes))
        assert all(partial[i] <= partial[i + 1] + 1e-14 for i in range(len(partial) - 1))
        assert partial[-1] <= norm_sq + 1e-12


class TestModeError:
    def test_identical_series(self):
        t = np.linspace(0, 1, 11)
        a = ModeSeries(2, t, np.sin(t))
        assert mode_error(a, ModeSeries(2, t, np.sin(t))) == 0.0

    def test_constant_offset(self):
        t = np.linspace(0, 1, 11)
        a = ModeSeries(0, t, np.cos(t))
        b = ModeSeries(0, t, np.cos(t) + 0.3)
        assert abs(mode_error(a, b) - 0.3) < 1e-14

    def test_time_interpolation_of_reference(self):
        t_eps = np.linspace(0, 1, 101)
        t_hom = np.linspace(0, 1, 1001)
        a = ModeSeries(1, t_eps, t_eps**2)
        b = ModeSeries(1, t_hom, t_hom**2)
        assert mode_error(a, b) < 1e-6

    def test_mode_mismatch_rejected(self):
        t = np.linspace(0, 1, 5)
        with pytest.raises(ValueError):
            mode_error(ModeSeries(1, t, t), ModeSeries(2, t, t))


class TestNormDifference:
    def test_y_independent_field_gives_zero(self):
        nodes, weights = midpoint_grid(64)
        ynodes, yweights = midpoint_grid(32)
        times = np.linspace(0, 1, 9)
        vals = np.exp(-times)[:, None] * (1.0 + nodes)[None, :]
        eps_field = EnergyField(times, nodes, weights, vals)
        hom_field = CellEnergyField(
            times, nodes, weights, yweights, np.repeat(vals[:, :, None], 32, axis=2)
        )
        assert norm_difference(eps_field, hom_field) < 1e-12

    def test_nonnegative(self):
        nodes, weights = midpoint_grid(16)
        ynodes, yweights = midpoint_grid(8)
        times = np.linspace(0, 1, 4)
        rng = np.random.default_rng(0)
        eps_field = EnergyField(times, nodes, weights, rng.uniform(0, 1, (4, 16)))
        hom_field = CellEnergyField(
            times, nodes, weights, yweights, rng.uniform(0, 1, (4, 16, 8))
        )
        assert norm_difference(eps_field, hom_field) >= 0.0


class TestRateFit:
    def test_exact_quadratic(self):
        eps = np.array([0.1, 0.05, 0.025, 0.0125])
        fit = fit_rate(eps, 3.0 * eps**2)
        assert abs(fit.slope - 2.0) < 1e-10
        assert fit.residual < 1e-10

    def test_exact_linear(self):
        eps = np.array([0.1, 0.05, 0.025])
        fit = fit_rate(eps, 0.7 * eps)
        assert abs(fit.slope - 1.0) < 1e-10

    def test_nonpositive_errors_rejected(self):
        with pytest.raises(ValueError):
            fit_rate([0.1, 0.05, 0.025], [1.0, 0.0, 0.1])

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_rate([0.1, 0.05], [1.0, 0.5])

    @given(scale=st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, scale):
        eps = np.array([0.2, 0.1, 0.05, 0.025])
        errors = np.array([0.5, 0.31, 0.14, 0.08])
        base = fit_rate(eps, errors)
        scaled = fit_rate(eps, scale * errors)
        assert abs(base.slope - scaled.slope) < 1e-9
        assert abs(base.residual - scaled.residual) < 1e-9


class TestConvergenceReport:
    def test_from_sweep_builds_fits(self):
        eps = np.array([0.1, 0.05, 0.025])
        errors = np.stack([eps, eps**2], axis=1)
        report = ConvergenceReport.from_sweep(eps, errors, 0.1 * eps)
        assert abs(report.fits[0].slope - 1.0) < 1e-10
        assert abs(report.fits[1].slope - 2.0) < 1e-10

    def test_rejects_unsorted_sweep(self):
        with pytest.raises(ValueError):
            ConvergenceReport.from_sweep(
                [0.05, 0.1, 0.2], np.ones((3, 1)), np.ones(3)
            )
