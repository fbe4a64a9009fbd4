"""Secular-equation poles: unit checks and properties over random profiles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import homokin.cell
from homokin.cell import (
    CellFunction,
    PeriodicGrid,
    gauss_poles,
    gauss_radau_rules,
    pole_sum,
    secular_poles,
    sine_profile,
    two_valued_profile,
)
from homokin.kernels import KernelTable, kernel_laplace_semigroup, tartar_kernel_laplace
from homokin.oscillator import YoungMeasure, cell_averaged_limit, solve_oscillator_limit
from homokin.volterra import TimeGrid
from oracles import memory_kernel_eval, operator_matrix

EPS = np.finfo(float).eps
# Gauss rule against the full secular pole sum, in units of eps Var sigma.
# Both merge the weights of equal values by one running sum, and the secular
# residues stop at a 16-eps secular residual: against exact rational
# arithmetic, on two-valued profiles with one rare value, the residues miss
# Var by up to 117 eps (secular) and 55 eps (Gauss), and the two kernels
# differ by up to 67 eps.
KERNEL_GAP_EPS = 128.0
HORIZONS = st.sampled_from([1.0, 20.0, 300.0])


def variance(sigma: CellFunction) -> float:
    w = sigma.grid.weights
    return float(w @ (sigma.values - w @ sigma.values) ** 2)


@st.composite
def sigma_profiles(draw):
    """Positive cell profiles on n <= 256 nodes, drawn from k <= n values.

    A small k repeats values many times, so merging is always exercised.
    """
    n = draw(st.integers(2, 256))
    k = draw(st.integers(1, n))
    pool = draw(hnp.arrays(np.float64, k, elements=st.floats(0.2, 5.0)))
    picks = draw(hnp.arrays(np.intp, n, elements=st.integers(0, k - 1)))
    return CellFunction(PeriodicGrid(n), pool[picks])


@st.composite
def young_measures(draw):
    m = draw(st.integers(2, 3))
    atoms = draw(hnp.arrays(np.float64, m, elements=st.floats(-3.0, 6.0)))
    raw = draw(hnp.arrays(np.float64, m, elements=st.floats(0.1, 1.0)))
    return YoungMeasure(atoms, raw / raw.sum())


class TestSecularPoles:
    def test_eigenvalues_of_the_cell_operator(self):
        rng = np.random.default_rng(7)
        grid = PeriodicGrid(32)
        sigma = CellFunction(grid, rng.uniform(0.5, 3.0, grid.n))
        poles, _ = secular_poles(sigma.values, grid.weights)
        eig = np.sort(np.linalg.eigvals(operator_matrix(sigma)).real)
        # the one remaining eigenvalue is 0, for the constants
        assert abs(eig[0]) < 1e-12
        assert np.max(np.abs(poles - eig[1:])) < 1e-12

    def test_roots_interlace_and_residues_sum_to_variance(self):
        sigma = CellFunction.from_function(PeriodicGrid(4096), sine_profile(2.0, 0.5))
        poles, residues = secular_poles(sigma.values, sigma.grid.weights)
        # sin(pi - x) = sin(x): each value appears twice, up to rounding
        distinct = np.unique(np.round(sigma.values, 12))
        assert len(distinct) == 2048
        assert len(poles) == len(distinct) - 1
        assert np.all((poles >= distinct[:-1]) & (poles <= distinct[1:]))
        assert np.all(residues > 0)
        assert abs(residues.sum() - 0.125) < 1e-12

    def test_equal_values_merge_and_zero_weights_drop(self):
        values = [1.0, 3.0, 1.0 + EPS, 3.0, 7.0]  # 1 and 1 + eps are equal up to rounding
        poles, residues = secular_poles(values, [0.25, 0.25, 0.25, 0.25, 0.0])
        assert np.allclose(poles, [2.0], rtol=0, atol=1e-15)
        assert np.allclose(residues, [1.0], rtol=0, atol=1e-15)

    def test_single_value_has_no_poles(self):
        poles, residues = secular_poles(np.full(8, 2.0), np.full(8, 0.125))
        assert poles.shape == residues.shape == (0,)

    def test_unconverged_root_raises(self, monkeypatch):
        monkeypatch.setattr(homokin.cell, "_SECULAR_MAX_ITER", 1)
        values = np.random.default_rng(3).uniform(1.0, 2.0, 64)
        with pytest.raises(RuntimeError, match="did not converge"):
            secular_poles(values, np.full(64, 1 / 64))


class TestGaussPoles:
    @settings(max_examples=60, deadline=None)
    @given(sigma_profiles(), HORIZONS)
    def test_positive_rule_of_mass_var_inside_the_values(self, sigma, horizon):
        v = sigma.values
        nodes, weights = gauss_poles(v, sigma.grid.weights, np.linspace(0.0, horizon, 2001))
        assert np.all(weights > 0)
        assert np.all((nodes >= v.min()) & (nodes <= v.max()))
        assert abs(weights.sum() - variance(sigma)) < 1e-12
        assert len(nodes) <= len(np.unique(v)) - 1

    @settings(max_examples=60, deadline=None)
    @given(sigma_profiles(), HORIZONS)
    def test_matches_full_pole_sum_inside_the_radau_bracket(self, sigma, horizon):
        v, w = sigma.values, sigma.grid.weights
        taus = np.linspace(0.0, horizon, 2001)
        assert_certified_rule(v, w, taus, variance(sigma))

    def test_wide_ratio(self):
        # sigma in [0.01, 5]: the slowest pole decays over the whole horizon
        v = np.random.default_rng(17).uniform(0.01, 5.0, 1024)
        w = np.full(1024, 1 / 1024)
        assert_certified_rule(v, w, np.linspace(0.0, 300.0, 3001), float(w @ (v - w @ v) ** 2))

    def test_exhausted_krylov_space_is_exact(self):
        # two values: one pole at the swapped mean 1 * 1/2 + 3 * 1/2, weight Var = 1
        sigma = CellFunction.from_function(PeriodicGrid(64), two_valued_profile(1.0, 3.0))
        nodes, weights = gauss_poles(sigma.values, sigma.grid.weights, [0.0, 1.0, 50.0])
        assert np.allclose(nodes, [2.0], rtol=0, atol=1e-15)
        assert np.allclose(weights, [1.0], rtol=0, atol=1e-15)
        constant = gauss_poles(np.full(8, 2.0), np.full(8, 0.125), [0.0, 1.0])
        assert constant[0].shape == constant[1].shape == (0,)

    def test_smooth_profile_needs_few_nodes(self):
        sigma = CellFunction.from_function(PeriodicGrid(4096), sine_profile(2.0, 0.5))
        nodes, _ = gauss_poles(sigma.values, sigma.grid.weights, np.arange(4001) * 5e-3)
        assert len(nodes) <= 16  # of 2047 secular poles


def assert_certified_rule(v, w, taus, var):
    """K_Q within KERNEL_GAP_EPS of the full pole sum; Gauss <= K <= Radau at q = 1, 2, Q/2, Q."""
    full = pole_sum(*secular_poles(v, w), taus)
    tol = KERNEL_GAP_EPS * EPS * var
    nodes, weights = gauss_poles(v, w, taus)
    assert np.max(np.abs(pole_sum(nodes, weights, taus) - full)) <= tol
    for q in {1, 2, max(len(nodes) // 2, 1), max(len(nodes), 1)}:
        gauss, radau = gauss_radau_rules(v, w, q)
        assert np.max(pole_sum(*gauss, taus) - full) <= tol
        assert np.max(full - pole_sum(*radau, taus)) <= tol


class TestKernelProperties:
    @settings(max_examples=40, deadline=None)
    @given(sigma_profiles())
    def test_pole_table_matches_dense_oracle(self, sigma):
        table = KernelTable.from_cell_coefficient(sigma, 0.25, 8)
        for j in (0, 3, 8):
            assert abs(table.values[j] - memory_kernel_eval(sigma, table.taus[j])) < 1e-11

    @settings(max_examples=60, deadline=None)
    @given(sigma_profiles())
    def test_variance_at_lag_zero(self, sigma):
        var = variance(sigma)
        _, residues = secular_poles(sigma.values, sigma.grid.weights)
        assert abs(residues.sum() - var) < 1e-10
        assert abs(KernelTable.from_cell_coefficient(sigma, 0.1, 0).values[0] - var) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(sigma_profiles())
    def test_kernel_positive_and_nonincreasing(self, sigma):
        values = KernelTable.from_cell_coefficient(sigma, 0.05, 400).values
        roundoff = 64.0 * EPS * float(sigma.grid.weights @ sigma.values**2)
        assert values.min() >= -roundoff
        assert np.max(np.diff(values)) <= roundoff

    @settings(max_examples=60, deadline=None)
    @given(sigma_profiles(), st.floats(0.05, 20.0))
    def test_resolvent_tartar_and_pole_forms_agree(self, sigma, p):
        mhat = tartar_kernel_laplace(sigma, p)
        assert abs(kernel_laplace_semigroup(sigma, p) - mhat) < 1e-10
        poles, residues = secular_poles(sigma.values, sigma.grid.weights)
        assert abs(float(np.sum(residues / (p + poles))) - mhat) < 1e-10


class TestOscillatorProperties:
    @settings(max_examples=10, deadline=None)
    @given(young_measures(), st.floats(0.0, 2.0 * np.pi))
    def test_limit_reproduces_averaged_rotations(self, nu, angle):
        u_in = np.array([np.cos(angle), np.sin(angle)])
        grid = TimeGrid.from_count(5.0, 2500)
        u = solve_oscillator_limit(nu, u_in, grid)
        assert np.max(np.abs(u - cell_averaged_limit(nu, grid.times, u_in))) < 1e-3
