"""Pole sums: Lanczos rules and exact poles against the secular-equation oracle."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import homokin.kernels
import oracles
from homokin.cell import (
    CellFunction,
    PeriodicGrid,
    cell_average,
    gauss_poles,
    pole_sum,
    sine_profile,
    two_valued_profile,
)
from homokin.kernels import (
    KernelTable,
    build_source_table,
    kernel_laplace_semigroup,
    tartar_kernel_laplace,
)
from homokin.oscillator import (
    YoungMeasure,
    cell_averaged_limit,
    kernel_time_table,
    solve_oscillator_limit,
)
from homokin.volterra import TimeGrid
from oracles import (
    exact_poles,
    gauss_radau_rules,
    memory_kernel_eval,
    operator_matrix,
    secular_poles,
    secular_response,
)

EPS = np.finfo(float).eps
# Gauss rule against the full secular pole sum, in units of eps Var sigma.
# Both merge the weights of equal values by one running sum, and the secular
# residues stop at a 16-eps secular residual: against exact rational
# arithmetic, on two-valued profiles with one rare value, the residues miss
# Var by up to 117 eps (secular) and 55 eps (Gauss), and the two kernels
# differ by up to 67 eps.
KERNEL_GAP_EPS = 128.0
# The polarized source against the secular oracle, in units of eps max sigma
# max|v|: both routes add terms of size sigma |v| that cancel when sigma is
# nearly constant, so their rounding does not shrink with sqrt(Var sigma).
# The gap reached 0.40 on the nearly constant profile tested below and 0.38
# over 579 random profiles that the Var-scaled terms miss.
SUM_GAP_EPS = 4.0
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


@st.composite
def tied_young_measures(draw):
    """2-12 atoms in [-5, 5] picked from a pool, so atoms repeat, with
    weights zero or in [0.1, 1] before normalization.

    Distinct pool values lie at least 1e-6 apart: closer ones cancel to
    rounding in any computed Var(l).  Far smaller weights are left out as
    well: they make the residues of the dense and the secular route differ
    from each other by thousands of eps Var.
    """
    m = draw(st.integers(2, 12))
    size = draw(st.integers(1, m))
    pool = np.unique(draw(hnp.arrays(np.float64, size, elements=st.floats(-5.0, 5.0))))
    assume(np.all(np.diff(pool) >= 1e-6))
    atoms = pool[draw(hnp.arrays(np.intp, m, elements=st.integers(0, len(pool) - 1)))]
    weight = st.one_of(st.just(0.0), st.floats(0.1, 1.0))
    raw = draw(hnp.arrays(np.float64, m, elements=weight))
    assume(raw.sum() > 0.0)
    return YoungMeasure(atoms, raw / raw.sum())


@st.composite
def few_atom_measures(draw):
    """2-5 atoms in [-5, 5] picked from a pool at least 1e-3 apart, so atoms
    repeat, with weights zero or in [0.1, 1] before normalization."""
    m = draw(st.integers(2, 5))
    pool = np.unique(draw(hnp.arrays(np.float64, draw(st.integers(1, m)), elements=st.floats(-5.0, 5.0))))
    assume(np.all(np.diff(pool) >= 1e-3))
    atoms = pool[draw(hnp.arrays(np.intp, m, elements=st.integers(0, len(pool) - 1)))]
    raw = draw(hnp.arrays(np.float64, m, elements=st.one_of(st.just(0.0), st.floats(0.1, 1.0))))
    assume(raw.sum() > 0.0)
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
        monkeypatch.setattr(oracles, "_SECULAR_MAX_ITER", 1)
        values = np.random.default_rng(3).uniform(1.0, 2.0, 64)
        with pytest.raises(RuntimeError, match="did not converge"):
            secular_poles(values, np.full(64, 1 / 64))


class TestGaussPoles:
    @settings(max_examples=60, deadline=None)
    @given(sigma_profiles(), HORIZONS)
    def test_positive_rule_of_mass_var_inside_the_values(self, sigma, horizon):
        v = sigma.values
        nodes, weights = gauss_poles(v, sigma.grid.weights, v, np.linspace(0.0, horizon, 2001))
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
        v = sigma.values
        nodes, weights = gauss_poles(v, sigma.grid.weights, v, [0.0, 1.0, 50.0])
        assert np.allclose(nodes, [2.0], rtol=0, atol=1e-15)
        assert np.allclose(weights, [1.0], rtol=0, atol=1e-15)
        constant = gauss_poles(np.full(8, 2.0), np.full(8, 0.125), np.arange(8.0), [0.0, 1.0])
        assert constant[0].shape == constant[1].shape == (0,)

    def test_data_of_magnitude_2_to_the_1023_is_refused(self):
        # its power-of-two scale would be 2^1024 = inf, which emptied the rule
        for values, v in (([1.6e308, 1.0], [1.6e308, 1.0]), ([1.0, 2.0], [-1.6e308, 1.0])):
            with pytest.raises(ValueError, match="2\\^1023"):
                gauss_poles(values, [0.5, 0.5], v)
        # just below it the scale is 2^1023, and the two-valued pole is found
        top = np.nextafter(2.0**1023, 0.0)
        nodes, _ = gauss_poles([top, 1.0], [0.5, 0.5], [1.0, 2.0])
        assert np.array_equal(nodes, [top / 2])

    def test_smooth_profile_needs_few_nodes(self):
        sigma = CellFunction.from_function(PeriodicGrid(4096), sine_profile(2.0, 0.5))
        v = sigma.values
        nodes, _ = gauss_poles(v, sigma.grid.weights, v, np.arange(4001) * 5e-3)
        assert len(nodes) <= 16  # of 2047 secular poles


def assert_certified_rule(v, w, taus, var):
    """K_Q within KERNEL_GAP_EPS of the full pole sum; Gauss <= K <= Radau at q = 1, 2, Q/2, Q."""
    full = pole_sum(*secular_poles(v, w), taus)
    tol = KERNEL_GAP_EPS * EPS * var
    nodes, weights = gauss_poles(v, w, v, taus)
    assert np.max(np.abs(pole_sum(nodes, weights, taus) - full)) <= tol
    for q in {1, 2, max(len(nodes) // 2, 1), max(len(nodes), 1)}:
        gauss, radau = gauss_radau_rules(v, w, q, v)
        assert np.max(pole_sum(*gauss, taus) - full) <= tol
        assert np.max(full - pole_sum(*radau, taus)) <= tol


def level_mean_norm(sigma: CellFunction, v: np.ndarray) -> float:
    """|vbar|: the weighted norm of the mean-free level-set means of v.

    Levels are the exactly equal values; merging values equal up to
    rounding, as the package does, only lowers the norm.
    """
    w = sigma.grid.weights
    _, level = np.unique(sigma.values, return_inverse=True)
    mass = np.bincount(level, weights=w)
    vbar = np.bincount(level, weights=w * v) / mass - w @ v
    return float(np.sqrt(mass @ vbar**2))


@st.composite
def cell_data(draw, sigma):
    """Data on sigma's grid: a mean in [-2, 2] plus a bounded fluctuation."""
    mean = draw(st.floats(-2.0, 2.0))
    spread = draw(hnp.arrays(np.float64, sigma.grid.n, elements=st.floats(-1.0, 1.0)))
    return mean + spread


@st.composite
def level_free_pairs(draw):
    """(sigma, v) whose level-set means vanish: each value of sigma on two
    nodes, v = c + b on the first and c - b on the second."""
    k = draw(st.integers(1, 128))
    values = draw(hnp.arrays(np.float64, k, elements=st.floats(0.2, 5.0)))
    b = draw(hnp.arrays(np.float64, k, elements=st.floats(-1.0, 1.0)))
    c = draw(st.floats(-2.0, 2.0))
    sigma = CellFunction(PeriodicGrid(2 * k), np.concatenate((values, values)))
    return sigma, np.concatenate((c + b, c - b))


class TestPolarizedSource:
    @settings(max_examples=60, deadline=None)
    @given(st.data(), HORIZONS)
    def test_matches_secular_oracle_inside_the_bracket(self, data, horizon):
        sigma = data.draw(sigma_profiles())
        assert_matches_secular_oracle(sigma, data.draw(cell_data(sigma)), horizon)

    def test_nearly_constant_profile(self):
        # one node of 48 at 3.0625, the rest at 3: Var sigma is 8e-5, and the
        # gap is 0.40 eps max sigma max|v| but 1.04 times the Var-scaled terms
        values = np.full(48, 3.0)
        values[0] = 3.0625
        v = np.where(values > 3.0, 0.5, -0.5)
        assert_matches_secular_oracle(CellFunction(PeriodicGrid(48), values), v, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(level_free_pairs())
    def test_vanishing_level_means_give_an_exact_zero(self, pair):
        sigma, v = pair
        table = build_source_table(sigma, CellFunction(sigma.grid, v), None, 0.1, 50)
        assert np.all(table == 0.0)

    def test_cosine_on_the_sine_profile_is_zero(self):
        # sin(2 pi y) takes each value at y and 1/2 - y, where cos(2 pi y) flips sign
        for n in (64, 4096):
            grid = PeriodicGrid(n)
            sigma = CellFunction.from_function(grid, sine_profile(2.0, 0.5))
            u_in = CellFunction.from_function(grid, lambda y: np.cos(2 * np.pi * y))
            rates, _ = gauss_poles(sigma.values, grid.weights, u_in.values, [0.0, 1.0])
            assert rates.shape == (0,)
            table = build_source_table(sigma, u_in, u_in, 0.1, 50)
            # only the forcing's own mean, rounding noise here, is left
            assert np.all(table == cell_average(u_in))

    def test_small_level_means_are_kept(self):
        # constant on each of two levels of 2048 nodes: the level sums are exact
        grid = PeriodicGrid(4096)
        sigma = CellFunction.from_function(grid, two_valued_profile(1.0, 3.0))
        v = 1.0 + 1e-11 * (sigma.values > 2.0)
        taus = np.linspace(0.0, 5.0, 11)
        table = pole_sum(*gauss_poles(sigma.values, grid.weights, v, taus), taus)
        oracle = secular_response(sigma, v, taus)
        assert np.max(np.abs(table - oracle)) <= 1e-6 * np.max(np.abs(oracle))

    def test_missed_lag_zero_value_raises(self, monkeypatch):
        def corrupted(values, weights, v, taus):
            rates, amplitudes = gauss_poles(values, weights, v, taus)
            return rates, 1.5 * amplitudes

        monkeypatch.setattr(homokin.kernels, "gauss_poles", corrupted)
        grid = PeriodicGrid(64)
        sigma = CellFunction.from_function(grid, sine_profile(2.0, 0.5))
        u_in = CellFunction.from_function(grid, lambda y: 1.0 + np.sin(2 * np.pi * y))
        with pytest.raises(RuntimeError, match="lag 0"):
            build_source_table(sigma, u_in, None, 0.1, 10)


class TestExactPoles:
    @settings(max_examples=60, deadline=None)
    @given(sigma_profiles())
    def test_matches_secular_oracle_on_profiles(self, sigma):
        assert_same_poles(sigma.values, sigma.grid.weights)

    @settings(max_examples=60, deadline=None)
    @given(young_measures())
    def test_matches_secular_oracle_on_young_measures(self, nu):
        assert_same_poles(nu.atoms, nu.weights)

    def test_equal_values_merge_and_zero_weights_drop(self):
        values = [1.0, 3.0, 1.0 + EPS, 3.0, 7.0]
        poles, residues = exact_poles(values, [0.25, 0.25, 0.25, 0.25, 0.0])
        assert np.allclose(poles, [2.0], rtol=0, atol=1e-15)
        assert np.allclose(residues, [1.0], rtol=0, atol=1e-15)
        constant = exact_poles(np.full(8, 2.0), np.full(8, 0.125))
        assert constant[0].shape == constant[1].shape == (0,)


def assert_matches_secular_oracle(sigma, v, horizon):
    w = sigma.grid.weights
    taus = np.linspace(0.0, horizon, 2001)
    rates, amplitudes = gauss_poles(sigma.values, w, v, taus)
    # 16 eps |h| |vbar| certified, plus the rounding of both routes
    certified = 16.0 * level_mean_norm(sigma, v)
    rounding = KERNEL_GAP_EPS * np.max(np.abs(v))
    tol = (certified + rounding) * EPS * np.sqrt(variance(sigma))
    tol += SUM_GAP_EPS * EPS * np.max(sigma.values) * np.max(np.abs(v))
    gap = pole_sum(rates, amplitudes, taus) - secular_response(sigma, v, taus)
    assert np.max(np.abs(gap)) <= tol


def assert_same_poles(values, weights):
    """exact_poles against the secular roots: poles to 64 eps of the largest value,
    residues to the oracle's own KERNEL_GAP_EPS eps Var."""
    poles, residues = exact_poles(values, weights)
    oracle_poles, oracle_residues = secular_poles(values, weights)
    var = float(weights @ (values - weights @ values) ** 2)
    assert poles.shape == oracle_poles.shape
    assert np.max(np.abs(poles - oracle_poles), initial=0.0) <= 64 * EPS * np.max(np.abs(values))
    assert np.max(np.abs(residues - oracle_residues), initial=0.0) <= KERNEL_GAP_EPS * EPS * var


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

    @settings(max_examples=100, deadline=None)
    @given(few_atom_measures())
    @example(YoungMeasure(np.array([1.0, 3.0]), np.array([0.5, 0.5])))
    @example(YoungMeasure(np.array([1.0, 6.0]), np.array([0.3, 0.7])))
    @example(YoungMeasure(np.array([0.5, 2.0, 7.0]), np.array([0.2, 0.5, 0.3])))
    @example(YoungMeasure(np.array([4.0, 0.5, 4.0, 2.0, 0.5]), np.array([0.2, 0.2, 0.3, 0.0, 0.3])))
    def test_kernel_modes_are_the_rule_with_one_node_per_atom(self, nu):
        # the oscillator's certified rule is, bit for bit, the Gauss rule with
        # one node per atom, which ends the Krylov space: every pole exactly
        rates, amplitudes = kernel_time_table(nu, TimeGrid.from_count(5.0, 500)).modes
        (freqs, residues), _ = gauss_radau_rules(nu.atoms, nu.weights, len(nu.atoms), nu.atoms)
        assert np.array_equal(rates.imag, freqs) and not rates.real.any()
        assert np.array_equal(amplitudes, residues)

    def test_negative_atoms_over_a_long_horizon(self):
        # e^{-t l} would overflow on these lags; the exact rule evaluates no
        # bracket, so it warns of nothing
        nu = YoungMeasure(np.array([-6.0, 1.0, 3.0, 2.0]), np.full(4, 0.25))
        rates, _ = kernel_time_table(nu, TimeGrid.from_count(200.0, 20000)).modes
        (freqs, _), _ = gauss_radau_rules(nu.atoms, nu.weights, 4, nu.atoms)
        assert len(freqs) == 3 and np.array_equal(rates.imag, freqs)

    @settings(max_examples=200, deadline=None)
    @given(tied_young_measures())
    # zero-weight atoms 2^1032 times the one kept: scaled with it, they overflowed
    @example(YoungMeasure(np.array([-1.0, 2.22507386e-311, -1.0]), np.array([0.0, 1.0, 0.0])))
    def test_kernel_modes_match_dense_oracle(self, nu):
        # one Gauss node per atom ends the Krylov space: the rule is every pole
        rates, amplitudes = kernel_time_table(nu, TimeGrid.from_count(1.0, 4)).modes
        freqs, residues = rates.imag, amplitudes
        oracle_freqs, oracle_residues = exact_poles(nu.atoms, nu.weights)
        # Var as a sum of nonnegative pair terms: no cancellation, 0 on one atom
        w, gaps = nu.weights, nu.atoms[:, None] - nu.atoms[None, :]
        var = float(0.5 * w @ gaps**2 @ w)
        assert freqs.shape == oracle_freqs.shape
        assert np.max(np.abs(freqs - oracle_freqs), initial=0.0) <= 64 * EPS * nu.max_abs_atom
        assert np.max(np.abs(residues - oracle_residues), initial=0.0) <= 64 * EPS * var
        assert abs(residues.sum() - var) <= 64 * EPS * var
