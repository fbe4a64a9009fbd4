"""Volterra solver tests: closed forms, residuals, order, linearity,
and agreement of the pole recursion with the direct history sum."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from homokin.cell import CellFunction, PeriodicGrid, cell_average, pole_sum, sine_profile
from homokin.kernels import KernelTable, build_source_table
from homokin.multiscale import OdeProblem, solve_homogenized_volterra
from homokin.oscillator import YoungMeasure, kernel_time_table, solve_oscillator_limit
from homokin.volterra import (
    BLOCK,
    SolverError,
    TimeGrid,
    VolterraProblem,
    march_affine,
    solve_volterra,
)
from oracles import solve_volterra_direct, volterra_residual

EPS = np.finfo(float).eps


def exp_kernel_table(rate: float, grid: TimeGrid) -> KernelTable:
    """K(tau) = e^{-rate tau}, one pole of unit amplitude."""
    return KernelTable(grid.times, ([rate], [1.0]), 1.0)


def pole_table(rates, amps, grid: TimeGrid) -> KernelTable:
    """K(tau) = sum_k amps_k e^{-rates_k tau}, lag 0 included."""
    return KernelTable(grid.times, (rates, amps), np.sum(amps))


def random_profile(rng: np.random.Generator, n: int) -> CellFunction:
    """Smooth positive periodic profile: three harmonics of 40% of the mean."""
    y = PeriodicGrid(n).nodes
    k = np.arange(1, 4)
    a, b = rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, 3)
    mean = rng.uniform(1.5, 2.5)
    ang = 2.0 * np.pi * np.multiply.outer(y, k)
    vals = mean + 0.4 * mean * (np.sin(ang) @ a + np.cos(ang) @ b) / np.sum(
        np.abs(a) + np.abs(b)
    )
    return CellFunction(PeriodicGrid(n), vals)


def homogenized_problem(sigma: CellFunction, u_in: CellFunction, grid: TimeGrid):
    """The scalar Volterra problem that solve_homogenized_volterra marches."""
    return VolterraProblem(
        cell_average(sigma),
        KernelTable.from_cell_coefficient(sigma, grid.dt, grid.count),
        build_source_table(sigma, u_in, None, grid.dt, grid.count),
        cell_average(u_in),
    )


def oscillator_problem(nu: YoungMeasure, u_in, grid: TimeGrid) -> VolterraProblem:
    """The complex problem of z = u1 + i u2 that solve_oscillator_limit marches."""
    table = kernel_time_table(nu, grid)
    rates, residues = table.modes
    neg = KernelTable(table.taus, (rates, -residues), -table.lag0)
    return VolterraProblem(1j * nu.mean, neg, None, complex(u_in[0], u_in[1]))


def complex_problem(grid: TimeGrid) -> VolterraProblem:
    """Forced problem with a complex decay, poles, source and initial value."""
    rates = np.array([0.5, 1.0 + 2.0j, 3.0 - 1.0j])
    amps = np.array([0.5 + 0.2j, 0.1 - 0.4j, -0.3j])
    src = np.sin(grid.times) + 1j * np.ones(grid.count + 1)
    return VolterraProblem(1.0 + 0.7j, pole_table(rates, amps, grid), src, 1.0 - 0.5j)


def assert_paths_agree(problem: VolterraProblem, grid: TimeGrid) -> np.ndarray:
    """The pole recursion and the direct sum over the same values agree."""
    u_modes = solve_volterra(problem, grid)
    u_plain = solve_volterra_direct(problem, grid)
    gap = float(np.max(np.abs(u_modes - u_plain)))
    assert gap <= 1e-12 * max(1.0, float(np.max(np.abs(u_plain)))), gap
    return u_modes


def closed_form_mean(sigma: CellFunction, u_in: CellFunction, times, chunk=2048):
    """<u_in e^{-sigma t}>, the exact homogenized solution without forcing."""
    wu = sigma.grid.weights * u_in.values
    out = np.empty(len(times))
    for i in range(0, len(times), chunk):
        out[i : i + chunk] = np.exp(-np.outer(times[i : i + chunk], sigma.values)) @ wu
    return out


def residual_by_loop(problem: VolterraProblem, u: np.ndarray, grid: TimeGrid) -> float:
    """Reference residual: one trapezoid sum per node, as a Python loop.

    The kernel is the problem's table, which must reach the grid's last lag.
    """
    count, dt = grid.count, grid.dt
    K = problem.kernel.values[: count + 1]
    S = np.zeros_like(u) if problem.source is None else problem.source
    conv = np.zeros_like(u)
    for n in range(1, count + 1):
        conv[n] = dt * np.trapezoid(K[: n + 1][::-1] * u[: n + 1])
    dudt = (u[2:] - u[:-2]) / (2.0 * dt)
    return float(np.max(np.abs(dudt + problem.a * u[1:-1] - conv[1:-1] - S[1:-1])))


class TestTimeGrid:
    def test_count_times(self):
        g = TimeGrid(2.0, 0.1)
        assert g.count == 20
        assert np.allclose(g.times[[0, -1]], [0.0, 2.0], atol=1e-14)

    def test_non_divisible_rejected(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0.3)

    def test_from_count(self):
        g = TimeGrid.from_count(10.0, 10000)
        assert g.count == 10000


class TestScalarSolve:
    def test_pure_decay(self):
        grid = TimeGrid(5.0, 1e-3)
        problem = VolterraProblem(2.0, None, None, 1.0)
        u = solve_volterra(problem, grid)
        assert np.max(np.abs(u - np.exp(-2.0 * grid.times))) < 1e-5

    def test_two_valued_closed_form(self):
        # du/dt + 2u - int e^{-2(t-s)} u(s) ds = 0 has u = (e^{-t}+e^{-3t})/2,
        # the cell average of exp(-sigma t) for the two-valued sigma in {1,3}
        grid = TimeGrid(5.0, 1e-3)
        problem = VolterraProblem(2.0, exp_kernel_table(2.0, grid), None, 1.0)
        u = solve_volterra(problem, grid)
        exact = 0.5 * (np.exp(-grid.times) + np.exp(-3.0 * grid.times))
        assert np.max(np.abs(u - exact)) < 1e-5

    def test_forced_problem_reaches_steady_state(self):
        # du/dt + a u = s has steady state s / a
        grid = TimeGrid(20.0, 2e-3)
        src = np.full(grid.count + 1, 3.0)
        problem = VolterraProblem(1.5, None, src, 0.0)
        u = solve_volterra(problem, grid)
        assert abs(u[-1] - 2.0) < 1e-7

    def test_order_two_under_dt_halving(self):
        def max_err(dt):
            grid = TimeGrid(5.0, dt)
            problem = VolterraProblem(2.0, exp_kernel_table(2.0, grid), None, 1.0)
            u = solve_volterra(problem, grid)
            exact = 0.5 * (np.exp(-grid.times) + np.exp(-3.0 * grid.times))
            return np.max(np.abs(u - exact))

        ratio = max_err(4e-3) / max_err(2e-3)
        assert 3.5 <= ratio <= 4.5

    def test_linearity(self):
        grid = TimeGrid(3.0, 1e-2)
        kernel = exp_kernel_table(1.0, grid)
        src = np.sin(grid.times)
        base = solve_volterra(VolterraProblem(2.0, kernel, src, 1.0), grid)
        alpha = -2.5
        scaled = solve_volterra(
            VolterraProblem(2.0, kernel, alpha * src, alpha * 1.0), grid
        )
        assert np.max(np.abs(scaled - alpha * base)) < 1e-12

    def test_kernel_zero_padding_is_inert(self):
        grid = TimeGrid(3.0, 1e-2)
        table = exp_kernel_table(2.0, grid)
        u1 = solve_volterra(VolterraProblem(2.0, table, None, 1.0), grid)
        # lags past the final time, here the exponential continued, are never read
        taus = np.arange(len(table.taus) + 50) * grid.dt
        padded = KernelTable(taus, table.modes, table.lag0)
        u2 = solve_volterra(VolterraProblem(2.0, padded, None, 1.0), grid)
        assert np.array_equal(u1, u2)

    def test_singular_implicit_factor(self):
        grid = TimeGrid(1.0, 0.5)
        # 1 + dt a/2 - dt^2 K0/4 = 0 for a = -2, K0 = 0, dt arbitrary ... use
        # a = -4, dt = 0.5: 1 - 1 = 0
        problem = VolterraProblem(-4.0, None, None, 1.0)
        with pytest.raises(SolverError):
            solve_volterra(problem, grid)


class TestComplexSolve:
    def test_rotation_solution(self):
        # kernel-free with decay coefficient i, the -A of the regularized limit
        # equation on z = u1 + i u2: u(t) = e^{-it} = cos t - i sin t from 1
        grid = TimeGrid(5.0, 1e-3)
        u = solve_volterra(VolterraProblem(1j, None, None, 1.0), grid)
        assert u.dtype == np.complex128
        assert np.max(np.abs(u - np.exp(-1j * grid.times))) < 1e-5

    def test_complex_multiple_of_a_real_problem(self):
        # the march is linear over the complex numbers: c u0 and c S give c u
        grid = TimeGrid(4.0, 2e-3)
        ker = exp_kernel_table(2.0, grid)
        src = np.sin(grid.times)
        real = solve_volterra(VolterraProblem(2.0, ker, src, 1.0), grid)
        c = 0.6 - 0.8j
        scaled = solve_volterra(VolterraProblem(2.0, ker, c * src, c), grid)
        assert np.isrealobj(real)
        assert np.max(np.abs(scaled - c * real)) < 1e-12

    def test_conjugate_pair_is_the_real_cos_kernel(self):
        # K(tau) = 0.8 e^{-tau/2} cos(3 tau), the real part of one complex pole,
        # is the conjugate pair 0.4 e^{-(1/2 -+ 3i) tau}: on real data the march
        # is the real march over the cosine samples, and u stays real
        grid = TimeGrid.from_count(10.0, 2000)
        t = grid.times
        pair = KernelTable(t, ([0.5 + 3.0j, 0.5 - 3.0j], [0.4, 0.4]), 0.8)
        problem = VolterraProblem(2.0, pair, np.cos(t), 1.0)
        u = solve_volterra(problem, grid)
        ref = solve_volterra_direct(problem, grid, 0.8 * np.exp(-0.5 * t) * np.cos(3.0 * t))
        assert np.isrealobj(ref)
        assert np.max(np.abs(u.real - ref)) <= 1e-12
        assert np.max(np.abs(u.imag)) <= 1e-13


class TestAffineStep:
    """The march as one affine step z <- T z + G_n of the state."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("poles", [0, 3])
    def test_result_owns_its_memory(self, field, poles):
        # real poles and data march a real state, complex ones a complex state
        grid = TimeGrid.from_count(2.0, 200)
        rates = np.array([0.5, 1.0, 2.0])[:poles]
        amps = np.array([0.3, 0.2, -0.1])[:poles]
        a, u0 = 2.0, 1.0
        if field == "complex":
            rates, amps, a, u0 = rates + 2.0j, amps - 0.1j, 2.0 + 1.0j, 1.0 - 0.5j
        problem = VolterraProblem(a, pole_table(rates, amps, grid), None, u0)
        u = solve_volterra(problem, grid)
        assert u.flags.owndata
        assert u.dtype == (np.float64 if field == "real" else np.complex128)
        assert u.shape == (grid.count + 1,)
        assert u[0] == u0

    @settings(max_examples=30, deadline=None)
    @given(
        field=st.sampled_from(["real", "complex"]),
        a=hnp.arrays(np.float64, 2, elements=st.floats(-1.0, 1.0)),
        shift=st.floats(0.05, 2.0),
        poles=st.integers(0, 3).flatmap(
            lambda m: st.tuples(
                hnp.arrays(np.float64, (m, 2), elements=st.floats(-3.0, 3.0)),
                hnp.arrays(np.float64, (m, 2), elements=st.floats(-1.0, 1.0)),
            )
        ),
        src=hnp.arrays(np.float64, (3, 2), elements=st.floats(-2.0, 2.0)),
    )
    def test_matches_direct_history_sum(self, field, a, shift, poles, src):
        # a decay coefficient of positive real part; rates of positive real
        # part.  A complex problem has complex rates, amplitudes, decay, source
        # and initial value, so every pole state carries both parts
        grid = TimeGrid.from_count(3.0, 150)
        decay, u0 = a[0] ** 2 + shift + 1j * a[1], 1.0 - 1.0j
        rate_parts, amp_parts = poles
        rates = np.abs(rate_parts[:, 0]) + 0.1 + 1j * rate_parts[:, 1]
        amps = amp_parts[:, 0] + 1j * amp_parts[:, 1]
        t = grid.times
        coefficients = src[:, 0] + 1j * src[:, 1]
        if field == "real":
            decay, u0, rates, amps, coefficients = (
                np.real(x) for x in (decay, u0, rates, amps, coefficients)
            )
        source = coefficients[0] + np.sin(t) * coefficients[1] + t * coefficients[2]
        problem = VolterraProblem(decay, pole_table(rates, amps, grid), source, u0)
        u = assert_paths_agree(problem, grid)
        assert np.isrealobj(u) == (field == "real")


@st.composite
def affine_marches(draw):
    """(T, B_in, X, z0, C) with ||T||_2, so the spectral radius, at most 1.05;
    T, B_in and z0 are real or complex."""
    D, k, p = draw(st.integers(1, 12)), draw(st.integers(0, 3)), draw(st.integers(1, 3))
    edges = st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    N = draw(edges | st.integers(0, 300))
    entries = st.floats(-1.0, 1.0)
    T = draw(hnp.arrays(np.float64, (D, D), elements=entries))
    norm = np.linalg.norm(T, 2)
    if norm > 0:
        T = draw(st.floats(0.0, 1.05)) * (T / norm)
    B_in = draw(hnp.arrays(np.float64, (D, k), elements=entries))
    X = draw(hnp.arrays(np.float64, (N, k), elements=entries))
    z0 = draw(hnp.arrays(np.float64, D, elements=entries))
    C = draw(hnp.arrays(np.float64, (p, D), elements=entries))
    if draw(st.booleans()):  # a complex march: unit phases keep ||T||_2
        phases = st.floats(0.0, 2.0 * np.pi).map(lambda x: np.exp(1j * x))
        T, B_in, z0 = (x * draw(phases) for x in (T, B_in, z0))
    return T, B_in, X, z0, C


class TestMarchAffine:
    """The block march against the plain loop z <- T z + B_in x_n."""

    @settings(max_examples=100, deadline=None)
    @given(affine_marches())
    def test_matches_plain_loop(self, march):
        T, B_in, X, z0, C = march
        z, plain = z0, [C @ z0]
        for x in X:
            z = T @ z + B_in @ x
            plain.append(C @ z)
        plain = np.array(plain)
        y = march_affine(T, B_in, X, z0, C)
        assert y.flags.owndata
        assert y.shape == plain.shape
        tol = 1e-12 * max(1.0, float(np.max(np.abs(plain))))
        assert np.max(np.abs(y - plain)) <= tol


@st.composite
def pole_forms(draw):
    """(rates, amplitudes, lag0) of up to three poles, real or complex, with
    rates of positive real part."""
    m = draw(st.integers(0, 3))
    parts = st.floats(-2.0, 2.0)
    rates = draw(hnp.arrays(np.float64, m, elements=st.floats(0.1, 3.0)))
    amps = draw(hnp.arrays(np.float64, m, elements=parts))
    lag0 = draw(parts)
    if draw(st.booleans()):  # complex rates, amplitudes and lag0
        rates = rates + 1j * draw(hnp.arrays(np.float64, m, elements=parts))
        amps = amps + 1j * draw(hnp.arrays(np.float64, m, elements=parts))
        lag0 = complex(lag0, draw(parts))
    return rates, amps, lag0


class TestPoleForm:
    """A kernel table is its pole form: its values, and the solver's samples on any grid."""

    @settings(max_examples=60, deadline=None)
    @given(pole_forms(), st.integers(2, 4), st.integers(1, 150))
    def test_values_and_solution_come_from_the_pole_form(self, form, coarse, lags):
        rates, amps, lag0 = form
        grid = TimeGrid.from_count(3.0, 150)
        table = KernelTable(grid.times, (rates, amps), lag0)
        assert table.values[0] == lag0
        assert np.array_equal(table.values[1:], pole_sum(rates, amps, grid.times)[1:])
        direct = np.exp(-np.outer(grid.times, rates)) @ amps
        tol = 1e-14 * (1.0 + np.abs(amps).sum())
        assert np.max(np.abs(table.values[1:] - direct[1:]), initial=0.0) <= tol
        # the solver evaluates the pole form on its own grid: a table on a
        # coarser grid, or with fewer lags, gives bitwise the same march
        a, u0 = 2.0, 1.0
        u = solve_volterra(VolterraProblem(a, table, None, u0), grid)
        assert u.shape == (grid.count + 1,)
        for taus in (coarse * grid.times, grid.times[:lags]):
            other = KernelTable(taus, (rates, amps), lag0)
            assert np.array_equal(solve_volterra(VolterraProblem(a, other, None, u0), grid), u)

    def test_solver_tabulates_no_kernel(self, monkeypatch):
        # real and complex poles: the march reads the modes and lag0 only, so
        # it runs bitwise the same with the values gone
        grid = TimeGrid.from_count(3.0, 150)
        problems = [
            VolterraProblem(2.0, pole_table([0.5, 2.0], [0.3, -0.1], grid), None, 1.0),
            VolterraProblem(2.0, pole_table([0.5, 1 + 2j], [0.3, 0.1 - 0.2j], grid), None, 1.0),
            complex_problem(grid),
        ]
        expected = [solve_volterra(problem, grid) for problem in problems]

        def no_values(self):
            raise AssertionError("the kernel was tabulated")

        monkeypatch.setattr(KernelTable, "values", property(no_values))
        for problem, u in zip(problems, expected):
            assert np.array_equal(solve_volterra(problem, grid), u)

    def test_shapes_must_fit(self):
        grid = TimeGrid.from_count(1.0, 10)
        with pytest.raises(ValueError, match="do not fit"):
            KernelTable(grid.times, ([1.0], [np.eye(2)]), 1.0)
        with pytest.raises(ValueError, match="do not fit"):
            KernelTable(grid.times, ([1.0], [1.0]), np.eye(2))
        with pytest.raises(ValueError, match="must be scalars"):
            VolterraProblem(2.0 * np.eye(2), exp_kernel_table(1.0, grid), None, 1.0)
        with pytest.raises(ValueError, match="must be scalars"):
            VolterraProblem(2.0, None, None, np.ones(2))
        with pytest.raises(ValueError, match="source shape"):
            solve_volterra(VolterraProblem(2.0, None, np.ones((11, 2)), 1.0), grid)


class TestResidual:
    def test_exact_solution_gives_small_residual(self):
        grid = TimeGrid(5.0, 1e-3)
        problem = VolterraProblem(2.0, exp_kernel_table(2.0, grid), None, 1.0)
        exact = 0.5 * (np.exp(-grid.times) + np.exp(-3.0 * grid.times))
        assert volterra_residual(problem, exact, grid) < 1e-4

    def test_solver_output_residual(self):
        grid = TimeGrid(5.0, 1e-3)
        problem = VolterraProblem(2.0, exp_kernel_table(2.0, grid), None, 1.0)
        u = solve_volterra(problem, grid)
        assert volterra_residual(problem, u, grid) < 1e-4

    def test_zero_solution_zero_residual(self):
        grid = TimeGrid(2.0, 1e-2)
        problem = VolterraProblem(2.0, exp_kernel_table(2.0, grid), None, 0.0)
        assert volterra_residual(problem, np.zeros(grid.count + 1), grid) == 0.0

    def test_scalar_residual_matches_loop(self):
        grid = TimeGrid(5.0, 1e-3)
        problem = VolterraProblem(2.0, exp_kernel_table(2.0, grid), None, 1.0)
        u = solve_volterra(problem, grid)
        # each convolution sums count products of magnitude <= 1 over [0, 5]
        bound = grid.count * EPS * grid.t_end
        gap = abs(volterra_residual(problem, u, grid) - residual_by_loop(problem, u, grid))
        assert gap <= bound

    def test_complex_residual(self):
        grid = TimeGrid.from_count(8.0, 4000)
        problem = complex_problem(grid)
        u = solve_volterra(problem, grid)
        fast = volterra_residual(problem, u, grid)
        assert fast < 1e-4
        scale = float(np.max(np.abs(problem.kernel.values)) * np.max(np.abs(u))) * grid.t_end
        assert abs(fast - residual_by_loop(problem, u, grid)) <= grid.count * EPS * scale
        zero = VolterraProblem(problem.a, problem.kernel, None, 0j)
        assert volterra_residual(zero, np.zeros_like(u), grid) == 0.0


class TestPoleRecursion:
    """solve_volterra's pole recursion against the direct history sum over the same values."""

    def test_random_profile(self):
        rng = np.random.default_rng(2024)
        sigma = random_profile(rng, 256)
        u_in = CellFunction(sigma.grid, 1.0 + 0.5 * np.sin(2 * np.pi * sigma.grid.nodes))
        grid = TimeGrid.from_count(20.0, 4000)
        assert_paths_agree(homogenized_problem(sigma, u_in, grid), grid)

    def test_sine_ode_problem(self):
        # the ode kind's cell data
        cell = PeriodicGrid(256)
        sigma = CellFunction.from_function(cell, sine_profile(2.0, 0.5))
        u_in = CellFunction.from_function(cell, lambda y: 1.0 + np.sin(2 * np.pi * y))
        grid = TimeGrid.from_count(10.0, 4000)
        assert_paths_agree(homogenized_problem(sigma, u_in, grid), grid)

    @pytest.mark.parametrize("atoms", [(1.0, 3.0), (1.0, 6.0)])
    def test_oscillator_atoms(self, atoms):
        nu = YoungMeasure(np.array(atoms), np.array([0.4, 0.6]))
        grid = TimeGrid.from_count(10.0, 4000)
        u_in = np.array([np.cos(1.0), np.sin(1.0)])
        z = assert_paths_agree(oscillator_problem(nu, u_in, grid), grid)
        u = solve_oscillator_limit(nu, u_in, grid)
        assert np.array_equal(np.stack([z.real, z.imag], axis=1), u)

    def test_complex_rate_scalar_kernel(self):
        grid = TimeGrid.from_count(10.0, 2000)
        rates = np.array([0.5 + 3.0j, 0.5 - 3.0j, 1.5 + 0.0j])
        amps = np.array([0.4 - 0.2j, 0.4 + 0.2j, 0.7 + 0.0j])
        table = pole_table(rates, amps, grid)
        src = np.cos(grid.times)
        assert_paths_agree(VolterraProblem(2.0, table, src, 1.0), grid)

    def test_complex_problem(self):
        grid = TimeGrid.from_count(8.0, 2000)
        assert_paths_agree(complex_problem(grid), grid)

    def test_growing_solution(self):
        cell = PeriodicGrid(64)
        sigma = CellFunction.from_function(cell, sine_profile(2.0, 0.5))
        grid = TimeGrid.from_count(50.0, 5000)
        table = KernelTable.from_cell_coefficient(sigma, grid.dt, grid.count)
        u = assert_paths_agree(VolterraProblem(-1.0, table, None, 1.0), grid)
        assert u[-1] > 1e20

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(2, 64).flatmap(
            lambda n: hnp.arrays(np.float64, n, elements=st.floats(0.2, 5.0))
        )
    )
    def test_random_positive_profiles(self, values):
        sigma = CellFunction(PeriodicGrid(len(values)), values)
        u_in = CellFunction(sigma.grid, 1.0 + np.cos(2 * np.pi * sigma.grid.nodes))
        grid = TimeGrid.from_count(5.0, 500)
        assert_paths_agree(homogenized_problem(sigma, u_in, grid), grid)

    def test_table_without_modes_rejected(self):
        grid = TimeGrid.from_count(5.0, 100)
        with pytest.raises(TypeError):
            KernelTable(grid.times, lag0=1.0)

    def test_long_march_against_closed_form(self):
        rng = np.random.default_rng(5)
        sigma = random_profile(rng, 256)
        u_in = CellFunction(sigma.grid, 1.0 + 0.5 * np.sin(2 * np.pi * sigma.grid.nodes + 1.0))
        grid = TimeGrid.from_count(50.0, 100_000)
        u = solve_homogenized_volterra(OdeProblem(sigma, None, u_in, 50.0), grid)
        gap = float(np.max(np.abs(u - closed_form_mean(sigma, u_in, grid.times))))
        assert gap <= 1e-5, gap
