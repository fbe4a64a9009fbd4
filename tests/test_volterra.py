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
from homokin.oscillator import SKEW, YoungMeasure, kernel_time_table, solve_oscillator_limit
from homokin.volterra import (
    BLOCK,
    SolverError,
    TimeGrid,
    VolterraProblem,
    march_affine,
    solve_volterra,
)
from oracles import solve_volterra_direct, volterra_residual

ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])  # skew generator of plane rotations
EPS = np.finfo(float).eps


def exp_kernel_table(rate: float, grid: TimeGrid) -> KernelTable:
    """K(tau) = e^{-rate tau}, one pole of unit amplitude."""
    return KernelTable(grid.times, ([rate], [1.0]), 1.0)


def pole_table(rates, amps, grid: TimeGrid) -> KernelTable:
    """K(tau) = Re sum_k amps_k e^{-rates_k tau}, lag 0 included."""
    return KernelTable(grid.times, (rates, amps), np.sum(amps, axis=0).real)


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
    """The 2x2 problem that solve_oscillator_limit marches."""
    table = kernel_time_table(nu, grid)
    rates, amps = table.modes
    neg = KernelTable(table.taus, (rates, -amps), -table.lag0)
    return VolterraProblem(-nu.mean * SKEW, neg, None, np.asarray(u_in, dtype=float))


def noncommuting_problem(grid: TimeGrid) -> VolterraProblem:
    """Forced 2x2 problem whose kernel amplitudes do not commute."""
    rates = np.array([0.5, 1.0 + 2.0j, 3.0])
    amps = np.array(
        [
            [[0.5, 0.2], [0.0, 0.3]],
            [[0.1 + 0.1j, -0.4], [0.3j, 0.2]],
            [[0.0, 0.0], [0.6, -0.1]],
        ]
    )
    a = np.array([[1.0, 0.3], [-0.2, 1.5]])
    src = np.stack([np.sin(grid.times), np.ones(grid.count + 1)], axis=1)
    return VolterraProblem(a, pole_table(rates, amps, grid), src, np.array([1.0, -0.5]))


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
    count, dt, d = grid.count, grid.dt, problem.u0.size
    K = problem.kernel.values[: count + 1].reshape(count + 1, d, d)
    u = u.reshape(count + 1, d)
    S = np.zeros_like(u) if problem.source is None else problem.source.reshape(count + 1, d)
    conv = np.zeros_like(u)
    for n in range(1, count + 1):
        vals = np.einsum("tij,tj->ti", K[: n + 1][::-1], u[: n + 1])
        conv[n] = dt * np.trapezoid(vals, axis=0)
    dudt = (u[2:] - u[:-2]) / (2.0 * dt)
    decay = u @ problem.a.reshape(d, d).T
    return float(np.max(np.abs(dudt + decay[1:-1] - conv[1:-1] - S[1:-1])))


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


class TestSystemSolve:
    def test_rotation_solution(self):
        # kernel-free system with decay matrix -A (the sign convention of the
        # regularized limit equation): u(t) = (cos t, -sin t) from (1, 0)
        grid = TimeGrid(5.0, 1e-3)
        problem = VolterraProblem(-ROT, None, None, np.array([1.0, 0.0]))
        u = solve_volterra(problem, grid)
        exact = np.stack([np.cos(grid.times), -np.sin(grid.times)], axis=1)
        assert np.max(np.abs(u - exact)) < 1e-5

    def test_matrix_kernel_matches_scalar_pair(self):
        # diagonal system with identical scalar blocks must reproduce the
        # scalar solution componentwise
        grid = TimeGrid(4.0, 2e-3)
        ker = exp_kernel_table(2.0, grid)
        scalar = solve_volterra(VolterraProblem(2.0, ker, None, 1.0), grid)
        table = KernelTable(grid.times, ([2.0], [np.eye(2)]), np.eye(2))
        sys_u = solve_volterra(
            VolterraProblem(2.0 * np.eye(2), table, None, np.array([1.0, 1.0])),
            grid,
        )
        assert np.max(np.abs(sys_u - scalar[:, None])) < 1e-12


class TestAffineStep:
    """The march as one affine step z <- T z + G_n of the real state."""

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("poles", [0, 3])
    def test_result_owns_real_memory(self, dim, poles):
        grid = TimeGrid.from_count(2.0, 200)
        rates = np.array([0.5, 1.0 + 2.0j, 1.0 - 2.0j])[:poles]
        amps = np.array([0.3, 0.2 - 0.1j, 0.2 + 0.1j])[:poles]
        if dim == 2:
            amps = amps[:, None, None] * np.array([[1.0, 0.5], [-0.5, 1.0]])
        a = 2.0 if dim == 1 else 2.0 * np.eye(2) + ROT
        u0 = 1.0 if dim == 1 else np.array([1.0, -0.5])
        problem = VolterraProblem(a, pole_table(rates, amps, grid), None, u0)
        u = solve_volterra(problem, grid)
        assert u.flags.owndata
        assert u.dtype == np.float64
        assert u.shape == ((grid.count + 1,) if dim == 1 else (grid.count + 1, 2))
        assert np.all(u[0] == u0)

    @settings(max_examples=30, deadline=None)
    @given(
        dim=st.sampled_from([1, 2]),
        a=hnp.arrays(np.float64, (2, 2), elements=st.floats(-1.0, 1.0)),
        shift=st.floats(0.05, 2.0),
        poles=st.integers(0, 3).flatmap(
            lambda m: st.tuples(
                hnp.arrays(np.float64, (m, 2), elements=st.floats(-3.0, 3.0)),
                hnp.arrays(np.float64, (m, 2, 2, 2), elements=st.floats(-1.0, 1.0)),
            )
        ),
        src=hnp.arrays(np.float64, (3, 2), elements=st.floats(-2.0, 2.0)),
    )
    def test_matches_direct_history_sum(self, dim, a, shift, poles, src):
        # decay has a positive definite symmetric part; complex rates with positive real parts
        # and complex amplitudes, so the pole states carry both parts
        grid = TimeGrid.from_count(3.0, 150)
        decay = a @ a.T + shift * np.eye(2) + (a - a.T)
        rate_parts, amp_parts = poles
        rates = np.abs(rate_parts[:, 0]) + 0.1 + 1j * rate_parts[:, 1]
        amps = amp_parts[..., 0] + 1j * amp_parts[..., 1]
        t = grid.times
        source = src[0] + np.outer(np.sin(t), src[1]) + np.outer(t, src[2])
        if dim == 1:
            decay, amps, source = decay[0, 0], amps[:, 0, 0], source[:, 0]
            u0 = 1.0
        else:
            u0 = np.array([1.0, -1.0])
        problem = VolterraProblem(decay, pole_table(rates, amps, grid), source, u0)
        assert_paths_agree(problem, grid)


@st.composite
def affine_marches(draw):
    """(T, B_in, X, z0, C) with ||T||_2, so the spectral radius, at most 1.05."""
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
    rates of positive real part and scalar or 2x2 amplitudes."""
    m, shape = draw(st.integers(0, 3)), draw(st.sampled_from([(), (2, 2)]))
    parts = st.floats(-2.0, 2.0)
    rates = draw(hnp.arrays(np.float64, m, elements=st.floats(0.1, 3.0)))
    amps = draw(hnp.arrays(np.float64, (m,) + shape, elements=parts))
    if draw(st.booleans()):  # complex rates and amplitudes
        rates = rates + 1j * draw(hnp.arrays(np.float64, m, elements=parts))
        amps = amps + 1j * draw(hnp.arrays(np.float64, (m,) + shape, elements=parts))
    return rates, amps, draw(hnp.arrays(np.float64, shape, elements=parts))


class TestPoleForm:
    """A kernel table is its pole form: its values, and the solver's samples on any grid."""

    @settings(max_examples=60, deadline=None)
    @given(pole_forms(), st.integers(2, 4), st.integers(1, 150))
    def test_values_and_solution_come_from_the_pole_form(self, form, coarse, lags):
        rates, amps, lag0 = form
        grid = TimeGrid.from_count(3.0, 150)
        table = KernelTable(grid.times, (rates, amps), lag0)
        assert np.array_equal(table.values[0], lag0)
        assert np.array_equal(table.values[1:], pole_sum(rates, amps, grid.times)[1:].real)
        direct = np.tensordot(np.exp(-np.outer(grid.times, rates)), amps, axes=1).real
        tol = 1e-14 * (1.0 + np.abs(amps).sum())
        assert np.max(np.abs(table.values[1:] - direct[1:]), initial=0.0) <= tol
        # the solver evaluates the pole form on its own grid: a table on a
        # coarser grid, or with fewer lags, gives bitwise the same march
        a, u0 = (2.0, 1.0)
        if lag0.ndim:
            a, u0 = 2.0 * np.eye(2) + ROT, np.array([1.0, -0.5])
        u = solve_volterra(VolterraProblem(a, table, None, u0), grid)
        assert u.shape == (grid.count + 1,) + np.shape(u0)
        for taus in (coarse * grid.times, grid.times[:lags]):
            other = KernelTable(taus, (rates, amps), lag0)
            assert np.array_equal(solve_volterra(VolterraProblem(a, other, None, u0), grid), u)

    def test_solver_tabulates_no_kernel(self, monkeypatch):
        # scalar and 2x2, real and complex poles: the march reads the modes
        # and lag0 only, so it runs bitwise the same with the values gone
        grid = TimeGrid.from_count(3.0, 150)
        problems = [
            VolterraProblem(2.0, pole_table([0.5, 1 + 2j], [0.3, 0.1 - 0.2j], grid), None, 1.0),
            VolterraProblem(
                2.0 * np.eye(2) + ROT,
                pole_table([1.0, 0.5j], [0.3 * np.eye(2), 0.2 * ROT], grid),
                np.ones((grid.count + 1, 2)),
                np.array([1.0, -0.5]),
            ),
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
        with pytest.raises(ValueError, match="kernel of shape"):
            VolterraProblem(2.0 * np.eye(2), exp_kernel_table(1.0, grid), None, np.ones(2))
        with pytest.raises(ValueError, match="needs a of shape"):
            VolterraProblem(2.0, None, None, np.ones(2))


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

    def test_system_residual(self):
        grid = TimeGrid.from_count(8.0, 4000)
        problem = noncommuting_problem(grid)
        u = solve_volterra(problem, grid)
        fast = volterra_residual(problem, u, grid)
        assert fast < 1e-4
        scale = float(np.max(np.abs(problem.kernel.values)) * np.max(np.abs(u))) * grid.t_end
        assert abs(fast - residual_by_loop(problem, u, grid)) <= grid.count * EPS * scale
        zero = VolterraProblem(problem.a, problem.kernel, None, np.zeros(2))
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
        u = assert_paths_agree(oscillator_problem(nu, u_in, grid), grid)
        assert np.array_equal(u, solve_oscillator_limit(nu, u_in, grid))

    def test_complex_rate_scalar_kernel(self):
        grid = TimeGrid.from_count(10.0, 2000)
        rates = np.array([0.5 + 3.0j, 0.5 - 3.0j, 1.5 + 0.0j])
        amps = np.array([0.4 - 0.2j, 0.4 + 0.2j, 0.7 + 0.0j])
        table = pole_table(rates, amps, grid)
        src = np.cos(grid.times)
        assert_paths_agree(VolterraProblem(2.0, table, src, 1.0), grid)

    def test_noncommuting_matrix_amplitudes(self):
        grid = TimeGrid.from_count(8.0, 2000)
        problem = noncommuting_problem(grid)
        _, amps = problem.kernel.modes
        assert not np.allclose(amps[0] @ amps[2], amps[2] @ amps[0])
        assert_paths_agree(problem, grid)

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
