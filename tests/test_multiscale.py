"""Cross-route tests for the oscillatory decay problem and its limits."""

import numpy as np
import pytest

from homokin.cell import (
    CellFunction,
    PeriodicGrid,
    cell_average,
    sine_profile,
    two_valued_profile,
)
from homokin.multiscale import (
    OdeProblem,
    solve_coupled_system,
    solve_eps_exact,
    solve_homogenized_volterra,
    solve_two_scale_closed,
    three_route_report,
    weak_test_function_errors,
)
from homokin.volterra import TimeGrid
from oracles import solve_coupled_direct, windowed_average_errors

GRID = PeriodicGrid(256)
SINE = CellFunction.from_function(GRID, sine_profile(2.0, 0.5))
TWOVAL = CellFunction.from_function(GRID, two_valued_profile(1.0, 3.0))
ONES = CellFunction(GRID, np.ones(GRID.n))
OSC_INIT = CellFunction.from_function(GRID, lambda y: 1.0 + np.sin(2 * np.pi * y))


def midpoints(n):
    return (np.arange(n) + 0.5) / n


class TestEpsRoute:
    def test_zero_forcing_is_pure_decay(self):
        prob = OdeProblem(SINE, None, OSC_INIT, 2.0, epsilon=0.1)
        x = midpoints(500)
        sol = solve_eps_exact(prob, x, nt=200)
        y = np.mod(x / 0.1, 1.0)
        expect = OSC_INIT.eval_periodic(y) * np.exp(
            -SINE.eval_periodic(y) * sol.times[:, None]
        )
        assert np.max(np.abs(sol.values - expect)) < 1e-13

    def test_constant_sigma_epsilon_independent(self):
        sig = CellFunction(GRID, np.full(GRID.n, 2.0))
        x = midpoints(200)
        sols = []
        for eps in (0.1, 0.025):
            prob = OdeProblem(sig, None, ONES, 3.0, epsilon=eps)
            sols.append(solve_eps_exact(prob, x, nt=100).values)
        assert np.max(np.abs(sols[0] - sols[1])) < 1e-14
        assert np.max(np.abs(sols[0][-1] - np.exp(-2.0 * 3.0))) < 1e-14

    def test_windowed_averages_approach_cell_average(self):
        # off-lattice windows, so the oscillation phase at the edges does
        # not cancel exactly; compare the ends of the sweep because the
        # edge phases wander between neighbouring epsilons
        T = 1.0
        target = cell_average(CellFunction(GRID, np.exp(-SINE.values * T)))
        windows = [(0.13, 0.47), (0.28, 0.91), (0.55, 0.83)]
        errs = []
        for eps in (1 / 10, 1 / 160):
            nx = round(100 / eps)
            x = midpoints(nx)
            prob = OdeProblem(SINE, None, ONES, T, epsilon=eps)
            sol = solve_eps_exact(prob, x, nt=100)
            errs.append(
                np.max(windowed_average_errors(x, sol.values[-1] - target, windows))
            )
        assert errs[1] < errs[0] / 4.0
        assert errs[1] < 1e-3

    def test_missing_epsilon_rejected(self):
        prob = OdeProblem(SINE, None, ONES, 1.0)
        with pytest.raises(ValueError):
            solve_eps_exact(prob, midpoints(10))

    def test_callable_forcing_rejected(self):
        with pytest.raises(TypeError, match="CellFunction"):
            OdeProblem(SINE, lambda t: np.ones(GRID.n), ONES, 1.0)

    def test_constant_forcing_closed_form(self):
        # sigma and f constant: u = u_in e^{-2t} + (1 - e^{-2t}) / 2 at every node
        sig = CellFunction(GRID, np.full(GRID.n, 2.0))
        f = CellFunction(GRID, np.ones(GRID.n))
        prob = OdeProblem(sig, f, ONES, 3.0, epsilon=0.1)
        sol = solve_eps_exact(prob, midpoints(10), nt=30)
        exact = 0.5 + 0.5 * np.exp(-2.0 * sol.times)
        assert np.max(np.abs(sol.values - exact[:, None])) < 1e-15


class TestTwoScaleClosed:
    def test_two_valued_average(self):
        prob = OdeProblem(TWOVAL, None, ONES, 5.0)
        sol = solve_two_scale_closed(prob, nt=500)
        exact = 0.5 * (np.exp(-sol.times) + np.exp(-3.0 * sol.times))
        assert np.max(np.abs(sol.u_hom - exact)) < 1e-13

    def test_constant_sigma(self):
        sig = CellFunction(GRID, np.full(GRID.n, 1.5))
        prob = OdeProblem(sig, None, OSC_INIT, 4.0)
        sol = solve_two_scale_closed(prob, nt=100)
        assert np.max(np.abs(sol.u_hom - np.exp(-1.5 * sol.times))) < 1e-13

    def test_constant_forcing_duhamel(self):
        sig = CellFunction(GRID, np.full(GRID.n, 2.0))
        f = CellFunction(GRID, np.ones(GRID.n))
        zero = CellFunction(GRID, np.zeros(GRID.n))
        prob = OdeProblem(sig, f, zero, 3.0)
        sol = solve_two_scale_closed(prob, nt=100)
        exact = 0.5 * (1.0 - np.exp(-2.0 * sol.times))
        assert np.max(np.abs(sol.u_hom - exact)) < 1e-13


class TestCoupledSystem:
    def test_flat_data_has_zero_remainder(self):
        sig = CellFunction(GRID, np.full(GRID.n, 2.0))
        u_in = CellFunction(GRID, np.full(GRID.n, 0.7))
        prob = OdeProblem(sig, None, u_in, 3.0)
        grid = TimeGrid.from_count(3.0, 1000)
        _, r = solve_coupled_direct(prob, grid)
        assert np.max(np.abs(r)) < 1e-13
        sol = solve_coupled_system(prob, grid)
        assert np.max(np.abs(sol.mean_r)) < 1e-13
        assert np.max(np.abs(sol.u_hom - 0.7 * np.exp(-2.0 * sol.times))) < 1e-9

    def test_two_valued_matches_closed_form(self):
        prob = OdeProblem(TWOVAL, None, ONES, 5.0)
        sol = solve_coupled_system(prob, TimeGrid.from_count(5.0, 2500))
        exact = 0.5 * (np.exp(-sol.times) + np.exp(-3.0 * sol.times))
        assert np.max(np.abs(sol.u_hom - exact)) < 1e-6

    def test_remainder_stays_mean_free(self):
        prob = OdeProblem(SINE, OSC_INIT, OSC_INIT, 4.0)
        sol = solve_coupled_system(prob, TimeGrid.from_count(4.0, 2000))
        assert np.max(np.abs(sol.mean_r)) < 1e-10

    @pytest.mark.parametrize("sigma", [SINE, TWOVAL], ids=["sine", "two-valued"])
    @pytest.mark.parametrize("forced", [False, True], ids=["free", "forced"])
    def test_block_march_matches_step_by_step(self, sigma, forced):
        f = CellFunction.from_function(GRID, lambda y: 0.5 + 0.4 * np.cos(2 * np.pi * y))
        prob = OdeProblem(sigma, f if forced else None, OSC_INIT, 4.0)
        grid = TimeGrid.from_count(4.0, 2000)
        sol = solve_coupled_system(prob, grid)
        u_hom, r = solve_coupled_direct(prob, grid)
        assert np.max(np.abs(sol.u_hom - u_hom)) < 1e-11
        assert np.max(np.abs(sol.mean_r - r @ GRID.weights)) < 1e-11


class TestVolterraRoute:
    def test_constant_sigma_with_forcing(self):
        sig = CellFunction(GRID, np.full(GRID.n, 2.0))
        f = CellFunction(GRID, np.ones(GRID.n))
        zero = CellFunction(GRID, np.zeros(GRID.n))
        prob = OdeProblem(sig, f, zero, 3.0)
        grid = TimeGrid.from_count(3.0, 3000)
        u = solve_homogenized_volterra(prob, grid)
        exact = 0.5 * (1.0 - np.exp(-2.0 * grid.times))
        assert np.max(np.abs(u - exact)) < 1e-6

    def test_two_valued_closed_form(self):
        prob = OdeProblem(TWOVAL, None, ONES, 5.0)
        grid = TimeGrid.from_count(5.0, 5000)
        u = solve_homogenized_volterra(prob, grid)
        exact = 0.5 * (np.exp(-grid.times) + np.exp(-3.0 * grid.times))
        assert np.max(np.abs(u - exact)) < 1e-5

    def test_sine_agrees_with_closed_route(self):
        prob = OdeProblem(SINE, None, OSC_INIT, 5.0)
        grid = TimeGrid.from_count(5.0, 5000)
        u = solve_homogenized_volterra(prob, grid)
        closed = solve_two_scale_closed(prob, nt=grid.count)
        assert np.max(np.abs(u - closed.u_hom)) < 1e-5


class TestThreeRouteAgreement:
    def test_example_style_data(self):
        prob = OdeProblem(SINE, None, OSC_INIT, 5.0)
        rep = three_route_report(prob, TimeGrid.from_count(5.0, 5000))
        assert rep["sup_closed_coupled"] < 1e-5
        assert rep["sup_closed_volterra"] < 1e-5
        assert rep["sup_coupled_volterra"] < 1e-5
        assert rep["max_mean_remainder"] < 1e-10

    def test_positivity_of_all_routes(self):
        f = CellFunction.from_function(GRID, lambda y: 0.5 + 0.4 * np.cos(2 * np.pi * y))
        u_in = CellFunction.from_function(GRID, lambda y: 1.0 + 0.9 * np.sin(2 * np.pi * y))
        prob = OdeProblem(SINE, f, u_in, 4.0)
        rep = three_route_report(prob, TimeGrid.from_count(4.0, 4000))
        for route in ("closed", "coupled", "volterra"):
            assert np.min(rep[route]) > -1e-10


class TestWeakConvergenceRate:
    def test_weak_test_function_errors_shrink(self):
        T = 1.0
        target = cell_average(CellFunction(GRID, np.exp(-SINE.values * T)))
        errs = []
        for eps in (1 / 10, 1 / 40):
            nx = round(100 / eps)
            x = midpoints(nx)
            prob = OdeProblem(SINE, None, ONES, T, epsilon=eps)
            sol = solve_eps_exact(prob, x, nt=100)
            errs.append(weak_test_function_errors(x, sol.values[-1] - target))
        # purely periodic data: every test functional shrinks along the sweep
        for name in ("constant", "sin", "hat"):
            assert errs[1][name] <= errs[0][name] + 1e-12
