"""Energy toy-model tests: presets, both solvers, sweep behavior."""

import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from homokin import boltzmann
from homokin.boltzmann import (
    DEFAULT_SWEEP,
    EnergyGrid,
    ToyProblem,
    _period,
    _rank_one_march,
    _reduce_eps_run,
    _toy_eps_set_up,
    example_presets,
    solve_toy_eps,
    solve_toy_two_scale,
    sweep,
    sweep_point,
)
from homokin.cell import CellFunction, PeriodicGrid, rk4_step
from homokin.diagnostics import (
    EnergyField,
    legendre_modes,
    mode_error,
    norm_difference,
    orthonormal_polynomials,
)
from oracles import (
    CellEnergyField,
    convergence_study,
    full_mesh_reductions,
    hom_field_on,
    solve_separable_energy_model,
)


def profile_on(problem, energies):
    """The limit's energy profile a on ``energies``: the data itself for a
    fixed profile, ones for oscillatory data."""
    if problem.init_mode == "profile":
        return problem.phi_in.eval_periodic(energies)
    return np.ones(len(energies))


class TestEnergyGrid:
    def test_mesh_for_epsilon(self):
        grid = EnergyGrid.for_epsilon(0.1)
        assert grid.n == 1000
        assert abs(grid.h - 0.001) < 1e-15
        assert abs(grid.nodes[0] - grid.h / 2) < 1e-15

    def test_node_budget_guard(self):
        with pytest.raises(MemoryError):
            EnergyGrid.for_epsilon(1e-5, node_budget=1000)

    @pytest.mark.parametrize(
        "e_min, e_max", [(0.0, np.nan), (0.0, np.inf), (np.nan, 1.0), (-0.5, 1.0), (1.0, 0.5)]
    )
    def test_energy_window_must_be_finite_and_ordered(self, e_min, e_max):
        # e_max = nan gave all-NaN nodes and e_max = inf all-inf ones; sized
        # for an eps, inf raised OverflowError and nan a message about rounding
        with pytest.raises(ValueError, match="0 <= e_min < e_max < inf"):
            EnergyGrid(4, e_min, e_max)
        with pytest.raises(ValueError, match="0 <= e_min < e_max < inf"):
            EnergyGrid.for_epsilon(0.1, e_min=e_min, e_max=e_max)

    @pytest.mark.parametrize("eps", [0.0, -0.1])
    def test_nonpositive_epsilon_raises(self, eps):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            EnergyGrid.for_epsilon(eps)


class TestPresets:
    def test_example_one_coefficients(self):
        p = example_presets(1, "inside", 0.1)
        y = np.array([0.0, 0.25, 0.5])
        assert np.allclose(p.sigma.eval_periodic(y), 2.0 + 0.5 * np.sin(2 * np.pi * y))
        assert np.allclose(p.kappa.eval_periodic(y), 1.0 + 0.5 * np.sin(2 * np.pi * y))
        assert np.allclose(p.phi_in.eval_periodic(y), 1.0 + np.sin(2 * np.pi * y))

    def test_example_two_initial_step(self):
        p = example_presets(2, "inside", 0.1)
        assert np.allclose(p.phi_in.eval_periodic(np.array([0.2, 0.5])), 2.0)
        assert np.allclose(p.phi_in.eval_periodic(np.array([0.7, 0.9])), 1.0)

    def test_example_three_indicator_coefficients(self):
        p = example_presets(3, "inside", 0.1)
        assert np.allclose(p.sigma.eval_periodic(np.array([0.2])), 2.5)
        assert np.allclose(p.sigma.eval_periodic(np.array([0.7])), 2.0)
        assert np.allclose(p.kappa.eval_periodic(np.array([0.2])), 1.5)
        assert np.allclose(p.kappa.eval_periodic(np.array([0.7])), 1.0)

    def test_unknown_example_rejected(self):
        with pytest.raises(ValueError):
            example_presets(4, "inside", 0.1)

    def test_odd_cell_count_rejected_for_jump_examples(self):
        with pytest.raises(ValueError, match="even"):
            example_presets(2, "inside", 0.1, n_cell=255)
        with pytest.raises(ValueError, match="even"):
            example_presets(3, "inside", 0.1, n_cell=255)

    def test_bad_placement_rejected(self):
        with pytest.raises(ValueError):
            example_presets(1, "sideways", 0.1)

    def test_cell_functions_on_two_grids_rejected(self):
        problem = example_presets(1, "inside", 0.1)
        coarse = CellFunction.from_function(PeriodicGrid(64), lambda y: 1.0 + 0 * y)
        for field in ("sigma", "kappa", "phi_in"):
            with pytest.raises(ValueError, match="one cell grid"):
                replace(problem, **{field: coarse})


def constant_problem(placement, epsilon=0.1):
    grid = PeriodicGrid(64)
    return ToyProblem(
        CellFunction(grid, np.full(64, 2.0)),
        CellFunction(grid, np.full(64, 1.0)),
        CellFunction(grid, np.full(64, 1.0)),
        placement,
        epsilon,
    )


class TestEpsSolver:
    @pytest.mark.parametrize("placement", ["inside", "outside"])
    def test_constant_coefficients_reduce_to_scalar_decay(self, placement):
        # sigma = 2, kappa = 1 on a unit window: net rate is -1
        field = solve_toy_eps(constant_problem(placement))
        expect = np.exp(-field.times)
        err = np.max(np.abs(field.values - expect[:, None]))
        assert err < 5e-5  # RK4 truncation at the coarse default step

    def test_zero_kappa_is_pure_decay(self):
        grid = PeriodicGrid(64)
        problem = ToyProblem(
            CellFunction.from_function(grid, lambda y: 2 + 0.5 * np.sin(2 * np.pi * y)),
            CellFunction(grid, np.zeros(64)),
            CellFunction.from_function(grid, lambda y: 1 + np.sin(2 * np.pi * y)),
            "inside",
            0.1,
            t_end=2.0,
        )
        field = solve_toy_eps(problem, n_steps=2000)
        y = np.mod(field.energies / 0.1, 1.0)
        exact = problem.phi_in.eval_periodic(y) * np.exp(
            -problem.sigma.eval_periodic(y) * field.times[:, None]
        )
        assert np.max(np.abs(field.values - exact)) < 1e-10

    def test_uniform_l2_bound_over_sweep(self):
        sups = []
        for eps in DEFAULT_SWEEP:
            res = sweep_point(1, "inside", eps)
            sups.append(res.sup_norm_l2)
        assert max(sups) < 10.0
        assert max(sups) / min(sups) < 1.5

    def test_profile_mode_initial_data(self):
        problem = example_presets(1, "inside", 0.1, init_mode="profile")
        field = solve_toy_eps(problem)
        assert np.allclose(
            field.values[0], 1.0 + np.sin(2 * np.pi * field.energies)
        )


class TestTwoScaleSolver:
    @pytest.mark.parametrize("placement", ["inside", "outside"])
    def test_constant_coefficients(self, placement):
        sol = solve_toy_two_scale(constant_problem(placement), n_steps=400)
        expect = np.exp(-sol.times)
        assert np.max(np.abs(sol.phi_hom - expect[:, None])) < 1e-8

    def test_initial_mean(self):
        problem = example_presets(1, "inside", 0.1)
        sol = solve_toy_two_scale(problem, n_steps=10)
        assert np.max(np.abs(sol.phi_hom[0] - 1.0)) < 1e-12

    @pytest.mark.parametrize("n_cell", [8, 16, 256])
    def test_limit_runs_on_the_problems_cell_grid(self, n_cell):
        # the limit's cell vectors are the grid's samples, so n_cell sets them
        problem = example_presets(1, "outside", 0.1, n_cell, init_mode="profile")
        sol = solve_toy_two_scale(problem, n_steps=10)
        assert sol.cell.shape == (11, 2, n_cell)
        assert np.array_equal(sol.cell[0, 0], np.ones(n_cell))
        z = -problem.sigma.values  # X' = -sigma X, one RK4 step of h = 1
        assert np.allclose(sol.cell[1, 0], 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24, rtol=1e-14, atol=0)

    def test_n_cell_moves_the_outside_profile_sweep(self):
        eps = DEFAULT_SWEEP[:2]
        coarse = sweep(1, "outside", eps, n_cell=8, init_mode="profile")
        fine = sweep(1, "outside", eps, n_cell=256, init_mode="profile")
        assert not np.array_equal(
            [p.mode_errors for p in coarse], [p.mode_errors for p in fine]
        )
        assert [p.norm_diff for p in coarse] != [p.norm_diff for p in fine]

    def test_zero_kappa_two_valued_matches_cell_average(self):
        grid = PeriodicGrid(256)
        problem = ToyProblem(
            CellFunction.from_function(
                grid, lambda y: np.where(np.mod(y, 1.0) < 0.5, 1.0, 3.0)
            ),
            CellFunction(grid, np.zeros(256)),
            CellFunction(grid, np.ones(256)),
            "inside",
            0.1,
            t_end=5.0,
        )
        sol = solve_toy_two_scale(problem, n_steps=2000)
        exact = 0.5 * (np.exp(-sol.times) + np.exp(-3.0 * sol.times))
        assert np.max(np.abs(sol.phi_hom - exact[:, None])) < 1e-9


def dense_two_scale(problem, n_steps=50, n_e=64):
    """Oracle: RK4 march of the limit on the full (E, y) grid.

    y runs over the problem's cell grid.  Returns phi_hom and the
    L2(t, E, y) norm of the whole field.
    """
    egrid, ygrid = EnergyGrid(n_e), problem.sigma.grid
    n_y, sig, kap = ygrid.n, problem.sigma.values, problem.kappa.values
    he, wy = egrid.h, 1.0 / n_y
    if problem.init_mode == "oscillatory":
        phi = np.broadcast_to(problem.phi_in.values, (n_e, n_y))
    else:
        phi = np.broadcast_to(
            problem.phi_in.eval_periodic(egrid.nodes)[:, None], (n_e, n_y)
        )
    if problem.placement == "inside":
        rhs = lambda t, p: (-sig * p + he * wy * float(np.einsum("y,ey->", kap, p)),)
    else:
        rhs = lambda t, p: (-sig * p + kap * (he * wy * p.sum()),)
    times = np.linspace(0.0, problem.t_end, n_steps + 1)
    values = [phi]
    for j in range(n_steps):
        (phi,) = rk4_step(rhs, times[j], times[j + 1] - times[j], phi)
        values.append(phi)
    values = np.array(values)
    field = CellEnergyField(times, egrid.nodes, egrid.weights, ygrid.weights, values)
    return values.mean(axis=2), field.l2_norm()


def dense_gaps(problem, **grids):
    """phi_hom gap, relative norm gap and max|phi_hom| against the oracle."""
    sol = solve_toy_two_scale(problem, **grids)
    phi_hom, norm = dense_two_scale(problem, **grids)
    assert sol.phi_hom.shape == phi_hom.shape
    norm_gap = abs(sol.l2_norm() - norm) / norm if norm else sol.l2_norm()
    return np.max(np.abs(sol.phi_hom - phi_hom)), norm_gap, np.max(np.abs(phi_hom))


class TestTwoScaleDenseOracle:
    @pytest.mark.parametrize("example_id", [1, 2, 3])
    @pytest.mark.parametrize("placement", ["inside", "outside"])
    @pytest.mark.parametrize("init_mode", ["oscillatory", "profile"])
    def test_presets_match_full_grid_march(self, example_id, placement, init_mode):
        problem = example_presets(example_id, placement, 0.1, init_mode=init_mode)
        phi_gap, norm_gap, _ = dense_gaps(problem)
        assert phi_gap <= 1e-13
        assert norm_gap <= 1e-13

    @settings(max_examples=40, deadline=None)
    @given(
        n_y=st.integers(2, 64),
        n_e=st.integers(2, 16),
        placement=st.sampled_from(["inside", "outside"]),
        init_mode=st.sampled_from(["oscillatory", "profile"]),
        data=st.data(),
    )
    def test_random_coefficients_match_full_grid_march(
        self, n_y, n_e, placement, init_mode, data
    ):
        def cell_values(elements):
            return data.draw(hnp.arrays(np.float64, n_y, elements=elements))

        # signed data, kept clear of magnitudes whose squares underflow
        init = st.floats(-2.0, 2.0).filter(lambda v: v == 0.0 or abs(v) > 1e-6)
        grid = PeriodicGrid(n_y)
        problem = ToyProblem(
            CellFunction(grid, cell_values(st.floats(0.1, 5.0))),
            CellFunction(grid, cell_values(st.floats(0.0, 3.0))),
            CellFunction(grid, cell_values(init)),
            placement,
            0.1,
            t_end=2.0,
            init_mode=init_mode,
        )
        phi_gap, norm_gap, scale = dense_gaps(problem, n_steps=20, n_e=n_e)
        # kappa > sigma lets the field grow, so the phi_hom gap scales with it
        assert phi_gap <= 1e-13 * max(scale, 1.0)
        assert norm_gap <= 1e-13


class TestRankOneMarch:
    """The moment form of the RK4 step against the stage-by-stage march."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 300),
        stacked=st.booleans(),
        n_steps=st.integers(1, 120),
        t_end=st.floats(0.1, 10.0),
        block_rows=st.integers(1, 8),
        data=st.data(),
    )
    def test_matches_stage_by_stage_march(
        self, n, stacked, n_steps, t_end, block_rows, data
    ):
        size = n // 2 if stacked else n

        def draw(elements):
            return data.draw(hnp.arrays(np.float64, size, elements=elements))

        # signed data, kept clear of magnitudes whose squares underflow
        phi0 = draw(st.floats(-2.0, 2.0).filter(lambda v: v == 0.0 or abs(v) > 1e-6))
        decay = draw(st.floats(0.01, 5.0))
        emit = draw(st.floats(0.0, 3.0))
        collect = draw(st.floats(0.0, 3.0)) / size
        if stacked:
            # the two-scale layout [X; Z]: no emission into X, which starts
            # from the data, while Z starts from zero
            mean_a = data.draw(st.floats(0.0, 3.0))
            decay = np.concatenate([decay, decay])
            emit = np.concatenate([np.zeros(size), emit])
            collect = np.concatenate([mean_a * collect, collect])
            phi0 = np.concatenate([phi0, np.zeros(size)])
        self.check_march(decay, emit, collect, phi0, t_end, n_steps, block_rows)

    def test_step_far_outside_the_stability_interval(self):
        # h decay = 14: keep = R(-14) = 1228 cancels against a rank-one term
        # of the same size, leaving states near 0.42
        full = np.full(2, 1.0)
        self.check_march(2.0 * full, full, 0.9375 * full, full, 7.0, 1, 1)

    @staticmethod
    def check_march(decay, emit, collect, phi0, t_end, n_steps, block_rows):
        times, ref = solve_separable_energy_model(
            decay, emit, collect, phi0, 1.0, t_end, n_steps
        )
        # blocks of block_rows states; with one row a block, each state is
        # written over the one before it
        with mock.patch.object(boltzmann, "MARCH_CHUNK", block_rows * len(phi0)):
            march = _rank_one_march(decay, emit, collect, phi0, times)
            blocks = [block.copy() for block in march]
        assert all(len(block) == block_rows for block in blocks[:-1])
        assert 1 <= len(blocks[-1]) <= block_rows
        got = np.concatenate(blocks)
        assert got.shape == ref.shape
        # rounding scales with the RK4 amplification R(z), z = -h decay, of
        # the terms that cancel; inside the stability interval |R| <= 1
        z = -(times[1] - times[0]) * np.asarray(decay)
        amplification = np.max(np.abs(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24))
        bound = 1e-13 * max(1.0, amplification) * np.max(np.abs(ref))
        assert np.max(np.abs(got - ref)) <= bound


class TestFold:
    """The eps run marched over one period of its mesh against the march of
    the whole mesh."""

    def test_which_meshes_fold(self):
        # the default sweep and the CI smoke sweep fold at 100 nodes a period
        for eps in DEFAULT_SWEEP + (0.1, 0.05, 0.025):
            assert _period(eps, EnergyGrid.for_epsilon(eps)) == 100
        # 8130 nodes, 100 of which miss eps by 1e-5 of it; and eps = 1, whose
        # one period is the whole mesh
        for eps, n in [(0.0123, 8130), (1.0, 100)]:
            grid = EnergyGrid.for_epsilon(eps)
            assert grid.n == n
            assert _period(eps, grid) == n

    @settings(max_examples=40, deadline=None)
    @given(
        n_y=st.integers(2, 32),
        periods=st.integers(2, 12),
        per_period=st.integers(3, 40),
        e_min=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        width=st.sampled_from([0.5, 0.75, 1.0, 2.0]),
        placement=st.sampled_from(["inside", "outside"]),
        init_mode=st.sampled_from(["oscillatory", "profile"]),
        n_steps=st.integers(1, 30),
        data=st.data(),
    )
    def test_matches_full_mesh_march(
        self, n_y, periods, per_period, e_min, width, placement, init_mode, n_steps, data
    ):
        def cell_values(elements):
            return data.draw(hnp.arrays(np.float64, n_y, elements=elements))

        # signed data, kept clear of magnitudes whose squares underflow
        init = st.floats(-2.0, 2.0).filter(lambda v: v == 0.0 or abs(v) > 1e-6)
        grid = PeriodicGrid(n_y)
        epsilon = width / periods
        problem = ToyProblem(
            CellFunction(grid, cell_values(st.floats(0.1, 5.0))),
            CellFunction(grid, cell_values(st.floats(0.0, 3.0))),
            CellFunction(grid, cell_values(init)),
            placement,
            epsilon,
            t_end=2.0,
            init_mode=init_mode,
        )
        egrid = EnergyGrid.for_epsilon(epsilon, per_period, e_min, e_min + width)
        assert _period(epsilon, egrid) == per_period
        nodes, times = egrid.nodes, np.linspace(0.0, 2.0, n_steps + 1)
        rows = egrid.h * orthonormal_polynomials(nodes, egrid.weights, 4)
        coeffs, sq = _reduce_eps_run(problem, egrid, rows, times)
        march = _rank_one_march(*_toy_eps_set_up(problem, nodes, egrid.h, egrid.n), times)
        field = EnergyField(times, nodes, egrid.weights, np.concatenate([b.copy() for b in march]))
        expect = np.stack([m.values for m in legendre_modes(field, 4)], axis=1)
        expect_sq = (field.values**2) @ field.e_weights
        assert np.max(np.abs(coeffs - expect)) <= 1e-10 * np.max(np.abs(expect))
        assert np.max(np.abs(sq - expect_sq)) <= 1e-10 * np.max(expect_sq)


class TestRankTwoModes:
    """The homogenized modes from the two profile projections against the
    modes of the full (t, E) field."""

    @pytest.mark.parametrize("example_id", [1, 2, 3])
    @pytest.mark.parametrize(
        "placement, init_mode", [("inside", "oscillatory"), ("outside", "profile")]
    )
    @pytest.mark.parametrize("epsilon", [1 / 10.1, 1 / 160.1])
    def test_match_full_field_projection(self, example_id, placement, init_mode, epsilon):
        problem = example_presets(example_id, placement, epsilon, init_mode=init_mode)
        hom = solve_toy_two_scale(problem)
        egrid = EnergyGrid.for_epsilon(epsilon)
        rows = egrid.weights * orthonormal_polynomials(egrid.nodes, egrid.weights, 8)
        a = profile_on(problem, egrid.nodes)
        got = hom.modes_on(a, rows)
        full = legendre_modes(hom_field_on(hom, egrid.nodes, a), 8)
        expect = np.stack([m.values for m in full], axis=1)
        assert got.shape == (len(hom.times), 9)
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


class TestStreamedSweep:
    """sweep_point reduces each state as it comes; the field route forms
    both (t, E) fields and reduces them with the diagnostics functions."""

    CASES = [
        (ex, placement, init_mode)
        for ex in (1, 2, 3)
        for placement, init_mode in (("inside", "oscillatory"), ("outside", "profile"))
    ]

    @pytest.mark.parametrize("example_id, placement, init_mode", CASES)
    # two meshes that fold at 100 nodes a period and one that does not
    @pytest.mark.parametrize("epsilon", [1 / 10.1, 1 / 160.1, 0.0123])
    def test_matches_field_route(self, example_id, placement, init_mode, epsilon):
        got = sweep_point(example_id, placement, epsilon, init_mode=init_mode)
        problem = example_presets(example_id, placement, epsilon, init_mode=init_mode)
        field = solve_toy_eps(problem)
        hom = solve_toy_two_scale(problem)
        a = profile_on(problem, field.energies)
        hom_modes = legendre_modes(hom_field_on(hom, field.energies, a), 8)
        errors = [
            mode_error(e, h) for e, h in zip(legendre_modes(field, 8), hom_modes)
        ]
        sup_l2 = np.max(np.sqrt((field.values**2) @ field.e_weights))
        assert got.epsilon == epsilon
        # the gaps are differences of O(1) sums taken in another order, so
        # they agree on the scale of the largest gap and, where 1e-10 of that
        # is below the rounding of those sums, on the scale of the norm: the
        # finest outside/profile gaps are 1e-6 of it
        scale = np.max(errors)
        assert np.max(np.abs(got.mode_errors - errors)) <= 1e-10 * scale + 1e-14 * sup_l2
        assert abs(got.norm_diff - norm_difference(field, hom)) <= 1e-10 * sup_l2
        assert abs(got.sup_norm_l2 - sup_l2) <= 1e-10 * sup_l2

    @pytest.mark.parametrize("example_id, placement, init_mode", CASES[:2])
    @pytest.mark.parametrize(
        "epsilons",
        [
            [1 / 10.1, 1 / 20.1, 1 / 40.1],
            # points come back in the caller's order, repeats included
            [1 / 40.1, 1 / 10.1, 1 / 20.1],
            [1 / 20.1, 1 / 40.1, 1 / 20.1],
            [1 / 40.1, 1 / 20.1, 1 / 10.1],
            # 0.0123 does not fold onto one period of the cell
            [0.0123, 1 / 10.1],
        ],
    )
    def test_sweep_solves_the_limit_once_for_the_same_points(
        self, example_id, placement, init_mode, epsilons
    ):
        points = sweep(example_id, placement, epsilons, init_mode=init_mode)
        assert len(points) == len(epsilons)
        for eps, point in zip(epsilons, points):
            alone = sweep_point(example_id, placement, eps, init_mode=init_mode)
            assert point.epsilon == eps
            assert np.array_equal(point.mode_errors, alone.mode_errors)
            assert point.norm_diff == alone.norm_diff
            assert point.sup_norm_l2 == alone.sup_norm_l2

    @pytest.mark.parametrize("example_id, placement, init_mode", CASES[:2])
    @pytest.mark.parametrize("epsilon", [1 / 10.1, 1 / 160.1])
    def test_block_size_changes_no_bit(
        self, example_id, placement, init_mode, epsilon, monkeypatch
    ):
        # 1, 3 and the default number of states a block (2 at 1/160.1, whose
        # states are longer than numpy's 8192-float einsum buffer, 32 at 1/10.1)
        n = EnergyGrid.for_epsilon(epsilon).n
        points = []
        for chunk in (n, 3 * n, boltzmann.MARCH_CHUNK):
            monkeypatch.setattr(boltzmann, "MARCH_CHUNK", chunk)
            points.append(sweep_point(example_id, placement, epsilon, init_mode=init_mode))
        for point in points[1:]:
            assert point.mode_errors.tobytes() == points[0].mode_errors.tobytes()
            assert point.norm_diff == points[0].norm_diff
            assert point.sup_norm_l2 == points[0].sup_norm_l2

    @pytest.mark.parametrize("example_id, placement, init_mode", CASES[:2])
    def test_mesh_that_does_not_fold_is_the_full_mesh_route(
        self, example_id, placement, init_mode, monkeypatch
    ):
        # 8130 nodes, where 100 nodes miss eps by 1e-5 of it: the run is
        # marched on the whole mesh and reduced as before the fold, bit for bit
        got = sweep_point(example_id, placement, 0.0123, init_mode=init_mode)
        monkeypatch.setattr(boltzmann, "_reduce_eps_run", full_mesh_reductions)
        ref = sweep_point(example_id, placement, 0.0123, init_mode=init_mode)
        assert got.mode_errors.tobytes() == ref.mode_errors.tobytes()
        assert got.norm_diff == ref.norm_diff
        assert got.sup_norm_l2 == ref.sup_norm_l2

    @pytest.mark.parametrize("placement", ["inside", "outside"])
    def test_profile_read_on_the_grid_up_to_its_ends(self, placement):
        # a'' != 0 up to both ends of the window: the limit's modes must read
        # the profile on the eps grid, as linear interpolation from the
        # limit's 64 energy nodes, clamped outside them, moved the mode
        # errors here by up to 1e-3
        preset = example_presets(1, placement, 1 / 40.1)
        curved = CellFunction.from_function(preset.sigma.grid, lambda e: np.exp(2.0 * e))
        problem = ToyProblem(
            preset.sigma, preset.kappa, curved, placement, 1 / 40.1, init_mode="profile"
        )
        hom = solve_toy_two_scale(problem)
        got = boltzmann._point_errors(problem, hom, 8, EnergyGrid.for_epsilon(1 / 40.1))
        field = solve_toy_eps(problem)
        hom_modes = legendre_modes(
            hom_field_on(hom, field.energies, np.exp(2.0 * field.energies)), 8
        )
        errors = [
            mode_error(e, h) for e, h in zip(legendre_modes(field, 8), hom_modes)
        ]
        assert np.max(np.abs(got.mode_errors - errors)) <= 1e-10 * np.max(errors)

    def test_finest_default_point_peak_memory(self):
        # the basis (9 rows), its product with rho (9 rows) and a few arrays
        # of the set-up: about 22 states of the finest default mesh at their
        # peak, as the folded march holds 300 floats a state; the march of
        # the whole mesh took 32
        epsilon = DEFAULT_SWEEP[-1]
        state = EnergyGrid.for_epsilon(epsilon).n * 8
        sweep_point(1, "inside", epsilon)  # first-call allocations
        tracemalloc.start()
        try:
            sweep_point(1, "inside", epsilon)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 24 * state

    def test_sweep_runs_the_points_in_the_callers_order(self, monkeypatch):
        started = []
        point_errors = boltzmann._point_errors

        def record(problem, hom, k_max, egrid):
            started.append(egrid.n)
            return point_errors(problem, hom, k_max, egrid)

        monkeypatch.setattr(boltzmann, "_point_errors", record)
        epsilons = [1 / 40.1, 1 / 10.1, 1 / 20.1]
        points = sweep(1, "inside", epsilons)
        assert started == [4010, 1010, 2010]
        assert [p.epsilon for p in points] == epsilons


class TestSweep:
    def test_mode_errors_decay_and_rate_near_one(self):
        report, _ = convergence_study(1, "inside", DEFAULT_SWEEP[:3])
        assert np.all(np.diff(report.mode_errors[:, 0]) < 0)
        assert 0.8 < report.fits[0].slope < 1.2

    def test_outside_profile_rate_near_two(self):
        report, _ = convergence_study(
            1, "outside", DEFAULT_SWEEP[:3], init_mode="profile"
        )
        assert 1.7 < report.fits[0].slope < 2.3

    def test_norm_difference_shrinks(self):
        report, _ = convergence_study(1, "inside", [DEFAULT_SWEEP[0], DEFAULT_SWEEP[2]])
        assert report.norm_diffs[1] < report.norm_diffs[0] / 2.0
