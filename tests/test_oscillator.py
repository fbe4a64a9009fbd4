"""Oscillator-limit tests: rotations, resolvent matrix, pole kernel, Volterra."""

import numpy as np
import pytest

from homokin.cell import CellFunction, PeriodicGrid
from homokin.oscillator import (
    SKEW,
    YoungMeasure,
    cell_averaged_limit,
    kernel_components,
    kernel_time_table,
    solve_oscillator_limit,
)
from homokin.volterra import TimeGrid
from oracles import (
    averaged_rotation_laplace_numeric,
    exact_poles,
    exact_rotation,
    gauss_radau_rules,
    matrix_B,
    regularized_kernel_laplace,
    rotation_matrix,
)

TWO_ATOMS = YoungMeasure.two_atoms(1.0, 3.0)
U_IN = np.array([1.0, 0.0])


class TestYoungMeasure:
    def test_weights_must_normalize(self):
        with pytest.raises(ValueError):
            YoungMeasure(np.array([1.0, 2.0]), np.array([0.5, 0.6]))

    def test_from_cell_function(self):
        b = CellFunction.from_function(PeriodicGrid(64), lambda y: 2 + np.cos(2 * np.pi * y))
        nu = YoungMeasure(b.values, b.grid.weights)
        assert abs(nu.weights.sum() - 1.0) < 1e-12
        assert abs(nu.mean - 2.0) < 1e-12
        assert abs(nu.variance - 0.5) < 1e-12


class TestRotations:
    def test_zero_coefficient_is_identity(self):
        assert np.array_equal(exact_rotation(0.0, 3.0, U_IN), U_IN)

    def test_quarter_turn(self):
        out = exact_rotation(1.0, np.pi / 2, U_IN)
        assert np.max(np.abs(out - np.array([0.0, -1.0]))) < 1e-14

    def test_norm_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            b, t = rng.uniform(-3, 3), rng.uniform(0, 10)
            u = rng.standard_normal(2)
            out = exact_rotation(b, t, u)
            assert abs(np.linalg.norm(out) - np.linalg.norm(u)) < 1e-14


class TestAveragedLimit:
    def test_point_mass_is_plain_rotation(self):
        nu = YoungMeasure(np.array([2.0]), np.array([1.0]))
        for t in (0.3, 2.0):
            assert np.allclose(
                cell_averaged_limit(nu, t, U_IN), exact_rotation(2.0, t, U_IN)
            )

    def test_two_atoms_average(self):
        t = 1.3
        expect = 0.5 * (
            rotation_matrix(1.0 * t) + rotation_matrix(3.0 * t)
        ) @ U_IN
        assert np.allclose(cell_averaged_limit(TWO_ATOMS, t, U_IN), expect)

    def test_mixing_contracts_norm(self):
        ts = np.linspace(0.1, 10, 50)
        vals = cell_averaged_limit(TWO_ATOMS, ts, U_IN)
        norms = np.linalg.norm(vals, axis=1)
        assert np.all(norms <= 1.0 + 1e-14)
        assert norms.min() < 0.9  # strict mixing damps


class TestMatrixB:
    def test_point_mass_closed_form(self):
        nu = YoungMeasure(np.array([2.0]), np.array([1.0]))
        p = 1.5
        expect = p * np.eye(2) - 2.0 * SKEW
        assert np.max(np.abs(matrix_B(nu, p) - expect)) < 1e-12

    def test_zero_point_mass(self):
        nu = YoungMeasure(np.array([0.0]), np.array([1.0]))
        assert np.max(np.abs(matrix_B(nu, 2.0) - 2.0 * np.eye(2))) < 1e-14

    def test_inverse_defining_property(self):
        for p in (0.5, 1.0, 4.0):
            a = sum(
                w * p / (p**2 + lam**2)
                for lam, w in zip(TWO_ATOMS.atoms, TWO_ATOMS.weights)
            )
            c = sum(
                w * lam / (p**2 + lam**2)
                for lam, w in zip(TWO_ATOMS.atoms, TWO_ATOMS.weights)
            )
            M = np.array([[a, c], [-c, a]])
            assert np.max(np.abs(matrix_B(TWO_ATOMS, p) @ M - np.eye(2))) < 1e-12

    def test_nonpositive_p_rejected(self):
        with pytest.raises(ValueError):
            matrix_B(TWO_ATOMS, -1.0)

    def test_laplace_identity_algebraic(self):
        # B(p)^{-1} u equals the analytic transform of averaged rotations
        for p in (0.5, 1.0, 2.0):
            lhs = np.linalg.solve(matrix_B(TWO_ATOMS, p), U_IN)
            a = sum(
                w * p / (p**2 + lam**2)
                for lam, w in zip(TWO_ATOMS.atoms, TWO_ATOMS.weights)
            )
            c = sum(
                w * lam / (p**2 + lam**2)
                for lam, w in zip(TWO_ATOMS.atoms, TWO_ATOMS.weights)
            )
            rhs = np.array([[a, c], [-c, a]]) @ U_IN
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestRegularizedKernel:
    def test_point_mass_vanishes(self):
        nu = YoungMeasure(np.array([2.0]), np.array([1.0]))
        for p in (0.5, 3.0):
            assert np.max(np.abs(regularized_kernel_laplace(nu, p))) < 1e-12

    def test_large_p_variance_limit(self):
        for p in (1e3, 1e4):
            K = regularized_kernel_laplace(TWO_ATOMS, p)
            gap = np.max(np.abs(p * K - TWO_ATOMS.variance * np.eye(2)))
            assert gap / TWO_ATOMS.variance < 3.0 / p

    def test_commutant_structure(self):
        K = regularized_kernel_laplace(TWO_ATOMS, 1.7)
        assert abs(K[0, 0] - K[1, 1]) < 1e-12
        assert abs(K[0, 1] + K[1, 0]) < 1e-12


class TestKernelTable:
    def test_two_atom_closed_form(self):
        # Cauchy-transform algebra gives Ktilde = cos(2t) Id + sin(2t) A
        grid = TimeGrid.from_count(10.0, 2000)
        table = kernel_time_table(TWO_ATOMS, grid)
        alpha, beta = kernel_components(table)
        assert np.max(np.abs(alpha - np.cos(2.0 * table.taus))) < 1e-5
        assert np.max(np.abs(beta - np.sin(2.0 * table.taus))) < 1e-5

    def test_lag_zero_variance(self):
        grid = TimeGrid.from_count(1.0, 100)
        table = kernel_time_table(TWO_ATOMS, grid)
        assert np.max(np.abs(table.values[0] - np.eye(2))) < 1e-14

    def test_alpha_near_zero_at_fixed_nodes(self):
        grid = TimeGrid(0.048, 1e-3)
        table = kernel_time_table(TWO_ATOMS, grid)
        alpha, _ = kernel_components(table)
        assert abs(alpha[1] - TWO_ATOMS.variance) / TWO_ATOMS.variance < 0.02

    def test_commutant_structure_everywhere(self):
        grid = TimeGrid.from_count(5.0, 500)
        table = kernel_time_table(TWO_ATOMS, grid)
        assert np.max(np.abs(table.values[:, 0, 0] - table.values[:, 1, 1])) < 1e-12
        assert np.max(np.abs(table.values[:, 0, 1] + table.values[:, 1, 0])) < 1e-12

    def test_tiny_atoms_keep_their_pole(self):
        # the mass <z^2> ~ 6e-386 of the unscaled Lanczos start underflows to
        # zero; scaled by a power of two, the rule keeps the one pole
        atoms, weights = np.array([5.06e-193, 0.0]), np.array([0.5, 0.5])
        table = kernel_time_table(YoungMeasure(atoms, weights), TimeGrid.from_count(1.0, 10))
        assert len(table.modes[0]) == len(exact_poles(atoms, weights)[0]) == 1

    @pytest.mark.parametrize(
        "atoms, grid",
        [
            ([40.0, 50.0, 60.0], TimeGrid(10.0, 1.0)),
            ([5.0, 6.0, 7.0, 8.0], TimeGrid(80.0, 8.0)),
        ],
    )
    def test_coarse_grid_keeps_every_pole(self, atoms, grid):
        # every atom turns by more than 30 radians a step, and e^{-dt l} is
        # below rounding: a bracket on the lags would close early, the exact
        # rule keeps the m - 1 poles of m atoms
        atoms = np.array(atoms)
        weights = np.full(len(atoms), 1.0 / len(atoms))
        rates, amplitudes = kernel_time_table(YoungMeasure(atoms, weights), grid).modes
        (nodes, residues), _ = gauss_radau_rules(atoms, weights, len(atoms), atoms)
        assert len(rates) == len(atoms) - 1
        assert np.array_equal(rates, -1j * nodes)
        assert np.array_equal(amplitudes, residues[:, None, None] * (np.eye(2) - 1j * SKEW))


class TestLimitSolve:
    def test_point_mass_recovers_rotation(self):
        nu = YoungMeasure(np.array([2.0]), np.array([1.0]))
        grid = TimeGrid.from_count(5.0, 20000)
        u = solve_oscillator_limit(nu, U_IN, grid)
        ref = cell_averaged_limit(nu, grid.times, U_IN)
        assert np.max(np.abs(u - ref)) < 1e-6

    def test_two_atoms_end_to_end(self):
        grid = TimeGrid.from_count(10.0, 10000)
        u = solve_oscillator_limit(TWO_ATOMS, U_IN, grid)
        ref = cell_averaged_limit(TWO_ATOMS, grid.times, U_IN)
        assert np.max(np.abs(u - ref)) < 1e-3

    def test_wide_atom_gaps_end_to_end(self):
        # l_max * T reaches 100; what remains is the trapezoid's O(dt^2) error
        grid = TimeGrid.from_count(10.0, 10000)
        for high in (6.0, 10.0):
            nu = YoungMeasure.two_atoms(1.0, high)
            u = solve_oscillator_limit(nu, U_IN, grid)
            ref = cell_averaged_limit(nu, grid.times, U_IN)
            assert np.max(np.abs(u - ref)) < 1e-3

    def test_laplace_identity_numeric(self):
        for p in (0.5, 1.0, 2.0):
            lhs = np.linalg.solve(matrix_B(TWO_ATOMS, p), U_IN)
            rhs = averaged_rotation_laplace_numeric(TWO_ATOMS, p, U_IN)
            assert np.max(np.abs(lhs - rhs)) < 1e-5


class TestEpsRouteConsistency:
    def test_windowed_averages_approach_limit(self):
        b = CellFunction.from_function(
            PeriodicGrid(128), lambda y: 2.0 + np.cos(2 * np.pi * y)
        )
        nu = YoungMeasure(b.values, b.grid.weights)
        t = 2.0
        ref = cell_averaged_limit(nu, t, U_IN)
        windows = [(0.13, 0.47), (0.28, 0.91), (0.55, 0.83)]
        errs = []
        for eps in (1 / 10, 1 / 160):
            nx = round(100 / eps)
            x = (np.arange(nx) + 0.5) / nx
            bvals = b.eval_periodic(np.mod(x / eps, 1.0))
            states = np.stack(
                [
                    np.cos(bvals * t) * U_IN[0] + np.sin(bvals * t) * U_IN[1],
                    -np.sin(bvals * t) * U_IN[0] + np.cos(bvals * t) * U_IN[1],
                ],
                axis=1,
            )
            werrs = []
            for a, bb in windows:
                mask = (x >= a) & (x < bb)
                werrs.append(np.max(np.abs(states[mask].mean(axis=0) - ref)))
            errs.append(max(werrs))
        assert errs[1] < errs[0] / 4.0
