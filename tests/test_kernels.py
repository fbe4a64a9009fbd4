"""Memory-kernel tests: variance identity, Laplace routes, source table."""

import numpy as np
import pytest
from scipy.linalg import expm

from homokin.cell import (
    CellFunction,
    CellOperator,
    PeriodicGrid,
    cell_average,
    fluctuation,
    indicator_sine_profile,
    semigroup_apply,
    sine_profile,
    two_valued_profile,
)
from homokin.kernels import (
    KernelTable,
    build_source_table,
    kernel_laplace_semigroup,
    laplace_of_table,
    laplace_truncation_horizon,
    memory_kernel_eval,
    tartar_kernel_laplace,
    verify_tartar_equivalence,
)

GRID = PeriodicGrid(256)
SINE = CellFunction.from_function(GRID, sine_profile(2.0, 0.5))
TWOVAL = CellFunction.from_function(GRID, two_valued_profile(1.0, 3.0))


class TestKernelEval:
    def test_constant_coefficient_has_no_memory(self):
        sig = CellFunction(GRID, np.full(GRID.n, 2.0))
        for tau in (0.0, 0.7, 4.0):
            assert abs(memory_kernel_eval(sig, tau)) < 1e-14

    def test_sine_variance_at_zero_lag(self):
        # quadrature oracle: <sigma^2> - <sigma>^2 = <(sin/2)^2> = 1/8
        var = cell_average(CellFunction(GRID, SINE.values**2)) - cell_average(SINE) ** 2
        assert abs(var - 0.125) < 1e-12
        assert abs(memory_kernel_eval(SINE, 0.0) - 0.125) < 1e-12

    def test_two_valued_exponential_kernel(self):
        # oracle: dense matrix exponential applied to L_1 sigma
        L = CellOperator(TWOVAL).matrix()
        h = fluctuation(TWOVAL).values
        wsig = GRID.weights * TWOVAL.values
        for tau in (0.0, 0.5, 1.0):
            oracle = float(wsig @ (expm(-tau * L) @ h))
            assert abs(oracle - np.exp(-2.0 * tau)) < 1e-12
            assert abs(memory_kernel_eval(TWOVAL, tau) - np.exp(-2.0 * tau)) < 1e-12

    def test_negative_lag_rejected(self):
        with pytest.raises(ValueError):
            memory_kernel_eval(SINE, -0.5)

    def test_variance_identity_across_coefficients(self):
        profiles = [
            lambda y: np.full_like(y, 2.0),
            sine_profile(2.0, 0.5),
            two_valued_profile(1.0, 3.0),
            lambda y: 2.0 + 0.3 * np.sin(2 * np.pi * y) + 0.2 * np.sin(4 * np.pi * y),
            indicator_sine_profile(2.0, 0.5),
        ]
        for fn in profiles:
            sig = CellFunction.from_function(GRID, fn)
            var = cell_average(CellFunction(GRID, sig.values**2)) - cell_average(sig) ** 2
            assert abs(memory_kernel_eval(sig, 0.0) - var) < 1e-10

    def test_half_cell_permutation_leaves_kernel_unchanged(self):
        swapped = CellFunction.from_function(GRID, two_valued_profile(3.0, 1.0))
        for tau in (0.0, 0.4, 2.0):
            a = memory_kernel_eval(TWOVAL, tau)
            b = memory_kernel_eval(swapped, tau)
            assert abs(a - b) < 1e-12


class TestKernelTable:
    def test_matches_pointwise_eval(self):
        table = KernelTable.from_cell_coefficient(SINE, 0.05, 40)
        for j in (0, 7, 40):
            assert abs(table.values[j] - memory_kernel_eval(SINE, table.taus[j])) < 1e-11

    def test_csv_roundtrip(self, tmp_path):
        table = KernelTable.from_cell_coefficient(TWOVAL, 0.1, 5)
        path = tmp_path / "kernel.csv"
        table.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "tau,K"
        data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        assert np.array_equal(data[:, 0], table.taus)
        assert np.array_equal(data[:, 1], table.values)

    def test_matrix_valued_table_accepted(self):
        taus = np.linspace(0, 1, 11)
        vals = np.zeros((11, 2, 2))
        table = KernelTable(taus, vals)


class TestLaplaceRoutes:
    def test_constant_sigma_zero(self):
        sig = CellFunction(GRID, np.full(GRID.n, 2.0))
        assert abs(kernel_laplace_semigroup(sig, 1.0)) < 1e-14
        assert abs(tartar_kernel_laplace(sig, 1.0)) < 1e-12

    def test_two_valued_closed_form(self):
        # Mhat(p) = 1/(p+2) from the two-point harmonic mean
        for p in (0.5, 1.0, 3.0):
            assert abs(tartar_kernel_laplace(TWOVAL, p) - 1.0 / (p + 2.0)) < 1e-12
            assert abs(kernel_laplace_semigroup(TWOVAL, p) - 1.0 / (p + 2.0)) < 1e-12

    def test_two_valued_numeric_laplace_of_kernel(self):
        dt = 2e-3
        count = int(np.ceil(laplace_truncation_horizon(1.0) / dt))
        value, tail = laplace_of_table(KernelTable.from_cell_coefficient(TWOVAL, dt, count), 1.0)
        assert abs(value - 1.0 / 3.0) < 1e-5
        assert tail < 1e-9

    def test_sine_quadrature_oracle(self):
        expected = 3.0 - np.sqrt(8.75)  # 0.041960108450191935
        assert abs(tartar_kernel_laplace(SINE, 1.0) - expected) < 1e-6
        assert abs(kernel_laplace_semigroup(SINE, 1.0) - expected) < 1e-6

    def test_laplace_consistency_band(self):
        table_tau_max = 60.0
        dt = 2e-3
        table = KernelTable.from_cell_coefficient(SINE, dt, int(table_tau_max / dt))
        for p in (0.5, 1.0, 2.0, 5.0):
            numeric, _ = laplace_of_table(table, p)
            assert abs(numeric - kernel_laplace_semigroup(SINE, p)) < 1e-5

    def test_nonpositive_p_rejected(self):
        with pytest.raises(ValueError):
            kernel_laplace_semigroup(SINE, 0.0)
        with pytest.raises(ValueError):
            tartar_kernel_laplace(SINE, -2.0)


class TestTartarEquivalence:
    def test_constant_sigma_trivial(self):
        sig = CellFunction(GRID, np.full(GRID.n, 2.0))
        report = verify_tartar_equivalence(sig, [0.1, 1.0, 10.0], table_dt=1e-2)
        assert report.max_rel_error < 1e-12

    def test_two_valued_tight(self):
        report = verify_tartar_equivalence(TWOVAL, [0.5, 1.0, 2.0], table_dt=1e-2)
        assert report.max_rel_error < 1e-10
        assert np.max(np.abs(report.mhat - 1.0 / (report.ps + 2.0))) < 1e-12

    def test_sine_fine_grid(self):
        sig = CellFunction.from_function(PeriodicGrid(4096), sine_profile(2.0, 0.5))
        report = verify_tartar_equivalence(sig, [0.5, 1.0, 2.0], table_dt=5e-3)
        assert report.max_rel_error < 1e-6


def _source_oracle(sigma, u_in, f, t, nsteps):
    """Direct trapezoid + dense semigroup evaluation of S(t)."""
    wsig = sigma.grid.weights * sigma.values
    init = semigroup_apply(sigma, t, fluctuation(u_in))
    total = -float(wsig @ init.values)
    if f is None:
        return total
    if isinstance(f, CellFunction):
        fvals = lambda s: f.values
        favg = cell_average(f)
    else:
        fvals = lambda s: np.asarray(f(s))
        favg = float(sigma.grid.weights @ np.asarray(f(t)))
    total += favg
    if t == 0:
        return total
    ss = np.linspace(0.0, t, nsteps + 1)
    vals = []
    for s in ss:
        fl = fvals(s) - float(sigma.grid.weights @ fvals(s))
        prop = semigroup_apply(sigma, t - s, CellFunction(sigma.grid, fl))
        vals.append(float(wsig @ prop.values))
    return total - float(np.trapezoid(vals, ss))


class TestSource:
    def test_zero_forcing_flat_initial_data(self):
        u_in = CellFunction(GRID, np.full(GRID.n, 3.0))
        table = build_source_table(SINE, u_in, None, dt=0.0025, count=2000)
        for j in (0, 400, 2000):  # t = 0, 1, 5
            assert abs(table.values[j]) < 1e-12

    def test_constant_sigma_kills_fluctuation_term(self):
        sig = CellFunction(GRID, np.full(GRID.n, 2.0))
        u_in = CellFunction.from_function(GRID, lambda y: 1.0 + np.sin(2 * np.pi * y))
        table = build_source_table(sig, u_in, None, dt=0.001, count=2000)
        for j in (0, 500, 2000):  # t = 0, 0.5, 2
            assert abs(table.values[j]) < 1e-12

    def test_initial_time_quadrature_value(self):
        u_in = CellFunction.from_function(GRID, lambda y: 1.0 + np.sin(2 * np.pi * y))
        got = build_source_table(SINE, u_in, None, dt=0.1, count=0).values[0]
        assert abs(got - (-0.25)) < 1e-12

    def test_table_constant_forcing_against_oracle(self):
        grid = PeriodicGrid(64)
        sig = CellFunction.from_function(grid, sine_profile(2.0, 0.5))
        u_in = CellFunction.from_function(grid, lambda y: 1.0 + np.sin(2 * np.pi * y))
        f = CellFunction.from_function(grid, lambda y: 0.5 + np.cos(2 * np.pi * y))
        table = build_source_table(sig, u_in, f, dt=0.01, count=100)
        for j in (0, 30, 100):
            oracle = _source_oracle(sig, u_in, f, table.times[j], max(j, 1))
            assert abs(table.values[j] - oracle) < 1e-9

    def test_table_time_dependent_forcing_against_oracle(self):
        grid = PeriodicGrid(64)
        sig = CellFunction.from_function(grid, sine_profile(2.0, 0.5))
        u_in = CellFunction.from_function(grid, lambda y: np.cos(2 * np.pi * y))
        f = lambda t: np.exp(-t) * (1.0 + np.sin(2 * np.pi * grid.nodes))
        table = build_source_table(sig, u_in, f, dt=0.01, count=80)
        for j in (0, 25, 80):
            oracle = _source_oracle(sig, u_in, f, table.times[j], max(j, 1))
            assert abs(table.values[j] - oracle) < 1e-9

    def test_matrix_free_adjoint_path_matches_dense(self):
        # a fine and a coarse grid of the same profiles give the same table
        fine = PeriodicGrid(2048)
        coarse = PeriodicGrid(512)
        f_fine = lambda t: np.exp(-t) * (1.0 + np.sin(2 * np.pi * fine.nodes))
        f_coarse = lambda t: np.exp(-t) * (1.0 + np.sin(2 * np.pi * coarse.nodes))
        tables = []
        for grid, f in ((fine, f_fine), (coarse, f_coarse)):
            sig = CellFunction.from_function(grid, sine_profile(2.0, 0.5))
            u_in = CellFunction.from_function(grid, lambda y: np.cos(2 * np.pi * y))
            tables.append(build_source_table(sig, u_in, f, dt=0.02, count=25))
        assert np.max(np.abs(tables[0].values - tables[1].values)) < 1e-8
