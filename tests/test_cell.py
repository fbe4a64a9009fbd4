"""Cell-calculus unit tests: averages, L_g, semigroup, resolvent, B(p)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homokin.cell import (
    CellFunction,
    CellOperator,
    PeriodicGrid,
    cell_average,
    fluctuation,
    harmonic_factor_B,
    march_blocks,
    resolvent_apply,
    rk4_step,
    sine_profile,
    two_valued_profile,
    wrap,
)
from oracles import apply_L, operator_matrix, semigroup_apply

GRID = PeriodicGrid(256)
SINE_SIGMA = CellFunction.from_function(GRID, sine_profile(2.0, 0.5))
TWOVAL_SIGMA = CellFunction.from_function(GRID, two_valued_profile(1.0, 3.0))

# Quadrature oracle values, n=4096 midpoint rule (matches the closed forms
# sqrt((p+2)^2 - 1/4) and the two-point harmonic mean to machine precision).
B_SINE_P1 = 2.958039891549808
B_TWOVAL_P1 = 8.0 / 3.0


class TestGrid:
    def test_weights_sum_to_one(self):
        for n in (1, 2, 7, 256, 4097):
            g = PeriodicGrid(n)
            assert abs(g.weights.sum() - 1.0) < 1e-12

    def test_nodes_strictly_increasing_in_unit_interval(self):
        g = PeriodicGrid(97)
        assert np.all(np.diff(g.nodes) > 0)
        assert g.nodes[0] > 0 and g.nodes[-1] < 1

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            PeriodicGrid(0)


class TestCellFunction:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CellFunction(GRID, np.zeros(GRID.n - 1))

    def test_nonfinite_rejected(self):
        vals = np.zeros(GRID.n)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            CellFunction(GRID, vals)

    def test_eval_periodic_prefers_analytic_profile(self):
        y = np.array([0.13, 0.77, 1.4, -0.2])
        expected = 2.0 + 0.5 * np.sin(2 * np.pi * np.mod(y, 1.0))
        assert np.allclose(SINE_SIGMA.eval_periodic(y), expected, atol=0, rtol=0)

    def test_eval_periodic_interpolates_samples(self):
        cf = CellFunction(GRID, SINE_SIGMA.values.copy())
        y = np.linspace(0, 1, 37, endpoint=False)
        exact = 2.0 + 0.5 * np.sin(2 * np.pi * y)
        assert np.max(np.abs(cf.eval_periodic(y) - exact)) < 1e-4


class TestWrap:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                st.floats(-4.0, 4.0),
            ),
            min_size=1,
            max_size=40,
        )
    )
    # signed zeros, a tiny negative that wraps to 1.0, subnormals, negative
    # integers, values past 2^52 (all integers), infinities and NaNs
    @example([0.0, -0.0, -1e-300, 5e-324, -5e-324, -3.0, -2.5, 2.0**52, -(2.0**52) - 0.5,
              2.0**60, np.inf, -np.inf, np.nan, -np.nan])
    def test_bitwise_equal_to_np_mod(self, values):
        y = np.array(values)
        with np.errstate(invalid="ignore"):
            got, expect = wrap(y), np.mod(y, 1.0)
        assert got.tobytes() == expect.tobytes()


class TestCellAverage:
    def test_sine_average(self):
        assert abs(cell_average(SINE_SIGMA) - 2.0) < 1e-12

    def test_constant_exact(self):
        c = CellFunction(GRID, np.full(GRID.n, 5.0))
        assert cell_average(c) == 5.0

    def test_two_valued(self):
        assert abs(cell_average(TWOVAL_SIGMA) - 2.0) < 1e-12


class TestApplyL:
    def test_sigma_on_constant_removes_mean(self):
        one = CellFunction(GRID, np.ones(GRID.n))
        out = apply_L(CellOperator(SINE_SIGMA), one)
        assert np.max(np.abs(out.values - 0.5 * np.sin(2 * np.pi * GRID.nodes))) < 1e-12

    def test_constant_multiplier_factors_out(self):
        c = 3.5
        g = CellFunction(GRID, np.full(GRID.n, c))
        v = CellFunction.from_function(GRID, lambda y: np.cos(2 * np.pi * y) + y)
        out = apply_L(CellOperator(g), v)
        ref = c * (v.values - cell_average(v))
        assert np.max(np.abs(out.values - ref)) < 1e-13

    def test_grid_mismatch_raises(self):
        other = CellFunction(PeriodicGrid(128), np.ones(128))
        with pytest.raises(ValueError):
            apply_L(CellOperator(SINE_SIGMA), other)

    def test_matches_dense_matrix(self):
        rng = np.random.default_rng(7)
        v = CellFunction(GRID, rng.standard_normal(GRID.n))
        dense = operator_matrix(SINE_SIGMA) @ v.values
        out = apply_L(CellOperator(SINE_SIGMA), v)
        assert np.max(np.abs(out.values - dense)) < 1e-14

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_output_always_zero_mean(self, seed):
        rng = np.random.default_rng(seed)
        g = CellFunction(GRID, rng.uniform(-2, 2, GRID.n))
        v = CellFunction(GRID, rng.standard_normal(GRID.n))
        out = apply_L(CellOperator(g), v)
        assert abs(cell_average(out)) < 1e-12


class TestSemigroup:
    def test_tau_zero_is_identity(self):
        h = CellFunction.from_function(GRID, lambda y: np.sin(4 * np.pi * y))
        for method in ("matrix-exp", "ode-integrate"):
            out = semigroup_apply(SINE_SIGMA, 0.0, h, method=method)
            assert np.array_equal(out.values, h.values)

    def test_constant_sigma_scalar_decay_on_zero_mean(self):
        c = 1.7
        sig = CellFunction(GRID, np.full(GRID.n, c))
        h = CellFunction.from_function(GRID, lambda y: np.sin(2 * np.pi * y))
        for tau in (0.3, 2.0):
            out = semigroup_apply(sig, tau, h)
            assert np.max(np.abs(out.values - np.exp(-c * tau) * h.values)) < 1e-12

    def test_two_valued_eigenfunction_decay(self):
        # h = L_1 sigma is an eigenfunction of L_sigma with eigenvalue <sigma> = 2.
        # Oracle: dense matrix exponential on n = 1024.
        from scipy.linalg import expm

        grid = PeriodicGrid(1024)
        sig = CellFunction.from_function(grid, two_valued_profile(1.0, 3.0))
        h = fluctuation(sig)
        L = operator_matrix(sig)
        for tau in (0.25, 1.0, 3.0):
            oracle = expm(-tau * L) @ h.values
            assert np.max(np.abs(oracle - np.exp(-2.0 * tau) * h.values)) < 1e-10
            out = semigroup_apply(sig, tau, h)
            assert np.max(np.abs(out.values - np.exp(-2.0 * tau) * h.values)) < 1e-10

    def test_methods_agree(self):
        h = fluctuation(SINE_SIGMA)
        for tau in (0.5, 5.0, 20.0):
            a = semigroup_apply(SINE_SIGMA, tau, h, method="matrix-exp")
            b = semigroup_apply(SINE_SIGMA, tau, h, method="ode-integrate")
            assert np.max(np.abs(a.values - b.values)) < 1e-8

    def test_mean_conservation(self):
        h = CellFunction.from_function(GRID, lambda y: 1.0 + np.sin(2 * np.pi * y) ** 2)
        m0 = cell_average(h)
        for tau in (0.0, 0.5, 5.0):
            out = semigroup_apply(SINE_SIGMA, tau, h)
            assert abs(cell_average(out) - m0) < 1e-12

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            semigroup_apply(SINE_SIGMA, -0.1, SINE_SIGMA)


class TestRk4Step:
    def test_fourth_order_on_a_tuple_state(self):
        # u' = cos t exercises the stage times, z' = -z the stage states
        def final_error(n):
            h = 1.0 / n
            u, z = np.zeros(3), np.ones(3)
            rhs = lambda t, u, z: (np.full_like(u, np.cos(t)), -z)
            for j in range(n):
                u, z = rk4_step(rhs, j * h, h, u, z)
            return max(
                np.max(np.abs(u - np.sin(1.0))), np.max(np.abs(z - np.exp(-1.0)))
            )

        assert 14.0 <= final_error(10) / final_error(20) <= 18.0


class TestMarchBlocks:
    @staticmethod
    def step(phi, out):
        # reads all of phi before it writes out, which may be phi itself
        nxt = np.roll(phi, 1) * 0.5 + 0.25 * phi + 1.0
        out[...] = nxt
        return out

    def plain_loop(self, phi0, n_steps):
        states = [phi0]
        for _ in range(n_steps):
            states.append(self.step(states[-1], np.empty_like(phi0)))
        return np.array(states)

    @pytest.mark.parametrize(
        "chunk, rows",
        [(1, 1), (5, 1), (6, 1), (12, 2), (18, 3), (24, 4), (60, 10), (1000, 11)],
    )
    def test_blocks_are_the_plain_loop(self, chunk, rows):
        # 6 floats a state and 10 steps: one-row blocks, blocks that do not
        # divide the 11 states, blocks that do, and a single block
        phi0 = np.arange(6.0).reshape(2, 3)
        blocks = [b.copy() for b in march_blocks(self.step, phi0, 10, chunk)]
        assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
        assert 1 <= len(blocks[-1]) <= rows
        assert np.array_equal(np.concatenate(blocks), self.plain_loop(phi0, 10))

    def test_one_buffer_between_draws(self):
        march = march_blocks(self.step, np.zeros(4), 9, 12)  # 3 rows a block
        first = next(march)
        held = first.copy()
        second = next(march)
        assert np.shares_memory(first, second)
        assert not np.array_equal(first, held)  # the next draw wrote over it
        assert np.array_equal(second, self.plain_loop(np.zeros(4), 9)[3:6])

    def test_one_row_blocks_step_in_place(self):
        outs = []

        def step(phi, out):
            outs.append(np.shares_memory(out, phi))
            return self.step(phi, out)

        assert len(list(march_blocks(step, np.zeros(3), 4, 1))) == 5
        assert outs == [True] * 4
        outs.clear()
        list(march_blocks(step, np.zeros(3), 4, 6))  # two rows a block
        assert outs == [False] * 4

    def test_no_steps_yields_the_start(self):
        (block,) = march_blocks(self.step, np.ones((2, 2)), 0, 1 << 10)
        assert block.shape == (1, 2, 2) and np.all(block == 1.0)


class TestResolvent:
    def test_zero_data(self):
        z = CellFunction(GRID, np.zeros(GRID.n))
        out = resolvent_apply(SINE_SIGMA, 1.0, z)
        assert np.max(np.abs(out.values)) == 0.0

    def test_constant_sigma(self):
        c, p = 2.0, 0.7
        sig = CellFunction(GRID, np.full(GRID.n, c))
        f = CellFunction.from_function(GRID, lambda y: np.sin(2 * np.pi * y))
        out = resolvent_apply(sig, p, f)
        assert np.max(np.abs(out.values - f.values / (p + c))) < 1e-13

    def test_residual_of_sine_case(self):
        f = fluctuation(SINE_SIGMA)
        g = resolvent_apply(SINE_SIGMA, 1.0, f)
        residual = 1.0 * g.values + CellOperator(SINE_SIGMA).apply(g.values) - f.values
        assert np.max(np.abs(residual)) < 1e-10
        assert abs(cell_average(g)) < 1e-12

    def test_nonzero_mean_rejected(self):
        f = CellFunction(GRID, np.ones(GRID.n))
        with pytest.raises(ValueError):
            resolvent_apply(SINE_SIGMA, 1.0, f)

    def test_nonpositive_p_rejected(self):
        f = fluctuation(SINE_SIGMA)
        with pytest.raises(ValueError):
            resolvent_apply(SINE_SIGMA, 0.0, f)

    def test_matches_truncated_laplace_of_semigroup(self):
        # independent route: integrate exp(-p tau) e^{-tau L} f by trapezoid
        grid = PeriodicGrid(64)
        sig = CellFunction.from_function(grid, sine_profile(2.0, 0.5))
        f = fluctuation(sig)
        p = 1.0
        tau_max = 12.0 * np.log(10.0) / p
        dt = 2.5e-4
        nsteps = int(np.ceil(tau_max / dt))
        from scipy.linalg import expm

        E = expm(-dt * operator_matrix(sig))
        w = f.values.copy()
        acc = 0.5 * w.copy()  # tau = 0 endpoint
        for k in range(1, nsteps + 1):
            w = E @ w
            acc += np.exp(-p * k * dt) * w
        acc -= 0.5 * np.exp(-p * nsteps * dt) * w
        integral = dt * acc
        res = resolvent_apply(sig, p, f)
        assert np.max(np.abs(integral - res.values)) < 1e-6


class TestHarmonicFactor:
    def test_constant(self):
        sig = CellFunction(GRID, np.full(GRID.n, 2.0))
        assert abs(harmonic_factor_B(sig, 1.5) - 3.5) < 1e-14

    def test_two_valued_closed_form(self):
        grid = PeriodicGrid(4096)
        sig = CellFunction.from_function(grid, two_valued_profile(1.0, 3.0))
        assert abs(harmonic_factor_B(sig, 1.0) - B_TWOVAL_P1) < 1e-12

    def test_sine_quadrature_oracle(self):
        grid = PeriodicGrid(4096)
        sig = CellFunction.from_function(grid, sine_profile(2.0, 0.5))
        got = harmonic_factor_B(sig, 1.0)
        assert abs(got - B_SINE_P1) < 1e-12
        assert abs(got - np.sqrt(8.75)) < 1e-12

    def test_nonpositive_p_rejected(self):
        with pytest.raises(ValueError):
            harmonic_factor_B(SINE_SIGMA, -1.0)

    def test_grid_refinement_is_at_least_second_order(self):
        # smooth but not band-limited integrand so the midpoint error is visible
        fn = lambda y: 2.0 + 0.5 * np.sin(2 * np.pi * y) + 0.3 / (2.0 + np.cos(2 * np.pi * y))
        ref_avg = cell_average(CellFunction.from_function(PeriodicGrid(1 << 14), fn))
        ref_B = harmonic_factor_B(CellFunction.from_function(PeriodicGrid(1 << 14), fn), 1.0)
        errs_avg, errs_B = [], []
        for n in (4, 8):
            cf = CellFunction.from_function(PeriodicGrid(n), fn)
            errs_avg.append(abs(cell_average(cf) - ref_avg))
            errs_B.append(abs(harmonic_factor_B(cf, 1.0) - ref_B))
        assert errs_avg[1] <= errs_avg[0] / 4.0
        assert errs_B[1] <= errs_B[0] / 4.0
