"""Transport tests: subcriticality, coercivity, solvers, equivalences."""

import numpy as np
import pytest

from homokin.boltzmann import solve_separable_energy_model
from homokin.cell import PeriodicGrid
from homokin.transport import (
    ConfigurationError,
    OpticalParameters,
    TransportGrids,
    coercivity_test,
    hat_initial_data,
    kappa_bars,
    scattering_matrix,
    solve_characteristics_eps,
    solve_closed_kernel_transport,
    solve_two_scale_transport,
    subcriticality_check,
    transport_preset,
    windowed_weak_error,
    _mu_table,
)

GRIDS = TransportGrids()
SUB = transport_preset("transport-subcritical-1")
KAPPA0 = transport_preset("transport-kappa0")


class TestMuTable:
    def test_linear_kappa_reproduced_at_angle_gaps(self):
        # linear interpolation in mu is exact for kappa linear in mu
        grids = TransportGrids(n_omega=8, n_mu=16)
        fn = lambda mu, E, y: (0.5 + 0.25 * mu) * E * y
        E = grids.energy_nodes(6)
        y = np.linspace(0.1, 0.9, 6)
        mu = np.cos(grids.angles[:, None] - grids.angles[None, :])
        paired = _mu_table(fn, grids, E, y)
        assert paired.shape == (8, 8, 6)
        assert np.max(np.abs(paired - fn(mu[:, :, None], E, y))) < 1e-15
        y_cell = np.linspace(0.0, 1.0, 5)
        tensor = _mu_table(fn, grids, E[:, None], y_cell)
        assert tensor.shape == (8, 8, 6, 5)
        expect = fn(mu[:, :, None, None], E[:, None], y_cell)
        assert np.max(np.abs(tensor - expect)) < 1e-15


class TestKappaBars:
    def test_zero_kernel(self):
        bar, tilde = kappa_bars(KAPPA0, 0.125, GRIDS)
        assert np.max(np.abs(bar)) == 0.0
        assert np.max(np.abs(tilde)) == 0.0

    def test_isotropic_closed_form(self):
        # kappa1 = kappa2 = 1 on E in (0, 1): bar = 2 pi sqrt(E) * range
        params = OpticalParameters(
            sigma=lambda th, E, y: 2.0 + 0.0 * y,
            kappa1=lambda mu, E: np.ones_like(mu * E),
            kappa2=lambda mu, Ep, yp: np.ones_like(mu * Ep * yp),
        )
        grids = TransportGrids(e_min=0.0, e_max=1.0)
        bar, tilde = kappa_bars(params, 0.1, grids)
        expect = 2.0 * np.pi * np.sqrt(grids.energy_nodes())
        assert np.max(np.abs(bar - expect[None, :])) < 1e-12
        # tilde integrates sqrt(E') over the outgoing energy: constant
        expect_tilde = 2.0 * np.pi * np.mean(np.sqrt(grids.energy_nodes()))
        assert np.max(np.abs(tilde - expect_tilde)) < 1e-12

    def test_y_independent_kappa2_is_eps_independent(self):
        params = OpticalParameters(
            sigma=lambda th, E, y: 2.0 + 0.0 * y,
            kappa1=lambda mu, E: (1.0 + 0.5 * mu) / (2 * np.pi),
            kappa2=lambda mu, Ep, yp: 0.5 + 0.0 * yp,
        )
        a1, t1 = kappa_bars(params, 0.1, GRIDS)
        a2, t2 = kappa_bars(params, 0.025, GRIDS)
        assert np.max(np.abs(a1 - a2)) < 1e-14
        assert np.max(np.abs(t1 - t2)) < 1e-14


class TestSubcriticality:
    def test_kappa0_margin_is_min_sigma(self):
        margin = subcriticality_check(KAPPA0, 0.125, GRIDS)
        sig = KAPPA0.sigma_eps(GRIDS.angles, GRIDS.energy_nodes(), 0.125)
        assert abs(margin - float(np.min(sig))) < 1e-14

    def test_constant_sigma_on_upper_window(self):
        # kappa = 0 with flat sigma = 2 on E in [0.5, 1]: the margin is the
        # grid minimum of 2 sqrt(E), approached from sqrt(0.5)*2 as the
        # first cell center converges to the window edge
        params = OpticalParameters(
            sigma=lambda th, E, y: 2.0 + 0.0 * y,
            kappa1=KAPPA0.kappa1,
            kappa2=KAPPA0.kappa2,
        )
        grids = TransportGrids(e_min=0.5, e_max=1.0)
        n_e = 4096
        margin = subcriticality_check(params, 0.125, grids, n_e=n_e)
        first_node = grids.energy_nodes(n_e)[0]
        assert margin == 2.0 * np.sqrt(first_node)
        assert margin == pytest.approx(2.0 * np.sqrt(0.5), abs=1e-3)

    def test_kappa0_margin_matches_dense_sampling_oracle(self):
        # the continuous minimum of sqrt(E)(2 + sin(2 pi E/eps)/2) sits where
        # the sine dip closest to the window edge wins over the sqrt growth
        margin = subcriticality_check(KAPPA0, 0.125, GRIDS, n_e=4096)
        E = np.linspace(0.25, 1.0, 200001)
        oracle = np.min(np.sqrt(E) * (2.0 + 0.5 * np.sin(2 * np.pi * E / 0.125)))
        assert margin == pytest.approx(oracle, abs=1e-4)

    def test_subcritical_preset_has_positive_margin(self):
        assert subcriticality_check(SUB, 0.125, GRIDS) > 0.1

    def test_violating_configuration_flags_negative(self):
        params = OpticalParameters(
            sigma=lambda th, E, y: 0.1 + 0.0 * y,
            kappa1=lambda mu, E: np.ones_like(mu * E),
            kappa2=lambda mu, Ep, yp: np.ones_like(mu * Ep * yp),
        )
        assert subcriticality_check(params, 0.125, GRIDS) < 0.0

    def test_margin_scaling_inequality(self):
        # margin(2 sigma, kappa) >= margin(sigma, kappa) + min sigma_eps
        doubled = OpticalParameters(
            sigma=lambda th, E, y: 2.0 * SUB.sigma(th, E, y),
            kappa1=SUB.kappa1,
            kappa2=SUB.kappa2,
        )
        m1 = subcriticality_check(SUB, 0.125, GRIDS)
        m2 = subcriticality_check(doubled, 0.125, GRIDS)
        sig_min = float(np.min(SUB.sigma_eps(GRIDS.angles, GRIDS.energy_nodes(), 0.125)))
        assert m2 >= m1 + sig_min - 1e-12


class TestCoercivity:
    def test_quotient_dominates_margin(self):
        margin = subcriticality_check(SUB, 0.125, GRIDS)
        q = coercivity_test(SUB, 0.125, GRIDS, trials=100, seed=42)
        assert q >= margin - 1e-6

    def test_kappa0_quotient_at_least_min_sigma(self):
        sig = KAPPA0.sigma_eps(GRIDS.angles, GRIDS.energy_nodes(), 0.125)
        q = coercivity_test(KAPPA0, 0.125, GRIDS, trials=25, seed=7)
        assert q >= float(np.min(sig)) - 1e-12

    def test_constant_field_value(self):
        sig = SUB.sigma_eps(GRIDS.angles, GRIDS.energy_nodes(), 0.125).reshape(-1)
        K = scattering_matrix(SUB, 0.125, GRIDS)
        we = GRIDS.energy_weight()
        w = np.full(len(sig), GRIDS.angle_weight * we)
        f = np.ones(len(sig))
        expect = float((w * f) @ (sig * f - K @ f)) / float((w * f) @ f)
        # oracle recomputation with independent loops
        qf = sig - K.sum(axis=1)
        oracle = float((w * qf).sum() / w.sum())
        assert abs(expect - oracle) < 1e-12

    def test_deterministic_under_seed(self):
        q1 = coercivity_test(SUB, 0.125, GRIDS, trials=10, seed=3)
        q2 = coercivity_test(SUB, 0.125, GRIDS, trials=10, seed=3)
        assert q1 == q2


class TestCharacteristicsSolver:
    def test_kappa0_pure_decay(self):
        grids = TransportGrids(n_r=8, n_e=48)
        phi_in = hat_initial_data(0.5)
        eps = 0.125
        sol = solve_characteristics_eps(
            KAPPA0, phi_in, eps, grids, t_end=1.0, n_steps=20, store_full=True
        )
        y = np.mod(sol.energies / eps, 1.0)
        sig = KAPPA0.sigma_eps(grids.angles, sol.energies, eps)
        for i, rv in enumerate(sol.r_nodes):
            base = phi_in(rv, grids.angles[:, None], sol.energies[None, :], y[None, :])
            exact = base[None] * np.exp(-sol.times[:, None, None] * sig[None])
            assert np.max(np.abs(sol.values[:, i] - exact)) < 1e-8

    def test_linearity_in_initial_data(self):
        grids = TransportGrids(n_r=8, n_e=48)
        eps = 0.25
        sol1 = solve_characteristics_eps(
            SUB, hat_initial_data(0.5), eps, grids, t_end=0.5, n_steps=20,
            store_full=True,
        )

        def scaled(r, th, E, y):
            return 2.5 * hat_initial_data(0.5)(r, th, E, y)

        sol2 = solve_characteristics_eps(
            SUB, scaled, eps, grids, t_end=0.5, n_steps=20, store_full=True
        )
        assert np.max(np.abs(sol2.values - 2.5 * sol1.values)) < 1e-12

    def test_positivity_preserved(self):
        grids = TransportGrids(n_r=8, n_e=48)
        sol = solve_characteristics_eps(
            SUB, hat_initial_data(0.5), 0.125, grids, t_end=1.0, n_steps=50
        )
        assert sol.min_value >= 0.0

    def test_exterior_characteristics_rejected(self):
        with pytest.raises(ConfigurationError):
            solve_characteristics_eps(
                SUB, hat_initial_data(0.5), 0.25, GRIDS, t_end=5.0
            )

    def test_bad_window_count_rejected_before_setup(self):
        # the implicit step of test_singular_implicit_step_raises is singular,
        # but the window count is checked first
        grids = TransportGrids(n_r=8, n_omega=4)
        eps, t_end, n_steps, per_period = 0.25, 0.5, 20, 12
        energies = grids.energy_nodes(grids.eps_energy_count(eps, per_period))
        we = grids.energy_weight(len(energies))
        level = 2.0 / (t_end / n_steps * 2.0 * np.pi * we * np.sqrt(energies).sum())
        params = OpticalParameters(
            sigma=lambda th, E, y: 2.0 + 0.0 * y,
            kappa1=lambda mu, E: np.full_like(mu * E, level),
            kappa2=lambda mu, Ep, yp: np.ones_like(mu * Ep * yp),
        )
        with pytest.raises(ValueError, match="window count"):
            solve_characteristics_eps(
                params, hat_initial_data(0.5), eps, grids, t_end=t_end,
                n_steps=n_steps, nodes_per_period=per_period, n_windows=7,
            )

    def test_matches_energy_model_when_isotropic(self):
        # omega-blind configuration: kappa1 = 1/(2 pi), kappa2 = 1, sigma = 2
        params = OpticalParameters(
            sigma=lambda th, E, y: 2.0 + 0.0 * y,
            kappa1=lambda mu, E: np.full_like(mu * E, 1.0 / (2 * np.pi)),
            kappa2=lambda mu, Ep, yp: np.ones_like(mu * Ep * yp),
        )
        grids = TransportGrids(n_r=8, n_omega=8, n_e=64)

        def phi_in(r, th, E, y):
            shape = np.broadcast(r, th, E, y).shape
            hat = np.maximum(0.0, 1.0 - np.abs(r) / 0.5)
            return np.broadcast_to(hat * np.ones_like(E + y), shape).copy()

        t_end = 1.0
        sol = solve_characteristics_eps(
            params, phi_in, 0.5, grids, t_end, n_steps=4000, store_full=True
        )
        energies = sol.energies
        times, ref = solve_separable_energy_model(
            decay=2.0 * np.sqrt(energies),
            emit=np.sqrt(energies),
            collect=np.ones_like(energies),
            phi0=np.ones_like(energies),
            e_weight=grids.energy_weight(len(energies)),
            t_end=t_end,
            n_steps=1000,
        )
        hat0 = np.maximum(0.0, 1.0 - np.abs(sol.r_nodes[0]) / 0.5)
        got = sol.values[::4, 0, 0, :] / hat0
        assert np.max(np.abs(got - ref)) < 1e-6

    def test_matches_dense_oracle(self):
        # direct product-trapezoid sum with the dense kernel and one dense
        # solve per implicit step
        grids = TransportGrids(n_r=8, n_omega=4)
        phi_in = hat_initial_data(0.5)
        eps, t_end, n_steps, per_period = 0.25, 0.5, 20, 12
        sol = solve_characteristics_eps(
            SUB, phi_in, eps, grids, t_end=t_end, n_steps=n_steps,
            nodes_per_period=per_period, store_full=True,
        )
        n_e = grids.eps_energy_count(eps, per_period)
        energies = grids.energy_nodes(n_e)
        y = np.mod(energies / eps, 1.0)
        sig = SUB.sigma_eps(grids.angles, energies, eps).reshape(-1)
        K = scattering_matrix(SUB, eps, grids, n_e)
        dt = t_end / n_steps
        step = np.eye(len(sig)) - 0.5 * dt * K
        assert len(sol.r_nodes) == 2
        for i, rv in enumerate(sol.r_nodes):
            psi0 = phi_in(rv, grids.angles[:, None], energies[None, :], y[None, :])
            psis = [psi0.reshape(-1)]
            for n in range(1, n_steps + 1):
                hist = 0.5 * np.exp(-n * dt * sig) * (K @ psis[0])
                for j in range(1, n):
                    hist = hist + np.exp(-(n - j) * dt * sig) * (K @ psis[j])
                known = np.exp(-n * dt * sig) * psis[0] + dt * hist
                psis.append(np.linalg.solve(step, known))
            oracle = np.array(psis).reshape(sol.values[:, i].shape)
            assert np.max(np.abs(sol.values[:, i] - oracle)) < 1e-12

    def test_singular_implicit_step_raises(self):
        # isotropic kappa tuned so that (dt/2) R S has the eigenvalue 1
        grids = TransportGrids(n_r=8, n_omega=4)
        eps, t_end, n_steps, per_period = 0.25, 0.5, 20, 12
        energies = grids.energy_nodes(grids.eps_energy_count(eps, per_period))
        we = grids.energy_weight(len(energies))
        dt = t_end / n_steps
        level = 2.0 / (dt * 2.0 * np.pi * we * np.sqrt(energies).sum())
        params = OpticalParameters(
            sigma=lambda th, E, y: 2.0 + 0.0 * y,
            kappa1=lambda mu, E: np.full_like(mu * E, level),
            kappa2=lambda mu, Ep, yp: np.ones_like(mu * Ep * yp),
        )
        with pytest.raises(RuntimeError, match="singular"):
            solve_characteristics_eps(
                params, hat_initial_data(0.5), eps, grids, t_end=t_end,
                n_steps=n_steps, nodes_per_period=per_period,
            )

    def test_unresolved_implicit_step_raises(self):
        # the set-up of test_singular_implicit_step_raises with kappa x1.5:
        # (dt/2) R S has the eigenvalue 1.5, so the step is solvable but
        # flips the sign of the scattering growth
        grids = TransportGrids(n_r=8, n_omega=4)
        eps, t_end, n_steps, per_period = 0.25, 0.5, 20, 12
        energies = grids.energy_nodes(grids.eps_energy_count(eps, per_period))
        we = grids.energy_weight(len(energies))
        dt = t_end / n_steps
        level = 3.0 / (dt * 2.0 * np.pi * we * np.sqrt(energies).sum())
        params = OpticalParameters(
            sigma=lambda th, E, y: 2.0 + 0.0 * y,
            kappa1=lambda mu, E: np.full_like(mu * E, level),
            kappa2=lambda mu, Ep, yp: np.ones_like(mu * Ep * yp),
        )
        with pytest.raises(RuntimeError, match="spectral radius 1.5 >= 1"):
            solve_characteristics_eps(
                params, hat_initial_data(0.5), eps, grids, t_end=t_end,
                n_steps=n_steps, nodes_per_period=per_period,
            )


class TestTwoScaleTransport:
    def test_y_independent_data_has_zero_corrector(self):
        params = OpticalParameters(
            sigma=lambda th, E, y: 2.0 + 0.0 * y,
            kappa1=SUB.kappa1,
            kappa2=lambda mu, Ep, yp: 0.3 + 0.0 * yp,
        )

        def phi_in(r, th, E, y):
            shape = np.broadcast(r, th, E, y).shape
            hat = np.maximum(0.0, 1.0 - np.abs(r) / 0.5)
            return np.broadcast_to(hat * np.ones_like(y), shape).copy()

        grids = TransportGrids(n_r=8, n_omega=4, n_e=12, n_y=16)
        sol = solve_two_scale_transport(params, phi_in, grids, t_end=0.5, n_steps=100)
        assert np.max(np.abs(sol.rho.values)) < 1e-14
        assert sol.max_mean_rho < 1e-14

    def test_kappa0_two_valued_sigma_pointwise_average(self):
        params = OpticalParameters(
            sigma=lambda th, E, y: np.where(np.mod(y, 1.0) < 0.5, 1.0, 3.0),
            kappa1=KAPPA0.kappa1,
            kappa2=KAPPA0.kappa2,
        )
        phi_in = hat_initial_data(0.5)
        grids = TransportGrids(n_r=8, n_omega=4, n_e=12, n_y=64)
        sol = solve_two_scale_transport(params, phi_in, grids, t_end=1.0, n_steps=400)
        E = grids.energy_nodes()
        hats = np.maximum(0.0, 1.0 - np.abs(grids.r_nodes) / 0.5)
        sq = np.sqrt(E)
        # phi_in = hat(r)(1 + sin(2 pi y)): the sin part couples to sigma's
        # two-valued profile; the mean part relaxes as the two-point average
        t = sol.psi_hom.times[:, None]
        mean_decay = 0.5 * (np.exp(-sq * t) + np.exp(-3.0 * sq * t))
        sin_coupling = 0.0  # <sin * exp(-t sqrt(E) sigma)> for two-valued sigma
        yg = (np.arange(grids.n_y) + 0.5) / grids.n_y
        sig_y = np.where(yg < 0.5, 1.0, 3.0)
        osc = np.array(
            [
                np.mean(
                    np.sin(2 * np.pi * yg)
                    * np.exp(-tv * np.sqrt(E)[:, None] * sig_y[None, :]),
                    axis=1,
                )
                for tv in sol.psi_hom.times
            ]
        )
        expect = (mean_decay + osc)[:, None, None, :] * hats[None, :, None, None]
        got = np.moveaxis(sol.psi_hom.values, 1, 1)
        assert np.max(np.abs(got - expect)) < 1e-6

    def test_matches_dense_oracle(self):
        # direct product-trapezoid sum on the (w, E, y) grid with the dense
        # scattering matrix, each implicit step solved with the dense inverse
        # of I - (dt/2) K; sigma varies with (w, E) and kappa2 with y'
        params = OpticalParameters(
            sigma=lambda th, E, y: 2.0
            + (0.5 + 0.2 * np.cos(th)) * (1.0 + E) * np.sin(2 * np.pi * y),
            kappa1=SUB.kappa1,
            kappa2=lambda mu, Ep, yp: 0.6
            * (1.0 + 0.5 * np.cos(2 * np.pi * yp))
            * (1.0 + 0.25 * mu),
        )
        phi_in = hat_initial_data(0.5)
        grids = TransportGrids(n_omega=4, n_e=8, n_y=32, n_r=8)
        t_end, n_steps = 0.75, 150
        sol = solve_two_scale_transport(params, phi_in, grids, t_end, n_steps)

        E, we, aw = grids.energy_nodes(), grids.energy_weight(), grids.angle_weight
        y = PeriodicGrid(grids.n_y).nodes
        rate = (np.sqrt(E)[:, None] * params.sample_sigma(grids.angles, E, y)).ravel()
        k1 = _mu_table(params.kappa1, grids, E)
        k2y = _mu_table(params.kappa2, grids, E[:, None], y)
        # K[(v, E, y), (w, E', y')] = sqrt(E) aw k1[v, w, E] k2[v, w, E', y'] we wy
        K = np.einsum("E,vwE,vwfz,y->vEywfz", np.sqrt(E), k1, k2y, np.ones_like(y))
        K = K.reshape(len(rate), len(rate)) * aw * we / grids.n_y
        dt = t_end / n_steps
        step_inv = np.linalg.inv(np.eye(len(rate)) - 0.5 * dt * K)
        r = grids.r_nodes[:, None, None, None]
        phi0 = phi_in(r, grids.angles[:, None, None], E[:, None], y)
        phis = [phi0.reshape(len(grids.r_nodes), -1).T]  # (node, r)
        hist_terms = [0.5 * K @ phis[0]]
        decay = np.exp(-np.arange(n_steps + 1)[:, None, None] * dt * rate[:, None])
        for n in range(1, n_steps + 1):
            hist = sum(decay[n - j] * hist_terms[j] for j in range(n))
            known = decay[n] * phis[0] + dt * hist
            phis.append(step_inv @ known)
            hist_terms.append(K @ phis[-1])
        oracle = np.array(phis).T.reshape((len(grids.r_nodes),) + phi0.shape[1:] + (-1,))
        psis = np.moveaxis(oracle.mean(axis=3), -1, 0)
        assert np.max(np.abs(sol.psi_hom.values - psis)) <= 1e-13
        rho = oracle[..., -1] - psis[-1][..., None]
        assert np.max(np.abs(sol.rho.values[0] - rho)) <= 1e-13

    def test_zero_mean_constraint(self):
        grids = TransportGrids(n_r=8, n_omega=4, n_e=12, n_y=32)
        sol = solve_two_scale_transport(
            SUB, hat_initial_data(0.5), grids, t_end=0.5, n_steps=100
        )
        assert sol.max_mean_rho < 1e-10


class TestActiveSlices:
    def test_support_read_off_the_data(self):
        # a plain function carries no support attribute; its reach is
        # 0.5 + 0.01 from the outermost active r-cell, well inside r_box
        def phi_in(r, th, E, y):
            shape = np.broadcast(r, th, E, y).shape
            hat = np.maximum(0.0, 1.0 - np.abs(r) / 0.5)
            return np.broadcast_to(hat * (1.0 + np.sin(2 * np.pi * y)), shape).copy()

        grids = TransportGrids(n_omega=4, n_e=12, n_y=16, n_r=8)
        ts = solve_two_scale_transport(SUB, phi_in, grids, t_end=0.01, n_steps=2)
        ck = solve_closed_kernel_transport(SUB, phi_in, grids, t_end=0.01, n_steps=2)
        chars = solve_characteristics_eps(
            SUB, phi_in, 0.25, grids, t_end=0.01, n_steps=2, nodes_per_period=12
        )
        assert np.all(np.isfinite(ts.psi_hom.values))
        assert np.all(np.isfinite(ck.values))
        assert np.array_equal(chars.r_nodes, [-0.25, 0.25])

    def test_inactive_slices_neither_marched_nor_coupled(self):
        # same spacing 0.5, shared active nodes +-0.25; the wider box only
        # adds slices where the initial data vanishes
        narrow = TransportGrids(n_omega=4, n_e=12, n_y=16, n_r=8, r_box=2.0)
        wide = TransportGrids(n_omega=4, n_e=12, n_y=16, n_r=16, r_box=4.0)
        phi_in = hat_initial_data(0.5)
        hom, chars, closed = [], [], []
        for grids in (narrow, wide):
            ts = solve_two_scale_transport(SUB, phi_in, grids, t_end=0.5, n_steps=50)
            hom.append((ts.psi_hom.values, ts.rho.values, ts.max_mean_rho))
            closed.append(
                solve_closed_kernel_transport(
                    SUB, phi_in, grids, t_end=0.5, n_steps=50
                ).values
            )
            chars.append(
                solve_characteristics_eps(
                    SUB, phi_in, 0.25, grids, t_end=0.5, n_steps=50,
                    nodes_per_period=12, store_full=True,
                )
            )
        idx = [np.nonzero(np.abs(g.r_nodes) < 0.5)[0] for g in (narrow, wide)]
        assert np.array_equal(narrow.r_nodes[idx[0]], wide.r_nodes[idx[1]])
        for field in (0, 1):
            a, b = hom[0][field], hom[1][field]
            assert np.array_equal(a[:, idx[0]], b[:, idx[1]])
            assert not np.any(np.delete(a, idx[0], axis=1))
            assert not np.any(np.delete(b, idx[1], axis=1))
        assert hom[0][2] == hom[1][2]
        assert np.array_equal(closed[0][:, idx[0]], closed[1][:, idx[1]])
        assert not np.any(np.delete(closed[1], idx[1], axis=1))
        assert np.array_equal(chars[0].r_nodes, chars[1].r_nodes)
        assert np.array_equal(chars[0].values, chars[1].values)


class TestClosedKernelEquivalence:
    def test_routes_agree(self):
        grids = TransportGrids(n_omega=4, n_e=8, n_y=32, n_r=8)
        phi_in = hat_initial_data(0.5)
        ts = solve_two_scale_transport(SUB, phi_in, grids, t_end=0.75, n_steps=600)
        ck = solve_closed_kernel_transport(SUB, phi_in, grids, t_end=0.75, n_steps=600)
        assert np.max(np.abs(ts.psi_hom.values - ck.values)) < 1e-6

    def test_stiff_sigma_stays_bounded(self):
        # sqrt(E) sigma up to 2500, about ten times what an RK4 step of this
        # size resolves: the exact decay factors keep both routes bounded.
        # At this step the two routes are not compared; they differ by O(1)
        stiff = OpticalParameters(
            sigma=lambda th, E, y: 1000.0 * SUB.sigma(th, E, y),
            kappa1=SUB.kappa1,
            kappa2=SUB.kappa2,
        )
        grids = TransportGrids(n_omega=4, n_e=8, n_y=16, n_r=8)
        ck = solve_closed_kernel_transport(
            stiff, hat_initial_data(0.5), grids, t_end=0.2, n_steps=50
        )
        ts = solve_two_scale_transport(
            stiff, hat_initial_data(0.5), grids, t_end=0.2, n_steps=50
        )
        for values in (ck.values, ts.psi_hom.values):
            assert np.all(np.isfinite(values))
            assert np.max(np.abs(values)) <= 0.5

    def test_zero_cross_sections_leave_data_unchanged(self):
        # sigma = kappa = 0: psi_hom stays the y-mean hat(r) of the data,
        # and every decay factor of the zero rate is exactly 1
        free = OpticalParameters(
            sigma=lambda th, E, y: 0.0 * y,
            kappa1=KAPPA0.kappa1,
            kappa2=KAPPA0.kappa2,
        )
        grids = TransportGrids(n_omega=4, n_e=8, n_y=16, n_r=8)
        ck = solve_closed_kernel_transport(
            free, hat_initial_data(0.5), grids, t_end=0.2, n_steps=10
        )
        hat = np.maximum(0.0, 1.0 - np.abs(grids.r_nodes) / 0.5)
        assert np.max(np.abs(ck.values - hat[None, :, None, None])) < 1e-14

    def test_divergent_coupling_raises(self):
        # scattering scaled so the implicit coupling is not a contraction
        strong = OpticalParameters(
            sigma=SUB.sigma,
            kappa1=SUB.kappa1,
            kappa2=lambda mu, Ep, yp: 1000.0 * SUB.kappa2(mu, Ep, yp),
        )
        grids = TransportGrids(n_omega=4, n_e=8, n_y=16, n_r=8)
        with pytest.raises(RuntimeError, match="spectral radius"):
            solve_closed_kernel_transport(
                strong, hat_initial_data(0.5), grids, t_end=0.5, n_steps=10
            )

    @pytest.mark.parametrize("radius", [0.5, 1.5])
    def test_unresolved_step_raises(self, radius):
        # flat sigma leaves kd = kc = 0, so the implicit coupling is
        # C = (dt/2) we aw sum_E' sqrt(E') kappa1 kappa2 / (1 + dt sqrt(E')),
        # one value in every entry, with spectral radius n_omega C
        grids = TransportGrids(n_omega=4, n_e=8, n_y=16, n_r=8)
        t_end, n_steps = 0.5, 10
        dt = t_end / n_steps
        sqrtE = np.sqrt(grids.energy_nodes())
        entry = 0.5 * dt * grids.energy_weight() * grids.angle_weight * np.sum(
            sqrtE / (1.0 + dt * sqrtE)
        )
        level = radius / (grids.n_omega * entry)
        params = OpticalParameters(
            sigma=lambda th, E, y: 2.0 + 0.0 * y,
            kappa1=lambda mu, E: np.full_like(mu * E, level),
            kappa2=lambda mu, Ep, yp: np.ones_like(mu * Ep * yp),
        )
        run = lambda: solve_closed_kernel_transport(
            params, hat_initial_data(0.5), grids, t_end=t_end, n_steps=n_steps
        )
        if radius < 1.0:
            assert np.all(np.isfinite(run().values))
        else:
            with pytest.raises(RuntimeError, match="spectral radius 1.5 >= 1"):
                run()

    def test_remainder_off_the_poles(self):
        # cos(2 pi y) is odd about y = 1/4 where the sine sigma is even, so
        # the data has a part that is mean-free on each level set of sigma;
        # it decays pointwise and reaches psi_hom through y-dependent kappa2
        params = OpticalParameters(
            sigma=SUB.sigma,
            kappa1=SUB.kappa1,
            kappa2=lambda mu, Ep, yp: 0.6 * (1.0 + 0.5 * np.cos(2 * np.pi * yp)),
        )

        def phi_in(r, th, E, y):
            shape = np.broadcast(r, th, E, y).shape
            hat = np.maximum(0.0, 1.0 - np.abs(r) / 0.5)
            return np.broadcast_to(hat * (1.0 + np.cos(2 * np.pi * y)), shape).copy()

        self._assert_routes_agree(params, phi_in)

    def test_sigma_depending_on_angle_and_energy(self):
        # sigma varies with (w, E): 32 distinct cell profiles on this grid
        params = OpticalParameters(
            sigma=lambda th, E, y: 2.0
            + (0.5 + 0.2 * np.cos(th)) * (1.0 + E) * np.sin(2 * np.pi * y),
            kappa1=SUB.kappa1,
            kappa2=SUB.kappa2,
        )
        self._assert_routes_agree(params, hat_initial_data(0.5))

    def test_two_valued_sigma(self):
        # a single pole; sin(2 pi y) is not constant on the two level sets
        params = OpticalParameters(
            sigma=lambda th, E, y: np.where(np.mod(y, 1.0) < 0.5, 1.0, 3.0),
            kappa1=SUB.kappa1,
            kappa2=SUB.kappa2,
        )
        self._assert_routes_agree(params, hat_initial_data(0.5))

    @staticmethod
    def _assert_routes_agree(params, phi_in):
        grids = TransportGrids(n_omega=4, n_e=8, n_y=32, n_r=8)
        ts = solve_two_scale_transport(params, phi_in, grids, t_end=0.75, n_steps=600)
        ck = solve_closed_kernel_transport(params, phi_in, grids, t_end=0.75, n_steps=600)
        assert np.max(np.abs(ts.psi_hom.values - ck.values)) < 1e-6


class TestWeakSweep:
    def test_windowed_error_halves(self):
        grids = TransportGrids(n_e=48, n_r=16)
        phi_in = hat_initial_data(0.5)
        hom = solve_two_scale_transport(SUB, phi_in, grids, t_end=1.0, n_steps=150)
        errs = []
        sups = []
        for eps in (1 / 8, 1 / 16):
            sol = solve_characteristics_eps(
                SUB, phi_in, eps, grids, t_end=1.0, n_steps=150
            )
            errs.append(windowed_weak_error(sol, hom.psi_hom))
            sups.append(sol.sup_l2)
        assert 1.5 <= errs[0] / errs[1] <= 3.0
        assert max(sups) / min(sups) < 1.05  # uniform a-priori bound
