"""Transport tests: subcriticality, coercivity, solvers, equivalences."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homokin.cell import PeriodicGrid
from homokin import transport
from homokin.harness import ExperimentConfig, run_experiment
from homokin.transport import (
    OpticalParameters,
    TransportGrids,
    coercivity_test,
    hat_initial_data,
    solve_characteristics_eps,
    solve_two_scale_transport,
    subcriticality_check,
    transport_preset,
    windowed_weak_error,
    _bars,
    _energy_rank,
    _eps_set_up,
    _expand,
    _gap_index,
    _initial_slices,
    _march,
    _mu_table,
    _rank_rows,
    _set_up,
)
from oracles import (
    GapScattering,
    PairScattering,
    characteristics_field,
    dense_psi_hom,
    pair_mu_table,
    sample_sigma,
    scattering_matrix,
    sigma_eps,
    solve_closed_kernel_transport,
    solve_separable_energy_model,
)

GRIDS = TransportGrids()
SUB = transport_preset("transport-subcritical-1")
KAPPA0 = transport_preset("transport-kappa0")


def assert_exact_decay(phi_in, grids, eps, t_end, n_steps=200):
    """A kappa = 0 run: each active slice of the field is phi_in
    e^{-t sigma_eps}, to 1e-8, and the solver's minimum is the field's."""
    sol = solve_characteristics_eps(KAPPA0, phi_in, eps, grids, t_end=t_end, n_steps=n_steps)
    field = characteristics_field(KAPPA0, phi_in, eps, grids, t_end=t_end, n_steps=n_steps)
    y = np.mod(sol.energies / eps, 1.0)
    sig = sigma_eps(KAPPA0, grids.angles, sol.energies, eps)
    for i, rv in enumerate(sol.r_nodes):
        base = phi_in(rv, grids.angles[:, None], sol.energies[None, :], y[None, :])
        exact = base[None] * np.exp(-sol.times[:, None, None] * sig[None])
        assert np.max(np.abs(field[:, i] - exact)) < 1e-8
    assert sol.min_value == field.min()
    return sol


def kappa_rates(params, eps, grids, n_e=None):
    """kappa_bar(E) and kappa_tilde(E) of :func:`_bars` on the checks' tables."""
    energies, _, k1, k2, _ = _eps_set_up(params, grids, eps, n_e)
    return _bars(grids, energies, k1, k2)


class TestMuTable:
    def test_linear_kappa_reproduced_at_angle_gaps(self):
        # the table holds one row per angle gap, read per pair through the
        # index; the pair's cosine and the gap's differ only by rounding
        grids = TransportGrids(n_omega=8)
        fn = lambda mu, E, y: (0.5 + 0.25 * mu) * E * y
        E = grids.energy_nodes(6)
        y = np.linspace(0.1, 0.9, 6)
        mu = np.cos(grids.angles[:, None] - grids.angles[None, :])
        gap = _gap_index(grids.n_omega)
        paired = _mu_table(fn, grids, E, y)
        assert paired.shape == (5, 6)
        assert np.max(np.abs(paired[gap] - fn(mu[:, :, None], E, y))) < 1e-15
        y_cell = np.linspace(0.0, 1.0, 5)
        tensor = _mu_table(fn, grids, E[:, None], y_cell)
        assert tensor.shape == (5, 6, 5)
        expect = fn(mu[:, :, None, None], E[:, None], y_cell)
        assert np.max(np.abs(tensor[gap] - expect)) < 1e-15

    @given(st.integers(2, 24), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_calls_fn_once_at_the_gap_cosines(self, n_omega, seed, mu_blind):
        # fn is called once, with exactly the n_omega//2 + 1 gap cosines,
        # and the table is its output bitwise; an output that does not
        # depend on mu, as the presets' kappa2, is broadcast over the gaps
        grids = TransportGrids(n_omega=n_omega)
        a = np.random.default_rng(seed).uniform(0.1, 1.0, 3)
        calls = []

        def fn(mu, E, y):
            out = (a[0] + a[1] * np.cos(3.0 * mu)) * (1.0 + E * np.sin(a[2] * y + mu))
            out = out[0] if mu_blind else out
            calls.append((mu.copy(), out.copy()))
            return out

        E, y = grids.energy_nodes(5)[:, None], np.linspace(0.0, 1.0, 3)
        got = _mu_table(fn, grids, E, y)
        n_gap = n_omega // 2 + 1
        assert len(calls) == 1
        mu, out = calls[0]
        assert mu.shape == (n_gap, 1, 1)
        assert np.array_equal(mu[:, 0, 0], np.cos(2.0 * np.pi * np.arange(n_gap) / n_omega))
        assert got.shape == (n_gap, 5, 3)
        assert np.array_equal(got, np.broadcast_to(out, got.shape))


@st.composite
def scattering_data(draw):
    """Grids with odd and even n_omega, kappa nonlinear in mu, kappa2 varying
    with E' and y', a field and an angle-pair field of rank 1-3 rows, and a
    positive scale, the reduce weight or eps."""
    n_omega = draw(st.integers(2, 24))
    grids = TransportGrids(n_omega=n_omega)
    n_e, n_y = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    rank = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b = rng.uniform(0.1, 1.0, 4), rng.uniform(0.1, 1.0, 4)
    params = OpticalParameters(
        sigma=lambda th, E, y: 2.0 + 0.0 * y,
        kappa1=lambda mu, E: a[0] + a[1] * mu**2 + a[2] * np.exp(a[3] * mu) * (1.0 + E),
        kappa2=lambda mu, Ep, yp: (b[0] + b[1] * np.cos(3.0 * mu))
        * (1.0 + b[2] * Ep * Ep)
        * (1.0 + 0.5 * np.sin(2 * np.pi * (yp + b[3] * mu))),
    )
    energies = grids.energy_nodes(n_e)
    y = rng.uniform(0.0, 1.0, n_y)
    f = rng.standard_normal((rank, n_omega, n_e, n_y))
    g = rng.standard_normal((rank, n_omega, n_omega))
    return grids, params, energies, y, f, g, rng.uniform(0.1, 2.0)


PEAK_NODES = 64


def _peak_table(fn, grids, *args):
    """max of |fn(mu, *args)| over PEAK_NODES uniform mu in [-1, 1], per angle pair.

    The magnitude that the gates scale: |fn| at the cosine a table entry
    is read at, up to the variation of fn between two grid nodes.
    """
    rest = np.broadcast(*args).shape
    mu = np.linspace(-1.0, 1.0, PEAK_NODES).reshape((-1,) + (1,) * len(rest))
    peak = np.abs(fn(mu, *args) * np.ones((PEAK_NODES,) + rest)).max(axis=0)
    return np.broadcast_to(peak, (grids.n_omega,) * 2 + rest)


class TestGapScattering:
    """Tables per angle gap against the angle-pair oracle of tests/oracles.py.

    The gap tables are read through GapScattering, the reference that the
    energy-rank factors are checked against.  The pair table reads kappa at
    the cosine of the difference of two angle nodes, the gap table at that
    of one node; both round, so every gate is 16 eps per summed term plus
    16 x 16 eps for the cosine, scaled by the same operation on the peak
    tables and absolute values.
    """

    @staticmethod
    def _gate(n_terms, magnitude):
        return 16.0 * np.finfo(float).eps * (16 + n_terms) * magnitude

    @given(scattering_data())
    @settings(max_examples=60, deadline=None)
    def test_reduce_spread_matrix_match_pair_tables(self, data):
        grids, params, energies, y, f, g, weight = data
        k1 = _mu_table(params.kappa1, grids, energies)
        k2 = _mu_table(params.kappa2, grids, energies[:, None], y)
        p1 = pair_mu_table(params.kappa1, grids, energies)
        p2 = pair_mu_table(params.kappa2, grids, energies[:, None], y)
        peak2 = _peak_table(params.kappa2, grids, energies[:, None], y)
        assert k1.shape == (grids.n_omega // 2 + 1, len(energies))
        gaps = GapScattering(grids, energies, k1)
        pair = PairScattering(grids, energies, p1)
        peak = PairScattering(grids, energies, _peak_table(params.kappa1, grids, energies))
        n_t = f[0, 0].size

        got, want = gaps.reduce(k2, f, weight), pair.reduce(p2, f, weight)
        bound = pair.reduce(peak2, np.abs(f), weight)
        assert np.all(np.abs(got - want) <= self._gate(n_t, bound))

        got, want = gaps.spread(g), pair.spread(g)
        bound = peak.spread(np.abs(g))
        assert np.all(np.abs(got - want) <= self._gate(grids.n_omega, bound))

        got = gaps.matrix(k2.sum(axis=-1), weight)
        want = pair.matrix(p2.sum(axis=-1), weight)
        bound = peak.matrix(peak2.sum(axis=-1), weight)
        assert np.all(np.abs(got - want) <= self._gate(n_t, bound))

    @given(scattering_data())
    @settings(max_examples=30, deadline=None)
    def test_kappa_bars_match_pair_tables(self, data):
        grids, params, energies, _, _, _, eps = data
        bar, tilde = kappa_rates(params, eps, grids, len(energies))
        y = np.mod(energies / eps, 1.0)
        we, aw = grids.energy_weight(len(energies)), grids.angle_weight
        sqrtE = np.sqrt(energies)

        def rates(k1, k2):
            # (v, w, E) terms of bar and tilde, summed over w by the caller
            t_bar = sqrtE * aw * k1 * (we * k2.sum(axis=2))[..., None]
            t_tilde = aw * (we * np.einsum("vwe,e->vw", k1, sqrtE))[..., None] * k2
            return t_bar, t_tilde

        pairs = rates(
            pair_mu_table(params.kappa1, grids, energies),
            pair_mu_table(params.kappa2, grids, energies, y),
        )
        peaks = rates(
            _peak_table(params.kappa1, grids, energies),
            _peak_table(params.kappa2, grids, energies, y),
        )
        n_terms = grids.n_omega * len(energies)
        for got, terms, peak in zip((bar, tilde), pairs, peaks):
            gate = self._gate(n_terms, peak.sum(axis=1))
            assert np.all(np.abs(got - terms.sum(axis=1)) <= gate)


class TestKappaBars:
    def test_zero_kernel(self):
        bar, tilde = kappa_rates(KAPPA0, 0.125, GRIDS)
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
        bar, tilde = kappa_rates(params, 0.1, grids)
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
        a1, t1 = kappa_rates(params, 0.1, GRIDS)
        a2, t2 = kappa_rates(params, 0.025, GRIDS)
        assert np.max(np.abs(a1 - a2)) < 1e-14
        assert np.max(np.abs(t1 - t2)) < 1e-14


class TestSubcriticality:
    def test_kappa0_margin_is_min_sigma(self):
        margin = subcriticality_check(KAPPA0, 0.125, GRIDS)
        sig = sigma_eps(KAPPA0, GRIDS.angles, GRIDS.energy_nodes(), 0.125)
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
        sig_min = float(
            np.min(sigma_eps(SUB, GRIDS.angles, GRIDS.energy_nodes(), 0.125))
        )
        assert m2 >= m1 + sig_min - 1e-12


class TestCoercivity:
    def test_quotient_dominates_margin(self):
        margin = subcriticality_check(SUB, 0.125, GRIDS)
        q = coercivity_test(SUB, 0.125, GRIDS)
        assert q >= margin - 1e-6

    def test_kappa0_quotient_at_least_min_sigma(self):
        sig = sigma_eps(KAPPA0, GRIDS.angles, GRIDS.energy_nodes(), 0.125)
        q = coercivity_test(KAPPA0, 0.125, GRIDS)
        assert q >= float(np.min(sig)) - 1e-12

    @pytest.mark.parametrize("eps", [0.125, 0.0625, 1 / 80.1])
    def test_kappa0_quotient_is_min_sigma(self, eps):
        # K = 0: every mode block is diag(sigma_eps), whose least eigenvalue
        # is its least entry
        sig = sigma_eps(KAPPA0, GRIDS.angles, GRIDS.energy_nodes(), eps)
        assert coercivity_test(KAPPA0, eps, GRIDS) == float(np.min(sig))

    def test_angle_dependent_sigma_raises(self):
        tilted = OpticalParameters(
            sigma=lambda th, E, y: 2.0 + 0.1 * np.cos(th) + 0.0 * y,
            kappa1=SUB.kappa1,
            kappa2=SUB.kappa2,
        )
        with pytest.raises(ValueError, match="does not depend on angle"):
            coercivity_test(tilted, 0.125, GRIDS)

    def test_constant_field_value(self):
        sig = sigma_eps(SUB, GRIDS.angles, GRIDS.energy_nodes(), 0.125).reshape(-1)
        K = scattering_matrix(SUB, 0.125, GRIDS)
        we = GRIDS.energy_weight()
        w = np.full(len(sig), GRIDS.angle_weight * we)
        f = np.ones(len(sig))
        expect = float((w * f) @ (sig * f - K @ f)) / float((w * f) @ f)
        # oracle recomputation with independent loops
        qf = sig - K.sum(axis=1)
        oracle = float((w * qf).sum() / w.sum())
        assert abs(expect - oracle) < 1e-12


@pytest.mark.parametrize("eps", [0.0, -0.1])
@pytest.mark.parametrize(
    "check",
    [
        subcriticality_check,
        coercivity_test,
        lambda p, e, g: solve_characteristics_eps(p, hat_initial_data(0.5), e, g),
        lambda p, e, g: g.eps_energy_count(e),
        lambda p, e, g: _eps_set_up(p, g, e),
    ],
    ids=[
        "subcriticality_check", "coercivity_test", "characteristics",
        "eps_energy_count", "eps_set_up",
    ],
)
def test_nonpositive_epsilon_raises(check, eps):
    with pytest.raises(ValueError, match="epsilon must be positive"):
        check(SUB, eps, GRIDS)


@pytest.mark.parametrize(
    "eps, per_period", [(1000.0, 100), (0.1, 0), (0.1, -5)], ids=["large-eps", "zero", "negative"]
)
def test_empty_eps_grid_raises(eps, per_period):
    # 0.75 * 100 / 1000 rounds to 0 nodes; each route that builds the eps
    # grid raises before it divides by the node count
    with pytest.raises(ValueError, match="need at least one"):
        GRIDS.eps_energy_count(eps, per_period)
    with pytest.raises(ValueError, match="need at least one"):
        _eps_set_up(SUB, GRIDS, eps, nodes_per_period=per_period)
    with pytest.raises(ValueError, match="need at least one"):
        solve_characteristics_eps(
            SUB, hat_initial_data(0.5), eps, GRIDS, nodes_per_period=per_period
        )


@pytest.mark.parametrize("n_e", [0, -1])
@pytest.mark.parametrize("check", [subcriticality_check, coercivity_test])
def test_empty_reference_grid_raises(check, n_e):
    # an explicit n_e below one raises, naming it, before any division by it
    with pytest.raises(ValueError, match=f"n={n_e}"):
        check(SUB, 0.1, GRIDS, n_e=n_e)
    with pytest.raises(ValueError, match=f"n={n_e}"):
        GRIDS.energy_weight(n_e)


@st.composite
def optical_data(draw, angle_blind=False):
    """Grids, random optical data with sigma > 0, kappa1 >= 0 and
    kappa2 >= 0, an eps, and a seeded trial count.  sigma has a
    cos(theta) term unless ``angle_blind``."""
    grids = TransportGrids(
        n_omega=draw(st.integers(2, 8)),
        n_e=draw(st.integers(2, 10)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s, a, b = rng.uniform(0.1, 1.0, 4), rng.uniform(0.0, 1.0, 3), rng.uniform(0.0, 1.0, 3)
    tilt = 0.0 if angle_blind else 1.0
    params = OpticalParameters(
        sigma=lambda th, E, y: s[0]
        + s[1] * (1.0 + tilt * np.cos(th + 2 * np.pi * s[2])) * E
        + s[3] * (1.0 + np.sin(2 * np.pi * y)),
        kappa1=lambda mu, E: a[0] + a[1] * mu**2 + a[2] * (1.0 + mu) * E,
        kappa2=lambda mu, Ep, yp: (b[0] + b[1] * (1.0 - mu))
        * (1.0 + np.sin(2 * np.pi * (yp + b[2]))),
    )
    eps = draw(st.floats(0.01, 1.0))
    return grids, params, eps, draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 8))


@st.composite
def ranked_kernels(draw, angle_blind=False, signed=False):
    """kappa1(mu, E) and kappa2(mu, E', y') as sums of k1 and k2 terms
    T_m(mu) g_m, m < k, with T_m the Chebyshev polynomials and g_m cosines
    in E of frequency m (times a y'-profile for kappa2), so that their gap
    tables have energy rank k1 and k2, up to the gap count n_omega//2 + 1;
    an eps grid of 12 to 36 energy nodes and a cell of 2 to 8.  sigma has
    a cos(theta) term unless ``angle_blind``.  The kernels are positive
    unless ``signed``, which drops their constant offsets and scales the
    terms to 1, so that K takes either sign."""
    n_omega = draw(st.integers(2, 7))
    n_gap = n_omega // 2 + 1
    ranks = [draw(st.integers(1, n_gap)), draw(st.integers(1, n_gap))]
    grids = TransportGrids(
        n_omega=n_omega, n_e=draw(st.integers(n_gap, 6)), n_y=draw(st.integers(2, 8)), n_r=8
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b = (rng.uniform(0.5, 1.0, k) * rng.choice([-1.0, 1.0], k) for k in ranks)
    shift = rng.uniform(0.0, 1.0, ranks[1])

    def term(m, mu, E):
        x = (E - grids.e_min) / (grids.e_max - grids.e_min)
        return np.cos(m * np.arccos(np.clip(mu, -1.0, 1.0))) * np.cos(np.pi * m * x)

    tilt = 0.0 if angle_blind else 0.2
    (o1, w1), (o2, w2) = ((0.0, 1.0), (0.0, 1.0)) if signed else ((0.3, 0.05), (0.6, 0.1))
    params = OpticalParameters(
        sigma=lambda th, E, y: 2.0 + (0.5 + tilt * np.cos(th)) * np.sin(2 * np.pi * y),
        kappa1=lambda mu, E: o1 + w1 * sum(c * term(m, mu, E) for m, c in enumerate(a)),
        kappa2=lambda mu, Ep, yp: o2 + w2 * sum(
            c * term(m, mu, Ep) * (1.0 + 0.5 * np.sin(2 * np.pi * (yp + shift[m])))
            for m, c in enumerate(b)
        ),
    )
    eps, per_period = draw(st.sampled_from((0.25, 0.5))), draw(st.sampled_from((8, 12)))
    return grids, params, ranks, eps, per_period


def dense_q(params, eps, grids, n_e=None):
    """Q = sigma_eps - K from the dense matrix of tests/oracles.py, sigma_eps,
    K, and the gate of Rayleigh quotients: 1e-13 relative to max sigma_eps
    + ||K||_2, which bounds them."""
    K = scattering_matrix(params, eps, grids, n_e)
    sig = sigma_eps(params, grids.angles, grids.energy_nodes(n_e), eps).reshape(-1)
    gate = 1e-13 * (np.max(np.abs(sig)) + np.linalg.norm(K, 2))
    return np.diag(sig) - K, sig, K, gate


def assert_checks_match_dense_kernel(params, eps, grids, seed, trials, angle_blind, n_e=None):
    """The checks against the dense matrix of tests/oracles.py.

    For angle-blind sigma, the minimum Rayleigh quotient is the least
    eigenvalue of the symmetric part of the dense Q, and so at most each
    of ``trials`` seeded trial quotients, both within the gate of
    :func:`dense_q`.  A sigma that depends on angle raises ValueError.
    The rates, sums of nonnegative terms, are gated at 1e-13 relative to
    themselves.
    """
    Q, sig, K, gate = dense_q(params, eps, grids, n_e)
    if angle_blind:
        exact = np.linalg.eigvalsh(0.5 * (Q + Q.T))[0]
        rng = np.random.default_rng(seed)
        F = [rng.standard_normal(len(sig)) for _ in range(trials)]  # one draw a trial
        sampled = np.array([(f @ (Q @ f)) / (f @ f) for f in F])
        got = coercivity_test(params, eps, grids, n_e)
        assert abs(got - exact) <= gate
        assert np.all(got <= sampled + gate)
    else:
        with pytest.raises(ValueError, match="does not depend on angle"):
            coercivity_test(params, eps, grids, n_e)

    bar, tilde = kappa_rates(params, eps, grids, n_e)
    for got, want in ((bar, K.sum(axis=1)), (tilde, K.sum(axis=0))):
        want = want.reshape(grids.n_omega, -1)  # (w, E): the rates are angle-blind
        assert np.all(np.abs(got - want) <= 1e-13 * want)
    margin = min(np.min(sig - K.sum(axis=1)), np.min(sig - K.sum(axis=0)))
    assert abs(subcriticality_check(params, eps, grids, n_e) - margin) <= gate


class TestChecksAgainstDenseKernel:
    """The checks apply K through the energy-rank factors of the march;
    the dense kernel matrix is the oracle."""

    @given(st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_quotients_and_rates_match_dense_kernel(self, angle_blind, data):
        grids, params, eps, seed, trials = data.draw(optical_data(angle_blind))
        assert_checks_match_dense_kernel(params, eps, grids, seed, trials, angle_blind)

    @given(st.booleans(), st.data(), st.integers(0, 2**32 - 1), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_quotients_and_rates_match_dense_kernel_at_higher_rank(
        self, angle_blind, data, seed, trials
    ):
        # optical_data's kappa2 tables have energy rank one; these reach the
        # gap count, on the eps grid of the characteristics solver
        grids, params, ranks, eps, per_period = data.draw(ranked_kernels(angle_blind))
        n_e = grids.eps_energy_count(eps, per_period)
        k1, k2 = _eps_set_up(params, grids, eps, n_e)[2:4]
        assert [len(_rank_rows(t)[1]) for t in (k1, k2)] == ranks
        assert_checks_match_dense_kernel(
            params, eps, grids, seed, trials, angle_blind, n_e
        )

    @given(ranked_kernels(angle_blind=True, signed=True))
    @settings(max_examples=40, deadline=None)
    def test_exact_minimum_with_signed_kernels(self, data):
        # a nonnegative kernel has its least block at m = 0, since |K_m| <=
        # K_0 entrywise; kernels of either sign reach the other modes
        grids, params, _, eps, per_period = data
        n_e = grids.eps_energy_count(eps, per_period)
        Q, _, _, gate = dense_q(params, eps, grids, n_e)
        exact = np.linalg.eigvalsh(0.5 * (Q + Q.T))[0]
        assert abs(coercivity_test(params, eps, grids, n_e) - exact) <= gate

    @pytest.mark.parametrize("n_omega", [5, 16])
    def test_minimum_in_the_first_mode(self, n_omega):
        # kappa1 = mu sums to zero over the circle, so the m = 0 block is
        # diag(sigma_eps) and the scattering lowers only the m = 1 block
        params = OpticalParameters(
            sigma=SUB.sigma, kappa1=lambda mu, E: mu + 0.0 * E, kappa2=SUB.kappa2
        )
        grids = TransportGrids(n_omega=n_omega)
        Q, sig, _, gate = dense_q(params, 0.125, grids)
        got = coercivity_test(params, 0.125, grids)
        assert abs(got - np.linalg.eigvalsh(0.5 * (Q + Q.T))[0]) <= gate
        assert got < np.min(sig) - 0.1


def tilted_data(r, th, E, y):
    """hat(r)(1 + sin 2 pi y)(1 + 0.5 cos theta): the CLI's data tilted in angle."""
    return hat_initial_data(0.5)(r, th, E, y) * (1.0 + 0.5 * np.cos(th))


def assert_chars_match_dense_oracle(
    params, grids, eps, per_period, t_end=0.5, n_steps=20, phi_in=hat_initial_data(0.5)
):
    """The march's field against a direct product-trapezoid sum with the
    dense kernel and one dense solve per implicit step, to 1e-12; the
    solver's windowed averages, L2 norm and minimum are read off the sum."""
    sol = solve_characteristics_eps(
        params, phi_in, eps, grids, t_end=t_end, n_steps=n_steps, nodes_per_period=per_period
    )
    got = characteristics_field(
        params, phi_in, eps, grids, t_end=t_end, n_steps=n_steps, nodes_per_period=per_period
    )
    n_e = grids.eps_energy_count(eps, per_period)
    energies = grids.energy_nodes(n_e)
    y = np.mod(energies / eps, 1.0)
    sig = sigma_eps(params, grids.angles, energies, eps).reshape(-1)
    K = scattering_matrix(params, eps, grids, n_e)
    dt = t_end / n_steps
    step = np.eye(len(sig)) - 0.5 * dt * K
    assert len(sol.r_nodes) == 2
    oracles = []
    for i, rv in enumerate(sol.r_nodes):
        psi0 = phi_in(rv, grids.angles[:, None], energies[None, :], y[None, :])
        psis = [psi0.reshape(-1)]
        for n in range(1, n_steps + 1):
            hist = 0.5 * np.exp(-n * dt * sig) * (K @ psis[0])
            for j in range(1, n):
                hist = hist + np.exp(-(n - j) * dt * sig) * (K @ psis[j])
            known = np.exp(-n * dt * sig) * psis[0] + dt * hist
            psis.append(np.linalg.solve(step, known))
        oracle = np.array(psis).reshape(got[:, i].shape)
        assert np.max(np.abs(got[:, i] - oracle)) < 1e-12
        oracles.append(oracle)
    field = np.stack(oracles, axis=1)
    windows = field.reshape(field.shape[:-1] + (sol.windowed.shape[-1], -1)).mean(axis=-1)
    assert np.max(np.abs(sol.windowed - windows)) < 1e-12
    cell = grids.energy_weight(n_e) * grids.angle_weight * 2.0 * grids.r_box / grids.n_r
    sup_l2 = np.sqrt((field**2).sum(axis=(1, 2, 3)) * cell).max()
    assert abs(sol.sup_l2 - sup_l2) < 1e-12 * sup_l2
    assert abs(sol.min_value - field.min()) < 1e-12


def assert_two_scale_matches_dense_oracle(
    params, grids, t_end, n_steps, phi_in=hat_initial_data(0.5)
):
    """solve_two_scale_transport against a direct product-trapezoid sum on
    the (w, E, y) grid with the dense scattering matrix, each implicit step
    solved with the dense inverse of I - (dt/2) K, to 1e-13."""
    sol = solve_two_scale_transport(params, phi_in, grids, t_end, n_steps)

    E, we, aw = grids.energy_nodes(), grids.energy_weight(), grids.angle_weight
    y = PeriodicGrid(grids.n_y).nodes
    sig = sample_sigma(params, grids.angles, E, y)
    rate = (np.sqrt(E)[:, None] * sig).ravel()
    k1 = pair_mu_table(params.kappa1, grids, E)
    k2y = pair_mu_table(params.kappa2, grids, E[:, None], y)
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
    assert np.max(np.abs(dense_psi_hom(sol) - psis)) <= 1e-13


class TestCharacteristicsSolver:
    def test_kappa0_pure_decay(self):
        grids = TransportGrids(n_r=8, n_e=48)
        assert_exact_decay(hat_initial_data(0.5), grids, 0.125, t_end=1.0, n_steps=20)

    def test_linearity_in_initial_data(self):
        grids = TransportGrids(n_r=8, n_e=48)
        eps = 0.25

        def scaled(r, th, E, y):
            return 2.5 * hat_initial_data(0.5)(r, th, E, y)

        one, two = (
            characteristics_field(SUB, phi_in, eps, grids, t_end=0.5, n_steps=20)
            for phi_in in (hat_initial_data(0.5), scaled)
        )
        assert np.max(np.abs(two - 2.5 * one)) < 1e-12

    def test_positivity_preserved(self):
        grids = TransportGrids(n_r=8, n_e=48)
        sol = solve_characteristics_eps(
            SUB, hat_initial_data(0.5), 0.125, grids, t_end=1.0, n_steps=50
        )
        assert sol.min_value >= 0.0

    def test_labels_do_not_interact_at_late_times(self):
        # streaming at speed sqrt(E) would carry the data 5 units by t_end,
        # past r_box = 2; the model has no streaming, labels do not
        # interact, and each one still decays on its own
        grids = TransportGrids(n_r=8, n_e=48)
        sol = assert_exact_decay(hat_initial_data(0.5), grids, 0.25, t_end=5.0)
        assert np.array_equal(sol.r_nodes, [-0.25, 0.25])

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
        field = characteristics_field(params, phi_in, 0.5, grids, t_end, n_steps=4000)
        energies = grids.energy_nodes(grids.eps_energy_count(0.5))
        times, ref = solve_separable_energy_model(
            decay=2.0 * np.sqrt(energies),
            emit=np.sqrt(energies),
            collect=np.ones_like(energies),
            phi0=np.ones_like(energies),
            e_weight=grids.energy_weight(len(energies)),
            t_end=t_end,
            n_steps=1000,
        )
        # the data at r = -0.25, the first active node
        hat0 = np.maximum(0.0, 1.0 - np.abs(grids.r_nodes[3]) / 0.5)
        got = field[::4, 0, 0, :] / hat0
        assert np.max(np.abs(got - ref)) < 1e-6

    def test_matches_dense_oracle(self):
        # kernel tables of energy rank one: SUB
        grids = TransportGrids(n_r=8, n_omega=4)
        assert_chars_match_dense_oracle(SUB, grids, eps=0.25, per_period=12)

    @given(ranked_kernels())
    @settings(max_examples=15, deadline=None)
    def test_matches_dense_oracle_at_higher_rank(self, data):
        grids, params, ranks, eps, per_period = data
        k1, k2 = _eps_set_up(params, grids, eps, nodes_per_period=per_period)[2:4]
        assert [len(_rank_rows(t)[1]) for t in (k1, k2)] == ranks
        assert_chars_match_dense_oracle(params, grids, eps, per_period)

    @given(ranked_kernels(angle_blind=True), st.sampled_from((hat_initial_data(0.5), tilted_data)))
    @settings(max_examples=15, deadline=None)
    def test_matches_dense_oracle_angle_blind(self, data, phi_in):
        # an angle-blind rate marches one angle for the hat data and every
        # angle for the tilted data; both match the oracle
        grids, params, ranks, eps, per_period = data
        k1, k2, rate = _eps_set_up(params, grids, eps, nodes_per_period=per_period)[2:]
        assert [len(_rank_rows(t)[1]) for t in (k1, k2)] == ranks
        assert np.all(rate == rate[:1])
        assert_chars_match_dense_oracle(params, grids, eps, per_period, phi_in=phi_in)

    @pytest.mark.parametrize("phi_in", [hat_initial_data(0.5), tilted_data])
    def test_singular_implicit_step_raises(self, phi_in):
        # isotropic kappa tuned so that (dt/2) R S has the eigenvalue 1; the
        # step on all angles is checked whether the march steps one or all
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
                params, phi_in, eps, grids, t_end=t_end,
                n_steps=n_steps, nodes_per_period=per_period,
            )

    @pytest.mark.parametrize("phi_in", [hat_initial_data(0.5), tilted_data])
    def test_unresolved_implicit_step_raises(self, phi_in):
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
                params, phi_in, eps, grids, t_end=t_end,
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

        # with no corrector the y-mean does not see the cell resolution;
        # n_y = 2 is the coarsest cell grid that TransportGrids accepts
        fine, coarse = (
            solve_two_scale_transport(
                params, phi_in, TransportGrids(n_r=8, n_omega=4, n_e=12, n_y=n_y),
                t_end=0.5, n_steps=100,
            )
            for n_y in (16, 2)
        )
        assert np.max(np.abs(dense_psi_hom(fine) - dense_psi_hom(coarse))) < 1e-14

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
        t = sol.times[:, None]
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
                for tv in sol.times
            ]
        )
        expect = (mean_decay + osc)[:, None, None, :] * hats[None, :, None, None]
        assert np.max(np.abs(dense_psi_hom(sol) - expect)) < 1e-6

    def test_matches_dense_oracle(self):
        # sigma varies with (w, E) and kappa2 with y', both tables of energy
        # rank one
        params = OpticalParameters(
            sigma=lambda th, E, y: 2.0
            + (0.5 + 0.2 * np.cos(th)) * (1.0 + E) * np.sin(2 * np.pi * y),
            kappa1=SUB.kappa1,
            kappa2=lambda mu, Ep, yp: 0.6
            * (1.0 + 0.5 * np.cos(2 * np.pi * yp))
            * (1.0 + 0.25 * mu),
        )
        grids = TransportGrids(n_omega=4, n_e=8, n_y=32, n_r=8)
        assert_two_scale_matches_dense_oracle(params, grids, t_end=0.75, n_steps=150)

    @given(ranked_kernels())
    @settings(max_examples=15, deadline=None)
    def test_matches_dense_oracle_at_higher_rank(self, data):
        grids, params, ranks = data[:3]
        y = PeriodicGrid(grids.n_y).nodes[None, :]
        k1, k2y = _set_up(params, grids, grids.energy_nodes(), y)[:2]
        assert [len(_rank_rows(t)[1]) for t in (k1, k2y)] == ranks
        assert_two_scale_matches_dense_oracle(params, grids, t_end=0.5, n_steps=40)

    @given(ranked_kernels(angle_blind=True), st.sampled_from((hat_initial_data(0.5), tilted_data)))
    @settings(max_examples=15, deadline=None)
    def test_matches_dense_oracle_angle_blind(self, data, phi_in):
        # the one-angle march for the hat data, every angle for the tilted data
        grids, params, ranks = data[:3]
        y = PeriodicGrid(grids.n_y).nodes[None, :]
        k1, k2y, rate = _set_up(params, grids, grids.energy_nodes(), y)
        assert [len(_rank_rows(t)[1]) for t in (k1, k2y)] == ranks
        assert np.all(rate == rate[:1])
        assert_two_scale_matches_dense_oracle(params, grids, 0.5, 40, phi_in=phi_in)

    @pytest.mark.parametrize("phi_in", [hat_initial_data(0.5), tilted_data])
    @pytest.mark.parametrize(
        "radius, message", [(1.0, "singular"), (1.5, "spectral radius 1.5 >= 1")]
    )
    def test_implicit_step_raises(self, phi_in, radius, message):
        # flat kappa1 = level, kappa2 = 1: (dt/2) R S has the one nonzero
        # eigenvalue pi dt we level sum sqrt(E), whatever the data's angles
        grids = TransportGrids(n_omega=4, n_e=8, n_y=16, n_r=8)
        t_end, n_steps = 0.5, 10
        sum_sqrt = np.sqrt(grids.energy_nodes()).sum()
        level = radius / (np.pi * t_end / n_steps * grids.energy_weight() * sum_sqrt)
        params = OpticalParameters(
            sigma=lambda th, E, y: 2.0 + 0.0 * y,
            kappa1=lambda mu, E: np.full_like(mu * E, level),
            kappa2=lambda mu, Ep, yp: np.ones_like(mu * Ep * yp),
        )
        with pytest.raises(RuntimeError, match=message):
            solve_two_scale_transport(params, phi_in, grids, t_end=t_end, n_steps=n_steps)


class TestActiveSlices:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["one slice", "every active slice"])
    @pytest.mark.parametrize("solver", ["two-scale", "characteristics"])
    def test_non_finite_data_raises(self, bad, where, solver):
        # a NaN fails every comparison, so a max > 0 test would drop its
        # slice as if it were zero; the slice is named instead
        grids = TransportGrids(n_omega=4, n_e=12, n_y=16, n_r=8)

        def phi_in(r, th, E, y):
            out = hat_initial_data(0.5)(r, th, E, y)
            if abs(r) < 0.5 and (r > 0 or where == "every active slice"):
                out[..., 0] = bad
            return out

        node = "-0.25" if where == "every active slice" else "0.25"
        with pytest.raises(ValueError, match=f"not finite at the r-node {node}$"):
            if solver == "two-scale":
                solve_two_scale_transport(SUB, phi_in, grids, t_end=0.1, n_steps=2)
            else:
                solve_characteristics_eps(
                    SUB, phi_in, 0.25, grids, t_end=0.1, n_steps=2, nodes_per_period=12
                )

    def test_support_read_off_the_data(self):
        # a plain function carries no support attribute: the active
        # r-slices are read off its values at the r-nodes
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
        assert np.all(np.isfinite(dense_psi_hom(ts)))
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
            hom.append(dense_psi_hom(
                solve_two_scale_transport(SUB, phi_in, grids, t_end=0.5, n_steps=50)
            ))
            closed.append(
                solve_closed_kernel_transport(
                    SUB, phi_in, grids, t_end=0.5, n_steps=50
                ).values
            )
            chars.append([
                run(SUB, phi_in, 0.25, grids, t_end=0.5, n_steps=50, nodes_per_period=12)
                for run in (solve_characteristics_eps, characteristics_field)
            ])
        idx = [np.nonzero(np.abs(g.r_nodes) < 0.5)[0] for g in (narrow, wide)]
        assert np.array_equal(narrow.r_nodes[idx[0]], wide.r_nodes[idx[1]])
        assert np.array_equal(hom[0][:, idx[0]], hom[1][:, idx[1]])
        assert not np.any(np.delete(hom[0], idx[0], axis=1))
        assert not np.any(np.delete(hom[1], idx[1], axis=1))
        assert np.array_equal(closed[0][:, idx[0]], closed[1][:, idx[1]])
        assert not np.any(np.delete(closed[1], idx[1], axis=1))
        assert np.array_equal(chars[0][0].r_nodes, chars[1][0].r_nodes)
        assert np.array_equal(chars[0][1], chars[1][1])


RANK_GRIDS = TransportGrids(n_omega=4, n_e=12, n_y=16, n_r=8)


def _features(th, E, y):
    """Smooth functions of (theta, E, y) that the data combines."""
    return [
        np.ones_like(th * E * y),
        np.cos(th) * E,
        np.sin(th) + E * E,
        np.sin(2 * np.pi * y),
        np.cos(2 * np.pi * y + th) * np.sqrt(E),
    ]


def _coefficient_data(phi_coef, row_coef):
    """phi_in(r, ...) = sum_j row_coef[i(r), j] G_j with G_j = sum_m phi_coef[j, m] F_m."""
    r_nodes = RANK_GRIDS.r_nodes

    def phi_in(r, th, E, y):
        i = int(np.argmin(np.abs(r_nodes - r)))
        feats = _features(th, E, y)
        out = np.zeros(np.broadcast(th, E, y).shape)
        for j, a in enumerate(row_coef[i]):
            out = out + a * sum(c * f for c, f in zip(phi_coef[j], feats))
        return out

    return phi_in


@st.composite
def rank_data(draw):
    """Data of rank 1-3 over the r-nodes, with exact duplicates, scaled
    copies and near-dependent pairs; the last coefficient column holds only
    the near-dependent perturbations."""
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(
        st.sampled_from(["zero", "fresh", "duplicate", "scaled", "near"]),
        min_size=RANK_GRIDS.n_r, max_size=RANK_GRIDS.n_r,
    ))
    rows = np.zeros((RANK_GRIDS.n_r, k + 1))
    for i, kind in enumerate(kinds):
        earlier = [j for j in range(i) if rows[j].any()]
        if kind == "fresh" or (kind != "zero" and not earlier):
            rows[i, :k] = rng.uniform(-1.0, 1.0, k) + np.sign(rng.uniform(-1, 1, k))
        elif kind == "duplicate":
            rows[i] = rows[rng.choice(earlier)]
        elif kind == "scaled":
            rows[i] = rng.uniform(-3.0, 3.0) * rows[rng.choice(earlier)]
        elif kind == "near":
            rows[i] = rows[rng.choice(earlier)]
            rows[i, k] += 10.0 ** rng.uniform(-15.0, -6.0)
    if not rows.any():
        rows[3, 0] = 1.0
    phi_coef = rng.uniform(-1.0, 1.0, (k + 1, len(_features(0.0, 1.0, 0.0))))
    return phi_coef, rows


class TestRankMarch:
    """Both solvers march the data's r-rank; the slice-by-slice march is the oracle.

    The oracle sums solves of the data restricted to one r-node each, so
    every one of them marches a single slice.
    """

    EPS, NODES_PER_PERIOD, T_END, N_STEPS = 0.5, 8, 0.5, 20

    def _chars(self, phi_in):
        """The solution and the field of the oscillatory march."""
        return tuple(
            run(
                SUB, phi_in, self.EPS, RANK_GRIDS, t_end=self.T_END,
                n_steps=self.N_STEPS, nodes_per_period=self.NODES_PER_PERIOD,
            )
            for run in (solve_characteristics_eps, characteristics_field)
        )

    def _hom(self, phi_in):
        return solve_two_scale_transport(
            SUB, phi_in, RANK_GRIDS, t_end=self.T_END, n_steps=self.N_STEPS
        )

    @given(rank_data())
    @settings(max_examples=20, deadline=None)
    def test_rank_march_matches_slice_by_slice(self, data):
        phi_coef, rows = data
        chars, field = self._chars(_coefficient_data(phi_coef, rows))
        hom = self._hom(_coefficient_data(phi_coef, rows))
        singles, hom_sum = [], np.zeros_like(dense_psi_hom(hom))
        for i in np.nonzero(rows.any(axis=1))[0]:
            only_i = np.where(np.arange(len(rows))[:, None] == i, rows, 0.0)
            singles.append(self._chars(_coefficient_data(phi_coef, only_i)))
            hom_sum += dense_psi_hom(self._hom(_coefficient_data(phi_coef, only_i)))
        values = np.concatenate([f for _, f in singles], axis=1)
        windowed = np.concatenate([s.windowed for s, _ in singles], axis=1)
        we = RANK_GRIDS.energy_weight(len(chars.energies))
        r_weight = 2.0 * RANK_GRIDS.r_box / RANK_GRIDS.n_r
        sup_l2 = np.sqrt(
            (values**2).sum(axis=(1, 2, 3)) * we * RANK_GRIDS.angle_weight * r_weight
        ).max()
        gate = 1e-12 * max(1.0, float(np.max(np.abs(values))))
        assert np.array_equal(chars.r_nodes, np.concatenate([s.r_nodes for s, _ in singles]))
        assert np.max(np.abs(field - values)) <= gate
        assert np.max(np.abs(chars.windowed - windowed)) <= gate
        assert abs(chars.sup_l2 - sup_l2) <= gate
        assert abs(chars.min_value - min(s.min_value for s, _ in singles)) <= gate
        assert np.max(np.abs(dense_psi_hom(hom) - hom_sum)) <= gate

    def test_equal_slices_share_a_row_with_coefficient_one(self):
        # three independent slice patterns, each repeated: every slice is a
        # row or a bitwise copy of one, so the factoring is exact
        rng = np.random.default_rng(5)
        patterns = rng.standard_normal((3, 4, 12))
        which = [0, 1, 0, 2, 1, 0]
        C, rows = _rank_rows(patterns[which])
        assert len(rows) == 3
        assert np.array_equal(C, np.eye(3)[[0, 1, 0, 2, 1, 0]])
        assert np.array_equal(rows, patterns)
        phi_coef = rng.uniform(-1.0, 1.0, (3, len(_features(0.0, 1.0, 0.0))))
        row_coef = np.zeros((RANK_GRIDS.n_r, 3))
        row_coef[1:7] = np.eye(3)[which]
        phi_in = _coefficient_data(phi_coef, row_coef)
        sol, field = self._chars(phi_in)
        y = np.mod(sol.energies / self.EPS, 1.0)
        data = np.stack([
            phi_in(rv, RANK_GRIDS.angles[:, None], sol.energies, y) for rv in sol.r_nodes
        ])
        assert np.array_equal(field[0], data)

    def test_signed_zeros_are_distinct_slices_of_one_row(self):
        # 0.0 and -0.0 compare equal but differ in their bytes: the second
        # slice is no copy of the first, and the Gram-Schmidt gives it the
        # exact coefficient 1 on the first slice's row
        positive = np.maximum(0.0, np.sin(np.linspace(0.0, 6.0, 40))).reshape(4, 10)
        negative = np.where(positive == 0.0, -0.0, positive)
        assert np.array_equal(positive, negative)
        assert positive.tobytes() != negative.tobytes()
        C, rows = _rank_rows(np.stack([positive, negative, positive]))
        assert np.array_equal(C, np.ones((3, 1)))
        assert rows.tobytes() == positive.tobytes()

    def test_the_default_grids_hat_slices(self):
        # the 8 active slices of the default n_r = 32: 4 mirror pairs of
        # bitwise-equal slices, one rank row, and 8 copies of one slice
        grids = TransportGrids()
        y = PeriodicGrid(grids.n_y).nodes[None, :]
        axes = (grids.angles[:, None, None], grids.energy_nodes()[:, None], y)
        active, slices = _initial_slices(hat_initial_data(0.5), grids, *axes)
        assert len(active) == 8
        assert all(np.array_equal(a, b) for a, b in zip(slices, slices[::-1]))
        C, rows = _rank_rows(slices)
        assert len(rows) == 1 and np.array_equal(C[:, 0], C[::-1, 0])
        assert np.array_equal(rows[0], slices[3]) and C[3, 0] == 1.0
        hat = np.maximum(0.0, 1.0 - np.abs(grids.r_nodes[active]) / 0.5)
        assert np.max(np.abs(C[:, 0] - hat / hat[3])) <= 1e-15
        C, rows = _rank_rows(np.stack([slices[3]] * 8))
        assert np.array_equal(C, np.ones((8, 1))) and np.array_equal(rows, slices[3:4])


class TestEnergyRankStep:
    """The march's implicit step in the energy rank of the kernel tables."""

    def test_zero_stack_has_rank_zero(self):
        C, rows = _rank_rows(np.zeros((9, 5, 1)))
        assert C.shape == (9, 0) and rows.shape == (0, 5, 1)

    def test_zero_kernel_preset_runs_the_transport_kind(self, tmp_path):
        # both solvers and both checks on the kappa0 preset, whose tables are
        # exactly zero, so both march rank-0 tables; test_kappa0_pure_decay
        # and test_kappa0_two_valued_sigma_pointwise_average check the decay
        config = ExperimentConfig(
            kind="transport", preset="transport-kappa0", epsilons=(0.5, 0.25),
            n_e=12, n_omega=4, n_r=8, n_y=16, out_dir=str(tmp_path),
        )
        result = run_experiment(config)
        assert result.status == 0, result.message
        for name in ("transport_checks.csv", "transport_weak.csv"):
            rows = np.loadtxt(result.files[name], delimiter=",", skiprows=1)
            assert rows.shape == (2, 3) and np.all(np.isfinite(rows))
        # with kappa = 0 the margin and the least quotient are both min sigma_eps
        with open(result.files["transport_checks.csv"]) as fh:
            checks = [line.strip().split(",") for line in fh.readlines()[1:]]
        assert all(margin == quotient for _, margin, quotient in checks)

    @given(ranked_kernels())
    @settings(max_examples=30, deadline=None)
    def test_spectral_radius_matches_g_space_step(self, data):
        # B = h A (I x G^T) is h R S in reduced coordinates: its spectral
        # radius is that of the n_omega^2 step on g[v, w] of the oracle
        grids, params, _, eps, per_period = data
        h = 0.5 * 0.5 / 20  # dt/2 of the dense-oracle runs: t_end 0.5, 20 steps
        energies, _, eps_k1, k2, _ = _eps_set_up(params, grids, eps, nodes_per_period=per_period)
        cell = PeriodicGrid(grids.n_y).nodes[None, :]
        cell_k1, k2y = _set_up(params, grids, grids.energy_nodes(), cell)[:2]
        nw = grids.n_omega
        for E, k1, kern, weight in (
            (energies, eps_k1, k2, grids.energy_weight(len(energies))),
            (grids.energy_nodes(), cell_k1, k2y, grids.energy_weight() / grids.n_y),
        ):
            B = _energy_rank(grids, E, k1, kern, weight, h)[3]
            C = GapScattering(grids, E, k1).matrix(kern.sum(axis=-1), h * weight)
            block = np.einsum("vwx,wu->vwux", C, np.eye(nw)).reshape(nw * nw, nw * nw)
            radius = np.max(np.abs(np.linalg.eigvals(B)))
            want = np.max(np.abs(np.linalg.eigvals(block)))
            assert len(B) == nw * len(_rank_rows(k1)[1])
            assert abs(radius - want) <= 1e-12 * want

    @given(ranked_kernels(angle_blind=True))
    @settings(max_examples=20, deadline=None)
    def test_march_steps_one_angle_for_angle_blind_inputs(self, data):
        # one angle only when both the rate and the data are angle-blind;
        # the one-angle field is the all-angle march's field at each angle
        grids, params = data[:2]
        E, y = grids.energy_nodes(), PeriodicGrid(grids.n_y).nodes[None, :]
        k1, k2y, rate = _set_up(params, grids, E, y)
        tilt = 1.0 + 0.1 * np.cos(grids.angles)[:, None, None]
        hat = hat_initial_data(0.5)(0.25, grids.angles[:, None, None], E[:, None], y)
        weight = grids.energy_weight() / grids.n_y

        def last(rate, phi0):
            *_, block = _march(grids, E, k1, k2y, weight, rate, phi0[None], 0.05, 4)
            return block[-1]

        blind = last(rate, hat)
        assert blind.shape == (1, 1) + hat.shape[1:]
        assert last(tilt * rate, hat).shape == (1,) + hat.shape
        assert last(rate, tilt * hat).shape == (1,) + hat.shape
        # a rate one ulp off at one angle is not blind: the all-angle march
        nudged = rate.copy()
        nudged[-1] = np.nextafter(nudged[-1], np.inf)
        full = last(nudged, hat)
        assert full.shape == (1,) + hat.shape
        assert np.max(np.abs(full - blind)) <= 1e-13 * np.max(np.abs(full))


# two angles and 16 r-nodes: the hat's 4 active slices have coefficients
# 1/3, 1, 1, 1/3 on their one rank row
BLOCK_GRIDS = TransportGrids(n_omega=2, n_e=48, n_y=64, n_r=16)
BLOCK_EPS, BLOCK_PER_PERIOD = 1 / 64, 100  # 4800 eps-grid energy nodes
# eight times the preset's kappa2, far past subcritical: the L2 norm grows,
# so its sup is at the last step, in the last block
GROWING = OpticalParameters(
    sigma=SUB.sigma, kappa1=SUB.kappa1, kappa2=lambda mu, Ep, yp: 8.0 * SUB.kappa2(mu, Ep, yp)
)
BOUNDARIES = pytest.mark.parametrize("at", range(5), ids=("1", "k-1", "k", "k+1", "2k+3"))


def block_steps(k: int) -> tuple:
    """Step counts around blocks of k states.  A run holds n_steps + 1
    states: 2 (inside the first block), k (one full block), k + 1 and
    k + 2 (just past it) and 2 k + 4 (two full blocks and four states)."""
    return (1, k - 1, k, k + 1, 2 * k + 3)


def steps_per_block(state_size: int) -> int:
    return max(1, transport.MARCH_CHUNK // state_size)


def eps_slices(params, phi_in, grids, eps, per_period):
    """The solver's active slices and their factors, C and the rank rows."""
    energies, y = _eps_set_up(params, grids, eps, nodes_per_period=per_period)[:2]
    base0 = _initial_slices(
        phi_in, grids, grids.angles[:, None, None], energies[:, None], y
    )[1]
    return energies, _rank_rows(base0)


def chars_at(params, phi_in, grids, eps, per_period, n_steps):
    """The solution and the field of the oscillatory march to t = 0.5."""
    return tuple(
        run(params, phi_in, eps, grids, t_end=0.5, n_steps=n_steps, nodes_per_period=per_period)
        for run in (solve_characteristics_eps, characteristics_field)
    )


class TestMarchBlocks:
    """The march yields blocks of k = max(1, MARCH_CHUNK // state size)
    consecutive states and both solvers reduce a block at a time.  Runs of
    n_steps in block_steps(k) end inside, at and past a block boundary."""

    @pytest.mark.parametrize(
        "params, sign",
        [(SUB, 1.0), (GROWING, 1.0), (SUB, -1.0), (SUB, lambda r: -np.sign(r))],
        ids=("decaying", "growing", "negative", "odd"),
    )
    @BOUNDARIES
    def test_chars_rank_one_reductions_are_per_step_bitwise(self, params, sign, at, monkeypatch):
        # the stored field holds the rank row at a slice whose coefficient is
        # exactly 1; the windowed means, the L2 norm and the minimum of the
        # row taken step by step, as the one-step reductions take them.  The
        # hat times -sign(r) has its row at r < 0 and coefficients -1, -1/3
        # at r > 0, so its minimum is at the row's maximum
        grids = BLOCK_GRIDS

        def phi_in(r, th, E, y):
            return (sign(r) if callable(sign) else sign) * hat_initial_data(0.5)(r, th, E, y)

        energies, (C, rows) = eps_slices(params, phi_in, grids, BLOCK_EPS, BLOCK_PER_PERIOD)
        n_e = len(energies)
        k = steps_per_block(n_e)  # one angle, one rank row
        assert C.shape == (4, 1) and 1 < k < 100
        assert np.array_equal(np.abs(C[:, 0]) * 3.0, [1.0, 3.0, 3.0, 1.0])
        n_steps = block_steps(k)[at]
        sol, values = chars_at(params, phi_in, grids, BLOCK_EPS, BLOCK_PER_PERIOD, n_steps)
        p = int(np.flatnonzero(C[:, 0] == 1.0)[0])
        n_windows = sol.windowed.shape[-1]
        we, r_weight = grids.energy_weight(n_e), 2.0 * grids.r_box / grids.n_r
        windowed, l2, low = [], [], []
        for field in values:
            f = field[p, :1]  # (angle, E) of the marched row
            assert np.array_equal(field, np.broadcast_to((C @ f)[:, None], field.shape))
            windowed.append(C @ f.reshape(n_windows, -1).mean(axis=-1)[None])
            sq = float(np.sum(C.T @ C * (f * f).sum(axis=1)))
            l2.append(float(np.sqrt(sq * grids.n_omega * we * grids.angle_weight * r_weight)))
            low.append(float(np.min(C * [f.min(), f.max()])))
        assert len(values) == n_steps + 1
        assert np.array_equal(sol.windowed, np.broadcast_to(
            np.array(windowed)[:, :, None], sol.windowed.shape
        ))
        assert sol.sup_l2 == max(l2) and sol.min_value == min(low)
        assert np.argmax(l2) == (0 if params is SUB else n_steps)
        # one state per block is the step-by-step march
        monkeypatch.setattr(transport, "MARCH_CHUNK", 1)
        one, one_values = chars_at(params, phi_in, grids, BLOCK_EPS, BLOCK_PER_PERIOD, n_steps)
        assert np.array_equal(values, one_values)
        for name in ("windowed", "sup_l2", "min_value"):
            assert np.array_equal(getattr(sol, name), getattr(one, name)), name

    @BOUNDARIES
    def test_two_scale_rank_one_psi_hom_is_per_step_bitwise(self, at, monkeypatch):
        grids, phi_in = BLOCK_GRIDS, hat_initial_data(0.5)
        k = steps_per_block(grids.n_e * grids.n_y)  # one angle, one rank row
        assert 1 < k < 100
        n_steps = block_steps(k)[at]
        sol = solve_two_scale_transport(SUB, phi_in, grids, t_end=0.5, n_steps=n_steps)
        field = dense_psi_hom(sol)
        assert field.shape[0] == n_steps + 1
        E, y = grids.energy_nodes(), PeriodicGrid(grids.n_y).nodes[None, :]
        k1, k2y, rate = _set_up(SUB, grids, E, y)
        active, phi0 = _initial_slices(
            phi_in, grids, grids.angles[:, None, None], E[:, None], y
        )
        C, rows = _rank_rows(phi0)
        weight = grids.energy_weight() / grids.n_y
        want = np.zeros_like(field)
        n = 0
        for block in _march(grids, E, k1, k2y, weight, rate, rows, 0.5 / n_steps, n_steps):
            for phi in block:
                hom = phi.mean(axis=3)
                want[n, active] = (C @ hom.reshape(len(hom), -1)).reshape((len(C),) + hom.shape[1:])
                n += 1
        assert np.array_equal(field, want)
        monkeypatch.setattr(transport, "MARCH_CHUNK", 1)
        one = solve_two_scale_transport(SUB, phi_in, grids, t_end=0.5, n_steps=n_steps)
        assert np.array_equal(sol.means, one.means)

    @staticmethod
    def _rank_two_data():
        rng = np.random.default_rng(28)
        phi_coef = rng.uniform(-1.0, 1.0, (2, len(_features(0.0, 1.0, 0.0))))
        row_coef = np.array(
            [[0, 0], [1, 0], [0, 1], [1, 1], [2, -1], [0, 0], [0.5, 0.5], [1, 0]]
        )
        return _coefficient_data(phi_coef, row_coef)

    def _cases(self):
        """(grids, eps, nodes per period, data, r-rank) of the all-angle and
        rank-two runs; the tilted data has one rank row on every angle."""
        return [
            (TransportGrids(n_omega=4, n_e=48, n_y=64, n_r=16), BLOCK_EPS, 100, tilted_data, 1),
            (RANK_GRIDS, 0.5, 400, self._rank_two_data(), 2),
        ]

    @pytest.mark.parametrize("case", range(2))
    @BOUNDARIES
    def test_all_angle_and_rank_two_data(self, case, at, monkeypatch):
        # the reductions read off the stored field, to the dense-oracle gates
        grids, eps, per_period, phi_in, rank = self._cases()[case]
        energies, (C, rows) = eps_slices(SUB, phi_in, grids, eps, per_period)
        assert len(rows) == rank and rows.shape[1] == grids.n_omega
        k = steps_per_block(rows.size)
        assert 1 < k < 100
        n_steps = block_steps(k)[at]
        sol, field = chars_at(SUB, phi_in, grids, eps, per_period, n_steps)
        assert len(field) == n_steps + 1
        windows = field.reshape(field.shape[:-1] + (sol.windowed.shape[-1], -1)).mean(axis=-1)
        assert np.max(np.abs(sol.windowed - windows)) < 1e-12
        cell = grids.energy_weight(len(energies)) * grids.angle_weight * 2.0 * grids.r_box / grids.n_r
        sup_l2 = np.sqrt((field**2).sum(axis=(1, 2, 3)) * cell).max()
        assert abs(sol.sup_l2 - sup_l2) < 1e-12 * sup_l2
        assert abs(sol.min_value - field.min()) < 1e-12
        # psi_hom against the step-by-step march, one state per block
        hom = solve_two_scale_transport(SUB, phi_in, grids, t_end=0.5, n_steps=n_steps)
        monkeypatch.setattr(transport, "MARCH_CHUNK", 1)
        one, one_field = chars_at(SUB, phi_in, grids, eps, per_period, n_steps)
        assert np.array_equal(field, one_field)
        assert np.max(np.abs(sol.windowed - one.windowed)) < 1e-12
        assert abs(sol.sup_l2 - one.sup_l2) < 1e-12 * sup_l2
        assert abs(sol.min_value - one.min_value) < 1e-12
        one_hom = solve_two_scale_transport(SUB, phi_in, grids, t_end=0.5, n_steps=n_steps)
        assert np.max(np.abs(dense_psi_hom(hom) - dense_psi_hom(one_hom))) < 1e-12

    @pytest.mark.parametrize("phi_in", [hat_initial_data(0.5), tilted_data])
    def test_blocked_march_matches_dense_oracle(self, phi_in, monkeypatch):
        # blocks of three states: 2 k + 3 = 9 steps cross three boundaries
        grids = TransportGrids(n_r=8, n_omega=4)
        n_w = 1 if phi_in is not tilted_data else grids.n_omega
        monkeypatch.setattr(transport, "MARCH_CHUNK", 3 * n_w * grids.eps_energy_count(0.25, 12))
        assert_chars_match_dense_oracle(SUB, grids, 0.25, 12, n_steps=block_steps(3)[4], phi_in=phi_in)
        grids = TransportGrids(n_omega=4, n_e=8, n_y=32, n_r=8)
        monkeypatch.setattr(transport, "MARCH_CHUNK", 3 * n_w * grids.n_e * grids.n_y)
        assert_two_scale_matches_dense_oracle(SUB, grids, 0.5, block_steps(3)[4], phi_in=phi_in)


class TestClosedKernelEquivalence:
    def test_routes_agree(self):
        grids = TransportGrids(n_omega=4, n_e=8, n_y=32, n_r=8)
        phi_in = hat_initial_data(0.5)
        ts = solve_two_scale_transport(SUB, phi_in, grids, t_end=0.75, n_steps=600)
        ck = solve_closed_kernel_transport(SUB, phi_in, grids, t_end=0.75, n_steps=600)
        assert np.max(np.abs(dense_psi_hom(ts) - ck.values)) < 1e-6

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
        for values in (ck.values, dense_psi_hom(ts)):
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
        # the isotropic march checks its step on all angles too
        with pytest.raises(RuntimeError, match="spectral radius 8.75 >= 1"):
            solve_two_scale_transport(
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
        assert np.max(np.abs(dense_psi_hom(ts) - ck.values)) < 1e-6


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
            errs.append(windowed_weak_error(sol, hom))
            sups.append(sol.sup_l2)
        assert 1.5 <= errs[0] / errs[1] <= 3.0
        assert max(sups) / min(sups) < 1.05  # uniform a-priori bound


class TestFactoredPsiHom:
    """solve_two_scale_transport returns psi_hom as the active r-indices,
    C and the y-means of the marched rank rows."""

    @pytest.mark.parametrize("case", ["hat", "tilted", "rank two"])
    def test_expanded_field_is_expand_of_the_marched_means(self, case):
        grids = RANK_GRIDS
        phi_in, rank, n_w = {
            "hat": (hat_initial_data(0.5), 1, 1),
            "tilted": (tilted_data, 1, grids.n_omega),
            "rank two": (TestMarchBlocks._rank_two_data(), 2, grids.n_omega),
        }[case]
        n_steps = 30
        sol = solve_two_scale_transport(SUB, phi_in, grids, t_end=0.5, n_steps=n_steps)
        E, y = grids.energy_nodes(), PeriodicGrid(grids.n_y).nodes[None, :]
        k1, k2y, rate = _set_up(SUB, grids, E, y)
        active, phi0 = _initial_slices(
            phi_in, grids, grids.angles[:, None, None], E[:, None], y
        )
        C, rows = _rank_rows(phi0)
        weight = grids.energy_weight() / grids.n_y
        march = _march(grids, E, k1, k2y, weight, rate, rows, 0.5 / n_steps, n_steps)
        means = np.stack([phi.mean(axis=3) for block in march for phi in block])
        assert means.shape == (n_steps + 1, rank, n_w, grids.n_e)
        assert np.array_equal(sol.active, active) and np.array_equal(sol.C, C)
        assert np.array_equal(sol.means, means)
        field = dense_psi_hom(sol)
        assert np.array_equal(
            field[:, active], np.broadcast_to(_expand(C, means), field[:, active].shape)
        )
        assert not np.any(np.delete(field, active, axis=1))

    def test_weak_error_reads_slices_by_index(self):
        grids = TransportGrids(n_omega=4, n_e=12, n_y=16, n_r=8)
        phi_in = hat_initial_data(0.5)
        hom = solve_two_scale_transport(SUB, phi_in, grids, t_end=0.5, n_steps=20)
        sol = solve_characteristics_eps(
            SUB, phi_in, 0.25, grids, t_end=0.5, n_steps=20, nodes_per_period=12,
            n_windows=3,
        )
        assert np.array_equal(sol.active, hom.active)
        assert np.array_equal(grids.r_nodes[sol.active], sol.r_nodes)
        err = windowed_weak_error(sol, hom)
        assert 0.0 < err < 0.1
        # a slice active only in the oscillatory run is compared against zero
        only_right = dataclasses.replace(hom, active=hom.active[1:], C=hom.C[1:])
        gap = np.max(np.abs(sol.windowed[:, 0]))
        assert windowed_weak_error(sol, only_right) == max(err, gap)
        # r-grids of different n_r do not align
        finer = TransportGrids(n_omega=4, n_e=12, n_y=16, n_r=16)
        hom_finer = solve_two_scale_transport(SUB, phi_in, finer, t_end=0.5, n_steps=20)
        with pytest.raises(ValueError, match="do not align"):
            windowed_weak_error(sol, hom_finer)
        with pytest.raises(ValueError, match="do not align"):
            windowed_weak_error(
                solve_characteristics_eps(
                    SUB, phi_in, 0.25, finer, t_end=0.5, n_steps=20,
                    nodes_per_period=12, n_windows=3,
                ),
                hom,
            )
        # the window count is the oscillatory run's: 9 windows divide its 36
        # energy nodes but not the reference grid's 12
        nine = solve_characteristics_eps(
            SUB, phi_in, 0.25, grids, t_end=0.5, n_steps=20, nodes_per_period=12, n_windows=9
        )
        assert nine.windowed.shape[-1] == 9
        with pytest.raises(ValueError, match="divide the reference energy grid"):
            windowed_weak_error(nine, hom)


class TestArguments:
    """Step counts, end times, window counts and r-boxes that no run can use
    raise ValueError before any march."""

    GRIDS = TransportGrids(n_omega=4, n_e=12, n_y=16, n_r=8)

    def _run(self, solver, **kwargs):
        if solver == "two-scale":
            return solve_two_scale_transport(SUB, hat_initial_data(0.5), self.GRIDS, **kwargs)
        return solve_characteristics_eps(
            SUB, hat_initial_data(0.5), 0.5, self.GRIDS, nodes_per_period=12, **kwargs
        )

    @pytest.mark.parametrize(
        "n_steps, t_end", [(0, 1.0), (-2, 1.0), (10, 0.0), (10, -1.0), (10, np.nan)]
    )
    @pytest.mark.parametrize("solver", ["two-scale", "characteristics"])
    def test_steps_and_end_time(self, solver, n_steps, t_end):
        # n_steps = 0 used to raise IndexError, t_end = -1 marched backwards
        # (sup_l2 5.96 and min_value -0.84 on these grids at eps 0.5) and
        # t_end = 0 repeated the initial state
        with pytest.raises(ValueError, match="need n_steps >= 1 and t_end > 0"):
            self._run(solver, t_end=t_end, n_steps=n_steps)

    @pytest.mark.parametrize("n_windows", [0, -6])
    def test_window_count_below_one(self, n_windows):
        # 0 used to raise ZeroDivisionError; -6 divides the 18 eps-grid
        # nodes and reached numpy's negative dimensions
        with pytest.raises(ValueError, match=f"n_windows = {n_windows}"):
            self._run("characteristics", t_end=0.5, n_steps=10, n_windows=n_windows)

    @pytest.mark.parametrize(
        "e_min, e_max", [(0.25, np.nan), (0.25, np.inf), (np.nan, 1.0), (-0.1, 1.0), (1.0, 0.25)]
    )
    def test_energy_window_must_be_finite_and_ordered(self, e_min, e_max):
        # e_max = nan or inf gave NaN or inf energy nodes, and coercivity_test
        # then raised a misleading "sigma that does not depend on angle" error
        with pytest.raises(ValueError, match="need 0 <= e_min < e_max < inf"):
            TransportGrids(n_omega=4, n_e=12, n_y=16, n_r=8, e_min=e_min, e_max=e_max)

    def test_weak_error_needs_the_reference_over_the_whole_run(self):
        # np.interp clamps: an eps run to t = 2 was compared, past t = 0.5,
        # with the reference's last state, and read 0.2296 with no error
        phi_in = hat_initial_data(0.5)
        short, long = (
            solve_two_scale_transport(SUB, phi_in, self.GRIDS, t_end=t, n_steps=n)
            for t, n in ((0.5, 20), (2.0, 80))
        )
        eps_runs = [
            solve_characteristics_eps(
                SUB, phi_in, 0.25, self.GRIDS, t_end=t, n_steps=n, nodes_per_period=12,
                n_windows=3,
            )
            for t, n in ((0.5, 20), (2.0, 80))
        ]
        with pytest.raises(ValueError, match=r"times \[0, 2\] leave the reference's \[0, 0.5\]"):
            windowed_weak_error(eps_runs[1], short)
        assert 0.0 < windowed_weak_error(eps_runs[1], long) < 0.1
        # a shorter oscillatory run reads the longer reference inside its span
        assert 0.0 < windowed_weak_error(eps_runs[0], long) < 0.1

    @pytest.mark.parametrize("r_box", [0.0, -2.0, np.nan])
    def test_r_box_must_be_positive(self, r_box):
        # r_box = -2 made every L2 norm NaN, which max dropped: sup_l2 read 0
        with pytest.raises(ValueError, match="r_box must be positive"):
            TransportGrids(n_omega=4, n_e=12, n_y=16, n_r=8, r_box=r_box)


# the benchmark's transport grids
BENCH_GRIDS = TransportGrids(n_e=48, n_r=8, n_omega=16, n_y=64)


def traced_peak_mb(run) -> float:
    """tracemalloc peak of run() in MB, after one untraced call: the first
    call in a process also counts numpy's lazy imports and caches."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    def test_two_scale_keeps_no_dense_field(self):
        # the dense (151, 8, 16, 48) psi_hom alone took 7.08 MB
        run = lambda: solve_two_scale_transport(
            SUB, hat_initial_data(0.5), BENCH_GRIDS, t_end=1.0, n_steps=150
        )
        assert traced_peak_mb(run) < 3.5

    @pytest.mark.parametrize("eps", [0.125, 0.0625, 0.03125])
    def test_coercivity_blocks_are_small(self, eps):
        # one n_E-square block per angular mode: 9 x 48^2 floats, 166 kB
        run = lambda: coercivity_test(SUB, eps, BENCH_GRIDS)
        assert traced_peak_mb(run) < 1.0

    def test_rate_is_a_read_only_view(self):
        E, y = GRIDS.energy_nodes(), PeriodicGrid(GRIDS.n_y).nodes[None, :]
        rate = _set_up(SUB, GRIDS, E, y)[2]
        want = np.sqrt(E)[:, None] * sample_sigma(SUB, GRIDS.angles, E, y[0])
        assert np.array_equal(rate, want)
        with pytest.raises(ValueError, match="read-only"):
            rate[0, 0, 0] = 1.0
