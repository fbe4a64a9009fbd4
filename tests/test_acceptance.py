"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np

from homokin.boltzmann import DEFAULT_SWEEP
from homokin.cell import (
    CellFunction,
    PeriodicGrid,
    fluctuation,
    indicator_sine_profile,
    sine_profile,
    two_valued_profile,
)
from homokin.harness import ExperimentConfig, run_experiment
from homokin.kernels import KernelTable, verify_tartar_equivalence
from homokin.multiscale import OdeProblem, three_route_report
from homokin.oscillator import YoungMeasure, cell_averaged_limit, solve_oscillator_limit
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
)
from homokin.volterra import TimeGrid, VolterraProblem, solve_volterra
from oracles import (
    averaged_rotation_laplace_numeric,
    characteristics_field,
    convergence_study,
    dense_psi_hom,
    matrix_B,
    memory_kernel_eval,
    regularized_kernel_laplace,
    semigroup_apply,
    sigma_eps,
    solve_closed_kernel_transport,
    solve_separable_energy_model,
)


def report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_tartar_equivalence():
    start = time.time()
    sine = CellFunction.from_function(PeriodicGrid(4096), sine_profile(2.0, 0.5))
    ps = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]
    rep_sine = verify_tartar_equivalence(sine, ps)
    twoval = CellFunction.from_function(PeriodicGrid(4096), two_valued_profile(1.0, 3.0))
    rep_two = verify_tartar_equivalence(twoval, ps)
    closed_gap = float(
        np.max(np.abs(rep_two.mhat - 1.0 / (np.asarray(ps) + 2.0)))
    )
    # the numeric route, the transform of the certified pole form, against Mhat
    numeric_gap = max(
        float(np.max(np.abs(rep.numeric - rep.mhat) / np.abs(rep.mhat)))
        for rep in (rep_sine, rep_two)
    )
    elapsed = time.time() - start
    checks = [
        rep_sine.max_rel_error <= 1e-6,
        rep_two.max_rel_error <= 1e-10,
        closed_gap <= 1e-10,
        numeric_gap <= 1e-10,
        elapsed < 60.0,
    ]
    ok = report(
        1,
        all(checks),
        f"Laplace-route equivalence: sine rel {rep_sine.max_rel_error:.2e} "
        f"(<=1e-6), two-valued rel {rep_two.max_rel_error:.2e} (<=1e-10), "
        f"closed-form gap {closed_gap:.2e}, numeric route rel {numeric_gap:.2e} "
        f"(<=1e-10), {elapsed:.1f}s (<60s)",
    )
    assert ok


def test_criterion_02_variance_identity():
    grid = PeriodicGrid(256)
    profiles = {
        "constant": lambda y: np.full_like(y, 2.0),
        "sine": sine_profile(2.0, 0.5),
        "two-valued": two_valued_profile(1.0, 3.0),
        "two-sines": lambda y: 2.0 + 0.3 * np.sin(2 * np.pi * y) + 0.2 * np.sin(4 * np.pi * y),
        "indicator": indicator_sine_profile(2.0, 0.5),
    }
    worst = 0.0
    for fn in profiles.values():
        sig = CellFunction.from_function(grid, fn)
        var = float(grid.weights @ sig.values**2) - float(grid.weights @ sig.values) ** 2
        worst = max(worst, abs(memory_kernel_eval(sig, 0.0) - var))
    ok = report(
        2,
        worst <= 1e-10,
        f"kernel(0) = cell variance across five coefficients, worst gap {worst:.2e} (<=1e-10)",
    )
    assert ok


def test_criterion_03_three_route_agreement():
    grid = PeriodicGrid(256)
    sine = CellFunction.from_function(grid, sine_profile(2.0, 0.5))
    osc_init = CellFunction.from_function(grid, lambda y: 1.0 + np.sin(2 * np.pi * y))
    rep = three_route_report(OdeProblem(sine, None, osc_init, 10.0))
    sups = [
        rep["sup_closed_coupled"],
        rep["sup_closed_volterra"],
        rep["sup_coupled_volterra"],
    ]
    twoval = CellFunction.from_function(grid, two_valued_profile(1.0, 3.0))
    ones = CellFunction(grid, np.ones(grid.n))
    rep2 = three_route_report(OdeProblem(twoval, None, ones, 10.0))
    t = rep2["times"]
    exact = 0.5 * (np.exp(-t) + np.exp(-3.0 * t))
    closed_form_gap = float(np.max(np.abs(rep2["volterra"] - exact)))
    ok = report(
        3,
        max(sups) <= 1e-5 and closed_form_gap <= 1e-5,
        f"route sups {max(sups):.2e} (<=1e-5), two-valued closed form "
        f"{closed_form_gap:.2e} (<=1e-5)",
    )
    assert ok


def test_criterion_04_figure2_inside_example1():
    start = time.time()
    rep, _ = convergence_study(1, "inside", DEFAULT_SWEEP)
    elapsed = time.time() - start
    decreasing = all(
        np.all(np.diff(rep.mode_errors[:, k]) < 0) for k in range(8)
    )
    slope0 = rep.fits[0].slope
    nd_ratio = rep.norm_diffs[-1] / rep.norm_diffs[0]
    checks = [decreasing, 0.7 <= slope0 <= 1.1, nd_ratio <= 0.2, elapsed <= 900]
    ok = report(
        4,
        all(checks),
        f"inside example 1: e_k strictly decreasing k=0..7 ({decreasing}), "
        f"slope(e_0) {slope0:.3f} in [0.7,1.1], norm ratio {nd_ratio:.3f} (<=0.2), "
        f"{elapsed:.0f}s (<=900s)",
    )
    assert ok


def test_criterion_05_figures34_inside_examples23():
    details = []
    oks = []
    for ex in (2, 3):
        rep, _ = convergence_study(ex, "inside", DEFAULT_SWEEP)
        decreasing = all(
            np.all(np.diff(rep.mode_errors[:, k]) < 0) for k in range(8)
        )
        slope0 = rep.fits[0].slope
        oks.append(decreasing and 0.6 <= slope0 <= 1.2)
        details.append(f"ex{ex} slope {slope0:.3f} mono {decreasing}")
    ok = report(5, all(oks), "inside examples 2-3 in [0.6,1.2]: " + ", ".join(details))
    assert ok


def test_criterion_06_figure5_outside():
    # the second-order outside rate belongs to the fixed initial profile
    # (the oscillatory reading floors every placement at first order)
    rep1, _ = convergence_study(1, "outside", DEFAULT_SWEEP, init_mode="profile")
    slope1 = rep1.fits[0].slope
    reported = {}
    in_bracket = {}
    for ex in (2, 3):
        rep, _ = convergence_study(ex, "outside", DEFAULT_SWEEP, init_mode="profile")
        reported[ex] = rep.fits[0].slope
        in_bracket[ex] = 1.2 <= rep.fits[0].slope <= 2.4
    ok = report(
        6,
        1.6 <= slope1 <= 2.3,
        f"outside example 1 slope(e_0) {slope1:.3f} in [1.6,2.3]; "
        f"example 2 slope {reported[2]:.3f} (anticipated [1.2,2.4]: {in_bracket[2]}), "
        f"example 3 slope {reported[3]:.3f} (anticipated [1.2,2.4]: {in_bracket[3]})",
    )
    assert ok


def test_criterion_06_figure5_every_mode_decreases():
    # the limit's modes read the profile on the eps grid, so no mode of the
    # outside sweeps sits on a floor set by the reference; criterion 06's
    # gate on mode 0 stays as it is
    details, oks = [], []
    for ex in (1, 3):
        rep, _ = convergence_study(ex, "outside", DEFAULT_SWEEP, init_mode="profile")
        modes = rep.mode_errors.shape[1]
        decreasing = all(np.all(np.diff(rep.mode_errors[:, k]) < 0) for k in range(modes))
        oks.append(decreasing)
        details.append(
            f"ex{ex} strictly decreasing k=0..{modes - 1} ({decreasing}), "
            f"odd slopes {', '.join(f'{rep.fits[k].slope:.2f}' for k in range(1, modes, 2))}"
        )
    ok = report(6, all(oks), "outside every mode: " + "; ".join(details))
    assert ok


def test_criterion_07_transport_coercivity():
    grids = TransportGrids()
    sub = transport_preset("transport-subcritical-1")
    margin = subcriticality_check(sub, 0.125, grids)
    quotient = coercivity_test(sub, 0.125, grids)
    kappa0 = transport_preset("transport-kappa0")
    sig_min = float(
        np.min(sigma_eps(kappa0, grids.angles, grids.energy_nodes(), 0.125))
    )
    q0 = coercivity_test(kappa0, 0.125, grids)
    checks = [margin > 0, quotient >= margin - 1e-6, q0 >= sig_min - 1e-12]
    ok = report(
        7,
        all(checks),
        f"margin {margin:.4f} > 0, min quotient {quotient:.4f} >= margin-1e-6, "
        f"kappa0 quotient {q0:.4f} >= min sigma {sig_min:.4f}",
    )
    assert ok


def test_criterion_08_transport_consistency():
    start = time.time()
    # default grids except n_e = 48: six windows of width 0.125 then hold a
    # whole number of oscillation periods for every sweep eps, and 48 is
    # the closest multiple of six to the default energy resolution
    grids = TransportGrids(n_e=48)
    phi_in = hat_initial_data(0.5)

    # (a) kappa = 0: product-trapezoid reproduces exact decay
    kappa0 = transport_preset("transport-kappa0")
    small = TransportGrids(n_r=8, n_e=48)
    eps = 0.125
    sol0 = solve_characteristics_eps(kappa0, phi_in, eps, small, t_end=1.0, n_steps=20)
    field0 = characteristics_field(kappa0, phi_in, eps, small, t_end=1.0, n_steps=20)
    y = np.mod(sol0.energies / eps, 1.0)
    sig = sigma_eps(kappa0, small.angles, sol0.energies, eps)
    decay_gap = 0.0
    for i, rv in enumerate(sol0.r_nodes):
        base = phi_in(rv, small.angles[:, None], sol0.energies[None, :], y[None, :])
        exact = base[None] * np.exp(-sol0.times[:, None, None] * sig[None])
        decay_gap = max(decay_gap, float(np.max(np.abs(field0[:, i] - exact))))

    # (b) angle-isotropic configuration against the energy-only model
    iso = OpticalParameters(
        sigma=lambda th, E, yy: 2.0 + 0.0 * yy,
        kappa1=lambda mu, E: np.full_like(mu * E, 1.0 / (2 * np.pi)),
        kappa2=lambda mu, Ep, yp: np.ones_like(mu * Ep * yp),
    )

    def flat_in(r, th, E, yy):
        shape = np.broadcast(r, th, E, yy).shape
        hat = np.maximum(0.0, 1.0 - np.abs(r) / 0.5)
        return np.broadcast_to(hat * np.ones_like(E + yy), shape).copy()

    iso_grids = TransportGrids(n_r=8, n_omega=8, n_e=64)
    field_iso = characteristics_field(iso, flat_in, 0.5, iso_grids, t_end=1.0, n_steps=4000)
    iso_energies = iso_grids.energy_nodes(iso_grids.eps_energy_count(0.5))
    _, ref = solve_separable_energy_model(
        decay=2.0 * np.sqrt(iso_energies),
        emit=np.sqrt(iso_energies),
        collect=np.ones_like(iso_energies),
        phi0=np.ones_like(iso_energies),
        e_weight=iso_grids.energy_weight(len(iso_energies)),
        t_end=1.0,
        n_steps=1000,
    )
    # the data at r = -0.25, the first active node
    hat0 = np.maximum(0.0, 1.0 - np.abs(iso_grids.r_nodes[3]) / 0.5)
    iso_gap = float(np.max(np.abs(field_iso[::4, 0, 0, :] / hat0 - ref)))

    # (c) windowed weak error halves along eps = 1/8 -> 1/16 -> 1/32
    sub = transport_preset("transport-subcritical-1")
    hom = solve_two_scale_transport(sub, phi_in, grids, t_end=1.0, n_steps=150)
    errs = []
    for eps_w in (1 / 8, 1 / 16, 1 / 32):
        sol = solve_characteristics_eps(
            sub, phi_in, eps_w, grids, t_end=1.0, n_steps=150
        )
        errs.append(windowed_weak_error(sol, hom))
    factors = [errs[i] / errs[i + 1] for i in range(2)]

    # (d) the closed memory-kernel route rebuilds psi_hom without the corrector
    closed = solve_closed_kernel_transport(sub, phi_in, grids, t_end=1.0, n_steps=150)
    closed_gap = float(np.max(np.abs(closed.values - dense_psi_hom(hom))))
    elapsed = time.time() - start
    checks = [
        decay_gap <= 1e-8,
        iso_gap <= 1e-6,
        all(1.5 <= f <= 3.0 for f in factors),
        closed_gap <= 1e-5,
        elapsed <= 1200,
    ]
    ok = report(
        8,
        all(checks),
        f"kappa0 decay gap {decay_gap:.2e} (<=1e-8), isotropic cross-module "
        f"gap {iso_gap:.2e} (<=1e-6), halving factors "
        f"{factors[0]:.2f}/{factors[1]:.2f} in [1.5,3], closed-kernel gap "
        f"{closed_gap:.2e} (<=1e-5), {elapsed:.0f}s (<=1200s)",
    )
    assert ok


def test_criterion_09_oscillator_end_to_end():
    nu = YoungMeasure.two_atoms(1.0, 3.0)
    u_in = np.array([1.0, 0.0])
    grid = TimeGrid.from_count(10.0, 10000)
    u = solve_oscillator_limit(nu, u_in, grid)
    ref = cell_averaged_limit(nu, grid.times, u_in)
    sup = float(np.max(np.abs(u - ref)))
    laplace_gap = 0.0
    for p in (0.5, 1.0, 2.0):
        lhs = np.linalg.solve(matrix_B(nu, p), u_in)
        rhs = averaged_rotation_laplace_numeric(nu, p, u_in)
        laplace_gap = max(laplace_gap, float(np.max(np.abs(lhs - rhs))))
    p = 1e4
    tail = regularized_kernel_laplace(nu, p)
    tail_rel = float(np.max(np.abs(p * tail - nu.variance * np.eye(2)))) / nu.variance
    checks = [sup <= 1e-3, laplace_gap <= 1e-5, tail_rel <= 0.01]
    ok = report(
        9,
        all(checks),
        f"two-atom limit sup gap {sup:.2e} (<=1e-3), Laplace identity "
        f"{laplace_gap:.2e} (<=1e-5), p*Ktilde at p=1e4 within {tail_rel:.2%} of Var",
    )
    assert ok


def test_criterion_10_solver_orders():
    def volterra_err(dt):
        grid = TimeGrid(5.0, dt)
        kernel = KernelTable(grid.times, ([2.0], [1.0]), 1.0)
        u = solve_volterra(VolterraProblem(2.0, kernel, None, 1.0), grid)
        exact = 0.5 * (np.exp(-grid.times) + np.exp(-3.0 * grid.times))
        return float(np.max(np.abs(u - exact)))

    ratio = volterra_err(4e-3) / volterra_err(2e-3)
    grid = PeriodicGrid(256)
    sine = CellFunction.from_function(grid, sine_profile(2.0, 0.5))
    h = fluctuation(sine)
    semi_gap = 0.0
    for tau in (0.5, 5.0, 20.0):
        a = semigroup_apply(sine, tau, h, method="matrix-exp")
        b = semigroup_apply(sine, tau, h, method="ode-integrate")
        semi_gap = max(semi_gap, float(np.max(np.abs(a.values - b.values))))
    checks = [3.5 <= ratio <= 4.5, semi_gap <= 1e-8]
    ok = report(
        10,
        all(checks),
        f"volterra halving factor {ratio:.2f} in [3.5,4.5], semigroup route "
        f"gap {semi_gap:.2e} (<=1e-8)",
    )
    assert ok


def test_criterion_11_sweep_determinism(tmp_path):
    outputs = {}
    for workers in (1, 8):
        out = tmp_path / f"workers{workers}"
        cfg = ExperimentConfig(
            kind="boltzmann",
            preset="1",
            placement="inside",
            epsilons=tuple(DEFAULT_SWEEP),
            out_dir=str(out),
            seed=0,
            workers=workers,
        )
        result = run_experiment(cfg)
        assert result.status == 0
        outputs[workers] = out
    identical = all(
        (outputs[1] / name).read_bytes() == (outputs[8] / name).read_bytes()
        for name in ("modes.csv", "norm_diff.csv", "rates.csv")
    )
    ok = report(
        11,
        identical,
        "sweep CSVs byte-identical at worker counts 1 and 8",
    )
    assert ok
