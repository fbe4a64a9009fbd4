"""Workload definitions: seeded inputs, jobs, output checks, computed counts.

A workload is a fixed list of jobs. Each job calls the library through
``homokin.harness.run_experiment`` or one public function and returns its
output; its check turns that output into pass/fail plus a detail line. The
seed changes input values and job order, never problem sizes or regimes,
so the work done and the pass/fail status do not depend on it.

Jobs call the library through module attributes (``kernels.f``, not a
name imported here), so the traced run's wrappers see the top-level call.

Job sizes are module constants: the computed counts are derived from them
alone and must repeat exactly across seeds.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from homokin import boltzmann, harness, kernels, multiscale, oscillator
from homokin.boltzmann import DEFAULT_SWEEP, EnergyGrid
from homokin.cell import (
    CellFunction,
    PeriodicGrid,
    cell_average,
    sine_profile,
    two_valued_profile,
)
from homokin.harness import ExperimentConfig
from homokin.multiscale import OdeProblem
from homokin.oscillator import YoungMeasure, cell_averaged_limit, talbot_nodes_for
from homokin.transport import TransportGrids
from homokin.volterra import TimeGrid

# kernel-tables: n = 4096 keeps KernelTable on its matrix-free RK4 path.
# Abscissas p >= 1.5 put the Laplace horizon max(20, 30/p) at 20, so one
# table holds 4000 lags of 5e-3 instead of the 60000 the CLI's p = 0.1 needs.
TARTAR_N = 4096
TARTAR_PS = (1.5, 2.0, 5.0, 10.0)
TARTAR_DT = 5e-3  # verify_tartar_equivalence default table step
DUMP_DT, DUMP_COUNT = 1e-2, 2000  # the kernel-dump kind's table

# volterra-march
ODE_STEPS = 10000  # ode and oscillator kinds (harness defaults)
OSC_CLI_STEPS, OSC_T = 10000, 10.0
MARCH_N_CELL, MARCH_T, MARCH_STEPS = 256, 50.0, 20000
OSC_ATOMS = ((1.0, 3.0), (1.0, 6.0))
OSC_STEPS = 4000

# toy-sweep: the README's boltzmann runs on the default sweep,
# eps = 1/(10 2^k + 0.1) for k = 0..4. Adding k = 5 makes a pass 4-5 times
# longer and +-10% noisy, because BLAS threads then oversubscribe the pool.
TOY_EPS = tuple(DEFAULT_SWEEP)
TOY_CASES = tuple(
    (ex, placement, init)
    for ex in ("1", "2", "3")
    for placement, init in (("inside", "oscillatory"), ("outside", "profile"))
)
TOY_STEPS = 50  # sweep_point's RK4 step count

# transport: README command with the r-axis cut from 32 to 8 labels and the
# cell axis from 128 to 64 nodes; the hat support still covers 1/4 of r.
TRANSPORT_EPS = (0.125, 0.0625, 0.03125)
TRANSPORT_GRIDS = dict(n_e=48, n_r=8, n_omega=16, n_y=64)
TRANSPORT_STEPS, TRANSPORT_SUPPORT = 150, 0.5  # fixed inside the transport kind

WORKLOAD_NAMES = ("kernel-tables", "volterra-march", "toy-sweep", "transport")


@dataclass
class Job:
    """One unit of user work; ``run(out_dir)`` returns what ``check`` reads."""

    name: str
    run: Callable[[str], object]
    check: Callable[[object], tuple[bool, str]]
    known_defect: str | None = None


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    seed: int
    inputs: dict = field(default_factory=dict)
    # (example, placement, eps, init_mode) of every pooled sweep point, for
    # the in-process replay of the traced run
    sweep_points: list = field(default_factory=list)


def job_order(seed: int, n_jobs: int, n_passes: int) -> list[list[int]]:
    """Seeded job order for each pass."""
    rng = random.Random(seed)
    orders = []
    for _ in range(n_passes):
        order = list(range(n_jobs))
        rng.shuffle(order)
        orders.append(order)
    return orders


def random_profile(rng: np.random.Generator) -> Callable:
    """Smooth positive periodic profile: mean in [1.5, 2.5], three harmonics.

    The harmonics' total amplitude is 40% of the mean, so sigma stays in
    [0.6, 1.4] times its mean whatever the seed.
    """
    mean = rng.uniform(1.5, 2.5)
    k = np.arange(1, 4)
    a, b = rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, 3)
    scale = 0.4 * mean / float(np.sum(np.abs(a) + np.abs(b)))

    def profile(y):
        ang = 2.0 * np.pi * np.multiply.outer(np.asarray(y, dtype=float), k)
        return mean + scale * (np.sin(ang) @ a + np.cos(ang) @ b)

    return profile


# ----------------------------------------------------------------- checks


def _read_columns(path: str) -> dict[str, list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: [row[i] for row in rows[1:]] for i, name in enumerate(rows[0])}


def _floats(cols, name) -> np.ndarray:
    return np.array([float(v) for v in cols[name]])


def _ok_status(result) -> tuple[bool, str] | None:
    if result.status != 0:
        return False, f"status {result.status}: {result.message}"
    return None


def kernel_slope_at_zero(sigma: CellFunction) -> float:
    """K'(0) = -<sigma L_sigma h>, h = sigma - <sigma>, on the cell grid."""
    w, s = sigma.grid.weights, sigma.values
    h = s - cell_average(sigma)
    lh = s * h - w @ (s * h)
    return -float(w @ (s * lh))


def check_tartar(sigma: CellFunction, report) -> tuple[bool, str]:
    """Criterion 01 gate plus a gate on the numeric Laplace route.

    The numeric route is the trapezoid rule on the tabulated kernel. Its
    Euler-Maclaurin leading error is (dt^2/12)(p K(0) - K'(0)); the next
    term is O(dt^4) and the RK4 table error is far below both, so the gate
    allows 1.5 times the leading term plus the reported truncation bound.
    """
    rel_ok = report.max_rel_error <= 1e-6
    var = float(sigma.grid.weights @ sigma.values**2) - cell_average(sigma) ** 2
    lead = TARTAR_DT**2 / 12.0 * np.abs(report.ps * var - kernel_slope_at_zero(sigma))
    tol = 1.5 * lead + report.numeric_tail
    gap = np.abs(report.numeric - report.mhat)
    num_ok = bool(np.all(gap <= tol))
    worst = float(np.max(gap / tol))
    return rel_ok and num_ok, (
        f"resolvent/harmonic rel {report.max_rel_error:.2e} (<=1e-6), numeric route "
        f"gap {float(np.max(gap)):.2e} at {worst:.2f} of its O(dt^2) tolerance (<=1)"
    )


def check_kernel_dump(sigma: CellFunction, result) -> tuple[bool, str]:
    """K(0) = Var sigma, K >= 0 and K non-increasing, to round-off of Var."""
    bad = _ok_status(result)
    if bad:
        return bad
    k = _floats(_read_columns(result.files["kernel.csv"]), "K")
    var = float(sigma.grid.weights @ sigma.values**2) - cell_average(sigma) ** 2
    roundoff = 64.0 * np.finfo(float).eps * var
    k0_gap = abs(k[0] - var)
    rise = float(np.max(np.diff(k)))
    checks = [
        len(k) == DUMP_COUNT + 1, k0_gap <= roundoff, k.min() >= -roundoff, rise <= roundoff
    ]
    return all(checks), (
        f"{len(k)} lags, |K(0)-Var| {k0_gap:.1e}, min K {k.min():.1e}, "
        f"max rise {rise:.1e} (tolerance {roundoff:.1e})"
    )


def check_ode(result) -> tuple[bool, str]:
    """Criterion 03: the three homogenized routes agree to 1e-5."""
    bad = _ok_status(result)
    if bad:
        return bad
    cols = _read_columns(result.files["ode_summary.csv"])
    sups = dict(zip(cols["pair"], _floats(cols, "sup_difference")))
    worst = max(sups[p] for p in ("closed-coupled", "closed-volterra", "coupled-volterra"))
    return worst <= 1e-5, f"route sups {worst:.2e} (<=1e-5)"


def check_oscillator_cli(result) -> tuple[bool, str]:
    """Criterion 09: limit solution within 1e-3 of the averaged rotations."""
    bad = _ok_status(result)
    if bad:
        return bad
    sol = _read_columns(result.files["oscillator_solution.csv"])
    ref = _read_columns(result.files["oscillator_reference.csv"])
    gap = max(
        float(np.max(np.abs(_floats(sol, c) - _floats(ref, c)))) for c in ("u1", "u2")
    )
    return gap <= 1e-3, f"limit gap {gap:.2e} (<=1e-3)"


def closed_form_mean(sigma: CellFunction, u_in: CellFunction, times, chunk=2048):
    """u_hom(t) = <u_in e^{-sigma t}>, evaluated in chunks of times."""
    wu = sigma.grid.weights * u_in.values
    out = np.empty(len(times))
    for i in range(0, len(times), chunk):
        out[i : i + chunk] = np.exp(-np.outer(times[i : i + chunk], sigma.values)) @ wu
    return out


def check_march(sigma, u_in, grid, u) -> tuple[bool, str]:
    """Scalar long march against the closed form, 1e-5 as in criterion 03."""
    gap = float(np.max(np.abs(u - closed_form_mean(sigma, u_in, grid.times))))
    return gap <= 1e-5, f"closed-form gap {gap:.2e} (<=1e-5)"


def check_oscillator_limit(nu, u_in, grid, u) -> tuple[bool, str]:
    """Criterion 09 gate on a seeded two-atom measure."""
    gap = float(np.max(np.abs(u - cell_averaged_limit(nu, grid.times, u_in))))
    return gap <= 1e-3, f"limit gap {gap:.2e} (<=1e-3)"


def check_toy(example: str, placement: str, result) -> tuple[bool, str]:
    """Criteria 04-06 on one sweep.

    Inside placement: e_k strictly decreasing for k = 0..7 and slope(e_0)
    in [0.7, 1.1] (example 1, also norm ratio <= 0.2) or [0.6, 1.2]
    (examples 2, 3). Outside with the fixed profile: slope(e_0) in
    [1.6, 2.3] for example 1; examples 2 and 3 are only reported there, so
    they must give finite positive errors and a finite slope.
    """
    bad = _ok_status(result)
    if bad:
        return bad
    modes = _read_columns(result.files["modes.csv"])
    eps = sorted(set(_floats(modes, "epsilon")), reverse=True)
    ks = np.array([int(v) for v in modes["k"]])
    e = _floats(modes, "e_k").reshape(len(eps), -1)
    slope0 = float(_floats(_read_columns(result.files["rates.csv"]), "slope")[0])
    nd = _floats(_read_columns(result.files["norm_diff.csv"]), "norm_diff")
    if ks.max() < 7 or not np.isfinite(slope0) or np.any(e <= 0):
        return False, f"incomplete sweep output (slope {slope0})"
    if placement == "inside":
        mono = all(np.all(np.diff(e[:, k]) < 0) for k in range(8))
        lo, hi = (0.7, 1.1) if example == "1" else (0.6, 1.2)
        ok = mono and lo <= slope0 <= hi
        detail = f"e_k decreasing k=0..7 {mono}, slope(e_0) {slope0:.3f} in [{lo},{hi}]"
        if example == "1":
            ratio = nd[-1] / nd[0]
            ok = ok and ratio <= 0.2
            detail += f", norm ratio {ratio:.3f} (<=0.2)"
        return ok, detail
    if example == "1":
        return 1.6 <= slope0 <= 2.3, f"slope(e_0) {slope0:.3f} in [1.6,2.3]"
    return True, f"slope(e_0) {slope0:.3f} (reported only)"


def check_transport(result) -> tuple[bool, str]:
    """Criterion 07 (margin, quotient) and criterion 08 (halving factors)."""
    bad = _ok_status(result)
    if bad:
        return bad
    chk = _read_columns(result.files["transport_checks.csv"])
    margin, quot = _floats(chk, "margin"), _floats(chk, "min_quotient")
    weak = _floats(_read_columns(result.files["transport_weak.csv"]), "weak_error")
    factors = weak[:-1] / weak[1:]
    ok = (
        bool(np.all(margin > 0))
        and bool(np.all(quot >= margin - 1e-6))
        and bool(np.all((factors >= 1.5) & (factors <= 3.0)))
    )
    return ok, (
        f"min margin {margin.min():.4f} > 0, quotient-margin {np.min(quot - margin):.4f} "
        f">= -1e-6, halving factors {'/'.join(f'{f:.2f}' for f in factors)} in [1.5,3]"
    )


# --------------------------------------------------------------- builders


def _cli(kind: str, **fields) -> Callable[[str], object]:
    return lambda out: harness.run_experiment(
        ExperimentConfig(kind=kind, out_dir=out, **fields)
    )


def _kernel_tables(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    grid = PeriodicGrid(TARTAR_N)
    sine = CellFunction.from_function(grid, sine_profile(2.0, 0.5))
    rand = CellFunction.from_function(grid, random_profile(rng))
    two = CellFunction.from_function(grid, two_valued_profile(1.0, 3.0))
    jobs = [
        Job(
            "tartar-sine",
            lambda out: kernels.verify_tartar_equivalence(sine, TARTAR_PS),
            lambda rep: check_tartar(sine, rep),
        ),
        Job(
            "tartar-random",
            lambda out: kernels.verify_tartar_equivalence(rand, TARTAR_PS),
            lambda rep: check_tartar(rand, rep),
        ),
        Job(
            "kernel-dump-two-valued",
            _cli("kernel-dump", preset="two-valued"),
            lambda res: check_kernel_dump(two, res),
        ),
    ]
    return Workload("kernel-tables", jobs, seed, {"random_sigma": rand.values})


def _volterra_march(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    cell = PeriodicGrid(MARCH_N_CELL)
    sigma = CellFunction.from_function(cell, random_profile(rng))
    amp, phase = rng.uniform(0.2, 0.8), rng.uniform(0.0, 2.0 * np.pi)
    u_in = CellFunction.from_function(
        cell, lambda y: 1.0 + amp * np.sin(2.0 * np.pi * y + phase)
    )
    march_grid = TimeGrid.from_count(MARCH_T, MARCH_STEPS)
    problem = OdeProblem(sigma, None, u_in, MARCH_T)
    osc_grid = TimeGrid.from_count(OSC_T, OSC_STEPS)
    jobs = [
        Job("ode", _cli("ode"), check_ode),
        Job("oscillator", _cli("oscillator"), check_oscillator_cli),
        Job(
            "march-random",
            lambda out: multiscale.solve_homogenized_volterra(problem, march_grid),
            lambda u: check_march(sigma, u_in, march_grid, u),
        ),
    ]
    osc_inputs = []
    for atoms in OSC_ATOMS:
        w = rng.uniform(0.3, 0.7)
        nu = YoungMeasure(np.array(atoms), np.array([w, 1.0 - w]))
        angle = rng.uniform(0.0, 2.0 * np.pi)
        u0 = np.array([np.cos(angle), np.sin(angle)])
        osc_inputs.append((w, angle))
        jobs.append(
            Job(
                f"osc-limit-{int(atoms[0])}-{int(atoms[1])}",
                lambda out, nu=nu, u0=u0: oscillator.solve_oscillator_limit(
                    nu, u0, osc_grid
                ),
                lambda u, nu=nu, u0=u0: check_oscillator_limit(nu, u0, osc_grid, u),
                known_defect=(
                    "fixed-Talbot kernel diverges for atoms {1,6} at T=10 (ROADMAP item 2)"
                    if atoms == (1.0, 6.0)
                    else None
                ),
            )
        )
    return Workload(
        "volterra-march",
        jobs,
        seed,
        {"march_sigma": sigma.values, "u_in": u_in.values, "osc": osc_inputs},
    )


def _toy_sweep(seed: int, workers: int) -> Workload:
    jobs = [
        Job(
            f"boltzmann-{ex}-{placement}",
            _cli(
                "boltzmann",
                preset=ex,
                placement=placement,
                init_mode=init,
                epsilons=TOY_EPS,
                workers=workers,
            ),
            lambda res, ex=ex, placement=placement: check_toy(ex, placement, res),
        )
        for ex, placement, init in TOY_CASES
    ]
    points = [
        (int(ex), placement, eps, init)
        for ex, placement, init in TOY_CASES
        for eps in TOY_EPS
    ]
    return Workload("toy-sweep", jobs, seed, {"workers": workers}, sweep_points=points)


def _transport(seed: int) -> Workload:
    # the seed draws the coercivity trial vectors
    trial_seed = int(np.random.default_rng(seed).integers(0, 2**31 - 1))
    jobs = [
        Job(
            "transport",
            _cli(
                "transport",
                preset="transport-subcritical-1",
                epsilons=TRANSPORT_EPS,
                seed=trial_seed,
                **TRANSPORT_GRIDS,
            ),
            check_transport,
        )
    ]
    return Workload("transport", jobs, seed, {"coercivity_seed": trial_seed})


def build(name: str, seed: int, workers: int) -> Workload:
    """Inputs and jobs of one workload; ``workers`` sizes the sweep pool."""
    if name == "kernel-tables":
        return _kernel_tables(seed)
    if name == "volterra-march":
        return _volterra_march(seed)
    if name == "toy-sweep":
        return _toy_sweep(seed, workers)
    if name == "transport":
        return _transport(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOAD_NAMES)}")


def replay_sweep_point(point) -> None:
    """One pooled sweep point, run in this process for the traced run."""
    example, placement, eps, init = point
    boltzmann.sweep_point(example, placement, eps, init_mode=init)


# ---------------------------------------------------------- computed counts


def _history_madds(dim: int, steps: int) -> int:
    return dim * dim * steps * (steps + 1) // 2


def _talbot_evals(atoms, t_end: float, steps: int) -> int:
    nu = YoungMeasure(np.array(atoms), np.array([0.5, 0.5]))
    dt = t_end / steps
    return sum(talbot_nodes_for(nu, j * dt) for j in range(1, steps + 1))


def computed_counts(wl: Workload) -> dict[str, int | float]:
    """Work per pass derived from the workload's job sizes (never from a run).

    volterra.history_madds sums d^2 N(N+1)/2 over the Volterra marches;
    oscillator.talbot_evals sums the Talbot node count over every lag of
    every kernel table (it depends only on the largest atom); the toy and
    transport counts multiply mesh sizes by RK4 steps.
    """
    counts = {
        "volterra.history_madds": 0,
        "oscillator.talbot_evals": 0,
        "boltzmann.toy_eps_node_steps": 0,
        "transport.two_scale_cell_steps": 0,
        "transport.characteristics_node_steps": 0,
        "transport.two_scale_active_frac": 0.0,
    }
    name = wl.name
    if name == "volterra-march":
        counts["volterra.history_madds"] = (
            _history_madds(1, ODE_STEPS)  # ode kind: homogenized route
            + _history_madds(2, OSC_CLI_STEPS)  # oscillator kind
            + _history_madds(1, MARCH_STEPS)
            + len(OSC_ATOMS) * _history_madds(2, OSC_STEPS)
        )
        counts["oscillator.talbot_evals"] = 2 * _talbot_evals(
            (1.0, 3.0), OSC_T, OSC_CLI_STEPS  # the kind tabulates the kernel twice
        ) + sum(_talbot_evals(atoms, OSC_T, OSC_STEPS) for atoms in OSC_ATOMS)
    elif name == "toy-sweep":
        nodes = sum(EnergyGrid.for_epsilon(eps).n for eps in TOY_EPS)
        counts["boltzmann.toy_eps_node_steps"] = len(TOY_CASES) * nodes * TOY_STEPS
    elif name == "transport":
        grids = TransportGrids(**TRANSPORT_GRIDS)
        active = int(np.sum(np.abs(grids.r_nodes) < TRANSPORT_SUPPORT))
        counts["transport.two_scale_cell_steps"] = (
            grids.n_r * grids.n_omega * grids.n_e * grids.n_y * TRANSPORT_STEPS
        )
        counts["transport.characteristics_node_steps"] = sum(
            active * grids.n_omega * grids.eps_energy_count(eps) * TRANSPORT_STEPS
            for eps in TRANSPORT_EPS
        )
        counts["transport.two_scale_active_frac"] = active / grids.n_r
    return counts
