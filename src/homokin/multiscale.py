"""Oscillatory decay ODE and its homogenized limits, end to end.

For du/dt + sigma(x, x/eps) u = f with positive sigma, four routes to the
(weak) limit are implemented and cross-checked:

1. the oscillatory problem itself, in closed form per x-node,
2. the closed form of u_hom, the cell average of the two-scale u0(t, y),
3. the coupled mean/remainder system for (u_hom, r) with <r> = 0,
4. the homogenized Volterra equation with the memory kernel and source
   from :mod:`homokin.kernels`.

Routes 2-4 must agree to solver accuracy; route 1 converges to them only
weakly in x, which is what the weak test-function errors measure.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .cell import CellFunction, cell_average, fluctuation, pole_sum, rk4_step, wrap
from .kernels import KernelTable, build_source_table
from .volterra import TimeGrid, VolterraProblem, march_affine, solve_volterra


@dataclass(frozen=True, eq=False)
class OdeProblem:
    """Cell data of the decay problem at a fixed macroscopic point.

    ``f`` is None or a CellFunction: forcing constant in time, so every
    route keeps a closed form, f (1 - e^{-t sigma}) / sigma per node, and
    the homogenized source is one certified rule per term.  ``epsilon``
    only matters for the oscillatory route.
    """

    sigma: CellFunction
    f: CellFunction | None
    u_in: CellFunction
    t_end: float
    epsilon: float | None = None

    def __post_init__(self) -> None:
        if self.f is not None and not isinstance(self.f, CellFunction):
            raise TypeError("f must be None or a CellFunction")
        if np.min(self.sigma.values) <= 0:
            raise ValueError("decay coefficient must be strictly positive")
        if self.t_end <= 0:
            raise ValueError("final time must be positive")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True, eq=False)
class TwoScaleOdeSolution:
    times: np.ndarray
    u_hom: np.ndarray   # (nt+1,)


@dataclass(frozen=True, eq=False)
class CoupledOdeSolution:
    times: np.ndarray
    u_hom: np.ndarray
    mean_r: np.ndarray  # (nt+1,), the cell mean <r>, zero up to rounding


@dataclass(frozen=True, eq=False)
class EpsOdeSolution:
    times: np.ndarray
    values: np.ndarray  # (nt+1, n_x)


def solve_two_scale_closed(problem: OdeProblem, nt: int = 5000) -> TwoScaleOdeSolution:
    """Closed form of u_hom, the cell average of the two-scale solution u0.

    u0 = e^{-t sigma} u_in + f (1 - e^{-t sigma}) / sigma per cell node, so
    u_hom = <e^{-t sigma} u_in> + <f/sigma> - <e^{-t sigma} f/sigma> is a
    sum over the cell nodes as poles; u0 itself is never formed.
    """
    w = problem.sigma.grid.weights
    sig = problem.sigma.values
    times = np.linspace(0.0, problem.t_end, nt + 1)
    u_hom = pole_sum(sig, w * problem.u_in.values, times)
    if problem.f is not None:
        f_sig = w * problem.f.values / sig
        u_hom += np.sum(f_sig) - pole_sum(sig, f_sig, times)
    return TwoScaleOdeSolution(times, u_hom)


# Largest cell grid the ode kind accepts.  The coupled route's dense step
# costs O(n_cell^3) time and O(n_cell^2) memory to set up.  A whole
# `homokin ode` run (10,000 steps, 2-core host) with this route against one
# with a step-by-step march: 1.00-1.11 s against 1.39-1.52 s at 1280 cell
# nodes; 1.41-1.72 s against 1.43-1.56 s, and a 180 MB peak against 158 MB,
# at 1536; 12.9 s and 1061 MB against 2.3 s and 353 MB at 4096.
COUPLED_MAX_CELLS = 1024


def solve_coupled_system(problem: OdeProblem, grid: TimeGrid) -> CoupledOdeSolution:
    """RK4 march of the mean/remainder system.

    d u_hom = <f> - <sigma> u_hom - <sigma r>
    d r     = -L_sigma r - u_hom L_1 sigma + L_1 f

    with u_hom(0) = <u_in>, r(0) = L_1 u_in; <r> stays zero because every
    right-hand side term is mean-free.  The system is linear and
    time-invariant, so one RK4 step of these coded equations, run on the
    unit vectors of (u_hom, r, 1), is the affine map z <- T z + B_in of
    z = (u_hom, r); :func:`homokin.volterra.march_affine` marches it in
    blocks and observes u_hom and <r> only, so r is never stored.  Set-up
    is O(n_cell^3) time and O(n_cell^2) memory against the O(nt n_cell) of
    a step-by-step march, hence the ``COUPLED_MAX_CELLS`` limit of the
    ``ode`` kind.
    """
    cell = problem.sigma.grid
    n, w = cell.n, cell.weights
    sig = problem.sigma.values
    sig_mean = cell_average(problem.sigma)
    l1sig = fluctuation(problem.sigma).values
    f = problem.f
    favg, fl = (0.0, np.zeros(n)) if f is None else (cell_average(f), fluctuation(f).values)

    def rhs(t: float, u: np.ndarray, r: np.ndarray, c: np.ndarray):
        # one column per unit vector; c multiplies the forcing
        sr = sig[:, None] * r
        sr_mean = w @ sr  # <sigma r>, once for both equations
        du = favg * c - sig_mean * u - sr_mean
        # -L_sigma r = <sigma r> - sigma r
        dr = (sr_mean - sr) - np.outer(l1sig, u) + np.outer(fl, c)
        return du, dr, np.zeros_like(c)

    unit = np.eye(n + 2)
    u_next, r_next, _ = rk4_step(rhs, 0.0, grid.dt, unit[0], unit[1:-1], unit[-1])
    step = np.vstack([u_next, r_next])
    observe = np.zeros((2, n + 1))
    observe[0, 0], observe[1, 1:] = 1.0, w
    z0 = np.concatenate([[cell_average(problem.u_in)], fluctuation(problem.u_in).values])
    y = march_affine(step[:, :-1], step[:, -1:], np.ones((grid.count, 1)), z0, observe)
    return CoupledOdeSolution(grid.times, y[:, 0], y[:, 1])


def solve_homogenized_volterra(problem: OdeProblem, grid: TimeGrid) -> np.ndarray:
    """Memory-kernel route: the pole form of K and the samples of S, then march."""
    kernel = KernelTable.from_cell_coefficient(problem.sigma, grid.dt, grid.count)
    source = build_source_table(
        problem.sigma, problem.u_in, problem.f, grid.dt, grid.count
    )
    vp = VolterraProblem(
        a=cell_average(problem.sigma),
        kernel=kernel,
        source=source,
        u0=cell_average(problem.u_in),
    )
    return solve_volterra(vp, grid)


def solve_eps_exact(
    problem: OdeProblem,
    x_nodes: np.ndarray,
    nt: int = 5000,
) -> EpsOdeSolution:
    """Duhamel evaluation of the oscillatory problem per x-node.

    The cell data is purely periodic, sampled at y = x/eps (analytic
    profile when available, periodic linear interpolation otherwise).
    """
    if problem.epsilon is None:
        raise ValueError("oscillatory route needs problem.epsilon")
    eps = problem.epsilon
    x = np.asarray(x_nodes, dtype=float)
    y = wrap(x / eps)
    sig = problem.sigma.eval_periodic(y)
    u0x = problem.u_in.eval_periodic(y)
    if np.min(sig) <= 0:
        raise ValueError("oscillatory decay coefficient must stay positive")

    times = np.linspace(0.0, problem.t_end, nt + 1)
    decay = np.exp(-np.outer(times, sig))
    values = decay * u0x
    if problem.f is not None:
        values += problem.f.eval_periodic(y) * (1.0 - decay) / sig
    return EpsOdeSolution(times, values)


def weak_test_function_errors(
    x_nodes: np.ndarray,
    diff: np.ndarray,
) -> dict[str, float]:
    """|int diff * phi dx| for the three fixed test functions in x."""
    x = np.asarray(x_nodes)
    dx = 1.0 / len(x)
    tests = {
        "constant": np.ones_like(x),
        "sin": np.sin(2.0 * np.pi * x),
        "hat": np.maximum(0.0, 1.0 - np.abs(2.0 * x - 1.0)),
    }
    return {name: abs(float(np.sum(diff * phi) * dx)) for name, phi in tests.items()}


def three_route_report(problem: OdeProblem, grid: TimeGrid | None = None) -> dict:
    """Run routes 2-4 on one time grid and report sup differences.

    The grid defaults to t_end/10000 so the O(dt^2) errors of the coupled
    and Volterra marches stay below the cross-route tolerance.
    """
    if grid is None:
        grid = TimeGrid.from_count(problem.t_end, 10000)
    closed = solve_two_scale_closed(problem, nt=grid.count)
    coupled = solve_coupled_system(problem, grid)
    volterra_u = solve_homogenized_volterra(problem, grid)
    return {
        "times": grid.times,
        "closed": closed.u_hom,
        "coupled": coupled.u_hom,
        "volterra": volterra_u,
        "sup_closed_coupled": float(np.max(np.abs(closed.u_hom - coupled.u_hom))),
        "sup_closed_volterra": float(np.max(np.abs(closed.u_hom - volterra_u))),
        "sup_coupled_volterra": float(np.max(np.abs(coupled.u_hom - volterra_u))),
        "max_mean_remainder": float(np.max(np.abs(coupled.mean_r))),
    }
