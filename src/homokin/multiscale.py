"""Oscillatory decay ODE and its homogenized limits, end to end.

For du/dt + sigma(x, x/eps) u = f with positive sigma, four routes to the
(weak) limit are implemented and cross-checked:

1. the oscillatory problem itself, solved exactly per x-node (Duhamel),
2. the two-scale closed form u0(t, y) on the cell, averaged in y,
3. the coupled mean/remainder system for (u_hom, r) with <r> = 0,
4. the homogenized Volterra equation with the memory kernel and source
   from :mod:`homokin.kernels`.

Routes 2-4 must agree to solver accuracy; route 1 converges to them only
weakly in x, which is what the windowed-average diagnostics measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cell import CellFunction, CellOperator, cell_average, fluctuation, rk4_step
from .kernels import KernelTable, build_source_table
from .volterra import TimeGrid, VolterraProblem, solve_volterra


@dataclass(frozen=True, eq=False)
class OdeProblem:
    """Cell data of the decay problem at a fixed macroscopic point.

    ``f`` is None, a CellFunction (time-independent forcing), or a
    callable t -> cell-values array.  ``epsilon`` only matters for the
    oscillatory route.
    """

    sigma: CellFunction
    f: object
    u_in: CellFunction
    t_end: float
    epsilon: float | None = None

    def __post_init__(self) -> None:
        if np.min(self.sigma.values) <= 0:
            raise ValueError("decay coefficient must be strictly positive")
        if self.t_end <= 0:
            raise ValueError("final time must be positive")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True, eq=False)
class TwoScaleOdeSolution:
    times: np.ndarray
    u0: np.ndarray      # (nt+1, n_cell)
    u_hom: np.ndarray   # (nt+1,)


@dataclass(frozen=True, eq=False)
class CoupledOdeSolution:
    times: np.ndarray
    u_hom: np.ndarray
    r: np.ndarray       # (nt+1, n_cell), zero cell mean

    def max_mean_remainder(self, weights: np.ndarray) -> float:
        return float(np.max(np.abs(self.r @ weights)))


@dataclass(frozen=True, eq=False)
class EpsOdeSolution:
    times: np.ndarray
    x_nodes: np.ndarray
    epsilon: float
    values: np.ndarray  # (nt+1, n_x)


def _forcing_at(problem: OdeProblem, t: float) -> np.ndarray | None:
    f = problem.f
    if f is None:
        return None
    if isinstance(f, CellFunction):
        return f.values
    return np.asarray(f(t), dtype=float)


def _add_duhamel(values: np.ndarray, times: np.ndarray, sig, forcing: Callable) -> None:
    """values[j] += int_0^{t_j} e^{-(t_j - s) sig} forcing(s) ds, in place.

    Trapezoid rule in s on the uniform grid ``times``, with one exact decay
    factor per step: duh <- e duh + dt/2 (e f_{j-1} + f_j), e = e^{-dt sig}.
    """
    dt = times[1] - times[0]
    e = np.exp(-sig * dt)
    duh = np.zeros_like(sig)
    fprev = forcing(0.0)
    for j in range(1, len(times)):
        fnext = forcing(times[j])
        duh = e * duh + 0.5 * dt * (e * fprev + fnext)
        values[j] += duh
        fprev = fnext


def solve_two_scale_closed(problem: OdeProblem, nt: int = 5000) -> TwoScaleOdeSolution:
    """Closed-form two-scale solution on the cell grid.

    Exact for forcing that is constant in time; trapezoid-in-time Duhamel
    otherwise.  u_hom is the cell average of u0.
    """
    grid = problem.sigma.grid
    sig = problem.sigma.values
    times = np.linspace(0.0, problem.t_end, nt + 1)
    decay = np.exp(-np.outer(times, sig))
    u0 = decay * problem.u_in.values
    f = problem.f
    if isinstance(f, CellFunction):
        u0 = u0 + f.values * (1.0 - decay) / sig
    elif callable(f):
        _add_duhamel(u0, times, sig, lambda t: np.asarray(f(t), dtype=float))
    elif f is not None:
        raise TypeError("f must be None, a CellFunction, or a callable")
    return TwoScaleOdeSolution(times, u0, u0 @ grid.weights)


def solve_coupled_system(problem: OdeProblem, grid: TimeGrid) -> CoupledOdeSolution:
    """RK4 march of the mean/remainder system.

    d u_hom = <f> - <sigma> u_hom - <sigma r>
    d r     = -L_sigma r - u_hom L_1 sigma + L_1 f

    with u_hom(0) = <u_in>, r(0) = L_1 u_in; <r> stays zero because every
    right-hand side term is mean-free.
    """
    cell = problem.sigma.grid
    w = cell.weights
    sig = problem.sigma.values
    sig_mean = cell_average(problem.sigma)
    l1sig = fluctuation(problem.sigma).values
    op = CellOperator(problem.sigma)

    def rhs(t: float, u: float, r: np.ndarray):
        fv = _forcing_at(problem, t)
        if fv is None:
            favg, fl = 0.0, 0.0
        else:
            favg = float(w @ fv)
            fl = fv - favg
        du = favg - sig_mean * u - float(w @ (sig * r))
        dr = -op.apply(r) - u * l1sig + fl
        return du, dr

    nt, dt = grid.count, grid.dt
    times = grid.times
    u_hom = np.empty(nt + 1)
    r_hist = np.empty((nt + 1, cell.n))
    u = float(cell_average(problem.u_in))
    r = fluctuation(problem.u_in).values.copy()
    u_hom[0], r_hist[0] = u, r
    for j in range(nt):
        u, r = rk4_step(rhs, times[j], dt, u, r)
        u_hom[j + 1], r_hist[j + 1] = u, r
    return CoupledOdeSolution(times, u_hom, r_hist)


def solve_homogenized_volterra(problem: OdeProblem, grid: TimeGrid) -> np.ndarray:
    """Memory-kernel route: tabulate K and S on the grid, then march."""
    kernel = KernelTable.from_cell_coefficient(problem.sigma, grid.dt, grid.count)
    source = build_source_table(
        problem.sigma, problem.u_in, problem.f, grid.dt, grid.count
    )
    vp = VolterraProblem(
        dim=1,
        a=cell_average(problem.sigma),
        kernel=kernel,
        source=source.values,
        u0=cell_average(problem.u_in),
    )
    return solve_volterra(vp, grid)


def solve_eps_exact(
    problem: OdeProblem,
    x_nodes: np.ndarray,
    nt: int = 5000,
    sigma_xy: Callable | None = None,
    u_in_xy: Callable | None = None,
) -> EpsOdeSolution:
    """Duhamel evaluation of the oscillatory problem per x-node.

    By default the cell data is purely periodic, sampled at y = x/eps
    (analytic profile when available, periodic linear interpolation
    otherwise).  ``sigma_xy`` / ``u_in_xy`` override with genuinely
    x-modulated coefficients, called as fn(x, y) on arrays.
    """
    if problem.epsilon is None:
        raise ValueError("oscillatory route needs problem.epsilon")
    eps = problem.epsilon
    x = np.asarray(x_nodes, dtype=float)
    y = np.mod(x / eps, 1.0)
    sig = sigma_xy(x, y) if sigma_xy is not None else problem.sigma.eval_periodic(y)
    u0x = u_in_xy(x, y) if u_in_xy is not None else problem.u_in.eval_periodic(y)
    if np.min(sig) <= 0:
        raise ValueError("oscillatory decay coefficient must stay positive")

    times = np.linspace(0.0, problem.t_end, nt + 1)
    values = np.exp(-np.outer(times, sig)) * u0x
    f = problem.f
    if f is not None:
        if isinstance(f, CellFunction):
            fx = lambda t: f.eval_periodic(y)
        elif callable(f):
            fx = lambda t: CellFunction(
                problem.sigma.grid, np.asarray(f(t), dtype=float)
            ).eval_periodic(y)
        else:
            raise TypeError("f must be None, a CellFunction, or a callable")
        _add_duhamel(values, times, sig, fx)
    return EpsOdeSolution(times, x, eps, values)


def two_scale_reference_on_x(
    sigma_xy: Callable,
    u_in_xy: Callable,
    x_nodes: np.ndarray,
    cell_nodes: np.ndarray,
    t: float,
) -> np.ndarray:
    """u_hom(t, x) for x-modulated data: per-x cell average of the closed form."""
    x = np.asarray(x_nodes, dtype=float)[:, None]
    y = np.asarray(cell_nodes, dtype=float)[None, :]
    return np.mean(u_in_xy(x, y) * np.exp(-sigma_xy(x, y) * t), axis=1)


def windowed_average_errors(
    x_nodes: np.ndarray,
    diff: np.ndarray,
    windows,
) -> np.ndarray:
    """|window average of diff| per window, midpoint quadrature in x."""
    x = np.asarray(x_nodes)
    out = []
    for a, b in windows:
        mask = (x >= a) & (x < b)
        if not np.any(mask):
            raise ValueError(f"window ({a}, {b}) contains no x-nodes")
        out.append(abs(float(np.mean(diff[mask]))))
    return np.array(out)


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


def three_route_report(
    problem: OdeProblem,
    volterra_grid: TimeGrid | None = None,
    coupled_nt: int | None = None,
) -> dict:
    """Run routes 2-4 on a shared time horizon and report sup differences.

    The Volterra grid defaults to t_end/10000 so its O(dt^2) error stays
    below the cross-route tolerance; the other two routes run on the same
    grid by default for a node-aligned comparison.
    """
    if volterra_grid is None:
        volterra_grid = TimeGrid.from_count(problem.t_end, 10000)
    if coupled_nt is None:
        coupled_nt = volterra_grid.count
    closed = solve_two_scale_closed(problem, nt=volterra_grid.count)
    coupled = solve_coupled_system(problem, TimeGrid.from_count(problem.t_end, coupled_nt))
    volterra_u = solve_homogenized_volterra(problem, volterra_grid)
    coupled_on_grid = np.interp(volterra_grid.times, coupled.times, coupled.u_hom)
    return {
        "times": volterra_grid.times,
        "closed": closed.u_hom,
        "coupled": coupled_on_grid,
        "volterra": volterra_u,
        "sup_closed_coupled": float(np.max(np.abs(closed.u_hom - coupled_on_grid))),
        "sup_closed_volterra": float(np.max(np.abs(closed.u_hom - volterra_u))),
        "sup_coupled_volterra": float(np.max(np.abs(coupled_on_grid - volterra_u))),
        "max_mean_remainder": coupled.max_mean_remainder(problem.sigma.grid.weights),
    }

