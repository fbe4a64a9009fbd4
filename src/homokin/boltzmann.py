"""Energy-only kinetic toy models with an oscillatory coefficient.

Two scattering placements of the same linear model on E in (E_min, E_max):

    inside:   d phi/dt + sigma(E/eps) phi = int kappa(E'/eps) phi(t, E') dE'
    outside:  d phi/dt + sigma(E/eps) phi = kappa(E/eps) int phi(t, E') dE'

marched with explicit RK4 (time step T/50 by default) on a uniform energy
mesh of size eps/100, fine enough to resolve the oscillation.  The
two-scale limit phi0(t, E, y) solves

    inside:   d phi0/dt + sigma(y) phi0 = intint kappa(y') phi0(t, E', y') dE' dy'
    outside:  d phi0/dt + sigma(y) phi0 = kappa(y) intint phi0(t, E', y') dE' dy'

and phi_hom is its y-average.  The data a(E) b(y) is a product and the
source is constant in E, so phi0 = a(E) X(t, y) + Z(t, y) and only the
cell vectors X, Z are marched.  The homogenized reference is marched with
the same RK4 step as the oscillatory run so the common time-discretization
error cancels from the mode differences instead of flooring them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ConfigError
from .cell import (
    CellFunction, PeriodicGrid, indicator_sine_profile, rk4_step, sine_profile
)
from .diagnostics import (
    EnergyField, ModeSeries, legendre_modes, mode_error, norm_difference
)

PLACEMENTS = ("inside", "outside")
INIT_MODES = ("oscillatory", "profile")
DEFAULT_NODE_BUDGET = 2_000_000

# Sweep values carry a 0.1-period offset against the energy window: with
# 1/eps integer the examples are exactly resonant with (0, 1) and every
# weak-convergence observable collapses to machine zero (the mode-0 error
# and the norm gap vanish identically), leaving nothing to measure.  The
# offset pins the partial-period phase so the sweep errors decay cleanly.
DEFAULT_SWEEP = (1 / 10.1, 1 / 20.1, 1 / 40.1, 1 / 80.1, 1 / 160.1)


@dataclass(frozen=True, eq=False)
class EnergyGrid:
    """Uniform cell-centered energy mesh on (e_min, e_max)."""

    n: int
    e_min: float = 0.0
    e_max: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 1 or self.e_max <= self.e_min:
            raise ValueError("energy grid needs n >= 1 and e_max > e_min")

    @property
    def h(self) -> float:
        return (self.e_max - self.e_min) / self.n

    @property
    def nodes(self) -> np.ndarray:
        return self.e_min + (np.arange(self.n) + 0.5) * self.h

    @property
    def weights(self) -> np.ndarray:
        return np.full(self.n, self.h)

    @classmethod
    def for_epsilon(
        cls,
        epsilon: float,
        nodes_per_period: int = 100,
        e_min: float = 0.0,
        e_max: float = 1.0,
        node_budget: int = DEFAULT_NODE_BUDGET,
    ) -> "EnergyGrid":
        """Mesh of size eps > 0 over nodes_per_period, guarded by a node budget."""
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        n = int(round((e_max - e_min) * nodes_per_period / epsilon))
        if n > node_budget:
            raise MemoryError(
                f"energy mesh would need {n} nodes, budget is {node_budget}"
            )
        return cls(n, e_min, e_max)


@dataclass(frozen=True, eq=False)
class ToyProblem:
    """Coefficients and data of one oscillatory toy run.

    ``init_mode`` selects how the initial profile is read: "oscillatory"
    evaluates it at the fast variable y = E/eps, "profile" at the energy
    itself (a fixed, eps-independent initial shape).  The fixed-profile
    reading is the one under which the kappa-outside placement exhibits
    its faster, second-order weak convergence; with oscillatory data the
    t = 0 projection gap already costs one power of eps for either
    placement.
    """

    sigma: CellFunction
    kappa: CellFunction
    phi_in: CellFunction
    placement: str
    epsilon: float
    t_end: float = 10.0
    init_mode: str = "oscillatory"

    def __post_init__(self) -> None:
        if self.placement not in PLACEMENTS:
            raise ValueError(f"placement must be one of {PLACEMENTS}")
        if self.init_mode not in INIT_MODES:
            raise ValueError(f"init_mode must be one of {INIT_MODES}")
        if np.min(self.sigma.values) <= 0:
            raise ValueError("sigma must be strictly positive")
        if np.min(self.kappa.values) < 0:
            raise ValueError("kappa must be nonnegative")
        if not (0.0 < self.epsilon <= 1.0):
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")


def example_presets(
    example_id: int,
    placement: str,
    epsilon: float,
    n_cell: int = 256,
    t_end: float = 10.0,
    init_mode: str = "oscillatory",
) -> ToyProblem:
    """The three reference coefficient triples of the convergence study."""
    if example_id in (2, 3) and n_cell % 2:
        # half-cell jumps must land exactly between midpoint nodes
        raise ConfigError("n_cell: examples with half-cell jumps need an even count")
    grid = PeriodicGrid(n_cell)
    sine_sigma = sine_profile(2.0, 0.5)
    sine_kappa = sine_profile(1.0, 0.5)
    osc_init = lambda y: 1.0 + np.sin(2.0 * np.pi * y)
    if example_id == 1:
        triple = (sine_sigma, sine_kappa, osc_init)
    elif example_id == 2:
        step_init = lambda y: 1.0 + (np.mod(y, 1.0) <= 0.5)
        triple = (sine_sigma, sine_kappa, step_init)
    elif example_id == 3:
        triple = (
            indicator_sine_profile(2.0, 0.5),
            indicator_sine_profile(1.0, 0.5),
            osc_init,
        )
    else:
        raise ConfigError(f"preset: unknown example id {example_id}, choose 1, 2 or 3")
    sigma_fn, kappa_fn, init_fn = triple
    return ToyProblem(
        CellFunction.from_function(grid, sigma_fn),
        CellFunction.from_function(grid, kappa_fn),
        CellFunction.from_function(grid, init_fn),
        placement,
        epsilon,
        t_end,
        init_mode,
    )


def _rk4_linear_march(phi0: np.ndarray, rhs, times: np.ndarray) -> np.ndarray:
    out = np.empty((len(times),) + phi0.shape)
    out[0] = phi0
    phi = phi0
    step_rhs = lambda t, p: (rhs(p),)
    for j in range(len(times) - 1):
        (phi,) = rk4_step(step_rhs, times[j], times[j + 1] - times[j], phi)
        out[j + 1] = phi
    return out


def solve_toy_eps(
    problem: ToyProblem,
    n_steps: int = 50,
    nodes_per_period: int = 100,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> EnergyField:
    """RK4 march of the oscillatory problem on the eps-resolving mesh."""
    egrid = EnergyGrid.for_epsilon(
        problem.epsilon, nodes_per_period, node_budget=node_budget
    )
    y = np.mod(egrid.nodes / problem.epsilon, 1.0)
    sig = problem.sigma.eval_periodic(y)
    kap = problem.kappa.eval_periodic(y)
    if problem.init_mode == "oscillatory":
        phi0 = problem.phi_in.eval_periodic(y)
    else:
        phi0 = problem.phi_in.eval_periodic(egrid.nodes)
    h = egrid.h
    if problem.placement == "inside":
        rhs = lambda phi: -sig * phi + h * (kap @ phi)
    else:
        rhs = lambda phi: -sig * phi + kap * (h * phi.sum())
    times = np.linspace(0.0, problem.t_end, n_steps + 1)
    values = _rk4_linear_march(phi0, rhs, times)
    return EnergyField(times, egrid.nodes, egrid.weights, values)


@dataclass(frozen=True, eq=False)
class TwoScaleToySolution:
    """The limit phi0(t, E, y) = a(E) X(t, y) + Z(t, y) and its y-mean."""

    times: np.ndarray
    energies: np.ndarray
    e_weights: np.ndarray
    profile: np.ndarray   # a, (nE,)
    cell: np.ndarray      # X and Z, (nt+1, 2, ny)

    @property
    def phi_hom(self) -> np.ndarray:
        """<phi0>_y = a(E) <X>_y + <Z>_y, (nt+1, nE)."""
        means = self.cell.mean(axis=2)
        return np.outer(means[:, 0], self.profile) + means[:, 1:]

    def l2_norm(self) -> float:
        """||phi0||_{L2(t, E, y)}; the E integrals act on the profile a alone."""
        a, we = self.profile, self.e_weights
        x, z = self.cell[:, 0], self.cell[:, 1]
        density = ((we @ a**2) * x + 2.0 * (we @ a) * z) * x + z**2
        return float(np.sqrt(np.trapezoid(density.mean(axis=1), self.times)))


def solve_toy_two_scale(
    problem: ToyProblem,
    n_steps: int = 50,
    n_e: int = 64,
    n_y: int = 256,
) -> TwoScaleToySolution:
    """RK4 march of the two-scale limit as phi0 = a(E) X(t, y) + Z(t, y).

    The data is a product a(E) b(y) and the source is constant in E, so
    X(0) = b, Z(0) = 0, dX/dt = -sigma X and dZ/dt = -sigma Z + source of
    the E-integral A X + Z (A = int a dE; the window (0, 1) has length
    one).  An RK4 step is a polynomial in the linear operator, so this
    is the full (E, y) march step by step, up to rounding.
    """
    egrid, ygrid = EnergyGrid(n_e), PeriodicGrid(n_y)
    sig = problem.sigma.eval_periodic(ygrid.nodes)
    kap = problem.kappa.eval_periodic(ygrid.nodes)
    if problem.init_mode == "oscillatory":
        a, b = np.ones(n_e), problem.phi_in.eval_periodic(ygrid.nodes)
    else:
        a, b = problem.phi_in.eval_periodic(egrid.nodes), np.ones(n_y)
    # mix @ [X; Z] is the E-integral A X + Z; the source enters Z alone
    mix, to_z = np.array([egrid.h * a.sum(), 1.0]), np.array([[0.0], [1.0]])
    if problem.placement == "inside":
        rhs = lambda xz: -sig * xz + to_z * (kap @ (mix @ xz) / n_y)
    else:
        rhs = lambda xz: -sig * xz + to_z * kap * ((mix @ xz).sum() / n_y)
    times = np.linspace(0.0, problem.t_end, n_steps + 1)
    cell = _rk4_linear_march(np.stack([b, np.zeros(n_y)]), rhs, times)
    return TwoScaleToySolution(times, egrid.nodes, egrid.weights, a, cell)


@dataclass(frozen=True, eq=False)
class SweepPointResult:
    epsilon: float
    mode_errors: np.ndarray  # (k_max+1,)
    norm_diff: float
    sup_norm_l2: float       # max_t ||phi_eps(t, .)||_{L2(E)}


def paired_modes(
    eps_field: EnergyField, hom: TwoScaleToySolution, k_max: int
) -> tuple[list[ModeSeries], list[ModeSeries]]:
    """Modes of phi_eps and of phi_hom in one basis on the eps energy grid.

    phi_hom = <X>_y a(E) + <Z>_y has rank two, so its modes are
    <X>_y (a, l_k) + <Z>_y (1, l_k): the profile a is interpolated onto
    the eps grid once and the (nt+1, nE) field is never formed.
    """
    a = np.interp(eps_field.energies, hom.energies, hom.profile)
    eps_modes, profile_modes = legendre_modes(
        eps_field, k_max, np.stack([a, np.ones_like(a)])
    )
    coeffs = hom.cell.mean(axis=2) @ profile_modes  # (nt+1, k_max+1)
    hom_modes = [
        ModeSeries(k, hom.times, coeffs[:, k].copy()) for k in range(k_max + 1)
    ]
    return eps_modes, hom_modes


def sweep_point(
    example_id: int,
    placement: str,
    epsilon: float,
    k_max: int = 8,
    n_steps: int = 50,
    hom_n_e: int = 64,
    hom_n_y: int = 256,
    nodes_per_period: int = 100,
    n_cell: int = 256,
    t_end: float = 10.0,
    init_mode: str = "oscillatory",
) -> SweepPointResult:
    """Errors of one sweep point: per-mode gaps and the norm difference.

    The homogenized reference is marched with the same RK4 step and its
    modes are taken on the oscillatory solver's own energy grid, so the
    two mode series share quadrature and time discretization exactly.
    """
    problem = example_presets(
        example_id, placement, epsilon, n_cell, t_end, init_mode
    )
    eps_field = solve_toy_eps(problem, n_steps, nodes_per_period)
    hom = solve_toy_two_scale(problem, n_steps, hom_n_e, hom_n_y)
    eps_modes, hom_modes = paired_modes(eps_field, hom, k_max)
    errors = np.array(
        [mode_error(e, hmode) for e, hmode in zip(eps_modes, hom_modes)]
    )
    ndiff = norm_difference(eps_field, hom)
    sup_l2 = float(np.max(np.sqrt((eps_field.values**2) @ eps_field.e_weights)))
    return SweepPointResult(epsilon, errors, ndiff, sup_l2)
