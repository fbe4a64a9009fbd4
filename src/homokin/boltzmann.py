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

Both generators are a diagonal plus a rank-one term, so one march in
moment form (``_rank_one_march``) steps both, each RK4 step a few passes
over the state, written into a reused buffer and handed out a block of
steps at a time.  ``sweep`` solves the limit, which does not depend on
eps, once per sweep.  Each sweep point builds the discrete Legendre basis
on its eps mesh in closed form and reduces each block of its eps run as
it comes (modes in that basis and L2(E) norms), so no (t, E) field is
formed.  sigma and kappa repeat every p = eps/h nodes, so where p is an
integer below n to rounding the mesh folds and the run is marched over
one period, with sums over each residue mod p standing in for the grid
(``_reduce_eps_run``): a few passes over the mesh a point, not about 20
a step.  A mesh that does not fold is marched whole, as ``solve_toy_eps``
marches every mesh.  The points of a sweep run one after another, in
the caller's order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import ConfigError
from .cell import (
    CellFunction, PeriodicGrid, indicator_sine_profile, march_blocks, rk4_step,
    sine_profile, wrap,
)
from .diagnostics import EnergyField, orthonormal_polynomials

PLACEMENTS = ("inside", "outside")
INIT_MODES = ("oscillatory", "profile")
DEFAULT_NODE_BUDGET = 2_000_000
# Floats in one block of march states, 256 kB: a folded sweep point's whole run
# (300 floats a state) is one block, and a 16,000-node mesh that does not fold
# takes two steps a block.  Marching every point's whole mesh, the six README
# sweeps took 218-236 ms a pass from one step a block to 512 kB in one set of
# alternating runs and 160-182 ms in another (2-core host), within the noise.
MARCH_CHUNK = 1 << 15

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
        if self.n < 1 or not 0 <= self.e_min < self.e_max < np.inf:  # False for NaN
            raise ValueError("energy grid needs n >= 1 and 0 <= e_min < e_max < inf")

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
        cls(1, e_min, e_max)  # ValueError for a window that is not finite and ordered
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
    placement.  The three cell functions share one grid, on which
    ``solve_toy_two_scale`` marches the limit; the eps run evaluates them
    at y = E/eps.
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
        if not self.sigma.grid.n == self.kappa.grid.n == self.phi_in.grid.n:
            raise ValueError("sigma, kappa and phi_in must be sampled on one cell grid")


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
        step_init = lambda y: 1.0 + (wrap(y) <= 0.5)
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


def _rank_one_march(decay, emit, collect, phi0, times):
    """RK4 states of d phi/dt = -decay phi + emit <collect, phi> on uniform times.

    The generator is a diagonal plus a rank-one term, so one RK4 step is
    phi -> P phi + R^T (V phi) with the four moment rows
    V_k = collect (-decay)^k.  Its moments m_k = <V_k, phi> obey
    m_k' = m_{k+1} + <V_k, emit> m_0, and the cut m_4 := 0 leaves the phi
    part of an RK4 step exact, as four stages reach m_3 at most: P and the
    rows of R are ``rk4_step`` of that joint system from (1, 0) and from
    (0, e_k).  A step then reads V, R, P and phi once.  Energy sums run
    through ``np.einsum``, not BLAS, so the states do not depend on the
    BLAS thread count.  Returns :func:`homokin.cell.march_blocks` of the
    step, blocks of (k, phi0.size) states.
    """
    # the powers by repeated multiplication, rounded as a cumprod rounds them
    moments = np.empty((4, len(decay)))
    moments[0], moments[1] = collect, -decay
    moments[2] = moments[1] * moments[1]
    moments[3] = moments[2] * moments[1]
    moments[1:] *= collect
    feed = np.einsum("kn,n->k", moments, emit)
    shift = np.eye(4, k=1)
    rhs = lambda t, phi, m: (-decay * phi + emit * m[0], shift @ m + feed * m[0])
    dt = (times[-1] - times[0]) / (len(times) - 1)
    keep, _ = rk4_step(rhs, 0.0, dt, np.ones_like(phi0), np.zeros(4))
    spread = np.empty((4, phi0.size))
    for row, unit in zip(spread, np.eye(4)):
        row[:], _ = rk4_step(rhs, 0.0, dt, np.zeros_like(phi0), unit)

    def step(phi, out):
        m = np.einsum("kn,n->k", moments, phi)  # first: out may be phi itself
        out = np.multiply(keep, phi, out=out)
        out += np.einsum("k,kn->n", m, spread)
        return out

    return march_blocks(step, phi0, len(times) - 1, MARCH_CHUNK)


def _toy_eps_set_up(problem: ToyProblem, nodes: np.ndarray, h: float, p: int):
    """(decay, emit, collect, phi0) of the oscillatory run on its energy mesh.

    ``nodes`` and ``h`` are the mesh's nodes and its uniform weight.  The
    coefficients are read on the first ``p`` nodes, the data on all of them.
    """
    y = wrap(nodes / problem.epsilon)
    sig = problem.sigma.eval_periodic(y[:p])
    kap = problem.kappa.eval_periodic(y[:p])
    phi0 = problem.phi_in.eval_periodic(y if problem.init_mode == "oscillatory" else nodes)
    if problem.placement == "inside":
        return sig, np.ones(p), h * kap, phi0
    return sig, kap, np.full(p, h), phi0


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
    times, nodes = np.linspace(0.0, problem.t_end, n_steps + 1), egrid.nodes
    march = _rank_one_march(*_toy_eps_set_up(problem, nodes, egrid.h, egrid.n), times)
    values = np.concatenate([block.copy() for block in march])
    return EnergyField(times, nodes, egrid.weights, values)


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
        return self._l2_norm

    @cached_property
    def _l2_norm(self) -> float:  # once: every point of a sweep reads it
        a, we = self.profile, self.e_weights
        x, z = self.cell[:, 0], self.cell[:, 1]
        density = ((we @ a**2) * x + 2.0 * (we @ a) * z) * x + z**2
        return float(np.sqrt(np.trapezoid(density.mean(axis=1), self.times)))

    def modes_on(self, a: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Coefficients (rows, phi_hom(t, .)) on another energy grid, (nt+1, k).

        ``rows`` are the weighted basis rows on that grid and ``a`` is the
        profile evaluated there (1 for oscillatory data).  phi_hom =
        <X>_y a(E) + <Z>_y has rank two, so its coefficients are
        <X>_y (a, row) + <Z>_y (1, row), and the (nt+1, nE) field is never
        formed.
        """
        # pairwise sums along E, as accurate as BLAS and free of its threads
        profile_modes = np.stack([np.sum(rows * a, axis=1), np.sum(rows, axis=1)])
        return self.cell.mean(axis=2) @ profile_modes


def solve_toy_two_scale(
    problem: ToyProblem,
    n_steps: int = 50,
    n_e: int = 64,
) -> TwoScaleToySolution:
    """RK4 march of the two-scale limit as phi0 = a(E) X(t, y) + Z(t, y).

    The data is a product a(E) b(y) and the source is constant in E, so
    X(0) = b, Z(0) = 0, dX/dt = -sigma X and dZ/dt = -sigma Z + source of
    the E-integral A X + Z (A = int a dE; the window (0, 1) has length
    one).  So the stacked [X; Z] is a rank-one model, marched by
    ``_rank_one_march``: decay [sigma; sigma], emit [0; 1] and collect
    [A kappa; kappa] / n_y inside, emit [0; kappa] and collect [A; 1] / n_y
    outside.  An RK4 step is a polynomial in the linear operator, so this
    is the full (E, y) march step by step, up to rounding.  y runs over the
    n_y nodes of the problem's cell grid, with the samples of its cell
    functions there.
    """
    egrid, ygrid = EnergyGrid(n_e), problem.sigma.grid
    n_y, sig, kap = ygrid.n, problem.sigma.values, problem.kappa.values
    if problem.init_mode == "oscillatory":
        a, b = np.ones(n_e), problem.phi_in.values
    else:
        a, b = problem.phi_in.eval_periodic(egrid.nodes), np.ones(n_y)
    if problem.placement == "inside":
        emit, collect = np.ones(n_y), ygrid.weights * kap
    else:
        emit, collect = kap, ygrid.weights
    times = np.linspace(0.0, problem.t_end, n_steps + 1)
    march = _rank_one_march(
        np.concatenate([sig, sig]),
        np.concatenate([np.zeros(n_y), emit]),
        np.concatenate([egrid.h * a.sum() * collect, collect]),
        np.concatenate([b, np.zeros(n_y)]),
        times,
    )
    cell = np.concatenate([block.copy() for block in march]).reshape(-1, 2, n_y)
    return TwoScaleToySolution(times, egrid.nodes, egrid.weights, a, cell)


@dataclass(frozen=True, eq=False)
class SweepPointResult:
    epsilon: float
    mode_errors: np.ndarray  # (k_max+1,)
    norm_diff: float
    sup_norm_l2: float       # max_t ||phi_eps(t, .)||_{L2(E)}


def _period(epsilon: float, egrid: EnergyGrid) -> int:
    """Nodes in one period of eps on ``egrid``, or n when the mesh does not fold.

    The mesh folds when p = eps/h is an integer below n to a few ulps: the
    phase drift of reading node e at e mod p, n |p h - eps| / (p eps) at
    most, stays within two ulps of E/eps at the window's end, about the
    rounding E/eps carries there already.
    """
    n, h = egrid.n, egrid.h
    p = round(epsilon / h)
    drift = n * abs(p * h - epsilon)
    return p if 0 < p < n and drift <= 2 * p * epsilon * np.spacing(egrid.e_max / epsilon) else n


def _fold(x: np.ndarray, p: int) -> np.ndarray:
    """Sums of x over the residues mod p of its last index, min(p, len) of them."""
    if x.shape[-1] <= p:
        return x
    q, s = divmod(x.shape[-1], p)
    out = x[..., : q * p].reshape(x.shape[:-1] + (q, p)).sum(axis=-2)
    out[..., :s] += x[..., q * p :]
    return out


def _reduce_eps_run(problem: ToyProblem, egrid: EnergyGrid, rows: np.ndarray, times):
    """Coefficients (rows, phi_eps(t_j)) and squared L2(E) norms of the eps run.

    The run is marched on ``times`` over one period of ``egrid``
    (``_period``), p nodes, and each block of states is reduced as it
    comes, so no (t, E) field is formed; ``rows`` are weighted basis rows
    on ``egrid``.  sigma and kappa repeat every p nodes, so the data splits
    as phi0 = pi[e mod p] + rho with pi its first period, and as RK4 is
    linear, phi_j(e) = g_j[e mod p] + keep^j rho_e: g is marched on p nodes
    with collect weighted by the multiplicities w_r = #{e = r mod p}, and
    rho, which decays without emitting, enters it through a stacked block
    fold(rho), its sums over each residue, beside a block keep^j marched
    from ones.  The coefficients are then fold(rows) g + fold(rows rho)
    keep^j and the squared norms w g^2 + 2 g fold(rho) keep^j + fold(rho^2)
    keep^2j.  On a mesh that does not fold p = n, w = 1 and rho is empty,
    which leaves the march and the reductions of the whole mesh.

    With n = q p + s, w g^2 is q g^2, one ``einsum`` a state, plus the first
    s residues' g^2: numpy sums a row of over 8192 floats in pieces once the
    call has a second axis, so a block call would round long states by the
    block size.  The terms in rho, on 3 min(p, n - p) floats a state, are
    summed over the whole run after the march.  The coefficient call has
    the mode axis at any block size (for k_max >= 1), so it always sums in
    those pieces.
    """
    n, h = egrid.n, egrid.h
    p = _period(problem.epsilon, egrid)
    q, s = divmod(n, p)
    f = min(p, n - p)  # the residues rho reaches
    decay, emit, collect, phi0 = _toy_eps_set_up(problem, egrid.nodes, h, p)
    rho = phi0[p:] - np.resize(phi0[:p], n - p)
    fold_rows, fold_rho_rows = _fold(rows, p), _fold(rows[:, p:] * rho, p)
    w = np.where(np.arange(p) < s, q + 1, q)
    # the stacked state is [keep^j; z = fold(rho) keep^j; g], so keep^j, z
    # and g on the residues rho reaches are its first 3 f floats
    start = np.concatenate([np.ones(f), _fold(rho, p), phi0[:p]])
    fold_rho_sq = _fold(rho * rho, p)
    del phi0, rho
    march = _rank_one_march(
        np.concatenate([decay[:f], decay[:f], decay]),
        np.concatenate([np.zeros(2 * f), emit]),
        np.concatenate([np.zeros(f), collect[:f], w * collect]),
        start,
        times,
    )
    coeffs = np.empty((len(times), len(rows)))
    sq = np.empty(len(times))
    free = np.empty((len(times), 3 * f))
    j = 0
    for block in march:
        g = block[:, 2 * f :]
        np.einsum("kr,br->bk", fold_rows, g, out=coeffs[j : j + len(block)])
        free[j : j + len(block)] = block[:, : 3 * f]
        for phi in g:
            sq[j] = q * np.einsum("e,e->", phi, phi)
            j += 1
    keep, z, g = free[:, :f], free[:, f : 2 * f], free[:, 2 * f :]
    coeffs += np.einsum("kr,tr->tk", fold_rho_rows, keep)
    sq += np.einsum("tr,tr->t", g[:, :s], g[:, :s]) + 2.0 * np.einsum("tr,tr->t", g, z)
    sq += np.einsum("r,tr->t", fold_rho_sq, keep * keep)
    sq *= h
    return coeffs, sq


def _point_errors(
    problem: ToyProblem, hom: TwoScaleToySolution, k_max: int, egrid: EnergyGrid
) -> SweepPointResult:
    """Mode errors and norms of one eps run against its limit.

    The limit's modes are taken in the basis, built once on ``egrid``, that
    ``_reduce_eps_run`` reduces the eps run in, with the profile read on
    ``egrid`` itself, so the two mode series share quadrature and time
    discretization exactly.
    """
    nodes = egrid.nodes
    rows = orthonormal_polynomials(nodes, egrid.weights, k_max)
    rows *= egrid.h
    profile = problem.init_mode == "profile"
    hom_modes = hom.modes_on(problem.phi_in.eval_periodic(nodes) if profile else 1.0, rows)
    del nodes
    coeffs, sq = _reduce_eps_run(problem, egrid, rows, hom.times)
    errors = np.max(np.abs(coeffs - hom_modes), axis=0)
    norm = float(np.sqrt(np.trapezoid(sq, hom.times)))
    sup_l2 = float(np.sqrt(np.max(sq)))
    return SweepPointResult(problem.epsilon, errors, abs(norm - hom.l2_norm()), sup_l2)


def sweep_point(
    example_id: int, placement: str, epsilon: float, init_mode: str = "oscillatory"
) -> SweepPointResult:
    """Errors of one sweep point: the ``sweep`` of this one eps."""
    return sweep(example_id, placement, (epsilon,), init_mode=init_mode)[0]


def sweep(
    example_id: int,
    placement: str,
    epsilons,
    k_max: int = 8,
    n_cell: int = 256,
    init_mode: str = "oscillatory",
) -> list[SweepPointResult]:
    """Per-mode gaps and norm differences at each of ``epsilons``, in order.

    The limit does not depend on eps, so it is solved once for the whole
    sweep, with the same RK4 step as each eps run, and every point takes
    its modes on its own eps mesh (``_point_errors``).
    """
    first, *rest = epsilons
    first = example_presets(example_id, placement, first, n_cell, init_mode=init_mode)
    problems = [first] + [replace(first, epsilon=eps) for eps in rest]
    hom = solve_toy_two_scale(first)
    return [
        _point_errors(problem, hom, k_max, EnergyGrid.for_epsilon(problem.epsilon))
        for problem in problems
    ]
