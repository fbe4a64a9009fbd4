"""Planar kinetic transport with energy-oscillatory optical parameters.

Geometry is d = 2: angles live on the unit circle with uniform nodes and
trapezoid weights (exact for trigonometric polynomials), energies on a
cell-centered window [e_min, e_max], the fast variable y = E/eps on the
periodic cell.  The optical parameters follow the separable form

    sigma_eps(w, E)       = sqrt(E) sigma(w, E, E/eps)
    kappa_eps(mu, E, E')  = sqrt(E) kappa1(mu, E) kappa2(mu, E', E'/eps),

with mu = cos(angle difference).  After the characteristics change of
variables the spatial label r rides along passively, so the oscillatory
problem is a family of Volterra fixed points

    psi = phi_in e^{-t sigma_eps} + int_0^t int kappa_eps e^{-(t-s) sigma_eps} psi(s)

The homogenized limit is the same equation for the two-scale field
phi(r, w, E, y) on the (omega, E, y) grid, with the decay sqrt(E) sigma
taken at each cell node and the scattering reduced over (w', E', y').
Its y-average is psi_hom and phi - <phi>_y is the mean-free corrector rho.
Both problems run through the one product-trapezoid march of
:func:`_march`; the oscillatory one is the cell of a single node
y = E/eps.  The scattering operator factors as K = S R through the
angle-pair field g[r, v, w]: R (``_Scattering.reduce``) contracts a field
against a kappa2 table over its trailing axes, S (``_Scattering.spread``)
spreads g back over kappa1, and all solvers call this one pair.  Each
implicit trapezoid step reduces to a linear system of size n_omega^2,
inverted once per run by :func:`_implicit_inverse`; a singular step, or
one whose spectral radius reaches 1, raises RuntimeError.  Every solver
marches only the r-slices where the initial data is nonzero; the other
slices stay exactly zero.  The support of the data is read off those
slices; data that misses every r-node, or characteristics that would
leave the spatial box, raise ConfigError.
An independent closed-kernel route rebuilds psi_hom from memory kernels
instead and must agree with it to solver accuracy.  Per (w, E) the
corrector decays under sqrt(E) L_sigma, so that route works in the
secular poles of the cell profile (:func:`homokin.cell.secular_poles`):
kernels and corrector data are pole sums plus a remainder that decays
pointwise, each advanced by an exact factor per step, and the implicit
coupling goes through the same reduced n_omega^2 system.  Both limit
solvers share one set of operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import ConfigError
from .cell import PeriodicGrid, secular_poles

# the older name of ConfigError, kept for callers that catch it
ConfigurationError = ConfigError


@dataclass(frozen=True, eq=False)
class TransportGrids:
    n_omega: int = 16
    n_e: int = 32
    n_y: int = 128
    n_r: int = 32
    e_min: float = 0.25
    e_max: float = 1.0
    r_box: float = 2.0
    n_mu: int = 64

    def __post_init__(self) -> None:
        if self.e_min < 0 or self.e_max <= self.e_min:
            raise ValueError("need 0 <= e_min < e_max")
        if min(self.n_omega, self.n_e, self.n_y, self.n_r, self.n_mu) < 2:
            raise ValueError("grids need at least two nodes per axis")

    @property
    def angles(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n_omega) / self.n_omega

    @property
    def angle_weight(self) -> float:
        return 2.0 * np.pi / self.n_omega

    def energy_nodes(self, n: int | None = None) -> np.ndarray:
        n = self.n_e if n is None else n
        h = (self.e_max - self.e_min) / n
        return self.e_min + (np.arange(n) + 0.5) * h

    def energy_weight(self, n: int | None = None) -> float:
        n = self.n_e if n is None else n
        return (self.e_max - self.e_min) / n

    @property
    def r_nodes(self) -> np.ndarray:
        h = 2.0 * self.r_box / self.n_r
        return -self.r_box + (np.arange(self.n_r) + 0.5) * h

    def eps_energy_count(self, epsilon: float, nodes_per_period: int = 100) -> int:
        return int(round((self.e_max - self.e_min) * nodes_per_period / epsilon))


@dataclass(frozen=True, eq=False)
class OpticalParameters:
    """Optical data as callables plus the mu-tabulation policy.

    ``sigma(theta, E, y)`` is the base cross-section without the sqrt(E)
    factor, applied at use sites.  ``kappa1(mu, E)`` and
    ``kappa2(mu, E', y')`` are evaluated on a uniform mu-grid and linearly
    interpolated to the exact angle-difference cosines.
    """

    sigma: Callable
    kappa1: Callable
    kappa2: Callable

    def sample_sigma(self, angles, energies, y) -> np.ndarray:
        th = np.asarray(angles)[:, None, None]
        ee = np.asarray(energies)[None, :, None]
        yy = np.asarray(y)[None, None, :]
        return np.asarray(self.sigma(th, ee, yy) * np.ones_like(th * ee * yy))

    def sigma_eps(self, angles, energies, epsilon: float) -> np.ndarray:
        """sqrt(E) sigma(theta, E, E/eps) on the (angle, energy) grid."""
        energies = np.asarray(energies)
        y = np.mod(energies / epsilon, 1.0)
        th = np.asarray(angles)[:, None]
        base = self.sigma(th, energies[None, :], y[None, :])
        return np.sqrt(energies)[None, :] * np.asarray(
            base * np.ones_like(th * energies[None, :])
        )


def _mu_table(fn, grids: TransportGrids, *args) -> np.ndarray:
    """fn(mu, *args) at the cosines of the angle gaps, shape (w, w', *rest).

    fn is sampled on a uniform mu-grid and interpolated linearly in mu.
    ``rest`` is the broadcast shape of ``args``: equal 1-D arrays pair
    their entries (E'_j, y_j), axes set up to broadcast give a tensor table.
    """
    n_mu = grids.n_mu
    rest = np.broadcast(*args).shape
    mu_grid = np.linspace(-1.0, 1.0, n_mu).reshape((n_mu,) + (1,) * len(rest))
    samples = np.asarray(fn(mu_grid, *args) * np.ones((n_mu,) + rest))
    angles = grids.angles
    mu = np.cos(angles[:, None] - angles[None, :])
    pos = (np.clip(mu, -1.0, 1.0) + 1.0) / 2.0 * (n_mu - 1)
    j0 = np.clip(np.floor(pos).astype(int), 0, n_mu - 2)
    w = (pos - j0).reshape(mu.shape + (1,) * len(rest))
    return (1.0 - w) * samples[j0] + w * samples[j0 + 1]


def _eps_operators(
    params: OpticalParameters, grids: TransportGrids, epsilon: float, n_e: int | None
):
    """Energy nodes and weight, y = E/eps, sqrt(E), K1[w, w', E] and K2.

    K2[w, w', E'] = kappa2(mu, E', E'/eps) is sampled along the curve
    y = E'/eps, which avoids materializing the full (E', y') tensor.
    """
    energies = grids.energy_nodes(n_e)
    y = np.mod(energies / epsilon, 1.0)
    k1 = _mu_table(params.kappa1, grids, energies)
    k2 = _mu_table(params.kappa2, grids, energies, y)
    return energies, grids.energy_weight(n_e), y, np.sqrt(energies), k1, k2


def kappa_bars(
    params: OpticalParameters,
    epsilon: float,
    grids: TransportGrids,
    n_e: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Outgoing and incoming integrated scattering rates on (omega, E).

    kappa_bar(w, E)  integrates kappa_eps(mu, E, E') over (w', E'),
    kappa_tilde(w,E) integrates kappa_eps(mu, E', E) over (w', E');
    trapezoid in angle (uniform circle nodes), midpoint in energy.
    """
    _, we, _, sqrtE, k1, k2_diag = _eps_operators(params, grids, epsilon, n_e)
    aw = grids.angle_weight
    # bar(w, E): integrate sqrt(E) k1(mu, E) k2(mu, E', y(E')) over (w', E')
    bar = sqrtE[None, :] * aw * np.einsum(
        "vwE,vw->vE", k1, we * k2_diag.sum(axis=2)
    )
    # tilde(w, E): roles swapped, sqrt(E') k1(mu, E') k2(mu, E, y(E))
    c1 = we * np.einsum("vwe,e->vw", k1, sqrtE)
    tilde = aw * np.einsum("vw,vwE->vE", c1, k2_diag)
    return bar, tilde


def subcriticality_check(
    params: OpticalParameters,
    epsilon: float,
    grids: TransportGrids,
    n_e: int | None = None,
) -> float:
    """Margin min over the grid of min(sigma_eps - bar, sigma_eps - tilde).

    A positive value certifies the subcritical hypothesis on the grid; a
    negative one is a valid (flagged) answer, not an error.
    """
    energies = grids.energy_nodes(n_e)
    sig = params.sigma_eps(grids.angles, energies, epsilon)
    bar, tilde = kappa_bars(params, epsilon, grids, n_e)
    return float(min(np.min(sig - bar), np.min(sig - tilde)))


def scattering_matrix(
    params: OpticalParameters,
    epsilon: float,
    grids: TransportGrids,
    n_e: int | None = None,
) -> np.ndarray:
    """Dense kernel action K[(w,E),(w',E')] including quadrature weights."""
    energies, we, _, sqrtE, k1, k2_diag = _eps_operators(params, grids, epsilon, n_e)
    n = grids.n_omega * len(energies)
    # kernel(v,E; w,E') = sqrt(E) k1(mu_vw, E) k2(mu_vw, E', y(E')) w_angle w_E
    kern = np.einsum("E,vwE,vwf->vEwf", sqrtE, k1, k2_diag)
    kern *= grids.angle_weight * we
    return kern.reshape(n, n)


def coercivity_test(
    params: OpticalParameters,
    epsilon: float,
    grids: TransportGrids,
    trials: int = 100,
    seed: int = 0,
    n_e: int | None = None,
) -> float:
    """Minimum Rayleigh quotient of Q over seeded random grid functions."""
    if trials < 1:
        raise ValueError("need at least one trial")
    energies = grids.energy_nodes(n_e)
    we = grids.energy_weight(n_e)
    sig = params.sigma_eps(grids.angles, energies, epsilon).reshape(-1)
    K = scattering_matrix(params, epsilon, grids, n_e)
    weights = np.full(len(sig), grids.angle_weight * we)
    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(trials):
        f = rng.standard_normal(len(sig))
        qf = sig * f - K @ f
        quotient = float((weights * f) @ qf) / float((weights * f) @ f)
        best = min(best, quotient)
    return best


@dataclass(frozen=True, eq=False)
class PhaseSpaceField:
    """Kinetic field over (t, r, omega, E) with optional cell axis."""

    times: np.ndarray
    r_nodes: np.ndarray
    angles: np.ndarray
    energies: np.ndarray
    values: np.ndarray          # (nt, nr, nw, nE[, ny])
    y_nodes: np.ndarray | None = None


def transport_preset(name: str) -> OpticalParameters:
    """Named parameter sets used by the checks and the CLI."""
    if name == "transport-subcritical-1":
        return OpticalParameters(
            sigma=lambda th, E, y: 2.0 + 0.5 * np.sin(2 * np.pi * y),
            kappa1=lambda mu, E: (1.0 + 0.5 * mu) / (2.0 * np.pi),
            kappa2=lambda mu, Ep, yp: 0.6 * (1.0 + 0.5 * np.sin(2 * np.pi * yp)),
        )
    if name == "transport-kappa0":
        return OpticalParameters(
            sigma=lambda th, E, y: 2.0 + 0.5 * np.sin(2 * np.pi * y),
            kappa1=lambda mu, E: np.zeros_like(mu * E),
            kappa2=lambda mu, Ep, yp: np.zeros_like(mu * Ep * yp),
        )
    raise ValueError(f"unknown transport preset {name!r}")


def hat_initial_data(support: float = 0.5):
    """phi_in(r, theta, E, y) = hat(r) (1 + sin(2 pi y)), angle-blind."""

    def phi_in(r, theta, E, y):
        shape = np.broadcast(r, theta, E, y).shape
        hat = np.maximum(0.0, 1.0 - np.abs(r) / support)
        return np.broadcast_to(hat * (1.0 + np.sin(2 * np.pi * y)), shape).copy()

    return phi_in


def _initial_slices(
    phi_in, grids: TransportGrids, t_end: float, *axes
) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the r-slices where phi_in is nonzero, and phi_in on them.

    ``axes`` are the (omega, E[, y]) arguments after r, broadcast to the
    slice shape.  The labels r ride along passively and every solver is
    linear, so the slices left out stay exactly zero.  The support of the
    data is the outer edge of the outermost active r-cell; characteristics
    that leave the box from there by t_end raise ConfigError, and so does
    data that vanishes on every r-node.
    """
    r = grids.r_nodes
    data = np.stack([phi_in(rv, *axes) for rv in r])
    active = np.nonzero(np.abs(data).reshape(len(r), -1).max(axis=1) > 0)[0]
    if len(active) == 0:
        raise ConfigError(
            f"n_r: initial data vanishes on all {len(r)} r-nodes; "
            "refine n_r so that a node falls inside its support"
        )
    support = np.max(np.abs(r[active])) + grids.r_box / grids.n_r
    reach = support + np.sqrt(grids.e_max) * t_end
    if reach > grids.r_box + 1e-12:
        raise ConfigError(
            f"characteristics reach {reach:.3f} > r_box {grids.r_box}; "
            "shrink T or the initial support"
        )
    return active, data[active]


class _Scattering:
    """Scattering K = S R on one energy grid, through g[r, v, w].

    R contracts a field f[r, w, T] against a kernel table kern[v, w, T]
    over its trailing axes T, which are E', (E', y') or (E', k); S spreads
    g back to (r, v, E) over kappa1.  Both run as batched matmuls (BLAS),
    one per angle.
    """

    def __init__(self, grids: TransportGrids, energies: np.ndarray, k1: np.ndarray):
        self.k1 = k1
        self.scale = np.sqrt(energies) * grids.angle_weight

    @staticmethod
    def reduce(kern: np.ndarray, f: np.ndarray, weight) -> np.ndarray:
        """R: g[r, v, w] = weight sum_T kern[v, w, T] f[r, w, T]."""
        nw = kern.shape[0]
        kt = kern.reshape(nw, nw, -1).transpose(1, 2, 0)  # (w, T, v)
        ft = f.reshape(len(f), nw, -1).transpose(1, 0, 2)  # (w, r, T)
        return weight * np.matmul(ft, kt).transpose(1, 2, 0)

    def spread(self, g: np.ndarray) -> np.ndarray:
        """S: g[r, v, w] -> sqrt(E) aw sum_w k1[v, w, E] g[r, v, w]."""
        gv = g.transpose(1, 0, 2)  # (v, r, w)
        return self.scale * np.matmul(gv, self.k1).transpose(1, 0, 2)

    def matrix(self, kern: np.ndarray, weight) -> np.ndarray:
        """C of R S for kern[v, w, E']: (R S g)[v, w] = sum_x C[v, w, x] g[w, x]."""
        return weight * np.einsum("vwe,wxe->vwx", kern * self.scale, self.k1)


def _implicit_inverse(C: np.ndarray) -> Callable:
    """Application of (I - C)^{-1} to g[r, v, w], for the reduced implicit step.

    C[v, w, x] acts as (C g)[v, w] = sum_x C[v, w, x] g[w, x].  The inverse
    is formed once and keeps every step in numpy's BLAS: scipy's LAPACK
    brings a second thread pool that contends with numpy's on each step.
    A numerically singular system raises RuntimeError, and so does a
    spectral radius rho(C) >= 1, where the trapezoid step flips the sign
    of the scattering growth.  The infinity norm bounds rho(C), so
    eigenvalues are computed only when it reaches 1.
    """
    nw = C.shape[0]
    block = np.einsum("vwx,wu->vwux", C, np.eye(nw)).reshape(nw * nw, nw * nw)
    step_matrix = np.eye(nw * nw) - block
    try:
        step_inv = np.linalg.inv(step_matrix)
        cond = np.linalg.norm(step_matrix, 1) * np.linalg.norm(step_inv, 1)
    except np.linalg.LinAlgError:
        cond = np.inf
    if cond * nw * nw * np.finfo(float).eps > 1.0:
        raise RuntimeError(
            "implicit scattering step is numerically singular; increase n_steps"
        )
    if np.abs(C).sum(axis=2).max() >= 1.0:
        radius = float(np.max(np.abs(np.linalg.eigvals(block))))
        if radius >= 1.0:
            raise RuntimeError(
                f"implicit scattering step unresolved: spectral radius "
                f"{radius:.3g} >= 1; increase n_steps"
            )
    inv_t = step_inv.T
    return lambda g: (g.reshape(len(g), -1) @ inv_t).reshape(g.shape)


def _march(
    ops: _Scattering, kern: np.ndarray, weight, rate: np.ndarray,
    phi0: np.ndarray, dt: float, n_steps: int,
):
    """Product-trapezoid march of phi[r, w, E, y]; yields phi0, then each step.

    phi(t) = e^{-t rate} phi0 + int_0^t e^{-(t-s) rate} F(s) ds with
    F = S R phi, R reducing over (w', E', y') against kern with ``weight``,
    so F does not depend on y.  The decay is exact per node and the
    integral is the trapezoid rule in s, its history advanced by one exact
    factor per step, G <- e^{-dt rate} (G + F/2); the time error is
    O(dt^2).  The implicit end point phi = known + (dt/2) F is solved
    through g = R phi, and R sums kern over y' on the y-constant F.
    """
    decay_step = np.exp(-dt * rate)
    solve = _implicit_inverse(ops.matrix(kern.sum(axis=3), 0.5 * dt * weight))
    decay_t = np.ones_like(rate)
    G = np.zeros(phi0.shape)
    F = ops.spread(ops.reduce(kern, phi0, weight))[..., None]
    yield phi0
    for _ in range(n_steps):
        decay_t = decay_t * decay_step
        G += 0.5 * F
        G *= decay_step
        known = decay_t * phi0 + dt * G
        F = ops.spread(solve(ops.reduce(kern, known, weight)))[..., None]
        phi = known + dt * 0.5 * F
        G += 0.5 * F
        yield phi


@dataclass(frozen=True, eq=False)
class CharacteristicsSolution:
    """Oscillatory transport solution restricted to the active r-slices.

    ``values`` holds the full field only when the run was small enough to
    ask for it; sweep-scale runs keep the windowed-in-E averages, the
    final-time field, and the running L2 norm instead.
    """

    times: np.ndarray
    r_nodes: np.ndarray          # active slices only
    angles: np.ndarray
    energies: np.ndarray
    values: np.ndarray | None    # (nt+1, na, nw, nE) if stored
    windowed: np.ndarray | None  # (nt+1, na, nw, n_windows)
    final: np.ndarray            # (na, nw, nE)
    sup_l2: float                # max_t L2(r, w, E) norm
    min_value: float


def solve_characteristics_eps(
    params: OpticalParameters,
    phi_in,
    epsilon: float,
    grids: TransportGrids,
    t_end: float = 1.5,
    n_steps: int = 200,
    nodes_per_period: int = 100,
    store_full: bool = False,
    n_windows: int = 6,
) -> CharacteristicsSolution:
    """Product-trapezoid march of the characteristics fixed point.

    r-slices are independent; slices where phi_in vanishes identically
    stay zero and are dropped.  The field runs through :func:`_march` as
    a cell of the one node y = E/eps, with rate sigma_eps; the march
    raises RuntimeError on a numerically singular implicit step or a
    spectral radius of (dt/2) R S of at least 1.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    n_e = grids.eps_energy_count(epsilon, nodes_per_period)
    if n_e % n_windows != 0:
        raise ValueError("window count must divide the energy grid")
    energies, we, y, _, k1, k2_diag = _eps_operators(params, grids, epsilon, n_e)
    sig = params.sigma_eps(grids.angles, energies, epsilon)  # (nw, nE)

    r = grids.r_nodes
    active, base0 = _initial_slices(
        phi_in, grids, t_end, grids.angles[:, None], energies, y
    )
    times = np.linspace(0.0, t_end, n_steps + 1)
    dt = times[1] - times[0]
    ops = _Scattering(grids, energies, k1)
    march = _march(
        ops, k2_diag[..., None], we, sig[..., None], base0[..., None], dt, n_steps
    )

    per_win = n_e // n_windows
    r_weight = 2.0 * grids.r_box / grids.n_r

    def windowed_avg(f):
        return f.reshape(f.shape[:-1] + (n_windows, per_win)).mean(axis=-1)

    def l2_norm(f):
        return float(
            np.sqrt((f**2).sum() * we * grids.angle_weight * r_weight)
        )

    full = np.empty((n_steps + 1,) + base0.shape) if store_full else None
    windowed = np.empty((n_steps + 1,) + base0.shape[:-1] + (n_windows,))
    sup_l2, min_value = 0.0, np.inf
    for n, phi in enumerate(march):
        psi = phi[..., 0]
        if store_full:
            full[n] = psi
        windowed[n] = windowed_avg(psi)
        sup_l2 = max(sup_l2, l2_norm(psi))
        min_value = min(min_value, float(psi.min()))
    return CharacteristicsSolution(
        times,
        r[active],
        grids.angles,
        energies,
        full,
        windowed,
        psi,
        sup_l2,
        min_value,
    )


@dataclass(frozen=True, eq=False)
class TwoScaleTransportSolution:
    psi_hom: PhaseSpaceField
    rho: PhaseSpaceField
    max_mean_rho: float


class _TwoScaleOperators(_Scattering):
    """Set-up shared by the two limit solvers on the (omega, E, y) grid.

    Holds sigma, the kappa tables and the active r-slices of the initial
    data phi0.  Scattering factors as K = S R through
    the inherited ``reduce`` and ``spread``; on a cell field R reduces
    over (w', E', y') against kappa2.
    """

    def __init__(self, params: OpticalParameters, phi_in, grids: TransportGrids, t_end):
        self.energies = grids.energy_nodes()
        k1 = _mu_table(params.kappa1, grids, self.energies)
        super().__init__(grids, self.energies, k1)
        self.we = grids.energy_weight()
        self.sqrtE = np.sqrt(self.energies)
        self.y_nodes = PeriodicGrid(grids.n_y).nodes
        self.wy = 1.0 / grids.n_y
        self.sig = params.sample_sigma(grids.angles, self.energies, self.y_nodes)
        self.k2y = _mu_table(
            params.kappa2, grids, self.energies[:, None], self.y_nodes
        )  # (nw, nw, nE', ny)
        self.active, self.phi0 = _initial_slices(
            phi_in, grids, t_end,
            grids.angles[:, None, None], self.energies[:, None], self.y_nodes,
        )  # (na, nw, nE, ny)


def solve_two_scale_transport(
    params: OpticalParameters,
    phi_in,
    grids: TransportGrids,
    t_end: float = 1.5,
    n_steps: int = 300,
) -> TwoScaleTransportSolution:
    """Product-trapezoid march of the two-scale field phi(r, w, E, y).

    phi starts at phi_in and solves dphi/dt = -sqrt(E) sigma phi + S R phi
    through :func:`_march`, where R reduces phi over (w', E', y') against
    kappa2, so the scattering term does not depend on y.  The decay is
    exact at each cell node and the time error is O(dt^2), that of the
    oscillatory solver it is compared with.  psi_hom = <phi>_y is the
    homogenized field and rho = phi - <phi>_y the corrector, returned at
    the final time; ``max_mean_rho`` is the largest y-mean of that
    corrector, zero up to rounding.  Only the r-slices where phi_in is
    nonzero are marched; the returned fields cover every r-node.
    """
    op = _TwoScaleOperators(params, phi_in, grids, t_end)
    rate = op.sqrtE[None, :, None] * op.sig
    r = grids.r_nodes
    times = np.linspace(0.0, t_end, n_steps + 1)
    dt = times[1] - times[0]
    psis = np.zeros((n_steps + 1, len(r)) + op.phi0.shape[1:3])
    march = _march(op, op.k2y, op.we * op.wy, rate, op.phi0, dt, n_steps)
    for n, phi in enumerate(march):
        psis[n, op.active] = phi.mean(axis=3)
    hom_field = PhaseSpaceField(times, r, grids.angles, op.energies, psis)
    # only the final corrector state is kept; its history would dominate
    # memory and downstream consumers need the invariant, not the path
    rho = np.zeros((1, len(r)) + phi.shape[1:])
    rho[0, op.active] = phi - psis[-1, op.active][..., None]
    max_mean = float(np.max(np.abs(rho.mean(axis=4))))
    rho_field = PhaseSpaceField(
        times[-1:], r, grids.angles, op.energies, rho, y_nodes=op.y_nodes
    )
    return TwoScaleTransportSolution(hom_field, rho_field, max_mean)


def solve_closed_kernel_transport(
    params: OpticalParameters,
    phi_in,
    grids: TransportGrids,
    t_end: float = 1.5,
    n_steps: int = 300,
) -> PhaseSpaceField:
    """Verification route: march the closed memory-kernel equation in poles.

    The corrector is eliminated through its Duhamel formula, leaving a
    Volterra equation for psi_hom.  Per (w, E) the corrector decays under
    sqrt(E) L_sigma.  On mean-free cell data L_sigma has the secular poles
    lambda_k of the profile sigma(w, E, .), with eigenvectors
    phi_k = 1/(sigma - lambda_k) and r_k = 1/<phi_k^2>, and it multiplies
    by sigma on the remainder, the data mean-free on each level set of
    sigma.  sigma - <sigma> = sum_k r_k phi_k has no remainder, so the
    kernels are pole sums:

        kd(tau) = E sum_k r_k e^{-sqrt(E) lambda_k tau}
        kc(tau)[v, w, E'] = sqrt(E') sum_k r_k <kappa2 phi_k> e^{-sqrt(E') lambda_k tau}

    The corrector is carried as its pole coordinates Y_k, which start at
    beta_k = r_k <rho0 phi_k> and take up the trapezoid history of psi,
    Y <- q (Y - dt sqrt(E) r_k psi_n) with q_k = e^{-dt sqrt(E) lambda_k},
    plus the remainder V_perp = rho0 - sum_k beta_k phi_k, which decays by
    e^{-dt sqrt(E) sigma} per step.  The implicit coupling is solved
    through the reduced n_omega^2 system of :func:`_implicit_inverse`.
    Poles are solved once per distinct cell profile and the y grid is
    never marched.  Only the r-slices where phi_in is nonzero are marched.
    """
    op = _TwoScaleOperators(params, phi_in, grids, t_end)
    sig, sqrtE, wy, we = op.sig, op.sqrtE, op.wy, op.we
    psi0 = op.phi0.mean(axis=3)
    sig_mean = sig.mean(axis=2)  # (nw, nE)
    sig_fluct = sig - sig_mean[:, :, None]
    k2bar = op.k2y.mean(axis=3)  # y-average of kappa2(mu, E', .)
    rho0 = op.phi0 - psi0[..., None]
    nw, ne, ny = sig.shape
    profiles, which = np.unique(sig.reshape(-1, ny), axis=0, return_inverse=True)
    which = which.reshape(nw, ne)
    solved = [secular_poles(p, np.full(ny, wy)) for p in profiles]
    m = max(len(poles) for poles, _ in solved)
    lam = np.zeros((len(profiles), m))
    res = np.zeros((len(profiles), m))  # padded poles carry no weight
    c2 = np.zeros(op.k2y.shape[:3] + (m,))  # <kappa2 phi_k>
    beta = np.zeros(rho0.shape[:3] + (m,))
    v_perp = rho0.copy()
    for p, (poles, residues) in enumerate(solved):
        k, at = len(poles), which == p
        lam[p, :k], res[p, :k] = poles, residues
        phi = 1.0 / (profiles[p][None, :] - poles[:, None])  # (k, ny)
        c2[:, at, :k] = op.k2y[:, at] @ phi.T * wy
        beta[:, at, :k] = rho0[:, at] @ phi.T * (wy * residues)
        v_perp[:, at] -= beta[:, at, :k] @ phi

    r = grids.r_nodes
    times = np.linspace(0.0, t_end, n_steps + 1)
    dt = times[1] - times[0]
    rate = sqrtE[None, :, None]
    q = np.exp(-dt * rate * lam[which])
    kick = dt * rate * res[which]
    decay = np.exp(-dt * rate * sig)

    def memory(Y, X):
        # S R_kappa2 rho - sqrt(E) <sig rho> for the corrector rho with pole
        # coordinates Y and remainder X: the kernel history and the source
        g = op.reduce(c2, Y, we) + op.reduce(op.k2y, X, we * wy)
        local = Y.sum(axis=3) + (sig * X).mean(axis=3)
        return op.spread(g) - sqrtE * local

    # trapezoid step of dpsi/dt + sqrt(E)<sig> psi - K_bar psi = memory,
    # the lag-zero kernels kd0, kc0 taken implicitly with the K_bar coupling
    diag = sqrtE[None, :] * sig_mean
    kd0 = op.energies[None, :] * (sig * sig_fluct).mean(axis=2)
    kc0 = sqrtE[None, None, :] * np.einsum("vwey,wey->vwe", op.k2y, sig_fluct) * wy
    denom = 1.0 + 0.5 * dt * diag - 0.25 * dt * dt * kd0
    coupling = 0.5 * dt * k2bar - 0.25 * dt * dt * kc0
    solve = _implicit_inverse(op.matrix(coupling / denom[None], we))

    psis = np.zeros((n_steps + 1, len(r)) + psi0.shape[1:])
    psis[0, op.active] = psi0
    mem_prev = memory(beta, v_perp)
    # each step takes kick * psi_n off Y; the trapezoid halves it for psi0
    psi, Y, X = psi0, beta + 0.5 * kick * psi0[..., None], v_perp
    for n in range(n_steps):
        Y -= kick * psi[..., None]
        Y *= q
        X *= decay
        mem = memory(Y, X)
        rhs = psi * (1.0 - 0.5 * dt * diag) + 0.5 * dt * (
            op.spread(op.reduce(k2bar, psi, we)) + mem_prev + mem
        )
        # (D - S R_M) psi = rhs through g = R_M psi: (I - C) g = R_M(rhs / D)
        g = solve(op.reduce(coupling, rhs / denom, we))
        psi = (rhs + op.spread(g)) / denom
        psis[n + 1, op.active] = psi
        mem_prev = mem + 0.5 * dt * (kd0 * psi - op.spread(op.reduce(kc0, psi, we)))
    return PhaseSpaceField(times, r, grids.angles, op.energies, psis)


def windowed_weak_error(
    eps_sol: CharacteristicsSolution,
    hom_field: PhaseSpaceField,
    n_windows: int = 6,
) -> float:
    """Max over (t, r, omega, window) of the windowed-in-E average gap.

    Each field integrates over the windows with its own quadrature, the
    homogenized reference is restricted to the oscillatory run's active
    r-slices and interpolated linearly onto its time grid.  Window edges
    must align with the cells of both energy grids.
    """
    per_hom = len(hom_field.energies) // n_windows
    if per_hom * n_windows != len(hom_field.energies):
        raise ValueError("window count must divide the reference energy grid")
    if eps_sol.windowed is None or eps_sol.windowed.shape[-1] != n_windows:
        raise ValueError("oscillatory solution lacks matching windowed data")
    r_idx = []
    for rv in eps_sol.r_nodes:
        matches = np.nonzero(np.abs(hom_field.r_nodes - rv) < 1e-12)[0]
        if len(matches) != 1:
            raise ValueError("r-grids of the two solutions do not align")
        r_idx.append(matches[0])
    hom_vals = hom_field.values[:, r_idx]
    hom_win = hom_vals.reshape(hom_vals.shape[:-1] + (n_windows, per_hom)).mean(
        axis=-1
    )
    # linear time interpolation onto the oscillatory grid
    pos = np.interp(eps_sol.times, hom_field.times, np.arange(len(hom_field.times)))
    j0 = np.clip(np.floor(pos).astype(int), 0, len(hom_field.times) - 2)
    w = (pos - j0)[:, None, None, None]
    hom_on_eps = (1.0 - w) * hom_win[j0] + w * hom_win[j0 + 1]
    return float(np.max(np.abs(eps_sol.windowed - hom_on_eps)))
