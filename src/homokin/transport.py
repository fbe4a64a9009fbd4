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

solved by product trapezoid in s with a recursively updated history (the
s-kernel is a pure exponential per (w, E), so no quadratic-cost sum).
The scattering operator factors through the angle-pair field g[v, w], so
each implicit trapezoid step reduces to a linear system of size
n_omega^2 whose matrix is inverted once per run.  Every solver marches
only the r-slices where the initial data is nonzero; the other slices
stay exactly zero.  The support of the data is read off those slices, and
characteristics that would leave the spatial box raise ConfigurationError.
The homogenized limit is the coupled system for the y-average psi_hom and
the mean-free corrector rho; an independent closed-kernel route rebuilds
psi_hom from memory kernels with energy-scaled decay sqrt(E) L_sigma and
must agree with the coupled route to solver accuracy.  Both limit solvers
share one set of operators on the (omega, E, y) grid and march with
:func:`homokin.cell.rk4_step`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cell import PeriodicGrid, rk4_step


class ConfigurationError(ValueError):
    """Raised when characteristics would leave the spatial box."""


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


def export_field_csv(field: PhaseSpaceField, path) -> None:
    """Long-format dump `t,r,omega,E,value`; cell axes are y-averaged.

    Row count is the full product of the grids, so dump reduced runs only.
    """
    values = field.values
    if values.ndim == 5:
        values = values.mean(axis=4)
    with open(path, "w", newline="\n") as fh:
        fh.write("t,r,omega,E,value\n")
        for it, t in enumerate(field.times):
            for ir, rv in enumerate(field.r_nodes):
                for iw, th in enumerate(field.angles):
                    for ie, en in enumerate(field.energies):
                        fh.write(
                            f"{t:.17g},{rv:.17g},{th:.17g},{en:.17g},"
                            f"{values[it, ir, iw, ie]:.17g}\n"
                        )


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
    that leave the box from there by t_end raise ConfigurationError.
    """
    r = grids.r_nodes
    data = np.stack([phi_in(rv, *axes) for rv in r])
    active = np.nonzero(np.abs(data).reshape(len(r), -1).max(axis=1) > 0)[0]
    if len(active) == 0:
        raise ValueError("initial data vanishes on every r-node")
    support = np.max(np.abs(r[active])) + grids.r_box / grids.n_r
    reach = support + np.sqrt(grids.e_max) * t_end
    if reach > grids.r_box + 1e-12:
        raise ConfigurationError(
            f"characteristics reach {reach:.3f} > r_box {grids.r_box}; "
            "shrink T or the initial support"
        )
    return active, data[active]


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
    stay zero and are dropped.  The lag kernel is exp(-(t-s) sigma_eps)
    per (omega, E), so the history integral is updated recursively.  The
    scattering operator factors as K = S R, with R reducing (w, E') to
    g[v, w] and S spreading g back to (v, E), so the implicit step
    psi = known + (dt/2) K psi is solved directly through the reduced
    system (I - (dt/2) R S) g = R known, inverted once per call.  A
    numerically singular system raises RuntimeError.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    n_e = grids.eps_energy_count(epsilon, nodes_per_period)
    if n_e % n_windows != 0:
        raise ValueError("window count must divide the energy grid")
    energies, we, y, sqrtE, k1, k2_diag = _eps_operators(params, grids, epsilon, n_e)
    sig = params.sigma_eps(grids.angles, energies, epsilon)  # (nw, nE)
    aw = grids.angle_weight
    nw = grids.n_omega

    r = grids.r_nodes
    active, base0 = _initial_slices(
        phi_in, grids, t_end, grids.angles[:, None], energies, y
    )
    na = len(active)
    times = np.linspace(0.0, t_end, n_steps + 1)
    dt = times[1] - times[0]
    decay_step = np.exp(-dt * sig)

    k2_batched = np.ascontiguousarray(k2_diag.transpose(1, 2, 0))  # (w, E', v)
    scale_out = sqrtE[None, None, :] * aw

    # both contractions run as batched matmuls (BLAS) rather than einsums
    def reduce(f):
        # R: (na, w, E') -> g[(v, w), na] = we sum_E' k2[v, w, E'] f[w, E']
        g = np.matmul(f.transpose(1, 0, 2), k2_batched) * we  # (w, na, v)
        return g.transpose(2, 0, 1).reshape(nw * nw, na)

    def spread(g):
        # S: g[(v, w), na] -> (na, v, E) = sqrt(E) aw sum_w k1[v, w, E] g[v, w]
        gv = g.reshape(nw, nw, na).transpose(0, 2, 1)  # (v, na, w)
        return scale_out * np.matmul(gv, k1).transpose(1, 0, 2)

    # R S is block diagonal in the middle angle: (R S g)[v, w] =
    # sum_w' C[v, w, w'] g[w, w'] with C = we aw sum_E' k2 sqrt(E') k1
    C = we * aw * np.einsum("vwe,wxe->vwx", k2_diag * sqrtE, k1)
    RS = np.einsum("vwx,wu->vwux", C, np.eye(nw)).reshape(nw * nw, nw * nw)
    step_matrix = np.eye(nw * nw) - 0.5 * dt * RS
    # an explicit inverse keeps every step in numpy's BLAS: scipy's LAPACK
    # brings a second thread pool that contends with numpy's on each step
    try:
        step_inv = np.linalg.inv(step_matrix)
        cond = np.linalg.norm(step_matrix, 1) * np.linalg.norm(step_inv, 1)
    except np.linalg.LinAlgError:
        cond = np.inf
    if cond * nw * nw * np.finfo(float).eps > 1.0:
        raise RuntimeError(
            "implicit scattering step is numerically singular; "
            "increase n_steps"
        )

    per_win = n_e // n_windows
    r_weight = 2.0 * grids.r_box / grids.n_r

    def windowed_avg(f):
        return f.reshape(f.shape[:-1] + (n_windows, per_win)).mean(axis=-1)

    def l2_norm(f):
        return float(
            np.sqrt((f**2).sum() * we * grids.angle_weight * r_weight)
        )

    psi = base0
    full = (
        np.empty((n_steps + 1,) + psi.shape) if store_full else None
    )
    windowed = np.empty((n_steps + 1,) + psi.shape[:-1] + (n_windows,))
    if store_full:
        full[0] = psi
    windowed[0] = windowed_avg(psi)
    sup_l2 = l2_norm(psi)
    min_value = float(psi.min())

    decay_t = np.ones_like(sig)
    G = np.zeros_like(psi)
    F = spread(reduce(psi))
    for n in range(n_steps):
        decay_t = decay_t * decay_step
        G = decay_step[None] * (G + 0.5 * F)
        known = decay_t[None] * base0 + dt * G
        # psi_{n+1} = known + (dt/2) K psi_{n+1}, and F = K psi_{n+1} = S g
        F = spread(step_inv @ reduce(known))
        psi = known + dt * 0.5 * F
        G = G + 0.5 * F
        if store_full:
            full[n + 1] = psi
        windowed[n + 1] = windowed_avg(psi)
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


class _TwoScaleOperators:
    """Set-up shared by the two limit solvers on the (omega, E, y) grid.

    Holds sigma with its y-mean and fluctuation, the kappa tables, and the
    active r-slices of the initial data split into its y-mean psi0 and
    mean-free part rho0.  Scattering factors as K = S R: R reduces a field
    over (w', E'[, y']) to g[r, v, w], and ``spread`` is S.
    """

    def __init__(self, params: OpticalParameters, phi_in, grids: TransportGrids, t_end):
        self.energies = grids.energy_nodes()
        self.we = grids.energy_weight()
        self.sqrtE = np.sqrt(self.energies)
        self.scale_out = self.sqrtE[None, None, :] * grids.angle_weight
        self.y_nodes = PeriodicGrid(grids.n_y).nodes
        self.wy = 1.0 / grids.n_y
        self.sig = params.sample_sigma(grids.angles, self.energies, self.y_nodes)
        self.sig_mean = self.sig.mean(axis=2)  # (nw, nE)
        self.sig_fluct = self.sig - self.sig_mean[:, :, None]
        self.k1 = _mu_table(params.kappa1, grids, self.energies)
        self.k2y = _mu_table(
            params.kappa2, grids, self.energies[:, None], self.y_nodes
        )  # (nw, nw, nE', ny)
        self.k2bar = self.k2y.mean(axis=3)  # y-average of kappa2(mu, E', .)
        self.active, phi0 = _initial_slices(
            phi_in, grids, t_end,
            grids.angles[:, None, None], self.energies[:, None], self.y_nodes,
        )  # (na, nw, nE, ny)
        self.psi0 = phi0.mean(axis=3)
        self.rho0 = phi0 - self.psi0[..., None]

    def spread(self, g: np.ndarray) -> np.ndarray:
        """S: g[r, v, w] -> sqrt(E) aw sum_w k1[v, w, E] g[r, v, w]."""
        return self.scale_out * np.einsum("vwE,rvw->rvE", self.k1, g)

    def scatter(self, kern: np.ndarray, f: np.ndarray) -> np.ndarray:
        """S R f for f[r, w, E'], with R = we sum_E' kern[v, w, E'] f."""
        return self.spread(np.einsum("vwe,rwe->rvw", kern, f) * self.we)

    def scatter_cell(self, f: np.ndarray) -> np.ndarray:
        """S R f for a cell field f[r, w, E', y'], reduced against kappa2."""
        g = np.einsum("vwey,rwey->rvwe", self.k2y, f, optimize=True) * self.wy
        return self.spread(self.we * g.sum(axis=3))


def solve_two_scale_transport(
    params: OpticalParameters,
    phi_in,
    grids: TransportGrids,
    t_end: float = 1.5,
    n_steps: int = 300,
) -> TwoScaleTransportSolution:
    """RK4 march of the coupled mean/corrector transport system.

    State: psi_hom(r, w, E) and mean-free rho(r, w, E, y).  The corrector
    feels only the sigma-oscillation; scattering couples through the
    y-averaged source terms.  Only the r-slices where phi_in is nonzero
    are marched; the returned fields cover every r-node.
    """
    op = _TwoScaleOperators(params, phi_in, grids, t_end)
    sig, wy = op.sig, op.wy
    scaled = op.sqrtE[None, None, :]

    def rhs(t, ps, rh):
        sig_rho_mean = np.einsum("wey,rwey->rwe", sig, rh) * wy
        dps = (
            -scaled * op.sig_mean[None] * ps
            + op.scatter(op.k2bar, ps)
            + op.scatter_cell(rh)
            - scaled * sig_rho_mean
        )
        drh = -scaled[..., None] * (
            sig[None] * rh
            - sig_rho_mean[..., None]
            + op.sig_fluct[None] * ps[..., None]
        )
        return dps, drh

    r = grids.r_nodes
    times = np.linspace(0.0, t_end, n_steps + 1)
    dt = times[1] - times[0]
    psi, rho = op.psi0, op.rho0
    psis = np.zeros((n_steps + 1, len(r)) + psi.shape[1:])
    psis[0, op.active] = psi
    max_mean = float(np.max(np.abs(rho.mean(axis=3))))
    for n in range(n_steps):
        psi, rho = rk4_step(rhs, times[n], dt, psi, rho)
        psis[n + 1, op.active] = psi
        max_mean = max(max_mean, float(np.max(np.abs(rho.mean(axis=3)))))
    hom_field = PhaseSpaceField(times, r, grids.angles, op.energies, psis)
    # only the final corrector state is kept; its history would dominate
    # memory and downstream consumers need the invariant, not the path
    rho_final = np.zeros((1, len(r)) + rho.shape[1:])
    rho_final[0, op.active] = rho
    rho_field = PhaseSpaceField(
        times[-1:],
        r,
        grids.angles,
        op.energies,
        rho_final,
        y_nodes=op.y_nodes,
    )
    return TwoScaleTransportSolution(hom_field, rho_field, max_mean)


def solve_closed_kernel_transport(
    params: OpticalParameters,
    phi_in,
    grids: TransportGrids,
    t_end: float = 1.5,
    n_steps: int = 300,
) -> PhaseSpaceField:
    """Verification route: march the closed memory-kernel equation.

    The corrector is eliminated through its Duhamel formula, leaving a
    Volterra equation for psi_hom whose kernels are cell averages of the
    energy-scaled semigroup exp(-tau sqrt(E) L_sigma) applied to the
    sigma fluctuation, weighted by sigma (local part) or kappa2
    (scattering part).  History cost is quadratic in n_steps: this route
    exists to verify the coupled system, so run it on reduced grids.
    Only the r-slices where phi_in is nonzero are marched.  The RK4
    substep is bounded by 2 / max(sqrt(E) sigma), inside the real-axis
    stability interval; a Picard iteration that misses its cap raises
    RuntimeError.
    """
    op = _TwoScaleOperators(params, phi_in, grids, t_end)
    sig, sqrtE, wy, we, psi0 = op.sig, op.sqrtE, op.wy, op.we, op.psi0
    r = grids.r_nodes
    times = np.linspace(0.0, t_end, n_steps + 1)
    dt = times[1] - times[0]
    scaled = sqrtE[None, :, None]

    def decay_rhs(t, v):
        # d/dt v = -sqrt(E) L_sigma v per (w, E), L_sig v = sig v - <sig v>
        sv = sig * v
        return (-scaled * (sv - sv.mean(axis=-1, keepdims=True)),)

    # slice 0 is the kernel state W = L_1 sigma, the rest the source state
    # V = L_1 phi_in per r-slice; both decay under the same generator
    state = np.concatenate([op.sig_fluct[None], op.rho0])

    kd = np.empty((n_steps + 1,) + op.sig_mean.shape)        # E <sig W>
    kc = np.empty((n_steps + 1,) + op.k2y.shape[:3])         # sqrt(E') <k2 W>
    src = np.empty((n_steps + 1,) + psi0.shape)

    def record(j, state):
        W, V = state[0], state[1:]
        kd[j] = op.energies[None, :] * (sig * W).mean(axis=2)
        kc[j] = sqrtE[None, None, :] * np.einsum("vwey,wey->vwe", op.k2y, W) * wy
        s_local = sqrtE[None, None, :] * np.einsum("wey,rwey->rwe", sig, V) * wy
        src[j] = op.scatter_cell(V) - s_local

    record(0, state)
    # RK4 is stable on the real axis up to h * rate = 2.78; the substep is
    # min(2e-3, 2 / rate), written so that sigma = 0 needs no branch
    rate = float(np.max(scaled * sig))
    nsub = max(1, int(np.ceil(dt / (2.0 / max(rate, 1e3)))))
    h = dt / nsub
    for j in range(1, n_steps + 1):
        for _ in range(nsub):
            (state,) = rk4_step(decay_rhs, 0.0, h, state)
        record(j, state)

    # product-trapezoid march of
    # dpsi/dt + sqrt(E)<sig> psi - K_bar psi
    #   = src(t) + int_0^t [kd(t-s) psi(s) - kc(t-s) psi(s)] ds
    # where K_bar = scatter(k2bar, .) is the instantaneous scattering
    diag = sqrtE[None, :] * op.sig_mean
    denom = 1.0 + 0.5 * dt * diag - 0.25 * dt * dt * kd[0]
    psis = np.empty((n_steps + 1,) + psi0.shape)
    psis[0] = psi0
    conv_prev = np.zeros_like(psi0)
    for n in range(n_steps):
        # known part of the trapezoid history at t_{n+1}
        hist = np.zeros_like(psi0)
        if n >= 1:
            hist = np.einsum(
                "lwe,lrwe->rwe", kd[1 : n + 1][::-1], psis[1 : n + 1]
            )
            g = np.einsum("lvwe,lrwe->rvw", kc[1 : n + 1][::-1], psis[1 : n + 1]) * we
            hist = hist - op.spread(g)
        conv_known = dt * (
            0.5 * (kd[n + 1] * psis[0] - op.scatter(kc[n + 1], psis[0])) + hist
        )
        rhs_fixed = (
            psis[n] * (1.0 - 0.5 * dt * diag)
            + 0.5 * dt * (op.scatter(op.k2bar, psis[n]) + src[n] + src[n + 1])
            + 0.5 * dt * (conv_known + conv_prev)
        )
        # Picard over the off-diagonal implicit couplings
        nxt = psis[n].copy()
        for _ in range(80):
            coupling = (
                0.5 * dt * op.scatter(op.k2bar, nxt)
                - 0.25 * dt * dt * op.scatter(kc[0], nxt)
            )
            upd = (rhs_fixed + coupling) / denom
            delta = np.max(np.abs(upd - nxt))
            nxt = upd
            if delta < 1e-13:
                break
        else:
            raise RuntimeError(
                f"closed-kernel Picard iteration unconverged at step {n + 1} "
                f"(last update {delta:.2e}); increase n_steps"
            )
        psis[n + 1] = nxt
        conv_prev = conv_known + 0.5 * dt * (kd[0] * nxt - op.scatter(kc[0], nxt))
    values = np.zeros((n_steps + 1, len(r)) + psi0.shape[1:])
    values[:, op.active] = psis
    return PhaseSpaceField(times, r, grids.angles, op.energies, values)


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
