"""Reference routes that only the tests use.

The package computes the cell semigroup, the memory kernel and the source
through exponential sums over poles from Lanczos Gauss rules.  These routes
form the semigroup directly, by scaling-and-squaring of the dense operator
matrix or by RK4 on the decay ODE, or sum every pole of the secular
equation (Golub 1973) with the eigenvector coefficients, and serve as
independent oracles for those sums.

The other oracles check the package against routes it no longer runs:

- :func:`volterra_residual`, the a-posteriori residual of a candidate
  Volterra solution by centered differences and a full trapezoid sum;
- :func:`solve_volterra_direct` marches the product-trapezoid scheme of
  :func:`homokin.volterra.solve_volterra` with the history summed directly
  over the tabulated values, O(N^2), against the solver's pole recursion;
- :func:`solve_coupled_direct` takes the mean/remainder system's RK4 steps
  one at a time and keeps the full remainder, against the block march of
  :func:`homokin.multiscale.solve_coupled_system`;
- the oscillator's resolvent B(p) = M(p)^{-1} (:func:`matrix_B`), the
  regularized kernel transform (:func:`regularized_kernel_laplace`), the
  exact rotations and a trapezoid Laplace transform of the averaged
  rotations (:func:`averaged_rotation_laplace_numeric`);
- :func:`windowed_average_errors`, window averages of a field gap in x;
- :class:`CellEnergyField`, the L2 norm of a field over (t, E, y);
- :func:`hom_field_on`, the full (t, E) homogenized toy field on a foreign
  energy grid, whose Legendre modes the rank-two projection of
  :meth:`homokin.boltzmann.TwoScaleToySolution.modes_on` is checked
  against;
- :func:`full_mesh_reductions`, the toy eps run marched on its whole
  energy mesh and reduced state by state, against the one-period march of
  :func:`homokin.boltzmann._reduce_eps_run`;
- :func:`convergence_study`, one serial eps sweep of the toy model;
- :func:`stieltjes_polynomials`, the grid-orthonormal polynomials by the
  Stieltjes recurrence with grid sums, on any grid, against the closed-form
  discrete Legendre rows of
  :func:`homokin.diagnostics.orthonormal_polynomials`;
- :func:`gauss_radau_rules`, the q-point Gauss and Gauss-Radau rules of
  one start vector, that bracket the certified rules of
  :func:`homokin.cell.gauss_poles` and, with one node per atom, give the
  oscillator's exact poles;
- :func:`exact_poles`, every pole and residue of B(p) from one dense
  eigensystem, against the Lanczos Gauss rules and as the pole engine of
  the closed transport route;
- :func:`solve_separable_energy_model`, RK4 on a rank-one energy model
  stage by stage, which the angle-isotropic transport run and the toy
  model's moment march are checked against;
- :func:`pair_mu_table` and :class:`PairScattering`, the kappa tables
  and the scattering pair ``reduce``/``spread``/``matrix`` per angle pair
  (w, w'), against the package's tables per angle gap;
- :class:`GapScattering` and :func:`implicit_inverse`, the scattering
  pair ``reduce``/``spread`` per angle gap through the angle-pair field
  g[v, w] and the implicit step on its n_omega^2 unknowns, against the
  package's K and step in the kernel's energy rank;
- :func:`sample_sigma` and :func:`sigma_eps`, sigma sampled straight from
  its callable on the (omega, E, y) tensor grid and along y = E/eps,
  against the rate of the package's one transport set-up;
- :func:`scattering_matrix`, the dense (n_omega n_E)^2 kernel matrix of K
  on an eps grid, whose symmetric part's least eigenvalue checks the
  per-mode blocks of :func:`homokin.transport.coercivity_test`, and whose
  row and column sums check the rates kappa_bar and kappa_tilde that
  :func:`homokin.transport.subcriticality_check` reads;
- :func:`solve_closed_kernel_transport`, the closed memory-kernel route
  to psi_hom, against the two-scale march of
  :func:`homokin.transport.solve_two_scale_transport`, with its own dense
  output :class:`PhaseSpaceField`;
- :func:`dense_psi_hom`, the factored psi_hom of
  :func:`homokin.transport.solve_two_scale_transport` expanded over every
  r-node and angle, the one place where the tests densify it;
- :func:`characteristics_field`, the dense field of the oscillatory
  march at every step and active r-slice, from which the tests read off
  the reductions of :func:`homokin.transport.solve_characteristics_eps`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import expm

from homokin.boltzmann import (
    EnergyGrid,
    SweepPointResult,
    ToyProblem,
    TwoScaleToySolution,
    _rank_one_march,
    _toy_eps_set_up,
    sweep,
)
from homokin.cell import (
    POLE_CHUNK,
    CellFunction,
    CellOperator,
    PeriodicGrid,
    _distinct,
    _level_means,
    _power_of_two,
    _rules,
    cell_average,
    fluctuation,
    pole_sum,
    rk4_step,
)
from homokin.diagnostics import ConvergenceReport, EnergyField
from homokin.kernels import KernelTable
from homokin.multiscale import OdeProblem
from homokin.oscillator import YoungMeasure, cell_averaged_limit
from homokin.transport import (
    HomogenizedField,
    OpticalParameters,
    TransportGrids,
    _eps_set_up,
    _expand,
    _gap_index,
    _initial_slices,
    _march,
    _mu_table,
    _rank_rows,
)
from homokin.volterra import (
    SolverError,
    TimeGrid,
    VolterraProblem,
    _source_samples,
)

_SECULAR_MAX_ITER = 60


def _check_same_grid(a: CellFunction, b: CellFunction) -> None:
    if a.grid.n != b.grid.n:
        raise ValueError(f"grid mismatch: n={a.grid.n} vs n={b.grid.n}")


def operator_matrix(g: CellFunction) -> np.ndarray:
    """Dense n x n representation diag(g) - 1 (w*g)^T of L_g."""
    gv = g.values
    return np.diag(gv) - np.outer(np.ones_like(gv), g.grid.weights * gv)


def apply_L(op: CellOperator, v: CellFunction) -> CellFunction:
    """Apply L_g; the result has zero cell average by construction."""
    _check_same_grid(op.g, v)
    return CellFunction(v.grid, op.apply(v.values))


def default_semigroup_step(sigma: CellFunction) -> float:
    """Default RK4 step for the ode-integrate path.

    The stability bound is min(0.1, 1/(4 max sigma)); the extra factor 32
    pushes the O(h^4) integration error below 1e-10 so the two semigroup
    routes agree to the contracted 1e-8.
    """
    smax = float(np.max(np.abs(sigma.values)))
    return min(0.1, 1.0 / (4.0 * max(smax, 1e-30))) / 32.0


def semigroup_apply(
    sigma: CellFunction,
    tau: float,
    h: CellFunction,
    method: str = "matrix-exp",
    step: float | None = None,
) -> CellFunction:
    """Apply exp(-tau * L_sigma) to h.

    ``matrix-exp`` exponentiates the dense operator matrix
    (scaling-and-squaring); ``ode-integrate`` advances the decay ODE with
    RK4 and is kept as an independent cross-check path.  The cell mean of
    h is conserved for every tau.
    """
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    _check_same_grid(sigma, h)
    op = CellOperator(sigma)
    if method == "matrix-exp":
        out = expm(-tau * operator_matrix(sigma)) @ h.values
    elif method == "ode-integrate":
        if step is None:
            step = default_semigroup_step(sigma)
        else:
            smax = float(np.max(np.abs(sigma.values)))
            step = min(step, 0.1, 1.0 / (4.0 * max(smax, 1e-30)))
        nsteps = int(np.ceil(tau / step))
        out = h.values.copy()
        for _ in range(nsteps):
            (out,) = rk4_step(lambda t, w: (-op.apply(w),), 0.0, tau / nsteps, out)
    else:
        raise ValueError(f"unknown semigroup method {method!r}")
    return CellFunction(h.grid, out)


def memory_kernel_eval(sigma: CellFunction, tau: float) -> float:
    """Pointwise kernel value K(tau); K(0) is the cell variance of sigma."""
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    h = fluctuation(sigma)
    w = semigroup_apply(sigma, tau, h)
    return float(sigma.grid.weights @ (sigma.values * w.values))


def secular_poles(values, weights) -> tuple[np.ndarray, np.ndarray]:
    """Roots and residues of the secular equation sum_j W_j / (d_j - x) = 0.

    Values equal up to rounding are merged, weights summed and zero
    weights dropped, into distinct d_1 < ... < d_m.  The secular function
    rises from -inf to +inf on each gap (d_k, d_{k+1}), so it has exactly one
    root lambda_k there; its residue is r_k = 1 / sum_j W_j (d_j - lambda_k)^-2.

    Applied to (sigma, grid weights) the roots are the eigenvalues of the
    rank-one update L_sigma = diag(sigma) - 1 (w sigma)^T other than 0 and
    the sigma values, with eigenvectors 1/(sigma - lambda_k).  They are the
    poles of B(p) at p = -lambda_k, so B(p) = p + <sigma> -
    sum_k r_k/(p + lambda_k), the kernel is K(tau) = sum_k r_k
    e^{-lambda_k tau} and sum_k r_k = Var sigma (Golub 1973).

    Each root is found in the variable shifted to the nearer end of its
    gap, by the two-pole rational iteration of Gu & Eisenstat kept inside
    a shrinking bracket; rows of roots are solved in bounded chunks.
    Raises RuntimeError if a root does not converge.
    """
    d, w, scale, _ = _distinct(values, weights)
    roots = np.empty(max(len(w) - 1, 0))
    residues = np.empty_like(roots)
    rows = max(1, POLE_CHUNK // max(len(w), 1))
    for start in range(0, len(roots), rows):
        gaps = np.arange(start, min(start + rows, len(roots)))
        roots[gaps], residues[gaps] = _solve_gaps(d, w, gaps)
    return scale * roots, scale * scale * residues


def _solve_gaps(d: np.ndarray, w: np.ndarray, k: np.ndarray):
    """Secular roots in the gaps (d_k, d_{k+1}) for a run of indices k."""
    rows = np.arange(len(k))
    # origin: the end of the gap nearer the root, by the sign at mid-gap
    delta = d - d[k][:, None]
    f_mid = (w / (delta - 0.5 * delta[rows, k + 1][:, None])).sum(axis=1)
    origin = np.where(f_mid >= 0.0, k, k + 1)
    delta = d - d[origin][:, None]
    lo, hi = delta[rows, k], delta[rows, k + 1]  # the gap's poles, shifted
    y = 0.5 * (lo + hi)
    # columns j <= k hold the left partial sum: all up to k[0], a band after
    band = np.arange(k[0] + 1, k[-1] + 1) <= k[:, None]

    def left_sum(a):
        return a[:, : k[0] + 1].sum(axis=1) + (a[:, k[0] + 1 : k[-1] + 1] * band).sum(axis=1)

    done = np.zeros(len(k), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_SECULAR_MAX_ITER):
            inv = 1.0 / (delta - y[:, None])
            terms = w * inv
            f = terms.sum(axis=1)
            f_left = left_sum(terms)
            done |= np.abs(f) <= 16.0 * np.finfo(float).eps * (f - 2.0 * f_left)
            if done.all():
                break
            lo = np.where(f < 0.0, y, lo)
            hi = np.where(f > 0.0, y, hi)
            # model c + s/(d1 - eta) + t/(d2 - eta) matching the slopes of
            # the left and right partial sums; take its root in the gap
            slope = terms * inv
            s_left = left_sum(slope)
            d1, d2 = delta[rows, k] - y, delta[rows, k + 1] - y
            s, t = d1 * d1 * s_left, d2 * d2 * (slope.sum(axis=1) - s_left)
            c = f - s / d1 - t / d2
            b = c * (d1 + d2) + s + t
            disc = np.sqrt(np.maximum(b * b - 4.0 * c * d1 * d2 * f, 0.0))
            step = y + 2.0 * d1 * d2 * f / (b + np.copysign(disc, b))
            step = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
            # a bracket too narrow to split leaves the root at full precision
            done |= (step <= lo) | (step >= hi) | (step == y)
            y = np.where(done, y, step)
    if not done.all():
        raise RuntimeError(
            f"secular equation: {int((~done).sum())} of {len(k)} roots did not "
            f"converge in {_SECULAR_MAX_ITER} iterations"
        )
    inv = 1.0 / (delta - y[:, None])
    return d[origin] + y, 1.0 / (w * inv * inv).sum(axis=1)


def _eigen_coefficients(sigma: CellFunction, poles: np.ndarray, v: np.ndarray) -> np.ndarray:
    """<v / (sigma - lambda_k)> per pole for cell data v of shape (..., n)."""
    wv = np.asarray(v) * sigma.grid.weights
    out = np.empty(wv.shape[:-1] + (len(poles),))
    cols = max(1, POLE_CHUNK // sigma.grid.n)
    for i in range(0, len(poles), cols):
        out[..., i : i + cols] = wv @ (1.0 / np.subtract.outer(sigma.values, poles[i : i + cols]))
    return out


def secular_response(sigma: CellFunction, v: np.ndarray, taus) -> np.ndarray:
    """<sigma e^{-tau L_sigma} (v - <v>)> summed over every secular pole."""
    poles, residues = secular_poles(sigma.values, sigma.grid.weights)
    g = v - sigma.grid.weights @ v
    return pole_sum(poles, residues * _eigen_coefficients(sigma, poles, g), taus)


def _kernel_samples(problem: VolterraProblem, grid: TimeGrid) -> np.ndarray:
    """The kernel on the grid's lags, (count+1, d, d): its pole form, lag0 at lag 0."""
    d = problem.u0.size
    table = KernelTable(grid.times, problem.kernel.modes, problem.kernel.lag0)
    return table.values.reshape(grid.count + 1, d, d)


def volterra_residual(
    problem: VolterraProblem, solution: np.ndarray, grid: TimeGrid
) -> float:
    """A-posteriori residual of a candidate solution.

    Recomputes du/dt by centered differences on interior nodes and the
    convolution by an independent full trapezoid sum, and returns the max
    norm of  du/dt + a u - conv - S.  The trapezoid at t_n is the discrete
    convolution sum_{j<=n} K_{n-j} u_j less half its two end terms.
    """
    count, dt, d = grid.count, grid.dt, problem.u0.size
    K = _kernel_samples(problem, grid)
    S = _source_samples(problem, grid)
    u = np.asarray(solution, dtype=float).reshape(count + 1, d)
    full = np.zeros((count + 1, d))
    for i, j in np.ndindex(d, d):
        full[:, i] += np.convolve(K[:, i, j], u[:, j])[: count + 1]
    ends = K @ u[0] + u @ K[0].T
    conv = dt * (full - 0.5 * ends)
    dudt = (u[2:] - u[:-2]) / (2.0 * dt)
    res = dudt + u[1:-1] @ problem.a.reshape(d, d).T - conv[1:-1] - S[1:-1]
    return float(np.max(np.abs(res))) if len(res) else 0.0


def solve_volterra_direct(problem: VolterraProblem, grid: TimeGrid) -> np.ndarray:
    """The product-trapezoid march with the history summed directly, O(N^2).

    Same scheme and implicit factor as :func:`homokin.volterra.solve_volterra`,
    but each step's history sum_{j=1}^{n} K_{n+1-j} u_j runs over the
    sampled kernel instead of the kernel's pole form.
    """
    count, dt, d = grid.count, grid.dt, problem.u0.size
    K = _kernel_samples(problem, grid)
    S = _source_samples(problem, grid)
    local_src = 0.5 * dt * (S[:-1] + S[1:])
    a = problem.a.reshape(d, d)
    eye = np.eye(d)
    u = np.empty((count + 1, d))
    u[0] = problem.u0.ravel()
    factor = eye + 0.5 * dt * a - 0.25 * dt * dt * K[0]
    if abs(np.linalg.det(factor)) < 1e-14:
        raise SolverError(f"implicit {d}x{d} factor is singular")
    finv = np.linalg.inv(factor)
    explicit = eye - 0.5 * dt * a
    head = 0.5 * dt * K[1:] @ u[0]
    conv_prev = np.zeros(d)
    for n in range(count):
        hist = np.einsum("tij,tj->i", K[n:0:-1], u[1 : n + 1])
        conv_next_known = head[n] + dt * hist
        rhs = explicit @ u[n] + local_src[n] + 0.5 * dt * (conv_next_known + conv_prev)
        u[n + 1] = finv @ rhs
        conv_prev = conv_next_known + 0.5 * dt * (K[0] @ u[n + 1])
    return u.reshape((count + 1,) + problem.u0.shape)


def solve_coupled_direct(problem: OdeProblem, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """(u_hom, r) of the mean/remainder system, one RK4 step at a time.

    Same equations as :func:`homokin.multiscale.solve_coupled_system`, but
    each step calls ``rk4_step`` on the state itself instead of marching
    the step matrix in blocks, and the full remainder r, shape
    (nt+1, n_cell), is kept.
    """
    w = problem.sigma.grid.weights
    sig = problem.sigma.values
    sig_mean = cell_average(problem.sigma)
    l1sig = fluctuation(problem.sigma).values
    f = problem.f
    favg, fl = (0.0, 0.0) if f is None else (cell_average(f), fluctuation(f).values)

    def rhs(t: float, u: float, r: np.ndarray):
        sr = sig * r
        sr_mean = float(w @ sr)
        return favg - sig_mean * u - sr_mean, (sr_mean - sr) - u * l1sig + fl

    nt, dt = grid.count, grid.dt
    u_hom = np.empty(nt + 1)
    r_hist = np.empty((nt + 1, len(sig)))
    u = float(cell_average(problem.u_in))
    r = fluctuation(problem.u_in).values.copy()
    u_hom[0], r_hist[0] = u, r
    for j in range(nt):
        u, r = rk4_step(rhs, j * dt, dt, u, r)
        u_hom[j + 1], r_hist[j + 1] = u, r
    return u_hom, r_hist


def rotation_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def exact_rotation(b: float, t: float, u_in: np.ndarray) -> np.ndarray:
    """Flow of dU/dt = b A U: a rotation by angle b t."""
    return rotation_matrix(b * t) @ np.asarray(u_in, dtype=float)


def _resolvent_scalars(nu: YoungMeasure, p):
    """a(p), c(p) with M(p) = a Id + c A; complex p allowed."""
    p = np.asarray(p)
    denom = p[..., None] ** 2 + nu.atoms**2
    a = ((p[..., None] / denom) * nu.weights).sum(axis=-1)
    c = ((nu.atoms / denom) * nu.weights).sum(axis=-1)
    return a, c


def _commutant_matrix(alpha, beta) -> np.ndarray:
    """alpha Id + beta A as an explicit 2x2 (works for complex entries)."""
    return np.array([[alpha, beta], [-beta, alpha]])


def matrix_B(nu: YoungMeasure, p) -> np.ndarray:
    """B(p) = M(p)^{-1}; M's commutant form inverts in closed form."""
    if not np.iscomplexobj(np.asarray(p)) and np.real(p) <= 0:
        raise ValueError(f"p must be positive, got {p}")
    a, c = _resolvent_scalars(nu, p)
    det = a * a + c * c
    return _commutant_matrix(a / det, -c / det)


def regularized_kernel_laplace(nu: YoungMeasure, p) -> np.ndarray:
    """Ktilde_hat(p) = B(p) - p Id + b* A; decays like Var/p at large p."""
    if not np.iscomplexobj(np.asarray(p)) and np.real(p) <= 0:
        raise ValueError(f"p must be positive, got {p}")
    a, c = _resolvent_scalars(nu, p)
    det = a * a + c * c
    return _commutant_matrix(a / det - p, -c / det + nu.mean)


def averaged_rotation_laplace_numeric(
    nu: YoungMeasure, p: float, u_in: np.ndarray, tail_tol: float = 1e-6
) -> np.ndarray:
    """Trapezoid Laplace transform of the averaged rotations.

    The averages oscillate without decay, so the horizon is set from
    exp(-p T)/p <= tail_tol and the step resolves the fastest rotation.
    """
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    t_max = np.log(1.0 / (p * tail_tol)) / p
    dt = min(2e-4, 0.05 / max(nu.max_abs_atom, 1.0))
    n = int(np.ceil(t_max / dt))
    ts = np.linspace(0.0, n * dt, n + 1)
    vals = cell_averaged_limit(nu, ts, np.asarray(u_in, dtype=float))
    weights = np.exp(-p * ts)
    return np.trapezoid(weights[:, None] * vals, ts, axis=0)


def windowed_average_errors(x_nodes: np.ndarray, diff: np.ndarray, windows) -> np.ndarray:
    """|window average of diff| per window, midpoint quadrature in x."""
    x = np.asarray(x_nodes)
    out = []
    for a, b in windows:
        mask = (x >= a) & (x < b)
        if not np.any(mask):
            raise ValueError(f"window ({a}, {b}) contains no x-nodes")
        out.append(abs(float(np.mean(diff[mask]))))
    return np.array(out)


@dataclass(frozen=True, eq=False)
class CellEnergyField:
    """Field over (t, E, y); y carries cell-average weights."""

    times: np.ndarray
    energies: np.ndarray
    e_weights: np.ndarray
    y_weights: np.ndarray
    values: np.ndarray  # (nt, nE, ny)

    def l2_norm(self) -> float:
        sq = np.einsum("tey,e,y->t", self.values**2, self.e_weights, self.y_weights)
        return float(np.sqrt(np.trapezoid(sq, self.times)))


def hom_field_on(
    hom: TwoScaleToySolution, energies: np.ndarray, a: np.ndarray
) -> EnergyField:
    """phi_hom = a(E) <X>_y + <Z>_y as a full (nt+1, nE) field on a foreign
    uniform energy grid, with the profile ``a`` evaluated on it."""
    energies = np.asarray(energies, dtype=float)
    means = hom.cell.mean(axis=2)
    vals = np.outer(means[:, 0], a) + means[:, 1:]
    h = energies[1] - energies[0]
    return EnergyField(hom.times, energies, np.full(len(energies), h), vals)


def full_mesh_reductions(problem: ToyProblem, egrid: EnergyGrid, rows: np.ndarray, times):
    """(coefficients, squared L2(E) norms) of the eps run marched on all of
    ``egrid``: block coefficients and one ``einsum`` a state, as
    :func:`homokin.boltzmann._reduce_eps_run` reduces a mesh that does not
    fold."""
    set_up = _toy_eps_set_up(problem, egrid.nodes, egrid.h, egrid.n)
    coeffs, sq = [], []
    for block in _rank_one_march(*set_up, times):
        coeffs.append(np.einsum("ke,be->bk", rows, block))
        sq += [np.einsum("e,e->", phi, phi) for phi in block]
    return np.concatenate(coeffs), np.array(sq) * egrid.h


def convergence_study(
    example_id: int,
    placement: str,
    epsilons,
    k_max: int = 8,
    **kwargs,
) -> tuple[ConvergenceReport, list[SweepPointResult]]:
    """Run an eps sweep serially and aggregate it into a ConvergenceReport."""
    eps_sorted = sorted(float(e) for e in epsilons)[::-1]
    points = sweep(example_id, placement, eps_sorted, k_max, **kwargs)
    report = ConvergenceReport.from_sweep(
        np.array(eps_sorted),
        np.stack([p.mode_errors for p in points]),
        np.array([p.norm_diff for p in points]),
    )
    return report, points


def stieltjes_polynomials(nodes, weights, k_max: int) -> np.ndarray:
    """Rows l_0..l_kmax orthonormal under sum_i w_i f_i g_i, any grid.

    The Stieltjes three-term recurrence with its coefficients from grid
    sums, each new row re-orthogonalized against the two before it.
    """
    nodes = np.asarray(nodes, dtype=float)
    weights = np.asarray(weights, dtype=float)
    dot = lambda f, g: float(np.einsum("e,e,e->", weights, f, g))
    polys = np.empty((k_max + 1, len(nodes)))
    p_prev = np.zeros_like(nodes)
    p = np.ones_like(nodes)
    p = p / np.sqrt(dot(p, p))
    polys[0] = p
    for k in range(k_max):
        alpha = dot(nodes * p, p)
        q = (nodes - alpha) * p
        if k > 0:
            q -= beta * p_prev
        q -= polys[k] * dot(polys[k], q)
        if k > 0:
            q -= polys[k - 1] * dot(polys[k - 1], q)
        beta = np.sqrt(dot(q, q))
        p_prev, p = p, q / beta
        polys[k + 1] = p
    return polys


def gauss_radau_rules(values, weights, q: int, start):
    """((nodes, weights), (radau_nodes, radau_weights)): the q-point Gauss and
    (q+1)-point Gauss-Radau rules of the spectral measure of <z, e^{-tau A} z>.

    z is the mean-free level-set means of ``start``, and the rules are
    those of :func:`homokin.cell._rules`, whose Gauss-Radau bracket
    :func:`homokin.cell.gauss_poles` doubles q against.  For start = sigma
    this is the kernel measure sum_k r_k delta_{lambda_k} of mass Var sigma;
    with q of at least m - 1 on m distinct values the Gauss rule is exact.
    """
    d, w, scale, nodes = _distinct(values, weights)
    z_scale = _power_of_two(start)  # exact, so the mass <z^2> does not underflow
    z = _level_means(np.ravel(start) / z_scale, weights, nodes, w)
    return tuple((x, r * z_scale * z_scale) for x, r in _rules(d, w, scale, z, q))


def exact_poles(values, weights) -> tuple[np.ndarray, np.ndarray]:
    """All poles lambda_k and residues r_k of the kernel measure, by one dense eigh.

    With the unit vector u = sqrt(W / sum W) over the distinct values d
    (:func:`homokin.cell._distinct`), the cell operator on mean-free data
    is A = P diag(d) P, P = I - u u^T.  One Householder reflector H maps u
    to -e_1, and H diag(d - <d>) H = [[0, b^T], [b, C]]: the eigenvalues of
    C + <d> are the poles of B(p), the eigenvectors of L_sigma are
    1/(sigma - lambda_k), and r_k = (y_k^T b)^2 for the unit eigenvectors
    y_k of C, so sum_k r_k = |b|^2 = Var sigma.  O(m^3) in the number m of
    distinct values; for small m only.
    """
    d, w, scale, _ = _distinct(values, weights)
    mean = (w @ d) / w.sum()
    u = np.sqrt(w / w.sum())
    u[0] += 1.0  # reflector vector u + e_1, with |u + e_1|^2 = 2 (1 + u_0)
    house = np.eye(len(d)) - np.outer(u, u) / u[0]
    block = house @ ((d - mean)[:, None] * house)
    poles, vectors = np.linalg.eigh(block[1:, 1:])
    return scale * (poles + mean), scale * scale * (vectors.T @ block[1:, 0]) ** 2


def solve_separable_energy_model(
    decay: np.ndarray,
    emit: np.ndarray,
    collect: np.ndarray,
    phi0: np.ndarray,
    e_weight: float,
    t_end: float,
    n_steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """General rank-one energy model  dphi/dt = -decay phi + emit <collect, phi>.

    Covers both toy placements (emit = 1 or kappa, collect = kappa or 1)
    and the angle-averaged transport reduction with its sqrt(E) weights.
    Returns (times, values), marched stage by stage on the full state,
    against the moment form of :func:`homokin.boltzmann._rank_one_march`.
    """
    rhs = lambda t, phi: (-decay * phi + emit * (e_weight * (collect @ phi)),)
    times = np.linspace(0.0, t_end, n_steps + 1)
    states = [np.asarray(phi0, dtype=float)]
    for j in range(n_steps):
        (phi,) = rk4_step(rhs, times[j], times[j + 1] - times[j], states[-1])
        states.append(phi)
    return times, np.array(states)


def pair_mu_table(fn, grids: TransportGrids, *args) -> np.ndarray:
    """fn(mu, *args) at mu = cos(angle_w - angle_w') per angle pair, shape (w, w', *rest).

    ``rest`` is the broadcast shape of ``args``: equal 1-D arrays pair
    their entries (E'_j, y_j), axes set up to broadcast give a tensor table.
    """
    rest = np.broadcast(*args).shape
    angles = grids.angles
    mu = np.cos(angles[:, None] - angles[None, :]).reshape(angles.shape * 2 + (1,) * len(rest))
    return np.asarray(fn(mu, *args) * np.ones(mu.shape[:2] + rest))


def sample_sigma(params: OpticalParameters, angles, energies, y) -> np.ndarray:
    """sigma(theta, E, y) on the (angle, energy, y) tensor grid, no sqrt(E)."""
    th = np.asarray(angles)[:, None, None]
    ee = np.asarray(energies)[None, :, None]
    yy = np.asarray(y)[None, None, :]
    return np.asarray(params.sigma(th, ee, yy) * np.ones_like(th * ee * yy))


def sigma_eps(params: OpticalParameters, angles, energies, epsilon: float) -> np.ndarray:
    """The rate sqrt(E) sigma(theta, E, E/eps) on the (angle, energy) grid."""
    energies = np.asarray(energies)
    y = np.mod(energies / epsilon, 1.0)
    th = np.asarray(angles)[:, None]
    base = params.sigma(th, energies[None, :], y[None, :])
    return np.sqrt(energies)[None, :] * np.asarray(
        base * np.ones_like(th * energies[None, :])
    )


def scattering_matrix(
    params: OpticalParameters,
    epsilon: float,
    grids: TransportGrids,
    n_e: int | None = None,
) -> np.ndarray:
    """Dense kernel action K[(w,E),(w',E')] including quadrature weights.

    kernel(v, E; w, E') = sqrt(E) k1(mu_vw, E) k2(mu_vw, E', E'/eps) aw we,
    one einsum over the package's gap tables read per angle pair.
    """
    energies = grids.energy_nodes(n_e)
    k1 = _mu_table(params.kappa1, grids, energies)
    k2 = _mu_table(params.kappa2, grids, energies, np.mod(energies / epsilon, 1.0))
    gap = _gap_index(grids.n_omega)
    kern = np.einsum("E,vwE,vwf->vEwf", np.sqrt(energies), k1[gap], k2[gap])
    kern *= grids.angle_weight * grids.energy_weight(n_e)
    n = grids.n_omega * len(energies)
    return kern.reshape(n, n)


class PairScattering:
    """Scattering K = S R on one energy grid, through g[r, v, w].

    R contracts a field f[r, w, T] against a kernel table kern[v, w, T]
    over its trailing axes T, which are E' or (E', y'); S spreads
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


class GapScattering:
    """Scattering K = S R on one energy grid per angle gap, through g[r, v, w].

    R contracts a field f[r, w, T] against a gap table kern[k, T] over its
    trailing axes T, which are E' or (E', y'), in one matmul (BLAS) and
    gathers g through the gap index; S folds g onto the gaps of v and
    spreads it back to (r, v, E) over the kappa1 gap table in one matmul.
    ``matrix`` is C of R S on the angle-pair field g[v, w], n_omega^2
    unknowns per r-slice, where the package works in the kernel's energy
    rank.
    """

    def __init__(self, grids: TransportGrids, energies: np.ndarray, k1: np.ndarray):
        self.k1 = k1
        self.scale = np.sqrt(energies) * grids.angle_weight
        self.gap = _gap_index(grids.n_omega)
        self.gather = np.arange(grids.n_omega) * len(k1) + self.gap
        self.fold = (self.gap[..., None] == np.arange(len(k1))).astype(float)

    def reduce(self, kern: np.ndarray, f: np.ndarray, weight) -> np.ndarray:
        """R: g[r, v, w] = weight sum_T kern[gap[v, w], T] f[r, w, T]."""
        P = f.reshape(-1, kern[0].size) @ kern.reshape(len(kern), -1).T  # (r w, k)
        return weight * P.reshape(len(f), -1)[:, self.gather]  # P[r, w, gap[v, w]]

    def spread(self, g: np.ndarray) -> np.ndarray:
        """S: g[r, v, w] -> sqrt(E) aw sum_w k1[gap[v, w], E] g[r, v, w]."""
        H = np.einsum("rvw,vwk->rvk", g, self.fold)  # exact: a gap holds <= 2 w
        return self.scale * np.tensordot(H, self.k1, axes=1)  # one GEMM over (r v)

    def matrix(self, kern: np.ndarray, weight) -> np.ndarray:
        """C of R S for kern[k, E']: (R S g)[v, w] = sum_x C[v, w, x] g[w, x]."""
        M = (kern * self.scale) @ self.k1.T  # (k, k')
        return weight * M[self.gap[:, :, None], self.gap]


def implicit_inverse(C: np.ndarray) -> Callable:
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


@dataclass(frozen=True, eq=False)
class PhaseSpaceField:
    """Dense kinetic field over (t, r, omega, E)."""

    times: np.ndarray
    r_nodes: np.ndarray
    angles: np.ndarray
    energies: np.ndarray
    values: np.ndarray          # (nt, nr, nw, nE)


def dense_psi_hom(field: HomogenizedField) -> np.ndarray:
    """psi_hom on every (t, r, omega, E): zero off the active r-nodes,
    C @ means through :func:`homokin.transport._expand` on them, and a
    one-angle field broadcast to every angle."""
    shape = (len(field.times), len(field.r_nodes), len(field.angles), len(field.energies))
    out = np.zeros(shape)
    out[:, field.active] = _expand(field.C, field.means)
    return out


def characteristics_field(
    params: OpticalParameters,
    phi_in,
    epsilon: float,
    grids: TransportGrids,
    t_end: float = 1.5,
    n_steps: int = 200,
    nodes_per_period: int = 100,
) -> np.ndarray:
    """psi[t, r, omega, E] of the oscillatory march on its active r-slices.

    The set-up, slices, rank rows and march of
    :func:`homokin.transport.solve_characteristics_eps`, with every block
    of rank-row states mapped back through C by
    :func:`homokin.transport._expand` and a one-angle field broadcast to
    every angle; shape (n_steps + 1, len(active), n_omega, nE).
    """
    energies, y, k1, k2, rate = _eps_set_up(
        params, grids, epsilon, nodes_per_period=nodes_per_period
    )
    _, slices = _initial_slices(
        phi_in, grids, grids.angles[:, None, None], energies[:, None], y
    )
    C, rows = _rank_rows(slices)
    dt = np.linspace(0.0, t_end, n_steps + 1)[1]
    we = grids.energy_weight(len(energies))
    field, n = np.empty((n_steps + 1,) + slices.shape[:-1]), 0
    for block in _march(grids, energies, k1, k2, we, rate, rows, dt, n_steps):
        field[n:n + len(block)] = _expand(C, block[..., 0])
        n += len(block)
    return field


def solve_closed_kernel_transport(
    params: OpticalParameters,
    phi_in,
    grids: TransportGrids,
    t_end: float = 1.5,
    n_steps: int = 300,
) -> PhaseSpaceField:
    """March the closed memory-kernel equation for psi_hom in poles.

    The corrector is eliminated through its Duhamel formula, leaving a
    Volterra equation for psi_hom.  Per (w, E) the corrector decays under
    sqrt(E) L_sigma.  On mean-free cell data L_sigma has the poles
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
    through the reduced n_omega^2 system of :func:`implicit_inverse`, and
    the scattering runs through the angle-pair tables of
    :class:`PairScattering`, here over the trailing axes (E', k) of the
    pole tables too.  Poles come from
    :func:`exact_poles` once per distinct cell profile and the y grid is
    never marched.  Only the r-slices where phi_in is nonzero are marched.
    """
    energies = grids.energy_nodes()
    sqrtE, we = np.sqrt(energies), grids.energy_weight()
    y = PeriodicGrid(grids.n_y).nodes
    wy = 1.0 / grids.n_y
    op = PairScattering(grids, energies, pair_mu_table(params.kappa1, grids, energies))
    sig = sample_sigma(params, grids.angles, energies, y)
    k2y = pair_mu_table(params.kappa2, grids, energies[:, None], y)  # (nw, nw, nE', ny)
    active, phi0 = _initial_slices(
        phi_in, grids, grids.angles[:, None, None], energies[:, None], y
    )  # (na, nw, nE, ny)
    psi0 = phi0.mean(axis=3)
    sig_mean = sig.mean(axis=2)  # (nw, nE)
    sig_fluct = sig - sig_mean[:, :, None]
    k2bar = k2y.mean(axis=3)  # y-average of kappa2(mu, E', .)
    rho0 = phi0 - psi0[..., None]
    nw, ne, ny = sig.shape
    profiles, which = np.unique(sig.reshape(-1, ny), axis=0, return_inverse=True)
    which = which.reshape(nw, ne)
    solved = [exact_poles(p, np.full(ny, wy)) for p in profiles]
    m = max(len(poles) for poles, _ in solved)
    lam = np.zeros((len(profiles), m))
    res = np.zeros((len(profiles), m))  # padded poles carry no weight
    c2 = np.zeros(k2y.shape[:3] + (m,))  # <kappa2 phi_k>
    beta = np.zeros(rho0.shape[:3] + (m,))
    v_perp = rho0.copy()
    for p, (poles, residues) in enumerate(solved):
        k, at = len(poles), which == p
        lam[p, :k], res[p, :k] = poles, residues
        phi = 1.0 / (profiles[p][None, :] - poles[:, None])  # (k, ny)
        c2[:, at, :k] = k2y[:, at] @ phi.T * wy
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
        g = op.reduce(c2, Y, we) + op.reduce(k2y, X, we * wy)
        local = Y.sum(axis=3) + (sig * X).mean(axis=3)
        return op.spread(g) - sqrtE * local

    # trapezoid step of dpsi/dt + sqrt(E)<sig> psi - K_bar psi = memory,
    # the lag-zero kernels kd0, kc0 taken implicitly with the K_bar coupling
    diag = sqrtE[None, :] * sig_mean
    kd0 = energies[None, :] * (sig * sig_fluct).mean(axis=2)
    kc0 = sqrtE[None, None, :] * np.einsum("vwey,wey->vwe", k2y, sig_fluct) * wy
    denom = 1.0 + 0.5 * dt * diag - 0.25 * dt * dt * kd0
    coupling = 0.5 * dt * k2bar - 0.25 * dt * dt * kc0
    solve = implicit_inverse(op.matrix(coupling / denom[None], we))

    psis = np.zeros((n_steps + 1, len(r)) + psi0.shape[1:])
    psis[0, active] = psi0
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
        psis[n + 1, active] = psi
        mem_prev = mem + 0.5 * dt * (kd0 * psi - op.spread(op.reduce(kc0, psi, we)))
    return PhaseSpaceField(times, r, grids.angles, energies, psis)
