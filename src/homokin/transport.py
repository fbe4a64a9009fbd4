"""Planar kinetic transport with energy-oscillatory optical parameters.

Geometry is d = 2: angles live on the unit circle with uniform nodes and
trapezoid weights (exact for trigonometric polynomials), energies on a
cell-centered window [e_min, e_max], the fast variable y = E/eps on the
periodic cell.  The optical parameters follow the separable form

    sigma_eps(w, E)       = sqrt(E) sigma(w, E, E/eps)
    kappa_eps(mu, E, E')  = sqrt(E) kappa1(mu, E) kappa2(mu, E', E'/eps),

with mu = cos(angle difference).  The model is space-homogeneous at each
spatial label r: the scattering at label r reads only label r, so labels
do not interact and no solver moves mass between them.  At each label the
oscillatory problem is the Volterra fixed point

    psi = phi_in e^{-t sigma_eps} + int_0^t int kappa_eps e^{-(t-s) sigma_eps} psi(s)

A streaming term sqrt(E) w.grad_x would shift the labels inside the
scattering integral and couple them; that is a separate route and is not
built here.  The homogenized limit is the same equation for the two-scale
field phi(r, w, E, y) on the (omega, E, y) grid, with the decay sqrt(E)
sigma taken at each cell node and the scattering reduced over (w', E',
y').  Its y-average is psi_hom and phi - <phi>_y is the mean-free
corrector rho.  Both problems run through the one product-trapezoid march
of :func:`_march`; the oscillatory one is the cell of a single node
y = E/eps.  kappa sees angles only through mu = cos(w - w'), so it is
rotation invariant and each kappa table holds one row per angle gap
min(|v - w|, n_omega - |v - w|) of a node pair (v, w), sampled at the
gap's exact cosine.  :func:`_set_up` builds the tables and the rate
sqrt(E) sigma for both solvers and both checks, on the node y = E/eps
of each energy or on the periodic cell.  Both solvers start in one
front end, :func:`_front_end`, and differ only in the energies, the cell
y and the reduction weight they hand it; n_steps < 1 or t_end <= 0
raises ValueError there.
Both solvers and the coercivity check use K in the energy rank of its
gap tables (:func:`_energy_rank`): the kappa2 table is factored once as
Ck @ Rk with c rows, the kappa1 table as C1 @ R1 with c1 rows (c = c1 =
1 for transport-subcritical-1, 0 for transport-kappa0), and a marched field
enters K only through its c contractions against Rk per angle, in the
three matrix products of :func:`_scatter`; no angle-pair field and no
dense kernel matrix is built.  :func:`coercivity_test` splits
sym(sigma_eps - K) by angular mode into n_E-square blocks and returns
the exact least eigenvalue.  The implicit trapezoid step is a linear
system of size n_omega c1, inverted once per run by
:func:`_implicit_map`; a singular step, or one whose spectral radius
reaches 1, raises RuntimeError.  Since K commutes with rotations of the
circle, a field that is the same at every angle stays so under a rate
that is: when the rate and the marched data are both bitwise constant in
angle, as for every preset with :func:`hat_initial_data`, the march
steps one angle with the m = 0 block of the factors, a c1-square step,
and the outputs are broadcast to the n_omega angles; the n_omega c1
system is still formed and checked.  The fields come out bitwise the
same at 1 and 2 BLAS threads.
Every solver keeps only the r-slices where the initial data is nonzero;
the other slices stay exactly zero.  Data that misses every r-node
raises ConfigError.  Since labels do not interact and the march is
linear, slices that are proportional at t = 0 stay proportional, so both
solvers march the data's r-rank, not its r-slices: :func:`_rank_rows`
factors the active slices once as slices = C @ rows, the march runs on
the rows, and every output is mapped back through C.  psi_hom is
returned in those factors (:class:`HomogenizedField`) and expanded only
where it is read.  Initial data that is not finite at some r-node raises
ValueError.  The march hands the solvers blocks of consecutive steps
(MARCH_CHUNK floats, :func:`homokin.cell.march_blocks`), and each solver
reduces a whole block at once.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import ConfigError
from .cell import PeriodicGrid, march_blocks, wrap


# n_omega^2 n_E <= 2^23: sized for angle-pair kappa tables, now stored per angle gap
EPS_TABLE_BUDGET = 2**23
# Floats in one block of march states, 512 kB: the solvers reduce a block of
# steps at a time.  2 MB blocks were no faster on the benchmark grids and
# raised the peak RSS by 2.5 MB.  An all-angle eps march at the finest
# default eps (16 x 12007 nodes) falls back to one step per block.
MARCH_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class TransportGrids:
    n_omega: int = 16
    n_e: int = 32
    n_y: int = 128
    n_r: int = 32
    e_min: float = 0.25
    e_max: float = 1.0
    r_box: float = 2.0

    def __post_init__(self) -> None:
        if not 0 <= self.e_min < self.e_max < np.inf:  # False for NaN
            raise ValueError(
                f"need 0 <= e_min < e_max < inf, got e_min={self.e_min:g}, e_max={self.e_max:g}"
            )
        if min(self.n_omega, self.n_e, self.n_y, self.n_r) < 2:
            raise ValueError("grids need at least two nodes per axis")
        if not self.r_box > 0:
            raise ValueError(f"r_box must be positive, got r_box={self.r_box:g}")

    @property
    def angles(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n_omega) / self.n_omega

    @property
    def angle_weight(self) -> float:
        return 2.0 * np.pi / self.n_omega

    def energy_nodes(self, n: int | None = None) -> np.ndarray:
        n = self.n_e if n is None else n
        return self.e_min + (np.arange(n) + 0.5) * self.energy_weight(n)

    def energy_weight(self, n: int | None = None) -> float:
        n = self.n_e if n is None else n
        if n < 1:
            raise ValueError(f"energy grid needs n >= 1 nodes, got n={n}")
        return (self.e_max - self.e_min) / n

    @property
    def r_nodes(self) -> np.ndarray:
        h = 2.0 * self.r_box / self.n_r
        return -self.r_box + (np.arange(self.n_r) + 0.5) * h

    def eps_energy_count(self, epsilon: float, nodes_per_period: int = 100) -> int:
        """Energy nodes of the eps grid; ValueError for eps <= 0 or no node.

        n_omega^2 n is held to EPS_TABLE_BUDGET; MemoryError above it.
        """
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        n = int(round((self.e_max - self.e_min) * nodes_per_period / epsilon))
        if n < 1:
            raise ValueError(f"eps = {epsilon:g} gives {n} energy nodes; need at least one")
        if self.n_omega**2 * n > EPS_TABLE_BUDGET:
            raise MemoryError(
                f"eps = {epsilon:g} needs {n} energy nodes, so n_omega^2 n_E = "
                f"{self.n_omega**2 * n}; the budget is {EPS_TABLE_BUDGET}, "
                f"at most {EPS_TABLE_BUDGET // self.n_omega**2} energy nodes"
            )
        return n


@dataclass(frozen=True, eq=False)
class OpticalParameters:
    """Optical data as callables.

    ``sigma(theta, E, y)`` is the base cross-section without the sqrt(E)
    factor, applied at use sites.  ``kappa1(mu, E)`` and
    ``kappa2(mu, E', y')`` are evaluated at the exact cosines of the
    n_omega//2 + 1 angle gaps.
    """

    sigma: Callable
    kappa1: Callable
    kappa2: Callable


def _gap_index(n_omega: int) -> np.ndarray:
    """gap[v, w] = min(|v - w|, n_omega - |v - w|), the angle gap of a node pair."""
    d = np.abs(np.arange(n_omega)[:, None] - np.arange(n_omega)[None, :])
    return np.minimum(d, n_omega - d)


def _mu_table(fn, grids: TransportGrids, *args) -> np.ndarray:
    """fn(mu, *args) per angle gap k, mu = cos(2 pi k / n_omega), shape (k, *rest).

    The pair (v, w) reads row _gap_index(n_omega)[v, w].  fn is called
    once, at the n_omega//2 + 1 gap cosines, and its output is the table,
    broadcast to the full shape.  ``rest`` is the broadcast shape of
    ``args``: equal 1-D arrays pair their entries (E'_j, y_j), axes set up
    to broadcast give a tensor table.
    """
    rest = np.broadcast(*args).shape
    mu = np.cos(grids.angles[: grids.n_omega // 2 + 1]).reshape((-1,) + (1,) * len(rest))
    return np.asarray(fn(mu, *args) * np.ones(mu.shape[:1] + rest))


def _set_up(params: OpticalParameters, grids: TransportGrids, energies, y):
    """kappa1[k, E], kappa2[k, E', y'] per angle gap k and rate sqrt(E) sigma.

    ``y`` broadcasts against energies[:, None]: shape (nE, 1) holds the one
    node E/eps of each energy, shape (1, n_y) the periodic cell.  The rate
    has shape (n_omega, nE, ny) and is a read-only broadcast view of
    sqrt(E) sigma as sigma returns it, so a sigma that does not depend on
    angle takes no n_omega copies.
    """
    ee = energies[:, None]
    k1 = _mu_table(params.kappa1, grids, energies)
    k2 = _mu_table(params.kappa2, grids, ee, y)
    shape = (grids.n_omega,) + np.broadcast(ee, y).shape
    rate = np.sqrt(ee) * params.sigma(grids.angles[:, None, None], ee, y)
    return k1, k2, np.broadcast_to(rate, shape)


def _eps_cell(grids: TransportGrids, epsilon: float, n_e=None, nodes_per_period=None):
    """Energies and the cell y = E/eps of shape (nE, 1), one node per energy.

    The energies are ``n_e`` nodes (the reference grid if None) or, given
    ``nodes_per_period``, the eps grid.  eps <= 0 raises ValueError.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if nodes_per_period is not None:
        n_e = grids.eps_energy_count(epsilon, nodes_per_period)
    energies = grids.energy_nodes(n_e)
    return energies, wrap(energies / epsilon)[:, None]


def _eps_set_up(params, grids, epsilon: float, n_e=None, nodes_per_period=None):
    """The energies and cell of :func:`_eps_cell`, then :func:`_set_up` on them."""
    energies, y = _eps_cell(grids, epsilon, n_e, nodes_per_period)
    return (energies, y) + _set_up(params, grids, energies, y)


def _bars(grids: TransportGrids, energies, k1, k2) -> tuple[np.ndarray, np.ndarray]:
    """kappa_bar(E) and kappa_tilde(E) from the eps-grid tables, angle-blind.

    kappa_bar is K applied to 1, kappa_tilde is K^T applied to 1, trapezoid
    in angle (uniform circle nodes), midpoint in energy, both read through
    the factors of :func:`_energy_rank` at h = 1.  Every angle w sees the
    same gaps, so both rates are those of w = 0.
    """
    we, nw = grids.energy_weight(len(energies)), grids.n_omega
    Rk, s, A, _ = _energy_rank(grids, energies, k1, k2, we, 1.0)
    A0 = A.reshape(nw, len(s), nw, len(Rk))[0].sum(axis=1)  # row v = 0, summed over w
    return (A0 @ Rk.sum(axis=1)) @ s, (s.sum(axis=1) @ A0) @ Rk


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
    energies, _, k1, k2, rate = _eps_set_up(params, grids, epsilon, n_e)
    bar, tilde = _bars(grids, energies, k1, k2)
    sig = rate[..., 0]
    return float(min(np.min(sig - bar), np.min(sig - tilde)))


def coercivity_test(
    params: OpticalParameters,
    epsilon: float,
    grids: TransportGrids,
    n_e: int | None = None,
) -> float:
    """Least eigenvalue of sym Q, Q = sigma_eps - K: the exact minimum Rayleigh quotient.

    K is block-circulant in angle with blocks symmetric in the gap, so for
    a rate constant in angle a real DFT over angles splits sym Q into
    n_omega//2 + 1 real n_E-square blocks diag(rate) - sym(s^T A_m Rk), one
    per mode m, with the factors of :func:`_energy_rank` at h = 1.  A rate
    not bitwise constant in angle raises ValueError.
    """
    energies, _, k1, k2, rate = _eps_set_up(params, grids, epsilon, n_e)
    if not np.all(rate == rate[:1]):
        raise ValueError("coercivity_test needs a sigma that does not depend on angle")
    we, nw = grids.energy_weight(len(energies)), grids.n_omega
    Rk, s, A, _ = _energy_rank(grids, energies, k1, k2, we, 1.0)
    # A[(0, i), (w, j)] is the block of the gap of w; A_m is its cosine sum
    cos = np.cos(2.0 * np.pi * np.outer(np.arange(nw // 2 + 1), np.arange(nw)) / nw)
    K_m = s.T @ np.einsum("mw,iwj->mij", cos, A.reshape(nw, len(s), nw, len(Rk))[0]) @ Rk
    Q_m = np.diag(rate[0, :, 0]) - 0.5 * (K_m + K_m.transpose(0, 2, 1))
    return float(np.linalg.eigvalsh(Q_m).min())


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
    raise ConfigError(f"preset: unknown transport preset {name!r}")


def hat_initial_data(support: float = 0.5):
    """phi_in(r, theta, E, y) = hat(r) (1 + sin(2 pi y)), angle-blind."""

    def phi_in(r, theta, E, y):
        shape = np.broadcast(r, theta, E, y).shape
        hat = np.maximum(0.0, 1.0 - np.abs(r) / support)
        return np.broadcast_to(hat * (1.0 + np.sin(2 * np.pi * y)), shape).copy()

    return phi_in


def _initial_slices(phi_in, grids: TransportGrids, *axes) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the r-slices where phi_in is nonzero, and phi_in on them.

    ``axes`` are the (omega, E[, y]) arguments after r, broadcast to the
    slice shape.  Labels do not interact and every solver is linear, so
    the slices left out stay exactly zero.  A slice holding a NaN or an
    infinity raises ValueError naming its r-node, and data that vanishes
    on every r-node raises ConfigError.
    """
    r = grids.r_nodes
    kept = []
    for i, rv in enumerate(r):
        s = phi_in(rv, *axes)
        if not np.all(np.isfinite(s)):
            raise ValueError(f"initial data is not finite at the r-node {rv:g}")
        if np.any(s):
            kept.append((i, s))
    if not kept:
        raise ConfigError(
            f"n_r: initial data vanishes on all {len(r)} r-nodes; "
            "refine n_r so that a node falls inside its support"
        )
    return np.array([i for i, _ in kept]), np.stack([s for _, s in kept])


def _rank_rows(slices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Skeleton factoring slices = C @ rows over the leading axis.

    The rows are slices of the data itself.  Slices that are bitwise equal,
    keyed on their bytes (so 0.0 and -0.0 differ), share one row with
    coefficient exactly 1.  The distinct ones go through
    a column-pivoted Gram-Schmidt (reorthogonalized once), which takes the
    slice of largest residual as the next row and stops when every
    residual is at most 16 sqrt(N) eps max|slice| in the 2-norm, N the
    slice size.  C solves the triangular factor of the chosen rows, and
    each row's own coefficients are set to the exact unit vector.  An
    all-zero stack has rank 0: C has no columns and there are no rows.
    """
    flat = np.ascontiguousarray(slices.reshape(len(slices), -1))
    # bitwise equal slices have equal bytes; hashing all of them costs more
    # than the compares, so the dict keys on the bytes of a strided sample
    bits, sample = flat.view(np.uint8), slice(None, None, max(1, flat.shape[1] // 16))
    places = {}  # the bytes of a sample -> places in distinct of slices with it
    distinct, owner = [], []
    for i, s in enumerate(flat):
        bucket = places.setdefault(s[sample].tobytes(), [])
        j = next((j for j in bucket if np.array_equal(bits[distinct[j]], bits[i])), None)
        if j is None:
            j = len(distinct)
            bucket.append(j)
            distinct.append(i)
        owner.append(j)
    res = flat[distinct].copy()
    largest = np.linalg.norm(res, axis=1).max()
    tol = 16.0 * np.sqrt(flat.shape[1]) * np.finfo(float).eps * largest
    pivots, basis, coef = [], [], []
    while len(pivots) < len(distinct):
        norms = np.linalg.norm(res, axis=1)
        p = int(np.argmax(norms))
        if not norms[p] > tol:
            break
        q = res[p] / norms[p]
        if basis:
            B = np.array(basis)
            q -= (B * q).sum(axis=1) @ B
            q /= np.linalg.norm(q)
        c = (res * q).sum(axis=1)  # not res @ q: BLAS would split the sum
        res -= np.outer(c, q)
        res[p] = 0.0  # a chosen row takes no later coefficients
        pivots.append(p)
        basis.append(q)
        coef.append(c)
    # distinct = coef.T @ basis + res, so coef = R X with R = coef[:, pivots]
    # upper triangular; back-substitute for X, the rows' coefficients
    k = len(pivots)
    R = np.array(coef).reshape(k, len(distinct))  # k = 0 for all-zero slices
    X = np.empty_like(R)
    for i in reversed(range(k)):
        X[i] = (R[i] - R[i, pivots][i + 1:] @ X[i + 1:]) / R[i, pivots[i]]
    X[:, pivots] = np.eye(k)
    C = X.T[owner]
    rows = slices[[distinct[p] for p in pivots]]
    return C, rows


def _expand(C: np.ndarray, f: np.ndarray) -> np.ndarray:
    """C @ f[i] for each step i of a block f[k, rank, ...]: rank rows back to slices.

    One stacked np.matmul, which multiplies each step as C @ f[i] would.
    """
    k, rank = f.shape[:2]
    return np.matmul(C, f.reshape(k, rank, -1)).reshape((k, len(C)) + f.shape[2:])


def _energy_rank(grids: TransportGrids, energies, k1, kern: np.ndarray, weight, h: float):
    """h K = S R in the energy rank of its gap tables: (Rk, s, A, B).

    :func:`_rank_rows` factors kern = Ck @ Rk (c rows) and k1 = C1 @ R1
    (c1 rows), every row a row of the table, so a full-rank table has C = I.
    Then h K f = sum_i q[r, v, i] s[i, E] with s = h sqrt(E) aw R1,
    q = A p, p[r, w, j] = sum_T Rk[j, T] f[r, w, T] and
    A[(v, i), (w, j)] = weight C1[gap[v, w], i] Ck[gap[v, w], j].  A field
    F[r, w, E'] constant in y' is mapped to p = (I_omega x G^T) q by
    G = s @ Rk.sum(y')^T, so B = A (I_omega x G^T) is h R S in reduced
    coordinates, of size n_omega c1 and with the nonzero spectrum of h R S.
    """
    Ck, Rk = _rank_rows(kern)
    C1, R1 = _rank_rows(k1)
    gap, nw, c, c1 = _gap_index(grids.n_omega), grids.n_omega, len(Rk), len(R1)
    s = (h * (np.sqrt(energies) * grids.angle_weight)) * R1
    G = s @ Rk.sum(axis=-1).T  # (c1, c)
    A = np.einsum("vwi,vwj->viwj", C1[gap], Ck[gap]).reshape(nw * c1, nw * c)
    A *= weight
    B = (A.reshape(nw * c1, nw, c) @ G.T).reshape(nw * c1, nw * c1)
    return Rk.reshape(c, kern[0].size), s, A, B


def _scatter(Rk: np.ndarray, s: np.ndarray, m_t: np.ndarray, f: np.ndarray) -> np.ndarray:
    """q @ s with q = p @ m_t, p = f Rk^T: three products, f[r, w, T] -> (r, w, E, 1).

    With the factors of :func:`_energy_rank`, m_t = A^T gives h K f and
    m_t = M^T of :func:`_implicit_map` the implicit end point of a step.
    A field of one angle, that of an isotropic march, is contracted by
    einsum: with one row and c = 1, f @ Rk^T is a dot product, which
    OpenBLAS splits over its threads on long energy grids.
    """
    n_r, n_w = f.shape[:2]
    f = f.reshape(n_r * n_w, -1)
    p = (np.einsum("ax,cx->ac", f, Rk) if n_w == 1 else f @ Rk.T).reshape(n_r, -1)
    q = (p @ m_t).reshape(n_r * n_w, len(s))
    return (q @ s).reshape(n_r, n_w, s.shape[1], 1)


def _implicit_map(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """M = (I - B)^{-1} A, the implicit end point q = M p of the reduced step.

    The inverse is formed once, of size n_omega c1.  A numerically
    singular I - B raises RuntimeError, and so does a spectral radius
    rho(B) >= 1, where the trapezoid step flips the sign of the scattering
    growth.  The infinity norm bounds rho(B), so eigenvalues are computed
    only when it reaches 1.
    """
    n = len(B)
    step_matrix = np.eye(n) - B
    try:
        step_inv = np.linalg.inv(step_matrix)
        cond = np.linalg.norm(step_matrix, 1) * np.linalg.norm(step_inv, 1)
    except np.linalg.LinAlgError:
        cond = np.inf
    if cond * n * np.finfo(float).eps > 1.0:
        raise RuntimeError(
            "implicit scattering step is numerically singular; increase n_steps"
        )
    if np.abs(B).sum(axis=1).max(initial=0.0) >= 1.0:
        radius = float(np.max(np.abs(np.linalg.eigvals(B))))
        if radius >= 1.0:
            raise RuntimeError(
                f"implicit scattering step unresolved: spectral radius "
                f"{radius:.3g} >= 1; increase n_steps"
            )
    return step_inv @ A


def _march(
    grids: TransportGrids, energies, k1, kern: np.ndarray, weight, rate: np.ndarray,
    phi0: np.ndarray, dt: float, n_steps: int,
):
    """Product-trapezoid march of phi[r, w, E, y] in blocks of states.

    phi(t) = e^{-t rate} phi0 + int_0^t e^{-(t-s) rate} F(s) ds with
    F = S R phi, R reducing over (w', E', y') against kern with ``weight``,
    so F does not depend on y.  The decay is exact per node and the
    integral is the trapezoid rule in s, so one step with h = dt/2 is
    known = e^{-dt rate} (phi + h F), phi = known + h F; the time error is
    O(dt^2).  h F runs through :func:`_scatter` in the energy rank of
    :func:`_energy_rank`, and the implicit end point is q = M p(known) with
    M of :func:`_implicit_map`.  The steps run in
    :func:`homokin.cell.march_blocks`.

    K commutes with rotations of the circle, so a field that is the same
    at every angle stays so when the rate is too.  If rate and phi0 are
    both bitwise constant along the angle axis, the march steps one
    angle, rate[:1] and phi0[:, :1], and its states have one angle.  A
    field constant in w' meets only the m = 0 block of the factors: the
    first block-row of A, and of M, summed over w'.  M is still formed
    and checked on all n_omega c1 unknowns, so the same inputs raise.
    """
    Rk, s, A, B = _energy_rank(grids, energies, k1, kern, weight, 0.5 * dt)
    M = _implicit_map(A, B)
    if np.all(rate == rate[:1]) and np.all(phi0 == phi0[:, :1]):
        nw = len(rate)
        rate, phi0 = rate[:1], phi0[:, :1]
        A, M = (m.reshape(nw, len(s), nw, len(Rk))[0].sum(axis=1) for m in (A, M))
    step_t, decay_step = M.T, np.exp(-dt * rate)
    hF = _scatter(Rk, s, A.T, phi0)

    def step(phi, out):
        nonlocal hF
        out = np.add(phi, hF, out=out)
        out *= decay_step
        hF = _scatter(Rk, s, step_t, out)
        out += hF
        return out

    return march_blocks(step, phi0, n_steps, MARCH_CHUNK)


def _front_end(params, phi_in, grids: TransportGrids, energies, y, weight, t_end, n_steps):
    """Set-up, active slices, rank rows and march, shared by both solvers.

    ``y`` is the cell of :func:`_set_up` and ``weight`` the quadrature
    weight of the reduction over (E', y').  Returns the time grid, the
    active r-indices, C of :func:`_rank_rows` and the march of the rank
    rows.  n_steps < 1 or t_end <= 0 raises ValueError.
    """
    if n_steps < 1 or not t_end > 0:
        raise ValueError(f"need n_steps >= 1 and t_end > 0, got {n_steps} and {t_end:g}")
    k1, kern, rate = _set_up(params, grids, energies, y)
    active, slices = _initial_slices(
        phi_in, grids, grids.angles[:, None, None], energies[:, None], y
    )  # (na, nw, nE, ny)
    C, rows = _rank_rows(slices)
    times = np.linspace(0.0, t_end, n_steps + 1)
    march = _march(grids, energies, k1, kern, weight, rate, rows, times[1] - times[0], n_steps)
    return times, active, C, march


@dataclass(frozen=True, eq=False)
class CharacteristicsSolution:
    """Oscillatory transport solution restricted to the active r-slices.

    The field itself is not kept: the windowed-in-E averages, the largest
    L2 norm over the steps and the minimum are reduced from the march one
    block of steps at a time.
    """

    times: np.ndarray
    r_nodes: np.ndarray          # active slices only
    active: np.ndarray           # their indices in grids.r_nodes
    angles: np.ndarray
    energies: np.ndarray
    windowed: np.ndarray         # (nt+1, na, nw, n_windows)
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
    n_windows: int = 6,
) -> CharacteristicsSolution:
    """Product-trapezoid march of the characteristics fixed point.

    r-slices are independent; slices where phi_in vanishes identically
    stay zero and are dropped.  The field runs through :func:`_front_end`
    as a cell of the one node y = E/eps, with rate sigma_eps; the march
    raises RuntimeError on a numerically singular implicit step or a
    spectral radius of (dt/2) R S of at least 1.  It marches the data's
    r-rank: the rows of :func:`_rank_rows`.  The march yields blocks of
    k consecutive steps, and each block is reduced with a few numpy calls
    over its (k, rank, nw, nE) states, each step exactly as a one-step
    block would reduce it.  The windowed averages and the L2 norm come
    from the rows through C (one stacked product per block); the minimum
    too for rank one.  A higher-rank minimum is rebuilt one step at a
    time, so its temporary holds one step of slices, not a block.
    When sigma and the data are angle-blind the march steps one angle:
    the averages, the minimum and the L2 norm (scaled by n_omega) are
    taken on it, and it is broadcast to every angle only when written
    into ``windowed``.  ``n_windows`` below 1 or not dividing the eps
    grid raises ValueError.
    """
    energies, y = _eps_cell(grids, epsilon, nodes_per_period=nodes_per_period)
    n_e = len(energies)
    if n_windows < 1 or n_e % n_windows != 0:
        raise ValueError(
            f"n_windows = {n_windows}: the window count must be at least 1 and "
            f"divide the energy grid of {n_e} nodes"
        )
    we = grids.energy_weight(n_e)
    times, active, C, march = _front_end(params, phi_in, grids, energies, y, we, t_end, n_steps)

    per_win, rank = n_e // n_windows, C.shape[1]
    r_weight = 2.0 * grids.r_box / grids.n_r
    gram_weight = C.T @ C
    # a rank-one c f is least at min f where c > 0 and at max f where c < 0
    ends = [end for end, used in ((np.min, C.max() > 0), (np.max, C.min() < 0)) if used]
    windowed = np.empty((len(times), len(C), grids.n_omega, n_windows))
    sup_l2, min_value, n = 0.0, np.inf, 0
    for block in march:
        psi, k = block[..., 0], len(block)  # (k, rank, nw, nE)
        windows = psi.reshape(psi.shape[:-1] + (n_windows, per_win))
        windowed[n:n + k] = _expand(C, windows.mean(axis=-1))
        # sum over slices of |C f|^2 = sum (C^T C) * (f f^T); numpy's sums
        # keep it independent of the BLAS thread count, which splits dot.
        # A one-angle field stands for n_omega equal angles
        copies = grids.n_omega // psi.shape[2]
        f = psi.reshape(k, rank, -1)
        gram = np.stack([(f * f[:, a, None]).sum(axis=-1) for a in range(rank)], axis=1)
        sq = (gram_weight * gram).sum(axis=(1, 2))
        l2 = np.sqrt(sq * copies * we * grids.angle_weight * r_weight)
        sup_l2 = max(sup_l2, float(l2.max()))
        if rank > 1:  # step by step: the expanded block is na/rank times larger
            low = min(float(_expand(C, psi[i:i + 1]).min()) for i in range(k))
        else:
            low = float(np.min(C * [end(psi) for end in ends]))
        min_value = min(min_value, low)
        n += k
    return CharacteristicsSolution(
        times, grids.r_nodes[active], active, grids.angles, energies, windowed, sup_l2, min_value
    )


@dataclass(frozen=True, eq=False)
class HomogenizedField:
    """psi_hom over (t, r, omega, E), kept in the factors it is marched in.

    At the active r-nodes ``r_nodes[active]`` psi_hom at step n is
    ``C @ means[n]``, mapped by :func:`_expand`; it is exactly zero at the
    other r-nodes.  ``means`` holds the y-means of the marched rank rows,
    shape (nt, rank, n_omega or 1, nE); one angle stands for all n_omega
    when sigma and the data are angle-blind.
    """

    times: np.ndarray
    r_nodes: np.ndarray          # every r-node of the grid
    active: np.ndarray           # indices of the nonzero slices
    angles: np.ndarray
    energies: np.ndarray
    C: np.ndarray                # (len(active), rank)
    means: np.ndarray            # (nt, rank, nw or 1, nE)


def solve_two_scale_transport(
    params: OpticalParameters,
    phi_in,
    grids: TransportGrids,
    t_end: float = 1.5,
    n_steps: int = 300,
) -> HomogenizedField:
    """Product-trapezoid march of the two-scale field phi(r, w, E, y).

    phi starts at phi_in and solves dphi/dt = -sqrt(E) sigma phi + S R phi
    through :func:`_front_end` on the periodic cell, where R reduces phi
    over (w', E', y') against kappa2, so the scattering term does not
    depend on y.  The decay is exact at each cell node and the time error
    is O(dt^2), that of the oscillatory solver it is compared with.  Only
    the data's r-rank is marched, the rows of :func:`_rank_rows` over the
    r-slices where phi_in is nonzero, and the homogenized field
    psi_hom = <phi>_y comes back in that form: the active indices, C and
    the y-means of the rows at every step, one block of steps at a time.
    Angle-blind sigma and data march one angle, and the means keep that
    one angle.
    """
    energies = grids.energy_nodes()
    y = PeriodicGrid(grids.n_y).nodes[None, :]
    weight = grids.energy_weight() * (1.0 / grids.n_y)
    times, active, C, march = _front_end(
        params, phi_in, grids, energies, y, weight, t_end, n_steps
    )
    means = np.concatenate([block.mean(axis=4) for block in march])
    return HomogenizedField(times, grids.r_nodes, active, grids.angles, energies, C, means)


def windowed_weak_error(
    eps_sol: CharacteristicsSolution, hom_field: HomogenizedField
) -> float:
    """Max over (t, r, omega, window) of the windowed-in-E average gap.

    The window count is that of ``eps_sol.windowed``, and each field
    integrates over the windows with its own quadrature.  The homogenized
    reference is read at the oscillatory run's active r-slices by index,
    zero where it has no active slice, expanded through C and only then
    windowed, and interpolated linearly onto the oscillatory time grid.
    ValueError when the r-grids differ at those indices, when the windows
    do not divide the reference energy grid, or when the oscillatory run's
    times leave the reference's: interpolation would clamp them to its ends.
    """
    if eps_sol.times[0] < hom_field.times[0] or eps_sol.times[-1] > hom_field.times[-1]:
        raise ValueError(
            f"oscillatory times [{eps_sol.times[0]:g}, {eps_sol.times[-1]:g}] leave the "
            f"reference's [{hom_field.times[0]:g}, {hom_field.times[-1]:g}]"
        )
    n_windows = eps_sol.windowed.shape[-1]
    per_hom = len(hom_field.energies) // n_windows
    if per_hom * n_windows != len(hom_field.energies):
        raise ValueError("window count must divide the reference energy grid")
    r, active = hom_field.r_nodes, eps_sol.active
    if active.max() >= len(r) or not np.array_equal(r[active], eps_sol.r_nodes):
        raise ValueError("r-grids of the two solutions do not align")
    # each active slice of the oscillatory run reads its slice of psi_hom,
    # or the zero slice appended last where psi_hom has none
    slot = np.full(len(r), len(hom_field.active))
    slot[hom_field.active] = np.arange(len(hom_field.active))
    expanded = _expand(hom_field.C, hom_field.means)
    zero = np.zeros_like(expanded[:, :1])
    hom_vals = np.concatenate([expanded, zero], axis=1)[:, slot[active]]
    hom_win = hom_vals.reshape(hom_vals.shape[:-1] + (n_windows, per_hom)).mean(
        axis=-1
    )
    # linear time interpolation onto the oscillatory grid
    pos = np.interp(eps_sol.times, hom_field.times, np.arange(len(hom_field.times)))
    j0 = np.clip(np.floor(pos).astype(int), 0, len(hom_field.times) - 2)
    w = (pos - j0)[:, None, None, None]
    hom_on_eps = (1.0 - w) * hom_win[j0] + w * hom_win[j0 + 1]
    return float(np.max(np.abs(eps_sol.windowed - hom_on_eps)))
