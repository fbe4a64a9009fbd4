"""Discrete calculus on the periodic unit cell Y = (0, 1).

Everything downstream is built from five pieces living on the cell:

* the average ``<v> = sum_j w_j v_j`` (midpoint rule),
* the multiply-and-center operator ``L_g v = g*v - <g*v>``,
* its resolvent ``(p + L_sigma)^{-1}`` on zero-mean data, whose
  normalization constant is the shifted harmonic mean
  ``B(p) = ( <1/(p+sigma)> )^{-1}``,
* the poles and residues of ``B(p)``, roots of a secular equation, which
  turn the semigroup ``exp(-tau*L_sigma)`` on zero-mean data into
  exponential sums; the semigroup itself is never formed here,
* a few-node Gauss rule of the positive measure those poles and residues
  form, from Lanczos on ``diag(sigma)``, certified by Gauss-Radau bounds.

Cell functions are midpoint samples ``v_j = v((j+1/2)/n)`` with uniform
weights ``1/n``; the rule is spectrally accurate for smooth periodic
integrands and places half-cell jumps exactly between nodes when ``n`` is
even.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True, eq=False)
class PeriodicGrid:
    """Midpoint grid on the unit cell: nodes (j+1/2)/n, weights 1/n."""

    n: int
    nodes: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"grid needs at least one node, got n={self.n}")
        object.__setattr__(self, "nodes", (np.arange(self.n) + 0.5) / self.n)
        object.__setattr__(self, "weights", np.full(self.n, 1.0 / self.n))


@dataclass(frozen=True, eq=False)
class CellFunction:
    """Samples of a 1-periodic function on a :class:`PeriodicGrid`.

    ``fn`` optionally keeps the analytic profile the samples came from, so
    that oscillatory solvers can evaluate at off-grid points exactly
    instead of interpolating.
    """

    grid: PeriodicGrid
    values: np.ndarray
    fn: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n,):
            raise ValueError(
                f"values shape {values.shape} does not match grid n={self.grid.n}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("cell function values must be finite")
        object.__setattr__(self, "values", values)

    @classmethod
    def from_function(cls, grid: PeriodicGrid, fn: Callable) -> "CellFunction":
        return cls(grid, np.asarray(fn(grid.nodes), dtype=float), fn=fn)

    def eval_periodic(self, y: np.ndarray) -> np.ndarray:
        """Evaluate at arbitrary points, wrapping into [0, 1).

        Uses the analytic profile when available, otherwise periodic
        linear interpolation of the samples.
        """
        y = np.asarray(y, dtype=float)
        yw = np.mod(y, 1.0)
        if self.fn is not None:
            return np.asarray(self.fn(yw), dtype=float)
        n = self.grid.n
        # shift so node j sits at integer j, then interpolate with wrap
        pos = yw * n - 0.5
        j0 = np.floor(pos).astype(int)
        frac = pos - j0
        v0 = self.values[np.mod(j0, n)]
        v1 = self.values[np.mod(j0 + 1, n)]
        return (1.0 - frac) * v0 + frac * v1


def cell_average(v: CellFunction) -> float:
    """Average over the cell, exact for constants."""
    return float(v.grid.weights @ v.values)


@dataclass(frozen=True, eq=False)
class CellOperator:
    """Multiply-and-center operator L_g v = g*v - <g*v>."""

    g: CellFunction

    def apply(self, values: np.ndarray) -> np.ndarray:
        gv = self.g.values * values
        return gv - self.g.grid.weights @ gv


def fluctuation(v: CellFunction) -> CellFunction:
    """L_1 v = v - <v>, the zero-mean part of v."""
    return CellFunction(v.grid, v.values - cell_average(v))


def rk4_step(rhs: Callable, t: float, h: float, *state) -> tuple:
    """One classical RK4 step of y' = rhs(t, *y) for a tuple of arrays y.

    ``rhs`` returns one derivative per state entry; the new state is
    returned as a tuple in the same order.
    """
    k1 = rhs(t, *state)
    k2 = rhs(t + 0.5 * h, *(y + 0.5 * h * k for y, k in zip(state, k1)))
    k3 = rhs(t + 0.5 * h, *(y + 0.5 * h * k for y, k in zip(state, k2)))
    k4 = rhs(t + h, *(y + h * k for y, k in zip(state, k3)))
    return tuple(
        y + (h / 6.0) * (a + 2 * b + 2 * c + d)
        for y, a, b, c, d in zip(state, k1, k2, k3, k4)
    )


# Array elements per row chunk of the pole solve and of pole sums: 4 rows
# of a 4096-node cell.  Each temporary stays at 128 KB, which keeps peak
# memory flat and was no slower than larger chunks at n = 4096.
POLE_CHUNK = 1 << 14
_SECULAR_MAX_ITER = 60
# Rounding level of the Gauss rules, for values scaled into [-1, 1]: a
# Lanczos beta this small ends the Krylov space, and a Gauss-Radau bracket
# this many times Var sigma wide certifies the Gauss rule.
_ROUNDING = 16.0 * np.finfo(float).eps


def pole_sum(rates, amplitudes, taus) -> np.ndarray:
    """sum_k amplitudes_k exp(-rates_k tau) at each tau, in chunks of lags.

    Complex rates give oscillating sums; the chunks keep the (lags x poles)
    exponential block at POLE_CHUNK elements.
    """
    rates = np.asarray(rates)
    taus = np.asarray(taus, dtype=float)
    out = np.empty(len(taus), dtype=np.result_type(rates, amplitudes, float))
    rows = max(1, POLE_CHUNK // max(len(rates), 1))
    for i in range(0, len(taus), rows):
        out[i : i + rows] = np.exp(-np.outer(taus[i : i + rows], rates)) @ amplitudes
    return out


def _distinct(values, weights) -> tuple[np.ndarray, np.ndarray, float]:
    """(d, W, scale): values within 4 eps of each other merged, weights summed,
    zero weights dropped, and d_1 < ... < d_m scaled into [-1, 1] by a power of two."""
    v, w = (np.ravel(np.asarray(x, dtype=float)) for x in (values, weights))
    order = np.argsort(v, kind="stable")
    v, w = v[order], w[order]
    v, w = v[w > 0], w[w > 0]
    scale = np.ldexp(1.0, np.frexp(np.max(np.abs(v), initial=0.0))[1])
    split = np.diff(v) > 4.0 * np.finfo(float).eps * scale
    d = v[np.concatenate(([True], split))] / scale
    return d, np.bincount(np.concatenate(([0], np.cumsum(split))), weights=w), scale


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
    d, w, scale = _distinct(values, weights)
    roots = np.empty(max(len(w) - 1, 0))
    residues = np.empty_like(roots)
    rows = max(1, POLE_CHUNK // max(len(w), 1))
    for start in range(0, len(roots), rows):
        gaps = np.arange(start, min(start + rows, len(roots)))
        roots[gaps], residues[gaps] = _solve_gaps(d, w, gaps)
    return scale * roots, scale * scale * residues


def gauss_radau_rules(values, weights, q: int):
    """((nodes, weights), (radau_nodes, radau_weights)): the q-point Gauss and
    (q+1)-point Gauss-Radau rules of the kernel measure sum_k r_k delta_{lambda_k}.

    With J the Jacobi matrix of the cell measure sum_j W_j delta_{d_j} (Lanczos
    on diag(d) from sqrt(W), fully reorthogonalized, one basis row per step),
    B(p) = p + <sigma> - beta_1^2 e_1^T (p + J[1:, 1:])^{-1} e_1 (Mori), so the
    kernel measure is beta_1^2 = Var sigma times the spectral measure of
    J[1:, 1:] at e_1.  Gauss: eigensystem of its leading q x q block; Radau:
    that block bordered so a node sits at min(values) (Golub & Meurant 2010).
    When the Krylov space ends (a beta of rounding level, or m steps on m
    distinct values) the Gauss rule is exact and is returned as both rules.
    """
    d, w, scale = _distinct(values, weights)
    mean = (w @ d) / w.sum()
    d = d - mean  # centred, so the first residual does not cancel
    basis = np.empty((min(q + 1, len(d)), len(d)))
    basis[0] = np.sqrt(w / w.sum())
    alpha, beta = [], []
    for k in range(len(basis)):
        r = d * basis[k]
        alpha.append(basis[k] @ r)
        for _ in range(2):  # Gram-Schmidt against the whole basis, twice
            r -= basis[: k + 1].T @ (basis[: k + 1] @ r)
        beta.append(float(np.linalg.norm(r)))
        if beta[-1] <= _ROUNDING or k + 1 == len(basis):
            break
        basis[k + 1] = r / beta[-1]
    size, off = len(alpha) - 1, np.array(beta[1:])
    jac = np.diag(np.append(alpha[1:], 0.0)) + np.diag(off, 1) + np.diag(off, -1)

    def rule(block):
        nodes, vectors = np.linalg.eigh(block)
        first = np.square(vectors[:1]).sum(axis=0)  # first components; none if q = 0
        mass = scale * scale * beta[0] ** 2 / w.sum() * first / first.sum()
        return (scale * (nodes + mean), mass), nodes, vectors

    gauss, nodes, vectors = rule(jac[:size, :size])
    if beta[-1] <= _ROUNDING or len(alpha) == len(d):
        return gauss, gauss
    jac[size, size] = d[0] + off[-1] ** 2 * np.sum(vectors[-1] ** 2 / (nodes - d[0]))
    return gauss, rule(jac)[0]


def gauss_poles(values, weights, taus) -> tuple[np.ndarray, np.ndarray]:
    """Rates and residues, shaped as by :func:`secular_poles`, of a Q-point Gauss rule.

    The derivatives of e^{-tau x} alternate in sign, so for tau >= 0 the kernel
    lies between the Gauss and Radau sums of :func:`gauss_radau_rules`.  Q doubles
    from 1 until they differ by at most 16 eps Var sigma on every lag of ``taus``.
    """
    q = 1
    while True:
        gauss, radau = gauss_radau_rules(values, weights, q)
        # every 64th lag first: it rejects most short rules at 1/64 of the cost
        gaps = (pole_sum(*radau, t) - pole_sum(*gauss, t) for t in (taus[::64], taus))
        if all(np.max(gap) <= _ROUNDING * gauss[1].sum() for gap in gaps):
            return gauss
        q *= 2


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


def harmonic_factor_B(sigma: CellFunction, p: float) -> float:
    """Shifted harmonic mean B(p) = ( <1/(p+sigma)> )^{-1}."""
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    shifted = p + sigma.values
    if np.min(shifted) <= 0:
        raise ValueError("p + sigma must be positive on the whole cell")
    return 1.0 / float(sigma.grid.weights @ (1.0 / shifted))


def resolvent_apply(sigma: CellFunction, p: float, f: CellFunction) -> CellFunction:
    """Solve (p + L_sigma) g = f for zero-mean f.

    The solution is g = f/(p+sigma) + C/(p+sigma) with C fixed so that
    <g> = 0; the formula is only valid for zero-mean right-hand sides,
    which is enforced as a precondition.
    """
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    if sigma.grid.n != f.grid.n:
        raise ValueError(f"grid mismatch: n={sigma.grid.n} vs n={f.grid.n}")
    mean_f = cell_average(f)
    scale = max(1.0, float(np.max(np.abs(f.values))))
    if abs(mean_f) > 1e-10 * scale:
        raise ValueError(
            f"resolvent needs zero-mean data; got <f> = {mean_f:.3e}"
        )
    shifted = p + sigma.values
    base = f.values / shifted
    c = -harmonic_factor_B(sigma, p) * float(sigma.grid.weights @ base)
    return CellFunction(f.grid, base + c / shifted)


# Ready-made cell profiles used across the test problems.

def sine_profile(mean: float, amplitude: float) -> Callable[[np.ndarray], np.ndarray]:
    return lambda y: mean + amplitude * np.sin(2.0 * np.pi * y)


def two_valued_profile(low: float, high: float) -> Callable[[np.ndarray], np.ndarray]:
    """low on [0, 1/2), high on [1/2, 1); sample with even n."""
    return lambda y: np.where(np.mod(y, 1.0) < 0.5, low, high)


def indicator_sine_profile(base: float, jump: float) -> Callable[[np.ndarray], np.ndarray]:
    """base + jump * 1_{sin(2 pi y) >= 0}."""
    return lambda y: base + jump * (np.sin(2.0 * np.pi * np.mod(y, 1.0)) >= 0.0)
