"""Discrete calculus on the periodic unit cell Y = (0, 1).

Everything downstream is built from four pieces living on the cell:

* the average ``<v> = sum_j w_j v_j`` (midpoint rule),
* the multiply-and-center operator ``L_g v = g*v - <g*v>``,
* its resolvent ``(p + L_sigma)^{-1}`` on zero-mean data, whose
  normalization constant is the shifted harmonic mean
  ``B(p) = ( <1/(p+sigma)> )^{-1}``,
* pole sums for ``<sigma exp(-tau L_sigma) (v - <v>)>`` from Lanczos on
  ``diag(sigma)``: for ``v = sigma`` a few-node Gauss rule of the positive
  kernel measure ``sum_k r_k delta_{lambda_k}``, whose nodes and weights
  stand in for the poles ``-lambda_k`` of ``B(p)`` and their residues, and
  for other data two such rules by polarization, all certified by
  Gauss-Radau bounds on the lags they serve; once the Krylov space ends,
  after at most m - 1 steps on m distinct values, the Gauss rule holds
  every pole and residue of ``B(p)`` exactly.

The semigroup ``exp(-tau L_sigma)`` itself is never formed here.  Cell
functions are midpoint samples ``v_j = v((j+1/2)/n)`` with uniform
weights ``1/n``; the rule is spectrally accurate for smooth periodic
integrands and places half-cell jumps exactly between nodes when ``n`` is
even.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


def wrap(y):
    """y mod 1 as y - floor(y): bitwise ``np.mod(y, 1.0)`` (both round the same
    exact value once), signed zeros, infinities and NaNs included, in two
    cheap passes where ``np.mod`` calls ``fmod`` for each entry."""
    return y - np.floor(y)


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
        yw = wrap(y)
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


def march_blocks(step: Callable, phi0: np.ndarray, n_steps: int, chunk: int):
    """Yield the states phi0, phi_1, ..., phi_{n_steps} a block of steps at a time.

    ``step(phi, out)`` writes the next state into ``out`` and returns it.
    The states go into the rows of one buffer of max(1, chunk // phi0.size)
    rows, and each filled block (the last one possibly shorter) is yielded,
    of shape (k,) + phi0.shape.  The buffer is reused: a yielded block is
    valid until the next one is drawn.  With one-row blocks ``out`` is
    ``phi`` itself, so a step reads phi before it writes out.
    """
    rows = min(max(1, chunk // phi0.size), n_steps + 1)
    block = np.empty((rows,) + phi0.shape)
    block[0] = phi0
    phi, j = block[0], 1
    for _ in range(n_steps):
        if j == rows:
            yield block
            j = 0
        phi = step(phi, block[j])
        j += 1
    yield block[:j]


# Array elements per chunk of a pole sum: 4 rows of a 4096-pole block.  Each
# temporary stays at 128 KB, which keeps peak memory flat and was no slower
# than larger chunks at n = 4096.
POLE_CHUNK = 1 << 14
# Rounding level of the Gauss rules, for values scaled into [-1, 1]: a
# Lanczos beta this small ends the Krylov space, and a Gauss-Radau bracket
# this many times ||h|| ||vbar|| wide certifies the polarized Gauss rule.
_ROUNDING = 16.0 * np.finfo(float).eps


def pole_sum(rates, amplitudes, taus) -> np.ndarray:
    """sum_k amplitudes_k exp(-rates_k tau) at each tau, in chunks of lags.

    Rates and amplitudes of shape (m,) give (lags,); complex ones give a
    complex sum.  The chunks keep the (lags x poles) exponential block at
    POLE_CHUNK elements.
    """
    rates, amplitudes = np.asarray(rates), np.asarray(amplitudes)
    taus = np.asarray(taus, dtype=float)
    out = np.empty(len(taus), np.result_type(rates, amplitudes, float))
    rows = max(1, POLE_CHUNK // max(len(rates), 1))
    for i in range(0, len(taus), rows):
        out[i : i + rows] = np.exp(-np.outer(taus[i : i + rows], rates)) @ amplitudes
    return out


def _power_of_two(x) -> float:
    """The power of two that scales max |x| into [1/2, 1) (1 for x = 0).

    ValueError for max |x| >= 2^1023, whose power 2^1024 overflows; the
    variance of such data overflows anyway."""
    exponent = np.frexp(np.max(np.abs(x), initial=0.0))[1]
    if exponent > 1023:
        raise ValueError("cell data of magnitude 2^1023 or more has no finite scale")
    return float(np.ldexp(1.0, exponent))


def _distinct(values, weights):
    """(d, W, scale, nodes): values within 4 eps of each other merged, weights
    summed, zero weights dropped, and d_1 < ... < d_m scaled into [-1, 1] by a
    power of two.  nodes = (level, first): node j lies on level d[level[j]]
    (zero-weight nodes on 0), and first[l] is the node that gives d[l]."""
    v, w = (np.ravel(np.asarray(x, dtype=float)) for x in (values, weights))
    kept = np.flatnonzero(w > 0)
    order = kept[np.argsort(v[kept], kind="stable")]
    scale = _power_of_two(v[kept])
    split = np.diff(v[order]) > 4.0 * np.finfo(float).eps * scale
    group = np.concatenate(([0], np.cumsum(split)))
    level = np.zeros(len(v), dtype=int)
    level[order] = group
    first = order[np.concatenate(([True], split))]
    return v[first] / scale, np.bincount(group, weights=w[order]), scale, (level, first)


def _level_means(x, weights, nodes, W) -> np.ndarray:
    """Mean-free level-set means of node data x: its average over each level
    of :func:`_distinct`, less its cell average.  Each level sums the
    deviations from x at its first node, so data constant on a level, sigma
    among them, has that value as its exact mean."""
    level, first = nodes
    x = np.ravel(np.asarray(x, dtype=float))
    w = np.asarray(weights, dtype=float)
    ref = x[first]
    spread = np.bincount(level, weights=w * (x - ref[level]), minlength=len(W))
    return ref + spread / W - (w @ x) / W.sum()


def _rules(d, W, scale, z, q: int):
    """((nodes, weights), (radau_nodes, radau_weights)): the q-point Gauss and
    (q+1)-point Gauss-Radau rules of the spectral measure of <z, e^{-tau A} z>.

    A is the cell operator on mean-free data, on the levels d, W of
    :func:`_distinct`, and z mean-free level-set means.  Lanczos on diag(d)
    from z, fully reorthogonalized, gives the Jacobi matrix J of that
    measure, of mass <z^2>.  Gauss: eigensystem of the leading q x q block
    of J; Radau: that block bordered so a node sits at min d (Golub &
    Meurant 2010).  When the Krylov space ends (a beta of rounding level,
    or m - 1 steps on m distinct values) the Gauss rule is exact and both
    rules are that rule; z = 0 gives two empty rules.
    """
    mean = (W @ d) / W.sum()
    d = d - mean  # centred, so the residuals do not cancel
    basis = np.empty((min(q + 1, len(d)), len(d)))
    basis[0] = np.sqrt(W / W.sum())
    x = np.sqrt(W) * z
    for _ in range(2):  # Gram-Schmidt against the constants, twice
        x -= basis[0] * (basis[0] @ x)
    mass = float(x @ x)
    if mass == 0.0 or len(basis) == 1:
        empty = (np.empty(0), np.empty(0))
        return empty, empty
    basis[1] = x / np.sqrt(mass)
    alpha, beta = [], []
    for k in range(1, len(basis)):
        r = d * basis[k]
        alpha.append(basis[k] @ r)
        for _ in range(2):  # Gram-Schmidt against the whole basis, twice
            r -= basis[: k + 1].T @ (basis[: k + 1] @ r)
        beta.append(float(np.linalg.norm(r)))
        if beta[-1] <= _ROUNDING or k + 1 == len(basis):
            break
        basis[k + 1] = r / beta[-1]
    size, off = len(alpha), np.array(beta)
    jac = np.diag(np.append(alpha, 0.0)) + np.diag(off, 1) + np.diag(off, -1)

    def rule(block):
        nodes, vectors = np.linalg.eigh(block)
        first = np.square(vectors[0])
        return (scale * (nodes + mean), mass * first / first.sum()), nodes, vectors

    gauss, nodes, vectors = rule(jac[:size, :size])
    if beta[-1] <= _ROUNDING or size == len(d) - 1:
        return gauss, gauss
    jac[size, size] = d[0] + off[-1] ** 2 * np.sum(vectors[-1] ** 2 / (nodes - d[0]))
    return gauss, rule(jac)[0]


def gauss_poles(values, weights, v, taus=None) -> tuple[np.ndarray, np.ndarray]:
    """Rates and signed amplitudes of <h, e^{-tau A} vbar> from certified Gauss rules.

    For cell data v this is <sigma e^{-tau L_sigma} (v - <v>)>: h = sigma -
    <sigma>, and vbar, the mean-free level-set means of v, carries all of v
    that h's Krylov space sees.  By polarization (Golub & Meurant 2010, ch. 7)
    it is [q(h + s vbar) - q(h - s vbar)] / (4 s), s = |h| / |vbar|, where
    q(z) = <z, e^{-tau A} z> is the Laplace transform of a positive measure.
    The derivatives of e^{-tau x} alternate in sign, so for tau >= 0 each q
    lies between its Gauss and Radau sums of :func:`_rules`.  Q doubles from
    1 until the two bracket widths sum to at most 16 eps |h| |vbar| (4 s)
    on every lag of ``taus``; the result is the 2Q Gauss poles.  With
    ``taus`` None, Q starts at the number m of distinct levels, where the
    Krylov space has ended, and the result is the exact rule, with no
    bracket evaluated.
    For v = sigma the minus rule is empty and the amplitudes are the
    positive kernel residues, certified to 16 eps Var sigma.  Data whose
    level-set means vanish to 16 times the rounding bound of their sums
    gives an empty rule.
    """
    d, w, scale, nodes = _distinct(values, weights)
    x = np.ravel(np.asarray(v, dtype=float))
    v_scale = _power_of_two(x)  # exact scalings: no square below under- or overflows
    x = x / v_scale
    cell = np.asarray(weights, dtype=float)
    # a zero-weight node counts for nothing; zeroed, it cannot overflow the scaling
    h, vbar = (
        _level_means(y, weights, nodes, w)
        for y in (np.where(np.ravel(cell) > 0, np.ravel(values), 0.0) / scale, x)
    )
    hh, vv = float(w @ h**2), float(w @ vbar**2)
    # rounding of vbar: a running sum of n_l deviations from v at the level's
    # first node errs by up to n_l eps sum |deviations| (Higham 2002), adding
    # that first value and subtracting the cell average by eps each
    level, first = nodes
    ref = x[first]
    deviation = np.bincount(level, weights=cell * np.abs(x - ref[level])) / w
    noise = np.bincount(level) * deviation + np.abs(ref) + abs(cell @ x)
    if hh == 0.0 or vv <= _ROUNDING**2 * float(w @ noise**2):
        return np.empty(0), np.empty(0)
    s = np.sqrt(hh / vv)
    bound = 4.0 * s * _ROUNDING * np.sqrt(hh * vv)
    starts = [(sign, h + sign * s * vbar) for sign in (1.0, -1.0)]
    starts = [(sign, z) for sign, z in starts if z.any()]  # v = sigma: no minus rule
    q = len(d) if taus is None else 1
    while True:
        rules = [(sign, _rules(d, w, scale, z, q)) for sign, z in starts]
        # every 64th lag first: it rejects most short rules at 1/64 of the cost
        gaps = () if taus is None else (
            sum(
                pole_sum(*radau, t) - pole_sum(*gauss, t)
                for _, (gauss, radau) in rules
                if radau is not gauss  # an exact rule has no gap
            )
            for t in (taus[::64], taus)
        )
        if all(np.max(gap, initial=0.0) <= bound for gap in gaps):
            return (
                np.concatenate([gauss[0] for _, (gauss, _) in rules]),
                np.concatenate([sign * gauss[1] for sign, (gauss, _) in rules])
                * (scale * v_scale / (4.0 * s)),
            )
        q *= 2


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
    return lambda y: np.where(wrap(y) < 0.5, low, high)


def indicator_sine_profile(base: float, jump: float) -> Callable[[np.ndarray], np.ndarray]:
    """base + jump * 1_{sin(2 pi y) >= 0}."""
    return lambda y: base + jump * (np.sin(2.0 * np.pi * wrap(y)) >= 0.0)
