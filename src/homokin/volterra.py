"""Linear Volterra integro-differential solver.

Solves, for a scalar or a d-vector unknown,

    du/dt + a u - int_0^t K(t - s) u(s) ds = S(t),    u(0) = u0,

with a product-trapezoidal scheme: Crank-Nicolson in the local terms, the
history integral by the trapezoid rule over past nodes.  The newest node
of the convolution makes the step implicit; the d x d implicit factor

    Id + (dt/2) a - (dt^2/4) K(0)

is inverted exactly, giving a globally second-order, unconditionally
stable march for positive decay coefficients.  Kernels come in pole form,
and the solver reads only that form and K(0): it tabulates no kernel.

The history comes from the kernel's pole form K(tau) = Re sum_k A_k
e^{-rates_k tau} (``KernelTable.modes``): K_{n+1} u_0 / 2 + sum_{j=1}^{n}
K_{n+1-j} u_j = Re sum_k A_k H_k, with pole states H_k <- q_k (H_k + u_n)
from H_k = q_k u_0 / 2, q_k = e^{-rates_k dt} (Jiang, Zhang, Zhang & Zhang
2017; Lubich & Schaedle 2002).  The whole scheme is then one affine step
z <- T z + B_in x_n of the real state z = (u, conv_prev, Re H, Im H) of
size D = d (2 + 2m) for m poles, where conv_prev is the trapezoid
convolution at the last node and the k = d inputs x_n are the source.
:func:`march_affine` takes that step in blocks of BLOCK steps, so N steps
observed at p = d outputs cost O(log BLOCK D^3 + (N / BLOCK) D^2 +
N D (k + p)), with N / BLOCK Python iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import KernelTable


# Steps per block of march_affine: block starts advance by T^BLOCK, formed by
# log2(BLOCK) squarings, and the outputs inside a block come from C T^j and
# C T^j B_in, j < BLOCK, in a few matrix products.
BLOCK = 32


class SolverError(RuntimeError):
    """Raised when the implicit step factor is numerically singular."""


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Uniform grid {0, dt, ..., count*dt} with count*dt = t_end."""

    t_end: float
    dt: float

    def __post_init__(self) -> None:
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("need dt > 0 and t_end > 0")
        count = int(round(self.t_end / self.dt))
        if count < 1 or abs(count * self.dt - self.t_end) > 1e-12 * max(1.0, self.t_end):
            raise ValueError(
                f"dt={self.dt} does not evenly divide t_end={self.t_end}"
            )

    @classmethod
    def from_count(cls, t_end: float, count: int) -> "TimeGrid":
        return cls(t_end, t_end / count)

    @property
    def count(self) -> int:
        return int(round(self.t_end / self.dt))

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.count + 1) * self.dt


@dataclass(frozen=True, eq=False)
class VolterraProblem:
    """Problem data for a scalar u0 (d = 1) or a vector u0 of d entries.

    ``a`` and the kernel's lag0 are scalars or d x d; a memoryless equation
    has kernel None, stored as a kernel without modes.  ``source`` is None
    or samples on the solver grid, shape (count+1,) + u0.shape.
    """

    a: float | np.ndarray
    kernel: KernelTable | None
    source: np.ndarray | None
    u0: float | np.ndarray

    def __post_init__(self) -> None:
        u0 = np.asarray(self.u0, dtype=float)
        a = np.asarray(self.a, dtype=float)
        if u0.ndim > 1 or a.shape != 2 * u0.shape:
            raise ValueError(f"u0 of shape {u0.shape} needs a of shape {2 * u0.shape}")
        kernel = self.kernel
        if kernel is None:
            no_modes = (np.zeros(0), np.zeros((0,) + a.shape))
            kernel = KernelTable(np.zeros(1), no_modes, np.zeros_like(a))
        if kernel.lag0.shape != a.shape:
            raise ValueError(f"kernel of shape {kernel.lag0.shape}, need {a.shape}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "u0", u0)


def _source_samples(problem: VolterraProblem, grid: TimeGrid) -> np.ndarray:
    count, d = grid.count, problem.u0.size
    if problem.source is None:
        return np.zeros((count + 1, d))
    src = np.asarray(problem.source, dtype=float)
    expected = (count + 1,) + problem.u0.shape
    if src.shape != expected:
        raise ValueError(f"source shape {src.shape}, expected {expected}")
    return src.reshape(count + 1, d)


def _affine_step(problem: VolterraProblem, dt: float):
    """(T, B_in) with z' = T z + B_in local_src[n].

    The step is linear in z and in the input, so the loop body, written
    once for d x d blocks, runs on the unit vectors of (z, input) at once.
    """
    d = problem.u0.size
    rates, amps = problem.kernel.modes
    m = len(rates)
    amps = np.reshape(amps, (m, d, d))
    a = np.reshape(problem.a, (d, d))
    k0 = np.reshape(problem.kernel.lag0, (d, d))
    factor = np.eye(d) + 0.5 * dt * a - 0.25 * dt * dt * k0
    if abs(np.linalg.det(factor)) < 1e-14:
        raise SolverError(f"implicit {d}x{d} factor is singular")
    size = d * (2 + 2 * m)
    columns = size + d
    unit = np.eye(columns)
    u, conv_prev, re_h, im_h, src = np.split(unit, np.cumsum([d, d, m * d, m * d]))
    H = (re_h + 1j * im_h).reshape(m, d, columns)
    conv_next_known = dt * np.einsum("kij,kjc->ic", amps, H).real
    rhs = u - 0.5 * dt * a @ u + src + 0.5 * dt * (conv_next_known + conv_prev)
    u_next = np.linalg.solve(factor, rhs)
    conv_next = conv_next_known + 0.5 * dt * k0 @ u_next
    H_next = (np.exp(-rates * dt)[:, None, None] * (H + u_next)).reshape(m * d, columns)
    step = np.concatenate([u_next, conv_next, H_next.real, H_next.imag])
    return np.split(step, [size], axis=1)


def march_affine(
    T: np.ndarray, B_in: np.ndarray, X: np.ndarray, z0: np.ndarray, C: np.ndarray
) -> np.ndarray:
    """Outputs y_n = C z_n, n = 0..N, of the march z_{n+1} = T z_n + B_in x_n.

    X holds the N inputs x_n as rows, shape (N, k); C is (p, D), or (D,)
    for one output.  Within a block starting at z_s,

        y_{s+j} = C T^j z_s + sum_{i<j} C T^{j-1-i} B_in x_{s+i},

    and the next block starts at T^BLOCK z_s + sum_i T^{BLOCK-1-i} B_in x_{s+i},
    so only the block starts are marched one by one.  Returns an array of
    shape (N+1,) + C.shape[:-1] that owns its memory.
    """
    N, k = X.shape
    outputs = np.atleast_2d(C)
    p = len(outputs)
    # doubling: obs[j] = C T^j, resp[j] = T^j B_in for j < BLOCK; power = T^BLOCK
    obs, resp, power = outputs[None], B_in[None], T
    while len(obs) < BLOCK:
        obs = np.concatenate([obs, obs @ power])
        resp = np.concatenate([resp, power @ resp])
        power = power @ power
    # block-lower-triangular Toeplitz map from a block's inputs to its outputs
    j, i = np.tril_indices(BLOCK, -1)
    forced = np.zeros((BLOCK, p, BLOCK, k))
    forced[j, :, i, :] = (obs @ B_in)[j - i - 1]
    blocks = -(-(N + 1) // BLOCK)
    inputs = np.zeros((blocks * BLOCK, k))
    inputs[:N] = X
    inputs = inputs.reshape(blocks, BLOCK * k)
    drive = inputs[:-1] @ resp[::-1].transpose(1, 0, 2).reshape(len(T), BLOCK * k).T
    starts = np.empty((blocks, len(T)))
    starts[0] = z0
    for b in range(blocks - 1):
        starts[b + 1] = power @ starts[b] + drive[b]
    y = starts @ obs.reshape(BLOCK * p, len(T)).T
    y += inputs @ forced.reshape(BLOCK * p, BLOCK * k).T
    return y.reshape(blocks * BLOCK, *C.shape[:-1])[: N + 1].copy()


def solve_volterra(problem: VolterraProblem, grid: TimeGrid) -> np.ndarray:
    """March the product-trapezoidal scheme over the grid.

    Returns u sampled at the grid nodes, shape (count+1,) + u0.shape.
    """
    dt, u0 = grid.dt, problem.u0.ravel()
    S = _source_samples(problem, grid)
    T, B_in = _affine_step(problem, dt)
    # the u_0 end of the trapezoid starts in the pole states
    h0 = 0.5 * np.exp(-problem.kernel.modes[0] * dt)[:, None] * u0
    z0 = np.concatenate([u0, np.zeros_like(u0), h0.real.ravel(), h0.imag.ravel()])
    observe = np.eye(len(u0), len(T)).reshape(problem.u0.shape + (len(T),))
    # the Crank-Nicolson source, per step
    return march_affine(T, B_in, 0.5 * dt * (S[:-1] + S[1:]), z0, observe)
