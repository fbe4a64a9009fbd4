"""Linear Volterra integro-differential solver.

Solves, for one unknown u, real or complex,

    du/dt + a u - int_0^t K(t - s) u(s) ds = S(t),    u(0) = u0,

with a product-trapezoidal scheme: Crank-Nicolson in the local terms, the
history integral by the trapezoid rule over past nodes.  The newest node
of the convolution makes the step implicit; the scalar implicit factor

    1 + (dt/2) a - (dt^2/4) K(0)

is divided out exactly, giving a globally second-order, unconditionally
stable march for decay coefficients of positive real part.  Kernels come
in pole form, and the solver reads only that form and K(0): it tabulates
no kernel.

The history comes from the kernel's pole form K(tau) = sum_k A_k
e^{-rates_k tau} (``KernelTable.modes``): K_{n+1} u_0 / 2 + sum_{j=1}^{n}
K_{n+1-j} u_j = sum_k A_k H_k, with pole states H_k <- q_k (H_k + u_n)
from H_k = q_k u_0 / 2, q_k = e^{-rates_k dt} (Jiang, Zhang, Zhang & Zhang
2017; Lubich & Schaedle 2002).  The whole scheme is then one affine step
z <- T z + B_in x_n of the state z = (u, conv_prev, H_1, ..., H_m) of size
D = 2 + m for m poles, where conv_prev is the trapezoid convolution at the
last node and the one input x_n is the source.  The state is real when a,
u0, the source and the poles are, and complex otherwise.
:func:`march_affine` takes that step in blocks of BLOCK steps, so N steps
observed at p outputs cost O(log BLOCK D^3 + (N / BLOCK) D^2 +
N D (k + p)) for k inputs, with N / BLOCK Python iterations.
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
    """Problem data for one unknown, real or complex.

    ``a`` and ``u0`` are scalars and the kernel is a scalar pole form; a
    memoryless equation has kernel None, stored as a kernel without modes.
    ``source`` is None or samples on the solver grid, shape (count+1,).
    """

    a: complex
    kernel: KernelTable | None
    source: np.ndarray | None
    u0: complex

    def __post_init__(self) -> None:
        if np.ndim(self.a) or np.ndim(self.u0):
            raise ValueError("a and u0 must be scalars")
        if self.kernel is None:
            no_modes = KernelTable(np.zeros(1), (np.zeros(0), np.zeros(0)), 0.0)
            object.__setattr__(self, "kernel", no_modes)


def _source_samples(problem: VolterraProblem, grid: TimeGrid) -> np.ndarray:
    if problem.source is None:
        return np.zeros(grid.count + 1)
    src = np.asarray(problem.source)
    if src.shape != (grid.count + 1,):
        raise ValueError(f"source shape {src.shape}, expected {(grid.count + 1,)}")
    return src


def _affine_step(problem: VolterraProblem, dt: float):
    """(T, B_in) with z' = T z + B_in local_src[n].

    The step is linear in z and in the input, so the loop body, written
    once for scalars, runs on the unit vectors of (z, input) at once.
    """
    rates, amps = problem.kernel.modes
    a, k0 = problem.a, problem.kernel.lag0
    factor = 1.0 + 0.5 * dt * a - 0.25 * dt * dt * k0
    if abs(factor) < 1e-14:
        raise SolverError(f"implicit factor {factor:.3e} is singular")
    unit = np.eye(len(rates) + 3)
    u, conv_prev, H, src = unit[0], unit[1], unit[2:-1], unit[-1]
    conv_next_known = dt * (amps @ H)
    rhs = u - 0.5 * dt * a * u + src + 0.5 * dt * (conv_next_known + conv_prev)
    u_next = rhs * (1.0 / factor)
    conv_next = conv_next_known + 0.5 * dt * k0 * u_next
    H_next = np.exp(-rates * dt)[:, None] * (H + u_next)
    step = np.vstack([u_next, conv_next, H_next])
    return step[:, :-1], step[:, -1:]


def march_affine(
    T: np.ndarray, B_in: np.ndarray, X: np.ndarray, z0: np.ndarray, C: np.ndarray
) -> np.ndarray:
    """Outputs y_n = C z_n, n = 0..N, of the march z_{n+1} = T z_n + B_in x_n.

    X holds the N inputs x_n as rows, shape (N, k); C is (p, D), or (D,)
    for one output.  Within a block starting at z_s,

        y_{s+j} = C T^j z_s + sum_{i<j} C T^{j-1-i} B_in x_{s+i},

    and the next block starts at T^BLOCK z_s + sum_i T^{BLOCK-1-i} B_in x_{s+i},
    so only the block starts are marched one by one, in the dtype of T,
    B_in, X and z0.  Returns an array of shape (N+1,) + C.shape[:-1] that
    owns its memory.
    """
    N, k = X.shape
    outputs = np.atleast_2d(C)
    p = len(outputs)
    dtype = np.result_type(T, B_in, X, z0)
    # doubling: obs[j] = C T^j, resp[j] = T^j B_in for j < BLOCK; power = T^BLOCK
    obs, resp, power = outputs[None], B_in[None], T
    while len(obs) < BLOCK:
        obs = np.concatenate([obs, obs @ power])
        resp = np.concatenate([resp, power @ resp])
        power = power @ power
    # block-lower-triangular Toeplitz map from a block's inputs to its outputs
    j, i = np.tril_indices(BLOCK, -1)
    forced = np.zeros((BLOCK, p, BLOCK, k), dtype)
    forced[j, :, i, :] = (obs @ B_in)[j - i - 1]
    blocks = -(-(N + 1) // BLOCK)
    inputs = np.zeros((blocks * BLOCK, k), dtype)
    inputs[:N] = X
    inputs = inputs.reshape(blocks, BLOCK * k)
    drive = inputs[:-1] @ resp[::-1].transpose(1, 0, 2).reshape(len(T), BLOCK * k).T
    starts = np.empty((blocks, len(T)), dtype)
    starts[0] = z0
    for b in range(blocks - 1):
        starts[b + 1] = power @ starts[b] + drive[b]
    y = starts @ obs.reshape(BLOCK * p, len(T)).T
    y += inputs @ forced.reshape(BLOCK * p, BLOCK * k).T
    return y.reshape(blocks * BLOCK, *C.shape[:-1])[: N + 1].copy()


def solve_volterra(problem: VolterraProblem, grid: TimeGrid) -> np.ndarray:
    """March the product-trapezoidal scheme over the grid.

    Returns u sampled at the grid nodes, shape (count+1,), complex when the
    problem is.
    """
    dt, u0 = grid.dt, problem.u0
    S = _source_samples(problem, grid)
    T, B_in = _affine_step(problem, dt)
    # the u_0 end of the trapezoid starts in the pole states
    h0 = 0.5 * np.exp(-problem.kernel.modes[0] * dt) * u0
    z0 = np.concatenate([[u0, 0.0], h0])
    # the Crank-Nicolson source, per step
    local_src = 0.5 * dt * (S[:-1] + S[1:])
    return march_affine(T, B_in, local_src[:, None], z0, np.eye(1, len(T))[0])
