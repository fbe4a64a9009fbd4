"""Linear Volterra integro-differential solver.

Solves, for scalar or 2x2-system unknowns,

    du/dt + a u - int_0^t K(t - s) u(s) ds = S(t),    u(0) = u0,

with a product-trapezoidal scheme: Crank-Nicolson in the local terms, the
history integral by the trapezoid rule over past nodes.  The newest node
of the convolution makes the step implicit; the d x d implicit factor

    Id + (dt/2) a - (dt^2/4) K(0)

is inverted exactly, giving a globally second-order, unconditionally
stable march for positive decay coefficients.  Kernels are supplied
tabulated on the solver's own grid; the solver never interpolates.

The history comes from the kernel's pole form K(tau) = Re sum_k A_k
e^{-rates_k tau} (``KernelTable.modes``): sum_{j=1}^{n} K_{n+1-j} u_j =
Re sum_k A_k H_k, with pole states H_k <- q_k (H_k + u_n), q_k =
e^{-rates_k dt} (Jiang, Zhang, Zhang & Zhang 2017; Lubich & Schaedle 2002).
The whole scheme is then one affine step z <- T z + B_in x_n of the real
state z = (u, conv_prev, Re H, Im H) of size D = d (2 + 2m) for m poles,
where conv_prev is the trapezoid convolution at the last node and the k =
2d inputs x_n are the source and the u_0 end of the trapezoid.
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
    """Problem data; dim is 1 (scalar) or 2 (2x2 system).

    ``kernel`` may be None for a memoryless equation.  ``source`` is either
    None or samples on the solver grid, shape (count+1,) or (count+1, 2).
    """

    dim: int
    a: float | np.ndarray
    kernel: KernelTable | None
    source: np.ndarray | None
    u0: float | np.ndarray

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.dim == 2:
            a = np.asarray(self.a, dtype=float)
            if a.shape != (2, 2):
                raise ValueError("system decay coefficient must be 2x2")
            object.__setattr__(self, "a", a)
            u0 = np.asarray(self.u0, dtype=float)
            if u0.shape != (2,):
                raise ValueError("system initial value must be a 2-vector")
            object.__setattr__(self, "u0", u0)


def _kernel_samples(problem: VolterraProblem, grid: TimeGrid) -> np.ndarray:
    count = grid.count
    if problem.kernel is None:
        shape = (count + 1,) if problem.dim == 1 else (count + 1, 2, 2)
        return np.zeros(shape)
    table = problem.kernel
    if len(table.taus) > 1 and abs(table.dt - grid.dt) > 1e-12 * max(1.0, grid.dt):
        raise ValueError(
            f"kernel tabulated with dt={table.dt}, solver grid has dt={grid.dt}"
        )
    if len(table.taus) < count + 1:
        raise ValueError("kernel table does not reach the final lag")
    vals = table.values[: count + 1]
    if problem.dim == 1 and vals.ndim != 1:
        raise ValueError("scalar problem needs a scalar kernel")
    if problem.dim == 2 and vals.shape[1:] != (2, 2):
        raise ValueError("system problem needs a 2x2 kernel")
    return vals


def _source_samples(problem: VolterraProblem, grid: TimeGrid) -> np.ndarray:
    count = grid.count
    if problem.source is None:
        return np.zeros((count + 1,) if problem.dim == 1 else (count + 1, 2))
    src = np.asarray(problem.source, dtype=float)
    expected = (count + 1,) if problem.dim == 1 else (count + 1, 2)
    if src.shape != expected:
        raise ValueError(f"source shape {src.shape}, expected {expected}")
    return src


def _affine_step(problem: VolterraProblem, k0: np.ndarray, dt: float):
    """(T, B_in) with z' = T z + B_in (local_src[n], head[n]).

    The step is linear in z and in the two inputs, so the loop body, written
    once for d x d blocks, runs on the unit vectors of (z, inputs) at once.
    """
    d = problem.dim
    if problem.kernel is None:
        rates, amps = np.zeros(0), np.zeros(0)
    else:
        rates, amps = problem.kernel.modes
    m = len(rates)
    amps = np.reshape(amps, (m, d, d))
    a, k0 = np.reshape(problem.a, (d, d)), np.reshape(k0, (d, d))
    factor = np.eye(d) + 0.5 * dt * a - 0.25 * dt * dt * k0
    if abs(np.linalg.det(factor)) < 1e-14:
        raise SolverError(f"implicit {d}x{d} factor is singular")
    size = d * (2 + 2 * m)
    columns = size + 2 * d
    unit = np.eye(columns)
    u, conv_prev, re_h, im_h, src, head = np.split(unit, np.cumsum([d, d, m * d, m * d, d]))
    H = (re_h + 1j * im_h).reshape(m, d, columns)
    conv_next_known = head + dt * np.einsum("kij,kjc->ic", amps, H).real
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

    Returns u sampled at the grid nodes, shape (count+1,) for scalars and
    (count+1, 2) for systems.
    """
    count, dt, d = grid.count, grid.dt, problem.dim
    K = _kernel_samples(problem, grid).reshape(count + 1, d, d)
    S = _source_samples(problem, grid).reshape(count + 1, d)
    T, B_in = _affine_step(problem, K[0], dt)
    u0 = np.reshape(problem.u0, d).astype(float)
    # the Crank-Nicolson source and the u_0 end of the trapezoid, per step
    inputs = np.concatenate([0.5 * dt * (S[:-1] + S[1:]), 0.5 * dt * K[1:] @ u0], axis=1)
    z0 = np.zeros(len(T))
    z0[:d] = u0
    observe = np.eye(d, len(T))
    return march_affine(T, B_in, inputs, z0, observe[0] if d == 1 else observe)


def volterra_residual(
    problem: VolterraProblem, solution: np.ndarray, grid: TimeGrid
) -> float:
    """A-posteriori residual of a candidate solution.

    Recomputes du/dt by centered differences on interior nodes and the
    convolution by an independent full trapezoid sum, and returns the max
    norm of  du/dt + a u - conv - S.  The trapezoid at t_n is the discrete
    convolution sum_{j<=n} K_{n-j} u_j less half its two end terms.
    """
    count, dt = grid.count, grid.dt
    K = _kernel_samples(problem, grid)
    S = _source_samples(problem, grid)
    u = np.asarray(solution, dtype=float)

    if problem.dim == 1:
        full = np.convolve(K, u)[: count + 1]
        ends = K * u[0] + K[0] * u
        decay = problem.a * u
    else:
        full = np.stack(
            [
                sum(np.convolve(K[:, i, j], u[:, j])[: count + 1] for j in range(2))
                for i in range(2)
            ],
            axis=1,
        )
        ends = K @ u[0] + u @ K[0].T
        decay = u @ problem.a.T
    conv = dt * (full - 0.5 * ends)
    dudt = (u[2:] - u[:-2]) / (2.0 * dt)
    res = dudt + decay[1:-1] - conv[1:-1] - S[1:-1]
    return float(np.max(np.abs(res))) if len(res) else 0.0
