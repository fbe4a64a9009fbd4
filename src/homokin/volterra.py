"""Linear Volterra integro-differential solver.

Solves, for scalar or 2x2-system unknowns,

    du/dt + a u - int_0^t K(t - s) u(s) ds = S(t),    u(0) = u0,

with a product-trapezoidal scheme: Crank-Nicolson in the local terms, the
history integral by the trapezoid rule over past nodes.  The newest node
of the convolution makes the step implicit; the implicit factor

    1 + (dt/2) a - (dt^2/4) K(0)

is inverted exactly (scalar division or a 2x2 solve), giving a globally
second-order, unconditionally stable march for positive decay
coefficients.  Kernels are supplied tabulated on the solver's own grid;
the solver never interpolates.

The known part of each step's history, sum_{j=1}^{n} K_{n+1-j} u_j, comes
from the kernel's pole form K(tau) = Re sum_k A_k e^{-rates_k tau}
(``KernelTable.modes``) as Re sum_k A_k H_k, and each pole state advances
by one recursion per step,

    H_k <- q_k (H_k + u_n),    q_k = e^{-rates_k dt},

so a march of N steps over m poles costs O(N m) (Jiang, Zhang, Zhang &
Zhang 2017; Lubich & Schaedle 2002).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import KernelTable


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


def _history_poles(problem: VolterraProblem, dt: float):
    """(q, amplitudes, H) of the pole recursion.

    q_k = e^{-rates_k dt}, shaped to scale the pole states H_k, which start
    at zero.  A memoryless problem has no poles.
    """
    if problem.kernel is None:
        rates = np.zeros(0)
        amps = np.zeros((0,) if problem.dim == 1 else (0, 2, 2))
    else:
        rates, amps = problem.kernel.modes
    q = np.exp(-rates * dt)
    if problem.dim == 1:
        return q, amps, np.zeros(len(q), dtype=q.dtype)
    return q[:, None], amps, np.zeros((len(q), 2), dtype=q.dtype)


def solve_volterra(problem: VolterraProblem, grid: TimeGrid) -> np.ndarray:
    """March the product-trapezoidal scheme over the grid.

    Returns u sampled at the grid nodes, shape (count+1,) for scalars and
    (count+1, 2) for systems.
    """
    count, dt = grid.count, grid.dt
    K = _kernel_samples(problem, grid)
    S = _source_samples(problem, grid)
    q, amps, H = _history_poles(problem, dt)
    local_src = 0.5 * dt * (S[:-1] + S[1:])

    if problem.dim == 1:
        a = float(problem.a)
        u = np.empty(count + 1)
        u[0] = float(problem.u0)
        factor = 1.0 + 0.5 * dt * a - 0.25 * dt * dt * K[0]
        if abs(factor) < 1e-14:
            raise SolverError(f"implicit factor {factor:.3e} is singular")
        head = 0.5 * dt * K[1:] * u[0]  # the u_0 end of the trapezoid
        conv_prev = 0.0  # full trapezoid convolution at t_n
        for n in range(count):
            conv_next_known = head[n] + dt * (amps @ H).real
            rhs = (
                u[n] * (1.0 - 0.5 * dt * a)
                + local_src[n]
                + 0.5 * dt * (conv_next_known + conv_prev)
            )
            u[n + 1] = rhs / factor
            conv_prev = conv_next_known + 0.5 * dt * K[0] * u[n + 1]
            H = q * (H + u[n + 1])
        return u

    a = problem.a
    eye = np.eye(2)
    u = np.empty((count + 1, 2))
    u[0] = problem.u0
    factor = eye + 0.5 * dt * a - 0.25 * dt * dt * K[0]
    if abs(np.linalg.det(factor)) < 1e-14:
        raise SolverError("implicit 2x2 factor is singular")
    finv = np.linalg.inv(factor)
    explicit = eye - 0.5 * dt * a
    head = 0.5 * dt * K[1:] @ u[0]
    conv_prev = np.zeros(2)
    for n in range(count):
        conv_next_known = head[n] + dt * np.einsum("kij,kj->i", amps, H).real
        rhs = (
            explicit @ u[n]
            + local_src[n]
            + 0.5 * dt * (conv_next_known + conv_prev)
        )
        u[n + 1] = finv @ rhs
        conv_prev = conv_next_known + 0.5 * dt * (K[0] @ u[n + 1])
        H = q * (H + u[n + 1])
    return u


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
