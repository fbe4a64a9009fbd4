"""Homogenization of the oscillatory planar rotation system dU/dt = b A U.

A is the fixed skew matrix [[0, 1], [-1, 0]], so each realization rotates:
U(t) = R(b t) U_in with R(th) = [[cos th, sin th], [-sin th, cos th]].
The weak limit over an oscillatory coefficient family b(x/eps) averages
rotations against the induced Young measure nu and solves a Volterra
system whose kernel is known through its Laplace transform:

    Khat(p) = p Id + b* A - B(p),     B(p) = M(p)^{-1},
    M(p)    = sum_i w_i (p^2 + l_i^2)^{-1} [[p, l_i], [-l_i, p]].

Khat tends to 2 b* A as p grows, i.e. the kernel carries a Dirac mass at
lag zero.  The solver therefore uses the regularized kernel

    Ktilde_hat(p) = B(p) - p Id + b* A  =  2 b* A - Khat(p),

which decays like Var(l)/p, and the algebraically equivalent equation

    dU0/dt - b* A U0 = - int_0^t Ktilde(t - s) U0(s) ds.

On the eigenvector of A for eigenvalue i, M(p) acts as sum_j w_j/(p - i l_j),
which vanishes at p = i omega_k exactly where sum_j w_j/(l_j - omega) = 0.
These roots interlace the atoms: they are the poles of the atoms' kernel
measure, the eigenvalues of diag(l) compressed onto the mean-free data,
with residues r_k = 1/sum_j w_j (l_j - omega_k)^-2 of total Var(l).  The
Lanczos Gauss rule of that measure (:func:`homokin.cell.gauss_poles` of
the atoms, the rule of the cell kernel, with no lags) runs until its
Krylov space ends, after m - 1 steps on m distinct atoms, where its nodes
and weights are these omega_k and r_k exactly, on any time grid.
Ktilde is the finite sum

    Ktilde(t) = sum_k r_k [cos(omega_k t) Id + sin(omega_k t) A],

a pole form the Volterra solver evaluates exactly on any time grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cell import gauss_poles
from .kernels import KernelTable
from .volterra import TimeGrid, VolterraProblem, solve_volterra

SKEW = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclass(frozen=True, eq=False)
class YoungMeasure:
    """Finite atomic probability measure on the coefficient values."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        atoms = np.asarray(self.atoms, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if atoms.shape != weights.shape or atoms.ndim != 1:
            raise ValueError("atoms and weights must be 1-d arrays of equal length")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def two_atoms(cls, low: float, high: float) -> "YoungMeasure":
        return cls(np.array([low, high]), np.array([0.5, 0.5]))

    @property
    def mean(self) -> float:
        return float(self.weights @ self.atoms)

    @property
    def variance(self) -> float:
        return float(self.weights @ self.atoms**2) - self.mean**2

    @property
    def max_abs_atom(self) -> float:
        return float(np.max(np.abs(self.atoms)))


def cell_averaged_limit(nu: YoungMeasure, t, u_in: np.ndarray) -> np.ndarray:
    """Measure-averaged rotations: the reference weak limit.

    Scalar t gives a 2-vector; an array of times gives shape (nt, 2).
    """
    u_in = np.asarray(u_in, dtype=float)
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    angles = np.outer(ts, nu.atoms)
    c = np.cos(angles) @ nu.weights
    s = np.sin(angles) @ nu.weights
    out = np.stack(
        [c * u_in[0] + s * u_in[1], -s * u_in[0] + c * u_in[1]], axis=-1
    )
    return out[0] if np.isscalar(t) else out


# Talbot contour size; unused here, perfbench/workloads.py counts work with it.
def talbot_nodes_for(nu: YoungMeasure, t_max: float, base: int = 32) -> int:
    """Node count enclosing the kernel poles up to time t_max.

    Pole enclosure needs r = 2M/5 > (2/pi) l_max t; the 1.15 factor and
    additive margin keep the contour clear of the imaginary-axis poles
    without inflating the exp(r) round-off amplification needlessly.
    """
    need = 1.15 * (5.0 / np.pi) * nu.max_abs_atom * t_max
    return max(base, int(np.ceil(need)) + 8)


def kernel_time_table(nu: YoungMeasure, grid: TimeGrid) -> KernelTable:
    """Tabulate Ktilde = sum_k r_k [cos(omega_k t) Id + sin(omega_k t) A].

    The frequencies and residues are the poles of the atoms, from their
    exact Gauss rule; the lag-zero value is sum_k r_k = Var(l).
    """
    freqs, residues = gauss_poles(nu.atoms, nu.weights, nu.atoms)
    # Re[(r e^{i w t}) (Id - i A)] = r [cos(w t) Id + sin(w t) A]
    amplitudes = residues[:, None, None] * (np.eye(2) - 1j * SKEW)
    return KernelTable(grid.times, (-1j * freqs, amplitudes), residues.sum() * np.eye(2))


def solve_oscillator_limit(
    nu: YoungMeasure, u_in: np.ndarray, grid: TimeGrid
) -> np.ndarray:
    """March the regularized limit equation; returns U0 on the grid nodes.

    In the solver's convention du/dt + a u - int K(t-s) u = 0 the decay
    coefficient is a = -b* A and the kernel is K = -Ktilde.
    """
    table = kernel_time_table(nu, grid)
    rates, amplitudes = table.modes
    neg_table = KernelTable(table.taus, (rates, -amplitudes), -table.lag0)
    problem = VolterraProblem(
        a=-nu.mean * SKEW,
        kernel=neg_table,
        source=None,
        u0=u_in,
    )
    return solve_volterra(problem, grid)


def kernel_components(table: KernelTable) -> tuple[np.ndarray, np.ndarray]:
    """Split a commutant-structured matrix table into (alpha, beta)."""
    vals = table.values
    alpha = 0.5 * (vals[:, 0, 0] + vals[:, 1, 1])
    beta = 0.5 * (vals[:, 0, 1] - vals[:, 1, 0])
    return alpha, beta
