"""Weak-convergence diagnostics: spectral modes, norm gaps, rate fits.

Weak convergence of an oscillatory field phi^eps(t, E) toward phi_hom is
monitored through the first few Legendre modes

    m_k(t) = (phi(t, .), l_k)_{L2(E_min, E_max)},

the per-mode sweep errors  e_k = max_t |m_k^eps(t) - m_k^hom(t)|, a
strong-convergence norm gap, and log-log slope fits over the eps sweep.

The polynomials are orthonormal under the field's own quadrature, a
uniform midpoint grid, where they are the discrete Legendre (Gram)
polynomials with a closed-form three-term recurrence.  So discrete
orthogonality holds to rounding and mode errors measure only the field
difference, never the quadrature of the test functions themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_MODE = 16


@dataclass(frozen=True, eq=False)
class ModeSeries:
    """Time series of one spectral mode."""

    k: int
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("mode index must be nonnegative")
        if len(self.times) != len(self.values):
            raise ValueError("mode series times/values length mismatch")


@dataclass(frozen=True, eq=False)
class EnergyField:
    """Field over (t, E) with its own energy quadrature weights."""

    times: np.ndarray
    energies: np.ndarray
    e_weights: np.ndarray
    values: np.ndarray  # (nt, nE)

    def l2_norm_time_energy(self) -> float:
        sq = (self.values**2) @ self.e_weights
        return float(np.sqrt(np.trapezoid(sq, self.times)))


def orthonormal_polynomials(
    nodes: np.ndarray, weights: np.ndarray, k_max: int
) -> np.ndarray:
    """Rows l_0..l_kmax of the grid-orthonormal polynomials, in closed form.

    The grid must be a uniform midpoint grid to rounding: n nodes h apart,
    each of weight h, on (e_min, e_max) with e_max - e_min = n h; any other
    raises ValueError.  There the polynomials orthonormal under
    sum_i w_i f_i g_i are the discrete Legendre (Gram) polynomials in
    t = 2 (E - e_min) / (e_max - e_min) - 1, that is t_i = (2i + 1 - n)/n,
    with l_0 = 1/sqrt(n h) and

        b_{k+1} l_{k+1} = t l_k - b_k l_{k-1},
        b_k = k / sqrt(4k^2 - 1) * sqrt(1 - k^2/n^2)

    (Gautschi 2004, sec. 1.5).  So no grid sum is taken: the rows are a
    few elementwise passes each, written in place into the result.  For
    k_max <= 2 sqrt(n) they are orthonormal to 5e-15 on every grid tried
    (n up to 160,100).  Beyond that, which k_max <= 16 allows only on grids
    of under 64 nodes, a Gram polynomial gathers at the ends of the grid
    and the recurrence loses digits in the middle: up to 4.5e-13 below 300
    nodes.
    """
    if k_max < 0 or k_max > MAX_MODE:
        raise ValueError(f"k_max must lie in [0, {MAX_MODE}], got {k_max}")
    nodes = np.asarray(nodes, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n = len(nodes)
    if k_max >= n:
        raise ValueError("need more quadrature nodes than modes")
    # rounding allowed in the weights (of h) and in the gaps (of the largest
    # node plus the window)
    h = weights[0] if weights.shape == nodes.shape else np.nan
    tol = 16.0 * np.finfo(float).eps
    scale = max(abs(nodes[0]), abs(nodes[-1])) + n * h
    if not (
        h > 0
        and np.ptp(weights) <= tol * h
        and np.all(np.abs(np.diff(nodes) - h) <= tol * scale)
    ):
        raise ValueError(
            "the basis needs a uniform midpoint grid: equal weights h, nodes h apart"
        )
    t = np.arange(1.0 - n, n, 2.0)  # (2i + 1 - n)/n: exact and odd before the division
    t /= n
    polys = np.empty((k_max + 1, n))
    polys[0] = 1.0 / np.sqrt(n * h)
    b_prev = 0.0
    for k in range(1, k_max + 1):
        b = k / np.sqrt(4.0 * k * k - 1.0) * np.sqrt(1.0 - (k / n) ** 2)
        row = np.multiply(t, polys[k - 1], out=polys[k])
        if k > 1:
            row -= b_prev * polys[k - 2]
        row /= b
        b_prev = b
    return polys


def legendre_modes(field: EnergyField, k_max: int) -> list[ModeSeries]:
    """Modes m_k(t) for k = 0..k_max using the field's quadrature."""
    polys = orthonormal_polynomials(field.energies, field.e_weights, k_max)
    basis = (field.e_weights[None, :] * polys).T  # (nE, k_max+1)
    coeffs = field.values @ basis  # (nt, k_max+1)
    return [
        ModeSeries(k, field.times, coeffs[:, k].copy()) for k in range(k_max + 1)
    ]


def mode_error(eps_modes: ModeSeries, hom_modes: ModeSeries) -> float:
    """max_t |m_k^eps(t) - m_k^hom(t)|, hom interpolated onto the eps grid."""
    if eps_modes.k != hom_modes.k:
        raise ValueError(
            f"mode mismatch: {eps_modes.k} vs {hom_modes.k}"
        )
    hom_on_eps = np.interp(eps_modes.times, hom_modes.times, hom_modes.values)
    return float(np.max(np.abs(eps_modes.values - hom_on_eps)))


def norm_difference(phi_eps: EnergyField, phi0) -> float:
    """| ||phi_eps||_{L2(t,E)} - phi0.l2_norm() |, native quadratures."""
    return abs(phi_eps.l2_norm_time_energy() - phi0.l2_norm())


@dataclass(frozen=True)
class RateFit:
    slope: float
    residual: float  # max log-space deviation of the fit


def fit_rate(epsilons, errors) -> RateFit:
    """Least-squares slope of log(error) against log(epsilon)."""
    eps = np.asarray(epsilons, dtype=float)
    err = np.asarray(errors, dtype=float)
    if len(eps) < 3:
        raise ValueError("rate fit needs at least 3 sweep points")
    if np.any(err <= 0):
        raise ValueError("cannot fit a rate through nonpositive errors")
    x = np.log(eps)
    y = np.log(err)
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.max(np.abs(slope * x + intercept - y)))
    return RateFit(float(slope), residual)


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Per-mode sweep errors with fitted slopes and norm differences."""

    epsilons: np.ndarray           # strictly decreasing
    mode_errors: np.ndarray        # (n_eps, k_max+1)
    norm_diffs: np.ndarray         # (n_eps,)
    fits: list[RateFit]            # one per mode

    def __post_init__(self) -> None:
        eps = np.asarray(self.epsilons, dtype=float)
        if np.any(np.diff(eps) >= 0):
            raise ValueError("sweep epsilons must be strictly decreasing")
        if np.any(np.asarray(self.mode_errors) < 0) or np.any(
            np.asarray(self.norm_diffs) < 0
        ):
            raise ValueError("errors must be nonnegative")
        object.__setattr__(self, "epsilons", eps)

    @classmethod
    def from_sweep(cls, epsilons, mode_errors, norm_diffs) -> "ConvergenceReport":
        mode_errors = np.asarray(mode_errors, dtype=float)
        fits = []
        for k in range(mode_errors.shape[1]):
            try:
                fits.append(fit_rate(epsilons, mode_errors[:, k]))
            except ValueError:
                fits.append(RateFit(float("nan"), float("nan")))
        return cls(
            np.asarray(epsilons, dtype=float),
            mode_errors,
            np.asarray(norm_diffs, dtype=float),
            fits,
        )
