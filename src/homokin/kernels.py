"""Memory kernel and homogenized source of the cell decay problem.

The homogenized limit of ``du/dt + sigma(x/eps) u = f`` is a Volterra
equation whose convolution kernel is built from the cell semigroup:

    K(tau) = < sigma * exp(-tau L_sigma) (sigma - <sigma>) >

with source, for forcing f constant in time,

    S(t) = <f> - int_0^t < sigma e^{-s L_sigma} L_1 f > ds
           - < sigma e^{-t L_sigma} L_1 u_in >.

In Laplace variables the kernel admits two independent expressions: the
resolvent route  Khat(p) = < sigma [p + L_sigma]^{-1} (sigma - <sigma>) >
and Tartar's classical harmonic-mean form  Mhat(p) = p + <sigma> - B(p).
The two agree identically; :func:`verify_tartar_equivalence` checks the
identity numerically along with a third route, the exact Laplace transform
sum_k r_k / (p + lambda_k) of the kernel's certified pole form: Tartar's
identity in partial fractions.

With the poles -lambda_k of B(p) and their residues r_k, K(tau) = sum_k
r_k e^{-lambda_k tau}.  Neither table sums every pole.  Both are the one
certified Lanczos rule of :func:`homokin.cell.gauss_poles` for

    < sigma e^{-tau L_sigma} (v - <v>) > = < h, e^{-tau A} vbar >,

A = L_sigma on mean-free data, h = sigma - <sigma>, vbar the mean-free
level-set means of v.  v = sigma gives the kernel, a Gauss rule of the
positive measure sum_k r_k delta_{lambda_k} bracketed by Gauss-Radau on
the table's lags (Q = 8 for a smooth 4096-cell profile with 4095 poles);
v = u_in or f gives the signed source amplitudes, by polarization into
two such positive rules.  Each table checks that its amplitudes sum to
its lag-zero value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cell import (
    CellFunction,
    cell_average,
    fluctuation,
    gauss_poles,
    harmonic_factor_B,
    pole_sum,
    resolvent_apply,
)
from .csvfmt import write_csv


def _checked_poles(sigma: CellFunction, v: np.ndarray, taus, identity: str):
    """:func:`gauss_poles` of <sigma e^{-tau L_sigma} (v - <v>)> on ``taus``.

    Raises RuntimeError, naming ``identity``, unless the amplitudes sum to
    the lag-zero value <h (v - <v>)> within 1e-10 max(1, |h| |v - <v>|).
    """
    w = sigma.grid.weights
    h, g = fluctuation(sigma).values, v - w @ v
    rates, amplitudes = gauss_poles(sigma.values, w, v, taus)
    lag0, pole0 = float(w @ (h * g)), float(amplitudes.sum())
    if abs(pole0 - lag0) > 1e-10 * max(1.0, np.sqrt((w @ h**2) * (w @ g**2))):
        raise RuntimeError(
            f"{identity}: sum of amplitudes {pole0:.17g} vs lag-zero value {lag0:.17g}"
        )
    return rates, amplitudes


@dataclass(frozen=True, eq=False)
class KernelTable:
    """A scalar kernel in pole form, sampled on increasing lags ``taus`` from 0.

    ``modes = (rates, amplitudes)``, two arrays of shape (m,), possibly
    complex, gives K(tau) = sum_k amplitudes_k e^{-rates_k tau} at positive
    lags; a zero kernel has no modes.  ``lag0`` is the scalar K(0).
    ``values``, computed once, is lag0 at lag zero and the pole sum at every
    other lag, complex for a complex kernel; only the CSV writers read it.
    The Volterra solver and the Tartar check read only the pole form and
    lag0.
    """

    taus: np.ndarray
    modes: tuple[np.ndarray, np.ndarray]
    lag0: float | np.ndarray

    def __post_init__(self) -> None:
        taus = np.asarray(self.taus, dtype=float)
        rates, amps = (np.asarray(x) for x in self.modes)
        lag0 = np.asarray(self.lag0, dtype=np.result_type(self.lag0, float))
        if taus.ndim != 1 or taus[0] != 0 or np.any(np.diff(taus) <= 0):
            raise ValueError("taus must start at 0 and increase")
        if rates.ndim != 1 or amps.shape != rates.shape or lag0.ndim:
            raise ValueError(f"modes {rates.shape}, {amps.shape} do not fit lag0 {lag0.shape}")
        if not all(np.all(np.isfinite(x)) for x in (rates, amps, lag0)):
            raise ValueError("kernel modes and lag0 must be finite")
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "modes", (rates, amps))
        object.__setattr__(self, "lag0", lag0)

    @cached_property
    def values(self) -> np.ndarray:
        values = pole_sum(*self.modes, self.taus)
        values[0] = self.lag0
        return values

    @classmethod
    def from_cell_coefficient(
        cls, sigma: CellFunction, dt: float, count: int
    ) -> "KernelTable":
        """Tabulate K on {0, dt, ..., count*dt} by a Gauss rule certified on these lags.

        The lag-zero value is <sigma (sigma - <sigma>)> directly.  Raises
        RuntimeError when the weights miss the variance identity
        sum_k r_k = Var sigma.
        """
        if dt <= 0 or count < 0:
            raise ValueError("need dt > 0 and count >= 0")
        taus = np.arange(count + 1) * dt
        modes = _checked_poles(
            sigma, sigma.values, taus, "kernel poles violate the variance identity"
        )
        lag0 = (sigma.grid.weights * sigma.values) @ fluctuation(sigma).values
        return cls(taus, modes, lag0)

    def to_csv(self, path) -> None:
        """Write ``tau,K`` rows in the CSV dialect (:func:`homokin.csvfmt.write_csv`)."""
        write_csv(path, "tau,K", self.taus, self.values)


def kernel_laplace_semigroup(sigma: CellFunction, p: float) -> float:
    """Resolvent route: Khat(p) = < sigma [p+L_sigma]^{-1} (sigma-<sigma>) >."""
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    g = resolvent_apply(sigma, p, fluctuation(sigma))
    return float(sigma.grid.weights @ (sigma.values * g.values))


def tartar_kernel_laplace(sigma: CellFunction, p: float) -> float:
    """Tartar's form: Mhat(p) = p + <sigma> - B(p)."""
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    return p + cell_average(sigma) - harmonic_factor_B(sigma, p)


@dataclass(frozen=True)
class TartarEquivalenceReport:
    ps: np.ndarray
    khat: np.ndarray          # resolvent route
    mhat: np.ndarray          # harmonic-mean route
    numeric: np.ndarray       # Laplace transform of the certified pole form
    numeric_tail: np.ndarray  # its part beyond the certified lags
    max_rel_error: float      # max_p |khat - mhat| / max(|mhat|, 1e-14)


def verify_tartar_equivalence(sigma: CellFunction, ps) -> TartarEquivalenceReport:
    """Check Khat(p) = Mhat(p) over a set of Laplace abscissas.

    The numeric route transforms the kernel's pole form exactly, sum_k
    r_k / (p + lambda_k).  Its rule is certified on lags 5e-3 apart up to
    tau_max = max(20, 30 / min p), where e^{-p tau_max} <= e^{-30}, and
    ``numeric_tail`` is the part of the transform beyond tau_max, sum_k
    |r_k| e^{-(p + lambda_k) tau_max} / (p + lambda_k).
    """
    ps = np.asarray(ps, dtype=float)
    if np.any(ps <= 0):
        raise ValueError("all Laplace abscissas must be positive")
    khat = np.array([kernel_laplace_semigroup(sigma, p) for p in ps])
    mhat = np.array([tartar_kernel_laplace(sigma, p) for p in ps])
    dt = 5e-3
    count = int(np.ceil(max(20.0, 30.0 / ps.min()) / dt))
    rates, residues = KernelTable.from_cell_coefficient(sigma, dt, count).modes
    shifted = ps[:, None] + rates
    tail = np.abs(residues) * np.exp(-shifted * (count * dt)) / shifted
    rel = np.abs(khat - mhat) / np.maximum(np.abs(mhat), 1e-14)
    return TartarEquivalenceReport(
        ps=ps,
        khat=khat,
        mhat=mhat,
        numeric=np.sum(residues / shifted, axis=1),
        numeric_tail=np.sum(tail, axis=1),
        max_rel_error=float(np.max(rel)),
    )


def build_source_table(
    sigma: CellFunction,
    u_in: CellFunction,
    f: CellFunction | None,
    dt: float,
    count: int,
) -> np.ndarray:
    """Samples of S(t) on {0, dt, ..., count*dt}, shape (count + 1,).

    ``f`` is None (no forcing) or a CellFunction (time-independent
    forcing).  Each term is the pole sum of one polarized rule, certified
    on the grid; the time integral of the forcing term is the trapezoid
    rule on the same grid.  Raises RuntimeError when a rule's amplitudes
    miss <sigma (v - <v>)> at lag 0, and ValueError when a sample is not
    finite (a negative sigma over a long horizon overflows).
    """
    if dt <= 0 or count < 0:
        raise ValueError("need dt > 0 and count >= 0")
    if f is not None and not isinstance(f, CellFunction):
        raise TypeError("f must be None or a CellFunction")
    times = np.arange(count + 1) * dt

    def response(v: CellFunction) -> np.ndarray:
        """<sigma e^{-t L_sigma} (v - <v>)> on the grid."""
        rates, amplitudes = _checked_poles(
            sigma, v.values, times, "source poles miss <sigma (v - <v>)> at lag 0"
        )
        return pole_sum(rates, amplitudes, times)

    # initial-data term d(t) = < sigma e^{-t L} L_1 u_in >
    d = response(u_in)
    if f is None:
        values = -d
    else:
        g = response(f)
        conv = np.concatenate(([0.0], np.cumsum(0.5 * dt * (g[1:] + g[:-1]))))
        values = cell_average(f) - conv - d
    if not np.all(np.isfinite(values)):
        raise ValueError("source values must be finite")
    return values
