"""Memory kernel and homogenized source of the cell decay problem.

The homogenized limit of ``du/dt + sigma(x/eps) u = f`` is a Volterra
equation whose convolution kernel is built from the cell semigroup:

    K(tau) = < sigma * exp(-tau L_sigma) (sigma - <sigma>) >

with source

    S(t) = <f>(t) - int_0^t < sigma e^{-(t-s) L_sigma} L_1 f(s) > ds
           - < sigma e^{-t L_sigma} L_1 u_in >.

In Laplace variables the kernel admits two independent expressions: the
resolvent route  Khat(p) = < sigma [p + L_sigma]^{-1} (sigma - <sigma>) >
and Tartar's classical harmonic-mean form  Mhat(p) = p + <sigma> - B(p).
The two agree identically; :func:`verify_tartar_equivalence` checks the
identity numerically along with a third route (numeric Laplace transform
of the tabulated kernel).

With the poles -lambda_k of B(p) and their residues r_k
(:func:`homokin.cell.secular_poles`), K(tau) = sum_k r_k e^{-lambda_k tau}.
:class:`KernelTable` sums a Q-point Gauss rule of the positive measure
sum_k r_k delta_{lambda_k} instead (:func:`homokin.cell.gauss_poles`),
certified on the table's lags by a Gauss-Radau bracket: Q = 8 for a smooth
4096-cell profile with 4095 poles.  The source table sums every pole,

    < sigma e^{-tau L_sigma} v > = sum_k r_k <v/(sigma - lambda_k)> e^{-lambda_k tau}

for zero-mean v, from the eigenvectors 1/(sigma - lambda_k); its amplitudes
are signed, so no Gauss rule bounds it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cell import (
    POLE_CHUNK,
    CellFunction,
    cell_average,
    fluctuation,
    gauss_poles,
    harmonic_factor_B,
    pole_sum,
    resolvent_apply,
    secular_poles,
)


def _eigen_coefficients(sigma: CellFunction, poles: np.ndarray, v: np.ndarray) -> np.ndarray:
    """<v / (sigma - lambda_k)> per pole for cell data v of shape (..., n)."""
    wv = np.asarray(v) * sigma.grid.weights
    out = np.empty(wv.shape[:-1] + (len(poles),))
    cols = max(1, POLE_CHUNK // sigma.grid.n)
    for i in range(0, len(poles), cols):
        out[..., i : i + cols] = wv @ (1.0 / np.subtract.outer(sigma.values, poles[i : i + cols]))
    return out


@dataclass(frozen=True, eq=False)
class KernelTable:
    """Kernel samples on a uniform lag grid.

    ``values`` is (count+1,) for scalar kernels or (count+1, d, d) for
    matrix-valued ones (used by the oscillator limit equation).

    ``modes = (rates, amplitudes)``, when given, is the pole form of the
    kernel at positive lags: K(tau) = Re sum_k amplitudes_k e^{-rates_k tau}
    for tau >= dt, with amplitudes of shape (m,) or (m, d, d), possibly
    complex.  Lag zero is always the tabulated value.  The solver advances
    its history through one recursion per pole when modes are present.
    """

    taus: np.ndarray
    values: np.ndarray
    modes: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self) -> None:
        taus = np.asarray(self.taus, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if taus.ndim != 1 or np.any(np.diff(taus) <= 0) or taus[0] < 0:
            raise ValueError("taus must be increasing and nonnegative")
        if values.shape[0] != taus.shape[0]:
            raise ValueError("kernel values misaligned with taus")
        if not np.all(np.isfinite(values)):
            raise ValueError("kernel values must be finite")
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "values", values)
        if self.modes is not None:
            object.__setattr__(self, "modes", self._checked_modes())

    def _checked_modes(self) -> tuple[np.ndarray, np.ndarray]:
        """The modes as arrays; ValueError unless they reproduce lag 1 and the last lag."""
        rates, amps = (np.asarray(x) for x in self.modes)
        if rates.ndim != 1 or amps.shape != rates.shape + self.values.shape[1:]:
            raise ValueError(
                f"modes: rates {rates.shape} and amplitudes {amps.shape} do not fit "
                f"kernel values {self.values.shape}"
            )
        if len(self.taus) > 1:
            lags = [1, len(self.taus) - 1]
            pole = np.tensordot(np.exp(-np.outer(self.taus[lags], rates)), amps, axes=1)
            gap = float(np.max(np.abs(pole.real - self.values[lags])))
            if gap > 1e-12 * float(np.max(np.abs(self.values))):
                raise ValueError(f"modes miss the tabulated kernel by {gap:.3e}")
        return rates, amps

    @property
    def dt(self) -> float:
        return float(self.taus[1] - self.taus[0]) if len(self.taus) > 1 else 0.0

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
        h = fluctuation(sigma).values
        taus = np.arange(count + 1) * dt
        poles, residues = gauss_poles(sigma.values, sigma.grid.weights, taus)
        var = float(sigma.grid.weights @ h**2)
        pole_var = float(residues.sum())
        if abs(pole_var - var) > 1e-10 * max(1.0, abs(var)):
            raise RuntimeError(
                f"kernel poles violate the variance identity: sum of residues "
                f"{pole_var:.17g} vs Var sigma {var:.17g}"
            )
        values = pole_sum(poles, residues, taus)
        values[0] = float((sigma.grid.weights * sigma.values) @ h)
        return cls(taus, values, modes=(poles, residues))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write("tau,K\n")
            for tau, k in zip(self.taus, self.values):
                fh.write(f"{tau:.17g},{k:.17g}\n")


def laplace_of_table(table: KernelTable, p: float) -> tuple[float, float]:
    """Trapezoid Laplace transform of a scalar table, plus a tail bound.

    The bound |K(tau_max)| e^{-p tau_max} / p assumes nothing about kernel
    decay; it only reports what the truncation could contribute if the
    kernel stayed at its last tabulated magnitude.
    """
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    weights = np.exp(-p * table.taus)
    integrand = weights * table.values
    value = float(np.trapezoid(integrand, table.taus))
    tail = abs(table.values[-1]) * np.exp(-p * table.taus[-1]) / p
    return value, float(tail)


def laplace_truncation_horizon(p: float) -> float:
    """Lag horizon max(20, 30/p): e^{-p tau_max} <= e^{-30} beyond it."""
    return max(20.0, 30.0 / p)


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
    numeric: np.ndarray       # Laplace of the tabulated kernel
    numeric_tail: np.ndarray  # truncation bound for the numeric route
    max_rel_error: float      # max_p |khat - mhat| / max(|mhat|, 1e-14)
    max_numeric_rel_error: float


def verify_tartar_equivalence(
    sigma: CellFunction,
    ps,
    table_dt: float = 5e-3,
) -> TartarEquivalenceReport:
    """Check Khat(p) = Mhat(p) over a set of Laplace abscissas.

    A single kernel table reaching the horizon of the smallest p serves
    the numeric route for every p.
    """
    ps = np.asarray(ps, dtype=float)
    if np.any(ps <= 0):
        raise ValueError("all Laplace abscissas must be positive")
    khat = np.array([kernel_laplace_semigroup(sigma, p) for p in ps])
    mhat = np.array([tartar_kernel_laplace(sigma, p) for p in ps])
    tau_max = max(laplace_truncation_horizon(p) for p in ps)
    count = int(np.ceil(tau_max / table_dt))
    table = KernelTable.from_cell_coefficient(sigma, table_dt, count)
    numeric = np.empty_like(khat)
    tails = np.empty_like(khat)
    for i, p in enumerate(ps):
        numeric[i], tails[i] = laplace_of_table(table, p)
    denom = np.maximum(np.abs(mhat), 1e-14)
    rel = np.abs(khat - mhat) / denom
    rel_num = np.abs(numeric - mhat) / denom
    return TartarEquivalenceReport(
        ps=ps,
        khat=khat,
        mhat=mhat,
        numeric=numeric,
        numeric_tail=tails,
        max_rel_error=float(np.max(rel)),
        max_numeric_rel_error=float(np.max(rel_num)),
    )


@dataclass(frozen=True, eq=False)
class SourceTable:
    """Homogenized source S(t) sampled on the solver grid."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.shape != values.shape:
            raise ValueError("source values misaligned with times")
        if not np.all(np.isfinite(values)):
            raise ValueError("source values must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


def build_source_table(
    sigma: CellFunction,
    u_in: CellFunction,
    f,
    dt: float,
    count: int,
) -> SourceTable:
    """Tabulate S(t) on {0, dt, ..., count*dt}.

    ``f`` may be None (no forcing), a CellFunction (time-independent
    forcing), or a callable t -> cell-values array.  Every term is a pole
    sum; the time integral is the trapezoid rule on the same grid, which
    for callable f advances one exact decay factor per pole and step.
    """
    if dt <= 0 or count < 0:
        raise ValueError("need dt > 0 and count >= 0")
    times = np.arange(count + 1) * dt
    poles, residues = secular_poles(sigma.values, sigma.grid.weights)

    def response(v: np.ndarray) -> np.ndarray:
        """<sigma e^{-t L_sigma} v> on the grid, for zero-mean v."""
        return pole_sum(poles, residues * _eigen_coefficients(sigma, poles, v), times)

    # initial-data term d(t) = < sigma e^{-t L} L_1 u_in >
    d = response(fluctuation(u_in).values)

    if f is None:
        return SourceTable(times, -d)

    if isinstance(f, CellFunction):
        g = response(fluctuation(f).values)
        conv = np.concatenate(
            ([0.0], np.cumsum(0.5 * dt * (g[1:] + g[:-1])))
        )
        return SourceTable(times, cell_average(f) - conv - d)

    if callable(f):
        n = sigma.grid.n
        fvals = np.empty((count + 1, n))
        for j in range(count + 1):
            fj = np.asarray(f(times[j]), dtype=float)
            if fj.shape != (n,):
                raise ValueError("f(t) must return cell values on sigma's grid")
            fvals[j] = fj
        favg = fvals @ sigma.grid.weights
        coef = _eigen_coefficients(sigma, poles, fvals - favg[:, None])
        # trapezoid of int_0^t e^{-lambda_k (t-s)} coef_k(s) ds, per pole
        decay = np.exp(-poles * dt)
        acc = np.zeros(len(poles))
        integral = np.zeros(count + 1)
        for j in range(1, count + 1):
            acc = decay * (acc + 0.5 * dt * coef[j - 1]) + 0.5 * dt * coef[j]
            integral[j] = residues @ acc
        return SourceTable(times, favg - integral - d)

    raise TypeError("f must be None, a CellFunction, or a callable t -> values")
