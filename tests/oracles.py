"""Dense reference routes that only the tests use.

The package computes the cell semigroup and the memory kernel through
exponential sums over poles.  These routes form the semigroup directly,
by scaling-and-squaring of the dense operator matrix or by RK4 on the
decay ODE, and serve as independent oracles for those sums.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from homokin.cell import (
    CellFunction,
    CellOperator,
    fluctuation,
    rk4_step,
)


def _check_same_grid(a: CellFunction, b: CellFunction) -> None:
    if a.grid.n != b.grid.n:
        raise ValueError(f"grid mismatch: n={a.grid.n} vs n={b.grid.n}")


def operator_matrix(g: CellFunction) -> np.ndarray:
    """Dense n x n representation diag(g) - 1 (w*g)^T of L_g."""
    gv = g.values
    return np.diag(gv) - np.outer(np.ones_like(gv), g.grid.weights * gv)


def apply_L(op: CellOperator, v: CellFunction) -> CellFunction:
    """Apply L_g; the result has zero cell average by construction."""
    _check_same_grid(op.g, v)
    return CellFunction(v.grid, op.apply(v.values))


def default_semigroup_step(sigma: CellFunction) -> float:
    """Default RK4 step for the ode-integrate path.

    The stability bound is min(0.1, 1/(4 max sigma)); the extra factor 32
    pushes the O(h^4) integration error below 1e-10 so the two semigroup
    routes agree to the contracted 1e-8.
    """
    smax = float(np.max(np.abs(sigma.values)))
    return min(0.1, 1.0 / (4.0 * max(smax, 1e-30))) / 32.0


def semigroup_apply(
    sigma: CellFunction,
    tau: float,
    h: CellFunction,
    method: str = "matrix-exp",
    step: float | None = None,
) -> CellFunction:
    """Apply exp(-tau * L_sigma) to h.

    ``matrix-exp`` exponentiates the dense operator matrix
    (scaling-and-squaring); ``ode-integrate`` advances the decay ODE with
    RK4 and is kept as an independent cross-check path.  The cell mean of
    h is conserved for every tau.
    """
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    _check_same_grid(sigma, h)
    op = CellOperator(sigma)
    if method == "matrix-exp":
        out = expm(-tau * operator_matrix(sigma)) @ h.values
    elif method == "ode-integrate":
        if step is None:
            step = default_semigroup_step(sigma)
        else:
            smax = float(np.max(np.abs(sigma.values)))
            step = min(step, 0.1, 1.0 / (4.0 * max(smax, 1e-30)))
        nsteps = int(np.ceil(tau / step))
        out = h.values.copy()
        for _ in range(nsteps):
            (out,) = rk4_step(lambda t, w: (-op.apply(w),), 0.0, tau / nsteps, out)
    else:
        raise ValueError(f"unknown semigroup method {method!r}")
    return CellFunction(h.grid, out)


def memory_kernel_eval(sigma: CellFunction, tau: float) -> float:
    """Pointwise kernel value K(tau); K(0) is the cell variance of sigma."""
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    h = fluctuation(sigma)
    w = semigroup_apply(sigma, tau, h)
    return float(sigma.grid.weights @ (sigma.values * w.values))
