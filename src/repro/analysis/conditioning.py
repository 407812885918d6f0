"""Numerical-conditioning guards for the MNA and DC solvers.

The admittance matrices this toolkit factorizes span element values
over fourteen orders of magnitude, so an optimizer probing the corner
of the design box can hand the solver a matrix that is *numerically*
singular while the circuit is physically fine.  Two tools defuse that:

* :func:`condition_log10` — a cheap ``log10`` 1-norm condition
  estimate (the matrices are tiny, so the explicit inverse is cheaper
  than an iterative estimator), sampled into per-run ``Metrics``
  histograms by :func:`observe_condition`;
* :func:`equilibrated_solve` — row/column equilibration followed by
  one step of iterative refinement, the escalation the scalar AC
  solver and the DC solver try on a factorization that failed *before*
  giving up.  It is only ever invoked on already-failing solves, so
  healthy results remain bit-for-bit identical to the plain
  ``np.linalg.solve`` path.
"""

from __future__ import annotations

import numpy as np

from repro.guards import modes as _guard_modes
from repro.obs import metrics as _obs_metrics

__all__ = [
    "condition_log10",
    "observe_condition",
    "equilibrated_solve",
]


def condition_log10(matrix: np.ndarray) -> float:
    """``log10`` of the 1-norm condition number of one (n, n) matrix.

    Returns ``inf`` for exactly singular matrices.  Intended for the
    small (tens-of-nodes) MNA matrices where the explicit inverse
    costs microseconds.
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        return float("inf")
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return float("inf")
    norm_a = float(np.max(np.sum(np.abs(a), axis=0)))
    norm_inv = float(np.max(np.sum(np.abs(inv), axis=0)))
    cond = norm_a * norm_inv
    if not np.isfinite(cond) or cond < 1.0:
        return 0.0 if cond < 1.0 else float("inf")
    return float(np.log10(cond))


def observe_condition(matrix: np.ndarray, where: str) -> float:
    """Sample one matrix's condition into the ``<where>.condition_log10``
    histogram (no-op with guards off).  Returns the estimate."""
    if not _guard_modes.enabled():
        return 0.0
    value = condition_log10(matrix)
    _obs_metrics.observe(
        f"{where}.condition_log10", value if np.isfinite(value) else 320.0
    )
    return value


def _scale_vector(magnitudes: np.ndarray) -> np.ndarray:
    """Safe equilibration scales: zero/non-finite rows scale by 1."""
    return np.where(
        (magnitudes > 0.0) & np.isfinite(magnitudes), magnitudes, 1.0
    )


def equilibrated_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` with equilibration + one refinement step.

    Row scaling ``R`` (infinity-norm) then column scaling ``C`` turn
    ``a`` into ``R a C`` with entries of order one; the solution of the
    scaled system is mapped back and polished with a single iterative
    refinement step against the *original* matrix.  Supports the same
    broadcasting as ``np.linalg.solve``: ``a`` is ``(..., n, n)``,
    ``b`` is ``(..., n)`` or ``(..., n, k)``.  Raises
    ``numpy.linalg.LinAlgError`` when the equilibrated matrix is still
    singular.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    vector_rhs = b.ndim == a.ndim - 1
    if vector_rhs:
        b = b[..., None]

    row = _scale_vector(np.max(np.abs(a), axis=-1))        # (..., n)
    a_rows = a / row[..., :, None]
    col = _scale_vector(np.max(np.abs(a_rows), axis=-2))   # (..., n)
    a_scaled = a_rows / col[..., None, :]

    y = np.linalg.solve(a_scaled, b / row[..., :, None])
    x = y / col[..., :, None]

    # One refinement step against the unscaled system knocks the
    # equilibration round-off back down toward machine precision.
    residual = b - a @ x
    dy = np.linalg.solve(a_scaled, residual / row[..., :, None])
    x = x + dy / col[..., :, None]
    return x[..., 0] if vector_rhs else x
