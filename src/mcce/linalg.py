"""Dense least-squares kernels shared by the explainer stack.

Every solve goes through a single SVD-based path so that rank-deficient
systems get the minimum-norm solution. One-hot concept designs are
collinear by construction (each attribute block sums to the all-ones
column), so the minimum-norm convention is load-bearing, not a nicety.

Conventions
-----------
lstsq(A, B)
    The minimum-norm argmin_X ||B - A X||_F^2, with A = U S V^T:

        X = V diag(1/s_i if s_i > cutoff else 0) U^T B

    cutoff = RANK_RTOL * max(s). `effective_rank` counts singular values
    above the cutoff. The filter acts on each column of B alone, so a
    solve on [B1 | B2] is the solves on B1 and on B2.

residualize(C, H)
    The solve of H on C, and H minus that fit. The residual is
    orthogonal to col(C) up to floating-point error.

truncated_svd(R)
    Every right singular direction of R, sign-pinned, and its singular
    values s. The top-j scores R @ basis[:, :j] are orthogonal with norms
    s[:j], so their solve needs no second SVD: scores^T B / s^2.
    A tall R = QF, F its (d, d) triangular factor, has R^T R = F^T F, so
    the SVD of F gives R's s and V; R's (n, d) left factor is never formed
    (T. F. Chan, "An improved algorithm for computing the singular value
    decomposition", ACM TOMS 8(1), 1982).

noise_threshold(s, shape, floor)
    Noise reaches every direction, so a spectrum with a value at or below
    `floor` (rounding scale) is noise-free and `floor` separates signal.
    Otherwise the Gavish-Donoho threshold does, which keeps at most half.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

RANK_RTOL = 1e-10


def as_matrix(value, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array with at least one row and column."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValidationError(f"{name} must be non-empty, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def _svd(arr: np.ndarray, name: str, *, right_only: bool = False):
    """numpy's thin SVD (U, s, Vt); with `right_only`, (s, Vt) and a tall arr's U never formed."""
    try:
        if right_only and arr.shape[0] > arr.shape[1]:
            arr = np.linalg.qr(arr, mode="r")  # the triangular factor has arr's s and Vt
        U, s, Vt = np.linalg.svd(arr, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise NumericalError(f"SVD of {name} failed to converge: {exc}") from exc
    return (s, Vt) if right_only else (U, s, Vt)


@dataclass(frozen=True, eq=False)
class LstsqSolution:
    coefficients: np.ndarray  # (p, q)
    effective_rank: int  # singular values above the rank cutoff


def lstsq(A, B) -> LstsqSolution:
    """Minimum-norm least squares of B on A.

    A is (n, p), B is (n, q); the coefficient matrix is (p, q).
    """
    A, B = as_matrix(A, "A"), as_matrix(B, "B")
    if A.shape[0] != B.shape[0]:
        raise ValidationError(f"row mismatch: A has {A.shape[0]} rows, B has {B.shape[0]}")

    U, s, Vt = _svd(A, "A")
    cutoff = RANK_RTOL * (s[0] if s.size else 0.0)
    rank = int(np.count_nonzero(s > cutoff))
    filt = np.divide(1.0, s, out=np.zeros_like(s), where=s > cutoff)
    coef = Vt.T @ (filt[:, None] * (U.T @ B))
    return LstsqSolution(coefficients=coef, effective_rank=rank)


def residualize(C, H) -> tuple[LstsqSolution, np.ndarray]:
    """Regress H on C; return (the solve, H minus its fit)."""
    C, H = as_matrix(C, "C"), as_matrix(H, "H")
    sol = lstsq(C, H)
    residual = C @ sol.coefficients  # the fit's buffer becomes the residual
    return sol, np.subtract(H, residual, out=residual)


def truncated_svd(R) -> tuple[np.ndarray, np.ndarray]:
    """(basis, s): all m = min(R.shape) right singular directions of R, (d, m), and s descending.

    The entry of largest magnitude in each basis column is nonnegative,
    which pins an otherwise arbitrary sign.
    """
    R = as_matrix(R, "R")
    s, Vt = _svd(R, "R", right_only=True)
    basis = Vt.T
    pivot = np.argmax(np.abs(basis), axis=0)
    basis *= np.where(basis[pivot, np.arange(s.size)] < 0.0, -1.0, 1.0)
    return basis, s


def noise_threshold(s: np.ndarray, shape: tuple[int, int], floor: float) -> float:
    """The singular value above which a direction of an (n, d) matrix is signal.

    s holds its singular values, descending. With none at or below `floor`
    it is omega(beta) * median(s), beta = min(n, d) / max(n, d), the optimal
    hard threshold for noise of unknown level (Gavish & Donoho 2014, "The
    Optimal Hard Threshold for Singular Values is 4/sqrt(3)"); else `floor`.
    """
    if s.size == 0 or s[-1] <= floor:
        return floor
    beta = min(shape) / max(shape)
    omega = 0.56 * beta**3 - 0.95 * beta**2 + 1.82 * beta + 1.43
    return omega * float(np.median(s))


def max_abs_cross(A, B) -> float:
    """Largest |entry| of A^T B; the orthogonality diagnostic."""
    A, B = as_matrix(A, "A"), as_matrix(B, "B")
    if A.shape[0] != B.shape[0]:
        raise ValidationError(f"row mismatch: A has {A.shape[0]} rows, B has {B.shape[0]}")
    return float(np.max(np.abs(A.T @ B)))
