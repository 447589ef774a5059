"""Dense least-squares kernels shared by the explainer stack.

Every solve goes through a single SVD-based path so that rank-deficient
systems get the minimum-norm solution and regularized systems stay
deterministic. One-hot concept designs are collinear by construction
(each attribute block sums to the all-ones column), so the minimum-norm
convention is load-bearing, not a nicety.

Conventions
-----------
lstsq(A, B, ridge)
    argmin_X ||B - A X||_F^2 + ridge * ||X||_F^2, with A = U S V^T:

        ridge = 0:  X = V diag(1/s_i if s_i > cutoff else 0) U^T B
        ridge > 0:  X = V diag(s_i / (s_i^2 + ridge)) U^T B

    cutoff = RANK_RTOL * max(s). `effective_rank` counts singular values
    above the cutoff regardless of ridge. The filter acts on each column
    of B alone, so a solve on [B1 | B2] is the solves on B1 and on B2.

residualize(C, H, ridge)
    The solve of H on C, and H minus that fit. At ridge 0 the residual
    is orthogonal to col(C) up to floating-point error.

truncated_svd(R, j, floor)
    Top-j right singular directions of R, the scores R @ basis, and their
    singular values s. In each basis column the entry of largest
    magnitude is nonnegative, which pins an otherwise arbitrary sign.
    Directions at or below `floor`, and their s, are zeroed: a residual
    that is numerically zero must not spawn pseudo-directions made of
    rounding error. The scores are orthogonal with norms s, so their
    solve needs no second SVD: scores^T B / (s^2 + ridge) where s > 0.
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


def _svd(arr: np.ndarray, name: str):
    try:
        return np.linalg.svd(arr, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise NumericalError(f"SVD of {name} failed to converge: {exc}") from exc


@dataclass(frozen=True, eq=False)
class LstsqSolution:
    coefficients: np.ndarray  # (p, q)
    effective_rank: int  # singular values above the rank cutoff


def lstsq(A, B, ridge: float = 0.0) -> LstsqSolution:
    """Minimum-norm (or ridge) least squares of B on A.

    A is (n, p), B is (n, q); the coefficient matrix is (p, q). ridge
    multiplies the squared Frobenius norm of the coefficients.
    """
    A, B = as_matrix(A, "A"), as_matrix(B, "B")
    if A.shape[0] != B.shape[0]:
        raise ValidationError(f"row mismatch: A has {A.shape[0]} rows, B has {B.shape[0]}")
    if not np.isfinite(ridge) or ridge < 0.0:
        raise ValidationError(f"ridge must be a finite nonnegative float, got {ridge}")

    U, s, Vt = _svd(A, "A")
    cutoff = RANK_RTOL * (s[0] if s.size else 0.0)
    rank = int(np.count_nonzero(s > cutoff))
    if ridge > 0.0:
        filt = s / (s**2 + ridge)
    else:
        filt = np.divide(1.0, s, out=np.zeros_like(s), where=s > cutoff)
    coef = Vt.T @ (filt[:, None] * (U.T @ B))
    return LstsqSolution(coefficients=coef, effective_rank=rank)


def residualize(C, H, ridge: float = 0.0) -> tuple[LstsqSolution, np.ndarray]:
    """Regress H on C; return (the solve, H minus its fit)."""
    C, H = as_matrix(C, "C"), as_matrix(H, "H")
    sol = lstsq(C, H, ridge)
    residual = C @ sol.coefficients  # the fit's buffer becomes the residual
    return sol, np.subtract(H, residual, out=residual)


def truncated_svd(R, j: int, floor: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-j right singular directions of R, the scores R @ basis, and their singular values.

    Returns (basis, scores, s) with basis (d, j), scores (n, j), s (j,).
    Columns for zero singular values are whatever canonical unit vectors
    the SVD yields, sign-fixed like every other column.

    `floor` > 0 zeroes every column, and its entry of s, whose singular
    value is <= floor.
    Callers use it to discard directions that sit at rounding-error scale
    relative to the matrix R was derived from; a zero column contributes
    nothing downstream, which is safer than an arbitrary noise direction.
    """
    R = as_matrix(R, "R")
    limit = min(R.shape)
    if not isinstance(j, (int, np.integer)) or not 1 <= int(j) <= limit:
        raise ValidationError(f"j must be an integer in [1, {limit}], got {j!r}")
    j = int(j)
    if not isinstance(floor, (int, float, np.floating)) or not np.isfinite(floor) or floor < 0.0:
        raise ValidationError(f"floor must be a finite nonnegative real, got {floor!r}")
    floor = float(floor)
    _, s, Vt = _svd(R, "R")
    basis, s = Vt[:j].T.copy(), s[:j]
    for col in range(j):
        if floor > 0.0 and s[col] <= floor:
            basis[:, col] = s[col] = 0.0
            continue
        pivot = int(np.argmax(np.abs(basis[:, col])))
        if basis[pivot, col] < 0.0:
            basis[:, col] = -basis[:, col]
    return basis, R @ basis, s


def max_abs_cross(A, B) -> float:
    """Largest |entry| of A^T B; the orthogonality diagnostic."""
    A, B = as_matrix(A, "A"), as_matrix(B, "B")
    if A.shape[0] != B.shape[0]:
        raise ValidationError(f"row mismatch: A has {A.shape[0]} rows, B has {B.shape[0]}")
    return float(np.max(np.abs(A.T @ B)))
