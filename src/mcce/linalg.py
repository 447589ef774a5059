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

residualize(C, H, group)
    The solve of H on C, and H minus that fit. The residual is
    orthogonal to col(C) up to floating-point error. With `group`, C
    holds the u distinct rows of the design and row i of the design is
    C[group[i]]: with P the (n, u) indicator of `group` and w its column
    counts, the design is P C and P / sqrt(w) has orthonormal columns, so
    (P C)^+ = (sqrt(w) C)^+ (P / sqrt(w))^T. The solve is then
    lstsq(sqrt(w) C, P^T H / sqrt(w)), whose singular values and rank are
    the design's, and no (n, p) matrix is formed.

truncated_svd(R)
    Every right singular direction of R, sign-pinned, and its singular
    values s. The top-j scores R @ basis[:, :j] are orthogonal with norms
    s[:j], so their solve needs no second SVD: scores^T B / s^2.
    A tall R = QF, F its (d, d) triangular factor, has R^T R = F^T F, so
    the SVD of F gives R's s and V; R's (n, d) left factor is never formed
    (T. F. Chan, "An improved algorithm for computing the singular value
    decomposition", ACM TOMS 8(1), 1982). F is taken a block of rows at a
    time, as the factor of the last block's F stacked on the next block
    (the TSQR reduction of Demmel et al., "Communication-optimal parallel
    and sequential QR and LU factorizations", SIAM J. Sci. Comput. 34(1),
    2012), so no copy of R is made either.

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
# Entries of a tall matrix, or of a fit, that a block of rows holds (64 KiB of float64).
_BLOCK_ITEMS = 1 << 13


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
        if right_only and arr.shape[0] > arr.shape[1]:  # the triangular factor has arr's s and Vt
            step, factor = max(arr.shape[1], _BLOCK_ITEMS // arr.shape[1]), arr[:0]
            for start in range(0, len(arr), step):
                factor = np.linalg.qr(np.vstack([factor, arr[start : start + step]]), mode="r")
            arr = factor
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


def group_sums(group, blocks, size: int) -> np.ndarray:
    """(size, m): row g sums the rows whose `group` entry is g of the column blocks side by side."""
    columns = [block[:, column] for block in blocks for column in range(block.shape[1])]
    sums = np.empty((size, len(columns)))
    for at, column in enumerate(columns):
        sums[:, at] = np.bincount(group, column, size)
    return sums


def residualize(C, H, group=None) -> tuple[LstsqSolution, np.ndarray]:
    """Regress H on C, or on the design whose row i is C[group[i]]; return (the solve, H minus its fit).

    H is a matrix, or a tuple of matrices that stand for their columns
    side by side. `group`, when given, holds a row index of C per row of
    H, and every row of C must be some row's; C is then the caller's to
    give up, as its rows are scaled in place by the roots of their
    counts. H is not written: the residual is a new matrix, formed once
    the solve is done, from which the fit is subtracted a block of rows
    at a time, each block's temporaries holding about `_BLOCK_ITEMS`
    entries at most.
    """
    C, blocks = as_matrix(C, "C"), [as_matrix(block, "H") for block in (H if isinstance(H, tuple) else (H,))]
    n, grouped = len(blocks[0]), group is not None
    if {len(block) for block in blocks} != {n}:
        raise ValidationError("the column blocks of H differ in row count")
    group = np.asarray(group) if grouped else np.arange(n)
    if group.shape != (n,) or group.dtype.kind not in "iu" or np.any(group < 0):
        raise ValidationError(f"group must hold a row index of C for each of H's {n} rows")
    root = np.sqrt(np.bincount(group, minlength=len(C)))
    if root.size != len(C) or not root.all():
        raise ValidationError(f"each of C's {len(C)} rows must be the design row of some row of H")
    sums = group_sums(group, blocks, len(C))
    if grouped:
        sums /= root[:, None]
        C *= root[:, None]
    sol = lstsq(C, sums)
    del sums
    residual = np.hstack(blocks)
    # a power of two, as `explainers._EDIT_BLOCK` is, so no row's bits depend on the block size
    step = 1 << max(0, (_BLOCK_ITEMS // (residual.shape[1] + C.shape[1])).bit_length() - 1)
    for start in range(0, n, step):
        rows = group[start : start + step]
        residual[start : start + step] -= (C[rows] / root[rows, None]) @ sol.coefficients
    return sol, residual


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
