"""Least-squares kernel tests.

Expected values are derived by hand from the normal equations or checked
against numpy.linalg.pinv as an independent oracle, never against the
implementation itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcce import ValidationError, lstsq, residualize, truncated_svd
from mcce.linalg import as_matrix, max_abs_cross, noise_threshold


# --- lstsq ------------------------------------------------------------

def test_lstsq_normal_equations_by_hand():
    # A = [1; 1], B = [1; 3]: AtA = 2, AtB = 4, coef = 2,
    # residual = (1-2)^2 + (3-2)^2 = 2.
    A, B = np.array([[1.0], [1.0]]), np.array([[1.0], [3.0]])
    sol = lstsq(A, B)
    assert sol.coefficients.shape == (1, 1)
    assert abs(sol.coefficients[0, 0] - 2.0) < 1e-12
    assert abs(np.sum((B - A @ sol.coefficients) ** 2) - 2.0) < 1e-12
    assert sol.effective_rank == 1


def test_lstsq_exact_system_zero_residual():
    A = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    X = np.array([[3.0], [-1.0]])
    sol = lstsq(A, A @ X)
    assert np.allclose(sol.coefficients, X, atol=1e-12)
    assert np.sum((A @ X - A @ sol.coefficients) ** 2) < 1e-20


def test_lstsq_min_norm_on_duplicated_column():
    # x1 + x2 = 3 has a line of solutions; the minimum-norm one is (1.5, 1.5).
    A = np.array([[1.0, 1.0], [2.0, 2.0]])
    B = np.array([[3.0], [6.0]])
    sol = lstsq(A, B)
    assert np.allclose(sol.coefficients, [[1.5], [1.5]], atol=1e-12)
    assert sol.effective_rank == 1


def test_lstsq_min_norm_matches_pinv_oracle():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n, p, q, r = 12, 7, 3, 4
        A = rng.standard_normal((n, r)) @ rng.standard_normal((r, p))  # rank r < p
        B = rng.standard_normal((n, q))
        sol = lstsq(A, B)
        assert np.allclose(sol.coefficients, np.linalg.pinv(A) @ B, atol=1e-8)
        assert sol.effective_rank == r


def test_lstsq_one_hot_block_rank():
    # two attributes x two levels: blocks sum to the ones column, rank 3
    C = np.array(
        [
            [1.0, 0.0, 1.0, 0.0],
            [1.0, 0.0, 0.0, 1.0],
            [0.0, 1.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 1.0],
        ]
    )
    assert lstsq(C, np.eye(4)).effective_rank == 3


def test_lstsq_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        lstsq([[1.0, np.nan]], [[1.0]])
    with pytest.raises(ValidationError):
        lstsq([[1.0], [1.0]], [[1.0]])  # row mismatch


# --- residualize ------------------------------------------------------

def test_residualize_removes_column_space():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(8, 51))
        p = int(rng.integers(1, min(n, 11)))
        C = rng.standard_normal((n, p))
        H = rng.standard_normal((n, 6))
        sol, R = residualize(C, H)
        assert np.allclose(C @ sol.coefficients + R, H, atol=1e-10)
        assert sol.effective_rank == p
        assert max_abs_cross(C, R) < 1e-10


def test_residualize_is_idempotent():
    rng = np.random.default_rng(4)
    C = rng.standard_normal((15, 4))
    H = rng.standard_normal((15, 5))
    _, R1 = residualize(C, H)
    sol2, R2 = residualize(C, R1)
    assert np.max(np.abs(sol2.coefficients)) < 1e-10
    assert np.allclose(R1, R2, atol=1e-10)


def test_residualize_exact_fit_leaves_zero():
    rng = np.random.default_rng(5)
    C = rng.standard_normal((10, 3))
    H = C @ rng.standard_normal((3, 4))
    _, R = residualize(C, H)
    assert np.max(np.abs(R)) < 1e-10


def test_residualize_on_distinct_rows_equals_the_solve_on_every_row():
    # rows 0, 2 and 3 share a design row: the solve runs on the two distinct rows,
    # each weighted by the root of its count
    rng = np.random.default_rng(8)
    D = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    group = np.array([0, 1, 0, 0, 1])
    H, T = rng.standard_normal((5, 4)), rng.standard_normal((5, 2))
    want = lstsq(D[group], np.hstack([H, T]))
    sol, R = residualize(D.copy(), (H, T), group)
    assert np.allclose(sol.coefficients, want.coefficients, atol=1e-12)
    assert sol.effective_rank == want.effective_rank == 2
    assert np.allclose(R, np.hstack([H, T]) - D[group] @ want.coefficients, atol=1e-12)
    for bad in ([0, 1, 0], [0, 0, 0, 0, 0], [0, 1, 2, 0, 1], [0, -1, 0, 0, 1], [0.0, 1.0, 0.0, 0.0, 1.0]):
        with pytest.raises(ValidationError):
            residualize(D.copy(), H, np.array(bad))
    with pytest.raises(ValidationError, match="differ in row count"):
        residualize(D.copy(), (H, T[:4]), group)


# --- truncated_svd ----------------------------------------------------

def test_truncated_svd_diagonal_by_hand():
    R = np.diag([3.0, 2.0, 1.0])
    basis, s = truncated_svd(R)
    assert np.allclose(basis, np.eye(3), atol=1e-12)
    assert np.allclose(R @ basis[:, :2], [[3, 0], [0, 2], [0, 0]], atol=1e-12)
    assert np.allclose(s, [3, 2, 1], atol=1e-12)  # the whole spectrum


def test_truncated_svd_full_rank_reconstruction():
    rng = np.random.default_rng(6)
    R = rng.standard_normal((10, 6))
    basis, s = truncated_svd(R)
    scores = R @ basis
    assert np.allclose(scores @ basis.T, R, atol=1e-8)
    assert np.allclose(basis.T @ basis, np.eye(6), atol=1e-10)
    # the scores are orthogonal, each with its singular value as norm
    assert np.allclose(scores.T @ scores, np.diag(s**2), atol=1e-8)


def test_truncated_svd_of_a_tall_matrix_taken_in_row_blocks_matches_numpy():
    # 5000 rows of 6 columns are factored 1365 rows at a time; one column repeats another,
    # so the triangular factor is singular
    rng = np.random.default_rng(9)
    R = rng.standard_normal((5000, 6))
    R[:, 5] = R[:, 0]
    basis, s = truncated_svd(R)
    _, want_s, want_vt = np.linalg.svd(R, full_matrices=False)
    assert np.allclose(s, want_s, rtol=1e-12, atol=1e-10)
    assert s[-1] < 1e-10 * s[0]
    for k in range(5):  # the last direction is the null one, identified only by its span
        assert np.allclose(np.abs(basis[:, k] @ want_vt[k]), 1.0, atol=1e-10)


def test_truncated_svd_sign_convention_is_stable():
    rng = np.random.default_rng(7)
    R = rng.standard_normal((8, 5))
    basis_pos, _ = truncated_svd(R)
    basis_neg, _ = truncated_svd(-R)
    for col in range(5):
        pivot = int(np.argmax(np.abs(basis_pos[:, col])))
        assert basis_pos[pivot, col] >= 0.0
        # flipping R flips U, not the pinned V columns
        assert np.allclose(basis_pos[:, col], basis_neg[:, col], atol=1e-10)


def test_truncated_svd_zero_matrix_gives_zero_scores():
    R = np.zeros((4, 3))
    basis, s = truncated_svd(R)
    assert basis.shape == (3, 3)
    assert np.max(np.abs(R @ basis)) == 0.0
    assert np.max(np.abs(s)) == 0.0


@st.composite
def residual_like(draw):
    """A tall, square or wide matrix, some with a repeated column, a zero column or both."""
    d = draw(st.integers(1, 10))
    n = {"tall": draw(st.integers(d + 1, 40)), "square": d, "wide": draw(st.integers(1, d))}[
        draw(st.sampled_from(["tall", "square", "wide"]))
    ]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    R = rng.standard_normal((n, d)) * 10.0 ** draw(st.integers(-3, 3))
    if d > 1 and draw(st.booleans()):
        R[:, d - 1] = R[:, 0]  # repeated
    if draw(st.booleans()):
        R[:, draw(st.integers(0, d - 1))] = 0.0
    return R


def pinned(V):
    V = V.copy()
    pivot = np.argmax(np.abs(V), axis=0)
    V *= np.where(V[pivot, np.arange(V.shape[1])] < 0.0, -1.0, 1.0)
    return V


@settings(max_examples=200, deadline=None)
@given(residual_like())
def test_truncated_svd_equals_the_direct_thin_svd(R):
    basis, s = truncated_svd(R)
    _, s_direct, Vt = np.linalg.svd(R, full_matrices=False)
    direct = pinned(Vt.T)
    m, d = s_direct.size, R.shape[1]
    assert basis.shape == (d, m) and s.shape == (m,)
    scale = max(1.0, float(s_direct[0]))
    assert np.max(np.abs(s - s_direct)) <= 1e-12 * scale
    # a wide R's last direction neighbours its null space's zeros
    neighbours = np.concatenate([[np.inf], s_direct, [0.0 if m < d else -np.inf]])
    gap = np.minimum(neighbours[:-2] - s_direct, s_direct - neighbours[2:])
    for i in np.flatnonzero(gap > 1e-6 * s_direct[0]):
        top = np.sort(np.abs(direct[:, i]))[::-1]
        if top.size > 1 and top[0] - top[1] <= 1e-8:  # tied pivots (a repeated column's null
            # direction) leave the sign free
            assert min(np.max(np.abs(basis[:, i] - sign * direct[:, i])) for sign in (1, -1)) <= 1e-8
        else:
            assert np.max(np.abs(basis[:, i] - direct[:, i])) <= 1e-8


# --- noise_threshold ------------------------------------------------------

def test_noise_threshold_by_hand():
    # square: omega(1) = 0.56 - 0.95 + 1.82 + 1.43 = 2.86 times the median 1
    assert noise_threshold(np.array([10.0, 1.0, 1.0, 1.0]), (4, 4), 1e-9) == pytest.approx(2.86)
    # beta = 1/4: omega = 0.56/64 - 0.95/16 + 1.82/4 + 1.43 times the median 2
    omega = 0.56 / 64 - 0.95 / 16 + 1.82 / 4 + 1.43
    assert noise_threshold(np.array([3.0, 2.0, 1.0]), (12, 3), 0.0) == pytest.approx(2.0 * omega)


def test_noise_threshold_is_the_floor_for_a_noise_free_spectrum():
    # a value at rounding scale means no noise reaches that direction
    s = np.array([5.0, 4.0, 3.0, 1e-15])
    assert noise_threshold(s, (50, 4), 1e-9) == 1e-9
    assert noise_threshold(np.array([]), (0, 4), 1e-9) == 1e-9


def test_noise_threshold_separates_a_low_rank_signal_from_gaussian_noise():
    rng = np.random.default_rng(8)
    n, d = 400, 30
    signal = rng.standard_normal((n, 3)) @ rng.standard_normal((3, d))
    R = signal + 0.1 * rng.standard_normal((n, d))
    _, s = truncated_svd(R)
    assert int(np.sum(s > noise_threshold(s, (n, d), 0.0))) == 3


# --- helpers ----------------------------------------------------------

def test_as_matrix_coercion_and_errors():
    M = as_matrix([[1, 2], [3, 4]], "M")
    assert M.dtype == np.float64 and M.shape == (2, 2)
    with pytest.raises(ValidationError):
        as_matrix([1.0, 2.0], "M")  # 1-D
    with pytest.raises(ValidationError):
        as_matrix(np.zeros((0, 2)), "M")
    with pytest.raises(ValidationError):
        as_matrix([[np.inf]], "M")


def test_max_abs_cross_by_hand():
    A = np.array([[1.0, 0.0], [0.0, 2.0]])
    B = np.array([[0.0, 3.0], [1.0, 0.0]])
    # A.T @ B = [[0, 3], [2, 0]]
    assert max_abs_cross(A, B) == 3.0
    with pytest.raises(ValidationError):
        max_abs_cross(A, np.ones((3, 2)))
