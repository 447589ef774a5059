"""Concept-effect explainers for black-box model outputs.

Three estimators of the effect a single concept edit has on a model's
output vector:

mcce
    Linear surrogate over observed concepts plus pseudo-concepts.
    Embeddings and targets are regressed on the observed one-hot design
    in one solve, the embedding residual is compressed to its singular
    directions above the noise, and the targets are fit on their scores:
    one SVD of the design and one of the residual's triangular factor
    (`linalg.truncated_svd`). Decoupling is exact because the residual
    scores are orthogonal to the observed design. The pseudo features
    stand in for whatever concept information the annotations are
    missing, so effect estimates condition on it instead of absorbing it
    into the observed coefficients.

slearner
    Multinomial logistic regression on observed concepts only, fit to
    the output distributions; effects are differences of predicted
    distributions and live in probability space by construction. The
    Newton steps run on the distinct design rows, each weighted by how
    many samples share it.

approx
    No model at all: pick a row whose visible labels match the requested
    counterfactual and difference the two stored outputs. Ties are broken
    by a multiply-shift of a 64-bit seed per edit. Falls back to minimum
    Hamming distance over visible labels when no exact match exists,
    flagging the estimate.

All three explain a batch of edits in one call: row i of the result is
the effect of setting attribute `attribute[i]` of dataset row `rows[i]`
to level code `to[i]`. approx finds every exact match with two
`np.searchsorted` calls on the profiles that `build_label_index` sorts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .data import (
    SPACE_LOGIT,
    SPACES,
    ConceptSchema,
    Dataset,
    _integers,
    csv_text,
    edit_codes,
    edit_name_columns,
    float_array,
    id_bytes,
    id_text,
    json_field,
    one_hot,
    read_json,
    read_jsonl,
    softmax,
    write_json,
    write_jsonl,
)
from .errors import NumericalError, ValidationError
from .linalg import RANK_RTOL, as_matrix, lstsq, max_abs_cross, noise_threshold, residualize, truncated_svd

TARGET_OUTPUT = "output"
TARGET_GOLD = "gold"

SLEARNER_MAX_ITER = 50
SLEARNER_GRAD_TOL = 1e-7
_MAX_HALVINGS = 50


@dataclass(frozen=True, eq=False)
class Effects:
    """Effect estimates as columns, one row per edit, over `schema`.

    Row i estimates how the outputs move when attribute `attribute[i]` of
    sample `sample_id[i]` goes from level code `from_code[i]` to
    `to_code[i]`; `fallback[i]` flags an approx estimate drawn without an
    exact match. The columns are a `Dataset`'s: `sample_id` holds each
    id's UTF-8 bytes (`id_bytes`: text is encoded), `attribute` indexes
    the schema's attributes and the codes its levels, each as int64.
    Names stand for them only in the effects file (`write_effects`,
    `read_effects`).
    """

    schema: ConceptSchema
    sample_id: np.ndarray
    attribute: np.ndarray
    from_code: np.ndarray
    to_code: np.ndarray
    effect: np.ndarray  # (m, q)
    method: str
    space: str
    fallback: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "sample_id", id_bytes(self.sample_id))
        for name in ("attribute", "from_code", "to_code"):
            object.__setattr__(self, name, _integers(getattr(self, name), f"effect {name}").reshape(-1))
        m = self.sample_id.size
        fallback = np.zeros(m, dtype=bool) if self.fallback is None else self.fallback
        object.__setattr__(self, "fallback", np.asarray(fallback, dtype=bool).reshape(-1))
        effect = np.asarray(self.effect, dtype=np.float64)
        if effect.size == m == 0:
            effect = effect.reshape(0, 0)
        object.__setattr__(self, "effect", effect)
        sizes = {self.attribute.size, self.from_code.size, self.to_code.size, self.fallback.size}
        if self.effect.ndim != 2 or sizes | {self.effect.shape[0]} != {m}:
            raise ValidationError("effect columns need one entry (and one effect row) per estimate")
        attribute, sizes = self.attribute, self.schema.sizes
        if np.any((attribute < 0) | (attribute >= sizes.size)):
            raise ValidationError("effect attributes must index the schema's attributes")
        codes = np.stack([self.from_code, self.to_code])
        if np.any((codes < 0) | (codes >= sizes[attribute])):
            raise ValidationError("effect level codes must index their attribute's levels")

    def __len__(self) -> int:
        return self.sample_id.size

    @classmethod
    def for_pairs(cls, dataset: Dataset, pairs, effect, method: str, space: str, fallback=None):
        """Estimates for the dataset's pairs at index `pairs`, keyed by original id and edit."""
        p = dataset.pairs
        rows, attribute = p.original[pairs], p.attribute[pairs]
        return cls(dataset.schema, dataset.ids[rows], attribute, dataset.codes[rows, attribute],
                   p.to[pairs], effect, method, space, fallback)


# ---------------------------------------------------------------------------
# pseudo-concept explainer


@dataclass(eq=False)
class MCCEModel:
    """Fitted linear surrogate with pseudo-concept features.

    embed_coef maps observed concept vectors to predicted embeddings;
    pseudo_basis holds the embedding residual's kept directions, j >= 0 of
    them; concept_coef and pseudo_coef are the decoupled least-squares
    coefficient blocks.
    """

    schema: ConceptSchema
    hidden_attributes: frozenset[str]
    embed_coef: np.ndarray  # (k_vis, d)
    pseudo_basis: np.ndarray  # (d, j)
    concept_coef: np.ndarray  # (k_vis, q)
    pseudo_coef: np.ndarray  # (j, q)
    n_pseudo: int
    space: str
    target_kind: str
    diagnostics: dict = field(default_factory=dict)

    kind = "mcce"

    @property
    def n_outputs(self) -> int:
        return self.concept_coef.shape[1]

    @property
    def effective_coef(self) -> np.ndarray:
        """(k_vis, q): an edit that changes a row's design by dc moves `predict` by dc @ this.

        The edit also moves the embedding residual by -dc @ embed_coef,
        and so the pseudo-concept scores.
        """
        return self.concept_coef - self.embed_coef @ self.pseudo_basis @ self.pseudo_coef

    def predict(self, concepts: np.ndarray, embeddings: np.ndarray) -> np.ndarray:
        """Surrogate outputs for (m, k_vis) visible designs and (m, d) embeddings."""
        if embeddings.shape[1:] != (self.embed_coef.shape[1],):
            raise ValidationError(
                f"embeddings must have {self.embed_coef.shape[1]} columns, "
                f"got shape {embeddings.shape}"
            )
        resid = embeddings - concepts @ self.embed_coef
        return concepts @ self.concept_coef + (resid @ self.pseudo_basis) @ self.pseudo_coef


def _resolve_targets(dataset: Dataset, rows: np.ndarray, target_kind: str | None):
    kind = target_kind or TARGET_OUTPUT
    if kind == TARGET_OUTPUT:
        return dataset.outputs[rows], kind
    if kind == TARGET_GOLD:
        gold = dataset.gold[rows]
        if np.any(gold < 0):
            raise ValidationError(
                f"predictor mode requires gold labels on every fit sample; {np.sum(gold < 0)} "
                f"missing (first: {id_text(dataset.ids[rows[np.argmin(gold)]]).item()!r})"
            )
        return np.eye(gold.max() + 1)[gold], kind
    raise ValidationError(f"target_kind must be 'output' or 'gold', got {target_kind!r}")


def fit_mcce(
    dataset: Dataset,
    *,
    n_pseudo: int | None = None,
    target_kind: str | None = None,
) -> MCCEModel:
    """Fit the pseudo-concept surrogate on the dataset's factual samples.

    The pseudo-concepts are the r embedding residual directions above its
    noise threshold (`linalg.noise_threshold`, read off the spectrum of
    the residual columns above the rounding floor), or the first n_pseudo
    of those above the floor, with a warning when fewer clear it; none at
    rounding scale is kept, so there may be none. n_pseudo=0 keeps none:
    the regression on the observed concepts alone. Targets default to the
    stored black-box outputs; target_kind="gold" fits one-hot gold labels
    (predictor mode).
    """
    rows = dataset.fit_rows
    if rows.size == 0:
        raise ValidationError("dataset has no factual samples to fit on")
    k_vis = dataset.visible_width
    C = dataset.design_matrix(rows)
    T, kind = _resolve_targets(dataset, rows, target_kind)
    n, d = rows.size, dataset.embeddings.shape[1]
    if d == 0:
        raise ValidationError("the embeddings have no column; mcce needs at least one")
    integral = isinstance(n_pseudo, (int, np.integer)) and type(n_pseudo) is not bool
    if n_pseudo is not None and not (integral and 0 <= n_pseudo <= min(n, d)):
        raise ValidationError(f"n_pseudo must be an integer in [0, {min(n, d)}], got {n_pseudo!r}")

    # the rounding scale is relative to the fit embeddings H's Frobenius norm (SVD-free, within
    # sqrt(d) of the spectral one); [H | T] is H's only copy, and none outlives the solve
    HT = np.hstack([dataset.embeddings[rows], T])
    floor = RANK_RTOL * float(np.linalg.norm(HT[:, :d]))
    observed, residual = residualize(C, HT)
    del HT
    embed_coef, concept_coef = np.hsplit(observed.coefficients, [d])
    basis, s = truncated_svd(residual[:, :d])
    # the residual lies in the n_free-dim complement of the design's columns
    n_free = n - observed.effective_rank
    # a residual column at rounding scale (a constant embedding column, say) adds an exact zero
    # to the spectrum whatever the noise, so the threshold reads the spectrum of the others
    d_live = d - int(np.count_nonzero(np.linalg.norm(residual[:, :d], axis=0) <= floor))
    threshold = noise_threshold(s[: min(n_free, d_live)], (n_free, d_live), floor)
    r = int(np.count_nonzero(s > threshold))
    j = r if n_pseudo is None else min(int(n_pseudo), int(np.count_nonzero(s > floor)))
    if j < r:
        warnings.warn(f"n_pseudo {j} keeps {j} of the {r} embedding residual directions above the "
                      "noise threshold, so the effects may stay biased", stacklevel=2)
    elif n_pseudo is None and threshold > floor and r == min(n_free, d) // 2:  # a median rule's cap
        warnings.warn(f"{r} of the {min(n_free, d)} embedding residual directions rise above the "
                      "noise threshold, the most it keeps: the residual may be mostly signal, so "
                      "some may have been cut (set n_pseudo to keep more)", stacklevel=2)
    elif n_pseudo is not None and j < n_pseudo:
        warnings.warn(f"n_pseudo asks for {n_pseudo} pseudo-concepts but keeps {j}: only {j} "
                      "embedding residual directions rise above the rounding floor", stacklevel=2)
    if n < k_vis + j:
        warnings.warn(f"only {n} fit samples for {k_vis} concepts + {j} pseudo-concepts; "
                      "coefficients will interpolate", stacklevel=2)
    basis, s = basis[:, :j].copy(), s[:j]
    scores = residual[:, :d] @ basis  # orthogonal with norms s (see `linalg`)
    pseudo_coef = scores.T @ T / s[:, None] ** 2
    diagnostics = {
        "n_fit": n,
        "design_rank": observed.effective_rank,
        "orthogonality_max": max_abs_cross(C, scores) if j else 0.0,
        "fit_residual_sos": float(np.sum((residual[:, d:] - scores @ pseudo_coef) ** 2)),
    }
    return MCCEModel(
        schema=dataset.schema,
        hidden_attributes=dataset.hidden_attributes,
        embed_coef=embed_coef,
        pseudo_basis=basis,
        concept_coef=concept_coef,
        pseudo_coef=pseudo_coef,
        n_pseudo=j,
        space=dataset.space,
        target_kind=kind,
        diagnostics=diagnostics,
    )


def _edits(dataset: Dataset, rows, attribute, to) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, attribute, to) as flat int64 arrays, broadcast and checked against the dataset.

    Edit i sets attribute index `attribute[i]` of row `rows[i]` to level code `to[i]`.
    """
    columns = [np.asarray(v) for v in (rows, attribute, to)]
    if any(column.size and column.dtype.kind not in "iu" for column in columns):
        raise ValidationError("rows, attribute indices and level codes must be integers")
    rows, attribute, to = (np.ravel(c).astype(np.int64) for c in np.broadcast_arrays(*columns))
    sizes = dataset.schema.sizes
    if np.any((attribute < 0) | (attribute >= sizes.size)):
        raise ValidationError(f"unknown attribute index in {np.unique(attribute).tolist()}")
    if np.any((to < 0) | (to >= sizes[attribute])):
        raise ValidationError("edit sets a level code out of range for its attribute")
    if np.any((rows < 0) | (rows >= len(dataset))):
        raise ValidationError(f"edit rows must be in [0, {len(dataset)})")
    return rows, attribute, to


# Edits that `explain_mcce` and `explain_slearner` take at a time, so their
# (m x d) and (m x k) temporaries stay bounded. A power of two: BLAS kernels
# work on aligned groups of rows, and blocks that start on such a boundary
# give each row the bits that one product of every row gives it (blocks of
# 333 rows, say, move some effects in the last bit).
_EDIT_BLOCK = 4096


def _edit_effects(model, dataset: Dataset, rows, attribute, to, effect) -> np.ndarray:
    """(m, q): `effect(rows, design)` of each block of `_EDIT_BLOCK` edits, stacked in order.

    The edits are as `_edits` takes them, and `design` is the model's
    visible one-hot design of each row after its edit. The dataset must
    have the model's schema and be in the space the model was fit in.
    """
    schema = model.schema
    if schema != dataset.schema:
        raise ValidationError("model and dataset schemas differ")
    if model.space != dataset.space:
        raise ValidationError(
            f"model was fit in {model.space!r} space but the dataset is in "
            f"{dataset.space!r} space"
        )
    rows, attribute, to = _edits(dataset, rows, attribute, to)
    hidden = ~schema.visible_mask(model.hidden_attributes)[attribute]
    if hidden.any():
        name = schema.names[attribute[np.argmax(hidden)]]
        raise ValidationError(f"attribute {name!r} is hidden for this model")

    def block_effect(block: slice) -> np.ndarray:
        codes = dataset.codes[rows[block]]
        codes[np.arange(len(codes)), attribute[block]] = to[block]
        return effect(rows[block], one_hot(schema, codes, model.hidden_attributes))

    first = block_effect(slice(0, _EDIT_BLOCK))
    if rows.size <= _EDIT_BLOCK:
        return first
    out = np.empty((rows.size, first.shape[1]))
    out[:_EDIT_BLOCK] = first
    for start in range(_EDIT_BLOCK, rows.size, _EDIT_BLOCK):
        block = slice(start, start + _EDIT_BLOCK)
        out[block] = block_effect(block)
    return out


def explain_mcce(model: MCCEModel, dataset: Dataset, rows, attribute, to) -> np.ndarray:
    """Surrogate output at each edited encoding minus the row's stored output; (m, q)."""

    def effect(rows: np.ndarray, C: np.ndarray) -> np.ndarray:
        return model.predict(C, dataset.embeddings[rows]) - dataset.outputs[rows]

    return _edit_effects(model, dataset, rows, attribute, to, effect)


# ---------------------------------------------------------------------------
# s-learner baseline


@dataclass(eq=False)
class SLearnerModel:
    """Multinomial logistic regression on the observed one-hot design.

    `converged` is False when the fit stopped before the gradient
    max-norm (`grad_norm`, at the returned weights) fell below
    SLEARNER_GRAD_TOL.
    """

    schema: ConceptSchema
    hidden_attributes: frozenset[str]
    weights: np.ndarray  # (k_vis, q)
    bias: np.ndarray  # (q,)
    space: str  # of the dataset the model was fit on; the file key is "input_space"
    iterations: int
    final_loss: float
    converged: bool
    grad_norm: float

    kind = "slearner"

    def predict_proba(self, concepts: np.ndarray) -> np.ndarray:
        """Predicted distributions for (m, k_vis) visible designs."""
        return softmax(concepts @ self.weights + self.bias)


def _visible_profiles(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """(profiles, stride): each row's visible level codes as one mixed-radix integer.

    `stride[a]` is attribute a's place value, 0 if it is hidden. Profiles
    are int64 while every one fits, and Python ints (object dtype)
    otherwise, so any number of attributes and levels keys exactly.
    """
    schema = dataset.schema
    visible = schema.visible_mask(dataset.hidden_attributes)
    stride, span = [0] * visible.size, 1
    for a in reversed(np.flatnonzero(visible).tolist()):
        stride[a], span = span, span * int(schema.sizes[a])
    dtype = np.int64 if span <= 1 << 63 else object
    stride = np.array(stride, dtype=dtype)
    return dataset.codes.astype(dtype) @ stride, stride


def _cross_entropy(Xa: np.ndarray, Wa: np.ndarray, Y: np.ndarray) -> float:
    """Soft-label cross-entropy of softmax(Xa @ Wa) against Y, each row's targets over n."""
    shifted = Xa @ Wa
    shifted -= shifted.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-np.sum(Y * log_probs))


def _softmax_hessian(Xa: np.ndarray, P: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Hessian of the cross-entropy in the class-major vec of the weights.

    Row g of Xa carries `weight[g]` of the loss. Block (c, d) is the small
    Gram matrix Xa' diag(weight p_c (delta_cd - p_d)) Xa; the per-sample
    Kronecker products are never formed.
    """
    m, q = Xa.shape[1], P.shape[1]
    H = np.empty((q, m, q, m))
    for c in range(q):
        for d in range(c, q):
            w = weight * P[:, c] * (float(c == d) - P[:, d])
            H[c, :, d] = H[d, :, c] = (Xa * w[:, None]).T @ Xa
    return H.reshape(q * m, q * m)


def fit_slearner(dataset: Dataset) -> SLearnerModel:
    """Fit the logistic baseline on the dataset's factual samples.

    Minimises the soft-label cross-entropy by Newton's method on the
    augmented design [X | 1], from zero weights. Samples with the same
    visible labels share a design row, so the loss, gradient and Hessian
    are taken over the distinct rows, each with its count and the sum of
    its samples' targets. The Hessian is singular by construction (each
    one-hot block sums to the bias column, and softmax ignores a shift
    shared by all classes), so every step is the minimum-norm
    least-squares solution; the iterates then stay in the span that
    gradient descent from zero would explore. A step is halved while it
    raises the loss. The fit stops when the gradient max-norm drops below
    SLEARNER_GRAD_TOL and otherwise after SLEARNER_MAX_ITER steps, with a
    warning and `converged=False`. Logit-space outputs are softmaxed
    before fitting; probability-space outputs must already be probability
    rows.
    """
    rows = dataset.fit_rows
    if rows.size == 0:
        raise ValidationError("dataset has no factual samples to fit on")
    T = dataset.outputs[rows]
    if dataset.space == SPACE_LOGIT:
        T = softmax(T)
    if T.shape[1] < 2:
        raise ValidationError("logistic baseline needs at least 2 output classes")
    if np.any(T < -1e-12) or np.max(np.abs(T.sum(axis=1) - 1.0)) > 1e-6:
        raise ValidationError("targets are not probability rows (tol 1e-6)")

    n, q = T.shape
    key = _visible_profiles(dataset)[0][rows]
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    group = group.reshape(-1)
    weight, Y = np.bincount(group) / n, np.zeros((first.size, q))
    np.add.at(Y, group, T / n)
    X = dataset.design_matrix(rows[first])
    k = X.shape[1]
    Xa = np.hstack([X, np.ones((first.size, 1))])
    Wa = np.zeros((k + 1, q))
    loss = _cross_entropy(Xa, Wa, Y)
    iterations = 0
    while True:
        P = softmax(Xa @ Wa)
        G = Xa.T @ (weight[:, None] * P - Y)
        grad_norm = float(np.max(np.abs(G)))
        converged = grad_norm < SLEARNER_GRAD_TOL
        if converged or iterations == SLEARNER_MAX_ITER:
            break
        H = _softmax_hessian(Xa, P, weight)
        step = lstsq(H, G.T.reshape(-1, 1)).coefficients.reshape(q, k + 1).T
        # The slack absorbs rounding in the loss, so a step that only
        # reaches the rounding floor is not mistaken for a rise.
        slack = 1e-13 * max(1.0, abs(loss))
        for _ in range(_MAX_HALVINGS):
            trial_loss = _cross_entropy(Xa, Wa - step, Y)
            if trial_loss <= loss + slack:
                Wa, loss = Wa - step, trial_loss
                iterations += 1
                break
            step = step / 2
        else:
            break  # no halving descends: the fit has stalled
    if not converged:
        warnings.warn(
            f"S-Learner fit stopped after {iterations} Newton steps (cap "
            f"{SLEARNER_MAX_ITER}) with gradient max-norm {grad_norm:.3e}, "
            f"tolerance {SLEARNER_GRAD_TOL:.0e}",
            stacklevel=2,
        )
    return SLearnerModel(
        schema=dataset.schema,
        hidden_attributes=dataset.hidden_attributes,
        weights=Wa[:k].copy(),
        bias=Wa[k].copy(),
        space=dataset.space,
        iterations=iterations,
        final_loss=loss,
        converged=converged,
        grad_norm=grad_norm,
    )


def explain_slearner(model: SLearnerModel, dataset: Dataset, rows, attribute, to) -> np.ndarray:
    """Predicted distribution at each edited encoding minus the row's output distribution.

    The dataset must be in the space the model was fit in; logit-space
    outputs are softmaxed to form the baseline. Effects are in
    probability space.
    """

    def effect(rows: np.ndarray, C: np.ndarray) -> np.ndarray:
        baseline = dataset.outputs[rows]
        if model.space == SPACE_LOGIT:
            baseline = softmax(baseline)
        return model.predict_proba(C) - baseline

    return _edit_effects(model, dataset, rows, attribute, to, effect)


# ---------------------------------------------------------------------------
# approximate-counterfactual baseline


class ApproxEffects(NamedTuple):
    """approx estimates of a batch of edits; row i of each column is edit i's."""

    effect: np.ndarray  # (m, q)
    flags: np.ndarray  # (m,) bool: no row matched exactly; the nearest rows were used

    @property
    def fallback(self) -> int:
        """The number of flagged estimates."""
        return int(np.count_nonzero(self.flags))


def build_label_index(dataset: Dataset) -> tuple[np.ndarray, ...]:
    """(profiles, order, row_profiles, stride): what `explain_approx` needs that no edit changes.

    `row_profiles` and `stride` are `_visible_profiles`; `profiles` sorts
    them, and `order` is the row of each sorted profile, stable, so rows
    that share one stay in row order. Setting attribute a of row r to
    code t moves its profile by `stride[a] * (t - codes[r, a])`; a hidden
    attribute has stride 0, so an edit of it keeps the row's profile.
    """
    row_profiles, stride = _visible_profiles(dataset)
    order = np.argsort(row_profiles, kind="stable")
    return row_profiles[order], order, row_profiles, stride


def _multiply_shift(seeds: np.ndarray, count: np.ndarray) -> np.ndarray:
    """`(seeds * count) >> 64`, exact in uint64 for counts below 2**32 (a count is a number of rows).

    The constants are np.uint64: numpy before 2.0 turns a uint64 operand
    with a Python int into float64.
    """
    half, count = np.uint64(32), np.asarray(count, dtype=np.uint64)
    high = (seeds >> half) * count + ((seeds & np.uint64(0xFFFFFFFF)) * count >> half)
    return (high >> half).astype(np.int64)


def explain_approx(
    dataset: Dataset, rows, attribute, to, seeds, index: tuple | None = None
) -> ApproxEffects:
    """Stored output of a row whose visible labels match each edit, minus the edited row's.

    The edits are as `explain_mcce` takes them; `seeds` broadcasts with
    them, one integer in [0, 2**64) per edit. Edit i's target is row
    `rows[i]`'s visible labels after the edit (a hidden attribute cannot
    enter the profile, so the target degrades to the visible labels).
    The candidates are the rows that match it exactly, found by two
    `np.searchsorted` calls on the profiles of `index` (the dataset's
    `build_label_index`, built here when not given); where none does,
    they are the rows closest by Hamming distance over visible labels,
    and the estimate is flagged. Of the `count` candidates, in row
    order, edit i takes the one at `(seeds[i] * count) >> 64`: a
    multiply-shift (Lemire 2019, "Fast random integer generation in an
    interval") that is uniform up to a bias of count / 2**64 and seeds
    no generator.
    """
    # a list keeps its Python ints exact as objects; numpy would make [1, 2**63] float64
    seeds = seeds if isinstance(seeds, np.ndarray) else np.asarray(seeds, dtype=object)
    if seeds.dtype == object:
        exact = all(isinstance(s, (int, np.integer)) and 0 <= int(s) < 2**64 for s in seeds.flat)
    else:
        exact = seeds.dtype.kind in "iu" and not (seeds.size and seeds.min() < 0)
    if not exact:
        raise ValidationError("approx seeds must be integers in [0, 2**64)")
    try:
        *edits, seeds = np.broadcast_arrays(rows, attribute, to, seeds.astype(np.uint64))
    except ValueError:
        raise ValidationError("approx needs edits and seeds that broadcast") from None
    rows, attribute, to = _edits(dataset, *edits)
    seeds = seeds.reshape(-1)
    if index is None:
        index = build_label_index(dataset)
    profiles, candidates, row_profiles, stride = index
    key = row_profiles[rows] + stride[attribute] * (to - dataset.codes[rows, attribute])
    start = np.searchsorted(profiles, key)
    count = np.searchsorted(profiles, key, "right") - start
    flags = count == 0
    choice = candidates[np.where(flags, 0, start + _multiply_shift(seeds, count))]
    visible = dataset.schema.visible_mask(dataset.hidden_attributes)
    for i in np.flatnonzero(flags):
        target = np.where(np.arange(visible.size) == attribute[i], to[i], dataset.codes[rows[i]])
        distance = np.count_nonzero((dataset.codes != target)[:, visible], axis=1)
        nearest = np.flatnonzero(distance == distance.min())
        choice[i] = nearest[_multiply_shift(seeds[i], nearest.size)]
    return ApproxEffects(dataset.outputs[choice] - dataset.outputs[rows], flags)


# ---------------------------------------------------------------------------
# global report and predictor mode


@dataclass(frozen=True, eq=False)
class CoefficientReport:
    """Per-(attribute, level) coefficient contrasts against a baseline class."""

    baseline_class: int
    n_classes: int
    attributes: tuple[str, ...]
    levels: tuple[str, ...]
    contrasts: np.ndarray  # (n_rows, n_classes), one row per (attribute, level)

    def to_csv(self) -> str:
        classes = [f"class_{c}" for c in range(self.n_classes)] if len(self.contrasts) else []
        rows = zip(self.attributes, self.levels, self.contrasts.tolist())
        return csv_text(["attribute", "level"] + classes, ([a, l, *row] for a, l, row in rows))


def global_report(model: MCCEModel, baseline_class: int) -> CoefficientReport:
    """Contrasts of the model's `effective_coef` B against one output class.

    Each row is B[level, class] - B[level, baseline_class]; the baseline
    column is identically zero. Unlike `concept_coef` alone, B agrees
    with the local effects: an edit from level l to l' moves the
    surrogate by B[l'] - B[l]. A single-class model has no contrasts and
    yields an empty report.
    """
    if not isinstance(model, MCCEModel):
        raise ValidationError("global report requires a pseudo-concept (mcce) model")
    q = model.n_outputs
    if not isinstance(baseline_class, (int, np.integer)) or not 0 <= int(baseline_class) < q:
        raise ValidationError(f"baseline_class must be in [0, {q}), got {baseline_class!r}")
    b = int(baseline_class)
    if q == 1:
        return CoefficientReport(b, q, (), (), np.zeros((0, q)))
    schema, coef = model.schema, model.effective_coef
    rows = [
        (name, level)
        for name in schema.visible_names(model.hidden_attributes)
        for level in schema.levels(name)
    ]
    attributes, levels = zip(*rows)
    return CoefficientReport(b, q, attributes, levels, coef - coef[:, [b]])


def predict_labels(model: MCCEModel, dataset: Dataset) -> np.ndarray:
    """Argmax of the predictor-mode surrogate over every sample; ties pick the lowest class.

    Raises NumericalError when a surrogate output is not finite.
    """
    if not isinstance(model, MCCEModel):
        raise ValidationError("label prediction requires a pseudo-concept (mcce) model")
    if model.target_kind != TARGET_GOLD:
        raise ValidationError("model was not fitted in predictor mode (gold targets)")
    if model.schema != dataset.schema:
        raise ValidationError("model and dataset schemas differ")
    if model.hidden_attributes != dataset.hidden_attributes:
        raise ValidationError("model and dataset hidden-attribute masks differ")
    if len(dataset) == 0:
        raise ValidationError("cannot predict on an empty dataset")
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        scores = model.predict(dataset.design_matrix(), dataset.embeddings)
    bad = ~np.isfinite(scores).all(axis=1)
    if bad.any():
        raise NumericalError(
            f"{int(bad.sum())} of {len(dataset)} surrogate outputs are not finite "
            f"(first: sample {id_text(dataset.ids[np.argmax(bad)]).item()!r})"
        )
    return np.argmax(scores, axis=1)


# ---------------------------------------------------------------------------
# model and effect serialization


def save_model(model: MCCEModel | SLearnerModel, path: str | Path) -> Path:
    """Write a model as one JSON document; floats round-trip bit-exactly."""
    if not isinstance(model, (MCCEModel, SLearnerModel)):
        raise ValidationError(f"cannot serialize model of type {type(model).__name__}")
    obj = {"kind": model.kind, "schema": model.schema.to_obj(), "hidden": sorted(model.hidden_attributes)}
    if isinstance(model, MCCEModel):
        obj.update(
            space=model.space,
            target_kind=model.target_kind,
            n_pseudo=model.n_pseudo,
            embed_coef=model.embed_coef.tolist(),
            pseudo_basis=model.pseudo_basis.tolist(),
            concept_coef=model.concept_coef.tolist(),
            pseudo_coef=model.pseudo_coef.tolist(),
            diagnostics=model.diagnostics,
        )
    else:
        obj.update(
            input_space=model.space,
            weights=model.weights.tolist(),
            bias=model.bias.tolist(),
            iterations=model.iterations,
            final_loss=model.final_loss,
            converged=model.converged,
            grad_norm=model.grad_norm,
        )
    return write_json(path, obj)


def load_model(path: str | Path) -> MCCEModel | SLearnerModel:
    obj = read_json(path, "model")
    kind = obj.get("kind")
    if kind not in ("mcce", "slearner"):
        raise ValidationError(f"{path}: unknown model kind {kind!r}")

    def matrix(key: str) -> np.ndarray:
        return as_matrix(float_array(obj[key], f"{path}: {key!r}"), key)

    try:
        hidden = json_field(obj, "hidden", "strings", path)
        try:
            schema = ConceptSchema.from_obj(obj["schema"])
            hidden = schema.check_hidden(hidden)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None
        if kind == "mcce":
            # older files carry a ridge key; mcce solves by minimum-norm least squares only
            if json_field(obj, "ridge", "number", path, default=0.0) != 0.0:
                raise ValidationError(f"{path}: 'ridge' must be 0, the only solve mcce fits or reads")
            k_vis = schema.visible_width(hidden)
            j = json_field(obj, "n_pseudo", "integer", path)
            embed_coef, concept_coef = matrix("embed_coef"), matrix("concept_coef")

            def pseudo(key: str, shape: tuple[int, int]) -> np.ndarray:  # `shape` when j is 0
                return matrix(key) if j else np.reshape(float_array(obj[key], f"{path}: {key!r}"), shape)

            model = MCCEModel(
                schema=schema,
                hidden_attributes=hidden,
                embed_coef=embed_coef,
                pseudo_basis=pseudo("pseudo_basis", (embed_coef.shape[1], 0)),
                concept_coef=concept_coef,
                pseudo_coef=pseudo("pseudo_coef", (0, concept_coef.shape[1])),
                n_pseudo=j,
                space=json_field(obj, "space", "string", path),
                target_kind=json_field(obj, "target_kind", "string", path),
                diagnostics=json_field(obj, "diagnostics", "object", path),
            )
            if model.embed_coef.shape[0] != k_vis or model.concept_coef.shape[0] != k_vis:
                raise ValidationError("coefficient rows do not match the schema/mask width")
            if model.pseudo_basis.shape != (model.embed_coef.shape[1], model.n_pseudo):
                raise ValidationError("pseudo basis shape does not match n_pseudo")
            if model.pseudo_coef.shape[0] != model.n_pseudo:
                raise ValidationError("pseudo coefficient rows do not match n_pseudo")
            if model.concept_coef.shape[1] != model.pseudo_coef.shape[1]:
                raise ValidationError("coefficient blocks disagree on output width")
            return model
        weights = matrix("weights")
        bias = float_array(obj["bias"], f"{path}: 'bias'")
        if weights.shape[0] != schema.visible_width(hidden):
            raise ValidationError("weight rows do not match the schema/mask width")
        if bias.shape != (weights.shape[1],):
            raise ValidationError("bias length does not match weight columns")
        return SLearnerModel(
            schema=schema,
            hidden_attributes=hidden,
            weights=weights,
            bias=bias,
            space=json_field(obj, "input_space", "string", path),
            iterations=json_field(obj, "iterations", "integer", path),
            final_loss=json_field(obj, "final_loss", "number", path),
            converged=json_field(obj, "converged", "boolean", path),
            grad_norm=json_field(obj, "grad_norm", "number", path),
        )
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:  # ValueError: ragged matrices, bad scalars
        raise ValidationError(f"{path}: malformed model document ({exc})") from exc


# The JSON types of an effects row's values. A file may leave out
# `fallback`, which then reads as false.
_EFFECT_TYPES = {
    **dict.fromkeys(("sample_id", "attribute", "from", "to"), "string"), "fallback": "boolean",
}


def write_effects(path: str | Path, effects: Effects, metadata: dict) -> Path:
    """Write effect estimates as a JSONL table and their effects as a .npy file beside it.

    The meta line holds `metadata` with the estimates' `method` and
    `space`, which no estimate's line repeats. The columns are
    `sample_id`, and `attribute`, `from` and `to`, which name the edit
    in the effects' schema a chunk of rows at a time
    (`edit_name_columns`), and `fallback` when an estimate is flagged:
    one line per estimate. The (m, q) effect matrix goes to
    `<name>.effect.npy`, which the meta line names under `effect`.
    Non-finite effects raise NumericalError and write nothing.
    """
    bad = ~np.isfinite(effects.effect).all(axis=1)
    if bad.any():
        raise NumericalError(
            f"{int(bad.sum())} of {len(effects)} effect estimates are not finite "
            f"(first: sample {id_text(effects.sample_id[np.argmax(bad)]).item()!r}); not writing {path}"
        )
    columns = {
        "sample_id": effects.sample_id,
        **edit_name_columns(effects.schema, effects.attribute, effects.from_code, effects.to_code),
    }
    if effects.fallback.any():
        columns["fallback"] = effects.fallback
    meta = {**metadata, "method": effects.method, "space": effects.space}
    return write_jsonl(path, columns, meta, arrays={"effect": effects.effect})


def read_effects(path: str | Path, schema: ConceptSchema) -> tuple[Effects, dict]:
    """Read an effects file and its effect matrix, as `write_effects` writes them, over `schema`.

    Line 1 is the meta line. Its `method`, a string, and its `space`,
    one of `SPACES`, are required and are every estimate's. Its `hidden`,
    when present, must be a list of the schema's attribute names, and its
    `seed` an integer or null. The metadata returned is the meta line
    without its `columns` and `effect` file name. Each chunk's sample ids
    become UTF-8 bytes and its edits' names codes (`edit_codes`) as it is
    read, as `load_dataset`'s do, so an attribute or level that the
    schema lacks is an error at its line.
    """

    def codes(chunk: dict) -> dict:
        chunk["sample_id"] = id_bytes(chunk["sample_id"])
        chunk["attribute"], chunk["from"], chunk["to"] = edit_codes(
            schema, chunk["attribute"], chunk["from"], chunk["to"]
        )
        return chunk

    metadata, columns = read_jsonl(
        path, "effects", _EFFECT_TYPES, {"fallback": False}, codes, ("effect",)
    )
    meta = {f"meta.{key}": value for key, value in metadata.items()}  # keys as errors name them
    where = f"{path}:1"
    hidden = json_field(meta, "meta.hidden", "strings", where, [])
    try:
        schema.check_hidden(hidden)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None
    json_field(meta, "meta.seed", "integer|null", where, None)
    method = json_field(meta, "meta.method", "string", where)
    space = json_field(meta, "meta.space", "string", where)
    if space not in SPACES:
        raise ValidationError(f"{where}: 'meta.space' must be one of {SPACES}, got {space!r}")
    edits = (columns[key] for key in ("sample_id", "attribute", "from", "to"))
    return Effects(schema, *edits, columns["effect"], method, space, columns["fallback"]), metadata
