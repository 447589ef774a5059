"""Concept-effect explainers for black-box model outputs.

Three estimators of the effect a single concept edit has on a model's
output vector:

mcce
    Linear surrogate over observed concepts plus pseudo-concepts.
    Embeddings are residualized against the observed one-hot design, the
    residual is compressed to its top-j right singular directions, and
    the targets are fit by two decoupled minimum-norm least squares (one
    per feature group). Decoupling is exact at ridge 0 because the
    residual scores are orthogonal to the observed design. The pseudo
    features stand in for whatever concept information the annotations
    are missing, so effect estimates condition on it instead of
    absorbing it into the observed coefficients.

slearner
    Multinomial logistic regression on observed concepts only, fit to
    the output distributions; effects are differences of predicted
    distributions and live in probability space by construction.

approx
    No model at all: sample (seeded) a row whose visible labels match
    the requested counterfactual and difference the two stored outputs.
    Falls back to minimum Hamming distance over visible labels when no
    exact match exists, flagging the estimate.

mcce and slearner explain a batch of edits in one call: row i of the
result is the effect of setting attribute `attribute[i]` of dataset row
`rows[i]` to level code `to[i]`. approx draws from a seeded stream per
edit, so it explains one edit per call; the work that no edit changes is
done once per run by `build_label_index`, and `seeded_index` keeps each
seed's first draw, so runs that share pair seeds seed each stream once.
"""

from __future__ import annotations

import functools
import operator
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .data import (
    SPACE_LOGIT,
    ConceptSchema,
    Dataset,
    csv_text,
    float_array,
    json_field,
    one_hot,
    read_json,
    read_jsonl,
    softmax,
    write_json,
    write_jsonl,
)
from .errors import NumericalError, ValidationError
from .linalg import RANK_RTOL, as_matrix, lstsq, max_abs_cross, residualize, truncated_svd

TARGET_OUTPUT = "output"
TARGET_GOLD = "gold"

SLEARNER_MAX_ITER = 50
SLEARNER_GRAD_TOL = 1e-7
_MAX_HALVINGS = 50


@dataclass(frozen=True, eq=False)
class Effects:
    """Effect estimates as columns, one row per edit.

    Row i estimates how the outputs move when attribute `attribute[i]` of
    sample `sample_id[i]` goes from `from_level[i]` to `to_level[i]`;
    `fallback[i]` flags an approx estimate drawn without an exact match.
    """

    sample_id: np.ndarray
    attribute: np.ndarray
    from_level: np.ndarray
    to_level: np.ndarray
    effect: np.ndarray  # (m, q)
    method: str | None
    space: str | None
    fallback: np.ndarray | None = None

    def __post_init__(self):
        for name in ("sample_id", "attribute", "from_level", "to_level"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=str).reshape(-1))
        m = self.sample_id.size
        fallback = np.zeros(m, dtype=bool) if self.fallback is None else self.fallback
        object.__setattr__(self, "fallback", np.asarray(fallback, dtype=bool).reshape(-1))
        effect = np.asarray(self.effect, dtype=np.float64)
        if effect.size == m == 0:
            effect = effect.reshape(0, 0)
        object.__setattr__(self, "effect", effect)
        sizes = {self.attribute.size, self.from_level.size, self.to_level.size, self.fallback.size}
        if self.effect.ndim != 2 or sizes | {self.effect.shape[0]} != {m}:
            raise ValidationError("effect columns need one entry (and one effect row) per estimate")

    def __len__(self) -> int:
        return self.sample_id.size

    @classmethod
    def for_pairs(cls, dataset: Dataset, pairs, effect, method: str, space: str, fallback=None):
        """Estimates for the dataset's pairs at index `pairs`, keyed by their names."""
        return cls(*dataset.pair_names(pairs), effect, method, space, fallback)


# ---------------------------------------------------------------------------
# pseudo-concept explainer


@dataclass(eq=False)
class MCCEModel:
    """Fitted linear surrogate with pseudo-concept features.

    embed_coef maps observed concept vectors to predicted embeddings;
    pseudo_basis spans the embedding residual; concept_coef and
    pseudo_coef are the decoupled least-squares coefficient blocks.
    """

    schema: ConceptSchema
    hidden_attributes: frozenset[str]
    embed_coef: np.ndarray  # (k_vis, d)
    pseudo_basis: np.ndarray  # (d, j)
    concept_coef: np.ndarray  # (k_vis, q)
    pseudo_coef: np.ndarray  # (j, q)
    ridge: float
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


def _resolve_targets(dataset: Dataset, rows: np.ndarray, target_kind: str | None, targets):
    if targets is not None:
        T = as_matrix(targets, "targets")
        if T.shape[0] != rows.size:
            raise ValidationError(
                f"targets must have one row per fit sample ({rows.size}), got {T.shape[0]}"
            )
        return T, target_kind or "custom"
    kind = target_kind or TARGET_OUTPUT
    if kind == TARGET_OUTPUT:
        return dataset.outputs[rows], kind
    if kind == TARGET_GOLD:
        gold = dataset.gold[rows]
        if np.any(gold < 0):
            raise ValidationError(
                f"predictor mode requires gold labels on every fit sample; {np.sum(gold < 0)} "
                f"missing (first: {str(dataset.ids[rows[np.argmin(gold)]])!r})"
            )
        return np.eye(gold.max() + 1)[gold], kind
    raise ValidationError(f"target_kind must be 'output' or 'gold', got {target_kind!r}")


def fit_mcce(
    dataset: Dataset,
    *,
    n_pseudo: int | None = None,
    ridge: float = 0.0,
    target_kind: str | None = None,
    targets=None,
) -> MCCEModel:
    """Fit the pseudo-concept surrogate on the dataset's factual samples.

    n_pseudo defaults to the visible one-hot width. Targets default to
    the stored black-box outputs; target_kind="gold" fits one-hot gold
    labels instead (predictor mode). Explicit `targets` rows must align
    with `dataset.fit_rows`.
    """
    rows = dataset.fit_rows
    if rows.size == 0:
        raise ValidationError("dataset has no factual samples to fit on")
    k_vis = dataset.visible_width
    C = dataset.design_matrix(rows)
    H = dataset.embeddings[rows]
    T, kind = _resolve_targets(dataset, rows, target_kind, targets)
    n, d = H.shape
    j = k_vis if n_pseudo is None else n_pseudo
    if not isinstance(j, (int, np.integer)) or not 1 <= int(j) <= min(n, d):
        raise ValidationError(
            f"n_pseudo must be an integer in [1, {min(n, d)}], got {n_pseudo!r}"
        )
    j = int(j)
    if n < k_vis + j:
        warnings.warn(
            f"only {n} fit samples for {k_vis} concepts + {j} pseudo-concepts; "
            "coefficients will interpolate",
            stacklevel=2,
        )

    embed_coef, residual = residualize(C, H, ridge)
    # Residual directions at rounding-error scale relative to H itself are
    # artifacts of the solve, not structure; keeping them would mean
    # inverting noise. Zeroed columns drop out of every later product.
    noise_floor = RANK_RTOL * float(np.linalg.norm(H, 2)) if H.size else 0.0
    basis, scores = truncated_svd(residual, j, floor=noise_floor)
    sol_ob = lstsq(C, T, ridge)
    sol_ps = lstsq(scores, T, ridge)
    fitted = C @ sol_ob.coefficients + scores @ sol_ps.coefficients
    diagnostics = {
        "n_fit": n,
        "design_rank": sol_ob.effective_rank,
        "pseudo_rank": sol_ps.effective_rank,
        "pseudo_dropped": int(np.sum(~basis.any(axis=0))),
        "orthogonality_max": max_abs_cross(C, scores),
        "fit_residual_sos": float(np.sum((T - fitted) ** 2)),
    }
    return MCCEModel(
        schema=dataset.schema,
        hidden_attributes=dataset.hidden_attributes,
        embed_coef=embed_coef,
        pseudo_basis=basis,
        concept_coef=sol_ob.coefficients,
        pseudo_coef=sol_ps.coefficients,
        ridge=float(ridge),
        n_pseudo=j,
        space=dataset.space,
        target_kind=kind,
        diagnostics=diagnostics,
    )


def _edited_design(model, dataset: Dataset, rows, attribute, to):
    """(rows, design): the model's visible one-hot design of each row after its edit.

    Edit i sets attribute index `attribute[i]` of row `rows[i]` to level
    code `to[i]`; the three arguments broadcast. The dataset must have
    the model's schema and be in the space the model was fit in.
    """
    edits = np.broadcast_arrays(*(np.asarray(v, dtype=np.int64) for v in (rows, attribute, to)))
    rows, attribute, to = (np.ravel(column) for column in edits)
    schema = model.schema
    if schema != dataset.schema:
        raise ValidationError("model and dataset schemas differ")
    if model.space != dataset.space:
        raise ValidationError(
            f"model was fit in {model.space!r} space but the dataset is in "
            f"{dataset.space!r} space"
        )
    if np.any((attribute < 0) | (attribute >= len(schema.names))):
        raise ValidationError(f"unknown attribute index in {np.unique(attribute).tolist()}")
    hidden = ~schema.visible_mask(model.hidden_attributes)[attribute]
    if hidden.any():
        name = schema.names[attribute[np.argmax(hidden)]]
        raise ValidationError(f"attribute {name!r} is hidden for this model")
    if np.any((to < 0) | (to >= schema.sizes[attribute])):
        raise ValidationError("edit sets a level code out of range for its attribute")
    codes = dataset.codes[rows]
    codes[np.arange(rows.size), attribute] = to
    return rows, one_hot(schema, codes, model.hidden_attributes)


def explain_mcce(model: MCCEModel, dataset: Dataset, rows, attribute, to) -> np.ndarray:
    """Surrogate output at each edited encoding minus the row's stored output; (m, q)."""
    rows, C = _edited_design(model, dataset, rows, attribute, to)
    return model.predict(C, dataset.embeddings[rows]) - dataset.outputs[rows]


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


def _cross_entropy(Xa: np.ndarray, Wa: np.ndarray, T: np.ndarray) -> float:
    """Mean soft-label cross-entropy of softmax(Xa @ Wa) against T."""
    shifted = Xa @ Wa
    shifted -= shifted.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-np.mean(np.sum(T * log_probs, axis=1)))


def _softmax_hessian(Xa: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Hessian of the mean cross-entropy in the class-major vec of the weights.

    Block (c, d) is Xa' diag(p_c (delta_cd - p_d)) Xa / n. Each block is
    one small weighted Gram matrix; the per-sample Kronecker products are
    never formed.
    """
    n, m = Xa.shape
    q = P.shape[1]
    H = np.empty((q * m, q * m))
    for c in range(q):
        for d in range(c, q):
            w = P[:, c] * (float(c == d) - P[:, d]) / n
            block = (Xa * w[:, None]).T @ Xa
            H[c * m : (c + 1) * m, d * m : (d + 1) * m] = block
            H[d * m : (d + 1) * m, c * m : (c + 1) * m] = block
    return H


def fit_slearner(dataset: Dataset, targets=None) -> SLearnerModel:
    """Fit the logistic baseline on the dataset's factual samples.

    Minimises the soft-label cross-entropy by Newton's method on the
    augmented design [X | 1], from zero weights. The Hessian is singular
    by construction (each one-hot block sums to the bias column, and
    softmax ignores a shift shared by all classes), so every step is the
    minimum-norm least-squares solution; the iterates then stay in the
    span that gradient descent from zero would explore. A step is halved
    while it raises the loss. The fit stops when the gradient max-norm
    drops below SLEARNER_GRAD_TOL and otherwise after SLEARNER_MAX_ITER
    steps, with a warning and `converged=False`. Logit-space outputs are
    softmaxed before fitting; explicit targets must already be
    probability rows.
    """
    rows = dataset.fit_rows
    if rows.size == 0:
        raise ValidationError("dataset has no factual samples to fit on")
    X = dataset.design_matrix(rows)
    T, _ = _resolve_targets(dataset, rows, None, targets)
    if targets is None and dataset.space == SPACE_LOGIT:
        T = softmax(T)
    if T.shape[1] < 2:
        raise ValidationError("logistic baseline needs at least 2 output classes")
    if np.any(T < -1e-12) or np.max(np.abs(T.sum(axis=1) - 1.0)) > 1e-6:
        raise ValidationError("targets are not probability rows (tol 1e-6)")

    n, k = X.shape
    q = T.shape[1]
    Xa = np.hstack([X, np.ones((n, 1))])
    Wa = np.zeros((k + 1, q))
    loss = _cross_entropy(Xa, Wa, T)
    iterations = 0
    while True:
        P = softmax(Xa @ Wa)
        G = Xa.T @ (P - T) / n
        grad_norm = float(np.max(np.abs(G)))
        converged = grad_norm < SLEARNER_GRAD_TOL
        if converged or iterations == SLEARNER_MAX_ITER:
            break
        H = _softmax_hessian(Xa, P)
        step = lstsq(H, G.T.reshape(-1, 1)).coefficients.reshape(q, k + 1).T
        # The slack absorbs rounding in the loss, so a step that only
        # reaches the rounding floor is not mistaken for a rise.
        slack = 1e-13 * max(1.0, abs(loss))
        for _ in range(_MAX_HALVINGS):
            trial_loss = _cross_entropy(Xa, Wa - step, T)
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
    rows, C = _edited_design(model, dataset, rows, attribute, to)
    baseline = dataset.outputs[rows]
    if model.space == SPACE_LOGIT:
        baseline = softmax(baseline)
    return model.predict_proba(C) - baseline


# ---------------------------------------------------------------------------
# approximate-counterfactual baseline


class ApproxEstimate(NamedTuple):
    effect: np.ndarray
    fallback: bool  # no row matched exactly; the nearest rows were used


class LabelIndex(NamedTuple):
    """What `explain_approx` needs of a dataset that no edit changes.

    A row's profile is its visible level codes as one integer (mixed
    radix over the visible attributes, in schema order). Setting
    attribute a of row r to code t moves the profile by
    `stride[a] * (t - codes[r, a])`; a hidden attribute has stride 0, so
    an edit of it keeps the row's own visible profile.
    """

    profiles: list[int]  # sorted, for bisect
    order: np.ndarray  # row of each sorted profile; rows sharing one stay in row order
    row_key: list[int]  # each row's own profile
    stride: list[int]  # per attribute, 0 if hidden
    visible: np.ndarray  # per attribute


def build_label_index(dataset: Dataset) -> LabelIndex:
    """Sort the dataset's visible-label profiles once, for every approx edit of a run.

    The sort is stable, so the rows that share a profile stay in row order.
    Profiles are int64 while every one fits, and Python ints otherwise,
    so any number of attributes and levels keys exactly.
    """
    schema = dataset.schema
    visible = schema.visible_mask(dataset.hidden_attributes)
    stride, span = [0] * visible.size, 1
    for a in reversed(np.flatnonzero(visible).tolist()):
        stride[a], span = span, span * int(schema.sizes[a])
    dtype = np.int64 if span <= 1 << 63 else object
    profiles = dataset.codes.astype(dtype) @ np.array(stride, dtype=dtype)
    order = np.argsort(profiles, kind="stable")
    return LabelIndex(profiles[order].tolist(), order, profiles.tolist(), stride, visible)


# An entry (a 64-bit seed, a 32-bit output and the cache's links) takes
# about 190 bytes, so a full cache holds about 6 MB; 2**15 entries cover
# the 22000 pair seeds of an 11-seed experiment on 2000 pairs.
@functools.lru_cache(maxsize=1 << 15)
def _first_uint32(seed: int) -> int:
    """The first 32-bit output of `np.random.default_rng(seed)`'s stream.

    PCG64 hands out the low half of its first 64-bit output first.
    """
    return int(np.random.PCG64(seed).random_raw()) & 0xFFFFFFFF


def seeded_index(seed: int, count: int) -> int:
    """`int(np.random.default_rng(seed).integers(count))`, seeding PCG64 once per seed.

    For 0 < count < 2**32, numpy draws by Lemire's multiply-shift (Lemire
    2019, "Fast random integer generation in an interval"): with w the
    stream's first 32-bit output, the draw is (w * count) >> 32 unless the
    low 32 bits of w * count fall below count, where numpy may reject w
    and draw again. w is kept per int seed in a bounded cache (2**15
    seeds, about 6 MB at most). That possible rejection, a count of
    2**32 or more (numpy's 64-bit path) and a seed that is not an int are
    handed to numpy itself, so every value is numpy's.
    """
    count = operator.index(count)
    if type(seed) is int and 0 < count < 1 << 32:
        scaled = _first_uint32(seed) * count
        if scaled & 0xFFFFFFFF >= count:
            return scaled >> 32
    return int(np.random.default_rng(seed).integers(count))


def explain_approx(
    dataset: Dataset, row: int, attribute: int, to: int, seed: int, index: LabelIndex | None = None
) -> ApproxEstimate:
    """Difference row `row` against a row whose visible labels match the edit.

    The match target is the row's visible labels with attribute index
    `attribute` set to level code `to` (a hidden attribute cannot enter
    the profile, so the target degrades to the visible labels alone).
    Ties are broken uniformly under `seed`: of the `count` tied rows, in
    row order, the one at `seeded_index(seed, count)`, which is
    `np.random.default_rng(seed).integers(count)`. When no row matches
    exactly, the rows closest by Hamming distance over visible labels are
    used and the estimate is flagged.

    Pass the dataset's `build_label_index` as `index` to explain many
    edits: the sort is then done once per run, and an edit with an exact
    match costs one integer key, two bisections and one `seeded_index`
    draw, which seeds a stream only the first time its seed is seen.
    """
    n = len(dataset)
    if n == 0:
        raise ValidationError("cannot sample counterfactuals from an empty dataset")
    try:
        row, attribute, to = operator.index(row), operator.index(attribute), operator.index(to)
    except TypeError:
        raise ValidationError("row, attribute and level code must be integers") from None
    sizes = dataset.schema.sizes
    if not 0 <= attribute < sizes.size or not 0 <= to < sizes[attribute]:
        raise ValidationError(f"no level code {to!r} for attribute index {attribute!r}")
    if not 0 <= row < n:
        raise ValidationError(f"row {row} is out of range for {n} rows")
    if index is None:
        index = build_label_index(dataset)
    profiles, order, row_key, stride, visible = index
    key = row_key[row] + stride[attribute] * (to - int(dataset.codes[row, attribute]))
    lo, hi = bisect_left(profiles, key), bisect_right(profiles, key)
    positions = order[lo:hi]
    fallback = lo == hi
    if fallback:
        target = dataset.codes[row].copy()
        target[attribute] = to
        target = target[visible]
        distance = np.sum(dataset.codes[:, visible] != target, axis=1)
        positions = np.flatnonzero(distance == distance.min())
    choice = positions[seeded_index(seed, positions.size)]
    return ApproxEstimate(dataset.outputs[choice] - dataset.outputs[row], fallback)


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

    def matrix(self) -> np.ndarray:
        return self.contrasts

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
            f"(first: sample {str(dataset.ids[np.argmax(bad)])!r})"
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
            ridge=model.ridge,
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
            k_vis = schema.visible_width(hidden)
            model = MCCEModel(
                schema=schema,
                hidden_attributes=hidden,
                embed_coef=matrix("embed_coef"),
                pseudo_basis=matrix("pseudo_basis"),
                concept_coef=matrix("concept_coef"),
                pseudo_coef=matrix("pseudo_coef"),
                ridge=json_field(obj, "ridge", "number", path),
                n_pseudo=json_field(obj, "n_pseudo", "integer", path),
                space=json_field(obj, "space", "string", path),
                target_kind=json_field(obj, "target_kind", "string", path),
                diagnostics=json_field(obj, "diagnostics", "object", path),
            )
            d = model.embed_coef.shape[1]
            if model.embed_coef.shape[0] != k_vis or model.concept_coef.shape[0] != k_vis:
                raise ValidationError("coefficient rows do not match the schema/mask width")
            if model.pseudo_basis.shape != (d, model.n_pseudo):
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
    `sample_id`, `attribute`, `from` and `to`, and `fallback` when an
    estimate is flagged: one line per estimate. The (m, q) effect matrix
    goes to `<name>.effect.npy`, which the meta line names under
    `effect`. Non-finite effects raise NumericalError and write nothing.
    """
    bad = ~np.isfinite(effects.effect).all(axis=1)
    if bad.any():
        raise NumericalError(
            f"{int(bad.sum())} of {len(effects)} effect estimates are not finite "
            f"(first: sample {str(effects.sample_id[np.argmax(bad)])!r}); not writing {path}"
        )
    columns = {
        "sample_id": effects.sample_id,
        "attribute": effects.attribute,
        "from": effects.from_level,
        "to": effects.to_level,
    }
    if effects.fallback.any():
        columns["fallback"] = effects.fallback
    meta = {**metadata, "method": effects.method, "space": effects.space}
    return write_jsonl(path, columns, meta, arrays={"effect": effects.effect})


def read_effects(path: str | Path) -> tuple[Effects, dict]:
    """Read an effects file and its effect matrix, as `write_effects` writes them.

    Line 1 is the meta line. Its `method` and `space`, each a string or
    null, are every estimate's; its `hidden`, when present, must be a
    list of attribute names, and its `seed` an integer or null. The
    metadata returned is the meta line without its `columns` and `effect`
    file name.
    """
    metadata, columns = read_jsonl(
        path, "effects", _EFFECT_TYPES, {"fallback": False}, arrays=("effect",)
    )
    meta = {f"meta.{key}": value for key, value in metadata.items()}  # keys as errors name them
    where = f"{path}:1"
    json_field(meta, "meta.hidden", "strings", where, [])
    json_field(meta, "meta.seed", "integer|null", where, None)
    method = json_field(meta, "meta.method", "string|null", where, None)
    space = json_field(meta, "meta.space", "string|null", where, None)
    names = (columns[key] for key in ("sample_id", "attribute", "from", "to"))
    return Effects(*names, columns["effect"], method, space, columns["fallback"]), metadata
