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
    No model at all: sample (seeded) a factual example whose visible
    labels match the requested counterfactual and difference the two
    stored outputs. Falls back to minimum Hamming distance over visible
    labels when no exact match exists, flagging the estimate.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import (
    SPACE_LOGIT,
    SPACE_PROBABILITY,
    ConceptSchema,
    Dataset,
    Sample,
    _parse_json,
    _parse_jsonl,
    encode,
    intervene,
    softmax,
    write_text_atomic,
)
from .errors import ValidationError
from .linalg import RANK_RTOL, as_matrix, lstsq, max_abs_cross, residualize, truncated_svd

TARGET_OUTPUT = "output"
TARGET_GOLD = "gold"

SLEARNER_MAX_ITER = 50
SLEARNER_GRAD_TOL = 1e-7
_MAX_HALVINGS = 50


@dataclass(frozen=True, eq=False)
class EffectEstimate:
    """One estimated effect of editing `attribute` to `to_level` on a sample.

    `from_level` is None when the edited attribute is hidden from the
    estimator (only the approx method produces such estimates; callers
    may fill the level back in from the pair record).
    """

    sample_id: str
    attribute: str
    from_level: str | None
    to_level: str
    effect: np.ndarray
    method: str
    space: str
    fallback: bool = False


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

    def predict(self, concept_vector, embedding) -> np.ndarray:
        c, e = self._check_inputs(concept_vector, embedding)
        resid = e - c @ self.embed_coef
        return c @ self.concept_coef + (resid @ self.pseudo_basis) @ self.pseudo_coef

    def _check_inputs(self, concept_vector, embedding):
        c = np.asarray(concept_vector, dtype=np.float64)
        e = np.asarray(embedding, dtype=np.float64)
        if c.shape != (self.embed_coef.shape[0],):
            raise ValidationError(
                f"concept vector must have shape ({self.embed_coef.shape[0]},), got {c.shape}"
            )
        if e.shape != (self.embed_coef.shape[1],):
            raise ValidationError(
                f"embedding must have shape ({self.embed_coef.shape[1]},), got {e.shape}"
            )
        if not (np.isfinite(c).all() and np.isfinite(e).all()):
            raise ValidationError("non-finite model inputs")
        return c, e


def _one_hot_gold(samples, n_classes: int) -> np.ndarray:
    out = np.zeros((len(samples), n_classes), dtype=np.float64)
    for i, sample in enumerate(samples):
        out[i, sample.gold_label] = 1.0
    return out


def _resolve_targets(dataset: Dataset, samples, target_kind: str | None, targets):
    if targets is not None:
        T = as_matrix(targets, "targets")
        if T.shape[0] != len(samples):
            raise ValidationError(
                f"targets must have one row per fit sample ({len(samples)}), got {T.shape[0]}"
            )
        return T, target_kind or "custom"
    kind = target_kind or TARGET_OUTPUT
    if kind == TARGET_OUTPUT:
        return dataset.outputs(samples), kind
    if kind == TARGET_GOLD:
        missing = [s.id for s in samples if s.gold_label is None]
        if missing:
            raise ValidationError(
                f"predictor mode requires gold labels on every fit sample; "
                f"{len(missing)} missing (first: {missing[0]!r})"
            )
        n_classes = max(s.gold_label for s in samples) + 1
        return _one_hot_gold(samples, n_classes), kind
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
    with `dataset.fit_samples()`.
    """
    samples = dataset.fit_samples()
    if not samples:
        raise ValidationError("dataset has no factual samples to fit on")
    k_vis = dataset.visible_width
    if k_vis == 0:
        raise ValidationError("empty visible concept set: every attribute is hidden")
    C = dataset.design_matrix(samples)
    H = dataset.embeddings(samples)
    T, kind = _resolve_targets(dataset, samples, target_kind, targets)
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


def _factual_encoding(model, sample: Sample, attribute: str):
    if attribute in model.hidden_attributes:
        raise ValidationError(f"attribute {attribute!r} is hidden for this model")
    if attribute not in model.schema.names:
        raise ValidationError(f"unknown attribute {attribute!r}")
    if attribute not in sample.concept_labels:
        raise ValidationError(f"sample {sample.id!r} has no label for {attribute!r}")
    c = encode(model.schema, sample.concept_labels, model.hidden_attributes)
    return c, sample.concept_labels[attribute]


def explain_mcce(model: MCCEModel, sample: Sample, attribute: str, to_level: str) -> EffectEstimate:
    """Estimated effect: surrogate output at the edited encoding minus the stored output."""
    c, from_level = _factual_encoding(model, sample, attribute)
    c_edit = intervene(model.schema, c, attribute, to_level, model.hidden_attributes)
    effect = model.predict(c_edit, sample.embedding) - sample.blackbox_output
    return EffectEstimate(
        sample_id=sample.id,
        attribute=attribute,
        from_level=from_level,
        to_level=to_level,
        effect=effect,
        method="mcce",
        space=model.space,
    )


# ---------------------------------------------------------------------------
# s-learner baseline


@dataclass(eq=False)
class SLearnerModel:
    """Multinomial logistic regression on the observed one-hot design.

    `converged` is False when the fit stopped before the gradient
    max-norm (`grad_norm`, at the returned weights) fell below
    SLEARNER_GRAD_TOL. Both are None for a model loaded from a file
    written before they were recorded.
    """

    schema: ConceptSchema
    hidden_attributes: frozenset[str]
    weights: np.ndarray  # (k_vis, q)
    bias: np.ndarray  # (q,)
    input_space: str  # space of the dataset the model was fit on
    iterations: int
    final_loss: float
    converged: bool | None
    grad_norm: float | None

    kind = "slearner"

    def predict_proba(self, concept_vector) -> np.ndarray:
        c = np.asarray(concept_vector, dtype=np.float64)
        if c.shape != (self.weights.shape[0],):
            raise ValidationError(
                f"concept vector must have shape ({self.weights.shape[0]},), got {c.shape}"
            )
        return softmax(c @ self.weights + self.bias)


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
    samples = dataset.fit_samples()
    if not samples:
        raise ValidationError("dataset has no factual samples to fit on")
    if dataset.visible_width == 0:
        raise ValidationError("empty visible concept set: every attribute is hidden")
    X = dataset.design_matrix(samples)
    if targets is not None:
        T = as_matrix(targets, "targets")
        if T.shape[0] != len(samples):
            raise ValidationError(
                f"targets must have one row per fit sample ({len(samples)}), got {T.shape[0]}"
            )
    else:
        T = dataset.outputs(samples)
        if dataset.space == SPACE_LOGIT:
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
        input_space=dataset.space,
        iterations=iterations,
        final_loss=loss,
        converged=converged,
        grad_norm=grad_norm,
    )


def explain_slearner(
    model: SLearnerModel, sample: Sample, attribute: str, to_level: str
) -> EffectEstimate:
    """Predicted distribution at the edited encoding minus the sample's output distribution.

    The sample must come from a dataset in the space the model was fit
    on; logit-space outputs are softmaxed to form the baseline.
    """
    c, from_level = _factual_encoding(model, sample, attribute)
    c_edit = intervene(model.schema, c, attribute, to_level, model.hidden_attributes)
    baseline = sample.blackbox_output
    if model.input_space == SPACE_LOGIT:
        baseline = softmax(baseline)
    effect = model.predict_proba(c_edit) - baseline
    return EffectEstimate(
        sample_id=sample.id,
        attribute=attribute,
        from_level=from_level,
        to_level=to_level,
        effect=effect,
        method="slearner",
        space=SPACE_PROBABILITY,
    )


# ---------------------------------------------------------------------------
# approximate-counterfactual baseline


def build_label_index(dataset: Dataset) -> dict[tuple, list[int]]:
    """Visible-label profile -> sample positions, for fast approx matching."""
    names = dataset.schema.visible_names(dataset.hidden_attributes)
    index: dict[tuple, list[int]] = {}
    for pos, sample in enumerate(dataset.samples):
        profile = tuple(sample.concept_labels.get(a) for a in names)
        index.setdefault(profile, []).append(pos)
    return index


def explain_approx(
    dataset: Dataset,
    sample: Sample,
    attribute: str,
    to_level: str,
    seed: int,
    index: dict | None = None,
) -> EffectEstimate:
    """Difference the sample against a matching factual sample.

    The match target is the sample's visible labels with `attribute` set
    to `to_level` (a hidden attribute cannot enter the profile, so the
    target degrades to the visible labels alone). Ties are broken
    uniformly under `seed`; when no exact match exists the closest
    profiles by Hamming distance are used and the estimate is flagged.
    """
    if not dataset.samples:
        raise ValidationError("cannot sample counterfactuals from an empty dataset")
    if to_level not in dataset.schema.levels(attribute):
        raise ValidationError(f"unknown level {to_level!r} for attribute {attribute!r}")
    names = dataset.schema.visible_names(dataset.hidden_attributes)
    hidden = attribute in dataset.hidden_attributes
    target = dict(dataset.visible_labels(sample))
    if not hidden:
        target[attribute] = to_level
    profile = tuple(target.get(a) for a in names)

    if index is None:
        index = build_label_index(dataset)
    positions = index.get(profile)
    fallback = positions is None
    if fallback:
        best = None
        best_positions: list[int] = []
        for cand_profile, cand_positions in index.items():
            d = sum(1 for got, want in zip(cand_profile, profile) if got != want)
            if best is None or d < best:
                best, best_positions = d, list(cand_positions)
            elif d == best:
                best_positions.extend(cand_positions)
        positions = sorted(best_positions)

    rng = np.random.default_rng(seed)
    choice = dataset.samples[positions[int(rng.integers(len(positions)))]]
    effect = choice.blackbox_output - sample.blackbox_output
    return EffectEstimate(
        sample_id=sample.id,
        attribute=attribute,
        from_level=None if hidden else sample.concept_labels.get(attribute),
        to_level=to_level,
        effect=effect,
        method="approx",
        space=dataset.space,
        fallback=fallback,
    )


# ---------------------------------------------------------------------------
# global report and predictor mode


@dataclass(frozen=True)
class CoefficientReport:
    """Per-(attribute, level) coefficient contrasts against a baseline class."""

    baseline_class: int
    n_classes: int
    attributes: tuple[str, ...]
    levels: tuple[str, ...]
    contrasts: tuple[tuple[float, ...], ...]  # one row per (attribute, level)

    def matrix(self) -> np.ndarray:
        if not self.contrasts:
            return np.zeros((0, self.n_classes))
        return np.asarray(self.contrasts, dtype=np.float64)

    def to_csv(self) -> str:
        import csv as _csv
        import io as _io

        buf = _io.StringIO()
        writer = _csv.writer(buf, lineterminator="\n")
        classes = [f"class_{c}" for c in range(self.n_classes)] if self.contrasts else []
        writer.writerow(["attribute", "level"] + classes)
        for attr, level, row in zip(self.attributes, self.levels, self.contrasts):
            writer.writerow([attr, level] + [repr(v) for v in row])
        return buf.getvalue()

    def to_json_obj(self) -> dict:
        return {
            "baseline_class": self.baseline_class,
            "n_classes": self.n_classes,
            "rows": [
                {"attribute": a, "level": l, "contrast": list(row)}
                for a, l, row in zip(self.attributes, self.levels, self.contrasts)
            ],
        }


def global_report(model: MCCEModel, baseline_class: int) -> CoefficientReport:
    """Observed-concept coefficient contrasts against one output class.

    Each row is beta[level, class] - beta[level, baseline_class]; the
    baseline column is identically zero. A single-class model has no
    contrasts and yields an empty report.
    """
    if not isinstance(model, MCCEModel):
        raise ValidationError("global report requires a pseudo-concept (mcce) model")
    q = model.n_outputs
    if not isinstance(baseline_class, (int, np.integer)) or not 0 <= int(baseline_class) < q:
        raise ValidationError(f"baseline_class must be in [0, {q}), got {baseline_class!r}")
    baseline_class = int(baseline_class)
    if q == 1:
        return CoefficientReport(baseline_class, q, (), (), ())
    attrs: list[str] = []
    levels: list[str] = []
    rows: list[tuple[float, ...]] = []
    blocks = model.schema.visible_blocks(model.hidden_attributes)
    for name in model.schema.visible_names(model.hidden_attributes):
        block = blocks[name]
        for i, level in enumerate(model.schema.levels(name)):
            coef_row = model.concept_coef[block.start + i]
            attrs.append(name)
            levels.append(level)
            rows.append(tuple(float(v) for v in coef_row - coef_row[baseline_class]))
    return CoefficientReport(baseline_class, q, tuple(attrs), tuple(levels), tuple(rows))


def predict_labels(model: MCCEModel, dataset: Dataset) -> np.ndarray:
    """Argmax of the predictor-mode surrogate over every sample; ties pick the lowest class."""
    if not isinstance(model, MCCEModel):
        raise ValidationError("label prediction requires a pseudo-concept (mcce) model")
    if model.target_kind != TARGET_GOLD:
        raise ValidationError("model was not fitted in predictor mode (gold targets)")
    if model.schema != dataset.schema:
        raise ValidationError("model and dataset schemas differ")
    if model.hidden_attributes != dataset.hidden_attributes:
        raise ValidationError("model and dataset hidden-attribute masks differ")
    if not dataset.samples:
        raise ValidationError("cannot predict on an empty dataset")
    out = np.empty(len(dataset.samples), dtype=np.int64)
    for i, sample in enumerate(dataset.samples):
        scores = model.predict(dataset.encode_sample(sample), sample.embedding)
        out[i] = int(np.argmax(scores))
    return out


# ---------------------------------------------------------------------------
# model and effect serialization


def save_model(model: MCCEModel | SLearnerModel, path: str | Path) -> Path:
    """Write a model as one JSON document; floats round-trip bit-exactly."""
    if isinstance(model, MCCEModel):
        obj = {
            "kind": model.kind,
            "schema": model.schema.to_obj(),
            "hidden": sorted(model.hidden_attributes),
            "space": model.space,
            "target_kind": model.target_kind,
            "ridge": model.ridge,
            "n_pseudo": model.n_pseudo,
            "embed_coef": model.embed_coef.tolist(),
            "pseudo_basis": model.pseudo_basis.tolist(),
            "concept_coef": model.concept_coef.tolist(),
            "pseudo_coef": model.pseudo_coef.tolist(),
            "diagnostics": model.diagnostics,
        }
    elif isinstance(model, SLearnerModel):
        obj = {
            "kind": model.kind,
            "schema": model.schema.to_obj(),
            "hidden": sorted(model.hidden_attributes),
            "input_space": model.input_space,
            "weights": model.weights.tolist(),
            "bias": model.bias.tolist(),
            "iterations": model.iterations,
            "final_loss": model.final_loss,
            "converged": model.converged,
            "grad_norm": model.grad_norm,
        }
    else:
        raise ValidationError(f"cannot serialize model of type {type(model).__name__}")
    return write_text_atomic(path, json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def load_model(path: str | Path) -> MCCEModel | SLearnerModel:
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"model file not found: {path}")
    obj = _parse_json(path.read_text(encoding="utf-8"), str(path))
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    kind = obj.get("kind")
    try:
        if kind == "mcce":
            schema = ConceptSchema.from_obj(obj["schema"])
            hidden = schema.check_hidden(obj["hidden"])
            k_vis = schema.visible_width(hidden)
            model = MCCEModel(
                schema=schema,
                hidden_attributes=hidden,
                embed_coef=as_matrix(obj["embed_coef"], "embed_coef"),
                pseudo_basis=as_matrix(obj["pseudo_basis"], "pseudo_basis"),
                concept_coef=as_matrix(obj["concept_coef"], "concept_coef"),
                pseudo_coef=as_matrix(obj["pseudo_coef"], "pseudo_coef"),
                ridge=float(obj["ridge"]),
                n_pseudo=int(obj["n_pseudo"]),
                space=str(obj["space"]),
                target_kind=str(obj["target_kind"]),
                diagnostics=dict(obj.get("diagnostics", {})),
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
        if kind == "slearner":
            schema = ConceptSchema.from_obj(obj["schema"])
            hidden = schema.check_hidden(obj["hidden"])
            weights = as_matrix(obj["weights"], "weights")
            bias = np.asarray(obj["bias"], dtype=np.float64)
            if weights.shape[0] != schema.visible_width(hidden):
                raise ValidationError("weight rows do not match the schema/mask width")
            if bias.shape != (weights.shape[1],):
                raise ValidationError("bias length does not match weight columns")
            converged, grad_norm = obj.get("converged"), obj.get("grad_norm")
            return SLearnerModel(
                schema=schema,
                hidden_attributes=hidden,
                weights=weights,
                bias=bias,
                input_space=str(obj["input_space"]),
                iterations=int(obj["iterations"]),
                final_loss=float(obj["final_loss"]),
                # files written before these were recorded lack both
                converged=None if converged is None else bool(converged),
                grad_norm=None if grad_norm is None else float(grad_norm),
            )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"{path}: malformed model document ({exc})") from exc
    raise ValidationError(f"{path}: unknown model kind {kind!r}")


def write_effects(path: str | Path, effects, metadata: dict) -> Path:
    """Write effect estimates as JSONL with a leading metadata line."""
    lines = [json.dumps({"meta": metadata}, sort_keys=True, allow_nan=False)]
    for est in effects:
        lines.append(
            json.dumps(
                {
                    "sample_id": est.sample_id,
                    "attribute": est.attribute,
                    "from": est.from_level,
                    "to": est.to_level,
                    "effect": np.asarray(est.effect).tolist(),
                    "method": est.method,
                    "space": est.space,
                    "fallback": est.fallback,
                },
                sort_keys=True,
                allow_nan=False,
            )
        )
    return write_text_atomic(path, "\n".join(lines) + "\n")


def read_effects(path: str | Path) -> tuple[list[EffectEstimate], dict]:
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"effects file not found: {path}")
    metadata: dict = {}
    effects: list[EffectEstimate] = []
    for lineno, obj in _parse_jsonl(path):
        if "meta" in obj:
            metadata = dict(obj["meta"])
            continue
        try:
            effects.append(
                EffectEstimate(
                    sample_id=str(obj["sample_id"]),
                    attribute=str(obj["attribute"]),
                    from_level=None if obj["from"] is None else str(obj["from"]),
                    to_level=str(obj["to"]),
                    effect=np.asarray(obj["effect"], dtype=np.float64),
                    method=str(obj["method"]),
                    space=str(obj["space"]),
                    fallback=bool(obj.get("fallback", False)),
                )
            )
        except KeyError as exc:
            raise ValidationError(f"{path}:{lineno}: missing key {exc}") from None
    return effects, metadata
