"""Scoring of effect estimates against empirical paired effects.

The empirical effect of an edit pair is the difference of the two
black-box outputs in whatever space the dataset was loaded in; estimates
carry a space tag and mixing spaces is refused. Errors are grouped by
(attribute, from, to), averaged within groups, then macro-averaged
across groups.

Distance conventions (vectors a, b; each distance also takes two (m, q)
arrays and returns m distances, row by row):
    l2      ||a - b||
    cosine  1 - a.b / (||a|| ||b||); 0 if a == b or both are zero, 1 if exactly one is
    norm    | ||a|| - ||b|| |
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import ConceptSchema, Dataset, csv_text, id_bytes, index_of
from .errors import ValidationError
from .explainers import Effects
from .linalg import as_matrix


def _check_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim == 0 or a.shape[-1] == 0:
        raise ValidationError(
            f"distance needs two non-empty arrays of one shape, got {a.shape} and {b.shape}"
        )
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValidationError("distance inputs contain non-finite entries")
    return a, b


def dist_l2(a, b):
    a, b = _check_pair(a, b)
    return np.linalg.norm(a - b, axis=-1)


def dist_cosine(a, b):
    a, b = _check_pair(a, b)
    na, nb = np.linalg.norm(a, axis=-1), np.linalg.norm(b, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 1.0 - np.sum(a * b, axis=-1) / (na * nb)
    out = np.where((na == 0.0) | (nb == 0.0), np.where(na == nb, 0.0, 1.0), out)
    return np.where(np.all(a == b, axis=-1), 0.0, out)[()]


def dist_norm(a, b):
    a, b = _check_pair(a, b)
    return np.abs(np.linalg.norm(a, axis=-1) - np.linalg.norm(b, axis=-1))


DISTANCES = {"l2": dist_l2, "cosine": dist_cosine, "norm": dist_norm}
METRICS = tuple(DISTANCES)


def get_distance(metric: str):
    try:
        return DISTANCES[metric]
    except KeyError:
        raise ValidationError(f"unknown metric {metric!r}, expected one of {METRICS}") from None


def icace(dataset: Dataset) -> np.ndarray:
    """Empirical paired effects: edited output minus original output, one row per pair."""
    return dataset.outputs[dataset.edited_rows()] - dataset.outputs[dataset.pairs.original]


@dataclass(frozen=True)
class EvalGroup:
    attribute: str
    from_level: str
    to_level: str
    metric: str
    mean: float
    std: float
    count: int


@dataclass(eq=False)
class EvalReport:
    """Per-group rows plus the macro average across groups.

    `macro_std` is the population std of the group means. CSV columns, in
    order: attribute, from, to, metric, mean, std, count.
    """

    groups: tuple[EvalGroup, ...]
    macro_mean: float
    macro_std: float
    metadata: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {
            "metadata": self.metadata,
            "groups": [
                {
                    "attribute": g.attribute,
                    "from": g.from_level,
                    "to": g.to_level,
                    "metric": g.metric,
                    "mean": g.mean,
                    "std": g.std,
                    "count": g.count,
                }
                for g in self.groups
            ],
            "macro_mean": self.macro_mean,
            "macro_std": self.macro_std,
        }

    def to_csv(self) -> str:
        rows = (
            (g.attribute, g.from_level, g.to_level, g.metric, g.mean, g.std, g.count)
            for g in self.groups
        )
        return csv_text(["attribute", "from", "to", "metric", "mean", "std", "count"], rows)


def match_effects(effects: Effects, dataset: Dataset) -> np.ndarray:
    """Row in `effects` of the estimate for each dataset pair; -1 where there is none.

    Pairs match estimates on (sample, attribute, from, to): sample ids
    are looked up in the dataset's sorted ids, and attribute and level
    names by one dict lookup each (`ConceptSchema.attribute_indices` and
    `level_codes`). An estimate naming a sample, attribute or level the
    dataset lacks matches nothing.
    Estimates in another space than the dataset's are refused. The match
    depends on no metric, so one serves every `icace_error` of a run.
    """
    if len(effects) and effects.space != dataset.space:
        raise ValidationError(
            f"mixed-space comparison refused: estimates are in {effects.space!r} space, "
            f"dataset is in {dataset.space!r} space"
        )
    schema, p = dataset.schema, dataset.pairs
    top = int(schema.sizes.max())

    def key(rows, attribute, from_codes, to):
        return ((rows * len(schema.names) + attribute) * top + from_codes) * top + to

    rows = index_of(dataset.ids, id_bytes(effects.sample_id), dataset.id_order)
    attribute = schema.attribute_indices(effects.attribute.tolist())
    from_codes = schema.level_codes(attribute, effects.from_level.tolist())
    to = schema.level_codes(attribute, effects.to_level.tolist())
    known = np.flatnonzero((rows >= 0) & (attribute >= 0) & (from_codes >= 0) & (to >= 0))
    keys = key(rows, attribute, from_codes, to)[known]
    unique, counts = np.unique(keys, return_counts=True)
    if np.any(counts > 1):
        i = known[np.argmax(keys == unique[np.argmax(counts > 1)])]
        named = (effects.sample_id, effects.attribute, effects.from_level, effects.to_level)
        raise ValidationError(f"duplicate effect estimate for {tuple(str(c[i]) for c in named)!r}")
    wanted = key(p.original, p.attribute, dataset.codes[p.original, p.attribute].astype(np.int64), p.to)
    return np.append(known, -1)[index_of(keys, wanted)]  # absent (-1) picks the appended -1


def icace_error(
    effects: Effects, dataset: Dataset, metric: str, metadata=None, hidden=frozenset(), match=None
) -> EvalReport:
    """Grouped distance between empirical paired effects and estimates.

    Every pair needs an estimate with its (sample, attribute, from, to)
    key in the dataset's space, except that a pair editing an attribute
    in `hidden` may lack one: it is left out and counted in
    `pairs_skipped`. Duplicate-keyed pairs share one estimate. `match`
    may pass `match_effects(effects, dataset)`, computed once for the
    metrics of one run.
    """
    dist = get_distance(metric)
    schema, p = dataset.schema, dataset.pairs
    if match is None:
        match = match_effects(effects, dataset)
    skipped = (match < 0) & ~schema.visible_mask(hidden)[p.attribute]
    unmatched = (match < 0) & ~skipped
    if unmatched.any():
        named = dataset.pair_names(np.argmax(unmatched))
        raise ValidationError(f"no effect estimate for pair {tuple(map(str, named))!r}")

    scored = np.flatnonzero(match >= 0)
    values = np.zeros(0)
    if scored.size:
        values = dist(icace(dataset)[scored], effects.effect[match[scored]])
    top = int(schema.sizes.max())
    group = (p.attribute * top + dataset.codes[p.original, p.attribute].astype(np.int64)) * top + p.to
    _, first, inverse, counts = np.unique(
        group[scored], return_index=True, return_inverse=True, return_counts=True
    )
    means = np.bincount(inverse, weights=values, minlength=counts.size) / counts
    spread = np.bincount(inverse, weights=(values - means[inverse]) ** 2, minlength=counts.size)
    names = (col.tolist() for col in dataset.pair_names(scored[first])[1:])
    stats = zip(*names, means.tolist(), np.sqrt(spread / counts).tolist(), counts.tolist())
    rows = tuple(EvalGroup(a, f, t, metric, m, s, c) for a, f, t, m, s, c in sorted(stats))
    group_means = np.array([g.mean for g in rows])
    macro_mean, macro_std = 0.0, 0.0
    if rows:
        macro_mean, macro_std = float(group_means.mean()), float(group_means.std())

    meta = dict(metadata or {})
    meta.setdefault("space", dataset.space)
    meta["metric"] = metric
    meta["pairs_evaluated"] = int(scored.size)
    meta["pairs_skipped"] = int(skipped.sum())
    return EvalReport(groups=rows, macro_mean=macro_mean, macro_std=macro_std, metadata=meta)


def coefficient_error(
    estimated,
    reference,
    schema: ConceptSchema,
    hidden=frozenset(),
    metric: str = "l2",
) -> float:
    """Total distance between estimated and reference effect contrasts.

    Compares within-attribute-block coefficient differences (level minus
    level, a class-sized vector per ordered level pair) rather than raw
    coefficients, since raw one-hot coefficients are only identified up to
    a per-block constant. Both matrices use the visible layout.
    """
    dist = get_distance(metric)
    hidden = schema.check_hidden(hidden)
    est = as_matrix(estimated, "estimated")
    ref = as_matrix(reference, "reference")
    width = schema.visible_width(hidden)
    if est.shape != ref.shape:
        raise ValidationError(f"shape mismatch: {est.shape} vs {ref.shape}")
    if est.shape[0] != width:
        raise ValidationError(
            f"coefficient matrices must have {width} rows for this schema/mask, "
            f"got {est.shape[0]}"
        )
    total = 0.0
    for block in schema.visible_blocks(hidden).values():
        i, k = np.nonzero(~np.eye(block.stop - block.start, dtype=bool))  # ordered level pairs
        total += float(np.sum(dist(ref[block][k] - ref[block][i], est[block][k] - est[block][i])))
    return total


def macro_f1(predicted, gold, n_classes: int) -> float:
    """Macro-averaged F1 over all `n_classes` classes.

    A class with no predicted and no actual positives contributes F1 = 0.
    """
    pred = np.asarray(predicted, dtype=np.int64)
    gold = np.asarray(gold, dtype=np.int64)
    if pred.ndim != 1 or gold.ndim != 1 or pred.size != gold.size:
        raise ValidationError("predicted and gold must be 1-D arrays of equal length")
    if pred.size == 0:
        raise ValidationError("cannot score an empty label array")
    if not isinstance(n_classes, (int, np.integer)) or n_classes < 1:
        raise ValidationError(f"n_classes must be a positive integer, got {n_classes!r}")
    for name, arr in (("predicted", pred), ("gold", gold)):
        if arr.min() < 0 or arr.max() >= n_classes:
            raise ValidationError(f"{name} labels out of range [0, {n_classes})")
    scores = []
    for c in range(int(n_classes)):
        tp = int(np.sum((pred == c) & (gold == c)))
        fp = int(np.sum((pred == c) & (gold != c)))
        fn = int(np.sum((pred != c) & (gold == c)))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        scores.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return float(np.mean(scores))
