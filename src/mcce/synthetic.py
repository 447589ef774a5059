"""Synthetic concept data with exact effect oracles.

Generative model, per sample:

    u ~ N(0, I)                                  latent state
    level(a) = argmax(mixing[a] @ u + Gumbel)    per-attribute labels
    e = embed_map @ c + embed_noise * g_e        embedding
    y = c @ outcome_coef + outcome_noise * g_y   black-box logits

where c is the complete one-hot concept vector. Attributes that share a
latent coordinate through their mixing rows are confounded. Adding
standard Gumbel noise before the argmax makes each label a categorical
draw with softmax probabilities, so ties are non-degenerate.

Counterfactual pairs reuse a sample's stored embedding and output noise
draws with one attribute's level changed, so the paired outputs differ
by the exact coefficient contrast and the paired embeddings by the
exact embedding-map contrast. `generate` keeps those draws in memory
(`SynthGroundTruth.draws`); nothing is drawn again for an edit.
`synthesize_sample` is the per-sample reference that both must equal
bit for bit.

The oracle needs no stored outputs: a row's clean outputs are
`one_hot(complete labels) @ outcome_coef`, which `oracle_effect`
recomputes from the dataset's labels by the same per-row product
(`_clean_outputs`) that made them.

Stream layout (numpy SeedSequence spawn keys, portable across runs):

    (0, i)  per-sample draws for sample i, in order: latent state,
            Gumbel noise for every level in schema order, embedding
            noise, output noise
    (1,)    pair selection (which attributes flip, and to what)
    (2,)    parameter draws for generated configs, rooted at param_seed
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import (
    ConceptSchema,
    Dataset,
    EditPairs,
    float_array,
    json_field,
    one_hot,
    read_json,
    softmax,
    write_json,
)
from .errors import ValidationError

DEFAULT_ATTRIBUTES = (
    ("ambiance", ("neg", "unk", "pos")),
    ("food", ("neg", "unk", "pos")),
    ("noise", ("neg", "unk", "pos")),
    ("service", ("neg", "unk", "pos")),
)


@dataclass(eq=False)
class SynthConfig:
    """Complete description of one synthetic data draw."""

    n: int
    exo_dim: int
    schema: ConceptSchema
    mixing: dict[str, np.ndarray]  # (n_levels, exo_dim) per attribute
    embed_map: np.ndarray  # (embed_dim, width)
    outcome_coef: np.ndarray  # (width, n_outputs)
    embed_noise: float = 0.0
    outcome_noise: float = 0.0
    hidden: frozenset[str] = frozenset()
    seed: int = 0
    exact_recovery: bool = False

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValidationError(f"n must be a positive integer, got {self.n!r}")
        if not isinstance(self.exo_dim, (int, np.integer)) or self.exo_dim < 1:
            raise ValidationError(f"exo_dim must be a positive integer, got {self.exo_dim!r}")
        self.hidden = self.schema.check_hidden(self.hidden)
        self.mixing = {name: np.asarray(m, dtype=np.float64) for name, m in self.mixing.items()}
        self.embed_map = np.asarray(self.embed_map, dtype=np.float64)
        self.outcome_coef = np.asarray(self.outcome_coef, dtype=np.float64)
        for name, levels in self.schema.attributes:
            m = self.mixing.get(name)
            if m is None:
                raise ValidationError(f"missing mixing matrix for attribute {name!r}")
            if m.shape != (len(levels), self.exo_dim):
                raise ValidationError(
                    f"mixing[{name!r}] must have shape {(len(levels), self.exo_dim)}, got {m.shape}"
                )
            if not np.isfinite(m).all():
                raise ValidationError(f"mixing[{name!r}] contains non-finite entries")
        extra = set(self.mixing) - set(self.schema.names)
        if extra:
            raise ValidationError(f"mixing matrices for unknown attributes: {sorted(extra)}")
        width = self.schema.width
        if self.embed_map.ndim != 2 or self.embed_map.shape[1] != width:
            raise ValidationError(
                f"embed_map must have {width} columns, got shape {self.embed_map.shape}"
            )
        if self.outcome_coef.ndim != 2 or self.outcome_coef.shape[0] != width or not self.n_outputs:
            raise ValidationError(
                f"outcome_coef must have {width} rows and at least one column, "
                f"got shape {self.outcome_coef.shape}"
            )
        if not (np.isfinite(self.embed_map).all() and np.isfinite(self.outcome_coef).all()):
            raise ValidationError("embed_map or outcome_coef contains non-finite entries")
        for label, value in (("embed_noise", self.embed_noise), ("outcome_noise", self.outcome_noise)):
            if not np.isfinite(value) or value < 0.0:
                raise ValidationError(f"{label} must be a finite nonnegative float, got {value!r}")
        if self.exact_recovery:
            if self.embed_noise != 0.0:
                raise ValidationError("exact_recovery requires embed_noise = 0")
            if np.linalg.matrix_rank(self.embed_map) < width:
                raise ValidationError(
                    "exact_recovery requires an embedding map of full column rank"
                )

    @property
    def width(self) -> int:
        return self.schema.width

    @property
    def embed_dim(self) -> int:
        return self.embed_map.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.outcome_coef.shape[1]


@dataclass(eq=False)
class SynthGroundTruth:
    """Oracle bookkeeping: the outcome coefficients the clean outputs come from.

    `draws` holds, for each factual row of `generate`, its standard
    normal embedding draws followed by its output draws, for `make_pairs`;
    it is not saved, so a loaded ground truth has None.
    """

    outcome_coef: np.ndarray
    seed: int = 0
    hidden: tuple[str, ...] = ()
    draws: np.ndarray | None = field(default=None, repr=False)


def synthesize_sample(config: SynthConfig, index: int, edit: tuple[int, int] | None = None):
    """Draw sample `index`, optionally with one attribute forced to a level.

    `edit` is (attribute index, level code). Noise draws depend only on
    (seed, index), so an edited call regenerates the counterfactual of
    the same underlying draw. Returns (level codes, embedding, outputs,
    clean outputs); the gold label is the argmax of the clean outputs.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0, index)))
    u = rng.standard_normal(config.exo_dim)
    codes = np.array(
        [
            np.argmax(config.mixing[name] @ u + rng.gumbel(size=len(levels)))
            for name, levels in config.schema.attributes
        ]
    )
    g_embed = rng.standard_normal(config.embed_dim)
    g_out = rng.standard_normal(config.n_outputs)
    if edit is not None:
        codes[edit[0]] = edit[1]
    c = one_hot(config.schema, codes[None])[0]
    clean = c @ config.outcome_coef
    embedding = config.embed_map @ c + config.embed_noise * g_embed
    return codes, embedding, clean + config.outcome_noise * g_out, clean


def _clean_outputs(c: np.ndarray, outcome_coef: np.ndarray) -> np.ndarray:
    """Noise-free outputs `c @ outcome_coef` of the complete one-hot rows `c`.

    The products stay one row at a time, as in `synthesize_sample`: a
    batched matrix product may round differently in the last bit.
    """
    clean = np.empty((len(c), outcome_coef.shape[1]))
    for k in range(len(c)):
        clean[k] = c[k] @ outcome_coef
    return clean


def _rows(config: SynthConfig, codes: np.ndarray, draws: np.ndarray):
    """(embeddings, outputs, clean outputs) of rows with level `codes` and noise `draws`.

    Like the clean outputs, the embeddings are one product per row.
    """
    dim = config.embed_dim
    c = one_hot(config.schema, codes)
    clean = _clean_outputs(c, config.outcome_coef)
    embeddings = np.empty((len(codes), dim))
    for k in range(len(codes)):
        embeddings[k] = config.embed_map @ c[k]
    embeddings += config.embed_noise * draws[:, :dim]
    return embeddings, clean + config.outcome_noise * draws[:, dim:], clean


def generate(config: SynthConfig) -> tuple[Dataset, SynthGroundTruth]:
    """Draw the configured dataset; hidden attributes are masked in the view.

    Each sample takes three draws from its own stream: the latent state,
    one Gumbel per level of every attribute, and the embedding and output
    noise, the same values `synthesize_sample` draws one attribute at a
    time. The noise draws are kept in the returned truth for `make_pairs`.
    """
    n, schema = config.n, config.schema
    blocks = [(config.mixing[name], block) for name, block in schema.visible_blocks().items()]
    codes = np.empty((n, len(blocks)), dtype=np.int64)
    draws = np.empty((n, config.embed_dim + config.n_outputs))
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0, i)))
        u = rng.standard_normal(config.exo_dim)
        gumbel = rng.gumbel(size=config.width)
        codes[i] = [(mixing @ u + gumbel[block]).argmax() for mixing, block in blocks]
        draws[i] = rng.standard_normal(draws.shape[1])
    embeddings, outputs, clean = _rows(config, codes, draws)
    ids = np.array([f"s{i:06d}" for i in range(n)])
    dataset = Dataset(
        schema, ids, codes, embeddings, outputs, np.argmax(clean, axis=1),
        hidden_attributes=config.hidden,
    )
    hidden = tuple(sorted(config.hidden))
    truth = SynthGroundTruth(config.outcome_coef.copy(), config.seed, hidden, draws)
    return dataset, truth


def make_pairs(
    dataset: Dataset,
    truth: SynthGroundTruth,
    config: SynthConfig,
    edits_per_sample: int = 1,
) -> Dataset:
    """Append counterfactual edits of every sample.

    Each sample gets `edits_per_sample` flips on distinct attributes
    (chosen from the pair-selection stream; any attribute may flip,
    hidden or not). An edited row is built from the sample's level codes
    with the one code changed and the noise draws `generate` stored in
    `truth.draws`; nothing is drawn again, so it equals `synthesize_sample`
    called with the edit. The edited rows are appended to the returned
    dataset; fitting still sees only the factual rows.
    """
    if len(dataset.pairs):
        raise ValidationError("make_pairs expects a dataset without existing pairs")
    n, n_attrs = len(dataset), len(config.schema.names)
    if not isinstance(edits_per_sample, (int, np.integer)) or not 1 <= edits_per_sample <= n_attrs:
        raise ValidationError(
            f"edits_per_sample must be an integer in [1, {n_attrs}], got {edits_per_sample!r}"
        )
    if truth.draws is None or len(truth.draws) != n:
        raise ValidationError(
            "make_pairs needs the noise draws of the ground truth that generate returned"
        )
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(1,)))
    original = np.repeat(np.arange(n), edits_per_sample)
    attribute, to = np.empty_like(original), np.empty_like(original)
    for i in range(n):
        chosen = rng.choice(n_attrs, size=edits_per_sample, replace=False)
        for k, a in enumerate(chosen, start=i * edits_per_sample):
            current = dataset.codes[i, a]
            draw = int(rng.integers(config.schema.sizes[a] - 1))
            attribute[k], to[k] = a, draw + (draw >= current)  # skip the current level
    codes = dataset.codes[original]
    codes[np.arange(original.size), attribute] = to
    embeddings, outputs, clean = _rows(config, codes, truth.draws[original])
    schema = config.schema
    names = np.array(schema.names)[attribute]
    parts = (dataset.ids[original], names, schema.level_names(attribute, to))
    edited_ids = ["__".join(names) for names in zip(*(col.tolist() for col in parts))]
    return Dataset(
        dataset.schema,
        np.concatenate([dataset.ids, edited_ids]),
        np.concatenate([dataset.codes, codes]),
        np.concatenate([dataset.embeddings, embeddings]),
        np.concatenate([dataset.outputs, outputs]),
        np.concatenate([dataset.gold, np.argmax(clean, axis=1)]),
        EditPairs(original, np.arange(n, n + original.size), attribute, to),
        hidden_attributes=dataset.hidden_attributes,
        space=dataset.space,
    )


def oracle_effect(truth: SynthGroundTruth, dataset: Dataset, space: str) -> np.ndarray:
    """Exact effect of every pair of `dataset`, in the requested space.

    Each row's clean logits are its complete labels' one-hot row times
    `truth.outcome_coef`, computed once per row however many pairs it
    is in, by the product `generate` and `make_pairs` take.
    """
    if space not in ("logit", "probability"):
        raise ValidationError(f"space must be 'logit' or 'probability', got {space!r}")
    coef, width = truth.outcome_coef, dataset.schema.width
    if coef.shape[0] != width:
        raise ValidationError(
            f"'outcome_coef' has {coef.shape[0]} rows, but the dataset's complete "
            f"one-hot layout has {width} columns"
        )
    p = dataset.pairs
    rows, inverse = np.unique(np.concatenate([p.original, p.edited]), return_inverse=True)
    clean = _clean_outputs(one_hot(dataset.schema, dataset.codes[rows]), coef)
    if space == "probability":
        clean = softmax(clean)
    return clean[inverse[len(p) :]] - clean[inverse[: len(p)]]


# ---------------------------------------------------------------------------
# generated default configuration


def default_config(
    n: int = 2000,
    seed: int = 0,
    *,
    hidden=(),
    attributes=None,
    n_classes: int = 5,
    embed_dim: int = 16,
    confounding: float = 1.0,
    beta_scale: float = 0.4,
    beta_decay: float = 0.6,
    embed_noise: float = 0.0,
    outcome_noise: float = 0.05,
    param_seed: int = 7,
    exact_recovery: bool = True,
) -> SynthConfig:
    """Confounded default: latent coordinate 0 is shared by every attribute.

    Attribute a with L levels scores level l as
    confounding * w_l * u[0] + w_l * u[1 + a] with w = linspace(-1, 1, L),
    so all attributes co-vary through u[0] and `confounding` sets how
    strongly. The embedding map and outcome coefficients come from the
    parameter stream rooted at `param_seed` (outcome entries are standard
    normal times `beta_scale`), which keeps them fixed while `seed`
    varies the data. When embed_dim >= concept width the embedding map
    is orthonormalized, so each attribute occupies its own embedding
    subspace; a raw Gaussian map leaks every attribute into every
    direction, which penalizes residual-based recovery for reasons that
    have nothing to do with hiding concepts.
    """
    schema = ConceptSchema.of(attributes if attributes is not None else DEFAULT_ATTRIBUTES)
    n_attrs = len(schema.names)
    exo_dim = 1 + n_attrs
    mixing = {}
    for a, (name, levels) in enumerate(schema.attributes):
        w = np.linspace(-1.0, 1.0, len(levels))
        m = np.zeros((len(levels), exo_dim))
        m[:, 0] = confounding * w
        m[:, 1 + a] = w
        mixing[name] = m
    rng = np.random.default_rng(np.random.SeedSequence(param_seed, spawn_key=(2,)))
    embed_map = rng.standard_normal((embed_dim, schema.width))
    if embed_dim >= schema.width:
        q, r = np.linalg.qr(embed_map)
        embed_map = q * np.sign(np.diag(r))  # pin QR's per-column sign
    outcome_coef = beta_scale * rng.standard_normal((schema.width, n_classes))
    # Concepts matter unequally for the outcome, in schema order; mirrors
    # benchmarks where one or two concepts dominate the prediction.
    for a, (start, size) in enumerate(zip(schema.offsets.tolist(), schema.sizes.tolist())):
        outcome_coef[start : start + size] *= beta_decay**a
    return SynthConfig(
        n=n,
        exo_dim=exo_dim,
        schema=schema,
        mixing=mixing,
        embed_map=embed_map,
        outcome_coef=outcome_coef,
        embed_noise=embed_noise,
        outcome_noise=outcome_noise,
        hidden=frozenset(hidden),
        seed=seed,
        exact_recovery=exact_recovery,
    )


# ---------------------------------------------------------------------------
# config and ground-truth files


# keys either config form accepts
_COMMON_KEYS = frozenset(
    ("n", "seed", "attributes", "hidden", "embed_noise", "outcome_noise", "exact_recovery",
     "edits_per_sample")
)
_MATRIX_KEYS = frozenset(("mixing", "embed_map", "outcome_coef"))
# the `default_config` knobs that only the generated form accepts
_KNOB_KEYS = frozenset(
    ("n_classes", "embed_dim", "confounding", "beta_scale", "beta_decay", "param_seed")
)
# the JSON type of every key but the schema and the matrices, as `json_field` names it
_SCALAR_TYPES = {
    "n": "integer", "seed": "integer", "hidden": "strings", "embed_noise": "number",
    "outcome_noise": "number", "exact_recovery": "boolean", "edits_per_sample": "integer",
    "exo_dim": "integer", "n_classes": "integer", "embed_dim": "integer",
    "confounding": "number", "beta_scale": "number", "beta_decay": "number",
    "param_seed": "integer",
}


def load_synth_config(path: str | Path) -> tuple[SynthConfig, int]:
    """Read a config JSON; returns (config, edits_per_sample).

    Two forms are accepted. The explicit form carries the matrices
    (`mixing`, `embed_map`, `outcome_coef`, `exo_dim`). The generated
    form omits all of them and instead accepts the `default_config`
    knobs (`n_classes`, `embed_dim`, `confounding`, `beta_scale`,
    `beta_decay`, `param_seed`). Common keys: n, seed, attributes,
    hidden, embed_noise, outcome_noise, exact_recovery,
    edits_per_sample. A key that the config's form does not accept, or
    a value of another JSON type than the key's, is an error: a bool is
    never an integer, and no string is read as a number.
    """
    obj = read_json(path, "config")
    present = _MATRIX_KEYS & set(obj)
    if present and present != _MATRIX_KEYS:
        raise ValidationError(
            f"{path}: explicit configs need all of {sorted(_MATRIX_KEYS)}, got {sorted(present)}"
        )
    form = "explicit" if present else "generated"
    accepted = _COMMON_KEYS | (_MATRIX_KEYS | {"exo_dim"} if present else _KNOB_KEYS)
    unknown = sorted(set(obj) - accepted)
    if unknown:
        raise ValidationError(f"{path}: unknown key {unknown[0]!r} for a {form} config")
    # the keys present; each form's own defaults fill in the others
    given = {key: json_field(obj, key, kind, path) for key, kind in _SCALAR_TYPES.items() if key in obj}
    edits = given.pop("edits_per_sample", 1)
    if edits < 0:
        raise ValidationError(f"{path}: edits_per_sample must be a nonnegative integer")
    given["hidden"] = frozenset(given.get("hidden", ()))
    if present:
        for key in ("n", "exo_dim"):  # the explicit form has no default for these
            json_field(obj, key, "integer", path)
        mixing = json_field(obj, "mixing", "object", path)
    # errors below name no file; ValidationError is a ValueError
    try:
        if present:
            config = SynthConfig(
                schema=ConceptSchema.from_obj(obj),
                mixing={name: float_array(m, f"mixing[{name!r}]") for name, m in mixing.items()},
                embed_map=float_array(obj["embed_map"], "'embed_map'"),
                outcome_coef=float_array(obj["outcome_coef"], "'outcome_coef'"),
                **given,
            )
        else:
            attributes = ConceptSchema.from_obj(obj).attributes if "attributes" in obj else None
            config = default_config(attributes=attributes, **given)
    except ValueError as exc:
        raise ValidationError(f"{path}: malformed config ({exc})") from exc
    return config, edits


def save_ground_truth(truth: SynthGroundTruth, path: str | Path) -> Path:
    """Write ground_truth.json: `outcome_coef`, `seed` and `hidden`."""
    obj = {
        "outcome_coef": truth.outcome_coef.tolist(),
        "seed": truth.seed,
        "hidden": list(truth.hidden),
    }
    return write_json(path, obj)


def load_ground_truth(path: str | Path) -> SynthGroundTruth:
    """Read ground_truth.json; keys this version does not use are ignored.

    Older files also hold "clean_logits", "labels" or "pairs"; the
    oracle recomputes what they held. The noise draws are not saved
    (`draws` is None).
    """
    obj = read_json(path, "ground truth")
    try:
        coef = float_array(obj["outcome_coef"], f"{path}: 'outcome_coef'")
    except KeyError:
        raise ValidationError(f"{path}: missing required key 'outcome_coef'") from None
    except ValueError as exc:
        raise ValidationError(f"{path}: malformed ground truth ({exc})") from exc
    if coef.ndim != 2 or not np.isfinite(coef).all():
        raise ValidationError(f"{path}: 'outcome_coef' must be a matrix of finite numbers")
    seed = json_field(obj, "seed", "integer", path, 0)
    hidden = tuple(json_field(obj, "hidden", "strings", path, []))
    return SynthGroundTruth(coef, seed, hidden)
