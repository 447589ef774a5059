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

Counterfactual pairs reuse a sample's embedding and output noise draws
with one attribute's level changed, so the paired outputs differ by the
exact coefficient contrast and the paired embeddings by the exact
embedding-map contrast. `float_rows` builds every float row, a block of
rows at a time, for `generate`, for `make_pairs` and for a writer that
streams them to files (`mcce synth`): each pass over the rows draws each
sample's noise row again from its stream, which gives it the same bits,
so no noise matrix is kept. `synthesize_sample` is the per-sample
reference that all must equal bit for bit.

Every product above is a sum in a fixed order, taken elementwise over
however many samples there are: `mixing[a] @ u` adds
`u[k] * mixing[a][:, k]` over k in order (`_scores`), and a product with
c adds the row of each attribute's level in schema order
(`_one_hot_product`). IEEE addition and multiplication round each entry
alike on one row or on n rows, so the batched `generate`, `make_pairs`
and `oracle_effect` equal `synthesize_sample` by construction, and no
row depends on the BLAS kernel, as a matrix product's rounding would.

The oracle needs no stored outputs: a row's clean outputs are its
complete labels' one-hot product with `outcome_coef`, which
`oracle_effect` recomputes from the dataset's labels by the same sum
that made them.

Stream layout (numpy SeedSequence spawn keys under `seed`, portable
across runs):

    (0, 0)  latent states: one (n, exo_dim) standard normal matrix
    (0, 1)  Gumbel noise: one (n, width) matrix, each row's levels in
            schema order
    (0, 2)  embedding then output noise: one (n, embed_dim + n_outputs)
            standard normal matrix
    (1, 0)  edited attributes: one (n, n_attrs) uniform matrix; a sample
            flips the attributes of the first `edits_per_sample` columns
            of its row's stable argsort
    (1, 1)  edit targets: one bounded integer per edit, in row order
    (2,)    parameter draws for generated configs, rooted at param_seed

Each matrix is drawn row-major from its own stream, so row i depends
only on (seed, i): a larger n extends a smaller n's samples and edits
and leaves them as they were. For the same reason, a matrix drawn a
block of rows at a time, in order, is the matrix drawn whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .data import (
    ConceptSchema,
    Dataset,
    EditPairs,
    float_array,
    id_bytes,
    json_field,
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
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValidationError(f"n must be a positive integer, got {self.n!r}")
        if not isinstance(self.exo_dim, (int, np.integer)) or self.exo_dim < 1:
            raise ValidationError(f"exo_dim must be a positive integer, got {self.exo_dim!r}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValidationError(f"seed must be a nonnegative integer, got {self.seed!r}")
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

    @property
    def width(self) -> int:
        return self.schema.width

    @property
    def embed_dim(self) -> int:
        return self.embed_map.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.outcome_coef.shape[1]

    @property
    def stream_widths(self) -> tuple[int, int, int]:
        """Columns of the latent, Gumbel and noise streams (see "Stream layout")."""
        return self.exo_dim, self.width, self.embed_dim + self.n_outputs


@dataclass(eq=False)
class SynthGroundTruth:
    """Oracle bookkeeping: the outcome coefficients the clean outputs come from."""

    outcome_coef: np.ndarray


def synthesize_sample(config: SynthConfig, index: int, edit: tuple[int, int] | None = None):
    """Draw sample `index`, optionally with one attribute forced to a level.

    `edit` is (attribute index, level code). The draws are row `index`
    of each sample stream, which depends only on (seed, index), so an
    edited call regenerates the counterfactual of the same underlying
    draw. Returns (level codes, embedding, outputs, clean outputs); the
    gold label is the argmax of the clean outputs.
    """
    if not 0 <= index < config.n:
        raise ValidationError(f"sample index must be in [0, {config.n}), got {index!r}")
    index = int(index)
    # a pass over the samples in order redraws log2(n) prefixes, not n
    prefix = _prefix_draws(config.seed, 1 << index.bit_length(), config.stream_widths)
    latent, gumbel, noise = (matrix[index : index + 1] for matrix in prefix)
    codes = _levels(config, latent, gumbel)
    if edit is not None:
        codes[0, edit[0]] = edit[1]
    return (codes[0], *(rows[0] for rows in _rows(config, codes, noise)))


def _stream(seed: int, *key: int) -> np.random.Generator:
    """The generator of spawn key `key` under `seed` (see "Stream layout")."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _sample_draws(seed: int, n: int, widths: tuple[int, int, int]) -> tuple[np.ndarray, ...]:
    """Rows 0 to n-1 of the latent, Gumbel and noise streams, `widths` columns each.

    Each is one row-major matrix draw, so its rows are the first n rows
    of any longer draw.
    """
    latent, gumbel, noise = widths
    return (
        _stream(seed, 0, 0).standard_normal((n, latent)),
        _stream(seed, 0, 1).gumbel(size=(n, gumbel)),
        _stream(seed, 0, 2).standard_normal((n, noise)),
    )


# `synthesize_sample`'s draws: the last prefix it drew, which it reads and never writes.
_prefix_draws = lru_cache(maxsize=1)(_sample_draws)


def _scores(mixing: np.ndarray, latent: np.ndarray) -> np.ndarray:
    """`latent @ mixing.T`, as the sum over k in order of `latent[..., k] * mixing[:, k]`.

    `latent` is one state or a matrix of them, one per row. Each score is
    the same elementwise products and additions either way, so it has
    the same bits for one sample as for n.
    """
    total = latent[..., 0, None] * mixing[:, 0]
    for k in range(1, mixing.shape[1]):
        total += latent[..., k, None] * mixing[:, k]
    return total


def _one_hot_product(schema: ConceptSchema, codes: np.ndarray, table: np.ndarray) -> np.ndarray:
    """`one_hot(codes) @ table`, as the sum in schema order of each attribute's row of `table`.

    `codes` holds complete level codes, one row of them or a matrix; the
    term of attribute a is `table[offsets[a] + codes[..., a]]`. As in
    `_scores`, one row and n rows give the same bits.
    """
    offsets, codes = schema.offsets.tolist(), np.asarray(codes, dtype=np.int64)  # offsets pass 255
    total = table.take(offsets[0] + codes[..., 0], axis=0)  # a copy, also of one row
    for a in range(1, len(offsets)):
        total += table.take(offsets[a] + codes[..., a], axis=0)
    return total


def _levels(config: SynthConfig, latent: np.ndarray, gumbel: np.ndarray) -> np.ndarray:
    """Level codes of rows of latent states and Gumbel noise: per attribute, the argmax of the sum."""
    schema = config.schema
    return np.column_stack(
        [
            (_scores(config.mixing[name], latent) + gumbel[:, start : start + size]).argmax(axis=1)
            for name, start, size in zip(schema.names, schema.offsets.tolist(), schema.sizes.tolist())
        ]
    )


def _rows(config: SynthConfig, codes: np.ndarray, draws: np.ndarray):
    """(embeddings, outputs, clean outputs) of rows with level `codes` and noise `draws`.

    Each is `synthesize_sample`'s expression, taken over all rows at once:
    the one-hot sums of `outcome_coef` and `embed_map.T` in schema order,
    plus the scaled noise.
    """
    dim = config.embed_dim
    clean = _one_hot_product(config.schema, codes, config.outcome_coef)
    embeddings = _one_hot_product(config.schema, codes, config.embed_map.T)
    embeddings += config.embed_noise * draws[:, :dim]
    return embeddings, clean + config.outcome_noise * draws[:, dim:], clean


# Rows that one block holds at most: `float_rows` draws the noise of
# `_BLOCK_ROWS // e` samples at a time for rows that take e noise rows from
# each sample, and `generate` and `make_pairs` build other rows a block of
# `_BLOCK_ROWS` at a time, so their temporaries stay small beside what they
# return.
_BLOCK_ROWS = 1024


def _blocks(size: int) -> list[slice]:
    """Consecutive slices of at most `_BLOCK_ROWS` of `size` rows."""
    return [slice(start, min(start + _BLOCK_ROWS, size)) for start in range(0, size, _BLOCK_ROWS)]


def _gold(config: SynthConfig, codes: np.ndarray) -> np.ndarray:
    """Gold label of rows of complete level `codes`: the argmax of `_rows`'s clean outputs."""
    gold = np.empty(len(codes), dtype=np.int64)
    for block in _blocks(len(codes)):
        gold[block] = _one_hot_product(config.schema, codes[block], config.outcome_coef).argmax(axis=1)
    return gold


def float_rows(config: SynthConfig, codes: np.ndarray, original=()):
    """Yield (embeddings, outputs) of the rows of a draw, a block of rows at a time in row order.

    The rows are laid out as `make_pairs` lays them out: the config's n
    samples, then one edited row for each entry of `original`, which
    ascends, of sample `original[i]`'s draw. `codes` holds every row's
    level codes. Each pass over the rows, the factual ones and then the
    edited ones, draws the (0, 2) stream's noise rows again a block of
    samples at a time, and each block yields `_rows` of the rows whose
    sample lies in it: so each row equals `synthesize_sample`'s, bit for
    bit, and neither a whole noise matrix nor a whole float matrix is
    held.
    """
    n, original = config.n, np.asarray(original, dtype=np.int64)
    # (first row, sample of each row, samples per block); no samples: row i is sample i's
    passes = [(0, None, _BLOCK_ROWS)]
    if original.size:
        passes.append((n, original, max(1, _BLOCK_ROWS * n // original.size)))
    for offset, sources, samples in passes:
        noise, start = _stream(config.seed, 0, 2), 0
        for first in range(0, n, samples):
            draws = noise.standard_normal((min(samples, n - first), config.stream_widths[2]))
            if sources is None:
                stop = first + len(draws)
            else:
                stop = int(np.searchsorted(sources, first + len(draws)))
                draws = draws[sources[start:stop] - first]
            yield _rows(config, codes[offset + start : offset + stop], draws)[:2]
            start = stop
            del draws  # before the next block's draw


def _float_matrices(config: SynthConfig, codes: np.ndarray, original, floats: bool):
    """The embedding and output matrices of `float_rows`, filled a block at a time.

    With `floats` false both are zero-width, as `Dataset.keep(columns=())`
    leaves them, for a caller that takes the rows from `float_rows` itself.
    """
    widths = (config.embed_dim, config.n_outputs) if floats else (0, 0)
    matrices = tuple(np.empty((len(codes), width)) for width in widths)
    if not floats:
        return matrices
    start = 0
    for blocks in float_rows(config, codes, original):
        for matrix, block in zip(matrices, blocks):
            matrix[start : start + len(block)] = block
        start += len(blocks[0])
    return matrices


def generate(config: SynthConfig, floats: bool = True) -> tuple[Dataset, SynthGroundTruth]:
    """Draw the configured dataset, with every attribute visible, and its ground truth.

    A run hides attributes from an estimator by masking the dataset
    (`Dataset.mask`); the draw does not depend on any mask.

    The latent states and the Gumbel noise of every level are drawn from
    their streams a block of samples at a time, in order, so row i is
    what `synthesize_sample` takes for sample i; the levels (`_levels`)
    are the fixed-order sums that it takes of its one row. The embedding
    and output rows come from `float_rows`, unless `floats` is false
    (`_float_matrices`).
    """
    n, (exo_dim, width, _) = config.n, config.stream_widths
    latent, gumbel = _stream(config.seed, 0, 0), _stream(config.seed, 0, 1)
    codes = np.concatenate([
        _levels(config, latent.standard_normal((b.stop - b.start, exo_dim)),
                gumbel.gumbel(size=(b.stop - b.start, width)))
        for b in _blocks(n)
    ])
    embeddings, outputs = _float_matrices(config, codes, (), floats)
    ids = np.array([b"s%06d" % i for i in range(n)])
    dataset = Dataset(config.schema, ids, codes, embeddings, outputs, _gold(config, codes))
    return dataset, SynthGroundTruth(config.outcome_coef.copy())


def make_pairs(
    dataset: Dataset, config: SynthConfig, edits_per_sample: int = 1, floats: bool = True
) -> Dataset:
    """Append counterfactual edits of every sample.

    Each sample gets `edits_per_sample` flips on distinct attributes (any
    attribute may flip, hidden or not): those of the first columns of a
    stable argsort of its row of the (1, 0) stream's uniforms. Each flip
    moves to a level drawn from the (1, 1) stream, one bounded integer
    per edit in row order, that skips the current level. Both streams
    give sample i's edits from its row alone, so they do not depend on n.

    `dataset` holds the rows of `generate(config)`, of which make_pairs
    reads the ids, level codes and gold labels; it needs none of their
    floats (see `Dataset.keep`). The edited rows, each the sample's level
    codes with one code changed, follow the factual ones. Every row's
    embedding and outputs come from `float_rows`, so each equals
    `synthesize_sample`, called with the edit for an edited row, unless
    `floats` is false (`_float_matrices`). Fitting still sees only the
    factual rows.
    """
    if len(dataset.pairs):
        raise ValidationError("make_pairs expects a dataset without existing pairs")
    schema = config.schema
    n, n_attrs = len(dataset), len(schema.names)
    if not isinstance(edits_per_sample, (int, np.integer)) or not 1 <= edits_per_sample <= n_attrs:
        raise ValidationError(
            f"edits_per_sample must be an integer in [1, {n_attrs}], got {edits_per_sample!r}"
        )
    if n != config.n:
        raise ValidationError(f"make_pairs needs the {config.n} rows of generate(config), got {n}")
    attribute = (
        _stream(config.seed, 1, 0).random((n, n_attrs)).argsort(axis=1, kind="stable")
    )[:, :edits_per_sample].reshape(-1)
    original = np.repeat(np.arange(n), edits_per_sample)
    to = _stream(config.seed, 1, 1).integers(schema.sizes[attribute] - 1)
    to += to >= dataset.codes[original, attribute]  # skip the current level
    # "__<attribute>__<level>" for every column of the one-hot layout
    suffixes = id_bytes([f"__{name}__{level}" for name, levels in schema.attributes for level in levels])

    total = n + original.size
    ids = np.empty(total, dtype=f"S{dataset.ids.itemsize + suffixes.itemsize}")
    codes = np.empty((total, n_attrs), dtype=schema.code_dtype)
    ids[:n], codes[:n] = dataset.ids, dataset.codes
    edited = codes[n:]
    edited[:] = dataset.codes[original]
    edited[np.arange(original.size), attribute] = to
    for block in _blocks(original.size):
        suffix = suffixes[schema.offsets[attribute[block]] + to[block]]
        ids[n + block.start : n + block.stop] = np.char.add(dataset.ids[original[block]], suffix)
    gold = np.concatenate([dataset.gold, _gold(config, edited)])
    del attribute, to  # before the new dataset's checks
    embeddings, outputs = _float_matrices(config, codes, original, floats)
    return Dataset(
        dataset.schema, ids, codes, embeddings, outputs, gold,
        EditPairs(original, np.arange(n, total)),
        hidden_attributes=dataset.hidden_attributes,
        space=dataset.space,
    )


def oracle_effect(truth: SynthGroundTruth, dataset: Dataset, space: str) -> np.ndarray:
    """Exact effect of every pair of `dataset`, in the requested space.

    Each row's clean logits are its complete labels' one-hot row times
    `truth.outcome_coef`, taken as the sum in schema order of each
    attribute's coefficient row (`_one_hot_product`) that `generate` and
    `make_pairs` take, so they equal the generator's bit for bit.
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
    before = _one_hot_product(dataset.schema, dataset.codes[p.original], coef)
    after = _one_hot_product(dataset.schema, dataset.codes[dataset.edited_rows()], coef)
    if space == "probability":
        before, after = softmax(before), softmax(after)
    return after - before


# ---------------------------------------------------------------------------
# generated default configuration


def default_config(
    n: int = 2000,
    seed: int = 0,
    *,
    attributes=None,
    n_classes: int = 5,
    embed_dim: int = 16,
    confounding: float = 1.0,
    beta_scale: float = 0.4,
    beta_decay: float = 0.6,
    embed_noise: float = 0.0,
    outcome_noise: float = 0.05,
    param_seed: int = 7,
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
        seed=seed,
    )


# ---------------------------------------------------------------------------
# config and ground-truth files


# keys either config form accepts
_COMMON_KEYS = frozenset(("n", "seed", "attributes", "embed_noise", "outcome_noise", "edits_per_sample"))
_MATRIX_KEYS = frozenset(("mixing", "embed_map", "outcome_coef"))
# the `default_config` knobs that only the generated form accepts
_KNOB_KEYS = frozenset(
    ("n_classes", "embed_dim", "confounding", "beta_scale", "beta_decay", "param_seed")
)
# the JSON type of every key but the schema and the matrices, as `json_field` names it
_SCALAR_TYPES = {
    "n": "integer", "seed": "integer", "embed_noise": "number", "outcome_noise": "number",
    "edits_per_sample": "integer", "exo_dim": "integer", "n_classes": "integer",
    "embed_dim": "integer", "confounding": "number", "beta_scale": "number",
    "beta_decay": "number", "param_seed": "integer",
}


def load_synth_config(path: str | Path) -> tuple[SynthConfig, int]:
    """Read a config JSON; returns (config, edits_per_sample).

    Two forms are accepted. The explicit form carries the matrices
    (`mixing`, `embed_map`, `outcome_coef`, `exo_dim`). The generated
    form omits all of them and instead accepts the `default_config`
    knobs (`n_classes`, `embed_dim`, `confounding`, `beta_scale`,
    `beta_decay`, `param_seed`). Common keys: n, seed, attributes,
    embed_noise, outcome_noise, edits_per_sample. A config describes the
    draw only: which attributes a run hides is the run's (`fit` and
    `explain --hidden`). A key that the config's form does not accept, or
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
    """Write ground_truth.json: `outcome_coef`."""
    return write_json(path, {"outcome_coef": truth.outcome_coef.tolist()})


def load_ground_truth(path: str | Path) -> SynthGroundTruth:
    """Read ground_truth.json; `outcome_coef` is required.

    Other keys are ignored: older files also hold "hidden" and "seed",
    which no command reads, and "clean_logits", "labels" or "pairs",
    which the oracle recomputes.
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
    return SynthGroundTruth(coef)
