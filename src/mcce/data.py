"""Concept schemas, one-hot encodings, datasets, and their file formats.

A dataset is three files:

schema.json
    {"attributes": [{"name": "food", "levels": ["neg", "unk", "pos"]}, ...]}

samples.jsonl
    {"id": "s000001", "concepts": {"food": "pos", ...},
     "embedding": [...], "logits": [...], "gold": 3}
    `gold` is optional. `logits` always holds the raw black-box outputs;
    probability-space operation applies a softmax at load time.

pairs.jsonl
    {"original_id": "s000001", "edited_id": "s000001__food__neg",
     "attribute": "food", "from": "pos", "to": "neg"}

Samples keep their complete concept labels in memory even when some
attributes are masked; masking is a view (`Dataset.mask`) and the hidden
labels are fenced behind the visibility-aware accessors (`encode_sample`,
`visible_labels`, `design_matrix`), which is what the explainers use.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ValidationError

SPACE_LOGIT = "logit"
SPACE_PROBABILITY = "probability"
SPACES = (SPACE_LOGIT, SPACE_PROBABILITY)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax; accepts a vector or a matrix."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    expz = np.exp(shifted)
    return expz / expz.sum(axis=-1, keepdims=True)


# os.umask can only be read by setting it; do that once, not per write,
# so concurrent writers never see the temporary value.
_UMASK = os.umask(0o022)
os.umask(_UMASK)


def write_text_atomic(path: str | Path, text: str) -> Path:
    """Write text via a temp file and rename, so readers never see partial files.

    Each call gets its own temp file beside `path`, so concurrent writers
    to one path never share it; a failed write removes it. The final
    file gets the mode a plain open() would give it under the umask.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.chmod(tmp, 0o666 & ~_UMASK)  # mkstemp creates files as 0600
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    return path


# ---------------------------------------------------------------------------
# schema


@dataclass(frozen=True)
class ConceptSchema:
    """Ordered attributes, each with an ordered tuple of >= 2 distinct levels.

    The one-hot layout gives each visible attribute a contiguous block of
    columns, one column per level, in declaration order.
    """

    attributes: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self):
        if not self.attributes:
            raise ValidationError("schema needs at least one attribute")
        seen: set[str] = set()
        for name, levels in self.attributes:
            if name in seen:
                raise ValidationError(f"duplicate attribute name {name!r}")
            seen.add(name)
            if len(levels) < 2 or len(set(levels)) != len(levels):
                raise ValidationError(
                    f"attribute {name!r} needs >= 2 distinct levels, got {levels!r}"
                )

    @classmethod
    def of(cls, pairs) -> "ConceptSchema":
        """Build from any iterable of (name, levels) pairs."""
        return cls(tuple((str(n), tuple(str(l) for l in ls)) for n, ls in pairs))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.attributes)

    @property
    def width(self) -> int:
        return sum(len(levels) for _, levels in self.attributes)

    def levels(self, attribute: str) -> tuple[str, ...]:
        for name, levels in self.attributes:
            if name == attribute:
                return levels
        raise ValidationError(f"unknown attribute {attribute!r}")

    def check_hidden(self, hidden) -> frozenset[str]:
        hidden = frozenset(str(h) for h in hidden)
        unknown = hidden - set(self.names)
        if unknown:
            raise ValidationError(f"hidden attributes not in schema: {sorted(unknown)}")
        if len(hidden) == len(self.attributes):
            raise ValidationError("cannot hide every attribute; nothing would stay visible")
        return hidden

    def visible_names(self, hidden=frozenset()) -> tuple[str, ...]:
        hidden = self.check_hidden(hidden)
        return tuple(name for name in self.names if name not in hidden)

    def visible_width(self, hidden=frozenset()) -> int:
        hidden = self.check_hidden(hidden)
        return sum(len(levels) for name, levels in self.attributes if name not in hidden)

    def visible_blocks(self, hidden=frozenset()) -> dict[str, slice]:
        """Column block of each visible attribute within the visible layout."""
        hidden = self.check_hidden(hidden)
        blocks: dict[str, slice] = {}
        offset = 0
        for name, levels in self.attributes:
            if name in hidden:
                continue
            blocks[name] = slice(offset, offset + len(levels))
            offset += len(levels)
        return blocks

    def visible_columns(self, hidden=frozenset()) -> list[int]:
        """Complete-layout column index of each visible-layout column."""
        hidden = self.check_hidden(hidden)
        cols: list[int] = []
        offset = 0
        for name, levels in self.attributes:
            if name not in hidden:
                cols.extend(range(offset, offset + len(levels)))
            offset += len(levels)
        return cols

    def to_obj(self) -> dict:
        return {
            "attributes": [
                {"name": name, "levels": list(levels)} for name, levels in self.attributes
            ]
        }

    @classmethod
    def from_obj(cls, obj) -> "ConceptSchema":
        if not isinstance(obj, dict) or "attributes" not in obj:
            raise ValidationError("schema object must have an 'attributes' list")
        pairs = []
        for entry in obj["attributes"]:
            try:
                pairs.append((entry["name"], entry["levels"]))
            except (TypeError, KeyError) as exc:
                raise ValidationError(f"bad schema attribute entry {entry!r}") from exc
        return cls.of(pairs)


def encode(schema: ConceptSchema, labels: dict, hidden=frozenset()) -> np.ndarray:
    """One-hot encode the visible attributes of a label map, in schema order."""
    hidden = schema.check_hidden(hidden)
    unknown = set(labels) - set(schema.names)
    if unknown:
        raise ValidationError(f"labels for unknown attributes: {sorted(unknown)}")
    out = np.zeros(schema.visible_width(hidden), dtype=np.float64)
    offset = 0
    for name, levels in schema.attributes:
        if name in hidden:
            continue
        if name not in labels:
            raise ValidationError(f"missing label for visible attribute {name!r}")
        level = labels[name]
        if level not in levels:
            raise ValidationError(f"unknown level {level!r} for attribute {name!r}")
        out[offset + levels.index(level)] = 1.0
        offset += len(levels)
    return out


def intervene(
    schema: ConceptSchema,
    vector: np.ndarray,
    attribute: str,
    to_level: str,
    hidden=frozenset(),
) -> np.ndarray:
    """Set one visible attribute's block to the one-hot of to_level."""
    hidden = schema.check_hidden(hidden)
    if attribute in hidden:
        raise ValidationError(f"cannot intervene on hidden attribute {attribute!r}")
    levels = schema.levels(attribute)
    if to_level not in levels:
        raise ValidationError(f"unknown level {to_level!r} for attribute {attribute!r}")
    vec = np.asarray(vector, dtype=np.float64)
    width = schema.visible_width(hidden)
    if vec.shape != (width,):
        raise ValidationError(
            f"concept vector must have shape ({width},), got {vec.shape}"
        )
    block = schema.visible_blocks(hidden)[attribute]
    out = vec.copy()
    out[block] = 0.0
    out[block.start + levels.index(to_level)] = 1.0
    return out


# ---------------------------------------------------------------------------
# samples, pairs, datasets


@dataclass(frozen=True, eq=False)
class Sample:
    id: str
    concept_labels: dict[str, str]
    embedding: np.ndarray
    blackbox_output: np.ndarray
    gold_label: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "id", str(self.id))
        emb = np.asarray(self.embedding, dtype=np.float64)
        out = np.asarray(self.blackbox_output, dtype=np.float64)
        if emb.ndim != 1 or out.ndim != 1:
            raise ValidationError(f"sample {self.id!r}: embedding and output must be 1-D")
        if not (np.isfinite(emb).all() and np.isfinite(out).all()):
            raise ValidationError(f"sample {self.id!r}: non-finite embedding or output")
        object.__setattr__(self, "embedding", emb)
        object.__setattr__(self, "blackbox_output", out)
        if self.gold_label is not None:
            gold = int(self.gold_label)
            if gold < 0:
                raise ValidationError(f"sample {self.id!r}: gold label must be >= 0")
            object.__setattr__(self, "gold_label", gold)


@dataclass(frozen=True)
class EditPair:
    original_id: str
    edited_id: str
    attribute: str
    from_level: str
    to_level: str


@dataclass(eq=False)
class Dataset:
    """Schema, samples, edit pairs, and the runtime attribute mask.

    Treat instances as immutable; `mask` and `to_space` return new views.
    """

    schema: ConceptSchema
    samples: tuple[Sample, ...]
    pairs: tuple[EditPair, ...] = ()
    hidden_attributes: frozenset[str] = frozenset()
    space: str = SPACE_LOGIT

    def __post_init__(self):
        self.samples = tuple(self.samples)
        self.pairs = tuple(self.pairs)
        self.hidden_attributes = self.schema.check_hidden(self.hidden_attributes)
        if self.space not in SPACES:
            raise ValidationError(f"space must be one of {SPACES}, got {self.space!r}")
        index: dict[str, Sample] = {}
        for sample in self.samples:
            if sample.id in index:
                raise ValidationError(f"duplicate sample id {sample.id!r}")
            index[sample.id] = sample
        self._index = index
        self._check_samples()
        self._check_pairs()
        edited = {pair.edited_id for pair in self.pairs}
        self._fit_samples = tuple(s for s in self.samples if s.id not in edited)

    def _check_samples(self):
        embed_dim = out_dim = None
        names = set(self.schema.names)
        for sample in self.samples:
            # complete labels in memory; hiding is a runtime view, not a data gap
            missing = names - set(sample.concept_labels)
            if missing:
                raise ValidationError(
                    f"sample {sample.id!r}: missing labels for {sorted(missing)}"
                )
            for attr, level in sample.concept_labels.items():
                if level not in self.schema.levels(attr):
                    raise ValidationError(
                        f"sample {sample.id!r}: illegal label {attr}={level!r}"
                    )
            if embed_dim is None:
                embed_dim, out_dim = sample.embedding.size, sample.blackbox_output.size
            elif sample.embedding.size != embed_dim or sample.blackbox_output.size != out_dim:
                raise ValidationError(
                    f"sample {sample.id!r}: ragged embedding or output length"
                )

    def _check_pairs(self):
        for pair in self.pairs:
            for sid in (pair.original_id, pair.edited_id):
                if sid not in self._index:
                    raise ValidationError(f"pair references unknown sample {sid!r}")
            levels = self.schema.levels(pair.attribute)
            if pair.from_level not in levels or pair.to_level not in levels:
                raise ValidationError(
                    f"pair {pair.original_id!r}->{pair.edited_id!r}: illegal level"
                )
            orig = self._index[pair.original_id].concept_labels
            edit = self._index[pair.edited_id].concept_labels
            if orig.get(pair.attribute) != pair.from_level:
                raise ValidationError(
                    f"pair {pair.original_id!r}: original label for "
                    f"{pair.attribute!r} is not {pair.from_level!r}"
                )
            if edit.get(pair.attribute) != pair.to_level:
                raise ValidationError(
                    f"pair {pair.edited_id!r}: edited label for "
                    f"{pair.attribute!r} is not {pair.to_level!r}"
                )
            for attr in set(orig) | set(edit):
                if attr == pair.attribute:
                    continue
                if orig.get(attr) != edit.get(attr):
                    raise ValidationError(
                        f"pair {pair.original_id!r}->{pair.edited_id!r}: "
                        f"off-attribute label {attr!r} differs"
                    )

    # -- views ------------------------------------------------------------

    def mask(self, hidden) -> "Dataset":
        """Same data with a different set of hidden attributes."""
        return replace(self, hidden_attributes=self.schema.check_hidden(hidden))

    def to_space(self, space: str) -> "Dataset":
        if space not in SPACES:
            raise ValidationError(f"space must be one of {SPACES}, got {space!r}")
        if space == self.space:
            return self
        if self.space != SPACE_LOGIT:
            raise ValidationError("cannot convert probability-space outputs back to logits")
        converted = tuple(
            Sample(
                id=s.id,
                concept_labels=s.concept_labels,
                embedding=s.embedding,
                blackbox_output=softmax(s.blackbox_output),
                gold_label=s.gold_label,
            )
            for s in self.samples
        )
        return replace(self, samples=converted, space=space)

    # -- accessors ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.samples)

    def by_id(self, sample_id: str) -> Sample:
        try:
            return self._index[sample_id]
        except KeyError:
            raise ValidationError(f"unknown sample id {sample_id!r}") from None

    def fit_samples(self) -> tuple[Sample, ...]:
        """Samples that are not the edited member of any pair (factual rows)."""
        return self._fit_samples

    def visible_labels(self, sample: Sample) -> dict[str, str]:
        return {
            attr: level
            for attr, level in sample.concept_labels.items()
            if attr not in self.hidden_attributes
        }

    def encode_sample(self, sample: Sample | str) -> np.ndarray:
        if isinstance(sample, str):
            sample = self.by_id(sample)
        return encode(self.schema, sample.concept_labels, self.hidden_attributes)

    @property
    def visible_width(self) -> int:
        return self.schema.visible_width(self.hidden_attributes)

    @property
    def embed_dim(self) -> int:
        if not self.samples:
            raise ValidationError("empty dataset has no embedding dimension")
        return self.samples[0].embedding.size

    @property
    def n_outputs(self) -> int:
        if not self.samples:
            raise ValidationError("empty dataset has no output dimension")
        return self.samples[0].blackbox_output.size

    def design_matrix(self, samples=None) -> np.ndarray:
        samples = self.samples if samples is None else tuple(samples)
        width = self.visible_width
        out = np.zeros((len(samples), width), dtype=np.float64)
        for i, sample in enumerate(samples):
            out[i] = self.encode_sample(sample)
        return out

    def embeddings(self, samples=None) -> np.ndarray:
        samples = self.samples if samples is None else tuple(samples)
        return np.stack([s.embedding for s in samples]) if samples else np.zeros((0, 0))

    def outputs(self, samples=None) -> np.ndarray:
        samples = self.samples if samples is None else tuple(samples)
        return np.stack([s.blackbox_output for s in samples]) if samples else np.zeros((0, 0))

    def gold_array(self, samples=None) -> np.ndarray:
        samples = self.samples if samples is None else tuple(samples)
        missing = [s.id for s in samples if s.gold_label is None]
        if missing:
            raise ValidationError(
                f"{len(missing)} samples lack gold labels (first: {missing[0]!r})"
            )
        return np.array([s.gold_label for s in samples], dtype=np.int64)


# ---------------------------------------------------------------------------
# file IO


def _reject_constant(token: str):
    raise ValidationError(f"non-finite float token {token!r}")


def _parse_json(text: str, where: str):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except ValidationError:
        raise
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{where}: invalid JSON ({exc.msg})") from exc


def _parse_jsonl(path: Path) -> list[tuple[int, dict]]:
    rows = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        obj = _parse_json(line, f"{path}:{lineno}")
        if not isinstance(obj, dict):
            raise ValidationError(f"{path}:{lineno}: expected a JSON object")
        rows.append((lineno, obj))
    return rows


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ValidationError(f"{where}: missing required key {key!r}")
    return obj[key]


def load_schema(schema_path: str | Path) -> ConceptSchema:
    path = Path(schema_path)
    if not path.exists():
        raise ValidationError(f"schema file not found: {path}")
    return ConceptSchema.from_obj(_parse_json(path.read_text(encoding="utf-8"), str(path)))


def load_dataset(
    samples_path: str | Path,
    pairs_path: str | Path | None,
    schema_path: str | Path,
    space: str = SPACE_LOGIT,
) -> Dataset:
    """Load the three-file dataset format; `pairs_path` may be None.

    Parse errors carry file and line; NaN/Infinity tokens are rejected.
    With space="probability" a softmax is applied to every output row.
    """
    schema = load_schema(schema_path)

    samples_path = Path(samples_path)
    if not samples_path.exists():
        raise ValidationError(f"samples file not found: {samples_path}")
    samples = []
    for lineno, obj in _parse_jsonl(samples_path):
        where = f"{samples_path}:{lineno}"
        labels = _require(obj, "concepts", where)
        if not isinstance(labels, dict):
            raise ValidationError(f"{where}: 'concepts' must be an object")
        try:
            samples.append(
                Sample(
                    id=_require(obj, "id", where),
                    concept_labels={str(k): str(v) for k, v in labels.items()},
                    embedding=_require(obj, "embedding", where),
                    blackbox_output=_require(obj, "logits", where),
                    gold_label=obj.get("gold"),
                )
            )
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from None

    pairs = []
    if pairs_path is not None:
        pairs_path = Path(pairs_path)
        if not pairs_path.exists():
            raise ValidationError(f"pairs file not found: {pairs_path}")
        for lineno, obj in _parse_jsonl(pairs_path):
            where = f"{pairs_path}:{lineno}"
            pairs.append(
                EditPair(
                    original_id=str(_require(obj, "original_id", where)),
                    edited_id=str(_require(obj, "edited_id", where)),
                    attribute=str(_require(obj, "attribute", where)),
                    from_level=str(_require(obj, "from", where)),
                    to_level=str(_require(obj, "to", where)),
                )
            )

    dataset = Dataset(schema=schema, samples=tuple(samples), pairs=tuple(pairs))
    return dataset.to_space(space)


def save_dataset(dataset: Dataset, out_dir: str | Path) -> dict[str, Path]:
    """Write schema.json, samples.jsonl, pairs.jsonl; logit-space datasets only.

    Serialized floats round-trip bit-exactly through `load_dataset`.
    """
    if dataset.space != SPACE_LOGIT:
        raise ValidationError("only logit-space datasets can be serialized")
    out_dir = Path(out_dir)
    paths = {
        "schema": out_dir / "schema.json",
        "samples": out_dir / "samples.jsonl",
        "pairs": out_dir / "pairs.jsonl",
    }
    write_text_atomic(
        paths["schema"], json.dumps(dataset.schema.to_obj(), indent=2, sort_keys=True) + "\n"
    )
    sample_lines = []
    for s in dataset.samples:
        obj = {
            "id": s.id,
            "concepts": {attr: s.concept_labels[attr] for attr in sorted(s.concept_labels)},
            "embedding": s.embedding.tolist(),
            "logits": s.blackbox_output.tolist(),
        }
        if s.gold_label is not None:
            obj["gold"] = s.gold_label
        sample_lines.append(json.dumps(obj, sort_keys=True, allow_nan=False))
    write_text_atomic(paths["samples"], "\n".join(sample_lines) + ("\n" if sample_lines else ""))
    pair_lines = [
        json.dumps(
            {
                "original_id": p.original_id,
                "edited_id": p.edited_id,
                "attribute": p.attribute,
                "from": p.from_level,
                "to": p.to_level,
            },
            sort_keys=True,
        )
        for p in dataset.pairs
    ]
    write_text_atomic(paths["pairs"], "\n".join(pair_lines) + ("\n" if pair_lines else ""))
    return paths
