"""Concept schemas, columnar datasets, and their file formats.

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

In memory a `Dataset` holds columns: sample ids, an (n, n_attrs) matrix
of level codes (each an index into its attribute's levels), embeddings,
outputs and gold labels, plus `EditPairs` whose names are resolved to
row, attribute and code indices once, at construction. Rows keep their
complete labels even when attributes are masked; masking is a view
(`Dataset.mask`), and `design_matrix` is where the mask takes effect:
it one-hot encodes the visible attributes only.
"""

from __future__ import annotations

import contextlib
import copy
import json
import os
import tempfile
from dataclasses import dataclass
from functools import cached_property
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


def index_of(table, values, order=None) -> np.ndarray:
    """Position in `table` (distinct entries) of each value; -1 where absent.

    `order` may pass a precomputed `np.argsort(table)`.
    """
    table, values = np.asarray(table), np.asarray(values)
    if table.size == 0:
        return np.full(values.shape, -1, dtype=np.int64)
    if order is None:
        order = np.argsort(table, kind="stable")
    at = order[np.minimum(np.searchsorted(table, values, sorter=order), table.size - 1)]
    return np.where(table[at] == values, at, -1)


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
    columns, one column per level, in declaration order. A level code is
    the index of a level within its attribute's tuple.
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

    @cached_property
    def sizes(self) -> np.ndarray:
        """Level count of each attribute."""
        return np.array([len(levels) for _, levels in self.attributes], dtype=np.int64)

    def levels(self, attribute: str) -> tuple[str, ...]:
        for name, levels in self.attributes:
            if name == attribute:
                return levels
        raise ValidationError(f"unknown attribute {attribute!r}")

    def level_codes(self, attributes, levels) -> np.ndarray:
        """Code of each level name under the attribute index beside it; -1 if not a level.

        The arguments broadcast against each other.
        """
        attributes, levels = np.broadcast_arrays(attributes, np.asarray(levels, dtype=str))
        codes = np.full(levels.shape, -1, dtype=np.int64)
        for a, (_, names) in enumerate(self.attributes):
            sel = attributes == a
            codes[sel] = index_of(np.array(names), levels[sel])
        return codes

    def level_names(self, attributes, codes) -> np.ndarray:
        """Level name of each (attribute index, code); the arguments broadcast."""
        table = np.array([level for _, levels in self.attributes for level in levels])
        return table[(np.cumsum(self.sizes) - self.sizes)[attributes] + codes]

    def check_hidden(self, hidden) -> frozenset[str]:
        hidden = frozenset(str(h) for h in hidden)
        unknown = hidden - set(self.names)
        if unknown:
            raise ValidationError(f"hidden attributes not in schema: {sorted(unknown)}")
        if len(hidden) == len(self.attributes):
            raise ValidationError("cannot hide every attribute; nothing would stay visible")
        return hidden

    def visible_mask(self, hidden=frozenset()) -> np.ndarray:
        """Whether each attribute is visible, in schema order."""
        hidden = self.check_hidden(hidden)
        return np.array([name not in hidden for name in self.names])

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


def one_hot(schema: ConceptSchema, codes, hidden=frozenset()) -> np.ndarray:
    """Visible one-hot layout of an (m, n_attrs) matrix of valid level codes."""
    codes = np.asarray(codes, dtype=np.int64)
    if codes.ndim != 2 or codes.shape[1] != len(schema.attributes):
        raise ValidationError(
            f"level codes must have shape (m, {len(schema.attributes)}), got {codes.shape}"
        )
    visible = schema.visible_mask(hidden)
    sizes = schema.sizes[visible]
    out = np.zeros((len(codes), int(sizes.sum())))
    out[np.arange(len(codes))[:, None], np.cumsum(sizes) - sizes + codes[:, visible]] = 1.0
    return out


# ---------------------------------------------------------------------------
# datasets


@dataclass(frozen=True, eq=False)
class EditPairs:
    """Edit pairs as columns: row `edited[i]` is row `original[i]` with
    attribute `attribute[i]` set to level code `to[i]`, all indices into
    the owning dataset."""

    original: np.ndarray = ()
    edited: np.ndarray = ()
    attribute: np.ndarray = ()
    to: np.ndarray = ()

    def __post_init__(self):
        for name in ("original", "edited", "attribute", "to"):
            column = np.asarray(getattr(self, name), dtype=np.int64).reshape(-1)
            object.__setattr__(self, name, column)
        if not self.original.size == self.edited.size == self.attribute.size == self.to.size:
            raise ValidationError("edit pair columns differ in length")

    def __len__(self) -> int:
        return self.original.size


def _matrix(value, ids: np.ndarray, what: str) -> np.ndarray:
    """`value` as a finite float64 matrix with one row per id."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} rows must be equal-length lists of numbers") from None
    if arr.size == 0 and ids.size == 0:
        arr = arr.reshape(0, arr.shape[-1] if arr.ndim == 2 else 0)
    if arr.ndim != 2 or arr.shape[0] != ids.size:
        raise ValidationError(
            f"{what} must hold one equal-length row per sample, got shape {arr.shape}"
        )
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        raise ValidationError(f"sample {ids[np.argmin(finite)]!r}: non-finite {what}")
    return arr


@dataclass(eq=False)
class Dataset:
    """Rows as columns, edit pairs, and the runtime attribute mask.

    Row i is sample `ids[i]` with level codes `codes[i]`, embedding
    `embeddings[i]`, black-box outputs `outputs[i]` and gold label
    `gold[i]` (-1 when absent). Every column is validated once, here;
    `mask` and `to_space` return views that share the arrays. Treat
    instances and their arrays as immutable.
    """

    schema: ConceptSchema
    ids: np.ndarray
    codes: np.ndarray
    embeddings: np.ndarray
    outputs: np.ndarray
    gold: np.ndarray | None = None
    pairs: EditPairs = EditPairs()
    hidden_attributes: frozenset[str] = frozenset()
    space: str = SPACE_LOGIT

    def __post_init__(self):
        schema, n_attrs = self.schema, len(self.schema.attributes)
        self.hidden_attributes = schema.check_hidden(self.hidden_attributes)
        if self.space not in SPACES:
            raise ValidationError(f"space must be one of {SPACES}, got {self.space!r}")
        ids = self.ids = np.asarray(self.ids, dtype=str).reshape(-1)
        ordered = ids[self.id_order]
        dup = np.flatnonzero(ordered[1:] == ordered[:-1])
        if dup.size:
            raise ValidationError(f"duplicate sample id {ordered[dup[0]]!r}")

        codes = self.codes = np.asarray(self.codes, dtype=np.int64)
        if codes.shape != (ids.size, n_attrs) or np.any((codes < 0) | (codes >= schema.sizes)):
            raise ValidationError("level codes need one in-range code per sample and attribute")
        self.embeddings = _matrix(self.embeddings, ids, "embedding")
        self.outputs = _matrix(self.outputs, ids, "output")
        gold = np.full(ids.size, -1) if self.gold is None else self.gold
        gold = self.gold = np.asarray(gold, dtype=np.int64).reshape(-1)
        if gold.size != ids.size or np.any(gold < -1):
            raise ValidationError("gold labels need one value >= 0 (or -1 for none) per sample")

        p = self.pairs
        rows = np.concatenate([p.original, p.edited])
        out_of_range = np.any((rows < 0) | (rows >= ids.size))
        if out_of_range or np.any((p.attribute < 0) | (p.attribute >= n_attrs)):
            raise ValidationError("edit pairs reference rows or attributes out of range")
        if np.any((p.to < 0) | (p.to >= schema.sizes[p.attribute])):
            raise ValidationError("edit pairs set a level code out of range")
        span = np.arange(len(p))
        diff = codes[p.original] != codes[p.edited]
        diff[span, p.attribute] = codes[p.edited, p.attribute] != p.to
        if diff.any():
            i, a = np.argwhere(diff)[0]
            raise ValidationError(
                f"pair {ids[p.original[i]]!r}->{ids[p.edited[i]]!r}: label for "
                f"{schema.names[a]!r} does not match the edit"
            )
        factual = np.ones(ids.size, dtype=bool)
        factual[p.edited] = False
        self.fit_rows = np.flatnonzero(factual)

    @classmethod
    def from_records(
        cls, schema, ids, concepts, embeddings, outputs, gold=None, pairs=()
    ) -> "Dataset":
        """Build from rows as the files hold them, resolving names to codes once.

        `concepts` has one {attribute: level} dict per row and `gold` one
        int or None per row; each pair is (original_id, edited_id,
        attribute, from_level, to_level).
        """
        ids = np.asarray(ids, dtype=str).reshape(-1)
        names = schema.names
        try:
            labels = np.array([[c.get(a) for a in names] for c in concepts], dtype=object)
            labels = labels.reshape(ids.size, len(names))
        except ValueError:
            raise ValidationError("concept labels must be one level name per attribute") from None
        absent = np.equal(labels, None)
        if absent.any():
            i, a = np.argwhere(absent)[0]
            raise ValidationError(f"sample {ids[i]!r}: missing label for {names[a]!r}")
        extra = np.fromiter(map(len, concepts), np.int64, ids.size) != len(names)
        if extra.any():
            raise ValidationError(
                f"sample {ids[np.argmax(extra)]!r}: labels for unknown attributes"
            )
        labels = labels.astype(str)
        codes = schema.level_codes(np.arange(len(names)), labels)
        if np.any(codes < 0):
            i, a = np.argwhere(codes < 0)[0]
            raise ValidationError(f"sample {ids[i]!r}: illegal label {names[a]}={labels[i, a]!r}")
        if gold is not None:
            gold = np.array(gold, dtype=object).reshape(-1)
            missing = np.equal(gold, None)
            gold[missing] = -1
            try:
                gold = gold.astype(np.int64)
            except (TypeError, ValueError):
                raise ValidationError("gold labels must be integers") from None
            if np.any(gold[~missing] < 0):
                raise ValidationError("gold label must be >= 0")

        cols = [np.asarray(col, dtype=str) for col in zip(*pairs)] or [np.zeros(0, str)] * 5
        original, edited = index_of(ids, cols[0]), index_of(ids, cols[1])
        for rows, wanted in ((original, cols[0]), (edited, cols[1])):
            if np.any(rows < 0):
                raise ValidationError(f"pair references unknown sample {wanted[np.argmin(rows)]!r}")
        attribute = index_of(np.array(names), cols[2])
        if np.any(attribute < 0):
            raise ValidationError(f"pair names unknown attribute {cols[2][np.argmin(attribute)]!r}")
        from_codes = schema.level_codes(attribute, cols[3])
        to = schema.level_codes(attribute, cols[4])
        bad = (from_codes < 0) | (to < 0) | (from_codes != codes[original, attribute])
        if bad.any():
            i = np.argmax(bad)
            raise ValidationError(
                f"pair {cols[0][i]!r}->{cols[1][i]!r}: illegal level, or the original's "
                f"{cols[2][i]!r} label is not {cols[3][i]!r}"
            )
        pairs = EditPairs(original, edited, attribute, to)
        return cls(schema, ids, codes, embeddings, outputs, gold, pairs)

    # -- views ------------------------------------------------------------

    def _view(self, **changes) -> "Dataset":
        view = copy.copy(self)
        view.__dict__.update(changes)
        return view

    def mask(self, hidden) -> "Dataset":
        """Same rows with a different set of hidden attributes."""
        return self._view(hidden_attributes=self.schema.check_hidden(hidden))

    def to_space(self, space: str) -> "Dataset":
        if space not in SPACES:
            raise ValidationError(f"space must be one of {SPACES}, got {space!r}")
        if space == self.space:
            return self
        if self.space != SPACE_LOGIT:
            raise ValidationError("cannot convert probability-space outputs back to logits")
        return self._view(outputs=softmax(self.outputs), space=space)

    # -- accessors ----------------------------------------------------------

    def __len__(self) -> int:
        return self.ids.size

    @property
    def samples(self) -> np.ndarray:
        """Alias of `ids`: one entry per row, so `len(dataset.samples)` counts rows."""
        return self.ids

    @cached_property
    def id_order(self) -> np.ndarray:
        """Row order that sorts `ids`, for lookups by id."""
        return np.argsort(self.ids, kind="stable")

    def rows_of(self, ids) -> np.ndarray:
        """Row index of each sample id."""
        ids = np.asarray(ids, dtype=str)
        rows = index_of(self.ids, ids, self.id_order)
        if np.any(rows < 0):
            raise ValidationError(f"unknown sample id {ids.reshape(-1)[np.argmin(rows)]!r}")
        return rows

    @property
    def visible_width(self) -> int:
        return self.schema.visible_width(self.hidden_attributes)

    def design_matrix(self, rows=None) -> np.ndarray:
        """Visible one-hot design of `rows` (default: every row)."""
        codes = self.codes if rows is None else self.codes[rows]
        return one_hot(self.schema, codes, self.hidden_attributes)

    def pair_names(self, pairs) -> tuple[np.ndarray, ...]:
        """(original id, attribute, from level, to level) of the pairs at index `pairs`."""
        p, schema = self.pairs, self.schema
        rows, attribute = p.original[pairs], p.attribute[pairs]
        return (
            self.ids[rows],
            np.array(schema.names)[attribute],
            schema.level_names(attribute, self.codes[rows, attribute]),
            schema.level_names(attribute, p.to[pairs]),
        )

    def unique_pairs(self) -> np.ndarray:
        """Index of the first pair with each (original, attribute, to) key, in pair order."""
        p, top = self.pairs, int(self.schema.sizes.max())
        key = (p.original * len(self.schema.attributes) + p.attribute) * top + p.to
        return np.sort(np.unique(key, return_index=True)[1])


# ---------------------------------------------------------------------------
# file IO


def _reject_constant(token: str):
    raise ValidationError(f"non-finite float token {token!r}")


# One decoder for every parse and one encoder for every JSONL row:
# json.loads and json.dumps would build a new one per call.
_STRICT_JSON = json.JSONDecoder(parse_constant=_reject_constant)
_ROW_JSON = json.JSONEncoder(sort_keys=True, allow_nan=False)


def _parse_json(text: str, where: str):
    try:
        return _STRICT_JSON.decode(text)
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
    ids, concepts, embeddings, outputs, gold = [], [], [], [], []
    for lineno, obj in _parse_jsonl(samples_path):
        where = f"{samples_path}:{lineno}"
        labels = _require(obj, "concepts", where)
        if not isinstance(labels, dict):
            raise ValidationError(f"{where}: 'concepts' must be an object")
        ids.append(_require(obj, "id", where))
        concepts.append(labels)
        embeddings.append(_require(obj, "embedding", where))
        outputs.append(_require(obj, "logits", where))
        gold.append(obj.get("gold"))

    pairs = []
    if pairs_path is not None:
        pairs_path = Path(pairs_path)
        if not pairs_path.exists():
            raise ValidationError(f"pairs file not found: {pairs_path}")
        for lineno, obj in _parse_jsonl(pairs_path):
            where = f"{pairs_path}:{lineno}"
            keys = ("original_id", "edited_id", "attribute", "from", "to")
            pairs.append(tuple(str(_require(obj, key, where)) for key in keys))

    dataset = Dataset.from_records(schema, ids, concepts, embeddings, outputs, gold, pairs)
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
    schema, ids, p = dataset.schema, dataset.ids, dataset.pairs
    write_text_atomic(
        paths["schema"], json.dumps(schema.to_obj(), indent=2, sort_keys=True) + "\n"
    )
    names = schema.names
    labels = schema.level_names(np.arange(len(names)), dataset.codes)
    sample_lines = []
    for sid, row, emb, out, gold in zip(
        ids.tolist(),
        labels.tolist(),
        dataset.embeddings.tolist(),
        dataset.outputs.tolist(),
        dataset.gold.tolist(),
    ):
        obj = {"id": sid, "concepts": dict(zip(names, row)), "embedding": emb, "logits": out}
        if gold >= 0:
            obj["gold"] = gold
        sample_lines.append(_ROW_JSON.encode(obj))
    write_text_atomic(paths["samples"], "\n".join(sample_lines) + ("\n" if sample_lines else ""))
    columns = (ids[p.edited], *dataset.pair_names(slice(None)))
    keys = ("edited_id", "original_id", "attribute", "from", "to")
    pair_lines = [
        _ROW_JSON.encode(dict(zip(keys, values))) for values in zip(*(col.tolist() for col in columns))
    ]
    write_text_atomic(paths["pairs"], "\n".join(pair_lines) + ("\n" if pair_lines else ""))
    return paths
