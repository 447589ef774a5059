"""Concept schemas, columnar datasets, and every file format of the package.

A dataset is three files:

schema.json
    {"attributes": [{"name": "food", "levels": ["neg", "unk", "pos"]}, ...]}

samples.jsonl
    {"id": "s000001", "concepts": {"food": "pos", ...},
     "embedding": [...], "logits": [...], "gold": 3}
    `gold` is optional: an integer label or null. `logits` always holds
    the raw black-box outputs; probability-space operation applies a
    softmax at load time.

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

This is the one module that knows JSON, JSONL and CSV syntax. Models,
effects, ground truth, configs, reports and predictions are read and
written by other modules through `read_json`, `write_json`,
`read_jsonl` (typed columns, with file:line errors), `write_jsonl`
(built a column at a time), `float_array` (JSON numbers only) and
`csv_text`. JSONL files are read and written a chunk of rows at a time,
so no file is held whole as Python objects.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import gc
import io
import json
import os
import tempfile
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, islice
from json.encoder import encode_basestring_ascii
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


def write_text_atomic(path: str | Path, text: str | Iterable[str]) -> Path:
    """Write text via a temp file and rename, so readers never see partial files.

    `text` is one string or an iterable of string pieces, written in
    order; a generator of pieces lets the caller build a large file a
    part at a time instead of holding its whole text. Each call gets its
    own temp file beside `path`, so concurrent writers to one path never
    share it; a failed write, including one raised while a piece is
    built, removes it. The final file gets the mode a plain open() would
    give it under the umask.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
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
    the index of a level within its attribute's tuple. The schema owns
    that layout: `offsets` holds each attribute's first column when
    nothing is hidden, the `visible_*` methods derive the masked layout
    from `visible_mask`, and `one_hot` encodes codes in it.
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

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.attributes)

    @cached_property
    def sizes(self) -> np.ndarray:
        """Level count of each attribute."""
        return np.array([len(levels) for _, levels in self.attributes], dtype=np.int64)

    @cached_property
    def offsets(self) -> np.ndarray:
        """First column of each attribute in the complete layout."""
        return _starts(self.sizes)

    @property
    def width(self) -> int:
        return int(self.sizes.sum())

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
        return table[self.offsets[attributes] + codes]

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
        return tuple(compress(self.names, self.visible_mask(hidden)))

    def visible_width(self, hidden=frozenset()) -> int:
        return int(self.sizes[self.visible_mask(hidden)].sum())

    def visible_blocks(self, hidden=frozenset()) -> dict[str, slice]:
        """Column block of each visible attribute within the visible layout."""
        visible = self.visible_mask(hidden)
        sizes = self.sizes[visible]
        starts = _starts(sizes)
        ends = starts + sizes
        return dict(zip(compress(self.names, visible), map(slice, starts.tolist(), ends.tolist())))

    def to_obj(self) -> dict:
        return {
            "attributes": [
                {"name": name, "levels": list(levels)} for name, levels in self.attributes
            ]
        }

    @classmethod
    def from_obj(cls, obj) -> "ConceptSchema":
        """Read decoded `to_obj` JSON: each name a string, each levels a list of strings.

        Unlike `of`, it converts nothing, so a number or a string of
        levels is an error, not a schema.
        """
        if not isinstance(obj, dict) or type(obj.get("attributes")) is not list:
            raise ValidationError("schema object must have an 'attributes' list")
        pairs = []
        for entry in obj["attributes"]:
            if type(entry) is not dict:
                raise ValidationError(f"bad schema attribute entry {entry!r}")
            name = json_field(entry, "name", "string", "schema attribute entry")
            levels = json_field(entry, "levels", "strings", f"schema attribute {name!r}")
            pairs.append((name, tuple(levels)))
        return cls(tuple(pairs))


def _starts(sizes) -> np.ndarray:
    """First column of each block of a layout whose blocks have these sizes."""
    return np.cumsum(sizes) - sizes


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
    out[np.arange(len(codes))[:, None], _starts(sizes) + codes[:, visible]] = 1.0
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
        codes = _label_codes(schema, ids, concepts)
        gold = None if gold is None else _gold_labels(gold)
        pairs = _resolve_pairs(schema, ids, codes, zip(*pairs))
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


def _label_codes(schema: ConceptSchema, ids, concepts) -> np.ndarray:
    """(n, n_attrs) level codes of `concepts`, one {attribute: level} dict per id in `ids`."""
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
        raise ValidationError(f"sample {ids[np.argmax(extra)]!r}: labels for unknown attributes")
    labels = labels.astype(str)
    codes = schema.level_codes(np.arange(len(names)), labels)
    if np.any(codes < 0):
        i, a = np.argwhere(codes < 0)[0]
        raise ValidationError(f"sample {ids[i]!r}: illegal label {names[a]}={labels[i, a]!r}")
    return codes


def _gold_labels(gold) -> np.ndarray:
    """Gold labels, one int or None per row, as int64 with -1 for None."""
    gold = np.array(gold, dtype=object).reshape(-1)
    missing = np.equal(gold, None)
    gold[missing] = -1
    try:
        gold = gold.astype(np.int64)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError("gold labels must be integers") from None
    if np.any(gold[~missing] < 0):
        raise ValidationError("gold label must be >= 0")
    return gold


def _resolve_pairs(schema: ConceptSchema, ids: np.ndarray, codes: np.ndarray, columns) -> EditPairs:
    """Edit pairs from their five name columns (original_id, edited_id, attribute, from, to)."""
    cols = [np.asarray(col, dtype=str) for col in columns] or [np.zeros(0, str)] * 5
    original, edited = index_of(ids, cols[0]), index_of(ids, cols[1])
    for rows, wanted in ((original, cols[0]), (edited, cols[1])):
        if np.any(rows < 0):
            raise ValidationError(f"pair references unknown sample {wanted[np.argmin(rows)]!r}")
    names = schema.names
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
    return EditPairs(original, edited, attribute, to)


# ---------------------------------------------------------------------------
# file IO: the one module that knows JSON, JSONL and CSV syntax


def _reject_constant(token: str):
    raise ValidationError(f"non-finite float token {token!r}")


# One decoder for every parse and one encoder for every JSONL row:
# json.loads and json.dumps would build a new one per call.
_STRICT_JSON = json.JSONDecoder(parse_constant=_reject_constant)
# Non-blank lines per `_decode_lines` call, and rows per chunk that
# `read_jsonl` holds as Python objects and `write_jsonl` encodes at once.
# It bounds the text and row objects held at a time; whole files of
# them would multiply a load's or save's peak memory.
_CHUNK_LINES = 1024
# `iterencode` pieces per text batch that `write_json` hands the writer
_DOC_PIECES = 4096
_ROW_JSON = json.JSONEncoder(sort_keys=True, allow_nan=False)
_DOC_JSON = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False)
# The Python type that each JSON type named in a `read_jsonl` spec decodes
# to. "numbers" is a list of JSON numbers; errors call it a list.
_JSON_TYPES = {
    "string": str, "integer": int, "boolean": bool, "list": list, "numbers": list,
    "object": dict, "null": type(None),
}
# The same for a `json_field` spec, which also names "number" (an int or
# a float, never a bool) and "strings", a list of strings.
_FIELD_TYPES = {
    **{name: (kind,) for name, kind in _JSON_TYPES.items() if name != "numbers"},
    "number": (int, float), "strings": (list,),
}
_NUMBER_TYPES = {int, float}
# A JSONL value that leaves its key out of the row (a missing key, when read).
_ABSENT = object()
# JSON text of each scalar a JSONL column may hold; "" for _ABSENT, which no value encodes to.
_SCALAR_JSON = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
    object: lambda _: "",
}


@contextlib.contextmanager
def _reading(path: str | Path, what: str):
    """Open UTF-8 text file `path` for reading; `what` names the file in errors."""
    try:
        with open(path, encoding="utf-8") as handle:
            yield handle
    except FileNotFoundError:
        raise ValidationError(f"{what} file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _parse_json(text: str, path: str | Path, line: int | None = None):
    """Decode one JSON text; NaN and Infinity tokens are errors, and errors name path and line."""
    try:
        return _STRICT_JSON.decode(text)
    except json.JSONDecodeError as exc:
        problem = f"invalid JSON ({exc.msg})"
    except ValidationError as exc:
        problem = str(exc)
    raise ValidationError(f"{path}{'' if line is None else f':{line}'}: {problem}") from None


def _decode_lines(texts: list[str], numbers: list[int], path: str | Path) -> list:
    """The value of each JSON text in `texts`, which are lines `numbers` of `path`.

    All texts are decoded in one call, as one array with a separator,
    "\\n,NaN,", between every two of them. The decoder turns each NaN
    token into a sentinel and counts it. No JSON string holds a raw
    newline, so every separator in a decoded array is a NaN token. The
    result is kept only when, for k texts, there are k - 1 NaN tokens,
    the array has 2k - 1 elements and every odd element is a sentinel:
    then the separators are the only NaN tokens and each sits at the top
    level between two texts, so each text held exactly one value.
    Otherwise, or if the decode fails, each text is decoded on its own by
    `_parse_json`, which words the error with its file and line.
    """
    separator, count = object(), 0

    def constant(token: str):
        nonlocal count
        if token != "NaN":
            _reject_constant(token)
        count += 1
        return separator

    try:
        values = json.JSONDecoder(parse_constant=constant).decode(
            "[" + "\n,NaN,".join(texts) + "]"
        )
    except (json.JSONDecodeError, ValidationError):
        values = []
    k = len(texts)
    if count == k - 1 and len(values) == 2 * k - 1:
        if all(value is separator for value in values[1::2]):
            return values[::2]
    return [_parse_json(text, path, number) for text, number in zip(texts, numbers)]


def _numeric(value) -> bool:
    """Whether `value` is a JSON number, or lists nested to any depth whose items all are."""
    items = [value]
    while items:
        kinds = set(map(type, items))
        if kinds <= _NUMBER_TYPES:
            return True
        if kinds != {list}:
            return False
        items = list(chain.from_iterable(items))
    return True


def float_array(value, where: str) -> np.ndarray:
    """`value`, decoded JSON, as a float64 array when it holds only numbers.

    `value` is a number or lists nested to any depth. A number is a JSON
    int or float, never a bool, string or null; any other item, or an
    int too large for a float, raises ValidationError with a message
    that starts with `where`. Lists of unequal length raise numpy's
    ValueError for the caller to word, and the shape is the caller's to
    check.
    """
    if not _numeric(value):
        raise ValidationError(f"{where} must hold only numbers")
    try:
        return np.array(value, dtype=np.float64)
    except OverflowError:
        raise ValidationError(f"{where} holds a number too large for a float") from None


def read_json(path: str | Path, what: str) -> dict:
    """The JSON object that file `path` holds; `what` names the file in errors."""
    with _reading(path, what) as handle:
        obj = _parse_json(handle.read(), path)
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    return obj


def _batches(pieces: Iterable[str], size: int):
    """The strings of `pieces` joined `size` at a time."""
    pieces = iter(pieces)
    while batch := list(islice(pieces, size)):
        yield "".join(batch)


def write_json(path: str | Path, obj) -> Path:
    """Write `obj` atomically as an indented JSON document with sorted keys.

    The file holds `_DOC_JSON.encode(obj)` and a newline. It is written
    as `_DOC_JSON.iterencode(obj)` pieces joined `_DOC_PIECES` at a time,
    the pieces that `encode` joins whole, so the bytes are the same and
    the document's text is never held at once.
    """
    return write_text_atomic(path, chain(_batches(_DOC_JSON.iterencode(obj), _DOC_PIECES), ["\n"]))


def _float_rows(column: list, lines: list[int], path: str | Path, key: str):
    """One chunk's "numbers" column as an (m, width) float64 block.

    A row that holds anything but numbers is an error naming its line.
    Rows of unequal length are returned as they are, for the caller to
    reject as a whole.
    """
    try:
        return float_array(column, f"{path}: {key!r}")
    except ValidationError:
        for row, line in zip(column, lines):
            float_array(row, f"{path}:{line}: {key!r}")  # raises at the first row at fault
    except ValueError:
        pass
    return column  # rows of unequal length or depth


def json_field(obj: dict, key: str, names: str, where: str | Path, default=_ABSENT):
    """`obj[key]`, decoded JSON whose type must be one named in `names`.

    `names` joins with "|" the names of `_FIELD_TYPES`, as in
    "number|null". A bool is never an integer or number, and a number is
    returned as a float. A missing key reads as `default` when one is
    given. Otherwise it, and a value of another type, raise
    ValidationError naming `where` and the key.
    """
    value = obj.get(key, default)
    if value is _ABSENT:
        raise ValidationError(f"{where}: missing required key {key!r}")
    kinds = names.split("|")
    allowed = tuple(chain.from_iterable(_FIELD_TYPES[kind] for kind in kinds))
    strings = "strings" in kinds and type(value) is list
    if type(value) not in allowed or (strings and set(map(type, value)) - {str}):
        wording = names.replace("|", " or ").replace("strings", "a list of strings")
        raise ValidationError(f"{where}: {key!r} must be {wording}")
    if "number" in kinds and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise ValidationError(f"{where}: {key!r} is too large for a float") from None
    return value


def _chunk_columns(rows: list, lines: list[int], path: str | Path, types: dict, defaults: dict):
    """Each key's values in `rows`, the objects on lines `lines` of `path`, checked and typed."""
    columns = {}
    for key, names in types.items():
        default = defaults.get(key, _ABSENT)
        column = [row.get(key, default) for row in rows]
        allowed = tuple(_JSON_TYPES[name] for name in names.split("|"))
        if set(map(type, column)).difference(allowed):
            i = next(i for i, value in enumerate(column) if type(value) not in allowed)
            if column[i] is _ABSENT:
                raise ValidationError(f"{path}:{lines[i]}: missing required key {key!r}")
            kinds = names.replace("|", " or ").replace("numbers", "list")
            raise ValidationError(f"{path}:{lines[i]}: {key!r} must be {kinds}")
        if names == "string":
            column = np.array(column, dtype=str)
        elif names == "numbers":
            column = _float_rows(column, lines, path, key)
        columns[key] = column
    return columns


def _join(blocks: list):
    """One column from its chunks' blocks: an array if every block is one and they stack.

    Otherwise, as when float rows change length, the list of all rows.
    """
    if all(isinstance(block, np.ndarray) for block in blocks):
        blocks = [block for block in blocks if len(block)] or blocks[:1]
        with contextlib.suppress(ValueError):
            return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    lists = (block.tolist() if isinstance(block, np.ndarray) else block for block in blocks)
    return list(chain.from_iterable(lists))


def read_jsonl(
    path: str | Path,
    what: str,
    types: dict,
    defaults: dict | None = None,
    head: str | None = None,
    convert: Callable[[dict], dict] | None = None,
) -> tuple[dict, dict]:
    """Columns of a file that holds one JSON object per non-blank line.

    Returns (header, columns): `columns` maps each key of `types` to its
    values in line order, and `types[key]` names the JSON types they may
    take, as in "integer|null". A "string" column is returned as a numpy
    string array and a "numbers" column (rows that are lists of JSON
    numbers) as an (n, width) float64 array, or as its list of rows if
    they differ in length; any other column is a list. A key of
    `defaults` may be absent and then reads as its default. If line 1
    holds the key `head`, it is the header, whose value must be an
    object (else the header is {}). Errors name the file, and the line
    when one is at fault.

    The file is read a chunk of `_CHUNK_LINES` non-blank lines at a time,
    and only one chunk's row objects are held at once. Each chunk is
    decoded in one call (see `_decode_lines`), its columns are checked
    and typed, and then `convert`, when given, maps that chunk's columns
    to the blocks to keep (for example, label dicts to level codes).
    Each key's blocks are joined at the end, so the result is that of
    reading the whole file at once. The cyclic garbage collector is
    paused meanwhile: decoded JSON holds no reference cycles, and
    collections triggered by the many new objects would only scan them.
    """
    header, blocks = {}, {key: [] for key in types}
    texts, lines = [], []

    def take_chunk():
        nonlocal header
        rows = _decode_lines(texts, lines, path)
        if set(map(type, rows)) - {dict}:
            i = next(i for i, row in enumerate(rows) if type(row) is not dict)
            raise ValidationError(f"{path}:{lines[i]}: expected a JSON object")
        row_lines = lines
        if head is not None and lines[:1] == [1] and head in rows[0]:
            header, rows, row_lines = rows[0][head], rows[1:], lines[1:]
            if type(header) is not dict:
                raise ValidationError(f"{path}:1: {head!r} must be a JSON object")
        columns = _chunk_columns(rows, row_lines, path, types, defaults or {})
        del rows
        for key, block in (convert(columns) if convert else columns).items():
            blocks[key].append(block)

    collecting = gc.isenabled()
    gc.disable()
    try:
        with _reading(path, what) as handle:
            for number, line in enumerate(handle, start=1):
                if not line.isspace():
                    texts.append(line)
                    lines.append(number)
                    if len(texts) == _CHUNK_LINES:
                        take_chunk()
                        texts, lines = [], []
        take_chunk()
    finally:
        if collecting:
            gc.enable()
    return header, {key: _join(blocks.pop(key)) for key in types}


def _encode_column(column) -> tuple[str, list[str] | None, str]:
    """(open, texts, close): a JSONL column's value in each row is open + text + close.

    A constant (one string or None for every row) has no texts; `open` is its JSON.
    """
    if column is None or isinstance(column, str):
        return _ROW_JSON.encode(column), None, ""
    if isinstance(column, dict):
        # escaped text holds no raw newline, so each row is one line
        return "", _encode_rows(column).split("\n")[:-1], ""
    if not isinstance(column, np.ndarray):
        return "", [_SCALAR_JSON[type(value)](value) for value in column], ""
    if column.ndim == 2 and len(column):
        # the matrix holds only floats, so "], [" occurs only between rows
        return "[", _ROW_JSON.encode(column.tolist())[2:-2].split("], ["), "]"
    values = column.tolist()  # one dtype, so one type
    return "", list(map(_SCALAR_JSON[type(values[0])], values)) if values else [], ""


def _encode_rows(columns: dict) -> str:
    """One line per row; each holds the bytes `_ROW_JSON.encode` gives the row's object."""
    keys = sorted(columns)
    encoded = [_encode_column(columns[key]) for key in keys]
    m = next(len(texts) for _, texts, _ in encoded if texts is not None)
    step = 2 * len(keys) + 1
    parts, close = [""] * (m * step), ""
    for i, (key, (open_, texts, end)) in enumerate(zip(keys, encoded)):
        fragment = close + (", " if i else "{") + encode_basestring_ascii(key) + ": " + open_
        fragments = [fragment] * m
        if isinstance(columns[key], list) and "" in texts:  # values left out
            fragments = [fragment if text else close for text in texts]
        parts[2 * i :: step] = fragments
        if texts is not None:
            parts[2 * i + 1 :: step] = texts
        close = end
    parts[step - 1 :: step] = [close + "}\n"] * m
    return "".join(parts)


def _row_count(columns: dict) -> int:
    """Rows of a `write_jsonl` column dict: the length of its first non-constant column."""
    for column in columns.values():
        if isinstance(column, dict):
            return _row_count(column)
        if column is not None and not isinstance(column, str):
            return len(column)
    raise ValidationError("a JSONL column dict needs a column with one value per row")


def _row_slice(columns: dict, rows: slice) -> dict:
    """The `rows` of every column of a `write_jsonl` column dict; constants stay as they are."""
    return {
        key: _row_slice(column, rows) if isinstance(column, dict)
        else column if column is None or isinstance(column, str) else column[rows]
        for key, column in columns.items()
    }


def write_jsonl(path: str | Path, columns: dict, head=()) -> Path:
    """Write the `head` objects, then one object per row of `columns`, one per line.

    Each line holds the bytes `_ROW_JSON.encode` gives its object, but is
    built a column at a time. A column is a float matrix (a list per row),
    a dict of columns (an object per row), an array or list of strings,
    ints, bools or None, or one string or None for every row. `_ABSENT` in
    a list leaves the key out of that row; the first key in sorted order
    is never left out. Rows are encoded and written `_CHUNK_LINES` at a
    time, so the text of only one chunk is held at once.
    """
    starts = range(0, _row_count(columns), _CHUNK_LINES)
    text = chain(
        (_ROW_JSON.encode(obj) + "\n" for obj in head),
        (_encode_rows(_row_slice(columns, slice(i, i + _CHUNK_LINES))) for i in starts),
    )
    return write_text_atomic(path, text)


def csv_text(header, rows) -> str:
    """CSV text with "\\n" line ends: the header row, then `rows`."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


def load_schema(schema_path: str | Path) -> ConceptSchema:
    obj = read_json(schema_path, "schema")
    try:
        return ConceptSchema.from_obj(obj)
    except ValidationError as exc:
        raise ValidationError(f"{schema_path}: {exc}") from None


_SAMPLE_TYPES = {
    "id": "string", "concepts": "object", "embedding": "numbers", "logits": "numbers",
    "gold": "integer|null",
}
_PAIR_KEYS = ("original_id", "edited_id", "attribute", "from", "to")


def load_dataset(
    samples_path: str | Path,
    pairs_path: str | Path | None,
    schema_path: str | Path,
    space: str = SPACE_LOGIT,
) -> Dataset:
    """Load the three-file dataset format; `pairs_path` may be None.

    Parse errors carry file and line; NaN/Infinity tokens are rejected.
    With space="probability" a softmax is applied to every output row.
    Each chunk of samples has its labels turned into level codes, by the
    conversion that `Dataset.from_records` uses, before the next chunk
    is read, so no file is held as row objects whole.
    """
    schema = load_schema(schema_path)

    def codes(chunk: dict) -> dict:
        chunk["concepts"] = _label_codes(schema, chunk["id"], chunk["concepts"])
        chunk["gold"] = _gold_labels(chunk["gold"])
        return chunk

    _, samples = read_jsonl(samples_path, "samples", _SAMPLE_TYPES, {"gold": None}, convert=codes)
    ids, codes, embeddings, outputs, gold = samples.values()  # _SAMPLE_TYPES order
    pairs = EditPairs()
    if pairs_path is not None:
        _, columns = read_jsonl(pairs_path, "pairs", dict.fromkeys(_PAIR_KEYS, "string"))
        pairs = _resolve_pairs(schema, ids, codes, columns.values())
    return Dataset(schema, ids, codes, embeddings, outputs, gold, pairs).to_space(space)


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
    schema, ids = dataset.schema, dataset.ids
    write_json(paths["schema"], schema.to_obj())
    labels = schema.level_names(np.arange(len(schema.names)), dataset.codes)
    samples = {
        "id": ids,
        "concepts": {name: labels[:, a] for a, name in enumerate(schema.names)},
        "embedding": dataset.embeddings,
        "logits": dataset.outputs,
        "gold": [g if g >= 0 else _ABSENT for g in dataset.gold.tolist()],
    }
    write_jsonl(paths["samples"], samples)
    pairs = dict(zip(("original_id", "attribute", "from", "to"), dataset.pair_names(slice(None))))
    write_jsonl(paths["pairs"], {"edited_id": ids[dataset.pairs.edited], **pairs})
    return paths
