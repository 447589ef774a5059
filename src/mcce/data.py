"""Concept schemas, columnar datasets, and every file format of the package.

A dataset is five files:

schema.json
    {"attributes": [{"name": "food", "levels": ["neg", "unk", "pos"]}, ...]}

samples.jsonl
    {"meta": {"attributes": ["food", ...], "columns": ["id", "concepts", "gold"],
              "embedding": "samples.embedding.npy", "logits": "samples.logits.npy"}}
    ["s000001", ["pos", ...], 3]
    `concepts` holds one level name per attribute, in the order of
    `attributes`, which must be the schema's names in schema order.
    `gold` is an integer label or null. The meta line names, by bare file
    name, the two .npy files beside it that hold the float columns.

samples.embedding.npy, samples.logits.npy
    One row per sample, in the order of samples.jsonl: little-endian
    float64 matrices in C order, in numpy's .npy format. `logits` always
    holds the raw black-box outputs; probability-space operation applies
    a softmax at load time.

pairs.jsonl
    {"meta": {"columns": ["original_id", "edited_id"]}}
    ["s000001", "s000001__food__neg"]
    Each pair is two sample ids whose labels differ in exactly one
    attribute; that difference is the edit, and no file states it again.

Every JSONL file is a table: line 1 is a meta object that names the
columns, and each later line is the array of one row's values in that
order. No JSONL file holds a float: a float matrix with one row per row
of a table is a .npy file beside it, which the meta object names under
the matrix's key. That is the one layout `read_jsonl` reads; a file
without the meta line, or whose meta line names no `columns` or no file
for a float column, is an error at its line 1.

In memory a `Dataset` holds columns: sample ids as UTF-8 bytes, an
(n, n_attrs) matrix of level codes (each an index into its attribute's
levels, in the narrowest unsigned dtype that holds them), embeddings,
outputs and gold labels, plus `EditPairs` of row indices, whose edits
(attribute and level code) are read off the two rows' codes once, at
construction. Rows keep their complete labels even when attributes are
masked; masking is a view (`Dataset.mask`), and `design_matrix` is where
the mask takes effect: it one-hot encodes the visible attributes only.
A command keeps only the rows and float columns it reads (`Dataset.keep`).

This is the one module that knows JSON, JSONL, .npy and CSV syntax.
Models, effects, ground truth, configs, reports and predictions are
read and written by other modules through `read_json`, `write_json`,
`read_jsonl` (typed columns, with file:line errors), `write_jsonl`
(built a column at a time; float matrices go to .npy files),
`float_array` (JSON numbers only) and `csv_text`. JSONL files are read
and written a chunk of rows at a time, so no file is held whole as
Python objects.
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
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, count, islice, repeat
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


@contextlib.contextmanager
def _atomic_file(path: str | Path, mode: str):
    """A new file, open in `mode` ("w" for UTF-8 text, "wb" for bytes), that replaces `path`.

    The file is a temp file beside `path`, renamed over it when the block
    ends, so readers never see a partial file. Each call gets its own
    temp file, so concurrent writers to one path never share it; a block
    that raises removes it. The final file gets the mode a plain open()
    would give it under the umask.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, mode, encoding=None if "b" in mode else "utf-8") as handle:
            yield handle
        os.chmod(tmp, 0o666 & ~_UMASK)  # mkstemp creates files as 0600
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_text_atomic(path: str | Path, text: str | Iterable[str]) -> Path:
    """Write text via a temp file and rename, so readers never see partial files.

    `text` is one string or an iterable of string pieces, written in
    order; a generator of pieces lets the caller build a large file a
    part at a time instead of holding its whole text. A failed write,
    including one raised while a piece is built, leaves `path` as it was.
    """
    with _atomic_file(path, "w") as handle:
        handle.writelines([text] if isinstance(text, str) else text)
    return Path(path)


def write_npy(path: str | Path, matrix) -> Path:
    """Write `matrix` atomically as a .npy file of little-endian float64 in C order.

    `np.save` writes a fixed header and then the values' bytes, so equal
    matrices give equal files.
    """
    with _atomic_file(path, "wb") as handle:
        np.save(handle, np.ascontiguousarray(matrix, dtype="<f8"), allow_pickle=False)
    return Path(path)


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
        if _holds_nul(chain.from_iterable((name, *levels) for name, levels in self.attributes)):
            raise ValidationError("attribute names and levels must not hold U+0000")
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
    def code_dtype(self) -> np.dtype:
        """The narrowest unsigned dtype that holds every level code: uint8 up to 256 levels."""
        return np.min_scalar_type(int(self.sizes.max()) - 1)

    @cached_property
    def _attribute_ids(self) -> dict[str, int]:
        return dict(zip(self.names, count()))

    @cached_property
    def _level_ids(self) -> dict[str, int]:
        """A number for each distinct level name of the schema."""
        names = dict.fromkeys(chain.from_iterable(levels for _, levels in self.attributes))
        return dict(zip(names, count()))

    @cached_property
    def _code_table(self) -> np.ndarray:
        """Code of each level number under each attribute, -1 where it names no level of it.

        The last column, which a name that is no level's indexes, is all -1.
        """
        table = np.full((len(self.attributes), len(self._level_ids) + 1), -1, dtype=np.int64)
        for a, (_, levels) in enumerate(self.attributes):
            table[a, [self._level_ids[level] for level in levels]] = np.arange(len(levels))
        return table

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

    def attribute_indices(self, names: list) -> np.ndarray:
        """Index of each attribute name in `names`; -1 for a name the schema lacks.

        Each name is one dict lookup.
        """
        return np.fromiter(map(self._attribute_ids.get, names, repeat(-1)), np.int64, len(names))

    def level_codes(self, attributes, levels) -> np.ndarray:
        """Code of each level name in `levels` under the attribute index beside it.

        `attributes` is a 1-D array of indices and `levels` an iterable of
        as many names. A name that is no level of its attribute, or an
        index of -1, gives -1. Each name is one dict lookup.
        """
        attributes = np.asarray(attributes, dtype=np.int64)
        ids = np.fromiter(map(self._level_ids.get, levels, repeat(-1)), np.int64, attributes.size)
        return np.where(attributes >= 0, self._code_table[attributes, ids], -1)

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


def _holds_nul(strings) -> bool:
    """Whether any of `strings` holds U+0000.

    numpy string arrays drop trailing NULs, so a name with one would
    silently become another; no name may hold it.
    """
    return "\0" in "".join(strings)


# The codec of `Dataset.ids`: UTF-8, in which "surrogatepass" gives a lone
# surrogate, which a JSON "\ud800" escape can carry, its 3-byte form.
_ID_CODEC = ("utf-8", "surrogatepass")


def id_bytes(ids) -> np.ndarray:
    """Sample ids as a 1-D array of their UTF-8 bytes ("S", as wide as the longest).

    An "S" array is taken to hold UTF-8 already; anything else is read as
    text (`np.asarray(ids, dtype=str)`) and encoded. numpy's own casts
    between "S" and "U" are ASCII-only, so ids cross between bytes and
    text here and in `id_text`, nowhere else.
    """
    if isinstance(ids, np.ndarray) and ids.dtype.kind == "S":
        return ids.reshape(-1)
    texts = ids  # a list of strings, as a table's column is read, is encoded as it is
    if type(ids) is not list or set(map(type, ids)) - {str}:
        texts = np.asarray(ids, dtype=str).reshape(-1).tolist()
    return np.array([text.encode(*_ID_CODEC) for text in texts], dtype=bytes)


def id_text(ids) -> np.ndarray:
    """Ids of `id_bytes` as text: a "U" array of the same shape."""
    ids = np.asarray(ids)
    texts = [value.decode(*_ID_CODEC) for value in ids.reshape(-1).tolist()]
    return np.array(texts, dtype=str).reshape(ids.shape)


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
    """Edit pairs as columns of row indices into the owning dataset: the
    labels of rows `original[i]` and `edited[i]` differ in exactly one
    attribute, and that difference is the edit.

    A pair is built from its two rows alone. The `Dataset` that owns it
    reads each edit off the rows' level codes and holds pairs whose
    `attribute[i]` is the index of the attribute that differs and
    `to[i]` the edited row's code of it; until then both are None.
    """

    original: np.ndarray = ()
    edited: np.ndarray = ()
    attribute: np.ndarray | None = field(default=None, init=False)
    to: np.ndarray | None = field(default=None, init=False)

    def __post_init__(self):
        for name in ("original", "edited"):
            column = _integers(getattr(self, name), "edit pair rows").reshape(-1)
            object.__setattr__(self, name, column)
        if self.original.size != self.edited.size:
            raise ValidationError("edit pair columns differ in length")

    def __len__(self) -> int:
        return self.original.size


def _integers(value, what: str) -> np.ndarray:
    """`value` as int64; only an integer array converts, or an empty one (`np.asarray([])` is float64)."""
    arr = np.asarray(value)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValidationError(f"{what} must be integers, got {arr.dtype} values")
    out = arr.astype(np.int64, copy=False)
    if arr.dtype.kind == "u" and np.any(out < 0):  # an unsigned value above int64's range wraps
        raise ValidationError(f"{what} must be integers that int64 holds")
    return out


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
        raise ValidationError(f"sample {id_text(ids[np.argmin(finite)]).item()!r}: non-finite {what}")
    return arr


# Sorted ids that `Dataset` checks for duplicates at a time.
_CHECK_ROWS = 4096
# The float columns of a `Dataset`, which `Dataset.keep` may release.
FLOAT_COLUMNS = ("embeddings", "outputs")


@dataclass(eq=False)
class Dataset:
    """Rows as columns, edit pairs, and the runtime attribute mask.

    Row i is sample `ids[i]` with level codes `codes[i]`, embedding
    `embeddings[i]`, black-box outputs `outputs[i]` and gold label
    `gold[i]` (-1 when absent). `ids` holds each id's UTF-8 bytes
    (`id_bytes`; `id_text` decodes them) and `codes` the schema's
    `code_dtype`. Every column is validated once, here; `mask` and
    `to_space` return views that share the arrays, and `keep` one that
    holds fewer rows or columns. Treat instances and their arrays as
    immutable.
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
        ids = self.ids = id_bytes(self.ids)
        for start in range(0, ids.size, _CHECK_ROWS):  # not a sorted copy of every id at once
            ordered = ids[self.id_order[start : start + _CHECK_ROWS + 1]]
            dup = np.flatnonzero(ordered[1:] == ordered[:-1])
            if dup.size:
                raise ValidationError(f"duplicate sample id {id_text(ordered[dup[0]]).item()!r}")

        codes = np.asarray(self.codes)
        if codes.size and codes.dtype.kind not in "iu":
            raise ValidationError(f"level codes must be integers, got {codes.dtype} values")
        if codes.shape != (ids.size, n_attrs) or np.any((codes < 0) | (codes >= schema.sizes)):
            raise ValidationError("level codes need one in-range code per sample and attribute")
        codes = self.codes = codes.astype(schema.code_dtype, copy=False)
        self.embeddings = _matrix(self.embeddings, ids, "embedding")
        self.outputs = _matrix(self.outputs, ids, "output")
        gold = np.full(ids.size, -1) if self.gold is None else self.gold
        gold = self.gold = _integers(gold, "gold labels").reshape(-1)
        if gold.size != ids.size or np.any(gold < -1):
            raise ValidationError("gold labels need one value >= 0 (or -1 for none) per sample")

        # each pair's edit is the one attribute whose codes differ, found a column at a time
        p = self.pairs = EditPairs(self.pairs.original, self.pairs.edited)  # a copy to hold the edits
        rows = np.concatenate([p.original, p.edited])
        if np.any((rows < 0) | (rows >= ids.size)):
            raise ValidationError("edit pairs reference rows out of range")
        changed, attribute = np.zeros((2, len(p)), dtype=np.int64)
        for a in range(n_attrs):
            moved = codes[p.original, a] != codes[p.edited, a]
            changed += moved
            attribute[moved] = a
        bad = np.flatnonzero(changed != 1)
        if bad.size:
            original, edited = p.original[bad[0]], p.edited[bad[0]]
            differ = ", ".join(map(repr, compress(schema.names, codes[original] != codes[edited])))
            pair = "->".join(repr(id_text(ids[row]).item()) for row in (original, edited))
            raise ValidationError(
                f"pair {pair}: labels differ in {differ or 'no attribute'}, not in exactly one"
            )
        object.__setattr__(p, "attribute", attribute)
        object.__setattr__(p, "to", codes[p.edited, attribute].astype(np.int64))
        factual = np.ones(ids.size, dtype=bool)
        factual[p.edited] = False
        self.fit_rows = np.flatnonzero(factual)

    @classmethod
    def from_records(
        cls, schema, ids, labels, embeddings, outputs, gold=None, pairs=()
    ) -> "Dataset":
        """Build from rows as the files hold them, resolving names to codes once.

        `labels` has one row of level names per id, one name per
        attribute in schema order, as samples.jsonl's `concepts` column
        holds them; `gold` has one int or None per row; each pair is
        (original_id, edited_id), as pairs.jsonl holds them, and its
        edit is read off the two rows' labels.
        """
        texts = np.asarray(ids, dtype=str).reshape(-1)
        codes = _label_codes(schema, texts, labels)
        gold = None if gold is None else _gold_labels(gold)
        ids = id_bytes(texts)
        names = [np.asarray(column, dtype=str).tolist() for column in zip(*pairs)] or [[], []]
        pairs = EditPairs(*_pair_rows(ids, np.argsort(ids, kind="stable"), *names))
        return cls(schema, ids, codes, embeddings, outputs, gold, pairs)

    # -- views ------------------------------------------------------------

    def _view(self, **changes) -> "Dataset":
        view = copy.copy(self)
        view.__dict__.update(changes)
        return view

    def keep(self, rows=None, columns=FLOAT_COLUMNS) -> "Dataset":
        """Only rows `rows` (ascending row indices; default every row) and the float `columns`.

        A command calls it right after loading, so that it holds what it
        reads and no more. Each float column (`FLOAT_COLUMNS`) left out of
        `columns` becomes a zero-width matrix. The kept rows are numbered
        anew in order, and `fit_rows` and the pairs follow them: a pair
        stays when its original row is kept, with its edit, and its edited
        row is -1 when that row is not kept, so only the edit is left of
        it (`edited_rows` refuses such pairs).
        """
        if set(columns) - set(FLOAT_COLUMNS):
            raise ValidationError(f"the float columns are {FLOAT_COLUMNS}, got {tuple(columns)}")
        n = len(self)
        rows = np.arange(n) if rows is None else _integers(rows, "kept rows").reshape(-1)
        if np.any(rows[1:] <= rows[:-1]) or (rows.size and (rows[0] < 0 or rows[-1] >= n)):
            raise ValidationError(f"kept rows must ascend in [0, {n})")
        # a new empty matrix, not a view that would keep the released one alive
        floats = {key: np.empty((n, 0)) for key in FLOAT_COLUMNS if key not in columns}
        if rows.size == n:  # every row: the kept columns are shared, not copied
            return self._view(**floats)
        renumber = np.full(n, -1)
        renumber[rows] = np.arange(rows.size)
        p, fit_rows = self.pairs, renumber[self.fit_rows]
        stays = renumber[p.original] >= 0
        pairs = EditPairs(renumber[p.original[stays]], renumber[p.edited[stays]])
        object.__setattr__(pairs, "attribute", p.attribute[stays])
        object.__setattr__(pairs, "to", p.to[stays])
        view = self._view(
            ids=self.ids[rows], codes=self.codes[rows], gold=self.gold[rows], pairs=pairs,
            fit_rows=fit_rows[fit_rows >= 0],
            **{key: floats.get(key, getattr(self, key))[rows] for key in FLOAT_COLUMNS},
        )
        view.__dict__.pop("id_order", None)  # the cached sort of the old ids
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
        """Row index of each sample id (text, or UTF-8 bytes as `ids` holds them)."""
        ids = np.asarray(ids)
        rows = index_of(self.ids, id_bytes(ids).reshape(ids.shape), self.id_order)
        if np.any(rows < 0):
            raise ValidationError(
                f"unknown sample id {id_text(id_bytes(ids)[np.argmin(rows)]).item()!r}"
            )
        return rows

    def edited_rows(self) -> np.ndarray:
        """`pairs.edited`, every one of which must be held: `keep` may have released some."""
        edited = self.pairs.edited
        if np.any(edited < 0):
            raise ValidationError("the pairs' edited rows were released (Dataset.keep)")
        return edited

    @property
    def visible_width(self) -> int:
        return self.schema.visible_width(self.hidden_attributes)

    def design_matrix(self, rows=None) -> np.ndarray:
        """Visible one-hot design of `rows` (default: every row)."""
        codes = self.codes if rows is None else self.codes[rows]
        return one_hot(self.schema, codes, self.hidden_attributes)

    def pair_names(self, pairs) -> tuple[np.ndarray, ...]:
        """(original id, attribute, from level, to level), as text, of the pairs at index `pairs`."""
        p, schema = self.pairs, self.schema
        rows, attribute = p.original[pairs], p.attribute[pairs]
        return (
            id_text(self.ids[rows]),
            np.array(schema.names)[attribute],
            schema.level_names(attribute, self.codes[rows, attribute]),
            schema.level_names(attribute, p.to[pairs]),
        )

    def first_pairs(self) -> np.ndarray:
        """Index of the first pair with each pair's (original, attribute, to) key."""
        p, top = self.pairs, int(self.schema.sizes.max())
        key = (p.original * len(self.schema.attributes) + p.attribute) * top + p.to  # int64 columns
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        return first[inverse.reshape(-1)]

    def unique_pairs(self) -> np.ndarray:
        """Index of the first pair with each (original, attribute, to) key, in pair order."""
        return np.flatnonzero(self.first_pairs() == np.arange(len(self.pairs)))


class _RowError(ValidationError):
    """A ValidationError about row `row` of the columns at hand; `read_jsonl` names its file and line."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = int(row)


def _label_codes(schema: ConceptSchema, ids, labels) -> np.ndarray:
    """(n, n_attrs) level codes of `labels`, one row of level names in schema order per id in `ids`.

    Every label is one dict lookup (`ConceptSchema.level_codes`). A row
    of another length, or a label that is no level name, raises naming
    the first row at fault. `ids` are text; the codes are the schema's
    `code_dtype`.
    """
    names, n = schema.names, len(ids)
    try:
        if len(labels) != n or set(map(len, labels)) - {len(names)}:
            raise ValidationError("concept labels must be one level name per attribute")
        attribute = np.tile(np.arange(len(names)), n)
        codes = schema.level_codes(attribute, chain.from_iterable(labels)).reshape(n, len(names))
    except TypeError:  # a row without a length, or an unhashable label
        raise ValidationError("concept labels must be rows of level names") from None
    if np.any(codes < 0):
        i, a = np.argwhere(codes < 0)[0]
        label = str(labels[i][a])
        raise _RowError(i, f"sample {str(ids[i])!r}: illegal label {names[a]}={label!r}")
    return codes.astype(schema.code_dtype)


def _gold_type(t: type) -> bool:
    """Whether a gold label of type `t` is read: an int (not a bool), a numpy integer, or None."""
    return t is int or t is type(None) or issubclass(t, np.integer)


def _gold_labels(gold) -> np.ndarray:
    """Gold labels, one int or None per row, as int64 with -1 for None."""
    gold = np.array(gold, dtype=object).reshape(-1)
    if not all(map(_gold_type, set(map(type, gold)))):  # one check per distinct type, not per row
        row = next(i for i, g in enumerate(gold) if not _gold_type(type(g)))
        raise _RowError(row, f"gold label {gold[row]!r} is not an integer")
    missing = np.equal(gold, None)
    gold[missing] = -1
    try:
        gold = gold.astype(np.int64)
    except OverflowError:  # a label outside int64
        row = next(i for i, g in enumerate(gold) if abs(int(g)) >= 1 << 63)
        problem = "must be >= 0" if gold[row] < 0 else f"{gold[row]} is too large"
        raise _RowError(row, f"gold label {problem}") from None
    if np.any(negative := (gold < 0) & ~missing):
        raise _RowError(np.argmax(negative), "gold label must be >= 0")
    return gold


def _pair_rows(ids: np.ndarray, order: np.ndarray, original_ids: list, edited_ids: list) -> list:
    """Rows of the pairs' original and edited sample ids (text), found in the dataset's `ids`.

    `ids` holds every row's id as UTF-8 bytes and `order` is its stable
    argsort, so each id is a binary search (`index_of`), and a repeated
    id finds its first row. An unknown id raises, naming the first pair
    at fault.
    """
    rows = [index_of(ids, id_bytes(names), order) for names in (original_ids, edited_ids)]
    unknown = (rows[0] < 0) | (rows[1] < 0)
    if unknown.any():
        i = np.argmax(unknown)
        name = (original_ids if rows[0][i] < 0 else edited_ids)[i]
        raise _RowError(i, f"pair references unknown sample {name!r}")
    return rows


# ---------------------------------------------------------------------------
# file IO: the one module that knows JSON, JSONL and CSV syntax


def _reject_constant(token: str):
    raise ValidationError(f"non-finite float token {token!r}")


# One decoder for every parse and one encoder for every JSONL row:
# json.loads and json.dumps would build a new one per call.
_STRICT_JSON = json.JSONDecoder(parse_constant=_reject_constant)
# `_decode_lines` joins a chunk's lines around `_SEPARATOR_TEXT`, whose NaN
# token `_SEPARATED_JSON` decodes to `_SEPARATOR`.
_SEPARATOR_TEXT = "\n,NaN,"
_SEPARATOR = object()
_SEPARATED_JSON = json.JSONDecoder(parse_constant={"NaN": _SEPARATOR}.__getitem__)
# Lines per chunk that `read_jsonl` decodes and holds as Python objects
# at once, and rows per chunk that `write_jsonl` encodes at once.
# It bounds the text and row objects held at a time; whole files of
# them would multiply a load's or save's peak memory.
_CHUNK_LINES = 1024
_ROW_JSON = json.JSONEncoder(sort_keys=True, allow_nan=False)
_DOC_JSON = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False)
# The Python type that each JSON type named in a `read_jsonl` spec decodes
# to.
_JSON_TYPES = {
    "string": str, "integer": int, "boolean": bool, "list": list, "object": dict,
    "null": type(None),
}
# The same for a `json_field` spec, which also names "number" (an int or
# a float, never a bool) and "strings", a list of strings.
_FIELD_TYPES = {name: (kind,) for name, kind in _JSON_TYPES.items()} | {
    "number": (int, float), "strings": (list,),
}
_NUMBER_TYPES = {int, float}
# A key that a `json_field` object leaves out.
_ABSENT = object()
# JSON text of each scalar a JSONL column may hold.
_SCALAR_JSON = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
    bytes: lambda value: encode_basestring_ascii(value.decode(*_ID_CODEC)),  # a sample id (`id_bytes`)
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


def _decode_lines(texts: list[str], numbers, path: str | Path) -> list:
    """The value of each JSON text in `texts`, which are lines `numbers` of `path`.

    All texts are decoded in one call, as one array with a separator,
    "\\n,NaN,", between every two of them. The decoder turns each NaN
    token into a sentinel, and any other constant token fails the
    decode. The result is kept only when, for k texts, the joined text
    holds "NaN" just k - 1 times, once per separator, so that no text
    holds a NaN token, the array has 2k - 1 elements and every odd
    element is a sentinel: then each separator sits at the top level
    between two texts (no JSON string holds a raw newline), so each text
    held exactly one value. Otherwise, or if the decode fails, each text
    is decoded on its own by `_parse_json`, which words the error with
    its file and line.
    """
    k = len(texts)
    text = "[" + _SEPARATOR_TEXT.join(texts) + "]"
    if text.count("NaN") == k - 1:
        try:
            values = _SEPARATED_JSON.decode(text)
        except (json.JSONDecodeError, KeyError):  # KeyError: an Infinity token
            values = []
        if len(values) == 2 * k - 1 and values[1::2].count(_SEPARATOR) == k - 1:
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


def write_json(path: str | Path, obj) -> Path:
    """Write `obj` atomically as an indented JSON document with sorted keys.

    Documents are small (the largest is a model or an experiment summary),
    so the text is encoded in one call.
    """
    return write_text_atomic(path, _DOC_JSON.encode(obj) + "\n")


def json_field(obj: dict, key: str, names: str, where: str | Path, default=_ABSENT):
    """`obj[key]`, decoded JSON whose type must be one named in `names`.

    `names` joins with "|" the names of `_FIELD_TYPES`, as in
    "number|null". A bool is never an integer or number, and a number is
    returned as a float. A "strings" list holds names (levels, hidden
    attributes), so none may hold U+0000 (see `_holds_nul`). A missing
    key reads as `default` when one is given. Otherwise it, and a value
    of another type, raise ValidationError naming `where` and the key.
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
    if strings and _holds_nul(value):
        raise ValidationError(f"{where}: {key!r} must not hold U+0000")
    if "number" in kinds and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise ValidationError(f"{where}: {key!r} is too large for a float") from None
    return value


def _header(
    first, path: str | Path, types: dict, defaults: dict, arrays: tuple[str, ...], fixed: dict
) -> tuple[dict, list, dict]:
    """(metadata, column names, array files) of a table whose line 1 decodes to `first`.

    `first` is None when line 1 is blank or absent. It must be
    `{"meta": {...}}`, whose object lists the table's columns in
    `columns`: distinct keys of `types` that include every one without
    a default, and no key of `arrays`. Under each key of `arrays` it
    names the .npy file, in the directory of `path`, that holds that
    column; array files maps each such key to its file's path. Each key
    of `fixed` must hold that value. The metadata is the rest of the
    meta object.
    """
    files = ", ".join(map(repr, arrays))
    needs = "must list 'columns'" + (f" and name the .npy file of {files}" if arrays else "")
    if type(first) is not dict or first.keys() != {"meta"}:
        raise ValidationError(f'{path}:1: expected a meta line, {{"meta": {{...}}}}; it {needs}')
    meta = first["meta"]
    if type(meta) is not dict:
        raise ValidationError(f"{path}:1: 'meta' must be a JSON object")
    missing = ", ".join(repr(key) for key in ("columns", *arrays) if key not in meta)
    if missing:
        raise ValidationError(f"{path}:1: 'meta' lacks {missing}; the meta line {needs}")
    meta = dict(meta)
    files = {key: _array_file(path, key, meta.pop(key)) for key in arrays}
    names = meta.pop("columns")
    if type(names) is not list or set(map(type, names)) - {str} or len(set(names)) < len(names):
        raise ValidationError(f"{path}:1: 'meta.columns' must be a list of distinct strings")
    twice = [key for key in arrays if key in names]
    if twice:
        raise ValidationError(f"{path}:1: column {twice[0]!r} is both in 'meta.columns' and in a file")
    unknown = [key for key in names if key not in types]
    if unknown:
        raise ValidationError(
            f"{path}:1: unknown column {unknown[0]!r}; the columns are {', '.join(types)}"
        )
    missing = [key for key in types if key not in names and key not in defaults]
    if missing:
        raise ValidationError(f"{path}:1: 'meta.columns' lacks the required column {missing[0]!r}")
    for key, value in fixed.items():
        if meta.get(key, _ABSENT) != value:
            raise ValidationError(f"{path}:1: 'meta.{key}' must be {_ROW_JSON.encode(value)}")
    return meta, names, files


def _array_file(path: str | Path, key: str, name) -> Path:
    """The file beside `path` that a meta line names under `key`: a bare file name."""
    if type(name) is not str or name in ("", ".", "..") or set(name) & {"/", "\\", "\0"}:
        raise ValidationError(f"{path}:1: 'meta.{key}' must be the name of a file in its directory")
    return Path(path).parent / name


def _read_matrix(path: Path, rows: int) -> np.ndarray:
    """The matrix that .npy file `path` holds: finite '<f8' values, 2-D, `rows` rows.

    It is read with `np.load(allow_pickle=False)`, so no file can run
    code; anything else, an .npz archive or a truncated file included,
    raises ValidationError naming the file.
    """
    try:
        with open(path, "rb") as handle:
            matrix = np.load(handle, allow_pickle=False)
    except FileNotFoundError:
        raise ValidationError(f"array file not found: {path}") from None
    except (OSError, ValueError, EOFError) as exc:
        raise ValidationError(f"{path}: not a readable .npy file ({exc})") from None
    if not isinstance(matrix, np.ndarray):
        matrix.close()
        raise ValidationError(f"{path}: an .npz archive, not a .npy file")
    if matrix.dtype != np.dtype("<f8") or matrix.ndim != 2 or matrix.shape[0] != rows:
        raise ValidationError(
            f"{path}: must hold a '<f8' matrix of {rows} rows, one per row of its table; "
            f"got {matrix.dtype.str} of shape {matrix.shape}"
        )
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise ValidationError(f"{path}: non-finite value in row {np.argmin(finite)} (from 0)")
    return matrix


def _row_values(rows: list, lines: list[int], path: str | Path, names, types: dict, defaults: dict):
    """Each key of `types` mapped to its values in `rows`, the rows on lines `lines` of `path`.

    Each row must be an array of one value per column of `names`. A key
    that the columns leave out takes its default.
    """
    width = len(names)
    if set(map(type, rows)) - {list} or set(map(len, rows)) - {width}:
        i = next(i for i, row in enumerate(rows) if type(row) is not list or len(row) != width)
        raise ValidationError(
            f"{path}:{lines[i]}: expected a JSON array of {width} values, one per column"
        )
    columns = dict(zip(names, map(list, zip(*rows))))
    return {key: columns.get(key, [defaults.get(key)] * len(rows)) for key in types}


def _check_labels(column: list, lines, path: str | Path, key: str, names: tuple, nul: bool) -> None:
    """Check that each row of a labels column is an array of one string per name in `names`.

    A null label is missing. The errors name the first row at fault, and
    within it the first label.
    """
    width = len(names)
    if set(map(type, column)) - {list} or set(map(len, column)) - {width}:
        i = next(i for i, row in enumerate(column) if type(row) is not list or len(row) != width)
        raise ValidationError(
            f"{path}:{lines[i]}: {key!r} must be an array of {width} labels, one for each "
            f"of {list(names)!r}"
        )
    labels = list(chain.from_iterable(column))
    try:
        text = "".join(labels)  # TypeError: a label that is not a string
    except TypeError:
        j = next(j for j, label in enumerate(labels) if type(label) is not str)
        i, a = divmod(j, width)
        if labels[j] is None:
            raise ValidationError(f"{path}:{lines[i]}: missing label for {names[a]!r}") from None
        raise ValidationError(f"{path}:{lines[i]}: {key!r} values must be strings") from None
    if nul and "\0" in text:
        i = next(i for i, row in enumerate(column) if _holds_nul(row))
        raise ValidationError(f"{path}:{lines[i]}: {key!r} must not hold U+0000")


def _check_columns(values: dict, lines, path: str | Path, types: dict, nul: bool) -> None:
    """Check each key's `values`, those on lines `lines` of `path`, against its type in `types`.

    A type is JSON type names joined by "|", or a tuple of names for a
    labels column (see `_check_labels`). The U+0000 checks run only when
    `nul` is true: JSON text can put U+0000 in a string only as the
    escape \\u0000, so a chunk whose text does not hold that escape holds
    no such string.
    """
    for key, names in types.items():
        column = values[key]
        if type(names) is tuple:
            _check_labels(column, lines, path, key, names, nul)
            continue
        allowed = tuple(_JSON_TYPES[name] for name in names.split("|"))
        if set(map(type, column)).difference(allowed):
            i = next(i for i, value in enumerate(column) if type(value) not in allowed)
            raise ValidationError(f"{path}:{lines[i]}: {key!r} must be {names.replace('|', ' or ')}")
        if nul and names == "string" and _holds_nul(column):
            i = next(i for i, value in enumerate(column) if _holds_nul([value]))
            raise ValidationError(f"{path}:{lines[i]}: {key!r} must not hold U+0000")


def _join(blocks: list):
    """One column from its chunks' blocks: arrays are concatenated and lists chained."""
    if not isinstance(blocks[0], np.ndarray):
        return list(chain.from_iterable(blocks))
    blocks = [block for block in blocks if len(block)] or blocks[:1]
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def read_jsonl(
    path: str | Path,
    what: str,
    types: dict,
    defaults: dict | None = None,
    convert: Callable[[dict], dict] | None = None,
    arrays: tuple[str, ...] = (),
    fixed: dict | None = None,
) -> tuple[dict, dict]:
    """Columns of a JSONL table, and of the .npy files that its meta line names.

    Line 1 is `{"meta": {...}}`, whose object lists the table's columns
    in `columns` and names, under each key of `arrays`, the .npy file
    beside `path` that holds that column (see `_header`); each key of
    `fixed` must hold its value there. Each later non-blank line is a
    JSON array of one row's values in that order. Returns (header,
    columns): `header` is the meta object without `columns` and the file
    names. `columns` maps each key of `types` to its values in line
    order, and then each key of `arrays` to its matrix, which must be a
    finite '<f8' matrix of one row per row (see `_read_matrix`).
    `types[key]` names the JSON types its values may take, as in
    "integer|null", or is a tuple of names: then each value is an array
    of one string label per name, in that order (see `_check_labels`).
    Each column is a list. A key of `defaults` may be left out of
    `columns` and then reads as its default. A string, a label included,
    must not hold U+0000. Errors name the file, and the line when one is
    at fault.

    The file is read a chunk of `_CHUNK_LINES` lines at a time, and only
    one chunk's row values are held at once. The non-blank lines of each
    chunk are decoded in one call (see `_decode_lines`), its columns are
    checked, and then `convert`, when given, maps that chunk's columns
    to the blocks to keep (for example, label rows to level codes); an
    error it raises about one row (`_RowError`) names that row's line.
    Each key's blocks are joined at the end, so the result is that of
    reading the whole file at once. The cyclic garbage collector is
    paused meanwhile: decoded JSON holds no reference cycles, and
    collections triggered by the many new objects would only scan them.
    """
    defaults = defaults or {}
    header, names, files, blocks = {}, None, {}, {key: [] for key in types}
    n_rows = 0

    def take_chunk(texts: list[str], lines):
        nonlocal header, names, files, n_rows
        rows = _decode_lines(texts, lines, path)
        if names is None:
            first = rows[0] if len(lines) and lines[0] == 1 else None
            header, names, files = _header(first, path, types, defaults, arrays, fixed or {})
            rows, lines = rows[1:], lines[1:]
        n_rows += len(rows)
        columns = _row_values(rows, lines, path, names, types, defaults)
        del rows
        _check_columns(columns, lines, path, types, "\\u0000" in "".join(texts))
        try:
            columns = convert(columns) if convert else columns
        except _RowError as exc:
            raise ValidationError(f"{path}:{lines[exc.row]}: {exc}") from None
        for key, block in columns.items():
            blocks[key].append(block)

    collecting = gc.isenabled()
    gc.disable()
    try:
        with _reading(path, what) as handle:
            start = 1
            while block := list(islice(handle, _CHUNK_LINES)):
                lines = range(start, start + len(block))
                start = lines.stop
                if any(map(str.isspace, block)):
                    lines = [number for number, line in zip(lines, block) if not line.isspace()]
                    block = [line for line in block if not line.isspace()]
                take_chunk(block, lines)
        if names is None:  # an empty file
            take_chunk([], [])
    finally:
        if collecting:
            gc.enable()
    columns = {key: _join(blocks.pop(key)) for key in types}
    return header, {**columns, **{key: _read_matrix(files[key], n_rows) for key in arrays}}


def _encode_column(column) -> list[str]:
    """Each row's JSON text of a `write_jsonl` column, which holds at least one row."""
    if isinstance(column, np.ndarray) and column.ndim == 2:
        return _encode_arrays(list(column.T)) if column.shape[1] else ["[]"] * len(column)
    if isinstance(column, np.ndarray):
        values = column.tolist()  # one dtype, so one type
        return list(map(_SCALAR_JSON[type(values[0])], values))
    return [_SCALAR_JSON[type(value)](value) for value in column]


def _join_rows(labels: list[str], columns: list, end: str) -> list[str]:
    """Each row's text: each column's label, the same in every row, and value in turn, then `end`."""
    pieces = chain.from_iterable((repeat(label), _encode_column(c)) for label, c in zip(labels, columns))
    return list(map("".join, zip(*pieces, repeat(end))))


def _encode_arrays(columns: list, end: str = "]") -> list[str]:
    """Each row's array of its values in `columns` (at least one), as `_ROW_JSON.encode` gives it.

    `end` closes each row's array.
    """
    return _join_rows(["["] + [", "] * (len(columns) - 1), columns, end)


def _row_count(columns: dict) -> int:
    """Rows of a `write_jsonl` column dict, every column of which must have that many."""
    counts = set(map(len, columns.values()))
    if len(counts) != 1:
        raise ValidationError(f"JSONL columns need one common length, got {sorted(counts)}")
    return counts.pop()


def array_path(path: str | Path, key: str) -> Path:
    """The .npy file in which `write_jsonl` writes the column `key` of the table at `path`."""
    path = Path(path)
    return path.with_name(f"{path.stem}.{key}.npy")


def write_jsonl(
    path: str | Path, columns: dict, meta: dict | None = None, arrays: dict | None = None
) -> Path:
    """Write `columns` as a JSONL table, one row per line after a meta line.

    Line 1 is `{"meta": ...}`, whose object is `meta` with `columns`, the
    keys of `columns` in order. Each later line is the array of one
    row's values in that order, as `_ROW_JSON.encode` gives it, but built
    a column at a time. A column is an array or list of strings, ints,
    bools or None, or a 2-D array whose rows go out as JSON arrays (the
    labels of samples.jsonl). Rows are encoded and written `_CHUNK_LINES`
    at a time, so the text of only one chunk is held at once.

    Each of `arrays`, a float matrix with one row per row, is written
    first, by `write_npy`, to its `array_path`, and the meta object
    names that file's bare name under the array's key; no row holds a
    float.
    """
    arrays = arrays or {}
    rows = _row_count({**columns, **arrays})
    files = {key: write_npy(array_path(path, key), matrix).name for key, matrix in arrays.items()}
    head = _ROW_JSON.encode({"meta": {**(meta or {}), **files, "columns": list(columns)}}) + "\n"

    def chunk(start: int) -> str:
        block = [column[start : start + _CHUNK_LINES] for column in columns.values()]
        return "".join(_encode_arrays(block, "]\n"))

    return write_text_atomic(path, chain([head], map(chunk, range(0, rows, _CHUNK_LINES))))


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


def _sample_spec(schema: ConceptSchema) -> tuple[dict, dict]:
    """The `read_jsonl` types of samples.jsonl's columns under `schema`, and its fixed meta entries.

    `concepts` holds one label per attribute, in the order that the meta
    line's `attributes` names them: the schema's.
    """
    types = {"id": "string", "concepts": schema.names, "gold": "integer|null"}
    return types, {"attributes": list(schema.names)}


# The float columns of samples.jsonl, each a .npy file beside it.
_SAMPLE_ARRAYS = ("embedding", "logits")
_PAIR_TYPES = dict.fromkeys(("original_id", "edited_id"), "string")


def load_dataset(
    samples_path: str | Path,
    pairs_path: str | Path | None,
    schema_path: str | Path,
    space: str = SPACE_LOGIT,
) -> Dataset:
    """Load the three-file dataset format; `pairs_path` may be None.

    Parse errors carry file and line; NaN/Infinity tokens are rejected.
    Embeddings and logits come from the .npy files that the samples meta
    line names.
    With space="probability" a softmax is applied to every output row.
    The samples meta line must name the schema's attributes in schema
    order. Each chunk of samples has its labels turned into level codes
    and its ids into UTF-8 bytes, and each chunk of pairs its sample ids
    into rows, by the conversions that `Dataset.from_records` uses,
    before the next chunk is read, so no file is held as row objects
    whole; an unknown id raises from the chunk that holds it. Each
    pair's edit is read off its two rows' codes when the `Dataset` is
    built.
    """
    schema = load_schema(schema_path)
    types, fixed = _sample_spec(schema)

    def codes(chunk: dict) -> dict:
        chunk["concepts"] = _label_codes(schema, chunk["id"], chunk["concepts"])
        chunk["gold"] = _gold_labels(chunk["gold"])
        chunk["id"] = id_bytes(chunk["id"])
        return chunk

    _, samples = read_jsonl(
        samples_path, "samples", types, {"gold": None}, codes, _SAMPLE_ARRAYS, fixed
    )
    ids, codes, gold, embeddings, outputs = samples.values()  # types, then arrays
    pairs = EditPairs()
    if pairs_path is not None:
        order = np.argsort(ids, kind="stable")

        def rows(chunk: dict) -> dict:
            return dict(zip(_PAIR_TYPES, _pair_rows(ids, order, *chunk.values())))

        _, columns = read_jsonl(pairs_path, "pairs", _PAIR_TYPES, convert=rows)
        pairs = EditPairs(*columns.values())
    return Dataset(schema, ids, codes, embeddings, outputs, gold, pairs).to_space(space)


def save_dataset(dataset: Dataset, out_dir: str | Path) -> dict[str, Path]:
    """Write schema.json, samples.jsonl and its two .npy files, pairs.jsonl; logit-space only.

    Returns the path of each file, keyed "schema", "samples", "embedding",
    "logits" and "pairs". Floats round-trip bit-exactly through
    `load_dataset`. Label and id columns are built a chunk at a time
    (`_Slices`), so no whole column of strings is held.
    """
    if dataset.space != SPACE_LOGIT:
        raise ValidationError("only logit-space datasets can be serialized")
    out_dir = Path(out_dir)
    samples_path = out_dir / "samples.jsonl"
    paths = {
        "schema": out_dir / "schema.json",
        "samples": samples_path,
        **{key: array_path(samples_path, key) for key in _SAMPLE_ARRAYS},
        "pairs": out_dir / "pairs.jsonl",
    }
    schema, ids, codes, p = dataset.schema, dataset.ids, dataset.codes, dataset.pairs
    edited = dataset.edited_rows()
    write_json(paths["schema"], schema.to_obj())
    attributes, gold = np.arange(len(schema.names)), dataset.gold
    samples = {
        "id": ids,
        "concepts": _Slices(ids.size, lambda rows: schema.level_names(attributes, codes[rows])),
        "gold": _Slices(ids.size, lambda rows: [g if g >= 0 else None for g in gold[rows].tolist()]),
    }
    arrays = dict(zip(_SAMPLE_ARRAYS, (dataset.embeddings, dataset.outputs)))
    write_jsonl(samples_path, samples, _sample_spec(schema)[1], arrays)
    pairs = (lambda rows: ids[p.original[rows]], lambda rows: ids[edited[rows]])
    write_jsonl(paths["pairs"], {key: _Slices(len(p), take) for key, take in zip(_PAIR_TYPES, pairs)})
    return paths


class _Slices:
    """A `write_jsonl` column of `size` rows that `take(rows)` builds a slice at a time."""

    def __init__(self, size: int, take):
        self.size, self.take = size, take

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, rows: slice):
        return self.take(rows)
