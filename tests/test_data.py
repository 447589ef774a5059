"""Schema, encoding, dataset invariants, and file IO."""

import json
import stat

import numpy as np
import pytest

from mcce import (
    ConceptSchema,
    Dataset,
    ValidationError,
    load_dataset,
    one_hot,
    save_dataset,
    softmax,
)
from mcce.data import write_text_atomic

SCHEMA = ConceptSchema.of([("a", ("x", "y")), ("b", ("u", "v", "w"))])

RESTAURANT = ConceptSchema.of(
    [
        ("ambiance", ("neg", "unk", "pos")),
        ("food", ("neg", "unk", "pos")),
        ("noise", ("neg", "unk", "pos")),
        ("service", ("neg", "unk", "pos")),
    ]
)


def make_sample(sid, labels, emb=(0.0, 1.0), out=(0.5, -0.5), gold=None):
    return sid, labels, np.array(emb), np.array(out), gold


def build(samples, pairs=(), schema=SCHEMA):
    """Dataset from make_sample rows and (original, edited, attribute, from, to) pairs."""
    ids, labels, emb, out, gold = zip(*samples) if samples else ((),) * 5
    return Dataset.from_records(schema, ids, labels, emb, out, gold, pairs)


# --- schema -----------------------------------------------------------

def test_schema_shapes_and_blocks():
    assert SCHEMA.width == 5
    assert SCHEMA.names == ("a", "b")
    assert SCHEMA.levels("b") == ("u", "v", "w")
    assert SCHEMA.visible_width() == 5
    assert SCHEMA.visible_width({"a"}) == 3
    assert SCHEMA.visible_blocks() == {"a": slice(0, 2), "b": slice(2, 5)}
    assert SCHEMA.visible_blocks({"a"}) == {"b": slice(0, 3)}
    assert SCHEMA.offsets.tolist() == [0, 2]
    assert SCHEMA.visible_names({"a"}) == ("b",)
    assert RESTAURANT.visible_width({"ambiance"}) == 9


def test_schema_validation():
    with pytest.raises(ValidationError):
        ConceptSchema.of([])
    with pytest.raises(ValidationError):
        ConceptSchema.of([("a", ("x",))])  # one level
    with pytest.raises(ValidationError):
        ConceptSchema.of([("a", ("x", "x"))])  # duplicate level
    with pytest.raises(ValidationError):
        ConceptSchema.of([("a", ("x", "y")), ("a", ("u", "v"))])  # duplicate name
    with pytest.raises(ValidationError):
        SCHEMA.check_hidden({"nope"})
    with pytest.raises(ValidationError):
        SCHEMA.check_hidden({"a", "b"})  # nothing left visible


def test_schema_roundtrip():
    assert ConceptSchema.from_obj(SCHEMA.to_obj()) == SCHEMA


# --- encode / intervene ------------------------------------------------

def test_encode_by_hand():
    v = one_hot(SCHEMA, [[1, 0]])
    assert v.tolist() == [[0.0, 1.0, 1.0, 0.0, 0.0]]
    v = one_hot(SCHEMA, [[1, 0]], hidden={"a"})
    assert v.tolist() == [[1.0, 0.0, 0.0]]


def test_encode_errors():
    with pytest.raises(ValidationError):
        build([make_sample("s1", {"a": "y"})])  # missing b
    with pytest.raises(ValidationError):
        build([make_sample("s1", {"a": "y", "b": "nope"})])
    with pytest.raises(ValidationError):
        build([make_sample("s1", {"a": "y", "b": "u", "c": "x"})])
    with pytest.raises(ValidationError):
        one_hot(SCHEMA, [[1, 0, 0]])  # one code per attribute


def edit(codes, attribute, to):
    """Copy of a code matrix with column `attribute` set to `to` in every row."""
    out = np.array(codes)
    out[:, attribute] = to
    return out


def test_intervene_by_hand():
    codes = np.array([[1, 0]])
    w = one_hot(SCHEMA, edit(codes, 1, 2))
    assert w.tolist() == [[0.0, 1.0, 0.0, 0.0, 1.0]]
    assert codes.tolist() == [[1, 0]]  # input untouched


def test_intervene_commutes_with_encode():
    rng = np.random.default_rng(8)
    for _ in range(50):
        codes = rng.integers(3, size=(1, 4))
        attr, to = int(rng.integers(4)), int(rng.integers(3))
        hidden = frozenset({RESTAURANT.names[0]}) if rng.integers(2) and attr != 0 else frozenset()
        direct = one_hot(RESTAURANT, edit(codes, attr, to), hidden)
        via = one_hot(RESTAURANT, codes, hidden)
        block = RESTAURANT.visible_blocks(hidden)[RESTAURANT.names[attr]]
        via[:, block] = np.eye(3)[to]
        assert np.array_equal(direct, via)


def test_intervene_errors():
    with pytest.raises(ValidationError):
        one_hot(SCHEMA, [[1, 0]], hidden={"a", "b"})  # nothing visible
    with pytest.raises(ValidationError):
        one_hot(SCHEMA, [[1, 0]], hidden={"zzz"})
    with pytest.raises(ValidationError):
        one_hot(SCHEMA, np.ones((1, 4)))  # wrong width


def test_one_hot_invariant_after_intervene():
    codes = np.array([[0, 1]])
    for attr, level in ((0, 1), (1, 0), (1, 1)):
        w = one_hot(SCHEMA, edit(codes, attr, level))[0]
        assert w[0] + w[1] == 1.0 and w[2] + w[3] + w[4] == 1.0


# --- dataset ----------------------------------------------------------

def small_dataset(space="logit"):
    samples = (
        make_sample("s1", {"a": "x", "b": "u"}, (1.0, 0.0), (2.0, -1.0), gold=0),
        make_sample("s2", {"a": "y", "b": "v"}, (0.0, 1.0), (0.5, 0.5), gold=1),
        make_sample("s1e", {"a": "y", "b": "u"}, (1.0, 1.0), (1.0, 1.0), gold=1),
    )
    ds = build(samples, [("s1", "s1e", "a", "x", "y")])
    return ds.to_space(space) if space != "logit" else ds


def test_dataset_lookup_and_fencing():
    ds = small_dataset()
    assert len(ds) == 3
    assert ds.gold[ds.rows_of("s2")] == 1
    masked = ds.mask({"a"})
    assert masked.visible_width == 3
    assert masked.design_matrix(masked.rows_of(["s1"])).tolist() == [[1.0, 0.0, 0.0]]
    assert ds.design_matrix(ds.rows_of(["s1"])).tolist() == [[1.0, 0.0, 1.0, 0.0, 0.0]]
    # the mask is a view; the unmasked dataset is unchanged
    assert ds.visible_width == 5


def test_fit_samples_exclude_edited_rows():
    ds = small_dataset()
    assert ds.ids[ds.fit_rows].tolist() == ["s1", "s2"]
    assert ds.design_matrix(ds.fit_rows).shape == (2, 5)


def test_dataset_matrix_accessors():
    ds = small_dataset()
    assert ds.embeddings.shape == (3, 2)
    assert ds.outputs.shape == (3, 2)
    assert ds.gold.tolist() == [0, 1, 1]
    assert ds.pairs.original.tolist() == [0] and ds.pairs.edited.tolist() == [2]


def test_dataset_rejects_inconsistencies():
    s1 = make_sample("s1", {"a": "x", "b": "u"})
    with pytest.raises(ValidationError):
        build((s1, make_sample("s1", {"a": "y", "b": "u"})))  # dup id
    with pytest.raises(ValidationError):
        build((make_sample("s1", {"a": "x", "b": "zzz"}),))  # bad level
    with pytest.raises(ValidationError):
        build((make_sample("s1", {"a": "x"}),))  # missing label
    with pytest.raises(ValidationError):
        build((s1, make_sample("s2", {"a": "x", "b": "u"}, emb=(1.0, 2.0, 3.0))))
    with pytest.raises(ValidationError):
        build((s1,), pairs=[("s1", "ghost", "a", "x", "y")])
    # edited sample must carry to_level on the edited attribute
    bad_edit = make_sample("s1e", {"a": "x", "b": "u"})
    with pytest.raises(ValidationError):
        build((s1, bad_edit), pairs=[("s1", "s1e", "a", "x", "y")])
    # off-attribute labels must agree
    drift = make_sample("s1e", {"a": "y", "b": "v"})
    with pytest.raises(ValidationError):
        build((s1, drift), pairs=[("s1", "s1e", "a", "x", "y")])
    # from_level must match the original
    edited = make_sample("s1e", {"a": "y", "b": "u"})
    with pytest.raises(ValidationError):
        build((s1, edited), pairs=[("s1", "s1e", "a", "y", "y")])


def test_space_conversion():
    ds = small_dataset()
    probs = ds.to_space("probability")
    assert probs.space == "probability"
    row = probs.outputs[probs.rows_of("s1")]
    expected = np.exp([2.0, -1.0]) / np.exp([2.0, -1.0]).sum()
    assert np.allclose(row, expected, atol=1e-12)
    # idempotent; reverse direction refused
    assert probs.to_space("probability") is probs
    with pytest.raises(ValidationError):
        probs.to_space("logit")
    with pytest.raises(ValidationError):
        ds.to_space("banana")


def test_softmax_rows():
    x = np.array([[1000.0, 1000.0], [0.0, np.log(3.0)]])
    p = softmax(x)
    assert np.allclose(p[0], [0.5, 0.5], atol=1e-12)
    assert np.allclose(p[1], [0.25, 0.75], atol=1e-12)


def test_mask_revalidates():
    ds = small_dataset()
    with pytest.raises(ValidationError):
        ds.mask({"zzz"})


# --- file IO ----------------------------------------------------------

def test_save_load_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(9)
    samples = tuple(
        make_sample(
            f"s{i}",
            {"a": ("x", "y")[i % 2], "b": ("u", "v", "w")[i % 3]},
            emb=rng.standard_normal(4),
            out=rng.standard_normal(3),
            gold=int(i % 3),
        )
        for i in range(6)
    )
    ds = build(samples)
    paths = save_dataset(ds, tmp_path)
    back = load_dataset(paths["samples"], paths["pairs"], paths["schema"])
    assert back.schema == ds.schema
    for column in ("ids", "codes", "embeddings", "outputs", "gold"):
        assert np.array_equal(getattr(ds, column), getattr(back, column)), column
    # byte-identical on re-save
    first = {k: p.read_bytes() for k, p in paths.items()}
    save_dataset(back, tmp_path)
    assert {k: p.read_bytes() for k, p in paths.items()} == first


def test_save_refuses_probability_space(tmp_path):
    with pytest.raises(ValidationError):
        save_dataset(small_dataset("probability"), tmp_path)


def write_fixture(tmp_path, sample_lines, pair_lines=()):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(SCHEMA.to_obj()))
    samples = tmp_path / "samples.jsonl"
    samples.write_text("\n".join(sample_lines) + "\n")
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("\n".join(pair_lines) + ("\n" if pair_lines else ""))
    return samples, pairs, schema


GOOD_LINE = json.dumps(
    {"id": "s1", "concepts": {"a": "x", "b": "u"}, "embedding": [0.0], "logits": [0.0, 1.0]}
)


def test_loader_reports_file_and_line(tmp_path):
    samples, pairs, schema = write_fixture(tmp_path, [GOOD_LINE, "{not json"])
    with pytest.raises(ValidationError) as err:
        load_dataset(samples, pairs, schema)
    assert "samples.jsonl:2" in str(err.value)


def test_loader_rejects_nan_tokens(tmp_path):
    bad = GOOD_LINE.replace("[0.0]", "[NaN]")
    samples, pairs, schema = write_fixture(tmp_path, [bad])
    with pytest.raises(ValidationError) as err:
        load_dataset(samples, pairs, schema)
    assert "NaN" in str(err.value) or "non-finite" in str(err.value)


def test_loader_rejects_missing_keys(tmp_path):
    for drop in ("id", "concepts", "embedding", "logits"):
        obj = json.loads(GOOD_LINE)
        del obj[drop]
        samples, pairs, schema = write_fixture(tmp_path, [json.dumps(obj)])
        with pytest.raises(ValidationError) as err:
            load_dataset(samples, pairs, schema)
        assert drop in str(err.value)


def test_loader_missing_file(tmp_path):
    samples, pairs, schema = write_fixture(tmp_path, [GOOD_LINE])
    with pytest.raises(ValidationError):
        load_dataset(tmp_path / "ghost.jsonl", pairs, schema)
    with pytest.raises(ValidationError):
        load_dataset(samples, tmp_path / "ghost.jsonl", schema)
    ds = load_dataset(samples, None, schema)  # pairs are optional
    assert len(ds) == 1 and len(ds.pairs) == 0


def test_loader_applies_probability_space(tmp_path):
    samples, pairs, schema = write_fixture(tmp_path, [GOOD_LINE])
    ds = load_dataset(samples, None, schema, space="probability")
    assert np.allclose(ds.outputs[ds.rows_of("s1")].sum(), 1.0, atol=1e-12)


def test_write_text_atomic_keeps_plain_open_mode(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_text("x")
    path = write_text_atomic(tmp_path / "atomic.txt", "hello\n")
    assert path.read_text() == "hello\n"
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["atomic.txt", "plain.txt"]


def test_write_text_atomic_failure_leaves_no_stray_file(tmp_path):
    path = write_text_atomic(tmp_path / "out.txt", "old\n")
    with pytest.raises(UnicodeEncodeError):
        write_text_atomic(path, "lone surrogate \ud800")  # not encodable as UTF-8
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    assert path.read_text() == "old\n"
