"""Schema, encoding, dataset invariants, and file IO."""

import json
import stat
import tracemalloc
from dataclasses import replace
from itertools import chain

import numpy as np
import pytest

from mcce import (
    ConceptSchema,
    Dataset,
    EditPairs,
    ValidationError,
    default_config,
    generate,
    load_dataset,
    make_pairs,
    one_hot,
    save_dataset,
    softmax,
)
from mcce.data import id_text, write_jsonl, write_npy_blocks, write_text_atomic

from coefficients import visible_blocks
from jsonl_tables import write_lines, write_table

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
    """Dataset from make_sample rows and (original id, edited id) pairs; level names become codes."""
    ids, labels, emb, out, gold = zip(*samples) if samples else ((),) * 5
    attribute = np.tile(np.arange(len(schema.names)), len(ids))
    codes = schema.level_codes(attribute, chain(*labels)).reshape(len(ids), len(schema.names))
    rows = np.array([[ids.index(i) for i in pair] for pair in pairs], dtype=int).reshape(-1, 2)
    gold = [-1 if g is None else g for g in gold]
    return Dataset(schema, ids, codes, emb, out, gold, EditPairs(*rows.T))


# --- schema -----------------------------------------------------------

def test_schema_shapes_and_blocks():
    assert SCHEMA.width == 5
    assert SCHEMA.names == ("a", "b")
    assert SCHEMA.levels("b") == ("u", "v", "w")
    assert SCHEMA.visible_width() == 5
    assert SCHEMA.visible_width({"a"}) == 3
    assert visible_blocks(SCHEMA) == {"a": slice(0, 2), "b": slice(2, 5)}
    assert visible_blocks(SCHEMA, {"a"}) == {"b": slice(0, 3)}
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
    # a short or long label row, or an unknown level, is the file reader's to refuse
    # (test_label_defects_exit_2_naming_file_and_line, test_a_bad_row_names_its_file_and_line)
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
        block = visible_blocks(RESTAURANT, hidden)[RESTAURANT.names[attr]]
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
        make_sample("s1", ["x", "u"], (1.0, 0.0), (2.0, -1.0), gold=0),
        make_sample("s2", ["y", "v"], (0.0, 1.0), (0.5, 0.5), gold=1),
        make_sample("s1e", ["y", "u"], (1.0, 1.0), (1.0, 1.0), gold=1),
    )
    ds = build(samples, [("s1", "s1e")])
    return ds.to_space(space) if space != "logit" else ds


def test_dataset_lookup_and_fencing():
    ds = small_dataset()
    assert len(ds) == 3
    assert ds.gold[1] == 1  # s2
    masked = ds.mask({"a"})
    assert masked.visible_width == 3
    assert masked.design_matrix([0]).tolist() == [[1.0, 0.0, 0.0]]  # s1
    assert ds.design_matrix([0]).tolist() == [[1.0, 0.0, 1.0, 0.0, 0.0]]
    # the mask is a view; the unmasked dataset is unchanged
    assert ds.visible_width == 5


def test_errors_quote_sample_ids_as_plain_strings():
    # numpy 2 would print a numpy string element as np.str_('s1')
    schema = ConceptSchema.of([("a", ("x", "y"))])
    zeros = np.zeros((2, 1))
    with pytest.raises(ValidationError, match=r"^duplicate sample id 's1'$"):
        Dataset(schema, ["s1", "s1"], [[0], [1]], zeros, zeros)
    with pytest.raises(ValidationError, match=r"^sample 's2': non-finite embedding$"):
        Dataset(schema, ["s1", "s2"], [[0], [1]], np.array([[0.0], [np.nan]]), zeros)


def test_fit_samples_exclude_edited_rows():
    ds = small_dataset()
    assert ds.ids[ds.fit_rows].tolist() == [b"s1", b"s2"]  # UTF-8 bytes
    assert ds.design_matrix(ds.fit_rows).shape == (2, 5)


def test_ids_are_utf8_bytes_that_round_trip_through_the_files(tmp_path):
    # non-ASCII, JSON escapes and a lone surrogate, which a JSON "\\ud800" escape can carry
    texts = ["é", 'q"\\', "\ud800", "s"]
    rows = [make_sample(t, [l, "u"]) for t, l in zip(texts, ["x", "y", "x", "y"])]
    ds = build(rows, [("é", 'q"\\')])
    assert ds.ids.dtype == np.dtype("S3")  # "\ud800" takes 3 bytes, as its surrogatepass UTF-8 form
    assert id_text(ds.ids).tolist() == texts
    paths = save_dataset(ds, tmp_path)
    assert paths["samples"].read_text(encoding="utf-8").splitlines()[1].startswith('["\\u00e9", ')
    loaded = load_dataset(paths["samples"], paths["pairs"], paths["schema"])
    assert loaded.ids.tobytes() == ds.ids.tobytes() and loaded.ids.dtype == ds.ids.dtype
    assert [name.tolist() for name in loaded.pair_names(0)] == ["é", "a", "x", "y"]
    with pytest.raises(ValidationError, match="^duplicate sample id 'é'$"):
        Dataset(SCHEMA, ["é", "é"], [[0, 0], [1, 0]], np.zeros((2, 1)), np.zeros((2, 1)))


def test_keep_renumbers_the_kept_rows_and_keeps_each_pairs_edit():
    # user data: the second pair's original row is the first pair's edited row
    rows = [make_sample("A", ["x", "u"], emb=(1.0, 2.0)), make_sample("B", ["y", "u"], emb=(3.0, 4.0)),
            make_sample("Z", ["x", "w"]), make_sample("C", ["y", "v"], emb=(5.0, 6.0))]
    ds = build(rows, [("A", "B"), ("B", "C")])
    kept = ds.keep([0, 1])
    assert kept.ids.tolist() == [b"A", b"B"]
    assert kept.embeddings.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    p = kept.pairs
    assert (p.original.tolist(), p.edited.tolist()) == ([0, 1], [1, -1])  # C is not kept
    assert (p.attribute.tolist(), p.to.tolist()) == ([0, 1], [1, 1])
    assert [name.tolist() for name in kept.pair_names(1)] == ["B", "b", "u", "v"]
    assert kept.fit_rows.tolist() == [0]  # B stays an edited row
    assert kept.id_order.tolist() == [0, 1]  # not the sort of the four ids of `ds`
    with pytest.raises(ValidationError, match="edited rows were released"):
        kept.edited_rows()
    assert ds.keep([2]).pairs.original.size == 0  # no pair's original row is kept
    for rows in ([1, 0], [0, 0], [4], [-1]):
        with pytest.raises(ValidationError, match=r"^kept rows must ascend in \[0, 4\)$"):
            ds.keep(rows)


def test_load_dataset_reads_only_the_float_columns_and_rows_it_is_given(tmp_path):
    ds = small_dataset()
    paths = save_dataset(ds, tmp_path)
    files = (paths["samples"], paths["pairs"], paths["schema"])
    labels = load_dataset(*files, floats=("outputs",))
    assert labels.outputs.tolist() == ds.outputs.tolist()
    assert labels.embeddings.shape == (3, 0)
    assert labels.edited_rows().tolist() == ds.pairs.edited.tolist()
    assert load_dataset(*files, floats=()).outputs.shape == (3, 0)
    # the rows are chosen on the labels and pairs alone, before any float is read
    seen = []
    fit = load_dataset(*files, space="probability", rows=lambda d: seen.append(d) or d.fit_rows)
    assert seen[0].embeddings.shape == seen[0].outputs.shape == (3, 0)
    assert fit.ids.tolist() == [b"s1", b"s2"] and fit.fit_rows.tolist() == [0, 1]
    assert fit.embeddings.tolist() == ds.embeddings[:2].tolist()
    assert fit.outputs.tolist() == softmax(ds.outputs[:2]).tolist()
    assert fit.pairs.edited.tolist() == [-1]  # its edited row is not kept
    with pytest.raises(ValidationError, match="^the float columns are"):
        load_dataset(*files, floats=("codes",))
    with pytest.raises(ValidationError, match=r"^kept rows must ascend in \[0, 3\)$"):
        load_dataset(*files, rows=lambda d: [1, 0])


def test_dataset_matrix_accessors():
    ds = small_dataset()
    assert ds.embeddings.shape == (3, 2)
    assert ds.outputs.shape == (3, 2)
    assert ds.gold.tolist() == [0, 1, 1]
    assert ds.pairs.original.tolist() == [0] and ds.pairs.edited.tolist() == [2]


def test_dataset_rejects_inconsistencies():
    s1 = make_sample("s1", ["x", "u"])
    with pytest.raises(ValidationError):
        build((s1, make_sample("s1", ["y", "u"])))  # dup id
    with pytest.raises(ValidationError):
        build((s1, make_sample("s2", ["x", "u"], emb=(1.0, 2.0, 3.0))))
    # integer columns take integers only: each of these was once truncated
    zeros, codes = np.zeros((2, 1)), [[0, 0], [1, 0]]
    for gold in ([1.5, 0], [True, False]):
        with pytest.raises(ValidationError, match="^gold labels must be integers"):
            Dataset(SCHEMA, ["s0", "s1"], codes, zeros, zeros, gold=gold)
    with pytest.raises(ValidationError, match="^level codes must be integers"):
        Dataset(SCHEMA, ["s0", "s1"], [[0.5, 0], [1, 0]], zeros, zeros)
    with pytest.raises(ValidationError, match="^edit pair rows must be integers"):
        EditPairs([0.7], [1.9])
    with pytest.raises(ValidationError, match="^gold labels must be integers that int64 holds"):
        Dataset(SCHEMA, ["s0", "s1"], codes, zeros, zeros, gold=np.array([2**64 - 1, 0], np.uint64))
    # an empty column passes whatever its dtype: np.asarray([]) is float64
    empty = Dataset(SCHEMA, [], np.zeros((0, 2)), np.zeros((0, 1)), np.zeros((0, 1)), np.array([]),
                    EditPairs(np.array([]), np.array([])))
    assert empty.gold.dtype == empty.pairs.original.dtype == np.int64
    assert empty.codes.dtype == np.uint8  # the narrowest unsigned dtype for 3 levels


def test_pair_edit_is_read_off_the_two_rows_labels():
    s1, s2 = make_sample("s1", ["x", "u"]), make_sample("s2", ["x", "w"])
    ds = build((s1, s2, make_sample("s1e", ["y", "u"])), [("s1", "s1e"), ("s1", "s2")])
    p = ds.pairs
    assert (p.original.tolist(), p.edited.tolist()) == ([0, 0], [2, 1])
    assert (p.attribute.tolist(), p.to.tolist()) == ([0, 1], [1, 2])
    assert [name.tolist() for name in ds.pair_names(1)] == ["s1", "b", "u", "w"]


def test_pairs_must_change_exactly_one_attribute():
    s1 = make_sample("s1", ["x", "u"])
    # a self-pair, or a pair of equal labels, changes nothing; once it dropped s1 from the fit
    with pytest.raises(ValidationError, match=r"^pair 's1'->'s1': labels differ in no attribute"):
        build((s1, make_sample("s2", ["y", "v"])), pairs=[("s1", "s1")])
    with pytest.raises(ValidationError, match=r"^pair 's1'->'s1c': labels differ in no attribute"):
        build((s1, make_sample("s1c", ["x", "u"])), pairs=[("s1", "s1c")])
    with pytest.raises(ValidationError, match=r"^pair 's1'->'s1e': labels differ in 'a', 'b', not in"):
        build((s1, make_sample("s1e", ["y", "v"])), pairs=[("s1", "s1e")])
    zeros = np.zeros((2, 1))
    with pytest.raises(ValidationError, match="labels differ in no attribute"):
        Dataset(SCHEMA, ["s0", "s1"], [[0, 0], [1, 1]], zeros, zeros, pairs=EditPairs([0], [0]))


def test_space_conversion():
    ds = small_dataset()
    probs = ds.to_space("probability")
    assert probs.space == "probability"
    row = probs.outputs[0]  # s1
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
            [("x", "y")[i % 2], ("u", "v", "w")[i % 3]],
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


def write_fixture(tmp_path, sample_rows, lines=()):
    """schema.json, samples.jsonl of `sample_rows` with raw `lines` after them, and no pairs."""
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(SCHEMA.to_obj()))
    samples = write_table(tmp_path / "samples.jsonl", sample_rows)
    write_lines(samples, [*samples.read_text().splitlines(), *lines])
    columns = ["original_id", "edited_id"]
    pairs = write_lines(tmp_path / "pairs.jsonl", [json.dumps({"meta": {"columns": columns}})])
    return samples, pairs, schema


GOOD_ROW = {"id": "s1", "concepts": {"a": "x", "b": "u"}, "embedding": [0.0], "logits": [0.0, 1.0],
            "gold": None}


def test_loader_reports_file_and_line(tmp_path):
    samples, pairs, schema = write_fixture(tmp_path, [GOOD_ROW], ["{not json"])
    with pytest.raises(ValidationError) as err:
        load_dataset(samples, pairs, schema)
    assert "samples.jsonl:3" in str(err.value)


def test_loader_rejects_nan_tokens(tmp_path):
    samples, pairs, schema = write_fixture(tmp_path, [GOOD_ROW])
    write_lines(samples, [*samples.read_text().splitlines(), '["s2", ["x", "u"], NaN]'])
    with pytest.raises(ValidationError) as err:
        load_dataset(samples, pairs, schema)
    assert "samples.jsonl:3: non-finite float token 'NaN'" in str(err.value)


def test_loader_needs_the_meta_line_on_line_1(tmp_path):
    samples, pairs, schema = write_fixture(tmp_path, [GOOD_ROW])
    write_lines(samples, ["", *samples.read_text().splitlines()])  # a blank line 1
    with pytest.raises(ValidationError, match="samples.jsonl:1: expected a meta line"):
        load_dataset(samples, pairs, schema)


def test_loader_rejects_missing_keys(tmp_path):
    for drop in ("id", "concepts", "embedding", "logits"):
        row = dict(GOOD_ROW)
        del row[drop]
        samples, pairs, schema = write_fixture(tmp_path, [row])
        with pytest.raises(ValidationError) as err:
            load_dataset(samples, pairs, schema)
        assert f"samples.jsonl:1: " in str(err.value) and repr(drop) in str(err.value)


def test_loader_missing_file(tmp_path):
    samples, pairs, schema = write_fixture(tmp_path, [GOOD_ROW])
    with pytest.raises(ValidationError):
        load_dataset(tmp_path / "ghost.jsonl", pairs, schema)
    with pytest.raises(ValidationError):
        load_dataset(samples, tmp_path / "ghost.jsonl", schema)
    ds = load_dataset(samples, None, schema)  # pairs are optional
    assert len(ds) == 1 and len(ds.pairs) == 0
    assert len(load_dataset(samples, pairs, schema).pairs) == 0


def test_loader_applies_probability_space(tmp_path):
    samples, pairs, schema = write_fixture(tmp_path, [GOOD_ROW])
    ds = load_dataset(samples, None, schema, space="probability")
    assert np.allclose(ds.outputs[0].sum(), 1.0, atol=1e-12)


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


def test_write_jsonl_rejects_columns_of_unequal_length(tmp_path):
    # rows are zipped from the columns, which would drop the longer columns' tails
    with pytest.raises(ValidationError, match="one common length"):
        write_jsonl(tmp_path / "t.jsonl", {"a": ["x", "y"], "b": np.array([["z", "w"]])})
    with pytest.raises(ValidationError, match="one common length"):
        write_jsonl(tmp_path / "t.jsonl", {"a": ["x", "y"]}, arrays={"m": np.zeros((3, 1))})
    assert not any(tmp_path.iterdir())


# The bytes `write_npy_blocks` gives a fixed 2x3 matrix: NEP 1's format 1.0, a
# header padded to 128 bytes, then the values as little-endian float64 in
# C order. Equal bytes on every supported numpy keep reruns of `synth`
# byte-identical across numpy versions.
NPY_2X3 = (
    b"\x93NUMPY\x01\x00v\x00{'descr': '<f8', 'fortran_order': False, 'shape': (2, 3), }"
    + b" " * 58 + b"\n"
    + bytes.fromhex(
        "000000000000f83f" "0000000000000080" "0100000000000000"
        "a0c8eb85f3cce17f" "00000000000000c0" "9a9999999999b93f"
    )
)


def write_npy(path, matrix):
    """`matrix` as one .npy file, written in one block."""
    return write_npy_blocks([path], len(matrix), [(matrix,)])[0]


def test_write_npy_bytes_are_pinned(tmp_path):
    matrix = np.array([[1.5, -0.0, 5e-324], [1e308, -2.0, 0.1]])
    assert write_npy(tmp_path / "m.npy", matrix).read_bytes() == NPY_2X3
    # the same values in another layout or byte order give the same file
    twisted = np.asfortranarray(matrix).astype(">f8")
    assert write_npy(tmp_path / "f.npy", twisted).read_bytes() == NPY_2X3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.npy", "m.npy"]


def test_write_npy_blocks_writes_the_file_of_the_whole_matrix(tmp_path):
    matrix = np.array([[1.5, -0.0, 5e-324], [1e308, -2.0, 0.1]])
    for cut, name in ((0, "a.npy"), (1, "b.npy"), (2, "c.npy")):
        blocks = [(matrix[:cut],), (np.asfortranarray(matrix[cut:]).astype(">f8"),)]
        assert write_npy_blocks([tmp_path / name], 2, blocks)[0].read_bytes() == NPY_2X3
    # a numpy integer row count makes the same header, not "np.int64(2)"
    assert write_npy_blocks([tmp_path / "a.npy"], np.int64(2), [(matrix,)])[0].read_bytes() == NPY_2X3
    # two files from one pass, and a file of no rows
    write_npy_blocks([tmp_path / "d.npy", tmp_path / "e.npy"], 2, [(matrix, matrix[:, :1])])
    assert np.array_equal(np.load(tmp_path / "e.npy"), matrix[:, :1])
    assert (tmp_path / "d.npy").read_bytes() == NPY_2X3
    assert np.load(write_npy_blocks([tmp_path / "f.npy"], 0, [])[0]).shape == (0, 0)


@pytest.mark.parametrize("blocks, message", [
    ([(np.zeros((2, 3)),), (np.zeros((1, 3)),)], "hold 3 rows, not 2"),
    ([(np.zeros((1, 3)),)], "hold 1 rows, not 2"),
    ([(np.zeros((1, 3)),), (np.zeros((1, 2)),)], r"a block of shape \(1, 2\), expected \(1, 3\)"),
])
def test_write_npy_blocks_refuses_blocks_of_another_shape_and_writes_nothing(tmp_path, blocks, message):
    (tmp_path / "old.npy").write_bytes(b"old")
    both = [block * 2 for block in blocks]  # each block's matrix for both files
    with pytest.raises(ValidationError, match=message):
        write_npy_blocks([tmp_path / "old.npy", tmp_path / "new.npy"], 2, both)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.npy"]
    assert (tmp_path / "old.npy").read_bytes() == b"old"


def test_save_dataset_streams_float_blocks_and_a_failing_block_writes_nothing(tmp_path):
    cfg = default_config(n=40, seed=2)
    paired = make_pairs(generate(cfg)[0], cfg, 2)
    whole = save_dataset(paired, tmp_path / "whole")
    rows = [(paired.embeddings[i : i + 7], paired.outputs[i : i + 7]) for i in range(0, 120, 7)]
    labels = replace(paired, embeddings=np.empty((120, 0)), outputs=np.empty((120, 0)))
    streamed = save_dataset(labels, tmp_path / "streamed", iter(rows))
    for key, path in whole.items():
        assert path.read_bytes() == streamed[key].read_bytes(), key

    def failing():
        yield rows[0]
        embeddings = rows[1][0].copy()
        embeddings[3, 2] = np.inf
        yield embeddings, rows[1][1]

    with pytest.raises(ValidationError, match=r"^sample 's000010': non-finite embedding$"):
        save_dataset(labels, tmp_path / "failed", failing())
    assert not any((tmp_path / "failed").iterdir())


def files_of(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def test_a_table_that_fails_leaves_the_npy_files_it_names_as_they_were(tmp_path):
    # else a reader would pair the old table's rows with the new matrix's
    path = write_jsonl(tmp_path / "t.jsonl", {"id": ["a", "b"]}, arrays={"effect": np.zeros((2, 3))})
    before = files_of(tmp_path)
    assert sorted(before) == ["t.effect.npy", "t.jsonl"]
    with pytest.raises(KeyError):  # no row holds a float
        write_jsonl(path, {"id": ["a", 0.5]}, arrays={"effect": np.ones((2, 3))})
    assert files_of(tmp_path) == before  # and no temp file is left


def test_save_dataset_whose_samples_table_fails_leaves_every_file_as_it_was(tmp_path, monkeypatch):
    cfg = default_config(n=40, seed=2)
    save_dataset(make_pairs(generate(cfg)[0], cfg, 2), tmp_path)
    before = files_of(tmp_path)
    assert len(before) == 5
    cfg = default_config(n=30, seed=3)
    other = make_pairs(generate(cfg)[0], cfg, 1)

    def fail(*args):
        raise RuntimeError("no labels")

    monkeypatch.setattr(ConceptSchema, "level_names", fail)
    with pytest.raises(RuntimeError, match="no labels"):
        save_dataset(other, tmp_path)
    assert files_of(tmp_path) == before


def test_write_text_atomic_writes_pieces_and_a_failing_piece_leaves_no_stray_file(tmp_path):
    path = write_text_atomic(tmp_path / "out.txt", (piece for piece in ("a", "", "bc\n")))
    assert path.read_text() == "abc\n"

    def pieces():
        yield "new"
        raise ValueError("no more")

    with pytest.raises(ValueError):
        write_text_atomic(path, pieces())
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    assert path.read_text() == "abc\n"


# --- memory: files are read and written a chunk of rows at a time ----------------
# Measured with tracemalloc on the 9000 rows below: load_dataset peaks at
# 1.9x the bytes of the arrays it returns and save_dataset at 1.0x the size
# of the samples' files (samples.jsonl and its two .npy files), most of it
# while writing pairs.jsonl; readers and writers that held whole files as
# row objects peaked at 6.9x and, with the floats inline in the JSONL
# files, 2.6x.
LOAD_PEAK_PER_ARRAY_BYTE = 3.0
SAVE_PEAK_PER_FILE_BYTE = 1.25


@pytest.fixture(scope="module")
def rows_9000():
    config = default_config(n=3000, seed=1)
    dataset, truth = generate(config)
    return make_pairs(dataset, config, edits_per_sample=2)


def traced_peak(call):
    """(result, peak bytes traced while `call()` ran)."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_dataset_peak_memory_is_a_small_multiple_of_its_arrays(rows_9000, tmp_path):
    paths = save_dataset(rows_9000, tmp_path)
    files = (paths["samples"], paths["pairs"], paths["schema"])
    loaded, peak = traced_peak(lambda: load_dataset(*files))
    assert len(loaded) == len(rows_9000) == 9000
    p = loaded.pairs
    arrays = (loaded.ids, loaded.codes, loaded.embeddings, loaded.outputs, loaded.gold)
    nbytes = sum(a.nbytes for a in (*arrays, p.original, p.edited, p.attribute, p.to))
    assert peak < LOAD_PEAK_PER_ARRAY_BYTE * nbytes, peak / nbytes


def test_save_dataset_peak_memory_is_below_its_file_size(rows_9000, tmp_path):
    paths, peak = traced_peak(lambda: save_dataset(rows_9000, tmp_path))
    size = sum(paths[key].stat().st_size for key in ("samples", "embedding", "logits"))
    assert peak < SAVE_PEAK_PER_FILE_BYTE * size, peak / size


@pytest.fixture(scope="module")
def wide_embedding_files(tmp_path_factory):
    """Files of 1200 rows, 400 of them factual, with a 256-wide embedding, and the embedding's bytes."""
    config = default_config(n=400, seed=1, embed_dim=256)
    dataset = make_pairs(generate(config)[0], config, edits_per_sample=2)
    paths = save_dataset(dataset, tmp_path_factory.mktemp("wide"))
    return (paths["samples"], paths["pairs"], paths["schema"]), dataset.embeddings.nbytes


def test_load_dataset_copies_no_float_column_it_does_not_read(wide_embedding_files):
    # every row of the embedding file is checked finite, a 64 KiB block at a time; the peak,
    # 0.28x the embedding's bytes, is the labels' and pairs' (1.16x when every column is read)
    files, nbytes = wide_embedding_files
    loaded, peak = traced_peak(lambda: load_dataset(*files, floats=("outputs",)))
    assert loaded.embeddings.shape == (1200, 0)
    assert peak < 0.5 * nbytes, peak / nbytes


def test_load_dataset_copies_only_the_rows_it_keeps(wide_embedding_files):
    files, nbytes = wide_embedding_files
    loaded, peak = traced_peak(lambda: load_dataset(*files, rows=lambda d: d.fit_rows))
    assert loaded.embeddings.shape == (400, 256)
    assert peak < 0.75 * nbytes, peak / nbytes  # 0.50x: the kept third, and no whole matrix
