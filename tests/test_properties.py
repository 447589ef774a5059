"""Property tests over random schemas, masks and edits.

The references here are written per row, on label names, the way the
batched code is not: a one-hot vector built level by level, an edit as
a changed label, and the closed-form mcce effect of one edit. The approx
reference works one edit at a time on label tuples and Python ints, and
the S-Learner reference sums its Hessian over every row. The
effects-file and JSONL-reader references are earlier per-row versions
of the library code, kept to pin the faster versions bit for bit;
`synthesize_sample` is the per-sample reference of the generator, and a
left-to-right sum of Python floats the reference of the fixed-order
sums that it and the batched generator share.
"""

import contextlib
import csv
import io
import json
import struct
import warnings
from dataclasses import replace
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mcce import (
    ConceptSchema,
    Dataset,
    EditPairs,
    Effects,
    MCCEModel,
    SLearnerModel,
    SynthGroundTruth,
    build_label_index,
    default_config,
    explain_approx,
    explain_mcce,
    explain_slearner,
    fit_mcce,
    fit_slearner,
    generate,
    get_distance,
    global_report,
    coefficient_error,
    icace_error,
    load_dataset,
    load_ground_truth,
    load_model,
    make_pairs,
    match_effects,
    one_hot,
    oracle_effect,
    read_effects,
    save_dataset,
    save_ground_truth,
    save_model,
    softmax,
    synthesize_sample,
    write_effects,
)
from mcce.data import (
    _DOC_JSON,
    _JSON_TYPES,
    _PAIR_TYPES,
    _ROW_JSON,
    _SAMPLE_ARRAYS,
    _gold_labels,
    _header,
    _label_codes,
    _pair_rows,
    _parse_json,
    _read_matrix,
    _RowError,
    _sample_spec,
    id_bytes,
    id_text,
    load_schema,
    read_jsonl,
    write_jsonl,
)
from mcce.cli import _explain, _pair_seeds, main
from mcce.explainers import _EFFECT_TYPES, SLEARNER_GRAD_TOL, SLEARNER_MAX_ITER
from mcce.errors import ValidationError
from mcce.linalg import lstsq
from mcce.synthetic import _one_hot_product, _scores


def reference_one_hot(schema, labels, hidden):
    """One-hot of a {attribute: level} dict over the visible attributes, level by level."""
    out = []
    for name, levels in schema.attributes:
        if name not in hidden:
            out.extend(1.0 if level == labels[name] else 0.0 for level in levels)
    return np.array(out)


def row_labels(dataset, row):
    return {
        name: levels[dataset.codes[row, a]]
        for a, (name, levels) in enumerate(dataset.schema.attributes)
    }


@st.composite
def masked_datasets(draw):
    """A random schema and mask, random rows on it, and random visible edits."""
    level_counts = draw(st.lists(st.integers(2, 4), min_size=1, max_size=4))
    schema = ConceptSchema.of(
        (f"a{i}", tuple(f"l{j}" for j in range(count))) for i, count in enumerate(level_counts)
    )
    flags = draw(st.lists(st.booleans(), min_size=len(level_counts), max_size=len(level_counts)))
    assume(not all(flags))
    hidden = frozenset(name for name, flag in zip(schema.names, flags) if flag)
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 8))
    q = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = np.column_stack([rng.integers(count, size=n) for count in level_counts])
    dataset = Dataset(
        schema,
        [f"r{i}" for i in range(n)],
        codes,
        rng.standard_normal((n, d)),
        rng.standard_normal((n, q)),
        hidden_attributes=hidden,
    )
    visible = [a for a, flag in enumerate(flags) if not flag]
    m = draw(st.integers(1, 20))
    rows = rng.integers(n, size=m)
    attribute = rng.choice(visible, size=m)
    to = rng.integers(schema.sizes[attribute])
    return dataset, rows, attribute, to


def other_levels(rng, schema, current, attribute):
    """A level code of each attribute in `attribute` other than the one in `current`, uniform among the rest."""
    to = rng.integers(schema.sizes[attribute] - 1)
    return to + (to >= current)


def edited_reference(dataset, rows, attribute, to):
    """Per-edit reference design: the row's labels with one label replaced."""
    schema = dataset.schema
    designs = []
    for row, a, code in zip(rows, attribute, to):
        labels = row_labels(dataset, row)
        name, levels = schema.attributes[a]
        labels[name] = levels[code]
        designs.append(reference_one_hot(schema, labels, dataset.hidden_attributes))
    return np.array(designs)


@settings(max_examples=60, deadline=None)
@given(masked_datasets())
def test_batched_design_and_edit_match_per_row_reference(problem):
    dataset, rows, attribute, to = problem
    hidden = dataset.hidden_attributes
    reference = np.array(
        [
            reference_one_hot(dataset.schema, row_labels(dataset, i), hidden)
            for i in range(len(dataset))
        ]
    )
    assert np.array_equal(dataset.design_matrix(), reference)

    # the edited design, seen through an S-Learner whose weights read it back
    k, q = dataset.visible_width, dataset.outputs.shape[1]
    weights = np.random.default_rng(len(rows)).standard_normal((k, q))
    model = SLearnerModel(dataset.schema, hidden, weights, np.zeros(q), "logit", 0, 0.0, True, 0.0)
    effect = explain_slearner(model, dataset, rows, attribute, to)
    predicted = effect + softmax(dataset.outputs[rows])
    want = softmax(edited_reference(dataset, rows, attribute, to) @ weights)
    assert np.allclose(predicted, want, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(masked_datasets())
def test_batched_explain_mcce_equals_closed_form_per_pair(problem):
    dataset, rows, attribute, to = problem
    n, d = dataset.embeddings.shape
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small draws interpolate on purpose
        model = fit_mcce(dataset, n_pseudo=min(dataset.visible_width, n, d))
    batched = explain_mcce(model, dataset, rows, attribute, to)
    edited = edited_reference(dataset, rows, attribute, to)
    for i, row in enumerate(rows):
        c = reference_one_hot(dataset.schema, row_labels(dataset, row), dataset.hidden_attributes)
        e, y = dataset.embeddings[row], dataset.outputs[row]
        dc = edited[i] - c
        scores = (e - c @ model.embed_coef) @ model.pseudo_basis
        fit_resid = c @ model.concept_coef + scores @ model.pseudo_coef - y
        closed = (
            dc @ model.concept_coef
            - (dc @ model.embed_coef @ model.pseudo_basis) @ model.pseudo_coef
            + fit_resid
        )
        assert np.allclose(batched[i], closed, rtol=0, atol=1e-9)


@st.composite
def synthetic_datasets(draw):
    level_counts = draw(st.lists(st.integers(2, 4), min_size=1, max_size=4))
    attributes = [
        (f"a{i}", [f"l{j}" for j in range(count)]) for i, count in enumerate(level_counts)
    ]
    config = default_config(
        n=draw(st.integers(1, 25)),
        seed=draw(st.integers(0, 1000)),
        attributes=attributes,
        n_classes=draw(st.integers(2, 4)),
        embed_dim=draw(st.integers(1, 6)),
        outcome_noise=0.3,
        exact_recovery=False,
    )
    dataset, truth = generate(config)
    edits = draw(st.integers(1, len(level_counts)))
    return make_pairs(dataset, config, edits)


@settings(max_examples=30, deadline=None)
@given(synthetic_datasets(), st.data())
def test_dataset_and_effects_round_trip_bit_exactly(tmp_path_factory, dataset, data):
    out = tmp_path_factory.mktemp("roundtrip")
    paths = save_dataset(dataset, out)
    back = load_dataset(paths["samples"], paths["pairs"], paths["schema"])
    assert back.schema == dataset.schema
    for column in ("ids", "codes", "embeddings", "outputs", "gold"):
        assert np.array_equal(getattr(back, column), getattr(dataset, column)), column
    for column in ("original", "edited", "attribute", "to"):
        assert np.array_equal(getattr(back.pairs, column), getattr(dataset.pairs, column)), column

    m = len(dataset.pairs)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.integers(-300, 300, size=(m, 1))  # exponents across the float range
    effect = rng.standard_normal((m, dataset.outputs.shape[1])) * scale
    fallback = rng.random(m) < 0.5
    effects = Effects.for_pairs(dataset, np.arange(m), effect, "approx", "logit", fallback)
    write_effects(out / "effects.jsonl", effects, {"method": "approx"})
    read, meta = read_effects(out / "effects.jsonl")
    assert meta == {"method": "approx", "space": "logit"}
    assert (read.method, read.space) == ("approx", "logit")
    for column in ("sample_id", "attribute", "from_level", "to_level", "effect", "fallback"):
        assert np.array_equal(getattr(read, column), getattr(effects, column)), column


@settings(max_examples=60, deadline=None)
@given(masked_datasets(), st.sampled_from(["l2", "cosine", "norm"]))
def test_icace_error_matches_per_pair_grouping(problem, metric):
    dataset, rows, attribute, _ = problem
    n, m, q = len(dataset), rows.size, dataset.outputs.shape[1]
    rng = np.random.default_rng(m)
    # each edit becomes a pair: its row and an appended copy with one label changed
    to = other_levels(rng, dataset.schema, dataset.codes[rows, attribute], attribute)
    codes = np.vstack([dataset.codes, dataset.codes[rows]])
    codes[n + np.arange(m), attribute] = to
    paired = Dataset(
        dataset.schema,
        [f"r{i}" for i in range(n + m)],
        codes,
        np.zeros((n + m, 1)),
        np.vstack([dataset.outputs, rng.standard_normal((m, q))]),
        pairs=EditPairs(rows, n + np.arange(m)),
    )
    first = paired.unique_pairs()
    estimates = rng.standard_normal((first.size, q))
    effects = Effects.for_pairs(paired, first, estimates, "test", "logit")
    report = icace_error(effects, paired, metric)

    keys = (effects.sample_id, effects.attribute, effects.from_level, effects.to_level)
    by_key = dict(zip(zip(*(col.tolist() for col in keys)), estimates))
    distance = get_distance(metric)
    groups = {}
    for i, (original, edited) in enumerate(zip(paired.pairs.original, paired.pairs.edited)):
        key = tuple(str(name) for name in paired.pair_names(i))
        value = distance(paired.outputs[edited] - paired.outputs[original], by_key[key])
        groups.setdefault(key[1:], []).append(float(value))
    want = [(key, np.mean(v), np.std(v), len(v)) for key, v in sorted(groups.items())]
    got = [((g.attribute, g.from_level, g.to_level), g.mean, g.std, g.count) for g in report.groups]
    assert [(w[0], w[3]) for w in want] == [(g[0], g[3]) for g in got]
    assert np.allclose([w[1:3] for w in want], [g[1:3] for g in got], rtol=1e-12, atol=1e-12)
    assert report.metadata["pairs_evaluated"] == m


@settings(max_examples=60, deadline=None)
@given(masked_datasets(), st.sampled_from(["mcce", "approx"]), st.data())
def test_explain_match_equals_the_match_by_name(problem, method, data):
    dataset, rows, _, _ = problem
    schema, n = dataset.schema, len(dataset)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    attribute = rng.integers(len(schema.names), size=rows.size)  # hidden attributes too
    to = other_levels(rng, schema, dataset.codes[rows, attribute], attribute)
    again = rng.integers(rows.size, size=rng.integers(rows.size + 1))  # some keys twice
    rows, attribute, to = (np.concatenate([c, c[again]]) for c in (rows, attribute, to))
    m = rows.size
    codes = np.vstack([dataset.codes, dataset.codes[rows]])
    codes[n + np.arange(m), attribute] = to
    paired = Dataset(
        schema,
        [f"r{i}" for i in range(n + m)],
        codes,
        rng.standard_normal((n + m, 2)),
        rng.standard_normal((n + m, dataset.outputs.shape[1])),
        pairs=EditPairs(rows, n + np.arange(m)),
        hidden_attributes=dataset.hidden_attributes,
    )
    model = seeds = None
    if method == "mcce":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # few rows: the fit interpolates
            model = fit_mcce(paired, n_pseudo=1)
    else:
        seeds = _pair_seeds(paired, 0)
    effects, _, match = _explain(paired, method, model, 0, pair_seeds=seeds)
    assert np.array_equal(match, match_effects(effects, paired))


# --- approx: a per-edit reference on label tuples --------------------------------


def reference_explain_approx(dataset, row, attribute, to, seed):
    """One approx edit on Python tuples and ints: candidates in row order, the tie by multiply-shift."""
    visible = np.flatnonzero(dataset.schema.visible_mask(dataset.hidden_attributes)).tolist()
    codes = dataset.codes.tolist()
    target = list(codes[row])
    target[attribute] = to
    target = [target[a] for a in visible]
    distance = [sum(r[a] != t for a, t in zip(visible, target)) for r in codes]
    fallback = min(distance) > 0
    candidates = [i for i, d in enumerate(distance) if d == min(distance)]
    choice = candidates[(seed * len(candidates)) >> 64]
    return dataset.outputs[choice] - dataset.outputs[row], fallback


@st.composite
def approx_problems(draw):
    """A random schema and mask, rows with repeats, and edits of any attribute.

    With at most 30 rows over up to 5^5 profiles many edits find no exact
    match (the fallback path); edits of hidden attributes are included.
    Some schemas add 64 visible two-level attributes, so that profiles
    pass 2**63 and key as Python ints.
    """
    level_counts = draw(st.lists(st.integers(2, 5), min_size=1, max_size=5))
    flags = draw(st.lists(st.booleans(), min_size=len(level_counts), max_size=len(level_counts)))
    assume(not all(flags))
    if draw(st.booleans()):
        level_counts += [2] * 64
        flags += [False] * 64
    schema = ConceptSchema.of(
        (f"a{i}", tuple(f"l{j}" for j in range(count))) for i, count in enumerate(level_counts)
    )
    hidden = frozenset(name for name, flag in zip(schema.names, flags) if flag)
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # a few distinct rows, repeated, so exact matches have ties to break
    distinct = np.column_stack([rng.integers(count, size=n) for count in level_counts])
    codes = distinct[rng.integers(n, size=n)] if draw(st.booleans()) else distinct
    dataset = Dataset(
        schema,
        [f"r{i}" for i in range(n)],
        codes,
        np.zeros((n, 1)),
        rng.standard_normal((n, draw(st.integers(1, 3)))),
        hidden_attributes=hidden,
    )
    m = draw(st.integers(1, 25))
    rows = rng.integers(n, size=m).tolist()
    attribute = rng.integers(len(level_counts), size=m).tolist()
    to = [int(rng.integers(schema.sizes[a])) for a in attribute]
    seeds = draw(st.lists(st.integers(0, 2**64 - 1), min_size=m, max_size=m))
    return dataset, rows, attribute, to, seeds


@settings(max_examples=150, deadline=None)
@given(approx_problems())
def test_explain_approx_matches_per_edit_reference(problem):
    dataset, rows, attribute, to, seeds = problem
    visible = dataset.schema.visible_mask(dataset.hidden_attributes)
    got = explain_approx(dataset, rows, attribute, to, seeds)
    again = explain_approx(dataset, rows, attribute, to, seeds, build_label_index(dataset))
    assert again.effect.tobytes() == got.effect.tobytes()
    assert np.array_equal(again.flags, got.flags)
    for i, (row, a, t, seed) in enumerate(zip(rows, attribute, to, seeds)):
        want_effect, want_fallback = reference_explain_approx(dataset, row, a, t, seed)
        assert got.flags[i] == want_fallback
        assert got.effect[i].tobytes() == want_effect.tobytes()
        assert visible[a] or not got.flags[i]  # a hidden edit keeps the row's own profile
    assert got.fallback == sum(got.flags.tolist())


# --- S-Learner: Newton steps over every fit row ------------------------------------


def reference_fit_slearner(dataset):
    """(weights, bias, iterations): fit_slearner with a Hessian summed over every row's Kronecker product."""
    rows = dataset.fit_rows
    Xa = np.hstack([dataset.design_matrix(rows), np.ones((rows.size, 1))])
    T = softmax(dataset.outputs[rows])
    (n, m), q = Xa.shape, T.shape[1]

    def loss_at(W):
        z = Xa @ W
        z -= z.max(axis=1, keepdims=True)
        return float(-np.mean(np.sum(T * (z - np.log(np.exp(z).sum(axis=1, keepdims=True))), axis=1)))

    W, iterations = np.zeros((m, q)), 0
    loss = loss_at(W)
    while iterations < SLEARNER_MAX_ITER:
        P = softmax(Xa @ W)
        G = Xa.T @ (P - T) / n
        if np.max(np.abs(G)) < SLEARNER_GRAD_TOL:
            break
        H = sum(np.kron(np.diag(p) - np.outer(p, p), np.outer(x, x)) for p, x in zip(P, Xa)) / n
        step = lstsq(H, G.T.reshape(-1, 1)).coefficients.reshape(q, m).T
        slack = 1e-13 * max(1.0, abs(loss))
        for _ in range(50):
            trial = loss_at(W - step)
            if trial <= loss + slack:
                W, loss, iterations = W - step, trial, iterations + 1
                break
            step = step / 2
        else:
            break
    return W[:-1], W[-1], iterations


@settings(max_examples=60, deadline=None)
@given(masked_datasets(), st.data())
def test_slearner_on_distinct_rows_equals_the_per_row_newton_fit(problem, data):
    dataset = problem[0]
    assume(dataset.outputs.shape[1] >= 2)
    repeat = data.draw(st.lists(st.integers(0, len(dataset) - 1), max_size=40))
    rows = np.concatenate([np.arange(len(dataset)), repeat]).astype(np.int64)  # rows again, other targets
    dataset = Dataset(
        dataset.schema,
        [f"r{i}" for i in range(rows.size)],
        dataset.codes[rows],
        dataset.embeddings[rows],
        np.random.default_rng(rows.size).standard_normal((rows.size, dataset.outputs.shape[1])),
        hidden_attributes=dataset.hidden_attributes,
    )
    weights, bias, iterations = reference_fit_slearner(dataset)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a fit that hits the cap warns in both
        model = fit_slearner(dataset)
    assert model.iterations == iterations
    assert np.allclose(model.weights, weights, rtol=1e-9, atol=1e-9)
    assert np.allclose(model.bias, bias, rtol=1e-9, atol=1e-9)


# --- effects file: the per-row writer of its layout --------------------------------


def npy_bytes(matrix):
    """The bytes that `np.save` gives `matrix`."""
    buffer = io.BytesIO()
    np.save(buffer, matrix)
    return buffer.getvalue()


def reference_effects_files(effects, metadata, name):
    """The bytes of write_effects' table `name` and its .npy file: one encoder call per estimate.

    The `fallback` column is there only when an estimate is flagged.
    """
    columns = ["sample_id", "attribute", "from", "to"]
    flagged = bool(effects.fallback.any())
    npy = name.replace(".jsonl", ".effect.npy")
    meta = {**metadata, "method": effects.method, "space": effects.space, "effect": npy}
    lines = [_ROW_JSON.encode({"meta": {**meta, "columns": columns + ["fallback"] * flagged}})]
    names = (effects.sample_id, effects.attribute, effects.from_level, effects.to_level)
    for *row, fallback in zip(*(column.tolist() for column in names), effects.fallback.tolist()):
        lines.append(_ROW_JSON.encode([*row, *[fallback] * flagged]))
    text = "".join(line + "\n" for line in lines)
    return {name: text.encode("utf-8"), npy: npy_bytes(effects.effect)}


# Names with JSON escapes, non-ASCII text and the row separator of an
# encoded matrix. No name holds U+0000, which the readers reject.
pieces = ['"', "\\", "], [", "[[", "]]", "é", "\u20ac", "😀", "\n", "a"]
names = st.one_of(
    st.text(st.characters(exclude_characters="\x00"), max_size=6),
    st.lists(st.sampled_from(pieces), max_size=4).map("".join),
)
# metadata keys: a meta line's `columns`, and `effect` in an effects file, are the writer's own
meta_keys = names.filter(lambda name: name not in ("columns", "effect"))
metadata_dicts = st.dictionaries(meta_keys, st.one_of(st.none(), st.integers(), names))
edge_floats = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308, -1.7976931348623157e308]
)
finite_floats = st.one_of(edge_floats, st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def effects_tables(draw):
    m = draw(st.sampled_from([0, 1, 2, 5]))
    q = draw(st.sampled_from([1, 3]))
    column = st.lists(names, min_size=m, max_size=m)
    effect = draw(st.lists(st.lists(finite_floats, min_size=q, max_size=q), min_size=m, max_size=m))
    return Effects(
        draw(column),
        draw(column),
        draw(column),
        draw(column),
        np.array(effect, dtype=np.float64).reshape(m, q),
        draw(st.one_of(st.none(), names)),
        draw(st.one_of(st.none(), names)),
        draw(st.lists(st.booleans(), min_size=m, max_size=m)),
    )


@settings(max_examples=200, deadline=None)
@given(effects_tables(), metadata_dicts)
def test_write_effects_bytes_equal_per_row_encoding(tmp_path_factory, effects, metadata):
    root = tmp_path_factory.mktemp("effects")
    write_effects(root / "e.jsonl", effects, metadata)
    written = {path.name: path.read_bytes() for path in root.iterdir()}
    assert written == reference_effects_files(effects, metadata, "e.jsonl")


@st.composite
def sized_effects(draw):
    """Effects of 0, 1 or 1025 estimates, flagged or not, whose floats include every edge value."""
    m = draw(st.sampled_from([0, 1, 1025]))
    q = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edge = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308, -1e308,
            1.7976931348623157e308, -1.7976931348623157e308]
    effect = rng.standard_normal((m, q)) * 10.0 ** rng.integers(-300, 300, (m, q))
    picked = rng.random((m, q)) < 0.3
    effect[picked] = rng.choice(edge, int(picked.sum()))
    fallback = rng.random(m) < 0.5 if draw(st.booleans()) else None
    ids = [f"s{i}" for i in range(m)]
    return Effects(ids, ["a"] * m, ["x"] * m, ["y"] * m, effect, "approx", "logit", fallback)


@settings(max_examples=30, deadline=None)
@given(sized_effects(), metadata_dicts)
def test_effects_round_trip_bit_exactly(tmp_path_factory, effects, metadata):
    path = write_effects(tmp_path_factory.mktemp("effects") / "e.jsonl", effects, metadata)
    read, read_meta = read_effects(path)
    assert effects_bits(read) == effects_bits(effects)
    assert read_meta == {**metadata, "method": "approx", "space": "logit"}


# --- dataset files: the per-row writer of their layout ------------------------------


def dataset_row_objects(dataset):
    """Each sample's id, labels in schema order and gold label (None when it has none), and each pair's ids."""
    schema, ids, codes, p = dataset.schema, id_text(dataset.ids).tolist(), dataset.codes, dataset.pairs
    samples = []
    for i, sid in enumerate(ids):
        concepts = [levels[codes[i, a]] for a, (_, levels) in enumerate(schema.attributes)]
        gold = int(dataset.gold[i]) if dataset.gold[i] >= 0 else None
        samples.append({"id": sid, "concepts": concepts, "gold": gold})
    pairs = [{"original_id": ids[o], "edited_id": ids[e]} for o, e in zip(p.original, p.edited)]
    return samples, pairs


SAMPLE_COLUMNS = ["id", "concepts", "gold"]
PAIR_COLUMNS = ["original_id", "edited_id"]
ARRAY_FILES = {"embedding": "samples.embedding.npy", "logits": "samples.logits.npy"}


def reference_dataset_files(dataset):
    """The bytes of each file save_dataset writes but schema.json, by name.

    Each table is encoded one row per encoder call. samples.jsonl holds
    no float column, and its meta line names the attributes once; each
    float matrix is `np.save`d on its own, in the file that the meta line
    names.
    """
    files = {}
    samples_meta = {**ARRAY_FILES, "attributes": list(dataset.schema.names)}
    for name, rows, columns, meta in zip(("samples.jsonl", "pairs.jsonl"), dataset_row_objects(dataset),
                                         (SAMPLE_COLUMNS, PAIR_COLUMNS), (samples_meta, {})):
        lines = [_ROW_JSON.encode({"meta": {**meta, "columns": columns}})]
        lines += [_ROW_JSON.encode([row[key] for key in columns]) for row in rows]
        files[name] = "".join(line + "\n" for line in lines).encode("utf-8")
    for key, matrix in (("embedding", dataset.embeddings), ("logits", dataset.outputs)):
        files[ARRAY_FILES[key]] = npy_bytes(matrix)
    return files


@st.composite
def stated_edit_datasets(draw):
    """(dataset, attribute, to): random names, floats at the edges of the range, gold on some
    rows, and edit pairs, each edited row its original with `attribute` moved to level `to`."""
    attribute_names = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    level_lists = st.lists(names, min_size=2, max_size=3, unique=True)
    schema = ConceptSchema.of((name, draw(level_lists)) for name in attribute_names)
    n, m = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = np.column_stack([rng.integers(size, size=n) for size in schema.sizes])
    original = rng.integers(max(n, 1), size=m if n else 0)
    attribute = rng.integers(len(schema.names), size=original.size)
    to = other_levels(rng, schema, codes[original, attribute], attribute)
    edited_codes = codes[original]
    edited_codes[np.arange(original.size), attribute] = to
    codes = np.concatenate([codes, edited_codes])
    rows = len(codes)
    ids = draw(st.lists(names, min_size=rows, max_size=rows, unique=True))
    d, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    gold = draw(st.lists(st.one_of(st.just(-1), st.integers(0, 2**62)), min_size=rows, max_size=rows))
    dataset = Dataset(
        schema,
        ids,
        codes,
        draw(float_matrices(rows, d)),
        draw(float_matrices(rows, q)),
        gold,
        EditPairs(original, np.arange(n, rows)),
    )
    return dataset, attribute, to


def file_datasets():
    return stated_edit_datasets().map(lambda drawn: drawn[0])


@settings(max_examples=100, deadline=None)
@given(stated_edit_datasets())
def test_earlier_pairs_files_without_their_stated_edits_load_the_same_pairs(tmp_path_factory, drawn):
    dataset, attribute, to = drawn
    schema, ids, p = dataset.schema, id_text(dataset.ids).tolist(), dataset.pairs
    # each row of pairs.jsonl as earlier versions wrote it: the two ids, then attribute, from and to
    stated = [
        [ids[o], ids[e], schema.names[a], schema.attributes[a][1][dataset.codes[o, a]],
         schema.attributes[a][1][code]]
        for o, e, a, code in zip(p.original, p.edited, attribute, to)
    ]
    paths = save_dataset(dataset, tmp_path_factory.mktemp("pairs"))
    lines = [{"meta": {"columns": PAIR_COLUMNS}}, *(row[:2] for row in stated)]
    assert paths["pairs"].read_text(encoding="utf-8") == "".join(_ROW_JSON.encode(v) + "\n" for v in lines)
    loaded = load_dataset(paths["samples"], paths["pairs"], paths["schema"])
    q = loaded.pairs
    assert [q.original.tolist(), q.edited.tolist()] == [p.original.tolist(), p.edited.tolist()]
    assert [q.attribute.tolist(), q.to.tolist()] == [attribute.tolist(), to.tolist()]
    names = loaded.pair_names(np.arange(len(q)))
    assert [list(row) for row in zip(*(column.tolist() for column in names))] == [
        [row[0], *row[2:]] for row in stated
    ]


@settings(max_examples=150, deadline=None)
@given(file_datasets())
def test_save_dataset_bytes_equal_per_row_encoding(tmp_path_factory, dataset):
    root = tmp_path_factory.mktemp("dataset")
    save_dataset(dataset, root)
    written = {path.name: path.read_bytes() for path in root.iterdir() if path.name != "schema.json"}
    assert written == reference_dataset_files(dataset)


@st.composite
def sized_datasets(draw):
    """Datasets of 0, 1, 1025 or 1100 factual rows, with edits, whose floats include every edge value.

    Attribute "a" has 3, 256 or 257 levels: the most that a uint8 code
    holds, and one more. Each id is a drawn name, tagged with its row's
    number so that the ids stay distinct.
    """
    n_levels = draw(st.sampled_from([3, 256, 257]))
    schema = ConceptSchema.of([("a", [f"x{j}" for j in range(n_levels)]), ("b", ("u", "v"))])
    n = draw(st.sampled_from([0, 1, 1025, 1100]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = np.column_stack([rng.integers(size, size=n) for size in schema.sizes])
    original = rng.choice(n, size=min(n, 40), replace=False)
    attribute = rng.integers(2, size=original.size)
    to = (codes[original, attribute] + 1) % schema.sizes[attribute]
    edited = codes[original]
    edited[np.arange(original.size), attribute] = to
    codes = np.concatenate([codes, edited])
    rows = len(codes)
    edge = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308, -1e308,
            1.7976931348623157e308, -1.7976931348623157e308]

    def floats(width):
        values = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-300, 300, (rows, width))
        picked = rng.random((rows, width)) < 0.3
        values[picked] = rng.choice(edge, int(picked.sum()))
        return values

    d, q = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    gold = np.where(rng.random(rows) < 0.3, -1, rng.integers(0, 2**62, size=rows))
    tags = draw(st.lists(names, min_size=1, max_size=8))
    ids = [f"{tags[i % len(tags)]}#{i}" for i in rng.permutation(rows)]
    pairs = EditPairs(original, np.arange(n, rows))
    return Dataset(schema, ids, codes, floats(d), floats(q), gold, pairs)


@settings(max_examples=30, deadline=None)
@given(st.one_of(sized_datasets(), file_datasets()))
def test_save_load_round_trips_bit_exactly(tmp_path_factory, dataset):
    paths = save_dataset(dataset, tmp_path_factory.mktemp("dataset"))
    head = json.loads(paths["samples"].read_text(encoding="utf-8").split("\n", 1)[0])
    assert head["meta"]["attributes"] == list(dataset.schema.names)
    loaded = load_dataset(paths["samples"], paths["pairs"], paths["schema"])
    assert dataset_bits(loaded) == dataset_bits(dataset)
    # compact columns: uint8 codes up to 256 levels, and ids as wide as the longest in UTF-8
    # (numpy's narrowest "S" is 1 byte wide, for no id or only empty ones)
    assert loaded.codes.itemsize == (1 if loaded.schema.sizes.max() <= 256 else 2)
    encoded = (text.encode("utf-8", "surrogatepass") for text in id_text(loaded.ids).tolist())
    longest = max(map(len, encoded), default=0)
    assert loaded.ids.itemsize == max(longest, 1)


def object_layout(head, rows):
    """The samples table in the layout before labels were arrays: one {attribute: label} object per row."""
    names, at = head["meta"].pop("attributes"), head["meta"]["columns"].index("concepts")
    for row in rows:
        row[at] = dict(zip(names, row[at]))


# Each defect of a samples table under schema names `names`: (what it does to the
# decoded meta line and rows, the line it is on (None: the row's), and the error
# after "<file>:<line>: ").
LABEL_DEFECTS = {
    "short array": (lambda head, row, names: row.pop(), None,
                    lambda names: "'concepts' must be an array of"),
    "long array": (lambda head, row, names: row.append(names[0]), None,
                   lambda names: "'concepts' must be an array of"),
    "non-string label": (lambda head, row, names: row.__setitem__(-1, 7), None,
                         lambda names: "'concepts' values must be strings"),
    "null label": (lambda head, row, names: row.__setitem__(-1, None), None,
                   lambda names: f"missing label for {names[-1]!r}"),
    "no meta.attributes": (lambda head, row, names: head["meta"].pop("attributes"), 1, None),
    "reordered meta.attributes": (lambda head, row, names: head["meta"]["attributes"].reverse(), 1,
                                  None),
    "unknown attribute": (lambda head, row, names: head["meta"]["attributes"].__setitem__(
        0, "?" + "".join(names)), 1, None),
}


@settings(max_examples=60, deadline=None)
@given(file_datasets(), st.sampled_from([*LABEL_DEFECTS, "object layout"]), st.data())
def test_label_defects_exit_2_naming_file_and_line(tmp_path_factory, dataset, defect, data):
    names = list(dataset.schema.names)
    assume(len(dataset) > 0 and (defect != "reordered meta.attributes" or len(names) > 1))
    root = tmp_path_factory.mktemp("defect")
    paths = save_dataset(dataset, root)
    head, *rows = map(json.loads, paths["samples"].read_text(encoding="utf-8").splitlines())
    r = data.draw(st.integers(0, len(rows) - 1))
    if defect == "object layout":
        object_layout(head, rows)
        line, wording = 1, None
    else:
        edit, line, wording = LABEL_DEFECTS[defect]
        edit(head, rows[r][head["meta"]["columns"].index("concepts")], names)
    line = line or r + 2  # past the meta line
    want = wording(names) if wording else f"'meta.attributes' must be {_ROW_JSON.encode(names)}"
    samples = paths["samples"]
    samples.write_text("".join(json.dumps(value) + "\n" for value in [head, *rows]), encoding="utf-8")
    with pytest.raises(ValidationError) as error:
        load_dataset(samples, paths["pairs"], paths["schema"])
    assert str(error.value).startswith(f"{samples}:{line}: {want}")
    flags = ["--schema", paths["schema"], "--samples", samples, "--j", "1"]
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(["fit", *map(str, flags), "--out", str(root / "m.json")]) == 2
    assert err.getvalue() == f"error: {error.value}\n"


# --- model and ground-truth files --------------------------------------------------


def bits(values):
    """Exact bit pattern of a float array (or float), so -0.0 differs from 0.0."""
    values = np.asarray(values, dtype=np.float64)
    return values.shape, values.tobytes()


@st.composite
def float_matrices(draw, rows, cols):
    flat = draw(st.lists(finite_floats, min_size=rows * cols, max_size=rows * cols))
    return np.array(flat, dtype=np.float64).reshape(rows, cols)


@st.composite
def masked_schemas(draw):
    level_counts = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    schema = ConceptSchema.of(
        (f"a{i}", tuple(f"l{j}" for j in range(count))) for i, count in enumerate(level_counts)
    )
    flags = draw(st.lists(st.booleans(), min_size=len(level_counts), max_size=len(level_counts)))
    assume(not all(flags))
    return schema, frozenset(name for name, flag in zip(schema.names, flags) if flag)


@settings(max_examples=60, deadline=None)
@given(masked_schemas(), st.data())
def test_mcce_model_round_trips_bit_exactly(tmp_path_factory, masked, data):
    schema, hidden = masked
    k = schema.visible_width(hidden)
    d, j, q = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3)), data.draw(st.integers(1, 3))
    model = MCCEModel(
        schema=schema,
        hidden_attributes=hidden,
        embed_coef=data.draw(float_matrices(k, d)),
        pseudo_basis=data.draw(float_matrices(d, j)),
        concept_coef=data.draw(float_matrices(k, q)),
        pseudo_coef=data.draw(float_matrices(j, q)),
        ridge=data.draw(finite_floats),
        n_pseudo=j,
        space=data.draw(st.sampled_from(["logit", "probability"])),
        target_kind=data.draw(st.sampled_from(["output", "gold", "custom"])),
        diagnostics=data.draw(st.dictionaries(names, st.one_of(st.integers(), finite_floats))),
    )
    path = save_model(model, tmp_path_factory.mktemp("model") / "model.json")
    back = load_model(path)
    assert isinstance(back, MCCEModel)
    assert (back.schema, back.hidden_attributes) == (schema, hidden)
    for name in ("embed_coef", "pseudo_basis", "concept_coef", "pseudo_coef", "ridge"):
        assert bits(getattr(back, name)) == bits(getattr(model, name)), name
    assert (back.n_pseudo, back.space, back.target_kind) == (j, model.space, model.target_kind)
    assert back.diagnostics.keys() == model.diagnostics.keys()
    for key, value in model.diagnostics.items():
        assert type(back.diagnostics[key]) is type(value)
        assert struct.pack("<d", value) == struct.pack("<d", back.diagnostics[key]), key


@settings(max_examples=60, deadline=None)
@given(masked_schemas(), st.data())
def test_slearner_model_round_trips_bit_exactly(tmp_path_factory, masked, data):
    schema, hidden = masked
    k, q = schema.visible_width(hidden), data.draw(st.integers(1, 4))
    model = SLearnerModel(
        schema=schema,
        hidden_attributes=hidden,
        weights=data.draw(float_matrices(k, q)),
        bias=data.draw(float_matrices(1, q)).reshape(q),
        space=data.draw(st.sampled_from(["logit", "probability"])),
        iterations=data.draw(st.integers(0, 50)),
        final_loss=data.draw(finite_floats),
        converged=data.draw(st.booleans()),
        grad_norm=data.draw(finite_floats),
    )
    path = save_model(model, tmp_path_factory.mktemp("model") / "model.json")
    back = load_model(path)
    assert isinstance(back, SLearnerModel)
    assert (back.schema, back.hidden_attributes) == (schema, hidden)
    for name in ("weights", "bias", "final_loss", "grad_norm"):
        assert bits(getattr(back, name)) == bits(getattr(model, name)), name
    assert (back.space, back.iterations) == (model.space, model.iterations)
    assert back.converged is model.converged


@st.composite
def ground_truths(draw):
    """A ground truth whose coefficients hold any finite floats, edge cases included."""
    return SynthGroundTruth(
        draw(float_matrices(draw(st.integers(1, 5)), draw(st.integers(0, 4)))),
        tuple(draw(st.lists(names, max_size=3))),
    )


@settings(max_examples=60, deadline=None)
@given(ground_truths())
def test_ground_truth_round_trips_bit_exactly(tmp_path_factory, truth):
    assume(truth.outcome_coef.shape[1])  # [[]] reads back as one empty row
    path = save_ground_truth(truth, tmp_path_factory.mktemp("truth") / "ground_truth.json")
    back = load_ground_truth(path)
    assert bits(back.outcome_coef) == bits(truth.outcome_coef)
    assert back.hidden == truth.hidden


@settings(max_examples=60, deadline=None)
@given(ground_truths())
def test_save_ground_truth_bytes_equal_whole_document_encoding(tmp_path_factory, truth):
    obj = {"outcome_coef": truth.outcome_coef.tolist(), "hidden": list(truth.hidden)}
    path = save_ground_truth(truth, tmp_path_factory.mktemp("truth") / "ground_truth.json")
    assert path.read_bytes() == (_DOC_JSON.encode(obj) + "\n").encode()


# --- fitted mcce invariants -------------------------------------------------------


def fitted_scores(model, dataset):
    """Design C and pseudo-concept scores S of the fit rows, recomputed from the model."""
    rows = dataset.fit_rows
    C = dataset.design_matrix(rows)
    return C, (dataset.embeddings[rows] - C @ model.embed_coef) @ model.pseudo_basis


@settings(max_examples=60, deadline=None)
@given(masked_datasets())
def test_pseudo_scores_are_orthogonal_to_the_concept_design(problem):
    dataset = problem[0]
    n, d = dataset.embeddings.shape
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small draws interpolate on purpose
        model = fit_mcce(dataset, n_pseudo=min(dataset.visible_width, n, d))
    C, S = fitted_scores(model, dataset)
    scale = n * (1.0 + np.abs(dataset.embeddings).max())
    assert np.abs(C.T @ S).max(initial=0.0) <= 1e-10 * scale  # S may have no column
    assert model.diagnostics["orthogonality_max"] <= 1e-10 * scale


@st.composite
def observed_datasets(draw):
    """A masked dataset whose rows take every level of every attribute."""
    level_counts = draw(st.lists(st.integers(2, 4), min_size=1, max_size=4))
    schema = ConceptSchema.of(
        (f"a{i}", tuple(f"l{j}" for j in range(count))) for i, count in enumerate(level_counts)
    )
    flags = draw(st.lists(st.booleans(), min_size=len(level_counts), max_size=len(level_counts)))
    assume(not all(flags))
    n, d, q = draw(st.integers(8, 40)), draw(st.integers(1, 8)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = np.column_stack([rng.permutation(np.resize(np.arange(c), n)) for c in level_counts])
    hidden = frozenset(name for name, flag in zip(schema.names, flags) if flag)
    ids = [f"r{i}" for i in range(n)]
    embeddings, outputs = rng.standard_normal((n, d)), rng.standard_normal((n, q))
    return Dataset(schema, ids, codes, embeddings, outputs, hidden_attributes=hidden)


@settings(max_examples=60, deadline=None)
@given(observed_datasets())
def test_concept_coefficients_are_orthogonal_to_the_design_null_space(dataset):
    schema, hidden = dataset.schema, dataset.hidden_attributes
    C = dataset.design_matrix()
    blocks = list(schema.visible_blocks(hidden).values())
    k = C.shape[1]
    assume(np.linalg.matrix_rank(C) == k - len(blocks) + 1)  # no two attributes collinear
    # differences of the per-block indicator vectors span null(C)
    indicators = np.zeros((k, len(blocks)))
    for b, block in enumerate(blocks):
        indicators[block, b] = 1.0
    null = indicators[:, 1:] - indicators[:, :1]
    assert not np.any(C @ null)
    assert np.linalg.matrix_rank(null) == len(blocks) - 1

    n, d = dataset.embeddings.shape
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = fit_mcce(dataset, n_pseudo=min(k, n, d))
    for coef in (model.concept_coef, model.embed_coef):
        assert np.abs(null.T @ coef).max(initial=0.0) <= 1e-9 * (1.0 + np.abs(coef).max())


# --- synthetic rows: the fixed-order sums -------------------------------------------
# Entries stay within 1e150, so no product or sum of a few of them
# overflows; signed zeros and subnormals are drawn on purpose.

sum_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 0.1, -0.7, 5e-324, -2.2250738585072014e-308]),
    st.floats(-1e150, 1e150),
)
UNIT_ROUNDOFF = 2.0**-53


def float_matrix(draw, rows, columns):
    values = draw(st.lists(sum_entries, min_size=rows * columns, max_size=rows * columns))
    matrix = np.array(values, dtype=np.float64).reshape(rows, columns)
    return draw(st.sampled_from([matrix, np.asfortranarray(matrix)]))  # embed_map.T is F-order


@st.composite
def one_hot_products(draw):
    level_counts = draw(st.lists(st.integers(2, 4), min_size=1, max_size=5))
    schema = ConceptSchema.of(
        (f"a{i}", tuple(f"l{j}" for j in range(count))) for i, count in enumerate(level_counts)
    )
    rows = draw(st.integers(0, 5))
    codes = np.array(
        [[draw(st.integers(0, count - 1)) for count in level_counts] for _ in range(rows)],
        dtype=np.int64,
    ).reshape(rows, len(level_counts))
    return schema, codes, float_matrix(draw, schema.width, draw(st.integers(1, 4)))


@settings(max_examples=100, deadline=None)
@given(one_hot_products())
def test_one_hot_product_is_a_left_to_right_sum_of_label_rows(problem):
    schema, codes, table = problem
    offsets = schema.offsets.tolist()
    want = [
        [reduce(add, [float(table[start + code, j]) for start, code in zip(offsets, row.tolist())])
         for j in range(table.shape[1])]
        for row in codes
    ]
    got = _one_hot_product(schema, codes, table)
    assert bits(got) == bits(np.reshape(want, got.shape))
    for row, want_row in zip(codes, want):  # one row alone: the same bits
        assert bits(_one_hot_product(schema, row, table)) == bits(want_row)
    # a matrix product sums in another order, within rounding of the sum
    c = one_hot(schema, codes)
    bound = 4 * schema.width * UNIT_ROUNDOFF * (c @ np.abs(table))
    assert (np.abs(got - c @ table) <= bound).all()


@st.composite
def score_problems(draw):
    exo_dim = draw(st.integers(1, 6))
    mixing = float_matrix(draw, draw(st.integers(1, 4)), exo_dim)
    return mixing, float_matrix(draw, draw(st.integers(0, 5)), exo_dim)


@settings(max_examples=100, deadline=None)
@given(score_problems())
def test_scores_are_a_left_to_right_sum_of_products(problem):
    mixing, latent = problem
    exo_dim = mixing.shape[1]
    want = [
        [reduce(add, [float(u[k]) * float(m[k]) for k in range(exo_dim)]) for m in mixing]
        for u in latent
    ]
    got = _scores(mixing, latent)
    assert bits(got) == bits(np.reshape(want, got.shape))
    for u, want_row in zip(latent, want):  # one state alone: the same bits
        assert bits(_scores(mixing, u)) == bits(want_row)
    # products may round to a subnormal, whose error is absolute
    bound = 4 * exo_dim * UNIT_ROUNDOFF * (np.abs(latent) @ np.abs(mixing).T) + exo_dim * 5e-324
    assert (np.abs(got - latent @ mixing.T) <= bound).all()


# --- synthetic rows: the per-sample reference ----------------------------------------


noise_levels = st.sampled_from([0.0, 0.05, 0.3, 2.0])


@st.composite
def synth_configs(draw):
    level_counts = draw(st.lists(st.integers(2, 4), min_size=1, max_size=4))
    attributes = [
        (f"a{i}", [f"l{j}" for j in range(count)]) for i, count in enumerate(level_counts)
    ]
    config = default_config(
        n=draw(st.integers(1, 20)),
        seed=draw(st.integers(0, 2**32 - 1)),
        attributes=attributes,
        n_classes=draw(st.integers(2, 5)),
        embed_dim=draw(st.integers(1, 20)),
        confounding=draw(st.sampled_from([0.0, 1.0, 3.0])),
        embed_noise=draw(noise_levels),
        outcome_noise=draw(noise_levels),
        param_seed=draw(st.integers(0, 1000)),
        exact_recovery=False,
    )
    return config, draw(st.integers(1, len(level_counts)))


@settings(max_examples=60, deadline=None)
@given(synth_configs())
def test_generated_and_edited_rows_equal_per_sample_draws(problem):
    config, edits_per_sample = problem
    dataset, truth = generate(config)
    dataset = make_pairs(dataset, config, edits_per_sample)
    p = dataset.pairs
    rows = [(i, i, None) for i in range(config.n)]
    rows += [(e, o, (a, t)) for o, e, a, t in zip(p.original, p.edited, p.attribute, p.to)]
    for row, index, edit in rows:
        codes, embedding, output, clean = synthesize_sample(config, int(index), edit)
        assert np.array_equal(dataset.codes[row], codes)
        assert bits(dataset.embeddings[row]) == bits(embedding)
        assert bits(dataset.outputs[row]) == bits(output)
        assert dataset.gold[row] == np.argmax(clean)


@settings(max_examples=40, deadline=None)
@given(synth_configs(), st.integers(1, 30))
def test_a_larger_n_extends_a_smaller_ones_samples_and_edits(problem, extra):
    # every stream gives sample i its draws and edits from its own row, so
    # the first m samples and their m * e edits do not depend on n
    config, edits_per_sample = problem
    small_n, large_n = config.n, config.n + extra
    small, large = (
        make_pairs(generate(c)[0], c, edits_per_sample) for c in (config, replace(config, n=large_n))
    )
    rows = np.r_[0:small_n, large_n : large_n + small_n * edits_per_sample]
    for column in ("ids", "codes", "gold"):
        assert np.array_equal(getattr(small, column), getattr(large, column)[rows]), column
    for column in ("embeddings", "outputs"):
        assert bits(getattr(small, column)) == bits(getattr(large, column)[rows]), column
    for column in ("original", "attribute", "to"):
        got, want = getattr(small.pairs, column), getattr(large.pairs, column)
        assert np.array_equal(got, want[: got.size]), column


@st.composite
def hidden_synth_configs(draw):
    """A `synth_configs` draw with a random proper subset of its attributes hidden."""
    config, edits_per_sample = draw(synth_configs())
    names = config.schema.names
    hidden = draw(st.lists(st.sampled_from(names), max_size=len(names) - 1, unique=True))
    return replace(config, hidden=frozenset(hidden)), edits_per_sample


@settings(max_examples=60, deadline=None)
@given(hidden_synth_configs(), st.sampled_from(["logit", "probability"]))
def test_oracle_effect_equals_per_sample_clean_contrasts(problem, space):
    # the oracle recomputes each row's clean outputs from outcome_coef and
    # the complete labels; they must be the generator's, bit for bit
    config, edits_per_sample = problem
    dataset, truth = generate(config)
    dataset = make_pairs(dataset, config, edits_per_sample)
    got = oracle_effect(truth, dataset, space)
    p = dataset.pairs
    assert got.shape == (len(p), config.n_outputs)
    for k, (original, attribute, to) in enumerate(zip(p.original, p.attribute, p.to)):
        before = synthesize_sample(config, int(original))[3]
        after = synthesize_sample(config, int(original), (int(attribute), int(to)))[3]
        if space == "probability":
            before, after = softmax(before), softmax(after)
        assert bits(got[k]) == bits(after - before)


# --- the batched generator and oracle at scale ---------------------------------------
# The draws above have n <= 20. Below, thousands of rows: many share a label
# row (81 distinct of 4000 on the default schema) or few do (most of 8000 on
# the 8x4 schema), and two configs make level scores whose rounding or
# overflow a matrix product, summing in its own order, would not repeat.


def assert_rows_equal_per_sample(config, edits_per_sample):
    dataset, truth = generate(config)
    dataset = make_pairs(dataset, config, edits_per_sample)
    p = dataset.pairs
    rows = [(i, i, None) for i in range(config.n)]
    rows += [(e, o, (a, t)) for o, e, a, t in zip(p.original, p.edited, p.attribute, p.to)]
    clean = {}
    for row, index, edit in rows:
        codes, embedding, output, clean[row] = synthesize_sample(config, int(index), edit)
        assert np.array_equal(dataset.codes[row], codes), row
        assert bits(dataset.embeddings[row]) == bits(embedding), row
        assert bits(dataset.outputs[row]) == bits(output), row
        assert dataset.gold[row] == np.argmax(clean[row]), row
    for space, to_space in (("logit", lambda x: x), ("probability", softmax)):
        want = [to_space(clean[e]) - to_space(clean[o]) for o, e in zip(p.original, p.edited)]
        assert bits(oracle_effect(truth, dataset, space)) == bits(np.array(want))
    return dataset


def test_batched_rows_equal_per_sample_draws_on_the_default_schema():
    dataset = assert_rows_equal_per_sample(default_config(n=2000, seed=3), 1)
    assert len(np.unique(dataset.codes, axis=0)) == 81


def test_batched_rows_equal_per_sample_draws_on_a_wide_schema():
    attributes = [(f"a{i}", [f"l{j}" for j in range(4)]) for i in range(8)]
    config = default_config(n=4000, seed=61, attributes=attributes, n_classes=8, embed_dim=48)
    dataset = assert_rows_equal_per_sample(config, 1)
    assert len(np.unique(dataset.codes, axis=0)) > 6000


def test_batched_levels_equal_per_sample_draws_when_products_round_differently():
    # Every level of an attribute scores 1e15 * sum(u) plus a term of order 1,
    # so the rounding of the 1e15 part (its unit in the last place is 0.125)
    # is as large as the gaps between levels: a batch that summed in another
    # order than the per-sample scores would pick other levels.
    base = default_config(n=600, seed=5, exact_recovery=False)
    rng = np.random.default_rng(11)
    mixing = {
        name: 1e15 + rng.standard_normal((len(levels), base.exo_dim))
        for name, levels in base.schema.attributes
    }
    assert_rows_equal_per_sample(replace(base, mixing=mixing), 2)


def test_batched_levels_equal_per_sample_draws_when_scores_overflow():
    # Entries of +-1e308 make most scores +-inf or nan, in the batched sums and
    # in the per-sample ones alike, and argmax must break their ties alike.
    base = default_config(n=300, seed=5, exact_recovery=False)
    rng = np.random.default_rng(3)
    mixing = {
        name: 1e308 * rng.choice([-1.0, 1.0], size=(len(levels), base.exo_dim))
        for name, levels in base.schema.attributes
    }
    with np.errstate(over="ignore", invalid="ignore"):
        assert_rows_equal_per_sample(replace(base, mixing=mixing), 1)


@st.composite
def noiseless_configs(draw, hide=True):
    """A noiseless exact-recovery config; if `hide`, some but not all of its
    attributes are hidden, else none is."""
    level_counts = draw(st.lists(st.integers(2, 4), min_size=2, max_size=4))
    attributes = [
        (f"a{i}", [f"l{j}" for j in range(count)]) for i, count in enumerate(level_counts)
    ]
    hidden = []
    if hide:
        hidden = draw(
            st.lists(st.sampled_from(range(len(level_counts))), min_size=1,
                     max_size=len(level_counts) - 1, unique=True)
        )
    width = sum(level_counts)
    return default_config(
        n=draw(st.integers(80, 200)),
        seed=draw(st.integers(0, 2**32 - 1)),
        hidden=[f"a{a}" for a in hidden],
        attributes=attributes,
        n_classes=draw(st.integers(2, 5)),
        embed_dim=draw(st.integers(width, width + 4)),
        confounding=draw(st.sampled_from([0.0, 1.0, 3.0])),
        embed_noise=0.0,
        outcome_noise=0.0,
        param_seed=draw(st.integers(0, 1000)),
        exact_recovery=True,
    )


def hidden_rank(config) -> int:
    """The rank the hidden blocks add to the complete one-hot design."""
    schema = config.schema
    return int(np.sum(schema.sizes[~schema.visible_mask(config.hidden)] - 1))


@st.composite
def recoverable_configs(draw):
    """A `noiseless_configs` draw with something hidden, and a pseudo-concept
    count no smaller than the hidden blocks' rank, or None for the default."""
    config = draw(noiseless_configs())
    return config, draw(st.none() | st.integers(hidden_rank(config), config.embed_dim))


@settings(max_examples=40, deadline=None)
@given(recoverable_configs())
def test_mcce_recovers_the_oracle_when_pseudo_concepts_span_the_hidden_blocks(problem):
    # The paper's claim: the embedding residual stands in for the hidden
    # concepts, so with exact recovery, no outcome noise and enough
    # pseudo-concepts the visible edits' effects are the oracle's.
    config, n_pseudo = problem
    dataset, truth = generate(config)
    dataset = make_pairs(dataset, config)
    schema, rows = config.schema, dataset.fit_rows
    # the claim needs every label combination's effect identified
    complete = one_hot(schema, dataset.codes[rows])
    assume(np.linalg.matrix_rank(complete) == schema.width - len(schema.names) + 1)
    model = fit_mcce(dataset, n_pseudo=n_pseudo)
    p = dataset.pairs
    visible = schema.visible_mask(config.hidden)[p.attribute]
    assume(visible.any())
    got = explain_mcce(model, dataset, p.original[visible], p.attribute[visible], p.to[visible])
    want = oracle_effect(truth, dataset, "logit")[visible]
    assert np.max(np.abs(got - want)) < 1e-8


def test_default_pseudo_count_keeps_a_noiseless_residual_that_is_mostly_signal():
    # Two of three attributes hidden: rank 6 in a 10-dimensional residual.
    # The median of its spectrum is a signal value, so without the floor's
    # noise-free case the threshold would cut every direction.
    attributes = [("a0", ["l0", "l1", "l2", "l3"]), ("a1", ["l0", "l1", "l2", "l3"]), ("a2", ["l0", "l1"])]
    config = default_config(
        n=150, seed=1, hidden=["a0", "a1"], attributes=attributes, embed_dim=10, outcome_noise=0.0
    )
    dataset, truth = generate(config)
    dataset = make_pairs(dataset, config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the default is exact, so silent
        model = fit_mcce(dataset)
    assert model.n_pseudo == hidden_rank(config) == 6
    p = dataset.pairs
    visible = config.schema.visible_mask(config.hidden)[p.attribute]
    got = explain_mcce(model, dataset, p.original[visible], p.attribute[visible], p.to[visible])
    assert np.max(np.abs(got - oracle_effect(truth, dataset, "logit")[visible])) < 1e-8


def test_default_pseudo_count_warns_at_the_median_threshold_cap():
    # Two 3-level attributes hidden in a 6-dimensional noisy embedding: rank 4
    # of 6. No threshold at a multiple of the median keeps more than 3.
    config = default_config(n=2000, seed=3, hidden=["ambiance", "food"], embed_dim=6,
                            embed_noise=0.05, exact_recovery=False)
    dataset, _ = generate(config)
    with pytest.warns(UserWarning, match="3 of the 6 embedding residual directions rise above"):
        model = fit_mcce(dataset)
    assert model.n_pseudo == 3


def test_a_constant_embedding_column_leaves_the_pseudo_count_as_it_was():
    # A constant column's residual is zero, an exact zero in the spectrum;
    # read as a noise-free spectrum, it would keep every noisy direction.
    config = default_config(n=2000, seed=3, hidden=["ambiance"], embed_noise=0.05,
                            exact_recovery=False)
    dataset, _ = generate(config)
    ids, codes, embeddings, outputs = dataset.ids, dataset.codes, dataset.embeddings, dataset.outputs
    counts = []
    for columns in (embeddings[:, 1:], np.column_stack([np.ones(len(dataset)), embeddings[:, 1:]])):
        fit = Dataset(config.schema, ids, codes, columns, outputs, hidden_attributes=config.hidden)
        counts.append(fit_mcce(fit).n_pseudo)
    assert counts == [2, 2]


def macro_l2(model, dataset) -> float:
    """Macro-mean L2 error of the model's effects against the dataset's visible pairs."""
    effects, metadata, match = _explain(dataset, "mcce", model, 0)
    return icace_error(effects, dataset, "l2", hidden=dataset.hidden_attributes, match=match).macro_mean


@st.composite
def noisy_low_rank_configs(draw):
    """A config with embedding noise, an orthonormal embedding map and
    hidden blocks of rank below half of `embed_dim`: a low-rank signal
    over a noise bulk, the premise of the median threshold."""
    level_counts = draw(st.lists(st.integers(2, 4), min_size=2, max_size=4))
    hidden = draw(
        st.lists(st.sampled_from(range(len(level_counts))), min_size=1,
                 max_size=len(level_counts) - 1, unique=True)
    )
    width = sum(level_counts)
    config = default_config(
        n=draw(st.integers(300, 1000)),
        seed=draw(st.integers(0, 2**32 - 1)),
        hidden=[f"a{a}" for a in hidden],
        attributes=[(f"a{i}", [f"l{j}" for j in range(c)]) for i, c in enumerate(level_counts)],
        embed_dim=draw(st.integers(width, width + 4)),
        confounding=draw(st.sampled_from([0.0, 1.0])),
        embed_noise=draw(st.sampled_from([0.02, 0.05])),
        param_seed=draw(st.integers(0, 1000)),
        exact_recovery=False,
    )
    assume(2 * hidden_rank(config) < config.embed_dim)
    return config


@settings(max_examples=15, deadline=None)
@given(noisy_low_rank_configs())
def test_default_pseudo_count_is_the_hidden_rank_under_embedding_noise(config):
    dataset, truth = generate(config)
    dataset = make_pairs(dataset, config)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # at the median rule's cap, and a too-small n_pseudo
        model = fit_mcce(dataset)
        wide = fit_mcce(dataset, n_pseudo=dataset.visible_width)
    assert model.n_pseudo == hidden_rank(config)
    # the extra directions fit noise; on a draw where that noise happens to
    # help, it helps by far less than 1%
    assert macro_l2(model, dataset) <= 1.01 * macro_l2(wide, dataset)


def observed_regression(config, dataset):
    """The fit of the outputs on the visible design alone, on a draw of `config`.

    Returns (design, coefficients, visible pairs, each visible pair's
    design change Δc_v); the draw is skipped unless the design has the
    rank of one that observes every visible level, and has a visible pair.
    """
    schema, rows, p = config.schema, dataset.fit_rows, dataset.pairs
    C_v = dataset.design_matrix(rows)
    visible = schema.visible_mask(config.hidden)
    assume(np.linalg.matrix_rank(C_v) == C_v.shape[1] - int(visible.sum()) + 1)
    pairs = np.flatnonzero(visible[p.attribute])
    assume(pairs.size)
    codes = dataset.codes[p.original[pairs]]
    edited = codes.copy()
    edited[np.arange(pairs.size), p.attribute[pairs]] = p.to[pairs]
    delta = one_hot(schema, edited, config.hidden) - one_hot(schema, codes, config.hidden)
    return C_v, lstsq(C_v, dataset.outputs[rows]).coefficients, pairs, delta


@settings(max_examples=40, deadline=None)
@given(noiseless_configs())
def test_observed_only_regression_error_is_the_omitted_variable_term(config):
    # The paper's bias claim as an identity: fit on the visible concepts
    # alone, the outputs' hidden part C_h β_h leaks into the visible
    # coefficients through C_v⁺, and each visible edit's effect is off by
    # exactly Δc_v · C_v⁺ C_h β_h.
    dataset, truth = generate(config)
    dataset = make_pairs(dataset, config)
    C_v, coef, pairs, delta = observed_regression(config, dataset)
    schema = config.schema
    shown = np.repeat(schema.visible_mask(config.hidden), schema.sizes)  # complete-layout columns
    C_h = one_hot(schema, dataset.codes[dataset.fit_rows])[:, ~shown]
    term = delta @ np.linalg.pinv(C_v) @ C_h @ truth.outcome_coef[~shown]
    error = delta @ coef - oracle_effect(truth, dataset, "logit")[pairs]
    assert np.max(np.abs(error - term)) < 1e-8


@settings(max_examples=40, deadline=None)
@given(noiseless_configs(hide=False))
def test_mcce_equals_the_observed_only_regression_when_nothing_is_hidden(config):
    # with nothing hidden the embedding residual is rounding noise, and
    # the pseudo-concepts add nothing to the visible fit
    dataset, truth = generate(config)
    dataset = make_pairs(dataset, config)
    _, coef, pairs, delta = observed_regression(config, dataset)
    p = dataset.pairs
    edits = p.original[pairs], p.attribute[pairs], p.to[pairs]
    got = explain_mcce(fit_mcce(dataset), dataset, *edits)
    assert np.max(np.abs(got - delta @ coef)) < 1e-8


# --- JSONL reader: the per-line reader it replaced -----------------------------------


def reference_labels(value, line, path, key, names):
    """Check one row's value of a labels column, label by label."""
    if type(value) is not list or len(value) != len(names):
        raise ValidationError(
            f"{path}:{line}: {key!r} must be an array of {len(names)} labels, one for each "
            f"of {list(names)!r}"
        )
    for name, label in zip(names, value):
        if label is None:
            raise ValidationError(f"{path}:{line}: missing label for {name!r}")
        if type(label) is not str:
            raise ValidationError(f"{path}:{line}: {key!r} values must be strings")


def reference_read_jsonl(path, what, types, defaults=None, arrays=(), fixed=None, check=None):
    """read_jsonl as it was: one `_parse_json` call per non-blank line, whole file at once.

    Line 1 is read by the library's `_header`. As in read_jsonl, a
    "string" column is returned as a numpy string array and each key of
    `arrays` as the matrix of its .npy file; a labels column (a tuple of
    names) is checked row by row. `check`, when given, is called on the
    whole file's columns, and an error it raises about one row names
    that row's line.
    """
    defaults = defaults or {}
    rows, lines = [], []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            if not line.isspace():
                rows.append(_parse_json(line, path, number))
                lines.append(number)
    first = rows[0] if lines[:1] == [1] else None
    header, names, files = _header(first, path, types, defaults, arrays, fixed or {})
    rows, lines = rows[1:], lines[1:]
    for row, line in zip(rows, lines):
        if type(row) is not list or len(row) != len(names):
            raise ValidationError(
                f"{path}:{line}: expected a JSON array of {len(names)} values, one per column"
            )
    columns = {}
    for key, kinds in types.items():
        column = [row[names.index(key)] if key in names else defaults[key] for row in rows]
        if type(kinds) is tuple:
            for value, line in zip(column, lines):
                reference_labels(value, line, path, key, kinds)
            columns[key] = column
            continue
        allowed = tuple(_JSON_TYPES[kind] for kind in kinds.split("|"))
        for value, line in zip(column, lines):
            if type(value) not in allowed:
                raise ValidationError(f"{path}:{line}: {key!r} must be {kinds.replace('|', ' or ')}")
        columns[key] = np.array(column, dtype=str) if kinds == "string" else column
    if check is not None:
        try:
            check(columns)
        except _RowError as exc:
            raise ValidationError(f"{path}:{lines[exc.row]}: {exc}") from None
    for key in arrays:
        columns[key] = _read_matrix(files[key], len(rows))
    return header, columns


READ_SPEC = {"id": "string", "v": "list", "g": "integer|null"}
READ_DEFAULTS = {"v": [], "g": None}
# Columns of a table that `READ_SPEC` reads but need not hold; "x" is one it does not ask for.
OPTIONAL_COLUMNS = ["v", "g", "x"]
cell_values = {
    "id": st.one_of(names, st.sampled_from(["NaN", "a,NaN,b", "]", ",NaN,"])),
    "v": st.lists(finite_floats, max_size=3),
    "g": st.one_of(st.none(), st.integers()),
    "x": st.recursive(st.none() | st.booleans() | names, st.lists, max_leaves=4),
}
# Runs of lines that are wrong alone or together. The first four decode
# as an array once joined around NaN separators, and each defeats one of
# the chunk guard's conditions: the element count (twice), the NaN-token
# count, and the separator kept out of a string.
TRICKY_RUNS = [
    ['["p", [{}', "{}]]", '["x"], ["y"]'],
    ['["p", [1', "2]]"],
    ['["p", [1', '2]], NaN, ["q"]'],
    ['["p"], NaN, ["x', 'y"]'],
    ['["p", [NaN]]'],
    ['["p", [Infinity]]'],
    ['["p", [-Infinity]]'],
    ["NaN"],
    ["[1, 2]"],
    ['"text"'],
    ['["p"] ["q"]'],
    ['["p", []],'],
    [',["p", []]'],
    ["["],
    ["]"],
    ["[5, []]"],
    ['{"meta": [1]}'],
    ['{"id": "p", "v": []}'],
]


@st.composite
def jsonl_files(draw):
    """JSONL tables around the decoder's chunk boundaries, with blank lines and bad runs.

    A file has at most one defect: a column "x" that `READ_SPEC` does not
    read, a bad run, or no meta line.
    """
    count = draw(st.sampled_from([0, 1, 1023, 1024, 1025, 2049]))
    others = draw(st.lists(st.sampled_from(OPTIONAL_COLUMNS), unique=True))
    columns = draw(st.permutations(["id", *others]))
    row = st.tuples(*(cell_values[key] for key in columns)).map(lambda values: json.dumps(list(values)))
    pool = draw(st.lists(row, min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lines = [pool[i] for i in rng.integers(len(pool), size=count)]
    near_edges = st.sampled_from([0, 1, 1022, 1023, 1024, 1025, 2047, 2048, count])
    places = st.one_of(near_edges, st.integers(0, count)).map(lambda at: min(at, count))
    for at in draw(st.lists(places, max_size=6)):
        lines.insert(at, draw(st.sampled_from(["", " ", "\t"])))
    if not draw(st.integers(0, 5)):  # rows with no meta line
        return "".join(line + "\n" for line in lines)
    meta = draw(st.dictionaries(meta_keys, names, max_size=2))
    lines.insert(0, json.dumps({"meta": {**meta, "columns": columns}}))
    if "x" not in columns and draw(st.booleans()):
        at = min(draw(places), len(lines))
        lines[at:at] = draw(st.sampled_from(TRICKY_RUNS))
    return "".join(line + "\n" for line in lines)


def read_outcome(read, path):
    """repr of the header and columns `read` returns, each array as its list, or the error."""
    try:
        header, columns = read(path, "rows", READ_SPEC, READ_DEFAULTS)
    except ValidationError as exc:
        return f"ValidationError: {exc}"
    listed = {k: c.tolist() if isinstance(c, np.ndarray) else c for k, c in columns.items()}
    return repr((header, listed))


@settings(max_examples=40, deadline=None)
@given(jsonl_files())
def test_read_jsonl_equals_per_line_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("jsonl") / "rows.jsonl"
    path.write_text(text, encoding="utf-8")
    assert read_outcome(read_jsonl, path) == read_outcome(reference_read_jsonl, path)


def test_read_jsonl_names_an_unknown_column_before_a_later_bad_line(tmp_path):
    # line 1 is read first, chunk by chunk, so a bad line past the first chunk is never reached
    head = json.dumps({"meta": {"columns": ["id", "x"]}})
    rows = ['["s%d", null]' % i for i in range(1030)]
    path = tmp_path / "rows.jsonl"
    path.write_text("".join(line + "\n" for line in [head, *rows, "NaN"]), encoding="utf-8")
    with pytest.raises(ValidationError, match=r"rows\.jsonl:1: unknown column 'x'; the columns are id, v, g$"):
        read_jsonl(path, "rows", READ_SPEC, READ_DEFAULTS)


@pytest.mark.parametrize("run", TRICKY_RUNS)
def test_read_jsonl_tricky_runs_equal_per_line_reference(tmp_path, run):
    head = json.dumps({"meta": {"columns": ["id", "v"]}})
    rows = ['["s%d", [0.5]]' % i for i in range(3)]
    path = tmp_path / "rows.jsonl"
    path.write_text("".join(line + "\n" for line in [head, *rows[:2], *run, rows[2]]), encoding="utf-8")
    got = read_outcome(read_jsonl, path)
    assert got == read_outcome(reference_read_jsonl, path)
    assert got.startswith("ValidationError: ")


# --- dataset and effects files across chunk boundaries ------------------------------


def reference_load_dataset(samples_path, pairs_path, schema_path):
    """load_dataset as it was: whole files through the reference reader, then from_records.

    Each file's rows are checked by the conversions that from_records
    uses, so an error about one row names its line.
    """
    schema = load_schema(schema_path)
    types, fixed = _sample_spec(schema)

    def check_samples(columns):
        _label_codes(schema, columns["id"], columns["concepts"])
        _gold_labels(columns["gold"])

    _, samples = reference_read_jsonl(samples_path, "samples", types, {"gold": None},
                                      _SAMPLE_ARRAYS, fixed, check_samples)
    ids, concepts, gold, embeddings, outputs = samples.values()
    row_ids = id_bytes(ids)
    order = np.argsort(row_ids, kind="stable")
    _, pairs = reference_read_jsonl(
        pairs_path, "pairs", _PAIR_TYPES,
        check=lambda c: _pair_rows(row_ids, order, *(v.tolist() for v in c.values())),
    )
    return Dataset.from_records(schema, ids, concepts, embeddings, outputs, gold, zip(*pairs.values()))


def reference_read_effects(path):
    """read_effects on the whole-file reference reader."""
    metadata, columns = reference_read_jsonl(path, "effects", _EFFECT_TYPES, {"fallback": False},
                                             ("effect",))
    hidden = metadata.get("hidden", [])
    if type(hidden) is not list or set(map(type, hidden)) - {str}:
        raise ValidationError(f"{path}:1: 'meta.hidden' must be a list of strings")
    method, space = metadata.get("method"), metadata.get("space")
    names = (columns[key] for key in ("sample_id", "attribute", "from", "to"))
    return Effects(*names, columns["effect"], method, space, columns["fallback"]), metadata


CHUNK_SCHEMA = ConceptSchema.of([("a", ("x", "y", "z")), ("b", ("p", "q"))])
# a float that no draw below produces, for a defect that rewrites it as text
MARK = 12345.5


def truncate(row):
    return json.dumps(list(row.values()))[:-1]


def with_text(key, text):
    def defect(row):
        row[key] = MARK
        return json.dumps(list(row.values())).replace(repr(MARK), text)
    return defect


def setting(key, value):
    def defect(row):
        row[key] = value
    return defect


def dropping(key):
    def defect(row):
        del row[key]
    return defect


def relabel(row):
    row["concepts"][0] = "w"  # no level of a


def unlabel(row):
    row["concepts"][1] = None  # b


def labelling(edit):
    def defect(row):
        edit(row["concepts"])
    return defect


# Each defect was an error before the reader went chunk-wise.
CHUNK_DEFECTS = [
    ("samples", truncate),
    ("samples", with_text("gold", "NaN")),
    ("samples", with_text("gold", "1e400")),
    ("samples", setting("id", 5)),
    ("samples", setting("gold", -3)),
    ("samples", setting("gold", 1.5)),
    ("samples", dropping("gold")),
    ("samples", relabel),
    ("samples", unlabel),
    ("samples", labelling(list.pop)),
    ("samples", labelling(lambda labels: labels.append("p"))),
    ("samples", labelling(lambda labels: labels.__setitem__(0, 5))),
    ("samples", setting("concepts", {"a": "x", "b": "p"})),
    ("samples", lambda row: "[1]"),
    ("samples", lambda row: json.dumps(row)),
    ("pairs", truncate),
    ("pairs", setting("original_id", "nobody")),
    ("pairs", lambda row: row.__setitem__("edited_id", row["original_id"])),  # no label changes
    ("effects", truncate),
    ("effects", with_text("fallback", "Infinity")),
    ("effects", setting("fallback", "no")),
    ("effects", setting("sample_id", None)),
    ("effects", dropping("to")),
]


@st.composite
def chunked_files(draw, defective=False):
    """Samples, pairs and effects tables around the chunk size, and their .npy files.

    The pairs and effects tables have one row count. The samples table
    has twice as many rows: a factual row s<i> for each pair, then each
    pair's edited row s<i>e, which moves attribute i % 2 to its next
    level. Floats reach the ends of the range; blank lines fall near the
    chunk edges. If `defective`, one row of one table, on either side of
    a chunk edge where the file has one, holds a defect.
    """
    counts = [1, 1023, 1024, 1025, 2049]  # a defect needs a row
    count = draw(st.sampled_from(counts if defective else [0, *counts]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edge = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308]

    def floats(rows, width):
        values = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-300, 300, (rows, width))
        picked = rng.random((rows, width)) < 0.1
        values[picked] = rng.choice(edge, int(picked.sum()))
        return values

    d, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    codes = np.column_stack([rng.integers(size, size=count) for size in CHUNK_SCHEMA.sizes])
    moved = np.arange(count) % 2
    edited = codes.copy()
    edited[np.arange(count), moved] = (codes[np.arange(count), moved] + 1) % CHUNK_SCHEMA.sizes[moved]
    labels = CHUNK_SCHEMA.level_names(np.arange(2), np.concatenate([codes, edited])).tolist()
    ids = [f"s{i}" for i in range(count)] + [f"s{i}e" for i in range(count)]
    gold = rng.integers(-1, q, size=2 * count)  # -1: null
    metas = {
        "samples": {**ARRAY_FILES, "attributes": list(CHUNK_SCHEMA.names), "columns": SAMPLE_COLUMNS},
        "pairs": {"columns": PAIR_COLUMNS},
        "effects": {"method": "approx", "space": "logit", "effect": "effects.effect.npy",
                    "columns": ["sample_id", "attribute", "from", "to", "fallback"]},
    }
    rows = {file: [] for file in metas}
    for sid, concepts, g in zip(ids, labels, gold.tolist()):
        rows["samples"].append({"id": sid, "concepts": concepts, "gold": g if g >= 0 else None})
    for i in range(count):
        a = i % 2
        rows["pairs"].append({"original_id": ids[i], "edited_id": ids[count + i]})
        edit = {"attribute": CHUNK_SCHEMA.names[a], "from": labels[i][a], "to": labels[count + i][a]}
        rows["effects"].append({"sample_id": ids[i], **edit, "fallback": bool(i % 3 and i % 2)})
    texts = {
        file: [json.dumps({"meta": metas[file]}), *(json.dumps(list(row.values())) for row in file_rows)]
        for file, file_rows in rows.items()
    }
    if defective:
        file, defect = draw(st.sampled_from(CHUNK_DEFECTS))
        at = min(draw(st.sampled_from([1022, 1023, 1024, 1025, 2047, 2048])), count - 1)
        row = rows[file][at]
        texts[file][at + 1] = defect(row) or json.dumps(list(row.values()))  # past the meta line
    edges = st.sampled_from([1, 1022, 1023, 1024, 1025, 2047, 2048, 2049, 2050])
    for lines in texts.values():
        for at in draw(st.lists(edges, max_size=4)):
            lines.insert(min(at, len(lines)), draw(st.sampled_from(["", " ", "\t"])))
    files = {f"{file}.jsonl": "".join(line + "\n" for line in lines) for file, lines in texts.items()}
    matrices = (("samples.embedding.npy", floats(2 * count, d)),
                ("samples.logits.npy", floats(2 * count, q)), ("effects.effect.npy", floats(count, q)))
    return {**files, **{name: npy_bytes(matrix) for name, matrix in matrices}}


def array_bits(*arrays):
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def dataset_bits(dataset):
    p = dataset.pairs
    return array_bits(
        dataset.ids, dataset.codes, dataset.embeddings, dataset.outputs, dataset.gold,
        p.original, p.edited, p.attribute, p.to, dataset.fit_rows,
    )


def effects_bits(effects):
    columns = (effects.sample_id, effects.attribute, effects.from_level, effects.to_level)
    return array_bits(*columns, effects.effect, effects.fallback), effects.method, effects.space


def write_chunked_files(tmp_path_factory, files):
    root = tmp_path_factory.mktemp("chunks")
    for name, content in files.items():
        path = root / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
    (root / "schema.json").write_text(json.dumps(CHUNK_SCHEMA.to_obj()), encoding="utf-8")
    return root


def load_error(load, *paths):
    """The message of the ValidationError that `load` raises, or None."""
    try:
        load(*paths)
    except ValidationError as exc:
        return str(exc)
    return None


@settings(max_examples=20, deadline=None)
@given(chunked_files())
def test_chunked_loads_equal_whole_file_reference(tmp_path_factory, files):
    root = write_chunked_files(tmp_path_factory, files)
    paths = (root / "samples.jsonl", root / "pairs.jsonl", root / "schema.json")
    assert dataset_bits(load_dataset(*paths)) == dataset_bits(reference_load_dataset(*paths))
    effects, metadata = read_effects(root / "effects.jsonl")
    want, want_metadata = reference_read_effects(root / "effects.jsonl")
    assert effects_bits(effects) == effects_bits(want) and metadata == want_metadata


@settings(max_examples=60, deadline=None)
@given(chunked_files(defective=True))
def test_chunked_load_errors_equal_whole_file_reference(tmp_path_factory, files):
    root = write_chunked_files(tmp_path_factory, files)
    paths = (root / "samples.jsonl", root / "pairs.jsonl", root / "schema.json")
    assert load_error(load_dataset, *paths) == load_error(reference_load_dataset, *paths)
    path = root / "effects.jsonl"
    assert load_error(read_effects, path) == load_error(reference_read_effects, path)


# --- JSONL tables of random columns --------------------------------------------------

LEFT_OUT = "left out"  # a column of the read spec that no table below holds


@st.composite
def jsonl_tables(draw):
    """(columns, types, arrays, metadata, m) for a table of m = 0, 1, 2, 1024 or 1025 rows.

    Each column holds strings, integers or null, booleans, or labels:
    a row of strings, one per name of the column's type, written from a
    2-D string array. Each array is a float matrix of m rows.
    """
    m = draw(st.sampled_from([0, 1, 2, 1024, 1025]))
    keys = draw(st.lists(names.filter(lambda key: key != LEFT_OUT), min_size=1, max_size=5, unique=True))
    pool = np.array(draw(st.lists(names, min_size=1, max_size=4)), dtype=object)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def strings():
        return np.array(pool[rng.integers(len(pool), size=m)].tolist(), dtype=str)

    columns, types = {}, {}
    for key in keys:
        kind = types[key] = draw(st.sampled_from(["string", "integer|null", "boolean", "labels"]))
        if kind == "string":
            columns[key] = strings()
        elif kind == "integer|null":
            values = rng.integers(-(2**62), 2**62, size=m).tolist()
            columns[key] = [None if rng.random() < 0.3 else value for value in values]
        elif kind == "boolean":
            columns[key] = rng.random(m) < 0.5
        else:
            inner = types[key] = tuple(draw(st.lists(names, max_size=3, unique=True)))
            columns[key] = np.array([strings() for _ in inner], dtype=str).T.reshape(m, len(inner))
    arrays = {}
    for key in [f"m{i}" for i in range(draw(st.integers(0, 2)))]:  # names fit in a file name
        width = int(rng.integers(0, 4))
        edge = [0.0, -0.0, 5e-324, 1e308, -1.7976931348623157e308]
        values = rng.standard_normal((m, width)) * 10.0 ** rng.integers(-300, 300, (m, width))
        picked = rng.random((m, width)) < 0.2
        values[picked] = rng.choice(edge, int(picked.sum()))
        arrays[key] = values
    metadata = {k: v for k, v in draw(metadata_dicts).items() if k not in arrays}
    return columns, types, arrays, metadata, m


def row_values(columns, m):
    """Each row's values, in column order, as the JSON encoder takes them."""
    def value(column, i):
        item = column[i]
        return item.tolist() if isinstance(item, np.generic | np.ndarray) else item
    return [[value(column, i) for column in columns.values()] for i in range(m)]


@settings(max_examples=60, deadline=None)
@given(jsonl_tables())
def test_jsonl_tables_round_trip(tmp_path_factory, table):
    columns, types, arrays, metadata, m = table
    rows = row_values(columns, m)
    root = tmp_path_factory.mktemp("table")
    path = write_jsonl(root / "table.jsonl", columns, metadata, arrays)
    files = {key: f"table.{key}.npy" for key in arrays}
    head = _ROW_JSON.encode({"meta": {**metadata, **files, "columns": list(columns)}})
    want = "".join(line + "\n" for line in [head, *map(_ROW_JSON.encode, rows)])
    assert path.read_bytes() == want.encode("utf-8")
    assert {name: (root / name).read_bytes() for name in files.values()} == {
        files[key]: npy_bytes(matrix) for key, matrix in arrays.items()
    }

    spec, defaults = {**types, LEFT_OUT: "integer|null"}, {LEFT_OUT: None}
    header, read = read_jsonl(path, "table", spec, defaults, arrays=tuple(arrays), fixed=metadata)
    assert header == metadata
    assert read.pop(LEFT_OUT) == [None] * m
    for key, column in columns.items():
        got = read[key].tolist() if isinstance(read[key], np.ndarray) else read[key]
        assert got == [row[list(columns).index(key)] for row in rows], key
    for key, matrix in arrays.items():
        assert array_bits(read[key]) == array_bits(matrix), key


# --- global report: the per-level reference ------------------------------------------


def reference_report_csv(model, baseline_class):
    """CSV of the earlier `global_report`, which built the contrasts level by level."""
    q = model.n_outputs
    effective = model.concept_coef - model.embed_coef @ model.pseudo_basis @ model.pseudo_coef
    rows = []
    if q > 1:
        row = 0
        for name, levels in model.schema.attributes:
            if name in model.hidden_attributes:
                continue
            for level in levels:
                coef_row = effective[row]
                rows.append([name, level, *(float(v) for v in coef_row - coef_row[baseline_class])])
                row += 1
    classes = [f"class_{c}" for c in range(q)] if rows else []
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([["attribute", "level"] + classes, *rows])
    return buf.getvalue()


# large enough to stress float formatting, small enough that no difference overflows
report_floats = st.one_of(
    edge_floats.filter(lambda v: abs(v) <= 1e300), st.floats(min_value=-1e300, max_value=1e300)
)


def report_model(schema, hidden, concept_coef):
    k, q = concept_coef.shape
    return MCCEModel(
        schema=schema,
        hidden_attributes=hidden,
        embed_coef=np.zeros((k, 1)),
        pseudo_basis=np.zeros((1, 1)),
        concept_coef=concept_coef,
        pseudo_coef=np.zeros((1, q)),
        ridge=0.0,
        n_pseudo=1,
        space="logit",
        target_kind="output",
    )


@settings(max_examples=80, deadline=None)
@given(masked_schemas(), st.data())
def test_global_report_csv_equals_per_level_reference(masked, data):
    schema, hidden = masked
    q = data.draw(st.integers(1, 4))
    coef = np.array(
        data.draw(st.lists(report_floats, min_size=schema.visible_width(hidden) * q,
                           max_size=schema.visible_width(hidden) * q)),
        dtype=np.float64,
    ).reshape(-1, q)
    model = report_model(schema, hidden, coef)
    baseline = data.draw(st.integers(0, q - 1))
    report = global_report(model, baseline)
    assert report.to_csv() == reference_report_csv(model, baseline)
    assert report.matrix().shape == ((coef.shape[0] if q > 1 else 0), q)


@settings(max_examples=80, deadline=None)
@given(masked_schemas(), st.data())
def test_global_report_level_contrasts_ignore_a_block_shift(masked, data):
    # adding one vector to every row of a block moves each of its class
    # contrasts by the same amount, so differences between its levels stay
    schema, hidden = masked
    q = data.draw(st.integers(2, 4))
    bounded = st.floats(min_value=-1e3, max_value=1e3)
    k = schema.visible_width(hidden)
    coef = np.array(data.draw(st.lists(bounded, min_size=k * q, max_size=k * q))).reshape(k, q)
    blocks = list(schema.visible_blocks(hidden).values())
    block = data.draw(st.sampled_from(blocks))
    shift = np.array(data.draw(st.lists(bounded, min_size=q, max_size=q)))
    shifted = coef.copy()
    shifted[block] += shift
    baseline = data.draw(st.integers(0, q - 1))
    before = global_report(report_model(schema, hidden, coef), baseline).matrix()
    after = global_report(report_model(schema, hidden, shifted), baseline).matrix()
    tol = 1e-12 * (1.0 + np.abs(coef).max() + np.abs(shift).max())
    for b in blocks:
        level_diff = before[b] - before[b.start]
        assert np.abs((after[b] - after[b.start]) - level_diff).max() <= 8 * tol
    untouched = np.ones(k, dtype=bool)
    untouched[block] = False
    assert np.array_equal(after[untouched], before[untouched])


@settings(max_examples=40, deadline=None)
@given(recoverable_configs(), st.data())
def test_global_report_contrasts_equal_the_outcome_contrasts(problem, data):
    # With exact recovery, no outcome noise and pseudo-concepts that span
    # the hidden blocks, the report tabulates the true effects: its
    # within-attribute contrasts are outcome_coef's, as the local effects
    # are the oracle's. The observed-concept block alone is biased.
    config, n_pseudo = problem
    dataset, truth = generate(config)
    schema = config.schema
    complete = one_hot(schema, dataset.codes[dataset.fit_rows])
    assume(np.linalg.matrix_rank(complete) == schema.width - len(schema.names) + 1)
    model = fit_mcce(dataset, n_pseudo=n_pseudo)
    b = data.draw(st.integers(0, config.n_outputs - 1))
    outcome = truth.outcome_coef[np.repeat(schema.visible_mask(config.hidden), schema.sizes)]
    want = outcome - outcome[:, [b]]
    got = global_report(model, b).matrix()
    assert coefficient_error(got, want, schema, model.hidden_attributes) < 1e-8


@settings(max_examples=60, deadline=None)
@given(masked_datasets(), st.data())
def test_explain_mcce_moves_by_rows_of_the_effective_matrix(problem, data):
    # An edit from level l to l' moves the surrogate by row l' minus row
    # l of the matrix that the report tabulates. The rest of an
    # explain_mcce row is the row's own fit residual, which the edit that
    # keeps the level gives alone.
    dataset, rows, attribute, to = problem
    n, d = dataset.embeddings.shape
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small draws interpolate on purpose
        model = fit_mcce(dataset, n_pseudo=min(dataset.visible_width, n, d))
    level = dataset.codes[rows, attribute]
    moved = explain_mcce(model, dataset, rows, attribute, to)
    moved -= explain_mcce(model, dataset, rows, attribute, level)
    blocks = dataset.schema.visible_blocks(dataset.hidden_attributes)
    start = np.array([blocks[dataset.schema.names[a]].start for a in attribute])
    B = model.effective_coef
    scale = 1.0 + np.abs(B).max() + np.abs(moved).max()
    assert np.allclose(moved, B[start + to] - B[start + level], rtol=0, atol=1e-9 * scale)
    b = data.draw(st.integers(0, model.n_outputs - 1))
    report = global_report(model, b).matrix()
    if len(report):  # a single-class model has no contrasts
        contrast = report[start + to] - report[start + level]
        assert np.allclose(contrast, moved - moved[:, [b]], rtol=0, atol=1e-9 * scale)
