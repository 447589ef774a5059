"""Property tests over random schemas, masks and edits.

The references here are written per row, on label names, the way the
batched code is not: a one-hot vector built level by level, an edit as
a changed label, and the closed-form mcce effect of one edit. The approx,
effects-file and JSONL-reader references are earlier per-edit and
per-row versions of the library code, kept to pin the faster versions
bit for bit; `synthesize_sample` is the per-sample reference of the
generator.
"""

import csv
import io
import json
import struct
import warnings
from dataclasses import replace

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
    generate,
    get_distance,
    global_report,
    icace_error,
    load_dataset,
    load_ground_truth,
    load_model,
    make_pairs,
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
    _ABSENT,
    _DOC_JSON,
    _JSON_TYPES,
    _PAIR_KEYS,
    _ROW_JSON,
    _SAMPLE_TYPES,
    _parse_json,
    load_schema,
    read_jsonl,
)
from mcce.explainers import _EFFECT_TYPES, seeded_index
from mcce.errors import ValidationError


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
    return make_pairs(dataset, truth, config, edits)


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
    assert meta == {"method": "approx"}
    assert (read.method, read.space) == ("approx", "logit")
    for column in ("sample_id", "attribute", "from_level", "to_level", "effect", "fallback"):
        assert np.array_equal(getattr(read, column), getattr(effects, column)), column


@settings(max_examples=60, deadline=None)
@given(masked_datasets(), st.sampled_from(["l2", "cosine", "norm"]))
def test_icace_error_matches_per_pair_grouping(problem, metric):
    dataset, rows, attribute, to = problem
    n, m, q = len(dataset), rows.size, dataset.outputs.shape[1]
    # each edit becomes a pair: its row and an appended copy with one label changed
    codes = np.vstack([dataset.codes, dataset.codes[rows]])
    codes[n + np.arange(m), attribute] = to
    rng = np.random.default_rng(m)
    paired = Dataset(
        dataset.schema,
        [f"r{i}" for i in range(n + m)],
        codes,
        np.zeros((n + m, 1)),
        np.vstack([dataset.outputs, rng.standard_normal((m, q))]),
        pairs=EditPairs(rows, n + np.arange(m), attribute, to),
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


# --- approx: the per-edit implementation it replaced -----------------------------


def reference_explain_approx(dataset, row, attribute, to, seed):
    """explain_approx as it was: the visible mask, key and bisection redone per edit."""
    sizes = dataset.schema.sizes
    visible = dataset.schema.visible_mask(dataset.hidden_attributes)
    target = dataset.codes[row].copy()
    target[attribute] = to
    target = target[visible]
    profiles = np.ravel_multi_index(dataset.codes[:, visible].T, sizes[visible])
    order = np.argsort(profiles, kind="stable")
    profiles = profiles[order]
    key = np.ravel_multi_index(target, sizes[visible])
    positions = order[np.searchsorted(profiles, key) : np.searchsorted(profiles, key, "right")]
    fallback = positions.size == 0
    if fallback:
        distance = np.sum(dataset.codes[:, visible] != target, axis=1)
        positions = np.flatnonzero(distance == distance.min())
    rng = np.random.default_rng(seed)
    choice = positions[int(rng.integers(len(positions)))]
    return dataset.outputs[choice] - dataset.outputs[row], fallback


@st.composite
def approx_problems(draw):
    """A random schema and mask, rows with repeats, and edits of any attribute.

    With at most 30 rows over up to 5^5 profiles many edits find no exact
    match (the fallback path); edits of hidden attributes are included.
    """
    level_counts = draw(st.lists(st.integers(2, 5), min_size=1, max_size=5))
    schema = ConceptSchema.of(
        (f"a{i}", tuple(f"l{j}" for j in range(count))) for i, count in enumerate(level_counts)
    )
    flags = draw(st.lists(st.booleans(), min_size=len(level_counts), max_size=len(level_counts)))
    assume(not all(flags))
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
    seeds = rng.integers(2**63, size=m).tolist()
    return dataset, rows, attribute, to, seeds


@settings(max_examples=150, deadline=None)
@given(approx_problems())
def test_explain_approx_matches_per_edit_reference(problem):
    dataset, rows, attribute, to, seeds = problem
    index = build_label_index(dataset)
    visible = dataset.schema.visible_mask(dataset.hidden_attributes)
    for i, (row, a, t, seed) in enumerate(zip(rows, attribute, to, seeds)):
        want_effect, want_fallback = reference_explain_approx(dataset, row, a, t, seed)
        # the first edit also builds its own index, as a one-off call does
        got = explain_approx(dataset, row, a, t, seed, index=None if i == 0 else index)
        assert got.fallback is want_fallback
        assert got.effect.tobytes() == want_effect.tobytes()
        assert visible[a] or not got.fallback  # a hidden edit keeps the row's own profile


# Counts in [2**31, 2**32] make numpy's rejection step, and so the
# fallback to numpy, likely; counts past 2**32 take numpy's 64-bit path.
draw_counts = st.one_of(
    st.integers(2**31, 2**32), st.integers(1, 2**32 + 2**20), st.integers(1, 64), st.just(2**32)
)


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2**64 - 1), draw_counts)
def test_seeded_index_equals_numpy_draw(seed, count):
    want = int(np.random.default_rng(seed).integers(count))
    assert seeded_index(seed, count) == want
    assert seeded_index(seed, count) == want  # from the cached first output
    assert seeded_index(np.uint64(seed), np.int64(count)) == want


def test_seeded_index_covers_the_rejection_case():
    """Seeds whose multiply-shift lands in numpy's rejection zone still draw as numpy does."""
    count = 3 * 2**30
    checked = 0
    for seed in range(2000):
        w = int(np.random.PCG64(seed).random_raw()) & 0xFFFFFFFF
        if (w * count) & 0xFFFFFFFF < count:
            assert seeded_index(seed, count) == int(np.random.default_rng(seed).integers(count))
            checked += 1
    assert checked > 100


# --- effects file: the per-row writer it replaced ----------------------------------


def reference_effects_text(effects, metadata):
    """write_effects' text as it was: one encoder call per estimate."""
    lines = [_ROW_JSON.encode({"meta": metadata})]
    columns = (effects.sample_id, effects.attribute, effects.from_level, effects.to_level)
    for sid, attribute, from_level, to_level, effect, fallback in zip(
        *(col.tolist() for col in columns), effects.effect.tolist(), effects.fallback.tolist()
    ):
        obj = {
            "sample_id": sid,
            "attribute": attribute,
            "from": from_level,
            "to": to_level,
            "effect": effect,
            "method": effects.method,
            "space": effects.space,
            "fallback": fallback,
        }
        lines.append(_ROW_JSON.encode(obj))
    return "\n".join(lines) + "\n"


# names with JSON escapes, non-ASCII text and the row separator of an encoded matrix
pieces = ['"', "\\", "], [", "[[", "]]", "é", "\u20ac", "😀", "\n", "a"]
names = st.one_of(st.text(max_size=6), st.lists(st.sampled_from(pieces), max_size=4).map("".join))
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
@given(effects_tables(), st.dictionaries(names, st.one_of(st.none(), st.integers(), names)))
def test_write_effects_bytes_equal_per_row_encoding(tmp_path_factory, effects, metadata):
    path = write_effects(tmp_path_factory.mktemp("effects") / "e.jsonl", effects, metadata)
    assert path.read_bytes() == reference_effects_text(effects, metadata).encode("utf-8")


# --- dataset files: the per-row writer they replaced --------------------------------


def reference_dataset_texts(dataset):
    """save_dataset's samples.jsonl and pairs.jsonl as they were: one encoder call per row."""
    schema, ids, codes, p = dataset.schema, dataset.ids.tolist(), dataset.codes, dataset.pairs
    samples = []
    for i, sid in enumerate(ids):
        concepts = {name: levels[codes[i, a]] for a, (name, levels) in enumerate(schema.attributes)}
        obj = {
            "id": sid,
            "concepts": concepts,
            "embedding": dataset.embeddings[i].tolist(),
            "logits": dataset.outputs[i].tolist(),
        }
        if dataset.gold[i] >= 0:
            obj["gold"] = int(dataset.gold[i])
        samples.append(_ROW_JSON.encode(obj) + "\n")
    pairs = []
    for original, edited, a, to in zip(p.original, p.edited, p.attribute, p.to):
        name, levels = schema.attributes[a]
        obj = {
            "original_id": ids[original],
            "edited_id": ids[edited],
            "attribute": name,
            "from": levels[codes[original, a]],
            "to": levels[to],
        }
        pairs.append(_ROW_JSON.encode(obj) + "\n")
    return "".join(samples), "".join(pairs)


# numpy string arrays drop trailing NULs, which would change a name in a file
file_names = names.filter(lambda name: not name.endswith("\x00"))


@st.composite
def file_datasets(draw):
    """Random names, floats at the edges of the range, gold on some rows, and edit pairs."""
    attribute_names = draw(st.lists(file_names, min_size=1, max_size=3, unique=True))
    level_lists = st.lists(file_names, min_size=2, max_size=3, unique=True)
    schema = ConceptSchema.of((name, draw(level_lists)) for name in attribute_names)
    n, m = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = np.column_stack([rng.integers(size, size=n) for size in schema.sizes])
    original = rng.integers(max(n, 1), size=m if n else 0)
    attribute = rng.integers(len(schema.names), size=original.size)
    to = rng.integers(schema.sizes[attribute])
    edited_codes = codes[original]
    edited_codes[np.arange(original.size), attribute] = to
    codes = np.concatenate([codes, edited_codes])
    rows = len(codes)
    ids = draw(st.lists(file_names, min_size=rows, max_size=rows, unique=True))
    d, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    gold = draw(st.lists(st.one_of(st.just(-1), st.integers(0, 2**62)), min_size=rows, max_size=rows))
    return Dataset(
        schema,
        ids,
        codes,
        draw(float_matrices(rows, d)),
        draw(float_matrices(rows, q)),
        gold,
        EditPairs(original, np.arange(n, rows), attribute, to),
    )


@settings(max_examples=150, deadline=None)
@given(file_datasets())
def test_save_dataset_bytes_equal_per_row_encoding(tmp_path_factory, dataset):
    paths = save_dataset(dataset, tmp_path_factory.mktemp("dataset"))
    samples, pairs = reference_dataset_texts(dataset)
    assert paths["samples"].read_bytes() == samples.encode("utf-8")
    assert paths["pairs"].read_bytes() == pairs.encode("utf-8")


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
    d, j, q = (data.draw(st.integers(1, 3)) for _ in range(3))
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
    converged = data.draw(st.one_of(st.none(), st.booleans()))
    model = SLearnerModel(
        schema=schema,
        hidden_attributes=hidden,
        weights=data.draw(float_matrices(k, q)),
        bias=data.draw(float_matrices(1, q)).reshape(q),
        space=data.draw(st.sampled_from(["logit", "probability"])),
        iterations=data.draw(st.integers(0, 50)),
        final_loss=data.draw(finite_floats),
        converged=converged,
        grad_norm=None if converged is None else data.draw(finite_floats),
    )
    path = save_model(model, tmp_path_factory.mktemp("model") / "model.json")
    back = load_model(path)
    assert isinstance(back, SLearnerModel)
    assert (back.schema, back.hidden_attributes) == (schema, hidden)
    for name in ("weights", "bias", "final_loss"):
        assert bits(getattr(back, name)) == bits(getattr(model, name)), name
    assert (back.space, back.iterations) == (model.space, model.iterations)
    assert back.converged is model.converged
    assert model.grad_norm is None if back.grad_norm is None else (
        bits(back.grad_norm) == bits(model.grad_norm)
    )


@st.composite
def ground_truths(draw):
    """A ground truth whose coefficients hold any finite floats, edge cases included."""
    return SynthGroundTruth(
        draw(float_matrices(draw(st.integers(1, 5)), draw(st.integers(0, 4)))),
        draw(st.integers(0, 2**63 - 1)),
        tuple(draw(st.lists(names, max_size=3))),
    )


@settings(max_examples=60, deadline=None)
@given(ground_truths())
def test_ground_truth_round_trips_bit_exactly(tmp_path_factory, truth):
    assume(truth.outcome_coef.shape[1])  # [[]] reads back as one empty row
    path = save_ground_truth(truth, tmp_path_factory.mktemp("truth") / "ground_truth.json")
    back = load_ground_truth(path)
    assert bits(back.outcome_coef) == bits(truth.outcome_coef)
    assert (back.seed, back.hidden) == (truth.seed, truth.hidden)


@settings(max_examples=60, deadline=None)
@given(ground_truths())
def test_save_ground_truth_bytes_equal_whole_document_encoding(tmp_path_factory, truth):
    obj = {
        "outcome_coef": truth.outcome_coef.tolist(),
        "seed": truth.seed,
        "hidden": list(truth.hidden),
    }
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
    assert np.abs(C.T @ S).max() <= 1e-10 * scale
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
    dataset = make_pairs(dataset, truth, config, edits_per_sample)
    p = dataset.pairs
    rows = [(i, i, None) for i in range(config.n)]
    rows += [(e, o, (a, t)) for o, e, a, t in zip(p.original, p.edited, p.attribute, p.to)]
    for row, index, edit in rows:
        codes, embedding, output, clean = synthesize_sample(config, int(index), edit)
        assert np.array_equal(dataset.codes[row], codes)
        assert bits(dataset.embeddings[row]) == bits(embedding)
        assert bits(dataset.outputs[row]) == bits(output)
        assert dataset.gold[row] == np.argmax(clean)


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
    dataset = make_pairs(dataset, truth, config, edits_per_sample)
    got = oracle_effect(truth, dataset, space)
    p = dataset.pairs
    assert got.shape == (len(p), config.n_outputs)
    for k, (original, attribute, to) in enumerate(zip(p.original, p.attribute, p.to)):
        before = synthesize_sample(config, int(original))[3]
        after = synthesize_sample(config, int(original), (int(attribute), int(to)))[3]
        if space == "probability":
            before, after = softmax(before), softmax(after)
        assert bits(got[k]) == bits(after - before)


@st.composite
def recoverable_configs(draw):
    """A noiseless exact-recovery config with something hidden, and a pseudo-concept
    count no smaller than the hidden blocks' rank."""
    level_counts = draw(st.lists(st.integers(2, 4), min_size=2, max_size=4))
    attributes = [
        (f"a{i}", [f"l{j}" for j in range(count)]) for i, count in enumerate(level_counts)
    ]
    hidden = draw(
        st.lists(st.sampled_from(range(len(level_counts))), min_size=1,
                 max_size=len(level_counts) - 1, unique=True)
    )
    width = sum(level_counts)
    config = default_config(
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
    hidden_rank = sum(level_counts[a] - 1 for a in hidden)
    return config, draw(st.integers(hidden_rank, config.embed_dim))


@settings(max_examples=40, deadline=None)
@given(recoverable_configs())
def test_mcce_recovers_the_oracle_when_pseudo_concepts_span_the_hidden_blocks(problem):
    # The paper's claim: the embedding residual stands in for the hidden
    # concepts, so with exact recovery, no outcome noise and enough
    # pseudo-concepts the visible edits' effects are the oracle's.
    config, n_pseudo = problem
    dataset, truth = generate(config)
    dataset = make_pairs(dataset, truth, config)
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


# --- JSONL reader: the per-line reader it replaced -----------------------------------


def reference_read_jsonl(path, what, types, defaults=None, head=None):
    """read_jsonl as it was: one `_parse_json` call per non-blank line, whole file at once.

    As in read_jsonl, a "string" column is returned as a numpy string array.
    """
    rows, lines = [], []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            if not line.isspace():
                rows.append(_parse_json(line, path, number))
                lines.append(number)
    if set(map(type, rows)) - {dict}:
        i = next(i for i, row in enumerate(rows) if type(row) is not dict)
        raise ValidationError(f"{path}:{lines[i]}: expected a JSON object")
    header = {}
    if head is not None and lines[:1] == [1] and head in rows[0]:
        header, rows, lines = rows[0][head], rows[1:], lines[1:]
        if type(header) is not dict:
            raise ValidationError(f"{path}:1: {head!r} must be a JSON object")
    columns = {}
    for key, names in types.items():
        default = (defaults or {}).get(key, _ABSENT)
        column = columns[key] = [row.get(key, default) for row in rows]
        allowed = tuple(_JSON_TYPES[name] for name in names.split("|"))
        if set(map(type, column)).difference(allowed):
            i = next(i for i, value in enumerate(column) if type(value) not in allowed)
            if column[i] is _ABSENT:
                raise ValidationError(f"{path}:{lines[i]}: missing required key {key!r}")
            raise ValidationError(f"{path}:{lines[i]}: {key!r} must be {names.replace('|', ' or ')}")
        if names == "string":
            columns[key] = np.array(column, dtype=str)
    return header, columns


jsonl_rows = st.fixed_dictionaries(
    {"id": st.one_of(names, st.sampled_from(["NaN", "a,NaN,b", "]", ",NaN,"]))},
    optional={
        "v": st.lists(finite_floats, max_size=3),
        "g": st.one_of(st.none(), st.integers()),
        "x": st.recursive(st.none() | st.booleans() | names, st.lists, max_leaves=4),
    },
).map(json.dumps)
# Runs of lines that are wrong alone or together. The first four decode
# as an array once joined around NaN separators, and each defeats one of
# the chunk guard's conditions: the element count (twice), the NaN-token
# count, and the separator kept out of a string.
TRICKY_RUNS = [
    ['{"a": [{}', "{}]}", '{"x": 1}, {"y": 2}'],
    ['{"id": "p", "v": [1', "2]}"],
    ['{"id": "p", "v": [1', '2]}, NaN, {"id": "q"}'],
    ['{"id": "p"}, NaN, {"id": "x', 'y"}'],
    ['{"id": "p", "v": [NaN]}'],
    ['{"id": "p", "v": [Infinity]}'],
    ['{"id": "p", "v": [-Infinity]}'],
    ["NaN"],
    ["[1, 2]"],
    ['"text"'],
    ['{"id": "p"} {"id": "q"}'],
    ['{"id": "p"},'],
    [',{"id": "p"}'],
    ["{"],
    ["}"],
    ['{"id": 5}'],
    ['{"meta": [1]}'],
]


@st.composite
def jsonl_files(draw):
    """JSONL text around the decoder's chunk boundaries, with blank lines and bad runs."""
    count = draw(st.sampled_from([0, 1, 1023, 1024, 1025, 2049]))
    pool = draw(st.lists(jsonl_rows, min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lines = [pool[i] for i in rng.integers(len(pool), size=count)]
    near_edges = st.sampled_from([0, 1, 1022, 1023, 1024, 1025, 2047, 2048, count])
    places = st.one_of(near_edges, st.integers(0, count)).map(lambda at: min(at, count))
    for at in draw(st.lists(places, max_size=6)):
        lines.insert(at, draw(st.sampled_from(["", " ", "\t"])))
    if draw(st.booleans()):
        lines.insert(0, json.dumps({"meta": draw(st.dictionaries(names, names, max_size=2))}))
    if draw(st.booleans()):
        at = min(draw(places), len(lines))
        lines[at:at] = draw(st.sampled_from(TRICKY_RUNS))
    return "".join(line + "\n" for line in lines)


def read_outcome(read, path):
    """repr of the header and columns `read` returns, each array as its list, or the error."""
    try:
        header, columns = read(path, "rows", {"id": "string", "v": "list", "g": "integer|null"},
                               {"v": [], "g": None}, head="meta")
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


@pytest.mark.parametrize("run", TRICKY_RUNS)
def test_read_jsonl_tricky_runs_equal_per_line_reference(tmp_path, run):
    rows = ['{"id": "s%d", "v": [0.5]}' % i for i in range(3)]
    path = tmp_path / "rows.jsonl"
    path.write_text("".join(line + "\n" for line in [*rows[:2], *run, rows[2]]), encoding="utf-8")
    got = read_outcome(read_jsonl, path)
    assert got == read_outcome(reference_read_jsonl, path)
    assert got.startswith("ValidationError: ")


# --- dataset and effects files across chunk boundaries ------------------------------


def reference_load_dataset(samples_path, pairs_path, schema_path):
    """load_dataset as it was: whole files through the reference reader, then from_records."""
    schema = load_schema(schema_path)
    _, samples = reference_read_jsonl(samples_path, "samples", _SAMPLE_TYPES, {"gold": None})
    _, pairs = reference_read_jsonl(pairs_path, "pairs", dict.fromkeys(_PAIR_KEYS, "string"))
    return Dataset.from_records(schema, *samples.values(), zip(*pairs.values()))


def reference_read_effects(path):
    """read_effects as it was, on the whole-file reference reader."""
    read = reference_read_jsonl(path, "effects", _EFFECT_TYPES, {"fallback": False}, "meta")
    metadata, columns = read
    hidden = metadata.get("hidden", [])
    if type(hidden) is not list or set(map(type, hidden)) - {str}:
        raise ValidationError(f"{path}:1: 'meta.hidden' must be a list of strings")
    kinds = set(zip(columns["method"], columns["space"]))
    if len(kinds) > 1:
        raise ValidationError(f"{path}: estimates mix methods or spaces: {sorted(kinds, key=str)}")
    method, space = kinds.pop() if kinds else (metadata.get("method"), metadata.get("space"))
    try:
        effect = np.array(columns["effect"], dtype=np.float64)
    except (TypeError, ValueError):
        effect = None
    if effect is None or (columns["effect"] and effect.ndim != 2) or not np.isfinite(effect).all():
        raise ValidationError(
            f"{path}: every 'effect' must be a finite list of numbers, all of one length"
        )
    columns.update(effect=effect, method=method, space=space)
    return Effects(*columns.values()), metadata


CHUNK_SCHEMA = ConceptSchema.of([("a", ("x", "y", "z")), ("b", ("p", "q"))])
# a float that no draw below produces, for a defect that rewrites it as text
MARK = 12345.5


def truncate(row):
    return json.dumps(row)[:-1]


def with_text(key, text):
    def defect(row):
        row[key][0] = MARK
        return json.dumps(row).replace(repr(MARK), text)
    return defect


def setting(key, value):
    def defect(row):
        row[key] = value
    return defect


def dropping(key):
    def defect(row):
        del row[key]
    return defect


def extending(key):
    def defect(row):
        row[key].append(0.5)
    return defect


def relabel(row):
    row["concepts"]["a"] = "w"


def unlabel(row):
    del row["concepts"]["b"]


# Each defect was an error before the reader went chunk-wise; none is a
# non-number in a float row, which the earlier reader let through.
CHUNK_DEFECTS = [
    ("samples", truncate),
    ("samples", with_text("embedding", "NaN")),
    ("samples", with_text("logits", "1e400")),
    ("samples", setting("id", 5)),
    ("samples", setting("gold", -3)),
    ("samples", setting("gold", 1.5)),
    ("samples", dropping("logits")),
    ("samples", extending("embedding")),
    ("samples", relabel),
    ("samples", unlabel),
    ("samples", lambda row: "[1]"),
    ("pairs", truncate),
    ("pairs", setting("original_id", "nobody")),
    ("pairs", setting("to", "w")),
    ("effects", truncate),
    ("effects", with_text("effect", "Infinity")),
    ("effects", with_text("effect", "1e400")),
    ("effects", setting("fallback", "no")),
    ("effects", setting("method", "mcce")),
    ("effects", extending("effect")),
]


@st.composite
def chunked_files(draw, defective=False):
    """Samples, pairs and effects texts of one row count around the chunk size.

    Floats reach the ends of the range and some values are JSON ints;
    blank lines fall near the chunk edges. If `defective`, one row of one
    file, on either side of a chunk edge where the file has one, holds a
    defect.
    """
    counts = [1, 1023, 1024, 1025, 2049]  # a defect needs a row
    count = draw(st.sampled_from(counts if defective else [0, *counts]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edge = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308]

    def float_rows(width):
        scale = 10.0 ** rng.integers(-300, 300, (count, width))
        values = rng.standard_normal((count, width)) * scale
        picked = rng.random((count, width)) < 0.1
        values[picked] = rng.choice(edge, int(picked.sum()))
        rows = values.tolist()
        for row in rows[:: max(count // 7, 1)]:
            row[0] = int(rng.integers(-3, 4))
        return rows

    d, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    embeddings, logits, effect = float_rows(d), float_rows(q), float_rows(q)
    codes = np.column_stack([rng.integers(size, size=count) for size in CHUNK_SCHEMA.sizes])
    gold = rng.integers(-1, q + 1, size=count)  # -1: key left out, q: null
    samples, pairs, effects = [], [], [{"meta": {"method": "approx", "space": "logit"}}]
    for i in range(count):
        labels = dict(zip(CHUNK_SCHEMA.names, CHUNK_SCHEMA.level_names(np.arange(2), codes[i]).tolist()))
        row = {"id": f"s{i}", "concepts": labels, "embedding": embeddings[i], "logits": logits[i]}
        if gold[i] >= 0:
            row["gold"] = None if gold[i] == q else int(gold[i])
        samples.append(row)
        name = CHUNK_SCHEMA.names[i % 2]
        ends = {"attribute": name, "from": labels[name], "to": labels[name]}
        pairs.append({"original_id": f"s{i}", "edited_id": f"s{i}", **ends})
        estimate = {"sample_id": f"s{i}", **ends, "effect": effect[i]}
        estimate.update(method="approx", space="logit")
        if i % 3:
            estimate["fallback"] = bool(i % 2)
        effects.append(estimate)
    rows = {"samples": samples, "pairs": pairs, "effects": effects}
    texts = {file: [json.dumps(row) for row in file_rows] for file, file_rows in rows.items()}
    if defective:
        file, defect = draw(st.sampled_from(CHUNK_DEFECTS))
        at = min(draw(st.sampled_from([1022, 1023, 1024, 1025, 2047, 2048])), count - 1)
        at += file == "effects"  # past the meta line
        row = rows[file][at]
        texts[file][at] = defect(row) or json.dumps(row)
    edges = st.sampled_from([1, 1022, 1023, 1024, 1025, 2047, 2048, 2049, 2050])
    for lines in texts.values():
        for at in draw(st.lists(edges, max_size=4)):
            lines.insert(min(at, len(lines)), draw(st.sampled_from(["", " ", "\t"])))
    return {file: "".join(line + "\n" for line in lines) for file, lines in texts.items()}


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


def write_chunked_files(tmp_path_factory, texts):
    root = tmp_path_factory.mktemp("chunks")
    for file, text in texts.items():
        (root / f"{file}.jsonl").write_text(text, encoding="utf-8")
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
def test_chunked_loads_equal_whole_file_reference(tmp_path_factory, texts):
    root = write_chunked_files(tmp_path_factory, texts)
    paths = (root / "samples.jsonl", root / "pairs.jsonl", root / "schema.json")
    assert dataset_bits(load_dataset(*paths)) == dataset_bits(reference_load_dataset(*paths))
    effects, metadata = read_effects(root / "effects.jsonl")
    want, want_metadata = reference_read_effects(root / "effects.jsonl")
    assert effects_bits(effects) == effects_bits(want) and metadata == want_metadata


@settings(max_examples=60, deadline=None)
@given(chunked_files(defective=True))
def test_chunked_load_errors_equal_whole_file_reference(tmp_path_factory, texts):
    root = write_chunked_files(tmp_path_factory, texts)
    paths = (root / "samples.jsonl", root / "pairs.jsonl", root / "schema.json")
    assert load_error(load_dataset, *paths) == load_error(reference_load_dataset, *paths)
    path = root / "effects.jsonl"
    assert load_error(read_effects, path) == load_error(reference_read_effects, path)


# --- global report: the per-level reference ------------------------------------------


def reference_report_csv(model, baseline_class):
    """CSV of the earlier `global_report`, which built the contrasts level by level."""
    q = model.n_outputs
    rows = []
    if q > 1:
        row = 0
        for name, levels in model.schema.attributes:
            if name in model.hidden_attributes:
                continue
            for level in levels:
                coef_row = model.concept_coef[row]
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
