"""Property tests over random schemas, masks and edits.

The references here are written per row, on label names, the way the
batched code is not: a one-hot vector built level by level, an edit as
a changed label, and the closed-form mcce effect of one edit.
"""

import warnings

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mcce import (
    ConceptSchema,
    Dataset,
    EditPairs,
    Effects,
    SLearnerModel,
    default_config,
    explain_mcce,
    explain_slearner,
    fit_mcce,
    generate,
    get_distance,
    icace_error,
    load_dataset,
    make_pairs,
    read_effects,
    save_dataset,
    softmax,
    write_effects,
)


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
