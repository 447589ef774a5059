"""Generator properties: determinism, shared-noise counterfactuals, oracles."""

import json
import tracemalloc

import numpy as np
import pytest

from mcce import (
    ValidationError,
    default_config,
    fit_mcce,
    generate,
    icace,
    load_ground_truth,
    load_synth_config,
    make_pairs,
    oracle_effect,
    save_ground_truth,
    softmax,
    synthesize_sample,
)
from mcce.linalg import lstsq
from mcce.synthetic import _rows


def small_config(**kw):
    kw.setdefault("n", 60)
    kw.setdefault("seed", 1)
    return default_config(**kw)


def test_generate_is_deterministic():
    ds1, t1 = generate(small_config())
    ds2, t2 = generate(small_config())
    assert len(ds1.samples) == 60
    for column in ("ids", "codes", "embeddings", "outputs", "gold"):
        assert np.array_equal(getattr(ds1, column), getattr(ds2, column)), column
    assert np.array_equal(t1.outcome_coef, t2.outcome_coef)
    # different data seed, same parameters
    ds3, _ = generate(small_config(seed=2))
    assert not np.array_equal(ds1.outputs, ds3.outputs)


def test_make_pairs_is_deterministic_and_consistent():
    cfg = small_config()
    ds1, t1 = generate(cfg)
    ds1 = make_pairs(ds1, cfg)
    ds2, t2 = generate(cfg)
    ds2 = make_pairs(ds2, cfg)
    assert np.array_equal(ds1.ids, ds2.ids)
    pairs = ds1.pairs
    assert len(pairs) == 60
    for orig, edited, attr, to in zip(pairs.original, pairs.edited, pairs.attribute, pairs.to):
        assert ds1.codes[edited, attr] == to != ds1.codes[orig, attr]
        others = [a for a in range(4) if a != attr]
        assert np.array_equal(ds1.codes[orig, others], ds1.codes[edited, others])
        level = cfg.schema.levels(cfg.schema.names[attr])[to]
        assert ds1.ids[edited] == ds1.ids[orig] + f"__{cfg.schema.names[attr]}__{level}".encode()


def test_zero_flip_reproduces_sample_exactly():
    cfg = small_config(outcome_noise=0.3, embed_noise=0.2, exact_recovery=False)
    ds, truth = generate(cfg)
    for i in (0, 7, 31):
        for attr in range(4):
            replay = synthesize_sample(cfg, i, edit=(attr, ds.codes[i, attr]))
            codes, embedding, output, clean = replay
            assert np.array_equal(codes, ds.codes[i])
            assert np.array_equal(embedding, ds.embeddings[i])
            assert np.array_equal(output, ds.outputs[i])
            assert np.argmax(clean) == ds.gold[i]


def test_edited_embedding_is_exact_map_contrast():
    # shared embedding noise: the edited-minus-original embedding equals
    # the embedding map applied to the one-hot difference, bit for bit in
    # the noiseless case and to rounding in the noisy one
    cfg = small_config(embed_noise=0.25, exact_recovery=False)
    ds, truth = generate(cfg)
    ds = make_pairs(ds, cfg)
    p = ds.pairs
    delta = ds.embeddings[p.edited] - ds.embeddings[p.original]
    dc = ds.design_matrix(p.edited) - ds.design_matrix(p.original)
    assert np.allclose(delta, dc @ cfg.embed_map.T, atol=1e-12)


def test_icace_equals_oracle_at_zero_output_noise():
    cfg = small_config(outcome_noise=0.0)
    ds, truth = generate(cfg)
    ds = make_pairs(ds, cfg)
    assert np.allclose(icace(ds), oracle_effect(truth, ds, "logit"), atol=1e-12)


def test_icace_equals_oracle_even_with_noise():
    # output noise is shared within a pair, so it cancels in the contrast
    cfg = small_config(outcome_noise=0.8)
    ds, truth = generate(cfg)
    ds = make_pairs(ds, cfg)
    assert np.allclose(icace(ds), oracle_effect(truth, ds, "logit"), atol=1e-10)


def test_oracle_effect_probability_space():
    cfg = small_config(outcome_noise=0.0)
    ds, truth = generate(cfg)
    ds = make_pairs(ds, cfg)
    p = ds.pairs
    want = softmax(ds.outputs[p.edited[:1]])[0] - softmax(ds.outputs[p.original[:1]])[0]
    assert np.allclose(oracle_effect(truth, ds, "probability")[0], want, atol=1e-12)
    # outcome noise 0: the outputs are the clean logits themselves
    logit = ds.outputs[p.edited] - ds.outputs[p.original]
    assert np.array_equal(oracle_effect(truth, ds, "logit"), logit)


def test_confounding_induces_label_correlation():
    def level_idx(truth, ds, cfg, attr):
        return ds.codes[:, cfg.schema.names.index(attr)]

    cfg = default_config(n=5000, seed=11)
    ds, truth = generate(cfg)
    corr = np.corrcoef(
        level_idx(truth, ds, cfg, "ambiance"), level_idx(truth, ds, cfg, "food")
    )[0, 1]
    assert corr > 0.15

    flat = default_config(n=5000, seed=11, confounding=0.0)
    ds0, truth0 = generate(flat)
    corr0 = np.corrcoef(
        level_idx(truth0, ds0, flat, "ambiance"), level_idx(truth0, ds0, flat, "food")
    )[0, 1]
    assert abs(corr0) < 0.05


def test_omitted_variable_bias_is_measurable():
    # regression on visible concepts only drifts from the true contrasts by
    # far more than the full-observation recovery error
    cfg = default_config(n=3000, seed=3, outcome_noise=0.0)
    ds, truth = generate(cfg)

    def contrast_gap(dataset, hidden):
        d = dataset.mask(hidden)
        C = d.design_matrix(d.fit_rows)
        T = d.outputs[d.fit_rows]
        coef = lstsq(C, T).coefficients
        visible = d.schema.visible_mask(d.hidden_attributes)
        ref = truth.outcome_coef[np.repeat(visible, d.schema.sizes)]
        gap = 0.0
        for block in d.schema.visible_blocks(d.hidden_attributes).values():
            est = coef[block]
            want = ref[block]
            gap = max(
                gap,
                float(np.max(np.abs((est - est[0]) - (want - want[0])))),
            )
        return gap

    recovery = contrast_gap(ds, frozenset())
    biased = contrast_gap(ds, frozenset({"ambiance"}))
    assert recovery < 1e-8
    assert biased > 10 * max(recovery, 1e-10)
    assert biased > 0.01


def test_hidden_attribute_fit_residual_vanishes():
    # embedding determines the complete labels, so the pseudo directions
    # absorb the hidden block and the factual fit is exact
    cfg = small_config(n=200, outcome_noise=0.0)
    ds, _ = generate(cfg)
    model = fit_mcce(ds.mask({"ambiance"}))
    assert model.diagnostics["fit_residual_sos"] < 1e-12


def test_config_validation():
    with pytest.raises(ValidationError):
        default_config(n=0)
    with pytest.raises(ValidationError):
        default_config(outcome_noise=-0.1)
    with pytest.raises(ValidationError):
        default_config(embed_noise=0.1)  # exact_recovery needs noiseless embeddings
    with pytest.raises(ValidationError):
        default_config(embed_dim=8)  # rank-deficient map under exact_recovery
    cfg = default_config(embed_dim=8, exact_recovery=False)
    assert cfg.embed_dim == 8


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n": 40, "seed": 9, "edits_per_sample": 2, "hidden": ["noise"]}))
    cfg, edits = load_synth_config(path)
    assert cfg.n == 40 and cfg.seed == 9 and edits == 2
    assert cfg.hidden == frozenset({"noise"})
    ds, truth = generate(cfg)
    assert ds.hidden_attributes == frozenset({"noise"})

    # explicit matrices must all be present together
    path.write_text(json.dumps({"n": 10, "mixing": {}}))
    with pytest.raises(ValidationError):
        load_synth_config(path)
    path.write_text(json.dumps({"n": 10, "edits_per_sample": -1}))
    with pytest.raises(ValidationError):
        load_synth_config(path)


def test_config_file_passes_beta_decay(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n": 10, "beta_decay": 1.0}))
    cfg, _ = load_synth_config(path)
    assert np.array_equal(cfg.outcome_coef, default_config(n=10, beta_decay=1.0).outcome_coef)
    assert not np.array_equal(cfg.outcome_coef, default_config(n=10).outcome_coef)


def test_config_file_rejects_keys_its_form_does_not_accept(tmp_path):
    path = tmp_path / "config.json"
    cfg = small_config()
    explicit = {
        "n": 10,
        "exo_dim": cfg.exo_dim,
        **cfg.schema.to_obj(),
        "mixing": {name: m.tolist() for name, m in cfg.mixing.items()},
        "embed_map": cfg.embed_map.tolist(),
        "outcome_coef": cfg.outcome_coef.tolist(),
    }
    path.write_text(json.dumps(explicit))
    assert np.array_equal(load_synth_config(path)[0].outcome_coef, cfg.outcome_coef)
    for obj, key in (
        ({**explicit, "beta_scale": 0.4}, "beta_scale"),  # a knob of the generated form
        ({"n": 10, "n_clases": 3}, "n_clases"),
        ({"n": 10, "exo_dim": 3}, "exo_dim"),  # a key of the explicit form
    ):
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError, match=f"unknown key '{key}'"):
            load_synth_config(path)


def test_ground_truth_roundtrip(tmp_path):
    cfg = small_config()
    ds, truth = generate(cfg)
    ds = make_pairs(ds, cfg)
    path = tmp_path / "ground_truth.json"
    save_ground_truth(truth, path)
    back = load_ground_truth(path)
    assert np.array_equal(back.outcome_coef, truth.outcome_coef)
    assert np.array_equal(oracle_effect(back, ds, "logit"), oracle_effect(truth, ds, "logit"))
    narrow = load_ground_truth(path)
    narrow.outcome_coef = back.outcome_coef[:-1]
    with pytest.raises(ValidationError, match="'outcome_coef' has 11 rows.* has 12 columns"):
        oracle_effect(narrow, ds, "logit")


def test_make_pairs_refuses_existing_pairs():
    cfg = small_config()
    ds, truth = generate(cfg)
    ds = make_pairs(ds, cfg)
    with pytest.raises(ValidationError):
        make_pairs(ds, cfg)


def test_make_pairs_needs_the_rows_of_generate():
    # make_pairs draws each sample's noise row again from the config's streams
    ds, _ = generate(small_config())
    with pytest.raises(ValidationError, match="^make_pairs needs the 61 rows of generate\\(config\\), got 60$"):
        make_pairs(ds, small_config(n=61))


def test_make_pairs_peak_memory_stays_near_the_rows_it_returns():
    # The rows go straight into the returned arrays, the edited ones a block
    # at a time: about 1.3 times the returned bytes at this size. Building
    # the edited rows whole and then concatenating them with the factual
    # ones peaks at about 2.35 times.
    cfg = default_config(n=3000, seed=4)
    ds, truth = generate(cfg)
    tracemalloc.start()
    try:
        paired = make_pairs(ds, cfg, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    p = paired.pairs
    arrays = (paired.ids, paired.codes, paired.embeddings, paired.outputs, paired.gold,
              p.original, p.edited, p.attribute, p.to)
    assert peak < 1.6 * sum(a.nbytes for a in arrays)


@pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1, 2**32, 2**64 + 3, 2**127, 2**130 + 9])
def test_draws_follow_the_stream_layout(seed):
    # each stream is one matrix draw from its spawn key, row i for sample i
    cfg = small_config(seed=seed)
    ds, truth = generate(cfg)
    ds = make_pairs(ds, cfg, 2)

    def stream(*key):
        return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))

    noise = stream(0, 2).standard_normal((60, cfg.embed_dim + cfg.n_outputs))
    p = ds.pairs
    embeddings, outputs, _ = _rows(cfg, ds.codes[p.edited], noise[p.original])
    assert np.array_equal(ds.embeddings[p.edited], embeddings)
    assert np.array_equal(ds.outputs[p.edited], outputs)
    order = np.argsort(stream(1, 0).random((60, 4)), axis=1, kind="stable")
    assert np.array_equal(p.attribute, order[:, :2].reshape(-1))
    draw = stream(1, 1).integers(cfg.schema.sizes[p.attribute] - 1)
    assert np.array_equal(p.to, draw + (draw >= ds.codes[p.original, p.attribute]))


def test_synthesize_sample_refuses_an_index_outside_the_config():
    cfg = small_config(n=5)
    for index in (-1, 5):
        with pytest.raises(ValidationError, match=r"sample index must be in \[0, 5\)"):
            synthesize_sample(cfg, index)
