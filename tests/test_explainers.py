"""Estimator behavior: exact recovery, decoupling, matching, model IO.

The linear-ground-truth fixtures build H and targets directly from known
coefficient matrices so that every expected value has a closed form that
does not pass through the code under test.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcce import explainers
from mcce import (
    ConceptSchema,
    Dataset,
    Effects,
    MCCEModel,
    SLearnerModel,
    ValidationError,
    build_label_index,
    explain_approx,
    explain_mcce,
    explain_slearner,
    fit_mcce,
    fit_slearner,
    global_report,
    load_model,
    one_hot,
    predict_labels,
    read_effects,
    save_model,
    softmax,
    write_effects,
)
from mcce.linalg import lstsq, max_abs_cross

SCHEMA = ConceptSchema.of([("a", ("x", "y")), ("b", ("u", "v", "w"))])  # width 5


def linear_dataset(n=80, seed=0, q=4, embed_dim=8, noise=0.0, hidden=(), gold=False):
    """Samples with H = C_full @ Bmap.T and targets = C_full @ beta.

    Returns (dataset, beta, Bmap). Bmap has orthonormal columns so each
    level direction is exactly recoverable from the embedding.
    """
    rng = np.random.default_rng(seed)
    width = SCHEMA.width
    Bmap, _ = np.linalg.qr(rng.standard_normal((embed_dim, width)))
    beta = rng.standard_normal((width, q))
    rows = []
    for i in range(n):
        codes = (rng.integers(2), rng.integers(3))
        c = one_hot(SCHEMA, [codes])[0]
        e = Bmap @ c
        y = c @ beta + noise * rng.standard_normal(q)
        g = int(np.argmax(c @ beta)) if gold else -1
        rows.append((codes, e, y, g))
    codes, E, Y, G = (np.array(col) for col in zip(*rows))
    ds = Dataset(SCHEMA, ids(n), codes, E, Y, G, hidden_attributes=frozenset(hidden))
    return ds, beta, Bmap


def ids(n):
    return [f"s{i}" for i in range(n)]


# --- fit_mcce ------------------------------------------------------------

def test_fit_recovers_contrasts_fully_observed():
    ds, beta, _ = linear_dataset()
    model = fit_mcce(ds)
    # raw coefficients are only identified up to per-block constants;
    # compare within-block contrasts
    est, ref = model.concept_coef, beta
    assert np.allclose(est[1] - est[0], ref[1] - ref[0], atol=1e-8)
    assert np.allclose(est[3] - est[2], ref[3] - ref[2], atol=1e-8)
    assert np.allclose(est[4] - est[2], ref[4] - ref[2], atol=1e-8)
    assert model.diagnostics["fit_residual_sos"] < 1e-16


def test_fit_zero_targets_zero_coefficients():
    ds, _, _ = linear_dataset()
    zeros = np.zeros((len(ds.samples), 3))
    model = fit_mcce(ds, targets=zeros)
    assert np.max(np.abs(model.concept_coef)) < 1e-12
    assert np.max(np.abs(model.pseudo_coef)) < 1e-12


def test_fit_hidden_attribute_still_fits_targets_exactly():
    # the embedding carries the hidden block; pseudo-concepts recover it
    ds, beta, _ = linear_dataset(hidden={"a"})
    model = fit_mcce(ds)
    assert model.diagnostics["fit_residual_sos"] < 1e-12
    preds = model.predict(ds.design_matrix(), ds.embeddings)
    targets = ds.outputs
    assert np.max(np.abs(preds - targets)) < 1e-6


def test_fit_orthogonality_diagnostic():
    ds, _, _ = linear_dataset(hidden={"b"}, noise=0.3)
    model = fit_mcce(ds)
    assert model.diagnostics["orthogonality_max"] < 1e-8


def test_fit_decoupling_identity():
    # the decoupled solves must agree with the joint min-norm regression on
    # [C S]; they do because the score columns are orthogonal to the design
    ds, _, _ = linear_dataset(hidden={"a"}, noise=0.2, seed=4)
    model = fit_mcce(ds)
    C = ds.design_matrix(ds.fit_rows)
    H = ds.embeddings[ds.fit_rows]
    T = ds.outputs[ds.fit_rows]
    assert np.allclose(model.concept_coef, lstsq(C, T).coefficients, atol=1e-8)
    S = (H - C @ model.embed_coef) @ model.pseudo_basis
    joint = lstsq(np.hstack([C, S]), T).coefficients
    k = C.shape[1]
    assert np.allclose(joint[:k], model.concept_coef, atol=1e-8)
    assert np.allclose(joint[k:], model.pseudo_coef, atol=1e-8)


def test_fit_pseudo_basis_rotation_invariance():
    # predictions depend on span(pseudo_basis), not the basis itself
    ds, _, _ = linear_dataset(hidden={"a"}, noise=0.1, seed=5)
    model = fit_mcce(ds, n_pseudo=2)
    rng = np.random.default_rng(6)
    Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    rotated = MCCEModel(
        schema=model.schema,
        hidden_attributes=model.hidden_attributes,
        embed_coef=model.embed_coef,
        pseudo_basis=model.pseudo_basis @ Q,
        concept_coef=model.concept_coef,
        pseudo_coef=Q.T @ model.pseudo_coef,
        ridge=model.ridge,
        n_pseudo=model.n_pseudo,
        space=model.space,
        target_kind=model.target_kind,
        diagnostics=model.diagnostics,
    )
    C, E = ds.design_matrix(np.arange(10)), ds.embeddings[:10]
    assert np.allclose(model.predict(C, E), rotated.predict(C, E), atol=1e-8)


def test_fit_interpolation_regime_reproduces_targets():
    # generic full-rank embeddings, n <= k_vis + j: concepts span 4 of the
    # 8 row dimensions, the residual scores span the other 4, so the
    # decoupled projections interpolate the training targets
    rng = np.random.default_rng(7)
    rows = [
        ((rng.integers(2), rng.integers(3)), rng.standard_normal(8), rng.standard_normal(4))
        for _ in range(8)
    ]
    codes, E, Y = (np.array(col) for col in zip(*rows))
    ds = Dataset(SCHEMA, ids(8), codes, E, Y)
    with pytest.warns(UserWarning):
        model = fit_mcce(ds, n_pseudo=5)
    pred = model.predict(ds.design_matrix(), ds.embeddings)
    assert np.allclose(pred, ds.outputs, atol=1e-6)


def test_fit_validation_errors():
    ds, _, _ = linear_dataset(n=20)
    with pytest.raises(ValidationError):
        fit_mcce(ds, n_pseudo=0)
    with pytest.raises(ValidationError):
        fit_mcce(ds, n_pseudo=9)  # > embed_dim 8
    with pytest.raises(ValidationError):
        fit_mcce(ds, ridge=-1.0)
    with pytest.raises(ValidationError):
        fit_mcce(ds, targets=np.zeros((3, 2)))  # row mismatch
    with pytest.raises(ValidationError):
        empty = Dataset(SCHEMA, [], np.zeros((0, 2)), np.zeros((0, 8)), np.zeros((0, 4)))
        fit_mcce(empty)  # nothing to fit
    with pytest.raises(ValidationError):
        fit_mcce(ds, target_kind="gold")  # no gold labels present


def test_fit_gold_targets_one_hot():
    ds, beta, _ = linear_dataset(gold=True)
    model = fit_mcce(ds, target_kind="gold")
    assert model.target_kind == "gold"
    assert model.n_outputs == beta.shape[1]


# --- explain_mcce ----------------------------------------------------------

def test_explain_effect_matches_coefficient_contrast():
    # noiseless linear ground truth: effect must equal the beta contrast
    ds, beta, _ = linear_dataset(seed=8)
    model = fit_mcce(ds)
    current = ds.codes[0, 1]
    effects = explain_mcce(model, ds, 0, 1, [0, 1, 2])  # b -> u, v, w
    for to, eff in enumerate(effects):
        want = beta[2 + to] - beta[2 + current]
        assert np.allclose(eff, want, atol=1e-6)


def test_explain_closed_form_identity():
    # effect = dc @ concept_coef - (dc @ embed_coef @ basis) @ pseudo_coef
    #          + (factual fit residual)
    ds, _, _ = linear_dataset(hidden={"a"}, noise=0.4, seed=9)
    model = fit_mcce(ds)
    rows, to = np.repeat(np.arange(20), 3), np.tile(np.arange(3), 20)
    c = ds.design_matrix(rows)
    c2 = c.copy()
    c2[:, 0:3] = np.eye(3)[to]  # b is the only visible block
    dc = c2 - c
    fit_resid = model.predict(c, ds.embeddings[rows]) - ds.outputs[rows]
    closed = (
        dc @ model.concept_coef
        - (dc @ model.embed_coef @ model.pseudo_basis) @ model.pseudo_coef
        + fit_resid
    )
    assert np.allclose(explain_mcce(model, ds, rows, 1, to), closed, atol=1e-8)


def test_explain_null_intervention_is_fit_residual():
    ds, _, _ = linear_dataset(noise=0.3, seed=10)
    model = fit_mcce(ds)
    eff = explain_mcce(model, ds, 0, 1, ds.codes[0, 1])
    resid = model.predict(ds.design_matrix([0]), ds.embeddings[:1]) - ds.outputs[:1]
    assert np.allclose(eff, resid, atol=1e-12)


def test_explain_rejects_hidden_or_unknown():
    ds, _, _ = linear_dataset(hidden={"a"})
    model = fit_mcce(ds)
    with pytest.raises(ValidationError):
        explain_mcce(model, ds, 0, 0, 1)  # a is hidden
    with pytest.raises(ValidationError):
        explain_mcce(model, ds, 0, 1, 3)  # b has three levels
    with pytest.raises(ValidationError):
        explain_mcce(model, ds, 0, 2, 0)  # no third attribute


@pytest.mark.parametrize(
    "fit, explain", [(fit_mcce, explain_mcce), (fit_slearner, explain_slearner)]
)
def test_explainers_reject_a_dataset_in_the_other_space(fit, explain):
    logit, _, _ = linear_dataset(noise=0.2, seed=20)
    probability = logit.to_space("probability")
    for fitted_on, other in ((logit, probability), (probability, logit)):
        model = fit(fitted_on)
        assert explain(model, fitted_on, [0, 1], 1, 2).shape == (2, 4)
        with pytest.raises(ValidationError, match=f"fit in '{fitted_on.space}' space"):
            explain(model, other, [0, 1], 1, 2)


# --- s-learner ---------------------------------------------------------------

def test_slearner_uniform_targets_stop_immediately():
    ds, _, _ = linear_dataset(n=30)
    uniform = np.full((30, 4), 0.25)
    model = fit_slearner(ds, targets=uniform)
    assert model.iterations == 0
    assert np.max(np.abs(model.weights)) == 0.0
    probs = model.predict_proba(ds.design_matrix([0]))
    assert np.allclose(probs, 0.25, atol=1e-12)


def _augmented(ds):
    X = ds.design_matrix(ds.fit_rows)
    return np.hstack([X, np.ones((X.shape[0], 1))])


def _gradient_descent_reference(Xa, T, tol=1e-11, max_steps=200_000):
    """Plain full-batch gradient descent from zero; returns the fitted distributions.

    The step 2 / lambda_max(Xa'Xa / n) is the inverse of Boehning's bound
    on the Hessian, so every step descends.
    """
    n = Xa.shape[0]
    lr = 2.0 / np.linalg.eigvalsh(Xa.T @ Xa / n)[-1]
    Wa = np.zeros((Xa.shape[1], T.shape[1]))
    for _ in range(max_steps):
        G = Xa.T @ (softmax(Xa @ Wa) - T) / n
        if np.max(np.abs(G)) < tol:
            return softmax(Xa @ Wa)
        Wa -= lr * G
    raise AssertionError("gradient-descent reference did not converge")


@st.composite
def soft_label_problems(draw):
    """A random one-hot schema, labels drawn on it, and random soft-label targets."""
    level_counts = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    q = draw(st.integers(2, 4))
    n = draw(st.integers(20, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    schema = ConceptSchema.of(
        (f"a{i}", tuple(f"l{j}" for j in range(count))) for i, count in enumerate(level_counts)
    )
    codes = [[rng.integers(len(levels)) for _, levels in schema.attributes] for _ in range(n)]
    targets = softmax(rng.normal(scale=draw(st.floats(0.1, 3.0)), size=(n, q)))
    return Dataset(schema, ids(n), codes, np.zeros((n, 1)), np.zeros((n, q))), targets


@settings(max_examples=25, deadline=None)
@given(soft_label_problems())
def test_slearner_newton_converges_to_gradient_descent_optimum(problem):
    ds, T = problem
    model = fit_slearner(ds, targets=T)
    assert model.converged
    Xa = _augmented(ds)
    Wa = np.vstack([model.weights, model.bias])
    P = softmax(Xa @ Wa)
    grad = Xa.T @ (P - T) / len(T)
    assert np.max(np.abs(grad)) < 1e-7
    assert model.grad_norm < 1e-7
    assert np.max(np.abs(P - _gradient_descent_reference(Xa, T))) < 1e-5


def test_slearner_reports_iteration_cap(monkeypatch):
    ds, _, _ = linear_dataset(noise=0.2, seed=16)
    monkeypatch.setattr(explainers, "SLEARNER_MAX_ITER", 1)
    with pytest.warns(UserWarning, match="S-Learner fit stopped"):
        model = fit_slearner(ds)
    assert model.converged is False
    assert model.iterations == 1
    assert model.grad_norm >= explainers.SLEARNER_GRAD_TOL


def test_slearner_fits_concept_determined_distribution():
    # targets depend on concepts only -> the logistic model can match them
    rng = np.random.default_rng(14)
    W = rng.standard_normal((SCHEMA.width, 3))
    codes = [(rng.integers(2), rng.integers(3)) for _ in range(200)]
    C = one_hot(SCHEMA, codes)
    ds = Dataset(SCHEMA, ids(200), codes, np.zeros((200, 2)), C @ W)
    model = fit_slearner(ds)
    want = softmax(C[:20] @ W)
    got = model.predict_proba(C[:20])
    assert np.max(np.abs(got - want)) < 0.01


def test_slearner_effect_space_and_null_intervention():
    ds, _, _ = linear_dataset(noise=0.2, seed=15)
    model = fit_slearner(ds)
    eff = explain_slearner(model, ds, 0, 1, ds.codes[0, 1])
    want = model.predict_proba(ds.design_matrix([0])) - softmax(ds.outputs[:1])
    assert np.allclose(eff, want, atol=1e-12)


def test_slearner_rejects_bad_probability_targets():
    ds, _, _ = linear_dataset(n=10)
    bad = np.full((10, 4), 0.3)  # rows do not sum to 1
    with pytest.raises(ValidationError):
        fit_slearner(ds, targets=bad)


# --- approx ------------------------------------------------------------------

def approx_dataset():
    # rows q (x, u), m1 (x, v), m2 (x, v), far (y, w)
    outputs = [(0.0, 0.0), (1.0, 2.0), (3.0, 4.0), (9.0, 9.0)]
    codes = [(0, 0), (0, 1), (0, 1), (1, 2)]
    return Dataset(SCHEMA, ["q", "m1", "m2", "far"], codes, np.zeros((4, 1)), outputs)


def test_approx_exact_match_is_bitwise_icace():
    ds = approx_dataset()
    rng_hits = set()
    for seed in range(100):
        eff = explain_approx(ds, 0, 1, 1, seed=seed)  # q with b -> v
        assert eff.fallback is False
        # effect must be exactly output(match) - output(q), bit for bit
        assert eff.effect.tolist() in ([1.0, 2.0], [3.0, 4.0])
        rng_hits.add(tuple(eff.effect.tolist()))
    assert len(rng_hits) == 2  # both candidates get sampled across seeds


def test_approx_is_deterministic_per_seed():
    ds = approx_dataset()
    a = explain_approx(ds, 0, 1, 1, seed=123)
    b = explain_approx(ds, 0, 1, 1, seed=123)
    assert np.array_equal(a.effect, b.effect)


def test_approx_fallback_flag_and_min_hamming():
    ds = approx_dataset()
    # no sample has (a=x, b=w): nearest by visible Hamming is "far"? no:
    # m1/m2 (a=x, b=v) differ only in b -> distance 1; far (y,w) differs in a -> 1.
    # all three tie at distance 1; the winner must be one of them
    eff = explain_approx(ds, 0, 1, 2, seed=0)
    assert eff.fallback is True
    assert eff.effect.tolist() in ([1.0, 2.0], [3.0, 4.0], [9.0, 9.0])


def test_approx_prebuilt_index_matches():
    ds = approx_dataset()
    idx = build_label_index(ds)
    a = explain_approx(ds, 0, 1, 1, seed=7)
    b = explain_approx(ds, 0, 1, 1, seed=7, index=idx)
    assert np.array_equal(a.effect, b.effect)


def test_approx_hidden_edit_degrades_to_visible_profile():
    ds = approx_dataset().mask({"b"})
    # editing the hidden attribute: match on visible labels only (a=x)
    eff = explain_approx(ds, 0, 1, 1, seed=3)
    assert eff.fallback is False
    assert eff.effect.tolist() in ([1.0, 2.0], [3.0, 4.0])


def test_approx_errors():
    ds = approx_dataset()
    with pytest.raises(ValidationError):
        explain_approx(ds, 0, 1, 3, seed=0)  # b has three levels
    with pytest.raises(ValidationError):
        explain_approx(ds, 0, 2, 0, seed=0)  # no third attribute
    with pytest.raises(ValidationError):
        explain_approx(ds, 4, 1, 1, seed=0)  # four rows
    with pytest.raises(ValidationError):
        explain_approx(ds, 0, 1.0, 1, seed=0)  # indices are integers


# --- global report / predictor ------------------------------------------------

def test_global_report_baseline_column_zero():
    ds, _, _ = linear_dataset(seed=16)
    model = fit_mcce(ds)
    for base in range(4):
        rep = global_report(model, base)
        M = rep.matrix()
        assert M.shape == (5, 4)
        assert np.max(np.abs(M[:, base])) == 0.0


def test_global_report_invariant_to_block_shifts():
    ds, _, _ = linear_dataset(seed=17)
    model = fit_mcce(ds)
    rep = global_report(model, 0)
    shifted_coef = model.concept_coef.copy()
    shifted_coef[0:2] += 3.7
    shifted_coef[2:5] -= 1.2
    shifted = MCCEModel(
        schema=model.schema,
        hidden_attributes=model.hidden_attributes,
        embed_coef=model.embed_coef,
        pseudo_basis=model.pseudo_basis,
        concept_coef=shifted_coef,
        pseudo_coef=model.pseudo_coef,
        ridge=model.ridge,
        n_pseudo=model.n_pseudo,
        space=model.space,
        target_kind=model.target_kind,
        diagnostics=model.diagnostics,
    )
    rep2 = global_report(shifted, 0)
    # contrasts against the baseline class are shift-invariant per class,
    # not per block; rows change but row DIFFERENCES within a block do not
    m1, m2 = rep.matrix(), rep2.matrix()
    assert np.allclose(m1[1] - m1[0], m2[1] - m2[0], atol=1e-12)
    assert np.allclose(m1[3] - m1[2], m2[3] - m2[2], atol=1e-12)


def test_global_report_csv_and_errors():
    ds, _, _ = linear_dataset(seed=18)
    model = fit_mcce(ds)
    rep = global_report(model, 1)
    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == "attribute,level,class_0,class_1,class_2,class_3"
    assert len(lines) == 6  # header + 5 visible levels
    with pytest.raises(ValidationError):
        global_report(model, 4)
    with pytest.raises(ValidationError):
        global_report(model, -1)
    slearner = fit_slearner(ds)
    with pytest.raises(ValidationError):
        global_report(slearner, 0)


def test_predict_labels_recovers_separable_gold():
    ds, _, _ = linear_dataset(gold=True, seed=19)
    model = fit_mcce(ds, target_kind="gold")
    preds = predict_labels(model, ds)
    assert np.array_equal(preds, ds.gold)


def test_predict_labels_requires_gold_mode():
    ds, _, _ = linear_dataset(gold=True, seed=20)
    model = fit_mcce(ds)  # output targets
    with pytest.raises(ValidationError):
        predict_labels(model, ds)


# --- model and effects IO -------------------------------------------------------

def test_model_roundtrip_mcce(tmp_path):
    ds, _, _ = linear_dataset(hidden={"a"}, noise=0.1, seed=21)
    model = fit_mcce(ds, ridge=0.01)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert isinstance(back, MCCEModel)
    assert back.schema == model.schema
    assert back.hidden_attributes == model.hidden_attributes
    assert back.space == model.space and back.target_kind == model.target_kind
    for field in ("embed_coef", "pseudo_basis", "concept_coef", "pseudo_coef"):
        assert np.array_equal(getattr(back, field), getattr(model, field))
    C, E = ds.design_matrix([0]), ds.embeddings[:1]
    assert np.array_equal(back.predict(C, E), model.predict(C, E))


def test_model_roundtrip_slearner(tmp_path):
    ds, _, _ = linear_dataset(n=30, seed=22)
    model = fit_slearner(ds)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert isinstance(back, SLearnerModel)
    assert np.array_equal(back.weights, model.weights)
    assert np.array_equal(back.bias, model.bias)
    assert back.converged is True and back.grad_norm == model.grad_norm
    assert back.iterations == model.iterations and back.final_loss == model.final_loss


def test_load_model_accepts_slearner_file_without_convergence_fields(tmp_path):
    ds, _, _ = linear_dataset(n=30, seed=22)
    path = tmp_path / "model.json"
    save_model(fit_slearner(ds), path)
    obj = json.loads(path.read_text())
    del obj["converged"], obj["grad_norm"]
    path.write_text(json.dumps(obj))
    back = load_model(path)
    assert back.converged is None and back.grad_norm is None
    assert np.array_equal(back.weights, fit_slearner(ds).weights)
    save_model(back, path)  # an unknown state stays unknown, not invented
    assert load_model(path).converged is None


def test_load_model_rejects_non_finite_tokens(tmp_path):
    ds, _, _ = linear_dataset(n=30, seed=22)
    path = tmp_path / "model.json"
    save_model(fit_slearner(ds), path)
    obj = json.loads(path.read_text())
    obj["final_loss"] = float("nan")
    path.write_text(json.dumps(obj))  # json.dumps writes the bare NaN token
    with pytest.raises(ValidationError, match="non-finite"):
        load_model(path)


def test_load_model_rejects_tampered_shapes(tmp_path):
    ds, _, _ = linear_dataset(n=30, seed=23)
    path = tmp_path / "model.json"
    save_model(fit_mcce(ds), path)
    obj = json.loads(path.read_text())
    obj["concept_coef"] = [[1.0, 2.0]]
    path.write_text(json.dumps(obj))
    with pytest.raises(ValidationError):
        load_model(path)
    path.write_text("{\"kind\": \"banana\"}")
    with pytest.raises(ValidationError):
        load_model(path)


def current_b_effects(ds, model, rows):
    """mcce Effects for setting attribute b of `rows` to u."""
    effect = explain_mcce(model, ds, rows, 1, 0)
    from_level = [SCHEMA.levels("b")[c] for c in ds.codes[rows, 1]]
    m = len(rows)
    return Effects(ds.ids[rows], ["b"] * m, from_level, ["u"] * m, effect, "mcce", "logit")


def test_effects_roundtrip(tmp_path):
    ds, _, _ = linear_dataset(seed=24)
    model = fit_mcce(ds)
    effects = current_b_effects(ds, model, np.arange(5))
    path = tmp_path / "effects.jsonl"
    write_effects(path, effects, {"method": "mcce", "space": "logit", "seed": 0})
    back, meta = read_effects(path)
    assert meta["method"] == "mcce" and meta["seed"] == 0
    assert len(back) == 5
    for column in ("sample_id", "attribute", "from_level", "to_level", "effect"):
        assert np.array_equal(getattr(effects, column), getattr(back, column)), column
    assert not back.fallback.any()
    first_line = path.read_text().splitlines()[0]
    assert json.loads(first_line).keys() == {"meta"}


def test_read_effects_rejects_non_finite_tokens(tmp_path):
    ds, _, _ = linear_dataset(seed=24)
    model = fit_mcce(ds)
    path = tmp_path / "effects.jsonl"
    write_effects(path, current_b_effects(ds, model, np.arange(1)), {"method": "mcce"})
    meta, row = path.read_text().splitlines()
    obj = json.loads(row)
    obj["effect"][0] = float("inf")
    path.write_text(meta + "\n" + json.dumps(obj) + "\n")  # bare Infinity token
    with pytest.raises(ValidationError, match="non-finite"):
        read_effects(path)
