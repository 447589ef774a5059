"""Estimator behavior: exact recovery, decoupling, matching, model IO.

The linear-ground-truth fixtures build H and targets directly from known
coefficient matrices so that every expected value has a closed form that
does not pass through the code under test.
"""

import json
import warnings
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from mcce.linalg import RANK_RTOL, lstsq, max_abs_cross, truncated_svd

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
    ds = Dataset(ds.schema, ds.ids, ds.codes, ds.embeddings, np.zeros((len(ds), 3)))
    model = fit_mcce(ds)
    assert np.max(np.abs(model.concept_coef)) < 1e-12
    assert np.all(np.abs(model.pseudo_coef) < 1e-12)


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


def five_svd_fit(dataset, j):
    """fit_mcce's solves as they were, in five SVDs, on j residual directions: (embed solve,
    basis, concept solve, pseudo solve or None when j is 0).

    The design is factored twice (the embedding and the target solves),
    then the residual, the scores in their own solve, and the embeddings
    for the spectral norm under the noise floor, which every kept
    direction must clear.
    """
    rows = dataset.fit_rows
    C, H, T = dataset.design_matrix(rows), dataset.embeddings[rows], dataset.outputs[rows]
    embed = lstsq(C, H)
    R = H - C @ embed.coefficients
    basis, s = truncated_svd(R)
    assert np.all(s[:j] > RANK_RTOL * np.linalg.norm(H, 2))
    basis = basis[:, :j]
    return embed, basis, lstsq(C, T), lstsq(R @ basis, T) if j else None


@st.composite
def fit_problems(draw):
    """(dataset, n_pseudo): a hidden attribute in the embeddings, noisy or not.

    Without noise the residual has the hidden block's rank, so any larger
    n_pseudo keeps only that many directions. n_pseudo may be None, the
    default, or 0, the observed concepts alone.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(2, 4), min_size=2, max_size=3))
    schema = ConceptSchema.of((f"a{i}", tuple(f"l{j}" for j in range(m))) for i, m in enumerate(sizes))
    n, d, q = draw(st.integers(12, 60)), draw(st.integers(2, 10)), draw(st.integers(1, 3))
    codes = np.column_stack([rng.integers(m, size=n) for m in sizes])
    noise = draw(st.sampled_from([0.0, 0.1]))
    H = one_hot(schema, codes) @ rng.standard_normal((schema.width, d))
    H += noise * rng.standard_normal((n, d))
    dataset = Dataset(schema, ids(n), codes, H, rng.standard_normal((n, q)), hidden_attributes={"a0"})
    return dataset, draw(st.none() | st.integers(0, min(n, d)))


@settings(max_examples=100, deadline=None)
@given(fit_problems())
def test_fit_equals_the_five_svd_reference(problem):
    dataset, n_pseudo = problem
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the interpolation and pseudo-concept count warnings
        model = fit_mcce(dataset, n_pseudo=n_pseudo)
    j = model.n_pseudo
    assert n_pseudo is None or j <= n_pseudo
    embed, basis, observed, pseudo = five_svd_fit(dataset, j)
    pairs = [(model.embed_coef, embed.coefficients), (model.pseudo_basis, basis),
             (model.concept_coef, observed.coefficients)]
    if j:
        pairs.append((model.pseudo_coef, pseudo.coefficients))
        assert pseudo.effective_rank == j
    assert model.pseudo_coef.shape == (j, dataset.outputs.shape[1])
    for got, want in pairs:
        scale = max(1.0, np.max(np.abs(want), initial=0.0))
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-9 * scale
    assert model.diagnostics["design_rank"] == observed.effective_rank


def test_fit_takes_two_svds(monkeypatch):
    # every SVD and QR in numpy.linalg, norm(x, 2)'s SVD included, calls its module's function
    module = np.linalg._linalg if hasattr(np.linalg, "_linalg") else np.linalg.linalg
    svd, qr, shapes, qr_calls = module.svd, module.qr, [], []

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    def counting_qr(a, mode="reduced"):
        qr_calls.append((np.shape(a), mode))
        return qr(a, mode)

    ds, _, _ = linear_dataset(hidden={"a"}, noise=0.1)  # its embedding map takes a QR
    for namespace in (module, np.linalg):
        monkeypatch.setattr(namespace, "svd", counting)
        monkeypatch.setattr(namespace, "qr", counting_qr)
    fit_mcce(ds)
    # the design, then the embedding residual's triangular factor: no (80, 8) left factor
    assert shapes == [(80, 3), (8, 8)]
    assert qr_calls == [((80, 8), "r")]


def test_fit_pseudo_basis_rotation_invariance():
    # predictions depend on span(pseudo_basis), not the basis itself
    ds, _, _ = linear_dataset(hidden={"b"}, noise=0.1, seed=5)  # b's 3 levels: rank 2
    model = fit_mcce(ds, n_pseudo=2)
    assert model.n_pseudo == 2
    rng = np.random.default_rng(6)
    Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    rotated = MCCEModel(
        schema=model.schema,
        hidden_attributes=model.hidden_attributes,
        embed_coef=model.embed_coef,
        pseudo_basis=model.pseudo_basis @ Q,
        concept_coef=model.concept_coef,
        pseudo_coef=Q.T @ model.pseudo_coef,
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


@pytest.mark.parametrize("n_pseudo", [None, 5])
def test_fit_keeps_no_direction_at_rounding_scale(n_pseudo, tmp_path):
    # noiseless embeddings: hiding a (2 levels) leaves a rank-1 residual and
    # hiding nothing a residual of rounding error, so a model keeps 1 and 0,
    # and an n_pseudo of 5 says it was cut
    for hidden, rank in (({"a"}, 1), ((), 0)):
        ds, _, _ = linear_dataset(hidden=hidden, seed=3)
        cut = f"asks for 5 pseudo-concepts but keeps {rank}: only {rank} .* rounding floor"
        with pytest.warns(UserWarning, match=cut) if n_pseudo else nullcontext():
            model = fit_mcce(ds, n_pseudo=n_pseudo)
        assert model.n_pseudo == rank
        assert model.pseudo_basis.shape == (8, rank) and model.pseudo_coef.shape == (rank, 4)
        assert np.all(np.linalg.norm(model.pseudo_basis, axis=0) > 0.99)
        back = load_model(save_model(model, tmp_path / "model.json"))
        assert back.pseudo_basis.shape == (8, rank) and back.pseudo_coef.shape == (rank, 4)
        C, E = ds.design_matrix(), ds.embeddings
        assert np.array_equal(back.predict(C, E), model.predict(C, E))
        assert np.allclose(model.predict(C, E), ds.outputs, atol=1e-8)  # exact either way


def test_fit_default_counts_only_the_directions_a_wide_residual_can_take():
    # n = 40 rows of d = 60 noisy dimensions: the residual is orthogonal to
    # the 2 design columns, so 2 of its 40 singular values are structurally
    # zero. Only the other 38 can hold noise, and b's 3 levels add rank 2.
    ds, _, _ = linear_dataset(n=40, embed_dim=60, seed=4)
    noisy = ds.embeddings + 0.01 * np.random.default_rng(4).standard_normal(ds.embeddings.shape)
    ds = Dataset(ds.schema, ds.ids, ds.codes, noisy, ds.outputs, hidden_attributes={"b"})
    model = fit_mcce(ds)
    assert model.diagnostics["design_rank"] == 2 and model.n_pseudo == 2


def test_fit_without_pseudo_concepts_is_the_observed_regression():
    # n_pseudo=0 is the no-pseudo ablation: the hidden attribute's signal stays in the residual
    ds, _, _ = linear_dataset(hidden={"a"}, noise=0.1, seed=8)
    with pytest.warns(UserWarning, match="keeps 0 of the"):
        model = fit_mcce(ds, n_pseudo=0)
    C, T = ds.design_matrix(ds.fit_rows), ds.outputs[ds.fit_rows]
    assert model.n_pseudo == 0
    assert np.allclose(model.concept_coef, lstsq(C, T).coefficients, atol=1e-10)
    assert model.pseudo_basis.shape == (8, 0) and model.pseudo_coef.shape == (0, 4)
    assert np.array_equal(model.effective_coef, model.concept_coef)


def test_fit_validation_errors():
    ds, _, _ = linear_dataset(n=20)
    with pytest.raises(ValidationError):
        fit_mcce(ds, n_pseudo=-1)
    with pytest.raises(ValidationError):
        fit_mcce(ds, n_pseudo=9)  # > embed_dim 8
    with pytest.raises(ValidationError):
        fit_mcce(ds, n_pseudo=True)  # a bool is no count
    with pytest.raises(ValidationError):
        empty = Dataset(SCHEMA, [], np.zeros((0, 2)), np.zeros((0, 8)), np.zeros((0, 4)))
        fit_mcce(empty)  # nothing to fit
    with pytest.raises(ValidationError):
        fit_mcce(ds, target_kind="gold")  # no gold labels present
    with pytest.raises(ValidationError, match="^the embeddings have no column; mcce needs at least one$"):
        fit_mcce(ds.keep(columns=("outputs",)))


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


@pytest.mark.parametrize("block", [512, explainers._EDIT_BLOCK])
@pytest.mark.parametrize("fit, explain", [(fit_mcce, explain_mcce), (fit_slearner, explain_slearner)])
def test_explain_in_blocks_equals_one_block(monkeypatch, fit, explain, block):
    # 10000 edits, a block of rows at a time, give each edit the bits of one product over all
    ds, _, _ = linear_dataset(n=300, noise=0.3, seed=12, hidden={"a"})
    model = fit(ds)
    rng = np.random.default_rng(12)
    rows, to = rng.integers(300, size=10_000), rng.integers(3, size=10_000)
    monkeypatch.setattr(explainers, "_EDIT_BLOCK", 1 << 20)
    whole = explain(model, ds, rows, 1, to)
    monkeypatch.setattr(explainers, "_EDIT_BLOCK", block)
    blocked = explain(model, ds, rows, 1, to)
    assert whole.shape == (10_000, 4) and whole.tobytes() == blocked.tobytes()


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
    model = fit_slearner(Dataset(SCHEMA, ds.ids, ds.codes, ds.embeddings, uniform, space="probability"))
    assert model.iterations == 0
    assert np.max(np.abs(model.weights)) == 0.0
    probs = model.predict_proba(ds.design_matrix([0]))
    assert np.allclose(probs, 0.25, atol=1e-12)


def _augmented(ds):
    X = ds.design_matrix(ds.fit_rows)
    return np.hstack([X, np.ones((X.shape[0], 1))])


def _gradient_descent_reference(Xa, T, tol=1e-11, max_steps=200_000):
    """Nesterov-accelerated full-batch gradient descent from zero; returns the fitted distributions.

    The step 2 / lambda_max(Xa'Xa / n) is the inverse of Boehning's bound
    on the Hessian, the gradient's Lipschitz constant, and the momentum
    of step k is k / (k + 3). Each iterate is a sum of gradients, so it
    stays in the span that plain descent from zero explores. Plain
    descent needs 1.3 million steps on `_slow_descent_problem`; this
    needs about 21 thousand.
    """
    n = Xa.shape[0]
    lr = 2.0 / np.linalg.eigvalsh(Xa.T @ Xa / n)[-1]
    Wa = Ya = np.zeros((Xa.shape[1], T.shape[1]))
    for k in range(max_steps):
        G = Xa.T @ (softmax(Xa @ Ya) - T) / n
        if np.max(np.abs(G)) < tol:
            return softmax(Xa @ Ya)
        step = Ya - lr * G
        Wa, Ya = step, step + k / (k + 3) * (step - Wa)
    raise AssertionError("gradient-descent reference did not converge")


@st.composite
def soft_label_problems(draw):
    """(dataset, targets): random soft-label targets on labels drawn from a random schema.

    The dataset holds the targets as its probability-space outputs.
    """
    level_counts = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    q = draw(st.integers(2, 4))
    n = draw(st.integers(20, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    schema = ConceptSchema.of(
        (f"a{i}", tuple(f"l{j}" for j in range(count))) for i, count in enumerate(level_counts)
    )
    codes = [[rng.integers(len(levels)) for _, levels in schema.attributes] for _ in range(n)]
    targets = softmax(rng.normal(scale=draw(st.floats(0.1, 3.0)), size=(n, q)))
    return Dataset(schema, ids(n), codes, np.zeros((n, 1)), targets, space="probability"), targets


def _slow_descent_problem():
    """A soft_label_problems draw, levels (4, 2, 2), on which plain gradient descent creeps.

    Row 5, the only row with a0 = l3, targets class 3 with probability
    1.4e-4, so the loss curves only about that much over n along that
    level's coefficient.
    """
    schema = ConceptSchema.of([("a0", ("l0", "l1", "l2", "l3")), ("a1", ("l0", "l1")),
                               ("a2", ("l0", "l1"))])
    codes = np.array([
        [2, 2, 2, 2, 1, 3, 0, 1, 1, 0, 1, 1, 2, 0, 2, 1, 0, 0, 1, 0],
        [0, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 0, 1, 1, 0, 1, 1],
        [0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 1, 1],
    ]).T
    targets = softmax(np.random.default_rng(0).normal(scale=3.0, size=(20, 4)))  # down to 7e-5
    row = np.array([0.0062, 0.96, 0.030, 0.00014])
    targets[5] = row / row.sum()
    return Dataset(schema, ids(20), codes, np.zeros((20, 1)), targets, space="probability"), targets


@settings(max_examples=25, deadline=None)
@given(soft_label_problems())
@example(_slow_descent_problem())
def test_slearner_newton_converges_to_gradient_descent_optimum(problem):
    ds, T = problem
    model = fit_slearner(ds)
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
    with pytest.raises(ValidationError, match="not probability rows"):
        fit_slearner(Dataset(SCHEMA, ds.ids, ds.codes, ds.embeddings, bad, space="probability"))


# --- approx ------------------------------------------------------------------

def approx_dataset():
    # rows q (x, u), m1 (x, v), m2 (x, v), far (y, w)
    outputs = [(0.0, 0.0), (1.0, 2.0), (3.0, 4.0), (9.0, 9.0)]
    codes = [(0, 0), (0, 1), (0, 1), (1, 2)]
    return Dataset(SCHEMA, ["q", "m1", "m2", "far"], codes, np.zeros((4, 1)), outputs)


def test_approx_exact_match_is_bitwise_icace():
    ds = approx_dataset()
    seeds = np.arange(100, dtype=np.uint64) * np.uint64(2**64 // 100)
    est = explain_approx(ds, 0, 1, 1, seeds)  # q with b -> v, under 100 seeds
    assert not est.flags.any() and est.fallback == 0
    # each effect is exactly output(match) - output(q), bit for bit
    assert {tuple(row) for row in est.effect.tolist()} == {(1.0, 2.0), (3.0, 4.0)}


def test_approx_is_deterministic_per_seed():
    ds = approx_dataset()
    a = explain_approx(ds, [0, 0], 1, 1, [123, 2**64 - 5])
    b = explain_approx(ds, [0, 0], 1, 1, [123, 2**64 - 5])
    assert np.array_equal(a.effect, b.effect)


def test_approx_pins_the_multiply_shift_at_the_top_of_the_seed_range():
    """Seeds that float64 rounds up would pick past the last candidate or the wrong one."""
    ds = approx_dataset()
    seeds = [2**63 - 1, 2**63, 2**64 - 1, 3 * 2**62 - 1, 2**64 - 1]
    est = explain_approx(ds, 0, 1, [1, 1, 1, 2, 2], seeds)
    # candidates m1, m2 for b -> v; for b -> w no row matches, and all four are at distance 1
    assert est.effect.tolist() == [[1.0, 2.0], [3.0, 4.0], [3.0, 4.0], [3.0, 4.0], [9.0, 9.0]]
    assert est.flags.tolist() == [False, False, False, True, True]
    assert est.fallback == 2


def test_approx_fallback_flag_and_min_hamming():
    ds = approx_dataset()
    # no sample has (a=x, b=w); q, m1 and m2 differ from it in b, far in a: all at distance 1
    est = explain_approx(ds, 0, 1, 2, np.arange(64, dtype=np.uint64) << np.uint64(58))
    assert est.flags.all() and est.fallback == 64
    assert {tuple(row) for row in est.effect.tolist()} == {(0.0, 0.0), (1.0, 2.0), (3.0, 4.0), (9.0, 9.0)}


def test_approx_prebuilt_index_matches():
    ds = approx_dataset()
    idx = build_label_index(ds)
    a = explain_approx(ds, [0, 0, 3], [1, 1, 0], [1, 2, 0], 7)
    b = explain_approx(ds, [0, 0, 3], [1, 1, 0], [1, 2, 0], 7, index=idx)
    assert np.array_equal(a.effect, b.effect) and np.array_equal(a.flags, b.flags)


def test_approx_hidden_edit_degrades_to_visible_profile():
    ds = approx_dataset().mask({"b"})
    # editing the hidden attribute: match on visible labels only (a=x)
    est = explain_approx(ds, 0, 1, 1, [0, 2**63, 2**64 - 1])
    assert not est.flags.any()
    assert est.effect.tolist() == [[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]]


def test_approx_errors():
    ds = approx_dataset()
    with pytest.raises(ValidationError):
        explain_approx(ds, 0, 1, 3, 0)  # b has three levels
    with pytest.raises(ValidationError):
        explain_approx(ds, 0, 2, 0, 0)  # no third attribute
    with pytest.raises(ValidationError):
        explain_approx(ds, 4, 1, 1, 0)  # four rows
    with pytest.raises(ValidationError):
        explain_approx(ds, 0, 1.0, 1, 0)  # indices are integers
    with pytest.raises(ValidationError):
        explain_approx(ds, [0, 1], 1, 1, [0, 1, 2])  # one seed per edit
    with pytest.raises(ValidationError):
        explain_approx(ds, 0, 1, 1, 0.5)  # seeds are integers
    with pytest.raises(ValidationError):
        explain_approx(ds, 0, 1, 1, np.array([1.0]))
    with pytest.raises(ValidationError):
        explain_approx(ds, [0, 0], 1, 1, np.array([3, -1]))  # a negative seed would wrap
    with pytest.raises(ValidationError):
        explain_approx(ds, 0, 1, 1, [2**64])  # past the top of the range
    empty = Dataset(SCHEMA, [], np.zeros((0, 2), dtype=int), np.zeros((0, 1)), np.zeros((0, 2)))
    with pytest.raises(ValidationError):
        explain_approx(empty, 0, 0, 0, 0)  # no row to sample from


# --- global report / predictor ------------------------------------------------

def test_global_report_baseline_column_zero():
    ds, _, _ = linear_dataset(seed=16)
    model = fit_mcce(ds)
    for base in range(4):
        rep = global_report(model, base)
        M = rep.contrasts
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
        n_pseudo=model.n_pseudo,
        space=model.space,
        target_kind=model.target_kind,
        diagnostics=model.diagnostics,
    )
    rep2 = global_report(shifted, 0)
    # contrasts against the baseline class are shift-invariant per class,
    # not per block; rows change but row DIFFERENCES within a block do not
    m1, m2 = rep.contrasts, rep2.contrasts
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
    model = fit_mcce(ds)
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


@pytest.mark.parametrize(
    "fit, key", [(fit_slearner, "converged"), (fit_slearner, "grad_norm"), (fit_mcce, "diagnostics")]
)
def test_load_model_requires_every_recorded_field(tmp_path, fit, key):
    ds, _, _ = linear_dataset(n=30, seed=22)
    path = tmp_path / "model.json"
    save_model(fit(ds), path)
    obj = json.loads(path.read_text())
    del obj[key]
    path.write_text(json.dumps(obj))
    with pytest.raises(ValidationError, match=f"model.json: missing required key '{key}'"):
        load_model(path)
    obj[key] = None
    path.write_text(json.dumps(obj))
    with pytest.raises(ValidationError, match=f"model.json: '{key}' must be"):
        load_model(path)


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
    m = len(rows)
    return Effects(SCHEMA, ds.ids[rows], [1] * m, ds.codes[rows, 1], [0] * m, effect, "mcce", "logit")


def test_effects_roundtrip(tmp_path):
    ds, _, _ = linear_dataset(seed=24)
    model = fit_mcce(ds)
    effects = current_b_effects(ds, model, np.arange(5))
    path = tmp_path / "effects.jsonl"
    write_effects(path, effects, {"method": "mcce", "space": "logit", "seed": 0})
    back, meta = read_effects(path, SCHEMA)
    assert meta["method"] == "mcce" and meta["seed"] == 0
    assert len(back) == 5
    for column in ("sample_id", "attribute", "from_code", "to_code", "effect"):
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
    path.write_text(meta + "\n" + row.replace('"u"', "Infinity") + "\n")  # bare Infinity token
    with pytest.raises(ValidationError, match="effects.jsonl:2: non-finite"):
        read_effects(path, SCHEMA)
    path.write_text(meta + "\n" + row + "\n")
    npy = tmp_path / json.loads(meta)["meta"]["effect"]
    np.save(npy, np.full((1, ds.outputs.shape[1]), np.inf))
    with pytest.raises(ValidationError, match="effects.effect.npy: non-finite"):
        read_effects(path, SCHEMA)
