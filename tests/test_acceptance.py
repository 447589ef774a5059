"""Acceptance battery: one test and one printed verdict line per criterion.

Each test prints "[acceptance] criterion NN pass|FAIL ..." with capture
suspended so the verdicts reach the terminal even on green runs, then
asserts. The heavy suites run once in module-scoped fixtures; criterion 04
re-checks every model those suites fitted.
"""

import dataclasses
import hashlib
import json
import time
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from mcce import (
    ConceptSchema,
    Dataset,
    Effects,
    build_label_index,
    coefficient_error,
    default_config,
    dist_cosine,
    dist_l2,
    explain_approx,
    explain_mcce,
    explain_slearner,
    fit_mcce,
    fit_slearner,
    generate,
    get_distance,
    global_report,
    icace,
    icace_error,
    macro_f1,
    make_pairs,
    one_hot,
    save_dataset,
)
from mcce.cli import main
from mcce.linalg import lstsq, max_abs_cross

T0 = time.monotonic()
BATTERY_BUDGET = 300.0


@pytest.fixture
def check(capsys):
    def _check(num: int, ok: bool, detail: str) -> None:
        verdict = "pass" if ok else "FAIL"
        with capsys.disabled():
            print(f"\n[acceptance] criterion {num:02d} {verdict}  {detail}", flush=True)
        assert ok, f"criterion {num:02d}: {detail}"

    return _check


@dataclass
class FittedRecord:
    """One fitted surrogate plus everything criterion 04 needs to re-check it."""

    label: str
    model: object
    design: np.ndarray
    targets: np.ndarray
    dataset: object
    probes: tuple  # (rows, attribute, to) with the attribute visible


def record_probes(dataset, model, n_probes=2):
    rows = dataset.fit_rows[:n_probes]
    attr = dataset.schema.names.index(dataset.schema.visible_names(dataset.hidden_attributes)[0])
    to = np.where(dataset.codes[rows, attr] == 0, 1, 0)  # any level but the current one
    return rows, attr, to


def make_record(label, dataset, model):
    fit = dataset.fit_rows
    return FittedRecord(
        label=label,
        model=model,
        design=dataset.design_matrix(fit),
        targets=dataset.outputs[fit],
        dataset=dataset,
        probes=record_probes(dataset, model),
    )


# --- suite fixtures ---------------------------------------------------


def random_dataset(trial: int):
    """Small dataset with generic embeddings and arbitrary outputs."""
    rng = np.random.default_rng(20_000 + trial)
    while True:
        n_attrs = int(rng.integers(2, 5))
        sizes = [int(rng.integers(2, 5)) for _ in range(n_attrs)]
        if sum(sizes) <= 12:
            break
    schema = ConceptSchema.of(
        [(f"a{i}", tuple(f"l{j}" for j in range(m))) for i, m in enumerate(sizes)]
    )
    n = int(rng.integers(20, 201))
    d = int(rng.integers(6, 33))
    q = int(rng.integers(2, 7))
    rows = []
    for i in range(n):
        codes = [int(rng.integers(len(levels))) for _, levels in schema.attributes]
        rows.append((codes, rng.standard_normal(d), rng.standard_normal(q)))
    codes, embeddings, outputs = (np.array(col) for col in zip(*rows))
    hidden = frozenset()
    if n_attrs > 1 and rng.random() < 0.3:
        hidden = frozenset({schema.names[int(rng.integers(n_attrs))]})
    ids = [f"r{i:04d}" for i in range(n)]
    dataset = Dataset(schema, ids, codes, embeddings, outputs, hidden_attributes=hidden)
    # d can fall below the visible width, so the default pseudo count is
    # not always feasible; cap it, and explore the low end every third trial
    j = min(dataset.visible_width, n, d)
    if trial % 3 == 0:
        j = int(rng.integers(1, min(n, d) + 1))
    return dataset, j


@pytest.fixture(scope="module")
def suite1():
    start = time.monotonic()
    worst = 0.0
    records = []
    for trial in range(100):
        dataset, j = random_dataset(trial)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # interpolation draws are intended
            model = fit_mcce(dataset, n_pseudo=j)
        fit = dataset.fit_rows
        C = dataset.design_matrix(fit)
        H = dataset.embeddings[fit]
        scores = (H - C @ model.embed_coef) @ model.pseudo_basis
        worst = max(worst, max_abs_cross(C, scores))
        if trial % 10 == 0:
            records.append(make_record(f"random trial {trial}", dataset, model))
    return {"worst_cross": worst, "elapsed": time.monotonic() - start, "records": records}


@pytest.fixture(scope="module")
def suite2():
    start = time.monotonic()
    cfg = default_config(n=500, seed=0, outcome_noise=0.0)
    dataset, truth = generate(cfg)
    dataset = make_pairs(dataset, cfg)
    model = fit_mcce(dataset)
    coef_err = coefficient_error(model.concept_coef, truth.outcome_coef, cfg.schema)
    p = dataset.pairs
    effect = explain_mcce(model, dataset, p.original, p.attribute, p.to)
    effects = Effects.for_pairs(dataset, np.arange(len(p)), effect, "mcce", dataset.space)
    macros = {
        metric: icace_error(effects, dataset, metric).macro_mean
        for metric in ("l2", "cosine", "norm")
    }
    return {
        "coef_err": coef_err,
        "macros": macros,
        "elapsed": time.monotonic() - start,
        "records": [make_record("fully observed n=500", dataset, model)],
        "model": model,
        "schema": cfg.schema,
    }


@pytest.fixture(scope="module")
def suite3():
    start = time.monotonic()
    configs = (frozenset({"ambiance"}), frozenset({"ambiance", "food"}))
    means = {}  # (hidden, method, metric) -> mean over seeds of per-seed pair means
    records = []
    for hidden in configs:
        per_seed = {key: [] for key in (("mcce", "l2"), ("mcce", "cosine"),
                                        ("slearner", "l2"), ("slearner", "cosine"))}
        for seed in range(20):
            cfg = default_config(n=2000, seed=seed)
            dataset, truth = generate(cfg)
            dataset = make_pairs(dataset, cfg)
            dataset = dataset.to_space("probability").mask(hidden)
            mcce_model = fit_mcce(dataset)
            sl_model = fit_slearner(dataset)
            if seed < 2:
                records.append(
                    make_record(f"hidden={sorted(hidden)} seed={seed}", dataset, mcce_model)
                )
            p = dataset.pairs
            visible = ~np.isin(p.attribute, [cfg.schema.names.index(h) for h in hidden])
            true_effect = icace(dataset)[visible]
            edits = (p.original[visible], p.attribute[visible], p.to[visible])
            est_m = explain_mcce(mcce_model, dataset, *edits)
            est_s = explain_slearner(sl_model, dataset, *edits)
            dists = {
                ("mcce", "l2"): dist_l2(est_m, true_effect),
                ("mcce", "cosine"): dist_cosine(est_m, true_effect),
                ("slearner", "l2"): dist_l2(est_s, true_effect),
                ("slearner", "cosine"): dist_cosine(est_s, true_effect),
            }
            for key, values in dists.items():
                per_seed[key].append(float(np.mean(values)))
        for (method, metric), values in per_seed.items():
            means[(hidden, method, metric)] = float(np.mean(values))
    return {"means": means, "elapsed": time.monotonic() - start, "records": records}


# --- criteria ---------------------------------------------------------


def test_criterion_01_pseudo_scores_orthogonal_to_concepts(suite1, check):
    ok = suite1["worst_cross"] < 1e-8 and suite1["elapsed"] < 10.0
    check(
        1,
        ok,
        f"100 random fits: max |C'S| = {suite1['worst_cross']:.3e} (< 1e-8), "
        f"{suite1['elapsed']:.1f}s (< 10s)",
    )


def test_criterion_02_fully_observed_noiseless_recovery(suite2, check):
    macro_txt = " ".join(f"{m}={v:.3e}" for m, v in suite2["macros"].items())
    ok = (
        suite2["coef_err"] < 1e-6
        and all(v < 1e-6 for v in suite2["macros"].values())
        and suite2["elapsed"] < 5.0
    )
    check(
        2,
        ok,
        f"coefficient_error={suite2['coef_err']:.3e} (< 1e-6), macro {macro_txt} "
        f"(< 1e-6), {suite2['elapsed']:.1f}s (< 5s)",
    )


def test_criterion_03_beats_slearner_under_hiding(suite3, check):
    means = suite3["means"]
    parts = []
    ok = suite3["elapsed"] < 120.0
    for hidden in (frozenset({"ambiance"}), frozenset({"ambiance", "food"})):
        m_l2 = means[(hidden, "mcce", "l2")]
        s_l2 = means[(hidden, "slearner", "l2")]
        m_cos = means[(hidden, "mcce", "cosine")]
        s_cos = means[(hidden, "slearner", "cosine")]
        ok = ok and m_l2 < s_l2 and m_cos < s_cos and m_l2 < 0.5 * s_l2
        parts.append(
            f"hidden={len(hidden)}: L2 {m_l2:.4f} vs {s_l2:.4f}, cosine {m_cos:.4f} vs {s_cos:.4f}"
        )
    check(3, ok, "; ".join(parts) + f", {suite3['elapsed']:.1f}s (< 120s)")


def test_criterion_04_decoupling_and_closed_form(suite1, suite2, suite3, check):
    records = suite1["records"] + suite2["records"] + suite3["records"]
    worst_coef = 0.0
    worst_closed = 0.0
    for rec in records:
        model = rec.model
        solo = lstsq(rec.design, rec.targets).coefficients
        worst_coef = max(worst_coef, float(np.max(np.abs(model.concept_coef - solo))))
        ds = rec.dataset
        rows, attr, to = rec.probes
        c = ds.design_matrix(rows)
        edited = ds.codes[rows]
        edited[:, attr] = to
        dc = one_hot(model.schema, edited, model.hidden_attributes) - c
        fit_resid = model.predict(c, ds.embeddings[rows]) - ds.outputs[rows]
        closed = (
            dc @ model.concept_coef
            - (dc @ model.embed_coef @ model.pseudo_basis) @ model.pseudo_coef
            + fit_resid
        )
        estimated = explain_mcce(model, ds, rows, attr, to)
        worst_closed = max(worst_closed, float(np.max(np.abs(estimated - closed))))
    ok = worst_coef < 1e-8 and worst_closed < 1e-8
    check(
        4,
        ok,
        f"{len(records)} models: max |concept_coef - lstsq(C,Y)| = {worst_coef:.3e}, "
        f"max closed-form gap = {worst_closed:.3e} (both < 1e-8)",
    )


def test_criterion_05_true_effects_score_exactly_zero(check):
    cfg = default_config(n=300, seed=4)
    dataset, truth = generate(cfg)
    dataset = make_pairs(dataset, cfg)
    pairs = np.arange(len(dataset.pairs))
    effects = Effects.for_pairs(dataset, pairs, icace(dataset), "oracle", dataset.space)
    worst = 0.0
    for metric in ("l2", "cosine", "norm"):
        report = icace_error(effects, dataset, metric)
        worst = max(worst, abs(report.macro_mean), abs(report.macro_std))
        for g in report.groups:
            worst = max(worst, abs(g.mean), abs(g.std))
    check(5, worst == 0.0, f"every metric reports exactly zero (worst cell {worst!r})")


def test_criterion_06_distance_properties(check):
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(1000):
        a, b, c = rng.standard_normal((3, 5))
        for metric in ("l2", "cosine", "norm"):
            dist = get_distance(metric)
            worst = max(worst, -dist(a, b))  # negativity shows up as > 0
            worst = max(worst, abs(dist(a, b) - dist(b, a)))
        worst = max(worst, dist_l2(a, c) - dist_l2(a, b) - dist_l2(b, c))
        lam, mu = rng.uniform(0.1, 10.0, size=2)
        worst = max(worst, abs(dist_cosine(lam * a, mu * b) - dist_cosine(a, b)))
    check(
        6,
        worst < 1e-10,
        f"1000 triples: worst nonneg/symmetry/triangle/scale violation = {worst:.3e} (< 1e-10)",
    )


def test_criterion_07_approx_exact_match_is_bitwise(check):
    cfg = default_config(n=60, seed=2)
    dataset, truth = generate(cfg)
    dataset = make_pairs(dataset, cfg)
    profiles = [tuple(codes) for codes in dataset.codes.tolist()]  # nothing is hidden
    p = dataset.pairs
    # several samples may share the target labels, where selection may differ
    unique = np.array([profiles.count(profiles[edited]) == 1 for edited in p.edited.tolist()])
    est = explain_approx(
        dataset, p.original[unique], p.attribute[unique], p.to[unique], 123, build_label_index(dataset)
    )
    checked = int(unique.sum())
    ok = not est.flags.any() and np.array_equal(est.effect, icace(dataset)[unique])
    ok = ok and checked >= 10
    check(7, ok, f"{checked} pairs with a unique exact edit matched icace bitwise")


def brute_force_macro_f1(predicted, gold, n_classes):
    scores = []
    for k in range(n_classes):
        tp = sum(1 for p, g in zip(predicted, gold) if p == k and g == k)
        fp = sum(1 for p, g in zip(predicted, gold) if p == k and g != k)
        fn = sum(1 for p, g in zip(predicted, gold) if p != k and g == k)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        scores.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return sum(scores) / n_classes


def test_criterion_08_predictor_mode_recovers_separable_gold(tmp_path, capsys, check):
    # library half: the hand fixture and a brute-force oracle loop
    hand = macro_f1([0, 1, 0, 1], [0, 0, 1, 1], n_classes=2)
    worst = abs(hand - 0.5)
    rng = np.random.default_rng(88)
    for _ in range(50):
        n_classes = int(rng.integers(2, 6))
        n = int(rng.integers(5, 41))
        pred = rng.integers(n_classes, size=n)
        gold = rng.integers(n_classes, size=n)
        worst = max(worst, abs(macro_f1(pred, gold, n_classes) - brute_force_macro_f1(pred, gold, n_classes)))

    # CLI half: gold labels depend on one attribute alone, so the linear
    # predictor separates them perfectly
    cfg = default_config(n=240, seed=6, n_classes=3, outcome_noise=0.0)
    coef = np.zeros((cfg.width, 3))
    coef[0:3, 0:3] = 8.0 * np.eye(3)
    cfg = dataclasses.replace(cfg, outcome_coef=coef)
    dataset, _ = generate(cfg)
    assert set(dataset.gold.tolist()) == {0, 1, 2}
    data_dir = tmp_path / "data"
    save_dataset(dataset, data_dir)
    model = tmp_path / "model.json"
    assert main([
        "fit",
        "--schema", str(data_dir / "schema.json"),
        "--samples", str(data_dir / "samples.jsonl"),
        "--method", "mcce",
        "--targets", "gold",
        "--out", str(model),
    ]) == 0
    assert main([
        "predict",
        "--model", str(model),
        "--schema", str(data_dir / "schema.json"),
        "--samples", str(data_dir / "samples.jsonl"),
        "--out", str(tmp_path / "predictions.jsonl"),
    ]) == 0
    out = capsys.readouterr().out
    f1_line = next(line for line in out.splitlines() if line.startswith("macro_f1"))
    score = float(f1_line.split()[1])
    ok = score == 1.0 and worst < 1e-12
    check(8, ok, f"cmd_predict macro_f1 = {score!r} (== 1.0), brute-force gap {worst:.3e} (< 1e-12)")


def test_criterion_09_report_baseline_and_shift_invariance(suite2, check):
    model = suite2["model"]
    schema = suite2["schema"]
    q = model.n_outputs
    worst_baseline = 0.0
    for b in range(q):
        worst_baseline = max(worst_baseline, float(np.max(np.abs(global_report(model, b).matrix()[:, b]))))

    rng = np.random.default_rng(99)
    shifted_coef = model.concept_coef.copy()
    blocks = schema.visible_blocks(model.hidden_attributes)
    for block in blocks.values():
        shifted_coef[block] += rng.standard_normal(q)
    shifted = dataclasses.replace(model, concept_coef=shifted_coef)
    worst_shift = 0.0
    for b in range(q):
        m1 = global_report(model, b).matrix()
        m2 = global_report(shifted, b).matrix()
        for block in blocks.values():
            d1 = m1[block] - m1[block.start]
            d2 = m2[block] - m2[block.start]
            worst_shift = max(worst_shift, float(np.max(np.abs(d1 - d2))))
    ok = worst_baseline == 0.0 and worst_shift < 1e-12
    check(
        9,
        ok,
        f"baseline column max |entry| = {worst_baseline!r} (== 0), "
        f"within-block contrast drift under per-block shifts = {worst_shift:.3e} (< 1e-12)",
    )


def run_pipeline(root):
    root.mkdir()
    config = root / "config.json"
    config.write_text(json.dumps({"n": 150, "seed": 7, "edits_per_sample": 1}))
    data = root / "data"
    assert main(["synth", "--config", str(config), "--out", str(data)]) == 0
    assert main([
        "experiment",
        "--schema", str(data / "schema.json"),
        "--samples", str(data / "samples.jsonl"),
        "--pairs", str(data / "pairs.jsonl"),
        "--methods", "mcce,slearner,approx",
        "--metrics", "l2,cosine",
        "--mask-sizes", "1",
        "--seeds", "0,1",
        "--out", str(root / "exp"),
    ]) == 0
    model = root / "model.json"
    assert main([
        "fit",
        "--schema", str(data / "schema.json"),
        "--samples", str(data / "samples.jsonl"),
        "--pairs", str(data / "pairs.jsonl"),
        "--method", "mcce",
        "--out", str(model),
    ]) == 0
    assert main(["report", "--model", str(model), "--out", str(root / "report.csv")]) == 0


def tree_hashes(root):
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_criterion_10_pipeline_reruns_byte_identical(tmp_path, check):
    run_pipeline(tmp_path / "first")
    run_pipeline(tmp_path / "second")
    first = tree_hashes(tmp_path / "first")
    second = tree_hashes(tmp_path / "second")
    elapsed = time.monotonic() - T0
    n_files = len(first)
    ok = first == second and n_files > 50 and elapsed < BATTERY_BUDGET
    check(
        10,
        ok,
        f"{n_files} files byte-identical across reruns, battery {elapsed:.1f}s (< {BATTERY_BUDGET:.0f}s)",
    )
