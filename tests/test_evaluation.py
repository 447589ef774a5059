"""Distances, per-pair effects, grouped error reports, and macro F1.

Group means/stds below are worked out by hand before being frozen in.
"""

import csv
import io

import numpy as np
import pytest

from mcce import (
    ConceptSchema,
    Dataset,
    Effects,
    EvalGroup,
    EvalReport,
    ValidationError,
    coefficient_error,
    dist_cosine,
    dist_l2,
    dist_norm,
    get_distance,
    icace,
    icace_error,
    macro_f1,
)

SCHEMA = ConceptSchema.of([("a", ("x", "y")), ("b", ("u", "v"))])


# --- distances ---------------------------------------------------------

def test_distances_by_hand():
    v, z = np.array([3.0, 4.0]), np.zeros(2)
    assert dist_l2(v, z) == 5.0
    assert dist_cosine(v, z) == 1.0  # exactly one zero vector
    assert dist_norm(v, z) == 5.0

    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert abs(dist_l2(e1, e2) - np.sqrt(2.0)) < 1e-15
    assert dist_cosine(e1, e2) == 1.0
    assert dist_norm(e1, e2) == 0.0

    assert dist_cosine(z, z) == 0.0
    assert dist_cosine(v, v) == 0.0  # fast path, exactly zero
    assert dist_cosine(v, -v) == 2.0


def test_distance_properties():
    rng = np.random.default_rng(10)
    for _ in range(200):
        a, b = rng.standard_normal((2, 4))
        for name in ("l2", "cosine", "norm"):
            d = get_distance(name)
            assert d(a, b) >= 0.0
            assert abs(d(a, b) - d(b, a)) < 1e-12
            assert d(a, a) < 1e-12
        c = rng.standard_normal(4)
        assert dist_l2(a, c) <= dist_l2(a, b) + dist_l2(b, c) + 1e-12


def test_distance_errors():
    with pytest.raises(ValidationError):
        dist_l2(np.ones(2), np.ones(3))
    with pytest.raises(ValidationError):
        dist_l2(np.array([np.nan, 0.0]), np.zeros(2))
    with pytest.raises(ValidationError):
        get_distance("manhattan")


# --- icace --------------------------------------------------------------

def two_pair_dataset(extra=(), extra_pairs=()):
    samples = (
        ("o1", ["x", "u"], (1.0, 0.0)),
        ("e1", ["y", "u"], (0.0, 1.0)),
        ("o2", ["x", "v"], (2.0, 2.0)),
        ("e2", ["y", "v"], (2.0, 5.0)),
        *extra,
    )
    pairs = [("o1", "e1"), ("o2", "e2"), *extra_pairs]
    ids, labels, outputs = zip(*samples)
    return Dataset.from_records(SCHEMA, ids, labels, np.zeros((len(ids), 1)), outputs, pairs=pairs)


def test_icace_by_hand():
    ds = two_pair_dataset()
    assert icace(ds).tolist() == [[-1.0, 1.0], [0.0, 3.0]]


def estimates(*rows, space="logit"):
    """Effects from (sample_id, effect[, attribute, from, to]) rows; keys default to a: x -> y."""
    rows = [row + ("a", "x", "y")[len(row) - 2 :] for row in rows]
    sample_id, effect, attribute, from_level, to_level = zip(*rows) if rows else ((),) * 5
    effect = np.array(effect, dtype=float)
    return Effects(sample_id, attribute, from_level, to_level, effect, "test", space)


def test_icace_error_group_stats_by_hand():
    ds = two_pair_dataset()
    # estimates off by l2 distances 1 and 3 inside one (a, x, y) group:
    # mean 2, population std 1
    effects = estimates(("o1", (-1.0, 0.0)), ("o2", (0.0, 6.0)))
    report = icace_error(effects, ds, "l2")
    assert len(report.groups) == 1
    g = report.groups[0]
    assert (g.attribute, g.from_level, g.to_level, g.count) == ("a", "x", "y", 2)
    assert abs(g.mean - 2.0) < 1e-12
    assert abs(g.std - 1.0) < 1e-12
    assert abs(report.macro_mean - 2.0) < 1e-12
    assert report.macro_std == 0.0  # one group
    assert report.metadata["pairs_evaluated"] == 2


def test_icace_error_macro_averages_groups_equally():
    # second group with a single pair at distance 5; macro mean = (2+5)/2
    ds = two_pair_dataset(
        extra=(("o3", ["x", "u"], (1.0, 1.0)), ("e3", ["x", "v"], (1.0, 1.0))),
        extra_pairs=[("o3", "e3")],
    )
    effects = estimates(("o1", (-1.0, 0.0)), ("o2", (0.0, 6.0)), ("o3", (3.0, 4.0), "b", "u", "v"))
    report = icace_error(effects, ds, "l2")
    assert [g.mean for g in report.groups] == [2.0, 5.0]
    assert abs(report.macro_mean - 3.5) < 1e-12
    assert abs(report.macro_std - 1.5) < 1e-12  # population std of {2, 5}


def test_icace_error_empty_pairs():
    ds = two_pair_dataset().mask({"a"})
    report = icace_error(estimates(), ds, "l2", hidden={"a"})
    assert report.groups == () and report.macro_mean == 0.0 and report.macro_std == 0.0
    assert report.metadata["pairs_skipped"] == 2


def test_icace_error_join_failures():
    ds = two_pair_dataset()
    one = ("o1", (-1.0, 0.0))
    with pytest.raises(ValidationError):
        icace_error(estimates(one), ds, "l2")  # o2 has no estimate
    with pytest.raises(ValidationError):
        icace_error(estimates(one, one, ("o2", (0.0, 0.0))), ds, "l2")  # duplicate estimate
    with pytest.raises(ValidationError):
        icace_error(estimates(one, ("o2", (0.0, 0.0)), space="probability"), ds, "l2")
    with pytest.raises(ValidationError):
        icace_error(estimates(one, ("o2", (0.0, 0.0))), ds, "chebyshev")


def test_report_serialization(tmp_path):
    ds = two_pair_dataset()
    effects = estimates(("o1", (-1.0, 0.0)), ("o2", (0.0, 6.0)))
    report = icace_error(effects, ds, "l2", metadata={"method": "test"})
    obj = report.to_json_obj()
    assert obj["metadata"]["method"] == "test"
    assert obj["metadata"]["metric"] == "l2"
    assert obj["groups"][0]["mean"] == 2.0
    csv_text = report.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "attribute,from,to,metric,mean,std,count"
    assert lines[1].startswith("a,x,y,l2,2.0,1.0,2")
    # repr floats round-trip
    assert float(lines[1].split(",")[4]) == 2.0


def test_report_csv_rows_are_the_group_fields_in_order():
    groups = (
        EvalGroup('a,"b"', "x\ny", "é", "l2", -0.0, 5e-324, 3),
        EvalGroup("c", "", "z", "cosine", 1e308, 0.1, 0),
    )
    report = EvalReport(groups, 0.5, 0.25)
    rows = [[g.attribute, g.from_level, g.to_level, g.metric, g.mean, g.std, g.count] for g in groups]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [["attribute", "from", "to", "metric", "mean", "std", "count"], *rows]
    )
    assert report.to_csv() == buf.getvalue()


# --- coefficient error ---------------------------------------------------

def test_coefficient_error_invariant_to_block_shifts():
    rng = np.random.default_rng(11)
    ref = rng.standard_normal((4, 3))
    shifted = ref.copy()
    shifted[0:2] += rng.standard_normal(3)  # constant shift inside block a
    shifted[2:4] += rng.standard_normal(3)  # and inside block b
    assert coefficient_error(shifted, ref, SCHEMA, frozenset()) < 1e-10
    # an actual contrast change is detected
    bent = ref.copy()
    bent[0, 0] += 1.0
    assert coefficient_error(bent, ref, SCHEMA, frozenset()) > 0.5


def test_coefficient_error_by_hand():
    # contrasts run over ordered level pairs, one per swap direction:
    # block a: (y-x) and (x-y), est vs ref l2 = 1 each
    # block b: (v-u) and (u-v), est vs ref l2 = 2 each -> total 6
    est = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
    ref = np.zeros((4, 2))
    assert abs(coefficient_error(est, ref, SCHEMA, frozenset()) - 6.0) < 1e-12


def test_coefficient_error_respects_mask():
    rng = np.random.default_rng(12)
    ref = rng.standard_normal((2, 3))  # only block b visible
    assert coefficient_error(ref, ref, SCHEMA, frozenset({"a"})) == 0.0
    with pytest.raises(ValidationError):
        coefficient_error(rng.standard_normal((4, 3)), ref, SCHEMA, frozenset({"a"}))


# --- macro F1 -------------------------------------------------------------

def test_macro_f1_by_hand():
    # pred (0,1,0,1) vs gold (0,0,1,1): both classes have P = R = 0.5
    assert abs(macro_f1([0, 1, 0, 1], [0, 0, 1, 1], 2) - 0.5) < 1e-12
    # a class absent from both pred and gold scores zero
    assert abs(macro_f1([0, 1, 0, 1], [0, 0, 1, 1], 3) - 1.0 / 3.0) < 1e-12
    assert macro_f1([1, 0], [1, 0], 2) == 1.0


def brute_force_macro_f1(pred, gold, n_classes):
    scores = []
    for c in range(n_classes):
        tp = sum(1 for p, g in zip(pred, gold) if p == c and g == c)
        fp = sum(1 for p, g in zip(pred, gold) if p == c and g != c)
        fn = sum(1 for p, g in zip(pred, gold) if p != c and g == c)
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom else 0.0)
    return sum(scores) / n_classes


def test_macro_f1_matches_brute_force():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n_classes = int(rng.integers(2, 6))
        pred = rng.integers(0, n_classes, size=30)
        gold = rng.integers(0, n_classes, size=30)
        assert abs(macro_f1(pred, gold, n_classes) - brute_force_macro_f1(pred, gold, n_classes)) < 1e-12


def test_macro_f1_errors():
    with pytest.raises(ValidationError):
        macro_f1([0, 1], [0], 2)
    with pytest.raises(ValidationError):
        macro_f1([0, 2], [0, 1], 2)  # label out of range
    with pytest.raises(ValidationError):
        macro_f1([], [], 2)
