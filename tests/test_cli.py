"""End-to-end CLI checks through mcce.cli.main.

Only the checks of what stderr shows start a subprocess: in-process,
pytest captures warnings before they would reach stderr.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mcce
from mcce import Dataset, default_config, generate, make_pairs, save_dataset
from mcce.cli import main

from jsonl_tables import FLOAT_COLUMNS, read_table, write_lines, write_table


def run(*argv):
    return main([str(a) for a in argv])


def run_process(*argv):
    """`python -m mcce` in a child process, so stderr holds what a user would see."""
    src = str(Path(mcce.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = "default"  # an inherited "ignore" would hide a warning
    return subprocess.run(
        [sys.executable, "-m", "mcce", *(str(a) for a in argv)],
        capture_output=True,
        text=True,
        env=env,
    )


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def effects_bytes(path):
    """An effects file's bytes, with the name of its .npy file blanked, and that file's bytes.

    Two effects files of equal estimates are equal under it whatever
    their names.
    """
    npy = path.with_name(f"{path.stem}.effect.npy")
    return path.read_bytes().replace(json.dumps(npy.name).encode(), b'""'), npy.read_bytes()


def copy_arrays(table, root):
    """Copy the .npy files that JSONL table `table` names into directory `root`."""
    meta = json.loads(table.read_text().split("\n", 1)[0])["meta"]
    for key in FLOAT_COLUMNS:
        if key in meta:
            shutil.copy(table.parent / meta[key], root / meta[key])


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    config.write_text(json.dumps({"n": 150, "seed": 5, "edits_per_sample": 1}))
    out = root / "data"
    assert run("synth", "--config", config, "--out", out) == 0
    return out


def read_report(path):
    return json.loads(path.read_text())


class TestParsing:
    def test_unknown_command_exits_2(self, capsys):
        assert run("frobnicate") == 2
        capsys.readouterr()

    def test_missing_required_flag_exits_2(self, capsys):
        assert run("synth", "--out", "x") == 2
        capsys.readouterr()

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert run("synth", "--config", tmp_path / "nope.json", "--out", tmp_path) == 2
        assert "nope.json" in capsys.readouterr().err


SYNTH_FILES = ("schema.json", "samples.jsonl", "samples.embedding.npy", "samples.logits.npy",
               "pairs.jsonl", "ground_truth.json")


GOLDEN_DIGESTS = {
    "samples.jsonl": "ac3ddfa981ce7b3e742187b85d22a3136e42aa8d07c5a874a7c8556a7c17bce4",
    "pairs.jsonl": "c038cfaed337dc76179e0426f4200e8b589a2f100d757ed790397a466655901a",
    "samples.embedding.npy": "e8147f8ae5ef762a6806c9fbfe2f6867e6b86bd472598f9c92b2144c32c3e32a",
    "samples.logits.npy": "2a811e2e4c32de05d33db416246f7d7a3129c1e98d772230588fe575111aed94",
}


class TestSynth:
    def test_outputs(self, synth_dir):
        for name in SYNTH_FILES:
            assert (synth_dir / name).exists(), name
        lines = (synth_dir / "samples.jsonl").read_text().splitlines()
        assert len(lines) == 301  # the meta line, 150 factual and 150 edited rows
        meta = json.loads(lines[0])["meta"]
        assert meta == {"attributes": ["ambiance", "food", "noise", "service"],
                        "columns": ["id", "concepts", "gold"], "embedding": "samples.embedding.npy",
                        "logits": "samples.logits.npy"}
        for key, width in (("embedding", 16), ("logits", 5)):
            matrix = np.load(synth_dir / meta[key], allow_pickle=False)
            assert matrix.dtype.str == "<f8" and matrix.shape == (300, width)
            assert matrix.flags.c_contiguous
        assert len((synth_dir / "pairs.jsonl").read_text().splitlines()) == 151

    def test_rerun_is_byte_identical(self, synth_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 150, "seed": 5, "edits_per_sample": 1}))
        again = tmp_path / "data"
        assert run("synth", "--config", config, "--out", again) == 0
        assert sorted(path.name for path in again.iterdir()) == sorted(SYNTH_FILES)
        for name in SYNTH_FILES:
            assert digest(synth_dir / name) == digest(again / name), name

    def test_noiseless_explicit_config_gives_pinned_bytes(self, tmp_path):
        # Every float written is a fixed-order sum of the matrices below, and
        # the draws only pick levels and edits, so no BLAS kernel moves a byte.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "n": 20, "seed": 11, "edits_per_sample": 2, "exo_dim": 3,
            "embed_noise": 0.0, "outcome_noise": 0.0,
            "attributes": [
                {"name": "color", "levels": ["red", "green", "blue"]},
                {"name": "size", "levels": ["small", "large"]},
                {"name": "shape", "levels": ["round", "square"]},
            ],
            "mixing": {
                "color": [[1.0, 0.3, 0.1], [-0.2, 0.9, 0.2], [-0.8, -1.1, 0.3]],
                "size": [[0.5, -0.4, 0.7], [-0.5, 0.4, -0.7]],
                "shape": [[0.3, 0.6, -0.9], [-0.3, -0.6, 0.9]],
            },
            "embed_map": [
                [0.1, 0.2, 0.3, 0.7, -0.6, 0.3, 0.2],
                [0.3, -0.1, 0.2, 0.05, 1.1, -0.7, 0.6],
                [-0.9, 0.4, 0.6, 0.2, -0.3, 0.1, 0.7],
                [0.2, 0.1, -0.4, 0.3, 0.3, 0.6, -0.2],
            ],
            "outcome_coef": [
                [0.1, -0.2, 0.3], [0.2, 0.7, -0.1], [-0.3, 0.1, 0.6], [0.6, -0.3, 0.2],
                [0.7, 0.4, -0.9], [0.3, 0.2, 0.1], [-0.1, 0.6, 0.7],
            ],
        }))
        out = tmp_path / "d"
        assert run("synth", "--config", config, "--out", out) == 0
        assert {name: digest(out / name) for name in GOLDEN_DIGESTS} == GOLDEN_DIGESTS

    @pytest.mark.parametrize("form", ["generated", "explicit"])
    def test_negative_seed_exits_2_naming_seed(self, tmp_path, capsys, form):
        config = {"n": 10, "seed": -1, "edits_per_sample": 1}
        if form == "explicit":
            config.update(
                exo_dim=1, attributes=[{"name": "a", "levels": ["x", "y"]}],
                mixing={"a": [[1.0], [-1.0]]}, embed_map=[[1.0, 0.5]], outcome_coef=[[0.1], [0.2]],
            )
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run("synth", "--config", path, "--out", tmp_path / "d") == 2
        err = capsys.readouterr().err
        assert "malformed config (seed must be a nonnegative integer, got -1)" in err, err
        assert not (tmp_path / "d").exists()

    def test_float_rows_go_to_the_files_a_block_at_a_time(self, tmp_path):
        # 6000 samples and 12000 edited rows: the embedding and logit matrices
        # hold 18000 x (16 + 5) float64, about 3.0 MB; synth holds neither whole
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 10, "seed": 2, "edits_per_sample": 2}))
        assert run("synth", "--config", config, "--out", tmp_path / "warm") == 0  # imports numpy.random
        config.write_text(json.dumps({"n": 6000, "seed": 2, "edits_per_sample": 2}))
        tracemalloc.start()
        try:
            assert run("synth", "--config", config, "--out", tmp_path / "d") == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 18000 * (16 + 5) * 8

    def test_a_write_that_fails_midway_leaves_the_files_as_they_were(self, synth_dir, tmp_path, capsys):
        # both .npy files are written to temp files, and then the logits cannot replace a directory
        out = tmp_path / "d"
        shutil.copytree(synth_dir, out)
        (out / "samples.logits.npy").unlink()
        (out / "samples.logits.npy").mkdir()
        before = {path.name: path.read_bytes() for path in out.iterdir() if path.is_file()}
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 150, "seed": 6, "edits_per_sample": 2}))  # another draw
        assert run("synth", "--config", config, "--out", out) == 2
        assert "samples.logits.npy" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir() if path.is_file()} == before
        assert not [path for path in out.iterdir() if path.name.endswith(".tmp")]

    def test_no_edits_skips_pairs(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 20, "seed": 1, "edits_per_sample": 0}))
        assert run("synth", "--config", config, "--out", tmp_path / "d") == 0
        # the file is still written so downstream commands can always pass
        # --pairs; it simply has no rows
        columns = '["original_id", "edited_id"]'
        assert (tmp_path / "d" / "pairs.jsonl").read_text() == f'{{"meta": {{"columns": {columns}}}}}\n'

    def test_noisy_rank_deficient_draw_runs_a_hidden_pipeline(self, tmp_path, capsys):
        # embedding noise and 6 embedding columns for a 12-column concept layout: a valid draw
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 200, "edits_per_sample": 1, "embed_noise": 0.05, "embed_dim": 6}))
        data, model, effects, out = (tmp_path / name for name in ("d", "m.json", "e.jsonl", "eval"))
        assert run("synth", "--config", config, "--out", data) == 0
        assert run("fit", *dataset_flags(data), "--hidden", "food", "--out", model) == 0
        assert run("explain", *dataset_flags(data), "--method", "mcce", "--model", model,
                   "--out", effects) == 0
        assert run("evaluate", *dataset_flags(data), "--effects", effects, "--metric", "l2",
                   "--out", out) == 0
        capsys.readouterr()
        meta = json.loads(effects.read_text().splitlines()[0])["meta"]
        written = read_report(out / "report_l2.json")["metadata"]
        assert meta["hidden"] == written["hidden"] == ["food"]
        assert written["pairs_skipped"] == meta["pairs_skipped"] > 0
        assert written["pairs_evaluated"] == 200 - meta["pairs_skipped"]


class TestManyAttributes:
    """Schemas whose label rows overflow a packed int64 key: 64 two-level
    attributes (2**64 label rows) and 40 four-level ones (4**40)."""

    @pytest.mark.parametrize("n_attributes, n_levels", [(64, 2), (40, 4)])
    def test_synth_oracle_and_approx_run(self, tmp_path, capsys, n_attributes, n_levels):
        attributes = [
            {"name": f"a{i}", "levels": [f"l{j}" for j in range(n_levels)]} for i in range(n_attributes)
        ]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"n": 60, "seed": 2, "edits_per_sample": 1, "attributes": attributes}
        ))
        data = tmp_path / "data"
        assert run("synth", "--config", config, "--out", data) == 0
        truth = data / "ground_truth.json"
        assert run("explain", *dataset_flags(data), "--method", "oracle", "--ground-truth", truth,
                   "--out", tmp_path / "oracle.jsonl") == 0
        assert run("explain", *dataset_flags(data), "--method", "approx", "--hidden", "a0",
                   "--out", tmp_path / "approx.jsonl") == 0
        assert run("experiment", *dataset_flags(data), "--methods", "approx", "--metrics", "l2",
                   "--mask-sizes", "1", "--out", tmp_path / "experiment") == 0
        capsys.readouterr()
        # Each edit's exact match is its own edited row, the only row with
        # those labels among 120, unless the edit is of the hidden a0.
        dataset = mcce.load_dataset(data / "samples.jsonl", data / "pairs.jsonl", data / "schema.json")
        effects, _ = mcce.read_effects(tmp_path / "approx.jsonl", dataset.schema)
        assert len(effects) == len(dataset.pairs) and not effects.fallback.any()
        visible = effects.attribute != dataset.schema.names.index("a0")
        assert np.array_equal(effects.effect[visible], mcce.icace(dataset)[visible])


class TestFit:
    def test_mcce_diagnostics(self, synth_dir, tmp_path, capsys):
        model = tmp_path / "model.json"
        code = run(
            "fit",
            "--schema", synth_dir / "schema.json",
            "--samples", synth_dir / "samples.jsonl",
            "--pairs", synth_dir / "pairs.jsonl",
            "--method", "mcce",
            "--hidden", "ambiance",
            "--out", model,
        )
        out = capsys.readouterr().out
        assert code == 0 and model.exists()
        for key in ("n_fit", "k_vis", "n_pseudo", "design_rank", "residual_sos"):
            assert key in out, key
        assert "n_fit=150" in out  # edited rows excluded

    @pytest.mark.parametrize("method", ["mcce", "slearner"])
    def test_fit_leaves_stderr_empty(self, synth_dir, tmp_path, method):
        proc = run_process(
            "fit",
            "--schema", synth_dir / "schema.json",
            "--samples", synth_dir / "samples.jsonl",
            "--method", method,
            "--hidden", "ambiance",
            "--out", tmp_path / "model.json",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        if method == "slearner":
            assert "converged=True" in proc.stdout and "grad_norm=" in proc.stdout

    def test_unobserved_level_warns_once(self, synth_dir, tmp_path):
        rows = read_table(synth_dir / "samples.jsonl")
        for row in rows:
            if row["concepts"]["food"] == "pos":
                row["concepts"]["food"] = "neg"
        samples = write_table(tmp_path / "samples.jsonl", rows)
        proc = run_process(
            "fit",
            "--schema", synth_dir / "schema.json",
            "--samples", samples,
            "--method", "mcce",
            "--hidden", "ambiance",
            "--out", tmp_path / "model.json",
        )
        assert proc.returncode == 0, proc.stderr
        # three visible 3-level blocks: full rank 9 - 3 + 1 = 7, one level short
        assert "design_rank=6 " in proc.stdout
        warnings = proc.stderr.splitlines()
        assert len(warnings) == 1 and "design rank 6 is below 7" in warnings[0], proc.stderr

    def test_a_fit_warning_is_one_line(self, synth_dir, tmp_path):
        # one 3-level attribute hidden: two residual directions rise above the rounding floor
        proc = run_process(
            "fit",
            "--schema", synth_dir / "schema.json",
            "--samples", synth_dir / "samples.jsonl",
            "--hidden", "ambiance",
            "--j", "16",
            "--out", tmp_path / "model.json",
        )
        assert proc.returncode == 0, proc.stderr
        assert "n_pseudo=2 " in proc.stdout
        [line] = proc.stderr.splitlines()
        assert line.startswith("warning: n_pseudo asks for 16 pseudo-concepts but keeps 2"), proc.stderr

    @pytest.mark.parametrize("j", [None, "3", "6"])
    def test_too_few_pseudo_concepts_warn(self, synth_dir, tmp_path, j):
        # three 3-level attributes hidden: the noiseless residual has rank 6
        model = tmp_path / "model.json"
        proc = run_process(
            "fit",
            "--schema", synth_dir / "schema.json",
            "--samples", synth_dir / "samples.jsonl",
            "--method", "mcce",
            "--hidden", "ambiance,food,noise",
            *(() if j is None else ("--j", j)),
            "--out", model,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(model.read_text())["n_pseudo"] == (3 if j == "3" else 6)
        if j == "3":
            assert "n_pseudo 3 keeps 3 of the 6 embedding residual directions above the noise" \
                in proc.stderr
        else:  # the default keeps exactly the hidden rank, as does --j 6
            assert proc.stderr == ""

    def test_slearner_rejects_gold_targets(self, synth_dir, tmp_path, capsys):
        code = run(
            "fit",
            "--schema", synth_dir / "schema.json",
            "--samples", synth_dir / "samples.jsonl",
            "--method", "slearner",
            "--targets", "gold",
            "--out", tmp_path / "m.json",
        )
        assert code == 2
        assert "mcce" in capsys.readouterr().err

    def test_slearner_rejects_j(self, synth_dir, tmp_path, capsys):
        code = run(
            "fit",
            "--schema", synth_dir / "schema.json",
            "--samples", synth_dir / "samples.jsonl",
            "--method", "slearner",
            "--j", "3",
            "--out", tmp_path / "m.json",
        )
        assert code == 2
        capsys.readouterr()

    def test_bad_hidden_name(self, synth_dir, tmp_path, capsys):
        code = run(
            "fit",
            "--schema", synth_dir / "schema.json",
            "--samples", synth_dir / "samples.jsonl",
            "--method", "mcce",
            "--hidden", "flavor",
            "--out", tmp_path / "m.json",
        )
        assert code == 2
        assert "flavor" in capsys.readouterr().err


@pytest.fixture(scope="module")
def oracle_report(synth_dir, tmp_path_factory):
    root = tmp_path_factory.mktemp("oracle")
    effects = root / "effects.jsonl"
    assert main([
        "explain",
        "--schema", str(synth_dir / "schema.json"),
        "--samples", str(synth_dir / "samples.jsonl"),
        "--pairs", str(synth_dir / "pairs.jsonl"),
        "--method", "oracle",
        "--ground-truth", str(synth_dir / "ground_truth.json"),
        "--out", str(effects),
    ]) == 0
    out = root / "eval"
    assert main([
        "evaluate",
        "--schema", str(synth_dir / "schema.json"),
        "--samples", str(synth_dir / "samples.jsonl"),
        "--pairs", str(synth_dir / "pairs.jsonl"),
        "--effects", str(effects),
        "--out", str(out),
    ]) == 0
    return out


@pytest.fixture(scope="module")
def exp_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("exp")
    config = root / "config.json"
    config.write_text(json.dumps({"n": 120, "seed": 3, "edits_per_sample": 1}))
    data = root / "data"
    assert main(["synth", "--config", str(config), "--out", str(data)]) == 0
    out = root / "out"
    assert main([
        "experiment",
        "--schema", str(data / "schema.json"),
        "--samples", str(data / "samples.jsonl"),
        "--pairs", str(data / "pairs.jsonl"),
        "--methods", "mcce,slearner",
        "--metrics", "l2",
        "--mask-sizes", "1",
        "--seeds", "0",
        "--out", str(out),
    ]) == 0
    return data, out


@pytest.fixture(scope="module")
def exp_seeds_dir(exp_dir):
    """exp_dir's experiment with approx added and two seeds."""
    data, out = exp_dir
    out = out.with_name("out_seeds")
    assert run(
        "experiment", *dataset_flags(data), "--methods", "mcce,slearner,approx", "--metrics", "l2",
        "--mask-sizes", "1", "--seeds", "0,1", "--out", out,
    ) == 0
    return data, out


class TestExplainEvaluate:
    def test_oracle_scores_zero(self, oracle_report):
        # ground-truth logits are recomputed from the coefficients, so the
        # match with stored outputs is exact up to one float contrast
        for metric in ("l2", "norm", "cosine"):
            report = read_report(oracle_report / f"report_{metric}.json")
            assert abs(report["macro_mean"]) < 1e-12
            assert all(abs(g["mean"]) < 1e-12 for g in report["groups"])
            assert (oracle_report / f"report_{metric}.csv").exists()

    def test_effects_meta_line(self, synth_dir, oracle_report):
        first = json.loads((oracle_report.parent / "effects.jsonl").read_text().splitlines()[0])
        assert set(first) == {"meta"}
        assert first["meta"]["method"] == "oracle"
        assert first["meta"]["pairs_total"] == 150

    def test_oracle_requires_ground_truth(self, synth_dir, tmp_path, capsys):
        code = run(
            "explain",
            "--schema", synth_dir / "schema.json",
            "--samples", synth_dir / "samples.jsonl",
            "--pairs", synth_dir / "pairs.jsonl",
            "--method", "oracle",
            "--out", tmp_path / "e.jsonl",
        )
        assert code == 2
        assert "ground-truth" in capsys.readouterr().err

    def test_model_kind_mismatch(self, synth_dir, tmp_path, capsys):
        model = tmp_path / "sl.json"
        assert run(
            "fit",
            "--schema", synth_dir / "schema.json",
            "--samples", synth_dir / "samples.jsonl",
            "--method", "slearner",
            "--space", "probability",
            "--out", model,
        ) == 0
        capsys.readouterr()
        code = run(
            "explain",
            "--schema", synth_dir / "schema.json",
            "--samples", synth_dir / "samples.jsonl",
            "--pairs", synth_dir / "pairs.jsonl",
            "--method", "mcce",
            "--model", model,
            "--out", tmp_path / "e.jsonl",
        )
        assert code == 2
        assert "slearner" in capsys.readouterr().err

    def test_hidden_pairs_are_skipped_and_counted(self, synth_dir, tmp_path, capsys):
        model = tmp_path / "m.json"
        assert run(
            "fit",
            "--schema", synth_dir / "schema.json",
            "--samples", synth_dir / "samples.jsonl",
            "--pairs", synth_dir / "pairs.jsonl",
            "--method", "mcce",
            "--hidden", "ambiance",
            "--out", model,
        ) == 0
        capsys.readouterr()
        effects = tmp_path / "e.jsonl"
        assert run(
            "explain",
            "--schema", synth_dir / "schema.json",
            "--samples", synth_dir / "samples.jsonl",
            "--pairs", synth_dir / "pairs.jsonl",
            "--method", "mcce",
            "--model", model,
            "--out", effects,
        ) == 0
        capsys.readouterr()
        meta = json.loads(effects.read_text().splitlines()[0])["meta"]
        dataset = mcce.load_dataset(*(synth_dir / name for name in ("samples.jsonl", "pairs.jsonl",
                                                                    "schema.json")))
        n_ambiance = int(np.sum(dataset.pairs.attribute == dataset.schema.names.index("ambiance")))
        assert meta["pairs_skipped"] == n_ambiance > 0
        assert meta["pairs_total"] == 150

        out = tmp_path / "eval"
        assert run(
            "evaluate",
            "--schema", synth_dir / "schema.json",
            "--samples", synth_dir / "samples.jsonl",
            "--pairs", synth_dir / "pairs.jsonl",
            "--effects", effects,
            "--metric", "l2",
            "--out", out,
        ) == 0
        printed = capsys.readouterr().out
        assert f"skipped={n_ambiance}" in printed
        report = read_report(out / "report_l2.json")
        assert report["metadata"]["pairs_evaluated"] == 150 - n_ambiance
        assert report["metadata"]["pairs_skipped"] == n_ambiance
        assert report["metadata"]["hidden"] == ["ambiance"]
        assert all(g["attribute"] != "ambiance" for g in report["groups"])

    def test_evaluate_skips_pairs_through_the_datasets_mask(self, synth_dir, tmp_path, capsys):
        # evaluate masks the dataset with the effects' hidden set; icace_error reads that mask
        model, effects, out = tmp_path / "m.json", tmp_path / "e.jsonl", tmp_path / "eval"
        assert run("fit", *dataset_flags(synth_dir), "--hidden", "food", "--out", model) == 0
        assert run("explain", *dataset_flags(synth_dir), "--method", "mcce", "--model", model,
                   "--out", effects) == 0
        assert run("evaluate", *dataset_flags(synth_dir), "--effects", effects, "--metric", "l2",
                   "--out", out) == 0
        capsys.readouterr()
        written = read_report(out / "report_l2.json")
        dataset = mcce.load_dataset(*(synth_dir / name for name in ("samples.jsonl", "pairs.jsonl",
                                                                    "schema.json")))
        estimates, meta = mcce.read_effects(effects, dataset.schema)
        report = mcce.icace_error(estimates, dataset.mask(meta["hidden"]), "l2")
        assert meta["hidden"] == written["metadata"]["hidden"] == ["food"]
        skipped = report.metadata["pairs_skipped"]
        assert skipped == meta["pairs_skipped"] == written["metadata"]["pairs_skipped"] > 0
        assert report.macro_mean == written["macro_mean"]

    def test_evaluate_refuses_space_mismatch(self, synth_dir, tmp_path, capsys):
        effects = tmp_path / "e.jsonl"
        assert run(
            "explain",
            "--schema", synth_dir / "schema.json",
            "--samples", synth_dir / "samples.jsonl",
            "--pairs", synth_dir / "pairs.jsonl",
            "--method", "oracle",
            "--ground-truth", synth_dir / "ground_truth.json",
            "--space", "probability",
            "--out", effects,
        ) == 0
        code = run(
            "evaluate",
            "--schema", synth_dir / "schema.json",
            "--samples", synth_dir / "samples.jsonl",
            "--pairs", synth_dir / "pairs.jsonl",
            "--effects", effects,
            "--space", "logit",
            "--out", tmp_path / "eval",
        )
        assert code == 2
        assert "probability" in capsys.readouterr().err

    def test_slearner_effects_on_logit_data_are_scored_in_probability_space(
        self, synth_dir, tmp_path, capsys
    ):
        # S-Learner effects are differences of predicted distributions, so
        # they are in probability space whatever space the data was loaded in
        model, effects = tmp_path / "m.json", tmp_path / "e.jsonl"
        flags = dataset_flags(synth_dir)
        assert run("fit", *flags, "--method", "slearner", "--space", "logit", "--out", model) == 0
        assert run(
            "explain", *flags, "--method", "slearner", "--model", model, "--space", "logit",
            "--out", effects,
        ) == 0
        meta = json.loads(effects.read_text().splitlines()[0])["meta"]
        assert meta["space"] == "probability"
        out = tmp_path / "eval"
        assert run(
            "evaluate", *flags, "--effects", effects, "--space", "probability", "--metric", "l2",
            "--out", out,
        ) == 0
        report = read_report(out / "report_l2.json")
        scored = meta["pairs_total"] - meta["pairs_skipped"]
        assert report["metadata"]["pairs_evaluated"] == scored > 0
        capsys.readouterr()
        code = run(
            "evaluate", *flags, "--effects", effects, "--space", "logit",
            "--out", tmp_path / "eval_logit",
        )
        assert code == 2
        assert "estimates are in 'probability' space" in capsys.readouterr().err

    def test_evaluate_rejects_a_repeated_metric(self, synth_dir, oracle_report, tmp_path, capsys):
        code = run(
            "evaluate", *dataset_flags(synth_dir),
            "--effects", oracle_report.parent / "effects.jsonl",
            "--metric", "l2,cosine,l2",
            "--out", tmp_path / "eval",
        )
        assert code == 2
        assert "metric 'l2' is given twice" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    def test_non_finite_effects_exit_3_without_traceback(self, synth_dir, tmp_path, capsys):
        model = tmp_path / "m.json"
        assert run("fit", *dataset_flags(synth_dir), "--method", "mcce", "--out", model) == 0
        capsys.readouterr()
        obj = json.loads(model.read_text())
        obj["concept_coef"] = [[1e308] * len(row) for row in obj["concept_coef"]]
        model.write_text(json.dumps(obj))  # each edited row sums several 1e308 to inf
        effects = tmp_path / "e.jsonl"
        proc = run_process(
            "explain", *dataset_flags(synth_dir), "--method", "mcce", "--model", model,
            "--out", effects,
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("numerical error: ") and "not finite" in proc.stderr
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert not effects.exists()


class TestExperiment:
    def test_run_layout(self, exp_seeds_dir):
        """mcce and slearner draw nothing, so each mask's run is written once; approx once per seed."""
        data, out = exp_seeds_dir
        schema = json.loads((data / "schema.json").read_text())
        names = [a["name"] for a in schema["attributes"]]
        for name in names:
            for method in ("mcce", "slearner"):
                run_dir = out / "runs" / method / name
                files = {"effects.jsonl", "effects.effect.npy", "model.json", "report_l2.json", "report_l2.csv"}
                assert {path.name for path in run_dir.iterdir()} == files, run_dir
                meta = json.loads((run_dir / "effects.jsonl").read_text().splitlines()[0])["meta"]
                assert meta["seed"] is None
            approx = out / "runs" / "approx" / name
            assert {path.name for path in approx.iterdir()} == {"seed0", "seed1"}
            for seed in (0, 1):
                assert (approx / f"seed{seed}" / "report_l2.json").exists()
                meta = json.loads((approx / f"seed{seed}" / "effects.jsonl").read_text().splitlines()[0])
                assert meta["meta"]["seed"] == seed

    def test_runs_equal_single_fits_and_explains(self, exp_seeds_dir, tmp_path):
        """Each mcce and slearner run is `fit --hidden <mask>` then `explain`, byte for byte."""
        data, out = exp_seeds_dir
        for mask in json.loads((out / "summary.json").read_text())["masks"]:
            for method in ("mcce", "slearner"):
                model, effects = tmp_path / f"{method}-{mask[0]}.json", tmp_path / f"{method}-{mask[0]}.jsonl"
                assert run(
                    "fit", *dataset_flags(data), "--method", method, "--hidden", ",".join(mask),
                    "--space", "probability", "--out", model,
                ) == 0
                assert run(
                    "explain", *dataset_flags(data), "--method", method, "--model", model,
                    "--space", "probability", "--out", effects,
                ) == 0
                run_dir = out / "runs" / method / "+".join(mask)
                assert effects_bytes(run_dir / "effects.jsonl") == effects_bytes(effects), (method, mask)
                assert (run_dir / "model.json").read_bytes() == model.read_bytes(), (method, mask)

    def test_seed_count_moves_only_approx(self, exp_dir, exp_seeds_dir):
        """A second seed adds approx runs; each mcce and slearner cell stays what one seed gives."""
        one, two = (json.loads((out / "summary.json").read_text()) for _, out in (exp_dir, exp_seeds_dir))
        cells = {(c["mask_size"], c["method"], c["metric"]): c for c in two["cells"]}
        for cell in one["cells"]:
            again = cells[cell["mask_size"], cell["method"], cell["metric"]]
            assert (again["mean"], again["std_masks"]) == (cell["mean"], cell["std_masks"])
            assert (again["n_seeds"], again["std_seeds"]) == (1, 0.0)
        assert cells[1, "approx", "l2"]["n_seeds"] == 2
        seeds = {}
        for row in two["runs"]:
            seeds.setdefault((row["method"], tuple(row["mask"])), []).append(row["seed"])
        assert all(seeds[key] == ([0, 1] if key[0] == "approx" else [None]) for key in seeds)
        assert len(seeds) == 3 * len(two["masks"])

    def test_summary_cells(self, exp_dir):
        data, out = exp_dir
        summary = json.loads((out / "summary.json").read_text())
        assert (out / "summary.csv").exists()
        cells = {(c["mask_size"], c["method"], c["metric"]): c for c in summary["cells"]}
        assert set(cells) == {(1, "mcce", "l2"), (1, "slearner", "l2")}
        schema = json.loads((data / "schema.json").read_text())
        for cell in cells.values():
            assert cell["n_masks"] == len(schema["attributes"])
            assert cell["n_seeds"] == 1
            assert cell["mean"] > 0.0

    def test_rerun_is_byte_identical(self, exp_dir, tmp_path):
        data, out = exp_dir
        again = tmp_path / "out2"
        assert main([
            "experiment",
            "--schema", str(data / "schema.json"),
            "--samples", str(data / "samples.jsonl"),
            "--pairs", str(data / "pairs.jsonl"),
            "--methods", "mcce,slearner",
            "--metrics", "l2",
            "--mask-sizes", "1",
            "--seeds", "0",
            "--out", str(again),
        ]) == 0
        assert digest(out / "summary.json") == digest(again / "summary.json")
        assert digest(out / "summary.csv") == digest(again / "summary.csv")

    def test_slearner_requires_probability(self, exp_dir, tmp_path, capsys):
        data, _ = exp_dir
        code = run(
            "experiment",
            "--schema", data / "schema.json",
            "--samples", data / "samples.jsonl",
            "--pairs", data / "pairs.jsonl",
            "--methods", "slearner",
            "--space", "logit",
            "--out", tmp_path / "o",
        )
        assert code == 2
        assert "probability" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--mask-sizes", ""], "at least one mask size is required"),
            (["--methods", "mcce,approx,mcce"], "method 'mcce' is given twice"),
            (["--metrics", "l2,l2"], "metric 'l2' is given twice"),
            (["--seeds", "0,0"], "seed 0 is given twice"),
            (["--mask-sizes", "1,1"], "mask size 1 is given twice"),
            (["--methods", "slearner,approx", "--j", "3"], "--j applies to the mcce method only"),
        ],
    )
    def test_empty_or_repeated_lists_exit_2(self, exp_dir, tmp_path, capsys, flags, message):
        data, _ = exp_dir
        code = run(
            "experiment", *dataset_flags(data), "--methods", "mcce", *flags, "--out", tmp_path / "o"
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", ["--j"])
    def test_fit_refuses_mcce_flags_without_mcce(self, exp_dir, tmp_path, capsys, flag):
        data, _ = exp_dir
        code = run(
            "fit", *dataset_flags(data), "--method", "slearner", "--space", "probability", flag, "3",
            "--out", tmp_path / "m.json",
        )
        assert code == 2
        assert f"{flag} applies to the mcce method only" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("command", ["fit", "experiment"])
    def test_ridge_is_no_option(self, exp_dir, tmp_path, capsys, command):
        # mcce solves by minimum-norm least squares only
        data, _ = exp_dir
        code = run(command, *dataset_flags(data), "--ridge", "0.01", "--out", tmp_path / "o")
        assert code == 2
        assert "unrecognized arguments: --ridge 0.01" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_fit_j_0_is_the_observed_only_regression(self, exp_dir, tmp_path, capsys):
        data, _ = exp_dir
        assert run("fit", *dataset_flags(data), "--j", "0", "--out", tmp_path / "m.json") == 0
        assert "n_pseudo=0 " in capsys.readouterr().out
        model = mcce.load_model(tmp_path / "m.json")
        assert model.n_pseudo == 0 and model.pseudo_coef.shape == (0, model.n_outputs)
        assert np.array_equal(model.effective_coef, model.concept_coef)

    @pytest.mark.parametrize("flag, value", [("--seed", "5"), ("--hidden", "food")])
    @pytest.mark.parametrize("method", ["mcce", "slearner", "oracle"])
    def test_explain_refuses_approx_flags_without_approx(
        self, exp_dir, tmp_path, capsys, method, flag, value
    ):
        data, _ = exp_dir
        given = {"mcce": ["--model", tmp_path / "m.json"], "slearner": ["--model", tmp_path / "m.json"],
                 "oracle": ["--ground-truth", data / "ground_truth.json"]}[method]
        code = run(
            "explain", *dataset_flags(data), "--method", method, *given, flag, value,
            "--out", tmp_path / "e.jsonl",
        )
        assert code == 2
        assert f"{flag} applies to the approx method only" in capsys.readouterr().err
        assert not (tmp_path / "e.jsonl").exists()

    def test_explain_approx_without_seed_uses_seed_0(self, exp_dir, tmp_path):
        data, _ = exp_dir
        for name, seed in (("default", []), ("zero", ["--seed", "0"])):
            assert run("explain", *dataset_flags(data), "--method", "approx", "--hidden", "food",
                       *seed, "--out", tmp_path / name / "e.jsonl") == 0
        for file in ("e.jsonl", "e.effect.npy"):
            assert (tmp_path / "default" / file).read_bytes() == (tmp_path / "zero" / file).read_bytes()

    def test_rank_collapse_warns_once_per_affected_mcce_run(self, tmp_path):
        config = default_config(n=150, seed=5)
        dataset, truth = generate(config)
        food = dataset.schema.names.index("food")
        codes = dataset.codes.copy()
        codes[codes[:, food] == 2, food] = 0  # no factual row has food=pos
        dataset = Dataset(dataset.schema, dataset.ids, codes, dataset.embeddings, dataset.outputs)
        save_dataset(make_pairs(dataset, config), tmp_path / "data")
        proc = run_process(
            "experiment", *dataset_flags(tmp_path / "data"),
            "--methods", "mcce,approx", "--metrics", "l2", "--mask-sizes", "1", "--seeds", "0,1",
            "--out", tmp_path / "o",
        )
        assert proc.returncode == 0, proc.stderr
        # food stays visible under three of the four masks; each is fit once for both seeds
        lines = proc.stderr.splitlines()
        assert len(lines) == 3, proc.stderr
        assert all(line.startswith("warning: concept design rank 6 is below 7") for line in lines)

    def test_fit_warnings_are_one_line_per_run(self, synth_dir, tmp_path):
        # under each one-attribute mask two residual directions rise above the rounding floor
        proc = run_process(
            "experiment", *dataset_flags(synth_dir),
            "--methods", "mcce", "--metrics", "l2", "--mask-sizes", "1", "--j", "16",
            "--out", tmp_path / "o",
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 4, proc.stderr
        assert all(line.startswith("warning: n_pseudo asks for 16 pseudo-concepts") for line in lines)


class TestReport:
    def test_report_csv(self, synth_dir, tmp_path, capsys):
        model = tmp_path / "m.json"
        assert run(
            "fit",
            "--schema", synth_dir / "schema.json",
            "--samples", synth_dir / "samples.jsonl",
            "--method", "mcce",
            "--out", model,
        ) == 0
        capsys.readouterr()
        csv_path = tmp_path / "report.csv"
        assert run("report", "--model", model, "--out", csv_path) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("attribute,level,class_0")
        schema = json.loads((synth_dir / "schema.json").read_text())
        n_levels = sum(len(a["levels"]) for a in schema["attributes"])
        assert len(lines) == 1 + n_levels
        # baseline class column is identically zero
        col = lines[0].split(",").index("class_0")
        assert all(float(line.split(",")[col]) == 0.0 for line in lines[1:])


class TestPredict:
    def test_predictions_and_score(self, synth_dir, tmp_path, capsys):
        model = tmp_path / "m.json"
        assert run(
            "fit",
            "--schema", synth_dir / "schema.json",
            "--samples", synth_dir / "samples.jsonl",
            "--method", "mcce",
            "--targets", "gold",
            "--out", model,
        ) == 0
        capsys.readouterr()
        preds = tmp_path / "predictions.jsonl"
        assert run(
            "predict",
            "--model", model,
            "--schema", synth_dir / "schema.json",
            "--samples", synth_dir / "samples.jsonl",
            "--out", preds,
        ) == 0
        out = capsys.readouterr().out
        assert "macro_f1" in out
        lines = read_table(preds)
        assert len(lines) == 300
        assert all(set(l) == {"id", "predicted", "gold"} for l in lines)
        score = float(out.split("macro_f1")[1].split()[0])
        assert 0.0 <= score <= 1.0

    def test_predict_needs_gold_model(self, synth_dir, tmp_path, capsys):
        model = tmp_path / "m.json"
        assert run(
            "fit",
            "--schema", synth_dir / "schema.json",
            "--samples", synth_dir / "samples.jsonl",
            "--method", "mcce",
            "--out", model,
        ) == 0
        capsys.readouterr()
        code = run(
            "predict",
            "--model", model,
            "--schema", synth_dir / "schema.json",
            "--samples", synth_dir / "samples.jsonl",
            "--out", tmp_path / "p.jsonl",
        )
        assert code == 2
        assert "gold" in capsys.readouterr().err

    def fit_gold_model(self, synth_dir, tmp_path, capsys):
        model = tmp_path / "m.json"
        assert run(
            "fit",
            "--schema", synth_dir / "schema.json",
            "--samples", synth_dir / "samples.jsonl",
            "--method", "mcce",
            "--targets", "gold",
            "--out", model,
        ) == 0
        capsys.readouterr()
        return model

    def test_prediction_lines_equal_per_row_dumps(self, synth_dir, tmp_path, capsys):
        model = self.fit_gold_model(synth_dir, tmp_path, capsys)
        rows = read_table(synth_dir / "samples.jsonl")
        for row in rows[::3]:
            row["gold"] = None
        samples = write_table(tmp_path / "samples.jsonl", rows)
        preds = tmp_path / "predictions.jsonl"
        flags = ["--schema", synth_dir / "schema.json", "--samples", samples]
        assert run("predict", "--model", model, *flags, "--out", preds) == 0
        assert "score omitted" in capsys.readouterr().out
        loaded = mcce.load_model(model)
        dataset = mcce.load_dataset(samples, None, synth_dir / "schema.json")
        predicted = mcce.predict_labels(loaded, dataset.mask(loaded.hidden_attributes)).tolist()
        want = '{"meta": {"columns": ["id", "predicted", "gold"]}}\n' + "".join(
            json.dumps([row["id"], label, row["gold"]]) + "\n"
            for row, label in zip(rows, predicted)
        )
        assert preds.read_text() == want

    def test_overflow_exits_3_without_traceback(self, synth_dir, tmp_path, capsys):
        model = self.fit_gold_model(synth_dir, tmp_path, capsys)
        obj = json.loads(model.read_text())
        obj["concept_coef"] = [[1e308] * len(row) for row in obj["concept_coef"]]
        model.write_text(json.dumps(obj))  # each design row sums several 1e308 to inf
        preds = tmp_path / "p.jsonl"
        proc = run_process(
            "predict", "--model", model, "--schema", synth_dir / "schema.json",
            "--samples", synth_dir / "samples.jsonl", "--out", preds,
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("numerical error: ") and "not finite" in proc.stderr
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert not preds.exists()

    def test_predict_empty_dataset(self, synth_dir, tmp_path, capsys):
        model = tmp_path / "m.json"
        assert run(
            "fit",
            "--schema", synth_dir / "schema.json",
            "--samples", synth_dir / "samples.jsonl",
            "--method", "mcce",
            "--targets", "gold",
            "--out", model,
        ) == 0
        capsys.readouterr()
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = run(
            "predict",
            "--model", model,
            "--schema", synth_dir / "schema.json",
            "--samples", empty,
            "--out", tmp_path / "p.jsonl",
        )
        assert code == 2
        capsys.readouterr()


class TestApproxExplain:
    def test_approx_runs_and_is_seeded(self, synth_dir, tmp_path):
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            assert run(
                "explain",
                "--schema", synth_dir / "schema.json",
                "--samples", synth_dir / "samples.jsonl",
                "--pairs", synth_dir / "pairs.jsonl",
                "--method", "approx",
                "--seed", "4",
                "--out", path,
            ) == 0
            outs.append(effects_bytes(path))
        assert outs[0] == outs[1]
        body = read_table(tmp_path / "a.jsonl")
        assert len(body) == 150
        assert all("effect" in row for row in body)

    def test_experiment_runs_equal_single_explains(self, synth_dir, tmp_path):
        """Each approx run of an experiment (one batch per mask and seed) is `explain`'s, byte for byte."""
        out = tmp_path / "exp"
        assert run(
            "experiment", *dataset_flags(synth_dir), "--methods", "approx", "--metrics", "l2",
            "--mask-sizes", "1,2", "--seeds", "0,1", "--out", out,
        ) == 0
        masks = json.loads((out / "summary.json").read_text())["masks"]
        assert len(masks) == 10
        for mask in masks:
            for seed in (0, 1):
                single = tmp_path / f"{'+'.join(mask)}-{seed}.jsonl"
                assert run(
                    "explain", *dataset_flags(synth_dir), "--method", "approx",
                    "--hidden", ",".join(mask), "--seed", seed, "--space", "probability",
                    "--out", single,
                ) == 0
                effects = out / "runs" / "approx" / "+".join(mask) / f"seed{seed}" / "effects.jsonl"
                assert effects_bytes(effects) == effects_bytes(single), (mask, seed)


def dataset_flags(data):
    return [
        "--schema", data / "schema.json",
        "--samples", data / "samples.jsonl",
        "--pairs", data / "pairs.jsonl",
    ]


def oracle_lines(oracle_report, tmp_path):
    """The lines of the oracle's effects file, whose .npy file is copied into `tmp_path`."""
    effects = oracle_report.parent / "effects.jsonl"
    copy_arrays(effects, tmp_path)
    return effects.read_text().splitlines()


def test_approx_explains_an_id_that_holds_a_lone_surrogate(synth_dir, tmp_path):
    # a JSON "\ud800" escape carries one, which a strict UTF-8 encode of the pair seed's key refuses
    root = array_file_copy(synth_dir, tmp_path / "data")
    for name in ("samples.jsonl", "pairs.jsonl"):
        path = root / name
        path.write_text(path.read_text().replace('"s000000"', '"s000000\\ud800"'))
    out = tmp_path / "e.jsonl"
    assert run("explain", *dataset_flags(root), "--method", "approx", "--out", out) == 0
    assert '\n["s000000\\ud800", ' in out.read_text()


class TestLoaderErrors:
    """Malformed input files exit 2 with a message, never with a traceback."""

    def evaluate(self, synth_dir, tmp_path, lines=None):
        """`mcce evaluate` of e.jsonl in `tmp_path`, first written from `lines` if they are given."""
        effects = tmp_path / "e.jsonl"
        if lines is not None:
            write_lines(effects, lines)
        out = tmp_path / "eval"
        return run("evaluate", *dataset_flags(synth_dir), "--effects", effects, "--out", out)

    def evaluate_with_meta(self, synth_dir, oracle_report, tmp_path, key, value):
        """`mcce evaluate` of the oracle's effects with `key` of the meta line set to `value`."""
        def edit(head):
            head["meta"][key] = value
        lines = edit_line(1, edit)(oracle_lines(oracle_report, tmp_path))
        return self.evaluate(synth_dir, tmp_path, lines)

    def test_effects_meta_must_be_an_object(self, synth_dir, tmp_path, capsys):
        assert self.evaluate(synth_dir, tmp_path, ['{"meta": [1]}']) == 2
        assert "meta" in capsys.readouterr().err

    def test_effects_meta_hidden_must_be_names(self, synth_dir, oracle_report, tmp_path, capsys):
        assert self.evaluate_with_meta(synth_dir, oracle_report, tmp_path, "hidden", 5) == 2
        err = capsys.readouterr().err
        assert "e.jsonl:1: 'meta.hidden'" in err and "Traceback" not in err

    def test_effects_meta_hidden_must_name_schema_attributes(self, synth_dir, oracle_report, tmp_path, capsys):
        assert self.evaluate_with_meta(synth_dir, oracle_report, tmp_path, "hidden", ["zzz"]) == 2
        assert "e.jsonl:1: hidden attributes not in schema: ['zzz']" in capsys.readouterr().err

    @pytest.mark.parametrize("column, name, message", [
        ("attribute", "nosuch", "unknown attribute 'nosuch'"),
        ("from", "zzz", "'from' 'zzz' is no level of attribute"),
        ("to", "zzz", "'to' 'zzz' is no level of attribute"),
    ])
    def test_effects_rows_must_name_schema_attributes_and_levels(
        self, synth_dir, oracle_report, tmp_path, capsys, column, name, message
    ):
        # an extra estimate that names what the schema lacks once matched no pair and was ignored
        lines = oracle_lines(oracle_report, tmp_path)
        meta = json.loads(lines[0])["meta"]
        row = json.loads(lines[1])
        row[meta["columns"].index(column)] = name
        effect = np.load(tmp_path / meta["effect"])
        np.save(tmp_path / meta["effect"], np.vstack([effect, effect[:1]]))
        assert self.evaluate(synth_dir, tmp_path, [*lines, json.dumps(row)]) == 2
        assert f"e.jsonl:{len(lines) + 1}: {message}" in capsys.readouterr().err

    def test_effects_meta_method_and_space_must_be_strings(
        self, synth_dir, oracle_report, tmp_path, capsys
    ):
        assert self.evaluate_with_meta(synth_dir, oracle_report, tmp_path, "space", 5) == 2
        err = capsys.readouterr().err
        assert "e.jsonl:1: 'meta.space' must be string" in err and "Traceback" not in err

    @pytest.mark.parametrize("key", ["method", "space"])
    def test_effects_meta_method_and_space_are_required(
        self, synth_dir, oracle_report, tmp_path, capsys, key
    ):
        # a file without a space once failed in evaluate as "estimates are in None space"
        def drop(head):
            del head["meta"][key]
        lines = edit_line(1, drop)(oracle_lines(oracle_report, tmp_path))
        assert self.evaluate(synth_dir, tmp_path, lines) == 2
        assert f"e.jsonl:1: missing required key 'meta.{key}'" in capsys.readouterr().err
        assert self.evaluate_with_meta(synth_dir, oracle_report, tmp_path, key, None) == 2
        assert f"e.jsonl:1: 'meta.{key}' must be string" in capsys.readouterr().err

    def test_effects_meta_space_must_name_a_space(self, synth_dir, oracle_report, tmp_path, capsys):
        assert self.evaluate_with_meta(synth_dir, oracle_report, tmp_path, "space", "logits") == 2
        message = "e.jsonl:1: 'meta.space' must be one of ('logit', 'probability'), got 'logits'"
        assert message in capsys.readouterr().err

    ESTIMATE = {"sample_id": "s000000", "attribute": "food", "from": "neg", "to": "pos",
                "effect": [0.0] * 5}

    def test_effects_fallback_must_be_boolean(self, synth_dir, tmp_path, capsys):
        write_table(tmp_path / "e.jsonl", [{**self.ESTIMATE, "fallback": "no"}], {"method": "approx"})
        assert self.evaluate(synth_dir, tmp_path) == 2
        assert "e.jsonl:2: 'fallback' must be boolean" in capsys.readouterr().err

    def fit_with(self, synth_dir, tmp_path, line, key, value):
        """`mcce fit` on a copy of the samples with `key` on line `line` set to `value`."""
        rows = read_table(synth_dir / "samples.jsonl")
        rows[line - 2][key] = value  # line 1 is the meta line
        samples = write_table(tmp_path / "samples.jsonl", rows)
        flags = ["--schema", synth_dir / "schema.json", "--samples", samples]
        return run("fit", *flags, "--out", tmp_path / "m.json")

    def test_sample_id_must_be_a_string(self, synth_dir, tmp_path, capsys):
        assert self.fit_with(synth_dir, tmp_path, 3, "id", ["x"]) == 2
        assert "samples.jsonl:3: 'id' must be string" in capsys.readouterr().err

    def test_samples_must_be_utf8(self, synth_dir, tmp_path, capsys):
        samples = tmp_path / "samples.jsonl"
        samples.write_bytes(b'{"id": "\xff"}\n')
        flags = ["--schema", synth_dir / "schema.json", "--samples", samples]
        assert run("fit", *flags, "--out", tmp_path / "m.json") == 2
        assert "samples.jsonl: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("gold", [1.5, True])
    def test_gold_must_be_an_integer(self, synth_dir, tmp_path, capsys, gold):
        assert self.fit_with(synth_dir, tmp_path, 2, "gold", gold) == 2
        assert "samples.jsonl:2: 'gold' must be integer or null" in capsys.readouterr().err

    def test_effect_must_be_numbers(self, synth_dir, tmp_path, capsys):
        write_table(tmp_path / "e.jsonl", [self.ESTIMATE], {"method": "mcce"})
        np.save(tmp_path / "e.effect.npy", np.array([["abc"] * 5]))
        assert self.evaluate(synth_dir, tmp_path) == 2
        err = capsys.readouterr().err
        assert "e.effect.npy: must hold a '<f8' matrix" in err and "Traceback" not in err

    # Float matrices take float64 only: numpy alone would read the string
    # "0.5" as 0.5 and true as 1.0, and the command would exit 0.

    @pytest.mark.parametrize("key, bad", [("embedding", "0.5"), ("logits", True)])
    def test_sample_rows_must_hold_numbers(self, synth_dir, tmp_path, capsys, key, bad):
        root = array_file_copy(synth_dir, tmp_path / "data")
        matrix = np.load(root / f"samples.{key}.npy").astype(type(bad))
        matrix[3, 0] = bad
        np.save(root / f"samples.{key}.npy", matrix)
        flags = ["--schema", root / "schema.json", "--samples", root / "samples.jsonl"]
        assert run("fit", *flags, "--out", tmp_path / "m.json") == 2
        err = capsys.readouterr().err
        assert f"samples.{key}.npy: must hold a '<f8' matrix" in err and "Traceback" not in err

    def test_effect_rows_must_hold_numbers(self, synth_dir, oracle_report, tmp_path, capsys):
        lines = oracle_lines(oracle_report, tmp_path)
        matrix = np.load(tmp_path / "effects.effect.npy").astype(str)
        matrix[1, 1] = "0.5"
        np.save(tmp_path / "effects.effect.npy", matrix)
        assert self.evaluate(synth_dir, tmp_path, lines) == 2
        err = capsys.readouterr().err
        assert "effects.effect.npy: must hold a '<f8' matrix" in err and "Traceback" not in err

    def fitted(self, synth_dir, tmp_path, method):
        """Path and JSON object of a `method` model fit on the synth data."""
        model = tmp_path / "m.json"
        flags = ["--schema", synth_dir / "schema.json", "--samples", synth_dir / "samples.jsonl"]
        assert run("fit", *flags, "--method", method, "--out", model) == 0
        return model, json.loads(model.read_text())

    @pytest.mark.parametrize(
        "method, key, bad", [("mcce", "concept_coef", "1.5"), ("slearner", "bias", False)]
    )
    def test_model_matrices_must_hold_numbers(self, synth_dir, tmp_path, capsys, method, key, bad):
        model, obj = self.fitted(synth_dir, tmp_path, method)
        if key == "bias":
            obj[key][0] = bad
        else:
            obj[key][0][0] = bad
        model.write_text(json.dumps(obj))
        capsys.readouterr()
        code = run(
            "explain", *dataset_flags(synth_dir), "--method", method, "--model", model,
            "--space", "probability" if method == "slearner" else "logit",
            "--out", tmp_path / "e.jsonl",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"m.json: {key!r} must hold only numbers" in err and "Traceback" not in err

    # Model scalars take their own JSON type only: bool(), int(), float()
    # and str() would read "false" as True and "7" as 7.

    @pytest.mark.parametrize(
        "method, key, bad, kind",
        [
            ("slearner", "converged", "false", "boolean"),
            ("slearner", "converged", None, "boolean"),
            ("slearner", "grad_norm", None, "number"),
            ("mcce", "diagnostics", [], "object"),
            ("slearner", "iterations", "7", "integer"),
            ("slearner", "iterations", True, "integer"),
            ("slearner", "final_loss", "0.5", "number"),
            ("slearner", "input_space", 1, "string"),
            ("mcce", "space", 1, "string"),
            ("mcce", "target_kind", None, "string"),
            ("mcce", "n_pseudo", 2.0, "integer"),
            ("mcce", "ridge", False, "number"),
            ("mcce", "hidden", "ab", "a list of strings"),
        ],
    )
    def test_model_scalars_must_have_their_json_type(
        self, synth_dir, tmp_path, capsys, method, key, bad, kind
    ):
        model, obj = self.fitted(synth_dir, tmp_path, method)
        obj[key] = bad
        model.write_text(json.dumps(obj))
        capsys.readouterr()
        code = run(
            "explain", *dataset_flags(synth_dir), "--method", method, "--model", model,
            "--space", "probability" if method == "slearner" else "logit",
            "--out", tmp_path / "e.jsonl",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"m.json: {key!r} must be {kind}" in err and "Traceback" not in err
        assert not (tmp_path / "e.jsonl").exists()

    # Files written before mcce had one solve carry "ridge"; only 0 reads.

    @pytest.mark.parametrize("ridge", [0, 0.0])
    def test_model_fit_at_ridge_0_still_loads(self, synth_dir, tmp_path, ridge):
        model, obj = self.fitted(synth_dir, tmp_path, "mcce")
        old = tmp_path / "old.json"
        old.write_text(json.dumps({**obj, "ridge": ridge}))
        # model files round-trip bit-exactly, so equal bytes are the same model
        again = mcce.save_model(mcce.load_model(old), tmp_path / "again.json")
        assert again.read_bytes() == model.read_bytes()

    @pytest.mark.parametrize("ridge", [0.01, 5, -1.0])
    def test_ridge_fitted_model_exits_2(self, synth_dir, tmp_path, capsys, ridge):
        model, obj = self.fitted(synth_dir, tmp_path, "mcce")
        model.write_text(json.dumps({**obj, "ridge": ridge}))
        capsys.readouterr()
        assert run("report", "--model", model, "--out", tmp_path / "r.csv") == 2
        err = capsys.readouterr().err
        assert "m.json: 'ridge' must be 0" in err and "Traceback" not in err
        assert not (tmp_path / "r.csv").exists()

    # Every key a model file records is required: no reader fills one in.

    @pytest.mark.parametrize(
        "method, key", [("slearner", "converged"), ("slearner", "grad_norm"), ("mcce", "diagnostics")]
    )
    def test_model_keys_are_required(self, synth_dir, tmp_path, capsys, method, key):
        model, obj = self.fitted(synth_dir, tmp_path, method)
        del obj[key]
        model.write_text(json.dumps(obj))
        capsys.readouterr()
        code = run(
            "explain", *dataset_flags(synth_dir), "--method", method, "--model", model,
            "--space", "probability" if method == "slearner" else "logit",
            "--out", tmp_path / "e.jsonl",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"m.json: missing required key {key!r}" in err and "Traceback" not in err

    def test_model_with_a_ragged_matrix_exits_2(self, synth_dir, tmp_path, capsys):
        model, obj = self.fitted(synth_dir, tmp_path, "mcce")
        obj["concept_coef"][0].append(0.5)
        model.write_text(json.dumps(obj))
        capsys.readouterr()
        assert run("report", "--model", model, "--out", tmp_path / "r.csv") == 2
        assert "m.json: malformed model document" in capsys.readouterr().err

    @pytest.mark.parametrize("key, bad", [("outcome_coef", "0.5")])
    def test_ground_truth_must_hold_numbers(self, synth_dir, tmp_path, capsys, key, bad):
        obj = json.loads((synth_dir / "ground_truth.json").read_text())
        obj[key][0][0] = bad
        assert self.oracle(synth_dir, tmp_path, json.dumps(obj)) == 2
        err = capsys.readouterr().err
        assert f"ground_truth.json: {key!r} must hold only numbers" in err
        assert not (tmp_path / "e.jsonl").exists()

    def oracle(self, synth_dir, tmp_path, truth_text):
        truth = tmp_path / "ground_truth.json"
        truth.write_text(truth_text)
        return run(
            "explain", *dataset_flags(synth_dir), "--method", "oracle",
            "--ground-truth", truth, "--out", tmp_path / "e.jsonl",
        )

    @pytest.mark.parametrize("edited", ["itself", "a row with other labels"])
    def test_pairs_must_change_exactly_one_label(self, synth_dir, tmp_path, capsys, edited):
        samples = read_table(synth_dir / "samples.jsonl")
        rows = read_table(synth_dir / "pairs.jsonl")
        first = next(row["concepts"] for row in samples if row["id"] == rows[0]["original_id"])
        if edited == "itself":
            rows[0]["edited_id"], differ = rows[0]["original_id"], "no attribute"
        else:
            other = next(row for row in samples if sum(first[a] != row["concepts"][a] for a in first) == 2)
            rows[0]["edited_id"] = other["id"]
            differ = ", ".join(repr(a) for a in first if first[a] != other["concepts"][a])
        pairs = write_table(tmp_path / "pairs.jsonl", rows)
        out = tmp_path / "m.json"
        assert run("fit", *dataset_flags(synth_dir)[:4], "--pairs", pairs, "--out", out) == 2
        err = capsys.readouterr().err
        message = f"pair {rows[0]['original_id']!r}->{rows[0]['edited_id']!r}: labels differ in {differ},"
        assert message in err and "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize(
        "table, fault",
        [("samples", "label"), ("samples", "gold"), ("samples", "negative gold"), ("pairs", "id")],
    )
    def test_a_bad_row_names_its_file_and_line(self, synth_dir, tmp_path, capsys, table, fault):
        files = {name: synth_dir / f"{name}.jsonl" for name in ("samples", "pairs")}
        rows = read_table(files[table])
        if fault == "label":
            attribute = next(iter(rows[3]["concepts"]))
            rows[3]["concepts"][attribute] = "POS"
            message = f"sample {rows[3]['id']!r}: illegal label {attribute}='POS'"
        elif fault == "gold":  # an integer, but none that int64 holds
            rows[3]["gold"] = 2**70
            message = f"gold label {2**70} is too large"
        elif fault == "negative gold":
            rows[3]["gold"] = -3
            message = "gold label must be >= 0"
        else:
            rows[3]["original_id"] = "nobody"
            message = "pair references unknown sample 'nobody'"
        files[table] = write_table(tmp_path / f"{table}.jsonl", rows)
        out = tmp_path / "m.json"
        flags = ("--samples", files["samples"], "--pairs", files["pairs"], "--out", out)
        assert run("fit", "--schema", synth_dir / "schema.json", *flags) == 2
        err = capsys.readouterr().err
        assert f"error: {files[table]}:5: {message}\n" in err  # row 3 follows the meta line
        assert "Traceback" not in err and not out.exists()

    def test_ground_truth_rejects_nan(self, synth_dir, tmp_path, capsys):
        obj = json.loads((synth_dir / "ground_truth.json").read_text())
        obj["outcome_coef"][0][0] = float("nan")
        assert self.oracle(synth_dir, tmp_path, json.dumps(obj)) == 2  # bare NaN token
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "e.jsonl").exists()

    @pytest.mark.parametrize("change", ["drop_row", "add_row"])
    def test_ground_truth_must_fit_the_schema_width(self, synth_dir, tmp_path, capsys, change):
        obj = json.loads((synth_dir / "ground_truth.json").read_text())
        coef = obj["outcome_coef"]
        obj["outcome_coef"] = coef[:-1] if change == "drop_row" else coef + coef[:1]
        assert self.oracle(synth_dir, tmp_path, json.dumps(obj)) == 2
        err = capsys.readouterr().err
        rows = 11 if change == "drop_row" else 13
        assert f"ground_truth.json: 'outcome_coef' has {rows} rows" in err, err
        assert "one-hot layout has 12 columns" in err and "Traceback" not in err
        assert not (tmp_path / "e.jsonl").exists()

    def test_ground_truth_with_legacy_keys_still_loads(self, synth_dir, tmp_path):
        text = (synth_dir / "ground_truth.json").read_text()
        assert self.oracle(synth_dir, tmp_path, text) == 0
        expected = (tmp_path / "e.jsonl").read_bytes()
        obj = json.loads(text)
        # files written before the oracle was computed from outcome_coef
        # also held each row's clean logits, keyed by sample id; older files
        # also held the data seed and a hidden set, which no command reads
        obj["labels"], obj["pairs"], obj["seed"], obj["hidden"] = {}, [], 5, ["zzz", 1]
        obj["clean_logits"] = {"s000000": [0.0] * len(obj["outcome_coef"][0])}
        assert self.oracle(synth_dir, tmp_path, json.dumps(obj)) == 0
        assert (tmp_path / "e.jsonl").read_bytes() == expected

    def test_synth_config_rejects_nan(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"n": 20, "outcome_noise": NaN}')
        assert run("synth", "--config", config, "--out", tmp_path / "d") == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "obj, key",
        [({"n": 20, "n_clases": 3}, "n_clases"), ({"n": 20, "exo_dim": 3}, "exo_dim")],
    )
    def test_synth_config_rejects_an_unknown_key(self, tmp_path, capsys, obj, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(obj))
        assert run("synth", "--config", config, "--out", tmp_path / "d") == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("form", ["generated", "explicit"])
    @pytest.mark.parametrize("key, value", [("hidden", ["food"]), ("exact_recovery", False)])
    def test_synth_config_refuses_run_settings(self, tmp_path, capsys, form, key, value):
        # a run hides attributes (fit and explain --hidden); a config describes the draw only
        obj = {"n": 20, key: value} if form == "generated" else self.explicit_config(**{key: value})
        config = tmp_path / "config.json"
        config.write_text(json.dumps(obj))
        assert run("synth", "--config", config, "--out", tmp_path / "d") == 2
        err = capsys.readouterr().err
        assert f"config.json: unknown key {key!r} for a {form} config" in err and "Traceback" not in err
        assert not (tmp_path / "d").exists()

    @staticmethod
    def explicit_config(**changes):
        config = default_config(n=20, seed=1)
        return {
            "n": 20, "exo_dim": config.exo_dim, **config.schema.to_obj(),
            "mixing": {name: m.tolist() for name, m in config.mixing.items()},
            "embed_map": config.embed_map.tolist(),
            "outcome_coef": config.outcome_coef.tolist(),
            **changes,
        }

    @pytest.mark.parametrize(
        "form, changes, key, kind",
        [
            ("generated", {"seed": 2.7}, "seed", "integer"),  # read with int() it ran as seed 2
            ("explicit", {"seed": 2.7}, "seed", "integer"),
            ("generated", {"edits_per_sample": True}, "edits_per_sample", "integer"),
            ("generated", {"embed_dim": True}, "embed_dim", "integer"),  # a knob
            ("generated", {"confounding": "1"}, "confounding", "number"),
            ("explicit", {"n": True}, "n", "integer"),
        ],
    )
    def test_synth_config_values_must_have_their_json_type(
        self, tmp_path, capsys, form, changes, key, kind
    ):
        obj = {"n": 20, **changes} if form == "generated" else self.explicit_config(**changes)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(obj))
        assert run("synth", "--config", config, "--out", tmp_path / "d") == 2
        err = capsys.readouterr().err
        assert f"config.json: {key!r} must be {kind}" in err and "Traceback" not in err
        assert not (tmp_path / "d").exists()

    def test_synth_config_explicit_form_passes_its_scalars(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        obj = self.explicit_config(seed=3, outcome_noise=1, edits_per_sample=2)
        config.write_text(json.dumps(obj))
        loaded, edits = mcce.load_synth_config(config)
        assert (loaded.n, loaded.seed, edits) == (20, 3, 2)
        assert type(loaded.outcome_noise) is float and loaded.outcome_noise == 1.0
        assert run("synth", "--config", config, "--out", tmp_path / "d") == 0
        assert "wrote 60 samples (20 factual)" in capsys.readouterr().out

    def test_synth_config_needs_an_output_column(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 20, "n_classes": 0}))
        assert run("synth", "--config", config, "--out", tmp_path / "d") == 2
        assert "at least one column" in capsys.readouterr().err

    BAD_ATTRIBUTES = [
        # a string of levels was read as its characters, numbers as their text
        ([{"name": "a", "levels": "xy"}, {"name": "b", "levels": ["u", "v"]}],
         "schema attribute 'a': 'levels' must be a list of strings"),
        ([{"name": 5, "levels": [1, 2]}], "schema attribute entry: 'name' must be string"),
        ([{"name": "a", "levels": ["x", 2]}], "schema attribute 'a': 'levels' must be a list of strings"),
    ]

    @pytest.mark.parametrize("attributes, message", BAD_ATTRIBUTES)
    def test_schema_file_names_and_levels_must_be_strings(
        self, synth_dir, tmp_path, capsys, attributes, message
    ):
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"attributes": attributes}))
        code = run(
            "fit", "--schema", schema, "--samples", synth_dir / "samples.jsonl",
            "--out", tmp_path / "m.json",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"schema.json: {message}" in err and "Traceback" not in err

    @pytest.mark.parametrize("attributes, message", BAD_ATTRIBUTES)
    def test_synth_config_names_and_levels_must_be_strings(self, tmp_path, capsys, attributes, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 20, "attributes": attributes}))
        assert run("synth", "--config", config, "--out", tmp_path / "d") == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "d").exists()

    # The JSONL reader decodes 1024 lines per call and falls back to one
    # call per line on any doubt; these pin what the fallback reports.

    @pytest.fixture(scope="class")
    def long_data(self, tmp_path_factory):
        """A dataset whose samples file spans two decoder chunks."""
        root = tmp_path_factory.mktemp("long")
        config = root / "config.json"
        config.write_text(json.dumps({"n": 1100, "seed": 2, "edits_per_sample": 0}))
        assert run("synth", "--config", config, "--out", root / "data") == 0
        return root / "data"

    def fit_lines(self, data, tmp_path, lines):
        """`mcce fit` on samples.jsonl lines `lines`, beside copies of the .npy files of `data`."""
        copy_arrays(data / "samples.jsonl", tmp_path)
        samples = write_lines(tmp_path / "samples.jsonl", lines)
        flags = ["--schema", data / "schema.json", "--samples", samples]
        return run("fit", *flags, "--out", tmp_path / "m.json")

    def test_record_split_over_lines_is_invalid_json(self, synth_dir, tmp_path, capsys):
        lines = ['{"a": [{}', "{}]}", '{"x":1}, {"y":2}']  # one array once joined
        assert self.fit_lines(synth_dir, tmp_path, lines) == 2
        err = capsys.readouterr().err
        assert "samples.jsonl:1: invalid JSON" in err and "Traceback" not in err

    def test_nan_past_a_chunk_boundary_names_its_line(self, long_data, tmp_path, capsys):
        lines = (long_data / "samples.jsonl").read_text().splitlines()
        row = json.loads(lines[1024])
        row[json.loads(lines[0])["meta"]["columns"].index("gold")] = float("nan")
        lines[1024] = json.dumps(row)  # a bare NaN token on line 1025
        assert self.fit_lines(long_data, tmp_path, lines) == 2
        err = capsys.readouterr().err
        assert "samples.jsonl:1025: non-finite" in err and "Traceback" not in err

    def test_blank_lines_across_a_chunk_boundary_keep_line_numbers(
        self, long_data, tmp_path, capsys
    ):
        rows = (long_data / "samples.jsonl").read_text().splitlines()
        bad = rows[1024][:-1]  # line 1025, without its closing bracket
        lines = [*rows[:1023], "", rows[1023], "", "  ", bad, *rows[1025:]]
        assert self.fit_lines(long_data, tmp_path, lines) == 2
        err = capsys.readouterr().err
        assert "samples.jsonl:1028: invalid JSON" in err and "Traceback" not in err

    def test_missing_concept_label_is_named(self, synth_dir, tmp_path, capsys):
        lines = (synth_dir / "samples.jsonl").read_text().splitlines()
        row = json.loads(lines[3])
        row[json.loads(lines[0])["meta"]["columns"].index("concepts")][1] = None  # food
        lines[3] = json.dumps(row)
        assert self.fit_lines(synth_dir, tmp_path, lines) == 2
        err = capsys.readouterr().err
        assert "samples.jsonl:4: missing label for 'food'" in err and "Traceback" not in err


class TestUnusablePaths:
    """A directory where a file belongs, or a file where a directory does, exits 2 naming the path."""

    def assert_refused(self, code, capsys, path):
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {path}: " in err and "Traceback" not in err

    def test_fit_out_is_a_directory(self, synth_dir, tmp_path, capsys):
        # refused before the dataset is read, so no fit runs
        out = tmp_path / "model"
        out.mkdir()
        self.assert_refused(run("fit", *dataset_flags(synth_dir), "--out", out), capsys, out)
        assert [path.name for path in tmp_path.iterdir()] == ["model"] and not any(out.iterdir())

    def test_evaluate_out_is_a_file(self, synth_dir, oracle_report, tmp_path, capsys):
        out = tmp_path / "eval"
        out.write_text("")
        effects = oracle_report.parent / "effects.jsonl"
        code = run("evaluate", *dataset_flags(synth_dir), "--effects", effects, "--out", out)
        self.assert_refused(code, capsys, out)
        assert [path.name for path in tmp_path.iterdir()] == ["eval"] and out.read_text() == ""

    @staticmethod
    def command(name, synth_dir, out, effects):
        """`name`'s argv with `--out out`; report and predict name a model file that does not exist."""
        data = dataset_flags(synth_dir)
        return {
            "synth": ["synth", "--config", synth_dir / "missing.json"],
            "fit": ["fit", *data, "--method", "slearner"],
            "explain": ["explain", *data, "--method", "approx"],
            "evaluate": ["evaluate", *data, "--effects", effects],
            "experiment": ["experiment", *data, "--methods", "approx", "--mask-sizes", "1"],
            "report": ["report", "--model", synth_dir / "missing.json"],
            "predict": ["predict", "--model", synth_dir / "missing.json", "--schema",
                        synth_dir / "schema.json", "--samples", synth_dir / "samples.jsonl"],
        }[name] + ["--out", out]

    @pytest.mark.parametrize(
        "name, kind",
        [
            ("fit", "directory"), ("explain", "directory"), ("explain", "array directory"),
            ("report", "directory"), ("predict", "directory"),
            ("synth", "file"), ("evaluate", "file"), ("experiment", "file"),
            *((name, "below a file") for name in
              ("synth", "fit", "explain", "evaluate", "experiment", "report", "predict")),
        ],
    )
    def test_output_path_is_refused_before_any_work(self, name, kind, synth_dir, oracle_report,
                                                      tmp_path, capsys):
        out = tmp_path / "out"
        if kind == "directory":  # a file output that is a directory
            out.mkdir()
            strerror = "Is a directory"
        elif kind == "array directory":  # explain's effect matrix goes to <stem>.effect.npy
            (tmp_path / "out.effect.npy").mkdir()
            strerror = "Is a directory"
        elif kind == "file":  # a directory output that is a file
            out.write_text("")
            strerror = "Not a directory"
        else:
            (tmp_path / "file").write_text("")
            out = tmp_path / "file" / "out"
            strerror = "Not a directory"
        before = sorted(tmp_path.rglob("*"))
        code = run(*self.command(name, synth_dir, out, oracle_report.parent / "effects.jsonl"))
        path = tmp_path / "out.effect.npy" if kind == "array directory" else out
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"error: {path}: {strerror}" in captured.err and "Traceback" not in captured.err
        assert sorted(tmp_path.rglob("*")) == before

    def test_samples_is_a_directory(self, synth_dir, tmp_path, capsys):
        samples = tmp_path / "samples.jsonl"
        samples.mkdir()
        code = run("fit", "--schema", synth_dir / "schema.json", "--samples", samples,
                   "--out", tmp_path / "m.json")
        self.assert_refused(code, capsys, samples)
        assert [path.name for path in tmp_path.iterdir()] == ["samples.jsonl"]


def test_experiment_mask_size_must_leave_an_attribute_visible(synth_dir, tmp_path, capsys):
    code = run(
        "experiment", *dataset_flags(synth_dir), "--methods", "mcce",
        "--mask-sizes", "4", "--out", tmp_path / "o",
    )
    assert code == 2
    assert "[1, 3]" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()



def edit_line(number, edit):
    """A change to a list of JSONL lines: line `number`, decoded, goes through `edit`."""
    def change(lines):
        value = json.loads(lines[number - 1])
        value = edit(value) or value
        return [*lines[: number - 1], json.dumps(value), *lines[number:]]
    return change


def set_columns(columns):
    def edit(head):
        head["meta"]["columns"] = columns
    return edit_line(1, edit)


def drop_column(name):
    """A change that takes column `name` out of a table's header and rows."""
    def change(lines):
        head, *rows = map(json.loads, lines)
        at = head["meta"]["columns"].index(name)
        for row in [head["meta"]["columns"], *rows]:
            del row[at]
        return [json.dumps(head), *map(json.dumps, rows)]
    return change


def samples_with(synth_dir, root, change):
    """A copy of the synth data in `root` whose samples.jsonl lines went through `change`."""
    samples = array_file_copy(synth_dir, root) / "samples.jsonl"
    return write_lines(samples, change(samples.read_text().splitlines()))


def floats_in(value):
    """Whether decoded JSON `value` holds a float at any depth."""
    if isinstance(value, dict):
        value = list(value.values())
    return type(value) is float or isinstance(value, list) and any(map(floats_in, value))


SAMPLE_COLUMNS = ["id", "concepts", "gold"]


class TestTableLayout:
    """Every JSONL file mcce writes is a table; a malformed one exits 2 naming its file and line."""

    def test_every_jsonl_file_starts_with_a_meta_line_naming_its_columns(
        self, synth_dir, oracle_report, exp_dir, tmp_path, capsys
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 20, "seed": 1, "edits_per_sample": 0}))
        assert run("synth", "--config", config, "--out", tmp_path / "d") == 0
        model = tmp_path / "m.json"
        flags = ["--schema", synth_dir / "schema.json", "--samples", synth_dir / "samples.jsonl"]
        assert run("fit", *flags, "--targets", "gold", "--out", model) == 0
        assert run("predict", "--model", model, *flags, "--out", tmp_path / "p.jsonl") == 0
        approx = ["--method", "approx", "--out", tmp_path / "a.jsonl"]
        assert run("explain", *dataset_flags(synth_dir), *approx) == 0
        capsys.readouterr()
        roots = (synth_dir, oracle_report.parent, *exp_dir, tmp_path)
        paths = [path for root in roots for path in sorted(root.rglob("*.jsonl"))]
        # samples, pairs, effects and predictions: written by synth, explain, experiment, predict
        assert {path.name for path in paths} >= {"samples.jsonl", "pairs.jsonl", "effects.jsonl",
                                                 "p.jsonl", "a.jsonl"}
        for path in paths:
            first, *rows = path.read_text().splitlines()
            assert first.startswith('{"meta": {'), path
            columns = json.loads(first)["meta"]["columns"]
            assert columns and all(type(name) is str for name in columns), path
            # floats live in .npy files only
            assert not any(floats_in(json.loads(row)) for row in rows), path

    @pytest.mark.parametrize("flags", [[False, False], [False, True]])
    def test_fallback_column_only_when_an_estimate_is_flagged(self, tmp_path, flags):
        schema = mcce.ConceptSchema.of([("a", ("x", "y"))])
        effects = mcce.Effects(schema, ["s0", "s1"], [0, 0], [0, 0], [1, 1], np.zeros((2, 1)),
                               "approx", "logit", flags)
        path = mcce.write_effects(tmp_path / "e.jsonl", effects, {})
        head, *rows = map(json.loads, path.read_text().splitlines())
        flagged = ["fallback"] if any(flags) else []
        assert head["meta"]["columns"] == ["sample_id", "attribute", "from", "to", *flagged]
        assert head["meta"]["effect"] == "e.effect.npy"
        assert [row[4:] for row in rows] == [[flag][: len(flagged)] for flag in flags]
        assert mcce.read_effects(path, schema)[0].fallback.tolist() == flags

    MALFORMED = [
        (set_columns("id"), ":1: 'meta.columns' must be a list of distinct strings"),
        (set_columns([*SAMPLE_COLUMNS, "id"]), ":1: 'meta.columns' must be a list of distinct strings"),
        (set_columns([1, *SAMPLE_COLUMNS[1:]]), ":1: 'meta.columns' must be a list of distinct strings"),
        (drop_column("concepts"), ":1: 'meta.columns' lacks the required column 'concepts'"),
        # a misspelled optional column once read as its default: every gold label null
        (set_columns(["id", "concepts", "gld"]), ":1: unknown column 'gld'; the columns are id, concepts, gold"),
        (edit_line(3, lambda row: row[:-1]), ":3: expected a JSON array of 3 values, one per column"),
        (edit_line(3, lambda row: "s"), ":3: expected a JSON array of 3 values, one per column"),
        (edit_line(3, lambda row: dict(zip(SAMPLE_COLUMNS, row))),
         ":3: expected a JSON array of 3 values, one per column"),
    ]

    @pytest.mark.parametrize("change, message", MALFORMED)
    def test_malformed_header_or_row_exits_2(self, synth_dir, tmp_path, capsys, change, message):
        samples = samples_with(synth_dir, tmp_path / "data", change)
        flags = ["--schema", synth_dir / "schema.json", "--samples", samples]
        assert run("fit", *flags, "--out", tmp_path / "m.json") == 2
        err = capsys.readouterr().err
        assert f"samples.jsonl{message}" in err and "Traceback" not in err

    def test_dropped_optional_column_reads_as_its_default(self, synth_dir, tmp_path, capsys):
        samples = samples_with(synth_dir, tmp_path / "data", drop_column("gold"))
        dataset = mcce.load_dataset(samples, synth_dir / "pairs.jsonl", synth_dir / "schema.json")
        assert (dataset.gold == -1).all() and len(dataset) == 300


def object_rows(rows):
    """`rows` as lines of one JSON object each and no meta line, as files before the table layout."""
    return [json.dumps(row) for row in rows]


def inline_table(rows, meta):
    """`rows` as a table with the float columns inline, as files before the .npy layout."""
    head = json.dumps({"meta": {**meta, "columns": list(rows[0])}})
    return [head, *(json.dumps(list(row.values())) for row in rows)]


class TestOlderLayouts:
    """A file in a layout that earlier versions wrote exits 2 at its line 1.

    The message names what the meta line lacks.
    """

    SAMPLES_NEED = "must list 'columns' and name the .npy file of 'embedding', 'logits'"
    EFFECTS_NEED = "must list 'columns' and name the .npy file of 'effect'"

    @pytest.mark.parametrize("layout, message", [
        ("object rows", 'samples.jsonl:1: expected a meta line, {"meta": {...}}; it ' + SAMPLES_NEED),
        ("inline floats",
         "samples.jsonl:1: 'meta' lacks 'embedding', 'logits'; the meta line " + SAMPLES_NEED),
    ])
    def test_samples(self, synth_dir, tmp_path, capsys, layout, message):
        rows = read_table(synth_dir / "samples.jsonl")
        lines = object_rows(rows) if layout == "object rows" else inline_table(rows, {})
        samples = write_lines(tmp_path / "samples.jsonl", lines)
        flags = ["--schema", synth_dir / "schema.json", "--samples", samples]
        assert run("fit", *flags, "--out", tmp_path / "m.json") == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("layout, message", [
        # before method and space moved to the meta line, every row stated them
        ("method and space per row",
         "e.jsonl:1: 'meta' lacks 'columns', 'effect'; the meta line " + EFFECTS_NEED),
        ("inline floats", "e.jsonl:1: 'meta' lacks 'effect'; the meta line " + EFFECTS_NEED),
    ])
    def test_effects(self, synth_dir, oracle_report, tmp_path, capsys, layout, message):
        rows = read_table(oracle_report.parent / "effects.jsonl")
        stated = {"method": "oracle", "space": "logit"}
        if layout == "inline floats":
            lines = inline_table(rows, stated)
        else:
            lines = ['{"meta": {"seed": null}}', *object_rows({**row, **stated, "fallback": False}
                                                               for row in rows)]
        effects = write_lines(tmp_path / "e.jsonl", lines)
        code = run("evaluate", *dataset_flags(synth_dir), "--effects", effects, "--out", tmp_path / "o")
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_pairs_that_state_their_edit(self, synth_dir, tmp_path, capsys):
        # before an edit was read off the two rows' labels, each pair also stated it
        rows = read_table(synth_dir / "pairs.jsonl")
        stated = [{**row, "attribute": "food", "from": "pos", "to": "neg"} for row in rows]
        pairs = write_table(tmp_path / "pairs.jsonl", stated)
        assert run("fit", *dataset_flags(synth_dir)[:4], "--pairs", pairs, "--out", tmp_path / "m.json") == 2
        err = capsys.readouterr().err
        message = "pairs.jsonl:1: unknown column 'attribute'; the columns are original_id, edited_id"
        assert message in err and "Traceback" not in err

    def test_an_empty_samples_file_lacks_its_meta_line(self, synth_dir, tmp_path, capsys):
        samples = write_lines(tmp_path / "samples.jsonl", [])
        flags = ["--schema", synth_dir / "schema.json", "--samples", samples]
        assert run("fit", *flags, "--out", tmp_path / "m.json") == 2
        assert "samples.jsonl:1: expected a meta line" in capsys.readouterr().err


def nul(name):
    """`name` with U+0000 after it, which numpy string arrays would drop."""
    return name + "\x00"


class TestNulInNames:
    """A name in a file that holds U+0000 exits 2: numpy string arrays drop trailing NULs,
    so "x\\x00" would read as "x"."""

    def fit(self, data, tmp_path, samples=None, pairs=None, schema=None):
        return run(
            "fit", "--schema", schema or data / "schema.json",
            "--samples", samples or data / "samples.jsonl",
            "--pairs", pairs or data / "pairs.jsonl", "--out", tmp_path / "m.json",
        )

    @pytest.mark.parametrize("where, message", [
        ("name", "schema.json: attribute names and levels must not hold U+0000"),
        ("level", "schema.json: schema attribute 'ambiance': 'levels' must not hold U+0000"),
    ])
    def test_schema_names_and_levels(self, synth_dir, tmp_path, capsys, where, message):
        obj = json.loads((synth_dir / "schema.json").read_text())
        first = obj["attributes"][0]
        if where == "name":
            first["name"] = nul(first["name"])
        else:  # levels "x" and "x\x00" were one level once numpy held them
            first["levels"].append(nul(first["levels"][0]))
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps(obj))
        assert self.fit(synth_dir, tmp_path, schema=schema) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("column", ["id", "concepts"])
    def test_sample_ids_and_labels(self, synth_dir, tmp_path, capsys, column):
        def edit(row):
            if column == "id":
                row[0] = nul(row[0])
            else:
                row[1][1] = nul(row[1][1])  # food
        samples = samples_with(synth_dir, tmp_path / "data", edit_line(2, edit))
        assert self.fit(synth_dir, tmp_path, samples=samples) == 2
        err = capsys.readouterr().err
        assert f"samples.jsonl:2: {column!r} must not hold U+0000" in err and "Traceback" not in err

    def test_pairs(self, synth_dir, tmp_path, capsys):
        rows = read_table(synth_dir / "pairs.jsonl")
        rows[0]["edited_id"] = nul(rows[0]["edited_id"])
        pairs = write_table(tmp_path / "pairs.jsonl", rows)
        assert self.fit(synth_dir, tmp_path, pairs=pairs) == 2
        err = capsys.readouterr().err
        assert "pairs.jsonl:2: 'edited_id' must not hold U+0000" in err and "Traceback" not in err

    @pytest.mark.parametrize("where, message", [
        ("name", "m.json: attribute names and levels must not hold U+0000"),
        ("level", "m.json: schema attribute 'ambiance': 'levels' must not hold U+0000"),
    ])
    def test_model_schema_names_the_model_file(self, synth_dir, tmp_path, capsys, where, message):
        model = tmp_path / "m.json"
        flags = ["--schema", synth_dir / "schema.json", "--samples", synth_dir / "samples.jsonl"]
        assert run("fit", *flags, "--targets", "gold", "--out", model) == 0
        obj = json.loads(model.read_text())
        first = obj["schema"]["attributes"][0]
        if where == "name":
            first["name"] = nul(first["name"])
        else:
            first["levels"].append(nul(first["levels"][0]))
        model.write_text(json.dumps(obj))
        capsys.readouterr()
        assert run("predict", "--model", model, *flags, "--out", tmp_path / "p.jsonl") == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("line, message", [
        (1, "e.jsonl:1: 'meta.hidden' must not hold U+0000"),
        (2, "e.jsonl:2: 'to' must not hold U+0000"),
    ])
    def test_effects_columns_and_hidden(self, synth_dir, oracle_report, tmp_path, capsys, line,
                                        message):
        def edit(value):
            if line == 1:
                value["meta"]["hidden"] = [nul("food")]
            else:
                value[3] = nul(value[3])
        lines = edit_line(line, edit)(oracle_lines(oracle_report, tmp_path))
        effects = write_lines(tmp_path / "e.jsonl", lines)
        code = run("evaluate", *dataset_flags(synth_dir), "--effects", effects, "--out", tmp_path / "o")
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


@pytest.mark.parametrize("seed", [{"x": [1, 2]}, "0", 1.5, True])
def test_evaluate_rejects_a_seed_that_is_not_an_integer(synth_dir, oracle_report, tmp_path, capsys,
                                                         seed):
    def edit(head):
        head["meta"]["seed"] = seed
    lines = edit_line(1, edit)(oracle_lines(oracle_report, tmp_path))
    effects = write_lines(tmp_path / "e.jsonl", lines)
    code = run("evaluate", *dataset_flags(synth_dir), "--effects", effects, "--out", tmp_path / "o")
    assert code == 2
    err = capsys.readouterr().err
    assert "e.jsonl:1: 'meta.seed' must be integer or null" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("label", [1, None, True, ["pos"], {"x": "pos"}])
def test_concept_labels_must_be_strings(synth_dir, tmp_path, capsys, label):
    # labels were turned into strings, so a food label 1 fit against a level "1"
    change = edit_line(4, lambda row: row[1].__setitem__(1, label))  # food
    samples = samples_with(synth_dir, tmp_path / "data", change)
    flags = ["--schema", synth_dir / "schema.json", "--samples", samples]
    assert run("fit", *flags, "--out", tmp_path / "m.json") == 2
    err = capsys.readouterr().err
    wrong = "missing label for 'food'" if label is None else "'concepts' values must be strings"
    assert f"samples.jsonl:4: {wrong}" in err
    assert "Traceback" not in err


def array_file_copy(synth_dir, root):
    """A copy of the synth schema, samples with their .npy files, and pairs, in `root`."""
    root.mkdir()
    for name in ("schema.json", "samples.jsonl", "samples.embedding.npy", "samples.logits.npy",
                 "pairs.jsonl"):
        shutil.copy(synth_dir / name, root / name)
    return root


def save_in(path, edit):
    """Rewrite .npy file `path` with `edit(matrix)`."""
    np.save(path, edit(np.load(path)))


def with_nan(matrix):
    matrix[7, 1] = np.nan
    return matrix


def with_inf(matrix):
    matrix[-1, 0] = -np.inf
    return matrix


def pickled(path):
    rows = np.empty(300, dtype=object)
    rows[:] = [[0.0] * 16] * 300
    np.save(path, rows, allow_pickle=True)


def npz(path):
    with open(path, "wb") as handle:
        np.savez(handle, embedding=np.zeros((300, 16)))


def truncate(length):
    def change(path):
        path.write_bytes(path.read_bytes()[:length])
    return change


BAD_ARRAY_FILES = {
    "missing": lambda path: path.unlink(),
    "float32": lambda path: save_in(path, lambda m: m.astype(np.float32)),
    "big-endian": lambda path: save_in(path, lambda m: m.astype(">f8")),
    "1-D": lambda path: save_in(path, lambda m: m[:, 0]),
    "short": lambda path: save_in(path, lambda m: m[:-1]),
    "long": lambda path: save_in(path, lambda m: np.vstack([m, m[:1]])),
    "nan": lambda path: save_in(path, with_nan),
    "inf": lambda path: save_in(path, with_inf),
    "pickled": pickled,
    "npz": npz,
    "truncated data": truncate(1000),
    "truncated header": truncate(40),
    "empty": truncate(0),
    "directory": lambda path: (path.unlink(), path.mkdir()),
}


class TestArrayFiles:
    """Samples and effects tables keep their float columns in .npy files that their meta lines name.

    Each file must hold a finite '<f8' matrix of one row per row of its
    table, read without unpickling; anything else exits 2 naming the file.
    The samples are read by `mcce fit` and the effects by `mcce evaluate`.
    """

    @pytest.fixture
    def root(self, synth_dir, oracle_report, tmp_path):
        """A copy of the synth data and of the oracle's effects file with its .npy file."""
        root = array_file_copy(synth_dir, tmp_path / "data")
        for name in ("effects.jsonl", "effects.effect.npy"):
            shutil.copy(oracle_report.parent / name, root / name)
        return root

    @staticmethod
    def table(key):
        return "effects" if key == "effect" else "samples"

    def read(self, root, tmp_path, key):
        """(exit code, output path) of the command that reads the table holding `key`."""
        if key == "effect":
            out = tmp_path / "eval"
            flags = ["--effects", root / "effects.jsonl", "--out", out]
            return run("evaluate", *dataset_flags(root), *flags), out
        out = tmp_path / "m.json"
        flags = ["--schema", root / "schema.json", "--samples", root / "samples.jsonl"]
        return run("fit", *flags, "--out", out), out

    @pytest.mark.parametrize("key", ["embedding", "logits", "effect"])
    @pytest.mark.parametrize("case", list(BAD_ARRAY_FILES))
    def test_a_bad_array_file_exits_2_naming_it(self, root, tmp_path, capsys, key, case):
        path = root / f"{self.table(key)}.{key}.npy"
        BAD_ARRAY_FILES[case](path)
        code, out = self.read(root, tmp_path, key)
        assert code == 2
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err
        assert not out.exists()

    BAD_NAMES = [
        "../data/samples.embedding.npy", "sub/samples.embedding.npy", "sub\\samples.embedding.npy",
        str(Path(__file__).resolve()), ".", "..", "", 5, None, ["samples.embedding.npy"],
        {"file": "samples.embedding.npy"},
    ]

    def read_with_name(self, root, tmp_path, key, name):
        """The exit code of reading the table holding `key` once its meta line names `name` for it."""
        (root / "sub").mkdir()
        shutil.copy(root / "samples.embedding.npy", root / "sub")
        def edit(head):
            head["meta"][key] = name
        table = root / f"{self.table(key)}.jsonl"
        write_lines(table, edit_line(1, edit)(table.read_text().splitlines()))
        return self.read(root, tmp_path, key)[0]

    @pytest.mark.parametrize("name", BAD_NAMES)
    def test_meta_must_name_a_file_in_the_same_directory(self, root, tmp_path, capsys, name):
        assert self.read_with_name(root, tmp_path, "embedding", name) == 2
        err = capsys.readouterr().err
        assert "samples.jsonl:1: 'meta.embedding' must be the name of a file in its directory" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", BAD_NAMES)
    def test_effects_meta_must_name_a_file_in_the_same_directory(self, root, tmp_path, capsys, name):
        assert self.read_with_name(root, tmp_path, "effect", name) == 2
        err = capsys.readouterr().err
        assert "effects.jsonl:1: 'meta.effect' must be the name of a file in its directory" in err
        assert "Traceback" not in err

    def test_a_column_both_inline_and_in_a_file_exits_2(self, root, tmp_path, capsys):
        def edit(head):
            head["meta"]["columns"].append("logits")
        samples = root / "samples.jsonl"
        write_lines(samples, edit_line(1, edit)(samples.read_text().splitlines()))
        assert self.read(root, tmp_path, "logits")[0] == 2
        err = capsys.readouterr().err
        assert "samples.jsonl:1: column 'logits' is both in 'meta.columns' and in a file" in err

    def test_a_logits_file_without_a_column_exits_2_naming_it(self, root, tmp_path, capsys):
        path = root / "samples.logits.npy"
        save_in(path, lambda m: m[:, :0])
        code, out = self.read(root, tmp_path, "logits")
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert str(path) in err and "at least one column" in err and "Traceback" not in err
        # every command loads the logits, approx too
        assert run("explain", *dataset_flags(root), "--method", "approx", "--out", tmp_path / "a.jsonl") == 2
        assert str(path) in capsys.readouterr().err

    def test_an_embedding_without_a_column_stops_only_what_reads_it(self, root, synth_dir, tmp_path, capsys):
        path = root / "samples.embedding.npy"
        save_in(path, lambda m: m[:, :0])
        flags = dataset_flags(root)
        model = tmp_path / "mcce.json"
        assert run("fit", *flags, "--method", "mcce", "--out", model) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "at least one column" in err and "Traceback" not in err
        assert not model.exists()
        # the S-Learner, approx and the oracle read no embedding
        slearner = tmp_path / "slearner.json"
        assert run("fit", *flags, "--method", "slearner", "--out", slearner) == 0
        for method, source in (("slearner", ["--model", slearner]), ("approx", []),
                               ("oracle", ["--ground-truth", synth_dir / "ground_truth.json"])):
            out = tmp_path / f"{method}.jsonl"
            assert run("explain", *flags, "--method", method, *source, "--out", out) == 0, method
        capsys.readouterr()

    def test_moved_dataset_reads_its_files_beside_the_table(self, root, synth_dir):
        moved = mcce.load_dataset(root / "samples.jsonl", synth_dir / "pairs.jsonl",
                                  root / "schema.json")
        here = mcce.load_dataset(synth_dir / "samples.jsonl", synth_dir / "pairs.jsonl",
                                 synth_dir / "schema.json")
        for column in ("embeddings", "outputs"):
            assert getattr(moved, column).tobytes() == getattr(here, column).tobytes()
