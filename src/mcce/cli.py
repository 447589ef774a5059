"""Command-line pipeline: synth, fit, explain, evaluate, experiment, report, predict.

Exit codes: 0 success, 2 validation failure (bad flags, schemas, files,
labels, or a path that cannot be read or written), 3 numerical failure.
All output files are written atomically and contain no timestamps, so
identical inputs and seeds reproduce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import importlib
import itertools
import os
import stat
import sys
import warnings
from pathlib import Path

import numpy as np

from .data import (
    _ID_CODEC,
    SPACE_LOGIT,
    SPACE_PROBABILITY,
    FLOAT_COLUMNS,
    SPACES,
    Dataset,
    array_path,
    csv_text,
    load_dataset,
    save_dataset,
    write_json,
    write_jsonl,
    write_text_atomic,
)
from .errors import NumericalError, ValidationError
from .evaluation import METRICS, icace_error, macro_f1, match_effects
from .explainers import (
    TARGET_GOLD,
    TARGET_OUTPUT,
    Effects,
    build_label_index,
    explain_approx,
    explain_mcce,
    explain_slearner,
    fit_mcce,
    fit_slearner,
    global_report,
    load_model,
    predict_labels,
    read_effects,
    save_model,
    write_effects,
)
from .synthetic import (
    float_rows,
    generate,
    load_ground_truth,
    load_synth_config,
    make_pairs,
    oracle_effect,
    save_ground_truth,
)

EXPLAIN_METHODS = ("mcce", "slearner", "approx", "oracle")
EXPERIMENT_METHODS = ("mcce", "slearner", "approx")
SUMMARY_COLUMNS = ("mask_size", "method", "metric", "mean", "std_masks", "std_seeds", "n_masks", "n_seeds")


def _split_csv(value: str) -> list[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


def _parse_hidden(value: str | None) -> frozenset[str]:
    return frozenset(_split_csv(value)) if value else frozenset()


def _distinct(items: list, what: str) -> list:
    """`items`, which must hold at least one value and none twice; `what` names one."""
    if not items:
        raise ValidationError(f"at least one {what} is required")
    seen = set()
    for item in items:
        if item in seen:
            raise ValidationError(f"{what} {item!r} is given twice")
        seen.add(item)
    return items


def _parse_metrics(value: str) -> list[str]:
    metrics = _distinct(_split_csv(value), "metric")
    for metric in metrics:
        if metric not in METRICS:
            raise ValidationError(f"unknown metric {metric!r}, expected one of {METRICS}")
    return metrics


def _parse_seeds(value: str) -> list[int]:
    try:
        seeds = [int(item) for item in _split_csv(value)]
    except ValueError:
        raise ValidationError(f"seeds must be a comma-separated list of integers, got {value!r}") from None
    return _distinct(seeds, "seed")


def _sha256():
    """CPython's own SHA-256 constructor: `hashlib.sha256` maps OpenSSL, about 3.3 MB of RSS."""
    for module in ("_sha2", "_sha256"):  # Python 3.12+, then 3.10 and 3.11
        try:
            return importlib.import_module(module).sha256
        except ImportError:
            pass
    import hashlib  # an interpreter built without them

    return hashlib.sha256


def _pair_seeds(dataset: Dataset, run_seed: int) -> np.ndarray:
    """A stable 64-bit seed for each of `dataset.unique_pairs()`, in that order (uint64).

    A pair's seed is the first 8 bytes, big-endian, of the sha256 of the
    text "{run_seed}|{original id}|{attribute}|{target level}" encoded as
    UTF-8 with "surrogatepass", as ids are: a JSON "\\ud800" escape can
    put a lone surrogate in an id or a name. UTF-8 encodes each code
    point apart, so the key is built from the ids' stored bytes and each
    level's encoded "|{attribute}|{level}". It does not depend on the
    mask, so one array serves every mask of a run seed.
    """
    sha256, pairs, schema = _sha256(), dataset.pairs, dataset.schema
    unique = dataset.unique_pairs()
    # "|{attribute}|{level}" of each column of the complete one-hot layout, encoded once
    suffixes = [
        f"|{name}|{level}".encode(*_ID_CODEC) for name, levels in schema.attributes for level in levels
    ]
    columns = schema.offsets[pairs.attribute[unique]] + pairs.to[unique]
    prefix = f"{run_seed}|".encode()
    keys = zip(dataset.ids[pairs.original[unique]].tolist(), columns.tolist())
    digests = b"".join(sha256(prefix + sid + suffixes[column]).digest()[:8] for sid, column in keys)
    return np.frombuffer(digests, dtype=">u8").astype(np.uint64)


def _check_outputs(files=(), directories=()) -> None:
    """Refuse an output path that its write would refuse, before any input is read.

    A file path must not be a directory and a directory path must not be
    anything else; an ancestor that is not a directory refuses either
    (`os.stat` raises NotADirectoryError). A missing path, or a missing
    ancestor, is what the write creates. Creates nothing.
    """
    for paths, want_dir, code in ((files, False, errno.EISDIR), (directories, True, errno.ENOTDIR)):
        for path in paths:
            try:
                is_dir = stat.S_ISDIR(os.stat(path).st_mode)
            except FileNotFoundError:
                continue
            if is_dir != want_dir:
                raise OSError(code, os.strerror(code), str(path))


# ---------------------------------------------------------------------------
# fit/explain/evaluate plumbing shared by the single-step commands and cmd_experiment


@contextlib.contextmanager
def _warnings_to_stderr():
    """Print each Python warning raised in the block as one `warning: <message>` line on stderr.

    The warning filters in force still apply: a warning they ignore
    prints nothing, and one they make an error raises.
    """
    with warnings.catch_warnings(record=True) as caught:
        try:
            yield
        finally:
            for warning in caught:
                print(f"warning: {warning.message}", file=sys.stderr)


def _fit(dataset: Dataset, method: str, j, targets: str):
    """Fit `method` on the dataset's visible attributes and return the model.

    `j` is mcce's pseudo-concept count. Each warning of the fit (an
    S-Learner that stops at its step cap, an mcce pseudo-concept count
    that keeps fewer directions than it might) is one `warning:` line on
    stderr, and so is an mcce concept design of less than full rank.
    """
    if method == "slearner":
        if targets == TARGET_GOLD:
            raise ValidationError("predictor mode (gold targets) is mcce-only")
        with _warnings_to_stderr():
            return fit_slearner(dataset)
    with _warnings_to_stderr():
        model = fit_mcce(dataset, n_pseudo=j, target_kind=targets)
    rank = model.diagnostics["design_rank"]
    # each block's columns sum to the ones vector, so a visible design
    # that observes every level in general position has this rank
    visible = dataset.schema.visible_mask(dataset.hidden_attributes)
    full_rank = dataset.visible_width - int(visible.sum()) + 1
    if rank < full_rank:
        print(
            f"warning: concept design rank {rank} is below {full_rank}: "
            "some visible level is never observed, or levels always co-occur, "
            "so their effects are not identified",
            file=sys.stderr,
        )
    return model


@np.errstate(over="ignore", invalid="ignore")  # write_effects reports non-finite estimates
def _explain(dataset: Dataset, method: str, model, seed: int, truth=None, pair_seeds=None):
    """Estimate the first pair of each key, in pairs-file order.

    The dataset's mask is the run's: mcce and slearner skip (and count)
    pairs that edit an attribute it hides. approx skips none and breaks
    each estimate's ties by its pair's seed from `pair_seeds`, the
    `_pair_seeds` of the dataset and `seed`. Only approx records `seed`;
    the other methods draw nothing and record null. Returns (effects,
    metadata): the effects file's contents, to which `write_effects`
    adds the estimates' method and space.
    """
    p = dataset.pairs
    pairs = dataset.unique_pairs()
    skipped = 0
    if method in ("mcce", "slearner"):
        visible = dataset.schema.visible_mask(dataset.hidden_attributes)
        skipped = int(np.sum(~visible[p.attribute]))
        pairs = pairs[visible[p.attribute[pairs]]]
    rows, attribute, to = p.original[pairs], p.attribute[pairs], p.to[pairs]
    space, fallback = dataset.space, None
    if method == "mcce":
        effect = explain_mcce(model, dataset, rows, attribute, to)
    elif method == "slearner":
        effect, space = explain_slearner(model, dataset, rows, attribute, to), SPACE_PROBABILITY
    elif method == "approx":
        index = build_label_index(dataset)
        effect, fallback = explain_approx(dataset, rows, attribute, to, pair_seeds, index)
    elif method == "oracle":
        effect = oracle_effect(truth, dataset, dataset.space)[pairs]
    else:
        raise ValidationError(f"unknown method {method!r}")
    effects = Effects.for_pairs(dataset, pairs, effect, method, space, fallback)
    metadata = {
        "method": method,
        "hidden": sorted(dataset.hidden_attributes),
        "seed": seed if method == "approx" else None,
        "pairs_total": len(p),
        "pairs_skipped": skipped,
    }
    return effects, metadata


def _reports(dataset, effects, metrics, metadata) -> dict:
    """One report per metric, all scored from one match of the estimates to the pairs (`match_effects`).

    Pairs that edit an attribute the dataset's mask hides may lack an estimate.
    """
    match = match_effects(effects, dataset)
    return {
        metric: icace_error(effects, dataset, metric, metadata=dict(metadata), match=match)
        for metric in metrics
    }


def _write_reports(out_dir: Path, reports: dict) -> None:
    for metric, report in reports.items():
        write_json(out_dir / f"report_{metric}.json", report.to_json_obj())
        write_text_atomic(out_dir / f"report_{metric}.csv", report.to_csv())


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    _check_outputs(directories=[args.out])
    config, edits_per_sample = load_synth_config(args.config)
    out_dir = Path(args.out)
    # the datasets hold ids, codes, gold and pairs; the float rows go to the files a block at a time
    dataset, truth = generate(config, floats=False)
    if edits_per_sample > 0:
        dataset = make_pairs(dataset, config, edits_per_sample, floats=False)
    save_dataset(dataset, out_dir, float_rows(config, dataset.codes, dataset.pairs.original))
    save_ground_truth(truth, out_dir / "ground_truth.json")
    print(
        f"synth: wrote {len(dataset)} samples ({config.n} factual), "
        f"{len(dataset.pairs)} pairs to {out_dir}"
    )
    return 0


def cmd_fit(args) -> int:
    if args.method == "slearner" and args.j is not None:
        raise ValidationError("--j applies to the mcce method only")
    hidden = _parse_hidden(args.hidden)
    _check_outputs(files=[args.out])
    mcce = args.method == "mcce"  # which reads the embeddings
    dataset = load_dataset(args.samples, args.pairs, args.schema, space=args.space, embedding=mcce)
    # a fit reads the factual rows only, and the S-Learner no embedding
    floats = ("outputs",) if args.method == "slearner" else FLOAT_COLUMNS
    dataset = dataset.keep(dataset.fit_rows, floats).mask(hidden)
    model = _fit(dataset, args.method, args.j, args.targets)
    if args.method == "mcce":
        d = model.diagnostics
        print(
            f"fit mcce: n_fit={d['n_fit']} k_vis={dataset.visible_width} "
            f"n_pseudo={model.n_pseudo} design_rank={d['design_rank']} "
            f"residual_sos={d['fit_residual_sos']:.6e} orthogonality_max={d['orthogonality_max']:.6e}"
        )
    else:
        print(
            f"fit slearner: n_fit={dataset.fit_rows.size} "
            f"k_vis={dataset.visible_width} iterations={model.iterations} "
            f"converged={model.converged} grad_norm={model.grad_norm:.6e} "
            f"final_loss={model.final_loss:.6e}"
        )
    save_model(model, args.out)
    print(f"fit: wrote model to {args.out}")
    return 0


def cmd_explain(args) -> int:
    method = args.method
    model = truth = pair_seeds = None
    if method == "oracle" and not args.ground_truth:
        raise ValidationError("--ground-truth is required for method 'oracle'")
    if method in ("mcce", "slearner") and not args.model:
        raise ValidationError(f"--model is required for method {method!r}")
    if method != "approx" and args.seed is not None:
        raise ValidationError("--seed applies to the approx method only")
    if method != "approx" and args.hidden is not None:  # the mask is the model's, or none
        raise ValidationError("--hidden applies to the approx method only")
    seed = 0 if args.seed is None else args.seed
    _check_outputs(files=[args.out, array_path(args.out, "effect")])
    mcce = method == "mcce"
    dataset = load_dataset(args.samples, args.pairs, args.schema, space=args.space, embedding=mcce)
    if method == "oracle":  # the oracle reads labels only
        dataset = dataset.keep(columns=())
        truth = load_ground_truth(args.ground_truth)
    elif method in ("mcce", "slearner"):  # these read the pairs' original rows only
        floats = ("outputs",) if method == "slearner" else FLOAT_COLUMNS
        dataset = dataset.keep(np.unique(dataset.pairs.original), floats)
        model = load_model(args.model)
        if model.kind != method:
            raise ValidationError(f"model file holds a {model.kind!r} model, requested {method!r}")
        dataset = dataset.mask(model.hidden_attributes)
    elif method == "approx":  # approx reads every row's labels and outputs
        dataset = dataset.keep(columns=("outputs",)).mask(_parse_hidden(args.hidden))
        pair_seeds = _pair_seeds(dataset, seed)

    try:
        effects, metadata = _explain(dataset, method, model, seed, truth, pair_seeds)
    except ValidationError as exc:
        if truth is None:
            raise
        raise ValidationError(f"{args.ground_truth}: {exc}") from exc  # the truth and dataset disagree
    write_effects(args.out, effects, metadata)
    print(
        f"explain {method}: wrote {len(effects)} estimates to {args.out} "
        f"({metadata['pairs_skipped']} hidden-attribute pairs skipped)"
    )
    return 0


def cmd_evaluate(args) -> int:
    metrics = _parse_metrics(args.metric)
    _check_outputs(directories=[args.out])
    dataset = load_dataset(args.samples, args.pairs, args.schema, space=args.space)
    dataset = dataset.keep(columns=("outputs",))  # scoring reads no embedding
    effects, meta = read_effects(args.effects, dataset.schema)
    dataset = dataset.mask(meta.get("hidden", ()))  # the estimating run's mask
    hidden = sorted(dataset.hidden_attributes)
    metadata = {"method": effects.method, "hidden": hidden, "seed": meta.get("seed")}
    reports = _reports(dataset, effects, metrics, metadata)
    _write_reports(Path(args.out), reports)
    for metric in metrics:
        report = reports[metric]
        print(
            f"evaluate {metric}: macro_mean={report.macro_mean:.6e} "
            f"macro_std={report.macro_std:.6e} groups={len(report.groups)} "
            f"pairs={report.metadata['pairs_evaluated']} "
            f"skipped={report.metadata['pairs_skipped']}"
        )
    return 0


def cmd_experiment(args) -> int:
    methods = _distinct(_split_csv(args.methods), "method")
    for method in methods:
        if method not in EXPERIMENT_METHODS:
            raise ValidationError(
                f"unknown experiment method {method!r}, expected one of {EXPERIMENT_METHODS}"
            )
    if args.j is not None and "mcce" not in methods:
        raise ValidationError("--j applies to the mcce method only")
    metrics = _parse_metrics(args.metrics)
    seeds = _parse_seeds(args.seeds)
    if "slearner" in methods and args.space != SPACE_PROBABILITY:
        raise ValidationError(
            "slearner effects live in probability space; run the experiment with "
            "--space probability to keep methods comparable"
        )
    try:
        sizes = [int(s) for s in _split_csv(args.mask_sizes)]
    except ValueError:
        raise ValidationError(f"mask sizes must be integers, got {args.mask_sizes!r}") from None
    sizes = sorted(_distinct(sizes, "mask size"))
    _check_outputs(directories=[args.out])
    mcce = "mcce" in methods
    dataset = load_dataset(args.samples, args.pairs, args.schema, space=args.space, embedding=mcce)
    names = dataset.schema.names
    if any(size < 1 or size > len(names) - 1 for size in sizes):
        raise ValidationError(
            f"mask sizes must be in [1, {len(names) - 1}] so that an attribute stays "
            f"visible, got {sizes}"
        )
    masks = [combo for size in sizes for combo in itertools.combinations(names, size)]
    # approx skips no pair, so each run seed's pair seeds serve every mask
    pair_seeds = {seed: _pair_seeds(dataset, seed) for seed in seeds} if "approx" in methods else {}

    out_dir = Path(args.out)
    scores = {}  # (mask, method, metric) -> the macro mean of each run
    run_rows = []
    for mask in masks:
        masked = dataset.mask(mask)
        mask_dir = "+".join(mask)
        for method in methods:
            # only approx draws, so only approx runs once per seed
            for seed in seeds if method == "approx" else [None]:
                run_dir = out_dir / "runs" / method / mask_dir
                if seed is not None:
                    run_dir /= f"seed{seed}"
                try:
                    model = None if method == "approx" else _fit(masked, method, args.j, TARGET_OUTPUT)
                    effects, metadata = _explain(masked, method, model, seed, pair_seeds=pair_seeds.get(seed))
                    reports = _reports(masked, effects, metrics, metadata)
                    if model is not None:
                        save_model(model, run_dir / "model.json")
                    write_effects(run_dir / "effects.jsonl", effects, metadata)
                    _write_reports(run_dir, reports)
                except (ValidationError, NumericalError) as exc:
                    at = "" if seed is None else f" seed={seed}"
                    raise type(exc)(f"experiment run method={method} mask={mask_dir}{at}: {exc}") from exc
                for metric in metrics:
                    report = reports[metric]
                    scores.setdefault((mask, method, metric), []).append(report.macro_mean)
                    run_rows.append(
                        {
                            "mask": list(mask),
                            "mask_size": len(mask),
                            "method": method,
                            "metric": metric,
                            "seed": seed,
                            "macro_mean": report.macro_mean,
                            "macro_std": report.macro_std,
                            "pairs_evaluated": report.metadata["pairs_evaluated"],
                            "pairs_skipped": report.metadata["pairs_skipped"],
                        }
                    )

    # Every mean below is over the contiguous last axis of an array: numpy
    # sums such an axis pairwise, and a strided one in order, which can
    # round differently from the mean of the same values as one list.
    cells = []
    for size in sizes:
        for method in methods:
            for metric in metrics:
                block = np.array([scores[mask, method, metric] for mask in masks if len(mask) == size])
                by_mask = block.mean(axis=1)
                by_seed = np.ascontiguousarray(block.T).mean(axis=1)
                stats = (block.mean(), by_mask.std(), by_seed.std())
                row = (size, method, metric, *map(float, stats), *block.shape)
                cells.append(dict(zip(SUMMARY_COLUMNS, row)))

    summary = {
        "space": args.space,
        "methods": methods,
        "metrics": metrics,
        "seeds": seeds,
        "masks": [list(m) for m in masks],
        "cells": cells,
        "runs": run_rows,
    }
    write_json(out_dir / "summary.json", summary)
    rows = (cell.values() for cell in cells)
    write_text_atomic(out_dir / "summary.csv", csv_text(SUMMARY_COLUMNS, rows))

    print(f"experiment: {len(masks)} masks x {len(methods)} methods x {len(seeds)} seeds")
    for cell in cells:
        print(
            f"  mask_size={cell['mask_size']} method={cell['method']:<8} "
            f"metric={cell['metric']:<6} mean={cell['mean']:.6f} "
            f"std_masks={cell['std_masks']:.6f} std_seeds={cell['std_seeds']:.6f}"
        )
    print(f"experiment: wrote summary to {out_dir / 'summary.csv'}")
    return 0


def cmd_report(args) -> int:
    _check_outputs(files=[args.out])
    model = load_model(args.model)
    report = global_report(model, args.baseline_class)
    write_text_atomic(args.out, report.to_csv())
    print(
        f"report: wrote {len(report.contrasts)} rows "
        f"(baseline class {report.baseline_class}) to {args.out}"
    )
    return 0


def cmd_predict(args) -> int:
    _check_outputs(files=[args.out])
    model = load_model(args.model)
    dataset = load_dataset(args.samples, None, args.schema, embedding=True).mask(model.hidden_attributes)
    predictions = predict_labels(model, dataset)
    gold = [None if g < 0 else g for g in dataset.gold.tolist()]
    write_jsonl(args.out, {"id": dataset.ids, "predicted": predictions, "gold": gold})
    print(f"predict: wrote {len(dataset)} predictions to {args.out}")
    missing = int(np.sum(dataset.gold < 0))
    if missing:
        print(f"predict: score omitted, {missing} samples lack gold labels")
    else:
        print(f"macro_f1 {macro_f1(predictions, dataset.gold, model.n_outputs)!r}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcce",
        description="Concept-effect estimation for black-box models with missing concept annotations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dataset_flags(sp, pairs: bool):
        sp.add_argument("--schema", required=True, help="schema.json path")
        sp.add_argument("--samples", required=True, help="samples.jsonl path")
        if pairs:
            sp.add_argument("--pairs", required=True, help="pairs.jsonl path")

    def add_space_flag(sp, default=SPACE_LOGIT):
        sp.add_argument(
            "--space",
            choices=list(SPACES),
            default=default,
            help=f"output space for loading and comparison (default {default})",
        )

    sp = sub.add_parser("synth", help="generate a synthetic dataset with oracles")
    sp.add_argument("--config", required=True, help="synthesis config JSON")
    sp.add_argument("--out", required=True, help="output directory")
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("fit", help="fit an explainer model")
    add_dataset_flags(sp, pairs=False)
    sp.add_argument("--pairs", default=None, help="optional pairs.jsonl (edited rows are excluded from fitting)")
    sp.add_argument("--method", choices=["mcce", "slearner"], default="mcce")
    sp.add_argument("--hidden", default=None, help="comma-separated attributes to mask")
    sp.add_argument("--j", type=int, default=None, help="pseudo-concept count, 0 for none (default: from the residual spectrum)")
    sp.add_argument("--targets", choices=["output", "gold"], default="output")
    add_space_flag(sp)
    sp.add_argument("--out", required=True, help="model JSON path")
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("explain", help="estimate the effect of every pair")
    add_dataset_flags(sp, pairs=True)
    sp.add_argument("--method", choices=list(EXPLAIN_METHODS), required=True)
    sp.add_argument("--model", default=None, help="model JSON (mcce/slearner)")
    sp.add_argument("--ground-truth", default=None, help="ground_truth.json (oracle)")
    sp.add_argument("--hidden", default=None, help="mask for the approx method")
    sp.add_argument("--seed", type=int, default=None, help="sampling seed (approx only; default 0)")
    add_space_flag(sp)
    sp.add_argument("--out", required=True, help="effects JSONL path")
    sp.set_defaults(func=cmd_explain)

    sp = sub.add_parser("evaluate", help="score an effects file against paired data")
    add_dataset_flags(sp, pairs=True)
    sp.add_argument("--effects", required=True, help="effects JSONL from explain")
    sp.add_argument("--metric", default="l2,cosine,norm", help="comma-separated metrics")
    add_space_flag(sp)
    sp.add_argument("--out", required=True, help="output directory for report files")
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("experiment", help="fit+explain+evaluate over hidden-attribute masks")
    add_dataset_flags(sp, pairs=True)
    sp.add_argument("--methods", default="mcce,slearner", help="comma-separated methods")
    sp.add_argument("--metrics", default="l2,cosine,norm", help="comma-separated metrics")
    sp.add_argument("--mask-sizes", default="1,2", help="hidden-set sizes to enumerate")
    sp.add_argument("--seeds", default="0", help="comma-separated sampling seeds (approx only)")
    sp.add_argument("--j", type=int, default=None, help="mcce's pseudo-concept count, as in fit")
    add_space_flag(sp, default=SPACE_PROBABILITY)
    sp.add_argument("--out", required=True, help="output directory")
    sp.set_defaults(func=cmd_experiment)

    sp = sub.add_parser("report", help="coefficient contrasts against a baseline class")
    sp.add_argument("--model", required=True, help="mcce model JSON")
    sp.add_argument("--baseline-class", type=int, default=0)
    sp.add_argument("--out", required=True, help="CSV path")
    sp.set_defaults(func=cmd_report)

    sp = sub.add_parser("predict", help="predict gold labels with a predictor-mode model")
    sp.add_argument("--model", required=True, help="mcce model JSON fit with --targets gold")
    sp.add_argument("--schema", required=True)
    sp.add_argument("--samples", required=True)
    sp.add_argument("--out", required=True, help="predictions JSONL path")
    sp.set_defaults(func=cmd_predict)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # a path that cannot be used, such as a directory given for a file
        # an atomic write's rename names its temp file first and the path given second
        path = exc.filename if exc.filename2 is None else exc.filename2
        where = "" if path is None else f"{path}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
