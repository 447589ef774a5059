"""Workload definitions and output checks for the mcce benchmark.

Each workload is a closed loop with one client: the benchmark runs the
workload's commands one after another, each as a fresh `python3 -m mcce`
process, and starts the next only when the previous one has exited.
Inputs come from `mcce synth` with the data seed taken from the
benchmark's `--seed`; `param_seed` keeps its default, so the seed varies
the data draw only.

A command is an argv template. `{setup}` is the set-up directory (holding
`config.json`), `{data}` the dataset directory and `{out}` the pass's
output directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

ORTHOGONALITY_LIMIT = 1e-8


DATASET_FLAGS = (
    "--schema", "{data}/schema.json",
    "--samples", "{data}/samples.jsonl",
    "--pairs", "{data}/pairs.jsonl",
)


SYNTH = ("synth", "--config", "{setup}/config.json", "--out", "{data}")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict  # synth config without "seed"
    synth_in_pass: bool  # synth is timed (pipeline) or part of set-up
    commands: tuple[tuple[str, ...], ...]

    def synth_config(self, seed: int, n: int | None = None) -> dict:
        config = dict(self.config, seed=seed)
        if n is not None:
            config["n"] = n
        return config

    def setup_commands(self) -> list[tuple[str, ...]]:
        return [] if self.synth_in_pass else [SYNTH]

    def pass_commands(self) -> list[tuple[str, ...]]:
        return ([SYNTH] if self.synth_in_pass else []) + list(self.commands)


def _wide_attributes() -> list[dict]:
    return [{"name": f"a{i}", "levels": [f"l{j}" for j in range(4)]} for i in range(8)]


def _wide_fit(method: str) -> tuple[str, ...]:
    return (
        "fit", *DATASET_FLAGS, "--method", method, "--hidden", "a0",
        "--space", "probability", "--out", f"{{out}}/{method}_model.json",
    )


def _wide_explain(method: str) -> tuple[str, ...]:
    return (
        "explain", *DATASET_FLAGS, "--method", method, "--model", f"{{out}}/{method}_model.json",
        "--space", "probability", "--out", f"{{out}}/{method}_effects.jsonl",
    )


def _wide_evaluate(method: str) -> tuple[str, ...]:
    return (
        "evaluate", *DATASET_FLAGS, "--effects", f"{{out}}/{method}_effects.jsonl",
        "--space", "probability", "--out", f"{{out}}/{method}_eval",
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="experiment",
            why="the paper's loop in one process: 10 S-Learner fits and 30 per-pair "
            "explain/evaluate runs on n=2000; optimiser and explain bound, not IO",
            config={"n": 2000, "edits_per_sample": 1},
            synth_in_pass=False,
            commands=(
                (
                    "experiment", *DATASET_FLAGS,
                    "--methods", "mcce,slearner,approx",
                    "--mask-sizes", "1,2",
                    "--seeds", "0",
                    "--out", "{out}/experiment",
                ),
            ),
        ),
        Workload(
            name="pipeline",
            why="30000 rows through five processes with no S-Learner: JSON IO and "
            "per-row objects dominate, so optimiser changes must not move it",
            config={"n": 10000, "edits_per_sample": 2},
            synth_in_pass=True,
            commands=(
                (
                    "fit", *DATASET_FLAGS, "--method", "mcce",
                    "--hidden", "ambiance", "--out", "{out}/mcce_model.json",
                ),
                (
                    "explain", *DATASET_FLAGS, "--method", "mcce",
                    "--model", "{out}/mcce_model.json", "--out", "{out}/mcce_effects.jsonl",
                ),
                (
                    "explain", *DATASET_FLAGS, "--method", "oracle",
                    "--ground-truth", "{data}/ground_truth.json",
                    "--out", "{out}/oracle_effects.jsonl",
                ),
                (
                    "evaluate", *DATASET_FLAGS, "--effects", "{out}/mcce_effects.jsonl",
                    "--out", "{out}/mcce_eval",
                ),
            ),
        ),
        Workload(
            name="wide",
            why="8x4 schema, 8 classes: a 224-coefficient S-Learner that hits its "
            "iteration cap and a 28-column mcce design",
            config={
                "n": 4000,
                "edits_per_sample": 1,
                "attributes": _wide_attributes(),
                "n_classes": 8,
                "embed_dim": 48,
            },
            synth_in_pass=False,
            commands=(
                *(_wide_fit(method) for method in ("slearner", "mcce")),
                *(_wide_explain(method) for method in ("slearner", "mcce")),
                *(_wide_evaluate(method) for method in ("slearner", "mcce")),
            ),
        ),
    )
}


def render(command: tuple[str, ...], setup: Path, data: Path, out: Path) -> list[str]:
    return [arg.format(setup=setup, data=data, out=out) for arg in command]


# ---------------------------------------------------------------------------
# reading a pass's artifacts


def _report_l2(out: Path) -> dict[str, list[float]]:
    """macro-mean L2 of every report_l2.json in the pass, by method."""
    by_method: dict[str, list[float]] = {}
    for path in sorted(out.rglob("report_l2.json")):
        report = json.loads(path.read_text(encoding="utf-8"))
        by_method.setdefault(report["metadata"]["method"], []).append(float(report["macro_mean"]))
    return by_method


def effect_count(out: Path) -> int:
    """Effect estimates written by the pass (non-meta lines of every effects file)."""
    count = 0
    for path in out.rglob("*effects.jsonl"):
        with path.open(encoding="utf-8") as handle:
            count += sum(1 for line in handle if line.strip() and not line.startswith('{"meta"'))
    return count


def accuracy(out: Path) -> dict[str, float]:
    """Mean of the macro-mean L2 errors per method ("mcce_l2", "slearner_l2")."""
    return {
        f"{method}_l2": sum(values) / len(values)
        for method, values in _report_l2(out).items()
        if method in ("mcce", "slearner")
    }


def check_outputs(out: Path) -> list[tuple[str, str | None]]:
    """Output checks for one pass: (check, failure message or None) per check."""
    checks = [
        ("effect estimates written", None if effect_count(out) else "the pass wrote no effect estimates"),
        ("mcce L2 reported", None if "mcce_l2" in accuracy(out) else "the pass wrote no mcce L2 report"),
    ]
    for path in sorted(out.rglob("*model.json")):
        model = json.loads(path.read_text(encoding="utf-8"))
        if model.get("kind") != "mcce":
            continue
        ortho = model["diagnostics"]["orthogonality_max"]
        checks.append(
            (
                f"{path.relative_to(out)}: orthogonality_max < {ORTHOGONALITY_LIMIT}",
                None if ortho < ORTHOGONALITY_LIMIT else f"orthogonality_max is {ortho!r}",
            )
        )
    for path in sorted(out.rglob("summary.json")):
        checks += _check_mcce_beats_slearner(path)
    return checks


def _check_mcce_beats_slearner(summary_path: Path) -> list[tuple[str, str | None]]:
    """Criterion 03's direction: mcce's mean L2 below the S-Learner's at every mask size."""
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    means = {
        (cell["mask_size"], cell["method"]): cell["mean"]
        for cell in summary["cells"]
        if cell["metric"] == "l2"
    }
    checks = []
    for size in sorted({size for size, _ in means}):
        mcce, slearner = means[(size, "mcce")], means[(size, "slearner")]
        checks.append(
            (
                f"mask size {size}: mcce L2 below slearner L2",
                None if mcce < slearner else f"mcce {mcce!r} vs slearner {slearner!r}",
            )
        )
    return checks
