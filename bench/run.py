"""Benchmark of the mcce command-line pipeline.

Usage, from the repository root:

    python3 bench/run.py --workload experiment --seed 0 --seconds 40 --trace 0

Workloads (see workloads.py): `experiment`, `pipeline`, `wide`. Each is
a closed loop with one client: every CLI command is a fresh
`python3 -m mcce` process on the checkout's `src/`, run after the
previous one exits, with BLAS pinned to one thread.

A run sets up the inputs SETUP_REPEATS times (import probe, config,
`mcce synth` where synth is not part of the pass) and reports the median
as `setup_s`. With `--trace 0` it then repeats the timed pass while
another pass still fits in `--seconds` (at least one) and reports the
end-to-end metrics. With `--trace 1` it runs one untraced pass, times
interpreter start-up, and runs `tracer.py` twice, each time repeating
set-up and pass inside one fresh process, untraced and then traced, and
reports the per-layer metrics. Every command's exit code and stderr, the pass's
outputs (checks in workloads.py) and the byte identity of repeated
artifacts are checked; the last stdout line is the JSON result, and the
full record, machine included, is written under `.bench_work/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, Workload, accuracy, check_outputs, effect_count, render

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

BLAS_THREADS = 1  # the same on every commit; at most nproc on any machine
SETUP_REPEATS = 3
STARTUP_REPEATS = 5
RUN_LIMIT_S = 170.0  # a run, set-up included, ends within 180 s
COMMANDS = ("synth", "fit", "explain", "evaluate", "experiment")

END_TO_END = {
    "setup_s": "s",
    "pairs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
    "mcce_l2": "l2",
}
# per-command wall seconds, failure share and S-Learner accuracy are
# reported beside the gated metrics; they are 0 on workloads that do not
# run the command or method, so they are traced-run metrics only.
PASS_EXTRAS = {
    **{f"{command}_s": "s" for command in COMMANDS},
    "failed_frac": "ratio",
    "slearner_l2": "l2",
}
LAYER_TIMES = (
    "data.load_dataset", "data.save_dataset", "data.to_space", "data.mask", "data.design_matrix",
    "synthetic.generate", "synthetic.make_pairs", "synthetic.save_ground_truth",
    "synthetic.load_ground_truth", "synthetic.oracle_effect",
    "linalg.lstsq", "linalg.residualize", "linalg.truncated_svd",
    "explainers.fit_slearner", "explainers.fit_mcce", "explainers.explain_mcce",
    "explainers.explain_slearner", "explainers.explain_approx", "explainers.write_effects",
    "explainers.read_effects", "explainers.save_model", "evaluation.icace_error",
)
PER_LAYER = {
    "cli.startup_s": "s",
    "cli.self_s": "s",
    "cli.stderr_warning_lines": "count",
    **PASS_EXTRAS,
    **{f"{layer}_s": "s" for layer in LAYER_TIMES},
    "data.load_dataset_rows": "count",
    "linalg.lstsq_calls": "count",
    "explainers.slearner_iterations": "count",
    "explainers.slearner_converged_ratio": "ratio",
    "explainers.explain_calls": "count",
    "explainers.approx_fallback_ratio": "ratio",
    "evaluation.pairs_scored": "count",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}
EXPLAIN_LAYERS = ("explainers.explain_mcce", "explainers.explain_slearner", "explainers.explain_approx")
WARNING_LINE = re.compile(r"\b\w*Warning: ")


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Proc:
    argv: list[str]
    exit_code: int
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Run:
    """One benchmark run: its deadline, logs, and the checks it has counted."""

    def __init__(self, work: Path):
        self.work = work
        self.logs = work / "logs"
        self.logs.mkdir(parents=True)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = child_env()
        self.spawned = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{what}: {problem}")
            print(f"check failed: {what}: {problem}", file=sys.stderr)

    def spawn(self, argv: list[str]) -> Proc:
        """Run one child to completion; its wall time, peak RSS and output are recorded."""
        stem = self.logs / f"{self.spawned:03d}"
        self.spawned += 1
        out_path, err_path = stem.with_suffix(".out"), stem.with_suffix(".err")
        with out_path.open("wb") as out, err_path.open("wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(
            argv=argv,
            exit_code=proc.returncode,
            wall_s=wall,
            maxrss_mb=usage.ru_maxrss / 1024.0,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def command(self, args: list[str]) -> Proc:
        """One mcce CLI process, checked for exit code 0 and no traceback on stderr."""
        proc = self.spawn([sys.executable, "-m", "mcce", *args])
        problem = None
        if proc.exit_code != 0:
            problem = f"exit code {proc.exit_code}: {proc.stderr.strip()[-500:]}"
        elif "Traceback (most recent call last)" in proc.stderr:
            problem = "traceback on stderr"
        self.check(f"mcce {args[0]}", problem)
        return proc


def tree_digest(path: Path) -> tuple[str, int]:
    """sha256 over relative paths and contents of every file, and their total size in bytes."""
    digest = hashlib.sha256()
    size = 0
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        data = file.read_bytes()
        digest.update(str(file.relative_to(path)).encode() + b"\0" + data + b"\0")
        size += len(data)
    return digest.hexdigest(), size


# ---------------------------------------------------------------------------
# set-up and passes


def write_config(workload: Workload, seed: int, n: int | None, setup: Path) -> None:
    setup.mkdir(parents=True)
    config = workload.synth_config(seed, n)
    (setup / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")


def set_up(run: Run, workload: Workload, seed: int, n: int | None, setup: Path) -> tuple[float, dict]:
    """Probe the checkout's package, write the config and synthesize the set-up data."""
    start = time.perf_counter()
    probe = run.spawn([sys.executable, str(BENCH / "probe.py"), str(SRC)])
    run.check("probe", None if probe.exit_code == 0 else probe.stderr.strip()[-500:])
    write_config(workload, seed, n, setup)
    for command in workload.setup_commands():
        run.command(render(command, setup=setup, data=setup / "data", out=setup))
    wall = time.perf_counter() - start
    machine = json.loads(probe.stdout) if probe.exit_code == 0 else {}
    return wall, machine


@dataclass
class PassResult:
    wall_s: float
    procs: list[Proc]
    pairs: int
    artifact_bytes: int
    digest: str
    accuracy: dict[str, float]
    command_s: dict[str, float]

    @property
    def peak_rss_mb(self) -> float:
        return max(p.maxrss_mb for p in self.procs)


def run_pass(run: Run, workload: Workload, setup: Path, out: Path) -> PassResult:
    data = out / "data" if workload.synth_in_pass else setup / "data"
    out.mkdir(parents=True)
    start = time.perf_counter()
    procs = [
        run.command(render(command, setup=setup, data=data, out=out))
        for command in workload.pass_commands()
    ]
    wall = time.perf_counter() - start
    for what, problem in check_outputs(out):
        run.check(what, problem)
    command_s = {command: 0.0 for command in COMMANDS}
    for proc in procs:
        command_s[proc.argv[3]] += proc.wall_s
    digest, size = tree_digest(out)
    return PassResult(
        wall_s=wall,
        procs=procs,
        pairs=effect_count(out),
        artifact_bytes=size,
        digest=digest,
        accuracy=accuracy(out),
        command_s=command_s,
    )


# ---------------------------------------------------------------------------
# statistics


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest order statistic with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    rank = n - 10
    return 100.0 * rank / n, sorted(values)[rank - 1]


def summarize(samples: dict[str, list[float]], units: dict[str, str]) -> dict[str, dict]:
    table = {}
    for name, unit in units.items():
        values = samples[name]
        entry = {"value": statistics.median(values), "unit": unit, "n": len(values)}
        tail = tail_percentile(values)
        if tail is not None:
            entry["tail_percentile"], entry["tail_value"] = tail
        table[name] = entry
    return table


def pass_samples(passes: list[PassResult]) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {
        "pairs_per_s": [p.pairs / p.wall_s for p in passes],
        "peak_rss_mb": [p.peak_rss_mb for p in passes],
        "artifact_mb": [p.artifact_bytes / 1e6 for p in passes],
        "mcce_l2": [p.accuracy.get("mcce_l2", 0.0) for p in passes],
        "slearner_l2": [p.accuracy.get("slearner_l2", 0.0) for p in passes],
    }
    for command in COMMANDS:
        samples[f"{command}_s"] = [p.command_s[command] for p in passes]
    return samples


def layer_samples(untraced: dict, traced: dict) -> tuple[dict[str, list[float]], dict[str, float]]:
    """Per-layer metrics of the traced run (inclusive seconds and counts) and self time by span name."""
    spans = traced["spans"]
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    child_time = [0.0] * len(spans)
    for sid, name, start, end, parent, _phase, span_counts in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        for key, value in (span_counts or {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
        if parent is not None:
            child_time[parent] += end - start
    self_time = {}
    root_wall = root_self = 0.0
    for sid, name, start, end, parent, _phase, _counts in spans:
        own = (end - start) - child_time[sid]
        self_time[name] = self_time.get(name, 0.0) + own
        if parent is None:
            root_wall += end - start
            root_self += own

    def ratio(numerator: str, denominator: str) -> float:
        return counts.get(numerator, 0) / calls[denominator] if calls.get(denominator) else 0.0

    samples = {f"{layer}_s": [total.get(layer, 0.0)] for layer in LAYER_TIMES}
    samples.update(
        {
            "cli.self_s": [sum(t for name, t in self_time.items() if name.startswith("cli."))],
            "data.load_dataset_rows": [counts.get("data.load_dataset.rows", 0)],
            "linalg.lstsq_calls": [calls.get("linalg.lstsq", 0)],
            "explainers.slearner_iterations": [counts.get("explainers.fit_slearner.iterations", 0)],
            "explainers.slearner_converged_ratio": [
                ratio("explainers.fit_slearner.converged", "explainers.fit_slearner")
            ],
            "explainers.explain_calls": [sum(calls.get(layer, 0) for layer in EXPLAIN_LAYERS)],
            "explainers.approx_fallback_ratio": [
                ratio("explainers.explain_approx.fallback", "explainers.explain_approx")
            ],
            "evaluation.pairs_scored": [counts.get("evaluation.icace_error.pairs", 0)],
            "trace.overhead_s": [traced["wall_s"] - untraced["wall_s"]],
            # share of the traced wall time that the spans below the phase roots account for
            "trace.coverage": [1.0 - root_self / root_wall if root_wall else 0.0],
        }
    )
    return samples, self_time


# ---------------------------------------------------------------------------
# the two kinds of run


def traced_run(run: Run, workload: Workload, seed: int, n: int | None, setup0: Path, first: PassResult):
    """Set-up and pass in one fresh process, untraced and then traced; returns both tracer outputs.

    The artifacts of both are checked against the subprocess set-up and pass.
    """
    expected_setup = tree_digest(setup0)[0] if workload.setup_commands() else None
    results = {}
    for mode in ("untraced", "traced"):
        base = run.work / "trace" / mode
        setup, out = base / "setup", base / "pass"
        write_config(workload, seed, n, setup)
        out.mkdir(parents=True)
        data = out / "data" if workload.synth_in_pass else setup / "data"
        spec = {
            "traced": mode == "traced",
            "phases": [
                {
                    "name": "setup",
                    "argvs": [render(c, setup=setup, data=data, out=setup) for c in workload.setup_commands()],
                },
                {
                    "name": "pass",
                    "argvs": [render(c, setup=setup, data=data, out=out) for c in workload.pass_commands()],
                },
            ],
        }
        spec_path, result_path = base / "spec.json", run.work / f"{mode}.json"
        spec_path.write_text(json.dumps(spec))
        proc = run.spawn([sys.executable, str(BENCH / "tracer.py"), str(spec_path), str(result_path)])
        run.check(f"{mode} tracer", None if proc.exit_code == 0 else proc.stderr.strip()[-500:])
        results[mode] = json.loads(result_path.read_text())
        for code in results[mode]["exit_codes"]:
            run.check(f"{mode} in-process mcce command", None if code == 0 else f"exit code {code}")
        run.check(
            f"{mode} in-process pass artifacts identical to the subprocess pass",
            None if tree_digest(out)[0] == first.digest else "digest differs",
        )
        if expected_setup is not None:
            run.check(
                f"{mode} in-process set-up data identical to the subprocess set-up",
                None if tree_digest(setup)[0] == expected_setup else "digest differs",
            )
    return results["untraced"], results["traced"]


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool, n: int | None = None, work_root: Path = WORK
) -> dict:
    """One benchmark run; returns the full record (the JSON result is its "result" key).

    `n` overrides the workload's sample count (the self-check runs n=200).
    """
    work = work_root / workload.name
    shutil.rmtree(work, ignore_errors=True)
    run = Run(work)

    setup_walls, machine = [], {}
    setup_digests = set()
    for i in range(SETUP_REPEATS):
        wall, probed = set_up(run, workload, seed, n, work / f"setup{i}")
        setup_walls.append(wall)
        machine = machine or probed
        setup_digests.add(tree_digest(work / f"setup{i}")[0])
    run.check(
        "set-up artifacts identical across repeats", None if len(setup_digests) == 1 else "digests differ"
    )
    setup0 = work / "setup0"

    passes: list[PassResult] = []
    measure_start = time.perf_counter()
    while True:
        out = work / f"pass{len(passes)}"
        result = run_pass(run, workload, setup0, out)
        if passes:
            same = result.digest == passes[0].digest
            run.check("pass artifacts identical to the first pass", None if same else "digest differs")
            shutil.rmtree(out)
        passes.append(result)
        elapsed = time.perf_counter() - measure_start
        if trace or elapsed + result.wall_s > seconds or time.monotonic() + 2 * result.wall_s > run.deadline:
            break

    samples = pass_samples(passes)
    samples["setup_s"] = setup_walls
    self_time = None
    if trace:
        startup = [run.spawn([sys.executable, "-c", "import mcce"]).wall_s for _ in range(STARTUP_REPEATS)]
        layers, self_time = layer_samples(*traced_run(run, workload, seed, n, setup0, passes[0]))
        samples.update(layers)
        samples["cli.startup_s"] = startup
        samples["cli.stderr_warning_lines"] = [
            sum(1 for p in passes[0].procs for line in p.stderr.splitlines() if WARNING_LINE.search(line))
        ]
    samples["failed_frac"] = [run.failed / run.attempted]
    report = summarize(samples, {**END_TO_END, **PASS_EXTRAS, **(PER_LAYER if trace else {})})
    for child in work.iterdir():
        if child.is_dir() and child != run.logs:
            shutil.rmtree(child)

    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": report[name]["value"], "unit": units[name]} for name in units},
    }
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "n_override": n,
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "commit": commit(),
        "source_sha256": source_digest(),
        "machine": machine,
        "blas_threads_pinned": BLAS_THREADS,
        "report": report,
        "self_time_s": self_time,
        "problems": run.problems,
        "result": result,
    }


# ---------------------------------------------------------------------------
# provenance and output


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "mcce").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def print_report(record: dict) -> None:
    m = record["machine"]
    print(
        f"workload={record['workload']} seed={record['seed']} passes={record['passes']} "
        f"trace={record['trace']} commit={record['commit']} src={record['source_sha256'][:12]}"
    )
    print(
        f"machine: nproc={m.get('nproc')} cpu={m.get('cpu_model')!r} python={m.get('python')} "
        f"numpy={m.get('numpy')} blas={m.get('blas')} blas_threads={m.get('blas_threads')}"
    )
    for name, entry in record["report"].items():
        tail = ""
        if "tail_percentile" in entry:
            tail = f"  p{entry['tail_percentile']:.0f} {entry['tail_value']:.6g}"
        print(f"  {name:<40} {entry['value']:>14.6g} {entry['unit']:<6} (median of n={entry['n']}){tail}")
    if record["self_time_s"]:
        print("  self time by span (s):")
        for name, seconds in sorted(record["self_time_s"].items(), key=lambda kv: -kv[1]):
            print(f"    {name:<38} {seconds:>10.4f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True, help="data seed for mcce synth")
    parser.add_argument("--seconds", type=float, required=True, help="measurement window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mcce" / "__init__.py").is_file():
        print(f"error: no mcce package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    record = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    path = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print_report(record)
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
