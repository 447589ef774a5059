"""In-process pass for the mcce benchmark's traced run.

Usage: python3 bench/tracer.py SPEC.json OUT.json

SPEC lists the commands of each phase ("setup", "pass") and whether to
trace. Every command is one `mcce.cli.main(argv)` call in this process.
When tracing, the public functions that one mcce module imports from
another are first replaced by wrappers that record a span (name, start,
end, parent span, phase) and, for a few layers, counts taken from the
call's result. Spans stay in memory and are written to OUT with the wall
time and exit codes at the end. The benchmark runs this program twice,
untraced and traced, each in a fresh process so both start cold.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import sys
import time
from pathlib import Path


class Recorder:
    """Spans as [id, name, start, end, parent, phase, counts]; nesting follows the call stack."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.phase: str | None = None

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, time.perf_counter(), None, parent, self.phase, None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int, counts: dict | None = None) -> None:
        span = self.spans[sid]
        span[3] = time.perf_counter()
        span[6] = counts
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)


def _wrap(recorder: Recorder, owner, attribute: str, layer: str, counts=None) -> None:
    original = getattr(owner, attribute)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        sid = recorder.open(layer)
        result = None
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            recorder.close(sid, counts(result) if counts and result is not None else None)

    setattr(owner, attribute, traced)


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary."""
    from mcce import cli, explainers, linalg
    from mcce.data import Dataset

    def slearner_counts(model) -> dict:
        # a fit that used every allowed iteration stopped on the cap, not on tolerance
        cap = explainers.SLEARNER_MAX_ITER
        return {"iterations": model.iterations, "converged": int(model.iterations < cap)}

    boundaries = [
        (cli, "load_dataset", "data.load_dataset", lambda ds: {"rows": len(ds.samples)}),
        (cli, "save_dataset", "data.save_dataset", None),
        (Dataset, "to_space", "data.to_space", None),
        (Dataset, "mask", "data.mask", None),
        (Dataset, "design_matrix", "data.design_matrix", None),
        (cli, "load_synth_config", "synthetic.load_synth_config", None),
        (cli, "generate", "synthetic.generate", None),
        (cli, "make_pairs", "synthetic.make_pairs", None),
        (cli, "save_ground_truth", "synthetic.save_ground_truth", None),
        (cli, "load_ground_truth", "synthetic.load_ground_truth", None),
        (cli, "oracle_effect", "synthetic.oracle_effect", None),
        # residualize reaches lstsq through linalg's own global
        (linalg, "lstsq", "linalg.lstsq", None),
        (explainers, "lstsq", "linalg.lstsq", None),
        (explainers, "residualize", "linalg.residualize", None),
        (explainers, "truncated_svd", "linalg.truncated_svd", None),
        (cli, "fit_mcce", "explainers.fit_mcce", None),
        (cli, "fit_slearner", "explainers.fit_slearner", slearner_counts),
        (cli, "explain_mcce", "explainers.explain_mcce", None),
        (cli, "explain_slearner", "explainers.explain_slearner", None),
        (cli, "explain_approx", "explainers.explain_approx", lambda e: {"fallback": int(e.fallback)}),
        (cli, "build_label_index", "explainers.build_label_index", None),
        (cli, "save_model", "explainers.save_model", None),
        (cli, "load_model", "explainers.load_model", None),
        (cli, "write_effects", "explainers.write_effects", None),
        (cli, "read_effects", "explainers.read_effects", None),
        (cli, "icace_error", "evaluation.icace_error", lambda r: {"pairs": r.metadata["pairs_evaluated"]}),
    ]
    for owner, attribute, layer, counts in boundaries:
        _wrap(recorder, owner, attribute, layer, counts)


def run_phases(phases: list[dict], recorder: Recorder | None) -> tuple[float, list[int]]:
    """Run every command of every phase in order; returns (wall seconds, exit codes)."""
    from mcce import cli

    span = recorder.span if recorder is not None else lambda name: contextlib.nullcontext()
    gc.collect()
    codes = []
    start = time.perf_counter()
    for phase in phases:
        if recorder is not None:
            recorder.phase = phase["name"]
        with span(phase["name"]):
            for argv in phase["argvs"]:
                with span(f"cli.{argv[0]}"):
                    codes.append(cli.main(argv))
    return time.perf_counter() - start, codes


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    recorder = None
    if spec["traced"]:
        recorder = Recorder()
        install(recorder)
    wall, codes = run_phases(spec["phases"], recorder)
    result = {"wall_s": wall, "exit_codes": codes, "spans": recorder.spans if recorder else []}
    Path(argv[1]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
