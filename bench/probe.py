"""Machine and import probe for the mcce benchmark.

Usage: python3 bench/probe.py SRC_DIR

Imports mcce and numpy the way every benchmark child does, exits 1 if
mcce does not come from SRC_DIR, and prints one JSON object describing
the machine: CPU count and model, Python, numpy, the BLAS library with
its version and the thread count it runs with.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import sys
from pathlib import Path


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_info(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def _blas_threads() -> int | None:
    """Ask the loaded OpenBLAS how many threads it uses (None if it is not OpenBLAS)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def main(argv: list[str]) -> int:
    src = Path(argv[0]).resolve()
    import numpy as np

    import mcce

    location = Path(mcce.__file__).resolve()
    if src not in location.parents:
        print(f"mcce imported from {location}, not from {src}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "nproc": os.cpu_count(),
                "cpus_allowed": len(os.sched_getaffinity(0)),
                "cpu_model": _cpu_model(),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "blas": _blas_info(np),
                "blas_threads": _blas_threads(),
                "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
            },
            sort_keys=True,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
