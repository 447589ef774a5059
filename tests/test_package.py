"""The package namespace: `import mcce` is lazy, and every exported name resolves."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mcce

SRC = str(Path(mcce.__file__).resolve().parents[1])

CHECK = """
import sys
import mcce
loaded = sorted(name for name in sys.modules if name == "numpy" or name.startswith("mcce."))
assert not loaded, loaded
for name in mcce.__all__:
    getattr(mcce, name)
assert "numpy" in sys.modules
namespace = {}
exec("from mcce import *", namespace)
assert set(mcce.__all__) <= set(namespace), set(mcce.__all__) - set(namespace)
from mcce import cli, explainers, linalg
print("ok")
"""


def test_import_loads_no_submodule_and_every_name_resolves():
    # a fresh interpreter: this one has imported numpy and the submodules already
    proc = subprocess.run(
        [sys.executable, "-c", CHECK], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mcce.no_such_name


HASHLIB_CHECK = """
import json
import sys
import numpy
before = "_hashlib" in sys.modules  # numpy before 2.0 loads numpy.random, and it OpenSSL
import mcce.cli
for argv in sys.argv[1:]:
    assert mcce.cli.main(json.loads(argv)) == 0, argv
print(("_hashlib" in sys.modules) == before)
"""


def openssl_loaded_beyond_numpy(*commands: list) -> bool:
    """Whether importing mcce.cli and running `commands` (argv lists) in a fresh interpreter
    loads OpenSSL's `_hashlib` where `import numpy` did not."""
    proc = subprocess.run(
        [sys.executable, "-c", HASHLIB_CHECK, *map(json.dumps, commands)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "False"


def test_cli_import_leaves_openssl_unloaded():
    # OpenSSL's memory is mapped by no command through the CLI's imports
    assert not openssl_loaded_beyond_numpy()


def test_approx_runs_leave_openssl_unloaded(tmp_path):
    # approx's pair seeds hash with CPython's built-in SHA-256, and approx draws nothing from
    # numpy.random, which maps OpenSSL; synth draws, so it runs here, not in the fresh interpreter
    from mcce.cli import main

    config, data = tmp_path / "config.json", tmp_path / "data"
    config.write_text('{"n": 60, "seed": 0, "edits_per_sample": 1}')
    assert main(["synth", "--config", str(config), "--out", str(data)]) == 0
    flags = [f"--{name}={data / name}.{ext}" for name, ext in
             (("schema", "json"), ("samples", "jsonl"), ("pairs", "jsonl"))]
    assert not openssl_loaded_beyond_numpy(
        ["explain", *flags, "--method", "approx", "--hidden", "food", f"--out={tmp_path}/approx.jsonl"],
        ["experiment", *flags, "--methods", "mcce,slearner,approx", "--mask-sizes", "1",
         "--seeds", "0,1", "--space", "probability", f"--out={tmp_path}/experiment"],
    )
