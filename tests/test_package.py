"""The package namespace: `import mcce` is lazy, and every exported name resolves."""

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
import sys
import numpy
before = "_hashlib" in sys.modules  # numpy before 2.0 loads numpy.random, and it OpenSSL
import mcce.cli
print(("_hashlib" in sys.modules) == before)
"""


def test_cli_import_leaves_openssl_unloaded():
    # only approx's pair seeds hash; every other command skips OpenSSL's memory
    proc = subprocess.run(
        [sys.executable, "-c", HASHLIB_CHECK], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0 and proc.stdout == "True\n", proc.stderr
