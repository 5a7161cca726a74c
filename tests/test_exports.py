"""The package's exports: the exact solver's names load on first use."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import refnet
import refnet.exact

SRC = Path(__file__).resolve().parent.parent / "src"

EXACT_NAMES = (
    "CancelToken",
    "ExactResult",
    "OperationCancelled",
    "brute_force_mbd",
    "mbd_exact",
    "odd_cycle_transversal",
    "vertex_cover",
)


def test_every_export_resolves():
    for name in refnet.__all__:
        assert getattr(refnet, name) is not None, name


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from refnet import *", namespace)
    assert set(refnet.__all__) <= set(namespace)
    for name in refnet.__all__:
        assert namespace[name] is getattr(refnet, name)


@pytest.mark.parametrize("name", EXACT_NAMES)
def test_exact_names_are_the_exact_modules(name):
    assert name in refnet.__all__
    assert getattr(refnet, name) is getattr(refnet.exact, name)


def test_sga_is_still_the_function():
    from refnet.sga import sga

    assert refnet.sga is sga
    assert callable(refnet.sga)


def test_dir_lists_the_exports():
    listed = dir(refnet)
    assert set(refnet.__all__) <= set(listed)
    assert listed == sorted(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        refnet.no_such_name  # noqa: B018
    assert not hasattr(refnet, "exact_solver")
    with pytest.raises(ImportError):
        exec("from refnet import no_such_name", {})


def test_exact_module_loads_on_first_use():
    # A fresh interpreter: the package alone leaves refnet.exact unloaded,
    # and the first lookup of an exact name loads it.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    script = (
        "import json, sys, refnet\n"
        "before = 'refnet.exact' in sys.modules\n"
        "solver = refnet.mbd_exact\n"
        "print(json.dumps([before, 'refnet.exact' in sys.modules,"
        " solver is sys.modules['refnet.exact'].mbd_exact]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, True, True]
