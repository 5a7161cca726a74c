"""The benchmark's own selftest, run as part of the suite.

``perfbench/tracing.py`` wraps refnet's public functions by name, so renaming
or deleting one of them breaks the benchmark.  Running its selftest here
turns that into a failing test instead of a failing benchmark run.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    pytest.importorskip("scipy")  # the benchmark's optimum checks use scipy's MILP
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
