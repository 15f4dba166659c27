"""Demos: every script in demos/ prints exactly its pinned output.

Each demo runs in a fresh interpreter with one BLAS thread, so its floats do
not depend on the thread count, and its stdout must equal
`golden/demos/<name>.txt` byte for byte.  A change that moves a demo's output
on purpose rewrites that file and says so in CHANGES.md.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ctrldisc

DEMOS = Path(__file__).parents[1] / "demos"
GOLDEN = Path(__file__).parent / "golden" / "demos"
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(ctrldisc.__file__)))


def test_every_demo_has_a_golden_output():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(
        p.stem for p in DEMOS.glob("*.py")
    )


@pytest.mark.parametrize("name", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_demo_output_matches_golden(name):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{name}.txt").read_text()
