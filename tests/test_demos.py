"""Every narrative script under demos/ runs to completion against src/."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(demo):
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(demo)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = _run(demo)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "demo, real_value",
    [("03_pieces_and_gluing.py", "Tor = +2.594224\n"), ("04_family_sweep.py", "engine +29.672214  ")],
    ids=["03_pieces_and_gluing.py", "04_family_sweep.py"],
)
def test_family_sweep_prints_real_values_as_real(demo, real_value):
    # the sign of rounding noise (an imaginary part, a negative zero) must not reach the output
    out = _run(ROOT / "demos" / demo).stdout
    assert real_value in out and "0.000000j" not in out
    assert not re.search(r"-0\.(?!\d)", out)
