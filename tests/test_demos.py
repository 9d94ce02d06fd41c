"""Every demo script runs to completion against this package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import timescatter

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
# Run the demos against the same copy of the package the tests import.
PACKAGE_ROOT = str(Path(timescatter.__file__).resolve().parents[1])


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
