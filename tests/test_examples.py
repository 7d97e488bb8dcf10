"""Every script under ``examples/`` runs to completion.

The examples build the public API end to end (clustering, the M-tree and
backbone, the range and path engines, maintenance), so an API change that
breaks one fails here.  Each runs in a fresh interpreter with the
checkout's ``src`` on ``PYTHONPATH`` and must exit 0.
"""

import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    run = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout
