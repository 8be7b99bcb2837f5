"""Every script in ``examples/`` runs to completion against the package.

The reachability ratchet counts ``examples/`` as a root, so an example keeps
package code alive; this test keeps the examples themselves alive in turn.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


def test_examples_directory_is_not_empty():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script, tmp_path):
    # TMPDIR keeps any scratch output an example writes inside the test's directory.
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, (proc.stdout[-2000:], proc.stderr[-2000:])
