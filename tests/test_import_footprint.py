"""Importing the package, the store and the serving plane loads no ``scipy.sparse``.

Only the AutoFJ baseline uses the sparse TF-IDF vectorizer
(``repro.text.tfidf``), and it imports that module itself; every other
process (a serve worker, a snapshot load) should not pay for it.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

PROBE = """
import sys
import repro, repro.store, repro.serve
from repro.ann import native
native.get_kernel()
print(sorted(name for name in sys.modules if name.startswith("scipy.sparse")))
"""


def test_import_repro_store_serve_and_kernel_loads_no_scipy_sparse(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
