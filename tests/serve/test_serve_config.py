"""``ServeConfig`` boundary: values that would make the server refuse,
time out or silently stop batching every request are rejected by name
before any worker forks, and the CLI turns that into one ``error:`` line."""

from __future__ import annotations

import math
import os
import subprocess
import sys

import pytest

from repro.exceptions import ConfigurationError
from repro.serve import MatchServer, ServeConfig

_SRC_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
)


@pytest.mark.parametrize(
    "field, value",
    [
        ("workers", 0),
        ("max_batch", 0),
        ("max_inflight", 0),
        ("deadline_ms", 0.0),
        ("deadline_ms", -5.0),
        ("deadline_ms", math.nan),
        ("deadline_ms", math.inf),
        ("drain_timeout_s", 0.0),
        ("drain_timeout_s", math.nan),
        ("reload_poll_s", -1.0),
        ("reload_poll_s", math.nan),
    ],
)
def test_out_of_range_field_is_rejected_by_name(tmp_path, field, value):
    config = ServeConfig(snapshot_path=str(tmp_path / "unused.snap"), **{field: value})
    with pytest.raises(ConfigurationError, match=field):
        MatchServer(config)


def test_boundary_values_are_accepted(tmp_path):
    config = ServeConfig(
        snapshot_path=str(tmp_path / "unused.snap"),
        workers=1, max_batch=1, max_inflight=1, deadline_ms=0.5, reload_poll_s=0.0,
    )
    config.validate()


def test_cli_serve_reports_a_bad_field_and_exits_2(serve_snapshot):
    env = {**os.environ, "PYTHONPATH": _SRC_ROOT + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve", str(serve_snapshot),
         "--port", "0", "--max-inflight", "0"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.strip().splitlines() == ["error: max_inflight must be >= 1"]
