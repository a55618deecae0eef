"""The runnable examples, run the way a reader runs them.

``examples/scoring_service.py`` drives the in-process, recovered,
sharded and replayed serving tiers end to end and asserts that their
scores are bit-identical; a non-zero exit is a broken tier.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]


@pytest.mark.slow  # spawns shard worker processes
def test_scoring_service_example_runs_and_cleans_up(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(REPO / "examples" / "scoring_service.py")],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert list(tmp_path.iterdir()) == []  # its working directory is gone
