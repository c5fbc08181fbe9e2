"""The scripts under scripts/ run to completion at their defaults."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The last line each script prints at its defaults; the scripts are seeded.
LAST_LINES = {
    "torsion_spectrum": (
        "n=4 edges=[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]: 7x4, 11x6, INFx10"
    ),
    "extension_census": "checker/oracle disagreements: 0",
    "embedding_growth": "p=0.30: ok=46/50 largest-vertex=7800537555257",
}


@pytest.mark.parametrize("script", sorted(LAST_LINES))
def test_script_runs_at_defaults(script):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", f"{script}.py")],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == LAST_LINES[script]
