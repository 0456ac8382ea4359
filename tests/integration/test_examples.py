"""Every script under ``examples/`` runs to completion.

Each example boots its own servers on loopback ports, tells one of the
paper's stories and exits 0.  Running them here keeps them working as
the library under them changes.  Each makes its scratch directory in
``TMPDIR`` (``tmp_path`` here) and removes it before it exits.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_exits_cleanly(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), TMPDIR=str(tmp_path))
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=str(tmp_path),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert not list(tmp_path.glob("tss-*")), "the example left its workspace behind"


def test_every_example_is_collected():
    assert len(EXAMPLES) >= 5
