import os
import subprocess
import sys
from pathlib import Path

import jcontainers

ROOT = Path(__file__).resolve().parent.parent


def test_container_demo_runs():
    src_dir = os.path.dirname(os.path.dirname(jcontainers.__file__))
    env = dict(os.environ, PYTHONPATH=src_dir)
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "container_demo.py"), "7", "6"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "flat pipeline" in done.stdout and "two-layer pipeline" in done.stdout
