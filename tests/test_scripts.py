import os
import subprocess
import sys
from pathlib import Path

import jcontainers

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args):
    src_dir = os.path.dirname(os.path.dirname(jcontainers.__file__))
    env = dict(os.environ, PYTHONPATH=src_dir)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_container_demo_runs():
    done = _run_script("container_demo.py", "7", "6")
    assert done.returncode == 0, done.stderr
    assert "flat pipeline" in done.stdout and "two-layer pipeline" in done.stdout


def test_mc_experiments_prints_its_csv():
    done = _run_script("mc_experiments.py", "0")
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header == "experiment,params,trials,frequency,exact_reference,theory_bound"
    assert all(len(row.split(",")) == 6 for row in rows)
    kinds = [row.split(",", 1)[0] for row in rows]
    assert kinds == ["chernoff"] * 5 + ["extension-gamma"] * 6
