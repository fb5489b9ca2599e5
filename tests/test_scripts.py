"""Smoke test: each script under scripts/ runs to completion against the library."""
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / args[0]), *args[1:]],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_enumerate_small_lattices_class_counts():
    result = run_script("enumerate_small_lattices.py", "5")
    assert result.returncode == 0, result.stderr
    rows = [line.split() for line in result.stdout.splitlines()[1:]]
    assert [row[2] for row in rows] == ["1", "1", "1", "2", "5"]
    assert all(row[4] == "True" for row in rows)


@pytest.mark.parametrize("script", ["crt2_threshold.py", "rank_tables.py"])
def test_script_runs(script):
    result = run_script(script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
