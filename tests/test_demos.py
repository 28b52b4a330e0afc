"""Every demo runs to completion, cleanly, in a fresh interpreter, and
prints exactly its recorded output (every demo is deterministic)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import drbglab

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden"


def test_every_demo_is_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    paths = [str(Path(drbglab.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert proc.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()
