"""Every demo prints exactly the bytes kept in demos/expected/<demo>.txt."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nivatk

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_expected_output():
    expected = sorted((ROOT / "demos" / "expected").glob("*.txt"))
    assert [p.stem for p in expected] == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_stdout_is_pinned(demo):
    src = str(Path(nivatk.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_bytes()
