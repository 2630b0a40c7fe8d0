"""The demos run to completion.  Demo 04, whose randomness battery takes
about 3 s, is left out to keep the suite quick."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_encrypt_decrypt.py", "02_sbox_analysis.py",
                                  "03_differential_trails.py", "05_avalanche.py",
                                  "06_benchmark.py"])
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
