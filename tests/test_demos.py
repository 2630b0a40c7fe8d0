"""The demos and the documented usage run to completion.  Demo 04, whose
randomness battery takes about 3 s, is left out to keep the suite quick."""

import doctest
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import separ.core

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


def test_documented_usage_runs():
    """The docstring examples of `separ.core` and README's quick start run
    as written, so a change to the public surface cannot leave them stale."""
    result = doctest.testmod(separ.core)
    assert result.failed == 0 and result.attempted > 0
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert blocks
    for block in blocks:
        namespace = {}
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["pt"] == b"attack at dawn!!"
    assert namespace["ct"] == separ.core.Separ(bytes(32)).encrypt(bytes(16), namespace["pt"])
