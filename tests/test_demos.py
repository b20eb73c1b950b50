"""The quick demos run to completion against the package in ``src/``.

Demo 03 trains five-fold ensembles for about 20 s and is left to a manual run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_normalize_and_tag.py", "02_gradcheck.py",
                                  "04_baselines.py", "05_construct_stats.py"])
def test_demo_exits_zero(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
