from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import routelearn


def test_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency; the package itself needs numpy alone
    src = str(Path(routelearn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, routelearn; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
