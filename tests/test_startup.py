"""Start-up guard: only ``validate`` loads scipy.

Importing ``scipy.special`` costs more than the rest of the package's import,
so the sweep, compare and simulate commands must run without it. The check
needs a fresh interpreter, because this test process has scipy loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys
from arrivalab.cli import main

out = sys.argv[1]
for command in ("sweep-alpha", "sweep-rate", "compare", "simulate"):
    assert main([command, "--out", f"{out}/{command}"]) == 0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, f"scipy loaded before validate: {loaded}"
assert main(["validate", "--out", f"{out}/validate"]) == 0
assert "scipy.special" in sys.modules
"""


def test_only_validate_loads_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
