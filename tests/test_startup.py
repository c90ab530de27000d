"""Start-up guards: the runtime depends on numpy alone, and no command loads scipy.

scipy is a test dependency only: the tests use it as an oracle. The run-time
check needs a fresh interpreter, because this test process has scipy loaded
already; the static check also covers library paths no default command runs.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now raises ImportError
from arrivalab.cli import main

out = sys.argv[1]
for command in ("sweep-alpha", "sweep-rate", "compare", "simulate", "validate"):
    assert main([command, "--out", f"{out}/{command}"]) == 0, command
"""


def test_no_command_loads_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def imported_modules(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.append(node.module)
    return names


def test_no_module_imports_scipy():
    sources = sorted((SRC / "arrivalab").glob("*.py"))
    assert sources
    found = {
        path.name: name
        for path in sources
        for name in imported_modules(path)
        if name == "scipy" or name.startswith("scipy.")
    }
    assert not found, found
