"""Start-up guards: the runtime depends on numpy alone, no command loads scipy,
and importing the package starts no BLAS threads.

scipy is a test dependency only: the tests use it as an oracle. The run-time
checks need a fresh interpreter, because this test process has scipy loaded
already; the static check also covers library paths no default command runs.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


THREADS = """
import os
import arrivalab

status = open("/proc/self/status").read().splitlines()
threads = next(line.split()[1] for line in status if line.startswith("Threads:"))
print(os.environ["OPENBLAS_NUM_THREADS"], threads)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
@pytest.mark.parametrize("given", [None, "2"])
def test_import_starts_no_blas_threads_unless_asked(given):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    proc = subprocess.run([sys.executable, "-c", THREADS], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    value, threads = proc.stdout.split()
    if given is None:
        assert (value, threads) == ("1", "1")
    else:
        assert value == given  # the user's setting wins; the thread count is then OpenBLAS's
