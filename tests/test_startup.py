"""Start-up guards: the runtime depends on numpy alone, no command loads scipy,
importing the package starts no BLAS threads, and only the process entry
freezes the import-time heap.

scipy is a test dependency only: the tests use it as an oracle. The run-time
checks need a fresh interpreter, because this test process has scipy loaded
already; the static check also covers library paths no default command runs.
"""

import ast
import gc
import os
import re
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


ENTRY = """
import gc
import runpy
import sys

sys.argv = ["arrivalab", "simulate", "--horizon", "5", "--out", sys.argv[1]]
try:
    runpy.run_module("arrivalab.cli", run_name="__main__")
except SystemExit as exc:
    print(exc.code, gc.get_freeze_count())
"""


def run_python(code, *args) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and not proc.stderr, proc.stderr
    return proc.stdout


def test_the_module_entry_freezes_the_import_heap(tmp_path):
    summary, status = run_python(ENTRY, str(tmp_path)).splitlines()
    code, frozen = status.split()
    assert summary.startswith("simulate: arrivals=") and code == "0" and int(frozen) > 0
    assert (tmp_path / "manifest.txt").exists()


def test_importing_the_cli_freezes_nothing():
    assert run_python("import gc, arrivalab.cli; print(gc.get_freeze_count())").split() == ["0"]


def test_main_in_process_leaves_the_heap_unfrozen(tmp_path):
    from arrivalab.cli import main

    before = gc.get_freeze_count()
    assert main(["simulate", "--horizon", "5", "--out", str(tmp_path)]) == 0
    assert gc.get_freeze_count() == before


def test_module_block_and_script_name_one_entry():
    cli_source = (SRC / "arrivalab" / "cli.py").read_text(encoding="utf-8")
    block = re.search(r'^if __name__ == "__main__":\n    (\w+)\(\)\n\Z', cli_source, re.M)
    # tomllib is 3.11 and later: read the script table as text
    pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    script = re.search(r'^\[project\.scripts\]\narrivalab = "arrivalab\.cli:(\w+)"$', pyproject, re.M)
    assert block and script and block[1] == script[1] == "entry_point"
