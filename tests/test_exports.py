"""The package export list: each module's ``__all__``, once, all resolvable, each name
read somewhere in ``src/``, and every name the benchmark tracer wraps still present."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import arrivalab

ROOT = Path(__file__).resolve().parent.parent

MODULES = ("arrivals", "distributions", "errors", "experiments", "occupancy", "samplers", "stats")

# the names the package exported when its list was written out by hand, less
# count_in_window, empirical_cdf, poisson_cdf, regenerate_trace and sample_quantile:
# nothing but their own tests called them, so they were removed on purpose
EARLIER_EXPORTS = (
    "__version__", "ArrivalTrace", "DomainError", "DEFAULT_RATE_SWEEP", "DEFAULT_SHAPE_SWEEP",
    "EmpiricalSample", "ExperimentConfig", "ExponentialParams", "FAMILIES", "INFINITE_HOLD",
    "LocationConfig", "OccupancySeries", "ParameterError", "ParetoOneParams", "ParetoTwoParams",
    "PeakStats", "PoissonParams", "RngStream", "SeriesTable", "ValidationCheck",
    "ValidationReport", "blocking_fraction", "crossover_point", "exp_cdf", "exp_pdf",
    "exp_survival", "fixed_trace", "generate_trace", "ks_critical_value", "ks_statistic",
    "lomax_cdf", "lomax_pdf", "lomax_survival", "normal_approx_error", "normal_approx_pmf",
    "pareto1_cdf", "pareto1_pdf", "pareto1_survival", "pareto2_cdf_shifted",
    "pareto2_pdf_powerlaw", "peak_stats", "poisson_pmf", "run_alpha_sweep", "run_rate_sweep",
    "run_tail_comparison", "run_validation_suite", "sample_exponential", "sample_lomax",
    "sample_pareto1", "sample_poisson_count", "simulate_occupancy",
)


def test_export_list_has_no_duplicates():
    assert len(arrivalab.__all__) == len(set(arrivalab.__all__))


def test_every_export_resolves():
    for name in arrivalab.__all__:
        assert hasattr(arrivalab, name), name


def test_no_earlier_export_is_dropped():
    assert len(EARLIER_EXPORTS) == 51
    assert set(EARLIER_EXPORTS) <= set(arrivalab.__all__)


def test_every_module_export_is_the_same_package_export():
    for module in MODULES:
        mod = importlib.import_module(f"arrivalab.{module}")
        for name in mod.__all__:
            assert name in arrivalab.__all__ and getattr(arrivalab, name) is getattr(mod, name), name


def test_package_exports_only_module_exports_and_version():
    from_modules = {n for m in MODULES for n in importlib.import_module(f"arrivalab.{m}").__all__}
    assert set(arrivalab.__all__) == from_modules | {"__version__"}


def test_pareto1_names_are_the_lomax_functions():
    assert arrivalab.pareto1_cdf is arrivalab.lomax_cdf
    assert arrivalab.pareto1_pdf is arrivalab.lomax_pdf
    assert arrivalab.pareto1_survival is arrivalab.lomax_survival
    assert arrivalab.sample_pareto1 is arrivalab.sample_lomax
    assert arrivalab.pareto1_from_uniform is arrivalab.lomax_from_uniform


def test_poisson_params_are_the_exponential_params():
    # rate r: exponential gaps of mean 1 / r, Poisson(r) counts per unit window
    assert arrivalab.PoissonParams is arrivalab.ExponentialParams


def test_pareto1_params_keep_one_field_and_carry_scale_one():
    import dataclasses

    p = arrivalab.ParetoOneParams(0.5)
    assert [f.name for f in dataclasses.fields(p)] == ["shape"]
    assert repr(p) == "ParetoOneParams(shape=0.5)"
    assert p.scale == 1.0 and p == arrivalab.ParetoOneParams(0.5)
    assert p != arrivalab.ParetoTwoParams(0.5, 1.0)


def run_tracer(tmp_path, *cli_args) -> dict:
    """The spans record of ``perfbench/tracer.py`` over one CLI run writing to
    ``tmp_path / "out"``. The tracer lists each function, method or field it
    cannot find under "skipped"; an empty list means no removal has cut off a
    per-layer metric."""
    spans = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    args = [sys.executable, str(ROOT / "perfbench" / "tracer.py"), "--spans", str(spans), "--",
            *cli_args, "--out", str(tmp_path / "out")]
    proc = subprocess.run(args, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(spans.read_text())
    assert record["skipped"] == []
    return record


def test_perfbench_tracer_wraps_every_name_it_looks_for(tmp_path):
    record = run_tracer(tmp_path, "sweep-rate", "--horizon", "10", "--replications", "1")
    # the loss-sweep items_per_s counts arrivals at experiments.generate_trace in
    # the traced process, so every trace must be drawn there, not in a worker
    cfg = arrivalab.ExperimentConfig(horizon=10.0, replications=1)
    arrivals = sum(
        len(arrivalab.generate_trace("exponential", arrivalab.ExponentialParams(rate), cfg.horizon,
                                     arrivalab.RngStream(cfg.seed, rep)))
        for rate in cfg.rates
        for rep in range(cfg.replications)
    )
    assert arrivals > 0 and record["counters"]["arrivals.arrivals"] == arrivals


def test_perfbench_tracer_sees_every_sweep_replication(tmp_path):
    # replications run in the traced process, so each one reaches the wrapped
    # experiments.simulate_occupancy whatever the CPU count
    record = run_tracer(tmp_path, "sweep-rate", "--replications", "2", "--horizon", "10")
    cells = len(arrivalab.ExperimentConfig().rates)
    assert cells == 5
    assert record["counters"]["occupancy.calls"] == cells * 2
    assert record["counters"]["experiments.replications"] == cells * 2


def test_perfbench_tracer_sees_each_replication_metric_call(tmp_path):
    # the sweep's metric table looks up peak_stats and blocking_fraction on the
    # experiments module when called; functions bound at import would escape
    # the tracer's wrappers, and these spans would read 0
    record = run_tracer(tmp_path, "sweep-rate", "--replications", "2", "--horizon", "10")
    calls = len(arrivalab.ExperimentConfig().rates) * 2
    names = [span[0] for span in record["spans"]]
    for name in ("peak_stats", "blocking_fraction", "simulate_occupancy", "generate_trace"):
        assert names.count(name) == calls, name


def test_perfbench_tracer_counts_every_csv_row_of_simulate(tmp_path):
    # csvio.rows is counted at the writers' calls, one per file, so a file of
    # many 4096-row chunks counts each of its rows once
    record = run_tracer(tmp_path, "simulate", "--rate", "50", "--horizon", "600")
    data_rows = {}
    for name in ("trace.csv", "occupancy.csv"):
        lines = (tmp_path / "out" / name).read_text().splitlines()
        data_rows[name] = sum(not line.startswith("#") for line in lines) - 1  # less the header
    assert min(data_rows.values()) > 4096
    # plus one row per file the manifest lists
    assert record["counters"]["csvio.rows"] == sum(data_rows.values()) + 2


def unused_imports(source: str) -> list[str]:
    """Names a module imports but neither reads nor lists in ``__all__``
    (``from __future__`` imports are directives, not names)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_unused_imports_finds_a_dead_name():
    source = "from __future__ import annotations\nimport os\nimport sys\nfrom math import pi, tau\n"
    source += "__all__ = ['tau']\nprint(sys.argv)\n"
    assert unused_imports(source) == ["line 2: os", "line 4: pi"]


@pytest.mark.parametrize(
    "path", sorted(p for p in (ROOT / "src" / "arrivalab").glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_no_module_imports_a_name_it_does_not_use(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def defined_names(node) -> list[str]:
    """The names a module-level statement defines: a function's, a class's or its assignment targets."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` definitions (assignments, functions, classes) that no
    module of ``sources`` reads, either by name or by importing it."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            names = defined_names(node)
            defined += [(module, node.lineno, n) for n in names if n.startswith("_") and not n.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    return [f"{module} line {line}: {name}" for module, line, name in defined if name not in read]


def test_dead_private_names_finds_an_unread_one():
    sources = {
        "a": "_LIMIT = 3\n_SPARE: int = 4\ndef _helper():\n    return _LIMIT\nclass _Gone:\n    pass\n",
        "b": "from .a import _helper\n__all__ = ['_Gone']\n",
    }
    assert dead_private_names(sources) == ["a line 2: _SPARE", "a line 5: _Gone"]


def test_every_private_module_name_is_read_somewhere_in_src():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted((ROOT / "src" / "arrivalab").glob("*.py"))}
    assert dead_private_names(sources) == []


def unread_public_names(sources: dict[str, str]) -> list[str]:
    """Names in a module's ``__all__`` that no module of ``sources`` reads outside the
    name's own definition (the ``__all__`` list holds strings, so it reads nothing)."""
    public, read = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            own = set(defined_names(node))
            if own == {"__all__"}:  # string entries only: the package list also splices module lists
                public += [(module, e.lineno, e.value) for e in node.value.elts if isinstance(e, ast.Constant)]
            else:
                read |= {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} - own
    return [f"{module} line {line}: {name}" for module, line, name in public if name not in read]


def test_unread_public_names_finds_an_unread_one():
    sources = {
        "a": "__all__ = ['LIMIT', 'SPARE', 'helper', 'walk']\nLIMIT = 3\nSPARE = 4\n"
             "def helper():\n    return LIMIT\ndef walk(n):\n    return walk(n - 1)\n",
        "b": "from .a import SPARE, helper\nprint(helper())\n",
    }
    # SPARE is only imported, and walk reads itself only inside its own definition
    assert unread_public_names(sources) == ["a line 1: SPARE", "a line 1: walk"]


def test_every_public_name_is_read_somewhere_in_src():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted((ROOT / "src" / "arrivalab").glob("*.py"))}
    assert unread_public_names(sources) == []


PROCESS_CALLS = {"fork", "_exit", "pipe", "waitpid", "kill"}


def process_management_outside(sources: dict[str, str]) -> list[str]:
    """Uses of ``os.fork``, ``os._exit``, ``os.pipe``, ``os.waitpid``, ``os.kill`` and
    ``pickle`` in ``sources`` outside ``experiments._fork_map`` (``import pickle``
    counts as a use outside ``experiments.py`` only)."""
    found = []
    for module, source in sources.items():
        for top in ast.parse(source).body:
            if module == "experiments.py" and (getattr(top, "name", None) == "_fork_map" or isinstance(top, ast.Import)):
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    use = node.id == "pickle"
                elif isinstance(node, ast.Attribute):
                    use = getattr(node.value, "id", None) == "os" and node.attr in PROCESS_CALLS
                elif isinstance(node, ast.Import):
                    use = any(alias.name == "pickle" for alias in node.names)
                elif isinstance(node, ast.ImportFrom):
                    use = node.module == "pickle" or (
                        node.module == "os" and any(alias.name in PROCESS_CALLS for alias in node.names))
                else:
                    use = False
                if use:
                    found.append(f"{module} line {node.lineno}")
    return found


def test_process_management_outside_finds_a_stray_use():
    sources = {
        "experiments.py": "import os\nimport pickle\ndef _fork_map():\n    os.fork()\n    pickle.loads(b'')\n"
                          "def other():\n    os.kill(1, 9)\n    os.getpid()\n",
        "cli.py": "import pickle\nfrom os import waitpid\nfrom os import path\nx = pickle.dumps(1)\ny = [pickle]\n",
    }
    assert process_management_outside(sources) == [
        "experiments.py line 7", "cli.py line 1", "cli.py line 2", "cli.py line 4", "cli.py line 5",
    ]


def test_process_management_lives_only_in_the_fork_map():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted((ROOT / "src" / "arrivalab").glob("*.py"))}
    assert process_management_outside(sources) == []


def freezes_outside_frozen(sources: dict[str, str]) -> list[str]:
    """Calls of ``np.array`` or ``np.asarray``, and assignments to ``.flags.writeable``,
    inside any ``__post_init__`` in ``sources``: a value object holds an array
    through ``distributions._frozen`` and no copy or freeze of its own."""
    found = []
    for module, source in sources.items():
        for method in ast.walk(ast.parse(source)):
            if not (isinstance(method, ast.FunctionDef) and method.name == "__post_init__"):
                continue
            for node in ast.walk(method):
                if isinstance(node, ast.Call):
                    func = node.func
                    use = (isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "np"
                           and func.attr in ("array", "asarray"))
                elif isinstance(node, ast.Assign):
                    use = any(isinstance(t, ast.Attribute) and t.attr == "writeable"
                              and isinstance(t.value, ast.Attribute) and t.value.attr == "flags" for t in node.targets)
                else:
                    use = False
                if use:
                    found.append((module, node.lineno))
    return [f"{module} line {line}" for module, line in sorted(found)]


def test_freezes_outside_frozen_finds_a_copy_block():
    sources = {
        "occupancy.py": "import numpy as np\nclass S:\n    def __post_init__(self):\n"
                        "        bp = np.array(self.bp, dtype=float)\n        bp.flags.writeable = False\n"
                        "        ct = _frozen(np.asarray(self.ct))\n        a.flags.writeable = b.flags.writeable = False\n"
                        "    def other(self):\n        x = np.array([])\n        x.flags.writeable = False\n",
        "stats.py": "class E:\n    def __post_init__(self):\n        vals = _frozen(self.values)\n",
    }
    assert freezes_outside_frozen(sources) == [
        "occupancy.py line 4", "occupancy.py line 5", "occupancy.py line 6", "occupancy.py line 7",
    ]


def test_value_objects_freeze_only_through_frozen():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted((ROOT / "src" / "arrivalab").glob("*.py"))}
    assert freezes_outside_frozen(sources) == []
