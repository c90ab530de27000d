"""The package export list: each module's ``__all__``, once, all resolvable, and every
name the benchmark tracer wraps still present."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_pareto1_params_keep_one_field_and_carry_scale_one():
    import dataclasses

    p = arrivalab.ParetoOneParams(0.5)
    assert [f.name for f in dataclasses.fields(p)] == ["shape"]
    assert repr(p) == "ParetoOneParams(shape=0.5)"
    assert p.scale == 1.0 and p == arrivalab.ParetoOneParams(0.5)
    assert p != arrivalab.ParetoTwoParams(0.5, 1.0)


def test_perfbench_tracer_wraps_every_name_it_looks_for(tmp_path):
    # the tracer lists each function, method or field it cannot find under
    # "skipped"; an empty list means no removal has cut off a per-layer metric
    spans = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    args = [sys.executable, str(ROOT / "perfbench" / "tracer.py"), "--spans", str(spans), "--",
            "sweep-rate", "--horizon", "10", "--replications", "1", "--out", str(tmp_path / "out")]
    proc = subprocess.run(args, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(spans.read_text())["skipped"] == []
