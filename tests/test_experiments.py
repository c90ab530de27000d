import math

import numpy as np
import pytest

from arrivalab import (
    DEFAULT_RATE_SWEEP,
    DEFAULT_SHAPE_SWEEP,
    DomainError,
    ExperimentConfig,
    ParameterError,
    PoissonParams,
    SeriesTable,
    poisson_pmf,
    run_alpha_sweep,
    run_rate_sweep,
    run_tail_comparison,
    run_validation_suite,
)
from arrivalab.experiments import DEFAULT_VALIDATION_CHECK_COUNT

FAST = ExperimentConfig(replications=3, horizon=30.0)


def table_by_name(tables, name):
    return next(t for t in tables if t.name == name)


class TestSeriesTable:
    def test_rejects_mismatched_columns(self):
        with pytest.raises(DomainError):
            SeriesTable("t", "x", np.array([0.0, 1.0]), {"y": np.array([1.0])}, {})

    def test_rejects_nonincreasing_axis(self):
        with pytest.raises(DomainError):
            SeriesTable("t", "x", np.array([0.0, 0.0]), {}, {})

    def test_arrays_frozen(self):
        t = SeriesTable("t", "x", np.array([0.0, 1.0]), {"y": np.array([1.0, 2.0])}, {})
        with pytest.raises(ValueError):
            t.x[0] = 5.0
        with pytest.raises(ValueError):
            t.columns["y"][0] = 5.0


class TestExperimentConfig:
    def test_defaults_are_documented_sweeps(self):
        cfg = ExperimentConfig()
        assert cfg.alphas == DEFAULT_SHAPE_SWEEP
        assert cfg.rates == DEFAULT_RATE_SWEEP
        assert cfg.betas == (1.0,)
        assert cfg.exp_rate == 1.0
        assert cfg.horizon == 100.0
        assert cfg.node_budget == 20
        assert cfg.replications == 20
        assert cfg.seed == 42

    def test_lists_sorted_and_deduplicated(self):
        cfg = ExperimentConfig(alphas=(0.9, 0.3, 0.9))
        assert cfg.alphas == (0.3, 0.9)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alphas": ()},
            {"alphas": (0.0,)},
            {"horizon": -1.0},
            {"replications": 0},
            {"capacity": 0},
            {"holding_family": "weibull"},
            {"holding_rate": 1e-310},  # its largest exponential hold overflows to inf
            {"seed": -1},
        ],
    )
    def test_rejects_invalid_values(self, kwargs):
        with pytest.raises(ParameterError):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("name", ["seed", "capacity", "node_budget", "replications"])
    def test_rejects_bool_integers(self, name):
        with pytest.raises(ParameterError):
            ExperimentConfig(**{name: True})

    def test_capacity_defaults_to_node_budget(self):
        assert ExperimentConfig().effective_capacity() == 20
        assert ExperimentConfig(capacity=5).effective_capacity() == 5


class TestAlphaSweep:
    def test_default_cells_match_documented_sweep(self):
        tables = run_alpha_sweep(FAST)
        cell_names = [t.name for t in tables]
        assert cell_names == [
            "alpha_0.3", "alpha_0.4", "alpha_0.5", "alpha_0.8", "alpha_0.9", "alpha_occupancy",
        ]
        for t in tables:
            assert t.provenance["alphas"] == "0.3,0.4,0.5,0.8,0.9"

    def test_density_columns_start_at_shape_value(self):
        tables = run_alpha_sweep(FAST)
        for shape in DEFAULT_SHAPE_SWEEP:
            cell = table_by_name(tables, f"alpha_{shape:g}")
            assert cell.columns["pareto1_pdf"][0] == shape
            assert cell.columns["exp_pdf"][0] == 1.0

    def test_survival_crosses_baseline_once(self):
        # on a dense grid the sign of (pareto tail - exp tail) changes at
        # most once over [0, 1000]: nonpositive early, positive after
        xs = np.linspace(0.0, 1000.0, 20_001)
        from arrivalab import ExponentialParams, ParetoOneParams, exp_survival, pareto1_survival

        for shape in DEFAULT_SHAPE_SWEEP:
            diff = pareto1_survival(xs, ParetoOneParams(shape)) - exp_survival(xs, ExponentialParams(1.0))
            above = diff > 0
            flips = np.sum(above[1:] != above[:-1])
            assert flips == 1 or (flips == 0 and above[1])
            assert above[-1]

    def test_occupancy_summary_row_per_shape(self):
        tables = run_alpha_sweep(FAST)
        summary = table_by_name(tables, "alpha_occupancy")
        assert list(summary.x) == list(DEFAULT_SHAPE_SWEEP)
        assert summary.column_names == ("peak_mean", "occupancy_mean", "blocking_mean")

    def test_beta_columns_follow_config(self):
        cfg = ExperimentConfig(replications=2, horizon=10.0, betas=(0.5, 2.0))
        cell = run_alpha_sweep(cfg)[0]
        assert "lomax_pdf_b0.5" in cell.column_names
        assert "lomax_survival_b2" in cell.column_names


class TestRateSweep:
    def test_default_cells(self):
        tables = run_rate_sweep(FAST)
        assert [t.name for t in tables] == [
            "rate_0.3", "rate_0.4", "rate_0.5", "rate_0.8", "rate_0.9", "rate_occupancy",
        ]

    def test_pmf_columns_are_proper_partial_masses(self):
        tables = run_rate_sweep(FAST)
        for rate in DEFAULT_RATE_SWEEP:
            col = table_by_name(tables, f"rate_{rate:g}").columns["poisson_pmf"]
            assert float(np.sum(col)) <= 1.0
            extended = float(np.sum(poisson_pmf(np.arange(201), PoissonParams(rate, 1.0))))
            assert abs(extended - 1.0) < 1e-6

    def test_pmf_mode_nondecreasing_in_rate(self):
        tables = run_rate_sweep(FAST)
        modes = [
            int(np.argmax(table_by_name(tables, f"rate_{rate:g}").columns["poisson_pmf"]))
            for rate in DEFAULT_RATE_SWEEP
        ]
        assert modes == sorted(modes)

    def test_mean_occupancy_tracks_rate(self):
        # aggregated over replications the time-average load follows the rate
        cfg = ExperimentConfig(replications=10, horizon=400.0)
        summary = table_by_name(run_rate_sweep(cfg), "rate_occupancy")
        means = summary.columns["occupancy_mean"]
        assert np.all(np.diff(means) > 0)
        assert abs(means[-1] - 0.9) / 0.9 < 0.25


class TestTailComparison:
    def test_baseline_tops_heavy_tails_at_origin(self):
        curves = table_by_name(run_tail_comparison(FAST), "tail_comparison")
        exp0 = curves.columns["exp_pdf"][0]
        assert exp0 == 1.0
        for shape in DEFAULT_SHAPE_SWEEP:
            assert exp0 > curves.columns[f"pareto1_pdf_a{shape:g}"][0]

    def test_heavy_tails_dominate_far_out(self):
        curves = table_by_name(run_tail_comparison(FAST), "tail_comparison")
        at_50 = int(np.flatnonzero(curves.x == 50.0)[0])
        exp_tail = curves.columns["exp_pdf"][at_50]
        for shape in DEFAULT_SHAPE_SWEEP:
            assert curves.columns[f"pareto1_pdf_a{shape:g}"][at_50] > exp_tail

    def test_crossover_summary_brackets_known_root(self):
        summary = table_by_name(run_tail_comparison(FAST), "crossover_summary")
        assert list(summary.x) == list(DEFAULT_SHAPE_SWEEP)
        idx = list(summary.x).index(0.5)
        assert 2.6 < summary.columns["pdf_crossover_x"][idx] < 2.7

    def test_powerlaw_columns_only_for_valid_shapes(self):
        cfg = ExperimentConfig(replications=2, horizon=10.0, alphas=(0.5, 1.5))
        curves = table_by_name(run_tail_comparison(cfg), "tail_comparison")
        assert "powerlaw_pdf_a1.5_b1" in curves.column_names
        assert not any(name.startswith("powerlaw_pdf_a0.5") for name in curves.column_names)
        col = curves.columns["powerlaw_pdf_a1.5_b1"]
        assert math.isnan(col[0])  # density diverges at the origin
        assert np.all(np.isfinite(col[1:]))


class TestValidationSuite:
    def test_default_suite_is_complete_and_green(self):
        report = run_validation_suite()
        assert len(report.checks) == DEFAULT_VALIDATION_CHECK_COUNT
        assert report.passed
        names = [c.name for c in report.checks]
        assert "ks-exponential" in names
        for shape in DEFAULT_SHAPE_SWEEP:
            assert f"ks-pareto1-a{shape:g}" in names

    def test_mismatch_reported_as_expected(self):
        report = run_validation_suite()
        entry = next(c for c in report.checks if c.name == "pareto2-shifted-powerlaw-mismatch")
        assert entry.status == "expected-mismatch"
        assert entry.statistic > entry.threshold

    def test_poisson_mean_entry_below_threshold(self):
        report = run_validation_suite()
        entry = next(c for c in report.checks if c.name == "poisson-mean-m0.9")
        assert entry.status == "pass"
        assert entry.statistic < entry.threshold

    def test_render_lists_every_check(self):
        report = run_validation_suite()
        text = report.render()
        assert text.count("\n") == len(report.checks) + 2
        assert text.endswith("result: PASS\n")


class TestReproducibility:
    def test_alpha_sweep_reproduces_bit_identically(self):
        a = run_alpha_sweep(FAST)
        b = run_alpha_sweep(FAST)
        for ta, tb in zip(a, b):
            assert ta.name == tb.name
            assert ta.provenance == tb.provenance
            assert np.array_equal(ta.x, tb.x)
            for name in ta.column_names:
                assert np.array_equal(ta.columns[name], tb.columns[name], equal_nan=True)

    def test_sweep_order_does_not_matter(self):
        first = run_rate_sweep(FAST)
        run_alpha_sweep(FAST)
        run_tail_comparison(FAST)
        second = run_rate_sweep(FAST)
        for ta, tb in zip(first, second):
            for name in ta.column_names:
                assert np.array_equal(ta.columns[name], tb.columns[name], equal_nan=True)

    def test_overrides_echoed_in_provenance(self):
        cfg = ExperimentConfig(replications=2, horizon=10.0, alphas=(0.5,), overrides=("alphas",))
        cell = run_alpha_sweep(cfg)[0]
        assert cell.provenance["overrides"] == "alphas"
        assert cell.provenance["alphas"] == "0.5"
