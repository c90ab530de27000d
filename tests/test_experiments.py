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
    RngStream,
    SeriesTable,
    poisson_pmf,
    run_alpha_sweep,
    run_rate_sweep,
    run_tail_comparison,
    run_validation_suite,
)
import arrivalab.cli
import arrivalab.experiments
from arrivalab.cli import main
from arrivalab.distributions import exp_cdf, exp_pdf, lomax_cdf, lomax_pdf
from arrivalab.experiments import (
    DERIVATIVE_POINTS,
    HOLDING_STREAM_OFFSET,
    _derivative_check,
    _exp_point,
    _lomax_point,
    _pareto1_point,
)

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

    def test_rejects_zero_rows(self):
        with pytest.raises(DomainError, match="at least one row"):
            SeriesTable("t", "x", np.array([]), {"y": np.array([])}, {})

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

    @pytest.mark.parametrize("name", ["alphas", "betas", "rates"])
    def test_rejects_entries_that_print_alike(self, name):
        # tables, columns and validation checks are named by f"{value:g}"
        with pytest.raises(ParameterError, match=f"{name} entries 0.5 and 0.5000001 both print as 0.5"):
            ExperimentConfig(**{name: (0.5000001, 0.9, 0.5)})
        assert getattr(ExperimentConfig(**{name: (0.500001, 0.5)}), name) == (0.5, 0.500001)

    def test_curve_grid_takes_at_most_a_million_steps(self):
        assert ExperimentConfig(x_max=1e5, x_step=0.1).x_max == 1e5
        for x_max, x_step in ((1e5, 0.0999), (1e300, 1e-300)):  # the second overflows to inf
            with pytest.raises(ParameterError, match="must not exceed 1e\\+06 grid steps"):
                ExperimentConfig(x_max=x_max, x_step=x_step)

    @pytest.mark.parametrize("name", ["seed", "capacity", "node_budget", "replications"])
    def test_rejects_bool_integers(self, name):
        with pytest.raises(ParameterError):
            ExperimentConfig(**{name: True})

    def test_capacity_defaults_to_node_budget(self):
        assert ExperimentConfig().location().capacity == 20
        assert ExperimentConfig(capacity=5).location().capacity == 5


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
        assert tuple(summary.columns) == ("peak_mean", "occupancy_mean", "blocking_mean")

    def test_beta_columns_follow_config(self):
        cfg = ExperimentConfig(replications=2, horizon=10.0, betas=(0.5, 2.0))
        cell = run_alpha_sweep(cfg)[0]
        assert "lomax_pdf_b0.5" in cell.columns
        assert "lomax_survival_b2" in cell.columns


class TestRateSweep:
    def test_blocking_mean_leaves_out_replications_without_arrivals(self):
        # over half a time unit, rate 1 leaves some traces empty and rate 1e-9 all of them
        from arrivalab import ExponentialParams, blocking_fraction, generate_trace, simulate_occupancy

        cfg = ExperimentConfig(rates=(1e-9, 1.0), horizon=0.5, replications=8, node_budget=1)
        summary = table_by_name(run_rate_sweep(cfg), "rate_occupancy")
        fracs = [
            blocking_fraction(simulate_occupancy(
                generate_trace("exponential", ExponentialParams(1.0), 0.5, RngStream(cfg.seed, rep)),
                cfg.location(), RngStream(cfg.seed, HOLDING_STREAM_OFFSET + rep)))
            for rep in range(cfg.replications)
        ]
        kept = [f for f in fracs if not math.isnan(f)]
        assert 0 < len(kept) < cfg.replications
        assert math.isnan(summary.columns["blocking_mean"][0])
        assert summary.columns["blocking_mean"][1] == float(np.mean(kept))

    def test_each_metric_mean_leaves_out_its_own_nan_values(self, monkeypatch):
        # one more metric, NaN on every second replication, and one NaN on all:
        # each column leaves out only its own NaN values
        cfg = ExperimentConfig(rates=(0.5, 0.9), horizon=20.0, replications=4)
        before = table_by_name(run_rate_sweep(cfg), "rate_occupancy")
        admitted = []

        def admitted_on_even_replications(series, ps):
            admitted.append(series.admitted)
            return series.admitted if len(admitted) % 2 else math.nan

        metrics = arrivalab.experiments._REPLICATION_METRICS
        monkeypatch.setitem(metrics, "admitted_mean", admitted_on_even_replications)
        monkeypatch.setitem(metrics, "never_mean", lambda series, ps: math.nan)
        summary = table_by_name(run_rate_sweep(cfg), "rate_occupancy")
        assert tuple(summary.columns) == ("peak_mean", "occupancy_mean", "blocking_mean", "admitted_mean", "never_mean")
        for name in before.columns:
            np.testing.assert_array_equal(summary.columns[name], before.columns[name])
        assert len(admitted) == 8 and 0 not in admitted
        assert list(summary.columns["admitted_mean"]) == [np.mean(admitted[0:4:2]), np.mean(admitted[4:8:2])]
        assert np.isnan(summary.columns["never_mean"]).all()

    @pytest.mark.parametrize("rows", [10**6, 10**6 + 1])
    def test_pmf_rows_share_the_curve_grid_bound(self, rows, monkeypatch):
        # a pmf call past the check stands in for the million-row table, which is never built
        class PastTheCheck(Exception):
            pass

        def past_the_check(*args):
            raise PastTheCheck

        monkeypatch.setattr(arrivalab.experiments, "poisson_pmf", past_the_check)
        monkeypatch.setattr(arrivalab.experiments, "generate_trace", past_the_check)
        cfg = ExperimentConfig(node_budget=rows - 1, rates=(0.5,))
        if rows <= arrivalab.experiments._MAX_GRID_STEPS:
            with pytest.raises(PastTheCheck):
                run_rate_sweep(cfg)
        else:
            with pytest.raises(ParameterError, match="^node_budget must be below 1e[+]06: the pmf table holds "
                                                     r"node_budget \+ 1 rows, at most 1e[+]06; got 1000000$"):
                run_rate_sweep(cfg)

    def test_oversized_pmf_table_exits_two_before_any_write(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["sweep-rate", "--nodes", str(10**6), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: node_budget must be below 1e+06")
        assert not out.exists()

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
            extended = float(np.sum(poisson_pmf(np.arange(201), PoissonParams(rate))))
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
        assert "powerlaw_pdf_a1.5_b1" in curves.columns
        assert not any(name.startswith("powerlaw_pdf_a0.5") for name in curves.columns)
        col = curves.columns["powerlaw_pdf_a1.5_b1"]
        assert math.isnan(col[0])  # density diverges at the origin
        assert np.all(np.isfinite(col[1:]))


class TestValidationSuite:
    def test_default_suite_is_complete_and_green(self):
        report = run_validation_suite(ExperimentConfig())
        # KS (1 exp + 5 pareto1 + 2 lomax), Poisson mean+variance at 3 means,
        # 3 derivative checks, mismatch flag, normal-approximation monotonicity
        assert len(report.checks) == 19
        assert report.passed
        names = [c.name for c in report.checks]
        assert "ks-exponential" in names
        for shape in DEFAULT_SHAPE_SWEEP:
            assert f"ks-pareto1-a{shape:g}" in names

    def test_mismatch_reported_as_expected(self):
        report = run_validation_suite(ExperimentConfig())
        entry = next(c for c in report.checks if c.name == "pareto2-shifted-powerlaw-mismatch")
        assert entry.status == "expected-mismatch"
        assert entry.statistic > entry.threshold

    def test_poisson_mean_entry_below_threshold(self):
        report = run_validation_suite(ExperimentConfig())
        entry = next(c for c in report.checks if c.name == "poisson-mean-m0.9")
        assert entry.status == "pass"
        assert entry.statistic < entry.threshold

    def test_render_lists_every_check(self):
        report = run_validation_suite(ExperimentConfig())
        text = report.render()
        assert text.count("\n") == len(report.checks) + 2
        assert text.endswith("result: PASS\n")

    @pytest.mark.parametrize("cdf,pdf,point", [(exp_cdf, exp_pdf, _exp_point), (lomax_cdf, lomax_pdf, _pareto1_point),
                                               (lomax_cdf, lomax_pdf, _lomax_point)],
                             ids=["exponential", "pareto1", "lomax"])
    def test_derivative_check_draws_once_and_makes_three_calls_a_probe(self, cdf, pdf, point, monkeypatch):
        draws, calls = [], []
        draw = RngStream.uniform_open

        def counted_draw(stream, size=None):
            draws.append(size)
            return draw(stream, size)

        def counted(role, fn):
            def call(x, params):
                calls.append((role, x, params))
                return fn(x, params)
            return call

        monkeypatch.setattr(RngStream, "uniform_open", counted_draw)
        check = _derivative_check(ExperimentConfig(), "d", 0, counted("cdf", cdf), counted("pdf", pdf), point)
        assert check.status == "pass"
        assert draws == [(DERIVATIVE_POINTS, 3)]
        # per probe: the pdf at x, then the cdf at x + h and x - h, all at the probe's params
        assert len(calls) == 3 * DERIVATIVE_POINTS
        for (r1, x1, p1), (r2, x2, p2), (r3, x3, p3) in zip(calls[::3], calls[1::3], calls[2::3]):
            assert (r1, r2, r3) == ("pdf", "cdf", "cdf") and p1 == p2 == p3
            assert x2 == x1 + 1e-5 and x3 == x1 - 1e-5


class TestReproducibility:
    def test_alpha_sweep_reproduces_bit_identically(self):
        a = run_alpha_sweep(FAST)
        b = run_alpha_sweep(FAST)
        for ta, tb in zip(a, b):
            assert ta.name == tb.name
            assert ta.provenance == tb.provenance
            assert np.array_equal(ta.x, tb.x)
            for name in ta.columns:
                assert np.array_equal(ta.columns[name], tb.columns[name], equal_nan=True)

    def test_sweep_order_does_not_matter(self):
        first = run_rate_sweep(FAST)
        run_alpha_sweep(FAST)
        run_tail_comparison(FAST)
        second = run_rate_sweep(FAST)
        for ta, tb in zip(first, second):
            for name in ta.columns:
                assert np.array_equal(ta.columns[name], tb.columns[name], equal_nan=True)

    def test_overrides_echoed_in_provenance(self):
        cfg = ExperimentConfig(replications=2, horizon=10.0, alphas=(0.5,), overrides=("alphas",))
        cell = run_alpha_sweep(cfg)[0]
        assert cell.provenance["overrides"] == "alphas"
        assert cell.provenance["alphas"] == "0.5"


class TestStreamLayout:
    """Replication r of every sweep cell draws its arrivals from ``(seed, r)``
    and its holds from ``(seed, 2**32 + r)``; simulate uses ids 0 and 2**32.
    So two cells at the same seed draw from the same uniforms, which pairs
    their replications by common random numbers. A layout that gave each cell
    its own ids would lose that pairing without changing any one table's law.
    """

    @pytest.fixture
    def streams(self, monkeypatch):
        """``(built, used)``: the ``(seed, stream_id)`` of every stream that
        ``experiments`` and ``cli`` build, and ``(role, seed, stream_id)`` of
        each stream handed to ``generate_trace`` or ``simulate_occupancy``."""
        built, used = [], []

        class RecordedStream(RngStream):
            def __init__(self, seed, stream_id=0):
                super().__init__(seed, stream_id)
                built.append((seed, stream_id))

        def recorded(role, fn, stream_arg):
            def call(*args):
                used.append((role, args[stream_arg].seed, args[stream_arg].stream_id))
                return fn(*args)
            return call

        for module in (arrivalab.experiments, arrivalab.cli):
            monkeypatch.setattr(module, "RngStream", RecordedStream)
            monkeypatch.setattr(module, "generate_trace", recorded("arrivals", module.generate_trace, 3))
            monkeypatch.setattr(module, "simulate_occupancy", recorded("holds", module.simulate_occupancy, 2))
        return built, used

    def test_holding_ids_start_at_2_to_the_32(self):
        assert HOLDING_STREAM_OFFSET == 2**32

    @pytest.mark.parametrize("command,cells", [("sweep-alpha", DEFAULT_SHAPE_SWEEP), ("sweep-rate", DEFAULT_RATE_SWEEP)])
    def test_sweep_replication_r_uses_ids_r_and_2_to_the_32_plus_r(self, streams, command, cells, tmp_path):
        built, used = streams
        assert main([command, "--seed", "9", "--replications", "3", "--horizon", "20", "--out", str(tmp_path)]) == 0
        one_cell = [d for r in range(3) for d in (("arrivals", 9, r), ("holds", 9, 2**32 + r))]
        assert used == one_cell * len(cells)
        assert built == [(seed, stream_id) for _, seed, stream_id in used]

    @pytest.mark.parametrize(
        "flags,expected",
        [
            (["--family", "lomax"], [("arrivals", 5, 0), ("holds", 5, 2**32)]),
            (["--arrivals", "1,2"], [("holds", 5, 2**32)]),  # a fixture draws no arrivals
        ],
    )
    def test_simulate_uses_ids_0_and_2_to_the_32(self, streams, flags, expected, tmp_path):
        built, used = streams
        assert main(["simulate", "--seed", "5", *flags, "--out", str(tmp_path)]) == 0
        assert used == expected
        assert built == [(seed, stream_id) for _, seed, stream_id in expected]
