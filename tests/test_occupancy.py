import math

import numpy as np
import pytest

from arrivalab import (
    INFINITE_HOLD,
    DomainError,
    ExponentialParams,
    LocationConfig,
    OccupancySeries,
    ParameterError,
    ParetoTwoParams,
    RngStream,
    blocking_fraction,
    fixed_trace,
    generate_trace,
    peak_stats,
    simulate_occupancy,
)
from arrivalab.csvio import write_occupancy_csv
from arrivalab.samplers import FAMILIES, SMALLEST_UNIFORM


class ScriptedStream:
    """Stream stub handing out a fixed list of uniforms (holding-time control)."""

    def __init__(self, uniforms):
        self._values = list(uniforms)

    def uniform_open(self, size=None):
        if size is None:
            return self._values.pop(0)
        return np.array([self._values.pop(0) for _ in range(size)])


class TestHandTracedFixtures:
    def test_capacity_one_blocks_second_arrival(self):
        trace = fixed_trace([1.0, 2.0], horizon=3.0)
        series = simulate_occupancy(trace, LocationConfig(1, INFINITE_HOLD), RngStream(0, 0))
        assert list(series.breakpoints) == [1.0]
        assert list(series.counts) == [1]
        assert series.admitted == 1 and series.blocked == 1
        assert blocking_fraction(series) == 0.5
        ps = peak_stats(series)
        assert ps.peak_count == 1 and ps.peak_time == 1.0

    def test_empty_trace_constant_zero(self):
        series = simulate_occupancy(fixed_trace([], horizon=10.0), LocationConfig(3), RngStream(0, 0))
        assert series.breakpoints.size == 0
        assert series.admitted == 0 and series.blocked == 0
        ps = peak_stats(series)
        assert ps == type(ps)(0, 0.0, 0.0)
        assert math.isnan(blocking_fraction(series))  # no arrivals, no fraction

    def test_step_at_half_horizon_averages_half(self):
        trace = fixed_trace([5.0], horizon=10.0)
        series = simulate_occupancy(trace, LocationConfig(None, INFINITE_HOLD), RngStream(0, 0))
        assert peak_stats(series).mean_occupancy == pytest.approx(0.5, rel=1e-15)

    def test_departure_ties_release_capacity_first(self):
        # second arrival lands exactly when the first node departs; the
        # departures-before-arrivals rule must admit it
        hold = -math.log(0.5)  # scripted exponential holding, rate 1
        trace = fixed_trace([1.0, 1.0 + hold], horizon=5.0)
        loc = LocationConfig(1, "exponential", ExponentialParams(1.0))
        series = simulate_occupancy(trace, loc, ScriptedStream([0.5, 0.5]))
        assert series.blocked == 0
        assert series.admitted == 2
        assert list(series.counts) == [1, 0, 1, 0]

    def test_earliest_peak_time_reported(self):
        # counts go 1 -> 0 -> 1: the peak of 1 is first attained at t = 1
        trace = fixed_trace([1.0, 2.0], horizon=5.0)
        loc = LocationConfig(None, "exponential", ExponentialParams(1.0))
        series = simulate_occupancy(trace, loc, ScriptedStream([math.exp(-0.5), math.exp(-0.5)]))
        assert list(series.counts) == [1, 0, 1, 0]
        assert peak_stats(series).peak_time == 1.0


class TestStationaryBehavior:
    def test_unbounded_exponential_occupancy_matches_offered_load(self):
        # offered load = arrival rate * mean holding = 0.9
        trace = generate_trace("exponential", ExponentialParams(0.9), 10_000.0, RngStream(42, 0))
        loc = LocationConfig(None, "exponential", ExponentialParams(1.0))
        series = simulate_occupancy(trace, loc, RngStream(42, 1))
        mean = peak_stats(series).mean_occupancy
        assert abs(mean - 0.9) / 0.9 < 0.10
        assert blocking_fraction(series) == 0.0  # nothing to block without a bound

    def test_drains_to_zero_with_finite_holding(self):
        trace = generate_trace("exponential", ExponentialParams(1.0), 200.0, RngStream(5, 0))
        series = simulate_occupancy(
            trace, LocationConfig(None, "exponential", ExponentialParams(0.5)), RngStream(5, 1)
        )
        assert series.admitted == len(trace) > 0
        assert series.counts[-1] == 0
        assert series.departed == series.admitted

    def test_blocking_nondecreasing_in_rate(self):
        rates = (0.3, 0.4, 0.5, 0.8, 0.9)
        loc = LocationConfig(20, "exponential", ExponentialParams(1.0))
        monotone = 0
        for seed in range(20):
            fracs = []
            for rate in rates:
                trace = generate_trace("exponential", ExponentialParams(rate), 100.0, RngStream(seed, 2))
                series = simulate_occupancy(trace, loc, RngStream(seed, 3))
                fracs.append(blocking_fraction(series))
            monotone += all(b >= a for a, b in zip(fracs, fracs[1:]))
        assert monotone > 10


class TestInvariants:
    def test_randomized_simulations_respect_capacity_and_conservation(self):
        rng = np.random.default_rng(7)
        for i in range(300):
            rate = float(rng.uniform(0.2, 2.0))
            horizon = float(rng.uniform(5.0, 30.0))
            capacity = int(rng.integers(1, 6)) if rng.random() < 0.8 else None
            fam = ("exponential", "lomax", INFINITE_HOLD)[int(rng.integers(0, 3))]
            if fam == "exponential":
                loc = LocationConfig(capacity, fam, ExponentialParams(float(rng.uniform(0.5, 2.0))))
            elif fam == "lomax":
                loc = LocationConfig(capacity, fam, ParetoTwoParams(1.5, float(rng.uniform(0.5, 2.0))))
            else:
                loc = LocationConfig(capacity, INFINITE_HOLD)
            trace = generate_trace("exponential", ExponentialParams(rate), horizon, RngStream(1000 + i, 0))
            series = simulate_occupancy(trace, loc, RngStream(1000 + i, 1))
            if capacity is not None and series.counts.size:
                assert series.counts.max() <= capacity
            assert series.admitted + series.blocked == len(trace)
            assert 0 <= series.departed <= series.admitted
            steps = np.diff(np.concatenate([[0], series.counts]))
            assert np.all(np.abs(steps) == 1)

    def test_determinism_under_fixed_streams(self):
        trace = generate_trace("exponential", ExponentialParams(1.0), 100.0, RngStream(3, 0))
        loc = LocationConfig(4, "exponential", ExponentialParams(1.0))
        a = simulate_occupancy(trace, loc, RngStream(3, 1))
        b = simulate_occupancy(trace, loc, RngStream(3, 1))
        assert np.array_equal(a.breakpoints, b.breakpoints)
        assert np.array_equal(a.counts, b.counts)
        assert (a.admitted, a.blocked) == (b.admitted, b.blocked)


class TestConfigValidation:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ParameterError):
            LocationConfig(0)

    @pytest.mark.parametrize("capacity", [True, False, np.bool_(True)])
    def test_rejects_bool_capacity(self, capacity):
        with pytest.raises(ParameterError):
            LocationConfig(capacity)

    def test_rejects_unknown_family(self):
        with pytest.raises(ParameterError):
            LocationConfig(1, "weibull")

    def test_rejects_params_with_infinite_hold(self):
        with pytest.raises(ParameterError):
            LocationConfig(1, INFINITE_HOLD, ExponentialParams(1.0))

    def test_rejects_mismatched_params(self):
        with pytest.raises(ParameterError):
            LocationConfig(1, "lomax", ExponentialParams(1.0))

    def test_default_holding_is_unit_rate_exponential(self):
        loc = LocationConfig(2)
        assert loc.holding_params == ExponentialParams(1.0)

    # the largest hold is the inverse transform at the smallest stream uniform,
    # 2**-54: inf just below each edge, finite (near the float maximum) at it
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "family, rejected, accepted",
        [
            ("lomax", ParetoTwoParams(0.0527, 1.0), ParetoTwoParams(0.0528, 1.0)),
            ("exponential", ExponentialParams(2.08e-307), ExponentialParams(2.09e-307)),
        ],
    )
    def test_holding_law_with_an_infinite_largest_draw(self, family, rejected, accepted):
        with pytest.raises(ParameterError, match=r"infinite hold.*2\*\*-54.*1\.79769e\+308"):
            LocationConfig(None, family, rejected)
        loc = LocationConfig(None, family, accepted)
        _, _, inverse = FAMILIES[family]
        assert 7e307 < inverse(SMALLEST_UNIFORM, loc.holding_params) < math.inf


class TestSeriesValidationAndExport:
    def test_series_rejects_inconsistent_arrays(self):
        with pytest.raises(DomainError):
            OccupancySeries(np.array([1.0, 2.0]), np.array([1]), 1, 0, 5.0)
        with pytest.raises(DomainError):
            OccupancySeries(np.array([2.0, 1.0]), np.array([1, 2]), 2, 0, 5.0)
        with pytest.raises(DomainError):
            OccupancySeries(np.array([1.0]), np.array([-1]), 0, 0, 5.0)

    # peak_stats averages over (0, end_time]; a series with no such span, or
    # one that ends before its last event, is refused when it is built

    def test_peak_stats_rejects_zero_span(self):
        with pytest.raises(DomainError):
            OccupancySeries(np.array([]), np.array([], dtype=np.int64), 0, 0, 0.0)

    @pytest.mark.parametrize("end_time", [-1.0, -math.inf, math.nan])
    def test_series_rejects_a_span_of_no_time(self, end_time):
        with pytest.raises(DomainError, match="^series spans no time$"):
            OccupancySeries(np.array([]), np.array([], dtype=np.int64), 0, 0, end_time)

    def test_peak_stats_zero_span_message(self):
        with pytest.raises(DomainError, match="^series spans no time$"):
            OccupancySeries(np.array([1.0]), np.array([1], dtype=np.int64), 1, 0, 0.0)

    def test_peak_stats_names_infinite_end_time(self):
        # LocationConfig rejects holds that can be inf, but a finite hold near
        # the float maximum added to an arrival time can still overflow
        with pytest.raises(DomainError, match=r"^a departure time overflowed to inf: .* exceeds 1\.79769e\+308$"):
            OccupancySeries(np.array([1.0, math.inf]), np.array([1, 0]), 1, 0, math.inf)

    def test_series_rejects_end_time_before_last_breakpoint(self):
        with pytest.raises(DomainError, match="end_time precedes its last breakpoint"):
            OccupancySeries(np.array([1.0, 3.0]), np.array([1, 0]), 1, 0, 2.0)
        series = OccupancySeries(np.array([1.0, 3.0]), np.array([1, 0]), 1, 0, 3.0)
        assert peak_stats(series).mean_occupancy == pytest.approx(2.0 / 3.0)

    def test_csv_export(self, tmp_path):
        trace = fixed_trace([1.0, 2.0], horizon=3.0)
        series = simulate_occupancy(trace, LocationConfig(1, INFINITE_HOLD), RngStream(0, 0))
        path = write_occupancy_csv(tmp_path / "occupancy.csv", series, {"label": "two"})
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == "# label=two"  # the caller's provenance leads the summary
        assert "# blocking_fraction=0.5" in lines
        assert "# peak_count=1" in lines
        header_at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        assert lines[header_at] == "time,count"
        assert lines[header_at + 1] == "1,1"
