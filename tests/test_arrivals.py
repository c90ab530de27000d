import math

import numpy as np
import pytest

from arrivalab import (
    ArrivalTrace,
    DomainError,
    ExponentialParams,
    ParameterError,
    ParetoOneParams,
    ParetoTwoParams,
    PoissonParams,
    RngStream,
    fixed_trace,
    generate_trace,
    poisson_pmf,
)
from arrivalab import arrivals
from arrivalab.arrivals import _enforce_strict_increase
from arrivalab.csvio import write_trace_csv

# chi-square 1% critical value, 3 degrees of freedom (bins 0,1,2,>=3)
CHI2_CRIT_3DOF_1PCT = 11.345


def strict_increase_by_loop(times: np.ndarray, horizon: float) -> np.ndarray:
    """The repair one arrival at a time, the reference for ``_enforce_strict_increase``:
    a time at or below the one before moves one ulp past it, and the first that
    moves past the horizon ends the trace."""
    if times.size < 2 or not np.any(np.diff(times) <= 0):
        return times
    out = times.copy()
    for i in range(1, out.size):
        if out[i] <= out[i - 1]:
            out[i] = np.nextafter(out[i - 1], np.inf)
            if out[i] > horizon:
                return out[:i]
    return out


def exp_trace(seed, rate=0.9, horizon=1000.0, stream_id=0):
    return generate_trace("exponential", ExponentialParams(rate), horizon, RngStream(seed, stream_id))


class TestGenerateTrace:
    def test_tiny_horizon_gives_empty_trace(self):
        tr = generate_trace("exponential", ExponentialParams(0.3), 1e-9, RngStream(0, 0))
        assert len(tr) == 0
        assert tr.horizon == 1e-9

    def test_times_strictly_increasing_within_horizon(self):
        tr = exp_trace(seed=1)
        assert np.all(np.diff(tr.times) > 0)
        assert tr.times[0] > 0
        assert tr.times[-1] <= tr.horizon

    def test_exponential_count_near_rate_times_horizon(self):
        tr = exp_trace(seed=2)
        assert abs(len(tr) - 900) < 3 * np.sqrt(900)

    def test_heavy_tailed_counts_are_bursty(self):
        counts = [
            len(generate_trace("pareto1", ParetoOneParams(0.5), 1000.0, RngStream(seed, 0)))
            for seed in range(20)
        ]
        assert max(counts) > 10 * max(min(counts), 1)

    def test_rejects_bad_horizon(self):
        with pytest.raises(DomainError):
            generate_trace("exponential", ExponentialParams(1.0), 0.0, RngStream(0, 0))

    def test_rejects_unknown_family_and_wrong_params(self):
        with pytest.raises(ParameterError):
            generate_trace("weibull", ExponentialParams(1.0), 10.0, RngStream(0, 0))
        with pytest.raises(ParameterError, match=r"^arrival family 'pareto1' needs ParetoOneParams, "
                                                 r"got ExponentialParams$"):
            generate_trace("pareto1", ExponentialParams(1.0), 10.0, RngStream(0, 0))

    def test_pareto1_and_lomax_keep_their_own_params_types(self):
        # ParetoOneParams carries scale 1, yet the two families stay distinct
        with pytest.raises(ParameterError):
            generate_trace("lomax", ParetoOneParams(0.5), 10.0, RngStream(0, 0))
        with pytest.raises(ParameterError):
            generate_trace("pareto1", ParetoTwoParams(0.5), 10.0, RngStream(0, 0))

    def test_regeneration_is_exact(self):
        tr = exp_trace(seed=3, stream_id=5)
        again = exp_trace(seed=3, stream_id=5)
        assert np.array_equal(tr.times, again.times)
        assert not np.array_equal(tr.times, exp_trace(seed=3, stream_id=6).times)

    def test_trace_validates_ordering(self):
        with pytest.raises(DomainError):
            ArrivalTrace(np.array([1.0, 1.0, 2.0]), 5.0)
        with pytest.raises(DomainError):
            ArrivalTrace(np.array([1.0, 6.0]), 5.0)

    def test_times_are_frozen(self):
        tr = exp_trace(seed=4, horizon=50.0)
        with pytest.raises(ValueError):
            tr.times[0] = -1.0

    def test_rejects_non_finite_horizon(self):
        with pytest.raises(DomainError, match="finite"):
            fixed_trace([1.0], horizon=math.inf)

    @pytest.mark.parametrize(
        "times,error",
        [
            ([math.nan], r"lie in \(0, horizon\]"),
            ([1.0, math.nan], r"lie in \(0, horizon\]"),
            ([math.nan, 1.0], r"lie in \(0, horizon\]"),
            ([1.0, math.nan, 3.0], "strictly increasing"),
        ],
    )
    def test_rejects_nan_times(self, times, error):
        # NaN compares false both ways, so each check must fail on it rather than pass
        with pytest.raises(DomainError, match=error):
            fixed_trace(times, 5.0)


    @pytest.mark.parametrize("bound", [1000, 2048, 2500])
    def test_a_trace_past_the_arrival_bound_is_refused(self, bound, monkeypatch):
        monkeypatch.setattr(arrivals, "_MAX_ARRIVALS", bound)
        with pytest.raises(ParameterError, match=f"^more than {bound} exponential arrivals fall "
                                                 f"before the horizon 1000.0; a trace holds at most {bound}$"):
            exp_trace(0, rate=10.0)  # about 10,000 arrivals

    def test_a_trace_at_the_arrival_bound_is_kept(self, monkeypatch):
        n = len(exp_trace(0, rate=10.0))
        monkeypatch.setattr(arrivals, "_MAX_ARRIVALS", n)
        assert len(exp_trace(0, rate=10.0)) == n

class UniformsDouble:
    """Stands in for an RngStream: its first block starts with ``head``, and 0.5 fills the rest."""

    seed, stream_id = 0, 0

    def __init__(self, *head):
        self.head = head

    def uniform_open(self, size):
        u = np.full(size, 0.5)
        u[: len(self.head)] = self.head
        self.head = ()
        return u


class TestSubUlpGaps:
    """A gap below half an ulp of the running time vanishes in the cumulative
    sum; the later arrival is moved one ulp up, so times stay strictly increasing."""

    def test_a_vanished_gap_becomes_one_ulp(self):
        params = ExponentialParams(4.0)
        # a first gap of about 1.15 (ulp 2**-52), then one of 2**-55
        gaps = -np.log([0.01, 1 - 2**-53]) / params.rate
        assert gaps[1] > 0 and gaps[0] + gaps[1] == gaps[0]  # the sum ties
        tr = generate_trace("exponential", params, 2.0, UniformsDouble(0.01, 1 - 2**-53))
        assert tr.times[0] == gaps[0]
        assert tr.times[1] == np.nextafter(tr.times[0], np.inf)
        assert np.all(np.diff(tr.times) > 0)
        assert len(tr) == 6

    def test_a_tie_at_the_horizon_is_dropped(self):
        # one ulp past the horizon lies outside the trace
        out = _enforce_strict_increase(np.array([0.5, 1.0, 1.0]), 1.0)
        assert out.tolist() == [0.5, 1.0]

    def test_a_run_of_ties_climbs_one_ulp_a_step_into_the_times_after_it(self):
        up = [1.0]
        for _ in range(4):
            up.append(np.nextafter(up[-1], np.inf))
        out = _enforce_strict_increase(np.array([1.0, 1.0, 1.0, up[1], up[4]]), 2.0)
        assert out.tolist() == up

    def test_a_run_of_ties_is_cut_where_it_passes_the_horizon(self):
        out = _enforce_strict_increase(np.array([0.5, 1.0, 1.0, 1.0, 1.0]), float(np.nextafter(1.0, np.inf)))
        assert out.tolist() == [0.5, 1.0, np.nextafter(1.0, np.inf)]

    def test_the_scan_equals_the_loop_on_random_tie_patterns(self):
        rng = np.random.default_rng(34)
        for _ in range(2000):
            n = int(rng.integers(2, 40))
            # steps of 0 ulps (a tie), 1 or 2 (which a climbing run of ties reaches) or many
            steps = rng.choice([0, 0, 0, 1, 2, 10**6], size=n - 1)
            start = np.array(rng.choice([5e-324, 1e-300, 1.0, 1e6])).view(np.int64)
            times = (start + np.concatenate([[0], np.cumsum(steps)])).view(np.float64)
            # at the last time or a few ulps past it, so a late tie may climb past the horizon
            horizon = float((times[-1:].view(np.int64) + rng.integers(0, 4)).view(np.float64)[0])
            assert _enforce_strict_increase(times, horizon).tobytes() == strict_increase_by_loop(times, horizon).tobytes()


class TestCountInWindow:
    def test_disjoint_unit_window_counts_uncorrelated(self):
        tr = exp_trace(seed=8, rate=1.0, horizon=10_001.0)
        edges = np.arange(0, 10_001)
        counts = np.diff(np.searchsorted(tr.times, edges, side="right"))
        x, y = counts[:-1], counts[1:]
        rho = np.corrcoef(x, y)[0, 1]
        assert abs(rho) < 0.05


class TestPoissonCountLaw:
    def test_unit_window_counts_match_poisson_law(self):
        # chi-square over bins {0,1,2,>=3} against the analytic pmf, per seed
        rate = 0.9
        p = PoissonParams(rate)
        probs = [poisson_pmf(k, p) for k in range(3)]
        probs.append(1.0 - sum(probs))
        n_windows = 1000
        edges = np.arange(0, n_windows + 1)
        passes = 0
        for seed in range(100):
            tr = generate_trace("exponential", ExponentialParams(rate), float(n_windows), RngStream(seed, 1))
            counts = np.diff(np.searchsorted(tr.times, edges, side="right"))
            observed = [
                int(np.sum(counts == 0)),
                int(np.sum(counts == 1)),
                int(np.sum(counts == 2)),
                int(np.sum(counts >= 3)),
            ]
            stat = sum(
                (obs - n_windows * pr) ** 2 / (n_windows * pr) for obs, pr in zip(observed, probs)
            )
            passes += stat < CHI2_CRIT_3DOF_1PCT
        assert passes >= 95


class TestTraceCsv:
    def test_export_format(self, tmp_path):
        tr = fixed_trace([0.5, 1.25], horizon=2.0)
        path = write_trace_csv(tmp_path / "trace.csv", tr, {"family": "fixed"})
        lines = path.read_text().splitlines()
        header_at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        assert lines[:header_at] == ["# family=fixed", "# count=2"]  # the caller's provenance, then the count
        assert lines[header_at] == "index,time"
        assert lines[header_at + 1] == "0,0.5"
        assert lines[header_at + 2] == "1,1.25"
        assert len(lines) == header_at + 3
