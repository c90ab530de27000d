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
        with pytest.raises(ParameterError):
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
        assert (again.family, again.seed, again.stream_id) == ("exponential", 3, 5)

    def test_trace_validates_ordering(self):
        with pytest.raises(DomainError):
            ArrivalTrace(np.array([1.0, 1.0, 2.0]), 5.0, "fixed")
        with pytest.raises(DomainError):
            ArrivalTrace(np.array([1.0, 6.0]), 5.0, "fixed")

    def test_times_are_frozen(self):
        tr = exp_trace(seed=4, horizon=50.0)
        with pytest.raises(ValueError):
            tr.times[0] = -1.0

    def test_rejects_non_finite_horizon(self):
        with pytest.raises(DomainError, match="finite"):
            fixed_trace([1.0], horizon=math.inf)


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
        path = write_trace_csv(tmp_path / "trace.csv", tr)
        lines = path.read_text().splitlines()
        header_at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        assert lines[header_at] == "index,time"
        assert lines[header_at + 1] == "0,0.5"
        assert lines[header_at + 2] == "1,1.25"
        assert len(lines) == header_at + 3
