import math

import numpy as np
import pytest

from arrivalab import (
    DEFAULT_SHAPE_SWEEP,
    DomainError,
    EmpiricalSample,
    ExponentialParams,
    ParetoOneParams,
    ParetoTwoParams,
    PoissonParams,
    RngStream,
    crossover_point,
    exp_cdf,
    exp_pdf,
    exp_survival,
    ks_critical_value,
    ks_statistic,
    normal_approx_error,
    pareto1_cdf,
    pareto1_pdf,
    pareto1_survival,
    sample_pareto1,
)


class TestEmpiricalSample:
    def test_from_values_sorts(self):
        s = EmpiricalSample.from_values([3.0, 1.0, 2.0])
        assert list(s.values) == [1.0, 2.0, 3.0]

    def test_rejects_empty_unsorted_negative(self):
        with pytest.raises(DomainError):
            EmpiricalSample(np.array([]))
        with pytest.raises(DomainError):
            EmpiricalSample(np.array([2.0, 1.0]))
        with pytest.raises(DomainError):
            EmpiricalSample(np.array([-1.0, 1.0]))

    @pytest.mark.parametrize(
        "values, message",
        [
            ([], "must hold at least one value"),
            ([2.0, 1.0], "must be sorted ascending"),
            ([-1.0, 1.0], "values must be finite and nonnegative"),
            ([1.0, -1.0], "values must be finite and nonnegative"),  # sign is checked before order
            ([math.nan, 1.0, 2.0], "values must be finite and nonnegative"),
            ([1.0, math.nan, 2.0], "values must be finite and nonnegative"),
            ([1.0, 2.0, math.nan], "values must be finite and nonnegative"),
            ([math.nan], "values must be finite and nonnegative"),
            ([1.0, 2.0, math.inf], "values must be finite and nonnegative"),
            ([-math.inf, 1.0, 2.0], "values must be finite and nonnegative"),
        ],
    )
    def test_each_bad_input_raises_its_message(self, values, message):
        with pytest.raises(DomainError, match=f"^empirical sample {message}$"):
            EmpiricalSample(np.array(values, dtype=float))

    @pytest.mark.parametrize("values", [[0.0], [1.0, 1.0], [0.0, 0.5, 0.5, 7.0]])
    def test_accepts_sorted_nonnegative_values_with_ties(self, values):
        assert list(EmpiricalSample(np.array(values)).values) == values

    def test_values_are_a_read_only_copy(self):
        raw = np.array([1.0, 2.0, 3.0])
        for s in (EmpiricalSample(raw), EmpiricalSample.from_values(raw)):
            raw[0] = 0.5  # the caller's array stays theirs
            assert list(s.values) == [1.0, 2.0, 3.0]
            with pytest.raises(ValueError):
                s.values[0] = 0.0
            raw[0] = 1.0


class TestKsStatistic:
    def test_hand_computed_uniform_case(self):
        s = EmpiricalSample.from_values([0.2, 0.4, 0.6, 0.8])
        d = ks_statistic(s, lambda x: np.clip(x, 0.0, 1.0))
        assert d == pytest.approx(0.2, abs=1e-15)

    def test_quantile_aligned_sample_minimizes_distance(self):
        # points at F^{-1}((i - 1/2) / n) give D = 1 / (2n)
        n = 50
        p = ExponentialParams(1.0)
        qs = -(np.log1p(-(np.arange(1, n + 1) - 0.5) / n))
        s = EmpiricalSample.from_values(qs)
        d = ks_statistic(s, lambda x: exp_cdf(x, p))
        assert d == pytest.approx(1.0 / (2 * n), abs=1e-12)

    def test_gross_misfit_detected(self):
        draws = sample_pareto1(RngStream(13, 0), ParetoOneParams(0.5), size=10_000)
        s = EmpiricalSample.from_values(draws)
        d = ks_statistic(s, lambda x: exp_cdf(x, ExponentialParams(1.0)))
        assert d > 0.1

    @pytest.mark.parametrize(
        "cdf", [lambda x: 0.5, lambda x: np.full(1, 0.5), lambda x: x[:-1]], ids=["scalar", "one", "short"]
    )
    def test_wrong_shaped_cdf_is_an_error(self, cdf):
        # a result that would broadcast against the sample must not pass silently
        with pytest.raises(DomainError):
            ks_statistic(EmpiricalSample.from_values([0.25, 0.5, 0.75]), cdf)

    def test_bit_equal_to_steps_rebuilt_per_call(self):
        # n values in mixed order, each more than once, so stored steps are reused
        for n in (4097, 1, 4097, 10_000, 1, 2, 10_000, 3, 2, 3):
            p = ParetoOneParams(0.7)
            s = EmpiricalSample.from_values(sample_pareto1(RngStream(n, 5), p, size=n))
            fx = pareto1_cdf(s.values, p)
            i = np.arange(1, n + 1, dtype=float)
            want = float(max(np.max(i / n - fx), np.max(fx - (i - 1.0) / n)))
            assert ks_statistic(s, lambda x: pareto1_cdf(x, p)).hex() == want.hex()

    def test_stored_steps_are_read_only(self):
        from arrivalab.stats import _ecdf_steps

        steps = _ecdf_steps(3)
        with pytest.raises(ValueError):
            steps[0] = 0.5
        assert list(_ecdf_steps(3)) == [0.0, 1 / 3, 2 / 3, 1.0]

    def test_round_trip_pass_rate_across_seeds(self):
        p = ParetoOneParams(0.5)
        crit = ks_critical_value(10_000)
        passes = 0
        for seed in range(100):
            draws = sample_pareto1(RngStream(seed, 4), p, size=10_000)
            d = ks_statistic(EmpiricalSample.from_values(draws), lambda x: pareto1_cdf(x, p))
            passes += d < crit
        assert passes >= 95


class TestSampleQuantile:
    def test_heavy_tail_median(self):
        # analytic median of the two-parameter family: scale * (2^(1/shape) - 1)
        from arrivalab import sample_lomax

        draws = sample_lomax(RngStream(14, 0), ParetoTwoParams(0.5, 1.0), size=100_000)
        assert abs(np.median(draws) - 3.0) / 3.0 < 0.05


class TestCrossoverPoint:
    def test_pareto_overtakes_exponential_density(self):
        f = lambda x: pareto1_pdf(x, ParetoOneParams(0.5))
        g = lambda x: exp_pdf(x, ExponentialParams(1.0))
        x = crossover_point(f, g, 0.0, 100.0)
        assert 2.6 < x < 2.7

    def test_equal_functions_return_interval_start(self):
        f = lambda x: exp_pdf(x, ExponentialParams(1.0))
        assert crossover_point(f, f, 0.5, 10.0) == 0.5

    def test_no_crossing_returns_none(self):
        f = lambda x: 0.1
        g = lambda x: 0.5
        assert crossover_point(f, g, 0.0, 10.0) is None

    def test_rejects_bad_interval(self):
        f = lambda x: x
        with pytest.raises(DomainError):
            crossover_point(f, f, 3.0, 3.0)
        with pytest.raises(DomainError):
            crossover_point(f, f, 0.0, math.inf)

    def test_root_is_order_symmetric(self):
        # the defining equation f = g does not care which side is "f":
        # the located root satisfies it to tolerance, and restarting the
        # search at the root returns the root itself
        f = lambda x: pareto1_pdf(x, ParetoOneParams(0.5))
        g = lambda x: exp_pdf(x, ExponentialParams(1.0))
        x = crossover_point(f, g, 0.0, 100.0)
        slope = abs(f(x + 1e-6) - f(x - 1e-6)) / 2e-6 + abs(g(x + 1e-6) - g(x - 1e-6)) / 2e-6
        assert abs(f(x) - g(x)) <= slope * 1e-9 + 1e-15
        assert crossover_point(f, g, x, 100.0) == x

    def test_bisection_tolerance_honored(self):
        f = lambda x: x
        g = lambda x: 1.0
        x = crossover_point(f, g, 0.0, 10.0)
        assert abs(x - 1.0) < 1e-8

    @pytest.mark.parametrize("shape", DEFAULT_SHAPE_SWEEP)
    def test_survival_dominance_chain(self, shape):
        pe = ExponentialParams(1.0)
        p1 = ParetoOneParams(shape)
        x = crossover_point(
            lambda t: pareto1_survival(t, p1), lambda t: exp_survival(t, pe), 0.0, 1000.0
        )
        assert x is not None
        # below the crossover the exponential tail sits above; for these
        # shapes the curves touch at the origin, so that region is empty
        if x > 0.0:
            for t in np.linspace(0.0, x, 50)[1:-1]:
                assert exp_survival(float(t), pe) > pareto1_survival(float(t), p1)
        # beyond it the heavy tail stays on top
        for t in np.linspace(x + 1.0, 1000.0, 50):
            assert pareto1_survival(float(t), p1) > exp_survival(float(t), pe)

    def test_survival_dominance_nontrivial_for_light_shape(self):
        # shape > 1 decays faster than the exponential at first; searching
        # past the origin touch point exposes the interior crossover, the
        # positive solution of x = 2 ln(1 + x)
        pe = ExponentialParams(1.0)
        p1 = ParetoOneParams(2.0)
        x = crossover_point(
            lambda t: pareto1_survival(t, p1), lambda t: exp_survival(t, pe), 0.1, 1000.0
        )
        assert 2.0 < x < 3.0
        for t in np.linspace(0.3, x - 0.1, 25):
            assert exp_survival(float(t), pe) > pareto1_survival(float(t), p1)


class TestNormalApproxError:
    def test_smaller_at_larger_mean(self):
        e1 = normal_approx_error(PoissonParams(1.0))
        e10 = normal_approx_error(PoissonParams(10.0))
        e100 = normal_approx_error(PoissonParams(100.0))
        assert e1 > e10 > e100

    def test_monotone_decrease_over_grid(self):
        errors = [normal_approx_error(PoissonParams(m)) for m in (1.0, 5.0, 10.0, 50.0, 100.0)]
        assert all(b < a for a, b in zip(errors, errors[1:]))
