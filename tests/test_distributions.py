import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln

from arrivalab import (
    DEFAULT_SHAPE_SWEEP,
    DomainError,
    ExponentialParams,
    ParameterError,
    ParetoOneParams,
    ParetoTwoParams,
    PoissonParams,
    exp_cdf,
    exp_pdf,
    exp_survival,
    lomax_cdf,
    lomax_pdf,
    lomax_survival,
    normal_approx_pmf,
    pareto1_cdf,
    pareto1_pdf,
    pareto1_survival,
    pareto2_cdf_shifted,
    pareto2_pdf_powerlaw,
    poisson_cdf,
    poisson_pmf,
)
from arrivalab.distributions import _lgamma_integer


def central_difference(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)


class TestPoissonPmf:
    def test_zero_count_mean_one(self):
        # (m^0 e^-m) / 0! = e^-1 at m = 0.5 * 2
        assert poisson_pmf(0, PoissonParams(0.5, 2.0)) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_two_counts_unit_mean(self):
        assert poisson_pmf(2, PoissonParams(1.0, 1.0)) == pytest.approx(math.exp(-1.0) / 2.0, rel=1e-14)

    def test_mass_sums_to_one(self):
        total = float(np.sum(poisson_pmf(np.arange(201), PoissonParams(0.9, 1.0))))
        assert abs(total - 1.0) < 1e-12

    @pytest.mark.parametrize("mean", [0.3, 0.9, 5.0, 100.0])
    def test_normalization_across_means(self, mean):
        top = int(max(200, 10 * mean))
        total = float(np.sum(poisson_pmf(np.arange(top + 1), PoissonParams(mean, 1.0))))
        assert abs(total - 1.0) < 1e-10

    def test_large_mean_stays_finite(self):
        # log-space evaluation: huge means must not overflow
        p = PoissonParams(1e4, 1.0)
        val = poisson_pmf(10_000, p)
        assert 0.0 < val < 1.0

    def test_rejects_negative_and_fractional_counts(self):
        p = PoissonParams(1.0, 1.0)
        with pytest.raises(DomainError):
            poisson_pmf(-1, p)
        with pytest.raises(DomainError):
            poisson_pmf(1.5, p)

    @pytest.mark.parametrize("rate,duration", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (math.inf, 1.0), (math.nan, 1.0)])
    def test_rejects_bad_params(self, rate, duration):
        with pytest.raises(ParameterError):
            PoissonParams(rate, duration)


class TestPoissonCdf:
    def test_at_zero_equals_pmf(self):
        p = PoissonParams(1.0, 1.0)
        assert poisson_cdf(0, p) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_reaches_total_mass(self):
        p = PoissonParams(1.0, 1.0)
        assert abs(poisson_cdf(50, p) - 1.0) < 1e-9

    def test_telescopes_to_pmf(self):
        p = PoissonParams(3.0, 1.0)
        for n in range(1, 40):
            step = poisson_cdf(n, p) - poisson_cdf(n - 1, p)
            assert step == pytest.approx(poisson_pmf(n, p), abs=1e-12)

    def test_nondecreasing(self):
        p = PoissonParams(5.0, 1.0)
        vals = poisson_cdf(np.arange(100), p)
        assert np.all(np.diff(vals) >= 0)


class TestExponential:
    def test_survival_at_half_life(self):
        assert exp_survival(math.log(2.0), ExponentialParams(1.0)) == pytest.approx(0.5, rel=1e-12)

    def test_cdf_at_origin(self):
        assert exp_cdf(0.0, ExponentialParams(2.7)) == 0.0

    def test_pdf_at_origin_equals_rate(self):
        assert exp_pdf(0.0, ExponentialParams(0.3)) == 0.3

    def test_rejects_negative_argument(self):
        with pytest.raises(DomainError):
            exp_cdf(-0.1, ExponentialParams(1.0))


class TestParetoOne:
    def test_cdf_support_boundary(self):
        assert pareto1_cdf(0.0, ParetoOneParams(0.5)) == 0.0

    def test_cdf_unit_shape(self):
        assert pareto1_cdf(1.0, ParetoOneParams(1.0)) == pytest.approx(0.5, rel=1e-14)

    def test_cdf_half_shape(self):
        # 1 - (1/4)^0.5
        assert pareto1_cdf(3.0, ParetoOneParams(0.5)) == pytest.approx(0.5, rel=1e-14)

    def test_pdf_at_origin_equals_shape(self):
        assert pareto1_pdf(0.0, ParetoOneParams(0.4)) == 0.4

    def test_pdf_unit_shape(self):
        assert pareto1_pdf(1.0, ParetoOneParams(1.0)) == pytest.approx(0.25, rel=1e-14)

    def test_pdf_is_cdf_derivative(self):
        p = ParetoOneParams(0.8)
        fd = central_difference(lambda x: pareto1_cdf(x, p), 2.0)
        assert fd == pytest.approx(pareto1_pdf(2.0, p), rel=1e-6)

    def test_survival_at_origin(self):
        assert pareto1_survival(0.0, ParetoOneParams(0.9)) == 1.0

    def test_survival_half_shape(self):
        assert pareto1_survival(3.0, ParetoOneParams(0.5)) == pytest.approx(0.5, rel=1e-14)

    def test_survival_deep_tail_positive(self):
        # log-space closed form: (1 + 1e6)^(-0.3), nothing underflows
        expected = math.exp(-0.3 * math.log1p(1e6))
        got = pareto1_survival(1e6, ParetoOneParams(0.3))
        assert got > 0.0
        assert got == pytest.approx(expected, rel=1e-12)

    def test_rejects_negative_argument(self):
        with pytest.raises(DomainError):
            pareto1_pdf(-1e-9, ParetoOneParams(1.0))


class TestParetoTwoAsWritten:
    def test_shifted_cdf_zero_mass_at_origin(self):
        assert pareto2_cdf_shifted(0.0, ParetoTwoParams(1.0, 2.0)) == 0.0

    def test_shifted_cdf_unit_params(self):
        assert pareto2_cdf_shifted(1.0, ParetoTwoParams(1.0, 1.0)) == pytest.approx(0.5, rel=1e-14)

    def test_shifted_cdf_monotone_on_grid(self):
        p = ParetoTwoParams(1.5, 0.9)
        vals = pareto2_cdf_shifted(np.linspace(0.0, 100.0, 2001), p)
        assert np.all(np.diff(vals) >= 0)
        assert 0.0 <= vals[0] <= vals[-1] <= 1.0

    def test_shifted_cdf_rejects_shape_below_one(self):
        with pytest.raises(ParameterError):
            pareto2_cdf_shifted(1.0, ParetoTwoParams(0.5, 1.0))

    def test_powerlaw_pdf_at_scale_point(self):
        # (shape/scale) * 1 at x = scale
        assert pareto2_pdf_powerlaw(2.0, ParetoTwoParams(0.7, 2.0)) == pytest.approx(0.35, rel=1e-14)

    def test_powerlaw_pdf_value(self):
        # 0.5 * (1/2)^0.5
        got = pareto2_pdf_powerlaw(2.0, ParetoTwoParams(0.5, 1.0))
        assert got == pytest.approx(0.5 * math.sqrt(0.5), rel=1e-12)

    def test_powerlaw_pdf_rejects_origin(self):
        with pytest.raises(DomainError):
            pareto2_pdf_powerlaw(0.0, ParetoTwoParams(1.5, 1.0))

    def test_pair_is_not_derivative_consistent(self):
        # the deliberate mismatch: the power-law density is far from the
        # shifted CDF's finite-difference derivative
        p = ParetoTwoParams(1.5, 1.0)
        fd = central_difference(lambda x: pareto2_cdf_shifted(x, p), 2.0)
        pdf = pareto2_pdf_powerlaw(2.0, p)
        assert abs(fd - pdf) / fd > 0.5


class TestLomax:
    @pytest.mark.parametrize("shape", DEFAULT_SHAPE_SWEEP)
    def test_reduces_to_one_parameter_family_at_unit_scale(self, shape):
        xs = np.linspace(0.0, 40.0, 401)
        two = lomax_cdf(xs, ParetoTwoParams(shape, 1.0))
        one = pareto1_cdf(xs, ParetoOneParams(shape))
        assert np.array_equal(two, one)

    def test_survival_at_scale_point(self):
        assert lomax_survival(2.0, ParetoTwoParams(1.0, 2.0)) == pytest.approx(0.5, rel=1e-14)

    @pytest.mark.parametrize("shape,scale", [(0.5, 1.0), (0.3, 2.0), (0.8, 1.5), (2.0, 3.0)])
    def test_pdf_integrates_to_one(self, shape, scale):
        p = ParetoTwoParams(shape, scale)
        total, _ = quad(lambda x: lomax_pdf(x, p), 0.0, np.inf)
        assert abs(total - 1.0) < 1e-8

    def test_pdf_is_cdf_derivative(self):
        p = ParetoTwoParams(0.7, 1.3)
        for x in (0.1, 1.0, 4.0):
            fd = central_difference(lambda x_: lomax_cdf(x_, p), x)
            assert fd == pytest.approx(lomax_pdf(x, p), rel=1e-6)


class TestNormalApproximation:
    def test_close_at_large_mean(self):
        p = PoissonParams(100.0, 1.0)
        exact = poisson_pmf(100, p)
        approx = normal_approx_pmf(100, p)
        assert abs(approx - exact) / exact < 0.02

    def test_poor_at_small_mean(self):
        p = PoissonParams(1.0, 1.0)
        exact = poisson_pmf(0, p)
        approx = normal_approx_pmf(0, p)
        assert abs(approx - exact) / exact > 0.05

    def test_total_mass_at_large_mean(self):
        p = PoissonParams(100.0, 1.0)
        total = float(np.sum(normal_approx_pmf(np.arange(0, 1001), p)))
        assert abs(total - 1.0) < 1e-3

    def test_error_shrinks_with_mean(self):
        def worst(mean):
            p = PoissonParams(mean, 1.0)
            ns = np.arange(0, int(mean + 10 * math.sqrt(mean)) + 1)
            return float(np.max(np.abs(poisson_pmf(ns, p) - normal_approx_pmf(ns, p))))

        assert worst(100.0) < worst(1.0)


FAMILY_CLOSURES = [
    ("exponential", lambda x: exp_cdf(x, ExponentialParams(1.0)), lambda x: exp_survival(x, ExponentialParams(1.0))),
    ("pareto1", lambda x: pareto1_cdf(x, ParetoOneParams(0.5)), lambda x: pareto1_survival(x, ParetoOneParams(0.5))),
    ("lomax", lambda x: lomax_cdf(x, ParetoTwoParams(0.7, 2.0)), lambda x: lomax_survival(x, ParetoTwoParams(0.7, 2.0))),
]


class TestFamilyInvariants:
    @pytest.mark.parametrize("name,cdf,survival", FAMILY_CLOSURES, ids=lambda v: v if isinstance(v, str) else "")
    def test_cdf_monotone_and_survival_consistent(self, name, cdf, survival):
        xs = np.linspace(0.0, 50.0, 10_001)
        c = cdf(xs)
        s = survival(xs)
        assert 0.0 <= c[0] <= 1.0
        assert np.all(np.diff(c) >= 0)
        assert np.all(s > 0.0)
        assert np.max(np.abs(s - (1.0 - c))) < 1e-12

    def test_shifted_variant_cdf_bounds(self):
        xs = np.linspace(0.0, 50.0, 10_001)
        c = pareto2_cdf_shifted(xs, ParetoTwoParams(1.5, 0.9))
        assert 0.0 <= c[0] <= 1.0
        assert np.all(np.diff(c) >= 0)

    def test_derivative_consistency_at_random_points(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            u = rng.random(3)
            x = 0.05 + 9.95 * u[0]
            shape = 0.2 + 2.8 * u[1]
            scale = 0.5 + 2.5 * u[2]

            p1 = ParetoOneParams(shape)
            fd = central_difference(lambda t: pareto1_cdf(t, p1), x)
            assert abs(fd - pareto1_pdf(x, p1)) / pareto1_pdf(x, p1) < 1e-6

            p2 = ParetoTwoParams(shape, scale)
            fd = central_difference(lambda t: lomax_cdf(t, p2), x)
            assert abs(fd - lomax_pdf(x, p2)) / lomax_pdf(x, p2) < 1e-6

            pe = ExponentialParams(0.2 + 1.8 * u[1])
            xe = 0.05 + 3.95 * u[0]
            fd = central_difference(lambda t: exp_cdf(t, pe), xe)
            assert abs(fd - exp_pdf(xe, pe)) / exp_pdf(xe, pe) < 1e-6

    def test_variant_pair_fails_derivative_consistency(self):
        p = ParetoTwoParams(1.5, 1.0)
        worst = 0.0
        for x in (0.5, 1.0, 2.0, 5.0):
            fd = central_difference(lambda t: pareto2_cdf_shifted(t, p), x)
            worst = max(worst, abs(fd - pareto2_pdf_powerlaw(x, p)) / fd)
        assert worst > 0.1

    @pytest.mark.parametrize("shape", DEFAULT_SHAPE_SWEEP)
    def test_heavy_tail_dominates_exponential(self, shape):
        # some threshold below 1000 after which the polynomial tail stays above
        xs = np.linspace(0.0, 1000.0, 4001)
        pareto_tail = pareto1_survival(xs, ParetoOneParams(shape))
        exp_tail = exp_survival(xs, ExponentialParams(1.0))
        above = pareto_tail > exp_tail
        crossings = np.flatnonzero(~above)
        cutoff = crossings.max() if crossings.size else 0
        assert xs[cutoff] <= 1000.0
        assert np.all(above[cutoff + 1:])
        assert above[-1]


class TestArrayScalarParity:
    def test_vectorized_matches_scalar(self):
        xs = np.array([0.0, 0.5, 2.0, 10.0])
        p = ParetoOneParams(0.8)
        vec = pareto1_pdf(xs, p)
        assert vec.shape == xs.shape
        for x, v in zip(xs, vec):
            assert pareto1_pdf(float(x), p) == v

    def test_scalar_returns_python_float(self):
        assert isinstance(exp_cdf(1.0, ExponentialParams(1.0)), float)
        assert isinstance(poisson_pmf(3, PoissonParams(1.0, 1.0)), float)


def same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


class TestLogFactorialMatchesScipy:
    """The integer log-gamma is a port of Cephes lgam: scipy's gammaln is the
    oracle, and agreement is bit for bit, not to a tolerance."""

    @staticmethod
    def lgamma(x: np.ndarray) -> np.ndarray:
        return np.array([_lgamma_integer(v) for v in x.tolist()])

    def test_every_count_up_to_200000(self):
        x = np.arange(200_001, dtype=float) + 1.0
        assert same_bits(self.lgamma(x), gammaln(x))

    def test_log_spaced_counts_and_branch_points(self):
        k = np.unique(np.floor(np.logspace(0, 308, 5000)))
        # both sides of the 13, 1000, 1e8 and overflow branches of lgam
        edges = [b + d for b in (12.0, 999.0, 1e8 - 1.0) for d in (-1.0, 0.0, 1.0, 2.0)]
        edges += [np.nextafter(2.556348e305, 0.0) - 1.0, 2.556348e305 - 1.0, np.nextafter(2.556348e305, np.inf)]
        x = np.concatenate([k, np.floor(np.array(edges))]) + 1.0
        got = self.lgamma(x)
        assert np.isinf(got).any() and np.isfinite(got).any()
        assert same_bits(got, gammaln(x))

    @pytest.mark.parametrize("mean", [0.3, 0.9, 5.0, 100.0, 1e4])
    def test_poisson_pmf_matches_gammaln_form(self, mean):
        p = PoissonParams(mean, 1.0)
        k = np.arange(2 * int(mean + 10 * math.sqrt(mean) + 10), dtype=float)
        want = np.exp(k * math.log(mean) - mean - gammaln(k + 1.0))
        assert same_bits(poisson_pmf(k, p), want)
        assert same_bits(poisson_pmf(k.reshape(-1, 2)[:, ::-1], p), want.reshape(-1, 2)[:, ::-1])
        for i in (0, 1, 12, len(k) - 1):
            assert same_bits(poisson_pmf(int(k[i]), p), want[i])
            assert same_bits(poisson_pmf(np.array(k[i]), p), want[i])
