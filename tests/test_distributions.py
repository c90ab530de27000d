import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln, ndtr

from arrivalab import (
    DEFAULT_SHAPE_SWEEP,
    DomainError,
    ExperimentConfig,
    ExponentialParams,
    LocationConfig,
    ParameterError,
    ParetoOneParams,
    ParetoTwoParams,
    PoissonParams,
    RngStream,
    exp_cdf,
    exp_pdf,
    exp_survival,
    lomax_cdf,
    lomax_pdf,
    lomax_survival,
    normal_approx_error,
    normal_approx_pmf,
    pareto1_cdf,
    pareto1_pdf,
    pareto1_survival,
    pareto2_cdf_shifted,
    pareto2_pdf_powerlaw,
    poisson_pmf,
)
from arrivalab.distributions import _as_support, _lgamma_integer
from arrivalab.experiments import NORMAL_ERROR_MEANS


# every integer parameter: (build from one value, field it is stored in, low, high)
INTEGER_FIELDS = [
    (RngStream, "seed", 0, 2**64),
    (lambda v: RngStream(0, v), "stream_id", 0, 2**64),
    (LocationConfig, "capacity", 1, math.inf),
    (lambda v: ExperimentConfig(node_budget=v), "node_budget", 1, math.inf),
    (lambda v: ExperimentConfig(replications=v), "replications", 1, math.inf),
    (lambda v: ExperimentConfig(seed=v), "seed", 0, 2**64),
]


@pytest.mark.parametrize(
    "build,name,low,high", INTEGER_FIELDS,
    ids=["RngStream.seed", "RngStream.stream_id", "LocationConfig.capacity",
         "ExperimentConfig.node_budget", "ExperimentConfig.replications", "ExperimentConfig.seed"],
)
def test_integer_parameters_share_one_check(build, name, low, high):
    # below the range, a float, a bool (an int subclass), and the top bound where there is one
    for bad in [low - 1, 1.0 * low, True] + ([high] if high < math.inf else []):
        want = f"{name} must be an integer in [{low}, {high}), got {bad!r}"
        with pytest.raises(ParameterError, match=f"^{re.escape(want)}$"):
            build(bad)
    value = getattr(build(np.int64(low + 1)), name)
    assert type(value) is int and value == low + 1


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("form", [float, np.float64, np.array, lambda v: np.array([1.0, v, 2.0])],
                         ids=["scalar", "numpy-scalar", "0-d", "1-d"])
def test_support_check_rejects_what_lies_outside(form, strict):
    bad = [math.nan, math.inf, -math.inf, -1.0, -0.0 if strict else -1e-300] + ([0.0] if strict else [])
    want = f"f requires finite x {'>' if strict else '>='} 0"
    for v in bad:
        with pytest.raises(DomainError, match=f"^{re.escape(want)}$"):
            _as_support(form(v), "f", strict)
    for v in (1e-300, 1.0, 1e300) + (() if strict else (0.0, -0.0)):
        arr = _as_support(form(v), "f", strict)
        assert np.array_equal(arr, np.asarray(form(v), dtype=float))


@pytest.mark.parametrize("strict", [False, True])
def test_support_check_accepts_an_empty_array(strict):
    assert _as_support(np.array([]), "f", strict).shape == (0,)


def central_difference(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)


class TestPoissonPmf:
    def test_zero_count_mean_one(self):
        # (m^0 e^-m) / 0! = e^-1 at m = 1
        assert poisson_pmf(0, PoissonParams(1.0)) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_two_counts_unit_mean(self):
        assert poisson_pmf(2, PoissonParams(1.0)) == pytest.approx(math.exp(-1.0) / 2.0, rel=1e-14)

    def test_mass_sums_to_one(self):
        total = float(np.sum(poisson_pmf(np.arange(201), PoissonParams(0.9))))
        assert abs(total - 1.0) < 1e-12

    @pytest.mark.parametrize("mean", [0.3, 0.9, 5.0, 100.0])
    def test_normalization_across_means(self, mean):
        top = int(max(200, 10 * mean))
        total = float(np.sum(poisson_pmf(np.arange(top + 1), PoissonParams(mean))))
        assert abs(total - 1.0) < 1e-10

    def test_large_mean_stays_finite(self):
        # log-space evaluation: huge means must not overflow
        p = PoissonParams(1e4)
        val = poisson_pmf(10_000, p)
        assert 0.0 < val < 1.0

    def test_rejects_negative_and_fractional_counts(self):
        p = PoissonParams(1.0)
        with pytest.raises(DomainError):
            poisson_pmf(-1, p)
        with pytest.raises(DomainError):
            poisson_pmf(1.5, p)

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_params(self, rate):
        with pytest.raises(ParameterError):
            PoissonParams(rate)


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

    def test_powerlaw_pdf_past_an_underflowing_product(self):
        # at scale 1e-308 the direct product (shape / scale) * exp(shape * log(scale / x))
        # underflows to 0 from x = 0.5 up, where the density is 1.5 * 1e-154 / x**1.5
        p = ParetoTwoParams(1.5, 1e-308)
        xs = np.array([1e-308, 1e-200, 0.5, 1.0, 1.5, 2.0])
        got = pareto2_pdf_powerlaw(xs, p)
        assert list(got[2:]) == pytest.approx(list(1.5 * math.sqrt(1e-308) / xs[2:] ** 1.5), rel=1e-12)
        assert got[2] == pytest.approx(4.2426e-154, rel=1e-4) and got[5] == pytest.approx(5.3033e-155, rel=1e-4)
        assert [pareto2_pdf_powerlaw(x, p) for x in xs] == list(got)
        # where the product is not 0 its bits are kept
        assert same_bits(got[:2], (1.5 / 1e-308) * np.exp(1.5 * (math.log(1e-308) - np.log(xs[:2]))))

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

    def test_deep_tail_past_an_overflowing_ratio(self):
        # at scale 1e-300, x / scale overflows from x = 1.8e8 up, and the pdf's
        # direct product underflows to 0 from about x = 1e-84 up (5e-151 at x = 1)
        shape, scale = 0.5, 1e-300
        p = ParetoTwoParams(shape, scale)
        xs = np.array([0.0, 1e-300, 1.0, 1e6, 1e8, 1e10, 1e100, 1e300])
        with localcontext() as ctx:
            ctx.prec = 50
            a, s = Decimal(shape), Decimal(scale)
            tail = [s / (s + Decimal(x)) for x in xs]
            want = {
                lomax_survival: [float(t ** a) for t in tail],
                lomax_cdf: [float(1 - t ** a) for t in tail],
                lomax_pdf: [float(a / s * t ** (a + 1)) for t in tail],
            }
        assert want[lomax_survival][5] == pytest.approx(1e-155) and want[lomax_pdf][5] == pytest.approx(5e-166)
        for fn, values in want.items():
            got = fn(xs, p)
            for x, g, w in zip(xs, got, values):
                assert fn(x, p) == g
                assert g == pytest.approx(w, rel=1e-12, abs=0), (fn.__name__, x)
        # where the ratio is finite and the pdf is not 0 the bits are the plain closed forms'
        log1p = np.log1p(xs[:5] / scale)
        assert same_bits(lomax_survival(xs, p)[:5], np.exp(-shape * log1p))
        assert same_bits(lomax_cdf(xs, p)[:5], -np.expm1(-shape * log1p))
        assert same_bits(lomax_pdf(xs, p)[:2], (shape / scale) * np.exp(-(shape + 1.0) * log1p[:2]))

    def test_refuses_a_density_at_zero_past_the_float_maximum(self):
        with pytest.raises(ParameterError, match=r"^shape / scale must not exceed the float maximum "
                                                 r"1\.79769e\+308, got 0\.5 / 1e-320$"):
            ParetoTwoParams(0.5, 1e-320)
        p = ParetoTwoParams(0.5, 1e-308)  # 5e307 is a float
        assert lomax_pdf(0.0, p) == 0.5 / 1e-308
        assert list(lomax_pdf([0.0, 1.0], p)) == pytest.approx([5e307, 0.5 * 1e-308 ** 0.5], rel=1e-12)


class TestNormalApproximation:
    def test_close_at_large_mean(self):
        p = PoissonParams(100.0)
        exact = poisson_pmf(100, p)
        approx = normal_approx_pmf(100, p)
        assert abs(approx - exact) / exact < 0.02

    def test_poor_at_small_mean(self):
        p = PoissonParams(1.0)
        exact = poisson_pmf(0, p)
        approx = normal_approx_pmf(0, p)
        assert abs(approx - exact) / exact > 0.05

    def test_total_mass_at_large_mean(self):
        p = PoissonParams(100.0)
        total = float(np.sum(normal_approx_pmf(np.arange(0, 1001), p)))
        assert abs(total - 1.0) < 1e-3

    def test_error_shrinks_with_mean(self):
        def worst(mean):
            p = PoissonParams(mean)
            ns = np.arange(0, int(mean + 10 * math.sqrt(mean)) + 1)
            return float(np.max(np.abs(poisson_pmf(ns, p) - normal_approx_pmf(ns, p))))

        assert worst(100.0) < worst(1.0)


def ndtr_mass(k, mean: float):
    """The continuity-corrected normal mass written with scipy's ``ndtr``."""
    s = math.sqrt(mean)
    return ndtr((k + 0.5 - mean) / s) - ndtr((k - 0.5 - mean) / s)


class TestNormalCdfMatchesScipy:
    """The normal CDF is ``erfc(-z / sqrt(2)) / 2`` from ``math.erfc``, which
    differs from Cephes ``ndtr`` in the last bit, so scipy is an oracle to an
    absolute tolerance. Near a CDF of 1 both forms cancel, so the tolerance is
    not relative."""

    @pytest.mark.parametrize("mean", [0.05, 0.3, 1.0, 2.5, 5.0, 10.0, 50.0, 100.0, 1e3, 1e4])
    def test_pmf_matches_ndtr_form(self, mean):
        k = np.arange(int(mean + 12 * math.sqrt(mean)) + 1, dtype=float)
        got = normal_approx_pmf(k, PoissonParams(mean))
        np.testing.assert_allclose(got, ndtr_mass(k, mean), rtol=0, atol=1e-15)

    def test_keeps_kind_and_shape(self):
        p = PoissonParams(2.5)
        k = np.arange(12, dtype=float).reshape(3, 4)
        got = normal_approx_pmf(k, p)
        assert got.shape == (3, 4)
        np.testing.assert_allclose(got, ndtr_mass(k, 2.5), rtol=0, atol=1e-15)
        for n in (3, np.array(3.0)):
            value = normal_approx_pmf(n, p)
            assert isinstance(value, float)
            assert value == pytest.approx(float(ndtr_mass(3.0, 2.5)), rel=0, abs=1e-15)

    def test_suite_errors_match_and_decrease(self):
        errors = [normal_approx_error(PoissonParams(m)) for m in NORMAL_ERROR_MEANS]
        for mean, got in zip(NORMAL_ERROR_MEANS, errors):
            k = np.arange(int(math.ceil(mean + 10 * math.sqrt(mean))) + 1, dtype=float)
            want = float(np.max(np.abs(poisson_pmf(k, PoissonParams(mean)) - ndtr_mass(k, mean))))
            assert abs(got - want) <= 1e-15
        assert all(a > b for a, b in zip(errors, errors[1:]))


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
        assert isinstance(poisson_pmf(3, PoissonParams(1.0)), float)


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
        p = PoissonParams(mean)
        k = np.arange(2 * int(mean + 10 * math.sqrt(mean) + 10), dtype=float)
        want = np.exp(k * math.log(mean) - mean - gammaln(k + 1.0))
        assert same_bits(poisson_pmf(k, p), want)
        assert same_bits(poisson_pmf(k.reshape(-1, 2)[:, ::-1], p), want.reshape(-1, 2)[:, ::-1])
        for i in (0, 1, 12, len(k) - 1):
            assert same_bits(poisson_pmf(int(k[i]), p), want[i])
            assert same_bits(poisson_pmf(np.array(k[i]), p), want[i])


class TestParetoOneIsLomaxAtScaleOne:
    """The one-parameter Pareto is Lomax at scale 1. The closed forms below
    are the ones ``pareto1_*`` used before they delegated to Lomax; dividing
    by and multiplying with a scale of 1.0 is exact, so agreement is bit for
    bit, from the origin through subnormal-adjacent to huge arguments."""

    SHAPES = (0.01, 0.3, 0.5, 1.0, 1.5, 2.5, 50.0)
    GRID = np.concatenate([[0.0, 1e-300, 1e-16, 0.5, 1.0, 3.0, 1e16, 1e300], np.geomspace(1e-12, 1e12, 301)])

    @pytest.mark.parametrize("shape", SHAPES)
    def test_evaluators_equal_old_closed_forms(self, shape):
        p, x = ParetoOneParams(shape), self.GRID
        assert same_bits(pareto1_cdf(x, p), -np.expm1(-shape * np.log1p(x)))
        assert same_bits(pareto1_pdf(x, p), shape * np.exp(-(shape + 1.0) * np.log1p(x)))
        assert same_bits(pareto1_survival(x, p), np.exp(-shape * np.log1p(x)))
        for v in (0.0, 1e-300, 1.0, 1e300):
            assert isinstance(pareto1_cdf(v, p), float)
            assert same_bits(pareto1_cdf(v, p), -np.expm1(-shape * np.log1p(v)))
            assert same_bits(pareto1_pdf(v, p), shape * np.exp(-(shape + 1.0) * np.log1p(v)))
            assert same_bits(pareto1_survival(v, p), np.exp(-shape * np.log1p(v)))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_sampler_equals_old_inverse_transform(self, shape):
        from arrivalab import RngStream, sample_pareto1
        from arrivalab.samplers import pareto1_from_uniform

        p = ParetoOneParams(shape)
        u = RngStream(17, 3).uniform_open(4096)
        edges = (2.0**-53, 0.5, 1.0 - 2.0**-53)
        with np.errstate(over="ignore"):  # shape 0.01 overflows the deepest draws to inf
            old = np.power(u, -1.0 / shape) - 1.0
            old_edges = [np.power(v, -1.0 / shape) - 1.0 for v in edges]
        # the sampler returns the same infs without a warning, which pytest's filter would raise
        assert same_bits(pareto1_from_uniform(u, p), old)
        assert same_bits(sample_pareto1(RngStream(17, 3), p, size=4096), old)
        r = RngStream(17, 3)
        scalars = [sample_pareto1(r, p) for _ in range(16)]
        assert all(isinstance(s, float) for s in scalars)
        assert same_bits(scalars, old[:16])
        for v, want in zip(edges, old_edges):
            assert same_bits(pareto1_from_uniform(v, p), want)
