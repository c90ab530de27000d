import math

import numpy as np
import pytest

from arrivalab import (
    ExponentialParams,
    ParameterError,
    ParetoOneParams,
    ParetoTwoParams,
    PoissonParams,
    RngStream,
    exp_cdf,
    ks_critical_value,
    ks_statistic,
    lomax_cdf,
    pareto1_cdf,
    sample_exponential,
    sample_lomax,
    sample_pareto1,
    sample_poisson_count,
)
from arrivalab.samplers import (
    FAMILIES,
    Family,
    SMALLEST_UNIFORM,
    exponential_from_uniform,
    lomax_from_uniform,
    pareto1_from_uniform,
)
from arrivalab.stats import EmpiricalSample


class TestRngStream:
    def test_replay_is_bit_identical(self):
        a = RngStream(42, 7).uniform_open(1000)
        b = RngStream(42, 7).uniform_open(1000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(42, 0).uniform_open(100)
        b = RngStream(42, 1).uniform_open(100)
        assert not np.array_equal(a, b)

    def test_uniforms_strictly_inside_unit_interval(self):
        u = RngStream(3, 0).uniform_open(100_000)
        assert u.min() > 0.0
        assert u.max() < 1.0

    def test_scalar_draw_matches_first_vector_draw(self):
        assert RngStream(5, 5).uniform_open() == RngStream(5, 5).uniform_open(3)[0]

    @staticmethod
    def integer_uniforms(k):
        """The uniforms' earlier expression: a 53-bit integer ``k``, plus a half, over 2**53."""
        return (np.asarray(k, dtype=np.uint64).astype(np.float64) + 0.5) * 2.0**-53

    @pytest.mark.parametrize("seed,stream_id", [(0, 0), (42, 7), (3, 2**33), (2**64 - 1, 2**64 - 1)])
    @pytest.mark.parametrize("size", [None, 1, 1000])
    def test_uniforms_equal_the_integer_expression_on_a_twin_generator(self, seed, stream_id, size):
        stream = RngStream(seed, stream_id)
        key = np.random.SeedSequence(entropy=seed, spawn_key=(stream_id,))
        twin = np.random.Generator(np.random.Philox(key))
        for _ in range(3):  # the twin stays in step from draw to draw
            u = stream.uniform_open(size)
            k = twin.integers(0, 1 << 53, size=size, dtype=np.uint64)
            assert np.asarray(u).tobytes() == self.integer_uniforms(k).tobytes()
            assert isinstance(u, float) == (size is None)

    def test_uniforms_equal_the_integer_expression_at_the_edge_k_values(self):
        # random() returns k / 2**53; from k = 2**52 up both forms are ties that round to even
        k = np.array([0, 1, 2, 2**52 - 1, 2**52, 2**52 + 1, 2**52 + 2, 2**53 - 2, 2**53 - 1], dtype=np.uint64)
        u = k.astype(np.float64) * 2.0**-53 + SMALLEST_UNIFORM
        assert u.tobytes() == self.integer_uniforms(k).tobytes()
        assert u[0] == SMALLEST_UNIFORM and u[-1] == 1.0

    @pytest.mark.parametrize("seed,stream_id", [(-1, 0), (0, -3), (2**64, 0), (1.5, 0)])
    def test_rejects_bad_keys(self, seed, stream_id):
        with pytest.raises(ParameterError):
            RngStream(seed, stream_id)

    @pytest.mark.parametrize("seed,stream_id", [(True, 0), (0, False), (np.bool_(True), 0)])
    def test_rejects_bool_keys(self, seed, stream_id):
        # bool is an int subclass: True would silently act as seed 1
        with pytest.raises(ParameterError):
            RngStream(seed, stream_id)


class TestInverseTransforms:
    def test_pareto1_closed_form(self):
        # 0.25^(-1/0.5) - 1 = 16 - 1
        assert pareto1_from_uniform(0.25, ParetoOneParams(0.5)) == pytest.approx(15.0, rel=1e-14)

    def test_pareto1_boundary_u_one(self):
        # support infimum at the u -> 1 limit
        assert pareto1_from_uniform(1.0, ParetoOneParams(0.5)) == 0.0

    def test_lomax_closed_form(self):
        # 2 * (0.5^-1 - 1)
        assert lomax_from_uniform(0.5, ParetoTwoParams(1.0, 2.0)) == pytest.approx(2.0, rel=1e-14)

    def test_exponential_closed_form(self):
        assert exponential_from_uniform(math.exp(-3.0), ExponentialParams(1.0)) == pytest.approx(3.0, rel=1e-14)

    @pytest.mark.parametrize("params", [ParetoOneParams(0.5), ParetoTwoParams(0.9, 0.5), ParetoTwoParams(0.05, 3.0)])
    def test_lomax_equals_its_closed_form_expression_bit_for_bit(self, params):
        u = np.concatenate([RngStream(8, 0).uniform_open(1000), [SMALLEST_UNIFORM, 0.5, 1.0]])
        kept = u.copy()
        with np.errstate(over="ignore"):  # the tiny shape overflows to inf at the smallest uniforms
            want = params.scale * (np.power(u, -1.0 / params.shape) - 1.0)
        assert lomax_from_uniform(u, params).tobytes() == want.tobytes()
        assert u.tobytes() == kept.tobytes()  # the caller's uniforms are left alone
        for v, w in zip(u[-4:], want[-4:]):  # scalar paths: a float and a 0-d array
            for form in (float(v), np.array(v)):
                got = lomax_from_uniform(form, params)
                assert np.ndim(got) == 0 and float(got).hex() == float(w).hex()


class TestContinuousSamplers:
    def test_strictly_positive(self):
        s = RngStream(99, 0)
        assert sample_exponential(s, ExponentialParams(2.0), size=50_000).min() > 0.0
        assert sample_pareto1(s, ParetoOneParams(0.5), size=50_000).min() > 0.0
        assert sample_lomax(s, ParetoTwoParams(0.5, 2.0), size=50_000).min() > 0.0

    def test_mean_of_exponential_draws(self):
        draws = sample_exponential(RngStream(7, 0), ExponentialParams(0.5), size=100_000)
        tol = 3.0 * 2.0 / math.sqrt(100_000)
        assert abs(float(np.mean(draws)) - 2.0) < tol

    def test_exponential_ks_distance(self):
        p = ExponentialParams(1.0)
        draws = sample_exponential(RngStream(8, 0), p, size=10_000)
        d = ks_statistic(EmpiricalSample.from_values(draws), lambda x: exp_cdf(x, p))
        assert d < ks_critical_value(10_000)

    def test_pareto1_ks_distance(self):
        p = ParetoOneParams(0.8)
        draws = sample_pareto1(RngStream(9, 0), p, size=10_000)
        d = ks_statistic(EmpiricalSample.from_values(draws), lambda x: pareto1_cdf(x, p))
        assert d < ks_critical_value(10_000)

    def test_lomax_ks_distance(self):
        p = ParetoTwoParams(0.6, 1.5)
        draws = sample_lomax(RngStream(10, 0), p, size=10_000)
        d = ks_statistic(EmpiricalSample.from_values(draws), lambda x: lomax_cdf(x, p))
        assert d < ks_critical_value(10_000)

    def test_lomax_at_unit_scale_equals_pareto1_draws(self):
        a = sample_lomax(RngStream(4, 1), ParetoTwoParams(0.5, 1.0), size=1000)
        b = sample_pareto1(RngStream(4, 1), ParetoOneParams(0.5), size=1000)
        assert np.allclose(a, b, rtol=0, atol=0)

    def test_lomax_median(self):
        # analytic median scale * (2^(1/shape) - 1) = 3 at shape 0.5, scale 1
        draws = sample_lomax(RngStream(12, 0), ParetoTwoParams(0.5, 1.0), size=100_000)
        assert abs(float(np.median(draws)) - 3.0) / 3.0 < 0.05

    def test_sampler_determinism(self):
        p = ParetoOneParams(0.4)
        a = sample_pareto1(RngStream(21, 3), p, size=256)
        b = sample_pareto1(RngStream(21, 3), p, size=256)
        assert np.array_equal(a, b)

    def test_infinite_mean_regime_diverges(self):
        # shape 0.5 has no mean: the running mean keeps climbing with n
        grew = 0
        for seed in range(20):
            draws = sample_pareto1(RngStream(seed, 0), ParetoOneParams(0.5), size=1_000_000)
            early = float(np.mean(draws[:1000]))
            late = float(np.mean(draws))
            grew += late > 10.0 * early
        assert grew > 10


class TestPoissonSampler:
    def test_tiny_mean_returns_zero(self):
        draws = sample_poisson_count(RngStream(1, 0), PoissonParams(1e-9), size=10_000)
        assert np.all(draws == 0)

    @pytest.mark.parametrize("mean", [0.3, 0.9, 5.0])
    def test_moments_product_branch(self, mean):
        draws = sample_poisson_count(RngStream(2, 0), PoissonParams(mean), size=100_000)
        assert abs(float(np.mean(draws)) - mean) / mean < 0.05
        assert abs(float(np.var(draws)) - mean) / mean < 0.05

    def test_mean_within_three_sigma(self):
        draws = sample_poisson_count(RngStream(4, 0), PoissonParams(0.9), size=100_000)
        tol = 3.0 * math.sqrt(0.9 / 100_000)
        assert abs(float(np.mean(draws)) - 0.9) < tol

    def test_determinism_both_branches(self):
        # the scalar (size=None) and block returns replay identically
        p = PoissonParams(5.0)
        for size in (None, 512):
            a = sample_poisson_count(RngStream(5, 1), p, size=size)
            b = sample_poisson_count(RngStream(5, 1), p, size=size)
            assert np.array_equal(a, b)

    def test_scalar_draw_is_int(self):
        n = sample_poisson_count(RngStream(6, 0), PoissonParams(3.0))
        assert isinstance(n, int)
        assert n >= 0

    @pytest.mark.parametrize("mean", [30.5, 800.0])
    def test_mean_above_thirty_is_rejected(self, mean):
        with pytest.raises(ParameterError, match=r"must not exceed 30\b"):
            sample_poisson_count(RngStream(7, 0), PoissonParams(mean), size=200)

    @staticmethod
    def full_array_counts(r, m, count):
        """The product method over full-length arrays: every live entry's count
        goes up by one each round its running product stays above exp(-m)."""
        limit = math.exp(-m)
        out = np.zeros(count, dtype=np.int64)
        prod = np.ones(count, dtype=np.float64)
        active = np.arange(count)
        while active.size:
            prod[active] *= r.uniform_open(active.size)
            still = prod[active] > limit
            out[active[still]] += 1
            active = active[still]
        return out

    @pytest.mark.parametrize("mean", [0.3, 0.9, 5.0, 30.0])
    def test_counts_equal_the_full_array_product_method(self, mean):
        for size in (100_000, 7, 1):
            got = sample_poisson_count(RngStream(9, 3), PoissonParams(mean), size=size)
            want = self.full_array_counts(RngStream(9, 3), mean, size)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert sample_poisson_count(RngStream(9, 3), PoissonParams(mean)) == want[0]  # the scalar is size 1

    def test_mean_thirty_still_samples(self):
        draws = sample_poisson_count(RngStream(7, 0), PoissonParams(30.0), size=200)
        assert abs(float(np.mean(draws)) - 30.0) < 5 * math.sqrt(30.0 / 200)


class TestKsAcrossSeeds:
    def test_exponential_ks_pass_rate(self):
        p = ExponentialParams(1.0)
        crit = ks_critical_value(10_000)
        passes = 0
        for seed in range(100):
            draws = sample_exponential(RngStream(seed, 0), p, size=10_000)
            d = ks_statistic(EmpiricalSample.from_values(draws), lambda x: exp_cdf(x, p))
            passes += d < crit
        assert passes >= 95


class TestBlockDrawsEqualScalarDraws:
    """Philox is counter-based, so a block of n draws is bit for bit the n
    scalar draws it replaces. The occupancy engine relies on this when it
    draws holding times in blocks.

    The transforms must stay numpy calls on both paths. On an AMD EPYC
    host with numpy 2.4, for 200,000 uniforms ``math.log(u)`` differed from
    ``np.log(u)`` in the last bit on 672, and Python's ``u ** (-1 / shape)``
    differed from ``np.power`` on about 10,000.
    """

    CASES = [
        (sample_exponential, ExponentialParams(1.0)),
        (sample_exponential, ExponentialParams(0.05)),
        (sample_lomax, ParetoTwoParams(1.5, 1.0)),
        (sample_lomax, ParetoTwoParams(0.3, 20.0)),
        # sample_pareto1 is sample_lomax by name; the id keeps its own name
        pytest.param(sample_pareto1, ParetoOneParams(0.7), id="sample_pareto1-params4"),
    ]

    @pytest.mark.parametrize("sampler,params", CASES)
    def test_block_equals_scalar_calls(self, sampler, params):
        n = 5000
        block = sampler(RngStream(13, 4), params, size=n)
        r = RngStream(13, 4)
        scalars = np.array([sampler(r, params) for _ in range(n)])
        assert block.tobytes() == scalars.tobytes()

    @pytest.mark.parametrize("sampler,params", CASES)
    def test_chunking_does_not_change_draws(self, sampler, params):
        r = RngStream(29, 1)
        chunks = np.concatenate([sampler(r, params, size=k) for k in (5, 4096, 3)])
        whole = sampler(RngStream(29, 1), params, size=4104)
        assert chunks.tobytes() == whole.tobytes()


class TestFamilyRegistry:
    """``FAMILIES`` maps each family name to its ``Family`` record: sampler, params
    type and inverse transform, read by name. Each sampler is its inverse at the
    stream's uniforms, bit for bit, scalar and block."""

    PARAMS = {
        "exponential": ExponentialParams(0.7),
        "pareto1": ParetoOneParams(0.6),
        "lomax": ParetoTwoParams(1.5, 2.0),
    }

    def test_every_family_has_its_params_type(self):
        assert Family._fields == ("sampler", "params", "inverse")
        assert all(isinstance(family, Family) for family in FAMILIES.values())
        assert {name: family.params for name, family in FAMILIES.items()} == {
            name: type(p) for name, p in self.PARAMS.items()
        }

    @pytest.mark.parametrize("family", sorted(PARAMS))
    def test_sampler_is_the_inverse_at_a_twin_streams_uniforms(self, family):
        sampler, inverse = FAMILIES[family].sampler, FAMILIES[family].inverse
        p = self.PARAMS[family]
        r, twin = RngStream(17, 5), RngStream(17, 5)
        scalars = np.array([sampler(r, p) for _ in range(200)])
        assert scalars.tobytes() == np.array([float(inverse(twin.uniform_open(), p)) for _ in range(200)]).tobytes()
        block = sampler(r, p, size=5000)
        assert block.tobytes() == inverse(twin.uniform_open(5000), p).tobytes()
