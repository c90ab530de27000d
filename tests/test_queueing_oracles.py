"""Simulated loss systems against closed forms of queueing theory.

- Erlang-B (Erlang 1917): Poisson arrivals at rate lambda into c places with
  exponential holding at rate mu block a fraction B(lambda / mu, c).
- Insensitivity (Sevastyanov 1957): B depends on the holding law only through
  its mean, so Lomax holding with mean 1 / mu blocks the same fraction.
- M/G/inf mean occupancy: with no bound the time-average count is
  lambda * E[S] (Little's law), for any holding law and renewal arrivals.

Each cell averages seeds 0-2 at horizon 2e5. One replication's blocking
fraction has a standard deviation of about 0.0015 there, so the absolute
tolerance of 0.004 on the three-seed mean is about four and a half of its
standard deviations. The runs start empty; over 2e5 time units that
transient is far below the tolerance.
"""

import numpy as np
import pytest

from arrivalab import (
    ExponentialParams,
    LocationConfig,
    ParetoTwoParams,
    RngStream,
    blocking_fraction,
    generate_trace,
    peak_stats,
    simulate_occupancy,
)

HORIZON = 2e5
SEEDS = (0, 1, 2)
BLOCKING_ATOL = 0.004
OCCUPANCY_RTOL = 0.01
LOMAX_HOLD_SHAPE = 3.0  # finite variance, so a three-seed mean settles

# (arrival rate, capacity, holding rate); the first is the loss-sweep
# benchmark's busiest cell (rate 0.9, capacity 20, mean hold 20)
LOSS_CELLS = [(0.9, 20, 0.05), (1.0, 2, 0.5), (1.0, 5, 0.3)]


def erlang_b(load: float, capacity: int) -> float:
    """Erlang's loss formula by its stable recursion over the capacity."""
    b = 1.0
    for k in range(1, capacity + 1):
        b = load * b / (k + load * b)
    return b


def lomax_hold_with_mean(mean: float) -> ParetoTwoParams:
    # a Lomax law has mean scale / (shape - 1)
    return ParetoTwoParams(LOMAX_HOLD_SHAPE, mean * (LOMAX_HOLD_SHAPE - 1.0))


def mean_over_seeds(measure, family, params, loc):
    values = []
    for seed in SEEDS:
        trace = generate_trace(family, params, HORIZON, RngStream(seed, 0))
        values.append(measure(simulate_occupancy(trace, loc, RngStream(seed, 1))))
    return float(np.mean(values))


def test_erlang_b_recursion_matches_known_values():
    assert erlang_b(2.0, 2) == pytest.approx(0.4, rel=1e-12)
    assert erlang_b(18.0, 20) == pytest.approx(0.1092, abs=5e-5)
    assert erlang_b(1.0, 0) == 1.0


@pytest.mark.parametrize("rate,capacity,mu", LOSS_CELLS)
def test_poisson_exponential_blocking_is_erlang_b(rate, capacity, mu):
    loc = LocationConfig(capacity, "exponential", ExponentialParams(mu))
    got = mean_over_seeds(blocking_fraction, "exponential", ExponentialParams(rate), loc)
    assert got == pytest.approx(erlang_b(rate / mu, capacity), abs=BLOCKING_ATOL)


@pytest.mark.parametrize("rate,capacity,mu", LOSS_CELLS)
def test_blocking_is_insensitive_to_the_holding_law(rate, capacity, mu):
    # built from LocationConfig: the holding mean must be exactly 1 / mu
    loc = LocationConfig(capacity, "lomax", lomax_hold_with_mean(1.0 / mu))
    got = mean_over_seeds(blocking_fraction, "exponential", ExponentialParams(rate), loc)
    assert got == pytest.approx(erlang_b(rate / mu, capacity), abs=BLOCKING_ATOL)


# arrival laws with rate 2: Poisson, and Lomax gaps of mean 1/2
ARRIVALS = [("exponential", ExponentialParams(2.0)), ("lomax", ParetoTwoParams(3.0, 1.0))]
HOLDS = [("exponential", ExponentialParams(0.2)), ("lomax", lomax_hold_with_mean(5.0))]


@pytest.mark.parametrize("arrival_family,arrival_params", ARRIVALS)
@pytest.mark.parametrize("hold_family,hold_params", HOLDS)
def test_mginf_mean_occupancy_is_rate_times_mean_hold(arrival_family, arrival_params, hold_family, hold_params):
    loc = LocationConfig(None, hold_family, hold_params)
    got = mean_over_seeds(lambda s: peak_stats(s).mean_occupancy, arrival_family, arrival_params, loc)
    assert got == pytest.approx(2.0 * 5.0, rel=OCCUPANCY_RTOL)


# --- the start-empty M/G/inf transient ------------------------------------------
# Poisson(1) arrivals into an unbounded location that starts empty, Lomax(a, s)
# holds of mean 1: E N(t) = lambda * m(t) with m(t) = s / (a - 1) * (1 - (1 + t / s)^(1 - a))
# (Eick, Massey and Whitt, "The Physics of the M_t/G/inf Queue", Oper. Res. 41(4),
# 1993), whose average over [0, T] is closed form for a != 2
TRANSIENT_HORIZON = 50.0
TRANSIENT_REPLICATIONS = 400


def start_empty_mean(a: float, s: float, horizon: float) -> float:
    """The average of ``m(t)`` over ``[0, horizon]`` at arrival rate 1, for ``a != 2``."""
    return s / (a - 1.0) * (1.0 - s * ((1.0 + horizon / s) ** (2.0 - a) - 1.0) / ((2.0 - a) * horizon))


def average_over_horizon(series, horizon: float) -> float:
    # the step integral over [0, horizon] alone: the series' end_time runs on
    # to the last departure, so peak_stats' mean covers a longer span
    edges = np.minimum(np.append(series.breakpoints, horizon), horizon)
    return float(np.sum(series.counts * np.diff(edges))) / horizon


@pytest.mark.parametrize("shape", [1.5, 3.0])
def test_start_empty_mginf_average_matches_its_closed_form(shape):
    scale = shape - 1.0  # mean hold 1
    loc = LocationConfig(None, "lomax", ParetoTwoParams(shape, scale))
    averages = [
        average_over_horizon(simulate_occupancy(
            generate_trace("exponential", ExponentialParams(1.0), TRANSIENT_HORIZON, RngStream(seed, 0)),
            loc, RngStream(seed, 1)), TRANSIENT_HORIZON)
        for seed in range(TRANSIENT_REPLICATIONS)  # streams laid out as in mean_over_seeds
    ]
    got = float(np.mean(averages))
    se = float(np.std(averages, ddof=1)) / np.sqrt(TRANSIENT_REPLICATIONS)
    assert abs(got - start_empty_mean(shape, scale, TRANSIENT_HORIZON)) < 4.0 * se
    if shape == 1.5:  # the transient is long: the run reads well below lambda * E[S] = 1
        assert got < 1.0 - 4.0 * se
