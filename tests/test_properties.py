"""Property tests for the trace and occupancy-series invariants.

Horizons and rates are bounded so a trace holds at most a few thousand
arrivals; Lomax shapes stay at or above 0.1, where no variate overflows.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from arrivalab import (
    INFINITE_HOLD,
    ExponentialParams,
    LocationConfig,
    ParetoOneParams,
    ParetoTwoParams,
    RngStream,
    generate_trace,
    simulate_occupancy,
)

positive = st.floats(min_value=0.1, max_value=10.0)
seeds = st.integers(min_value=0, max_value=2**32)
horizons = st.floats(min_value=0.01, max_value=200.0)

arrival_laws = st.one_of(
    st.builds(lambda rate: ("exponential", ExponentialParams(rate)), positive),
    st.builds(lambda shape: ("pareto1", ParetoOneParams(shape)), positive),
    st.builds(lambda shape, scale: ("lomax", ParetoTwoParams(shape, scale)), positive, positive),
)
holding_laws = st.one_of(
    st.just((INFINITE_HOLD, None)),
    st.builds(lambda rate: ("exponential", ExponentialParams(rate)), st.floats(min_value=1e-3, max_value=1e3)),
    st.builds(lambda shape, scale: ("lomax", ParetoTwoParams(shape, scale)), positive, positive),
)
capacities = st.one_of(st.none(), st.integers(min_value=1, max_value=10))


def trace_for(law, horizon, seed):
    family, params = law
    return generate_trace(family, params, horizon, RngStream(seed, 0))


@settings(deadline=None)
@given(arrival_laws, horizons, seeds)
def test_trace_times_strictly_increase_inside_the_horizon(law, horizon, seed):
    times = trace_for(law, horizon, seed).times
    assert np.all(np.diff(times) > 0)
    assert np.all(times > 0) and np.all(times <= horizon)


@settings(deadline=None)
@given(arrival_laws, holding_laws, capacities, horizons, seeds)
def test_series_counts_stay_within_capacity_and_every_arrival_is_counted(law, hold, capacity, horizon, seed):
    trace = trace_for(law, horizon, seed)
    series = simulate_occupancy(trace, LocationConfig(capacity, *hold), RngStream(seed, 1))
    assert series.admitted + series.blocked == len(trace)
    assert np.all(series.counts >= 0)
    if capacity is not None:
        assert np.all(series.counts <= capacity)
    # one event per step: each count differs from the one before by one
    assert np.all(np.abs(np.diff(series.counts, prepend=0)) == 1)
    assert np.all(np.diff(series.breakpoints) >= 0)
    assert math.isfinite(series.end_time) and series.end_time >= horizon
