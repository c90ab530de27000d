"""The occupancy engine against the seed event loop, byte for byte.

``seed_simulate_occupancy`` below is the original one-draw-per-admission
event loop, kept here verbatim as the oracle. The engine draws one block of
``len(trace)`` holding times, decides admissions with a heap of at most
``capacity`` departure times, and builds the series of the admitted arrivals
with one sort of their departures; both must give the same breakpoints,
counts, totals and end time, ties included.
"""

import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings

from arrivalab import (
    INFINITE_HOLD,
    ExponentialParams,
    LocationConfig,
    ParetoOneParams,
    ParetoTwoParams,
    RngStream,
    fixed_trace,
    generate_trace,
    simulate_occupancy,
)
from arrivalab.arrivals import ArrivalTrace
from arrivalab.errors import DomainError
from arrivalab.occupancy import OccupancySeries
from arrivalab.samplers import FAMILIES as _HOLD_SAMPLERS
from test_properties import arrival_laws, capacities, holding_laws, horizons, seeds, trace_for


def seed_simulate_occupancy(trace: ArrivalTrace, loc: LocationConfig, r: RngStream) -> OccupancySeries:
    """Run the loss system over a trace; returns the occupancy step series.

    Holding times are drawn from ``r`` one per admission (blocked arrivals
    consume no randomness), so a fixed (trace, config, stream) triple replays
    the same series exactly.
    """
    infinite = loc.holding_family == INFINITE_HOLD
    if not infinite:
        hold_sampler, _, _ = _HOLD_SAMPLERS[loc.holding_family]
    cap = loc.capacity

    departures: list[float] = []
    breakpoints: list[float] = []
    counts: list[int] = []
    n = admitted = blocked = 0

    def depart_until(t: float) -> None:
        nonlocal n
        while departures and departures[0] <= t:
            dt = heapq.heappop(departures)
            n -= 1
            breakpoints.append(dt)
            counts.append(n)

    for at in trace.times:
        depart_until(float(at))
        if cap is None or n < cap:
            n += 1
            admitted += 1
            if cap is not None and n > cap:  # pragma: no cover - invariant guard
                raise RuntimeError("internal error: capacity exceeded")
            breakpoints.append(float(at))
            counts.append(n)
            if not infinite:
                heapq.heappush(departures, float(at) + hold_sampler(r, loc.holding_params))
        else:
            blocked += 1
    depart_until(math.inf)

    end = max(trace.horizon, breakpoints[-1]) if breakpoints else trace.horizon
    return OccupancySeries(
        np.asarray(breakpoints), np.asarray(counts, dtype=np.int64), admitted, blocked, float(end)
    )


class ScriptedStream:
    """Stream stub handing out a fixed list of uniforms; runs dry loudly."""

    def __init__(self, uniforms):
        self._values = list(uniforms)
        self._next = 0

    def uniform_open(self, size=None):
        k = 1 if size is None else size
        if self._next + k > len(self._values):
            raise AssertionError("scripted stream ran dry")
        out = self._values[self._next:self._next + k]
        self._next += k
        return out[0] if size is None else np.array(out)


def assert_same_series(got, want):
    assert got.breakpoints.tobytes() == want.breakpoints.tobytes()
    assert got.counts.tobytes() == want.counts.tobytes()
    assert (got.admitted, got.blocked) == (want.admitted, want.blocked)
    assert repr(got.end_time) == repr(want.end_time)


ARRIVALS = {
    "exponential": ExponentialParams(2.0),
    "pareto1": ParetoOneParams(1.5),
    "lomax": ParetoTwoParams(1.5, 0.1),
}

# mean holding 10 against about 2 arrivals per unit time: capacity 20 blocks
HOLDINGS = {
    "exponential": ExponentialParams(0.1),
    "lomax": ParetoTwoParams(1.5, 5.0),
    INFINITE_HOLD: None,
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("family", sorted(ARRIVALS))
@pytest.mark.parametrize("holding", sorted(HOLDINGS))
@pytest.mark.parametrize("capacity", [1, 2, 20, None])
def test_matches_seed_loop(capacity, holding, family, seed):
    trace = generate_trace(family, ARRIVALS[family], 200.0, RngStream(seed, 0))
    loc = LocationConfig(capacity, holding, HOLDINGS[holding])
    got = simulate_occupancy(trace, loc, RngStream(seed, 1))
    want = seed_simulate_occupancy(trace, loc, RngStream(seed, 1))
    assert_same_series(got, want)


# exponential holds at rates up to 1e3 leave many departed entries in a full heap
@settings(deadline=None)
@given(arrival_laws, holding_laws, capacities, horizons, seeds)
def test_matches_seed_loop_on_drawn_laws(law, hold, capacity, horizon, seed):
    trace = trace_for(law, horizon, seed)
    loc = LocationConfig(capacity, *hold)
    assert_same_series(
        simulate_occupancy(trace, loc, RngStream(seed, 1)),
        seed_simulate_occupancy(trace, loc, RngStream(seed, 1)),
    )


@pytest.mark.parametrize("capacity", [3, None])
@pytest.mark.parametrize(
    "holding",
    [
        ParetoTwoParams(0.0528, 1.0),  # the smallest shape accepted at scale 1: holds reach 7.4e307
        ParetoTwoParams(1e300, 1.0),  # u ** -1e-300 rounds to 1: every hold is 0
    ],
)
def test_matches_seed_loop_at_extreme_holds(capacity, holding):
    trace = generate_trace("exponential", ExponentialParams(1.0), 500.0, RngStream(8, 0))
    loc = LocationConfig(capacity, "lomax", holding)
    assert_same_series(
        simulate_occupancy(trace, loc, RngStream(8, 1)),
        seed_simulate_occupancy(trace, loc, RngStream(8, 1)),
    )


# 1.0 is a uniform an RngStream can return (its largest k rounds up to 2**53)
# and draws a zero hold; 1 - 2**-53, the largest float below 1, draws a hold
# of 2**-53 (about 1.1e-16), a genuine sub-ulp hold at both arrivals below
HOLDLESS_UNIFORMS = (1.0, np.nextafter(1.0, 0.0))


@pytest.mark.parametrize("capacity", [1, None])
@pytest.mark.parametrize("arrival", [1e6, 1.0 - math.log(0.5)])
def test_departure_at_own_arrival_instant(capacity, arrival):
    # the second node's hold vanishes when added to its arrival time, so it
    # departs at its own arrival instant, after arriving. At 1 - ln(0.5) the
    # first node's departure ties the same instant and must come before the
    # arrival.
    trace = fixed_trace([1.0, arrival], horizon=2e6)
    loc = LocationConfig(capacity, "exponential", ExponentialParams(1.0))
    for u in HOLDLESS_UNIFORMS:
        hold = -math.log(u)
        assert (hold > 0.0) == (u < 1.0) and arrival + hold == arrival
        got = simulate_occupancy(trace, loc, ScriptedStream([0.5, u]))
        want = seed_simulate_occupancy(trace, loc, ScriptedStream([0.5, u]))
        assert_same_series(got, want)
        assert got.admitted == 2 and list(got.counts) == [1, 0, 1, 0]
        assert got.breakpoints[-1] == arrival


@pytest.mark.parametrize("holding", sorted(HOLDINGS))
@pytest.mark.parametrize("capacity", [1, None])
def test_empty_trace(capacity, holding):
    trace = fixed_trace([], horizon=10.0)
    loc = LocationConfig(capacity, holding, HOLDINGS[holding])
    got = simulate_occupancy(trace, loc, RngStream(0, 1))
    assert_same_series(got, seed_simulate_occupancy(trace, loc, RngStream(0, 1)))
    assert got.end_time == 10.0 and got.counts.size == 0


@pytest.mark.parametrize("holding", ["exponential", "lomax"])
@pytest.mark.parametrize("capacity", [1, 2, 20, None])
def test_reads_at_most_one_uniform_per_arrival(capacity, holding):
    trace = generate_trace("exponential", ExponentialParams(30.0), 200.0, RngStream(6, 0))
    assert len(trace) > 4096
    uniforms = RngStream(6, 1).uniform_open(len(trace)).tolist()
    loc = LocationConfig(capacity, holding, HOLDINGS[holding])
    got = simulate_occupancy(trace, loc, ScriptedStream(uniforms))
    assert_same_series(got, seed_simulate_occupancy(trace, loc, ScriptedStream(uniforms)))


# Lomax(1, 1) holds are 1/u - 1: a uniform 2**-m holds exactly 2**m - 1 and 1.0
# holds 0, while the largest float below 1 holds an ulp or less, so on the grid
# of half units below departures land on later arrivals, on each other and on
# their own arrival instants
TIE_LAW = ParetoTwoParams(1.0, 1.0)
TIE_UNIFORMS = (1.0, np.nextafter(1.0, 0.0), 0.5, 0.25, 0.125, 2.0**-4, 2.0**-5)


def tie_pattern(n, seed):
    """A trace at 0.5, 1.0, ..., n / 2 and one uniform per arrival from ``TIE_UNIFORMS``."""
    trace = fixed_trace((0.5 * np.arange(1, n + 1)).tolist(), horizon=max(n, 1) / 2)
    return trace, np.random.default_rng(seed).choice(TIE_UNIFORMS, size=n).tolist()


def assert_matches_seed_loop(trace, loc, uniforms):
    got = simulate_occupancy(trace, loc, ScriptedStream(uniforms))
    assert_same_series(got, seed_simulate_occupancy(trace, loc, ScriptedStream(uniforms)))
    return got


@pytest.mark.parametrize("capacity", [3, 20, None])
@pytest.mark.parametrize("seed", [0, 1])
def test_tied_events_match_seed_loop_across_chunks(capacity, seed):
    trace, uniforms = tie_pattern(5000, seed)
    times = trace.times
    departures = times + _HOLD_SAMPLERS["lomax"][2](np.array(uniforms), TIE_LAW)
    later = departures[departures > times]
    # the three kinds of tie the merge orders: a departure at a later arrival
    # instant, departures sharing one instant, and departures at their own arrival
    assert np.isin(later, times).sum() > 500
    assert np.unique(later).size < later.size - 500
    assert (departures == times).sum() > 500
    got = assert_matches_seed_loop(trace, LocationConfig(capacity, "lomax", TIE_LAW), uniforms)
    assert got.breakpoints.size == 2 * got.admitted and got.admitted > 500


@pytest.mark.parametrize("capacity", [2, None])
def test_random_tie_patterns_match_seed_loop(capacity):
    loc = LocationConfig(capacity, "lomax", TIE_LAW)
    for seed in range(3000):
        trace, uniforms = tie_pattern(seed % 31, seed)
        assert_matches_seed_loop(trace, loc, uniforms)


@pytest.mark.parametrize("capacity", [1, None])
def test_departure_overflowing_to_inf_raises_after_ties(capacity):
    # 4,999 zero holds (each departs at its own arrival instant), then a hold of
    # 7.4e307 from the smallest uniform that takes the last departure past the
    # float maximum
    times = [*(0.5 * np.arange(1, 5000)).tolist(), 1.5e308]
    trace, uniforms = fixed_trace(times), [1.0] * 4999 + [2.0**-54]
    loc = LocationConfig(capacity, "lomax", ParetoTwoParams(0.0528, 1.0))
    for simulate in (simulate_occupancy, seed_simulate_occupancy):
        with pytest.raises(DomainError, match="overflowed to inf"), np.errstate(over="ignore"):
            simulate(trace, loc, ScriptedStream(uniforms))
