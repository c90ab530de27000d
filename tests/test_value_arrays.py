"""The one rule every value object holds an array by (``distributions._frozen``):
a read-only array of the slot's dtype that owns its data is kept as handed
over; anything else (a writeable array, a view, another dtype, a list) is
copied into a read-only array, and the caller's own array stays as it was.
The arrays the simulation builds are handed over read-only, so they are kept."""

import numpy as np
import pytest

from arrivalab import arrivals, occupancy
from arrivalab import (
    INFINITE_HOLD,
    ArrivalTrace,
    EmpiricalSample,
    ExponentialParams,
    LocationConfig,
    OccupancySeries,
    RngStream,
    SeriesTable,
    generate_trace,
    simulate_occupancy,
)

TIMES = (0.5, 1.0, 2.0)
COUNTS = (1, 2, 1)

# (slot, its dtype, its values, the object built around an array in that slot, read back)
SLOTS = {
    "ArrivalTrace.times": (float, TIMES, lambda a: ArrivalTrace(a, 3.0).times),
    "OccupancySeries.breakpoints": (float, TIMES, lambda a: OccupancySeries(a, COUNTS, 2, 0, 3.0).breakpoints),
    "OccupancySeries.counts": (np.int64, COUNTS, lambda a: OccupancySeries(TIMES, a, 2, 0, 3.0).counts),
    "SeriesTable.x": (float, TIMES, lambda a: SeriesTable("t", "x", a).x),
    "SeriesTable.columns": (float, TIMES, lambda a: SeriesTable("t", "x", TIMES, {"y": a}).columns["y"]),
    "EmpiricalSample.values": (float, TIMES, lambda a: EmpiricalSample(a).values),
}


def owned_read_only(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def assert_owned_read_only(arr, dtype):
    assert arr.dtype == dtype and arr.base is None and not arr.flags.writeable


@pytest.mark.parametrize("slot", SLOTS)
def test_an_owned_read_only_array_is_kept_as_handed_over(slot):
    dtype, values, held = SLOTS[slot]
    arr = owned_read_only(values, dtype)
    assert held(arr) is arr


def writeable(values, dtype):
    return np.array(values, dtype=dtype)


def view(values, dtype):
    return owned_read_only([*values, *values], dtype)[:len(values)]


def other_dtype(values, dtype):
    return owned_read_only(values, np.float32 if dtype is float else np.int32)


def as_list(values, dtype):
    return list(values)


@pytest.mark.parametrize("make", [writeable, view, other_dtype, as_list])
@pytest.mark.parametrize("slot", SLOTS)
def test_anything_else_is_copied_read_only(slot, make):
    dtype, values, held = SLOTS[slot]
    given = make(values, dtype)
    arr = held(given)
    assert arr is not given
    assert_owned_read_only(arr, dtype)
    assert arr.tolist() == list(values)


@pytest.mark.parametrize("slot", SLOTS)
def test_the_callers_writeable_array_stays_theirs(slot):
    dtype, values, held = SLOTS[slot]
    given = np.array(values, dtype=dtype)
    arr = held(given)
    assert given.flags.writeable and given.tolist() == list(values)
    given[0] = 0
    assert arr.tolist() == list(values)


def keep_results(monkeypatch, module, name) -> list:
    """Every result ``module.name`` returns, in order."""
    results, fn = [], getattr(module, name)

    def spy(*args):
        results.append(fn(*args))
        return results[-1]

    monkeypatch.setattr(module, name, spy)
    return results


def test_a_generated_trace_keeps_its_times_read_only_and_owned(monkeypatch):
    built = keep_results(monkeypatch, arrivals, "_enforce_strict_increase")
    trace = generate_trace("exponential", ExponentialParams(2.0), 3000.0, RngStream(34))
    assert len(trace) > 4096  # several draw blocks
    assert trace.times is built[0]  # not copied on the way in
    assert_owned_read_only(trace.times, float)


@pytest.mark.parametrize("capacity", [5, None], ids=["bounded", "unbounded"])
def test_a_simulated_series_keeps_its_steps_read_only_and_owned(capacity, monkeypatch):
    built = keep_results(monkeypatch, occupancy, "_merged_steps")
    trace = generate_trace("exponential", ExponentialParams(2.0), 100.0, RngStream(34))
    series = simulate_occupancy(trace, LocationConfig(capacity), RngStream(34, 1))
    assert series.breakpoints is built[0][0] and series.counts is built[0][1]
    assert_owned_read_only(series.breakpoints, float)
    assert_owned_read_only(series.counts, np.int64)


@pytest.mark.parametrize("capacity", [5, None], ids=["bounded", "unbounded"])
def test_an_infinite_hold_series_holds_its_steps_read_only_and_owned(capacity):
    # the breakpoints are the first times of the trace, copied out of it
    trace = generate_trace("exponential", ExponentialParams(2.0), 100.0, RngStream(34))
    series = simulate_occupancy(trace, LocationConfig(capacity, INFINITE_HOLD), RngStream(34, 1))
    assert series.counts.size and not np.shares_memory(series.breakpoints, trace.times)
    assert_owned_read_only(series.breakpoints, float)
    assert_owned_read_only(series.counts, np.int64)
