"""Each value object's order check, on every array of up to four values from
``VALUES``, NaN and both infinities included.

``ArrivalTrace``, ``EmpiricalSample``, ``OccupancySeries`` and the no-tie early
return of ``_enforce_strict_increase`` compare neighbours directly, with no
difference array, and accept and refuse what their ``np.diff`` expressions
did. ``SeriesTable`` refuses any x that is not strictly increasing; its
``np.diff(x) <= 0`` let NaN and ties of infinities through.
"""

import itertools
import math

import numpy as np

from arrivalab import arrivals
from arrivalab.arrivals import ArrivalTrace
from arrivalab.errors import DomainError
from arrivalab.experiments import SeriesTable
from arrivalab.occupancy import OccupancySeries
from arrivalab.stats import EmpiricalSample

VALUES = (math.nan, -math.inf, -1.0, 0.0, 1.0, 2.0, math.inf)
ARRAYS = [np.array(values, dtype=float) for k in range(5) for values in itertools.product(VALUES, repeat=k)]


def diff(a):
    with np.errstate(invalid="ignore"):  # inf - inf is NaN
        return np.diff(a)


def refusal(build) -> str | None:
    try:
        build()
    except DomainError as exc:
        return str(exc)
    return None


def strictly_increasing(a) -> bool:
    return all(x < y for x, y in zip(a.tolist(), a.tolist()[1:]))


def test_arrival_trace_refuses_what_its_diff_check_did():
    for a in ARRAYS:
        times = np.concatenate([[0.5], a, [3.0]])  # ends inside (0, horizon], so only the order check can refuse
        refused = refusal(lambda: ArrivalTrace(times, 3.0)) == "arrival times must be strictly increasing"
        assert refused == (not np.all(diff(times) > 0)), times


def test_strict_increase_returns_early_where_its_diff_check_did():
    for a in ARRAYS:
        returned_early = arrivals._enforce_strict_increase(a, 10.0) is a
        assert returned_early == (a.size < 2 or not np.any(diff(a) <= 0)), a


def test_empirical_sample_refuses_as_unsorted_what_its_diff_check_did():
    for a in ARRAYS:
        reached = a.size > 0 and np.all(np.isfinite(a)) and np.all(a >= 0)  # the order check comes last
        refused = refusal(lambda: EmpiricalSample(a)) == "empirical sample must be sorted ascending"
        assert refused == (reached and np.any(diff(a) < 0)), a


def test_occupancy_series_refuses_what_its_diff_check_did():
    for a in ARRAYS:
        counts = np.zeros(a.size, dtype=np.int64)
        refused = refusal(lambda: OccupancySeries(a, counts, 0, 0, 10.0)) == "breakpoints must be nondecreasing"
        assert refused == (a.size > 0 and np.any(diff(a) < 0)), a


def test_series_table_refuses_every_x_that_does_not_strictly_increase():
    for a in ARRAYS[1:]:  # the first is empty: a table needs a row
        refused = refusal(lambda: SeriesTable("t", "x", a)) == "x values must be strictly increasing"
        assert refused == (not strictly_increasing(a)), a

