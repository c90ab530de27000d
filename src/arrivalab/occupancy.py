"""Capacity-bounded location occupancy: a loss system driven by an arrival trace.

Each arrival is admitted iff the location is below capacity; admitted nodes
draw an i.i.d. holding time and depart when it elapses; blocked arrivals are
dropped (a location is a place, not a waiting line). Events tied on the same
instant are resolved departures-before-arrivals so freed capacity is visible
to the admission decision.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from heapq import heapify, heapreplace

import numpy as np

from .arrivals import ArrivalTrace
from .distributions import ExponentialParams, _frozen, _integer
from .errors import DomainError, ParameterError
from .samplers import FAMILIES, RngStream, _check_largest_draw, _family

__all__ = [
    "HOLDING_FAMILIES",
    "INFINITE_HOLD",
    "LocationConfig",
    "OccupancySeries",
    "PeakStats",
    "simulate_occupancy",
    "peak_stats",
    "blocking_fraction",
]

INFINITE_HOLD = "infinite"

# holding-time laws: two registry families, or no departure at all
HOLDING_FAMILIES = ("exponential", "lomax", INFINITE_HOLD)


@dataclass(frozen=True)
class LocationConfig:
    """Capacity bound (None = unbounded) and holding-time law; params None
    means rate 1 for the exponential law, and the Lomax law needs its params."""

    capacity: int | None = None
    holding_family: str = "exponential"
    holding_params: object = None

    def __post_init__(self):
        if self.capacity is not None:
            object.__setattr__(self, "capacity", _integer("capacity", self.capacity, 1))
        fam = self.holding_family
        if fam == INFINITE_HOLD:
            if self.holding_params is not None:
                raise ParameterError("infinite holding takes no parameters")
            return
        params = self.holding_params
        if params is None and fam == "exponential":  # no Lomax default: Lomax(1, 1) has an infinite mean
            params = ExponentialParams(1.0)
        _family("holding", fam, params, HOLDING_FAMILIES)
        _check_largest_draw(fam, params, f"holding law {fam} {params} can draw an infinite hold")
        object.__setattr__(self, "holding_params", params)


@dataclass(frozen=True)
class OccupancySeries:
    """Step-function node count: breakpoints, counts after each event, totals.

    ``end_time`` is the later of the driving horizon and the final event, so
    time averages cover the whole observed span. A series is built only with
    a positive, finite ``end_time`` at or after its last breakpoint.
    """

    breakpoints: np.ndarray
    counts: np.ndarray
    admitted: int
    blocked: int
    end_time: float

    def __post_init__(self):
        bp, ct = _frozen(self.breakpoints), _frozen(self.counts, np.int64)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "counts", ct)
        if bp.shape != ct.shape:
            raise DomainError("breakpoints and counts must have equal length")
        if np.any(bp[1:] < bp[:-1]):
            raise DomainError("breakpoints must be nondecreasing")
        if np.any(ct < 0):
            raise DomainError("counts must be nonnegative")
        if self.end_time == math.inf:
            raise DomainError(f"a departure time overflowed to inf: arrival plus hold exceeds {sys.float_info.max:.6g}")
        if not (math.isfinite(self.end_time) and self.end_time > 0):
            raise DomainError("series spans no time")
        if bp.size and self.end_time < bp[-1]:
            raise DomainError("series end_time precedes its last breakpoint")

    @property
    def departed(self) -> int:
        final = int(self.counts[-1]) if self.counts.size else 0
        return self.admitted - final


@dataclass(frozen=True)
class PeakStats:
    peak_count: int
    peak_time: float
    mean_occupancy: float


def simulate_occupancy(trace: ArrivalTrace, loc: LocationConfig, r: RngStream) -> OccupancySeries:
    """Run the loss system over a trace; returns the occupancy step series.

    Holding times come from ``r`` in one block of ``len(trace)`` draws, and
    the j-th admission holds for the j-th draw (blocked arrivals take none),
    so a fixed (trace, config, stream) triple replays the same series exactly.
    The draws past the last admission go unused. Each replication's holding
    stream is private, so no output depends on them, and a block of Philox
    draws equals the scalar draws it replaces bit for bit. Infinite holding
    draws none. A departure time that overflows to inf raises ``DomainError``
    (the series rejects an infinite ``end_time``). The hold block is made
    here and read by nothing else, so ``_merged_steps`` turns it into the
    departures in place. The arrival times are copied only when some are
    blocked; otherwise the trace's own array goes to ``_merged_steps``.
    """
    times = trace.times
    if loc.holding_family == INFINITE_HOLD:  # nothing departs: the first arrivals fill the location
        admitted = min(len(trace), loc.capacity or len(trace))
        breakpoints, counts = times[:admitted], np.arange(1, admitted + 1)
    else:
        hold_sampler = FAMILIES[loc.holding_family].sampler
        holds = hold_sampler(r, loc.holding_params, size=len(trace))
        if loc.capacity is not None:
            blocked = _admissions(times, holds, loc.capacity)
            if blocked:
                times = np.delete(times, blocked)
            holds = holds[:times.size]
        admitted = times.size
        breakpoints, counts = _merged_steps(times, holds)
    end = max(trace.horizon, float(breakpoints[-1])) if len(breakpoints) else trace.horizon
    breakpoints.flags.writeable = counts.flags.writeable = False  # handed over to the series, not copied
    return OccupancySeries(breakpoints, counts, admitted, len(trace) - admitted, float(end))


def _admissions(times: np.ndarray, holds: np.ndarray, cap: int) -> array:
    """Indices of the arrivals that ``cap`` places block; admission j holds for ``holds[j]``.

    The first ``cap`` arrivals fill the heap of at most ``cap`` departure
    times. Only ``heapreplace`` removes one, and only a minimum at or before
    the arrival, so every node still present is in the heap: a full heap
    whose minimum is after ``at`` has no free place. A departure at ``at``
    frees its place for the arrival.
    """
    arrivals, hold_view = memoryview(times), memoryview(holds)
    heap = [at + hold for at, hold in zip(arrivals[:cap], hold_view[:cap])]
    heapify(heap)
    blocked = array("q")
    next_hold = iter(hold_view[cap:]).__next__
    earliest = heap[0] if heap else math.inf
    for i, at in enumerate(arrivals[cap:], cap):
        if earliest <= at:
            heapreplace(heap, at + next_hold())
            earliest = heap[0]
        else:
            blocked.append(i)
    return blocked


def _merged_steps(times: np.ndarray, holds: np.ndarray):
    """The step series of admitted arrivals and their holds, built in ``holds``.

    Events sort on (time, kind): departures, then arrivals, then departures at
    their own arrival instant (a hold below half an ulp of it). Arrival times
    strictly increase, so this is the order in which an event loop popping
    departures before each arrival would record them. ``holds`` becomes the
    sorted departures, in place; arrival i goes to slot i plus the departures
    at or before it, less its own, and the departures fill the other slots.
    Tied departures are equal values, so their order among themselves is moot.
    ``times`` is only read: with nothing blocked it is the trace's own array.
    """
    with np.errstate(over="ignore"):  # an infinite departure is rejected by OccupancySeries
        departures = np.add(times, holds, out=holds)
    own = departures == times
    departures.sort()
    slots = np.searchsorted(departures, times, side="right") - own + np.arange(times.size)
    counts = np.full(2 * times.size, -1, dtype=np.int64)
    counts[slots] = 1
    del own, slots
    breakpoints, arriving = np.empty(counts.size), counts > 0
    breakpoints[arriving] = times
    breakpoints[np.logical_not(arriving, out=arriving)] = departures
    return breakpoints, np.cumsum(counts, out=counts)


def peak_stats(s: OccupancySeries) -> PeakStats:
    """Peak count, the earliest time it is attained, and the time-weighted mean
    over ``(0, end_time]``, a positive span that the series checked when built."""
    if s.counts.size == 0:
        return PeakStats(0, 0.0, 0.0)
    peak_idx = int(np.argmax(s.counts))
    peak = int(s.counts[peak_idx])
    peak_time = float(s.breakpoints[peak_idx]) if peak > 0 else 0.0
    # integrate the step function: level counts[i] holds on [bp[i], bp[i+1]),
    # zero before the first event, last level runs out to end_time. The widths
    # take the products in place, summed pairwise as a fresh array would be.
    bp, widths = s.breakpoints, np.empty(s.counts.size)
    np.subtract(bp[1:], bp[:-1], out=widths[:-1])
    widths[-1] = s.end_time - bp[-1]
    with np.errstate(over="ignore"):  # spans near the float maximum: weight the levels instead
        area = float(np.sum(np.multiply(s.counts, widths, out=widths)))
    if area < math.inf:
        return PeakStats(peak, peak_time, area / s.end_time)
    return PeakStats(peak, peak_time, float(np.sum(s.counts * (np.diff(bp, append=s.end_time) / s.end_time))))


def blocking_fraction(s: OccupancySeries) -> float:
    """Blocked over total arrivals; the congestion measure of the loss system.
    NaN for a series with no arrivals, which has no fraction to report."""
    total = s.admitted + s.blocked
    return s.blocked / total if total else math.nan
