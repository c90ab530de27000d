"""Capacity-bounded location occupancy: a loss system driven by an arrival trace.

Each arrival is admitted iff the location is below capacity; admitted nodes
draw an i.i.d. holding time and depart when it elapses; blocked arrivals are
dropped (a location is a place, not a waiting line). Events tied on the same
instant are resolved departures-before-arrivals so freed capacity is visible
to the admission decision.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass

import numpy as np

from .arrivals import ArrivalTrace
from .errors import DomainError, ParameterError
from .samplers import FAMILIES, SMALLEST_UNIFORM, RngStream, exponential_from_uniform, lomax_from_uniform

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

# holding times drawn per block on the bounded path
_HOLD_BLOCK = 4096


@dataclass(frozen=True)
class LocationConfig:
    """Capacity bound (None = unbounded) and holding-time law."""

    capacity: int | None = None
    holding_family: str = "exponential"
    holding_params: object = None

    def __post_init__(self):
        if self.capacity is not None:
            cap = self.capacity
            if isinstance(cap, bool) or not isinstance(cap, (int, np.integer)) or cap < 1:
                raise ParameterError(f"capacity must be a positive integer or None, got {cap!r}")
            object.__setattr__(self, "capacity", int(cap))
        fam = self.holding_family
        if fam == INFINITE_HOLD:
            if self.holding_params is not None:
                raise ParameterError("infinite holding takes no parameters")
            return
        if fam not in HOLDING_FAMILIES:
            raise ParameterError(f"unknown holding family {fam!r}; expected one of {HOLDING_FAMILIES}")
        _, want = FAMILIES[fam]
        params = self.holding_params if self.holding_params is not None else want(1.0)
        if not isinstance(params, want):
            raise ParameterError(f"holding family {fam!r} needs {want.__name__}, got {type(params).__name__}")
        inverse = exponential_from_uniform if fam == "exponential" else lomax_from_uniform
        with np.errstate(over="ignore"):
            largest = float(inverse(SMALLEST_UNIFORM, params))
        if not math.isfinite(largest):
            raise ParameterError(
                f"holding law {fam} {params} can draw an infinite hold: its largest draw, at the "
                f"smallest stream uniform 2**-54, must not exceed the float maximum {sys.float_info.max:.6g}"
            )
        object.__setattr__(self, "holding_params", params)


@dataclass(frozen=True)
class OccupancySeries:
    """Step-function node count: breakpoints, counts after each event, totals.

    ``end_time`` is the later of the driving horizon and the final event, so
    time averages cover the whole observed span.
    """

    breakpoints: np.ndarray
    counts: np.ndarray
    admitted: int
    blocked: int
    end_time: float

    def __post_init__(self):
        bp = np.array(self.breakpoints, dtype=float)
        ct = np.array(self.counts, dtype=np.int64)
        bp.flags.writeable = False
        ct.flags.writeable = False
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "counts", ct)
        if bp.shape != ct.shape:
            raise DomainError("breakpoints and counts must have equal length")
        if bp.size and np.any(np.diff(bp) < 0):
            raise DomainError("breakpoints must be nondecreasing")
        if np.any(ct < 0):
            raise DomainError("counts must be nonnegative")

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

    Holding times come from ``r`` one per admission, in admission order
    (blocked arrivals consume no randomness), so a fixed (trace, config,
    stream) triple replays the same series exactly. They are drawn in blocks
    of up to 4096 (one block for the whole trace when capacity is unbounded),
    never more than the arrivals still to come, so ``r`` may be read up to
    one block past the last admission. Each replication's holding stream is
    private, so no output depends on that read-ahead, and a block of Philox
    draws equals the scalar draws it replaces bit for bit. Infinite holding
    draws none. A departure time that overflows to inf raises ``DomainError``.
    """
    if loc.holding_family == INFINITE_HOLD:  # nothing departs: the first arrivals fill the location
        admitted = min(len(trace), loc.capacity or len(trace))
        breakpoints, counts = trace.times[:admitted], np.arange(1, admitted + 1)
    elif loc.capacity is None:
        breakpoints, counts = _unbounded_steps(trace.times, loc, r)
        admitted = len(trace)
    else:
        breakpoints, counts, admitted = _loss_system_steps(trace.times.tolist(), loc, r)
    end = max(trace.horizon, float(breakpoints[-1])) if len(breakpoints) else trace.horizon
    if end == math.inf:
        raise DomainError(f"a departure time overflowed to inf: arrival plus hold exceeds {sys.float_info.max:.6g}")
    return OccupancySeries(
        np.asarray(breakpoints, dtype=float), np.asarray(counts, dtype=np.int64),
        admitted, len(trace) - admitted, float(end),
    )


def _loss_system_steps(times: list[float], loc: LocationConfig, r: RngStream):
    """Event loop for a capacity bound with finite holding times."""
    hold_sampler, _ = FAMILIES[loc.holding_family]
    cap = loc.capacity
    heappush, heappop = heapq.heappush, heapq.heappop
    departures: list[float] = []
    breakpoints: list[float] = []
    counts: list[int] = []
    add_time, add_count = breakpoints.append, counts.append
    holds: list[float] = []
    used = n = admitted = 0
    for i, at in enumerate(times):
        # departures before arrivals on ties, so freed capacity is visible
        while departures and departures[0] <= at:
            add_time(heappop(departures))
            n -= 1
            add_count(n)
        if n < cap:
            n += 1
            admitted += 1
            add_time(at)
            add_count(n)
            if used == len(holds):
                size = min(_HOLD_BLOCK, len(times) - i)
                holds = hold_sampler(r, loc.holding_params, size=size).tolist()
                used = 0
            heappush(departures, at + holds[used])
            used += 1
    while departures:
        add_time(heappop(departures))
        n -= 1
        add_count(n)
    return breakpoints, counts, admitted


def _unbounded_steps(times: np.ndarray, loc: LocationConfig, r: RngStream):
    """M/G/inf: every arrival is admitted, so the series is one merged sort.

    Events sort on (time, kind): departures, then arrivals, then departures at
    their own arrival instant (a hold below half an ulp of it), which the
    event loop would also pop only after admitting that arrival.
    """
    hold_sampler, _ = FAMILIES[loc.holding_family]
    with np.errstate(over="ignore"):  # an infinite departure is rejected by the caller
        departures = times + hold_sampler(r, loc.holding_params, size=times.size)
    own = departures == times
    merged = np.concatenate([departures[~own], times, departures[own]])
    n, k = times.size, int(own.sum())
    steps = np.repeat(np.array([-1, 1, -1], dtype=np.int64), [n - k, n, k])
    order = np.argsort(merged, kind="stable")
    return merged[order], np.cumsum(steps[order])


def peak_stats(s: OccupancySeries) -> PeakStats:
    """Peak count, the earliest time it is attained, and the time-weighted mean."""
    if s.end_time == np.inf:
        raise DomainError(
            "series end_time is infinite: a holding time overflowed to inf, "
            "so there is no finite span to average over"
        )
    if not (np.isfinite(s.end_time) and s.end_time > 0):
        raise DomainError("series spans no time")
    if s.counts.size == 0:
        return PeakStats(0, 0.0, 0.0)
    peak_idx = int(np.argmax(s.counts))
    peak = int(s.counts[peak_idx])
    peak_time = float(s.breakpoints[peak_idx]) if peak > 0 else 0.0
    # integrate the step function: level counts[i] holds on [bp[i], bp[i+1]),
    # zero before the first event, last level runs out to end_time
    edges = np.concatenate([s.breakpoints, [max(s.end_time, s.breakpoints[-1])]])
    area = float(np.sum(s.counts * np.diff(edges)))
    return PeakStats(peak, peak_time, area / s.end_time)


def blocking_fraction(s: OccupancySeries) -> float:
    """Blocked over total arrivals; the congestion measure of the loss system."""
    total = s.admitted + s.blocked
    if total == 0:
        raise DomainError("blocking fraction undefined for a series with no arrivals")
    return s.blocked / total
