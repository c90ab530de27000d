"""Arrival traces: renewal processes with i.i.d. gaps on a finite horizon.

Exponential gaps recover the Poisson counting process exactly; Pareto/Lomax
gaps give the heavy-tailed, bursty alternative. A trace holds only its times
and horizon; what a CSV says about its family, seed and stream comes from the
caller (see ``csvio.write_trace_csv``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import _frozen
from .errors import DomainError, ParameterError
from .samplers import RngStream, _family

__all__ = ["ArrivalTrace", "generate_trace", "fixed_trace"]

_BLOCK = 1024
# the most arrivals one trace may hold: 80 MB of times; a horizon that needs
# more is refused rather than drawn without end
_MAX_ARRIVALS = 10**7


@dataclass(frozen=True)
class ArrivalTrace:
    """Strictly increasing arrival instants in (0, horizon]."""

    times: np.ndarray
    horizon: float

    def __post_init__(self):
        times = _frozen(self.times)
        object.__setattr__(self, "times", times)
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise DomainError(f"horizon must be positive and finite, got {self.horizon!r}")
        if times.size:  # each check is written so that a NaN time fails it
            if not (times[0] > 0 and times[-1] <= self.horizon):
                raise DomainError("arrival times must lie in (0, horizon]")
            if not np.all(times[1:] > times[:-1]):
                raise DomainError("arrival times must be strictly increasing")

    def __len__(self) -> int:
        return int(self.times.size)


def generate_trace(family: str, params, horizon: float, r: RngStream) -> ArrivalTrace:
    """Cumulative sums of i.i.d. gaps, truncated at the horizon.

    May be empty when the first gap already exceeds the horizon, a valid
    outcome and a common one for heavy-tailed gaps.
    """
    sampler = _family("arrival", family, params).sampler
    if not (np.isfinite(horizon) and horizon > 0):
        raise DomainError(f"horizon must be positive and finite, got {horizon!r}")

    chunks = []
    offset = 0.0
    count = 0
    while True:
        gaps = sampler(r, params, size=_BLOCK)
        with np.errstate(over="ignore"):  # a sum that overflows to inf lies past the horizon
            cs = offset + np.cumsum(gaps)
        keep = int(np.searchsorted(cs, horizon, side="right"))
        chunks.append(cs[:keep])
        count += keep
        if count > _MAX_ARRIVALS:
            raise ParameterError(f"more than {_MAX_ARRIVALS} {family} arrivals fall before the horizon "
                                 f"{horizon!r}; a trace holds at most {_MAX_ARRIVALS}")
        if keep < _BLOCK:
            break
        offset = float(cs[-1])
    times = _enforce_strict_increase(np.concatenate(chunks), horizon)
    times.flags.writeable = False  # handed over to the trace, not copied
    return ArrivalTrace(times, float(horizon))


def fixed_trace(times, horizon: float | None = None) -> ArrivalTrace:
    """Literal trace from explicit arrival instants (fixtures, replays)."""
    arr = _frozen(list(times))
    if horizon is None:
        if arr.size == 0:
            raise DomainError("fixed_trace needs a horizon when no times are given")
        horizon = float(arr[-1])
    return ArrivalTrace(arr, float(horizon))


def _enforce_strict_increase(times: np.ndarray, horizon: float) -> np.ndarray:
    # a sub-ulp gap can vanish in the cumulative sum; each time becomes
    # max(times[i], nextafter(out[i-1])), then what that pushes past the horizon
    # is cut. The bit patterns of nonnegative floats count ulps, so that is a
    # running maximum of bits[i] - i, shifted back by i. A pair needs it iff
    # later - earlier <= 0, which a tie of infinities (NaN) does not.
    if not np.any((times[1:] <= times[:-1]) & (times[1:] != np.inf) & (times[:-1] != -np.inf)):
        return times
    i = np.arange(times.size)
    out = (np.maximum.accumulate(times.view(np.int64) - i) + i).view(np.float64)
    return out[:np.searchsorted(out, horizon, side="right")]
