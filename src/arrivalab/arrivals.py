"""Arrival traces: renewal processes with i.i.d. gaps on a finite horizon.

Exponential gaps recover the Poisson counting process exactly; Pareto/Lomax
gaps give the heavy-tailed, bursty alternative. A trace records its family,
seed and stream id for the CSV provenance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .samplers import FAMILIES, RngStream

__all__ = ["ArrivalTrace", "generate_trace", "fixed_trace"]

_BLOCK = 1024
# the most arrivals one trace may hold: 80 MB of times; a horizon that needs
# more is refused rather than drawn without end
_MAX_ARRIVALS = 10**7


@dataclass(frozen=True)
class ArrivalTrace:
    """Strictly increasing arrival instants in [0, horizon], plus provenance."""

    times: np.ndarray
    horizon: float
    family: str
    seed: int = 0
    stream_id: int = 0

    def __post_init__(self):
        times = np.array(self.times, dtype=float)  # own copy, then frozen
        times.flags.writeable = False
        object.__setattr__(self, "times", times)
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise DomainError(f"horizon must be positive and finite, got {self.horizon!r}")
        if times.size:
            if times[0] <= 0 or times[-1] > self.horizon:
                raise DomainError("arrival times must lie in (0, horizon]")
            if np.any(np.diff(times) <= 0):
                raise DomainError("arrival times must be strictly increasing")

    def __len__(self) -> int:
        return int(self.times.size)


def generate_trace(family: str, params, horizon: float, r: RngStream) -> ArrivalTrace:
    """Cumulative sums of i.i.d. gaps, truncated at the horizon.

    May be empty when the first gap already exceeds the horizon, a valid
    outcome and a common one for heavy-tailed gaps.
    """
    if family not in FAMILIES:
        raise ParameterError(f"unknown arrival family {family!r}; expected one of {tuple(FAMILIES)}")
    sampler, want, _ = FAMILIES[family]
    if not isinstance(params, want):
        raise ParameterError(f"family {family!r} needs {want.__name__}, got {type(params).__name__}")
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
    return ArrivalTrace(times, float(horizon), family, r.seed, r.stream_id)


def fixed_trace(times, horizon: float | None = None) -> ArrivalTrace:
    """Literal trace from explicit arrival instants (fixtures, replays)."""
    arr = np.asarray(list(times), dtype=float)
    if horizon is None:
        if arr.size == 0:
            raise DomainError("fixed_trace needs a horizon when no times are given")
        horizon = float(arr[-1])
    return ArrivalTrace(arr, float(horizon), "fixed")


def _enforce_strict_increase(times: np.ndarray, horizon: float) -> np.ndarray:
    # a sub-ulp gap can vanish in the cumulative sum; bump the later time by
    # one ulp (and truncate in the vanishing chance that pushes past the horizon)
    if times.size < 2 or not np.any(np.diff(times) <= 0):
        return times
    out = times.copy()
    for i in range(1, out.size):
        if out[i] <= out[i - 1]:
            out[i] = np.nextafter(out[i - 1], np.inf)
            if out[i] > horizon:
                return out[:i]
    return out
