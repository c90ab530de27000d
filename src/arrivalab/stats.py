"""Empirical validation tools: one-sample KS distance, curve crossover
location, and the Poisson-vs-normal error gauge.

The KS distance is used descriptively against the fixed 1% critical value
``1.63 / sqrt(n)``; this is a fitness gauge, not a hypothesis-testing
framework.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import PoissonParams, _frozen, normal_approx_pmf, poisson_pmf
from .errors import DomainError

__all__ = [
    "KS_CRITICAL_1PCT",
    "EmpiricalSample",
    "ks_statistic",
    "ks_critical_value",
    "crossover_point",
    "normal_approx_error",
]

# one-sample KS critical value at the 1% level is KS_CRITICAL_1PCT / sqrt(n)
KS_CRITICAL_1PCT = 1.63
# crossover_point's scan steps over [lo, hi] and its absolute bisection tolerance
CROSSOVER_GRID = 2048
CROSSOVER_TOL = 1e-9


def ks_critical_value(n: int) -> float:
    return KS_CRITICAL_1PCT / math.sqrt(n)


@dataclass(frozen=True)
class EmpiricalSample:
    """Sorted nonnegative observations."""

    values: np.ndarray

    def __post_init__(self):
        vals = _frozen(self.values)  # from_values hands over an array it keeps
        object.__setattr__(self, "values", vals)
        # sorted (NaN fails >=), nonnegative from the first value, finite up to the last
        if vals.ndim == 1 and vals.size and vals[0] >= 0 and vals[-1] < np.inf and (vals[1:] >= vals[:-1]).all():
            return
        if vals.size < 1:
            raise DomainError("empirical sample must hold at least one value")
        if np.any(vals < 0) or np.any(~np.isfinite(vals)):
            raise DomainError("empirical sample values must be finite and nonnegative")
        if np.any(vals[1:] < vals[:-1]):
            raise DomainError("empirical sample must be sorted ascending")

    @classmethod
    def from_values(cls, values):
        """Sort raw draws into a sample."""
        vals = np.sort(np.asarray(values, dtype=float))
        vals.flags.writeable = False
        return cls(vals)

    def __len__(self) -> int:
        return int(self.values.size)


def ks_statistic(s: EmpiricalSample, cdf) -> float:
    """One-sample KS distance ``sup |ECDF - F|`` against an analytic CDF.

    Evaluated at the sorted sample points, where the supremum of the
    difference against a continuous F is attained. ``cdf`` is called once on
    the whole sample and must return one value per point.
    """
    xs = s.values
    n = xs.size
    fx = np.asarray(cdf(xs), dtype=float)
    if fx.shape != xs.shape:
        raise DomainError(f"cdf returned shape {fx.shape} for {n} sample points")
    steps = _ecdf_steps(n)  # the ECDF just after point i is steps[i], just before it steps[i - 1]
    return float(max(np.max(steps[1:] - fx), np.max(fx - steps[:-1])))


@functools.lru_cache(maxsize=4)
def _ecdf_steps(n: int) -> np.ndarray:
    """``k / n`` for k = 0..n, read-only since every call shares it."""
    steps = np.arange(n + 1, dtype=float) / n
    steps.flags.writeable = False
    return steps


def crossover_point(f, g, lo: float, hi: float):
    """Smallest x in [lo, hi] where f(x) >= g(x), or None if f stays below.

    Grid scan of ``CROSSOVER_GRID`` steps from ``lo`` to bracket the first
    sign change of f - g (a hit at ``lo`` returns ``lo``), then bisection to
    absolute tolerance ``CROSSOVER_TOL``. ``f`` and ``g`` take a float or an
    array of points: the scan calls each once on the whole grid.
    """
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise DomainError(f"need a finite interval with lo < hi, got [{lo!r}, {hi!r}]")
    xs = np.linspace(lo, hi, CROSSOVER_GRID + 1)
    with np.errstate(over="ignore"):  # the scan also evaluates points past the first hit
        hits = np.flatnonzero(f(xs) >= g(xs))
    if not hits.size:
        return None
    if hits[0] == 0:
        return float(lo)
    a, b = float(xs[hits[0] - 1]), float(xs[hits[0]])
    while b - a > CROSSOVER_TOL:
        mid = 0.5 * (a + b)
        if f(mid) >= g(mid):
            b = mid
        else:
            a = mid
    return float(b)


def normal_approx_error(p: PoissonParams) -> float:
    """Largest pointwise gap between the Poisson pmf and its normal-mass
    approximation over counts up to mean + 10 standard deviations."""
    m = p.rate
    ns = np.arange(0, int(math.ceil(m + 10.0 * math.sqrt(m))) + 1)
    return float(np.max(np.abs(poisson_pmf(ns, p) - normal_approx_pmf(ns, p))))
