"""Closed-form evaluators for the arrival-model distribution families.

Covers the Poisson process (its count law and its exponential gaps, at one
rate type, ``ExponentialParams`` alias ``PoissonParams``), the one-parameter
Pareto family ``F(x) = 1 - (1 + x)^(-shape)``, the Lomax (Pareto type II)
two-parameter family, a deliberately inconsistent "shifted CDF / power-law
pdf" two-parameter variant kept for comparison, and the continuity-corrected
normal approximation to the Poisson pmf.

All evaluators accept a float or a numpy array for the evaluation point and
return numpy's own result: a float64 array for an array, an ``np.float64`` (a
``float`` subclass) for a scalar. Masses and densities are computed in log
space so large counts or means do not overflow, and survival functions come
from their own closed forms rather than ``1 - cdf`` so deep-tail values keep
full relative precision.

The log-factorial in the Poisson pmf is a port of the Cephes ``lgam`` routine
(S. L. Moshier, *Methods and Programs for Mathematical Functions*, 1989), the
one behind ``scipy.special.gammaln``, restricted to integer arguments: an
exact product below 13, Stirling's series with Cephes' coefficients above,
every logarithm taken by ``math.log``. It reproduces ``gammaln`` bit for bit,
and those bits are what the checked-in output digests pin; ``math.lgamma``
and ``np.log`` each differ from it in the last bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError

__all__ = [
    "PoissonParams",
    "ExponentialParams",
    "ParetoOneParams",
    "ParetoTwoParams",
    "poisson_pmf",
    "exp_pdf",
    "exp_cdf",
    "exp_survival",
    "pareto1_cdf",
    "pareto1_pdf",
    "pareto1_survival",
    "pareto2_cdf_shifted",
    "pareto2_pdf_powerlaw",
    "lomax_cdf",
    "lomax_pdf",
    "lomax_survival",
    "normal_approx_pmf",
]


def _positive_finite(name: str, value) -> float:
    v = float(value)
    if not math.isfinite(v) or v <= 0.0:
        raise ParameterError(f"{name} must be positive and finite, got {value!r}")
    return v


def _integer(name: str, value, low: int, high: float = math.inf) -> int:
    """``value`` as a Python int in ``[low, high)``; a bool is not an integer here."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not low <= value < high:
        raise ParameterError(f"{name} must be an integer in [{low}, {high}), got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ExponentialParams:
    """Rate ``r`` of a Poisson process (events per unit time): its gaps are
    exponential with mean ``1 / r`` and its count over a unit window is
    Poisson with mean ``r``. ``PoissonParams`` is this class."""

    rate: float

    def __post_init__(self):
        object.__setattr__(self, "rate", _positive_finite("rate", self.rate))


PoissonParams = ExponentialParams


@dataclass(frozen=True)
class ParetoOneParams:
    """Tail index of the one-parameter Pareto family on [0, inf): Lomax at
    scale 1. ``scale`` is a class attribute, not a field, so the Lomax
    functions take these params as they are."""

    shape: float
    scale = 1.0

    def __post_init__(self):
        object.__setattr__(self, "shape", _positive_finite("shape", self.shape))


@dataclass(frozen=True)
class ParetoTwoParams:
    """Shape (tail index) and scale of the two-parameter families.

    ``shape`` controls tail decay, ``scale`` sets the distribution's scale;
    scale 1 collapses the Lomax family onto the one-parameter Pareto.
    """

    shape: float
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "shape", _positive_finite("shape", self.shape))
        object.__setattr__(self, "scale", _positive_finite("scale", self.scale))
        if self.shape / self.scale == math.inf:  # the Lomax density at 0
            raise ParameterError(f"shape / scale must not exceed the float maximum {sys.float_info.max:.6g}, "
                                 f"got {self.shape!r} / {self.scale!r}")


def _as_support(x, what: str, strict: bool = False) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.size:  # a NaN anywhere makes the minimum NaN, which fails either bound
        lo = arr.min()
        if not ((lo > 0.0) if strict else (lo >= 0.0)) or not arr.max() < math.inf:
            raise DomainError(f"{what} requires finite x {'>' if strict else '>='} 0")
    return arr


def _as_count(n) -> np.ndarray:
    arr = np.asarray(n, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr < 0) or np.any(arr != np.floor(arr)):
        raise DomainError("count argument must be a nonnegative integer")
    return arr


# --- Poisson count law ------------------------------------------------------

# log(k!) for k < 12: the exact products Cephes lgam forms below 13
_LOG_SMALL_FACTORIALS = tuple(math.log(float(math.factorial(k))) for k in range(12))
_LGAM_MAX = 2.556348e305  # Cephes MAXLGM: lgam overflows above it
_LOG_SQRT_2PI = 0.91893853320467274178
_STIRLING = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)


def _lgamma_integer(x: float) -> float:
    """``log((x - 1)!)`` for an integer-valued float ``x >= 1``, in Cephes
    ``lgam``'s operation order, so it equals ``scipy.special.gammaln(x)``."""
    if x < 13.0:
        return _LOG_SMALL_FACTORIALS[int(x) - 1]
    if x > _LGAM_MAX:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    a = _STIRLING[0]
    for c in _STIRLING[1:]:
        a = a * p + c
    return q + a / x


def poisson_pmf(n, p: PoissonParams):
    """Probability of exactly ``n`` arrivals over the window.

    ``(m^n e^-m) / n!`` with ``m = rate``, evaluated via
    ``exp(n log m - m - lgamma(n + 1))``.
    """
    k = _as_count(n)
    m = p.rate
    log_fact = np.fromiter(map(_lgamma_integer, (k + 1.0).ravel().tolist()), float, k.size)
    return np.exp(k * math.log(m) - m - log_fact.reshape(k.shape))


# --- exponential baseline ---------------------------------------------------

def exp_pdf(x, p: ExponentialParams):
    """Density ``rate * exp(-rate x)`` on x >= 0."""
    arr = _as_support(x, "exp_pdf")
    return p.rate * np.exp(-p.rate * arr)


def exp_cdf(x, p: ExponentialParams):
    """``1 - exp(-rate x)`` on x >= 0."""
    arr = _as_support(x, "exp_cdf")
    return -np.expm1(-p.rate * arr)


def exp_survival(x, p: ExponentialParams):
    """Tail probability ``exp(-rate x)``, computed directly."""
    arr = _as_support(x, "exp_survival")
    return np.exp(-p.rate * arr)


def _density(p: ParetoTwoParams, log_tail):
    """``(shape / scale) * exp(log_tail)``, the form of both two-parameter
    densities. Where that product underflows to 0, ``shape / scale`` joins
    the exponent instead, so a density that is a float is not flushed."""
    pdf = (p.shape / p.scale) * np.exp(log_tail)
    if (pdf == 0.0).any():  # [()] keeps the result of a scalar x a scalar
        pdf = np.where(pdf > 0.0, pdf, np.exp(math.log(p.shape) - math.log(p.scale) + log_tail))[()]
    return pdf


# --- two-parameter variant kept as written ----------------------------------

def pareto2_cdf_shifted(x, p: ParetoTwoParams):
    """CDF variant ``1 - (shape + x)^(-scale)`` on x >= 0.

    Only a valid CDF on x >= 0 when shape >= 1: below that the expression is
    negative at the origin, so such parameters are rejected rather than
    clamped. Note the roles: here ``shape`` acts as an additive shift and
    ``scale`` as the tail exponent. The companion density
    :func:`pareto2_pdf_powerlaw` is deliberately NOT this function's
    derivative; the pair is retained so the mismatch itself can be checked.
    """
    if p.shape < 1.0:
        raise ParameterError(
            "pareto2_cdf_shifted needs shape >= 1: 1 - (shape + x)**(-scale) "
            f"is negative at x = 0 for shape = {p.shape!r}"
        )
    arr = _as_support(x, "pareto2_cdf_shifted")
    return -np.expm1(-p.scale * np.log(p.shape + arr))


def pareto2_pdf_powerlaw(x, p: ParetoTwoParams):
    """Density variant ``(shape / scale) * (scale / x)^shape`` on x > 0.

    Not the derivative of :func:`pareto2_cdf_shifted` (see there); kept for
    curve comparison only. Diverges as x -> 0 for any positive shape, hence
    the strictly positive domain.
    """
    arr = _as_support(x, "pareto2_pdf_powerlaw", strict=True)
    return _density(p, p.shape * (math.log(p.scale) - np.log(arr)))


# --- Lomax: the self-consistent two-parameter family -------------------------
# ``ParetoOneParams`` carries scale 1, and ``x / 1.0`` and ``1.0 * y`` are
# exact, so at scale 1 these are the one-parameter Pareto closed forms bit for
# bit; the ``pareto1_*`` names below are these functions.

def _log1p_ratio(arr: np.ndarray, scale: float):
    """``log1p(x / scale)``, the one logarithm of the Lomax functions. Where
    ``x / scale`` overflows it is ``log(x) - log(scale)``, since 1 is far
    below an ulp of the ratio there."""
    with np.errstate(over="ignore"):  # only a scale below 1 can overflow
        out = np.log1p(arr / scale)
    if scale >= 1.0 or not np.isinf(out).any():
        return out
    with np.errstate(divide="ignore"):  # log(0) at x = 0, where out is kept
        return np.where(out < math.inf, out, np.log(arr) - math.log(scale))


def lomax_survival(x, p: ParetoTwoParams):
    """Tail probability ``(scale / (scale + x))^shape``, direct closed form;
    ``(1 + x)^(-shape)`` at scale 1.

    Stays strictly positive arbitrarily deep into the tail, down to the
    smallest float, which is the whole point of the heavy-tailed comparison.
    """
    arr = _as_support(x, "lomax_survival")
    return np.exp(-p.shape * _log1p_ratio(arr, p.scale))


def lomax_cdf(x, p: ParetoTwoParams):
    """``1 - (scale / (scale + x))^shape``; ``1 - (1 + x)^(-shape)`` at scale 1."""
    arr = _as_support(x, "lomax_cdf")
    return -np.expm1(-p.shape * _log1p_ratio(arr, p.scale))


def lomax_pdf(x, p: ParetoTwoParams):
    """``(shape / scale) * (scale / (scale + x))^(shape + 1)``;
    ``shape / (1 + x)^(shape + 1)`` at scale 1.

    Exactly the derivative of :func:`lomax_cdf` everywhere on x > 0, unlike
    the shifted/power-law variant pair above. Where the direct product
    underflows to 0, ``shape / scale`` joins the exponent instead.
    """
    arr = _as_support(x, "lomax_pdf")
    return _density(p, -(p.shape + 1.0) * _log1p_ratio(arr, p.scale))


pareto1_cdf, pareto1_pdf, pareto1_survival = lomax_cdf, lomax_pdf, lomax_survival


# --- normal approximation to the Poisson pmf ---------------------------------

def normal_approx_pmf(n, p: PoissonParams):
    """Normal mass on [n - 1/2, n + 1/2] with mean and variance ``rate``.

    The continuity-corrected approximation the Poisson pmf approaches as its
    mean grows; poor for small means, which is what makes the comparison
    interesting.
    """
    k = _as_count(n)
    m = p.rate
    s = math.sqrt(m)
    return _normal_cdf((k + 0.5 - m) / s) - _normal_cdf((k - 0.5 - m) / s)


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF ``erfc(-z / sqrt(2)) / 2``, elementwise."""
    r = math.sqrt(2.0)
    cdf = np.fromiter(map(lambda v: 0.5 * math.erfc(-v / r), z.ravel().tolist()), float, z.size)
    return cdf.reshape(z.shape)
