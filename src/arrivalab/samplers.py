"""Deterministic, seedable variate generation for every family.

Continuous families are sampled by inverse transform; Poisson counts are
sampled exactly by the product-of-uniforms method, for means up to 30.
Randomness comes from :class:`RngStream`, a counter-based Philox generator
keyed by ``(seed, stream_id)``: identical keys replay identical sequences
bit for bit, distinct stream ids give independent streams that can be
handed to parallel replications.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from .distributions import (
    ExponentialParams,
    ParetoOneParams,
    ParetoTwoParams,
    PoissonParams,
    _integer,
)
from .errors import ParameterError

__all__ = [
    "FAMILIES",
    "Family",
    "RngStream",
    "exponential_from_uniform",
    "pareto1_from_uniform",
    "lomax_from_uniform",
    "sample_exponential",
    "sample_pareto1",
    "sample_lomax",
    "sample_poisson_count",
]

_U64_MAX = 2**64
# largest Poisson mean the product-of-uniforms sampler accepts; its cost
# grows with the mean
_POISSON_PRODUCT_LIMIT = 30.0


# the smallest uniform an RngStream returns; the largest draw of a continuous
# family is its inverse transform here
SMALLEST_UNIFORM = 2.0**-54


class RngStream:
    """Replayable uniform source: Philox keyed by ``(seed, stream_id)``.

    Uniforms are ``k / 2**53 + 2**-54`` for a 53-bit ``k``, rounded to float64.
    The smallest is ``SMALLEST_UNIFORM``, so inverse transforms never see 0,
    and a continuous variate is finite unless the law's inverse transform
    there overflows to ``inf``: ``LocationConfig`` and the validation suite
    reject such laws up front (``_check_largest_draw``), and an infinite
    arrival gap only ends its trace. (From ``k = 2**52`` up, the sum lies
    halfway between two float64 and rounds to even, so ``k = 2**53 - 1``
    gives exactly 1, and a variate of 0.)
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = _integer("seed", seed, 0, _U64_MAX)
        self.stream_id = _integer("stream_id", stream_id, 0, _U64_MAX)
        key = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        self._gen = np.random.Generator(np.random.Philox(key))

    def uniform_open(self, size=None):
        """Uniform draw(s) in (0, 1]: never 0, and exactly 1 at ``k = 2**53 - 1`` (class docstring)."""
        u = self._gen.random(size)
        u += SMALLEST_UNIFORM  # in place for a block; a scalar is rebound
        return u

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


# --- inverse transforms (pure, unit-testable against closed forms) -----------
# A value that overflows is inf, without a warning; the caller decides what an
# infinite variate means (see ``_check_largest_draw``).

def exponential_from_uniform(u, p: ExponentialParams):
    """Map uniform u in (0, 1) to an exponential variate ``-ln(u) / rate``."""
    with np.errstate(over="ignore"):
        return -np.log(u) / p.rate


def lomax_from_uniform(u, p: ParetoTwoParams):
    """Map uniform u in (0, 1) to ``scale * (u**(-1/shape) - 1)``, which is
    ``u**(-1/shape) - 1`` for ``ParetoOneParams`` (scale 1).

    Inverts the CDF: u -> 0 gives the deep tail, u -> 1 gives the support
    infimum 0.
    """
    with np.errstate(over="ignore"):
        x = np.power(u, -1.0 / p.shape)  # a new array or scalar, so u is left alone
        x -= 1.0
        x *= p.scale
        return x


# --- samplers ----------------------------------------------------------------

def sample_exponential(r: RngStream, p: ExponentialParams, size=None):
    """Exponential variate(s), strictly positive."""
    return exponential_from_uniform(r.uniform_open(size), p)


def sample_lomax(r: RngStream, p: ParetoTwoParams, size=None):
    """Lomax variate(s), strictly positive; one-parameter Pareto variates for
    ``ParetoOneParams`` (scale 1)."""
    return lomax_from_uniform(r.uniform_open(size), p)


# the one-parameter Pareto is Lomax at scale 1, which ``ParetoOneParams`` carries
pareto1_from_uniform, sample_pareto1 = lomax_from_uniform, sample_lomax


class Family(NamedTuple):
    """A continuous family: ``sampler`` is ``inverse`` at a stream's uniforms, and both take ``params``."""

    sampler: Callable
    params: type
    inverse: Callable


# the one registry of continuous families: arrival gaps may use any, holds those in HOLDING_FAMILIES
FAMILIES = {
    "exponential": Family(sample_exponential, ExponentialParams, exponential_from_uniform),
    "pareto1": Family(sample_pareto1, ParetoOneParams, pareto1_from_uniform),
    "lomax": Family(sample_lomax, ParetoTwoParams, lomax_from_uniform),
}


def _known(role: str, name: str, names=FAMILIES) -> str:
    """``name``; a ``ParameterError`` naming the ``role`` unless it is in ``names``."""
    if name not in names:
        raise ParameterError(f"unknown {role} family {name!r}; expected one of {tuple(names)}")
    return name


def _family(role: str, name: str, params, names=FAMILIES) -> Family:
    """``FAMILIES[name]``; a ``ParameterError`` naming the ``role`` unless ``name`` is in ``names``
    and ``params`` is of its params type."""
    family = FAMILIES[_known(role, name, names)]
    if not isinstance(params, family.params):
        got = "no params" if params is None else type(params).__name__
        raise ParameterError(f"{role} family {name!r} needs {family.params.__name__}, got {got}")
    return family


def _check_largest_draw(family: str, params, claim: str) -> None:
    """Raise ``ParameterError`` with ``claim`` if the largest draw of ``family`` at
    ``params``, its inverse transform at ``SMALLEST_UNIFORM``, overflows to inf."""
    if not math.isfinite(float(FAMILIES[family].inverse(SMALLEST_UNIFORM, params))):
        raise ParameterError(f"{claim}: its largest draw, at the smallest stream uniform 2**-54, "
                             f"must not exceed the float maximum {sys.float_info.max:.6g}")


def sample_poisson_count(r: RngStream, p: PoissonParams, size=None):
    """Exact Poisson count(s) with mean ``rate``, by the
    product-of-uniforms method. Means above 30 raise ``ParameterError``.
    """
    if p.rate > _POISSON_PRODUCT_LIMIT:
        raise ParameterError(f"Poisson mean must not exceed {_POISSON_PRODUCT_LIMIT:g}, got {p.rate!r}")
    counts = _poisson_product(r, p.rate, 1 if size is None else int(size))
    return int(counts[0]) if size is None else counts


def _poisson_product(r: RngStream, m: float, count: int) -> np.ndarray:
    # multiply uniforms until the running product drops below exp(-m);
    # the number of factors minus one is the count, so an entry that drops
    # out in round k (from 0) counts k. ``prod`` holds the running products
    # of the ``active`` entries only, in their order
    limit = math.exp(-m)
    out = np.zeros(count, dtype=np.int64)
    prod = np.ones(count, dtype=np.float64)
    active = np.arange(count)
    k = 0
    while active.size:
        prod *= r.uniform_open(active.size)
        still = prod > limit
        out[active[~still]] = k
        active, prod = active[still], prod[still]
        k += 1
    return out
