"""Sampling laws for waiting times and collision inputs.

All laws are small frozen dataclasses driven by a caller-owned
``numpy.random.Generator``, which keeps every simulation reproducible per
seed. ``sample(rng, size=None)`` draws one value (a vector law: one vector),
or a block of ``size`` of them. A block of n values is, bit for bit, the n
values of n scalar calls, or of any split of n into consecutive blocks, and
leaves ``rng`` in the same state; the event loop relies on this when it
draws each seed's waits and inputs as blocks, one stream per law. A
waiting-time law's constructor requires a finite positive ``mean``, by
which the event loop sizes its first block of waits.

A scalar velocity law's constructor requires a finite positive variance
``sigma2``, from which the moment analysis takes beta; a ``half_width`` or
``magnitude`` whose square underflows to 0 or overflows is refused. Each
scalar velocity law also gives ``gauss_kernel_mean(a, b)``, the mean
E exp(-(a + b v)^2) over its velocity v in closed form, for the
stationarity residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def sample_columns(laws, rngs, size: int) -> np.ndarray:
    """(size, width) inputs: each law's ``sample(rng, size=size)`` block from its generator, as columns.

    ``rngs`` has one generator per law: the event loop's streams, or one
    generator repeated (``itertools.repeat(rng)``), which the laws draw in turn.
    """
    return np.column_stack([law.sample(rng, size=size) for law, rng in zip(laws, rngs)])


#: math.erf elementwise: numpy has no erf, and scipy is not a runtime dependency
_erf = np.vectorize(math.erf, otypes=[float])


def _sign(bit):
    """+1 for a 1 bit, -1 for a 0 bit (elementwise)."""
    return bit * 2 - 1


# ---------------------------------------------------------------------------
# waiting-time laws (inter-collision intervals)
# ---------------------------------------------------------------------------


def _require_finite_mean(law) -> None:
    """Refuse a waiting-time law whose ``mean`` is infinite or zero."""
    if not (math.isfinite(law.mean) and law.mean > 0):
        raise ValueError(f"mean {law.mean!r} must be finite and positive")


@dataclass(frozen=True)
class Exponential:
    """Exponential waiting times with rate > 0 (the Markov case)."""

    rate: float

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError("rate must be positive")
        _require_finite_mean(self)

    @property
    def mean(self) -> float:
        return self.scale

    @property
    def scale(self) -> float:
        return 1.0 / self.rate

    def sample(self, rng: np.random.Generator, size=None):
        return rng.exponential(self.scale, size=size)


@dataclass(frozen=True)
class GammaLaw:
    """Gamma waiting times, shape/rate parametrization."""

    shape: float
    rate: float

    def __post_init__(self):
        if not self.shape > 0 or not self.rate > 0:
            raise ValueError("shape and rate must be positive")
        _require_finite_mean(self)

    @property
    def mean(self) -> float:
        return self.shape / self.rate

    @property
    def scale(self) -> float:
        return 1.0 / self.rate

    def sample(self, rng: np.random.Generator, size=None):
        return rng.gamma(self.shape, self.scale, size=size)


@dataclass(frozen=True)
class UniformPositive:
    """Uniform waiting times on [low, high], 0 <= low < high."""

    low: float
    high: float

    def __post_init__(self):
        if self.low < 0 or not self.high > self.low:
            raise ValueError("need 0 <= low < high")
        _require_finite_mean(self)

    @property
    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    def sample(self, rng: np.random.Generator, size=None):
        return rng.uniform(self.low, self.high, size=size)


# ---------------------------------------------------------------------------
# scalar external-velocity laws (zero mean, finite variance)
# ---------------------------------------------------------------------------


def _require_finite_variance(law, field: str) -> None:
    """Refuse a velocity law whose ``field`` is not positive or whose ``sigma2`` is 0 or not finite."""
    value = getattr(law, field)
    if not value > 0:
        raise ValueError(f"{field} must be positive")
    try:
        sigma2 = law.sigma2
    except OverflowError:  # a float's ** overflows with an exception, not to inf
        sigma2 = math.inf
    if not (math.isfinite(sigma2) and sigma2 > 0):
        raise ValueError(f"{field} {value!r} gives sigma2 {sigma2!r}; "
                         "the variance must be finite and positive")


@dataclass(frozen=True)
class GaussianVelocity:
    """Centered normal velocity with variance sigma2."""

    sigma2: float = 1.0

    def __post_init__(self):
        _require_finite_variance(self, "sigma2")

    @property
    def scale(self) -> float:
        return math.sqrt(self.sigma2)

    def sample(self, rng: np.random.Generator, size=None):
        return rng.normal(0.0, self.scale, size=size)

    def gauss_kernel_mean(self, a, b: float) -> np.ndarray:
        """E exp(-(a + b v)^2) elementwise over ``a``: exp(-a^2/D)/sqrt(D), D = 1 + 2 b^2 sigma2."""
        d = 1.0 + 2.0 * b * b * self.sigma2
        return np.exp(-np.square(a) / d) / math.sqrt(d)


@dataclass(frozen=True)
class UniformSymmetricVelocity:
    """Uniform velocity on [-half_width, half_width] (sigma2 = a^2/3)."""

    half_width: float

    def __post_init__(self):
        _require_finite_variance(self, "half_width")

    @property
    def sigma2(self) -> float:
        return self.half_width**2 / 3.0

    def sample(self, rng: np.random.Generator, size=None):
        return rng.uniform(-self.half_width, self.half_width, size=size)

    def gauss_kernel_mean(self, a, b: float) -> np.ndarray:
        """E exp(-(a + b v)^2) elementwise over ``a``, b != 0: sqrt(pi) (erf(a + bh) - erf(a - bh)) / (4bh)."""
        bh = b * self.half_width
        return math.sqrt(math.pi) * (_erf(a + bh) - _erf(a - bh)) / (4.0 * bh)


@dataclass(frozen=True)
class TwoPointVelocity:
    """Velocity +-magnitude with probability 1/2 each (sigma2 = a^2).

    Has no density; it exists to exercise the non-Gaussian converse of the
    Gibbs-invariance statement while keeping second moments exact.
    """

    magnitude: float

    def __post_init__(self):
        _require_finite_variance(self, "magnitude")

    @property
    def sigma2(self) -> float:
        return self.magnitude**2

    def sample(self, rng: np.random.Generator, size=None):
        return _sign(rng.integers(0, 2, size=size)) * self.magnitude

    def gauss_kernel_mean(self, a, b: float) -> np.ndarray:
        """E exp(-(a + b v)^2) elementwise over ``a``: the mean over v = +-magnitude."""
        ba = b * self.magnitude
        return 0.5 * (np.exp(-np.square(a + ba)) + np.exp(-np.square(a - ba)))


# ---------------------------------------------------------------------------
# vector / angle laws for the d > 1 collision models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IsotropicGaussianVector:
    """i.i.d. centered normal components, per-component variance sigma2."""

    dim: int
    sigma2: float = 1.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not self.sigma2 > 0:
            raise ValueError("sigma2 must be positive")

    @property
    def scale(self) -> float:
        return math.sqrt(self.sigma2)

    def sample(self, rng: np.random.Generator, size=None):
        shape = (self.dim,) if size is None else (size, self.dim)
        return rng.normal(0.0, self.scale, size=shape)


@dataclass(frozen=True)
class UniformAngle:
    """Impact angle uniform on [0, 2*pi)."""

    def sample(self, rng: np.random.Generator, size=None):
        return rng.uniform(0.0, 2.0 * math.pi, size=size)

