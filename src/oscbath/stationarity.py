"""Numeric probes of Gibbs invariance under the kicked dynamics.

The measure exp(-beta H) is invariant for the 1-D elastic model iff the
external velocity is centered Gaussian. Two finite, assertable surrogates
are provided:

* ``stationarity_residual`` -- the adjoint-generator fixed-point identity
  gamma E_v exp(-beta/(2M) (gamma p - (1-gamma) M v)^2) = exp(-beta p^2/(2M)),
  gamma = 1/alpha, evaluated in closed form per velocity law on a momentum grid;
* ``one_step_moment_shift`` -- second/fourth moment of the kicked momentum
  before and after a single collision at exact stationarity, the kick drawn
  from the model's own ``velocity_law`` (the fourth moment moves iff that
  law is non-Gaussian).

Both take beta = (1+alpha)/(M (1-alpha) sigma2) > 0: each scalar velocity
law requires a finite positive sigma2, ``collisions`` refuses an alpha that
rounds to 1, and the CLI refuses a beta that overflows. The residual also
needs alpha > 0 (gamma = 1/alpha), which the CLI checks before calling it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collisions import OneDimElastic
from .errors import NumericalAbort


def stationarity_residual(
    beta: float,
    alpha: float,
    mass: float,
    law,
    p1_grid,
) -> float:
    """Max absolute defect of the invariance identity over the momentum grid.

    The mean over the external velocity is the law's closed-form
    ``gauss_kernel_mean(a, b)`` = E exp(-(a + b v)^2), at a = sqrt(c) gamma p
    and b = -sqrt(c) (1 - gamma) M, c = beta/(2M). A matched Gaussian law
    drives the residual to rounding level; any other case stays bounded
    away from zero.
    """
    if not beta > 0 or not mass > 0:
        raise ValueError("beta and mass must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly in (0, 1)")
    grid = np.asarray(p1_grid, dtype=float).ravel()
    if grid.size == 0:
        raise ValueError("momentum grid must not be empty")
    gamma = 1.0 / alpha
    coeff = beta / (2.0 * mass)
    scale = math.sqrt(coeff)
    lhs = gamma * law.gauss_kernel_mean(scale * gamma * grid, -scale * (1.0 - gamma) * mass)
    return float(np.max(np.abs(lhs - np.exp(-coeff * grid * grid))))


@dataclass(frozen=True)
class MomentShift:
    """Second/fourth moments of p1 before and after one collision.

    The shift standard errors are paired (computed from per-draw
    differences), so "unchanged within k sigma" is a sharp statement.
    """

    m2_before: float
    m2_after: float
    m4_before: float
    m4_after: float
    m2_shift_se: float
    m4_shift_se: float

    @property
    def m2_shift(self) -> float:
        return self.m2_after - self.m2_before

    @property
    def m4_shift(self) -> float:
        return self.m4_after - self.m4_before


def one_step_moment_shift(
    beta: float,
    mass: float,
    model: OneDimElastic,
    n: int,
    seed: int,
) -> MomentShift:
    """Kick a stationary momentum once and report moment movement.

    Draws p ~ N(0, M/beta), applies the model's jump with input u ~
    ``model.velocity_law`` to all draws at once, and returns the empirical
    moments with paired standard errors.
    An overflow (beta near 1e-160 or below) raises ``NumericalAbort``.
    """
    if not beta > 0 or not mass > 0:
        raise ValueError("beta and mass must be positive")
    if n < 2:
        raise ValueError("need at least two draws")
    rng = np.random.default_rng(seed)
    p = rng.normal(0.0, math.sqrt(mass / beta), size=n)
    u = np.asarray(model.velocity_law.sample(rng, size=n), dtype=float)
    p_after = model.jump(u[:, None], p[:, None], mass)[:, 0]
    del u
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        # squares, then squares of squares (no libm pow), each in place once the last is read
        p2, p_after2 = np.square(p, out=p), np.square(p_after, out=p_after)
        m2_before, m2_after = float(np.mean(p2)), float(np.mean(p_after2))
        m2_shift_se = float(np.std(p_after2 - p2, ddof=1) / math.sqrt(n))
        p4, p_after4 = np.multiply(p2, p2, out=p2), np.multiply(p_after2, p_after2, out=p_after2)
        shift = MomentShift(
            m2_before=m2_before,
            m2_after=m2_after,
            m4_before=float(np.mean(p4)),
            m4_after=float(np.mean(p_after4)),
            m2_shift_se=m2_shift_se,
            m4_shift_se=float(np.std(p_after4 - p4, ddof=1) / math.sqrt(n)),
        )
    if not all(math.isfinite(x) for x in vars(shift).values()):
        raise NumericalAbort(f"the one-step moment shift at beta = {beta!r} overflows: the "
                             "fourth moments of momenta of scale sqrt(M/beta) pass the largest float")
    return shift
