"""Numeric probes of Gibbs invariance under the kicked dynamics.

The measure exp(-beta H) is invariant for the 1-D elastic model iff the
external velocity is centered Gaussian. Three finite, assertable surrogates
are provided:

* ``stationarity_residual`` -- the adjoint-generator fixed-point identity
  gamma E_v exp(-beta/(2M) (gamma p - (1-gamma) M v)^2) = exp(-beta p^2/(2M)),
  gamma = 1/alpha, evaluated by quadrature/enumeration on a momentum grid;
* ``gibbs_sampler`` -- exact draws from exp(-beta H) for moment batteries;
* ``one_step_moment_shift`` -- second/fourth moment of the kicked momentum
  before and after a single collision at exact stationarity (the fourth
  moment moves iff the velocity law is non-Gaussian).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collisions import OneDimElastic
from .laws import GaussianVelocity
from .network import OscillatorNetwork


def _gaussian_expectation_of_squared_exponent(a, b, sigma2, y, w):
    """E exp(-(a + b v)^2) for v ~ N(0, sigma2) by Gauss-Hermite nodes y, weights w.

    Adaptive node placement: the affine substitution centers the nodes at
    the mode of the product integrand and matches its curvature, the
    standard way to keep Gauss-Hermite at full accuracy when the integrand
    is much narrower than the sampling law.
    """
    curv = b * b + 0.5 / sigma2  # half-curvature of the log-integrand
    mode = -a * b / curv
    s = 1.0 / math.sqrt(2.0 * curv)
    v = mode + math.sqrt(2.0) * s * y
    exponent = -((a + b * v) ** 2) - v * v / (2.0 * sigma2) + y * y
    total = float(np.dot(w, np.exp(exponent)))
    return s * math.sqrt(2.0 / (2.0 * math.pi * sigma2)) * total


def stationarity_residual(
    beta: float,
    alpha: float,
    mass: float,
    law,
    p1_grid,
    nodes: int = 64,
) -> float:
    """Max absolute defect of the invariance identity over the momentum grid.

    The expectation over the external velocity is evaluated per law:
    variance-matched Gauss-Hermite nodes for the Gaussian law,
    ``law.expect`` (Gauss-Legendre) for the uniform law, and exact
    enumeration for the two-point law. A matched Gaussian law drives the
    residual to quadrature precision; any other case stays bounded away
    from zero.
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
    worst = 0.0
    y, w = np.polynomial.hermite.hermgauss(nodes)
    for p1 in grid:
        if isinstance(law, GaussianVelocity):
            lhs = gamma * _gaussian_expectation_of_squared_exponent(
                a=scale * gamma * p1,
                b=-scale * (1.0 - gamma) * mass,
                sigma2=law.sigma2,
                y=y, w=w,
            )
        else:
            lhs = gamma * law.expect(
                lambda v: np.exp(
                    -coeff * (gamma * p1 - (1.0 - gamma) * mass * v) ** 2
                ),
                nodes=nodes,
            )
        rhs = math.exp(-coeff * p1 * p1)
        worst = max(worst, abs(lhs - rhs))
    return worst


def gibbs_sampler(
    net: OscillatorNetwork, beta: float, n: int, seed: int
) -> np.ndarray:
    """i.i.d. draws from the density proportional to exp(-beta H).

    Positions are sampled mode-wise with standard deviation 1/(sqrt(beta)
    omega_k), momenta mode-wise as N(0, M/beta), which the rotation back
    leaves i.i.d. N(0, M/beta). Returns an (n, 2*dof) array in PhaseState
    ordering.
    """
    if not beta > 0:
        raise ValueError("beta must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    z_q = rng.standard_normal((n, net.dof))
    z_p = rng.standard_normal((n, net.dof))
    mode_std = 1.0 / (math.sqrt(beta) * net.omegas)
    return net.from_modes(z_q * mode_std, math.sqrt(net.mass / beta) * z_p)


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
    law,
    n: int,
    seed: int,
) -> MomentShift:
    """Kick a stationary momentum once and report moment movement.

    Draws p ~ N(0, M/beta), applies the model's jump with input u ~ law to
    all draws at once, and returns the empirical moments with paired standard errors.
    """
    if not beta > 0 or not mass > 0:
        raise ValueError("beta and mass must be positive")
    if n < 2:
        raise ValueError("need at least two draws")
    rng = np.random.default_rng(seed)
    p = rng.normal(0.0, math.sqrt(mass / beta), size=n)
    u = np.asarray(law.sample(rng, size=n), dtype=float)
    p_after = model.jump(u[:, None], p[:, None], mass)[:, 0]
    p2, p_after2 = p**2, p_after**2
    p4, p_after4 = p**4, p_after**4
    return MomentShift(
        m2_before=float(np.mean(p2)),
        m2_after=float(np.mean(p_after2)),
        m4_before=float(np.mean(p4)),
        m4_after=float(np.mean(p_after4)),
        m2_shift_se=float(np.std(p_after2 - p2, ddof=1) / math.sqrt(n)),
        m4_shift_se=float(np.std(p_after4 - p4, ddof=1) / math.sqrt(n)),
    )
