"""Jump maps for the collision of particle 1 with an external particle.

Three concrete models are provided:

* ``OneDimElastic`` -- d = 1 energy/momentum conserving collision with an
  external particle of mass m <= M: p' = alpha p + (1 - alpha) M u.
* ``ContractiveAffine`` -- d >= 1 abstract model v' = R v + w with a strict
  contraction R and additive noise w.
* ``TwoDimBall`` -- d = 2 non-central elastic ball collision parametrized by
  the impact angle phi: p' = G_alpha(phi) p + M c_alpha(phi, v) R(phi).

Every ``jump(xi, p1, mass)`` maps stacks, xi (..., xi_dim) and p1 (..., dim),
to one kicked momentum per row, so a Monte Carlo sweep makes one call. The
two elastic models also give ``jump_jacobian(xi, p1, mass)``, the exact
derivatives (D_p, D_xi) of the jump per row, for the reachability probe.

Each model carries the sampling law of its random input xi so that
``verify_contraction`` (the numeric check of the kinetic-energy contraction
hypothesis) is self-contained. ``sample_input(rng, size=None)`` draws one
input or a block of them; ``input_draws(rng)`` gives the xi_dim closures of
one input in draw order (see :mod:`oscbath.laws`), which the event loop
calls. The analyticity and sphere-covering hypotheses on the jump map are
existence assumptions used in proofs only; they are documented here and not
testable numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .laws import IsotropicGaussianVector, GaussianVelocity, UniformAngle

#: margin keeping ||R|| strictly below 1 at construction
CONTRACTION_MARGIN = 1e-9


def _alpha_from_masses(heavy: float, light: float) -> float:
    """(M - m)/(M + m) for 0 < m <= M; alpha in [0, 1)."""
    if not light > 0:
        raise ValueError("external mass must be positive")
    if light > heavy:
        raise ValueError(
            f"external mass {light} must not exceed internal mass {heavy}"
        )
    return (heavy - light) / (heavy + light)


def _stacks(xi, p1, model):
    """xi and p1 as float arrays (..., xi_dim) and (..., dim); leading axes broadcast."""
    xi = np.array(xi, dtype=float, copy=None, ndmin=1)
    p1 = np.array(p1, dtype=float, copy=None, ndmin=1)
    if xi.shape[-1] != model.xi_dim or p1.shape[-1] != model.dim:
        raise ValueError(
            f"{type(model).__name__} expects momenta (..., {model.dim}) and inputs "
            f"(..., {model.xi_dim}), got {p1.shape} / {xi.shape}"
        )
    return xi, p1


@dataclass(frozen=True)
class OneDimElastic:
    """1-D elastic collision with an external particle of mass <= M.

    ``velocity_law`` is any zero-mean scalar law with ``sample``/``sigma2``;
    the default is a unit Gaussian.
    """

    external_mass: float
    velocity_law: object = field(default_factory=GaussianVelocity)

    dim = 1  # spatial dimension the model acts in
    xi_dim = 1

    def __post_init__(self):
        if not self.external_mass > 0:
            raise ValueError("external mass must be positive")

    def alpha(self, mass: float) -> float:
        return _alpha_from_masses(mass, self.external_mass)

    def jump(self, xi: np.ndarray, p1: np.ndarray, mass: float) -> np.ndarray:
        u, p1 = _stacks(xi, p1, self)
        a = self.alpha(mass)
        return a * p1 + (1.0 - a) * mass * u

    def jump_jacobian(self, xi, p1, mass):
        """(D_p, D_xi) of the jump, each (..., 1, 1): alpha and (1 - alpha) M."""
        u, p1 = _stacks(xi, p1, self)
        a = self.alpha(mass)
        rows = np.broadcast_shapes(u.shape[:-1], p1.shape[:-1]) + (1, 1)
        return np.full(rows, a), np.full(rows, (1.0 - a) * mass)

    def sample_input(self, rng: np.random.Generator, size=None) -> np.ndarray:
        u = self.velocity_law.sample(rng, size)
        return np.atleast_1d(u) if size is None else np.reshape(u, (size, 1))

    def input_draws(self, rng: np.random.Generator) -> tuple:
        return self.velocity_law.draws(rng)


@dataclass(frozen=True, eq=False)
class ContractiveAffine:
    """Velocity map v' = R v + w with ||R|| < 1 and additive noise w.

    The jump acts on momenta through the mass: p' = R p + M w.
    """

    reflection: np.ndarray
    noise_law: IsotropicGaussianVector | None = None

    def __post_init__(self):
        r = np.asarray(self.reflection, dtype=float)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise ValueError("reflection matrix must be square")
        top = float(np.linalg.norm(r, 2))
        if top > 1.0 - CONTRACTION_MARGIN:
            raise ValueError(
                f"spectral norm {top} too close to 1; the map must contract"
            )
        object.__setattr__(self, "reflection", r)
        if self.noise_law is None:
            object.__setattr__(
                self, "noise_law", IsotropicGaussianVector(dim=r.shape[0])
            )
        elif self.noise_law.dim != r.shape[0]:
            raise ValueError("noise dimension must match the reflection matrix")

    @property
    def dim(self) -> int:
        """Spatial dimension the model acts in, also that of its input."""
        return self.reflection.shape[0]

    xi_dim = dim

    def jump(self, xi: np.ndarray, p1: np.ndarray, mass: float) -> np.ndarray:
        w, p1 = _stacks(xi, p1, self)
        # one matrix-vector product per row, so a stack equals its rows bit for bit
        return (self.reflection @ p1[..., None])[..., 0] + mass * w

    def sample_input(self, rng: np.random.Generator, size=None) -> np.ndarray:
        return self.noise_law.sample(rng, size)

    def input_draws(self, rng: np.random.Generator) -> tuple:
        return self.noise_law.draws(rng)


def impact_matrix(alpha: float, phi: float) -> np.ndarray:
    """G_alpha(phi) = I - (1 - alpha) R(phi) R(phi)^T (symmetric, spectrum {alpha, 1})."""
    c, s = math.cos(phi), math.sin(phi)
    r = np.array([c, s])
    return np.eye(2) - (1.0 - alpha) * np.outer(r, r)


@dataclass(frozen=True)
class TwoDimBall:
    """Non-central elastic collision of 2-D balls, d = 2 only.

    The impact angle is sampled independently of the state (the geometric
    impact-parameter problem is out of scope); the external velocity has a
    density on R^2 with finite second moment.
    """

    external_mass: float
    angle_law: UniformAngle = field(default_factory=UniformAngle)
    velocity_law: IsotropicGaussianVector = field(
        default_factory=lambda: IsotropicGaussianVector(dim=2)
    )

    dim = 2
    xi_dim = 3  # (phi, v_x, v_y)

    def __post_init__(self):
        if not self.external_mass > 0:
            raise ValueError("external mass must be positive")
        if self.velocity_law.dim != 2:
            raise ValueError("external velocity law must be two-dimensional")

    def alpha(self, mass: float) -> float:
        return _alpha_from_masses(mass, self.external_mass)

    def jump(self, xi: np.ndarray, p1: np.ndarray, mass: float) -> np.ndarray:
        """p' = p + (1 - alpha) (r.(M v - p)) r, r = R(phi): the normal component alone moves."""
        xi, p1 = _stacks(xi, p1, self)
        phi = xi[..., :1]
        r = np.concatenate([np.cos(phi), np.sin(phi)], axis=-1)
        normal = np.vecdot(mass * xi[..., 1:] - p1, r)[..., None]
        return p1 + (1.0 - self.alpha(mass)) * normal * r

    def jump_jacobian(self, xi, p1, mass):
        """(D_p, D_xi) of the jump, (..., 2, 2) and (..., 2, 3).

        With w = M v - p and r' = dr/dphi = (-sin phi, cos phi):
        D_p = I - (1 - alpha) r r^T, and D_xi has the column
        (1 - alpha) ((r'.w) r + (r.w) r') for phi and (1 - alpha) M r r^T for v.
        """
        xi, p1 = _stacks(xi, p1, self)
        phi = xi[..., :1]
        r = np.concatenate([np.cos(phi), np.sin(phi)], axis=-1)
        dr = np.concatenate([-np.sin(phi), np.cos(phi)], axis=-1)
        w = mass * xi[..., 1:] - p1
        b = 1.0 - self.alpha(mass)
        rr = r[..., :, None] * r[..., None, :]
        d_phi = b * (np.vecdot(dr, w)[..., None] * r + np.vecdot(r, w)[..., None] * dr)
        return np.eye(2) - b * rr, np.concatenate([d_phi[..., None], b * mass * rr], axis=-1)

    def sample_input(self, rng: np.random.Generator, size=None) -> np.ndarray:
        """(phi, v_x, v_y), or a (size, 3) block; each row draws its angle then its velocity."""
        if size is not None:
            return np.array([self.sample_input(rng) for _ in range(size)]).reshape(size, 3)
        phi = self.angle_law.sample(rng)
        v = self.velocity_law.sample(rng)
        return np.concatenate([[phi], v])

    def input_draws(self, rng: np.random.Generator) -> tuple:
        return self.angle_law.draws(rng) + self.velocity_law.draws(rng)


CollisionModel = Union[OneDimElastic, ContractiveAffine, TwoDimBall]


def two_ball_pair_update(m1, m2, v1, v2, phi):
    """Elastic collision of two 2-D balls along contact direction R(phi).

    Tangential velocity components are unchanged; normal components follow
    the 1-D elastic rule for both balls (the second ball sees alpha -> -alpha
    by exchanging roles). Conserves total momentum and kinetic energy.

    Returns (v1_after, v2_after).
    """
    if not m1 > 0 or not m2 > 0:
        raise ValueError("masses must be positive")
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    if v1.shape != (2,) or v2.shape != (2,):
        raise ValueError("velocities must be 2-vectors")
    c, s = math.cos(phi), math.sin(phi)
    normal = np.array([c, s])
    tangent = np.array([-s, c])
    a = (m1 - m2) / (m1 + m2)
    v1n, v1t = v1 @ normal, v1 @ tangent
    v2n, v2t = v2 @ normal, v2 @ tangent
    v1n_new = a * v1n + (1.0 - a) * v2n
    v2n_new = -a * v2n + (1.0 + a) * v1n
    return v1n_new * normal + v1t * tangent, v2n_new * normal + v2t * tangent


@dataclass(frozen=True, eq=False)
class ContractionReport:
    """Monte Carlo sweep of E|J(xi; p)|^2 / |p|^2 over momentum radii.

    ``asymptote`` is the leading coefficient of a least-squares fit
    E|J|^2 ~ a r^2 + b r + c; a model satisfies the large-energy contraction
    hypothesis when the asymptote sits below 1.
    """

    radii: np.ndarray
    ratios: np.ndarray
    asymptote: float

    @property
    def contracts(self) -> bool:
        return self.asymptote < 1.0


def verify_contraction(
    model: CollisionModel,
    mass: float,
    radii,
    n_mc: int = 10_000,
    seed: int = 0,
) -> ContractionReport:
    """Estimate the kinetic-energy contraction ratio on spheres |p| = r.

    For each radius, momenta are drawn uniformly on the sphere and xi from
    the model's own input law; the report carries the per-radius ratio
    E|J|^2 / r^2 and the fitted r^2-coefficient. Report-only: no exception
    for non-contracting parameter sets.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size < 3:
        raise ValueError("need at least three radii for the asymptote fit")
    if np.any(np.diff(radii) <= 0) or np.any(radii <= 0):
        raise ValueError("radii must be positive ascending")
    if n_mc < 1000:
        raise ValueError("n_mc must be at least 1000")
    d = model.dim
    rng = np.random.default_rng(seed)
    mean_sq = np.empty(radii.size)
    for i, r in enumerate(radii):
        dirs = rng.standard_normal((n_mc, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        xi = model.sample_input(rng, size=n_mc)
        j = model.jump(xi, r * dirs, mass)
        mean_sq[i] = float(np.sum(j * j)) / n_mc
    design = np.column_stack([radii**2, radii, np.ones_like(radii)])
    coeffs, *_ = np.linalg.lstsq(design, mean_sq, rcond=None)
    return ContractionReport(
        radii=radii, ratios=mean_sq / radii**2, asymptote=float(coeffs[0])
    )
