"""Jump maps for the collision of particle 1 with an external particle.

Three concrete models are provided:

* ``OneDimElastic`` -- d = 1 energy/momentum conserving collision with an
  external particle of mass m <= M: p' = alpha p + (1 - alpha) M u.
* ``ContractiveAffine`` -- d >= 1 abstract model v' = R v + w with a strict
  contraction R and additive noise w.
* ``TwoDimBall`` -- d = 2 non-central elastic ball collision parametrized by
  the impact angle phi: p' = G_alpha(phi) p + M c_alpha(phi, v) R(phi).

Every ``jump(xi, p1, mass)`` maps stacks, xi (..., xi_dim) and p1 (..., dim),
to one kicked momentum per row, so a Monte Carlo sweep makes one call. It is
two steps: ``jump_terms(xi, mass)``, the terms that depend on the input alone
((1 - alpha) M u; M w; R(phi) and M v), and ``jump_apply(terms, p1, mass)``,
which combines them with the momentum, without checks. The event loop
computes the terms of many steps in one call and applies them one step at a
time, with the same operations as ``jump``. The
two elastic models also give ``jump_jacobian(xi, p1, mass)``, the exact
derivatives (D_p, D_xi) of the jump per row, for the reachability probe.

Each model lists the sampling laws of its random input xi in the order of
its entries (``input_laws``), which ``laws.sample_columns`` draws: the one
law a model holds (``velocity_law`` or ``noise_law``), or for ``TwoDimBall``
the one angle law, ``UniformAngle``, and then its ``velocity_law``. The
analyticity and sphere-covering hypotheses on the jump map are existence
assumptions used in proofs only; they are documented here and not testable
numerically.

The two elastic models take alpha = (M - m)/(M + m) from the external mass m,
which must lie in (0, M]. An m so light against M that alpha rounds to 1 is
refused too: such a kick moves nothing, and the moment analysis needs
alpha < 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .laws import IsotropicGaussianVector, GaussianVelocity, UniformAngle

#: margin keeping ||R|| strictly below 1 at construction
CONTRACTION_MARGIN = 1e-9


def _alpha_from_masses(heavy: float, light: float) -> float:
    """(M - m)/(M + m) for 0 < m <= M; alpha in [0, 1), refused where it rounds to 1."""
    if not light > 0:
        raise ValueError("external mass must be positive")
    if light > heavy:
        raise ValueError(
            f"external mass {light} must not exceed internal mass {heavy}"
        )
    alpha = (heavy - light) / (heavy + light)
    if alpha == 1.0:
        raise ValueError(f"external mass {light!r} is so light against internal mass {heavy!r} "
                         "that alpha = (M - m)/(M + m) rounds to 1: a kick would move nothing")
    return alpha


def _floats(x, width: int, what: str, model):
    """x as a float array (..., width)."""
    x = np.array(x, dtype=float, copy=None, ndmin=1)
    if x.shape[-1] != width:
        raise ValueError(f"{type(model).__name__} expects {what} (..., {width}), got {x.shape}")
    return x


def _jump(model, xi, p1, mass):
    """``model.jump``: its ``jump_apply`` on its ``jump_terms`` of xi; leading axes broadcast."""
    terms = model.jump_terms(xi, mass)
    return model.jump_apply(terms, _floats(p1, model.dim, "momenta", model), mass)


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

    jump = _jump

    def jump_terms(self, xi, mass: float) -> np.ndarray:
        """(1 - alpha) M u per input row."""
        return (1.0 - self.alpha(mass)) * mass * _floats(xi, self.xi_dim, "inputs", self)

    def jump_apply(self, terms: np.ndarray, p1: np.ndarray, mass: float) -> np.ndarray:
        """alpha p + (1 - alpha) M u."""
        return self.alpha(mass) * p1 + terms

    def jump_jacobian(self, xi, p1, mass):
        """(D_p, D_xi) of the jump, each (..., 1, 1): alpha and (1 - alpha) M."""
        u, p1 = _floats(xi, self.xi_dim, "inputs", self), _floats(p1, self.dim, "momenta", self)
        a = self.alpha(mass)
        rows = np.broadcast_shapes(u.shape[:-1], p1.shape[:-1]) + (1, 1)
        return np.full(rows, a), np.full(rows, (1.0 - a) * mass)

    @property
    def input_laws(self) -> tuple:
        return (self.velocity_law,)


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

    jump = _jump

    def jump_terms(self, xi, mass: float) -> np.ndarray:
        """M w per input row."""
        return mass * _floats(xi, self.xi_dim, "inputs", self)

    def jump_apply(self, terms: np.ndarray, p1: np.ndarray, mass: float) -> np.ndarray:
        """R p + M w, one matrix-vector product per row, so a stack equals its rows bit for bit."""
        return (self.reflection @ p1[..., None])[..., 0] + terms

    @property
    def input_laws(self) -> tuple:
        return (self.noise_law,)


@dataclass(frozen=True)
class TwoDimBall:
    """Non-central elastic collision of 2-D balls, d = 2 only.

    The impact angle is uniform on [0, 2 pi) and independent of the state
    (the geometric impact-parameter problem is out of scope); the external
    velocity has a density on R^2 with finite second moment.
    """

    external_mass: float
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

    jump = _jump

    def jump_terms(self, xi, mass: float) -> np.ndarray:
        """(cos phi, sin phi, M v_x, M v_y) per input row: r = R(phi), then M v."""
        xi = _floats(xi, self.xi_dim, "inputs", self)
        phi = xi[..., :1]
        return np.concatenate([np.cos(phi), np.sin(phi), mass * xi[..., 1:]], axis=-1)

    def jump_apply(self, terms: np.ndarray, p1: np.ndarray, mass: float) -> np.ndarray:
        """p' = p + (1 - alpha) (r.(M v - p)) r: the normal component alone moves."""
        r = terms[..., :2]
        normal = np.vecdot(terms[..., 2:] - p1, r)[..., None]
        return p1 + (1.0 - self.alpha(mass)) * normal * r

    def jump_jacobian(self, xi, p1, mass):
        """(D_p, D_xi) of the jump, (..., 2, 2) and (..., 2, 3).

        With w = M v - p and r' = dr/dphi = (-sin phi, cos phi):
        D_p = I - (1 - alpha) r r^T, and D_xi has the column
        (1 - alpha) ((r'.w) r + (r.w) r') for phi and (1 - alpha) M r r^T for v.
        """
        terms = self.jump_terms(xi, mass)
        r = terms[..., :2]
        dr = np.concatenate([-r[..., 1:], r[..., :1]], axis=-1)
        w = terms[..., 2:] - _floats(p1, self.dim, "momenta", self)
        b = 1.0 - self.alpha(mass)
        rr = r[..., :, None] * r[..., None, :]
        d_phi = b * (np.vecdot(dr, w)[..., None] * r + np.vecdot(r, w)[..., None] * dr)
        return np.eye(2) - b * rr, np.concatenate([d_phi[..., None], b * mass * rr], axis=-1)

    @property
    def input_laws(self) -> tuple:
        return (UniformAngle(), self.velocity_law)


CollisionModel = Union[OneDimElastic, ContractiveAffine, TwoDimBall]
