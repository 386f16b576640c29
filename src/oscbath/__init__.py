"""Collisional thermostat dynamics for linear oscillator networks.

A simulator and numerical-analysis toolkit for networks of coupled harmonic
oscillators in which a single particle exchanges momentum with an external
medium at random times. The package provides the exact free flow, the
collision jump maps, the piecewise-deterministic simulator, the closed
moment ODEs with their Gibbs fixed point, stationarity diagnostics, and the
Krylov-subspace completeness analysis that controls whether the damping
reaches the whole phase space.
"""

from .collisions import (
    ContractiveAffine,
    OneDimElastic,
    TwoDimBall,
)
from .covariance import (
    MomentParams,
    beta_from_params,
    covariance_rhs,
    gibbs_covariance,
    integrate_covariance,
    lyapunov_functional,
    mean_dynamics,
)
from .dissipative import DissipativeReport, analyze, l0_invariance_check
from .errors import ConfigError, NumericalAbort
from .laws import (
    Exponential,
    GammaLaw,
    GaussianVelocity,
    IsotropicGaussianVector,
    TwoPointVelocity,
    UniformAngle,
    UniformPositive,
    UniformSymmetricVelocity,
)
from .network import (
    OscillatorNetwork,
    PhaseState,
    chain_stiffness,
    energy,
    generator_matrix,
)
from .pdmp import (
    EmbeddedChain,
    Moments,
    Trajectory,
    drift_estimate,
    jacobian_rank_probe,
    reachability_jacobian,
    simulate_continuous,
    simulate_embedded,
)
from .spectral import (
    check_rational_independence,
    decompose,
    krylov_basis,
    random_pd_matrix,
)
from .stationarity import one_step_moment_shift, stationarity_residual

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ContractiveAffine",
    "DissipativeReport",
    "EmbeddedChain",
    "Exponential",
    "GammaLaw",
    "GaussianVelocity",
    "IsotropicGaussianVector",
    "MomentParams",
    "Moments",
    "NumericalAbort",
    "OneDimElastic",
    "OscillatorNetwork",
    "PhaseState",
    "Trajectory",
    "TwoDimBall",
    "TwoPointVelocity",
    "UniformAngle",
    "UniformPositive",
    "UniformSymmetricVelocity",
    "analyze",
    "beta_from_params",
    "chain_stiffness",
    "check_rational_independence",
    "covariance_rhs",
    "decompose",
    "drift_estimate",
    "energy",
    "generator_matrix",
    "gibbs_covariance",
    "integrate_covariance",
    "jacobian_rank_probe",
    "krylov_basis",
    "l0_invariance_check",
    "lyapunov_functional",
    "mean_dynamics",
    "one_step_moment_shift",
    "random_pd_matrix",
    "reachability_jacobian",
    "simulate_continuous",
    "simulate_embedded",
    "stationarity_residual",
]
