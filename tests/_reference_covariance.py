"""The former RK4 moment integrators, kept verbatim as a test reference.

``oscbath.covariance`` now propagates the covariance and mean equations
exactly with one matrix exponential. These are the classical RK4 loops it
replaced (step heuristic ``default_dt`` included); the tests compare the
exact samples against them at a small step.
"""

import numpy as np

from oscbath.covariance import (
    PSD_GUARD_TOL,
    CovarianceTrajectory,
    MeanTrajectory,
    MomentParams,
    _rhs,
    damped_generator,
)
from oscbath.errors import NumericalAbort
from oscbath.network import OscillatorNetwork, PhaseState, generator_matrix


def default_dt(net: OscillatorNetwork, params: MomentParams) -> float:
    """Step heuristic min(1e-2, 0.1/(lam + omega_max)) for the moment ODEs."""
    omega_max = float(net.mode_frequencies[-1])
    return min(1e-2, 0.1 / (params.lam + omega_max))


def integrate_covariance(
    c0: np.ndarray,
    net: OscillatorNetwork,
    params: MomentParams,
    t_end: float,
    dt: float | None = None,
    include_source: bool = True,
    sample_every: int | None = None,
) -> CovarianceTrajectory:
    """Classical RK4 on the matrix ODE, re-symmetrized every step.

    The iterate is required to stay PSD up to roundoff; a violation beyond
    the guard tolerance aborts with the offending time stamp. Samples are
    kept every ``sample_every`` steps (auto-chosen to ~1000 samples when
    None) plus the final state.
    """
    dof = net.dof
    c = 0.5 * (np.asarray(c0, dtype=float) + np.asarray(c0, dtype=float).T)
    if c.shape != (2 * dof, 2 * dof):
        raise ValueError(f"covariance must be ({2 * dof}, {2 * dof}), got {c.shape}")
    if dt is None:
        dt = default_dt(net, params)
    if not dt > 0:
        raise ValueError("dt must be positive")
    n_steps = max(1, int(np.ceil(t_end / dt - 1e-12)))
    dt = t_end / n_steps
    if sample_every is None:
        sample_every = max(1, n_steps // 1000)
    a_mat = generator_matrix(net)
    times = [0.0]
    samples = [c.copy()]
    scale_floor = params.lam * (1.0 - params.alpha) ** 2 * params.mass**2 * params.sigma2
    for step in range(1, n_steps + 1):
        k1 = _rhs(c, a_mat, dof, params, include_source)
        k2 = _rhs(c + 0.5 * dt * k1, a_mat, dof, params, include_source)
        k3 = _rhs(c + 0.5 * dt * k2, a_mat, dof, params, include_source)
        k4 = _rhs(c + dt * k3, a_mat, dof, params, include_source)
        c = c + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        c = 0.5 * (c + c.T)
        t = step * dt
        scale = max(float(np.abs(c).max()), scale_floor, 1e-300)
        min_eig = float(np.linalg.eigvalsh(c)[0])
        if min_eig < -PSD_GUARD_TOL * scale:
            raise NumericalAbort(
                f"covariance lost positive semidefiniteness at t={t:.6g} "
                f"(min eigenvalue {min_eig:.3e})"
            )
        if step % sample_every == 0 or step == n_steps:
            times.append(t)
            samples.append(c.copy())
    return CovarianceTrajectory(times=np.array(times), matrices=np.array(samples))


def mean_dynamics(
    net: OscillatorNetwork,
    params: MomentParams,
    psi0: PhaseState,
    t_end: float,
    dt: float | None = None,
    sample_every: int = 1,
) -> MeanTrajectory:
    """RK4 integration of the damped linear mean equations.

    With lam = 0 this reproduces the exact flow up to RK4 error; with a
    complete stiffness matrix and lam*(1-alpha) > 0 the mean decays to zero.
    """
    if psi0.q.shape[0] != net.dof:
        raise ValueError("initial state does not match the network")
    if dt is None:
        dt = default_dt(net, params)
    if not dt > 0:
        raise ValueError("dt must be positive")
    a_d = damped_generator(net, params)
    n_steps = max(1, int(np.ceil(t_end / dt - 1e-12)))
    dt = t_end / n_steps
    x = psi0.vector
    times = [0.0]
    states = [x.copy()]
    for step in range(1, n_steps + 1):
        k1 = a_d @ x
        k2 = a_d @ (x + 0.5 * dt * k1)
        k3 = a_d @ (x + 0.5 * dt * k2)
        k4 = a_d @ (x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % sample_every == 0 or step == n_steps:
            times.append(step * dt)
            states.append(x.copy())
    return MeanTrajectory(times=np.array(times), states=np.array(states))
