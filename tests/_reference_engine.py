"""Test-only reference: former engine code, kept verbatim but for its draws.

``simulate_embedded`` and ``simulate_continuous`` below are the two separate
loops (and the stepping engine they shared) that ``oscbath.pdmp`` used to
run, so tests can assert that the single event pass reproduces them bit for
bit. They draw under random protocol 2 one value per event, with scalar
``sample(rng)`` calls (``_draws``), where the engine draws blocks. ``jump``
holds the three one-row jump maps from before the maps took stacks, and
``drift_estimate`` / ``verify_contraction`` the Monte Carlo loops that
kicked one draw per call, with those one-row maps and the mode-space energy
they used; they kick the rows of the package's own input block
(``laws.sample_columns`` over the laws of ``_input_laws``).
``_composed_reachability_map`` and ``finite_difference_jacobian`` are the
former rank probe's second copy of the dynamics (flow through
``propagate``, kick on ``PhaseState`` rows) and its finite-difference loop. Nothing in the package imports this module.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from oscbath.collisions import (
    CollisionModel,
    ContractionReport,
    ContractiveAffine,
    OneDimElastic,
    TwoDimBall,
    impact_matrix,
)
from oscbath.errors import NumericalAbort
from oscbath.laws import sample_columns
from oscbath.network import OscillatorNetwork, PhaseState, _mode_flow, propagate
from oscbath.pdmp import DriftEstimate, EmbeddedChain, EventSchedule, Trajectory


# --- the one-row jump maps ---------------------------------------------------


def _one_dim_elastic_jump(self, xi: np.ndarray, p1: np.ndarray, mass: float) -> np.ndarray:
    p1 = np.atleast_1d(np.asarray(p1, dtype=float))
    u = np.atleast_1d(np.asarray(xi, dtype=float))
    if p1.shape != (1,) or u.shape != (1,):
        raise ValueError("OneDimElastic expects scalar momentum and input")
    a = self.alpha(mass)
    return a * p1 + (1.0 - a) * mass * u


def _contractive_affine_jump(self, xi: np.ndarray, p1: np.ndarray, mass: float) -> np.ndarray:
    p1 = np.atleast_1d(np.asarray(p1, dtype=float))
    w = np.atleast_1d(np.asarray(xi, dtype=float))
    d = self.reflection.shape[0]
    if p1.shape != (d,) or w.shape != (d,):
        raise ValueError(
            f"expected momentum and input of length {d}, "
            f"got {p1.shape} / {w.shape}"
        )
    return self.reflection @ p1 + mass * w


def _two_dim_ball_jump(self, xi: np.ndarray, p1: np.ndarray, mass: float) -> np.ndarray:
    p1 = np.atleast_1d(np.asarray(p1, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if p1.shape != (2,) or xi.shape != (3,):
        raise ValueError("TwoDimBall expects a 2-vector momentum and (phi, v) input")
    phi, v = float(xi[0]), xi[1:]
    a = self.alpha(mass)
    c, s = math.cos(phi), math.sin(phi)
    r = np.array([c, s])
    c_alpha = (1.0 - a) * (v[0] * c + v[1] * s)
    return impact_matrix(a, phi) @ p1 + mass * c_alpha * r


_JUMPS = {
    OneDimElastic: _one_dim_elastic_jump,
    ContractiveAffine: _contractive_affine_jump,
    TwoDimBall: _two_dim_ball_jump,
}


def jump(model: CollisionModel, xi, p1, mass: float) -> np.ndarray:
    """The former one-row ``model.jump(xi, p1, mass)``."""
    return _JUMPS[type(model)](model, xi, p1, mass)


class _EigenEngine:
    """Mode-space stepping: rotation per mode, rank-d update per jump."""

    def __init__(self, net: OscillatorNetwork, model: CollisionModel):
        d = model.dim
        if d != net.dim:
            raise ValueError(
                f"model acts in dimension {d} but the network has d={net.dim}"
            )
        self.modes = net.spectrum.eigenvectors
        self.omega = net.mode_frequencies
        self.momega = net.mass * self.omega
        self.mass = net.mass
        self.contact_rows = self.modes[:d, :]  # particle-1 momentum rows
        self.model = model

    def eigen_coords(self, psi: PhaseState):
        return self.modes.T @ psi.q, self.modes.T @ psi.p

    def flow(self, qh, ph, t: float):
        wt = self.omega * t
        c = np.cos(wt)
        s = np.sin(wt)
        return c * qh + s * (ph / self.momega), c * ph - s * (self.momega * qh)

    def flow_batch(self, qh, ph, dts):
        wt = np.multiply.outer(dts, self.omega)
        c = np.cos(wt)
        s = np.sin(wt)
        return c * qh + s * (ph / self.momega), c * ph - s * (self.momega * qh)

    def kick(self, ph, xi):
        p1 = self.contact_rows @ ph
        p1_new = self.model.jump(xi, p1, self.mass)
        return ph + self.contact_rows.T @ (p1_new - p1)


def _input_laws(model: CollisionModel, xi_law=None) -> tuple:
    """The laws of an input's entries: the schedule's override, or the model's laws."""
    if xi_law is not None:
        return (xi_law,)
    if isinstance(model, TwoDimBall):
        return (model.angle_law, model.velocity_law)
    if isinstance(model, ContractiveAffine):
        return (model.noise_law,)
    return (model.velocity_law,)


def _draws(model: CollisionModel, sched: EventSchedule, seed: int):
    """(draw_tau, draw_xi): one wait, one input per call, under random protocol 2.

    ``SeedSequence(seed)`` spawns the waits' stream, then one stream per law
    of the input's entries (``_input_laws``).
    """
    laws = _input_laws(model, sched.xi_law)
    tau_rng, *xi_rngs = [np.random.default_rng(child)
                         for child in np.random.SeedSequence(seed).spawn(1 + len(laws))]

    def draw_tau():
        return float(sched.tau_law.sample(tau_rng))

    def draw_xi():
        return np.concatenate([np.atleast_1d(law.sample(rng)) for law, rng in zip(laws, xi_rngs)])

    return draw_tau, draw_xi


def simulate_embedded(
    net: OscillatorNetwork,
    model: CollisionModel,
    sched: EventSchedule,
    psi0: PhaseState,
    n_steps: int,
    seed: int,
) -> EmbeddedChain:
    """Run the post-collision chain psi_m = J(xi_m; e^{tau_m A} psi_{m-1}).

    Reproducible per seed: one waiting-time draw then one input draw per
    step. Aborts with the step index if the state overflows.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    engine = _EigenEngine(net, model)
    draw_tau, draw_xi = _draws(model, sched, seed)
    qh, ph = engine.eigen_coords(psi0)
    dof = net.dof
    states = np.empty((n_steps + 1, 2 * dof))
    jump_times = np.empty(n_steps)
    states[0, :dof] = qh
    states[0, dof:] = ph
    t = 0.0
    for m in range(1, n_steps + 1):
        tau = draw_tau()
        qh, ph = engine.flow(qh, ph, tau)
        ph = engine.kick(ph, draw_xi())
        if not np.all(np.isfinite(ph)) or not np.all(np.isfinite(qh)):
            raise NumericalAbort(f"non-finite state at step {m}")
        t += tau
        jump_times[m - 1] = t
        states[m, :dof] = qh
        states[m, dof:] = ph
    # one transform back to physical coordinates for the whole chain
    states[:, :dof] = states[:, :dof] @ engine.modes.T
    states[:, dof:] = states[:, dof:] @ engine.modes.T
    return EmbeddedChain(states=states, jump_times=jump_times, seed=seed)


def simulate_continuous(
    net: OscillatorNetwork,
    model: CollisionModel,
    sched: EventSchedule,
    psi0: PhaseState,
    t_end: float,
    sample_dt: float,
    seed: int,
) -> Trajectory:
    """Sample the process on the grid k*sample_dt, k = 0..floor(t_end/dt).

    Grid states are computed by exact flow from the most recent post-jump
    state; a grid point coinciding with a jump time reports the post-jump
    state (right continuity). ``events`` counts collisions in [0, t_end].
    """
    if not 0 < sample_dt <= t_end:
        raise ValueError("need 0 < sample_dt <= t_end")
    engine = _EigenEngine(net, model)
    draw_tau, draw_xi = _draws(model, sched, seed)
    qh, ph = engine.eigen_coords(psi0)
    dof = net.dof
    n_samples = int(np.floor(t_end / sample_dt + 1e-12)) + 1
    times = np.arange(n_samples) * sample_dt
    qh_s = np.empty((n_samples, dof))
    ph_s = np.empty((n_samples, dof))
    t_cur = 0.0
    idx = 0
    events = 0
    while True:
        tau = draw_tau()
        t_next = t_cur + tau
        hi = int(np.searchsorted(times, t_next, side="left"))
        if hi > idx:
            qh_s[idx:hi], ph_s[idx:hi] = engine.flow_batch(
                qh, ph, times[idx:hi] - t_cur
            )
            idx = hi
        if t_next > t_end:
            break
        qh, ph = engine.flow(qh, ph, tau)
        ph = engine.kick(ph, draw_xi())
        events += 1
        if not np.all(np.isfinite(ph)) or not np.all(np.isfinite(qh)):
            raise NumericalAbort(
                f"non-finite state after event {events} at t={t_next:.6g}"
            )
        t_cur = t_next
    if idx < n_samples:  # grid points rounding a hair past t_end
        qh_s[idx:], ph_s[idx:] = engine.flow_batch(qh, ph, times[idx:] - t_cur)
    states = np.empty((n_samples, 2 * dof))
    states[:, :dof] = qh_s @ engine.modes.T
    states[:, dof:] = ph_s @ engine.modes.T
    return Trajectory(times=times, states=states, events=events, seed=seed)


# --- the per-draw Monte Carlo loops -------------------------------------------


class _OneRowEngine(_EigenEngine):
    """The engine above, kicking with the former one-row jump maps."""

    def kick(self, ph, xi):
        p1 = self.contact_rows @ ph
        p1_new = jump(self.model, xi, p1, self.mass)
        return ph + self.contact_rows.T @ (p1_new - p1)


def energy(net: OscillatorNetwork, psi: PhaseState) -> float:
    """Hamiltonian H = sum |p_k|^2/(2M) + (1/2) q^T V q (nonnegative)."""
    if psi.q.shape[0] != net.dof:
        raise ValueError(
            f"state dimension {psi.q.shape[0]} does not match network dof {net.dof}"
        )
    kinetic = float(psi.p @ psi.p) / (2.0 * net.mass)
    potential = 0.5 * float(psi.q @ (net.stiffness @ psi.q))
    return kinetic + potential


def drift_estimate(
    net: OscillatorNetwork,
    model: CollisionModel,
    sched: EventSchedule,
    psi: PhaseState,
    n_mc: int = 10_000,
    seed: int = 0,
) -> DriftEstimate:
    """Estimate E{H(psi_1) | psi_0 = psi} - H(psi) over n_mc (tau, xi) draws.

    Energies after the jump are evaluated from scratch (not through the
    energy-bookkeeping identity), so this is an independent check of the
    one-step energy drift.
    """
    engine = _OneRowEngine(net, model)
    rng = np.random.default_rng(seed)
    h0 = energy(net, psi)
    qh, ph = engine.eigen_coords(psi)
    taus = np.asarray(sched.tau_law.sample(rng, size=n_mc), dtype=float)
    xi = sample_columns(_input_laws(model, sched.xi_law), itertools.repeat(rng), n_mc)
    qh_t, ph_t = _mode_flow(qh, ph, engine.omega, engine.mass, taus)
    # potential term is basis-independent: q^T V q = sum lambda_k qh_k^2
    lam = net.spectrum.eigenvalues
    h_after = np.empty(n_mc)
    for k in range(n_mc):
        ph_k = engine.kick(ph_t[k], xi[k])
        h_after[k] = 0.5 * float(lam @ (qh_t[k] ** 2)) + float(
            ph_k @ ph_k
        ) / (2.0 * net.mass)
    change = h_after - h0
    return DriftEstimate(
        energy_before=h0,
        mean_change=float(change.mean()),
        std_error=float(change.std(ddof=1) / np.sqrt(n_mc)),
    )


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
        xi = sample_columns(_input_laws(model), itertools.repeat(rng), n_mc)
        total = 0.0
        for k in range(n_mc):
            j = jump(model, xi[k], r * dirs[k], mass)
            total += float(j @ j)
        mean_sq[i] = total / n_mc
    design = np.column_stack([radii**2, radii, np.ones_like(radii)])
    coeffs, *_ = np.linalg.lstsq(design, mean_sq, rcond=None)
    return ContractionReport(
        radii=radii, ratios=mean_sq / radii**2, asymptote=float(coeffs[0])
    )


# --- the finite-difference reachability Jacobian ------------------------------------


def _composed_reachability_map(net, model, psi0, m, point):
    """(t_1, u_1, ..., t_m, u_m) -> state after m flow-and-jump legs."""
    l = model.xi_dim
    coords = np.asarray(point, dtype=float).ravel()
    if coords.size != m * (1 + l):
        raise ValueError(
            f"point must have m*(1+l) = {m * (1 + l)} coordinates, got {coords.size}"
        )
    state = psi0
    d = model.dim
    for k in range(m):
        t_k = coords[k * (1 + l)]
        u_k = coords[k * (1 + l) + 1 : (k + 1) * (1 + l)]
        state = propagate(net, state, t_k)
        p = state.p.copy()
        p[:d] = model.jump(u_k, p[:d], net.mass)
        state = PhaseState(q=state.q, p=p)
    return state.vector


def finite_difference_jacobian(net, model, psi0, m, point, h=1e-5, central=False):
    """Jacobian of the m-leg map by differences with step h*(1 + |x_i|)."""
    coords = np.asarray(point, dtype=float).ravel()
    base = _composed_reachability_map(net, model, psi0, m, coords)
    n_in = coords.size
    jac = np.empty((base.size, n_in))
    for i in range(n_in):
        step = h * (1.0 + abs(coords[i]))
        bumped = coords.copy()
        bumped[i] += step
        forward = _composed_reachability_map(net, model, psi0, m, bumped)
        if central:
            bumped[i] = coords[i] - step
            backward = _composed_reachability_map(net, model, psi0, m, bumped)
            jac[:, i] = (forward - backward) / (2.0 * step)
        else:
            jac[:, i] = (forward - base) / step
    return jac
