"""Test-only reference: the event loops as they were before the single pass.

``simulate_embedded`` and ``simulate_continuous`` below are the two separate
loops (and the stepping engine they shared) that ``oscbath.pdmp`` used to
run, kept verbatim so tests can assert that the single event pass reproduces
them bit for bit. Nothing in the package imports this module.
"""

from __future__ import annotations

import numpy as np

from oscbath.collisions import CollisionModel, model_dim
from oscbath.errors import NumericalAbort
from oscbath.network import OscillatorNetwork, PhaseState
from oscbath.pdmp import EmbeddedChain, EventSchedule, Trajectory


class _EigenEngine:
    """Mode-space stepping: rotation per mode, rank-d update per jump."""

    def __init__(self, net: OscillatorNetwork, model: CollisionModel):
        d = model_dim(model)
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


def _input_sampler(model: CollisionModel, sched: EventSchedule):
    if sched.xi_law is not None:
        return sched.xi_law.sample
    return model.sample_input


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
    draw_xi = _input_sampler(model, sched)
    rng = np.random.default_rng(seed)
    qh, ph = engine.eigen_coords(psi0)
    dof = net.dof
    states = np.empty((n_steps + 1, 2 * dof))
    jump_times = np.empty(n_steps)
    states[0, :dof] = qh
    states[0, dof:] = ph
    t = 0.0
    for m in range(1, n_steps + 1):
        tau = float(sched.tau_law.sample(rng))
        qh, ph = engine.flow(qh, ph, tau)
        ph = engine.kick(ph, draw_xi(rng))
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
    draw_xi = _input_sampler(model, sched)
    rng = np.random.default_rng(seed)
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
        tau = float(sched.tau_law.sample(rng))
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
        ph = engine.kick(ph, draw_xi(rng))
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
