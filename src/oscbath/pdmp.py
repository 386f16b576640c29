"""Piecewise-deterministic dynamics: exact free flow punctuated by jumps.

Between random collision times the state follows the exact Hamiltonian flow
(no integrator error); at a collision only the particle-1 momentum block
changes, via the collision model's jump map. Trajectories are
right-continuous: a sample taken exactly at a jump time sees the post-jump
state.

The stepping engine works in the eigenbasis of the stiffness matrix, where
the flow is a family of independent mode rotations; states are transformed
back to physical coordinates only when stored. A single event loop records
the post-jump states of a seeded run; the grid samples and the embedded
chain are both read off that one record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collisions import CollisionModel, OneDimElastic, TwoDimBall, model_dim
from .errors import NumericalAbort
from .network import OscillatorNetwork, PhaseState, _mode_flow, energy, propagate

#: numerical-rank threshold for the controllability probe
RANK_SV_THRESHOLD = 1e-6


@dataclass(frozen=True)
class EventSchedule:
    """Waiting-time law plus (optionally) an override collision-input law.

    ``tau_law`` must expose ``sample(rng, size=None)`` and a finite ``mean``
    (checked at construction). ``xi_law`` is any object with ``sample(rng)``
    returning a collision input matching the model; ``None`` means "use the
    model's own input law".
    """

    tau_law: object
    xi_law: object | None = None

    def __post_init__(self):
        mean = getattr(self.tau_law, "mean", None)
        if mean is None or not np.isfinite(mean) or mean <= 0:
            raise ValueError("waiting-time law must have a finite positive mean")


@dataclass(frozen=True, eq=False)
class EmbeddedChain:
    """States observed immediately after each collision.

    ``states`` has shape (n_steps + 1, 2*dof) with row 0 the initial state;
    ``jump_times`` are the partial sums of the waiting times.
    """

    states: np.ndarray
    jump_times: np.ndarray
    seed: int

    def __post_init__(self):
        if self.states.shape[0] != self.jump_times.shape[0] + 1:
            raise ValueError("need exactly one state per jump plus the start")
        if np.any(np.diff(self.jump_times) < 0):
            raise ValueError("jump times must be nondecreasing")

    def state(self, m: int) -> PhaseState:
        return PhaseState.from_vector(self.states[m])


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniform-grid samples of the continuous-time process.

    ``chain`` is the embedded chain of the same run when one was requested
    (see ``simulate_continuous``), else ``None``.
    """

    times: np.ndarray
    states: np.ndarray
    events: int
    seed: int
    chain: EmbeddedChain | None = None

    def __post_init__(self):
        if self.times.shape[0] != self.states.shape[0]:
            raise ValueError("one state row per sample time required")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly ascending")

    @property
    def dof(self) -> int:
        return self.states.shape[1] // 2

    def state(self, k: int) -> PhaseState:
        return PhaseState.from_vector(self.states[k])


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
        self.mass = net.mass
        self.contact_rows = self.modes[:d, :]  # particle-1 momentum rows
        self.model = model

    def eigen_coords(self, psi: PhaseState):
        return self.modes.T @ psi.q, self.modes.T @ psi.p

    def kick(self, ph, xi):
        p1 = self.contact_rows @ ph
        p1_new = self.model.jump(xi, p1, self.mass)
        return ph + self.contact_rows.T @ (p1_new - p1)


def _input_sampler(model: CollisionModel, sched: EventSchedule):
    if sched.xi_law is not None:
        return sched.xi_law.sample
    return model.sample_input


#: grid rows rotated per block when a pass is sampled on the time grid
GRID_BLOCK = 4096
#: most post-jump rows allocated before the first jump; the arrays grow by half
INITIAL_JUMP_ROWS = 1 << 16


@dataclass(frozen=True, eq=False)
class _EventPass:
    """Mode-space states right after each jump of one seeded run.

    Row k of ``modes`` holds the eigen-coordinates (qh, ph) just after jump k,
    which happened at ``times[k]``; row 0 is the start at time 0. ``events``
    counts the jumps in [0, t_end].
    """

    engine: _EigenEngine
    modes: np.ndarray
    times: np.ndarray
    events: int

    def chain(self, n_steps: int, seed: int) -> EmbeddedChain:
        """The first n_steps post-jump states in physical coordinates."""
        dof = self.modes.shape[1] // 2
        states = self.modes[: n_steps + 1].copy()
        states[:, :dof] = states[:, :dof] @ self.engine.modes.T
        states[:, dof:] = states[:, dof:] @ self.engine.modes.T
        return EmbeddedChain(
            states=states, jump_times=self.times[1 : n_steps + 1].copy(), seed=seed
        )

    def grid_states(self, grid: np.ndarray) -> np.ndarray:
        """Right-continuous states on the ascending grid, from jumps in [0, t_end].

        Each block of grid times finds its last jump at or before it with one
        ``searchsorted`` and rotates that jump's state forward. Every block
        has min(GRID_BLOCK, grid.size) rows (the last one overlaps its
        predecessor), so each row's transform back to physical coordinates
        is the same matrix product whatever the grid length.
        """
        engine = self.engine
        dof = self.modes.shape[1] // 2
        jump_times = self.times[: self.events + 1]
        states = np.empty((grid.size, 2 * dof))
        block = min(GRID_BLOCK, grid.size)
        for start in range(0, grid.size, block):
            rows = slice(min(start, grid.size - block), start + block)
            t = grid[rows]
            last = np.searchsorted(jump_times, t, side="right") - 1
            base = self.modes[last]
            qh_t, ph_t = _mode_flow(
                base[:, :dof], base[:, dof:], engine.omega, engine.mass,
                t - jump_times[last],
            )
            states[rows, :dof] = qh_t @ engine.modes.T
            states[rows, dof:] = ph_t @ engine.modes.T
        return states


def _event_pass(
    net: OscillatorNetwork,
    model: CollisionModel,
    sched: EventSchedule,
    psi0: PhaseState,
    t_end: float,
    n_steps: int,
    seed: int,
) -> _EventPass:
    """The event loop: jump until the first jump past t_end, and at least n_steps.

    Each event takes one waiting-time draw then one input draw from
    ``default_rng(seed)``; the draw past t_end that ends the run is not
    followed by an input draw. Aborts with the event index if the state
    overflows: "after event k at t=..." inside [0, t_end], "at step k"
    beyond it.
    """
    engine = _EigenEngine(net, model)
    draw_tau = sched.tau_law.sample
    draw_xi = _input_sampler(model, sched)
    rng = np.random.default_rng(seed)
    omega, mass, dof = engine.omega, engine.mass, net.dof
    qh, ph = engine.eigen_coords(psi0)
    expected = t_end / sched.tau_law.mean if t_end > 0 else 0.0
    # room for the expected events plus four standard deviations (Poisson)
    capacity = max(
        n_steps, min(int(expected + 4.0 * np.sqrt(expected)) + 16, INITIAL_JUMP_ROWS)
    ) + 1
    modes = np.empty((capacity, 2 * dof))
    times = np.empty(capacity)
    modes[0, :dof] = qh
    modes[0, dof:] = ph
    times[0] = 0.0
    t = 0.0
    k = 0
    while k < n_steps or t <= t_end:
        tau = float(draw_tau(rng))
        t_next = t + tau
        if t_next > t_end and k >= n_steps:
            break
        qh, ph = _mode_flow(qh, ph, omega, mass, tau)
        ph = engine.kick(ph, draw_xi(rng))
        k += 1
        if k == capacity:  # np.resize keeps the filled rows in front
            capacity += capacity // 2
            modes = np.resize(modes, (capacity, 2 * dof))
            times = np.resize(times, capacity)
        row = modes[k]
        row[:dof] = qh
        row[dof:] = ph
        if not np.isfinite(row).all():
            if t_next > t_end:
                raise NumericalAbort(f"non-finite state at step {k}")
            raise NumericalAbort(
                f"non-finite state after event {k} at t={t_next:.6g}"
            )
        t = t_next
        times[k] = t
    events = int(np.searchsorted(times[1 : k + 1], t_end, side="right"))
    return _EventPass(engine=engine, modes=modes[: k + 1], times=times[: k + 1], events=events)


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
    run = _event_pass(net, model, sched, psi0, -np.inf, n_steps, seed)
    return run.chain(n_steps, seed)


def simulate_continuous(
    net: OscillatorNetwork,
    model: CollisionModel,
    sched: EventSchedule,
    psi0: PhaseState,
    t_end: float,
    sample_dt: float,
    seed: int,
    n_steps: int = 0,
) -> Trajectory:
    """Sample the process on the grid k*sample_dt, k = 0..floor(t_end/dt).

    Grid states are computed by exact flow from the most recent post-jump
    state; a grid point coinciding with a jump time reports the post-jump
    state (right continuity). ``events`` counts collisions in [0, t_end].

    With ``n_steps`` >= 1 the same run also yields the embedded chain of its
    first n_steps collisions as ``chain``, continuing past t_end when fewer
    collisions fall inside it; the chain equals
    ``simulate_embedded(..., n_steps, seed)`` and the grid samples are the
    same as without it.
    """
    if not 0 < sample_dt <= t_end:
        raise ValueError("need 0 < sample_dt <= t_end")
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    run = _event_pass(net, model, sched, psi0, t_end, n_steps, seed)
    n_samples = int(np.floor(t_end / sample_dt + 1e-12)) + 1
    times = np.arange(n_samples) * sample_dt
    return Trajectory(
        times=times,
        states=run.grid_states(times),
        events=run.events,
        seed=seed,
        chain=run.chain(n_steps, seed) if n_steps else None,
    )


def time_average(traj: Trajectory, f, burn_in: float = 0.0) -> float:
    """Trapezoidal time average of an observable after a burn-in.

    ``f`` maps a PhaseState to a float. The window is all samples with
    t >= burn_in; it must contain at least two samples.
    """
    mask = traj.times >= burn_in
    if int(mask.sum()) < 2:
        raise ValueError("averaging window is empty (burn_in too late)")
    t = traj.times[mask]
    rows = traj.states[mask]
    vals = np.array([f(PhaseState.from_vector(row)) for row in rows])
    return float(np.trapezoid(vals, t) / (t[-1] - t[0]))


def empirical_covariance(traj: Trajectory, burn_in: float = 0.0):
    """Sample mean and covariance of the phase vector after burn-in.

    Returns (mean, cov, n) where cov uses the 1/n normalization; the
    accumulated sums merge associatively across trajectories.
    """
    mask = traj.times >= burn_in
    n = int(mask.sum())
    if n < 2:
        raise ValueError("averaging window is empty (burn_in too late)")
    x = traj.states[mask]
    mean = x.mean(axis=0)
    cov = (x.T @ x) / n - np.outer(mean, mean)
    return mean, cov, n


@dataclass(frozen=True)
class DriftEstimate:
    """Monte Carlo estimate of the one-step mean energy change."""

    energy_before: float
    mean_change: float
    std_error: float

    @property
    def relative_change(self) -> float:
        return self.mean_change / self.energy_before


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
    engine = _EigenEngine(net, model)
    draw_xi = _input_sampler(model, sched)
    rng = np.random.default_rng(seed)
    h0 = energy(net, psi)
    qh, ph = engine.eigen_coords(psi)
    taus = np.asarray(sched.tau_law.sample(rng, size=n_mc), dtype=float)
    qh_t, ph_t = _mode_flow(qh, ph, engine.omega, engine.mass, taus)
    # potential term is basis-independent: q^T V q = sum lambda_k qh_k^2
    lam = net.spectrum.eigenvalues
    h_after = np.empty(n_mc)
    for k in range(n_mc):
        ph_k = engine.kick(ph_t[k], draw_xi(rng))
        h_after[k] = 0.5 * float(lam @ (qh_t[k] ** 2)) + float(
            ph_k @ ph_k
        ) / (2.0 * net.mass)
    change = h_after - h0
    return DriftEstimate(
        energy_before=h0,
        mean_change=float(change.mean()),
        std_error=float(change.std(ddof=1) / np.sqrt(n_mc)),
    )


def _composed_reachability_map(net, model, psi0, m, point):
    """(t_1, u_1, ..., t_m, u_m) -> state after m flow-and-jump legs."""
    l = model.xi_dim
    coords = np.asarray(point, dtype=float).ravel()
    if coords.size != m * (1 + l):
        raise ValueError(
            f"point must have m*(1+l) = {m * (1 + l)} coordinates, got {coords.size}"
        )
    state = psi0
    d = model_dim(model)
    for k in range(m):
        t_k = coords[k * (1 + l)]
        u_k = coords[k * (1 + l) + 1 : (k + 1) * (1 + l)]
        state = propagate(net, state, t_k)
        p = state.p.copy()
        p[:d] = model.jump(u_k, p[:d], net.mass)
        state = PhaseState(q=state.q, p=p)
    return state.vector


def jacobian_rank_probe(
    net: OscillatorNetwork,
    model: CollisionModel,
    psi0: PhaseState,
    m: int,
    point,
    h: float = 1e-5,
    central: bool = False,
) -> int:
    """Numerical rank of the m-leg reachability map at the given point.

    The map composes m segments of (free flow for t_k, jump with input u_k)
    and is differentiated by finite differences with per-coordinate step
    h*(1 + |x_i|) (one-sided by default). Rank counts singular values above
    1e-6 times the largest. m = 0 is the constant map with rank 0; the rank
    never exceeds min(m*(1+l), 2dN) by construction.
    """
    if not isinstance(model, (OneDimElastic, TwoDimBall)):
        raise ValueError("rank probe supports the finite-input elastic models only")
    if m < 0:
        raise ValueError("m must be nonnegative")
    if not h > 0:
        raise ValueError("step h must be positive")
    if m == 0:
        return 0
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
    sv = np.linalg.svd(jac, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > RANK_SV_THRESHOLD * sv[0]))


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write `t,q_1..q_dN,p_1..p_dN` rows at full double precision."""
    dof = traj.dof
    header = ",".join(
        ["t"]
        + [f"q_{i + 1}" for i in range(dof)]
        + [f"p_{i + 1}" for i in range(dof)]
    )
    data = np.column_stack([traj.times, traj.states])
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=header, comments="")
