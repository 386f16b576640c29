"""Piecewise-deterministic dynamics: exact free flow punctuated by jumps.

Between random collision times the state follows the exact Hamiltonian flow
(no integrator error); at a collision only the particle-1 momentum block
changes, via the collision model's jump map. Trajectories are
right-continuous: a sample taken exactly at a jump time sees the post-jump
state.

The stepping engine works in the eigenbasis of the stiffness matrix, where
the flow is a family of independent mode rotations; states are transformed
back to physical coordinates (``OscillatorNetwork.from_modes``) only when
stored. One event loop steps all seeds of a run together and records their
post-jump states; each seed's grid samples, block by block, and its embedded
chain are read off that one record. The loop computes the rotation angles'
cosines and sines and the collision model's input-only jump terms for a
block of steps at once, so each step does only the work that needs the
state. ``Moments`` sums the grid samples for their time-averaged moments:
in mode coordinates, from burn-in on, with the sums mapped to physical
coordinates once per seed. Only the rows written out are transformed back.

Random protocol (``RNG_PROTOCOL``): each seed's ``SeedSequence(seed)``
spawns one stream for the waiting times and one per input law, and each
stream is drawn in blocks through the laws' ``sample(rng, size)``, whose
values do not depend on how a stream is split into blocks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .collisions import CollisionModel, OneDimElastic, TwoDimBall
from .csvfmt import write_csv_rows
from .errors import NumericalAbort
from .laws import sample_columns
from .network import (
    OscillatorNetwork,
    PhaseState,
    _mode_flow,
    _rotate,
    _rotation,
    energies,
    energy,
)

#: largest dof at which rank-probe's default legs certify full rank: the exact
#: Jacobian's sigma_min / sigma_max clears the roundoff threshold by >= 20x on
#: chains of 12 (100 seeds), by 1.3x at 13, and misses on 11 of 100 at 14
RANK_MAX_DOF = 12
#: most legs rank-probe takes: the rank is at most 2 dof <= 24, which the default <= 15
#: legs reach. 1000 legs of the dof-12 ball's 1 + 3 coordinates make a point of 4,000
#: and a (24, 4000) Jacobian; each leg rotates every tangent row (0.77 s; 3.0 s at 2000)
RANK_MAX_LEGS = 1000
#: version of the random protocol of ``event_passes``, recorded in ``simulate``'s summary
RNG_PROTOCOL = 2


@dataclass(frozen=True)
class EventSchedule:
    """Waiting-time law plus (optionally) an override collision-input law.

    ``tau_law`` must expose ``sample(rng, size=None)`` (see
    :mod:`oscbath.laws`) and a finite ``mean`` (checked at construction).
    ``xi_law`` is any object with ``sample(rng, size=None)`` returning a
    collision input matching the model, or a block of ``size`` of them;
    ``None`` means "use the model's own input laws".
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
    """Uniform-grid samples of the continuous-time process."""

    times: np.ndarray
    states: np.ndarray
    events: int
    seed: int

    def __post_init__(self):
        if self.times.shape[0] != self.states.shape[0]:
            raise ValueError("one state row per sample time required")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly ascending")

    def state(self, k: int) -> PhaseState:
        return PhaseState.from_vector(self.states[k])


def _require_dim(net: OscillatorNetwork, model: CollisionModel) -> None:
    if model.dim != net.dim:
        raise ValueError(
            f"model acts in dimension {model.dim} but the network has d={net.dim}"
        )


def _kick_rows(model: CollisionModel, contact, mass: float, ph, terms):
    """Jump of mode-space momentum rows ph, (..., 1, dof), by ``model.jump_terms`` rows, (..., 1, w).

    A rank-d update through p1 = ph @ contact.T. Each row goes through its
    own one-row product, so a stack of rows is kicked bitwise as its rows
    are one at a time.
    """
    p1 = ph @ contact.T
    return ph + (model.jump_apply(terms, p1, mass) - p1) @ contact


def _kick(net: OscillatorNetwork, model: CollisionModel, ph, xi):
    """Jump of mode-space momenta ph, (dof,) or (n, dof), by inputs xi: ``_kick_rows`` on their terms."""
    terms = model.jump_terms(xi, net.mass)[..., None, :]
    return _kick_rows(model, net.contact_modes, net.mass, ph[..., None, :], terms)[..., 0, :]


def _input_laws(model: CollisionModel, sched: EventSchedule) -> tuple:
    return model.input_laws if sched.xi_law is None else (sched.xi_law,)


#: grid rows rotated per block when a pass is sampled on the time grid
GRID_BLOCK = 4096
#: lockstep steps whose rotations and kick terms ``event_passes`` computes in
#: one call each. Timed at 16, 32, 64 and 128 on (16, 3) and (2, 12) states,
#: 64 and 128 step fastest; the block's scratch grows with it (about 80 kB at
#: 64 on (2, 12) states)
STEP_BLOCK = 64
#: largest event record per seed that a config may ask ``event_passes`` for
RECORD_MAX_BYTES = 1 << 30
#: largest dof = n_particles * dim of a config: building a network peaks at six dof x dof
#: float matrices (tracemalloc, dof 256 to 1024), 768 MiB at 4096, within RECORD_MAX_BYTES
NETWORK_MAX_DOF = 4096


def record_bytes(net: OscillatorNetwork, model: CollisionModel, n_events: int, n_seeds: int) -> int:
    """Bytes ``event_passes`` holds for n_events per seed: waits, inputs, mode states and jump times."""
    return 8 * n_events * n_seeds * (2 + model.xi_dim + 2 * net.dof)


def event_estimate(t_end: float, tau_mean: float) -> int:
    """Events per seed in [0, t_end] to size for: the expected count, four Poisson deviations and 16."""
    expected = max(t_end, 0.0) / tau_mean
    return int(expected + 4.0 * math.sqrt(expected)) + 16


def grid_size(t_end: float, sample_dt: float) -> int:
    """Samples on the grid k*sample_dt, k = 0..floor(t_end/sample_dt)."""
    return int(np.floor(t_end / sample_dt + 1e-12)) + 1


def grid_index(t: float, sample_dt: float) -> int:
    """The first k with k*sample_dt >= t, by the product that gives the grid's times."""
    k = max(0, math.ceil(t / sample_dt))
    while k > 0 and (k - 1) * sample_dt >= t:
        k -= 1
    while k * sample_dt < t:
        k += 1
    return k


@dataclass(frozen=True, eq=False)
class EventPass:
    """Mode-space states right after each jump of one seeded run.

    Row k of ``modes`` holds the eigen-coordinates (qh, ph) just after jump k,
    which happened at ``times[k]``; row 0 is the start at time 0. ``events``
    counts the jumps in [0, t_end].
    """

    net: OscillatorNetwork
    modes: np.ndarray
    times: np.ndarray
    events: int
    seed: int

    def chain(self, n_steps: int) -> EmbeddedChain:
        """The first n_steps post-jump states in physical coordinates."""
        dof = self.net.dof
        rows = self.modes[: n_steps + 1]
        states = self.net.from_modes(rows[:, :dof], rows[:, dof:])
        return EmbeddedChain(
            states=states, jump_times=self.times[1 : n_steps + 1].copy(), seed=self.seed
        )

    def trajectory(self, sample_dt: float, size: int, first: int = 0, physical: bool = False):
        """Right-continuous grid blocks (times, modes, states) at k*sample_dt, first <= k < size.

        ``modes`` holds the eigen-coordinates (qh, ph) of the state at each grid
        time: each block of grid times finds its last jump at or before it with
        one ``searchsorted`` and rotates that jump's state forward, one
        ``_mode_flow`` per row, so a row's bits do not depend on its block.
        ``states`` holds the same rows in physical coordinates if ``physical``,
        else None. The grid is cut into windows of min(GRID_BLOCK, size) rows,
        the last overlapping its predecessor, and each physical block is the
        transform of its whole window, so a row's transform back is the same
        matrix product whatever the grid length. Rows before ``first`` are not
        computed, except inside a physical window.
        """
        net, dof = self.net, self.net.dof
        jump_times = self.times[: self.events + 1]
        block = min(GRID_BLOCK, size)
        for start in range(first // block * block, size, block):
            lo = min(start, size - block) if physical else max(start, first)
            t = np.arange(lo, min(start + block, size)) * sample_dt
            last = np.searchsorted(jump_times, t, side="right") - 1
            base = self.modes[last]
            qh, ph = _mode_flow(base[:, :dof], base[:, dof:], net.mode_frequencies, net.mass,
                                t - jump_times[last])
            new = max(start, first) - lo
            states = net.from_modes(qh, ph)[new:] if physical else None
            modes = np.concatenate([qh[new:], ph[new:]], axis=1)
            del base, qh, ph  # the block's caller holds only what is yielded
            yield t[new:], modes, states
            del modes, states  # nor is it held here while the next block is computed


def _streams(seed: int, n_laws: int) -> list:
    """One seed's generators: child 0 of ``SeedSequence(seed)`` for the waits, then one per input law."""
    return [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(1 + n_laws)]


def _seed_waits(tau_law, rng, t_end: float, n_steps: int):
    """(waits, count): one seed's waits, drawn in blocks, and how many of them are events.

    The first block is sized by ``event_estimate``; blocks are added until
    the waits reach past t_end and number more than n_steps. The events are
    the waits up to the first whose jump lands past t_end, and at least
    n_steps of them.
    """
    waits = tau_law.sample(rng, size=max(n_steps + 1, event_estimate(t_end, tau_law.mean)))
    while True:
        ends = np.cumsum(waits)  # the jump times, as event_passes adds them up
        if len(waits) > n_steps and ends[-1] > t_end:
            return waits, max(n_steps, int(np.searchsorted(ends, t_end, side="right")))
        waits = np.concatenate([waits, tau_law.sample(rng, size=len(waits))])


def _draw_events(model: CollisionModel, sched: EventSchedule, seeds: tuple, t_end: float, n_steps: int):
    """(taus, xis, counts): the seeds' waits (events, seeds), inputs (events, seeds, xi_dim) and counts.

    Each seed's waits come first (``_seed_waits``); once every count k is
    known, each input law draws a seed's k values in one call from its own
    stream (``sample_columns``). Rows past a seed's count stay zero.
    """
    laws = _input_laws(model, sched)
    streams = [_streams(seed, len(laws)) for seed in seeds]
    waits, counts = zip(*(_seed_waits(sched.tau_law, rngs[0], t_end, n_steps) for rngs in streams))
    taus = np.zeros((max(counts), len(seeds)))
    for s, k in enumerate(counts):
        taus[:k, s] = waits[s][:k]
    del waits
    xis = np.zeros((max(counts), len(seeds), model.xi_dim))
    for s, k in enumerate(counts):
        xis[:k, s] = sample_columns(laws, streams[s][1:], k)
    return taus, xis, counts


def _step_seeds(net: OscillatorNetwork, model: CollisionModel, taus, xis, modes) -> None:
    """Fill modes[:, k + 1], the seeds' mode states after step k, from modes[:, 0].

    Step k rotates every seed's state by its wait taus[k] and kicks it by
    its input xis[k]. The cosines and sines of the rotation angles and the
    model's ``jump_terms`` are computed ``STEP_BLOCK`` steps at a time, so a
    step does only what needs the state: ``_rotate``, then ``_kick_rows``.
    Each block's states go to ``modes`` in one copy.
    """
    omega, mass, dof, steps = net.mode_frequencies, net.mass, net.dof, len(taus)
    contact, momega = net.contact_modes, np.tile(mass * omega, (len(modes), 1, 1))
    # a view of the contiguous modes: rows 2m and 2m + 1 are modes[:, m]'s qh and ph
    halves = modes.reshape(len(modes), -1, dof)
    qh, ph = halves[:, 0:1], halves[:, 1:2]  # one (1, dof) row per seed
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite state aborts the caller
        for k0 in range(0, steps, STEP_BLOCK):
            k1 = min(k0 + STEP_BLOCK, steps)
            rows = []  # the last block's rows are written; free them first
            cos, sin = _rotation(omega, taus[k0:k1, :, None])
            terms = model.jump_terms(xis[k0:k1, :, None], mass)
            for c, s, jump_terms in zip(cos, sin, terms):
                qh, ph = _rotate(qh, ph, c, s, momega)
                ph = _kick_rows(model, contact, mass, ph, jump_terms)
                rows += qh, ph
            np.concatenate(rows, axis=1, out=halves[:, 2 * k0 + 2 : 2 * k1 + 2])


def event_passes(
    net: OscillatorNetwork,
    model: CollisionModel,
    sched: EventSchedule,
    psi0: PhaseState,
    t_end: float,
    n_steps: int,
    seeds: tuple,
) -> list:
    """The event loop: each seed jumps until its first jump past t_end, and at least n_steps.

    Each seed draws from its own streams (``_streams``): its waits in blocks
    (``_seed_waits``), then, once its event count k is known, k inputs with
    one ``sample(rng, size=k)`` call per input law, each law from its own
    stream, into (events, seeds) buffers of their final size
    (``_draw_events``). Then all seeds step together, one event per step
    (``_step_seeds``); a seed out of events rides along on a zero wait and a
    zero input, and those rows are cut off. One ``EventPass`` per seed, in
    the order given. Aborts for the first listed seed whose state overflows,
    with the event index: "after event k at t=..." inside [0, t_end], "at
    step k" beyond it.
    """
    _require_dim(net, model)
    taus, xis, counts = _draw_events(model, sched, seeds, t_end, n_steps)
    modes = np.empty((len(seeds), len(taus) + 1, 2 * net.dof))
    modes[:, 0] = np.concatenate(net.to_modes(psi0.vector))
    _step_seeds(net, model, taus, xis, modes)
    del xis  # the inputs are spent; the jump times below need only the waits

    times = np.zeros((len(seeds), len(taus) + 1))
    np.cumsum(taus.T, axis=1, out=times[:, 1:])
    passes = []
    for s, (seed, k) in enumerate(zip(seeds, counts)):
        bad = np.flatnonzero(~np.isfinite(modes[s, 1 : k + 1]).all(axis=1))
        if bad.size:
            step, t = int(bad[0]) + 1, times[s, bad[0] + 1]
            raise NumericalAbort(f"non-finite state at step {step}" if t > t_end else
                                 f"non-finite state after event {step} at t={t:.6g}")
        events = int(np.searchsorted(times[s, 1 : k + 1], t_end, side="right"))
        passes.append(EventPass(net=net, modes=modes[s, : k + 1], times=times[s, : k + 1],
                                events=events, seed=seed))
    return passes


def simulate_embedded(
    net: OscillatorNetwork,
    model: CollisionModel,
    sched: EventSchedule,
    psi0: PhaseState,
    n_steps: int,
    seed: int,
) -> EmbeddedChain:
    """Run the post-collision chain psi_m = J(xi_m; e^{tau_m A} psi_{m-1}).

    Reproducible per seed, with the draws of ``event_passes``. Aborts with
    the step index if the state overflows.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    [run] = event_passes(net, model, sched, psi0, -np.inf, n_steps, (seed,))
    return run.chain(n_steps)


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
    [run] = event_passes(net, model, sched, psi0, t_end, 0, (seed,))
    size = grid_size(t_end, sample_dt)
    times, states = np.empty(size), np.empty((size, 2 * net.dof))
    # GRID_BLOCK rows per block, the last fewer
    for k, (t, _, x) in enumerate(run.trajectory(sample_dt, size, physical=True)):
        times[k * GRID_BLOCK : (k + 1) * GRID_BLOCK] = t
        states[k * GRID_BLOCK : (k + 1) * GRID_BLOCK] = x
    return Trajectory(times=times, states=states, events=run.events, seed=seed)


@dataclass(frozen=True, eq=False)
class Moments:
    """Sums of phase-vector rows x: the count, sum x and sum x x^T; ``Moments()`` has none.

    ``Moments.of`` takes one block's sums and ``+`` merges two. The sums are
    raw, so merging is associative up to roundoff and the merge order fixes
    the bits (Chan, Golub and LeVeque 1979). They are linear in the rows, so
    sums of rows in mode coordinates map to those of the physical rows in one
    step (``from_modes``), and the mean energy follows from the second moments.
    """

    n: int = 0
    sum_x: np.ndarray | float = 0.0  # an array once a block is added, as is sum_xx
    sum_xx: np.ndarray | float = 0.0

    @classmethod
    def of(cls, rows: np.ndarray) -> Moments:
        return cls(len(rows), rows.sum(axis=0), rows.T @ rows)

    def __add__(self, other: Moments) -> Moments:
        return Moments(self.n + other.n, self.sum_x + other.sum_x, self.sum_xx + other.sum_xx)

    def from_modes(self, net: OscillatorNetwork) -> Moments:
        """These sums of mode rows y as those of the phase rows x = T y: T sum y and T Syy T^T.

        T = blockdiag(Q, Q), with Q the eigenvectors of V, as ``OscillatorNetwork.from_modes``.
        """
        dof = net.dof
        sum_xx = net.from_modes(self.sum_xx[:, :dof], self.sum_xx[:, dof:])  # Syy T^T
        sum_xx = net.from_modes(sum_xx.T[:, :dof], sum_xx.T[:, dof:]).T  # T Syy T^T
        return Moments(self.n, net.from_modes(self.sum_x[:dof], self.sum_x[dof:]), sum_xx)

    def _average(self, total):
        if self.n == 0:
            raise ValueError("no samples to average")
        return total / self.n

    @property
    def mean(self) -> np.ndarray:
        return self._average(self.sum_x)

    @property
    def covariance(self) -> np.ndarray:
        """The 1/n covariance, sum_xx / n - mean mean^T."""
        mean = self.mean
        return self._average(self.sum_xx) - np.outer(mean, mean)

    def mean_energy(self, net: OscillatorNetwork) -> float:
        """E H = (1/2) tr(V S_qq) / n + tr(S_pp) / (2 M n), with S = sum_xx."""
        dof, second = net.dof, self._average(self.sum_xx)
        potential = np.einsum("ij,ji->", net.stiffness, second[:dof, :dof])
        return float(0.5 * potential + np.trace(second[dof:, dof:]) / (2.0 * net.mass))


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
    _require_dim(net, model)
    rng = np.random.default_rng(seed)
    h0 = energy(net, psi)
    qh, ph = net.to_modes(psi.vector)
    # all waiting times first, then the inputs, one block per input law
    taus = np.asarray(sched.tau_law.sample(rng, size=n_mc), dtype=float)
    xi = sample_columns(_input_laws(model, sched), itertools.repeat(rng), n_mc)
    qh_t, ph_t = _mode_flow(qh, ph, net.mode_frequencies, net.mass, taus)
    change = energies(net, net.from_modes(qh_t, _kick(net, model, ph_t, xi))) - h0
    return DriftEstimate(
        energy_before=h0,
        mean_change=float(change.mean()),
        std_error=float(change.std(ddof=1) / np.sqrt(n_mc)),
    )


def reachability_jacobian(
    net: OscillatorNetwork,
    model: CollisionModel,
    psi0: PhaseState,
    m: int,
    point,
) -> np.ndarray:
    """Exact Jacobian of (t_1, u_1, ..., t_m, u_m) -> state after m flow-and-kick legs.

    Returns the (2 dof, m (1 + xi_dim)) derivative of the phase vector at
    the given point. The legs run in mode coordinates through the event
    loop's own flow and kick, carrying one tangent row per input coordinate: the
    flow is linear, so tangents rotate like states; the column of t_k is
    the generator at the pre-jump state; the kick maps tangents through the
    model's ``jump_jacobian``.
    """
    if not isinstance(model, (OneDimElastic, TwoDimBall)):
        raise ValueError("rank probe supports the finite-input elastic models only")
    _require_dim(net, model)
    if m < 0:
        raise ValueError("m must be nonnegative")
    l = model.xi_dim
    coords = np.asarray(point, dtype=float).ravel()
    if coords.size != m * (1 + l):
        raise ValueError(
            f"point must have m*(1+l) = {m * (1 + l)} coordinates, got {coords.size}"
        )
    omega, mass, c = net.mode_frequencies, net.mass, net.contact_modes
    qh, ph = net.to_modes(psi0.vector)
    tq = np.zeros((coords.size, net.dof))
    tp = np.zeros_like(tq)
    for k in range(m):
        i = k * (1 + l)
        t_k, u_k = coords[i], coords[i + 1 : i + 1 + l]
        qh, ph = _mode_flow(qh, ph, omega, mass, t_k)
        tq, tp = _mode_flow(tq, tp, omega, mass, t_k)
        tq[i], tp[i] = ph / mass, -mass * omega**2 * qh
        d_p, d_xi = model.jump_jacobian(u_k, ph @ c.T, mass)
        tp += (tp @ c.T) @ (d_p - np.eye(model.dim)).T @ c
        tp[i + 1 : i + 1 + l] = d_xi.T @ c
        ph = _kick(net, model, ph, u_k)
    return net.from_modes(tq, tp).T


def jacobian_rank_probe(
    net: OscillatorNetwork,
    model: CollisionModel,
    psi0: PhaseState,
    m: int,
    point,
) -> tuple:
    """(rank, sv_ratio) of the exact m-leg reachability Jacobian at the point.

    Rank counts the singular values above sigma_max * max(rows, cols) * eps,
    numpy's ``matrix_rank`` default; ``sv_ratio`` is sigma_min / sigma_max.
    m = 0 (or a zero Jacobian) gives (0, 0.0); the rank never exceeds
    min(m*(1+l), 2dN).
    """
    jac = reachability_jacobian(net, model, psi0, m, point)
    sv = np.linalg.svd(jac, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0, 0.0
    tol = sv[0] * max(jac.shape) * np.finfo(float).eps
    return int(np.sum(sv > tol)), float(sv[-1] / sv[0])


def trajectory_to_csv(out, times: np.ndarray, states: np.ndarray) -> None:
    """Append `t,q_1..q_dN,p_1..p_dN` rows to the open text file ``out``, the header if it is empty.

    The bytes are those of ``np.savetxt(..., fmt="%.17g", delimiter=",")``,
    formatted by ``csvfmt.write_csv_rows``.
    """
    dof = states.shape[1] // 2
    if out.tell() == 0:
        names = ["t"] + [f"q_{i + 1}" for i in range(dof)] + [f"p_{i + 1}" for i in range(dof)]
        out.write(",".join(names) + "\n")
    write_csv_rows(out, np.column_stack([times, states]))
