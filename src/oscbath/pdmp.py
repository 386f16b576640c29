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
state.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .collisions import CollisionModel, OneDimElastic, TwoDimBall
from .errors import NumericalAbort
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


@dataclass(frozen=True)
class EventSchedule:
    """Waiting-time law plus (optionally) an override collision-input law.

    ``tau_law`` must expose ``sample(rng, size=None)``, ``draws(rng)`` (see
    :mod:`oscbath.laws`) and a finite ``mean`` (checked at construction).
    ``xi_law`` is any object with ``sample(rng, size=None)`` returning a
    collision input matching the model, or a block of ``size`` of them, and
    ``draws(rng)`` giving the input's xi_dim closures like the model's
    ``input_draws``; ``None`` means "use the model's own input law".
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


def _input_sampler(model: CollisionModel, sched: EventSchedule):
    if sched.xi_law is not None:
        return sched.xi_law.sample
    return model.sample_input


def _input_draws(model: CollisionModel, sched: EventSchedule, rng) -> tuple:
    if sched.xi_law is not None:
        return sched.xi_law.draws(rng)
    return model.input_draws(rng)


#: grid rows rotated per block when a pass is sampled on the time grid
GRID_BLOCK = 4096
#: lockstep steps whose rotations and kick terms ``event_passes`` computes in
#: one call each. Timed at 16, 32, 64 and 128 on (16, 3) and (2, 12) states,
#: 64 and 128 step fastest; the block's scratch grows with it (about 80 kB at
#: 64 on (2, 12) states)
STEP_BLOCK = 64
#: largest event record per seed that a config may ask ``event_passes`` for
RECORD_MAX_BYTES = 1 << 30


def record_bytes(net: OscillatorNetwork, model: CollisionModel, n_events: int, n_seeds: int) -> int:
    """Bytes ``event_passes`` holds for n_events per seed: waits, inputs, mode states and jump times."""
    return 8 * n_events * n_seeds * (2 + model.xi_dim + 2 * net.dof)


def grid_size(t_end: float, sample_dt: float) -> int:
    """Samples on the grid k*sample_dt, k = 0..floor(t_end/sample_dt)."""
    return int(np.floor(t_end / sample_dt + 1e-12)) + 1


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

    def trajectory(self, sample_dt: float, size: int):
        """Right-continuous (times, states) blocks on the grid k*sample_dt, k < size, in [0, t_end].

        Each block of grid times finds its last jump at or before it with one
        ``searchsorted`` and rotates that jump's state forward. Every block is
        computed on min(GRID_BLOCK, size) rows, so each row's transform back to
        physical coordinates is the same matrix product whatever the grid length;
        the last block overlaps its predecessor and yields only its new rows.
        """
        net, dof = self.net, self.net.dof
        jump_times = self.times[: self.events + 1]
        block = min(GRID_BLOCK, size)
        for start in range(0, size, block):
            first = min(start, size - block)
            t = np.arange(first, first + block) * sample_dt
            last = np.searchsorted(jump_times, t, side="right") - 1
            base = self.modes[last]
            states = net.from_modes(*_mode_flow(
                base[:, :dof], base[:, dof:], net.mode_frequencies, net.mass,
                t - jump_times[last],
            ))
            yield t[start - first :], states[start - first :]


def _seed_draws(model: CollisionModel, sched: EventSchedule, seed: int, t_end: float, n_steps: int):
    """(values, count): one seed's events for ``event_passes``, each event's wait then its input."""
    rng = np.random.default_rng(seed)
    [draw_tau], draw_xi = sched.tau_law.draws(rng), _input_draws(model, sched, rng)
    draw_one = draw_xi[0] if len(draw_xi) == 1 else None
    values = array("d")
    append = values.append
    t, k = 0.0, 0
    while k < n_steps or t <= t_end:
        tau = draw_tau()
        if t + tau > t_end and k >= n_steps:
            break
        append(tau)
        if draw_one is not None:
            append(draw_one())
        else:
            for draw in draw_xi:
                append(draw())
        t += tau
        k += 1
    return values, k


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

    Each seed first draws its events from ``default_rng(seed)``, one waiting
    time then one input per event; the waiting time past t_end that ends the
    run is not followed by an input. The draws go through the laws' one-draw
    closures (``draws``, ``input_draws``), bound once per seed, which return
    the values of ``sample`` and ``sample_input`` bit for bit. Each seed's
    values go to one typed array, and once every count is known into (events,
    seeds) buffers of their final size. Then all seeds step together, one
    event per step (``_step_seeds``); a seed out of events rides along on a
    zero wait and a zero input, and those rows are cut off. One
    ``EventPass`` per seed, in the order given. Aborts for the first listed
    seed whose state overflows, with the event index: "after event k at
    t=..." inside [0, t_end], "at step k" beyond it.
    """
    _require_dim(net, model)
    # per seed: one typed array, each event's wait then its input, and the event count
    draws, counts = zip(*(_seed_draws(model, sched, seed, t_end, n_steps) for seed in seeds))
    taus = np.zeros((max(counts), len(seeds)))
    xis = np.zeros((max(counts), len(seeds), model.xi_dim))
    for s, k in enumerate(counts):
        rows = np.frombuffer(draws[s]).reshape(k, 1 + model.xi_dim)
        taus[:k, s], xis[:k, s] = rows[:, 0], rows[:, 1:]
    del draws, rows  # rows views the last seed's array

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

    Reproducible per seed: one waiting-time draw then one input draw per
    step. Aborts with the step index if the state overflows.
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
    for k, (t, x) in enumerate(run.trajectory(sample_dt, size)):  # GRID_BLOCK rows, the last fewer
        times[k * GRID_BLOCK : (k + 1) * GRID_BLOCK] = t
        states[k * GRID_BLOCK : (k + 1) * GRID_BLOCK] = x
    return Trajectory(times=times, states=states, events=run.events, seed=seed)


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
    _require_dim(net, model)
    draw_xi = _input_sampler(model, sched)
    rng = np.random.default_rng(seed)
    h0 = energy(net, psi)
    qh, ph = net.to_modes(psi.vector)
    # all waiting times first, then the inputs as one block
    taus = np.asarray(sched.tau_law.sample(rng, size=n_mc), dtype=float)
    xi = np.reshape(draw_xi(rng, size=n_mc), (n_mc, -1))
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


# --- CSV output -------------------------------------------------------------

#: rows per ``csv_rows`` call; its scratch is a few word arrays of this many rows
CSV_ROWS = 256

_ONES = np.uint64(0x0101010101010101)
#: |x| in [1e-11, 2**52) is formatted in numpy; other nonzero values by Python
_LOWEST, _HIGHEST = np.array([1e-11, 2.0**52]).view(np.uint64)
#: 5**(16 - X) at the case index c = X + 11 of the decimal exponents X = -11..15
_POW5 = np.array([5 ** (27 - c) for c in range(27)], dtype=np.uint64)


def _bytes_where(fill: int, cond) -> list:
    """Three little-endian words with byte ``fill`` at the body bytes j = 0..23 where cond(j)."""
    return [int.from_bytes(bytes(fill if cond(8 * w + k) else 0 for k in range(8)), "little")
            for w in range(3)]


def _slot_tables():
    """Per case (X = -11..15, then zero): prefix and suffix words, and masks over the body.

    A value's 17 digit characters c_0..c_16 become an 18-byte body: c_j at
    byte j before the point (j < p), the point at byte p (none if p = 17) and
    c_(j-1) after it. Digits from c_keep on may be trailing zeros, which go.
    """
    cases = []
    for x in [*range(-11, 16), None]:
        if x is None:
            prefix, suffix, p, keep = b"0", b"", 17, 0
        elif x < -4:
            prefix, suffix, p, keep = b"", b"e-%02d" % -x, 1, 1
        elif x < 0:
            prefix, suffix, p, keep = b"0." + b"0" * (-x - 1), b"", 17, 1
        else:
            prefix, suffix, p, keep = b"", b"", x + 1, x + 1
        cases.append([int.from_bytes(b"\0" + prefix, "little"), int.from_bytes(b"\0\0" + suffix, "little"),
                      *_bytes_where(0xFF, lambda j: j < p), *_bytes_where(0xFF, lambda j: j > p),
                      *_bytes_where(1, lambda j: j == p < 17), *_bytes_where(1, lambda j: j < keep)])
    t = np.array(cases, dtype=np.uint64).T
    return t[0], t[1], t[2:5], t[5:8], t[8:11], t[11:14]


_PREFIX, _SUFFIX, _BEFORE, _AFTER, _POINT, _KEEP = _slot_tables()


def _scaled(mant, expo, c):
    """floor(|x| 10**(16 - X)) for X = c - 11, the right shift that gave it, and whether it rounds up.

    |x| = mant 2**(expo - 1075), so |x| 10**k = mant 5**k / 2**s with
    s = 1075 - expo - k. The product (at most 116 bits) is formed in two
    64-bit limbs and shifted, rounding half to even; a negative s wraps to a
    huge shift.
    """
    pw = np.take(_POW5, c)
    s = (c + np.uint64(1048)) - expo
    mh, ml, ph, pl = mant >> 32, mant & 0xFFFFFFFF, pw >> 32, pw & 0xFFFFFFFF
    low = ml * pl
    mid = mh * pl + ml * ph
    lo = low + (mid << 32)
    hi = mh * ph + (mid >> 32) + (lo < low)
    q = (lo >> s) | (hi << (64 - s))
    rest = lo & ((np.uint64(1) << s) - 1)
    half = (np.uint64(1) << s) >> 1
    return q, s, (rest > half) | ((rest == half) & (half > 0) & (q & 1 == 1))


def _digit_word(v):
    """The 8 decimal digits of v < 10**8 as the bytes of a word, most significant first."""
    hi4 = v // 10_000
    x = hi4 | ((v - hi4 * 10_000) << 32)  # two 4-digit lanes
    h = ((x * 5243) >> 19) & 0x0000007F0000007F  # lane // 100
    y = h | ((x - h * 100) << 16)  # four 2-digit lanes
    t = ((y * 103) >> 10) & 0x000F000F000F000F  # lane // 10
    return t | ((y - t * 10) << 8)


def csv_rows(rows: np.ndarray) -> bytes:
    """The rows of a 2-D float array as ``",".join(["%.17g"] * cols) % tuple(row) + "\n"`` formats them.

    Exact and vectorised, for at most ``CSV_ROWS`` rows per call. Each |x| in
    [1e-11, 2**52) gets its 17 significant digits D = round(|x| 10**(16 - X)),
    half to even, by integer arithmetic on its mantissa (``_scaled``). The
    decimal exponent X is guessed from ``log10`` and corrected from the
    truncated quotient. Each value fills a 32-byte slot (sign, prefix, body,
    suffix and separator) with NUL where ``%.17g`` writes nothing, and the
    NULs are cut. Zeros have their own case. Every other value (tiny, huge,
    non-finite) is formatted by Python into its slot, so no result depends on
    the window.
    """
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    n_rows, n_cols = rows.shape
    bits = rows.reshape(-1).view(np.uint64)
    mag = bits & np.uint64(2**63 - 1)
    zero = mag == 0
    fast = (mag - _LOWEST) < (_HIGHEST - _LOWEST)
    mag[~fast] = np.float64(1.0).view(np.uint64)  # a stand-in: Python formats these
    c = np.log10(mag.view(np.float64))
    c += 11
    c = np.clip(c, 0, 26).astype(np.uint64)
    expo, mant = mag >> 52, (mag & np.uint64(2**52 - 1)) | np.uint64(2**52)
    q, s, up = _scaled(mant, expo, c)
    redo = np.flatnonzero((q < 10**16) | (q >= 10**17))  # log10 was one off
    if redo.size:
        c[redo] = np.where(q[redo] < 10**16, c[redo] - 1, c[redo] + 1)  # 0 - 1 wraps past 26
        fast[redo] &= c[redo] <= 26
        c[redo] = np.minimum(c[redo], 26)
        q[redo], s[redo], up[redo] = _scaled(mant[redo], expo[redo], c[redo])
        fast &= (q >= 10**16) & (q < 10**17)
    d = q + up
    # no double in the window rounds up to 10**17 (the nearest that do are 1e-14 and 1e+98)
    fast &= (s < 64) & (d < 10**17)
    c[zero], d[zero] = 27, 0
    c = c.astype(np.intp)
    del q, s, up, mant, expo, mag  # the digit stage needs none of these; freeing them lowers the peak

    lead = d // 10**16
    rest = d - lead * 10**16
    hi8 = rest // 10**8
    high, low = _digit_word(hi8), _digit_word(rest - hi8 * 10**8)
    digits = [lead | (high << 8), (high >> 56) | (low << 8), low >> 56]  # c_0..c_16
    del d, lead, rest, hi8, high, low
    later, further = [None] * 3, np.uint64(0)  # byte j of later[w]: a digit from c_(8w+j) on is nonzero
    for w in (2, 1, 0):
        f = (digits[w] | digits[w] >> 1 | digits[w] >> 2 | digits[w] >> 3) & _ONES
        f |= f >> 8
        f |= f >> 16
        later[w] = f | f >> 32 | further
        further = (later[w] != 0) * _ONES
    at_point = [np.take(_POINT[w], c) for w in range(3)]
    point = ((later[0] & at_point[0]) | (later[1] & at_point[1]) | (later[2] & at_point[2])) != 0

    slots = np.empty((n_rows, n_cols, 4), dtype="<u8")
    words = slots.reshape(-1, 4)
    words[:, 0] = np.take(_PREFIX, c) | (bits >> 63) * ord("-")
    before = np.uint64(0)
    for w, zeros in enumerate((0x30 * _ONES, 0x30 * _ONES, np.uint64(0x30))):
        chars = (digits[w] + zeros) & ((later[w] | np.take(_KEEP[w], c)) * 0xFF)
        words[:, 1 + w] = ((chars & np.take(_BEFORE[w], c))
                           | (((chars << 8) | (before >> 56)) & np.take(_AFTER[w], c))
                           | at_point[w] * point * np.uint64(ord(".")))  # if a nonzero digit follows
        before = chars
    words[:, 3] |= np.take(_SUFFIX, c)
    slots[:, :, 3] |= np.uint64(ord(",") << 48)
    slots[:, -1, 3] ^= np.uint64((ord(",") ^ ord("\n")) << 48)
    raw = slots.view(np.uint8).reshape(-1, 32)
    for i in np.flatnonzero(~fast & ~zero):
        text = b"%.17g" % rows.flat[i]
        raw[i, :30] = 0
        raw[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)
    return slots.tobytes().translate(None, b"\0")


def write_csv_rows(out, data: np.ndarray) -> None:
    """Append the rows of ``data`` to the open text file ``out``, formatted by ``csv_rows``."""
    for start in range(0, len(data), CSV_ROWS):
        out.write(csv_rows(data[start : start + CSV_ROWS]).decode("ascii"))


def trajectory_to_csv(out, times: np.ndarray, states: np.ndarray) -> None:
    """Append `t,q_1..q_dN,p_1..p_dN` rows to the open text file ``out``, the header if it is empty.

    The bytes are those of ``np.savetxt(..., fmt="%.17g", delimiter=",")``,
    formatted ``CSV_ROWS`` rows at a time by ``csv_rows``.
    """
    dof = states.shape[1] // 2
    if out.tell() == 0:
        names = ["t"] + [f"q_{i + 1}" for i in range(dof)] + [f"p_{i + 1}" for i in range(dof)]
        out.write(",".join(names) + "\n")
    write_csv_rows(out, np.column_stack([times, states]))
