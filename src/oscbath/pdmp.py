"""Piecewise-deterministic dynamics: exact free flow punctuated by jumps.

Between random collision times the state follows the exact Hamiltonian flow
(no integrator error); at a collision only the particle-1 momentum block
changes, via the collision model's jump map. Trajectories are
right-continuous: a sample taken exactly at a jump time sees the post-jump
state.

The stepping engine works in the eigenbasis of the stiffness matrix, where
the flow is a family of independent mode rotations; states are transformed
back to physical coordinates (``OscillatorNetwork.from_modes``) only when
stored. One event loop (``event_blocks``) steps all seeds of a run together
and yields their jump times and post-jump states a block of steps
(``event_block``, at most ``EVENT_BLOCK``) at a time, carrying each seed's
last jump time and state into the next block; no run holds its whole
horizon. The loop computes the rotation angles' cosines and sines and the
collision model's input-only jump terms for a block of steps at once, so
each step does only the work that needs the state. A seed's grid samples
come in fixed windows (``GridWindows``), each computed as soon as the
seed's jumps cover it, and its embedded chain is its first post-jump
states; ``event_passes`` collects whole runs.
``Moments`` sums the grid samples for their time-averaged moments: in mode
coordinates, from burn-in on, with the sums mapped to physical coordinates
once per seed. Only the rows written out are transformed back.

Random protocol (``RNG_PROTOCOL``): each seed's ``SeedSequence(seed)``
spawns child 0 for the waiting times, then one child per law of the model's
``input_laws``, in their order. Each stream is drawn in blocks through the
laws' ``sample(rng, size)``, whose values do not depend on how a stream is
split into blocks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .collisions import CollisionModel, OneDimElastic, TwoDimBall
from .covariance import lyapunov_functional
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


#: grid rows rotated per block when a pass is sampled on the time grid
GRID_BLOCK = 4096
#: mode values (grid rows x dof) of a window rotated per ``_mode_flow`` call: 2048 rows of
#: chain3's 3 modes, 512 of the 2-D ball's 12. The rotation's scratch is a few arrays of this
#: many values; scratch the size of a whole window, freed window after window, is handed back
#: to the kernel by glibc and faulted in again. Folding the grids of 16 chain3 seeds at t_end
#: 5000 (2 vCPUs) took 55 ms at 6144, 57-61 ms at 4096 and 3072, and 72 ms at 12288 (whole
#: windows, 12,000 minor faults); the ball's 2 seeds at t_end 1e4, 81-85 ms against 86-94 ms
ROTATE_VALUES = 6144
#: lockstep steps whose rotations and kick terms ``event_blocks`` computes in
#: one call each. Timed at 16, 32, 64 and 128 on (16, 3) and (2, 12) states,
#: 64 and 128 step fastest; the block's scratch grows with it (about 80 kB at
#: 64 on (2, 12) states)
STEP_BLOCK = 64
#: most lockstep steps per block of ``event_blocks`` (``event_block``); no output depends on
#: it. On 16 chain3 seeds at t_end 5000 (2 vCPUs), 256 and 128 peaked 0.2 MiB lower and ran 4%
#: and 8% longer; each doubling above 512 ran under 1% faster and peaked about 1 MiB higher
EVENT_BLOCK = 512
#: largest event record that a config may ask for: 16 events per seed (the seed count's
#: bound), each seed's first n_steps post-jump states, which ``simulate`` keeps, or what
#: ``simulate`` holds at once of its event blocks and grid windows (``stream_bytes``)
RECORD_MAX_BYTES = 1 << 30
#: most grid rows over all seeds that a config may ask ``simulate`` to reduce: about
#: 30 s at the 0.26-0.3 s per 1e6 rows measured on chain3 (2 vCPUs), four times its t_end 2e5 run
GRID_MAX_ROWS = 10**8
#: the event loop's time per lockstep step and per seed stepping in it, fitted to chain3 runs
#: of ``event_blocks`` (2 vCPUs): 12.6 us per step at 1 seed, 13.1 at 4, 17.7 at 32, 46.6 at
#: 128 and 83.9 at 256; and the longest loop a config may expect, so 32 chain3 seeds may run
#: to t_end 1.3e6 and one seed to 2.3e6
STEP_S, SEED_STEP_S = 12.5e-6, 0.3e-6
EVENT_LOOP_MAX_S = 30.0
#: widest %.17g field of a double, 24 characters as in "-2.2250738585072014e-308", and its comma
#: or newline
CSV_FIELD_BYTES = 25
#: largest trajectory.csv, at CSV_FIELD_BYTES per value, that ``simulate --out`` may write: about
#: 10 s of formatting at the 110 MB/s measured on 2 vCPUs, 7.7 times what chain3 at t_end 2e5
#: (800,001 rows of 7 values) could take
CSV_MAX_BYTES = 1 << 30
#: largest dof = n_particles * dim of a config: building a network peaks at six dof x dof
#: float matrices (tracemalloc, dof 256 to 1024), 768 MiB at 4096, within RECORD_MAX_BYTES
NETWORK_MAX_DOF = 4096


def record_bytes(net: OscillatorNetwork, model: CollisionModel, n_events: int, n_seeds: int) -> int:
    """Bytes of an event record of n_events per seed: waits, inputs, mode states and jump times."""
    return 8 * n_events * n_seeds * (2 + model.xi_dim + 2 * net.dof)


def event_estimate(t_end: float, tau_mean: float) -> int:
    """Events per seed in [0, t_end] to size for: the expected count, four Poisson deviations and 16."""
    expected = max(t_end, 0.0) / tau_mean
    return int(expected + 4.0 * math.sqrt(expected)) + 16


def event_block(t_end: float, tau_mean: float, n_steps: int) -> int:
    """Lockstep steps per block of ``event_blocks``: ``EVENT_BLOCK``, or fewer if every run is shorter."""
    return min(EVENT_BLOCK, max(n_steps, event_estimate(t_end, tau_mean)))


def stream_bytes(net: OscillatorNetwork, model: CollisionModel, tau_mean: float, t_end: float,
                 sample_dt: float, n_steps: int, n_seeds: int) -> int:
    """Bytes ``simulate`` holds at once of its event blocks and grid windows, as ``record_bytes``.

    Per seed, one ``event_block`` of events in the loop and the jumps that
    its ``GridWindows`` holds: one block added, and before it no more than
    the window's rows, nor than the events expected in its span of time.
    """
    window = min(GRID_BLOCK, grid_size(t_end, sample_dt),
                 event_estimate(min(t_end, GRID_BLOCK * sample_dt), tau_mean))
    return record_bytes(net, model, 2 * event_block(t_end, tau_mean, n_steps) + window, n_seeds)


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


class GridWindows:
    """One seed's right-continuous grid blocks, computed as its post-jump states arrive.

    The grid is k*sample_dt, first <= k < size, cut into windows of
    min(GRID_BLOCK, size) rows, the last overlapping its predecessor. Each
    window finds each grid time's last jump at or before it with one
    ``searchsorted`` and rotates that jump's mode state forward
    (``_mode_flow``, ``ROTATE_VALUES`` mode values a call), so a row's bits
    do not depend on its window. A block is (times, modes, states):
    ``modes`` holds the eigen-coordinates (qh, ph) of the window's rows from
    ``first`` on, and ``states`` the same rows in physical coordinates if
    ``physical``, else None. Each physical block is the transform of its
    whole window, so a row's transform back is the same matrix product
    whatever the grid length. Rows before ``first`` are not computed, except
    inside a physical window.

    The run starts from the mode state ``mode0`` at time 0. ``add`` takes
    the next jumps (time-ordered, all at or before the run's t_end) and
    yields the blocks whose grid times all lie before the last of them;
    ``close`` says no more come and yields the rest. Each is read to its end
    before the next call. Held are the jumps from the last one at or before
    the open window's first grid time on. Once they outnumber the window's
    rows (a coarse grid), only the jumps that its rows so far start from and
    the last one are kept, so a seed holds at most a window's rows and one
    ``add`` of jumps, whatever sample_dt and the event rate.
    """

    def __init__(self, net: OscillatorNetwork, mode0, sample_dt: float, size: int,
                 first: int = 0, physical: bool = False):
        self.net, self.sample_dt, self.physical = net, sample_dt, physical
        self._jumps = [(np.zeros(1), np.asarray(mode0, dtype=float)[None])]  # (times, modes) pieces
        self._held = 1  # jumps in self._jumps
        block = min(GRID_BLOCK, size)
        # (first row computed, first row yielded, end) of each window
        self._windows = ((min(start, size - block) if physical else max(start, first),
                          max(start, first), min(start + block, size))
                         for start in range(first // block * block, size, block))
        self._window = next(self._windows, None)

    def add(self, times, modes):
        """The blocks that these next jumps fix."""
        if len(times):
            self._jumps.append((times.copy(), modes.copy()))
            self._held += len(times)
            yield from self._blocks(times[-1])

    def close(self):
        """The blocks still to come: no jump is added after this."""
        return self._blocks(math.inf)

    def _joined(self):
        """The held jumps as one (times, modes) pair."""
        if len(self._jumps) > 1:
            self._jumps = [tuple(np.concatenate(part) for part in zip(*self._jumps))]
        return self._jumps[0]

    def _blocks(self, last: float):
        """The windows whose grid times all lie before ``last``, the latest jump time so far."""
        net, dof, dt = self.net, self.net.dof, self.sample_dt
        while self._window is not None:
            lo, new, hi = self._window
            if not last > (hi - 1) * dt:  # a jump at or before its last grid time may come
                if self._held > hi - lo:  # drop the jumps that no row starts from
                    times, modes = self._joined()
                    fixed = np.arange(lo, min(hi, grid_index(last, dt))) * dt  # rows before last
                    jump = np.append(times.searchsorted(fixed, side="right") - 1, len(times) - 1)
                    keep = jump[np.append(jump[:-1] != jump[1:], True)]  # each once, in order
                    self._jumps, self._held = [(times[keep], modes[keep])], len(keep)
                return
            times, modes = self._joined()
            t = np.arange(lo, hi) * dt
            jump = times.searchsorted(t, side="right") - 1  # each row's last jump
            out = np.empty((hi - lo, 2 * dof))  # the window's rows (qh, ph)
            step = max(1, ROTATE_VALUES // dof)
            for i in range(0, hi - lo, step):
                j = jump[i : i + step]
                base = modes[j]
                out[i : i + step, :dof], out[i : i + step, dof:] = _mode_flow(
                    base[:, :dof], base[:, dof:], net.mode_frequencies, net.mass,
                    t[i : i + step] - times[j])
            del base, jump
            states = None
            if self.physical:  # the whole window's transform, of contiguous qh and ph
                qh, ph = np.ascontiguousarray(out[:, :dof]), np.ascontiguousarray(out[:, dof:])
                states = net.from_modes(qh, ph)[new - lo :]
                del qh, ph  # the block's caller holds only what is yielded
            self._window = next(self._windows, None)
            if self._window is not None:  # the jumps from the last at or before its first grid time
                keep = times.searchsorted(self._window[0] * dt, side="right") - 1
                self._jumps, self._held = [(times[keep:].copy(), modes[keep:].copy())], len(times) - keep
            del times, modes
            yield t[new - lo :], out[new - lo :], states
            del out, states  # nor is it held here while the next block is computed


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
        """The ``GridWindows`` blocks of this pass's jumps in [0, t_end]: (times, modes, states).

        The jumps go in ``EVENT_BLOCK`` at a time, as ``simulate`` adds them,
        so that each window's leftover jumps are few.
        """
        grid, end = GridWindows(self.net, self.modes[0], sample_dt, size, first, physical), self.events + 1
        for k in range(1, end, EVENT_BLOCK):
            yield from grid.add(self.times[k : min(k + EVENT_BLOCK, end)],
                                self.modes[k : min(k + EVENT_BLOCK, end)])
        yield from grid.close()


def _streams(seed: int, n_laws: int) -> list:
    """One seed's generators: child 0 of ``SeedSequence(seed)`` for the waits, then one per input law."""
    return [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(1 + n_laws)]


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


def event_blocks(
    net: OscillatorNetwork,
    model: CollisionModel,
    tau_law,
    psi0: PhaseState,
    t_end: float,
    n_steps: int,
    seeds: tuple,
):
    """The event loop: each seed jumps until its first jump past t_end, and at least n_steps.

    Yields one (times, modes, steps, events) block per ``event_block``
    lockstep steps: the seeds' jump times (seeds, b) and post-jump mode
    states (seeds, b, 2 dof) of the block's b steps, then how many of them
    are each seed's (int arrays): its steps, and of those its events, the
    jumps in [0, t_end]. The rest are cut off. ``tau_law`` is a waiting-time
    law of :mod:`oscbath.laws`. Each seed draws from its own streams
    (``_streams``): a block's worth of waits, whose running sum from the
    seed's last jump time gives the jump times and so its steps, then as
    many inputs, one ``sample(rng, size=k)`` call per law of
    ``model.input_laws``, each from its own stream. Then all seeds step
    together, one event per step, from their last post-jump states
    (``_step_seeds``); a seed out of events rides along on a zero wait and a
    zero input. The blocks end when every seed is out of events; a block's
    arrays are refilled by the next, so a caller copies what it keeps.
    Aborts for the first listed seed whose state overflows, with the event
    index: "after event k at t=..." inside [0, t_end], "at step k" beyond
    it. No block is yielded from the first overflow on; only the seeds
    listed before it step on, until they are out of events.
    """
    _require_dim(net, model)
    n, width, dof = len(seeds), model.xi_dim, net.dof
    block = event_block(t_end, tau_law.mean, n_steps)
    streams = [_streams(seed, len(model.input_laws)) for seed in seeds]
    # one block's buffers, refilled by each block: fresh ones would be mapped and unmapped
    # by the allocator block after block, a page fault for each page
    taus, xis = np.empty((block, n)), np.empty((block, n, width))
    times, state_rows = np.zeros((n, block + 1)), np.empty(n * (block + 1) * 2 * dof)
    state = np.concatenate(net.to_modes(psi0.vector))  # each seed's last post-jump mode state
    live = np.ones(n, dtype=bool)  # the seeds with events to come
    done, abort = 0, None  # steps taken; the abort of the first listed seed found to overflow
    while live.any():
        taus.fill(0.0)
        xis.fill(0.0)
        for s in np.flatnonzero(live):
            taus[:, s] = tau_law.sample(streams[s][0], size=block)
        # the jump times, added up one wait at a time from each seed's last one, times[:, 0]
        times[:, 1:] = taus.T
        np.cumsum(times, axis=1, out=times)
        # each seed's events in [0, t_end], and its steps: those and any up to n_steps
        events = np.count_nonzero(times[:, 1:] <= t_end, axis=1) * live
        steps = np.maximum(events, min(max(n_steps - done, 0), block)) * live
        taus[np.arange(block)[:, None] >= steps] = 0.0
        for s in np.flatnonzero(steps):
            xis[: steps[s], s] = sample_columns(model.input_laws, streams[s][1:], steps[s])
        last, live = times[np.arange(n), steps], live & (steps == block)
        b = int(steps.max())
        if b == 0:
            break
        modes = state_rows[: n * (b + 1) * 2 * dof].reshape(n, b + 1, 2 * dof)  # contiguous
        modes[:, 0] = state
        _step_seeds(net, model, taus[:b], xis[:b], modes)
        bad = ~np.isfinite(modes[:, 1:]).all(axis=2) & (np.arange(b) < steps[:, None])
        overflowed = np.flatnonzero(bad.any(axis=1))  # all listed before any found so far
        if overflowed.size:
            s = overflowed[0]
            step = int(np.flatnonzero(bad[s])[0])
            t, step = times[s, step + 1], done + step + 1
            abort = (f"non-finite state at step {step}" if t > t_end else
                     f"non-finite state after event {step} at t={t:.6g}")
            live[s:] = False  # only a seed listed before it can change the abort
        state = modes[:, b].copy()
        if abort is None:
            yield times[:, 1 : b + 1], modes[:, 1:], steps, events
        times[:, 0] = last
        done += b
    if abort is not None:
        raise NumericalAbort(abort)


def event_passes(
    net: OscillatorNetwork,
    model: CollisionModel,
    tau_law,
    psi0: PhaseState,
    t_end: float,
    n_steps: int,
    seeds: tuple,
) -> list:
    """One ``EventPass`` per seed, in the order given: the blocks of ``event_blocks`` collected.

    The seeds' rows go into (seeds, steps + 1) arrays sized for the expected
    count (``event_estimate``) and grown by half when a run outlasts it, so
    the collected record is held once: blocks copied into a list and joined
    at the end would peak at twice the record.
    Aborts as ``event_blocks`` does.
    """
    size = max(n_steps, event_estimate(t_end, tau_law.mean)) + 1
    times, modes = np.zeros((len(seeds), size)), np.empty((len(seeds), size, 2 * net.dof))
    modes[:, 0] = np.concatenate(net.to_modes(psi0.vector))
    counts, events, done = np.zeros(len(seeds), dtype=int), np.zeros(len(seeds), dtype=int), 0
    for block_times, block_modes, steps, block_events in event_blocks(net, model, tau_law, psi0,
                                                                      t_end, n_steps, seeds):
        b = block_times.shape[1]
        if done + b >= times.shape[1]:  # a run outlasts the estimate
            grow = max(done + b + 1, times.shape[1] * 3 // 2) - times.shape[1]
            times = np.pad(times, ((0, 0), (0, grow)))
            modes = np.pad(modes, ((0, 0), (0, grow), (0, 0)))
        rows = slice(done + 1, done + b + 1)
        times[:, rows], modes[:, rows] = block_times, block_modes
        counts += steps
        events += block_events
        done += b
        del block_times, block_modes  # not held while the next block is computed
    passes = []
    for s, (seed, k) in enumerate(zip(seeds, counts)):
        passes.append(EventPass(net=net, modes=modes[s, : k + 1], times=times[s, : k + 1],
                                events=int(events[s]), seed=seed))
    return passes


def simulate_embedded(
    net: OscillatorNetwork,
    model: CollisionModel,
    tau_law,
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
    [run] = event_passes(net, model, tau_law, psi0, -np.inf, n_steps, (seed,))
    return run.chain(n_steps)


def simulate_continuous(
    net: OscillatorNetwork,
    model: CollisionModel,
    tau_law,
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
    [run] = event_passes(net, model, tau_law, psi0, t_end, 0, (seed,))
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
        """E H = F(sum_xx / n) / 2, with F the ``lyapunov_functional`` of the second moments."""
        return 0.5 * lyapunov_functional(self._average(self.sum_xx), net)


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
    tau_law,
    psi: PhaseState,
    n_mc: int = 10_000,
    seed: int = 0,
) -> DriftEstimate:
    """Estimate E{H(psi_1) | psi_0 = psi} - H(psi) over n_mc (tau, xi) draws.

    Energies after the jump are evaluated in mode coordinates (not through
    the energy-bookkeeping identity), so this is an independent check of
    the one-step energy drift. An overflow raises ``NumericalAbort``.
    """
    _require_dim(net, model)
    rng = np.random.default_rng(seed)
    h0 = energy(net, psi)
    qh, ph = net.to_modes(psi.vector)
    # all waiting times first, then the inputs, one block per input law
    taus = np.asarray(tau_law.sample(rng, size=n_mc), dtype=float)
    xi = sample_columns(model.input_laws, itertools.repeat(rng), n_mc)
    qh_t, ph_t = _mode_flow(qh, ph, net.mode_frequencies, net.mass, taus)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        change = energies(net, qh_t, _kick(net, model, ph_t, xi)) - h0
        mean_change, std_error = float(change.mean()), float(change.std(ddof=1) / np.sqrt(n_mc))
    if not (math.isfinite(mean_change) and math.isfinite(std_error)):
        raise NumericalAbort(f"the energy drift from H = {h0!r} overflows: "
                             "the kicked energies' spread exceeds the largest float")
    return DriftEstimate(energy_before=h0, mean_change=mean_change, std_error=std_error)


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
        # rows from i on belong to legs not reached yet and are still zero
        i = k * (1 + l)
        t_k, u_k = coords[i], coords[i + 1 : i + 1 + l]
        qh, ph = _mode_flow(qh, ph, omega, mass, t_k)
        tq[:i], tp[:i] = _mode_flow(tq[:i], tp[:i], omega, mass, t_k)
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
