"""The engine against the code it replaced, kept in ``_reference_engine``.

The single event pass, which draws each seed's waits and inputs in blocks,
must reproduce the former ``simulate_embedded`` and ``simulate_continuous``
loops, which draw the same streams one value per event, exactly
(``np.array_equal``): grid blocks,
chain states, jump times and event counts, and abort on the same event with
the same message, also at the edges of the loop's ``STEP_BLOCK`` blocks and
with seeds riding along after their last event. A jump applied to terms
computed for a block of inputs must give the one-call jump's bits.
The stacked jump maps must reproduce the former one-row maps row by row
(bitwise, except the ball's closed form: 1e-14 relative), and the batched
drift estimate the former per-draw loop. The exact reachability
Jacobian must agree with central differences of the former composed map.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_engine as ref
from oscbath.collisions import ContractiveAffine, OneDimElastic, TwoDimBall
from oscbath.errors import NumericalAbort
from oscbath.laws import (
    Exponential,
    GammaLaw,
    GaussianVelocity,
    IsotropicGaussianVector,
    TwoPointVelocity,
    UniformPositive,
    UniformSymmetricVelocity,
    sample_columns,
)
from oscbath.network import OscillatorNetwork, PhaseState, chain_stiffness, energy
from oscbath.pdmp import (
    GRID_BLOCK,
    STEP_BLOCK,
    GridWindows,
    _kick,
    _kick_rows,
    drift_estimate,
    event_estimate,
    grid_size,
    reachability_jacobian,
    simulate_continuous,
    simulate_embedded,
)


def _elastic():
    net = OscillatorNetwork(3, 1, 1.0, chain_stiffness(3))
    return net, OneDimElastic(external_mass=0.5), Exponential(rate=1.0)


def _affine():
    stiffness = np.kron(chain_stiffness(3, coupling=0.7, pinning=0.4), np.eye(2))
    stiffness[0, 1] = stiffness[1, 0] = 0.2  # couple x_1 and y_1
    net = OscillatorNetwork(3, 2, 1.3, stiffness)
    model = ContractiveAffine(reflection=np.array([[0.5, 0.2], [-0.1, 0.6]]))
    return net, model, UniformPositive(low=0.2, high=1.4)


def _ball():
    net = OscillatorNetwork(3, 2, 1.0, np.kron(chain_stiffness(3), np.eye(2)))
    return net, TwoDimBall(external_mass=0.5), GammaLaw(shape=2.0, rate=2.0)


def _elastic_with(law, tau_law):
    return lambda: (OscillatorNetwork(3, 1, 1.0, chain_stiffness(3)),
                    OneDimElastic(external_mass=0.5, velocity_law=law), tau_law)


def _affine_noisy():
    net, model, _ = _affine()
    noise = IsotropicGaussianVector(dim=2, sigma2=0.3)
    return net, ContractiveAffine(reflection=model.reflection, noise_law=noise), GammaLaw(1.5, 1.2)


def _ball_slow():
    net, _, _ = _ball()
    velocity = IsotropicGaussianVector(dim=2, sigma2=0.4)
    return net, TwoDimBall(external_mass=0.5, velocity_law=velocity), Exponential(rate=1.6)


# every law the config accepts, with non-unit sigma2, rate and shape among them
PAIRINGS = {
    "elastic-exponential": _elastic,
    "affine-uniform": _affine,
    "ball-gamma": _ball,
    "elastic-uniform-fast": _elastic_with(UniformSymmetricVelocity(half_width=1.6),
                                          Exponential(rate=2.5)),
    "elastic-two-point-gamma": _elastic_with(TwoPointVelocity(magnitude=0.8),
                                             GammaLaw(shape=0.6, rate=0.7)),
    "elastic-wide-gamma": _elastic_with(GaussianVelocity(sigma2=2.5), GammaLaw(shape=3.5, rate=4.0)),
    "affine-noisy-gamma": _affine_noisy,
    "ball-slow-exponential": _ball_slow,
}


def _psi0(net):
    rng = np.random.default_rng(99)
    return PhaseState(q=rng.standard_normal(net.dof), p=rng.standard_normal(net.dof))


class FixedTau:
    """Deterministic waiting times (test stub)."""

    def __init__(self, value):
        self.value = value
        self.mean = value

    def sample(self, rng, size=None):
        return self.value if size is None else np.full(size, self.value)


class MisstatedMean:
    """A waiting-time law whose declared mean is far too long (test stub)."""

    def __init__(self, law):
        self.law = law
        self.mean = 50.0 * law.mean

    def sample(self, rng, size=None):
        return self.law.sample(rng, size)


class InfAt:
    """Unit normal velocities of width ``dim``, except that draw ``k`` has an infinite last entry.

    A model takes it as its own velocity law (the affine map's noise law,
    ``_inf_at``), so the kick itself overflows the state; the ball's impact
    angle keeps its own law and stream. The reference loops draw one input
    per call, the engine a block of them; a vector law's block is its single
    draws.
    """

    def __init__(self, dim, k):
        self.dim = dim
        self.law = IsotropicGaussianVector(dim=dim)
        self.k = k
        self.inputs = 0

    def sample(self, rng, size=None):
        xi = self.law.sample(rng, size)
        rows = np.atleast_2d(xi)  # a view: one row per input
        first, self.inputs = self.inputs, self.inputs + len(rows)
        if first < self.k <= self.inputs:
            rows[self.k - 1 - first, -1] = np.inf
        return xi


def _inf_at(model, k):
    """``model`` with ``InfAt(model.dim, k)`` in its velocity law's field (the affine map's noise law's)."""
    field = "noise_law" if isinstance(model, ContractiveAffine) else "velocity_law"
    return dataclasses.replace(model, **{field: InfAt(model.dim, k)})


def _assert_run_matches(run, seed, net, model, tau_law, psi0, t_end, dt, n_steps):
    """One seed's ``ref.whole_passes`` run: its grid blocks and chain against the former loops."""
    times, modes, events = run
    old = ref.simulate_continuous(net, model, tau_law, psi0, t_end, dt, seed)
    old_chain = ref.simulate_embedded(net, model, tau_law, psi0, n_steps, seed)
    assert events == old.events
    grid, start = GridWindows(net, modes[0], dt, grid_size(t_end, dt), physical=True), 0
    jumps = grid.add(times[1 : events + 1], modes[1 : events + 1])
    for block_times, block_modes, states in itertools.chain(jumps, grid.close()):
        assert 0 < len(block_times) == len(block_modes) == len(states) <= GRID_BLOCK
        assert np.array_equal(block_times, old.times[start : start + len(block_times)])
        assert np.array_equal(states, old.states[start : start + len(block_times)])
        start += len(block_times)
    assert start == len(old.times)
    rows, dof = modes[: n_steps + 1], net.dof
    assert np.array_equal(net.from_modes(rows[:, :dof], rows[:, dof:]), old_chain.states)
    assert np.array_equal(times[1 : n_steps + 1], old_chain.jump_times)
    return old, old_chain


def _assert_same(net, model, tau_law, psi0, t_end, dt, n_steps, seed):
    """One pass's grid blocks and chain against the former loops, and the library's own.

    Returns the ``simulate_continuous`` and ``simulate_embedded`` results.
    """
    [run] = ref.whole_passes(net, model, tau_law, psi0, t_end, n_steps, (seed,))
    old, old_chain = _assert_run_matches(run, seed, net, model, tau_law, psi0, t_end, dt, n_steps)
    alone = simulate_embedded(net, model, tau_law, psi0, n_steps, seed)
    assert np.array_equal(alone.states, old_chain.states)
    assert np.array_equal(alone.jump_times, old_chain.jump_times)
    plain = simulate_continuous(net, model, tau_law, psi0, t_end, dt, seed)
    assert plain.events == old.events
    assert np.array_equal(plain.times, old.times)
    assert np.array_equal(plain.states, old.states)
    return plain, alone


@pytest.mark.parametrize("pairing", sorted(PAIRINGS))
@pytest.mark.parametrize("seed", [0, 7])
def test_pass_matches_reference_loops(pairing, seed):
    net, model, tau_law = PAIRINGS[pairing]()
    # the chain ends inside [0, t_end]; t_end is not a multiple of sample_dt
    run, chain = _assert_same(net, model, tau_law, _psi0(net), 60.3, 0.25, 20, seed)
    assert run.events > 20
    assert chain.jump_times[-1] <= 60.3


@pytest.mark.parametrize("pairing", sorted(PAIRINGS))
def test_chain_runs_past_the_horizon(pairing):
    net, model, tau_law = PAIRINGS[pairing]()
    run, chain = _assert_same(net, model, tau_law, _psi0(net), 7.7, 0.3, 60, seed=3)
    assert run.events < 60
    assert chain.jump_times[-1] > 7.7


@pytest.mark.parametrize("pairing", sorted(PAIRINGS))
def test_grid_times_on_jump_times_are_right_continuous(pairing):
    net, model, _ = PAIRINGS[pairing]()
    run, _ = _assert_same(net, model, FixedTau(0.5), _psi0(net), 10.0, 0.25, 5, seed=1)
    assert run.events == 20  # the jump at t = t_end counts


@pytest.mark.parametrize("pairing", sorted(PAIRINGS))
def test_multi_block_grid_matches(pairing):
    net, model, tau_law = PAIRINGS[pairing]()
    t_end, dt = 1000.0, 0.1
    assert int(t_end / dt) + 1 > 2 * GRID_BLOCK  # several blocks and a short tail
    _assert_same(net, model, tau_law, _psi0(net), t_end, dt, 100, seed=5)


@pytest.mark.parametrize("pairing", sorted(PAIRINGS))
def test_jump_arrays_grow_past_the_expected_count(pairing):
    net, model, tau_law = PAIRINGS[pairing]()
    misstated = MisstatedMean(tau_law)
    run, _ = _assert_same(net, model, misstated, _psi0(net), 200.0, 0.25, 30, seed=2)
    # the waits' stream is extended at least twice past its first block
    assert run.events > 2 * max(30 + 1, event_estimate(200.0, misstated.mean))


@pytest.mark.parametrize("pairing", sorted(PAIRINGS))
@pytest.mark.parametrize("steps", [STEP_BLOCK - 1, STEP_BLOCK, STEP_BLOCK + 1, 3 * STEP_BLOCK + 5])
def test_step_block_edges_match_reference_loops(pairing, steps):
    # three seeds with unequal event counts, so seeds ride along after their last event
    net, model, tau_law = PAIRINGS[pairing]()
    psi0, seeds = _psi0(net), (0, 1, 2)
    long = ref.whole_passes(net, model, tau_law, psi0, -np.inf, steps + 1, seeds)
    # a horizon by which the seed that jumps most has made `steps` jumps
    t_end = 0.5 * (min(times[steps] for times, _, _ in long) +
                   min(times[steps + 1] for times, _, _ in long))
    runs = ref.whole_passes(net, model, tau_law, psi0, t_end, 0, seeds)
    counts = [len(times) - 1 for times, _, _ in runs]
    assert max(counts) == steps and len(set(counts)) > 1
    for seed, run, count in zip(seeds, runs, counts):
        assert run[2] == count
        _assert_run_matches(run, seed, net, model, tau_law, psi0, t_end, 0.5, count)


def _message(fn):
    with pytest.raises(NumericalAbort) as info:
        fn()
    return str(info.value)


def _reference_seed(net, model_for, tau_law, psi0, t_end, dt, n_steps):
    """The former per-seed order: the grid run, then the chain run."""
    ref.simulate_continuous(net, model_for(), tau_law, psi0, t_end, dt, 4)
    ref.simulate_embedded(net, model_for(), tau_law, psi0, n_steps, 4)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("pairing", sorted(PAIRINGS))
@pytest.mark.parametrize("k", [1, 3, 30])
def test_abort_reports_the_same_event(pairing, k):
    # k = 1 lies inside [0, t_end = 8] and k = 30 past it, inside the 40-step chain;
    # k = 3 lies on either side, by the seed's event count
    net, model, tau_law = PAIRINGS[pairing]()
    psi0 = _psi0(net)
    events = ref.simulate_continuous(net, model, tau_law, psi0, 8.0, 0.25, 4).events
    assert 1 <= events < 30

    def inf_model():
        return _inf_at(model, k)

    expected = _message(lambda: _reference_seed(net, inf_model, tau_law, psi0, 8.0, 0.25, 40))
    got = _message(lambda: ref.whole_passes(net, inf_model(), tau_law, psi0, 8.0, 40, (4,)))
    assert got == expected
    if k <= events:
        assert got == _message(
            lambda: ref.simulate_continuous(net, inf_model(), tau_law, psi0, 8.0, 0.25, 4)
        )
        assert "after event" in got
    else:
        assert got.endswith(f"at step {k}")
    assert _message(
        lambda: simulate_embedded(net, inf_model(), tau_law, psi0, 40, 4)
    ) == _message(lambda: ref.simulate_embedded(net, inf_model(), tau_law, psi0, 40, 4))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("pairing", sorted(PAIRINGS))
def test_abort_in_a_later_step_block_reports_the_same_event(pairing):
    k = STEP_BLOCK + 7  # in the second block of steps, past t_end = 8
    net, model, tau_law = PAIRINGS[pairing]()
    psi0 = _psi0(net)

    def inf_model():
        return _inf_at(model, k)

    n_steps = 2 * STEP_BLOCK
    expected = _message(lambda: _reference_seed(net, inf_model, tau_law, psi0, 8.0, 0.25, n_steps))
    got = _message(lambda: ref.whole_passes(net, inf_model(), tau_law, psi0, 8.0, n_steps, (4,)))
    assert got == expected
    assert got.endswith(f"at step {k}")


# --- stacked jump maps against the one-row maps -----------------------------------


def _stack(model, n, seed):
    rng = np.random.default_rng(seed)
    xi = sample_columns(model.input_laws, itertools.repeat(rng), n)
    p1 = 3.0 * rng.standard_normal((n, model.dim))
    return xi, p1


@pytest.mark.parametrize("pairing", sorted(PAIRINGS))
def test_stacked_jump_matches_the_one_row_maps(pairing):
    _, model, _ = PAIRINGS[pairing]()
    mass = 1.3
    xi, p1 = _stack(model, 500, seed=11)
    stacked = model.jump(xi, p1, mass)
    assert stacked.shape == p1.shape
    rows = np.array([ref.jump(model, x, p, mass) for x, p in zip(xi, p1)])
    if isinstance(model, TwoDimBall):
        # closed form p + (1 - alpha)(M v.r - p.r) r against G_alpha(phi) p + M c_alpha R(phi)
        a = model.alpha(mass)
        r = np.column_stack([np.cos(xi[:, 0]), np.sin(xi[:, 0])])
        matrix_form = np.array([
            ref.impact_matrix(a, x[0]) @ p + mass * (1.0 - a) * (x[1:] @ rr) * rr
            for x, p, rr in zip(xi, p1, r)
        ])
        scale = np.abs(p1).max() + mass * np.abs(xi[:, 1:]).max()
        assert np.abs(stacked - rows).max() <= 1e-14 * scale
        assert np.abs(stacked - matrix_form).max() <= 1e-14 * scale
    else:
        assert np.array_equal(stacked, rows)
    # a single row still goes in as vectors, and a scalar as a length-1 vector
    assert np.array_equal(model.jump(xi[3], p1[3], mass), stacked[3])
    with pytest.raises(ValueError):
        model.jump(xi[:, :-1] if model.xi_dim > 1 else np.ones((500, 2)), p1, mass)
    with pytest.raises(ValueError):
        model.jump(xi, np.ones((500, model.dim + 1)), mass)


def test_scalar_jump_call():
    out = OneDimElastic(external_mass=0.5).jump(0.1, 1.0, 1.0)
    assert out.shape == (1,)
    assert out[0] == ref.jump(OneDimElastic(external_mass=0.5), 0.1, 1.0, 1.0)[0]


@pytest.mark.parametrize("pairing", sorted(PAIRINGS))
def test_stacked_kick_matches_row_kicks(pairing):
    net, model, _ = PAIRINGS[pairing]()
    rng = np.random.default_rng(5)
    ph = rng.standard_normal((200, net.dof))
    xi = sample_columns(model.input_laws, itertools.repeat(rng), 200)
    stacked = _kick(net, model, ph, xi)
    rows = np.array([_kick(net, model, p, x) for p, x in zip(ph, xi)])
    assert np.abs(stacked - rows).max() <= 1e-14 * np.abs(ph).max()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(PAIRINGS)), st.booleans(), st.integers(1, 40),
       st.integers(0, 2**32 - 1), st.floats(0.6, 3.0))
def test_jump_is_its_apply_on_block_terms(pairing, override, n, seed, mass):
    # the event loop computes jump terms for a block of inputs and kicks one
    # step at a time; both must give the bits of the one-call jump and kick
    net, model, _ = PAIRINGS[pairing]()
    rng = np.random.default_rng(seed)
    # override: wide Gaussian values in every entry, the ball's angle among them
    xi = (rng.normal(0.0, 3.0, size=(n, model.xi_dim)) if override
          else sample_columns(ref._input_laws(model), itertools.repeat(rng), n))
    p1 = 3.0 * rng.standard_normal((n, model.dim))
    terms = model.jump_terms(xi, mass)
    for x, p, t in zip(xi, p1, terms):
        assert np.array_equal(model.jump(x, p, mass).view(np.uint64),
                              model.jump_apply(t, p, mass).view(np.uint64))
    ph = 3.0 * rng.standard_normal((n, net.dof))
    rows = model.jump_terms(xi[:, None, :], net.mass)
    stepped = _kick_rows(model, net.contact_modes, net.mass, ph[:, None, :], rows)[:, 0]
    one_by_one = np.array([_kick(net, model, p, x) for p, x in zip(ph, xi)])
    assert np.array_equal(stepped.view(np.uint64), one_by_one.view(np.uint64))


# --- batched Monte Carlo against the per-draw loops ---------------------------------


def _state_at(net, h, rng):
    vec = rng.standard_normal(2 * net.dof)
    psi = PhaseState(q=vec[: net.dof], p=vec[net.dof :])
    scale = np.sqrt(h / energy(net, psi))
    return PhaseState(q=scale * psi.q, p=scale * psi.p)


def test_drift_estimate_matches_the_per_draw_loop_on_one_oscillator():
    # the drift-check physics of configs/oscillator1.json
    net = OscillatorNetwork(1, 1, 1.0, np.array([[1.0]]))
    model, tau_law = OneDimElastic(external_mass=0.5), Exponential(rate=1.0)
    rng = np.random.default_rng(7)
    for i, h in enumerate(np.exp(np.linspace(np.log(1e3), np.log(1e4), 4))):
        psi = _state_at(net, h, rng)
        new = drift_estimate(net, model, tau_law, psi, n_mc=3000, seed=7 + i)
        old = ref.drift_estimate(net, model, tau_law, psi, n_mc=3000, seed=7 + i)
        assert new.energy_before == old.energy_before
        assert new.mean_change == old.mean_change
        assert new.std_error == old.std_error


@pytest.mark.parametrize("pairing", sorted(PAIRINGS))
def test_drift_estimate_matches_the_per_draw_loop(pairing):
    net, model, tau_law = PAIRINGS[pairing]()
    psi = _state_at(net, 2e3, np.random.default_rng(3))
    new = drift_estimate(net, model, tau_law, psi, n_mc=2000, seed=4)
    old = ref.drift_estimate(net, model, tau_law, psi, n_mc=2000, seed=4)
    assert new.energy_before == pytest.approx(old.energy_before, rel=1e-14)
    # the kick is bitwise per row; only the energy sums round differently
    assert new.mean_change == pytest.approx(
        old.mean_change, rel=1e-12, abs=1e-12 * old.energy_before
    )
    assert new.std_error == pytest.approx(old.std_error, rel=1e-12)


# --- exact reachability Jacobian against finite differences ---------------------------


@pytest.mark.parametrize(
    "net, model",
    [
        (OscillatorNetwork(3, 1, 1.0, chain_stiffness(3)), OneDimElastic(external_mass=0.5)),
        (OscillatorNetwork(6, 1, 1.0, chain_stiffness(6)), OneDimElastic(external_mass=0.5)),
        (OscillatorNetwork(3, 2, 1.0, np.kron(chain_stiffness(3), np.eye(2))),
         TwoDimBall(external_mass=0.5)),
    ],
    ids=["chain3", "chain6", "ball-chain3"],
)
def test_reachability_jacobian_matches_central_differences(net, model):
    l = model.xi_dim
    m = 2 * net.dof // (1 + model.dim) + 3
    rng = np.random.default_rng(5)
    point = np.column_stack([rng.uniform(0.5, 1.5, m), rng.standard_normal((m, l))]).ravel()
    psi0 = _psi0(net)
    exact = reachability_jacobian(net, model, psi0, m, point)
    differenced = ref.finite_difference_jacobian(net, model, psi0, m, point, h=1e-7, central=True)
    assert exact.shape == differenced.shape == (2 * net.dof, m * (1 + l))
    assert np.abs(exact - differenced).max() <= 1e-6 * np.abs(exact).max()


@pytest.mark.parametrize("legs", [7, 15, 250])
def test_reachability_jacobian_moves_only_reached_rows(legs):
    """Leaving the rows of legs not yet reached alone changes no bit.

    The flow acts row by row, and the kick adds exact zeros to the rows
    still zero, on chains and on the ball alike.
    """
    rng = np.random.default_rng(legs)
    cases = [
        (OscillatorNetwork(6, 1, 1.0, chain_stiffness(6)), OneDimElastic(external_mass=0.5)),
        (OscillatorNetwork(6, 2, 1.0, np.kron(chain_stiffness(6), np.eye(2))),
         TwoDimBall(external_mass=0.5)),
    ]
    for net, model in cases:
        l = model.xi_dim
        point = np.column_stack([rng.uniform(0.5, 1.5, legs), rng.standard_normal((legs, l))]).ravel()
        psi0 = _psi0(net)
        new = reachability_jacobian(net, model, psi0, legs, point)
        old = ref.all_rows_reachability_jacobian(net, model, psi0, legs, point)
        assert np.array_equal(new, old)
