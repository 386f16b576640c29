"""The single event pass against the two loops it replaced, bit for bit.

``_reference_engine`` keeps the former ``simulate_embedded`` and
``simulate_continuous`` loops verbatim. The single pass must reproduce their
states, jump times and event counts exactly (``np.array_equal``), and abort
on the same event with the same message.
"""

import numpy as np
import pytest

import _reference_engine as ref
from oscbath.collisions import ContractiveAffine, OneDimElastic, TwoDimBall
from oscbath.errors import NumericalAbort
from oscbath.laws import Exponential, GammaLaw, UniformPositive
from oscbath.network import OscillatorNetwork, PhaseState, chain_stiffness
from oscbath.pdmp import GRID_BLOCK, EventSchedule, simulate_continuous, simulate_embedded


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


PAIRINGS = {"elastic-exponential": _elastic, "affine-uniform": _affine, "ball-gamma": _ball}


def _psi0(net):
    rng = np.random.default_rng(99)
    return PhaseState(q=rng.standard_normal(net.dof), p=rng.standard_normal(net.dof))


class FixedTau:
    """Deterministic waiting times (test stub)."""

    def __init__(self, value):
        self.value = value
        self.mean = value

    def sample(self, rng, size=None):
        return self.value


class MisstatedMean:
    """A waiting-time law whose declared mean is far too long (test stub)."""

    def __init__(self, law):
        self.law = law
        self.mean = 50.0 * law.mean

    def sample(self, rng, size=None):
        return self.law.sample(rng, size)


class InfAt:
    """The model's own input law, except that draw ``k`` has an infinite last entry.

    The last entry is a velocity component for every model (never the ball's
    impact angle, whose cosine would raise before the state is checked).
    """

    def __init__(self, model, k):
        self.model = model
        self.k = k
        self.draws = 0

    def sample(self, rng):
        self.draws += 1
        xi = self.model.sample_input(rng)
        if self.draws == self.k:
            xi[-1] = np.inf
        return xi


def _assert_same(net, model, sched, psi0, t_end, dt, n_steps, seed):
    new = simulate_continuous(net, model, sched, psi0, t_end, dt, seed, n_steps=n_steps)
    old = ref.simulate_continuous(net, model, sched, psi0, t_end, dt, seed)
    old_chain = ref.simulate_embedded(net, model, sched, psi0, n_steps, seed)
    assert new.events == old.events
    assert np.array_equal(new.times, old.times)
    assert np.array_equal(new.states, old.states)
    assert np.array_equal(new.chain.states, old_chain.states)
    assert np.array_equal(new.chain.jump_times, old_chain.jump_times)
    alone = simulate_embedded(net, model, sched, psi0, n_steps, seed)
    assert np.array_equal(alone.states, old_chain.states)
    assert np.array_equal(alone.jump_times, old_chain.jump_times)
    plain = simulate_continuous(net, model, sched, psi0, t_end, dt, seed)
    assert plain.chain is None
    assert np.array_equal(plain.states, old.states)
    return new


@pytest.mark.parametrize("pairing", sorted(PAIRINGS))
@pytest.mark.parametrize("seed", [0, 7])
def test_pass_matches_reference_loops(pairing, seed):
    net, model, tau_law = PAIRINGS[pairing]()
    sched = EventSchedule(tau_law=tau_law)
    # the chain ends inside [0, t_end]; t_end is not a multiple of sample_dt
    new = _assert_same(net, model, sched, _psi0(net), 60.3, 0.25, 20, seed)
    assert new.events > 20
    assert new.chain.jump_times[-1] <= 60.3


@pytest.mark.parametrize("pairing", sorted(PAIRINGS))
def test_chain_runs_past_the_horizon(pairing):
    net, model, tau_law = PAIRINGS[pairing]()
    sched = EventSchedule(tau_law=tau_law)
    new = _assert_same(net, model, sched, _psi0(net), 7.7, 0.3, 60, seed=3)
    assert new.events < 60
    assert new.chain.jump_times[-1] > 7.7


@pytest.mark.parametrize("pairing", sorted(PAIRINGS))
def test_grid_times_on_jump_times_are_right_continuous(pairing):
    net, model, _ = PAIRINGS[pairing]()
    sched = EventSchedule(tau_law=FixedTau(0.5))
    new = _assert_same(net, model, sched, _psi0(net), 10.0, 0.25, 5, seed=1)
    assert new.events == 20  # the jump at t = t_end counts


@pytest.mark.parametrize("pairing", sorted(PAIRINGS))
def test_multi_block_grid_matches(pairing):
    net, model, tau_law = PAIRINGS[pairing]()
    sched = EventSchedule(tau_law=tau_law)
    t_end, dt = 1000.0, 0.1
    assert int(t_end / dt) + 1 > 2 * GRID_BLOCK  # several blocks and a short tail
    _assert_same(net, model, sched, _psi0(net), t_end, dt, 100, seed=5)


@pytest.mark.parametrize("pairing", sorted(PAIRINGS))
def test_jump_arrays_grow_past_the_expected_count(pairing):
    net, model, tau_law = PAIRINGS[pairing]()
    sched = EventSchedule(tau_law=MisstatedMean(tau_law))
    new = _assert_same(net, model, sched, _psi0(net), 200.0, 0.25, 30, seed=2)
    assert new.events > 16 + 200.0 / sched.tau_law.mean + 1


def _message(fn):
    with pytest.raises(NumericalAbort) as info:
        fn()
    return str(info.value)


def _reference_seed(net, model, sched_for, psi0, t_end, dt, n_steps):
    """The former per-seed order: the grid run, then the chain run."""
    ref.simulate_continuous(net, model, sched_for(), psi0, t_end, dt, 4)
    ref.simulate_embedded(net, model, sched_for(), psi0, n_steps, 4)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("pairing", sorted(PAIRINGS))
@pytest.mark.parametrize("k", [1, 3, 30])
def test_abort_reports_the_same_event(pairing, k):
    # k = 30 lies past t_end = 8 and inside the 40-step chain
    net, model, tau_law = PAIRINGS[pairing]()
    psi0 = _psi0(net)

    def sched():
        return EventSchedule(tau_law=tau_law, xi_law=InfAt(model, k))

    expected = _message(lambda: _reference_seed(net, model, sched, psi0, 8.0, 0.25, 40))
    got = _message(
        lambda: simulate_continuous(net, model, sched(), psi0, 8.0, 0.25, 4, n_steps=40)
    )
    assert got == expected
    if k <= 3:
        assert got == _message(
            lambda: ref.simulate_continuous(net, model, sched(), psi0, 8.0, 0.25, 4)
        )
        assert "after event" in got
    else:
        assert got.endswith(f"at step {k}")
    assert _message(
        lambda: simulate_embedded(net, model, sched(), psi0, 40, 4)
    ) == _message(lambda: ref.simulate_embedded(net, model, sched(), psi0, 40, 4))
