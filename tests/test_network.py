import numpy as np
import pytest

from _reference_engine import flow_matrix, propagate
from oscbath.network import (
    OscillatorNetwork,
    PhaseState,
    chain_stiffness,
    energies,
    energy,
    generator_matrix,
)
from oscbath.spectral import random_pd_matrix


def single_oscillator(omega2=1.0, mass=1.0):
    return OscillatorNetwork(1, 1, mass, np.array([[omega2]]))


def random_network(seed, max_order=4):
    rng = np.random.default_rng(seed)
    order = int(rng.integers(1, max_order + 1))
    mass = float(rng.uniform(0.5, 3.0))
    return OscillatorNetwork(order, 1, mass, random_pd_matrix(order, seed))


def random_state(net, seed):
    rng = np.random.default_rng(seed)
    return PhaseState(q=rng.standard_normal(net.dof), p=rng.standard_normal(net.dof))


# --- energy -----------------------------------------------------------------


def test_energy_zero_state():
    net = single_oscillator(4.0)
    assert energy(net, PhaseState.zero(1)) == 0.0


def test_energy_potential_only():
    net = single_oscillator(4.0)
    assert energy(net, PhaseState(q=[1.0], p=[0.0])) == pytest.approx(2.0)


def test_energy_kinetic_only_with_mass():
    net = single_oscillator(1.0, mass=2.0)
    assert energy(net, PhaseState(q=[0.0], p=[2.0])) == pytest.approx(1.0)


def test_energy_dimension_mismatch():
    net = single_oscillator()
    with pytest.raises(ValueError):
        energy(net, PhaseState(q=[0.0, 0.0], p=[0.0, 0.0]))


@pytest.mark.parametrize("dim", [1, 2])
def test_mode_energies_match_the_physical_formula(dim):
    # H = (1/2) sum lambda_i qh_i^2 + |ph|^2/(2M) against (1/2) q^T V q + |p|^2/(2M)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n, mass = int(rng.integers(1, 6)), float(rng.uniform(0.5, 3.0))
        net = OscillatorNetwork(n, dim, mass, random_pd_matrix(n * dim, seed))
        dof = net.dof
        x = rng.standard_normal((60, 2 * dof))
        x[:10, dof:] = 0.0  # potential only
        x[10:20, :dof] = 0.0  # kinetic only
        q, p = x[:, :dof], x[:, dof:]
        reference = 0.5 * ((q @ net.stiffness) * q).sum(axis=1) + (p * p).sum(axis=1) / (2.0 * mass)
        h = energies(net, *net.to_modes(x))
        assert np.all(np.abs(h - reference) <= 1e-12 * reference)
        assert np.all(h >= 0.0)
        # along the softest mode q^T V q is all cancellation; the mode formula stays >= 0
        soft = np.outer(rng.standard_normal(20), net.spectrum.eigenvectors[:, 0])
        assert np.all(energies(net, *net.to_modes(np.hstack([soft, np.zeros_like(soft)]))) >= 0.0)


# --- propagate --------------------------------------------------------------


def test_propagate_time_zero_is_identity():
    net = random_network(3)
    psi = random_state(net, 4)
    moved = propagate(net, psi, 0.0)
    assert np.array_equal(moved.q, psi.q)
    assert np.array_equal(moved.p, psi.p)


def test_propagate_quarter_period_rotation():
    net = single_oscillator(1.0)
    moved = propagate(net, PhaseState(q=[1.0], p=[0.0]), np.pi / 2)
    assert moved.q[0] == pytest.approx(0.0, abs=1e-15)
    assert moved.p[0] == pytest.approx(-1.0)


@pytest.mark.parametrize("mass", [1.0, 2.5])
def test_propagate_full_period_restores_state(mass):
    omega2 = 3.0
    net = single_oscillator(omega2, mass=mass)
    psi = PhaseState(q=[0.3], p=[-1.1])
    period = 2 * np.pi / np.sqrt(omega2 / mass)
    back = propagate(net, psi, period)
    assert abs(back.q[0] - psi.q[0]) < 1e-10
    assert abs(back.p[0] - psi.p[0]) < 1e-10


def test_energy_conserved_along_flow():
    for seed in range(15):
        net = random_network(seed, max_order=8)
        psi = random_state(net, 100 + seed)
        h0 = energy(net, psi)
        rng = np.random.default_rng(200 + seed)
        for t in rng.uniform(0.0, 100.0, size=5):
            h = energy(net, propagate(net, psi, float(t)))
            assert abs(h - h0) <= 1e-9 * (1.0 + h0)


def test_group_property():
    for seed in range(10):
        net = random_network(seed)
        psi = random_state(net, 50 + seed)
        rng = np.random.default_rng(seed)
        s, t = rng.uniform(0.0, 10.0, size=2)
        two_leg = propagate(net, propagate(net, psi, s), t).vector
        one_leg = propagate(net, psi, s + t).vector
        scale = np.abs(one_leg).max() + 1.0
        assert np.abs(two_leg - one_leg).max() <= 1e-9 * scale


def test_linearity():
    net = random_network(7)
    psi1, psi2 = random_state(net, 1), random_state(net, 2)
    a, b = 0.62, -1.75
    combo = PhaseState(q=a * psi1.q + b * psi2.q, p=a * psi1.p + b * psi2.p)
    t = 3.7
    lhs = propagate(net, combo, t).vector
    rhs = a * propagate(net, psi1, t).vector + b * propagate(net, psi2, t).vector
    assert np.abs(lhs - rhs).max() <= 1e-10 * (1.0 + np.abs(rhs).max())


def test_negative_time_inverts_flow():
    net = random_network(9)
    psi = random_state(net, 9)
    roundtrip = propagate(net, propagate(net, psi, 2.3), -2.3)
    assert np.abs(roundtrip.vector - psi.vector).max() < 1e-12


# --- mode basis ---------------------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2])
def test_mode_basis_rows_match_the_stacked_call_and_round_trip(dim):
    net = OscillatorNetwork(3, dim, 1.5, np.kron(random_pd_matrix(3, 4), np.eye(dim)))
    modes, dof = net.spectrum.eigenvectors, net.dof
    x = np.random.default_rng(2).standard_normal((40, 2 * dof))
    qh, ph = net.to_modes(x)
    back = net.from_modes(qh, ph)
    scale = np.abs(x).max()
    for k in (0, 17, 39):
        qh_k, ph_k = net.to_modes(x[k])
        # one vector takes the matrix-vector product Q^T v bit for bit; a
        # stack goes through matrix-matrix kernels that may sum in another order
        assert np.array_equal(qh_k, modes.T @ x[k, :dof])
        assert np.array_equal(ph_k, modes.T @ x[k, dof:])
        assert np.abs(np.concatenate([qh_k - qh[k], ph_k - ph[k]])).max() <= 1e-15 * scale
        assert np.abs(net.from_modes(qh_k, ph_k) - back[k]).max() <= 1e-15 * scale
    assert np.abs(back - x).max() <= 1e-14 * scale
    sites = list(net.contact_sites)
    assert np.array_equal(net.contact_modes, net.spectrum.eigenvectors[sites])


# --- generator and flow matrix ----------------------------------------------


def test_generator_single_oscillator():
    net = single_oscillator(1.0)
    assert np.array_equal(generator_matrix(net), [[0.0, 1.0], [-1.0, 0.0]])


def test_generator_matches_flow_derivative():
    net = random_network(12)
    psi = random_state(net, 12)
    a = generator_matrix(net)
    exact = a @ psi.vector
    errs = []
    for h in (1e-3, 5e-4):
        fd = (propagate(net, psi, h).vector - psi.vector) / h
        errs.append(np.abs(fd - exact).max())
    assert errs[0] <= 1e-2
    # one-sided difference converges at first order
    assert errs[1] <= 0.7 * errs[0]


def test_generator_square_q_block():
    net = random_network(21)
    a = generator_matrix(net)
    a2 = a @ a
    dof = net.dof
    assert np.allclose(a2[:dof, :dof], -net.stiffness / net.mass, atol=1e-12)
    assert np.allclose(a2[dof:, dof:], -net.stiffness / net.mass, atol=1e-12)


def test_flow_matrix_matches_propagate():
    net = random_network(31)
    psi = random_state(net, 31)
    t = 1.234
    assert np.allclose(
        flow_matrix(net, t) @ psi.vector, propagate(net, psi, t).vector, atol=1e-12
    )


def test_flow_is_symplectic():
    for seed in range(10):
        net = random_network(seed, max_order=6)
        dof = net.dof
        s = np.zeros((2 * dof, 2 * dof))
        s[:dof, dof:] = np.eye(dof)
        s[dof:, :dof] = -np.eye(dof)
        rng = np.random.default_rng(seed)
        phi = flow_matrix(net, float(rng.uniform(0.0, 20.0)))
        assert np.abs(phi.T @ s @ phi - s).max() <= 1e-9


# --- construction and validation ---------------------------------------------


def test_chain_stiffness_layout():
    v = chain_stiffness(3, coupling=1.0, pinning=0.5)
    assert np.allclose(np.diag(v), 2.5)
    assert v[0, 1] == v[1, 0] == -1.0
    assert v[0, 2] == 0.0
    assert np.linalg.eigvalsh(v)[0] > 0


def test_network_rejects_indefinite_stiffness():
    with pytest.raises(ValueError):
        OscillatorNetwork(2, 1, 1.0, np.diag([1.0, -1.0]))


def test_network_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        OscillatorNetwork(3, 1, 1.0, np.eye(2))


def test_network_rejects_zero_mode():
    with pytest.raises(ValueError):
        OscillatorNetwork(2, 1, 1.0, np.diag([1.0, 0.0]))


def test_phase_state_rejects_nonfinite():
    with pytest.raises(ValueError):
        PhaseState(q=[np.nan], p=[0.0])
    with pytest.raises(ValueError):
        PhaseState(q=[0.0, 1.0], p=[0.0])


def test_phase_state_vector_roundtrip():
    psi = PhaseState(q=[1.0, 2.0], p=[3.0, 4.0])
    again = PhaseState.from_vector(psi.vector)
    assert np.array_equal(again.q, psi.q)
    assert np.array_equal(again.p, psi.p)
