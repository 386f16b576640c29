import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_covariance as rk4
from _ensembles import random_complete_network, random_moment_params
from _reference_engine import flow_matrix, propagate
from oscbath import cli, covariance
from oscbath.cli import main, run_covariance
from oscbath.config import load_config
from oscbath.covariance import (
    ANCHOR_STRIDE,
    MAX_DOF,
    PSD_GUARD_TOL,
    MomentParams,
    beta_from_params,
    covariance_rhs,
    damped_generator,
    energy_norm,
    expm,
    gibbs_covariance,
    integrate_covariance,
    lyapunov_functional,
    lyapunov_to_csv,
    mean_dynamics,
    moment_generator,
    spectral_abscissa,
)
from oscbath.dissipative import neutral_subspace_basis
from oscbath.errors import NumericalAbort
from oscbath.laws import Exponential, GaussianVelocity
from oscbath.collisions import OneDimElastic
from oscbath.network import (
    OscillatorNetwork,
    PhaseState,
    chain_stiffness,
    generator_matrix,
)
from oscbath.pdmp import simulate_continuous
from oscbath.spectral import krylov_basis


def chain3_net():
    return OscillatorNetwork(3, 1, 1.0, chain_stiffness(3))


def lyapunov_rate(c, net, params):
    """Analytic dF/dt along the homogeneous flow: -lam (1-alpha^2)/M * C[g, g]."""
    return -params.lam * (1.0 - params.alpha**2) / params.mass * float(c[net.dof, net.dof])


STANDARD = MomentParams(lam=1.0, alpha=1.0 / 3.0, sigma2=1.0, mass=1.0)
#: STANDARD without noise: its covariance equation is the homogeneous one
HOMOGENEOUS = dataclasses.replace(STANDARD, sigma2=0.0)


# --- beta ---------------------------------------------------------------------


def test_beta_alpha_to_zero_limit():
    params = MomentParams(lam=1.0, alpha=1e-9, sigma2=1.0, mass=1.0)
    assert beta_from_params(params) == pytest.approx(1.0, abs=1e-8)


def test_beta_equals_inverse_external_mass_times_sigma2():
    # with M=1, m=1/2: alpha=1/3 and beta = 2 = 1/(m sigma2)
    beta = beta_from_params(STANDARD)
    assert beta == pytest.approx(2.0)
    assert beta == pytest.approx(1.0 / (0.5 * 1.0))


def test_beta_general_mass():
    params = MomentParams(lam=1.0, alpha=1.0 / 3.0, sigma2=0.5, mass=2.0)
    assert beta_from_params(params) == pytest.approx(2.0)


def test_beta_rejects_zero_noise():
    with pytest.raises(ValueError):
        beta_from_params(MomentParams(lam=1.0, alpha=0.5, sigma2=0.0, mass=1.0))


def test_moment_params_validation():
    with pytest.raises(ValueError):
        MomentParams(lam=-1.0, alpha=0.5, sigma2=1.0)
    with pytest.raises(ValueError):
        MomentParams(lam=1.0, alpha=1.0, sigma2=1.0)
    with pytest.raises(ValueError):
        MomentParams(lam=1.0, alpha=0.5, sigma2=1.0, mass=0.0)


# --- Gibbs covariance ------------------------------------------------------------


def test_gibbs_covariance_identity_stiffness():
    net = OscillatorNetwork(2, 1, 1.0, np.eye(2))
    assert np.allclose(gibbs_covariance(net, 1.0), np.eye(4), atol=1e-14)


def test_gibbs_covariance_diagonal_example():
    net = OscillatorNetwork(2, 1, 1.0, np.diag([1.0, 4.0]))
    c = gibbs_covariance(net, 2.0)
    assert np.allclose(c, np.diag([0.5, 0.125, 0.5, 0.5]), atol=1e-14)


def test_gibbs_covariance_position_block_inverts_stiffness():
    net = random_complete_network(3)
    beta = 1.7
    c = gibbs_covariance(net, beta)
    dof = net.dof
    assert np.allclose(c[:dof, :dof] @ net.stiffness, np.eye(dof) / beta, atol=1e-12)


# --- covariance ODE ---------------------------------------------------------------


def test_rhs_vanishes_at_gibbs_fixed_point():
    net = chain3_net()
    beta = beta_from_params(STANDARD)
    target = gibbs_covariance(net, beta)
    residual = np.abs(covariance_rhs(target, net, STANDARD)).max()
    assert residual <= 1e-12 * STANDARD.lam * STANDARD.mass**2 * STANDARD.sigma2


def test_rhs_fixed_point_random_ensemble():
    for seed in range(5):
        net = random_complete_network(seed)
        params = random_moment_params(100 + seed, net.mass)
        target = gibbs_covariance(net, beta_from_params(params))
        residual = np.abs(covariance_rhs(target, net, params)).max()
        assert residual <= 1e-12 * params.lam * params.mass**2 * params.sigma2


def test_rhs_without_collisions_is_lyapunov_bracket():
    net = chain3_net()
    params = MomentParams(lam=0.0, alpha=0.5, sigma2=1.0, mass=1.0)
    rng = np.random.default_rng(0)
    c = rng.standard_normal((6, 6))
    c = c @ c.T
    a = generator_matrix(net)
    assert np.allclose(covariance_rhs(c, net, params), a @ c + c @ a.T, atol=1e-12)


def test_rhs_at_zero_is_pure_source():
    net = chain3_net()
    rhs = covariance_rhs(np.zeros((6, 6)), net, STANDARD)
    expected = STANDARD.lam * (1 - STANDARD.alpha) ** 2 * STANDARD.sigma2
    k = 3  # p_{1,1} sits at index dof
    assert rhs[k, k] == pytest.approx(expected)
    rhs[k, k] = 0.0
    assert np.abs(rhs).max() == 0.0


def test_integrate_holds_fixed_point():
    # H starts at C_G, and because C_G is the fixed point, C = C_G - H solves the
    # covariance equation: its right-hand side is -L(H) = dC/dt at every sample
    net = chain3_net()
    target = gibbs_covariance(net, beta_from_params(STANDARD))
    traj = integrate_covariance(target, moment_generator(net, STANDARD), t_end=10.0, sample_dt=0.01)
    assert np.array_equal(traj.matrices[0], 0.5 * (target + target.T)) and traj.gaps[0] == 1.0
    for h in traj.matrices[::50]:
        forced = covariance_rhs(target - h, net, STANDARD)
        assert np.abs(forced + covariance_rhs(h, net, HOMOGENEOUS)).max() < 1e-12


def test_integrate_converges_from_zero():
    # C(150) = C_G - H(150) from C(0) = 0
    net = chain3_net()
    target = gibbs_covariance(net, beta_from_params(STANDARD))
    traj = integrate_covariance(target, moment_generator(net, STANDARD),
                                t_end=150.0, sample_dt=0.15)
    assert np.abs((target - traj.matrices[-1]) - target).max() <= 1e-6


def test_homogeneous_equation_decays_to_zero():
    # t_end 0 searches nothing: the march from a PSD start that is no fixed point
    # runs over the kept samples, and only H is guarded
    net = chain3_net()
    rng = np.random.default_rng(4)
    g = rng.standard_normal((6, 6))
    c0 = g @ g.T
    traj = integrate_covariance(c0, moment_generator(net, HOMOGENEOUS), t_end=0.0, sample_dt=0.15,
                                keep=slice(0, 1001))
    assert traj.times[-1] == pytest.approx(150.0) and traj.gaps.size == 1
    assert np.abs(traj.matrices[-1]).max() <= 1e-6 * np.abs(c0).max()


def test_integrate_aborts_on_indefinite_start():
    net = chain3_net()
    with pytest.raises(NumericalAbort, match="t=0 "):
        integrate_covariance(-np.eye(6), moment_generator(net, STANDARD),
                             t_end=1.0, sample_dt=0.001)


@pytest.mark.parametrize("search", [False, True])
def test_integrate_aborts_at_the_first_non_finite_sample(search, monkeypatch):
    # without a search, a PSD start near the largest double overflows from t = 0.7 on;
    # in a search H stays below C_G, so the march is handed an overflow at 0.7. Either
    # way the guard stops there instead of handing NaN to eigvalsh
    net = chain3_net()
    if search:
        exact_samples = covariance._exact_samples

        def overflowing(*args):
            h, blocks = exact_samples(*args)
            rows = next(blocks)
            rows[7:] = np.inf
            return h, iter([rows])

        monkeypatch.setattr(covariance, "_exact_samples", overflowing)
    c0 = gibbs_covariance(net, 2.0) if search else 8e307 * np.ones((6, 6))
    with pytest.raises(NumericalAbort, match=r"^covariance sample not finite at t=0\.7$"):
        integrate_covariance(c0, moment_generator(net, STANDARD),
                             t_end=5.0 if search else 0.0, sample_dt=0.1,
                             tol=1e-6, keep=slice(0, 51))


# --- Lyapunov functional -----------------------------------------------------------


def test_lyapunov_of_gibbs_matrix_counts_degrees():
    net = chain3_net()
    c_g = gibbs_covariance(net, 1.0)  # beta-free normalization
    assert lyapunov_functional(c_g, net) == pytest.approx(2 * net.dof)
    assert lyapunov_functional(np.zeros((6, 6)), net) == 0.0


@pytest.mark.parametrize("n", [1, 3, 6, 12])
def test_lyapunov_functional_on_a_stack_matches_each_matrix(n):
    net = load_config(chain_config(n)).network
    traj = integrate_covariance(gibbs_covariance(net, 2.0), moment_generator(net, HOMOGENEOUS),
                                t_end=5.0, sample_dt=0.1)
    f = lyapunov_functional(traj.matrices, net)
    assert f.shape == traj.times.shape
    assert f.tobytes() == np.array([lyapunov_functional(c, net) for c in traj.matrices]).tobytes()


def test_lyapunov_rate_identity():
    # Tr(C_G^{-1} L(C)) collapses to the single kicked entry, exactly
    net = random_complete_network(9)
    params = random_moment_params(9, net.mass)
    rng = np.random.default_rng(2)
    dof = net.dof
    g = rng.standard_normal((2 * dof, 2 * dof))
    c = g @ g.T
    lhs = lyapunov_functional(covariance_rhs(c, net, dataclasses.replace(params, sigma2=0.0)), net)
    rhs = lyapunov_rate(c, net, params)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_lyapunov_constant_without_collisions():
    # lam = 0 removes the only dissipative term, so F is a flow invariant
    net = chain3_net()
    params = MomentParams(lam=0.0, alpha=0.5, sigma2=1.0, mass=1.0)
    c0 = gibbs_covariance(net, 2.0)
    traj = integrate_covariance(c0, moment_generator(net, params),
                                t_end=0.0, sample_dt=0.2, keep=slice(0, 101))
    f = np.array([lyapunov_functional(c, net) for c in traj.matrices])
    assert np.abs(f - f[0]).max() <= 1e-9 * abs(f[0])


def test_lyapunov_decreases_along_homogeneous_flow():
    net = chain3_net()
    rng = np.random.default_rng(7)
    g = rng.standard_normal((6, 6))
    c0 = g @ g.T
    traj = integrate_covariance(c0, moment_generator(net, HOMOGENEOUS), t_end=0.0, sample_dt=0.05,
                                keep=slice(0, 801))
    f = [lyapunov_functional(c, net) for c in traj.matrices]
    assert max(np.diff(f)) <= 1e-10


def test_lyapunov_finite_difference_matches_rate():
    net = chain3_net()
    target = gibbs_covariance(net, 2.0)
    rate0 = lyapunov_rate(target, net, STANDARD)
    errs = []
    for dt in (1e-2, 5e-3):
        traj = integrate_covariance(target, moment_generator(net, HOMOGENEOUS),
                                    t_end=dt, sample_dt=dt)
        fd = (
            lyapunov_functional(traj.matrices[-1], net)
            - lyapunov_functional(target, net)
        ) / dt
        errs.append(abs(fd - rate0))
    assert errs[0] < 0.05 * abs(rate0)
    assert errs[1] < 0.6 * errs[0]  # shrinks with dt


def test_lyapunov_csv_export(tmp_path):
    # the kept samples, every 5th of the march, with their times
    net = chain3_net()
    traj = integrate_covariance(gibbs_covariance(net, 2.0), moment_generator(net, HOMOGENEOUS),
                                t_end=1.0, sample_dt=0.001, keep=slice(0, 1001, 5))
    f_values = np.array([lyapunov_functional(c, net) for c in traj.matrices])
    path = tmp_path / "lyapunov.csv"
    lyapunov_to_csv(traj, f_values, net, path)
    reference = tmp_path / "savetxt.csv"
    assert len(f_values) == 201
    np.savetxt(reference, np.column_stack([traj.times[::5], f_values, traj.matrices[:, 0, 0],
                                           traj.matrices[:, 3, 3]]),
               fmt="%.17g", delimiter=",", header="t,F,C_q11,C_p11", comments="")
    assert path.read_bytes() == reference.read_bytes()
    lines = path.read_text().splitlines()
    assert lines[0] == "t,F,C_q11,C_p11"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape[1] == 4
    assert np.array_equal(data[:, 1], f_values)
    assert np.array_equal(data[:, 3], traj.matrices[:, 3, 3])


# --- mean dynamics -----------------------------------------------------------------


def test_mean_dynamics_without_damping_matches_exact_flow():
    net = chain3_net()
    params = MomentParams(lam=0.0, alpha=0.5, sigma2=1.0, mass=1.0)
    psi0 = PhaseState(q=[1.0, -0.3, 0.2], p=[0.0, 0.4, -0.1])
    traj = mean_dynamics(net, params, psi0, t_end=10.0, sample_dt=1.0)
    for t, state in zip(traj.times, traj.states):
        exact = propagate(net, psi0, float(t)).vector
        assert np.abs(state - exact).max() <= 1e-8


def test_mean_decay_for_complete_network():
    net = chain3_net()
    psi0 = PhaseState(q=[1.0, 1.0, 1.0], p=[1.0, 1.0, 1.0])
    traj = mean_dynamics(net, STANDARD, psi0, t_end=200.0, sample_dt=0.2)
    ratio = energy_norm(net, traj.final) / energy_norm(net, psi0.vector)
    assert ratio <= 1e-3


def test_mean_on_neutral_subspace_does_not_decay():
    # diag stiffness is incomplete from site 0; a neutral-subspace start
    # feels no damping, so its energy norm is conserved
    net = OscillatorNetwork(2, 1, 1.0, np.diag([1.0, 4.0]))
    basis = neutral_subspace_basis(krylov_basis(net.stiffness, [0])[0])
    vec = basis @ np.array([0.8, -0.6])
    psi0 = PhaseState(q=vec[:2], p=vec[2:])
    traj = mean_dynamics(net, STANDARD, psi0, t_end=200.0, sample_dt=1e-2)
    n0 = energy_norm(net, psi0.vector)
    ratios = np.array([energy_norm(net, s) / n0 for s in traj.states])
    assert np.abs(ratios - 1.0).max() <= 1e-6


def test_damped_generator_layout():
    net = chain3_net()
    a_d = damped_generator(net, STANDARD)
    a = generator_matrix(net)
    diff = a - a_d
    assert diff[3, 3] == pytest.approx(STANDARD.lam * (1 - STANDARD.alpha))
    diff[3, 3] = 0.0
    assert np.abs(diff).max() == 0.0


def test_mean_decay_rate_matches_damped_spectrum():
    # independent oracle: the decay exponent fitted from |psi(t)|_H agrees
    # with the spectral abscissa of the damped generator
    net = chain3_net()
    a_d = damped_generator(net, STANDARD)
    slowest = np.max(np.linalg.eigvals(a_d).real)
    assert slowest < 0
    psi0 = PhaseState(q=[1.0, 1.0, 1.0], p=[1.0, 1.0, 1.0])
    traj = mean_dynamics(net, STANDARD, psi0, t_end=400.0, sample_dt=1.0)
    norms = np.array([energy_norm(net, s) for s in traj.states])
    window = traj.times >= 100.0
    fit = np.polyfit(traj.times[window], np.log(norms[window]), 1)[0]
    assert fit == pytest.approx(slowest, rel=0.05)


# --- Monte Carlo consistency ---------------------------------------------------------


def test_ode_matches_ensemble_covariance():
    # ensemble second moments of the simulator follow the covariance ODE
    net = chain3_net()
    model = OneDimElastic(external_mass=0.5, velocity_law=GaussianVelocity(1.0))
    tau_law = Exponential(rate=1.0)
    psi0 = PhaseState.zero(3)
    n_runs = 400
    t_end, sample_dt = 20.0, 5.0
    states = np.stack(
        [
            simulate_continuous(net, model, tau_law, psi0, t_end, sample_dt, seed).states
            for seed in range(n_runs)
        ]
    )  # (runs, times, 6)
    target = gibbs_covariance(net, beta_from_params(STANDARD))
    ode = integrate_covariance(target, moment_generator(net, STANDARD),
                               t_end=t_end, sample_dt=sample_dt)
    for j, t in enumerate([5.0, 10.0, 20.0]):
        k_traj = int(t / sample_dt)
        x = states[:, k_traj, :]
        second = np.einsum("ni,nj->nij", x, x)
        emp = second.mean(axis=0)
        se = second.std(axis=0, ddof=1) / np.sqrt(n_runs)
        k_ode = int(np.argmin(np.abs(ode.times - t)))
        assert np.allclose(ode.times[k_ode], t, atol=1e-6)
        gap = np.abs(emp - (target - ode.matrices[k_ode]))  # C(t) = C_G - H(t)
        assert np.all(gap <= 5.0 * se + 1e-12)


# --- exact propagation -----------------------------------------------------------------


def test_expm_matches_scipy():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(11)
    for scale in (1e-3, 0.5, 5.0, 60.0):  # no scaling up to many squarings
        a = scale * rng.standard_normal((12, 12)) / np.sqrt(12)
        want = scipy_linalg.expm(a)
        assert np.abs(expm(a) - want).max() <= 1e-13 * np.abs(want).max()


def test_expm_of_generator_is_the_flow_matrix():
    net = random_complete_network(4)
    a = generator_matrix(net)
    for t in (0.01, 1.7, 40.0):
        assert np.abs(expm(t * a) - flow_matrix(net, t)).max() <= 1e-12


def test_moment_generator_applies_the_rhs():
    # L is the right-hand side at sigma2 = 0; it takes C_G to minus the source term
    net = random_complete_network(5)
    params = random_moment_params(5, net.mass)
    n = 2 * net.dof
    rows, cols = np.triu_indices(n)
    rng = np.random.default_rng(5)
    g = rng.standard_normal((n, n))
    c = g @ g.T
    gen = moment_generator(net, params)
    assert gen.shape == (rows.size, rows.size) == (net.dof * (2 * net.dof + 1),) * 2
    assert np.array_equal(gen, moment_generator(net, dataclasses.replace(params, sigma2=0.0)))
    homogeneous = covariance_rhs(c, net, dataclasses.replace(params, sigma2=0.0))
    assert np.abs(gen @ c[rows, cols] - homogeneous[rows, cols]).max() <= 1e-12
    target = gibbs_covariance(net, beta_from_params(params))
    source = np.zeros((n, n))
    source[net.dof, net.dof] = params.source
    assert np.abs(gen @ target[rows, cols] + source[rows, cols]).max() <= 1e-12 * params.source


def test_exact_covariance_matches_rk4_reference():
    # the former RK4 integrator at a small step; tolerance fixed in advance. The
    # forced equation from C = 0 is C_G - H, H the flow from C_G; the homogeneous
    # one from a PSD start that is no fixed point is marched without a search
    net = chain3_net()
    rng = np.random.default_rng(8)
    g = rng.standard_normal((6, 6))
    target = gibbs_covariance(net, beta_from_params(STANDARD))
    flow = integrate_covariance(target, moment_generator(net, STANDARD), t_end=5.0, sample_dt=0.5)
    hom = integrate_covariance(g @ g.T, moment_generator(net, STANDARD), t_end=0.0, sample_dt=0.5,
                               keep=slice(0, 11))
    for c0, exact, include_source in ((np.zeros((6, 6)), target - flow.matrices, True),
                                      (g @ g.T, hom.matrices, False)):
        ref = rk4.integrate_covariance(
            c0, net, STANDARD, t_end=5.0, dt=1e-3,
            include_source=include_source, sample_every=500,
        )
        assert np.allclose(flow.times, ref.times, rtol=0, atol=1e-12)
        assert np.array_equal(hom.times, flow.times)
        scale = np.abs(ref.matrices).max()
        assert np.abs(exact - ref.matrices).max() <= 1e-9 * scale


def test_exact_mean_matches_rk4_reference():
    net = chain3_net()
    psi0 = PhaseState(q=[1.0, -0.5, 0.25], p=[0.5, 0.0, -1.0])
    exact = mean_dynamics(net, STANDARD, psi0, t_end=20.0, sample_dt=2.0)
    ref = rk4.mean_dynamics(net, STANDARD, psi0, t_end=20.0, dt=1e-3, sample_every=2000)
    assert np.abs(exact.states - ref.states).max() <= 1e-9 * np.abs(psi0.vector).max()


def test_exact_free_flow_without_collisions():
    # lam = 0: C(t) = Phi C0 Phi^T and the mean is the exact flow
    net = random_complete_network(6)
    params = MomentParams(lam=0.0, alpha=0.5, sigma2=1.0, mass=net.mass)
    dof = net.dof
    rng = np.random.default_rng(6)
    g = rng.standard_normal((2 * dof, 2 * dof))
    c0 = g @ g.T
    traj = integrate_covariance(c0, moment_generator(net, params),
                                t_end=0.0, sample_dt=3.0, keep=slice(0, 11))
    for t, c in zip(traj.times, traj.matrices):
        phi = flow_matrix(net, float(t))
        want = phi @ c0 @ phi.T
        assert np.abs(c - want).max() <= 1e-12 * np.abs(want).max()
    psi0 = PhaseState.from_vector(rng.standard_normal(2 * dof))
    mean = mean_dynamics(net, params, psi0, t_end=30.0, sample_dt=3.0)
    for t, state in zip(mean.times, mean.states):
        want = propagate(net, psi0, float(t)).vector
        assert np.abs(state - want).max() <= 1e-12 * np.abs(want).max()


def test_streamed_gap_finds_the_first_grid_time():
    net = chain3_net()
    target = gibbs_covariance(net, beta_from_params(STANDARD))
    full = integrate_covariance(target, moment_generator(net, STANDARD),
                                t_end=200.0, sample_dt=0.02)
    gaps = np.abs(full.matrices).max(axis=(1, 2)) / np.abs(target).max()
    assert np.array_equal(full.gaps, gaps)
    first = int(np.argmax(gaps <= 1e-6))
    streamed = integrate_covariance(target, moment_generator(net, STANDARD),
                                    t_end=150.0, sample_dt=0.02,
                                    tol=1e-6, keep=slice(0, 1))
    assert streamed.matrices.shape == (1, 6, 6)
    assert streamed.times.size == first + 1
    assert streamed.times[-1] == full.times[first]
    assert np.array_equal(streamed.gaps, gaps[: first + 1])
    # a kept sample past the hit, blocks later: the search ends at the hit, the march
    # at the sample
    later = integrate_covariance(target, moment_generator(net, STANDARD),
                                 t_end=150.0, sample_dt=0.02,
                                 tol=1e-6, keep=slice(first + 2000, first + 2001))
    assert later.gaps.size == first + 1 and later.times.size == first + 2001
    assert np.array_equal(later.matrices[0], full.matrices[first + 2000])
    # without a hit the march runs to t_end and reports the last gap
    short = integrate_covariance(target, moment_generator(net, STANDARD),
                                 t_end=10.0, sample_dt=0.02,
                                 tol=1e-6, keep=slice(0, 1))
    assert short.times[-1] == pytest.approx(10.0) and short.gaps[-1] > 1e-6


def test_psd_margin_is_reported():
    net = chain3_net()
    traj = integrate_covariance(gibbs_covariance(net, 2.0), moment_generator(net, STANDARD),
                                t_end=5.0, sample_dt=0.005)
    assert np.linalg.eigvalsh(traj.matrices)[:, 0].min() > 0.0  # a PD start stays PD
    # the forced solution C(0) = C_G - H(0) = 0 sits on the PSD boundary
    assert -1.0 <= traj.min_psd_margin <= 1e-6


def _recording_eigvalsh(monkeypatch):
    """Patch np.linalg.eigvalsh to keep every stack of matrices it is given."""
    seen, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(a.copy()) or eigvalsh(a))
    return seen


def _recording_anchor_bound(monkeypatch):
    """Patch covariance._anchor_bound to keep each (rows, bounds) it computes."""
    seen, anchor_bound = [], covariance._anchor_bound

    def recording(rows, *args):
        bound = anchor_bound(rows, *args)
        seen.append((rows.copy(), bound.copy()))
        return bound

    monkeypatch.setattr(covariance, "_anchor_bound", recording)
    return seen


def _symmetric(vech, dof):
    rows, cols = np.triu_indices(2 * dof)
    mats = np.empty((len(vech), 2 * dof, 2 * dof))
    mats[:, rows, cols] = mats[:, cols, rows] = vech
    return mats


def _forced(target, net, params, t_end):
    """The symmetrised C_G, the forced samples C_G - H(t_k) of the march from it
    on a 0.02 grid, and their guard's scale floor max|L(C_G)|."""
    c_g = 0.5 * (target + target.T)
    flow = integrate_covariance(c_g, moment_generator(net, params), t_end=t_end, sample_dt=0.02)
    rows, cols = np.triu_indices(2 * net.dof)
    floor = np.abs(moment_generator(net, params) @ c_g[rows, cols]).max()
    return c_g, c_g - flow.matrices, floor


def _margins(mats, floor):
    """Exact min-eigenvalue / (PSD_GUARD_TOL * scale) of each matrix."""
    scale = np.maximum(np.abs(mats).max(axis=(1, 2)), floor)
    return np.linalg.eigvalsh(mats)[:, 0] / (PSD_GUARD_TOL * scale)


def test_weyl_certificate_keeps_the_margin_and_clears_only_psd_samples(monkeypatch):
    net = load_config(chain_config(6)).network
    target = gibbs_covariance(net, beta_from_params(STANDARD))
    c_g, forced, floor = _forced(target, net, STANDARD, 200.0)
    seen = _recording_eigvalsh(monkeypatch)
    bounds = _recording_anchor_bound(monkeypatch)
    march = integrate_covariance(c_g, moment_generator(net, STANDARD), t_end=200.0, sample_dt=0.02,
                                 keep=slice(0, 1))  # tol 0: the march runs to t_end
    monkeypatch.undo()
    assert march.times.size == len(forced)
    # every forced sample of the grid diagonalised: the same minimum, bit for bit
    margins = _margins(forced, floor)
    assert march.min_psd_margin == margins.min()
    # the samples never diagonalised are the certified ones: all have margin >= 1
    checked = {m.tobytes() for m in np.concatenate(seen)}
    certified = np.array([m.tobytes() not in checked for m in forced])
    assert not certified[0] and certified.sum() > len(forced) // 3
    assert margins[certified].min() >= 1.0
    assert certified.sum() == march.certified_target + march.certified_anchor
    assert march.diagonalised == len(forced) - certified.sum() + 1  # and the kept H(0)
    # a row an anchor certifies: exact margin >= its bound >= 1
    rows = np.concatenate([r for r, _ in bounds])
    scale = PSD_GUARD_TOL * np.maximum(np.abs(rows).max(axis=1), floor)
    bound = np.concatenate([b for _, b in bounds]) / scale
    anchor = np.concatenate([np.arange(len(r)) % ANCHOR_STRIDE == 0 for r, _ in bounds])
    by_anchor = ~anchor & (bound >= 1.0)
    assert by_anchor.sum() == march.certified_anchor > len(forced) // 10
    exact = _margins(_symmetric(rows[by_anchor], net.dof), floor)
    assert np.all(exact >= bound[by_anchor])


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.floats(0.05, 3.0), st.floats(0.05, 2.0), st.floats(0.0, 0.9),
       st.floats(0.2, 3.0), st.floats(-3.0, 1.0))
def test_anchor_certificate_never_clears_a_sample_below_the_guard(n, coupling, pinning,
                                                                   alpha, lam, exponent):
    # the forced solution C_G - H starts at 0 and its first samples sit on or near
    # the PSD boundary, where the anchors' neighbours must still be diagonalised
    net = OscillatorNetwork(n, 1, 1.0, chain_stiffness(n, coupling, pinning))
    params = MomentParams(lam=lam, alpha=alpha, sigma2=10.0**exponent, mass=1.0)
    target = gibbs_covariance(net, beta_from_params(params))
    c_g, forced, floor = _forced(target, net, params, 30.0)
    with pytest.MonkeyPatch.context() as patch:
        seen = _recording_eigvalsh(patch)
        march = integrate_covariance(c_g, moment_generator(net, params), t_end=30.0, sample_dt=0.02,
                                     keep=slice(0, 0))
    checked = {m.tobytes() for m in np.concatenate(seen)}
    certified = np.array([m.tobytes() not in checked for m in forced])
    margins = _margins(forced, floor)
    assert np.all(margins[certified] >= 1.0)
    # a minimum below 1 is never certified, so the march reports it bit for bit
    if margins.min() < 1.0:
        assert march.min_psd_margin == margins.min()
    assert march.min_psd_margin <= margins.min()


def test_weyl_certificate_aborts_where_the_full_guard_does():
    # a start with one eigenvalue -1e-3 is no fixed point, and its forced samples
    # C_a - H(t) lose positive semidefiniteness: the certified march aborts at the
    # first one whose exact margin is below -1
    net = chain3_net()
    target = gibbs_covariance(net, beta_from_params(STANDARD))
    lam, vecs = np.linalg.eigh(target)
    c0 = target - (lam[0] + 1e-3) * np.outer(vecs[:, 0], vecs[:, 0])
    c0 = 0.5 * (c0 + c0.T)
    with pytest.raises(NumericalAbort, match="t=0 "):  # H(0) = c0 is kept
        integrate_covariance(c0, moment_generator(net, STANDARD), t_end=10.0, sample_dt=0.01)
    rows, cols = np.triu_indices(6)
    gen = moment_generator(net, STANDARD)
    h, blocks = covariance._exact_samples(gen, c0[rows, cols], 10.0, 0.01)
    floor = np.abs(gen @ c0[rows, cols]).max()
    margins = _margins(c0 - _symmetric(np.concatenate(list(blocks)), 3), floor)
    first = int(np.argmax(margins < -1.0))
    assert margins.min() < -1.0 and first > 0
    with pytest.raises(NumericalAbort, match=f"at t={first * h:.6g} "):
        integrate_covariance(c0, moment_generator(net, STANDARD),
                             t_end=10.0, sample_dt=0.01, keep=slice(0, 0))


def test_anchor_certificate_aborts_at_the_first_sample_lost_mid_block(monkeypatch):
    # H[0, 0] is raised by 1, 2, ... on 40 rows of the first block, after anchors
    # have certified earlier rows, so that C_G - H loses positive semidefiniteness
    # there while H keeps it; the first of them is not an anchor but a later one
    # is, so an abort that named the first anchor would be late
    first = 901
    exact_samples = covariance._exact_samples

    def indefinite(*args):
        h, blocks = exact_samples(*args)

        def perturbed():
            for k, rows in enumerate(blocks):
                if k == 0:
                    rows = rows.copy()
                    rows[first : first + 40, 0] += np.arange(1.0, 41.0)
                yield rows

        return h, perturbed()

    monkeypatch.setattr(covariance, "_exact_samples", indefinite)
    bounds = _recording_anchor_bound(monkeypatch)
    net = chain3_net()
    target = gibbs_covariance(net, beta_from_params(STANDARD))
    with pytest.raises(NumericalAbort, match="t=") as abort:
        integrate_covariance(target, moment_generator(net, STANDARD), t_end=100.0, sample_dt=0.02,
                             keep=slice(0, 1))
    assert "at t=18.02 (" in str(abort.value)
    (rows, bound), = bounds
    lost = np.flatnonzero(rows[:, 0] < 0)  # positions among the rows the C_G bound left
    assert lost.size == 40 and lost[0] % ANCHOR_STRIDE and np.any(lost % ANCHOR_STRIDE == 0)
    floor = np.abs(moment_generator(net, STANDARD) @ target[np.triu_indices(6)]).max()
    scale = PSD_GUARD_TOL * np.maximum(np.abs(rows).max(axis=1), floor)
    assert np.any(bound[: lost[0]] / scale[: lost[0]] >= 1.0)


def test_spectral_abscissa_complete_and_incomplete():
    assert spectral_abscissa(moment_generator(chain3_net(), STANDARD)) < -0.05
    diag = OscillatorNetwork(2, 1, 1.0, np.diag([1.0, 4.0]))
    assert spectral_abscissa(moment_generator(diag, STANDARD)) > -1e-12  # neutral modes never decay


# --- the covariance subcommand -------------------------------------------------------


CHAIN3 = Path(__file__).resolve().parents[1] / "configs" / "chain3.json"


def chain_config(n):
    return {
        "network": {"n_particles": n, "dim": 1, "mass": 1.0,
                    "stiffness": {"kind": "chain", "coupling": 1.0, "pinning": 0.5}},
        "model": {"kind": "one_dim_elastic", "external_mass": 0.5,
                  "velocity_law": {"kind": "gaussian", "sigma2": 1.0}},
        "schedule": {"tau": {"kind": "exponential", "rate": 1.0}},
        "run": {"t_end": 100.0, "seeds": [0]},
    }


@pytest.mark.parametrize("n, when", [(6, 744.94), (10, 3070.08)])
def test_covariance_converges_on_long_chains(n, when):
    summary = run_covariance(load_config(chain_config(n)), None)
    assert summary["checks"]["passed"]
    assert summary["convergence_time"] == pytest.approx(when, abs=1e-6)
    assert summary["final_gap"] <= 1e-6
    assert summary["horizon"] >= summary["convergence_time"]
    assert summary["spectral_abscissa"] < 0
    assert summary["sample_dt"] == 0.02
    assert summary["min_psd_margin"] >= -1.0


@pytest.mark.parametrize("coupling", [0.0, 1e-3])
def test_covariance_without_reachable_convergence_does_not_march(coupling):
    # uncoupled: the abscissa is 0 and there is no horizon; weakly coupled:
    # the horizon is far beyond the search limit and is reported, not searched
    raw = chain_config(2)
    raw["network"]["stiffness"] = {"kind": "explicit",
                                   "matrix": [[1.0, coupling], [coupling, 4.0]]}
    cfg = load_config(raw)
    start = time.perf_counter()
    summary = run_covariance(cfg, None)
    assert time.perf_counter() - start < 5.0
    assert summary["checks"]["converged"] is False and summary["convergence_time"] is None
    if coupling == 0.0:
        assert summary["horizon"] is None
    else:
        assert summary["spectral_abscissa"] < 0 and summary["horizon"] > 1e6 * 0.02
    # nothing was searched: the gap is that of the start C = 0, relative to max|C_G|
    assert summary["final_gap"] == 1.0
    assert summary["lyapunov_monotone"]


def test_covariance_diagonalises_only_uncertified_samples(monkeypatch):
    # measured counts (diagonalised, certified by C_G, certified by an anchor) of
    # the one march, and matrices through eigvalsh per call: C_G, the 501 kept
    # samples H(t) and the forced samples C_G - H(t) that no bound clears. Every
    # sample diagonalised, a chain of 6 took 36,341 matrices at the forced march
    # from C = 0 and 5,585 with the target bound alone; a chain of 10 took 20,982
    # with the target bound alone. The counts are deterministic, so a lost
    # certificate shows. The march starts at C_G scaled by a power of two and gets
    # the config's parameters.
    seen = _recording_eigvalsh(monkeypatch)
    calls, marches = [], []
    integrate = cli.integrate_covariance
    monkeypatch.setattr(cli, "integrate_covariance", lambda *a, **k: calls.append((a, k))
                        or marches.append(integrate(*a, **k)) or marches[-1])
    for n, counts, matrices in ((6, (1723, 32165, 3861), 1724),
                                (10, (3751, 133025, 17230), 3752)):
        seen.clear()
        calls.clear()
        marches.clear()
        cfg = load_config(chain_config(n))
        run_covariance(cfg, None)
        (march,) = marches
        assert (march.diagonalised, march.certified_target, march.certified_anchor) == counts
        assert sum(len(a) if a.ndim == 3 else 1 for a in seen) == matrices
        ((args, kwargs),) = calls
        params, beta = cli._moment_params(cfg)
        assert params.sigma2 == 1.0  # the config's
        assert np.array_equal(args[1], moment_generator(cfg.network, params))
        target = gibbs_covariance(cfg.network, beta)
        scale = np.abs(target).max() / np.abs(args[0]).max()
        assert scale == 2.0 ** round(math.log2(scale))
        assert np.array_equal(args[0] * scale, target)
        assert march.matrices.shape[0] == 501 and kwargs["sample_dt"] == 0.02


def _chain3_at(sigma2):
    raw = json.loads(open(CHAIN3).read())
    raw["model"]["velocity_law"] = {"kind": "gaussian", "sigma2": sigma2}
    return raw


@pytest.mark.parametrize("sigma2", [1.0, 1e6, 1e20, 1e160])
def test_covariance_verdict_does_not_depend_on_the_velocity_variance(sigma2, tmp_path, capsys):
    # the covariance equation is linear in sigma2: L does not depend on it and C_G is
    # proportional to it, so the march from C_G scaled by 2^-e has one verdict
    path = tmp_path / "chain3.json"
    path.write_text(json.dumps(_chain3_at(sigma2)))
    assert main(["covariance", "--config", str(path), "--check", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text(),
                         parse_constant=lambda c: pytest.fail(f"non-strict JSON {c}"))
    assert summary["convergence_time"] == 135.66 and summary["horizon"] == 269.0
    assert summary["final_gap"] <= 1e-6 and summary["checks"]["passed"]
    f = np.loadtxt(tmp_path / "lyapunov.csv", delimiter=",", skiprows=1)[:, 1]
    assert f[0] == pytest.approx(3.0 * sigma2, rel=1e-12)
    assert capsys.readouterr().err == ""


def test_covariance_builds_the_moment_generator_once(monkeypatch):
    # the spectral abscissa and the march share one L, a Python loop of dof (2 dof + 1)
    # right-hand sides; each built its own
    calls = []
    build = covariance.moment_generator

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(cli, "moment_generator", counted)
    monkeypatch.setattr(covariance, "moment_generator", counted)
    run_covariance(load_config(CHAIN3), None)
    assert len(calls) == 1


def test_lyapunov_verdict_does_not_depend_on_the_velocity_variance():
    # two uncoupled particles: F keeps its neutral mode's share, so the series sits on
    # a roundoff plateau from F(0) = F(C_G) on. Compared absolutely with 1e-10, its
    # largest increase read true at sigma2 1 and 1e160 and false at 1e6 and 1e20
    raw = _chain3_at(1.0)
    raw["network"] = {"n_particles": 2, "dim": 1, "mass": 1.0,
                      "stiffness": {"kind": "explicit", "matrix": [[1.0, 0.0], [0.0, 4.0]]}}
    raw["schedule"]["tau"]["rate"] = 3.0
    verdicts = set()
    for sigma2 in (1.0, 1e6, 1e20, 1e160):
        raw["model"]["velocity_law"]["sigma2"] = sigma2
        summary = run_covariance(load_config(raw), None)
        assert summary["lyapunov_initial"] == pytest.approx(2.0 * sigma2, rel=1e-12)
        verdicts.add(summary["checks"]["lyapunov_monotone"])
    assert verdicts == {True}


def test_covariance_converges_only_at_the_fixed_point(monkeypatch, tmp_path, capsys):
    # C_G - H(t) is the forced solution only when C_G is its fixed point: at the Gibbs
    # covariance of 2 beta the flow still decays, but neither check passes
    gibbs = cli.gibbs_covariance
    monkeypatch.setattr(cli, "gibbs_covariance", lambda net, beta: gibbs(net, 2.0 * beta))
    summary = run_covariance(load_config(CHAIN3), None)
    assert summary["convergence_time"] is not None
    assert summary["checks"]["fixed_point"] is False and summary["checks"]["converged"] is False
    assert main(["covariance", "--config", str(CHAIN3), "--check"]) == 4
    capsys.readouterr()


def test_cli_covariance_rejects_dof_above_the_ceiling(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(chain_config(MAX_DOF + 1)))
    assert main(["covariance", "--config", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and str(MAX_DOF) in err["message"]
