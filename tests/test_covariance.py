import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_covariance as rk4
from _ensembles import random_complete_network, random_moment_params
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
    gamma_matrix,
    gibbs_covariance,
    integrate_covariance,
    lyapunov_functional,
    lyapunov_rate,
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
    flow_matrix,
    generator_matrix,
    propagate,
)
from oscbath.pdmp import EventSchedule, simulate_continuous


def chain3_net():
    return OscillatorNetwork(3, 1, 1.0, chain_stiffness(3))


STANDARD = MomentParams(lam=1.0, alpha=1.0 / 3.0, sigma2=1.0, mass=1.0)


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


def test_gamma_matrix_selector():
    g = gamma_matrix(3)
    assert g[3, 3] == 1.0
    assert np.sum(g) == 1.0


def test_integrate_holds_fixed_point():
    net = chain3_net()
    target = gibbs_covariance(net, beta_from_params(STANDARD))
    traj = integrate_covariance(target, net, STANDARD, t_end=10.0)
    assert np.abs(traj.final - target).max() < 1e-9


def test_integrate_converges_from_zero():
    net = chain3_net()
    target = gibbs_covariance(net, beta_from_params(STANDARD))
    traj = integrate_covariance(np.zeros((6, 6)), net, STANDARD, t_end=150.0)
    assert np.abs(traj.final - target).max() <= 1e-6


def test_homogeneous_equation_decays_to_zero():
    net = chain3_net()
    rng = np.random.default_rng(4)
    g = rng.standard_normal((6, 6))
    c0 = g @ g.T
    traj = integrate_covariance(c0, net, STANDARD, t_end=150.0, include_source=False)
    assert np.abs(traj.final).max() <= 1e-6 * np.abs(c0).max()


def test_integrate_aborts_on_indefinite_start():
    net = chain3_net()
    with pytest.raises(NumericalAbort, match="t="):
        integrate_covariance(-np.eye(6), net, STANDARD, t_end=1.0)


# --- Lyapunov functional -----------------------------------------------------------


def test_lyapunov_of_gibbs_matrix_counts_degrees():
    net = chain3_net()
    c_g = gibbs_covariance(net, 1.0)  # beta-free normalization
    assert lyapunov_functional(c_g, net) == pytest.approx(2 * net.dof)
    assert lyapunov_functional(np.zeros((6, 6)), net) == 0.0


@pytest.mark.parametrize("n", [1, 3, 6, 12])
def test_lyapunov_functional_on_a_stack_matches_each_matrix(n):
    net = load_config(chain_config(n)).network
    traj = integrate_covariance(gibbs_covariance(net, 2.0), net, STANDARD, t_end=5.0,
                                include_source=False, sample_dt=0.1)
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
    lhs = lyapunov_functional(covariance_rhs(c, net, params, include_source=False), net)
    rhs = lyapunov_rate(c, net, params)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_lyapunov_constant_without_collisions():
    # lam = 0 removes the only dissipative term, so F is a flow invariant
    net = chain3_net()
    params = MomentParams(lam=0.0, alpha=0.5, sigma2=1.0, mass=1.0)
    c0 = gibbs_covariance(net, 2.0)
    traj = integrate_covariance(c0, net, params, t_end=20.0, sample_dt=0.2)
    f = np.array([lyapunov_functional(c, net) for c in traj.matrices])
    assert np.abs(f - f[0]).max() <= 1e-9 * abs(f[0])


def test_lyapunov_decreases_along_homogeneous_flow():
    net = chain3_net()
    rng = np.random.default_rng(7)
    g = rng.standard_normal((6, 6))
    c0 = g @ g.T
    traj = integrate_covariance(
        c0, net, STANDARD, t_end=40.0, include_source=False, sample_dt=0.05
    )
    f = [lyapunov_functional(c, net) for c in traj.matrices]
    assert max(np.diff(f)) <= 1e-10


def test_lyapunov_finite_difference_matches_rate():
    net = chain3_net()
    target = gibbs_covariance(net, 2.0)
    rate0 = lyapunov_rate(target, net, STANDARD)
    errs = []
    for dt in (1e-2, 5e-3):
        traj = integrate_covariance(
            target, net, STANDARD, t_end=dt, sample_dt=dt, include_source=False
        )
        fd = (
            lyapunov_functional(traj.final, net)
            - lyapunov_functional(target, net)
        ) / dt
        errs.append(abs(fd - rate0))
    assert errs[0] < 0.05 * abs(rate0)
    assert errs[1] < 0.6 * errs[0]  # shrinks with dt


def test_lyapunov_csv_export(tmp_path):
    net = chain3_net()
    traj = integrate_covariance(
        gibbs_covariance(net, 2.0), net, STANDARD, t_end=1.0, include_source=False
    )
    f_values = np.array([lyapunov_functional(c, net) for c in traj.matrices])
    path = tmp_path / "lyapunov.csv"
    lyapunov_to_csv(traj, f_values, net, path)
    reference = tmp_path / "savetxt.csv"
    np.savetxt(reference, np.column_stack([traj.times, f_values, traj.matrices[:, 0, 0],
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
    traj = mean_dynamics(net, STANDARD, psi0, t_end=200.0)
    ratio = energy_norm(net, traj.final) / energy_norm(net, psi0.vector)
    assert ratio <= 1e-3


def test_mean_on_neutral_subspace_does_not_decay():
    # diag stiffness is incomplete from site 0; a neutral-subspace start
    # feels no damping, so its energy norm is conserved
    net = OscillatorNetwork(2, 1, 1.0, np.diag([1.0, 4.0]))
    basis = neutral_subspace_basis(net.stiffness, [0])
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
    sched = EventSchedule(tau_law=Exponential(rate=1.0))
    psi0 = PhaseState.zero(3)
    n_runs = 400
    t_end, sample_dt = 20.0, 5.0
    states = np.stack(
        [
            simulate_continuous(net, model, sched, psi0, t_end, sample_dt, seed).states
            for seed in range(n_runs)
        ]
    )  # (runs, times, 6)
    ode = integrate_covariance(np.zeros((6, 6)), net, STANDARD, t_end=t_end, sample_dt=sample_dt)
    for j, t in enumerate([5.0, 10.0, 20.0]):
        k_traj = int(t / sample_dt)
        x = states[:, k_traj, :]
        second = np.einsum("ni,nj->nij", x, x)
        emp = second.mean(axis=0)
        se = second.std(axis=0, ddof=1) / np.sqrt(n_runs)
        k_ode = int(np.argmin(np.abs(ode.times - t)))
        assert np.allclose(ode.times[k_ode], t, atol=1e-6)
        gap = np.abs(emp - ode.matrices[k_ode])
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
    net = random_complete_network(5)
    params = random_moment_params(5, net.mass)
    n = 2 * net.dof
    rows, cols = np.triu_indices(n)
    rng = np.random.default_rng(5)
    g = rng.standard_normal((n, n))
    c = g @ g.T
    gen = moment_generator(net, params)
    got = gen @ np.append(c[rows, cols], 1.0)
    assert np.abs(got[:-1] - covariance_rhs(c, net, params)[rows, cols]).max() <= 1e-12
    assert got[-1] == 0.0


def test_exact_covariance_matches_rk4_reference():
    # the former RK4 integrator at a small step; tolerance fixed in advance
    net = chain3_net()
    rng = np.random.default_rng(8)
    g = rng.standard_normal((6, 6))
    for c0, include_source in ((np.zeros((6, 6)), True), (g @ g.T, False)):
        exact = integrate_covariance(
            c0, net, STANDARD, t_end=5.0, sample_dt=0.5, include_source=include_source
        )
        ref = rk4.integrate_covariance(
            c0, net, STANDARD, t_end=5.0, dt=1e-3,
            include_source=include_source, sample_every=500,
        )
        assert np.allclose(exact.times, ref.times, rtol=0, atol=1e-12)
        scale = np.abs(ref.matrices).max()
        assert np.abs(exact.matrices - ref.matrices).max() <= 1e-9 * scale


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
    traj = integrate_covariance(c0, net, params, t_end=30.0, sample_dt=3.0)
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
    c0 = np.zeros((6, 6))
    full = integrate_covariance(c0, net, STANDARD, t_end=150.0, sample_dt=0.02)
    gaps = np.abs(full.matrices - target).max(axis=(1, 2))
    first = int(np.argmax(gaps <= 1e-6))
    streamed = integrate_covariance(
        c0, net, STANDARD, t_end=150.0, sample_dt=0.02, target=target, tol=1e-6
    )
    assert streamed.matrices.shape == (1, 6, 6)
    assert streamed.times.size == first + 1
    assert streamed.times[-1] == full.times[first]
    assert np.allclose(streamed.gaps, gaps[: first + 1], rtol=1e-9, atol=1e-15)
    assert np.abs(streamed.final - full.matrices[first]).max() <= 1e-12
    # without a hit the march runs to t_end and reports the last gap
    short = integrate_covariance(
        c0, net, STANDARD, t_end=10.0, sample_dt=0.02, target=target, tol=1e-6
    )
    assert short.times[-1] == pytest.approx(10.0) and short.gaps[-1] > 1e-6


def test_psd_margin_is_reported():
    net = chain3_net()
    traj = integrate_covariance(gibbs_covariance(net, 2.0), net, STANDARD, t_end=5.0)
    assert traj.min_psd_margin > 1.0  # a PD start stays PD
    forced = integrate_covariance(np.zeros((6, 6)), net, STANDARD, t_end=5.0)
    assert -1.0 <= forced.min_psd_margin <= 1e-6  # C(0) = 0 sits on the PSD boundary


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


def _margins(mats, source):
    """Exact min-eigenvalue / (PSD_GUARD_TOL * scale) of each matrix."""
    scale = np.maximum(np.abs(mats).max(axis=(1, 2)), source)
    return np.linalg.eigvalsh(mats)[:, 0] / (PSD_GUARD_TOL * scale)


def test_weyl_certificate_keeps_the_margin_and_clears_only_psd_samples(monkeypatch):
    net = load_config(chain_config(6)).network
    target = gibbs_covariance(net, beta_from_params(STANDARD))
    c0 = np.zeros((12, 12))
    full = integrate_covariance(c0, net, STANDARD, t_end=200.0, sample_dt=0.02)
    seen = _recording_eigvalsh(monkeypatch)
    bounds = _recording_anchor_bound(monkeypatch)
    march = integrate_covariance(c0, net, STANDARD, t_end=200.0, sample_dt=0.02,
                                 target=target)  # tol 0: the march runs to t_end
    monkeypatch.undo()
    assert march.times.size == full.times.size
    # every sample of the grid diagonalised: the same minimum, bit for bit
    margins = _margins(full.matrices, STANDARD.source)
    assert march.min_psd_margin == margins.min() == full.min_psd_margin
    # the samples never diagonalised are the certified ones: all have margin >= 1
    checked = {m.tobytes() for m in np.concatenate(seen)}
    certified = np.array([m.tobytes() not in checked for m in full.matrices])
    assert not certified[0] and certified.sum() > full.times.size // 3
    assert margins[certified].min() >= 1.0
    assert certified.sum() == march.certified_target + march.certified_anchor
    assert march.diagonalised == full.times.size - certified.sum()
    # a row an anchor certifies: exact margin >= its bound >= 1
    rows = np.concatenate([r for r, _ in bounds])
    scale = PSD_GUARD_TOL * np.maximum(np.abs(rows).max(axis=1), STANDARD.source)
    bound = np.concatenate([b for _, b in bounds]) / scale
    anchor = np.concatenate([np.arange(len(r)) % ANCHOR_STRIDE == 0 for r, _ in bounds])
    by_anchor = ~anchor & (bound >= 1.0)
    assert by_anchor.sum() == march.certified_anchor > full.times.size // 10
    exact = _margins(_symmetric(rows[by_anchor], net.dof), STANDARD.source)
    assert np.all(exact >= bound[by_anchor])


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.floats(0.05, 3.0), st.floats(0.05, 2.0), st.floats(0.0, 0.9),
       st.floats(0.2, 3.0), st.integers(0, 2**32 - 1))
def test_anchor_certificate_never_clears_a_sample_below_the_guard(n, coupling, pinning,
                                                                   alpha, lam, seed):
    # a random PSD start of random rank: its first samples sit on or near the PSD
    # boundary, where the anchors' neighbours must still be diagonalised
    net = OscillatorNetwork(n, 1, 1.0, chain_stiffness(n, coupling, pinning))
    params = MomentParams(lam=lam, alpha=alpha, sigma2=1.0, mass=1.0)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2 * n, int(rng.integers(0, 2 * n + 1))))
    c0 = g @ g.T * 10.0 ** rng.uniform(-3, 1)
    target = gibbs_covariance(net, beta_from_params(params))
    full = integrate_covariance(c0, net, params, t_end=30.0, sample_dt=0.02)
    with pytest.MonkeyPatch.context() as patch:
        seen = _recording_eigvalsh(patch)
        march = integrate_covariance(c0, net, params, t_end=30.0, sample_dt=0.02,
                                     target=target)
    checked = {m.tobytes() for m in np.concatenate(seen)}
    certified = np.array([m.tobytes() not in checked for m in full.matrices])
    margins = _margins(full.matrices, params.source)
    assert np.all(margins[certified] >= 1.0)
    # a minimum below 1 is never certified, so the march reports it bit for bit
    if full.min_psd_margin < 1.0:
        assert march.min_psd_margin == full.min_psd_margin
    assert march.min_psd_margin <= full.min_psd_margin


def test_weyl_certificate_aborts_where_the_full_guard_does():
    net = chain3_net()
    target = gibbs_covariance(net, beta_from_params(STANDARD))
    lam, vecs = np.linalg.eigh(target)
    c0 = target - (lam[0] + 1e-3) * np.outer(vecs[:, 0], vecs[:, 0])  # one eigenvalue -1e-3
    messages = []
    for kwargs in ({}, {"target": target}):
        with pytest.raises(NumericalAbort, match="t=") as abort:
            integrate_covariance(c0, net, STANDARD, t_end=10.0, **kwargs)
        messages.append(str(abort.value))
    assert messages[0] == messages[1]


def test_anchor_certificate_aborts_at_the_first_sample_lost_mid_block(monkeypatch):
    # C[0, 0] is overwritten with -1, -2, ... on 40 rows of the first block, after
    # anchors have certified earlier rows; the first of them is not an anchor but
    # a later one is, so an abort that named the first anchor would be late
    first = 901
    exact_samples = covariance._exact_samples

    def indefinite(*args):
        h, blocks = exact_samples(*args)

        def perturbed():
            for k, rows in enumerate(blocks):
                if k == 0:
                    rows = rows.copy()
                    rows[first : first + 40, 0] = -np.arange(1.0, 41.0)
                yield rows

        return h, perturbed()

    monkeypatch.setattr(covariance, "_exact_samples", indefinite)
    bounds = _recording_anchor_bound(monkeypatch)
    net = chain3_net()
    target = gibbs_covariance(net, beta_from_params(STANDARD))
    messages = []
    for kwargs in ({}, {"target": target}):
        with pytest.raises(NumericalAbort, match="t=") as abort:
            integrate_covariance(np.zeros((6, 6)), net, STANDARD, t_end=100.0,
                                 sample_dt=0.02, **kwargs)
        messages.append(str(abort.value))
    assert messages[0] == messages[1] and "at t=18.02 (" in messages[0]
    (rows, bound), = bounds
    lost = np.flatnonzero(rows[:, 0] < 0)  # positions among the rows the target left
    assert lost.size == 40 and lost[0] % ANCHOR_STRIDE and np.any(lost % ANCHOR_STRIDE == 0)
    scale = PSD_GUARD_TOL * np.maximum(np.abs(rows).max(axis=1), STANDARD.source)
    assert np.any(bound[: lost[0]] / scale[: lost[0]] >= 1.0)


def test_spectral_abscissa_complete_and_incomplete():
    assert spectral_abscissa(chain3_net(), STANDARD) < -0.05
    diag = OscillatorNetwork(2, 1, 1.0, np.diag([1.0, 4.0]))
    assert spectral_abscissa(diag, STANDARD) > -1e-12  # neutral modes never decay


# --- the covariance subcommand -------------------------------------------------------


def chain_config(n):
    return {
        "network": {"n_particles": n, "dim": 1, "mass": 1.0,
                    "stiffness": {"kind": "chain", "coupling": 1.0, "pinning": 0.5}},
        "model": {"kind": "one_dim_elastic", "external_mass": 0.5,
                  "velocity_law": {"kind": "gaussian", "sigma2": 1.0}},
        "schedule": {"tau": {"kind": "exponential", "rate": 1.0}},
        "run": {"t_end": 100.0, "seeds": [0]},
    }


@pytest.mark.parametrize("n, when", [(6, 704.56), (10, 2896.3)])
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
    # nothing was marched: the gap is that of the start C = 0
    gap0 = np.abs(gibbs_covariance(cfg.network, 2.0)).max()
    assert summary["final_gap"] == pytest.approx(gap0, rel=1e-12)


def test_covariance_diagonalises_only_uncertified_samples(monkeypatch):
    # measured counts (diagonalised, certified by the target, certified by an
    # anchor) of the forced march, and matrices through eigvalsh per call; the
    # homogeneous march diagonalises all of its 501 samples. Every sample
    # diagonalised, a chain of 6 took 36,341 matrices, and 5,585 with the target
    # bound alone; a chain of 10 took 20,982 with the target bound alone. The
    # counts are deterministic, so a lost certificate shows.
    seen = _recording_eigvalsh(monkeypatch)
    marches = []
    integrate = cli.integrate_covariance
    monkeypatch.setattr(cli, "integrate_covariance",
                        lambda *a, **k: marches.append(integrate(*a, **k)) or marches[-1])
    for n, forced, matrices in ((6, (1222, 30757, 3861), 1724),
                                (10, (3250, 124928, 17230), 3752)):
        seen.clear()
        marches.clear()
        run_covariance(load_config(chain_config(n)), None)
        counts = [(m.diagonalised, m.certified_target, m.certified_anchor) for m in marches]
        assert counts == [forced, (501, 0, 0)]
        assert sum(len(a) if a.ndim == 3 else 1 for a in seen) == matrices


def test_cli_covariance_rejects_dof_above_the_ceiling(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(chain_config(MAX_DOF + 1)))
    assert main(["covariance", "--config", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and str(MAX_DOF) in err["message"]
