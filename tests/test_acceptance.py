"""Acceptance gate: every criterion at its stated tolerance.

Each test records one PASS/FAIL line (shown in the terminal summary block
at the end of the run) and then asserts, so the gate reads as a checklist:

    ACCEPTANCE 1 gibbs-covariance: PASS (...)

Criteria 1-2 run the full 32-seed x T=2e4 simulations and take ~20 s each;
everything else is seconds.
"""

import dataclasses

import numpy as np
import pytest

from _ensembles import random_complete_network, random_moment_params
from _reference_engine import flow_matrix, impact_matrix, propagate, two_ball_pair_update
from conftest import record_acceptance
from test_dissipative import analyze_matrix, eigvec_neutral_count, structured_cases

from oscbath.cli import run_simulate
from oscbath.collisions import OneDimElastic
from oscbath.config import load_config
from oscbath.covariance import (
    MomentParams,
    beta_from_params,
    covariance_rhs,
    energy_norm,
    gibbs_covariance,
    integrate_covariance,
    lyapunov_functional,
    mean_dynamics,
    moment_generator,
)
from oscbath.dissipative import neutral_subspace_basis
from oscbath.laws import Exponential, GaussianVelocity, TwoPointVelocity
from oscbath.network import (
    OscillatorNetwork,
    PhaseState,
    chain_stiffness,
    energy,
)
from oscbath.pdmp import drift_estimate, simulate_continuous, simulate_embedded
from oscbath.spectral import krylov_basis, random_pd_matrix
from oscbath.stationarity import one_step_moment_shift, stationarity_residual

STANDARD = MomentParams(lam=1.0, alpha=1.0 / 3.0, sigma2=1.0, mass=1.0)


def report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {num} {name}: {status} ({detail})"
    print(line)
    record_acceptance(line)
    assert passed, line


def chain3_simulation_config(velocity_law):
    return {
        "network": {
            "n_particles": 3,
            "dim": 1,
            "mass": 1.0,
            "stiffness": {"kind": "chain", "coupling": 1.0, "pinning": 0.5},
        },
        "model": {
            "kind": "one_dim_elastic",
            "external_mass": 0.5,
            "velocity_law": velocity_law,
        },
        "schedule": {"tau": {"kind": "exponential", "rate": 1.0}},
        "run": {
            "t_end": 2.0e4,
            "sample_dt": 0.25,
            "burn_in": 2.0e3,
            "seeds": list(range(32)),
        },
        "contact_sites": [0],
    }


def pooled_covariance_bands(summary):
    comparison = summary["comparison"]
    pooled = np.asarray(summary["pooled"]["covariance"])
    target = np.asarray(comparison["target"])
    se = np.asarray(comparison["std_error"])
    within_se = np.all(np.abs(pooled - target) <= 5.0 * se)
    diag_rel = np.abs(np.diag(pooled) - np.diag(target)) / np.diag(target)
    return within_se, float(diag_rel.max()), comparison["max_abs_z"]


def test_criterion_1_gibbs_covariance_reproduction():
    cfg = load_config(chain3_simulation_config({"kind": "gaussian", "sigma2": 1.0}))
    summary = run_simulate(cfg, None)
    assert summary["comparison"]["beta"] == pytest.approx(2.0)
    within_se, diag_rel, max_z = pooled_covariance_bands(summary)
    report(
        1,
        "gibbs-covariance",
        within_se and diag_rel <= 0.05,
        f"max diag rel err {diag_rel:.4f} (<=0.05), max |z| {max_z:.2f} (<=5)",
    )


def test_criterion_2_second_moment_universality():
    cfg = load_config(chain3_simulation_config({"kind": "two_point", "magnitude": 1.0}))
    summary = run_simulate(cfg, None)
    within_se, diag_rel, max_z = pooled_covariance_bands(summary)
    shift = one_step_moment_shift(
        beta=2.0,
        mass=1.0,
        model=OneDimElastic(external_mass=0.5, velocity_law=TwoPointVelocity(magnitude=1.0)),
        n=200_000,
        seed=0,
    )
    sigmas = abs(shift.m4_shift) / shift.m4_shift_se
    report(
        2,
        "two-point-universality",
        within_se and diag_rel <= 0.05 and sigmas >= 4.0,
        f"max diag rel err {diag_rel:.4f}, max |z| {max_z:.2f}, "
        f"m4 shift {sigmas:.0f} sigma (>=4)",
    )


def test_criterion_3_covariance_ode_fixed_point():
    worst_ratio = 0.0
    for seed in range(20):
        net = random_complete_network(seed)
        params = random_moment_params(500 + seed, net.mass)
        target = gibbs_covariance(net, beta_from_params(params))
        residual = float(np.abs(covariance_rhs(target, net, params)).max())
        tol = 1e-12 * params.lam * params.mass**2 * params.sigma2
        worst_ratio = max(worst_ratio, residual / tol)
    fixed_point_ok = worst_ratio <= 1.0

    net = OscillatorNetwork(3, 1, 1.0, chain_stiffness(3))
    target = gibbs_covariance(net, beta_from_params(STANDARD))
    # C(t) = C_G - H(t) from C(0) = 0, H the homogeneous flow from C_G
    traj = integrate_covariance(target, moment_generator(net, STANDARD),
                                t_end=150.0, sample_dt=0.15)
    gap = float(np.abs((target - traj.matrices[-1]) - target).max())

    # the homogeneous flow from a PSD start that is no fixed point: no search (t_end 0),
    # 801 kept samples up to t = 40
    rng = np.random.default_rng(3)
    g = rng.standard_normal((6, 6))
    hom = integrate_covariance(
        g @ g.T, moment_generator(net, dataclasses.replace(STANDARD, sigma2=0.0)), t_end=0.0,
        sample_dt=0.05, keep=slice(0, 801),
    )
    f_series = [lyapunov_functional(c, net) for c in hom.matrices]
    slack = float(np.diff(f_series).max())

    report(
        3,
        "covariance-ode",
        fixed_point_ok and gap <= 1e-6 and slack <= 1e-10,
        f"residual/tol {worst_ratio:.2e} (<=1), gap {gap:.1e} (<=1e-6), "
        f"F increase {slack:.1e} (<=1e-10)",
    )


def test_criterion_4_mean_decay_and_neutral_subspace():
    # complete three-oscillator network with lam (1 - alpha) = 2/3
    net = OscillatorNetwork(3, 1, 1.0, chain_stiffness(3))
    psi0 = PhaseState(q=[1.0, 1.0, 1.0], p=[1.0, 1.0, 1.0])
    traj = mean_dynamics(net, STANDARD, psi0, t_end=200.0, sample_dt=0.2)
    decay = energy_norm(net, traj.final) / energy_norm(net, psi0.vector)

    # incomplete diagonal stiffness: a neutral-subspace start never decays
    net_d = OscillatorNetwork(2, 1, 1.0, np.diag([1.0, 4.0]))
    basis = neutral_subspace_basis(krylov_basis(net_d.stiffness, [0])[0])
    vec = basis @ np.array([0.8, -0.6])
    psi_n = PhaseState(q=vec[:2], p=vec[2:])
    traj_n = mean_dynamics(net_d, STANDARD, psi_n, t_end=200.0, sample_dt=1e-2)
    n0 = energy_norm(net_d, psi_n.vector)
    drift = max(abs(energy_norm(net_d, s) / n0 - 1.0) for s in traj_n.states)

    report(
        4,
        "mean-decay",
        decay <= 1e-3 and drift <= 1e-6,
        f"decay factor {decay:.1e} (<=1e-3), neutral drift {drift:.1e} (<=1e-6)",
    )


def test_criterion_5_stationarity_identity():
    grid = np.linspace(-5.0, 5.0, 101)
    matched = stationarity_residual(2.0, 1.0 / 3.0, 1.0, GaussianVelocity(1.0), grid)
    doubled = stationarity_residual(4.0, 1.0 / 3.0, 1.0, GaussianVelocity(1.0), grid)
    report(
        5,
        "stationarity-identity",
        matched <= 1e-10 and doubled >= 1e-2,
        f"matched residual {matched:.1e} (<=1e-10), doubled {doubled:.1e} (>=1e-2)",
    )


def test_criterion_6_energy_drift():
    net = OscillatorNetwork(1, 1, 1.0, np.array([[1.0]]))
    model = OneDimElastic(external_mass=0.5, velocity_law=GaussianVelocity(1.0))
    tau_law = Exponential(rate=1.0)
    rng = np.random.default_rng(6)
    energies = np.exp(np.linspace(np.log(1e3), np.log(1e4), 20))
    worst = -np.inf
    all_negative = True
    for i, target_h in enumerate(energies):
        vec = rng.standard_normal(2)
        psi = PhaseState(q=vec[:1], p=vec[1:])
        scale = np.sqrt(target_h / energy(net, psi))
        psi = PhaseState(q=scale * psi.q, p=scale * psi.p)
        est = drift_estimate(net, model, tau_law, psi, n_mc=10_000, seed=600 + i)
        all_negative &= est.mean_change < 0
        worst = max(worst, est.relative_change)
    report(
        6,
        "energy-drift",
        all_negative and worst <= -0.05,
        f"worst relative change {worst:.4f} (<=-0.05), all negative {all_negative}",
    )


def test_criterion_7_dissipative_genericity_and_consistency():
    complete = 0
    independent = 0
    for seed in range(100):
        rep = analyze_matrix(random_pd_matrix(4, seed), [0])
        complete += rep.complete
        independent += rep.rationally_independent
    triangle_ok = True
    for v, sites in structured_cases():
        rep = analyze_matrix(v, sites)
        triangle_ok &= sum(rep.spectral_projection_dims) == rep.krylov_rank
        triangle_ok &= rep.dim_neutral == 2 * (rep.order - rep.krylov_rank)
        oracle = eigvec_neutral_count(v, list(sites))
        if oracle is not None:
            triangle_ok &= oracle == rep.dim_neutral
    report(
        7,
        "dissipative-genericity",
        complete == 100 and independent == 100 and triangle_ok,
        f"complete {complete}/100, independent {independent}/100, "
        f"consistency triangle {'exact' if triangle_ok else 'violated'} on 50 cases",
    )


# --- criterion 8: property suites, >= 1000 seeded cases each --------------------


def _random_net(rng):
    order = int(rng.integers(1, 9))
    mass = float(rng.uniform(0.5, 3.0))
    return OscillatorNetwork(order, 1, mass, random_pd_matrix(order, int(rng.integers(2**31))))


def test_criterion_8a_energy_conservation_fuzz():
    rng = np.random.default_rng(81)
    failures = 0
    for _ in range(50):
        net = _random_net(rng)
        for _ in range(20):
            psi = PhaseState(
                q=rng.standard_normal(net.dof), p=rng.standard_normal(net.dof)
            )
            t = float(rng.uniform(0.0, 100.0))
            h0 = energy(net, psi)
            h1 = energy(net, propagate(net, psi, t))
            failures += abs(h1 - h0) > 1e-9 * (1.0 + h0)
    report(8, "fuzz-energy-conservation", failures == 0, f"{failures}/1000 failures")


def test_criterion_8b_symplecticity_fuzz():
    rng = np.random.default_rng(82)
    failures = 0
    for _ in range(50):
        net = _random_net(rng)
        dof = net.dof
        sympl = np.zeros((2 * dof, 2 * dof))
        sympl[:dof, dof:] = np.eye(dof)
        sympl[dof:, :dof] = -np.eye(dof)
        for _ in range(20):
            phi = flow_matrix(net, float(rng.uniform(0.0, 50.0)))
            failures += np.abs(phi.T @ sympl @ phi - sympl).max() > 1e-9
    report(8, "fuzz-symplecticity", failures == 0, f"{failures}/1000 failures")


def test_criterion_8c_group_law_fuzz():
    rng = np.random.default_rng(83)
    failures = 0
    for _ in range(50):
        net = _random_net(rng)
        for _ in range(20):
            psi = PhaseState(
                q=rng.standard_normal(net.dof), p=rng.standard_normal(net.dof)
            )
            s, t = rng.uniform(0.0, 20.0, size=2)
            one = propagate(net, psi, float(s + t)).vector
            two = propagate(net, propagate(net, psi, float(s)), float(t)).vector
            failures += np.abs(one - two).max() > 1e-9 * (1.0 + np.abs(one).max())
    report(8, "fuzz-group-law", failures == 0, f"{failures}/1000 failures")


def test_criterion_8d_collision_conservation_fuzz():
    rng = np.random.default_rng(84)
    failures = 0
    for _ in range(1000):
        m1, m2 = rng.uniform(0.1, 10.0, size=2)
        v1 = rng.standard_normal(2) * 3.0
        v2 = rng.standard_normal(2) * 3.0
        phi = float(rng.uniform(0.0, 2 * np.pi))
        v1p, v2p = two_ball_pair_update(m1, m2, v1, v2, phi)
        scale = 1.0 + (m1 + m2) * max(v1 @ v1, v2 @ v2)
        mom = np.abs(m1 * v1p + m2 * v2p - m1 * v1 - m2 * v2).max()
        en = abs(m1 * v1p @ v1p + m2 * v2p @ v2p - m1 * v1 @ v1 - m2 * v2 @ v2)
        failures += mom > 1e-10 * scale or en > 1e-10 * scale
    report(8, "fuzz-collision-conservation", failures == 0, f"{failures}/1000 failures")


def test_criterion_8e_impact_matrix_spectrum_fuzz():
    rng = np.random.default_rng(85)
    failures = 0
    for _ in range(1000):
        alpha = float(rng.uniform(0.01, 0.99))
        phi = float(rng.uniform(0.0, 2 * np.pi))
        g = impact_matrix(alpha, phi)
        eigs = np.linalg.eigvalsh(g)
        failures += (
            np.abs(g - g.T).max() > 0.0
            or np.abs(eigs - sorted([alpha, 1.0])).max() > 1e-12
        )
    report(8, "fuzz-impact-spectrum", failures == 0, f"{failures}/1000 failures")


def test_criterion_8f_determinism_fuzz():
    net = OscillatorNetwork(3, 1, 1.0, chain_stiffness(3))
    model = OneDimElastic(external_mass=0.5)
    tau_law = Exponential(rate=1.0)
    psi0 = PhaseState(q=[1.0, 0.0, -1.0], p=[0.0, 0.5, 0.0])
    failures = 0
    for seed in range(500):
        a = simulate_embedded(net, model, tau_law, psi0, n_steps=20, seed=seed)
        b = simulate_embedded(net, model, tau_law, psi0, n_steps=20, seed=seed)
        failures += not (
            np.array_equal(a.states, b.states)
            and np.array_equal(a.jump_times, b.jump_times)
        )
    for seed in range(500):
        a = simulate_continuous(net, model, tau_law, psi0, 5.0, 0.5, seed=seed)
        b = simulate_continuous(net, model, tau_law, psi0, 5.0, 0.5, seed=seed)
        failures += not (
            np.array_equal(a.states, b.states) and a.events == b.events
        )
    report(8, "fuzz-determinism", failures == 0, f"{failures}/1000 failures")
