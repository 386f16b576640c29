import collections
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from _ensembles import conditioned_pd_matrix
from _reference_engine import propagate
from oscbath import spectral
from oscbath.cli import _json_default, run_dissipative
from oscbath.config import load_config
from oscbath.dissipative import CLUSTER_TOL, analyze, neutral_subspace_basis
from oscbath.errors import NumericalAbort
from oscbath.network import OscillatorNetwork, PhaseState, chain_stiffness
from oscbath.spectral import krylov_basis, random_pd_matrix

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def analyze_matrix(v, sites):
    """``analyze`` on the unit-mass network of one particle per coordinate of stiffness v."""
    v = np.asarray(v, dtype=float)
    return analyze(OscillatorNetwork(v.shape[0], 1, 1.0, v), sites)


def double_eigenvalue_3x3():
    # spectrum {1, 1, 2}; complete from sites {0, 1}
    return np.array([[1.0, 0.0, 0.0], [0.0, 1.5, 0.5], [0.0, 0.5, 1.5]])


# --- analyze ---------------------------------------------------------------------


def test_analyze_decoupled_site():
    rep = analyze_matrix(np.diag([1.0, 4.0]), [0])
    assert rep.krylov_rank == 1
    assert not rep.complete
    assert rep.dim_neutral == 2
    assert rep.eigen_multiplicities == (1, 1)
    assert rep.spectral_projection_dims == (1, 0)


@pytest.mark.parametrize("n", [15, 20])
def test_analyze_long_chain_is_complete_and_skips_the_scan(n):
    # order >= 15: even the +-1 coefficient box exceeds the search cap
    rep = analyze_matrix(chain_stiffness(n), [0])
    assert rep.krylov_rank == n and rep.complete and rep.dim_neutral == 0
    assert rep.rationally_independent is None
    assert rep.independence_max_coeff is None
    assert rep.independence_witness is None
    assert rep.multiplicity_bound and rep.l0_invariance
    payload = json.dumps(dataclasses.asdict(rep), default=_json_default)
    assert json.loads(payload)["rationally_independent"] is None


def test_analyze_chain6_scans_independence():
    rep = analyze_matrix(chain_stiffness(6), [0])
    assert rep.complete and rep.independence_max_coeff == 5
    assert rep.rationally_independent is True


def test_analyze_coupled_pair_complete():
    rep = analyze_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]), [0])
    assert rep.krylov_rank == 2
    assert rep.complete
    assert rep.dim_neutral == 0
    assert rep.spectral_projection_dims == (1, 1)


def test_analyze_all_sites_always_complete():
    for seed in range(5):
        v = random_pd_matrix(4, seed)
        rep = analyze_matrix(v, range(4))
        assert rep.complete


def test_analyze_validation():
    net = OscillatorNetwork(2, 1, 1.0, np.eye(2))
    with pytest.raises(ValueError):
        analyze(net, [])
    with pytest.raises(ValueError):
        analyze(net, [2])
    with pytest.raises(ValueError):
        analyze(net, [-1])


def test_analyze_flags_ambiguous_clustering():
    v = np.diag([1.0, 1.0 + 5e-8, 2.0])
    rep = analyze_matrix(v, [0, 1, 2])  # gap 5e-8 within a decade of CLUSTER_TOL = 1e-8
    assert rep.clustering_ambiguous


def test_report_json_roundtrip():
    rep = analyze_matrix(double_eigenvalue_3x3(), [0, 1])
    payload = json.dumps(dataclasses.asdict(rep), default=_json_default)
    back = json.loads(payload)
    assert back["krylov_rank"] == rep.krylov_rank
    assert back["complete"] == rep.complete
    assert back["eigen_multiplicities"] == [2, 1]
    assert back["multiplicity_bound"] is True and back["l0_invariance"] is True


def _counting(calls, name, function):
    def counted(*args, **kwargs):
        calls[name] += 1
        return function(*args, **kwargs)
    return counted


@pytest.mark.parametrize("stiffness, svds", [
    ({"kind": "chain", "coupling": 1.0, "pinning": 0.5}, 0),  # complete: no L_0 basis
    ({"kind": "explicit", "matrix": np.diag([1.0, 4.0, 9.0]).tolist()}, 1),
], ids=["complete", "incomplete"])
def test_a_dissipative_run_builds_one_krylov_basis_and_no_spectrum(monkeypatch, stiffness, svds):
    # the network holds the validated spectrum, and the L_0 basis of the flow
    # check is the complement of the one Krylov basis, taken only when it is short
    raw = json.loads((CONFIGS / "chain3.json").read_text())
    raw["network"]["stiffness"] = stiffness
    cfg = load_config(raw)
    calls = collections.Counter()
    monkeypatch.setattr(spectral, "krylov_basis", _counting(calls, "krylov_basis", spectral.krylov_basis))
    monkeypatch.setattr(spectral, "decompose", _counting(calls, "decompose", spectral.decompose))
    svd = np.linalg.svd

    def counted_svd(a, *args, compute_uv=True, **kwargs):
        calls["svd with vectors"] += compute_uv
        return svd(a, *args, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    report = run_dissipative(cfg, None)
    assert report["complete"] is (svds == 0) and report["checks"]["passed"]
    assert calls["krylov_basis"] == 1 and calls["decompose"] == 0
    assert calls["svd with vectors"] == svds


# --- multiplicity bound -------------------------------------------------------------


def test_multiplicity_bound_simple_spectrum():
    rep = analyze_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]), [0])
    assert rep.multiplicity_bound


def test_multiplicity_bound_vacuous_for_identity():
    rep = analyze_matrix(np.eye(3), [0])
    assert rep.krylov_rank == 1
    assert not rep.complete
    assert rep.multiplicity_bound  # implication holds vacuously


def test_multiplicity_bound_tight_double_eigenvalue():
    rep = analyze_matrix(double_eigenvalue_3x3(), [0, 1])
    assert rep.complete
    assert max(rep.eigen_multiplicities) == 2 == len(rep.contact_sites)
    assert rep.multiplicity_bound
    # the same matrix is incomplete from a single site
    assert not analyze_matrix(double_eigenvalue_3x3(), [0]).complete


# --- consistency triangle -------------------------------------------------------------


def eigvec_neutral_count(v, sites, tol=1e-8):
    """Simple-spectrum oracle: eigenvectors orthogonal to every seed."""
    w, q = np.linalg.eigh(v)
    if np.any(np.diff(w) <= tol * np.abs(w).max()):
        return None
    return 2 * int(np.sum(np.all(np.abs(q[sites, :]) <= tol, axis=0)))


def structured_cases():
    rng = np.random.default_rng(2024)
    cases = []
    while len(cases) < 50:
        idx = len(cases)
        order = int(rng.integers(2, 9))
        style = idx % 3
        if style == 0:
            v = conditioned_pd_matrix(order, 5000 + idx)
        elif style == 1:
            v = np.diag(rng.uniform(0.5, 4.0, size=order))
        else:
            # conjugated matrix with a repeated eigenvalue
            eigs = rng.uniform(0.5, 4.0, size=order)
            eigs[: max(2, order // 2)] = eigs[0]
            q, _ = np.linalg.qr(rng.standard_normal((order, order)))
            v = (q * eigs) @ q.T
        n_sites = int(rng.integers(1, order + 1))
        sites = sorted(rng.choice(order, size=n_sites, replace=False).tolist())
        cases.append((v, sites))
    return cases


def test_consistency_triangle_on_structured_cases():
    for v, sites in structured_cases():
        rep = analyze_matrix(v, sites)
        # spectral projections refine the Krylov space dimension
        assert sum(rep.spectral_projection_dims) == rep.krylov_rank
        assert rep.dim_neutral == 2 * (rep.order - rep.krylov_rank)
        oracle = eigvec_neutral_count(v, list(sites))
        if oracle is not None:
            assert oracle == rep.dim_neutral


def test_genericity_of_completeness():
    complete = 0
    independent = 0
    for seed in range(30):
        rep = analyze_matrix(random_pd_matrix(4, seed), [0])
        complete += rep.complete
        independent += rep.rationally_independent
    assert complete == 30
    assert independent == 30


# --- subspace geometry ----------------------------------------------------------------


def test_analyze_aborts_on_a_numerical_rank_boundary():
    # one eigenvector is about 1e-8 at site 0, where the zero-component test cuts
    v = np.array([[1.372930523312534, -0.08620165973177689, 0.2143368630782256],
                  [-0.08620165973177688, 1.4201154709696449, -0.4031255624755946],
                  [0.21433686307822558, -0.40312556247559467, 2.2603421287656755]])
    with pytest.raises(NumericalAbort, match="numerical-rank boundary"):
        analyze_matrix(v, [0])


def test_neutral_and_damped_bases_are_orthogonal_complements():
    v = np.diag([1.0, 4.0, 9.0])
    krylov = krylov_basis(v, [0], tol=CLUSTER_TOL)[0]
    minus = np.kron(np.eye(2), krylov)  # L_minus
    zero = neutral_subspace_basis(krylov)
    assert minus.shape == (6, 2)
    assert zero.shape == (6, 4)
    assert np.abs(minus.T @ zero).max() < 1e-12
    assert np.abs(minus.T @ minus - np.eye(2)).max() < 1e-12
    assert np.abs(zero.T @ zero - np.eye(4)).max() < 1e-12


def assert_l0_keeps_contact_momenta_at_rest(net, n_probes, tol):
    """Random L_0 states, moved by the reference flow over t = 0, 0.25, ..., 20,
    keep |p_n(t)| <= tol |psi| at every contact site n."""
    sites = list(net.contact_sites)
    basis = neutral_subspace_basis(krylov_basis(net.stiffness, sites, tol=CLUSTER_TOL)[0])
    assert basis.shape[1] > 0
    rng = np.random.default_rng(0)
    for _ in range(n_probes):
        vec = basis @ rng.standard_normal(basis.shape[1])
        psi = PhaseState.from_vector(vec)
        worst = max(np.abs(propagate(net, psi, float(t)).p[sites]).max()
                    for t in np.linspace(0.0, 20.0, 81))
        assert worst <= tol * np.linalg.norm(vec)


def test_l0_momenta_vanish_for_decoupled_site():
    net = OscillatorNetwork(2, 1, 1.0, np.diag([1.0, 4.0]))
    assert analyze(net, net.contact_sites).l0_invariance
    assert_l0_keeps_contact_momenta_at_rest(net, n_probes=8, tol=1e-10)


@pytest.mark.parametrize("dim", [1, 2])
def test_l0_check_on_the_derived_contact_sites(dim):
    # particle 2 decoupled: L0 is its motion, 2 d-dimensional, and leaves all
    # d coordinates of the kicked particle 1 at rest
    net = OscillatorNetwork(2, dim, 1.0, np.kron(np.diag([1.0, 4.0]), np.eye(dim)))
    sites = net.contact_sites
    assert sites == tuple(range(dim))
    rep = analyze(net, sites)
    assert rep.dim_neutral == 2 * dim and rep.l0_invariance
    assert_l0_keeps_contact_momenta_at_rest(net, n_probes=8, tol=1e-10)


def test_l0_check_vacuous_for_complete_network():
    net = OscillatorNetwork(2, 1, 1.0, np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert analyze(net, net.contact_sites).l0_invariance


def test_l0_scaling_invariance():
    net = OscillatorNetwork(2, 1, 1.0, np.diag([1.0, 4.0]))
    basis = neutral_subspace_basis(krylov_basis(net.stiffness, [0], tol=CLUSTER_TOL)[0])
    vec = basis @ np.ones(basis.shape[1])
    for scale in (1.0, 10.0):
        psi = PhaseState(q=scale * vec[:2], p=scale * vec[2:])
        worst = max(
            abs(propagate(net, psi, float(t)).p[0]) for t in np.linspace(0, 20, 41)
        )
        assert worst <= 1e-10 * scale * np.linalg.norm(vec)


def test_neutral_subspace_is_flow_invariant():
    # propagate L0 states and check the damped-subspace component stays zero
    net = OscillatorNetwork(3, 1, 1.3, np.diag([1.0, 2.0, 5.0]))
    krylov = krylov_basis(net.stiffness, [1], tol=CLUSTER_TOL)[0]
    minus = np.kron(np.eye(2), krylov)  # L_minus
    zero = neutral_subspace_basis(krylov)
    rng = np.random.default_rng(6)
    for _ in range(5):
        vec = zero @ rng.standard_normal(zero.shape[1])
        psi = PhaseState(q=vec[:3], p=vec[3:])
        for t in (0.7, 3.3, 11.1):
            moved = propagate(net, psi, t).vector
            leak = np.abs(minus.T @ moved).max()
            assert leak <= 1e-9 * np.linalg.norm(vec)
