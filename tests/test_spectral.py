import tracemalloc

import numpy as np
import pytest

import _reference_spectral as ref
from oscbath.network import chain_stiffness
from oscbath.spectral import (
    check_rational_independence,
    decompose,
    krylov_basis,
    random_pd_matrix,
    symmetrize,
)


def raw_krylov_rank(v, seeds, tol):
    """Independent oracle: numerical rank of the stacked power columns."""
    v = np.asarray(v, dtype=float)
    n = v.shape[0]
    cols = []
    for s in seeds:
        x = np.zeros(n)
        x[s] = 1.0
        for _ in range(n):
            cols.append(x / np.linalg.norm(x))
            x = v @ x
    m = np.column_stack(cols)
    sv = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(sv > tol))


def test_decompose_diagonal_is_trivial():
    dec = decompose(np.diag([1.0, 4.0]))
    assert np.allclose(dec.eigenvalues, [1.0, 4.0])
    assert np.allclose(np.abs(dec.eigenvectors), np.eye(2))


def test_decompose_two_by_two_hand_values():
    # characteristic polynomial l^2 - 4l + 3 gives eigenvalues 1 and 3
    dec = decompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(dec.eigenvalues, [1.0, 3.0], atol=1e-12)


def test_decompose_reconstruction_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = symmetrize(rng.standard_normal((5, 5)))
        dec = decompose(v)
        scale = np.abs(v).max()
        assert np.abs(dec.reconstruct() - v).max() <= 1e-10 * scale
        q = dec.eigenvectors
        assert np.abs(q.T @ q - np.eye(5)).max() <= 1e-10
        assert np.all(np.diff(dec.eigenvalues) >= 0)


def test_symmetrize_rejects_nonsquare():
    with pytest.raises(ValueError):
        symmetrize(np.zeros((2, 3)))


def test_krylov_single_eigenvector_seed():
    basis, rank = krylov_basis(np.diag([1.0, 4.0]), [0])
    assert rank == 1
    assert np.allclose(np.abs(basis[:, 0]), [1.0, 0.0])


def test_krylov_coupled_pair_is_complete():
    _, rank = krylov_basis(np.array([[2.0, 1.0], [1.0, 2.0]]), [0])
    assert rank == 2


def test_krylov_two_seeds_span_diagonal():
    basis, rank = krylov_basis(np.diag([1.0, 4.0]), [0, 1])
    assert rank == 2
    assert np.abs(basis.T @ basis - np.eye(2)).max() < 1e-12


def test_krylov_rejects_empty_or_bad_seeds():
    v = np.eye(3)
    with pytest.raises(ValueError):
        krylov_basis(v, [])
    with pytest.raises(ValueError):
        krylov_basis(v, [3])
    with pytest.raises(ValueError):
        krylov_basis(v, [0], tol=0.0)


def test_krylov_rank_matches_svd_oracle():
    rng = np.random.default_rng(5)
    tol = 1e-8
    for case in range(40):
        order = int(rng.integers(2, 9))
        if case % 3 == 0:
            v = np.diag(rng.uniform(0.5, 4.0, size=order))  # degenerate seeds likely
        else:
            v = random_pd_matrix(order, 1000 + case)
        n_seeds = int(rng.integers(1, order + 1))
        seeds = sorted(rng.choice(order, size=n_seeds, replace=False).tolist())
        basis, rank = krylov_basis(v, seeds, tol=tol)
        assert rank == raw_krylov_rank(v, seeds, tol)
        assert np.abs(basis.T @ basis - np.eye(rank)).max() < 1e-10


@pytest.mark.parametrize("n", [15, 20, 60])
def test_krylov_full_rank_on_long_chains(n):
    # a Jacobi matrix is complete from its first site at every length; the raw
    # power sequence V^k e_1 lost rank here (14 of 15, 17 of 20)
    from oscbath.network import chain_stiffness

    q, rank = krylov_basis(chain_stiffness(n), [0])
    assert rank == n
    assert np.abs(q.T @ q - np.eye(n)).max() <= 1e-12


def _krylov_cases():
    for n in (3, 4, 5, 8, 13, 20, 60, 200):
        yield pytest.param(chain_stiffness(n), [0], id=f"chain{n}")
    for k in range(20):
        yield pytest.param(random_pd_matrix(6, 2000 + k), [0] if k % 2 else [0, 3], id=f"random6-{k}")
    for n in (30, 60):  # one Gram-Schmidt pass loses orthogonality here (1.6e-11 at 30)
        yield pytest.param(random_pd_matrix(n, 5), [0], id=f"random{n}")
    yield pytest.param(np.diag([1.0, 4.0, 4.0, 9.0]), [0], id="diag-1-4-4-9")
    yield pytest.param(np.diag([1.0, 4.0, 4.0, 9.0]), [1, 2], id="diag-1-4-4-9-two-seeds")
    ball = np.kron(chain_stiffness(6), np.eye(2))
    yield pytest.param(ball, [0, 1], id="ball12")
    yield pytest.param(ball, [0], id="ball12-one-site")


@pytest.mark.parametrize("v, seeds", _krylov_cases())
def test_krylov_cgs2_matches_the_mgs2_reference(v, seeds):
    # classical Gram-Schmidt applied twice gives the rank of the former modified
    # Gram-Schmidt, an orthonormal basis, and the same space
    basis, rank = krylov_basis(v, seeds)
    old, old_rank = ref.krylov_basis(v, seeds)
    assert rank == old_rank
    assert basis.shape == (v.shape[0], rank)
    assert np.abs(basis.T @ basis - np.eye(rank)).max() <= 1e-12
    assert np.abs(basis @ (basis.T @ old) - old).max() <= 1e-10


def test_random_pd_matrix_properties():
    assert random_pd_matrix(1, 3)[0, 0] > 0
    a = random_pd_matrix(3, 7)
    b = random_pd_matrix(3, 7)
    assert np.array_equal(a, b)
    for seed in range(100):
        v = random_pd_matrix(4, seed)
        assert np.linalg.eigvalsh(v)[0] > 0


def test_rational_relation_found_for_integer_ratio():
    res = check_rational_independence([1.0, 2.0], max_coeff=3)
    assert not res.independent
    assert np.array_equal(res.witness, [2, -1])
    assert abs(np.dot(res.witness, [1.0, 2.0])) <= res.tol


def test_sqrt_two_is_independent_within_bound():
    res = check_rational_independence([1.0, np.sqrt(2.0)], max_coeff=10, tol=1e-9)
    assert res.independent
    assert res.witness is None


def test_single_frequency_is_independent():
    assert check_rational_independence([0.7]).independent


def test_independence_refuses_oversized_search():
    with pytest.raises(ValueError, match="cap"):
        check_rational_independence(np.ones(12) + np.arange(12), max_coeff=5)


def test_independence_rejects_nonpositive():
    with pytest.raises(ValueError):
        check_rational_independence([1.0, -2.0])


def test_independence_rejects_non_finite():
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            check_rational_independence([1.0, bad])


# --- the split scan against the exhaustive one -------------------------------------


def _families():
    """(name, frequencies): chains, random, small integers, doubled, planted near tol."""
    rng = np.random.default_rng(2024)
    for n in range(1, 7):
        yield f"chain{n}", np.sqrt(np.linalg.eigvalsh(chain_stiffness(n)))
    for n in (2, 4, 6):
        yield f"uniform{n}", rng.uniform(0.1, 3.0, n)
        yield f"integers{n}", rng.integers(1, 6, n).astype(float)
        yield f"doubled{n}", np.repeat(rng.uniform(0.2, 2.0, n // 2), 2)
    for n in (3, 5, 6):
        for factor in (1.0 - 1e-3, 1.0 + 1e-3):
            # alpha . w = tol * factor, alpha = (2, -1, 1, 2, ...); abs() flips the last
            # coefficient's sign when that frequency came out negative
            w = rng.uniform(0.5, 1.5, n)
            alpha = np.resize([2, -1, 1], n)
            w[-1] = (1e-9 * factor - np.dot(alpha[:-1], w[:-1])) / alpha[-1]
            yield f"planted{n}-{factor}", np.abs(w)


def _same(a, b):
    return (a.independent, a.max_coeff, a.tol) == (b.independent, b.max_coeff, b.tol) and (
        a.witness is b.witness is None
        or (a.witness is not None and b.witness is not None and np.array_equal(a.witness, b.witness))
    )


@pytest.mark.parametrize("max_coeff", [1, 2, 5])
def test_split_scan_matches_exhaustive_reference(max_coeff):
    relations = 0
    for name, w in _families():
        if (2 * max_coeff + 1) ** w.size > 2_000_000:
            continue
        new = check_rational_independence(w, max_coeff)
        old = ref.check_rational_independence(w, max_coeff)
        assert _same(new, old), (name, new, old)
        relations += not new.independent
    assert relations >= 5  # the families hold relations, not only their absence


@pytest.mark.parametrize("tol", [0.0, 1e-3, -1.0, np.inf, np.nan])
def test_split_scan_matches_reference_at_any_tol(tol):
    for name, w in _families():
        if w.size > 4:
            continue
        new = check_rational_independence(w, 2, tol)
        old = ref.check_rational_independence(w, 2, tol)
        assert new.independent == old.independent, (name, tol)
        assert new.witness is old.witness is None or np.array_equal(new.witness, old.witness)


def test_split_scan_is_small_at_order_6():
    w = np.sqrt(np.linalg.eigvalsh(chain_stiffness(6)))
    check_rational_independence(w, 5)  # warm numpy's caches
    tracemalloc.start()
    try:
        result = check_rational_independence(w, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.independent
    assert peak < 1 << 20, peak  # the 11^6 sums alone are 13.5 MiB
