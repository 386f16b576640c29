"""Dense symmetric linear algebra shared by the rest of the package.

Everything here works on plain ``numpy`` arrays. Symmetric matrices are
symmetrized on entry, eigendecompositions are validated against
reconstruction/orthonormality residuals, and Krylov bases are built by
Arnoldi iteration with full reorthogonalization (classical Gram-Schmidt
applied twice) so downstream code can trust the reported ranks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: relative drop tolerance for Gram-Schmidt rank decisions
DEFAULT_DROP_TOL = 1e-8

#: reconstruction / orthonormality budget for eigendecompositions
DECOMPOSITION_TOL = 1e-10

#: hard cap on the rational-relation search space
INDEPENDENCE_SEARCH_CAP = 10_000_000

#: candidate pairs the split scan re-tests per block
_RECHECK_BLOCK = 1 << 16


def symmetrize(matrix: np.ndarray) -> np.ndarray:
    """Return the symmetric part (a + a^T)/2 as a float array."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("matrix order must be >= 1")
    return 0.5 * (a + a.T)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendecomposition V = Q diag(w) Q^T with ascending eigenvalues.

    Attributes
    ----------
    eigenvalues : (n,) array, ascending
    eigenvectors : (n, n) array, orthonormal columns
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        q = self.eigenvectors
        return (q * self.eigenvalues) @ q.T


def decompose(matrix: np.ndarray) -> SpectralDecomposition:
    """Eigendecompose a symmetric matrix, validating the result.

    The input is symmetrized first. The decomposition must reconstruct the
    matrix to 1e-10 relative (max norm) and the eigenvector matrix must be
    orthonormal to 1e-10, otherwise a diagnostic error is raised with the
    offending matrix echoed.
    """
    v = symmetrize(matrix)
    try:
        w, q = np.linalg.eigh(v)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise np.linalg.LinAlgError(
            f"eigendecomposition did not converge for matrix:\n{v!r}"
        ) from exc
    dec = SpectralDecomposition(eigenvalues=w, eigenvectors=q)
    scale = max(np.abs(v).max(), np.finfo(float).tiny)
    recon_err = np.abs(dec.reconstruct() - v).max() / scale
    orth_err = np.abs(q.T @ q - np.eye(v.shape[0])).max()
    if recon_err > DECOMPOSITION_TOL or orth_err > DECOMPOSITION_TOL:
        raise np.linalg.LinAlgError(
            "eigendecomposition failed validation "
            f"(reconstruction {recon_err:.3e}, orthonormality {orth_err:.3e}) "
            f"for matrix:\n{v!r}"
        )
    return dec


def krylov_basis(
    matrix: np.ndarray,
    seed_indices,
    tol: float = DEFAULT_DROP_TOL,
) -> tuple[np.ndarray, int]:
    """Orthonormal basis of span{V^k e_n : n in seed_indices, k < order}.

    Per seed, Arnoldi with full reorthogonalization: the candidates are e_n,
    then V times the newest basis vector (not the raw powers V^k e_n, which
    collapse onto the top eigenvector and lose rank on long chains), each
    orthogonalized against the basis by classical Gram-Schmidt applied twice
    (CGS2: two matrix-vector products per pass; as orthogonal as modified
    Gram-Schmidt twice, Giraud, Langou and Rozloznik, Comput. Math. Appl.
    50:1069, 2005). A residual below ``tol`` times the candidate's norm ends
    the seed.

    Parameters
    ----------
    matrix : symmetric (n, n) array
    seed_indices : iterable of 0-based coordinate indices
    tol : relative drop tolerance, must be positive

    Returns
    -------
    basis : (n, rank) array with orthonormal columns
    rank : dimension of the spanned subspace
    """
    v = symmetrize(matrix)
    n = v.shape[0]
    seeds = sorted(set(int(i) for i in seed_indices))
    if not seeds:
        raise ValueError("seed index set must not be empty")
    if seeds[0] < 0 or seeds[-1] >= n:
        raise ValueError(f"seed indices {seeds} out of range for order {n}")
    if not tol > 0:
        raise ValueError("drop tolerance must be positive")

    basis = np.empty((n, n))  # row k is basis vector k
    rank = 0
    for seed in seeds:
        r = np.zeros(n)  # the candidate, orthogonalized in place
        r[seed] = 1.0
        while rank < n:
            norm0 = float(np.linalg.norm(r))
            for _ in range(2):  # second pass for orthogonality quality
                r -= (basis[:rank] @ r) @ basis[:rank]
            norm = float(np.linalg.norm(r))
            if not norm > tol * norm0:
                break
            basis[rank] = r / norm
            r = v @ basis[rank]
            rank += 1
    return np.ascontiguousarray(basis[:rank].T), rank


def random_pd_matrix(order: int, seed: int) -> np.ndarray:
    """Random positive definite matrix G G^T + 1e-6 I, deterministic per seed."""
    if order < 1:
        raise ValueError("order must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((order, order))
    return g @ g.T + 1e-6 * np.eye(order)


@dataclass(frozen=True)
class IndependenceResult:
    """Outcome of the bounded-coefficient rational-relation scan.

    ``independent`` is heuristic evidence only: no integer relation with
    coefficients bounded by ``max_coeff`` was found. ``witness`` holds the
    violating integer vector when one exists, canonicalized so its first
    nonzero entry is positive.
    """

    independent: bool
    witness: np.ndarray | None
    max_coeff: int
    tol: float


def _lattice_sums(w: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Sums sum_k a_k w_k over the coefficient box by left-to-right outer sums.

    The flat index encodes the coefficients in base len(coeffs), first
    frequency most significant; no frequencies give the one empty sum 0.
    """
    values = np.zeros(1)
    for omega in w:
        values = (values[:, None] + coeffs * omega).ravel()
    return values


def _split_relations(w: np.ndarray, coeffs: np.ndarray, tol: float) -> np.ndarray:
    """Flat indices of the lattice sums within ``tol``, meet-in-the-middle
    (Horowitz and Sahni, J. ACM 21:277, 1974).

    The sums over the first ceil(order/2) frequencies (l) and over the rest
    (r) are formed separately and the r are sorted. Each l takes, by binary
    search, the r within ``tol`` plus a rounding slack of -l: the slack
    bounds how far the sequential sum over the whole vector strays from
    l + r, so every sum within ``tol`` is a candidate. Candidates are
    re-tested with that sequential sum and ``<= tol``, a block of left sums
    at a time in flat order; the first block holding any relation is
    returned (it holds the smallest flat index), else an empty array.
    """
    base, half = coeffs.size, (w.size + 1) // 2
    left = _lattice_sums(w[:half], coeffs)  # bitwise the sequential sums' prefixes
    right = _lattice_sums(w[half:], coeffs)
    right_size = right.size
    order = np.argsort(right, kind="stable")
    right = right[order]
    # Each product a_k w_k is rounded the same way in every sum, and each
    # recursive sum of m terms strays from the exact one by at most
    # (m - 1) eps/2 times the sum of their magnitudes, at most c sum(w). So
    # the full sum is within order eps c sum(w) of l + r; the pad keeps a
    # factor 4 over that, plus room for rounding -l +- pad and tol itself.
    c = (base - 1) // 2
    pad = tol + 4 * (w.size + 1) * np.finfo(float).eps * (c * float(w.sum()) + abs(tol))
    lo = np.searchsorted(right, -left - pad, side="left")
    counts = np.maximum(np.searchsorted(right, -left + pad, side="right") - lo, 0)
    rows = np.flatnonzero(counts)  # left sums with candidates, in flat order
    ends = np.cumsum(counts[rows])
    trivial = (left.size * right_size - 1) // 2  # flat index of the all-zero vector
    start = 0
    while start < rows.size:
        done = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, done + _RECHECK_BLOCK, side="right")))
        block, n_block = rows[start:stop], counts[rows[start:stop]]
        li = np.repeat(block, n_block)
        offsets = np.arange(li.size) - np.repeat(np.cumsum(n_block) - n_block, n_block)
        ri = order[np.repeat(lo[block], n_block) + offsets]
        values = left[li]
        for k, omega in enumerate(w[half:]):
            digit = ri // base ** (w.size - half - 1 - k) % base
            values = values + coeffs[digit] * omega
        flat = li * right_size + ri
        hits = flat[(np.abs(values) <= tol) & (flat != trivial)]
        if hits.size:
            return hits
        start = stop
    return np.zeros(0, dtype=np.intp)


def check_rational_independence(omegas, max_coeff: int = 5, tol: float = 1e-9) -> IndependenceResult:
    """Scan for integer relations sum_k a_k w_k = 0 with |a_k| <= max_coeff.

    This is a heuristic, not a certificate: rational independence is
    undecidable from floating-point data, so we only exhaust the bounded
    coefficient box and report the first relation found (if any): the
    nontrivial vector of smallest flat index (coefficients in base
    2 max_coeff + 1, first frequency most significant) whose sequential sum
    a_1 w_1 + a_2 w_2 + ... is within ``tol`` of zero.

    The box is scanned meet-in-the-middle (``_split_relations``), in memory
    O((2c+1)^ceil(order/2)); each of its candidates is re-tested exactly,
    so the result is the one every sum at once would give.

    Raises
    ------
    ValueError
        if any frequency is non-positive or not finite, or the search space
        exceeds ``INDEPENDENCE_SEARCH_CAP`` (an explicit refusal rather than
        silent truncation).
    """
    w = np.asarray(omegas, dtype=float).ravel()
    if w.size == 0:
        raise ValueError("need at least one frequency")
    if not (w.min() > 0 and np.isfinite(w).all()):
        raise ValueError("frequencies must be finite and strictly positive")
    if max_coeff < 1:
        raise ValueError("max_coeff must be >= 1")
    base = 2 * max_coeff + 1
    n_cases = base**w.size
    if n_cases > INDEPENDENCE_SEARCH_CAP:
        raise ValueError(f"search space {n_cases} exceeds cap {INDEPENDENCE_SEARCH_CAP}; "
                         "lower max_coeff")
    coeffs = np.arange(-max_coeff, max_coeff + 1, dtype=float)
    hits = _split_relations(w, coeffs, tol)
    if hits.size == 0:
        return IndependenceResult(
            independent=True, witness=None, max_coeff=max_coeff, tol=tol
        )
    alpha = np.array(np.unravel_index(hits.min(), (base,) * w.size)) - max_coeff
    if alpha[np.nonzero(alpha)[0][0]] < 0:
        alpha = -alpha
    return IndependenceResult(
        independent=False, witness=alpha, max_coeff=max_coeff, tol=tol
    )
