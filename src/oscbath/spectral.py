"""Dense symmetric linear algebra shared by the rest of the package.

Everything here works on plain ``numpy`` arrays. Symmetric matrices are
symmetrized on entry, eigendecompositions are validated against
reconstruction/orthonormality residuals, and Krylov bases are built by
Arnoldi iteration with reorthogonalization so downstream code can trust the
reported ranks.
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
    orthogonalized against the basis by twice-applied modified Gram-Schmidt.
    A residual below ``tol`` times the candidate's norm ends the seed.

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

    basis: list[np.ndarray] = []
    for seed in seeds:
        candidate = np.zeros(n)
        candidate[seed] = 1.0
        while len(basis) < n:
            norm0 = float(np.linalg.norm(candidate))
            residual = candidate
            for _ in range(2):  # second MGS pass for orthogonality quality
                for b in basis:
                    residual = residual - (b @ residual) * b
            norm = float(np.linalg.norm(residual))
            if not norm > tol * norm0:
                break
            basis.append(residual / norm)
            candidate = v @ basis[-1]
    q = np.column_stack(basis) if basis else np.zeros((n, 0))
    return q, q.shape[1]


def random_pd_matrix(order: int, seed: int, jitter: float = 1e-6) -> np.ndarray:
    """Random positive definite matrix G G^T + jitter*I, deterministic per seed."""
    if order < 1:
        raise ValueError("order must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((order, order))
    return g @ g.T + jitter * np.eye(order)


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


def check_rational_independence(
    omegas,
    max_coeff: int = 5,
    tol: float = 1e-9,
    search_cap: int = INDEPENDENCE_SEARCH_CAP,
) -> IndependenceResult:
    """Scan for integer relations sum_k a_k w_k = 0 with |a_k| <= max_coeff.

    This is a heuristic, not a certificate: rational independence is
    undecidable from floating-point data, so we only exhaust the bounded
    coefficient box and report the first relation found (if any).

    Raises
    ------
    ValueError
        if any frequency is non-positive, or the search space exceeds
        ``search_cap`` (an explicit refusal rather than silent truncation).
    """
    w = np.asarray(omegas, dtype=float).ravel()
    if w.size == 0:
        raise ValueError("need at least one frequency")
    if np.any(w <= 0):
        raise ValueError("frequencies must be strictly positive")
    if max_coeff < 1:
        raise ValueError("max_coeff must be >= 1")
    base = 2 * max_coeff + 1
    n_cases = base**w.size
    if n_cases > search_cap:
        raise ValueError(
            f"search space {n_cases} exceeds cap {search_cap}; "
            "lower max_coeff or raise the cap explicitly"
        )
    # evaluate all lattice combinations by repeated outer sums; the flat
    # index encodes the coefficients base (2*max_coeff+1), first frequency
    # most significant
    coeffs = np.arange(-max_coeff, max_coeff + 1, dtype=float)
    values = np.zeros(1)
    for omega in w:
        values = (values[:, None] + coeffs * omega).ravel()
    for idx in np.flatnonzero(np.abs(values) <= tol):
        alpha = np.array(np.unravel_index(idx, (base,) * w.size)) - max_coeff
        if not alpha.any():
            continue  # the trivial all-zero combination
        first = alpha[np.nonzero(alpha)[0][0]]
        if first < 0:
            alpha = -alpha
        return IndependenceResult(
            independent=False, witness=alpha, max_coeff=max_coeff, tol=tol
        )
    return IndependenceResult(
        independent=True, witness=None, max_coeff=max_coeff, tol=tol
    )
