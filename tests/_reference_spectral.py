"""Test-only references: the former exhaustive rational-independence scan
and the former one-vector-at-a-time Krylov basis.

``check_rational_independence`` below is the scan ``oscbath.spectral`` used
to run, kept verbatim but for its validation: it evaluates all
(2c+1)^order lattice sums by repeated outer sums and returns the first
nontrivial one within ``tol`` in flat-index order. Tests assert that the
package's split scan returns the same ``IndependenceResult``.

``krylov_basis`` below is the Arnoldi basis ``oscbath.spectral`` used to
build, kept verbatim but for its validation: each candidate is
orthogonalized by modified Gram-Schmidt applied twice, one basis vector at
a time. Tests assert that the package's classical Gram-Schmidt (twice)
gives the same rank and an orthonormal basis of the same space. Nothing in
the package imports this module.
"""

from __future__ import annotations

import numpy as np

from oscbath.spectral import IndependenceResult, symmetrize


def check_rational_independence(omegas, max_coeff: int = 5, tol: float = 1e-9) -> IndependenceResult:
    """Exhaustive scan for integer relations sum_k a_k w_k = 0 with |a_k| <= max_coeff."""
    w = np.asarray(omegas, dtype=float).ravel()
    base = 2 * max_coeff + 1
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


def krylov_basis(matrix: np.ndarray, seed_indices, tol: float = 1e-8) -> tuple:
    """Orthonormal basis of span{V^k e_n}, by twice-applied modified Gram-Schmidt."""
    v = symmetrize(matrix)
    n = v.shape[0]
    basis: list[np.ndarray] = []
    for seed in sorted(set(int(i) for i in seed_indices)):
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
