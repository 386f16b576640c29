"""Structure of the damped subspace reached through the contact sites.

For contact-site set S (0-based coordinate indices), l_V is the Krylov
subspace spanned by {V^k e_n : n in S}. The damped ("dissipative") subspace
of phase space is L_minus = {(q, p) : q, p in l_V}; its orthogonal
complement L_0 is flow-invariant and carries exactly the motions whose
contact-site momenta vanish for all time. Completeness (l_V = R^dof) makes
L_0 trivial and is generic among positive definite matrices.

``analyze`` reads a network's validated stiffness and spectrum and builds
one Krylov basis. It cross-computes dim L_0 three ways (Krylov rank,
zero-component eigenvector count for simple spectra, per-eigenvalue
projections of the seed coordinates), checks L_0 states of that basis's
complement along the flow, and reports eigenvalue multiplicities with their
completeness bound plus the rational independence heuristic for the
frequencies, skipped (None) where even the +-1 box exceeds the search cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral
from .errors import NumericalAbort
from .network import OscillatorNetwork, _mode_flow

#: default eigenvalue clustering tolerance, relative to the spectral radius
CLUSTER_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class DissipativeReport:
    """Everything ``analyze`` learns about (V, contact sites)."""

    order: int
    contact_sites: tuple
    krylov_rank: int
    complete: bool
    dim_neutral: int
    eigenvalues: np.ndarray
    eigen_multiplicities: tuple
    spectral_projection_dims: tuple
    rationally_independent: bool | None  # None: the scan was skipped
    independence_max_coeff: int | None  # coefficient box scanned, None when skipped
    independence_witness: np.ndarray | None
    clustering_ambiguous: bool
    multiplicity_bound: bool  # complete implies every multiplicity <= #contact sites
    l0_invariance: bool  # L_0 states keep the contact momenta at zero; generic ones do not


def _cluster_eigenvalues(eigenvalues: np.ndarray, tol: float):
    """Group ascending eigenvalues by the gap rule gap > tol*scale.

    Returns (list of index slices, ambiguous) where ambiguous flags any
    boundary whose gap sits within a decade of the threshold.
    """
    scale = max(float(np.abs(eigenvalues).max()), np.finfo(float).tiny)
    cut = tol * scale
    boundaries = [0]
    ambiguous = False
    for i, gap in enumerate(np.diff(eigenvalues)):
        if gap > cut:
            boundaries.append(i + 1)
            if gap < 10.0 * cut:
                ambiguous = True
    boundaries.append(eigenvalues.size)
    slices = [slice(a, b) for a, b in zip(boundaries[:-1], boundaries[1:])]
    return slices, ambiguous


def _independence_coeff_bound(order: int):
    """Largest max_coeff <= 5 whose search box fits under ``spectral.INDEPENDENCE_SEARCH_CAP``, or None."""
    return next((c for c in range(5, 0, -1)
                 if (2 * c + 1) ** order <= spectral.INDEPENDENCE_SEARCH_CAP), None)


def neutral_subspace_basis(krylov: np.ndarray) -> np.ndarray:
    """Orthonormal basis of L_0: the complement of the Krylov basis (n, rank), in q and in p."""
    rank = krylov.shape[1]
    complement = np.linalg.svd(krylov, full_matrices=True)[0][:, rank:]
    return np.kron(np.eye(2), complement)


def _l0_invariant(net: OscillatorNetwork, contact_modes: np.ndarray, krylov: np.ndarray) -> bool:
    """Whether L_0 states keep the contact-site momenta at rest along the flow.

    Five random L_0 states (``default_rng(0)``) must keep every contact-site
    momentum (eigenvector rows ``contact_modes``) within 1e-9 |psi| over the
    time grid 0, 0.25, ..., 20, and a random phase vector must exceed that
    somewhere; a complete network has no L_0, and only that vector is moved.
    """
    t_grid = np.linspace(0.0, 20.0, 81)
    rng = np.random.default_rng(0)

    def excited(vec: np.ndarray) -> bool:
        _, ph_t = _mode_flow(*net.to_modes(vec), net.mode_frequencies, net.mass, t_grid)
        return float(np.abs(ph_t @ contact_modes.T).max()) > 1e-9 * float(np.linalg.norm(vec))

    if krylov.shape[1] < net.dof:
        basis = neutral_subspace_basis(krylov)
        if any(excited(basis @ rng.standard_normal(basis.shape[1])) for _ in range(5)):
            return False
    return excited(rng.standard_normal(2 * net.dof))


def analyze(net: OscillatorNetwork, contact_sites) -> DissipativeReport:
    """Full damped-subspace report for a network and a contact-site set.

    The rank and the L_0 basis of the flow check (taken only when the rank is
    short) come from one Krylov basis. ``CLUSTER_TOL`` sets eigenvalue
    clustering, the Gram-Schmidt drop rule and the zero-component test on
    eigenvectors; the rational-independence scan takes the largest box under
    the search cap (``_independence_coeff_bound``). For simple spectra the
    neutral dimension is cross-checked against 2 * #{k : v_k vanishes at
    every contact site}; a mismatch (an eigenvector entry at a contact site
    near the cut, a numerical-rank boundary) raises ``NumericalAbort``.
    """
    order = net.dof
    sites = tuple(sorted(set(int(i) for i in contact_sites)))
    if not sites:
        raise ValueError("contact site set must not be empty")
    if sites[0] < 0 or sites[-1] >= order:
        raise ValueError(f"contact sites {sites} out of range for order {order}")

    krylov, rank = spectral.krylov_basis(net.stiffness, sites, tol=CLUSTER_TOL)
    complete = rank == order
    dim_neutral = 2 * (order - rank)

    dec = net.spectrum
    clusters, ambiguous = _cluster_eigenvalues(dec.eigenvalues, CLUSTER_TOL)
    multiplicities = tuple(sl.stop - sl.start for sl in clusters)
    contact_modes = dec.eigenvectors[list(sites)]  # (n_sites, order)

    # per-eigenvalue dimension of the projected seed coordinates
    projection_dims = tuple(
        int(np.sum(np.linalg.svd(contact_modes[:, sl], compute_uv=False) > CLUSTER_TOL))
        for sl in clusters
    )

    if all(m == 1 for m in multiplicities):
        dead = int(np.all(np.abs(contact_modes) <= CLUSTER_TOL, axis=0).sum())
        if 2 * dead != dim_neutral:
            raise NumericalAbort(
                "inconsistent neutral-space dimension: Krylov rank gives "
                f"{dim_neutral}, eigenvector zero-count gives {2 * dead}; "
                "the matrix sits on a numerical-rank boundary"
            )

    # the network's eigenvalues are positive: it refuses lambda_min <= 1e-12 lambda_max
    max_coeff = _independence_coeff_bound(order)
    indep = (None if max_coeff is None
             else spectral.check_rational_independence(np.sqrt(dec.eigenvalues), max_coeff))

    return DissipativeReport(
        order=order,
        contact_sites=sites,
        krylov_rank=rank,
        complete=complete,
        dim_neutral=dim_neutral,
        eigenvalues=dec.eigenvalues,
        eigen_multiplicities=multiplicities,
        spectral_projection_dims=projection_dims,
        rationally_independent=None if indep is None else indep.independent,
        independence_max_coeff=max_coeff,
        independence_witness=None if indep is None else indep.witness,
        clustering_ambiguous=ambiguous,
        multiplicity_bound=not complete or max(multiplicities) <= len(sites),
        l0_invariance=_l0_invariant(net, contact_modes, krylov),
    )
