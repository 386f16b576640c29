"""Structure of the damped subspace reached through the contact sites.

For contact-site set S (0-based coordinate indices), l_V is the Krylov
subspace spanned by {V^k e_n : n in S}. The damped ("dissipative") subspace
of phase space is L_minus = {(q, p) : q, p in l_V}; its orthogonal
complement L_0 is flow-invariant and carries exactly the motions whose
contact-site momenta vanish for all time. Completeness (l_V = R^dof) makes
L_0 trivial and is generic among positive definite matrices.

``analyze`` cross-computes dim L_0 three ways (Krylov rank, zero-component
eigenvector count for simple spectra, per-eigenvalue projections of the
seed coordinates) and reports eigenvalue multiplicities plus the rational
independence heuristic for the frequencies, skipped (reported as None)
where even the +-1 coefficient box exceeds the search cap, order >= 15.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import spectral
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

    def to_dict(self) -> dict:
        d = asdict(self)
        d["eigenvalues"] = [float(x) for x in self.eigenvalues]
        d["contact_sites"] = list(self.contact_sites)
        d["eigen_multiplicities"] = list(self.eigen_multiplicities)
        d["spectral_projection_dims"] = list(self.spectral_projection_dims)
        d["independence_witness"] = (
            None
            if self.independence_witness is None
            else [int(x) for x in self.independence_witness]
        )
        return d


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


def _independence_coeff_bound(order: int, cap: int = spectral.INDEPENDENCE_SEARCH_CAP):
    """Largest max_coeff <= 5 whose search box fits under the cap, or None."""
    return next((c for c in range(5, 0, -1) if (2 * c + 1) ** order <= cap), None)


def analyze(
    stiffness: np.ndarray,
    contact_sites,
    tol: float = CLUSTER_TOL,
    independence_max_coeff: int | None = None,
    independence_tol: float = 1e-9,
) -> DissipativeReport:
    """Full damped-subspace report for a stiffness matrix and contact sites.

    ``tol`` controls eigenvalue clustering, the Gram-Schmidt drop rule, and
    the zero-component test on eigenvectors. For simple spectra the neutral
    dimension is cross-checked against the eigenvector count
    2 * #{k : v_k has zero entries at every contact site}; a mismatch is a
    numerical-rank inconsistency and raises.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    v = spectral.symmetrize(stiffness)
    order = v.shape[0]
    sites = tuple(sorted(set(int(i) for i in contact_sites)))
    if not sites:
        raise ValueError("contact site set must not be empty")
    if sites[0] < 0 or sites[-1] >= order:
        raise ValueError(f"contact sites {sites} out of range for order {order}")

    _, rank = spectral.krylov_basis(v, sites, tol=tol)
    complete = rank == order
    dim_neutral = 2 * (order - rank)

    dec = spectral.decompose(v)
    clusters, ambiguous = _cluster_eigenvalues(dec.eigenvalues, tol)
    multiplicities = tuple(sl.stop - sl.start for sl in clusters)

    # per-eigenvalue dimension of the projected seed coordinates
    projection_dims = []
    for sl in clusters:
        block = dec.eigenvectors[:, sl]  # (order, mult)
        seed_components = block[list(sites), :]  # (n_sites, mult)
        if seed_components.size == 0:
            projection_dims.append(0)
            continue
        sv = np.linalg.svd(seed_components, compute_uv=False)
        projection_dims.append(int(np.sum(sv > tol)))
    projection_dims = tuple(projection_dims)

    if all(m == 1 for m in multiplicities):
        dead = int(np.all(np.abs(dec.eigenvectors[list(sites)]) <= tol, axis=0).sum())
        if 2 * dead != dim_neutral:
            raise RuntimeError(
                "inconsistent neutral-space dimension: Krylov rank gives "
                f"{dim_neutral}, eigenvector zero-count gives {2 * dead}; "
                "the matrix sits on a numerical-rank boundary"
            )

    omegas = np.sqrt(np.maximum(dec.eigenvalues, 0.0))
    if np.any(omegas <= 0):
        raise ValueError("stiffness must be positive definite for the frequency scan")
    max_coeff = (
        independence_max_coeff
        if independence_max_coeff is not None
        else _independence_coeff_bound(order)
    )
    indep = None if max_coeff is None else spectral.check_rational_independence(
        omegas, max_coeff=max_coeff, tol=independence_tol
    )

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
    )


def multiplicity_bound_check(report: DissipativeReport) -> bool:
    """Completeness forces every eigenvalue multiplicity <= #contact sites."""
    if not report.complete:
        return True
    return max(report.eigen_multiplicities) <= len(report.contact_sites)


def damped_subspace_basis(
    stiffness: np.ndarray, contact_sites, tol: float = CLUSTER_TOL
) -> np.ndarray:
    """Orthonormal basis of L_minus = {(q, p): q, p in l_V}, shape (2n, 2r)."""
    basis, _ = spectral.krylov_basis(stiffness, contact_sites, tol=tol)
    return np.kron(np.eye(2), basis)


def neutral_subspace_basis(
    stiffness: np.ndarray, contact_sites, tol: float = CLUSTER_TOL
) -> np.ndarray:
    """Orthonormal basis of L_0 (orthogonal complement of L_minus)."""
    basis, rank = spectral.krylov_basis(stiffness, contact_sites, tol=tol)
    # complement of the Krylov space in R^n via full SVD
    u = np.linalg.svd(basis, full_matrices=True)[0] if rank else np.eye(basis.shape[0])
    return np.kron(np.eye(2), u[:, rank:])


def l0_invariance_check(
    net: OscillatorNetwork,
    n_probes: int = 5,
    t_grid=None,
    tol: float = 1e-9,
    seed: int = 0,
) -> bool:
    """Check that L_0 states keep zero contact-site momenta along the flow.

    Propagates random L_0 combinations over the time grid and requires
    |p_n(t)| <= tol*|psi| for every contact site of the network (particle
    1's coordinates); additionally requires a random state outside L_0 to
    violate that bound somewhere on the grid.
    """
    if t_grid is None:
        t_grid = np.linspace(0.0, 20.0, 81)
    t_grid = np.asarray(t_grid, dtype=float)
    rng = np.random.default_rng(seed)
    basis = neutral_subspace_basis(net.stiffness, net.contact_sites)

    def max_site_momentum(vec: np.ndarray) -> float:
        _, ph_t = _mode_flow(*net.to_modes(vec), net.mode_frequencies, net.mass, t_grid)
        return float(np.abs(ph_t @ net.contact_modes.T).max())

    if basis.shape[1] > 0:
        for _ in range(n_probes):
            coeffs = rng.standard_normal(basis.shape[1])
            vec = basis @ coeffs
            norm = float(np.linalg.norm(vec))
            if norm == 0.0:
                continue
            if max_site_momentum(vec) > tol * norm:
                return False

    # a generic state must excite the contact momenta somewhere on the grid
    vec = rng.standard_normal(2 * net.dof)
    return max_site_momentum(vec) > tol * float(np.linalg.norm(vec))
