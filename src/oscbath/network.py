"""Linear oscillator network: exact free flow and the energy function.

The network is N particles in d dimensions with Hamiltonian
H = sum_k |p_k|^2/(2M) + (1/2) q^T V q, V positive definite. The flow of
psi_dot = A psi, A = [[0, I/M], [-V, 0]], is evaluated exactly per spectral
mode of V (frequency sqrt(lambda/M)), so there is no integration error and
states at arbitrary jump times are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .spectral import SpectralDecomposition, decompose, symmetrize

#: relative floor for the smallest eigenvalue of V
MIN_EIGENVALUE_RATIO = 1e-12


@dataclass(frozen=True)
class PhaseState:
    """Point psi = (q, p) in the 2dN-dimensional phase space.

    Coordinate ordering is (q_{1,1}..q_{N,d}, p_{1,1}..p_{N,d}); the momentum
    of particle 1 occupies the first d slots of ``p``.
    """

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        if q.ndim != 1 or p.ndim != 1 or q.shape != p.shape:
            raise ValueError(
                f"q and p must be equal-length vectors, got {q.shape} / {p.shape}"
            )
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
            raise ValueError("phase state entries must be finite")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @property
    def vector(self) -> np.ndarray:
        """Concatenated (q, p) vector of length 2dN."""
        return np.concatenate([self.q, self.p])

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "PhaseState":
        v = np.asarray(vec, dtype=float).ravel()
        if v.size % 2 != 0:
            raise ValueError(f"phase vector length {v.size} is odd")
        half = v.size // 2
        return cls(q=v[:half], p=v[half:])

    @classmethod
    def zero(cls, dof: int) -> "PhaseState":
        return cls(q=np.zeros(dof), p=np.zeros(dof))


@dataclass(frozen=True)
class OscillatorNetwork:
    """Immutable network definition with cached spectral data.

    Parameters
    ----------
    n_particles : number of particles N >= 1
    dim : spatial dimension d >= 1
    mass : particle mass M > 0
    stiffness : positive definite (dN, dN) coupling matrix V
    """

    n_particles: int
    dim: int
    mass: float
    stiffness: np.ndarray
    spectrum: SpectralDecomposition = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_particles < 1 or self.dim < 1:
            raise ValueError("n_particles and dim must be >= 1")
        if not self.mass > 0:
            raise ValueError("mass must be positive")
        v = symmetrize(self.stiffness)
        if not np.all(np.isfinite(v)):
            raise ValueError("stiffness entries must be finite")
        dof = self.n_particles * self.dim
        if v.shape != (dof, dof):
            raise ValueError(
                f"stiffness must be ({dof}, {dof}) for N={self.n_particles}, "
                f"d={self.dim}; got {v.shape}"
            )
        spectrum = decompose(v)
        if spectrum.eigenvalues[0] <= MIN_EIGENVALUE_RATIO * spectrum.eigenvalues[-1]:
            raise ValueError(
                "stiffness matrix must be positive definite "
                f"(eigenvalues {spectrum.eigenvalues})"
            )
        object.__setattr__(self, "stiffness", v)
        object.__setattr__(self, "spectrum", spectrum)

    @property
    def dof(self) -> int:
        """Configuration-space dimension dN."""
        return self.n_particles * self.dim

    @property
    def omegas(self) -> np.ndarray:
        """sqrt of the eigenvalues of V (the spectrum entering rational
        independence), ascending."""
        return np.sqrt(self.spectrum.eigenvalues)

    @property
    def contact_sites(self) -> tuple:
        """Coordinates of particle 1, the one every collision kicks: 0..d-1."""
        return tuple(range(self.dim))

    @cached_property
    def contact_modes(self) -> np.ndarray:
        """Eigenvector rows at the contact sites, (d, dof): p1 = ph @ contact_modes.T."""
        return self.spectrum.eigenvectors[list(self.contact_sites)]

    def to_modes(self, x: np.ndarray):
        """Eigen-coordinates (qh, ph) of phase vectors x, shape (..., 2 dof)."""
        modes = self.spectrum.eigenvectors
        return x[..., : self.dof] @ modes, x[..., self.dof :] @ modes

    def from_modes(self, qh: np.ndarray, ph: np.ndarray) -> np.ndarray:
        """Phase vectors (..., 2 dof) of eigen-coordinates; inverse of ``to_modes``."""
        to_physical = self.spectrum.eigenvectors.T
        return np.concatenate([qh @ to_physical, ph @ to_physical], axis=-1)

    @property
    def mode_frequencies(self) -> np.ndarray:
        """Oscillation frequencies of the flow, sqrt(lambda/M), ascending."""
        return np.sqrt(self.spectrum.eigenvalues / self.mass)


def chain_stiffness(n: int, coupling: float = 1.0, pinning: float = 0.5) -> np.ndarray:
    """Nearest-neighbor chain matrix: tridiag(-k, 2k, -k) + pinning*I.

    Positive pinning makes the matrix strictly positive definite; nonzero
    coupling makes it a Jacobi matrix, hence complete from the first site.
    """
    if n < 1:
        raise ValueError("chain length must be >= 1")
    if not coupling > 0 or not pinning > 0:
        raise ValueError("coupling and pinning must be positive")
    v = 2.0 * coupling * np.eye(n) + pinning * np.eye(n)
    idx = np.arange(n - 1)
    v[idx, idx + 1] = -coupling
    v[idx + 1, idx] = -coupling
    return v


def energies(net: OscillatorNetwork, x: np.ndarray) -> np.ndarray:
    """H = (1/2) q^T V q + sum |p_k|^2/(2M) of each phase-vector row of x, shape (n, 2 dof)."""
    q, p = x[:, : net.dof], x[:, net.dof :]
    kinetic = np.einsum("ij,ij->i", p, p) / (2.0 * net.mass)
    return 0.5 * np.einsum("ij,jk,ik->i", q, net.stiffness, q) + kinetic


def energy(net: OscillatorNetwork, psi: PhaseState) -> float:
    """Hamiltonian of one state (nonnegative)."""
    if psi.q.shape[0] != net.dof:
        raise ValueError(
            f"state dimension {psi.q.shape[0]} does not match network dof {net.dof}"
        )
    return float(energies(net, psi.vector[None])[0])


def _mode_flow(qh, ph, omega, mass, t):
    """Rotate eigen-coordinates by time t (vectorized over modes and times)."""
    wt = np.multiply.outer(t, omega)
    c = np.cos(wt)
    s = np.sin(wt)
    momega = mass * omega
    qh_t = c * qh + s * (ph / momega)
    ph_t = -s * (momega * qh) + c * ph
    return qh_t, ph_t


def propagate(net: OscillatorNetwork, psi: PhaseState, t: float) -> PhaseState:
    """Exact free flow e^{tA} psi via the spectral modes of V.

    Negative t is permitted (the formulas are a group) and is exact; it is
    used only by tests.
    """
    if psi.q.shape[0] != net.dof:
        raise ValueError(
            f"state dimension {psi.q.shape[0]} does not match network dof {net.dof}"
        )
    if t == 0.0:
        return psi
    qh, ph = net.to_modes(psi.vector)
    return PhaseState.from_vector(
        net.from_modes(*_mode_flow(qh, ph, net.mode_frequencies, net.mass, float(t)))
    )


def generator_matrix(net: OscillatorNetwork) -> np.ndarray:
    """Block matrix A = [[0, I/M], [-V, 0]] in PhaseState ordering."""
    dof = net.dof
    a = np.zeros((2 * dof, 2 * dof))
    a[:dof, dof:] = np.eye(dof) / net.mass
    a[dof:, :dof] = -net.stiffness
    return a


def flow_matrix(net: OscillatorNetwork, t: float) -> np.ndarray:
    """Matrix of e^{tA} acting on (q, p) vectors: the mode rotation of each
    unit vector."""
    qh, ph = net.to_modes(np.eye(2 * net.dof))
    return net.from_modes(*_mode_flow(qh, ph, net.mode_frequencies, net.mass, float(t))).T
