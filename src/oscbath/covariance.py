"""Deterministic second-moment analysis of the collisional dynamics.

For the 1-D elastic model with exponential waiting times the mean and
covariance of the process obey closed linear ODEs:

    mean:        psi_dot = (A - lam*(1-alpha)*Gamma) psi
    covariance:  C_dot = A C + C A^T
                 - lam*(1-alpha) * (Gamma C + C Gamma - (1-alpha) Gamma C Gamma)
                 + lam*(1-alpha)^2 * M^2 * sigma2 * Gamma

where Gamma = g g^T selects the first momentum coordinate of the kicked
particle (index dof of the phase vector). The stationary point is
beta^{-1} diag(V^{-1}, M I) with beta = (1+alpha)/(M (1-alpha) sigma2), and
F(C) = Tr(diag(V, I/M) C) is a Lyapunov functional of the homogeneous
equation with dF/dt = -lam*(1-alpha^2)/M * C[g, g].

Both equations are linear and autonomous and are solved exactly: one matrix
exponential per step size (of the homogeneous operator L on vech C, or of
the damped generator), then one matrix-vector product per sample. The
homogeneous equation is the covariance equation at sigma2 = 0, where the
source term vanishes. With H(t) = e^{tL} C_G, the covariance from C = 0 is
C(t) = C_G - H(t), so one march from C_G gives both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .csvfmt import write_csv_rows
from .errors import NumericalAbort
from .network import OscillatorNetwork, PhaseState, energy, generator_matrix

#: relative slack for the positive-semidefiniteness guard on every sample
PSD_GUARD_TOL = 1e-8

#: largest dof the covariance subcommand accepts: the operator acts on
#: vech(C), dof (2 dof + 1) entries, 300 at dof 12
MAX_DOF = 12

#: samples computed, and PSD-checked in one batch, at a time
BLOCK = 1024

#: on a march toward a target, every ANCHOR_STRIDE-th sample the target bound
#: leaves unchecked is diagonalised and certifies its neighbours. A chain-6
#: `covariance` call then diagonalises 1,724 matrices (5,585 with the target
#: bound alone); a stride of 8 leaves 1,930 and 32 leaves 1,658, and 16 to 64
#: march equally fast on chains of 6 and 10
ANCHOR_STRIDE = 16

# degree-13 Pade coefficients (26-k)! 13! / (26! k! (13-k)!) and the 1-norm up to
# which they need no scaling (Higham 2005, SIAM J. Matrix Anal. Appl. 26:1179)
_PADE13 = [math.factorial(26 - k) * math.factorial(13) / math.factorial(26)
           / (math.factorial(k) * math.factorial(13 - k)) for k in range(14)]
_THETA13 = 5.371920351148152


@dataclass(frozen=True)
class MomentParams:
    """Rate/contraction/noise parameters of the kicked-momentum moment ODEs.

    ``lam`` is the exponential collision rate (0 selects the collision-free
    reduction), ``alpha`` = (M-m)/(M+m) in [0, 1) (0 is an equal-mass
    exchange), ``sigma2`` the external-velocity variance (0 gives the
    homogeneous covariance equation), and ``mass`` the particle mass M.
    """

    lam: float
    alpha: float
    sigma2: float
    mass: float = 1.0

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("collision rate must be nonnegative")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1)")
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be nonnegative")
        if not self.mass > 0:
            raise ValueError("mass must be positive")

    @property
    def source(self) -> float:
        """Source term lam (1-alpha)^2 M^2 sigma2 of the kicked entry C[g, g]."""
        return self.lam * (1.0 - self.alpha) ** 2 * self.mass**2 * self.sigma2


def beta_from_params(params: MomentParams) -> float:
    """Inverse temperature beta = (1+alpha) / (M (1-alpha) sigma2)."""
    if params.sigma2 == 0:
        raise ValueError("beta is undefined for zero noise variance")
    return (1.0 + params.alpha) / (
        params.mass * (1.0 - params.alpha) * params.sigma2
    )


def gibbs_covariance(net: OscillatorNetwork, beta: float) -> np.ndarray:
    """Stationary covariance beta^{-1} diag(V^{-1}, M I) (symmetric PD)."""
    if not beta > 0:
        raise ValueError("beta must be positive")
    q = net.spectrum.eigenvectors
    v_inv = (q / net.spectrum.eigenvalues) @ q.T
    dof = net.dof
    c = np.zeros((2 * dof, 2 * dof))
    c[:dof, :dof] = v_inv / beta
    c[dof:, dof:] = (net.mass / beta) * np.eye(dof)
    return c


def _rhs(c, a_mat, dof, params):
    k = dof  # the kicked momentum p_{1,1}
    rhs = a_mat @ c + c @ a_mat.T
    if params.lam > 0:
        damp = np.zeros_like(c)
        damp[k, :] += c[k, :]
        damp[:, k] += c[:, k]
        damp[k, k] -= (1.0 - params.alpha) * c[k, k]
        rhs -= params.lam * (1.0 - params.alpha) * damp
        rhs[k, k] += params.source
    return 0.5 * (rhs + rhs.T)


def covariance_rhs(c: np.ndarray, net: OscillatorNetwork, params: MomentParams) -> np.ndarray:
    """Right-hand side of the covariance ODE, symmetrized.

    At ``params.sigma2`` = 0 this is the homogeneous operator L(C), whose
    flow drives any PSD matrix to zero when the stiffness is complete.
    """
    c = np.asarray(c, dtype=float)
    dof = net.dof
    if c.shape != (2 * dof, 2 * dof):
        raise ValueError(f"covariance must be ({2 * dof}, {2 * dof}), got {c.shape}")
    return _rhs(c, generator_matrix(net), dof, params)


@dataclass(frozen=True, eq=False)
class CovarianceTrajectory:
    """The flow H(t_k) = e^{t_k L} C_G at t_k = k h: ``times`` of every
    sample marched, ``gaps[k]`` = max|H(t_k)| / max|C_G| of those searched,
    and ``matrices`` H at the kept samples ``times[keep]``.
    ``min_psd_margin`` is the smallest min-eigenvalue / (PSD_GUARD_TOL *
    scale) of both guards (``integrate_covariance``), which abort below -1.
    A forced sample C_G - H(t_k) that Weyl's bound certifies, from C_G or
    from a diagonalised anchor, enters with that bound (at least 1) in place
    of its margin, so the reported value is never above the true minimum.
    ``diagonalised`` samples went through ``eigvalsh``: the kept H(t_k) and
    the forced samples no bound cleared, anchors included;
    ``certified_target`` and ``certified_anchor`` forced samples were cleared
    by the bound from C_G and from an anchor."""

    times: np.ndarray
    gaps: np.ndarray
    matrices: np.ndarray
    keep: slice
    min_psd_margin: float
    diagonalised: int
    certified_target: int
    certified_anchor: int


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by the degree-13 Pade approximant with scaling
    and squaring (Higham 2005)."""
    a = np.asarray(a, dtype=float)
    norm = float(np.abs(a).sum(axis=0).max())
    squarings = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    a = a / 2.0**squarings
    b, ident = _PADE13, np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r


def _exact_samples(gen, y0, t_end, sample_dt):
    """(h, blocks): y_k = e^{k h gen} y0, k = 0..n, in blocks of BLOCK rows.

    h = t_end / n is the largest equal spacing not above ``sample_dt``. One
    exponential gives the step E; the rows of a block are filled by doubling,
    rows[2^j + i] = E^(2^j) rows[i], from the powers E^(2^j) below the block's
    min(BLOCK, n + 1) rows."""
    if not t_end > 0 or not sample_dt > 0:
        raise ValueError("t_end and sample_dt must be positive")
    n = max(1, math.ceil(t_end / sample_dt * (1 - 1e-12)))
    h = t_end / n
    powers = [expm(h * gen)]
    while 2 ** len(powers) < min(BLOCK, n + 1):
        powers.append(powers[-1] @ powers[-1])

    def blocks():
        y = np.asarray(y0, dtype=float)
        for start in range(0, n + 1, BLOCK):
            rows = np.empty((min(BLOCK, n + 1 - start), y.size))
            rows[0] = y
            for j, power in enumerate(powers):
                k = min(2**j, len(rows) - 2**j)
                if k <= 0:
                    break
                rows[2**j : 2**j + k] = rows[:k] @ power.T
            yield rows
            y = powers[0] @ rows[-1]

    return h, blocks()


def moment_generator(net: OscillatorNetwork, params: MomentParams) -> np.ndarray:
    """The homogeneous operator L with d/dt vech H = L vech H, which does
    not depend on sigma2.

    vech(C) is the upper triangle of C row by row, dof (2 dof + 1) entries.
    Column j of L is vech of the right-hand side, at sigma2 = 0, of the j-th
    symmetric basis matrix.
    """
    dof = net.dof
    a_mat, homogeneous = generator_matrix(net), replace(params, sigma2=0.0)
    rows, cols = np.triu_indices(2 * dof)
    gen = np.zeros((rows.size, rows.size))
    basis = np.zeros((2 * dof, 2 * dof))
    for j, (r, c) in enumerate(zip(rows, cols)):
        basis[r, c] = basis[c, r] = 1.0
        gen[:, j] = _rhs(basis, a_mat, dof, homogeneous)[rows, cols]
        basis[r, c] = basis[c, r] = 0.0
    return gen


def spectral_abscissa(net: OscillatorNetwork, params: MomentParams) -> float:
    """Largest real part in the spectrum of L: deviations from the fixed
    point decay like e^{a t}; a = 0 up to roundoff on incomplete networks."""
    return float(np.linalg.eigvals(moment_generator(net, params)).real.max())


def _anchor_bound(rows, anchor_eig, weights, roundoff):
    """Weyl lower bounds lambda_min(C_a) - allowance(C_a) - |C - C_a|_F on the
    least eigenvalue of each of ``rows`` (vech), from the anchors
    rows[::ANCHOR_STRIDE] with least eigenvalues ``anchor_eig``: each row takes
    the better bound of the anchors before and after it."""
    anchors = rows[::ANCHOR_STRIDE]
    low = anchor_eig - roundoff * np.sqrt(anchors**2 @ weights)
    before = np.arange(len(rows)) // ANCHOR_STRIDE
    after = np.minimum(before + 1, len(anchors) - 1)
    return np.fmax(*(low[a] - np.sqrt((rows - anchors[a]) ** 2 @ weights)
                     for a in (before, after)))


# a sample that overflows is not finite and fails the guard; a Weyl bound that
# overflows leaves its sample to eigvalsh
@np.errstate(over="ignore", invalid="ignore")
def integrate_covariance(
    c_g: np.ndarray,
    net: OscillatorNetwork,
    params: MomentParams,
    t_end: float,
    sample_dt: float,
    tol: float = 0.0,
    keep: slice = slice(None),
) -> CovarianceTrajectory:
    """The homogeneous flow H(t_k) = e^{t_k L} C_G from ``c_g`` = C_G, and with
    it C(t_k) = C_G - H(t_k), which solves the covariance equation from C = 0
    when C_G is its fixed point.

    One exponential of ``moment_generator`` (L does not depend on sigma2)
    gives the samples, at the spacing h of ``_exact_samples``. The search,
    t_k <= t_end, ends at the first sample with gap max|H(t_k)| / max|C_G| <=
    ``tol``; the samples k in range(n + 1)[keep], n the last of the search
    or ``keep.stop`` - 1, are kept; the march runs through both.

    Two PSD guards, min eigenvalue >= -PSD_GUARD_TOL * scale, abort with the
    time stamp of the first sample that fails one, or that is not finite.
    Every kept H(t_k) is diagonalised, with scale = max|H(t_k)| floored at
    1e-300. Every forced sample C_G - H(t_k) of the search is guarded with
    scale = max|C_G - H(t_k)| floored at max|L(C_G)|, at the fixed point the
    source term. It is certified by Weyl's inequality, lambda_min(C_G - H) >=
    lambda_min(C_G) - |H|_F, when the bound clears PSD_GUARD_TOL * scale. Of
    the samples in a block that this bound leaves, every ANCHOR_STRIDE-th is
    an anchor C_a and is diagonalised; each other one is certified when the
    better of lambda_min(C_a) - allowance(C_a) - |C - C_a|_F over the anchors
    before and after it clears PSD_GUARD_TOL * scale, and is diagonalised
    otherwise. Both bounds give up the same roundoff allowance,
    3 (2 dof)^2 eps |.|_F of C_G or of C_a.
    """
    dof = net.dof
    c = 0.5 * (np.asarray(c_g, dtype=float) + np.asarray(c_g, dtype=float).T)
    if c.shape != (2 * dof, 2 * dof):
        raise ValueError(f"covariance must be ({2 * dof}, {2 * dof}), got {c.shape}")
    rows, cols = np.triu_indices(2 * dof)

    def symmetric(vech):
        mats = np.empty((len(vech), 2 * dof, 2 * dof))
        mats[:, rows, cols] = mats[:, cols, rows] = vech
        return mats

    def least_eigenvalues(vech):  # no eigvalsh call for no rows
        return np.linalg.eigvalsh(symmetric(vech))[:, 0] if len(vech) else np.empty(0)

    # |C - D|_F from vech counts the off-diagonal entries twice. Weyl's bound
    # lam_min(C) >= lam_min(D) - |C - D|_F is on exact eigenvalues, so lam_min(D)
    # gives up a generous (2 dof)^2 eps |.|_2 for the roundoff of eigvalsh on D
    # and as much again on a certified C, whose |C|_2 <= 2 |D|_F (Higham 2002)
    weights = np.where(rows == cols, 1.0, 2.0)
    roundoff = 3 * (2 * dof) ** 2 * np.finfo(float).eps
    gen, g_vech = moment_generator(net, params), c[rows, cols]
    lam_min = (np.linalg.eigvalsh(symmetric(g_vech[None]))[0, 0]
               - roundoff * math.sqrt(g_vech**2 @ weights))
    floor = max(float(np.abs(gen @ g_vech).max()), 1e-300)
    search_end = math.ceil(t_end / sample_dt * (1 - 1e-12)) if t_end > 0 else 0
    kept = np.arange(*keep.indices(max(search_end, (keep.stop or 0) - 1) + 1))
    last_kept = int(kept[-1]) if kept.size else 0
    march_end = max(search_end, last_kept)
    h, blocks = _exact_samples(gen, g_vech, max(march_end, 1) * sample_dt, sample_dt)
    gaps, matrices, least = [], [], math.inf
    counts = {"diagonalised": 0, "certified_target": 0, "certified_anchor": 0}
    start = 0
    for vech in blocks:
        size = np.abs(vech).max(axis=1)  # NaN or inf where a sample is not finite
        gap = size[: max(search_end + 1 - start, 0)] / abs(g_vech).max()
        if np.any(gap <= tol):  # the search ends at its first hit, the march after it
            gap = gap[: int(np.argmax(gap <= tol)) + 1]
            search_end = start + len(gap) - 1
            march_end = max(search_end, last_kept)
        vech, size = vech[: march_end + 1 - start], size[: march_end + 1 - start]
        end = start + len(vech)
        finite = int(np.cumprod(np.isfinite(size)).sum())  # guard those before a non-finite one
        vech, size = vech[:finite], size[:finite]
        forced = g_vech - vech[: len(gap)]
        scale = PSD_GUARD_TOL * np.maximum(np.abs(forced).max(axis=1), floor)
        margin = (lam_min - np.sqrt(vech[: len(gap)] ** 2 @ weights)) / scale  # Weyl
        min_eig = np.full(len(forced), np.nan)
        check = np.flatnonzero(~(margin >= 1.0))  # a NaN bound is checked too
        anchor = np.arange(check.size) % ANCHOR_STRIDE == 0
        min_eig[check[anchor]] = least_eigenvalues(forced[check[anchor]])
        bound = _anchor_bound(forced[check], min_eig[check[anchor]], weights, roundoff)
        bound /= scale[check]
        sure = (bound >= 1.0) & ~anchor
        margin[check[sure]] = bound[sure]
        exact, todo = check[~sure], check[~sure & ~anchor]
        min_eig[todo] = least_eigenvalues(forced[todo])
        margin[exact] = min_eig[exact] / scale[exact]
        mine = kept[(kept >= start) & (kept < start + len(vech))] - start
        h_eig = least_eigenvalues(vech[mine])
        h_margin = h_eig / (PSD_GUARD_TOL * np.maximum(size[mine], 1e-300))
        counts["diagonalised"] += exact.size + mine.size
        counts["certified_target"] += len(forced) - check.size
        counts["certified_anchor"] += int(sure.sum())
        bad = np.concatenate([np.flatnonzero(margin < -1.0), mine[h_margin < -1.0]])
        if bad.size:
            k = int(bad.min())
            low = min_eig[k] if k < len(margin) and margin[k] < -1.0 else h_eig[mine == k][0]
            raise NumericalAbort(f"covariance lost positive semidefiniteness at "
                                 f"t={(start + k) * h:.6g} (min eigenvalue {low:.3e})")
        if start + len(vech) < end:
            raise NumericalAbort(f"covariance sample not finite at t={(start + len(vech)) * h:.6g}")
        least = min(least, margin.min(initial=least), h_margin.min(initial=least))
        matrices.append(vech[mine])
        gaps.append(gap)
        start = end
        if start > march_end:
            break
    return CovarianceTrajectory(
        times=np.arange(start) * h,
        gaps=np.concatenate(gaps),
        matrices=symmetric(np.concatenate(matrices)),
        keep=keep,
        min_psd_margin=float(least),
        **counts,
    )


def lyapunov_functional(c: np.ndarray, net: OscillatorNetwork):
    """F(C) = Tr(diag(V, I/M) C), the beta-free Lyapunov functional: a float
    for one matrix, an array of one value per matrix for a (..., 2dof, 2dof)
    stack. Of second moments C = E x x^T it is 2 E H."""
    c = np.asarray(c, dtype=float)
    dof = net.dof
    qq = c[..., :dof, :dof]
    pp = c[..., dof:, dof:]
    f = (np.trace(net.stiffness @ qq, axis1=-2, axis2=-1)
         + np.trace(pp, axis1=-2, axis2=-1) / net.mass)
    return float(f) if f.ndim == 0 else f


def damped_generator(net: OscillatorNetwork, params: MomentParams) -> np.ndarray:
    """Mean-dynamics generator A - lam*(1-alpha)*Gamma."""
    a = generator_matrix(net)
    a[net.dof, net.dof] -= params.lam * (1.0 - params.alpha)
    return a


@dataclass(frozen=True, eq=False)
class MeanTrajectory:
    """Sampled mean dynamics (Q(t), P(t))."""

    times: np.ndarray
    states: np.ndarray

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def mean_dynamics(
    net: OscillatorNetwork,
    params: MomentParams,
    psi0: PhaseState,
    t_end: float,
    sample_dt: float,
) -> MeanTrajectory:
    """Exact solution of the damped mean equations, sampled as in
    ``integrate_covariance``. With lam = 0 this is the free flow; with a
    complete stiffness matrix and lam*(1-alpha) > 0 the mean decays to zero.
    """
    if psi0.q.shape[0] != net.dof:
        raise ValueError("initial state does not match the network")
    h, blocks = _exact_samples(damped_generator(net, params), psi0.vector, t_end, sample_dt)
    states = np.concatenate(list(blocks))
    return MeanTrajectory(times=np.arange(len(states)) * h, states=states)


def energy_norm(net: OscillatorNetwork, vec: np.ndarray) -> float:
    """sqrt(2 H) of a phase vector: the flow-invariant metric on states."""
    return math.sqrt(2.0 * energy(net, PhaseState.from_vector(vec)))


def lyapunov_to_csv(
    traj: CovarianceTrajectory, f_values: np.ndarray, net: OscillatorNetwork, path
) -> None:
    """Write `t,F,C_q11,C_p11` rows at full double precision; ``f_values`` is
    ``lyapunov_functional`` at each of ``traj.matrices``.

    The bytes are those of ``np.savetxt(..., fmt="%.17g", delimiter=",")``,
    formatted by ``csvfmt.csv_rows``.
    """
    dof = net.dof
    q11 = traj.matrices[:, 0, 0]
    p11 = traj.matrices[:, dof, dof]
    with open(path, "w") as out:
        out.write("t,F,C_q11,C_p11\n")
        write_csv_rows(out, np.column_stack([traj.times[traj.keep], f_values, q11, p11]))
