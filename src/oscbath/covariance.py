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
exponential per step size (of the augmented generator on (vech C, 1), or of
the damped generator), then one matrix-vector product per sample. The
homogeneous equation is the covariance equation at sigma2 = 0, where the
source term vanishes.
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
    """Samples of C(t) at t_k = k h: all of them, or after a march toward a
    target only the last, with ``gaps[k]`` = max|C(t_k) - target| for all.
    ``min_psd_margin`` is the smallest min-eigenvalue / (PSD_GUARD_TOL *
    scale) over the samples; the guard aborts below -1. On a march toward a
    target, a sample that Weyl's bound certifies, from the target or from a
    diagonalised anchor C_a (``integrate_covariance``), enters with that
    bound (at least 1) in place of its margin, so when every diagonalised
    margin exceeds 1 the reported value may sit below the true minimum; it is
    never above it.

    Of the samples the guard checked (on a march toward a target, the whole
    block of BLOCK samples in which it stopped), ``diagonalised`` went
    through ``eigvalsh``, anchors included; ``certified_target`` and
    ``certified_anchor`` were cleared by the bound from the target and from
    an anchor. Without a target every sample is diagonalised."""

    times: np.ndarray
    matrices: np.ndarray
    gaps: np.ndarray | None = None
    min_psd_margin: float = float("nan")
    diagonalised: int = 0
    certified_target: int = 0
    certified_anchor: int = 0

    @property
    def final(self) -> np.ndarray:
        return self.matrices[-1]


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
    """G = [[L, s], [0, 0]] with d/dt (vech C, 1) = G (vech C, 1).

    vech(C) is the upper triangle of C row by row. Column j of the
    homogeneous operator L is vech of the right-hand side, at sigma2 = 0, of
    the j-th symmetric basis matrix; s is vech of the right-hand side of
    C = 0, the source term, which is 0 at sigma2 = 0.
    """
    dof = net.dof
    a_mat, homogeneous = generator_matrix(net), replace(params, sigma2=0.0)
    rows, cols = np.triu_indices(2 * dof)
    gen = np.zeros((rows.size + 1, rows.size + 1))
    basis = np.zeros((2 * dof, 2 * dof))
    for j, (r, c) in enumerate(zip(rows, cols)):
        basis[r, c] = basis[c, r] = 1.0
        gen[:-1, j] = _rhs(basis, a_mat, dof, homogeneous)[rows, cols]
        basis[r, c] = basis[c, r] = 0.0
    gen[:-1, -1] = _rhs(basis, a_mat, dof, params)[rows, cols]
    return gen


def spectral_abscissa(net: OscillatorNetwork, params: MomentParams) -> float:
    """Largest real part in the spectrum of L: deviations from the fixed
    point decay like e^{a t}; a = 0 up to roundoff on incomplete networks."""
    return float(np.linalg.eigvals(moment_generator(net, params)[:-1, :-1]).real.max())


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
    c0: np.ndarray,
    net: OscillatorNetwork,
    params: MomentParams,
    t_end: float,
    sample_dt: float,
    target: np.ndarray | None = None,
    tol: float = 0.0,
) -> CovarianceTrajectory:
    """Exact solution of the covariance ODE at t_k = k h, k = 0..n; at
    ``params.sigma2`` = 0, of the homogeneous equation.

    The samples come from one exponential of ``moment_generator`` (spacing
    as in ``_exact_samples``), and every one must pass the PSD guard,
    min eigenvalue >= -PSD_GUARD_TOL * scale with scale = max|C(t_k)|
    floored at the source term (at 1e-300 when that is 0); a
    violation, or a sample with a non-finite entry, aborts with its time
    stamp. With ``target`` the march keeps
    only the gaps max|C(t_k) - target| and stops at the first sample with
    gap <= ``tol``, or at t_end. On that march a sample is certified by
    Weyl's inequality, lambda_min(C) >= lambda_min(target) - |C - target|_F,
    when the bound clears PSD_GUARD_TOL * scale. Of the samples in a block
    that this bound leaves, every ANCHOR_STRIDE-th is an anchor C_a and is
    diagonalised; each other one is certified when the better of
    lambda_min(C_a) - allowance(C_a) - |C - C_a|_F over the anchors before
    and after it clears PSD_GUARD_TOL * scale, and is diagonalised
    otherwise. Both bounds give up the same roundoff allowance,
    3 (2 dof)^2 eps |.|_F of the target or of C_a. The march without a
    target diagonalises every sample.
    """
    dof = net.dof
    c = 0.5 * (np.asarray(c0, dtype=float) + np.asarray(c0, dtype=float).T)
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
    if target is not None:
        t_vech = np.asarray(target, dtype=float)[rows, cols]
        lam_min = (np.linalg.eigvalsh(symmetric(t_vech[None]))[0, 0]
                   - roundoff * math.sqrt(t_vech**2 @ weights))
    h, blocks = _exact_samples(moment_generator(net, params), np.append(c[rows, cols], 1.0),
                               t_end, sample_dt)
    floor = max(params.source, 1e-300)
    kept, gaps, margins = [], [], []
    counts = {"diagonalised": 0, "certified_target": 0, "certified_anchor": 0}
    for block in blocks:
        vech = block[:, :-1]
        size = np.abs(vech).max(axis=1)  # NaN or inf where a sample is not finite
        if not np.isfinite(size).all():  # guard the samples before the first non-finite one
            vech = vech[: int(np.argmin(np.isfinite(size)))]
            size = size[: len(vech)]
        scale = PSD_GUARD_TOL * np.maximum(size, floor)
        margin = np.empty(len(vech))
        min_eig = np.full(len(vech), np.nan)
        exact = todo = np.arange(len(vech))  # rows with an exact margin, rows to diagonalise
        if target is not None:
            diff = vech - t_vech
            margin = (lam_min - np.sqrt(diff**2 @ weights)) / scale  # Weyl: a lower bound
            check = np.flatnonzero(~(margin >= 1.0))  # a NaN bound is checked too
            anchor = np.arange(check.size) % ANCHOR_STRIDE == 0
            min_eig[check[anchor]] = least_eigenvalues(vech[check[anchor]])
            bound = _anchor_bound(vech[check], min_eig[check[anchor]], weights, roundoff)
            bound /= scale[check]
            sure = (bound >= 1.0) & ~anchor
            margin[check[sure]] = bound[sure]
            exact, todo = check[~sure], check[~sure & ~anchor]
            counts["certified_target"] += len(vech) - check.size
            counts["certified_anchor"] += int(sure.sum())
        min_eig[todo] = least_eigenvalues(vech[todo])
        margin[exact] = min_eig[exact] / scale[exact]
        counts["diagonalised"] += exact.size
        bad = np.flatnonzero(margin < -1.0)
        if bad.size:
            k = int(bad[0])
            t = (sum(map(len, margins)) + k) * h
            raise NumericalAbort(f"covariance lost positive semidefiniteness at t={t:.6g} "
                                 f"(min eigenvalue {min_eig[k]:.3e})")
        if len(vech) < len(block):
            t = (sum(map(len, margins)) + len(vech)) * h
            raise NumericalAbort(f"covariance sample not finite at t={t:.6g}")
        margins.append(margin)
        if target is None:
            kept.append(symmetric(vech))
            continue
        gap = np.abs(diff).max(axis=1)
        stop = int(np.argmax(gap <= tol)) + 1 if gap.min() <= tol else len(gap)
        gaps.append(gap[:stop])
        kept = [symmetric(vech[stop - 1 : stop])]
        if gap[stop - 1] <= tol:
            break
    gaps = np.concatenate(gaps) if target is not None else None
    return CovarianceTrajectory(
        times=np.arange(sum(map(len, kept)) if gaps is None else gaps.size) * h,
        matrices=np.concatenate(kept),
        gaps=gaps,
        min_psd_margin=float(np.concatenate(margins).min()),
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
        write_csv_rows(out, np.column_stack([traj.times, f_values, q11, p11]))
