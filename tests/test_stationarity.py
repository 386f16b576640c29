import numpy as np
import pytest

from _reference_engine import gibbs_sampler
from oscbath.collisions import OneDimElastic
from oscbath.covariance import MomentParams, beta_from_params, gibbs_covariance
from oscbath.laws import (
    GaussianVelocity,
    TwoPointVelocity,
    UniformSymmetricVelocity,
)
from oscbath.network import OscillatorNetwork, chain_stiffness
from oscbath.stationarity import one_step_moment_shift, stationarity_residual

ALPHA = 1.0 / 3.0
GRID = np.linspace(-5.0, 5.0, 101)


def matched_beta(sigma2=1.0, mass=1.0):
    return beta_from_params(MomentParams(lam=1.0, alpha=ALPHA, sigma2=sigma2, mass=mass))


def _quad_kernel_mean(law, a, b):
    """E exp(-(a + b v)^2) over the law's velocity v: scipy quadrature of the density, split at the peak."""
    kernel = lambda v: np.exp(-((a + b * v) ** 2))
    if isinstance(law, TwoPointVelocity):  # no density: the mean of its two atoms
        return 0.5 * (kernel(law.magnitude) + kernel(-law.magnitude))
    quad = pytest.importorskip("scipy.integrate").quad
    if isinstance(law, GaussianVelocity):
        lo, peak = 12.0 * law.scale, -a * b / (b * b + 0.5 / law.sigma2)
        density = lambda v: np.exp(-v * v / (2.0 * law.sigma2)) / np.sqrt(2.0 * np.pi * law.sigma2)
    else:
        lo, peak = law.half_width, -a / b
        density = lambda v: 0.5 / lo
    points = [peak] if -lo < peak < lo else None
    return quad(lambda v: kernel(v) * density(v), -lo, lo, points=points,
                epsabs=1e-15, epsrel=1e-13, limit=500)[0]


@pytest.mark.parametrize(
    "law", [GaussianVelocity(0.7), UniformSymmetricVelocity(np.sqrt(3.0)), TwoPointVelocity(1.3)],
    ids=lambda law: type(law).__name__,
)
@pytest.mark.parametrize("b", [-3.0, 0.2, 1.0, 16.8])  # 16.8 sqrt(3) ~ 29: a narrow integrand
def test_gauss_kernel_mean_matches_quadrature(law, b):
    a = np.linspace(-8.0, 8.0, 33)
    want = [_quad_kernel_mean(law, ai, b) for ai in a]
    np.testing.assert_allclose(law.gauss_kernel_mean(a, b), want, rtol=0.0, atol=1e-13)


# --- fixed-point identity ------------------------------------------------------


def test_residual_vanishes_for_matched_gaussian():
    beta = matched_beta()
    res = stationarity_residual(beta, ALPHA, 1.0, GaussianVelocity(1.0), GRID)
    assert res <= 1e-10


def test_residual_vanishes_for_matched_gaussian_nonunit_mass():
    beta = matched_beta(sigma2=0.5, mass=2.0)
    res = stationarity_residual(beta, ALPHA, 2.0, GaussianVelocity(0.5), GRID)
    assert res <= 1e-10


def test_residual_detects_wrong_temperature():
    beta = matched_beta()
    res = stationarity_residual(2.0 * beta, ALPHA, 1.0, GaussianVelocity(1.0), GRID)
    assert res >= 1e-2


def test_residual_two_point_never_matches():
    # zero-mean but non-Gaussian: no beta makes the measure invariant
    law = TwoPointVelocity(magnitude=1.0)
    for beta in (0.5 * matched_beta(), matched_beta(), 2.0 * matched_beta()):
        assert stationarity_residual(beta, ALPHA, 1.0, law, GRID) >= 1e-3


def test_residual_uniform_law_never_matches():
    law = UniformSymmetricVelocity(half_width=np.sqrt(3.0))  # sigma2 = 1
    assert stationarity_residual(matched_beta(), ALPHA, 1.0, law, GRID) >= 1e-3


def test_residual_uniform_law_narrow_integrand():
    # at alpha = 0.05 and twice the matched beta the kernel is ~70 times narrower than the
    # law (b h ~ 35), where a fixed-node rule misses it; the residual is quadrature's
    alpha = 0.05
    beta = 2.0 * beta_from_params(MomentParams(lam=1.0, alpha=alpha, sigma2=1.0, mass=1.0))
    law = UniformSymmetricVelocity(half_width=np.sqrt(3.0))
    gamma, coeff = 1.0 / alpha, beta / 2.0
    a, b = np.sqrt(coeff) * gamma * GRID, -np.sqrt(coeff) * (1.0 - gamma)
    want = max(abs(gamma * _quad_kernel_mean(law, ai, b) - np.exp(-coeff * p * p))
               for ai, p in zip(a, GRID))
    assert want == pytest.approx(0.4877, abs=1e-4)
    assert stationarity_residual(beta, alpha, 1.0, law, GRID) == pytest.approx(want, abs=1e-12)


def test_residual_validation():
    with pytest.raises(ValueError):
        stationarity_residual(-1.0, ALPHA, 1.0, GaussianVelocity(1.0), GRID)
    with pytest.raises(ValueError):
        stationarity_residual(1.0, 1.5, 1.0, GaussianVelocity(1.0), GRID)
    with pytest.raises(ValueError):
        stationarity_residual(1.0, ALPHA, 1.0, GaussianVelocity(1.0), [])


# --- Gibbs sampler ---------------------------------------------------------------


def test_sampler_covariance_matches_target():
    net = OscillatorNetwork(3, 1, 1.0, chain_stiffness(3))
    beta = 2.0
    samples = gibbs_sampler(net, beta, n=1_000_000, seed=0)
    target = gibbs_covariance(net, beta)
    emp = samples.T @ samples / samples.shape[0]
    rel_diag = np.abs(np.diag(emp) - np.diag(target)) / np.diag(target)
    assert rel_diag.max() <= 0.01


def test_sampler_equipartition():
    net = OscillatorNetwork(3, 1, 1.0, chain_stiffness(3))
    beta = 2.0
    samples = gibbs_sampler(net, beta, n=200_000, seed=1)
    q, p = samples[:, :3], samples[:, 3:]
    h = 0.5 * np.einsum("ij,jk,ik->i", q, net.stiffness, q) + 0.5 * np.einsum(
        "ij,ij->i", p, p
    )
    assert h.mean() == pytest.approx(net.dof / beta, rel=0.02)


def test_sampler_deterministic_and_validated():
    net = OscillatorNetwork(2, 1, 1.5, np.eye(2))
    a = gibbs_sampler(net, 1.0, n=100, seed=3)
    b = gibbs_sampler(net, 1.0, n=100, seed=3)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        gibbs_sampler(net, 0.0, n=10, seed=0)
    with pytest.raises(ValueError):
        gibbs_sampler(net, 1.0, n=0, seed=0)


def test_sampler_marginals_moment_battery():
    net = OscillatorNetwork(3, 1, 1.0, chain_stiffness(3))
    n = 400_000
    samples = gibbs_sampler(net, 2.0, n=n, seed=5)
    centered = samples - samples.mean(axis=0)
    std = centered.std(axis=0)
    skew = (centered**3).mean(axis=0) / std**3
    kurt = (centered**4).mean(axis=0) / std**4 - 3.0
    assert np.abs(skew).max() <= 4.0 * np.sqrt(6.0 / n)
    assert np.abs(kurt).max() <= 4.0 * np.sqrt(24.0 / n)


# --- one-step moment shift ----------------------------------------------------------


def test_gaussian_kick_preserves_moments():
    beta = matched_beta()
    model = OneDimElastic(external_mass=0.5, velocity_law=GaussianVelocity(1.0))
    shift = one_step_moment_shift(beta, 1.0, model, n=200_000, seed=0)
    assert abs(shift.m2_shift) <= 4.0 * shift.m2_shift_se
    assert abs(shift.m4_shift) <= 4.0 * shift.m4_shift_se


def test_two_point_kick_moves_fourth_moment():
    beta = matched_beta()  # matching variance: sigma2 = 1 = magnitude^2
    law = TwoPointVelocity(magnitude=1.0)
    model = OneDimElastic(external_mass=0.5, velocity_law=law)
    shift = one_step_moment_shift(beta, 1.0, model, n=200_000, seed=1)
    # variance is universal, the fourth moment is not
    assert abs(shift.m2_shift) <= 4.0 * shift.m2_shift_se
    assert abs(shift.m4_shift) >= 4.0 * shift.m4_shift_se
    # expected kicked fourth moment from the binomial expansion
    s = 1.0 / beta  # = M/beta with M = 1
    a = ALPHA
    expected_after = (
        3.0 * a**4 * s**2
        + 6.0 * a**2 * (1.0 - a) ** 2 * s * law.sigma2
        + (1.0 - a) ** 4 * law.magnitude**4  # E v^4 of the two-point law
    )
    assert shift.m4_after == pytest.approx(expected_after, abs=6.0 * shift.m4_shift_se)


def test_near_identity_kick_changes_nothing():
    # external mass -> 0 gives alpha -> 1: the jump degenerates to identity
    beta = 2.0
    model = OneDimElastic(external_mass=1e-9, velocity_law=TwoPointVelocity(1.0))
    shift = one_step_moment_shift(beta, 1.0, model, n=50_000, seed=2)
    assert abs(shift.m2_shift) <= 1e-6
    assert abs(shift.m4_shift) <= 1e-6


def test_moment_shift_validation():
    model = OneDimElastic(external_mass=0.5, velocity_law=GaussianVelocity(1.0))
    with pytest.raises(ValueError):
        one_step_moment_shift(0.0, 1.0, model, n=100, seed=0)
    with pytest.raises(ValueError):
        one_step_moment_shift(1.0, 1.0, model, n=1, seed=0)


@pytest.mark.parametrize(
    "seed, model",
    [
        (0, OneDimElastic(external_mass=0.5, velocity_law=GaussianVelocity(1.0))),
        (1, OneDimElastic(external_mass=0.5, velocity_law=TwoPointVelocity(magnitude=1.0))),
        (2, OneDimElastic(external_mass=1e-9, velocity_law=TwoPointVelocity(1.0))),
    ],
    ids=["gaussian", "two-point", "near-identity"],
)
def test_fourth_moments_by_squaring_match_pow(seed, model):
    beta, n = matched_beta(), 50_000
    shift = one_step_moment_shift(beta, 1.0, model, n=n, seed=seed)
    # the function's own draws, with the fourth powers taken by ``**``
    rng = np.random.default_rng(seed)
    p = rng.normal(0.0, np.sqrt(1.0 / beta), size=n)
    u = np.asarray(model.velocity_law.sample(rng, size=n), dtype=float)
    p_after = model.jump(u[:, None], p[:, None], 1.0)[:, 0]
    m4_before, m4_after = np.mean(p**4), np.mean(p_after**4)
    assert shift.m4_before == pytest.approx(m4_before, rel=1e-14, abs=0.0)
    assert shift.m4_after == pytest.approx(m4_after, rel=1e-14, abs=0.0)
    # the shift and its error are differences of fourth powers (about 1e-10 of
    # them on the near-identity kick), so they agree to 1e-14 of the moments
    scale = 1e-14 * m4_before
    assert shift.m4_shift == pytest.approx(m4_after - m4_before, rel=0.0, abs=scale)
    se = np.std(p_after**4 - p**4, ddof=1) / np.sqrt(n)
    assert shift.m4_shift_se == pytest.approx(se, rel=0.0, abs=scale)
    assert shift.m2_before == np.mean(p**2) and shift.m2_after == np.mean(p_after**2)
