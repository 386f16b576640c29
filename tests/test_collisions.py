import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference_engine import impact_matrix, two_ball_pair_update, verify_contraction
from oscbath.collisions import ContractiveAffine, OneDimElastic, TwoDimBall
from oscbath.laws import (
    Exponential,
    GammaLaw,
    GaussianVelocity,
    IsotropicGaussianVector,
    TwoPointVelocity,
    UniformAngle,
    UniformPositive,
    UniformSymmetricVelocity,
    sample_columns,
)

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
angle = st.floats(min_value=0.0, max_value=2 * np.pi, allow_nan=False)
mass = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)


# --- jump maps ---------------------------------------------------------------


def test_equal_masses_swap_velocities():
    model = OneDimElastic(external_mass=1.0)  # alpha = 0
    assert model.jump(np.array([2.0]), np.array([5.0]), 1.0)[0] == pytest.approx(2.0)


def test_one_dim_alpha_scaling():
    model = OneDimElastic(external_mass=0.5)  # alpha = 1/3 at M = 1
    out = model.jump(np.array([0.0]), np.array([3.0]), 1.0)
    assert out[0] == pytest.approx(1.0)


def test_one_dim_rejects_heavier_external_particle():
    model = OneDimElastic(external_mass=2.0)
    with pytest.raises(ValueError):
        model.jump(np.array([0.0]), np.array([1.0]), 1.0)
    with pytest.raises(ValueError):
        OneDimElastic(external_mass=-1.0)


@pytest.mark.parametrize("model", [OneDimElastic(external_mass=1e-300),
                                   TwoDimBall(external_mass=1e-300)])
def test_elastic_models_refuse_an_alpha_that_rounds_to_one(model):
    # (1 - 1e-300)/(1 + 1e-300) is 1.0: a kick that moves nothing
    with pytest.raises(ValueError, match="rounds to 1"):
        model.alpha(1.0)
    assert model.alpha(1e-290) < 1.0


@pytest.mark.parametrize("make, field, value", [
    (GaussianVelocity, "sigma2", float("inf")),
    (UniformSymmetricVelocity, "half_width", 1e-300),  # sigma2 underflows to 0
    (UniformSymmetricVelocity, "half_width", 1e300),  # ** overflows
    (TwoPointVelocity, "magnitude", 1e-300),
    (TwoPointVelocity, "magnitude", 1e300),
])
def test_velocity_laws_refuse_a_variance_that_is_zero_or_not_finite(make, field, value):
    with pytest.raises(ValueError, match=f"^{field} .* the variance must be finite and positive"):
        make(value)
    assert 0.0 < make(1e-150).sigma2 < float("inf")


def test_two_dim_ball_head_on_axis():
    model = TwoDimBall(external_mass=0.5)  # alpha = 1/3 at M = 1
    xi = np.array([0.0, 0.0, 0.0])  # phi = 0, v = 0
    out = model.jump(xi, np.array([1.0, 1.0]), 1.0)
    assert np.allclose(out, [1.0 / 3.0, 1.0])


def test_two_dim_ball_matches_pair_update():
    rng = np.random.default_rng(8)
    mass_in = 1.3
    model = TwoDimBall(external_mass=0.9)
    for _ in range(50):
        p1 = rng.standard_normal(2)
        v2 = rng.standard_normal(2)
        phi = rng.uniform(0.0, 2 * np.pi)
        jumped = model.jump(np.concatenate([[phi], v2]), p1, mass_in)
        v1_after, _ = two_ball_pair_update(mass_in, 0.9, p1 / mass_in, v2, phi)
        assert np.abs(jumped - mass_in * v1_after).max() < 1e-10


def test_contractive_affine_jump_and_validation():
    r = np.array([[0.3, 0.1], [0.0, 0.4]])
    model = ContractiveAffine(reflection=r)
    p = np.array([2.0, -1.0])
    w = np.array([0.5, 0.5])
    assert np.allclose(model.jump(w, p, 2.0), r @ p + 2.0 * w)
    with pytest.raises(ValueError):
        ContractiveAffine(reflection=np.eye(2))  # not a strict contraction
    with pytest.raises(ValueError):
        ContractiveAffine(reflection=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        model.jump(np.zeros(3), p, 1.0)


def test_jump_rejects_bad_shapes_and_mass():
    model = OneDimElastic(external_mass=0.5)
    with pytest.raises(ValueError):
        model.jump(np.array([0.0, 1.0]), np.array([1.0]), 1.0)
    with pytest.raises(ValueError):
        model.jump(np.array([0.0]), np.array([1.0]), 0.0)


@pytest.mark.parametrize("model", [OneDimElastic(external_mass=0.5), TwoDimBall(external_mass=0.3)],
                         ids=["elastic", "ball"])
def test_jump_jacobian_matches_central_differences(model):
    rng = np.random.default_rng(11)
    mass, h = 1.7, 1e-6
    for _ in range(20):
        xi = rng.standard_normal(model.xi_dim)
        p1 = 3.0 * rng.standard_normal(model.dim)
        d_p, d_xi = model.jump_jacobian(xi, p1, mass)
        eye_p, eye_xi = h * np.eye(model.dim), h * np.eye(model.xi_dim)
        fd_p = np.column_stack([model.jump(xi, p1 + e, mass) - model.jump(xi, p1 - e, mass)
                                for e in eye_p]) / (2 * h)
        fd_xi = np.column_stack([model.jump(xi + e, p1, mass) - model.jump(xi - e, p1, mass)
                                 for e in eye_xi]) / (2 * h)
        assert d_p.shape == (model.dim, model.dim)
        assert d_xi.shape == (model.dim, model.xi_dim)
        np.testing.assert_allclose(d_p, fd_p, atol=1e-8)
        np.testing.assert_allclose(d_xi, fd_xi, atol=1e-8 * (1 + np.abs(d_xi).max()))
    # a stack of rows gives one pair of derivatives per row
    xi = rng.standard_normal((4, model.xi_dim))
    p1 = rng.standard_normal((4, model.dim))
    d_p, d_xi = model.jump_jacobian(xi, p1, mass)
    assert d_p.shape == (4, model.dim, model.dim)
    assert np.array_equal(d_xi[2], model.jump_jacobian(xi[2], p1[2], mass)[1])


# --- input draws -----------------------------------------------------------------

INPUT_MODELS = {
    "elastic-gaussian": OneDimElastic(0.5, GaussianVelocity(2.0)),
    "elastic-uniform": OneDimElastic(0.5, UniformSymmetricVelocity(1.5)),
    "elastic-two-point": OneDimElastic(0.5, TwoPointVelocity(0.7)),
    "affine": ContractiveAffine(reflection=0.5 * np.eye(3)),
    "ball": TwoDimBall(external_mass=0.5),
}


def _streams(n_laws, seed):
    return [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(n_laws)]


@pytest.mark.parametrize("name", sorted(INPUT_MODELS))
def test_input_block_equals_single_draws(name):
    # one stream per law, as the event loop draws: a block of inputs is its
    # rows' one-input draws, and leaves every stream in the same state
    model = INPUT_MODELS[name]
    laws = model.input_laws
    block_rngs, single_rngs = _streams(len(laws), 11), _streams(len(laws), 11)
    block = sample_columns(laws, block_rngs, 500)
    singles = np.concatenate([sample_columns(laws, single_rngs, 1) for _ in range(500)])
    assert block.shape == singles.shape == (500, model.xi_dim)
    assert np.array_equal(block.view(np.uint64), singles.view(np.uint64))
    for block_rng, single_rng in zip(block_rngs, single_rngs):
        assert block_rng.bit_generator.state == single_rng.bit_generator.state
    # one generator, as the Monte Carlo checks draw: the laws' blocks in turn
    rng, again = np.random.default_rng(5), np.random.default_rng(5)
    block = sample_columns(laws, itertools.repeat(rng), 300)
    in_turn = np.column_stack([law.sample(again, size=300) for law in laws])
    assert block.shape == (300, model.xi_dim)
    assert np.array_equal(block.view(np.uint64), in_turn.view(np.uint64))
    assert rng.bit_generator.state == again.bit_generator.state


positive = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)
any_law = st.one_of(
    st.builds(Exponential, rate=positive),
    st.builds(GammaLaw, shape=positive, rate=positive),
    st.tuples(st.floats(0.0, 5.0), positive).map(lambda lw: UniformPositive(lw[0], lw[0] + lw[1])),
    st.builds(GaussianVelocity, sigma2=positive),
    st.builds(UniformSymmetricVelocity, half_width=positive),
    st.builds(TwoPointVelocity, magnitude=positive),
    st.builds(IsotropicGaussianVector, dim=st.integers(1, 3), sigma2=positive),
    st.just(UniformAngle()),
)


@settings(max_examples=200, deadline=None)
@given(any_law, st.integers(0, 300).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
       st.integers(0, 2**63))
def test_law_block_equals_split_blocks_and_scalar_calls_bit_for_bit(law, sizes, seed):
    # the event loop draws each stream in blocks of its own sizing, so a
    # block of n must be any split of it into two blocks, and n scalar
    # calls, bit for bit, leaving the generator in the same state
    n, n1 = sizes
    block_rng, split_rng, scalar_rng = (np.random.default_rng(seed) for _ in range(3))
    block = law.sample(block_rng, size=n)
    split = np.concatenate([law.sample(split_rng, size=n1), law.sample(split_rng, size=n - n1)])
    scalars = np.array([law.sample(scalar_rng) for _ in range(n)], dtype=float).reshape(block.shape)
    assert block.dtype == split.dtype == np.float64
    assert np.array_equal(split.view(np.uint64), block.view(np.uint64))
    assert np.array_equal(scalars.view(np.uint64), block.view(np.uint64))
    assert block_rng.bit_generator.state == split_rng.bit_generator.state
    assert scalar_rng.bit_generator.state == block_rng.bit_generator.state


# --- pair collision invariants -------------------------------------------------


def test_equal_mass_head_on_exchange():
    v1_after, v2_after = two_ball_pair_update(
        1.0, 1.0, np.array([1.0, 0.0]), np.array([0.0, 0.0]), 0.0
    )
    assert np.allclose(v1_after, [0.0, 0.0], atol=1e-15)
    assert np.allclose(v2_after, [1.0, 0.0], atol=1e-15)


@settings(max_examples=200, deadline=None)
@given(mass, mass, finite, finite, finite, finite, angle)
def test_pair_update_conserves_momentum_and_energy(m1, m2, ax, ay, bx, by, phi):
    v1 = np.array([ax, ay])
    v2 = np.array([bx, by])
    v1p, v2p = two_ball_pair_update(m1, m2, v1, v2, phi)
    scale = 1.0 + np.abs([ax, ay, bx, by]).max() ** 2 * (m1 + m2)
    mom_err = np.abs(m1 * v1p + m2 * v2p - m1 * v1 - m2 * v2).max()
    en_err = abs(m1 * v1p @ v1p + m2 * v2p @ v2p - m1 * v1 @ v1 - m2 * v2 @ v2)
    assert mom_err <= 1e-10 * scale
    assert en_err <= 1e-10 * scale


def test_one_dim_two_particle_invariants():
    rng = np.random.default_rng(17)
    big, small = 1.7, 0.6
    alpha = (big - small) / (big + small)
    model = OneDimElastic(external_mass=small)
    for _ in range(100):
        v = rng.standard_normal()
        u = rng.standard_normal()
        v_after = model.jump(np.array([u]), np.array([big * v]), big)[0] / big
        u_after = -alpha * u + (1.0 + alpha) * v  # external particle, alpha -> -alpha
        assert abs(big * v + small * u - big * v_after - small * u_after) < 1e-10
        assert (
            abs(big * v**2 + small * u**2 - big * v_after**2 - small * u_after**2)
            < 1e-10
        )


# --- impact matrix and angle moments ------------------------------------------


def test_impact_matrix_spectrum_on_angle_grid():
    for alpha in (0.1, 1.0 / 3.0, 0.9):
        for phi in np.linspace(0.0, 2 * np.pi, 37):
            g = impact_matrix(alpha, phi)
            assert np.abs(g - g.T).max() == 0.0
            assert np.allclose(np.linalg.eigvalsh(g), sorted([alpha, 1.0]), atol=1e-12)


def test_uniform_angle_moment_matrix():
    f = 0.5 * np.eye(2)  # E[R(phi) R(phi)^T] = I/2 exactly for the uniform angle
    # Monte Carlo agrees with the exact angle moments
    rng = np.random.default_rng(0)
    phi = UniformAngle().sample(rng, size=200_000)
    r = np.column_stack([np.cos(phi), np.sin(phi)])
    f_mc = r.T @ r / phi.size
    assert np.abs(f_mc - f).max() < 5e-3
    assert np.linalg.det(f_mc) > 0.2


# --- contraction sweep ---------------------------------------------------------


def test_contraction_one_dim_elastic_asymptote():
    # E|J|^2 = a^2 r^2 + (1-a)^2 M^2 sigma^2 for zero-mean u: asymptote a^2 = 1/9
    model = OneDimElastic(external_mass=0.5, velocity_law=GaussianVelocity(1.0))
    report = verify_contraction(model, 1.0, radii=[5, 10, 20, 40, 80], n_mc=40_000, seed=2)
    assert abs(report.asymptote - 1.0 / 9.0) < 5e-3
    assert report.contracts
    assert report.ratios[-1] < 0.2


def test_contraction_contractive_affine_bound():
    r = 0.5 * np.eye(2)
    model = ContractiveAffine(reflection=r, noise_law=IsotropicGaussianVector(2, 1.0))
    report = verify_contraction(model, 1.0, radii=[5, 10, 20, 40], n_mc=20_000, seed=3)
    assert report.asymptote <= 0.25 + 0.01
    assert report.contracts


def test_contraction_two_dim_ball_bound():
    # uniform angle: E G^2 = I - (1-a^2) F with F = I/2, so the exact
    # asymptote is 1 - (1 - a^2)/2, matching the angle-moment bound
    model = TwoDimBall(external_mass=0.5)
    alpha = model.alpha(1.0)
    lam_f = 0.5  # smallest eigenvalue of the uniform angle-moment matrix
    bound = 1.0 - lam_f * (1.0 - alpha**2)
    report = verify_contraction(model, 1.0, radii=[5, 10, 20, 40], n_mc=20_000, seed=4)
    assert report.asymptote <= bound + 0.01
    assert report.contracts


def test_contraction_input_validation():
    model = OneDimElastic(external_mass=0.5)
    with pytest.raises(ValueError):
        verify_contraction(model, 1.0, radii=[1.0, 2.0], n_mc=2000)
    with pytest.raises(ValueError):
        verify_contraction(model, 1.0, radii=[1.0, 2.0, 3.0], n_mc=10)
    with pytest.raises(ValueError):
        verify_contraction(model, 1.0, radii=[3.0, 2.0, 1.0], n_mc=2000)
