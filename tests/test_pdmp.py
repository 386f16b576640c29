import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from _reference_engine import propagate
from oscbath.collisions import ContractiveAffine, OneDimElastic, TwoDimBall
from oscbath.covariance import beta_from_params, MomentParams
from oscbath.csvfmt import CSV_VALUES, csv_rows, write_csv_rows
from oscbath.errors import NumericalAbort
from oscbath.laws import Exponential, GammaLaw, GaussianVelocity, UniformPositive
from oscbath.network import (
    OscillatorNetwork,
    PhaseState,
    chain_stiffness,
    energies,
    energy,
)
from oscbath.pdmp import (
    Moments,
    drift_estimate,
    event_passes,
    jacobian_rank_probe,
    reachability_jacobian,
    record_bytes,
    simulate_continuous,
    simulate_embedded,
    trajectory_to_csv,
)


class FixedTau:
    """Deterministic waiting times (test stub)."""

    def __init__(self, value):
        self.value = value
        self.mean = max(value, 1e-12)

    def sample(self, rng, size=None):
        return self.value if size is None else np.full(size, self.value)


class FixedXi:
    """Deterministic velocity law: every input is ``values`` (test stub)."""

    def __init__(self, values):
        self.values = np.atleast_1d(np.asarray(values, dtype=float))

    def sample(self, rng, size=None):
        return self.values.copy() if size is None else np.tile(self.values, (size, 1))


def chain3(mass=1.0):
    return OscillatorNetwork(3, 1, mass, chain_stiffness(3))


def elastic_setup(rate=1.0, sigma2=1.0, external_mass=0.5):
    net = chain3()
    model = OneDimElastic(external_mass=external_mass, velocity_law=GaussianVelocity(sigma2))
    return net, model, Exponential(rate=rate)


# --- embedded chain -----------------------------------------------------------


def test_zero_tau_equal_mass_jump_replaces_momentum():
    net = chain3()
    model = OneDimElastic(external_mass=1.0, velocity_law=FixedXi([2.5]))  # alpha = 0
    psi0 = PhaseState(q=[0.4, -0.2, 0.1], p=[1.0, 2.0, 3.0])
    chain = simulate_embedded(net, model, FixedTau(0.0), psi0, n_steps=1, seed=0)
    after = chain.state(1)
    assert np.allclose(after.q, psi0.q, atol=1e-14)
    assert after.p[0] == pytest.approx(2.5)  # M * u with M = 1
    assert np.allclose(after.p[1:], psi0.p[1:], atol=1e-14)


def test_embedded_energy_bookkeeping_identity():
    # jump energy identity: H after = H before-jump + (|J|^2 - |p1|^2)/(2M)
    net, model, tau_law = elastic_setup()
    psi0 = PhaseState(q=[1.0, 0.0, -1.0], p=[0.5, 0.0, 0.0])
    chain = simulate_embedded(net, model, tau_law, psi0, n_steps=200, seed=42)
    taus = np.diff(np.concatenate([[0.0], chain.jump_times]))
    for m in range(1, 51):
        before = chain.state(m - 1)
        flowed = propagate(net, before, taus[m - 1])
        after = chain.state(m)
        lhs = energy(net, after) - energy(net, flowed)
        rhs = (after.p[0] ** 2 - flowed.p[0] ** 2) / (2.0 * net.mass)
        assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(rhs))
        # positions never jump; only the kicked momentum block moves
        assert np.allclose(after.q, flowed.q, atol=1e-12)
        assert np.allclose(after.p[1:], flowed.p[1:], atol=1e-12)


def test_embedded_chain_deterministic_per_seed():
    net, model, tau_law = elastic_setup()
    psi0 = PhaseState.zero(3)
    a = simulate_embedded(net, model, tau_law, psi0, n_steps=100, seed=7)
    b = simulate_embedded(net, model, tau_law, psi0, n_steps=100, seed=7)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.jump_times, b.jump_times)
    c = simulate_embedded(net, model, tau_law, psi0, n_steps=100, seed=8)
    assert not np.array_equal(a.states, c.states)


def test_embedded_aborts_on_overflow():
    net = chain3()
    model = OneDimElastic(external_mass=0.5, velocity_law=FixedXi([np.inf]))
    with pytest.raises(NumericalAbort, match="step 1"):
        simulate_embedded(net, model, FixedTau(0.1), PhaseState.zero(3), n_steps=5, seed=0)


def test_embedded_requires_steps_and_matching_dim():
    net, model, tau_law = elastic_setup()
    with pytest.raises(ValueError):
        simulate_embedded(net, model, tau_law, PhaseState.zero(3), n_steps=0, seed=0)
    ball, psi = TwoDimBall(external_mass=0.5), PhaseState(q=[1.0, 0.0, 0.0], p=[0.0, 1.0, 0.0])
    for call in (
        lambda: simulate_embedded(net, ball, tau_law, psi, n_steps=1, seed=0),
        lambda: drift_estimate(net, ball, tau_law, psi, n_mc=10),
        lambda: reachability_jacobian(net, ball, psi, 1, [0.5, 0.1, 0.2, 0.3]),
    ):
        with pytest.raises(ValueError, match="acts in dimension 2 but the network has d=1"):
            call()


# --- continuous sampling --------------------------------------------------------


def test_no_events_reduces_to_free_flow():
    net, model, _ = elastic_setup()
    psi0 = PhaseState(q=[1.0, 0.0, 0.0], p=[0.0, 1.0, 0.0])
    # no event within the horizon
    traj = simulate_continuous(net, model, FixedTau(1e9), psi0, t_end=10.0, sample_dt=0.5, seed=0)
    assert traj.events == 0
    for k, t in enumerate(traj.times):
        expected = propagate(net, psi0, float(t)).vector
        assert np.abs(traj.states[k] - expected).max() < 1e-12


def test_sample_at_jump_time_is_right_continuous():
    net = chain3()
    model = OneDimElastic(external_mass=1.0, velocity_law=FixedXi([5.0]))  # alpha = 0: p1 -> M u
    psi0 = PhaseState.zero(3)
    traj = simulate_continuous(net, model, FixedTau(1.0), psi0, t_end=1.0, sample_dt=0.5, seed=0)
    # grid point t = 1.0 coincides with the first jump: must include it
    assert traj.times[-1] == pytest.approx(1.0)
    assert traj.states[-1][3] == pytest.approx(5.0)


def test_event_count_matches_poisson_rate():
    net, model, tau_law = elastic_setup(rate=1.0)
    psi0 = PhaseState.zero(3)
    lam_t = 200.0
    counts = [
        simulate_continuous(net, model, tau_law, psi0, t_end=200.0, sample_dt=1.0, seed=s).events
        for s in range(50)
    ]
    assert abs(np.mean(counts) - lam_t) <= 3.0 * np.sqrt(lam_t / 50.0)


def test_energy_constant_between_events():
    net, model, _ = elastic_setup()
    psi0 = PhaseState(q=[1.0, -0.5, 0.2], p=[0.3, 0.0, -0.7])
    traj = simulate_continuous(net, model, FixedTau(2.0), psi0, t_end=1.9, sample_dt=0.1, seed=3)
    h = [energy(net, traj.state(k)) for k in range(len(traj.times))]
    assert np.abs(np.diff(h)).max() <= 1e-9 * (1.0 + h[0])


def test_continuous_input_validation():
    net, model, tau_law = elastic_setup()
    with pytest.raises(ValueError):
        simulate_continuous(net, model, tau_law, PhaseState.zero(3), t_end=1.0, sample_dt=0.0, seed=0)
    with pytest.raises(ValueError):
        simulate_continuous(net, model, tau_law, PhaseState.zero(3), t_end=1.0, sample_dt=2.0, seed=0)


def test_gamma_and_uniform_schedules_run():
    net, model, _ = elastic_setup()
    for law in (GammaLaw(shape=2.0, rate=3.0), UniformPositive(low=0.0, high=0.5)):
        traj = simulate_continuous(net, model, law, PhaseState.zero(3), 20.0, 0.5, seed=1)
        assert traj.events > 0


class MisstatedMean:
    """Exponential waits whose declared mean is 50 times too long (test stub)."""

    mean = 50.0

    def sample(self, rng, size=None):
        return Exponential(rate=1.0).sample(rng, size)


@pytest.mark.parametrize("model, dim", [
    (OneDimElastic(external_mass=0.5), 1),
    (ContractiveAffine(reflection=np.array([[0.5, 0.2], [-0.1, 0.6]])), 2),
    (TwoDimBall(external_mass=0.5), 2),
], ids=["elastic", "affine", "ball"])
def test_batch_passes_equal_single_seed_passes(model, dim):
    # many more events than the misstated mean suggests; seeds end at different
    # steps and ride along
    net = OscillatorNetwork(3, dim, 1.0, np.kron(chain_stiffness(3), np.eye(dim)))
    tau_law = MisstatedMean()
    rng = np.random.default_rng(1)
    psi0 = PhaseState(q=rng.standard_normal(net.dof), p=rng.standard_normal(net.dof))
    seeds = (4, 0, 9, 2)
    batch = event_passes(net, model, tau_law, psi0, 120.0, 40, seeds)
    assert len({run.times.size for run in batch}) > 1
    for seed, run in zip(seeds, batch):
        [alone] = event_passes(net, model, tau_law, psi0, 120.0, 40, (seed,))
        assert run.seed == seed and run.events == alone.events > 16
        assert np.array_equal(run.times, alone.times)
        assert np.array_equal(run.modes, alone.modes)


def test_event_passes_holds_no_python_float_per_draw():
    # chain3-events at T = 5000: the tracemalloc peak is 0.91 of record_bytes at
    # the largest count (the mode states dominate it). Holding every seed's draws
    # as Python floats (32 bytes each with the list slot) until the buffers are
    # filled peaks at 1.13; the parent's capacity-guessed buffers at 0.90.
    net, model, tau_law = elastic_setup()
    seeds = tuple(range(16))
    event_passes(net, model, tau_law, PhaseState.zero(3), 50.0, 10, seeds)  # warm caches
    tracemalloc.start()
    try:
        runs = event_passes(net, model, tau_law, PhaseState.zero(3), 5000.0, 1000, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    largest = max(run.times.size - 1 for run in runs)
    assert peak < 1.0 * record_bytes(net, model, largest, len(seeds))


def test_event_passes_holds_no_python_float_per_draw_on_ball_shapes():
    # ball-lattice-grid's shapes (dof 12, xi_dim 3, 2 seeds) at twice its horizon:
    # the peak is 0.98 of record_bytes. The step blocks' scratch is a fixed
    # 80 kB, 0.017 here. Keeping the last seed's draw array through the steps
    # peaks at 1.04.
    net = OscillatorNetwork(6, 2, 1.0, np.kron(chain_stiffness(6), np.eye(2)))
    model, tau_law = TwoDimBall(external_mass=0.5), GammaLaw(2.0, 1.0)
    seeds = (0, 1)
    event_passes(net, model, tau_law, PhaseState.zero(12), 50.0, 10, seeds)  # warm caches
    tracemalloc.start()
    try:
        runs = event_passes(net, model, tau_law, PhaseState.zero(12), 2.0e4, 10, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    largest = max(run.times.size - 1 for run in runs)
    assert peak < 1.0 * record_bytes(net, model, largest, len(seeds))


# --- observables ---------------------------------------------------------------


#: phase-vector entries; below 1e-100 in magnitude a square underflows the tolerances' scale
moment_entries = st.floats(-1e3, 1e3).map(lambda v: v if abs(v) >= 1e-100 else 0.0)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 60), st.just(6)), elements=moment_entries),
       st.data())
def test_moments_fold_matches_one_block(x, data):
    # blocks split at random points and merged in any order give one block's
    # count exactly, its sums to within 1e-12 of the magnitudes summed, and
    # np.cov's covariance to within 1e-12 of the columns' root mean squares
    net = chain3()
    cuts = sorted(data.draw(st.lists(st.integers(0, len(x)), max_size=6)))
    blocks = [Moments.of(rows) for rows in np.split(x, cuts)]
    whole, abs_x = Moments.of(x), np.abs(x)
    reference, rms = np.cov(x, rowvar=False, bias=True), np.sqrt(np.mean(x * x, axis=0))
    for order in (blocks, data.draw(st.permutations(blocks))):
        acc = sum(order, Moments())
        assert acc.n == whole.n == len(x)
        assert np.all(np.abs(acc.sum_x - whole.sum_x) <= 1e-12 * abs_x.sum(axis=0))
        assert np.all(np.abs(acc.sum_xx - whole.sum_xx) <= 1e-12 * (abs_x.T @ abs_x))
        assert abs(acc.mean_energy(net) - whole.mean_energy(net)) <= 1e-12 * whole.mean_energy(net)
        assert np.all(np.abs(acc.covariance - reference) <= 1e-12 * np.outer(rms, rms))


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 60), st.just(6)), elements=moment_entries),
       st.sampled_from([1.0, 2.5]))
def test_moments_of_mode_rows_map_to_those_of_their_phase_rows(y, mass):
    # sums of mode rows y mapped through T = blockdiag(Q, Q) give the sums of the
    # phase rows x = T y to within 1e-12 of the magnitudes summed, and the mean
    # energy from the second moments is the rows' mean energy to within 1e-12
    net = chain3(mass)
    x = net.from_modes(y[:, :3], y[:, 3:])
    mapped, direct = Moments.of(y).from_modes(net), Moments.of(x)
    size = np.linalg.norm(x, axis=1)
    assert mapped.n == direct.n == len(x)
    assert np.all(np.abs(mapped.sum_x - direct.sum_x) <= 1e-12 * size.sum())
    assert np.all(np.abs(mapped.sum_xx - direct.sum_xx) <= 1e-12 * (size @ size))
    h = energies(net, y[:, :3], y[:, 3:]).mean()
    for moments in (mapped, direct):
        assert abs(moments.mean_energy(net) - h) <= 1e-12 * h


def test_moments_without_samples_raise():
    net = chain3()
    for empty in (Moments(), Moments.of(np.empty((0, 6))), Moments() + Moments()):
        for read in (lambda m: m.mean, lambda m: m.covariance, lambda m: m.mean_energy(net)):
            with pytest.raises(ValueError):
                read(empty)


def test_long_run_matches_gibbs_moments():
    net, model, tau_law = elastic_setup()
    params = MomentParams(lam=1.0, alpha=1.0 / 3.0, sigma2=1.0, mass=1.0)
    beta = beta_from_params(params)
    traj = simulate_continuous(net, model, tau_law, PhaseState.zero(3), 5000.0, 0.25, seed=11)
    moments = Moments.of(traj.states[traj.times >= 500.0])
    p1_avg, h_avg = moments.mean[net.dof], moments.mean_energy(net)
    assert abs(p1_avg) < 0.1
    # equipartition: E H = dof / beta
    assert abs(h_avg - net.dof / beta) < 0.2


def test_stationary_momentum_variance_is_law_independent():
    # zero-mean laws with the same variance share the stationary p1 variance
    net = chain3()
    tau_law = Exponential(rate=1.0)
    target = 1.0 / beta_from_params(
        MomentParams(lam=1.0, alpha=1.0 / 3.0, sigma2=1.0, mass=1.0)
    )  # = M/beta
    from oscbath.laws import UniformSymmetricVelocity

    law = UniformSymmetricVelocity(half_width=np.sqrt(3.0))  # sigma2 = 1
    model = OneDimElastic(external_mass=0.5, velocity_law=law)
    traj = simulate_continuous(net, model, tau_law, PhaseState.zero(3), 4000.0, 0.25, seed=5)
    mask = traj.times >= 400.0
    var_p1 = traj.states[mask, 3].var()
    assert abs(var_p1 - target) <= 0.12 * target


# --- drift --------------------------------------------------------------------


def test_drift_negative_at_high_energy():
    # single oscillator: the one-step energy loss is at least 5% of H in
    # every state direction (multi-oscillator networks admit directions
    # that hide energy from the contact site over one waiting time)
    net = OscillatorNetwork(1, 1, 1.0, np.array([[1.0]]))
    model, tau_law = OneDimElastic(external_mass=0.5), Exponential(rate=1.0)
    rng = np.random.default_rng(0)
    vec = rng.standard_normal(2)
    psi = PhaseState(q=vec[:1], p=vec[1:])
    h = energy(net, psi)
    scale = np.sqrt(5000.0 / h)
    psi = PhaseState(q=scale * psi.q, p=scale * psi.p)
    est = drift_estimate(net, model, tau_law, psi, n_mc=4000, seed=1)
    assert est.mean_change < 0
    assert est.relative_change <= -0.05
    assert est.std_error < abs(est.mean_change)


# --- controllability probe -------------------------------------------------------


def test_rank_probe_single_oscillator_full_rank():
    net = OscillatorNetwork(1, 1, 1.0, np.array([[1.0]]))
    model = OneDimElastic(external_mass=0.5)
    psi0 = PhaseState(q=[1.0], p=[0.5])
    rank, _ = jacobian_rank_probe(net, model, psi0, m=1, point=[0.9, 0.3])
    assert rank == 2


def test_rank_probe_zero_legs():
    net = OscillatorNetwork(1, 1, 1.0, np.array([[1.0]]))
    model = OneDimElastic(external_mass=0.5)
    rank, _ = jacobian_rank_probe(net, model, PhaseState(q=[1.0], p=[0.0]), 0, [])
    assert rank == 0


def test_rank_probe_dimension_bound():
    net = chain3()
    model = OneDimElastic(external_mass=0.5)
    psi0 = PhaseState(q=[1.0, 0.2, -0.4], p=[0.5, 0.1, 0.3])
    for m in (1, 2, 3, 4):
        point = np.tile([0.8, 0.4], m) + 0.01 * np.arange(2 * m)
        rank, _ = jacobian_rank_probe(net, model, psi0, m, point)
        assert rank <= min(2 * m, 6)
    # enough legs reach the full phase dimension at a generic point
    point = np.tile([0.8, 0.4], 4) + 0.05 * np.arange(8)
    rank, _ = jacobian_rank_probe(net, model, psi0, 4, point)
    assert rank == 6


def test_rank_probe_counts_a_decoupled_pair_once():
    # particles 2 and 3 never feel the kick: the legs reach particle 1's (q, p)
    # and one direction of the pair, the flow along its orbit (sum of the t_k)
    stiffness = np.array([[1.5, 0.0, 0.0], [0.0, 2.5, -1.0], [0.0, -1.0, 2.5]])
    net = OscillatorNetwork(3, 1, 1.0, stiffness)
    psi0 = PhaseState(q=np.ones(3), p=0.5 * np.ones(3))
    rng = np.random.default_rng(0)
    point = np.column_stack([rng.uniform(0.5, 1.5, 5), rng.standard_normal(5)]).ravel()
    rank, sv_ratio = jacobian_rank_probe(net, OneDimElastic(external_mass=0.5), psi0, 5, point)
    assert rank == 3
    assert sv_ratio < 1e-15


def test_rank_probe_rejects_affine_model():
    net = chain3()
    model = ContractiveAffine(reflection=np.array([[0.5]]))
    with pytest.raises(ValueError):
        jacobian_rank_probe(net, model, PhaseState.zero(3), 1, [0.5, 0.0])


# --- schedule / export -----------------------------------------------------------


def test_schedule_requires_finite_mean():
    # each waiting-time law refuses a mean that overflows or underflows; the
    # event loop sizes its first block of waits by the mean
    for make in (lambda: Exponential(rate=5e-324), lambda: GammaLaw(shape=1e308, rate=1e-308),
                 lambda: GammaLaw(shape=1e-308, rate=1e308),
                 lambda: UniformPositive(low=1e308, high=1.7e308),
                 lambda: UniformPositive(low=0.0, high=5e-324)):
        with pytest.raises(ValueError, match="finite and positive"):
            make()


def printf_rows(rows) -> bytes:
    """The reference: one Python ``%`` per row, as np.savetxt formats it."""
    row_format = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    return "".join(row_format % tuple(row) for row in rows).encode()


row_shapes = st.tuples(st.integers(1, 9), st.integers(1, 6))


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, row_shapes, elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_csv_rows_match_printf_on_finite_doubles(rows):
    assert csv_rows(rows) == printf_rows(rows)


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, row_shapes,
              elements=st.floats(1e-11, 2.0**52) | st.floats(-(2.0**52), -1e-11)))
def test_csv_rows_match_printf_inside_the_vectorised_window(rows):
    assert csv_rows(rows) == printf_rows(rows)


@settings(max_examples=300, deadline=None)
@given(arrays(np.uint64, row_shapes, elements=st.integers(0, 2**64 - 1)))
def test_csv_rows_match_printf_on_raw_bit_patterns(bits):
    rows = bits.view(np.float64)  # every NaN payload, infinity and subnormal
    assert csv_rows(rows) == printf_rows(rows)


def test_csv_rows_match_printf_on_edge_families():
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    switch = np.concatenate([b * (1 + np.arange(-40, 41) * 2.0**-52) for b in (1e-5, 1e-4, 1e16, 1e17)])
    ties = np.concatenate([  # x 10**(16 - X) ends in .25, .5 or .75: every other one is a tie
        1e14 + 0.125 * np.arange(-64, 64), 1e15 + 0.125 * np.arange(64),
        2.0**50 + 0.25 * np.arange(64), 2.0**51 + 0.5 * np.arange(64), 9e15 + np.arange(64),
    ])
    window = [1e-11, 2.0**52, 1e-14, 1e-7, 9.99995e-5, 0.1, 0.5, 1.0, 123.0]
    tiny = [5e-324, 1e-320, 2.2250738585072009e-308, 2.2250738585072014e-308]
    huge = [1e300, 1.7976931348623157e308]
    values = np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf), switch, ties,
                             window, np.nextafter(window, 0), np.nextafter(window, np.inf), tiny, huge])
    values = np.concatenate([values, -values, [0.0, -0.0, np.nan, np.inf, -np.inf]])
    rows = np.resize(values, (-(-values.size // 7), 7))
    step = CSV_VALUES // 7
    for start in range(0, len(rows), step):
        assert csv_rows(rows[start : start + step]) == printf_rows(rows[start : start + step])
    # half to even at the 17th digit; 1e-7 is just below 10**-7, and 1e-14 rounds up to it
    assert csv_rows(np.array([[1e15 + 0.25, 1e15 + 0.75, 1e-7, 1e-14, -0.0, 0.0]])) == (
        b"1000000000000000.2,1000000000000000.8,9.9999999999999995e-08,1e-14,-0,0\n")


def test_write_csv_rows_spans_sub_blocks():
    import io

    size = (2 * CSV_VALUES // 5 + 3, 5)  # two full calls' rows and three more
    rows = np.random.default_rng(5).normal(size=size) * 10.0 ** np.arange(-6, 14, 4)
    out = io.StringIO()
    write_csv_rows(out, rows)
    assert out.getvalue().encode() == printf_rows(rows)


def test_trajectory_csv_roundtrip(tmp_path):
    net, model, tau_law = elastic_setup()
    traj = simulate_continuous(net, model, tau_law, PhaseState.zero(3), 5.0, 0.5, seed=0)
    path = tmp_path / "traj.csv"
    with open(path, "w") as out:  # two blocks: the header goes in once
        trajectory_to_csv(out, traj.times[:4], traj.states[:4])
        trajectory_to_csv(out, traj.times[4:], traj.states[4:])
    header = path.read_text().splitlines()[0]
    assert header == "t,q_1,q_2,q_3,p_1,p_2,p_3"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], traj.times)
    assert np.array_equal(data[:, 1:], traj.states)
