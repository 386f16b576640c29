import copy
import io
import itertools
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from _reference_engine import whole_passes
from oscbath import cli
from oscbath.cli import (
    _chain_entries,
    _seed_entry,
    _seed_stats,
    main,
    run_covariance,
    run_dissipative,
    run_drift_check,
    run_rank_probe,
    run_simulate,
    run_stationarity,
)
from oscbath.config import MAX_SEEDS, load_config
from oscbath.errors import ConfigError, NumericalAbort
from oscbath.laws import GaussianVelocity
from oscbath.network import chain_stiffness
from oscbath.pdmp import (EVENT_LOOP_MAX_S, GRID_BLOCK, GRID_MAX_ROWS, RECORD_MAX_BYTES, SEED_STEP_S,
                          STEP_S, GridWindows, Moments, grid_index, grid_size, held_bytes)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def base_config(**run_overrides):
    run = {"t_end": 40.0, "sample_dt": 0.5, "burn_in": 4.0, "seeds": [0, 1]}
    run.update(run_overrides)
    return {
        "network": {
            "n_particles": 3,
            "dim": 1,
            "mass": 1.0,
            "stiffness": {"kind": "chain", "coupling": 1.0, "pinning": 0.5},
        },
        "model": {
            "kind": "one_dim_elastic",
            "external_mass": 0.5,
            "velocity_law": {"kind": "gaussian", "sigma2": 1.0},
        },
        "schedule": {"tau": {"kind": "exponential", "rate": 1.0}},
        "run": run,
        "contact_sites": [0],
    }


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


# --- config validation ------------------------------------------------------------


def test_load_config_happy_path():
    cfg = load_config(base_config())
    assert cfg.network.dof == 3
    assert cfg.seeds == (0, 1)
    assert cfg.model.alpha(1.0) == pytest.approx(1.0 / 3.0)
    assert len(cfg.config_hash) == 64


def test_config_rejects_empty_seeds():
    raw = base_config()
    raw["run"]["seeds"] = []
    with pytest.raises(ConfigError, match="seeds"):
        load_config(raw)


def test_config_rejects_duplicate_seeds():
    raw = base_config()
    raw["run"]["seeds"] = [1, 1]
    with pytest.raises(ConfigError):
        load_config(raw)


def test_config_rejects_unknown_kinds():
    raw = base_config()
    raw["model"] = {"kind": "mystery"}
    with pytest.raises(ConfigError, match="unknown model"):
        load_config(raw)
    raw = base_config()
    raw["schedule"] = {"tau": {"kind": "cauchy"}}
    with pytest.raises(ConfigError, match="waiting-time"):
        load_config(raw)


def test_config_rejects_bad_run_window():
    raw = base_config()
    raw["run"]["sample_dt"] = 100.0
    with pytest.raises(ConfigError, match="sample_dt"):
        load_config(raw)
    raw = base_config()
    raw["run"]["burn_in"] = 41.0
    with pytest.raises(ConfigError, match="burn_in"):
        load_config(raw)


def test_config_rejects_mismatched_psi0_and_sites():
    raw = base_config()
    raw["psi0"] = {"q": [1.0], "p": [0.0]}
    with pytest.raises(ConfigError, match="psi0"):
        load_config(raw)
    raw = base_config()
    raw["contact_sites"] = [7]
    with pytest.raises(ConfigError, match="contact_sites"):
        load_config(raw)


def test_contact_sites_are_particle_one(tmp_path, capsys):
    # derived from the kicked particle; a legacy entry must name exactly its coordinates
    raw = base_config()
    del raw["contact_sites"]
    assert load_config(raw).network.contact_sites == (0,)
    assert not hasattr(load_config(base_config()), "contact_sites")
    for sites in ([1], [0, 1], [], "0"):
        raw["contact_sites"] = sites
        path = write_config(tmp_path, raw)
        assert main(["dissipative", "--config", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "contact_sites" in err["message"]


def test_d2_chain_couples_each_coordinate_to_itself():
    # the matrix the ball-lattice-grid benchmark writes out explicitly:
    # kron(chain(6), I_2), so x_1 does not couple to y_1
    raw = base_config()
    del raw["contact_sites"]
    raw["network"].update(n_particles=6, dim=2)
    raw["model"] = {"kind": "two_dim_ball", "external_mass": 0.5}
    cfg = load_config(raw)
    assert np.array_equal(cfg.network.stiffness, np.kron(chain_stiffness(6), np.eye(2)))
    assert cfg.network.stiffness[0, 1] == 0.0
    assert cfg.network.contact_sites == (0, 1)
    raw["contact_sites"] = [0, 1]
    assert np.array_equal(load_config(raw).network.stiffness, cfg.network.stiffness)


def test_config_rejects_indefinite_explicit_matrix():
    raw = base_config()
    raw["network"]["stiffness"] = {"kind": "explicit", "matrix": [[1, 0, 0], [0, -1, 0], [0, 0, 1]]}
    with pytest.raises(ConfigError, match="network"):
        load_config(raw)


def test_config_defaults_are_filled():
    raw = base_config()
    del raw["run"]["burn_in"]
    del raw["run"]["sample_dt"]
    cfg = load_config(raw)
    assert cfg.burn_in == pytest.approx(4.0)  # 10% of the horizon
    omega_max = cfg.network.mode_frequencies[-1]
    assert cfg.sample_dt == pytest.approx((2 * np.pi / omega_max) / 8.0)


# --- runners ---------------------------------------------------------------------


def test_simulate_summary_shape_and_determinism(tmp_path):
    cfg = load_config(base_config())
    a = run_simulate(cfg, tmp_path / "a")
    b = run_simulate(cfg, tmp_path / "b")
    assert (tmp_path / "a" / "summary.json").read_bytes() == (
        tmp_path / "b" / "summary.json"
    ).read_bytes()
    assert (tmp_path / "a" / "trajectory.csv").exists()
    assert a["comparison"]["beta"] == pytest.approx(2.0)
    assert [s["seed"] for s in a["per_seed"]] == [0, 1]
    assert a["pooled"]["n_samples"] == sum(s["n_samples"] for s in a["per_seed"])
    assert a["config_hash"] == b["config_hash"]
    for entry in a["per_seed"]:
        assert entry["chain_steps"] == 1000
        assert entry["chain_final_time"] > 0
        assert np.isfinite(entry["chain_mean_energy"])


def test_summary_config_roundtrip_reproduces_run(tmp_path):
    cfg = load_config(base_config())
    first = run_simulate(cfg, None)
    again = run_simulate(load_config(first["config"]), None)
    assert np.array_equal(
        np.asarray(first["pooled"]["covariance"]),
        np.asarray(again["pooled"]["covariance"]),
    )


def _whole_pass_stats(cfg, seed, run, csv=None):
    """One seed's entry and ``Moments`` from its whole ``whole_passes`` run, added to its grid at once."""
    times, modes, events = run
    first = 0 if csv is not None else grid_index(cfg.burn_in, cfg.sample_dt)
    grid = GridWindows(cfg.network, modes[0], cfg.sample_dt, grid_size(cfg.t_end, cfg.sample_dt),
                       first, physical=csv is not None)
    blocks = itertools.chain(grid.add(times[1 : events + 1], modes[1 : events + 1]), grid.close())
    [chain] = _chain_entries(cfg, modes[None, : cfg.n_steps + 1], [times[cfg.n_steps]])
    return _seed_entry(cfg, seed, events, _seed_stats(cfg, Moments(), blocks, csv), chain)


def test_pooled_is_the_left_fold_of_the_seeds_moments_in_seed_order():
    # the summary's bits rest on this summation order
    cfg = load_config(base_config(seeds=[2, 0, 1]))
    runs = whole_passes(cfg.network, cfg.model, cfg.tau_law, cfg.psi0, cfg.t_end,
                        cfg.n_steps, cfg.seeds)
    folded = Moments()
    for seed, run in sorted(zip(cfg.seeds, runs), key=lambda pair: pair[0]):
        folded += _whole_pass_stats(cfg, seed, run)[1]
    pooled = run_simulate(cfg, None)["pooled"]
    assert pooled["n_samples"] == folded.n
    assert pooled["mean"].tobytes() == folded.mean.tobytes()
    assert pooled["covariance"].tobytes() == folded.covariance.tobytes()


@pytest.mark.parametrize(
    "burn_in", [0.0, 250.0, 250.1, 1100.0, 1000.1, 1050.1],
    ids=["zero", "grid-time", "between-grid-times", "last-grid-time", "last-window-overlap",
         "last-window-new-rows"])
def test_n_samples_counts_the_grid_times_from_burn_in(burn_in):
    # 4,401 grid times, so the last GRID_BLOCK window overlaps the first. Without the
    # csv a seed's grid starts at burn-in; it counts the same rows and folds the same sums
    cfg = load_config(base_config(t_end=1100.1, sample_dt=0.25, burn_in=burn_in, seeds=[0]))
    size = grid_size(cfg.t_end, cfg.sample_dt)
    assert size > GRID_BLOCK and size % GRID_BLOCK
    [run] = whole_passes(cfg.network, cfg.model, cfg.tau_law, cfg.psi0, cfg.t_end,
                         cfg.n_steps, cfg.seeds)
    entry, moments = _whole_pass_stats(cfg, 0, run)
    written, written_moments = _whole_pass_stats(cfg, 0, run, io.StringIO())
    expected = np.count_nonzero(np.arange(size) * cfg.sample_dt >= burn_in)
    assert entry["n_samples"] == moments.n == expected
    assert entry == written
    assert moments.sum_x.tobytes() == written_moments.sum_x.tobytes()
    assert moments.sum_xx.tobytes() == written_moments.sum_xx.tobytes()


def test_simulate_reduces_the_same_bits_with_and_without_out(tmp_path):
    # seed 1 writes the csv and computes its whole grid; the others start at burn-in
    cfg = load_config(base_config(t_end=2100.1, sample_dt=0.25, burn_in=1000.1, seeds=[1, 0, 2]))
    written, alone = run_simulate(cfg, tmp_path), run_simulate(cfg, None)
    assert written["per_seed"] == alone["per_seed"]
    assert written["pooled"]["n_samples"] == alone["pooled"]["n_samples"]
    for key in ("mean", "covariance"):
        assert written["pooled"][key].tobytes() == alone["pooled"][key].tobytes()


def test_simulate_batch_equals_its_single_seed_runs(tmp_path):
    # all seeds step together; some end inside [0, t_end], some run their chain
    # past it, and the ones that finish first ride along on padding
    seeds = [3, 0, 1, 2]
    probe = run_simulate(load_config(base_config(seeds=seeds, t_end=60.0, n_steps=1)), None)
    counts = [e["events"] for e in probe["per_seed"]]
    run = {"t_end": 60.0, "n_steps": (min(counts) + max(counts)) // 2}

    def per_seed(out):
        entries = json.loads((out / "summary.json").read_text())["per_seed"]
        return {e["seed"]: json.dumps(e, sort_keys=True) for e in entries}

    batch = run_simulate(load_config(base_config(seeds=seeds, **run)), tmp_path / "batch")
    events = [e["events"] for e in batch["per_seed"]]
    assert min(events) < run["n_steps"] < max(events)
    entries = per_seed(tmp_path / "batch")
    for seed in seeds:
        run_simulate(load_config(base_config(seeds=[seed], **run)), tmp_path / str(seed))
        assert per_seed(tmp_path / str(seed)) == {seed: entries[seed]}
    assert (tmp_path / "batch" / "trajectory.csv").read_bytes() == (
        tmp_path / "3" / "trajectory.csv"
    ).read_bytes()


def _inf_at(monkeypatch, inputs: dict) -> None:
    """Make seed s's velocity input number inputs[s] infinite, for each listed seed s.

    The seam is the velocity law's block ``sample``; a seed's input stream is
    spawned from ``SeedSequence(s)``, whose entropy names the seed.
    """
    sample = GaussianVelocity.sample

    def wrapped(self, rng, size=None):
        u = sample(self, rng, size)
        k = inputs.get(rng.bit_generator.seed_seq.entropy)
        if size is not None and k is not None and k <= size:
            u[k - 1] = np.inf
        return u

    monkeypatch.setattr(GaussianVelocity, "sample", wrapped)


def test_overflow_in_a_batch_reports_the_first_listed_seed(tmp_path, monkeypatch, capsys):
    # seed 5's input turns infinite past t_end, seed 1's earlier, inside
    # [0, t_end]; the listed order decides
    per_seed = run_simulate(load_config(base_config(seeds=[1, 5])), None)["per_seed"]
    events = {entry["seed"]: entry["events"] for entry in per_seed}
    late_step, early_event = events[5] + 7, events[1] // 2
    assert early_event < late_step <= 1000  # the default n_steps
    _inf_at(monkeypatch, {5: late_step, 1: early_event})

    def message(seeds):
        with pytest.raises(NumericalAbort) as info:
            run_simulate(load_config(base_config(seeds=seeds)), None)
        return str(info.value)

    late, early = message([5]), message([1])
    assert late.endswith(f"at step {late_step}") and f"after event {early_event} " in early
    assert message([5, 1]) == late and message([1, 5]) == early
    path = write_config(tmp_path, base_config(seeds=[5, 1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", str(path)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "numerical", "message": late}


def test_overflow_under_out_exits_3_and_writes_nothing(tmp_path, monkeypatch, capsys):
    _inf_at(monkeypatch, {1: 3, 5: 3})
    out = tmp_path / "out"
    path = write_config(tmp_path, base_config(seeds=[1, 5]))
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "numerical"
    assert list(out.iterdir()) == []


def test_trajectory_csv_is_the_first_listed_seed(tmp_path):
    # against the former writer, np.savetxt of the whole trajectory; the second
    # grid spans several GRID_BLOCK blocks and a short tail, the third is a d = 2 ball
    from oscbath.pdmp import GRID_BLOCK, simulate_continuous

    ball = base_config(seeds=[3, 0])
    ball["network"].update(n_particles=3, dim=2)
    ball["model"] = {"kind": "two_dim_ball", "external_mass": 0.5, "velocity_sigma2": 1.0}
    ball.pop("contact_sites")
    for name, raw in [("one-block", base_config(seeds=[3, 0])),
                      ("blocks", base_config(seeds=[3, 0], t_end=1000.3, sample_dt=0.1)),
                      ("ball", ball)]:
        cfg = load_config(raw)
        run_simulate(cfg, tmp_path / name, workers=1)  # creates the directory
        traj = simulate_continuous(
            cfg.network, cfg.model, cfg.tau_law, cfg.psi0, cfg.t_end, cfg.sample_dt, 3
        )
        if name == "blocks":
            assert len(traj.times) > 2 * GRID_BLOCK and len(traj.times) % GRID_BLOCK
        dof = cfg.network.dof
        header = ",".join(["t", *(f"q_{i}" for i in range(1, dof + 1)),
                           *(f"p_{i}" for i in range(1, dof + 1))])
        np.savetxt(tmp_path / f"{name}.csv", np.column_stack([traj.times, traj.states]),
                   fmt="%.17g", delimiter=",", header=header, comments="")
        assert (tmp_path / name / "trajectory.csv").read_bytes() == (
            tmp_path / f"{name}.csv"
        ).read_bytes()


def test_simulate_holds_no_whole_grid(tmp_path):
    # each seed's grid is reduced block by block: the allocation peak stays well
    # below one seed's whole grid of 100,001 x 6 doubles
    import tracemalloc

    def peak(cfg, out_dir):
        tracemalloc.start()
        try:
            run_simulate(cfg, out_dir)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    cfg = load_config(base_config(t_end=1000.0, sample_dt=0.01, burn_in=100.0))
    assert peak(cfg, None) < 0.75 * 100_001 * 6 * 8
    # the CSV seed computes and writes its whole grid, a block at a time, and drops
    # each block before computing the next: on a d = 2 ball grid of 100,001 x 24
    # doubles the peak measured 0.239 of the grid, and 0.294 with the previous
    # block still referenced
    ball = base_config(t_end=2000.0, sample_dt=0.02, burn_in=200.0)
    ball["network"].update(n_particles=6, dim=2)
    ball["model"] = {"kind": "two_dim_ball", "external_mass": 0.5, "velocity_sigma2": 1.0}
    ball.pop("contact_sites")
    assert peak(load_config(ball), tmp_path) < 0.265 * 100_001 * 24 * 8


def test_run_covariance_outputs(tmp_path):
    cfg = load_config(base_config())
    summary = run_covariance(cfg, tmp_path)
    assert summary["checks"]["passed"]
    assert summary["fixed_point_residual"] <= 1e-12
    header = (tmp_path / "lyapunov.csv").read_text().splitlines()[0]
    assert header == "t,F,C_q11,C_p11"


def test_run_covariance_rejects_wrong_model():
    raw = base_config()
    raw["model"] = {"kind": "contractive_affine", "reflection": [[0.5]]}
    raw["network"] = {
        "n_particles": 1,
        "dim": 1,
        "mass": 1.0,
        "stiffness": {"kind": "explicit", "matrix": [[1.0]]},
    }
    cfg = load_config(raw)
    with pytest.raises(ConfigError, match="one_dim_elastic"):
        run_covariance(cfg, None)


def test_run_stationarity_gaussian_and_two_point(tmp_path):
    cfg = load_config(base_config())
    report = run_stationarity(cfg, tmp_path)
    assert report["checks"]["passed"]
    assert report["residual"] <= 1e-10
    assert report["residual_doubled_beta"] >= 1e-2

    raw = base_config()
    raw["model"]["velocity_law"] = {"kind": "two_point", "magnitude": 1.0}
    report2 = run_stationarity(load_config(raw), None)
    assert report2["checks"]["passed"]
    assert report2["checks"]["fourth_moment_detected"]


def test_run_dissipative_complete_and_incomplete(tmp_path):
    report = run_dissipative(load_config(base_config()), tmp_path)
    assert report["complete"] is True
    assert report["checks"]["passed"]
    assert json.loads((tmp_path / "report.json").read_text())["complete"] is True

    raw = base_config()
    raw["network"]["stiffness"] = {
        "kind": "explicit",
        "matrix": np.diag([1.0, 4.0, 9.0]).tolist(),
    }
    report2 = run_dissipative(load_config(raw), None)
    assert report2["complete"] is False
    assert report2["dim_neutral"] == 4  # 2 (dN - 1)


def test_run_drift_check_single_oscillator():
    raw = base_config(seeds=[0])
    raw["network"] = {
        "n_particles": 1,
        "dim": 1,
        "mass": 1.0,
        "stiffness": {"kind": "explicit", "matrix": [[1.0]]},
    }
    report = run_drift_check(load_config(raw), None, n_mc=3000)
    assert report["checks"]["passed"]
    assert report["worst_relative_change"] <= -0.05


def test_run_rank_probe_reaches_full_dimension():
    report = run_rank_probe(load_config(base_config()), None, legs=None)
    assert report["rank"] == report["phase_dim"] == 6
    assert report["sv_ratio"] > report["rank_tolerance"] > 0
    assert report["checks"]["passed"]


def test_run_rank_probe_ball_lattice_reaches_full_dimension():
    # a kick moves d = 2 momenta, so the default legs are sized by 1 + d, not 1 + xi_dim
    raw = base_config(seeds=[7])
    raw["network"].update(n_particles=6, dim=2)
    raw["model"] = {"kind": "two_dim_ball", "external_mass": 0.5, "velocity_sigma2": 1.0}
    raw.pop("contact_sites")
    report = run_rank_probe(load_config(raw), None, legs=None)
    assert report["legs"] == 11
    assert report["rank"] == report["phase_dim"] == 24
    assert report["checks"]["passed"]


@pytest.mark.parametrize("n", [6, 8, 10, 12])
def test_cli_rank_probe_certifies_chains_up_to_the_ceiling(tmp_path, n):
    # dof 12 is RANK_MAX_DOF; a chain of 13 exits 2 (test_cli_bad_config_field_exits_2)
    raw = base_config()
    raw["network"]["n_particles"] = n
    path = write_config(tmp_path, raw)
    for seed in ("0", "7", "41"):
        assert main(["rank-probe", "--config", str(path), "--seeds", seed, "--check"]) == 0


# --- CLI entry point ---------------------------------------------------------------


def test_cli_missing_config_is_validation_error(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.json")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"


def test_cli_invalid_config_exits_2(tmp_path, capsys):
    raw = base_config()
    raw["run"]["seeds"] = []
    code = main(["simulate", "--config", str(write_config(tmp_path, raw))])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


def test_cli_simulate_happy_path(tmp_path):
    path = write_config(tmp_path, base_config())
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert set(summary) >= {"pooled", "per_seed", "comparison", "checks", "config"}


def test_cli_simulate_check_passes_at_scale(tmp_path):
    # a moderate deterministic run sits inside the 5-SE / 5% bands. At this size
    # 100 of 100 disjoint blocks of 32 seeds pass, under either random protocol;
    # 8 seeds at T = 500 pass about 40 of 100 (and 8 at T = 5000 about 96: the
    # z-score of 8 seeds has 7 degrees of freedom)
    raw = base_config(t_end=2000.0, burn_in=200.0, seeds=list(range(32)))
    path = write_config(tmp_path, raw)
    code = main(["simulate", "--config", str(path), "--check"])
    assert code == 0


def test_cli_seed_override_forms(tmp_path):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--seeds", "3..4", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seeds"] == [3, 4]
    assert main(["simulate", "--config", str(path), "--seeds", "0,5", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seeds"] == [0, 5]


@pytest.mark.parametrize("seeds", ["1..x", "", "x..3", "1,,2", "0,a"])
def test_cli_malformed_seed_override_exits_2(tmp_path, capsys, seeds):
    path = write_config(tmp_path, base_config())
    code = main(["simulate", "--config", str(path), "--seeds", seeds])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "--seeds" in err["message"]


def test_equal_masses_run_simulate_and_covariance(tmp_path):
    # m = M is an equal-mass exchange (alpha = 0): beta = 1/(M sigma2)
    path = write_config(tmp_path, _set(base_config(), ("model", "external_mass"), 1.0))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "s")]) == 0
    assert main(["covariance", "--config", str(path), "--out", str(tmp_path / "c")]) == 0
    simulate = json.loads((tmp_path / "s" / "summary.json").read_text())
    covariance = json.loads((tmp_path / "c" / "summary.json").read_text())
    assert simulate["comparison"]["beta"] == pytest.approx(1.0)
    assert covariance["checks"]["converged"]


def test_cli_check_failure_exits_4(tmp_path):
    # one leg cannot reach the 6-dimensional phase space
    path = write_config(tmp_path, base_config())
    code = main(["rank-probe", "--config", str(path), "--legs", "1", "--check"])
    assert code == 4
    assert main(["rank-probe", "--config", str(path), "--legs", "1"]) == 0


def test_cli_covariance_and_dissipative(tmp_path):
    path = write_config(tmp_path, base_config())
    assert main(["covariance", "--config", str(path), "--out", str(tmp_path / "c"), "--check"]) == 0
    assert main(["dissipative", "--config", str(path), "--out", str(tmp_path / "d"), "--check"]) == 0
    assert (tmp_path / "c" / "lyapunov.csv").exists()
    assert (tmp_path / "d" / "report.json").exists()


@pytest.mark.parametrize("command", ["simulate", "covariance", "stationarity", "dissipative",
                                     "drift-check", "rank-probe"])
@pytest.mark.parametrize("config", ["chain3", "oscillator1"])
def test_shipped_configs_pass_their_checks(tmp_path, config, command):
    # a multi-oscillator network can hide energy from the contact site for one
    # waiting time, so drift-check's uniform -5% gate fails on chain3 (exit 4);
    # simulate runs seed 0 alone, whose T = 2000 on oscillator1 leaves an 8.6%
    # error on the covariance diagonal, above the 5% gate (exit 4)
    out = tmp_path / "out"
    path = CONFIGS / f"{config}.json"
    seeds = ["--seeds", "0"] if command == "simulate" else []
    code = main([command, "--config", str(path), "--out", str(out), "--check", *seeds])
    failing = {("chain3", "drift-check"), ("oscillator1", "simulate")}
    assert code == (4 if (config, command) in failing else 0)
    written = sorted(out.glob("*.json"))
    assert written
    for path in written:
        report = json.loads(path.read_text())
        assert report["command"] == command
        assert {"version", "config_hash", "seeds"} <= report.keys()
        checks = dict(report["checks"])
        passed = checks.pop("passed")
        assert passed == all(v for v in checks.values() if v is not None) == (code == 0)
        if command == "simulate":  # one seed has no spread for the z-check
            assert checks["cov_within_5_se"] is None
            assert report["comparison"]["max_abs_z"] is None
            assert report["comparison"]["std_error"] is None


def _set(raw, path, value):
    section = raw
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    return raw


@pytest.mark.parametrize(
    "path, value, command",
    [
        (("network", "mass"), None, ["simulate"]),
        (("network", "mass"), "heavy", ["simulate"]),
        (("schedule", "tau", "rate"), None, ["simulate"]),
        (("network", "stiffness", "pinning"), float("nan"), ["simulate"]),
        (("network", "stiffness"), {"kind": "explicit", "matrix": [[1.0, 0.0, 0.0],
                                                                  [0.0, float("nan"), 0.0],
                                                                  [0.0, 0.0, 1.0]]},
         ["simulate"]),
        (("network", "dim"), 2, ["simulate"]),  # the 1-D elastic model on a d = 2 network
        (("model",), {"kind": "contractive_affine", "reflection": [[0.5]]}, ["rank-probe"]),
        (("network", "n_particles"), 13, ["rank-probe"]),  # dof above RANK_MAX_DOF
        (("network", "mass"), 1.0, ["rank-probe", "--legs", "-1"]),  # valid config
        # far past RANK_MAX_LEGS: the probe's point alone would need 16 TB
        (("network", "mass"), 1.0, ["rank-probe", "--legs", "1000000000000"]),
        # dof 10**7: the stiffness alone would need 728 TiB; refused before it is built
        (("network", "n_particles"), 10**7, ["simulate"]),
        (("network",), {"n_particles": 10**7, "dim": 1, "mass": 1.0,
                        "stiffness": {"kind": "random", "seed": 0}}, ["dissipative"]),
        (("model", "external_mass"), 2.0, ["simulate"]),  # heavier than the network's
        (("model", "external_mass"), 2.0, ["covariance"]),
        (("model", "external_mass"), 1.0, ["stationarity"]),  # gamma = 1/alpha at alpha = 0
        (("network", "mass"), 1.0, ["simulate", "--workers", "0"]),  # valid config
        (("network", "mass"), 1.0, ["simulate", "--workers", "-3"]),
        # numbers must be JSON numbers, and integer fields integral: none is coerced
        (("network", "n_particles"), 3.9, ["simulate"]),
        (("network", "n_particles"), True, ["simulate"]),
        (("network", "dim"), "1", ["simulate"]),
        (("network", "mass"), True, ["simulate"]),
        (("network", "stiffness"), {"kind": "random", "seed": 1.5}, ["simulate"]),
        (("network", "stiffness"), {"kind": "explicit", "matrix": [["1.0", 0.0, 0.0],
                                                                  [0.0, 1.0, 0.0],
                                                                  [0.0, 0.0, 1.0]]},
         ["simulate"]),
        (("model",), {"kind": "contractive_affine", "reflection": [["0.5"]]}, ["simulate"]),
        (("run", "seeds"), [0.5, 1.5], ["simulate"]),
        (("run", "seeds"), [False, True], ["simulate"]),
        (("run", "n_steps"), "12", ["simulate"]),
        (("contact_sites",), [0.5], ["simulate"]),
        (("psi0",), {"q": [0.0, 0.0, 0.0], "p": [False, 0.0, 0.0]}, ["simulate"]),
        # burn_in below t_end but past the last grid sample, 0.6: nothing to average
        (("run",), {"t_end": 1.0, "sample_dt": 0.6, "burn_in": 0.9, "seeds": [0]},
         ["simulate", "--check"]),
        # beta = (1+alpha)/(M (1-alpha) sigma2) needs a finite positive sigma2 and alpha < 1:
        # a half_width or magnitude whose square underflows or overflows, or an
        # external mass so light that alpha rounds to 1, ended in a traceback
        (("model", "velocity_law"), {"kind": "uniform", "half_width": 1e-300}, ["simulate"]),
        (("model", "velocity_law"), {"kind": "uniform", "half_width": 1e-300}, ["covariance"]),
        (("model", "velocity_law"), {"kind": "uniform", "half_width": 1e-300},
         ["stationarity"]),
        (("model", "velocity_law"), {"kind": "two_point", "magnitude": 1e-300},
         ["stationarity"]),
        (("model", "velocity_law"), {"kind": "uniform", "half_width": 1e300}, ["covariance"]),
        (("model", "velocity_law"), {"kind": "uniform", "half_width": 1e300}, ["stationarity"]),
        (("model", "external_mass"), 1e-300, ["simulate"]),
        (("model", "external_mass"), 1e-300, ["covariance"]),
        (("model", "external_mass"), 1e-300, ["stationarity"]),
        # sigma2 is positive, but beta = (1+alpha)/(M (1-alpha) sigma2) overflowed: Infinity
        # in the reports and RuntimeWarnings on stderr
        (("model", "velocity_law"), {"kind": "gaussian", "sigma2": 1e-320}, ["simulate"]),
        (("model", "velocity_law"), {"kind": "gaussian", "sigma2": 1e-320}, ["covariance"]),
        (("model", "velocity_law"), {"kind": "gaussian", "sigma2": 1e-320}, ["stationarity"]),
    ],
    ids=["mass-null", "mass-text", "rate-null", "pinning-nan", "matrix-nan", "model-dim",
         "rank-probe-affine", "rank-probe-dof13", "rank-probe-negative-legs",
         "rank-probe-huge-legs", "n-particles-huge-chain", "n-particles-huge-random",
         "external-mass-above-simulate", "external-mass-above-covariance",
         "stationarity-equal-masses", "simulate-zero-workers", "simulate-negative-workers",
         "n-particles-fraction", "n-particles-bool", "dim-text", "mass-bool",
         "stiffness-seed-fraction", "matrix-text", "reflection-text", "seeds-fraction",
         "seeds-bool", "n-steps-text", "contact-sites-fraction", "psi0-bool",
         "burn-in-past-grid", "half-width-tiny-simulate", "half-width-tiny-covariance",
         "half-width-tiny-stationarity", "magnitude-tiny-stationarity",
         "half-width-huge-covariance", "half-width-huge-stationarity",
         "external-mass-tiny-simulate", "external-mass-tiny-covariance",
         "external-mass-tiny-stationarity", "beta-infinite-simulate", "beta-infinite-covariance",
         "beta-infinite-stationarity"],
)
def test_cli_bad_config_field_exits_2(tmp_path, capsys, path, value, command):
    path_ = write_config(tmp_path, _set(base_config(), path, value))
    assert main([*command, "--config", str(path_)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    err = _strict_json(line)
    assert err["error"] == "config" and err["message"]
    if value == {"kind": "gaussian", "sigma2": 1e-320}:
        assert err["message"].startswith("invalid model.velocity_law: ")


def _ball(raw):
    """``raw`` with a d = 2 network and the ball model at the same external mass."""
    raw["network"]["dim"] = 2
    raw["model"] = {"kind": "two_dim_ball", "external_mass": raw["model"]["external_mass"]}
    raw.pop("contact_sites")
    return raw


@pytest.mark.parametrize(
    "raw, field",
    [
        (_set(base_config(), ("model", "velocity_law"), {"kind": "uniform", "half_width": 1e-300}),
         "model.velocity_law"),
        (_set(base_config(), ("model", "velocity_law"), {"kind": "two_point", "magnitude": 1e300}),
         "model.velocity_law"),
        (_set(base_config(), ("model", "external_mass"), 1e-300), "model.external_mass"),
        # the ball ran with kicks that moved nothing
        (_ball(_set(base_config(), ("model", "external_mass"), 1e-300)), "model.external_mass"),
    ],
    ids=["half-width-tiny", "magnitude-huge", "external-mass-tiny", "ball-external-mass-tiny"],
)
def test_load_refuses_a_zero_or_infinite_variance_or_unit_alpha_naming_the_field(raw, field):
    with pytest.raises(ConfigError, match=f"^invalid {field}: "):
        load_config(raw)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "path, value, command",
    [
        # one eigenvector is about 1e-8 at site 0, where the zero-count test cuts:
        # the Krylov rank and the eigenvector count disagree (a RuntimeError, exit 1)
        (("network", "stiffness"), {"kind": "explicit", "matrix": [
            [1.372930523312534, -0.08620165973177689, 0.2143368630782256],
            [-0.08620165973177688, 1.4201154709696449, -0.4031255624755946],
            [0.21433686307822558, -0.40312556247559467, 2.2603421287656755]]}, "dissipative"),
        # the moment samples overflow: NaN reached eigvalsh (a LinAlgError, exit 1)
        (("network", "stiffness", "coupling"), 1e20, "covariance"),
        # momenta near 1e80: the fourth moments overflowed, and report.json held
        # Infinity and NaN shifts (exit 0, with RuntimeWarnings)
        (("model", "velocity_law"), {"kind": "gaussian", "sigma2": 1e160}, "stationarity"),
        # energies near 1e160: their standard errors were Infinity
        (("model", "velocity_law"), {"kind": "gaussian", "sigma2": 1e160}, "drift-check"),
    ],
    ids=["dissipative-rank-boundary", "covariance-coupling-huge", "stationarity-sigma2-huge",
         "drift-check-sigma2-huge"],
)
def test_cli_numerical_abort_exits_3_with_one_strict_json_line(tmp_path, capsys, path, value,
                                                               command):
    path_ = write_config(tmp_path, _set(base_config(), path, value))
    out = tmp_path / "out"
    assert main([command, "--config", str(path_), "--check", "--out", str(out)]) == 3
    assert list(out.iterdir()) == []  # an aborted run writes nothing
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()

    def reject(constant):
        raise ValueError(f"{constant} in the error line")

    err = json.loads(line, parse_constant=reject)
    assert err["error"] == "numerical" and err["message"]


@pytest.mark.parametrize(
    "run, flags, field",
    [
        ({"seeds": [2, -1]}, [], "run.seeds"),  # numpy's default_rng raised ValueError
        ({}, ["--seeds", "-1"], "run.seeds"),
        ({}, ["--seeds=-2..1"], "run.seeds"),
        # 10**12 steps: the event record's buffers raised MemoryError at once, with
        # no large allocation; the config is refused before any is tried
        ({"n_steps": 10**12}, [], "run.n_steps"),
        # about 1e9 events per seed: the draw loop would have run for hours, growing
        # its record toward 144 GB for the two seeds
        ({"t_end": 1e9}, [], "run.t_end"),
        # 1e10 grid rows: simulate would have rotated and reduced them for about 50 minutes
        ({"t_end": 10.0, "sample_dt": 1e-9, "burn_in": 1.0, "seeds": [0]}, [], "run.sample_dt"),
        # t_end / sample_dt overflows: the grid size's int conversion raised OverflowError
        ({"sample_dt": 5e-324}, [], "run.sample_dt"),
        # 5e7 rows of one seed are within the grid bound, but trajectory.csv would take
        # about 6.5 GB at the 130 bytes per row written on chain3
        ({"t_end": 1e4, "sample_dt": 2e-4, "seeds": [0]}, ["--out", "out"], "run.sample_dt"),
    ],
    ids=["config-seeds-negative", "flag-seed-negative", "flag-range-negative", "n-steps-huge",
         "t-end-huge", "grid-huge", "grid-infinite", "csv-huge"],
)
def test_cli_out_of_range_run_field_exits_2_naming_it(tmp_path, monkeypatch, capsys, run, flags,
                                                      field):
    monkeypatch.chdir(tmp_path)  # a relative --out lands in tmp_path
    path = write_config(tmp_path, base_config(**run))
    assert main(["simulate", "--config", str(path), *flags]) == 2
    [line] = capsys.readouterr().err.splitlines()
    err = _strict_json(line)
    assert err["error"] == "config" and err["message"].startswith(field)
    assert not list(tmp_path.rglob("trajectory.csv"))


@pytest.mark.parametrize("tau", [
    {"kind": "exponential", "rate": 5e-324},
    {"kind": "gamma", "shape": 1e308, "rate": 1e-308},
    {"kind": "uniform", "low": 1e308, "high": 1.7e308},
], ids=["exponential", "gamma", "uniform"])
def test_waiting_time_law_without_a_finite_mean_exits_2_naming_it(tmp_path, capsys, tau):
    # each mean overflows to inf; the event loop would size its draws by it
    path = write_config(tmp_path, _set(base_config(), ("schedule", "tau"), tau))
    assert main(["simulate", "--config", str(path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "config" and "waiting-time law" in err["message"]


def _strict_json(text):
    """JSON that holds no NaN or Infinity."""
    def reject(constant):
        raise ValueError(f"{constant} in JSON output")
    return json.loads(text, parse_constant=reject)


def _chain3_from(q1, **run):
    """configs/chain3.json started at q = (q1, 0, 0), with ``run`` fields replaced."""
    raw = json.loads((CONFIGS / "chain3.json").read_text())
    raw["run"].update(run)
    raw["psi0"] = {"q": [q1, 0.0, 0.0], "p": [0.0, 0.0, 0.0]}
    return raw


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_large_finite_start_writes_finite_json_or_exits_3(tmp_path, capsys):
    # at 1e80 the seeds' covariances, near 1e160, are finite but their squares are
    # not: the standard errors were Infinity and NaN, now they are finite
    run = {"t_end": 50.0, "burn_in": 5.0, "seeds": [0, 1]}
    out = tmp_path / "1e80"
    path = write_config(tmp_path, _chain3_from(1e80, **run), "1e80.json")
    assert main(["simulate", "--config", str(path), "--check", "--out", str(out)]) == 4
    assert capsys.readouterr().err == ""
    comparison = _strict_json((out / "summary.json").read_text())["comparison"]
    assert np.all(np.asarray(comparison["std_error"]) > 0) and comparison["max_abs_z"] > 0
    # at 1e160 the grid sums overflow: one JSON line, exit 3 and no output
    out = tmp_path / "1e160"
    path = write_config(tmp_path, _chain3_from(1e160, **run), "1e160.json")
    assert main(["simulate", "--config", str(path), "--check", "--out", str(out)]) == 3
    [line] = capsys.readouterr().err.splitlines()
    assert _strict_json(line) == {"error": "numerical",
                                  "message": "grid moments of seed 0 overflow"}
    assert list(out.iterdir()) == []
    # the mean's energy-norm decay factor is scale-free: it read 0.0 and NaN at these starts
    decays = []
    for q1 in (1.0, 1e154, 1e155, 1e300, 1e-200):
        out = tmp_path / f"covariance-{q1}"
        path = write_config(tmp_path, _chain3_from(q1), f"covariance-{q1}.json")
        assert main(["covariance", "--config", str(path), "--check", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        decays.append(_strict_json((out / "summary.json").read_text())["mean_energy_norm_decay_t200"])
    assert 0 < decays[0] < 1e-3
    assert decays == pytest.approx([decays[0]] * len(decays), rel=1e-12)


def test_seed_count_alone_past_the_record_bound_names_run_seeds(capsys):
    # MAX_SEEDS seeds of chain3 pass the bound at the smallest record a seed can
    # need (16 events); the loader blamed run.n_steps, which the config does not set
    argv = ["simulate", "--config", str(CONFIGS / "chain3.json"), "--seeds", f"0..{MAX_SEEDS - 1}"]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and err["message"].startswith("run.seeds")


def test_shipped_configs_load_within_the_record_bound():
    # the time bound refuses chain3 at t_end 1e9 (1e9 lockstep steps for its 32 seeds,
    # and a whole-run record of about 2,146 GiB) and nothing the shipped configs ask for
    for path in sorted(CONFIGS.glob("*.json")):
        load_config(path)
    raw = json.loads((CONFIGS / "chain3.json").read_text())
    raw["run"]["t_end"] = 1e9
    with pytest.raises(ConfigError, match=r"^run\.t_end"):
        load_config(raw)


def test_the_horizon_is_bounded_by_run_time_not_by_memory(tmp_path, capsys):
    # 32 chain3 seeds at t_end 5e5 expect 1.6e7 events: a whole-run record of 1.15 GB
    # was refused from t_end 4.7e5 on. The event loop's time bound refuses them from
    # t_end 1.36e6 on, and one seed from 2.35e6 on, with exit 2 and one JSON line
    # naming run.t_end; a chain that long names run.n_steps
    raw = json.loads((CONFIGS / "chain3.json").read_text())
    raw["run"]["t_end"] = 5e5
    mean = load_config(raw).tau_law.mean
    raw["run"]["sample_dt"] = 1.0  # within the grid bound at the longest horizon
    for seeds in (32, 1):
        longest = EVENT_LOOP_MAX_S / (STEP_S + seeds * SEED_STEP_S) * mean
        raw["run"].update(seeds=list(range(seeds)), t_end=0.99 * longest)
        load_config(raw)
        raw["run"]["t_end"] = 1.01 * longest
        with pytest.raises(ConfigError, match=rf"^run\.t_end = .* more than 30 s of event loop "
                                              rf"for {seeds} seeds"):
            load_config(raw)
    assert main(["simulate", "--config", str(write_config(tmp_path, raw))]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line)["message"].startswith("run.t_end")
    raw["run"].update(t_end=100.0, burn_in=10.0, n_steps=int(1.01 * longest / mean))
    with pytest.raises(ConfigError, match=r"^run\.n_steps = .* more than 30 s of event loop"):
        load_config(raw)


def test_what_simulate_holds_at_once_is_bounded_with_the_seeds():
    # chain3 seeds at t_end 5000 and sample_dt 1 each hold two blocks of 512 events and
    # the jumps of a 4,096-row grid window, 369 kB, and 48 kB of chain rows at n_steps
    # 1000: 0.83 GB for 2,000 seeds, 4.2 GB for 10,000. At n_steps 5000 the chain rows
    # are 240 kB a seed: 1,500 seeds hold 0.91 GB and 2,000 seeds 1.22 GB. Checked apart,
    # each part passed up to 2,500 seeds, which peaked at 1,219 MiB
    raw = json.loads((CONFIGS / "chain3.json").read_text())
    raw["run"].update(t_end=5000.0, sample_dt=1.0, burn_in=500.0, seeds=list(range(2000)))
    load_config(raw)
    raw["run"]["seeds"] = list(range(10_000))
    with pytest.raises(ConfigError, match=rf"^run\.seeds lists 10000 seeds, more than "
                                          rf"{RECORD_MAX_BYTES} bytes of event blocks"):
        load_config(raw)
    raw["run"].update(n_steps=5000, seeds=list(range(1500)))
    load_config(raw)
    for seeds in (2000, 2500):
        raw["run"]["seeds"] = list(range(seeds))
        with pytest.raises(ConfigError, match=rf"^run\.seeds lists {seeds} seeds"):
            load_config(raw)


def _ball_lattice_grid():
    raw = base_config(t_end=1.0e4, sample_dt=0.1, seeds=[0, 1])
    del raw["run"]["burn_in"]
    raw["network"] = {"n_particles": 6, "dim": 2, "mass": 1.0, "stiffness": {
        "kind": "explicit", "matrix": np.kron(chain_stiffness(6), np.eye(2)).tolist()}}
    raw["model"] = {"kind": "two_dim_ball", "external_mass": 0.5, "velocity_sigma2": 1.0}
    raw["schedule"] = {"tau": {"kind": "gamma", "shape": 2.0, "rate": 1.0}}
    raw["contact_sites"] = [0, 1]
    return raw


@pytest.mark.parametrize("raw", [
    # 8 chain3 seeds whose 20,001 chain rows dominate: peak 8.82 MB of 8.71 MB held
    base_config(t_end=500.0, sample_dt=0.25, burn_in=50.0, n_steps=20_000, seeds=list(range(8))),
    # the ball-lattice-grid benchmark workload, whose window rows dominate: 1.76 of 1.77 MB
    _ball_lattice_grid(),
], ids=["chain3-long-chain", "ball-lattice-grid"])
def test_held_bytes_bounds_what_simulate_holds(raw):
    cfg = load_config(raw)
    held = sum(held_bytes(cfg.network, cfg.model, cfg.tau_law.mean, cfg.t_end, cfg.sample_dt,
                          cfg.n_steps, len(cfg.seeds)))
    short = {**raw, "run": {**raw["run"], "t_end": 50.0, "burn_in": 5.0, "n_steps": 10}}
    run_simulate(load_config(short), None)  # warm caches: a first run peaked 0.75 MB higher
    tracemalloc.start()
    try:
        run_simulate(cfg, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * held, (peak, held)


def test_the_longest_documented_run_loads_within_the_grid_bound():
    # chain3 at t_end 2e5: 32 seeds x 800,001 grid rows, a quarter of GRID_MAX_ROWS
    raw = json.loads((CONFIGS / "chain3.json").read_text())
    raw["run"].update(t_end=2e5, burn_in=2e4)
    cfg = load_config(raw)
    assert len(cfg.seeds) * grid_size(cfg.t_end, cfg.sample_dt) == 32 * 800_001 <= GRID_MAX_ROWS
    raw["run"]["sample_dt"] = 0.25 * 32 * 800_001 / GRID_MAX_ROWS / 1.01  # just past the bound
    with pytest.raises(ConfigError, match=r"^run\.sample_dt"):
        load_config(raw)


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", str(CONFIGS / "chain3.json"), "--seeds", "-2..1"],
    ["simulate"],
    [],
    ["simulate", "--config", str(CONFIGS / "chain3.json"), "--workers", "two"],
    ["simulate", "--config", str(CONFIGS / "chain3.json"), "--bogus"],
    ["no-such-command", "--config", str(CONFIGS / "chain3.json")],
    ["simulate", "--config", str(CONFIGS / "chain3.json"), "--seeds", "0..1000000000000000"],
], ids=["negative-range-read-as-flag", "no-config", "no-command", "bad-int", "unknown-flag",
        "unknown-command", "range-too-long-to-build"])
def test_cli_argument_errors_exit_2_with_one_json_line(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and captured.out == ""
    err = json.loads(lines[0])
    assert err["error"] == "config" and err["message"].startswith("oscbath")


def test_cli_help_and_version_still_exit_0(capsys):
    for argv in (["--version"], ["--help"], ["simulate", "--help"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        captured = capsys.readouterr()
        assert captured.out and captured.err == ""


def test_cli_parser_is_built_once_and_reused(capsys):
    """One parser serves every call: an error, help or a bad flag leaves nothing behind."""
    assert cli.build_parser() is cli.build_parser()
    bad = ["simulate", "--config", str(CONFIGS / "chain3.json"), "--workers", "two"]
    for _ in range(2):
        assert main(bad) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"
        with pytest.raises(SystemExit) as info:
            main(["dissipative", "--help"])
        assert info.value.code == 0 and "--config" in capsys.readouterr().out
    args = cli.build_parser().parse_args(["rank-probe", "--config", "x.json"])
    assert (args.seeds, args.check, args.legs) == (None, False, None)


def test_unknown_config_keys_exit_2_naming_their_path(tmp_path, capsys):
    # psi0 under run, say, would otherwise be ignored without a word
    raw = base_config()
    raw["psi0"] = {"q": [0.0, 0.0, 0.0], "p": [1.0, 0.0, 0.0]}
    for path, section in [  # every key each kind reads is known
        (("network", "stiffness"), {"kind": "random", "seed": 3}),
        (("network", "stiffness"), {"kind": "explicit", "matrix": np.eye(3).tolist()}),
        (("model",), {"kind": "contractive_affine", "reflection": [[0.5]], "noise_sigma2": 2.0}),
        (("model", "velocity_law"), {"kind": "uniform", "half_width": 1.0}),
        (("model", "velocity_law"), {"kind": "two_point", "magnitude": 1.0}),
        (("schedule", "tau"), {"kind": "gamma", "shape": 2.0, "rate": 1.0}),
        (("schedule", "tau"), {"kind": "uniform", "low": 0.5, "high": 1.5}),
    ]:
        load_config(_set(copy.deepcopy(raw), path, section))
    for path in [("run", "psi0"), ("psi0", "v"), ("simulate",), ("network", "size"),
                 ("network", "stiffness", "matrix"), ("model", "velocity_sigma2"),
                 ("model", "velocity_law", "half_width"), ("schedule", "rate"),
                 ("schedule", "tau", "shape")]:
        cfg_path = write_config(tmp_path, _set(copy.deepcopy(raw), path, 1.0))
        assert main(["simulate", "--config", str(cfg_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "config", "message": f"unknown key '{'.'.join(path)}'"}


def test_cli_unusable_paths_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    for argv in (["--config", str(path), "--out", str(not_a_dir)],
                 ["--config", str(tmp_path)],
                 ["--config", str(binary)]):
        assert main(["stationarity", *argv]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"


def test_load_config_accepts_long_json_text():
    raw = base_config(seeds=list(range(1000)))
    text = json.dumps(raw)
    assert len(text) > 4096  # longer than any file name
    assert load_config(text).seeds == tuple(range(1000))
    with pytest.raises(ConfigError):
        load_config(text[:-1])


def _leaves(node, prefix=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, prefix + (key,))
    else:
        yield prefix


@pytest.mark.parametrize("value", [None, "x", float("nan"), -1, 0, [], {}])
def test_cli_config_mutation_fuzz_keeps_the_exit_code_contract(tmp_path, capsys, value):
    # every leaf of a valid config, replaced by a bad value: exit 0, 2, 3 or 4,
    # never a traceback, and a JSON error on stderr for 2 and 3
    raw = base_config(t_end=10.0, burn_in=1.0, seeds=[0])
    for path in _leaves(raw):
        mutated = _set(json.loads(json.dumps(raw)), path, value)
        cfg_path = write_config(tmp_path, mutated)
        code = main(["simulate", "--config", str(cfg_path)])
        assert code in (0, 2, 3, 4), path
        err = capsys.readouterr().err
        if code in (2, 3):
            assert json.loads(err)["message"], path
