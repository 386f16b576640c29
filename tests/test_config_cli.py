import json

import numpy as np
import pytest

from oscbath.cli import (
    _merge_stats,
    main,
    run_covariance,
    run_dissipative,
    run_drift_check,
    run_rank_probe,
    run_simulate,
    run_stationarity,
)
from oscbath.config import load_config
from oscbath.errors import ConfigError


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


def test_merge_stats_associative():
    cfg = load_config(base_config(seeds=[0, 1, 2]))
    from oscbath.cli import _seed_stats

    stats = [_seed_stats(cfg, s) for s in cfg.seeds]
    forward = _merge_stats(stats)
    reverse = _merge_stats(stats[::-1])
    assert np.abs(forward["covariance"] - reverse["covariance"]).max() <= 1e-12
    assert forward["n_samples"] == reverse["n_samples"]


def test_simulate_worker_pool_matches_serial(tmp_path):
    cfg = load_config(base_config(seeds=[3, 0, 1]))
    serial = run_simulate(cfg, tmp_path / "serial", workers=1)
    parallel = run_simulate(cfg, tmp_path / "parallel", workers=2)
    assert np.array_equal(
        np.asarray(serial["pooled"]["covariance"]),
        np.asarray(parallel["pooled"]["covariance"]),
    )
    for name in ("summary.json", "trajectory.csv"):
        assert (tmp_path / "serial" / name).read_bytes() == (
            tmp_path / "parallel" / name
        ).read_bytes()


def test_trajectory_csv_is_the_first_listed_seed(tmp_path):
    from oscbath.pdmp import simulate_continuous, trajectory_to_csv

    cfg = load_config(base_config(seeds=[3, 0]))
    run_simulate(cfg, tmp_path, workers=1)
    traj = simulate_continuous(
        cfg.network, cfg.model, cfg.schedule, cfg.psi0, cfg.t_end, cfg.sample_dt, 3
    )
    trajectory_to_csv(traj, tmp_path / "expected.csv")
    assert (tmp_path / "trajectory.csv").read_bytes() == (
        tmp_path / "expected.csv"
    ).read_bytes()


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
    report = run_drift_check(load_config(raw), None, n_probes=4, n_mc=3000)
    assert report["checks"]["passed"]
    assert report["worst_relative_change"] <= -0.05


def test_run_rank_probe_reaches_full_dimension():
    report = run_rank_probe(load_config(base_config()), None, legs=None)
    assert report["rank"] == report["phase_dim"] == 6
    assert report["checks"]["passed"]


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
    # a moderate deterministic run sits inside the 5-SE / 5% bands
    raw = base_config(t_end=500.0, burn_in=50.0, seeds=list(range(8)))
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
