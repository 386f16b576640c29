"""Command-line entry point: experiment orchestration and result emission.

Subcommands: ``simulate``, ``covariance``, ``stationarity``, ``dissipative``,
``drift-check``, ``rank-probe``. Each reads a JSON config (see
:mod:`oscbath.config`), writes ``summary.json`` / ``report.json`` (and CSV
series where applicable) into ``--out``, and exits 0 on success, 2 on
invalid configuration, 3 on numerical abort, and 4 when ``--check`` is
passed and an acceptance threshold fails. Summaries carry the config, its
hash, and the seed list, and contain no timestamps, so identical configs
produce bitwise-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .collisions import OneDimElastic
from .config import ExperimentConfig, load_config
from .covariance import (
    MomentParams,
    beta_from_params,
    covariance_rhs,
    energy_norm,
    gibbs_covariance,
    integrate_covariance,
    lyapunov_functional,
    lyapunov_to_csv,
    mean_dynamics,
)
from .dissipative import analyze, l0_invariance_check, multiplicity_bound_check
from .errors import ConfigError, NumericalAbort
from .laws import Exponential, GaussianVelocity
from .network import PhaseState, energy
from .pdmp import (
    drift_estimate,
    jacobian_rank_probe,
    simulate_continuous,
    simulate_embedded,  # noqa: F401 -- unused here; perfbench/tracing.py probes it by this name
    trajectory_to_csv,
)
from .stationarity import one_step_moment_shift, stationarity_residual

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CHECK = 4


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")


def _moment_params(cfg: ExperimentConfig) -> MomentParams:
    if not isinstance(cfg.model, OneDimElastic):
        raise ConfigError("moment analysis requires the one_dim_elastic model")
    if not isinstance(cfg.schedule.tau_law, Exponential):
        raise ConfigError("moment analysis requires exponential waiting times")
    return MomentParams(
        lam=cfg.schedule.tau_law.rate,
        alpha=cfg.model.alpha(cfg.network.mass),
        sigma2=cfg.model.velocity_law.sigma2,
        mass=cfg.network.mass,
    )


def _provenance(cfg: ExperimentConfig, command: str) -> dict:
    return {
        "command": command,
        "version": __version__,
        "config": cfg.raw,
        "config_hash": cfg.config_hash,
        "seeds": list(cfg.seeds),
    }


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _energies(net, x: np.ndarray) -> np.ndarray:
    """Hamiltonian of each phase-vector row of x."""
    dof = net.dof
    return 0.5 * np.einsum(
        "ij,jk,ik->i", x[:, :dof], net.stiffness, x[:, :dof]
    ) + np.einsum("ij,ij->i", x[:, dof:], x[:, dof:]) / (2.0 * net.mass)


def _seed_stats(cfg: ExperimentConfig, seed: int, keep_trajectory: bool = False) -> dict:
    """Grid and chain statistics of one seed, both from a single event pass.

    With ``keep_trajectory`` the grid trajectory rides along under the key
    ``"trajectory"`` (for ``trajectory.csv``).
    """
    traj = simulate_continuous(
        cfg.network,
        cfg.model,
        cfg.schedule,
        cfg.psi0,
        cfg.t_end,
        cfg.sample_dt,
        seed,
        n_steps=cfg.n_steps,
    )
    x = traj.states[traj.times >= cfg.burn_in]
    dof = cfg.network.dof
    energies = _energies(cfg.network, x)
    chain_energy = _energies(cfg.network, traj.chain.states)
    stats = {
        "seed": seed,
        "events": traj.events,
        "n_samples": x.shape[0],
        "sum_x": x.sum(axis=0),
        "sum_xx": x.T @ x,
        "mean_energy": float(energies.mean()),
        "mean_p1": float(x[:, dof].mean()),
        "chain_steps": cfg.n_steps,
        "chain_mean_energy": float(chain_energy[cfg.n_steps // 10 :].mean()),
        "chain_final_time": float(traj.chain.jump_times[-1]),
    }
    if keep_trajectory:
        stats["trajectory"] = traj
    return stats


def _seed_worker(args):
    raw, seed = args
    return _seed_stats(load_config(raw), seed)


def _merge_stats(per_seed: list) -> dict:
    """Pool per-seed accumulators (associative: plain sums of sufficient stats)."""
    n_total = sum(s["n_samples"] for s in per_seed)
    sum_x = sum(s["sum_x"] for s in per_seed)
    sum_xx = sum(s["sum_xx"] for s in per_seed)
    mean = sum_x / n_total
    cov = sum_xx / n_total - np.outer(mean, mean)
    return {"n_samples": n_total, "mean": mean, "covariance": cov}


def _seed_covariance(stat: dict) -> np.ndarray:
    mean = stat["sum_x"] / stat["n_samples"]
    return stat["sum_xx"] / stat["n_samples"] - np.outer(mean, mean)


def run_simulate(cfg: ExperimentConfig, out_dir: Path | None, workers: int = 1) -> dict:
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    # the first listed seed runs here, so its pass also gives trajectory.csv
    keep = out_dir is not None
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rest = pool.map(_seed_worker, [(cfg.raw, s) for s in cfg.seeds[1:]])
            first = _seed_stats(cfg, cfg.seeds[0], keep_trajectory=keep)
            per_seed = [first, *rest]
    else:
        first = _seed_stats(cfg, cfg.seeds[0], keep_trajectory=keep)
        per_seed = [first, *(_seed_stats(cfg, s) for s in cfg.seeds[1:])]
    trajectory = first.pop("trajectory", None)
    per_seed.sort(key=lambda s: s["seed"])
    pooled = _merge_stats(per_seed)

    comparison = None
    if isinstance(cfg.model, OneDimElastic) and isinstance(
        cfg.schedule.tau_law, Exponential
    ):
        params = _moment_params(cfg)
        beta = beta_from_params(params)
        target = gibbs_covariance(cfg.network, beta)
        seed_covs = np.array([_seed_covariance(s) for s in per_seed])
        if len(per_seed) > 1:
            std_err = seed_covs.std(axis=0, ddof=1) / math.sqrt(len(per_seed))
        else:
            std_err = np.full_like(target, np.inf)
        diff = pooled["covariance"] - target
        diag = np.diag(target)
        max_rel = float(np.abs(np.diag(diff) / diag).max())
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.abs(diff) / std_err
        max_z = float(np.nanmax(z))
        comparison = {
            "beta": beta,
            "target": target,
            "std_error": std_err,
            "max_rel_cov_error": max_rel,
            "max_abs_z": max_z,
        }

    summary = _provenance(cfg, "simulate")
    summary["per_seed"] = [
        {k: v for k, v in s.items() if k not in ("sum_x", "sum_xx")}
        for s in per_seed
    ]
    summary["pooled"] = pooled
    summary["comparison"] = comparison
    checks = {"passed": True}
    if comparison is not None:
        checks["cov_diag_within_5pct"] = comparison["max_rel_cov_error"] <= 0.05
        checks["cov_within_5_se"] = comparison["max_abs_z"] <= 5.0
        checks["passed"] = bool(
            checks["cov_diag_within_5pct"] and checks["cov_within_5_se"]
        )
    summary["checks"] = checks

    if out_dir is not None:
        trajectory_to_csv(trajectory, out_dir / "trajectory.csv")
        _write_json(out_dir / "summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# covariance
# ---------------------------------------------------------------------------


def run_covariance(cfg: ExperimentConfig, out_dir: Path | None) -> dict:
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    params = _moment_params(cfg)
    net = cfg.network
    dof = net.dof
    source_scale = params.lam * params.mass**2 * params.sigma2

    if params.sigma2 > 0:
        beta = beta_from_params(params)
        target = gibbs_covariance(net, beta)
        residual = float(np.abs(covariance_rhs(target, net, params)).max())
    else:
        beta = None
        target = np.zeros((2 * dof, 2 * dof))
        residual = float("nan")

    # forced equation from C0 = 0, integrated in chunks until convergence
    convergence_time = None
    c = np.zeros((2 * dof, 2 * dof))
    t_reached = 0.0
    chunk = 25.0
    final_gap = float("inf")
    while t_reached < 600.0:
        traj = integrate_covariance(c, net, params, t_end=chunk)
        for t, mat in zip(traj.times, traj.matrices):
            gap = float(np.abs(mat - target).max())
            if gap <= 1e-6 and convergence_time is None:
                convergence_time = t_reached + float(t)
        c = traj.final
        t_reached += chunk
        final_gap = float(np.abs(c - target).max())
        if convergence_time is not None:
            break

    # homogeneous equation from a PSD start: Lyapunov functional series
    c0_h = target if params.sigma2 > 0 else gibbs_covariance(net, 1.0)
    hom = integrate_covariance(
        c0_h, net, params, t_end=50.0, include_source=False, sample_every=10
    )
    f_series = np.array([lyapunov_functional(m, net) for m in hom.matrices])
    f_slack = float(np.diff(f_series).max(initial=-np.inf))
    monotone = bool(f_slack <= 1e-10)

    # mean dynamics: energy-norm decay factor over t = 200
    psi0 = cfg.psi0
    if not np.any(psi0.vector):
        psi0 = PhaseState(q=np.ones(dof), p=np.zeros(dof))
    mean_traj = mean_dynamics(net, params, psi0, t_end=200.0)
    mean_decay = energy_norm(net, mean_traj.final) / energy_norm(net, psi0.vector)

    summary = _provenance(cfg, "covariance")
    summary.update(
        {
            "beta": beta,
            "fixed_point_residual": residual,
            "residual_tolerance": 1e-12 * source_scale,
            "convergence_time": convergence_time,
            "final_gap": final_gap,
            "lyapunov_monotone": monotone,
            "lyapunov_max_increase": f_slack,
            "lyapunov_initial": float(f_series[0]),
            "lyapunov_final": float(f_series[-1]),
            "mean_energy_norm_decay_t200": float(mean_decay),
        }
    )
    checks = {
        "fixed_point": bool(
            params.sigma2 == 0 or residual <= max(1e-12 * source_scale, 1e-300)
        ),
        "converged": convergence_time is not None,
        "lyapunov_monotone": monotone,
    }
    checks["passed"] = all(checks.values())
    summary["checks"] = checks

    if out_dir is not None:
        lyapunov_to_csv(hom, net, out_dir / "lyapunov.csv")
        _write_json(out_dir / "summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# stationarity
# ---------------------------------------------------------------------------


def run_stationarity(cfg: ExperimentConfig, out_dir: Path | None) -> dict:
    params = _moment_params(cfg)
    beta = beta_from_params(params)
    law = cfg.model.velocity_law
    grid = np.linspace(-5.0, 5.0, 101)
    residual = stationarity_residual(
        beta, params.alpha, params.mass, law, grid
    )
    residual_doubled = stationarity_residual(
        2.0 * beta, params.alpha, params.mass, law, grid
    )
    shift = one_step_moment_shift(
        beta, params.mass, cfg.model, law, n=200_000, seed=cfg.seeds[0]
    )
    gaussian = isinstance(law, GaussianVelocity)

    report = _provenance(cfg, "stationarity")
    report.update(
        {
            "beta": beta,
            "law": type(law).__name__,
            "residual": residual,
            "residual_doubled_beta": residual_doubled,
            "m2_shift": shift.m2_shift,
            "m2_shift_se": shift.m2_shift_se,
            "m4_shift": shift.m4_shift,
            "m4_shift_se": shift.m4_shift_se,
        }
    )
    if gaussian:
        checks = {
            "residual_small": residual <= 1e-10,
            "doubled_beta_detected": residual_doubled >= 1e-2,
            "moments_invariant": abs(shift.m4_shift) <= 4.0 * shift.m4_shift_se
            and abs(shift.m2_shift) <= 4.0 * shift.m2_shift_se,
        }
    else:
        checks = {
            "residual_nonzero": residual >= 1e-3,
            "variance_invariant": abs(shift.m2_shift) <= 4.0 * shift.m2_shift_se,
            "fourth_moment_detected": abs(shift.m4_shift) >= 4.0 * shift.m4_shift_se,
        }
    checks["passed"] = all(checks.values())
    report["checks"] = checks

    if out_dir is not None:
        _write_json(out_dir / "report.json", report)
    return report


# ---------------------------------------------------------------------------
# dissipative
# ---------------------------------------------------------------------------


def run_dissipative(cfg: ExperimentConfig, out_dir: Path | None) -> dict:
    dis = analyze(cfg.network.stiffness, cfg.contact_sites)
    invariant_ok = l0_invariance_check(cfg.network, cfg.contact_sites)
    report = _provenance(cfg, "dissipative")
    report.update(dis.to_dict())
    report["l0_invariance"] = invariant_ok
    report["multiplicity_bound"] = multiplicity_bound_check(dis)
    checks = {
        "projection_sum_matches_rank": sum(dis.spectral_projection_dims)
        == dis.krylov_rank,
        "neutral_dim_identity": dis.dim_neutral == 2 * (dis.order - dis.krylov_rank),
        "l0_invariance": invariant_ok,
        "multiplicity_bound": multiplicity_bound_check(dis),
    }
    checks["passed"] = all(checks.values())
    report["checks"] = checks
    if out_dir is not None:
        _write_json(out_dir / "report.json", report)
    return report


# ---------------------------------------------------------------------------
# drift-check
# ---------------------------------------------------------------------------


def _state_at_energy(cfg: ExperimentConfig, target_h: float, rng) -> PhaseState:
    dof = cfg.network.dof
    vec = rng.standard_normal(2 * dof)
    psi = PhaseState(q=vec[:dof], p=vec[dof:])
    h = energy(cfg.network, psi)
    scale = math.sqrt(target_h / h)
    return PhaseState(q=scale * psi.q, p=scale * psi.p)


def run_drift_check(
    cfg: ExperimentConfig,
    out_dir: Path | None,
    n_probes: int = 20,
    n_mc: int = 10_000,
) -> dict:
    rng = np.random.default_rng(cfg.seeds[0])
    energies = np.exp(np.linspace(math.log(1e3), math.log(1e4), n_probes))
    probes = []
    for i, h in enumerate(energies):
        psi = _state_at_energy(cfg, float(h), rng)
        est = drift_estimate(
            cfg.network, cfg.model, cfg.schedule, psi, n_mc=n_mc, seed=cfg.seeds[0] + i
        )
        probes.append(
            {
                "energy": est.energy_before,
                "mean_change": est.mean_change,
                "std_error": est.std_error,
                "relative_change": est.relative_change,
            }
        )
    worst = max(p["relative_change"] for p in probes)
    report = _provenance(cfg, "drift-check")
    report.update({"probes": probes, "worst_relative_change": worst})
    checks = {
        "all_negative": all(p["mean_change"] < 0 for p in probes),
        "below_minus_5pct": worst <= -0.05,
    }
    checks["passed"] = all(checks.values())
    report["checks"] = checks
    if out_dir is not None:
        _write_json(out_dir / "report.json", report)
    return report


# ---------------------------------------------------------------------------
# rank-probe
# ---------------------------------------------------------------------------


def run_rank_probe(cfg: ExperimentConfig, out_dir: Path | None, legs: int | None) -> dict:
    model = cfg.model
    l = model.xi_dim
    full_dim = 2 * cfg.network.dof
    if legs is None:
        legs = math.ceil(full_dim / (1 + l)) + 1
    rng = np.random.default_rng(cfg.seeds[0])
    point = np.empty(legs * (1 + l))
    for k in range(legs):
        point[k * (1 + l)] = rng.uniform(0.5, 1.5)
        point[k * (1 + l) + 1 : (k + 1) * (1 + l)] = rng.standard_normal(l)
    psi0 = cfg.psi0
    if not np.any(psi0.vector):
        # a generic base point; the probe differentiates around it
        psi0 = PhaseState(
            q=np.ones(cfg.network.dof), p=0.5 * np.ones(cfg.network.dof)
        )
    rank = jacobian_rank_probe(cfg.network, model, psi0, legs, point)
    report = _provenance(cfg, "rank-probe")
    report.update(
        {
            "legs": legs,
            "input_dim": legs * (1 + l),
            "phase_dim": full_dim,
            "rank": rank,
            "rank_bound": min(legs * (1 + l), full_dim),
        }
    )
    checks = {"full_rank": rank == full_dim}
    checks["passed"] = checks["full_rank"]
    report["checks"] = checks
    if out_dir is not None:
        _write_json(out_dir / "report.json", report)
    return report


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def _parse_seed_range(text: str):
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return tuple(range(int(lo), int(hi) + 1))
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise ConfigError(
            f"--seeds {text!r}: expected 'a..b' (inclusive) or a comma list of integers"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscbath",
        description="Collisional thermostat dynamics for oscillator networks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (
        "simulate",
        "covariance",
        "stationarity",
        "dissipative",
        "drift-check",
        "rank-probe",
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument(
            "--seeds",
            default=None,
            help="override run.seeds: 'a..b' inclusive or comma list",
        )
        p.add_argument(
            "--check",
            action="store_true",
            help="exit 4 when an acceptance threshold fails",
        )
        if name == "simulate":
            p.add_argument("--workers", type=int, default=1)
        if name == "rank-probe":
            p.add_argument("--legs", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = json.loads(Path(args.config).read_text())
        if args.seeds is not None:
            raw.setdefault("run", {})["seeds"] = list(_parse_seed_range(args.seeds))
        cfg = load_config(raw)
        out_dir = Path(args.out) if args.out else None
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "simulate":
            result = run_simulate(cfg, out_dir, workers=args.workers)
        elif args.command == "covariance":
            result = run_covariance(cfg, out_dir)
        elif args.command == "stationarity":
            result = run_stationarity(cfg, out_dir)
        elif args.command == "dissipative":
            result = run_dissipative(cfg, out_dir)
        elif args.command == "drift-check":
            result = run_drift_check(cfg, out_dir)
        else:
            result = run_rank_probe(cfg, out_dir, legs=args.legs)
    except (ConfigError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(
            json.dumps({"error": "config", "message": str(exc)}),
            file=sys.stderr,
        )
        return EXIT_CONFIG
    except NumericalAbort as exc:
        print(
            json.dumps({"error": "numerical", "message": str(exc)}),
            file=sys.stderr,
        )
        return EXIT_NUMERIC
    if args.check and not result.get("checks", {}).get("passed", False):
        return EXIT_CHECK
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
