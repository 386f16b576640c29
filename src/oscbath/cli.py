"""Command-line entry point: experiment orchestration and result emission.

``COMMANDS`` maps each subcommand to its runner and extra flags. Each runner
takes a loaded JSON config (see :mod:`oscbath.config`) and returns through
``_report``: the config, its hash and the seed list, the runner's fields,
and its checks with ``passed`` the conjunction of those not ``None``, written
to ``summary.json`` or ``report.json`` (plus CSV series where applicable) in
``--out``. Exit 0 on success, 2 on invalid configuration or arguments, 3 on
numerical abort, and 4 when ``--check`` is passed and an acceptance threshold
fails; 2 and 3 print one JSON error line on stderr.
Outputs contain no timestamps, so identical configs produce
bitwise-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .collisions import OneDimElastic, TwoDimBall
from .config import MAX_SEEDS, ExperimentConfig, load_config
from .covariance import (
    MAX_DOF,
    MomentParams,
    beta_from_params,
    covariance_rhs,
    energy_norm,
    gibbs_covariance,
    integrate_covariance,
    lyapunov_functional,
    lyapunov_to_csv,
    mean_dynamics,
    spectral_abscissa,
)
from .dissipative import analyze, l0_invariance_check, multiplicity_bound_check
from .errors import ConfigError, NumericalAbort
from .laws import Exponential, GaussianVelocity
from .network import PhaseState, energies, energy
from .pdmp import (
    RANK_MAX_DOF,
    RANK_MAX_LEGS,
    RNG_PROTOCOL,
    EventPass,
    Moments,
    drift_estimate,
    event_passes,
    grid_index,
    grid_size,
    jacobian_rank_probe,
    # unused here; perfbench/tracing.py probes both by these names
    simulate_continuous,  # noqa: F401
    simulate_embedded,  # noqa: F401
    trajectory_to_csv,
)
from .stationarity import one_step_moment_shift, stationarity_residual

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CHECK = 4

#: covariance convergence search: grid spacing, gap to reach, horizon in
#: decay times of the slowest mode (chains of 1 to 12 particles converge at
#: 0.86 to 1.02 of one), longest search in samples (2e4 time units)
CONVERGENCE_DT = 0.02
CONVERGENCE_GAP = 1e-6
HORIZON_FACTOR = 2.0
MAX_SEARCH_SAMPLES = 1_000_000


def _json_default(obj):
    """numpy arrays and scalars as plain JSON values."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n")


def _exponent(x: np.ndarray) -> int:
    """e with max |x| < 2^e: np.ldexp(x, -e) is x scaled exactly into (-1, 1) (bar subnormals)."""
    return int(np.frexp(np.abs(x).max())[1])


def _moment_params(cfg: ExperimentConfig) -> MomentParams:
    if not isinstance(cfg.model, OneDimElastic):
        raise ConfigError("moment analysis requires the one_dim_elastic model")
    if not isinstance(cfg.tau_law, Exponential):
        raise ConfigError("moment analysis requires exponential waiting times")
    return MomentParams(
        lam=cfg.tau_law.rate,
        alpha=cfg.model.alpha(cfg.network.mass),
        sigma2=cfg.model.velocity_law.sigma2,
        mass=cfg.network.mass,
    )


def _report(cfg: ExperimentConfig, command: str, fields: dict, checks: dict,
            out_dir: Path | None, name: str = "report.json") -> dict:
    """Provenance, ``fields`` and ``checks`` plus ``passed``; written to ``out_dir / name``.

    A check that cannot be evaluated is ``None`` and stays out of ``passed``.
    """
    report = {
        "command": command,
        "version": __version__,
        "config": cfg.raw,
        "config_hash": cfg.config_hash,
        "seeds": list(cfg.seeds),
        **fields,
        "checks": {**checks, "passed": all(v for v in checks.values() if v is not None)},
    }
    if out_dir is not None:
        _write_json(out_dir / name, report)  # creates out_dir
    return report


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _seed_stats(cfg: ExperimentConfig, run: EventPass, csv=None) -> tuple:
    """One seed's summary entry and ``Moments`` of its grid from burn-in on.

    The rows are summed in mode coordinates and the sums mapped to physical ones
    once; the embedded chain's energies are taken from its mode rows. The whole
    grid also goes to ``csv``, if open; without it the rows before burn-in are
    not computed. Sums or entries that overflow abort.
    """
    net = cfg.network
    first = 0 if csv is not None else grid_index(cfg.burn_in, cfg.sample_dt)
    moments = Moments()
    for times, modes, states in run.trajectory(cfg.sample_dt, grid_size(cfg.t_end, cfg.sample_dt),
                                               first, physical=csv is not None):
        if csv is not None:
            trajectory_to_csv(csv, times, states)
        with np.errstate(over="ignore", invalid="ignore"):  # a finite state's squares may overflow
            moments += Moments.of(modes[np.searchsorted(times, cfg.burn_in):])  # t >= burn_in
        del modes, states  # not held while the next block is computed
    with np.errstate(over="ignore", invalid="ignore"):
        moments = moments.from_modes(net)
        chain = run.modes[cfg.n_steps // 10 : cfg.n_steps + 1]  # post-jump mode rows
        qh, ph = chain[:, : net.dof], chain[:, net.dof :]
        entry = {
            "seed": run.seed,
            "events": run.events,
            "n_samples": moments.n,
            "mean_energy": moments.mean_energy(net),
            "mean_p1": float(moments.mean[net.dof]),
            "chain_steps": cfg.n_steps,
            "chain_mean_energy": float(energies(net, qh, ph).mean()),
            "chain_final_time": float(run.times[cfg.n_steps]),
        }
    if not (np.isfinite(moments.sum_xx).all() and np.isfinite(list(entry.values())).all()):
        raise NumericalAbort(f"grid moments of seed {run.seed} overflow")
    return entry, moments


def run_simulate(cfg: ExperimentConfig, out_dir: Path | None, workers: int = 1) -> dict:
    # --workers is still accepted, and has no effect: every seed steps in one event loop
    if workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {workers}")
    runs = event_passes(cfg.network, cfg.model, cfg.tau_law, cfg.psi0, cfg.t_end,
                        cfg.n_steps, cfg.seeds)
    csv_path = None if out_dir is None else out_dir / "trajectory.csv"
    try:
        if csv_path is None:
            stats = [_seed_stats(cfg, run) for run in runs]
        else:  # trajectory.csv holds the first listed seed's grid, written as it is reduced
            out_dir.mkdir(parents=True, exist_ok=True)
            with open(csv_path, "w") as csv:
                stats = [_seed_stats(cfg, runs[0], csv)]
            stats += [_seed_stats(cfg, run) for run in runs[1:]]
        per_seed, seed_moments = zip(*sorted(stats, key=lambda s: s[0]["seed"]))
        with np.errstate(over="ignore", invalid="ignore"):
            pooled = sum(seed_moments, Moments())  # a left fold in seed order, which fixes the bits
        if not np.isfinite(pooled.sum_xx).all():
            raise NumericalAbort("the seeds' pooled grid moments overflow")
    except NumericalAbort:  # an aborted run leaves no output
        if csv_path is not None:
            csv_path.unlink(missing_ok=True)
        raise

    comparison = None
    checks = {}
    if isinstance(cfg.model, OneDimElastic) and isinstance(cfg.tau_law, Exponential):
        params = _moment_params(cfg)
        beta = beta_from_params(params)
        target = gibbs_covariance(cfg.network, beta)
        diff = pooled.covariance - target
        diag = np.diag(target)
        max_rel = float(np.abs(np.diag(diff) / diag).max())
        std_err = max_z = None  # one seed has no spread to compare against
        if len(per_seed) > 1:
            seed_covs = np.array([m.covariance for m in seed_moments])
            e = _exponent(seed_covs)  # std's squares stay finite on covariances scaled by 2^-e
            std = np.ldexp(np.ldexp(seed_covs, -e).std(axis=0, ddof=1), e)
            std_err = std / math.sqrt(len(per_seed))
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
        checks = {
            "cov_diag_within_5pct": max_rel <= 0.05,
            "cov_within_5_se": None if max_z is None else max_z <= 5.0,
        }
    fields = {
        "rng_protocol": RNG_PROTOCOL,
        "per_seed": list(per_seed),
        "pooled": {"n_samples": pooled.n, "mean": pooled.mean, "covariance": pooled.covariance},
        "comparison": comparison,
    }
    return _report(cfg, "simulate", fields, checks, out_dir, "summary.json")


# ---------------------------------------------------------------------------
# covariance
# ---------------------------------------------------------------------------


def run_covariance(cfg: ExperimentConfig, out_dir: Path | None) -> dict:
    params = _moment_params(cfg)
    net = cfg.network
    dof = net.dof
    if dof > MAX_DOF:
        raise ConfigError(f"covariance supports dof <= {MAX_DOF}; this network has dof {dof}")
    source_scale = params.lam * params.mass**2 * params.sigma2
    beta = beta_from_params(params)  # every velocity law has sigma2 > 0
    target = gibbs_covariance(net, beta)
    residual = float(np.abs(covariance_rhs(target, net, params)).max())

    # forced equation from C0 = 0: the first grid time with gap <= CONVERGENCE_GAP,
    # searched up to HORIZON_FACTOR times the decay time of e^{abscissa t}
    abscissa = spectral_abscissa(net, params)
    final_gap = float(np.abs(target).max())
    horizon = convergence_time = None
    margins = []
    if abscissa < 0:
        decay_time = math.log(max(final_gap, CONVERGENCE_GAP) / CONVERGENCE_GAP) / -abscissa
        samples = max(1, math.ceil(HORIZON_FACTOR * decay_time / CONVERGENCE_DT))
        horizon = samples * CONVERGENCE_DT
        if samples <= MAX_SEARCH_SAMPLES:
            forced = integrate_covariance(
                np.zeros((2 * dof, 2 * dof)), net, params, t_end=horizon,
                sample_dt=CONVERGENCE_DT, target=target, tol=CONVERGENCE_GAP,
            )
            final_gap = float(forced.gaps[-1])
            if final_gap <= CONVERGENCE_GAP:
                convergence_time = float(forced.times[-1])
            margins.append(forced.min_psd_margin)

    # homogeneous equation from the PSD start C_G: Lyapunov functional series
    hom = integrate_covariance(
        target, net, params, t_end=50.0, include_source=False, sample_dt=0.1
    )
    margins.append(hom.min_psd_margin)
    f_series = lyapunov_functional(hom.matrices, net)
    f_slack = float(np.diff(f_series).max(initial=-np.inf))
    monotone = bool(f_slack <= 1e-10)

    # mean dynamics: energy-norm decay factor over t = 200 (only the end is read)
    psi0 = cfg.psi0
    if not np.any(psi0.vector):
        psi0 = PhaseState(q=np.ones(dof), p=np.zeros(dof))
    # the decay factor is scale-free; at psi0 scaled by 2^-e the energies stay finite
    psi0 = PhaseState.from_vector(np.ldexp(psi0.vector, -_exponent(psi0.vector)))
    mean_traj = mean_dynamics(net, params, psi0, t_end=200.0, sample_dt=200.0)
    mean_decay = energy_norm(net, mean_traj.final) / energy_norm(net, psi0.vector)

    fields = {
        "beta": beta,
        "fixed_point_residual": residual,
        "residual_tolerance": 1e-12 * source_scale,
        "spectral_abscissa": abscissa,
        "horizon": horizon,
        "sample_dt": CONVERGENCE_DT,
        "convergence_time": convergence_time,
        "final_gap": final_gap,
        "min_psd_margin": min(margins),
        "lyapunov_monotone": monotone,
        "lyapunov_max_increase": f_slack,
        "lyapunov_initial": float(f_series[0]),
        "lyapunov_final": float(f_series[-1]),
        "mean_energy_norm_decay_t200": float(mean_decay),
    }
    checks = {
        "fixed_point": bool(residual <= max(1e-12 * source_scale, 1e-300)),
        "converged": convergence_time is not None,
        "lyapunov_monotone": monotone,
    }
    summary = _report(cfg, "covariance", fields, checks, out_dir, "summary.json")
    if out_dir is not None:
        lyapunov_to_csv(hom, f_series, net, out_dir / "lyapunov.csv")
    return summary


# ---------------------------------------------------------------------------
# stationarity
# ---------------------------------------------------------------------------


def run_stationarity(cfg: ExperimentConfig, out_dir: Path | None) -> dict:
    params = _moment_params(cfg)
    if params.alpha == 0:
        raise ConfigError("stationarity needs model.external_mass below network.mass: "
                          "its identity inverts the kick through gamma = 1/alpha")
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

    fields = {
        "beta": beta,
        "law": type(law).__name__,
        "residual": residual,
        "residual_doubled_beta": residual_doubled,
        "m2_shift": shift.m2_shift,
        "m2_shift_se": shift.m2_shift_se,
        "m4_shift": shift.m4_shift,
        "m4_shift_se": shift.m4_shift_se,
    }
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
    return _report(cfg, "stationarity", fields, checks, out_dir)


# ---------------------------------------------------------------------------
# dissipative
# ---------------------------------------------------------------------------


def run_dissipative(cfg: ExperimentConfig, out_dir: Path | None) -> dict:
    dis = analyze(cfg.network.stiffness, cfg.network.contact_sites)
    invariant_ok = l0_invariance_check(cfg.network)
    bound_ok = multiplicity_bound_check(dis)
    fields = {**dis.to_dict(), "l0_invariance": invariant_ok, "multiplicity_bound": bound_ok}
    checks = {
        "projection_sum_matches_rank": sum(dis.spectral_projection_dims)
        == dis.krylov_rank,
        "neutral_dim_identity": dis.dim_neutral == 2 * (dis.order - dis.krylov_rank),
        "l0_invariance": invariant_ok,
        "multiplicity_bound": bound_ok,
    }
    return _report(cfg, "dissipative", fields, checks, out_dir)


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
    levels = np.exp(np.linspace(math.log(1e3), math.log(1e4), n_probes))
    probes = []
    for i, h in enumerate(levels):
        psi = _state_at_energy(cfg, float(h), rng)
        est = drift_estimate(
            cfg.network, cfg.model, cfg.tau_law, psi, n_mc=n_mc, seed=cfg.seeds[0] + i
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
    checks = {
        "all_negative": all(p["mean_change"] < 0 for p in probes),
        "below_minus_5pct": worst <= -0.05,
    }
    fields = {"probes": probes, "worst_relative_change": worst}
    return _report(cfg, "drift-check", fields, checks, out_dir)


# ---------------------------------------------------------------------------
# rank-probe
# ---------------------------------------------------------------------------


def run_rank_probe(cfg: ExperimentConfig, out_dir: Path | None, legs: int | None) -> dict:
    model = cfg.model
    dof = cfg.network.dof
    if not isinstance(model, (OneDimElastic, TwoDimBall)):
        raise ConfigError("rank-probe requires the one_dim_elastic or two_dim_ball model")
    if dof > RANK_MAX_DOF:
        raise ConfigError(f"rank-probe supports dof <= {RANK_MAX_DOF}; this network has dof {dof}")
    if legs is not None and not 0 <= legs <= RANK_MAX_LEGS:  # before the point is allocated
        raise ConfigError(f"--legs must be in 0..{RANK_MAX_LEGS}, got {legs}")
    l = model.xi_dim
    full_dim = 2 * dof
    if legs is None:
        # a kick moves particle 1's d momenta, so a leg reaches at most 1 + d directions
        legs = math.ceil(full_dim / (1 + model.dim)) + 3
    rng = np.random.default_rng(cfg.seeds[0])
    point = np.empty(legs * (1 + l))
    for k in range(legs):
        point[k * (1 + l)] = rng.uniform(0.5, 1.5)
        point[k * (1 + l) + 1 : (k + 1) * (1 + l)] = rng.standard_normal(l)
    psi0 = cfg.psi0
    if not np.any(psi0.vector):
        # a generic base point; the probe differentiates around it
        psi0 = PhaseState(q=np.ones(dof), p=0.5 * np.ones(dof))
    rank, sv_ratio = jacobian_rank_probe(cfg.network, model, psi0, legs, point)
    input_dim = legs * (1 + l)
    fields = {
        "legs": legs,
        "input_dim": input_dim,
        "phase_dim": full_dim,
        "rank": rank,
        "rank_bound": min(input_dim, full_dim),
        "sv_ratio": sv_ratio,
        # the probe's rank threshold relative to sigma_max
        "rank_tolerance": max(input_dim, full_dim) * np.finfo(float).eps,
    }
    return _report(cfg, "rank-probe", fields, {"full_rank": rank == full_dim}, out_dir)


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

#: subcommand -> (runner, {extra integer flag: default})
COMMANDS = {
    "simulate": (run_simulate, {"workers": 1}),
    "covariance": (run_covariance, {}),
    "stationarity": (run_stationarity, {}),
    "dissipative": (run_dissipative, {}),
    "drift-check": (run_drift_check, {}),
    "rank-probe": (run_rank_probe, {"legs": None}),
}


def _parse_seed_range(text: str) -> tuple:
    """``--seeds``: 'a..b' inclusive, refused unbuilt over ``MAX_SEEDS`` seeds, or a comma list."""
    try:
        if ".." in text:
            lo, hi = (int(s) for s in text.split("..", 1))
            if hi - lo + 1 > MAX_SEEDS:
                raise argparse.ArgumentTypeError(
                    f"{text!r} names {hi - lo + 1} seeds; no config loads more than {MAX_SEEDS}")
            return tuple(range(lo, hi + 1))
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r}: expected 'a..b' (inclusive) or a comma list of integers"
        ) from None


class _Parser(argparse.ArgumentParser):
    """An argument error is a ConfigError, which ``main`` reports as JSON; subparsers inherit this."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="oscbath",
        description="Collisional thermostat dynamics for oscillator networks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument(
            "--seeds",
            type=_parse_seed_range,
            default=None,
            help="override run.seeds: 'a..b' inclusive or comma list",
        )
        p.add_argument(
            "--check",
            action="store_true",
            help="exit 4 when an acceptance threshold fails",
        )
        for flag, default in flags.items():
            p.add_argument(f"--{flag}", type=int, default=default)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)  # --help and --version still exit 0 here
        out_dir = Path(args.out) if args.out else None
        try:  # an unreadable config or an --out that cannot be a directory
            raw = json.loads(Path(args.config).read_text())
            if out_dir is not None:
                out_dir.mkdir(parents=True, exist_ok=True)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(str(exc)) from exc
        if args.seeds is not None:
            if isinstance(raw, dict) and isinstance(raw.get("run", {}), dict):
                raw.setdefault("run", {})["seeds"] = list(args.seeds)
        runner, flags = COMMANDS[args.command]
        result = runner(load_config(raw), out_dir, **{f: getattr(args, f) for f in flags})
    except (ConfigError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG
    except NumericalAbort as exc:
        print(json.dumps({"error": "numerical", "message": str(exc)}), file=sys.stderr)
        return EXIT_NUMERIC
    if args.check and not result["checks"]["passed"]:
        return EXIT_CHECK
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
