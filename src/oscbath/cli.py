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
import dataclasses
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
    moment_generator,
    spectral_abscissa,
)
from .dissipative import analyze
from .errors import ConfigError, NumericalAbort
from .laws import Exponential, GaussianVelocity
from .network import PhaseState, energies, energy
from .pdmp import (
    CSV_FIELD_BYTES,
    CSV_MAX_BYTES,
    RANK_MAX_DOF,
    RANK_MAX_LEGS,
    RNG_PROTOCOL,
    GridWindows,
    Moments,
    drift_estimate,
    event_blocks,
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

#: covariance convergence search: grid spacing, gap max|C - C_G| / max|C_G| to
#: reach, horizon in decay times of the slowest mode, longest search in samples
#: (2e4 time units); the grid samples of lyapunov.csv, t = 0, 0.1, ..., 50, and
#: the largest increase of F between them, relative to F(0), that counts as monotone
CONVERGENCE_DT = 0.02
CONVERGENCE_GAP = 1e-6
HORIZON_FACTOR = 2.0
MAX_SEARCH_SAMPLES = 1_000_000
LYAPUNOV_SAMPLES = slice(0, 2501, 5)
LYAPUNOV_SLACK = 1e-10

#: drift-check's energy levels, geometric from 1e3 to 1e4
DRIFT_PROBES = 20


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


def _moment_params(cfg: ExperimentConfig) -> tuple:
    """The moment ODEs' ``MomentParams`` and their inverse temperature beta, refused unless finite."""
    if not isinstance(cfg.model, OneDimElastic):
        raise ConfigError("moment analysis requires the one_dim_elastic model")
    if not isinstance(cfg.tau_law, Exponential):
        raise ConfigError("moment analysis requires exponential waiting times")
    params = MomentParams(
        lam=cfg.tau_law.rate,
        alpha=cfg.model.alpha(cfg.network.mass),
        sigma2=cfg.model.velocity_law.sigma2,
        mass=cfg.network.mass,
    )
    beta = beta_from_params(params)
    if not math.isfinite(beta):  # sigma2 is positive, but (1+alpha)/(M(1-alpha) sigma2) overflows
        raise ConfigError(f"invalid model.velocity_law: its variance {params.sigma2!r} gives "
                          "beta = (1+alpha)/(M (1-alpha) sigma2) beyond the largest float")
    return params, beta


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


def _seed_stats(cfg: ExperimentConfig, moments: Moments, blocks, csv=None) -> Moments:
    """``moments`` with one seed's grid ``blocks`` (``GridWindows``) folded in from burn-in on.

    The rows are summed in mode coordinates, one block at a time, in grid
    order; the blocks also go to ``csv``, if open.
    """
    for times, modes, states in blocks:
        if csv is not None:
            trajectory_to_csv(csv, times, states)
        with np.errstate(over="ignore", invalid="ignore"):  # a finite state's squares may overflow
            moments += Moments.of(modes[np.searchsorted(times, cfg.burn_in):])  # t >= burn_in
        del modes, states  # not held while the next block is computed
    return moments


def _chain_entries(cfg: ExperimentConfig, chains, chain_ends) -> list:
    """Each seed's (chain_mean_energy, chain_final_time) from its first n_steps + 1 post-jump mode rows.

    The energies of rows n_steps // 10 to n_steps are averaged; ``chain_ends``
    are the times of jump n_steps.
    """
    dof = cfg.network.dof
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow aborts in _seed_entry
        return [(float(energies(cfg.network, rows[:, :dof], rows[:, dof:]).mean()), float(end))
                for rows, end in zip(chains[:, cfg.n_steps // 10 :], chain_ends)]


def _seed_entry(cfg: ExperimentConfig, seed: int, events: int, moments: Moments, chain) -> tuple:
    """One seed's summary entry and the physical ``Moments`` of its grid sums in mode coordinates.

    ``chain`` is the seed's ``_chain_entries`` pair. Sums or entries that
    overflow abort.
    """
    net = cfg.network
    with np.errstate(over="ignore", invalid="ignore"):
        moments = moments.from_modes(net)
        entry = {
            "seed": seed,
            "events": events,
            "n_samples": moments.n,
            "mean_energy": moments.mean_energy(net),
            "mean_p1": float(moments.mean[net.dof]),
            "chain_steps": cfg.n_steps,
            "chain_mean_energy": chain[0],
            "chain_final_time": chain[1],
        }
    if not (np.isfinite(moments.sum_xx).all() and np.isfinite(list(entry.values())).all()):
        raise NumericalAbort(f"grid moments of seed {seed} overflow")
    return entry, moments


def _fold_events(cfg: ExperimentConfig, csv=None) -> list:
    """Each seed's summary entry and ``Moments``, read off ``event_blocks`` as its blocks arrive.

    A seed's jumps in [0, t_end] go to its ``GridWindows``, whose blocks are
    folded as soon as they are fixed; its first n_steps + 1 post-jump rows
    are kept until every seed has them, for its chain entries. The first
    listed seed's whole grid also goes to ``csv``, if open; the other grids
    start at burn-in.
    """
    net, n, n_steps = cfg.network, len(cfg.seeds), cfg.n_steps
    size, first = grid_size(cfg.t_end, cfg.sample_dt), grid_index(cfg.burn_in, cfg.sample_dt)
    start = np.concatenate(net.to_modes(cfg.psi0.vector))
    grids = [GridWindows(net, start, cfg.sample_dt, size, first) for _ in range(n)]
    if csv is not None:  # the first listed seed's whole grid, in physical coordinates too
        grids[0] = GridWindows(net, start, cfg.sample_dt, size, physical=True)
    chains = np.empty((n, n_steps + 1, 2 * net.dof))
    chains[:, 0] = start
    moments, events, done = [Moments()] * n, [0] * n, 0
    for times, modes, _, new_events in event_blocks(net, cfg.model, cfg.tau_law, cfg.psi0,
                                                    cfg.t_end, n_steps, cfg.seeds):
        head = min(times.shape[1], n_steps - done)  # every seed has its first n_steps events
        if head > 0:
            chains[:, done + 1 : done + head + 1] = modes[:, :head]
            if done + head == n_steps:  # the rows are complete: their entries, and they go
                chain_entries = _chain_entries(cfg, chains, times[:, head - 1])
                del chains
        for s in np.flatnonzero(new_events):
            k = new_events[s]
            events[s] += int(k)
            moments[s] = _seed_stats(cfg, moments[s], grids[s].add(times[s, :k], modes[s, :k]),
                                     csv if s == 0 else None)
        done += times.shape[1]
        del times, modes  # not held while the next block is drawn
    for s in range(n):
        moments[s] = _seed_stats(cfg, moments[s], grids[s].close(), csv if s == 0 else None)
    return [_seed_entry(cfg, seed, events[s], moments[s], chain_entries[s])
            for s, seed in enumerate(cfg.seeds)]


def run_simulate(cfg: ExperimentConfig, out_dir: Path | None, workers: int = 1) -> dict:
    # --workers is still accepted, and has no effect: every seed steps in one event loop
    if workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {workers}")
    # the Gibbs comparison's beta, refused before any event is drawn; None: no comparison
    gibbs = isinstance(cfg.model, OneDimElastic) and isinstance(cfg.tau_law, Exponential)
    beta = _moment_params(cfg)[1] if gibbs else None
    # trajectory.csv, the first seed's grid, refused here: the loader cannot tell if it is written
    rows, cols = grid_size(cfg.t_end, cfg.sample_dt), 1 + 2 * cfg.network.dof
    if out_dir is not None and rows * cols * CSV_FIELD_BYTES > CSV_MAX_BYTES:
        raise ConfigError(f"run.sample_dt = {cfg.sample_dt!r} gives trajectory.csv {rows} rows of "
                          f"{cols} values, up to {rows * cols * CSV_FIELD_BYTES} bytes at "
                          f"{CSV_FIELD_BYTES} per value, more than {CSV_MAX_BYTES}")
    csv_path = None if out_dir is None else out_dir / "trajectory.csv"
    try:
        if csv_path is None:
            stats = _fold_events(cfg)
        else:  # trajectory.csv holds the first listed seed's grid, written as it is reduced
            out_dir.mkdir(parents=True, exist_ok=True)
            with open(csv_path, "w") as csv:
                stats = _fold_events(cfg, csv)
        per_seed, seed_moments = zip(*sorted(stats, key=lambda s: s[0]["seed"]))
        with np.errstate(over="ignore", invalid="ignore"):
            pooled = sum(seed_moments, Moments())  # a left fold in seed order, which fixes the bits
        if not np.isfinite(pooled.sum_xx).all():
            raise NumericalAbort("the seeds' pooled grid moments overflow")
    except NumericalAbort:  # an aborted run leaves no output
        if csv_path is not None:
            csv_path.unlink(missing_ok=True)
        raise

    covariance, comparison, checks = pooled.covariance, None, {}
    if beta is not None:
        target = gibbs_covariance(cfg.network, beta)
        diff = covariance - target
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
        "pooled": {"n_samples": pooled.n, "mean": pooled.mean, "covariance": covariance},
        "comparison": comparison,
    }
    return _report(cfg, "simulate", fields, checks, out_dir, "summary.json")


# ---------------------------------------------------------------------------
# covariance
# ---------------------------------------------------------------------------


def run_covariance(cfg: ExperimentConfig, out_dir: Path | None) -> dict:
    params, beta = _moment_params(cfg)
    net = cfg.network
    dof = net.dof
    if dof > MAX_DOF:
        raise ConfigError(f"covariance supports dof <= {MAX_DOF}; this network has dof {dof}")
    source_scale = params.lam * params.mass**2 * params.sigma2
    target = gibbs_covariance(net, beta)
    residual = float(np.abs(covariance_rhs(target, net, params)).max())

    # one march of H(t) = e^{tL} C_G, with C(t) = C_G - H(t) the forced solution from
    # C = 0: the first grid time with max|H| <= CONVERGENCE_GAP max|C_G|, searched up to
    # HORIZON_FACTOR times the decay time of e^{abscissa t}, and the Lyapunov series
    # F(H(t)) on LYAPUNOV_SAMPLES. From C_G scaled by 2^-e the march is sigma2-free
    gen = moment_generator(net, params)  # L, built once for the abscissa and the march
    abscissa = spectral_abscissa(gen)
    horizon, t_end = None, 0.0  # t_end 0: no search, only the Lyapunov samples
    if abscissa < 0:
        samples = max(1, math.ceil(HORIZON_FACTOR * math.log(1 / CONVERGENCE_GAP)
                                   / -abscissa / CONVERGENCE_DT))
        horizon = samples * CONVERGENCE_DT
        if samples <= MAX_SEARCH_SAMPLES:
            t_end = horizon
    e = _exponent(target)
    march = integrate_covariance(np.ldexp(target, -e), gen, t_end=t_end,
                                 sample_dt=CONVERGENCE_DT, tol=CONVERGENCE_GAP,
                                 keep=LYAPUNOV_SAMPLES)
    final_gap = float(march.gaps[-1])  # the search ends at its first hit
    convergence_time = (float(march.times[march.gaps.size - 1])
                        if final_gap <= CONVERGENCE_GAP else None)
    np.ldexp(march.matrices, e, out=march.matrices)  # the kept H(t) in the units of C_G
    f_series = lyapunov_functional(march.matrices, net)
    f_slack = float(np.diff(f_series).max(initial=-np.inf))
    # relative to F(0) = F(C_G), so that the verdict, like the march, does not depend on sigma2
    monotone = bool(f_slack <= LYAPUNOV_SLACK * f_series[0])

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
        "min_psd_margin": march.min_psd_margin,
        "lyapunov_monotone": monotone,
        "lyapunov_max_increase": f_slack,
        "lyapunov_initial": float(f_series[0]),
        "lyapunov_final": float(f_series[-1]),
        "mean_energy_norm_decay_t200": float(mean_decay),
    }
    fixed_point = bool(residual <= max(1e-12 * source_scale, 1e-300))
    checks = {
        "fixed_point": fixed_point,
        # C_G - H(t) is the forced solution only when C_G is its fixed point
        "converged": fixed_point and convergence_time is not None,
        "lyapunov_monotone": monotone,
    }
    summary = _report(cfg, "covariance", fields, checks, out_dir, "summary.json")
    if out_dir is not None:
        lyapunov_to_csv(march, f_series, net, out_dir / "lyapunov.csv")
    return summary


# ---------------------------------------------------------------------------
# stationarity
# ---------------------------------------------------------------------------


def run_stationarity(cfg: ExperimentConfig, out_dir: Path | None) -> dict:
    params, beta = _moment_params(cfg)
    if params.alpha == 0:
        raise ConfigError("stationarity needs model.external_mass below network.mass: "
                          "its identity inverts the kick through gamma = 1/alpha")
    law = cfg.model.velocity_law
    grid = np.linspace(-5.0, 5.0, 101)
    residual = stationarity_residual(
        beta, params.alpha, params.mass, law, grid
    )
    residual_doubled = stationarity_residual(
        2.0 * beta, params.alpha, params.mass, law, grid
    )
    shift = one_step_moment_shift(beta, params.mass, cfg.model, n=200_000, seed=cfg.seeds[0])
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
    dis = analyze(cfg.network, cfg.network.contact_sites)
    checks = {
        "projection_sum_matches_rank": sum(dis.spectral_projection_dims)
        == dis.krylov_rank,
        "neutral_dim_identity": dis.dim_neutral == 2 * (dis.order - dis.krylov_rank),
        "l0_invariance": dis.l0_invariance,
        "multiplicity_bound": dis.multiplicity_bound,
    }
    return _report(cfg, "dissipative", dataclasses.asdict(dis), checks, out_dir)


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


def run_drift_check(cfg: ExperimentConfig, out_dir: Path | None, n_mc: int = 10_000) -> dict:
    rng = np.random.default_rng(cfg.seeds[0])
    levels = np.exp(np.linspace(math.log(1e3), math.log(1e4), DRIFT_PROBES))
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
