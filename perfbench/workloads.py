"""Benchmark workloads: configs generated from a workload seed, the CLI calls
that run them, and the checks on their outputs.

The physics of each workload is fixed; the workload seed chooses only the
simulation seeds, so every seed costs the same work.

* ``chain3-events``: ``configs/chain3.json`` physics, 16 seeds, T = 5000.
  Python overhead per collision event dominates; the covariance layer does
  no work.
* ``ball-lattice-grid``: ``two_dim_ball`` on ``kron(chain(6), I_2)``
  (dof 12), gamma(shape 2) waits with mean 2, ``sample_dt`` 0.1 (20 grid
  samples per event), 2 seeds, T = 1e4. Grid evaluation, reduction, a 50 MB
  CSV and memory dominate; it also runs the d = 2 jump map and a
  non-exponential waiting-time law.
* ``analysis``: ``covariance``, ``stationarity``, ``dissipative`` and
  ``rank-probe`` on a chain with N = 6, ``drift-check`` on the
  ``configs/oscillator1.json`` shape. No event loop. The chain-6
  ``covariance`` call fails its ``converged`` check (hard-coded 600-unit
  horizon); that is a known defect of the program and counts as a failed
  operation.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from oscbath import cli
from oscbath.config import load_config
from oscbath.covariance import gibbs_covariance
from oscbath.network import chain_stiffness

NAMES = ("chain3-events", "ball-lattice-grid", "analysis")

#: largest plausible |events - T/E[tau]| / sqrt(T/E[tau]) for one seed. The
#: Poisson scale is exact for exponential waits and conservative for gamma
#: ones; 6 sigma leaves room for every seed of every run while a dropped or
#: doubled event stream lands hundreds of sigma away.
EVENTS_MAX_Z = 6.0

# Gibbs check on ball-lattice-grid (two seeds pooled, T = 1e4, burn-in 1e3).
# Measured over 16 single seeds at this size: the temperature ratio
# mean_i(C_ii / target_ii) has a standard deviation of 0.034 per seed, so
# 0.024 for a two-seed pool; single diagonal entries have at most 0.080 per
# seed, so 0.056 pooled. Both tolerances are five of those deviations. A
# wrong temperature (for instance beta = 1/(M sigma^2) instead of
# 1/(m sigma^2), a factor 2 here) is far outside them.
BALL_TEMPERATURE_TOL = 0.12
BALL_ENTRY_TOL = 0.30


def _chain3(seeds, t_end):
    return {
        "network": {"n_particles": 3, "dim": 1, "mass": 1.0,
                    "stiffness": {"kind": "chain", "coupling": 1.0, "pinning": 0.5}},
        "model": {"kind": "one_dim_elastic", "external_mass": 0.5,
                  "velocity_law": {"kind": "gaussian", "sigma2": 1.0}},
        "schedule": {"tau": {"kind": "exponential", "rate": 1.0}},
        "run": {"t_end": t_end, "sample_dt": 0.25, "seeds": seeds},
        "contact_sites": [0],
    }


def _ball(seeds):
    stiffness = np.kron(chain_stiffness(6), np.eye(2))
    return {
        "network": {"n_particles": 6, "dim": 2, "mass": 1.0,
                    "stiffness": {"kind": "explicit", "matrix": stiffness.tolist()}},
        "model": {"kind": "two_dim_ball", "external_mass": 0.5, "velocity_sigma2": 1.0},
        "schedule": {"tau": {"kind": "gamma", "shape": 2.0, "rate": 1.0}},
        "run": {"t_end": 1.0e4, "sample_dt": 0.1, "seeds": seeds},
        "contact_sites": [0, 1],
    }


def _oscillator1(seeds):
    return {
        "network": {"n_particles": 1, "dim": 1, "mass": 1.0,
                    "stiffness": {"kind": "explicit", "matrix": [[1.0]]}},
        "model": {"kind": "one_dim_elastic", "external_mass": 0.5,
                  "velocity_law": {"kind": "gaussian", "sigma2": 1.0}},
        "schedule": {"tau": {"kind": "exponential", "rate": 1.0}},
        "run": {"t_end": 2000.0, "sample_dt": 0.25, "burn_in": 200.0, "seeds": seeds},
        "contact_sites": [0],
    }


def configs(workload: str, seed: int) -> dict:
    """Config name -> raw config for one workload seed (disjoint seed blocks)."""
    if workload == "chain3-events":
        return {"chain3": _chain3(list(range(16 * seed, 16 * seed + 16)), 5000.0)}
    if workload == "ball-lattice-grid":
        return {"ball": _ball([2 * seed, 2 * seed + 1])}
    if workload == "analysis":
        chain6 = _chain3([seed], 2000.0)
        chain6["network"]["n_particles"] = 6
        return {"chain6": chain6, "oscillator1": _oscillator1([seed])}
    raise ValueError(f"unknown workload {workload!r}")


@dataclass(frozen=True)
class Op:
    """One CLI call: ``oscbath <command> --config <config> --out <dir> --check``."""

    command: str
    config: str
    extra: tuple = ()

    @property
    def name(self) -> str:
        return self.command + "".join(self.extra).replace("--", "-")


def ops(workload: str) -> list:
    if workload == "chain3-events":
        return [Op("simulate", "chain3")]
    if workload == "ball-lattice-grid":
        return [Op("simulate", "ball")]
    return [Op("covariance", "chain6"), Op("stationarity", "chain6"),
            Op("dissipative", "chain6"), Op("rank-probe", "chain6"),
            Op("drift-check", "oscillator1")]


@dataclass
class Outcome:
    """What one CLI call did, as the benchmark sees it.

    ``verdict`` is the program's own: exit code 0 and ``checks.passed``.
    ``sound`` is the benchmark's: outputs present and parseable, and the
    independent checks below hold. The call fails when either is false.
    """

    op: Op
    seconds: float
    exit_code: object
    verdict: bool = False
    sound: bool = False
    events: int = 0
    events_max_z: float = 0.0
    digest: str = ""
    bytes: int = 0
    result: dict = field(default_factory=dict, repr=False)
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return not (self.verdict and self.sound)


def digest(out_dir: Path) -> tuple:
    """(sha256 over every output file name and content, total bytes)."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            h.update(path.name.encode() + b"\0")
            with path.open("rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
                    total += len(block)
    return h.hexdigest(), total


def _csv_data_rows(path: Path) -> int:
    lines = 0
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            lines += block.count(b"\n")
    return lines - 1  # header


def _mean_tau(raw: dict) -> float:
    tau = raw["schedule"]["tau"]
    if tau["kind"] == "exponential":
        return 1.0 / tau["rate"]
    if tau["kind"] == "gamma":
        return tau["shape"] / tau["rate"]
    raise ValueError(f"no mean for waiting-time law {tau['kind']!r}")


def drift_kicks_per_probe() -> int:
    """Monte Carlo kicks per drift-check probe (the CLI's ``n_mc`` default)."""
    return inspect.signature(cli.run_drift_check).parameters["n_mc"].default


class Checker:
    """Judges each CLI call of one workload; targets are computed once."""

    def __init__(self, raw_configs: dict):
        self.raw = raw_configs
        ball = raw_configs.get("ball")
        if ball is not None:
            model = ball["model"]
            beta = 1.0 / (model["external_mass"] * model["velocity_sigma2"])
            self.ball_target = np.diag(gibbs_covariance(load_config(ball).network, beta))

    def judge(self, outcome: Outcome, out_dir: Path) -> Outcome:
        name = "summary.json" if outcome.op.command in ("simulate", "covariance") else "report.json"
        try:
            result = json.loads((out_dir / name).read_text())
        except (OSError, ValueError) as exc:
            outcome.problems.append(f"{name}: {exc}")
            return outcome
        outcome.result = result
        outcome.verdict = outcome.exit_code == 0 and result.get("checks", {}).get("passed") is True
        outcome.digest, outcome.bytes = digest(out_dir)
        problems = outcome.problems
        if outcome.exit_code not in (0, 4):
            problems.append(f"exit code {outcome.exit_code}")
        raw = self.raw[outcome.op.config]
        try:
            if outcome.op.command == "simulate":
                problems += self._simulate(outcome, result, raw, out_dir)
            elif outcome.op.command == "covariance" and not (out_dir / "lyapunov.csv").is_file():
                problems.append("lyapunov.csv missing")
            elif outcome.op.command == "drift-check":
                outcome.events = len(result["probes"]) * drift_kicks_per_probe()
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"{name} lacks a field the checks read: {exc!r}")
        outcome.sound = not problems
        return outcome

    def _simulate(self, outcome, result, raw, out_dir) -> list:
        problems = []
        run = raw["run"]
        t_end, dt = run["t_end"], run["sample_dt"]
        rows_expected = math.floor(t_end / dt + 1e-12) + 1
        csv = out_dir / "trajectory.csv"
        rows = _csv_data_rows(csv) if csv.is_file() else -1
        if rows != rows_expected:
            problems.append(f"trajectory.csv has {rows} rows, expected {rows_expected}")
        events = [s["events"] for s in result["per_seed"]]
        if sorted(s["seed"] for s in result["per_seed"]) != sorted(run["seeds"]):
            problems.append("per_seed does not list the configured seeds")
        mean_events = t_end / _mean_tau(raw)
        outcome.events = int(sum(events))
        outcome.events_max_z = max(abs(e - mean_events) / math.sqrt(mean_events) for e in events)
        if outcome.events_max_z > EVENTS_MAX_Z:
            problems.append(f"event count z-score {outcome.events_max_z:.2f} > {EVENTS_MAX_Z}")
        if raw["model"]["kind"] == "two_dim_ball":
            ratio = np.diag(np.asarray(result["pooled"]["covariance"])) / self.ball_target
            temperature = float(ratio.mean())
            if abs(temperature - 1.0) > BALL_TEMPERATURE_TOL:
                problems.append(f"temperature ratio {temperature:.4f} off by more than "
                                f"{BALL_TEMPERATURE_TOL}")
            worst = float(np.abs(ratio - 1.0).max())
            if worst > BALL_ENTRY_TOL:
                problems.append(f"diagonal entry off by {worst:.4f} > {BALL_ENTRY_TOL}")
        return problems


def run_rep(ops, paths: dict, out_root: Path, checker: Checker, tracer=None) -> list:
    """Run each op once through ``cli.main``; return the judged outcomes."""
    outcomes = []
    for op in ops:
        out_dir = out_root / op.name
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = [op.command, "--config", str(paths[op.config]), "--out", str(out_dir),
                "--check", *op.extra]
        if tracer is not None:
            tracer.subcommand = op.command
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a traceback breaks the exit-code contract
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        outcomes.append(checker.judge(Outcome(op, seconds, code), out_dir))
    return outcomes
