"""Experiment configuration: JSON schema, validation, provenance hashing.

A configuration file is a JSON object with the sections below; every
referenced constraint is re-validated by the owning module's constructor at
load time, so a config that loads is a config that runs.

    {
      "network": {"n_particles": 3, "dim": 1, "mass": 1.0,
                  "stiffness": {"kind": "chain", "coupling": 1.0, "pinning": 0.5}},
      "model": {"kind": "one_dim_elastic", "external_mass": 0.5,
                "velocity_law": {"kind": "gaussian", "sigma2": 1.0}},
      "schedule": {"tau": {"kind": "exponential", "rate": 1.0}},
      "run": {"t_end": 200.0, "sample_dt": 0.25, "n_steps": 1000,
              "burn_in": 20.0, "seeds": [0, 1, 2, 3]}
    }

Stiffness kinds: "chain" (nearest-neighbor + pinning between particles,
kron(chain(N), I_d)), "explicit" (row-major "matrix"), "random" (seeded
G G^T + 1e-6 I draw). Velocity-law kinds: "gaussian" {sigma2}, "uniform"
{half_width}, "two_point" {magnitude}. Tau kinds: "exponential" {rate},
"gamma" {shape, rate}, "uniform" {low, high}: ``schedule.tau`` becomes
``ExperimentConfig.tau_law``, a law of :mod:`oscbath.laws` whose constructor
also requires the finite positive mean that the event loop sizes its draws
by. ``run.n_steps`` is the post-collision chain length summarized per seed.
Neither the seeds, nor the n_steps post-jump states that ``simulate`` keeps of
each, nor the block of events and the grid window's jumps that it holds of
each at once (``pdmp.stream_bytes``) may need more than
``pdmp.RECORD_MAX_BYTES`` of event record, nor the network more than
``pdmp.NETWORK_MAX_DOF`` degrees of freedom. What ``simulate`` holds does
not grow with ``run.t_end`` or ``run.sample_dt``. Two bounds keep a run's
time in bounds: the lockstep steps that ``run.t_end`` and ``run.n_steps``
lead one to expect may cost at most ``pdmp.EVENT_LOOP_MAX_S`` at
``pdmp.STEP_S`` per step and ``pdmp.SEED_STEP_S`` per seed and step, and
the seeds' time grids k*``run.sample_dt`` may have at most
``pdmp.GRID_MAX_ROWS`` rows. The contact sites are the
kicked particle's coordinates 0..d-1; a "contact_sites" entry must equal them.
A key the loader does not read, in any section, is an error naming its path.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import laws
from .collisions import ContractiveAffine, OneDimElastic, TwoDimBall
from .errors import ConfigError
from .network import OscillatorNetwork, PhaseState, chain_stiffness
from .pdmp import (EVENT_LOOP_MAX_S, GRID_MAX_ROWS, NETWORK_MAX_DOF, RECORD_MAX_BYTES, SEED_STEP_S,
                   STEP_S, event_estimate, grid_size, record_bytes, stream_bytes)
from .spectral import random_pd_matrix


_REQUIRED = object()
#: most seeds a config can load: each seed's event record holds at least 16 events
#: (``event_estimate``) of at least 5 doubles (``record_bytes``), within ``RECORD_MAX_BYTES``
MAX_SEEDS = RECORD_MAX_BYTES // (event_estimate(0.0, 1.0) * 5 * 8)


def _field(mapping, key: str, where: str, default=_REQUIRED):
    """``mapping[key]``, or ``default`` when the key is absent and not required."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} section must be a JSON object")
    if key in mapping:
        return mapping[key]
    if default is _REQUIRED:
        raise ConfigError(f"missing '{key}' in {where} section")
    return default


def _only(mapping, where: str, *keys) -> None:
    """Reject a key of ``mapping`` the loader does not read, naming its path."""
    unknown = sorted(set(mapping) - set(keys), key=str) if isinstance(mapping, dict) else []
    if unknown:
        raise ConfigError(f"unknown key '{where + '.' if where else ''}{unknown[0]}'")


def _kind(section, where: str, what: str, **keys) -> str:
    """The section's "kind", one of ``keys``; besides it, only that kind's keys are allowed."""
    kind = _field(section, "kind", where)
    if not isinstance(kind, str) or kind not in keys:
        raise ConfigError(f"unknown {what} kind '{kind}'")
    _only(section, where, "kind", *keys[kind])
    return kind


@contextmanager
def _invalid(what: str):
    """Report a conversion or constructor error as an invalid ``what``."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


def _json_number(value, what: str, kind=float):
    """``kind`` of ``value``, which must be a finite JSON number, integral for int."""
    with _invalid(what):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{value!r} is not a JSON number")
        if not math.isfinite(value) or (kind is int and value != math.floor(value)):
            raise ValueError(f"{value!r} is not {'an integer' if kind is int else 'finite'}")
        return kind(value)


def _number(mapping, key: str, where: str, default=_REQUIRED, kind=float):
    """``kind`` of the field, which must be a finite JSON number, integral for int."""
    return _json_number(_field(mapping, key, where, default), f"'{key}' in {where} section", kind)


def _array(values, what: str) -> np.ndarray:
    """Nested JSON lists of finite numbers as a float array."""
    def numbers(v):
        return [numbers(x) for x in v] if isinstance(v, list) else _json_number(v, what)
    return np.asarray(numbers(values), dtype=float)  # a ragged list fails in the caller's _invalid


def _build_network(section: dict) -> OscillatorNetwork:
    _only(section, "network", "n_particles", "dim", "mass", "stiffness")
    n = _number(section, "n_particles", "network", kind=int)
    d = _number(section, "dim", "network", kind=int)
    if n * d > NETWORK_MAX_DOF:  # before any dof x dof matrix is built
        raise ConfigError(f"network.n_particles = {n} at dim {d} is {n * d} dof, above {NETWORK_MAX_DOF}")
    mass = _number(section, "mass", "network")
    stiff, where = _field(section, "stiffness", "network"), "network.stiffness"
    kind = _kind(stiff, where, "stiffness", chain=("coupling", "pinning"), explicit=("matrix",),
                 random=("seed",))
    with _invalid("network"):
        if kind == "chain":
            matrix = np.kron(chain_stiffness(n, coupling=_number(stiff, "coupling", where, 1.0),
                                             pinning=_number(stiff, "pinning", where, 0.5)),
                             np.eye(d))
        elif kind == "explicit":
            matrix = _array(_field(stiff, "matrix", where), f"{where}.matrix")
        else:
            matrix = random_pd_matrix(n * d, _number(stiff, "seed", where, 0, int))
        return OscillatorNetwork(n_particles=n, dim=d, mass=mass, stiffness=matrix)


def _build_velocity_law(section: dict):
    where = "model.velocity_law"
    kind = _kind(section, where, "velocity law", gaussian=("sigma2",), uniform=("half_width",),
                 two_point=("magnitude",))
    with _invalid(where):  # the law checks its variance is finite and positive
        if kind == "gaussian":
            return laws.GaussianVelocity(sigma2=_number(section, "sigma2", where, 1.0))
        if kind == "uniform":
            return laws.UniformSymmetricVelocity(half_width=_number(section, "half_width", where))
        return laws.TwoPointVelocity(magnitude=_number(section, "magnitude", where))


def _build_model(section: dict):
    kind = _kind(section, "model", "model", one_dim_elastic=("external_mass", "velocity_law"),
                 contractive_affine=("reflection", "noise_sigma2"),
                 two_dim_ball=("external_mass", "velocity_sigma2"))
    if kind == "one_dim_elastic":
        law = _field(section, "velocity_law", "model", {"kind": "gaussian", "sigma2": 1.0})
        return OneDimElastic(
            external_mass=_number(section, "external_mass", "model"),
            velocity_law=_build_velocity_law(law),
        )
    if kind == "contractive_affine":
        reflection = _array(_field(section, "reflection", "model"), "model.reflection")
        return ContractiveAffine(
            reflection=reflection,
            noise_law=laws.IsotropicGaussianVector(
                dim=len(reflection), sigma2=_number(section, "noise_sigma2", "model", 1.0)
            ),
        )
    return TwoDimBall(
        external_mass=_number(section, "external_mass", "model"),
        velocity_law=laws.IsotropicGaussianVector(
            dim=2, sigma2=_number(section, "velocity_sigma2", "model", 1.0)
        ),
    )


def _build_tau_law(section: dict):
    where = "schedule.tau"
    kind = _kind(section, where, "waiting-time law", exponential=("rate",),
                 gamma=("shape", "rate"), uniform=("low", "high"))
    if kind == "exponential":
        return laws.Exponential(rate=_number(section, "rate", where))
    if kind == "gamma":
        return laws.GammaLaw(shape=_number(section, "shape", where),
                             rate=_number(section, "rate", where))
    return laws.UniformPositive(low=_number(section, "low", where),
                                high=_number(section, "high", where))


def _integers(values, what: str) -> tuple:
    if not isinstance(values, (list, tuple)) or not values:
        raise ConfigError(f"{what} must be a non-empty list of integers")
    return tuple(_json_number(v, what, int) for v in values)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description plus its canonical JSON form."""

    network: OscillatorNetwork
    model: object
    tau_law: object
    t_end: float
    sample_dt: float
    n_steps: int
    burn_in: float
    seeds: tuple
    psi0: PhaseState
    raw: dict = field(repr=False)

    @property
    def config_hash(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def load_config(source) -> ExperimentConfig:
    """Parse and validate a configuration from a dict, JSON text, or path."""
    if isinstance(source, dict):
        raw = source
    else:
        text = str(source)
        try:
            is_file = Path(text).is_file()
        except OSError:  # JSON text longer than a file name may be
            is_file = False
        if is_file:
            text = Path(text).read_text()
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _only(raw, "", "network", "model", "schedule", "run", "contact_sites", "psi0")

    net = _build_network(_field(raw, "network", "config"))
    with _invalid("model"):
        model = _build_model(_field(raw, "model", "config"))
    if model.dim != net.dim:
        raise ConfigError(f"{type(model).__name__} acts in dimension {model.dim} "
                          f"but the network has dim {net.dim}")
    if hasattr(model, "alpha"):  # the external mass must not exceed the network mass
        with _invalid("model.external_mass"):
            model.alpha(net.mass)
    schedule_section = _field(raw, "schedule", "config")
    _only(schedule_section, "schedule", "tau")
    with _invalid("waiting-time law"):  # the law checks its mean is finite and positive
        tau_law = _build_tau_law(_field(schedule_section, "tau", "schedule"))

    run = raw.get("run", {})
    _only(run, "run", "t_end", "sample_dt", "n_steps", "burn_in", "seeds")
    omega_max = float(net.mode_frequencies[-1])
    t_end = _number(run, "t_end", "run", 100.0)
    sample_dt = _number(run, "sample_dt", "run", (2.0 * np.pi / omega_max) / 8.0)
    n_steps = _number(run, "n_steps", "run", 1000, int)
    burn_in = _number(run, "burn_in", "run", 0.1 * t_end)
    seeds = _integers(run.get("seeds"), "run.seeds")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("run.seeds must not contain duplicates")
    if min(seeds) < 0:  # numpy seeds its generators with non-negative integers only
        raise ConfigError(f"run.seeds must be non-negative, got {min(seeds)}")
    if not 0 < sample_dt <= t_end:
        raise ConfigError("need 0 < run.sample_dt <= run.t_end")
    if not 0 <= burn_in < t_end:
        raise ConfigError("need 0 <= run.burn_in < run.t_end")
    if n_steps < 1:
        raise ConfigError("run.n_steps must be >= 1")
    least = event_estimate(0.0, tau_law.mean)  # the smallest record a seed needs
    if record_bytes(net, model, least, len(seeds)) > RECORD_MAX_BYTES:
        raise ConfigError(f"run.seeds lists {len(seeds)} seeds, more than {RECORD_MAX_BYTES} bytes "
                          f"of event record at even {least} events per seed")
    if record_bytes(net, model, n_steps, len(seeds)) > RECORD_MAX_BYTES:
        raise ConfigError(f"run.n_steps = {n_steps} needs more than {RECORD_MAX_BYTES} bytes "
                          f"of event record for {len(seeds)} seeds")
    steps = max(t_end / tau_law.mean, n_steps)  # lockstep steps: a seed's expected events or chain
    if steps * (STEP_S + len(seeds) * SEED_STEP_S) > EVENT_LOOP_MAX_S:
        knob = f"run.t_end = {t_end!r}" if steps > n_steps else f"run.n_steps = {n_steps}"
        raise ConfigError(f"{knob} expects {steps:.4g} lockstep steps, more than "
                          f"{EVENT_LOOP_MAX_S:g} s of event loop for {len(seeds)} seeds")
    rows = t_end / sample_dt + 1.0  # grid_size, as a float: a tiny sample_dt overflows its int
    if len(seeds) * rows > GRID_MAX_ROWS:
        raise ConfigError(f"run.sample_dt = {sample_dt!r} gives {rows:.4g} grid rows per seed, "
                          f"more than {GRID_MAX_ROWS} for {len(seeds)} seeds")
    if stream_bytes(net, model, tau_law.mean, t_end, sample_dt, n_steps, len(seeds)) > RECORD_MAX_BYTES:
        raise ConfigError(f"run.seeds lists {len(seeds)} seeds, more than {RECORD_MAX_BYTES} bytes "
                          f"of event blocks and grid windows at run.t_end = {t_end!r} and "
                          f"run.sample_dt = {sample_dt!r}")
    last_sample = (grid_size(t_end, sample_dt) - 1) * sample_dt
    if burn_in > last_sample:  # the moments would average no sample
        raise ConfigError(f"need run.burn_in <= {last_sample!r}, the last grid time "
                          f"k*run.sample_dt in [0, run.t_end]")

    if _integers(raw.get("contact_sites", net.contact_sites), "contact_sites") != net.contact_sites:
        raise ConfigError(f"contact_sites must be {list(net.contact_sites)}, the coordinates "
                          f"of particle 1, which the collisions kick")

    psi0_section = raw.get("psi0")
    if psi0_section is None:
        psi0 = PhaseState.zero(net.dof)
    else:
        _only(psi0_section, "psi0", "q", "p")
        with _invalid("psi0"):
            psi0 = PhaseState(q=_array(_field(psi0_section, "q", "psi0"), "psi0.q"),
                              p=_array(_field(psi0_section, "p", "psi0"), "psi0.p"))
        if psi0.q.shape[0] != net.dof:
            raise ConfigError("psi0 dimension does not match the network")

    return ExperimentConfig(
        network=net,
        model=model,
        tau_law=tau_law,
        t_end=t_end,
        sample_dt=sample_dt,
        n_steps=n_steps,
        burn_in=burn_in,
        seeds=seeds,
        psi0=psi0,
        raw=raw,
    )
