"""Per-layer tracing from outside the program.

``Tracer`` wraps, for the duration of a ``with`` block:

* every function imported into ``oscbath.cli`` from another oscbath module,
  plus the CLI's own per-seed reducer and JSON writer (spans named
  ``<module>.<function>``);
* the class-level ``sample`` of every law in ``oscbath.laws`` and ``jump`` of
  every model in ``oscbath.collisions`` (counted, and timed in aggregate);
* ``numpy.linalg.eigvalsh`` (counted).

Counters are kept per CLI subcommand (``Tracer.subcommand``, set by the
caller). On exit every attribute is put back to the object it held before;
nothing under ``src/`` is edited. A span's self time is its duration minus
the time covered by the spans it encloses.

``MemoryProbe`` wraps the ``oscbath.pdmp`` simulation functions the CLI
calls and records the tracemalloc peak inside each call. It runs in a pass of
its own, because tracemalloc slows every allocation and would distort the
timings. The CSV writer, also in ``oscbath.pdmp``, is left out: its per-row
formatting runs about ten times slower under tracemalloc.
"""

from __future__ import annotations

import functools
import inspect
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from oscbath import cli, collisions, laws

TAU_LAWS = (laws.Exponential, laws.GammaLaw, laws.UniformPositive)
XI_LAWS = (
    laws.GaussianVelocity,
    laws.UniformSymmetricVelocity,
    laws.TwoPointVelocity,
    laws.IsotropicGaussianVector,
    laws.UniformAngle,
)
MODELS = (collisions.OneDimElastic, collisions.ContractiveAffine, collisions.TwoDimBall)
#: the CLI's own functions that are layer boundaries: per-seed reduction, JSON output
CLI_OWN = ("_seed_stats", "_write_json")
#: span -> the sizes the per-layer metrics need from each returned value
RESULT_SIZES = {
    "oscbath.pdmp.simulate_continuous": lambda t: (t.events, len(t.times), t.dof),
    "oscbath.pdmp.simulate_embedded": lambda c: len(c.jump_times),
    "oscbath.covariance.integrate_covariance": lambda c: float(c.times[-1]),
}
#: functions whose allocation peak ``MemoryProbe`` records
MEMORY_PROBED = ("simulate_continuous", "simulate_embedded", "drift_estimate",
                 "jacobian_rank_probe")
MiB = 1024.0 * 1024.0


def cli_functions() -> dict:
    """Name in ``oscbath.cli`` -> oscbath function the CLI calls by that name."""
    out = {}
    for name, obj in vars(cli).items():
        if not inspect.isfunction(obj):
            continue
        imported = obj.__module__.startswith("oscbath.") and obj.__module__ != "oscbath.cli"
        if imported or name in CLI_OWN:
            out[name] = obj
    return out


class _Patches:
    """Set attributes, then put the previous objects back in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


class Tracer:
    """Spans and counters for one traced pass over a workload's CLI calls."""

    def __init__(self):
        self.span_s = defaultdict(float)  # inclusive seconds per span
        self.self_s = defaultdict(float)  # self seconds per span
        self.calls = defaultdict(int)
        self.sizes = defaultdict(list)  # RESULT_SIZES of each returned value
        self.count = defaultdict(int)  # keys like "jump:drift-check"
        self.subcommand = None
        self._stack = []  # child seconds accumulated by each open span
        self._patches = _Patches()

    def _span(self, name, fn):
        sizes = RESULT_SIZES.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                child = self._stack.pop()
                if self._stack:
                    self._stack[-1] += dur
                self.span_s[name] += dur
                self.self_s[name] += dur - child
                self.calls[name] += 1
            if sizes is not None:
                self.sizes[name].append(sizes(result))
            return result

        return span

    def _counted(self, key, fn, timer=None, draws=False):
        # sample() and jump() call no other traced function, so they need no stack
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                if timer is not None:
                    self.span_s[timer] += time.perf_counter() - t0
                n = 1
                if draws:  # sample(self, rng, size=None): one draw per variate requested
                    size = kwargs.get("size", args[2] if len(args) > 2 else None)
                    n = 1 if size is None else int(np.prod(size))
                self.count[f"{key}:{self.subcommand}"] += n

        return counted

    def __enter__(self):
        try:
            for name, fn in cli_functions().items():
                self._patches.set(cli, name, self._span(f"{fn.__module__}.{fn.__name__}", fn))
            for kind, classes in (("tau", TAU_LAWS), ("xi", XI_LAWS)):
                for cls in classes:
                    self._patches.set(cls, "sample", self._counted(
                        kind, cls.__dict__["sample"], "laws.sample", draws=True))
            for cls in MODELS:
                self._patches.set(cls, "jump", self._counted(
                    "jump", cls.__dict__["jump"], "collisions.jump"))
            self._patches.set(np.linalg, "eigvalsh", self._counted("eigvalsh", np.linalg.eigvalsh))
        except BaseException:
            self._patches.restore()
            raise
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        return False

    def total(self, key: str) -> int:
        """Counter ``key`` summed over subcommands."""
        return sum(v for k, v in self.count.items() if k.split(":", 1)[0] == key)


class MemoryProbe:
    """Largest tracemalloc peak inside any call of a ``MEMORY_PROBED`` function."""

    def __init__(self):
        self.peak_bytes = 0
        self._patches = _Patches()

    def _probe(self, fn):
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return probe

    def __enter__(self):
        try:
            for name in MEMORY_PROBED:
                self._patches.set(cli, name, self._probe(getattr(cli, name)))
        except BaseException:
            self._patches.restore()
            raise
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        return False


def layer_metrics(tracer, traced, untraced_wall, probe, workers_speedup) -> dict:
    """Per-layer metrics of one traced repetition: name -> (value, unit).

    ``traced`` holds the repetition's outcomes, ``untraced_wall`` the median
    wall time of the untraced repetitions.
    """
    span, calls = tracer.span_s, tracer.calls
    cont = tracer.sizes["oscbath.pdmp.simulate_continuous"]
    cont_events = sum(events for events, _, _ in cont)
    simulated = cont_events + sum(tracer.sizes["oscbath.pdmp.simulate_embedded"])
    reported = sum(o.events for o in traced if o.op.command == "simulate")
    samples = sum(n for _, n, _ in cont)
    state_bytes = sum(n * 2 * dof * 8 for _, n, dof in cont)
    kicks = tracer.count["jump:drift-check"]
    continuous_s = span["oscbath.pdmp.simulate_continuous"]
    drift_s = span["oscbath.pdmp.drift_estimate"]
    integrate_s = span["oscbath.covariance.integrate_covariance"]
    model_time = sum(tracer.sizes["oscbath.covariance.integrate_covariance"])
    writers = ("oscbath.pdmp.trajectory_to_csv", "oscbath.covariance.lyapunov_to_csv",
               "oscbath.cli._write_json")

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    return {
        "config.load_s": (span["oscbath.config.load_config"], "s"),
        "laws.tau_draws": (tracer.total("tau"), "count"),
        "laws.xi_draws": (tracer.total("xi"), "count"),
        "laws.draw_s": (span["laws.sample"], "s"),
        "collisions.jump_calls": (tracer.total("jump"), "count"),
        "collisions.jump_s": (span["collisions.jump"], "s"),
        "pdmp.continuous_s": (continuous_s, "s"),
        "pdmp.continuous_calls": (calls["oscbath.pdmp.simulate_continuous"], "count"),
        "pdmp.embedded_s": (span["oscbath.pdmp.simulate_embedded"], "s"),
        "pdmp.embedded_calls": (calls["oscbath.pdmp.simulate_embedded"], "count"),
        "pdmp.us_per_event": (ratio(continuous_s, cont_events, 1e6), "us"),
        "pdmp.event_yield": (ratio(reported, simulated), "ratio"),
        "pdmp.events_max_z": (max((o.events_max_z for o in traced), default=0.0), "sigma"),
        "pdmp.grid_samples": (samples, "count"),
        "pdmp.state_bytes": (state_bytes, "bytes_computed"),
        "pdmp.peak_alloc_mb": (probe.peak_bytes / MiB, "MiB"),
        "pdmp.drift_s": (drift_s, "s"),
        "pdmp.drift_kicks": (kicks, "count"),
        "pdmp.us_per_kick": (ratio(drift_s, kicks, 1e6), "us"),
        "pdmp.rank_probe_s": (span["oscbath.pdmp.jacobian_rank_probe"], "s"),
        "cli.reduce_s": (tracer.self_s["oscbath.cli._seed_stats"], "s"),
        "cli.write_s": (sum(span[w] for w in writers), "s"),
        "cli.bytes_written": (sum(o.bytes for o in traced), "bytes"),
        "cli.workers_speedup": (workers_speedup, "x"),
        "covariance.integrate_s": (integrate_s, "s"),
        "covariance.integrate_calls": (calls["oscbath.covariance.integrate_covariance"], "count"),
        "covariance.model_time": (model_time, "time_units"),
        "covariance.s_per_time_unit": (ratio(integrate_s, model_time), "s/time_unit"),
        "covariance.steps": (tracer.count["eigvalsh:covariance"], "count"),
        "covariance.mean_dynamics_s": (span["oscbath.covariance.mean_dynamics"], "s"),
        "stationarity.residual_s": (span["oscbath.stationarity.stationarity_residual"], "s"),
        "stationarity.moment_shift_s": (span["oscbath.stationarity.one_step_moment_shift"], "s"),
        "dissipative.analyze_s": (span["oscbath.dissipative.analyze"], "s"),
        "trace.overhead_s": (sum(o.seconds for o in traced) - untraced_wall, "s"),
    }
