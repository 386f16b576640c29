"""oscbath benchmark: one workload per run, driven through ``oscbath.cli.main``.

    python3 perfbench/run.py --workload chain3-events --seed 0 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``. The
workload seed chooses the configs (see ``workloads.py``), which are written
under ``.perfbench_work/`` and deleted at the end.

``--trace 0``: set-up is timed in fresh interpreters (import ``oscbath.cli``
plus ``load_config`` of the workload's configs, median of several). Then the
workload's CLI calls are repeated, untraced, until ``--seconds`` have passed,
and the end-to-end metrics are the medians over those repetitions.

``--trace 1``: the same untraced repetitions, then one repetition under the
``Tracer`` spans and counters, one under the tracemalloc ``MemoryProbe``,
and on ``chain3-events`` one with ``--workers 2``. Every output file of
every repetition must be byte-identical to the first repetition's, so the
wrappers provably leave the program's results alone. The per-layer metrics
come from the traced repetition.

Every call's exit code and ``checks`` verdict and the benchmark's own checks
feed ``failed`` / ``attempted`` (the fail rate). ``correct`` is false when an
output is missing, malformed, not reproducible, or fails a check of the
benchmark's own. The last line of stdout is the JSON result; the lines
before it list the run context and every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
#: fresh interpreters timed for setup_s; the median is reported
SETUP_SAMPLES = 7
SETUP_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import oscbath.cli\n"
    "for path in sys.argv[1:]:\n"
    "    oscbath.cli.load_config(path)\n"
    "print(time.perf_counter() - t0)\n"
)


def setup_seconds(paths) -> list:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, *map(str, paths)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "oscbath" / "cli.py").is_file():
        print(json.dumps({"error": f"no oscbath sources under {SRC}"}), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import tracing
    import workloads

    if args.workload not in workloads.NAMES:
        print(json.dumps({"error": f"unknown workload {args.workload!r}"}), file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        raw = workloads.configs(args.workload, args.seed)
        paths = {}
        for name, cfg in raw.items():
            paths[name] = work / f"{name}.json"
            paths[name].write_text(json.dumps(cfg, indent=1) + "\n")
        checker = workloads.Checker(raw)
        ops = workloads.ops(args.workload)
        setup = setup_seconds(paths.values())

        out_root = work / "out"
        reps = []
        t_start = time.perf_counter()
        while not reps or time.perf_counter() - t_start < args.seconds:
            reps.append(workloads.run_rep(ops, paths, out_root, checker))
        walls = [sum(o.seconds for o in rep) for rep in reps]
        wall = statistics.median(walls)
        outcomes = [o for rep in reps for o in rep]

        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "events_per_s": (statistics.median(
                sum(o.events for o in rep) / w for rep, w in zip(reps, walls)), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
        layers = {}
        if args.trace:
            with tracing.Tracer() as tracer:
                traced = workloads.run_rep(ops, paths, out_root, checker, tracer)
            with tracing.MemoryProbe() as probe:
                outcomes += workloads.run_rep(ops, paths, out_root, checker)
            speedup = 0.0
            if args.workload == "chain3-events":
                workers = min(2, os.cpu_count() or 1)
                parallel = workloads.run_rep(
                    [workloads.Op("simulate", "chain3", ("--workers", str(workers)))],
                    paths, out_root, checker)
                outcomes += parallel
                speedup = wall / parallel[0].seconds
            outcomes += traced
            layers = tracing.layer_metrics(tracer, traced, wall, probe, speedup)

        # every output of every repetition must match the first repetition's
        first = {o.op.command: o.digest for o in reps[0]}
        reproducible = all(o.digest == first[o.op.command] for o in outcomes)
        correct = reproducible and all(o.sound for o in outcomes)
        failed = sum(o.failed for o in outcomes)

        context = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "rep_wall_s": [round(w, 4) for w in walls], "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "reproducible": reproducible,
        }
        print("context " + json.dumps(context, sort_keys=True))
        for o in outcomes:
            if o.failed:
                verdict = {k: v for k, v in o.result.get("checks", {}).items() if v is not True}
                print(f"failed {o.op.name}: exit {o.exit_code}, checks {verdict}, "
                      f"problems {o.problems}", file=sys.stderr)
        print(f"fail_rate {failed / len(outcomes):.6g} ratio ({failed} of {len(outcomes)} calls)")
        for name, (value, unit) in {**metrics, **layers}.items():
            note = "  (noisy: shared machine)" if name == "cli.workers_speedup" else ""
            print(f"{name} {value:.6g} {unit}{note}")
        shown = layers if args.trace else metrics
        print(json.dumps({
            "correct": correct,
            "attempted": len(outcomes),
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in shown.items()},
        }))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
