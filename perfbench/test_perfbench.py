"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q perfbench

The metric-emission tests run every workload briefly, traced and untraced,
and take a few minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from oscbath import cli, collisions, laws  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_configs_are_deterministic_per_seed():
    for name in workloads.NAMES:
        first = json.dumps(workloads.configs(name, 3), sort_keys=True)
        assert json.dumps(workloads.configs(name, 3), sort_keys=True) == first
        assert json.dumps(workloads.configs(name, 4), sort_keys=True) != first


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


def _bindings():
    return (
        {name: getattr(cli, name) for name in tracing.cli_functions()},
        {cls: cls.__dict__["sample"] for cls in tracing.TAU_LAWS + tracing.XI_LAWS},
        {cls: cls.__dict__["jump"] for cls in tracing.MODELS},
        np.linalg.eigvalsh,
    )


@pytest.mark.parametrize("probe", [tracing.Tracer, tracing.MemoryProbe])
def test_wrappers_are_restored_after_an_error(probe):
    before = _bindings()
    with pytest.raises(RuntimeError):
        with probe():
            assert _bindings() != before
            raise RuntimeError("inside the traced block")
    assert _bindings() == before


def test_tracer_counts_draws_and_jumps_per_subcommand():
    rng = np.random.default_rng(0)
    with tracing.Tracer() as tracer:
        tracer.subcommand = "drift-check"
        laws.Exponential(rate=1.0).sample(rng, size=5)
        laws.GaussianVelocity().sample(rng)
        laws.UniformAngle().sample(rng, size=(2, 3))
        collisions.OneDimElastic(external_mass=0.5).jump(0.1, 1.0, 1.0)
        np.linalg.eigvalsh(np.eye(2))
    assert tracer.total("tau") == 5
    assert tracer.total("xi") == 7
    assert tracer.count["jump:drift-check"] == 1
    assert tracer.count["eigvalsh:drift-check"] == 1


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_listed_metric_is_emitted(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    printed = {line.split()[0] for line in lines[:-1]}
    assert {m["name"] for m in SPEC["end_to_end"]} <= printed
    assert "fail_rate" in printed


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "chain3-events", 0)
    assert done.returncode != 0
    assert done.stdout == ""
