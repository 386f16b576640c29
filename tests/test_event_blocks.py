"""The streamed event loop: the block size is no input to any output.

``simulate`` reads ``pdmp.event_blocks`` one block of ``EVENT_BLOCK``
lockstep steps at a time, folding each seed's grid windows as soon as its
jumps cover them (``ROTATE_VALUES`` mode values rotated per call). With
the constants forced small, jumps, grid windows and
the seeds' last events fall across block edges, and seeds ride along after
their last event for many blocks; every byte of ``summary.json`` and
``trajectory.csv`` and every abort message must stay the same. What a run
holds does not grow with its horizon.
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oscbath import pdmp
from oscbath.cli import main, run_simulate
from oscbath.config import load_config
from oscbath.laws import GaussianVelocity
from oscbath.pdmp import GRID_BLOCK, grid_size

CHAIN3 = Path(__file__).resolve().parent.parent / "configs" / "chain3.json"

#: forced block sizes: one step, a prime, one step block, and one past it
SMALL_BLOCKS = [1, 7, pdmp.STEP_BLOCK, pdmp.STEP_BLOCK + 36]

#: runs with more grid rows than GRID_BLOCK: one whose horizon ends the seeds'
#: unequal runs, one with a few jumps between grid times, and one whose chains
#: run on past the horizon
RUNS = {
    "horizon": {"t_end": 1100.1, "sample_dt": 0.25, "burn_in": 500.0, "n_steps": 1000},
    "coarse-grid": {"t_end": 10300.1, "sample_dt": 2.5, "burn_in": 1000.0, "n_steps": 1000},
    "chain-past-horizon": {"t_end": 300.1, "sample_dt": 0.05, "burn_in": 30.0, "n_steps": 400},
}


def _chain3(seeds, **run):
    raw = json.loads(CHAIN3.read_text())
    raw["run"] = {**run, "seeds": list(seeds)}
    return raw


def _simulate(tmp_path, name, raw, capsys):
    """(exit code, stderr, {output name: bytes}) of ``simulate --check --out``."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / name
    code = main(["simulate", "--config", str(path), "--check", "--out", str(out)])
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return code, capsys.readouterr().err, files


@pytest.mark.parametrize("run", sorted(RUNS))
def test_small_event_blocks_write_the_same_bytes(run, tmp_path, monkeypatch, capsys):
    raw = _chain3((3, 0, 5), **RUNS[run])
    assert grid_size(RUNS[run]["t_end"], RUNS[run]["sample_dt"]) > GRID_BLOCK
    code, err, expected = _simulate(tmp_path, "default", raw, capsys)
    assert code in (0, 4) and err == ""
    assert sorted(expected) == ["summary.json", "trajectory.csv"]
    summary = json.loads(expected["summary.json"])
    events = [entry["events"] for entry in summary["per_seed"]]
    # unequal runs, so seeds ride along; past the horizon, the chains set the steps
    assert len(set(events)) == 3
    assert (max(events) > raw["run"]["n_steps"]) == (run != "chain-past-horizon")
    monkeypatch.setattr(pdmp, "ROTATE_VALUES", 300)  # 100 grid rows rotated per call, too
    for block in SMALL_BLOCKS:
        monkeypatch.setattr(pdmp, "EVENT_BLOCK", block)
        assert _simulate(tmp_path, f"block-{block}", raw, capsys) == (code, "", expected)


def _inf_inputs(monkeypatch, inputs: dict) -> None:
    """Make seed s's velocity input number inputs[s] infinite, in whichever block it is drawn.

    A seed's input stream is spawned from ``SeedSequence(s)``, whose entropy
    names the seed; the draws so far are counted per seed.
    """
    sample, drawn = GaussianVelocity.sample, dict.fromkeys(inputs, 0)

    def wrapped(self, rng, size=None):
        u = sample(self, rng, size)
        seed = rng.bit_generator.seed_seq.entropy
        if seed in inputs:
            first, drawn[seed] = drawn[seed], drawn[seed] + np.size(u)
            if first < inputs[seed] <= drawn[seed]:
                u[inputs[seed] - 1 - first] = np.inf
        return u

    monkeypatch.setattr(GaussianVelocity, "sample", wrapped)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("block", SMALL_BLOCKS)
def test_small_event_blocks_abort_with_the_same_message(block, tmp_path, monkeypatch, capsys):
    # seed 5, listed first, overflows at its fifth-last event; seed 1 overflows
    # earlier, many blocks before it. The first listed seed's abort is reported
    run = RUNS["horizon"]
    events = {entry["seed"]: entry["events"]
              for entry in run_simulate(load_config(_chain3((1, 5), **run)), None)["per_seed"]}
    late, early = events[5] - 4, events[1] // 3
    assert early // pdmp.EVENT_BLOCK < late // pdmp.EVENT_BLOCK  # in different blocks even so
    messages = []
    for size in (pdmp.EVENT_BLOCK, block):
        with monkeypatch.context() as patch:
            patch.setattr(pdmp, "EVENT_BLOCK", size)
            _inf_inputs(patch, {5: late, 1: early})
            code, err, files = _simulate(tmp_path, f"abort-{size}", _chain3((5, 1), **run), capsys)
        assert code == 3 and files == {}  # trajectory.csv is removed
        [line] = err.splitlines()
        messages.append(json.loads(line))
    assert messages[0] == messages[1]
    assert messages[0]["message"].startswith(f"non-finite state after event {late} at t=")


def _traced_peak(raw) -> int:
    cfg = load_config(raw)
    tracemalloc.start()
    try:
        run_simulate(cfg, None)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("sample_dt", [0.25, 250.0])
def test_simulate_holds_no_more_at_eight_times_the_horizon(sample_dt):
    # a whole-run event record grows with seeds x horizon: it peaked at 2.1 MB at
    # t_end 5000 and 10.6 MB at 4e4 on these four seeds. Streamed, each seed holds
    # one block of events, the jumps from its open grid window's first grid time on
    # and, until every seed has them, its first n_steps post-jump states: about
    # 1.15 MB at both. At sample_dt 250 one window spans the whole run: holding every
    # jump it spans, rather than at most its rows' and one block, peaked at 1.4 MB at
    # t_end 5000 and 10.0 MB at 4e4, against 0.43 MB at both
    _traced_peak(_chain3(range(4), t_end=500.0, sample_dt=0.25))  # warm caches
    short = _traced_peak(_chain3(range(4), t_end=5000.0, sample_dt=sample_dt))
    long = _traced_peak(_chain3(range(4), t_end=40000.0, sample_dt=sample_dt))
    assert long <= 1.2 * short, (short, long)
