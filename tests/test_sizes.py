"""Every subcommand on a chain of 256: the exit-code contract and drift-check's cost.

``covariance`` and ``rank-probe`` refuse dof > 12 by design (exit 2, one JSON
line); the others run with ``--check`` and exit 0 or 4.
"""

import json
import time
from pathlib import Path

import pytest

from oscbath.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

#: wall budget of one drift-check on the chain of 256 (20 probes of 10,000 kicks).
#: In mode coordinates it took 1.0 s on 2 vCPUs; the physical-coordinate energies
#: it replaced took 12.7 s
DRIFT_CHECK_BUDGET_S = 6.0


@pytest.fixture(scope="module")
def chain256(tmp_path_factory):
    raw = json.loads((CONFIGS / "chain3.json").read_text())
    raw["network"]["n_particles"] = 256
    raw["run"] = {"t_end": 50.0, "sample_dt": raw["run"]["sample_dt"], "seeds": [0, 1]}
    path = tmp_path_factory.mktemp("sizes") / "chain256.json"
    path.write_text(json.dumps(raw))
    return str(path)


@pytest.mark.parametrize("command", ["simulate", "stationarity", "dissipative", "drift-check"])
def test_chain256_runs_with_a_verdict(chain256, capsys, command):
    t0 = time.perf_counter()
    code = main([command, "--config", chain256, "--check"])
    seconds = time.perf_counter() - t0
    assert code in (0, 4)
    assert capsys.readouterr().err == ""
    if command == "drift-check":
        assert seconds <= DRIFT_CHECK_BUDGET_S


@pytest.mark.parametrize("command", ["covariance", "rank-probe"])
def test_chain256_is_refused_by_the_small_network_analyses(chain256, capsys, command):
    assert main([command, "--config", chain256, "--check"]) == 2
    [line] = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["error"] == "config" and "dof 256" in err["message"]
