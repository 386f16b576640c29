"""Every subcommand on chains of 13 and 256, and ``dissipative`` on a chain of
1000: the exit-code contract, strict-JSON reports, and the cost of each run.

``covariance`` and ``rank-probe`` refuse dof > 12 by design (exit 2, one JSON
line), from dof 13 on; the others run with ``--check`` and exit 0 or 4.
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
#: wall budget of one dissipative run on the chain of 1000, config load included.
#: With one Krylov basis and the network's own spectrum it took 0.85 to 1.06 s on
#: 2 vCPUs; building the basis twice and decomposing V again took 1.9 s
DISSIPATIVE_1000_BUDGET_S = 3.0


def _chain(tmp_path_factory, n):
    raw = json.loads((CONFIGS / "chain3.json").read_text())
    raw["network"]["n_particles"] = n
    raw["run"] = {"t_end": 50.0, "sample_dt": raw["run"]["sample_dt"], "seeds": [0, 1]}
    path = tmp_path_factory.mktemp("sizes") / f"chain{n}.json"
    path.write_text(json.dumps(raw))
    return str(path)


def _reject(constant):
    raise ValueError(f"{constant} in JSON output")


def _assert_verdict(path, capsys, command, *flags):
    """--check exits 0 or 4 and writes nothing to stderr."""
    assert main([command, "--config", path, "--check", *flags]) in (0, 4)
    assert capsys.readouterr().err == ""


def _assert_refused(path, capsys, command, dof):
    """Exit 2 with one strict-JSON config error that names the network's dof."""
    assert main([command, "--config", path, "--check"]) == 2
    [line] = capsys.readouterr().err.splitlines()
    err = json.loads(line, parse_constant=_reject)
    assert err["error"] == "config" and f"dof {dof}" in err["message"]


@pytest.fixture(scope="module")
def chain13(tmp_path_factory):
    return _chain(tmp_path_factory, 13)


@pytest.fixture(scope="module")
def chain256(tmp_path_factory):
    return _chain(tmp_path_factory, 256)


@pytest.mark.parametrize("command", ["simulate", "stationarity", "dissipative", "drift-check"])
def test_chain13_runs_with_a_verdict(chain13, capsys, command):
    _assert_verdict(chain13, capsys, command)


@pytest.mark.parametrize("command", ["covariance", "rank-probe"])
def test_chain13_is_refused_by_the_small_network_analyses(chain13, capsys, command):
    _assert_refused(chain13, capsys, command, 13)


@pytest.mark.parametrize("command", ["simulate", "stationarity", "dissipative", "drift-check"])
def test_chain256_runs_with_a_verdict(chain256, capsys, tmp_path, command):
    # within 60 s each, and a report.json, where one is written, is strict JSON
    flags = [] if command == "simulate" else ["--out", str(tmp_path)]
    t0 = time.perf_counter()
    _assert_verdict(chain256, capsys, command, *flags)
    seconds = time.perf_counter() - t0
    assert seconds <= (DRIFT_CHECK_BUDGET_S if command == "drift-check" else 60.0)
    if flags:
        json.loads((tmp_path / "report.json").read_text(), parse_constant=_reject)


@pytest.mark.parametrize("command", ["covariance", "rank-probe"])
def test_chain256_is_refused_by_the_small_network_analyses(chain256, capsys, command):
    _assert_refused(chain256, capsys, command, 256)


def test_chain1000_dissipative_within_its_budget(tmp_path_factory, capsys):
    chain1000 = _chain(tmp_path_factory, 1000)
    t0 = time.perf_counter()
    code = main(["dissipative", "--config", chain1000, "--check"])
    seconds = time.perf_counter() - t0
    assert code == 0
    assert capsys.readouterr().err == ""
    assert seconds <= DISSIPATIVE_1000_BUDGET_S
