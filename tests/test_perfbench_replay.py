"""The benchmark's traced replay still reproduces every command exactly.

`perfbench/run.py --trace 1` times each layer by replaying a command's
library calls (perfbench/replay.py) and capturing the CLI's own results
through `medcurve.cli.ht_median`, `l1_median` and `monte_carlo_compare`
(perfbench/worker.py). Its per-layer numbers describe the program only
while every fidelity flag holds, so this test runs the same trace on small
inputs and requires all of them, with the simulate replicates run in
process and in worker processes.
"""

import os
import sys
from pathlib import Path

import numpy as np
import pytest

import medcurve.cli as cli
from medcurve import simulate
from medcurve.forking import worker_count

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _fidelity(tmp_path, monkeypatch) -> dict:
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import worker
    from inputs import load_panel, write_curve_csv, write_json

    synth, designs = str(tmp_path / "synth.json"), str(tmp_path / "designs.json")
    curves, design = str(tmp_path / "curves.csv"), str(tmp_path / "design.json")
    write_json(synth, {"n_units": 200, "seed": 77})
    write_json(designs, {"n": 40})
    write_curve_csv(curves, load_panel(77, 300, 48))
    write_json(design, {"type": "srswor", "n": 60})

    def command(*argv):
        out = str(tmp_path / "out" / argv[0])
        return [*argv, "--out", out], out

    commands = [
        command("simulate", "--input", synth, "--design", designs, "--seed", "77", "--reps", "4"),
        command("median", "--input", curves),
        command("estimate", "--input", curves, "--design", design, "--seed", "77"),
    ]
    result = worker.trace(np, cli, commands, str(tmp_path / "replay"))
    assert result["passes"][0]["rc"] == [0, 0, 0]
    return result["fidelity"]


ALL_FAITHFUL = {
    "simulate.losses": True,
    "simulate.truth": True,
    "simulate.output_bytes": True,
    "median.median": True,
    "median.output_bytes": True,
    "estimate.median": True,
    "estimate.output_bytes": True,
}


def test_traced_replay_reproduces_every_command(tmp_path, monkeypatch):
    assert _fidelity(tmp_path, monkeypatch) == ALL_FAITHFUL


@pytest.mark.skipif(sys.platform != "linux", reason="worker processes are forked on Linux only")
def test_traced_replay_reproduces_a_simulate_run_in_worker_processes(tmp_path, monkeypatch):
    # 8 designs x 4 replicates fork two workers once each takes 16 or more
    monkeypatch.setattr(simulate, "_MIN_REPS_PER_WORKER", 16)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert worker_count(8 * 4, simulate._MIN_REPS_PER_WORKER) == 2
    assert _fidelity(tmp_path, monkeypatch) == ALL_FAITHFUL
