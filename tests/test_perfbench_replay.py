"""The benchmark's traced replay still reproduces every command exactly.

`perfbench/run.py --trace 1` times each layer by replaying a command's
library calls (perfbench/replay.py) and capturing the CLI's own results
through `medcurve.cli.ht_median`, `l1_median` and `monte_carlo_compare`
(perfbench/worker.py). Its per-layer numbers describe the program only
while every fidelity flag holds, so this test runs the same trace on small
inputs and requires all of them.
"""

from pathlib import Path

import numpy as np

import medcurve.cli as cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_replay_reproduces_every_command(tmp_path, monkeypatch):
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
    assert result["fidelity"] == {
        "simulate.losses": True,
        "simulate.truth": True,
        "simulate.output_bytes": True,
        "median.median": True,
        "median.output_bytes": True,
        "estimate.median": True,
        "estimate.output_bytes": True,
    }
