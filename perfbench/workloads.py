"""The workloads: inputs made from the seed, warm-up and measured commands.

mc-acceptance
    ``simulate`` on the acceptance configuration (default SynthConfig:
    N=2000, D=48; all 8 designs at n=200; 300 replicates). Thousands of
    small weighted solves: where a batched Monte Carlo engine shows, and
    where population-scale kernels barely do. No CSV I/O.
population-file
    ``median`` then ``estimate`` (SRSWOR, n=2000) on a 20000 x 336 curve
    CSV. One large solve plus CSV parsing: the opposite use of the solver,
    where population-scale kernels and the CSV reader show.

Every measured command gets the workload seed as ``--seed``; no command
gets ``--threads``, so the program runs its serial default path. The
warm-up commands, which count in set-up time, use fixed inputs and seed
WARMUP_SEED, so that set-up time does not vary with the workload seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from inputs import load_panel, write_curve_csv, write_json

REPLICATES = 300
MC_SAMPLE = 200
POP_UNITS, POP_POINTS = 20000, 336
ESTIMATE_SAMPLE = 2000
WARM_UNITS = 1000
WARMUP_SEED = 77


@dataclass
class Plan:
    """What one workload runs. Each command is (argv, output directory)."""

    inputs: list
    warmup: list
    commands: list
    panel: np.ndarray | None = None
    info: dict = field(default_factory=dict)


def _command(work: str, group: str, argv: list) -> tuple:
    out = os.path.join(work, group, argv[0])
    return [*argv, "--out", out], out


def mc_acceptance(work: str, seed: int) -> Plan:
    synth = os.path.join(work, "synth.json")
    warm = os.path.join(work, "warm_synth.json")
    designs = os.path.join(work, "designs.json")
    write_json(synth, {"seed": seed})
    write_json(warm, {"seed": WARMUP_SEED})
    write_json(designs, {"n": MC_SAMPLE})

    def simulate(config: str, run_seed: int, reps: int) -> list:
        return [
            "simulate", "--input", config, "--design", designs,
            "--seed", str(run_seed), "--reps", str(reps),
        ]

    return Plan(
        inputs=[synth, warm, designs],
        warmup=[_command(work, "warmup", simulate(warm, WARMUP_SEED, 5))],
        commands=[_command(work, "out", simulate(synth, seed, REPLICATES))],
        info={"replicates": REPLICATES, "designs": 8, "n": MC_SAMPLE},
    )


def population_file(work: str, seed: int) -> Plan:
    curves = os.path.join(work, "population.csv")
    design = os.path.join(work, "design.json")
    warm = os.path.join(work, "warm.csv")
    warm_design = os.path.join(work, "warm_design.json")
    panel = load_panel(seed, POP_UNITS, POP_POINTS)
    write_curve_csv(curves, panel)
    write_curve_csv(warm, load_panel(WARMUP_SEED, WARM_UNITS, POP_POINTS))
    write_json(design, {"type": "srswor", "n": ESTIMATE_SAMPLE})
    write_json(warm_design, {"type": "srswor", "n": WARM_UNITS // 10})
    return Plan(
        inputs=[curves, design, warm, warm_design],
        warmup=[
            _command(work, "warmup", ["median", "--input", warm]),
            _command(
                work,
                "warmup",
                ["estimate", "--input", warm, "--design", warm_design, "--seed", str(WARMUP_SEED)],
            ),
        ],
        commands=[
            _command(work, "out", ["median", "--input", curves]),
            _command(
                work, "out", ["estimate", "--input", curves, "--design", design, "--seed", str(seed)]
            ),
        ],
        panel=panel,
        info={"n": ESTIMATE_SAMPLE},
    )


WORKLOADS = {
    "mc-acceptance": mc_acceptance,
    "population-file": population_file,
}


def prepare(name: str, work: str, seed: int) -> Plan:
    os.makedirs(work, exist_ok=True)
    return WORKLOADS[name](work, seed)
