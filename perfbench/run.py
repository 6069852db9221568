"""medcurve benchmark: one workload, one closed-loop client, one command at a time.

Usage (from the repository root):

    python3 perfbench/run.py --workload mc-acceptance --seed 77 --seconds 50 --trace 0

Set-up runs three times; setup_s is the median of the three set-up times.
Each set-up generates the workload's inputs from --seed (every repeat must
write the same bytes) and starts a worker process, which imports medcurve
from ``src`` and runs a discarded warm-up command. The last set-up's worker
goes on to time passes of the workload's commands through
``medcurve.cli.main``: at least two passes, and more while the next one
would still end within --seconds. With --trace 1 it instead runs one
untraced reference pass and a traced replay of it (see replay.py) and
reports per-layer metrics. Every measured output is checked (checks.py).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it print every
metric by name with its unit, the environment and the checks. The exit
code is 0 only when every check passed; 2 when the program is missing or
MEDCURVE_THREADS is set, in which case no result is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from checks import (
    Problems,
    check_estimate,
    check_median,
    check_simulate,
    compare_baseline,
    replicate_failures,
)
from workloads import WORKLOADS, prepare

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
BASELINE = os.path.join(HERE, "baseline.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
DEFAULT_SEED = 77
SETUP_REPEATS = 3
DEADLINE_S = 170.0
PER_COMMAND = {
    "simulate": "simulate_s",
    "median": "median_s",
    "estimate": "estimate_s",
}


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def environment() -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        found = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        commit = found.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit,
        "loadavg_at_start": os.getloadavg(),
        "blas_thread_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def set_up_and_run(workload: str, seed: int, mode: str, seconds: int, deadline: float):
    """Set up SETUP_REPEATS times; the last set-up's worker runs in `mode`.

    Returns the plan, one record of set-up times per repeat, the warm-up
    exit codes of every repeat and the last worker's result.
    """
    work = os.path.join(WORK, workload)
    shutil.rmtree(work, ignore_errors=True)
    setups, warmup_rc, first = [], [], None
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        plan = prepare(workload, work, seed)
        inputs_s = time.perf_counter() - start
        found = [file_digest(p) for p in plan.inputs]
        if first is not None and found != first:
            raise RuntimeError("input generation is not deterministic for this seed")
        first = found
        result = run_worker(plan, mode if i == SETUP_REPEATS - 1 else "setup", seconds, deadline)
        setups.append({"inputs_s": inputs_s, "import_s": result["import_s"], "warmup_s": result["warmup_s"]})
        warmup_rc.extend(result["warmup_rc"])
    return plan, setups, warmup_rc, result


def run_worker(plan, mode: str, seconds: int, deadline: float) -> dict:
    work = os.path.dirname(plan.inputs[0])
    job = {
        "root": ROOT,
        "mode": mode,
        "seconds": seconds,
        "warmup": plan.warmup,
        "commands": plan.commands,
        "replay_root": os.path.join(work, "replay"),
        "result": os.path.join(work, "worker_result.json"),
    }
    job_path = os.path.join(work, "job.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), job_path],
        cwd=ROOT,
        stdout=sys.stderr,
        timeout=max(1.0, deadline - time.monotonic()),
        check=True,
    )
    with open(job["result"], encoding="utf-8") as fh:
        return json.load(fh)


def check_outputs(plan, seed: int, problems: Problems) -> dict:
    """Checks the last pass's outputs; returns what a baseline records."""
    values, found = {}, {}
    for argv, out in plan.commands:
        command = argv[0]
        if command == "median":
            values[command] = check_median(out, plan.panel, problems)
        elif command == "estimate":
            values[command] = check_estimate(out, plan.panel, plan.info["n"], problems)
        else:
            values[command] = check_simulate(out, seed, plan.info, problems)
        for name in sorted(os.listdir(out)):
            found[f"{command}/{name}"] = file_digest(os.path.join(out, name))
    return {"values": values, "digests": found}


def check_passes(runs: list, problems: Problems) -> None:
    """Every command exited 0 and every repeat wrote byte-identical outputs."""
    for run in runs:
        problems.require(not any(run["rc"]), f"a command exited with {run['rc']}")
    outputs = [json.dumps(run["digests"], sort_keys=True) for run in runs]
    problems.require(len(set(outputs)) <= 1, "repeated commands wrote different output bytes")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-baseline",
        action="store_true",
        help="store this run's checked outputs in baseline.json for this workload and seed",
    )
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "medcurve", "cli.py")):
        print(f"error: no medcurve sources under {ROOT}/src", file=sys.stderr)
        return 2
    if "MEDCURVE_THREADS" in os.environ:
        print("error: unset MEDCURVE_THREADS; the benchmark measures the serial default", file=sys.stderr)
        return 2

    env = environment()
    mode = "trace" if args.trace else "timing"
    try:
        plan, setups, warmup_rc, result = set_up_and_run(
            args.workload, args.seed, mode, args.seconds, deadline
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: the worker did not finish: {exc}", file=sys.stderr)
        return 1
    env.update(numpy=result["numpy"], blas=result["blas"])
    print("env " + json.dumps(env, sort_keys=True))

    problems = Problems()
    problems.require(not any(warmup_rc), f"warm-up exited with {warmup_rc}")
    runs = result.get("passes", [])
    check_passes(runs, problems)
    observed = check_outputs(plan, args.seed, problems) if not problems else {}
    if observed:
        print("digests " + json.dumps(observed["digests"], sort_keys=True))

    commands = [argv[0] for argv, _ in plan.commands]
    attempted = sum(len(run["rc"]) for run in runs)
    failed = sum(1 for run in runs for rc in run["rc"] if rc)
    if not runs:
        # A failed warm-up stops the run before any measured command.
        attempted, failed = len(warmup_rc), sum(1 for rc in warmup_rc if rc)
    # Every pass writes the same bytes (checked above), so each pass has the
    # replicate failures that the checked last pass reports.
    per_pass = plan.info.get("replicates", 0) * plan.info.get("designs", 0)
    replicates = per_pass * len(runs)
    rep_failed = replicate_failures(observed.get("values", {})) * len(runs)
    print(
        f"failed_frac {(failed + rep_failed) / (attempted + replicates):.6g} ratio "
        f"({failed} of {attempted} commands and {rep_failed} of {replicates} replicates "
        f"failed over {len(runs)} passes)"
    )

    record = {}
    if os.path.exists(BASELINE):
        with open(BASELINE, encoding="utf-8") as fh:
            record = json.load(fh)
    recorded = record.get(args.workload, {}).get(str(args.seed))
    if observed and recorded:
        drifted = compare_baseline(observed, recorded, problems)
        drift = "numeric drift in " + ", ".join(drifted) if drifted else "outputs byte-identical"
        print(f"baseline seed {args.seed}: {drift}")
    elif observed:
        print(f"baseline: none recorded for seed {args.seed}; independent checks only")

    if args.trace:
        fidelity = result.get("fidelity", {})
        problems.require(fidelity and all(fidelity.values()), f"replay fidelity failed: {fidelity}")
        values = result.get("metrics", {})
        print("fidelity " + json.dumps(fidelity, sort_keys=True))
    else:
        pass_s = [sum(p["seconds"]) for p in runs]
        totals = [sum(s.values()) for s in setups]
        setup_s = statistics.median(totals)
        print(
            f"setup_s {setup_s:.4f} s (median of {SETUP_REPEATS} set-ups: "
            + "; ".join(
                f"inputs {s['inputs_s']:.3f} + imports {s['import_s']:.3f} + warm-up {s['warmup_s']:.3f}"
                for s in setups
            )
            + ")"
        )
        for i, command in enumerate(commands):
            times = [p["seconds"][i] for p in runs]
            print(f"{PER_COMMAND[command]} {statistics.median(times):.4f} s (passes: "
                  + ", ".join(f"{t:.3f}" for t in times) + ")")
            if command == "simulate":
                print(f"simulate_reps_per_s {per_pass / statistics.median(times):.4f} 1/s "
                      f"({per_pass} design-replicates per command)")
        print(f"peak_rss_mb {result['peak_rss_mb']:.1f} MB")
        values = {
            "setup_s": setup_s,
            "command_s": statistics.median(pass_s) if pass_s else float("nan"),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        print(f"command_s {values['command_s']:.4f} s (median over {len(pass_s)} passes)")

    with open(SPEC, encoding="utf-8") as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if not problems:
        problems.require(not missing, f"listed metrics were not measured: {missing}")
    # A metric is only missing when a check has already failed; 0 stands in for it.
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in listed}
    if args.trace:
        for name, metric in metrics.items():
            print(f"{name} {metric['value']:.6g} {metric['unit']}")
        # Counts that stay 0 on these workloads are printed but not listed.
        for name in sorted(set(values) - set(metrics)):
            print(f"{name} {values[name]:.6g} count")

    if args.record_baseline and observed and not problems:
        record.setdefault(args.workload, {})[str(args.seed)] = observed
        with open(BASELINE, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    for problem in problems:
        print("check FAILED: " + problem)
    if not problems:
        print("checks passed")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
