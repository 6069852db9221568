"""Runs one workload's commands in a process of its own.

Started by run.py with the path of a job file; writes its result next to
it. The process imports medcurve from the checkout's ``src`` and runs the
discarded warm-up commands. In mode "setup" it stops there, having timed
both. Otherwise it then either times passes of the workload's commands
through ``medcurve.cli.main`` (mode "timing") or runs one untraced
reference pass and one traced replay (mode "trace"). Its peak resident
memory is the workload's, since input generation stays in run.py.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import json
import os
import resource
import sys
import time

MIN_PASSES = 2
MAX_PASSES = 50


def digests(out: str) -> dict:
    found = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            found[name] = hashlib.sha256(fh.read()).hexdigest()
    return found


def run_cli(main, argv: list) -> tuple:
    start = time.perf_counter()
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    return rc, time.perf_counter() - start


def blas_record(np) -> dict:
    """BLAS name, version and thread count as the loaded library reports them."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                record["threads"] = int(fn())
                return record
    return record


class Capture:
    """Keeps what the CLI's top-level library calls return, leaving them unchanged."""

    NAMES = ("l1_median", "ht_median", "monte_carlo_compare")

    def __init__(self, module):
        self.module = module
        self.seen: dict = {}

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.seen.setdefault(name, []).append(out)
            return out

        return wrapper

    def __enter__(self) -> "Capture":
        self.saved = {name: getattr(self.module, name) for name in self.NAMES}
        for name, fn in self.saved.items():
            setattr(self.module, name, self._wrap(name, fn))
        return self

    def __exit__(self, *exc) -> None:
        for name, fn in self.saved.items():
            setattr(self.module, name, fn)

    def results(self, command: str) -> dict:
        """The arrays the replay of `command` must reproduce."""
        import numpy as np

        last = {name: found[-1] for name, found in self.seen.items()}
        if command == "simulate":
            report = last["monte_carlo_compare"]
            return {
                "losses": np.stack([o.losses for o in report.outcomes]),
                "truth": report.truth.values,
            }
        if command == "estimate":
            return {"median": last["ht_median"].median.values}
        return {"median": last["l1_median"].median.values}


def timing(main, commands: list, seconds: float) -> list:
    """Passes over the commands until the next would end after `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        gc.collect()
        times, codes, found = [], [], []
        for argv, out in commands:
            rc, dt = run_cli(main, argv)
            times.append(dt)
            codes.append(rc)
            found.append(digests(out) if rc == 0 else {})
        passes.append({"seconds": times, "rc": codes, "digests": found})
        elapsed = time.perf_counter() - start
        if any(codes) or len(passes) >= MAX_PASSES:
            break
        if len(passes) >= MIN_PASSES and elapsed + sum(times) > seconds:
            break
    return passes


def trace(np, cli, commands: list, replay_root: str) -> dict:
    import replay

    capture = Capture(cli)
    reference = {"seconds": [], "rc": [], "digests": []}
    wanted = []
    for argv, out in commands:
        capture.seen = {}
        with capture:
            rc, dt = run_cli(cli.main, argv)
        reference["seconds"].append(dt)
        reference["rc"].append(rc)
        reference["digests"].append(digests(out) if rc == 0 else {})
        wanted.append(capture.results(argv[0]) if rc == 0 else None)
    if any(reference["rc"]):
        return {"passes": [reference]}

    gc.collect()
    tr = replay.Tracer()
    fidelity = {}
    for (argv, _), want, ref in zip(commands, wanted, reference["digests"]):
        replay_out = os.path.join(replay_root, argv[0])
        got = replay.replay(tr, argv, replay_out)
        for key, value in want.items():
            fidelity[f"{argv[0]}.{key}"] = bool(np.array_equal(value, got[key], equal_nan=True))
        fidelity[f"{argv[0]}.output_bytes"] = digests(replay_out) == ref

    metrics = replay.layer_metrics(tr)
    traced = sum(s.duration for s in tr.spans if s.parent is None)
    untraced = sum(reference["seconds"])
    metrics["trace.traced_s"] = traced
    metrics["trace.untraced_s"] = untraced
    metrics["trace.overhead_s"] = traced - untraced
    return {"passes": [reference], "fidelity": fidelity, "metrics": metrics}


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)

    start = time.perf_counter()
    import numpy as np

    import medcurve.cli as cli

    import_s = time.perf_counter() - start
    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"medcurve was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    warmup_s, warmup_rc = 0.0, []
    for argv, _ in job["warmup"]:
        rc, dt = run_cli(cli.main, argv)
        warmup_s += dt
        warmup_rc.append(rc)

    result = {"import_s": import_s, "warmup_s": warmup_s, "warmup_rc": warmup_rc}
    if job["mode"] != "setup":
        result.update(blas=blas_record(np), numpy=np.__version__)
    if job["mode"] == "timing" and not any(warmup_rc):
        result["passes"] = timing(cli.main, job["commands"], job["seconds"])
    elif job["mode"] == "trace" and not any(warmup_rc):
        result.update(trace(np, cli, job["commands"], job["replay_root"]))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
