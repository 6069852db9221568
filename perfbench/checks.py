"""Output checks for the measured commands.

Each check reads what a command wrote and verifies it against the
generated inputs, independently of the program's code: exit codes,
convergence flags, row counts and structure, an optimality certificate for
every fitted median, and agreement between report.json and losses.csv.
Where baseline.json holds a record for the workload and seed, loss means
and median values must also match it to a numeric tolerance; a changed
output digest alone is reported as numeric drift, not as a failure.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

from inputs import grid_points

MEDIAN_GAP_RTOL = 1e-7
MEDIAN_RTOL = 1e-6
LOSS_RTOL = 1e-4
SUITE = (
    "SRSWOR",
    "SYS",
    "STRAT-u-PROP",
    "STRAT-u-OPTIM",
    "STRAT-x-PROP",
    "STRAT-x-OPTIM",
    "POST",
    "PPS",
)


class Problems(list):
    def require(self, ok, message: str) -> bool:
        if not ok:
            self.append(message)
        return bool(ok)


def _rows(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _curve(path: str, n_points: int, problems: Problems) -> np.ndarray | None:
    rows = _rows(path)
    if not problems.require(
        rows[0] == ["t", "value"] and len(rows) == n_points + 1,
        f"{path}: expected header t,value and {n_points} rows",
    ):
        return None
    t = np.array([float(r[0]) for r in rows[1:]])
    values = np.array([float(r[1]) for r in rows[1:]])
    problems.require(np.allclose(t, grid_points(n_points), rtol=1e-10), f"{path}: wrong grid")
    problems.require(np.all(np.isfinite(values)), f"{path}: non-finite median values")
    return values


def _certify(curves: np.ndarray, median: np.ndarray, where: str, problems: Problems) -> None:
    """Relative optimality gap |sum_k (Y_k - m)/|Y_k - m|| / N in the grid norm."""
    q = 1.0 / curves.shape[1]
    diffs = curves - median
    r = np.sqrt(np.square(diffs) @ np.full(curves.shape[1], q))
    on = r <= 1e-12 * r.max()
    score = (diffs[~on] / r[~on, None]).sum(axis=0)
    gap = max(0.0, float(np.sqrt(np.square(score).sum() * q)) - on.sum()) / curves.shape[0]
    problems.require(gap <= MEDIAN_GAP_RTOL, f"{where}: optimality gap {gap:.3g} of the median")


def check_median(out: str, panel: np.ndarray, problems: Problems) -> dict:
    diag = _json(os.path.join(out, "diagnostics.json"))
    problems.require(diag.get("converged") is True, f"{out}: diagnostics.json says not converged")
    values = _curve(os.path.join(out, "median.csv"), panel.shape[1], problems)
    if values is None:
        return {}
    _certify(panel, values, out, problems)
    return {"median": values.tolist()}


def check_estimate(out: str, panel: np.ndarray, n: int, problems: Problems) -> dict:
    rows = _rows(os.path.join(out, "sample.csv"))
    problems.require(rows[0] == ["unit_id", "pi", "weight"], f"{out}: sample.csv header")
    units = np.array([int(r[0]) for r in rows[1:]])
    pi = np.array([float(r[1]) for r in rows[1:]])
    weight = np.array([float(r[2]) for r in rows[1:]])
    n_pop = panel.shape[0]
    problems.require(units.size == n, f"{out}: {units.size} sampled units, expected {n}")
    problems.require(
        np.unique(units).size == units.size and units.min() >= 0 and units.max() < n_pop,
        f"{out}: sampled ids are not distinct population ids",
    )
    problems.require(
        np.allclose(pi, n / n_pop, rtol=1e-10) and np.allclose(weight, n_pop / n, rtol=1e-10),
        f"{out}: SRSWOR inclusion probabilities or weights are wrong",
    )
    values = _curve(os.path.join(out, "median.csv"), panel.shape[1], problems)
    var = _rows(os.path.join(out, "variance.csv"))
    v = np.array([float(r[1]) for r in var[1:]])
    problems.require(
        var[0] == ["t", "variance"] and v.size == panel.shape[1],
        f"{out}: variance.csv shape",
    )
    problems.require(
        np.all(np.isfinite(v)) and np.all(v >= 0) and np.any(v > 0),
        f"{out}: variance values must be finite, non-negative and not all zero",
    )
    if values is None:
        return {}
    _certify(panel[units], values, out, problems)
    return {"median": values.tolist()}


def check_simulate(out: str, seed: int, info: dict, problems: Problems) -> dict:
    """Returns the per-design summary; its failure counts feed failed_frac."""
    report = _json(os.path.join(out, "report.json"))
    reps = info["replicates"]
    problems.require(
        report.get("replicates") == reps and report.get("seed") == seed and report.get("n") == info["n"],
        f"{out}: report.json replicates/seed/n do not match the command",
    )
    designs = report.get("designs", [])
    problems.require(
        [d.get("name") for d in designs] == list(SUITE), f"{out}: report.json must list the 8 designs"
    )
    rows = _rows(os.path.join(out, "losses.csv"))
    problems.require(
        rows[0] == ["design", "replicate", "loss", "variance_loss"] and len(rows) == 8 * reps + 1,
        f"{out}: losses.csv must hold {8 * reps} rows",
    )
    summary = {}
    for d in designs:
        name = d["name"]
        mine = [r for r in rows[1:] if r[0] == name]
        loss = np.array([float(r[2]) for r in mine])
        ok = loss[~np.isnan(loss)]
        failed = int(np.isnan(loss).sum())
        problems.require(
            failed == d["estimate_failures"],
            f"{out}: {name} has {failed} NaN losses but {d['estimate_failures']} estimate failures",
        )
        problems.require(
            ok.size > 0 and np.all(ok > 0) and np.isclose(ok.mean(), d["loss"]["mean"], rtol=1e-9),
            f"{out}: {name} loss mean disagrees between report.json and losses.csv",
        )
        entry = {"loss_mean": d["loss"]["mean"], "estimate_failures": d["estimate_failures"]}
        if "variance_loss_mean" in d:
            vloss = np.array([float(r[3]) for r in mine])
            problems.require(
                int(np.isnan(vloss).sum()) == d["estimate_failures"] + d["variance_failures"],
                f"{out}: {name} variance-loss NaNs disagree with the failure counts",
            )
            entry["variance_loss_mean"] = d["variance_loss_mean"]
            entry["variance_failures"] = d["variance_failures"]
        else:
            problems.require(all(r[3] == "" for r in mine), f"{out}: {name} has variance losses")
        summary[name] = entry
    return summary


def replicate_failures(observed: dict) -> int:
    return sum(
        d["estimate_failures"] + d.get("variance_failures", 0)
        for d in observed.get("simulate", {}).values()
    )


def _close(a, b, rtol: float) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rtol * np.max(np.abs(b))))


def compare_baseline(observed: dict, record: dict, problems: Problems) -> list:
    """Numeric agreement with a recorded baseline; returns the drifted files."""
    for command, want in record["values"].items():
        got = observed["values"].get(command, {})
        if command == "simulate":
            for name, entry in want.items():
                mine = got.get(name, {})
                for key, value in entry.items():
                    ok = mine.get(key) == value if key.endswith("failures") else (
                        key in mine and _close(mine[key], value, LOSS_RTOL)
                    )
                    problems.require(ok, f"{command}: {name} {key} {mine.get(key)} != baseline {value}")
        else:
            problems.require(
                _close(got.get("median", []), want["median"], MEDIAN_RTOL),
                f"{command}: median values differ from baseline beyond {MEDIAN_RTOL:g}",
            )
    return sorted(
        path for path, digest in record["digests"].items() if observed["digests"].get(path) != digest
    )
