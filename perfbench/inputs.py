"""Seeded input generation for the benchmark workloads.

Everything the program reads is made here from the workload seed, with the
benchmark's own generator, so a change to the program's synthetic-panel
code cannot change the benchmark's inputs. Curve CSVs are written the way
the program's own ``dataio.write_curves`` writes them: header
``id,<t_1>,...,<t_D>``, one row per unit, every number as ``%.12g``.
"""

from __future__ import annotations

import json

import numpy as np

POINTS_PER_DAY = 48
OUTLIER_FRAC = 0.02
OUTLIER_MAG = 6.0


def load_panel(seed: int, n_units: int, n_points: int) -> np.ndarray:
    """Positive daily-shaped load curves.

    Each unit is a consumption regime times a lognormal level, a daily
    profile with a weekend dip, a persistent per-unit shape tilt and
    multiplicative noise. As in the program's default synthetic
    configuration, 2% of the units are outliers scaled up sixfold. The file
    holds these values to 12 significant digits, so what the program reads
    differs from them by at most 5e-12 relative.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, n_units, n_points]))
    j = np.arange(n_points)
    theta = ((j % POINTS_PER_DAY) + 0.5) / POINTS_PER_DAY
    weekend = (j // POINTS_PER_DAY) % 7 >= 5
    base = (1.0 + 0.6 * np.sin(np.pi * theta) ** 2) * np.where(weekend, 0.75, 1.0)
    regimes = np.array([0.6, 1.0, 1.8, 3.2])
    groups = rng.permutation(np.resize(np.arange(regimes.size), n_units))
    level = regimes[groups] * rng.lognormal(0.0, 0.4, size=n_units)
    outliers = rng.choice(n_units, size=int(OUTLIER_FRAC * n_units), replace=False)
    level[outliers] *= OUTLIER_MAG
    tilt = rng.normal(size=n_units)
    return (level[:, None] * base[None, :]) * np.exp(
        0.25 * tilt[:, None] * np.sin(2.0 * np.pi * theta)[None, :]
        + 0.08 * rng.normal(size=(n_units, n_points))
    )


def grid_points(n_points: int) -> np.ndarray:
    """Midpoints of a uniform grid on [0, 1], as TimeGrid.uniform places them."""
    return (np.arange(n_points) + 0.5) / n_points


def write_curve_csv(path: str, values: np.ndarray) -> None:
    n_points = values.shape[1]
    row = "%d," + ",".join(["%.12g"] * n_points) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id," + ",".join("%.12g" % t for t in grid_points(n_points)) + "\n")
        for i, curve in enumerate(values.tolist()):
            fh.write(row % (i, *curve))


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")
