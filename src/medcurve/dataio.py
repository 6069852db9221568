"""Reading and writing curve populations, samples, and design descriptions.

Curve CSV layout: a header row ``id,t_1,...,t_D`` followed by one row per
unit. When every header cell after ``id`` parses as a float those values
are taken as the grid points, which must then be finite and strictly
increasing; otherwise the points are unnamed and a uniform grid on [0, 1]
is assumed. A value cell holds anything Python's ``float()`` accepts
(surrounding whitespace, ``1_000``, non-ASCII digits) as long as it is
finite. Floats are written with 12 significant digits, which round-trips
the values used here well below every tolerance in the test suite.
"""

from __future__ import annotations

import json
import numbers
import os
from typing import Any

import numpy as np

from .curves import Curve, CurvePopulation, TimeGrid
from .designs import DESIGNS
from .errors import DesignError, ParseError

__all__ = [
    "read_curves",
    "write_curves",
    "write_curve",
    "write_variance",
    "write_sample",
    "write_losses",
    "load_json",
    "load_design",
    "load_simulation_designs",
    "validate_design",
]

def _fmt(x: float) -> str:
    return "%.12g" % x


def read_curves(path: str | os.PathLike) -> CurvePopulation:
    """Load a curve population from CSV.

    Raises ParseError (with the offending line number) on structural
    problems: missing header, a numeric header that is not a valid grid,
    ragged rows, non-numeric or non-finite values, duplicate ids.
    """
    path = os.fspath(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(str(exc), path=path) from exc
    rows = [(i + 1, line) for i, line in enumerate(text.splitlines()) if line.strip()]
    # numpy strips the unit separator around a number, float() does not
    bulk_ok = "\x1f" not in text
    del text
    if not rows:
        raise ParseError("file is empty", path=path)
    header_no, header = rows[0]
    cells = [c.strip() for c in header.split(",")]
    if len(cells) < 2 or cells[0].lower() != "id":
        raise ParseError("header must be 'id' followed by grid columns", path=path, line=header_no)
    grid_labels = cells[1:]
    d = len(grid_labels)
    try:
        points = np.array([float(c) for c in grid_labels])
    except ValueError:
        grid = TimeGrid.uniform(d)
    else:
        try:
            grid = TimeGrid.from_points(points)
        except ValueError as exc:
            raise ParseError(f"invalid grid header: {exc}", path=path, line=header_no) from exc

    body = rows[1:]
    if not body:
        raise ParseError("no curve rows after the header", path=path, line=header_no)
    values = _parse_bulk([line for _, line in body], d) if bulk_ok else None
    if values is None:
        values = _parse_rows(body, d, path)
    labels = [line.partition(",")[0].strip() for _, line in body]
    try:
        ids = [int(label) for label in labels]
    except ValueError:
        ids = labels
    # compare the ids the population keeps: '1' and '01' are one integer id
    first: dict = {}
    for (line_no, _), uid, label in zip(body, ids, labels):
        if uid in first:
            raise ParseError(
                f"duplicate unit id {label!r}, first seen on line {first[uid]}",
                path=path,
                line=line_no,
            )
        first[uid] = line_no
    try:
        return CurvePopulation(values, grid, ids=np.array(ids))
    except ValueError as exc:
        raise ParseError(str(exc), path=path) from exc


def _parse_bulk(lines: list[str], d: int) -> np.ndarray | None:
    """Parse every row's values in one numpy call.

    Returns None when a row is ragged, when numpy rejects a cell, or when a
    value is non-finite; the per-line parser then decides, so error
    messages and what counts as a number stay those of ``_parse_rows``.
    """
    if any(line.count(",") != d for line in lines):
        return None
    try:
        values = np.loadtxt(
            lines, delimiter=",", usecols=range(1, d + 1), comments=None, ndmin=2
        )
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _parse_rows(rows: list[tuple[int, str]], d: int, path: str) -> np.ndarray:
    """Parse the value cells line by line with float(); raise at the first bad line."""
    values = np.empty((len(rows), d))
    for r, (line_no, line) in enumerate(rows):
        cells = line.split(",")
        if len(cells) != d + 1:
            raise ParseError(
                f"expected {d + 1} columns, found {len(cells)}", path=path, line=line_no
            )
        for j, cell in enumerate(cells[1:]):
            try:
                v = float(cell)
            except ValueError:
                raise ParseError(f"non-numeric value {cell.strip()!r}", path=path, line=line_no)
            if not np.isfinite(v):
                raise ParseError(f"non-finite value {cell.strip()!r}", path=path, line=line_no)
            values[r, j] = v
    return values


def write_curves(path: str | os.PathLike, pop: CurvePopulation) -> None:
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        fh.write("id," + ",".join(_fmt(t) for t in pop.grid.points) + "\n")
        for uid, row in zip(pop.ids, pop.values):
            fh.write(str(uid) + "," + ",".join(_fmt(v) for v in row) + "\n")


def write_curve(path: str | os.PathLike, curve: Curve) -> None:
    """Write one curve as two columns t,value."""
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        fh.write("t,value\n")
        for t, v in zip(curve.grid.points, curve.values):
            fh.write(f"{_fmt(t)},{_fmt(v)}\n")


def write_variance(path: str | os.PathLike, grid: TimeGrid, variance: np.ndarray) -> None:
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        fh.write("t,variance\n")
        for t, v in zip(grid.points, variance):
            fh.write(f"{_fmt(t)},{_fmt(v)}\n")


def write_sample(path: str | os.PathLike, ids, pi, weights) -> None:
    """Write sampled units as unit_id, inclusion probability, weight."""
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        fh.write("unit_id,pi,weight\n")
        for uid, p, w in zip(ids, pi, weights):
            fh.write(f"{uid},{_fmt(p)},{_fmt(w)}\n")


def write_losses(path: str | os.PathLike, report) -> None:
    """Write a Monte Carlo report's per-replicate losses, one row per design and replicate."""
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        fh.write("design,replicate,loss,variance_loss\n")
        for outcome in report.outcomes:
            for r in range(report.replicates):
                loss = _fmt(outcome.losses[r])
                vloss = "" if outcome.variance_losses is None else _fmt(outcome.variance_losses[r])
                fh.write(f"{outcome.name},{r},{loss},{vloss}\n")


def _is_int(value, least: int) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least


def strata_count(value, name: str, path: str | None = None) -> int:
    """A strata count from a file or a flag: an int of at least 2, else ParseError."""
    if not _is_int(value, 2):
        raise ParseError(f"{name} must be an integer of at least 2", path=path)
    return value


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_label(value) -> bool:
    return isinstance(value, (int, str)) and not isinstance(value, bool)


def _is_list_of(value, ok) -> bool:
    return isinstance(value, list) and all(ok(v) for v in value)


# what each design-JSON field must hold, whichever design type reads it
_DESIGN_FIELDS = {
    "strata": (
        lambda v: _is_list_of(v, _is_label),
        "a list of per-unit labels, each an integer or a string",
    ),
    "allocation": (lambda v: _is_list_of(v, lambda a: _is_int(a, 1)), "a list of positive integers"),
    "order_key_column": (lambda v: isinstance(v, str), "a string"),
    "p_source": (
        lambda v: v == "mean" or _is_list_of(v, _is_number),
        '"mean" or a list of per-unit sizes',
    ),
}


def validate_design(design: dict[str, Any]) -> dict[str, Any]:
    """Check a design description and return it with defaults filled in.

    Required keys: type (a key of designs.DESIGNS) and n (positive
    integer). Optional: seed, and the fields DESIGNS lists for the type,
    each holding what _DESIGN_FIELDS describes.
    """
    if not isinstance(design, dict):
        raise DesignError("design description must be a JSON object")
    dtype = design.get("type")
    if not isinstance(dtype, str) or dtype not in DESIGNS:
        raise DesignError(f"unknown design type {dtype!r}; expected one of {tuple(DESIGNS)}")
    if not _is_int(design.get("n"), 1):
        raise DesignError("design 'n' must be a positive integer")
    seed = design.get("seed")
    if seed is not None and not _is_int(seed, 0):
        raise DesignError("design 'seed' must be a non-negative integer")
    reads = DESIGNS[dtype][1]
    for key in reads:
        ok, what = _DESIGN_FIELDS[key]
        if key in design and not ok(design[key]):
            raise DesignError(f"design {key!r} must be {what}")
    if "strata" in reads and "strata" not in design:
        raise DesignError(f"design type {dtype!r} needs per-unit 'strata' labels")
    extra = set(design) - {"type", "n", "seed", *reads}
    if extra:
        raise DesignError(f"unexpected design field(s) {sorted(extra)} for type {dtype!r}")
    return dict(design)


def load_json(path: str | os.PathLike) -> Any:
    """Parse a JSON file; an unreadable file or invalid JSON raises ParseError."""
    path = os.fspath(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(str(exc), path=path) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", path=path, line=exc.lineno) from exc


def load_design(path: str | os.PathLike) -> dict[str, Any]:
    return validate_design(load_json(path))


def load_simulation_designs(path: str | os.PathLike, names) -> dict[str, Any]:
    """Read simulate's designs file: n, n_strata (None if absent) and names to include."""
    path = os.fspath(path)
    raw = load_json(path)
    if not isinstance(raw, dict) or "n" not in raw:
        raise ParseError("simulation designs file must be a JSON object with 'n'", path=path)
    extra = set(raw) - {"n", "n_strata", "include"}
    if extra:
        raise ParseError(f"unknown simulation design field(s) {sorted(extra)}", path=path)
    n, n_strata = raw["n"], raw.get("n_strata")
    if not _is_int(n, 1):
        raise ParseError("simulation 'n' must be a positive integer", path=path)
    if n_strata is not None:
        strata_count(n_strata, "simulation 'n_strata'", path)
    include = raw.get("include", list(names))
    if not isinstance(include, list) or not all(isinstance(name, str) for name in include):
        raise ParseError("simulation 'include' must be a list of design names", path=path)
    unknown = [name for name in include if name not in names]
    if unknown:
        raise ParseError(f"unknown design name(s) {unknown}; pick from {list(names)}", path=path)
    if not include:
        raise ParseError("simulation 'include' must not be empty", path=path)
    return {"n": n, "n_strata": n_strata, "include": include}
