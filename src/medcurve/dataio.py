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
import os
from typing import Any

import numpy as np

from .curves import Curve, CurvePopulation, TimeGrid
from .errors import DesignError, ParseError

__all__ = [
    "read_curves",
    "write_curves",
    "write_curve",
    "write_variance",
    "write_sample",
    "load_design",
    "validate_design",
]

_FMT = "%.12g"

DESIGN_TYPES = ("srswor", "systematic", "stratified", "ppswr", "poststratified")


def _fmt(x: float) -> str:
    return _FMT % x


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
    ids = [line.partition(",")[0].strip() for _, line in body]
    seen: set[str] = set()
    for (line_no, _), uid in zip(body, ids):
        if uid in seen:
            raise ParseError(f"duplicate unit id {uid!r}", path=path, line=line_no)
        seen.add(uid)
    id_array: np.ndarray
    try:
        id_array = np.array([int(i) for i in ids])
    except ValueError:
        id_array = np.array(ids)
    try:
        return CurvePopulation(values, grid, ids=id_array)
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


def validate_design(design: dict[str, Any]) -> dict[str, Any]:
    """Check a design description and return it with defaults filled in.

    Required keys: type (one of srswor, systematic, stratified, ppswr,
    poststratified) and n (positive integer). Optional: seed, strata
    (list of per-unit labels, stratified/poststratified only),
    order_key_column (systematic only), p_source (ppswr only).
    """
    if not isinstance(design, dict):
        raise DesignError("design description must be a JSON object")
    dtype = design.get("type")
    if dtype not in DESIGN_TYPES:
        raise DesignError(f"unknown design type {dtype!r}; expected one of {DESIGN_TYPES}")
    n = design.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DesignError("design 'n' must be a positive integer")
    seed = design.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool) or seed < 0):
        raise DesignError("design 'seed' must be a non-negative integer")
    allowed = {"type", "n", "seed"}
    if dtype in ("stratified", "poststratified"):
        allowed.add("strata")
        strata = design.get("strata")
        if strata is not None and not isinstance(strata, list):
            raise DesignError("design 'strata' must be a list of per-unit labels")
        if dtype == "stratified":
            allowed.add("allocation")
            alloc = design.get("allocation")
            if alloc is not None and (
                not isinstance(alloc, list)
                or not all(isinstance(a, int) and not isinstance(a, bool) and a >= 1 for a in alloc)
            ):
                raise DesignError("design 'allocation' must be a list of positive integers")
    if dtype == "systematic":
        allowed.add("order_key_column")
        key = design.get("order_key_column")
        if key is not None and not isinstance(key, str):
            raise DesignError("design 'order_key_column' must be a string")
    if dtype == "ppswr":
        allowed.add("p_source")
        src = design.get("p_source")
        if src is not None and not isinstance(src, (str, list)):
            raise DesignError("design 'p_source' must be a string or a list of per-unit sizes")
    extra = set(design) - allowed
    if extra:
        raise DesignError(f"unexpected design field(s) {sorted(extra)} for type {dtype!r}")
    return dict(design)


def load_design(path: str | os.PathLike) -> dict[str, Any]:
    path = os.fspath(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            design = json.load(fh)
    except OSError as exc:
        raise ParseError(str(exc), path=path) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", path=path, line=exc.lineno) from exc
    return validate_design(design)
