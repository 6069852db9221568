"""Reading and writing curve populations, samples, and design descriptions.

Curve CSV layout: a header row ``id,t_1,...,t_D``, then one row per unit.
Numeric header cells are the grid points (finite, strictly increasing);
otherwise a uniform grid on [0, 1] is assumed. A value cell holds anything
``float()`` accepts (spaces, ``1_000``, non-ASCII digits) if finite. A
plain file (header on line 1, D commas per row) is parsed by one
``np.loadtxt`` whose matrix is kept uncopied; in any doubt the file is
parsed line by line with ``float()``, which also names the bad line.
Floats are written with 12 significant digits, which round-trips the
values used here well below every tolerance in the test suite.
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
    ragged rows, non-numeric or non-finite values, duplicate ids, non-UTF-8.
    """
    path = os.fspath(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            pop = _read_plain(fh, path)
    except (OSError, UnicodeDecodeError):
        pop = None  # the per-line parser reports it
    return pop if pop is not None else _read_per_line(path)


# str.splitlines also breaks lines at these, file iteration does not; and
# numpy strips U+001F around a number where float() does not
_SPLIT_ONLY = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u2029")


def _plain(line: str, d: int) -> bool:
    return line.count(",") == d and not any(c in line for c in _SPLIT_ONLY)


def _read_plain(fh, path: str) -> CurvePopulation | None:
    """Header on line 1, then all values in one np.loadtxt on the open file.

    None when in doubt (a line not _plain, a cell numpy rejects, a non-finite
    value, a repeated id); _read_per_line then decides.
    """
    header = fh.readline()
    d = header.count(",")
    if d == 0 or not _plain(header, d):
        return None
    grid = _grid_from_header(header, path, 1)
    start = fh.tell()
    labels = []
    for line in fh:
        if not _plain(line, d):
            return None
        labels.append(line.partition(",")[0].strip())
    ids = np.array(_unit_ids(labels))
    if not labels or len(np.unique(ids)) != len(labels):
        return None
    fh.seek(start)
    try:
        values = np.loadtxt(fh, delimiter=",", usecols=range(1, d + 1), comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape != (len(labels), d) or not np.isfinite(values).all():
        return None
    return CurvePopulation._trusted(values, grid, ids)


def _grid_from_header(header: str, path: str, line_no: int) -> TimeGrid:
    cells = [c.strip() for c in header.split(",")]
    if len(cells) < 2 or cells[0].lower() != "id":
        raise ParseError("header must be 'id' followed by grid columns", path=path, line=line_no)
    try:
        points = np.array([float(c) for c in cells[1:]])
    except ValueError:
        return TimeGrid.uniform(len(cells) - 1)
    try:
        return TimeGrid.from_points(points)
    except ValueError as exc:
        raise ParseError(f"invalid grid header: {exc}", path=path, line=line_no) from exc


def _unit_ids(labels: list[str]) -> list:
    """The labels as integers when every one is an integer, else as given."""
    try:
        return [int(label) for label in labels]
    except ValueError:
        return labels


def read_text(path: str) -> str:
    """The file as UTF-8 text, else ParseError (at a bad byte's str.splitlines line)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        return data.decode("utf-8")
    except OSError as exc:
        raise ParseError(str(exc), path=path) from exc
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"not UTF-8 text ({exc.reason})", path=path, line=line) from None


def _read_per_line(path: str) -> CurvePopulation:
    """Split with str.splitlines, parse each cell with float(), raise at the first bad line."""
    text = read_text(path)
    rows = [(i + 1, line) for i, line in enumerate(text.splitlines()) if line.strip()]
    del text
    if not rows:
        raise ParseError("file is empty", path=path)
    header_no, header = rows[0]
    grid = _grid_from_header(header, path, header_no)
    body = rows[1:]
    if not body:
        raise ParseError("no curve rows after the header", path=path, line=header_no)
    d = grid.n_points
    values = np.empty((len(body), d))
    for r, (line_no, line) in enumerate(body):
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
    labels = [line.partition(",")[0].strip() for _, line in body]
    ids = _unit_ids(labels)
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
