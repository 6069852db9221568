"""Reading and writing curve populations and samples; reading design files.

This module alone reads the design-file format: load_design checks its type,
n and seed, and design_from_json checks each other field against the population.

Curve CSV layout: a header row ``id,t_1,...,t_D``, then one row per unit.
Numeric header cells are the grid points (finite, strictly increasing);
otherwise a uniform grid on [0, 1] is assumed. A value cell holds anything
``float()`` accepts (spaces, ``1_000``, non-ASCII digits) if finite. A
plain file (header on line 1, D commas per row) is parsed by
``np.loadtxt``. A small body, or any body off Linux or on one usable CPU,
is parsed in process by one call whose matrix is kept uncopied. A larger
body is cut after line ends into byte spans, one per usable CPU, which
forked workers parse (this process, if the OS refuses a fork), each
writing its rows into one shared mapping that becomes the read-only
matrix; only the labels come back. In any doubt the file is parsed line
by line with ``float()``, which also names the bad line. The result never depends on
the path taken.
Floats are written with 12 significant digits, which round-trips the
values used here well below every tolerance in the test suite.
"""

from __future__ import annotations

import io
import json
import math
import mmap
import numbers
import os
import sys
from itertools import accumulate
from typing import Any

import numpy as np

from .curves import Curve, CurvePopulation, TimeGrid
from .designs import DESIGNS, StrataSpec, _check_sizes, pps_weights_from_curves
from .errors import DesignError, ParseError
from .forking import forked_map, worker_count
from .stratify import proportional_allocation

__all__ = [
    "read_curves",
    "write_curves",
    "write_curve",
    "write_variance",
    "write_sample",
    "write_losses",
    "load_json",
    "load_design",
    "design_from_json",
    "load_simulation_designs",
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
        pop = _read_plain(path)
    except (OSError, UnicodeDecodeError):
        pop = None  # the per-line parser reports it
    return pop if pop is not None else _read_per_line(path)


# str.splitlines also breaks lines at these, file iteration does not; and
# numpy strips U+001F around a number where float() does not
_SPLIT_ONLY = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u2029")


def _plain(line: str) -> bool:
    return not any(c in line for c in _SPLIT_ONLY)


# A plain file's body is split among forked workers only when each gets at
# least this many bytes. On a 2-vCPU Xeon (two runs of 15 alternating reads
# of 336-point curves, multiprocessing already imported), two workers took
# 51 and 55 ms against one in-process read's 44 and 64 at 4.6 MiB (faster
# in 6 and 13 of 15), 85 and 98 against 93 and 115 at 9.1 MiB (12 and 12)
# and 139 and 109 against 197 and 138 at 13.7 MiB (15 and 13): the line
# count, two forks and the pool's shutdown cost about 25 ms. A process's
# first forking read also imports multiprocessing, about 30 ms.
_MIN_BYTES_PER_WORKER = 4 * 2**20


def _read_plain(path: str) -> CurvePopulation | None:
    """Header on line 1, then the body's values by np.loadtxt.

    A small body is parsed by one call whose matrix is kept uncopied. A
    large one is cut after line ends into one span per usable CPU, each
    parsed by a forked worker into one shared matrix. None when in doubt
    (a line not _plain or blank or not D commas long, a cell numpy
    rejects, a non-finite value, a repeated id); _read_per_line then
    decides.
    """
    with open(path, "rb", buffering=0) as raw:
        size = os.fstat(raw.fileno()).st_size
        header = _text(raw, 0, size, newline="").readline()  # with its line end as read
        d = header.count(",")
        if d == 0 or not _plain(header):
            return None
        grid = _grid_from_header(header, path, 1)
        start = len(header.encode("utf-8"))
        workers = worker_count(size - start, _MIN_BYTES_PER_WORKER)
        spans = _spans(raw, start, size, workers) if workers > 1 else []
    if len(spans) > 1:
        rows = _rows_in_spans(path, d, spans)
    else:
        rows = _rows(path, d, start, size)
    if rows is None:
        return None
    labels, values = rows
    ids = np.array(_unit_ids(labels))
    if len(np.unique(ids)) != len(labels):
        return None
    return CurvePopulation._trusted(values, grid, ids)


class _Span(io.RawIOBase):
    """Bytes lo..hi-1 of an open unbuffered binary file, as a stream of their own."""

    def __init__(self, raw, lo: int, hi: int):
        super().__init__()
        self._raw, self._pos, self._hi = raw, lo, hi

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        self._raw.seek(self._pos)
        n = self._raw.readinto(memoryview(buf).cast("B")[: max(0, self._hi - self._pos)])
        self._pos += n
        return n


def _text(raw, lo: int, hi: int, encoding="utf-8", newline=None) -> io.TextIOWrapper:
    """Bytes lo..hi-1 of raw as text; lines end at \\n, \\r or \\r\\n, as open() ends them."""
    span = io.BufferedReader(_Span(raw, lo, hi), 2**16)
    return io.TextIOWrapper(span, encoding=encoding, newline=newline)


def _rows(path: str, d: int, lo: int, hi: int) -> tuple | None:
    """The labels and the (lines, d) values of bytes lo..hi-1, all of them lines; None in doubt."""
    labels = []

    def cells(lines):
        # each line's cells after its label; numpy refuses a row of another
        # width, and would skip a blank one
        for line in lines:
            label, _, rest = line.partition(",")
            if not rest or rest.isspace() or not _plain(line):
                raise ValueError("not a plain line")
            labels.append(label.strip())
            yield rest

    if lo == hi:
        return None
    with open(path, "rb", buffering=0) as raw:
        try:
            values = np.loadtxt(cells(_text(raw, lo, hi)), delimiter=",", comments=None, ndmin=2)
        except ValueError:  # UnicodeDecodeError too
            return None
    if values.shape != (len(labels), d) or not np.isfinite(values).all():
        return None
    return labels, values


def _line_count(raw, lo: int, hi: int) -> int:
    """The number of lines in bytes lo..hi-1, which end at a line end or at the file's end."""
    buf = bytearray(2**20)
    raw.seek(lo)
    lines, cr_ends_chunk, last = 0, False, 10
    while lo < hi:
        n = raw.readinto(memoryview(buf)[: hi - lo])
        if not n:
            break
        a = np.frombuffer(buf, np.uint8, n)
        if cr_ends_chunk and a[0] != 10:
            lines += 1
        lines += np.count_nonzero(a == 10)
        if buf.find(b"\r", 0, n) >= 0:
            # a lone \r ends a line; a \r\n is one line end, counted at its \n
            lines += np.count_nonzero((a[:-1] == 13) & (a[1:] != 10))
        cr_ends_chunk, last = a[-1] == 13, a[-1]
        lo += n
    return int(lines + cr_ends_chunk + (last not in (10, 13)))


def _spans(raw, start: int, stop: int, parts: int) -> list:
    """Bytes start..stop-1 cut after line ends into at most `parts` spans of
    near-equal size, each as (lo, hi, its line count)."""
    cuts = [start]
    for i in range(1, parts):
        at = start + (stop - start) * i // parts
        # past the first line end from `at`; latin-1 reads one character per byte
        cut = at + len(_text(raw, at, stop, "latin-1", newline="").readline())
        if cuts[-1] < cut < stop:
            cuts.append(cut)
    cuts.append(stop)
    return [(lo, hi, _line_count(raw, lo, hi)) for lo, hi in zip(cuts, cuts[1:])]


def _fill(state: tuple, lo: int, hi: int, r0: int, r1: int) -> list | None:
    """Rows r0..r1-1 of the shared matrix from bytes lo..hi-1; their labels, or None in doubt."""
    path, d, matrix = state
    rows = _rows(path, d, lo, hi)
    if rows is None or len(rows[0]) != r1 - r0:
        return None
    matrix[r0:r1] = rows[1]
    return rows[0]


def _rows_in_spans(path: str, d: int, spans: list) -> tuple | None:
    """_rows over every span, each in a forked worker.

    The workers write their values straight into one anonymous shared
    mapping, the matrix returned, and send back only their labels.
    """
    bounds = list(accumulate((lines for _, _, lines in spans), initial=0))
    matrix = np.frombuffer(mmap.mmap(-1, bounds[-1] * d * 8), np.float64).reshape(-1, d)
    jobs = [(lo, hi, r0, r1) for (lo, hi, _), r0, r1 in zip(spans, bounds, bounds[1:])]
    parts = forked_map(_fill, (path, d, matrix), jobs, len(jobs))
    if any(part is None for part in parts):
        return None
    return [label for part in parts for label in part], matrix


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


def _finite(value) -> bool:
    """A number (not a bool) that float() takes to a finite value, not to an overflow."""
    return _is_number(value) and abs(value) <= sys.float_info.max


def _is_list_of(value, ok) -> bool:
    return isinstance(value, list) and all(ok(v) for v in value)


def load_json(path: str | os.PathLike) -> Any:
    """Parse a JSON file; a fault raises ParseError, on its line where there is one.

    Lines end at \\n, \\r or \\r\\n, for a byte that is not UTF-8 as for a
    syntax error: the line ends become \\n before decoding, which is safe as
    neither byte occurs inside a multi-byte UTF-8 sequence.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            data = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        return json.loads(data.decode("utf-8"))
    except OSError as exc:
        raise ParseError(str(exc), path=path) from exc
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"not UTF-8 text ({exc.reason})", path=path, line=line) from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", path=path, line=exc.lineno) from exc
    except ValueError as exc:
        # the one other ValueError json raises: Python's integer digit limit
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"invalid JSON: an integer has more than {limit} digits", path=path) from exc


def load_design(path: str | os.PathLike) -> dict[str, Any]:
    """A design file's JSON object: type a key of designs.DESIGNS, n a positive
    integer, seed absent or a non-negative integer; design_from_json reads the rest."""
    design = load_json(path)
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
    return design


def design_from_json(spec: dict[str, Any], pop: CurvePopulation):
    """The design a load_design object describes over pop.

    Each field the type reads is taken out of a copy of spec and checked
    once, its JSON type and its value against pop together; a field left
    over is unexpected for the type. The design is built last.
    """
    fields = dict(spec)
    kind, n, n_units = fields.pop("type"), fields.pop("n"), pop.n_units
    fields.pop("seed", None)
    if kind == "systematic":
        args = (_order_key(fields.pop("order_key_column", "mean"), pop), n)
    elif kind == "stratified":
        strata = _strata(fields, kind, n_units)
        args = (strata, _allocation(fields, strata, n))
    elif kind == "ppswr":
        args = (_pps_p(fields.pop("p_source", "mean"), pop, n), n)
    else:
        args = (n_units, n, _strata(fields, kind, n_units) if kind == "poststratified" else None)
    if fields:
        raise DesignError(f"unexpected design field(s) {sorted(fields)} for type {kind!r}")
    return DESIGNS[kind](*args)


def _strata(fields: dict, kind: str, n_units: int) -> StrataSpec:
    """'strata', one integer or string label per unit, canonicalized in sorted order."""
    if "strata" not in fields:
        raise DesignError(f"design type {kind!r} needs per-unit 'strata' labels")
    labels = fields.pop("strata")
    if not _is_list_of(labels, lambda v: isinstance(v, (int, str)) and not isinstance(v, bool)):
        raise DesignError(
            "design 'strata' must be a list of per-unit labels, each an integer or a string"
        )
    if len(labels) != n_units:
        raise DesignError(
            f"'strata' must list one label per population unit ({n_units}), got {len(labels)}"
        )
    # one string label makes them all strings, as numpy would; ints stay exact
    if any(isinstance(v, str) for v in labels):
        return StrataSpec.from_labels([str(v) for v in labels])
    return StrataSpec.from_labels(np.array(labels, dtype=object))


def _allocation(fields: dict, strata: StrataSpec, n: int):
    """'allocation', H positive counts summing to n; proportional when absent."""
    if "allocation" not in fields:
        return proportional_allocation(strata.sizes, n).counts
    alloc = fields.pop("allocation")
    if not _is_list_of(alloc, lambda a: _is_int(a, 1)):
        raise DesignError("design 'allocation' must be a list of positive integers")
    if len(alloc) != strata.n_strata or sum(alloc) != n:
        raise DesignError(f"'allocation' must give {strata.n_strata} counts summing to {n}")
    return alloc


def _order_key(key, pop: CurvePopulation) -> np.ndarray:
    """'order_key_column': "mean", "max" or a grid point index, as a string."""
    if not isinstance(key, str):
        raise DesignError("design 'order_key_column' must be a string")
    if key == "mean":
        return pop.values.mean(axis=1)
    if key == "max":
        return pop.values.max(axis=1)
    try:
        col = int(key)
    except ValueError:
        raise DesignError(
            f"order_key_column must be 'mean', 'max', or a grid point index, got {key!r}"
        ) from None
    if not 0 <= col < pop.grid.n_points:
        raise DesignError(f"order_key_column index {col} outside grid of {pop.grid.n_points}")
    return pop.values[:, col]


def _pps_p(src, pop: CurvePopulation, n: int) -> np.ndarray:
    """'p_source', "mean" or one positive size per unit; n draws fit in the frame."""
    if src == "mean":
        p = pps_weights_from_curves(pop)
    elif not _is_list_of(src, _is_number):
        raise DesignError('design \'p_source\' must be "mean" or a list of per-unit sizes')
    elif len(src) != pop.n_units:
        raise DesignError(f"'p_source' must list one size per unit ({pop.n_units})")
    elif not all(_finite(s) and s > 0 for s in src) or not math.isfinite(sum(map(float, src))):
        raise DesignError("'p_source' sizes must be positive and finite")
    else:
        sizes = np.asarray(src, dtype=float)
        p = sizes / sizes.sum()
    _check_sizes(n, pop.n_units)
    return p


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
