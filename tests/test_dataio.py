"""CSV and design JSON round trips and failure modes."""

import io
import json
import os
import sys
import tracemalloc
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from medcurve import CurvePopulation, ParseError, TimeGrid, dataio
from medcurve.cli import main
from medcurve.dataio import (
    design_from_json,
    load_design,
    load_json,
    read_curves,
    write_curve,
    write_curves,
    write_sample,
    write_variance,
)
from medcurve.errors import DesignError
from medcurve.forking import worker_count

from conftest import no_child_process_remains, refuse_fork

# str.splitlines breaks lines at these, file iteration does not
SEPARATORS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u2029"]


def test_curve_csv_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    grid = TimeGrid.uniform(6, horizon=2.0)
    pop = CurvePopulation(rng.normal(size=(5, 6)), grid, ids=[11, 3, 7, 2, 9])
    path = tmp_path / "pop.csv"
    write_curves(path, pop)
    back = read_curves(path)
    assert np.allclose(back.values, pop.values, rtol=1e-11)
    assert list(back.ids) == [11, 3, 7, 2, 9]
    assert np.allclose(back.grid.points, grid.points, rtol=1e-11)
    assert np.allclose(back.grid.weights, grid.weights, rtol=1e-11)


def test_non_numeric_grid_header_falls_back_to_unit_interval(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text("id,a,b,c,d\n1,0,1,2,3\n2,4,5,6,7\n")
    pop = read_curves(path)
    assert np.allclose(pop.grid.points, TimeGrid.uniform(4).points)
    assert pop.grid.horizon == pytest.approx(1.0)


def test_string_ids_survive_when_not_all_integers(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text("id,0.5,1.5\nhouse-a,1,2\nhouse-b,3,4\n")
    pop = read_curves(path)
    assert list(pop.ids) == ["house-a", "house-b"]


def test_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,0.5,1.5\n1,1,2\n2,3\n")
    with pytest.raises(ParseError) as err:
        read_curves(path)
    assert ":3:" in str(err.value)

    path.write_text("id,0.5,1.5\n1,1,2\n2,x,4\n")
    with pytest.raises(ParseError, match="non-numeric"):
        read_curves(path)

    path.write_text("id,0.5,1.5\n1,1,2\n1,3,4\n")
    with pytest.raises(ParseError, match="duplicate"):
        read_curves(path)

    path.write_text("")
    with pytest.raises(ParseError, match="empty"):
        read_curves(path)


def test_numeric_header_must_be_strictly_increasing(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text("\nid,3,2,1\n1,0,1,2\n")
    with pytest.raises(ParseError, match="strictly increasing") as err:
        read_curves(path)
    assert err.value.line == 2

    path.write_text("id,1,inf\n1,0,1\n")
    with pytest.raises(ParseError, match="finite") as err:
        read_curves(path)
    assert err.value.line == 1


def test_duplicate_id_reports_its_second_line(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text("id,0.5,1.5\n7,1,2\n8,3,4\n\n8,5,6\n7,7,8\n")
    with pytest.raises(ParseError, match="duplicate unit id '8', first seen on line 3") as err:
        read_curves(path)
    assert err.value.line == 5

    # ids are compared as the integers the population keeps
    for first, second in (("1", "01"), ("10", "1_0")):
        path.write_text(f"id,0.5,1.5\n{first},1,2\n4,3,4\n{second},5,6\n")
        with pytest.raises(ParseError, match=f"duplicate unit id '{second}', first seen on line 2") as err:
            read_curves(path)
        assert err.value.line == 4


def test_bulk_parser_defers_what_float_decides(tmp_path, monkeypatch):
    deferred = []

    def per_line(path):
        deferred.append(path)
        return read_per_line(path)

    monkeypatch.setattr(dataio, "_read_per_line", per_line)
    path = tmp_path / "pop.csv"
    path.write_text("id,0.5,1.5\n1, 2.5 ,-3e2\nx,4,5\n")
    assert np.array_equal(read_curves(path).values, [[2.5, -300.0], [4.0, 5.0]])
    assert not deferred
    # numpy rejects the first two although float() takes them; ragged and
    # non-finite rows also go to the per-line parser, and so does a line
    # that str.splitlines would break where file iteration does not
    rows = ["1,1_000,2", "1,\uff11,2", "1,2,3,4", "1,2", "1,nan,2", "1,1e999,2"]
    for c in SEPARATORS:
        rows += [f"1{c},2,3", f"1,2{c},3", f"1,2,3{c}"]
    for row in rows:
        path.write_text(f"id,0.5,1.5\n{row}\n", encoding="utf-8")
        deferred.clear()
        assert_reads_as_per_line(path)
        assert deferred == [str(path)]


def test_unit_separator_is_not_whitespace(tmp_path):
    # numpy would strip U+001F around a number; float() does not
    path = tmp_path / "pop.csv"
    path.write_text("id,0.5,1.5\n1,1,\x1f2\n")
    with pytest.raises(ParseError, match="non-numeric") as err:
        read_curves(path)
    assert err.value.line == 2


def test_plain_file_is_read_in_one_numpy_call(tmp_path, monkeypatch):
    rng = np.random.default_rng(11)
    pop = CurvePopulation(rng.normal(size=(2000, 336)), TimeGrid.uniform(336))
    path = tmp_path / "pop.csv"
    write_curves(path, pop)

    def per_line(path):
        raise AssertionError("a plain numeric file reached the per-line parser")

    monkeypatch.setattr(dataio, "_read_per_line", per_line)
    # on one usable CPU, so that no worker parses what tracemalloc cannot see
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    tracemalloc.start()
    try:
        got = read_curves(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the matrix numpy builds is the one kept: no copy, no list of lines
    assert peak <= 1.5 * got.values.nbytes
    assert not got.values.flags.writeable and not got.ids.flags.writeable
    assert np.allclose(got.values, pop.values, rtol=1e-11)
    assert np.array_equal(got.ids, pop.ids)


def test_bytes_that_are_not_utf8_name_their_line(tmp_path):
    # far past the first block the text layer decodes, after a form feed
    # that str.splitlines counts as a line break
    path = tmp_path / "pop.csv"
    rows = [f"{i},{i}.5,2" for i in range(1, 1000)]
    path.write_bytes(("id,0.5,1.5\n\x0c\n" + "\n".join(rows) + "\n").encode() + b"7,\xc3(,1\n")
    with pytest.raises(ParseError, match="not UTF-8 text") as err:
        read_curves(path)
    assert err.value.line == 1003 and err.value.path == str(path)


def read_per_line(path) -> CurvePopulation:
    """Reference reader: every value cell through float(), one line at a time."""
    path = str(path)
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = [(i + 1, line) for i, line in enumerate(lines) if line.strip()]
    if not rows:
        raise ParseError("file is empty", path=path)
    header_no, header = rows[0]
    cells = [c.strip() for c in header.split(",")]
    if len(cells) < 2 or cells[0].lower() != "id":
        raise ParseError("header must be 'id' followed by grid columns", path=path, line=header_no)
    d = len(cells) - 1
    try:
        points = [float(c) for c in cells[1:]]
    except ValueError:
        grid = TimeGrid.uniform(d)
    else:
        try:
            grid = TimeGrid.from_points(points)
        except ValueError as exc:
            raise ParseError(f"invalid grid header: {exc}", path=path, line=header_no)
    if len(rows) == 1:
        raise ParseError("no curve rows after the header", path=path, line=header_no)
    ids, values, first_line = [], [], {}
    for line_no, line in rows[1:]:
        cells = line.split(",")
        if len(cells) != d + 1:
            raise ParseError(f"expected {d + 1} columns, found {len(cells)}", path=path, line=line_no)
        row = []
        for cell in cells[1:]:
            try:
                v = float(cell)
            except ValueError:
                raise ParseError(f"non-numeric value {cell.strip()!r}", path=path, line=line_no)
            if not np.isfinite(v):
                raise ParseError(f"non-finite value {cell.strip()!r}", path=path, line=line_no)
            row.append(v)
        ids.append((line_no, cells[0].strip()))
        values.append(row)
    labels = [uid for _, uid in ids]
    try:
        keys = [int(i) for i in labels]
    except ValueError:
        keys = labels
    for (line_no, label), key in zip(ids, keys):
        first = first_line.setdefault(key, line_no)
        if first != line_no:
            raise ParseError(
                f"duplicate unit id {label!r}, first seen on line {first}", path=path, line=line_no
            )
    try:
        return CurvePopulation(np.array(values), grid, ids=np.array(keys))
    except ValueError as exc:
        raise ParseError(str(exc), path=path)


NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6).map(lambda v: "%.12g" % v),
    st.integers(-(10**20), 10**20).map(str),
)
ODD_CELLS = st.sampled_from(
    ["1_000", " 1.5 ", "\t-2\t", "nan", "-inf", "Infinity", "1e999", "#3", "x", "", " ",
     "\uff11", "\u00a03", "\x1f2", "0x10", "+.5", "1e", "1j", '"2"', "-0", "\x00"]
)
IDS = st.one_of(st.integers(0, 10**6).map(str), st.sampled_from(["a", " b ", "01", "1_0", "", "\uff17"]))
GOOD_HEADERS = [["0.5", "1.5", "2.5"], ["t1", "t2", "t3"], ["0", "0.25", "1"]]
HEADERS = st.sampled_from(2 * GOOD_HEADERS + [["3", "2", "1"], ["0", "nan", "1"]])


@st.composite
def csv_texts(draw):
    header = draw(HEADERS)
    d = len(header)
    # half the files hold plain numbers only, so the bulk path parses them
    cell = NUMBERS if draw(st.booleans()) else st.one_of(NUMBERS, ODD_CELLS)
    lines = ["id," + ",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t", "\u00a0", "\u3000 "])))
            continue
        width = d + (draw(st.sampled_from([-1, 1])) if draw(st.integers(0, 9)) == 0 else 0)
        cells = draw(st.lists(cell, min_size=width, max_size=width))
        lines.append(",".join([draw(IDS)] + cells))
    for _ in range(draw(st.integers(0, 2)) if draw(st.integers(0, 3)) == 0 else 0):
        i = draw(st.integers(0, len(lines) - 1))
        at = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:at] + draw(st.sampled_from(SEPARATORS)) + lines[i][at:]
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_texts())
def test_bulk_reader_matches_the_per_line_reader(tmp_path, text):
    path = tmp_path / "pop.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_reads_as_per_line(path)


def assert_reads_as_per_line(path):
    try:
        want = read_per_line(path)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            read_curves(path)
        assert str(err.value) == str(exc) and err.value.line == exc.line
        return
    got = read_curves(path)
    assert np.array_equal(got.values.view(np.int64), want.values.view(np.int64))
    assert got.ids.dtype == want.ids.dtype and np.array_equal(got.ids, want.ids)
    assert np.array_equal(got.grid.points, want.grid.points)
    assert np.array_equal(got.grid.weights, want.grid.weights)


linux_only = pytest.mark.skipif(sys.platform != "linux", reason="spans are forked on Linux only")


def force_split(monkeypatch, cpus=3):
    """Cut every plain body of two lines or more into up to `cpus` spans, each read by a worker."""
    monkeypatch.setattr(dataio, "_MIN_BYTES_PER_WORKER", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert worker_count(2, dataio._MIN_BYTES_PER_WORKER) == 2


def record_spans(monkeypatch) -> list:
    """The (lo, hi, lines) spans of each split read, appended as it starts."""
    seen = []
    split = dataio._rows_in_spans

    def rows_in_spans(path, d, spans):
        seen.append(spans)
        return split(path, d, spans)

    monkeypatch.setattr(dataio, "_rows_in_spans", rows_in_spans)
    return seen


def refuse_per_line(monkeypatch):
    def per_line(path):
        raise AssertionError("a plain file reached the per-line parser")

    monkeypatch.setattr(dataio, "_read_per_line", per_line)


def plain_read(path):
    """What the bulk path decides: a population, None (in doubt) or its error's text."""
    try:
        return dataio._read_plain(str(path))
    except ParseError as exc:
        return str(exc)


def assert_same_decision(a, b):
    if isinstance(a, CurvePopulation) and isinstance(b, CurvePopulation):
        assert a.values.tobytes() == b.values.tobytes()
        assert a.ids.dtype == b.ids.dtype and np.array_equal(a.ids, b.ids)
        assert a.grid.points.tobytes() == b.grid.points.tobytes()
    else:
        assert a == b


@linux_only
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_texts())
def test_split_reader_matches_the_whole_and_the_per_line_reader(tmp_path, monkeypatch, text):
    # the bulk test's files, each body cut into up to three spans, two of them read by forked workers
    path = tmp_path / "pop.csv"
    path.write_bytes(text.encode("utf-8"))
    whole = plain_read(path)
    with monkeypatch.context() as patch:
        force_split(patch)
        split = plain_read(path)
        assert_reads_as_per_line(path)
    # the spans are in doubt exactly when the whole body is, and otherwise agree bit for bit
    assert_same_decision(split, whole)
    no_child_process_remains()


ROWS = [f"{i},{i}.25,-{i}e3" for i in range(1, 10)]


@linux_only
@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("last_ended", [True, False])
def test_split_read_needs_no_per_line_parse(tmp_path, monkeypatch, ending, last_ended):
    path = tmp_path / "pop.csv"
    path.write_bytes((ending.join(["id,0.5,1.5", *ROWS]) + (ending if last_ended else "")).encode())
    force_split(monkeypatch)
    seen = record_spans(monkeypatch)
    refuse_per_line(monkeypatch)
    got = read_curves(path)
    # three spans whose line counts (the rows each writes) sum to the rows
    assert len(seen) == 1 and len(seen[0]) == 3
    assert sum(lines for _, _, lines in seen[0]) == len(ROWS)
    assert np.array_equal(got.values, [[i + 0.25, -i * 1e3] for i in range(1, 10)])
    assert list(got.ids) == list(range(1, 10))
    assert not got.values.flags.writeable
    no_child_process_remains()


@linux_only
@pytest.mark.parametrize("after", range(1, len(ROWS)))
def test_a_cut_next_to_a_blank_line(tmp_path, monkeypatch, after):
    path = tmp_path / "pop.csv"
    path.write_text("\n".join(["id,0.5,1.5", *ROWS[:after], "", *ROWS[after:]]) + "\n")
    force_split(monkeypatch, cpus=2)
    assert_reads_as_per_line(path)
    no_child_process_remains()


@linux_only
@pytest.mark.parametrize(
    "fault, message",
    [("7,x,1", "non-numeric"), ("7,inf,1", "non-finite"), ("3,1,1", "duplicate unit id '3'")],
)
def test_a_fault_in_the_second_span_names_its_line(tmp_path, monkeypatch, fault, message):
    path = tmp_path / "pop.csv"
    rows = [f"{i},{i}.5,2" for i in range(1, 200)]
    path.write_text("\n".join(["id,0.5,1.5", *rows[:180], fault, *rows[181:]]) + "\n")
    force_split(monkeypatch, cpus=2)
    seen = record_spans(monkeypatch)
    with pytest.raises(ParseError, match=message) as err:
        read_curves(path)
    assert err.value.line == 182
    assert len(seen[0]) == 2 and seen[0][1][0] < path.read_bytes().index(fault.encode())
    assert_reads_as_per_line(path)
    no_child_process_remains()


@linux_only
def test_bytes_that_are_not_utf8_in_the_second_span_name_their_line(tmp_path, monkeypatch):
    # past the part of the file that reading the header decodes
    path = tmp_path / "pop.csv"
    rows = [f"{i},{i}.5,2" for i in range(1, 2000)]
    path.write_bytes(("id,0.5,1.5\n" + "\n".join(rows) + "\n").encode() + b"7,\xc3(,1\n")
    force_split(monkeypatch, cpus=2)
    seen = record_spans(monkeypatch)
    with pytest.raises(ParseError, match="not UTF-8 text") as err:
        read_curves(path)
    assert err.value.line == 2001
    assert len(seen[0]) == 2 and seen[0][1][0] > 2**13
    no_child_process_remains()


@linux_only
def test_a_reader_worker_that_dies_fails_the_read_and_leaves_no_child(tmp_path, monkeypatch, capsys):
    path = tmp_path / "pop.csv"
    path.write_text("\n".join(["id,0.5,1.5", *ROWS]) + "\n")
    reader, rows = os.getpid(), dataio._rows

    def dies_in_a_worker(*args):
        if os.getpid() != reader:
            os._exit(9)
        return rows(*args)

    monkeypatch.setattr(dataio, "_rows", dies_in_a_worker)
    force_split(monkeypatch)
    with pytest.raises(BrokenProcessPool):
        read_curves(path)
    no_child_process_remains()
    assert main(["median", "--input", str(path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: a worker process died") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()
    no_child_process_remains()


@linux_only
@pytest.mark.parametrize("nth", [1, 2])
def test_a_refused_fork_reads_the_spans_here_with_one_warning(tmp_path, monkeypatch, capsys, nth):
    path = tmp_path / "pop.csv"
    path.write_text("\n".join(["id,0.5,1.5", *ROWS]) + "\n")
    want = read_curves(path)  # under the byte threshold on this machine
    assert main(["median", "--input", str(path), "--out", str(tmp_path / "whole")]) == 0
    assert capsys.readouterr().err == ""
    force_split(monkeypatch, cpus=2)
    seen = record_spans(monkeypatch)
    refuse_per_line(monkeypatch)
    refuse_fork(monkeypatch, nth)
    with pytest.warns(RuntimeWarning) as caught:
        got = read_curves(path)
    assert len(caught) == 1 and "could not fork a worker process" in str(caught[0].message)
    assert len(seen) == 1 and len(seen[0]) == 2
    assert_same_decision(got, want)
    no_child_process_remains()
    assert main(["median", "--input", str(path), "--out", str(tmp_path / "split")]) == 0
    err = capsys.readouterr().err
    assert err.startswith("note: could not fork a worker process") and err.count("\n") == 1
    for name in ("median.csv", "diagnostics.json"):
        assert (tmp_path / "split" / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()
    assert len(seen) == 2
    no_child_process_remains()


def test_small_bodies_and_one_usable_cpu_fork_nothing(tmp_path, monkeypatch):
    def forked_map(*args):
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(dataio, "forked_map", forked_map)
    path = tmp_path / "pop.csv"
    path.write_text("\n".join(["id,0.5,1.5", *ROWS]) + "\n")
    want = read_curves(path)  # under the byte threshold on this machine
    monkeypatch.setattr(dataio, "_MIN_BYTES_PER_WORKER", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert_same_decision(read_curves(path), want)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(sys, "platform", "darwin")
    assert_same_decision(read_curves(path), want)


def test_line_ends_across_read_chunks():
    # a \r that ends one chunk and a \n that starts the next are one line end
    for end in (b"\r\n", b"\r", b"\n"):
        # the cut is sought from the midpoint, the start of the second line,
        # and the line's end closes the first 64 KiB read from there
        second = b"y" * (2**16 - 1) + end + b"z\n"
        data = b"x" * (len(second) - 1) + b"\n" + second
        spans = dataio._spans(io.BytesIO(data), 0, len(data), 2)
        cut = len(data) - 2
        assert [(lo, hi, lines) for lo, hi, lines in spans] == [(0, cut, 2), (cut, len(data), 1)]
    chunk = 2**20
    for tail, lines in ((b"\r\nb\rc", 3), (b"\rb", 2), (b"\r", 1), (b"\n\n", 2)):
        data = b"a" * (chunk - 1) + tail
        assert dataio._line_count(io.BytesIO(data), 0, len(data)) == lines


def test_single_curve_and_variance_writers(tmp_path):
    grid = TimeGrid.uniform(3)
    from medcurve import Curve

    write_curve(tmp_path / "m.csv", Curve(np.array([1.0, 2.0, 3.0]), grid))
    lines = (tmp_path / "m.csv").read_text().splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == 4

    write_variance(tmp_path / "v.csv", grid, np.array([0.1, 0.2, 0.3]))
    lines = (tmp_path / "v.csv").read_text().splitlines()
    assert lines[0] == "t,variance"
    assert lines[1].split(",")[1] == "0.1"

    write_sample(tmp_path / "s.csv", [4, 9], [0.25, 0.25], [4.0, 4.0])
    lines = (tmp_path / "s.csv").read_text().splitlines()
    assert lines[0] == "unit_id,pi,weight"
    assert lines[1] == "4,0.25,4"


def test_twelve_significant_digits(tmp_path):
    grid = TimeGrid.uniform(1)
    pop = CurvePopulation(np.array([[1.0 / 3.0]]), grid)
    write_curves(tmp_path / "p.csv", pop)
    cell = (tmp_path / "p.csv").read_text().splitlines()[1].split(",")[1]
    assert cell == "0.333333333333"


def _design(tmp_path, spec, pop=None):
    """The design a file holding spec describes over pop (8 positive curves by default)."""
    path = tmp_path / "design.json"
    path.write_text(json.dumps(spec))
    if pop is None:
        pop = CurvePopulation(np.arange(1.0, 25.0).reshape(8, 3), TimeGrid.uniform(3))
    return design_from_json(load_design(path), pop)


def test_design_json_load_and_validation(tmp_path):
    path = tmp_path / "design.json"
    path.write_text(json.dumps({"type": "srswor", "n": 10, "seed": 4}))
    design = load_design(path)
    assert design["type"] == "srswor" and design["n"] == 10

    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_design(path)

    with pytest.raises(DesignError, match="unknown design type"):
        _design(tmp_path, {"type": "quota", "n": 5})
    with pytest.raises(DesignError, match="positive integer"):
        _design(tmp_path, {"type": "srswor", "n": 0})
    with pytest.raises(DesignError, match="unexpected"):
        _design(tmp_path, {"type": "srswor", "n": 5, "strata": [1, 2]})
    labels = [1, 1, 1, 1, 2, 2, 2, 2]
    _design(tmp_path, {"type": "stratified", "n": 8, "strata": labels, "allocation": [4, 4]})
    with pytest.raises(DesignError, match="allocation"):
        _design(tmp_path, {"type": "stratified", "n": 8, "strata": labels, "allocation": [4, 0]})
    _design(tmp_path, {"type": "systematic", "n": 8, "order_key_column": "mean"})
    _design(tmp_path, {"type": "ppswr", "n": 8, "p_source": "mean"})
    _design(tmp_path, {"type": "ppswr", "n": 8, "p_source": [1, 2.5] * 4})
    for src in ("aux", "max", ["a"], [True]):
        with pytest.raises(DesignError, match="p_source"):
            _design(tmp_path, {"type": "ppswr", "n": 8, "p_source": src})
    _design(tmp_path, {"type": "poststratified", "n": 4, "strata": [1, "a", 2, -3] * 2})
    for dtype in ("stratified", "poststratified"):
        for strata in ([1, None, 2, 2], [{}, 1, 2, 2], [True, 1, 2, 2], [1.5, 1, 2, 2], "1122"):
            with pytest.raises(DesignError, match="'strata' must be a list of per-unit labels"):
                _design(tmp_path, {"type": dtype, "n": 4, "strata": strata})
        with pytest.raises(DesignError, match="needs per-unit 'strata'"):
            _design(tmp_path, {"type": dtype, "n": 4})
    with pytest.raises(DesignError, match="unknown design type"):
        _design(tmp_path, {"type": ["srswor"], "n": 4})


def test_json_that_is_not_utf8_names_its_line(tmp_path):
    # the line counts the \n and the bare \r before the bad byte
    path = tmp_path / "design.json"
    path.write_bytes(b'{"type": "srswor",\n"n": 5,\r"x": "\xff"}\n')
    with pytest.raises(ParseError, match=r"design\.json:3: not UTF-8 text"):
        load_json(path)


@pytest.mark.parametrize("end", ["\n", "\r", "\r\n"])
@pytest.mark.parametrize("fault, message", [(b'"\xff"', "not UTF-8 text"), (b"5 6", "invalid JSON")])
def test_a_json_fault_names_its_line_whatever_the_line_ends(tmp_path, end, fault, message):
    path = tmp_path / "design.json"
    path.write_bytes(end.encode().join([b'{"type": "srswor",', b'"n": 5,', b'"x": ' + fault, b"}", b""]))
    with pytest.raises(ParseError, match=message) as err:
        load_json(path)
    assert err.value.line == 3
