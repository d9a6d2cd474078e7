"""load(emit(x)) returns x at the emitted precision, bit for bit.

Every float is written at 12 significant digits, so the loaded value is
exactly ``round_float(x)``: -0.0 comes back as 0.0, holes as NaN, and
subnormals and values near the float64 limits survive. Calendars are monthly
or daily and reach the last writable month, 9999-12. The bytes themselves
match a reference writer that formats and quotes every cell on its own.

Wide files are read in bulk where they can be: on any generated file, odd
or wrong, that path either declines or returns exactly what the per-line
parser returns, and the files the program and its benchmark write take it.
"""

import csv
import importlib.util
import io
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factormom import panel
from factormom.momentum import GridResult
from factormom.panel import (
    Calendar,
    NamedSeries,
    PanelError,
    ReturnPanel,
    emit_csv,
    load_panel,
    load_series,
    round_float,
)

# ordinals of the first and last writable date of each resolution
SPANS = {
    unit: (int(np.datetime64(lo, unit).astype(np.int64)),
           int(np.datetime64(hi, unit).astype(np.int64)))
    for unit, lo, hi in (("M", "0000-01", "9999-12"), ("D", "0000-01-01", "9999-12-31"))
}
# full float64 range: -0.0, subnormals, 1e-300 and 1e300 scales
floats = st.floats(allow_nan=False, allow_infinity=False)
names = st.text("abcXYZ019_-,\" ", min_size=1, max_size=6).filter(lambda x: x == x.strip())
# any name at all, weighted towards what CSV quoting or a stripping reader mangles
any_names = st.text(st.sampled_from(" \t\n\r\x00\x1c\xa0\u2028,\"#a") | st.characters(),
                    max_size=5)
roundtrip_settings = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def calendars(draw, max_len=12):
    unit = draw(st.sampled_from(sorted(SPANS)))
    lo, hi = SPANS[unit]
    ordinals = draw(st.lists(st.sampled_from([lo, hi]) | st.integers(lo, hi),
                             min_size=1, max_size=max_len, unique=True))
    return Calendar(np.sort(np.array(ordinals)).astype(f"datetime64[{unit}]"))


@st.composite
def matrices(draw, shape):
    cells = draw(st.lists(floats, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    values = np.array(cells, float).reshape(shape)
    holes = draw(st.lists(st.booleans(), min_size=values.size, max_size=values.size))
    values[np.array(holes, bool).reshape(shape)] = np.nan
    return values


def emitted(values):
    """What a load returns for ``values``: each float rounded as written."""
    return np.array([np.nan if np.isnan(x) else round_float(x) for x in values.flat]).reshape(
        values.shape)


@roundtrip_settings
@given(calendars(), st.lists(names, min_size=1, max_size=5, unique=True), st.data())
def test_panel_round_trip(tmp_path_factory, cal, assets, data):
    values = data.draw(matrices((len(cal), len(assets))))
    path = tmp_path_factory.mktemp("panel") / "p.csv"
    emit_csv(ReturnPanel(cal, tuple(assets), values), path, header={"seed": 1})
    back = load_panel(path, "wide", allow_missing=True)
    assert back.calendar == cal and back.assets == tuple(assets)
    assert back.values.tobytes() == emitted(values).tobytes()


@roundtrip_settings
@given(calendars(), names, st.data())
def test_series_round_trip(tmp_path_factory, cal, name, data):
    values = data.draw(matrices((len(cal), 1)))[:, 0]
    path = tmp_path_factory.mktemp("series") / "s.csv"
    emit_csv(NamedSeries(cal, name, values), path)
    back = load_series(path, allow_missing=True)
    assert back.calendar == cal and back.name == name
    assert back.values.tobytes() == emitted(values).tobytes()


@roundtrip_settings
@given(st.lists(st.integers(0, 99), min_size=1, max_size=4, unique=True),
       st.lists(st.integers(1, 99), min_size=1, max_size=4, unique=True), st.data())
def test_grid_round_trip(tmp_path_factory, m_values, n_values, data):
    cells = data.draw(matrices((len(m_values), len(n_values))))
    path = tmp_path_factory.mktemp("grid") / "g.csv"
    emit_csv(GridResult(tuple(m_values), tuple(n_values), cells, "sharpe"), path)
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["m", *map(str, n_values)]
    assert [int(row[0]) for row in rows] == m_values
    back = np.array([[float(c) if c else np.nan for c in row[1:]] for row in rows])
    assert back.tobytes() == emitted(cells).tobytes()


@roundtrip_settings
@given(st.lists(any_names, min_size=1, max_size=3, unique=True), st.booleans())
def test_any_name_round_trips_or_is_refused(tmp_path_factory, names, as_series):
    cal = Calendar(["2000-01", "2000-02"])
    values = np.zeros((2, len(names)))
    obj = (NamedSeries(cal, names[0], values[:, 0]) if as_series
           else ReturnPanel(cal, tuple(names), values))
    path = tmp_path_factory.mktemp("names") / "n.csv"
    try:
        emit_csv(obj, path)
    except PanelError:
        assert not path.exists()
        return
    back = load_panel(path)
    assert back.assets == ((names[0],) if as_series else tuple(names))


# every cell at the edges of formatting: signed zeros, holes, infinities,
# subnormals and values at the float64 limit
edge_floats = st.sampled_from([
    0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 1.79e308, -1.8e307, 1e-300,
]) | st.floats()
quoted_names = st.sampled_from(["a,b", 'q"x']) | names
headers = st.none() | st.dictionaries(st.sampled_from(["command", "seed", "stat"]),
                                      st.integers(0, 99) | st.text("ab-_", max_size=4))


def reference_csv(columns, keys, cells, header) -> bytes:
    """The per-cell writer: each cell formatted alone, every row through
    ``csv.writer``; holes and infinities empty, -0.0 written as 0."""
    def fmt(x):
        if not np.isfinite(x):
            return ""
        return "{:.12g}".format(0.0 if x == 0.0 else x)

    out = io.StringIO(newline="")
    for key, val in (header or {}).items():
        out.write(f"# {key}={val}\r\n")
    writer = csv.writer(out)
    writer.writerow(columns)
    for key, row in zip(keys, cells):
        writer.writerow([key, *(fmt(x) for x in row)])
    return out.getvalue().encode()


@st.composite
def emittables(draw):
    """(object, its columns, row keys and cells) for a panel, series or grid,
    with some rows all missing."""
    kind = draw(st.sampled_from(["panel", "series", "grid"]))
    if kind == "grid":
        m_values = draw(st.lists(st.integers(0, 99), min_size=1, max_size=4, unique=True))
        n_values = draw(st.lists(st.integers(1, 99), min_size=1, max_size=4, unique=True))
        columns, keys = ["m", *map(str, n_values)], [str(m) for m in m_values]
    else:
        cal = draw(calendars(max_len=6))
        width = 1 if kind == "series" else draw(st.integers(1, 4))
        assets = draw(st.lists(quoted_names, min_size=width, max_size=width, unique=True))
        columns, keys = ["date", *assets], list(cal.labels)
    shape = (len(keys), len(columns) - 1)
    cells = np.array(draw(st.lists(edge_floats, min_size=shape[0] * shape[1],
                                   max_size=shape[0] * shape[1])), float).reshape(shape)
    cells[draw(st.lists(st.booleans(), min_size=shape[0], max_size=shape[0]))] = np.nan
    if kind == "grid":
        obj = GridResult(tuple(m_values), tuple(n_values), cells, "sharpe")
    elif kind == "series":
        obj = NamedSeries(cal, assets[0], cells[:, 0])
    else:
        obj = ReturnPanel(cal, tuple(assets), cells)
    return obj, columns, keys, cells


@settings(max_examples=300, deadline=None, derandomize=True)
@given(emittables(), headers)
def test_emit_bytes_match_per_cell_writer(tmp_path_factory, case, header):
    obj, columns, keys, cells = case
    path = tmp_path_factory.mktemp("bytes") / "b.csv"
    emit_csv(obj, path, header)
    assert path.read_bytes() == reference_csv(columns, keys, cells, header)


def straddling_cases():
    """A 20 x 3 panel whose incomplete rows sit on both sides of the chunk
    edges at 2 and 7 rows, with an all-missing row and the formatting edges;
    a series and a one-row panel cut from it; a grid with NaN cells; a 12 x 40
    panel with a hole or an infinity in every row beside a -0.0, so that every
    chunk at any size deletes tokens."""
    cal = Calendar.periods(20, "1990-01")
    values = np.random.default_rng(3).normal(0.0, 0.05, (20, 3))
    values[[1, 2, 6, 7, 13, 14, 19], [0, 2, 1, 0, 2, 1, 2]] = np.nan
    values[[4, 9], [1, 0]] = [np.inf, -np.inf]
    values[10] = np.nan
    values[11] = [1e16, 1e-5, -0.0]
    grid = np.array([[0.5, np.nan, -0.0], [np.nan, np.nan, np.nan], [1e16, 1e-5, np.inf]])
    wide = np.random.default_rng(4).normal(0.0, 0.05, (12, 40))
    rows = np.arange(12)
    wide[rows, 3 * rows] = np.array([np.nan, np.inf, -np.inf])[rows % 3]
    wide[rows, 3 * rows + 1] = -0.0
    assets = tuple(f"s{j:02d}" for j in range(40))
    return [
        (ReturnPanel(cal, ("a", "b", "c"), values), ["date", "a", "b", "c"], cal.labels, values),
        (NamedSeries(cal, "f", values[:, 1]), ["date", "f"], cal.labels, values[:, 1:2]),
        (ReturnPanel(cal.head(1), ("a", "b", "c"), values[11:12]), ["date", "a", "b", "c"],
         cal.labels[:1], values[11:12]),
        (GridResult((1, 2, 12), (1, 3, 6), grid, "sharpe"), ["m", "1", "3", "6"],
         ["1", "2", "12"], grid),
        (ReturnPanel(cal.head(12), assets, wide), ["date", *assets], cal.labels[:12], wide),
    ]


@pytest.mark.parametrize("rows_per_call", [1, 2, 7, None])
def test_emit_bytes_match_per_cell_writer_at_any_chunk(tmp_path, monkeypatch, rows_per_call):
    """Each chunk of rows is formatted in one call; the bytes do not depend
    on where the chunk edges fall."""
    if rows_per_call is not None:
        monkeypatch.setattr(panel, "_ROWS_PER_CALL", rows_per_call)
    for i, (obj, columns, keys, cells) in enumerate(straddling_cases()):
        path = tmp_path / f"{i}.csv"
        emit_csv(obj, path, {"seed": 1})
        assert path.read_bytes() == reference_csv(columns, keys, cells, {"seed": 1}), i


# ---------------------------------------------------------------------------
# bulk wide reads: decline, or equal the per-line parser bit for bit

ROOT = Path(__file__).resolve().parents[1]
# file features; a file without any is what the bulk path reads
FEATURES = ("bom", "preamble", "interior", "blank", "space", "quote", "special", "holes",
            "trailing", "unsorted", "bad_dates", "bad_header", "ragged", "bare_cr",
            "no_final_newline")
special_cells = st.sampled_from(["nan", "NaN", "+nan", "-nan", "inf", "-inf", "1e999", "abc",
                                 "1_0", "\u0661", "e5", "1e", ".", "--1", "0x1"])
number_cells = (st.sampled_from([".5", "5.", "+1", "-0", "1E-5", "5e-324", "1e-400", "0"])
                | floats.map("{:.12g}".format) | floats.map("%.10g".__mod__) | floats.map(repr))
bad_dates = st.sampled_from(["+2000-01", "2000-1", "2000-13", "2000", "2000-01-01", "2000-01",
                             "1e5", "", "-001-01", "10000-01"])


def per_line(path, allow_missing):
    """``load_panel``'s result, or the exception it raises, with the bulk
    path switched off."""
    with mock.patch.object(panel, "_bulk_wide", return_value=None):
        try:
            return load_panel(path, allow_missing=allow_missing)
        except Exception as exc:  # any type: the bulk run must raise the same
            return exc


def same_panel(a, b) -> bool:
    return (a.values.tobytes() == b.values.tobytes() and a.assets == b.assets
            and a.calendar.dates.dtype == b.calendar.dates.dtype
            and a.calendar.dates.tobytes() == b.calendar.dates.tobytes())


@st.composite
def wide_files(draw):
    """The text of a wide CSV file with up to three of ``FEATURES``, each
    applied once where it is one odd cell, line or row."""
    features = draw(st.sets(st.sampled_from(FEATURES), max_size=3))
    cal = draw(calendars(max_len=5))
    width = draw(st.integers(1, 3))
    labels = list(cal.labels)
    if "unsorted" in features:
        labels = draw(st.permutations(labels))
    cells = number_cells | st.just("") if "holes" in features else number_cells
    rows = [["date", *(f"a{j}" for j in range(width))]]
    rows += [[label, *draw(st.lists(cells, min_size=width, max_size=width))] for label in labels]
    data_row = st.integers(1, len(rows) - 1)
    if "bad_header" in features:  # a misnamed date column, or an empty or repeated asset
        rows[0][draw(st.integers(0, width))] = draw(st.sampled_from(["Date", "", "a0"]))
    if "bad_dates" in features:  # bad, mixed or duplicate
        rows[draw(data_row)][0] = draw(bad_dates | st.sampled_from(labels))
    if "special" in features:
        rows[draw(data_row)][draw(st.integers(1, width))] = draw(special_cells)
    for feature, odd in (("space", " {} ".format), ("quote", '"{}"'.format)):
        if feature in features:
            i = draw(st.integers(0, len(rows) - 1))
            j = draw(st.integers(0, width))
            rows[i][j] = odd(rows[i][j])
    if "ragged" in features:
        row = rows[draw(data_row)]
        row[:] = row[:-1] if draw(st.booleans()) else [*row, "0.5"]
    if "trailing" in features:  # on every row, so each has the same length
        rows[1:] = [[*row, ""] for row in rows[1:]]
    lines = [",".join(row) for row in rows]
    for feature, line in (("interior", "# mid=1"), ("blank", "")):
        if feature in features:
            lines.insert(draw(st.integers(2, len(lines))), line)
    if "preamble" in features:
        lines[:0] = draw(st.lists(st.sampled_from(["# seed=1", "#", "", "# note=a,b"]),
                                  min_size=1, max_size=3))
    if "bare_cr" in features:  # a CR that is not part of CRLF ends a line for csv too
        i = draw(st.integers(0, len(lines) - 2))
        cr = draw(st.sampled_from(["\r", "\r\r\n", "\r\n\r", ",\r"]))
        lines[i:i + 2] = [lines[i] + cr + lines[i + 1]]
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + ("" if "no_final_newline" in features else eol)
    return ("\ufeff" if "bom" in features else "") + text


@settings(max_examples=400, deadline=None, derandomize=True)
@given(wide_files(), st.booleans())
def test_bulk_read_declines_or_matches_per_line(tmp_path_factory, text, allow_missing):
    path = tmp_path_factory.mktemp("bulk") / "w.csv"
    path.write_bytes(text.encode())
    expected = per_line(path, allow_missing)
    bulk = panel._bulk_wide(path, allow_missing)
    if isinstance(expected, Exception):
        assert bulk is None
        with pytest.raises(type(expected)) as got:
            load_panel(path, allow_missing=allow_missing)
        assert type(got.value) is type(expected) and str(got.value) == str(expected)
    else:
        assert bulk is None or same_panel(bulk, expected)
        assert same_panel(load_panel(path, allow_missing=allow_missing), expected)


def benchmark_write_csv(monkeypatch):
    """The benchmark's own input writer, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module.write_csv


def gappy(shape):
    rng = np.random.default_rng(0)
    values = rng.normal(0.0, 0.05, shape)
    values[rng.random(shape) < 0.05] = np.nan
    values[0, 0] = values[-1, -1] = np.nan  # holes in the first and last column
    return values


@pytest.mark.parametrize("chunk", [None, 7, 100])
def test_bulk_read_serves_emitted_and_benchmark_files(tmp_path, monkeypatch, chunk):
    """Both file shapes that reach ``load_panel`` take the bulk path, also
    when chunk edges fall inside rows and holes."""
    if chunk is not None:
        monkeypatch.setattr(panel, "_BULK_CHUNK", chunk)
    cal = Calendar.periods(40, "1990-01")
    values = gappy((40, 6))
    emitted_path = tmp_path / "emitted.csv"  # CRLF, '#' header lines, empty holes
    emit_csv(ReturnPanel(cal, tuple("abcdef"), values), emitted_path, header={"seed": 7})
    bench_path = tmp_path / "bench.csv"  # LF, %.10g, empty holes
    benchmark_write_csv(monkeypatch)(bench_path, cal.labels, list("abcdef"), values)
    for path in (emitted_path, bench_path):
        bulk = panel._bulk_wide(path, True)
        assert bulk is not None, path.name
        assert same_panel(bulk, per_line(path, True))
