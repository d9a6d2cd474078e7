"""load(emit(x)) returns x at the emitted precision, bit for bit.

Every float is written at 12 significant digits, so the loaded value is
exactly ``round_float(x)``: -0.0 comes back as 0.0, holes as NaN, and
subnormals and values near the float64 limits survive. Calendars are monthly
or daily and reach the last writable month, 9999-12. The bytes themselves
match a reference writer that formats and quotes every cell on its own.
"""

import csv
import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
