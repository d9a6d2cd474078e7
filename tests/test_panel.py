import re
import tracemalloc

import numpy as np
import pytest

from factormom.panel import (
    AlignmentError,
    Calendar,
    DuplicateKeyError,
    EmptyInputError,
    NamedSeries,
    PanelError,
    ParseError,
    ReturnPanel,
    emit_csv,
    load_panel,
    load_series,
    require_aligned,
    resample_monthly,
)


def make_panel(values, dates=None, assets=None):
    values = np.asarray(values, float)
    t, n = values.shape
    dates = dates or tuple(f"2000-{i + 1:02d}" for i in range(t))
    assets = assets or tuple(f"A{j}" for j in range(n))
    return ReturnPanel(Calendar(tuple(dates)), tuple(assets), values)


# ---------------------------------------------------------------------------
# calendar


def test_calendar_rejects_unsorted_and_duplicate_labels():
    with pytest.raises(PanelError):
        Calendar(("2000-02", "2000-01"))
    with pytest.raises(PanelError):
        Calendar(("2000-01", "2000-01"))


def test_calendar_periods_iso_and_synthetic():
    cal = Calendar.periods(14, start="1999-11")
    assert cal.labels[:4] == ("1999-11", "1999-12", "2000-01", "2000-02")
    assert cal.is_monthly
    big = Calendar.periods(1_000_000)
    assert len(big) == 1_000_000
    assert big[0] < big[1] < big[-1]  # synthetic labels still ordered


@pytest.mark.parametrize("n, message", [
    (1.5, "must be an integer, got 1.5"),
    (np.float64(3.0), f"must be an integer, got {re.escape(repr(np.float64(3.0)))}"),
    (0, "must be >= 1"),
])
def test_calendar_periods_reads_its_length_as_an_integer(n, message):
    with pytest.raises(PanelError, match=f"^calendar length n {message}$"):
        Calendar.periods(n)
    assert Calendar.periods(np.int64(3)) == Calendar.periods(3)


@pytest.mark.parametrize("k, message", [(1.5, "must be an integer, got 1.5"),
                                        (-2, "must be >= 0")])
def test_head_reads_its_length_as_an_integer(k, message):
    cal = Calendar.periods(5)
    for obj in (cal, ReturnPanel(cal, ("A",), np.zeros((5, 1))),
                NamedSeries(cal, "x", np.zeros(5))):
        with pytest.raises(PanelError, match=f"^k {message}$"):
            obj.head(k)
    assert cal.head(np.int64(2)) == Calendar.periods(2)


def test_calendar_periods_needs_a_monthly_start():
    with pytest.raises(PanelError, match="^start must be YYYY-MM, got '2000-01-05'$"):
        Calendar.periods(3, start="2000-01-05")


def test_calendar_periods_peak_memory():
    """A long calendar is built in place and kept without a copy: its peak
    is the dates plus the strictly-increasing check's one bool per date."""
    n = 1_000_000
    tracemalloc.start()
    try:
        cal = Calendar.periods(n, start="1950-03")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cal.dates.dtype == np.dtype("datetime64[M]")
    assert not cal.dates.flags.writeable
    assert np.array_equal(cal.dates, np.datetime64("1950-03") + np.arange(n))
    assert peak <= 1.5 * cal.dates.nbytes, peak / cal.dates.nbytes


@pytest.mark.parametrize("dates", [
    ["2000-01", "NaT", "2000-03"],
    ["NaT", "2000-02", "2000-03"],
    ["2000-01", "2000-02", "NaT"],
    ["NaT"],
], ids=["middle", "leading", "trailing", "lone"])
def test_calendar_refuses_nat(dates):
    """A NaT is no date: emit_csv would write it as a row that no reader
    takes back."""
    with pytest.raises(PanelError):
        Calendar(np.array(dates, "datetime64[M]"))


# ---------------------------------------------------------------------------
# load


def test_load_wide_identity(tmp_path):
    p = tmp_path / "p.csv"
    p.write_text("date,A,B\n2000-01,0.01,0.02\n2000-02,0.03,0.04\n2000-03,-0.01,0\n")
    panel = load_panel(p, "wide")
    assert panel.assets == ("A", "B")
    assert panel.calendar.labels == ("2000-01", "2000-02", "2000-03")
    np.testing.assert_allclose(
        panel.values, [[0.01, 0.02], [0.03, 0.04], [-0.01, 0.0]]
    )


def test_load_wide_duplicate_date_rejected(tmp_path):
    p = tmp_path / "p.csv"
    p.write_text("date,A\n2000-01,0.01\n2000-01,0.02\n")
    with pytest.raises(DuplicateKeyError):
        load_panel(p, "wide")


def test_load_long_duplicate_observation_rejected(tmp_path):
    p = tmp_path / "p.csv"
    p.write_text(
        "date,asset,return\n2000-01,A,0.01\n2000-01,B,0.02\n2000-01,A,0.01\n"
    )
    with pytest.raises(DuplicateKeyError):
        load_panel(p, "long")


def test_load_wide_sorts_unsorted_dates(tmp_path):
    # expected fixture built by hand before looking at the loader output
    p = tmp_path / "p.csv"
    p.write_text(
        "date,A,B\n2000-03,0.3,-0.3\n2000-01,0.1,-0.1\n2000-02,0.2,-0.2\n"
    )
    panel = load_panel(p, "wide")
    assert panel.calendar.labels == ("2000-01", "2000-02", "2000-03")
    np.testing.assert_allclose(
        panel.values, [[0.1, -0.1], [0.2, -0.2], [0.3, -0.3]]
    )


def test_load_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(EmptyInputError):
        load_panel(empty, "wide")

    header_only = tmp_path / "h.csv"
    header_only.write_text("date,A\n")
    with pytest.raises(EmptyInputError):
        load_panel(header_only, "wide")

    bad_cell = tmp_path / "bad.csv"
    bad_cell.write_text("date,A\n2000-01,zzz\n")
    with pytest.raises(ParseError) as err:
        load_panel(bad_cell, "wide")
    assert err.value.line == 2

    # same cell becomes a missing marker when explicitly allowed
    panel = load_panel(bad_cell, "wide", allow_missing=True)
    assert np.isnan(panel.values[0, 0])

    short_row = tmp_path / "short.csv"
    short_row.write_text("date,A,B\n2000-01,0.01\n")
    with pytest.raises(ParseError):
        load_panel(short_row, "wide")

    bad_date = tmp_path / "date.csv"
    bad_date.write_text("date,A\n01/2000,0.01\n")
    with pytest.raises(ParseError):
        load_panel(bad_date, "wide")

    mixed = tmp_path / "mixed.csv"
    mixed.write_text("date,A\n2000-01,0.01\n2000-02-01,0.02\n")
    with pytest.raises(ParseError):
        load_panel(mixed, "wide")


@pytest.mark.parametrize("layout, text, error, message", [
    ("tall", "date,A\n2000-01,0.1\n", PanelError, "^unknown layout 'tall'$"),
    ("long", "date,asset,value\n2000-01,A,0.1\n", ParseError,
     "^line 1: long header must be 'date,asset,return'$"),
    ("long", "date,asset,return\n2000-01,A\n", ParseError, "^line 2: expected 3 cells, got 2$"),
    ("long", "date,asset,return\n2000-01, ,0.1\n", ParseError, "^line 2: empty asset id$"),
    ("long", "date,asset,return\n# no data\n", EmptyInputError, "p.csv: no data rows$"),
])
def test_load_input_errors_are_named(tmp_path, layout, text, error, message):
    path = tmp_path / "p.csv"
    path.write_text(text)
    with pytest.raises(error, match=message):
        load_panel(path, layout)


def test_load_series_needs_one_column(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("date,A,B\n2000-01,0.1,0.2\n")
    with pytest.raises(PanelError, match="two.csv: expected one value column, got 2$"):
        load_series(path)


def test_emit_refuses_an_unsupported_object(tmp_path):
    with pytest.raises(PanelError, match="^cannot emit object of type dict$"):
        emit_csv({"date": ["2000-01"]}, tmp_path / "x.csv")
    assert not (tmp_path / "x.csv").exists()


# the first four are not dates; numpy alone accepts the next five (as
# 2000-01, the current day, not-a-time, an hour and a year) and the last two
# as months of the years -1 and 1000000, which no four-digit label can name
@pytest.mark.parametrize("label", [
    "2000-13", "2000-00", "2000-02-30", "2000-1", "+2000-01", "today", "NaT", "2000-01-01T00",
    "2000", "-001-01", "1000000-01",
])
def test_invalid_dates_rejected_with_line(tmp_path, label):
    first = "2000-01-03" if label.count("-") == 2 else "1999-12"
    wide = tmp_path / "wide.csv"
    wide.write_text(f"date,A\n{first},0.01\n{label},0.02\n")
    long = tmp_path / "long.csv"
    long.write_text(f"date,asset,return\n{first},A,0.01\n{label},A,0.02\n")
    for path, layout in ((wide, "wide"), (long, "long")):
        with pytest.raises(ParseError, match="bad date") as err:
            load_panel(path, layout)
        assert err.value.line == 3
    with pytest.raises(ParseError, match="bad date"):
        Calendar((first, label))


def test_monthly_label_in_daily_file_is_mixed(tmp_path):
    wide = tmp_path / "wide.csv"
    wide.write_text("date,A\n2000-01-03,0.01\n2000-02,0.02\n")
    long = tmp_path / "long.csv"
    long.write_text("date,asset,return\n2000-01-03,A,0.01\n2000-02,A,0.02\n")
    for path, layout in ((wide, "wide"), (long, "long")):
        with pytest.raises(ParseError, match="mixed daily/monthly") as err:
            load_panel(path, layout)
        assert err.value.line == 3


def test_calendar_resolution_and_equality():
    monthly, daily = Calendar(("2000-01",)), Calendar(("2000-01-01",))
    assert monthly.is_monthly and not monthly.is_daily
    assert daily.is_daily and not daily.is_monthly
    # numpy equates 2000-01 with 2000-01-01; calendars of two resolutions differ
    assert monthly != daily and monthly == Calendar.periods(1, "2000-01")
    three = Calendar.periods(3, "1999-12")
    assert three[-1] == "2000-02" and three[1:] == ["2000-01", "2000-02"]
    a = NamedSeries(monthly, "a", np.array([0.01]))
    b = NamedSeries(daily, "b", np.array([0.01]))
    with pytest.raises(AlignmentError, match="2000-01-01"):
        require_aligned(a, b)


@pytest.mark.parametrize("literal", ["inf", "-inf", "1e999", "Infinity"])
@pytest.mark.parametrize("allow_missing", [False, True])
def test_infinite_cells_rejected_with_line(tmp_path, literal, allow_missing):
    wide = tmp_path / "wide.csv"
    wide.write_text(f"date,A,B\n2000-01,0.01,0.02\n2000-02,0.03,{literal}\n")
    with pytest.raises(ParseError, match="'B'") as err:
        load_panel(wide, "wide", allow_missing=allow_missing)
    assert err.value.line == 3

    long = tmp_path / "long.csv"
    long.write_text(f"date,asset,return\n2000-01,A,{literal}\n2000-01,B,0.01\n")
    with pytest.raises(ParseError) as err:
        load_panel(long, "long", allow_missing=allow_missing)
    assert err.value.line == 2


def test_nan_literal_is_missing_only_when_allowed(tmp_path):
    wide = tmp_path / "wide.csv"
    wide.write_text("date,A\n2000-02,0.01\n2000-01,nan\n")
    with pytest.raises(ParseError, match="missing values are not allowed") as err:
        load_panel(wide, "wide")
    assert err.value.line == 3
    panel = load_panel(wide, "wide", allow_missing=True)
    assert np.isnan(panel.values[0, 0]) and panel.values[1, 0] == 0.01

    long = tmp_path / "long.csv"
    long.write_text("date,asset,return\n2000-01,A,0.01\n2000-02,A,NaN\n")
    with pytest.raises(ParseError) as err:
        load_panel(long, "long")
    assert err.value.line == 3
    assert np.isnan(load_panel(long, "long", allow_missing=True).values[1, 0])


def test_utf8_byte_order_mark_before_header(tmp_path):
    p = tmp_path / "bom.csv"
    p.write_bytes(b"\xef\xbb\xbfdate,A\r\n2000-01,0.01\r\n")
    panel = load_panel(p, "wide")
    assert panel.assets == ("A",) and panel.calendar.labels == ("2000-01",)


def test_long_layout_sparse_pairs_are_missing(tmp_path):
    p = tmp_path / "p.csv"
    p.write_text("date,asset,return\n2000-01,A,0.01\n2000-02,B,0.02\n")
    panel = load_panel(p, "long")
    assert panel.assets == ("A", "B")
    assert np.isnan(panel.values[0, 1]) and np.isnan(panel.values[1, 0])


# ---------------------------------------------------------------------------
# emit


def test_emit_load_round_trip_within_format_precision(tmp_path):
    rng = np.random.default_rng(11)
    values = rng.uniform(-0.9, 0.9, size=(40, 7))
    values[rng.random(values.shape) < 0.1] = np.nan
    panel = make_panel(values, dates=[f"20{i:02d}-01" for i in range(40)])
    path = tmp_path / "round.csv"
    emit_csv(panel, path)
    back = load_panel(path, "wide", allow_missing=True)
    assert back.assets == panel.assets
    assert back.calendar.labels == panel.calendar.labels
    np.testing.assert_allclose(back.values, panel.values, atol=1e-12, equal_nan=True)


def test_emit_is_byte_deterministic(tmp_path):
    panel = make_panel(np.random.default_rng(5).normal(0, 0.02, (12, 3)))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(panel, a)
    emit_csv(panel, b)
    assert a.read_bytes() == b.read_bytes()


def test_emit_peak_memory_is_a_chunk_not_the_panel(tmp_path):
    """Dates are rendered and cells cleaned one chunk of rows at a time, so
    writing a gappy panel holds no whole-panel temporary."""
    rng = np.random.default_rng(4)
    values = rng.standard_normal((20_000, 20))
    values[rng.random(values.shape) < 0.02] = np.nan
    values[::97, 3] = -0.0
    panel = ReturnPanel(Calendar.periods(len(values)), tuple(f"a{j:02d}" for j in range(20)),
                        values)
    emit_csv(panel, tmp_path / "warm.csv")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        emit_csv(panel, tmp_path / "p.csv")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert (tmp_path / "p.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes()
    assert peak <= 0.25 * values.nbytes, peak / values.nbytes


def test_emit_header_comments_skipped_on_load(tmp_path):
    panel = make_panel([[0.01, 0.02]], dates=("2000-01",))
    path = tmp_path / "c.csv"
    emit_csv(panel, path, header={"config_hash": "abc", "seed": 7})
    text = path.read_text()
    assert text.startswith("# config_hash=abc")
    back = load_panel(path, "wide")
    np.testing.assert_allclose(back.values, panel.values)


def test_emit_grid_layout(tmp_path):
    # fixture written by hand: rows are m values, columns are n values
    from factormom.momentum import GridResult

    grid = GridResult((1, 2), (1, 2, 3), np.array([[0.5, 1.0, np.nan], [-1.0, 0.25, 2.0]]), "sharpe")
    path = tmp_path / "g.csv"
    emit_csv(grid, path)
    assert path.read_bytes() == b"m,1,2,3\r\n1,0.5,1,\r\n2,-1,0.25,2\r\n"


def test_emit_refuses_dates_past_9999_12(tmp_path):
    last_day = NamedSeries(Calendar(("9999-12-30", "9999-12-31")), "x", np.zeros(2))
    emit_csv(last_day, tmp_path / "ok.csv")
    assert load_series(tmp_path / "ok.csv").calendar == last_day.calendar
    path = tmp_path / "late.csv"
    for cal in (Calendar.periods(2, "9999-12"),
                Calendar(np.array(["9999-12-31", "10000-01-01"], "datetime64[D]"))):
        with pytest.raises(PanelError, match="T=2 .*9999-12"):
            emit_csv(NamedSeries(cal, "x", np.zeros(2)), path)
        assert not path.exists()


def test_series_round_trip(tmp_path):
    s = NamedSeries(Calendar(("2000-01", "2000-02")), "mkt", np.array([0.01, -0.02]))
    path = tmp_path / "s.csv"
    emit_csv(s, path)
    back = load_series(path)
    assert back.name == "mkt"
    np.testing.assert_allclose(back.values, s.values, atol=1e-12)


# ---------------------------------------------------------------------------
# resample


def test_resample_compounds_within_month():
    dates = ("2000-01-03", "2000-01-04", "2000-02-01")
    panel = ReturnPanel(Calendar(dates), ("A",), np.array([[0.01], [0.01], [0.05]]))
    monthly = resample_monthly(panel)
    assert monthly.calendar.labels == ("2000-01", "2000-02")
    np.testing.assert_allclose(monthly.values[:, 0], [0.0201, 0.05], atol=1e-15)


def test_resample_zero_returns_and_empty_month():
    dates = ("2000-01-03", "2000-01-04")
    panel = ReturnPanel(
        Calendar(dates), ("A", "B"), np.array([[0.0, np.nan], [0.0, np.nan]])
    )
    monthly = resample_monthly(panel)
    assert monthly.values[0, 0] == 0.0
    assert np.isnan(monthly.values[0, 1])  # no observations at all


def test_resample_matches_brute_force_product():
    rng = np.random.default_rng(123)
    days = []
    for month in range(1, 4):
        for day in range(1, 22):
            days.append(f"2000-{month:02d}-{day:02d}")
    values = rng.normal(0, 0.01, (len(days), 3))
    panel = ReturnPanel(Calendar(tuple(days)), ("A", "B", "C"), values)
    monthly = resample_monthly(panel)

    for i, month in enumerate(("2000-01", "2000-02", "2000-03")):
        rows = [j for j, d in enumerate(days) if d.startswith(month)]
        for k in range(3):
            acc = 1.0
            for j in rows:
                acc *= 1.0 + values[j, k]
            assert abs(monthly.values[i, k] - (acc - 1.0)) < 1e-12


def test_resample_bit_identical_to_per_month_products():
    rng = np.random.default_rng(3)
    days = np.arange(np.datetime64("1999-12-20"), np.datetime64("2000-04-10"))
    days = days[np.is_busday(days)]
    values = rng.normal(0, 0.01, (len(days), 4))
    values[rng.random(values.shape) < 0.2] = np.nan
    values[(days >= np.datetime64("2000-02-01")) & (days < np.datetime64("2000-03-01")), 3] = np.nan
    monthly = resample_monthly(ReturnPanel(Calendar(days), tuple("ABCD"), values))

    # reference: one month at a time, as a product over that month's rows
    months = days.astype("datetime64[M]")
    keys = np.unique(months)
    expected = np.full((len(keys), 4), np.nan)
    for i, key in enumerate(keys):
        rows = values[months == key]
        compounded = np.where(np.isfinite(rows), 1.0 + rows, 1.0).prod(axis=0) - 1.0
        expected[i] = np.where(np.isfinite(rows).any(axis=0), compounded, np.nan)
    assert monthly.calendar.labels == ("1999-12", "2000-01", "2000-02", "2000-03", "2000-04")
    assert np.isnan(monthly.values[2, 3])
    assert monthly.values.tobytes() == expected.tobytes()


def test_resample_commutes_with_column_selection():
    rng = np.random.default_rng(42)
    days = tuple(f"2000-01-{d:02d}" for d in range(1, 20)) + tuple(
        f"2000-02-{d:02d}" for d in range(1, 20)
    )
    panel = ReturnPanel(
        Calendar(days), ("A", "B", "C"), rng.normal(0, 0.01, (len(days), 3))
    )
    sub_then_resample = resample_monthly(panel.select(["B", "C"]))
    resample_then_sub = resample_monthly(panel).select(["B", "C"])
    np.testing.assert_array_equal(sub_then_resample.values, resample_then_sub.values)


def test_resample_is_causal_under_truncation():
    rng = np.random.default_rng(9)
    days = tuple(f"2000-0{m}-{d:02d}" for m in (1, 2, 3) for d in range(1, 15))
    panel = ReturnPanel(Calendar(days), ("A",), rng.normal(0, 0.01, (len(days), 1)))
    full = resample_monthly(panel)
    cut = resample_monthly(panel.head(28))  # everything through 2000-02
    np.testing.assert_array_equal(full.values[:1], cut.values[:1])


# ---------------------------------------------------------------------------
# alignment & immutability


def test_require_aligned_lists_offending_dates():
    a = make_panel([[0.1]], dates=("2000-01",))
    b = make_panel([[0.1]], dates=("2000-02",))
    with pytest.raises(AlignmentError, match="2000-02"):
        require_aligned(a, b)


def test_panel_values_are_immutable():
    panel = make_panel([[0.01, 0.02]], dates=("2000-01",))
    with pytest.raises(ValueError):
        panel.values[0, 0] = 1.0


def test_panel_shape_validation():
    with pytest.raises(PanelError):
        ReturnPanel(Calendar(("2000-01",)), ("A", "B"), np.zeros((1, 3)))
    with pytest.raises(PanelError):
        ReturnPanel(Calendar(("2000-01",)), ("A", "A"), np.zeros((1, 2)))
