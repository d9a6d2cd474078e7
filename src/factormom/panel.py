"""
Date-aligned return panels, named series and deterministic CSV round-trips.

Everything downstream works on these three carriers: a Calendar of period
labels, a ReturnPanel (calendar x assets matrix of per-period returns) and a
NamedSeries (one return per date). Objects are immutable; transformations
return new objects. Missing observations are explicit NaN markers, never
silent zeros.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "AlignmentError",
    "Calendar",
    "DuplicateKeyError",
    "EmptyInputError",
    "NamedSeries",
    "PanelError",
    "ParseError",
    "ReturnPanel",
    "emit_csv",
    "load_panel",
    "load_series",
    "require_aligned",
    "resample_monthly",
    "round_float",
]

_MONTHLY = re.compile(r"^\d{4}-\d{2}$")
_DAILY = re.compile(r"^\d{4}-\d{2}-\d{2}$")

# 12 significant digits keep load(emit(x)) within 1e-12 of x for |x| < 1,
# which covers any sane per-period return. Every writer (CSV here, JSON in
# the CLI) emits floats at this precision, so last-bit round-off from the
# numpy/BLAS build never reaches an output file.
_FLOAT_FMT = "{:.12g}"


class PanelError(Exception):
    """Malformed panel data or a panel I/O failure."""


class ParseError(PanelError):
    """Unparseable CSV content; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DuplicateKeyError(PanelError):
    """The same (date, asset) observation was supplied twice."""


class EmptyInputError(PanelError):
    """Input file contains no data rows."""


class AlignmentError(PanelError):
    """Objects that must share one calendar do not."""


@dataclass(frozen=True)
class Calendar:
    """Strictly increasing period labels.

    Ingested data uses ISO labels, ``YYYY-MM`` for monthly and ``YYYY-MM-DD``
    for daily panels. Simulated histories too long for the ISO year range use
    fixed-width synthetic labels (``t0000042``) instead; ordering is
    lexicographic either way.
    """

    labels: tuple[str, ...]

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        object.__setattr__(self, "labels", labels)
        for i in range(1, len(labels)):
            if labels[i] <= labels[i - 1]:
                raise PanelError(
                    "calendar labels must be strictly increasing, got "
                    f"{labels[i - 1]!r} followed by {labels[i]!r}"
                )

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __getitem__(self, i):
        return self.labels[i]

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"label {label!r} not in calendar") from None

    def head(self, k: int) -> "Calendar":
        return Calendar(self.labels[:k])

    @property
    def is_monthly(self) -> bool:
        return bool(self.labels) and all(_MONTHLY.match(x) for x in self.labels)

    @property
    def is_daily(self) -> bool:
        return bool(self.labels) and all(_DAILY.match(x) for x in self.labels)

    @staticmethod
    def periods(n: int, start: str = "1900-01") -> "Calendar":
        """Synthetic monthly calendar of ``n`` periods starting at ``start``.

        Falls back to fixed-width period ids when the run would pass the
        ISO year 9999.
        """
        if n < 1:
            raise PanelError("calendar needs at least one period")
        m = _MONTHLY.match(start)
        if not m:
            raise PanelError(f"start must be YYYY-MM, got {start!r}")
        y0, m0 = int(start[:4]), int(start[5:7])
        if not 1 <= m0 <= 12:
            raise PanelError(f"start month out of range: {start!r}")
        end_year = y0 + (m0 - 1 + n - 1) // 12
        if end_year <= 9999:
            labels = []
            for i in range(n):
                y, mm = divmod(m0 - 1 + i, 12)
                labels.append(f"{y0 + y:04d}-{mm + 1:02d}")
            return Calendar(tuple(labels))
        width = max(8, len(str(n - 1)))
        return Calendar(tuple(f"t{i:0{width}d}" for i in range(n)))


def _freeze(values: np.ndarray, ndim: int) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != ndim:
        raise PanelError(f"expected {ndim}-d values, got shape {arr.shape}")
    if arr.flags.writeable:
        arr = arr.copy()  # own the buffer; never mutate the caller's flags
        arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ReturnPanel:
    """Per-(date, asset) returns, dimensionless fractions per period."""

    calendar: Calendar
    assets: tuple[str, ...]
    values: np.ndarray  # (T, N) float64, NaN marks missing

    def __post_init__(self):
        assets = tuple(str(a) for a in self.assets)
        if len(set(assets)) != len(assets):
            raise PanelError("asset identifiers must be unique")
        object.__setattr__(self, "assets", assets)
        arr = _freeze(self.values, 2)
        if arr.shape != (len(self.calendar), len(assets)):
            raise PanelError(
                f"values shape {arr.shape} does not match "
                f"{len(self.calendar)} dates x {len(assets)} assets"
            )
        object.__setattr__(self, "values", arr)

    @property
    def n_periods(self) -> int:
        return len(self.calendar)

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    def column(self, asset: str) -> "NamedSeries":
        try:
            j = self.assets.index(asset)
        except ValueError:
            raise KeyError(f"asset {asset!r} not in panel") from None
        return NamedSeries(self.calendar, asset, self.values[:, j])

    def select(self, assets: Sequence[str]) -> "ReturnPanel":
        idx = [self.assets.index(a) for a in assets]
        return ReturnPanel(self.calendar, tuple(assets), self.values[:, idx])

    def head(self, k: int) -> "ReturnPanel":
        """First ``k`` rows; used to express causality as truncation."""
        return ReturnPanel(self.calendar.head(k), self.assets, self.values[:k])


@dataclass(frozen=True)
class NamedSeries:
    """One return per date, with a label."""

    calendar: Calendar
    name: str
    values: np.ndarray  # (T,) float64, NaN marks missing

    def __post_init__(self):
        arr = _freeze(self.values, 1)
        if len(arr) != len(self.calendar):
            raise PanelError(
                f"series length {len(arr)} does not match calendar "
                f"length {len(self.calendar)}"
            )
        object.__setattr__(self, "values", arr)

    def head(self, k: int) -> "NamedSeries":
        return type(self)(self.calendar.head(k), self.name, self.values[:k])


def require_aligned(*objs) -> Calendar:
    """Return the shared calendar, or raise listing the offending dates."""
    cal = objs[0].calendar
    for other in objs[1:]:
        if other.calendar.labels != cal.labels:
            a, b = set(cal.labels), set(other.calendar.labels)
            diff = sorted(a.symmetric_difference(b))
            shown = ", ".join(diff[:10]) + (" ..." if len(diff) > 10 else "")
            raise AlignmentError(
                f"calendars differ; dates present on one side only: {shown}"
                if diff
                else "calendars contain the same dates in different order"
            )
    return cal


# ---------------------------------------------------------------------------
# CSV ingestion


def _validate_date(label: str, resolution: list, line: int) -> str:
    if _MONTHLY.match(label):
        kind = "monthly"
    elif _DAILY.match(label):
        kind = "daily"
    else:
        raise ParseError(f"bad date {label!r} (want YYYY-MM or YYYY-MM-DD)", line)
    if not resolution:
        resolution.append(kind)
    elif resolution[0] != kind:
        raise ParseError(f"mixed {resolution[0]}/{kind} dates, {label!r}", line)
    return label


def _parse_cell(cell: str, allow_missing: bool, line: int) -> float:
    text = cell.strip()
    try:
        return float(text)
    except ValueError:
        if allow_missing:
            return np.nan
        raise ParseError(f"non-numeric cell {cell!r}", line) from None


def _require_finite(values: np.ndarray, allow_missing: bool, lines, columns) -> None:
    """Reject infinities always, and NaN literals unless missing values are allowed.

    One vectorised pass over the parsed (rows x columns) array; ``lines`` gives
    the file line of each row for the error message.
    """
    bad = np.isinf(values) if allow_missing else ~np.isfinite(values)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        x = float(values[i, j])
        why = " (missing values are not allowed)" if np.isnan(x) else ""
        raise ParseError(f"non-finite value {x!r} for {columns[j]!r}{why}", lines[i])


def _data_rows(path):
    # utf-8-sig drops a leading byte-order mark, which would otherwise
    # become part of the first header cell
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or (row[0].startswith("#")):
                continue
            yield reader.line_num, [c.strip() for c in row]


def load_panel(path, layout: str = "wide", allow_missing: bool = False) -> ReturnPanel:
    """Load a return panel from CSV.

    ``wide`` layout: header ``date,<asset1>,<asset2>,...``, one row per date.
    ``long`` layout: header ``date,asset,return``, one row per observation.
    Dates are sorted ascending on load; duplicate (date, asset) pairs are
    rejected. Non-numeric cells and ``nan`` become missing markers only when
    ``allow_missing`` is set, otherwise they are parse errors. Infinite values
    (``inf``, ``1e999``) are always parse errors. A UTF-8 byte-order mark
    before the header is ignored.
    """
    if layout not in ("wide", "long"):
        raise PanelError(f"unknown layout {layout!r}")
    rows = _data_rows(path)
    try:
        header_line, header = next(rows)
    except StopIteration:
        raise EmptyInputError(f"{path}: no rows") from None

    resolution: list = []
    if layout == "wide":
        if not header or header[0] != "date" or len(header) < 2:
            raise ParseError("wide header must be 'date,<asset>,...'", header_line)
        assets = tuple(header[1:])
        if len(set(assets)) != len(assets) or any(not a for a in assets):
            raise ParseError("asset ids must be unique and non-empty", header_line)
        dates: list[str] = []
        lines: list[int] = []
        data: list[list[float]] = []
        seen: set[str] = set()
        for line, row in rows:
            if len(row) != len(assets) + 1:
                raise ParseError(
                    f"expected {len(assets) + 1} cells, got {len(row)}", line
                )
            date = _validate_date(row[0], resolution, line)
            if date in seen:
                raise DuplicateKeyError(f"line {line}: duplicate date {date!r}")
            seen.add(date)
            dates.append(date)
            lines.append(line)
            data.append([_parse_cell(c, allow_missing, line) for c in row[1:]])
        if not dates:
            raise EmptyInputError(f"{path}: no data rows")
        values = np.asarray(data, dtype=np.float64)
        _require_finite(values, allow_missing, lines, assets)
        order = np.argsort(np.array(dates))
        values = values[order]
        return ReturnPanel(Calendar(tuple(np.array(dates)[order])), assets, values)

    if header != ["date", "asset", "return"]:
        raise ParseError("long header must be 'date,asset,return'", header_line)
    obs: dict[tuple[str, str], float] = {}
    lines = []
    for line, row in rows:
        if len(row) != 3:
            raise ParseError(f"expected 3 cells, got {len(row)}", line)
        date = _validate_date(row[0], resolution, line)
        asset = row[1]
        if not asset:
            raise ParseError("empty asset id", line)
        key = (date, asset)
        if key in obs:
            raise DuplicateKeyError(f"line {line}: duplicate observation {key}")
        obs[key] = _parse_cell(row[2], allow_missing, line)
        lines.append(line)
    if not obs:
        raise EmptyInputError(f"{path}: no data rows")
    parsed = np.fromiter(obs.values(), np.float64, len(obs))
    _require_finite(parsed[:, None], allow_missing, lines, ("return",))
    dates = sorted({d for d, _ in obs})
    assets = tuple(sorted({a for _, a in obs}))
    values = np.full((len(dates), len(assets)), np.nan)
    a_idx = {a: j for j, a in enumerate(assets)}
    d_idx = {d: i for i, d in enumerate(dates)}
    for (d, a), v in obs.items():
        values[d_idx[d], a_idx[a]] = v
    return ReturnPanel(Calendar(tuple(dates)), assets, values)


def load_series(path, allow_missing: bool = False, name: str | None = None) -> NamedSeries:
    """Load a single-column wide CSV as a named series."""
    panel = load_panel(path, layout="wide", allow_missing=allow_missing)
    if panel.n_assets != 1:
        raise PanelError(f"{path}: expected one value column, got {panel.n_assets}")
    series = panel.column(panel.assets[0])
    if name is not None:
        series = NamedSeries(series.calendar, name, series.values)
    return series


# ---------------------------------------------------------------------------
# Transformations


def resample_monthly(panel: ReturnPanel) -> ReturnPanel:
    """Compound a daily panel into monthly returns, prod(1 + r_d) - 1.

    Days missing within a month are skipped; a month with no observations at
    all yields a missing marker.
    """
    if not panel.calendar.is_daily:
        raise PanelError("resample_monthly expects a daily calendar")
    months = [d[:7] for d in panel.calendar]
    keys = sorted(set(months))
    out = np.full((len(keys), panel.n_assets), np.nan)
    month_arr = np.array(months)
    growth = np.where(np.isfinite(panel.values), 1.0 + panel.values, 1.0)
    seen = np.isfinite(panel.values)
    for i, key in enumerate(keys):
        rows = month_arr == key
        any_obs = seen[rows].any(axis=0)
        compounded = growth[rows].prod(axis=0) - 1.0
        out[i] = np.where(any_obs, compounded, np.nan)
    return ReturnPanel(Calendar(tuple(keys)), panel.assets, out)


# ---------------------------------------------------------------------------
# Emission


def _fmt(x: float) -> str:
    if not np.isfinite(x):
        return ""
    if x == 0.0:
        x = 0.0  # normalize -0.0 for byte-stable output
    return _FLOAT_FMT.format(x)


def round_float(x: float) -> float:
    """``x`` rounded to the emitted precision (12 significant digits).

    ``-0.0`` becomes ``0.0`` as in CSV output; NaN and infinities pass
    through unchanged. The result is a plain Python float.
    """
    if x == 0.0:
        return 0.0
    return float(_FLOAT_FMT.format(x))


def emit_csv(obj, path, header: dict | None = None) -> None:
    """Write a panel, series or grid as CSV, byte-deterministically.

    Fixed 12-significant-digit decimal formatting, fixed column order,
    RFC-4180 quoting. ``header`` entries become leading ``# key=value``
    comment lines (skipped on load).
    """
    with open(path, "w", newline="") as fh:
        if header:
            for key, val in header.items():
                fh.write(f"# {key}={val}\r\n")
        writer = csv.writer(fh)
        if isinstance(obj, ReturnPanel):
            writer.writerow(["date", *obj.assets])
            for i, date in enumerate(obj.calendar):
                writer.writerow([date, *(_fmt(v) for v in obj.values[i])])
        elif isinstance(obj, NamedSeries):
            writer.writerow(["date", obj.name])
            for date, v in zip(obj.calendar, obj.values):
                writer.writerow([date, _fmt(v)])
        elif hasattr(obj, "m_values") and hasattr(obj, "n_values"):
            writer.writerow(["m", *(str(n) for n in obj.n_values)])
            for i, m in enumerate(obj.m_values):
                writer.writerow([str(m), *(_fmt(v) for v in obj.cells[i])])
        else:
            raise PanelError(f"cannot emit object of type {type(obj).__name__}")
