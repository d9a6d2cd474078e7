"""
Date-aligned return panels, named series and deterministic CSV round-trips.

Everything downstream works on these three carriers: a Calendar of monthly
or daily dates, a ReturnPanel (calendar x assets matrix of per-period returns) and a
NamedSeries (one return per date). Objects are immutable; transformations
return new objects. Missing observations are explicit NaN markers, never
silent zeros.
"""

from __future__ import annotations

import csv
import numbers
import operator
import os
import sys
from dataclasses import dataclass, replace
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

_MONTHLY = np.dtype("datetime64[M]")
_DAILY = np.dtype("datetime64[D]")
_RESOLUTIONS = {_MONTHLY: "monthly", _DAILY: "daily"}
# the months a four-digit ISO year can name: all that CSV labels carry
_ISO_SPAN = (np.datetime64("0000-01", "M"), np.datetime64("10000-01", "M"))

# 12 significant digits keep load(emit(x)) within 1e-12 of x for |x| < 1,
# which covers any sane per-period return. Every writer (CSV here, JSON in
# the CLI) emits floats at this precision, so last-bit round-off from the
# numpy/BLAS build never reaches an output file.
_FLOAT_FMT = "%.12g"
# rows emit_csv formats per call: one % of a row template repeated this often
# pays CPython's per-call overhead once per chunk, not once per row
_ROWS_PER_CALL = 256
# most threads a kernel (the Monte Carlo walks, the momentum grid) runs on;
# the largest count benchmarked
_MAX_WORKERS = 2


class PanelError(ValueError):
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


def _parse_date(label: str, first=None, line: int | None = None) -> np.datetime64:
    """``label`` as a monthly (``YYYY-MM``) or daily (``YYYY-MM-DD``) date.

    numpy infers the resolution from the label. A label is valid only if it
    renders back to exactly itself, since numpy also accepts ``+2000-01``,
    ``today`` and ``NaT``, and only within the four-digit years.
    ``first`` is the calendar's first date, whose resolution every later
    label must share.
    """
    try:
        # a longer label carries a time; with a time zone numpy would also warn
        date = np.datetime64(label) if len(label) <= 10 else None
    except ValueError:
        date = None
    if (date is None or date.dtype not in _RESOLUTIONS or str(date) != label
            or not _ISO_SPAN[0] <= date < _ISO_SPAN[1]):
        raise ParseError(f"bad date {label!r} (want YYYY-MM or YYYY-MM-DD)", line)
    if first is not None and date.dtype != first.dtype:
        kinds = f"{_RESOLUTIONS[first.dtype]}/{_RESOLUTIONS[date.dtype]}"
        raise ParseError(f"mixed {kinds} dates, {label!r}", line)
    return date


@dataclass(frozen=True, eq=False)
class Calendar:
    """Strictly increasing periods: a read-only ``datetime64[M]`` (monthly)
    or ``datetime64[D]`` (daily) array.

    Built from ISO labels (``YYYY-MM`` or ``YYYY-MM-DD``, parsed strictly) or
    from a ``datetime64`` array of either resolution. Labels are rendered only
    when asked for; indexing and iteration yield them as ``str``.
    """

    dates: np.ndarray

    def __init__(self, labels):
        if isinstance(labels, np.ndarray) and labels.dtype in _RESOLUTIONS:
            dates = _freeze(labels, 1, labels.dtype)
        else:
            parsed: list = []
            for label in labels:
                parsed.append(_parse_date(str(label), parsed[0] if parsed else None))
            dates = _freeze(parsed, 1, parsed[0].dtype if parsed else _MONTHLY)
        # neighbours compared in place: no difference array, and a NaT,
        # unordered against every date, breaks the rise on either side
        rising = dates[1:] > dates[:-1]
        if not rising.all():
            i = int(np.argmin(rising))
            raise PanelError(
                "calendar labels must be strictly increasing, got "
                f"{str(dates[i])!r} followed by {str(dates[i + 1])!r}"
            )
        if len(dates) == 1 and np.isnat(dates[0]):
            raise PanelError("calendar dates must not be NaT")
        object.__setattr__(self, "dates", dates)

    def __eq__(self, other) -> bool:
        # same resolution first: numpy would cast 2000-01 to 2000-01-01
        return (
            isinstance(other, Calendar)
            and self.dates.dtype == other.dates.dtype
            and np.array_equal(self.dates, other.dates)
        )

    def __len__(self) -> int:
        return len(self.dates)

    def __iter__(self):
        return iter(self.labels)

    def __getitem__(self, i):
        return np.datetime_as_string(self.dates[i]).tolist()  # a str, or a list of them

    @property
    def labels(self) -> tuple[str, ...]:
        """ISO labels, rendered on each call."""
        return tuple(np.datetime_as_string(self.dates).tolist())

    def head(self, k: int) -> "Calendar":
        return Calendar(self.dates[:_integer(k, "k", 0, PanelError)])

    @property
    def is_monthly(self) -> bool:
        return self.dates.dtype == _MONTHLY

    @property
    def is_daily(self) -> bool:
        return self.dates.dtype == _DAILY

    @staticmethod
    def periods(n: int, start: str = "1900-01") -> "Calendar":
        """Monthly calendar of ``n`` periods starting at ``start`` (``YYYY-MM``).

        Any length is held in memory; :func:`emit_csv` refuses dates past
        9999-12, which four-digit ISO years cannot name. The dates are one
        read-only ``datetime64[M]`` arange that the calendar keeps without a
        copy, so a long calendar peaks at its dates plus the order check's
        mask of one byte per date.
        """
        n = _integer(n, "calendar length n", 1, PanelError)
        first = _parse_date(start)
        if first.dtype != _MONTHLY:
            raise PanelError(f"start must be YYYY-MM, got {start!r}")
        dates = np.arange(first, first + n)
        dates.setflags(write=False)  # so Calendar keeps it without a copy
        return Calendar(dates)


def _freeze(values, ndim: int, dtype=np.float64) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    if arr.ndim != ndim:
        raise PanelError(f"expected {ndim}-d values, got shape {arr.shape}")
    if arr.flags.writeable:
        arr = arr.copy()  # own the buffer; never mutate the caller's flags
        arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class NamedSeries:
    """One return per date, with a label and the stages that made it."""

    calendar: Calendar
    name: str
    values: np.ndarray  # (T,) float64, NaN marks missing
    meta: tuple[str, ...] = ()  # stages applied, in order; () for loaded data

    def __post_init__(self):
        arr = _freeze(self.values, 1)
        if len(arr) != len(self.calendar):
            raise PanelError(
                f"series length {len(arr)} does not match calendar "
                f"length {len(self.calendar)}"
            )
        object.__setattr__(self, "values", arr)

    def head(self, k: int) -> "NamedSeries":
        return replace(self, calendar=self.calendar.head(k), values=self.values[:k])


def require_aligned(*objs) -> Calendar:
    """Return the shared calendar, or raise listing the offending dates."""
    cal = objs[0].calendar
    for other in objs[1:]:
        if other.calendar != cal:
            diff = sorted(set(cal.labels).symmetric_difference(other.calendar.labels))
            shown = ", ".join(diff[:10]) + (" ..." if len(diff) > 10 else "")
            raise AlignmentError(f"calendars differ; dates present on one side only: {shown}")
    return cal


# ---------------------------------------------------------------------------
# CSV ingestion


def _parse_cell(cell: str, allow_missing: bool, line: int) -> float:
    # one ASCII decimal grammar on both read paths: float() alone would also
    # read "1_0" as 10 and non-ASCII digits or spaces, which numpy's reader refuses
    if cell.isascii() and "_" not in cell:
        try:
            return float(cell)
        except ValueError:
            pass
    if allow_missing:
        return np.nan
    raise ParseError(f"non-numeric cell {cell.strip()!r}", line)


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
            yield reader.line_num, row


# Bulk wide reads parse about this many bytes of whole lines at a time: a
# whole-file parse is no faster and holds the file, its filled copy and the
# parsed values at once.
_BULK_CHUNK = 1 << 20
# the only bytes a bulk-read data row holds: ISO dates, ASCII decimals,
# commas and LF or CRLF line ends
_BULK_BYTES = b"0123456789+-.eE,\r\n"
_NAN_BYTES = np.frombuffer(b"nan", np.uint8)


def _bulk_header(fh) -> list[str] | None:
    """The stripped header cells after any ``#`` and blank lines, or None if
    a line there is one ``csv.reader`` could read otherwise than ``split``."""
    line = fh.readline().removeprefix(b"\xef\xbb\xbf")
    while line.endswith(b"\n"):
        text = line[:-2] if line.endswith(b"\r\n") else line[:-1]
        if not text.isascii() or any(c in text for c in b'"\r\0'):
            return None
        if text and not text.startswith(b"#"):
            return [c.strip() for c in text.decode().split(",")]
        line = fh.readline()
    return None


def _bulk_wide(path, allow_missing: bool) -> ReturnPanel | None:
    """The wide panel in ``path`` read in bulk, about 3x faster than line by
    line, or None to leave the file to the per-line parser.

    Reads whole lines in chunks of about ``_BULK_CHUNK`` bytes. Each chunk
    must hold only ``_BULK_BYTES`` and rows of the header's length; its empty
    cells are filled with ``nan`` (when missing values are allowed) in one
    pass over the raw bytes, and numpy's C reader parses the numbers. Dates
    are parsed together at the end and must render back to their labels, as
    in :func:`_parse_date`. Returns a panel only when it equals the per-line
    parser's bit for bit; anything that parser would reject, and anything
    unusual (quotes, ``#`` lines between rows, whitespace, ``nan`` or
    infinite cells), returns None. Raises nothing of its own.
    """
    try:
        fh = open(path, "rb")
    except OSError:
        return None
    with fh:
        header = _bulk_header(fh)
        if header is None or header[0] != "date" or len(header) < 2:
            return None
        assets = tuple(header[1:])
        if len(set(assets)) != len(assets) or not all(assets):
            return None
        n = len(assets)
        labels: list[bytes] = []
        blocks: list[np.ndarray] = []
        while chunk := fh.read(_BULK_CHUNK):
            chunk += fh.readline()
            if not chunk.endswith(b"\n"):
                chunk += b"\n"
            if chunk.translate(None, _BULK_BYTES):
                return None
            buf = np.frombuffer(chunk, np.uint8)
            ends = np.flatnonzero(buf == 10)
            commas = np.flatnonzero(buf == 44)
            if (np.diff(np.searchsorted(commas, ends), prepend=0) != n).any():
                return None  # a row of the wrong length
            # every row has n commas, so each n-th one ends a date label
            starts = np.concatenate(([0], ends[:-1] + 1))
            labels += [chunk[a:b] for a, b in zip(starts.tolist(), commas[::n].tolist())]
            after = buf[commas + 1]
            empty = commas[(after == 44) | (after == 13) | (after == 10)] + 1
            if empty.size:
                if not allow_missing:
                    return None
                buf = np.insert(buf, np.repeat(empty, 3), np.tile(_NAN_BYTES, empty.size))
            try:
                block = np.loadtxt(buf.tobytes().decode().splitlines(), np.float64,
                                   comments=None, delimiter=",", usecols=range(1, n + 1), ndmin=2)
            except ValueError:
                return None
            if np.isinf(block).any():
                return None
            blocks.append(block)
    if not labels:
        return None
    try:
        dates = np.array(labels).astype("datetime64")
    except ValueError:
        return None
    if (dates.dtype not in _RESOLUTIONS
            or not (np.datetime_as_string(dates).astype(bytes) == labels).all()
            or not ((_ISO_SPAN[0] <= dates) & (dates < _ISO_SPAN[1])).all()):
        return None
    values = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    if not (dates[1:] > dates[:-1]).all():
        order = np.argsort(dates)
        dates = dates[order]
        if not (dates[1:] > dates[:-1]).all():
            return None  # a duplicate date
        values = values[order]
    values.setflags(write=False)  # the panel takes this buffer, not a copy
    return ReturnPanel(Calendar(dates), assets, values)


def load_panel(path, layout: str = "wide", allow_missing: bool = False) -> ReturnPanel:
    """Load a return panel from CSV.

    ``wide`` layout: header ``date,<asset1>,<asset2>,...``, one row per date.
    ``long`` layout: header ``date,asset,return``, one row per observation.
    Dates are sorted ascending on load; duplicate (date, asset) pairs are
    rejected. Numbers are ASCII decimals as ``float()`` reads them, without
    ``_`` separators; any other cell, and ``nan``, becomes a missing marker
    only when ``allow_missing`` is set, otherwise it is a parse error.
    Infinite values (``inf``, ``1e999``) are always parse errors. A UTF-8
    byte-order mark before the header is ignored.

    A wide file is first read in bulk, chunk by chunk, by numpy's C reader.
    That path returns only a result the per-line parser would return bit for
    bit; on anything unusual or wrong it declines and the per-line parser
    reads the file. Only the per-line parser raises, so every error names
    its line the same way.
    """
    if layout not in ("wide", "long"):
        raise PanelError(f"unknown layout {layout!r}")
    if layout == "wide" and (bulk := _bulk_wide(path, allow_missing)) is not None:
        return bulk
    rows = _data_rows(path)
    try:
        header_line, row = next(rows)
    except StopIteration:
        raise EmptyInputError(f"{path}: no rows") from None
    header = [c.strip() for c in row]

    if layout == "wide":
        if not header or header[0] != "date" or len(header) < 2:
            raise ParseError("wide header must be 'date,<asset>,...'", header_line)
        assets = tuple(header[1:])
        if len(set(assets)) != len(assets) or any(not a for a in assets):
            raise ParseError("asset ids must be unique and non-empty", header_line)
        dates: list[np.datetime64] = []
        lines: list[int] = []
        data: list[list[float]] = []
        seen: set[str] = set()
        for line, row in rows:
            if len(row) != len(assets) + 1:
                raise ParseError(
                    f"expected {len(assets) + 1} cells, got {len(row)}", line
                )
            label = row[0].strip()
            date = _parse_date(label, dates[0] if dates else None, line)
            if label in seen:
                raise DuplicateKeyError(f"line {line}: duplicate date {label!r}")
            seen.add(label)
            dates.append(date)
            lines.append(line)
            data.append([_parse_cell(c, allow_missing, line) for c in row[1:]])
        if not dates:
            raise EmptyInputError(f"{path}: no data rows")
        values = np.asarray(data, dtype=np.float64)
        _require_finite(values, allow_missing, lines, assets)
        order = np.argsort(np.array(dates))
        values = values[order]  # rebinding frees the unsorted copy before the panel's own
        return ReturnPanel(Calendar(np.array(dates)[order]), assets, values)

    if header != ["date", "asset", "return"]:
        raise ParseError("long header must be 'date,asset,return'", header_line)
    obs: dict[tuple[str, str], float] = {}
    label_dates: dict[str, np.datetime64] = {}  # each distinct label, parsed once
    lines = []
    for line, row in rows:
        if len(row) != 3:
            raise ParseError(f"expected 3 cells, got {len(row)}", line)
        date = row[0].strip()
        if date not in label_dates:
            first = next(iter(label_dates.values()), None)
            label_dates[date] = _parse_date(date, first, line)
        asset = row[1].strip()
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
    dates, row_of = np.unique(np.array([label_dates[d] for d, _ in obs]), return_inverse=True)
    assets, col_of = np.unique([a for _, a in obs], return_inverse=True)
    values = np.full((len(dates), len(assets)), np.nan)
    values[row_of, col_of] = parsed
    return ReturnPanel(Calendar(dates), tuple(assets), values)


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
    months, starts = np.unique(panel.calendar.dates.astype(_MONTHLY), return_index=True)
    seen = np.isfinite(panel.values)
    growth = np.where(seen, 1.0 + panel.values, 1.0)
    compounded = np.multiply.reduceat(growth, starts, axis=0) - 1.0
    out = np.where(np.logical_or.reduceat(seen, starts, axis=0), compounded, np.nan)
    return ReturnPanel(Calendar(months), panel.assets, out)


# ---------------------------------------------------------------------------
# Emission


def round_float(x: float) -> float:
    """``x`` rounded to the emitted precision (12 significant digits).

    ``-0.0`` becomes ``0.0`` as in CSV output; NaN and infinities pass
    through unchanged. The result is a plain Python float.
    """
    if x == 0.0:
        return 0.0
    return float(_FLOAT_FMT % x)


def emit_csv(obj, path, header: dict | None = None) -> None:
    """Write a panel, series or grid as CSV, byte-deterministically.

    Fixed 12-significant-digit decimal formatting, fixed column order,
    RFC-4180 quoting. ``header`` entries become leading ``# key=value``
    comment lines (skipped on load). Dates are ISO labels, so a calendar
    outside 0000-01 .. 9999-12 is refused before the file is opened, as is
    an empty asset id or series name or one with surrounding whitespace.

    Only the column header can need quoting; it goes through ``csv.writer``.
    Every row takes one path: rows are formatted ``_ROWS_PER_CALL`` at a
    time, by one ``%`` of the row template repeated once per row over an
    object array of the chunk's keys and cells. A missing or infinite cell is
    held as NaN, so it formats as the token ``nan``, which is then deleted
    from the text of a chunk that holds one; no row key (an ISO date or a
    grid ``m``) and no formatted finite number contains that token. A hole
    is thus written as an empty cell, and ``-0.0`` as ``0``. The dates are
    rendered, and the cells cleaned, one chunk at a time, so the writer
    holds no whole-panel temporary.
    """
    if isinstance(obj, (ReturnPanel, NamedSeries)):
        cal = obj.calendar
        if len(cal) and not (_ISO_SPAN[0] <= cal.dates[0] and cal.dates[-1] < _ISO_SPAN[1]):
            raise PanelError(
                f"cannot write T={len(cal)} periods {cal[0]}..{cal[-1]}: "
                "CSV dates run from 0000-01 to 9999-12"
            )
        names = obj.assets if isinstance(obj, ReturnPanel) else (obj.name,)
        for name in names:
            if not name or name != name.strip():
                raise PanelError(
                    f"cannot write name {name!r}: CSV cells load stripped, so asset ids "
                    "and series names must be non-empty without surrounding whitespace"
                )
        columns, keys = ["date", *names], cal  # a slice of a calendar renders its labels
        cells = obj.values.reshape(len(cal), len(names))
    elif hasattr(obj, "m_values") and hasattr(obj, "n_values"):
        columns = ["m", *(str(n) for n in obj.n_values)]
        keys, cells = [str(m) for m in obj.m_values], obj.cells
    else:
        raise PanelError(f"cannot emit object of type {type(obj).__name__}")
    # row keys (ISO dates, grid m) and formatted numbers never need quoting
    row = ",".join(["%s", *[_FLOAT_FMT] * (len(columns) - 1)]) + "\r\n"
    table = np.empty((_ROWS_PER_CALL, len(columns)), dtype=object)

    def chunks():
        for lo in range(0, len(keys), _ROWS_PER_CALL):
            hi = min(lo + _ROWS_PER_CALL, len(keys))
            finite = np.isfinite(cells[lo:hi])
            chunk = table[: hi - lo]
            chunk[:, 0] = keys[lo:hi]
            chunk[:, 1:] = np.where(finite, cells[lo:hi], np.nan) + 0.0  # -0.0 becomes 0.0
            text = row * (hi - lo) % tuple(chunk.ravel().tolist())
            yield text if finite.all() else text.replace("nan", "")

    with open(path, "w", newline="") as fh:
        if header:
            for key, val in header.items():
                fh.write(f"# {key}={val}\r\n")
        csv.writer(fh).writerow(columns)
        fh.writelines(chunks())


def _integer(value, what: str, low: int | None = None, error=ValueError) -> int:
    """``value`` as a plain int, read through its ``__index__``: ``np.int64(2)``
    and ``True`` pass, ``1.5``, ``np.float64(2.0)`` and ``"2"`` do not. A
    non-integer, or one below ``low`` when given, is an ``error`` naming the
    argument as ``what``; each module passes its own error class."""
    try:
        number = operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None
    if low is not None and number < low:
        raise error(f"{what} must be >= {low}")
    return number


def _number(value, what: str, error=ValueError) -> float:
    """``value`` as a finite float: ``np.int64(1)`` passes; ``"0.1"``, ``True``,
    NaN, an infinity and ``10**400`` are each an ``error`` naming the argument
    as ``what``, as with :func:`_integer`."""
    limit = sys.float_info.max  # not abs(value): np.int64's least overflows it
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and -limit <= value <= limit):  # false for NaN
        return float(value)
    raise error(f"{what} must be a finite number, got {value!r}")


def _workers() -> int:
    """Threads a kernel may use: the CPUs this process may run on, at most
    ``_MAX_WORKERS``."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, _MAX_WORKERS))


def _pool(threads: int):
    """A thread pool of ``threads`` workers for one ``with`` block.

    ``concurrent.futures`` takes several milliseconds to import, so it is
    imported here, on first use, and commands that never make a pool do not
    pay for it.
    """
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(threads)


def _walk_runs(walk, items, parts: int, *args) -> None:
    """Call ``walk(run, *extra)`` on each of ``parts`` contiguous runs of
    ``items``, ``extra`` being the run's entry of each of ``args``: on this
    thread for one part, else one pool thread per run. Returns once every
    run has ended, re-raising what a run raised."""
    runs = [items[len(items) * k // parts : len(items) * (k + 1) // parts] for k in range(parts)]
    if parts == 1:
        walk(runs[0], *(extra[0] for extra in args))
    else:
        with _pool(parts) as pool:
            list(pool.map(walk, runs, *args))
