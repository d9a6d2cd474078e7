"""
Momentum signals and strategies over arbitrary (lag, holding period) pairs.

The signal at date t with lag m and holding period n is the plain sum of the
n returns from t-m-n+1 through t-m. Cross-sectional ("rank") weighting maps
the signal order to equally spaced dollar-neutral weights in [-1, 1];
directional ("sign") weighting takes the sign of the signal. One code path
serves stock panels and factor panels alike; only the input differs. One
grid kernel, :func:`pnl_grid`, serves whole (m, n) grids and single
strategies alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import analytics
from .panel import NamedSeries, ReturnPanel, _integer, _walk_runs, _workers

__all__ = [
    "GridResult",
    "LookaheadError",
    "StrategySpec",
    "grid_sweep",
    "pnl_grid",
    "rank_weights",
    "sign_weights",
    "signal",
    "strategy_pnl",
    "weights_panel",
]

WEIGHTINGS = ("rank", "sign")
LEGS = ("both", "winners", "losers")


class LookaheadError(ValueError):
    """A tradeable strategy was asked to use same-month information."""


@dataclass(frozen=True)
class StrategySpec:
    """One momentum implementation: lag m, holding period n, weighting scheme
    and optional leg filter."""

    m: int
    n: int
    weighting: str = "sign"
    leg: str = "both"

    def __post_init__(self):
        object.__setattr__(self, "m", _integer(self.m, "lag m", 0))
        object.__setattr__(self, "n", _integer(self.n, "holding period n", 1))
        if self.weighting not in WEIGHTINGS:
            raise ValueError(f"weighting must be one of {WEIGHTINGS}")
        if self.leg not in LEGS:
            raise ValueError(f"leg must be one of {LEGS}")


def signal(panel: ReturnPanel, m: int, n: int) -> ReturnPanel:
    """Trailing-sum momentum signal: sum of returns at lags m .. m+n-1.

    The (0, 1) signal is the panel itself. A cell is missing unless the
    window fits inside the history and its raw sum is finite: a missing or
    infinite month, or an overflow, leaves it missing.
    """
    m, n = _integer(m, "lag m", 0), _integer(n, "holding period n", 1)
    T, N = panel.values.shape
    out = np.full((T, N), np.nan)
    t0 = m + n - 1
    if n <= T and t0 < T:
        usable = T - t0  # window ending at t-m exists for t in [t0, T)
        with np.errstate(invalid="ignore", over="ignore"):
            sliding_window_view(panel.values, n, axis=0)[:usable].sum(axis=-1, out=out[t0:])
            out[~np.isfinite(out)] = np.nan
    out.setflags(write=False)  # the panel takes the buffer as is, without a copy
    return ReturnPanel(panel.calendar, panel.assets, out)


def _positions(key: np.ndarray) -> np.ndarray:
    """0-based int32 position of each entry in its row's ascending ``key`` order.

    Finite ties (``-0.0`` ties ``0.0``) go in column order: only rows with a
    tie are sorted again stably, as a stable sort of every row is 4x slower.
    +inf keys mark entries whose order no weight depends on.
    """
    row_start = key.shape[1] * np.arange(len(key))[:, None]  # flat offsets: fast take
    order = np.argsort(key, axis=1)
    ranked = key.take(order + row_start)
    tied = ((ranked[:, 1:] == ranked[:, :-1]) & (ranked[:, 1:] < np.inf)).any(axis=1)
    if tied.any():
        order[tied] = np.argsort(key[tied], axis=1, kind="stable")
    pos = np.empty(key.size, np.int32)
    pos[order + row_start] = np.arange(key.shape[1], dtype=np.int32)
    return pos.reshape(key.shape)


def _spaced(j: np.ndarray, p: np.ndarray, tradeable: np.ndarray) -> np.ndarray:
    """Equally spaced dollar-neutral weights: ascending rank j among a row's P
    tradeable entries gets (2j - (P-1)) / (P-1). Integer numerators make the
    row exactly antisymmetric, so it sums to zero and spans [-1, 1]
    endpoint-exactly. Other entries, and a lone tradeable one, get zero.
    """
    return (2 * j - (p - 1)) * tradeable / np.maximum(p - 1, 1)


def rank_weights(signal_row: np.ndarray) -> np.ndarray:
    """Rank weights of one signal vector; missing entries get weight 0."""
    row = np.asarray(signal_row, float)
    present = np.isfinite(row)
    pos = _positions(np.where(present, row, np.inf)[None])[0]
    return _spaced(pos, present.sum(), present)


def sign_weights(signal_row: np.ndarray) -> np.ndarray:
    """Sign weights of one signal vector; sgn(0) = 0, missing entries get 0."""
    row = np.asarray(signal_row, float)
    return np.sign(np.where(np.isfinite(row), row, 0.0))


# Cells per kernel signal block, split among the workers: bounds the
# temporaries on wide panels.
_BLOCK_CELLS = 1 << 16


def _weight_blocks(panel: ReturnPanel, m_values: Sequence[int], n: int, weighting: str,
                   has_return: np.ndarray, consume) -> None:
    """Walk the weights and tradeable masks of the (m, n) strategies, one
    signal block at a time, calling ``consume(i, rows, weights, tradeable)``
    for ``m_values[i]`` on the rows each block serves.

    One signal pass at the smallest lag m0 serves every m: the (m, n) signal
    at row t is the (m0, n) signal at row t - (m - m0), the same window
    summed in the same order. So the walk goes over blocks of (m0, n) signal
    rows, from m0 + n - 1 on, and each block serves every m at its rows
    shifted by m - m0, clipped at the panel's end. An asset is tradeable at
    t when its signal window is complete and its return at t (``has_return``,
    the panel's finite mask) is observed; a hole has a signal and no return.
    Signs are taken per block. Rank weighting sorts each block's signal rows
    once into positions; a (m, n) rank is a position less the holes ahead of
    it. Lags whose rows have no hole read the block's weight table, built at
    most once per block, when the first such lag needs it.

    A block reads only its own signal rows, and for a given m no two blocks
    write the same rows, so blocks need no order among themselves. Signal
    rows that fit in one block of ``_BLOCK_CELLS`` are walked on this thread.
    Otherwise up to :func:`_workers` threads each walk one contiguous run of
    blocks of ``_BLOCK_CELLS // threads`` cells, so the temporaries stay one
    block's worth: every row is computed by the same operations at any block
    size and worker count. ``consume`` runs on the worker threads, so it,
    like the walk, may call no public function (a tracer keeps one span stack
    per process) nor rely on ``np.errstate``, which pool threads do not
    inherit; the signal is taken on this thread.
    """
    T, N = panel.values.shape
    m0 = min(m_values)
    base = signal(panel, m0, n).values
    has_signal = np.isfinite(base)

    def blocks_of(threads):  # rows from m0 + n - 1 on, in blocks for ``threads``
        step = max(1, _BLOCK_CELLS // threads // max(N, 1))
        return [slice(start, min(start + step, T)) for start in range(m0 + n - 1, T, step)]

    def walk(run):
        for b in run:
            present, table = has_signal[b], None
            if weighting == "rank":  # missing signals sort last; NaN keys slow argsort 5x
                pos = _positions(np.where(present, base[b], np.inf))
                count = present.sum(axis=1, keepdims=True, dtype=np.int32)
            for i, m in enumerate(m_values):
                rows = slice(b.start + m - m0, min(b.stop + m - m0, T))
                k = rows.stop - rows.start  # the block's first k signal rows serve them
                if k <= 0:
                    continue
                tradeable = present[:k] & has_return[rows]
                if weighting == "sign":
                    weights = np.sign(base[b][:k], out=np.zeros(tradeable.shape), where=tradeable)
                elif not (holes := present[:k] & ~tradeable).any():
                    if table is None:
                        table = _spaced(pos, count, present)
                    weights = table[:k]
                else:
                    at = pos[:k]
                    flat = at + N * np.arange(k, dtype=np.int32)[:, None]
                    per_row = holes.sum(axis=1, keepdims=True, dtype=np.int32)
                    # holes up to each flat position, less those of earlier
                    # rows: a 1-d cumsum frees the GIL, a row-wise one does not
                    ahead = np.zeros(at.size, np.int32)
                    ahead[flat[holes]] = 1
                    earlier = per_row.cumsum(dtype=np.int32).reshape(per_row.shape) - per_row
                    j = at - (ahead.cumsum(dtype=np.int32).take(flat) - earlier)
                    p = count[:k] - per_row
                    weights = _spaced(j, p, tradeable)
                consume(i, rows, weights, tradeable)

    threads = min(_workers(), len(blocks_of(1))) or 1  # no rows: nothing to split
    _walk_runs(walk, blocks_of(threads), threads)


def weights_panel(panel: ReturnPanel, spec: StrategySpec) -> ReturnPanel:
    """Portfolio weights per date for ``spec``, as a panel.

    An asset is tradeable at t when its signal window is complete and its
    return at t is observed; everything else gets weight zero.
    """
    w = np.zeros(panel.values.shape)

    def put(i, rows, block, tradeable):
        w[rows] = block

    _weight_blocks(panel, (spec.m,), spec.n, spec.weighting, np.isfinite(panel.values), put)
    return ReturnPanel(panel.calendar, panel.assets, w)


def pnl_grid(
    panel: ReturnPanel,
    m_values: Sequence[int],
    n_values: Sequence[int],
    weighting: str = "sign",
    leg: str = "both",
) -> dict[tuple[int, int], NamedSeries]:
    """PNL of every (m, n) momentum strategy of a grid, keyed by ``(m, n)``.

    Each cell is the raw PNL of ``StrategySpec(m, n, weighting, leg)``:
    weights(signal at t) dot returns at t. Requires m >= 1 so the weights
    only use information strictly before the returns they multiply.
    ``leg="winners"`` keeps positive-weight positions only, ``"losers"``
    negative-weight positions (their weights stay negative, so winners +
    losers = both, date by date). Dates before any signal window fits, or
    where no asset is tradeable, are missing. Risk management is the
    caller's stage: ``riskpipe.vol_normalize`` of a cell.

    One signal pass and, for rank weighting, one sort per holding period n
    serve every lag m; each cell is bit-identical to computing it alone.
    """
    if not m_values or not n_values:
        raise ValueError("empty (m, n) grid range")
    # validates every cell and reads its lags as plain ints
    specs = [StrategySpec(m, n, weighting, leg) for m in m_values for n in n_values]
    ms = sorted({spec.m for spec in specs})
    if ms[0] < 1:
        raise LookaheadError(
            "tradeable strategies need m >= 1; m = 0 would trade on the "
            "month being earned"
        )
    T = panel.n_periods
    has_return = np.isfinite(panel.values)
    kind = "xs" if weighting == "rank" else "ts"
    suffix = "" if leg == "both" else f"_{leg}"
    grid = {}
    for n in sorted({spec.n for spec in specs}):
        values = np.full((len(ms), T), np.nan)

        def add_pnl(i, rows, w, tradeable):  # the walk ends before n moves on
            if leg == "winners":
                w = np.where(w > 0.0, w, 0.0)
            elif leg == "losers":
                w = np.where(w < 0.0, w, 0.0)
            contrib = w * np.where(tradeable, panel.values[rows], 0.0)
            values[i, rows] = np.where(tradeable.any(axis=1), contrib.sum(axis=1), np.nan)

        _weight_blocks(panel, ms, n, weighting, has_return, add_pnl)
        for i, m in enumerate(ms):
            name = f"{kind}_mom_m{m}_n{n}{suffix}"
            stage = f"strategy({weighting},m={m},n={n},leg={leg})"
            grid[m, n] = NamedSeries(panel.calendar, name, values[i], (stage,))
    return grid


def strategy_pnl(panel: ReturnPanel, spec: StrategySpec) -> NamedSeries:
    """PNL of one momentum strategy: the 1x1 :func:`pnl_grid` of ``spec``."""
    return pnl_grid(panel, (spec.m,), (spec.n,), spec.weighting, spec.leg)[spec.m, spec.n]


@dataclass(frozen=True)
class GridResult:
    """One statistic per (m, n) cell; rows are m values, columns n values."""

    m_values: tuple[int, ...]
    n_values: tuple[int, ...]
    cells: np.ndarray
    stat: str

    def __post_init__(self):
        arr = np.asarray(self.cells, float)
        if arr.shape != (len(self.m_values), len(self.n_values)):
            raise ValueError("cells shape must be (len(m_values), len(n_values))")
        object.__setattr__(self, "cells", arr)

    def cell(self, m: int, n: int) -> float:
        return float(self.cells[self.m_values.index(m), self.n_values.index(n)])


STATISTICS = ("sharpe", "corr", "residual_sharpe")


def grid_sweep(
    pnls: dict[tuple[int, int], NamedSeries],
    m_values: Sequence[int],
    n_values: Sequence[int],
    stat: str = "sharpe",
    *,
    reference=None,
    controls=None,
    min_months: int = 24,
) -> GridResult:
    """Evaluate one statistic over a rectangle of (m, n) strategies.

    ``pnls`` is a grid built by :func:`pnl_grid` holding every (m, n) cell of
    the rectangle, so several statistics can share one grid.
    ``stat="sharpe"`` needs nothing else; ``"corr"`` needs ``reference``;
    ``"residual_sharpe"`` needs ``controls``. Both ``reference`` and
    ``controls`` may be fixed series (a series / list of series) or a
    callable of (m, n) returning them, so per-cell controls such as the
    same-(m, n) strategy on another panel are possible. Cells with fewer
    than ``min_months`` PNL observations, or degenerate statistics, are
    missing. Cells are independent; evaluation order never affects values.
    """
    m_values = tuple(_integer(m, "lag m") for m in m_values)
    n_values = tuple(_integer(n, "holding period n") for n in n_values)
    min_months = _integer(min_months, "min_months")
    if not m_values or not n_values:
        raise ValueError("empty (m, n) grid range")
    if stat not in STATISTICS:
        raise ValueError(f"stat must be one of {STATISTICS}")
    if stat == "corr" and reference is None:
        raise ValueError("stat='corr' needs a reference series")
    if stat == "residual_sharpe" and controls is None:
        raise ValueError("stat='residual_sharpe' needs control series")

    cells = np.full((len(m_values), len(n_values)), np.nan)
    for i, m in enumerate(m_values):
        for j, n in enumerate(n_values):
            pnl = pnls[m, n]
            if np.isfinite(pnl.values).sum() < min_months:
                continue
            try:
                if stat == "sharpe":
                    cells[i, j] = analytics.perf_stats(pnl).sharpe_annual
                elif stat == "corr":
                    ref = reference(m, n) if callable(reference) else reference
                    cells[i, j] = analytics.correlation(pnl, ref)
                else:
                    ctl = controls(m, n) if callable(controls) else list(controls)
                    result = analytics.spanning_regression(pnl, ctl)
                    cells[i, j] = result.residual_stats.sharpe_annual
            except analytics.UndefinedStatError:
                continue
    return GridResult(m_values, n_values, cells, stat)
