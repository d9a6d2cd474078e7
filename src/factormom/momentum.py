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
from .panel import ReturnPanel
from .riskpipe import PnlSeries

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


class LookaheadError(Exception):
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
        if self.m < 0:
            raise ValueError("lag m must be >= 0")
        if self.n < 1:
            raise ValueError("holding period n must be >= 1")
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
    if m < 0 or n < 1:
        raise ValueError("need m >= 0 and n >= 1")
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


# Cells per kernel row block: bounds the temporaries on wide panels.
_BLOCK_CELLS = 1 << 16


def _weight_blocks(panel: ReturnPanel, m_values: Sequence[int], n: int, weighting: str):
    """Weights and tradeable masks of the (m, n) strategies, one row block at a time.

    One signal pass at the smallest lag m0 serves every m: the (m, n) signal
    at row t is the (m0, n) signal at row t - (m - m0), the same window
    summed in the same order. An asset is tradeable at t when its signal
    window is complete and its return at t is observed; a hole has a signal
    and no return. Signs are taken per block; rank weighting sorts each
    (m0, n) signal row once into positions and drops the signal. A (m, n)
    rank is a position less the holes ahead of it. Blocks without a hole
    read one weight table, built on first use: one weight pass per n.
    Yields ``(i, rows, weights, tradeable)`` for ``m_values[i]`` from the
    first (m, n) signal row, m + n - 1, on.
    """
    T, N = panel.values.shape
    m0 = min(m_values)
    base = signal(panel, m0, n).values
    has_signal = np.isfinite(base)
    step = max(1, _BLOCK_CELLS // max(N, 1))
    blocks = [slice(start, start + step) for start in range(m0 + n - 1, T, step)]
    if weighting == "rank":
        pos = np.zeros((T, N), np.int32)
        for b in blocks:  # missing signals sort last; NaN keys slow argsort 5x
            pos[b] = _positions(np.where(has_signal[b], base[b], np.inf))
        count = has_signal.sum(axis=1, keepdims=True, dtype=np.int32)
        table = None
        del base
    has_return = np.isfinite(panel.values)
    for i, m in enumerate(m_values):
        shift = m - m0
        for start in range(m + n - 1, T, step):
            rows = slice(start, min(start + step, T))
            src = slice(start - shift, rows.stop - shift)
            tradeable = has_signal[src] & has_return[rows]
            if weighting == "sign":
                weights = np.sign(base[src], out=np.zeros(tradeable.shape), where=tradeable)
            elif not (holes := has_signal[src] & ~tradeable).any():
                if table is None:
                    table = np.zeros((T, N))
                    for b in blocks:
                        table[b] = _spaced(pos[b], count[b], has_signal[b])
                weights = table[src].copy()  # a view would pin the table in the caller
            else:
                at = pos[src]
                flat = at + N * np.arange(len(at))[:, None]
                ahead = np.zeros(at.size, np.int32)
                ahead[flat[holes]] = 1
                j = at - ahead.reshape(at.shape).cumsum(axis=1, dtype=np.int32).take(flat)
                p = count[src] - holes.sum(axis=1, keepdims=True, dtype=np.int32)
                weights = _spaced(j, p, tradeable)
            yield i, rows, weights, tradeable


def weights_panel(panel: ReturnPanel, spec: StrategySpec) -> ReturnPanel:
    """Portfolio weights per date for ``spec``, as a panel.

    An asset is tradeable at t when its signal window is complete and its
    return at t is observed; everything else gets weight zero.
    """
    w = np.zeros(panel.values.shape)
    for _, rows, block, _ in _weight_blocks(panel, (spec.m,), spec.n, spec.weighting):
        w[rows] = block
    return ReturnPanel(panel.calendar, panel.assets, w)


def pnl_grid(
    panel: ReturnPanel,
    m_values: Sequence[int],
    n_values: Sequence[int],
    weighting: str = "sign",
    leg: str = "both",
) -> dict[tuple[int, int], PnlSeries]:
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
    for m in m_values:
        for n in n_values:
            StrategySpec(m, n, weighting, leg)  # validates the cell
    if any(m < 1 for m in m_values):
        raise LookaheadError(
            "tradeable strategies need m >= 1; m = 0 would trade on the "
            "month being earned"
        )
    T = panel.n_periods
    ms = sorted(set(m_values))
    kind = "xs" if weighting == "rank" else "ts"
    suffix = "" if leg == "both" else f"_{leg}"
    grid = {}
    for n in sorted(set(n_values)):
        values = np.full((len(ms), T), np.nan)
        for i, rows, w, tradeable in _weight_blocks(panel, ms, n, weighting):
            if leg == "winners":
                w = np.where(w > 0.0, w, 0.0)
            elif leg == "losers":
                w = np.where(w < 0.0, w, 0.0)
            contrib = w * np.where(tradeable, panel.values[rows], 0.0)
            values[i, rows] = np.where(tradeable.any(axis=1), contrib.sum(axis=1), np.nan)
        for i, m in enumerate(ms):
            name = f"{kind}_mom_m{m}_n{n}{suffix}"
            stage = f"strategy({weighting},m={m},n={n},leg={leg})"
            grid[m, n] = PnlSeries(panel.calendar, name, values[i], (stage,))
    return grid


def strategy_pnl(panel: ReturnPanel, spec: StrategySpec) -> PnlSeries:
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
    pnls: dict[tuple[int, int], PnlSeries],
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
    m_values = tuple(int(m) for m in m_values)
    n_values = tuple(int(n) for n in n_values)
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
