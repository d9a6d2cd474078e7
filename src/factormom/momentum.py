"""
Momentum signals and strategies over arbitrary (lag, holding period) pairs.

The signal at date t with lag m and holding period n is the plain sum of the
n returns from t-m-n+1 through t-m. Cross-sectional ("rank") weighting maps
the signal order to equally spaced dollar-neutral weights in [-1, 1];
directional ("sign") weighting takes the sign of the signal. One code path
serves stock panels and factor panels alike; only the input differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import analytics
from .panel import ReturnPanel
from .riskpipe import PipelineConfig, PnlSeries, vol_normalize

__all__ = [
    "GridResult",
    "LookaheadError",
    "StrategySpec",
    "grid_sweep",
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
    """One momentum implementation: lag m, holding period n, weighting scheme,
    optional leg filter, optional trailing-vol management of the PNL."""

    m: int
    n: int
    weighting: str = "sign"
    leg: str = "both"
    risk_managed: bool = False

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

    The (0, 1) signal is the panel itself. A cell is missing unless all n
    constituent months are present and the window fits inside the history.
    """
    if m < 0 or n < 1:
        raise ValueError("need m >= 0 and n >= 1")
    T, N = panel.values.shape
    out = np.full((T, N), np.nan)
    t0 = m + n - 1
    if n <= T and t0 < T:
        finite = np.isfinite(panel.values)
        filled = np.where(finite, panel.values, 0.0)
        window_sum = sliding_window_view(filled, n, axis=0).sum(axis=-1)
        window_ok = sliding_window_view(finite, n, axis=0).all(axis=-1)
        usable = T - t0  # window ending at t-m exists for t in [t0, T)
        out[t0:] = np.where(window_ok[:usable], window_sum[:usable], np.nan)
    return ReturnPanel(panel.calendar, panel.assets, out)


def _rank_weight_rows(values: np.ndarray, tradeable: np.ndarray) -> np.ndarray:
    """Equally spaced dollar-neutral weights per row.

    Among the P tradeable entries of a row, ascending signal rank j gets
    weight (2j - (P-1)) / (P-1): integer numerators make the vector exactly
    antisymmetric, so it sums to zero and spans [-1, 1] endpoint-exactly.
    Ties keep ascending asset order (stable sort). Rows with P < 2 are all
    zero.
    """
    T, N = values.shape
    key = np.where(tradeable, values, np.inf)
    order = np.argsort(key, axis=1, kind="stable")
    pos = np.empty((T, N), dtype=np.int64)
    np.put_along_axis(pos, order, np.broadcast_to(np.arange(N), (T, N)), axis=1)
    p = tradeable.sum(axis=1)[:, None]
    with np.errstate(invalid="ignore"):
        w = (2.0 * pos - (p - 1)) / np.maximum(p - 1, 1)
    return np.where(tradeable & (p >= 2), w, 0.0)


def _sign_weight_rows(values: np.ndarray, tradeable: np.ndarray) -> np.ndarray:
    signs = np.sign(np.where(np.isfinite(values), values, 0.0))
    return np.where(tradeable, signs, 0.0)


def rank_weights(signal_row: np.ndarray) -> np.ndarray:
    """Rank weights of one signal vector; missing entries get weight 0."""
    row = np.asarray(signal_row, float)[None, :]
    return _rank_weight_rows(row, np.isfinite(row))[0]


def sign_weights(signal_row: np.ndarray) -> np.ndarray:
    """Sign weights of one signal vector; sgn(0) = 0, missing entries get 0."""
    row = np.asarray(signal_row, float)[None, :]
    return _sign_weight_rows(row, np.isfinite(row))[0]


def _weights(panel: ReturnPanel, spec: StrategySpec) -> tuple[np.ndarray, np.ndarray]:
    """``(weights, tradeable)`` arrays for ``spec``, from one signal pass."""
    sig = signal(panel, spec.m, spec.n)
    tradeable = np.isfinite(sig.values) & np.isfinite(panel.values)
    weigh = _rank_weight_rows if spec.weighting == "rank" else _sign_weight_rows
    return weigh(sig.values, tradeable), tradeable


def weights_panel(panel: ReturnPanel, spec: StrategySpec) -> ReturnPanel:
    """Portfolio weights per date for ``spec``, as a panel.

    An asset is tradeable at t when its signal window is complete and its
    return at t is observed; everything else gets weight zero.
    """
    return ReturnPanel(panel.calendar, panel.assets, _weights(panel, spec)[0])


def strategy_pnl(
    panel: ReturnPanel,
    spec: StrategySpec,
    cfg: PipelineConfig | None = None,
) -> PnlSeries:
    """PNL of a momentum strategy: weights(signal at t) dot returns at t.

    Requires m >= 1 so the weights only use information strictly before the
    returns they multiply. ``leg="winners"`` keeps positive-weight positions
    only, ``"losers"`` negative-weight positions (their weights stay
    negative, so winners + losers = both, date by date). Dates before any
    signal window fits, or where no asset is tradeable, are missing. With
    ``spec.risk_managed`` the raw PNL is trailing-vol normalized.
    """
    if spec.m < 1:
        raise LookaheadError(
            "tradeable strategies need m >= 1; m = 0 would trade on the "
            "month being earned"
        )
    w, tradeable = _weights(panel, spec)
    if spec.leg == "winners":
        w = np.where(w > 0.0, w, 0.0)
    elif spec.leg == "losers":
        w = np.where(w < 0.0, w, 0.0)

    contrib = w * np.where(tradeable, panel.values, 0.0)
    values = contrib.sum(axis=1)
    values[~tradeable.any(axis=1)] = np.nan
    values[: min(spec.m + spec.n - 1, len(values))] = np.nan

    suffix = "" if spec.leg == "both" else f"_{spec.leg}"
    name = f"{'xs' if spec.weighting == 'rank' else 'ts'}_mom_m{spec.m}_n{spec.n}{suffix}"
    stage = f"strategy({spec.weighting},m={spec.m},n={spec.n},leg={spec.leg})"
    out = PnlSeries(panel.calendar, name, values, (stage,))
    if spec.risk_managed:
        out = vol_normalize(out, cfg)
    return out


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

DEFAULT_GRID = tuple(range(1, 13))


def grid_sweep(
    panel: ReturnPanel,
    m_values: Sequence[int] = DEFAULT_GRID,
    n_values: Sequence[int] = DEFAULT_GRID,
    weighting: str = "sign",
    stat: str = "sharpe",
    *,
    leg: str = "both",
    risk_managed: bool = False,
    cfg: PipelineConfig | None = None,
    reference=None,
    controls=None,
    min_months: int = 24,
) -> GridResult:
    """Evaluate one statistic over a rectangle of (m, n) strategies.

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
            spec = StrategySpec(m, n, weighting, leg, risk_managed)
            pnl = strategy_pnl(panel, spec, cfg)
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
