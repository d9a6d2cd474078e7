"""
Causal risk management for PNL series: rolling beta-hedge against a market
series, rolling volatility normalization to a constant target, and the
equal-risk average of a factor panel ("menagerie").

Every estimate used at date t is computed on a trailing window that ends at
t - lag, so no output ever looks ahead. Months before the first complete
window are missing rather than computed on shrunken windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .panel import NamedSeries, ReturnPanel, _integer, _number, require_aligned

__all__ = [
    "InsufficientHistoryError",
    "PipelineConfig",
    "beta_hedge",
    "menagerie",
    "vol_normalize",
]


class InsufficientHistoryError(ValueError):
    """Not enough observations to ever fill one estimation window."""


@dataclass(frozen=True)
class PipelineConfig:
    """Rolling-window settings shared by all pipeline stages.

    ``lag_months`` >= 1 keeps every estimate strictly causal: the window
    used at date t ends at t - lag_months.
    """

    window_months: int = 36
    lag_months: int = 1
    vol_target: float = 0.01
    min_obs: int | None = None

    def __post_init__(self):
        for key, low in (("window_months", 2), ("lag_months", 1)):  # lag >= 1: causality
            object.__setattr__(self, key, _integer(getattr(self, key), key, low))
        object.__setattr__(self, "vol_target", _number(self.vol_target, "vol_target"))
        if not self.vol_target > 0:
            raise ValueError(f"vol_target must be positive, got {self.vol_target}")
        if self.min_obs is not None:
            object.__setattr__(self, "min_obs", _integer(self.min_obs, "min_obs"))
            if not 2 <= self.min_obs <= self.window_months:
                raise ValueError("min_obs must lie in [2, window_months]")

    @property
    def effective_min_obs(self) -> int:
        return self.window_months if self.min_obs is None else self.min_obs


def _as_pnl(series: NamedSeries, values: np.ndarray, stage: str) -> NamedSeries:
    return NamedSeries(series.calendar, series.name, values, series.meta + (stage,))


def _window_moments(values: np.ndarray, window: int):
    """Per trailing window: count of finite entries and demeaned view.

    Windows are rows of a (T - window + 1, window) array; window j ends at
    index j + window - 1. Entries that are not finite are 0.0 in the
    demeaned form; the mean subtracted is the window sum with NaN read as
    zero (inf kept) over the finite count. Fewer than ``window`` values is
    an :class:`InsufficientHistoryError`.

    The finite mask and the NaN-as-zero series are formed once in 1-D and
    read through ``sliding_window_view``, so the only window-sized array
    made is the demeaned one. Summing a row of the view adds in the same
    order as summing a copied window matrix, so every bit matches that
    direct form.

    An exactly-constant window must have exactly zero spread, but the
    rounded mean can leave 1-ulp residues, so such windows are zeroed. A
    window is constant when no two consecutive finite values in it differ
    (``!=``, so -0.0 equals 0.0), which a running count of value changes
    along the finite values answers for every window at once.
    """
    T = len(values)
    if T < window:
        raise InsufficientHistoryError(
            f"{T} months of data cannot fill a {window}-month window"
        )
    finite = np.isfinite(values)
    seen = np.concatenate(([0], np.cumsum(finite)))  # finite entries before each index
    first, stop = seen[: T - window + 1], seen[window:]  # window j holds kept[first:stop]
    cnt = stop - first
    kept = values[finite]
    changes = np.concatenate(([0, 0], np.cumsum(kept[1:] != kept[:-1])))  # among kept[:i]
    # changes inside kept[first:stop]; an empty window reads as flat, its row is zero anyway
    flat = changes[stop] == changes[np.minimum(first + 1, stop)]
    with np.errstate(invalid="ignore"):
        total = sliding_window_view(np.where(np.isnan(values), 0.0, values), window).sum(axis=1)
        mean = np.where(cnt > 0, total / np.maximum(cnt, 1), np.nan)
        dm = np.zeros((T - window + 1, window))
        np.subtract(sliding_window_view(values, window), mean[:, None], out=dm,
                    where=sliding_window_view(finite, window))
    dm[flat] = 0.0
    return cnt, dm


def beta_hedge(factor: NamedSeries, market: NamedSeries,
               cfg: PipelineConfig | None = None) -> NamedSeries:
    """Subtract the trailing-window market beta from a factor PNL.

    output_t = factor_t - beta_{t-lag} * market_t, where beta is the OLS
    slope of factor on market over the ``window_months`` trailing months
    ending at t - lag. Windows with zero market variance carry the previous
    beta forward; windows with fewer than ``min_obs`` overlapping months are
    missing, as is the burn-in before the first complete window.
    """
    cfg = cfg or PipelineConfig()
    cal = require_aligned(factor, market)
    W, L, min_obs = cfg.window_months, cfg.lag_months, cfg.effective_min_obs
    T = len(cal)
    out = np.full(T, np.nan)

    pair = np.isfinite(factor.values) & np.isfinite(market.values)
    f = np.where(pair, factor.values, np.nan)
    m = np.where(pair, market.values, np.nan)
    cnt, dm = _window_moments(m, W)
    _, df = _window_moments(f, W)
    if not np.any(cnt >= min_obs):
        raise InsufficientHistoryError(
            f"no window holds {min_obs} overlapping factor/market months"
        )
    var = (dm * dm).sum(axis=1)
    cov = (dm * df).sum(axis=1)

    enough = cnt >= min_obs
    fitted = enough & (var > 0.0)
    slope = np.divide(cov, var, out=np.full(len(var), np.nan), where=fitted)
    # zero market variance: carry the beta of the last fitted window forward
    last = np.maximum.accumulate(np.where(fitted, np.arange(len(var)), -1))
    carried = slope[last]
    betas = np.where(enough & (last >= 0) & np.isfinite(carried), carried, np.nan)

    # window ending at t - L is window index t - L - (W - 1)
    t = np.arange(W + L - 1, T)
    b = betas[t - L - (W - 1)]
    out[t] = factor.values[t] - b * market.values[t]
    return _as_pnl(factor, out, f"beta_hedge(window={W},lag={L})")


def vol_normalize(series: NamedSeries, cfg: PipelineConfig | None = None) -> NamedSeries:
    """Scale a series to a constant volatility target.

    output_t = vol_target * x_t / sigma_{t-lag}, where sigma is the sample
    standard deviation over the trailing window ending at t - lag. Months
    whose window has fewer than ``min_obs`` observations, or zero standard
    deviation, are missing.
    """
    cfg = cfg or PipelineConfig()
    W, L, min_obs = cfg.window_months, cfg.lag_months, cfg.effective_min_obs
    T = len(series.calendar)
    cnt, dx = _window_moments(series.values, W)
    if not np.any(cnt >= min_obs):
        raise InsufficientHistoryError(f"no window holds {min_obs} observations")
    with np.errstate(invalid="ignore", divide="ignore"):
        var = np.where(cnt >= 2, (dx * dx).sum(axis=1) / np.maximum(cnt - 1, 1), np.nan)
        sd = np.sqrt(var)
        sd = np.where((cnt >= min_obs) & (sd > 0.0), sd, np.nan)

    out = np.full(T, np.nan)
    t = np.arange(W + L - 1, T)
    out[t] = cfg.vol_target * series.values[t] / sd[t - L - (W - 1)]
    stage = f"vol_normalize(window={W},lag={L},target={cfg.vol_target:g})"
    return _as_pnl(series, out, stage)


def menagerie(factors: ReturnPanel) -> NamedSeries:
    """Equal-weight sum of a factor panel, $1 in each factor.

    Rows with missing factors sum over the available ones; all-missing rows
    are missing. Vol-managing the sum is the caller's stage:
    ``vol_normalize(menagerie(factors), cfg)``.
    """
    finite = np.isfinite(factors.values)
    total = np.where(finite, factors.values, 0.0).sum(axis=1)
    values = np.where(finite.any(axis=1), total, np.nan)
    return NamedSeries(factors.calendar, "menagerie", values,
                       (f"menagerie(sum_available,n_factors={factors.n_assets})",))
