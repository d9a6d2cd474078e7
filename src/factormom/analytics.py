"""
Statistical layer: annualized Sharpe ratios and t-stats, correlations,
full-sample spanning regressions with residual Sharpe, and the closed-form
PNL of naive one-factor momentum under an AR(1) return process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .panel import AlignmentError, Calendar, NamedSeries, _number

__all__ = [
    "AR1MomentumPnl",
    "AR1Params",
    "NonStationaryError",
    "PerfStats",
    "RankDeficiencyError",
    "RegressionResult",
    "UndefinedStatError",
    "ar1_momentum_pnl",
    "correlation",
    "perf_stats",
    "sharpe_standard_error",
    "spanning_regression",
]

MONTHS_PER_YEAR = 12


class UndefinedStatError(ValueError):
    """A statistic is undefined on this input (too short or degenerate)."""


class RankDeficiencyError(ValueError):
    """Regressors are (numerically) collinear; names the offending pair."""


class NonStationaryError(ValueError):
    """Process parameters admit no stationary distribution."""


@dataclass(frozen=True, kw_only=True)
class PerfStats:
    """Monthly-return performance summary.

    sharpe_annual = (mean_monthly / vol_monthly) * sqrt(12) and
    t_stat = sharpe_annual * sqrt(n_months / 12), i.e. the annualized Sharpe
    times the square root of the sample length in years.

    The fields are declared in the order of a ``stats.json`` row, which is
    this record as a dict; they are keyword-only, so a positional
    construction fails rather than swapping two of them.
    """

    sharpe_annual: float
    t_stat: float
    mean_monthly: float
    vol_monthly: float
    n_months: int


def perf_stats(series) -> PerfStats:
    """Performance statistics of a monthly return series, skipping missing
    months."""
    x = np.asarray(series.values if hasattr(series, "values") else series, float)
    x = x[np.isfinite(x)]
    n = len(x)
    if n < 2:
        raise UndefinedStatError(f"need at least 2 observations, got {n}")
    mean = float(x.mean())
    vol = float(x.std(ddof=1))
    if vol == 0.0 or np.ptp(x) == 0.0:  # a constant's rounded mean leaves vol > 0
        raise UndefinedStatError("zero volatility, Sharpe undefined")
    sharpe = mean / vol * np.sqrt(MONTHS_PER_YEAR)
    t_stat = sharpe * np.sqrt(n / MONTHS_PER_YEAR)
    return PerfStats(sharpe_annual=float(sharpe), t_stat=float(t_stat),
                     mean_monthly=mean, vol_monthly=vol, n_months=n)


def sharpe_standard_error(stats: PerfStats) -> float:
    """Asymptotic standard error of the annualized Sharpe estimate."""
    sr_m = stats.mean_monthly / stats.vol_monthly
    return float(np.sqrt((1.0 + 0.5 * sr_m**2) / stats.n_months) * np.sqrt(MONTHS_PER_YEAR))


def _overlap(series_list: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Common calendar dates and the stacked values on them.

    Series whose calendars all equal the first one (same resolution, same
    dates) are stacked as they are; only mismatched calendars are
    intersected. A monthly and a daily calendar raise
    :class:`AlignmentError`.
    """
    first = series_list[0].calendar
    if all(s.calendar == first for s in series_list[1:]):
        return first.dates, np.column_stack([s.values for s in series_list])
    common = first.dates
    for s in series_list[1:]:
        if s.calendar.dates.dtype != common.dtype:
            raise AlignmentError("a monthly and a daily calendar have no dates in common")
        common = np.intersect1d(common, s.calendar.dates, assume_unique=True)
    cols = [s.values[np.searchsorted(s.calendar.dates, common)] for s in series_list]
    return common, np.column_stack(cols)


def correlation(a, b) -> float:
    """Pearson correlation of two series on their non-missing overlap."""
    _, stacked = _overlap([a, b])
    keep = np.isfinite(stacked).all(axis=1)
    x, y = stacked[keep, 0], stacked[keep, 1]
    if len(x) < 2:
        raise UndefinedStatError("need at least 2 overlapping observations")
    dx, dy = x - x.mean(), y - y.mean()
    denom = np.sqrt((dx @ dx) * (dy @ dy))
    if denom == 0.0 or np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        raise UndefinedStatError("degenerate variance, correlation undefined")
    return float((dx @ dy) / denom)


@dataclass(frozen=True)
class RegressionResult:
    """Full-sample OLS of a target PNL on control PNLs.

    The residual series keeps the intercept: residual = target - sum of
    beta * control. Its mean is therefore the regression alpha, and the
    residual Sharpe measures unspanned performance rather than being zero
    by construction.
    """

    betas: tuple[float, ...]
    control_names: tuple[str, ...]
    intercept: float
    residuals: NamedSeries
    residual_stats: PerfStats
    r_squared: float


_COND_LIMIT = 1e10


def _name_collinear_pair(controls_mat: np.ndarray, names: Sequence[str]) -> tuple[str, str]:
    k = controls_mat.shape[1]
    stds = controls_mat.std(axis=0)
    for j in range(k):
        if np.ptp(controls_mat[:, j]) == 0.0:  # constant; its std may round above 0
            return (names[j], "intercept")
    best, pair = -1.0, (names[0], names[min(1, k - 1)])
    for i in range(k):
        for j in range(i + 1, k):
            di = controls_mat[:, i] - controls_mat[:, i].mean()
            dj = controls_mat[:, j] - controls_mat[:, j].mean()
            c = abs(float(di @ dj)) / (stds[i] * stds[j] * len(di))
            if c > best:
                best, pair = c, (names[i], names[j])
    return pair


def spanning_regression(target: NamedSeries,
                        controls: Sequence[NamedSeries]) -> RegressionResult:
    """Regress a target PNL on controls over the full overlapping sample.

    Solved by normal equations with a relative condition-number guard at
    1e10; beyond it the offending control pair is named. The residual
    retains the intercept (see :class:`RegressionResult`).
    """
    controls = list(controls)
    if not controls:
        raise ValueError("need at least one control series")
    names = tuple(c.name for c in controls)
    common, stacked = _overlap([target, *controls])
    keep = np.isfinite(stacked).all(axis=1)
    y = stacked[keep, 0]
    C = stacked[keep, 1:]
    n, k = C.shape
    if n < k + 2:
        raise UndefinedStatError(
            f"need at least {k + 2} overlapping months for {k} controls, got {n}"
        )

    X = np.column_stack([np.ones(n), C])
    G = X.T @ X
    scale = np.sqrt(np.diag(G))
    if np.any(scale == 0.0):
        raise RankDeficiencyError(
            f"degenerate regressor pair: {_name_collinear_pair(C, names)}"
        )
    Gs = G / np.outer(scale, scale)
    cond = float(np.linalg.cond(Gs))
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        pair = _name_collinear_pair(C, names)
        raise RankDeficiencyError(
            f"collinear controls (condition {cond:.3g} > {_COND_LIMIT:g}): {pair}"
        )
    coef = np.linalg.solve(G, X.T @ y)
    intercept, betas = float(coef[0]), coef[1:]

    fitted = X @ coef
    ss_res = float(((y - fitted) ** 2).sum())
    dy = y - y.mean()
    ss_tot = float(dy @ dy)
    if ss_tot == 0.0 or np.ptp(y) == 0.0:  # a constant's rounded mean leaves ss_tot > 0
        raise UndefinedStatError("target has zero variance")
    if ss_res <= 1e-12 * ss_tot:
        # a numerically perfect fit leaves only float noise in the residual
        raise UndefinedStatError(
            "target is exactly spanned by the controls; residual variance is zero"
        )
    r_squared = 1.0 - ss_res / ss_tot

    stage = f"spanning_residual(intercept_retained,controls={','.join(names)})"
    residuals = NamedSeries(Calendar(common[keep]), f"{target.name}_residual",
                            y - C @ betas, target.meta + (stage,))
    residual_stats = perf_stats(residuals)
    return RegressionResult(
        tuple(float(b) for b in betas), names, intercept, residuals, residual_stats, r_squared
    )


# ---------------------------------------------------------------------------
# One-factor AR(1) momentum decomposition


@dataclass(frozen=True)
class AR1Params:
    """f_t = (1 - rho) * mu + rho * f_{t-1} + u_t with u_t ~ N(0, sigma_u^2).
    Each field is read as a float by :func:`panel._number`."""

    rho: float
    mu: float
    sigma_u: float

    def __post_init__(self):
        for name in ("rho", "mu", "sigma_u"):
            object.__setattr__(self, name, _number(getattr(self, name), name))
        if not abs(self.rho) < 1:
            raise NonStationaryError(f"|rho| must be < 1, got {self.rho}")
        if not self.sigma_u >= 0:
            raise ValueError(f"sigma_u must be non-negative, got {self.sigma_u}")

    @property
    def sigma_f(self) -> float:
        """Stationary standard deviation, sigma_u / sqrt(1 - rho^2)."""
        return self.sigma_u / np.sqrt(1.0 - self.rho**2)

    @staticmethod
    def from_sigma_f(rho: float, mu: float, sigma_f: float) -> "AR1Params":
        unit = AR1Params(rho, mu, 1.0)  # refuses |rho| >= 1 before the square root
        sigma_u = _number(sigma_f, "sigma_f") * np.sqrt(1.0 - unit.rho**2)
        return AR1Params(unit.rho, unit.mu, sigma_u)


@dataclass(frozen=True)
class AR1MomentumPnl:
    """Expected PNL of holding one factor in proportion to its last return.

    conditional(f) = rho * f^2 + (1 - rho) * mu * f given f_{t-1} = f;
    unconditional = rho * sigma_f^2 + mu^2. The mu^2 piece is mechanical
    exposure: it is earned even with rho = 0, because a positive-premium
    factor tends to follow a good month with another one.
    """

    params: AR1Params
    unconditional: float

    def conditional(self, f):
        p = self.params
        f = np.asarray(f, float)
        out = p.rho * f**2 + (1.0 - p.rho) * p.mu * f
        return float(out) if out.ndim == 0 else out


def ar1_momentum_pnl(params: AR1Params) -> AR1MomentumPnl:
    """Conditional and unconditional E[f_{t-1} f_t] for an AR(1) factor."""
    unconditional = params.rho * params.sigma_f**2 + params.mu**2
    return AR1MomentumPnl(params, float(unconditional))
