import numpy as np
import pytest

from factormom.panel import Calendar, NamedSeries, ReturnPanel
from factormom.riskpipe import (
    InsufficientHistoryError,
    PipelineConfig,
    beta_hedge,
    menagerie,
    vol_normalize,
)

CFG = PipelineConfig()  # window 36, lag 1, target 1% monthly


def series(values, name="x"):
    values = np.asarray(values, float)
    return NamedSeries(Calendar.periods(len(values)), name, values)


def ols_slope_and_se(y, x):
    keep = np.isfinite(y) & np.isfinite(x)
    y, x = y[keep], x[keep]
    dx = x - x.mean()
    beta = (dx @ (y - y.mean())) / (dx @ dx)
    resid = (y - y.mean()) - beta * dx
    se = np.sqrt((resid @ resid) / (len(y) - 2) / (dx @ dx))
    return beta, se


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(window_months=1)
    with pytest.raises(ValueError):
        PipelineConfig(lag_months=0)
    with pytest.raises(ValueError):
        PipelineConfig(vol_target=0.0)
    with pytest.raises(ValueError):
        PipelineConfig(min_obs=1)
    assert PipelineConfig().effective_min_obs == 36


# ---------------------------------------------------------------------------
# beta hedge


def test_exact_linear_dependence_hedges_to_zero():
    rng = np.random.default_rng(0)
    mkt = rng.normal(0.005, 0.04, 240)
    factor = 0.5 * mkt
    hedged = beta_hedge(series(factor, "f"), series(mkt, "mkt"), CFG)
    burn = CFG.window_months + CFG.lag_months - 1
    assert np.all(np.isnan(hedged.values[:burn]))
    assert np.nanmax(np.abs(hedged.values[burn:])) < 1e-12


def test_zero_true_beta_stays_statistically_zero():
    rng = np.random.default_rng(2024)
    mkt = rng.normal(0.004, 0.04, 2400)
    factor = rng.normal(0.002, 0.02, 2400)  # independent of market
    hedged = beta_hedge(series(factor, "f"), series(mkt, "m"), CFG)
    beta, se = ols_slope_and_se(hedged.values, mkt)
    assert abs(beta) < 2 * se


def test_constant_nonzero_beta_is_removed():
    rng = np.random.default_rng(7)
    mkt = rng.normal(0.004, 0.04, 3000)
    factor = 0.7 * mkt + rng.normal(0.001, 0.01, 3000)
    hedged = beta_hedge(series(factor, "f"), series(mkt, "m"), CFG)
    beta, se = ols_slope_and_se(hedged.values, mkt)
    assert abs(beta) < 2 * se


def test_beta_hedge_is_causal_under_truncation():
    rng = np.random.default_rng(5)
    mkt = series(rng.normal(0, 0.04, 200), "m")
    fac = series(0.3 * mkt.values + rng.normal(0, 0.02, 200), "f")
    full = beta_hedge(fac, mkt, CFG)
    for cut in (60, 120, 199):
        part = beta_hedge(fac.head(cut), mkt.head(cut), CFG)
        np.testing.assert_array_equal(full.values[:cut], part.values)


def test_degenerate_market_window_carries_previous_beta():
    rng = np.random.default_rng(3)
    mkt = rng.normal(0, 0.03, 120)
    mkt[50:90] = 0.01  # constant stretch: windows inside have zero variance
    fac = 0.4 * mkt + rng.normal(0, 0.005, 120)
    hedged = beta_hedge(series(fac, "f"), series(mkt, "m"), CFG)
    assert np.isfinite(hedged.values[88])  # carried beta keeps output defined


def test_beta_hedge_requires_overlap():
    f = series(np.full(50, np.nan), "f")
    m = series(np.random.default_rng(0).normal(0, 0.02, 50), "m")
    with pytest.raises(InsufficientHistoryError):
        beta_hedge(f, m, CFG)


# ---------------------------------------------------------------------------
# vol normalize


def test_vol_target_is_reached_on_iid_input():
    rng = np.random.default_rng(99)
    x = rng.normal(0.0, 0.05, 5000)
    out = vol_normalize(series(x), CFG)
    realized = np.nanstd(out.values, ddof=1)
    assert abs(realized - CFG.vol_target) < 0.1 * CFG.vol_target


def test_constant_input_yields_all_missing():
    out = vol_normalize(series(np.full(80, 0.02)), CFG)
    assert np.all(np.isnan(out.values))


def test_scale_invariance_of_vol_normalize():
    rng = np.random.default_rng(12)
    x = rng.normal(0, 0.03, 300)
    a = vol_normalize(series(x), CFG)
    b = vol_normalize(series(7.0 * x), CFG)
    burn = CFG.window_months + CFG.lag_months - 1
    np.testing.assert_allclose(a.values[burn:], b.values[burn:], rtol=1e-12)


def test_vol_normalize_is_causal_under_truncation():
    rng = np.random.default_rng(8)
    x = series(rng.normal(0, 0.02, 150))
    full = vol_normalize(x, CFG)
    part = vol_normalize(x.head(100), CFG)
    np.testing.assert_array_equal(full.values[:100], part.values)


def test_vol_normalize_burn_in_and_meta():
    rng = np.random.default_rng(4)
    out = vol_normalize(series(rng.normal(0, 0.02, 60)), CFG)
    burn = CFG.window_months + CFG.lag_months - 1
    assert np.all(np.isnan(out.values[:burn]))
    assert np.all(np.isfinite(out.values[burn:]))
    assert any(stage.startswith("vol_normalize") for stage in out.meta)


def test_head_keeps_pnl_stage_record():
    out = vol_normalize(series(np.random.default_rng(4).normal(0, 0.02, 60)), CFG)
    cut = out.head(50)
    assert type(cut) is type(out) and cut.meta == out.meta and cut.name == out.name
    np.testing.assert_array_equal(cut.values, out.values[:50])


# ---------------------------------------------------------------------------
# menagerie


def test_menagerie_sums_and_cancels():
    panel = ReturnPanel(
        Calendar.periods(2),
        ("f1", "f2"),
        np.array([[0.01, -0.01], [0.02, 0.03]]),
    )
    out = menagerie(panel)
    np.testing.assert_allclose(out.values, [0.0, 0.05], atol=1e-15)


def test_menagerie_linearity_in_identical_columns():
    rng = np.random.default_rng(21)
    col = rng.normal(0, 0.02, 50)
    panel = ReturnPanel(
        Calendar.periods(50), ("a", "b", "c"), np.column_stack([col] * 3)
    )
    out = menagerie(panel)
    np.testing.assert_allclose(out.values, 3 * col, rtol=1e-12)


def test_menagerie_matches_brute_force_row_sum():
    rng = np.random.default_rng(77)
    values = rng.normal(0, 0.02, (40, 6))
    values[rng.random(values.shape) < 0.2] = np.nan
    panel = ReturnPanel(Calendar.periods(40), tuple("abcdef"), values)
    out = menagerie(panel)
    for t in range(40):
        finite = [v for v in values[t] if np.isfinite(v)]
        if not finite:
            assert np.isnan(out.values[t])
        else:
            total = 0.0
            for v in finite:
                total += v
            assert abs(out.values[t] - total) < 1e-15


def test_menagerie_all_missing_row_is_missing():
    values = np.array([[np.nan, np.nan], [0.01, np.nan]])
    panel = ReturnPanel(Calendar.periods(2), ("a", "b"), values)
    out = menagerie(panel)
    assert np.isnan(out.values[0]) and out.values[1] == 0.01


def test_menagerie_optional_vol_management():
    rng = np.random.default_rng(31)
    values = rng.normal(0, 0.02, (200, 5))
    panel = ReturnPanel(Calendar.periods(200), tuple("abcde"), values)
    managed = menagerie(panel, CFG, risk_managed=True)
    raw = menagerie(panel)
    burn = CFG.window_months + CFG.lag_months - 1
    assert np.all(np.isnan(managed.values[:burn]))
    realized = np.nanstd(managed.values, ddof=1)
    assert abs(realized - CFG.vol_target) < 0.15 * CFG.vol_target
    assert len(managed.meta) == 2 and len(raw.meta) == 1
