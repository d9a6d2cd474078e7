import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from factormom.panel import Calendar, NamedSeries, ReturnPanel
from factormom.riskpipe import (
    InsufficientHistoryError,
    PipelineConfig,
    _window_moments,
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
    with pytest.raises(ValueError, match="^window_months must be >= 2$"):
        PipelineConfig(window_months=1)
    with pytest.raises(ValueError, match="^lag_months must be >= 1$"):
        PipelineConfig(lag_months=0)
    with pytest.raises(ValueError, match="^vol_target must be positive, got 0.0$"):
        PipelineConfig(vol_target=0.0)
    for vol_target in (np.nan, np.inf):
        message = f"^vol_target must be a finite number, got {vol_target}$"
        with pytest.raises(ValueError, match=message):
            PipelineConfig(vol_target=vol_target)
    for min_obs in (1, 37):
        with pytest.raises(ValueError, match=r"^min_obs must lie in \[2, window_months\]$"):
            PipelineConfig(min_obs=min_obs)
    assert PipelineConfig().effective_min_obs == 36


@pytest.mark.parametrize("key, bad", [("window_months", 1.5),
                                      ("window_months", np.float64(24.0)),
                                      ("lag_months", 2.0), ("min_obs", np.float64(2.5))])
def test_config_refuses_non_integers_by_name(key, bad):
    with pytest.raises(ValueError, match=f"^{key} must be an integer, got {re.escape(repr(bad))}$"):
        PipelineConfig(**{key: bad})


def test_config_reads_numpy_integers_as_ints():
    cfg = PipelineConfig(window_months=np.int64(12), lag_months=np.int32(2),
                         min_obs=np.uint8(6))
    assert cfg == PipelineConfig(12, 2, min_obs=6)
    assert [type(v) for v in (cfg.window_months, cfg.lag_months, cfg.min_obs)] == [int] * 3


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


def reference_window_moments(values, window):
    """The direct form of the window kernel: every window copied out, NaN
    summed as zero, and constant windows found by their min and max."""
    win = sliding_window_view(values, window)
    finite = np.isfinite(win)
    cnt = finite.sum(axis=1)
    with np.errstate(invalid="ignore"):
        mean = np.where(cnt > 0, np.nansum(win, axis=1) / np.maximum(cnt, 1), np.nan)
        dm = np.where(finite, win - mean[:, None], 0.0)
    lo = np.where(finite, win, np.inf).min(axis=1)
    hi = np.where(finite, win, -np.inf).max(axis=1)
    dm[(lo == hi) & (cnt > 0)] = 0.0
    return cnt, dm


def reference_beta_hedge(factor, market, cfg):
    """Hedged values from the direct window moments, with the last beta
    carried forward one window at a time."""
    W, L, min_obs = cfg.window_months, cfg.lag_months, cfg.effective_min_obs
    pair = np.isfinite(factor) & np.isfinite(market)
    cnt, dm = reference_window_moments(np.where(pair, market, np.nan), W)
    _, df = reference_window_moments(np.where(pair, factor, np.nan), W)
    var, cov = (dm * dm).sum(axis=1), (dm * df).sum(axis=1)
    betas = np.full(len(var), np.nan)
    last = np.nan
    for j in range(len(var)):
        if cnt[j] < min_obs:
            continue
        if var[j] > 0.0:
            last = cov[j] / var[j]
        if np.isfinite(last):
            betas[j] = last
    T = len(factor)
    out = np.full(T, np.nan)
    t = np.arange(W + L - 1, T)
    out[t] = factor[t] - betas[t - L - (W - 1)] * market[t]
    return out


@st.composite
def hedge_inputs(draw):
    """Factor and market series with leading NaNs, scattered holes, constant
    market stretches (zero-variance windows) and infinite slopes."""
    W = draw(st.integers(2, 8))
    cfg = PipelineConfig(window_months=W, lag_months=draw(st.integers(1, 3)),
                         min_obs=draw(st.integers(2, W)))
    T = draw(st.integers(W, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    market = rng.normal(0.0, 0.04, T)
    factor = draw(st.sampled_from([0.0, 0.5, -1.2])) * market + rng.normal(0.0, 0.02, T)
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, T - 1))
        market[start:start + draw(st.integers(1, 2 * W))] = draw(st.sampled_from([0.0, 0.01]))
    factor[: draw(st.integers(0, T // 2))] = np.nan
    for values in (factor, market):
        values[rng.random(T) < draw(st.sampled_from([0.0, 0.1, 0.4]))] = np.nan
    # a near-subnormal market variance under a huge factor overflows the slope
    m_scale, f_scale = draw(st.sampled_from([(1.0, 1.0), (1e-155, 1e160)]))
    return f_scale * factor, m_scale * market, cfg


@settings(max_examples=300, deadline=None, derandomize=True)
@given(hedge_inputs())
def test_beta_hedge_bit_identical_to_window_loop(inputs):
    factor, market, cfg = inputs
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            hedged = beta_hedge(series(factor, "f"), series(market, "m"), cfg)
        except InsufficientHistoryError:
            return
        expected = reference_beta_hedge(factor, market, cfg)
    assert hedged.values.tobytes() == expected.tobytes()


def test_beta_hedge_requires_overlap():
    f = series(np.full(50, np.nan), "f")
    m = series(np.random.default_rng(0).normal(0, 0.02, 50), "m")
    with pytest.raises(InsufficientHistoryError):
        beta_hedge(f, m, CFG)


def test_beta_hedge_refuses_history_shorter_than_window():
    rng = np.random.default_rng(1)
    f, m = (series(rng.normal(0, 0.02, 35), name) for name in "fm")
    with pytest.raises(InsufficientHistoryError,
                       match="^35 months of data cannot fill a 36-month window$"):
        beta_hedge(f, m, CFG)


# ---------------------------------------------------------------------------
# vol normalize


def reference_vol_normalize(values, cfg):
    W, L, min_obs = cfg.window_months, cfg.lag_months, cfg.effective_min_obs
    cnt, dx = reference_window_moments(values, W)
    with np.errstate(invalid="ignore", divide="ignore"):
        var = np.where(cnt >= 2, (dx * dx).sum(axis=1) / np.maximum(cnt - 1, 1), np.nan)
        sd = np.sqrt(var)
        sd = np.where((cnt >= min_obs) & (sd > 0.0), sd, np.nan)
    out = np.full(len(values), np.nan)
    t = np.arange(W + L - 1, len(values))
    out[t] = cfg.vol_target * values[t] / sd[t - L - (W - 1)]
    return out


@st.composite
def window_inputs(draw):
    """Series with leading NaNs (up to all-missing windows), scattered holes,
    constant stretches with holes, +-0.0 mixes, values 1 ulp apart and
    extreme scales, and a window of 2 to 40 months."""
    W = draw(st.integers(2, 40))
    cfg = PipelineConfig(window_months=W, lag_months=draw(st.integers(1, 3)),
                         min_obs=draw(st.integers(2, W)))
    T = draw(st.integers(W, 3 * W + 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(0.0, 0.03, T)
    for _ in range(draw(st.integers(0, 4))):
        start = draw(st.integers(0, T - 1))
        stretch = x[start:start + draw(st.integers(1, 2 * W))]
        level = draw(st.sampled_from([0.0, 0.01, 1.0 / 3.0, -7.0]))
        kind = draw(st.sampled_from(["constant", "signed_zero", "one_ulp"]))
        if kind == "constant":
            stretch[:] = level
        elif kind == "signed_zero":
            stretch[:] = np.where(rng.random(len(stretch)) < 0.5, 0.0, -0.0)
        else:
            stretch[:] = np.where(rng.random(len(stretch)) < 0.5, level,
                                  np.nextafter(level, np.inf))
    x[: draw(st.integers(0, T))] = np.nan
    x[rng.random(T) < draw(st.sampled_from([0.0, 0.1, 0.5, 0.9]))] = np.nan
    if draw(st.booleans()):
        x[rng.random(T) < 0.05] = draw(st.sampled_from([np.inf, -np.inf]))
    return draw(st.sampled_from([1.0, 1e-155, 1e160])) * x, cfg


@settings(max_examples=400, deadline=None, derandomize=True)
@given(window_inputs())
def test_window_kernel_bit_identical_to_direct_form(inputs):
    values, cfg = inputs
    W = cfg.window_months
    with np.errstate(over="ignore", invalid="ignore"):
        cnt, dm = _window_moments(values, W)
        ref_cnt, ref_dm = reference_window_moments(values, W)
        assert cnt.tobytes() == ref_cnt.tobytes()
        assert dm.tobytes() == ref_dm.tobytes()
        assert (dm * dm).sum(axis=1).tobytes() == (ref_dm * ref_dm).sum(axis=1).tobytes()
        expected = reference_vol_normalize(values, cfg)
        try:
            out = vol_normalize(series(values), cfg)
        except InsufficientHistoryError:
            assert not np.any(ref_cnt >= cfg.effective_min_obs)
            return
    assert out.values.tobytes() == expected.tobytes()


def test_vol_target_is_reached_on_iid_input():
    rng = np.random.default_rng(99)
    x = rng.normal(0.0, 0.05, 5000)
    out = vol_normalize(series(x), CFG)
    realized = np.nanstd(out.values, ddof=1)
    assert abs(realized - CFG.vol_target) < 0.1 * CFG.vol_target


def test_constant_input_yields_all_missing():
    out = vol_normalize(series(np.full(80, 0.02)), CFG)
    assert np.all(np.isnan(out.values))


def test_vol_normalize_refuses_history_shorter_than_window():
    x = series(np.random.default_rng(2).normal(0, 0.02, 35))
    with pytest.raises(InsufficientHistoryError,
                       match="^35 months of data cannot fill a 36-month window$"):
        vol_normalize(x, CFG)


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
    managed = vol_normalize(menagerie(panel), CFG)
    raw = menagerie(panel)
    burn = CFG.window_months + CFG.lag_months - 1
    assert np.all(np.isnan(managed.values[:burn]))
    realized = np.nanstd(managed.values, ddof=1)
    assert abs(realized - CFG.vol_target) < 0.15 * CFG.vol_target
    assert len(managed.meta) == 2 and len(raw.meta) == 1
