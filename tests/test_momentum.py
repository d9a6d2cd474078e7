import math
import re
import warnings

import numpy as np
import pytest

from factormom.analytics import perf_stats
from factormom.momentum import (
    GridResult,
    LookaheadError,
    StrategySpec,
    grid_sweep,
    pnl_grid,
    rank_weights,
    sign_weights,
    signal,
    strategy_pnl,
    weights_panel,
)
from factormom.panel import Calendar, NamedSeries, ReturnPanel
from factormom.riskpipe import PipelineConfig, menagerie, vol_normalize


def make_panel(values):
    values = np.asarray(values, float)
    t, n = values.shape
    return ReturnPanel(
        Calendar.periods(t), tuple(f"a{j:02d}" for j in range(n)), values
    )


def random_panel(t, n, seed, missing=0.0):
    rng = np.random.default_rng(seed)
    values = rng.normal(0, 0.03, (t, n))
    if missing:
        values[rng.random(values.shape) < missing] = np.nan
    return make_panel(values)


def brute_force_signal(values, m, n):
    t_len, n_assets = values.shape
    out = np.full((t_len, n_assets), np.nan)
    for t in range(t_len):
        for i in range(n_assets):
            terms = []
            ok = True
            for k in range(m, m + n):
                if t - k < 0:
                    ok = False
                    break
                v = values[t - k, i]
                if not np.isfinite(v):
                    ok = False
                    break
                terms.append(v)
            if ok:
                out[t, i] = sum(terms)
    return out


# ---------------------------------------------------------------------------
# signal


def test_signal_zero_lag_one_month_is_identity():
    panel = random_panel(30, 4, seed=1)
    sig = signal(panel, 0, 1)
    np.testing.assert_array_equal(sig.values, panel.values)


def test_signal_direct_index_check():
    values = np.zeros((6, 1))
    values[:, 0] = [0.01, 0.02, 0.04, 0.08, 0.16, 0.32]
    sig = signal(make_panel(values), 2, 3)
    # at t=5 the window is lags 2,3,4: r_3 + r_2 + r_1
    assert abs(sig.values[5, 0] - (0.08 + 0.04 + 0.02)) < 1e-15
    assert np.all(np.isnan(sig.values[:4]))


def test_signal_matches_brute_force_everywhere():
    panel = random_panel(60, 5, seed=2, missing=0.15)
    for m, n in [(0, 1), (1, 1), (2, 3), (5, 12), (12, 1)]:
        sig = signal(panel, m, n)
        expected = brute_force_signal(panel.values, m, n)
        np.testing.assert_allclose(sig.values, expected, atol=1e-14, equal_nan=True)


def test_signal_non_finite_windows_are_missing():
    values = np.random.default_rng(9).integers(-5, 6, (40, 4)).astype(float)
    values[[3, 11], 0] = np.nan
    values[7, 1], values[9, 1] = np.inf, -np.inf  # a window holding both sums to NaN
    values[20, 2] = -np.inf
    values[[25, 26], 3] = 1e308  # finite months whose sum overflows
    cells = [(0, 1), (1, 1), (0, 2), (1, 3), (2, 5), (0, 12)]
    with np.errstate(over="ignore"):
        expected = {(m, n): brute_force_signal(values, m, n) for m, n in cells}
    assert np.isposinf(expected[0, 2][26, 3])
    # integer sums are exact, and 1e308 absorbs them, in any summation order
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for (m, n), ref in expected.items():
            got = signal(make_panel(values), m, n).values
            finite = np.isfinite(ref)
            assert got[finite].tobytes() == ref[finite].tobytes(), (m, n)
            assert np.isnan(got[~finite]).all(), (m, n)


def test_signal_window_exceeding_history_is_missing():
    sig = signal(random_panel(5, 2, seed=3), 3, 4)
    assert np.all(np.isnan(sig.values))


# ---------------------------------------------------------------------------
# rank weights


def test_rank_weights_three_assets():
    np.testing.assert_array_equal(
        rank_weights(np.array([0.3, -0.1, 0.5])), [0.0, -1.0, 1.0]
    )


def test_rank_weights_four_distinct_values():
    w = rank_weights(np.array([0.1, -0.4, 0.9, 0.0]))
    assert sorted(w) == pytest.approx([-1.0, -1 / 3, 1 / 3, 1.0])


def test_rank_weight_invariants_over_random_rows():
    rng = np.random.default_rng(2718)
    for _ in range(10_000):
        n = rng.integers(2, 40)
        row = rng.normal(0, 1, n)
        if rng.random() < 0.3:
            row[rng.random(n) < 0.3] = np.nan
        w = rank_weights(row)
        present = np.isfinite(row)
        # exact dollar neutrality: the weights pair-cancel, so the true sum
        # is zero; naive float accumulation stays within 1e-15 at this width
        assert math.fsum(w) == 0.0
        if n <= 24:
            assert abs(np.sum(w)) < 1e-15
        if present.sum() >= 2:
            assert w.max() == 1.0 and w.min() == -1.0
        else:
            assert np.all(w == 0.0)
        assert np.all(w[~present] == 0.0)


def test_rank_weights_monotone_in_signal():
    rng = np.random.default_rng(11)
    for _ in range(200):
        row = rng.normal(0, 1, 10)
        w = rank_weights(row)
        order = np.argsort(row)
        assert np.all(np.diff(w[order]) >= 0)


def test_rank_weights_permutation_equivariant():
    rng = np.random.default_rng(13)
    row = rng.normal(0, 1, 8)
    w = rank_weights(row)
    perm = rng.permutation(8)
    np.testing.assert_array_equal(rank_weights(row[perm]), w[perm])


def test_rank_weights_ties_broken_by_asset_order():
    w = rank_weights(np.array([0.5, 0.5, 0.5]))
    np.testing.assert_array_equal(w, [-1.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# sign weights


def test_sign_weights_basic_and_odd():
    np.testing.assert_array_equal(
        sign_weights(np.array([0.2, -0.3, 0.0])), [1.0, -1.0, 0.0]
    )
    row = np.array([0.4, -0.2, 0.0, np.nan])
    np.testing.assert_array_equal(sign_weights(-row), -sign_weights(row))


# ---------------------------------------------------------------------------
# strategy PNL


def test_single_asset_sign_strategy():
    values = np.array([[0.02], [-0.01]])
    pnl = strategy_pnl(make_panel(values), StrategySpec(1, 1, "sign"))
    assert np.isnan(pnl.values[0])
    assert pnl.values[1] == pytest.approx(-0.01)  # sgn(+0.02) * (-0.01)


def test_lookahead_is_refused():
    with pytest.raises(LookaheadError):
        strategy_pnl(random_panel(20, 3, seed=4), StrategySpec(0, 1, "sign"))


def test_leg_partition_identity():
    panel = random_panel(80, 7, seed=5, missing=0.1)
    for weighting in ("rank", "sign"):
        total = strategy_pnl(panel, StrategySpec(2, 3, weighting, "both"))
        win = strategy_pnl(panel, StrategySpec(2, 3, weighting, "winners"))
        lose = strategy_pnl(panel, StrategySpec(2, 3, weighting, "losers"))
        np.testing.assert_allclose(
            win.values + lose.values, total.values, atol=1e-14, equal_nan=True
        )


def test_all_positive_signal_dates_reproduce_menagerie():
    rng = np.random.default_rng(6)
    values = np.abs(rng.normal(0.01, 0.02, (40, 5)))  # all positive returns
    panel = make_panel(values)
    pnl = strategy_pnl(panel, StrategySpec(1, 1, "sign"))
    men = menagerie(panel)
    np.testing.assert_array_equal(pnl.values[1:], men.values[1:])


def test_strategy_pnl_matches_brute_force_rank():
    panel = random_panel(50, 6, seed=7, missing=0.1)
    m, n = 2, 4
    pnl = strategy_pnl(panel, StrategySpec(m, n, "rank"))
    sig = brute_force_signal(panel.values, m, n)
    for t in range(50):
        if t < m + n - 1:
            assert np.isnan(pnl.values[t])
            continue
        tradeable = [
            i
            for i in range(6)
            if np.isfinite(sig[t, i]) and np.isfinite(panel.values[t, i])
        ]
        if not tradeable:
            assert np.isnan(pnl.values[t])
            continue
        expected = 0.0
        if len(tradeable) >= 2:
            order = sorted(tradeable, key=lambda i: (sig[t, i], i))
            p = len(order)
            for j, i in enumerate(order):
                weight = (2 * j - (p - 1)) / (p - 1)
                expected += weight * panel.values[t, i]
        assert abs(pnl.values[t] - expected) < 1e-14


def test_strategy_pnl_is_causal_under_truncation():
    panel = random_panel(60, 4, seed=8)
    spec = StrategySpec(2, 3, "rank")
    full = strategy_pnl(panel, spec)
    for cut in (20, 40, 59):
        part = strategy_pnl(panel.head(cut), spec)
        np.testing.assert_array_equal(full.values[:cut], part.values)


def test_risk_managed_strategy_hits_vol_target():
    cfg = PipelineConfig()
    panel = random_panel(600, 10, seed=9)
    pnl = vol_normalize(strategy_pnl(panel, StrategySpec(1, 3, "rank")), cfg)
    realized = np.nanstd(pnl.values, ddof=1)
    assert abs(realized - cfg.vol_target) < 0.15 * cfg.vol_target


def test_weights_panel_rowsums_zero_for_rank():
    panel = random_panel(40, 6, seed=10, missing=0.2)
    w = weights_panel(panel, StrategySpec(1, 2, "rank"))
    sums = np.abs(w.values.sum(axis=1))
    assert np.all(sums < 1e-14)


# ---------------------------------------------------------------------------
# grid sweep


def test_grid_cell_equals_standalone_computation():
    panel = random_panel(200, 5, seed=12)
    grid = grid_sweep(pnl_grid(panel, (1, 2), (1, 3), "sign"), (1, 2), (1, 3), "sharpe",
                      min_months=24)
    pnl = strategy_pnl(panel, StrategySpec(2, 3, "sign"))
    assert grid.cell(2, 3) == perf_stats(pnl).sharpe_annual


def test_grid_on_iid_panel_has_no_significant_sharpe():
    panel = random_panel(2400, 8, seed=13)
    grid = grid_sweep(pnl_grid(panel, range(1, 4), range(1, 4), "rank"),
                      range(1, 4), range(1, 4), "sharpe")
    # annualized Sharpe of a zero-mean strategy has SE ~ sqrt(12 / months)
    se = np.sqrt(12.0 / 2400)
    assert np.nanmax(np.abs(grid.cells)) < 2 * se


def test_grid_insufficient_history_cells_are_missing():
    panel = random_panel(30, 4, seed=14)
    grid = grid_sweep(pnl_grid(panel, (1, 25), (1, 2), "sign"), (1, 25), (1, 2), "sharpe",
                      min_months=24)
    assert np.isnan(grid.cell(25, 2))
    assert np.isfinite(grid.cell(1, 1))


def test_grid_zero_volatility_cell_is_missing():
    panel = random_panel(60, 3, seed=16)
    pnls = pnl_grid(panel, (1,), (1, 2), "sign")
    # a strategy that never trades: sixty flat months, Sharpe undefined; so is
    # a constant whose rounded mean leaves a vol of about 1e-18
    for flat in (np.zeros(60), np.full(60, 0.01)):
        pnls[1, 2] = NamedSeries(panel.calendar, "flat", flat)
        for stat, extra in (("sharpe", {}), ("corr", {"reference": pnls[1, 1]})):
            grid = grid_sweep(pnls, (1,), (1, 2), stat, min_months=24, **extra)
            assert np.isfinite(grid.cell(1, 1))
            assert np.isnan(grid.cell(1, 2))


def test_grid_rejects_empty_ranges_and_bad_stat():
    panel = random_panel(40, 3, seed=15)
    pnls = pnl_grid(panel, (1,), (1, 2), "sign")
    with pytest.raises(ValueError):
        grid_sweep(pnls, (), (1, 2), "sharpe")
    with pytest.raises(ValueError):
        grid_sweep(pnls, (1,), (1,), "nope")
    with pytest.raises(ValueError):
        grid_sweep(pnls, (1,), (1,), "corr")  # no reference


def test_corr_grid_uniformly_positive_on_feedback_data():
    # factor and stock momentum comove mechanically through shared factor
    # exposure, so every correlation cell is positive on simulated data
    from factormom.model import ModelParams, simulate
    from factormom.panel import ReturnPanel

    w = np.concatenate([np.ones(6), -np.ones(6)])
    params = ModelParams(alpha=0.5, w=w, mu=np.zeros(12), rho=0.1, sigma=np.eye(12))
    path = simulate(params, 6000, seed=3)
    factor_panel = ReturnPanel(
        path.panel.calendar, ("factor",), path.factor.values[:, None]
    )

    def stock_mom(m, n):
        return strategy_pnl(path.panel, StrategySpec(m, n, "rank"))

    grid = grid_sweep(
        pnl_grid(factor_panel, range(1, 5), range(1, 5), "sign"),
        range(1, 5), range(1, 5), "corr", reference=stock_mom,
    )
    assert np.all(grid.cells > 0)


def test_sign_weights_panel_entries():
    panel = random_panel(30, 5, seed=16, missing=0.2)
    w = weights_panel(panel, StrategySpec(1, 2, "sign"))
    assert set(np.unique(w.values)) <= {-1.0, 0.0, 1.0}


def test_grid_result_validation():
    with pytest.raises(ValueError):
        GridResult((1,), (1, 2), np.zeros((2, 2)), "sharpe")


def test_spec_validation():
    panel = random_panel(20, 3, seed=1)
    for m, n, message in ((-1, 1, "^lag m must be >= 0$"),
                          (0, 0, "^holding period n must be >= 1$")):
        with pytest.raises(ValueError, match=message):
            StrategySpec(m, n)
        with pytest.raises(ValueError, match=message):
            signal(panel, m, n)
    with pytest.raises(ValueError):
        StrategySpec(1, 1, "middle")
    with pytest.raises(ValueError):
        StrategySpec(1, 1, "rank", "sides")


@pytest.mark.parametrize("m, n, bad", [
    (1.5, 2, "lag m"), (1, 2.0, "holding period n"), ("1", 2, "lag m"),
    pytest.param(np.float64(2.0), 2, "lag m", id="float64-2-lag m"),
    pytest.param(1, np.float64(2.0), "holding period n", id="1-float64-holding period n"),
])
def test_lags_must_be_integers(m, n, bad):
    message = rf"^{bad} must be an integer, got {re.escape(repr(m if bad == 'lag m' else n))}$"
    with pytest.raises(ValueError, match=message):
        StrategySpec(m, n)
    panel = random_panel(20, 3, seed=1)
    with pytest.raises(ValueError, match=message):
        pnl_grid(panel, [m], [n])
    with pytest.raises(ValueError, match=message):
        signal(panel, m, n)
    with pytest.raises(ValueError, match=message):  # no silent int(1.5) == 1 cell
        grid_sweep(pnl_grid(panel, [1], [2]), [m], [n])


@pytest.mark.parametrize("bad", [23.5, np.float64(24.0)])
def test_min_months_must_be_an_integer(bad):
    pnls = pnl_grid(random_panel(40, 3, seed=1), [1], [2])
    with pytest.raises(ValueError, match=f"^min_months must be an integer, got "
                       f"{re.escape(repr(bad))}$"):
        grid_sweep(pnls, [1], [2], min_months=bad)
    read = grid_sweep(pnls, [1], [2], min_months=np.int64(24)).cells
    assert np.isfinite(read).all() and read.tobytes() == grid_sweep(pnls, [1], [2]).cells.tobytes()


def test_integer_like_lags_are_read_as_plain_ints():
    panel = random_panel(30, 4, seed=2)
    spec = StrategySpec(np.int64(2), True, "rank")
    assert (type(spec.m), type(spec.n), spec.m, spec.n) == (int, int, 2, 1)
    grid = pnl_grid(panel, [True, np.int32(2)], [np.uint8(3)], "rank")
    assert [(type(m), type(n)) for m, n in grid] == [(int, int)] * 2
    assert [pnl.name for pnl in grid.values()] == ["xs_mom_m1_n3", "xs_mom_m2_n3"]
    alone = strategy_pnl(panel, StrategySpec(1, 3, "rank"))
    assert grid[1, 3].values.tobytes() == alone.values.tobytes()
