"""The (m, n) grid kernel against per-cell evaluation, bit for bit.

The reference computes each cell on its own: its own signal, and for rank
weighting its own stable sort of the tradeable signals.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factormom import momentum
from factormom.momentum import (
    LEGS,
    WEIGHTINGS,
    LookaheadError,
    StrategySpec,
    pnl_grid,
    signal,
    strategy_pnl,
    weights_panel,
)
from factormom.panel import Calendar, ReturnPanel
from factormom.riskpipe import PipelineConfig, vol_normalize


def make_panel(values):
    t_len, n_assets = values.shape
    return ReturnPanel(Calendar.periods(t_len), tuple(f"a{j:02d}" for j in range(n_assets)),
                       values)


def reference_weights(panel, m, n, weighting):
    """Weights and tradeable mask of one cell, from its own signal and sort."""
    sig = signal(panel, m, n).values
    tradeable = np.isfinite(sig) & np.isfinite(panel.values)
    if weighting == "sign":
        signs = np.sign(np.where(np.isfinite(sig), sig, 0.0))
        return np.where(tradeable, signs, 0.0), tradeable
    t_len, n_assets = sig.shape
    order = np.argsort(np.where(tradeable, sig, np.inf), axis=1, kind="stable")
    pos = np.empty((t_len, n_assets), dtype=np.int64)
    np.put_along_axis(pos, order, np.broadcast_to(np.arange(n_assets), sig.shape), axis=1)
    p = tradeable.sum(axis=1)[:, None]
    w = (2.0 * pos - (p - 1)) / np.maximum(p - 1, 1)
    return np.where(tradeable & (p >= 2), w, 0.0), tradeable


def reference_pnl(panel, m, n, weighting, leg):
    w, tradeable = reference_weights(panel, m, n, weighting)
    if leg == "winners":
        w = np.where(w > 0.0, w, 0.0)
    elif leg == "losers":
        w = np.where(w < 0.0, w, 0.0)
    values = (w * np.where(tradeable, panel.values, 0.0)).sum(axis=1)
    values[~tradeable.any(axis=1)] = np.nan
    values[: min(m + n - 1, len(values))] = np.nan
    return values


@st.composite
def gappy_panels(draw):
    """Random panels: Gaussian or small-integer returns (exact signal ties),
    with no, a few or many missing cells."""
    t_len, n_assets = draw(st.integers(1, 30)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        values = rng.integers(-2, 3, (t_len, n_assets)).astype(float)
    else:
        values = rng.normal(0, 0.05, (t_len, n_assets))
    values[rng.random(values.shape) < draw(st.sampled_from([0.0, 0.05, 0.3]))] = np.nan
    return make_panel(values)


# lags and holding periods reach past the 30-month histories, so some
# cells have no complete signal window at all
lags = st.lists(st.integers(1, 14), min_size=1, max_size=4, unique=True)
holding = st.lists(st.integers(1, 14), min_size=1, max_size=4, unique=True)
# row-block sizes down to one cell, so cells span many blocks
blocks = st.sampled_from([1, 7, 64, momentum._BLOCK_CELLS])
kernel_settings = settings(max_examples=150, deadline=None, derandomize=True)


@kernel_settings
@given(gappy_panels(), lags, holding, st.sampled_from(WEIGHTINGS), st.sampled_from(LEGS), blocks)
def test_pnl_grid_cells_bit_identical_to_per_cell(panel, ms, ns, weighting, leg, block):
    with mock.patch.object(momentum, "_BLOCK_CELLS", block):
        grid = pnl_grid(panel, ms, ns, weighting, leg)
        single = {(m, n): strategy_pnl(panel, StrategySpec(m, n, weighting, leg))
                  for m in ms for n in ns}
    assert set(grid) == set(single)
    for (m, n), pnl in grid.items():
        expected = reference_pnl(panel, m, n, weighting, leg).tobytes()
        assert pnl.values.tobytes() == expected, (m, n)
        assert single[m, n].values.tobytes() == expected, (m, n)
        assert pnl.name == single[m, n].name and pnl.meta == single[m, n].meta


@st.composite
def panels_with_gappy_rows(draw):
    """Random panels whose holes fall on a few whole rows only, so most rows
    are complete and the rank kernel mixes shared and per-lag rows."""
    t_len, n_assets = draw(st.integers(1, 30)), draw(st.integers(2, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        values = rng.integers(-2, 3, (t_len, n_assets)).astype(float)
    else:
        values = rng.normal(0, 0.05, (t_len, n_assets))
    for t in draw(st.lists(st.integers(0, t_len - 1), max_size=4, unique=True)):
        values[t, rng.random(n_assets) < draw(st.sampled_from([0.2, 0.6, 1.0]))] = np.nan
    return make_panel(values)


@pytest.mark.parametrize("block", [1, 7, 64, momentum._BLOCK_CELLS])
@kernel_settings
@given(panels_with_gappy_rows(), st.lists(st.integers(1, 14), min_size=2, max_size=5, unique=True),
       holding, st.sampled_from(LEGS))
def test_rank_grid_with_gappy_rows_bit_identical_to_per_cell(block, panel, ms, ns, leg):
    with mock.patch.object(momentum, "_BLOCK_CELLS", block):
        grid = pnl_grid(panel, ms, ns, "rank", leg)
    for (m, n), pnl in grid.items():
        assert pnl.values.tobytes() == reference_pnl(panel, m, n, "rank", leg).tobytes(), (m, n)


@kernel_settings
@given(gappy_panels(), st.integers(0, 14), st.integers(1, 14), st.sampled_from(WEIGHTINGS), blocks)
def test_weights_panel_bit_identical_to_per_cell(panel, m, n, weighting, block):
    with mock.patch.object(momentum, "_BLOCK_CELLS", block):
        got = weights_panel(panel, StrategySpec(m, n, weighting)).values
    assert got.tobytes() == reference_weights(panel, m, n, weighting)[0].tobytes()


@kernel_settings
@given(gappy_panels(), lags, holding, st.sampled_from(WEIGHTINGS), st.sampled_from(LEGS),
       st.data())
def test_pnl_grid_is_causal_under_truncation(panel, ms, ns, weighting, leg, data):
    cut = data.draw(st.integers(1, panel.n_periods))
    full = pnl_grid(panel, ms, ns, weighting, leg)
    part = pnl_grid(panel.head(cut), ms, ns, weighting, leg)
    for cell, pnl in part.items():
        assert pnl.values.tobytes() == full[cell].values[:cut].tobytes(), cell


def test_risk_managed_grid_normalizes_each_per_cell_pnl():
    rng = np.random.default_rng(17)
    values = rng.normal(0, 0.05, (120, 30))
    values[rng.random(values.shape) < 0.05] = np.nan
    panel = make_panel(values)
    cfg = PipelineConfig(window_months=12)
    # risk management is the caller's stage, applied to each raw grid cell
    grid = pnl_grid(panel, (1, 3), (2, 5), "rank")
    for (m, n), cell in grid.items():
        pnl = vol_normalize(cell, cfg)
        raw = strategy_pnl(panel, StrategySpec(m, n, "rank"))
        assert raw.values.tobytes() == reference_pnl(panel, m, n, "rank", "both").tobytes()
        expected = vol_normalize(raw, cfg)
        assert pnl.values.tobytes() == expected.values.tobytes()
        assert pnl.meta == expected.meta


@pytest.mark.parametrize("ms, ns", [((), (1, 2)), ((1, 2), ()), ((), ())])
def test_pnl_grid_refuses_empty_range(ms, ns):
    with pytest.raises(ValueError, match=r"^empty \(m, n\) grid range$"):
        pnl_grid(make_panel(np.zeros((20, 3))), ms, ns)


def test_pnl_grid_refuses_lookahead():
    with pytest.raises(LookaheadError):
        pnl_grid(make_panel(np.zeros((20, 3))), (0, 1), (1,))
