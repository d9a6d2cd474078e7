"""The rank grid kernel at the width of a stock universe.

The hypothesis panels in test_pnl_grid.py have at most 9 assets, so a row
block of many rows at N = 2,000 never occurs there. Here every rank cell of
wide, gappy panels is checked bit for bit against the same per-cell
reference, and the kernel's memory is bounded in multiples of the panel.
Its row blocks run on up to two threads; no bit depends on how many.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factormom import momentum
from factormom import panel as panel_module
from factormom.momentum import LEGS, WEIGHTINGS, StrategySpec, pnl_grid, weights_panel
from test_model import _traced_peak, fine_switching  # noqa: F401 (a fixture)
from test_pnl_grid import make_panel, reference_pnl, reference_weights


def wide_panel(t_len, integer, seed, hole_rate=0.02):
    """2,000 assets with a share ``hole_rate`` of holes and a few complete
    rows, one run of them longer than a default row block. The integer
    variant ties exactly; the Gaussian one has signed zeros, so n = 1
    signals tie -0.0 with 0.0."""
    rng = np.random.default_rng(seed)
    shape = (t_len, 2000)
    if integer:
        values = rng.integers(-3, 4, shape).astype(float)
    else:
        values = rng.normal(0, 0.09, shape)
        values[rng.random(shape) < 0.01] = rng.choice([0.0, -0.0])
    holes = rng.random(shape) < hole_rate
    holes[[5, 17, 18]] = False
    holes[t_len - 45: t_len - 5] = False
    values[holes] = np.nan
    return make_panel(values)


@pytest.mark.parametrize("block", [3 * 2000, momentum._BLOCK_CELLS])
@pytest.mark.parametrize("t_len, integer, seed", [(60, False, 1), (120, False, 2), (90, True, 3)])
def test_wide_rank_grid_bit_identical_to_per_cell(t_len, integer, seed, block):
    panel = wide_panel(t_len, integer, seed)
    for leg in LEGS:
        with mock.patch.object(momentum, "_BLOCK_CELLS", block):
            grid = pnl_grid(panel, (1, 2, 3), (1, 2, 3, 4), "rank", leg)
        for (m, n), pnl in grid.items():
            expected = reference_pnl(panel, m, n, "rank", leg)
            assert pnl.values.tobytes() == expected.tobytes(), (m, n, leg)


# several blocks of 2,000 assets per worker, and more workers than cores
@pytest.mark.parametrize("weighting", WEIGHTINGS)
@pytest.mark.parametrize("t_len, integer, seed", [(60, False, 1), (90, True, 3)])
def test_grid_bits_do_not_depend_on_worker_count(monkeypatch, fine_switching, weighting,
                                                 t_len, integer, seed):
    panel = wide_panel(t_len, integer, seed)
    ms, ns = (1, 2, 3), (1, 2, 4)
    expected = {(leg, m, n): reference_pnl(panel, m, n, weighting, leg).tobytes()
                for leg in LEGS for m in ms for n in ns}
    weights = reference_weights(panel, 2, 3, weighting)[0].tobytes()
    monkeypatch.setattr(momentum, "_BLOCK_CELLS", 8 * 2000)
    for workers in (1, 2, 3):
        monkeypatch.setattr(momentum, "_workers", lambda: workers)
        for leg in LEGS:
            for (m, n), pnl in pnl_grid(panel, ms, ns, weighting, leg).items():
                assert pnl.values.tobytes() == expected[leg, m, n], (workers, leg, m, n)
        got = weights_panel(panel, StrategySpec(2, 3, weighting)).values
        assert got.tobytes() == weights, workers


@pytest.mark.parametrize("weighting", WEIGHTINGS)
def test_grid_without_a_signal_row_is_missing_at_two_workers(monkeypatch, weighting):
    # T < m + n - 1: no row block at all, so nothing to split across workers
    monkeypatch.setattr(momentum, "_workers", lambda: 2)
    monkeypatch.setattr(momentum, "_BLOCK_CELLS", 2)
    panel = wide_panel(60, False, 1).head(4)
    grid = pnl_grid(panel, (2, 3), (3, 4), weighting)
    assert set(grid) == {(2, 3), (2, 4), (3, 3), (3, 4)}
    assert all(np.isnan(pnl.values).all() for pnl in grid.values())
    assert not weights_panel(panel, StrategySpec(3, 4, weighting)).values.any()


def test_one_block_grid_makes_no_pool(monkeypatch):
    made = []

    def pool(threads):
        made.append(threads)
        return real_pool(threads)

    real_pool = panel_module._pool
    monkeypatch.setattr(momentum, "_workers", lambda: 2)
    monkeypatch.setattr(panel_module, "_pool", pool)
    factors = wide_panel(1200, False, 6).values[:, :20]  # 24,000 cells: one block
    for weighting in WEIGHTINGS:
        pnl_grid(make_panel(factors), range(1, 13), range(1, 13), weighting)
    assert made == []
    pnl_grid(wide_panel(60, False, 1), (1, 2), (1,), "rank")  # two blocks of 2,000 assets
    assert made == [2]  # one pass ranks, weighs and sums each block


# complete panels: every block builds and reads its own weight table, and
# the last block's rows, shifted by m - m0, run past the panel's end; at 1, 2
# and 3 workers, blocks of 7, 3 and 2 rows leave a short last block of the
# 59 signal rows of n = 2
@pytest.mark.parametrize("weighting", WEIGHTINGS)
@pytest.mark.parametrize("integer, seed", [(False, 7), (True, 8)])
def test_complete_grid_bits_do_not_depend_on_worker_count(monkeypatch, fine_switching,
                                                          weighting, integer, seed):
    panel = wide_panel(61, integer, seed, hole_rate=0.0)
    ms, ns = (1, 2, 3), (1, 2, 4)
    expected = {(leg, m, n): reference_pnl(panel, m, n, weighting, leg).tobytes()
                for leg in LEGS for m in ms for n in ns}
    weights = reference_weights(panel, 2, 3, weighting)[0].tobytes()
    monkeypatch.setattr(momentum, "_BLOCK_CELLS", 7 * 2000)
    for workers in (1, 2, 3):
        monkeypatch.setattr(momentum, "_workers", lambda: workers)
        for leg in LEGS:
            for (m, n), pnl in pnl_grid(panel, ms, ns, weighting, leg).items():
                assert pnl.values.tobytes() == expected[leg, m, n], (workers, leg, m, n)
        got = weights_panel(panel, StrategySpec(2, 3, weighting)).values
        assert got.tobytes() == weights, workers


def test_rank_grid_peak_within_a_few_panels():
    panel = wide_panel(240, False, 4)
    peak = _traced_peak(lambda: pnl_grid(panel, (1, 2, 3), (1, 2, 3, 4), "rank"))
    assert peak <= 3 * panel.values.nbytes


def complete_wide_panel():
    values = np.random.default_rng(5).normal(0, 0.09, (1200, 2000))
    for weighting in ("sign", "rank"):  # warm up: first calls allocate caches
        pnl_grid(make_panel(values[:30, :20]), (1,), (1,), weighting)
    return make_panel(values)


def test_complete_rank_grid_peaks_near_its_signal():
    # a block's positions and weight table live only while it is walked
    panel = complete_wide_panel()
    peak = _traced_peak(lambda: pnl_grid(panel, (1, 2, 3), (1, 2, 3, 4), "rank"))
    assert peak <= 1.6 * panel.values.nbytes


def test_signal_peaks_at_its_output_and_one_mask():
    panel = complete_wide_panel()
    peak = _traced_peak(lambda: momentum.signal(panel, 1, 1))
    assert peak <= 1.25 * panel.values.nbytes


def test_sign_cell_peaks_no_higher_than_a_rank_cell():
    # the sign path reads the signal block by block; the rank path drops it
    # once its positions are built
    panel = complete_wide_panel()
    nbytes = panel.values.nbytes
    sign, rank = (_traced_peak(lambda: pnl_grid(panel, (1,), (1,), w)) for w in ("sign", "rank"))
    assert sign <= rank + nbytes // 100
    assert sign <= 1.5 * nbytes
    assert rank <= 2.0 * nbytes


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.integers(1, 40), st.booleans(), st.integers(0, 2**32 - 1))
def test_positions_match_a_stable_sort_on_finite_keys(rows, cols, ties, seed):
    rng = np.random.default_rng(seed)
    if ties:
        key = rng.choice([-1.5, -0.0, 0.0, 0.5, 2.0, np.inf], (rows, cols))
    else:
        key = rng.normal(size=(rows, cols))
        key[rng.random(key.shape) < 0.2] = np.inf
    pos = momentum._positions(key)
    stable = np.argsort(np.argsort(key, axis=1, kind="stable"), axis=1, kind="stable")
    finite = np.isfinite(key)
    assert pos.dtype == np.int32
    assert (pos[finite] == stable[finite]).all()
    assert (np.sort(pos, axis=1) == np.arange(cols)).all()
