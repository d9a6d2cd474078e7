"""The rank grid kernel at the width of a stock universe.

The hypothesis panels in test_pnl_grid.py have at most 9 assets, so a row
block of many rows at N = 2,000 never occurs there. Here every rank cell of
wide, gappy panels is checked bit for bit against the same per-cell
reference, and the kernel's memory is bounded in multiples of the panel.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factormom import momentum
from factormom.momentum import LEGS, pnl_grid
from test_model import _traced_peak
from test_pnl_grid import make_panel, reference_pnl


def wide_panel(t_len, integer, seed):
    """2,000 assets with 2% holes and a few complete rows, one run of them
    longer than a default row block. The integer variant ties exactly; the
    Gaussian one has signed zeros, so n = 1 signals tie -0.0 with 0.0."""
    rng = np.random.default_rng(seed)
    shape = (t_len, 2000)
    if integer:
        values = rng.integers(-3, 4, shape).astype(float)
    else:
        values = rng.normal(0, 0.09, shape)
        values[rng.random(shape) < 0.01] = rng.choice([0.0, -0.0])
    holes = rng.random(shape) < 0.02
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


def test_rank_grid_peak_within_a_few_panels():
    panel = wide_panel(240, False, 4)
    peak = _traced_peak(lambda: pnl_grid(panel, (1, 2, 3), (1, 2, 3, 4), "rank"))
    assert peak <= 3 * panel.values.nbytes


def complete_wide_panel():
    values = np.random.default_rng(5).normal(0, 0.09, (1200, 2000))
    for weighting in ("sign", "rank"):  # warm up: first calls allocate caches
        pnl_grid(make_panel(values[:30, :20]), (1,), (1,), weighting)
    return make_panel(values)


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
