"""Momentum over the (lag, holding period) grid, on simulated feedback data.

The shipped model parameters make single-month stock returns mean-revert
while the factor keeps positive persistence at every lag. The grids below
show the resulting signature: a dark (1,1) stock cell, an all-positive
factor sheet.

Run with: python demos/03_momentum_grids.py
"""

import numpy as np

from factormom.model import default_params, simulate
from factormom.momentum import grid_sweep, pnl_grid
from factormom.panel import ReturnPanel

params = default_params()
print(
    f"model: {params.n} stocks, a={params.a:.2f}, rho={params.rho:.2f}, "
    f"reversal term rho*tr(Sigma)={params.rho * np.trace(params.sigma):.2f}"
)

path = simulate(params, 60_000, seed=0)
stock_panel = path.panel
factor_panel = ReturnPanel(
    path.panel.calendar, ("factor",), path.factor.values[:, None]
)


def show(grid, title):
    print(f"\n{title} (rows m=1..6, cols n=1..6, annualized Sharpe)")
    header = "      " + "".join(f"n={n:<7d}" for n in grid.n_values)
    print(header)
    for i, m in enumerate(grid.m_values):
        cells = "".join(f"{v:+7.3f}  " for v in grid.cells[i])
        print(f"m={m}  {cells}")


lags = holds = range(1, 7)
stock_grid = grid_sweep(pnl_grid(stock_panel, lags, holds, "rank"), lags, holds)
factor_grid = grid_sweep(pnl_grid(factor_panel, lags, holds, "sign"), lags, holds)
show(stock_grid, "cross-sectional stock momentum")
show(factor_grid, "directional factor momentum")

print(
    f"\nstock (1,1) cell: {stock_grid.cell(1, 1):+.3f} (reversal)   "
    f"factor minimum cell: {factor_grid.cells.min():+.3f} (still positive)"
)
