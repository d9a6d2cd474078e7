"""The causal risk pipeline: rolling beta-hedge, vol targeting, menagerie.

A synthetic factor with market beta 0.6 goes in; a market-neutral series at
a 1% monthly volatility target comes out. Every rolling estimate is lagged
one month, so nothing peeks ahead.

Run with: python demos/02_risk_pipeline.py
"""

import numpy as np

from factormom.analytics import perf_stats
from factormom.panel import Calendar, NamedSeries, ReturnPanel
from factormom.riskpipe import PipelineConfig, beta_hedge, menagerie, vol_normalize

rng = np.random.default_rng(11)
months = 600
cal = Calendar.periods(months, start="1970-01")

market = NamedSeries(cal, "market", rng.normal(0.005, 0.045, months))
raw = NamedSeries(
    cal, "value_factor", 0.002 + 0.6 * market.values + rng.normal(0, 0.02, months)
)

cfg = PipelineConfig(window_months=36, lag_months=1, vol_target=0.01)
hedged = beta_hedge(raw, market, cfg)
managed = vol_normalize(hedged, cfg)


def describe(name, series):
    x = series.values[np.isfinite(series.values)]
    beta = np.cov(x, market.values[np.isfinite(series.values)])[0, 1] / market.values.var()
    st = perf_stats(series)
    print(
        f"{name:<22s} vol={st.vol_monthly:.4f}  market beta={beta:+.3f}  "
        f"sharpe={st.sharpe_annual:+.2f}"
    )


describe("raw factor", raw)
describe("beta hedged", hedged)
describe("hedged + vol target", managed)
print("pipeline stages:", " -> ".join(managed.meta))

# Equal-risk average over a few managed factors.
columns = []
for i in range(8):
    f = NamedSeries(cal, f"f{i}", 0.001 + rng.normal(0, 0.03, months))
    columns.append(vol_normalize(f, cfg).values)
factors = ReturnPanel(cal, tuple(f"f{i}" for i in range(8)), np.column_stack(columns))
basket = vol_normalize(menagerie(factors), cfg)
st = perf_stats(basket)
print(f"menagerie of 8 factors: sharpe={st.sharpe_annual:+.2f} t={st.t_stat:+.2f}")
