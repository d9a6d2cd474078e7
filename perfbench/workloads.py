"""The benchmark's three workloads: seeded inputs, CLI commands, output checks.

Inputs are drawn from ``numpy.random.default_rng([seed, salt])`` and written
by :func:`write_csv` here, never by factormom, so a change to the program
cannot change what it is fed. Checks compare outputs with independent numpy
computations on the generated arrays (which the CSV carries to 10
significant digits; factormom writes 12) and with shape invariants.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

MONTHS = 1200
GRID = "1..12"
BACKTEST_ROWS = ("menagerie", "ts", "ts_winners", "ts_losers", "xs", "xs_winners", "xs_losers")
VERIFY_T = 1_000_000
SIMULATE_T = 60_000
SIMULATE_ASSETS = 20  # shipped model parameters: w = 1/sqrt(20) in each asset
STOCK_PANEL = (MONTHS, 2000, 0.02)  # months, stocks, missing share
DAILY_PANEL = (6300, 200, 0.01)  # business days, assets, missing share


@dataclass
class Inputs:
    """Generated input files, their records and the arrays checks need."""

    files: dict[str, str] = field(default_factory=dict)
    records: list[dict] = field(default_factory=list)
    arrays: dict[str, np.ndarray] = field(default_factory=dict)

    def add_csv(self, key, path, labels, columns, values):
        write_csv(path, labels, columns, values)
        data = Path(path).read_bytes()
        self.files[key] = str(path)
        self.records.append({
            "name": Path(path).name,
            "shape": list(values.shape),
            "missing_share": float(np.isnan(values).mean()),
            "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
        })

    def add_config(self, key, path, cfg):
        Path(path).write_text(json.dumps(cfg, indent=1))
        self.files[key] = str(path)


def write_csv(path, labels, columns, values) -> None:
    """Wide CSV with 10 significant digits; NaN cells are written empty."""
    values = values.reshape(len(values), -1)
    row = ",".join(["%.10g"] * values.shape[1])
    with open(path, "w") as fh:
        fh.write(",".join(["date", *columns]) + "\n")
        for label, cells in zip(labels, values.tolist()):
            fh.write(label + "," + (row % tuple(cells)).replace("nan", "") + "\n")


def read_csv(path) -> tuple[list[str], list[str], np.ndarray]:
    """Header, first-column labels and float cells of a factormom CSV."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    rows = [ln.split(",") for ln in lines[1:]]
    values = np.array([[float(c) if c else np.nan for c in r[1:]] for r in rows])
    return lines[0].split(","), [r[0] for r in rows], values


def month_labels(n: int) -> list[str]:
    return [f"{1900 + i // 12:04d}-{i % 12 + 1:02d}" for i in range(n)]


def business_days(n: int) -> list[str]:
    start = np.datetime64("1990-01-01")
    days = np.arange(start, start + 2 * n)
    return days[np.is_busday(days)][:n].astype(str).tolist()


def _with_missing(rng, values, share):
    values[rng.random(values.shape) < share] = np.nan
    return values


def sharpe(x) -> float:
    x = x[np.isfinite(x)]
    return float(x.mean() / x.std(ddof=1) * np.sqrt(12.0))


def _close(a, b, rel=1e-7, abs_=1e-9) -> bool:
    a, b = np.asarray(a, float), np.asarray(b, float)
    same_nan = np.array_equal(np.isnan(a), np.isnan(b))
    ok = np.abs(a - b) <= abs_ + rel * np.abs(b)
    return bool(same_nan and ok[~np.isnan(b)].all())


def _grid(path, shape) -> tuple[np.ndarray, list[str]]:
    header, _, cells = read_csv(path)
    problems = []
    if cells.shape != shape or len(header) != shape[1] + 1:
        problems.append(f"{Path(path).name}: grid shape {cells.shape}, want {shape}")
    return cells, problems


# ---------------------------------------------------------------------------
# factor_grid: the paper's factor study on complete T=1200 panels


def factor_grid_inputs(seed: int, root: Path) -> Inputs:
    rng = np.random.default_rng([seed, 0])
    n_f, n_s = 20, 20
    market = 0.006 + 0.045 * rng.standard_normal(MONTHS)
    rho = rng.uniform(0.05, 0.2, n_f)
    drift = rng.uniform(-0.002, 0.004, n_f)
    shocks = 0.03 * rng.standard_normal((MONTHS, n_f))
    factors = np.empty((MONTHS, n_f))
    factors[0] = drift + shocks[0]
    for t in range(1, MONTHS):  # persistent factors, so momentum has signal
        factors[t] = drift + rho * factors[t - 1] + shocks[t]
    factors += np.outer(market, rng.uniform(-0.3, 0.3, n_f))
    loadings = rng.normal(0.0, 0.5, (n_f, n_s)) * (rng.random((n_f, n_s)) < 0.2)
    stocks = (np.outer(market, rng.uniform(0.6, 1.4, n_s)) + factors @ loadings
              + 0.07 * rng.standard_normal((MONTHS, n_s)))
    controls = 0.02 * rng.standard_normal((MONTHS, 3))
    target = 0.003 + controls @ np.array([0.6, -0.3, 0.2]) + 0.02 * rng.standard_normal(MONTHS)

    labels = month_labels(MONTHS)
    inp = Inputs(arrays={"factors": factors, "span_target": target, "span_controls": controls})
    inp.add_csv("factors", root / "factors.csv", labels, [f"f{i:02d}" for i in range(n_f)], factors)
    inp.add_csv("market", root / "market.csv", labels, ["market"], market)
    inp.add_csv("stocks", root / "stocks.csv", labels, [f"s{i:02d}" for i in range(n_s)], stocks)
    inp.add_csv("target", root / "target.csv", labels, ["target"], target)
    for j in range(3):
        inp.add_csv(f"c{j}", root / f"c{j}.csv", labels, [f"c{j}"], controls[:, j])
    panels = {"factor_panel": inp.files["factors"], "stock_panel": inp.files["stocks"],
              "market": inp.files["market"], "m": GRID, "n": GRID}
    inp.add_config("sweep_fos", root / "sweep_fos.json",
                   {**panels, "stats": ["sharpe", "corr", "residual"]})
    inp.add_config("sweep_sof", root / "sweep_sof.json",
                   {**panels, "stats": ["sharpe", "residual"],
                    "direction": "stock-on-factor", "risk_managed": True})
    return inp


def factor_grid_commands(inp: Inputs):
    f = inp.files
    return [
        ("backtest", ["backtest", "--factors", f["factors"], "--market", f["market"],
                      "--m", "1", "--n", "12"], ("pnl.csv", "stats.json")),
        ("sweep", ["--config", f["sweep_fos"], "sweep"],
         ("grid_sharpe.csv", "grid_corr.csv", "grid_residual.csv")),
        ("sweep", ["--config", f["sweep_sof"], "sweep"], ("grid_sharpe.csv", "grid_residual.csv")),
        ("span", ["span", "--target", f["target"], "--controls", f["c0"], f["c1"], f["c2"]],
         ("span.json",)),
    ]


def sign_sharpe_grid(returns: np.ndarray, ms, ns) -> np.ndarray:
    """Annual Sharpe of sign-weighted (m, n) momentum on a complete panel."""
    T = len(returns)
    csum = np.vstack([np.zeros(returns.shape[1]), np.cumsum(returns, axis=0)])
    out = np.empty((len(ms), len(ns)))
    for i, m in enumerate(ms):
        for j, n in enumerate(ns):
            t = np.arange(m + n - 1, T)
            window = csum[t - m + 1] - csum[t - m - n + 1]  # returns t-m-n+1 .. t-m
            out[i, j] = sharpe((np.sign(window) * returns[t]).sum(axis=1))
    return out


def factor_grid_check(inp: Inputs, dirs: list[Path]) -> tuple[list[str], dict]:
    problems: list[str] = []
    stats = json.loads((dirs[0] / "stats.json").read_text())
    if tuple(stats.get("rows", ())) != BACKTEST_ROWS:
        problems.append(f"backtest rows {list(stats.get('rows', ()))}")
    elif not all(np.isfinite(v) for row in stats["rows"].values() for v in row.values()):
        problems.append("backtest stats not finite")
    header, _, pnl = read_csv(dirs[0] / "pnl.csv")
    if header[1:] != list(BACKTEST_ROWS) or pnl.shape != (MONTHS, len(BACKTEST_ROWS)):
        problems.append(f"backtest pnl.csv shape {pnl.shape}")

    grids = {}
    for d, stats_run in ((dirs[1], ("sharpe", "corr", "residual")), (dirs[2], ("sharpe", "residual"))):
        for stat in stats_run:
            cells, bad = _grid(d / f"grid_{stat}.csv", (12, 12))
            problems += bad
            grids[d.name, stat] = cells
            if stat == "corr" and np.nanmax(np.abs(cells)) > 1.0:
                problems.append("correlation grid outside [-1, 1]")
    missing = sum(int(np.isnan(c).sum()) for c in grids.values())
    expected = sign_sharpe_grid(inp.arrays["factors"], range(1, 13), range(1, 13))
    got = grids[dirs[1].name, "sharpe"]
    if got.shape != expected.shape or not _close(got, expected):
        problems.append("factor sign-momentum Sharpe grid differs from the numpy oracle")

    span = json.loads((dirs[3] / "span.json").read_text())
    y, ctl = inp.arrays["span_target"], inp.arrays["span_controls"]
    X = np.column_stack([np.ones(len(y)), ctl])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - ctl @ coef[1:]
    r2 = 1.0 - ((y - X @ coef) ** 2).sum() / ((y - y.mean()) ** 2).sum()
    got = [span["intercept"], *span["betas"].values(), span["r_squared"], span["residual_sharpe"]]
    if not _close(got, [coef[0], *coef[1:], r2, sharpe(resid)]):
        problems.append("spanning regression differs from the numpy least-squares oracle")
    return problems, {"grid_cells_missing": missing}


# ---------------------------------------------------------------------------
# stock_panel: wide monthly panel read + rank grid, and a daily resample


def stock_panel_inputs(seed: int, root: Path) -> Inputs:
    rng = np.random.default_rng([seed, 1])
    T, N, miss = STOCK_PANEL
    market = 0.006 + 0.045 * rng.standard_normal(T)
    stocks = np.outer(market, rng.uniform(0.5, 1.5, N)) + 0.09 * rng.standard_normal((T, N))
    D, A, dmiss = DAILY_PANEL
    daily = 0.0003 + 0.015 * rng.standard_normal((D, A))
    inp = Inputs(arrays={"daily": _with_missing(rng, daily, dmiss)})
    inp.add_csv("stocks", root / "stocks.csv", month_labels(T),
                [f"s{i:04d}" for i in range(N)], _with_missing(rng, stocks, miss))
    days = business_days(D)
    inp.arrays["months"] = np.array([d[:7] for d in days])
    inp.add_csv("daily", root / "daily.csv", days, [f"a{i:03d}" for i in range(A)], daily)
    return inp


def stock_panel_commands(inp: Inputs):
    return [
        ("sweep", ["sweep", "--input", inp.files["stocks"], "--weighting", "rank",
                   "--stat", "sharpe", "--m", "1..3", "--n", "1..4"], ("grid_sharpe.csv",)),
        ("resample", ["resample", "--input", inp.files["daily"], "--allow-missing"],
         ("monthly.csv",)),
    ]


def monthly_compound(daily: np.ndarray, months: np.ndarray) -> tuple[list[str], np.ndarray]:
    keys = sorted(set(months.tolist()))
    out = np.empty((len(keys), daily.shape[1]))
    for i, key in enumerate(keys):
        block = daily[months == key]
        seen = np.isfinite(block)
        grown = np.where(seen, 1.0 + block, 1.0).prod(axis=0) - 1.0
        out[i] = np.where(seen.any(axis=0), grown, np.nan)
    return keys, out


def stock_panel_check(inp: Inputs, dirs: list[Path]) -> tuple[list[str], dict]:
    cells, problems = _grid(dirs[0] / "grid_sharpe.csv", (3, 4))
    if not np.isfinite(cells).all() or np.abs(cells).max() > 20.0:
        problems.append("stock rank Sharpe grid has missing or implausible cells")
    _, labels, monthly = read_csv(dirs[1] / "monthly.csv")
    keys, expected = monthly_compound(inp.arrays["daily"], inp.arrays["months"])
    if labels != keys or monthly.shape != expected.shape or not _close(monthly, expected):
        problems.append("resampled monthly panel differs from the numpy compounding oracle")
    return problems, {"grid_cells_missing": int(np.isnan(cells).sum())}


# ---------------------------------------------------------------------------
# model_mc: closed-form vs Monte Carlo battery and a long simulated panel


def model_mc_inputs(seed: int, root: Path) -> Inputs:
    return Inputs()  # shipped parameters; the randomness is the CLI's --seed


def model_mc_commands(inp: Inputs):
    return [
        ("verify", ["verify", "--T", str(VERIFY_T)], ("verify.json",)),
        ("simulate", ["simulate", "--T", str(SIMULATE_T), "--factor-out", "factor.csv"],
         ("panel.csv", "factor.csv")),
    ]


def model_mc_check(inp: Inputs, dirs: list[Path]) -> tuple[list[str], dict]:
    problems = []
    report = json.loads((dirs[0] / "verify.json").read_text())
    exact = [c for c in report["checks"] if c["mode"] in ("rel", "bound")]
    problems += [f"verify check {c['name']} failed" for c in exact if not c["passed"]]
    failing_mc = sum(1 for c in report["checks"] if c["mode"] == "3se" and not c["passed"])
    if report.get("T") != VERIFY_T:
        problems.append("verify.json has the wrong T")
    _, labels, returns = read_csv(dirs[1] / "panel.csv")
    _, _, factor = read_csv(dirs[1] / "factor.csv")
    if returns.shape != (SIMULATE_T, SIMULATE_ASSETS) or factor.shape != (SIMULATE_T, 1):
        problems.append(f"simulated shapes {returns.shape} and {factor.shape}")
    elif not _close(factor[:, 0], returns.sum(axis=1) / np.sqrt(SIMULATE_ASSETS), 1e-9, 1e-8):
        problems.append("simulated factor is not w'r of the simulated returns")
    if len(set(labels)) != len(labels):
        problems.append("simulated calendar labels repeat")
    # known calibration defect of the 3-SE battery: reported, not gated
    return problems, {"verify_failing_3se_checks": failing_mc}


@dataclass(frozen=True)
class Workload:
    """``inputs`` writes a seed's input files; ``commands`` lists each CLI call
    as (command, arguments, output files it must write); ``check`` returns the
    problems found in the first round's output directories, plus info fields."""

    inputs: Callable[[int, Path], Inputs]
    commands: Callable[[Inputs], list[tuple[str, list[str], tuple[str, ...]]]]
    check: Callable[[Inputs, list[Path]], tuple[list[str], dict]]


WORKLOADS = {
    "factor_grid": Workload(factor_grid_inputs, factor_grid_commands, factor_grid_check),
    "stock_panel": Workload(stock_panel_inputs, stock_panel_commands, stock_panel_check),
    "model_mc": Workload(model_mc_inputs, model_mc_commands, model_mc_check),
}
