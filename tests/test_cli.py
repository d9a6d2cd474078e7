import json
import math
import shutil
from unittest import mock

import numpy as np
import pytest

from factormom import analytics, cli, model, momentum, panel, riskpipe
from factormom.cli import main


@pytest.fixture(scope="module")
def sim_inputs(tmp_path_factory):
    """Four simulated factor series, the pooled stock panel and a market."""
    root = tmp_path_factory.mktemp("inputs")
    # dollar-neutral factor positions so the market is not spanned by factors
    w = np.concatenate([np.ones(5), -np.ones(5)])
    params = model.ModelParams(
        alpha=0.4, w=w, mu=np.zeros(10), rho=0.1, sigma=np.eye(10)
    )
    paths = [model.simulate(params, 480, seed=s) for s in range(4)]
    cal = paths[0].panel.calendar
    factors = panel.ReturnPanel(
        cal,
        tuple(f"f{i}" for i in range(4)),
        np.column_stack([p.factor.values for p in paths]),
    )
    stocks = panel.ReturnPanel(
        cal,
        tuple(f"s{i:02d}" for i in range(40)),
        np.hstack([p.panel.values for p in paths]),
    )
    market = panel.NamedSeries(
        cal, "market", stocks.values.mean(axis=1)
    )
    panel.emit_csv(factors, root / "factors.csv")
    panel.emit_csv(stocks, root / "stocks.csv")
    panel.emit_csv(market, root / "market.csv")
    return root


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def config_hash_of(path):
    """The ``config_hash`` a CSV or JSON output carries."""
    if path.suffix == ".json":
        return read_json(path)["config_hash"]
    for line in path.read_text().splitlines():
        if line.startswith("# config_hash="):
            return line.split("=", 1)[1]
    raise AssertionError(f"{path} has no config_hash line")


@pytest.fixture
def workdir(sim_inputs, tmp_path, monkeypatch):
    """Inputs under fixed relative names as the working directory.

    Config hashes cover input paths, so pinned hashes need paths that do not
    depend on the temporary directory.
    """
    for name in ("factors.csv", "market.csv"):
        shutil.copy(sim_inputs / name, tmp_path / name)
    factors = panel.load_panel(tmp_path / "factors.csv")
    panel.emit_csv(factors.column("f0"), tmp_path / "f0.csv")
    days = tuple(f"2000-{m:02d}-{d:02d}" for m in (1, 2) for d in range(1, 11))
    values = np.random.default_rng(7).normal(0, 0.01, (20, 2))
    panel.emit_csv(panel.ReturnPanel(panel.Calendar(days), ("A", "B"), values),
                   tmp_path / "daily.csv")
    monkeypatch.chdir(tmp_path)
    return tmp_path


# ---------------------------------------------------------------------------
# backtest


def test_backtest_outputs_and_determinism(sim_inputs, tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    argv = [
        "--out-dir", None, "backtest",
        "--factors", str(sim_inputs / "factors.csv"),
        "--market", str(sim_inputs / "market.csv"),
        "--m", "1", "--n", "3",
    ]
    for out in (out1, out2):
        argv[1] = str(out)
        assert main(argv) == 0
    assert (out1 / "pnl.csv").read_bytes() == (out2 / "pnl.csv").read_bytes()
    assert (out1 / "stats.json").read_bytes() == (out2 / "stats.json").read_bytes()

    stats = read_json(out1 / "stats.json")
    assert list(stats["rows"]) == [
        "menagerie", "ts", "ts_winners", "ts_losers", "xs", "xs_winners", "xs_losers",
    ]
    for row in stats["rows"].values():
        assert set(row) == {"sharpe_annual", "t_stat", "mean_monthly", "vol_monthly", "n_months"}
    assert "config_hash" in stats
    # feedback strength above reversal: both momentum flavors make money
    assert stats["rows"]["ts"]["sharpe_annual"] > 0
    assert stats["rows"]["xs"]["sharpe_annual"] > 0

    first = (out1 / "pnl.csv").read_text().splitlines()[0]
    assert first.startswith("# command=backtest")


@pytest.mark.parametrize("risk_managed", [True, False])
def test_backtest_columns_are_strategies_on_the_managed_panel(sim_inputs, tmp_path,
                                                              risk_managed):
    cfg = {"factors": str(sim_inputs / "factors.csv"),
           "market": str(sim_inputs / "market.csv"), "m": 1, "n": 3}
    if not risk_managed:
        cfg.update(strategies_risk_managed=False, menagerie_risk_managed=False)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["--config", str(tmp_path / "cfg.json"), "--out-dir", str(out),
                 "backtest"]) == 0
    written = panel.load_panel(out / "pnl.csv", allow_missing=True)

    pipe = riskpipe.PipelineConfig()
    factors = panel.load_panel(sim_inputs / "factors.csv")
    market = panel.load_series(sim_inputs / "market.csv")
    managed = panel.ReturnPanel(factors.calendar, factors.assets, np.column_stack([
        riskpipe.vol_normalize(riskpipe.beta_hedge(factors.column(a), market, pipe), pipe).values
        for a in factors.assets]))
    expected = {"menagerie": riskpipe.menagerie(managed)}
    for kind, weighting in (("ts", "sign"), ("xs", "rank")):
        for leg in momentum.LEGS:
            spec = momentum.StrategySpec(1, 3, weighting, leg)
            expected[kind if leg == "both" else f"{kind}_{leg}"] = momentum.strategy_pnl(
                managed, spec)
    assert written.assets == tuple(expected)
    for key, series in expected.items():
        if risk_managed:
            series = riskpipe.vol_normalize(series, pipe)
        rounded = [panel.round_float(x) for x in series.values.tolist()]
        np.testing.assert_array_equal(written.column(key).values, rounded, err_msg=key)


def test_backtest_requires_m_and_n(sim_inputs, tmp_path):
    code = main([
        "--out-dir", str(tmp_path), "backtest",
        "--factors", str(sim_inputs / "factors.csv"),
        "--market", str(sim_inputs / "market.csv"),
    ])
    assert code == 2


def test_backtest_misaligned_calendars_exit_2(sim_inputs, tmp_path, capsys):
    market = panel.load_series(sim_inputs / "market.csv")
    clipped = market.head(len(market.calendar) - 5)
    panel.emit_csv(clipped, tmp_path / "short_market.csv")
    code = main([
        "--out-dir", str(tmp_path), "backtest",
        "--factors", str(sim_inputs / "factors.csv"),
        "--market", str(tmp_path / "short_market.csv"),
        "--m", "1", "--n", "3",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "calendars differ" in err
    assert market.calendar[-1] in err  # offending date is listed


def test_backtest_all_zero_panel_exit_2(sim_inputs, tmp_path, capsys):
    cal = panel.Calendar.periods(200)
    zeros = panel.ReturnPanel(cal, ("f0", "f1"), np.zeros((200, 2)))
    rng = np.random.default_rng(1)
    market = panel.NamedSeries(cal, "mkt", rng.normal(0, 0.03, 200))
    panel.emit_csv(zeros, tmp_path / "zeros.csv")
    panel.emit_csv(market, tmp_path / "market.csv")
    code = main([
        "--out-dir", str(tmp_path), "backtest",
        "--factors", str(tmp_path / "zeros.csv"),
        "--market", str(tmp_path / "market.csv"),
        "--m", "1", "--n", "3",
    ])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_backtest_undefined_statistics_exit_2_naming_the_row(tmp_path, capsys):
    # constant factors hedge to constants, whose volatility is never defined
    cal = panel.Calendar.periods(200)
    panel.emit_csv(panel.ReturnPanel(cal, ("f0", "f1"), np.full((200, 2), 0.01)),
                   tmp_path / "flat.csv")
    market = np.random.default_rng(1).normal(0, 0.03, 200)
    panel.emit_csv(panel.NamedSeries(cal, "mkt", market), tmp_path / "market.csv")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "factors": str(tmp_path / "flat.csv"), "market": str(tmp_path / "market.csv"),
        "m": 1, "n": 3, "strategies_risk_managed": False, "menagerie_risk_managed": False,
    }))
    code = main(["--config", str(cfg), "--out-dir", str(tmp_path / "out"), "backtest"])
    assert code == 2
    assert capsys.readouterr().err == ("error: undefined statistics for 'menagerie': "
                                       "need at least 2 observations, got 0\n")
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# sweep


def test_sweep_single_stat_flags(sim_inputs, tmp_path):
    out = tmp_path / "grid.csv"
    code = main([
        "--out-dir", str(tmp_path), "sweep",
        "--input", str(sim_inputs / "factors.csv"),
        "--weighting", "sign",
        "--m", "1..3", "--n", "1..3",
        "--stat", "sharpe",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "m,1,2,3"
    assert len(data) == 4


def test_sweep_residual_grid_with_controls(sim_inputs, tmp_path):
    cfg = {
        "factor_panel": str(sim_inputs / "factors.csv"),
        "stock_panel": str(sim_inputs / "stocks.csv"),
        "market": str(sim_inputs / "market.csv"),
        "stats": ["sharpe", "corr", "residual"],
        "m": "1..2",
        "n": "1..2",
        "min_months": 24,
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["--config", str(cfg_path), "--out-dir", str(tmp_path), "sweep"])
    assert code == 0
    for stat in ("sharpe", "corr", "residual"):
        assert (tmp_path / f"grid_{stat}.csv").exists()


def test_sweep_reverse_direction(sim_inputs, tmp_path):
    cfg = {
        "factor_panel": str(sim_inputs / "factors.csv"),
        "stock_panel": str(sim_inputs / "stocks.csv"),
        "market": str(sim_inputs / "market.csv"),
        "stats": ["residual"],
        "direction": "stock-on-factor",
        "m": "1..2",
        "n": "1..2",
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["--config", str(cfg_path), "--out-dir", str(tmp_path), "sweep"]) == 0


def test_sweep_empty_range_exit_2(sim_inputs, tmp_path):
    code = main([
        "--out-dir", str(tmp_path), "sweep",
        "--input", str(sim_inputs / "factors.csv"),
        "--m", "3..2", "--n", "1..2",
        "--stat", "sharpe",
    ])
    assert code == 2


def test_sweep_missing_controls_exit_2(sim_inputs, tmp_path):
    code = main([
        "--out-dir", str(tmp_path), "sweep",
        "--input", str(sim_inputs / "factors.csv"),
        "--m", "1..2", "--n", "1..2",
        "--stat", "residual",
    ])
    assert code == 2


@pytest.mark.parametrize("m, n", [("3..2", "1..2"), ("1..2", "5..4")])
def test_sweep_empty_range_names_the_range(sim_inputs, tmp_path, capsys, m, n):
    code = main([
        "--out-dir", str(tmp_path / "out"), "sweep",
        "--input", str(sim_inputs / "factors.csv"),
        "--m", m, "--n", n,
        "--stat", "sharpe",
    ])
    assert code == 2
    assert capsys.readouterr().err == "error: empty (m, n) grid range\n"
    assert not (tmp_path / "out").exists()


def test_sweep_empty_stats_exit_2(sim_inputs, tmp_path, capsys):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({
        "factor_panel": str(sim_inputs / "factors.csv"), "stats": [],
    }))
    code = main(["--config", str(cfg_path), "--out-dir", str(tmp_path / "out"), "sweep"])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "" and "'stats'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("inputs, extra, message", [
    (("factor_panel",), {}, "stat 'corr' needs a stock_panel, reference or control_series"),
    (("factor_panel", "stock_panel"), {"stats": ["sharpe", "residual"]},
     "stat 'residual' needs a market series (or market_control=false)"),
    (("factor_panel", "market"), {"stats": ["sharpe", "residual"]},
     "stat 'residual' needs a stock_panel or control_series"),
    (("factor_panel", "stock_panel", "market"), {"stock_weighting": "foo"},
     "config key 'stock_weighting' must be one of ('rank', 'sign'), got 'foo'"),
    (("factor_panel",), {"stats": ["sharpe", ["corr"]]}, "unknown statistics [['corr']]"),
    (("factor_panel",), {"stats": ["sharpe", "sharpe"]},
     "config key 'stats' must not repeat a value, got ['sharpe', 'sharpe']"),
    (("factor_panel",), {"m": "1,1"}, "config key 'm' must not repeat a value, got [1, 1]"),
    (("factor_panel",), {"n": [2, 2]}, "config key 'n' must not repeat a value, got [2, 2]"),
], ids=["corr", "residual-market", "residual-controls", "stock-weighting", "unhashable-stat",
        "repeated-stat", "repeated-m", "repeated-n"])
def test_sweep_config_error_writes_nothing(sim_inputs, tmp_path, capsys, inputs, extra,
                                           message):
    files = {"factor_panel": "factors.csv", "stock_panel": "stocks.csv",
             "market": "market.csv"}
    cfg = {key: str(sim_inputs / files[key]) for key in inputs}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({**cfg, "stats": ["sharpe", "corr"], "m": "1..2",
                                    "n": "1..2", **extra}))
    code = main(["--config", str(cfg_path), "--out-dir", str(tmp_path / "out"), "sweep"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_sweep_out_with_several_stats_exit_2(workdir, capsys):
    # nothing is loaded first: the panel path does not exist
    (workdir / "cfg.json").write_text(json.dumps({
        "factor_panel": "missing.csv", "stats": ["sharpe", "corr"],
    }))
    code = main(["--config", "cfg.json", "--out-dir", "out", "sweep", "--out", "mine.csv"])
    assert code == 2
    assert "--out names one file" in capsys.readouterr().err
    assert not (workdir / "out").exists() and not (workdir / "mine.csv").exists()


def _sweep_config(sim_inputs, tmp_path, **extra):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({
        "factor_panel": str(sim_inputs / "factors.csv"),
        "stock_panel": str(sim_inputs / "stocks.csv"),
        "market": str(sim_inputs / "market.csv"),
        **extra,
    }))
    return ["--config", str(cfg_path), "--out-dir", str(tmp_path), "sweep"]


def test_sweep_builds_target_grid_once_for_all_stats(sim_inputs, tmp_path):
    argv = _sweep_config(sim_inputs, tmp_path, stats=["sharpe", "corr", "residual"],
                         m="1..3", n="1..2")
    with mock.patch.object(momentum, "pnl_grid", wraps=momentum.pnl_grid) as grid:
        assert main(argv) == 0
    # one target grid shared by the three statistics, one control grid
    assert grid.call_count == 2
    panels = [call.args[0].n_assets for call in grid.call_args_list]
    assert sorted(panels) == [4, 40]


def test_risk_managed_sweep_normalizes_each_cell_once(sim_inputs, tmp_path):
    argv = _sweep_config(sim_inputs, tmp_path, stats=["sharpe", "residual"],
                         risk_managed=True)
    counter = mock.Mock(wraps=riskpipe.vol_normalize)
    with mock.patch.object(riskpipe, "vol_normalize", counter):
        assert main(argv) == 0
    # 144 target cells plus 144 control cells, not 144 per statistic
    assert counter.call_count == 288


# ---------------------------------------------------------------------------
# span


def test_span_exactly_spanned_target_exit_2(sim_inputs, tmp_path):
    out = tmp_path / "span.json"
    code = main([
        "span",
        "--target", str(sim_inputs / "market.csv"),
        "--controls", str(sim_inputs / "market.csv"),
        "--out", str(out),
    ])
    # target == control exactly: spanned, degenerate residual -> exit 2
    assert code == 2


def test_span_on_distinct_series(sim_inputs, tmp_path):
    factors = panel.load_panel(sim_inputs / "factors.csv")
    for name in ("f0", "f1"):
        panel.emit_csv(factors.column(name), tmp_path / f"{name}.csv")
    out = tmp_path / "span.json"
    code = main([
        "span",
        "--target", str(tmp_path / "f0.csv"),
        "--controls", str(tmp_path / "f1.csv"),
        "--out", str(out),
    ])
    assert code == 0
    payload = read_json(out)
    assert payload["residual_includes_intercept"] is True
    assert set(payload["betas"]) == {"f1"}
    assert payload["n_months"] == 480


# ---------------------------------------------------------------------------
# simulate / verify


def test_simulate_requires_seed(tmp_path):
    assert main(["--out-dir", str(tmp_path), "simulate", "--T", "10"]) == 2


def test_simulate_deterministic_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        code = main([
            "--seed", "9", "--out-dir", str(tmp_path),
            "simulate", "--T", "50", "--out", str(out),
            "--factor-out", str(tmp_path / "factor.csv"),
        ])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    sim = panel.load_panel(a, "wide")
    assert sim.n_periods == 50 and sim.n_assets == 20
    factor = panel.load_series(tmp_path / "factor.csv")
    params = model.default_params()
    np.testing.assert_allclose(factor.values, sim.values @ params.w, atol=1e-12)


def test_simulate_factor_out_creates_its_directory(tmp_path):
    factor = tmp_path / "new" / "sub" / "f.csv"
    code = main([
        "--seed", "9", "--out-dir", str(tmp_path),
        "simulate", "--T", "20", "--factor-out", str(factor),
    ])
    assert code == 0
    assert panel.load_series(factor).values.shape == (20,)


def two_stock_params(path):
    path.write_text(json.dumps({
        "N": 2, "alpha": 0.5, "w": [1, -1], "mu": [0, 0], "rho": 0.1, "sigma": {"diag": [1, 1]},
    }))
    return str(path)


def test_simulate_past_9999_12_exits_2(tmp_path, capsys):
    code = main([
        "--seed", "1", "--out-dir", str(tmp_path), "simulate",
        "--params", two_stock_params(tmp_path / "p.json"), "--T", "98000", "--burn-in", "0",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "T=98000" in err and "9999-12" in err
    assert not (tmp_path / "panel.csv").exists()


def test_simulated_series_ending_9999_12_reloads(tmp_path):
    factor = tmp_path / "factor.csv"
    code = main([
        "--seed", "1", "--out-dir", str(tmp_path), "simulate",
        "--params", two_stock_params(tmp_path / "p.json"), "--T", "97200", "--burn-in", "0",
        "--factor-out", str(factor),
    ])
    assert code == 0
    series = panel.load_series(factor)
    assert series.calendar == panel.Calendar.periods(97_200)
    assert series.calendar[-1] == "9999-12"
    sim = panel.load_panel(tmp_path / "panel.csv")
    assert sim.calendar == series.calendar and sim.values.shape == (97_200, 2)


@pytest.mark.parametrize("bad, word", [
    ({"sigma": 1.0}, "sigma"),
    ({"w": 1}, "w has shape"),
    # json reads NaN and Infinity, and float() reads "nan"
    ({"alpha": "nan"}, "'alpha'"),
    ({"rho": math.inf}, "'rho'"),
    ({"mu": [0, math.nan]}, "'mu'"),
    ({"w": [1, -math.inf]}, "'w'"),
    ({"sigma": {"diag": [1, math.nan]}}, "'sigma'"),
])
def test_malformed_params_file_exit_2(tmp_path, capsys, bad, word):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({
        "N": 2, "alpha": 0.5, "w": [1, 1], "mu": [0, 0], "rho": 0.1,
        "sigma": {"diag": [1, 1]}, **bad,
    }))
    code = main([
        "--seed", "1", "--out-dir", str(tmp_path),
        "simulate", "--params", str(params), "--T", "10",
    ])
    assert code == 2
    assert word in capsys.readouterr().err
    assert not (tmp_path / "panel.csv").exists()


def test_truncated_params_file_exit_2_names_the_file(tmp_path, capsys):
    params = tmp_path / "truncated.json"
    params.write_text('{"N": 2,\n')
    code = main([
        "--seed", "1", "--out-dir", str(tmp_path),
        "simulate", "--params", str(params), "--T", "10",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {params}: invalid JSON (")
    assert not (tmp_path / "panel.csv").exists()


def test_verify_nonstationary_params_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "N": 2, "alpha": 1.5, "w": [1, 0], "mu": [0, 0], "rho": 0.0,
        "sigma": {"diag": [1, 1]}, "normalize_w": False,
    }))
    code = main([
        "--seed", "1", "--out-dir", str(tmp_path),
        "verify", "--params", str(bad), "--T", "1000",
    ])
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["--T", "50"], "T = 50 with k_max = 3: the largest lag checked, 6, leaves 44 "
                    "observations for 100 batches; need T >= 106"),
    (["--T", "1000000", "--k-max", "999950"],
     "T = 1000000 with k_max = 999950: the largest lag checked, 999950, leaves 50 "
     "observations for 100 batches; need T >= 1000050"),
])
def test_verify_rejects_unestimable_lag_before_simulating(tmp_path, capsys, monkeypatch,
                                                          argv, message):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before validating T and k_max")

    monkeypatch.setattr(model, "simulate", no_simulation)
    monkeypatch.setattr(model, "_path_blocks", no_simulation)
    monkeypatch.setattr(model, "autocovariance_matrices", no_simulation)
    code = main(["--seed", "0", "--out-dir", str(tmp_path), "verify", *argv])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "verify.json").exists()


def test_verify_boundary_a_equals_rho(tmp_path, capsys):
    params = tmp_path / "boundary.json"
    params.write_text(json.dumps({
        "N": 2, "alpha": 0.2, "w": [0.6, 0.8], "mu": [0.0, 0.0], "rho": 0.2,
        "sigma": {"diag": [1.0, 1.0]}, "normalize_w": False,
    }))
    report = tmp_path / "verify.json"
    code = main([
        "--seed", "5", "--out-dir", str(tmp_path),
        "verify", "--params", str(params), "--T", "200000",
        "--report", str(report),
    ])
    payload = read_json(report)
    by_name = {c["name"]: c for c in payload["checks"]}
    # momentum term is exactly zero on the boundary; the Monte Carlo row
    # reports total = mean term and the two-path row compares 0 to 0
    assert by_name["factor_momentum_two_path_k1"]["rhs"] == 0.0
    assert by_name["factor_momentum_k1"]["rhs"] == 0.0
    assert code in (0, 1)  # band checks may or may not pass at this seed


def test_verify_report_schema(tmp_path):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({
        "N": 3, "alpha": 0.3, "w": [1, 1, 1], "mu": [0, 0, 0], "rho": 0.1,
        "sigma": {"diag": [1, 1, 1]},
    }))
    report = tmp_path / "verify.json"
    code = main([
        "--seed", "0", "--out-dir", str(tmp_path),
        "verify", "--params", str(params), "--T", "150000",
        "--report", str(report),
    ])
    payload = read_json(report)
    assert {"command", "config_hash", "seed", "passed", "checks"} <= set(payload)
    for check in payload["checks"]:
        assert {"name", "lhs", "rhs", "se", "mode", "passed", "note"} == set(check)
    assert code == (0 if payload["passed"] else 1)


def test_verify_with_eq3_config(tmp_path):
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({
        "T": 120000,
        "eq3": {
            "beta": [0.8] * 6,
            "factor": {"rho": 0.0, "mu": 0.0, "sigma_u": 1.0},
            "idio_vol": 1.0,
            "m": 1, "n": 2, "T": 150000, "seed": 3,
        },
    }))
    report = tmp_path / "verify.json.out"
    code = main([
        "--config", str(cfg), "--seed", "14", "--out-dir", str(tmp_path),
        "verify", "--report", str(report),
    ])
    payload = read_json(report)
    names = [c["name"] for c in payload["checks"]]
    assert "momentum_covariance" in names
    assert code in (0, 1)


@pytest.mark.parametrize("change, key", [
    ({"factor": {"sigma": 1.0}}, "sigma"),
    ({"factor": {"rho": 0.0, "mu": 0.0}}, "sigma_u"),
    ({"extra": 1}, "extra"),
    ({"seed": None}, "seed"),  # None drops the key
])
def test_verify_malformed_eq3_exit_2(tmp_path, capsys, change, key):
    eq3 = {
        "beta": [0.8] * 2, "factor": {"rho": 0.0, "mu": 0.0, "sigma_u": 1.0},
        "idio_vol": 1.0, "m": 1, "n": 2, "T": 2000, "seed": 3, **change,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"T": 2000, "eq3": {k: v for k, v in eq3.items() if v is not None}}))
    code = main([
        "--config", str(cfg), "--seed", "1", "--out-dir", str(tmp_path), "verify",
    ])
    assert code == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "verify.json").exists()


@pytest.mark.parametrize("change, key", [
    ({"n_batches": 0}, "n_batches"),
    ({"n_batches": 1}, "n_batches"),
    ({"burn_in": -1}, "burn_in"),
    ({"m": 0}, "m must be >= 1"),
    ({"beta": []}, "'beta'"),
    ({"beta": [1, math.nan]}, "'beta'"),
    ({"beta": [[0.8, 0.8]]}, "'beta'"),
    ({"beta": [0.8, "0.8"]}, "'beta'"),
    ({"idio_vol": -1}, "'idio_vol'"),
    ({"beta": [10**400, 0.8]}, "'beta'"),
])
def test_verify_bad_eq3_values_exit_2_before_simulating(tmp_path, capsys, change, key):
    eq3 = {
        "beta": [0.8] * 2, "factor": {"rho": 0.0, "mu": 0.0, "sigma_u": 1.0},
        "idio_vol": 1.0, "m": 1, "n": 2, "T": 2000, "seed": 3, **change,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"T": 2000, "eq3": eq3}))
    refuse = mock.Mock(side_effect=AssertionError("simulated before checking eq3"))
    with mock.patch.object(model, "simulate", refuse), \
            mock.patch.object(model, "reconstruction_check", refuse):
        code = main(["--config", str(cfg), "--seed", "1", "--out-dir", str(tmp_path), "verify"])
    assert code == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "verify.json").exists()
    refuse.assert_not_called()


@pytest.mark.parametrize("command, cfg, key", [
    ("verify", {"T": 2000, "k_max": [1]}, "k_max"),
    ("verify", {"T": "2000"}, "T"),
    ("verify", {"T": 2000, "eq3": {
        "beta": [0.8] * 2, "factor": {"rho": 0.0, "mu": 0.0, "sigma_u": 1.0},
        "idio_vol": 1.0, "m": "2", "n": 2, "T": 2000, "seed": 3}}, "eq3.m"),
    ("simulate", {"T": 50, "burn_in": 2.5}, "burn_in"),
    ("sweep", {"factor_panel": "factors.csv", "min_months": "x"}, "min_months"),
    ("sweep", {"factor_panel": "factors.csv", "m": [1, True]}, "m"),
    ("sweep", {"factor_panel": "factors.csv", "n": "1..x"}, "n"),
    ("sweep", {"factor_panel": "factors.csv", "pipeline": {"window_months": None}},
     "pipeline.window_months"),
    ("sweep", {"factor_panel": "factors.csv", "stats": "sharpe"}, "stats"),
    ("backtest", {"factors": "factors.csv", "market": "market.csv", "m": 1, "n": [3]}, "n"),
    ("sweep", {"factor_panel": "factors.csv", "pipeline": {"vol_target": [1]}},
     "pipeline.vol_target"),
    ("sweep", {"factor_panel": "factors.csv", "pipeline": {"window": 24}}, "window"),
    ("verify", {"T": 2000, "eq3": {
        "beta": [0.8] * 2, "factor": {"rho": 0.0, "mu": 0.0, "sigma_u": 1.0},
        "idio_vol": "x", "m": 2, "n": 2, "T": 2000, "seed": 3}}, "eq3.idio_vol"),
    ("verify", {"T": 2000, "eq3": {
        "beta": [0.8] * 2, "factor": {"rho": "x", "mu": 0.0, "sigma_u": 1.0},
        "idio_vol": 1.0, "m": 2, "n": 2, "T": 2000, "seed": 3}}, "eq3.factor.rho"),
    ("resample", {"input": "daily.csv", "allow_missing": "false"}, "allow_missing"),
    ("backtest", {"factors": "factors.csv", "market": "market.csv", "m": 1, "n": 3,
                  "allow_missing": "no"}, "allow_missing"),
    ("backtest", {"factors": "factors.csv", "market": "market.csv", "m": 1, "n": 3,
                  "strategies_risk_managed": "false"}, "strategies_risk_managed"),
    ("backtest", {"factors": "factors.csv", "market": "market.csv", "m": 1, "n": 3,
                  "menagerie_risk_managed": 0}, "menagerie_risk_managed"),
    ("sweep", {"factor_panel": "factors.csv", "allow_missing": "false"}, "allow_missing"),
    ("sweep", {"factor_panel": "factors.csv", "risk_managed": "true"}, "risk_managed"),
    ("sweep", {"factor_panel": "factors.csv", "menagerie_control": 0}, "menagerie_control"),
    ("sweep", {"factor_panel": "factors.csv", "market_control": None}, "market_control"),
    ("simulate", {"T": 50, "params": {
        "N": 2, "alpha": 0.2, "w": [1, 1], "mu": [0, 0], "rho": 0.1,
        "sigma": {"diag": [1, 1]}, "normalize_w": "false"}}, "normalize_w"),
    ("sweep", {"factor_panel": "factors.csv", "control_series": "f0.csv"}, "control_series"),
    ("sweep", {"factor_panel": "factors.csv", "control_series": None}, "control_series"),
    ("span", {"target": "f0.csv", "controls": "market.csv"}, "controls"),
    ("span", {"target": "f0.csv", "controls": {"market": "market.csv"}}, "controls"),
    ("sweep", {"factor_panel": "factors.csv", "stock_weighting": "foo"}, "stock_weighting"),
    ("sweep", {"factor_panel": "factors.csv", "factor_weighting": "Sign"}, "factor_weighting"),
    ("sweep", {"factor_panel": "factors.csv", "weighting": ["rank"]}, "weighting"),
    # non-finite numbers: json reads NaN and Infinity
    ("verify", {"T": 2000, "params": {
        "N": 2, "alpha": 0.2, "w": [1, 1], "mu": [0, math.nan], "rho": 0.1,
        "sigma": {"diag": [1, 1]}}}, "mu"),
    ("simulate", {"T": 5, "burn_in": 0, "params": {
        "N": 2, "alpha": 0.2, "w": [1, 1], "mu": [0, 0], "rho": math.inf,
        "sigma": {"diag": [1, 1]}}}, "rho"),
    ("sweep", {"factor_panel": "factors.csv", "risk_managed": True,
               "pipeline": {"vol_target": math.inf}}, "pipeline.vol_target"),
    ("sweep", {"factor_panel": "factors.csv", "pipeline": {"vol_target": math.nan}},
     "pipeline.vol_target"),
    ("verify", {"T": 2000, "eq3": {
        "beta": [0.8] * 2, "factor": {"rho": 0.0, "mu": math.nan, "sigma_u": 1.0},
        "idio_vol": 1.0, "m": 2, "n": 2, "T": 2000, "seed": 3}}, "eq3.factor.mu"),
    ("verify", {"T": 2000, "eq3": {
        "beta": [0.8] * 2, "factor": {"rho": 0.0, "mu": 0.0, "sigma_u": 1.0},
        "idio_vol": -math.inf, "m": 2, "n": 2, "T": 2000, "seed": 3}}, "eq3.idio_vol"),
    ("verify", {"T": 2000, "eq3": {
        "beta": [0.8] * 2, "factor": {"rho": 0.0, "mu": 0.0, "sigma_u": 1.0},
        "idio_vol": 10**400, "m": 2, "n": 2, "T": 2000, "seed": 3}}, "eq3.idio_vol"),
    # a misspelt top-level key, which the hash would otherwise cover unread
    ("backtest", {"factors": "factors.csv", "market": "market.csv", "m": 1, "n": 3,
                  "strategies_risk_manged": False}, "strategies_risk_manged"),
    ("sweep", {"factor_panel": "factors.csv", "stat": ["corr"]}, "stat"),
    ("span", {"target": "f0.csv", "controls": ["market.csv"], "control": []}, "control"),
    ("simulate", {"T": 50, "burnin": 10}, "burnin"),
    ("verify", {"T": 2000, "kmax": 1}, "kmax"),
    ("resample", {"input": "daily.csv", "layuot": "long"}, "layuot"),
    ("backtest", {"factors": "factors.csv", "market": "market.csv", "m": 1, "n": 3,
                  "pipeline": 5}, "pipeline"),
    ("verify", {"T": 2000, "eq3": [1]}, "eq3"),
    # an empty or null path, though Path("") names the working directory
    *[(command, {**cfg, key: empty}, key) for command, cfg, key in [
        ("backtest", {"factors": "factors.csv", "market": "market.csv", "m": 1, "n": 3},
         "factors"),
        ("backtest", {"factors": "factors.csv", "market": "market.csv", "m": 1, "n": 3},
         "market"),
        ("sweep", {}, "factor_panel"),
        ("span", {"controls": ["market.csv"]}, "target"),
        ("resample", {}, "input"),
    ] for empty in ("", None)],
    # params: null is the shipped set
    ("simulate", {"T": 50, "params": ""}, "params"),
    ("verify", {"T": 2000, "params": ""}, "params"),
    # model parameters are read strictly: no unknown key, no string or boolean
    # for a number, an integral N and one sigma form
    *[("simulate", {"T": 50, "params": {
        "N": 2, "alpha": 0.2, "w": [1, 1], "mu": [0, 0], "rho": 0.1,
        "sigma": {"diag": [1, 1]}, **change}}, key) for change, key in [
        ({"normalise_w": False}, "normalise_w"),
        ({"alpha": "0.5"}, "alpha"),
        ({"rho": False}, "rho"),
        ({"w": [1, "1"]}, "w"),
        ({"mu": [0, True]}, "mu"),
        ({"N": 2.5}, "N"),
        ({"N": "2"}, "N"),
        ({"sigma": {"diag": [1, 1], "full": [[1, 0], [0, 1]]}}, "sigma"),
    ]],
    # a path longer than numpy can index is refused by name before any draw
    ("simulate", {"T": 10**400}, "T"),
    ("verify", {"T": 10**400}, "T"),
    # and a path numpy can index but memory cannot hold is refused at its
    # first allocation, which fails at once
    ("simulate", {"T": 10**15}, "T"),
    ("verify", {"T": 10**15}, "T"),
    ("verify", {"T": 2000, "eq3": {
        "beta": [1, 0.8], "factor": {"rho": 0.0, "mu": 0.0, "sigma_u": 1.0}, "idio_vol": 1.0,
        "m": 1, "n": 2, "T": 10**15, "seed": 3}}, "T"),
    # an integer past the float range is an input error, not an OverflowError
    ("simulate", {"T": 50, "params": {
        "N": 2, "alpha": 10**400, "w": [1, 1], "mu": [0, 0], "rho": 0.1,
        "sigma": {"diag": [1, 1]}}}, "alpha"),
])
def test_wrong_typed_config_value_exit_2(workdir, capsys, command, cfg, key):
    (workdir / "cfg.json").write_text(json.dumps(cfg))
    code = main(["--config", "cfg.json", "--seed", "1", "--out-dir", "out", command])
    assert code == 2
    assert repr(key) in capsys.readouterr().err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("config, command, word", [
    ('{"T": 50', "simulate", "cfg.json: invalid JSON"),
    ('[{"T": 50}]', "simulate", "cfg.json: config must be a JSON object"),
    ('{"target": "missing.csv", "controls": ["market.csv"]}', "span",
     "target path does not exist: missing.csv"),
    ('{"factor_panel": "factors.csv", "direction": "sideways"}', "sweep",
     "unknown direction 'sideways'"),
    ('{"factor_panel": "factors.csv", "direction": "stock-on-factor"}', "sweep",
     "stock-on-factor needs a stock_panel"),
    ('{"target": "f0.csv", "controls": []}', "span", "'controls'"),
], ids=["invalid-json", "json-list", "missing-path", "sideways", "no-stock-panel",
        "no-controls"])
def test_config_error_exit_2_names_key_or_file(workdir, capsys, config, command, word):
    (workdir / "cfg.json").write_text(config)
    code = main(["--config", "cfg.json", "--seed", "1", "--out-dir", "out", command])
    assert code == 2
    assert word in capsys.readouterr().err
    assert not (workdir / "out").exists()


def test_integral_float_config_values_are_integers(workdir):
    (workdir / "cfg.json").write_text(json.dumps({"T": 50.0, "burn_in": 2e1}))
    assert main(["--config", "cfg.json", "--seed", "9", "--out-dir", "out", "simulate"]) == 0
    assert config_hash_of(workdir / "out" / "panel.csv") == FLAGS_ONLY_RUNS["simulate"][2]


@pytest.mark.parametrize("m", [2, 2.0, [2.0], "2"])
def test_sweep_scalar_range_is_one_value(workdir, m):
    (workdir / "cfg.json").write_text(json.dumps({
        "factor_panel": "factors.csv", "m": m, "n": 3, "stats": ["sharpe"]}))
    assert main(["--config", "cfg.json", "--out-dir", "config", "sweep"]) == 0
    assert main(["--out-dir", "flags", "sweep", "--input", "factors.csv",
                 "--m", "2", "--n", "3", "--stat", "sharpe"]) == 0
    written = [(workdir / run / "grid_sharpe.csv").read_bytes() for run in ("config", "flags")]
    assert written[0] == written[1]


def test_pipeline_flags_change_backtest(sim_inputs, tmp_path):
    base, wide = tmp_path / "base", tmp_path / "wide"
    for out, extra in ((base, []), (wide, ["--window", "48", "--vol-target", "0.02"])):
        code = main([
            "--out-dir", str(out), "backtest",
            "--factors", str(sim_inputs / "factors.csv"),
            "--market", str(sim_inputs / "market.csv"),
            "--m", "1", "--n", "3", *extra,
        ])
        assert code == 0
    a = read_json(base / "stats.json")
    b = read_json(wide / "stats.json")
    assert a["config_hash"] != b["config_hash"]
    # doubling the vol target doubles the menagerie's realized monthly vol
    ratio = b["rows"]["menagerie"]["vol_monthly"] / a["rows"]["menagerie"]["vol_monthly"]
    assert 1.5 < ratio < 2.5


def test_sweep_fixed_control_series(sim_inputs, tmp_path):
    factors = panel.load_panel(sim_inputs / "factors.csv")
    panel.emit_csv(factors.column("f3"), tmp_path / "fixed.csv")
    out = tmp_path / "grid_residual.csv"
    code = main([
        "--out-dir", str(tmp_path), "sweep",
        "--input", str(sim_inputs / "factors.csv"),
        "--m", "1..2", "--n", "1..2",
        "--stat", "residual",
        "--control-series", str(tmp_path / "fixed.csv"),
        str(sim_inputs / "market.csv"),
    ])
    # market_control defaults to true and no market was configured: the fixed
    # series list stands in for the per-cell control, market still required
    assert code == 2
    cfg = {
        "factor_panel": str(sim_inputs / "factors.csv"),
        "market": str(sim_inputs / "market.csv"),
        "control_series": [str(tmp_path / "fixed.csv")],
        "stats": ["residual"],
        "m": "1..2",
        "n": "1..2",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["--config", str(cfg_path), "--out-dir", str(tmp_path), "sweep"]) == 0
    assert out.exists()


def test_sweep_corr_without_reference_correlates_with_the_first_control(sim_inputs, tmp_path):
    factors = panel.load_panel(sim_inputs / "factors.csv")
    for name in ("f2", "f3"):
        panel.emit_csv(factors.column(name), tmp_path / f"{name}.csv")
    first, second = str(tmp_path / "f2.csv"), str(tmp_path / "f3.csv")
    grids = {}
    for run, extra in (("controls", {"control_series": [first, second]}),
                       ("first", {"reference": first}), ("second", {"reference": second})):
        cfg = {"factor_panel": str(sim_inputs / "factors.csv"), "stats": ["corr"],
               "m": "1..3", "n": "1..3", **extra}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["--config", str(tmp_path / "cfg.json"), "--out-dir",
                     str(tmp_path / run), "sweep"]) == 0
        text = (tmp_path / run / "grid_corr.csv").read_text()
        grids[run] = [line for line in text.splitlines() if not line.startswith("#")]
    assert grids["controls"] == grids["first"] != grids["second"]
    assert all(line.split(",")[1:] != [""] * 3 for line in grids["first"][1:])


def test_market_control_false_leaves_the_market_out(sim_inputs, tmp_path):
    grids = {}
    market = str(sim_inputs / "market.csv")
    for run, extra in (("none", {"market_control": False}),
                       ("off", {"market": market, "market_control": False}),
                       ("on", {"market": market})):
        cfg = {"factor_panel": str(sim_inputs / "factors.csv"),
               "stock_panel": str(sim_inputs / "stocks.csv"),
               "stats": ["residual"], "m": "1..2", "n": "1..2", **extra}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["--config", str(tmp_path / "cfg.json"), "--out-dir",
                     str(tmp_path / run), "sweep"]) == 0
        text = (tmp_path / run / "grid_residual.csv").read_text()
        grids[run] = [line for line in text.splitlines() if not line.startswith("#")]
    # a configured market is a control only under market_control
    assert grids["off"] == grids["none"]
    assert grids["on"] != grids["none"]


@pytest.mark.parametrize("key, stat", [("control_series", "residual"), ("reference", "corr")])
def test_sweep_inputs_follow_allow_missing(sim_inputs, tmp_path, capsys, key, stat):
    series = panel.load_panel(sim_inputs / "factors.csv").column("f3")
    values = series.values.copy()
    values[4] = np.nan  # the fifth date: line 6 after the header
    gappy = str(tmp_path / "gappy.csv")
    panel.emit_csv(panel.NamedSeries(series.calendar, "f3", values), gappy)
    cfg = {
        "factor_panel": str(sim_inputs / "factors.csv"),
        "market": str(sim_inputs / "market.csv"),
        key: [gappy] if key == "control_series" else gappy,
        "stats": [stat],
        "m": "1..2",
        "n": "1..2",
    }
    for allow, code in ((True, 0), (False, 2)):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**cfg, "allow_missing": allow}))
        out = tmp_path / f"out_{allow}"
        assert main(["--config", str(cfg_path), "--out-dir", str(out), "sweep"]) == code
    assert "line 6" in capsys.readouterr().err
    assert not out.exists()


def test_allow_missing_flag_is_backtests_only(workdir, capsys):
    factors = panel.load_panel(workdir / "factors.csv")
    values = factors.values.copy()
    values[4, 1] = np.nan  # the fifth date: line 6 after the header
    panel.emit_csv(panel.ReturnPanel(factors.calendar, factors.assets, values), "gappy.csv")
    argv = ["backtest", "--factors", "gappy.csv", "--market", "market.csv", "--m", "1", "--n", "3"]
    assert main(argv) == 2
    assert "line 6" in capsys.readouterr().err
    assert main([*argv, "--allow-missing"]) == 0
    # sweep reads with missing cells allowed unless its config says false;
    # a flag that could only set the default again is refused
    with pytest.raises(SystemExit) as refused:
        main(["sweep", "--input", "gappy.csv", "--m", "1", "--n", "1", "--allow-missing"])
    assert refused.value.code == 2
    assert "--allow-missing" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# configuration resolution


# One flags-only invocation per command, the output it writes and the
# config_hash it carries. The hashes pin each command's resolved config, so a
# change to how flags become config keys, or to a default, shows up here.
FLAGS_ONLY_RUNS = {
    "backtest": (["backtest", "--factors", "factors.csv", "--market", "market.csv",
                  "--m", "1", "--n", "3", "--window", "24"], "out/stats.json", "c798c7b6797938af"),
    "sweep": (["sweep", "--input", "factors.csv", "--m", "1..2", "--n", "1,3",
               "--stat", "sharpe", "--lag-vol", "2", "--vol-target", "0.02"],
              "out/grid_sharpe.csv", "7ef5e62843a2cc4f"),
    "span": (["span", "--target", "f0.csv", "--controls", "market.csv"],
             "out/span.json", "f5c298cf83f55416"),
    "simulate": (["--seed", "9", "simulate", "--T", "50", "--burn-in", "20"],
                 "out/panel.csv", "34af40a5b5c63d1c"),
    "verify": (["--seed", "0", "verify", "--T", "20000", "--k-max", "1"],
               "out/verify.json", "27be3a094ffb06ec"),
    "resample": (["resample", "--input", "daily.csv", "--allow-missing"],
                 "out/monthly.csv", "92409fd02da7ab77"),
}


@pytest.mark.parametrize("command", list(FLAGS_ONLY_RUNS))
def test_flags_only_config_hash_is_pinned(workdir, command):
    argv, output, expected = FLAGS_ONLY_RUNS[command]
    assert main(["--out-dir", "out", *argv]) in ((0, 1) if command == "verify" else (0,))
    assert config_hash_of(workdir / output) == expected


def test_flags_beat_config_file(workdir):
    (workdir / "bt.json").write_text(json.dumps({
        "factors": "factors.csv", "market": "market.csv", "m": 1, "n": 6,
        "pipeline": {"window_months": 24, "vol_target": 0.02},
    }))
    base = ["backtest", "--factors", "factors.csv", "--market", "market.csv", "--m", "1"]
    runs = {
        "config": ["--config", "bt.json", "--out-dir", "config", "backtest"],
        "overlay": ["--config", "bt.json", "--out-dir", "overlay", "backtest",
                    "--n", "3", "--window", "36"],
        "flags": ["--out-dir", "flags", *base, "--n", "3", "--window", "36",
                  "--vol-target", "0.02"],
    }
    for argv in runs.values():
        assert main(argv) == 0
    # the overlay resolves to exactly the flags-only configuration: --n beats
    # the file's n, --window beats its pipeline.window_months, and the file's
    # pipeline.vol_target survives
    for name in ("pnl.csv", "stats.json"):
        assert (workdir / "overlay" / name).read_bytes() == (workdir / "flags" / name).read_bytes()
    assert read_json(workdir / "config" / "stats.json")["n"] == 6
    assert (config_hash_of(workdir / "config" / "stats.json")
            != config_hash_of(workdir / "overlay" / "stats.json"))


def test_sweep_weighting_enters_config_hash(workdir):
    hashes = {}
    for weighting in ("sign", "rank"):
        out = workdir / f"grid_{weighting}.csv"
        assert main(["sweep", "--input", "factors.csv", "--weighting", weighting,
                     "--m", "1..2", "--n", "1..2", "--stat", "sharpe", "--out", str(out)]) == 0
        hashes[weighting] = config_hash_of(out)
    assert hashes["sign"] != hashes["rank"]


# ---------------------------------------------------------------------------
# resample


def test_resample_cli(tmp_path):
    days = tuple(f"2000-01-{d:02d}" for d in range(1, 11)) + tuple(
        f"2000-02-{d:02d}" for d in range(1, 11)
    )
    rng = np.random.default_rng(2)
    daily = panel.ReturnPanel(
        panel.Calendar(days), ("A", "B"), rng.normal(0, 0.01, (20, 2))
    )
    panel.emit_csv(daily, tmp_path / "daily.csv")
    out = tmp_path / "monthly.csv"
    code = main([
        "resample", "--input", str(tmp_path / "daily.csv"), "--out", str(out),
    ])
    assert code == 0
    monthly = panel.load_panel(out, "wide")
    assert monthly.calendar.labels == ("2000-01", "2000-02")


def test_resample_reads_allow_missing_from_config(workdir):
    days = ("2000-01-03", "2000-01-04")
    gappy = panel.ReturnPanel(panel.Calendar(days), ("A",), np.array([[0.01], [np.nan]]))
    panel.emit_csv(gappy, workdir / "gappy.csv")
    (workdir / "rs.json").write_text(json.dumps({"allow_missing": True}))
    argv = ["resample", "--input", "gappy.csv", "--out", "monthly.csv"]
    assert main(argv) == 2
    assert main(["--config", "rs.json", *argv]) == 0
    assert panel.load_panel(workdir / "monthly.csv").values[0, 0] == pytest.approx(0.01)


# cells float() reads but the ASCII decimal grammar does not: "_" digit
# separators, Arabic-Indic and fullwidth digits, a no-break and an
# ideographic space
@pytest.mark.parametrize("cell", ["1_0", "0.0_1", "\u0661", "\uff11", "\u00a00.5", "0.5\u3000"])
def test_non_ascii_decimal_cell_is_non_numeric(workdir, capsys, cell):
    (workdir / "odd.csv").write_text(
        f"date,A,B\n2000-01-03,0.01,0.02\n2000-01-04,{cell},0.03\n", encoding="utf-8")
    argv = ["resample", "--input", "odd.csv", "--out", "monthly.csv"]
    assert main(argv) == 2
    assert "line 3: non-numeric cell" in capsys.readouterr().err
    assert main([*argv, "--allow-missing"]) == 0
    assert panel.load_panel(workdir / "monthly.csv").values[0, 0] == 0.01  # A's one day left


def test_resample_input_from_config(workdir):
    (workdir / "rs.json").write_text(json.dumps({"input": "daily.csv"}))
    assert main(["--out-dir", "flag", "resample", "--input", "daily.csv"]) == 0
    assert main(["--config", "rs.json", "--out-dir", "config", "resample"]) == 0
    written = [(workdir / run / "monthly.csv").read_bytes() for run in ("flag", "config")]
    assert written[0] == written[1]


def test_resample_without_input_exit_2(workdir, capsys):
    assert main(["--out-dir", "out", "resample"]) == 2
    assert "'input'" in capsys.readouterr().err
    assert not (workdir / "out").exists()


def test_unwritable_output_exit_3(sim_inputs, tmp_path):
    code = main([
        "resample", "--input", str(sim_inputs / "factors.csv"),
        "--out", str(tmp_path),  # a directory, not a file
    ])
    # monthly input fails earlier with exit 2; use a daily panel instead
    days = tuple(f"2000-01-{d:02d}" for d in range(1, 5))
    daily = panel.ReturnPanel(
        panel.Calendar(days), ("A",), np.zeros((4, 1))
    )
    panel.emit_csv(daily, tmp_path / "daily.csv")
    code = main([
        "resample", "--input", str(tmp_path / "daily.csv"), "--out", str(tmp_path)
    ])
    assert code == 3


def test_internal_lookup_error_is_not_an_input_error(workdir):
    # exit 2 is for input errors; a KeyError inside a handler is a bug
    with mock.patch.object(panel, "resample_monthly", side_effect=KeyError("asset")):
        with pytest.raises(KeyError, match="asset"):
            main(["--out-dir", "out", "resample", "--input", "daily.csv"])
    assert not (workdir / "out" / "monthly.csv").exists()


def test_every_program_error_is_a_value_error():
    # main maps exactly the ValueErrors to exit 2
    errors = [obj for mod in (analytics, cli, model, momentum, panel, riskpipe)
              for obj in vars(mod).values()
              if isinstance(obj, type) and issubclass(obj, BaseException)
              and obj.__module__ == mod.__name__]
    assert len(errors) >= 12
    assert [e for e in errors if not issubclass(e, ValueError)] == []


# ---------------------------------------------------------------------------
# JSON float emission


def _floats(obj):
    if isinstance(obj, float):
        yield obj
    elif isinstance(obj, dict):
        for val in obj.values():
            yield from _floats(val)
    elif isinstance(obj, list):
        for val in obj:
            yield from _floats(val)


def _at_emission_precision(x: float) -> bool:
    return not math.isfinite(x) or x == float(f"{x:.12g}")


def test_json_floats_past_12th_digit_write_identical_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    cli._write_json(a, {"x": 0.0021651738380986858, "rows": [{"y": 1 / 3}]})
    cli._write_json(b, {"x": 0.002165173838098686, "rows": [{"y": 1 / 3 + 2e-16}]})
    assert a.read_bytes() == b.read_bytes()
    assert read_json(a) == {"x": 0.00216517383810, "rows": [{"y": 0.333333333333}]}


def test_json_float_tokens(tmp_path):
    out = tmp_path / "t.json"
    cli._write_json(out, {
        "one": 1.0, "neg_zero": -0.0, "nan": float("nan"),
        "inf": float("inf"), "np": np.float64(-2.5),
    })
    text = out.read_text()
    assert '"one": 1.0,' in text
    assert '"neg_zero": 0.0,' in text and "-0.0" not in text
    assert '"nan": NaN,' in text
    assert '"inf": Infinity,' in text
    assert '"np": -2.5\n' in text
    payload = read_json(out)
    assert type(payload["one"]) is float


def test_json_non_floats_unchanged(tmp_path):
    payload = {
        "int": 123456789012345678, "bool": True, "none": None,
        "text": "0.1234567890123456", "list": [1, False, "a"], "tuple": (2, None),
    }
    out = tmp_path / "t.json"
    cli._write_json(out, payload)
    assert out.read_text() == json.dumps(payload, indent=2) + "\n"


def test_cli_json_outputs_use_emission_precision(sim_inputs, tmp_path):
    assert main([
        "--out-dir", str(tmp_path / "bt"), "backtest",
        "--factors", str(sim_inputs / "factors.csv"),
        "--market", str(sim_inputs / "market.csv"),
        "--m", "1", "--n", "3",
    ]) == 0
    factors = panel.load_panel(sim_inputs / "factors.csv")
    for name in ("f0", "f1"):
        panel.emit_csv(factors.column(name), tmp_path / f"{name}.csv")
    assert main([
        "span", "--target", str(tmp_path / "f0.csv"),
        "--controls", str(tmp_path / "f1.csv"), "--out", str(tmp_path / "span.json"),
    ]) == 0
    code = main([
        "--seed", "0", "--out-dir", str(tmp_path), "verify", "--T", "20000",
        "--report", str(tmp_path / "verify.json"),
    ])
    assert code in (0, 1)
    for path in (tmp_path / "bt" / "stats.json", tmp_path / "span.json",
                 tmp_path / "verify.json"):
        values = list(_floats(read_json(path)))
        assert len(values) >= 5, path
        assert all(_at_emission_precision(x) for x in values), path
