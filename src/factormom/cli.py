"""
Command line surface tying the library into reproducible batch workflows.

Subcommands: backtest, sweep, span, simulate, verify, resample. One JSON
config (or equivalent flags) in, deterministic CSV/JSON out: rerunning a
command with the same config and seed produces byte-identical files. Every
output embeds the config hash and seed, as leading ``#`` comment lines in
CSV and as top-level keys in JSON.

Each handler's keyword-only parameters declare its command's config keys,
their types and defaults. ``main`` overlays the ``--config`` file with each
given flag whose argparse ``dest`` names a handler keyword (pipeline flags
land in ``cfg["pipeline"]``), reads the result against the handler's
signature, so an unknown, missing or mistyped key exits 2 naming it, and
calls the handler with the typed values. The hash covers ``{command, seed,
**cfg}`` once the handler has written its resolved defaults into ``cfg``.

Exit codes: 0 success, 1 verification-check failure, 2 input error (every
one the program raises is a ``ValueError``), 3 I/O error. Any other
exception is a bug and ends in a traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from . import analytics, model, momentum, panel, riskpipe

# The interpreter's own SHA-256, as the standard library's random module takes
# its SHA-512: hashlib loads OpenSSL, which costs milliseconds of import and
# megabytes of RSS for one hash per run.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


def _keywords(accepting) -> dict:
    """The parameters of ``accepting`` a config can name: all but positional-only."""
    return {key: p for key, p in inspect.signature(accepting).parameters.items()
            if p.kind is not p.POSITIONAL_ONLY}


# Keys of ``cfg["pipeline"]``; every other flag that names a handler keyword
# is a top-level config key.
_PIPELINE_KEYS = tuple(_keywords(riskpipe.PipelineConfig))


def _resolve(args) -> dict:
    """The ``--config`` file overlaid by every flag that was given."""
    cfg = _load_config(args.config) if args.config else {}
    given = vars(args)
    if any(key in given for key in _PIPELINE_KEYS):  # the command takes pipeline flags
        if not isinstance(cfg.setdefault("pipeline", {}), dict):
            raise ConfigError("config key 'pipeline' must be a JSON object")
    keys = _keywords(args.handler)
    for key, value in given.items():
        if value is not None and key in _PIPELINE_KEYS:
            cfg["pipeline"][key] = value
        elif value is not None and key in keys:
            cfg[key] = value
    return cfg


def _header(args, cfg: dict) -> dict:
    """Output header: command, hash of ``{command, seed, **cfg}`` and seed."""
    resolved = {"command": args.cmd, "seed": args.seed, **cfg}
    canon = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return {
        "command": args.cmd,
        "config_hash": sha256(canon.encode()).hexdigest()[:16],
        "seed": "none" if args.seed is None else args.seed,
    }


def _output(args, name: str, given=None) -> Path:
    """``given`` if set, else ``name`` under ``--out-dir``; creates its directory."""
    path = Path(given) if given else Path(args.out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _round_floats(obj):
    if isinstance(obj, float):
        return panel.round_float(obj)
    if isinstance(obj, dict):
        return {key: _round_floats(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(val) for val in obj]
    return obj


def _write_json(path, payload: dict) -> None:
    """Write ``payload`` as indented JSON, every float at the CSV precision."""
    with open(path, "w") as fh:
        fh.write(json.dumps(_round_floats(payload), indent=2))
        fh.write("\n")


def _load_config(path) -> dict:
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return cfg


def _existing(path, key: str) -> str:
    """``path``, the value of config key ``key``, if it names an existing file.
    An empty string, ``null`` or any other non-string is a ``ConfigError``
    naming the key, and so is a path that does not exist."""
    if not isinstance(path, str) or not path:
        raise ConfigError(f"config key {key!r} must be a path, got {path!r}")
    if not Path(path).exists():
        raise ConfigError(f"{key} path does not exist: {path}")
    return path


def _read_args(obj, accepting, what: str = "") -> dict:
    """``obj`` as keyword arguments of ``accepting``: a JSON object whose keys
    are its arguments, including every argument without a default, with each
    value annotated ``int``, ``float``, ``bool``, ``list``,
    ``riskpipe.PipelineConfig`` or ``AR1Params`` read as one (a new dict).
    ``what`` is the dotted key of ``obj``; messages name top-level keys
    (``what`` empty) without a prefix."""
    if not isinstance(obj, dict):
        raise ConfigError(f"config key {what!r} must be a JSON object")
    params = _keywords(accepting)
    required = [key for key, p in params.items() if p.default is p.empty]
    bad = [f"unknown key {key!r}" for key in obj if key not in params]
    bad += [f"missing key {key!r}" for key in required if key not in obj]
    if bad:
        raise ConfigError(f"{what or 'config'}: " + ", ".join(bad))
    readers = {"int": _as_int, "bool": _as_bool, "list": _as_list,
               "float": lambda value, key: panel._number(value, f"config key {key!r}",
                                                         ConfigError),
               "int | None": lambda value, key: None if value is None else _as_int(value, key),
               "riskpipe.PipelineConfig": lambda value, key: riskpipe.PipelineConfig(
                   **_read_args(value, riskpipe.PipelineConfig, key)),
               "AR1Params": lambda value, key: analytics.AR1Params(
                   **_read_args(value, analytics.AR1Params, key))}
    prefix = f"{what}." if what else ""
    return {key: readers[kind](value, prefix + key)
            if (kind := params[key].annotation) in readers else value
            for key, value in obj.items()}


def _as_int(value, key: str) -> int:
    """``value`` of config key ``key`` as an int. JSON integers and integral
    numbers such as ``1e6`` pass; anything else is a ``ConfigError`` naming
    the key."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")


def _as_bool(value, key: str) -> bool:
    """``value`` of config key ``key`` as a bool. Only JSON ``true`` and
    ``false`` pass; anything else is a ``ConfigError`` naming the key."""
    if isinstance(value, bool):
        return value
    raise ConfigError(f"config key {key!r} must be true or false, got {value!r}")


def _as_list(value, key: str) -> list:
    """``value`` of config key ``key`` as a list. Only a JSON list passes;
    anything else, a single string included, is a ``ConfigError`` naming the
    key."""
    if isinstance(value, list):
        return value
    raise ConfigError(f"config key {key!r} must be a list, got {value!r}")


def _distinct(values, key: str):
    """``values`` of config key ``key`` if none repeats; otherwise a
    ``ConfigError`` naming the key."""
    if len(set(values)) < len(values):
        raise ConfigError(f"config key {key!r} must not repeat a value, got {list(values)!r}")
    return values


def _parse_range(value, key: str) -> tuple[int, ...]:
    """Accept 4, "4", "1..12", "1,2,3" or a JSON list, without repeats."""
    if isinstance(value, (list, tuple)):
        return _distinct(tuple(_as_int(x, key) for x in value), key)
    if isinstance(value, (int, float)):
        return (_as_int(value, key),)
    text = str(value).strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return tuple(range(int(lo), int(hi) + 1))
        values = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ConfigError(
            f"config key {key!r} must be a range such as 1..12 or 1,3,6, got {value!r}"
        ) from None
    return _distinct(values, key)


def _stats_row(series) -> dict:
    try:
        return dataclasses.asdict(analytics.perf_stats(series))
    except analytics.UndefinedStatError as exc:
        raise ConfigError(f"undefined statistics for {series.name!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# backtest


def _managed_panel(factors, market, pipe) -> panel.ReturnPanel:
    cols = []
    for asset in factors.assets:
        hedged = riskpipe.beta_hedge(factors.column(asset), market, pipe)
        cols.append(riskpipe.vol_normalize(hedged, pipe).values)
    return panel.ReturnPanel(factors.calendar, factors.assets, np.column_stack(cols))


def cmd_backtest(args, cfg: dict, /, *, factors, market, m: int, n: int,
                 pipeline: riskpipe.PipelineConfig, layout="wide", allow_missing: bool = False,
                 strategies_risk_managed: bool = True, menagerie_risk_managed: bool = True) -> int:
    header = _header(args, cfg)
    factors = panel.load_panel(_existing(factors, "factors"), layout, allow_missing)
    market = panel.load_series(_existing(market, "market"), allow_missing)
    panel.require_aligned(factors, market)

    managed = _managed_panel(factors, market, pipeline)

    def pnls():
        """Each column's key, raw PNL and whether it is vol-managed, in order."""
        yield "menagerie", riskpipe.menagerie(managed), menagerie_risk_managed
        for kind, weighting in (("ts", "sign"), ("xs", "rank")):
            for leg in momentum.LEGS:
                spec = momentum.StrategySpec(m, n, weighting, leg)
                key = kind if leg == "both" else f"{kind}_{leg}"
                yield key, momentum.strategy_pnl(managed, spec), strategies_risk_managed

    rows: dict[str, dict] = {}
    columns = []
    for key, series, risk_managed in pnls():
        if risk_managed:
            series = riskpipe.vol_normalize(series, pipeline)
        rows[key] = _stats_row(series)
        columns.append(series.values)

    pnl_panel = panel.ReturnPanel(factors.calendar, tuple(rows), np.column_stack(columns))
    panel.emit_csv(pnl_panel, _output(args, "pnl.csv"), header)
    _write_json(_output(args, "stats.json"), {**header, "m": m, "n": n, "rows": rows})
    for key, row in rows.items():
        print(f"{key:<12s} sharpe={row['sharpe_annual']:+.3f} t={row['t_stat']:+.2f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


# The sweep's statistics: CLI and file name -> ``momentum.grid_sweep`` name.
_SWEEP_STATS = {"sharpe": "sharpe", "corr": "corr", "residual": "residual_sharpe"}


def _weighting(value, key: str) -> str:
    """``value`` of config key ``key`` as a momentum weighting scheme."""
    if value not in momentum.WEIGHTINGS:
        raise ConfigError(
            f"config key {key!r} must be one of {momentum.WEIGHTINGS}, got {value!r}"
        )
    return value


def cmd_sweep(args, cfg: dict, /, *, factor_panel, pipeline: riskpipe.PipelineConfig,
              m="1..12", n="1..12", stats: list = ("sharpe",), direction="factor-on-stock",
              control_series: list = (), stock_panel=None, market=None, reference=None,
              layout="wide", allow_missing: bool = True, factor_weighting="sign",
              stock_weighting="rank", weighting=None, risk_managed: bool = False,
              menagerie_control: bool = True, market_control: bool = True,
              min_months: int = 24) -> int:
    m_values, n_values = _parse_range(m, "m"), _parse_range(n, "n")
    if direction not in ("factor-on-stock", "stock-on-factor"):
        raise ConfigError(f"unknown direction {direction!r}")
    if not stats:
        raise ConfigError("config key 'stats' must name at least one statistic")
    unknown = [s for s in stats if not isinstance(s, str) or s not in _SWEEP_STATS]
    if unknown:
        raise ConfigError(f"unknown statistics {unknown}")
    _distinct(stats, "stats")
    if args.out and len(stats) > 1:
        raise ConfigError(f"--out names one file, but {len(stats)} statistics were "
                          "requested; each is written as grid_<stat>.csv under --out-dir")
    factor_weighting = _weighting(factor_weighting, "factor_weighting")
    stock_weighting = _weighting(stock_weighting, "stock_weighting")
    cfg["m"], cfg["n"] = list(m_values), list(n_values)
    header = _header(args, cfg)

    factor_panel = panel.load_panel(_existing(factor_panel, "factor_panel"), layout,
                                    allow_missing)
    stock_panel = panel.load_panel(_existing(stock_panel, "stock_panel"), layout,
                                   allow_missing) if stock_panel else None
    market = panel.load_series(_existing(market, "market"), allow_missing,
                               name="market") if market else None
    fixed_controls = [panel.load_series(_existing(p, "control_series"), allow_missing)
                      for p in control_series]

    if direction == "factor-on-stock":
        target_panel, target_weighting = factor_panel, factor_weighting
        other_panel, other_weighting = stock_panel, stock_weighting
    else:
        if stock_panel is None:
            raise ConfigError("direction stock-on-factor needs a stock_panel")
        target_panel, target_weighting = stock_panel, stock_weighting
        other_panel, other_weighting = factor_panel, factor_weighting
    if weighting is not None:
        target_weighting = _weighting(weighting, "weighting")

    def pnl_grid(grid_panel, grid_weighting) -> dict:
        """The (m, n) PNL grid of ``grid_panel``; with ``risk_managed`` each
        cell is vol-normalized in place, so no second grid is held."""
        pnls = momentum.pnl_grid(grid_panel, m_values, n_values, grid_weighting)
        if risk_managed:
            for cell, pnl in pnls.items():
                pnls[cell] = riskpipe.vol_normalize(pnl, pipeline)
        return pnls

    control_grid = {}

    def other_momentum(m, n):
        """The same-(m, n) strategy on the other panel, from one grid per run."""
        if not control_grid:
            control_grid.update(pnl_grid(other_panel, other_weighting))
        return control_grid[m, n]

    def stat_inputs(stat) -> dict:
        """The ``grid_sweep`` keyword arguments statistic ``stat`` needs."""
        if stat == "corr":
            if reference:
                return {"reference": panel.load_series(_existing(reference, "reference"),
                                                       allow_missing)}
            if fixed_controls:
                return {"reference": fixed_controls[0]}
            if other_panel is None:
                raise ConfigError("stat 'corr' needs a stock_panel, reference or control_series")
            return {"reference": other_momentum}
        if stat == "residual":
            fixed = []
            if menagerie_control:
                fixed.append(riskpipe.menagerie(factor_panel))
            if market_control:
                if market is None:
                    raise ConfigError(
                        "stat 'residual' needs a market series (or market_control=false)"
                    )
                fixed.append(market)
            if fixed_controls:
                return {"controls": fixed_controls + fixed}
            if other_panel is None:
                raise ConfigError("stat 'residual' needs a stock_panel or control_series")
            return {"controls": lambda m, n: [other_momentum(m, n)] + fixed}
        return {}

    inputs = [(stat, stat_inputs(stat)) for stat in stats]
    target_grid = pnl_grid(target_panel, target_weighting)
    grids = [
        (stat, momentum.grid_sweep(target_grid, m_values, n_values, _SWEEP_STATS[stat],
                                   min_months=min_months, **kwargs))
        for stat, kwargs in inputs
    ]

    written = []
    for stat, grid in grids:
        path = _output(args, f"grid_{stat}.csv", args.out)
        panel.emit_csv(grid, path, {**header, "stat": grid.stat, "direction": direction})
        written.append(str(path))
    print("wrote " + ", ".join(written))
    return EXIT_OK


# ---------------------------------------------------------------------------
# span


def cmd_span(args, cfg: dict, /, *, target, controls: list) -> int:
    if not controls:
        raise ConfigError("config key 'controls' must name at least one control series")
    header = _header(args, cfg)

    target = panel.load_series(_existing(target, "target"), True)
    controls = [panel.load_series(_existing(p, "controls"), True) for p in controls]
    result = analytics.spanning_regression(target, controls)

    payload = {
        **header,
        "target": target.name,
        "betas": dict(zip(result.control_names, result.betas)),
        "intercept": result.intercept,
        "r_squared": result.r_squared,
        "residual_sharpe": result.residual_stats.sharpe_annual,
        "residual_t": result.residual_stats.t_stat,
        "n_months": result.residual_stats.n_months,
        "residual_includes_intercept": True,
    }
    _write_json(_output(args, "span.json", args.out), payload)
    print(
        f"residual sharpe={payload['residual_sharpe']:+.3f} "
        f"t={payload['residual_t']:+.2f} r2={payload['r_squared']:.3f}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate / verify


def _model_params(cfg: dict, params) -> model.ModelParams:
    """Parameters from ``params``: a JSON file path, an inline object, or
    ``None`` for the shipped set.

    Leaves the resolved parameters in ``cfg["params"]``, so the config hash
    covers the values, not a file name.
    """
    if isinstance(params, str):
        resolved = model.ModelParams.from_json(_existing(params, "params"))
    elif params is not None:
        resolved = model.ModelParams.from_dict(params)
    else:
        resolved = model.default_params()
    cfg["params"] = resolved.to_dict()
    return resolved


def _require_seed(args) -> int:
    if args.seed is None:
        raise ConfigError("a seed is mandatory for stochastic commands")
    return args.seed


def cmd_simulate(args, cfg: dict, /, *, params=None, T: int = 1200, burn_in: int = 500) -> int:
    seed = _require_seed(args)
    params = _model_params(cfg, params)
    cfg["T"], cfg["burn_in"] = T, burn_in
    header = _header(args, cfg)
    path = model.simulate(params, T, seed, burn_in)
    out = _output(args, "panel.csv", args.out)
    panel.emit_csv(path.panel, out, header)
    if args.factor_out:
        panel.emit_csv(path.factor, _output(args, "factor.csv", args.factor_out), header)
    print(f"wrote {out} ({T} months x {params.n} assets)")
    return EXIT_OK


def cmd_verify(args, cfg: dict, /, *, params=None, T: int = 1_000_000, k_max: int = 3,
               eq3=None) -> int:
    seed = _require_seed(args)
    params = _model_params(cfg, params)
    cfg["T"], cfg["k_max"], cfg["eq3"] = T, k_max, eq3
    if eq3 is not None:
        eq3 = _read_args(eq3, model.momentum_covariance_check, "eq3")
    header = _header(args, cfg)

    report = model.verify_model(params, seed=seed, T=T, k_max=k_max, eq3=eq3)
    for check in report.checks:
        status = "INFO" if check.passed is None else ("PASS" if check.passed else "FAIL")
        se = "" if check.se is None else f" se={check.se:.3g}"
        print(f"{status} {check.name}: lhs={check.lhs:.6g} rhs={check.rhs:.6g}{se}")

    out_path = _output(args, "verify.json", args.report)
    _write_json(out_path, {**header, "T": T, "k_max": k_max, **report.to_dict()})
    print(("all checks passed" if report.passed else "CHECKS FAILED") + f" -> {out_path}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# resample


def cmd_resample(args, cfg: dict, /, *, input, layout="wide",
                 allow_missing: bool = False) -> int:
    cfg["layout"], cfg["allow_missing"] = layout, allow_missing
    header = _header(args, cfg)
    daily = panel.load_panel(_existing(input, "input"), layout, allow_missing)
    monthly = panel.resample_monthly(daily)
    out = _output(args, "monthly.csv", args.out)
    panel.emit_csv(monthly, out, header)
    print(f"wrote {out} ({monthly.n_periods} months)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _add_pipeline_flags(sub):
    sub.add_argument(
        "--window", dest="window_months", type=int, help="rolling window length in months"
    )
    sub.add_argument(
        "--lag-vol", dest="lag_months", type=int, help="lag of rolling estimates in months"
    )
    sub.add_argument("--vol-target", type=float, help="monthly volatility target")
    sub.add_argument("--min-obs", type=int, help="minimum observations per window")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factormom",
        description="Factor and stock momentum research engine",
    )
    parser.add_argument("--config", help="JSON run configuration")
    parser.add_argument("--seed", type=int, help="seed for stochastic commands")
    parser.add_argument("--out-dir", default=".", help="output directory")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("backtest", help="risk pipeline + momentum strategies + stats")
    p.add_argument("--factors", help="factor panel CSV")
    p.add_argument("--market", help="market series CSV")
    p.add_argument("--m", type=int, help="signal lag in months")
    p.add_argument("--n", type=int, help="signal holding period in months")
    p.add_argument("--allow-missing", action="store_true", default=None,
                   help="read non-numeric CSV cells as missing markers")
    _add_pipeline_flags(p)
    p.set_defaults(handler=cmd_backtest)

    p = sub.add_parser("sweep", help="statistic grids over (m, n) strategies")
    p.add_argument("--input", dest="factor_panel", help="panel CSV to sweep")
    p.add_argument("--weighting", choices=momentum.WEIGHTINGS)
    p.add_argument("--m", help="lag range, e.g. 1..12")
    p.add_argument("--n", help="holding-period range, e.g. 1..12")
    p.add_argument("--stat", dest="stats", nargs=1, choices=tuple(_SWEEP_STATS))
    p.add_argument("--direction", choices=("factor-on-stock", "stock-on-factor"))
    p.add_argument("--control-series", nargs="+", help="fixed control series CSVs")
    p.add_argument("--out", help="output CSV (single-stat runs)")
    _add_pipeline_flags(p)
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("span", help="full-sample spanning regression")
    p.add_argument("--target", help="target PNL CSV")
    p.add_argument("--controls", nargs="+", help="control PNL CSVs")
    p.add_argument("--out", help="output JSON")
    p.set_defaults(handler=cmd_span)

    p = sub.add_parser("simulate", help="simulate the feedback-trading model")
    p.add_argument("--params", help="model parameter JSON")
    p.add_argument("--T", type=int, help="months to simulate")
    p.add_argument("--burn-in", type=int, help="start-up months to discard")
    p.add_argument("--out", help="output panel CSV")
    p.add_argument("--factor-out", help="also write the factor series CSV")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("verify", help="closed-form vs Monte Carlo check battery")
    p.add_argument("--params", help="model parameter JSON (default: shipped set)")
    p.add_argument("--T", type=int, help="path length for Monte Carlo checks")
    p.add_argument("--k-max", type=int, help="autocovariance orders to check")
    p.add_argument("--report", help="output JSON report")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("resample", help="compound a daily panel to monthly")
    p.add_argument("--input", help="daily panel CSV")
    p.add_argument("--out", help="output CSV")
    p.add_argument("--layout", choices=("wide", "long"), help="CSV layout (default: wide)")
    p.add_argument("--allow-missing", action="store_true", default=None)
    p.set_defaults(handler=cmd_resample)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        return args.handler(args, cfg, **_read_args(cfg, args.handler))
    except ValueError as exc:  # every input error the program raises is one
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
