import numpy as np
import pytest

from factormom.analytics import (
    AR1Params,
    NonStationaryError,
    RankDeficiencyError,
    UndefinedStatError,
    ar1_momentum_pnl,
    correlation,
    perf_stats,
    spanning_regression,
)
from factormom.model import simulate_ar1
from factormom.panel import AlignmentError, Calendar, NamedSeries


def series(values, name="x", start="1900-01"):
    values = np.asarray(values, float)
    return NamedSeries(Calendar.periods(len(values), start), name, values)


# ---------------------------------------------------------------------------
# perf stats


def test_alternating_returns_have_zero_sharpe():
    st = perf_stats(series([0.02, -0.02] * 30))
    assert st.sharpe_annual == 0.0
    assert st.t_stat == 0.0


def test_tstat_convention_on_long_sample():
    # Sharpe 0.96 over 51.3 years should give a t-stat near 6.86
    years = 51.3
    n = int(round(years * 12))
    sharpe = 0.96
    t = sharpe * np.sqrt(n / 12)
    assert abs(t - 6.86) < 0.05
    # and perf_stats applies exactly that convention
    rng = np.random.default_rng(1)
    x = rng.normal(0.01, 0.02, n)
    st = perf_stats(series(x))
    assert st.t_stat == pytest.approx(st.sharpe_annual * np.sqrt(n / 12))


def test_perf_stats_match_brute_force_moments():
    rng = np.random.default_rng(314)
    x = rng.normal(0.01, 0.02, 600)
    st = perf_stats(series(x))
    mean = sum(x) / len(x)
    var = sum((v - mean) ** 2 for v in x) / (len(x) - 1)
    assert abs(st.mean_monthly - mean) < 1e-12
    assert abs(st.vol_monthly - np.sqrt(var)) < 1e-12
    assert abs(st.sharpe_annual - mean / np.sqrt(var) * np.sqrt(12)) < 1e-12


def test_perf_stats_scale_invariance():
    rng = np.random.default_rng(7)
    x = rng.normal(0.005, 0.03, 240)
    a = perf_stats(series(x))
    b = perf_stats(series(250.0 * x))
    assert a.sharpe_annual == pytest.approx(b.sharpe_annual, rel=1e-12)
    assert a.t_stat == pytest.approx(b.t_stat, rel=1e-12)


# constants whose rounded mean leaves a spread of about 1e-18, not zero, and
# distinct values whose squared deviations underflow to zero
FLAT_SERIES = (np.full(60, 0.01), np.full(3, 0.1), np.full(1200, 0.3), [1e-200, 2e-200, 3e-200])


def test_perf_stats_error_cases():
    with pytest.raises(UndefinedStatError):
        perf_stats(series([0.01]))
    with pytest.raises(UndefinedStatError):
        perf_stats(series([0.01, 0.01]))  # zero volatility
    for flat in FLAT_SERIES:
        with pytest.raises(UndefinedStatError, match="^zero volatility, Sharpe undefined$"):
            perf_stats(series(flat))
    missing = series([np.nan, 0.01, np.nan, 0.02, 0.03])
    assert perf_stats(missing).n_months == 3


# ---------------------------------------------------------------------------
# correlation


def test_correlation_identities():
    rng = np.random.default_rng(3)
    x = series(rng.normal(0, 0.02, 120))
    assert correlation(x, x) == pytest.approx(1.0)
    neg = series(-x.values, "neg")
    assert correlation(x, neg) == pytest.approx(-1.0)


def test_correlation_affine_invariance_and_symmetry():
    rng = np.random.default_rng(4)
    x = series(rng.normal(0, 0.02, 200), "x")
    y = series(0.5 * x.values + rng.normal(0, 0.01, 200), "y")
    base = correlation(x, y)
    assert correlation(y, x) == pytest.approx(base, rel=1e-12)
    shifted = series(3.0 * y.values + 0.004, "y2")
    assert correlation(x, shifted) == pytest.approx(base, rel=1e-12)
    assert -1.0 <= base <= 1.0


def test_correlation_uses_overlap_only():
    x = series([0.01, 0.02, 0.03, np.nan], "x", start="2000-01")
    y = NamedSeries(
        Calendar(("2000-02", "2000-03", "2000-04", "2000-05")),
        "y",
        np.array([0.02, 0.03, 0.01, 0.02]),
    )
    # overlap 2000-02..2000-04, with x missing at 2000-04: two common points
    assert correlation(x, y) == pytest.approx(1.0)


def test_overlap_refuses_monthly_against_daily():
    monthly = series([0.01, 0.02, 0.03], "m", start="2000-01")
    daily = NamedSeries(
        Calendar(("2000-01-01", "2000-02-01", "2000-03-01")), "d", np.array([0.01, 0.02, 0.03])
    )
    # numpy would match 2000-01 with 2000-01-01; a monthly and a daily
    # calendar share no dates
    with pytest.raises(AlignmentError):
        correlation(monthly, daily)
    with pytest.raises(AlignmentError):
        spanning_regression(monthly, [daily])


def span_bytes(target, controls):
    res = spanning_regression(target, controls)
    dates = res.residuals.calendar.dates
    return (np.array(res.betas).tobytes(), res.intercept, res.r_squared,
            res.residuals.values.tobytes(), str(dates.dtype), dates.tobytes())


def test_equal_calendars_align_as_the_intersection_does():
    rng = np.random.default_rng(4)
    T = 240
    y, c1, c2 = (rng.normal(0.0, 0.02, T) for _ in range(3))
    y[:13] = np.nan  # a burn-in, as strategy PNLs have
    y[100] = np.nan
    cal = Calendar.periods(T)
    shared = [NamedSeries(cal, name, v) for name, v in (("y", y), ("c1", c1), ("c2", c2))]
    copies = [NamedSeries(Calendar.periods(T), s.name, s.values) for s in shared]
    # one control a month longer: the same overlap, reached by intersecting
    longer = NamedSeries(Calendar.periods(T + 1), "c2", np.append(c2, 0.05))
    extended = [*copies[:2], longer]
    assert copies[0].calendar is not cal and longer.calendar != cal
    expected = span_bytes(shared[0], shared[1:])
    corr = correlation(shared[0], shared[2])
    for case in (copies, extended):
        assert span_bytes(case[0], case[1:]) == expected
        assert correlation(case[0], case[2]) == corr


def test_shifted_calendar_of_equal_length_is_intersected():
    rng = np.random.default_rng(5)
    T = 120
    y, c = rng.normal(0.0, 0.02, T), rng.normal(0.0, 0.02, T)
    target, control = series(y, "y", "1900-01"), series(c, "c", "1900-02")
    res = spanning_regression(target, [control])
    assert res.residuals.calendar == Calendar.periods(T - 1, "1900-02")
    # 1900-02 onwards: y[1:] against c[:-1]
    target_cut, control_cut = series(y[1:], "y", "1900-02"), series(c[:-1], "c", "1900-02")
    assert span_bytes(target, [control]) == span_bytes(target_cut, [control_cut])
    assert correlation(target, control) == correlation(target_cut, control_cut)


def test_correlation_degenerate_cases():
    x = series([0.01, 0.01, 0.01], "x")
    y = series([0.02, 0.01, 0.03], "y")
    with pytest.raises(UndefinedStatError):
        correlation(x, y)
    short_a = series([0.01, np.nan], "a")
    short_b = series([np.nan, 0.02], "b")
    with pytest.raises(UndefinedStatError):
        correlation(short_a, short_b)
    for flat in map(series, FLAT_SERIES):
        noise = series(np.random.default_rng(5).normal(0.0, 0.02, len(flat.values)), "noise")
        for pair in ((flat, noise), (noise, flat)):
            with pytest.raises(UndefinedStatError, match="^degenerate variance"):
                correlation(*pair)


# ---------------------------------------------------------------------------
# spanning regression


def test_spanning_recovers_known_loading():
    rng = np.random.default_rng(10)
    n = 2400
    control = series(rng.normal(0, 0.02, n), "ctl")
    noise = rng.normal(0, 0.01, n)
    target = series(0.5 * control.values + noise, "tgt")
    res = spanning_regression(target, [control])
    # beta within 2 standard errors of 0.5
    se = 0.01 / (0.02 * np.sqrt(n))
    assert abs(res.betas[0] - 0.5) < 2 * se
    # residual uncorrelated with the control
    resid = res.residuals.values
    c = control.values
    cov = np.mean((resid - resid.mean()) * (c - c.mean()))
    assert abs(cov) < 1e-10
    # signal and noise variances are equal by construction, so r2 is near 1/2
    assert 0.4 < res.r_squared < 0.6


def test_spanning_residual_keeps_alpha():
    rng = np.random.default_rng(21)
    n = 1200
    control = series(rng.normal(0, 0.02, n), "ctl")
    alpha = 0.003
    target = series(alpha + 0.2 * control.values + rng.normal(0, 0.01, n), "tgt")
    res = spanning_regression(target, [control])
    assert res.residuals.values.mean() == pytest.approx(
        res.intercept, rel=1e-10
    )
    assert res.intercept == pytest.approx(alpha, abs=3 * 0.01 / np.sqrt(n))
    assert res.residual_stats.sharpe_annual > 0


def test_spanning_orthogonality_to_all_controls():
    rng = np.random.default_rng(33)
    n = 600
    controls = [series(rng.normal(0, 0.02, n), f"c{i}") for i in range(3)]
    target = series(
        0.3 * controls[0].values - 0.2 * controls[2].values + rng.normal(0, 0.01, n),
        "tgt",
    )
    res = spanning_regression(target, controls)
    resid = res.residuals.values
    for c in controls:
        cov = np.mean((resid - resid.mean()) * (c.values - c.values.mean()))
        assert abs(cov) < 1e-10


def test_independent_target_keeps_its_sharpe():
    rng = np.random.default_rng(55)
    n = 2400
    target = series(rng.normal(0.004, 0.02, n), "tgt")
    controls = [series(rng.normal(0, 0.02, n), f"c{i}") for i in range(2)]
    res = spanning_regression(target, controls)
    raw = perf_stats(target)
    se_sharpe = np.sqrt(12.0 / n) * np.sqrt(1 + 0.5 * (raw.sharpe_annual / np.sqrt(12)) ** 2)
    assert abs(res.residual_stats.sharpe_annual - raw.sharpe_annual) < 2 * se_sharpe * np.sqrt(12)


def test_exact_spanning_is_degenerate():
    rng = np.random.default_rng(8)
    control = series(rng.normal(0, 0.02, 100), "ctl")
    target = series(control.values.copy(), "tgt")
    with pytest.raises(UndefinedStatError):
        spanning_regression(target, [control])


def test_collinear_controls_are_named():
    rng = np.random.default_rng(9)
    base = rng.normal(0, 0.02, 200)
    c1 = series(base, "alpha_ctl")
    c2 = series(2.0 * base, "beta_ctl")
    target = series(rng.normal(0, 0.02, 200), "tgt")
    with pytest.raises(RankDeficiencyError, match="alpha_ctl.*beta_ctl"):
        spanning_regression(target, [c1, c2])


# a constant of 0.01 has a rounded mean, so its computed spread is not 0
@pytest.mark.parametrize("level", [0.5, 0.01])
@pytest.mark.parametrize("target, controls, error, message", [
    ("noise", [], ValueError, "^need at least one control series$"),
    ("noise", ["constant"], RankDeficiencyError,
     r"^collinear controls \(condition .* > 1e\+10\): \('flat', 'intercept'\)$"),
    ("noise", ["zero"], RankDeficiencyError,
     r"^degenerate regressor pair: \('nil', 'intercept'\)$"),
    ("constant", ["noise"], UndefinedStatError, "^target has zero variance$"),
])
def test_spanning_input_errors(level, target, controls, error, message):
    made = {"noise": series(np.random.default_rng(5).normal(0, 0.02, 60), "noise"),
            "constant": series(np.full(60, level), "flat"),
            "zero": series(np.zeros(60), "nil")}
    with pytest.raises(error, match=message):
        spanning_regression(made[target], [made[c] for c in controls])


def test_spanning_needs_enough_overlap():
    # one control needs at least three overlapping months
    target = series([0.01, 0.02], "t")
    control = series([0.02, 0.01], "c")
    with pytest.raises(UndefinedStatError):
        spanning_regression(target, [control])


# ---------------------------------------------------------------------------
# AR(1) momentum decomposition


def test_ar1_zero_persistence_pure_mechanical():
    p = AR1Params.from_sigma_f(rho=0.0, mu=0.5, sigma_f=1.0)
    out = ar1_momentum_pnl(p)
    assert out.unconditional == pytest.approx(0.25)
    # conditional PNL is mu * f when rho = 0
    assert out.conditional(2.0) == pytest.approx(1.0)


def test_ar1_zero_mean_case():
    p = AR1Params.from_sigma_f(rho=0.2, mu=0.0, sigma_f=1.0)
    assert ar1_momentum_pnl(p).unconditional == pytest.approx(0.2)


def test_ar1_combined_case_matches_monte_carlo():
    p = AR1Params.from_sigma_f(rho=0.2, mu=0.5, sigma_f=1.0)
    out = ar1_momentum_pnl(p)
    assert out.unconditional == pytest.approx(0.45)
    f = simulate_ar1(p, 2_000_000, seed=42)
    prods = f[1:] * f[:-1]
    est = prods.mean()
    se = prods.std(ddof=1) / np.sqrt(len(prods))
    assert abs(est - out.unconditional) < 3 * se


def test_ar1_unconditional_is_gauss_hermite_average_of_conditional():
    # E[conditional(f)] under the stationary normal law reproduces the
    # unconditional value; 20-node Gauss-Hermite is exact for quadratics
    for rho, mu in [(0.0, 0.5), (0.3, 0.2), (-0.4, 0.1), (0.6, 0.0)]:
        p = AR1Params.from_sigma_f(rho=rho, mu=mu, sigma_f=0.7)
        out = ar1_momentum_pnl(p)
        nodes, weights = np.polynomial.hermite.hermgauss(20)
        f = mu + np.sqrt(2.0) * p.sigma_f * nodes
        integral = float(weights @ out.conditional(f) / np.sqrt(np.pi))
        assert integral == pytest.approx(out.unconditional, rel=1e-12)


def test_ar1_rejects_nonstationary():
    with pytest.raises(NonStationaryError):
        AR1Params(rho=1.0, mu=0.0, sigma_u=1.0)


def test_ar1_rejects_non_finite_mean_and_noise():
    for mu, sigma_u, word, shown in ((np.nan, 1.0, "mu", "nan"), (0.0, np.inf, "sigma_u", "inf"),
                                     (0.0, np.nan, "sigma_u", "nan")):
        with pytest.raises(ValueError, match=f"^{word} must be a finite number, got {shown}$"):
            AR1Params(rho=0.5, mu=mu, sigma_u=sigma_u)
