import importlib.util
import json
import os
import pickle
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import factormom
from factormom import cli, model
from factormom.analytics import AR1Params, NonStationaryError
from factormom.model import (
    ModelParams,
    ParameterError,
    _ar1,
    _chol_psd,
    autocovariance_matrices,
    check_autocovariances,
    default_params,
    expected_factor_momentum,
    expected_stock_momentum,
    factor_moment_mc,
    momentum_covariance_check,
    reconstruction_check,
    sample_autocovariance,
    simulate,
    simulate_ar1,
    stock_moment_mc,
    verify_model,
)
from factormom.riskpipe import PipelineConfig


def make_params(n=5, alpha=0.3, rho=0.1, mu=0.0, sigma=None, seed=None, w=None):
    if sigma is None:
        sigma = np.eye(n)
    if w is None:
        w = np.ones(n) if seed is None else np.random.default_rng(seed).normal(0, 1, n)
    mu_vec = np.full(n, mu) if np.isscalar(mu) else np.asarray(mu, float)
    return ModelParams(alpha=alpha, w=w, mu=mu_vec, rho=rho, sigma=sigma)


def random_psd(n, seed):
    rng = np.random.default_rng(seed)
    b = rng.normal(0, 1, (n, n))
    return b @ b.T / n + 0.5 * np.eye(n)


# ---------------------------------------------------------------------------
# parameters


def test_w_normalization_makes_a_equal_alpha():
    p = make_params(n=4, alpha=0.37, w=np.array([3.0, -1.0, 2.0, 0.5]))
    assert p.a == pytest.approx(0.37, rel=1e-12)
    assert np.sqrt(p.w @ p.w) == pytest.approx(1.0, rel=1e-12)
    raw = ModelParams(0.2, np.array([1.0, 1.0]), np.zeros(2), 0.0, np.eye(2), normalize_w=False)
    assert raw.a == pytest.approx(0.4)


def exact_unit_w(n):
    # 0.6^2 + 0.8^2 = 1 exactly in floats, so a == alpha without rounding
    w = np.zeros(n)
    w[0], w[1] = 0.6, 0.8
    return w


def test_parameter_validation():
    with pytest.raises(NonStationaryError):
        make_params(alpha=1.2)
    with pytest.raises(NonStationaryError):
        ModelParams(1.0, exact_unit_w(3), np.zeros(3), 0.0, np.eye(3), normalize_w=False)
    with pytest.raises(ParameterError):
        make_params(alpha=-0.1)
    with pytest.raises(ParameterError):
        ModelParams(0.1, np.ones(2), np.zeros(3), 0.0, np.eye(2))
    bad_sigma = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
    with pytest.raises(ParameterError):
        ModelParams(0.1, np.ones(2), np.zeros(2), 0.0, bad_sigma)
    asym = np.array([[1.0, 0.5], [0.1, 1.0]])
    with pytest.raises(ParameterError):
        ModelParams(0.1, np.ones(2), np.zeros(2), 0.0, asym)
    good = {"alpha": 0.1, "w": np.ones(2), "mu": np.zeros(2), "rho": 0.0, "sigma": np.eye(2)}
    for name, bad, shown in (("alpha", np.nan, "nan"), ("rho", np.inf, "inf"),
                             ("w", [1.0, -np.inf], "-inf"), ("mu", [0.0, np.nan], "nan"),
                             ("sigma", np.diag([1.0, np.nan]), "nan")):
        message = f"^'{name}' must be a finite number, got {shown}$"
        with pytest.raises(ParameterError, match=message):
            ModelParams(**{**good, name: bad})


# a library caller's fields are read as strictly as a JSON file's
@pytest.mark.parametrize("field, bad, message", [
    ("rho", "0.1", "^'rho' must be a finite number, got '0.1'$"),
    ("w", ["1", "2"], "^'w' must be a finite number, got '1'$"),
    ("alpha", True, "^'alpha' must be a finite number, got True$"),
    ("alpha", "0.5", "^'alpha' must be a finite number, got '0.5'$"),
    ("mu", [0.0, False], "^'mu' must be a finite number, got False$"),
    ("sigma", [[1.0, 0.0], [0.0, "1"]], "^'sigma' must be a finite number, got '1'$"),
    ("normalize_w", "no", "^'normalize_w' must be true or false, got 'no'$"),
    ("normalize_w", 0, "^'normalize_w' must be true or false, got 0$"),
])
def test_params_read_their_own_fields(field, bad, message):
    good = {"alpha": 0.1, "w": [1, 1], "mu": [0, 0], "rho": 0, "sigma": [[1, 0], [0, 1]]}
    p = ModelParams(**good)
    assert (type(p.alpha), type(p.rho), p.w.dtype, p.sigma.dtype) == (float, float, float, float)
    with pytest.raises(ParameterError, match=message):
        ModelParams(**{**good, field: bad})


@pytest.mark.parametrize("change, message", [
    ({"w": np.array([])}, "^w must be a non-empty vector$"),
    ({"w": np.ones((2, 1))}, "^w must be a non-empty vector$"),
    ({"w": np.zeros(2)}, "^cannot normalize a zero w$"),
    ({"sigma": np.eye(3)}, r"^sigma must be 2x2, got \(3, 3\)$"),
    ({"sigma": np.ones(2)}, r"^sigma must be 2x2, got \(2,\)$"),
])
def test_params_refuse_wrong_shapes(change, message):
    good = {"alpha": 0.1, "w": np.ones(2), "mu": np.zeros(2), "rho": 0.0, "sigma": np.eye(2)}
    with pytest.raises(ParameterError, match=message):
        ModelParams(**{**good, **change})


def test_params_json_round_trip(tmp_path):
    p = make_params(n=3, alpha=0.25, rho=0.15, mu=0.001, sigma=random_psd(3, 1))
    path = tmp_path / "params.json"
    path.write_text(json.dumps(p.to_dict()))
    q = ModelParams.from_json(path)
    assert q.alpha == p.alpha and q.rho == p.rho
    np.testing.assert_allclose(q.w, p.w, rtol=1e-15)
    np.testing.assert_allclose(q.sigma, p.sigma, rtol=1e-15)

    diag_spec = {"N": 2, "alpha": 0.1, "w": [1, 1], "mu": [0, 0], "rho": 0.0,
                 "sigma": {"diag": [2.0, 3.0]}}
    d = ModelParams.from_dict(diag_spec)
    np.testing.assert_array_equal(d.sigma, np.diag([2.0, 3.0]))
    with pytest.raises(ParameterError):
        ModelParams.from_dict({**diag_spec, "sigma": {}})
    with pytest.raises(ParameterError):
        ModelParams.from_dict({**diag_spec, "N": 5})


def test_derived_quantities():
    p = make_params(n=2, alpha=0.5, rho=0.2, mu=np.array([0.01, 0.03]),
                    w=np.array([1.0, 1.0]))
    # normalized w = (1/sqrt2, 1/sqrt2): drift = 0.04/sqrt2, mean amplified
    assert p.factor_drift == pytest.approx(0.04 / np.sqrt(2))
    assert p.factor_mean == pytest.approx(p.factor_drift / 0.5)
    mean_r = p.mean_returns
    expected = p.mu + p.alpha * p.factor_drift / 0.5 * p.w
    np.testing.assert_allclose(mean_r, expected, rtol=1e-12)


# ---------------------------------------------------------------------------
# simulation


def fixed_order_dot(values, w):
    """values @ w summed left to right over the columns, the one fixed order
    that makes simulated paths independent of BLAS."""
    out = values[:, 0] * w[0]
    for j in range(1, len(w)):
        out += values[:, j] * w[j]
    return out


def test_same_seed_gives_bit_identical_paths():
    p = make_params()
    a = simulate(p, 500, seed=123)
    b = simulate(p, 500, seed=123)
    np.testing.assert_array_equal(a.panel.values, b.panel.values)
    c = simulate(p, 500, seed=124)
    assert not np.array_equal(a.panel.values, c.panel.values)


def test_factor_series_equals_w_dot_returns_exactly():
    p = make_params(n=6, alpha=0.4, rho=0.2, seed=3)
    path = simulate(p, 1000, seed=5)
    np.testing.assert_array_equal(path.factor.values, fixed_order_dot(path.panel.values, p.w))


@pytest.mark.parametrize("length", [1, 2, 100_000])
@pytest.mark.parametrize("coef", [0.0, 0.6, -0.37, 0.999])
def test_ar1_matches_lfilter_bit_for_bit(coef, length):
    signal = pytest.importorskip("scipy.signal")
    x = np.random.default_rng(length).standard_normal(length)
    for init in (0.0, 1.7):
        ref = signal.lfilter([1.0], [1.0, -coef], x, zi=np.array([coef * init]))[0]
        assert _ar1(x, coef, init).tobytes() == ref.tobytes()


def test_simulators_match_lfilter_formulas_bit_for_bit():
    signal = pytest.importorskip("scipy.signal")
    p = make_params(n=4, alpha=0.5, rho=0.2, mu=0.01, sigma=random_psd(4, 2), seed=7)
    e = np.random.default_rng(11).standard_normal((3000, 4)) @ np.linalg.cholesky(p.sigma).T
    eps = e.copy()
    eps[1:] -= p.rho * e[:-1]
    x = fixed_order_dot(eps, p.w) + p.factor_drift
    s = signal.lfilter([1.0], [1.0, -p.a], x, zi=np.array([p.a * p.factor_mean]))[0]
    s_prev = np.concatenate(([p.factor_mean], s[:-1]))
    r, e_sim = streamed_raw(p, 3000, seed=11)
    assert e_sim.tobytes() == e.tobytes()
    assert r.tobytes() == (eps + p.mu + np.outer(s_prev, p.alpha * p.w)).tobytes()

    q = AR1Params.from_sigma_f(rho=0.4, mu=0.2, sigma_f=1.0)
    u = q.sigma_u * np.random.default_rng(80).standard_normal(100 + 3000)
    x = (1.0 - q.rho) * q.mu + u
    f = signal.lfilter([1.0], [1.0, -q.rho], x, zi=np.array([q.rho * q.mu]))[0]
    assert simulate_ar1(q, 3000, seed=80).tobytes() == f[100:].tobytes()


def streamed_raw(p, length, seed):
    """(r, e) of a path, gathered from the kernel's block stream."""
    r, e = np.empty((length, p.n)), np.empty((length, p.n))
    for start, stop, rows, e_block in model._path_blocks(p, length, seed, innovations=True):
        r[start:stop], e[start:stop] = rows, e_block
    return r, e


def whole_array_raw(p, length, seed):
    """The one-shot simulation formulas the blocked kernel reproduces."""
    e = np.random.default_rng(seed).standard_normal((length, p.n)) @ _chol_psd(p.sigma).T
    eps = e.copy()
    if p.rho != 0.0:
        eps[1:] -= p.rho * e[:-1]
    x = fixed_order_dot(eps, p.w) + p.factor_drift
    s_prev = np.concatenate(([p.factor_mean], _ar1(x, p.a, p.factor_mean)[:-1]))
    r = eps
    r += p.mu
    r += np.outer(s_prev, p.alpha * p.w)
    return r, e


BLOCK_EDGE_PARAMS = {
    "rho=0": make_params(n=3, alpha=0.45, rho=0.0, mu=0.02, seed=4),
    "rho!=0": make_params(n=3, alpha=0.3, rho=-0.25, mu=[0.01, 0.0, -0.03],
                          sigma=random_psd(3, 5), seed=6),
    # diagonal: a diagonal root's bits through the one matrix-product draw
    "diagonal": make_params(n=3, alpha=0.4, rho=0.15, sigma=np.diag([0.5, 2.0, 3.0]), seed=7),
    # twenty assets: the root's gemm runs on sub-blocks of 655 rows
    "dense 20": make_params(n=20, alpha=0.3, rho=0.1, mu=0.01, sigma=random_psd(20, 3), seed=2),
    # exactly singular: Cholesky fails and the eigh square root is used
    "singular": make_params(n=3, alpha=0.5, rho=0.2, sigma=np.array(
        [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]]), seed=8),
}


# block 1 runs as 2-row blocks: model._row_blocks never makes a one-row block
@pytest.mark.parametrize("block", [1, 7, 64, 1 << 16])
@pytest.mark.parametrize("case", sorted(BLOCK_EDGE_PARAMS))
def test_simulation_blocks_bit_identical_to_whole_array(monkeypatch, case, block):
    p = BLOCK_EDGE_PARAMS[case]
    if case == "singular":
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(p.sigma)
    monkeypatch.setattr(model, "_BLOCK_ROWS", block)
    for length in sorted({1, 2, block - 1, block, block + 1, 2 * block + 3} - {0}):
        ref_r, ref_e = whole_array_raw(p, length, seed=length)
        r, e = streamed_raw(p, length, seed=length)
        assert r.tobytes() == ref_r.tobytes(), length
        assert e.tobytes() == ref_e.tobytes(), length
        if length > 1:  # the same total length, one row of burn-in
            path = simulate(p, length - 1, seed=length, burn_in=1)
            assert path.panel.values.tobytes() == ref_r[1:].tobytes(), length
            ref_f = fixed_order_dot(ref_r[1:], p.w)
            assert path.factor.values.tobytes() == ref_f.tobytes(), length


# up to 64 assets the gemm runs on sub-blocks of 2**18 multiply-adds, at
# least 64 rows; past them one gemm takes the whole block
@pytest.mark.parametrize("n, rows", [(3, 29_127), (20, 655), (64, 64), (65, 4097), (130, 4097)])
def test_root_map_is_the_whole_block_product(monkeypatch, n, rows):
    sigma = random_psd(n, n)
    z = np.random.default_rng(n).standard_normal((4097, n))
    want = z @ _chol_psd(sigma).T
    steps, row_blocks = [], model._row_blocks

    def spied(start, stop, step=None):
        steps.append(step)
        return row_blocks(start, stop, step)

    monkeypatch.setattr(model, "_row_blocks", spied)
    model._root_map(sigma)(z)
    assert z.tobytes() == want.tobytes()
    assert steps == [rows]


@pytest.mark.parametrize("block", [1, 5, 17, None])
@pytest.mark.parametrize("burn_in", [0, 3, 500])
def test_factor_taken_in_the_simulation_pass_is_the_panel_projection(monkeypatch, block,
                                                                     burn_in):
    # the factor is projected block by block while the path is drawn; a
    # burn-in that ends inside a block must not move a bit
    if block is not None:
        monkeypatch.setattr(model, "_BLOCK_ROWS", block)
    p = BLOCK_EDGE_PARAMS["rho!=0"]
    T = 41 if block is not None else 2 * model._BLOCK_ROWS + 7
    path = simulate(p, T, seed=burn_in + 1, burn_in=burn_in)
    want = model._project(path.panel.values, p.w)
    assert path.factor.values.tobytes() == want.tobytes()
    assert not path.factor.values.flags.writeable


THREAD_PROBE = """
import hashlib
import numpy as np
from factormom.model import _path_blocks, default_params, simulate
p = default_params()
r, e = np.empty((65_537, p.n)), np.empty((65_537, p.n))
for start, stop, rows, block in _path_blocks(p, len(r), 5, innovations=True):
    r[start:stop], e[start:stop] = rows, block
f = simulate(p, 65_537, 5).factor.values
print(*(hashlib.sha256(a.tobytes()).hexdigest() for a in (r, e, f)))
"""


def test_simulated_bits_do_not_depend_on_blas_threads():
    src = str(Path(factormom.__file__).resolve().parents[1])
    digests = [
        subprocess.run(
            [sys.executable, "-c", THREAD_PROBE],
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
        for threads in ("1", "2")
    ]
    assert len(digests[0]) == 3
    assert digests[0] == digests[1]


def test_verify_report_does_not_depend_on_blas_threads(tmp_path):
    src = str(Path(factormom.__file__).resolve().parents[1])
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        run = subprocess.run(
            [sys.executable, "-m", "factormom", "--seed", "3", "--out-dir", str(out),
             "verify", "--T", "20000"],
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True,
            text=True,
        )
        assert run.returncode in (0, 1), run.stderr  # 1: a check failed, still reported
        reports.append((out / "verify.json").read_bytes())
    assert b'"checks"' in reports[0]
    assert reports[0] == reports[1]


def test_simulated_panel_is_a_read_only_view_of_one_array():
    path = simulate(make_params(), 50, seed=1, burn_in=7)
    values = path.panel.values
    assert not values.flags.writeable
    assert values.base is not None and values.base.shape == (57, 5)


def test_importing_the_cli_loads_no_scipy():
    src = str(Path(factormom.__file__).resolve().parents[1])
    probe = "import sys, factormom.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_importing_the_cli_loads_no_openssl():
    # the config hash takes the interpreter's built-in SHA-256 where it has one
    if not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        pytest.skip("this interpreter has no built-in SHA-256 module")
    src = str(Path(factormom.__file__).resolve().parents[1])
    probe = "import sys, factormom.cli; print('_hashlib' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_pure_noise_limit_has_no_autocovariance():
    p = make_params(n=3, alpha=0.0, rho=0.0, mu=0.0)
    path = simulate(p, 200_000, seed=11)
    est, se = sample_autocovariance(path.panel.values, 1)
    assert np.all(np.abs(est) <= 3 * se)


def test_ma1_limit_matches_minus_rho_sigma():
    sigma = random_psd(3, 7)
    p = make_params(n=3, alpha=0.0, rho=0.3, sigma=sigma)
    path = simulate(p, 400_000, seed=17)
    est, se = sample_autocovariance(path.panel.values, 1)
    assert np.all(np.abs(est - (-0.3 * sigma)) <= 3 * se)
    est2, se2 = sample_autocovariance(path.panel.values, 2)
    assert np.all(np.abs(est2) <= 3 * se2)


# ---------------------------------------------------------------------------
# closed-form autocovariances


def test_omega_collapses_without_feedback():
    sigma = random_psd(4, 2)
    p = make_params(n=4, alpha=0.0, rho=0.25, sigma=sigma)
    oms = autocovariance_matrices(p, 3)
    np.testing.assert_allclose(oms.omega(1), -0.25 * sigma, rtol=1e-14)
    np.testing.assert_allclose(oms.omega(2), np.zeros((4, 4)), atol=1e-16)
    np.testing.assert_allclose(oms.omega(3), np.zeros((4, 4)), atol=1e-16)


def test_omega_matches_monte_carlo_generic_params():
    # the module's central consistency requirement, on three regimes
    cases = [
        (make_params(n=5, alpha=0.3, rho=0.1, sigma=random_psd(5, 3), seed=4), 21),
        (make_params(n=4, alpha=0.5, rho=0.0, sigma=random_psd(4, 5), seed=6), 2),
        (make_params(n=3, alpha=0.2, rho=0.4, mu=0.002, sigma=random_psd(3, 8), seed=9), 3),
    ]
    for params, seed in cases:
        path = simulate(params, 400_000, seed=seed)
        checks = check_autocovariances(params, path.panel.values, 3)
        assert all(c.passed for c in checks), [
            (c.name, c.lhs, c.rhs, c.se) for c in checks if not c.passed
        ]


def test_omega_decays_geometrically_at_rate_a():
    p = make_params(n=4, alpha=0.6, rho=0.2, sigma=random_psd(4, 12), seed=13)
    oms = autocovariance_matrices(p, 5)
    for k in range(2, 5):
        np.testing.assert_allclose(
            oms.omega(k + 1), p.a * oms.omega(k), rtol=1e-12, atol=1e-18
        )


# ---------------------------------------------------------------------------
# factor momentum moments


def test_factor_momentum_exact_value_and_dual_oracle():
    p = make_params(n=5, alpha=0.3, rho=0.1, mu=0.0)
    assert p.factor_variance == pytest.approx(1.0)
    mom = expected_factor_momentum(p, 1)
    assert mom.momentum_term == pytest.approx(0.2 * 0.97 / 0.91, rel=1e-14)
    assert mom.mean_term == 0.0
    # route 1: w' Omega_1 w
    oms = autocovariance_matrices(p, 6)
    assert float(p.w @ oms.omega(1) @ p.w) == pytest.approx(
        mom.momentum_term, rel=1e-12
    )
    # route 2: Monte Carlo
    path = simulate(p, 600_000, seed=29)
    mc, se = factor_moment_mc(path.factor.values, 1)
    assert abs(mc - mom.total) <= 3 * se


def test_factor_momentum_boundary_a_equals_rho():
    p = make_params(n=3, alpha=0.2, rho=0.2, mu=0.01, w=exact_unit_w(3))
    assert p.a == 0.2  # exact, so the boundary is exact
    for k in range(1, 7):
        mom = expected_factor_momentum(p, k)
        assert mom.momentum_term == 0.0
        assert mom.total == pytest.approx(p.factor_mean**2)


def test_momentum_sign_follows_a_minus_rho():
    for alpha, rho in [(0.5, 0.1), (0.1, 0.5), (0.3, 0.3), (0.8, 0.0)]:
        p = make_params(n=3, alpha=alpha, rho=rho, w=exact_unit_w(3))
        for k in range(1, 13):
            term = expected_factor_momentum(p, k).momentum_term
            assert np.sign(term) == np.sign(alpha - rho)
    # without feedback the term dies after one lag: only k=1 carries -rho V
    p = make_params(n=3, alpha=0.0, rho=0.2, w=exact_unit_w(3))
    assert expected_factor_momentum(p, 1).momentum_term < 0
    for k in range(2, 13):
        assert expected_factor_momentum(p, k).momentum_term == 0.0


def test_momentum_decay_is_exactly_geometric():
    p = make_params(n=4, alpha=0.55, rho=0.15, sigma=random_psd(4, 20), seed=21)
    for k in range(1, 12):
        lhs = expected_factor_momentum(p, k + 1).momentum_term
        rhs = p.a * expected_factor_momentum(p, k).momentum_term
        assert lhs == pytest.approx(rhs, rel=1e-13)


def test_factor_momentum_with_drift_matches_monte_carlo():
    # nonzero mu and a > 0: the mean term is the squared unconditional
    # factor mean, amplified by 1 / (1 - a) relative to the raw drift
    p = make_params(n=4, alpha=0.4, rho=0.1, mu=0.005, seed=2)
    assert p.factor_mean != pytest.approx(p.factor_drift)
    path = simulate(p, 600_000, seed=31)
    for k in (1, 2):
        mom = expected_factor_momentum(p, k)
        mc, se = factor_moment_mc(path.factor.values, k)
        assert abs(mc - mom.total) <= 3 * se


# ---------------------------------------------------------------------------
# stock momentum moments


def test_stock_momentum_no_feedback_limit():
    sigma = random_psd(4, 30)
    p = make_params(n=4, alpha=0.0, rho=0.2, mu=0.0, sigma=sigma)
    sm = expected_stock_momentum(p, 1)
    assert sm.total == pytest.approx(-0.2 * np.trace(sigma), rel=1e-12)
    assert sm.total < 0


def test_stock_momentum_reduced_equals_trace_for_all_k():
    for params in [
        make_params(n=5, alpha=0.3, rho=0.1, sigma=random_psd(5, 33), seed=34),
        make_params(n=3, alpha=0.7, rho=0.4, sigma=random_psd(3, 35), seed=36),
        make_params(n=2, alpha=0.0, rho=0.3, sigma=random_psd(2, 37)),
    ]:
        for k in range(1, 7):
            sm = expected_stock_momentum(params, k)
            assert sm.reduced_term == pytest.approx(sm.trace_term, rel=1e-12, abs=1e-15)


def test_stock_momentum_matches_monte_carlo():
    p = make_params(n=5, alpha=0.3, rho=0.1, sigma=random_psd(5, 40), seed=41)
    path = simulate(p, 600_000, seed=43)
    for k in (1, 2, 3):
        sm = expected_stock_momentum(p, k)
        mc, se = stock_moment_mc(path.panel.values, k)
        assert abs(mc - sm.total) <= 3 * se


def test_coexistence_of_reversal_and_factor_momentum():
    p = default_params()  # N=20, sigma=I, a=0.6, rho=0.1
    k1 = expected_stock_momentum(p, 1)
    assert k1.total < 0  # rho tr(Sigma) dominates
    for k in range(1, 13):
        assert expected_factor_momentum(p, k).momentum_term > 0
    for k in range(2, 5):
        assert expected_stock_momentum(p, k).total > float(p.mu @ p.mu)


# ---------------------------------------------------------------------------
# return solution reconstruction


def test_reconstruction_exact_without_feedback():
    p = make_params(n=3, alpha=0.0, rho=0.3, mu=0.001, sigma=random_psd(3, 50))
    check = reconstruction_check(p, T=20_000, seed=51, depth=50)
    assert check.max_deviation <= 1e-12


def test_reconstruction_within_tail_bound():
    for alpha in (0.3, 0.8):
        p = make_params(n=4, alpha=alpha, rho=0.1, sigma=random_psd(4, 52), seed=53)
        check = reconstruction_check(p, T=50_000, seed=54, depth=200)
        assert check.max_deviation <= check.tail_bound
        assert check.max_deviation < 1e-10


def test_reconstruction_refuses_a_path_shorter_than_its_depth():
    with pytest.raises(ParameterError, match="leaves no rows past depth 200"):
        reconstruction_check(make_params(), T=150, seed=1, burn_in=0)


@pytest.mark.parametrize("kwargs, message", [
    ({"T": 0}, "^T must be >= 1$"),
    ({"T": -600}, "^T must be >= 1$"),
    ({"burn_in": -5}, "^burn_in must be >= 0$"),
    ({"T": 200, "burn_in": 0}, "leaves no rows past depth 200"),
    ({"depth": 1}, "^depth must be >= 2$"),
])
def test_reconstruction_checks_arguments_before_simulating(monkeypatch, kwargs, message):
    monkeypatch.setattr(model, "_path_blocks", None)
    with pytest.raises(ParameterError, match=message):
        reconstruction_check(make_params(), **{"seed": 1, **kwargs})


SIMULATORS = {
    "simulate": lambda **kw: simulate(make_params(), **kw),
    "simulate_ar1": lambda **kw: simulate_ar1(AR1Params(0.5, 0.0, 1.0), **kw),
    "reconstruction_check": lambda **kw: reconstruction_check(make_params(), **kw),
    "momentum_covariance_check": lambda **kw: momentum_covariance_check(
        np.ones(2), AR1Params(0.0, 0.0, 1.0), 1.0, 1, 2, n_batches=2, **kw),
}


@pytest.mark.parametrize("simulator", SIMULATORS)
@pytest.mark.parametrize("kwargs, message", [
    ({"T": 0}, "^T must be >= 1$"),
    ({"T": -5}, "^T must be >= 1$"),
    ({"T": 10, "burn_in": -3}, "^burn_in must be >= 0$"),
], ids=["T=0", "T=-5", "burn_in=-3"])
def test_simulators_check_path_length_before_simulating(monkeypatch, simulator, kwargs,
                                                        message):
    monkeypatch.setattr(model, "_path_blocks", None)
    monkeypatch.setattr(model, "_ar1", None)
    with pytest.raises(ParameterError, match=message):
        SIMULATORS[simulator](**{"seed": 1, **kwargs})


@pytest.mark.parametrize("call, shape", [
    (lambda: simulate(make_params(), 10**15, seed=1), r"\(1000000000000500, 5\)"),
    # the tape: one carry of N + 1 floats for each of 244,140,625,001 blocks
    (lambda: verify_model(make_params(), seed=1, T=10**15), r"\(244140625001, 6\)"),
    (lambda: model._simulated_moments(make_params(n=1), 10**15, 1, 3),
     r"\(1000000000000000, 1\)"),
    (lambda: simulate_ar1(AR1Params(0.5, 0.0, 1.0), 10**15, seed=1), r"\(1000000000000100,\)"),
    (lambda: momentum_covariance_check(np.ones(2), AR1Params(0.5, 0.0, 1.0), 1.0, 1, 2,
                                       10**15, seed=1), r"\(1000000000000103,\)"),
], ids=["simulate", "verify", "one-asset moments", "simulate_ar1", "momentum_covariance_check"])
def test_a_path_memory_cannot_hold_is_an_input_error(call, shape):
    # numpy refuses a terabyte array at once, before any page is touched
    with pytest.raises(ParameterError, match=r"^'T' is too large: a path array of shape "
                       rf"{shape} needs \d+ bytes"):
        call()


def _cov_check(**kw):
    args = {"beta": np.ones(2), "factor": AR1Params(0.5, 0.0, 1.0), "idio_vol": 1.0,
            "m": 1, "n": 2, "T": 200, "burn_in": 10, "n_batches": 4, **kw}
    return momentum_covariance_check(seed=1, **args)


_X = np.random.default_rng(4).standard_normal((300, 3))

# Every integer argument of the model, its name in messages, a valid value
# and a call that sets it. The lags and counts are read by one rule.
MODEL_INTEGERS = {
    "simulate.T": ("T", 24, lambda v: simulate(make_params(), v, seed=1, burn_in=5)),
    "simulate.burn_in": ("burn_in", 5, lambda v: simulate(make_params(), 24, 1, v)),
    "simulate_ar1.T": ("T", 24, lambda v: simulate_ar1(AR1Params(0.5, 0.0, 1.0), v, 1)),
    "simulate_ar1.burn_in": ("burn_in", 5, lambda v: simulate_ar1(
        AR1Params(0.5, 0.0, 1.0), 24, 1, burn_in=v)),
    "reconstruction_check.T": ("T", 300, lambda v: reconstruction_check(
        make_params(), T=v, seed=1, depth=20, burn_in=30)),
    "reconstruction_check.burn_in": ("burn_in", 30, lambda v: reconstruction_check(
        make_params(), T=300, seed=1, depth=20, burn_in=v)),
    "reconstruction_check.depth": ("depth", 20, lambda v: reconstruction_check(
        make_params(), T=300, seed=1, depth=v, burn_in=30)),
    "momentum_covariance_check.m": ("m", 1, lambda v: _cov_check(m=v)),
    "momentum_covariance_check.n": ("n", 2, lambda v: _cov_check(n=v)),
    "momentum_covariance_check.T": ("T", 200, lambda v: _cov_check(T=v)),
    "momentum_covariance_check.burn_in": ("burn_in", 10, lambda v: _cov_check(burn_in=v)),
    "momentum_covariance_check.n_batches": ("n_batches", 4, lambda v: _cov_check(n_batches=v)),
    "verify_model.T": ("T", 2000, lambda v: verify_model(default_params(), 1, T=v)),
    "verify_model.k_max": ("k_max", 2, lambda v: verify_model(default_params(), 1, 2000, v)),
    "autocovariance_matrices.k_max": ("k_max", 3, lambda v: autocovariance_matrices(
        default_params(), v)),
    "AutocovarianceSet.omega.k": ("k", 2, lambda v: autocovariance_matrices(
        default_params(), 3).omega(v)),
    "expected_factor_momentum.k": ("k", 2, lambda v: expected_factor_momentum(
        default_params(), v)),
    "expected_stock_momentum.k": ("k", 2, lambda v: expected_stock_momentum(
        default_params(), v)),
    "sample_autocovariance.k": ("lag k", 2, lambda v: sample_autocovariance(_X, [1, v], 5)),
    "sample_autocovariance.n_batches": ("n_batches", 5, lambda v: sample_autocovariance(
        _X, 2, v)),
    "stock_moment_mc.k": ("lag k", 2, lambda v: stock_moment_mc(_X, v, 5)),
    "stock_moment_mc.n_batches": ("n_batches", 5, lambda v: stock_moment_mc(_X, 2, v)),
    "factor_moment_mc.k": ("lag k", 2, lambda v: factor_moment_mc(_X[:, 0], v, 5)),
    "factor_moment_mc.n_batches": ("n_batches", 5, lambda v: factor_moment_mc(
        _X[:, 0], [2], v)),
}


@pytest.mark.parametrize("case", MODEL_INTEGERS)
@pytest.mark.parametrize("bad", [1.5, np.float64(2.0), "2"], ids=["1.5", "float64", "str"])
def test_integer_arguments_refuse_non_integers_before_simulating(monkeypatch, case, bad):
    for name in ("_path_blocks", "_ar1", "_walk_runs", "simulate_ar1", "simulate",
                 "reconstruction_check"):
        monkeypatch.setattr(model, name, None)
    what, _, call = MODEL_INTEGERS[case]
    with pytest.raises(ParameterError, match=f"^{what} must be an integer, got "
                       f"{re.escape(repr(bad))}$"):
        call(bad)


@pytest.mark.parametrize("case", MODEL_INTEGERS)
def test_integer_arguments_read_numpy_integers_as_ints(case):
    _, good, call = MODEL_INTEGERS[case]
    assert pickle.dumps(call(np.int64(good))) == pickle.dumps(call(good))


def _params(**change):
    # w'w = 0.5 unnormalized, so alpha = 1 is still stationary
    good = {"alpha": 0.1, "w": [0.5, 0.5], "mu": [0.0, 0.0], "rho": 0.1,
            "sigma": [[1.0, 0.0], [0.0, 1.0]], "normalize_w": False}
    return ModelParams(**{**good, **change})


_HALF_ONE = (np.float64(0.5), np.int64(1))
_HALF_ZERO = (np.float64(0.5), np.int64(0))  # an AR(1) coefficient must stay below 1

# Every real parameter of the library, its name in messages, its error class,
# numpy scalars it admits and a call that sets it. All are read by one rule.
NUMBER_READERS = {
    "ModelParams.alpha": ("'alpha'", ParameterError, _HALF_ONE, lambda v: _params(alpha=v)),
    "ModelParams.rho": ("'rho'", ParameterError, _HALF_ONE, lambda v: _params(rho=v)),
    "ModelParams.w": ("'w'", ParameterError, _HALF_ONE, lambda v: _params(w=[v, 0.5])),
    "ModelParams.mu": ("'mu'", ParameterError, _HALF_ONE, lambda v: _params(mu=[v, 0.0])),
    "ModelParams.sigma": ("'sigma'", ParameterError, _HALF_ONE, lambda v: _params(
        sigma=[[v, 0.0], [0.0, 1.0]])),
    "from_dict.N": ("'N'", ParameterError, (np.float64(2.0), np.int64(2)),
                    lambda v: ModelParams.from_dict({
                        "N": v, "alpha": 0.1, "w": [1, 1], "mu": [0, 0], "rho": 0.1,
                        "sigma": {"diag": [1, 1]}})),
    "AR1Params.rho": ("rho", ValueError, _HALF_ZERO, lambda v: AR1Params(v, 0.0, 1.0)),
    "AR1Params.mu": ("mu", ValueError, _HALF_ONE, lambda v: AR1Params(0.5, v, 1.0)),
    "AR1Params.sigma_u": ("sigma_u", ValueError, _HALF_ONE, lambda v: AR1Params(0.5, 0.0, v)),
    "from_sigma_f.rho": ("rho", ValueError, _HALF_ZERO,
                         lambda v: AR1Params.from_sigma_f(v, 0.0, 1.0)),
    "from_sigma_f.mu": ("mu", ValueError, _HALF_ONE,
                        lambda v: AR1Params.from_sigma_f(0.5, v, 1.0)),
    "from_sigma_f.sigma_f": ("sigma_f", ValueError, _HALF_ONE,
                             lambda v: AR1Params.from_sigma_f(0.5, 0.0, v)),
    "PipelineConfig.vol_target": ("vol_target", ValueError, _HALF_ONE,
                                  lambda v: PipelineConfig(vol_target=v)),
    "momentum_covariance_check.beta": ("'beta'", ParameterError, _HALF_ONE,
                                       lambda v: _cov_check(beta=[v, 1.0])),
    "momentum_covariance_check.idio_vol": ("'idio_vol'", ParameterError, _HALF_ONE,
                                           lambda v: _cov_check(idio_vol=v)),
}


@pytest.mark.parametrize("case", NUMBER_READERS)
@pytest.mark.parametrize("bad", ["0.1", True, float("nan"), float("inf"), 10**400],
                         ids=["str", "bool", "nan", "inf", "10**400"])
def test_real_arguments_refuse_what_is_not_a_finite_number(monkeypatch, case, bad):
    monkeypatch.setattr(model, "simulate_ar1", None)  # every check comes before a draw
    what, error, _, call = NUMBER_READERS[case]
    with pytest.raises(error, match=f"^{re.escape(what)} must be a finite number, got "
                       f"{re.escape(repr(bad))}$"):
        call(bad)


@pytest.mark.parametrize("case", NUMBER_READERS)
def test_real_arguments_read_numpy_scalars_as_floats(case):
    _, _, goods, call = NUMBER_READERS[case]
    for good in goods:
        assert pickle.dumps(call(good)) == pickle.dumps(call(float(good)))


def test_reconstruction_deviation_decreases_with_depth():
    p = make_params(n=3, alpha=0.85, rho=0.1, seed=55)
    devs = [
        reconstruction_check(p, T=20_000, seed=56, depth=d).max_deviation
        for d in (5, 10, 20, 40)
    ]
    assert all(devs[i + 1] <= devs[i] for i in range(len(devs) - 1))
    assert devs[-1] < devs[0]


# ---------------------------------------------------------------------------
# momentum PNL covariance identity


def test_cov_check_zero_beta():
    check = momentum_covariance_check(
        beta=np.zeros(5),
        factor=AR1Params(0.0, 0.0, 1.0),
        idio_vol=1.0,
        m=1,
        n=1,
        T=200_000,
        seed=60,
    )
    assert abs(check.lhs) <= 3 * check.lhs_se
    assert abs(check.rhs) <= 3 * check.rhs_se


def test_cov_check_scales_with_beta_norm():
    common = dict(
        factor=AR1Params(0.0, 0.0, 1.0), idio_vol=1.0, m=1, n=2, T=400_000, seed=61
    )
    base = momentum_covariance_check(beta=np.full(4, 0.5), **common)
    double = momentum_covariance_check(beta=np.full(4, 0.5 * np.sqrt(2)), **common)
    # same seed, same path: lhs scales exactly with beta'beta up to noise terms
    assert double.lhs == pytest.approx(2 * base.lhs, rel=0.05)


def test_cov_check_zero_persistence_factor_agrees_and_is_positive():
    check = momentum_covariance_check(
        beta=np.full(6, 0.6),
        factor=AR1Params(0.0, 0.0, 1.0),
        idio_vol=1.0,
        m=2,
        n=3,
        T=400_000,
        seed=62,
    )
    assert check.agrees
    assert check.both_positive


def test_cov_positive_across_mn_grid_even_without_persistence():
    specs = [AR1Params(0.0, 0.0, 1.0), AR1Params(0.3, 0.0, 1.0)]
    for si, factor in enumerate(specs):
        rng_seed = 70 + si
        for m in range(1, 7):
            for n in range(1, 7):
                check = momentum_covariance_check(
                    beta=np.full(4, 0.7),
                    factor=factor,
                    idio_vol=1.0,
                    m=m,
                    n=n,
                    T=150_000,
                    seed=rng_seed,
                )
                assert check.lhs > 3 * check.lhs_se, (si, m, n)


@pytest.mark.parametrize("idio_vol", [np.inf, -np.inf, np.nan, -1.0])
def test_cov_check_refuses_an_idio_vol_that_is_not_finite_and_nonnegative(monkeypatch,
                                                                             idio_vol):
    monkeypatch.setattr(model, "simulate_ar1", None)
    with pytest.raises(ParameterError, match="'idio_vol'"):
        momentum_covariance_check(np.ones(2), AR1Params(0.0, 0.0, 1.0), idio_vol, 1, 2,
                                  T=1000, seed=1)


def test_omega_refuses_orders_outside_its_set():
    omegas = autocovariance_matrices(default_params(), 2)
    for k in (0, 3):
        with pytest.raises(KeyError, match=f"^'k must be in 1..2, got {k}'$"):
            omegas.omega(k)


# ---------------------------------------------------------------------------
# AR(1) utility and verification battery


def test_sample_autocovariance_scalar_path():
    # hand-rolled AR(1) path as an oracle independent of the simulators
    rng = np.random.default_rng(90)
    rho = 0.3
    x = np.empty(200_000)
    x[0] = 0.0
    eps = rng.standard_normal(len(x))
    for t in range(1, len(x)):
        x[t] = rho * x[t - 1] + eps[t]
    for k in (1, 2):
        est, se = sample_autocovariance(x, k)
        target = rho**k / (1 - rho**2)
        assert abs(est - target) <= 3 * se


def one_shot_autocovariance(x, k, n_batches):
    xm = x - x.mean(axis=0)
    size = (len(x) - k) // n_batches
    lead = xm[k:][: size * n_batches].reshape(n_batches, size, -1)
    lag = xm[:-k][: size * n_batches].reshape(n_batches, size, -1)
    per_batch = np.einsum("bti,btj->bij", lead, lag) / size
    return per_batch.mean(axis=0), per_batch.std(axis=0, ddof=1) / np.sqrt(n_batches)


def one_shot_stock_moment(r, k, n_batches):
    products = (r[k:] * r[:-k]).sum(axis=1)
    size = len(products) // n_batches
    per_batch = products[: size * n_batches].reshape(n_batches, size).mean(axis=1)
    return per_batch.mean(), per_batch.std(ddof=1) / np.sqrt(n_batches)


# The estimators walk batches, not row blocks: their bits must not depend on
# _BLOCK_ROWS (block 1 gives one-row blocks; 5 and 17 split batches unevenly)
@pytest.mark.parametrize("block", [1, 5, 17, 1 << 16])
@pytest.mark.parametrize("T, n_batches", [(60, 7), (230, 100)])
def test_estimator_blocks_bit_identical_to_one_shot(monkeypatch, block, T, n_batches):
    monkeypatch.setattr(model, "_BLOCK_ROWS", block)
    x = np.random.default_rng(T).normal(0.1, 1.0, (T, 4))
    for k in range(1, T - n_batches + 1):
        est, se = sample_autocovariance(x, k, n_batches)
        ref_est, ref_se = one_shot_autocovariance(x, k, n_batches)
        assert (est.tobytes(), se.tobytes()) == (ref_est.tobytes(), ref_se.tobytes()), k
        est, se = sample_autocovariance(x[:, 2], k, n_batches)
        ref_est, ref_se = one_shot_autocovariance(x[:, 2:3], k, n_batches)
        assert (est, se) == (ref_est[0, 0], ref_se[0, 0]), k
        mc, mc_se = stock_moment_mc(x, k, n_batches)
        ref_mc, ref_mc_se = one_shot_stock_moment(x, k, n_batches)
        assert (mc, mc_se) == (ref_mc, ref_mc_se), k
    # every lag from one call: lags of different batch sizes walk separately,
    # in any order
    lags = range(1, T - n_batches + 1)
    for order in (lags, lags[::-1]):
        for values in (x, x[:, 2]):
            multi = sample_autocovariance(values, order, n_batches)
            assert len(multi) == len(order)
            for k, (est, se) in zip(order, multi):
                ref_est, ref_se = sample_autocovariance(values, k, n_batches)
                assert np.ndim(est) == values.ndim * 2 - 2, k
                assert (np.asarray(est).tobytes(), np.asarray(se).tobytes()) == (
                    np.asarray(ref_est).tobytes(), np.asarray(ref_se).tobytes()), k
        assert stock_moment_mc(x, order, n_batches) == [
            one_shot_stock_moment(x, k, n_batches) for k in order]
        assert factor_moment_mc(x[:, 1], order, n_batches) == [
            one_shot_stock_moment(x[:, 1:2], k, n_batches) for k in order]
    assert len({(T - k) // n_batches for k in lags}) >= 2  # several batch sizes
    k = T - n_batches + 1
    short = f"^{n_batches - 1} observations cannot form {n_batches} batches$"
    for values in (x, x[:, 0]):
        with pytest.raises(ParameterError, match=short):
            sample_autocovariance(values, k, n_batches)
        with pytest.raises(ParameterError, match=short):
            stock_moment_mc(values, k, n_batches)
    for bad in (0, T, T + 5):
        with pytest.raises(ParameterError, match=f"^need 1 <= k < {T}, got {bad}$"):
            stock_moment_mc(x, bad, n_batches)
    # a bad lag anywhere in the sequence is rejected before any batch is read
    monkeypatch.setattr(model, "_walk_runs", None)
    for values in (x, x[:, 0]):
        for bad, message in ((k, short), (0, "^need 1 <= k < "), (T, "^need 1 <= k < ")):
            for estimator in (sample_autocovariance, stock_moment_mc):
                with pytest.raises(ParameterError, match=message):
                    estimator(values, [1, bad, 2], n_batches)


@pytest.mark.parametrize("n_batches", [1, 0, -3])
def test_estimators_need_two_batches(n_batches):
    x = np.random.default_rng(2).standard_normal((500, 3))
    message = f"^n_batches must be >= 2, got {n_batches}$"
    for call in (
        lambda: sample_autocovariance(x, 1, n_batches),
        lambda: sample_autocovariance(x[:, 0], [1, 2], n_batches),
        lambda: stock_moment_mc(x, 1, n_batches),
        lambda: factor_moment_mc(x[:, 0], 1, n_batches),
    ):
        with pytest.raises(ParameterError, match=message):
            call()


@pytest.fixture
def fine_switching():
    """Interleave threads finely: a slot written twice or a block read before
    its draw lands then shows up as a wrong bit."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


# The estimators and the simulator overlap work across threads; the bits
# must be those of the single-thread formulas at any worker count
@pytest.mark.parametrize("workers", [1, 3])
def test_worker_count_moves_no_bit(monkeypatch, fine_switching, workers):
    monkeypatch.setattr(model, "_workers", lambda: workers)
    for T, n_batches in ((60, 7), (230, 100)):
        x = np.random.default_rng(T).normal(0.1, 1.0, (T, 4))
        lags = range(1, T - n_batches + 1)
        for values in (x, x[:, 2:3]):
            multi = sample_autocovariance(values, lags, n_batches)
            for k, (est, se) in zip(lags, multi):
                ref_est, ref_se = one_shot_autocovariance(values, k, n_batches)
                assert (est.tobytes(), se.tobytes()) == (ref_est.tobytes(), ref_se.tobytes()), k
        for k in lags:
            assert stock_moment_mc(x, k, n_batches) == one_shot_stock_moment(x, k, n_batches)
            assert factor_moment_mc(x[:, 1], k, n_batches) == one_shot_stock_moment(
                x[:, 1:2], k, n_batches)
        for order in (lags, lags[::-1]):  # several batch sizes in each call
            assert stock_moment_mc(x, order, n_batches) == [
                one_shot_stock_moment(x, k, n_batches) for k in order]
            assert factor_moment_mc(x[:, 1], order, n_batches) == [
                one_shot_stock_moment(x[:, 1:2], k, n_batches) for k in order]
    monkeypatch.setattr(model, "_BLOCK_ROWS", 64)  # several blocks to draw ahead
    for case, p in sorted(BLOCK_EDGE_PARAMS.items()):
        for length in (64, 65, 5 * 64 + 3):
            ref_r, ref_e = whole_array_raw(p, length, seed=length)
            r, e = streamed_raw(p, length, seed=length)
            assert (r.tobytes(), e.tobytes()) == (ref_r.tobytes(), ref_e.tobytes()), (case, length)


def test_verify_report_and_threads_do_not_depend_on_worker_count(monkeypatch, tmp_path, capsys):
    reports = []
    for workers in (1, 3):
        monkeypatch.setattr(model, "_workers", lambda: workers)
        out = tmp_path / str(workers)
        code = cli.main(["--seed", "3", "--out-dir", str(out), "verify", "--T", "20000"])
        assert code in (0, 1), capsys.readouterr().err  # 1: a check failed, still reported
        reports.append((out / "verify.json").read_bytes())
        before = threading.active_count()
        verify_model(default_params(), seed=3, T=20_000)
        assert threading.active_count() == before, workers  # every pool is joined
    assert b'"checks"' in reports[0]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("block", [7, 1 << 16])
def test_factor_moment_is_the_one_asset_stock_moment(monkeypatch, block):
    monkeypatch.setattr(model, "_BLOCK_ROWS", block)
    f = np.random.default_rng(41).normal(0.05, 1.0, 1000)
    for k in (1, 2, 3, 6, 900):
        products = f[k:] * f[:-k]
        size = len(products) // 100
        per_batch = products[: size * 100].reshape(100, size).mean(axis=1)
        expected = (per_batch.mean(), per_batch.std(ddof=1) / np.sqrt(100))
        assert factor_moment_mc(f, k) == expected, k
    for k in (0, -1, -500, 1000, 1200):
        with pytest.raises(ParameterError, match=f"^need 1 <= k < 1000, got {k}$"):
            factor_moment_mc(f, k)
    # a series read as one column is the same moment, bit for bit
    assert stock_moment_mc(f, [1, 6, 2]) == factor_moment_mc(f, [1, 6, 2])
    assert stock_moment_mc(f, 3) == stock_moment_mc(f[:, None], 3) == factor_moment_mc(f, 3)


def test_estimators_refuse_wrong_dimensions():
    panel = np.random.default_rng(42).normal(0.05, 1.0, (1000, 3))
    with pytest.raises(ParameterError, match=r"^factor_moment_mc needs a 1-d series, "
                       r"got shape \(1000, 3\)$"):
        factor_moment_mc(panel, 1)
    with pytest.raises(ParameterError, match=r"got shape \(\)$"):
        factor_moment_mc(1.0, 1)
    for values, ndim in ((panel[:, :, None], 3), (1.0, 0)):
        message = rf"^need a 1-d series or a \(T, N\) array, got {ndim} dimensions$"
        for estimator in (sample_autocovariance, stock_moment_mc):
            with pytest.raises(ParameterError, match=message):
                estimator(values, 1)
    # a lag is an integer: a float lag is refused by name, a numpy integer is read
    for estimator, values, k, bad in (
        (stock_moment_mc, panel, 1.5, 1.5),
        (sample_autocovariance, panel, [1, 2.0], 2.0),
        (factor_moment_mc, panel[:, 0], np.float64(2), np.float64(2)),
        (stock_moment_mc, panel, [np.int64(1), "2"], "2"),
    ):
        message = f"^lag k must be an integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ParameterError, match=message):
            estimator(values, k)
    assert stock_moment_mc(panel, np.int64(2)) == stock_moment_mc(panel, 2)
    assert factor_moment_mc(panel[:, 0], [np.int32(1), 3]) == factor_moment_mc(panel[:, 0], [1, 3])


def test_estimators_ignore_memory_order():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((500, 3))
    wide = rng.standard_normal((500, 6))
    wide[:, ::2] = x
    series = x[:, 1]  # a strided column of the C-ordered panel
    for k in (1, [1, 3]):
        want = sample_autocovariance(x, k)
        for values in (np.asfortranarray(x), wide[:, ::2]):
            assert not values.flags.c_contiguous
            got = sample_autocovariance(values, k)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
            assert stock_moment_mc(values, k) == stock_moment_mc(x, k)
        assert not series.flags.c_contiguous
        for estimator in (sample_autocovariance, stock_moment_mc, factor_moment_mc):
            assert estimator(series, k) == estimator(series.copy(), k)


# A batch's row products are formed and summed in chunks of _BLOCK_ROWS rows,
# a one-row tail joining the chunk before it; T = 2 size + 3 gives lag 1
# batches of size + 1 rows and lags 2 and 3 batches of size rows, which share
# one walk
@pytest.mark.parametrize("N", [1, 20])
@pytest.mark.parametrize("size", [model._BLOCK_ROWS - 1, model._BLOCK_ROWS,
                                  model._BLOCK_ROWS + 1, 2 * model._BLOCK_ROWS + 1],
                         ids=["B-1", "B", "B+1", "2B+1"])
def test_chunked_row_products_keep_the_whole_window_bits(N, size):
    x = np.random.default_rng(size + N).normal(0.1, 1.0, (2 * size + 3, N))
    for k in (1, 2, 3):
        assert stock_moment_mc(x, k, 2) == one_shot_stock_moment(x, k, 2), k
    assert stock_moment_mc(x, [3, 1, 2], 2) == [one_shot_stock_moment(x, k, 2) for k in (3, 1, 2)]
    if N == 1:
        assert factor_moment_mc(x[:, 0], [1, 2, 3], 2) == [
            one_shot_stock_moment(x, k, 2) for k in (1, 2, 3)]
    # the kernel on one window, against the whole window's row sums
    lags = [1, 2, 6]
    window = x[: size + max(lags)]
    moment = model._product_moment(lags)
    out = np.empty(max(lags))
    moment.batch(window, size, lags, moment.scratch(size, max(lags), N), out)
    for lag in lags:
        whole = (window[lag : lag + size] * window[:size]).sum(axis=1).mean()
        assert out[lag - 1].tobytes() == whole.tobytes(), lag
    # given w, the kernel projects its own window: the moment of that one column
    w = np.random.default_rng(N).standard_normal(N)
    factor = model._product_moment(lags, w)
    got = np.empty(max(lags))
    factor.batch(window, size, lags, factor.scratch(size, max(lags), N), got)
    column = model._project(window, w)[:, None]
    moment.batch(column, size, lags, moment.scratch(size, max(lags), 1), out)
    for lag in lags:
        assert got[lag - 1].tobytes() == out[lag - 1].tobytes(), lag


# The walk centres a window in place, so a public estimator's input must
# reach it as a copy: a read-only input would raise, a writable one change
@pytest.mark.parametrize("workers", [1, 2])
def test_estimators_leave_a_read_only_input_untouched(monkeypatch, workers):
    monkeypatch.setattr(model, "_workers", lambda: workers)
    n_batches = model.DEFAULT_BATCHES
    x = np.random.default_rng(11).normal(0.3, 1.0, (3000, 4))
    for values in (x, x[:, 1]):
        frozen = values.copy()
        frozen.setflags(write=False)
        columns = frozen if frozen.ndim == 2 else frozen[:, None]
        for k in (1, 3):
            est, se = sample_autocovariance(frozen, k)
            ref_est, ref_se = one_shot_autocovariance(columns, k, n_batches)
            assert (np.asarray(est).tobytes(), np.asarray(se).tobytes()) == (
                ref_est.tobytes(), ref_se.tobytes()), k
            assert stock_moment_mc(frozen, k) == one_shot_stock_moment(columns, k, n_batches)
        if frozen.ndim == 1:
            assert factor_moment_mc(frozen, [1, 3]) == [
                one_shot_stock_moment(columns, k, n_batches) for k in (1, 3)]
        assert frozen.tobytes() == values.tobytes()
    writable = x.copy()
    sample_autocovariance(writable, [1, 2, 3])
    stock_moment_mc(writable, [1, 2, 3])
    assert writable.tobytes() == x.tobytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_verify_draws_its_path_once_and_replays_it_once(monkeypatch, workers):
    # pass 1 draws the battery's path once, then the reconstruction its own;
    # one replay then feeds all three estimators, each worker resuming the
    # path at the first block of its run of batches, so two workers may
    # share one block
    monkeypatch.setattr(model, "_workers", lambda: workers)
    passes, replayed = [], []
    path_blocks = model._path_blocks

    def counted(params, length, seed, *args, since=None, **kwargs):
        if since is None:
            passes.append((length, seed))
            yield from path_blocks(params, length, seed, *args, **kwargs)
            return
        starts = [start for start, _ in model._row_blocks(0, length)]
        for block in path_blocks(params, length, seed, *args, since=since, **kwargs):
            replayed.append(starts.index(block[0]))
            yield block

    monkeypatch.setattr(model, "_path_blocks", counted)
    verify_model(default_params(), seed=3, T=20_000)
    assert passes == [(20_500, 3), (200_500, 4)]
    # lags 1..6 all take batches of 199 rows: the walk reads rows 500 .. 500 +
    # 100 * 199 + 6 of the path, so its last block, rows 20,480 .., is not drawn
    needed = [b for b, (start, stop) in enumerate(model._row_blocks(0, 20_500))
              if start < 500 + 100 * 199 + 6 and stop > 500]
    assert set(replayed) == set(needed) and len(needed) == 5
    assert len(replayed) <= len(needed) + workers - 1


def test_verify_refuses_a_huge_T_before_any_block_is_drawn(monkeypatch):
    # pass 1 allocates its carries before the reconstruction draws its path
    yielded, path_blocks = [], model._path_blocks

    def counted(*args, **kwargs):
        for block in path_blocks(*args, **kwargs):
            yielded.append(block[:2])
            yield block

    monkeypatch.setattr(model, "_path_blocks", counted)
    with pytest.raises(ParameterError, match="^'T' is too large"):
        verify_model(default_params(), seed=1, T=10**15)
    assert yielded == []


def reference_moments(p, T, seed, burn_in, k_max):
    """verify's moments from the public estimators on the simulated path."""
    path = simulate(p, T, seed, burn_in)
    R, F = path.panel.values, path.factor.values
    return [sample_autocovariance(R, range(1, k_max + 1)),
            factor_moment_mc(F, range(1, model.VERIFY_FACTOR_K + 1)),
            stock_moment_mc(R, range(1, model.VERIFY_STOCK_K + 1))]


STREAM_PARAMS = {
    "shipped": default_params(),
    "dense": make_params(n=4, alpha=0.5, rho=0.2, mu=[0.01, -0.02, 0.0, 0.03],
                         sigma=random_psd(4, 12), seed=13),
    # numpy sums one column pairwise, where it adds wider rows in t order
    "one asset": make_params(n=1, alpha=0.4, rho=0.2, mu=0.01),
}


# T = 20,001 puts lag 1 in batches of 200 rows and lags 2..6 in batches of 199;
# 3 workers are more threads than a 2-CPU host has
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("block", [7, 64])
@pytest.mark.parametrize("burn_in", [0, 500])
@pytest.mark.parametrize("case", sorted(STREAM_PARAMS))
def test_streamed_moments_are_the_public_estimators_bits(monkeypatch, fine_switching, case,
                                                         burn_in, block, workers):
    monkeypatch.setattr(model, "_workers", lambda: workers)
    monkeypatch.setattr(model, "_BLOCK_ROWS", block)
    p, T = STREAM_PARAMS[case], 20_001
    assert len({(T - k) // model.DEFAULT_BATCHES for k in range(1, 7)}) == 2
    want = reference_moments(p, T, 5, burn_in, 3)
    got = model._simulated_moments(p, T, 5, 3, burn_in)
    assert pickle.dumps(got) == pickle.dumps(want)


def whole_array_reconstruction(p, T, seed, depth, burn_in):
    """reconstruction_check's whole-array formula, the streamed check's
    reference: one full convolution of g and one matrix product per block."""
    length = burn_in + T
    first = max(burn_in, depth)
    r, e = whole_array_raw(p, length, seed)
    a, rho, alpha = p.a, p.rho, p.alpha
    c = a - rho
    g = fixed_order_dot(e, p.w)
    conv = np.convolve(g, a ** np.arange(depth - 1))
    lag_map = (p.impact_matrix - rho * np.eye(p.n)).T
    deviation = scale = 0.0
    for start, stop in model._row_blocks(first, length):
        recon = np.empty((stop - start, p.n))
        recon[:] = p.mean_returns
        recon += e[start:stop]
        recon += e[start - 1 : stop - 1] @ lag_map
        recon += np.outer(c * alpha * conv[start - 2 : stop - 2], p.w)
        rows = r[start:stop]
        deviation = max(deviation, float(np.max(np.abs(rows - recon))))
        scale = max(scale, float(np.max(np.abs(rows))))
    tail = (abs(c) * alpha * float(np.max(np.abs(p.w))) * float(np.max(np.abs(g)))
            * a ** (depth - 1) / (1.0 - a))
    return model.ReconstructionCheck(depth, deviation, tail + 1e-12 * (1.0 + scale))


@pytest.mark.parametrize("block", [7, 64, None])
@pytest.mark.parametrize("depth, burn_in", [(2, 0), (20, 0), (20, 30), (150, 3)])
@pytest.mark.parametrize("case", sorted(BLOCK_EDGE_PARAMS))
def test_streamed_reconstruction_is_the_whole_array_formula(monkeypatch, case, depth, burn_in,
                                                            block):
    if block is not None:
        monkeypatch.setattr(model, "_BLOCK_ROWS", block)
    p, T = BLOCK_EDGE_PARAMS[case], 700
    want = whole_array_reconstruction(p, T, 17, depth, burn_in)
    assert reconstruction_check(p, T, 17, depth, burn_in) == want


def test_blockwise_sums_and_valid_convolutions_keep_the_whole_array_bits():
    # the two identities the streamed verify rests on; a numpy release that
    # breaks either fails here first
    rng = np.random.default_rng(21)
    x = rng.standard_normal((200_500, 20))
    sums = folded = None
    for lo, hi in [(0, 500), *model._row_blocks(500, len(x))]:
        sums = (np.add.reduce(x[lo:hi], axis=0) if sums is None
                else np.add.reduce(np.concatenate((sums[None], x[lo:hi])), axis=0))
        block = x[lo:hi].copy()
        if folded is not None:  # the running sum added into the block's first row
            block[0] += folded
        folded = np.add.reduce(block, axis=0)
    assert (sums / len(x)).tobytes() == x.mean(axis=0).tobytes()
    assert folded.tobytes() == sums.tobytes()
    g, depth = rng.standard_normal(200_500), 200
    kernel = 0.6 ** np.arange(depth - 1)
    full = np.convolve(g, kernel)
    for lo, hi in model._row_blocks(depth - 2, len(g)):
        valid = np.convolve(g[lo - (depth - 2) : hi], kernel, "valid")
        assert valid.tobytes() == full[lo:hi].tobytes(), lo


def _traced_peak(fn) -> int:
    """Bytes allocated at the peak of fn(), over what was live before it;
    numpy reports its data buffers to tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_estimators_peak_within_a_few_batches():
    x = np.random.default_rng(5).standard_normal((200_000, 20))
    batch_bytes = (len(x) - 1) // model.DEFAULT_BATCHES * x.shape[1] * 8
    for estimator in (sample_autocovariance, stock_moment_mc):
        assert _traced_peak(lambda: estimator(x, 1)) <= 8 * batch_bytes, estimator.__name__


@pytest.mark.parametrize("workers", [1, 3])
def test_estimator_peak_is_one_window_per_worker(monkeypatch, workers):
    # each worker holds one batch window and at most one ufunc buffer; one
    # that allocated a fresh centred window per batch would hold two at once
    # while it replaced one, and break the half-window slack
    monkeypatch.setattr(model, "_workers", lambda: workers)
    x = np.random.default_rng(5).standard_normal((200_000, 20))
    n_batches, N = model.DEFAULT_BATCHES, x.shape[1]
    window = ((len(x) - 1) // n_batches + 1) * N * 8
    per_worker = window + np.getbufsize() * 8
    per_batch = {sample_autocovariance: n_batches * N * N * 8, stock_moment_mc: n_batches * 8}
    for estimator, kept in per_batch.items():
        estimator(x, 1)  # warm up: the first call imports the thread pool
        peak = _traced_peak(lambda: estimator(x, 1))
        assert peak <= kept + workers * per_worker + window // 2, estimator.__name__


@pytest.mark.parametrize("workers", [1, 2])
def test_streamed_moments_peak_is_the_tape_and_one_window_per_worker(monkeypatch, workers):
    # pass 1's ring of blocks is gone before the replay, and the tape is a
    # carry a block, not a float a row. Each worker then holds one batch
    # window (centred in place, so no copy), one row chunk of products and
    # the two-block ring of its resumed path, whose temporaries are formed in
    # row chunks; the slack covers the factor moment's projection of the
    # window, the rows kept aside for the next window, the row-sum vectors,
    # the tape, those chunks and numpy's ufunc buffers
    monkeypatch.setattr(model, "_workers", lambda: workers)
    p, T = default_params(), 200_000
    model._simulated_moments(p, 20_000, 3, 3)  # warm up: the first call imports the pool
    N, top, n_batches = p.n, model.VERIFY_FACTOR_K, model.DEFAULT_BATCHES
    size = (T - 1) // n_batches
    slots = n_batches * N * 3 * N * 8  # the autocovariances' per-batch results
    window = (size + top) * N * 8
    chunk = min(size, model._BLOCK_ROWS) * N * 8
    block = (model._BLOCK_ROWS + 1) * N * 8
    per_worker = window + chunk + 2 * block
    peak = _traced_peak(lambda: model._simulated_moments(p, T, 3, 3))
    assert peak <= slots + workers * (per_worker + 2**19), peak


def test_monte_carlo_peak_memory_stays_near_one_panel():
    p, T = default_params(), 200_000
    panel_bytes = T * p.n * 8
    assert _traced_peak(lambda: simulate(p, T, seed=3)) <= 2.5 * panel_bytes
    # verify never holds the panel: the AR(1) state of 8 bytes a row, a few
    # blocks and batch windows
    assert _traced_peak(lambda: verify_model(p, seed=3, T=T)) <= panel_bytes / 3


def test_simulate_ar1_hits_stationary_moments():
    p = AR1Params.from_sigma_f(rho=0.4, mu=0.2, sigma_f=1.0)
    f = simulate_ar1(p, 2_000_000, seed=80)
    assert f.mean() == pytest.approx(0.2, abs=0.005)
    assert f.std(ddof=1) == pytest.approx(1.0, abs=0.005)
    lag1 = np.corrcoef(f[1:], f[:-1])[0, 1]
    assert lag1 == pytest.approx(0.4, abs=0.005)


def test_verify_model_passes_on_default_params():
    report = verify_model(default_params(), seed=14, T=300_000)
    failed = [c.name for c in report.checks if c.passed is False]
    assert report.passed, failed
    names = {c.name for c in report.checks}
    assert "autocovariance_k1" in names
    assert "factor_momentum_two_path_k6" in names
    assert "return_solution" in names
    info = [c for c in report.checks if c.passed is None]
    assert info, "reduced-form rows should be informational"
    as_dict = report.to_dict()
    assert as_dict["passed"] is True
    assert len(as_dict["checks"]) == len(report.checks)


def test_verify_model_flags_failures():
    # force a failure by checking a wrong parameter set against the path
    p = default_params()
    path = simulate(p, 200_000, seed=3)
    wrong = make_params(n=20, alpha=0.2, rho=0.3)
    checks = check_autocovariances(wrong, path.panel.values, 1)
    assert not all(c.passed for c in checks)
