"""
Feedback-trading return model with closed-form oracles.

Stock returns follow

    r_t = mu + eps_t + A r_{t-1},      A = alpha * w w',  a = alpha * w'w,
    eps_t = e_t - rho * e_{t-1},       e_t ~ N(0, Sigma),

so flows chasing the factor w induce persistence (a) while noise traders
induce one-month reversal (rho). The factor return F_t = w'r_t then follows
a scalar AR(1) with coefficient a. Because A has rank one, the model admits
exact expressions for every return autocovariance matrix and for the
expected PNLs of factor momentum (w'Omega_k w) and stock momentum
(tr Omega_k), all re-derivable here and cross-checked against seeded
Monte Carlo paths with batch-means standard errors.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .analytics import AR1Params, NonStationaryError
from .momentum import signal
from .panel import (Calendar, NamedSeries, ReturnPanel, _integer, _number, _pool, _walk_runs,
                    _workers)

__all__ = [
    "AutocovarianceSet",
    "CovarianceCheck",
    "FactorMomentumMoment",
    "ModelParams",
    "ParameterError",
    "ReconstructionCheck",
    "SimPath",
    "StockMomentumMoment",
    "VerificationCheck",
    "VerificationReport",
    "autocovariance_matrices",
    "default_params",
    "expected_factor_momentum",
    "expected_stock_momentum",
    "factor_moment_mc",
    "momentum_covariance_check",
    "reconstruction_check",
    "sample_autocovariance",
    "simulate",
    "simulate_ar1",
    "stock_moment_mc",
    "verify_model",
]

DEFAULT_BURN_IN = 500
DEFAULT_BATCHES = 100
# lags of the factor and stock momentum moments that verify_model checks
VERIFY_FACTOR_K = 6
VERIFY_STOCK_K = 3
# rows per block of every row-blocked kernel: 640 KB at N = 20, in cache
_BLOCK_ROWS = 1 << 12


class ParameterError(ValueError):
    """Model parameters violate their constraints."""


def _numbers(value, key: str) -> np.ndarray:
    """``value`` of parameter ``key``, a number or (nested) list or array of
    numbers, as a new float array; each entry is read by :func:`panel._number`,
    a finite integer or float array in one cast."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        floats = value.astype(float)
        if np.isfinite(floats).all():
            return floats
    cells = np.asarray(value, dtype=object)
    return np.array([_number(x, repr(key), ParameterError) for x in cells.flat],
                    float).reshape(cells.shape)


@dataclass(frozen=True)
class ModelParams:
    """Parameters (alpha, w, mu, rho, Sigma) of the feedback-trading model.

    ``w`` is normalized to w'w = 1 by default, which makes a = alpha; pass
    ``normalize_w=False`` to keep a caller-supplied scale. Stationarity
    requires 0 <= a < 1 and Sigma must be symmetric positive semi-definite.
    Every field is read strictly, from code as from JSON: a string or a
    boolean where a number belongs, a non-boolean ``normalize_w`` and a
    value that is not finite are each a ParameterError naming the field.
    """

    alpha: float
    w: np.ndarray
    mu: np.ndarray
    rho: float
    sigma: np.ndarray
    normalize_w: bool = True

    def __post_init__(self):
        if not isinstance(self.normalize_w, bool):
            raise ParameterError(f"'normalize_w' must be true or false, got {self.normalize_w!r}")
        alpha, rho = (_number(getattr(self, k), repr(k), ParameterError) for k in ("alpha", "rho"))
        w, mu, sigma = (_numbers(getattr(self, k), k) for k in ("w", "mu", "sigma"))
        if w.ndim != 1 or len(w) < 1:
            raise ParameterError("w must be a non-empty vector")
        if self.normalize_w:
            norm = float(np.sqrt(w @ w))
            if norm == 0.0:
                raise ParameterError("cannot normalize a zero w")
            w = w / norm
        if mu.shape != w.shape:
            raise ParameterError(f"mu shape {mu.shape} != w shape {w.shape}")
        n = len(w)
        if sigma.shape != (n, n):
            raise ParameterError(f"sigma must be {n}x{n}, got {sigma.shape}")
        if not np.allclose(sigma, sigma.T, rtol=1e-10, atol=1e-12):
            raise ParameterError("sigma must be symmetric")
        eig = np.linalg.eigvalsh(sigma)
        if eig[0] < -1e-10 * max(eig[-1], 1.0):
            raise ParameterError(f"sigma is not PSD (min eigenvalue {eig[0]:g})")
        a = alpha * float(w @ w)
        if a < 0.0:
            raise ParameterError("alpha * w'w must be non-negative")
        if a >= 1.0:
            raise NonStationaryError(f"a = alpha * w'w = {a:g} must be < 1")
        for name, value in zip(("alpha", "rho", "w", "mu", "sigma"), (alpha, rho, w, mu, sigma)):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return len(self.w)

    @property
    def a(self) -> float:
        """Feedback strength alpha * w'w; the AR(1) coefficient of F_t."""
        return self.alpha * float(self.w @ self.w)

    @property
    def impact_matrix(self) -> np.ndarray:
        """A = alpha * w w' (rank one)."""
        return self.alpha * np.outer(self.w, self.w)

    @property
    def factor_variance(self) -> float:
        """V = w' Sigma w, the innovation variance of the factor."""
        return float(self.w @ self.sigma @ self.w)

    @property
    def factor_drift(self) -> float:
        """w'mu, the per-period drift term in the factor recursion."""
        return float(self.w @ self.mu)

    @property
    def factor_mean(self) -> float:
        """Unconditional mean of F_t, w'mu / (1 - a)."""
        return self.factor_drift / (1.0 - self.a)

    @property
    def mean_returns(self) -> np.ndarray:
        """Unconditional mean of r_t: (I - A)^{-1} mu = mu + A mu / (1 - a),
        exact for rank-one A."""
        return self.mu + (self.alpha * self.factor_drift / (1.0 - self.a)) * self.w

    # --- JSON schema: {N, alpha, w, mu, rho, sigma: {diag | full}, [normalize_w]} ---

    @staticmethod
    def from_dict(d: dict) -> "ModelParams":
        """Parameters from their JSON object. An unknown or missing key, a
        non-integral ``N`` and a ``sigma`` that does not give one form are
        each a ParameterError naming the key; :class:`ModelParams` reads the
        values themselves."""
        if not isinstance(d, dict):
            raise ParameterError(f"model parameters must be a JSON object, got {d!r}")
        keys = ("N", "alpha", "w", "mu", "rho", "sigma", "normalize_w")
        bad = [f"unknown key {key!r}" for key in d if key not in keys]
        bad += [f"missing key {key!r}" for key in keys[:-1] if key not in d]
        if bad:
            raise ParameterError("model parameters: " + ", ".join(bad))
        if not _number(d["N"], "'N'", ParameterError).is_integer():
            raise ParameterError(f"'N' must be an integer, got {d['N']!r}")
        sig = d["sigma"]
        if not (isinstance(sig, dict) and len(sig) == 1 and sig.keys() <= {"diag", "full"}):
            raise ParameterError(f"'sigma' must give one of 'diag' or 'full', got {sig!r}")
        sigma = np.diag(_numbers(sig["diag"], "sigma")) if "diag" in sig else sig["full"]
        if (shape := np.asarray(d["w"], dtype=object).shape) != (d["N"],):
            raise ParameterError(f"N = {d['N']} but w has shape {shape}")
        return ModelParams(d["alpha"], d["w"], d["mu"], d["rho"], sigma,
                           normalize_w=d.get("normalize_w", True))

    @staticmethod
    def from_json(path) -> "ModelParams":
        with open(path) as fh:
            try:
                d = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParameterError(f"{path}: invalid JSON ({exc})") from exc
        return ModelParams.from_dict(d)

    def to_dict(self) -> dict:
        diag = np.diag(np.diag(self.sigma))
        sig = (
            {"diag": list(np.diag(self.sigma))}
            if np.array_equal(self.sigma, diag)
            else {"full": [list(row) for row in self.sigma]}
        )
        return {
            "N": self.n,
            "alpha": self.alpha,
            "w": list(self.w),
            "mu": list(self.mu),
            "rho": self.rho,
            "sigma": sig,
            "normalize_w": False,  # w is already normalized above if requested
        }


def default_params() -> ModelParams:
    """Shipped reference parameters: 20 stocks, Sigma = I, a = 0.6, rho = 0.1.

    With rho * tr Sigma = 2 dominating alpha * V * (1 + ...), single-month
    stock momentum is negative while factor momentum is positive at every
    lag: persistence and reversal coexist.
    """
    n = 20
    return ModelParams(
        alpha=0.6,
        w=np.ones(n),
        mu=np.zeros(n),
        rho=0.1,
        sigma=np.eye(n),
    )


# ---------------------------------------------------------------------------
# Simulation


def _chol_psd(sigma: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        # PSD but singular: eigenvalue square root, deterministic
        eigval, eigvec = np.linalg.eigh(sigma)
        return eigvec * np.sqrt(np.clip(eigval, 0.0, None))


def _root_map(sigma: np.ndarray):
    """In-place map of a block of standard normal rows z onto z @ root.T, the
    root from :func:`_chol_psd`.

    Up to 64 assets the gemm runs on sub-blocks of at most 2**18
    multiply-adds, at least 64 rows, which OpenBLAS keeps on the calling
    thread: a threaded gemm per block leaves its threads spinning against the
    draw thread and the replay's workers. Past 64 assets such sub-blocks
    would be smaller and each would read the whole root again, so a block
    takes one gemm. A row's bits do not depend on the rows multiplied with
    it (see :func:`_row_blocks`)."""
    root_t = _chol_psd(sigma).T
    step = (1 << 18) // len(root_t) ** 2

    def transform(rows):
        for lo, hi in _row_blocks(0, len(rows), step if step >= 64 else len(rows)):
            rows[lo:hi] = rows[lo:hi] @ root_t

    return transform


def _ar1(x: np.ndarray, coef: float, init: float) -> np.ndarray:
    """y_t = x_t + coef * y_{t-1} from y_{-1} = init, evaluated in order: one
    rounded multiply and one rounded add per step keep the pinned paths
    bit-identical, where a blocked or parallel scan would reassociate the sum."""

    def steps(y, coef=float(coef)):
        for xt in x.tolist():
            y = xt + coef * y
            yield y

    return np.fromiter(steps(float(init)), np.float64, len(x))


def _row_blocks(start: int, stop: int, rows: int | None = None):
    """(lo, hi) bounds of consecutive blocks of ``rows`` (by default
    ``_BLOCK_ROWS``) rows covering [start, stop). No block holds a single row
    unless the range does: numpy sends a one-row matrix product to BLAS
    gemv, which rounds differently from the whole-array gemm, so a one-row
    tail joins the block before it."""
    step = max(_BLOCK_ROWS if rows is None else rows, 2)
    while start < stop:
        hi = stop if stop - start <= step + 1 else start + step
        yield start, hi
        start = hi


def _block_count(length: int) -> int:
    """How many blocks ``_row_blocks(0, length)`` yields, without walking
    them: every block but the last is full, and the last takes one row more
    rather than leave one alone."""
    return max(1, -(-(length - 1) // max(_BLOCK_ROWS, 2)))


def _chunks(rows: np.ndarray):
    """Row bounds of chunks of a block that hold about numpy's ufunc buffer
    of elements each, for the block's elementwise temporaries."""
    return _row_blocks(0, len(rows), np.getbufsize() // rows.shape[1])


def _project(values: np.ndarray, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """values @ w as a left-to-right sum over columns of elementwise products,
    into ``out`` when one is given.

    No BLAS call, so no thread count, CPU dispatch or row split can change a
    bit. It walks :func:`_row_blocks` so that the strided column reads stay
    in cache; each row is summed in the same order at any block size.
    """
    out = np.empty(len(values)) if out is None else out
    for lo, hi in _row_blocks(0, len(values)):
        rows, acc = values[lo:hi], out[lo:hi]
        np.multiply(rows[:, 0], w[0], out=acc)
        for j in range(1, len(w)):
            acc += rows[:, j] * w[j]
    return out


def _reverse(rows: np.ndarray, rho: float, e_prev: np.ndarray | None) -> None:
    """eps_t = e_t - rho e_{t-1} in place on a block of innovations, e_prev
    being the row before the block (None for the path's first block). The
    chunks run from the last back, so each reads rows not yet updated."""
    if rho != 0.0:
        for lo, hi in reversed([*_chunks(rows[1:])]):
            rows[lo + 1 : hi + 1] -= rho * rows[lo:hi]
        if e_prev is not None:
            rows[0] -= rho * e_prev


def _add_load(rows: np.ndarray, params: ModelParams, s_prev: np.ndarray) -> None:
    """r_t = eps_t + mu + alpha s_{t-1} w in place, s_prev holding s_{t-1}."""
    rows += params.mu
    for lo, hi in _chunks(rows):
        rows[lo:hi] += np.outer(s_prev[lo:hi], params.alpha * params.w)


@dataclass
class _Tape:
    """What resumes a path of :func:`_path_blocks` at its block b, recorded
    by one walk of the whole path: ``states[b]``, the bit generator's state
    before the block's draw, and ``carry[b]``, the innovation row before the
    block (zeros before the first) and then the AR(1) state before it. That
    is N + 1 floats and one state a block, where the path is N floats a row."""

    states: list = field(default_factory=list)
    carry: np.ndarray | None = None


def _path_blocks(params: ModelParams, length: int, seed, innovations: bool = False,
                 tape: _Tape | None = None, since: int | None = None):
    """Yield ``(start, stop, rows, e)`` for each block of a path of ``length``
    rows started from the unconditional mean with e_{-1} = 0: ``rows`` holds
    the block's finished returns and ``e``, with ``innovations``, its
    innovations, else None. Both are valid until the next block is asked for.

    The rows are drawn into a ring of two block buffers. One pass over row
    blocks (:func:`_row_blocks`) that carries e_{t-1} and the AR(1) state
    across block edges, with x = eps'w by :func:`_project`: every row is
    bit-identical to the whole-array formulas at any block size and any BLAS
    thread count. ``tape``, when given, records every block's carry; with
    ``since`` as well it is read instead, and the walk resumes the path at
    the block that holds row ``since`` from that block's carry, whatever
    ``seed`` is, so a resumed block is the path's own, bit for bit.

    One helper thread draws block b + 1's standard normals in place while
    this thread forms eps, projects and runs the AR(1) for block b, and
    while the caller reads it. The draws are one stream taken in block
    order, so no bit depends on the thread that draws them.
    """
    record = tape is not None and since is None
    if record:  # first, so a length memory cannot hold fails here
        tape.carry = _path_array((_block_count(length), params.n + 1))
    rng = np.random.default_rng(seed)
    blocks = _row_blocks(0, length)  # walked lazily, one block ahead
    first, (start, stop) = 0, next(blocks)
    state, e_last = params.factor_mean, None
    if since is not None:  # resume at the block that holds row since
        while stop <= since:
            first, (start, stop) = first + 1, next(blocks)
        rng.bit_generator.state = tape.states[first]
        state, e_last = tape.carry[first, -1], (tape.carry[first, :-1] if first else None)
    transform = _root_map(params.sigma)
    widest = min(length, max(_BLOCK_ROWS, 2) + 1)  # a block takes at most one row more
    ring = np.empty((2, widest, params.n))
    e_buf = np.empty((widest, params.n)) if innovations else None

    def draw(b, lo, hi):
        if record:
            tape.states.append(rng.bit_generator.state)
        return pool.submit(rng.standard_normal, out=ring[b % 2, : hi - lo])

    with _pool(1) as pool:
        drawn = draw(first, start, stop)
        for b in itertools.count(first):
            drawn.result()  # block b's innovations are in place
            ahead = next(blocks, None)
            if ahead is not None:
                drawn = draw(b + 1, *ahead)
            rows = ring[b % 2, : stop - start]
            if record:
                tape.carry[b, :-1] = 0.0 if e_last is None else e_last
                tape.carry[b, -1] = state
            transform(rows)
            e = None
            if innovations:
                e = e_buf[: stop - start]
                e[:] = rows
            e_next = rows[-1].copy()
            _reverse(rows, params.rho, e_last)
            e_last = e_next
            x = _project(rows, params.w) + params.factor_drift
            s = _ar1(x, params.a, state)
            _add_load(rows, params, np.concatenate(([state], s[:-1])))
            state = s[-1]
            yield start, stop, rows, e
            if ahead is None:
                return
            start, stop = ahead


def _path_rows(T: int, burn_in: int) -> int:
    """Rows of a simulated path that keeps T months after ``burn_in``; a
    count past numpy's index range is refused before anything is made."""
    T = _integer(T, "T", 1, ParameterError)
    length = _integer(burn_in, "burn_in", 0, ParameterError) + T
    if length > np.iinfo(np.intp).max:
        raise ParameterError(
            f"'T' = {T} with burn_in = {burn_in} exceeds the {np.iinfo(np.intp).max} rows "
            "numpy can index")
    return length


def _path_array(shape: tuple) -> np.ndarray:
    """``np.empty(shape)`` for an array that grows with the path; one that
    memory cannot hold is an input error naming T, not numpy's traceback."""
    try:
        return np.empty(shape)
    except MemoryError:
        raise ParameterError(
            f"'T' is too large: a path array of shape {shape} needs {8 * math.prod(shape)} "
            "bytes, which cannot be allocated") from None


@dataclass(frozen=True)
class SimPath:
    """A simulated return panel with its factor series F_t = w'r_t."""

    panel: ReturnPanel
    factor: NamedSeries


def simulate(
    params: ModelParams,
    T: int,
    seed: int,
    burn_in: int = DEFAULT_BURN_IN,
) -> SimPath:
    """Simulate T months of the model, discarding ``burn_in`` start-up months.

    Fully deterministic per seed: the same seed yields bit-identical paths,
    whatever the BLAS thread count, and the factor series is the fixed-order
    projection :func:`_project` of the panel on w, taken from each block as
    it is copied out of the stream. The panel's and the factor's values are
    read-only views of the simulated arrays, burn-in rows included.
    """
    r = _path_array((_path_rows(T, burn_in), params.n))
    f = _path_array((len(r),))
    for start, stop, rows, _ in _path_blocks(params, len(r), seed):
        r[start:stop] = rows
        _project(rows, params.w, f[start:stop])  # while the block is in cache
    r.setflags(write=False)
    f.setflags(write=False)
    calendar = Calendar.periods(T)
    width = max(2, len(str(params.n - 1)))
    assets = tuple(f"s{i:0{width}d}" for i in range(params.n))
    panel = ReturnPanel(calendar, assets, r[burn_in:])
    factor = NamedSeries(calendar, "factor", f[burn_in:])
    return SimPath(panel, factor)


def simulate_ar1(params: AR1Params, T: int, seed, burn_in: int = 100) -> np.ndarray:
    """Simulate an AR(1) factor path of length T, seeded, burn-in discarded."""
    x = _path_array((_path_rows(T, burn_in),))
    np.random.default_rng(seed).standard_normal(out=x)
    x *= params.sigma_u
    x += (1.0 - params.rho) * params.mu
    return _ar1(x, params.rho, params.mu)[burn_in:]


# ---------------------------------------------------------------------------
# Closed-form autocovariances and momentum moments


@dataclass(frozen=True)
class AutocovarianceSet:
    """Omega_k = E[(r_t - m)(r_{t-k} - m)'] for k = 1 .. k_max."""

    omegas: tuple[np.ndarray, ...]

    @property
    def k_max(self) -> int:
        return len(self.omegas)

    def omega(self, k: int) -> np.ndarray:
        if not 1 <= _integer(k, "k", error=ParameterError) <= self.k_max:
            raise KeyError(f"k must be in 1..{self.k_max}, got {k}")
        return self.omegas[k - 1]


def autocovariance_matrices(params: ModelParams, k_max: int) -> AutocovarianceSet:
    """Exact return autocovariance matrices of the model, orders 1..k_max.

    Omega_1 = (1 - rho(a - rho)) A Sigma - rho Sigma
              + (a - rho) A Sigma A (1 + (a - rho) a / (1 - a^2)),
    Omega_k = (a - rho)(1 - rho a) a^{k-2} A Sigma
              + (a - rho) a^{k-1} A Sigma A (1 + (a - rho) a / (1 - a^2)),
    for k >= 2; they decay geometrically at rate a.
    """
    k_max = _integer(k_max, "k_max", 1, ParameterError)
    a, rho = params.a, params.rho
    A = params.impact_matrix
    AS = A @ params.sigma
    ASA = AS @ A
    c = a - rho
    tail = 1.0 + c * a / (1.0 - a * a)
    omegas = [(1.0 - rho * c) * AS - rho * params.sigma + c * tail * ASA]
    for k in range(2, k_max + 1):
        omegas.append(c * (1.0 - rho * a) * a ** (k - 2) * AS + c * a ** (k - 1) * tail * ASA)
    return AutocovarianceSet(tuple(omegas))


@dataclass(frozen=True)
class FactorMomentumMoment:
    """Decomposition of E[F_{t-k} F_t] into persistence and mean exposure.

    momentum_term = V (a - rho)(1 - rho a) / (1 - a^2) * a^{k-1} equals
    w'Omega_k w; mean_term is the squared unconditional factor mean, earned
    mechanically whatever the persistence. total = momentum_term + mean_term.
    """

    k: int
    momentum_term: float
    mean_term: float

    @property
    def total(self) -> float:
        return self.momentum_term + self.mean_term


def expected_factor_momentum(params: ModelParams, k: int) -> FactorMomentumMoment:
    """Closed-form E[F_{t-k} F_t] for lag k >= 1."""
    k = _integer(k, "k", 1, ParameterError)
    a, rho = params.a, params.rho
    momentum = params.factor_variance * (a - rho) * (1.0 - rho * a) / (1.0 - a * a) * a ** (k - 1)
    return FactorMomentumMoment(k, float(momentum), float(params.factor_mean**2))


@dataclass(frozen=True)
class StockMomentumMoment:
    """Two routes to E[r_{t-k}' r_t] plus its mean decomposition.

    ``trace_term`` is tr(Omega_k) from the matrices; ``reduced_term`` is the
    scalar reduction, alpha V (1 + (a - rho)^2 / (1 - a^2)) - rho tr Sigma
    at k = 1 and alpha V (a - rho)(1 - rho a) / (1 - a^2) a^{k-2} at k >= 2.
    The two agree identically. ``mean_term`` is the exact squared-mean
    contribution |E r|^2; ``drift_term`` is the plain mu'mu, which matches
    it only when a = 0 or mu = 0 (feedback amplifies means by 1 / (1 - a)
    along w). total = trace_term + mean_term.
    """

    k: int
    trace_term: float
    reduced_term: float
    mean_term: float
    drift_term: float

    @property
    def total(self) -> float:
        return self.trace_term + self.mean_term


def expected_stock_momentum(
    params: ModelParams, k: int, omegas: AutocovarianceSet | None = None
) -> StockMomentumMoment:
    """Closed-form E[r_{t-k}' r_t] for lag k >= 1.

    The per-lag product E[r_{t-k}' r_t] plays the role of an (m, n) = (k, 1)
    momentum PNL with unit weights.
    """
    k = _integer(k, "k", 1, ParameterError)
    if omegas is None or omegas.k_max < k:
        omegas = autocovariance_matrices(params, k)
    a, rho, alpha = params.a, params.rho, params.alpha
    V = params.factor_variance
    trace = float(np.trace(omegas.omega(k)))
    if k == 1:
        reduced = alpha * V * (1.0 + (a - rho) ** 2 / (1.0 - a * a)) - rho * float(
            np.trace(params.sigma)
        )
    else:
        reduced = alpha * V * (a - rho) * (1.0 - rho * a) / (1.0 - a * a) * a ** (k - 2)
    mean_r = params.mean_returns
    return StockMomentumMoment(
        k,
        trace,
        float(reduced),
        float(mean_r @ mean_r),
        float(params.mu @ params.mu),
    )


# ---------------------------------------------------------------------------
# Monte Carlo estimators (batch-means standard errors)


def _batch_size(count: int, n_batches: int) -> int:
    """Rows per batch when ``count`` observations form ``n_batches`` batches;
    a batch-means SE needs at least two batches."""
    if _integer(n_batches, "n_batches", error=ParameterError) < 2:
        raise ParameterError(f"n_batches must be >= 2, got {n_batches}")
    size = count // n_batches
    if size < 1:
        raise ParameterError(f"{count} observations cannot form {n_batches} batches")
    return size


def _mean_se(per_batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean over the batches (axis 0) and its batch-means standard error."""
    return per_batch.mean(axis=0), per_batch.std(axis=0, ddof=1) / np.sqrt(len(per_batch))


def _within_3se(deviation, se) -> bool:
    """The two-sided acceptance rule of every Monte Carlo check: |deviation|
    <= 3 SE in every element, so an exact match passes at SE = 0."""
    return bool(np.all(np.abs(deviation) <= 3.0 * se))


class _ArrayRows:
    """The row source of a public estimator: its input read as a C-ordered
    (T, N) array, a series as one column, so no bit depends on its memory
    order. A batch window is a slice of it, copied into the worker's own
    window when the walk writes its windows, so the input is only ever
    read."""

    def __init__(self, values):
        x = np.asarray(values, float)
        if x.ndim not in (1, 2):
            raise ParameterError(f"need a 1-d series or a (T, N) array, got {x.ndim} dimensions")
        self.x = np.ascontiguousarray(x[:, None] if x.ndim == 1 else x)
        self.T, self.N = self.x.shape

    def mean(self) -> np.ndarray:
        return self.x.mean(axis=0)

    def reader(self, size: int, top: int, writes: bool) -> np.ndarray | None:
        """One worker's buffer: a window if the walk writes its windows."""
        return np.empty((size + top, self.N)) if writes else None

    def windows(self, run, size, top, window):
        for b in run:
            rows = self.x[b * size : (b + 1) * size + top]
            if window is not None:
                window[:] = rows
                rows = window
            yield b, rows


class _Replay:
    """The kept rows of a simulated path, redrawn for each worker by
    resuming :func:`_path_blocks` from its :class:`_Tape` at the first
    block of the worker's run, as the row source of :func:`_lead_lag_walk`:
    every row is the path's own, bit for bit, made by the same code.
    ``sums`` are the column sums of the kept rows, whose mean centres them.
    """

    def __init__(self, params: ModelParams, tape: _Tape, length: int, burn_in: int,
                 sums: np.ndarray):
        self.params, self.tape, self.length, self.burn_in, self.sums = (
            params, tape, length, burn_in, sums)
        self.T, self.N = length - burn_in, params.n

    def mean(self) -> np.ndarray:
        return self.sums / self.T

    def reader(self, size: int, top: int, writes: bool):
        """One worker's buffers: a window and its last ``top`` rows. The
        window is the worker's own, so the walk may write it."""
        return np.empty((size + top, self.N)), np.empty((top, self.N))

    def windows(self, run, size, top, buffers):
        """(b, window) for each batch b of ``run``, replaying the run's rows
        once. A window's last ``top`` rows start the next, so they are kept
        aside while the walk reads, and maybe centres, the window."""
        window, tail = buffers
        lo = self.burn_in + run[0] * size
        hi = lo + len(run) * size + top
        filled, b = 0, run[0]
        for start, stop, rows, _ in _path_blocks(self.params, self.length, None,
                                                 tape=self.tape, since=lo):
            piece = rows[max(lo - start, 0) : hi - start]
            while len(piece):
                take = min(len(piece), size + top - filled)
                window[filled : filled + take] = piece[:take]
                piece, filled = piece[take:], filled + take
                if filled == size + top:
                    tail[:] = window[size:]
                    yield b, window
                    window[:top] = tail
                    filled, b = top, b + 1
            if stop >= hi:  # ask for no block past the run's rows
                return


@dataclass(frozen=True)
class _Moment:
    """One estimator of a batch walk: its lags (one or a sequence), whether
    it reads the windows centred on their column mean, and its kernel.
    ``batch(rows, size, lags, scratch, out)`` fills ``out``, the batch's slot
    of an (n_batches, *slot(N, top)) array that ``read_out(per_batch, lag)``
    reads. ``rows`` is the window the walk holds, size + top rows, which
    ``batch`` only reads; ``scratch(size, top, N)`` makes the buffers that
    one worker's ``batch`` calls reuse, by default none."""

    k: object
    batch: object
    read_out: object
    slot: object
    scratch: object = lambda size, top, N: None
    centre: bool = False


def _lead_lag_walk(source, moments: Sequence[_Moment], n_batches: int) -> list:
    """The one batch walk of the Monte Carlo moment estimators: for each of
    ``moments``, a result per lag, in a list for a sequence of lags.

    Every lag is read first, by the library's one integer rule
    (:func:`panel._integer`, ``lag k must be an integer, got 1.5``), then
    checked to lie in [1, T). Lags of one batch size share a walk over
    windows of ``size + top`` rows at the group's top lag, and each moment
    reads the first ``size`` + its own top rows of a window, so each lag
    reads the rows its own walk would, in order.

    ``source`` gives the windows: :class:`_ArrayRows` slices of the public
    estimators' input, :class:`_Replay` a path that :func:`verify_model`
    never holds, redrawn into a window that one worker owns and reuses. A
    worker holds one window and no centred copy: the uncentred moments read
    a window first, then it is centred in place for the centred ones.
    Subtracting the mean in place gives the bits of a centred copy. A walk
    with a centred moment asks the source for windows it may write, so
    :class:`_ArrayRows` then copies each slice into the worker's window, and
    a caller's array is only ever read; :class:`_Replay` keeps aside the
    rows that start its next window.

    One column is walked on this thread: a pool costs it more than it
    saves. Otherwise each worker walks one contiguous run of batches into
    their own slots, so no bit depends on the worker count, with buffers
    made on this thread (from a pool thread's malloc arena they would raise
    the peak RSS). ``batch`` may call no public function (a tracer keeps one
    span stack per process) nor rely on ``np.errstate``, which pool threads
    do not inherit.
    """
    T = source.T
    lag_sets = [[_integer(lag, "lag k", error=ParameterError)
                 for lag in (m.k if np.ndim(m.k) else [m.k])] for m in moments]
    groups = {}
    for i, lags in enumerate(lag_sets):
        for lag in lags:
            if not 1 <= lag < T:
                raise ParameterError(f"need 1 <= k < {T}, got {lag}")
            groups.setdefault(_batch_size(T - lag, n_batches), {}).setdefault(i, []).append(lag)
    mean = source.mean() if any(m.centre for m in moments) else None
    parts = 1 if source.N == 1 else min(_workers(), n_batches)
    results = [{} for _ in moments]
    for size, members in groups.items():
        tops = {i: max(group) for i, group in members.items()}
        top = max(tops.values())
        per_batch = {i: np.empty((n_batches, *moments[i].slot(source.N, tops[i])))
                     for i in members}
        plain = [i for i in members if not moments[i].centre]
        centred = [i for i in members if moments[i].centre]
        readers = [source.reader(size, top, bool(centred)) for _ in range(parts)]
        scratch = [{i: moments[i].scratch(size, tops[i], source.N) for i in members}
                   for _ in range(parts)]

        def walk(run, reader, buf):  # runs before the loop moves on, so binds this group
            def read(i, window, b):
                moments[i].batch(window[: size + tops[i]], size, members[i], buf[i],
                                 per_batch[i][b])

            for b, window in source.windows(run, size, top, reader):
                for i in plain:
                    read(i, window, b)
                if centred:
                    window -= mean
                    for i in centred:
                        read(i, window, b)

        _walk_runs(walk, range(n_batches), parts, readers, scratch)
        del readers, scratch  # before the read-out makes its temporaries
        for i, group in members.items():
            for lag in group:
                results[i][lag] = moments[i].read_out(per_batch[i], lag)
    out = [[found[lag] for lag in lags] for found, lags in zip(results, lag_sets)]
    return [got if np.ndim(m.k) else got[0] for got, m in zip(out, moments)]


def _autocovariance_moment(k, one_d: bool = False) -> _Moment:
    """:func:`sample_autocovariance` as a moment of the batch walk."""

    def batch(xm, size, lags, scratch, out):
        N = xm.shape[1]
        leads = sliding_window_view(xm.reshape(-1)[N:], (len(xm) - size) * N)[::N]
        np.einsum("sj,sm->jm", xm[:size], leads, out=out)
        out /= size

    def read_out(per_batch, lag):
        N = per_batch.shape[1]
        # per_batch[b, j, (lag - 1) N + i] pairs the lag at j with the lead at i
        est, se = _mean_se(per_batch[:, :, (lag - 1) * N : lag * N])
        return (float(est[0, 0]), float(se[0, 0])) if one_d else (est.T.copy(), se.T.copy())

    return _Moment(k, batch, read_out, lambda N, top: (N, top * N), centre=True)


def _product_moment(k, w: np.ndarray | None = None) -> _Moment:
    """:func:`stock_moment_mc` as a moment of the batch walk; given ``w``,
    on each window's one-column projection ``_project(window, w)``.

    A batch's row products are formed and summed per row in
    :func:`_row_blocks` chunks into one (size,) vector of row sums, whose
    mean is the batch's: each row is summed alone, and the mean is numpy's
    pairwise sum over one contiguous vector, so the chunks move no bit of
    the whole-window ``(x[lag:] * x[:-lag]).sum(axis=1).mean()``."""

    def scratch(size, top, N):
        widest = max(hi - lo for lo, hi in _row_blocks(0, size))
        factor = None if w is None else np.empty(size + top)
        return np.empty((widest, N if w is None else 1)), np.empty(size), factor

    def batch(window, size, lags, scratch, out):
        products, sums, factor = scratch
        if w is not None:
            window = _project(window, w, factor)[:, None]
        for lag in lags:
            for lo, hi in _row_blocks(0, size):
                chunk = np.multiply(window[lag + lo : lag + hi], window[lo:hi],
                                    out=products[: hi - lo])
                np.add.reduce(chunk, axis=1, out=sums[lo:hi])
            out[lag - 1] = sums.mean()

    def read_out(per_batch, lag):
        # a contiguous copy: numpy sums a 1-d vector pairwise, a column in order
        mean, se = _mean_se(per_batch[:, lag - 1].copy())
        return float(mean), float(se)

    return _Moment(k, batch, read_out, lambda N, top: (top,), scratch)


def sample_autocovariance(
    values: np.ndarray, k: int | Sequence[int], n_batches: int = DEFAULT_BATCHES
) -> tuple | list[tuple]:
    """Sample estimate of E[(x_t - m)(x_{t-k} - m)'] with per-element
    batch-means standard errors.

    Returns ``(estimate, se)``; both are scalars for a 1-d input and (N, N)
    matrices for a (T, N) input, oriented so estimate[i, j] pairs the lead
    at i with the lag at j. Given a sequence of lags for ``k``, it returns a
    list with one ``(estimate, se)`` per lag, each bit-identical to its own
    call. Per centred window, one einsum pairs the lag rows with a read-only
    view of the top rows after each, laid side by side, so lag k is column
    block k - 1. Every element is still a sum in t order of separately
    rounded products, so the layout moves no bit.
    """
    moment = _autocovariance_moment(k, np.ndim(values) == 1)
    return _lead_lag_walk(_ArrayRows(values), [moment], n_batches)[0]


def factor_moment_mc(
    factor_values: np.ndarray, k: int | Sequence[int], n_batches: int = DEFAULT_BATCHES
) -> tuple[float, float] | list[tuple[float, float]]:
    """Monte Carlo E[F_{t-k} F_t] (uncentered) with batch-means SE: the
    one-asset case of :func:`stock_moment_mc`, for a 1-d series only."""
    f = np.asarray(factor_values, float)
    if f.ndim != 1:
        raise ParameterError(f"factor_moment_mc needs a 1-d series, got shape {f.shape}")
    return stock_moment_mc(f, k, n_batches)


def stock_moment_mc(
    return_values: np.ndarray, k: int | Sequence[int], n_batches: int = DEFAULT_BATCHES
) -> tuple[float, float] | list[tuple[float, float]]:
    """Monte Carlo E[r_{t-k}' r_t] (uncentered) with batch-means SE, from
    each batch's mean row product sum. Takes a (T, N) panel or a series as
    one column, and one lag or a sequence as :func:`sample_autocovariance`."""
    return _lead_lag_walk(_ArrayRows(return_values), [_product_moment(k)], n_batches)[0]


# ---------------------------------------------------------------------------
# Closed-form return solution check


@dataclass(frozen=True)
class ReconstructionCheck:
    """Worst deviation between the simulated path and its MA expansion."""

    depth: int
    max_deviation: float
    tail_bound: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tail_bound


def reconstruction_check(
    params: ModelParams,
    T: int = 200_000,
    seed: int = 0,
    depth: int = 200,
    burn_in: int = DEFAULT_BURN_IN,
) -> ReconstructionCheck:
    """Rebuild r_t from its innovations via the truncated moving-average form

        r_t = (I - A)^{-1} mu + e_t + (A - rho I) e_{t-1}
              + (a - rho) sum_{k=2}^{depth} a^{k-2} A e_{t-k}

    with (I - A)^{-1} = I + A / (1 - a) (exact, rank-one A), and report the
    maximum elementwise deviation from the recursively simulated path along
    with the geometric bound on the truncated tail. Every argument is
    checked before anything is simulated.

    One pass over the blocks of :func:`_path_blocks`, which keeps the last
    ``depth`` factor innovations g = e'w and the last innovation row across
    block edges: each block convolves its own g with the kernel in 'valid'
    mode, which gives the whole-array convolution's bits, and maps e_{t-1}
    on the whole block, so no full-length array is made.
    """
    length = _path_rows(T, burn_in)
    depth = _integer(depth, "depth", 2, ParameterError)
    first = max(burn_in, depth)
    if first >= length:
        raise ParameterError(f"burn_in + T = {length} leaves no rows past depth {depth}")
    a, rho, alpha, n = params.a, params.rho, params.alpha, params.n
    c = a - rho
    kernel = a ** np.arange(depth - 1)  # exponents 0 .. depth-2 for k = 2 .. depth
    lag_map = (params.impact_matrix - rho * np.eye(n)).T

    deviation = scale = g_max = 0.0
    g_kept, e_prev = np.empty(0), np.zeros(n)  # g before the block; e_{-1} = 0
    for start, stop, rows, e in _path_blocks(params, length, seed, innovations=True):
        g = np.concatenate((g_kept, _project(e, params.w)))  # g[start - len(g_kept) : stop]
        g_max = max(g_max, float(np.max(np.abs(g[len(g_kept):]))))
        lagged = np.concatenate((e_prev[None], e[:-1])) @ lag_map  # on the whole block
        e_prev = e[-1].copy()
        t0 = max(start, first)
        if t0 < stop:
            # conv[t - 2] for t in [t0, stop), the full convolution's own bits
            base = start - len(g_kept)
            conv = np.convolve(g[t0 - depth - base : stop - 2 - base], kernel, "valid")
            recon = np.empty((stop - t0, n))
            recon[:] = params.mean_returns
            recon += e[t0 - start :]
            recon += lagged[t0 - start :]
            recon += np.outer(c * alpha * conv, params.w)
            kept = rows[t0 - start :]
            deviation = max(deviation, float(np.max(np.abs(kept - recon))))
            scale = max(scale, float(np.max(np.abs(kept))))
        g_kept = g[-depth:]
    float_floor = 1e-12 * (1.0 + scale)
    # a = 0 leaves no tail: a ** (depth - 1) is then exactly 0
    tail = (
        abs(c)
        * alpha
        * float(np.max(np.abs(params.w)))
        * g_max
        * a ** (depth - 1)
        / (1.0 - a)
    )
    return ReconstructionCheck(depth, deviation, tail + float_floor)


# ---------------------------------------------------------------------------
# Covariance identity between factor and stock momentum PNLs


@dataclass(frozen=True)
class CovarianceCheck:
    """Both sides of cov(pi^F, pi^S) = beta'beta var(pi^F) on one path.

    The PNLs here are the unmanaged products: pi^F_t = fbar_t * f_t and
    pi^S_t = rbar_t' r_t, where the bar is the (m, n) trailing sum. These
    differ from the sign-weighted tradeable strategy on purpose: the
    identity is about raw products.
    """

    lhs: float
    rhs: float
    lhs_se: float
    rhs_se: float
    diff: float
    diff_se: float

    @property
    def agrees(self) -> bool:
        return _within_3se(self.diff, self.diff_se)

    @property
    def both_positive(self) -> bool:
        return self.lhs > 3.0 * self.lhs_se and self.rhs > 3.0 * self.rhs_se


def momentum_covariance_check(
    beta: np.ndarray,
    factor: AR1Params,
    idio_vol: float,
    m: int,
    n: int,
    T: int,
    seed: int,
    burn_in: int = 100,
    n_batches: int = DEFAULT_BATCHES,
) -> CovarianceCheck:
    """Estimate both sides of the comovement identity on a one-factor panel.

    Simulates r_t = beta f_t + e_t with an AR(1) (possibly persistence-free)
    homoskedastic factor and i.i.d. idiosyncratic noise, builds the raw
    momentum products for the given (m, n), and returns the covariance of
    the two PNLs against beta'beta times the variance of the factor PNL,
    each with batch-means standard errors. Every argument is checked before
    anything is simulated.
    """
    m, n = _integer(m, "m", 1, ParameterError), _integer(n, "n", 1, ParameterError)
    beta = _numbers(beta, "beta")
    if beta.ndim != 1 or not len(beta):
        raise ParameterError("'beta' must be a non-empty 1-d vector of finite numbers")
    if not 0.0 <= _number(idio_vol, "'idio_vol'", ParameterError):
        raise ParameterError(f"'idio_vol' must be finite and >= 0, got {idio_vol!r}")
    length = _path_rows(T, burn_in) + m + n
    size = _batch_size(T + 1, n_batches)
    rng_seed = np.random.default_rng(seed)
    f = simulate_ar1(factor, length, rng_seed, burn_in=0)
    e = _path_array((length, len(beta)))
    rng_seed.standard_normal(out=e)
    e *= idio_vol
    r = np.outer(f, beta) + e

    t0 = m + n - 1
    cal = Calendar.periods(length)
    sig_f = signal(ReturnPanel(cal, ("f",), f[:, None]), m, n).values[t0:, 0]
    pf = (sig_f * f[t0:])[burn_in:]
    assets = tuple(map(str, range(len(beta))))
    sig_r = signal(ReturnPanel(cal, assets, r), m, n).values[t0:]
    ps = ((sig_r * r[t0:]).sum(axis=1))[burn_in:]

    used = size * n_batches  # of the T + 1 PNL months; the remainder is dropped
    pf, ps = pf[:used].reshape(n_batches, -1), ps[:used].reshape(n_batches, -1)
    dpf, dps = pf - pf.mean(), ps - ps.mean()
    bpb = float(beta @ beta)
    lhs_b = (dpf * dps).mean(axis=1)
    rhs_b = bpb * (dpf * dpf).mean(axis=1)
    lhs, lhs_se = _mean_se(lhs_b)
    rhs, rhs_se = _mean_se(rhs_b)
    diff, diff_se = _mean_se(lhs_b - rhs_b)
    return CovarianceCheck(*map(float, (lhs, rhs, lhs_se, rhs_se, diff, diff_se)))


# ---------------------------------------------------------------------------
# Verification battery


@dataclass(frozen=True)
class VerificationCheck:
    """One lhs-vs-rhs comparison; ``passed`` is None for informational rows."""

    name: str
    lhs: float
    rhs: float
    se: float | None
    mode: str  # "3se" | "rel" | "bound" | "info"
    passed: bool | None
    note: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[VerificationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.passed is not None)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checks": [c.to_dict() for c in self.checks]}


def _rel_close(lhs: float, rhs: float) -> bool:
    """Agreement of two closed forms to 1e-12, relative above magnitude 1."""
    return abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


def _three_se_row(name: str, target, estimate, se) -> VerificationCheck:
    """A "3se" row for a scalar or matrix moment; a scalar is the 1x1 case.

    The row shows the element with the largest |z|, named in the note for a
    matrix, and passes only if every element lies within 3 SE.
    """
    tgt, est, se_ = (np.atleast_2d(x) for x in (target, estimate, se))
    z = np.abs(est - tgt) / np.maximum(se_, 1e-300)
    i, j = np.unravel_index(int(np.argmax(z)), z.shape)
    matrix = np.ndim(estimate) == 2
    note = f"worst element ({i},{j}) of {z.shape[0]}x{z.shape[1]}" if matrix else ""
    return VerificationCheck(
        name, float(est[i, j]), float(tgt[i, j]), float(se_[i, j]), "3se",
        _within_3se(est - tgt, se_), note,
    )


def _rel_row(name: str, lhs: float, rhs: float, note: str) -> VerificationCheck:
    return VerificationCheck(name, lhs, rhs, None, "rel", _rel_close(lhs, rhs), note)


def _autocovariance_rows(params: ModelParams, moments: list) -> list[VerificationCheck]:
    """The 3-SE rows of the sample Omega_1.. (estimate, se) pairs ``moments``."""
    omegas = autocovariance_matrices(params, len(moments))
    return [_three_se_row(f"autocovariance_k{k}", omegas.omega(k), *moment)
            for k, moment in enumerate(moments, start=1)]


def check_autocovariances(
    params: ModelParams, return_values: np.ndarray, k_max: int
) -> list[VerificationCheck]:
    """Elementwise 3-SE comparison of sample vs closed-form Omega_1..k_max."""
    return _autocovariance_rows(
        params, sample_autocovariance(return_values, range(1, k_max + 1)))


def _simulated_moments(params: ModelParams, T: int, seed: int, k_max: int,
                       burn_in: int = DEFAULT_BURN_IN) -> list:
    """The Monte Carlo moments of :func:`verify_model` on the path
    ``simulate(params, T, seed, burn_in)``, with the bits of
    ``sample_autocovariance(R, 1..k_max)``, ``factor_moment_mc(F, 1..VERIFY_FACTOR_K)``
    and ``stock_moment_mc(R, 1..VERIFY_STOCK_K)``, in that order, without the
    (T, N) array.

    Pass 1 walks the path's blocks once into a ring of two, recording the
    :class:`_Tape` and adding the kept rows into R's column sums in t order,
    the order of ``R.mean(axis=0)``, the running sum folded into each
    block's first kept row. One asset is the exception: numpy sums a
    one-column array pairwise, not in t order, so its kept column is held
    (8 bytes a row) and summed whole. Pass 2 replays the path for one batch
    walk (:class:`_Replay`) that feeds all three estimators.
    """
    length, tape, sums = _path_rows(T, burn_in), _Tape(), None
    column = _path_array((T, 1)) if params.n == 1 else None
    for start, stop, rows, _ in _path_blocks(params, length, seed, tape=tape):
        kept = rows[max(burn_in - start, 0) :]
        if column is not None:
            column[stop - burn_in - len(kept) : stop - burn_in] = kept
        elif len(kept):
            if sums is not None:
                kept[0] += sums
            sums = np.add.reduce(kept, axis=0)
    del rows, kept  # views of pass 1's ring of blocks, which pass 2 need not hold
    if column is not None:
        sums = np.add.reduce(column, axis=0)
    moments = [_autocovariance_moment(range(1, k_max + 1)),
               _product_moment(range(1, VERIFY_FACTOR_K + 1), params.w),
               _product_moment(range(1, VERIFY_STOCK_K + 1))]
    return _lead_lag_walk(_Replay(params, tape, length, burn_in, sums), moments, DEFAULT_BATCHES)


def verify_model(
    params: ModelParams,
    seed: int,
    T: int = 1_000_000,
    k_max: int = 3,
    eq3: dict | None = None,
) -> VerificationReport:
    """Run the full closed-form-vs-Monte-Carlo battery on one parameter set.

    Enforced checks: elementwise autocovariance agreement at 3 SE for lags
    1..k_max, the factor (lags 1..VERIFY_FACTOR_K) and stock (lags
    1..VERIFY_STOCK_K) momentum moments at 3 SE, the two-path identity
    w'Omega_k w = momentum term at 1e-12, exact geometric decay of the
    momentum term, and the truncated-solution bound of
    :func:`reconstruction_check` at its defaults on seed + 1. Informational
    rows report the reduced stock-momentum expressions (variance part, and
    with the plain mu'mu mean term) without affecting the verdict. ``eq3`` is
    an optional dict of keyword arguments for
    :func:`momentum_covariance_check`, which runs before the battery, so its
    argument checks fire before any large draw, and reports as the last row.

    The moments are those of the public estimators on ``simulate(params, T,
    seed)``, bit for bit, taken in two passes over the path's blocks (see
    :func:`_simulated_moments`), so the peak memory is a carry of N + 1
    floats a block and a few batch windows, not the (T, N) panel.

    Raises :class:`ParameterError` before simulating anything when T leaves
    fewer than ``DEFAULT_BATCHES`` observations at the largest lag checked.
    """
    T = _integer(T, "T", error=ParameterError)
    k_max = _integer(k_max, "k_max", 1, ParameterError)
    k_top = max(k_max, VERIFY_FACTOR_K)
    if T - k_top < DEFAULT_BATCHES:
        raise ParameterError(
            f"T = {T} with k_max = {k_max}: the largest lag checked, {k_top}, leaves "
            f"{T - k_top} observations for {DEFAULT_BATCHES} batches; "
            f"need T >= {k_top + DEFAULT_BATCHES}"
        )
    _path_rows(T, DEFAULT_BURN_IN)  # a T numpy cannot index stops here, before any draw
    # each on its own path (reconstruction on seed + 1); a T too large for
    # pass 1's carries stops before any draw
    cov = None if eq3 is None else momentum_covariance_check(**eq3)
    autocov, factor, stock = _simulated_moments(params, T, seed, k_max)
    recon = reconstruction_check(params, seed=seed + 1)
    omegas = autocovariance_matrices(params, max(k_max, VERIFY_FACTOR_K, VERIFY_STOCK_K))

    checks = _autocovariance_rows(params, autocov)
    for k, mc in enumerate(factor, start=1):
        moment = expected_factor_momentum(params, k)
        checks += [
            _three_se_row(f"factor_momentum_k{k}", moment.total, *mc),
            _rel_row(
                f"factor_momentum_two_path_k{k}",
                float(params.w @ omegas.omega(k) @ params.w),
                moment.momentum_term,
                "w'Omega_k w vs scalar momentum term",
            ),
        ]

    for k in range(1, VERIFY_FACTOR_K):
        checks.append(_rel_row(
            f"momentum_decay_k{k}",
            expected_factor_momentum(params, k + 1).momentum_term,
            params.a * expected_factor_momentum(params, k).momentum_term,
            "momentum term decays geometrically at rate a",
        ))

    for k, (mc, se) in enumerate(stock, start=1):
        moment = expected_stock_momentum(params, k, omegas)
        plain = moment.reduced_term + moment.drift_term
        checks += [
            _three_se_row(f"stock_momentum_k{k}", moment.total, mc, se),
            VerificationCheck(
                f"stock_momentum_reduced_k{k}", moment.reduced_term, moment.trace_term,
                None, "info", None,
                "reduced scalar form vs tr(Omega_k); "
                f"agree={_rel_close(moment.reduced_term, moment.trace_term)}",
            ),
            VerificationCheck(
                f"stock_momentum_plain_drift_k{k}", plain, mc, se, "info", None,
                "reduced form with plain mu'mu mean term vs Monte Carlo; "
                f"agree={_within_3se(plain - mc, se)}",
            ),
        ]

    checks.append(
        VerificationCheck(
            "return_solution",
            recon.max_deviation,
            recon.tail_bound,
            None,
            "bound",
            recon.passed,
            f"max deviation vs geometric tail bound at depth {recon.depth}",
        )
    )

    if cov is not None:
        # the verdict adds one-sided positivity to the rule on the batchwise
        # difference, so this row is built from the check, not from its sides
        checks.append(
            VerificationCheck(
                "momentum_covariance",
                cov.lhs,
                cov.rhs,
                cov.diff_se,
                "3se",
                cov.agrees and cov.both_positive,
                "cov(factor pnl, stock pnl) vs beta'beta var(factor pnl); "
                "requires agreement and positivity at 3 SE",
            )
        )

    return VerificationReport(tuple(checks))
