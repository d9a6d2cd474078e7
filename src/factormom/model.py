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
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .analytics import AR1Params, NonStationaryError
from .momentum import signal
from .panel import Calendar, NamedSeries, ReturnPanel, _integer, _number, _pool

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
# rows per piece of the moment accumulator's grid, cut from each batch edge
# (see _LeadLag); set apart from _BLOCK_ROWS, so no moment bit follows it
_GRID_ROWS = 1 << 10
# leading rows whose mean shifts a series before its autocovariance products
_SHIFT_ROWS = 1 << 10


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
    draw thread. Past 64 assets such sub-blocks would be smaller and each
    would read the whole root again, so a block takes one gemm. A row's bits
    do not depend on the rows multiplied with it (see :func:`_row_blocks`)."""
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


def _path_blocks(params: ModelParams, length: int, seed, innovations: bool = False):
    """Yield ``(start, stop, rows, e)`` for each block of a path of ``length``
    rows started from the unconditional mean with e_{-1} = 0: ``rows`` holds
    the block's finished returns and ``e``, with ``innovations``, its
    innovations, else None. Both are valid until the next block is asked for.

    The rows are drawn into a ring of two block buffers. One pass over row
    blocks (:func:`_row_blocks`) that carries e_{t-1} and the AR(1) state
    across block edges, with x = eps'w by :func:`_project`: every row is
    bit-identical to the whole-array formulas at any block size and any BLAS
    thread count. Each row is drawn once: a caller reads the path as it
    passes, and nothing can resume it.

    One helper thread draws block b + 1's standard normals in place while
    this thread forms eps, projects and runs the AR(1) for block b, and
    while the caller reads it. The draws are one stream taken in block
    order, so no bit depends on the thread that draws them.
    """
    rng = np.random.default_rng(seed)
    blocks = _row_blocks(0, length)  # walked lazily, one block ahead
    start, stop = next(blocks)
    state, e_last = params.factor_mean, None
    transform = _root_map(params.sigma)
    widest = min(length, max(_BLOCK_ROWS, 2) + 1)  # a block takes at most one row more
    ring = np.empty((2, widest, params.n))
    e_buf = np.empty((widest, params.n)) if innovations else None

    def draw(b, lo, hi):
        return pool.submit(rng.standard_normal, out=ring[b % 2, : hi - lo])

    with _pool(1) as pool:
        drawn = draw(0, start, stop)
        for b in itertools.count():
            drawn.result()  # block b's innovations are in place
            ahead = next(blocks, None)
            if ahead is not None:
                drawn = draw(b + 1, *ahead)
            rows = ring[b % 2, : stop - start]
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


@dataclass
class _Group:
    """The lags of one batch size in a :class:`_LeadLag`: ``lags[i]`` of its
    moment i, each read with ``top`` rows after its lag rows, the moments'
    sums, and the group's (batch, lo, hi) pieces, ``at`` the next to add."""

    size: int
    lags: dict
    top: int
    sums: dict
    pieces: object
    at: tuple | None


def _shift(lead: np.ndarray) -> np.ndarray:
    """c of the shifted-data autocovariances: the column mean of a series'
    first rows ``lead``. It lies near the series' mean, so the products of
    x - c and their centring cancel no digits, whatever that mean is."""
    return lead.mean(axis=0)


def _pieces(size: int, n_batches: int):
    """(b, lo, hi) of the pieces of batches of ``size`` rows, each batch cut
    from its edge into :func:`_row_blocks` of ``_GRID_ROWS`` rows."""
    for b in range(n_batches):
        for lo, hi in _row_blocks(b * size, (b + 1) * size, _GRID_ROWS):
            yield b, lo, hi


class _LeadLag:
    """The one accumulator of the Monte Carlo moment estimators. It takes
    the T rows of a (T, N) series in blocks of any size, in t order
    (:meth:`add`), and reads out (:meth:`result`) the ``autocov`` lags of
    :func:`sample_autocovariance` and, for each ``(k, w)`` of ``products``,
    the lags of :func:`stock_moment_mc` on the rows, or on their projection
    ``_project(rows, w)`` when ``w`` is given.

    Every lag is read first, by the library's one integer rule
    (:func:`panel._integer`, ``lag k must be an integer, got 1.5``), then
    checked to lie in [1, T). Lags of one batch size form a group, whose
    batch b pairs each row t in [b size, (b + 1) size) with row t + lag. The
    accumulator keeps the rows it still needs across block edges and cuts
    each group's batches, from their edges, into pieces of ``_GRID_ROWS``
    rows (:func:`_row_blocks`), each read with the group's top lag of rows
    after it, so no bit depends on the blocks the rows arrive in.

    A product lag's piece adds each pair's row sum of products into the
    lag's (size,) vector of row sums, allocated up front, whose pairwise
    mean is the batch's: each row is summed alone, so the bits are those of
    the whole-array ``(x[lag:] * x[:-lag]).sum(axis=1)``. The
    autocovariances take the shifted data y = x - c, c the mean of the
    first ``_SHIFT_ROWS`` rows (Chan, Golub & LeVeque 1983), formed once a
    row as it arrives. One einsum of a piece's rows [y_t, 1] against the
    next rows laid side by side, so lag k is column block k - 1, adds the
    batch's uncentred products S_b, its lag-row and lead-row sums L_b and
    M_b and its count. The mean ybar of y, summed on pieces of its own, then
    centres each batch at the read-out: S_b - L_b ybar' - ybar M_b' + size
    ybar ybar'. With c near the mean the correction is small, so nothing
    cancels. No kernel calls BLAS, and only the buffers the moments use are
    made: the rows and a piece's row products for the product moments, the
    [y, 1] rows for the autocovariances.
    """

    def __init__(self, T: int, N: int, n_batches: int, autocov=None, products=()):
        self.moments = ([] if autocov is None else [(autocov, None, True)]) + [
            (k, w, False) for k, w in products]
        self.lag_sets = [[_integer(lag, "lag k", error=ParameterError)
                          for lag in (k if np.ndim(k) else [k])] for k, _, _ in self.moments]
        members = {}
        for i, lags in enumerate(self.lag_sets):
            for lag in lags:
                if not 1 <= lag < T:
                    raise ParameterError(f"need 1 <= k < {T}, got {lag}")
                size = _batch_size(T - lag, n_batches)
                members.setdefault(size, {}).setdefault(i, []).append(lag)
        self.T, self.N, W = T, N, N + 1
        self.groups = []
        for size, lags in members.items():
            sums = {i: np.zeros((n_batches, W, max(group) * W)) if self.moments[i][2]
                    else (_path_array((len(group), size)), np.empty((len(group), n_batches)))
                    for i, group in lags.items()}
            pieces = _pieces(size, n_batches)
            self.groups.append(_Group(size, lags, max(map(max, lags.values())), sums, pieces,
                                      next(pieces)))
        top = max((g.top for g in self.groups), default=0)
        piece = max(_GRID_ROWS, 2) + 1  # the most rows a piece takes
        centred = autocov is not None
        self.lead = min(T, _SHIFT_ROWS) if centred else 0  # the rows c needs
        # the shift's rows, then at least a row more than a piece and its leads
        self.rows = min(T, max(self.lead, piece + top + 1))
        self.base = self.filled = 0  # the buffers hold rows base .. base + filled
        self.x = np.empty((self.rows, N)) if products else None
        self.y = np.ones((self.rows, W)) if centred else None  # [x - c, 1]; x until c is known
        # the [y, 1] rows after each row laid side by side, per top lag, so
        # lag k is column block k - 1
        self.leads = {max(g.lags[0]): sliding_window_view(
            self.y.reshape(-1)[W:], max(g.lags[0]) * W)[::W]
            for g in self.groups if centred and 0 in g.lags}
        self.products = np.empty((min(T, piece), N)) if products else None  # of a piece
        self.c, self.total = None, np.zeros(N)
        self.summed = _row_blocks(0, T if centred else 0, _GRID_ROWS)  # ybar's pieces
        self.sum_at = next(self.summed, None)

    def add(self, rows: np.ndarray) -> None:
        """Take the series' next rows."""
        while len(rows):
            if self.filled == self.rows:
                self._drop()
            take = min(len(rows), self.rows - self.filled)
            at = slice(self.filled, self.filled + take)
            if self.x is not None:
                self.x[at] = rows[:take]
            if self.c is not None:
                np.subtract(rows[:take], self.c, out=self.y[at, : self.N])
            elif self.y is not None:
                self.y[at, : self.N] = rows[:take]
            self.filled += take
            rows = rows[take:]
            self._advance()

    def _drop(self) -> None:
        """Move the rows some piece still needs to the front of the buffers."""
        needed = [g.at[1] for g in self.groups if g.at is not None]
        if self.sum_at is not None:
            needed.append(self.sum_at[0])
        first = min(needed, default=self.base + self.filled) - self.base
        for buf in (self.x, self.y):
            if buf is not None:
                buf[: self.filled - first] = buf[first : self.filled]
        self.base += first
        self.filled -= first

    def _advance(self) -> None:
        """Add every piece whose rows have all arrived, once c is known."""
        have = self.base + self.filled
        if have < self.lead:  # c is not known yet
            return
        if self.c is None and self.lead:
            self.c = _shift(self.y[: self.lead, : self.N])
            self.y[: self.filled, : self.N] -= self.c
        while self.sum_at is not None and self.sum_at[1] <= have:
            lo, hi = self.sum_at
            self.total += np.add.reduce(self.y[lo - self.base : hi - self.base, : self.N], axis=0)
            self.sum_at = next(self.summed, None)
        for g in self.groups:
            while g.at is not None and g.at[2] + g.top <= have:
                self._piece(g, *g.at)
                g.at = next(g.pieces, None)

    def _piece(self, g: _Group, b: int, lo: int, hi: int) -> None:
        """Add the pairs of rows lo .. hi of batch b to each moment of g."""
        n, o = hi - lo, lo - self.base  # o: the piece's first row in the buffers
        at = lo - b * g.size  # the piece's first pair in its batch
        for i, lags in g.lags.items():
            _, w, centred = self.moments[i]
            if centred:
                leads = self.leads[max(lags)]
                g.sums[i][b] += np.einsum("sj,sm->jm", self.y[o : o + n], leads[o : o + n])
                continue
            sums, per_batch = g.sums[i]
            rows = self.x[o : o + n + g.top]
            x = rows if w is None else _project(rows, w)[:, None]
            for j, lag in enumerate(lags):
                products = np.multiply(x[lag : lag + n], x[:n],
                                       out=self.products[:n, : x.shape[1]])
                np.add.reduce(products, axis=1, out=sums[j, at : at + n])
                if at + n == g.size:  # the batch is complete
                    per_batch[j, b] = sums[j].mean()

    def result(self) -> list:
        """For each moment, its (estimate, se) per lag, in a list for a
        sequence of lags: a pair of floats for a product moment."""
        self.x = self.y = self.leads = self.products = None  # the read-out needs none
        found = [{} for _ in self.moments]
        for g in self.groups:
            for i, lags in g.lags.items():
                for j, lag in enumerate(lags):
                    if lag in found[i]:
                        continue  # a lag asked for twice: it is centred in place
                    if self.moments[i][2]:
                        found[i][lag] = self._autocovariance(g, i, lag)
                    else:
                        mean, se = _mean_se(g.sums[i][1][j])
                        found[i][lag] = (float(mean), float(se))
        out = [[found[i][lag] for lag in lags] for i, lags in enumerate(self.lag_sets)]
        return [got if np.ndim(k) else got[0] for got, (k, _, _) in zip(out, self.moments)]

    def _autocovariance(self, g: _Group, i: int, lag: int) -> tuple:
        """(estimate, se) of the lag of autocovariance moment i, two (N, N)
        matrices with estimate[i, j] pairing the lead at i with the lag at j:
        each batch's sums of [y_t, 1] against [y_{t+lag}, 1] centred on ybar.
        Each lag is read once, so it is centred in place in the sums, a batch
        at a time, and its mean and SE are taken a row at a time: no
        temporary holds all batches."""
        N, W = self.N, self.N + 1
        block = g.sums[i][:, :, (lag - 1) * W : lag * W]
        s, lagged, lead = block[:, :N, :N], block[:, :N, N], block[:, N, :N]
        ybar = self.total / self.T
        square = g.size * np.outer(ybar, ybar)
        for b, centred in enumerate(s):
            centred -= lagged[b, :, None] * ybar
            centred -= ybar[:, None] * lead[b]
            centred += square
            centred /= g.size
        rows = [_mean_se(s[:, j]) for j in range(N)]  # the lag at j, by lead
        return np.column_stack([m for m, _ in rows]), np.column_stack([e for _, e in rows])


def _array_moments(values, n_batches: int, **moments) -> list:
    """:meth:`_LeadLag.result` on ``values``, a (T, N) array or a series as
    one column, fed in :func:`_row_blocks`. Each block is copied into the
    accumulator, so no bit depends on the input's memory order and the
    input is only ever read."""
    x = np.asarray(values, float)
    if x.ndim not in (1, 2):
        raise ParameterError(f"need a 1-d series or a (T, N) array, got {x.ndim} dimensions")
    x = x[:, None] if x.ndim == 1 else x
    moments = _LeadLag(len(x), x.shape[1], n_batches, **moments)
    for lo, hi in _row_blocks(0, len(x)):
        moments.add(x[lo:hi])
    return moments.result()


def sample_autocovariance(
    values: np.ndarray, k: int | Sequence[int], n_batches: int = DEFAULT_BATCHES
) -> tuple | list[tuple]:
    """Sample estimate of E[(x_t - m)(x_{t-k} - m)'] with per-element
    batch-means standard errors.

    Returns ``(estimate, se)``; both are scalars for a 1-d input and (N, N)
    matrices for a (T, N) input, oriented so estimate[i, j] pairs the lead
    at i with the lag at j. Given a sequence of lags for ``k``, it returns a
    list with one ``(estimate, se)`` per lag, each bit-identical to its own
    call. The products are those of the data shifted by the mean of its
    first rows, centred per batch afterwards (see :class:`_LeadLag`).
    """
    got = _array_moments(values, n_batches, autocov=k)[0]
    if np.ndim(values) != 1:
        return got

    def scalar(moment):
        return float(moment[0][0, 0]), float(moment[1][0, 0])

    return [scalar(moment) for moment in got] if np.ndim(k) else scalar(got)


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
    return _array_moments(return_values, n_batches, products=[(k, None)])[0]


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
    (T, N) array: one :class:`_LeadLag`, allocated before any block is
    drawn, takes the kept rows of each block of :func:`_path_blocks` as it
    passes, so each row is drawn once."""
    length = _path_rows(T, burn_in)
    moments = _LeadLag(T, params.n, DEFAULT_BATCHES, autocov=range(1, k_max + 1),
                       products=[(range(1, VERIFY_FACTOR_K + 1), params.w),
                                 (range(1, VERIFY_STOCK_K + 1), None)])
    for start, _, rows, _ in _path_blocks(params, length, seed):
        moments.add(rows[max(burn_in - start, 0) :])
    del rows  # a view of the path's ring of blocks, which the read-out need not hold
    return moments.result()


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
    seed)``, bit for bit, taken in one pass over the path's blocks (see
    :func:`_simulated_moments`), so the peak memory is a few blocks and
    pieces and the product moments' per-lag row sums of one batch, not the
    (T, N) panel.

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
    # the moments' row sums stops before any draw
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
