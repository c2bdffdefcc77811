"""Sliding-window statistical feature catalog for the residual series.

The catalog is fixed and bit-stable: 76 named columns in nine groups
(descriptive, FFT coefficients, spectral moments, autocorrelation, template
entropies, permutation entropy, Fourier entropy, trend, change quantiles).
extract_stat_features builds only the groups that hold the columns asked
for, over all windows at once, column block by column block as in tsfresh:
the (n_windows, window) stack from sliding_window_view is reduced along
axis 1, and the built groups share their reductions. One row sum gives the
sum, the mean and the centered windows; one sort gives the median and the
change-quantile bands; one rfft the coefficient block; one periodogram the
spectral moments and the Fourier entropy. The ACF is row-wise dot products
and the PACF a batched Durbin-Levinson recursion; the template entropies
come from a (windows, templates, templates) Chebyshev distance tensor, and
the regression is in closed form.

Each row goes through the reductions a one-window call uses (a shared
reduction is computed as np.mean, np.var, np.median or np.quantile compute
it), so it has the same bits in any batch and for any selection, and the
discrete decisions (var > 0, the entropy tolerance, match counts, quantile
masks, ordinal patterns) are taken exactly as for one window.

Window rows depend only on the values inside their own window; the row
index is the window's end position in the source series. Non-finite values
(e.g. skewness of a constant window) are imputed to 0 by the FeatureMatrix
and flagged, so the downstream variance filter sees dead columns instead of
NaNs.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .feature_matrix import FeatureMatrix
from .series import TimeSeries

N_FFT_COEFS = 8
N_ACF_LAGS = 8
CHANGE_QUANTILE_BANDS = ((0.0, 0.2), (0.2, 0.8), (0.8, 1.0))
# the lag-N_ACF_LAGS autocorrelation needs more than twice as many values
MIN_WINDOW = 2 * N_ACF_LAGS + 1
TEMPLATE_LENGTH = 2  # sample and approximate entropy
PERMUTATION_ORDER = 3
FOURIER_BINS = 10
# np.histogram's bin edges over [0, 1]
_FOURIER_EDGES = np.linspace(0.0, 1.0, FOURIER_BINS + 1)
_EPS = np.finfo(float).eps


def _catalog_names() -> tuple[str, ...]:
    names = [
        "sum",
        "mean",
        "median",
        "std",
        "variance",
        "skewness",
        "kurtosis",
        "rms",
        "abs_energy",
        "mean_abs_change",
        "mean_second_derivative_central",
    ]
    for k in range(N_FFT_COEFS):
        names += [f"fft_{k}_real", f"fft_{k}_imag", f"fft_{k}_abs", f"fft_{k}_angle"]
    names += ["spectral_centroid", "spectral_variance", "spectral_skewness", "spectral_kurtosis"]
    names += [f"acf_lag_{k}" for k in range(1, N_ACF_LAGS + 1)]
    names += [f"pacf_lag_{k}" for k in range(1, N_ACF_LAGS + 1)]
    names += ["acf_agg_mean", "acf_agg_std"]
    names += ["sample_entropy", "approximate_entropy", "permutation_entropy", "fourier_entropy"]
    names += ["trend_slope", "trend_intercept", "trend_r2", "trend_slope_stderr"]
    names += [f"change_quantiles_{lo}_{hi}" for lo, hi in CHANGE_QUANTILE_BANDS]
    return tuple(names)


CATALOG = _catalog_names()
_POSITION = {name: j for j, name in enumerate(CATALOG)}


def _sum_present(terms: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Row sums over the present cells, in column order.

    Each row is summed as ``np.sum`` sums the 1-d array of that row's present
    cells (numpy's pairwise order depends on the length), so a sum taken over
    a batch has the bits of the same sum taken over one window. Rows with
    the same count are summed together, as one contiguous block.
    """
    counts = present.sum(axis=1)
    order = np.argsort(counts, kind="stable")
    # each row's present cells in column order, the rows by count
    cells = terms[order][present[order]]
    out = np.zeros(terms.shape[0])
    row = cell = 0
    for k, group in itertools.groupby(counts[order].tolist()):
        m = len(list(group))
        if k:
            out[order[row : row + m]] = cells[cell : cell + m * k].reshape(m, k).sum(axis=1)
        row, cell = row + m, cell + m * k
    return out


def _plogp(counts: np.ndarray, total) -> tuple[np.ndarray, np.ndarray]:
    """Shannon terms p*log(p) of per-row counts, and the mask of nonzero counts."""
    present = counts > 0
    p = counts / total
    return p * np.log(np.where(present, p, 1.0)), present


class _Windows:
    """The (n_windows, window) stack and the reductions its groups share,
    each computed on first use with the arithmetic of the numpy call it
    stands for."""

    def __init__(self, X: np.ndarray):
        self.X = X
        self.w = X.shape[1]

    @functools.cached_property
    def sum(self) -> np.ndarray:
        return self.X.sum(axis=1)

    @functools.cached_property
    def mean(self) -> np.ndarray:
        return self.sum / self.w  # np.mean: the row sum over the count

    @functools.cached_property
    def centered(self) -> np.ndarray:
        return self.X - self.mean[:, None]

    @functools.cached_property
    def sq_dev(self) -> np.ndarray:
        return self.centered * self.centered

    @functools.cached_property
    def var(self) -> np.ndarray:
        return self.sq_dev.sum(axis=1) / self.w  # np.var, ddof 0

    @functools.cached_property
    def sorted(self) -> np.ndarray:
        return np.sort(self.X, axis=1)

    @functools.cached_property
    def step(self) -> np.ndarray:
        return np.abs(np.diff(self.X, axis=1))

    @functools.cached_property
    def periodogram(self) -> np.ndarray:
        """|rfft|^2 of the centered windows without the (zero) DC bin."""
        return (np.abs(np.fft.rfft(self.centered, axis=1)) ** 2)[:, 1:]


def _descriptive(win: _Windows, out: np.ndarray) -> None:
    # scipy.stats skew/kurtosis (biased, Fisher) in scipy's order of
    # operations; NaN where scipy finds a window near-constant,
    # m2 <= (eps * mean)**2, which constant windows (var == 0) are
    X, w, d, d2 = win.X, win.w, win.centered, win.sq_dev
    m2 = win.var
    m3 = (d2 * d).sum(axis=1) / w
    m4 = (d2 * d2).sum(axis=1) / w
    live = m2 > (_EPS * win.mean) ** 2
    energy = (X * X).sum(axis=1)
    h = w // 2
    out[:, 0] = win.sum
    out[:, 1] = win.mean
    # np.median: the mean of the middle value, or of the middle two
    out[:, 2] = np.mean(win.sorted[:, h - 1 + w % 2 : h + 1], axis=1)
    out[:, 3] = np.sqrt(m2)
    out[:, 4] = m2
    out[:, 5] = np.where(live, m3 / m2**1.5, math.nan)
    out[:, 6] = np.where(live, m4 / m2**2.0 - 3, math.nan)
    out[:, 7] = np.sqrt(energy / w)
    out[:, 8] = energy
    out[:, 9] = win.step.sum(axis=1) / (w - 1)
    out[:, 10] = np.mean((X[:, 2:] - 2 * X[:, 1:-1] + X[:, :-2]) / 2.0, axis=1)


def _fft_coefficients(win: _Windows, out: np.ndarray) -> None:
    coefs = np.fft.rfft(win.X, axis=1)[:, :N_FFT_COEFS]
    out[:, 0::4] = coefs.real
    out[:, 1::4] = coefs.imag
    out[:, 2::4] = np.abs(coefs)
    out[:, 3::4] = np.angle(coefs)


def _spectral_moments(win: _Windows, out: np.ndarray) -> None:
    # moments of the demeaned periodogram over frequency-bin index;
    # spectral kurtosis is excess, matching the rest of the catalog
    ps = win.periodogram
    total = ps.sum(axis=1, keepdims=True)
    k = np.arange(1, ps.shape[1] + 1, dtype=float)
    w = ps / total
    c = np.sum(k * w, axis=1, keepdims=True)
    var = np.sum((k - c) ** 2 * w, axis=1, keepdims=True)
    z = (k - c) / np.sqrt(var)
    live = total[:, 0] > 0.0
    spread = live & (var[:, 0] > 0.0)
    out[:, 0] = np.where(live, c[:, 0], 0.0)
    out[:, 1] = np.where(live, var[:, 0], 0.0)
    out[:, 2] = np.where(spread, np.sum(z**3 * w, axis=1), math.nan)
    out[:, 3] = np.where(spread, np.sum(z**4 * w, axis=1) - 3.0, math.nan)


def _autocorrelation(win: _Windows, out: np.ndarray) -> None:
    """The biased ACF and the Durbin-Levinson PACF (the oracle's
    acf_values / pacf_values in tests/oracles.py) at lags 1..N_ACF_LAGS of
    every window at once; NaN where var == 0. Each row-wise dot product
    (np.vecdot) takes np.dot's path, so each row has the bits of np.dot on
    that window."""
    n_win, n = win.X.shape
    L = N_ACF_LAGS
    xc = win.centered
    c0 = np.vecdot(xc, xc) / n
    rho = np.ones((n_win, L + 1))
    for k in range(1, L + 1):
        rho[:, k] = (np.vecdot(xc[:, k:], xc[:, :-k]) / n) / c0
    rev = rho[:, ::-1].copy()  # rho[:, k - 1 : 0 : -1] is rev[:, L + 1 - k : L]
    pacf = out[:, L : 2 * L]
    pacf[:, 0] = rho[:, 1]
    # phi[:, :k] holds the order-k coefficients
    phi = np.empty((n_win, L))
    phi[:, 0] = rho[:, 1]
    for k in range(2, L + 1):
        prev = phi[:, : k - 1]
        num = rho[:, k] - np.vecdot(prev, rev[:, L + 1 - k : L])
        den = 1.0 - np.vecdot(prev, rho[:, 1:k])
        phi_kk = np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)
        prev -= phi_kk[:, None] * prev[:, ::-1]
        phi[:, k - 1] = pacf[:, k - 1] = phi_kk
    lags = rho[:, 1:]
    # np.mean and np.std of the lags
    mean = lags.sum(axis=1) / L
    dev = lags - mean[:, None]
    out[:, :L] = lags
    out[:, 2 * L] = mean
    out[:, 2 * L + 1] = np.sqrt((dev * dev).sum(axis=1) / L)
    out[win.var <= 0] = math.nan


def _match_counts(X: np.ndarray, m: int, r: np.ndarray) -> list[np.ndarray]:
    """Per window, template length (m, then m + 1) and template: the number of
    templates, itself included, within Chebyshev distance r[window].

    The (windows, templates, templates) distance tensor of length k + 1 is
    the elementwise maximum of length k's tensor and the values' pairwise
    distances shifted by k along both template axes.
    """
    n = X.shape[1]
    diff = np.abs(X[:, :, None] - X[:, None, :])
    lim = r[:, None, None]
    dist = diff[:, : n - m + 1, : n - m + 1]
    for k in range(1, m):
        dist = np.maximum(dist, diff[:, k : n - m + 1 + k, k : n - m + 1 + k])
    longer = np.maximum(dist[:, :-1, :-1], diff[:, m:, m:])
    return [_count_within(dist, lim), _count_within(longer, lim)]


def _count_within(dist: np.ndarray, lim: np.ndarray) -> np.ndarray:
    """Count of dist <= lim along the last axis, by an exact float product."""
    return ((dist <= lim) @ np.ones(dist.shape[-1])).astype(np.intp)


@functools.cache
def _log_fractions(k: int) -> np.ndarray:
    """log(j / k) for j = 0..k, with 0 for j = 0."""
    logs = np.array([math.log(j / k) if j else 0.0 for j in range(k + 1)])
    logs.setflags(write=False)  # shared by every call
    return logs


def _template_entropies(win: _Windows, out: np.ndarray) -> None:
    """Sample and approximate entropy at tolerance 0.2 * std."""
    r = 0.2 * np.sqrt(win.var)  # np.std
    counts = _match_counts(win.X, TEMPLATE_LENGTH, r)
    # sample entropy over distinct template pairs: the matrix is symmetric
    # with a matching diagonal
    b, a = ((c.sum(axis=1) - c.shape[1]) // 2 for c in counts)
    sampen = np.zeros(r.size)
    live = (r > 0.0) & (b > 0)
    sampen[live & (a == 0)] = math.inf
    both = live & (a > 0)
    sampen[both] = [-math.log(v) for v in a[both] / b[both]]
    phi = []
    for c in counts:
        k = c.shape[1]
        # cumsum adds left to right, as the one-window loop does
        phi.append(np.cumsum(_log_fractions(k)[c], axis=1)[:, -1] / k)
    out[:, 0] = sampen
    out[:, 1] = np.where(r > 0.0, phi[0] - phi[1], 0.0)


def _permutation_entropy(win: _Windows, out: np.ndarray) -> None:
    """Normalized permutation entropy of order PERMUTATION_ORDER, delay 1."""
    X, order = win.X, PERMUTATION_ORDER
    n_pat = X.shape[1] - (order - 1)
    at = np.arange(n_pat)[:, None] + np.arange(order)
    ranks = np.argsort(X[:, at], axis=2, kind="stable")
    codes = ranks @ order ** np.arange(order)
    hits = codes[:, :, None] == np.arange(order**order)
    counts = hits.sum(axis=1)
    # patterns enter the sum in order of first appearance, as in a dict
    first = np.where(counts > 0, hits.argmax(axis=1), n_pat)
    seq = np.argsort(first, axis=1, kind="stable")
    terms, present = _plogp(np.take_along_axis(counts, seq, axis=1), n_pat)
    out[:, 0] = -_sum_present(terms, present) / math.log(math.factorial(order))


def _fourier_entropy(win: _Windows, out: np.ndarray) -> None:
    """Shannon entropy of the periodogram's FOURIER_BINS-bin histogram."""
    ps = win.periodogram
    top = ps.max(axis=1, initial=0.0)
    live = top > 0.0
    u = ps[live] / top[live, None]
    # np.histogram's bins over [0, 1]: half-open, the last one closed
    idx = np.minimum(np.searchsorted(_FOURIER_EDGES, u, side="right") - 1, FOURIER_BINS - 1)
    idx += FOURIER_BINS * np.arange(len(u))[:, None]
    hist = np.bincount(idx.ravel(), minlength=len(u) * FOURIER_BINS).reshape(-1, FOURIER_BINS)
    out[:, 0] = 0.0
    out[live, 0] = -_sum_present(*_plogp(hist, ps.shape[1]))


def _trend(win: _Windows, out: np.ndarray) -> None:
    X, w = win.X, win.w
    # scipy.stats.linregress against 0..w-1; the stacked (2, w) @ (w, 2)
    # matmul takes np.cov's syrk path, window by window
    t = np.arange(w, dtype=float)
    t_mean = np.mean(t)
    pair = np.empty((X.shape[0], 2, w))
    pair[:, 0] = t - t_mean
    pair[:, 1] = win.centered
    cov = np.matmul(pair, pair.transpose(0, 2, 1))
    cov *= np.true_divide(1, w)
    ssxm, ssxym, ssym = cov[:, 0, 0], cov[:, 0, 1], cov[:, 1, 1]
    r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    slope = ssxym / ssxm
    pos = win.var > 0
    out[:, 0] = np.where(pos, slope, 0.0)
    out[:, 1] = np.where(pos, win.mean - slope * t_mean, X[:, 0])
    out[:, 2] = np.where(pos, r**2, math.nan)
    out[:, 3] = np.where(pos, np.sqrt((1 - r**2) * ssym / ssxm / (w - 2)), 0.0)


@functools.cache
def _quantile_taps(n: int, qs: tuple[float, ...]):
    """np.quantile's 'linear' method on a sorted row of n values: for each q
    the positions of the two values it interpolates between, and the
    weight, from numpy's virtual index (n - 1) * q."""
    v = np.array([(n - 1) * q for q in qs])
    lo = np.where(v >= n - 1, -1, np.floor(v)).astype(np.intp)
    taps = lo, np.where(lo >= 0, lo + 1, -1), v - lo
    for a in taps:
        a.setflags(write=False)  # shared by every call
    return taps


def _sorted_quantiles(s: np.ndarray, qs: tuple[float, ...]) -> np.ndarray:
    """np.quantile(x, q) of every row x of the row-sorted s for each q, with
    numpy's interpolation formula (its _lerp)."""
    lo, hi, gamma = _quantile_taps(s.shape[1], qs)
    a, b = s[:, lo], s[:, hi]
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)


# the change-quantile bands' lower bounds, then their upper bounds
_BAND_QUANTILES = tuple(lo for lo, _ in CHANGE_QUANTILE_BANDS) + tuple(
    hi for _, hi in CHANGE_QUANTILE_BANDS
)


def _change_quantiles(win: _Windows, out: np.ndarray) -> None:
    """Mean absolute step between consecutive values that both lie inside
    each quantile band; the bands' rows are summed as one stack."""
    X, bands = win.X, len(CHANGE_QUANTILE_BANDS)
    bounds = _sorted_quantiles(win.sorted, _BAND_QUANTILES).T[:, :, None]
    inside = (X >= bounds[:bands]) & (X <= bounds[bands:])  # (bands, windows, w)
    keep = (inside[:, :, :-1] & inside[:, :, 1:]).reshape(-1, X.shape[1] - 1)
    n_keep = keep.sum(axis=1)
    total = _sum_present(np.tile(win.step, (bands, 1)), keep)
    mean = np.divide(total, n_keep, out=np.zeros_like(total), where=n_keep > 0)
    out[:] = mean.reshape(bands, -1).T


# the column groups in CATALOG order: (width, builder of those columns)
_GROUPS = (
    (11, _descriptive),
    (4 * N_FFT_COEFS, _fft_coefficients),
    (4, _spectral_moments),
    (2 * N_ACF_LAGS + 2, _autocorrelation),
    (2, _template_entropies),
    (1, _permutation_entropy),
    (1, _fourier_entropy),
    (4, _trend),
    (len(CHANGE_QUANTILE_BANDS), _change_quantiles),
)
_GROUP_STARTS = tuple(itertools.accumulate((width for width, _ in _GROUPS), initial=0))
assert _GROUP_STARTS[-1] == len(CATALOG)
# catalog position -> index of its group
_GROUP_OF = np.repeat(np.arange(len(_GROUPS)), [width for width, _ in _GROUPS])


def _rows(X: np.ndarray, columns: tuple[str, ...]) -> np.ndarray:
    """Rows of a (n_windows, window) stack for the catalog ``columns``, in
    that order: one row per window, which depends on that window's values
    alone. Only the groups holding the columns are built; non-finite cells
    are kept."""
    X = np.ascontiguousarray(X, dtype=float)
    if X.shape[1] < MIN_WINDOW:
        raise ValueError(f"window {X.shape[1]} < 2 * N_ACF_LAGS + 1 = {MIN_WINDOW}")
    unknown = [c for c in columns if c not in _POSITION]
    if unknown:
        raise ValueError(f"not in the statistical catalog: {sorted(unknown)}")
    idx = [_POSITION[c] for c in columns]
    full = np.empty((X.shape[0], len(CATALOG)))
    win = _Windows(X)
    with np.errstate(divide="ignore", invalid="ignore"):
        for g in sorted(set(_GROUP_OF[idx].tolist())):
            _GROUPS[g][1](win, full[:, _GROUP_STARTS[g] : _GROUP_STARTS[g + 1]])
    return full if columns == CATALOG else full[:, idx]


def window_features(x: np.ndarray) -> np.ndarray:
    """All catalog features for one window, ordered as CATALOG."""
    return _rows(np.asarray(x)[None, :], CATALOG)[0]


def extract_stat_features(ts: TimeSeries, window: int = 24, columns=None) -> FeatureMatrix:
    """One catalog row per sliding window; row_index is the window end position.

    With ``columns`` (catalog names) only the groups holding them are
    computed, and the matrix has exactly those columns, in that order.
    """
    n = len(ts)
    if window > n:
        raise ValueError(f"window {window} > series length {n}")
    names = CATALOG if columns is None else tuple(columns)
    rows = _rows(np.lib.stride_tricks.sliding_window_view(ts.values, window), names)
    return FeatureMatrix(names, rows, tuple(range(window - 1, n)))
