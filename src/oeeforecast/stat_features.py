"""Sliding-window statistical feature catalog for the residual series.

The catalog is fixed and bit-stable: 76 named columns in five groups
(descriptive, frequency, autocorrelation, entropy, trend/change). It is
computed over all windows at once, column by column as in tsfresh: the
(n_windows, window) stack from sliding_window_view is reduced along axis 1
(moments, one rfft, row-wise ACF dot products and a batched Durbin-Levinson
PACF, a (windows, templates, templates) Chebyshev distance tensor for the
entropies, the regression in closed form). Each row goes through the
reductions a one-window call uses, so it has the same bits in any batch,
and the discrete decisions (var > 0, the entropy tolerance, match counts,
quantile masks, ordinal patterns) are taken exactly as for one window.

Window rows depend only on the values inside their own window; the row
index is the window's end position in the source series. Non-finite values
(e.g. skewness of a constant window) are imputed to 0 by the FeatureMatrix
and flagged, so the downstream variance filter sees dead columns instead of
NaNs.
"""

from __future__ import annotations

import math

import numpy as np

from .feature_matrix import FeatureMatrix
from .series import TimeSeries

N_FFT_COEFS = 8
N_ACF_LAGS = 8
CHANGE_QUANTILE_BANDS = ((0.0, 0.2), (0.2, 0.8), (0.8, 1.0))
# the lag-N_ACF_LAGS autocorrelation needs more than twice as many values
MIN_WINDOW = 2 * N_ACF_LAGS + 1


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


def _sum_present(terms: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Row sums over the present cells, in column order.

    Each row is summed as ``np.sum`` sums the 1-d array of that row's present
    cells (numpy's pairwise order depends on the length), so a sum taken over
    a batch has the bits of the same sum taken over one window.
    """
    out = np.zeros(terms.shape[0])
    counts = present.sum(axis=1)
    for k in np.unique(counts[counts > 0]):
        rows = counts == k
        out[rows] = terms[rows][present[rows]].reshape(-1, k).sum(axis=1)
    return out


def _plogp(counts: np.ndarray, total) -> tuple[np.ndarray, np.ndarray]:
    """Shannon terms p*log(p) of per-row counts, and the mask of nonzero counts."""
    present = counts > 0
    p = counts / total
    return p * np.log(np.where(present, p, 1.0)), present


def _tolerance(X: np.ndarray) -> np.ndarray:
    return 0.2 * np.std(X, axis=1)


def _match_counts(X: np.ndarray, m: int, r: np.ndarray) -> list[np.ndarray]:
    """Per window, template length (m, then m + 1) and template: the number of
    templates, itself included, within Chebyshev distance r[window].

    The (windows, templates, templates) distance tensor is a running maximum
    over the template offsets; length m + 1 extends length m's tensor on its
    leading block by one more offset.
    """
    n_win, n = X.shape
    t = n - m + 1
    dist = np.zeros((n_win, t, t))
    step = np.empty_like(dist)
    lim = r[:, None, None]
    counts = []
    for k in range(m + 1):
        if k == m:
            counts.append(np.count_nonzero(dist <= lim, axis=2))
            t -= 1
            dist, step = dist[:, :t, :t], step[:, :t, :t]
        seg = X[:, k : k + t]
        np.subtract(seg[:, :, None], seg[:, None, :], out=step)
        np.abs(step, out=step)
        np.maximum(dist, step, out=dist)
    counts.append(np.count_nonzero(dist <= lim, axis=2))
    return counts


def _sample_entropy(counts: list[np.ndarray], r: np.ndarray) -> np.ndarray:
    # distinct template pairs: the matrix is symmetric with a matching diagonal
    b, a = ((c.sum(axis=1) - c.shape[1]) // 2 for c in counts)
    out = np.zeros(r.size)
    live = (r > 0.0) & (b > 0)
    out[live & (a == 0)] = math.inf
    both = live & (a > 0)
    out[both] = [-math.log(v) for v in a[both] / b[both]]
    return out


def _approximate_entropy(counts: list[np.ndarray], r: np.ndarray) -> np.ndarray:
    phi = []
    for c in counts:
        k = c.shape[1]
        logs = np.array([math.log(j / k) if j else 0.0 for j in range(k + 1)])
        # cumsum adds left to right, as the one-window loop does
        phi.append(np.cumsum(logs[c], axis=1)[:, -1] / k)
    return np.where(r > 0.0, phi[0] - phi[1], 0.0)


def _permutation_entropy(X: np.ndarray, order: int, delay: int, normalize: bool) -> np.ndarray:
    n_pat = X.shape[1] - (order - 1) * delay
    at = np.arange(n_pat)[:, None] + np.arange(0, order * delay, delay)
    ranks = np.argsort(X[:, at], axis=2, kind="stable")
    codes = ranks @ order ** np.arange(order)
    hits = codes[:, :, None] == np.arange(order**order)
    counts = hits.sum(axis=1)
    # patterns enter the sum in order of first appearance, as in a dict
    first = np.where(counts > 0, hits.argmax(axis=1), n_pat)
    seq = np.argsort(first, axis=1, kind="stable")
    terms, present = _plogp(np.take_along_axis(counts, seq, axis=1), n_pat)
    h = -_sum_present(terms, present)
    if normalize:
        h /= math.log(math.factorial(order))
    return h


def _periodogram(X: np.ndarray) -> np.ndarray:
    """|rfft|^2 of the demeaned windows without the (zero) DC bin."""
    return (np.abs(np.fft.rfft(X - X.mean(axis=1, keepdims=True), axis=1)) ** 2)[:, 1:]


def _fourier_entropy(ps: np.ndarray, bins: int) -> np.ndarray:
    top = ps.max(axis=1, initial=0.0)
    live = top > 0.0
    u = ps[live] / top[live, None]
    # np.histogram's bins over [0, 1]: half-open, the last one closed
    idx = np.minimum(np.searchsorted(np.linspace(0.0, 1.0, bins + 1), u, side="right") - 1, bins - 1)
    hist = (idx[:, :, None] == np.arange(bins)).sum(axis=1)
    out = np.zeros(ps.shape[0])
    out[live] = -_sum_present(*_plogp(hist, ps.shape[1]))
    return out


def _descriptive(X: np.ndarray, var: np.ndarray) -> list[np.ndarray]:
    # scipy.stats skew/kurtosis (biased, Fisher) in scipy's order of
    # operations; NaN where scipy finds a window near-constant,
    # m2 <= (eps * mean)**2, which constant windows (var == 0) are
    mean = np.mean(X, axis=1, keepdims=True)
    d = X - mean
    d2 = d**2
    m2 = np.mean(d2, axis=1)
    m3 = np.mean(d2 * d, axis=1)
    m4 = np.mean(d2**2, axis=1)
    live = m2 > (np.finfo(float).eps * mean[:, 0]) ** 2
    skew = np.where(live, m3 / m2**1.5, math.nan)
    kurt = np.where(live, m4 / m2**2.0 - 3, math.nan)
    sq = X**2
    return [
        np.sum(X, axis=1),
        np.mean(X, axis=1),
        np.median(X, axis=1),
        np.sqrt(var),
        var,
        skew,
        kurt,
        np.sqrt(np.mean(sq, axis=1)),
        np.sum(sq, axis=1),
        np.mean(np.abs(np.diff(X, axis=1)), axis=1),
        np.mean((X[:, 2:] - 2 * X[:, 1:-1] + X[:, :-2]) / 2.0, axis=1),
    ]


def _frequency(X: np.ndarray, ps: np.ndarray) -> list[np.ndarray]:
    coefs = np.fft.rfft(X, axis=1)[:, :N_FFT_COEFS]
    cols = []
    for c in coefs.T:
        cols += [c.real, c.imag, np.abs(c), np.angle(c)]
    # moments of the demeaned periodogram over frequency-bin index;
    # spectral kurtosis is excess, matching the rest of the catalog
    total = ps.sum(axis=1, keepdims=True)
    k = np.arange(1, ps.shape[1] + 1, dtype=float)
    w = ps / total
    c = np.sum(k * w, axis=1, keepdims=True)
    var = np.sum((k - c) ** 2 * w, axis=1, keepdims=True)
    z = (k - c) / np.sqrt(var)
    skew = np.sum(z**3 * w, axis=1)
    kurt = np.sum(z**4 * w, axis=1) - 3.0
    live = total[:, 0] > 0.0
    spread = live & (var[:, 0] > 0.0)
    cols += [
        np.where(live, c[:, 0], 0.0),
        np.where(live, var[:, 0], 0.0),
        np.where(spread, skew, math.nan),
        np.where(spread, kurt, math.nan),
    ]
    return cols


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products; a (1, n) @ (n, 1) matmul takes np.dot's path,
    so each row has the bits of np.dot on that window."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _autocorrelation(X: np.ndarray, var: np.ndarray) -> list[np.ndarray]:
    """The biased ACF and the Durbin-Levinson PACF (the oracle's
    acf_values / pacf_values in tests/oracles.py) at lags 1..N_ACF_LAGS of
    every window at once; NaN where var == 0."""
    n_win, n = X.shape
    xc = X - X.mean(axis=1, keepdims=True)
    c0 = _rowdot(xc, xc) / n
    rho = np.ones((n_win, N_ACF_LAGS + 1))
    for k in range(1, N_ACF_LAGS + 1):
        rho[:, k] = (_rowdot(xc[:, k:], xc[:, :-k]) / n) / c0
    pacf = np.empty((n_win, N_ACF_LAGS))
    pacf[:, 0] = rho[:, 1]
    phi = rho[:, 1:2]
    for k in range(2, N_ACF_LAGS + 1):
        num = rho[:, k] - _rowdot(phi, np.ascontiguousarray(rho[:, k - 1 : 0 : -1]))
        den = 1.0 - _rowdot(phi, rho[:, 1:k])
        phi_kk = np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)
        phi = np.column_stack([phi - phi_kk[:, None] * phi[:, ::-1], phi_kk])
        pacf[:, k - 1] = phi_kk
    lags = rho[:, 1:]
    block = np.column_stack([lags, pacf, np.mean(lags, axis=1), np.std(lags, axis=1)])
    block[var <= 0] = math.nan
    return list(block.T)


def _trend_and_change(X: np.ndarray, var: np.ndarray) -> list[np.ndarray]:
    n_win, w = X.shape
    # scipy.stats.linregress against 0..w-1; the stacked (2, w) @ (w, 2)
    # matmul takes np.cov's syrk path, window by window
    t = np.arange(w, dtype=float)
    pair = np.empty((n_win, 2, w))
    pair[:, 0] = t
    pair[:, 1] = X
    pair -= pair.mean(axis=2, keepdims=True)
    cov = np.matmul(pair, pair.transpose(0, 2, 1))
    cov *= np.true_divide(1, w)
    ssxm, ssxym, ssym = cov[:, 0, 0], cov[:, 0, 1], cov[:, 1, 1]
    r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    slope = ssxym / ssxm
    stderr = np.sqrt((1 - r**2) * ssym / ssxm / (w - 2))
    pos = var > 0
    cols = [
        np.where(pos, slope, 0.0),
        np.where(pos, X.mean(axis=1) - slope * np.mean(t), X[:, 0]),
        np.where(pos, r**2, math.nan),
        np.where(pos, stderr, 0.0),
    ]
    step = np.abs(np.diff(X, axis=1))
    for lo_q, hi_q in CHANGE_QUANTILE_BANDS:
        lo, hi = np.quantile(X, [lo_q, hi_q], axis=1)
        inside = (X >= lo[:, None]) & (X <= hi[:, None])
        keep = inside[:, :-1] & inside[:, 1:]
        n_keep = keep.sum(axis=1)
        total = _sum_present(step, keep)
        cols.append(np.divide(total, n_keep, out=np.zeros_like(total), where=n_keep > 0))
    return cols


def _catalog_rows(X: np.ndarray) -> np.ndarray:
    """CATALOG rows of a (n_windows, window) stack: one row per window,
    which depends on that window's values alone."""
    X = np.ascontiguousarray(X, dtype=float)
    if X.shape[1] < MIN_WINDOW:
        raise ValueError(f"window {X.shape[1]} < 2 * N_ACF_LAGS + 1 = {MIN_WINDOW}")
    var = np.var(X, axis=1)
    tol = _tolerance(X)
    with np.errstate(divide="ignore", invalid="ignore"):
        ps = _periodogram(X)
        counts = _match_counts(X, 2, tol)
        cols = _descriptive(X, var) + _frequency(X, ps) + _autocorrelation(X, var)
        cols += [
            _sample_entropy(counts, tol),
            _approximate_entropy(counts, tol),
            _permutation_entropy(X, 3, 1, True),
            _fourier_entropy(ps, 10),
        ]
        cols += _trend_and_change(X, var)
    return np.column_stack(cols)


def window_features(x: np.ndarray) -> np.ndarray:
    """All catalog features for one window, ordered as CATALOG."""
    return _catalog_rows(np.asarray(x)[None, :])[0]


def extract_stat_features(ts: TimeSeries, window: int = 24) -> FeatureMatrix:
    """One catalog row per sliding window; row_index is the window end position."""
    n = len(ts)
    if window > n:
        raise ValueError(f"window {window} > series length {n}")
    rows = _catalog_rows(np.lib.stride_tricks.sliding_window_view(ts.values, window))
    return FeatureMatrix(CATALOG, rows, tuple(range(window - 1, n)))
