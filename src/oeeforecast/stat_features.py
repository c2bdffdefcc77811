"""Sliding-window statistical feature catalog for the residual series.

The catalog is fixed and bit-stable: 76 named columns in five groups
(descriptive, frequency, autocorrelation, entropy, trend/change). Window
rows depend only on the values inside their own window; the row index is
the window's end position in the source series. Non-finite values (e.g.
skewness of a constant window) are imputed to 0 by the FeatureMatrix and
flagged, so the downstream variance filter sees dead columns instead of
NaNs.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats as sps

from .feature_matrix import FeatureMatrix
from .series import TimeSeries, acf_values, pacf_values

N_FFT_COEFS = 8
N_ACF_LAGS = 8
CHANGE_QUANTILE_BANDS = ((0.0, 0.2), (0.2, 0.8), (0.8, 1.0))


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


def sample_entropy(x, m: int = 2, r: float | None = None) -> float:
    """Negative log conditional probability that close templates stay close.

    Chebyshev distance, self-matches excluded. A zero tolerance (constant
    window) is degenerate and yields 0; no matches at length m+1 yields
    +inf (maximal irregularity), which the feature matrix imputes.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n <= 2 * m:
        raise ValueError(f"sample_entropy needs length > {2 * m}")
    if r is None:
        r = 0.2 * float(np.std(x))
    if r <= 0.0:
        return 0.0

    def count_matches(mm):
        templ = np.lib.stride_tricks.sliding_window_view(x, mm)
        c = 0
        for i in range(templ.shape[0] - 1):
            d = np.max(np.abs(templ[i + 1 :] - templ[i]), axis=1)
            c += int(np.sum(d <= r))
        return c

    b = count_matches(m)
    a = count_matches(m + 1)
    if b == 0:
        return 0.0
    if a == 0:
        return math.inf
    return -math.log(a / b)


def approximate_entropy(x, m: int = 2, r: float | None = None) -> float:
    """Regularity statistic phi(m) - phi(m+1); self-matches included."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n <= 2 * m:
        raise ValueError(f"approximate_entropy needs length > {2 * m}")
    if r is None:
        r = 0.2 * float(np.std(x))
    if r <= 0.0:
        return 0.0

    def phi(mm):
        templ = np.lib.stride_tricks.sliding_window_view(x, mm)
        k = templ.shape[0]
        total = 0.0
        for i in range(k):
            d = np.max(np.abs(templ - templ[i]), axis=1)
            total += math.log(np.sum(d <= r) / k)
        return total / k

    return phi(m) - phi(m + 1)


def permutation_entropy(x, order: int = 3, delay: int = 1, normalize: bool = True) -> float:
    """Shannon entropy of ordinal patterns; 0 for monotone input, 1 for iid noise."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n <= (order - 1) * delay:
        raise ValueError(f"permutation_entropy needs length > {(order - 1) * delay}")
    n_pat = n - (order - 1) * delay
    idx = np.arange(0, order * delay, delay)
    patterns: dict[tuple, int] = {}
    for i in range(n_pat):
        key = tuple(np.argsort(x[i + idx], kind="stable"))
        patterns[key] = patterns.get(key, 0) + 1
    p = np.array(list(patterns.values()), dtype=float) / n_pat
    h = -float(np.sum(p * np.log(p)))
    if normalize:
        h /= math.log(math.factorial(order))
    return h


def fourier_entropy(x, bins: int = 10) -> float:
    """Shannon entropy of the binned, max-normalized periodogram."""
    x = np.asarray(x, dtype=float)
    ps = np.abs(np.fft.rfft(x - x.mean())) ** 2
    ps = ps[1:]  # DC term is zero after demeaning
    top = ps.max() if ps.size else 0.0
    if top <= 0.0:
        return 0.0
    hist, _ = np.histogram(ps / top, bins=bins, range=(0.0, 1.0))
    p = hist[hist > 0] / hist.sum()
    return -float(np.sum(p * np.log(p)))


def _spectral_moments(x: np.ndarray) -> tuple[float, float, float, float]:
    # moments of the demeaned periodogram over frequency-bin index;
    # spectral kurtosis is excess, matching the rest of the catalog
    ps = np.abs(np.fft.rfft(x - x.mean())) ** 2
    ps = ps[1:]
    total = ps.sum()
    if total <= 0.0:
        return 0.0, 0.0, math.nan, math.nan
    k = np.arange(1, ps.size + 1, dtype=float)
    w = ps / total
    c = float(np.sum(k * w))
    var = float(np.sum((k - c) ** 2 * w))
    if var <= 0.0:
        return c, 0.0, math.nan, math.nan
    sd = math.sqrt(var)
    skew = float(np.sum(((k - c) / sd) ** 3 * w))
    kurt = float(np.sum(((k - c) / sd) ** 4 * w)) - 3.0
    return c, var, skew, kurt


def _change_quantiles(x: np.ndarray, lo_q: float, hi_q: float) -> float:
    lo, hi = np.quantile(x, [lo_q, hi_q])
    inside = (x >= lo) & (x <= hi)
    keep = inside[:-1] & inside[1:]
    if not np.any(keep):
        return 0.0
    return float(np.mean(np.abs(np.diff(x)[keep])))


def window_features(x: np.ndarray) -> np.ndarray:
    """All catalog features for one window, ordered as CATALOG."""
    x = np.asarray(x, dtype=float)
    w = x.size
    out: list[float] = []

    # group 1: descriptive and deviation
    var = float(np.var(x))
    out += [
        float(np.sum(x)),
        float(np.mean(x)),
        float(np.median(x)),
        math.sqrt(var),
        var,
        float(sps.skew(x)) if var > 0 else math.nan,
        float(sps.kurtosis(x)) if var > 0 else math.nan,
        math.sqrt(float(np.mean(x**2))),
        float(np.sum(x**2)),
        float(np.mean(np.abs(np.diff(x)))),
        float(np.mean((x[2:] - 2 * x[1:-1] + x[:-2]) / 2.0)),
    ]

    # group 2: frequency domain
    coefs = np.fft.rfft(x)
    for k in range(N_FFT_COEFS):
        c = coefs[k] if k < coefs.size else 0.0
        out += [float(np.real(c)), float(np.imag(c)), float(np.abs(c)), float(np.angle(c))]
    out += list(_spectral_moments(x))

    # group 3: autocorrelation
    if var > 0:
        r = acf_values(x, N_ACF_LAGS)
        pr = pacf_values(x, N_ACF_LAGS)
        out += list(r[1:])
        out += list(pr[1:])
        out += [float(np.mean(r[1:])), float(np.std(r[1:]))]
    else:
        out += [math.nan] * (2 * N_ACF_LAGS + 2)

    # group 4: entropy
    out += [
        sample_entropy(x),
        approximate_entropy(x),
        permutation_entropy(x),
        fourier_entropy(x),
    ]

    # group 5: trend and change quantiles
    if var > 0:
        reg = sps.linregress(np.arange(w, dtype=float), x)
        out += [reg.slope, reg.intercept, reg.rvalue**2, reg.stderr]
    else:
        out += [0.0, float(x[0]), math.nan, 0.0]
    out += [_change_quantiles(x, lo, hi) for lo, hi in CHANGE_QUANTILE_BANDS]

    return np.asarray(out, dtype=float)


def extract_stat_features(ts: TimeSeries, window: int = 24) -> FeatureMatrix:
    """One catalog row per sliding window; row_index is the window end position."""
    n = len(ts)
    if window > n:
        raise ValueError(f"window {window} > series length {n}")
    x = ts.values
    rows = []
    ridx = []
    for end in range(window - 1, n):
        rows.append(window_features(x[end - window + 1 : end + 1]))
        ridx.append(end)
    return FeatureMatrix(CATALOG, np.vstack(rows), tuple(ridx))
