"""Independent oracles for checking production code.

The persistence oracles are written from the textbook definitions with
different data structures than the package uses: a dense boolean boundary
matrix reduced column by column over Z/2, and Prim's algorithm for the
MST. The conventions mirror the production contract: H0 keeps
zero-lifetime pairs plus one essential bar capped at the cloud diameter;
H1 drops zero-lifetime pairs.

The statistical oracles are the catalog's first, per-window implementation:
one window at a time, scalar numpy and scipy calls, entropies from Python
loops over templates and patterns, and the ACF/PACF of acf_values and
pacf_values (moved here unchanged from oeeforecast.series, which no longer
has them). The diagram-scale oracle computes every window's persistence
diagram and takes the largest death.

The topological oracles are the catalog's first, per-window path: one
delay embedding and one vr_persistence diagram per window, then each
vectorizer called once per diagram, with the vectorizers' first scalar
bodies and scale_diagram (moved here unchanged from
oeeforecast.tda.persistence, which no longer has it). They read the
catalog's fixed settings (delay, dimension, bins, grids) from the
constants of oeeforecast.tda.extract.

The forecast oracle is the decomposed strategy's first recursion, which
rebuilt every post-refit row from its own single window at every step.

The decomposition oracles are the first moving-average and phase-mean
code: one Python iteration per point and one mean per phase.

The CSS filter oracle is the SARIMAX estimator's first filter: one column
at a time, the AR polynomial by np.convolve and the inverse MA polynomial
by a 1-D lfilter.

The Holt oracle is the trend smoother's first recursion: it iterates the
numpy array itself, so every step is numpy-scalar arithmetic, and forms
1 - alpha and 1 - beta at every step.

The summary-moments oracle is summary_stats' first skewness and kurtosis:
scipy's bias-adjusted calls.
"""

import math
from itertools import combinations

import numpy as np
from scipy import stats as sps
from scipy.signal import lfilter

from oeeforecast import pipeline, sarimax
from oeeforecast.feature_matrix import FeatureMatrix
from oeeforecast.forecasters import (
    OEE_MAX,
    OEE_MIN,
    ets_forecast,
    ets_update,
    seasonal_naive_forecast,
)
from oeeforecast.series import TimeSeries
from oeeforecast.stat_features import (
    CATALOG,
    CHANGE_QUANTILE_BANDS,
    N_ACF_LAGS,
    N_FFT_COEFS,
    window_features,
)
from oeeforecast.tda.embedding import takens_embed
from oeeforecast.tda import extract as tda
from oeeforecast.tda.extract import T_RANGE, TdaParams, extract_tda_features
from oeeforecast.tda.persistence import PersistenceDiagram, vr_persistence
from oeeforecast.tda.vectorize import LIFETIME_STAT_NAMES


def scalar_centered_moving_average(x: np.ndarray, window: int) -> np.ndarray:
    """Centered MA with the even-window half-weight convention, point by point."""
    x = np.asarray(x, dtype=float)
    n = x.size
    half = window // 2
    out = np.empty(n)
    even = window % 2 == 0
    csum = np.concatenate(([0.0], np.cumsum(x)))
    for i in range(n):
        k = min(half, i, n - 1 - i)
        if k == half and even:
            # full even kernel: half-weight endpoints
            inner = csum[i + k] - csum[i - k + 1]  # x[i-k+1 .. i+k-1]
            out[i] = (inner + 0.5 * (x[i - k] + x[i + k])) / window
        else:
            out[i] = (csum[i + k + 1] - csum[i - k]) / (2 * k + 1)
    return out


def scalar_phase_means(x: np.ndarray, period: int) -> np.ndarray:
    """Centered per-phase means over the complete-window span, phase by phase."""
    n = x.size
    half = period // 2
    lo, hi = half, n - half
    means = np.empty(period)
    for ph in range(period):
        start = lo + (ph - lo) % period
        means[ph] = x[start:hi:period].mean()
    return means - means.mean()


def bruteforce_rips_diagram(points: np.ndarray):
    """Full boundary-matrix reduction over every simplex of dim <= 2.

    Returns a list of (birth, death, dim) tuples.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    cap = float(dist.max())

    simplices = [(0.0, (v,)) for v in range(n)]
    simplices += [(float(dist[i, j]), (i, j)) for i, j in combinations(range(n), 2)]
    simplices += [
        (float(max(dist[i, j], dist[i, k], dist[j, k])), (i, j, k))
        for i, j, k in combinations(range(n), 3)
    ]
    simplices.sort(key=lambda s: (s[0], len(s[1]), s[1]))
    index = {verts: pos for pos, (_, verts) in enumerate(simplices)}
    filt = [s[0] for s in simplices]
    ndim = [len(s[1]) - 1 for s in simplices]

    m = len(simplices)
    mat = np.zeros((m, m), dtype=bool)
    for pos, (_, verts) in enumerate(simplices):
        if len(verts) > 1:
            for face in combinations(verts, len(verts) - 1):
                mat[index[face], pos] = True

    def low(col):
        rows = np.nonzero(mat[:, col])[0]
        return int(rows[-1]) if rows.size else -1

    owner = {}
    for j in range(m):
        pivot = low(j)
        while pivot >= 0 and pivot in owner:
            mat[:, j] ^= mat[:, owner[pivot]]
            pivot = low(j)
        if pivot >= 0:
            owner[pivot] = j

    pairs = []
    paired = set()
    for pivot, j in owner.items():
        birth, death = filt[pivot], filt[j]
        hdim = ndim[pivot]
        paired.add(pivot)
        paired.add(j)
        if hdim == 0:
            pairs.append((birth, death, 0))
        elif hdim == 1 and death > birth:
            pairs.append((birth, death, 1))
    # essential classes: unpaired simplices with zero reduced columns
    for j in range(m):
        if j in paired or mat[:, j].any():
            continue
        if ndim[j] == 0:
            pairs.append((0.0, cap, 0))
        elif ndim[j] == 1 and cap > filt[j]:
            pairs.append((filt[j], cap, 1))
    return pairs


def prim_mst_weights(points: np.ndarray) -> np.ndarray:
    """MST edge-weight multiset via Prim's algorithm."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = dist[0].copy()
    best[0] = np.inf
    weights = []
    for _ in range(n - 1):
        j = int(np.argmin(np.where(in_tree, np.inf, best)))
        weights.append(float(best[j]))
        in_tree[j] = True
        best = np.minimum(best, dist[j])
        best[in_tree] = np.inf
    return np.sort(np.asarray(weights))


def diagrams_equal(diagram, oracle_pairs, tol=1e-12) -> bool:
    """Compare the production diagram with oracle (birth, death, dim) tuples."""
    got = sorted(
        (int(h), float(b), float(d))
        for b, d, h in zip(diagram.births, diagram.deaths, diagram.dims)
    )
    want = sorted((int(h), float(b), float(d)) for b, d, h in oracle_pairs)
    if len(got) != len(want):
        return False
    return all(
        g[0] == w[0] and abs(g[1] - w[1]) <= tol and abs(g[2] - w[2]) <= tol
        for g, w in zip(got, want)
    )


def scalar_sample_entropy(x, m: int = 2, r: float | None = None) -> float:
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


def scalar_approximate_entropy(x, m: int = 2, r: float | None = None) -> float:
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


def scalar_permutation_entropy(x, order: int = 3, delay: int = 1, normalize: bool = True) -> float:
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


def scalar_fourier_entropy(x, bins: int = 10) -> float:
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


def acf_values(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased (divide-by-n) autocorrelation for lags 0..max_lag."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if max_lag >= n / 2:
        raise ValueError(f"max_lag {max_lag} must be < length/2 = {n / 2}")
    xc = x - x.mean()
    c0 = float(np.dot(xc, xc)) / n
    if c0 == 0.0:
        raise ValueError("acf undefined for a zero-variance series")
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    for k in range(1, max_lag + 1):
        out[k] = (float(np.dot(xc[k:], xc[:-k])) / n) / c0
    return out


def pacf_values(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Partial autocorrelation via the Durbin-Levinson recursion; index 0 is 1."""
    rho = acf_values(x, max_lag)
    pacf = np.empty(max_lag + 1)
    pacf[0] = 1.0
    if max_lag == 0:
        return pacf
    phi_prev = np.array([rho[1]])
    pacf[1] = rho[1]
    for k in range(2, max_lag + 1):
        num = rho[k] - float(np.dot(phi_prev, rho[k - 1 : 0 : -1]))
        den = 1.0 - float(np.dot(phi_prev, rho[1:k]))
        phi_kk = num / den if den != 0.0 else 0.0
        phi = np.empty(k)
        phi[:-1] = phi_prev - phi_kk * phi_prev[::-1]
        phi[-1] = phi_kk
        pacf[k] = phi_kk
        phi_prev = phi
    return pacf


def scalar_window_features(x: np.ndarray) -> np.ndarray:
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
        scalar_sample_entropy(x),
        scalar_approximate_entropy(x),
        scalar_permutation_entropy(x),
        scalar_fourier_entropy(x),
    ]

    # group 5: trend and change quantiles
    if var > 0:
        reg = sps.linregress(np.arange(w, dtype=float), x)
        out += [reg.slope, reg.intercept, reg.rvalue**2, reg.stderr]
    else:
        out += [0.0, float(x[0]), math.nan, 0.0]
    out += [_change_quantiles(x, lo, hi) for lo, hi in CHANGE_QUANTILE_BANDS]

    return np.asarray(out, dtype=float)


def _window_diagram(x: np.ndarray):
    return vr_persistence(takens_embed(x, tda.DELAY, tda.EMBED_DIM))


def scalar_persistence_entropy(d, dim: int) -> float:
    life = d.lifetimes(dim)
    life = life[life > 0.0]
    total = life.sum()
    if life.size == 0 or total <= 0.0:
        return 0.0
    p = life / total
    return -float(np.sum(p * np.log(p)))


def scalar_bottleneck_amplitude(d, dim: int) -> float:
    life = d.lifetimes(dim)
    return float(life.max() / 2.0) if life.size else 0.0


def scalar_wasserstein_amplitude(d, dim: int, p: float = 2.0) -> float:
    life = d.lifetimes(dim)
    if life.size == 0:
        return 0.0
    return float(np.sum((life / math.sqrt(2.0)) ** p) ** (1.0 / p))


def scalar_betti_curve(d, dim: int, bins: int, t_range) -> np.ndarray:
    lo, hi = t_range
    b, dd = d.restricted(dim)
    mids = lo + (np.arange(bins) + 0.5) * (hi - lo) / bins
    if b.size == 0:
        return np.zeros(bins)
    alive = (b[None, :] <= mids[:, None]) & (mids[:, None] < dd[None, :])
    return alive.sum(axis=1).astype(float)


def _scalar_tents(b, dd, grid):
    return np.maximum(0.0, np.minimum(grid[None, :] - b[:, None], dd[:, None] - grid[None, :]))


def scalar_landscape(d, dim: int, layers: int, samples: int, t_range) -> np.ndarray:
    lo, hi = t_range
    grid = np.linspace(lo, hi, samples)
    b, dd = d.restricted(dim)
    out = np.zeros((layers, samples))
    if b.size == 0:
        return out
    tents = _scalar_tents(b, dd, grid)
    tents.sort(axis=0)
    for k in range(min(layers, tents.shape[0])):
        out[k] = tents[-(k + 1)]
    return out


def scalar_landscape_norm(landscape_matrix, p: float = 2.0, t_range=(0.0, 1.0)) -> float:
    lam = np.atleast_2d(np.asarray(landscape_matrix, dtype=float))
    lo, hi = t_range
    grid = np.linspace(lo, hi, lam.shape[1])
    integrand = np.sum(np.abs(lam) ** p, axis=0)
    area = float(np.trapezoid(integrand, grid))
    return area ** (1.0 / p)


def scalar_silhouette(d, dim: int, alpha: float = 1.0, samples: int = 10, t_range=(0.0, 1.0)):
    lo, hi = t_range
    grid = np.linspace(lo, hi, samples)
    b, dd = d.restricted(dim)
    if b.size == 0:
        return np.zeros(samples)
    w = (dd - b) ** alpha
    total = w.sum()
    if total <= 0.0:
        return np.zeros(samples)
    return (w @ _scalar_tents(b, dd, grid)) / total


def scalar_heat_kernel_norm(d, dim: int, sigma: float, samples: int = 64, t_range=(0.0, 1.0)):
    b, dd = d.restricted(dim)
    alive = dd > b
    b, dd = b[alive], dd[alive]
    if b.size == 0:
        return 0.0
    lo, hi = t_range
    grid = np.linspace(lo, hi, samples)
    mid = (b + dd) / 2.0
    coef = 1.0 / math.sqrt(4.0 * math.pi * sigma * sigma)
    h = coef * np.sum(np.exp(-((grid[None, :] - mid[:, None]) ** 2) / (4.0 * sigma * sigma)), axis=0)
    return math.sqrt(float(np.trapezoid(h * h, grid)))


def scalar_lifetime_stats(d, dim: int) -> dict[str, float]:
    life = d.lifetimes(dim)
    if life.size == 0:
        return {k: 0.0 for k in LIFETIME_STAT_NAMES}
    return {
        "sum": float(life.sum()),
        "mean": float(life.mean()),
        "median": float(np.median(life)),
        "variance": float(np.var(life)),
        "std": float(np.std(life)),
        "max": float(life.max()),
        "min": float(life.min()),
    }


def scalar_vectorize(diagram) -> np.ndarray:
    """One diagram's catalog row, each vectorizer called on the diagram."""
    row: list[float] = []
    for h in tda.HOMOLOGY_DIMS:
        row.append(scalar_persistence_entropy(diagram, h))
        row.append(scalar_bottleneck_amplitude(diagram, h))
        row.append(scalar_wasserstein_amplitude(diagram, h, tda.WASSERSTEIN_ORDER))
        row += list(scalar_betti_curve(diagram, h, tda.BETTI_BINS, T_RANGE))
        lam = scalar_landscape(diagram, h, tda.LANDSCAPE_LAYERS, tda.LANDSCAPE_SAMPLES, T_RANGE)
        row += list(lam.ravel())
        row.append(scalar_landscape_norm(lam, p=2.0, t_range=T_RANGE))
        row += list(
            scalar_silhouette(diagram, h, tda.SILHOUETTE_POWER, tda.LANDSCAPE_SAMPLES, T_RANGE)
        )
        row.append(scalar_heat_kernel_norm(diagram, h, tda.HEAT_SIGMA, tda.HEAT_SAMPLES, T_RANGE))
        stats = scalar_lifetime_stats(diagram, h)
        row += [stats[s] for s in LIFETIME_STAT_NAMES]
    return np.asarray(row, dtype=float)


def scale_diagram(d: PersistenceDiagram, scale: float) -> PersistenceDiagram:
    """Divide births, deaths, and the filtration cap by a positive scale."""
    if scale <= 0.0:
        raise ValueError("scale must be > 0")
    return PersistenceDiagram(
        births=d.births / scale,
        deaths=d.deaths / scale,
        dims=d.dims,
        max_filtration=d.max_filtration / scale,
    )


def scalar_extract_tda_features(ts: TimeSeries, params: TdaParams | None = None, scale=None):
    """extract_tda_features window by window: one diagram per window, then
    every vectorizer on each scaled diagram."""
    params = params or TdaParams()
    n = len(ts)
    if n < params.window:
        raise ValueError(f"series length {n} < window {params.window}")
    x = ts.values
    diagrams = []
    ridx = []
    for end in range(params.window - 1, n):
        diagrams.append(_window_diagram(x[end - params.window + 1 : end + 1]))
        ridx.append(end)
    if scale is None:
        scale = max((float(d.deaths.max()) for d in diagrams if d.deaths.size), default=1.0)
        if scale <= 0.0:
            scale = 1.0
    rows = [scalar_vectorize(scale_diagram(d, scale)) for d in diagrams]
    return FeatureMatrix(tda.CATALOG, np.vstack(rows), tuple(ridx))


def scalar_fit_diagram_scale(ts: TimeSeries, params: TdaParams | None = None) -> float:
    """Maximum death over the series' window diagrams (1.0 when it is 0)."""
    params = params or TdaParams()
    n = len(ts)
    if n < params.window:
        raise ValueError(f"series length {n} < window {params.window}")
    top = 0.0
    x = ts.values
    for end in range(params.window - 1, n):
        diagram = _window_diagram(x[end - params.window + 1 : end + 1])
        if diagram.deaths.size:
            top = max(top, float(diagram.deaths.max()))
    return top if top > 0.0 else 1.0


def _single_window_row(strategy, window: np.ndarray) -> np.ndarray:
    """Selected-column feature row of one window, built from that window alone."""
    cfg = strategy.cfg
    vals, names = [], []
    if cfg.feature_mode in ("statistical", "both"):
        vals.append(np.nan_to_num(window_features(window), nan=0.0, posinf=0.0, neginf=0.0))
        names += CATALOG
    if cfg.feature_mode in ("topological", "both"):
        params = TdaParams(window=cfg.window)
        fm = extract_tda_features(TimeSeries(window), params, scale=strategy._tda_scale)
        vals.append(fm.matrix[-1])
        names += tda.CATALOG
    pick = [names.index(c) for c in strategy.columns]
    return np.concatenate(vals)[pick]


def forecast_rebuilding_rows(strategy, past: TimeSeries, horizon: int) -> np.ndarray:
    """DecomposedStrategy.forecast (a feature mode) with every post-refit
    row rebuilt from its single window at each recursive step."""
    cfg = strategy.cfg
    trend, seasonal, residual = pipeline.causal_components(past, cfg.periods)
    trend_fc = ets_forecast(ets_update(strategy._ets, trend), horizon).values
    seas_fc = [seasonal_naive_forecast(seasonal[p], p, horizon).values for p in cfg.periods]
    r = residual.values.copy()
    resid_fc = []
    for _ in range(horizon):
        y = np.concatenate([strategy._state_y, r[strategy._refit_len :]])
        new_rows = [
            _single_window_row(strategy, r[j - cfg.window : j])
            for j in range(strategy._refit_len, r.size)
        ]
        x = np.vstack([strategy._state_x] + new_rows)
        state = sarimax.apply_params(strategy._sarimax, TimeSeries(y), exog=x)
        row = _single_window_row(strategy, r[-cfg.window :])[None, :]
        nxt = sarimax.forecast(state, 1, exog_future=row).values[0]
        resid_fc.append(nxt)
        r = np.append(r, nxt)
    total = np.asarray(trend_fc) + np.sum(seas_fc, axis=0) + np.asarray(resid_fc)
    return np.clip(total, OEE_MIN, OEE_MAX)


def scalar_css_filter(series_block: np.ndarray, ar_full, ma_full, burn: int) -> np.ndarray:
    """Apply the CSS innovation filter to each column of a (n, k) block.

    Returns the filtered block for t >= burn. Pre-sample innovations are
    zero; AR lags are fully available from the burn-in.
    """
    n = series_block.shape[0]
    ar_len = len(ar_full) - 1
    # w_t = sum_k ar_full[k] * x_{t-k}, valid from t = ar_len
    out = np.empty((n - burn, series_block.shape[1]))
    for j in range(series_block.shape[1]):
        w = np.convolve(series_block[:, j], ar_full)[:n]
        w = w[burn:]  # burn >= ar_len so all AR lags are real data
        if len(ma_full) > 1:
            w = lfilter([1.0], ma_full, w)
        out[:, j] = w
    return out


def scalar_holt_filter(y: np.ndarray, alpha, beta, l0: float, b0: float, preds: list | None = None):
    """Final (level, slope, sse); each one-step prediction is appended to preds if given.

    alpha and beta may be equal-shape arrays: the recursion then runs for
    every (alpha, beta) pair at once and returns arrays.
    """
    level, slope, sse = l0, b0, 0.0
    for v in y:
        pred = level + slope
        if preds is not None:
            preds.append(pred)
        err = v - pred
        sse += err * err
        new_level = alpha * v + (1.0 - alpha) * pred
        slope = beta * (new_level - level) + (1.0 - beta) * slope
        level = new_level
    return level, slope, sse


def scipy_adjusted_moments(x: np.ndarray) -> tuple[float, float]:
    """(skewness, kurtosis) as summary_stats first computed them."""
    skew = float(sps.skew(x, bias=False))
    kurt = float(sps.kurtosis(x, fisher=True, bias=False))
    return skew, kurt
