"""Independent oracles for checking production code.

The persistence oracles are written from the textbook definitions with
different data structures than the package uses: a dense boolean boundary
matrix reduced column by column over Z/2, and Prim's algorithm for the
MST. The conventions mirror the production contract: H0 keeps
zero-lifetime pairs plus one essential bar capped at the cloud diameter;
H1 drops zero-lifetime pairs.

The simplex-list oracle (simplex_list_vr_persistence) is vr_persistence's
first body, moved here unchanged with its union-find: H0 from a union-find
sweep, H1 from one mixed list of edges and triangles sorted by (filtration,
dimension, vertices) and reduced over Python sets of list positions. The
production function must match it byte for byte, tie order included.

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
constants of oeeforecast.tda.extract. The delay embedding (takens_embed)
is one window's cloud by definition, the reference for the catalog's
batched embedding; it moved here unchanged from oeeforecast.tda.embedding,
which no longer exists.

The one-row vectorizers (persistence_entropy, betti_curve, landscape) are
not oracles: they restrict one diagram to a homology dimension and call the
shipped batch_entropy, batch_betti and batch_landscape on that single row,
so the tests written against one diagram check the shipped code. They moved
here from oeeforecast.tda.vectorize, which no longer has them.

The batch catalog oracle (batch_catalog_rows) is the statistical
catalog's second implementation, moved here unchanged: all 76 columns of
every window at once, one column at a time, whatever the selection.

The forecast oracles are the decomposed strategy's first recursion, which
rebuilt every post-refit row from its own single window at every step and
replayed the whole history from the refit's first row (replay_apply_params,
sarimax.apply_params as it first ran, rebuilding the refit's targets and
rows from the refit span), and the extension one hour at a time with each
row built from its single window. The continued-innovation oracle runs the
inverse MA recursion in Python floats from a fit's last innovations. The
recursive forecast oracle (indexed_forecast) is sarimax.forecast's first
body, moved here unchanged: its index guards are always true for the AR
lags and only end the MA sum at the step's lag, and the shipped loop must
give its bytes.

The decomposition oracles are the first moving-average and phase-mean
code: one Python iteration per point and one mean per phase.

The CSS filter oracle is the SARIMAX estimator's first filter: one column
at a time, the AR polynomial by np.convolve and the inverse MA polynomial
by a 1-D lfilter. The convolution oracle (convolve_css_filter) is
sarimax._css_filter as it ran before its AR stage became one multiply-add
per tap, moved here unchanged: one np.convolve per column, then the
shipped MA stage.

The projection oracle (LapackProjection) is sarimax._Projection as it ran
on scipy.linalg.lapack, moved here unchanged: potrf and potrs, and dtrcon's
estimate of the condition number where the shipped projection computes it
exactly from the inverted factor. The collinearity oracle
(qr_collinearity_prune) is selection.collinearity_prune as it ran on
scipy.linalg.qr with column pivoting, moved here unchanged. The filter
oracle of simulate is scipy.signal.lfilter itself.

The SARIMAX fit oracle (nelder_mead_fit) is sarimax.fit as it was before
its variable-projection least-squares stage, moved here unchanged: a
Nelder-Mead simplex search of the concentrated negative log-likelihood
from the same starts, with the regression block solved by lstsq at every
evaluation.

The SARIMAX search oracle (scipy_minimize) is sarimax.minimize's first
body: scipy's Nelder-Mead search, then scipy's least_squares from where it
stopped, with the module's options read at the call, and np.linalg.svd in
place of the scipy.linalg.svd of scipy's trust-region step, as the shipped
search has it. The shipped search must match it byte for byte.

The Spearman oracle is the correlation filter's first importance:
scipy.stats.spearmanr's statistic.

The Holt oracle is the trend smoother's first recursion: it iterates the
numpy array itself, so every step is numpy-scalar arithmetic, and forms
1 - alpha and 1 - beta at every step.

The summary-moments oracle is summary_stats' first skewness and kurtosis:
scipy's bias-adjusted calls.

The decomposition inverse (reconstruct) and the leakage audit
(leakage_audit) are checks the acceptance criteria run, moved here
unchanged from oeeforecast.decompose and oeeforecast.pipeline, which no
longer have them.
"""

import math
from dataclasses import replace
from itertools import combinations

import numpy as np
from scipy import stats as sps
from scipy.optimize import least_squares, minimize
from scipy.optimize._lsq import trf
from scipy.signal import lfilter

from oeeforecast import pipeline, sarimax
from oeeforecast.decompose import DecompositionResult
from oeeforecast.feature_matrix import FeatureMatrix
from oeeforecast.forecasters import (
    OEE_MAX,
    OEE_MIN,
    EtsFit,
    _init_state,
    ets_forecast,
    ets_update,
    seasonal_naive_forecast,
)
from oeeforecast.selection import _REL_TOL, SelectionReport
from oeeforecast.series import TimeSeries
from oeeforecast.stat_features import (
    CATALOG,
    CHANGE_QUANTILE_BANDS,
    MIN_WINDOW,
    N_ACF_LAGS,
    N_FFT_COEFS,
)
from oeeforecast.tda import extract as tda
from oeeforecast.tda.extract import T_RANGE, extract_tda_features
from oeeforecast.tda.persistence import PersistenceDiagram, PointCloud, vr_persistence
from oeeforecast.tda.vectorize import (
    LIFETIME_STAT_NAMES,
    batch_betti,
    batch_entropy,
    batch_landscape,
    betti_midpoints,
)


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


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def _h0_pairs(n: int, edges) -> list[tuple[float, float]]:
    """Finite H0 deaths are the MST edge weights (elder rule, births all 0)."""
    uf = _UnionFind(n)
    deaths = []
    for w, i, j in edges:
        if uf.union(i, j):
            deaths.append(w)
            if len(deaths) == n - 1:
                break
    return [(0.0, w) for w in deaths]


def simplex_list_vr_persistence(cloud: PointCloud) -> PersistenceDiagram:
    """H0 and H1 persistence diagram of the Rips filtration up to the
    diameter cap."""
    pts = cloud.points
    n = len(cloud)
    if n < 2:
        raise ValueError("vr_persistence needs at least 2 points")

    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    max_filtration = float(dist.max())

    edges = sorted(
        (float(dist[i, j]), i, j) for i in range(n) for j in range(i + 1, n)
    )

    # H0 keeps zero-lifetime pairs so the pair count always equals the point
    # count (stable feature dimensionality); H1 below drops them.
    births, deaths, dims = [], [], []
    for b, d in _h0_pairs(n, edges):
        births.append(b)
        deaths.append(d)
        dims.append(0)
    # the one essential component, capped at the diameter
    births.append(0.0)
    deaths.append(max_filtration)
    dims.append(0)

    if n >= 3:
        # filtration order over edges and triangles; vertices are implicit
        edge_index = {}
        simplices = []  # (filt, dim, vertices)
        for w, i, j in edges:
            simplices.append((w, 1, (i, j)))
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    w = max(dist[i, j], dist[i, k], dist[j, k])
                    simplices.append((float(w), 2, (i, j, k)))
        simplices.sort(key=lambda s: (s[0], s[1], s[2]))
        for pos, (w, d, verts) in enumerate(simplices):
            if d == 1:
                edge_index[verts] = pos

        filt = [s[0] for s in simplices]
        low_owner: dict[int, int] = {}  # row -> column position that owns it
        columns: dict[int, set[int]] = {}
        for pos, (w, d, verts) in enumerate(simplices):
            if d != 2:
                continue
            i, j, k = verts
            col = {edge_index[(i, j)], edge_index[(i, k)], edge_index[(j, k)]}
            while col:
                pivot = max(col)
                owner = low_owner.get(pivot)
                if owner is None:
                    break
                col ^= columns[owner]
            if col:
                pivot = max(col)
                low_owner[pivot] = pos
                columns[pos] = col
                birth, death = filt[pivot], w
                if death > birth:
                    births.append(birth)
                    deaths.append(death)
                    dims.append(1)

    order = np.lexsort((deaths, births, dims))
    return PersistenceDiagram(
        births=np.asarray(births)[order] if births else np.array([]),
        deaths=np.asarray(deaths)[order] if deaths else np.array([]),
        dims=np.asarray(dims, dtype=int)[order] if dims else np.array([], dtype=int),
        max_filtration=max_filtration,
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


def _batch_sum_present(terms: np.ndarray, present: np.ndarray) -> np.ndarray:
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


def _batch_plogp(counts: np.ndarray, total) -> tuple[np.ndarray, np.ndarray]:
    """Shannon terms p*log(p) of per-row counts, and the mask of nonzero counts."""
    present = counts > 0
    p = counts / total
    return p * np.log(np.where(present, p, 1.0)), present


def _batch_tolerance(X: np.ndarray) -> np.ndarray:
    return 0.2 * np.std(X, axis=1)


def _batch_match_counts(X: np.ndarray, m: int, r: np.ndarray) -> list[np.ndarray]:
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


def _batch_sample_entropy(counts: list[np.ndarray], r: np.ndarray) -> np.ndarray:
    # distinct template pairs: the matrix is symmetric with a matching diagonal
    b, a = ((c.sum(axis=1) - c.shape[1]) // 2 for c in counts)
    out = np.zeros(r.size)
    live = (r > 0.0) & (b > 0)
    out[live & (a == 0)] = math.inf
    both = live & (a > 0)
    out[both] = [-math.log(v) for v in a[both] / b[both]]
    return out


def _batch_approximate_entropy(counts: list[np.ndarray], r: np.ndarray) -> np.ndarray:
    phi = []
    for c in counts:
        k = c.shape[1]
        logs = np.array([math.log(j / k) if j else 0.0 for j in range(k + 1)])
        # cumsum adds left to right, as the one-window loop does
        phi.append(np.cumsum(logs[c], axis=1)[:, -1] / k)
    return np.where(r > 0.0, phi[0] - phi[1], 0.0)


def _batch_permutation_entropy(X: np.ndarray, order: int, delay: int, normalize: bool) -> np.ndarray:
    n_pat = X.shape[1] - (order - 1) * delay
    at = np.arange(n_pat)[:, None] + np.arange(0, order * delay, delay)
    ranks = np.argsort(X[:, at], axis=2, kind="stable")
    codes = ranks @ order ** np.arange(order)
    hits = codes[:, :, None] == np.arange(order**order)
    counts = hits.sum(axis=1)
    # patterns enter the sum in order of first appearance, as in a dict
    first = np.where(counts > 0, hits.argmax(axis=1), n_pat)
    seq = np.argsort(first, axis=1, kind="stable")
    terms, present = _batch_plogp(np.take_along_axis(counts, seq, axis=1), n_pat)
    h = -_batch_sum_present(terms, present)
    if normalize:
        h /= math.log(math.factorial(order))
    return h


def _batch_periodogram(X: np.ndarray) -> np.ndarray:
    """|rfft|^2 of the demeaned windows without the (zero) DC bin."""
    return (np.abs(np.fft.rfft(X - X.mean(axis=1, keepdims=True), axis=1)) ** 2)[:, 1:]


def _batch_fourier_entropy(ps: np.ndarray, bins: int) -> np.ndarray:
    top = ps.max(axis=1, initial=0.0)
    live = top > 0.0
    u = ps[live] / top[live, None]
    # np.histogram's bins over [0, 1]: half-open, the last one closed
    idx = np.minimum(np.searchsorted(np.linspace(0.0, 1.0, bins + 1), u, side="right") - 1, bins - 1)
    hist = (idx[:, :, None] == np.arange(bins)).sum(axis=1)
    out = np.zeros(ps.shape[0])
    out[live] = -_batch_sum_present(*_batch_plogp(hist, ps.shape[1]))
    return out


def _batch_descriptive(X: np.ndarray, var: np.ndarray) -> list[np.ndarray]:
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


def _batch_frequency(X: np.ndarray, ps: np.ndarray) -> list[np.ndarray]:
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


def _batch_rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products; a (1, n) @ (n, 1) matmul takes np.dot's path,
    so each row has the bits of np.dot on that window."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _batch_autocorrelation(X: np.ndarray, var: np.ndarray) -> list[np.ndarray]:
    """The biased ACF and the Durbin-Levinson PACF (the oracle's
    acf_values / pacf_values in tests/oracles.py) at lags 1..N_ACF_LAGS of
    every window at once; NaN where var == 0."""
    n_win, n = X.shape
    xc = X - X.mean(axis=1, keepdims=True)
    c0 = _batch_rowdot(xc, xc) / n
    rho = np.ones((n_win, N_ACF_LAGS + 1))
    for k in range(1, N_ACF_LAGS + 1):
        rho[:, k] = (_batch_rowdot(xc[:, k:], xc[:, :-k]) / n) / c0
    pacf = np.empty((n_win, N_ACF_LAGS))
    pacf[:, 0] = rho[:, 1]
    phi = rho[:, 1:2]
    for k in range(2, N_ACF_LAGS + 1):
        num = rho[:, k] - _batch_rowdot(phi, np.ascontiguousarray(rho[:, k - 1 : 0 : -1]))
        den = 1.0 - _batch_rowdot(phi, rho[:, 1:k])
        phi_kk = np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)
        phi = np.column_stack([phi - phi_kk[:, None] * phi[:, ::-1], phi_kk])
        pacf[:, k - 1] = phi_kk
    lags = rho[:, 1:]
    block = np.column_stack([lags, pacf, np.mean(lags, axis=1), np.std(lags, axis=1)])
    block[var <= 0] = math.nan
    return list(block.T)


def _batch_trend_and_change(X: np.ndarray, var: np.ndarray) -> list[np.ndarray]:
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
        total = _batch_sum_present(step, keep)
        cols.append(np.divide(total, n_keep, out=np.zeros_like(total), where=n_keep > 0))
    return cols


def batch_catalog_rows(X: np.ndarray) -> np.ndarray:
    """CATALOG rows of a (n_windows, window) stack: one row per window,
    which depends on that window's values alone."""
    X = np.ascontiguousarray(X, dtype=float)
    if X.shape[1] < MIN_WINDOW:
        raise ValueError(f"window {X.shape[1]} < 2 * N_ACF_LAGS + 1 = {MIN_WINDOW}")
    var = np.var(X, axis=1)
    tol = _batch_tolerance(X)
    with np.errstate(divide="ignore", invalid="ignore"):
        ps = _batch_periodogram(X)
        counts = _batch_match_counts(X, 2, tol)
        cols = _batch_descriptive(X, var) + _batch_frequency(X, ps) + _batch_autocorrelation(X, var)
        cols += [
            _batch_sample_entropy(counts, tol),
            _batch_approximate_entropy(counts, tol),
            _batch_permutation_entropy(X, 3, 1, True),
            _batch_fourier_entropy(ps, 10),
        ]
        cols += _batch_trend_and_change(X, var)
    return np.column_stack(cols)


def takens_embed(window_values, delay: int, dim: int) -> PointCloud:
    """Map x to points (x_i, x_{i+delay}, ..., x_{i+(dim-1)delay}), in order."""
    x = np.asarray(window_values, dtype=float)
    n = x.size
    span = (dim - 1) * delay
    if delay < 1 or dim < 1:
        raise ValueError("delay and dim must be >= 1")
    if n < span + 1:
        raise ValueError(f"window length {n} too short for delay={delay}, dim={dim}")
    count = n - span
    pts = np.empty((count, dim))
    for j in range(dim):
        pts[:, j] = x[j * delay : j * delay + count]
    return PointCloud(pts)


def _window_diagram(x: np.ndarray):
    return vr_persistence(takens_embed(x, tda.DELAY, tda.EMBED_DIM))


def _one_row(d: PersistenceDiagram, dim: int) -> tuple[np.ndarray, np.ndarray]:
    b, dd = d.restricted(dim)
    return b[None, :], dd[None, :]


def persistence_entropy(d: PersistenceDiagram, dim: int) -> float:
    """The shipped batch_entropy of one diagram's dim pairs."""
    return float(batch_entropy(*_one_row(d, dim))[0])


def betti_curve(d: PersistenceDiagram, dim: int, bins: int, t_range) -> np.ndarray:
    """The shipped batch_betti of one diagram's dim pairs, at the midpoints
    of ``bins`` equal bins over t_range."""
    return batch_betti(*_one_row(d, dim), betti_midpoints(bins, t_range))[0]


def landscape(d: PersistenceDiagram, dim: int, layers: int, samples: int, t_range) -> np.ndarray:
    """The shipped batch_landscape of one diagram's dim pairs, on ``samples``
    uniform points over t_range."""
    if layers < 1 or samples < 1:
        raise ValueError("layers and samples must be >= 1")
    return batch_landscape(*_one_row(d, dim), layers, np.linspace(*t_range, samples))[0]


def _lifetimes(d, dim: int) -> np.ndarray:
    b, dd = d.restricted(dim)
    return dd - b


def scalar_persistence_entropy(d, dim: int) -> float:
    life = _lifetimes(d, dim)
    life = life[life > 0.0]
    total = life.sum()
    if life.size == 0 or total <= 0.0:
        return 0.0
    p = life / total
    return -float(np.sum(p * np.log(p)))


def scalar_bottleneck_amplitude(d, dim: int) -> float:
    life = _lifetimes(d, dim)
    return float(life.max() / 2.0) if life.size else 0.0


def scalar_wasserstein_amplitude(d, dim: int, p: float = 2.0) -> float:
    life = _lifetimes(d, dim)
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
    life = _lifetimes(d, dim)
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


def scalar_extract_tda_features(ts: TimeSeries, window: int = 24, scale=None):
    """extract_tda_features window by window: one diagram per window, then
    every vectorizer on each scaled diagram."""
    n = len(ts)
    if n < window:
        raise ValueError(f"series length {n} < window {window}")
    x = ts.values
    diagrams = []
    ridx = []
    for end in range(window - 1, n):
        diagrams.append(_window_diagram(x[end - window + 1 : end + 1]))
        ridx.append(end)
    if scale is None:
        scale = max((float(d.deaths.max()) for d in diagrams if d.deaths.size), default=1.0)
        if scale <= 0.0:
            scale = 1.0
    rows = [scalar_vectorize(scale_diagram(d, scale)) for d in diagrams]
    return FeatureMatrix(tda.CATALOG, np.vstack(rows), tuple(ridx))


def scalar_fit_diagram_scale(ts: TimeSeries, window: int = 24) -> float:
    """Maximum death over the series' window diagrams (1.0 when it is 0)."""
    n = len(ts)
    if n < window:
        raise ValueError(f"series length {n} < window {window}")
    top = 0.0
    x = ts.values
    for end in range(window - 1, n):
        diagram = _window_diagram(x[end - window + 1 : end + 1])
        if diagram.deaths.size:
            top = max(top, float(diagram.deaths.max()))
    return top if top > 0.0 else 1.0


def _single_window_row(strategy, window: np.ndarray) -> np.ndarray:
    """Selected-column feature row of one window, built from that window alone."""
    cfg = strategy.cfg
    vals, names = [], []
    if cfg.feature_mode in ("statistical", "both"):
        row = batch_catalog_rows(window[None, :])[0]
        vals.append(np.nan_to_num(row, nan=0.0, posinf=0.0, neginf=0.0))
        names += CATALOG
    if cfg.feature_mode in ("topological", "both"):
        fm = extract_tda_features(TimeSeries(window), cfg.window, scale=strategy._tda_scale)
        vals.append(fm.matrix[-1])
        names += tda.CATALOG
    pick = [names.index(c) for c in strategy.columns]
    return np.concatenate(vals)[pick]


def refit_state_rows(strategy, past: TimeSeries) -> tuple[np.ndarray, np.ndarray]:
    """The residual targets and exog rows of the strategy's last refit,
    rebuilt from the refit span of past: the causal residual after the
    first window, and the selected columns of every aligned window, from
    the batch catalog oracle and the topological extraction."""
    cfg = strategy.cfg
    refit_past = past.slice(0, strategy._refit_len)
    r = pipeline.causal_components(refit_past, cfg.periods)[2].values
    return r[cfg.window :], _selected_window_rows(strategy, r)[:-1]


def _selected_window_rows(strategy, r: np.ndarray) -> np.ndarray:
    """Selected-column rows of every window of r, as the forecast first built
    them: the whole statistical catalog (the batch oracle) and the
    topological one, then the selection."""
    cfg = strategy.cfg
    ridx = tuple(range(cfg.window - 1, r.size))
    parts = []
    if cfg.feature_mode in ("statistical", "both"):
        X = np.lib.stride_tricks.sliding_window_view(r, cfg.window)
        parts.append(FeatureMatrix(CATALOG, batch_catalog_rows(X), ridx))
    if cfg.feature_mode in ("topological", "both"):
        parts.append(extract_tda_features(TimeSeries(r), cfg.window, strategy._tda_scale))
    fm = parts[0]
    for extra in parts[1:]:
        fm = fm.hstack(extra)
    return fm.select_columns(strategy.columns).matrix


def replay_apply_params(fit_result, y: np.ndarray, exog=None):
    """sarimax.apply_params as it first ran: the state of the whole series
    y (the fit's own rows, then the new ones) with its exog rows, every
    row's regression residual and innovation recomputed from the fit's
    first row, pre-sample innovations zero."""
    spec = fit_result.spec
    y = np.asarray(y, dtype=float)
    design = np.ones((y.size, 1))
    if spec.n_exog:
        x = np.ascontiguousarray(exog, dtype=float)
        design = np.column_stack([design, (x - fit_result.exog_mean) / fit_result.exog_scale])
    u = y - design @ np.concatenate([[fit_result.intercept], fit_result.exog_beta])
    resid = scalar_css_filter(u[:, None], fit_result.ar_poly, fit_result.ma_poly, spec.burn_in)
    return replace(fit_result, residuals=resid[:, 0], u_history=u)


def indexed_forecast(fit_result, horizon: int, exog_future=None) -> np.ndarray:
    """sarimax.forecast's first recursion: numpy arrays of u and of the
    innovations extended by the horizon, each lag's term guarded by an
    index test."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    spec = fit_result.spec
    xf = sarimax._standardized(fit_result, exog_future, horizon, "exog_future")

    ar_full, ma_full = fit_result.ar_poly, fit_result.ma_poly
    n = fit_result.u_history.size
    burn = spec.burn_in

    u_ext = np.concatenate([fit_result.u_history, np.zeros(horizon)])
    eps_ext = np.zeros(n + horizon)
    eps_ext[burn:n] = fit_result.residuals

    for h in range(horizon):
        t = n + h
        acc = 0.0
        for k in range(1, len(ar_full)):
            if t - k >= 0:
                acc -= ar_full[k] * u_ext[t - k]
        for k in range(1, len(ma_full)):
            if 0 <= t - k < n:
                acc += ma_full[k] * eps_ext[t - k]
        u_ext[t] = acc

    mean = fit_result.intercept + xf @ np.asarray(fit_result.exog_beta) + u_ext[n:]
    if not np.isfinite(mean).all():
        raise ValueError("forecast values must be finite")
    return mean


def continued_innovations(fit_result, u_new: np.ndarray) -> np.ndarray:
    """The innovations of the regression residuals u_new that follow a
    fit: the AR polynomial by np.convolve over the fit's whole u history
    and u_new, then the inverse MA recursion in Python floats, continued
    from the fit's innovations (zero before its burn-in), each output's
    taps summed from the highest lag down and its input added last."""
    ar_full, ma_full = fit_result.ar_poly, fit_result.ma_poly
    u = np.concatenate([fit_result.u_history, u_new])
    w = np.convolve(ar_full, u)[fit_result.u_history.size : u.size]
    eps = [0.0] * fit_result.spec.burn_in + fit_result.residuals.tolist()
    for v in w.tolist():
        acc = 0.0
        for k in range(len(ma_full) - 1, 0, -1):
            if ma_full[k] != 0.0:
                acc -= float(ma_full[k]) * eps[-k]
        eps.append(acc + v)
    return np.array(eps[len(eps) - u_new.size :])


def _decomposed_forecast(strategy, past: TimeSeries, horizon: int, residual_steps) -> np.ndarray:
    """trend + seasonals + residual_steps(r, horizon), clipped as
    DecomposedStrategy.forecast clips; r the causal residual of past."""
    cfg = strategy.cfg
    trend, seasonal, residual = pipeline.causal_components(past, cfg.periods)
    trend_fc = ets_forecast(ets_update(strategy._ets, trend), horizon)
    seas_fc = [seasonal_naive_forecast(seasonal[p], p, horizon) for p in cfg.periods]
    resid_fc = residual_steps(residual.values.copy(), horizon)
    total = np.asarray(trend_fc) + np.sum(seas_fc, axis=0) + np.asarray(resid_fc)
    return np.clip(total, OEE_MIN, OEE_MAX)


def forecast_extending_hourly(strategy, past: TimeSeries, horizon: int) -> np.ndarray:
    """DecomposedStrategy.forecast (a feature mode) with the fit extended
    one hour at a time, each hour's exog row rebuilt from its single
    window, then one step at a time."""
    window = strategy.cfg.window

    def steps(r, horizon):
        state = strategy._sarimax
        for j in range(strategy._refit_len, r.size):
            row = _single_window_row(strategy, r[j - window : j])[None, :]
            state = sarimax.apply_params(state, r[j : j + 1], row)
        out = []
        for _ in range(horizon):
            row = _single_window_row(strategy, r[-window:])[None, :]
            out.append(sarimax.forecast(state, 1, exog_future=row)[0])
            state = sarimax.apply_params(state, out[-1:], row)
            r = np.append(r, out[-1])
        return out

    return _decomposed_forecast(strategy, past, horizon, steps)


def forecast_rebuilding_rows(strategy, past: TimeSeries, horizon: int) -> np.ndarray:
    """DecomposedStrategy.forecast (a feature mode) as it first ran: every
    post-refit row rebuilt from its single window at each recursive step,
    and the whole history replayed from the refit's first row."""
    window = strategy.cfg.window
    state_y, state_rows = refit_state_rows(strategy, past)

    def steps(r, horizon):
        out = []
        for _ in range(horizon):
            y = np.concatenate([state_y, r[strategy._refit_len :]])
            new_rows = [
                _single_window_row(strategy, r[j - window : j])
                for j in range(strategy._refit_len, r.size)
            ]
            state = replay_apply_params(strategy._sarimax, y, np.vstack([state_rows] + new_rows))
            row = _single_window_row(strategy, r[-window:])[None, :]
            out.append(sarimax.forecast(state, 1, exog_future=row)[0])
            r = np.append(r, out[-1])
        return out

    return _decomposed_forecast(strategy, past, horizon, steps)


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


def convolve_css_filter(block: np.ndarray, ar_full, ma_full, burn: int) -> np.ndarray:
    """sarimax._css_filter as it ran before its AR stage became one
    multiply-add per tap: one np.convolve(ar_full, column) per column, the
    call lfilter with a one-tap denominator makes, then the MA stage."""
    n = block.shape[0]
    w = np.array([np.convolve(ar_full, col)[burn:n] for col in block.T]).T
    return sarimax._ma_stage(w, ma_full)


class LapackProjection:
    """sarimax._Projection as it ran on scipy's LAPACK: a Cholesky factor
    of the Gram matrix (potrf, potrs) while dtrcon's estimate of its 1-norm
    condition number stays below _COND_LIMIT, else the SVD of d_f."""

    def __init__(self, d_f: np.ndarray):
        from scipy.linalg.lapack import dpotrf, dpotrs, dtrcon

        self.d_f = d_f
        self._potrs = dpotrs
        chol, info = dpotrf(d_f.T @ d_f, lower=1, clean=1)
        if info == 0 and dtrcon(chol, norm="1", uplo="L")[0] * sarimax._COND_LIMIT > 1.0:
            self.chol = chol
        else:
            self.chol = None
            u, sv, vt = np.linalg.svd(d_f, full_matrices=False)
            rank = int(np.sum(sv > sv[0] * max(d_f.shape) * np.finfo(float).eps))
            self.basis, self._pinv = u[:, :rank], vt[:rank].T / sv[:rank]

    def coefficients(self, rhs: np.ndarray) -> np.ndarray:
        if self.chol is None:
            return self._pinv @ (self.basis.T @ rhs)
        return self._potrs(self.chol, self.d_f.T @ rhs, lower=1)[0]

    def residual(self, rhs: np.ndarray) -> np.ndarray:
        if self.chol is None:
            return rhs - self.basis @ (self.basis.T @ rhs)
        return rhs - self.d_f @ self.coefficients(rhs)


def qr_collinearity_prune(fm: FeatureMatrix) -> tuple[FeatureMatrix, SelectionReport]:
    """selection.collinearity_prune as it ran on scipy's pivoted QR: the
    columns whose pivot exceeds _REL_TOL times the first are kept."""
    from scipy.linalg import qr

    x = fm.matrix
    mean = x.mean(axis=0)
    scale = x.std(axis=0, ddof=0)
    scale[scale == 0.0] = 1.0
    xs = (x - mean) / scale
    r, piv = qr(xs, mode="r", pivoting=True)
    diag = np.abs(np.diag(r))
    top = diag[0] if diag.size else 0.0
    keep_piv = sorted(piv[j] for j in range(diag.size) if top > 0 and diag[j] > _REL_TOL * top)
    kept = tuple(fm.column_names[j] for j in keep_piv)
    dropped = {
        name: "linearly dependent on kept columns"
        for name in fm.column_names
        if name not in kept
    }
    report = SelectionReport("collinearity_prune", fm.column_names, kept, dropped, {})
    return fm.select_columns(kept), report


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


def filtered_ets_update(fit: EtsFit, ts: TimeSeries) -> EtsFit:
    """ets_update as first written: the Holt recursion re-run over the whole
    series with the fit's weights, its SSE recomputed."""
    y = ts.values.astype(float)
    l0, b0 = _init_state(y)
    level, slope, sse = scalar_holt_filter(y, fit.alpha, fit.beta, l0, b0)
    return EtsFit(fit.alpha, fit.beta, level, slope, sse)


def scipy_adjusted_moments(x: np.ndarray) -> tuple[float, float]:
    """(skewness, kurtosis) as summary_stats first computed them."""
    skew = float(sps.skew(x, bias=False))
    kurt = float(sps.kurtosis(x, fisher=True, bias=False))
    return skew, kurt


def reconstruct(d: DecompositionResult) -> TimeSeries:
    """Element-wise sum of all components; inverse of decompose."""
    n = len(d.trend)
    total = d.trend.values.copy()
    for p, comp in d.seasonal.items():
        if len(comp) != n:
            raise ValueError(f"seasonal_{p} length {len(comp)} != trend length {n}")
        total = total + comp.values
    if len(d.residual) != n:
        raise ValueError(f"residual length {len(d.residual)} != trend length {n}")
    return d.trend.with_values(total + d.residual.values)


def leakage_audit(fm, split_index: int, builder=None, source: TimeSeries | None = None) -> bool:
    """Check that feature rows cannot see past their own window end.

    Structural checks always run: strictly increasing row indices within
    plausible bounds. With a builder (series -> FeatureMatrix) and the
    source series, the perturbation probe also runs: post-split values are
    rewritten and pre-split rows must come back bit-identical.
    """
    ridx = list(fm.row_index)
    if any(b <= a for a, b in zip(ridx, ridx[1:])):
        return False
    if ridx and ridx[0] < 0:
        return False

    if builder is not None and source is not None:
        rng = np.random.default_rng(0)
        mutated = source.values.copy()
        tail = mutated[split_index:]
        mutated[split_index:] = np.clip(
            tail + rng.uniform(5.0, 25.0, tail.size) * np.sign(30.0 - tail), OEE_MIN, OEE_MAX
        )
        probe = builder(TimeSeries(mutated, source.start, source.name))
        if tuple(probe.row_index) != tuple(fm.row_index):
            return False
        keep = [i for i, r in enumerate(ridx) if r < split_index]
        base_rows = np.asarray(fm.matrix)[keep]
        probe_rows = np.asarray(probe.matrix)[keep]
        if not np.array_equal(base_rows, probe_rows):
            return False
    return True


_NM_MAX_ITER = 5000  # Nelder-Mead iterations per start
_NM_FATOL = 1e-8  # Nelder-Mead objective tolerance


def lstsq_concentrated(block, spec, phi, theta, sphi, stheta):
    """The concentrated CSS log-likelihood with the regression block solved
    by lstsq: (loglik, b, resid, sigma2, d_f)."""
    ar_full = sarimax._lag_poly(phi, sphi, spec.s, -1.0)
    ma_full = sarimax._lag_poly(theta, stheta, spec.s, 1.0)
    burn = spec.burn_in
    n_eff = block.shape[0] - burn
    filt = sarimax._css_filter(block, ar_full, ma_full, burn)
    y_f, d_f = filt[:, 0], filt[:, 1:]
    b, *_ = np.linalg.lstsq(d_f, y_f, rcond=None)
    resid = y_f - d_f @ b
    sse = float(resid @ resid)
    sigma2 = max(sse / n_eff, sarimax._SIGMA2_FLOOR)
    loglik = -0.5 * n_eff * (math.log(2.0 * math.pi) + math.log(sigma2) + 1.0)
    return loglik, b, resid, sigma2, d_f


def nelder_mead_fit(ts, spec, exog=None, *, n_restarts=3, seed=0):
    """sarimax.fit by a Nelder-Mead search of the concentrated negative
    log-likelihood from Hannan-Rissanen values plus ``n_restarts`` seeded
    perturbations; ``converged`` is the best search's success flag."""
    y = ts.values.astype(float)
    n = y.size
    design, exog_names, exog_mean, exog_scale = sarimax._prepare_exog(exog, n)
    n_exog = design.shape[1] - 1
    if spec.n_exog and spec.n_exog != n_exog:
        raise ValueError(f"spec.n_exog={spec.n_exog} but exog has {n_exog} columns")
    spec = sarimax.SarimaxSpec(spec.p, spec.q, spec.P, spec.Q, spec.s, n_exog)
    n_eff = n - spec.burn_in
    if n_eff <= design.shape[1] + spec.p + spec.q + spec.P + spec.Q:
        raise ValueError(
            f"series too short: {n_eff} effective points for {spec.n_params} parameters"
        )

    dims = spec.p + spec.q + spec.P + spec.Q
    block = np.column_stack([y, design])

    def objective(z):
        ll, *_ = lstsq_concentrated(block, spec, *sarimax._z_to_coefs(z, spec))
        return -ll

    converged = True
    if dims == 0:
        z_best = np.array([])
    else:
        b0, *_ = np.linalg.lstsq(design, y, rcond=None)
        z0 = sarimax._hannan_rissanen(y - design @ b0, spec)
        rng = np.random.default_rng(seed)
        starts = [z0] + [z0 + rng.normal(0.0, 0.4, size=dims) for _ in range(n_restarts)]
        best_val, z_best, converged = math.inf, z0, False
        for z_start in starts:
            res = minimize(
                objective,
                z_start,
                method="Nelder-Mead",
                options={
                    "maxiter": _NM_MAX_ITER,
                    "maxfev": 2 * _NM_MAX_ITER,
                    "fatol": _NM_FATOL,
                    "xatol": 1e-6,
                },
            )
            if res.fun < best_val:
                best_val, z_best, converged = res.fun, res.x, bool(res.success)

    phi, theta, sphi, stheta = sarimax._z_to_coefs(z_best, spec)
    loglik, b, resid, sigma2, d_f = lstsq_concentrated(block, spec, phi, theta, sphi, stheta)
    intercept, beta = float(b[0]), np.asarray(b[1:], dtype=float)
    u = y - design @ b
    bic = -2.0 * loglik + spec.n_params * math.log(n_eff)
    return sarimax.SarimaxFit(
        spec=spec,
        ar=tuple(float(v) for v in phi),
        ma=tuple(float(v) for v in theta),
        sar=tuple(float(v) for v in sphi),
        sma=tuple(float(v) for v in stheta),
        exog_beta=tuple(float(v) for v in beta),
        intercept=intercept,
        sigma2=sigma2,
        exog_pvalues=sarimax._pvalues(beta, sarimax._regression_se(d_f, sigma2)[1:]),
        loglik=float(loglik),
        bic=float(bic),
        residuals=resid,
        converged=converged,
        exog_names=tuple(exog_names),
        exog_mean=exog_mean,
        exog_scale=exog_scale,
        u_history=u,
    )


def scipy_minimize(fun, x0, residual, jac):
    """sarimax.minimize by scipy.optimize: Nelder-Mead on ``fun``, then
    least_squares on ``residual`` with the Jacobian ``jac``; ``nfev`` counts
    the evaluations of all three.

    The trust-region search takes np.linalg.svd where it calls
    scipy.linalg.svd, as the shipped port does: the two SVDs can differ in
    the last bit on a scaled Jacobian, and a search then ends a bit away."""
    max_iter, tol = sarimax._MAX_ITER, sarimax._LSQ_TOL
    simplex = minimize(
        fun, x0, method="Nelder-Mead",
        options={
            "maxiter": max_iter, "maxfev": 2 * max_iter, "fatol": sarimax._FATOL, "xatol": 1e-6
        },
    )
    scipy_svd, trf.svd = trf.svd, np.linalg.svd
    try:
        res = least_squares(
            residual, simplex.x, jac=jac, method="trf", x_scale="jac", ftol=tol, xtol=tol, gtol=tol
        )
    finally:
        trf.svd = scipy_svd
    res.nfev += res.njev + simplex.nfev
    return res


def scipy_spearman(x, y) -> float:
    """The Spearman correlation of x and y, as scipy.stats computes it."""
    return float(sps.spearmanr(x, y).statistic)
