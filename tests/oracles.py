"""Independent oracles for checking production code.

The persistence oracles are written from the textbook definitions with
different data structures than the package uses: a dense boolean boundary
matrix reduced column by column over Z/2, and Prim's algorithm for the
MST. The conventions mirror the production contract: H0 keeps
zero-lifetime pairs plus one essential bar capped at the cloud diameter;
H1 drops zero-lifetime pairs.

The forecast oracle is the decomposed strategy's first recursion, which
rebuilt every post-refit row from its own single window at every step.
"""

from dataclasses import replace
from itertools import combinations

import numpy as np

from oeeforecast import pipeline, sarimax
from oeeforecast.forecasters import ets_forecast, ets_update, seasonal_naive_forecast
from oeeforecast.series import TimeSeries
from oeeforecast.stat_features import CATALOG, window_features
from oeeforecast.tda.extract import extract_tda_features, tda_catalog


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


def _single_window_row(strategy, window: np.ndarray) -> np.ndarray:
    """Selected-column feature row of one window, built from that window alone."""
    cfg = strategy.cfg
    vals, names = [], []
    if cfg.feature_mode in ("statistical", "both"):
        vals.append(np.nan_to_num(window_features(window), nan=0.0, posinf=0.0, neginf=0.0))
        names += CATALOG
    if cfg.feature_mode in ("topological", "both"):
        params = replace(cfg.tda, window=cfg.window)
        fm = extract_tda_features(TimeSeries(window), params, scale=strategy._tda_scale)
        vals.append(fm.matrix[-1])
        names += tda_catalog(params)
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
    return np.clip(total, *cfg.clamp)
