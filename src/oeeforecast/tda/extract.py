"""Sliding-window topological feature extraction.

The embedding is fixed (DELAY, EMBED_DIM; neither is estimated from the
data). Only the window length is a parameter, and it must be at least
MIN_WINDOW so that every window embeds into two points.

Every window is delay-embedded into the same ``(windows, points, EMBED_DIM)``
stack, and one pass over the stack builds the rows:

- all windows' pairwise distance matrices at once;
- H0 from a batched Prim minimum spanning tree: the finite deaths are the
  tree's edge weights (single-linkage merge heights), and the essential bar
  is capped at the window's largest distance;
- H1 from vr_persistence, window by window, only when an H1 column is asked
  for;
- every vectorizer over ``(windows, pairs)`` arrays, on the module's fixed
  grids.

Diagrams are normalized by a fixed diagram scale and vectorized on the
unit-range grid. The scale should come from the training span
(fit_diagram_scale) so test-side rows cannot influence earlier rows; when
omitted it is taken over the windows being extracted.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from ..feature_matrix import FeatureMatrix
from ..series import TimeSeries
from .persistence import PointCloud, _distances, _h0_deaths, vr_persistence
from .vectorize import (
    LIFETIME_STAT_NAMES,
    batch_betti,
    batch_bottleneck,
    batch_entropy,
    batch_heat_norm,
    batch_landscape,
    batch_landscape_norm,
    batch_lifetime_stats,
    batch_silhouette,
    batch_wasserstein,
    betti_midpoints,
)

T_RANGE = (0.0, 1.0)  # diagrams are scaled into the unit range first
# the paper's fixed catalog: a delay-8, dimension-3 embedding, H0 and H1,
# and one setting per vectorizer
DELAY = 8
EMBED_DIM = 3
HOMOLOGY_DIMS = (0, 1)
BETTI_BINS = 10
LANDSCAPE_LAYERS = 2
LANDSCAPE_SAMPLES = 10  # also the silhouette's grid size
SILHOUETTE_POWER = 1.0
WASSERSTEIN_ORDER = 2.0
HEAT_SIGMA = 0.1  # in units of the scaled diagram range [0, 1]
HEAT_SAMPLES = 64
# persistence needs at least two embedded points per window
MIN_WINDOW = (EMBED_DIM - 1) * DELAY + 2
# the vectorizer groups of one homology dimension, in catalog order
GROUPS = (
    "entropy",
    "bottleneck_amp",
    "wasserstein_amp",
    "betti",
    "landscape",
    "landscape_norm",
    "silhouette",
    "heat_l2",
    "life",
)


def _group_names(h: int, group: str) -> list[str]:
    if group == "betti":
        return [f"h{h}_betti_{j}" for j in range(BETTI_BINS)]
    if group == "landscape":
        return [
            f"h{h}_landscape_{k}_{j}"
            for k in range(LANDSCAPE_LAYERS)
            for j in range(LANDSCAPE_SAMPLES)
        ]
    if group == "silhouette":
        return [f"h{h}_silhouette_{j}" for j in range(LANDSCAPE_SAMPLES)]
    if group == "life":
        return [f"h{h}_life_{s}" for s in LIFETIME_STAT_NAMES]
    return [f"h{h}_{group}"]


# (homology dim, group, column names) of every catalog block, in order
LAYOUT = tuple((h, g, tuple(_group_names(h, g))) for h in HOMOLOGY_DIMS for g in GROUPS)
# frozen column layout for extract_tda_features
CATALOG = tuple(name for _, _, names in LAYOUT for name in names)

# the vectorizers' sample points on T_RANGE
BETTI_MIDS = betti_midpoints(BETTI_BINS, T_RANGE)
LANDSCAPE_GRID = np.linspace(*T_RANGE, LANDSCAPE_SAMPLES)
HEAT_GRID = np.linspace(*T_RANGE, HEAT_SAMPLES)
for _grid in (BETTI_MIDS, LANDSCAPE_GRID, HEAT_GRID):
    _grid.setflags(write=False)


def _embedded_windows(values: np.ndarray, window: int) -> np.ndarray:
    """(windows, points, EMBED_DIM) delay embedding of every window: point i
    of a window x is (x[i], x[i + DELAY], ..., x[i + (EMBED_DIM - 1) * DELAY])."""
    windows = np.lib.stride_tricks.sliding_window_view(values, window)
    span = (EMBED_DIM - 1) * DELAY
    lags = np.arange(window - span)[:, None] + DELAY * np.arange(EMBED_DIM)
    return windows[:, lags]


def _scale_of(dist: np.ndarray) -> float:
    top = float(dist.max())
    return top if top > 0.0 else 1.0


def _h1_pairs(pts: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """H1 (rows, births, deaths) of every window, one entry per pair count."""
    by_count = defaultdict(list)
    for i, cloud in enumerate(pts):
        b, d = vr_persistence(PointCloud(cloud)).restricted(1)
        by_count[b.size].append((i, b, d))
    return [
        (np.array([i for i, _, _ in group]),
         np.vstack([b for _, b, _ in group]),
         np.vstack([d for _, _, d in group]))
        for _, group in sorted(by_count.items())
    ]


def _vectorize(pairs, blocks, n_rows: int) -> np.ndarray:
    """The columns of ``blocks`` for n_rows windows.

    ``pairs`` maps a homology dimension to (rows, births, deaths) groups:
    the scaled pairs of the windows at ``rows`` as two (rows, pairs)
    arrays, every row of a group with the same pair count.
    """
    starts = np.cumsum([0] + [len(names) for _, _, names in blocks])
    out = np.zeros((n_rows, starts[-1]))
    for h, groups in pairs.items():
        for rows, b, d in groups:
            lam = None
            for (dim, group, _), lo, hi in zip(blocks, starts[:-1], starts[1:]):
                if dim != h:
                    continue
                if group in ("landscape", "landscape_norm") and lam is None:
                    lam = batch_landscape(b, d, LANDSCAPE_LAYERS, LANDSCAPE_GRID)
                if group == "entropy":
                    v = batch_entropy(b, d)
                elif group == "bottleneck_amp":
                    v = batch_bottleneck(b, d)
                elif group == "wasserstein_amp":
                    v = batch_wasserstein(b, d, WASSERSTEIN_ORDER)
                elif group == "betti":
                    v = batch_betti(b, d, BETTI_MIDS)
                elif group == "landscape":
                    v = lam
                elif group == "landscape_norm":
                    v = batch_landscape_norm(lam, 2.0, LANDSCAPE_GRID)
                elif group == "silhouette":
                    v = batch_silhouette(b, d, SILHOUETTE_POWER, LANDSCAPE_GRID)
                elif group == "heat_l2":
                    v = batch_heat_norm(b, d, HEAT_SIGMA, HEAT_GRID)
                else:
                    v = batch_lifetime_stats(b, d)
                out[rows, lo:hi] = v.reshape(len(rows), hi - lo)
    return out


def _check_window(ts: TimeSeries, window: int) -> None:
    if window < MIN_WINDOW:
        raise ValueError(f"window {window} < (dim-1)*delay + 2 = {MIN_WINDOW}")
    if len(ts) < window:
        raise ValueError(f"series length {len(ts)} < window {window}")


def fit_diagram_scale(ts: TimeSeries, window: int = 24) -> float:
    """Maximum death over the series' window diagrams; the pipeline fixes
    this on the training span so later windows share the same normalization.

    Every death is a pairwise distance of the window's embedded cloud, and
    the essential H0 bar dies at the largest one, so the scale is the
    largest pairwise distance over all windows, computed without building a
    diagram.
    """
    _check_window(ts, window)
    return _scale_of(_distances(_embedded_windows(ts.values, window)))


def extract_tda_features(
    ts: TimeSeries,
    window: int = 24,
    scale: float | None = None,
    columns=None,
) -> FeatureMatrix:
    """One vectorized-diagram row per sliding window (row_index = window end).

    With ``columns`` (catalog names) only the vectorizer groups holding them
    are computed, H1 only if one of them is an H1 column, and the matrix
    has exactly those columns, in that order. ``scale`` must be finite and
    positive.
    """
    _check_window(ts, window)
    if scale is not None and not (math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"scale must be finite and > 0, got {scale}")
    blocks = LAYOUT
    if columns is not None:
        columns = tuple(columns)
        unknown = set(columns).difference(CATALOG)
        if unknown:
            raise ValueError(f"not in the topological catalog: {sorted(unknown)}")
        blocks = tuple(blk for blk in blocks if not set(blk[2]).isdisjoint(columns))
    pts = _embedded_windows(ts.values, window)
    dist = _distances(pts)
    if scale is None:
        scale = _scale_of(dist)
    dims = {h for h, _, _ in blocks}
    pairs = {}
    if 0 in dims:
        deaths = _h0_deaths(dist) / scale
        pairs[0] = [(np.arange(len(pts)), np.zeros_like(deaths), deaths)]
    if 1 in dims:
        pairs[1] = [(rows, b / scale, d / scale) for rows, b, d in _h1_pairs(pts)]
    matrix = _vectorize(pairs, blocks, len(pts))
    names = tuple(name for _, _, names in blocks for name in names)
    fm = FeatureMatrix(names, matrix, tuple(range(window - 1, len(ts))))
    return fm if columns is None else fm.select_columns(columns)
