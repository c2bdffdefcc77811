"""Sliding-window topological feature extraction.

Per window: delay-embed, compute Rips persistence in dimensions 0 and 1,
normalize by a fixed diagram scale, then apply every vectorizer on the
unit-range grid. The scale should come from the training span
(fit_diagram_scale) so test-side rows cannot influence earlier rows; when
omitted it is taken over the windows being extracted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..feature_matrix import FeatureMatrix
from ..series import TimeSeries
from .embedding import takens_embed
from .persistence import vr_persistence, scale_diagram
from .vectorize import (
    LIFETIME_STAT_NAMES,
    betti_curve,
    bottleneck_amplitude,
    heat_kernel_norm,
    landscape,
    landscape_norm,
    lifetime_stats,
    persistence_entropy,
    silhouette,
    wasserstein_amplitude,
)

T_RANGE = (0.0, 1.0)  # diagrams are scaled into the unit range first


@dataclass(frozen=True)
class TdaParams:
    window: int = 24
    delay: int = 8
    embed_dim: int = 3
    homology_dims: tuple[int, ...] = (0, 1)
    betti_bins: int = 10
    landscape_layers: int = 2
    landscape_samples: int = 10
    silhouette_power: float = 1.0
    wasserstein_order: float = 2.0
    heat_sigma: float = 0.1  # in units of the scaled diagram range [0, 1]

    def __post_init__(self):
        if self.window < (self.embed_dim - 1) * self.delay + 1:
            raise ValueError(
                f"window {self.window} < (dim-1)*delay + 1 = "
                f"{(self.embed_dim - 1) * self.delay + 1}"
            )
        for nm in ("betti_bins", "landscape_layers", "landscape_samples"):
            if getattr(self, nm) < 1:
                raise ValueError(f"{nm} must be >= 1")
        if any(h not in (0, 1) for h in self.homology_dims):
            raise ValueError("homology_dims limited to {0, 1}")


def tda_catalog(params: TdaParams) -> tuple[str, ...]:
    """Frozen column layout for extract_tda_features."""
    names: list[str] = []
    for h in params.homology_dims:
        names.append(f"h{h}_entropy")
        names.append(f"h{h}_bottleneck_amp")
        names.append(f"h{h}_wasserstein_amp")
        names += [f"h{h}_betti_{j}" for j in range(params.betti_bins)]
        names += [
            f"h{h}_landscape_{k}_{j}"
            for k in range(params.landscape_layers)
            for j in range(params.landscape_samples)
        ]
        names.append(f"h{h}_landscape_norm")
        names += [f"h{h}_silhouette_{j}" for j in range(params.landscape_samples)]
        names.append(f"h{h}_heat_l2")
        names += [f"h{h}_life_{s}" for s in LIFETIME_STAT_NAMES]
    return tuple(names)


def _window_diagram(x: np.ndarray, params: TdaParams):
    cloud = takens_embed(x, params.delay, params.embed_dim)
    return vr_persistence(cloud, max_hom_dim=max(params.homology_dims))


def _vectorize(diagram, params: TdaParams) -> np.ndarray:
    row: list[float] = []
    for h in params.homology_dims:
        row.append(persistence_entropy(diagram, h))
        row.append(bottleneck_amplitude(diagram, h))
        row.append(wasserstein_amplitude(diagram, h, params.wasserstein_order))
        row += list(betti_curve(diagram, h, params.betti_bins, T_RANGE))
        lam = landscape(diagram, h, params.landscape_layers, params.landscape_samples, T_RANGE)
        row += list(lam.ravel())
        row.append(landscape_norm(lam, p=2.0, t_range=T_RANGE))
        row += list(
            silhouette(diagram, h, params.silhouette_power, params.landscape_samples, T_RANGE)
        )
        row.append(heat_kernel_norm(diagram, h, params.heat_sigma, t_range=T_RANGE))
        stats = lifetime_stats(diagram, h)
        row += [stats[s] for s in LIFETIME_STAT_NAMES]
    return np.asarray(row, dtype=float)


def fit_diagram_scale(ts: TimeSeries, params: TdaParams | None = None) -> float:
    """Maximum death over the series' window diagrams; the pipeline fixes
    this on the training span so later windows share the same normalization.

    Every death is a pairwise distance of the window's embedded cloud, and
    the essential H0 bar dies at the largest one, so the scale is the
    largest pairwise distance over all windows (vr_persistence's formula),
    computed without building a diagram.
    """
    params = params or TdaParams()
    n = len(ts)
    if n < params.window:
        raise ValueError(f"series length {n} < window {params.window}")
    windows = np.lib.stride_tricks.sliding_window_view(ts.values, params.window)
    span = (params.embed_dim - 1) * params.delay
    lags = np.arange(params.window - span)[:, None] + params.delay * np.arange(params.embed_dim)
    pts = windows[:, lags]  # (windows, points, embed_dim), as takens_embed
    diff = pts[:, :, None, :] - pts[:, None, :, :]
    top = float(np.sqrt(np.sum(diff * diff, axis=3)).max())
    return top if top > 0.0 else 1.0


def extract_tda_features(
    ts: TimeSeries, params: TdaParams | None = None, scale: float | None = None
) -> FeatureMatrix:
    """One vectorized-diagram row per sliding window (row_index = window end)."""
    params = params or TdaParams()
    n = len(ts)
    if n < params.window:
        raise ValueError(f"series length {n} < window {params.window}")
    x = ts.values
    diagrams = []
    ridx = []
    for end in range(params.window - 1, n):
        diagrams.append(_window_diagram(x[end - params.window + 1 : end + 1], params))
        ridx.append(end)
    if scale is None:
        scale = max((float(d.deaths.max()) for d in diagrams if d.deaths.size), default=1.0)
        if scale <= 0.0:
            scale = 1.0
    rows = [_vectorize(scale_diagram(d, scale), params) for d in diagrams]
    return FeatureMatrix(tda_catalog(params), np.vstack(rows), tuple(ridx))

