"""Topological feature extraction: delay embedding, Vietoris-Rips
persistence in dimensions 0 and 1, and diagram vectorizations."""

from .embedding import takens_embed
from .extract import TdaParams, extract_tda_features, fit_diagram_scale, tda_catalog
from .persistence import PersistenceDiagram, PointCloud, vr_persistence
from .vectorize import (
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
