"""Topological feature extraction: delay embedding, Vietoris-Rips
persistence in dimensions 0 and 1, and diagram vectorizations."""

from .embedding import takens_embed
from .extract import CATALOG, TdaParams, extract_tda_features, fit_diagram_scale
from .persistence import PersistenceDiagram, PointCloud, vr_persistence
from .vectorize import betti_curve, landscape, persistence_entropy
