"""Topological feature extraction: the sliding-window catalog of
vectorized Vietoris-Rips diagrams (dimensions 0 and 1) of delay-embedded
windows, and the persistence computation it is built on."""

from .extract import CATALOG, extract_tda_features, fit_diagram_scale
from .persistence import PersistenceDiagram, PointCloud, vr_persistence
