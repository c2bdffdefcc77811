"""Phase-space reconstruction of scalar windows by delayed coordinates.

The pipeline uses the paper's fixed embedding, delay 8 and dimension 3
(tda.extract's DELAY and EMBED_DIM), so no delay or dimension is estimated
from the data.
"""

from __future__ import annotations

import numpy as np

from .persistence import PointCloud


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
