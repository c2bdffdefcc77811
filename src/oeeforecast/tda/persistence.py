"""Vietoris-Rips persistent homology in dimensions 0 and 1.

The filtration is read from two lists: the edges sorted by (length, i, j),
an edge's rank being its index there, and the triangles sorted by (longest
edge, i, j, k). That is the simplex order (filtration value, dimension,
vertex tuple) restricted to each dimension.

H0 deaths are the single-linkage merge heights, which are exactly the
minimum-spanning-tree edge weights: _h0_deaths runs Prim's algorithm on
a stack of distance matrices at once. The one essential class is capped
at the maximum pairwise distance, so every diagram carries
point-count-many H0 pairs, zero-lifetime ones included.

H1 is the standard boundary reduction over Z/2 (Zomorodian & Carlsson):
each triangle's column is the bitmask of its three edge ranks, XORed in
triangle order against the column that owns its largest rank until that
rank is unowned or the column is empty. A nonempty column pairs the edge
at its largest rank (birth) with the triangle (death); zero-lifetime H1
pairs are not recorded. Every triangle is in the filtration, so the final
complex is simply connected and every H1 class dies: only H0 has an
essential bar.

The feature catalog (tda.extract) shares _distances and _h0_deaths,
takes H0 of all windows at once, and calls vr_persistence window by
window only when an H1 column is asked for. Every reader of a
diagram takes one homology dimension at a time, through
PersistenceDiagram.restricted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PointCloud:
    points: np.ndarray  # (n_points, dim)

    def __post_init__(self):
        pts = np.array(self.points, dtype=float, copy=True)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("PointCloud needs at least one point")
        if not np.all(np.isfinite(pts)):
            raise ValueError("PointCloud coordinates must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class PersistenceDiagram:
    births: np.ndarray
    deaths: np.ndarray
    dims: np.ndarray
    max_filtration: float

    def __post_init__(self):
        b = np.array(self.births, dtype=float, copy=True)
        d = np.array(self.deaths, dtype=float, copy=True)
        h = np.array(self.dims, dtype=int, copy=True)
        if not (b.shape == d.shape == h.shape):
            raise ValueError("births, deaths and dims must have equal length")
        if b.size and (np.any(b < 0) or np.any(d < b - 1e-12)):
            raise ValueError("diagram needs 0 <= birth <= death for every pair")
        for arr in (b, d, h):
            arr.setflags(write=False)
        object.__setattr__(self, "births", b)
        object.__setattr__(self, "deaths", d)
        object.__setattr__(self, "dims", h)

    def restricted(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """(births, deaths) of the pairs in homology dimension dim."""
        sel = self.dims == dim
        return self.births[sel], self.deaths[sel]


def _distances(pts: np.ndarray) -> np.ndarray:
    """(clouds, points, points) pairwise Euclidean distances of a
    (clouds, points, dim) stack: vr_persistence's distance matrix and the
    feature catalog's, from one formula so both read the same doubles.

    The squared differences are summed coordinate by coordinate, as whole
    (clouds, points, points) planes: for fewer than 8 coordinates that is
    the order np.sum over a trailing coordinate axis takes, so the same bits.
    """
    coords = np.ascontiguousarray(pts.transpose(2, 0, 1))  # (dim, clouds, points)
    diff = coords[:, :, :, None] - coords[:, :, None, :]
    diff *= diff
    total = diff[0]
    for square in diff[1:]:
        total += square
    return np.sqrt(total, out=total)


def _h0_deaths(dist: np.ndarray) -> np.ndarray:
    """(clouds, points) H0 deaths in ascending order: the minimum spanning
    tree's edge weights, from Prim's algorithm run on every cloud at once,
    then the essential bar capped at the cloud's largest distance."""
    n_win, n = dist.shape[:2]
    starts = np.arange(0, n_win * n, n)  # each cloud's point 0, flattened
    rows = dist.reshape(n_win * n, n)
    deaths = np.empty((n_win, n))
    # each point's distance from its cloud's tree, inf once it has joined:
    # ``joined`` is inf at the joined points and 0 elsewhere
    best = dist[:, 0].copy()
    joined = np.zeros((n_win, n))
    joined[:, 0] = np.inf
    best += joined
    for step in range(n - 1):
        at = starts + best.argmin(axis=1)
        deaths[:, step] = best.reshape(-1)[at]
        joined.reshape(-1)[at] = np.inf
        np.minimum(best, rows[at], out=best)
        best += joined
    deaths[:, :-1].sort(axis=1)
    deaths[:, -1] = dist.max(axis=(1, 2))
    return deaths


def vr_persistence(cloud: PointCloud) -> PersistenceDiagram:
    """H0 and H1 persistence diagram of the Rips filtration up to the
    diameter cap."""
    n = len(cloud)
    if n < 2:
        raise ValueError("vr_persistence needs at least 2 points")
    dist = _distances(cloud.points[None])
    max_filtration = float(dist.max())
    d = dist[0].tolist()
    # an edge's rank is its index here; ties fall to the vertex pair
    edges = sorted((d[i][j], i, j) for i in range(n) for j in range(i + 1, n))

    # H0 keeps zero-lifetime pairs so the pair count always equals the point
    # count (stable feature dimensionality); H1 below drops them.
    pairs = [(0, 0.0, w) for w in _h0_deaths(dist)[0].tolist()]  # (dim, birth, death)

    # each triangle's boundary column is the bitmask of its edges' ranks
    bit = [[0] * n for _ in range(n)]
    for rank, (_, i, j) in enumerate(edges):
        bit[i][j] = 1 << rank
    triangles = sorted(
        (max(d[i][j], d[i][k], d[j][k]), i, j, k)
        for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)
    )
    owner: dict[int, int] = {}  # pivot rank -> the reduced column holding it
    for w, i, j, k in triangles:
        col = bit[i][j] | bit[i][k] | bit[j][k]
        while col:
            pivot = col.bit_length() - 1
            if pivot not in owner:
                owner[pivot] = col
                if w > edges[pivot][0]:
                    pairs.append((1, edges[pivot][0], w))
                break
            col ^= owner[pivot]

    dims, births, deaths = zip(*pairs)
    order = np.lexsort((deaths, births, dims))
    return PersistenceDiagram(
        births=np.asarray(births)[order],
        deaths=np.asarray(deaths)[order],
        dims=np.asarray(dims, dtype=int)[order],
        max_filtration=max_filtration,
    )
