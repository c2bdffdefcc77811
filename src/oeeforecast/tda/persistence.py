"""Vietoris-Rips persistent homology in dimensions 0 and 1.

H0 comes from a union-find sweep over edges in ascending weight order: the
finite death times are exactly the minimum-spanning-tree edge weights, and
the one essential class is capped at the maximum pairwise distance so every
diagram carries point-count-many H0 pairs. H1 uses the standard boundary
matrix reduction over Z/2 on the edge/triangle filtration, with the
deterministic simplex order (filtration value, dimension, vertex tuple).
Every triangle is in the filtration, so the final complex is simply
connected and every H1 class dies: only H0 has an essential bar.
Zero-lifetime H1 pairs are not recorded.

The feature catalog (tda.extract) takes H0 of all windows at once from the
same merge heights, by a batched Prim spanning tree over the stacked
distance matrices, and calls vr_persistence window by window only when an
H1 column is asked for.
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
        sel = self.dims == dim
        return self.births[sel], self.deaths[sel]

    def lifetimes(self, dim: int) -> np.ndarray:
        b, d = self.restricted(dim)
        return d - b

    def n_pairs(self, dim: int | None = None) -> int:
        if dim is None:
            return int(self.dims.size)
        return int(np.sum(self.dims == dim))


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


def vr_persistence(cloud: PointCloud) -> PersistenceDiagram:
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
