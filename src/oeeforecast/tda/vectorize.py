"""Diagram vectorizations: entropy, amplitudes, curves, landscapes, kernels.

Every vectorizer (``batch_*``) takes the pairs of one homology dimension of
many diagrams with the same pair count, as two ``(diagrams, pairs)`` arrays
of births and deaths in diagram order, and reduces along the pairs axis. A
row goes through the same reductions alone as in a batch, so it has the
same bits in any batch: one diagram is a batch of one row. Diagrams without
pairs degrade to zeros rather than raising, because downstream feature rows
must keep a fixed width.
"""

from __future__ import annotations

import math

import numpy as np

from ..stat_features import _sum_present

LIFETIME_STAT_NAMES = ("sum", "mean", "median", "variance", "std", "max", "min")


def betti_midpoints(bins: int, t_range: tuple[float, float]) -> np.ndarray:
    """The Betti curve's sample points: the midpoints of ``bins`` equal-width
    bins over t_range."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    lo, hi = t_range
    if not hi > lo:
        raise ValueError("t_range must be increasing")
    return lo + (np.arange(bins) + 0.5) * (hi - lo) / bins


def _root(x: np.ndarray, p: float) -> np.ndarray:
    """x ** (1/p), element by element as a float power: an array power takes
    sqrt for p = 2, which can differ from it in the last bit."""
    e = 1.0 / p
    return np.array([v**e for v in x.tolist()])


def batch_entropy(b: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Shannon entropy of normalized lifetimes; zero-lifetime pairs excluded."""
    life = d - b
    alive = life > 0.0
    total = _sum_present(life, alive)
    p = np.divide(life, total[:, None], out=np.ones_like(life), where=alive)
    return np.where(total > 0.0, -_sum_present(p * np.log(p), alive), 0.0)


def batch_bottleneck(b: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Distance to the empty diagram under diagonal matching: max lifetime / 2."""
    if b.shape[1] == 0:
        return np.zeros(b.shape[0])
    return np.max(d - b, axis=1) / 2.0


def batch_wasserstein(b: np.ndarray, d: np.ndarray, p: float) -> np.ndarray:
    """Order-p cost of projecting every pair to the diagonal."""
    return _root(np.sum(((d - b) / math.sqrt(2.0)) ** p, axis=1), p)


def batch_betti(b: np.ndarray, d: np.ndarray, mids: np.ndarray) -> np.ndarray:
    """Count of pairs alive (birth <= t < death) at each midpoint."""
    t = mids[:, None]
    alive = (b[:, None, :] <= t) & (t < d[:, None, :])
    return alive.sum(axis=2).astype(float)


def _tents(b: np.ndarray, d: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Tent functions max(0, min(t - b_i, d_i - t)), (diagrams, pairs, grid)."""
    return np.maximum(0.0, np.minimum(grid - b[:, :, None], d[:, :, None] - grid))


def batch_landscape(b: np.ndarray, d: np.ndarray, layers: int, grid: np.ndarray) -> np.ndarray:
    """Persistence landscapes on grid, (diagrams, layers, grid): layer k is
    the k-th largest tent value at each t; layers beyond the pair count are
    zero."""
    out = np.zeros((b.shape[0], layers, grid.size))
    tents = _tents(b, d, grid)
    tents.sort(axis=1)
    avail = min(layers, tents.shape[1])
    out[:, :avail] = tents[:, ::-1][:, :avail]
    return out


def batch_landscape_norm(lam: np.ndarray, p: float, grid: np.ndarray) -> np.ndarray:
    """L^p norm of each (layers, grid) landscape: (integral of
    sum_k |lambda_k|^p dt)^(1/p), trapezoidal over the grid."""
    integrand = np.sum(np.abs(lam) ** p, axis=1)
    return _root(np.trapezoid(integrand, grid, axis=1), p)


def batch_silhouette(b: np.ndarray, d: np.ndarray, alpha: float, grid: np.ndarray) -> np.ndarray:
    """Lifetime-weighted average of the per-pair tent functions."""
    w = (d - b) ** alpha  # 0^0 == 1, so alpha=0 weights pairs uniformly
    total = w.sum(axis=1)[:, None]
    weighted = np.matmul(w[:, None, :], _tents(b, d, grid))[:, 0, :]
    return np.divide(weighted, total, out=np.zeros_like(weighted), where=total > 0.0)


def batch_heat_norm(b: np.ndarray, d: np.ndarray, sigma: float, grid: np.ndarray) -> np.ndarray:
    """Discrete L2 norm of the Gaussian mixture centred at pair midpoints;
    zero-lifetime pairs add nothing."""
    mid = (b + d) / 2.0
    coef = 1.0 / math.sqrt(4.0 * math.pi * sigma * sigma)
    # exp(-((t - mid) ** 2) / (4 sigma^2)), in place: the (diagrams, pairs,
    # grid) array is the largest of the extraction
    bumps = grid - mid[:, :, None]
    np.square(bumps, out=bumps)
    np.negative(bumps, out=bumps)
    bumps /= 4.0 * sigma * sigma
    np.exp(bumps, out=bumps)
    bumps[~(d > b)] = 0.0
    h = coef * np.sum(bumps, axis=1)
    return np.sqrt(np.trapezoid(h * h, grid, axis=1))


def batch_lifetime_stats(b: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Lifetime statistics, one column per LIFETIME_STAT_NAMES entry."""
    if b.shape[1] == 0:
        return np.zeros((b.shape[0], len(LIFETIME_STAT_NAMES)))
    life = d - b
    return np.column_stack([
        life.sum(axis=1),
        life.mean(axis=1),
        np.median(life, axis=1),
        np.var(life, axis=1),
        np.std(life, axis=1),
        life.max(axis=1),
        life.min(axis=1),
    ])
