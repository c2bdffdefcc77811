"""Additive multi-seasonal decomposition for nested hourly periods.

The series is split as input = trend + sum_p seasonal_p + residual for the
nested shift/day/week periods (8 | 24 | 168 by default). The scheme is the
classical moving-average one, iterated: each pass detrends with a centered
moving average at the period's width, re-estimates that period's seasonal
as per-phase means, centers it, and subtracts it before moving to the next
period. A second pass removes the seasonal leakage the first pass leaves
in the trend estimate. The residual is computed by exact subtraction, so
reconstruction is an identity by construction.

The moving average is a fixed linear filter, computed as array code from
one cumulative sum: the points with room for the full kernel take
differences of two slices of it, and only the shrinking edges index it
point by point. Each period's phase means are row sums of the
complete-window span reshaped into cycles, divided by their counts (the
arithmetic of ndarray.mean, without its Python wrapper). Every forecast
origin decomposes its whole past, so this is per-origin cost. Both give
the same bits as the per-point and per-phase loops they replaced, which
are kept as the equivalence oracle in tests/oracles.py.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .series import TimeSeries

DEFAULT_PERIODS = (8, 24, 168)
PASSES = 2


@dataclass(frozen=True)
class DecompositionResult:
    trend: TimeSeries
    seasonal: dict[int, TimeSeries]  # period -> component, insertion-ordered ascending
    residual: TimeSeries
    periods: tuple[int, ...]


def centered_moving_average(x: np.ndarray, window: int) -> np.ndarray:
    """Centered MA with the even-window half-weight convention.

    For even ``window`` the kernel spans window+1 points with half weights
    at both ends. Near the edges the window shrinks symmetrically to
    whatever fits (uniform weights there), so no points are dropped.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    half = window // 2
    csum = np.concatenate(([0.0], np.cumsum(x)))
    out = np.empty(n)
    m = n - 2 * half  # points with room for the full kernel: half .. n - 1 - half
    if m > 0:
        if window % 2 == 0:
            # full even kernel: half-weight endpoints around x[i-half+1 .. i+half-1]
            inner = csum[2 * half : n] - csum[1 : m + 1]
            out[half : n - half] = (inner + 0.5 * (x[:m] + x[2 * half :])) / window
        else:
            out[half : n - half] = (csum[window:] - csum[:m]) / window
        i = np.concatenate((np.arange(half), np.arange(n - half, n)))
    else:
        i = np.arange(n)
    k = np.minimum(i, n - 1 - i)  # shrunk half-width of an edge point
    out[i] = (csum[i + k + 1] - csum[i - k]) / (2 * k + 1)
    return out


def _phase_means(x: np.ndarray, period: int) -> np.ndarray:
    """Centered per-phase means, estimated away from the series edges.

    Samples whose moving-average window was truncated carry seasonal
    leftovers; including them biases the phase means by a phase-coherent
    amount, so only complete-window positions contribute.
    """
    half = period // 2
    span = x[half : x.size - half]
    cycles, rem = divmod(span.size, period)
    blocks = span[: cycles * period].reshape(cycles, period)
    # one contiguous row per span column j (phase (half + j) % period): a row
    # mean sums its samples in the order the mean of the strided slice
    # span[j::period] does; the first rem columns have one more sample
    longer = np.vstack([blocks[:, :rem], span[None, cycles * period :]]).T.copy()
    shorter = blocks[:, rem:].T.copy()
    # sum / count is ndarray.mean's own arithmetic, without its Python wrapper
    by_column = np.concatenate(
        [np.add.reduce(longer, axis=1) / (cycles + 1), np.add.reduce(shorter, axis=1) / cycles]
    )
    means = by_column[(np.arange(period) - half) % period]
    return means - np.add.reduce(means) / period


def check_periods(periods) -> tuple[int, ...]:
    """The periods as a tuple of ints, or a ValueError starting with
    ``periods``: they must be non-empty, at least 1, strictly increasing and
    nested (each divides the next)."""
    periods = tuple(int(p) for p in periods)
    if not periods:
        raise ValueError("periods must be non-empty")
    if periods[0] < 1:
        raise ValueError(f"periods must be >= 1, got {periods}")
    for a, b in zip(periods, periods[1:]):
        if b <= a:
            raise ValueError(f"periods must be strictly increasing, got {periods}")
        if b % a != 0:
            raise ValueError(f"periods must be nested (each divides the next), got {periods}")
    return periods


def decompose(ts: TimeSeries, periods=DEFAULT_PERIODS) -> DecompositionResult:
    """Split a series into trend, one seasonal per period, and residual.

    The periods pass check_periods; the series must cover at least two of
    the longest cycles.
    """
    periods = check_periods(periods)
    n = len(ts)
    if n < 2 * periods[-1]:
        raise ValueError(f"series length {n} < 2 x max period {periods[-1]}")

    x = ts.values.astype(float)
    idx = np.arange(n)
    seasonal = {p: np.zeros(n) for p in periods}

    # work = input minus all current seasonal estimates
    work = x.copy()
    for _ in range(PASSES):
        for p in periods:
            with_p = work + seasonal[p]
            trend_p = centered_moving_average(with_p, p)
            means = _phase_means(with_p - trend_p, p)
            seasonal[p] = means[idx % p]
            work = with_p - seasonal[p]

    trend = centered_moving_average(work, periods[-1])
    residual = x - trend - sum(seasonal.values())

    return DecompositionResult(
        trend=ts.with_values(trend),
        seasonal={p: ts.with_values(seasonal[p]) for p in periods},
        residual=ts.with_values(residual),
        periods=periods,
    )


def components_to_csv(d: DecompositionResult, path) -> None:
    """One row per timestamp: observed components side by side."""
    header = ["timestamp", "trend"]
    header += [f"seasonal_{p}" for p in d.periods]
    header += ["residual"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i in range(len(d.trend)):
            row = [d.trend.timestamp(i).isoformat(), repr(float(d.trend.values[i]))]
            row += [repr(float(d.seasonal[p].values[i])) for p in d.periods]
            row.append(repr(float(d.residual.values[i])))
            w.writerow(row)
