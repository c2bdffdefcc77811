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
differences of two slices of it, and the shrinking edges take strided
slices of it over their kernel widths, which are cached per window like
each period's phase order. Each period's phase means are row sums of the
complete-window span reshaped into cycles, divided by their counts (the
arithmetic of ndarray.mean, without its Python wrapper).

Every forecast origin decomposes its whole past, so this is per-origin
cost, and no work is thrown away. The phase means read the detrended
series only where the full kernel fits, so the six moving averages inside
the passes compute only that interior, and the detrended series is written
only there; the trend's final moving average alone computes its shrinking
edges. All seven filters share one cumulative-sum buffer and one
moving-average buffer, the last filter's output being the trend, and the
passes their other work buffers, all allocated once per call: nothing is
cached per series length, which is new at every origin.
Each period's seasonal is tiled into its own array, and the seasonals' sum
is computed once and kept on the result (``seasonal_sum``) for the causal
decomposition to read. The components wrap these fresh arrays without a
copy (TimeSeries.wrap), after one finiteness check of the residual
(series.check_finite, which raises the TimeSeries constructor's error), which
a non-finite trend or seasonal value would make non-finite. Every
component has the bits of the decomposition whose seven filters all wrote
their edges into arrays of their own, and of the per-point and per-phase
loops before it; both are kept as equivalence oracles in tests/oracles.py.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, field

import numpy as np

from .series import TimeSeries, check_finite

DEFAULT_PERIODS = (8, 24, 168)
PASSES = 2


@dataclass(frozen=True)
class DecompositionResult:
    trend: TimeSeries
    seasonal: dict[int, TimeSeries]  # period -> component, insertion-ordered ascending
    residual: TimeSeries
    periods: tuple[int, ...]
    # the seasonals' pointwise sum, added in period order, read-only
    seasonal_sum: np.ndarray = field(repr=False, compare=False)


def _interior_average(x: np.ndarray, window: int, csum: np.ndarray, out: np.ndarray) -> None:
    """Write the centered moving average of x at the points with room for
    the full kernel, out[half : n - half], half = window // 2.

    csum holds at least n + 1 values with csum[0] == 0; x's cumulative sum
    is written after it. An even ``window`` spans window + 1 points with
    half weights at both ends. The points outside the span are not written.
    """
    n = x.size
    half = window // 2
    m = n - 2 * half  # points with room for the full kernel
    np.add.accumulate(x, out=csum[1 : n + 1])
    if m <= 0:
        return
    full = out[half : n - half]
    if window % 2 == 0:
        # the half-weight endpoints, then the points between them; IEEE
        # addition commutes, so ends + between has the bits of between + ends
        np.add(x[:m], x[2 * half :], out=full)
        full *= 0.5
        full += csum[2 * half : n] - csum[1 : m + 1]
    else:
        np.subtract(csum[window : n + 1], csum[:m], out=full)
    full /= window


def _moving_average(x: np.ndarray, window: int, csum: np.ndarray, out: np.ndarray) -> None:
    """Write the centered moving average of x over the whole of out.

    The full-kernel span is _interior_average's. Near the edges the window
    shrinks symmetrically to whatever fits (uniform weights there), so no
    points are dropped. csum is as for _interior_average.
    """
    n = x.size
    half = window // 2
    _interior_average(x, window, csum, out)
    # an edge point at distance k from its nearer end averages the 2k + 1
    # points x[i-k .. i+k]: csum[2k + 1] on the left (csum[0] is 0), and
    # csum[n] - csum[n - 2k - 1] on the right, k = 0 at the last point
    widths = _edge_widths(window)
    left, right = min(half, (n + 1) // 2), min(half, n // 2)
    np.divide(csum[1 : 2 * left : 2], widths[:left], out=out[:left])
    tail = out[n - right :][::-1]  # k = 0 first
    np.subtract(csum[n], csum[n - 1 : n - 2 * right : -2], out=tail)
    tail /= widths[:right]


@functools.cache
def _edge_widths(window: int) -> np.ndarray:
    """The edge points' kernel widths 2k + 1, for k = 0 .. window // 2 - 1."""
    widths = np.arange(1, 2 * (window // 2), 2, dtype=float)
    widths.setflags(write=False)  # shared by every call
    return widths


@functools.cache
def _phase_order(period: int) -> np.ndarray:
    """For each phase, the span column that holds it: the span starts at
    phase period // 2."""
    order = (np.arange(period) - period // 2) % period
    order.setflags(write=False)  # shared by every call
    return order


def _tile(means: np.ndarray, out: np.ndarray) -> None:
    """The per-phase means repeated over out: point i gets means[i % period]."""
    period, n = means.size, out.size
    whole = n - n % period
    out[:whole].reshape(-1, period)[:] = means
    out[whole:] = means[: n - whole]


def _phase_means(x: np.ndarray, period: int) -> np.ndarray:
    """Centered per-phase means, estimated away from the series edges.

    Samples whose moving-average window was truncated carry seasonal
    leftovers; including them biases the phase means by a phase-coherent
    amount, so only complete-window positions contribute.
    """
    half = period // 2
    span = x[half : x.size - half]
    cycles, rem = divmod(span.size, period)
    # row j holds span column j (phase (half + j) % period), one sample per
    # cycle: a row sum adds its samples in the order the mean of the strided
    # slice span[j::period] does. The first rem columns have one more
    # sample, in the last slot; the others' rows end before it.
    rows = np.empty((period, cycles + 1))
    rows[:, :cycles] = span[: cycles * period].reshape(cycles, period).T
    rows[:rem, cycles] = span[cycles * period :]
    # sum / count is ndarray.mean's own arithmetic, without its Python wrapper
    by_column = np.empty(period)
    longer, shorter = by_column[:rem], by_column[rem:]
    np.add.reduce(rows[:rem], axis=1, out=longer)
    np.add.reduce(rows[rem:, :cycles], axis=1, out=shorter)
    longer /= cycles + 1
    shorter /= cycles
    means = by_column[_phase_order(period)]
    means -= np.add.reduce(means) / period
    return means


def check_periods(periods) -> tuple[int, ...]:
    """The periods as a tuple of ints, or a ValueError starting with
    ``periods``: they must be non-empty, at least 1, strictly increasing and
    nested (each divides the next). The answer is kept per periods tuple, so
    a model that decomposes at every forecast origin checks its periods
    once."""
    return _checked(tuple(periods))


@functools.lru_cache(maxsize=64)
def _checked(periods: tuple) -> tuple[int, ...]:
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

    x = ts.values
    seasonal = {p: np.zeros(n) for p in periods}

    # work = input minus all current seasonal estimates, with_p = work plus
    # period p's; every pass and every filter writes the same buffers, each
    # seasonal its own
    work, with_p, detrended = x.copy(), np.empty(n), np.empty(n)
    csum, average = np.empty(n + 1), np.empty(n)
    csum[0] = 0.0
    for _ in range(PASSES):
        for p in periods:
            # _phase_means reads detrended only where the full kernel fits
            inner = slice(p // 2, n - p // 2)
            np.add(work, seasonal[p], out=with_p)
            _interior_average(with_p, p, csum, average)
            np.subtract(with_p[inner], average[inner], out=detrended[inner])
            _tile(_phase_means(detrended, p), seasonal[p])
            np.subtract(with_p, seasonal[p], out=work)

    # the last filter's output is the trend, which the result keeps
    _moving_average(work, periods[-1], csum, average)
    trend = average
    # the seasonals' sum in period order, from 0 as the builtin sum starts
    seasonal_sum = np.add(seasonal[periods[0]], 0.0)
    for p in periods[1:]:
        seasonal_sum += seasonal[p]
    residual = np.subtract(x, trend, out=work)
    residual -= seasonal_sum
    # a sum with an infinity or a NaN in it is never finite, so a finite
    # residual x - trend - (sum of the seasonals) of a finite x vouches for
    # the trend and every seasonal
    check_finite(residual)

    def series(values):  # the fresh arrays become the components, uncopied
        return TimeSeries.wrap(values, ts.start, ts.name)

    seasonal_sum.setflags(write=False)
    return DecompositionResult(
        trend=series(trend),
        seasonal={p: series(seasonal[p]) for p in periods},
        residual=series(residual),
        periods=periods,
        seasonal_sum=seasonal_sum,
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
