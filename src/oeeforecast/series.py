"""Hourly time-series container, CSV ingestion, summary statistics and error metrics.

Everything downstream (decomposition, feature extraction, model fitting)
consumes the :class:`TimeSeries` defined here. Series are immutable value
objects: the sample array is copied on construction and marked read-only,
so they can be shared freely between threads and cached without defensive
copies.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

HOUR = timedelta(hours=1)


class CsvError(ValueError):
    """Raised when a CSV file violates the expected input contract."""


@dataclass(frozen=True)
class TimeSeries:
    """Contiguous hourly series: value i is observed at start + i hours."""

    values: np.ndarray
    start: datetime = datetime(2000, 1, 1, 0)
    name: str = ""

    def __post_init__(self):
        arr = np.array(self.values, dtype=float, copy=True)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("TimeSeries needs a 1-d sequence with length >= 1")
        if not np.isfinite(arr).all():
            raise ValueError("TimeSeries values must be finite (no NaN/inf)")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.size

    def timestamp(self, i: int) -> datetime:
        return self.start + i * HOUR

    @property
    def end(self) -> datetime:
        return self.timestamp(len(self) - 1)

    def slice(self, begin: int, stop: int) -> "TimeSeries":
        """Sub-series over [begin, stop), timestamps preserved."""
        if not (0 <= begin < stop <= len(self)):
            raise ValueError(f"bad slice [{begin}, {stop}) of length-{len(self)} series")
        return TimeSeries(self.values[begin:stop], self.start + begin * HOUR, self.name)

    def with_values(self, values) -> "TimeSeries":
        return TimeSeries(values, self.start, self.name)


@dataclass(frozen=True)
class SummaryStats:
    count: int
    mean: float
    std_dev: float
    min: float
    q25: float
    median: float
    q75: float
    max: float
    skewness: float
    kurtosis: float
    # True when skewness/kurtosis are undefined: zero variance, or a spread
    # within rounding of the mean (scipy's near-constant rule). They are NaN then.
    moments_degenerate: bool = False


def load_csv(
    path,
    value_column: str,
    timestamp_column: str | None = None,
    fill_gaps: bool = False,
    name: str = "",
) -> TimeSeries:
    """Read one value column from a headered CSV into a TimeSeries.

    If ``timestamp_column`` is given it must hold ISO-8601 hour-resolution
    stamps; rows must be hourly-contiguous. Gaps of at most 3 hours are
    linearly interpolated when ``fill_gaps`` is true, anything else is an
    error (window features would silently straddle the hole otherwise).
    Without a timestamp column rows are taken as consecutive hours from
    2000-01-01 00:00.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if value_column not in header:
            raise CsvError(f"{path}: missing column {value_column!r} (have {header})")
        vcol = header.index(value_column)
        tcol = None
        if timestamp_column is not None:
            if timestamp_column not in header:
                raise CsvError(f"{path}: missing column {timestamp_column!r}")
            tcol = header.index(timestamp_column)

        values: list[float] = []
        stamps: list[datetime] = []
        for rownum, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                values.append(float(row[vcol]))
            except (ValueError, IndexError):
                cell = row[vcol] if vcol < len(row) else "<missing>"
                raise CsvError(
                    f"{path}: non-numeric value {cell!r} in column "
                    f"{value_column!r} at row {rownum}"
                ) from None
            if tcol is not None:
                try:
                    stamps.append(datetime.fromisoformat(row[tcol].strip()))
                except ValueError:
                    raise CsvError(f"{path}: bad timestamp {row[tcol]!r} at row {rownum}") from None

    if not values:
        raise CsvError(f"{path}: no data rows")

    if stamps:
        start = stamps[0].replace(minute=0, second=0, microsecond=0)
        filled = [values[0]]
        expected = start
        for k in range(1, len(stamps)):
            expected = expected + HOUR
            stamp = stamps[k].replace(minute=0, second=0, microsecond=0)
            gap = int(round((stamp - expected) / HOUR))
            if gap < 0:
                raise CsvError(f"{path}: timestamps not increasing at row {k + 1}")
            if gap > 0:
                if not fill_gaps or gap > 3:
                    raise CsvError(
                        f"{path}: {gap}-hour gap before row {k + 1}"
                        + ("" if fill_gaps else " (pass fill_gaps=True for gaps <= 3h)")
                    )
                lo, hi = filled[-1], values[k]
                for g in range(1, gap + 1):
                    filled.append(lo + (hi - lo) * g / (gap + 1))
                expected = stamp
            filled.append(values[k])
        values = filled
    else:
        start = datetime(2000, 1, 1, 0)

    return TimeSeries(np.asarray(values), start, name or str(value_column))


def _adjusted_moments(x: np.ndarray) -> tuple[float, float]:
    """Adjusted skewness and excess kurtosis: scipy.stats.skew(x, bias=False)
    and kurtosis(x, bias=False) in scipy's order of operations.

    Both are NaN when scipy finds the sample near-constant, m2 <=
    (eps * mean)**2, which a zero variance is. Below 3 and 4 points they
    keep their biased values, as scipy does.
    """
    n = x.size
    mean = np.mean(x, keepdims=True)
    d = x - mean
    d2 = d**2
    m2 = np.mean(d2)
    if m2 <= (np.finfo(float).eps * mean[0]) ** 2:
        return math.nan, math.nan
    m3 = np.mean(d2 * d)
    m4 = np.mean(d2**2)
    skew = m3 / m2**1.5
    if n > 2:
        skew = ((n - 1.0) * n) ** 0.5 / (n - 2.0) * m3 / m2**1.5
    kurt = m4 / m2**2.0
    if n > 3:
        kurt = 1.0 / (n - 2) / (n - 3) * ((n**2 - 1.0) * m4 / m2**2.0 - 3 * (n - 1) ** 2.0) + 3.0
    return float(skew), float(kurt - 3)


def summary_stats(ts: TimeSeries) -> SummaryStats:
    """Descriptive statistics; sample (n-1) std, adjusted skewness, excess kurtosis."""
    x = ts.values
    n = x.size
    if n < 2:
        raise ValueError("summary_stats needs length >= 2")
    q25, med, q75 = np.quantile(x, [0.25, 0.5, 0.75])
    skew, kurt = _adjusted_moments(x)
    return SummaryStats(
        count=n,
        mean=float(np.mean(x)),
        std_dev=float(np.std(x, ddof=1)),
        min=float(np.min(x)),
        q25=float(q25),
        median=float(med),
        q75=float(q75),
        max=float(np.max(x)),
        skewness=skew,
        kurtosis=kurt,
        moments_degenerate=not (math.isfinite(skew) and math.isfinite(kurt)),
    )


def mae(actual, predicted) -> float:
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if a.shape != p.shape or a.size < 1:
        raise ValueError(f"length mismatch: {a.shape} vs {p.shape}")
    return float(np.mean(np.abs(a - p)))


def mape(actual, predicted) -> float:
    """Mean absolute percentage error as a fraction (0.07 means 7%)."""
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if a.shape != p.shape or a.size < 1:
        raise ValueError(f"length mismatch: {a.shape} vs {p.shape}")
    if np.any(a == 0.0):
        raise ValueError("mape undefined: actual contains zero")
    return float(np.mean(np.abs(a - p) / np.abs(a)))
