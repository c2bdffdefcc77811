"""Hourly time-series container, CSV ingestion, summary statistics, error
metrics and the JSON writer of the reports.

Everything downstream (decomposition, feature extraction, model fitting)
consumes the :class:`TimeSeries` defined here. Series are immutable value
objects: the sample array is marked read-only, so they can be shared freely
between threads and cached without defensive copies. The constructor copies
and checks what it is given; ``TimeSeries.wrap`` takes over an array that
the library has just computed and checked, without either.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

HOUR = timedelta(hours=1)
EPOCH = datetime(2000, 1, 1, 0)  # the start of a series given without one


class CsvError(ValueError):
    """Raised when a CSV file violates the expected input contract."""


def check_finite(values: np.ndarray) -> None:
    """Raise the ValueError TimeSeries raises for values holding a NaN or an
    infinity; for the callers of ``TimeSeries.wrap``, which checks nothing."""
    if not np.isfinite(values).all():
        raise ValueError("TimeSeries values must be finite (no NaN/inf)")


@dataclass(frozen=True)
class TimeSeries:
    """Contiguous hourly series: value i is observed at start + i hours.

    The constructor copies ``values`` into a new read-only float array and
    refuses one that is not 1-d, is empty or holds a NaN or an infinity.
    """

    values: np.ndarray
    start: datetime = EPOCH
    name: str = ""

    def __post_init__(self):
        arr = np.array(self.values, dtype=float, copy=True)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("TimeSeries needs a 1-d sequence with length >= 1")
        check_finite(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def wrap(cls, values: np.ndarray, start: datetime = EPOCH, name: str = "") -> "TimeSeries":
        """A series over ``values`` itself, with no copy and no check.

        Only for a finite, non-empty 1-d float64 array that its caller has
        just computed or checked (with check_finite, whose error is the
        constructor's) and hands over: the decomposition's components, a
        forecast origin's residual. ``values`` is marked read-only and must
        not be written again.
        """
        values.setflags(write=False)
        series = object.__new__(cls)
        series.__dict__.update(values=values, start=start, name=name)
        return series

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
    name: str = "",
) -> TimeSeries:
    """Read one value column from a headered CSV into a TimeSeries.

    If ``timestamp_column`` is given it must hold ISO-8601 hour-resolution
    stamps; rows must be hourly-contiguous, and a gap is an error naming
    the row (window features would silently straddle the hole otherwise).
    Without a timestamp column rows are taken as consecutive hours from
    2000-01-01 00:00. A value that does not parse or is not finite
    (``nan``, ``inf``), and a stamp with a UTC offset where the first row's
    has none or the reverse, are errors naming the row. A leading UTF-8
    byte-order mark, as spreadsheet exports write, is skipped.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
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
        start = prev = None
        for rownum, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            # a short row's absent cells fail to parse below and are named so
            row += ["<missing>"] * (len(header) - len(row))
            try:
                values.append(float(row[vcol]))
            except ValueError:
                raise CsvError(
                    f"{path}: non-numeric value {row[vcol]!r} in column "
                    f"{value_column!r} at row {rownum}"
                ) from None
            if not math.isfinite(values[-1]):
                raise CsvError(
                    f"{path}: non-finite value {row[vcol]!r} in column "
                    f"{value_column!r} at row {rownum}"
                )
            if tcol is None:
                continue
            try:
                stamp = datetime.fromisoformat(row[tcol].strip())
            except ValueError:
                raise CsvError(f"{path}: bad timestamp {row[tcol]!r} at row {rownum}") from None
            stamp = stamp.replace(minute=0, second=0, microsecond=0)
            if prev is None:
                start = stamp
            elif (stamp.tzinfo is None) != (start.tzinfo is None):
                raise CsvError(
                    f"{path}: timestamp {row[tcol]!r} at row {rownum} "
                    f"{'lacks' if stamp.tzinfo is None else 'has'} a UTC offset, "
                    "unlike the first row's"
                )
            else:
                gap = int(round((stamp - prev - HOUR) / HOUR))
                if gap < 0:
                    raise CsvError(f"{path}: timestamps not increasing at row {rownum}")
                if gap > 0:
                    raise CsvError(f"{path}: {gap}-hour gap before row {rownum}")
            prev = stamp

    if not values:
        raise CsvError(f"{path}: no data rows")
    if start is None:
        start = EPOCH

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


def line_fit(y: np.ndarray) -> tuple[float, float]:
    """(intercept, slope) of the least-squares line through y at times
    0..n-1 (n >= 2), in closed form over the centered times."""
    mid = (y.size - 1) / 2.0
    t = np.arange(y.size) - mid
    slope = float(t @ y) / float(t @ t)
    # sum / count is ndarray.mean's own arithmetic, without its Python wrapper
    return float(np.add.reduce(y) / y.size) - slope * mid, slope


def json_text(doc) -> str:
    """``doc`` as indented JSON, with every non-finite float written as
    null: NaN and infinity are not JSON."""

    def finite(v):
        if isinstance(v, float):
            return v if math.isfinite(v) else None
        if isinstance(v, dict):
            return {k: finite(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [finite(x) for x in v]
        return v

    return json.dumps(finite(doc), indent=2, allow_nan=False)
