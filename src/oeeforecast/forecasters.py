"""Component forecasters: Holt-trend ETS and seasonal naive.

After decomposition the trend is smooth and aperiodic, so the additive
error / additive trend / no-season smoother is enough for it; seasonal
components repeat their last full cycle; the residual model lives in
``sarimax``. OEE_MIN and OEE_MAX bound the observable efficiency range
that recombined forecasts are clamped to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import TimeSeries, line_fit

OEE_MIN = 1.0
OEE_MAX = 60.0


@dataclass(frozen=True)
class EtsFit:
    alpha: float  # level smoothing, in (0, 1)
    beta: float  # trend smoothing, in [0, 1)
    level: float
    slope: float
    sse: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must be in (0,1), got {self.alpha}")
        if not (0.0 <= self.beta < 1.0):
            raise ValueError(f"beta must be in [0,1), got {self.beta}")
        if self.sse < 0.0:
            raise ValueError("sse must be >= 0")


def _init_state(y: np.ndarray) -> tuple[float, float]:
    # least-squares line through the first 10 points; state is positioned
    # one step before the first observation so the first prediction lands
    # on the line's intercept
    intercept, slope = line_fit(y[:10])
    return intercept - slope, slope


def _holt_filter(y: np.ndarray, alpha, beta, l0: float, b0: float, preds: list | None = None):
    """Final (level, slope, sse); each one-step prediction is appended to preds if given.

    alpha and beta may be equal-shape arrays: the recursion then runs for
    every (alpha, beta) pair at once and returns arrays. The loop reads y as
    Python floats and takes 1 - alpha and 1 - beta once: the same IEEE
    operations in the same order as on numpy scalars, without their
    per-operation overhead.
    """
    keep_a, keep_b = 1.0 - alpha, 1.0 - beta
    level, slope, sse = l0, b0, 0.0
    for v in y.tolist():
        pred = level + slope
        if preds is not None:
            preds.append(pred)
        err = v - pred
        sse += err * err
        new_level = alpha * v + keep_a * pred
        slope = beta * (new_level - level) + keep_b * slope
        level = new_level
    return level, slope, sse


def _holt_sse_grid(y: np.ndarray, alphas: np.ndarray, betas: np.ndarray, l0: float, b0: float):
    """The (alpha, beta, sse) of the least one-step-ahead SSE over the grid."""
    a = np.repeat(alphas, betas.size)
    b = np.tile(betas, alphas.size)
    _, _, sse = _holt_filter(y, a, b, l0, b0)
    k = int(np.argmin(sse))
    return float(a[k]), float(b[k]), float(sse[k])


def ets_fit(ts: TimeSeries) -> EtsFit:
    """Fit the (A,A,N) smoother by one-step-ahead SSE.

    A full 0.01-step grid over alpha in (0,1), beta in [0,1) is scanned
    first (vectorized), then coordinate descent with a shrinking step
    polishes the winner.
    """
    y = ts.values.astype(float)
    if y.size < 10:
        raise ValueError("ets_fit needs length >= 10")
    l0, b0 = _init_state(y)

    alphas = np.arange(0.01, 1.00, 0.01)
    betas = np.arange(0.00, 1.00, 0.01)
    alpha, beta, best = _holt_sse_grid(y, alphas, betas, l0, b0)

    step = 0.005
    while step >= 1e-4:
        moved = False
        for da, db in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
            ca = min(max(alpha + da, 1e-4), 1.0 - 1e-4)
            cb = min(max(beta + db, 0.0), 1.0 - 1e-4)
            _, _, sse = _holt_filter(y, ca, cb, l0, b0)
            if sse < best - 1e-12:
                alpha, beta, best = ca, cb, sse
                moved = True
        if not moved:
            step /= 2.0

    level, slope, sse = _holt_filter(y, alpha, beta, l0, b0)
    return EtsFit(alpha=alpha, beta=beta, level=level, slope=slope, sse=sse)


def ets_update(fit: EtsFit, ts: TimeSeries) -> EtsFit:
    """Re-filter a (possibly longer) series with frozen smoothing weights."""
    y = ts.values.astype(float)
    l0, b0 = _init_state(y)
    level, slope, sse = _holt_filter(y, fit.alpha, fit.beta, l0, b0)
    return EtsFit(fit.alpha, fit.beta, level, slope, sse)


def ets_one_step(fit: EtsFit, ts: TimeSeries) -> np.ndarray:
    """One-step-ahead predictions over ts with frozen smoothing weights."""
    y = ts.values.astype(float)
    preds: list[float] = []
    _holt_filter(y, fit.alpha, fit.beta, *_init_state(y), preds=preds)
    return np.asarray(preds)


def ets_forecast(fit: EtsFit, horizon: int) -> np.ndarray:
    """Linear continuation: forecast(h) = level + h * slope, h = 1..horizon."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    vals = np.array([fit.level + h * fit.slope for h in range(1, horizon + 1)], dtype=float)
    if not np.isfinite(vals).all():
        raise ValueError("forecast values must be finite")
    return vals


def seasonal_naive_forecast(seasonal: TimeSeries, period: int, horizon: int) -> np.ndarray:
    """Repeat the last complete cycle of the component."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    n = len(seasonal)
    if n < period:
        raise ValueError(f"series length {n} < period {period}")
    return seasonal.values[n - period + (np.arange(horizon) % period)]
