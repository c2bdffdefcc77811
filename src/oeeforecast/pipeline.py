"""End-to-end rolling-origin evaluation and the benchmark harness.

Causality contract: a forecast issued at origin t may read raw values,
features, and fitted state derived from positions <= t only. To honor
that with centered-moving-average decomposition (which cannot be extended
causally from a frozen fit), the decomposition is recomputed from
data[0..t] at every origin, while model parameters (ETS weights, SARIMAX
coefficients, the selected feature columns, and the diagram scale) are
re-estimated only every refit_interval origins. Multi-step forecasts
recompute exogenous rows recursively from observed-plus-predicted
residuals.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import sarimax
from .decompose import decompose
from .feature_matrix import FeatureMatrix
from .forecasters import (
    OEE_MAX,
    OEE_MIN,
    ets_fit,
    ets_forecast,
    ets_one_step,
    ets_update,
    seasonal_naive_forecast,
)
from .selection import (
    PsoConfig,
    collinearity_prune,
    correlation_filter,
    pso_bic,
    rfe_sarimax,
    variance_filter,
)
from .series import TimeSeries, load_csv, mae, mape
# window_features is not called here; perfbench/tracing.py patches it by this name
from .stat_features import extract_stat_features, window_features
from .tda.extract import TdaParams, extract_tda_features, fit_diagram_scale

FEATURE_MODES = ("none", "statistical", "topological", "both")
SELECTION_MODES = ("none", "rfe", "rfe+pso")


def causal_components(ts: TimeSeries, periods):
    """Decomposition tuned for forecasting from the right edge.

    The plain decomposition shrinks its moving-average window toward the
    edges, which pins the last residual to zero and fills the trend tail
    with raw noise; an ETS fit would then extrapolate garbage. Here the
    trend's last half-window is replaced by a linear extension of the last
    complete-window trend segment (local least-squares slope), and the
    residual recomputed as the exact remainder. No future values are read.
    """
    d = decompose(ts, periods)
    trend = d.trend.values.copy()
    n = trend.size
    period = max(periods)
    half = period // 2
    last_full = n - 1 - half
    if last_full >= period:
        seg = trend[last_full - period + 1 : last_full + 1]
        slope = np.polyfit(np.arange(period, dtype=float), seg, 1)[0]
        steps = np.arange(1, n - last_full)
        trend[last_full + 1 :] = trend[last_full] + slope * steps
    seasonal_sum = sum(c.values for c in d.seasonal.values())
    residual = ts.values - seasonal_sum - trend
    return (
        ts.with_values(trend),
        {p: d.seasonal[p] for p in d.periods},
        ts.with_values(residual),
    )


@dataclass(frozen=True)
class PipelineConfig:
    dataset: str = ""
    value_column: str = "value"
    timestamp_column: str | None = None
    periods: tuple[int, ...] = (8, 24, 168)
    window: int = 24
    horizon: int = 4
    test_fraction: float = 0.2
    feature_mode: str = "none"
    selection_mode: str = "none"
    sarimax_spec: sarimax.SarimaxSpec = field(
        default_factory=lambda: sarimax.SarimaxSpec(p=4, q=0, P=1, Q=1, s=8)
    )
    refit_interval: int = 24
    seed: int = 0
    pso: PsoConfig = field(default_factory=PsoConfig)
    tda: TdaParams = field(default_factory=TdaParams)  # its window is taken from `window`
    clamp: tuple[float, float] = (OEE_MIN, OEE_MAX)

    def __post_init__(self):
        if not (0.0 < self.test_fraction < 0.5):
            raise ValueError("test_fraction must be in (0, 0.5)")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.feature_mode not in FEATURE_MODES:
            raise ValueError(f"feature_mode must be one of {FEATURE_MODES}")
        if self.selection_mode not in SELECTION_MODES:
            raise ValueError(f"selection_mode must be one of {SELECTION_MODES}")
        if self.refit_interval < 1:
            raise ValueError("refit_interval must be >= 1")


def _tda_params(cfg: PipelineConfig) -> TdaParams:
    """The topological catalog's parameters at the pipeline's window."""
    return replace(cfg.tda, window=cfg.window)


def build_features(
    cfg: PipelineConfig, residual: TimeSeries, scale: float | None = None
) -> FeatureMatrix:
    """Full (pre-selection) window-feature matrix of cfg.feature_mode.

    Both catalogs slide cfg.window over the residual; scale fixes the
    diagram normalization (None: taken over the windows being extracted).
    """
    mode = cfg.feature_mode
    if mode == "none":
        raise ValueError("feature_mode 'none' has no feature matrix")
    parts = []
    if mode in ("statistical", "both"):
        parts.append(extract_stat_features(residual, cfg.window))
    if mode in ("topological", "both"):
        parts.append(extract_tda_features(residual, _tda_params(cfg), scale=scale))
    fm = parts[0]
    for extra in parts[1:]:
        fm = fm.hstack(extra)
    return fm


def aligned_features(cfg: PipelineConfig, residual: TimeSeries, scale: float | None = None):
    """(y, fm): exog rows (window ending at j) paired with the next residual r_{j+1}."""
    fm = build_features(cfg, residual, scale)
    r = residual.values
    y = TimeSeries(r[cfg.window :], residual.start, "residual_target")
    rows = [i for i, j in enumerate(fm.row_index) if j <= len(r) - 2]
    return y, fm.select_rows(rows)


@dataclass(frozen=True)
class EvaluationReport:
    model_label: str
    mae: float
    mape: float
    cost_seconds: float
    n_forecasts: int
    per_step_errors: tuple[float, ...]
    train_mae: float
    train_mape: float
    # (origin, step, actual, predicted) for every scored pair
    records: tuple[tuple[int, int, float, float], ...] = ()
    # (origin, "ExcType: text") for every origin whose forecast raised
    skipped: tuple[tuple[int, str], ...] = ()

    @property
    def n_skipped(self) -> int:
        return len(self.skipped)

    def to_json(self) -> str:
        doc = {
            "model_label": self.model_label,
            "mae": self.mae,
            "mape": self.mape,
            "cost_seconds": self.cost_seconds,
            "n_forecasts": self.n_forecasts,
            "per_step_errors": list(self.per_step_errors),
            "train_mae": self.train_mae,
            "train_mape": self.train_mape,
            "n_skipped": self.n_skipped,
            "skipped": [list(s) for s in self.skipped],
        }
        return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# forecasting strategies driven by the rolling loop


class SeasonalNaiveStrategy:
    """Repeat the raw series' last daily cycle."""

    def __init__(self, period: int = 24, clamp=(OEE_MIN, OEE_MAX)):
        self.period = period
        self.clamp = clamp
        self.label = f"seasonal_naive_{period}"

    def refit(self, past: TimeSeries) -> None:
        pass

    def forecast(self, past: TimeSeries, horizon: int):
        fc = seasonal_naive_forecast(past, self.period, horizon)
        return np.clip(fc.values, *self.clamp)

    def train_one_step(self, train: TimeSeries):
        y = train.values
        preds = np.clip(y[: -self.period], *self.clamp)
        return self.period, preds


class RawEtsStrategy:
    """Holt trend smoother applied directly to the raw series."""

    label = "ets_raw"

    def __init__(self, clamp=(OEE_MIN, OEE_MAX)):
        self.clamp = clamp
        self._fit = None

    def refit(self, past: TimeSeries) -> None:
        self._fit = ets_fit(past)

    def forecast(self, past: TimeSeries, horizon: int):
        state = ets_update(self._fit, past)
        return np.clip(ets_forecast(state, horizon).values, *self.clamp)

    def train_one_step(self, train: TimeSeries):
        """In-sample one-step predictions from the fit of refit(train), which
        the harness calls just before on the same span."""
        return 0, np.clip(ets_one_step(self._fit, train), *self.clamp)


class RawSarimaStrategy:
    """Seasonal ARMA on the raw series, no exogenous columns."""

    def __init__(self, spec: sarimax.SarimaxSpec, clamp=(OEE_MIN, OEE_MAX), seed: int = 0):
        self.spec = spec
        self.clamp = clamp
        self.seed = seed
        self.label = "sarima_raw"
        self._fit = None

    def refit(self, past: TimeSeries) -> None:
        self._fit = sarimax.fit(past, self.spec, n_restarts=1, seed=self.seed)

    def forecast(self, past: TimeSeries, horizon: int):
        state = sarimax.apply_params(self._fit, past)
        return np.clip(sarimax.forecast(state, horizon).values, *self.clamp)

    def train_one_step(self, train: TimeSeries):
        """In-sample one-step predictions from the fit of refit(train), which
        the harness calls just before on the same span."""
        burn = self._fit.spec.burn_in
        preds = train.values[burn:] - self._fit.residuals
        return burn, np.clip(preds, *self.clamp)


class DecomposedStrategy:
    """Decompose, forecast components, recombine.

    Trend via ETS, seasonals via last-cycle repetition, residual via
    SARIMAX whose exogenous rows are window features of the residual. The
    feature columns are chosen once, on the first (training-span) refit,
    and coefficients re-estimated at every refit. Between refits the fitted
    residual/feature history is frozen and extended with the newly observed
    hours: each origin builds the rows since the refit once, plus one row
    per extra forecast step.

    This is the one selection path: the benchmark, the service and the
    CLI's forecast and select commands all fit through it.
    """

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        self.clamp = cfg.clamp
        self.label = (
            f"decomposed_sarimax_{cfg.feature_mode}"
            if cfg.feature_mode != "none"
            else "decomposed_sarima"
        )
        self._ets = None
        self._sarimax = None
        self.columns: tuple[str, ...] | None = None  # selected on the first refit
        self._tda_scale: float | None = None
        self._refit_len = 0  # series length at the last refit
        self._state_y: np.ndarray | None = None  # residual targets at refit
        self._state_x: np.ndarray | None = None  # aligned exog rows at refit
        self.selection_reports = []
        self.pso_result = None

    def _selected_rows(self, residual: np.ndarray) -> np.ndarray:
        """Selected-column rows of every window of residual, by window end."""
        fm = build_features(self.cfg, TimeSeries(residual), self._tda_scale)
        return fm.select_columns(self.columns).matrix

    def refit(self, past: TimeSeries) -> None:
        cfg = self.cfg
        trend, _, residual = causal_components(past, cfg.periods)
        self._ets = ets_fit(trend)
        self._refit_len = len(past)

        if cfg.feature_mode == "none":
            self._sarimax = sarimax.fit(
                residual, cfg.sarimax_spec, n_restarts=1, seed=cfg.seed
            )
            self._state_y = residual.values.copy()
            self._state_x = None
            return

        if self._tda_scale is None and cfg.feature_mode in ("topological", "both"):
            self._tda_scale = fit_diagram_scale(residual, _tda_params(cfg))

        y, fm = aligned_features(cfg, residual, self._tda_scale)
        if self.columns is None:
            fm_sel, rep_var = variance_filter(fm)
            fm_sel, rep_corr = correlation_filter(fm_sel, y.values)
            fm_sel, rep_prune = collinearity_prune(fm_sel)
            self.selection_reports = [rep_var, rep_corr, rep_prune]
            if cfg.selection_mode in ("rfe", "rfe+pso"):
                fm_sel, rep_rfe = rfe_sarimax(y, fm_sel, cfg.sarimax_spec)
                self.selection_reports.append(rep_rfe)
            if cfg.selection_mode == "rfe+pso" and fm_sel.n_cols > 1:
                pso_cfg = replace(self.cfg.pso, seed=cfg.seed)
                self.pso_result = pso_bic(y, fm_sel, cfg.sarimax_spec, pso_cfg)
                chosen = self.pso_result.best_subset or fm_sel.column_names
                fm_sel = fm_sel.select_columns(chosen)
            self.columns = fm_sel.column_names
        else:
            fm_sel = fm.select_columns(self.columns)
        self._sarimax = sarimax.fit(
            y, cfg.sarimax_spec, exog=fm_sel, n_restarts=1, seed=cfg.seed
        )
        self._state_y = y.values.copy()
        self._state_x = np.asarray(fm_sel.matrix, dtype=float)

    def forecast(self, past: TimeSeries, horizon: int):
        cfg = self.cfg
        trend, seasonal, residual = causal_components(past, cfg.periods)
        trend_fc = ets_forecast(ets_update(self._ets, trend), horizon).values
        seas_fc = [
            seasonal_naive_forecast(seasonal[p], p, horizon).values for p in cfg.periods
        ]

        r = residual.values
        y = np.concatenate([self._state_y, r[self._refit_len :]])
        if cfg.feature_mode == "none":
            state = sarimax.apply_params(self._sarimax, TimeSeries(y))
            resid_fc = sarimax.forecast(state, horizon).values
        else:
            # rows of the windows ending at refit_len - 1 .. len(past) - 1: the
            # exog of each hour observed since the refit, then the first step's
            rows = self._selected_rows(r[self._refit_len - cfg.window :])
            x = np.vstack([self._state_x, rows[:-1]])
            row = rows[-1:]
            resid_fc = []
            for step in range(horizon):
                state = sarimax.apply_params(self._sarimax, TimeSeries(y), exog=x)
                nxt = sarimax.forecast(state, 1, exog_future=row).values[0]
                resid_fc.append(nxt)
                if step + 1 < horizon:
                    r = np.append(r, nxt)
                    y = np.append(y, nxt)
                    x = np.vstack([x, row])
                    row = self._selected_rows(r[-cfg.window :])

        total = np.asarray(trend_fc) + np.sum(seas_fc, axis=0) + np.asarray(resid_fc)
        return np.clip(total, *self.clamp)

    def train_one_step(self, train: TimeSeries):
        """In-sample one-step predictions from the last refit's fit and state.

        The harness calls this right after refit(train) on the same span, so
        nothing is decomposed, built or fitted again.
        """
        fit = self._sarimax
        state = sarimax.apply_params(fit, TimeSeries(self._state_y), exog=self._state_x)
        start = fit.spec.burn_in + (0 if self.cfg.feature_mode == "none" else self.cfg.window)
        preds = train.values[start : start + state.residuals.size] - state.residuals
        return start, np.clip(preds, *self.clamp)


# ---------------------------------------------------------------------------
# rolling harness


def _evaluate_strategy(series: TimeSeries, cfg: PipelineConfig, strategy) -> EvaluationReport:
    n = len(series)
    split = int(math.floor(n * (1.0 - cfg.test_fraction)))
    if split < 2 * max(cfg.periods):
        raise ValueError(
            f"train span {split} < 2 x max period {max(cfg.periods)}; series too short"
        )

    start_time = time.perf_counter()
    first_origin = split - 1
    origins = list(range(first_origin, n - 1))

    # first refit is exactly the training span (past at the first origin),
    # so fit once here, take in-sample metrics, and skip the k=0 refit below
    train = series.slice(0, split)
    strategy.refit(train)
    t_start, t_preds = strategy.train_one_step(train)
    t_actual = train.values[t_start : t_start + len(t_preds)]
    train_mae = mae(t_actual, t_preds)
    train_mape = mape(t_actual, t_preds)

    records = []
    skipped = []
    for k, origin in enumerate(origins):
        past = series.slice(0, origin + 1)
        if k > 0 and k % cfg.refit_interval == 0:
            strategy.refit(past)
        steps = min(cfg.horizon, n - 1 - origin)
        try:
            values = strategy.forecast(past, steps)
        except (ValueError, np.linalg.LinAlgError) as exc:
            skipped.append((origin, f"{type(exc).__name__}: {exc}"))
            continue
        for h in range(1, steps + 1):
            records.append((origin, h, float(series.values[origin + h]), float(values[h - 1])))

    if not records:
        raise ValueError("no forecasts were produced")
    actual = np.array([r[2] for r in records])
    pred = np.array([r[3] for r in records])
    per_step = []
    for h in range(1, cfg.horizon + 1):
        sel = [i for i, r in enumerate(records) if r[1] == h]
        per_step.append(mae(actual[sel], pred[sel]) if sel else math.nan)

    return EvaluationReport(
        model_label=strategy.label,
        mae=mae(actual, pred),
        mape=mape(actual, pred),
        cost_seconds=time.perf_counter() - start_time,
        n_forecasts=len(origins) - len(skipped),
        per_step_errors=tuple(per_step),
        train_mae=train_mae,
        train_mape=train_mape,
        records=tuple(records),
        skipped=tuple(skipped),
    )


def load_series(cfg: PipelineConfig) -> TimeSeries:
    return load_csv(
        cfg.dataset,
        cfg.value_column,
        timestamp_column=cfg.timestamp_column,
        name=str(cfg.dataset),
    )


def rolling_forecast(
    cfg: PipelineConfig, series: TimeSeries | None = None, strategy=None
) -> EvaluationReport:
    """Chronological-split rolling-origin evaluation of the configured model.

    A custom strategy (e.g. a stub) may be injected for harness testing;
    by default the config's decomposed model is evaluated.
    """
    series = series if series is not None else load_series(cfg)
    strategy = strategy if strategy is not None else DecomposedStrategy(cfg)
    return _evaluate_strategy(series, cfg, strategy)


BENCHMARK_MODELS = (
    "seasonal_naive",
    "ets_raw",
    "sarima_raw",
    "decomposed_sarima",
    "decomposed_sarimax_statistical",
    "decomposed_sarimax_topological",
)


def benchmark(
    cfg: PipelineConfig, series: TimeSeries | None = None, models=BENCHMARK_MODELS
) -> list[EvaluationReport]:
    """Evaluate the standard model set on identical test origins."""
    series = series if series is not None else load_series(cfg)
    reports = []
    for model in models:
        if model == "seasonal_naive":
            strat = SeasonalNaiveStrategy(clamp=cfg.clamp)
        elif model == "ets_raw":
            strat = RawEtsStrategy(clamp=cfg.clamp)
        elif model == "sarima_raw":
            strat = RawSarimaStrategy(cfg.sarimax_spec, clamp=cfg.clamp, seed=cfg.seed)
        elif model == "decomposed_sarima":
            strat = DecomposedStrategy(replace(cfg, feature_mode="none"))
        elif model == "decomposed_sarimax_statistical":
            strat = DecomposedStrategy(replace(cfg, feature_mode="statistical"))
        elif model == "decomposed_sarimax_topological":
            strat = DecomposedStrategy(replace(cfg, feature_mode="topological"))
        else:
            raise ValueError(f"unknown benchmark model {model!r}")
        reports.append(_evaluate_strategy(series, cfg, strat))
    return reports


def benchmark_to_csv(reports, path) -> None:
    """Deterministic CSV: metrics only (wall-clock cost lives in the JSON,
    where bytes are allowed to differ between runs)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        header = ["model", "mae", "mape", "train_mae", "train_mape", "n_forecasts", "n_skipped"]
        max_h = max(len(r.per_step_errors) for r in reports)
        header += [f"mae_step_{h}" for h in range(1, max_h + 1)]
        w.writerow(header)
        for r in reports:
            row = [
                r.model_label,
                repr(float(r.mae)),
                repr(float(r.mape)),
                repr(float(r.train_mae)),
                repr(float(r.train_mape)),
                r.n_forecasts,
                r.n_skipped,
            ]
            row += [repr(float(v)) for v in r.per_step_errors]
            w.writerow(row)


def benchmark_table(reports) -> str:
    lines = [f"{'model':34s} {'MAE':>8s} {'MAPE':>8s} {'cost_s':>8s}"]
    for r in reports:
        lines.append(
            f"{r.model_label:34s} {r.mae:8.3f} {r.mape:8.3f} {r.cost_seconds:8.1f}"
        )
    return "\n".join(lines)


def forecasts_to_csv(report: EvaluationReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["origin", "step", "actual", "predicted"])
        for origin, step, actual, predicted in report.records:
            w.writerow([origin, step, repr(float(actual)), repr(float(predicted))])


def leakage_audit(fm, split_index: int, builder=None, source: TimeSeries | None = None) -> bool:
    """Check that feature rows cannot see past their own window end.

    Structural checks always run: strictly increasing row indices within
    plausible bounds. With a builder (series -> FeatureMatrix) and the
    source series, the perturbation probe also runs: post-split values are
    rewritten and pre-split rows must come back bit-identical.
    """
    ridx = list(fm.row_index)
    if any(b <= a for a, b in zip(ridx, ridx[1:])):
        return False
    if ridx and ridx[0] < 0:
        return False

    if builder is not None and source is not None:
        rng = np.random.default_rng(0)
        mutated = source.values.copy()
        tail = mutated[split_index:]
        mutated[split_index:] = np.clip(
            tail + rng.uniform(5.0, 25.0, tail.size) * np.sign(30.0 - tail), OEE_MIN, OEE_MAX
        )
        probe = builder(TimeSeries(mutated, source.start, source.name))
        if tuple(probe.row_index) != tuple(fm.row_index):
            return False
        keep = [i for i, r in enumerate(ridx) if r < split_index]
        base_rows = np.asarray(fm.matrix)[keep]
        probe_rows = np.asarray(probe.matrix)[keep]
        if not np.array_equal(base_rows, probe_rows):
            return False
    return True
