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
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import sarimax
from .decompose import check_periods, decompose
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
from .series import TimeSeries, check_finite, json_text, line_fit, load_csv, mae, mape
from .stat_features import CATALOG as STAT_CATALOG
from .stat_features import MIN_WINDOW as STAT_MIN_WINDOW
# window_features is not called here; perfbench/tracing.py patches it by this name
from .stat_features import extract_stat_features, window_features
from .tda.extract import CATALOG as TDA_CATALOG
from .tda.extract import MIN_WINDOW as TDA_MIN_WINDOW
from .tda.extract import extract_tda_features, fit_diagram_scale

FEATURE_MODES = ("none", "statistical", "topological", "both")
SELECTION_MODES = ("none", "rfe", "rfe+pso")
_STAT_NAMES = frozenset(STAT_CATALOG)
_TDA_NAMES = frozenset(TDA_CATALOG)


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
    # decompose needs n >= 2 * period, so the last complete window ends at
    # or after index period and the segment below always fits
    last_full = n - 1 - half
    seg = trend[last_full - period + 1 : last_full + 1]
    slope = line_fit(seg)[1]
    steps = np.arange(1, n - last_full)
    trend[last_full + 1 :] = trend[last_full] + slope * steps
    residual = np.subtract(ts.values, d.seasonal_sum)
    residual -= trend
    # as in decompose, a finite residual leaves no non-finite trend value
    check_finite(residual)
    return (
        TimeSeries.wrap(trend, ts.start, ts.name),
        d.seasonal,
        TimeSeries.wrap(residual, ts.start, ts.name),
    )


class ConfigError(ValueError):
    """A setting that cannot configure a pipeline; the message names where
    it came from (``file:line: key`` or the flag)."""


def read_settings(path):
    """Yield ``(file:line, key, value)`` for each ``key = value`` line of a
    settings file, the format of both config files and the service registry.
    Blank lines and lines starting with ``#`` are skipped, and so is a
    leading UTF-8 byte-order mark. A file that cannot be opened is a
    ConfigError naming it."""
    try:
        fh = open(path, "r", encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot open: {exc.strerror or exc}") from None
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{path}:{lineno}"
            key, eq, value = line.partition("=")
            if not eq:
                raise ConfigError(f"{where}: expected 'key = value'")
            yield where, key.strip(), value.strip()


def _read_spec(value: str) -> sarimax.SarimaxSpec:
    parts = [int(v) for v in value.split(",")]
    if len(parts) != 7:
        raise ValueError("sarimax_spec needs p,d,q,P,D,Q,s")
    p, d, q, sp, sd, sq, s = parts
    if d or sd:
        raise ValueError("integrated models (d or D > 0) are out of scope")
    return sarimax.SarimaxSpec(p=p, q=q, P=sp, Q=sq, s=s)


# PipelineConfig field -> the one parser of its text in a config file, a
# registry line and a flag; PipelineConfig then checks the value
SETTINGS = {
    "dataset": str,
    "value_column": str,
    "timestamp_column": lambda value: value or None,
    "periods": lambda value: tuple(int(v) for v in value.split(",")),
    "window": int,
    "horizon": int,
    "test_fraction": float,
    "feature_mode": str,
    "selection_mode": str,
    "sarimax_spec": _read_spec,
    "refit_interval": int,
    "seed": int,
}


def coerce_config_value(key: str, value: str, label: str | None = None):
    """Parse a settings value into the type of PipelineConfig field ``key``.

    A value that does not parse, or an unknown key, is a ConfigError whose
    message starts with ``label`` (``file:line: key`` or the flag; the key
    when not given).
    """
    label = label or key
    if key not in SETTINGS:
        raise ConfigError(f"{label}: unknown config key {key!r}")
    try:
        return SETTINGS[key](value)
    except ValueError as exc:
        raise ConfigError(f"{label}: cannot read {value!r}: {exc}") from None


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

    def __post_init__(self):
        check_periods(self.periods)
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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.feature_mode in ("statistical", "both") and self.window < STAT_MIN_WINDOW:
            raise ValueError(
                f"window {self.window} < {STAT_MIN_WINDOW}, the statistical catalog's least"
            )
        if self.feature_mode in ("topological", "both") and self.window < TDA_MIN_WINDOW:
            raise ValueError(
                f"window {self.window} < {TDA_MIN_WINDOW}, the topological catalog's least"
            )


def build_features(
    cfg: PipelineConfig, residual: TimeSeries, scale: float | None = None, columns=None
) -> FeatureMatrix:
    """Window-feature matrix of cfg.feature_mode: the full (pre-selection)
    catalog, or with ``columns`` exactly those columns, in that order.

    Both catalogs slide cfg.window over the residual; scale fixes the
    diagram normalization (None: taken over the windows being extracted).
    With ``columns`` each catalog computes only the groups that hold its
    share of them.
    """
    mode = cfg.feature_mode
    if mode == "none":
        raise ValueError("feature_mode 'none' has no feature matrix")

    def share(catalog):
        return None if columns is None else [c for c in columns if c in catalog]

    parts = []
    if mode in ("statistical", "both"):
        parts.append(extract_stat_features(residual, cfg.window, share(_STAT_NAMES)))
    if mode in ("topological", "both"):
        parts.append(extract_tda_features(residual, cfg.window, scale, share(_TDA_NAMES)))
    fm = parts[0]
    for extra in parts[1:]:
        fm = fm.hstack(extra)
    if columns is not None and fm.column_names != tuple(columns):
        fm = fm.select_columns(columns)  # both catalogs' columns, interleaved
    return fm


def aligned_features(
    cfg: PipelineConfig, residual: TimeSeries, scale: float | None = None, columns=None
):
    """(y, fm): exog rows (window ending at j) paired with the next residual
    r_{j+1}; ``columns`` as in build_features."""
    fm = build_features(cfg, residual, scale, columns)
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
    # (origin, "ExcType: text") for every scheduled refit that raised; the
    # origins after it are forecast from the previous fit
    refit_failures: tuple[tuple[int, str], ...] = ()

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
            "refit_failures": [list(f) for f in self.refit_failures],
        }
        return json_text(doc)


# ---------------------------------------------------------------------------
# forecasting strategies driven by the rolling loop


def _check_not_before_refit(past: TimeSeries, refit_len: int) -> None:
    """A fit is extended by the hours after its refit span; a past that
    ends inside that span has no state to forecast from."""
    if len(past) < refit_len:
        raise ValueError(
            f"past of {len(past)} points ends before the last refit's {refit_len} points"
        )


class SeasonalNaiveStrategy:
    """Repeat the raw series' last daily cycle."""

    period = 24
    label = f"seasonal_naive_{period}"

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg

    def refit(self, past: TimeSeries) -> None:
        pass

    def forecast(self, past: TimeSeries, horizon: int):
        return np.clip(seasonal_naive_forecast(past, self.period, horizon), OEE_MIN, OEE_MAX)

    def train_one_step(self, train: TimeSeries):
        y = train.values
        preds = np.clip(y[: -self.period], OEE_MIN, OEE_MAX)
        return self.period, preds


class RawEtsStrategy:
    """Holt trend smoother applied directly to the raw series."""

    label = "ets_raw"

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        self._fit = None

    def refit(self, past: TimeSeries) -> None:
        self._fit = ets_fit(past)

    def forecast(self, past: TimeSeries, horizon: int):
        state = ets_update(self._fit, past)
        return np.clip(ets_forecast(state, horizon), OEE_MIN, OEE_MAX)

    def train_one_step(self, train: TimeSeries):
        """In-sample one-step predictions from the fit of refit(train), which
        the harness calls just before on the same span."""
        return 0, np.clip(ets_one_step(self._fit, train), OEE_MIN, OEE_MAX)


class RawSarimaStrategy:
    """Seasonal ARMA on the raw series, no exogenous columns."""

    label = "sarima_raw"

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        self._fit = None
        self._refit_len = 0  # series length at the last refit

    def refit(self, past: TimeSeries) -> None:
        self._fit = sarimax.fit(past, self.cfg.sarimax_spec, n_restarts=1, seed=self.cfg.seed)
        self._refit_len = len(past)

    def forecast(self, past: TimeSeries, horizon: int):
        _check_not_before_refit(past, self._refit_len)
        state = sarimax.apply_params(self._fit, past.values[self._refit_len :])
        return np.clip(sarimax.forecast(state, horizon), OEE_MIN, OEE_MAX)

    def train_one_step(self, train: TimeSeries):
        """In-sample one-step predictions from the fit of refit(train), which
        the harness calls just before on the same span."""
        burn = self._fit.spec.burn_in
        preds = train.values[burn:] - self._fit.residuals
        return burn, np.clip(preds, OEE_MIN, OEE_MAX)


class DecomposedStrategy:
    """Decompose, forecast components, recombine.

    Trend via ETS, seasonals via last-cycle repetition, residual via
    SARIMAX whose exogenous rows are window features of the residual. The
    feature columns are chosen once, on the first refit, and coefficients
    re-estimated at every refit. Between refits the coefficients are frozen
    and the fit is extended by the newly observed hours: each origin builds
    the rows since the refit once and extends the fit by them, then by one
    row per extra forecast step. The ETS weights are frozen too, and the
    trend's state at each origin is read from the Holt filter's impulse
    response over the whole re-decomposed trend (forecasters.ets_update).
    A past that ends before the refit span is refused.

    This is the one selection path: the benchmark, the service and the
    CLI's forecast and select commands all fit through it. The rolling
    harness (the benchmark, and the service, which serves the model its
    backtest leaves) and ``select`` refit first on the training span of
    ``train_split``; the ``forecast`` command on the whole series.
    """

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
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
        self.selection_reports = []
        self.pso_result = None

    def _selected_rows(self, residual: np.ndarray) -> np.ndarray:
        """Selected-column rows of every window of residual, by window end."""
        # residual is finite: the causal residual and the finite forecasts
        series = TimeSeries.wrap(residual)
        return build_features(self.cfg, series, self._tda_scale, self.columns).matrix

    def refit(self, past: TimeSeries) -> None:
        """Fit every component on past. The fits and the selection change
        together, only once every fit has succeeded: a refit that raises
        leaves the previous fit in place."""
        cfg = self.cfg
        trend, _, residual = causal_components(past, cfg.periods)
        ets = ets_fit(trend)

        if cfg.feature_mode == "none":
            fit = sarimax.fit(residual, cfg.sarimax_spec, n_restarts=1, seed=cfg.seed)
            self._ets, self._sarimax, self._refit_len = ets, fit, len(past)
            return

        scale = self._tda_scale
        if scale is None and cfg.feature_mode in ("topological", "both"):
            scale = fit_diagram_scale(residual, cfg.window)

        # once chosen, the columns are the only ones built
        y, fm_sel = aligned_features(cfg, residual, scale, self.columns)
        reports, pso_result = self.selection_reports, self.pso_result
        if self.columns is None:
            fm_sel, rep_var = variance_filter(fm_sel)
            fm_sel, rep_corr = correlation_filter(fm_sel, y.values)
            fm_sel, rep_prune = collinearity_prune(fm_sel)
            reports = [rep_var, rep_corr, rep_prune]
            if cfg.selection_mode in ("rfe", "rfe+pso"):
                fm_sel, rep_rfe = rfe_sarimax(y, fm_sel, cfg.sarimax_spec, seed=cfg.seed)
                reports.append(rep_rfe)
            if cfg.selection_mode == "rfe+pso" and fm_sel.n_cols > 1:
                pso_result = pso_bic(y, fm_sel, cfg.sarimax_spec, PsoConfig(seed=cfg.seed))
                chosen = pso_result.best_subset or fm_sel.column_names
                fm_sel = fm_sel.select_columns(chosen)
        fit = sarimax.fit(y, cfg.sarimax_spec, exog=fm_sel, n_restarts=1, seed=cfg.seed)

        self._ets, self._sarimax, self._refit_len = ets, fit, len(past)
        self._tda_scale = scale
        self.columns = fm_sel.column_names
        self.selection_reports, self.pso_result = reports, pso_result

    def forecast(self, past: TimeSeries, horizon: int):
        cfg = self.cfg
        _check_not_before_refit(past, self._refit_len)
        trend, seasonal, residual = causal_components(past, cfg.periods)
        trend_fc = ets_forecast(ets_update(self._ets, trend), horizon)
        seas_fc = [seasonal_naive_forecast(seasonal[p], p, horizon) for p in cfg.periods]

        r = residual.values
        if cfg.feature_mode == "none":
            state = sarimax.apply_params(self._sarimax, r[self._refit_len :])
            resid_fc = sarimax.forecast(state, horizon)
        else:
            # rows of the windows ending at refit_len - 1 .. len(past) - 1: the
            # exog of each hour observed since the refit, then the first step's
            rows = self._selected_rows(r[self._refit_len - cfg.window :])
            state = sarimax.apply_params(self._sarimax, r[self._refit_len :], rows[:-1])
            row = rows[-1:]
            resid_fc = []
            for step in range(horizon):
                nxt = sarimax.forecast(state, 1, exog_future=row)[0]
                resid_fc.append(nxt)
                if step + 1 < horizon:
                    state = sarimax.apply_params(state, [nxt], row)
                    r = np.append(r, nxt)
                    row = self._selected_rows(r[-cfg.window :])

        total = trend_fc + np.sum(seas_fc, axis=0) + np.asarray(resid_fc)
        return np.clip(total, OEE_MIN, OEE_MAX)

    def train_one_step(self, train: TimeSeries):
        """In-sample one-step predictions from the fit of refit(train), which
        the harness calls just before on the same span, so nothing is
        decomposed, built or fitted again."""
        fit = self._sarimax
        start = fit.spec.burn_in + (0 if self.cfg.feature_mode == "none" else self.cfg.window)
        preds = train.values[start : start + fit.residuals.size] - fit.residuals
        return start, np.clip(preds, OEE_MIN, OEE_MAX)


# ---------------------------------------------------------------------------
# rolling harness


def train_split(cfg: PipelineConfig, n: int) -> int:
    """Length of the training span (first refit, ``select``) of n points."""
    return int(math.floor(n * (1.0 - cfg.test_fraction)))


def _evaluate_strategy(series: TimeSeries, cfg: PipelineConfig, strategy) -> EvaluationReport:
    n = len(series)
    split = train_split(cfg, n)
    if split < 2 * max(cfg.periods):
        raise ValueError(
            f"train span {split} < 2 x max period {max(cfg.periods)}; series too short"
        )

    start_time = time.perf_counter()
    origins = list(range(split - 1, n - 1))

    # first refit is exactly the training span (past at the first origin),
    # so fit once here, take in-sample metrics, and skip the k=0 refit below
    train = series.slice(0, split)
    strategy.refit(train)
    t_start, t_preds = strategy.train_one_step(train)
    t_actual = train.values[t_start : t_start + len(t_preds)]

    records = []
    skipped = []
    refit_failures = []
    for k, origin in enumerate(origins):
        past = series.slice(0, origin + 1)
        if k > 0 and k % cfg.refit_interval == 0:
            try:
                strategy.refit(past)
            except (ValueError, np.linalg.LinAlgError) as exc:
                refit_failures.append((origin, f"{type(exc).__name__}: {exc}"))
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
        train_mae=mae(t_actual, t_preds),
        train_mape=mape(t_actual, t_preds),
        records=tuple(records),
        skipped=tuple(skipped),
        refit_failures=tuple(refit_failures),
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


# benchmark row label -> its strategy, built from the run's config
BENCHMARK_STRATEGIES = {
    "seasonal_naive": SeasonalNaiveStrategy,
    "ets_raw": RawEtsStrategy,
    "sarima_raw": RawSarimaStrategy,
    "decomposed_sarima": lambda cfg: DecomposedStrategy(replace(cfg, feature_mode="none")),
    "decomposed_sarimax_statistical": lambda cfg: DecomposedStrategy(
        replace(cfg, feature_mode="statistical")
    ),
    "decomposed_sarimax_topological": lambda cfg: DecomposedStrategy(
        replace(cfg, feature_mode="topological")
    ),
}
BENCHMARK_MODELS = tuple(BENCHMARK_STRATEGIES)


def benchmark(
    cfg: PipelineConfig, series: TimeSeries | None = None, models=BENCHMARK_MODELS
) -> list[EvaluationReport]:
    """Evaluate the standard model set on identical test origins."""
    unknown = [m for m in models if m not in BENCHMARK_STRATEGIES]
    if unknown:
        raise ValueError(f"unknown benchmark model {unknown[0]!r}")
    series = series if series is not None else load_series(cfg)
    return [_evaluate_strategy(series, cfg, BENCHMARK_STRATEGIES[m](cfg)) for m in models]


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
