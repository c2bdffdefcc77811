"""Forecasting engine for short, volatile hourly equipment-efficiency series.

Pipeline: additive multi-seasonal decomposition -> statistical and
topological window features on the residual -> p-value / BIC feature
selection -> seasonal ARMA with exogenous regressors for the residual,
ETS for the trend, seasonal naive for the cycles -> recombined, clamped
forecasts with a rolling-origin benchmark harness and a file-backed
serving endpoint.
"""

from .decompose import DecompositionResult, decompose
from .feature_matrix import FeatureMatrix
from .forecasters import (
    EtsFit,
    OEE_MAX,
    OEE_MIN,
    ets_fit,
    ets_forecast,
    seasonal_naive_forecast,
)
from .pipeline import (
    EvaluationReport,
    PipelineConfig,
    benchmark,
    rolling_forecast,
)
from .selection import (
    PsoConfig,
    PsoResult,
    SelectionReport,
    correlation_filter,
    pso_bic,
    rfe_sarimax,
    variance_filter,
)
from .series import (
    SummaryStats,
    TimeSeries,
    load_csv,
    mae,
    mape,
    summary_stats,
)
from .sarimax import SarimaxFit, SarimaxSpec, fit, forecast, simulate
from .stat_features import extract_stat_features
from .tda import extract_tda_features, vr_persistence

__version__ = "0.1.0"
