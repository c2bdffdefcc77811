import json

import numpy as np
import pytest

from oeeforecast import pipeline
from oeeforecast.pipeline import (
    BENCHMARK_MODELS,
    DecomposedStrategy,
    PipelineConfig,
    RawEtsStrategy,
    RawSarimaStrategy,
    benchmark,
    benchmark_table,
    benchmark_to_csv,
    build_features,
    forecasts_to_csv,
    leakage_audit,
    rolling_forecast,
)
from oeeforecast.sarimax import SarimaxSpec
from oeeforecast.selection import PsoConfig
from oeeforecast.series import TimeSeries
from oeeforecast.stat_features import extract_stat_features

from conftest import make_oee_series
from oracles import forecast_rebuilding_rows


def small_cfg(**kw):
    defaults = dict(
        periods=(8, 24),
        test_fraction=0.15,
        horizon=4,
        refit_interval=24,
        sarimax_spec=SarimaxSpec(p=2, q=0, P=1, Q=1, s=8),
        seed=0,
    )
    defaults.update(kw)
    return PipelineConfig(**defaults)


class PerfectForesight:
    """Harness stub: reads the future it was handed. MAE must be 0."""

    label = "perfect_stub"

    def __init__(self, full: TimeSeries):
        self.full = full

    def refit(self, past):
        pass

    def forecast(self, past, horizon):
        t = len(past) - 1
        return self.full.values[t + 1 : t + 1 + horizon]

    def train_one_step(self, train):
        return 0, train.values.copy()


@pytest.fixture(scope="module")
def series_small():
    return make_oee_series(420, seed=3, name="pipeline_series")


class TestRollingHarness:
    def test_perfect_stub_scores_zero(self, series_small):
        cfg = small_cfg()
        rep = rolling_forecast(cfg, series=series_small, strategy=PerfectForesight(series_small))
        assert rep.mae == 0.0
        assert rep.mape == 0.0
        assert rep.n_forecasts > 0

    def test_decomposed_sarima_runs_and_beats_seasonal_naive_on_sarma_like_data(self):
        # synthetic series whose residual is a genuine SARMA process
        from oeeforecast.sarimax import simulate

        base = simulate(
            SarimaxSpec(p=1, P=1, s=8), n=420, seed=5, ar=(0.7,), sar=(0.4,), sigma2=4.0
        )
        t = np.arange(420)
        y = np.clip(
            30.0 + 6.0 * np.sin(2 * np.pi * t / 24.0) + base.values, 1.0, 60.0
        )
        series = TimeSeries(y, name="sarma_composite")
        cfg = small_cfg(sarimax_spec=SarimaxSpec(p=1, q=0, P=1, Q=0, s=8))
        from oeeforecast.pipeline import SeasonalNaiveStrategy

        sarima_rep = rolling_forecast(cfg, series=series)
        naive_rep = rolling_forecast(cfg, series=series, strategy=SeasonalNaiveStrategy())
        assert sarima_rep.mae < naive_rep.mae

    def test_report_fields_sane(self, series_small):
        cfg = small_cfg()
        rep = rolling_forecast(cfg, series=series_small)
        assert rep.model_label == "decomposed_sarima"
        assert rep.mae >= 0 and rep.mape >= 0
        assert rep.cost_seconds >= 0
        assert len(rep.per_step_errors) == cfg.horizon
        assert rep.train_mae >= 0
        assert all(1.0 <= r[3] <= 60.0 for r in rep.records)

    def test_forecast_origins_cover_test_span(self, series_small):
        cfg = small_cfg()
        rep = rolling_forecast(cfg, series=series_small)
        split = int(np.floor(len(series_small) * (1 - cfg.test_fraction)))
        origins = {r[0] for r in rep.records}
        assert min(origins) == split - 1
        assert max(origins) == len(series_small) - 2

    def test_statistical_mode_runs(self, series_small):
        cfg = small_cfg(feature_mode="statistical", test_fraction=0.1)
        rep = rolling_forecast(cfg, series=series_small)
        assert rep.model_label == "decomposed_sarimax_statistical"
        assert np.isfinite(rep.mae)

    def test_topological_mode_runs(self, series_small):
        cfg = small_cfg(feature_mode="topological", test_fraction=0.1)
        rep = rolling_forecast(cfg, series=series_small)
        assert rep.model_label == "decomposed_sarimax_topological"
        assert np.isfinite(rep.mae)

    def test_selection_mode_rfe_pso(self, series_small):
        cfg = small_cfg(
            feature_mode="statistical",
            selection_mode="rfe+pso",
            test_fraction=0.1,
            pso=PsoConfig(swarm_size=8, max_iterations=10, runs=2, stability_threshold=2),
        )
        strat = DecomposedStrategy(cfg)
        rep = rolling_forecast(cfg, series=series_small, strategy=strat)
        assert np.isfinite(rep.mae)
        assert strat.pso_result is not None
        stages = [r.stage for r in strat.selection_reports]
        assert stages[:2] == ["variance_filter", "correlation_filter"]
        assert "rfe_sarimax" in stages

    def test_determinism_same_seed(self, series_small):
        cfg = small_cfg(feature_mode="none")
        a = rolling_forecast(cfg, series=series_small)
        b = rolling_forecast(cfg, series=series_small)
        assert a.records == b.records

    def test_skipped_origin_and_reason_recorded(self, series_small):
        cfg = small_cfg()
        bad = int(np.floor(len(series_small) * (1 - cfg.test_fraction))) + 3

        class FailsOnce(PerfectForesight):
            def forecast(self, past, horizon):
                if len(past) - 1 == bad:
                    raise np.linalg.LinAlgError("singular design")
                return super().forecast(past, horizon)

        rep = rolling_forecast(cfg, series=series_small, strategy=FailsOnce(series_small))
        assert rep.skipped == ((bad, "LinAlgError: singular design"),)
        assert rep.n_skipped == 1
        assert bad not in {r[0] for r in rep.records}
        assert json.loads(rep.to_json())["skipped"] == [[bad, "LinAlgError: singular design"]]

    def test_short_series_rejected(self):
        cfg = small_cfg(periods=(8, 24, 168))
        with pytest.raises(ValueError, match="train span"):
            rolling_forecast(cfg, series=TimeSeries(np.ones(300) + np.arange(300) % 3))


class TestBenchmark:
    def test_single_model_single_row(self, series_small):
        cfg = small_cfg()
        reports = benchmark(cfg, series=series_small, models=("seasonal_naive",))
        assert len(reports) == 1
        assert reports[0].model_label.startswith("seasonal_naive")

    def test_rows_share_origins(self, series_small):
        cfg = small_cfg()
        reports = benchmark(
            cfg, series=series_small, models=("seasonal_naive", "ets_raw", "decomposed_sarima")
        )
        origin_sets = [{r[0] for r in rep.records} for rep in reports]
        assert origin_sets[0] == origin_sets[1] == origin_sets[2]

    def test_csv_deterministic(self, tmp_path, series_small):
        cfg = small_cfg()
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        benchmark_to_csv(benchmark(cfg, series=series_small, models=("seasonal_naive", "ets_raw")), out1)
        benchmark_to_csv(benchmark(cfg, series=series_small, models=("seasonal_naive", "ets_raw")), out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_table_and_forecast_csv(self, tmp_path, series_small):
        cfg = small_cfg()
        reports = benchmark(cfg, series=series_small, models=("seasonal_naive",))
        text = benchmark_table(reports)
        assert "seasonal_naive" in text and "MAE" in text
        fpath = tmp_path / "fc.csv"
        forecasts_to_csv(reports[0], fpath)
        assert fpath.read_text().splitlines()[0] == "origin,step,actual,predicted"

    def test_unknown_model_rejected(self, series_small):
        with pytest.raises(ValueError, match="unknown benchmark model"):
            benchmark(small_cfg(), series=series_small, models=("nope",))

    def test_model_list_is_the_specified_six(self):
        assert BENCHMARK_MODELS == (
            "seasonal_naive",
            "ets_raw",
            "sarima_raw",
            "decomposed_sarima",
            "decomposed_sarimax_statistical",
            "decomposed_sarimax_topological",
        )


class TestLeakageAudit:
    def test_correct_matrix_passes(self, series_small):
        fm = extract_stat_features(series_small, 24)
        builder = lambda ts: extract_stat_features(ts, 24)
        assert leakage_audit(fm, 300, builder=builder, source=series_small)

    def test_future_looking_builder_fails(self, series_small):
        # centered windows read future values: the probe must catch it
        def centered(ts):
            fm = extract_stat_features(ts, 24)
            shifted = tuple(r - 12 for r in fm.row_index)
            from oeeforecast.feature_matrix import FeatureMatrix

            return FeatureMatrix(fm.column_names, fm.matrix, shifted, fm.imputed)

        fm = centered(series_small)
        assert not leakage_audit(fm, 300, builder=centered, source=series_small)

    def test_shuffled_row_index_fails(self):
        from types import SimpleNamespace

        fm = SimpleNamespace(row_index=(5, 3, 7), matrix=np.ones((3, 2)))
        assert not leakage_audit(fm, 2)

    def test_structural_only_passes_without_builder(self, series_small):
        fm = extract_stat_features(series_small, 24)
        assert leakage_audit(fm, 300)


class TestFeaturePath:
    @pytest.mark.parametrize("window", [24, 30])
    @pytest.mark.parametrize("mode", ["statistical", "topological", "both"])
    def test_forecast_matches_row_rebuilding_oracle(self, oee_series, mode, window, monkeypatch):
        # a short AR spec keeps the fit on ~70 exogenous columns quick
        cfg = small_cfg(feature_mode=mode, window=window, sarimax_spec=SarimaxSpec(p=1, s=8))
        strat = DecomposedStrategy(cfg)
        strat.refit(oee_series.slice(0, 300))
        for hours in (0, 5, 23):
            past = oee_series.slice(0, 300 + hours)
            fc = strat.forecast(past, 4)
            np.testing.assert_allclose(fc, forecast_rebuilding_rows(strat, past, 4), rtol=0, atol=1e-9)
            assert strat.forecast(past, 1)[0] == fc[0]

        # a residual ending in a constant window: its non-finite statistical
        # cells take the imputation path of each row builder
        components = pipeline.causal_components

        def flat_tail(ts, periods):
            trend, seasonal, residual = components(ts, periods)
            r = residual.values.copy()
            r[-window:] = 0.5
            return trend, seasonal, residual.with_values(r)

        monkeypatch.setattr(pipeline, "causal_components", flat_tail)
        past = oee_series.slice(0, 305)
        fc = strat.forecast(past, 4)
        np.testing.assert_allclose(fc, forecast_rebuilding_rows(strat, past, 4), rtol=0, atol=1e-9)
        if mode != "topological":
            assert build_features(cfg, TimeSeries(np.full(window, 0.5))).imputed

    @pytest.mark.parametrize("mode", ["topological", "both"])
    def test_window_setting_reaches_topological_rows(self, oee_series, mode):
        # a short AR spec keeps the fit on ~70 exogenous columns quick
        cfg = small_cfg(feature_mode=mode, window=30, sarimax_spec=SarimaxSpec(p=1, s=8))
        strat = DecomposedStrategy(cfg)
        strat.refit(oee_series.slice(0, 300))
        fc = strat.forecast(oee_series.slice(0, 310), 4)
        assert fc.shape == (4,)
        assert np.all((fc >= 1.0) & (fc <= 60.0))
        start, preds = strat.train_one_step(oee_series.slice(0, 300))
        assert start == 30 + cfg.sarimax_spec.burn_in
        assert preds.size == 300 - start

    def test_mode_none_has_no_feature_matrix(self, oee_series):
        with pytest.raises(ValueError, match="none"):
            build_features(small_cfg(), oee_series)


class TestInSamplePass:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: DecomposedStrategy(
                small_cfg(feature_mode="statistical", sarimax_spec=SarimaxSpec(p=1, s=8))
            ),
            lambda: DecomposedStrategy(small_cfg()),
            lambda: RawSarimaStrategy(SarimaxSpec(p=2, q=0, P=1, Q=1, s=8)),
            lambda: RawEtsStrategy(),
        ],
        ids=["decomposed_statistical", "decomposed_none", "sarima_raw", "ets_raw"],
    )
    def test_reads_the_last_refit(self, series_small, monkeypatch, make):
        strat = make()
        train = series_small.slice(0, 300)
        strat.refit(train)
        start, preds = strat.train_one_step(train)

        def refuse(*args, **kwargs):
            raise AssertionError("the in-sample pass recomputed what refit left")

        monkeypatch.setattr(pipeline.sarimax, "fit", refuse)
        for name in ("ets_fit", "causal_components", "extract_stat_features"):
            monkeypatch.setattr(pipeline, name, refuse)
        again_start, again_preds = strat.train_one_step(train)
        assert again_start == start
        assert again_preds.tobytes() == preds.tobytes()
