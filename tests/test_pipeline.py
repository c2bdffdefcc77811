import functools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from oeeforecast import forecasters, pipeline, sarimax
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
    rolling_forecast,
)
from oeeforecast.sarimax import SarimaxSpec
from oeeforecast.selection import PsoConfig
from oeeforecast.series import TimeSeries
from oeeforecast.stat_features import extract_stat_features

from conftest import STAND_INS, make_oee_series, strict_json
from oracles import (
    forecast_extending_hourly,
    forecast_rebuilding_rows,
    leakage_audit,
    scalar_centered_moving_average,
    scalar_holt_filter,
    scalar_phase_means,
)

# the package re-exports the decompose function under the module's name
decompose_module = sys.modules["oeeforecast.decompose"]


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
        naive_rep = rolling_forecast(cfg, series=series, strategy=SeasonalNaiveStrategy(cfg))
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

    def test_selection_mode_rfe_pso(self, series_small, monkeypatch):
        small_pso = functools.partial(
            PsoConfig, swarm_size=8, max_iterations=10, runs=2, stability_threshold=2
        )
        monkeypatch.setattr(pipeline, "PsoConfig", small_pso)
        cfg = small_cfg(feature_mode="statistical", selection_mode="rfe+pso", test_fraction=0.1)
        strat = DecomposedStrategy(cfg)
        rep = rolling_forecast(cfg, series=series_small, strategy=strat)
        assert np.isfinite(rep.mae)
        assert strat.pso_result is not None
        stages = [r.stage for r in strat.selection_reports]
        assert stages[:2] == ["variance_filter", "correlation_filter"]
        assert "rfe_sarimax" in stages

    def test_rfe_refits_take_the_seed(self, series_small, monkeypatch):
        in_rfe, seeds = [], []
        real_fit, real_rfe = sarimax.fit, pipeline.rfe_sarimax

        def rfe(*args, **kwargs):
            in_rfe.append(True)
            try:
                return real_rfe(*args, **kwargs)
            finally:
                in_rfe.pop()

        def fit(*args, **kwargs):
            if in_rfe:
                seeds.append(kwargs.get("seed"))
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(pipeline, "rfe_sarimax", rfe)
        monkeypatch.setattr(sarimax, "fit", fit)
        cfg = small_cfg(
            feature_mode="statistical", selection_mode="rfe", seed=3,
            sarimax_spec=SarimaxSpec(p=1, s=8),
        )
        DecomposedStrategy(cfg).refit(series_small.slice(0, 300))
        assert seeds and set(seeds) == {3}

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

    def test_failed_refit_recorded_and_forecasting_continues(self, series_small):
        cfg = small_cfg()
        split = int(np.floor(len(series_small) * (1 - cfg.test_fraction)))
        bad = split - 1 + cfg.refit_interval

        class RefitFails(PerfectForesight):
            def refit(self, past):
                if len(past) - 1 == bad:
                    raise ValueError("exog columns with zero variance")

        rep = rolling_forecast(cfg, series=series_small, strategy=RefitFails(series_small))
        assert rep.refit_failures == ((bad, "ValueError: exog columns with zero variance"),)
        assert rep.n_skipped == 0
        assert bad in {r[0] for r in rep.records}
        assert json.loads(rep.to_json())["refit_failures"] == [
            [bad, "ValueError: exog columns with zero variance"]
        ]

    def test_json_writes_unscored_steps_as_null(self):
        # 4 origins in the test span score steps 1-4 only; NaN is not JSON
        from oeeforecast.pipeline import SeasonalNaiveStrategy

        cfg = PipelineConfig(horizon=8, test_fraction=0.01)
        series = make_oee_series(340, seed=1)
        rep = rolling_forecast(cfg, series=series, strategy=SeasonalNaiveStrategy(cfg))
        assert rep.n_forecasts == 4
        steps = strict_json(rep.to_json())["per_step_errors"]
        assert steps[4:] == [None] * 4
        assert steps[:4] == list(rep.per_step_errors[:4])

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
            np.testing.assert_allclose(fc, forecast_rebuilding_rows(strat, past, 4), rtol=0, atol=1e-12)
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
        np.testing.assert_allclose(fc, forecast_rebuilding_rows(strat, past, 4), rtol=0, atol=1e-12)
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

    @pytest.mark.parametrize("mode", ["statistical", "topological", "both"])
    def test_columns_equal_full_then_select(self, oee_series, mode):
        cfg = small_cfg(feature_mode=mode)
        residual = TimeSeries(oee_series.values[:150] - oee_series.values[:150].mean())
        full = build_features(cfg, residual, scale=20.0)
        columns = full.column_names[-3:] + full.column_names[:2] + full.column_names[40:41]
        got = build_features(cfg, residual, scale=20.0, columns=columns)
        want = full.select_columns(columns)
        assert got.column_names == columns and got.row_index == want.row_index
        assert np.array_equal(got.matrix, want.matrix)

    @pytest.mark.parametrize(
        "mode, window",
        [("topological", 10), ("topological", 17), ("both", 17), ("statistical", 16), ("both", 16)],
    )
    def test_window_checked_against_feature_mode(self, mode, window):
        with pytest.raises(ValueError, match="window"):
            small_cfg(feature_mode=mode, window=window)

    @pytest.mark.parametrize("mode, window", [("none", 2), ("statistical", 17), ("topological", 18)])
    def test_least_windows_accepted(self, mode, window):
        assert small_cfg(feature_mode=mode, window=window).window == window


class TestInSamplePass:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: DecomposedStrategy(
                small_cfg(feature_mode="statistical", sarimax_spec=SarimaxSpec(p=1, s=8))
            ),
            lambda: DecomposedStrategy(small_cfg()),
            lambda: RawSarimaStrategy(small_cfg()),
            lambda: RawEtsStrategy(small_cfg()),
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


class TestRefitFailures:
    @pytest.mark.parametrize("mode", ["topological", "statistical"])
    @pytest.mark.parametrize("name", ["gh2", "gm2"])
    def test_readme_defaults_complete_on_stand_ins(self, name, mode):
        # at README defaults a topological refit on these two stand-ins selects
        # h0_betti_9, which is constant on a later refit's span
        n, seed = STAND_INS[name]
        cfg = PipelineConfig(feature_mode=mode)
        assert cfg.periods == (8, 24, 168) and cfg.test_fraction == 0.2
        rep = rolling_forecast(cfg, series=make_oee_series(n, seed=seed, name=name))
        split = int(np.floor(n * (1 - cfg.test_fraction)))
        assert rep.n_forecasts + rep.n_skipped == len(range(split - 1, n - 1))
        assert np.isfinite(rep.mae)
        if mode == "topological":
            assert rep.refit_failures
            for _, text in rep.refit_failures:
                assert text.startswith("ValueError: exog columns with zero variance")
                assert "h0_betti_9" in text

    @pytest.mark.parametrize("mode", ["statistical", "none"])
    def test_failed_refit_leaves_previous_fit(self, series_small, monkeypatch, mode):
        cfg = small_cfg(feature_mode=mode, sarimax_spec=SarimaxSpec(p=1, s=8))
        strat = DecomposedStrategy(cfg)
        strat.refit(series_small.slice(0, 300))
        before = dict(vars(strat))
        expected = strat.forecast(series_small.slice(0, 330), 2)

        def refuse(*args, **kwargs):
            raise ValueError("exog columns with zero variance")

        with monkeypatch.context() as m:
            m.setattr(pipeline.sarimax, "fit", refuse)
            with pytest.raises(ValueError, match="zero variance"):
                strat.refit(series_small.slice(0, 324))
        assert vars(strat).keys() == before.keys()
        for name, value in before.items():
            assert vars(strat)[name] is value, name
        assert strat.forecast(series_small.slice(0, 330), 2).tobytes() == expected.tobytes()


class TestBenchmarkTracer:
    def test_tracer_records_topological_layers(self, oee_series):
        # perfbench's tracer patches pipeline, tda.extract and sarimax
        # attributes by name; a renamed or removed one, or a fit that stops
        # calling sarimax.minimize, breaks its traced runs
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
        try:
            import tracing
        finally:
            sys.path.pop(0)
        from oeeforecast.tda import extract

        def patched():
            return (
                pipeline.extract_tda_features,
                extract.vr_persistence,
                extract._vectorize,
                sarimax.fit,
                sarimax.apply_params,
                sarimax.minimize,
            )

        originals = patched()
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            cfg = small_cfg(feature_mode="topological", sarimax_spec=SarimaxSpec(p=1, s=8))
            strat = DecomposedStrategy(cfg)
            strat.refit(oee_series.slice(0, 300))
            assert any(c.startswith("h1_") for c in strat.columns)
            strat.forecast(oee_series.slice(0, 305), 2)
        finally:
            tracer.uninstall()
        assert patched() == originals
        names = [span[3] for span in tracer.spans]
        for name in (
            "tda.extract",
            "tda.fit_diagram_scale",
            "tda.vr_persistence",
            "tda.vectorize",
            "sarimax.fit",
            "sarimax.apply_params",
        ):
            assert name in names
        counts = {}
        for (_, name), v in tracer.counts.items():
            counts[name] = counts.get(name, 0) + v
        # the refit's 300 - 24 + 1 windows plus 2 forecast steps' 6 and 1
        assert counts["tda.rows"] == 277 + 6 + 1
        assert counts["sarimax.objective_evals"] > 0


class TestDesignReuse:
    """Each origin builds only the selected columns of the rows since the
    refit and extends the fit by all of them at once; its forecasts have
    the bits of extending the fit one hour at a time, each row built from
    its own window."""

    @pytest.mark.parametrize("mode", ["statistical", "topological", "both"])
    def test_every_origin_of_a_refit_interval_bytes_equal(self, oee_series, mode):
        # a short AR spec keeps the fit on ~70 exogenous columns quick
        cfg = small_cfg(feature_mode=mode, sarimax_spec=SarimaxSpec(p=1, s=8))
        strat = DecomposedStrategy(cfg)
        strat.refit(oee_series.slice(0, 300))
        for hours in range(cfg.refit_interval):  # from the refit origin on
            past = oee_series.slice(0, 300 + hours)
            for horizon in (1, 4):
                want = forecast_extending_hourly(strat, past, horizon)
                assert strat.forecast(past, horizon).tobytes() == want.tobytes(), (hours, horizon)


REFIT_AT = 400  # length of the refit span of the forecast-path fixture


@pytest.fixture(scope="module")
def refitted():
    """Feature mode -> a DecomposedStrategy refitted on the first REFIT_AT
    hours of a stand-in at the default periods, and that series."""
    series = make_oee_series(648, seed=7, name="stand_in_a")
    fitted = {}
    for mode in ("none", "statistical", "topological"):
        strat = DecomposedStrategy(small_cfg(periods=(8, 24, 168), feature_mode=mode))
        strat.refit(series.slice(0, REFIT_AT))
        fitted[mode] = strat, series
    return fitted


class TestForecastPath:
    """What every origin's forecast runs: the decomposition of the whole past
    and the Holt filter over the whole trend."""

    @pytest.mark.parametrize("mode", ["none", "statistical", "topological"])
    def test_bits_equal_the_scalar_oracles(self, refitted, mode, monkeypatch):
        strat, series = refitted[mode]

        def forecasts():
            return [
                strat.forecast(series.slice(0, REFIT_AT + hours), horizon).tobytes()
                for hours in (0, 5, 12, 23)
                for horizon in (1, 4)
            ]

        got = forecasts()
        monkeypatch.setattr(
            decompose_module, "centered_moving_average", scalar_centered_moving_average
        )
        monkeypatch.setattr(decompose_module, "_phase_means", scalar_phase_means)
        monkeypatch.setattr(forecasters, "_holt_filter", scalar_holt_filter)
        assert got == forecasts()

    @pytest.mark.parametrize(
        "mode, extractor",
        [("none", None), ("statistical", "extract_stat_features"),
         ("topological", "extract_tda_features")],
    )
    def test_reaches_the_names_the_benchmark_tracer_patches(
        self, refitted, mode, extractor, monkeypatch
    ):
        # perfbench/tracing.py times a layer by replacing these module
        # attributes; a call that no longer goes through one loses its span
        boundaries = [
            (pipeline, "decompose"),
            (pipeline, "ets_update"),
            (pipeline, "ets_forecast"),
            (pipeline, "seasonal_naive_forecast"),
            (sarimax, "apply_params"),
            (sarimax, "forecast"),
        ]
        if extractor is not None:
            boundaries.append((pipeline, extractor))
        reached = set()
        for module, name in boundaries:

            def spy(*args, _original=getattr(module, name), _name=name, **kwargs):
                reached.add(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        strat, series = refitted[mode]
        strat.forecast(series.slice(0, REFIT_AT + 5), 2)
        assert reached == {name for _, name in boundaries}
