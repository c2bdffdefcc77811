from dataclasses import astuple

import numpy as np
import pytest

from oeeforecast import forecasters
from oeeforecast.forecasters import (
    EtsFit,
    _holt_filter,
    _init_state,
    ets_fit,
    ets_forecast,
    ets_one_step,
    ets_update,
    seasonal_naive_forecast,
)
from oeeforecast.pipeline import causal_components
from oeeforecast.series import TimeSeries

from conftest import STAND_INS, make_oee_series
from oracles import scalar_holt_filter


def bits(*values):
    """The float64 bytes of each value: equal bits, -0.0 and NaN included."""
    return [np.asarray(v, dtype=float).tobytes() for v in values]


@pytest.fixture(scope="module")
def standin_trends():
    """The causal trend of each stand-in, the series every ets_fit and
    ets_update of a decomposed forecast filters."""
    trends = {}
    for name, (n, seed) in STAND_INS.items():
        series = make_oee_series(n, seed=seed, name=name)
        trends[name] = causal_components(series, (8, 24, 168))[0]
    return trends


class TestEts:
    def test_exact_line_continues(self):
        n = 60
        t = np.arange(n)
        fit = ets_fit(TimeSeries(2.0 + 0.5 * t))
        fc = ets_forecast(fit, 3)
        expect = [2.0 + 0.5 * n, 2.0 + 0.5 * (n + 1), 2.0 + 0.5 * (n + 2)]
        assert np.allclose(fc, expect, atol=1e-3)

    def test_constant_series(self):
        fit = ets_fit(TimeSeries(np.full(40, 12.0)))
        assert fit.level == pytest.approx(12.0, abs=1e-6)
        assert abs(fit.slope) < 1e-6
        assert np.allclose(ets_forecast(fit, 5), 12.0, atol=1e-5)

    def test_noisy_line_slope_recovered(self):
        rng = np.random.default_rng(8)
        t = np.arange(500)
        fit = ets_fit(TimeSeries(1.0 + 0.5 * t + rng.normal(0, 1, 500)))
        assert 0.4 <= fit.slope <= 0.6
        fc = ets_forecast(fit, 10)
        implied_slope = (fc[-1] - fc[0]) / 9.0
        assert abs(implied_slope - 0.5) <= 0.1

    def test_level_shift_linearity(self):
        rng = np.random.default_rng(3)
        y = np.cumsum(rng.normal(size=80)) + 50.0
        f0 = ets_fit(TimeSeries(y))
        f1 = ets_update(EtsFit(f0.alpha, f0.beta, 0, 0, 0), TimeSeries(y + 25.0))
        a = ets_forecast(f0, 4)
        b = ets_forecast(f1, 4)
        assert np.allclose(np.asarray(b) - np.asarray(a), 25.0, atol=1e-8)

    def test_update_refilters_with_frozen_params(self):
        rng = np.random.default_rng(4)
        y = rng.normal(10, 2, 100)
        fit = ets_fit(TimeSeries(y))
        again = ets_update(fit, TimeSeries(y))
        assert again.level == pytest.approx(fit.level)
        assert again.slope == pytest.approx(fit.slope)

    def test_too_short(self):
        with pytest.raises(ValueError):
            ets_fit(TimeSeries(np.arange(5.0)))

    def test_grid_and_scalar_filter_agree(self):
        from oeeforecast.forecasters import _holt_sse_grid

        rng = np.random.default_rng(12)
        y = np.cumsum(rng.normal(size=60)) + 20.0
        l0, b0 = _init_state(y)
        alphas = np.array([0.17, 0.5, 0.83])
        betas = np.array([0.0, 0.31, 0.62])
        a, b, best = _holt_sse_grid(y, alphas, betas, l0, b0)
        # the winning cell must reproduce exactly through the scalar filter
        assert _holt_filter(y, a, b, l0, b0)[2] == pytest.approx(best, rel=1e-12)
        for ca in alphas:
            for cb in betas:
                assert _holt_filter(y, ca, cb, l0, b0)[2] >= best - 1e-9

    def test_one_step_predictions_reproduce_fit(self):
        rng = np.random.default_rng(13)
        ts = TimeSeries(np.cumsum(rng.normal(size=80)) + 20.0)
        fit = ets_fit(ts)
        preds = ets_one_step(fit, ts)
        assert preds.size == 80
        assert np.sum((ts.values - preds) ** 2) == pytest.approx(fit.sse, rel=1e-12)


class TestHoltOracle:
    """The Holt recursion against its first, numpy-scalar loop, bit for bit."""

    @pytest.mark.parametrize("name", list(STAND_INS))
    def test_scalar_shape_on_stand_in_trends(self, standin_trends, name):
        y = standin_trends[name].values
        l0, b0 = _init_state(y)
        rng = np.random.default_rng(21)
        pairs = [(0.01, 0.0), (0.99, 0.99), (0.5, 0.5)]
        pairs += [(rng.uniform(1e-4, 1.0 - 1e-4), rng.uniform(0.0, 1.0 - 1e-4)) for _ in range(12)]
        for alpha, beta in pairs:
            preds, want_preds = [], []
            got = _holt_filter(y, alpha, beta, l0, b0, preds)
            want = scalar_holt_filter(y, alpha, beta, l0, b0, want_preds)
            assert bits(*got) == bits(*want), (alpha, beta)
            assert bits(preds) == bits(want_preds), (alpha, beta)

    @pytest.mark.parametrize("name", list(STAND_INS))
    def test_grid_shape_on_stand_in_trends(self, standin_trends, name):
        # the (alpha, beta) grid ets_fit scans, one recursion for every pair
        y = standin_trends[name].values
        l0, b0 = _init_state(y)
        alphas, betas = np.arange(0.01, 1.00, 0.01), np.arange(0.00, 1.00, 0.01)
        a, b = np.repeat(alphas, betas.size), np.tile(betas, alphas.size)
        assert bits(*_holt_filter(y, a, b, l0, b0)) == bits(*scalar_holt_filter(y, a, b, l0, b0))

    def test_grid_shape_on_seeded_pairs(self):
        rng = np.random.default_rng(22)
        for seed in range(5):
            y = np.cumsum(rng.normal(size=60 + 40 * seed)) + 20.0
            l0, b0 = _init_state(y)
            a = rng.uniform(1e-4, 1.0 - 1e-4, 64)
            b = rng.uniform(0.0, 1.0 - 1e-4, 64)
            assert bits(*_holt_filter(y, a, b, l0, b0)) == bits(
                *scalar_holt_filter(y, a, b, l0, b0)
            ), seed

    @pytest.mark.parametrize("name", list(STAND_INS))
    def test_fit_update_one_step_with_oracle_patched_in(self, standin_trends, name, monkeypatch):
        trend = standin_trends[name]
        longer = trend.with_values(np.append(trend.values, trend.values[-24:] + 0.5))

        def run():
            fit = ets_fit(trend)
            return bits(*astuple(fit), *astuple(ets_update(fit, longer)), ets_one_step(fit, longer))

        got = run()
        monkeypatch.setattr(forecasters, "_holt_filter", scalar_holt_filter)
        assert got == run()


class TestImpulseResponse:
    """ets_update's state, read from the filter's impulse response, against
    the recursion: within 1e-11 of |level| + |slope|."""

    @staticmethod
    def pairs():
        rng = np.random.default_rng(21)
        pairs = [(0.01, 0.0), (0.99, 0.99), (0.5, 0.5)]
        pairs += [(rng.uniform(1e-4, 1.0 - 1e-4), rng.uniform(0.0, 1.0 - 1e-4)) for _ in range(12)]
        return pairs + [(1e-4, 0.0), (1e-4, 0.9999), (0.9999, 0.9999)]

    @pytest.mark.parametrize("name", list(STAND_INS))
    def test_state_equals_the_recursion(self, standin_trends, name):
        trend = standin_trends[name].values
        # four stand-ins long, each copy lifted, so the series keeps a trend
        y = np.concatenate([trend + 3.0 * k for k in range(4)])
        # longest first, then shorter ones read the table it left
        lengths = (y.size, 10, 11, 64, trend.size, 2 * trend.size + 5, 3 * trend.size - 1)
        for alpha, beta in self.pairs():
            fit = EtsFit(alpha, beta, 0.0, 0.0, 0.0)
            for n in lengths:
                got = ets_update(fit, TimeSeries(y[:n]))
                level, slope, _ = _holt_filter(y[:n], alpha, beta, *_init_state(y[:n]))
                tol = 1e-11 * (abs(level) + abs(slope))
                assert abs(got.level - level) <= tol, (alpha, beta, n)
                assert abs(got.slope - slope) <= tol, (alpha, beta, n)

    def test_weights_and_sse_belong_to_the_fit(self, standin_trends):
        trend = standin_trends["gh2"]
        fit = ets_fit(trend)
        state = ets_update(fit, trend)
        assert (state.alpha, state.beta, state.sse) == (fit.alpha, fit.beta, fit.sse)
        assert state.level == pytest.approx(fit.level, rel=1e-13)
        assert state.slope == pytest.approx(fit.slope, rel=1e-13, abs=1e-15)

    def test_a_longer_series_extends_the_weights(self):
        y = np.cumsum(np.random.default_rng(5).normal(size=2000)) + 30.0
        fit = EtsFit(0.3, 0.2, 0.0, 0.0, 0.0)
        ets_update(fit, TimeSeries(y[:50]))
        short = fit._response.table[0].shape[0]
        assert short > 50
        ets_update(fit, TimeSeries(y))
        assert fit._response.table[0].shape[0] > 2000 > short

    def test_distinct_lengths_leave_no_length_keyed_cache(self):
        y = np.cumsum(np.random.default_rng(6).normal(size=700)) + 30.0
        fit = EtsFit(0.4, 0.1, 0.0, 0.0, 0.0)
        for n in range(600, 700):
            ets_update(fit, TimeSeries(y[:n]))
        # one response table on the fit, no larger than twice the longest series
        assert set(vars(fit)) == {"alpha", "beta", "level", "slope", "sse", "_response"}
        assert set(vars(fit._response)) == {"_step", "_v", "table"}
        powers, weights = fit._response.table
        assert powers.shape == (weights.shape[0], 2, 2) and 700 < weights.shape[0] <= 2 * 700


class TestSeasonalNaive:
    def test_repeats_last_cycle(self):
        fc = seasonal_naive_forecast(TimeSeries([9.0, 9.0, 9.0, 1.0, 2.0, 3.0]), 3, 5)
        assert fc.tolist() == [1.0, 2.0, 3.0, 1.0, 2.0]

    def test_horizon_one(self):
        fc = seasonal_naive_forecast(TimeSeries([1.0, 2.0, 3.0]), 3, 1)
        assert fc.tolist() == [1.0]

    def test_exact_periodicity_on_sine(self):
        t = np.arange(240)
        x = np.sin(2 * np.pi * t / 24.0)
        fc = seasonal_naive_forecast(TimeSeries(x), 24, 48)
        future = np.sin(2 * np.pi * (240 + np.arange(48)) / 24.0)
        assert np.max(np.abs(np.asarray(fc) - future)) < 1e-9

    def test_periodicity_property(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=30)
        fc = seasonal_naive_forecast(TimeSeries(x), 5, 17)
        v = fc
        for h in range(17 - 5):
            assert v[h] == v[h + 5]

    def test_series_shorter_than_period(self):
        with pytest.raises(ValueError):
            seasonal_naive_forecast(TimeSeries([1.0, 2.0]), 3, 1)



class TestReturnContract:
    """Each component forecaster returns horizon float64 values, finite."""

    def test_ets_forecast_is_a_float_array_of_horizon_values(self):
        fc = ets_forecast(EtsFit(0.5, 0.5, 10.0, 1.0, 0.0), 3)
        assert isinstance(fc, np.ndarray)
        assert fc.dtype == np.float64 and fc.shape == (3,)

    def test_seasonal_naive_forecast_is_a_float_array_of_horizon_values(self):
        fc = seasonal_naive_forecast(TimeSeries([1.0, 2.0, 3.0, 4.0]), 2, 5)
        assert isinstance(fc, np.ndarray)
        assert fc.dtype == np.float64 and fc.shape == (5,)

    def test_ets_forecast_rejects_an_overflowing_continuation(self):
        with pytest.raises(ValueError, match="must be finite"):
            ets_forecast(EtsFit(0.5, 0.5, 1e308, 1e308, 0.0), 2)

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_horizon_below_one_is_rejected(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            ets_forecast(EtsFit(0.5, 0.5, 10.0, 1.0, 0.0), horizon)
        with pytest.raises(ValueError, match="horizon"):
            seasonal_naive_forecast(TimeSeries([1.0, 2.0, 3.0]), 3, horizon)
