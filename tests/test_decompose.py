import sys

import numpy as np
import pytest

from oeeforecast.decompose import (
    _phase_means,
    centered_moving_average,
    components_to_csv,
    decompose,
)
from oeeforecast.pipeline import causal_components
from oeeforecast.series import TimeSeries

from conftest import STAND_INS, kpss_rejects_level, make_oee_series
from oracles import reconstruct, scalar_centered_moving_average, scalar_phase_means

# the package re-exports the decompose function under the module's name
decompose_module = sys.modules["oeeforecast.decompose"]


def sine_composite(n=504, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return (
        10.0
        + 4.0 * np.sin(2 * np.pi * t / 24.0)
        + 2.0 * np.sin(2 * np.pi * t / 8.0 + 0.3)
        + rng.normal(0.0, 0.3, n)
    )


class TestMovingAverage:
    def test_constant_passthrough(self):
        out = centered_moving_average(np.full(50, 3.5), 24)
        assert np.allclose(out, 3.5)

    def test_linear_passthrough_interior(self):
        # a symmetric window reproduces a line exactly, even with half-weights
        x = 2.0 + 0.5 * np.arange(100)
        out = centered_moving_average(x, 8)
        assert np.allclose(out[4:-4], x[4:-4], atol=1e-10)

    def test_kills_matching_period(self):
        t = np.arange(96)
        x = np.sin(2 * np.pi * t / 8.0)
        out = centered_moving_average(x, 8)
        assert np.max(np.abs(out[4:-4])) < 1e-10


class TestDecompose:
    def test_reconstruction_identity(self):
        ts = TimeSeries(sine_composite())
        d = decompose(ts, periods=(8, 24))
        back = reconstruct(d)
        assert np.max(np.abs(back.values - ts.values)) < 1e-9

    def test_sine_recovered_in_seasonal_24(self):
        n = 504
        t = np.arange(n)
        pure = 10.0 + 3.0 * np.sin(2 * np.pi * t / 24.0)
        d = decompose(TimeSeries(pure), periods=(8, 24))
        seas = d.seasonal[24].values
        target = 3.0 * np.sin(2 * np.pi * t / 24.0)
        # amplitude error < 5%
        assert np.max(np.abs(seas - target)) < 0.05 * 3.0
        assert np.std(d.residual.values) < 0.05 * np.std(pure)

    def test_constant_series(self):
        d = decompose(TimeSeries(np.full(400, 7.0)), periods=(8, 24))
        assert np.allclose(d.trend.values, 7.0)
        for comp in d.seasonal.values():
            assert np.max(np.abs(comp.values)) < 1e-9
        assert np.max(np.abs(d.residual.values)) < 1e-9

    def test_seasonal_components_center_to_zero(self, oee_series):
        d = decompose(oee_series)
        for p, comp in d.seasonal.items():
            assert abs(np.mean(comp.values[: (len(comp) // p) * p])) < 1e-6

    def test_seasonal_exactly_periodic(self, oee_series):
        d = decompose(oee_series)
        for p, comp in d.seasonal.items():
            v = comp.values
            assert np.allclose(v[p:], v[:-p], atol=1e-9)

    def test_shift_moves_only_trend(self):
        x = sine_composite()
        d0 = decompose(TimeSeries(x), periods=(8, 24))
        d1 = decompose(TimeSeries(x + 100.0), periods=(8, 24))
        assert np.allclose(d1.trend.values - d0.trend.values, 100.0, atol=1e-6)
        for p in (8, 24):
            assert np.allclose(d1.seasonal[p].values, d0.seasonal[p].values, atol=1e-6)
        assert np.allclose(d1.residual.values, d0.residual.values, atol=1e-6)

    def test_residual_stationary_on_standin(self, oee_series):
        d = decompose(oee_series)
        assert not kpss_rejects_level(d.residual.values)

    def test_reconstruction_property_random_series(self):
        # spec-level property: identity holds for any admissible input
        for seed in range(25):
            rng = np.random.default_rng(seed)
            ts = TimeSeries(rng.normal(20.0, 5.0, 400))
            d = decompose(ts, periods=(8, 24))
            assert np.max(np.abs(reconstruct(d).values - ts.values)) < 1e-9

    def test_preconditions(self):
        with pytest.raises(ValueError, match="length"):
            decompose(TimeSeries(np.arange(100.0)), periods=(8, 24, 168))
        with pytest.raises(ValueError, match="non-empty"):
            decompose(TimeSeries(np.arange(400.0)), periods=())
        with pytest.raises(ValueError, match="nested"):
            decompose(TimeSeries(np.arange(400.0)), periods=(8, 36))
        with pytest.raises(ValueError, match="increasing"):
            decompose(TimeSeries(np.arange(400.0)), periods=(24, 8))
        with pytest.raises(ValueError, match=">= 1"):
            decompose(TimeSeries(np.arange(400.0)), periods=(0,))

    def test_csv_export(self, tmp_path, oee_series):
        d = decompose(oee_series)
        path = tmp_path / "components.csv"
        components_to_csv(d, path)
        header = path.read_text().splitlines()[0]
        assert header == "timestamp,trend,seasonal_8,seasonal_24,seasonal_168,residual"
        assert len(path.read_text().splitlines()) == len(oee_series) + 1


class TestScalarOracle:
    """The array filter and phase means against the per-point loops, bit for bit."""

    @pytest.mark.parametrize("name", list(STAND_INS))
    def test_every_prefix_of_the_stand_ins(self, name):
        n, seed = STAND_INS[name]
        x = make_oee_series(n, seed=seed, name=name).values
        for length in range(336, n + 1):
            prefix = x[:length]
            for p in (8, 24, 168):
                got = centered_moving_average(prefix, p)
                assert np.array_equal(got, scalar_centered_moving_average(prefix, p)), (length, p)
                got = _phase_means(prefix, p)
                assert np.array_equal(got, scalar_phase_means(prefix, p)), (length, p)

    @pytest.mark.parametrize("window", [1, 3, 7, 9, 25, 167])
    def test_odd_windows(self, window):
        x = make_oee_series(400, seed=5).values
        assert np.array_equal(
            centered_moving_average(x, window), scalar_centered_moving_average(x, window)
        )
        assert np.array_equal(_phase_means(x, window), scalar_phase_means(x, window))

    @pytest.mark.parametrize("window", [24, 25])
    def test_series_shorter_than_the_window(self, window):
        # no point has room for the full kernel: every one is truncated
        x = np.random.default_rng(2).normal(30.0, 5.0, 11)
        assert np.array_equal(
            centered_moving_average(x, window), scalar_centered_moving_average(x, window)
        )

    @pytest.mark.parametrize("window", [2, 3, 5, 8, 24, 25, 168])
    def test_lengths_around_the_full_kernel(self, window):
        # none, one or two points with room for the full kernel: the interior
        # slices are empty or one or two points long
        half = window // 2
        rng = np.random.default_rng(window)
        for n in sorted({window - 1, window, window + 1, 2 * half, 2 * half + 1}):
            x = rng.normal(30.0, 5.0, n)
            got = centered_moving_average(x, window)
            assert got.tobytes() == scalar_centered_moving_average(x, window).tobytes(), n

    @pytest.mark.parametrize("period", [8, 24, 168])
    @pytest.mark.parametrize("extra", [0, 1, -1])
    def test_whole_and_partial_cycles(self, period, extra):
        # the complete-window span n - 2 * (period // 2) holds three cycles,
        # plus or minus one sample
        n = 4 * period + extra
        x = make_oee_series(n, seed=9).values
        assert (n - 2 * (period // 2)) % period == extra % period
        assert np.array_equal(_phase_means(x, period), scalar_phase_means(x, period))

    @pytest.mark.parametrize("name", list(STAND_INS))
    def test_components_equal_oracle_built_ones(self, name, monkeypatch):
        n, seed = STAND_INS[name]
        series = make_oee_series(n, seed=seed, name=name)
        periods = (8, 24, 168)
        got = decompose(series, periods)
        got_causal = causal_components(series, periods)
        monkeypatch.setattr(
            decompose_module, "centered_moving_average", scalar_centered_moving_average
        )
        monkeypatch.setattr(decompose_module, "_phase_means", scalar_phase_means)
        want = decompose(series, periods)
        want_causal = causal_components(series, periods)

        assert got.trend.values.tobytes() == want.trend.values.tobytes()
        assert got.residual.values.tobytes() == want.residual.values.tobytes()
        for p in periods:
            assert got.seasonal[p].values.tobytes() == want.seasonal[p].values.tobytes()
        (trend, seasonal, residual), (w_trend, w_seasonal, w_residual) = got_causal, want_causal
        assert trend.values.tobytes() == w_trend.values.tobytes()
        assert residual.values.tobytes() == w_residual.values.tobytes()
        for p in periods:
            assert seasonal[p].values.tobytes() == w_seasonal[p].values.tobytes()
