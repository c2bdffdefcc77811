import math
from datetime import datetime

import numpy as np
import pytest

from oeeforecast.series import (
    CsvError,
    TimeSeries,
    line_fit,
    load_csv,
    mae,
    mape,
    summary_stats,
)

from conftest import kpss_level_statistic, kpss_rejects_level, ljung_box_rejects
from oracles import acf_values, pacf_values, scipy_adjusted_moments


def write_csv(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestTimeSeries:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            TimeSeries(np.array([1.0, np.nan]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TimeSeries(np.array([]))

    def test_values_read_only(self):
        ts = TimeSeries([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            ts.values[0] = 9.0

    def test_wrap_takes_the_array_over(self):
        values = np.arange(5.0)
        ts = TimeSeries.wrap(values, datetime(2024, 3, 1), "wrapped")
        assert ts.values is values and not values.flags.writeable
        assert (ts.start, ts.name, len(ts)) == (datetime(2024, 3, 1), "wrapped", 5)
        assert TimeSeries.wrap(np.ones(2)).start == TimeSeries([1.0, 1.0]).start

    def test_implied_timestamps(self):
        ts = TimeSeries([1.0, 2.0], start=datetime(2024, 3, 1, 5))
        assert ts.timestamp(1) == datetime(2024, 3, 1, 6)
        assert ts.end == datetime(2024, 3, 1, 6)

    def test_slice_shifts_start(self):
        ts = TimeSeries(np.arange(10.0), start=datetime(2024, 1, 1))
        sub = ts.slice(3, 7)
        assert list(sub.values) == [3.0, 4.0, 5.0, 6.0]
        assert sub.start == datetime(2024, 1, 1, 3)


class TestLoadCsv:
    def test_single_row(self, tmp_path):
        p = write_csv(tmp_path, "value\n42.0\n")
        ts = load_csv(p, "value")
        assert len(ts) == 1
        assert ts.values[0] == 42.0

    def test_non_numeric_cell_names_row(self, tmp_path):
        rows = "\n".join(["value"] + ["1.0"] * 6 + ["oops"] + ["2.0"] * 3)
        p = write_csv(tmp_path, rows + "\n")
        with pytest.raises(CsvError, match="row 7"):
            load_csv(p, "value")

    def test_missing_column(self, tmp_path):
        p = write_csv(tmp_path, "a,b\n1,2\n")
        with pytest.raises(CsvError, match="value"):
            load_csv(p, "value")

    def test_empty_file(self, tmp_path):
        p = write_csv(tmp_path, "")
        with pytest.raises(CsvError):
            load_csv(p, "value")

    def test_header_only(self, tmp_path):
        p = write_csv(tmp_path, "value\n")
        with pytest.raises(CsvError, match="no data rows"):
            load_csv(p, "value")

    def test_timestamp_column_contiguous(self, tmp_path):
        p = write_csv(
            tmp_path,
            "ts,value\n2024-01-01T00:00,5\n2024-01-01T01:00,6\n2024-01-01T02:00,7\n",
        )
        ts = load_csv(p, "value", timestamp_column="ts")
        assert ts.start == datetime(2024, 1, 1, 0)
        assert list(ts.values) == [5.0, 6.0, 7.0]

    def test_gap_rejected_by_default(self, tmp_path):
        p = write_csv(
            tmp_path,
            "ts,value\n2024-01-01T00:00,5\n2024-01-01T03:00,8\n",
        )
        with pytest.raises(CsvError, match="2-hour gap before row 2"):
            load_csv(p, "value", timestamp_column="ts")

    def test_gap_row_counts_blank_lines(self, tmp_path):
        # rows are numbered as the value and timestamp errors number them:
        # every data line after the header, blank ones included
        p = write_csv(
            tmp_path,
            "ts,value\n2024-01-01T00:00,5\n\n2024-01-01T01:00,6\n2024-01-01T04:00,8\n",
        )
        with pytest.raises(CsvError, match="2-hour gap before row 4$"):
            load_csv(p, "value", timestamp_column="ts")

    def test_not_increasing_row_counts_blank_lines(self, tmp_path):
        p = write_csv(
            tmp_path,
            "ts,value\n2024-01-01T00:00,5\n2024-01-01T01:00,6\n\n2024-01-01T01:00,7\n",
        )
        with pytest.raises(CsvError, match="timestamps not increasing at row 4$"):
            load_csv(p, "value", timestamp_column="ts")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_names_row(self, tmp_path, cell):
        p = write_csv(
            tmp_path,
            f"ts,value\n2024-01-01T00:00,5\n2024-01-01T01:00,{cell}\n2024-01-01T02:00,6\n",
        )
        with pytest.raises(
            CsvError, match=f"non-finite value '{cell}' in column 'value' at row 2$"
        ):
            load_csv(p, "value", timestamp_column="ts")

    @pytest.mark.parametrize(
        "first, second, says",
        [
            ("2024-01-01T00:00+00:00", "2024-01-01T01:00", "lacks"),
            ("2024-01-01T00:00", "2024-01-01T01:00+00:00", "has"),
        ],
        ids=["aware_then_naive", "naive_then_aware"],
    )
    def test_mixed_offset_and_naive_stamps_name_row(self, tmp_path, first, second, says):
        p = write_csv(tmp_path, f"ts,value\n{first},5\n\n{second},6\n")
        with pytest.raises(CsvError, match=f"at row 3 {says} a UTC offset"):
            load_csv(p, "value", timestamp_column="ts")

    def test_offset_aware_stamps_load(self, tmp_path):
        p = write_csv(tmp_path, "ts,value\n2024-01-01T00:00+02:00,5\n2024-01-01T01:00+02:00,6\n")
        assert list(load_csv(p, "value", timestamp_column="ts").values) == [5.0, 6.0]

    def test_missing_timestamp_cell_names_row(self, tmp_path):
        p = write_csv(tmp_path, "value,ts\n5,2024-01-01T00:00\n6.0\n")
        with pytest.raises(CsvError, match="bad timestamp '<missing>' at row 2$"):
            load_csv(p, "value", timestamp_column="ts")

    def test_missing_value_cell_names_row(self, tmp_path):
        p = write_csv(tmp_path, "ts,value\n2024-01-01T00:00,5\n2024-01-01T01:00\n")
        with pytest.raises(CsvError, match="value '<missing>' in column 'value' at row 2$"):
            load_csv(p, "value", timestamp_column="ts")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        p = write_csv(tmp_path, "\ufeffvalue,ts\n5,2024-01-01T00:00\n6,2024-01-01T01:00\n")
        ts = load_csv(p, "value", timestamp_column="ts")
        assert list(ts.values) == [5.0, 6.0]
        assert ts.start == datetime(2024, 1, 1, 0)


class TestSummaryStats:
    def test_matches_hand_computation(self):
        x = np.array([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        s = summary_stats(TimeSeries(x))
        assert s.count == 8
        assert s.mean == pytest.approx(5.0)
        assert s.std_dev == pytest.approx(np.std(x, ddof=1))
        assert s.min == 2.0 and s.max == 9.0
        assert s.median == pytest.approx(4.5)
        assert not s.moments_degenerate

    def test_constant_series_flags_moments(self):
        s = summary_stats(TimeSeries([5.0, 5.0, 5.0, 5.0]))
        assert s.std_dev == 0.0
        assert s.moments_degenerate
        assert math.isnan(s.skewness) and math.isnan(s.kurtosis)

    def test_excess_kurtosis_of_gaussian_near_zero(self):
        rng = np.random.default_rng(0)
        s = summary_stats(TimeSeries(rng.normal(size=20000)))
        assert abs(s.kurtosis) < 0.1
        assert abs(s.skewness) < 0.1

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=100)
        a = summary_stats(TimeSeries(x))
        b = summary_stats(TimeSeries(rng.permutation(x)))
        for f in ("mean", "std_dev", "min", "q25", "median", "q75", "max", "skewness", "kurtosis"):
            assert getattr(a, f) == pytest.approx(getattr(b, f), abs=1e-12)

    def test_length_one_rejected(self):
        with pytest.raises(ValueError):
            summary_stats(TimeSeries([1.0]))

    def test_near_constant_series_flags_moments(self):
        s = summary_stats(TimeSeries(NEAR_CONSTANT))
        assert s.std_dev > 0.0
        assert s.moments_degenerate
        assert math.isnan(s.skewness) and math.isnan(s.kurtosis)


# alternating 1e10 and 1e10 + 2e-6: a nonzero variance inside scipy's
# near-constant rule, m2 <= (eps * mean)**2
NEAR_CONSTANT = np.array([1e10, 1e10 + 2e-6, 1e10, 1e10 + 2e-6, 1e10])


def _moment_cases():
    rng = np.random.default_rng(20)
    for n in (2, 3, 4, 5, 50, 420, 648, 20000):
        for k in range(3):
            x = rng.normal(rng.uniform(-50.0, 50.0), rng.uniform(0.01, 20.0), n)
            yield f"n{n}-{k}", x
            yield f"n{n}-{k}-ties", np.round(x)
        yield f"n{n}-levels", rng.integers(0, 3, n).astype(float)
    yield "constant", np.full(6, 0.1)
    yield "near_constant", NEAR_CONSTANT


@pytest.mark.parametrize("x", [pytest.param(x, id=i) for i, x in _moment_cases()])
@pytest.mark.filterwarnings("ignore:Precision loss:RuntimeWarning")
def test_moments_bit_equal_to_scipy(x):
    s = summary_stats(TimeSeries(x))
    skew, kurt = scipy_adjusted_moments(x)
    for got, want in ((s.skewness, skew), (s.kurtosis, kurt)):
        assert got == want or (math.isnan(got) and math.isnan(want)), (got, want)


class TestKpss:
    # Monte-Carlo oracle: the test statistic's finite-sample behaviour on
    # data simulated under and against the null.
    def test_white_noise_rarely_rejected(self):
        hits = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            if not kpss_rejects_level(rng.normal(size=500)):
                hits += 1
        assert hits >= 45  # >= 90% of 50 seeds

    def test_linear_trend_rejected_in_level_regression(self):
        rng = np.random.default_rng(11)
        t = np.arange(500)
        assert kpss_rejects_level(0.05 * t + rng.normal(size=500))

    def test_level_shift_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=200)
        a = kpss_level_statistic(x)
        b = kpss_level_statistic(x + 1000.0)
        assert a == pytest.approx(b, rel=1e-9)


class TestAcfPacf:
    def test_lag_zero_is_one(self):
        rng = np.random.default_rng(1)
        assert acf_values(rng.normal(size=100), 10)[0] == 1.0

    def test_ar1_acf_matches_theory(self):
        # theoretical acf(k) = phi^k for an AR(1)
        rng = np.random.default_rng(2)
        x = np.zeros(5000)
        eps = rng.normal(size=5000)
        for i in range(1, 5000):
            x[i] = 0.8 * x[i - 1] + eps[i]
        r = acf_values(x, 5)
        assert 0.77 <= r[1] <= 0.83
        assert r[2] == pytest.approx(0.64, abs=0.06)

    def test_ar1_pacf_cuts_off(self):
        rng = np.random.default_rng(2)
        x = np.zeros(5000)
        eps = rng.normal(size=5000)
        for i in range(1, 5000):
            x[i] = 0.8 * x[i - 1] + eps[i]
        pk = pacf_values(x, 5)
        assert 0.77 <= pk[1] <= 0.83
        assert abs(pk[2]) <= 0.05

    def test_reversal_symmetry(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=300)
        fwd = acf_values(x, 20)
        rev = acf_values(x[::-1].copy(), 20)
        assert np.allclose(fwd, rev, atol=1e-12)

    def test_max_lag_guard(self):
        with pytest.raises(ValueError):
            acf_values(np.arange(20.0), 10)


class TestMetrics:
    def test_identity(self):
        assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert mape([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_arithmetic(self):
        assert mae([10.0, 20.0], [11.0, 18.0]) == pytest.approx(1.5)
        assert mape([10.0, 20.0], [11.0, 18.0]) == pytest.approx(0.10)

    def test_mae_symmetry_property(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.normal(size=30)
            b = rng.normal(size=30)
            assert mae(a, b) == pytest.approx(mae(b, a))
            assert mae(a, b) >= 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mae([1.0], [1.0, 2.0])

    def test_mape_zero_actual(self):
        with pytest.raises(ValueError):
            mape([0.0, 1.0], [1.0, 1.0])


class TestLineFit:
    @pytest.mark.parametrize("n", [2, 3, 10, 168, 500])
    def test_matches_polyfit(self, n):
        rng = np.random.default_rng(n)
        y = 40.0 + 0.3 * np.arange(n) + rng.normal(0.0, 5.0, n)
        slope, intercept = np.polyfit(np.arange(n, dtype=float), y, 1)
        got_intercept, got_slope = line_fit(y)
        assert got_slope == pytest.approx(slope, rel=1e-12, abs=1e-12)
        assert got_intercept == pytest.approx(intercept, rel=1e-12)

    def test_exact_on_a_line(self):
        assert line_fit(2.5 - 0.5 * np.arange(7.0)) == (2.5, -0.5)


class TestLjungBox:
    def test_white_noise_passes(self):
        rejections = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            if ljung_box_rejects(rng.normal(size=400), lags=16):
                rejections += 1
        assert rejections <= 3

    def test_correlated_series_fails(self):
        rng = np.random.default_rng(0)
        x = np.zeros(400)
        eps = rng.normal(size=400)
        for i in range(1, 400):
            x[i] = 0.7 * x[i - 1] + eps[i]
        assert ljung_box_rejects(x, lags=16)
