import math

import numpy as np
import pytest

from oeeforecast.feature_matrix import FeatureMatrix
from oeeforecast.series import TimeSeries
from oeeforecast.stat_features import (
    CATALOG,
    approximate_entropy,
    extract_stat_features,
    fourier_entropy,
    permutation_entropy,
    sample_entropy,
    window_features,
)


def col(fm, name):
    return fm.column(name)


class TestCatalog:
    def test_size_and_uniqueness(self):
        assert len(CATALOG) == 76
        assert len(set(CATALOG)) == 76

    def test_bit_stable_across_calls(self):
        from oeeforecast.stat_features import _catalog_names

        assert _catalog_names() == CATALOG


class TestEntropies:
    def test_monotone_ramp_permutation_zero(self):
        assert permutation_entropy(np.arange(24.0)) == 0.0

    def test_constant_permutation_zero(self):
        assert permutation_entropy(np.ones(24)) == 0.0

    def test_iid_uniform_permutation_near_one(self):
        rng = np.random.default_rng(0)
        h = permutation_entropy(rng.uniform(size=1000))
        assert 0.95 <= h <= 1.0

    def test_permutation_in_unit_interval_property(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            h = permutation_entropy(rng.normal(size=50))
            assert 0.0 <= h <= 1.0

    def test_periodic_sample_entropy_near_zero(self):
        x = np.array([1.0, 2.0] * 50)
        # brute-force template-count oracle for m=2, r=0.5:
        # every m-template recurs identically, so A/B -> ~1 and -ln(A/B) -> ~0
        h = sample_entropy(x, m=2, r=0.5)
        assert h == pytest.approx(0.0, abs=0.05)

    def test_sample_entropy_matches_bruteforce_count(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=60)
        r = 0.2 * float(np.std(x))

        def brute_count(m):
            c = 0
            for i in range(len(x) - m + 1):
                for j in range(len(x) - m + 1):
                    if i != j and np.max(np.abs(x[i : i + m] - x[j : j + m])) <= r:
                        c += 1
            return c // 2

        b, a = brute_count(2), brute_count(3)
        assert sample_entropy(x, 2, r) == pytest.approx(-math.log(a / b))

    def test_constant_window_degenerate_zero(self):
        assert sample_entropy(np.ones(24)) == 0.0
        assert approximate_entropy(np.ones(24)) == 0.0
        assert fourier_entropy(np.ones(24)) == 0.0

    def test_approximate_entropy_regular_vs_random(self):
        rng = np.random.default_rng(2)
        regular = np.tile([1.0, 2.0], 100)
        random = rng.normal(size=200)
        assert approximate_entropy(regular) < approximate_entropy(random)

    def test_entropies_nonnegative_property(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.normal(size=40)
            assert sample_entropy(x) >= 0.0
            assert approximate_entropy(x) >= -1e-12
            assert fourier_entropy(x) >= 0.0

    def test_short_window_rejected(self):
        with pytest.raises(ValueError):
            sample_entropy(np.arange(4.0), m=2)
        with pytest.raises(ValueError):
            permutation_entropy(np.arange(2.0), order=3)


class TestWindowFeatures:
    def test_constant_window(self):
        fm = extract_stat_features(TimeSeries(np.full(24, 3.0)), window=24)
        assert col(fm, "variance")[0] == 0.0
        assert col(fm, "mean_abs_change")[0] == 0.0
        assert col(fm, "permutation_entropy")[0] == 0.0
        assert col(fm, "trend_slope")[0] == 0.0
        assert (23, "skewness") in fm.imputed

    def test_pure_ramp(self):
        fm = extract_stat_features(TimeSeries(np.arange(24.0)), window=24)
        assert col(fm, "trend_slope")[0] == pytest.approx(1.0)
        assert col(fm, "trend_r2")[0] == pytest.approx(1.0)
        assert col(fm, "permutation_entropy")[0] == 0.0

    def test_descriptive_values_match_numpy(self):
        rng = np.random.default_rng(7)
        x = rng.normal(5, 2, 24)
        v = window_features(x)
        names = dict(zip(CATALOG, v))
        assert names["sum"] == pytest.approx(np.sum(x))
        assert names["mean"] == pytest.approx(np.mean(x))
        assert names["abs_energy"] == pytest.approx(np.sum(x**2))
        assert names["rms"] == pytest.approx(np.sqrt(np.mean(x**2)))
        assert names["mean_abs_change"] == pytest.approx(np.mean(np.abs(np.diff(x))))

    def test_fft_coefficients_match_numpy(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=24)
        v = dict(zip(CATALOG, window_features(x)))
        coefs = np.fft.rfft(x)
        for k in range(8):
            assert v[f"fft_{k}_real"] == pytest.approx(coefs[k].real)
            assert v[f"fft_{k}_abs"] == pytest.approx(abs(coefs[k]))

    def test_translation_covariance(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=24)
        a = dict(zip(CATALOG, window_features(x)))
        b = dict(zip(CATALOG, window_features(x + 10.0)))
        assert b["mean"] == pytest.approx(a["mean"] + 10.0)
        assert b["variance"] == pytest.approx(a["variance"])
        assert b["trend_slope"] == pytest.approx(a["trend_slope"])
        assert b["sample_entropy"] == pytest.approx(a["sample_entropy"])
        assert b["permutation_entropy"] == pytest.approx(a["permutation_entropy"])


class TestExtraction:
    def test_shape_and_row_index(self, oee_series):
        fm = extract_stat_features(oee_series, window=24)
        assert fm.n_cols == 76
        assert fm.n_rows == len(oee_series) - 23
        assert fm.row_index[0] == 23
        assert fm.row_index[-1] == len(oee_series) - 1

    def test_rows_depend_only_on_own_window(self, oee_series):
        fm = extract_stat_features(oee_series, window=24)
        x = oee_series.values.copy()
        x[100:] = 1.0  # mutate everything after position 99
        fm2 = extract_stat_features(TimeSeries(x), window=24)
        keep = [i for i, r in enumerate(fm.row_index) if r <= 99]
        assert np.array_equal(fm.matrix[keep], fm2.matrix[keep])

    def test_all_finite(self, oee_series):
        fm = extract_stat_features(oee_series, window=24)
        assert np.all(np.isfinite(fm.matrix))

    def test_window_larger_than_series(self):
        with pytest.raises(ValueError):
            extract_stat_features(TimeSeries(np.arange(10.0)), window=24)


class TestFeatureMatrix:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            FeatureMatrix(("a", "a"), np.ones((2, 2)), (0, 1))

    def test_row_index_monotone(self):
        with pytest.raises(ValueError):
            FeatureMatrix(("a",), np.ones((2, 1)), (5, 5))

    def test_imputation_flags(self):
        m = np.array([[1.0, np.nan], [2.0, 3.0]])
        fm = FeatureMatrix(("a", "b"), m, (10, 11))
        assert fm.matrix[0, 1] == 0.0
        assert (10, "b") in fm.imputed

    def test_select_and_stack(self):
        fm = FeatureMatrix(("a", "b"), np.arange(4.0).reshape(2, 2), (0, 1))
        sub = fm.select_columns(["b"])
        assert sub.column_names == ("b",)
        other = FeatureMatrix(("c",), np.ones((2, 1)), (0, 1))
        wide = fm.hstack(other)
        assert wide.column_names == ("a", "b", "c")

    def test_csv_round_trip(self, tmp_path):
        fm = FeatureMatrix(("a", "b"), np.array([[1.5, 2.5], [3.5, 4.5]]), (3, 4))
        p = tmp_path / "fm.csv"
        fm.to_csv(p)
        lines = p.read_text().splitlines()
        assert lines[0] == "row_index,a,b"
        assert lines[1].startswith("3,1.5")
