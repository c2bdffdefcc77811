import math
import tracemalloc

import numpy as np
import pytest

from oeeforecast import stat_features
from oeeforecast.feature_matrix import FeatureMatrix
from oeeforecast.pipeline import causal_components
from oeeforecast.series import TimeSeries
from oeeforecast.stat_features import CATALOG, extract_stat_features, window_features

from conftest import STAND_INS, make_oee_series
from oracles import (
    _batch_match_counts,
    batch_catalog_rows,
    scalar_approximate_entropy,
    scalar_fourier_entropy,
    scalar_permutation_entropy,
    scalar_sample_entropy,
    scalar_window_features,
)

ENTROPY_COLUMNS = ("sample_entropy", "approximate_entropy", "permutation_entropy", "fourier_entropy")
TEMPLATE_COLUMNS = ("sample_entropy", "approximate_entropy")
# window counts one short of a block of match tensors, one block, one over,
# and two blocks and one
BLOCK = stat_features._MATCH_BLOCK
WINDOW_COUNTS = [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]


def causal_residual(name):
    n, seed = STAND_INS[name]
    return causal_components(make_oee_series(n, seed=seed, name=name), (8, 24, 168))[2]


def degenerate_windows():
    """Back-to-back 24-value windows: constant, ramp, alternating two-level,
    stoppages pinned at 1.0, tied values, and a constant with a 1e-15 ripple
    (var > 0, but skewness and kurtosis are NaN by scipy's near-constant rule)."""
    rng = np.random.default_rng(4)
    stopped = rng.normal(30.0, 5.0, 24)
    stopped[[3, 11, 12, 17]] = 1.0
    return TimeSeries(
        np.concatenate(
            [
                np.full(24, 3.0),
                np.arange(24.0),
                np.tile([1.0, 5.0], 12),
                stopped,
                np.round(rng.normal(30.0, 1.5, 24)),
                np.full(24, 5.0) + 1e-15 * np.sin(np.arange(24.0)),
            ]
        )
    )


def block_edge_series(n_windows, window):
    """Three series of n_windows windows: noise, rounded noise (tied values),
    and noise with a constant stretch one window long in the first block (a
    window with tolerance r = 0)."""
    rng = np.random.default_rng(n_windows + window)
    n = n_windows + window - 1
    noise = rng.normal(30.0, 5.0, n)
    flat = noise.copy()
    start = min(BLOCK - 2, n_windows - 1)
    flat[start : start + window] = 7.0
    return [TimeSeries(noise), TimeSeries(np.round(rng.normal(30.0, 1.5, n))), TimeSeries(flat)]


def scalar_extraction(ts, window):
    x = ts.values
    ends = range(window - 1, len(x))
    rows = [scalar_window_features(x[end - window + 1 : end + 1]) for end in ends]
    return FeatureMatrix(CATALOG, np.vstack(rows), tuple(ends))


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
    """The entropy definitions, on the scalar oracles the catalog columns are
    tied to bit for bit (TestScalarOracle)."""

    def test_monotone_ramp_permutation_zero(self):
        assert scalar_permutation_entropy(np.arange(24.0)) == 0.0

    def test_constant_permutation_zero(self):
        assert scalar_permutation_entropy(np.ones(24)) == 0.0

    def test_iid_uniform_permutation_near_one(self):
        rng = np.random.default_rng(0)
        h = scalar_permutation_entropy(rng.uniform(size=1000))
        assert 0.95 <= h <= 1.0

    def test_permutation_in_unit_interval_property(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            h = scalar_permutation_entropy(rng.normal(size=50))
            assert 0.0 <= h <= 1.0

    def test_periodic_sample_entropy_near_zero(self):
        x = np.array([1.0, 2.0] * 50)
        # brute-force template-count oracle for m=2, r=0.5:
        # every m-template recurs identically, so A/B -> ~1 and -ln(A/B) -> ~0
        h = scalar_sample_entropy(x, m=2, r=0.5)
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
        assert scalar_sample_entropy(x, 2, r) == pytest.approx(-math.log(a / b))

    def test_constant_window_degenerate_zero(self):
        assert scalar_sample_entropy(np.ones(24)) == 0.0
        assert scalar_approximate_entropy(np.ones(24)) == 0.0
        assert scalar_fourier_entropy(np.ones(24)) == 0.0

    def test_approximate_entropy_regular_vs_random(self):
        rng = np.random.default_rng(2)
        regular = np.tile([1.0, 2.0], 100)
        random = rng.normal(size=200)
        assert scalar_approximate_entropy(regular) < scalar_approximate_entropy(random)

    def test_entropies_nonnegative_property(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.normal(size=40)
            assert scalar_sample_entropy(x) >= 0.0
            assert scalar_approximate_entropy(x) >= -1e-12
            assert scalar_fourier_entropy(x) >= 0.0

    def test_short_window_rejected(self):
        with pytest.raises(ValueError):
            scalar_sample_entropy(np.arange(4.0), m=2)
        with pytest.raises(ValueError):
            scalar_permutation_entropy(np.arange(2.0), order=3)


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

    def test_unknown_and_repeated_columns_refused_every_time(self, oee_series):
        # the column plan is kept only for a column set that passes
        for _ in range(2):
            with pytest.raises(ValueError, match=r"statistical catalog: \['nope'\]"):
                extract_stat_features(oee_series, columns=["mean", "nope"])
            with pytest.raises(ValueError, match="unique"):
                extract_stat_features(oee_series, columns=["mean", "std", "mean"])
        fm = extract_stat_features(oee_series, columns=["std", "mean"])
        assert fm.column_names == ("std", "mean")
        assert extract_stat_features(oee_series, columns=[]).matrix.shape == (fm.n_rows, 0)

    @pytest.mark.parametrize(
        "values", [np.sin(np.arange(40.0)), np.full(40, 2.0)], ids=["varying", "constant"]
    )
    def test_window_guard(self, values):
        with pytest.raises(ValueError, match="17"):
            extract_stat_features(TimeSeries(values), window=16)
        fm = extract_stat_features(TimeSeries(values), window=17)
        assert fm.matrix.shape == (24, 76)


class TestScalarOracle:
    @pytest.mark.parametrize(
        "name, window",
        [(n, w) for n in STAND_INS for w in (24, 30)] + [("degenerate", 24)],
    )
    def test_batched_catalog_matches_per_window_oracle(self, name, window):
        ts = degenerate_windows() if name == "degenerate" else causal_residual(name)
        got = extract_stat_features(ts, window)
        want = scalar_extraction(ts, window)
        assert got.row_index == want.row_index
        assert got.imputed == want.imputed
        np.testing.assert_allclose(got.matrix, want.matrix, rtol=1e-12, atol=0.0)
        for column in ENTROPY_COLUMNS:
            assert got.column(column).tobytes() == want.column(column).tobytes(), column

    @pytest.mark.parametrize("offset", [0, 1, 333])
    @pytest.mark.parametrize("length", [24, 37, 61])
    def test_rows_do_not_depend_on_the_batch(self, offset, length):
        for name in STAND_INS:
            residual = causal_residual(name)
            full = extract_stat_features(residual, 24)
            part = extract_stat_features(residual.slice(offset, offset + length), 24)
            rows = slice(offset, offset + length - 23)
            assert part.matrix.tobytes() == full.matrix[rows].tobytes()
            assert part.imputed == {
                (r - offset, c) for r, c in full.imputed if offset + 23 <= r < offset + length
            }

    def test_one_window_entropies_match_oracle_bit_for_bit(self):
        rng = np.random.default_rng(6)
        inputs = [rng.normal(size=200), np.tile([0.0, 1.0, 1.0], 20), np.full(30, 2.0)]
        oracles = {
            "sample_entropy": scalar_sample_entropy,
            "approximate_entropy": scalar_approximate_entropy,
            "permutation_entropy": scalar_permutation_entropy,
            "fourier_entropy": scalar_fourier_entropy,
        }
        for x in inputs:
            fm = extract_stat_features(TimeSeries(x), window=x.size)
            for column, scalar in oracles.items():
                want = np.nan_to_num(scalar(x), nan=0.0, posinf=0.0, neginf=0.0)
                assert fm.column(column)[0].tobytes() == np.float64(want).tobytes(), column

    @pytest.mark.parametrize("n_windows", WINDOW_COUNTS)
    def test_template_entropies_around_the_match_block(self, n_windows):
        oracles = {
            "sample_entropy": scalar_sample_entropy,
            "approximate_entropy": scalar_approximate_entropy,
        }
        for ts in block_edge_series(n_windows, 24):
            fm = extract_stat_features(ts, 24, TEMPLATE_COLUMNS)
            windows = np.lib.stride_tricks.sliding_window_view(ts.values, 24)
            for column, scalar in oracles.items():
                want = [scalar(x) for x in windows]
                want = np.nan_to_num(want, nan=0.0, posinf=0.0, neginf=0.0)
                assert fm.column(column).tobytes() == want.tobytes(), column


def batch_extraction(ts, window, columns=None):
    """The batch catalog oracle's matrix, then the selection."""
    X = np.lib.stride_tricks.sliding_window_view(ts.values, window)
    fm = FeatureMatrix(CATALOG, batch_catalog_rows(X), tuple(range(window - 1, len(ts))))
    return fm if columns is None else fm.select_columns(columns)


def assert_same_bytes(got, want):
    assert got.column_names == want.column_names
    assert got.row_index == want.row_index
    assert got.imputed == want.imputed
    assert got.matrix.tobytes() == want.matrix.tobytes()


def catalog_groups():
    """Each column group of the catalog, as the names it builds."""
    starts = stat_features._GROUP_STARTS
    return [CATALOG[lo:hi] for lo, hi in zip(starts, starts[1:])]


def oracle_inputs():
    """The stand-ins' residuals and the degenerate windows."""
    return [causal_residual(name) for name in STAND_INS] + [degenerate_windows()]


class TestBatchOracle:
    """extract_stat_features builds only the selected groups, and each of
    its columns has the bits of the whole batch catalog it replaced."""

    @pytest.mark.parametrize("window", [17, 24, 30])
    def test_whole_catalog(self, window):
        for ts in oracle_inputs():
            assert_same_bytes(extract_stat_features(ts, window), batch_extraction(ts, window))

    @pytest.mark.parametrize("group", range(len(stat_features._GROUPS)))
    def test_each_group_alone(self, group):
        columns = catalog_groups()[group]
        for ts in oracle_inputs():
            for window in (24, 25):
                want = batch_extraction(ts, window, columns)
                assert_same_bytes(extract_stat_features(ts, window, columns), want)

    def test_random_subsets_in_any_order(self):
        rng = np.random.default_rng(11)
        inputs = oracle_inputs()
        for trial in range(40):
            ts = inputs[trial % len(inputs)]
            size = int(rng.integers(1, len(CATALOG) + 1))
            columns = tuple(rng.choice(CATALOG, size=size, replace=False))
            window = int(rng.integers(17, 41))
            want = batch_extraction(ts, window, columns)
            assert_same_bytes(extract_stat_features(ts, window, columns), want)

    @pytest.mark.parametrize(
        "values",
        [
            np.full(40, 3.0),
            np.full(40, -0.0),
            np.arange(40.0),
            np.arange(40.0)[::-1].copy(),
            np.tile([1.0, 1.0, 5.0, 5.0], 10),
            np.round(np.random.default_rng(12).normal(30.0, 1.5, 40)),
        ],
        ids=["constant", "negative_zero", "ramp", "falling_ramp", "tied_pairs", "rounded"],
    )
    def test_constant_tied_and_ramp_windows(self, values):
        ts = TimeSeries(values)
        for window in (17, 24, 31):
            assert_same_bytes(extract_stat_features(ts, window), batch_extraction(ts, window))

    def test_random_scales_and_lengths(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            window = int(rng.integers(17, 64))
            x = rng.normal(size=window + int(rng.integers(0, 40))) * 10.0 ** rng.integers(-4, 5)
            ts = TimeSeries(x)
            assert_same_bytes(extract_stat_features(ts, window), batch_extraction(ts, window))

    @pytest.mark.parametrize("n_windows", WINDOW_COUNTS)
    def test_windows_around_the_match_block(self, n_windows):
        m = stat_features.TEMPLATE_LENGTH
        for window in (17, 24):
            for ts in block_edge_series(n_windows, window):
                X = np.lib.stride_tricks.sliding_window_view(ts.values, window)
                r = 0.2 * np.std(X, axis=1)
                got = stat_features._match_counts(np.ascontiguousarray(X), m, r)
                want = _batch_match_counts(X, m, r)
                assert [c.tobytes() for c in got] == [c.tobytes() for c in want]
                for columns in (None, TEMPLATE_COLUMNS):
                    want = batch_extraction(ts, window, columns)
                    assert_same_bytes(extract_stat_features(ts, window, columns), want)

    def test_unknown_and_empty_selections(self):
        ts = causal_residual("gh2")
        with pytest.raises(ValueError, match="statistical catalog"):
            extract_stat_features(ts, 24, ["mean", "h0_entropy"])
        empty = extract_stat_features(ts, 24, [])
        assert empty.matrix.shape == (len(ts) - 23, 0)

    def test_one_window_is_the_oracle_row(self):
        rng = np.random.default_rng(14)
        for x in (rng.normal(size=24), np.full(24, 2.0), np.arange(30.0)):
            assert window_features(x).tobytes() == batch_catalog_rows(x[None, :])[0].tobytes()


class TestMemory:
    def test_template_entropies_in_bounded_memory(self):
        # the match tensors are built one block of windows at a time: for all
        # 1953 windows of 48 values at once they would take over 140 MB
        ts = TimeSeries(np.random.default_rng(15).normal(size=2000))
        tracemalloc.start()
        try:
            extract_stat_features(ts, 48, TEMPLATE_COLUMNS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


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

    def test_selection_keeps_only_the_kept_cells_imputed(self):
        fm = FeatureMatrix(("a", "b"), [[1.0, np.nan], [2.0, 3.0]], (0, 1))
        assert fm.select_columns(["a"]).imputed == frozenset()
        assert fm.select_rows([1]).imputed == frozenset()
        assert fm.select_columns(["b"]).imputed == {(0, "b")}
        assert fm.select_rows([0]).imputed == {(0, "b")}

    def test_select_and_stack(self):
        fm = FeatureMatrix(("a", "b"), np.arange(4.0).reshape(2, 2), (0, 1))
        sub = fm.select_columns(["b"])
        assert sub.column_names == ("b",)
        other = FeatureMatrix(("c",), np.ones((2, 1)), (0, 1))
        wide = fm.hstack(other)
        assert wide.column_names == ("a", "b", "c")

    def test_wrap_imputes_as_the_constructor_does(self):
        m = np.array([[1.0, np.nan, np.inf], [2.0, 3.0, -np.inf]])
        built = FeatureMatrix(("a", "b", "c"), m, (10, 11))
        wrapped = FeatureMatrix.wrap(("a", "b", "c"), m.copy(), (10, 11))
        for name in ("column_names", "row_index", "imputed"):
            assert getattr(wrapped, name) == getattr(built, name), name
        assert wrapped.matrix.tobytes() == built.matrix.tobytes()
        assert wrapped.imputed == {(10, "b"), (10, "c"), (11, "c")}
        assert not wrapped.matrix.flags.writeable

    def test_wrap_takes_the_matrix_over(self):
        m = np.arange(6.0).reshape(3, 2)
        fm = FeatureMatrix.wrap(("a", "b"), m, (0, 1, 2))
        assert fm.matrix is m and fm.imputed == frozenset()
        assert fm.select_columns(["b"]).column_names == ("b",)

    def test_csv_round_trip(self, tmp_path):
        fm = FeatureMatrix(("a", "b"), np.array([[1.5, 2.5], [3.5, 4.5]]), (3, 4))
        p = tmp_path / "fm.csv"
        fm.to_csv(p)
        lines = p.read_text().splitlines()
        assert lines[0] == "row_index,a,b"
        assert lines[1].startswith("3,1.5")
