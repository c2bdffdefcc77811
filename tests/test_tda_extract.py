import inspect

import numpy as np
import pytest

from oeeforecast.feature_matrix import FeatureMatrix
from oeeforecast.pipeline import causal_components
from oeeforecast.series import TimeSeries
from oeeforecast.tda import extract
from oeeforecast.tda.extract import CATALOG, MIN_WINDOW, extract_tda_features, fit_diagram_scale

from oeeforecast.tda.persistence import PersistenceDiagram
from oeeforecast.tda import vectorize

import oracles
from conftest import STAND_INS, make_oee_series
from oracles import scalar_extract_tda_features, scalar_fit_diagram_scale


# the entry points that take a window
WINDOWED = [extract_tda_features, fit_diagram_scale]


class TestParams:
    def test_defaults_consistent(self):
        defaults = [inspect.signature(f).parameters["window"].default for f in WINDOWED]
        assert defaults == [24, 24] and extract.DELAY == 8 and extract.EMBED_DIM == 3

    def test_window_embedding_guard(self):
        for entry in WINDOWED:
            with pytest.raises(ValueError):
                entry(TimeSeries(np.arange(40.0)), window=16)

    def test_window_needs_two_embedded_points(self):
        assert MIN_WINDOW == 18
        for entry in WINDOWED:
            with pytest.raises(ValueError, match="18"):
                entry(TimeSeries(np.arange(40.0)), window=17)
        fm = extract_tda_features(TimeSeries(np.arange(20.0)), window=18)
        assert fm.n_rows == 3 and np.all(np.isfinite(fm.matrix))

    def test_catalog_size_default(self):
        # per homology dim: 3 scalars + 10 betti + 20 landscape + 1 norm +
        # 10 silhouette + 1 heat + 7 lifetime stats = 52
        assert len(CATALOG) == 104
        assert len(set(CATALOG)) == 104


class TestExtraction:
    def test_shape_and_row_index(self, oee_series):
        fm = extract_tda_features(oee_series.slice(0, 200))
        assert fm.n_cols == 104
        assert fm.row_index[0] == 23
        assert fm.row_index[-1] == 199
        assert np.all(np.isfinite(fm.matrix))

    def test_constant_series_degenerate_defaults(self):
        fm = extract_tda_features(TimeSeries(np.full(30, 5.0)))
        assert np.all(fm.matrix == 0.0)

    def test_translation_invariance(self, oee_series):
        ts = oee_series.slice(0, 120)
        a = extract_tda_features(ts, scale=1.0)
        b = extract_tda_features(TimeSeries(ts.values + 17.0), scale=1.0)
        assert np.allclose(a.matrix, b.matrix, atol=1e-9)

    def test_rows_depend_only_on_own_window(self, oee_series):
        ts = oee_series.slice(0, 160)
        scale = fit_diagram_scale(ts.slice(0, 100))
        a = extract_tda_features(ts, scale=scale)
        mutated = ts.values.copy()
        mutated[100:] = 1.0
        b = extract_tda_features(TimeSeries(mutated), scale=scale)
        keep = [i for i, r in enumerate(a.row_index) if r <= 99]
        assert np.array_equal(a.matrix[keep], b.matrix[keep])

    def test_fixed_scale_reproducible(self, oee_series):
        ts = oee_series.slice(0, 120)
        s = fit_diagram_scale(ts)
        a = extract_tda_features(ts, scale=s)
        b = extract_tda_features(ts, scale=s)
        assert np.array_equal(a.matrix, b.matrix)

    def test_too_short(self):
        for entry in WINDOWED:
            with pytest.raises(ValueError):
                entry(TimeSeries(np.arange(10.0)))
            with pytest.raises(ValueError, match="length 29 < window 30"):
                entry(TimeSeries(np.arange(29.0)), window=30)

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf])
    def test_invalid_scale_rejected(self, oee_series, scale):
        with pytest.raises(ValueError, match="scale"):
            extract_tda_features(oee_series.slice(0, 60), scale=scale)


class TestDiagramScale:
    @pytest.mark.parametrize("name", list(STAND_INS))
    @pytest.mark.parametrize("window", [24, 30])
    def test_equals_largest_death_of_every_diagram(self, name, window):
        n, seed = STAND_INS[name]
        series = make_oee_series(n, seed=seed, name=name)
        for length in (340, 518, n):
            residual = causal_components(series.slice(0, length), (8, 24, 168))[2]
            assert fit_diagram_scale(residual, window) == scalar_fit_diagram_scale(residual, window)

    def test_constant_series_scale_is_one(self):
        ts = TimeSeries(np.full(40, 5.0))
        assert fit_diagram_scale(ts) == scalar_fit_diagram_scale(ts) == 1.0


# columns that must match the per-window oracle bit for bit; every other
# cell must be within rtol 1e-12
def _exact(name):
    return "_betti_" in name or name.endswith("_entropy") or name.startswith("h0_landscape_")


def assert_matches_oracle(got, want):
    assert got.column_names == want.column_names
    assert got.row_index == want.row_index
    np.testing.assert_allclose(got.matrix, want.matrix, rtol=1e-12, atol=0.0)
    exact = [j for j, name in enumerate(want.column_names) if _exact(name)]
    assert np.array_equal(got.matrix[:, exact], want.matrix[:, exact])


def _residual(name):
    n, seed = STAND_INS[name]
    return causal_components(make_oee_series(n, seed=seed, name=name), (8, 24, 168))[2]


# windows whose clouds have coincident points, tied distances, or both
DEGENERATE = {
    "constant": np.full(30, 5.0),
    "ramp": np.arange(30.0),  # equally spaced points: every distance tied
    "integer_lattice": np.tile([0.0, 1.0, 2.0, 1.0], 8),
    "square_wave": np.tile([0.0, 0.0, 0.0, 10.0, 10.0, 10.0], 6),
    # stretches of period 5: a window inside one holds 5 distinct points of
    # its 8, so zero-lifetime H0 pairs sit among inexact lifetimes
    "period_5": np.concatenate(
        [np.tile(np.random.default_rng(k).uniform(0.0, 9.0, 5), 8) for k in range(12)]
    ),
}


class TestScalarOracle:
    @pytest.mark.parametrize("window", [24, 30])
    @pytest.mark.parametrize("name", list(STAND_INS))
    def test_stand_in_residuals(self, name, window):
        residual = _residual(name)
        assert_matches_oracle(
            extract_tda_features(residual, window), scalar_extract_tda_features(residual, window)
        )
        scale = fit_diagram_scale(residual.slice(0, 400), window)
        assert_matches_oracle(
            extract_tda_features(residual, window, scale=scale),
            scalar_extract_tda_features(residual, window, scale=scale),
        )

    @pytest.mark.parametrize("name", list(DEGENERATE))
    def test_degenerate_windows(self, name):
        ts = TimeSeries(DEGENERATE[name])
        for scale in (None, 1.0, 7.5):
            assert_matches_oracle(
                extract_tda_features(ts, scale=scale), scalar_extract_tda_features(ts, scale=scale)
            )

    @pytest.mark.parametrize(
        "columns",
        [
            ("h0_betti_4", "h0_betti_8", "h0_betti_9", "h0_landscape_0_3"),
            ("h1_heat_l2", "h1_entropy", "h1_betti_2"),
            ("h1_life_median", "h0_landscape_norm", "h0_betti_0", "h1_silhouette_3", "h0_life_std"),
            ("h0_landscape_norm",),
            ("h1_wasserstein_amp", "h1_bottleneck_amp", "h1_landscape_1_9"),
            # both layers at one grid point, Betti bins out of order
            ("h0_landscape_1_3", "h0_betti_9", "h0_landscape_0_3", "h1_landscape_0_0",
             "h0_betti_0"),
        ],
    )
    def test_columns_equal_full_then_select(self, columns):
        ts = _residual("h2").slice(0, 200)
        scale = fit_diagram_scale(ts)
        full = extract_tda_features(ts, scale=scale).select_columns(columns)
        got = extract_tda_features(ts, scale=scale, columns=columns)
        assert got.column_names == columns and got.row_index == full.row_index
        assert np.array_equal(got.matrix, full.matrix)

    def test_one_feature_matrix_per_row_build(self, oee_series, monkeypatch):
        # the asked-for columns are written straight into the one matrix,
        # not selected from a full-catalog one
        built = []
        post_init = FeatureMatrix.__post_init__

        def counted(fm):
            built.append(fm)
            post_init(fm)

        monkeypatch.setattr(FeatureMatrix, "__post_init__", counted)
        columns = ("h0_betti_4", "h0_landscape_0_3", "h1_entropy")
        fm = extract_tda_features(oee_series.slice(0, 60), columns=columns)
        assert len(built) == 1 and built[0] is fm and fm.column_names == columns

    def test_unknown_column_rejected(self, oee_series):
        with pytest.raises(ValueError, match="h2_entropy"):
            extract_tda_features(oee_series.slice(0, 60), columns=["h0_entropy", "h2_entropy"])

    def test_row_does_not_depend_on_batch(self):
        ts = _residual("gm2").slice(0, 240)
        scale = fit_diagram_scale(ts)
        full = extract_tda_features(ts, scale=scale)
        for start, stop in ((0, 24), (0, 37), (13, 90), (101, 240), (200, 224)):
            part = extract_tda_features(ts.slice(start, stop), scale=scale)
            rows = [i for i, end in enumerate(full.row_index) if start + 23 <= end < stop]
            assert np.array_equal(part.matrix, full.matrix[rows])

    def test_public_vectorizers_are_the_scalar_bodies(self):
        rng = np.random.default_rng(11)
        diagrams = [PersistenceDiagram(np.array([]), np.array([]), np.array([], dtype=int), 1.0)]
        for size in (1, 2, 5, 9, 16):
            b = rng.uniform(0.0, 0.6, size)
            life = rng.uniform(0.0, 0.4, size)
            life[::3] = 0.0  # zero-lifetime pairs
            life[1::4] = life[-1]  # tied lifetimes
            d = b + life
            dims = rng.integers(0, 2, size)
            diagrams.append(PersistenceDiagram(b, d, dims, float(d.max())))
        t = (0.0, 1.0)
        for dg in diagrams:
            for h in (0, 1):
                b, d = (a[None, :] for a in dg.restricted(h))
                lam = oracles.scalar_landscape(dg, h, 3, 13, t)
                pairs = [
                    (oracles.persistence_entropy(dg, h), oracles.scalar_persistence_entropy(dg, h)),
                    (vectorize.batch_bottleneck(b, d)[0], oracles.scalar_bottleneck_amplitude(dg, h)),
                    (vectorize.batch_wasserstein(b, d, 3.0)[0],
                     oracles.scalar_wasserstein_amplitude(dg, h, 3.0)),
                    (oracles.betti_curve(dg, h, 7, t), oracles.scalar_betti_curve(dg, h, 7, t)),
                    (oracles.landscape(dg, h, 4, 11, t), oracles.scalar_landscape(dg, h, 4, 11, t)),
                    (vectorize.batch_silhouette(b, d, 0.5, np.linspace(*t, 11))[0],
                     oracles.scalar_silhouette(dg, h, 0.5, 11, t)),
                    (vectorize.batch_heat_norm(b, d, 0.2, np.linspace(*t, 64))[0],
                     oracles.scalar_heat_kernel_norm(dg, h, 0.2)),
                    (vectorize.batch_lifetime_stats(b, d)[0],
                     list(oracles.scalar_lifetime_stats(dg, h).values())),
                    (vectorize.batch_landscape_norm(lam[None], 3.0, np.linspace(*t, 13))[0],
                     oracles.scalar_landscape_norm(lam, 3.0)),
                ]
                for got, want in pairs:
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
