import numpy as np
import pytest

from oeeforecast.pipeline import causal_components
from oeeforecast.series import TimeSeries
from oeeforecast.tda.extract import (
    TdaParams,
    extract_tda_features,
    fit_diagram_scale,
    tda_catalog,
)

from conftest import STAND_INS, make_oee_series
from oracles import scalar_fit_diagram_scale


class TestParams:
    def test_defaults_consistent(self):
        p = TdaParams()
        assert p.window == 24 and p.delay == 8 and p.embed_dim == 3

    def test_window_embedding_guard(self):
        with pytest.raises(ValueError):
            TdaParams(window=16, delay=8, embed_dim=3)

    def test_catalog_size_default(self):
        names = tda_catalog(TdaParams())
        # per homology dim: 3 scalars + 10 betti + 20 landscape + 1 norm +
        # 10 silhouette + 1 heat + 7 lifetime stats = 52
        assert len(names) == 104
        assert len(set(names)) == 104


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
        with pytest.raises(ValueError):
            extract_tda_features(TimeSeries(np.arange(10.0)))



class TestDiagramScale:
    @pytest.mark.parametrize("name", list(STAND_INS))
    @pytest.mark.parametrize("window", [24, 30])
    def test_equals_largest_death_of_every_diagram(self, name, window):
        n, seed = STAND_INS[name]
        series = make_oee_series(n, seed=seed, name=name)
        params = TdaParams(window=window)
        for length in (340, 518, n):
            residual = causal_components(series.slice(0, length), (8, 24, 168))[2]
            assert fit_diagram_scale(residual, params) == scalar_fit_diagram_scale(residual, params)

    def test_constant_series_scale_is_one(self):
        ts = TimeSeries(np.full(40, 5.0))
        assert fit_diagram_scale(ts) == scalar_fit_diagram_scale(ts) == 1.0
