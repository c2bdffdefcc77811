import json
import math

import numpy as np
import pytest

from oeeforecast.feature_matrix import FeatureMatrix
from oeeforecast.pipeline import PipelineConfig, aligned_features, causal_components
from oeeforecast.sarimax import SarimaxSpec, simulate
from oeeforecast.selection import (
    _average_ranks,
    PsoConfig,
    PsoResult,
    SelectionReport,
    collinearity_prune,
    correlation_filter,
    pso_bic,
    rfe_sarimax,
    variance_filter,
    write_manifest,
)
from oeeforecast.series import TimeSeries
from oeeforecast.tda.extract import fit_diagram_scale

from conftest import STAND_INS, make_oee_series, strict_json
from oracles import qr_collinearity_prune, scipy_spearman


def matrix_from(cols: dict) -> FeatureMatrix:
    names = tuple(cols)
    data = np.column_stack([np.asarray(v, dtype=float) for v in cols.values()])
    return FeatureMatrix(names, data, tuple(range(data.shape[0])))


class TestVarianceFilter:
    def test_constant_dropped_noise_kept(self):
        rng = np.random.default_rng(0)
        fm = matrix_from({"flat": np.full(500, 3.0), "noisy": rng.normal(0, 1, 500)})
        out, report = variance_filter(fm)
        assert out.column_names == ("noisy",)
        assert "flat" in report.dropped_columns
        assert report.metrics["noisy"] == pytest.approx(1.0, rel=0.2)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        fm = matrix_from(
            {"a": rng.normal(size=100), "tiny": rng.normal(0, 0.01, 100), "b": rng.normal(size=100)}
        )
        once, _ = variance_filter(fm)
        twice, _ = variance_filter(once)
        assert once.column_names == twice.column_names

    def test_all_dropped_is_error(self):
        fm = matrix_from({"a": np.ones(10), "b": np.full(10, 2.0)})
        with pytest.raises(ValueError, match="every column"):
            variance_filter(fm)

    def test_partition_exact(self):
        rng = np.random.default_rng(5)
        fm = matrix_from({"a": rng.normal(size=40), "b": np.ones(40), "c": rng.normal(size=40)})
        _, report = variance_filter(fm)
        assert set(report.kept_columns) | set(report.dropped_columns) == set(fm.column_names)
        assert not set(report.kept_columns) & set(report.dropped_columns)


class TestCorrelationFilter:
    def test_duplicate_column_dropped(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=300)
        fm = matrix_from({"orig": x, "copy": x.copy(), "other": rng.normal(size=300)})
        out, report = correlation_filter(fm, target=rng.normal(size=300))
        assert out.n_cols == 2
        assert len({"orig", "copy"} & set(report.dropped_columns)) == 1

    def test_independent_columns_kept(self):
        rng = np.random.default_rng(1)
        fm = matrix_from({"a": rng.normal(size=500), "b": rng.normal(size=500)})
        out, _ = correlation_filter(fm, target=rng.normal(size=500))
        assert out.column_names == ("a", "b")

    def test_keeps_more_target_correlated_member(self):
        rng = np.random.default_rng(2)
        target = rng.normal(size=400)
        a = target + rng.normal(0, 0.05, 400)
        b = a + rng.normal(0, 0.05, 400)
        fm = matrix_from({"a": a, "b": b})
        out, report = correlation_filter(fm, target)
        assert out.column_names == ("a",)
        assert "b" in report.dropped_columns

    def test_target_length_checked(self):
        fm = matrix_from({"a": np.arange(10.0)})
        with pytest.raises(ValueError, match="target length"):
            correlation_filter(fm, target=np.arange(5.0))

    def test_importance_bits_equal_scipy_spearman(self):
        # columns with ties and a constant one, against a target with ties;
        # a target with a NaN correlates with nothing
        rng = np.random.default_rng(3)
        n = 200
        target = np.round(rng.normal(size=n), 1)
        cols = {f"c{j}": np.round(rng.normal(size=n) * (j + 1), j % 3) for j in range(40)}
        cols["flat"] = np.full(n, 2.0)
        fm = matrix_from(cols)
        _, report = correlation_filter(fm, target)
        for name, col in cols.items():
            want = abs(scipy_spearman(col, target)) if np.ptp(col) else 0.0
            assert report.metrics[name] == want, name
        _, report = correlation_filter(fm, np.where(np.arange(n) == 7, np.nan, target))
        assert set(report.metrics.values()) == {0.0}

    def test_ranks_bits_equal_scipy_spearman_on_random_pairs(self):
        rng = np.random.default_rng(4)
        for trial in range(2000):
            n = int(rng.integers(3, 300))
            x = rng.integers(0, int(rng.integers(2, 50)), n) * rng.normal()
            y = rng.normal(size=n) if trial % 3 else rng.integers(0, 5, n).astype(float)
            if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
                continue
            got = np.corrcoef(np.vstack([_average_ranks(x), _average_ranks(y)]))[1, 0]
            assert got == scipy_spearman(x, y), trial


class TestCollinearityPrune:
    def test_of_a_dependent_set_the_last_column_goes(self):
        rng = np.random.default_rng(5)
        a, b, noise = rng.normal(size=(3, 200))
        for names, cols in (
            (("a", "b", "sum"), (a, b, a + b)),
            (("sum", "a", "b"), (a + b, a, b)),
        ):
            fm = matrix_from(dict(zip(names, cols)) | {"noise": noise, "flat": np.ones(200)})
            out, report = collinearity_prune(fm)
            assert report.kept_columns == out.column_names == names[:2] + ("noise",)
            assert set(report.dropped_columns) == {names[2], "flat"}

    @pytest.mark.parametrize("feature_mode", ["statistical", "both"])
    @pytest.mark.parametrize("name", list(STAND_INS))
    def test_drops_what_the_pivoted_qr_dropped_on_the_stand_ins(self, name, feature_mode):
        # the catalog the pipeline prunes: the training span's, filtered
        cfg = PipelineConfig(feature_mode=feature_mode)
        series = make_oee_series(*STAND_INS[name])
        split = math.floor(len(series) * (1.0 - cfg.test_fraction))
        _, _, residual = causal_components(series.slice(0, split), cfg.periods)
        scale = fit_diagram_scale(residual, cfg.window) if feature_mode == "both" else None
        y, fm = aligned_features(cfg, residual, scale)
        fm, _ = variance_filter(fm)
        fm, _ = correlation_filter(fm, y.values)
        _, got = collinearity_prune(fm)
        _, want = qr_collinearity_prune(fm)
        assert want.dropped_columns  # the catalog holds an exact dependency
        assert got.kept_columns == want.kept_columns
        assert got.dropped_columns == want.dropped_columns


class TestRfe:
    def _informative_setup(self, seed, n=400, n_noise=6):
        rng = np.random.default_rng(seed)
        base = simulate(SarimaxSpec(p=1), n=n, seed=seed, ar=(0.5,))
        inf1 = rng.normal(0, 1, n)
        inf2 = rng.normal(0, 1, n)
        y = TimeSeries(base.values + 2.0 * inf1 + 2.0 * inf2)
        cols = {"inf1": inf1, "inf2": inf2}
        for k in range(n_noise):
            cols[f"noise{k}"] = rng.normal(0, 1, n)
        return y, matrix_from(cols)

    def test_informative_columns_survive(self):
        hits = 0
        for seed in range(5):
            y, fm = self._informative_setup(seed)
            out, report = rfe_sarimax(y, fm, SarimaxSpec(p=1), min_features=2)
            kept = set(out.column_names)
            if {"inf1", "inf2"} <= kept and all(
                report.metrics[n] <= 0.05 for n in out.column_names
            ):
                hits += 1
        assert hits >= 4

    def test_all_significant_is_single_pass_identity(self):
        rng = np.random.default_rng(10)
        n = 500
        x1, x2 = rng.normal(size=n), rng.normal(size=n)
        y = TimeSeries(3.0 * x1 - 2.0 * x2 + rng.normal(0, 0.5, n))
        fm = matrix_from({"x1": x1, "x2": x2})
        out, report = rfe_sarimax(y, fm, SarimaxSpec())
        assert out.column_names == ("x1", "x2")
        assert report.dropped_columns == {}

    def test_min_features_floor(self):
        rng = np.random.default_rng(11)
        n = 300
        cols = {f"n{k}": rng.normal(size=n) for k in range(6)}
        y = TimeSeries(rng.normal(size=n))
        out, _ = rfe_sarimax(y, fm := matrix_from(cols), SarimaxSpec(), min_features=3)
        assert out.n_cols >= 3

    def test_alignment_checked(self):
        fm = matrix_from({"a": np.arange(50.0)})
        with pytest.raises(ValueError, match="length"):
            rfe_sarimax(TimeSeries(np.arange(40.0)), fm, SarimaxSpec())


class TestPso:
    def _regression_setup(self, seed=0, n=300, n_candidates=20):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, n_candidates))
        beta = np.zeros(n_candidates)
        beta[:3] = 2.0
        y = TimeSeries(X @ beta + rng.normal(0, 1.0, n) + 10.0)
        names = tuple(f"c{k}" for k in range(n_candidates))
        return y, FeatureMatrix(names, X, tuple(range(n)))

    def test_recovers_informative_subset(self):
        y, fm = self._regression_setup()
        cfg = PsoConfig(swarm_size=14, max_iterations=40, runs=5, seed=3)
        res = pso_bic(y, fm, SarimaxSpec(), cfg)
        good_runs = 0
        informative = {"c0", "c1", "c2"}
        for r in res.per_run:
            sel = set(r["selected"])
            if informative <= sel and len(sel - informative) <= 2:
                good_runs += 1
        assert good_runs >= 4
        assert informative <= set(res.best_subset)

    def test_gbest_non_increasing(self):
        y, fm = self._regression_setup(seed=1, n_candidates=10)
        cfg = PsoConfig(swarm_size=8, max_iterations=25, runs=2, stability_threshold=2, seed=5)
        res = pso_bic(y, fm, SarimaxSpec(), cfg)
        for r in res.per_run:
            trace = r["gbest_trace"]
            assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_deterministic_for_seed(self):
        y, fm = self._regression_setup(seed=2, n_candidates=8)
        cfg = PsoConfig(swarm_size=6, max_iterations=15, runs=2, stability_threshold=2, seed=9)
        a = pso_bic(y, fm, SarimaxSpec(), cfg)
        b = pso_bic(y, fm, SarimaxSpec(), cfg)
        assert a.best_subset == b.best_subset
        assert [r["bic"] for r in a.per_run] == [r["bic"] for r in b.per_run]

    def test_best_subset_minimizes_over_runs(self):
        y, fm = self._regression_setup(seed=3, n_candidates=8)
        cfg = PsoConfig(swarm_size=6, max_iterations=12, runs=3, stability_threshold=3, seed=1)
        res = pso_bic(y, fm, SarimaxSpec(), cfg)
        best_bic = min(r["bic"] for r in res.per_run)
        chosen = [r for r in res.per_run if tuple(r["selected"]) == res.best_subset]
        assert any(r["bic"] == best_bic for r in chosen)

    def test_stable_subset_is_union_subset(self):
        y, fm = self._regression_setup(seed=4, n_candidates=8)
        cfg = PsoConfig(swarm_size=6, max_iterations=12, runs=3, stability_threshold=2, seed=2)
        res = pso_bic(y, fm, SarimaxSpec(), cfg)
        union = set().union(*(set(r["selected"]) for r in res.per_run))
        assert set(res.stable_subset) <= union

    def test_single_column_two_point_space(self):
        rng = np.random.default_rng(7)
        n = 300
        x = rng.normal(size=n)
        y = TimeSeries(3.0 * x + rng.normal(0, 0.5, n))
        fm = FeatureMatrix(("only",), x[:, None], tuple(range(n)))
        cfg = PsoConfig(swarm_size=4, max_iterations=5, runs=1, stability_threshold=1, seed=0)
        res = pso_bic(y, fm, SarimaxSpec(), cfg)
        assert res.best_subset == ("only",)  # informative column beats empty model


class TestReports:
    def test_partition_enforced(self):
        with pytest.raises(ValueError):
            SelectionReport("x", ("a", "b"), ("a", "b"), {"b": "dup"})

    def test_json_round_trip(self):
        rep = SelectionReport("stage", ("a", "b"), ("a",), {"b": "reason"}, {"a": 0.5})
        doc = json.loads(rep.to_json())
        assert doc["kept_columns"] == ["a"]

    def test_manifest_writes_non_finite_numbers_as_null(self, tmp_path):
        rep = SelectionReport("rfe_sarimax", ("a", "b"), ("a", "b"), {}, {"a": 0.01, "b": np.nan})
        pso = PsoResult(("a",), ("a",), ({"selected": ("a",), "bic": np.inf, "iterations": 2},))
        path = tmp_path / "manifest.json"
        write_manifest(path, ["a", "b"], [rep], pso)
        doc = strict_json(path.read_text())
        assert doc["stages"][0]["metrics"] == {"a": 0.01, "b": None}
        assert doc["pso"]["per_run"][0]["bic"] is None

    def test_manifest(self, tmp_path):
        rep = SelectionReport("stage", ("a", "b"), ("a",), {"b": "r"}, {})
        pso = PsoResult(("a",), ("a",), ({"selected": ("a",), "bic": 1.0, "iterations": 2},))
        path = tmp_path / "manifest.json"
        write_manifest(path, ["a"], [rep], pso)
        doc = json.loads(path.read_text())
        assert doc["final_columns"] == ["a"]
        assert doc["pso"]["best_subset"] == ["a"]
