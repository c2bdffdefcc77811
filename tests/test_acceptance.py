"""Acceptance gate: one test per release criterion, one PASS line each.

Criteria 9 and 10 reference the published equipment datasets, which are not
bundled; they run on deterministic stand-ins of the same shape, and the
real-data assertion of criterion 10 activates when OEE_DATA_DIR points at
the published CSVs (gh2.csv / gm2.csv with a 'value' column).
"""

import csv
import hashlib
import json
import math
import os
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from oeeforecast.decompose import decompose
from oeeforecast.feature_matrix import FeatureMatrix
from oeeforecast.pipeline import (
    DecomposedStrategy,
    PipelineConfig,
    benchmark,
    benchmark_to_csv,
)
from oeeforecast.sarimax import SarimaxSpec, fit, simulate
from oeeforecast.selection import PsoConfig, pso_bic, rfe_sarimax
from oeeforecast.series import TimeSeries, load_csv
from oeeforecast.stat_features import extract_stat_features
from oeeforecast.tda.extract import extract_tda_features, fit_diagram_scale
from oeeforecast.tda.persistence import PersistenceDiagram, PointCloud, vr_persistence

from conftest import STAND_INS, make_oee_series
from oracles import (
    betti_curve,
    bruteforce_rips_diagram,
    diagrams_equal,
    landscape,
    leakage_audit,
    persistence_entropy,
    prim_mst_weights,
    reconstruct,
    takens_embed,
)


def announce(num, name):
    print(f"\nACCEPTANCE {num} ({name}): PASS")


def random_diagram(rng, n_pairs=6):
    b = rng.uniform(0.0, 1.0, n_pairs)
    d = b + rng.uniform(0.0, 1.0, n_pairs)
    return PersistenceDiagram(b, d, np.ones(n_pairs, dtype=int), float(d.max()))


def test_criterion_01_persistence_oracle_equivalence():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    for _ in range(50):
        n = int(rng.integers(3, 11))
        cloud = PointCloud(rng.normal(size=(n, 3)))
        diagram = vr_persistence(cloud)
        assert diagrams_equal(diagram, bruteforce_rips_diagram(cloud.points), tol=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    announce(1, "persistence oracle equivalence, 50 clouds")


def test_criterion_02_mst_property():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    for _ in range(20):
        n = int(rng.integers(3, 12))
        cloud = PointCloud(rng.normal(size=(n, 3)))
        diagram = vr_persistence(cloud)
        _, deaths = diagram.restricted(0)
        finite = np.sort(deaths)[:-1]  # all but the capped essential bar
        assert np.allclose(finite, prim_mst_weights(cloud.points), atol=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    announce(2, "H0 deaths equal MST weights, 20 clouds")


def test_criterion_03_vectorizer_identities():
    single = PersistenceDiagram(np.array([0.0]), np.array([2.0]), np.array([1]), 2.0)
    equal2 = PersistenceDiagram(
        np.array([0.0, 1.0]), np.array([1.0, 2.0]), np.array([1, 1]), 2.0
    )
    assert abs(persistence_entropy(single, 1) - 0.0) <= 1e-12
    assert abs(persistence_entropy(equal2, 1) - math.log(2.0)) <= 1e-12

    rng = np.random.default_rng(3)
    for _ in range(20):
        d = random_diagram(rng)
        bins = 9
        lo, hi = 0.0, float(d.deaths.max()) * 1.1
        curve = betti_curve(d, 1, bins, (lo, hi))
        mids = lo + (np.arange(bins) + 0.5) * (hi - lo) / bins
        brute = [
            sum(1 for b, dd in zip(d.births, d.deaths) if b <= t < dd) for t in mids
        ]
        assert curve.tolist() == [float(v) for v in brute]

    for _ in range(20):
        d = random_diagram(rng)
        lam = landscape(d, 1, layers=4, samples=40, t_range=(0.0, 2.0))
        for k in range(3):
            assert np.all(lam[k] >= lam[k + 1] - 1e-12)
    announce(3, "entropy identities, Betti counts, landscape monotonicity")


def test_criterion_04_decomposition_identity():
    rng = np.random.default_rng(11)
    for _ in range(100):
        ts = TimeSeries(rng.normal(25.0, 8.0, 400))
        d = decompose(ts, periods=(8, 24))
        assert np.max(np.abs(reconstruct(d).values - ts.values)) < 1e-9

    # sine-composite synthetics: per-period residual phase means ~ 0 over
    # the estimation span (complete moving-average windows; the truncated
    # edge windows carry extra variance unrelated to seasonal capture)
    t = np.arange(672)
    edge = 12
    for seed in range(3):
        noise = np.random.default_rng(seed).normal(0.0, 1.0, t.size)
        y = 20.0 + 5.0 * np.sin(2 * np.pi * t / 24.0) + 2.5 * np.sin(2 * np.pi * t / 8.0) + noise
        d = decompose(TimeSeries(y), periods=(8, 24))
        resid = d.residual.values[edge:-edge]
        bound = 0.05 * np.std(resid)
        for p in (8, 24):
            phase_means = [abs(np.mean(resid[(ph - edge) % p :: p])) for ph in range(p)]
            assert max(phase_means) < bound
    announce(4, "reconstruction to 1e-9 and seasonal capture")


def test_criterion_05_sarimax_recovery():
    start = time.perf_counter()
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        n = 2000
        x = rng.normal(0.0, 1.5, n)
        base = simulate(SarimaxSpec(p=1), n=n, seed=seed, ar=(0.6,))
        y = TimeSeries(base.values + 2.0 * x)
        f = fit(y, SarimaxSpec(p=1), exog=x[:, None], n_restarts=1)
        beta = f.exog_beta[0] / f.exog_scale[0]  # in x's natural units
        ok = (
            0.5 <= f.ar[0] <= 0.7
            and abs(beta - 2.0) / 2.0 < 0.05
            and f.pvalue_of("x1") < 0.01
        )
        hits += ok
    elapsed = time.perf_counter() - start
    assert hits >= 18, f"only {hits}/20 seeds recovered"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    announce(5, f"AR+exog recovery in {hits}/20 seeds, {elapsed:.1f}s")


def test_criterion_06_bic_order_selection():
    correct = 0
    for seed in range(20):
        ts = simulate(
            SarimaxSpec(p=1, P=1, s=8), n=600, seed=2000 + seed, ar=(0.55,), sar=(0.45,)
        )
        best, best_bic = None, math.inf
        for p in (0, 1, 2):
            for P in (0, 1):
                f = fit(ts, SarimaxSpec(p=p, P=P, s=8), n_restarts=1)
                if f.bic < best_bic:
                    best, best_bic = (p, P), f.bic
        correct += best == (1, 1)
    assert correct >= 16, f"true order chosen in only {correct}/20 seeds"
    announce(6, f"BIC grid picks the true order in {correct}/20 seeds")


def test_criterion_07_rfe_correctness():
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        n = 500
        base = simulate(SarimaxSpec(p=1), n=n, seed=seed, ar=(0.5,))
        inf1, inf2 = rng.normal(size=n), rng.normal(size=n)
        y = TimeSeries(base.values + 2.0 * inf1 + 2.0 * inf2)
        cols = {"inf1": inf1, "inf2": inf2}
        for k in range(10):
            cols[f"noise{k}"] = rng.normal(size=n)
        fm = FeatureMatrix(
            tuple(cols), np.column_stack(list(cols.values())), tuple(range(n))
        )
        out, report = rfe_sarimax(y, fm, SarimaxSpec(p=1), alpha=0.05, min_features=2)
        kept = set(out.column_names)
        ok = {"inf1", "inf2"} <= kept and all(
            report.metrics[name] <= 0.05 for name in out.column_names
        )
        hits += ok
    assert hits >= 18, f"only {hits}/20 seeds"
    announce(7, f"RFE keeps informative regressors in {hits}/20 seeds")


def test_criterion_08_pso_selection():
    rng = np.random.default_rng(4000)
    n, n_candidates = 300, 20
    X = rng.normal(size=(n, n_candidates))
    beta = np.zeros(n_candidates)
    beta[:3] = 2.0
    y = TimeSeries(X @ beta + rng.normal(0.0, 1.0, n) + 10.0)
    fm = FeatureMatrix(
        tuple(f"c{k}" for k in range(n_candidates)), X, tuple(range(n))
    )
    cfg = PsoConfig(swarm_size=14, max_iterations=40, runs=5, stability_threshold=3, seed=8)
    res = pso_bic(y, fm, SarimaxSpec(), cfg)

    informative = {"c0", "c1", "c2"}
    good_runs = 0
    for r in res.per_run:
        sel = set(r["selected"])
        if informative <= sel and len(sel - informative) <= 2:
            good_runs += 1
        trace = r["gbest_trace"]
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:])), "gbest increased"
    assert good_runs >= 4, f"only {good_runs}/5 runs recovered the subset"
    announce(8, f"PSO recovers the informative subset in {good_runs}/5 runs")


def _standin(name):
    n, seed = STAND_INS[name]
    return make_oee_series(n, seed=seed, name=name)


def test_criterion_09_leakage_audit():
    modes = {"gh2": "statistical", "h2": "topological", "gm2": "none"}
    for name, mode in modes.items():
        series = _standin(name)
        split = int(len(series) * 0.8)

        # feature-row probe
        if mode == "statistical":
            builder = lambda ts: extract_stat_features(ts, 24)
        elif mode == "topological":
            scale = fit_diagram_scale(series.slice(0, split))
            builder = lambda ts: extract_tda_features(ts, scale=scale)
        else:
            builder = lambda ts: extract_stat_features(ts, 24)
        fm = builder(series)
        assert leakage_audit(fm, split, builder=builder, source=series), f"{name} rows leak"

        # forecast probe at the first origin: rewriting post-split values
        # must not move the forecast issued from the training span
        cfg = PipelineConfig(
            periods=(8, 24, 168),
            horizon=4,
            test_fraction=0.2,
            feature_mode=mode,
            sarimax_spec=SarimaxSpec(p=2, q=0, P=1, Q=1, s=8),
            seed=0,
        )
        train = series.slice(0, split)
        strat_a = DecomposedStrategy(cfg)
        strat_a.refit(train)
        fc_a = strat_a.forecast(train, 4)

        mutated = series.values.copy()
        mutated[split:] = np.clip(mutated[split:] * 0.3 + 20.0, 1.0, 60.0)
        mut_train = TimeSeries(mutated, series.start, series.name).slice(0, split)
        strat_b = DecomposedStrategy(cfg)
        strat_b.refit(mut_train)
        fc_b = strat_b.forecast(mut_train, 4)
        assert np.array_equal(np.asarray(fc_a), np.asarray(fc_b)), f"{name} forecast leaks"
    announce(9, "perturbation probes pass on all three stand-in datasets")


def _tda_informed_series(n=560, seed=5):
    """Residual whose next value is driven by the loop geometry of its own
    recent window: a signal topological features can see but a linear ARMA
    cannot represent."""
    rng = np.random.default_rng(seed)
    r = np.zeros(n)
    r[:24] = rng.normal(0.0, 1.0, 24)
    phase = np.sin(2 * np.pi * np.arange(n) / 6.0)
    for t in range(24, n):
        window = r[t - 24 : t]
        cloud = takens_embed(window, 8, 3)
        b, d = vr_persistence(cloud).restricted(1)
        life = d - b
        loopiness = float(life.max()) if life.size else 0.0
        regime = 3.5 if (t // 60) % 2 == 0 else 0.0
        r[t] = regime * phase[t] + 1.5 * loopiness + rng.normal(0.0, 0.8)
    t = np.arange(n)
    y = 28.0 + 6.0 * np.sin(2 * np.pi * t / 24.0) + r
    return TimeSeries(np.clip(y, 1.0, 60.0), name="tda_informed")


def test_criterion_10_paper_direction_reproduction():
    data_dir = os.environ.get("OEE_DATA_DIR")
    cfg = PipelineConfig(
        periods=(8, 24, 168),
        horizon=4,
        test_fraction=0.2,
        sarimax_spec=SarimaxSpec(p=4, q=0, P=1, Q=1, s=8),
        refit_interval=24,
        seed=0,
    )
    if data_dir:
        for name, spec in (
            ("gh2", SarimaxSpec(p=4, q=0, P=1, Q=1, s=8)),
            ("gm2", SarimaxSpec(p=2, q=0, P=2, Q=1, s=8)),
        ):
            start = time.perf_counter()
            path = os.path.join(data_dir, f"{name}.csv")
            series = load_csv(path, "value", name=name)
            base_cfg = PipelineConfig(
                periods=cfg.periods,
                horizon=4,
                test_fraction=0.2,
                sarimax_spec=spec,
                refit_interval=24,
                seed=0,
            )
            reports = benchmark(
                base_cfg,
                series=series,
                models=("decomposed_sarima", "decomposed_sarimax_topological"),
            )
            plain, topo = reports
            assert topo.mae <= 0.85 * plain.mae, (
                f"{name}: topological MAE {topo.mae:.3f} not 15% below {plain.mae:.3f}"
            )
            assert time.perf_counter() - start < 1800.0
        announce(10, "topological model beats plain by >= 15% on the published data")
    else:
        # non-gating proxy on a construction where window topology carries
        # genuine signal: require the directional win before skipping
        series = _tda_informed_series()
        proxy_cfg = PipelineConfig(
            periods=(8, 24),
            horizon=4,
            test_fraction=0.15,
            sarimax_spec=SarimaxSpec(p=2, q=0, P=1, Q=0, s=8),
            refit_interval=24,
            seed=0,
        )
        reports = benchmark(
            proxy_cfg,
            series=series,
            models=("decomposed_sarima", "decomposed_sarimax_topological"),
        )
        plain, topo = reports
        print(
            f"\n  proxy: decomposed_sarima MAE {plain.mae:.3f} vs topological {topo.mae:.3f}"
        )
        assert topo.mae < plain.mae, "topological features gave no edge on the proxy"
        pytest.skip(
            "published GH2/GM2 CSVs unavailable in this environment "
            "(set OEE_DATA_DIR to run the 15% criterion); directional proxy passed: "
            f"topological {topo.mae:.3f} < plain {plain.mae:.3f}"
        )


def test_criterion_11_benchmark_determinism(tmp_path):
    series = _standin("gh2")
    cfg = PipelineConfig(
        periods=(8, 24),
        horizon=4,
        test_fraction=0.1,
        sarimax_spec=SarimaxSpec(p=2, q=0, P=1, Q=1, s=8),
        seed=0,
    )
    models = ("seasonal_naive", "sarima_raw", "decomposed_sarima")
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    benchmark_to_csv(benchmark(cfg, series=series, models=models), out1)
    benchmark_to_csv(benchmark(cfg, series=series, models=models), out2)
    assert out1.read_bytes() == out2.read_bytes()
    announce(11, "benchmark CSV byte-identical across reruns")


def test_criterion_12_service_contract(tmp_path):
    from oeeforecast.service import load_registry, serve

    files = {}
    for eid, seed in (("a1", 31), ("b2", 32)):
        path = tmp_path / f"{eid}.csv"
        series = make_oee_series(420, seed=seed)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["value"])
            for v in series.values:
                w.writerow([repr(float(v))])
        files[eid] = path
    reg = tmp_path / "registry.conf"
    reg.write_text(
        "\n".join(
            f"{eid}.dataset = {p}\n{eid}.periods = 8,24\n"
            f"{eid}.test_fraction = 0.15\n{eid}.sarimax_spec = 2,0,0,1,0,1,8"
            for eid, p in files.items()
        )
    )
    server = serve(load_registry(reg), port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        with urllib.request.urlopen(f"{base}/equipment", timeout=120) as resp:
            listing = json.loads(resp.read())
        assert {e["id"] for e in listing["equipment"]} == {"a1", "b2"}

        with urllib.request.urlopen(f"{base}/equipment/a1/forecast?horizon=4", timeout=120) as resp:
            doc = json.loads(resp.read())
        assert set(doc) == {"id", "origin", "horizon", "values", "model_label", "mae_backtest"}
        assert all(1.0 <= v <= 60.0 for v in doc["values"])

        with urllib.request.urlopen(f"{base}/equipment/b2/decomposition", timeout=120) as resp:
            dec = json.loads(resp.read())
        assert set(dec["components"]) == {"trend", "seasonal_8", "seasonal_24", "residual"}

        try:
            urllib.request.urlopen(f"{base}/equipment/X9/forecast", timeout=120)
            raise AssertionError("unknown id did not 404")
        except urllib.error.HTTPError as err:
            assert err.code == 404

        before = {k: hashlib.sha256(p.read_bytes()).hexdigest() for k, p in files.items()}
        for i in range(100):
            eid = ("a1", "b2")[i % 2]
            leaf = ("forecast?horizon=3", "decomposition")[i % 2]
            urllib.request.urlopen(f"{base}/equipment/{eid}/{leaf}", timeout=120).read()
        after = {k: hashlib.sha256(p.read_bytes()).hexdigest() for k, p in files.items()}
        assert before == after
    finally:
        server.shutdown()
        server.server_close()
    announce(12, "service contract holds and files stay untouched")
