import math

import numpy as np
import pytest

from oeeforecast.pipeline import causal_components
from oeeforecast.tda.extract import _embedded_windows
from oeeforecast.tda.persistence import PersistenceDiagram, PointCloud, vr_persistence

from conftest import STAND_INS, make_oee_series
from oracles import (
    bruteforce_rips_diagram,
    diagrams_equal,
    prim_mst_weights,
    scale_diagram,
    simplex_list_vr_persistence,
)


def h_pairs(diagram, dim):
    b, d = diagram.restricted(dim)
    return sorted(zip(b.tolist(), d.tolist()))


class TestPointCloud:
    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            PointCloud(np.empty((0, 3)))
        with pytest.raises(ValueError):
            PointCloud(np.array([[1.0, np.inf]]))

    def test_one_dim_promotion(self):
        pc = PointCloud(np.array([1.0, 2.0, 3.0]))
        assert pc.points.shape == (3, 1)


class TestVrKnownShapes:
    def test_unit_square_loop(self):
        square = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
        d = vr_persistence(square)
        loops = h_pairs(d, 1)
        assert len(loops) == 1
        birth, death = loops[0]
        assert birth == pytest.approx(1.0, abs=1e-12)
        assert death == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_equilateral_triangle_no_loop(self):
        tri = PointCloud(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2.0]])
        )
        d = vr_persistence(tri)
        assert h_pairs(d, 1) == []

    def test_h0_count_equals_point_count(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 5, 9):
            cloud = PointCloud(rng.normal(size=(n, 3)))
            d = vr_persistence(cloud)
            assert d.restricted(0)[0].size == n

    def test_h0_finite_deaths_are_mst_weights(self):
        rng = np.random.default_rng(1)
        cloud = PointCloud(rng.normal(size=(8, 3)))
        d = vr_persistence(cloud)
        _, deaths = d.restricted(0)
        finite = np.sort(deaths)[:-1]  # essential bar is the diameter cap
        assert np.allclose(finite, prim_mst_weights(cloud.points), atol=1e-12)

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            vr_persistence(PointCloud(np.array([[0.0, 0.0]])))


class TestVrOracleEquivalence:
    def test_random_clouds_match_bruteforce(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(3, 11))
            cloud = PointCloud(rng.normal(size=(n, 3)))
            d = vr_persistence(cloud)
            assert diagrams_equal(d, bruteforce_rips_diagram(cloud.points))

    def test_clustered_clouds_match_bruteforce(self):
        # near-duplicate points stress tie handling
        rng = np.random.default_rng(8)
        for _ in range(5):
            base = rng.normal(size=(4, 3))
            cloud = PointCloud(np.vstack([base, base + rng.normal(0, 1e-3, base.shape)]))
            d = vr_persistence(cloud)
            assert diagrams_equal(d, bruteforce_rips_diagram(cloud.points), tol=1e-12)

    def test_circle_sample_has_prominent_loop(self):
        theta = np.linspace(0.0, 2.0 * np.pi, 9)[:-1]
        cloud = PointCloud(np.column_stack([np.cos(theta), np.sin(theta)]))
        d = vr_persistence(cloud)
        b, dd = d.restricted(1)
        life = dd - b
        assert life.size >= 1
        assert life.max() > 0.5


def assert_same_bytes(cloud):
    got, want = vr_persistence(cloud), simplex_list_vr_persistence(cloud)
    for name in ("births", "deaths", "dims"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.max_filtration == want.max_filtration


class TestSimplexListOracle:
    """Byte-level equivalence with the simplex-list reduction, tie order
    included: rounding, grids and constants make tied edges and triangles,
    and duplicate points make zero-length edges."""

    @pytest.mark.parametrize("n", range(2, 26))
    def test_seeded_clouds(self, n):
        rng = np.random.default_rng(n)
        for _ in range(4):
            normal = rng.normal(size=(n, 3))
            assert_same_bytes(PointCloud(normal))
            assert_same_bytes(PointCloud(np.round(normal, 1)))
            assert_same_bytes(PointCloud(rng.integers(0, 3, size=(n, 2)).astype(float)))
            assert_same_bytes(PointCloud(np.full((n, 3), rng.normal())))

    @pytest.mark.parametrize("window", [18, 24, 30])
    @pytest.mark.parametrize("name", sorted(STAND_INS))
    def test_stand_in_windows(self, name, window):
        n, seed = STAND_INS[name]
        _, _, residual = causal_components(make_oee_series(n, seed=seed, name=name), (8, 24, 168))
        for pts in _embedded_windows(residual.values, window):
            assert_same_bytes(PointCloud(pts))


class TestInvariances:
    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(7, 3))
        d0 = vr_persistence(PointCloud(pts))
        d1 = vr_persistence(PointCloud(pts + 100.0))
        assert np.allclose(d0.births, d1.births, atol=1e-9)
        assert np.allclose(d0.deaths, d1.deaths, atol=1e-9)

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(7, 3))
        d0 = vr_persistence(PointCloud(pts))
        d2 = vr_persistence(PointCloud(2.0 * pts))
        assert np.allclose(2.0 * d0.births, d2.births, atol=1e-9)
        assert np.allclose(2.0 * d0.deaths, d2.deaths, atol=1e-9)


class TestScaleDiagram:
    def test_normalizes_to_unit_range(self):
        rng = np.random.default_rng(5)
        d = vr_persistence(PointCloud(rng.normal(size=(6, 2))))
        s = scale_diagram(d, d.max_filtration)
        assert s.deaths.max() <= 1.0 + 1e-12
        assert s.max_filtration == pytest.approx(1.0)

    def test_identity_scale(self):
        rng = np.random.default_rng(6)
        d = vr_persistence(PointCloud(rng.normal(size=(5, 2))))
        s = scale_diagram(d, 1.0)
        assert np.array_equal(s.births, d.births)
        assert np.array_equal(s.deaths, d.deaths)

    def test_arithmetic(self):
        d = PersistenceDiagram(
            births=np.array([1.0]), deaths=np.array([math.sqrt(2.0)]),
            dims=np.array([1]), max_filtration=2.0,
        )
        s = scale_diagram(d, 2.0)
        assert s.births[0] == pytest.approx(0.5)
        assert s.deaths[0] == pytest.approx(math.sqrt(2.0) / 2.0)

    def test_bad_scale(self):
        d = PersistenceDiagram(np.array([]), np.array([]), np.array([], dtype=int), 1.0)
        with pytest.raises(ValueError):
            scale_diagram(d, 0.0)
