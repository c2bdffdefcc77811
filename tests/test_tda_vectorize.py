import math

import numpy as np
import pytest

from oeeforecast.tda.persistence import PersistenceDiagram
from oeeforecast.tda.vectorize import (
    LIFETIME_STAT_NAMES,
    batch_bottleneck,
    batch_heat_norm,
    batch_landscape_norm,
    batch_lifetime_stats,
    batch_silhouette,
    batch_wasserstein,
)

from oracles import betti_curve, landscape, persistence_entropy


def diagram(pairs, dim=1, cap=None):
    """Diagram with all pairs in one homology dimension."""
    if pairs:
        b, d = zip(*pairs)
    else:
        b, d = (), ()
    cap = cap if cap is not None else (max(d) if d else 1.0)
    return PersistenceDiagram(
        births=np.asarray(b, dtype=float),
        deaths=np.asarray(d, dtype=float),
        dims=np.full(len(pairs), dim, dtype=int),
        max_filtration=cap,
    )


EMPTY = diagram([])


def one_row(pairs):
    """(births, deaths) of one diagram as the (1, pairs) arrays batch_* take."""
    arr = np.asarray(pairs, dtype=float).reshape(-1, 2)
    return arr[None, :, 0], arr[None, :, 1]


def grid(samples, t_range=(0.0, 1.0)):
    return np.linspace(*t_range, samples)


class TestPersistenceEntropy:
    def test_single_bar_zero(self):
        assert persistence_entropy(diagram([(0.0, 2.0)]), 1) == 0.0

    def test_two_equal_bars_ln2(self):
        h = persistence_entropy(diagram([(0.0, 1.0), (1.0, 2.0)]), 1)
        assert h == pytest.approx(math.log(2.0), abs=1e-12)

    def test_lifetimes_one_three(self):
        h = persistence_entropy(diagram([(0.0, 1.0), (0.0, 3.0)]), 1)
        want = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
        assert h == pytest.approx(want, abs=1e-12)
        assert h == pytest.approx(0.5623, abs=1e-4)

    def test_empty_and_degenerate_zero(self):
        assert persistence_entropy(EMPTY, 1) == 0.0
        assert persistence_entropy(diagram([(1.0, 1.0)]), 1) == 0.0

    def test_scale_invariance(self):
        from oracles import scale_diagram

        d = diagram([(0.0, 1.0), (0.5, 3.0), (1.0, 1.5)])
        assert persistence_entropy(scale_diagram(d, 7.5), 1) == pytest.approx(
            persistence_entropy(d, 1), abs=1e-12
        )


class TestAmplitudes:
    def test_bottleneck(self):
        assert batch_bottleneck(*one_row([]))[0] == 0.0
        assert batch_bottleneck(*one_row([(1.0, 3.0)]))[0] == pytest.approx(1.0)
        assert batch_bottleneck(*one_row([(0.0, 1.0), (0.0, 4.0)]))[0] == pytest.approx(2.0)

    def test_wasserstein(self):
        assert batch_wasserstein(*one_row([]), 2.0)[0] == 0.0
        assert batch_wasserstein(*one_row([(0.0, 2.0)]), 2.0)[0] == pytest.approx(math.sqrt(2.0))
        assert batch_wasserstein(*one_row([(0.0, 1.0), (0.0, 1.0)]), 2.0)[0] == pytest.approx(1.0)


class TestBettiCurve:
    def test_single_pair_indicator(self):
        # grid with midpoint exactly at t = 1
        out = betti_curve(diagram([(0.0, 2.0)]), 1, bins=1, t_range=(0.5, 1.5))
        assert out.tolist() == [1.0]

    def test_empty_zero_vector(self):
        assert betti_curve(EMPTY, 1, 10, (0.0, 1.0)).tolist() == [0.0] * 10

    def test_overlap_counts(self):
        d = diagram([(0.0, 1.0), (0.5, 2.0)])
        at_075 = betti_curve(d, 1, 1, (0.5, 1.0))  # midpoint 0.75
        at_150 = betti_curve(d, 1, 1, (1.0, 2.0))  # midpoint 1.5
        assert at_075.tolist() == [2.0]
        assert at_150.tolist() == [1.0]

    def test_matches_bruteforce_counts(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            pairs = [(b, b + life) for b, life in rng.uniform(0.0, 1.0, size=(6, 2))]
            d = diagram(pairs)
            bins = 7
            curve = betti_curve(d, 1, bins, (0.0, 2.0))
            mids = (np.arange(bins) + 0.5) * 2.0 / bins
            brute = [sum(1 for b, dd in pairs if b <= t < dd) for t in mids]
            assert curve.tolist() == [float(v) for v in brute]


class TestLandscape:
    def test_single_tent(self):
        lam = landscape(diagram([(0.0, 2.0)]), 1, layers=2, samples=21, t_range=(0.0, 2.0))
        grid = np.linspace(0.0, 2.0, 21)
        peak = int(np.argmax(lam[0]))
        assert grid[peak] == pytest.approx(1.0)
        assert lam[0][peak] == pytest.approx(1.0)
        assert np.all(lam[1] == 0.0)

    def test_empty_all_zero(self):
        lam = landscape(EMPTY, 1, 2, 10, (0.0, 1.0))
        assert np.all(lam == 0.0)

    def test_two_tents_cross(self):
        # at t=1.5 both (0,2) and (1,3) tents evaluate to 0.5
        lam = landscape(diagram([(0.0, 2.0), (1.0, 3.0)]), 1, 2, 3, (0.0, 3.0))
        assert lam[0][1] == pytest.approx(0.5)
        assert lam[1][1] == pytest.approx(0.5)

    def test_layer_monotonicity_property(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pairs = [(b, b + life) for b, life in rng.uniform(0.0, 1.0, size=(5, 2))]
            lam = landscape(diagram(pairs), 1, 4, 25, (0.0, 2.0))
            for k in range(3):
                assert np.all(lam[k] >= lam[k + 1] - 1e-12)


class TestLandscapeNorm:
    def test_zero_landscape(self):
        assert batch_landscape_norm(np.zeros((1, 2, 10)), 2.0, grid(10))[0] == 0.0

    def test_homogeneity(self):
        rng = np.random.default_rng(4)
        lam = np.abs(rng.normal(size=(1, 2, 30)))
        a = batch_landscape_norm(lam, 2.0, grid(30))[0]
        b = batch_landscape_norm(3.0 * lam, 2.0, grid(30))[0]
        assert b == pytest.approx(3.0 * a)

    def test_single_tent_area(self):
        lam = landscape(diagram([(0.0, 2.0)]), 1, 1, 2001, (0.0, 2.0))
        # tent of height 1 over base 2 has area exactly 1
        area = batch_landscape_norm(lam[None], 1.0, grid(2001, (0.0, 2.0)))[0]
        assert area == pytest.approx(1.0, abs=1e-6)


class TestSilhouette:
    def test_single_pair_is_its_tent(self):
        s = batch_silhouette(*one_row([(0.0, 2.0)]), 1.0, grid(21, (0.0, 2.0)))[0]
        lam = landscape(diagram([(0.0, 2.0)]), 1, 1, 21, (0.0, 2.0))
        assert np.allclose(s, lam[0])

    def test_alpha_zero_uniform_average(self):
        t = grid(31, (0.0, 3.0))
        s = batch_silhouette(*one_row([(0.0, 2.0), (1.0, 3.0)]), 0.0, t)[0]
        t1 = np.maximum(0.0, np.minimum(t - 0.0, 2.0 - t))
        t2 = np.maximum(0.0, np.minimum(t - 1.0, 3.0 - t))
        assert np.allclose(s, (t1 + t2) / 2.0)

    def test_weighted_hand_value(self):
        # pairs (0,2) and (0,4), alpha=1, t=1: (2*1 + 4*1) / 6 = 1
        s = batch_silhouette(*one_row([(0.0, 2.0), (0.0, 4.0)]), 1.0, grid(5, (0.0, 4.0)))[0]
        assert s[1] == pytest.approx(1.0)  # grid point t=1

    def test_empty_zero(self):
        assert np.all(batch_silhouette(*one_row([]), 1.0, grid(10))[0] == 0.0)


class TestHeatKernel:
    def test_empty_zero(self):
        assert batch_heat_norm(*one_row([]), 0.1, grid(64))[0] == 0.0

    def test_single_pair_against_quadrature_oracle(self):
        # closed-form Gaussian integrated on an independent fine grid
        sigma = 0.15
        got = batch_heat_norm(*one_row([(0.2, 0.8)]), sigma, grid(4001, (-3.0, 4.0)))[0]
        ts = np.linspace(-3.0, 4.0, 20001)
        f = np.exp(-((ts - 0.5) ** 2) / (4 * sigma**2)) / math.sqrt(4 * math.pi * sigma**2)
        want = math.sqrt(np.trapezoid(f * f, ts))
        assert got == pytest.approx(want, rel=1e-6)

    def test_two_identical_pairs_double_pointwise(self):
        a = batch_heat_norm(*one_row([(0.0, 1.0)]), 0.1, grid(501))[0]
        b = batch_heat_norm(*one_row([(0.0, 1.0), (0.0, 1.0)]), 0.1, grid(501))[0]
        assert b == pytest.approx(2.0 * a, rel=1e-12)


def lifetime_stats(pairs):
    return dict(zip(LIFETIME_STAT_NAMES, batch_lifetime_stats(*one_row(pairs))[0]))


class TestLifetimeStats:
    def test_hand_values(self):
        s = lifetime_stats([(0.0, 1.0), (1.0, 4.0)])
        assert s["sum"] == pytest.approx(4.0)
        assert s["mean"] == pytest.approx(2.0)
        assert s["max"] == pytest.approx(3.0)
        assert s["min"] == pytest.approx(1.0)

    def test_empty_zeros(self):
        s = lifetime_stats([])
        assert all(v == 0.0 for v in s.values())

    def test_random_pairs_match_recomputation(self):
        rng = np.random.default_rng(5)
        pairs = [(b, b + life) for b, life in rng.uniform(0.0, 2.0, size=(100, 2))]
        s = lifetime_stats(pairs)
        life = np.array([d - b for b, d in pairs])
        assert s["sum"] == pytest.approx(life.sum(), abs=1e-12)
        assert s["mean"] == pytest.approx(life.mean(), abs=1e-12)
        assert s["median"] == pytest.approx(np.median(life), abs=1e-12)
        assert s["variance"] == pytest.approx(np.var(life), abs=1e-12)
        assert s["std"] == pytest.approx(np.std(life), abs=1e-12)
