import numpy as np
import pytest

from oracles import takens_embed


class TestTakens:
    def test_paper_window_shape(self):
        pc = takens_embed(np.arange(24.0), delay=8, dim=3)
        assert pc.points.shape == (8, 3)

    def test_identity_embedding(self):
        x = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        pc = takens_embed(x, delay=1, dim=1)
        assert pc.points.shape == (5, 1)
        assert np.array_equal(pc.points[:, 0], x)

    def test_coordinates_by_definition(self):
        pc = takens_embed(np.arange(10.0), delay=2, dim=2)
        assert pc.points.shape == (8, 2)
        assert tuple(pc.points[0]) == (0.0, 2.0)
        assert tuple(pc.points[-1]) == (7.0, 9.0)

    def test_too_short(self):
        with pytest.raises(ValueError):
            takens_embed(np.arange(10.0), delay=8, dim=3)

