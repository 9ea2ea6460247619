"""Checks of the scalar oracles themselves against closed-form values."""

import pytest

from oracles import bilinear_sample


class TestBilinearSample:
    def test_grid_node(self, rng):
        f = rng.standard_normal((2, 3, 5, 5))
        assert bilinear_sample(f, 2.0, 3.0, 1, 2) == pytest.approx(f[1, 2, 2, 3])

    def test_horizontal_midpoint(self, rng):
        f = rng.standard_normal((1, 1, 4, 4))
        expected = (f[0, 0, 1, 1] + f[0, 0, 1, 2]) / 2
        assert bilinear_sample(f, 1.0, 1.5, 0, 0) == pytest.approx(expected)

    def test_fully_out_of_bounds(self, rng):
        f = rng.standard_normal((1, 1, 4, 4))
        assert bilinear_sample(f, -5.0, -5.0, 0, 0) == 0.0

    def test_boundary_fade(self, rng):
        # halfway past the last row: only the in-bounds pixel contributes
        f = rng.standard_normal((1, 1, 4, 4))
        assert bilinear_sample(f, 3.5, 2.0, 0, 0) == pytest.approx(0.5 * f[0, 0, 3, 2])
