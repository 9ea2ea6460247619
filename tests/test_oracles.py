"""Checks of the oracles themselves: the scalar ones against closed-form
values, the graph references against their definitions and finite
differences."""

import numpy as np
import pytest

from sadnet.gradcheck import _proj_loss, finite_diff_check
from sadnet.tensor import Tensor

from oracles import add, bilinear_sample, leaky_relu, scale, total


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


class TestGraphReferences:
    def test_leaky_relu_definition(self):
        x = Tensor(np.array(-1.0).reshape(1, 1, 1, 1))
        assert leaky_relu(x, 0.2).item() == pytest.approx(-0.2)
        x = Tensor(np.array(3.0).reshape(1, 1, 1, 1))
        assert leaky_relu(x, 0.2).item() == 3.0

    @pytest.mark.parametrize("slope", [0.0, 0.05, 0.2, 1.0])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leaky_relu_is_the_select_bit_for_bit(self, rng, slope, dtype):
        # max(x, slope*x) against where(x >= 0, x, slope*x), signed zeros,
        # NaN and huge values included
        x = rng.standard_normal((2, 3, 8, 8)).astype(dtype) * 1e3
        x.flat[:6] = [0.0, -0.0, np.nan, 1e-40, -1e-40,
                      np.finfo(dtype).min]
        gy = rng.standard_normal(x.shape).astype(dtype)
        t = Tensor(x, requires_grad=True)
        y = leaky_relu(t, slope)
        _proj_loss(y, gy).backward()
        mask = x >= 0
        ref = np.where(mask, x, slope * x)
        assert y.data.dtype == t.grad.dtype == dtype
        assert y.data.tobytes() == ref.tobytes()
        assert t.grad.tobytes() == np.where(mask, gy, slope * gy).tobytes()

    def test_add_gives_independent_grads(self, rng):
        # a collects a second gradient after add's; b must not see it
        for first_add in (True, False):
            a = Tensor(rng.standard_normal((1, 2, 3, 3)), requires_grad=True)
            b = Tensor(rng.standard_normal((1, 2, 3, 3)), requires_grad=True)
            terms = [add(a, b), scale(a, 2.0)]
            if not first_add:
                terms.reverse()
            total(add(*terms)).backward()
            np.testing.assert_array_equal(a.grad, np.full(a.shape, 3.0))
            np.testing.assert_array_equal(b.grad, np.ones_like(b.data))
            assert not np.shares_memory(a.grad, b.grad)

    def test_finite_differences(self, rng):
        # off the kink at 0: |x| >= 0.1
        x = Tensor(rng.uniform(0.1, 2.0, (2, 4, 5, 5))
                   * rng.choice([-1.0, 1.0], (2, 4, 5, 5)), requires_grad=True)
        c = Tensor(rng.standard_normal(x.shape), requires_grad=True)
        proj = rng.standard_normal(x.shape)
        for name, build, tensors in (
                ("leaky_relu", lambda: leaky_relu(x, 0.2), [x]),
                ("add", lambda: add(x, c), [x, c]),
                ("scale", lambda: scale(x, -1.5), [x])):
            result = finite_diff_check(
                name, lambda build=build: _proj_loss(build(), proj), tensors)
            assert result.passed, result.line()
