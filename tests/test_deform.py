import warnings

import numpy as np
import pytest

from sadnet import tensor as T
from sadnet.deform import modulated_deform_conv2d
from sadnet.errors import ConfigurationError
from sadnet.gradcheck import _proj_loss, finite_diff_check
from sadnet.tensor import Tensor

from oracles import deform_conv_reference, deform_conv_vjp_reference, total


def zero_offsets(n, k_taps, oh, ow):
    return Tensor(np.zeros((n, 2 * k_taps, oh, ow)))


def unit_masks(n, k_taps, oh, ow):
    return Tensor(np.ones((n, k_taps, oh, ow)))


class TestModulatedDeformConv:
    def test_reduces_to_conv2d(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 6, 6)))
        w = Tensor(rng.standard_normal((4, 3, 3, 3)))
        b = Tensor(rng.standard_normal((1, 4, 1, 1)))
        y = modulated_deform_conv2d(x, w, b, zero_offsets(2, 9, 6, 6),
                                    unit_masks(2, 9, 6, 6), (1, 1))
        ref = T.conv2d(x, w, b, padding=(1, 1))
        assert np.max(np.abs(y.data - ref.data)) < 1e-6

    def test_zero_masks_give_bias(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        w = Tensor(rng.standard_normal((3, 2, 3, 3)))
        b = Tensor(rng.standard_normal((1, 3, 1, 1)))
        masks = Tensor(np.zeros((1, 9, 4, 4)))
        y = modulated_deform_conv2d(x, w, b, zero_offsets(1, 9, 4, 4), masks, (1, 1))
        np.testing.assert_allclose(y.data, np.broadcast_to(b.data, y.shape))

    def test_uniform_half_pixel_offset_matches_reference(self, rng):
        x = rng.standard_normal((1, 2, 5, 5))
        w = rng.standard_normal((1, 2, 3, 3))
        b = rng.standard_normal((1, 1, 1, 1))
        offsets = np.zeros((1, 18, 5, 5))
        offsets[:, 1::2] = 0.5  # (dy, dx) = (0, +0.5) at every tap
        masks = rng.uniform(0.2, 1.0, (1, 9, 5, 5))
        y = modulated_deform_conv2d(Tensor(x), Tensor(w), Tensor(b),
                                    Tensor(offsets), Tensor(masks), (1, 1))
        ref = deform_conv_reference(x, w, b.reshape(1, 1, 1, 1), offsets, masks)
        np.testing.assert_allclose(y.data, ref, rtol=1e-6, atol=1e-9)

    def test_random_fractional_offsets_match_reference(self, rng):
        x = rng.standard_normal((2, 2, 4, 4))
        w = rng.standard_normal((3, 2, 3, 3))
        offsets = rng.uniform(-1.5, 1.5, (2, 18, 4, 4))
        masks = rng.uniform(0.0, 1.0, (2, 9, 4, 4))
        y = modulated_deform_conv2d(Tensor(x), Tensor(w), None,
                                    Tensor(offsets), Tensor(masks), (1, 1))
        ref = deform_conv_reference(x, w, None, offsets, masks)
        np.testing.assert_allclose(y.data, ref, rtol=1e-6, atol=1e-9)

    def test_shift_consistency(self, rng):
        # uniform (0, +1) offset equals conv2d of the input shifted one
        # pixel left, on interior output pixels
        x = rng.standard_normal((1, 2, 6, 6))
        w = Tensor(rng.standard_normal((2, 2, 3, 3)))
        offsets = np.zeros((1, 18, 6, 6))
        offsets[:, 1::2] = 1.0
        y = modulated_deform_conv2d(Tensor(x), w, None, Tensor(offsets),
                                    unit_masks(1, 9, 6, 6), (1, 1))
        shifted = np.zeros_like(x)
        shifted[:, :, :, :-1] = x[:, :, :, 1:]
        ref = T.conv2d(Tensor(shifted), w, padding=(1, 1))
        np.testing.assert_allclose(y.data[:, :, 1:-1, 1:-2],
                                   ref.data[:, :, 1:-1, 1:-2],
                                   rtol=1e-6, atol=1e-9)

    def test_modulation_linearity(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        w = Tensor(rng.standard_normal((2, 2, 3, 3)))
        b = Tensor(rng.standard_normal((1, 2, 1, 1)))
        offsets = Tensor(rng.uniform(-0.7, 0.7, (1, 18, 4, 4)))
        m = rng.uniform(0.1, 0.5, (1, 9, 4, 4))
        y1 = modulated_deform_conv2d(x, w, b, offsets, Tensor(m), (1, 1))
        y2 = modulated_deform_conv2d(x, w, b, offsets, Tensor(2 * m), (1, 1))
        np.testing.assert_allclose(y2.data - b.data, 2 * (y1.data - b.data),
                                   rtol=1e-6, atol=1e-9)

    def test_spatial_mismatch_rejected(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        w = Tensor(rng.standard_normal((2, 2, 3, 3)))
        with pytest.raises(ConfigurationError, match="offset field"):
            modulated_deform_conv2d(x, w, None, zero_offsets(1, 9, 3, 3),
                                    unit_masks(1, 9, 4, 4), (1, 1))
        with pytest.raises(ConfigurationError, match="modulation field"):
            modulated_deform_conv2d(x, w, None, zero_offsets(1, 9, 4, 4),
                                    unit_masks(1, 4, 4, 4), (1, 1))

    def test_non_finite_offsets_sample_zeros(self, rng):
        # every sampling point is NaN, +-inf or +-1e30 away: all four corners
        # lie outside the image, so the output is the bias and no cast warns
        x = Tensor(rng.standard_normal((2, 3, 5, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((1, 4, 1, 1)), requires_grad=True)
        bad = np.array([np.nan, np.inf, -np.inf, 1e30, -1e30])
        off = Tensor(rng.choice(bad, (2, 18, 5, 5)), requires_grad=True)
        masks = Tensor(rng.uniform(0.2, 0.8, (2, 9, 5, 5)), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = modulated_deform_conv2d(x, w, b, off, masks, (1, 1))
            total(y).backward()
        np.testing.assert_array_equal(y.data, np.broadcast_to(b.data, y.shape))
        for t in (x, off, masks):
            np.testing.assert_array_equal(t.grad, 0.0)
        assert np.isfinite(w.grad).all()

    def test_backward_matches_reference_everywhere(self, rng):
        # every element of all five gradients, not a finite-difference sample:
        # integer parts in -2..1 and fractional parts 0.1..0.9 keep samples off
        # the bilinear kink while some leave the 5x5 image and several taps
        # land on the same pixels
        x = rng.standard_normal((2, 3, 5, 5))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal((1, 4, 1, 1))
        off = (rng.integers(-2, 2, (2, 18, 5, 5))
               + rng.uniform(0.1, 0.9, (2, 18, 5, 5)))
        masks = rng.uniform(0.0, 1.0, (2, 9, 5, 5))
        gy = rng.standard_normal((2, 4, 5, 5))
        tensors = [Tensor(a.copy(), requires_grad=True)
                   for a in (x, w, b, off, masks)]
        y = modulated_deform_conv2d(*tensors, (1, 1))
        _proj_loss(y, gy).backward()
        refs = deform_conv_vjp_reference(x, w, off, masks, gy)
        for name, t, ref in zip(("x", "weight", "bias", "offsets", "masks"),
                                tensors, refs):
            np.testing.assert_allclose(t.grad, ref, rtol=1e-6, atol=1e-9,
                                       err_msg=name)

    def test_backward_computes_in_the_layer_dtype(self, rng):
        # a float64 output gradient must not turn the float32 layer's
        # gradients, and the products behind them, into float64
        arrays = (rng.standard_normal((1, 2, 5, 5)),
                  rng.standard_normal((3, 2, 3, 3)),
                  rng.standard_normal((1, 3, 1, 1)),
                  rng.uniform(-1.5, 1.5, (1, 18, 5, 5)),
                  rng.uniform(0.0, 1.0, (1, 9, 5, 5)))
        tensors = [Tensor(a.astype(np.float32), requires_grad=True)
                   for a in arrays]
        y = modulated_deform_conv2d(*tensors, (1, 1))
        gy = rng.standard_normal(y.shape)
        _proj_loss(y, gy).backward()
        for t in tensors:
            assert t.grad.dtype == np.float32

    def test_gradcheck_all_five_groups(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 5, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((1, 2, 1, 1)), requires_grad=True)
        off = Tensor(rng.integers(-1, 2, (1, 18, 5, 5))
                     + rng.uniform(0.3, 0.7, (1, 18, 5, 5)), requires_grad=True)
        masks = Tensor(rng.uniform(0.2, 0.8, (1, 9, 5, 5)), requires_grad=True)
        proj = rng.standard_normal((1, 2, 5, 5))

        def build():
            y = modulated_deform_conv2d(x, w, b, off, masks, (1, 1))
            return _proj_loss(y, proj)

        for name, t in [("input", x), ("weight", w), ("bias", b),
                        ("offsets", off), ("masks", masks)]:
            result = finite_diff_check(f"deform/{name}", build, [t],
                                       max_elements=8)
            assert result.passed, result.line()
