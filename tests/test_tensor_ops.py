import gc
import inspect
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sadnet import deform, tensor as T
from sadnet.deform import modulated_deform_conv2d
from sadnet.errors import ConfigurationError, UsageError
from sadnet.gradcheck import _proj_loss
from sadnet.model import ModelConfig, SADNet, bilinear_upsample_x2
from sadnet.tensor import Tensor

from oracles import (add, conv2d_reference, conv2d_transpose_reference,
                     conv2d_vjp_reference, leaky_relu, total, traced_peak)


class TestConv2d:
    def test_sum_kernel(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        y = T.conv2d(x, w)
        assert y.shape == (1, 1, 1, 1)
        assert y.item() == 9.0

    def test_identity_kernel(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 5, 7)))
        w = np.zeros((3, 3, 1, 1))
        for c in range(3):
            w[c, c, 0, 0] = 1.0
        y = T.conv2d(x, Tensor(w))
        np.testing.assert_array_equal(y.data, x.data)

    def test_matches_loop_reference(self, rng):
        x = rng.standard_normal((2, 3, 8, 8))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal((1, 4, 1, 1))
        y = T.conv2d(Tensor(x), Tensor(w), Tensor(b), padding=(1, 1))
        ref = conv2d_reference(x, w, b, padding=(1, 1))
        np.testing.assert_allclose(y.data, ref, rtol=1e-6, atol=1e-9)

    def test_channel_mismatch(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        w = Tensor(rng.standard_normal((1, 3, 3, 3)))
        with pytest.raises(ConfigurationError, match=r"2 channels.*expects 3"):
            T.conv2d(x, w)

    def test_empty_output_rejected(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 2, 2)))
        w = Tensor(rng.standard_normal((1, 1, 3, 3)))
        with pytest.raises(ConfigurationError, match="empty"):
            T.conv2d(x, w)

    @pytest.mark.parametrize("k,dilation,padding", [
        (3, (1, 1), (0, 0)), (1, (1, 1), (0, 0)), (2, (1, 1), (1, 1)),
        (2, (2, 2), (0, 0))])
    def test_strided_needs_non_overlapping_blocks(self, rng, k, dilation,
                                                  padding):
        x = Tensor(rng.standard_normal((1, 2, 8, 8)))
        w = Tensor(rng.standard_normal((3, 2, k, k)))
        with pytest.raises(ConfigurationError, match="stride == kernel"):
            T.conv2d(x, w, stride=(2, 2), dilation=dilation, padding=padding)

    def test_linearity_in_input(self, rng):
        x = rng.standard_normal((1, 2, 6, 6))
        z = rng.standard_normal((1, 2, 6, 6))
        w = Tensor(rng.standard_normal((3, 2, 3, 3)))
        a, b = 1.7, -0.4
        lhs = T.conv2d(Tensor(a * x + b * z), w, padding=(1, 1)).data
        rhs = (a * T.conv2d(Tensor(x), w, padding=(1, 1)).data
               + b * T.conv2d(Tensor(z), w, padding=(1, 1)).data)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-6, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 2),
           c=st.integers(1, 3), o=st.integers(1, 3),
           kh=st.integers(1, 3), kw=st.integers(1, 3),
           sh=st.integers(1, 2), sw=st.integers(1, 2),
           dh=st.integers(1, 4), dw=st.integers(1, 4),
           ph=st.integers(0, 4), pw=st.integers(0, 4),
           h=st.integers(1, 9), w_dim=st.integers(1, 9))
    # the row and column spans differ: rows narrower than the input
    # (p < d*(k-1)), columns wider (p > d*(k-1))
    @example(seed=4, n=2, c=2, o=3, kh=3, kw=2, sh=1, sw=1, dh=2, dw=1,
             ph=1, pw=3, h=8, w_dim=5)
    # and rows wider, columns narrower
    @example(seed=5, n=1, c=3, o=2, kh=2, kw=3, sh=1, sw=1, dh=1, dw=3,
             ph=2, pw=1, h=4, w_dim=9)
    def test_property_matches_reference(self, seed, n, c, o, kh, kw, sh, sw,
                                        dh, dw, ph, pw, h, w_dim):
        if (sh, sw) != (1, 1):  # strided convs are non-overlapping blocks
            kh, kw, dh, dw, ph, pw = sh, sw, 1, 1, 0, 0
        out_h = (h + 2 * ph - dh * (kh - 1) - 1) // sh + 1
        out_w = (w_dim + 2 * pw - dw * (kw - 1) - 1) // sw + 1
        assume(out_h >= 1 and out_w >= 1)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c, h, w_dim))
        w = rng.standard_normal((o, c, kh, kw))
        b = rng.standard_normal((1, o, 1, 1))
        args = (sh, sw), (dh, dw), (ph, pw)
        y = T.conv2d(Tensor(x), Tensor(w), Tensor(b), *args)
        ref = conv2d_reference(x, w, b, *args)
        np.testing.assert_allclose(y.data, ref, rtol=1e-6, atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 2),
           c=st.integers(1, 3), o=st.integers(1, 3),
           kh=st.integers(1, 3), kw=st.integers(1, 3),
           sh=st.integers(1, 2), sw=st.integers(1, 2),
           dh=st.integers(1, 3), dw=st.integers(1, 3),
           ph=st.integers(0, 4), pw=st.integers(0, 4),
           h=st.integers(1, 9), w_dim=st.integers(1, 9))
    # output smaller than the input (p < d*(k-1)/2): gy is zero-extended
    @example(seed=1, n=2, c=2, o=3, kh=3, kw=3, sh=1, sw=1, dh=2, dw=2,
             ph=1, pw=1, h=9, w_dim=7)
    # output larger than the input (p > d*(k-1)): gy is cropped
    @example(seed=2, n=1, c=3, o=2, kh=3, kw=2, sh=1, sw=1, dh=1, dw=1,
             ph=3, pw=4, h=5, w_dim=8)
    @example(seed=3, n=2, c=2, o=2, kh=1, kw=1, sh=1, sw=1, dh=1, dw=1,
             ph=2, pw=0, h=4, w_dim=3)
    def test_property_gradients_match_reference(self, seed, n, c, o, kh, kw,
                                                sh, sw, dh, dw, ph, pw, h,
                                                w_dim):
        if (sh, sw) != (1, 1):  # strided convs are non-overlapping blocks
            kh, kw, dh, dw, ph, pw = sh, sw, 1, 1, 0, 0
        out_h = (h + 2 * ph - dh * (kh - 1) - 1) // sh + 1
        out_w = (w_dim + 2 * pw - dw * (kw - 1) - 1) // sw + 1
        assume(out_h >= 1 and out_w >= 1)
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((n, c, h, w_dim)), requires_grad=True)
        w = Tensor(rng.standard_normal((o, c, kh, kw)), requires_grad=True)
        b = Tensor(rng.standard_normal((1, o, 1, 1)), requires_grad=True)
        stride, dilation, padding = (sh, sw), (dh, dw), (ph, pw)
        y = T.conv2d(x, w, b, stride, dilation, padding)
        gy = rng.standard_normal(y.shape)
        _proj_loss(y, gy).backward()
        refs = conv2d_vjp_reference(x.data, w.data, gy, stride, dilation,
                                    padding)
        for name, t, ref in zip(("x", "weight", "bias"), (x, w, b), refs):
            np.testing.assert_allclose(t.grad, ref, rtol=1e-6, atol=1e-9,
                                       err_msg=name)


class TestConvSkip:
    """``conv2d(..., skip=s)`` is the reference ``add(s, conv2d(...))``,
    fused."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("form", ["stride1", "k2s2"])
    def test_equals_add_bit_for_bit(self, rng, form, dtype):
        k, conv_kw = ((3, dict(dilation=(2, 1), padding=(2, 1)))
                      if form == "stride1" else (2, dict(stride=(2, 2))))
        x, w, b = (rng.standard_normal(s).astype(dtype)
                   for s in ((2, 3, 8, 6), (4, 3, k, k), (1, 4, 1, 1)))
        oh, ow = (8, 6) if form == "stride1" else (4, 3)
        s = rng.standard_normal((2, 4, oh, ow)).astype(dtype)
        proj = rng.standard_normal(s.shape).astype(dtype)
        runs = []
        for fused in (True, False):
            ts = [Tensor(a.copy(), requires_grad=True) for a in (x, w, b, s)]
            if fused:
                y = T.conv2d(*ts[:3], **conv_kw, skip=ts[3])
            else:
                y = add(ts[3], T.conv2d(*ts[:3], **conv_kw))
            _proj_loss(y, proj).backward()
            runs.append([y.data] + [t.grad for t in ts])
        for fused, added in zip(*runs):
            assert fused.dtype == dtype
            np.testing.assert_array_equal(fused, added)

    def test_skip_without_gradient(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 5, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 2, 3, 3)))
        s = Tensor(rng.standard_normal((1, 2, 5, 5)))
        total(T.conv2d(x, w, padding=(1, 1), skip=s)).backward()
        assert s.grad is None and x.grad is not None

    def test_input_as_its_own_skip(self, rng):
        # x read twice, as the conv's input and its skip, collects both
        # gradients; with an identity kernel they are proj each, bit for bit
        x = Tensor(rng.standard_normal((1, 2, 3, 3)), requires_grad=True)
        proj = rng.standard_normal(x.shape)
        eye = Tensor(np.eye(2).reshape(2, 2, 1, 1))
        _proj_loss(T.conv2d(x, eye, skip=x), proj).backward()
        np.testing.assert_array_equal(x.grad, 2 * proj)
        x.grad = None
        w = Tensor(rng.standard_normal((2, 2, 3, 3)), requires_grad=True)
        _proj_loss(T.conv2d(x, w, padding=(1, 1), skip=x), proj).backward()
        gx, gw, _ = conv2d_vjp_reference(x.data, w.data, proj,
                                         padding=(1, 1))
        np.testing.assert_allclose(x.grad, gx + proj, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(w.grad, gw, rtol=1e-6, atol=1e-9)

    def test_wrong_shape_rejected(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 5, 5)))
        w = Tensor(rng.standard_normal((3, 2, 3, 3)))
        for shape in ((1, 2, 5, 5), (1, 3, 3, 3), (2, 3, 5, 5)):
            with pytest.raises(ConfigurationError, match="skip shape"):
                T.conv2d(x, w, padding=(1, 1),
                         skip=Tensor(rng.standard_normal(shape)))


class TestFusedLeakyReLU:
    """``conv2d(..., slope=s)`` and ``modulated_deform_conv2d(..., slope=s)``
    are the reference ``leaky_relu(op(...), s)``, fused: outputs and every
    gradient bit for bit, except where the pre-activation is -0.0."""

    @staticmethod
    def _runs(op, arrays, slope, proj):
        runs = []
        for fused in (True, False):
            ts = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            y = op(ts, slope) if fused else leaky_relu(op(ts, None), slope)
            _proj_loss(y, proj).backward()
            runs.append([y.data] + [t.grad for t in ts])
        return runs

    @pytest.mark.parametrize("slope", [0.0, 0.01, 0.2, 1.0])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("skip", [False, True], ids=["plain", "skip"])
    @pytest.mark.parametrize("form", ["stride1", "k2s2"])
    def test_conv2d_equals_leaky_relu_bit_for_bit(self, rng, form, skip,
                                                  dtype, slope):
        k, conv_kw = ((3, dict(dilation=(2, 1), padding=(2, 1)))
                      if form == "stride1" else (2, dict(stride=(2, 2))))
        oh, ow = (8, 6) if form == "stride1" else (4, 3)
        arrays = [rng.standard_normal(s).astype(dtype) for s in
                  ((2, 3, 8, 6), (4, 3, k, k), (1, 4, 1, 1), (2, 4, oh, ow))]
        if not skip:
            arrays.pop()

        def op(ts, slope):
            return T.conv2d(*ts[:3], **conv_kw,
                            skip=ts[3] if skip else None, slope=slope)

        proj = rng.standard_normal((2, 4, oh, ow)).astype(dtype)
        for fused, composed in zip(*self._runs(op, arrays, slope, proj)):
            assert fused.dtype == dtype
            np.testing.assert_array_equal(fused, composed)

    @pytest.mark.parametrize("slope", [0.0, 0.01, 0.2, 1.0])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_deform_equals_leaky_relu_bit_for_bit(self, rng, dtype, slope):
        _, arrays = _deform_case(rng)
        arrays = [a.astype(dtype) for a in arrays]

        def op(ts, slope):
            return modulated_deform_conv2d(*ts, (1, 1), slope)

        proj = rng.standard_normal((2, 5, 23, 17)).astype(dtype)
        runs = self._runs(op, arrays, slope, proj)
        # both branches taken (at slope 0 a negative one gives -0.0)
        assert np.signbit(runs[0][0]).any() and (runs[0][0] > 0).any()
        for fused, composed in zip(*runs):
            assert fused.dtype == dtype
            np.testing.assert_array_equal(fused, composed)

    def test_negative_zero_pre_activation(self, rng, monkeypatch):
        # the fused backward reads the output's sign bit: at a
        # pre-activation of -0.0 it gives slope * gy, where leaky_relu (for
        # which -0.0 >= 0) gives gy; everywhere else they agree, a negative
        # value whose product with the slope underflows to -0.0 included
        pre = np.array([-0.0, 0.0, -1e-45, 1e-45, -2.0, 3.0],
                       np.float32).reshape(1, 6, 1, 1)
        monkeypatch.setattr(T, "_conv", lambda *args: pre.copy())
        x = Tensor(np.ones((1, 1, 1, 1), np.float32), requires_grad=True)
        w = Tensor(np.ones((6, 1, 1, 1), np.float32), requires_grad=True)
        gy = rng.uniform(1, 2, pre.shape).astype(np.float32)
        grads = []
        for fused in (True, False):
            y = (T.conv2d(x, w, slope=0.2) if fused
                 else leaky_relu(T.conv2d(x, w), 0.2))
            _proj_loss(y, gy).backward()
            want = leaky_relu(Tensor(pre), 0.2).data
            assert y.data.tobytes() == want.tobytes()
            grads.append(w.grad.ravel())
            w.grad = x.grad = None
        fused, composed = grads
        assert fused[0] == np.float32(0.2) * gy.flat[0]
        assert composed[0] == gy.flat[0]
        np.testing.assert_array_equal(fused[1:], composed[1:])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leaky_grad_scales_split_views_in_place(self, rng, dtype):
        # a concat_channels split of the gradient and of the output is a
        # non-contiguous view; it is scaled where it lies, block by block
        # (8 channels of 128x128), bit for bit as one whole-view multiply,
        # and the channels beside it are left alone
        whole = rng.standard_normal((2, 40, 128, 128)).astype(dtype)
        y = rng.standard_normal((2, 36, 128, 128)).astype(dtype)[:, 3:33]
        y[0, 0, 0, :3] = [-0.0, 0.0, np.nan]
        gy = whole[:, 5:35]
        assert not (gy.flags.c_contiguous or y.flags.c_contiguous)
        want = whole.copy()
        want[:, 5:35] *= np.where(np.signbit(y), dtype(0.2), dtype(1))
        T._leaky_grad(gy, y, 0.2)
        np.testing.assert_array_equal(whole, want)

    def test_model_runs_only_fused_ops(self, monkeypatch):
        # every activation and residual join of the stock forward is fused
        # into its conv: of the tensor ops, only these build its graph
        called = set()
        for name, op in list(vars(T).items()):
            if (inspect.isfunction(op) and op.__module__ == T.__name__
                    and not name.startswith("_")):
                def recording(*args, _op=op, _name=name, **kwargs):
                    out = _op(*args, **kwargs)
                    if isinstance(out, Tensor):
                        called.add(_name)
                    return out
                monkeypatch.setattr(T, name, recording)
        model = SADNet(ModelConfig(), rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).random((1, 3, 8, 8),
                                                   dtype=np.float32))
        total(model(x)).backward()
        assert called == {"conv2d", "conv2d_transpose", "concat_channels",
                          "slice_channels", "sigmoid"}


class TestConvTranspose:
    def test_disjoint_blocks(self):
        x = np.arange(1.0, 5.0).reshape(1, 1, 2, 2)
        w = Tensor(np.ones((1, 1, 2, 2)))
        y = T.conv2d_transpose(Tensor(x), w)
        assert y.shape == (1, 1, 4, 4)
        expected = np.kron(x[0, 0], np.ones((2, 2)))
        np.testing.assert_array_equal(y.data[0, 0], expected)

    def test_down_up_restores_spatial_size(self, rng):
        x = Tensor(rng.standard_normal((1, 4, 12, 16)))
        wd = Tensor(rng.standard_normal((8, 4, 2, 2)))
        wu = Tensor(rng.standard_normal((4, 8, 2, 2)))
        down = T.conv2d(x, wd, stride=(2, 2))
        assert down.shape == (1, 8, 6, 8)
        up = T.conv2d_transpose(down, wu)
        assert up.shape == (1, 4, 12, 16)

    def test_matches_scatter_reference(self, rng):
        x = rng.standard_normal((2, 3, 4, 5))
        w = rng.standard_normal((4, 3, 2, 2))
        b = rng.standard_normal((1, 4, 1, 1))
        y = T.conv2d_transpose(Tensor(x), Tensor(w), Tensor(b))
        ref = conv2d_transpose_reference(x, w, b, (2, 2))
        np.testing.assert_allclose(y.data, ref, rtol=1e-6, atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_property_matches_reference(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        n = data.draw(st.integers(1, 2))
        c = data.draw(st.integers(1, 3))
        o = data.draw(st.integers(1, 3))
        k = data.draw(st.integers(1, 3))
        h = data.draw(st.integers(1, 5))
        w_dim = data.draw(st.integers(1, 5))
        x = rng.standard_normal((n, c, h, w_dim))
        w = rng.standard_normal((o, c, k, k))
        b = rng.standard_normal((1, o, 1, 1))
        y = T.conv2d_transpose(Tensor(x), Tensor(w), Tensor(b))
        ref = conv2d_transpose_reference(x, w, b, (k, k))
        np.testing.assert_allclose(y.data, ref, rtol=1e-6, atol=1e-9)

    def test_channel_mismatch(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        w = Tensor(rng.standard_normal((1, 3, 2, 2)))
        with pytest.raises(ConfigurationError, match="mismatch"):
            T.conv2d_transpose(x, w)

    def test_input_gradient_is_conv2d(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 3, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 2, 2)))
        y = T.conv2d_transpose(x, w)
        proj = rng.standard_normal(y.shape)
        _proj_loss(y, proj).backward()
        # adjoint: grad_x = conv2d(proj, w) with the same kernel and stride,
        # channel axes swapped to map output channels back to input channels
        w_adj = Tensor(w.data.transpose(1, 0, 2, 3))
        ref = T.conv2d(Tensor(proj), w_adj, stride=(2, 2)).data
        np.testing.assert_allclose(x.grad, ref, rtol=1e-6, atol=1e-12)


def _forward_growth(op):
    """Traced bytes an op's result and saved state add, and the result."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = op()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out._backward is not None
    return grown, out


class TestForwardKeepsNoColumns:
    """Backward copies its input rows again, so forward leaves only its
    output."""

    @pytest.mark.parametrize("stride,dilation,padding", [
        ((1, 1), (1, 1), (1, 1)), ((2, 2), (1, 1), (0, 0)),
        ((1, 1), (2, 2), (2, 2))])
    def test_conv2d(self, rng, stride, dilation, padding):
        k = 3 if stride == (1, 1) else stride[0]  # strided: 2x2 blocks
        x = Tensor(rng.standard_normal((2, 16, 64, 64)).astype(np.float32),
                   requires_grad=True)
        w = Tensor(rng.standard_normal((16, 16, k, k)).astype(np.float32),
                   requires_grad=True)
        b = Tensor(np.zeros((1, 16, 1, 1), np.float32), requires_grad=True)
        grown, out = _forward_growth(lambda: T.conv2d(
            x, w, b, stride=stride, dilation=dilation, padding=padding))
        assert grown <= out.data.nbytes + 64 * 1024

    def test_modulated_deform_conv2d(self, rng):
        arrays = (rng.standard_normal((2, 16, 32, 32)),
                  rng.standard_normal((16, 16, 3, 3)),
                  rng.standard_normal((1, 16, 1, 1)),
                  rng.uniform(-1.5, 1.5, (2, 18, 32, 32)),
                  rng.uniform(0.0, 1.0, (2, 9, 32, 32)))
        tensors = [Tensor(a.astype(np.float32), requires_grad=True)
                   for a in arrays]
        grown, out = _forward_growth(
            lambda: modulated_deform_conv2d(*tensors, (1, 1)))
        assert grown <= out.data.nbytes + 64 * 1024

    def test_conv2d_with_slope(self, rng):
        # the fused activation's backward reads the sign from the output,
        # so forward keeps no pre-activation
        x = Tensor(rng.standard_normal((1, 32, 64, 64), dtype=np.float32),
                   requires_grad=True)
        w = Tensor(rng.standard_normal((32, 32, 1, 1), dtype=np.float32),
                   requires_grad=True)
        grown, out = _forward_growth(lambda: T.conv2d(x, w, slope=0.1))
        assert grown <= out.data.nbytes + 64 * 1024


def _conv_case(rng, stride, dilation, padding, k=3):
    """A conv2d and its inputs: 2 images of a ragged size."""
    x = rng.standard_normal((2, 6, 23, 17))
    w = rng.standard_normal((5, 6, k, k))
    b = rng.standard_normal((1, 5, 1, 1))

    def op(x, w, b):
        return T.conv2d(x, w, b, stride=stride, dilation=dilation,
                        padding=padding)
    return op, (x, w, b)


def _deform_case(rng, reach=3.0):
    # offsets up to 3 pixels reach across band boundaries; up to the image
    # height, every band's window is the whole image
    x = rng.standard_normal((2, 6, 23, 17))
    w = rng.standard_normal((5, 6, 3, 3))
    b = rng.standard_normal((1, 5, 1, 1))
    off = rng.uniform(-reach, reach, (2, 18, 23, 17))
    masks = rng.uniform(0.0, 1.0, (2, 9, 23, 17))

    def op(*tensors):
        return modulated_deform_conv2d(*tensors, (1, 1))
    return op, (x, w, b, off, masks)


_real_bands = T._bands


def _run_banded(monkeypatch, budget, op, arrays, gy):
    """Forward and every gradient of op under a band budget; the bands used."""
    seen = []

    def recording(*args):
        for band in _real_bands(*args):
            seen.append(band)
            yield band
    monkeypatch.setattr(T, "_BAND_BYTES", budget)
    monkeypatch.setattr(T, "_bands", recording)
    monkeypatch.setattr(deform, "_bands", recording)
    tensors = [Tensor(a.astype(gy.dtype), requires_grad=True) for a in arrays]
    y = op(*tensors)
    _proj_loss(y, gy).backward()
    return y.data, [t.grad for t in tensors], seen


class TestBands:
    """Row bands change what an op allocates, not what it computes.

    A budget below one row forces one row per band: output rows, in
    forward and backward alike, of an output that may be smaller
    ("shrinking") or larger ("growing") than its input; a 1x1 kernel
    ("pointwise") copies its rows as any kernel does, and a 2x2 up or down
    conv is a 1x1 conv of blocks. The forward and every gradient match the single-band run to
    1e-6 of their largest element: weight partials are summed in another
    order, and OpenBLAS may round a narrow GEMM block (17 columns here)
    otherwise than the same columns inside a wide one. Banded runs repeat
    exactly.
    """

    CASES = {"stride1": ((1, 1), (1, 1), (1, 1)),
             "stride2": ((2, 2), (1, 1), (0, 0), 2),
             "dilated": ((1, 1), (2, 2), (2, 2)),
             "shrinking": ((1, 1), (2, 2), (1, 1)),
             "growing": ((1, 1), (1, 1), (3, 3)),
             "pointwise": ((1, 1), (1, 1), (0, 0), 1)}

    def _check(self, monkeypatch, rng, dtype, op, arrays):
        gy = rng.standard_normal(op(*map(Tensor, arrays)).shape).astype(dtype)
        one_y, one_g, one_bands = _run_banded(monkeypatch, 1 << 40, op,
                                              arrays, gy)
        y, grads, bands = _run_banded(monkeypatch, 1, op, arrays, gy)
        y2, grads2, _ = _run_banded(monkeypatch, 1, op, arrays, gy)
        assert len(one_bands) == 2  # forward and backward, one band each
        assert len(bands) >= 6  # at least 3 bands in forward and backward
        for got, ref, again in zip([y] + grads, [one_y] + one_g,
                                   [y2] + grads2):
            assert got.dtype == dtype
            np.testing.assert_allclose(got, ref, rtol=1e-6,
                                       atol=1e-6 * np.abs(ref).max())
            np.testing.assert_array_equal(again, got)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", CASES)
    def test_conv2d(self, monkeypatch, rng, case, dtype):
        self._check(monkeypatch, rng, dtype,
                    *_conv_case(rng, *self.CASES[case]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_conv2d_transpose(self, monkeypatch, rng, dtype):
        arrays = (rng.standard_normal((2, 6, 23, 17)),
                  rng.standard_normal((5, 6, 2, 2)),
                  rng.standard_normal((1, 5, 1, 1)))
        self._check(monkeypatch, rng, dtype, T.conv2d_transpose, arrays)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_modulated_deform_conv2d(self, monkeypatch, rng, dtype):
        self._check(monkeypatch, rng, dtype, *_deform_case(rng))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_modulated_deform_conv2d_whole_image_reach(self, monkeypatch, rng,
                                                       dtype):
        self._check(monkeypatch, rng, dtype, *_deform_case(rng, 23.0))

    @pytest.mark.parametrize("c,size", [(8, 64), (16, 32), (32, 16), (64, 8)])
    def test_smoke_deform_layer_bands(self, monkeypatch, rng, c, size):
        # the acceptance smoke config's deformable convs (batch 4): only the
        # scale-0 one splits, by whole images into two even groups (11.0 MB
        # of forward columns and tables, 13.6 MB counted in backward); the
        # others take one band in forward and backward
        arrays = (rng.standard_normal((4, c, size, size)),
                  rng.standard_normal((c, c, 3, 3)),
                  np.zeros((1, c, 1, 1)),
                  rng.uniform(-1.5, 1.5, (4, 18, size, size)),
                  rng.uniform(0.0, 1.0, (4, 9, size, size)))
        gy = rng.standard_normal((4, c, size, size)).astype(np.float32)
        _, _, bands = _run_banded(
            monkeypatch, T._BAND_BYTES,
            lambda *t: modulated_deform_conv2d(*t, (1, 1)), arrays, gy)
        if size == 64:
            assert bands == [(slice(0, 2), 0, 64), (slice(2, 4), 0, 64)] * 2
        else:
            assert bands == [(slice(0, 4), 0, size)] * 2

    def test_backward_bands_are_forward_bands(self, monkeypatch, rng):
        # train-stock's finest 3x3 conv under the real budget: 192 slab and
        # product rows of 128 float32 columns per output row, so 85 + 43
        # rows per image, in forward and in backward
        x = rng.standard_normal((2, 32, 128, 128), dtype=np.float32)
        w = rng.standard_normal((32, 32, 3, 3), dtype=np.float32)
        gy = rng.standard_normal((2, 32, 128, 128), dtype=np.float32)
        seen = []

        def recording(*args):
            for band in _real_bands(*args):
                seen.append(band)
                yield band
        monkeypatch.setattr(T, "_bands", recording)
        T._conv(x, w, (1, 1), (1, 1))
        forward = seen[:]
        seen.clear()
        T._conv_vjp(gy, x, w, (1, 1), (1, 1), True, True)
        assert forward == [(slice(i, i + 1), r0, r1) for i in range(2)
                           for r0, r1 in ((0, 85), (85, 128))]
        assert seen == forward

    @staticmethod
    def _check_smoke_step_bands(monkeypatch, rng, when):
        """One forward and backward of the acceptance smoke config (batch
        4, patch 64) under the real budget: in phase ``when`` every
        stride-1 conv2d but the scale-0 offset head takes one band, and
        that head two bands of two whole images."""
        bands = {}  # (call, phase) -> bands
        phase = [None]
        calls = itertools.count()
        real_bands, real_conv = T._bands, T.conv2d

        def recording(*args):
            for band in real_bands(*args):
                if phase[0] is not None:
                    bands.setdefault(phase[0], []).append(band)
                yield band

        def conv(x, weight, bias=None, stride=(1, 1), dilation=(1, 1),
                 padding=(0, 0), skip=None, slope=None):
            name = (f"#{next(calls)} {x.shape[1]}->"
                    f"{weight.shape[0]} k{weight.shape[2]} s{stride[0]} "
                    f"d{dilation[0]} @{x.shape[2]}")
            phase[0] = (name, "forward")
            out = real_conv(x, weight, bias, stride, dilation, padding, skip,
                            slope)
            phase[0] = None  # other ops' bands are not this conv's
            inner = out._backward

            def backward():
                phase[0] = (name, "backward")
                inner()
                phase[0] = None
            out._backward = backward
            return out
        monkeypatch.setattr(T, "_bands", recording)
        monkeypatch.setattr(T, "conv2d", conv)
        model = SADNet(ModelConfig(in_channels=1,
                                   channels_per_scale=(8, 16, 32, 64)),
                       rng=np.random.default_rng(0))
        x = Tensor(rng.random((4, 1, 64, 64), dtype=np.float32))
        T.loss("L1", model(x), Tensor(x.data.copy())).backward()
        stride1 = {name: b for (name, phase), b in bands.items()
                   if phase == when and " s1 " in name}
        assert len(stride1) == 31
        head = "#31 35->27 k3 s1 d1 @64"
        assert stride1.pop(head) == [(slice(0, 2), 0, 64),
                                     (slice(2, 4), 0, 64)]
        assert [name for name, b in stride1.items() if len(b) > 1] == []

    def test_smoke_step_stride1_forward_bands(self, monkeypatch, rng):
        # the 35->27 scale-0 offset head's row slabs and GEMM product come
        # to 12.2 MB for the batch
        self._check_smoke_step_bands(monkeypatch, rng, "forward")

    def test_smoke_step_stride1_backward_bands(self, monkeypatch, rng):
        # backward runs forward's bands: the same slabs, and the shifted
        # output gradient in the product's place
        self._check_smoke_step_bands(monkeypatch, rng, "backward")


class TestBoundedTransients:
    """What one large op allocates stays near the band budget.

    Inputs are made before tracing. Forward may add its output and a few
    bands; backward may add the output's gradient and the input gradients
    up to three times over, and a few bands. At 320x480 one unbanded column
    buffer alone is 354 MB (conv) or 177 MB (deformable).
    """

    @staticmethod
    def _check(tensors, op):
        y, forward = traced_peak(lambda: op(*tensors))
        _, backward = traced_peak(total(y).backward)
        out = y.data.nbytes
        grads = sum(t.data.nbytes for t in tensors)
        assert forward <= out + 2 * T._BAND_BYTES
        assert backward <= out + 3 * grads + 8 * T._BAND_BYTES

    def test_conv2d(self, rng):
        arrays = (rng.standard_normal((1, 64, 320, 480), dtype=np.float32),
                  rng.standard_normal((64, 64, 3, 3), dtype=np.float32),
                  np.zeros((1, 64, 1, 1), np.float32))
        self._check([Tensor(a, requires_grad=True) for a in arrays],
                    lambda x, w, b: T.conv2d(x, w, b, padding=(1, 1)))

    def test_input_gradient_is_not_copied(self, rng):
        # the output, its gradient and the input gradient are three
        # image-size arrays; a copy of the input gradient would be a fourth
        x = Tensor(rng.standard_normal((1, 64, 320, 480), dtype=np.float32),
                   requires_grad=True)
        w = Tensor(rng.standard_normal((64, 64, 3, 3), dtype=np.float32),
                   requires_grad=True)
        _, peak = traced_peak(
            lambda: total(T.conv2d(x, w, padding=(1, 1))).backward())
        assert peak < 4 * x.data.nbytes

    def test_conv_vjp_holds_one_band(self, rng):
        # train-stock's finest 3x3 conv: its backward's slabs and shifted
        # output gradient split into 85 + 43 rows per image, in one buffer
        # that the bands share
        x = rng.standard_normal((2, 32, 128, 128), dtype=np.float32)
        w = rng.standard_normal((32, 32, 3, 3), dtype=np.float32)
        gy = rng.standard_normal((2, 32, 128, 128), dtype=np.float32)
        (gx, gw), peak = traced_peak(
            lambda: T._conv_vjp(gy, x, w, (1, 1), (1, 1), True, True))
        assert peak <= gx.nbytes + gw.nbytes + T._BAND_BYTES + (1 << 19)

    def test_conv_forward_holds_row_slabs(self, rng):
        # one band: kh row copies of the input and the kw*o-row GEMM
        # product, where im2col columns would take c*kh*kw rows per pixel
        x = rng.standard_normal((2, 16, 64, 64), dtype=np.float32)
        w = rng.standard_normal((16, 16, 3, 3), dtype=np.float32)
        n, c, h, wd = x.shape
        o, _, kh, kw = w.shape
        y, peak = traced_peak(lambda: T._conv(x, w, (1, 1), (1, 1)))
        slabs_and_product = (c * kh + kw * o) * n * h * wd * x.itemsize
        # a ufunc over strided operands (the shifted adds) buffers each of
        # its 3 operands, up to np.getbufsize() elements
        ufunc_buffers = 3 * np.getbufsize() * x.itemsize
        assert peak <= (y.nbytes + slabs_and_product + ufunc_buffers
                        + (1 << 16))

    @staticmethod
    def _deform_tensors(rng, n, c, h, w, reach):
        return [Tensor(a, requires_grad=True) for a in (
            rng.standard_normal((n, c, h, w), dtype=np.float32),
            rng.standard_normal((c, c, 3, 3), dtype=np.float32),
            rng.standard_normal((1, c, 1, 1), dtype=np.float32),
            rng.uniform(-reach, reach, (n, 18, h, w)).astype(np.float32),
            rng.uniform(0, 1, (n, 9, h, w)).astype(np.float32))]

    @pytest.mark.parametrize("slope", [None, 0.2])
    def test_deform_backward_at_train_stock_scale0(self, rng, slope):
        # train-stock's finest deformable conv, the step's peak: besides the
        # output gradient, its backward holds the float32 input gradient,
        # the offset and mask gradients and one band. Image-wide float64
        # input-gradient bins (8.9 MB) would not fit, nor would a
        # band-wide tap-major column gradient (4.1 MB at 28 rows) or a
        # second output gradient from the fused activation.
        tensors = self._deform_tensors(rng, 2, 32, 128, 128, 2)
        loss = total(modulated_deform_conv2d(*tensors, (1, 1), slope))
        _, peak = traced_peak(loss.backward)
        x, _, _, offsets, masks = tensors
        out_grad = x.data.nbytes
        fields = offsets.data.nbytes + masks.data.nbytes
        assert peak <= (out_grad + x.data.nbytes + fields + T._BAND_BYTES
                        + (1 << 20))

    def test_deform_backward_holds_one_band(self, rng):
        # 10 bands of up to 28 rows, whose windows overlap by the offsets'
        # reach: each band's column gradient, tables and window bins must
        # be freed before the next band builds its own
        tensors = self._deform_tensors(rng, 1, 32, 256, 128, 3)
        y = modulated_deform_conv2d(*tensors, (1, 1))
        y.grad = rng.standard_normal(y.shape, dtype=np.float32)
        _, peak = traced_peak(y._backward)
        grads = sum(t.grad.nbytes for t in tensors)
        assert peak <= grads + T._BAND_BYTES + (1 << 19)

    def test_leaky_grad_in_blocks(self, rng):
        # the scale lookup's mask, intp index and factors (13 bytes per
        # element) run on blocks of about 1 << 17 elements, not on the
        # whole 4 MiB gradient
        y = rng.standard_normal((2, 32, 128, 128), dtype=np.float32)
        gy = rng.standard_normal(y.shape, dtype=np.float32)
        _, peak = traced_peak(lambda: T._leaky_grad(gy, y, 0.2))
        assert peak <= 13 * (1 << 17) + (1 << 16)

    def test_modulated_deform_conv2d(self, rng):
        arrays = (rng.standard_normal((1, 32, 320, 480), dtype=np.float32),
                  rng.standard_normal((32, 32, 3, 3), dtype=np.float32),
                  np.zeros((1, 32, 1, 1), np.float32),
                  rng.uniform(-1.5, 1.5, (1, 18, 320, 480)).astype(np.float32),
                  rng.uniform(0.0, 1.0, (1, 9, 320, 480)).astype(np.float32))
        self._check([Tensor(a, requires_grad=True) for a in arrays],
                    lambda *t: modulated_deform_conv2d(*t, (1, 1)))


class TestPointwise:
    def test_sigmoid_symmetry(self):
        assert T.sigmoid(Tensor(np.zeros((1, 1, 1, 1)))).item() == 0.5

    def test_sigmoid_saturates_without_warning(self, rng):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = T.sigmoid(Tensor(np.full((1, 1, 1, 2), -1000, np.float32)))
        assert y.data.tolist() == [[[[0.0, 0.0]]]]
        # every bit of the plain expression, overflowing logits included
        x = (rng.standard_normal((1, 3, 40, 40)) * 60).astype(np.float32)
        with np.errstate(over="ignore"):
            want = 1.0 / (1.0 + np.exp(-x))
        assert (x < -88).any()
        np.testing.assert_array_equal(T.sigmoid(Tensor(x)).data, want)

    def test_concat_channel_arithmetic(self, rng):
        a = Tensor(rng.standard_normal((1, 32, 16, 16)))
        b = Tensor(rng.standard_normal((1, 64, 16, 16)))
        assert T.concat_channels(a, b).shape == (1, 96, 16, 16)

    def test_concat_shares_graph_inputs_keeps_leaves(self, rng):
        # a graph input's values move into the output, unchanged; a leaf
        # (which Adam updates in place) and a no-grad tensor keep their own
        # arrays
        leaf = Tensor(rng.standard_normal((2, 2, 3, 4)), requires_grad=True)
        node = T.sigmoid(
            Tensor(rng.standard_normal((2, 3, 3, 4)), requires_grad=True))
        const = Tensor(rng.standard_normal((2, 1, 3, 4)))
        arrays = [t.data for t in (leaf, node, const)]
        values = [a.copy() for a in arrays]
        y = T.concat_channels(leaf, node, const)
        assert leaf.data is arrays[0] and const.data is arrays[2]
        assert np.shares_memory(node.data, y.data)
        assert not np.shares_memory(leaf.data, y.data)
        for t, v in zip((leaf, node, const), values):
            np.testing.assert_array_equal(t.data, v)
        np.testing.assert_array_equal(y.data, np.concatenate(values, axis=1))
        # a float32 input that a float64 output would promote keeps its dtype
        narrow = T.sigmoid(Tensor(values[1].astype(np.float32),
                                  requires_grad=True))
        T.concat_channels(narrow, node)
        assert narrow.dtype == np.float32

    def test_slice_shares_memory(self, rng):
        x = T.sigmoid(
            Tensor(rng.standard_normal((2, 5, 3, 4)), requires_grad=True))
        y = T.slice_channels(x, 1, 4)
        assert np.shares_memory(y.data, x.data)
        np.testing.assert_array_equal(y.data, x.data[:, 1:4])

    def test_concat_mismatch(self, rng):
        a = Tensor(rng.standard_normal((1, 2, 4, 4)))
        b = Tensor(rng.standard_normal((1, 2, 5, 4)))
        with pytest.raises(ConfigurationError):
            T.concat_channels(a, b)


class TestLoss:
    def test_identical_is_zero(self, rng):
        x = rng.standard_normal((2, 1, 3, 3))
        assert T.loss("L1", Tensor(x), Tensor(x.copy())).item() == 0.0
        assert T.loss("L2", Tensor(x), Tensor(x.copy())).item() == 0.0

    def test_constant_offset(self, rng):
        t = rng.standard_normal((1, 2, 4, 4))
        p = t + 2.0
        assert T.loss("L1", Tensor(p), Tensor(t)).item() == pytest.approx(2.0)
        assert T.loss("L2", Tensor(p), Tensor(t)).item() == pytest.approx(4.0)

    def test_matches_scalar_loop(self, rng):
        p = rng.standard_normal((2, 3, 5, 5))
        t = rng.standard_normal((2, 3, 5, 5))
        l1 = l2 = 0.0
        for a, b in zip(p.reshape(-1), t.reshape(-1)):
            l1 += abs(a - b)
            l2 += (a - b) ** 2
        n = p.size
        assert T.loss("L1", Tensor(p), Tensor(t)).item() == pytest.approx(l1 / n, abs=1e-9)
        assert T.loss("L2", Tensor(p), Tensor(t)).item() == pytest.approx(l2 / n, abs=1e-9)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ConfigurationError):
            T.loss("L2", Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 2, 3))))

    def test_unknown_kind(self):
        x = Tensor(np.zeros((1, 1, 1, 1)))
        with pytest.raises(UsageError):
            T.loss("huber", x, x)


class TestBackward:
    def test_sum_gives_ones(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
        total(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones_like(x.data))

    @pytest.mark.parametrize("y_dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("p_dtype", [np.float32, np.float64])
    def test_projection_loss(self, rng, y_dtype, p_dtype):
        # gradcheck's scalar sum(y * proj): its value, and a gradient that
        # is proj itself in the product's dtype
        x = Tensor(rng.standard_normal((2, 3, 4, 4)).astype(y_dtype),
                   requires_grad=True)
        proj = rng.standard_normal(x.shape).astype(p_dtype)
        out = _proj_loss(x, proj)
        want = np.result_type(y_dtype, p_dtype)
        assert out.shape == (1, 1, 1, 1) and out.dtype == want
        assert out.item() == (x.data * proj).sum()
        out.backward()
        assert x.grad.dtype == want
        np.testing.assert_array_equal(x.grad, proj)

    def test_non_scalar_loss_rejected(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 2, 2)), requires_grad=True)
        with pytest.raises(UsageError):
            T.sigmoid(x).backward()

    def test_backward_consumes_the_graph(self, rng):
        # spent nodes drop closure, inputs and grad; leaves keep their grad
        x = Tensor(rng.standard_normal((1, 2, 5, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
        y = T.conv2d(x, w, padding=(1, 1))
        out = total(T.sigmoid(y))
        out.backward()
        for node in (y, out):
            assert node._backward is None
            assert node._prev == ()
            assert node.grad is None
        assert x.grad is not None and w.grad is not None

    def test_detached_absent_from_gradients(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 3, 3)), requires_grad=True)
        frozen = Tensor(rng.standard_normal((1, 1, 3, 3)), requires_grad=False)
        total(T.conv2d(x, frozen, padding=(1, 1))).backward()
        assert x.grad is not None
        assert frozen.grad is None

    def test_conv_weight_matches_finite_differences(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 5, 5)))
        w = Tensor(rng.standard_normal((2, 2, 3, 3)), requires_grad=True)
        t = Tensor(rng.standard_normal((1, 2, 3, 3)))

        def f():
            return T.loss("L2", T.conv2d(x, w), t)

        f().backward()
        g = w.grad.copy()
        h = 1e-3
        flat = w.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f().item()
            flat[i] = orig - h
            fm = f().item()
            flat[i] = orig
            fd = (fp - fm) / (2 * h)
            assert abs(g.reshape(-1)[i] - fd) < 1e-4 * max(abs(fd), 1e-6) + 1e-6

    def test_backward_deterministic(self, rng):
        data = rng.standard_normal((1, 2, 6, 6))
        wdata = rng.standard_normal((3, 2, 3, 3))
        grads = []
        for _ in range(2):
            x = Tensor(data.copy(), requires_grad=True)
            w = Tensor(wdata.copy(), requires_grad=True)
            T.loss("L2", T.conv2d(x, w, padding=(1, 1)),
                   Tensor(np.zeros((1, 3, 6, 6)))).backward()
            grads.append((x.grad.copy(), w.grad.copy()))
        np.testing.assert_array_equal(grads[0][0], grads[1][0])
        np.testing.assert_array_equal(grads[0][1], grads[1][1])


def _traced(op):
    """op whose output's ``_backward`` is wrapped in a zero-argument function
    that calls it, as perfbench's tracer does to time every op's backward."""
    def wrapper(*args, **kwargs):
        out = op(*args, **kwargs)
        back = out._backward
        if back is not None:
            def timed():
                back()
            out._backward = timed
        return out
    return wrapper


_CONTRACT_CASES = {
    "conv2d-stride1": (
        lambda x, w, b: T.conv2d(x, w, b, dilation=(2, 1), padding=(2, 1)),
        [(2, 3, 6, 5), (4, 3, 3, 3), (1, 4, 1, 1)]),
    "conv2d-k2s2": (
        lambda x, w, b: T.conv2d(x, w, b, stride=(2, 2)),
        [(2, 3, 6, 4), (4, 3, 2, 2), (1, 4, 1, 1)]),
    "conv2d_transpose": (
        T.conv2d_transpose, [(2, 3, 3, 2), (4, 3, 2, 2), (1, 4, 1, 1)]),
    "deform": (
        lambda *t: modulated_deform_conv2d(*t, (1, 1)),
        [(2, 3, 5, 4), (2, 3, 3, 3), (1, 2, 1, 1), (2, 18, 5, 4),
         (2, 9, 5, 4)]),
    "bilinear_upsample_x2": (bilinear_upsample_x2, [(1, 2, 3, 4)]),
    "conv2d-skip-slope": (
        lambda x, w, s: T.conv2d(x, w, padding=(1, 1), skip=s, slope=0.2),
        [(1, 2, 3, 4), (2, 2, 3, 3), (1, 2, 3, 4)]),
    "sigmoid": (T.sigmoid, [(1, 2, 3, 4)]),
    "concat_channels": (T.concat_channels, [(1, 2, 3, 4), (1, 3, 3, 4)]),
    "slice_channels": (lambda x: T.slice_channels(x, 1, 3), [(1, 4, 3, 4)]),
    "loss-L2": (lambda p, t: T.loss("L2", p, t), [(1, 2, 3, 4)] * 2),
}


class TestTracerContract:
    @pytest.mark.parametrize("case", sorted(_CONTRACT_CASES))
    def test_wrapped_backward_is_bit_identical(self, rng, case):
        # every op, then an L1 loss: gradients with each op's _backward
        # wrapped must equal the unwrapped run's bit for bit
        op, shapes = _CONTRACT_CASES[case]
        arrays = [rng.uniform(-1.5, 1.5, s) for s in shapes]
        grads = []
        for wrap in (lambda f: f, _traced):
            tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            y = wrap(op)(*tensors)
            wrap(T.loss)("L1", y, Tensor(np.full(y.shape, 0.25))).backward()
            grads.append([t.grad for t in tensors])
        for plain, wrapped in zip(*grads):
            assert plain is not None
            np.testing.assert_array_equal(wrapped, plain)
