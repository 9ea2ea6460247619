"""Modulated deformable convolution with differentiable bilinear sampling.

The layer samples the input at learned fractional positions (one 2-vector
offset per kernel tap per output pixel), scales each sampled value by a
learned modulation scalar in [0, 1], then applies the standard kernel
weights. Sampling outside the image contributes 0 (zero-padding rule);
sampling points are never moved into the image.

This is the column form of DCNv2 (Zhu et al. 2019, arXiv:1811.11168): per
kernel tap, one gather fetches the four bilinear corners of every sampling
point, and their blend times the modulation fills that tap's rows of a
``tensor._im2col``-layout column buffer; one GEMM gives the output, and the
columns are dropped. Backward keeps nothing from forward: per tap it
recomputes the coordinates and regathers the corners, which refill the
columns for the weight gradient, bit-identical to the forward's.
Per tap, one channel contraction of the column gradient with the regathered
corners gives the mask and offset gradients (the modulation does not depend
on the channel, so it factors out of that sum). The input gradient is
scatter-added after the tap loop, one ``np.bincount`` per band, image and
channel over all taps and corners. Backward computes in the layer's dtype
whatever the dtype of the incoming gradient.

Forward and backward run in the row bands of ``tensor._bands``: one band's
columns, column gradient and (n, K, 4, L) corner tables are all that is
built at a time. Offsets can move a sample anywhere in the image, so each
band scatters into float64 bins for the whole input gradient (only between
the band's lowest and highest corner index), summed across bands and cast
to the layer dtype once at the end.

Sampling coordinates are clamped to [-2, h] (rows) and [-2, w] (columns)
before ``floor()``. Beyond those bounds all four corners already lie outside
the image, with weight 0 and derivative 0, so no finite result changes; NaN,
inf and huge offsets sample zeros instead of casting an undefined value.

Gradient convention at exact integer coordinates: the surrounding-4-pixel
bilinear formula with floor() anchoring, i.e. the one-sided derivative from
the upper cell. Gradient checks must perturb offsets away from integers.

Determinism: bands run in a fixed order, taps in row-major order within a
band, and each ``np.bincount`` adds its weights in a fixed order, in
float64, before one cast to the input dtype, so identical inputs give
bit-identical results.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .tensor import Tensor, _bands, _bias_grad, _node, _weight_grad


# Which corners sit one pixel further down / right; corner order is
# (y0, x0), (y0, x0 + 1), (y0 + 1, x0), (y0 + 1, x0 + 1).
_NEXT_Y = np.array([False, False, True, True])[None, :, None]
_NEXT_X = np.array([False, True, False, True])[None, :, None]


def _tap_corners(offsets: np.ndarray, k: int, kw: int, padding, h: int, w: int,
                 dtype, row0: int):
    """The four bilinear corners of kernel tap k at every output pixel.

    ``offsets`` holds output rows row0, row0 + 1, ... of the offset field.
    Returns (idx, wts, wts_dy, wts_dx), each (n, 4, rows*ow): flat pixel
    index clipped into the image; bilinear weight, 0 outside the image; and
    the weight's derivatives along the sampling coordinates.
    """
    n, _, oh, ow = offsets.shape
    ki, kj = divmod(k, kw)
    py = (np.arange(row0, row0 + oh, dtype=dtype)[:, None] - padding[0] + ki
          + offsets[:, 2 * k]).reshape(n, 1, -1)
    px = (np.arange(ow, dtype=dtype) - padding[1] + kj
          + offsets[:, 2 * k + 1]).reshape(n, 1, -1)
    # fmax sends NaN to the lower bound; floor() then casts to int64 safely
    py = np.fmin(np.fmax(py, -2), h)
    px = np.fmin(np.fmax(px, -2), w)
    y0, x0 = np.floor(py), np.floor(px)
    fy, fx = py - y0, px - x0
    iy = y0.astype(np.int64) + _NEXT_Y
    ix = x0.astype(np.int64) + _NEXT_X
    inb = (iy >= 0) & (iy < h) & (ix >= 0) & (ix < w)
    idx = np.clip(iy, 0, h - 1) * w + np.clip(ix, 0, w - 1)
    wy = np.where(_NEXT_Y, fy, 1 - fy) * inb
    wx = np.where(_NEXT_X, fx, 1 - fx)
    wts_dy = np.where(_NEXT_Y, wx, -wx) * inb
    wts_dx = np.where(_NEXT_X, wy, -wy)
    return idx, wy * wx, wts_dy, wts_dx


def _gather(flat: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Pixels (n, c, 4, L) of flat (n, c, h*w) at the corner indices idx.

    One ``np.take`` per image with its 1-D index: several times faster than
    a broadcast fancy index. ``idx`` is already clipped into the image, so
    mode="clip" changes nothing and lets ``take`` write ``out`` unbuffered.
    """
    n, c = flat.shape[:2]
    out = np.empty((n, c, *idx.shape[1:]), dtype=flat.dtype)
    for i in range(n):
        np.take(flat[i], idx[i].reshape(-1), axis=1,
                out=out[i].reshape(c, -1), mode="clip")
    return out


def _blend(coef: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """Sum over the 4 corners of coef (n, 4, L) times corners (n, c, 4, L)."""
    return sum(coef[:, None, j] * corners[:, :, j] for j in range(4))


def modulated_deform_conv2d(x: Tensor, weight: Tensor, bias: Tensor | None,
                            offsets: Tensor, masks: Tensor,
                            padding=(1, 1)) -> Tensor:
    """Deformable convolution, stride 1 and dilation 1.

    offsets: (n, 2*K, oh, ow) with channel pairs (dy, dx) per kernel tap,
    taps in row-major order. masks: (n, K, oh, ow), values in [0, 1].
    Gradients flow to x, weight, bias, offsets and masks.
    """
    n, c, h, w = x.shape
    o, ci, kh, kw = weight.shape
    if c != ci:
        raise ConfigurationError(
            f"deform_conv channel mismatch: input {x.shape} vs weight {weight.shape}")
    k_taps = kh * kw
    ph, pw = padding
    out_h = h + 2 * ph - (kh - 1)
    out_w = w + 2 * pw - (kw - 1)
    if offsets.shape != (n, 2 * k_taps, out_h, out_w):
        raise ConfigurationError(
            f"offset field shape {offsets.shape} does not match expected "
            f"{(n, 2 * k_taps, out_h, out_w)} for kernel {kh}x{kw}")
    if masks.shape != (n, k_taps, out_h, out_w):
        raise ConfigurationError(
            f"modulation field shape {masks.shape} does not match expected "
            f"{(n, k_taps, out_h, out_w)}")

    dtype = x.data.dtype
    size = out_h * out_w
    # one output row's deformable columns plus its backward corner tables
    row_bytes = k_taps * out_w * (c * dtype.itemsize
                                  + 4 * (8 + dtype.itemsize))

    def band_fields(images, r0, r1):
        """Offsets, (nb, K, L) modulation and flat-pixel slice of a band."""
        band = slice(r0 * out_w, r1 * out_w)
        mod = masks.data[images].reshape(-1, k_taps, size)[:, :, band]
        return offsets.data[images, :, r0:r1], mod, band

    flat = x.data.reshape(n, c, h * w)
    w2 = weight.data.reshape(o, -1)
    y = np.empty((n, o, size), dtype=np.result_type(w2, dtype))
    for images, r0, r1 in _bands(n, out_h, row_bytes):
        off, mod, band = band_fields(images, r0, r1)
        nb, _, length = mod.shape
        # deformable columns in tensor._im2col's layout
        cols = np.empty((nb, c, k_taps, length), dtype=dtype)
        for k in range(k_taps):
            idx, wts, _, _ = _tap_corners(off, k, kw, padding, h, w, dtype, r0)
            cols[:, :, k] = (_blend(wts, _gather(flat[images], idx))
                             * mod[:, k, None])
        np.matmul(w2, cols.reshape(nb, c * k_taps, length),
                  out=y[images, :, band])
    y = y.reshape(n, o, out_h, out_w)
    if bias is not None:
        y += bias.data

    prev = [x, weight, offsets, masks]
    if bias is not None:
        prev.append(bias)

    def make_backward(out: Tensor):
        def _backward():
            # an upstream float64 gradient would make every product below a
            # mixed-dtype one that numpy runs by upcasting the columns
            grad = out.grad.astype(dtype, copy=False)
            if bias is not None and bias.requires_grad:
                bias.accumulate_grad(_bias_grad(grad))
            gy = grad.reshape(n, o, size)
            # x, offsets and masks are unchanged since forward (op inputs
            # are never mutated in place), so the refilled columns equal
            # the forward's bit for bit
            flat = x.data.reshape(n, c, h * w)
            w2 = weight.data.reshape(o, -1)
            g_off = np.empty((n, 2 * k_taps, size), dtype=offsets.dtype)
            g_mask = np.empty((n, k_taps, size), dtype=masks.dtype)
            gw = np.zeros(w2.shape, dtype=dtype)
            # float64 bins for the whole input, summed over bands in order
            gx = np.zeros((n, c, h * w))
            for images, r0, r1 in _bands(n, out_h, row_bytes):
                off, mod, band = band_fields(images, r0, r1)
                nb, _, length = mod.shape
                gyb = gy[images, :, band]
                gcols = (w2.T @ gyb).reshape(nb, c, k_taps, length)
                cols = np.empty((nb, c, k_taps, length), dtype=dtype)
                idx_all = np.empty((nb, k_taps, 4, length), dtype=np.int64)
                wts_all = np.empty((nb, k_taps, 4, length), dtype=dtype)
                for k in range(k_taps):
                    idx, wts, wts_dy, wts_dx = _tap_corners(
                        off, k, kw, padding, h, w, dtype, r0)
                    idx_all[:, k], wts_all[:, k] = idx, wts
                    # per-corner channel sum of column gradient times
                    # sample; the modulation is channel-independent, so it
                    # factors out
                    v = _gather(flat[images], idx)
                    cols[:, :, k] = _blend(wts, v) * mod[:, k, None]
                    p = np.einsum("ncjl,ncl->njl", v, gcols[:, :, k])
                    g_mask[images, k, band] = (wts * p).sum(axis=1)
                    g_off[images, 2 * k, band] = (
                        mod[:, k] * (wts_dy * p).sum(axis=1))
                    g_off[images, 2 * k + 1, band] = (
                        mod[:, k] * (wts_dx * p).sum(axis=1))
                if weight.requires_grad:
                    gw += _weight_grad(
                        gyb, cols.reshape(nb, c * k_taps, length))
                del cols
                gcols *= mod[:, None]
                # one bincount per image and channel over the band's taps,
                # into the bins between its lowest and highest corner
                for j, i in enumerate(range(n)[images]):
                    lo = int(idx_all[j].min())
                    bins = (idx_all[j] - lo).ravel()
                    for ch in range(c):
                        part = np.bincount(bins, weights=(
                            gcols[j, ch][:, None] * wts_all[j]).ravel())
                        gx[i, ch, lo: lo + len(part)] += part
            if weight.requires_grad:
                weight.accumulate_grad(gw.reshape(weight.shape))
            masks.accumulate_grad(g_mask.reshape(masks.shape))
            offsets.accumulate_grad(g_off.reshape(offsets.shape))
            x.accumulate_grad(gx.astype(dtype).reshape(x.shape))
        return _backward

    return _node(y, tuple(prev), make_backward)
