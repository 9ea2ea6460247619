"""Modulated deformable convolution (DCNv2, Zhu et al. 2019, arXiv:1811.11168).

Each output pixel samples the input bilinearly at one learned fractional
offset per kernel tap, scales each sample by a learned modulation in
[0, 1], and applies the kernel weights, in column (im2col) form.

Layout: channels last, in the row bands of ``tensor._bands``; all a band
builds counts in its row bytes. One pass per band gives each tap's corner
table: the flat index of the upper-left corner in the input zero-padded by
2, and the fractions fy, fx. The window copies only the padded rows the
corners touch, channels last, images stacked. Per tap, one ``np.take``
fetches all 4 corners (4, nb, L, c) and one einsum blends them into the
tap's slot of (nb, L, K, c) columns; one GEMM with the weight as
(o, kh, kw, c) gives the output. Backward rebuilds the columns for the
weight gradient; in the same tap loop, one GEMM per tap gives that tap's
channels-last column gradient (nb, L, c), whose channel contraction with
the tap's corners, p (4, nb, L), gives the mask and offset gradients
through the closed-form bilinear derivatives; no band-wide tap-major
column gradient (K times as large) is built. A second GEMM gives the
channel-first column gradient for the input gradient, which the band
scatters into the window its forward gathers from: one ``np.bincount``
per channel and corner over the band, into channel-major float64 bins
(c, window pixels). Corner 0's bins are the indices its gather takes
(base + shift), and corner j's lie 0, 1, wp or wp + 1 further. The
window's interior is then added once, with the cast, into the input
gradient of the layer dtype, and the band's buffers go before the next
band builds its own: no float64 bins span the image. A ``slope`` fuses a
leaky ReLU as in ``tensor.conv2d``; backward scales the output gradient
in its own dtype, in place, before its cast.

Padding rule: samples outside the image read 0; points never move into it.
Coordinates are clamped to [-2, h] x [-2, w] before ``floor()``, so every
corner lies in the padded input; beyond those bounds all four corners are
outside the image (weight and derivative 0): no finite result changes, and
NaN, inf and huge offsets sample zeros. At exact integer coordinates the
gradient is the one-sided derivative from the upper cell (floor()
anchoring); gradient checks must perturb offsets away from integers.

Determinism: bands, taps, channels and corners run in a fixed order and each
bincount adds in float64 in a fixed order: identical inputs give identical
bits. Each band's window rounds to the layer dtype as it is added, so where
two bands' windows overlap (offsets reach across a band boundary) the input
gradient rounds once per band, and another band split may differ in the
last bits. The GEMM sums in (tap, channel) order, not conv2d's (channel,
tap), so zero offsets and unit masks match ``conv2d`` to rounding, not bit
for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .tensor import (Tensor, _bands, _bias_grad, _leaky, _leaky_grad, _node,
                     _reused, _span, _weight_grad)

# Zero padding of the sampled input; the [-2, h] clamp keeps every corner in.
_PAD = 2


def _band_samples(x: np.ndarray, off: np.ndarray, r0: int, kw: int, padding):
    """Corner table (base, fy, fx), each (K, nb, L), of output rows r0, ...;
    the window, (pixels, c), and the input row at its row 0; and shift
    (4, nb, 1), from a padded-input base index to its corners (y0, x0),
    (y0, x0 + 1), (y0 + 1, x0), (y0 + 1, x0 + 1) in the window."""
    nb, c, h, w = x.shape
    _, k2, rows, ow = off.shape
    wp = w + 2 * _PAD
    ki, kj = np.divmod(np.arange(k2 // 2), kw)

    def coord(field, grid, size):
        # (K, nb, rows, ow) coordinates; fmax sends NaN to the lower bound,
        # so floor() then casts to int safely
        p = np.add(field.transpose(1, 0, 2, 3), grid.astype(field.dtype))
        np.fmin(np.fmax(p, -_PAD, out=p), size, out=p)
        p0 = np.floor(p)
        p -= p0
        return ((p0.astype(np.intp) + _PAD).reshape(len(ki), nb, -1),
                p.astype(x.dtype, copy=False).reshape(len(ki), nb, -1))

    iy, fy = coord(off[:, 0::2], np.arange(r0, r0 + rows)[:, None]
                   - padding[0] + ki[:, None, None, None], h)
    ix, fx = coord(off[:, 1::2], np.arange(ow) - padding[1]
                   + kj[:, None, None, None], w)
    iy *= wp
    base = np.add(iy, ix, out=iy)
    # padded rows [lo, hi) hold every corner of the band
    lo, hi = int(base.min()) // wp, int(base.max()) // wp + 2
    win = np.zeros((nb, hi - lo, wp, c), dtype=x.dtype)
    top = lo - _PAD  # the input row at window row 0
    i0, i1 = _span(top, hi - lo, h)
    win[:, i0:i1, _PAD:_PAD + w] = x[:, :, top + i0: top + i1].transpose(
        0, 2, 3, 1)
    shift = (np.array([0, 1, wp, wp + 1])[:, None, None]
             + ((np.arange(nb) * (hi - lo) - lo) * wp)[:, None])
    return base, fy, fx, win.reshape(-1, c), top, shift


def _corner_weights(fy: np.ndarray, fx: np.ndarray, m: np.ndarray):
    """The 4 bilinear weights times the modulation, stacked in corner order."""
    b = fy * m
    a = m - b
    ax, bx = a * fx, b * fx
    return np.stack((a - ax, ax, b - bx, bx))


def modulated_deform_conv2d(x: Tensor, weight: Tensor, bias: Tensor | None,
                            offsets: Tensor, masks: Tensor,
                            padding=(1, 1),
                            slope: float | None = None) -> Tensor:
    """Deformable convolution, stride 1 and dilation 1, then a leaky ReLU
    if ``slope`` is given (as in ``tensor.conv2d``).

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
    item = dtype.itemsize
    wp = w + 2 * _PAD
    # bytes per output row of one image: corner table, columns, window row,
    # one tap's gather, index, weights and blend. Backward's tap loop adds
    # one tap's column gradient and p; its scatter holds instead the table,
    # the channel-first column gradient, the bins (the table flattened, a
    # copy for a band of several images), the product and its float64 copy
    # inside bincount, the corner weights, and a window row of float64
    # input-gradient bins with one bincount result
    fwd_row = (out_w * (k_taps * (8 + 2 * item + c * item)
                        + 4 * (c * item + 8 + item) + c * item)
               + wp * c * item)
    bwd_row = max(fwd_row + out_w * (c * item + 10 * item),
                  out_w * k_taps * (8 + 2 * item + c * item + 16 + 5 * item)
                  + wp * (c + 1) * 8)

    def band_columns(images, r0, r1, store, each_tap=None):
        """(nb, L, K*c) columns of a band; its table with (nb, K, L) masks;
        and where its window lies: shift (4, nb, 1), the input row at
        window row 0 and the window's length in pixels.
        ``each_tap(k, corners, fy, fx, m)`` runs after each tap's blend."""
        mod = masks.data[images].reshape(-1, k_taps, size)[
            :, :, r0 * out_w: r1 * out_w].astype(dtype, copy=False)
        base, fy, fx, win, top, shift = _band_samples(
            x.data[images], offsets.data[images, :, r0:r1], r0, kw, padding)
        nb, _, length = mod.shape
        cols = _reused(store, "cols", (nb, length, k_taps, c), dtype)
        corners = _reused(store, "corners", (4, nb, length, c), dtype)
        blend = _reused(store, "blend", (nb, length, c), dtype)
        for k in range(k_taps):
            np.take(win, base[k] + shift, axis=0, out=corners, mode="clip")
            # einsum into a strided slot runs at half speed: blend, then copy
            np.einsum("jnlc,jnl->nlc", corners,
                      _corner_weights(fy[k], fx[k], mod[:, k]), out=blend)
            cols[:, :, k] = blend
            if each_tap is not None:
                each_tap(k, corners, fy[k], fx[k], mod[:, k])
        return (cols.reshape(nb, length, k_taps * c), (base, fy, fx, mod),
                (shift, top, len(win)))

    # the weight as (o, K*c), matching the columns' channels-last order
    w_cl = weight.data.transpose(0, 2, 3, 1).reshape(o, -1)
    y = np.empty((n, o, size), dtype=np.result_type(w_cl, dtype))
    store = {}  # the bands share buffers, so their pages fault in once
    for images, r0, r1 in _bands(n, out_h, fwd_row):
        cols, _, _ = band_columns(images, r0, r1, store)
        np.matmul(w_cl, cols.transpose(0, 2, 1),
                  out=y[images, :, r0 * out_w: r1 * out_w])
    y = y.reshape(n, o, out_h, out_w)
    if bias is not None:
        y += bias.data
    if slope is not None:
        _leaky(y, slope)

    def backward(grad):
        if slope is not None:
            # the activation's backward comes first, in the gradient's own
            # dtype, before the cast
            _leaky_grad(grad, out.data, slope)
        # an upstream float64 gradient would make every product below a
        # mixed-dtype one that numpy runs by upcasting the columns
        grad = grad.astype(dtype, copy=False)
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(_bias_grad(grad))
        gy = grad.reshape(n, o, size)
        # op inputs are never mutated in place, so the rebuilt columns
        # equal the forward's bit for bit
        w_taps = weight.data.transpose(2, 3, 0, 1).reshape(k_taps, o, c)
        g_off = np.empty((n, 2 * k_taps, size), dtype=offsets.dtype)
        g_mask = np.empty((n, k_taps, size), dtype=masks.dtype)
        gw = np.zeros((o, k_taps * c), dtype=dtype)
        gx = np.zeros((n, c, h, w), dtype=dtype)
        for images, r0, r1 in _bands(n, out_h, bwd_row):
            band = slice(r0 * out_w, r1 * out_w)
            gyb = gy[images, :, band]

            def each_tap(k, corners, fy, fx, m):
                # tap k's channels-last column gradient (nb, L, c), then its
                # per-corner channel sum with the samples
                g_k = np.matmul(gyb.transpose(0, 2, 1), w_taps[k])
                p = np.einsum("jnlc,nlc->jnl", corners, g_k)
                d0, d1 = p[1] - p[0], p[3] - p[2]
                q0, q1 = p[0] + fx * d0, p[2] + fx * d1
                g_mask[images, k, band] = q0 + fy * (q1 - q0)
                g_off[images, 2 * k, band] = m * (q1 - q0)
                g_off[images, 2 * k + 1, band] = m * (d0 + fy * (d1 - d0))

            cols, (base, fy, fx, mod), (shift, top, length) = band_columns(
                images, r0, r1, {}, each_tap)
            gw += _weight_grad(gyb, cols.transpose(0, 2, 1))
            del cols
            wts = _corner_weights(fy, fx, mod.transpose(1, 0, 2))
            # channel-first column gradient, viewed as (c, K, nb, L)
            g_cf = (weight.data.reshape(o, -1).T @ gyb).reshape(
                -1, c, k_taps, gyb.shape[2]).transpose(1, 2, 0, 3)
            # corner 0's bins in the window, the indices its gather took
            base += shift[0]
            bins = base.ravel()
            prod = np.empty(base.shape, dtype=dtype)
            win = np.zeros((c, length))  # float64 bins, channel-major
            for ch in range(c):
                for wt, at in zip(wts, (0, 1, wp, wp + 1)):
                    np.multiply(wt, g_cf[ch], out=prod)
                    part = np.bincount(bins, weights=prod.ravel())
                    win[ch, at: at + len(part)] += part
            # the window's interior, cast once into the input gradient
            nb = gyb.shape[0]
            win = win.reshape(c, nb, -1, wp)
            i0, i1 = _span(top, win.shape[2], h)
            gx[images, :, top + i0: top + i1] += win[
                :, :, i0:i1, _PAD:_PAD + w].transpose(1, 0, 2, 3)
            # release this band's buffers before the next band builds its own
            del g_cf, wts, wt, prod, bins, part, win, base, fy, fx, mod
        weight.accumulate_grad(np.ascontiguousarray(
            gw.reshape(o, kh, kw, c).transpose(0, 3, 1, 2)))
        masks.accumulate_grad(g_mask.reshape(masks.shape))
        offsets.accumulate_grad(g_off.reshape(offsets.shape))
        x.accumulate_grad(gx)

    out = _node(y, (x, weight, offsets, masks, bias), backward)
    return out
