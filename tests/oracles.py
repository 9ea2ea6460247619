"""Independent brute-force reference implementations used as test oracles,
the separate graph ops that the library fuses, and the traced-memory probe
that the memory tests share.

The numeric references are written as plain nested loops over the defining
formulas, deliberately sharing no code with the library's vectorized paths.
The graph references (``leaky_relu``, ``add``, ``scale``) are ops of the
autodiff graph that the library runs fused: a conv's ``slope`` and ``skip``,
and the offset doubling inside ``upsample_offsets``. Tests compare the fused
ops against compositions of these, bit for bit.
"""

import gc
import tracemalloc

import numpy as np

from sadnet import tensor as T
from sadnet.gradcheck import _proj_loss


def traced_peak(fn):
    """fn's result, and the most traced bytes above the level before it
    while it ran."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def total(y):
    """sum(y) as a scalar graph node: gradcheck's projection loss with a
    projection of ones that costs no memory (a broadcast view)."""
    return _proj_loss(y, np.broadcast_to(np.ones((), y.dtype), y.shape))


def leaky_relu(x, slope=0.2):
    """max(x, slope*x), which is leaky ReLU for a slope in [0, 1]; backward
    scales gy by slope where x < 0.

    A conv's fused activation (``slope``) scales where its activated output
    has its sign bit set, which is where x < 0 for every pre-activation x
    but NaN and -0.0: -0.0 >= 0, so there this op gives gy and the fused op
    slope*gy. A sum is -0.0 only if both terms are (an exact cancellation
    rounds to +0.0), so a conv with a bias yields -0.0 only where its bias
    is -0.0, and the model's convs, which all have one, match this op bit
    for bit.
    """
    y = x.data * slope
    np.maximum(x.data, y, out=y)

    def backward(gy):
        # the sign comes again from x, so forward keeps no mask; scaling the
        # gradient itself keeps its dtype
        x.accumulate_grad(np.where(x.data >= 0, gy, slope * gy))

    return T._node(y, (x,), backward)


def add(a, b):
    """a + b, the residual join that a conv's ``skip`` fuses."""
    y = a.data + b.data

    def backward(gy):
        a.accumulate_grad(gy)
        # a copy, so the two grads never alias (add(x, x) included)
        b.accumulate_grad(gy.copy())

    return T._node(y, (a, b), backward)


def scale(x, factor):
    """x * factor: the doubling that ``upsample_offsets`` applies to the
    upsampled offsets."""
    y = x.data * factor

    def backward(gy):
        x.accumulate_grad(gy * factor)

    return T._node(y, (x,), backward)


def bilinear_sample(feature: np.ndarray, y: float, x: float,
                    batch: int, channel: int) -> float:
    """Reference scalar bilinear sample of feature (n, c, h, w) at (y, x).

    Total function: out-of-bounds pixels contribute 0. The oracle for the
    vectorized sampling of ``sadnet.deform``.
    """
    _, _, h, w = feature.shape
    y0 = int(np.floor(y))
    x0 = int(np.floor(x))
    fy = y - y0
    fx = x - x0
    val = 0.0
    for iy, wy in ((y0, 1.0 - fy), (y0 + 1, fy)):
        for ix, wx in ((x0, 1.0 - fx), (x0 + 1, fx)):
            if 0 <= iy < h and 0 <= ix < w:
                val += wy * wx * float(feature[batch, channel, iy, ix])
    return val


def conv2d_reference(x, w, b=None, stride=(1, 1), dilation=(1, 1), padding=(0, 0)):
    """Direct 7-nested-loop convolution with zero padding."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    sh, sw = stride
    dh, dw = dilation
    ph, pw = padding
    out_h = (h + 2 * ph - dh * (kh - 1) - 1) // sh + 1
    out_w = (wd + 2 * pw - dw * (kw - 1) - 1) // sw + 1
    y = np.zeros((n, o, out_h, out_w), dtype=np.float64)
    for ni in range(n):
        for oi in range(o):
            for oy in range(out_h):
                for ox in range(out_w):
                    acc = 0.0
                    for ci in range(c):
                        for ki in range(kh):
                            for kj in range(kw):
                                iy = oy * sh - ph + ki * dh
                                ix = ox * sw - pw + kj * dw
                                if 0 <= iy < h and 0 <= ix < wd:
                                    acc += w[oi, ci, ki, kj] * x[ni, ci, iy, ix]
                    y[ni, oi, oy, ox] = acc + (b[0, oi, 0, 0] if b is not None else 0.0)
    return y


def conv2d_vjp_reference(x, w, gy, stride=(1, 1), dilation=(1, 1),
                         padding=(0, 0)):
    """Gradients of sum(gy * conv2d(x, w, b)) by x, w and b.

    Scalar loops over the definition: output (oy, ox) of channel oi reads
    x[ci, oy*sh - ph + ki*dh, ox*sw - pw + kj*dw] through w[oi, ci, ki, kj]
    wherever that pixel is inside x, so it sends gy * w to gx and gy * x to
    gw. Returns (gx, gw, gb) in float64.
    """
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    sh, sw = stride
    dh, dw = dilation
    ph, pw = padding
    _, _, out_h, out_w = gy.shape
    gx = np.zeros(x.shape, dtype=np.float64)
    gw = np.zeros(w.shape, dtype=np.float64)
    gb = np.zeros((1, o, 1, 1), dtype=np.float64)
    for ni in range(n):
        for oi in range(o):
            for oy in range(out_h):
                for ox in range(out_w):
                    g = float(gy[ni, oi, oy, ox])
                    gb[0, oi, 0, 0] += g
                    for ci in range(c):
                        for ki in range(kh):
                            for kj in range(kw):
                                iy = oy * sh - ph + ki * dh
                                ix = ox * sw - pw + kj * dw
                                if 0 <= iy < h and 0 <= ix < wd:
                                    gx[ni, ci, iy, ix] += g * w[oi, ci, ki, kj]
                                    gw[oi, ci, ki, kj] += g * x[ni, ci, iy, ix]
    return gx, gw, gb


def conv2d_transpose_reference(x, w, b=None, stride=(2, 2)):
    """Scatter-accumulate transposed convolution."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    sh, sw = stride
    out_h = (h - 1) * sh + kh
    out_w = (wd - 1) * sw + kw
    y = np.zeros((n, o, out_h, out_w), dtype=np.float64)
    for ni in range(n):
        for ci in range(c):
            for iy in range(h):
                for ix in range(wd):
                    for oi in range(o):
                        for ki in range(kh):
                            for kj in range(kw):
                                y[ni, oi, iy * sh + ki, ix * sw + kj] += (
                                    w[oi, ci, ki, kj] * x[ni, ci, iy, ix])
    if b is not None:
        y += b
    return y


def deform_conv_reference(x, w, b, offsets, masks, padding=(1, 1)):
    """Per-pixel evaluation of the modulated deformable convolution formula."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    ph, pw = padding
    out_h = h + 2 * ph - (kh - 1)
    out_w = wd + 2 * pw - (kw - 1)
    y = np.zeros((n, o, out_h, out_w), dtype=np.float64)
    for ni in range(n):
        for oy in range(out_h):
            for ox in range(out_w):
                for k in range(kh * kw):
                    ki, kj = divmod(k, kw)
                    sy = oy - ph + ki + offsets[ni, 2 * k, oy, ox]
                    sx = ox - pw + kj + offsets[ni, 2 * k + 1, oy, ox]
                    m = masks[ni, k, oy, ox]
                    for ci in range(c):
                        v = bilinear_sample(x, sy, sx, ni, ci)
                        for oi in range(o):
                            y[ni, oi, oy, ox] += w[oi, ci, ki, kj] * v * m
    if b is not None:
        y += b
    return y


def deform_conv_vjp_reference(x, w, offsets, masks, gy, padding=(1, 1)):
    """Gradients of sum(gy * deform_conv(x, w, b, offsets, masks)).

    Scalar loops over the bilinear formula: the sample at (sy, sx) is
    sum over the 4 corners (iy, ix) inside the image of wy * wx * x[iy, ix],
    with wy = 1 - fy for row floor(sy) and fy for the row below (same for
    columns), so d(sample)/d(sy) flips the sign of wy's contribution.
    Returns (gx, gw, gb, g_offsets, g_masks) in float64.
    """
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    ph, pw = padding
    _, _, out_h, out_w = gy.shape
    gx = np.zeros(x.shape, dtype=np.float64)
    gw = np.zeros(w.shape, dtype=np.float64)
    gb = gy.sum(axis=(0, 2, 3)).reshape(1, o, 1, 1).astype(np.float64)
    g_off = np.zeros(offsets.shape, dtype=np.float64)
    g_mask = np.zeros(masks.shape, dtype=np.float64)
    for ni in range(n):
        for oy in range(out_h):
            for ox in range(out_w):
                for k in range(kh * kw):
                    ki, kj = divmod(k, kw)
                    sy = oy - ph + ki + float(offsets[ni, 2 * k, oy, ox])
                    sx = ox - pw + kj + float(offsets[ni, 2 * k + 1, oy, ox])
                    m = float(masks[ni, k, oy, ox])
                    y0 = int(np.floor(sy))
                    x0 = int(np.floor(sx))
                    fy, fx = sy - y0, sx - x0
                    corners = []
                    for iy, wy, dwy in ((y0, 1.0 - fy, -1.0), (y0 + 1, fy, 1.0)):
                        for ix, wx, dwx in ((x0, 1.0 - fx, -1.0),
                                            (x0 + 1, fx, 1.0)):
                            if 0 <= iy < h and 0 <= ix < wd:
                                corners.append((iy, ix, wy, wx, dwy, dwx))
                    for ci in range(c):
                        # column gradient: d(loss)/d(m * sample)
                        gs = 0.0
                        for oi in range(o):
                            gs += gy[ni, oi, oy, ox] * w[oi, ci, ki, kj]
                        val = dval_y = dval_x = 0.0
                        for iy, ix, wy, wx, dwy, dwx in corners:
                            px = float(x[ni, ci, iy, ix])
                            val += wy * wx * px
                            dval_y += dwy * wx * px
                            dval_x += wy * dwx * px
                            gx[ni, ci, iy, ix] += gs * m * wy * wx
                        for oi in range(o):
                            gw[oi, ci, ki, kj] += gy[ni, oi, oy, ox] * m * val
                        g_mask[ni, k, oy, ox] += gs * val
                        g_off[ni, 2 * k, oy, ox] += gs * m * dval_y
                        g_off[ni, 2 * k + 1, oy, ox] += gs * m * dval_x
    return gx, gw, gb, g_off, g_mask


def ssim_reference(a, b, window, c1, c2):
    """Naive sliding-window SSIM over valid positions, one channel."""
    size = window.shape[0]
    h, w = a.shape
    vals = []
    for i in range(h - size + 1):
        for j in range(w - size + 1):
            pa = a[i:i + size, j:j + size]
            pb = b[i:i + size, j:j + size]
            mu_a = (window * pa).sum()
            mu_b = (window * pb).sum()
            va = (window * pa * pa).sum() - mu_a ** 2
            vb = (window * pb * pb).sum() - mu_b ** 2
            vab = (window * pa * pb).sum() - mu_a * mu_b
            vals.append(((2 * mu_a * mu_b + c1) * (2 * vab + c2))
                        / ((mu_a ** 2 + mu_b ** 2 + c1) * (va + vb + c2)))
    return float(np.mean(vals))


def bilinear_upsample_reference(x):
    """Direct half-pixel-center bilinear 2x upsampling of (n, c, h, w)."""
    n, c, h, w = x.shape
    y = np.zeros((n, c, 2 * h, 2 * w), dtype=np.float64)
    for oy in range(2 * h):
        for ox in range(2 * w):
            sy = (oy + 0.5) / 2 - 0.5
            sx = (ox + 0.5) / 2 - 0.5
            y0 = int(np.floor(sy))
            x0 = int(np.floor(sx))
            ty = sy - y0
            tx = sx - x0
            y0c, y1c = np.clip(y0, 0, h - 1), np.clip(y0 + 1, 0, h - 1)
            x0c, x1c = np.clip(x0, 0, w - 1), np.clip(x0 + 1, 0, w - 1)
            y[:, :, oy, ox] = ((1 - ty) * (1 - tx) * x[:, :, y0c, x0c]
                               + (1 - ty) * tx * x[:, :, y0c, x1c]
                               + ty * (1 - tx) * x[:, :, y1c, x0c]
                               + ty * tx * x[:, :, y1c, x1c])
    return y


def sample_batch_reference(rng, images, sigmas, batch_size, patch_size):
    """Training patches drawn the way the float32 corpus drew them.

    ``images`` are (h, w, c) uint8 arrays. Each whole image is dequantized
    first, then cropped; the dihedral transform is written out as index
    maps (a horizontal flip for codes >= 4, then code % 4 counter-clockwise
    quarter turns, each a transpose followed by reversing the rows).
    Returns (noisy, clean, codes) with the same draw order as training:
    image index, top, left, augment code, noise.
    """
    ps = patch_size
    clean_parts, noisy_parts, codes = [], [], []
    for _ in range(batch_size):
        ei = int(rng.integers(0, len(images)))
        h, w, _ = images[ei].shape
        whole = (images[ei].astype(np.float32) / 255.0).transpose(2, 0, 1)
        top = int(rng.integers(0, h - ps + 1))
        left = int(rng.integers(0, w - ps + 1))
        patch = whole[:, top:top + ps, left:left + ps]
        code = int(rng.integers(0, 8))
        rows, cols = np.mgrid[0:ps, 0:ps]
        if code >= 4:
            cols = cols[:, ::-1]
        for _ in range(code % 4):
            rows, cols = rows.T[::-1], cols.T[::-1]
        patch = patch[:, rows, cols][None]
        noise = rng.normal(0.0, sigmas[ei] / 255.0,
                           patch.shape).astype(np.float32)
        clean_parts.append(patch)
        noisy_parts.append(patch + noise)
        codes.append(code)
    return (np.concatenate(noisy_parts, axis=0),
            np.concatenate(clean_parts, axis=0), codes)
