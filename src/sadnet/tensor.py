"""Minimal dense 4-D tensor with reverse-mode automatic differentiation.

Every value is a (batch, channel, height, width) array. Operations build a
graph of backward closures only when an input requires gradients;
``Tensor.backward()`` on a scalar output walks the graph in reverse
topological order and accumulates gradients into the ``grad`` field of every
reachable leaf with ``requires_grad=True``.

Op contract: an op computes its output y and a function ``backward(gy)``
that adds the inputs' gradients for an output gradient gy, and returns
``_node(y, inputs, backward)``. ``_node`` binds the output's own gradient
once, as the zero-argument ``Tensor._backward`` that the sweep calls (and
that perfbench's tracer wraps and calls the same way).

A graph holds each activation value once. ``concat_channels`` rebinds the
``data`` of each graph input (a tensor with a ``_backward``) to a view of
its channels in the output, so the input's own array goes; the values
never change. Leaves and tensors without gradients keep their own arrays,
since the optimizer updates parameters in place (shared storage for
concatenation: Pleiss et al. 2017, arXiv:1707.06990). ``slice_channels``
returns a view of its input. ``conv2d``'s ``skip`` adds a residual input
into the conv's own output and receives its own copy of the output
gradient: a residual join keeps no conv output that only a separate sum
would read. A conv's ``slope`` (``conv2d`` and the deformable conv) is
the leaky ReLU after it: forward writes max(y, slope*y) into the conv's
own fresh output after the bias and the skip (``_leaky``), so the graph
holds the activation alone, not the conv output beside it (In-Place
Activated BatchNorm keeps only an invertible activation's output in the
same way: Rota Bulo et al. 2018, arXiv:1712.02616). Backward first scales
the output gradient in place by slope wherever the activated output's
sign bit is set (``_leaky_grad``); a tensor's backward owns its ``grad``,
so the write needs no copy. It reads that sign through the output
tensor, so after ``concat_channels`` rebinds the output the old array
goes. The sign bit is set wherever the pre-activation is below 0, and
also where it is -0.0, which a conv with a bias yields only where its
bias is -0.0 (a sum is -0.0 only if both terms are).

``backward()`` consumes the graph: once a node's closure has run, the node
drops its closure, its inputs and its gradient, so each op's saved state is
freed during the sweep instead of waiting for the cyclic collector. Leaves
(parameters, inputs) keep their ``grad``. A second ``backward()`` on the same
graph is unsupported; build the graph again instead.

Every dense convolution runs on one core: ``_conv`` and its adjoint
``_conv_vjp``, in one layout. ``_conv`` copies its input once per kernel
row, as whole-width row slabs (n, c*kh, oh*w) that read zeros above and
below the input, and runs one GEMM of the weight as a (kw*out_c, in_c*kh)
matrix with them. The output is the sum of the product's kw row blocks,
block kj shifted by kj*dw - pw columns, with zeros where it leaves the
input (MEC, Cho & Brand 2017, arXiv:1706.06873; kn2row, Anderson et al.
2017, arXiv:1709.03395): 1/kw of the bytes of im2col columns, copied in
whole rows. ``_conv_vjp`` runs the same steps transposed, in reverse: kw
column-shifted copies of the output gradient take the product's place
(the adjoint of the shifted adds); against the slabs they give the
weight gradient in the same (kw*out_c, in_c*kh) layout, and the weight's
transpose times them gives the slabs' gradient, whose kh row blocks add
into the input gradient (the adjoint of the slab copies). A strided
``conv2d`` must have stride == kernel, padding 0 and dilation 1, else it
raises ``ConfigurationError``; a ``conv2d_transpose``'s stride is its
kernel, so it takes no stride. Their blocks do not overlap, so each is a
1x1 conv of blocks (Shi et al. 2016, arXiv:1609.05158): of its input's,
the permuted copy ``_space_to_depth``, in ``conv2d``; into its output's,
by the adjoint ``_depth_to_space`` that sums nothing, in
``conv2d_transpose``. A convolution keeps no slabs from forward to
backward (Chen et al. 2016, arXiv:1604.06174): ``_conv_vjp`` copies its
input's rows again, and a strided ``conv2d`` rebuilds its input's blocks.
Both rely on the ``Tensor`` convention that ``data`` is never mutated in
place while a graph uses it, so a training step holds only the graph's
own tensors.

``_conv``, ``_conv_vjp`` and the deformable conv work in bands of rows
(``_bands``): row slabs, GEMMs and shifted copies or adds run one band at
a time, and what a band builds fits in ``_BAND_BYTES`` (8 MiB; at least
one row of one image). ``_conv`` and ``_conv_vjp`` band alike
(``_slab_bands``): their bands split output rows and count c*kh slab rows
and kw*o product or shifted-gradient rows per output pixel, in one buffer
that the bands of one call share (``_reused``). So what one op allocates
beyond its inputs, output and gradients does not grow with the image.
Whole images share a band while they fit, in groups as even as the
budget allows, which leaves small layers in one band. A 1x1 conv takes
the same path as any other kernel: its slab and product rows are copies.
A strided ``conv2d``'s space-to-depth copy is the size of its input.

Every backward closure keeps the gradient in its layer's dtype: a float32
graph never turns a gradient float64, which would make each GEMM below it
upcast its operands.

Determinism: all forward and backward computations are plain sequential
numpy expressions; the reduction order is fixed (in forward, the GEMM over
(channel, kernel row), then the shifted adds in kernel-column order; in
backward, the GEMMs over (kernel column, output channel) and over the
band's pixels, then the slabs' gradients in kernel-row order; bands from
the first image and row to the last), so two runs on identical inputs
produce bit-identical results.
Weight-gradient partials, and the input-gradient rows that two bands'
slabs share, are summed band by band in that order, so a gradient may
differ in the last bits from an unbanded sum. Splitting the GEMM's
columns into bands leaves each output element's dot product alone,
but OpenBLAS may round a narrow column block otherwise than the same
columns inside a wide one; forwards of the stock model at 160x240 and
320x480 matched the unbanded ones bit for bit. The deformable conv's
channels-last GEMM sums a pixel's products in (tap, channel) order,
``conv2d`` in (channel, kernel row) order and then over kernel columns, so
with zero offsets and unit masks the two (acceptance criterion 1) may
differ by rounding instead of exactly 0, but stay within 1e-6.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, UsageError


class Tensor:
    """Dense 4-D array node in the autodiff graph.

    ``data``'s values never change while a graph uses it: the optimizer
    updates parameter contents in place between graph constructions, and
    ``concat_channels`` may rebind a graph input's ``data`` to a view of
    its output that holds the same values.
    """

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_prev")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.ndim != 4:
            raise ConfigurationError(
                f"Tensor requires a 4-D (n, c, h, w) array, got shape {arr.shape}"
            )
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._backward = None
        self._prev: tuple[Tensor, ...] = ()

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add g to ``grad``; the first g is stored as it is, not copied.

        A caller must hand over an array that nothing else writes to: a fresh
        result, or a view no other tensor's grad shares (``conv2d`` gives
        its ``skip`` a copy of the output gradient; ``concat_channels``'
        split views are disjoint). So a tensor's own backward may write its
        ``grad`` in place (a conv's activation does).
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar output; consumes the graph."""
        if self.data.size != 1:
            raise UsageError(
                f"backward() requires a scalar loss, got shape {self.shape}"
            )
        topo = _graph(self)
        self.grad = np.ones_like(self.data)
        while topo:
            # popping lets a spent node's activation go with its last consumer
            node = topo.pop()
            if node._backward is not None:
                node._backward()
                # break the out -> closure -> out cycle and free saved state
                node._backward = None
                node._prev = ()
                node.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _graph(root: Tensor) -> list[Tensor]:
    """Every tensor reachable from root, each after all of its inputs."""
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._prev:
            if id(p) not in visited:
                stack.append((p, False))
    return topo


def _node(data: np.ndarray, inputs, backward) -> Tensor:
    """Wrap an op result; ``None`` inputs (an absent bias) are left out, and
    ``backward`` is dropped when no input needs gradients."""
    inputs = tuple(t for t in inputs if t is not None)
    out = Tensor(data, requires_grad=any(t.requires_grad for t in inputs))
    if out.requires_grad:
        out._prev = inputs
        out._backward = lambda: backward(out.grad)
    return out


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None


# ---------------------------------------------------------------------------
# Convolution family
# ---------------------------------------------------------------------------


def conv_output_size(size: int, k: int, stride: int, dilation: int, pad: int) -> int:
    return (size + 2 * pad - dilation * (k - 1) - 1) // stride + 1


def _span(start: int, count: int, size: int) -> tuple[int, int]:
    """The outputs [i0, i1) of ``count`` whose index start + i lies in
    [0, size)."""
    i0 = min(count, max(0, -start))
    return i0, max(i0, min(count, size - start))


def _space_to_depth(a: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """a's whole kh x kw blocks as (n, c*kh*kw, h//kh, w//kw), channel
    c*kh*kw + tap with taps in row-major order: a conv whose stride is its
    kernel is the 1x1 conv of these."""
    n, c, h, w = a.shape
    oh, ow = h // kh, w // kw
    blocks = a[:, :, :oh * kh, :ow * kw].reshape(n, c, oh, kh, ow, kw)
    return blocks.transpose(0, 1, 3, 5, 2, 4).reshape(n, c * kh * kw, oh, ow)


def _depth_to_space(blocks: np.ndarray, out: np.ndarray, kh: int,
                    kw: int) -> np.ndarray:
    """Write blocks into out's whole kh x kw blocks, one slice per tap and
    nothing summed: the adjoint of ``_space_to_depth``. Returns out."""
    n, c, h, w = out.shape
    oh, ow = h // kh, w // kw
    blocks = blocks.reshape(n, c, kh, kw, oh, ow)
    for ki in range(kh):
        for kj in range(kw):
            out[:, :, ki: oh * kh: kh, kj: ow * kw: kw] = blocks[:, :, ki, kj]
    return out


# Most bytes one band may build. Convolutions build their row slabs or
# columns, run their GEMMs and write their column gradients band by band,
# so what one op allocates stays near this size whatever the image size.
# At 8 MiB a batch-4, patch-64 training step (the acceptance smoke config)
# splits only its two scale-0 layers, by whole images into 2 + 2: the
# deformable conv (11.0 MB of columns and tables in forward, 13.6 MB
# counted in backward) and the 35->27 offset head (12.2 MB of row slabs
# and GEMM product or shifted output gradient, in forward and backward
# alike). Every other op of that step takes one band. A stock
# batch-2, patch-128 step times level with 16 MiB and about 5% slower at
# 4 MiB (``BENCH_band_budget.json``). A 320x480 stock denoise peaks at less
# than half of what whole-image columns take.
_BAND_BYTES = 8 << 20


def _bands(n: int, rows: int, row_bytes: int):
    """Yield (images, r0, r1) bands of ``rows`` rows per image in a fixed
    order.

    ``row_bytes`` is what one row of one image costs. Whole images are
    grouped while they fit in ``_BAND_BYTES``, in the fewest groups, whose
    sizes differ by at most one image; a larger image is cut into bands of
    rows, image by image (at least one row per band).
    """
    per_band = max(1, _BAND_BYTES // row_bytes)
    if per_band >= rows:
        groups = -(-n // (per_band // rows))
        for b in range(groups):
            yield slice(n * b // groups, n * (b + 1) // groups), 0, rows
    else:
        for i in range(n):
            for r0 in range(0, rows, per_band):
                yield slice(i, i + 1), r0, min(rows, r0 + per_band)


def _weight_grad(gy: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Sum over the batch of gy[i] @ cols[i].T: (n, o, L), (n, K, L) -> (o, K).

    A batched matmul then a sum; ``np.tensordot`` would copy the columns.
    """
    return np.matmul(gy, cols.transpose(0, 2, 1)).sum(axis=0)


def _bias_grad(gy: np.ndarray) -> np.ndarray:
    return gy.sum(axis=(0, 2, 3)).reshape(1, -1, 1, 1)


def _reused(store: dict, key: str, shape, dtype) -> np.ndarray:
    """store[key] viewed as shape, reallocated only when it is too small."""
    size = int(np.prod(shape))
    if key not in store or store[key].size < size:
        store[key] = np.empty(size, dtype)
    return store[key][:size].reshape(shape)


def _slab_bands(x: np.ndarray, kh: int, dh: int, ph: int, out_h: int,
                block_rows: int, dtype):
    """Yield (images, r0, r1, slabs, block) per band of output rows [r0, r1)
    of a stride-1 conv of x with kh kernel rows.

    slabs (nb, c, kh, rows, w): slab ki holds input rows r0 - ph + ki*dh + i,
    zero outside x. block (nb, block_rows, rows*w) is for the caller to
    fill. Both are views of one buffer that the bands share.
    """
    n, c, h, wd = x.shape
    # the bands share one buffer of slabs and block, so its pages fault in
    # once per call; with two buffers, freeing both made glibc hand the pages
    # back to the system after every call (about 1000 faults per call at
    # 2x32x128x128)
    store = {}
    for images, r0, r1 in _bands(n, out_h, (c * kh + block_rows) * wd
                                 * dtype.itemsize):
        xb = x[images]
        nb, rows, r = len(xb), r1 - r0, r0 - ph
        slab_size = nb * c * kh * rows * wd
        band = _reused(store, "band", slab_size + nb * block_rows * rows * wd,
                       dtype)
        slabs = band[:slab_size].reshape(nb, c, kh, rows, wd)
        for ki in range(kh):
            s = r + ki * dh
            i0, i1 = _span(s, rows, h)
            slabs[:, :, ki, :i0] = 0
            slabs[:, :, ki, i1:] = 0
            slabs[:, :, ki, i0:i1] = xb[:, :, s + i0: s + i1]
        yield (images, r0, r1, slabs,
               band[slab_size:].reshape(nb, block_rows, rows * wd))


def _conv(x: np.ndarray, w: np.ndarray, dilation, padding) -> np.ndarray:
    """Stride-1 cross-correlation of arrays, (n, c, h, w) by (o, c, kh, kw),
    per band of output rows: kh row-shifted copies of the input, one GEMM
    for all kw kernel columns, and kw column-shifted adds."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    dh, dw = dilation
    ph, pw = padding
    out_h = conv_output_size(h, kh, 1, dh, ph)
    out_w = conv_output_size(wd, kw, 1, dw, pw)
    # row kj*o + oc of the weight pairs with slab row ci*kh + ki
    w2 = w.transpose(3, 0, 1, 2).reshape(kw * o, c * kh)
    dtype = np.result_type(w2, x)
    y = np.empty((n, o, out_h, out_w), dtype=dtype)
    for images, r0, r1, slabs, block in _slab_bands(x, kh, dh, ph, out_h,
                                                    kw * o, dtype):
        nb, rows = len(slabs), r1 - r0
        prod = np.matmul(w2, slabs.reshape(nb, c * kh, rows * wd),
                         out=block).reshape(nb, kw, o, rows, wd)
        yb = y[images, :, r0:r1]
        # output column j of kernel column kj reads input column j + q
        for kj in range(kw):
            q = kj * dw - pw
            j0, j1 = _span(q, out_w, wd)
            part = prod[:, kj, :, :, q + j0: q + j1]
            if kj == 0:
                yb[..., :j0] = 0
                yb[..., j1:] = 0
                yb[..., j0:j1] = part
            else:
                yb[..., j0:j1] += part
    return y


def _conv_vjp(gy: np.ndarray, x: np.ndarray, w: np.ndarray, dilation,
              padding, want_gx: bool, want_gw: bool):
    """(gx, gw) of ``_conv`` for the output gradient gy, each None unless
    wanted: ``_conv``'s bands, each step transposed.

    The block takes kw column-shifted copies of gy (the adjoint of the
    shifted adds); against the slabs it gives the weight gradient, and the
    weight's transpose times it the slabs' gradient, whose kh row blocks add
    into gx (the adjoint of the slab copies).
    """
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    dh, dw = dilation
    ph, pw = padding
    out_h, out_w = gy.shape[2:]
    w2 = w.transpose(3, 0, 1, 2).reshape(kw * o, c * kh)
    dtype = np.result_type(w2, x, gy)
    gx = np.zeros(x.shape, dtype) if want_gx else None
    gw2 = np.zeros(w2.shape, dtype) if want_gw else None
    # input rows in two bands' slabs and the weight partials add up band by
    # band in a fixed order
    for images, r0, r1, slabs, block in _slab_bands(x, kh, dh, ph, out_h,
                                                    kw * o, dtype):
        nb, rows, r = len(slabs), r1 - r0, r0 - ph
        gyb = gy[images, :, r0:r1]
        shifted = block.reshape(nb, kw, o, rows, wd)
        # product column j + q of kernel column kj takes gy's column j, and
        # 0 where no output column reads it
        for kj in range(kw):
            q = kj * dw - pw
            j0, j1 = _span(q, out_w, wd)
            shifted[:, kj, ..., :q + j0] = 0
            shifted[:, kj, ..., q + j1:] = 0
            shifted[:, kj, ..., q + j0: q + j1] = gyb[..., j0:j1]
        flat = slabs.reshape(nb, c * kh, rows * wd)
        if gw2 is not None:
            gw2 += _weight_grad(block, flat)
        if gx is not None:
            # the slabs are spent: their gradient overwrites them
            np.matmul(w2.T, block, out=flat)
            for ki in range(kh):
                s = r + ki * dh
                i0, i1 = _span(s, rows, h)
                gx[images, :, s + i0: s + i1] += slabs[:, :, ki, i0:i1]
    if gw2 is not None:
        gw2 = np.ascontiguousarray(
            gw2.reshape(kw, o, c, kh).transpose(1, 2, 3, 0))
    return gx, gw2


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride=(1, 1), dilation=(1, 1), padding=(0, 0),
           skip: Tensor | None = None, slope: float | None = None) -> Tensor:
    """2-D cross-correlation with zero padding, plus ``skip`` if given,
    then a leaky ReLU if ``slope`` is given.

    weight: (out_c, in_c, kh, kw); bias: (1, out_c, 1, 1) or None; skip:
    None or a tensor of the output's shape, added after the bias, so a
    residual join keeps no conv output that only its sum reads. slope:
    None, or the leaky ReLU slope in [0, 1]: max(y, slope*y) is applied
    last, so the graph keeps no pre-activation (``_leaky``). A stride
    other than 1 must equal the kernel, with padding 0 and dilation 1
    (non-overlapping blocks, the 2x2 down conv). Differentiable w.r.t. x,
    weight, bias and skip.
    """
    n, c, h, w = x.shape
    o, ci, kh, kw = weight.shape
    if c != ci:
        raise ConfigurationError(
            f"conv2d channel mismatch: input shape {x.shape} has {c} channels, "
            f"weight shape {weight.shape} expects {ci}"
        )
    strided = tuple(stride) != (1, 1)
    if strided and (tuple(stride), tuple(dilation), tuple(padding)) != (
            (kh, kw), (1, 1), (0, 0)):
        raise ConfigurationError(
            f"strided conv2d needs stride == kernel, dilation 1, padding 0; "
            f"got stride {stride}, kernel {kh}x{kw}, dilation {dilation}, "
            f"padding {padding}")
    out_h = conv_output_size(h, kh, stride[0], dilation[0], padding[0])
    out_w = conv_output_size(w, kw, stride[1], dilation[1], padding[1])
    if out_h < 1 or out_w < 1:
        raise ConfigurationError(
            f"conv2d output would be empty: input {x.shape}, kernel {kh}x{kw}, "
            f"stride {stride}, dilation {dilation}, padding {padding}"
        )
    if skip is not None and skip.shape != (n, o, out_h, out_w):
        raise ConfigurationError(
            f"conv2d skip shape {skip.shape} does not match its output "
            f"{(n, o, out_h, out_w)}")

    def stride1():
        """The ``_conv`` operands: a strided conv is the 1x1 conv of x's
        blocks, which backward rebuilds."""
        if not strided:
            return x.data, weight.data, dilation, padding
        return (_space_to_depth(x.data, kh, kw),
                weight.data.reshape(o, -1, 1, 1), (1, 1), (0, 0))

    y = _conv(*stride1())
    if bias is not None:
        y += bias.data
    if skip is not None:
        y += skip.data
    if slope is not None:
        _leaky(y, slope)

    def backward(gy):
        if slope is not None:
            _leaky_grad(gy, out.data, slope)
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(_bias_grad(gy))
        gx, gw = _conv_vjp(gy, *stride1(), x.requires_grad,
                           weight.requires_grad)
        if gw is not None:
            weight.accumulate_grad(gw.reshape(weight.shape))
        if gx is not None:
            if strided:  # rows and columns outside every block get 0
                gx = _depth_to_space(gx, np.zeros(x.shape, gx.dtype), kh, kw)
            x.accumulate_grad(gx)
        if skip is not None and skip.requires_grad:
            # a copy, so the skip owns its grad (``accumulate_grad``)
            skip.accumulate_grad(gy.copy())

    out = _node(y, (x, weight, bias, skip), backward)
    return out


def conv2d_transpose(x: Tensor, weight: Tensor,
                     bias: Tensor | None = None) -> Tensor:
    """Transposed (fractionally strided) convolution, zero output padding.

    weight: (out_c, in_c, kh, kw) where in_c matches the input channels.
    The stride is the kernel (non-overlapping blocks, the 2x2 up conv), so
    the output is the input times the kernel per axis. It is the 1x1 conv
    whose out_c*kh*kw output channels are the output's blocks.
    """
    n, c, h, w = x.shape
    o, ci, kh, kw = weight.shape
    if c != ci:
        raise ConfigurationError(
            f"conv2d_transpose channel mismatch: input shape {x.shape} has {c} "
            f"channels, weight shape {weight.shape} expects {ci}"
        )

    def weight1x1():
        return weight.data.transpose(0, 2, 3, 1).reshape(o * kh * kw, c, 1, 1)

    blocks = _conv(x.data, weight1x1(), (1, 1), (0, 0))
    y = _depth_to_space(blocks, np.empty((n, o, h * kh, w * kw), blocks.dtype),
                        kh, kw)
    if bias is not None:
        y += bias.data

    def backward(gy):
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(_bias_grad(gy))
        gx, gw = _conv_vjp(_space_to_depth(gy, kh, kw), x.data, weight1x1(),
                           (1, 1), (0, 0), x.requires_grad,
                           weight.requires_grad)
        if gw is not None:
            weight.accumulate_grad(
                gw.reshape(o, kh, kw, c).transpose(0, 3, 1, 2))
        if gx is not None:
            x.accumulate_grad(gx)

    return _node(y, (x, weight, bias), backward)


# ---------------------------------------------------------------------------
# Pointwise operations
# ---------------------------------------------------------------------------


def _leaky(y: np.ndarray, slope: float) -> None:
    """max(y, slope*y) written into y, a fresh op output: the forward of a
    leaky ReLU fused into the op that made y."""
    np.maximum(y, y * slope, out=y)


def _leaky_grad(gy: np.ndarray, y: np.ndarray, slope: float) -> None:
    """Scale gy in place by slope where the activated output y has its sign
    bit set: the backward of ``_leaky``, which needs no pre-activation."""
    # in place, so the factors go at once; a fresh np.where result would
    # keep a second gradient alive beside ``out.grad`` for the rest of the
    # op's backward. The table lookup also runs faster than np.where or
    # np.multiply(..., where=). It takes 1 + 8 + itemsize bytes per element
    # (mask, its intp copy inside np.take, factors), so it runs on
    # (image, channel block) views of about 1 << 17 elements (1.6 MiB of
    # temporaries in float32); an indexed view of a ``concat_channels``
    # split view is still a view, so the write stays in place
    table = np.array([1, slope], gy.dtype)
    n, c, h, w = gy.shape
    step = max(1, (1 << 17) // (h * w))
    for i in range(n):
        for c0 in range(0, c, step):
            g = gy[i, c0:c0 + step]
            g *= np.take(table, np.signbit(y[i, c0:c0 + step]).view(np.uint8))


def sigmoid(x: Tensor) -> Tensor:
    # exp overflows to inf for logits below about -88 (float32); 1/inf is the
    # right 0, so the overflow is not worth a warning
    with np.errstate(over="ignore"):
        y = 1.0 / (1.0 + np.exp(-x.data))

    def backward(gy):
        x.accumulate_grad(gy * y * (1.0 - y))

    return _node(y, (x,), backward)


def concat_channels(*xs: Tensor) -> Tensor:
    base = xs[0].shape
    for t in xs[1:]:
        if (t.shape[0], t.shape[2], t.shape[3]) != (base[0], base[2], base[3]):
            raise ConfigurationError(
                f"concat_channels mismatch on (n, h, w): {base} vs {t.shape}")
    y = np.concatenate([t.data for t in xs], axis=1)
    splits = np.cumsum([t.shape[1] for t in xs])[:-1]
    # a graph input's values now live in y: its own array goes. A leaf
    # keeps its array, which the optimizer updates in place, and an input
    # that y promotes keeps its dtype.
    for t, part in zip(xs, np.split(y, splits, axis=1)):
        if t._backward is not None and t.dtype == y.dtype:
            t.data = part

    def backward(gy):
        for t, g in zip(xs, np.split(gy, splits, axis=1)):
            t.accumulate_grad(g)

    return _node(y, xs, backward)


def slice_channels(x: Tensor, start: int, stop: int) -> Tensor:
    """Channels [start, stop) of x, a view of x's array."""
    if not (0 <= start < stop <= x.shape[1]):
        raise ConfigurationError(
            f"slice_channels [{start}:{stop}] out of range for shape {x.shape}")
    y = x.data[:, start:stop]

    def backward(gy):
        g = np.zeros_like(x.data)
        g[:, start:stop] = gy
        x.accumulate_grad(g)

    return _node(y, (x,), backward)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def loss(kind: str, prediction: Tensor, target: Tensor) -> Tensor:
    """Mean L1 or L2 loss as a scalar tensor.

    The L1 subgradient at exact ties is 0 (np.sign convention), which keeps
    backward deterministic.
    """
    if prediction.shape != target.shape:
        raise ConfigurationError(
            f"loss shape mismatch: prediction {prediction.shape} vs "
            f"target {target.shape}")
    diff = prediction.data - target.data
    n_elem = diff.size
    if kind == "L2":
        val = np.mean(diff * diff)
    elif kind == "L1":
        val = np.mean(np.abs(diff))
    else:
        raise UsageError(f"unknown loss kind {kind!r}, expected 'L1' or 'L2'")
    y = np.array(val, dtype=diff.dtype).reshape(1, 1, 1, 1)

    def backward(gy):
        g = gy.reshape(())
        if kind == "L2":
            base = (2.0 / n_elem) * diff
        else:
            base = np.sign(diff) / n_elem
        prediction.accumulate_grad(g * base)
        target.accumulate_grad(-g * base)

    return _node(y, (prediction, target), backward)
