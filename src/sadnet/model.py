"""Spatial-adaptive denoising network.

Four-scale encoder-decoder: a 1x1 head conv, per-scale residual blocks with
2x2 stride-2 down-convolutions, a dilated context block at the coarsest
scale, and a decoder that per scale fuses encoder skip features, predicts
deformable sampling offsets coarse-to-fine, applies residual
spatial-adaptive blocks (RSABs), and upsamples with 2x2 stride-2 transposed
convolutions. A zero-initialized 1x1 tail plus a long skip make the network
the identity at step 0, so the trainable path models only the noise.
"""

from __future__ import annotations

import csv
from dataclasses import MISSING, asdict, dataclass, fields, replace

import numpy as np

from . import tensor as T
from .deform import modulated_deform_conv2d
from .errors import ConfigurationError, DataError, UsageError
from .tensor import Tensor


@dataclass
class ModelConfig:
    """All architectural hyperparameters.

    Defaults give the stock 4-scale design: channels 32/64/128/256, context
    dilations 1/2/3/4 with compression ratio 4, 3x3 convolutions everywhere
    except the 1x1 head/tail and 2x2 up/down layers. One residual block per
    encoder scale and one RSAB per decoder scale lands the parameter count
    near the 4.3M target.
    """

    in_channels: int = 3
    scales: int = 4
    channels_per_scale: tuple = (32, 64, 128, 256)
    resblocks_per_scale: int = 1
    rsabs_per_scale: int = 1
    context_dilations: tuple = (1, 2, 3, 4)
    context_compression: int = 4
    leaky_slope: float = 0.2
    kernel_size: int = 3
    updown_kernel: int = 2

    def validate(self) -> None:
        for key, kind in _field_types(ModelConfig).items():
            if not _fits(getattr(self, key), kind):
                raise ConfigurationError(
                    f"model config {key}: {getattr(self, key)!r} does not fit "
                    f"its {kind.__name__} field")
        if self.in_channels not in (1, 3):
            raise ConfigurationError(f"in_channels must be 1 or 3, got {self.in_channels}")
        if self.scales < 1 or len(self.channels_per_scale) != self.scales:
            raise ConfigurationError(
                f"scales must be at least 1, with one channels_per_scale "
                f"entry each; got {len(self.channels_per_scale)} entries for "
                f"{self.scales} scales")
        if any(c < 1 for c in self.channels_per_scale):
            raise ConfigurationError("channels_per_scale entries must be positive")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ConfigurationError(
                f"kernel_size must be odd and positive (same-size convolutions), "
                f"got {self.kernel_size}")
        if self.updown_kernel != 2:
            # each scale halves: offsets are upsampled 2x from the scale
            # below, and inputs are padded to a multiple of ``divisor``
            raise ConfigurationError(
                f"updown_kernel must be 2, got {self.updown_kernel}")
        if (self.context_compression < 1 or not self.context_dilations
                or any(d < 1 for d in self.context_dilations)):
            raise ConfigurationError(
                "context_compression and context_dilations (at least one) must be positive")
        if self.channels_per_scale[-1] % self.context_compression != 0:
            raise ConfigurationError(
                f"context_compression {self.context_compression} does not divide "
                f"the coarsest channel count {self.channels_per_scale[-1]}")
        if self.resblocks_per_scale < 1 or self.rsabs_per_scale < 1:
            raise ConfigurationError("block counts must be >= 1")
        if not 0 <= self.leaky_slope <= 1:
            # leaky ReLU runs as max(x, slope*x), which needs this range
            raise ConfigurationError(
                f"leaky_slope must be finite and in [0, 1], got "
                f"{self.leaky_slope}")

    @property
    def k_taps(self) -> int:
        return self.kernel_size * self.kernel_size

    @property
    def divisor(self) -> int:
        """Input height and width must be multiples of this: each scale
        below the first halves them."""
        return 2 ** (self.scales - 1)

    def to_dict(self) -> dict:
        """The fields as JSON types: tuples become lists."""
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in asdict(self).items()}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """The inverse of ``to_dict``; ``validate`` checks each value's type
        as well as its range."""
        cfg = replace(cls(**d), **{k: tuple(v) for k, v in d.items()
                                   if isinstance(v, list)})
        cfg.validate()
        return cfg


def _field_types(cls) -> dict:
    """Config keys: each field with a plain default, typed by that default."""
    return {f.name: type(f.default) for f in fields(cls) if f.default is not MISSING}


def _fits(value, kind) -> bool:
    """Whether a value fits a config field of type ``kind`` as a config
    file's parsed value does: an int field takes an int, a float field an
    int or a float, a tuple field a tuple of ints; a bool is none of them
    (a checkpoint's JSON may hold any JSON type)."""
    if kind is tuple:
        return isinstance(value, tuple) and all(_fits(v, int) for v in value)
    return (not isinstance(value, bool)
            and isinstance(value, (int, float) if kind is float else kind))


@dataclass
class ScaleState:
    """Per-scale decoder state captured during a forward pass.

    Plain arrays, not graph tensors, so the model keeps no graph alive
    between forward passes. The next forward drops them before its first
    conv, so they never sit beside its activations.
    """
    scale: int
    offsets: np.ndarray
    masks: np.ndarray


def _he_uniform(rng: np.random.Generator | None, shape, dtype):
    """U(-sqrt(6 / fan_in), +sqrt(6 / fan_in)), fan_in the size of one
    output channel's weights."""
    if rng is None:
        # zero init, or weights a checkpoint overwrites: np.zeros maps pages
        # untouched, so a skeleton costs neither random draws nor page faults
        return np.zeros(shape, dtype=dtype)
    limit = np.sqrt(6.0 / np.prod(shape[1:]))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class _Conv:
    """Weight, bias and MAC count shared by the convolution layers.

    ``macs`` is the multiply-accumulate count of one image in the last
    call: pixels (output, or input for a transposed conv) x weight size.
    Pointwise work (bias, activations, skip adds) is not counted.
    """

    def __init__(self, rng, in_c, out_c, k, zero_init=False, dtype=np.float32):
        shape = (out_c, in_c, k, k)
        w = _he_uniform(None if zero_init else rng, shape, dtype)
        self.weight = Tensor(w, requires_grad=True)
        self.bias = Tensor(np.zeros((1, out_c, 1, 1), dtype=dtype), requires_grad=True)
        self.macs = 0


class Conv2d(_Conv):
    def __init__(self, rng, in_c, out_c, k, stride=1, padding=0, dilation=1,
                 zero_init=False, dtype=np.float32):
        super().__init__(rng, in_c, out_c, k, zero_init, dtype)
        self.stride = (stride, stride)
        self.dilation = (dilation, dilation)
        self.padding = (padding, padding)

    def __call__(self, x: Tensor, skip: Tensor | None = None,
                 slope: float | None = None) -> Tensor:
        y = T.conv2d(x, self.weight, self.bias, self.stride, self.dilation,
                     self.padding, skip, slope)
        self.macs = y.shape[2] * y.shape[3] * self.weight.data.size
        return y


class ConvTranspose2d(_Conv):
    """Its stride is its kernel (``tensor.conv2d_transpose``)."""

    def __call__(self, x: Tensor) -> Tensor:
        self.macs = x.shape[2] * x.shape[3] * self.weight.data.size
        return T.conv2d_transpose(x, self.weight, self.bias)


class DeformConv2d(_Conv):
    """kxk modulated deformable convolution, padding k // 2. Its MACs add,
    per output pixel and tap, 5 per input channel (4 for the bilinear blend,
    1 for the modulation) and ~10 of coordinate arithmetic."""

    def __init__(self, rng, in_c, out_c, k, dtype=np.float32):
        super().__init__(rng, in_c, out_c, k, dtype=dtype)
        self.padding = (k // 2, k // 2)

    def __call__(self, x, offsets, masks, slope=None):
        y = modulated_deform_conv2d(x, self.weight, self.bias, offsets, masks,
                                    self.padding, slope)
        _, c, kh, kw = self.weight.shape
        self.macs = y.shape[2] * y.shape[3] * (self.weight.data.size
                                               + kh * kw * (5 * c + 10))
        return y


class ResBlock:
    """conv3x3 -> leaky ReLU -> conv3x3 with an identity skip, which the
    second conv adds into its own output (``conv2d``'s ``skip``)."""

    def __init__(self, rng, channels, k=3, slope=0.2, dtype=np.float32):
        p = k // 2
        self.conv1 = Conv2d(rng, channels, channels, k, padding=p, dtype=dtype)
        self.conv2 = Conv2d(rng, channels, channels, k, padding=p, dtype=dtype)
        self.slope = slope

    def __call__(self, x: Tensor) -> Tensor:
        return self.conv2(self.conv1(x, slope=self.slope), skip=x)


class RSAB:
    """Residual spatial-adaptive block: deformable conv replaces the first
    conv; the second conv adds the identity skip into its own output."""

    def __init__(self, rng, channels, k=3, slope=0.2, dtype=np.float32):
        self.dconv = DeformConv2d(rng, channels, channels, k, dtype=dtype)
        self.conv2 = Conv2d(rng, channels, channels, k, padding=k // 2, dtype=dtype)
        self.slope = slope

    def __call__(self, x, offsets, masks):
        return self.conv2(self.dconv(x, offsets, masks, self.slope), skip=x)


def upsample_offsets(offsets: Tensor, masks: Tensor) -> tuple[Tensor, Tensor]:
    """Transfer offset/modulation fields to the next finer scale.

    Bilinear 2x spatial upsampling of both; offset values are additionally
    doubled (they are measured in pixels of the new, finer grid) while
    modulation values are dimensionless and pass through unchanged. The
    upsample doubles its own output, so no full-size undoubled field stays
    in the graph.
    """
    return bilinear_upsample_x2(offsets, 2.0), bilinear_upsample_x2(masks)


def _upsample_matrix(size: int, dtype) -> np.ndarray:
    """(2*size, size) matrix of bilinear 2x upsampling along one axis.

    Half-pixel-center mapping with edge replication: output i blends inputs
    floor(s) and floor(s) + 1, s = (i + 0.5) / 2 - 0.5, both clipped.
    """
    rows = np.arange(2 * size)
    src = (rows + 0.5) / 2.0 - 0.5
    i0f = np.floor(src)
    t = (src - i0f).astype(dtype)
    a = np.zeros((2 * size, size), dtype=dtype)
    a[rows, np.clip(i0f, 0, size - 1).astype(np.int64)] = 1 - t
    a[rows, np.clip(i0f + 1, 0, size - 1).astype(np.int64)] += t
    return a


def bilinear_upsample_x2(x: Tensor, factor: float = 1.0) -> Tensor:
    """Differentiable bilinear 2x spatial upsampling (half-pixel centers),
    times ``factor``.

    Separable: y = (A_h @ x @ A_w.T) * factor with the per-axis
    interpolation matrices, so the input gradient is A_h.T @ (gy * factor)
    @ A_w.
    """
    _, _, h, w = x.shape
    a_h = _upsample_matrix(h, x.data.dtype)
    a_w = _upsample_matrix(w, x.data.dtype)
    y = a_h @ x.data @ a_w.T
    if factor != 1:
        y *= factor

    def backward(gy):
        if factor != 1:
            gy = gy * factor
        x.accumulate_grad(a_h.T @ gy @ a_w)

    return T._node(y, (x,), backward)


class OffsetTransfer:
    """Predict the offset and modulation fields for one decoder scale.

    conv3x3 + leaky ReLU on the scale's features; when a coarser scale's
    fields exist they are upsampled and concatenated before the final conv,
    which emits 2K raw offset channels and K mask logits (sigmoid). The
    final conv is zero-initialized so training starts from plain
    convolution behavior: offsets 0, masks 0.5.
    """

    def __init__(self, rng, channels, k_taps=9, has_prev=False, slope=0.2,
                 dtype=np.float32):
        self.k_taps = k_taps
        self.slope = slope
        self.conv1 = Conv2d(rng, channels, channels, 3, padding=1, dtype=dtype)
        head_in = channels + (3 * k_taps if has_prev else 0)
        self.head = Conv2d(rng, head_in, 3 * k_taps, 3, padding=1,
                           zero_init=True, dtype=dtype)

    def __call__(self, x: Tensor, prev=None):
        f = self.conv1(x, slope=self.slope)
        if prev is not None:
            # the upsampled fields live only inside the concat
            f = T.concat_channels(f, *upsample_offsets(*prev))
        raw = self.head(f)
        k2 = 2 * self.k_taps
        offsets = T.slice_channels(raw, 0, k2)
        masks = T.sigmoid(T.slice_channels(raw, k2, 3 * self.k_taps))
        return offsets, masks


class ContextBlock:
    """Parallel dilated 3x3 convolutions over channel-compressed features.

    1x1 compression, one branch per dilation rate (padding = rate so shapes
    match), channel concat, 1x1 fusion back to the input width, identity
    skip added by the fusion conv into its own output. The concat holds the
    branch outputs' values; each branch output is a view of it.
    """

    def __init__(self, rng, channels, dilations=(1, 2, 3, 4), compression=4,
                 slope=0.2, dtype=np.float32):
        if channels % compression != 0:
            raise ConfigurationError(
                f"context block: compression {compression} does not divide "
                f"{channels} channels")
        inner = channels // compression
        self.slope = slope
        self.compress = Conv2d(rng, channels, inner, 1, dtype=dtype)
        self.branches = [Conv2d(rng, inner, inner, 3, padding=d, dilation=d,
                                dtype=dtype) for d in dilations]
        self.fuse = Conv2d(rng, inner * len(dilations), channels, 1, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        f = self.compress(x, slope=self.slope)
        outs = [b(f, slope=self.slope) for b in self.branches]
        return self.fuse(T.concat_channels(*outs), skip=x)


class SADNet:
    """The full network; construction order fixes the RNG draw order.

    ``rng`` draws the He-uniform initial weights. With ``rng=None`` every
    weight is zero: a skeleton for ``load_checkpoint`` to fill.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None = None,
                 dtype=np.float32):
        config.validate()
        self.config = config
        cfg = config
        ch = cfg.channels_per_scale
        s_count = cfg.scales
        slope = cfg.leaky_slope
        k = cfg.kernel_size

        self.head = Conv2d(rng, cfg.in_channels, ch[0], 1, dtype=dtype)
        self.enc = [[ResBlock(rng, ch[s], k, slope, dtype)
                     for _ in range(cfg.resblocks_per_scale)]
                    for s in range(s_count)]
        self.down = [Conv2d(rng, ch[s], ch[s + 1], cfg.updown_kernel,
                            stride=cfg.updown_kernel, dtype=dtype)
                     for s in range(s_count - 1)]
        self.context = ContextBlock(rng, ch[-1], cfg.context_dilations,
                                    cfg.context_compression, slope, dtype)
        # decoder, coarsest scale first
        self.fuse = [Conv2d(rng, 2 * ch[s], ch[s], k, padding=k // 2, dtype=dtype)
                     for s in range(s_count - 1)]
        self.offset = [OffsetTransfer(rng, ch[s], cfg.k_taps,
                                      has_prev=(s < s_count - 1), slope=slope,
                                      dtype=dtype)
                       for s in range(s_count)]
        self.rsabs = [[RSAB(rng, ch[s], k, slope, dtype)
                       for _ in range(cfg.rsabs_per_scale)]
                      for s in range(s_count)]
        self.up = [ConvTranspose2d(rng, ch[s], ch[s - 1], cfg.updown_kernel,
                                   dtype=dtype)
                   for s in range(1, s_count)]
        self.tail = Conv2d(rng, ch[0], cfg.in_channels, 1, zero_init=True,
                           dtype=dtype)
        self.scale_states: list[ScaleState] = []

    def forward(self, x: Tensor) -> Tensor:
        cfg = self.config
        n, c, h, w = x.shape
        if c != cfg.in_channels:
            raise ConfigurationError(
                f"input has {c} channels, model expects {cfg.in_channels}")
        div = cfg.divisor
        if h % div or w % div:
            raise UsageError(
                f"input spatial size {h}x{w} must be divisible by {div}; "
                f"pad the image (e.g. reflect-pad) before calling")

        # Without a graph only these locals hold an activation, so each one
        # is let go as its last reader takes it: encoder features are popped
        # into their concat, and each up conv's output goes straight in.
        self.scale_states = []
        d = self.head(x)
        enc_feats = []
        for s in range(cfg.scales):
            for block in self.enc[s]:
                d = block(d)
            enc_feats.append(d)
            if s < cfg.scales - 1:
                d = self.down[s](d)

        d = self.context(enc_feats.pop())
        prev = None
        for s in range(cfg.scales - 1, -1, -1):
            if s < cfg.scales - 1:
                d = self.fuse[s](T.concat_channels(enc_feats.pop(), self.up[s](d)))
            offsets, masks = self.offset[s](d, prev)
            for block in self.rsabs[s]:
                d = block(d, offsets, masks)
            self.scale_states.append(ScaleState(s, offsets.data, masks.data))
            prev = (offsets, masks)
        return self.tail(d, skip=x)

    __call__ = forward

    def layers(self):
        """``(prefix, layer)`` for every convolution layer, in parameter
        order: the one place that spells the parameter names."""
        yield "head", self.head
        for s, blocks in enumerate(self.enc):
            for i, b in enumerate(blocks):
                yield f"enc.{s}.res{i}.conv1", b.conv1
                yield f"enc.{s}.res{i}.conv2", b.conv2
        for s, d in enumerate(self.down):
            yield f"down.{s}", d
        yield "context.compress", self.context.compress
        for i, b in enumerate(self.context.branches):
            yield f"context.branch{i}", b
        yield "context.fuse", self.context.fuse
        for s, fz in enumerate(self.fuse):
            yield f"fuse.{s}", fz
        for s, ot in enumerate(self.offset):
            yield f"offset.{s}.conv1", ot.conv1
            yield f"offset.{s}.head", ot.head
        for s, blocks in enumerate(self.rsabs):
            for i, b in enumerate(blocks):
                yield f"rsab.{s}.{i}.dconv", b.dconv
                yield f"rsab.{s}.{i}.conv2", b.conv2
        for s, u in enumerate(self.up):
            yield f"up.{s}", u
        yield "tail", self.tail

    def params(self) -> list[tuple[str, Tensor]]:
        return [(f"{prefix}.{kind}", getattr(layer, kind))
                for prefix, layer in self.layers() for kind in ("weight", "bias")]

    def param_count(self) -> int:
        return sum(p.data.size for _, p in self.params())


def count_params_flops(config: ModelConfig, input_shape) -> tuple[int, int]:
    """Exact parameter count and MACs (counted as FLOPs) of one image.

    One forward of a zero skeleton at ``config.divisor`` square, the smallest
    size the model takes, sums the layers' ``macs`` and 8 per element of
    the upsampled offset and mask fields. MACs are linear in H*W at the
    sizes the model takes, so a size it does not take is counted at the
    padded size ``denoise_tensor`` runs.
    """
    model = SADNet(config)
    div = config.divisor
    model.forward(Tensor(np.zeros((1, config.in_channels, div, div), np.float32)))
    macs = sum(layer.macs for _, layer in model.layers())
    macs += sum(8 * (st.offsets[0].size + st.masks[0].size)
                for st in model.scale_states if st.scale < config.scales - 1)
    _, _, h, w = input_shape
    return model.param_count(), macs * -(-h // div) * -(-w // div)


def denoise_tensor(model: SADNet, x: Tensor) -> Tensor:
    """Forward pass with reflect padding to the required divisibility."""
    _, _, h, w = x.shape
    div = model.config.divisor
    pad = ((0, 0), (0, 0), (0, -h % div), (0, -w % div))
    data = np.pad(x.data, pad, mode="reflect") if h % div or w % div else x.data
    out = model(Tensor(data))
    return Tensor(out.data[:, :, :h, :w])


def export_offsets(model: SADNet, x: Tensor, out_path, points_per_axis: int = 4) -> int:
    """Dump learned sampling positions and modulations to CSV.

    The image is reflect-padded as ``denoise_tensor`` pads it. For each
    scale, an evenly spaced points_per_axis^2 grid of the pixels that lie
    inside the image is probed; each row gives one kernel tap's absolute
    sampling position (base position + learned offset) and its modulation
    scalar. Returns the number of data rows written.
    """
    _, _, h, w = x.shape
    if points_per_axis < 1:
        raise UsageError(f"--points (points per axis) must be at least 1, "
                         f"got {points_per_axis}")
    if points_per_axis > max(h, w):
        # more points than pixels only repeat rows
        raise UsageError(f"--points (points per axis) must be at most "
                         f"{max(h, w)}, the image's longer side, got "
                         f"{points_per_axis}")
    denoise_tensor(model, x)
    k = model.config.kernel_size
    pad = k // 2
    rows = []
    for state in sorted(model.scale_states, key=lambda s: s.scale):
        off = state.offsets[0]
        mask = state.masks[0]
        stride = 2 ** state.scale
        oh, ow = -(-h // stride), -(-w // stride)
        ys = np.linspace(0, oh - 1, points_per_axis).round().astype(int)
        xs = np.linspace(0, ow - 1, points_per_axis).round().astype(int)
        for py in ys:
            for px in xs:
                for tap in range(model.config.k_taps):
                    ki, kj = divmod(tap, k)
                    sy = py - pad + ki + off[2 * tap, py, px]
                    sx = px - pad + kj + off[2 * tap + 1, py, px]
                    rows.append((state.scale, int(py), int(px), tap,
                                 float(sy), float(sx), float(mask[tap, py, px])))
    try:
        with open(out_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["scale", "py", "px", "k", "sample_y", "sample_x",
                             "modulation"])
            writer.writerows(rows)
    except OSError as exc:
        raise DataError(f"cannot write offset export to {out_path}: {exc}") from exc
    return len(rows)
