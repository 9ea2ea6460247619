import hashlib

import numpy as np
import pytest

from sadnet import model as M
from sadnet import tensor as T
from sadnet.errors import ConfigurationError, UsageError
from sadnet.gradcheck import _proj_loss
from sadnet.model import (ContextBlock, Conv2d, ModelConfig, OffsetTransfer,
                          RSAB, ResBlock, SADNet, bilinear_upsample_x2,
                          count_params_flops, export_offsets, upsample_offsets)
from sadnet.optim import AdamState, adam_step
from sadnet.tensor import Tensor

from oracles import (add, bilinear_upsample_reference, leaky_relu, scale,
                     traced_peak)


def micro_config(**kw):
    defaults = dict(in_channels=1, scales=2, channels_per_scale=(4, 8),
                    resblocks_per_scale=1, rsabs_per_scale=1,
                    context_compression=4)
    defaults.update(kw)
    return ModelConfig(**defaults)


def _assert_same_values_and_grads(builds, inputs, weights, proj):
    """Each build of tensors of ``inputs`` gives the same output and the
    same gradients of the inputs and ``weights``, bit for bit, for the loss
    sum(output * proj)."""
    runs = []
    for build in builds:
        ts = [Tensor(a, requires_grad=True) for a in inputs]
        y = build(*ts)
        _proj_loss(y, proj).backward()
        runs.append([y.data] + [t.grad for t in ts]
                    + [w.grad for w in weights])
        T.zero_grads(weights)
    for first, other in zip(*runs):
        np.testing.assert_array_equal(first, other)


class TestResBlock:
    def test_zero_weights_identity(self, rng):
        block = ResBlock(np.random.default_rng(0), 4, dtype=np.float64)
        for conv in (block.conv1, block.conv2):
            conv.weight.data[:] = conv.bias.data[:] = 0.0
        x = Tensor(rng.standard_normal((1, 4, 6, 6)))
        np.testing.assert_array_equal(block(x).data, x.data)

    def test_shape_preservation(self, rng):
        block = ResBlock(np.random.default_rng(0), 32)
        x = Tensor(rng.standard_normal((1, 32, 16, 16)).astype(np.float32))
        assert block(x).shape == (1, 32, 16, 16)

    def test_matches_primitive_composition(self, rng):
        block = ResBlock(np.random.default_rng(5), 3, dtype=np.float64)
        data = rng.standard_normal((2, 3, 5, 5))

        def manual(x):
            return add(x, T.conv2d(
                leaky_relu(T.conv2d(x, block.conv1.weight, block.conv1.bias,
                                    padding=(1, 1)), 0.2),
                block.conv2.weight, block.conv2.bias, padding=(1, 1)))
        _assert_same_values_and_grads(
            (block, manual), [data], [block.conv1.weight, block.conv2.weight],
            rng.standard_normal(data.shape))


class TestRSAB:
    def test_reduces_to_resblock(self, rng):
        seed_rng = np.random.default_rng(9)
        rsab = RSAB(seed_rng, 4, dtype=np.float64)
        res = ResBlock(np.random.default_rng(0), 4, dtype=np.float64)
        res.conv1.weight.data = rsab.dconv.weight.data.copy()
        res.conv1.bias.data = rsab.dconv.bias.data.copy()
        res.conv2.weight.data = rsab.conv2.weight.data.copy()
        res.conv2.bias.data = rsab.conv2.bias.data.copy()
        x = Tensor(rng.standard_normal((1, 4, 6, 6)))
        offsets = Tensor(np.zeros((1, 18, 6, 6)))
        masks = Tensor(np.ones((1, 9, 6, 6)))
        assert np.max(np.abs(rsab(x, offsets, masks).data - res(x).data)) < 1e-6

    def test_zero_weights_identity(self, rng):
        rsab = RSAB(np.random.default_rng(1), 4, dtype=np.float64)
        for conv in (rsab.dconv, rsab.conv2):
            conv.weight.data[:] = conv.bias.data[:] = 0.0
        x = Tensor(rng.standard_normal((1, 4, 5, 5)))
        offsets = Tensor(rng.uniform(-0.5, 0.5, (1, 18, 5, 5)))
        masks = Tensor(rng.uniform(0, 1, (1, 9, 5, 5)))
        np.testing.assert_array_equal(rsab(x, offsets, masks).data, x.data)

    def test_matches_primitive_composition(self, rng):
        from sadnet.deform import modulated_deform_conv2d
        rsab = RSAB(np.random.default_rng(2), 3, dtype=np.float64)
        inputs = [rng.standard_normal((1, 3, 4, 4)),
                  rng.uniform(-0.6, 0.6, (1, 18, 4, 4)),
                  rng.uniform(0.1, 0.9, (1, 9, 4, 4))]

        def manual(x, offsets, masks):
            return add(x, T.conv2d(
                leaky_relu(modulated_deform_conv2d(
                    x, rsab.dconv.weight, rsab.dconv.bias, offsets, masks,
                    (1, 1)), 0.2),
                rsab.conv2.weight, rsab.conv2.bias, padding=(1, 1)))
        _assert_same_values_and_grads(
            (rsab, manual), inputs, [rsab.dconv.weight, rsab.conv2.weight],
            rng.standard_normal(inputs[0].shape))


class TestUpsampleOffsets:
    def test_constant_offsets_double(self):
        off = Tensor(np.full((1, 18, 4, 4), 1.5))
        mask = Tensor(np.full((1, 9, 4, 4), 0.7))
        up_off, up_mask = upsample_offsets(off, mask)
        assert up_off.shape == (1, 18, 8, 8)
        np.testing.assert_allclose(up_off.data, 3.0)
        np.testing.assert_allclose(up_mask.data, 0.7)

    def test_ramp_matches_direct_bilinear(self, rng):
        ramp = np.broadcast_to(np.arange(6.0), (1, 2, 6, 6)).copy()
        ramp += rng.standard_normal((1, 2, 6, 1))  # break symmetry per row
        up = bilinear_upsample_x2(Tensor(ramp))
        ref = bilinear_upsample_reference(ramp)
        np.testing.assert_allclose(up.data, ref, rtol=1e-9, atol=1e-12)
        off_up, _ = upsample_offsets(Tensor(ramp), Tensor(np.ones((1, 2, 6, 6))))
        np.testing.assert_allclose(off_up.data, 2.0 * ref, rtol=1e-9, atol=1e-12)

    def test_equals_doubling_after_upsampling_bit_for_bit(self, rng):
        # subnormal output gradients: doubling them before the backward
        # GEMMs rounds otherwise than doubling the GEMMs' result, so the
        # order must be the reference's: ``scale`` after the upsample
        off, mask = (rng.standard_normal(s).astype(np.float32)
                     for s in ((2, 18, 5, 6), (2, 9, 5, 6)))
        proj = (rng.standard_normal((2, 27, 10, 12))
                * np.where(rng.random((2, 27, 10, 12)) < 0.5, 1.0, 1e-40)
                ).astype(np.float32)

        def doubled_after(o, m):
            return T.concat_channels(scale(bilinear_upsample_x2(o), 2.0),
                                     bilinear_upsample_x2(m))
        _assert_same_values_and_grads(
            (lambda o, m: T.concat_channels(*upsample_offsets(o, m)),
             doubled_after), [off, mask], [], proj)


class TestOffsetTransfer:
    def test_zero_head_gives_zero_offsets_half_masks(self, rng):
        ot = OffsetTransfer(np.random.default_rng(0), 4, dtype=np.float64)
        x = Tensor(rng.standard_normal((1, 4, 6, 6)))
        offsets, masks = ot(x)
        np.testing.assert_array_equal(offsets.data, 0.0)
        np.testing.assert_allclose(masks.data, 0.5)

    def test_output_shapes(self, rng):
        ot = OffsetTransfer(np.random.default_rng(0), 8, k_taps=9, has_prev=True,
                            dtype=np.float64)
        x = Tensor(rng.standard_normal((2, 8, 8, 8)))
        prev = (Tensor(rng.uniform(-1, 1, (2, 18, 4, 4))),
                Tensor(rng.uniform(0, 1, (2, 9, 4, 4))))
        offsets, masks = ot(x, prev)
        assert offsets.shape == (2, 18, 8, 8)
        assert masks.shape == (2, 9, 8, 8)

    def test_branch_ablation_depends_only_on_prev(self, rng):
        ot = OffsetTransfer(np.random.default_rng(3), 4, has_prev=True,
                            dtype=np.float64)
        ot.head.weight.data = np.random.default_rng(4).standard_normal(
            ot.head.weight.shape) * 0.1
        ot.conv1.weight.data[:] = 0.0
        ot.conv1.bias.data[:] = 0.0
        prev = (Tensor(rng.uniform(-1, 1, (1, 18, 3, 3))),
                Tensor(rng.uniform(0, 1, (1, 9, 3, 3))))
        x1 = Tensor(rng.standard_normal((1, 4, 6, 6)))
        x2 = Tensor(rng.standard_normal((1, 4, 6, 6)))
        o1, m1 = ot(x1, prev)
        o2, m2 = ot(x2, prev)
        np.testing.assert_array_equal(o1.data, o2.data)
        np.testing.assert_array_equal(m1.data, m2.data)
        # oracle: the head applied to the upsampled prev fields alone
        up_off, up_mask = upsample_offsets(*prev)
        stacked = T.concat_channels(Tensor(np.zeros((1, 4, 6, 6))), up_off, up_mask)
        raw = T.conv2d(stacked, ot.head.weight, ot.head.bias, padding=(1, 1))
        np.testing.assert_allclose(o1.data, raw.data[:, :18], rtol=1e-9, atol=1e-12)


class TestContextBlock:
    def test_zero_weights_identity(self, rng):
        block = ContextBlock(np.random.default_rng(0), 8, compression=4,
                             dtype=np.float64)
        for conv in (block.compress, *block.branches, block.fuse):
            conv.weight.data[:] = conv.bias.data[:] = 0.0
        x = Tensor(rng.standard_normal((1, 8, 6, 6)))
        np.testing.assert_array_equal(block(x).data, x.data)

    def test_shape_preservation_at_full_width(self, rng):
        block = ContextBlock(np.random.default_rng(0), 256)
        x = Tensor(rng.standard_normal((1, 256, 16, 16)).astype(np.float32))
        assert block(x).shape == (1, 256, 16, 16)

    def test_dilation4_branch_footprint_9x9(self):
        block = ContextBlock(np.random.default_rng(1), 8, compression=4,
                             dtype=np.float64)
        # isolate the dilation-4 branch
        for branch in block.branches[:3]:
            branch.weight.data[:] = 0.0
        impulse = np.zeros((1, 8, 21, 21))
        impulse[0, :, 10, 10] = 1.0
        response = block(Tensor(impulse)).data - impulse
        nz = np.argwhere(np.abs(response).sum(axis=(0, 1)) > 1e-12)
        y_min, x_min = nz.min(axis=0)
        y_max, x_max = nz.max(axis=0)
        assert (y_max - y_min + 1, x_max - x_min + 1) == (9, 9)

    def test_divisibility_enforced(self):
        with pytest.raises(ConfigurationError, match="compression"):
            ContextBlock(np.random.default_rng(0), 6, compression=4)


class TestSADNet:
    def test_identity_at_initialization_bitwise(self, rng):
        model = SADNet(micro_config(), rng=np.random.default_rng(11),
                       dtype=np.float64)
        for _ in range(3):
            x = Tensor(rng.standard_normal((1, 1, 8, 8)))
            np.testing.assert_array_equal(model(x).data, x.data)

    def test_shape_contract_default_config(self, rng):
        model = SADNet(ModelConfig(), rng=np.random.default_rng(0))
        x = Tensor(rng.random((1, 3, 64, 64)).astype(np.float32))
        assert model(x).shape == (1, 3, 64, 64)

    def test_internal_scale_bookkeeping(self, rng):
        model = SADNet(ModelConfig(), rng=np.random.default_rng(0))
        x = Tensor(rng.random((1, 3, 64, 64)).astype(np.float32))
        model(x)
        by_scale = {s.scale: s for s in model.scale_states}
        expected = {0: (32, 64), 1: (64, 32), 2: (128, 16), 3: (256, 8)}
        for scale, (channels, size) in expected.items():
            st = by_scale[scale]
            assert st.offsets.shape == (1, 18, size, size)
            assert st.masks.shape == (1, 9, size, size)

    def test_indivisible_input_rejected(self, rng):
        model = SADNet(micro_config(), rng=np.random.default_rng(0))
        with pytest.raises(UsageError, match="pad"):
            model(Tensor(rng.random((1, 1, 7, 8)).astype(np.float32)))

    def test_channel_mismatch_rejected(self, rng):
        model = SADNet(micro_config(), rng=np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            model(Tensor(rng.random((1, 3, 8, 8)).astype(np.float32)))

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(scales=3).validate()  # channel list length mismatch
        with pytest.raises(ConfigurationError):
            ModelConfig(channels_per_scale=(32, 64, 128, 250)).validate()
        for bad in (dict(kernel_size=4), dict(kernel_size=0),
                    dict(updown_kernel=0), dict(updown_kernel=1),
                    dict(updown_kernel=3), dict(context_compression=0),
                    dict(context_dilations=(1, 0, 3, 4)),
                    dict(leaky_slope=-0.05), dict(leaky_slope=1.01),
                    dict(leaky_slope=float("nan")), dict(kernel_size=3.0),
                    dict(in_channels=True), dict(leaky_slope=False),
                    dict(context_dilations=[1, 2, 3, 4]),
                    dict(context_dilations=()),
                    dict(scales=0, channels_per_scale=())):
            with pytest.raises(ConfigurationError):
                ModelConfig(**bad).validate()


def composed_forward(model, x):
    """``model.forward`` in primitive ops: every residual join an ``add``
    of a conv output, every activation a ``leaky_relu`` after its conv, and
    the offset fields doubled by ``scale`` after the upsample (the graph
    references of ``oracles``)."""
    cfg = model.config
    f = model.head(x)
    enc = []
    for s in range(cfg.scales):
        for b in model.enc[s]:
            f = add(f, b.conv2(leaky_relu(b.conv1(f), b.slope)))
        enc.append(f)
        if s < cfg.scales - 1:
            f = model.down[s](f)
    ctx = model.context
    g = leaky_relu(ctx.compress(enc[-1]), ctx.slope)
    d = add(enc[-1], ctx.fuse(T.concat_channels(
        *[leaky_relu(branch(g), ctx.slope) for branch in ctx.branches])))
    prev = None
    for s in range(cfg.scales - 1, -1, -1):
        if s < cfg.scales - 1:
            d = model.fuse[s](T.concat_channels(enc[s], d))
        ot = model.offset[s]
        h = leaky_relu(ot.conv1(d), ot.slope)
        if prev is not None:
            h = T.concat_channels(
                h, scale(bilinear_upsample_x2(prev[0]), 2.0),
                bilinear_upsample_x2(prev[1]))
        raw = ot.head(h)
        offsets = T.slice_channels(raw, 0, 2 * ot.k_taps)
        masks = T.sigmoid(T.slice_channels(raw, 2 * ot.k_taps, 3 * ot.k_taps))
        for b in model.rsabs[s]:
            d = add(d, b.conv2(leaky_relu(b.dconv(d, offsets, masks),
                                          b.slope)))
        prev = (offsets, masks)
        if s > 0:
            d = model.up[s - 1](d)
    return add(x, model.tail(d))


SMOKE = ModelConfig(in_channels=1, channels_per_scale=(8, 16, 32, 64))


class TestGraph:
    """A training step's graph holds each activation value once."""

    def test_smoke_forward_graph_bytes(self):
        # each view counted once at its base; the parameters left out. With
        # copying concats and slices, separate skip adds and a full-size
        # undoubled offset field it held 27,700,228 bytes in 99 buffers;
        # with a separate leaky ReLU after 17 convs, 16,564,228 in 59.
        model = SADNet(SMOKE, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        x = Tensor(rng.random((4, 1, 64, 64), dtype=np.float32))
        loss = T.loss("L2", model(x),
                      Tensor(rng.random(x.shape, dtype=np.float32)))
        params = {id(p) for _, p in model.params()}
        bases = {}
        for node in T._graph(loss):
            if id(node) not in params:
                base = node.data
                while base.base is not None:
                    base = base.base
                bases[id(base)] = base.nbytes
        assert (sum(bases.values()), len(bases)) == (13_533_188, 42)

    @pytest.mark.parametrize("config,shape", [(SMOKE, (4, 1, 64, 64)),
                                              (ModelConfig(), (2, 3, 32, 32))],
                             ids=["smoke", "stock"])
    def test_steps_match_primitive_composition(self, config, shape):
        # losses, gradients and weights over four Adam steps, then a forward
        # without gradients, bit for bit
        runs = []
        for forward in (SADNet.forward, composed_forward):
            model = SADNet(config, rng=np.random.default_rng(3))
            rng = np.random.default_rng(11)
            params = [p for _, p in model.params()]
            for p in params:  # the offset heads, tail and biases too
                if not p.data.any():
                    p.data = rng.uniform(-0.05, 0.05, p.shape).astype(p.dtype)
            adam = AdamState(lr=1e-3)
            got = []
            for _ in range(4):
                x, target = (Tensor(rng.random(shape, dtype=np.float32))
                             for _ in range(2))
                loss = T.loss("L2", forward(model, x), target)
                loss.backward()
                got += [loss.data] + [p.grad for p in params]
                adam_step(model.params(), adam)
                T.zero_grads(params)
            got += [p.data.copy() for p in params]
            for p in params:
                p.requires_grad = False
            image = rng.random((1, shape[1], 40, 56), dtype=np.float32)
            got.append(forward(model, Tensor(image)).data)
            runs.append(got)
        for fused, composed in zip(*runs):
            np.testing.assert_array_equal(fused, composed)


class TestNoGradForward:
    """Without a graph a forward holds each activation only while something
    still reads it."""

    def test_traced_peak_is_what_the_forward_must_hold(self):
        # The peak is the scale-0 RSAB's second conv. It must hold its input
        # (the deformable conv's output) and its skip (the RSAB's input),
        # the scale-0 fields (the offsets are a view of the offset head's
        # 27-channel output, the masks 9 channels more) and the coarser
        # scales' ScaleStates, at 1/4, 1/16 and 1/64 of the pixels; and
        # besides them its output and one band: 30.7 MB. A forward that held
        # its dead encoder features, up conv outputs, upsampled fields and
        # the previous forward's ScaleStates peaked at 41.7 MB.
        model = SADNet(ModelConfig(), rng=np.random.default_rng(0))
        for _, p in model.params():
            p.requires_grad = False
        x = Tensor(np.random.default_rng(1).random((1, 3, 160, 240),
                                                   dtype=np.float32))
        model(x)
        _, peak = traced_peak(lambda: model(x))
        channel = 160 * 240 * 4  # bytes of one float32 scale-0 channel
        feature = 32 * channel
        fields = (27 + 9) * channel
        held = 2 * feature + fields + fields * (1 / 4 + 1 / 16 + 1 / 64)
        assert peak <= held + feature + T._BAND_BYTES + (1 << 18)

    def test_scale_states_dropped_before_the_head_conv(self, rng):
        model = SADNet(micro_config(), rng=np.random.default_rng(0))
        x = Tensor(rng.random((1, 1, 8, 8), dtype=np.float32))
        model(x)
        assert len(model.scale_states) == 2
        seen, head = [], model.head

        def spy(*args, **kwargs):
            seen.append(list(model.scale_states))
            return head(*args, **kwargs)

        model.head = spy
        model(x)
        assert seen == [[]]
        assert [st.scale for st in model.scale_states] == [1, 0]


class TestParamNames:
    """The names are a file format: checkpoint records, Adam moment names
    and the layer groups of perfbench all read them."""

    def test_stock_names_in_order(self):
        names = [n for n, _ in SADNet(ModelConfig()).params()]
        assert len(names) == 82
        assert hashlib.sha256("\n".join(names).encode()).hexdigest().startswith(
            "d10e7313c236e48c")
        assert names[:4] == ["head.weight", "head.bias",
                             "enc.0.res0.conv1.weight", "enc.0.res0.conv1.bias"]
        assert names[18] == "down.0.weight"
        assert names[24:28] == ["context.compress.weight", "context.compress.bias",
                                "context.branch0.weight", "context.branch0.bias"]
        assert names[44] == "offset.0.head.weight"
        assert names[58] == "rsab.0.0.dconv.weight"
        assert names[74] == "up.0.weight"
        assert names[-2:] == ["tail.weight", "tail.bias"]

    def test_block_indices_with_two_blocks_per_scale(self):
        cfg = ModelConfig(resblocks_per_scale=2, rsabs_per_scale=2)
        names = [n for n, _ in SADNet(cfg).params()]
        assert len(names) == 114
        assert names.index("enc.0.res1.conv2.weight") == 8
        assert names.index("rsab.0.1.dconv.bias") == 79


class TestCounting:
    def test_single_conv_params(self):
        conv = Conv2d(np.random.default_rng(0), 3, 32, 3)
        assert conv.weight.data.size + conv.bias.data.size == 896

    def test_default_params_in_expected_band(self):
        params, _ = count_params_flops(ModelConfig(), (1, 3, 320, 480))
        assert abs(params - 4_321_000) / 4_321_000 < 0.25

    def test_default_flops_in_expected_band(self):
        _, flops = count_params_flops(ModelConfig(), (1, 3, 320, 480))
        assert abs(flops - 50.1e9) / 50.1e9 < 0.30

    def test_param_count_matches_adam_updates(self, rng):
        cfg = micro_config()
        model = SADNet(cfg, rng=np.random.default_rng(0), dtype=np.float64)
        x = Tensor(rng.standard_normal((1, 1, 8, 8)))
        target = Tensor(rng.standard_normal((1, 1, 8, 8)))
        T.loss("L2", model(x), target).backward()
        state = AdamState()
        adam_step(model.params(), state)
        updated = sum(m.size for m in state.m.values())
        params, _ = count_params_flops(cfg, (1, 1, 8, 8))
        assert params == updated == model.param_count()

    def test_count_matches_per_op_macs(self, monkeypatch, rng):
        # kernel 5 in the blocks, while the offset-transfer convs and the
        # context branches stay 3x3
        cfg = micro_config(kernel_size=5)
        _, counted = count_params_flops(cfg, (1, 1, 16, 8))
        ops = []

        def tap(fn, macs):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                ops.append(macs(args, out.data))
                return out
            return wrapper

        def deform_macs(args, y):
            _, c, kh, kw = args[1].shape
            return y[:, 0].size * (args[1].data.size + kh * kw * (5 * c + 10))

        # one op's MACs from its shapes: n*oh*ow*o*c*kh*kw for a conv, the
        # input pixels for a transposed conv, 8 per upsampled element
        monkeypatch.setattr(T, "conv2d", tap(
            T.conv2d, lambda a, y: y[:, 0].size * a[1].data.size))
        monkeypatch.setattr(T, "conv2d_transpose", tap(
            T.conv2d_transpose, lambda a, y: a[0].data[:, 0].size * a[1].data.size))
        monkeypatch.setattr(M, "modulated_deform_conv2d",
                            tap(M.modulated_deform_conv2d, deform_macs))
        monkeypatch.setattr(M, "bilinear_upsample_x2", tap(
            M.bilinear_upsample_x2, lambda a, y: 8 * y.size))
        model = SADNet(cfg, rng=np.random.default_rng(0))
        model(Tensor(rng.random((2, 1, 16, 8)).astype(np.float32)))
        # head, 4 enc, down, 6 context, fuse, 4 offset, 4 rsab, up, tail
        # and 2 field upsamplings
        assert len(ops) == 25
        assert sum(ops) == 2 * counted

    def test_indivisible_size_counted_at_padded_size(self):
        cfg = ModelConfig()
        assert (count_params_flops(cfg, (1, 3, 321, 481))
                == count_params_flops(cfg, (1, 3, 328, 488)))


class TestExportOffsets:
    def test_initial_state_and_row_count(self, rng, tmp_path):
        cfg = micro_config()
        model = SADNet(cfg, rng=np.random.default_rng(0), dtype=np.float64)
        x = Tensor(rng.standard_normal((1, 1, 8, 8)))
        out = tmp_path / "offsets.csv"
        rows = export_offsets(model, x, out, points_per_axis=3)
        assert rows == cfg.scales * 9 * cfg.k_taps
        lines = out.read_text().splitlines()
        assert lines[0] == "scale,py,px,k,sample_y,sample_x,modulation"
        assert len(lines) == rows + 1
        for line in lines[1:]:
            scale, py, px, k, sy, sx, m = line.split(",")
            ki, kj = divmod(int(k), 3)
            # zero offset head: sampling positions are the plain conv taps
            assert float(sy) == int(py) - 1 + ki
            assert float(sx) == int(px) - 1 + kj
            assert float(m) == 0.5
