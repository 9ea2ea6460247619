import gc
import io
import math
import re
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from sadnet.checkpoint import load_checkpoint
from sadnet.data import (ImageBuffer, ManifestEntry, NoiseSpec, add_awgn,
                         from_tensor, load_image, make_rng, open_image,
                         save_image, to_tensor, write_manifest)
from sadnet.errors import DataError, NumericError, UsageError
from sadnet.gradcheck import finite_diff_check
from sadnet.model import ModelConfig, SADNet
from sadnet.tensor import Tensor
from sadnet import tensor as T
from sadnet.metrics import psnr, ssim
from sadnet.training import (TrainConfig, denoise_image, denoise_tensor,
                             evaluate, load_inference_model, lr_schedule,
                             parse_train_config, sample_batch, train)
from sadnet import data as data_module, training as training_mod

from conftest import synth_buffer
from oracles import sample_batch_reference, total
from test_model import micro_config


def tiny_train_config(tmp_path, rng, n_images=4, image_size=32, **kw):
    """A runnable config over a small synthetic corpus."""
    clean_dir = tmp_path / "clean"
    clean_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for i in range(n_images):
        clean = clean_dir / f"img{i}.pgm"
        save_image(synth_buffer(rng, image_size), clean)
        entries.append(ManifestEntry(str(clean), str(clean), 25.0, i))
    manifest = tmp_path / "train.tsv"
    write_manifest(entries, manifest)
    defaults = dict(
        model=micro_config(channels_per_scale=(4, 8)),
        batch_size=2, patch_size=16, lr=1e-3, seed=7,
        manifest=str(manifest), checkpoint_dir=str(tmp_path / "ckpt"),
        log_interval=5, checkpoint_interval=25, max_iters=50)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestSchedule:
    def test_single_halving(self):
        cfg = TrainConfig(lr=1e-4, lr_halve_at=300_000)
        assert lr_schedule(0, cfg) == 1e-4
        assert lr_schedule(299_999, cfg) == 1e-4
        assert lr_schedule(300_000, cfg) == 5e-5
        assert lr_schedule(1_000_000, cfg) == 5e-5

    def test_negative_iteration_rejected(self):
        with pytest.raises(UsageError):
            lr_schedule(-1, TrainConfig())


class TestConfigParsing:
    def test_round_trip_of_known_keys(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text(
            "# comment line\n"
            "scales = 2\n"
            "channels_per_scale = 4,8\n"
            "in_channels = 1\n"
            "context_compression = 4\n"
            "batch_size = 3\n"
            "lr = 0.002\n"
            "loss_kind = L1\n"
            "patch_size = 16\n")
        cfg = parse_train_config(path)
        assert cfg.model.scales == 2
        assert cfg.model.channels_per_scale == (4, 8)
        assert cfg.batch_size == 3
        assert cfg.lr == 0.002
        assert cfg.loss_kind == "L1"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("momentum = 0.9\n")
        with pytest.raises(UsageError, match="unknown config key 'momentum'"):
            parse_train_config(path)

    def test_every_config_field_is_a_key(self, tmp_path):
        model = ModelConfig(
            in_channels=1, scales=3, channels_per_scale=(8, 16, 32),
            resblocks_per_scale=2, rsabs_per_scale=3, context_dilations=(1, 2),
            context_compression=2, leaky_slope=0.1, kernel_size=5,
            updown_kernel=2)
        expected = TrainConfig(
            model=model, loss_kind="L1", batch_size=3, patch_size=32, lr=0.5,
            lr_halve_at=7, max_iters=9, seed=4, manifest="m.tsv",
            checkpoint_dir="ck", log_interval=2, checkpoint_interval=3)
        lines = []
        for config in (model, expected):
            for f in fields(config):
                value = getattr(config, f.name)
                if isinstance(value, tuple):
                    value = ",".join(map(str, value))
                if f.name != "model":
                    lines.append(f"{f.name} = {value}")
        path = tmp_path / "train.cfg"
        path.write_text("\n".join(lines) + "\n")
        assert parse_train_config(path) == expected

    def test_model_is_not_a_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("model = sadnet\n")
        with pytest.raises(UsageError, match="unknown config key 'model'"):
            parse_train_config(path)

    def test_bad_value_names_line_and_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("lr = 0.001\nbatch_size = four\n")
        with pytest.raises(UsageError,
                           match=r"bad\.cfg:2: batch_size: .*'four'"):
            parse_train_config(path)

    def test_patch_divisibility_enforced(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("patch_size = 100\n")
        with pytest.raises(UsageError, match="divisible by 8"):
            parse_train_config(path)


class TestTrainingLoop:
    def test_loss_decreases_and_log_format(self, rng, tmp_path):
        log = io.StringIO()
        cfg = tiny_train_config(tmp_path, rng)
        final_path, ckpt = train(cfg, log_stream=log)
        assert ckpt.iteration == 50
        lines = [l.split("\t") for l in log.getvalue().splitlines()]
        assert len(lines) == 10
        assert all(len(row) == 4 for row in lines)
        losses = [float(row[1]) for row in lines]
        assert losses[-1] < losses[0]
        assert load_checkpoint(final_path).iteration == 50

    def test_determinism_bit_identical(self, rng, tmp_path):
        outs = []
        for name in ("runA", "runB"):
            seed_rng = np.random.default_rng(99)
            cfg = tiny_train_config(tmp_path / name, seed_rng)
            path, _ = train(cfg)
            outs.append(open(path, "rb").read())
        assert outs[0] == outs[1]

    def test_resume_is_bit_exact(self, rng, tmp_path):
        full_cfg = tiny_train_config(tmp_path / "full", np.random.default_rng(4))
        full_path, _ = train(full_cfg)

        part_cfg = tiny_train_config(tmp_path / "part", np.random.default_rng(4),
                                     max_iters=25)
        train(part_cfg)
        mid = str(tmp_path / "part" / "ckpt" / "ckpt_00000025.sadn")
        part_cfg.max_iters = 50
        resumed_path, _ = train(part_cfg, resume_from=mid)

        full = load_checkpoint(full_path)
        resumed = load_checkpoint(resumed_path)
        for (n1, p1), (n2, p2) in zip(full.model.params(),
                                      resumed.model.params()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)
        np.testing.assert_equal(full.rng_state, resumed.rng_state)

    def test_resume_config_mismatch_rejected(self, rng, tmp_path):
        cfg = tiny_train_config(tmp_path, rng, max_iters=2,
                                checkpoint_interval=2)
        train(cfg)
        mid = str(tmp_path / "ckpt" / "ckpt_00000002.sadn")
        cfg.model = micro_config(channels_per_scale=(8, 16))
        with pytest.raises(DataError, match="channels_per_scale"):
            train(cfg, resume_from=mid)

    def test_nonfinite_loss_aborts_with_diagnostic(self, rng, tmp_path,
                                                   monkeypatch):
        cfg = tiny_train_config(tmp_path, rng, max_iters=3, lr=1e-3)
        # poison the initial weights so the first forward pass overflows
        orig = training_mod.SADNet

        def poisoned(config, rng, dtype):
            m = orig(config, rng=rng, dtype=dtype)
            for _, p in m.params():
                if p.data.size:
                    p.data[:] = np.float32(1e30)
            return m

        monkeypatch.setattr(training_mod, "SADNet", poisoned)
        # the overflow is the point of the test
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="non-finite loss"):
                train(cfg)
        diag = tmp_path / "ckpt" / "ckpt_nonfinite.sadn"
        assert diag.exists()
        assert load_checkpoint(diag).iteration == 0

    def test_nonfinite_gradient_aborts_before_update(self, rng, tmp_path,
                                                     monkeypatch):
        cfg = tiny_train_config(tmp_path, rng, max_iters=3,
                                checkpoint_interval=1)
        import sadnet.training as training_mod
        models = []
        orig_model = training_mod.SADNet

        def recorded(config, rng, dtype):
            models.append(orig_model(config, rng=rng, dtype=dtype))
            return models[-1]

        orig_backward = Tensor.backward
        calls = []

        def poisoned_backward(loss):
            # the loss is finite; one gradient element of step 1 turns NaN
            orig_backward(loss)
            calls.append(loss.item())
            if len(calls) == 2:
                models[0].head.weight.grad[0, 0, 0, 0] = np.nan

        monkeypatch.setattr(training_mod, "SADNet", recorded)
        monkeypatch.setattr(Tensor, "backward", poisoned_backward)
        with pytest.raises(NumericError,
                           match="non-finite gradient in head.weight at "
                                 "iteration 1"):
            train(cfg)
        assert all(math.isfinite(v) for v in calls)
        diag = load_checkpoint(tmp_path / "ckpt" / "ckpt_nonfinite.sadn")
        before = load_checkpoint(tmp_path / "ckpt" / "ckpt_00000001.sadn")
        assert diag.iteration == 1
        for (n1, p1), (n2, p2) in zip(diag.model.params(),
                                      before.model.params()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_missing_images_listed(self, rng, tmp_path):
        cfg = tiny_train_config(tmp_path, rng)
        manifest = tmp_path / "train.tsv"
        manifest.write_text("/nonexistent/a.pgm\t/nonexistent/a_n.pgm\t25\t0\n")
        with pytest.raises(DataError, match="/nonexistent/a.pgm"):
            train(cfg)

    def test_image_smaller_than_patch_rejected(self, rng, tmp_path):
        cfg = tiny_train_config(tmp_path, rng, patch_size=64)
        with pytest.raises(DataError,
                           match=r"img0\.pgm: image 32x32 smaller than patch "
                                 r"size 64"):
            train(cfg)


def _leaves(obj):
    """Every value reachable from obj through containers and attributes."""
    if isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _leaves(item)
    elif hasattr(obj, "__dict__"):
        yield from _leaves(list(vars(obj).values()))
    else:
        yield obj


class TestTrainingSet:
    """The corpus stays on disk; a bad corpus stops before any step."""

    @staticmethod
    def write_corpus(tmp_path, rng, shapes):
        """One image per (height, width, channels); returns the manifest."""
        entries = []
        for i, (h, w, c) in enumerate(shapes):
            path = tmp_path / f"img{i}.{'pgm' if c == 1 else 'ppm'}"
            samples = rng.integers(0, 256, (h, w, c)).astype(np.uint8)
            save_image(ImageBuffer(w, h, c, samples), path)
            entries.append(ManifestEntry(str(path), str(path), 25.0, i))
        manifest = tmp_path / "train.tsv"
        write_manifest(entries, manifest)
        return str(manifest)

    @pytest.mark.parametrize("channels", [1, 3])
    def test_sampler_matches_float32_corpus_oracle(self, rng, tmp_path,
                                                   channels):
        shapes = [(24, 40), (37, 19), (19, 19)]
        samples = [rng.integers(0, 256, (h, w, channels)).astype(np.uint8)
                   for h, w in shapes]
        images = []
        for i, ((h, w), pixels) in enumerate(zip(shapes, samples)):
            path = tmp_path / f"img{i}.pnm"
            save_image(ImageBuffer(w, h, channels, pixels), path)
            images.append(open_image(path))
        entries = [ManifestEntry("", "", sigma, 0)
                   for sigma in (5.0, 25.0, 50.0)]
        ours, ref = make_rng(17), make_rng(17)
        codes = []
        for _ in range(10):
            noisy, clean = sample_batch(ours, entries, images, 4, 16)
            want_noisy, want_clean, batch_codes = sample_batch_reference(
                ref, samples, [e.sigma for e in entries], 4, 16)
            codes += batch_codes
            assert noisy.dtype == clean.dtype == np.float32
            assert noisy.shape == (4, channels, 16, 16)
            np.testing.assert_array_equal(clean, want_clean)
            np.testing.assert_array_equal(noisy, want_noisy)
        assert set(codes) == set(range(8))
        np.testing.assert_equal(ours.bit_generator.state,
                                ref.bit_generator.state)

    def test_train_holds_no_corpus_pixels(self, rng, tmp_path, monkeypatch):
        """sample_batch gets headers only, and each step reads batch_size
        patches of patch_size rows from disk."""
        shapes = [(32, 48, 1), (40, 32, 1), (32, 32, 1)]
        cfg = tiny_train_config(tmp_path, rng, max_iters=2,
                                checkpoint_interval=0)
        cfg.manifest = self.write_corpus(tmp_path, rng, shapes)
        received, reads = [], []
        sampler, reader = training_mod.sample_batch, training_mod.read_rows

        def recorded(*args):
            received.append(args)
            reads.append([])
            return sampler(*args)

        def counted(image, top, rows):
            reads[-1].append(rows)
            return reader(image, top, rows)

        monkeypatch.setattr(training_mod, "sample_batch", recorded)
        monkeypatch.setattr(training_mod, "read_rows", counted)
        train(cfg)
        assert len(received) == 2
        assert not any(isinstance(leaf, np.ndarray)
                       for leaf in _leaves(received))
        assert reads == [[cfg.patch_size] * cfg.batch_size] * 2

    def test_header_claiming_more_pixels_rejected_unread(self, rng, tmp_path,
                                                         monkeypatch):
        """Setup stops on the header's size alone, before any step."""
        cfg = tiny_train_config(tmp_path, rng, image_size=128)
        bad = tmp_path / "clean" / "img2.pgm"
        blob = bad.read_bytes()
        bad.write_bytes(blob.replace(b"128 128", b"128 129", 1))
        read = []
        real_open = open

        class Counted:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def read(self, size=-1):
                data = self.fh.read(size)
                read.append(len(data))
                return data

            def fileno(self):
                return self.fh.fileno()

        def counted_open(path, *args):
            fh = real_open(path, *args)
            return Counted(fh) if str(path) == str(bad) else fh

        monkeypatch.setattr(data_module, "open", counted_open, raising=False)
        monkeypatch.setattr(training_mod, "sample_batch", None)
        with pytest.raises(DataError,
                           match=r"img2\.pgm: truncated payload at byte offset "
                                 r"\d+ \(need 16512 bytes, got 16384\)"):
            train(cfg)
        assert 0 < sum(read) <= data_module._HEADER_CHUNK < len(blob)
        assert not (tmp_path / "ckpt").exists()

    def test_empty_manifest_rejected(self, rng, tmp_path):
        cfg = tiny_train_config(tmp_path, rng)
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        cfg.manifest = str(empty)
        with pytest.raises(DataError, match="empty.tsv lists no images"):
            train(cfg)
        assert not (tmp_path / "ckpt").exists()

    def test_mixed_channels_rejected_by_name(self, rng, tmp_path):
        cfg = tiny_train_config(tmp_path, rng)
        cfg.manifest = self.write_corpus(
            tmp_path, rng, [(32, 32, 1), (32, 32, 3), (32, 32, 1)])
        with pytest.raises(DataError,
                           match=r"img1\.ppm has 3 channels; model expects 1"):
            train(cfg)

    def test_wrong_channel_count_names_every_file(self, rng, tmp_path):
        cfg = tiny_train_config(tmp_path, rng)
        cfg.manifest = self.write_corpus(tmp_path, rng,
                                         [(32, 32, 3), (32, 32, 3)])
        with pytest.raises(DataError,
                           match=r"img0\.ppm has 3 channels, .*img1\.ppm has "
                                 r"3 channels; model expects 1"):
            train(cfg)

    @pytest.mark.parametrize("sigma", ["-5", "nan", "inf", "1e41"])
    def test_bad_manifest_sigma_rejected_before_any_step(self, rng, tmp_path,
                                                         sigma):
        cfg = tiny_train_config(tmp_path, rng)
        manifest = tmp_path / "train.tsv"
        lines = manifest.read_text().splitlines()
        fields_ = lines[1].split("\t")
        lines[1] = "\t".join(fields_[:2] + [sigma] + fields_[3:])
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"train\.tsv:2: sigma"):
            train(cfg)
        assert not (tmp_path / "ckpt").exists()

    def test_negative_zero_manifest_sigma_trains_as_zero(self, tmp_path):
        # -0 passes a sigma < 0 check, but numpy's normal() rejects a scale
        # whose sign bit is set
        weights = []
        for sigma in ("-0", "0"):
            cfg = tiny_train_config(tmp_path / sigma,
                                    np.random.default_rng(5), max_iters=2,
                                    checkpoint_interval=0)
            manifest = tmp_path / sigma / "train.tsv"
            manifest.write_text("".join(
                "\t".join(line.split("\t")[:2] + [sigma]
                          + line.split("\t")[3:])
                for line in manifest.read_text().splitlines(True)))
            _, ck = train(cfg, log_stream=io.StringIO())
            weights.append([p.data for _, p in ck.model.params()])
        for a, b in zip(*weights):
            np.testing.assert_array_equal(a, b)


class TestCorpusDamagedMidRun:
    """A corpus image damaged after setup stops the next step with a
    DataError, and the checkpoints already written stay as they were."""

    @pytest.mark.parametrize("damage", ["truncate", "delete"])
    def test_next_step_names_file_and_offset(self, rng, tmp_path, monkeypatch,
                                             damage):
        cfg = tiny_train_config(tmp_path, rng, n_images=2, max_iters=5,
                                checkpoint_interval=1)
        ckpt = tmp_path / "ckpt"
        images = sorted((tmp_path / "clean").iterdir())
        written = {}
        sampler = training_mod.sample_batch

        def damaged_before_step_3(*args):
            if not written and (ckpt / "ckpt_00000002.sadn").exists():
                written.update((p.name, p.read_bytes()) for p in ckpt.iterdir())
                for path in images:
                    if damage == "truncate":
                        path.write_bytes(path.read_bytes()[:20])
                    else:
                        path.unlink()
            return sampler(*args)

        monkeypatch.setattr(training_mod, "sample_batch", damaged_before_step_3)
        with pytest.raises(DataError) as err:
            train(cfg)
        assert re.search(r"img[01]\.pgm.* at byte offset \d+", str(err.value))
        assert set(written) == {"ckpt_00000001.sadn", "ckpt_00000002.sadn"}
        assert {p.name: p.read_bytes() for p in ckpt.iterdir()} == written


class TestStepMemory:
    def test_memory_per_step_is_bounded(self, rng, tmp_path):
        """Each step frees its graph by reference counting alone.

        With the cyclic collector off, a graph kept alive by a reference
        cycle or by the model would add a whole step's saved state to the
        traced memory after every step. Step 1 allocates Adam's moments
        after its own peak, so step 2 is the first step whose peak and
        level include them; later steps are compared with step 2.
        """
        # the smoke config: 1 channel, 8/16/32/64, batch 4, patch 64
        cfg = tiny_train_config(
            tmp_path, rng, image_size=64,
            model=ModelConfig(in_channels=1, channels_per_scale=(8, 16, 32, 64)),
            batch_size=4, patch_size=64, max_iters=4, log_interval=1,
            checkpoint_interval=0)
        steps = []

        class Probe:
            def write(self, text):
                steps.append(tracemalloc.get_traced_memory())
                tracemalloc.reset_peak()

            def flush(self):
                pass

        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            train(cfg, log_stream=Probe())
        finally:
            tracemalloc.stop()
            gc.enable()
        assert len(steps) == 4
        (level, peak), later = steps[1], steps[2:]
        for current, step_peak in later:
            assert abs(step_peak - peak) <= 0.05 * peak
            assert abs(current - level) <= 0.01 * peak


class TestGradientDtype:
    def test_float32_step_keeps_float32_gradients(self, rng, tmp_path,
                                                  monkeypatch):
        # a float64 gradient anywhere would make every GEMM below it upcast
        seen = []
        accumulate = Tensor.accumulate_grad

        def recorded(self, g):
            seen.append((g.dtype, self.data.dtype))
            accumulate(self, g)

        monkeypatch.setattr(Tensor, "accumulate_grad", recorded)
        train(tiny_train_config(tmp_path, rng, max_iters=1,
                                checkpoint_interval=0), log_stream=io.StringIO())
        assert seen
        f32 = np.dtype(np.float32)
        assert set(seen) == {(f32, f32)}

    def test_fused_leaky_relu_backward_keeps_dtype(self, rng):
        # an identity 1x1 conv with slope 0.2 is the leaky ReLU itself
        for dtype in (np.float32, np.float64):
            x = Tensor(rng.standard_normal((1, 2, 3, 3)).astype(dtype),
                       requires_grad=True)
            eye = Tensor(np.eye(2, dtype=dtype).reshape(2, 2, 1, 1))
            total(T.conv2d(x, eye, slope=0.2)).backward()
            assert x.grad.dtype == dtype
            np.testing.assert_array_equal(
                x.grad, np.where(x.data >= 0, 1.0, 0.2).astype(dtype))


class TestInference:
    def test_inference_builds_no_graph_and_matches(self, rng, tmp_path):
        model = SADNet(micro_config(), rng=np.random.default_rng(3),
                       dtype=np.float32)
        # a non-identity model, so the denoised pixels depend on the weights
        model.tail.weight.data[:] = np.random.default_rng(4).standard_normal(
            model.tail.weight.shape) * 0.1
        from sadnet.checkpoint import save_checkpoint
        from sadnet.optim import AdamState
        ck = tmp_path / "m.sadn"
        save_checkpoint(ck, model, AdamState(), 0)
        clean = synth_buffer(rng, 32)
        noisy = from_tensor(add_awgn(to_tensor(clean, np.float64),
                                     NoiseSpec(25.0, 0)))
        cp, np_ = tmp_path / "c.pgm", tmp_path / "n.pgm"
        save_image(clean, cp)
        save_image(noisy, np_)
        manifest = tmp_path / "eval.tsv"
        write_manifest([ManifestEntry(str(cp), str(np_), 25.0, 0)], manifest)

        frozen = load_inference_model(ck)
        assert not any(p.requires_grad for _, p in frozen.params())
        x = to_tensor(noisy, np.float32)
        assert frozen(x)._backward is None
        # the same weights with gradients on give the same bits
        live = load_checkpoint(ck).model
        assert all(p.requires_grad for _, p in live.params())
        out = denoise_tensor(live, x)
        np.testing.assert_array_equal(denoise_tensor(frozen, x).data, out.data)
        expected = from_tensor(out)
        report = evaluate(ck, manifest)
        assert report.psnr_values == [psnr(expected, clean)]
        assert report.ssim_values == [ssim(expected, clean)]
        denoise_image(ck, np_, tmp_path / "d.pgm")
        np.testing.assert_array_equal(
            load_image(tmp_path / "d.pgm").samples, expected.samples)

    def test_arbitrary_size_pad_and_crop(self, rng):
        model = SADNet(micro_config(), rng=np.random.default_rng(0),
                       dtype=np.float64)
        x = Tensor(rng.random((1, 1, 75, 100)))
        y = denoise_tensor(model, x)
        assert y.shape == (1, 1, 75, 100)

    def test_identity_model_up_to_quantization(self, rng, tmp_path):
        # zero-initialized tail makes the network the identity map, so a
        # denoise round trip must reproduce the input image exactly
        model = SADNet(micro_config(), rng=np.random.default_rng(1),
                       dtype=np.float64)
        from sadnet.checkpoint import save_checkpoint
        from sadnet.optim import AdamState
        ck = tmp_path / "id.sadn"
        save_checkpoint(ck, model, AdamState(), 0)
        src = tmp_path / "in.pgm"
        dst = tmp_path / "out.pgm"
        save_image(synth_buffer(rng, 32), src)
        denoise_image(ck, src, dst)
        assert src.read_bytes()[src.read_bytes().index(b"255\n"):] \
            == dst.read_bytes()[dst.read_bytes().index(b"255\n"):]

    def test_channel_mismatch_rejected(self, rng, tmp_path):
        model = SADNet(micro_config(), rng=np.random.default_rng(1),
                       dtype=np.float64)
        from sadnet.checkpoint import save_checkpoint
        from sadnet.optim import AdamState
        ck = tmp_path / "g.sadn"
        save_checkpoint(ck, model, AdamState(), 0)
        rgb = tmp_path / "rgb.ppm"
        samples = rng.integers(0, 256, (16, 16, 3)).astype(np.uint8)
        save_image(ImageBuffer(16, 16, 3, samples), rgb)
        with pytest.raises(DataError, match="channels"):
            denoise_image(ck, rgb, tmp_path / "out.ppm")


class TestEvaluate:
    def test_degenerate_identical_pair(self, rng, tmp_path):
        model = SADNet(micro_config(), rng=np.random.default_rng(2),
                       dtype=np.float64)
        from sadnet.checkpoint import save_checkpoint
        from sadnet.optim import AdamState
        ck = tmp_path / "m.sadn"
        save_checkpoint(ck, model, AdamState(), 0)
        img = tmp_path / "a.pgm"
        save_image(synth_buffer(rng, 32), img)
        manifest = tmp_path / "eval.tsv"
        write_manifest([ManifestEntry(str(img), str(img), 0.0, 0)], manifest)
        report = evaluate(ck, manifest)
        # identity model on a clean/clean pair: perfect scores
        assert report.psnr_values == [math.inf]
        assert report.ssim_values == [1.0]

    def test_mean_over_two_images(self, rng, tmp_path):
        model = SADNet(micro_config(), rng=np.random.default_rng(2),
                       dtype=np.float64)
        from sadnet.checkpoint import save_checkpoint
        from sadnet.optim import AdamState
        ck = tmp_path / "m.sadn"
        save_checkpoint(ck, model, AdamState(), 0)
        entries = []
        for i, sigma in enumerate((10.0, 40.0)):
            clean = synth_buffer(rng, 32)
            noisy = from_tensor(add_awgn(to_tensor(clean, np.float64),
                                         NoiseSpec(sigma, i)))
            cp, np_ = tmp_path / f"c{i}.pgm", tmp_path / f"n{i}.pgm"
            save_image(clean, cp)
            save_image(noisy, np_)
            entries.append(ManifestEntry(str(cp), str(np_), sigma, i))
        manifest = tmp_path / "eval.tsv"
        write_manifest(entries, manifest)
        report = evaluate(ck, manifest)
        assert len(report.names) == 2
        assert report.mean_psnr == pytest.approx(np.mean(report.psnr_values))
        assert report.psnr_values[0] > report.psnr_values[1]

    def test_missing_noisy_file_listed(self, rng, tmp_path):
        model = SADNet(micro_config(), rng=np.random.default_rng(2),
                       dtype=np.float64)
        from sadnet.checkpoint import save_checkpoint
        from sadnet.optim import AdamState
        ck = tmp_path / "m.sadn"
        save_checkpoint(ck, model, AdamState(), 0)
        img = tmp_path / "a.pgm"
        save_image(synth_buffer(rng, 32), img)
        manifest = tmp_path / "eval.tsv"
        write_manifest([ManifestEntry(str(img), str(tmp_path / "gone.pgm"),
                                      25.0, 0)], manifest)
        with pytest.raises(DataError, match="gone.pgm"):
            evaluate(ck, manifest)

    def test_empty_manifest_is_an_empty_report(self, tmp_path):
        model = SADNet(micro_config(), rng=np.random.default_rng(2),
                       dtype=np.float64)
        from sadnet.checkpoint import save_checkpoint
        from sadnet.optim import AdamState
        ck = tmp_path / "m.sadn"
        save_checkpoint(ck, model, AdamState(), 0)
        manifest = tmp_path / "eval.tsv"
        manifest.write_text("")
        assert evaluate(ck, manifest).names == []


class TestGradcheckNegativeControl:
    def test_detects_a_broken_gradient(self, rng):
        # an op with a deliberately wrong backward must be flagged
        x = Tensor(rng.standard_normal((1, 2, 4, 4)), requires_grad=True)

        def build():
            y = T.sigmoid(x)
            out = total(y)
            inner = y._backward

            def corrupted():
                inner()
                x.grad *= 0.5

            y._backward = corrupted
            return out

        result = finite_diff_check("negative-control", build, [x],
                                   max_elements=6)
        assert not result.passed


class TestFiniteDiffCheck:
    def test_finite_differences_build_no_graph(self):
        # with the cyclic collector off, any backward closure built by the
        # perturbed forwards would be left behind in a reference cycle
        model = SADNet(micro_config(), rng=np.random.default_rng(3),
                       dtype=np.float64)
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((1, 1, 8, 8)), requires_grad=True)
        target = Tensor(rng.standard_normal((1, 1, 8, 8)))

        def build():
            return T.loss("L2", model(x), target)

        params = [p for _, p in model.params()]
        gc.collect()
        gc.disable()
        try:
            finite_diff_check("model", build, [x, params[0]], max_elements=2)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert x.requires_grad and all(p.requires_grad for p in params)
