import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from sadnet import data as data_module, model as model_module
from sadnet import training as training_module
from sadnet.checkpoint import save_checkpoint
from sadnet.cli import main
from sadnet.data import (ImageBuffer, ManifestEntry, load_image, read_manifest,
                         save_image, write_manifest)
from sadnet.model import SADNet
from sadnet.optim import AdamState

from conftest import synth_buffer
from test_checkpoint import shrink_after_fstat
from test_model import micro_config


def _save_micro_ckpt(path):
    model = SADNet(micro_config(), rng=np.random.default_rng(0),
                   dtype=np.float32)
    save_checkpoint(path, model, AdamState(), 0)
    return str(path)


@pytest.fixture
def micro_ckpt(tmp_path):
    return _save_micro_ckpt(tmp_path / "model.sadn")


@pytest.fixture
def corpus(rng, tmp_path):
    clean_dir = tmp_path / "clean"
    clean_dir.mkdir()
    for i in range(3):
        save_image(synth_buffer(rng, 32), clean_dir / f"img{i}.pgm")
    return clean_dir


def random_image(rng, path, height, width, channels=1):
    samples = rng.integers(0, 256, (height, width, channels)).astype(np.uint8)
    save_image(ImageBuffer(width, height, channels, samples), path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInspect:
    def test_stock_model_constants(self, capsys):
        code, out, _ = run(capsys, "inspect")
        assert code == 0
        fields = dict(line.split("\t") for line in out.splitlines())
        assert fields["scales"] == "4"
        assert fields["channels_per_scale"] == "32,64,128,256"
        assert fields["rsabs_per_scale"] == "1"
        assert fields["context_dilations"] == "1,2,3,4"
        assert fields["context_compression"] == "4"
        assert fields["kernel_size"] == "3"
        assert fields["updown_kernel"] == "2"
        assert fields["head_tail_kernel"] == "1"
        params = int(fields["params"])
        flops = int(fields["flops"])
        assert abs(params - 4_321_000) / 4_321_000 < 0.25
        assert abs(flops - 50.1e9) / 50.1e9 < 0.30

    def test_custom_size_changes_flops_not_params(self, capsys):
        _, out1, _ = run(capsys, "inspect", "--height", "64", "--width", "64")
        _, out2, _ = run(capsys, "inspect")
        f1 = dict(l.split("\t") for l in out1.splitlines())
        f2 = dict(l.split("\t") for l in out2.splitlines())
        assert f1["params"] == f2["params"]
        assert int(f1["flops"]) < int(f2["flops"])

    def test_prints_every_model_field(self, capsys, tmp_path):
        cfg = tmp_path / "model.cfg"
        cfg.write_text("leaky_slope = 0.05\n")
        _, default, _ = run(capsys, "inspect")
        code, out, _ = run(capsys, "inspect", "--config", str(cfg))
        assert code == 0
        assert out != default
        fields = dict(line.split("\t") for line in out.splitlines())
        assert fields["leaky_slope"] == "0.05"
        assert fields["in_channels"] == "3"

    @pytest.mark.parametrize("slope", ["-0.1", "1.5", "nan", "inf"])
    def test_leaky_slope_outside_unit_interval_is_config_error(
            self, capsys, tmp_path, slope):
        cfg = tmp_path / "model.cfg"
        cfg.write_text(f"leaky_slope = {slope}\n")
        code, out, err = run(capsys, "inspect", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert "leaky_slope must be finite and in [0, 1]" in err
        assert "Traceback" not in err

    def test_non_positive_size_is_usage_error(self, capsys):
        for flag in ("--height", "--width"):
            code, out, err = run(capsys, "inspect", flag, "0")
            assert code == 1
            assert out == ""
            assert "must be positive" in err


class TestPipeline:
    def test_make_noisy_then_eval_then_denoise(self, capsys, tmp_path,
                                               micro_ckpt, corpus):
        noisy_dir = tmp_path / "noisy"
        code, out, _ = run(capsys, "make-noisy", "--in-dir", str(corpus),
                           "--out-dir", str(noisy_dir), "--sigma", "25",
                           "--seed", "3")
        assert code == 0
        manifest = noisy_dir / "manifest.tsv"
        assert manifest.exists()
        assert len(read_manifest(manifest)) == 3

        code, out, _ = run(capsys, "eval", "--ckpt", micro_ckpt,
                           "--manifest", str(manifest), "--tsv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "name\tpsnr_db\tssim"
        assert lines[-1].startswith("mean\t")
        # identity-initialized model: PSNR of noisy vs clean at sigma 25
        mean_psnr = float(lines[-1].split("\t")[1])
        assert 18 < mean_psnr < 23

        out_img = tmp_path / "denoised.pgm"
        code, _, _ = run(capsys, "denoise", "--ckpt", micro_ckpt,
                         "--in", str(next(noisy_dir.glob("*.pgm"))),
                         "--out", str(out_img))
        assert code == 0
        assert load_image(out_img).width == 32

    def test_export_offsets(self, capsys, tmp_path, micro_ckpt, corpus):
        out_csv = tmp_path / "offsets.csv"
        code, out, _ = run(capsys, "export-offsets", "--ckpt", micro_ckpt,
                           "--in", str(next(corpus.glob("*.pgm"))),
                           "--out", str(out_csv), "--points", "2")
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "scale,py,px,k,sample_y,sample_x,modulation"
        assert len(lines) == 1 + 2 * 4 * 9  # scales x grid x taps

    def test_train_command(self, capsys, tmp_path, corpus):
        noisy_dir = tmp_path / "noisy"
        run(capsys, "make-noisy", "--in-dir", str(corpus),
            "--out-dir", str(noisy_dir), "--sigma", "25")
        cfg = tmp_path / "train.cfg"
        cfg.write_text(
            "in_channels = 1\nscales = 2\nchannels_per_scale = 4,8\n"
            "context_compression = 4\npatch_size = 16\nbatch_size = 2\n"
            "max_iters = 4\ncheckpoint_interval = 2\nlog_interval = 2\n"
            f"manifest = {noisy_dir / 'manifest.tsv'}\n"
            f"checkpoint_dir = {tmp_path / 'ckpt'}\n")
        code, out, err = run(capsys, "train", "--config", str(cfg))
        assert code == 0
        assert "ckpt_final.sadn" in err
        assert (tmp_path / "ckpt" / "ckpt_final.sadn").exists()
        assert len(out.splitlines()) == 2  # iterations 2 and 4 logged


class TestReproducibleTrain:
    def test_two_runs_write_the_same_checkpoint(self, capsys, tmp_path,
                                                corpus):
        # the README's scope: a fixed seed, BLAS thread count and numpy
        # version; each run is its own process, as a resumed run would be
        noisy_dir = tmp_path / "noisy"
        run(capsys, "make-noisy", "--in-dir", str(corpus),
            "--out-dir", str(noisy_dir), "--sigma", "25")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        blobs = []
        for name in ("a", "b"):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(
                "in_channels = 1\nscales = 2\nchannels_per_scale = 4,8\n"
                "context_compression = 4\npatch_size = 16\nbatch_size = 2\n"
                "max_iters = 3\ncheckpoint_interval = 0\nlog_interval = 0\n"
                f"manifest = {noisy_dir / 'manifest.tsv'}\n"
                f"checkpoint_dir = {tmp_path / name}\n")
            subprocess.run([sys.executable, "-m", "sadnet.cli", "train",
                            "--config", str(cfg)], env=env, check=True,
                           capture_output=True)
            blobs.append((tmp_path / name / "ckpt_final.sadn").read_bytes())
        assert blobs[0] == blobs[1]


class TestNegativeSeed:
    def test_train_config_seed(self, capsys, tmp_path, corpus):
        noisy_dir = tmp_path / "noisy"
        run(capsys, "make-noisy", "--in-dir", str(corpus),
            "--out-dir", str(noisy_dir), "--sigma", "25")
        cfg = tmp_path / "train.cfg"
        cfg.write_text(
            "in_channels = 1\nscales = 2\nchannels_per_scale = 4,8\n"
            "patch_size = 16\nbatch_size = 2\nmax_iters = 1\nseed = -1\n"
            f"manifest = {noisy_dir / 'manifest.tsv'}\n"
            f"checkpoint_dir = {tmp_path / 'ckpt'}\n")
        code, out, err = run(capsys, "train", "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert "seed must be non-negative, got -1" in err
        assert "Traceback" not in err
        assert not (tmp_path / "ckpt").exists()

    def test_make_noisy_seed(self, capsys, tmp_path, corpus):
        noisy_dir = tmp_path / "noisy"
        code, out, err = run(capsys, "make-noisy", "--in-dir", str(corpus),
                             "--out-dir", str(noisy_dir), "--sigma", "25",
                             "--seed", "-1")
        assert code == 1
        assert out == ""
        assert "seed must be non-negative, got -1" in err
        assert "Traceback" not in err
        assert not noisy_dir.exists()


class TestTrainConfigValues:
    """A rate or interval that cannot train is exit 1 naming its key,
    before any directory is made."""

    @pytest.mark.parametrize("line, message", [
        ("lr = nan", "lr must be finite and positive, got nan"),
        ("lr = inf", "lr must be finite and positive, got inf"),
        ("lr = -1", "lr must be finite and positive, got -1.0"),
        ("lr = 0", "lr must be finite and positive, got 0.0"),
        ("lr_halve_at = -1", "lr_halve_at must be non-negative, got -1"),
        ("log_interval = -1", "log_interval must be non-negative, got -1"),
        ("checkpoint_interval = -1",
         "checkpoint_interval must be non-negative, got -1"),
    ], ids=["lr-nan", "lr-inf", "lr-negative", "lr-zero", "lr_halve_at",
            "log_interval", "checkpoint_interval"])
    def test_rejected(self, capsys, tmp_path, corpus, line, message):
        noisy_dir = tmp_path / "noisy"
        run(capsys, "make-noisy", "--in-dir", str(corpus),
            "--out-dir", str(noisy_dir), "--sigma", "25")
        cfg = tmp_path / "train.cfg"
        cfg.write_text(
            "in_channels = 1\nscales = 2\nchannels_per_scale = 4,8\n"
            f"patch_size = 16\nbatch_size = 2\nmax_iters = 1\n{line}\n"
            f"manifest = {noisy_dir / 'manifest.tsv'}\n"
            f"checkpoint_dir = {tmp_path / 'ckpt'}\n")
        code, out, err = run(capsys, "train", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "ckpt").exists()


class TestBadSigma:
    @pytest.mark.parametrize("sigma", ["nan", "inf", "-1"])
    def test_make_noisy_sigma(self, capsys, tmp_path, corpus, sigma):
        code, out, err = run(capsys, "make-noisy", "--in-dir", str(corpus),
                             "--out-dir", str(tmp_path / "noisy"),
                             "--sigma", sigma)
        assert code == 1
        assert out == ""
        assert "sigma must be finite and non-negative" in err
        assert "Traceback" not in err
        assert not (tmp_path / "noisy").exists()


class TestFilesystemErrors:
    """A path the OS refuses is exit 2 naming it, not a traceback."""

    def make_noisy(self, capsys, *argv):
        code, out, err = run(capsys, "make-noisy", *argv)
        assert "Traceback" not in err
        return code, out, err

    def test_missing_in_dir(self, capsys, tmp_path):
        missing = tmp_path / "missing"
        code, out, err = self.make_noisy(
            capsys, "--in-dir", str(missing), "--out-dir",
            str(tmp_path / "noisy"), "--sigma", "25")
        assert (code, out) == (2, "")
        assert f"cannot list images in {missing}" in err
        assert not (tmp_path / "noisy").exists()

    def test_out_dir_is_a_file(self, capsys, tmp_path, corpus):
        taken = tmp_path / "taken"
        taken.write_text("x")
        code, out, err = self.make_noisy(
            capsys, "--in-dir", str(corpus), "--out-dir", str(taken),
            "--sigma", "25")
        assert (code, out) == (2, "")
        assert f"cannot create directory {taken}" in err

    def test_manifest_in_missing_dir(self, capsys, tmp_path, corpus):
        manifest = tmp_path / "no" / "such" / "m.tsv"
        code, out, err = self.make_noisy(
            capsys, "--in-dir", str(corpus), "--out-dir",
            str(tmp_path / "noisy"), "--sigma", "25", "--manifest",
            str(manifest))
        assert (code, out) == (2, "")
        assert f"cannot write manifest {manifest}" in err
        assert not list((tmp_path / "noisy").glob("*.pgm"))

    def test_manifest_is_a_directory(self, capsys, tmp_path, corpus):
        taken = tmp_path / "taken"
        taken.mkdir()
        code, out, err = self.make_noisy(
            capsys, "--in-dir", str(corpus), "--out-dir",
            str(tmp_path / "noisy"), "--sigma", "25", "--manifest", str(taken))
        assert (code, out) == (2, "")
        assert f"cannot write manifest {taken}: is a directory" in err
        assert not list((tmp_path / "noisy").glob("*.pgm"))

    def test_manifest_is_the_out_dir(self, capsys, tmp_path, corpus):
        noisy = tmp_path / "noisy"
        code, out, err = self.make_noisy(
            capsys, "--in-dir", str(corpus), "--out-dir", str(noisy),
            "--sigma", "25", "--manifest", str(noisy))
        assert (code, out) == (2, "")
        assert f"cannot write manifest {noisy}: is a directory" in err
        assert not list(noisy.glob("*.pgm"))

    def test_failed_run_keeps_the_old_manifest(self, capsys, tmp_path,
                                               corpus):
        manifest = tmp_path / "m.tsv"
        manifest.write_text("old\n")
        (corpus / "img9.pgm").write_bytes(b"P5\n")  # listed last, corrupt
        code, out, _ = self.make_noisy(
            capsys, "--in-dir", str(corpus), "--out-dir",
            str(tmp_path / "noisy"), "--sigma", "25", "--manifest",
            str(manifest))
        assert (code, out) == (2, "")
        assert manifest.read_text() == "old\n"

    def test_checkpoint_dir_is_a_file(self, capsys, tmp_path, corpus):
        noisy_dir = tmp_path / "noisy"
        run(capsys, "make-noisy", "--in-dir", str(corpus),
            "--out-dir", str(noisy_dir), "--sigma", "25")
        taken = tmp_path / "ckpt"
        taken.write_text("x")
        cfg = tmp_path / "train.cfg"
        cfg.write_text(
            "in_channels = 1\nscales = 2\nchannels_per_scale = 4,8\n"
            "patch_size = 16\nbatch_size = 2\nmax_iters = 1\n"
            f"manifest = {noisy_dir / 'manifest.tsv'}\n"
            f"checkpoint_dir = {taken}\n")
        code, out, err = run(capsys, "train", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert f"cannot create directory {taken}" in err
        assert "Traceback" not in err


class TestTrainCorpusErrors:
    """A corpus the model cannot train on is exit 2 before any step."""

    def train(self, capsys, tmp_path, manifest_lines):
        manifest = tmp_path / "train.tsv"
        manifest.write_text("".join(manifest_lines))
        cfg = tmp_path / "train.cfg"
        cfg.write_text(
            "in_channels = 3\nscales = 2\nchannels_per_scale = 4,8\n"
            "patch_size = 16\nbatch_size = 2\nmax_iters = 1\n"
            f"manifest = {manifest}\ncheckpoint_dir = {tmp_path / 'ckpt'}\n")
        code, out, err = run(capsys, "train", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert not (tmp_path / "ckpt").exists()
        return err

    def test_empty_manifest(self, capsys, tmp_path):
        err = self.train(capsys, tmp_path, [])
        assert "train.tsv lists no images" in err

    def test_grayscale_image_for_colour_model(self, capsys, rng, tmp_path):
        rgb = random_image(rng, tmp_path / "a.ppm", 20, 24, channels=3)
        grey = random_image(rng, tmp_path / "b.pgm", 24, 20)
        err = self.train(capsys, tmp_path, [f"{rgb}\t{rgb}\t25\t0\n",
                                             f"{grey}\t{grey}\t25\t1\n"])
        assert f"{grey} has 1 channels; model expects 3" in err
        assert "a.ppm" not in err

    def test_negative_sigma(self, capsys, rng, tmp_path):
        rgb = random_image(rng, tmp_path / "a.ppm", 20, 24, channels=3)
        err = self.train(capsys, tmp_path, [f"{rgb}\t{rgb}\t-25\t0\n"])
        assert "train.tsv:1: sigma must be finite and non-negative" in err


class TestTrainCorpusDamagedMidRun:
    def test_exit_2_keeps_written_checkpoint(self, capsys, monkeypatch,
                                             tmp_path, corpus):
        noisy_dir = tmp_path / "noisy"
        run(capsys, "make-noisy", "--in-dir", str(corpus),
            "--out-dir", str(noisy_dir), "--sigma", "25")
        cfg = tmp_path / "train.cfg"
        cfg.write_text(
            "in_channels = 1\nscales = 2\nchannels_per_scale = 4,8\n"
            "patch_size = 16\nbatch_size = 2\nmax_iters = 3\n"
            "checkpoint_interval = 1\nlog_interval = 1\n"
            f"manifest = {noisy_dir / 'manifest.tsv'}\n"
            f"checkpoint_dir = {tmp_path / 'ckpt'}\n")
        first = tmp_path / "ckpt" / "ckpt_00000001.sadn"
        written = []
        sampler = training_module.sample_batch

        def truncated_after_step_1(*args):
            if first.exists() and not written:
                written.append(first.read_bytes())
                for path in corpus.iterdir():
                    path.write_bytes(path.read_bytes()[:20])
            return sampler(*args)

        monkeypatch.setattr(training_module, "sample_batch",
                            truncated_after_step_1)
        code, out, err = run(capsys, "train", "--config", str(cfg))
        assert code == 2
        assert len(out.splitlines()) == 1  # step 1 logged, step 2 failed
        assert "Traceback" not in err
        assert re.search(r"img[0-2]\.pgm: truncated payload at byte offset "
                         r"\d+", err)
        assert sorted(p.name for p in (tmp_path / "ckpt").iterdir()) == [
            first.name]
        assert first.read_bytes() == written[0]


class TestExportOffsets:
    def test_points_below_one_is_usage_error(self, capsys, tmp_path,
                                             micro_ckpt, corpus):
        out_csv = tmp_path / "offsets.csv"
        for points in ("0", "-3"):
            code, out, err = run(capsys, "export-offsets", "--ckpt", micro_ckpt,
                                 "--in", str(next(corpus.glob("*.pgm"))),
                                 "--out", str(out_csv), "--points", points)
            assert code == 1
            assert out == ""
            assert f"--points (points per axis) must be at least 1, got {points}" in err
            assert not out_csv.exists()

    def test_points_above_longer_side_is_usage_error(self, capsys, rng,
                                                     tmp_path, micro_ckpt):
        img = random_image(rng, tmp_path / "wide.pgm", 8, 12)
        out_csv = tmp_path / "offsets.csv"
        # 2**62 points is past numpy's largest array: nothing is allocated
        for points in ("13", str(2 ** 62)):
            code, out, err = run(capsys, "export-offsets", "--ckpt", micro_ckpt,
                                 "--in", img, "--out", str(out_csv),
                                 "--points", points)
            assert (code, out) == (1, "")
            assert (f"--points (points per axis) must be at most 12, the "
                    f"image's longer side, got {points}") in err
            assert not out_csv.exists()

    def test_any_image_size(self, capsys, rng, tmp_path, micro_ckpt):
        # 31 is odd, the 2-scale model takes multiples of 2: the image is
        # padded as denoise pads it and only pixels inside it are probed
        img = random_image(rng, tmp_path / "odd.pgm", 31, 31)
        out_csv = tmp_path / "offsets.csv"
        code, _, _ = run(capsys, "export-offsets", "--ckpt", micro_ckpt,
                         "--in", img, "--out", str(out_csv), "--points", "3")
        assert code == 0
        rows = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
        assert len(rows) == 2 * 3 * 3 * 9  # scales x points^2 x taps
        for scale, extent in ((0, 31), (1, 16)):
            probed = {int(r[1]) for r in rows if int(r[0]) == scale}
            assert probed == {0, extent // 2, extent - 1}

    def test_channel_mismatch_is_data_error(self, capsys, rng, tmp_path,
                                            micro_ckpt):
        rgb = random_image(rng, tmp_path / "rgb.ppm", 16, 16, channels=3)
        code, _, err = run(capsys, "export-offsets", "--ckpt", micro_ckpt,
                           "--in", rgb, "--out", str(tmp_path / "o.csv"))
        assert code == 2
        assert "rgb.ppm has 3 channels, checkpoint model expects 1" in err


class TestEvalErrors:
    def test_channel_mismatch_is_data_error(self, capsys, rng, tmp_path,
                                            micro_ckpt):
        rgb = random_image(rng, tmp_path / "rgb.ppm", 16, 16, channels=3)
        manifest = tmp_path / "eval.tsv"
        write_manifest([ManifestEntry(rgb, rgb, 25.0, 0)], manifest)
        code, _, err = run(capsys, "eval", "--ckpt", micro_ckpt,
                           "--manifest", str(manifest))
        assert code == 2
        assert "rgb.ppm has 3 channels, checkpoint model expects 1" in err

    def test_size_mismatch_names_both_files(self, capsys, rng, tmp_path,
                                            micro_ckpt):
        clean = random_image(rng, tmp_path / "clean.pgm", 32, 32)
        noisy = random_image(rng, tmp_path / "noisy.pgm", 40, 32)
        manifest = tmp_path / "eval.tsv"
        write_manifest([ManifestEntry(clean, noisy, 25.0, 0)], manifest)
        code, _, err = run(capsys, "eval", "--ckpt", micro_ckpt,
                           "--manifest", str(manifest))
        assert code == 2
        assert err.startswith("data error: ")
        assert clean in err and noisy in err

    def test_image_smaller_than_ssim_window(self, capsys, rng, tmp_path,
                                            micro_ckpt):
        clean = random_image(rng, tmp_path / "clean.pgm", 5, 9)
        manifest = tmp_path / "eval.tsv"
        write_manifest([ManifestEntry(clean, clean, 25.0, 0)], manifest)
        code, out, err = run(capsys, "eval", "--ckpt", micro_ckpt,
                             "--manifest", str(manifest))
        assert (code, out) == (2, "")
        assert f"{clean}: image 5x9 smaller than the 11x11 SSIM window" in err

    def test_empty_manifest(self, capsys, tmp_path, micro_ckpt):
        manifest = tmp_path / "eval.tsv"
        manifest.write_text("")
        code, out, err = run(capsys, "eval", "--ckpt", micro_ckpt,
                             "--manifest", str(manifest))
        assert (code, out) == (2, "")
        assert f"{manifest} lists no images" in err


class TestNonUtf8Text:
    """A byte that is not UTF-8 in a manifest or config is exit 2 naming the
    file and the byte's offset."""

    def check(self, capsys, kind, path, offset, *argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"cannot read {kind} {path}: byte {offset} is not UTF-8" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_manifest(self, capsys, tmp_path, micro_ckpt, command):
        manifest = tmp_path / "m.tsv"
        manifest.write_bytes(b"a.pgm\tb.pgm\t25\t0\n\xff\xfe\n")
        cfg = tmp_path / "train.cfg"
        cfg.write_text("in_channels = 1\nscales = 2\nchannels_per_scale = 4,8\n"
                       f"manifest = {manifest}\n"
                       f"checkpoint_dir = {tmp_path / 'ckpt'}\n")
        argv = (["eval", "--ckpt", micro_ckpt, "--manifest", str(manifest)]
                if command == "eval" else ["train", "--config", str(cfg)])
        self.check(capsys, "manifest", manifest, 17, *argv)
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize("command", ["train", "inspect"])
    def test_config(self, capsys, tmp_path, command):
        cfg = tmp_path / "train.cfg"
        cfg.write_bytes(b"in_channels = 1\n# \xff\n")
        self.check(capsys, "config", cfg, 18, command, "--config", str(cfg))


class TestExitCodes:
    def test_usage_error_is_1(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus_key = 1\n")
        code, _, err = run(capsys, "train", "--config", str(cfg))
        assert code == 1
        assert "bogus_key" in err

    def test_missing_required_flag_is_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["denoise", "--ckpt", "x.sadn"])
        assert exc.value.code == 1
        capsys.readouterr()

    def test_data_error_is_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "denoise", "--ckpt",
                           str(tmp_path / "missing.sadn"),
                           "--in", "a.pgm", "--out", "b.pgm")
        assert code == 2
        assert "missing.sadn" in err

    def test_checkpoint_shrunk_while_loading_is_2(self, capsys, monkeypatch,
                                                  rng, tmp_path, micro_ckpt):
        image = random_image(rng, tmp_path / "in.pgm", 8, 8)
        size = os.path.getsize(micro_ckpt)
        shrink_after_fstat(monkeypatch, micro_ckpt)
        code, _, err = run(capsys, "denoise", "--ckpt", micro_ckpt,
                           "--in", image, "--out", str(tmp_path / "o.pgm"))
        assert code == 2
        # the last record, tail.bias, is one float32
        assert err == (f"data error: {micro_ckpt}: truncated checkpoint at "
                       f"byte offset {size - 4} (need 4 more bytes)\n")

    def test_corrupt_image_is_2(self, capsys, tmp_path, micro_ckpt):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"JUNK")
        code, _, err = run(capsys, "denoise", "--ckpt", micro_ckpt,
                           "--in", str(bad), "--out", str(tmp_path / "o.pgm"))
        assert code == 2


class TestGradcheckCommand:
    def test_ops_scope_passes(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--scope", "ops")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1].startswith("PASS")
        assert all("ok" in l or l.startswith("PASS") for l in lines)


class TestOutOfMemory:
    """A config that needs more memory than there is names the config file
    (exit 1). The weight allocation is made to fail, so nothing is
    allocated."""

    @pytest.fixture(autouse=True)
    def no_memory(self, monkeypatch):
        def refuse(*args):
            raise MemoryError("Unable to allocate 15.2 GiB")
        monkeypatch.setattr(model_module, "_he_uniform", refuse)

    def test_inspect(self, capsys, tmp_path):
        cfg = tmp_path / "model.cfg"
        cfg.write_text("kernel_size = 999\n")
        code, out, err = run(capsys, "inspect", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert f"{cfg}: config needs more memory than is available" in err

    def test_train(self, capsys, tmp_path, corpus):
        noisy_dir = tmp_path / "noisy"
        run(capsys, "make-noisy", "--in-dir", str(corpus),
            "--out-dir", str(noisy_dir), "--sigma", "25")
        cfg = tmp_path / "train.cfg"
        cfg.write_text(
            "in_channels = 1\nscales = 2\nchannels_per_scale = 4,8\n"
            "kernel_size = 999\npatch_size = 16\nbatch_size = 2\n"
            f"max_iters = 1\nmanifest = {noisy_dir / 'manifest.tsv'}\n"
            f"checkpoint_dir = {tmp_path / 'ckpt'}\n")
        code, out, err = run(capsys, "train", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert f"{cfg}: config needs more memory than is available" in err


class TestInputOutOfMemory:
    """An input too large for memory names the command's input (exit 2).
    The call that would allocate for it is made to fail, so nothing is
    allocated."""

    @staticmethod
    def refuse(*args):
        raise MemoryError("Unable to allocate 1.5 GiB")

    def check(self, capsys, source, *argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert (f"data error: {source}: input too large for the available "
                f"memory") in err

    def test_denoise(self, capsys, monkeypatch, tmp_path, micro_ckpt, corpus):
        monkeypatch.setattr(training_module, "denoise_tensor", self.refuse)
        image = str(corpus / "img0.pgm")
        self.check(capsys, image, "denoise", "--ckpt", micro_ckpt,
                   "--in", image, "--out", str(tmp_path / "o.pgm"))

    def test_eval(self, capsys, monkeypatch, tmp_path, micro_ckpt, corpus):
        run(capsys, "make-noisy", "--in-dir", str(corpus),
            "--out-dir", str(tmp_path / "noisy"), "--sigma", "25")
        monkeypatch.setattr(training_module, "denoise_tensor", self.refuse)
        manifest = str(tmp_path / "noisy" / "manifest.tsv")
        self.check(capsys, manifest, "eval", "--ckpt",
                   micro_ckpt, "--manifest", manifest)

    def test_export_offsets(self, capsys, monkeypatch, tmp_path, micro_ckpt,
                            corpus):
        monkeypatch.setattr(model_module, "denoise_tensor", self.refuse)
        image = str(corpus / "img0.pgm")
        self.check(capsys, image, "export-offsets", "--ckpt",
                   micro_ckpt, "--in", image,
                   "--out", str(tmp_path / "offsets.csv"))

    def test_make_noisy(self, capsys, monkeypatch, tmp_path, corpus):
        monkeypatch.setattr(data_module, "load_image", self.refuse)
        self.check(capsys, corpus, "make-noisy", "--in-dir",
                   str(corpus), "--out-dir", str(tmp_path / "noisy"),
                   "--sigma", "25")


@pytest.fixture(scope="module")
def value_inputs(tmp_path_factory):
    """A micro checkpoint, an 8x8 image and a one-image 16x16 corpus."""
    base = tmp_path_factory.mktemp("values")
    rng = np.random.default_rng(3)
    (base / "clean").mkdir()
    save_image(synth_buffer(rng, 16), base / "clean" / "a.pgm")
    return {"ckpt": _save_micro_ckpt(base / "model.sadn"),
            "image": random_image(rng, base / "img.pgm", 8, 8),
            "corpus": str(base / "clean"), "base": base}


_VALUE_SETTINGS = settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])
_ANY_INT = st.one_of(st.integers(-2, 10), st.integers(-2 ** 70, 2 ** 70))


class TestCliValuesProperty:
    """Every value of a numeric flag ends in a documented exit code with a
    message, never a traceback."""

    @staticmethod
    def run_values(capsys, *argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, *argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
        assert [w for w in caught if w.category is RuntimeWarning] == []

    @_VALUE_SETTINGS
    @given(height=_ANY_INT, width=_ANY_INT)
    def test_inspect_size(self, capsys, height, width):
        self.run_values(capsys, "inspect", f"--height={height}",
                        f"--width={width}")

    @_VALUE_SETTINGS
    @given(points=_ANY_INT)
    @example(points=2 ** 62)  # past numpy's largest array
    def test_export_offsets_points(self, capsys, value_inputs, points):
        self.run_values(capsys, "export-offsets", "--ckpt",
                        value_inputs["ckpt"], "--in", value_inputs["image"],
                        "--out", str(value_inputs["base"] / "offsets.csv"),
                        f"--points={points}")

    @_VALUE_SETTINGS
    @given(sigma=st.floats(), seed=_ANY_INT)
    @example(sigma=1e41, seed=0)  # its noise overflows float32
    @example(sigma=-0.0, seed=0)  # passes sigma < 0; numpy rejects its sign
    def test_make_noisy_sigma_seed(self, capsys, tmp_path_factory,
                                   value_inputs, sigma, seed):
        out_dir = tmp_path_factory.mktemp("noisy") / "out"
        self.run_values(capsys, "make-noisy", "--in-dir",
                        value_inputs["corpus"], "--out-dir", str(out_dir),
                        f"--sigma={sigma!r}", f"--seed={seed}")
