import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sadnet import data as data_module
from sadnet.data import (ImageBuffer, ManifestEntry, NoiseSpec, add_awgn,
                         augment, from_tensor,
                         generate_noisy_corpus, load_image, make_rng,
                         open_image, read_manifest, read_rows, save_image,
                         to_tensor, write_manifest)
from sadnet.errors import ConfigurationError, DataError, UsageError
from sadnet.tensor import Tensor
from sadnet.training import parse_train_config

from conftest import synth_buffer


# paths of ``open`` audit events, recorded while this is a list
_opened = None


def _record_open(event, args):
    if event == "open" and _opened is not None:
        _opened.append(args[0])


sys.addaudithook(_record_open)


class TestPNM:
    def test_grayscale_payload_layout(self, tmp_path):
        samples = np.arange(12, dtype=np.uint8).reshape(3, 4, 1)
        path = tmp_path / "a.pgm"
        save_image(ImageBuffer(4, 3, 1, samples), path)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n4 3\n255\n")
        assert blob[len(b"P5\n4 3\n255\n"):] == bytes(range(12))

    def test_round_trip_bit_exact(self, rng, tmp_path):
        for channels, name in [(1, "g.pgm"), (3, "c.ppm")]:
            samples = rng.integers(0, 256, (5, 7, channels)).astype(np.uint8)
            path = tmp_path / name
            save_image(ImageBuffer(7, 5, channels, samples), path)
            back = load_image(path)
            assert (back.width, back.height, back.channels) == (7, 5, channels)
            np.testing.assert_array_equal(back.samples, samples)

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 # inline\n2\n255\n" + bytes(4))
        img = load_image(path)
        assert (img.width, img.height) == (2, 2)

    def test_sixteen_bit_rejected(self, tmp_path):
        path = tmp_path / "w.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(DataError, match="unsupported maxval"):
            load_image(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "w.pbm"
        path.write_bytes(b"P1\n2 2\n1 0 0 1\n")
        with pytest.raises(DataError, match="magic"):
            load_image(path)

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(10))
        with pytest.raises(DataError, match="truncated payload"):
            load_image(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_image(tmp_path / "nope.pgm")

    def test_load_image_opens_each_file_once(self, rng, tmp_path):
        # perfbench's eval-stock marks an op boundary at each ``open`` of a
        # clean image path, so a second open per image would corrupt it
        global _opened
        for channels, name in [(1, "g.pgm"), (3, "c.ppm")]:
            path = tmp_path / name
            samples = rng.integers(0, 256, (5, 7, channels)).astype(np.uint8)
            save_image(ImageBuffer(7, 5, channels, samples), path)
            _opened = []
            try:
                load_image(path)
            finally:
                opened, _opened = _opened, None
            assert opened == [str(path)]


class TestOpenImage:
    """Headers in memory, payload rows read from disk on demand."""

    @pytest.mark.parametrize("channels", [1, 3])
    def test_header_fields_and_rows(self, rng, tmp_path, channels):
        samples = rng.integers(0, 256, (9, 7, channels)).astype(np.uint8)
        path = tmp_path / "a.pnm"
        save_image(ImageBuffer(7, 9, channels, samples), path)
        img = open_image(path)
        assert (img.path, img.width, img.height, img.channels, img.offset) == (
            str(path), 7, 9, channels, len(b"P5\n7 9\n255\n"))
        for top, rows in [(0, 9), (2, 3), (8, 1)]:
            np.testing.assert_array_equal(read_rows(img, top, rows),
                                          samples[top:top + rows])

    def test_comment_longer_than_first_read(self, rng, tmp_path):
        samples = rng.integers(0, 256, (4, 5, 3)).astype(np.uint8)
        header = (b"P6\n# " + b"c" * (3 * data_module._HEADER_CHUNK)
                  + b"\n5 4\n255\n")
        path = tmp_path / "long.ppm"
        path.write_bytes(header + samples.tobytes())
        img = open_image(path)
        assert (img.width, img.height, img.channels, img.offset) == (
            5, 4, 3, len(header))
        np.testing.assert_array_equal(read_rows(img, 1, 3), samples[1:])
        np.testing.assert_array_equal(load_image(path).samples, samples)

    @pytest.mark.parametrize("blob", [
        b"P5\n4 4\n255\n" + bytes(10),  # short payload
        b"P5\n4 4\n255",                 # no payload separator
        b"P5\n4 4\n# " + b"c" * 5000,    # a long comment, then nothing
        b"P5\n4 x\n255\n" + bytes(16),
        b"P6\n0 4\n255\n",
        b"P3\n1 1\n255\n0 0 0\n",
    ])
    def test_same_errors_as_load_image(self, tmp_path, blob):
        path = tmp_path / "t.pgm"
        path.write_bytes(blob)
        with pytest.raises(DataError) as loaded:
            load_image(path)
        with pytest.raises(DataError) as opened:
            open_image(path)
        assert str(opened.value) == str(loaded.value)

    @pytest.mark.parametrize("damage", ["truncate", "delete"])
    def test_read_rows_on_a_damaged_file_names_it(self, rng, tmp_path, damage):
        path = tmp_path / "a.pgm"
        save_image(synth_buffer(rng, 16), path)
        img = open_image(path)
        if damage == "truncate":
            path.write_bytes(path.read_bytes()[:img.offset + 40])
            want = (f"{path}: truncated payload at byte offset "
                    f"{img.offset + 40} (need 64 bytes, got 24)")
        else:
            path.unlink()
            want = f"cannot read image {path} at byte offset {img.offset + 16}"
        with pytest.raises(DataError) as err:
            read_rows(img, 1, 4)
        assert str(err.value).startswith(want)


class TestQuantization:
    def test_dequantize_range(self):
        samples = np.array([[[0], [128], [255]]], dtype=np.uint8)
        t = to_tensor(ImageBuffer(3, 1, 1, samples))
        np.testing.assert_allclose(t.data[0, 0, 0], [0.0, 128 / 255, 1.0])

    def test_quantize_inverts_dequantize_exactly(self):
        samples = np.arange(256, dtype=np.uint8).reshape(16, 16, 1)
        buf = ImageBuffer(16, 16, 1, samples)
        back = from_tensor(to_tensor(buf))
        np.testing.assert_array_equal(back.samples, samples)

    def test_round_half_up_and_clipping(self):
        t = Tensor(np.array([-0.2, 0.5 / 255, 1.49 / 255, 1.5 / 255, 1.7])
                   .reshape(1, 1, 1, 5))
        out = from_tensor(t)
        np.testing.assert_array_equal(out.samples.ravel(), [0, 1, 1, 2, 255])


class TestAWGN:
    def test_sigma_zero_is_identity(self, rng):
        x = Tensor(rng.random((1, 1, 8, 8)))
        y = add_awgn(x, NoiseSpec(0.0, 123))
        np.testing.assert_array_equal(y.data, x.data)
        assert y.data is not x.data

    def test_negative_zero_sigma_is_sigma_zero(self, rng):
        # -0.0 passes a sigma < 0 check, but numpy's normal() rejects it
        x = Tensor(rng.random((1, 1, 8, 8)))
        y = add_awgn(x, NoiseSpec(-0.0, 123))
        np.testing.assert_array_equal(y.data, x.data)

    def test_negative_sigma_rejected(self, rng):
        with pytest.raises(UsageError, match="sigma"):
            add_awgn(Tensor(rng.random((1, 1, 4, 4))), NoiseSpec(-1.0, 0))

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_sigma_rejected(self, rng, sigma):
        with pytest.raises(UsageError, match="sigma must be finite"):
            add_awgn(Tensor(rng.random((1, 1, 4, 4))), NoiseSpec(sigma, 0))

    def test_sigma_whose_noise_overflows_float32_rejected(self, rng):
        image = Tensor(rng.random((1, 1, 4, 4)).astype(np.float32))
        assert np.isfinite(add_awgn(image, NoiseSpec(1e39, 0)).data).all()
        with pytest.raises(UsageError, match=r"at most 1\.356e\+39"):
            add_awgn(image, NoiseSpec(1e41, 0))

    def test_noise_statistics_sigma_50(self):
        x = Tensor(np.full((1, 1, 500, 500), 0.5))
        y = add_awgn(x, NoiseSpec(50.0, 7))
        noise = y.data - x.data
        assert abs(noise.std() - 50 / 255) < 0.02 * (50 / 255)
        assert abs(noise.mean()) < 0.002

    def test_never_clipped(self):
        x = Tensor(np.zeros((1, 1, 100, 100)))
        y = add_awgn(x, NoiseSpec(50.0, 3))
        assert y.data.min() < 0.0

    def test_seed_determinism(self, rng):
        x = Tensor(rng.random((1, 3, 16, 16)))
        a = add_awgn(x, NoiseSpec(25.0, 42))
        b = add_awgn(x, NoiseSpec(25.0, 42))
        c = add_awgn(x, NoiseSpec(25.0, 43))
        np.testing.assert_array_equal(a.data, b.data)
        assert np.any(a.data != c.data)


class TestAugment:
    @staticmethod
    def labeled_patch():
        return Tensor(np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4))

    def test_code_zero_identity(self):
        p = self.labeled_patch()
        np.testing.assert_array_equal(augment(p, 0).data, p.data)

    def test_all_eight_distinct(self):
        p = self.labeled_patch()
        variants = {augment(p, c).data.tobytes() for c in range(8)}
        assert len(variants) == 8

    def test_group_closure_under_rotation(self):
        # rotating four times returns to the start, from any group element
        p = self.labeled_patch()
        for code in range(8):
            q = augment(p, code)
            for _ in range(4):
                q = augment(q, 1)
            np.testing.assert_array_equal(q.data, augment(p, code).data)

    def test_known_inverses(self):
        p = self.labeled_patch()
        # rotation by k undone by rotation by 4 - k
        for k in (1, 2, 3):
            np.testing.assert_array_equal(
                augment(augment(p, k), 4 - k).data, p.data)
        # flip-only (code 4) is an involution
        np.testing.assert_array_equal(augment(augment(p, 4), 4).data, p.data)

    def test_rotation_semantics(self):
        p = self.labeled_patch()
        np.testing.assert_array_equal(augment(p, 1).data[0, 0],
                                      np.rot90(p.data[0, 0]))
        # flip happens before rotation
        flipped = p.data[:, :, :, ::-1]
        np.testing.assert_array_equal(augment(p, 5).data[0, 0],
                                      np.rot90(flipped[0, 0]))

    def test_non_square_rotation_rejected(self, rng):
        p = Tensor(rng.random((1, 1, 3, 4)))
        with pytest.raises(UsageError, match="square"):
            augment(p, 1)
        np.testing.assert_array_equal(augment(p, 2).data[0, 0],
                                      p.data[0, 0, ::-1, ::-1])

    def test_bad_code_rejected(self):
        with pytest.raises(UsageError, match="0..7"):
            augment(self.labeled_patch(), 8)


class TestManifest:
    def test_round_trip(self, tmp_path):
        entries = [ManifestEntry("a/clean.pgm", "a/noisy.pgm", 25.0, 7),
                   ManifestEntry("b.ppm", "b_n.ppm", 12.5, 99)]
        path = tmp_path / "manifest.tsv"
        write_manifest(entries, path)
        assert read_manifest(path) == entries

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\t25\t1\noops\n")
        with pytest.raises(DataError, match=":2:"):
            read_manifest(path)

    def test_non_numeric_sigma_or_seed_reports_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        for line in ("a\tb\tlow\t1\n", "a\tb\t25\tx1\n"):
            path.write_text("a\tb\t25\t1\n" + line)
            with pytest.raises(DataError, match=r"bad\.tsv:2: .*'(low|x1)'"):
                read_manifest(path)

    @pytest.mark.parametrize("sigma", ["-0.5", "nan", "inf", "-inf"])
    def test_sigma_must_be_finite_and_non_negative(self, tmp_path, sigma):
        path = tmp_path / "bad.tsv"
        path.write_text(f"a\tb\t0\t1\na\tb\t{sigma}\t1\n")
        with pytest.raises(DataError,
                           match=rf"bad\.tsv:2: sigma must be finite and "
                                 rf"non-negative, got {sigma}"):
            read_manifest(path)

    def test_negative_zero_sigma_reads_as_zero(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("a\tb\t-0\t1\n")
        (entry,) = read_manifest(path)
        assert entry.sigma == 0 and math.copysign(1, entry.sigma) == 1

    def test_corpus_generation(self, rng, tmp_path):
        in_dir = tmp_path / "clean"
        in_dir.mkdir()
        for i in range(3):
            save_image(synth_buffer(rng, 16), in_dir / f"img{i}.pgm")
        entries = generate_noisy_corpus(in_dir, tmp_path / "noisy", 25.0, seed=40)
        assert len(entries) == 3
        assert [e.seed for e in entries] == [40 ^ 0, 40 ^ 1, 40 ^ 2]
        for e in entries:
            noisy = load_image(e.noisy_path)
            clean = load_image(e.clean_path)
            diff = noisy.samples.astype(int) - clean.samples.astype(int)
            assert diff.std() > 10  # noise is visibly present

    def test_empty_corpus_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(DataError, match="no .pgm"):
            generate_noisy_corpus(tmp_path / "empty", tmp_path / "out", 25.0, 0)


class TestParsersProperty:
    """A damaged PNM (read whole or as a header), manifest or config file
    parses or raises one of the documented errors, never anything else.
    Only the parsers run: a mutated config may ask for a model of any
    size."""

    SEEDS = {
        "pnm": (load_image, b"P6\n# seed\n4 3\n255\n" + bytes(range(36))),
        "pnm_header": (open_image,
                       b"P6\n# seed\n4 3\n255\n" + bytes(range(36))),
        "manifest": (read_manifest,
                     b"a.pgm\tb.pgm\t25\t0\nc d.ppm\te.ppm\t15.5\t7\n"),
        "config": (parse_train_config,
                   b"# smoke\nin_channels = 1\nchannels_per_scale = 8,16,32,64"
                   b"\nbatch_size = 4\npatch_size = 64\nlr = 1e-3\n"
                   b"manifest = train.tsv\n"),
    }

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("kind", SEEDS)
    def test_mutated_file(self, tmp_path_factory, kind, data):
        parse, blob = self.SEEDS[kind]
        for _ in range(data.draw(st.integers(1, 4), label="edits")):
            at = data.draw(st.integers(0, len(blob)), label="offset")
            edit = data.draw(st.sampled_from(["overwrite", "insert", "delete"]),
                             label="edit")
            new = data.draw(st.binary(min_size=1, max_size=4), label="bytes")
            cut = at + len(new) if edit == "overwrite" else at + (edit == "delete")
            blob = blob[:at] + (b"" if edit == "delete" else new) + blob[cut:]
        path = tmp_path_factory.getbasetemp() / f"mutated.{kind}"
        path.write_bytes(blob)
        try:
            parse(path)
        except (UsageError, DataError, ConfigurationError):
            pass


class TestRNG:
    def test_philox_stream_reproducible(self):
        a = make_rng(123).normal(size=100)
        b = make_rng(123).normal(size=100)
        np.testing.assert_array_equal(a, b)
