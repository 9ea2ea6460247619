import math
import tracemalloc

import numpy as np
import pytest

from sadnet.data import ImageBuffer, NoiseSpec, add_awgn, from_tensor, to_tensor
from sadnet.errors import UsageError
from sadnet.metrics import MetricReport, gaussian_window, psnr, ssim

from conftest import synth_buffer
from oracles import ssim_reference


def buf(arr):
    arr = np.asarray(arr, dtype=np.uint8)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    h, w, c = arr.shape
    return ImageBuffer(w, h, c, arr)


class TestPSNR:
    def test_identical_images_infinite(self, rng):
        a = synth_buffer(rng, 16)
        assert psnr(a, a) == math.inf

    def test_uniform_difference_closed_form(self):
        a = buf(np.full((8, 8), 100))
        b = buf(np.full((8, 8), 110))
        # MSE = 100 -> 10 log10(255^2 / 100) = 28.1308
        assert psnr(a, b) == pytest.approx(28.1308, abs=0.01)

    def test_symmetry(self, rng):
        a = synth_buffer(rng, 16)
        b = synth_buffer(rng, 16)
        assert psnr(a, b) == psnr(b, a)

    def test_monotone_in_noise_level(self, rng):
        clean = synth_buffer(rng, 64)
        t = to_tensor(clean, dtype=np.float64)
        values = []
        for sigma in (5, 10, 20, 40):
            noisy = from_tensor(add_awgn(t, NoiseSpec(float(sigma), 11)))
            values.append(psnr(clean, noisy))
        assert values == sorted(values, reverse=True)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(UsageError):
            psnr(synth_buffer(rng, 16), synth_buffer(rng, 32))


class TestSSIM:
    def test_self_similarity_exactly_one(self, rng):
        a = synth_buffer(rng, 24)
        assert ssim(a, a) == 1.0

    def test_window_properties(self):
        w = gaussian_window()
        assert w.shape == (11, 11)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert w[5, 5] == w.max()
        np.testing.assert_allclose(w, w.T)

    def test_inverted_high_contrast_negative(self):
        tile = np.indices((16, 16)).sum(0) % 2
        a = buf(tile * 255)
        b = buf((1 - tile) * 255)
        assert ssim(a, b) < 0

    def test_matches_naive_reference(self, rng):
        a = synth_buffer(rng, 24)
        b_arr = np.clip(a.samples.astype(int)
                        + rng.integers(-30, 31, a.samples.shape), 0, 255)
        b = buf(b_arr[:, :, 0])
        got = ssim(a, b)
        want = ssim_reference(a.samples[:, :, 0].astype(np.float64),
                              b.samples[:, :, 0].astype(np.float64),
                              gaussian_window(),
                              (0.01 * 255) ** 2, (0.03 * 255) ** 2)
        assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("shape", [(157, 237, 3), (11, 11, 1)])
    def test_separable_filter_matches_reference(self, rng, shape):
        # a ragged colour pair, and the smallest image with one window
        a = rng.integers(0, 256, shape)
        b = np.clip(a + rng.integers(-40, 41, shape), 0, 255)
        want = np.mean([ssim_reference(a[:, :, c].astype(np.float64),
                                       b[:, :, c].astype(np.float64),
                                       gaussian_window(), (0.01 * 255) ** 2,
                                       (0.03 * 255) ** 2)
                        for c in range(shape[2])])
        assert abs(ssim(buf(a), buf(b)) - want) <= 1e-12

    def test_transient_memory_is_bounded(self, rng):
        # a 2-D window view times the window takes 121 float64 values per
        # pixel (about 275 MB per 320x480 channel); the separable filter
        # needs a few image-sized arrays
        a = buf(rng.integers(0, 256, (320, 480, 3)))
        b = buf(rng.integers(0, 256, (320, 480, 3)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ssim(a, b)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    def test_color_averages_channels(self, rng):
        samples = rng.integers(0, 256, (16, 16, 3)).astype(np.uint8)
        other = rng.integers(0, 256, (16, 16, 3)).astype(np.uint8)
        a, b = buf(samples), buf(other)
        per_channel = [ssim(buf(samples[:, :, c]), buf(other[:, :, c]))
                       for c in range(3)]
        assert ssim(a, b) == pytest.approx(np.mean(per_channel), abs=1e-12)

    def test_too_small_image_rejected(self, rng):
        with pytest.raises(UsageError, match="11"):
            ssim(synth_buffer(rng, 8), synth_buffer(rng, 8))


class TestMetricReport:
    def test_means_are_plain_arithmetic(self):
        report = MetricReport()
        report.add("a.pgm", 30.0, 0.9)
        report.add("b.pgm", 20.0, 0.7)
        assert report.mean_psnr == pytest.approx(25.0)
        assert report.mean_ssim == pytest.approx(0.8)

    def test_tsv_layout(self):
        report = MetricReport()
        report.add("x.pgm", 31.25, 0.875)
        lines = report.to_tsv().splitlines()
        assert lines[0].split("\t")[0] == "name"
        assert lines[1].startswith("x.pgm\t")

    def test_infinite_psnr_renders(self):
        report = MetricReport()
        report.add("same.pgm", math.inf, 1.0)
        assert "inf" in report.to_tsv()
        assert "inf" in report.to_table()
