import numpy as np
import pytest

from sadnet.data import ImageBuffer


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def synth_image(rng, size=64):
    """Structured grayscale test image: smooth blobs + gradient + a square."""
    small = rng.random((size // 8, size // 8))
    img = np.kron(small, np.ones((8, 8)))
    for _ in range(3):
        img = (img + np.roll(img, 1, 0) + np.roll(img, 1, 1)
               + np.roll(img, -1, 0) + np.roll(img, -1, 1)) / 5
    gy, gx = np.mgrid[0:size, 0:size] / (size - 1)
    img = 0.6 * img + 0.25 * gy + 0.15 * gx
    r0, c0 = rng.integers(size // 8, size - size // 4 - 1, 2)
    sq = size // 4
    img[r0:r0 + sq, c0:c0 + sq] = np.clip(img[r0:r0 + sq, c0:c0 + sq] + 0.3, 0, 1)
    return np.clip(img, 0, 1)


def synth_buffer(rng, size=64) -> ImageBuffer:
    samples = (synth_image(rng, size) * 255).round().astype(np.uint8)[:, :, None]
    return ImageBuffer(size, size, 1, samples)
