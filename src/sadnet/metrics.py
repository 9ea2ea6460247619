"""PSNR and single-scale SSIM.

SSIM uses the standard 11x11 Gaussian window (sigma 1.5), C1=(0.01*255)^2,
C2=(0.03*255)^2, averaged over valid window positions only (no padding;
border conventions can shift results by ~0.002, so this one is pinned).
Color images are scored per channel and averaged.

The window is separable, so each local mean is the 11-tap 1-D Gaussian
run along the rows and then along the columns of the valid region: 22
multiply-adds per pixel on a few image-sized float64 arrays, where the
direct 2-D window would take 121 and its window products 121 times the
image's memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import ImageBuffer
from .errors import UsageError

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
C1 = (0.01 * 255.0) ** 2
C2 = (0.03 * 255.0) ** 2


def psnr(a: ImageBuffer, b: ImageBuffer) -> float:
    """10*log10(255^2 / MSE) of 8-bit samples; identical images give
    math.inf."""
    if a.samples.shape != b.samples.shape:
        raise UsageError(
            f"psnr shape mismatch: {a.samples.shape} vs {b.samples.shape}")
    diff = a.samples.astype(np.float64) - b.samples.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0 * 255.0 / mse)


def _gaussian_taps() -> np.ndarray:
    """The normalized 1-D Gaussian of the SSIM window; ``gaussian_window``
    is its outer square."""
    ax = np.arange(SSIM_WINDOW, dtype=np.float64) - (SSIM_WINDOW - 1) / 2.0
    g = np.exp(-(ax ** 2) / (2.0 * SSIM_SIGMA ** 2))
    return g / g.sum()


def gaussian_window() -> np.ndarray:
    g = _gaussian_taps()
    return np.outer(g, g)


def _filter_valid(img: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Valid 2-D correlation with the separable window outer(taps, taps):
    along each row, then along each column of that result."""
    size = len(taps)
    h, w = img.shape[0] - size + 1, img.shape[1] - size + 1
    rows = taps[0] * img[:, :w]
    for j in range(1, size):
        rows += taps[j] * img[:, j: j + w]
    out = taps[0] * rows[:h]
    for i in range(1, size):
        out += taps[i] * rows[i: i + h]
    return out


def _ssim_channel(x: np.ndarray, y: np.ndarray) -> float:
    g = _gaussian_taps()
    mu_x = _filter_valid(x, g)
    mu_y = _filter_valid(y, g)
    sxx = _filter_valid(x * x, g) - mu_x * mu_x
    syy = _filter_valid(y * y, g) - mu_y * mu_y
    sxy = _filter_valid(x * y, g) - mu_x * mu_y
    num = (2 * mu_x * mu_y + C1) * (2 * sxy + C2)
    den = (mu_x * mu_x + mu_y * mu_y + C1) * (sxx + syy + C2)
    return float(np.mean(num / den))


def ssim(a: ImageBuffer, b: ImageBuffer) -> float:
    if a.samples.shape != b.samples.shape:
        raise UsageError(
            f"ssim shape mismatch: {a.samples.shape} vs {b.samples.shape}")
    if a.height < SSIM_WINDOW or a.width < SSIM_WINDOW:
        raise UsageError(
            f"image {a.height}x{a.width} smaller than the {SSIM_WINDOW}x"
            f"{SSIM_WINDOW} SSIM window")
    vals = [_ssim_channel(a.samples[:, :, c].astype(np.float64),
                          b.samples[:, :, c].astype(np.float64))
            for c in range(a.channels)]
    return float(np.mean(vals))


@dataclass
class MetricReport:
    """Per-image PSNR/SSIM plus arithmetic means."""

    names: list = field(default_factory=list)
    psnr_values: list = field(default_factory=list)
    ssim_values: list = field(default_factory=list)

    def add(self, name: str, psnr_db: float, ssim_value: float) -> None:
        self.names.append(name)
        self.psnr_values.append(psnr_db)
        self.ssim_values.append(ssim_value)

    @property
    def mean_psnr(self) -> float:
        return float(np.mean(self.psnr_values))

    @property
    def mean_ssim(self) -> float:
        return float(np.mean(self.ssim_values))

    def to_tsv(self) -> str:
        lines = ["name\tpsnr_db\tssim"]
        for n, p, s in zip(self.names, self.psnr_values, self.ssim_values):
            lines.append(f"{n}\t{p:.4f}\t{s:.6f}")
        lines.append(f"mean\t{self.mean_psnr:.4f}\t{self.mean_ssim:.6f}")
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        width = max([4] + [len(n) for n in self.names])
        rows = [f"{'name':<{width}}  {'PSNR(dB)':>10}  {'SSIM':>8}"]
        for n, p, s in zip(self.names, self.psnr_values, self.ssim_values):
            rows.append(f"{n:<{width}}  {p:>10.4f}  {s:>8.6f}")
        rows.append(f"{'mean':<{width}}  {self.mean_psnr:>10.4f}  {self.mean_ssim:>8.6f}")
        return "\n".join(rows) + "\n"
