"""Seeded inputs for the benchmark workloads.

Everything the program reads is written here as files: PGM/PPM corpora,
TSV manifests and a ``.sadn`` checkpoint. The same seed gives the same
files. Clean images are smooth random fields with gradients and hard-edged
boxes, so denoising and SSIM see both flat areas and edges.
"""

from __future__ import annotations

import os

import numpy as np

SIGMA = 25.0
TRAIN_IMAGES = 64
TRAIN_SHAPE = (320, 480)     # BSD-sized training images
EVAL_SHAPE = (160, 240)
RAGGED_SHAPE = (157, 237)    # not divisible by 8: takes the reflect-pad path
EVAL_SEEDED = 5              # seeded eval images besides the anchor and ragged
ANCHOR_SEED = 20011029       # fixed: the anchor image and the eval checkpoint


def synth_image(rng: np.random.Generator, height: int, width: int,
                channels: int) -> np.ndarray:
    """uint8 (h, w, c) image: blurred random field + gradient + boxes."""
    cell = 16
    low = rng.random((height // cell + 2, width // cell + 2, channels))
    img = np.kron(low, np.ones((cell, cell, 1)))[:height, :width]
    for _ in range(4):
        img = (img + np.roll(img, 1, 0) + np.roll(img, -1, 0)
               + np.roll(img, 1, 1) + np.roll(img, -1, 1)) / 5.0
    gy, gx = np.mgrid[0:height, 0:width]
    img = 0.6 * img + (0.2 * gy / height + 0.2 * gx / width)[:, :, None]
    for _ in range(6):
        top = int(rng.integers(0, height - height // 6))
        left = int(rng.integers(0, width - width // 6))
        bh = int(rng.integers(height // 12, height // 4))
        bw = int(rng.integers(width // 12, width // 4))
        img[top:top + bh, left:left + bw] = rng.random(channels)
    return np.clip(np.floor(img * 255.0 + 0.5), 0, 255).astype(np.uint8)


def write_pnm(path: str, samples: np.ndarray) -> None:
    h, w, c = samples.shape
    magic = b"P5" if c == 1 else b"P6"
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (w, h))
        fh.write(np.ascontiguousarray(samples).tobytes())


def make_train_corpus(workdir: str, seed: int, channels: int) -> str:
    """Write the training corpus and its manifest; return the manifest path."""
    rng = np.random.default_rng([seed, channels, 1])
    ext = "pgm" if channels == 1 else "ppm"
    corpus = os.path.join(workdir, "train")
    os.makedirs(corpus, exist_ok=True)
    lines = []
    for i in range(TRAIN_IMAGES):
        path = os.path.join(corpus, f"img{i:02d}.{ext}")
        write_pnm(path, synth_image(rng, *TRAIN_SHAPE, channels))
        lines.append(f"{path}\t{path}\t{SIGMA:g}\t{i}\n")
    manifest = os.path.join(workdir, "train.tsv")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return manifest


def make_eval_set(workdir: str, seed: int, sadnet) -> list:
    """Write clean/noisy eval images; return manifest entries, anchor first.

    The anchor image and its noise come from ``ANCHOR_SEED``, so its
    PSNR/SSIM are the same for every workload seed and can be pinned. The
    noisy images are made by the program's own ``make-noisy`` path.
    """
    entries = []
    groups = [("anchor", ANCHOR_SEED, [EVAL_SHAPE]),
              ("seeded", seed, [RAGGED_SHAPE] + [EVAL_SHAPE] * EVAL_SEEDED)]
    for name, group_seed, shapes in groups:
        rng = np.random.default_rng([group_seed, 2])
        clean_dir = os.path.join(workdir, name, "clean")
        noisy_dir = os.path.join(workdir, name, "noisy")
        os.makedirs(clean_dir, exist_ok=True)
        for i, shape in enumerate(shapes):
            write_pnm(os.path.join(clean_dir, f"{name}{i:02d}.ppm"),
                      synth_image(rng, *shape, 3))
        entries += sadnet.data.generate_noisy_corpus(
            clean_dir, noisy_dir, SIGMA, group_seed % 2**31)
    return entries


def make_eval_checkpoint(path: str, sadnet) -> None:
    """Stock model with non-zero offset heads and tail, from ``ANCHOR_SEED``.

    With the stock zero-initialised heads the offsets are 0 and the network
    is the identity; here offsets are fractional and the output differs
    from the input.
    """
    rng = np.random.default_rng([ANCHOR_SEED, 3])
    model = sadnet.model.SADNet(sadnet.model.ModelConfig(), rng=rng)
    for transfer in model.offset:
        w = transfer.head.weight.data
        fan_in = w.shape[1] * w.shape[2] * w.shape[3]
        w[...] = rng.uniform(-1.0, 1.0, w.shape) * (0.1 / np.sqrt(fan_in))
    tail = model.tail.weight.data
    tail[...] = rng.uniform(-2e-4, 2e-4, tail.shape)
    sadnet.checkpoint.save_checkpoint(path, model, sadnet.optim.AdamState(), 0)


def generate(workdir: str, seed: int, spec: dict, sadnet) -> dict:
    """Write every input of one run; return what the sessions need."""
    os.makedirs(workdir, exist_ok=True)
    if spec["kind"] == "train":
        return {"manifest": make_train_corpus(workdir, seed,
                                              spec["in_channels"])}
    pool = make_eval_set(workdir, seed, sadnet)
    ckpt = os.path.join(workdir, "eval.sadn")
    make_eval_checkpoint(ckpt, sadnet)
    noisy_psnr, pixels = {}, {}
    for e in pool:
        clean = sadnet.data.load_image(e.clean_path)
        noisy = sadnet.data.load_image(e.noisy_path)
        diff = clean.samples.astype(np.float64) - noisy.samples
        noisy_psnr[os.path.basename(e.noisy_path)] = float(
            10.0 * np.log10(255.0 ** 2 / np.mean(diff ** 2)))
        # the network runs on the image reflect-padded to a multiple of 8
        pixels[e.noisy_path] = (-(-noisy.height // 8) * 8) * (
            -(-noisy.width // 8) * 8)
    return {"pool": [[e.clean_path, e.noisy_path, e.sigma, e.seed]
                     for e in pool],
            "ckpt": ckpt, "noisy_psnr": noisy_psnr, "pixels": pixels}
