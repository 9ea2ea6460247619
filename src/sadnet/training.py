"""Training loop, LR schedule, inference helpers, and evaluation.

The loop is fully deterministic under a fixed seed: every random draw
(image choice, patch corner, augmentation code, noise) comes from one
Philox generator whose state is stored in each checkpoint, so resuming
reproduces the uninterrupted run bit-exactly.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .checkpoint import (Checkpoint, load_checkpoint, require_config_match,
                         save_checkpoint)
from .data import (ImageBuffer, augment, from_tensor, load_image, make_dir,
                   make_rng, open_image, read_manifest, read_rows,
                   read_text_lines, save_image, to_tensor)
from .errors import DataError, NumericError, UsageError
from .metrics import SSIM_WINDOW, MetricReport, psnr, ssim
from .model import ModelConfig, SADNet, _field_types, denoise_tensor
from .optim import AdamState, adam_step
from .tensor import Tensor


@dataclass
class TrainConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    loss_kind: str = "L2"  # L2 for the synthetic-noise pipeline
    batch_size: int = 16
    patch_size: int = 128
    lr: float = 1e-4
    lr_halve_at: int = 300_000
    max_iters: int = 0
    seed: int = 0
    manifest: str = ""
    checkpoint_dir: str = "checkpoints"
    log_interval: int = 10
    checkpoint_interval: int = 1000

    def validate(self) -> None:
        self.model.validate()
        if self.batch_size < 1 or self.patch_size < 1 or self.max_iters < 0:
            raise UsageError("batch_size and patch_size must be positive, "
                             "max_iters non-negative")
        div = self.model.divisor
        if self.patch_size % div:
            raise UsageError(
                f"patch_size {self.patch_size} must be divisible by {div}")
        if self.loss_kind not in ("L1", "L2"):
            raise UsageError(f"loss_kind must be L1 or L2, got {self.loss_kind}")
        if self.seed < 0:
            raise UsageError(f"seed must be non-negative, got {self.seed}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise UsageError(f"lr must be finite and positive, got {self.lr}")
        for key in ("lr_halve_at", "log_interval", "checkpoint_interval"):
            if getattr(self, key) < 0:
                raise UsageError(
                    f"{key} must be non-negative, got {getattr(self, key)}")


_MODEL_KEYS = _field_types(ModelConfig)
_TRAIN_KEYS = _field_types(TrainConfig)


def parse_train_config(path) -> TrainConfig:
    """Flat key=value config file; unknown keys are rejected."""
    model_kwargs, train_kwargs = {}, {}
    for lineno, raw in enumerate(read_text_lines(path, "config"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        conv = _MODEL_KEYS.get(key) or _TRAIN_KEYS.get(key)
        if conv is None:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            parsed = (tuple(int(v) for v in value.split(","))
                      if conv is tuple else conv(value))
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: {key}: {exc}") from exc
        (model_kwargs if key in _MODEL_KEYS else train_kwargs)[key] = parsed
    cfg = TrainConfig(model=ModelConfig(**model_kwargs), **train_kwargs)
    cfg.validate()
    return cfg


def lr_schedule(iteration: int, config: TrainConfig) -> float:
    """Initial rate, halved once after lr_halve_at iterations."""
    if iteration < 0:
        raise UsageError(f"negative iteration {iteration}")
    return config.lr if iteration < config.lr_halve_at else config.lr / 2.0


def _load_training_set(config: TrainConfig):
    """The corpus as image headers; ``sample_batch`` reads patch rows only.

    Every image must be large enough for a patch, have the model's channel
    count and hold its whole payload, and the manifest must list at least
    one image. No pixel is read here.
    """
    entries = read_manifest(config.manifest)
    if not entries:
        raise DataError(f"training manifest {config.manifest} lists no images")
    missing = [e.clean_path for e in entries if not os.path.exists(e.clean_path)]
    if missing:
        raise DataError("missing training images: " + ", ".join(missing))
    images = [open_image(e.clean_path) for e in entries]
    want = config.model.in_channels
    wrong = [f"{e.clean_path} has {img.channels} channels"
             for e, img in zip(entries, images) if img.channels != want]
    if wrong:
        raise DataError(", ".join(wrong) + f"; model expects {want}")
    for e, img in zip(entries, images):
        if img.height < config.patch_size or img.width < config.patch_size:
            raise DataError(
                f"{e.clean_path}: image {img.height}x{img.width} smaller than "
                f"patch size {config.patch_size}")
    return entries, images


def sample_batch(rng, entries, images, batch_size: int, patch_size: int):
    """One batch of (noisy, clean) float32 patches, each (n, c, p, p).

    ``images`` are ``ImageFile`` headers; each patch reads its own rows
    from disk. Per patch, in this order: image index, top, left, augment
    code, noise. The 8-bit crop is dequantized alone; ``to_tensor`` is
    elementwise, so the patch equals the same crop of the whole dequantized
    image.
    """
    ps = patch_size
    clean_parts, noisy_parts = [], []
    for _ in range(batch_size):
        ei = int(rng.integers(0, len(entries)))
        img = images[ei]
        top = int(rng.integers(0, img.height - ps + 1))
        left = int(rng.integers(0, img.width - ps + 1))
        crop = read_rows(img, top, ps)[:, left:left + ps]
        patch = to_tensor(ImageBuffer(ps, ps, img.channels, crop),
                          dtype=np.float32)
        patch = augment(patch, int(rng.integers(0, 8)))
        sigma = entries[ei].sigma
        noise = rng.normal(0.0, sigma / 255.0, patch.shape).astype(np.float32)
        clean_parts.append(patch.data)
        noisy_parts.append(patch.data + noise)
    return np.concatenate(noisy_parts, axis=0), np.concatenate(clean_parts, axis=0)


def train(config: TrainConfig, resume_from=None, log_stream=None) -> tuple[str, Checkpoint]:
    """Run the training loop; returns (final checkpoint path, checkpoint)."""
    config.validate()
    entries, images = _load_training_set(config)
    make_dir(config.checkpoint_dir)

    if resume_from is not None:
        ck = load_checkpoint(resume_from)
        require_config_match(config.model, ck.model.config, resume_from)
        model, adam, start = ck.model, ck.adam, ck.iteration
        rng = make_rng(config.seed)
        if ck.rng_state is not None:
            rng.bit_generator.state = ck.rng_state
    else:
        model = SADNet(config.model, rng=np.random.default_rng(config.seed),
                       dtype=np.float32)
        adam = AdamState(lr=config.lr)
        start = 0
        rng = make_rng(config.seed)

    params = model.params()
    t0 = time.monotonic()

    def emit(line: str) -> None:
        if log_stream is not None:
            log_stream.write(line + "\n")
            log_stream.flush()

    def save(path: str, iteration: int) -> None:
        save_checkpoint(path, model, adam, iteration, rng.bit_generator.state)

    def abort(what: str, iteration: int) -> None:
        """Save the weights as they are (before any update) and stop."""
        diag = os.path.join(config.checkpoint_dir, "ckpt_nonfinite.sadn")
        save(diag, iteration)
        raise NumericError(f"{what} at iteration {iteration}; "
                           f"diagnostic checkpoint written to {diag}")

    final_path = os.path.join(config.checkpoint_dir, "ckpt_final.sadn")
    for it in range(start, config.max_iters):
        lr = lr_schedule(it, config)
        noisy, clean = sample_batch(rng, entries, images, config.batch_size,
                                    config.patch_size)
        x, target = Tensor(noisy), Tensor(clean)
        pred = model(x)
        loss = T.loss(config.loss_kind, pred, target)
        loss_value = loss.item()
        if not math.isfinite(loss_value):
            abort(f"non-finite loss {loss_value}", it)
        loss.backward()
        # a finite loss can still back-propagate NaN/inf; stop it before Adam
        for name, p in params:
            if p.grad is not None and not np.isfinite(p.grad).all():
                abort(f"non-finite gradient in {name}", it)
        adam_step(params, adam, lr=lr)
        T.zero_grads(p for _, p in params)
        done = it + 1
        if config.log_interval and done % config.log_interval == 0:
            emit(f"{done}\t{loss_value:.6e}\t{lr:.6e}\t"
                 f"{time.monotonic() - t0:.3f}")
        if config.checkpoint_interval and done % config.checkpoint_interval == 0:
            save(os.path.join(config.checkpoint_dir, f"ckpt_{done:08d}.sadn"), done)
    save(final_path, max(config.max_iters, start))
    return final_path, Checkpoint(model, adam, max(config.max_iters, start),
                                  rng.bit_generator.state)


# ---------------------------------------------------------------------------
# Inference and evaluation
# ---------------------------------------------------------------------------


def load_inference_model(checkpoint_path) -> SADNet:
    """A checkpoint's model with gradients off: its forwards build no graph."""
    model = load_checkpoint(checkpoint_path).model
    for _, p in model.params():
        p.requires_grad = False
    return model


def load_model_input(model: SADNet, path) -> Tensor:
    """An image as the model's input; a wrong channel count is a data error."""
    buf = load_image(path)
    if buf.channels != model.config.in_channels:
        raise DataError(
            f"{path} has {buf.channels} channels, checkpoint model "
            f"expects {model.config.in_channels}")
    return to_tensor(buf, dtype=model.tail.weight.data.dtype)


def denoise_image(checkpoint_path, input_path, output_path) -> None:
    model = load_inference_model(checkpoint_path)
    y = denoise_tensor(model, load_model_input(model, input_path))
    save_image(from_tensor(y), output_path)


def evaluate(checkpoint_path, manifest_path) -> MetricReport:
    model = load_inference_model(checkpoint_path)
    entries = read_manifest(manifest_path)
    missing = [p for e in entries for p in (e.clean_path, e.noisy_path)
               if not os.path.exists(p)]
    if missing:
        raise DataError("missing files: " + ", ".join(missing))
    report = MetricReport()
    for e in entries:
        clean = load_image(e.clean_path)
        if clean.height < SSIM_WINDOW or clean.width < SSIM_WINDOW:
            raise DataError(
                f"{e.clean_path}: image {clean.height}x{clean.width} smaller "
                f"than the {SSIM_WINDOW}x{SSIM_WINDOW} SSIM window")
        denoised = from_tensor(
            denoise_tensor(model, load_model_input(model, e.noisy_path)))
        if denoised.samples.shape != clean.samples.shape:
            raise DataError(
                f"{e.noisy_path} and {e.clean_path} differ in (height, width, "
                f"channels): {denoised.samples.shape} vs {clean.samples.shape}")
        report.add(os.path.basename(e.noisy_path), psnr(denoised, clean),
                   ssim(denoised, clean))
    return report
