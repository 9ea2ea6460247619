"""Image I/O, synthetic noise, and dihedral augmentation.

Images travel as binary PGM (P5, grayscale) / PPM (P6, color) with maxval
255 so round trips are bit-exact without any image library. ``load_image``
reads a whole image with one ``open``; ``open_image`` reads only its header
and checks that the payload fits in the file, and ``read_rows`` then reads
whole rows from disk with explicit reads, so a training corpus stays on disk
and only the rows of the patches drawn are ever in memory. All randomness
is drawn from numpy's Philox counter-based generator (normal deviates via
its ziggurat sampler), pinned so that a given (image, sigma, seed) triple
reproduces bit-identically across runs and platforms.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError, UsageError
from .tensor import Tensor


@dataclass
class ImageBuffer:
    """8-bit raster: samples shaped (height, width, channels), uint8."""

    width: int
    height: int
    channels: int
    samples: np.ndarray

    def __post_init__(self):
        expected = (self.height, self.width, self.channels)
        if self.samples.shape != expected:
            raise UsageError(
                f"ImageBuffer samples shape {self.samples.shape} != {expected}")


@dataclass
class NoiseSpec:
    sigma: float  # on the [0, 255] scale
    seed: int


def make_rng(seed: int) -> np.random.Generator:
    """The pinned PRNG: Philox 4x64 counter-based generator."""
    return np.random.Generator(np.random.Philox(seed))


# ---------------------------------------------------------------------------
# PGM / PPM
# ---------------------------------------------------------------------------


class _ShortHeader(DataError):
    """The header runs past the bytes read so far."""


def _read_header_tokens(blob: bytes, count: int, pos: int):
    """Read whitespace/comment-separated ASCII tokens from a PNM header."""
    tokens = []
    n = len(blob)
    while len(tokens) < count:
        while pos < n and blob[pos:pos + 1].isspace():
            pos += 1
        if pos < n and blob[pos] == ord("#"):
            while pos < n and blob[pos] != ord("\n"):
                pos += 1
            continue
        start = pos
        while pos < n and not blob[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise _ShortHeader(f"truncated PNM header at byte offset {start}")
        tokens.append(blob[start:pos])
    if pos >= n:
        raise _ShortHeader(f"missing payload separator at byte offset {pos}")
    pos += 1  # exactly one whitespace byte before the payload
    return tokens, pos


def _truncated_payload(path, at: int, need: int, got: int) -> DataError:
    """A read of ``need`` payload bytes from offset ``at`` that got ``got``."""
    return DataError(f"{path}: truncated payload at byte offset {at + got} "
                     f"(need {need} bytes, got {got})")


def _parse_header(blob: bytes, path, size: int):
    """(width, height, channels, payload offset) of the PNM header that
    starts ``blob``, for a file of ``size`` bytes that the payload must fit.
    A header that runs past ``blob`` raises ``_ShortHeader``."""
    magic = blob[:2]
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise DataError(
            f"{path}: unsupported magic {magic!r} at byte offset 0 "
            f"(expected P5 or P6)")
    tokens, pos = _read_header_tokens(blob, 3, 2)
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:
        raise DataError(f"{path}: non-numeric header field near byte offset {pos}")
    if maxval != 255:
        raise DataError(f"{path}: unsupported maxval {maxval} (only 255)")
    if width < 1 or height < 1:
        raise DataError(f"{path}: bad dimensions {width}x{height}")
    need = width * height * channels
    got = min(size - pos, need)
    if got != need:
        raise _truncated_payload(path, pos, need, got)
    return width, height, channels, pos


def load_image(path) -> ImageBuffer:
    """The whole image, read with exactly one ``open`` of ``path``."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read image {path}: {exc}") from exc
    width, height, channels, pos = _parse_header(blob, path, len(blob))
    # the slice is one more transient copy, but reading the blob in place
    # raised the peak RSS of a stock eval by 2.3 MB (heap layout)
    payload = blob[pos:pos + width * height * channels]
    samples = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    return ImageBuffer(width, height, channels, samples.copy())


@dataclass(frozen=True)
class ImageFile:
    """An image left on disk: its header, and where its payload starts."""

    path: str
    width: int
    height: int
    channels: int
    offset: int


# Bytes ``open_image`` reads first; a longer header doubles the read.
_HEADER_CHUNK = 4096


def open_image(path) -> ImageFile:
    """The header of the image at ``path``; no payload byte is read.

    The file's size, from ``os.fstat``, must hold the whole payload: a
    short file is the same DataError as in ``load_image``.
    """
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            blob = fh.read(_HEADER_CHUNK)
            while True:
                try:
                    header = _parse_header(blob, path, size)
                    break
                except _ShortHeader:
                    more = fh.read(len(blob))
                    if not more:
                        raise
                    blob += more
    except OSError as exc:
        raise DataError(f"cannot read image {path}: {exc}") from exc
    return ImageFile(str(path), *header)


def read_rows(image: ImageFile, top: int, rows: int) -> np.ndarray:
    """Rows ``top .. top + rows - 1`` of ``image``, read from its file as
    uint8 ``(rows, width, channels)``; a short read is a DataError."""
    row = image.width * image.channels
    at = image.offset + top * row
    out = np.empty((rows, image.width, image.channels), dtype=np.uint8)
    try:
        with open(image.path, "rb") as fh:
            fh.seek(at)
            got = fh.readinto(out)
    except OSError as exc:
        raise DataError(f"cannot read image {image.path} at byte offset "
                        f"{at}: {exc}") from exc
    if got != out.nbytes:
        raise _truncated_payload(image.path, at, out.nbytes, got)
    return out


def save_image(buffer: ImageBuffer, path) -> None:
    magic = b"P5" if buffer.channels == 1 else b"P6"
    header = magic + b"\n%d %d\n255\n" % (buffer.width, buffer.height)
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(buffer.samples.astype(np.uint8).tobytes())
    except OSError as exc:
        raise DataError(f"cannot write image {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# [0,255] <-> [0,1] conversion
# ---------------------------------------------------------------------------


def to_tensor(buffer: ImageBuffer, dtype=np.float32) -> Tensor:
    """Dequantize to a (1, c, h, w) tensor in [0, 1]."""
    arr = buffer.samples.astype(dtype) / 255.0
    return Tensor(arr.transpose(2, 0, 1)[None])


def from_tensor(t: Tensor) -> ImageBuffer:
    """Quantize a (1, c, h, w) tensor back to 8-bit, round-half-up, clipped."""
    data = t.data[0]
    q = np.floor(np.clip(data, 0.0, 1.0) * 255.0 + 0.5)
    samples = np.clip(q, 0, 255).astype(np.uint8).transpose(1, 2, 0)
    c, h, w = data.shape
    return ImageBuffer(w, h, c, samples)


# ---------------------------------------------------------------------------
# Noise and augmentation
# ---------------------------------------------------------------------------


# Largest sigma whose noise float32 holds: a standard normal draw stays far
# below 64, and the noise is sigma/255 times one.
_SIGMA_MAX = 255 * float(np.finfo(np.float32).max) / 64


def _check_sigma(sigma: float) -> float:
    """sigma, checked; -0.0, which passes ``sigma < 0`` but which numpy's
    ``normal()`` rejects as a negative scale, comes back as 0.0."""
    if not math.isfinite(sigma) or sigma < 0:
        raise UsageError(f"sigma must be finite and non-negative, got {sigma}")
    if sigma > _SIGMA_MAX:
        raise UsageError(
            f"sigma must be at most {_SIGMA_MAX:.4g}, where its noise would "
            f"overflow float32; got {sigma}")
    return abs(sigma)


def add_awgn(image: Tensor, spec: NoiseSpec) -> Tensor:
    """Add i.i.d. Gaussian noise with std sigma/255; never clipped here."""
    sigma = _check_sigma(spec.sigma)
    rng = make_rng(spec.seed)
    noise = rng.normal(0.0, sigma / 255.0, size=image.shape)
    return Tensor(image.data + noise.astype(image.data.dtype))


def augment(patch: Tensor, code: int) -> Tensor:
    """One of the 8 dihedral transforms: optional horizontal flip (code >= 4)
    followed by code % 4 counter-clockwise 90-degree rotations."""
    if not 0 <= code <= 7:
        raise UsageError(f"augment code {code} outside 0..7")
    _, _, h, w = patch.shape
    rot = code % 4
    if rot % 2 == 1 and h != w:
        raise UsageError(f"rotation code {code} requires a square patch, got {h}x{w}")
    data = patch.data
    if code >= 4:
        data = data[:, :, :, ::-1]
    if rot:
        data = np.rot90(data, k=rot, axes=(2, 3))
    return Tensor(np.ascontiguousarray(data))


# ---------------------------------------------------------------------------
# Corpus manifest
# ---------------------------------------------------------------------------


@dataclass
class ManifestEntry:
    clean_path: str
    noisy_path: str
    sigma: float
    seed: int


def write_manifest(entries: list[ManifestEntry], path) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for e in entries:
                fh.write(f"{e.clean_path}\t{e.noisy_path}\t{e.sigma:g}\t{e.seed}\n")
    except OSError as exc:
        raise DataError(f"cannot write manifest {path}: {exc}") from exc


def read_text_lines(path, what: str) -> list[str]:
    """The lines of a UTF-8 text file, newlines translated as ``open`` does;
    a file that cannot be read or decoded is a DataError naming it."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {what} {path}: byte {exc.start} is "
                        f"not UTF-8 ({exc.reason})") from exc
    return io.StringIO(text, newline=None).readlines()


def read_manifest(path) -> list[ManifestEntry]:
    entries = []
    for lineno, line in enumerate(read_text_lines(path, "manifest"), 1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise DataError(
                f"{path}:{lineno}: expected 4 tab-separated fields, "
                f"got {len(parts)}")
        try:
            sigma, seed = float(parts[2]), int(parts[3])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        try:
            sigma = _check_sigma(sigma)
        except UsageError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        entries.append(ManifestEntry(parts[0], parts[1], sigma, seed))
    return entries


def make_dir(path) -> None:
    """``os.makedirs(path, exist_ok=True)``, an OSError as a DataError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create directory {path}: {exc}") from exc


def generate_noisy_corpus(in_dir, out_dir, sigma: float, seed: int,
                          manifest=None) -> list[ManifestEntry]:
    """Add AWGN to every PGM/PPM under in_dir; per-image seed is seed ^ index.

    With a ``manifest`` path the entries are written there too. It is opened
    before the first image, in append mode, which creates it but leaves an
    existing one whole: a path that cannot be written fails with no image
    written, and an old manifest is replaced only after the last image.
    """
    if seed < 0:
        raise UsageError(f"seed must be non-negative, got {seed}")
    sigma = _check_sigma(sigma)
    try:
        listing = os.listdir(in_dir)
    except OSError as exc:
        raise DataError(f"cannot list images in {in_dir}: {exc}") from exc
    names = sorted(n for n in listing if n.lower().endswith((".pgm", ".ppm")))
    if not names:
        raise DataError(f"no .pgm/.ppm images found in {in_dir}")
    make_dir(out_dir)
    if manifest is not None:
        try:
            open(manifest, "ab").close()
        except OSError as exc:
            raise DataError(f"cannot write manifest {manifest}: "
                            f"{exc.strerror.lower()}") from exc
    entries = [ManifestEntry(os.path.join(in_dir, name),
                             os.path.join(out_dir, name), sigma, seed ^ idx)
               for idx, name in enumerate(names)]
    for e in entries:
        clean = to_tensor(load_image(e.clean_path))
        noisy = add_awgn(clean, NoiseSpec(sigma, e.seed))
        save_image(from_tensor(noisy), e.noisy_path)
    if manifest is not None:
        write_manifest(entries, manifest)
    return entries
