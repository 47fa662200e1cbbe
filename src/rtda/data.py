"""Synthetic two-domain segmentation benchmark and its on-disk format.

Scenes are a class-0 background plus 3 to 8 random shapes (axis-aligned
rectangles, disks, 45-degree stripes, triangles) painted in per-class
palette colors. Geometry is drawn from a stream derived from the scene
seed alone, so the label mask is identical across domains; appearance
differs by a channel-mixing matrix, per-channel gamma, and additive
Gaussian noise whose stream is salted with the domain tag. Everything is
a pure function of (seed, domain, config).

Rasters serialize to the "SDR1" format: 4-byte ASCII magic, then
little-endian u32 version=1, channels, height, width, dtype code
(1 = float32, 2 = uint8), then the row-major payload. A dataset is a
directory tree `<root>/<split>/<domain>/<seed>.img.sdr` + `.lbl.sdr`.

Batch iteration shuffles each epoch with a seed-derived permutation and
pairs labeled source batches with unlabeled target batches of equal
size; target labels are reachable only through the dataset's evaluation
accessor, never through the training iterator.
"""

from __future__ import annotations

import colorsys
import functools
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from rtda.rng import Xoshiro256StarStar, mix64
from rtda.tensor import Tensor

_MAGIC = b"SDR1"
_DTYPE_F32 = 1
_DTYPE_U8 = 2

_GEOMETRY_SALT = 0x67656F6D
_DOMAIN_SALTS = {"source": 0x735F6E73, "target": 0x745F6E73}

DOMAINS = ("source", "target")


def derive_seed(seed: int, salt: int) -> int:
    return mix64(mix64(seed) ^ mix64(salt))


def class_palette(num_classes: int) -> np.ndarray:
    """Deterministic K x 3 base colors: gray background, hue wheel classes."""
    if not 2 <= num_classes <= 254:
        raise ValueError("num_classes must lie in [2, 254]")
    colors = [(0.25, 0.25, 0.25)]
    for c in range(1, num_classes):
        hue = (c - 1) / (num_classes - 1)
        colors.append(colorsys.hsv_to_rgb(hue, 0.7, 0.8))
    return np.asarray(colors, dtype=np.float64)


@dataclass
class ShiftConfig:
    """Controlled appearance gap between the two domains."""

    mixing: np.ndarray
    gamma: np.ndarray
    sigma_source: float = 0.05
    sigma_target: float = 0.10
    palette: np.ndarray = field(default_factory=lambda: class_palette(5))

    def __post_init__(self):
        self.mixing = np.asarray(self.mixing, dtype=np.float64)
        self.gamma = np.asarray(self.gamma, dtype=np.float64)
        self.palette = np.asarray(self.palette, dtype=np.float64)
        if self.mixing.shape != (3, 3):
            raise ValueError("mixing matrix must be 3x3")
        if not np.all(np.abs(self.mixing.sum(axis=1) - 1.0) <= 1e-6):
            raise ValueError("mixing matrix rows must sum to 1")
        if self.gamma.shape != (3,) or np.any(self.gamma <= 0):
            raise ValueError("gamma must be 3 positive values")
        if self.palette.ndim != 2 or self.palette.shape[1] != 3:
            raise ValueError("palette must be K x 3")

    @property
    def num_classes(self) -> int:
        return self.palette.shape[0]

    @classmethod
    def identity(cls, num_classes: int = 5, sigma: float = 0.05) -> "ShiftConfig":
        return cls(mixing=np.eye(3), gamma=np.ones(3), sigma_source=sigma,
                   sigma_target=sigma, palette=class_palette(num_classes))

    @classmethod
    def default(cls, num_classes: int = 5) -> "ShiftConfig":
        mixing = np.array([
            [0.60, 0.25, 0.15],
            [0.15, 0.60, 0.25],
            [0.25, 0.15, 0.60],
        ])
        gamma = np.array([1.4, 0.75, 1.15])
        return cls(mixing=mixing, gamma=gamma, palette=class_palette(num_classes))


@dataclass
class SceneSample:
    image: Tensor
    labels: np.ndarray
    domain: str
    seed: int


def _paint_rect(labels, rng, h, w, cls):
    rh = 4 + rng.randint(max(2, h // 2))
    rw = 4 + rng.randint(max(2, w // 2))
    y0 = rng.randint(max(1, h - rh + 1))
    x0 = rng.randint(max(1, w - rw + 1))
    labels[y0:y0 + rh, x0:x0 + rw] = cls


def _paint_disk(labels, rng, h, w, cls):
    r = 3 + rng.randint(max(2, min(h, w) // 4))
    cy = rng.randint(h)
    cx = rng.randint(w)
    yy, xx = np.ogrid[:h, :w]
    labels[(yy - cy) ** 2 + (xx - cx) ** 2 <= r * r] = cls


def _paint_stripe(labels, rng, h, w, cls):
    half = 1 + rng.randint(max(2, min(h, w) // 8))
    offset = rng.randint(h + w)
    sign = 1 if rng.randint(2) == 0 else -1
    yy, xx = np.ogrid[:h, :w]
    labels[np.abs(yy + sign * xx - offset) <= half] = cls


def _paint_triangle(labels, rng, h, w, cls):
    pts = np.array([[rng.randint(h), rng.randint(w)] for _ in range(3)], dtype=np.float64)
    yy, xx = np.mgrid[:h, :w]
    inside = np.ones((h, w), dtype=bool)
    area2 = 0.0
    for i in range(3):
        y0, x0 = pts[i]
        y1, x1 = pts[(i + 1) % 3]
        y2, x2 = pts[(i + 2) % 3]
        edge = (xx - x0) * (y1 - y0) - (yy - y0) * (x1 - x0)
        ref = (x2 - x0) * (y1 - y0) - (y2 - y0) * (x1 - x0)
        area2 = max(area2, abs(ref))
        inside &= edge * ref >= 0
    if area2 >= 4.0:
        labels[inside] = cls


_PAINTERS = (_paint_rect, _paint_disk, _paint_stripe, _paint_triangle)


def _draw_labels(rng: Xoshiro256StarStar, h: int, w: int, num_classes: int) -> np.ndarray:
    labels = np.zeros((h, w), dtype=np.uint8)
    n_shapes = 3 + rng.randint(6)
    for _ in range(n_shapes):
        cls = 1 + rng.randint(num_classes - 1)
        _PAINTERS[rng.randint(len(_PAINTERS))](labels, rng, h, w, cls)
    return labels


def generate_scene(seed: int, domain: str, config: ShiftConfig,
                   size=(64, 64), num_classes: int = 5) -> SceneSample:
    """Deterministic scene for (seed, domain, config); labels depend on the
    seed only, appearance on the domain as well. Degenerate draws missing
    any class are redrawn from the continuing geometry stream."""
    if domain not in DOMAINS:
        raise ValueError(f"domain must be one of {DOMAINS}, got {domain!r}")
    h, w = size
    if h < 16 or w < 16:
        raise ValueError("scene size must be at least 16x16")
    if num_classes < 2:
        raise ValueError("num_classes must be at least 2")
    if config.num_classes < num_classes:
        raise ValueError(f"palette has {config.num_classes} colors, need {num_classes}")

    geom = Xoshiro256StarStar(derive_seed(seed, _GEOMETRY_SALT))
    for _ in range(64):
        labels = _draw_labels(geom, h, w, num_classes)
        if np.unique(labels).size == num_classes:
            break
    else:
        raise RuntimeError(f"seed {seed}: no draw produced all {num_classes} classes")

    image = config.palette[:num_classes][labels].transpose(2, 0, 1)
    if domain == "target":
        image = np.einsum("ij,jhw->ihw", config.mixing, image)
        image = np.clip(image, 0.0, 1.0) ** config.gamma[:, None, None]
        sigma = config.sigma_target
    else:
        sigma = config.sigma_source

    noise_rng = Xoshiro256StarStar(derive_seed(seed, _DOMAIN_SALTS[domain]))
    noise = noise_rng.normal_block(image.size).reshape(image.shape)
    image = np.clip(image + sigma * noise, 0.0, 1.0).astype(np.float32)
    return SceneSample(image=Tensor(image), labels=labels, domain=domain, seed=seed)


# ---------------------------------------------------------------------------
# SDR1 raster serialization


def save_raster(array: np.ndarray) -> bytes:
    """Serialize a (C,H,W) float32 or (H,W)/(1,H,W) uint8 raster."""
    arr = np.asarray(array)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3:
        raise ValueError("raster must have shape (C,H,W)")
    if arr.dtype == np.float32:
        code = _DTYPE_F32
    elif arr.dtype == np.uint8:
        code = _DTYPE_U8
    else:
        raise ValueError(f"unsupported raster dtype {arr.dtype}")
    c, h, w = arr.shape
    header = _MAGIC + struct.pack("<5I", 1, c, h, w, code)
    payload = np.ascontiguousarray(arr)
    if code == _DTYPE_F32:
        payload = payload.astype("<f4", copy=False)
    return header + payload.tobytes()


def load_raster(blob: bytes) -> np.ndarray:
    if len(blob) < 24:
        raise ValueError("truncated raster: header incomplete")
    if blob[:4] != _MAGIC:
        raise ValueError("bad magic")
    version, c, h, w, code = struct.unpack("<5I", blob[4:24])
    if version != 1:
        raise ValueError(f"unsupported raster version {version}")
    if code == _DTYPE_F32:
        dtype, itemsize = np.dtype("<f4"), 4
    elif code == _DTYPE_U8:
        dtype, itemsize = np.dtype(np.uint8), 1
    else:
        raise ValueError(f"unknown dtype code {code}")
    expected = 24 + c * h * w * itemsize
    if len(blob) != expected:
        raise ValueError(f"truncated raster: expected {expected} bytes, got {len(blob)}")
    data = np.frombuffer(blob[24:], dtype=dtype).reshape(c, h, w)
    if code == _DTYPE_F32:
        data = data.astype(np.float32, copy=True)
    else:
        data = data.copy()
    return data


def _sample_paths(root: str, split: str, domain: str, seed: int):
    base = os.path.join(root, split, domain)
    return os.path.join(base, f"{seed}.img.sdr"), os.path.join(base, f"{seed}.lbl.sdr")


def write_sample(root: str, split: str, sample: SceneSample) -> None:
    img_path, lbl_path = _sample_paths(root, split, sample.domain, sample.seed)
    os.makedirs(os.path.dirname(img_path), exist_ok=True)
    with open(img_path, "wb") as f:
        f.write(save_raster(sample.image.data))
    with open(lbl_path, "wb") as f:
        f.write(save_raster(sample.labels))


def read_sample(root: str, split: str, domain: str, seed: int) -> SceneSample:
    img_path, lbl_path = _sample_paths(root, split, domain, seed)
    with open(img_path, "rb") as f:
        image = load_raster(f.read())
    with open(lbl_path, "rb") as f:
        labels = load_raster(f.read())
    return SceneSample(image=Tensor(image), labels=labels[0], domain=domain, seed=seed)


def generate_dataset(root: str, split: str, seeds, config: ShiftConfig,
                     size=(64, 64), num_classes: int = 5) -> None:
    """Write every (seed, domain) sample of a split in the SDR1 layout."""
    for seed in seeds:
        for domain in DOMAINS:
            write_sample(root, split, generate_scene(seed, domain, config, size, num_classes))


class SceneDataset:
    """In-memory split of one domain: read from a `<root>/<split>/<domain>`
    directory (`from_dir`) or generated from scene seeds (`generate`).

    Images are exposed for batching; labels only through eval_labels, so
    training code paths for the target domain never see ground truth.
    """

    def __init__(self, samples):
        samples = list(samples)
        if not samples:
            raise ValueError("empty dataset")
        self._images = np.stack([s.image.data for s in samples])
        self._labels = np.stack([s.labels for s in samples])

    @classmethod
    def from_dir(cls, root: str, split: str, domain: str) -> "SceneDataset":
        base = os.path.join(root, split, domain)
        if not os.path.isdir(base):
            raise FileNotFoundError(f"no dataset directory {base}")
        seeds = sorted(
            int(name[: -len(".img.sdr")]) for name in os.listdir(base) if name.endswith(".img.sdr")
        )
        if not seeds:
            raise ValueError(f"empty dataset directory {base}")
        return cls(read_sample(root, split, domain, s) for s in seeds)

    @classmethod
    def generate(cls, seeds, domain: str, config: ShiftConfig,
                 size=(64, 64), num_classes: int = 5) -> "SceneDataset":
        return cls(generate_scene(s, domain, config, size, num_classes) for s in seeds)

    def __len__(self) -> int:
        return len(self._images)

    def images(self, indices) -> np.ndarray:
        return self._images[np.asarray(indices, dtype=np.int64)]

    def eval_labels(self, indices) -> np.ndarray:
        return self._labels[np.asarray(indices, dtype=np.int64)]


@dataclass
class DomainBatch:
    src_images: Tensor
    src_labels: np.ndarray
    tgt_images: Tensor


@functools.lru_cache(maxsize=8)
def epoch_schedule(n: int, batch: int, seed: int, epoch: int) -> tuple:
    """Shuffled-epoch schedule: a tuple of index tuples covering 0..n-1
    once, in an order fully determined by (n, batch, seed, epoch).
    Memoized: training asks for the same two schedules (source and target)
    on every iteration of an epoch, and the value is immutable, so sharing
    it is safe."""
    if n < 1:
        raise ValueError("empty dataset")
    if batch < 1:
        raise ValueError("batch size must be at least 1")
    rng = Xoshiro256StarStar(derive_seed(seed, mix64(epoch)))
    order = tuple(rng.permutation(n))
    return tuple(order[i:i + batch] for i in range(0, n, batch))


def batches_per_epoch(n_source: int, n_target: int, batch: int) -> int:
    return min(-(-n_source // batch), -(-n_target // batch))


def paired_batch(source: SceneDataset, target: SceneDataset, batch: int,
                 seed: int, iteration: int) -> DomainBatch:
    """The iteration-th source/target batch pair, as a pure function of the
    datasets, batch size, seed, and iteration index (resume-safe)."""
    per_epoch = batches_per_epoch(len(source), len(target), batch)
    epoch, pos = divmod(iteration, per_epoch)
    src_sched = epoch_schedule(len(source), batch, derive_seed(seed, 0x737263), epoch)
    tgt_sched = epoch_schedule(len(target), batch, derive_seed(seed, 0x746774), epoch)
    src_idx, tgt_idx = src_sched[pos], tgt_sched[pos]
    k = min(len(src_idx), len(tgt_idx))
    src_idx, tgt_idx = src_idx[:k], tgt_idx[:k]
    return DomainBatch(
        src_images=Tensor(source.images(src_idx)),
        src_labels=source.eval_labels(src_idx),
        tgt_images=Tensor(target.images(tgt_idx)),
    )

