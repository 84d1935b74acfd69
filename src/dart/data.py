"""Datasets, synthetic domain-shift generation, and IDX binary I/O.

Target ground truth is quarantined: shifting a dataset into the target
domain moves its labels into a sealed field that the training path never
touches. Only evaluation reads it back out via ``true_label_indices``.
"""

import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from dart.autodiff import Tensor, is_one_hot, one_hot
from dart.errors import ContractError, DataFormatError
from dart.rng import Prng

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

STD_FLOOR = 1e-8


@dataclass
class Dataset:
    """Immutable sample/label container for one domain.

    ``labels`` is the training-visible annotation (one-hot, or None for
    an unlabeled domain). ``sealed_labels`` holds ground truth reserved
    for evaluation; it never participates in sampling or training.
    """

    samples: Tensor
    labels: Tensor | None
    domain_tag: str
    class_count: int
    sealed_labels: Tensor | None = field(default=None, repr=False)

    def __post_init__(self):
        self.samples = np.ascontiguousarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 2 or self.samples.shape[0] < 1:
            raise ContractError(
                f"samples must be a non-empty 2-d array, got {self.samples.shape}"
            )
        if self.domain_tag not in ("source", "target"):
            raise ContractError(
                f"domain_tag must be 'source' or 'target', got {self.domain_tag!r}"
            )
        if self.class_count < 2:
            raise ContractError("class_count must be >= 2")
        for attr in ("labels", "sealed_labels"):
            lab = getattr(self, attr)
            if lab is None:
                continue
            lab = np.ascontiguousarray(lab, dtype=np.float64)
            if lab.shape != (self.samples.shape[0], self.class_count):
                raise ContractError(
                    f"{attr} shape {lab.shape} does not match "
                    f"{self.samples.shape[0]} samples x {self.class_count} classes"
                )
            if not is_one_hot(lab):
                raise ContractError(f"{attr} rows must be exact one-hot")
            lab.flags.writeable = False
            object.__setattr__(self, attr, lab)
        self.samples.flags.writeable = False

    @property
    def size(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]


def true_label_indices(ds: Dataset) -> np.ndarray:
    """Class indices for evaluation: open labels if present, else sealed."""
    lab = ds.labels if ds.labels is not None else ds.sealed_labels
    if lab is None:
        raise ContractError("dataset carries no labels, open or sealed")
    return np.argmax(lab, axis=1)


# ---------------------------------------------------------------------------
# Synthetic generation


@dataclass
class ShiftSpec:
    """Affine domain shift: x' = scale * R(rotation) x + translation,
    with the rotation acting on the first two coordinates. Optional label
    corruption models annotation noise in the shifted domain."""

    rotation_angle: float = 0.0
    translation: tuple[float, ...] = ()
    scale: float = 1.0
    label_noise: float = 0.0

    def validate(self, dim: int) -> None:
        if self.scale <= 0:
            raise ContractError(f"scale must be positive, got {self.scale}")
        if not 0.0 <= self.label_noise < 1.0:
            raise ContractError(
                f"label_noise must lie in [0, 1), got {self.label_noise}"
            )
        if self.translation and len(self.translation) != dim:
            raise ContractError(
                f"translation length {len(self.translation)} != dimension {dim}"
            )

    def translation_vector(self, dim: int) -> np.ndarray:
        if not self.translation:
            return np.zeros(dim)
        return np.asarray(self.translation, dtype=np.float64)


def gen_blobs(classes: int, per_class: int, d: int, spread: float,
              rng: Prng) -> Dataset:
    """Gaussian clusters, one per class, means evenly spaced on a circle
    of radius 4 in the first two coordinates. Samples are laid out in
    class-major blocks; draw order is sample-major then coordinate."""
    if classes < 2 or per_class < 1 or d < 2:
        raise ContractError("need classes >= 2, per_class >= 1, d >= 2")
    n = classes * per_class
    samples = np.zeros((n, d))
    indices = []
    row = 0
    for j in range(classes):
        angle = 2.0 * np.pi * j / classes
        mean = np.zeros(d)
        mean[0] = 4.0 * np.cos(angle)
        mean[1] = 4.0 * np.sin(angle)
        for _ in range(per_class):
            noise = np.array([rng.normal() for _ in range(d)])
            samples[row] = mean + spread * noise
            indices.append(j)
            row += 1
    return Dataset(
        samples=samples,
        labels=one_hot(indices, classes),
        domain_tag="source",
        class_count=classes,
    )


def apply_shift(ds: Dataset, spec: ShiftSpec, rng: Prng) -> Dataset:
    """Produces the target-domain counterpart of a labeled dataset.

    The returned dataset has no open labels: ground truth (with any
    requested corruption applied) moves into the sealed field.
    """
    spec.validate(ds.dim)
    x = ds.samples * spec.scale
    c, s = np.cos(spec.rotation_angle), np.sin(spec.rotation_angle)
    rotated = x.copy()
    rotated[:, :2] = x[:, :2] @ np.array([[c, -s], [s, c]]).T
    shifted = rotated + spec.translation_vector(ds.dim)

    truth = true_label_indices(ds)
    if spec.label_noise > 0.0:
        truth = truth.copy()
        for i in range(len(truth)):
            if rng.uniform() < spec.label_noise:
                # pick uniformly among the other classes
                k = rng.randint(ds.class_count - 1)
                truth[i] = k if k < truth[i] else k + 1
    return Dataset(
        samples=shifted,
        labels=None,
        domain_tag="target",
        class_count=ds.class_count,
        sealed_labels=one_hot(truth, ds.class_count),
    )


def subsample(ds: Dataset, n: int, rng: Prng) -> Dataset:
    if n < 1 or n > ds.size:
        raise ContractError(f"subsample size {n} out of range 1..{ds.size}")
    idx = np.asarray(rng.permutation(ds.size)[:n], dtype=np.intp)
    return replace(
        ds,
        samples=ds.samples[idx],
        labels=None if ds.labels is None else ds.labels[idx],
        sealed_labels=(
            None if ds.sealed_labels is None else ds.sealed_labels[idx]
        ),
    )


# ---------------------------------------------------------------------------
# Normalization (statistics from the source domain by default)


def feature_stats(samples: Tensor) -> tuple[np.ndarray, np.ndarray]:
    mean = samples.mean(axis=0)
    std = samples.std(axis=0)  # population std
    return mean, np.maximum(std, STD_FLOOR)


def apply_standardization(ds: Dataset, mean: np.ndarray,
                          std: np.ndarray) -> Dataset:
    return replace(ds, samples=(ds.samples - mean) / std)


def normalize_pair(source: Dataset, target: Dataset,
                   mode: str = "source") -> tuple[Dataset, Dataset]:
    """Standardize both domains. ``source`` mode uses source statistics
    for both (keeps the shift visible in target space); ``none`` is a
    pass-through."""
    if mode == "none":
        return source, target
    if mode != "source":
        raise ContractError(f"unknown normalization mode {mode!r}")
    mean, std = feature_stats(source.samples)
    return (
        apply_standardization(source, mean, std),
        apply_standardization(target, mean, std),
    )


# ---------------------------------------------------------------------------
# IDX binary format


def _read_u32(fh, path) -> int:
    raw = fh.read(4)
    if len(raw) != 4:
        raise DataFormatError(f"truncated IDX file {path}")
    return struct.unpack(">I", raw)[0]


def _read_idx(path, magic: int, dims: int, kind: str,
              unit: str) -> tuple[list[int], bytes]:
    """Header dimensions and one-byte-per-entry payload of an IDX file."""
    with open(path, "rb") as fh:
        found = _read_u32(fh, path)
        if found != magic:
            raise DataFormatError(
                f"bad {kind} magic 0x{found:08X} in {path}, "
                f"expected 0x{magic:08X}"
            )
        shape = [_read_u32(fh, path) for _ in range(dims)]
        # read what the file holds, not what its header claims: a corrupt
        # count must not request gigabytes
        size = math.prod(shape)
        payload = fh.read()[:size]
    if len(payload) != size:
        raise DataFormatError(
            f"truncated IDX file {path}: expected "
            f"{size} {unit} bytes, got {len(payload)}"
        )
    return shape, payload


def load_idx(path_images, path_labels) -> Dataset:
    """Reads an image/label IDX pair into a flattened, [0,1]-scaled source
    dataset."""
    (n, rows, cols), payload = _read_idx(path_images, IDX_IMAGES_MAGIC, 3,
                                         "image", "pixel")
    (n_labels,), label_bytes = _read_idx(path_labels, IDX_LABELS_MAGIC, 1,
                                         "label", "label")
    if n != n_labels:
        raise DataFormatError(
            f"image count {n} does not match label count {n_labels}"
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).astype(np.float64) / 255.0
    labels = np.frombuffer(label_bytes, dtype=np.uint8)
    if np.any(labels > 9):
        raise DataFormatError("label byte outside 0..9")
    return Dataset(
        samples=pixels.reshape(n, rows * cols),
        labels=one_hot(labels.tolist(), 10),
        domain_tag="source",
        class_count=10,
    )


def write_idx(ds: Dataset, path_images, path_labels, rows: int,
              cols: int) -> None:
    """Inverse of load_idx for fixtures; pixels must lie in [0, 1]."""
    if ds.dim != rows * cols:
        raise ContractError(
            f"dataset width {ds.dim} != rows*cols = {rows * cols}"
        )
    if np.any(ds.samples < 0.0) or np.any(ds.samples > 1.0):
        raise ContractError("pixel values must lie in [0, 1]")
    pixels = np.rint(ds.samples * 255.0).astype(np.uint8)
    with open(path_images, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, ds.size, rows, cols))
        fh.write(pixels.tobytes())
    labels = true_label_indices(ds).astype(np.uint8)
    with open(path_labels, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, ds.size))
        fh.write(labels.tobytes())

