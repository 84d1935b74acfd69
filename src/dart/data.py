"""Datasets, the task they form, synthetic domain shifts, and IDX binary I/O.

Target ground truth is quarantined: shifting a dataset into the target
domain moves its labels into a sealed field that the training path never
touches. Only evaluation reads it back out via ``true_label_indices``.
"""

import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from dart.autodiff import Tensor, is_one_hot, one_hot
from dart.errors import ConfigError, ContractError, DataFormatError
from dart.rng import STREAM_DATA, Prng, derive_seed

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
        if not np.isfinite(self.samples).all():
            raise ContractError(f"{self.domain_tag} samples must be finite")
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
# The task: a source/target pair built from one config and the seed


@dataclass
class Task:
    """A source/target dataset pair ready for training."""

    source: Dataset
    target: Dataset
    name: str = "task"


@dataclass
class TaskConfig:
    """The dataset pair to build: Gaussian blobs or an IDX image/label
    file pair, then the shift x' = scale * R(rotation) x + translation
    (rotating the first two coordinates) that makes it the target."""

    kind: str = "blobs"
    classes: int = 3
    per_class: int = 100
    dim: int = 2
    spread: float = 1.1
    rotation: float = math.pi / 5
    translation: tuple[float, ...] = (1.5, -1.0)
    scale: float = 1.0
    normalization: str = "source"
    images: str = ""
    labels: str = ""
    subsample: int = 0

    def validate(self) -> None:
        if self.kind not in ("blobs", "idx"):
            raise ConfigError(f"task.kind must be blobs or idx, got {self.kind!r}")
        if self.kind == "blobs":
            if self.classes < 2:
                raise ConfigError("task.classes must be >= 2")
            if self.per_class < 1:
                raise ConfigError("task.per_class must be >= 1")
            if self.dim < 2:
                raise ConfigError("task.dim must be >= 2")
            if self.spread < 0:
                raise ConfigError("task.spread must be >= 0")
        else:
            if not self.images or not self.labels:
                raise ConfigError("task.kind=idx requires task.images and task.labels")
        if self.scale <= 0:
            raise ConfigError("task.scale must be > 0")
        if self.normalization not in ("source", "none"):
            raise ConfigError(
                f"task.normalization must be source or none, got {self.normalization!r}"
            )
        if self.subsample < 0:
            raise ConfigError("task.subsample must be >= 0")


def make_task(task_cfg: TaskConfig, seed: int) -> Task:
    """Builds the source, shifts a copy into the target domain and, for
    ``normalization="source"``, standardizes both. The seed's data stream
    makes every variant trained at this seed see identical datasets."""
    task_cfg.validate()
    rng = Prng(derive_seed(seed, STREAM_DATA))
    if task_cfg.kind == "blobs":
        source = gen_blobs(task_cfg.classes, task_cfg.per_class,
                           task_cfg.dim, task_cfg.spread, rng)
        name = f"blobs-c{task_cfg.classes}-s{seed}"
    else:
        source = load_idx(task_cfg.images, task_cfg.labels)
        if task_cfg.subsample:
            source = subsample(source, task_cfg.subsample, rng)
        name = f"idx-s{seed}"
    target = apply_shift(source, task_cfg)
    if task_cfg.normalization == "source":
        source, target = normalize_pair(source, target)
    return Task(source=source, target=target, name=name)


def make_blobs_task(seed: int, **fields) -> Task:
    """Shifted Gaussian blobs; ``fields`` are TaskConfig fields."""
    return make_task(TaskConfig(**fields), seed)


# ---------------------------------------------------------------------------
# Synthetic generation


def gen_blobs(classes: int, per_class: int, d: int, spread: float,
              rng: Prng) -> Dataset:
    """Gaussian clusters, one per class, means evenly spaced on a circle
    of radius 4 in the first two coordinates. Samples are laid out in
    class-major blocks; draw order is sample-major then coordinate."""
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


def apply_shift(ds: Dataset, cfg: TaskConfig) -> Dataset:
    """Produces the target-domain counterpart of a labeled dataset under
    the config's shift; a translation shorter than the data is zero-padded.

    The returned dataset has no open labels: ground truth moves into the
    sealed field.
    """
    if len(cfg.translation) > ds.dim:
        raise ContractError(
            f"translation length {len(cfg.translation)} exceeds dimension {ds.dim}"
        )
    if ds.dim < 2:
        raise ContractError(f"the shift rotates 2 coordinates, samples have {ds.dim}")
    translation = np.zeros(ds.dim)
    translation[:len(cfg.translation)] = cfg.translation
    # one new array, then in place: the input's samples are never written
    x = ds.samples * cfg.scale
    c, s = np.cos(cfg.rotation), np.sin(cfg.rotation)
    x[:, :2] = x[:, :2] @ np.array([[c, -s], [s, c]]).T
    x += translation

    return Dataset(
        samples=x,
        labels=None,
        domain_tag="target",
        class_count=ds.class_count,
        sealed_labels=one_hot(true_label_indices(ds), ds.class_count),
    )


def subsample(ds: Dataset, n: int, rng: Prng) -> Dataset:
    if n < 1 or n > ds.size:
        raise ContractError(f"subsample size {n} out of range 1..{ds.size}")
    idx = rng.permutation(ds.size)[:n]
    return replace(
        ds,
        samples=ds.samples[idx],
        labels=None if ds.labels is None else ds.labels[idx],
        sealed_labels=(
            None if ds.sealed_labels is None else ds.sealed_labels[idx]
        ),
    )


# ---------------------------------------------------------------------------
# Normalization


def normalize_pair(source: Dataset,
                   target: Dataset) -> tuple[Dataset, Dataset]:
    """Standardizes both domains with the source's per-feature mean and
    population std (floored at STD_FLOOR), which keeps the shift visible
    in target space. Each output is one new array, divided in place."""
    mean = source.samples.mean(axis=0)
    std = np.maximum(source.samples.std(axis=0), STD_FLOOR)

    def standardized(ds: Dataset) -> Dataset:
        x = ds.samples - mean
        x /= std
        return replace(ds, samples=x)

    return standardized(source), standardized(target)


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
    pixels = np.frombuffer(payload, dtype=np.uint8).astype(np.float64)
    pixels /= 255.0
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

