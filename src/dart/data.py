"""Datasets, the task they form, synthetic domain shifts, and IDX binary I/O.

Generation, loading and the shifts work on arrays. Target ground truth is
quarantined: ``make_task`` builds the target with its labels in a sealed
field that the training path never touches. Only evaluation reads it
back out via ``true_label_indices``.
"""

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from dart.autodiff import MAX_ENTRIES, Tensor, is_one_hot, one_hot
from dart.errors import ConfigError, ContractError, DataFormatError, check_fields
from dart.rng import STREAM_DATA, Prng, derive_seed

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

STD_FLOOR = 1e-8
STD_BLOCK = 64  # source rows per block of normalize_pair's squared deviations


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
            setattr(self, attr, lab)
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
        blobs = {"classes": 2, "per_class": 1, "dim": 2, "spread": 0}
        check_fields(self, {"subsample": 0, **(blobs if self.kind == "blobs" else {})},
                     {"kind": ("blobs", "idx"), "normalization": ("source", "none")},
                     "task.")
        if self.kind == "blobs":
            for width, key in ((self.dim, "dim"), (self.classes, "classes")):
                entries = self.classes * self.per_class * width
                if entries > MAX_ENTRIES:
                    raise ConfigError(
                        f"task.classes * task.per_class * task.{key} = "
                        f"{entries} entries are more than an array can hold")
        else:
            if not self.images or not self.labels:
                raise ConfigError("task.kind=idx requires task.images and task.labels")
        if not self.scale > 0:
            raise ConfigError("task.scale must be > 0")


def make_task(task_cfg: TaskConfig, seed: int) -> Task:
    """Builds the source arrays, shifts a copy into the target domain, for
    ``normalization="source"`` standardizes both, and seals the target's
    labels. The seed's data stream gives every variant the same task."""
    task_cfg.validate()
    rng = Prng(derive_seed(seed, STREAM_DATA))
    if task_cfg.kind == "blobs":
        x, labels = gen_blobs(task_cfg.classes, task_cfg.per_class,
                              task_cfg.dim, task_cfg.spread, rng)
        name = f"blobs-c{task_cfg.classes}-s{seed}"
    else:
        x, labels = load_idx(task_cfg.images, task_cfg.labels)
        if task_cfg.subsample:
            rows = subsample(len(x), task_cfg.subsample, rng)
            x, labels = x[rows], labels[rows]
        name = f"idx-s{seed}"
    shifted = apply_shift(x, task_cfg)
    if task_cfg.normalization == "source":
        normalize_pair(x, shifted)
    classes = labels.shape[1]
    return Task(source=Dataset(x, labels, "source", classes),
                target=Dataset(shifted, None, "target", classes,
                               sealed_labels=labels),
                name=name)


def make_blobs_task(seed: int, **fields) -> Task:
    """Shifted Gaussian blobs; ``fields`` are TaskConfig fields."""
    return make_task(TaskConfig(**fields), seed)


# ---------------------------------------------------------------------------
# Synthetic generation


def gen_blobs(classes: int, per_class: int, d: int, spread: float,
              rng: Prng) -> tuple[Tensor, Tensor]:
    """Samples and one-hot labels of Gaussian clusters, one per class, means
    evenly spaced on a circle of radius 4 in the first two coordinates, in
    class-major blocks; draw order is sample-major then coordinate."""
    means = np.zeros((classes, d))
    for j in range(classes):
        angle = 2.0 * np.pi * j / classes
        means[j, 0] = 4.0 * np.cos(angle)
        means[j, 1] = 4.0 * np.sin(angle)
    labels = np.repeat(np.arange(classes), per_class)
    noise = rng.normal_block(labels.size * d).reshape(labels.size, d)
    return means[labels] + spread * noise, one_hot(labels, classes)


def apply_shift(x: Tensor, cfg: TaskConfig) -> Tensor:
    """The target-domain copy of samples ``x`` under the config's shift; a
    translation shorter than the data is zero-padded. ``x`` is not
    written."""
    dim = x.shape[1]
    if len(cfg.translation) > dim:
        raise ContractError(
            f"translation length {len(cfg.translation)} exceeds dimension {dim}"
        )
    if dim < 2:
        raise ContractError(f"the shift rotates 2 coordinates, samples have {dim}")
    translation = np.zeros(dim)
    translation[:len(cfg.translation)] = cfg.translation
    # one new array, then in place
    out = x * cfg.scale
    c, s = np.cos(cfg.rotation), np.sin(cfg.rotation)
    out[:, :2] = out[:, :2] @ np.array([[c, -s], [s, c]]).T
    out += translation
    return out


def subsample(count: int, n: int, rng: Prng) -> np.ndarray:
    """Indices of n of ``count`` rows, drawn without replacement."""
    if n < 1 or n > count:
        raise ContractError(f"subsample size {n} out of range 1..{count}")
    return rng.permutation(count)[:n]


# ---------------------------------------------------------------------------
# Normalization


def normalize_pair(source: Tensor, target: Tensor) -> None:
    """Standardizes both arrays in place with the source's per-feature mean
    and population std (floored at STD_FLOOR), which keeps the shift
    visible in target space. The two arrays must be different. The
    statistics have ``source.mean(axis=0)``'s and ``source.std(axis=0)``'s
    bits for a C-contiguous source of two or more features, as
    ``make_task`` makes it."""
    n, d = source.shape
    mean = np.add.reduce(source, axis=0) / n
    # the squared deviations STD_BLOCK rows at a time, not in np.std's
    # full-size temporary, summed row after row as numpy sums a column:
    # row 0 of the buffer carries the sum so far
    buf = np.empty((STD_BLOCK + 1, d))
    for start in range(0, n, STD_BLOCK):
        rows = source[start:start + STD_BLOCK]
        block = buf[1:1 + len(rows)]
        np.subtract(rows, mean, out=block)
        np.square(block, out=block)
        buf[0] = np.add.reduce(buf[:1 + len(rows)] if start else block, axis=0)
    std = np.maximum(np.sqrt(buf[0] / n), STD_FLOOR)
    # x / inf would be 0; a nan std comes from non-finite samples, which
    # the Dataset check names
    if np.isinf(std).any():
        raise ContractError("source samples are too large to standardize: "
                            "a per-feature std is not finite")
    for x in (source, target):
        x -= mean
        x /= std


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


def load_idx(path_images, path_labels) -> tuple[Tensor, Tensor]:
    """Reads an image/label IDX pair into flattened, [0,1]-scaled pixels
    and one-hot labels over 10 classes."""
    (n, rows, cols), payload = _read_idx(path_images, IDX_IMAGES_MAGIC, 3,
                                         "image", "pixel")
    (n_labels,), label_bytes = _read_idx(path_labels, IDX_LABELS_MAGIC, 1,
                                         "label", "label")
    if n != n_labels:
        raise DataFormatError(
            f"image count {n} does not match label count {n_labels}"
        )
    if n < 1:  # the source statistics would warn on no rows
        raise ContractError(
            f"samples must be a non-empty 2-d array, got (0, {rows * cols})")
    pixels = np.divide(np.frombuffer(payload, dtype=np.uint8), 255.0)
    labels = np.frombuffer(label_bytes, dtype=np.uint8)
    if np.any(labels > 9):
        raise DataFormatError("label byte outside 0..9")
    return pixels.reshape(n, rows * cols), one_hot(labels.tolist(), 10)


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

