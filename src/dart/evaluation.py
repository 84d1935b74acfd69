"""Accuracy, proxy A-distance, and the ablation harness.

The ablations isolate the two mechanisms: ``dart_c`` keeps adversarial
training but feeds the domain classifier features only (marginal
alignment, no fusion); ``dart_s`` keeps the fusion but removes the
residual perturbation; ``source_only`` turns off both adaptation losses.
All variants share the seed-derived data, initialization, and sampling
streams so comparisons are paired.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from dart import autodiff as ad
from dart import data as dd
from dart import model as dm
from dart import training as tr
from dart.autodiff import Tape, Tensor
from dart.errors import ConfigError, ContractError, ShapeError
from dart.rng import STREAM_DATA, STREAM_INIT, STREAM_PROBE, Prng, derive_seed

RESULTS_COLUMNS = ("variant", "seed", "src_acc", "tgt_acc", "a_distance")

# Probe protocol: fixed so A-distance numbers are comparable across runs.
PROBE_STEPS = 2000
PROBE_ETA = 0.01
PROBE_HIDDEN = 64

# training settings an ablation report echoes next to the probe protocol
ECHO_TRAINING_KEYS = ("alpha", "beta", "eta0", "gamma_lr", "lambda0",
                      "gamma_lambda", "total_steps", "batch_size")


@dataclass
class EvalReport:
    variant: str
    seed: int
    target_accuracy: float
    source_accuracy: float
    a_distance: float
    per_class_accuracy: list[float]
    config_echo: dict


@dataclass
class Task:
    """A source/target dataset pair ready for training."""

    source: dd.Dataset
    target: dd.Dataset
    name: str = "task"


@dataclass
class TaskConfig:
    """The dataset pair to build: Gaussian blobs or an IDX image/label
    file pair, then the shift that turns the source into the target."""

    kind: str = "blobs"
    classes: int = 3
    per_class: int = 100
    dim: int = 2
    spread: float = 1.1
    rotation: float = math.pi / 5
    translation: tuple[float, ...] = (1.5, -1.0)
    scale: float = 1.0
    label_noise: float = 0.0
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
        if not 0.0 <= self.label_noise < 1.0:
            raise ConfigError("task.label_noise must lie in [0, 1)")
        if self.normalization not in ("source", "none"):
            raise ConfigError(
                f"task.normalization must be source or none, got {self.normalization!r}"
            )
        if self.subsample < 0:
            raise ConfigError("task.subsample must be >= 0")


def make_task(task_cfg: TaskConfig, seed: int) -> Task:
    """Builds the source, shifts a copy of it into the target domain and
    normalizes both. The data stream is derived from the seed, so every
    variant trained at this seed sees identical datasets."""
    rng = Prng(derive_seed(seed, STREAM_DATA))
    if task_cfg.kind == "blobs":
        source = dd.gen_blobs(task_cfg.classes, task_cfg.per_class,
                              task_cfg.dim, task_cfg.spread, rng)
        name = f"blobs-c{task_cfg.classes}-s{seed}"
    else:
        source = dd.load_idx(task_cfg.images, task_cfg.labels)
        if task_cfg.subsample:
            source = dd.subsample(source, task_cfg.subsample, rng)
        name = f"idx-s{seed}"
    # a translation shorter than the data is zero-padded
    pad = (0.0,) * (source.dim - len(task_cfg.translation))
    spec = dd.ShiftSpec(task_cfg.rotation, tuple(task_cfg.translation) + pad,
                        task_cfg.scale, task_cfg.label_noise)
    target = dd.apply_shift(source, spec, rng)
    source, target = dd.normalize_pair(source, target, mode=task_cfg.normalization)
    return Task(source=source, target=target, name=name)


def make_blobs_task(seed: int, **fields) -> Task:
    """Shifted Gaussian blobs; ``fields`` are TaskConfig fields."""
    return make_task(TaskConfig(**fields), seed)


# ---------------------------------------------------------------------------
# Accuracy


def accuracy(probs: Tensor, ds: dd.Dataset) -> tuple[float, list[float]]:
    """Overall and per-class accuracy of predicted class probabilities
    against the dataset's true labels; a class with no samples reads nan."""
    truth = dd.true_label_indices(ds)
    if np.shape(probs) != (truth.size, ds.class_count):
        raise ShapeError(f"predictions {np.shape(probs)} for {truth.size} labeled rows")
    # argmax takes the first maximum, i.e. ties break to the lowest index
    hits = np.argmax(probs, axis=1) == truth
    # row j counts the misses and hits among samples of true class j
    table = np.bincount(2 * truth + hits, minlength=2 * ds.class_count)
    table = table.reshape(ds.class_count, 2)
    counts = table.sum(axis=1)
    per_class = np.divide(table[:, 1], counts, out=np.full(ds.class_count, np.nan),
                          where=counts > 0)
    return float(table[:, 1].sum() / counts.sum()), per_class.tolist()


# ---------------------------------------------------------------------------
# Proxy A-distance


def a_distance(features_src: Tensor, features_tgt: Tensor, rng: Prng) -> float:
    """2*(1 - 2*eps) where eps is the held-out error of a domain probe
    freshly trained under the fixed PROBE_* protocol. The test error is
    left unclamped below chance, so small negative values are possible on
    indistinguishable domains."""
    features_src = np.asarray(features_src, dtype=np.float64)
    features_tgt = np.asarray(features_tgt, dtype=np.float64)
    if features_src.shape[0] < 10 or features_tgt.shape[0] < 10:
        raise ContractError("a_distance needs at least 10 samples per domain")

    def split(x):
        perm = np.asarray(rng.permutation(x.shape[0]), dtype=np.intp)
        half = x.shape[0] // 2
        return x[perm[:half]], x[perm[half:]]

    src_train, src_test = split(features_src)
    tgt_train, tgt_test = split(features_tgt)

    # the probe has the shape of the model's domain classifier
    params = [dm.glorot(features_src.shape[1], PROBE_HIDDEN, rng),
              np.zeros(PROBE_HIDDEN), dm.glorot(PROBE_HIDDEN, 1, rng), np.zeros(1)]

    def probe(tape, *inputs):
        ws = [tape.variable(p) for p in params]
        return ws, [dm.domain_head(tape.constant(x), *ws) for x in inputs]

    for _ in range(PROBE_STEPS):
        tape = Tape()
        ws, (d_src, d_tgt) = probe(tape, src_train, tgt_train)
        grads = ad.backward(tape, dm.domain_loss(d_src, d_tgt))
        for arr, var in zip(params, ws):
            arr -= PROBE_ETA * grads[var.vid]

    # threshold 0.5: at or above counts as a source prediction
    _, (d_src, d_tgt) = probe(Tape(), src_test, tgt_test)
    src_correct = d_src.value[:, 0] >= 0.5
    tgt_correct = d_tgt.value[:, 0] < 0.5
    errors = np.concatenate([~src_correct, ~tgt_correct])
    eps = float(np.mean(errors))
    return 2.0 * (1.0 - 2.0 * eps)


# ---------------------------------------------------------------------------
# Ablation harness


def run_ablation(variant: str, task: Task, cfg: tr.TrainConfig) -> EvalReport:
    if variant not in tr.VARIANTS:
        raise ContractError(
            f"variant must be one of {', '.join(tr.VARIANTS)}, got {variant!r}"
        )
    run_cfg = replace(cfg, variant=variant).effective()
    run_cfg.validate()
    model = tr.build_model(run_cfg, Prng(derive_seed(run_cfg.seed, STREAM_INIT)))
    tr.train_loop(model, task.source, task.target, run_cfg)
    report = evaluate_model(model, task, run_cfg.seed, variant)
    report.config_echo.update(
        {key: getattr(run_cfg, key) for key in ECHO_TRAINING_KEYS}
    )
    return report


def evaluate_model(model: dm.DartModel, task: Task, seed: int,
                   variant: str = "full") -> EvalReport:
    """Accuracies and A-distance of a trained model (the eval command, and
    the end of each ablation run)."""
    fs, _, src_probs = dm.forward_features(model, task.source.samples)
    ft, tgt_probs, _ = dm.forward_features(model, task.target.samples)
    src_acc, _ = accuracy(src_probs, task.source)
    tgt_acc, per_class = accuracy(tgt_probs, task.target)
    da = a_distance(fs, ft, Prng(derive_seed(seed, STREAM_PROBE)))
    echo = {
        "probe_steps": PROBE_STEPS,
        "probe_eta": PROBE_ETA,
        "probe_hidden": PROBE_HIDDEN,
        "task": task.name,
    }
    return EvalReport(variant, seed, tgt_acc, src_acc, da, per_class, echo)


# ---------------------------------------------------------------------------
# Serialization


def serialize_report(report: EvalReport) -> str:
    lines = [
        f"variant={report.variant}",
        f"seed={report.seed}",
        f"target_accuracy={report.target_accuracy!r}",
        f"source_accuracy={report.source_accuracy!r}",
        f"a_distance={report.a_distance!r}",
        "per_class_accuracy=" + ",".join(
            repr(v) for v in report.per_class_accuracy
        ),
    ]
    for key in sorted(report.config_echo):
        lines.append(f"config.{key}={report.config_echo[key]}")
    return "\n".join(lines) + "\n"


def append_results_csv(path, reports) -> None:
    """Appends rows, writing the header if the file is new or empty."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            has_header = fh.readline().strip() == ",".join(RESULTS_COLUMNS)
    except FileNotFoundError:
        has_header = False
    with open(path, "a", encoding="ascii") as fh:
        if not has_header:
            fh.write(",".join(RESULTS_COLUMNS) + "\n")
        for r in reports:
            fh.write(
                f"{r.variant},{r.seed},{r.source_accuracy!r},"
                f"{r.target_accuracy!r},{r.a_distance!r}\n"
            )
