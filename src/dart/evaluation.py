"""Accuracy, proxy A-distance, and the ablation harness.

The ablations isolate the two mechanisms: ``dart_c`` keeps adversarial
training but feeds the domain classifier features only (marginal
alignment, no fusion); ``dart_s`` keeps the fusion but removes the
residual perturbation; ``source_only`` turns off both adaptation losses.
All variants share the seed-derived data, initialization, and sampling
streams so comparisons are paired.
"""

from dataclasses import dataclass, replace

import numpy as np

from dart import data as dd
from dart import model as dm
from dart import training as tr
from dart.autodiff import Tape, Tensor
from dart.errors import ContractError, ShapeError
from dart.rng import STREAM_INIT, STREAM_PROBE, Prng, derive_seed

RESULTS_COLUMNS = ("variant", "seed", "src_acc", "tgt_acc", "a_distance")

# Probe protocol: fixed so A-distance numbers are comparable across runs.
PROBE_STEPS = 2000
PROBE_ETA = 0.01
PROBE_HIDDEN = 64
PROBE_MIN_ROWS = 10

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


def check_probe_rows(n_src: int, n_tgt: int) -> None:
    """ContractError unless both domains have PROBE_MIN_ROWS rows, enough
    to split into the probe's train and test halves."""
    if n_src < PROBE_MIN_ROWS or n_tgt < PROBE_MIN_ROWS:
        raise ContractError(
            f"a_distance needs at least {PROBE_MIN_ROWS} samples per domain")


def a_distance(features_src: Tensor, features_tgt: Tensor, rng: Prng) -> float:
    """2*(1 - 2*eps) where eps is the held-out error of a domain probe
    freshly trained under the fixed PROBE_* protocol. The probe is a
    ``DOMAIN_LAYERS`` head trained by ``domain_loss``, in one
    ``dm.train_domain_probe`` call on arrays, which gives the tape steps'
    bits without recording a tape, and tested by ``dm.domain_head``. The
    test error is left unclamped below chance, so small negative values
    are possible on indistinguishable domains."""
    features_src = np.asarray(features_src, dtype=np.float64)
    features_tgt = np.asarray(features_tgt, dtype=np.float64)
    check_probe_rows(features_src.shape[0], features_tgt.shape[0])
    # the probe's steps read them without a scan
    if not (np.isfinite(features_src).all() and np.isfinite(features_tgt).all()):
        raise ContractError("a_distance needs finite features")

    def split(x):
        perm = rng.permutation(x.shape[0])
        half = x.shape[0] // 2
        return x[perm[:half]], x[perm[half:]]

    src_train, src_test = split(features_src)
    tgt_train, tgt_test = split(features_tgt)

    # the probe is a fresh copy of the model's domain classifier
    params = dm.init_layers({}, dm.DOMAIN_LAYERS,
                            (features_src.shape[1], PROBE_HIDDEN, 1), rng)
    dm.train_domain_probe(params, src_train, tgt_train, PROBE_ETA, PROBE_STEPS)
    dm.check_finite_parameters(params, "after the A-distance probe")

    tape = Tape()
    ws = dm.bind(params, tape)
    # threshold 0.5: at or above counts as a source prediction
    src_correct = dm.domain_head(tape.constant(src_test), ws).value[:, 0] >= 0.5
    tgt_correct = dm.domain_head(tape.constant(tgt_test), ws).value[:, 0] < 0.5
    errors = np.concatenate([~src_correct, ~tgt_correct])
    eps = float(np.mean(errors))
    return 2.0 * (1.0 - 2.0 * eps)


# ---------------------------------------------------------------------------
# Ablation harness


def run_ablation(variant: str, task: dd.Task, cfg: tr.TrainConfig) -> EvalReport:
    """Trains and evaluates ``variant`` on ``task`` with, and echoing,
    ``cfg.effective()`` at that variant: cfg checked, its VARIANTS row applied."""
    run_cfg = replace(cfg, variant=variant).effective()
    model = tr.build_model(run_cfg, task.source,
                           Prng(derive_seed(run_cfg.seed, STREAM_INIT)))
    tr.train_loop(model, task.source, task.target, run_cfg)
    report = evaluate_model(model, task, run_cfg.seed, variant)
    report.config_echo.update(
        {key: getattr(run_cfg, key) for key in ECHO_TRAINING_KEYS}
    )
    return report


def evaluate_model(model: dm.DartModel, task: dd.Task, seed: int,
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
