"""Optimization loop: paired minibatch sampling, schedules, SGD updates.

The loop trains three parameter groups at once. The feature side
(extractor plus bottleneck) receives the classification and entropy
gradients directly and the domain gradient through the reversal layer;
the residual block learns only from the source classification loss; the
domain classifier learns plain discrimination. All of it is one backward
pass per step into one flat gradient buffer, and one SGD update of the
model's flat parameter vector. The run's first step records its tape;
later steps replay it, writing every op's forward into the arrays the
record made.
"""

import math
from dataclasses import astuple, dataclass, replace

import numpy as np

from dart import autodiff as ad
from dart import model as dm
from dart.autodiff import Tape, Tensor
from dart.errors import ConfigError, ContractError, NumericError, check_fields
from dart.rng import STREAM_SAMPLING, Prng, derive_seed

# variant -> (domain_on_joint, use_residual, adapts): build_model's wiring,
# and whether the run trains the entropy and domain losses (effective())
VARIANTS = {
    "full": (True, True, True),
    "dart_c": (False, True, True),
    "dart_s": (True, False, True),
    "source_only": (True, True, False),
}

METRICS_COLUMNS = ("step", "eta", "lambda", "loss_y", "loss_h", "loss_d",
                   "loss_total")


# TrainConfig field -> its least valid value (of each entry, for hidden)
_LEAST = {"alpha": 0, "beta": 0, "eta0": 0, "lambda0": 0, "gamma_lambda": 0,
          "total_steps": 0, "batch_size": 1, "lr_decay_interval": 1, "log_every": 1,
          "hidden": 1, "feature_dim": 1, "residual_hidden": 1, "domain_hidden": 1}


@dataclass
class TrainConfig:
    """Hyperparameters and hidden widths for one training run; the input
    width and class count come from the data (see ``build_model``)."""

    alpha: float = 0.6
    beta: float = 1.0
    eta0: float = 0.01
    gamma_lr: float = 0.92
    lr_decay_interval: int = 3000
    lambda0: float = 1.0
    gamma_lambda: float = 2.5
    total_steps: int = 3000
    batch_size: int = 32
    seed: int = 1
    hidden: tuple[int, ...] = (16,)
    feature_dim: int = 8
    residual_hidden: int | None = None
    domain_hidden: int = 64
    harden_pseudo_labels: bool = False
    variant: str = "full"
    log_every: int = 50

    def validate(self) -> None:
        check_fields(self, _LEAST, {"variant": VARIANTS})
        if not 0.0 < self.gamma_lr <= 1.0:
            raise ConfigError(f"gamma_lr must be in (0, 1], got {self.gamma_lr}")
        if not 0 <= self.seed <= (1 << 64) - 1:
            raise ConfigError("seed must fit in 64 unsigned bits")

    def effective(self) -> "TrainConfig":
        """The config a run trains with: validated, then a copy with alpha
        and beta at 0.0 if the variant's ``VARIANTS`` row does not adapt."""
        self.validate()
        adapts = VARIANTS[self.variant][2]
        return replace(self) if adapts else replace(self, alpha=0.0, beta=0.0)


def build_model(cfg: TrainConfig, source, rng: Prng | None) -> dm.DartModel:
    """The variant's network for ``source``'s input width and class count
    (all zeros without ``rng``), wired by its row of ``VARIANTS``."""
    cfg.validate()
    domain_on_joint, use_residual, _ = VARIANTS[cfg.variant]
    return dm.DartModel(
        input_dim=source.dim,
        hidden=cfg.hidden,
        feature_dim=cfg.feature_dim,
        class_count=source.class_count,
        residual_hidden=cfg.residual_hidden,
        domain_hidden=cfg.domain_hidden,
        domain_on_joint=domain_on_joint,
        use_residual=use_residual,
        rng=rng,
    )


# ---------------------------------------------------------------------------
# Schedules


def lr_schedule(p: int, eta0: float, gamma_lr: float, interval: int = 3000) -> float:
    """Stepwise decay: eta0 * gamma_lr^(p // interval)."""
    if p < 0:
        raise ContractError(f"step index must be >= 0, got {p}")
    return eta0 * gamma_lr ** (p // interval)


def lambda_schedule(q: float, lambda0: float, gamma_lambda: float) -> float:
    """Sigmoid ramp from 0 to ~lambda0 as training progress q goes 0 to 1."""
    if not 0.0 <= q <= 1.0:
        raise ContractError(f"progress q must lie in [0, 1], got {q}")
    return lambda0 * (2.0 / (1.0 + math.exp(-gamma_lambda * q)) - 1.0)


# ---------------------------------------------------------------------------
# Minibatch sampling


class EpochSampler:
    """Without-replacement index batches, reshuffled each epoch.

    A tail shorter than the batch size is dropped; the next epoch starts
    with a fresh permutation.
    """

    def __init__(self, count: int, batch_size: int, rng: Prng):
        if batch_size > count:
            raise ConfigError(
                f"batch_size {batch_size} exceeds dataset size {count}"
            )
        self.count = count
        self.batch_size = batch_size
        self.rng = rng
        self._order = np.empty(0, dtype=np.intp)
        self._pos = 0

    def next_indices(self) -> np.ndarray:
        if self._pos + self.batch_size > len(self._order):
            self._order = self.rng.permutation(self.count)
            self._pos = 0
        out = self._order[self._pos:self._pos + self.batch_size]
        self._pos += self.batch_size
        return out


@dataclass
class Batch:
    """One paired minibatch. Target labels never appear here."""

    xs: Tensor
    ys: Tensor
    xt: Tensor


class PairedSampler:
    """Draws equal-size source/target batches; the two domains run on
    independent derived streams so their epochs advance independently."""

    def __init__(self, source, target, batch_size: int, seed: int):
        root = derive_seed(seed, STREAM_SAMPLING)
        self.source = source
        self.target = target
        self.src = EpochSampler(source.samples.shape[0], batch_size,
                                Prng(derive_seed(root, 0)))
        self.tgt = EpochSampler(target.samples.shape[0], batch_size,
                                Prng(derive_seed(root, 1)))

    def next_batch(self) -> Batch:
        si = self.src.next_indices()
        ti = self.tgt.next_indices()
        return Batch(
            xs=self.source.samples.take(si, axis=0),
            ys=self.source.labels.take(si, axis=0),
            xt=self.target.samples.take(ti, axis=0),
        )


# ---------------------------------------------------------------------------
# SGD


@dataclass
class SgdState:
    """Step counter; the model's flat gradient buffer with its views by
    parameter name; and the tape a step recorded, with the parameters bound
    on it, the vector they view and the batch shapes and
    ``harden_pseudo_labels`` it was recorded for, which later steps replay.
    Made by the first ``train_step`` for one model, dropped by
    ``train_loop`` when it returns."""

    p: int = 0
    grad: Tensor | None = None
    grads: dict[str, Tensor] | None = None
    tape: Tape | None = None
    params: dict[str, ad.Var] | None = None
    flat: Tensor | None = None
    tape_key: tuple | None = None


@dataclass
class StepMetrics:
    step: int
    eta: float
    lam: float
    loss_y: float
    loss_h: float
    loss_d: float
    loss_total: float


def train_step(model: dm.DartModel, batch: Batch, cfg: TrainConfig,
               state: SgdState) -> StepMetrics:
    """One forward/backward/update cycle; increments the step counter.

    The graph is built by the same calls every step: on the tape the state
    holds, rewound past its parameters, when this model has the vector,
    this batch the shapes and this config the ``harden_pseudo_labels`` the
    tape was recorded with (the graph is then the recorded one), else on a
    fresh tape, which the state keeps, with the parameters bound."""
    p = state.p
    flat = model.flat_parameters()
    if state.grad is None:
        state.grad = np.empty_like(flat)
        state.grads = model.views_of(state.grad)
    q = min(p / cfg.total_steps, 1.0) if cfg.total_steps > 0 else 1.0
    lam = lambda_schedule(q, cfg.lambda0, cfg.gamma_lambda)
    eta = lr_schedule(p, cfg.eta0, cfg.gamma_lr, cfg.lr_decay_interval)

    key = (batch.xs.shape, batch.ys.shape, batch.xt.shape,
           cfg.harden_pseudo_labels)
    tape, ws = state.tape, state.params
    if tape is not None and state.tape_key == key and state.flat is flat:
        tape.rewind(len(ws))
    else:
        tape = Tape()
        ws = dm.bind(model.parameters(), tape, state.grads)
    try:
        graph = dm.build_training_graph(
            model, ws, batch.xs, batch.ys, batch.xt, lam,
            cfg.alpha, cfg.beta,
            harden_pseudo_labels=cfg.harden_pseudo_labels,
        )
    except NumericError as exc:
        # domain_loss stops at a non-finite domain probability
        raise NumericError(f"non-finite loss_d at step {p}: {exc}") from exc
    values = {
        "loss_y": float(graph.ly.value),
        "loss_h": float(graph.lh.value),
        "loss_d": float(graph.ld.value),
        "loss_total": float(graph.total.value),
    }
    for term, v in values.items():
        if not math.isfinite(v):
            raise NumericError(f"non-finite {term} at step {p}: {v}")

    # fills state.grad; g * eta and p - that are p - eta * g, bit for bit
    ad.backward(tape, graph.total)
    state.tape, state.params, state.flat, state.tape_key = tape, ws, flat, key
    state.grad *= eta
    flat -= state.grad

    state.p += 1
    return StepMetrics(step=p, eta=eta, lam=lam, **values)


@dataclass
class TrainReport:
    model: dm.DartModel
    state: SgdState
    history: list[StepMetrics]


def format_metrics_row(m: StepMetrics) -> str:
    return ",".join(map(repr, astuple(m)))


def train_loop(
    model: dm.DartModel, source, target, cfg: TrainConfig,
    metrics_path=None,
) -> TrainReport:
    """Runs cfg.total_steps steps; logs every cfg.log_every steps plus the
    final step. With a metrics path, rows go to a CSV with a header. The run
    trains with ``cfg.effective()``: cfg checked, its VARIANTS row applied."""
    cfg = cfg.effective()
    if (source.dim, source.class_count) != (model.input_dim, model.class_count):
        raise ContractError(
            f"source (width, class count) {(source.dim, source.class_count)} "
            f"does not match the model's {(model.input_dim, model.class_count)}"
        )
    state = SgdState()
    history: list[StepMetrics] = []
    # built only when stepping, so a zero-step run never checks the batch
    # size against the dataset
    sampler = (PairedSampler(source, target, cfg.batch_size, cfg.seed)
               if cfg.total_steps > 0 else None)
    fh = open(metrics_path, "w", encoding="ascii") if metrics_path else None
    try:
        if fh:
            fh.write(",".join(METRICS_COLUMNS) + "\n")
        for p in range(cfg.total_steps):
            metrics = train_step(model, sampler.next_batch(), cfg, state)
            if p % cfg.log_every == 0 or p == cfg.total_steps - 1:
                history.append(metrics)
                if fh:
                    fh.write(format_metrics_row(metrics) + "\n")
    finally:
        # as large as the model: free it before the checkpoint is written
        state.grad = state.grads = state.tape = state.params = state.flat = None
        if fh:
            fh.close()
    dm.check_finite_parameters(model.parameters(), "after training")
    return TrainReport(model, state, history)
