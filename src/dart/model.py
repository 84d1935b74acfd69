"""The adaptation network and its losses.

Pieces: a feature extractor (linear stack with inner ReLUs), a shared
bottleneck projecting features to class-logit width, a target classifier
that is plain softmax over those logits, a source classifier that adds a
learned residual perturbation to the logits before softmax, and a domain
classifier fed the row-wise Kronecker fusion of features and class
probabilities through a gradient-reversal layer.

Parameter groups: the extractor plus bottleneck form the feature
parameters; the residual block and the domain classifier are separate
groups (they sit on opposite sides of the reversal layer during
training).
"""

import math
from dataclasses import dataclass

import numpy as np

from dart import autodiff as ad
from dart.autodiff import Tape, Tensor, Var
from dart.errors import ContractError, DataFormatError, ShapeError
from dart.rng import Prng

CHECKPOINT_HEADER = "DARTCKPT1"

# sigmoid saturates to exactly 1.0 in float64 for inputs > ~37; clamp keeps
# the domain output inside the open interval the BCE loss requires
DOMAIN_PROB_EPS = 1e-12

# constructor fields a checkpoint records, each with the type it reads back as
ARCHITECTURE = {
    "input_dim": int,
    "hidden": tuple,
    "feature_dim": int,
    "class_count": int,
    "residual_hidden": int,
    "domain_hidden": int,
    "domain_on_joint": bool,
    "use_residual": bool,
}


def glorot(fan_in: int, fan_out: int, rng: Prng) -> Tensor:
    """Glorot-uniform weights [fan_in x fan_out], drawn row-major."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform_block(fan_in * fan_out, -limit, limit).reshape(fan_in, fan_out)


class DartModel:
    """Full network as one table of named parameters.

    ``domain_on_joint`` selects the domain classifier input: the Kronecker
    fusion of features and class probabilities (joint alignment) or the
    raw features (marginal alignment, the ``dart_c`` ablation wiring).
    ``use_residual=False`` removes the perturbation branch so the source
    and target classifiers coincide (the ``dart_s`` ablation wiring).
    Without ``rng`` every parameter starts at zero (a template to load
    into); biases always start at zero.
    """

    def __init__(
        self,
        input_dim: int,
        hidden: tuple[int, ...],
        feature_dim: int,
        class_count: int,
        residual_hidden: int | None = None,
        domain_hidden: int = 64,
        domain_on_joint: bool = True,
        use_residual: bool = True,
        rng: Prng | None = None,
    ):
        self.input_dim = input_dim
        self.hidden = tuple(int(h) for h in hidden)
        self.feature_dim = feature_dim
        self.class_count = class_count
        self.residual_hidden = (
            class_count if residual_hidden is None else int(residual_hidden)
        )
        widths = (input_dim, *self.hidden, feature_dim)
        if min(widths + (self.residual_hidden, domain_hidden)) < 1 or class_count < 2:
            raise ContractError("need every layer width >= 1 and class_count >= 2")
        self.domain_hidden = domain_hidden
        self.domain_on_joint = domain_on_joint
        self.use_residual = use_residual

        # name -> array in checkpoint order; weights are [in x out]
        self._params: dict[str, Tensor] = {}

        def layer(prefix, fan_in, fan_out, zero=False):
            self._params[f"{prefix}.weight"] = (
                np.zeros((fan_in, fan_out)) if zero or rng is None
                else glorot(fan_in, fan_out, rng)
            )
            self._params[f"{prefix}.bias"] = np.zeros(fan_out)

        for i in range(len(widths) - 1):
            layer(f"extractor.{i}", widths[i], widths[i + 1])
        layer("bottleneck", feature_dim, class_count)
        layer("residual.fc1", class_count, self.residual_hidden)
        # zero-init keeps the perturbation at exactly zero, so the source
        # and target classifiers start bitwise identical
        layer("residual.fc2", self.residual_hidden, class_count, zero=True)
        d_in = feature_dim * class_count if domain_on_joint else feature_dim
        layer("domain.fc1", d_in, domain_hidden)
        layer("domain.fc2", domain_hidden, 1)

    # -- parameter access ---------------------------------------------------

    def parameters(self) -> dict[str, Tensor]:
        """Named parameters in checkpoint order; arrays are live references."""
        return self._params

    def _param_names(self, *prefixes: str) -> list[str]:
        return [name for name in self._params if name.startswith(prefixes)]

    def feature_param_names(self) -> list[str]:
        # bottleneck counts as a feature parameter: it sits before the
        # classifier split and below the reversal layer
        return self._param_names("extractor.", "bottleneck.")

    def residual_param_names(self) -> list[str]:
        return self._param_names("residual.")

    def domain_param_names(self) -> list[str]:
        return self._param_names("domain.")

    def set_parameter(self, name: str, value) -> None:
        arr = np.asarray(value, dtype=np.float64)
        current = self._params.get(name)
        if current is None:
            raise ContractError(f"unknown parameter {name!r}")
        if current.shape != arr.shape:
            raise ShapeError(
                f"parameter {name!r} has shape {current.shape}, got {arr.shape}"
            )
        current[...] = arr

    def clone(self) -> "DartModel":
        other = DartModel(**{key: getattr(self, key) for key in ARCHITECTURE})
        for name, arr in self._params.items():
            other.set_parameter(name, arr)
        return other


class BoundModel:
    """Model parameters registered on a tape, with graph builders."""

    def __init__(self, model: DartModel, tape: Tape):
        self.model = model
        self.params: dict[str, Var] = {
            name: tape.variable(arr) for name, arr in model.parameters().items()
        }

    def _linear(self, x: Var, prefix: str) -> Var:
        w = self.params[f"{prefix}.weight"]
        b = self.params[f"{prefix}.bias"]
        return ad.add_bias(ad.matmul(x, w), b)

    def features(self, x: Var) -> Var:
        h = x
        depth = len(self.model.hidden) + 1
        for i in range(depth):
            h = self._linear(h, f"extractor.{i}")
            if i != depth - 1:
                h = ad.relu(h)
        return h

    def logits(self, f: Var) -> Var:
        return self._linear(f, "bottleneck")

    def target_probs(self, z: Var) -> Var:
        return ad.softmax_rows(z)

    def source_probs(self, z: Var) -> Var:
        if not self.model.use_residual:
            return ad.softmax_rows(z)
        h = ad.relu(self._linear(z, "residual.fc1"))
        delta = self._linear(h, "residual.fc2")
        return ad.softmax_rows(ad.add(z, delta))

    def domain_prob(self, joint: Var, lam: float) -> Var:
        p = self.params
        return domain_head(
            ad.gradient_reversal(joint, lam),
            p["domain.fc1.weight"], p["domain.fc1.bias"],
            p["domain.fc2.weight"], p["domain.fc2.bias"],
        )


def domain_head(x: Var, w1: Var, b1: Var, w2: Var, b2: Var) -> Var:
    """Two-layer domain discriminator: relu hidden layer, then a sigmoid
    output clamped inside the open interval (0, 1)."""
    h = ad.relu(ad.add_bias(ad.matmul(x, w1), b1))
    d = ad.sigmoid(ad.add_bias(ad.matmul(h, w2), b2))
    return ad.clamp(d, DOMAIN_PROB_EPS, 1.0 - DOMAIN_PROB_EPS)


def bind(model: DartModel, tape: Tape) -> BoundModel:
    return BoundModel(model, tape)


# ---------------------------------------------------------------------------
# Losses (graph form; scalars come back as 0-d Vars)


def classification_loss(y_pred: Var, y_true: Tensor) -> Var:
    """Minibatch mean cross-entropy against exact one-hot labels."""
    y_true = np.asarray(y_true, dtype=np.float64)
    if not ad.is_one_hot(y_true):
        raise ContractError("labels must be exact one-hot rows")
    if y_pred.shape != y_true.shape:
        raise ShapeError(
            f"predictions {y_pred.shape} vs labels {y_true.shape}"
        )
    n = y_true.shape[0]
    mask = y_pred.tape.constant(y_true)
    picked = ad.multiply(ad.log_eps(y_pred), mask)
    return ad.scalar_mul(ad.sum_all(picked), -1.0 / n)


def entropy_loss(y_pred: Var) -> Var:
    """Minibatch mean Shannon entropy of predicted class distributions."""
    n = y_pred.shape[0]
    plogp = ad.multiply(y_pred, ad.log_eps(y_pred))
    return ad.scalar_mul(ad.sum_all(plogp), -1.0 / n)


def domain_loss(d_src: Var, d_tgt: Var) -> Var:
    """Binary cross-entropy with source labeled 1 and target labeled 0."""
    for v, side in ((d_src, "source"), (d_tgt, "target")):
        vals = v.value
        if np.any(vals <= 0.0) or np.any(vals >= 1.0):
            raise ContractError(
                f"domain probabilities for {side} must lie strictly in (0, 1)"
            )
    ns = d_src.value.shape[0]
    nt = d_tgt.value.shape[0]
    src_term = ad.scalar_mul(ad.sum_all(ad.log_eps(d_src)), -1.0 / ns)
    ones = d_tgt.tape.constant(np.ones_like(d_tgt.value))
    tgt_term = ad.scalar_mul(
        ad.sum_all(ad.log_eps(ad.subtract(ones, d_tgt))), -1.0 / nt
    )
    return ad.add(src_term, tgt_term)


def total_loss(ly: Var, lh: Var, ld: Var, alpha: float, beta: float) -> Var:
    # association matches the plain expression ly + alpha*lh + beta*ld
    return ad.add(ad.add(ly, ad.scalar_mul(lh, alpha)), ad.scalar_mul(ld, beta))


# ---------------------------------------------------------------------------
# Shared training graph (used by the train step and the gradient checker)


@dataclass
class TrainingGraph:
    """Holds the loss Vars of one forward pass."""

    bound: BoundModel
    ly: Var
    lh: Var
    ld: Var
    total: Var
    source_probs: Var
    target_probs: Var
    d_src: Var
    d_tgt: Var


def build_training_graph(
    model: DartModel,
    tape: Tape,
    xs: Tensor,
    ys: Tensor,
    xt: Tensor,
    lam: float,
    alpha: float,
    beta: float,
    stop_pseudo_label_grad: bool = False,
    harden_pseudo_labels: bool = False,
) -> TrainingGraph:
    """One full forward pass over a source/target minibatch pair.

    The source-side fusion pairs features with the true one-hot labels;
    the target side pairs features with the predicted class distribution
    (the pseudo-label), which stays differentiable unless
    ``stop_pseudo_label_grad`` cuts it or ``harden_pseudo_labels``
    replaces it with its one-hot argmax (hardening is non-differentiable,
    so it implies the cut).
    """
    bm = bind(model, tape)
    xs_v = tape.constant(xs)
    xt_v = tape.constant(xt)

    fs = bm.features(xs_v)
    ft = bm.features(xt_v)
    zs = bm.logits(fs)
    zt = bm.logits(ft)
    ys_pred = bm.source_probs(zs)
    yt_pred = bm.target_probs(zt)

    if model.domain_on_joint:
        ys_v = tape.constant(ys)
        fused_src = ad.kron_rows(fs, ys_v)
        y_for_fusion = yt_pred
        if harden_pseudo_labels:
            hard = ad.one_hot(np.argmax(yt_pred.value, axis=1), model.class_count)
            y_for_fusion = tape.constant(hard)
        elif stop_pseudo_label_grad:
            y_for_fusion = ad.stop_gradient(yt_pred)
        fused_tgt = ad.kron_rows(ft, y_for_fusion)
    else:
        # marginal alignment: the fusion is never built
        fused_src = fs
        fused_tgt = ft

    d_src = bm.domain_prob(fused_src, lam)
    d_tgt = bm.domain_prob(fused_tgt, lam)

    ly = classification_loss(ys_pred, ys)
    lh = entropy_loss(yt_pred)
    ld = domain_loss(d_src, d_tgt)
    total = total_loss(ly, lh, ld, alpha, beta)
    return TrainingGraph(bm, ly, lh, ld, total,
                         ys_pred, yt_pred, d_src, d_tgt)


# ---------------------------------------------------------------------------
# Evaluation-mode forward (fresh throwaway tape, numpy in/out)


def forward_features(model: DartModel, x: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    """Features, target-classifier and source-classifier probabilities of
    the inputs ``x``, from one binding of the model."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ShapeError(
            f"input has shape {x.shape}, extractor expects width {model.input_dim}"
        )
    tape = Tape()
    bm = bind(model, tape)
    f = bm.features(tape.variable(x))
    z = bm.logits(f)
    return f.value, bm.target_probs(z).value, bm.source_probs(z).value


# ---------------------------------------------------------------------------
# Checkpoints: versioned structured text, floats via repr for exact
# round-trip, so identical runs write identical bytes


def _format_meta(value) -> str:
    if isinstance(value, tuple):
        return ",".join(map(str, value)) or "-"
    return str(int(value))


def _parse_meta(kind: type, text: str):
    if kind is tuple:
        return () if text == "-" else tuple(int(v) for v in text.split(","))
    return kind(int(text))


def _param_header(name: str, arr: Tensor) -> str:
    return f"param {name} {' '.join(str(s) for s in arr.shape)}"


def save_checkpoint(model: DartModel, path) -> None:
    lines = [CHECKPOINT_HEADER]
    for key in ARCHITECTURE:
        lines.append(f"meta {key} {_format_meta(getattr(model, key))}")
    for name, arr in model.parameters().items():
        lines.append(_param_header(name, arr))
        # one text row per weight row; a bias is a single row
        for row in arr.reshape(-1, arr.shape[-1]):
            lines.append(" ".join(repr(float(v)) for v in row))
    lines.append("end")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> DartModel:
    """Reads a checkpoint; malformed content of any kind raises a
    DataFormatError naming the file (OSError still signals an unreadable
    file). Widths too large to allocate count as malformed."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
        return _parse_checkpoint(lines)
    except (ContractError, DataFormatError, LookupError, MemoryError,
            ValueError) as exc:
        raise DataFormatError(
            f"malformed checkpoint {path}: {type(exc).__name__}: {exc}"
        ) from exc


def _parse_checkpoint(lines: list[str]) -> DartModel:
    """Header, the ARCHITECTURE meta lines, then one block per parameter
    in model order, then ``end``; anything else is a DataFormatError."""
    rest = iter(lines)

    def expect(prefix: str) -> str:
        """The next line after ``prefix``, which it must start with."""
        line = next(rest, "")
        if not line.startswith(prefix):
            raise DataFormatError(f"expected {prefix.strip()!r}, got {line[:40]!r}")
        return line[len(prefix):]

    if expect(CHECKPOINT_HEADER):
        raise DataFormatError(f"not a checkpoint: header is not {CHECKPOINT_HEADER!r}")
    model = DartModel(**{
        key: _parse_meta(kind, expect(f"meta {key} "))
        for key, kind in ARCHITECTURE.items()
    })
    for name, arr in model.parameters().items():
        if expect(_param_header(name, arr)):
            raise DataFormatError(f"parameter {name!r}: shape differs from model")
        for row in arr.reshape(-1, arr.shape[-1]):  # views into the model
            vals = [float(v) for v in next(rest, "").split()]
            if len(vals) != row.size:
                raise DataFormatError(
                    f"parameter {name!r}: expected {row.size} values per row, "
                    f"got {len(vals)}"
                )
            row[...] = vals
        if not np.all(np.isfinite(arr)):
            raise DataFormatError(f"parameter {name!r}: non-finite value")
    if next(rest, "") != "end":
        raise DataFormatError("truncated checkpoint: missing end marker")
    return model
