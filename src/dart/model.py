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
training). All of them are views of one flat vector in checkpoint order.
"""

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from dart import autodiff as ad
from dart.autodiff import Tape, Tensor, Var
from dart.errors import ContractError, DataFormatError, NumericError, ShapeError
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


def layer_keys(*names: str) -> tuple[tuple[str, str], ...]:
    """The ``(name.weight, name.bias)`` parameter names of each layer."""
    return tuple((f"{name}.weight", f"{name}.bias") for name in names)


# the two layers of the domain classifier; the A-distance probe is one too
DOMAIN_LAYERS = ("domain.fc1", "domain.fc2")
DOMAIN_KEYS = layer_keys(*DOMAIN_LAYERS)
DOMAIN_PARAMS = tuple(key for pair in DOMAIN_KEYS for key in pair)


def flat_views(flat: Tensor, shapes) -> list[Tensor]:
    """Views of consecutive runs of the 1-d ``flat``, one per shape, in
    order."""
    views, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(flat[start:stop].reshape(shape))
        start = stop
    return views


def layer_shapes(names, widths) -> dict[str, tuple[int, ...]]:
    """One linear layer per consecutive pair of ``widths``: the shapes of
    its ``name.weight`` [in x out] and ``name.bias`` [out], in order."""
    shapes = {}
    for (w_key, b_key), fan_in, fan_out in zip(layer_keys(*names), widths, widths[1:]):
        shapes[w_key], shapes[b_key] = (fan_in, fan_out), (fan_out,)
    return shapes


def init_layers(params: dict[str, Tensor], names, widths,
                rng: Prng | None) -> dict[str, Tensor]:
    """The ``layer_shapes`` layers: Glorot-uniform weights drawn row-major
    (zeros without ``rng``) and zero biases, written in place into the
    entries ``params`` holds (contiguous views of a model's vector) and
    added where missing. Returns ``params``."""
    for name, shape in layer_shapes(names, widths).items():
        arr = params.get(name)
        if arr is None:
            arr = params[name] = np.empty(shape)
        if rng is not None and len(shape) == 2:
            limit = math.sqrt(6.0 / (shape[0] + shape[1]))
            rng.uniform_block(arr.size, -limit, limit, out=arr.reshape(-1))
        else:
            arr.fill(0.0)
    return params


def mlp(x: Var, params: dict[str, Var], layers) -> Var:
    """The linear layers, given as ``layer_keys`` pairs, applied in order,
    with a ReLU between consecutive layers and none after the last: one
    ``matmul`` node per layer, with its bias and its ReLU."""
    last = len(layers) - 1
    for i, (w_key, b_key) in enumerate(layers):
        x = ad.matmul(x, params[w_key], params[b_key], relu=i < last)
    return x


class DartModel:
    """Full network as one table of named parameters, each a view of one
    flat float64 vector in checkpoint order.

    ``domain_on_joint`` selects the domain classifier input: the Kronecker
    fusion of features and class probabilities (joint alignment) or the
    raw features (marginal alignment, the ``dart_c`` ablation wiring).
    ``use_residual=False`` removes the perturbation branch so the source
    and target classifiers coincide (the ``dart_s`` ablation wiring).
    Without ``rng`` every parameter starts at zero (a template to load
    into); biases always start at zero. ``copy.deepcopy`` gives the copy
    views of its own vector.
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

        # the layers in checkpoint order with their widths and init stream:
        # the residual block reads the logits, so it chains on the
        # bottleneck, and its zero-init second layer keeps the perturbation
        # at exactly zero, so the two classifiers start bitwise identical
        extractor = tuple(f"extractor.{i}" for i in range(len(widths) - 1))
        d_in = feature_dim * class_count if domain_on_joint else feature_dim
        stacks = (((*extractor, "bottleneck", "residual.fc1"),
                   (*widths, class_count, self.residual_hidden), rng),
                  (("residual.fc2",), (self.residual_hidden, class_count), None),
                  (DOMAIN_LAYERS, (d_in, domain_hidden, 1), rng))
        # name -> shape in checkpoint order; weights are [in x out]
        self._shapes = {name: shape for names, stack_widths, _ in stacks
                        for name, shape in layer_shapes(names, stack_widths).items()}
        size = sum(map(math.prod, self._shapes.values()))
        if size > ad.MAX_ENTRIES:
            raise ContractError(
                f"the widths (hidden, feature_dim, residual_hidden, "
                f"domain_hidden) give {size} parameters, more than an array "
                f"can hold")
        self._flat = np.empty(size)
        params = self.views_of(self._flat)
        for names, stack_widths, stack_rng in stacks:
            init_layers(params, names, stack_widths, stack_rng)
        self._params = MappingProxyType(params)
        # the layer key pairs mlp reads, resolved once
        self.extractor_keys = layer_keys(*extractor)
        self.bottleneck_keys = layer_keys("bottleneck")
        self.residual_keys = layer_keys("residual.fc1", "residual.fc2")

    def __getstate__(self) -> dict:
        # the views are rebuilt on the copied vector (copy.deepcopy, pickle)
        return {k: v for k, v in self.__dict__.items() if k != "_params"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._params = MappingProxyType(self.views_of(self._flat))

    # -- parameter access ---------------------------------------------------

    def parameters(self) -> MappingProxyType:
        """Named parameters in checkpoint order, a read-only mapping of
        live views into ``flat_parameters()``: write them in place."""
        return self._params

    def flat_parameters(self) -> Tensor:
        """The one vector every parameter is a view of, in checkpoint order."""
        return self._flat

    def views_of(self, flat: Tensor) -> dict[str, Tensor]:
        """Views of a vector laid out like ``flat_parameters()`` (a flat
        gradient buffer, say), by parameter name."""
        return dict(zip(self._shapes, flat_views(flat, self._shapes.values())))

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
        if not np.isfinite(arr).all():
            raise ContractError(f"parameter {name!r} must be finite")
        current[...] = arr


def bind(params: dict[str, Tensor], tape: Tape,
         grads: dict[str, Tensor] | None = None) -> dict[str, Var]:
    """Registers a parameter table on a tape in table order, without a
    finiteness scan: init makes the arrays finite, ``set_parameter`` and
    ``load_checkpoint`` check them on the way in, training after its last
    update and ``forward_features`` before it binds. ``backward`` writes
    each parameter's gradient into ``grads[name]`` when given. On a fresh
    tape they take the ids below ``len(params)``, which ``Tape.rewind``
    keeps, so a training step binds once per recorded tape. (The
    A-distance probe trains without a tape, by ``train_domain_probe``.)"""
    grads = grads or {}
    return {name: tape.parameter(arr, grads.get(name)) for name, arr in params.items()}


def features(model: DartModel, ws: dict[str, Var], x: Var) -> Var:
    """The feature extractor of ``model`` applied to ``x``."""
    return mlp(x, ws, model.extractor_keys)


def source_probs(model: DartModel, ws: dict[str, Var], z: Var) -> Var:
    """Source-classifier probabilities of the logits ``z``: the softmax of
    ``z`` plus the residual perturbation, or of ``z`` alone without the
    residual block."""
    if not model.use_residual:
        return ad.softmax_rows(z)
    delta = mlp(z, ws, model.residual_keys)
    return ad.softmax_rows(ad.add(z, delta))


def domain_head(x: Var, params: dict[str, Var]) -> Var:
    """The DOMAIN_LAYERS discriminator: relu hidden layer, then a sigmoid
    output clamped inside the open interval (0, 1)."""
    return ad.sigmoid(mlp(x, params, DOMAIN_KEYS),
                      DOMAIN_PROB_EPS, 1.0 - DOMAIN_PROB_EPS)


def check_finite_parameters(params: dict[str, Tensor], when: str) -> None:
    """NumericError naming the first parameter that holds a non-finite
    value. Parameters are updated unscanned (bound on a tape, or by
    ``train_domain_probe``), so training and the probe call this after
    their last update, and ``forward_features`` before it binds."""
    for name, arr in params.items():
        if not np.isfinite(arr).all():
            raise NumericError(f"non-finite parameter {name!r} {when}")


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
    mask = y_pred.tape.constant(y_true)
    return ad.log_eps(y_pred, scale=-1.0 / y_true.shape[0], weight=mask)


def entropy_loss(y_pred: Var) -> Var:
    """Minibatch mean Shannon entropy of predicted class distributions."""
    return ad.log_eps(y_pred, scale=-1.0 / y_pred.shape[0], weight=y_pred)


def check_domain_probabilities(d: Tensor, side: str) -> None:
    """NumericError if a domain probability of ``side`` is not finite,
    ContractError unless every one lies strictly inside (0, 1), where the
    binary cross-entropy is finite."""
    # one min/max pass decides the range (a nan fails it too)
    if d.size == 0 or (0.0 < np.minimum.reduce(d, axis=None)
                       and np.maximum.reduce(d, axis=None) < 1.0):
        return
    if not np.isfinite(d).all():
        raise NumericError(f"domain probabilities for {side} are not finite")
    raise ContractError(
        f"domain probabilities for {side} must lie strictly in (0, 1)"
    )


def domain_loss(d_src: Var, d_tgt: Var) -> Var:
    """Binary cross-entropy with source labeled 1 and target labeled 0."""
    check_domain_probabilities(d_src.value, "source")
    check_domain_probabilities(d_tgt.value, "target")
    src_term = ad.log_eps(d_src, scale=-1.0 / d_src.value.shape[0])
    tgt_term = ad.log_eps(d_tgt, complement=True,
                          scale=-1.0 / d_tgt.value.shape[0])
    return ad.add(src_term, tgt_term)


def total_loss(ly: Var, lh: Var, ld: Var, alpha: float, beta: float) -> Var:
    # association matches the plain expression ly + alpha*lh + beta*ld
    return ad.add(ad.add(ly, ad.scalar_mul(lh, alpha)), ad.scalar_mul(ld, beta))


# ---------------------------------------------------------------------------
# The A-distance probe: domain_head trained by domain_loss, in closed form.
# Each numpy call restates a tape op's forward or backward rule, so the
# parameters get the tape's bits (test_probe_step_matches_tape_bit_for_bit)
# without a tape per step.


def train_domain_probe(params: dict[str, Tensor], x_src: Tensor, x_tgt: Tensor,
                       eta: float, steps: int) -> None:
    """``steps`` SGD steps, in place, of ``domain_loss`` on the
    DOMAIN_PARAMS of ``params`` for source rows ``x_src`` and target rows
    ``x_tgt``: each the bits of binding ``params`` on a tape, ``backward``
    and ``params[name] -= eta * grad``. The loss value is not computed and
    nothing is scanned: a parameter that turns non-finite is left for
    ``check_finite_parameters``.

    Every work array is made once and written with ``out=``. Elementwise
    ops run once over both domains' rows, source rows first; products and
    reductions run per domain, as on the tape, since a product over the
    merged rows does not give the same bits.
    """
    ns, nt = x_src.shape[0], x_tgt.shape[0]
    n, hidden = ns + nt, params[DOMAIN_PARAMS[1]].size
    shapes = [params[name].shape for name in DOMAIN_PARAMS]
    # the parameters are views of one flat vector, and each domain's
    # gradients views of a flat buffer laid out alike
    flat = np.concatenate([params[name].ravel() for name in DOMAIN_PARAMS])
    w1, b1, w2, b2 = flat_views(flat, shapes)
    g_src, g_tgt = np.empty_like(flat), np.empty_like(flat)
    a1, h, g1 = (np.empty((n, hidden)) for _ in range(3))
    relu_mask = np.empty((n, hidden), dtype=bool)
    a2, e, one_e, out, d, g, t = (np.empty((n, 1)) for _ in range(7))
    pos, inside = (np.empty((n, 1), dtype=bool) for _ in range(2))
    lo, hi = DOMAIN_PROB_EPS, 1.0 - DOMAIN_PROB_EPS
    # per domain: its rows of the work arrays and its gradient views
    rows = [(x_src, slice(0, ns), flat_views(g_src, shapes)),
            (x_tgt, slice(ns, n), flat_views(g_tgt, shapes))]
    layer1 = [(x, a1[r], g1[r], g_w1, g_b1) for x, r, (g_w1, g_b1, _, _) in rows]
    layer2 = [(h[r], a2[r], g[r], g1[r], g_w2, g_b2) for _, r, (_, _, g_w2, g_b2) in rows]
    for _ in range(steps):
        for x, a1_x, _, _, _ in layer1:
            np.dot(x, w1, out=a1_x)
        a1 += b1
        np.greater(a1, 0.0, out=relu_mask)
        np.maximum(a1, 0.0, out=h)
        for h_x, a2_x, _, _, _, _ in layer2:
            np.dot(h_x, w2, out=a2_x)
        a2 += b2
        # ad.sigmoid's two branches, from one 1 + e
        np.negative(a2, out=e)
        np.minimum(a2, e, out=e)
        np.exp(e, out=e)
        np.add(1.0, e, out=one_e)
        np.greater_equal(a2, 0, out=pos)
        np.divide(e, one_e, out=out)
        np.divide(1.0, one_e, out=out, where=pos)
        # ad.sigmoid's clamp and its mask. d = hi, where 1 - d < LOG_EPS,
        # only where out > hi (1 / (1 + e) never rounds to hi), and the mask
        # cuts those rows; elsewhere d and 1 - d are at or above LOG_EPS, so
        # the summed log_eps's rule (of 1 - d on the target side) is a
        # division of its -1/n scale, whose sign the complement flips. A
        # cut target row's zero gets the other sign than on the tape, which
        # no update sees: p - eta * (+-0.0) is p for every p but -0.0,
        # which no parameter starts at or reaches.
        np.maximum(lo, out, out=d)
        np.minimum(hi, d, out=d)
        np.equal(d, out, out=inside)
        np.divide(-1.0 / ns, d[:ns], out=g[:ns])
        np.subtract(1.0, d[ns:], out=g[ns:])
        np.divide(1.0 / nt, g[ns:], out=g[ns:])
        g *= inside
        g *= out
        np.subtract(1.0, out, out=t)
        g *= t
        for h_x, _, g_x, g1_x, g_w2, g_b2 in layer2:
            np.dot(h_x.T, g_x, out=g_w2)
            np.add.reduce(g_x, axis=0, out=g_b2)
            np.dot(g_x, w2.T, out=g1_x)
        g1 *= relu_mask
        for x, _, g1_x, g_w1, g_b1 in layer1:
            np.dot(x.T, g1_x, out=g_w1)
            np.add.reduce(g1_x, axis=0, out=g_b1)
        # backward reaches the target branch first and adds the source's
        flat -= eta * (g_tgt + g_src)
    for name, value in zip(DOMAIN_PARAMS, flat_views(flat, shapes)):
        params[name][...] = value


# ---------------------------------------------------------------------------
# Shared training graph (used by the train step and the gradient checker)


@dataclass
class TrainingGraph:
    """Holds the bound parameters and the loss Vars of one forward pass."""

    params: dict[str, Var]
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
    ws: dict[str, Var],
    xs: Tensor,
    ys: Tensor,
    xt: Tensor,
    lam: float,
    alpha: float,
    beta: float,
    harden_pseudo_labels: bool = False,
) -> TrainingGraph:
    """One full forward pass over a source/target minibatch pair, on the
    tape the caller bound ``model``'s parameters ``ws`` on (``bind``).

    The source-side fusion pairs features with the true one-hot labels;
    the target side pairs features with the predicted class distribution
    (the pseudo-label), which stays differentiable unless
    ``harden_pseudo_labels`` replaces it with its one-hot argmax, a
    constant that cuts its gradient.
    """
    tape = next(iter(ws.values())).tape
    xs_v = tape.constant(xs)
    xt_v = tape.constant(xt)

    fs = features(model, ws, xs_v)
    ft = features(model, ws, xt_v)
    zs = mlp(fs, ws, model.bottleneck_keys)
    zt = mlp(ft, ws, model.bottleneck_keys)
    ys_pred = source_probs(model, ws, zs)
    yt_pred = ad.softmax_rows(zt)

    if model.domain_on_joint:
        ys_v = tape.constant(ys)
        fused_src = ad.kron_rows(fs, ys_v)
        y_for_fusion = yt_pred
        if harden_pseudo_labels:
            hard = ad.one_hot(np.argmax(yt_pred.value, axis=1), model.class_count)
            y_for_fusion = tape.constant(hard)
        fused_tgt = ad.kron_rows(ft, y_for_fusion)
    else:
        # marginal alignment: the fusion is never built
        fused_src = fs
        fused_tgt = ft

    d_src = domain_head(ad.gradient_reversal(fused_src, lam), ws)
    d_tgt = domain_head(ad.gradient_reversal(fused_tgt, lam), ws)

    ly = classification_loss(ys_pred, ys)
    lh = entropy_loss(yt_pred)
    ld = domain_loss(d_src, d_tgt)
    total = total_loss(ly, lh, ld, alpha, beta)
    return TrainingGraph(ws, ly, lh, ld, total,
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
    check_finite_parameters(model.parameters(), "in the evaluated model")
    tape = Tape()
    ws = bind(model.parameters(), tape)
    f = features(model, ws, tape.variable(x))
    z = mlp(f, ws, model.bottleneck_keys)
    return f.value, ad.softmax_rows(z).value, source_probs(model, ws, z).value


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
    if kind is bool and text not in ("0", "1"):
        raise DataFormatError(f"a flag must be 0 or 1, got {text!r}")
    return kind(int(text))


def _param_header(name: str, arr: Tensor) -> str:
    return f"param {name} {' '.join(str(s) for s in arr.shape)}"


def save_checkpoint(model: DartModel, path) -> None:
    """Writes each line as soon as it is formatted, so the text is never
    held whole."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(CHECKPOINT_HEADER + "\n")
        for key in ARCHITECTURE:
            fh.write(f"meta {key} {_format_meta(getattr(model, key))}\n")
        for name, arr in model.parameters().items():
            fh.write(_param_header(name, arr) + "\n")
            # one text row per weight row; a bias is a single row
            for row in arr.reshape(-1, arr.shape[-1]):
                fh.write(" ".join(map(repr, row.tolist())) + "\n")
        fh.write("end\n")


def load_checkpoint(path) -> DartModel:
    """Reads a checkpoint; malformed content of any kind raises a
    DataFormatError naming the file (OSError still signals an unreadable
    file). Widths too large to allocate count as malformed. Lines end in
    ``\\n`` or ``\\r\\n`` and are parsed one at a time as they are read."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return _parse_checkpoint(line.rstrip("\n") for line in fh)
    except (ContractError, DataFormatError, LookupError, MemoryError,
            ValueError) as exc:
        raise DataFormatError(
            f"malformed checkpoint {path}: {type(exc).__name__}: {exc}"
        ) from exc


def _parse_checkpoint(lines) -> DartModel:
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
            vals = list(map(float, next(rest, "").split()))
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
