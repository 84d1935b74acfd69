"""Dense tensors with reverse-mode automatic differentiation.

Tensors are plain ``numpy.ndarray`` values in double precision, row-major.
Differentiable computations are recorded on a :class:`Tape`: every value
(leaf or intermediate) gets a monotonically increasing integer id and a
:class:`Var` that carries the value, and each non-leaf node stores its
parent ids plus a closure that maps the upstream gradient to per-parent
gradients. Ops and rules call numpy's ufuncs and their ``reduce`` rather
than the ndarray methods that wrap them (``.sum``, ``.max``), with the
same bits and less overhead per node. :func:`backward` replays the nodes in
strict reverse registration order, accumulating gradients additively over
fan-out in one record on the tape, a list indexed by id, and returns a
gradient for every leaf (a parameter's can go to a destination array given
at registration, with the same bits). Leaves registered with
:meth:`Tape.constant` (inputs, labels, masks) need no gradient: theirs is
reported as zero, and :func:`matmul`, :func:`kron_rows` and
:func:`multiply` skip the products that would only feed one. Three ops
have fused forms, each one node with the bits of the ops it stands for
(which stay ops of their own): :func:`matmul` takes an optional bias and
an optional output ReLU (:func:`add_bias`, then :func:`relu`),
:func:`sigmoid` optional bounds (then :func:`clamp`), and :func:`log_eps`
a complement flag (of :func:`subtract` from ones) and summed forms, each
a whole loss term: ``scale`` times the sum of the logs (of
:func:`sum_all`, then :func:`scalar_mul`), weighted by a constant mask or
by x itself (of :func:`multiply` first). So a ``full`` training step
records 30 nodes and 18 leaves, and its backward runs 30 rules (12 for
``source_only``, 29 at ``alpha=0``, 17 at ``beta=0``). A rule
returns None for a gradient that is structurally zero (a constant parent,
or a :func:`scalar_mul` scale of exactly 0), and backward adds nothing for
it: what only such a gradient reaches is never differentiated, and a leaf
left without one gets zeros. Where the dense products are finite their
bytes hold: each skipped one is a signed zero, adding a zero to a nonzero
sum is exact, and a sum of zeros moves only the sign of a zero, which
``p - eta * g`` drops for every ``p`` but -0.0, and no update from +0.0
biases and finite weights makes -0.0. (A dense ``0 * inf`` would be nan; the
skipped product is not computed.)
Constants and leaves registered with :meth:`Tape.parameter` (model
parameters) skip the finiteness scan that :meth:`Tape.variable` makes:
their owner checks them where they enter (``Dataset`` its samples, the
model its parameters) and after training, and a non-finite value derived
from them reaches the loss check.

Record once, replay: a tape built for a fixed graph can run it again on
new inputs without being rebuilt. Each op of a training step writes its
forward pass with ``out=`` into arrays it makes when it is recorded, and
saves them on the tape with its rule; its rule reads the operands it needs
from ``Tape.values`` when it runs. After :meth:`Tape.rewind` the caller
calls the same ops on the same tape in the same order: each op runs the
same forward arithmetic into its saved arrays, refills the scalars its
rule reads (a :func:`scalar_mul` or summed :func:`log_eps` scale, a
:func:`gradient_reversal` coefficient), and :meth:`Tape.register` hands
back its recorded id with the recorded rule, so :func:`backward` reruns
the recorded nodes; ``rewind(start)`` keeps the parameter leaves below
``start``. The replay contract, each part one compare per registration
or rewind, refused with ContractError:

* an op checks its tag (one per op and one per form) and its parent ids
  against those it saved, so it never runs another op's rule or the
  recorded rule on other operands; operand shapes are checked when an op
  records, and a replay keeps every id's shape;
* a leaf checks its kind, parameter or constant, and its shape against
  the recorded leaf's, so it never lands on an op's id and never changes
  which ids are constants;
* :func:`backward` checks that the replay registered the whole record;
* :meth:`Tape.rewind` keeps only parameter leaves of the record.

A leaf takes the array it is given. A value registered with
:meth:`Tape.register` that is not the recorded array (a node made without
an op) replaces the recorded value, parents and rule.
``training.train_step`` records the first step of a run, parameters first,
and replays it past them on every later step whose batch has the recorded
shapes. The A-distance probe trains without a tape:
``dart.model.train_domain_probe`` repeats the forward ops and backward
rules of matmul (with its bias and ReLU), sigmoid (with its bounds) and
log_eps (of d and of 1 - d) for its fixed network, and a tier-1 test pins
it to their bits.

Beyond the usual arithmetic this module provides the two operators the rest
of the system is built around:

* :func:`gradient_reversal`: identity in the forward pass; multiplies the
  upstream gradient by ``-lam`` in the backward pass, which turns gradient
  descent on the downstream loss into adversarial ascent for everything
  upstream of the layer.
* :func:`kron_rows`: the row-wise Kronecker product fusing a feature row
  with a class-distribution row into a single joint-representation row.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, NoReturn, Sequence

import numpy as np

from .errors import ContractError, ShapeError

Tensor = np.ndarray

# The most float64 entries one array can hold: numpy indexes bytes with intp.
MAX_ENTRIES = np.iinfo(np.intp).max // 8

# Floor of log_eps; keeps logarithms of saturated probabilities finite.
LOG_EPS = 1e-12


def one_hot(indices: Sequence[int], num_classes: int) -> Tensor:
    """One-hot rows, one per index, exact 0.0/1.0 entries."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= num_classes):
        raise ContractError(
            f"one_hot index out of range for {num_classes} classes"
        )
    out = np.zeros((idx.size, num_classes), dtype=np.float64)
    out[np.arange(idx.size), idx] = 1.0
    return out


def is_one_hot(y: Tensor) -> bool:
    """True when ``y`` is 2-d with exactly one 1.0 per row and 0.0 elsewhere."""
    if y.ndim != 2:
        return False
    # every entry 0.0 or 1.0, so each row sum is exact and must be 1.0
    return bool(
        np.count_nonzero(y == 1.0) + np.count_nonzero(y == 0.0) == y.size
        and np.count_nonzero(np.dot(y, np.ones(y.shape[1])) == 1.0) == len(y))


BackwardRule = Callable[[np.ndarray], tuple]

# What ``Tape.saved`` holds on the id of a constant leaf and of a node
# registered without an op; a tag and no parents, as an op's record starts.
CONSTANT = ("constant", ())
REGISTERED = ("register", ())


class Var:
    """Handle to a value registered on a tape: ``tape.values[vid]``."""

    __slots__ = ("tape", "vid", "value")

    def __init__(self, tape: "Tape", vid: int, value: Tensor):
        self.tape = tape
        self.vid = vid
        self.value = value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Var(vid={self.vid}, shape={self.shape})"


class Tape:
    """Reverse-mode differentiation record.

    ``values[i]`` holds the tensor for id ``i``; ``nodes`` holds, for each
    non-leaf id, the tuple ``(vid, parent_vids, backward_rule)``;
    ``leaves`` holds the leaf ids in registration order and ``constants``
    those that need no gradient. Three more lists are indexed by id, None
    where they hold nothing: ``grad_out`` the gradient destination of a
    leaf registered with one, ``grads`` the gradient so far of each id the
    current (or last) :func:`backward` has reached, and ``saved`` what the
    op registered on each id saved for a replay: its tag, its parent ids,
    its rule and the arrays its forward writes; on a leaf's id its kind,
    CONSTANT or None for a parameter; REGISTERED on a node registered
    without an op. ``pos`` is the id the next registration gets: the
    tape's length while it records, less while it replays (see
    :meth:`rewind`); ``saved`` has an entry for it either way, which an op
    that records fills before it registers. Parents always precede their
    node in registration order, so the record is topologically sorted by
    construction. A tape and its tensors belong to a single thread for the
    duration of a forward/backward pass.
    """

    __slots__ = ("values", "nodes", "leaves", "constants", "grad_out", "grads",
                 "saved", "pos", "__weakref__")

    def __init__(self):
        self.values: list[Tensor] = []
        self.nodes: list[tuple[int, tuple[int, ...], BackwardRule]] = []
        self.leaves: list[int] = []
        self.constants: set[int] = set()
        self.grad_out: list[Tensor | None] = []
        self.grads: list[Tensor | None] = []
        self.saved: list[tuple | None] = [None]
        self.pos = 0

    def rewind(self, start: int = 0) -> None:
        """Starts a replay: the next registrations get the recorded ids
        again, in order, from ``start``; the ids below it keep their leaves,
        arrays and gradient destinations, so each must be a parameter leaf
        (a kept constant or op would keep its last value; ContractError, as
        for a ``start`` outside the record). The caller registers the rest of
        the recorded graph again: leaves of the recorded kinds and shapes
        and the same ops in the same order on the same parents, up to the
        end of the record before it calls :func:`backward`."""
        kept = self.saved[:start]
        if not 0 <= start <= len(self.values):
            raise ContractError(
                f"rewind to id {start}, outside the {len(self.values)} recorded")
        if kept.count(None) != start:
            vid = next(i for i, saved in enumerate(kept) if saved is not None)
            raise ContractError(f"rewind to id {start} keeps id {vid}, recorded "
                                f"as {kept[vid][0]}, not a parameter")
        self.pos = start

    def _append(self, value: Tensor) -> None:
        self.values.append(value)
        self.grad_out.append(None)
        self.grads.append(None)
        self.saved.append(None)

    def parameter(self, arr: Tensor, grad_out: Tensor | None = None,
                  kind: tuple | None = None) -> Var:
        """Register a float64 array as a leaf as given: no copy and no
        finiteness scan; backward computes its gradient, into ``grad_out``
        (a float64 array of the same shape) when given: a matmul (for its
        weight or bias) or an add_bias computes the first contribution
        there, and later ones add in place. ``kind`` is None for a
        parameter and CONSTANT for a constant (:meth:`constant` passes it).
        While the tape replays, the array takes the recorded leaf's place;
        a leaf of another kind or shape than the recorded one, or on an op's
        id, is refused (ContractError): ``saved`` holds a leaf's kind."""
        vid, values = self.pos, self.values
        if vid < len(values):
            recorded = self.saved[vid]
            if recorded is not kind:
                raise ContractError(
                    f"replayed {'parameter' if kind is None else kind[0]} on "
                    f"id {vid}, recorded as "
                    f"{'parameter' if recorded is None else recorded[0]}")
            if arr is not values[vid] and arr.shape != values[vid].shape:
                raise ContractError(
                    f"replayed leaf {vid} has shape {arr.shape}, "
                    f"recorded {values[vid].shape}")
            values[vid] = arr
        else:
            self._append(arr)
            self.leaves.append(vid)
            if kind is not None:
                self.saved[vid] = kind
                self.constants.add(vid)
        self.grad_out[vid] = grad_out
        self.pos = vid + 1
        return Var(self, vid, arr)

    def variable(self, value) -> Var:
        """Register a leaf value, which must be finite; backward computes
        its gradient."""
        arr = np.asarray(value, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise ContractError("variable value must be finite")
        return self.parameter(arr)

    def constant(self, value) -> Var:
        """Register a float64 leaf that needs no gradient (an input, label
        or mask) without a finiteness scan; backward reports zeros for it."""
        return self.parameter(np.asarray(value, dtype=np.float64), None, CONSTANT)

    def register(self, value: Tensor, parents: tuple[int, ...],
                 rule: BackwardRule) -> Var:
        """Register an operation result with its backward rule. While the
        tape replays, the recorded node stays as it is if ``value`` is the
        recorded array (an op wrote its forward into it); any other value of
        the recorded shape replaces the recorded one, and ``rule`` and
        ``parents`` the recorded ones. A node registered here, not by an op,
        saves REGISTERED, so no leaf and no op replays on its id. An op
        replayed on an id recorded as a leaf is refused (ContractError), as
        is one replayed on another op's record, by the op's own check."""
        vid, values = self.pos, self.values
        if vid == len(values):
            self._append(value)
            self.nodes.append((vid, parents, rule))
            if self.saved[vid] is None:
                self.saved[vid] = REGISTERED
        elif value is not values[vid]:
            nodes = self.nodes
            i = bisect_left(nodes, (vid,))
            if i == len(nodes) or nodes[i][0] != vid:
                # an op saved its record over the leaf's kind: restore it
                self.saved[vid] = CONSTANT if vid in self.constants else None
                raise ContractError(
                    f"replayed op on id {vid}, which was recorded as a leaf")
            if value.shape != values[vid].shape:
                raise ContractError(
                    f"replayed node {vid} has shape {value.shape}, "
                    f"recorded {values[vid].shape}")
            values[vid] = value
            nodes[i] = (vid, parents, rule)
        self.pos = vid + 1
        return Var(self, vid, value)


def backward(tape: Tape, loss: Var) -> dict[int, Tensor]:
    """Gradient of a scalar loss w.r.t. every leaf of the tape, by id.

    The seed gradient at the loss is 1; fan-out accumulates additively in
    ``tape.grads``, which backward clears when it starts and in which it
    drops a node's entry when the node's rule runs. Leaves the loss does
    not depend on, constants, and leaves reached only through a rule's None
    get zero gradients. A leaf with a gradient destination gets it back,
    filled in place with the bits of the fresh-array path. The one
    invariant: the leaf's entry in ``grads`` is not None exactly when a
    contribution has reached it. So a matmul computes its weight's gradient
    into the destination when the entry is None (``np.dot(xv.T, g,
    out=dest)``), and a matmul or an add_bias its bias's, each later
    contribution is added in place (``np.add(prev, pg, out)`` is
    ``prev + pg``), a single one from another op is copied in, and none
    gives zeros.
    """
    loss_value = loss.value
    if loss_value.size != 1 or loss_value.ndim > 1:
        raise ContractError(
            f"backward requires a scalar loss, got shape {loss_value.shape}"
        )
    if tape.pos != len(tape.values):
        raise ContractError(
            f"backward on a tape replayed up to id {tape.pos} of the "
            f"{len(tape.values)} it recorded")
    grads, constants, grad_out = tape.grads, tape.constants, tape.grad_out
    grads[:] = [None] * len(grads)
    grads[loss.vid] = np.ones(loss_value.shape)
    for vid, parents, rule in reversed(tape.nodes):
        g = grads[vid]
        if g is None:
            continue
        grads[vid] = None  # a node is never a leaf: its gradient is spent
        for pid, pg in zip(parents, rule(g)):
            if pg is None or pid in constants:
                continue
            prev = grads[pid]
            grads[pid] = pg if prev is None else np.add(prev, pg, grad_out[pid])
    values, leaf_grads = tape.values, {}
    for vid in tape.leaves:
        g, out = grads[vid], grad_out[vid]
        if out is not None and g is not out:
            out[...] = 0.0 if g is None else g
            grads[vid] = g = out
        leaf_grads[vid] = np.zeros(values[vid].shape) if g is None else np.asarray(g)
    return leaf_grads


# ---------------------------------------------------------------------------
# Operations. Each op of a training step runs one forward, into arrays it
# makes and saves while the tape records (``saved`` is None) and gets back
# while it replays; a rule holds the tape's lists, never the tape: a tape ->
# node -> rule -> tape cycle would keep every step's tape alive until a gc
# pass. A binary op checks inline that its operands share a tape: a helper
# call per op was about 1% of a replayed step.
#
# What an op saves starts with its tag, one per op and one per form, and
# its parent ids. A replayed op compares both with its own in one test and
# refuses another record: its rule would read the wrong arrays, or
# differentiate another function with no error. The operands' shapes are
# checked only while an op records. A replay keeps every id's shape: a leaf
# is checked as it enters, and an op writes its saved arrays, so equal
# parents are operands of the recorded shapes.
_MATMUL, _MATMUL_RELU = "matmul", "matmul with relu"
_MATMUL_BIAS, _MATMUL_BIAS_RELU = "matmul with bias", "matmul with bias and relu"
_RELU, _SOFTMAX_ROWS = "relu", "softmax_rows"
_SIGMOID, _SIGMOID_CLAMP = "sigmoid", "sigmoid with clamp"
_GRADIENT_REVERSAL, _KRON_ROWS = "gradient_reversal", "kron_rows"
# log_eps' tags by (complement, kind: None for the elementwise form)
_LOG_EPS_FORMS = {(c, kind): "log_eps" + " of 1 - x" * c + suffix
                  for c in (False, True) for kind, suffix in (
                      (None, ""), ("sum", " summed"),
                      ("mask", " summed with a mask"), ("x", " summed with x"))}
_ADD, _SUBTRACT, _MULTIPLY = "add", "subtract", "multiply"
_SCALAR_MUL, _ADD_BIAS, _MEAN_ROWS = "scalar_mul", "add_bias", "mean_rows"
_SUM_ALL, _CLAMP = "sum_all", "clamp"


def _refuse_replay(tape: Tape, tag: str, parents: tuple[int, ...]) -> NoReturn:
    recorded = tape.saved[tape.pos]
    raise ContractError(
        f"replayed {tag} on id {tape.pos}, recorded as {recorded[0]}; "
        f"parents {parents}, recorded {recorded[1]}")


def matmul(x: Var, w: Var, bias: Var | None = None, relu: bool = False) -> Var:
    """``x @ w``; with ``bias`` the bias row added to every row, and with
    ``relu`` then max(., 0): a dense layer in one node. The value and the
    gradients have the bits of ``relu(add_bias(matmul(x, w), bias))``, the
    same numpy calls in the same order, and its rule computes the weight's
    and the bias's first gradient into their destinations, as those ops'
    rules do."""
    tape = x.tape
    if w.tape is not tape or bias is not None and bias.tape is not tape:
        raise ContractError("operands live on different tapes")
    xv, wv = x.value, w.value
    if bias is None:
        form = _MATMUL_RELU if relu else _MATMUL
        parents = x.vid, w.vid
    else:
        form = _MATMUL_BIAS_RELU if relu else _MATMUL_BIAS
        parents = x.vid, w.vid, bias.vid
    saved = tape.saved[tape.pos]
    if saved is None:
        if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0]:
            raise ShapeError(
                f"matmul shapes incompatible: {xv.shape} x {wv.shape}"
            )
        if bias is not None and (bias.value.ndim != 1
                                 or bias.value.shape[0] != wv.shape[1]):
            raise ShapeError(f"matmul bias {bias.value.shape} does not fit "
                             f"{xv.shape} x {wv.shape}")
        x_vid, w_vid, x_const = x.vid, w.vid, x.vid in tape.constants
        b_vid = None if bias is None else bias.vid
        values, dests, grads = tape.values, tape.grad_out, tape.grads
        out = np.empty((xv.shape[0], wv.shape[1]))
        mask = np.empty(out.shape, dtype=bool) if relu else None

        # np.dot gives @'s bits here, and is faster on a k=1 outer product;
        # a first gradient goes straight into its leaf's destination
        def rule(g):
            if relu:
                g = g * mask
            gx = None if x_const else np.dot(g, values[w_vid].T)
            gw = np.dot(values[x_vid].T, g,
                        out=dests[w_vid] if grads[w_vid] is None else None)
            if b_vid is None:
                return gx, gw
            return gx, gw, np.add.reduce(
                g, axis=0, out=dests[b_vid] if grads[b_vid] is None else None)

        saved = tape.saved[tape.pos] = form, parents, rule, out, mask
    elif saved[0] is not form or saved[1] != parents:
        _refuse_replay(tape, form, parents)
    _, _, rule, out, mask = saved
    np.dot(xv, wv, out=out)
    if bias is not None:
        np.add(out, bias.value, out=out)
    if relu:
        # gradient passes where the input is strictly positive
        np.greater(out, 0.0, out=mask)
        np.maximum(out, 0.0, out=out)
    return tape.register(out, parents, rule)


def relu(x: Var) -> Var:
    tape, xv, parents = x.tape, x.value, (x.vid,)
    saved = tape.saved[tape.pos]
    if saved is None:
        mask = np.empty(xv.shape, dtype=bool)

        def rule(g, mask=mask):
            return (g * mask,)

        saved = tape.saved[tape.pos] = (_RELU, parents, rule,
                                        np.empty(xv.shape), mask)
    elif saved[0] is not _RELU or saved[1] != parents:
        _refuse_replay(tape, _RELU, parents)
    _, _, rule, out, mask = saved
    # Gradient passes where the input is strictly positive.
    np.greater(xv, 0.0, out=mask)
    np.maximum(xv, 0.0, out=out)
    return tape.register(out, parents, rule)


def softmax_rows(z: Var) -> Var:
    tape, zv, parents = z.tape, z.value, (z.vid,)
    saved = tape.saved[tape.pos]
    if saved is None:
        if zv.ndim != 2 or zv.shape[1] < 1:
            raise ShapeError(f"softmax_rows needs a 2-d input, got {zv.shape}")
        s = np.empty(zv.shape)

        def rule(g, s=s):
            return (s * (g - np.add.reduce(g * s, axis=1, keepdims=True)),)

        saved = tape.saved[tape.pos] = (_SOFTMAX_ROWS, parents, rule, s,
                                        np.empty((zv.shape[0], 1)))
    elif saved[0] is not _SOFTMAX_ROWS or saved[1] != parents:
        _refuse_replay(tape, _SOFTMAX_ROWS, parents)
    _, _, rule, s, row = saved
    np.maximum.reduce(zv, axis=1, keepdims=True, out=row)
    np.subtract(zv, row, out=s)
    np.exp(s, out=s)
    np.add.reduce(s, axis=1, keepdims=True, out=row)
    np.divide(s, row, out=s)
    return tape.register(s, parents, rule)


def sigmoid(x: Var, lo: float | None = None, hi: float | None = None) -> Var:
    """Elementwise logistic function; given ``lo`` and ``hi``, then clipped
    to [lo, hi] in the same node, with the bits of
    ``clamp(sigmoid(x), lo, hi)``: the same numpy calls in the same order,
    and a rule that masks the upstream gradient as clamp's does."""
    tape, xv, parents = x.tape, x.value, (x.vid,)
    form = _SIGMOID if lo is None else _SIGMOID_CLAMP
    saved = tape.saved[tape.pos]
    if saved is None:
        shape = xv.shape
        out = np.empty(shape)
        d, mask = (out, None) if lo is None else (
            np.empty(shape), np.empty(shape, dtype=bool))

        def rule(g):
            if mask is not None:
                g = g * mask
            return (g * out * (1.0 - out),)

        saved = tape.saved[tape.pos] = (form, parents, rule, d, out, mask,
                                        np.empty(shape),
                                        np.empty(shape, dtype=bool))
    elif saved[0] is not form or saved[1] != parents:
        _refuse_replay(tape, form, parents)
    _, _, rule, d, out, mask, one_e, pos = saved
    # e = exp(-|x|), built in out, never overflows; e/(1+e), then 1/(1+e)
    # where x >= 0, are the usual two branches, bit for bit (minimum keeps
    # a nan's sign). Writing to out keeps a 0-d x's result a 0-d array.
    np.negative(xv, out=out)
    np.minimum(xv, out, out=out)
    np.exp(out, out=out)
    np.add(1.0, out, out=one_e)
    np.divide(out, one_e, out=out)
    np.greater_equal(xv, 0, out=pos)
    np.divide(1.0, one_e, out=out, where=pos)
    if mask is not None:
        # clamp's calls on out
        np.maximum(lo, out, out=d)
        np.minimum(hi, d, out=d)
        np.equal(d, out, out=mask)
    return tape.register(d, parents, rule)


def gradient_reversal(x: Var, lam: float) -> Var:
    """Identity forward; backward replaces the upstream gradient g by -lam*g.

    ``lam`` is a per-call coefficient, not a stored weight, so a schedule
    can vary it every step without rebuilding anything: a replay refills
    the cell the rule reads it from.
    """
    if lam < 0:
        raise ContractError(f"gradient_reversal needs lam >= 0, got {lam}")
    tape, parents = x.tape, (x.vid,)
    saved = tape.saved[tape.pos]
    if saved is None:
        neg = [0.0]

        def rule(g, neg=neg):
            return (neg[0] * g,)

        saved = tape.saved[tape.pos] = _GRADIENT_REVERSAL, parents, rule, neg
    elif saved[0] is not _GRADIENT_REVERSAL or saved[1] != parents:
        _refuse_replay(tape, _GRADIENT_REVERSAL, parents)
    saved[3][0] = -float(lam)
    # Forward output shares storage with the input: bitwise identical.
    return tape.register(x.value, parents, saved[2])


def kron_rows(f: Var, y: Var) -> Var:
    """Row-wise Kronecker product: out[i, a*c + b] = f[i, a] * y[i, b].

    Feature-major ordering: each feature entry contributes a contiguous
    block of c entries. Gradients flow to both operands unless one is a
    constant.
    """
    tape = f.tape
    if y.tape is not tape:
        raise ContractError("operands live on different tapes")
    fv, yv, parents = f.value, y.value, (f.vid, y.vid)
    saved = tape.saved[tape.pos]
    if saved is None:
        if fv.ndim != 2 or yv.ndim != 2 or fv.shape[0] != yv.shape[0]:
            raise ShapeError(
                f"kron_rows row counts disagree: {fv.shape} vs {yv.shape}"
            )
        n, m = fv.shape
        c = yv.shape[1]
        f_vid, y_vid, values = f.vid, y.vid, tape.values
        f_const, y_const = f_vid in tape.constants, y_vid in tape.constants
        # A sum laid out with its axis first adds whole (n, .) slices in
        # order, with the bits of numpy's reduce over a strided axis or a
        # contiguous one shorter than 8 (it sums 8 or more pairwise), and
        # runs faster. So gf is laid out that way when c < 8 and gy unless
        # c == 1 (its axis is then contiguous); else they keep the reduce.
        by_c = np.empty((c, n, m)) if c < 8 else None
        by_m = np.empty((m, n, c)) if c > 1 else None

        def rule(g):
            g3, fv, yv = g.reshape(n, m, c), values[f_vid], values[y_vid]
            if f_const:
                gf = None
            elif by_c is None:
                gf = np.add.reduce(g3 * yv[:, None, :], axis=2)
            else:
                gf = np.add.reduce(np.multiply(
                    g3.transpose(2, 0, 1), yv.T[:, :, None], out=by_c), axis=0)
            if y_const:
                gy = None
            elif by_m is None:
                gy = np.add.reduce(g3 * fv[:, :, None], axis=1)
            else:
                gy = np.add.reduce(np.multiply(
                    g3.transpose(1, 0, 2), fv.T[:, :, None], out=by_m), axis=0)
            return gf, gy

        out = np.empty((n, m * c))
        saved = tape.saved[tape.pos] = (_KRON_ROWS, parents, rule, out,
                                        out.reshape(n, m, c))
    elif saved[0] is not _KRON_ROWS or saved[1] != parents:
        _refuse_replay(tape, _KRON_ROWS, parents)
    np.multiply(fv[:, :, None], yv[:, None, :], out=saved[4])
    return tape.register(saved[3], parents, saved[2])


def log_eps(x: Var, complement: bool = False, scale: float | None = None,
            weight: Var | None = None) -> Var:
    """Elementwise ln(max(x, LOG_EPS)) for nonnegative x; with
    ``complement``, of 1 - x for x <= 1, in one node with the bits of
    ``log_eps(subtract(ones, x))``: ``np.subtract(1.0, x)`` first, and a
    rule that negates the plain one's.

    Given ``scale``, the summed form: ``scale * sum(weight * log)`` as one
    0-d node, where ``weight`` is None, a constant (a label mask) or x.
    It has the bits of ``scalar_mul(sum_all(.), scale)`` of the logs, of
    ``multiply(log_eps(x), mask)`` or of ``multiply(x, log_eps(x))``: the
    same numpy calls in the same order, and a rule that forms what those
    ops' rules and backward's sums form. A scale of 0 is differentiated
    like any other: only :func:`scalar_mul` skips the branch it weights 0.
    A replay refills the cell the rule reads the scale from.

    The gradient is 1/x (of 1 - x) where that is >= LOG_EPS and 0 below,
    so saturated entries neither explode nor propagate.
    """
    tape, xv = x.tape, x.value
    if weight is None:
        kind, parents = (None if scale is None else "sum"), (x.vid,)
    elif weight.tape is not tape:
        raise ContractError("operands live on different tapes")
    else:
        kind = "x" if weight.vid == x.vid else "mask"
        parents = (x.vid,) if kind == "x" else (x.vid, weight.vid)
    form = _LOG_EPS_FORMS[complement, kind]
    saved = tape.saved[tape.pos]
    if saved is None:
        if (kind is not None and scale is None
                or kind == "mask" and weight.vid not in tape.constants):
            raise ContractError("a log_eps weight is x or a constant, with a scale")
        if kind == "mask" and weight.value.shape != xv.shape:
            raise ShapeError(
                f"log_eps weight {weight.value.shape} does not fit {xv.shape}")
        x_vid, values, shape = x.vid, tape.values, xv.shape
        clamped, logs = np.empty(shape), np.empty(shape)
        t = np.empty(shape) if complement else None
        cell = [0.0]

        def rule(g):
            if kind is not None:
                g = cell[0] * g  # sum_all's gradient, s * g in every entry
                if kind == "mask":
                    g = g * values[parents[1]]
            gx = g * values[x_vid] if kind == "x" else g
            gx = np.where((t if complement else values[x_vid]) >= LOG_EPS,
                          gx / clamped, 0.0)
            if complement:
                gx = np.negative(gx)
            if kind == "x":  # multiply's gradient for x, then the log's
                gx = np.add(g * logs, gx)
            return (gx, None) if kind == "mask" else (gx,)

        out = logs if kind is None else np.empty(())
        terms = np.empty(shape) if kind in ("mask", "x") else logs
        saved = tape.saved[tape.pos] = (form, parents, rule, out, clamped, t,
                                        logs, terms, cell)
    elif saved[0] is not form or saved[1] != parents:
        _refuse_replay(tape, form, parents)
    _, _, rule, out, clamped, t, logs, terms, cell = saved
    if t is not None:
        xv = np.subtract(1.0, xv, out=t)
    np.maximum(xv, LOG_EPS, out=clamped)
    np.log(clamped, out=logs)
    if kind is not None:
        if kind == "mask":
            np.multiply(logs, weight.value, out=terms)
        elif kind == "x":
            np.multiply(x.value, logs, out=terms)
        np.add.reduce(terms, axis=None, out=out)
        cell[0] = s = float(scale)
        np.multiply(s, out, out=out)
    return tape.register(out, parents, rule)


def add(a: Var, b: Var) -> Var:
    tape = a.tape
    if b.tape is not tape:
        raise ContractError("operands live on different tapes")
    av, bv, parents = a.value, b.value, (a.vid, b.vid)
    saved = tape.saved[tape.pos]
    if saved is None:
        if av.shape != bv.shape:
            raise ShapeError(f"add shapes disagree: {av.shape} vs {bv.shape}")

        def rule(g):
            return g, g

        saved = tape.saved[tape.pos] = _ADD, parents, rule, np.empty(av.shape)
    elif saved[0] is not _ADD or saved[1] != parents:
        _refuse_replay(tape, _ADD, parents)
    np.add(av, bv, out=saved[3])
    return tape.register(saved[3], parents, saved[2])


def subtract(a: Var, b: Var) -> Var:
    tape = a.tape
    if b.tape is not tape:
        raise ContractError("operands live on different tapes")
    av, bv, parents = a.value, b.value, (a.vid, b.vid)
    saved = tape.saved[tape.pos]
    if saved is None:
        if av.shape != bv.shape:
            raise ShapeError(f"subtract shapes disagree: {av.shape} vs {bv.shape}")

        def rule(g):
            return g, -g

        saved = tape.saved[tape.pos] = _SUBTRACT, parents, rule, np.empty(av.shape)
    elif saved[0] is not _SUBTRACT or saved[1] != parents:
        _refuse_replay(tape, _SUBTRACT, parents)
    np.subtract(av, bv, out=saved[3])
    return tape.register(saved[3], parents, saved[2])


def multiply(a: Var, b: Var) -> Var:
    tape = a.tape
    if b.tape is not tape:
        raise ContractError("operands live on different tapes")
    av, bv, parents = a.value, b.value, (a.vid, b.vid)
    saved = tape.saved[tape.pos]
    if saved is None:
        if av.shape != bv.shape:
            raise ShapeError(f"multiply shapes disagree: {av.shape} vs {bv.shape}")
        a_vid, b_vid, values = a.vid, b.vid, tape.values
        a_const, b_const = a_vid in tape.constants, b_vid in tape.constants

        def rule(g):
            return (None if a_const else g * values[b_vid],
                    None if b_const else g * values[a_vid])

        saved = tape.saved[tape.pos] = _MULTIPLY, parents, rule, np.empty(av.shape)
    elif saved[0] is not _MULTIPLY or saved[1] != parents:
        _refuse_replay(tape, _MULTIPLY, parents)
    np.multiply(av, bv, out=saved[3])
    return tape.register(saved[3], parents, saved[2])


def scalar_mul(x: Var, s: float) -> Var:
    """``s * x``. A scale of exactly 0 (either sign) sends back no gradient
    (None), so :func:`backward` never differentiates what only this node
    reaches: a loss term weighted 0 costs its forward pass alone. A replay
    refills the cell the rule reads the scale from."""
    tape, xv, parents = x.tape, x.value, (x.vid,)
    saved = tape.saved[tape.pos]
    if saved is None:
        scale = [0.0]

        def rule(g, scale=scale):
            s = scale[0]
            return (s * g,) if s else (None,)

        saved = tape.saved[tape.pos] = (_SCALAR_MUL, parents, rule,
                                        np.empty(xv.shape), scale)
    elif saved[0] is not _SCALAR_MUL or saved[1] != parents:
        _refuse_replay(tape, _SCALAR_MUL, parents)
    _, _, rule, out, scale = saved
    scale[0] = s = float(s)
    np.multiply(s, xv, out=out)
    return tape.register(out, parents, rule)


def add_bias(x: Var, bias: Var) -> Var:
    """Broadcast-add a bias row to every row of a 2-d tensor."""
    tape = x.tape
    if bias.tape is not tape:
        raise ContractError("operands live on different tapes")
    xv, bv, parents = x.value, bias.value, (x.vid, bias.vid)
    saved = tape.saved[tape.pos]
    if saved is None:
        if xv.ndim != 2 or bv.ndim != 1 or xv.shape[1] != bv.shape[0]:
            raise ShapeError(
                f"add_bias shapes incompatible: {xv.shape} + {bv.shape}"
            )
        b_vid, dests, grads = bias.vid, tape.grad_out, tape.grads

        # the bias's first gradient goes straight into its destination
        def rule(g):
            return g, np.add.reduce(
                g, axis=0, out=dests[b_vid] if grads[b_vid] is None else None)

        saved = tape.saved[tape.pos] = _ADD_BIAS, parents, rule, np.empty(xv.shape)
    elif saved[0] is not _ADD_BIAS or saved[1] != parents:
        _refuse_replay(tape, _ADD_BIAS, parents)
    np.add(xv, bv, out=saved[3])
    return tape.register(saved[3], parents, saved[2])


def mean_rows(x: Var) -> Var:
    """Mean over the row index: [n, c] -> [c]."""
    tape, xv, parents = x.tape, x.value, (x.vid,)
    saved = tape.saved[tape.pos]
    if saved is None:
        if xv.ndim != 2:
            raise ShapeError(f"mean_rows needs a 2-d input, got {xv.shape}")
        n, shape = xv.shape[0], xv.shape

        def rule(g):
            return (np.broadcast_to(g / n, shape).copy(),)

        saved = tape.saved[tape.pos] = (_MEAN_ROWS, parents, rule,
                                        np.empty(shape[1]), n)
    elif saved[0] is not _MEAN_ROWS or saved[1] != parents:
        _refuse_replay(tape, _MEAN_ROWS, parents)
    _, _, rule, out, n = saved
    np.add.reduce(xv, axis=0, out=out)
    np.divide(out, n, out=out)
    return tape.register(out, parents, rule)


def sum_all(x: Var) -> Var:
    """Sum of every entry, a 0-d array."""
    tape, xv, parents = x.tape, x.value, (x.vid,)
    saved = tape.saved[tape.pos]
    if saved is None:
        shape = xv.shape

        def rule(g):
            out = np.empty(shape)
            out.fill(g)
            return (out,)

        saved = tape.saved[tape.pos] = _SUM_ALL, parents, rule, np.empty(())
    elif saved[0] is not _SUM_ALL or saved[1] != parents:
        _refuse_replay(tape, _SUM_ALL, parents)
    np.add.reduce(xv, axis=None, out=saved[3])
    return tape.register(saved[3], parents, saved[2])


def clamp(x: Var, lo: float, hi: float) -> Var:
    """Elementwise clip, np.clip's bits; gradient passes only inside
    [lo, hi]."""
    tape, xv, parents = x.tape, x.value, (x.vid,)
    saved = tape.saved[tape.pos]
    if saved is None:
        mask = np.empty(xv.shape, dtype=bool)

        def rule(g, mask=mask):
            return (g * mask,)

        saved = tape.saved[tape.pos] = (_CLAMP, parents, rule,
                                        np.empty(xv.shape), mask)
    elif saved[0] is not _CLAMP or saved[1] != parents:
        _refuse_replay(tape, _CLAMP, parents)
    _, _, rule, out, mask = saved
    np.maximum(lo, xv, out=out)
    np.minimum(hi, out, out=out)
    # lo <= x <= hi exactly where the clip leaves x as it is (nan included)
    np.equal(out, xv, out=mask)
    return tape.register(out, parents, rule)


def stop_gradient(x: Var) -> Var:
    """The same value as a constant leaf: no gradient flows back to x.
    No part of the training or evaluation pipeline calls it."""
    return x.tape.constant(x.value)
