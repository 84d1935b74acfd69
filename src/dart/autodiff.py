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
fan-out in one record on the tape, and returns a gradient for every leaf
(a parameter's can go to a destination array given at registration, with
the same bits). Leaves registered with
:meth:`Tape.constant` (inputs, labels, masks) need no gradient: theirs is
reported as zero, and :func:`matmul`, :func:`kron_rows` and
:func:`multiply` skip the products that would only feed one. A rule
returns None for a gradient that is structurally zero (a constant
parent, or a :func:`scalar_mul` scale of exactly 0), and backward adds
nothing for it: what only such a gradient reaches is never
differentiated, and a leaf left without one gets zeros. Where the
dense products are finite their bytes hold: each skipped one is a signed
zero, adding a zero to a nonzero sum is exact, and a sum of zeros moves
only the sign of a zero, which ``p - eta * g`` drops for every ``p`` but
-0.0, and no update from +0.0 biases and finite weights makes -0.0. (A
dense ``0 * inf`` would be nan; the skipped product is not computed.)
Constants and leaves registered with :meth:`Tape.parameter` (model
parameters) skip the finiteness scan that :meth:`Tape.variable` makes:
their owner checks them where they enter (``Dataset`` its samples, the
model its parameters) and after training, and a non-finite value derived
from them reaches the loss check. The A-distance probe trains without a tape:
``dart.model.train_domain_probe`` repeats the forward ops and backward
rules of matmul, add_bias, relu, sigmoid, clamp and log_eps for its fixed
network, and a tier-1 test pins it to their bits.

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

from typing import Callable, Sequence

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
    ``leaves`` holds the leaf ids in registration order, ``constants``
    those that need no gradient, ``grad_out`` the gradient destination
    of each leaf registered with one and ``grads`` the gradient so far of
    each id the current (or last) :func:`backward` has reached. Parents
    always precede their node in registration order, so the record is
    topologically sorted by construction. A tape and its tensors belong to
    a single thread for the duration of a forward/backward pass.
    """

    __slots__ = ("values", "nodes", "leaves", "constants", "grad_out", "grads")

    def __init__(self):
        self.values: list[Tensor] = []
        self.nodes: list[tuple[int, tuple[int, ...], BackwardRule]] = []
        self.leaves: list[int] = []
        self.constants: set[int] = set()
        self.grad_out: dict[int, Tensor] = {}
        self.grads: dict[int, Tensor] = {}

    def parameter(self, arr: Tensor, grad_out: Tensor | None = None) -> Var:
        """Register a float64 array as a leaf as given: no copy and no
        finiteness scan; backward computes its gradient, into ``grad_out``
        (a float64 array of the same shape) when given: a matmul computes
        the first contribution there, and later ones add in place."""
        vid = len(self.values)
        self.values.append(arr)
        self.leaves.append(vid)
        if grad_out is not None:
            self.grad_out[vid] = grad_out
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
        var = self.parameter(np.asarray(value, dtype=np.float64))
        self.constants.add(var.vid)
        return var

    def register(self, value: Tensor, parents: tuple[int, ...],
                 rule: BackwardRule) -> Var:
        """Register an operation result with its backward rule."""
        vid = len(self.values)
        self.values.append(value)
        self.nodes.append((vid, parents, rule))
        return Var(self, vid, value)


def _check_same_tape(a: Var, b: Var) -> Tape:
    if b.tape is not a.tape:
        raise ContractError("operands live on different tapes")
    return a.tape


def backward(tape: Tape, loss: Var) -> dict[int, Tensor]:
    """Gradient of a scalar loss w.r.t. every leaf of the tape, by id.

    The seed gradient at the loss is 1; fan-out accumulates additively in
    ``tape.grads``, which backward clears when it starts and from which it
    pops a node's entry when the node's rule runs. Leaves the loss does not
    depend on, constants, and leaves reached only through a rule's None get
    zero gradients. A leaf with a gradient destination gets it back, filled
    in place with the bits of the fresh-array path. The one invariant: the
    leaf has an entry in ``grads`` exactly when a contribution has reached
    it. So a matmul computes its weight's gradient into the destination
    when there is no entry (``np.dot(av.T, g, out=dest)``), each later
    contribution is added in place (``np.add(prev, pg, out)`` is
    ``prev + pg``), a single one from another op is copied in, and none
    gives zeros.
    """
    loss_value = loss.value
    if loss_value.size != 1 or loss_value.ndim > 1:
        raise ContractError(
            f"backward requires a scalar loss, got shape {loss_value.shape}"
        )
    grads, constants, grad_out = tape.grads, tape.constants, tape.grad_out
    grads.clear()
    grads[loss.vid] = np.ones(loss_value.shape)
    for vid, parents, rule in reversed(tape.nodes):
        g = grads.pop(vid, None)  # a node is never a leaf: its gradient is spent
        if g is None:
            continue
        for pid, pg in zip(parents, rule(g)):
            if pg is None or pid in constants:
                continue
            prev = grads.get(pid)
            grads[pid] = pg if prev is None else np.add(prev, pg, grad_out.get(pid))
    for vid, out in grad_out.items():
        g = grads.get(vid)
        if g is not out:
            out[...] = 0.0 if g is None else g
            grads[vid] = out
    values = tape.values
    return {vid: np.asarray(grads[vid]) if vid in grads
            else np.zeros(values[vid].shape) for vid in tape.leaves}


# ---------------------------------------------------------------------------
# Operations


def matmul(a: Var, b: Var) -> Var:
    tape = _check_same_tape(a, b)
    av, bv = a.value, b.value
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ShapeError(
            f"matmul shapes incompatible: {av.shape} x {bv.shape}"
        )

    a_const = a.vid in tape.constants
    # the rule holds the tape's gradient record, never the tape: a tape ->
    # node -> rule -> tape cycle would keep every step's tape alive until a
    # gc pass
    b_vid, dest, grads = b.vid, tape.grad_out.get(b.vid), tape.grads

    # np.dot gives @'s bits here, and is faster on a k=1 outer product
    def rule(g, av=av, bv=bv):
        return (None if a_const else np.dot(g, bv.T),
                np.dot(av.T, g, out=None if b_vid in grads else dest))

    return tape.register(np.dot(av, bv), (a.vid, b.vid), rule)


def relu(x: Var) -> Var:
    xv = x.value
    # Gradient passes where the input is strictly positive.
    mask = xv > 0.0

    def rule(g, mask=mask):
        return (g * mask,)

    return x.tape.register(np.maximum(xv, 0.0), (x.vid,), rule)


def softmax_rows(z: Var) -> Var:
    zv = z.value
    if zv.ndim != 2 or zv.shape[1] < 1:
        raise ShapeError(f"softmax_rows needs a 2-d input, got {zv.shape}")
    s = np.subtract(zv, np.maximum.reduce(zv, axis=1, keepdims=True))
    np.exp(s, out=s)
    s /= np.add.reduce(s, axis=1, keepdims=True)

    def rule(g, s=s):
        return (s * (g - np.add.reduce(g * s, axis=1, keepdims=True)),)

    return z.tape.register(s, (z.vid,), rule)


def sigmoid(x: Var) -> Var:
    xv = x.value
    # e = exp(-|x|), built in out, never overflows; e/(1+e), then 1/(1+e)
    # where x >= 0, are the usual two branches, bit for bit (minimum keeps
    # a nan's sign). Writing to out keeps a 0-d x's result a 0-d array.
    out = np.negative(xv, out=np.empty_like(xv))
    np.minimum(xv, out, out=out)
    np.exp(out, out=out)
    one_e = np.add(1.0, out)
    np.divide(out, one_e, out=out)
    np.divide(1.0, one_e, out=out, where=np.greater_equal(xv, 0))

    def rule(g, out=out):
        return (g * out * (1.0 - out),)

    return x.tape.register(out, (x.vid,), rule)


def gradient_reversal(x: Var, lam: float) -> Var:
    """Identity forward; backward replaces the upstream gradient g by -lam*g.

    ``lam`` is a per-call coefficient, not a stored weight, so a schedule
    can vary it every step without rebuilding anything.
    """
    if lam < 0:
        raise ContractError(f"gradient_reversal needs lam >= 0, got {lam}")
    neg = -float(lam)

    def rule(g, neg=neg):
        return (neg * g,)

    # Forward output shares storage with the input: bitwise identical.
    return x.tape.register(x.value, (x.vid,), rule)


def kron_rows(f: Var, y: Var) -> Var:
    """Row-wise Kronecker product: out[i, a*c + b] = f[i, a] * y[i, b].

    Feature-major ordering: each feature entry contributes a contiguous
    block of c entries. Gradients flow to both operands unless one is a
    constant.
    """
    tape = _check_same_tape(f, y)
    fv, yv = f.value, y.value
    if fv.ndim != 2 or yv.ndim != 2 or fv.shape[0] != yv.shape[0]:
        raise ShapeError(
            f"kron_rows row counts disagree: {fv.shape} vs {yv.shape}"
        )
    n, m = fv.shape
    c = yv.shape[1]
    out = (fv[:, :, None] * yv[:, None, :]).reshape(n, m * c)

    f_const, y_const = f.vid in tape.constants, y.vid in tape.constants

    def rule(g, fv=fv, yv=yv, n=n, m=m, c=c):
        g3 = g.reshape(n, m, c)
        gf = None if f_const else np.add.reduce(g3 * yv[:, None, :], axis=2)
        gy = None if y_const else np.add.reduce(g3 * fv[:, :, None], axis=1)
        return gf, gy

    return tape.register(out, (f.vid, y.vid), rule)


def log_eps(x: Var) -> Var:
    """Elementwise ln(max(x, LOG_EPS)) for nonnegative x.

    The gradient is 1/x where x >= LOG_EPS and 0 below, so saturated
    entries neither explode nor propagate.
    """
    xv = x.value
    clamped = np.maximum(xv, LOG_EPS)

    def rule(g, xv=xv, clamped=clamped):
        return (np.where(xv >= LOG_EPS, g / clamped, 0.0),)

    return x.tape.register(np.log(clamped), (x.vid,), rule)


def add(a: Var, b: Var) -> Var:
    tape = _check_same_tape(a, b)
    av, bv = a.value, b.value
    if av.shape != bv.shape:
        raise ShapeError(f"add shapes disagree: {av.shape} vs {bv.shape}")

    def rule(g):
        return g, g

    return tape.register(av + bv, (a.vid, b.vid), rule)


def subtract(a: Var, b: Var) -> Var:
    tape = _check_same_tape(a, b)
    av, bv = a.value, b.value
    if av.shape != bv.shape:
        raise ShapeError(f"subtract shapes disagree: {av.shape} vs {bv.shape}")

    def rule(g):
        return g, -g

    return tape.register(av - bv, (a.vid, b.vid), rule)


def multiply(a: Var, b: Var) -> Var:
    tape = _check_same_tape(a, b)
    av, bv = a.value, b.value
    if av.shape != bv.shape:
        raise ShapeError(f"multiply shapes disagree: {av.shape} vs {bv.shape}")

    a_const, b_const = a.vid in tape.constants, b.vid in tape.constants

    def rule(g, av=av, bv=bv):
        return None if a_const else g * bv, None if b_const else g * av

    return tape.register(av * bv, (a.vid, b.vid), rule)


def scalar_mul(x: Var, s: float) -> Var:
    """``s * x``. A scale of exactly 0 (either sign) sends back no gradient
    (None), so :func:`backward` never differentiates what only this node
    reaches: a loss term weighted 0 costs its forward pass alone."""
    s = float(s)

    def rule(g, s=s):
        return (s * g,) if s else (None,)

    return x.tape.register(s * x.value, (x.vid,), rule)


def add_bias(x: Var, bias: Var) -> Var:
    """Broadcast-add a bias row to every row of a 2-d tensor."""
    tape = _check_same_tape(x, bias)
    xv, bv = x.value, bias.value
    if xv.ndim != 2 or bv.ndim != 1 or xv.shape[1] != bv.shape[0]:
        raise ShapeError(
            f"add_bias shapes incompatible: {xv.shape} + {bv.shape}"
        )

    def rule(g):
        return g, np.add.reduce(g, axis=0)

    return tape.register(xv + bv, (x.vid, bias.vid), rule)


def mean_rows(x: Var) -> Var:
    """Mean over the row index: [n, c] -> [c]."""
    xv = x.value
    if xv.ndim != 2:
        raise ShapeError(f"mean_rows needs a 2-d input, got {xv.shape}")
    n = xv.shape[0]

    def rule(g, n=n, shape=xv.shape):
        return (np.broadcast_to(g / n, shape).copy(),)

    return x.tape.register(np.add.reduce(xv, axis=0) / n, (x.vid,), rule)


def sum_all(x: Var) -> Var:
    xv = x.value

    def rule(g, shape=xv.shape):
        out = np.empty(shape)
        out.fill(g)
        return (out,)

    total = np.asarray(np.add.reduce(xv, axis=None))
    return x.tape.register(total, (x.vid,), rule)


def clamp(x: Var, lo: float, hi: float) -> Var:
    """Elementwise clip, np.clip's bits; gradient passes only inside
    [lo, hi]."""
    xv = x.value
    out = np.minimum(hi, np.maximum(lo, xv))
    # lo <= x <= hi exactly where the clip leaves x as it is (nan included)
    mask = out == xv

    def rule(g, mask=mask):
        return (g * mask,)

    return x.tape.register(out, (x.vid,), rule)


def stop_gradient(x: Var) -> Var:
    """The same value as a constant leaf: no gradient flows back to x.
    No part of the training or evaluation pipeline calls it."""
    return x.tape.constant(x.value)
