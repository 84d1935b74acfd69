"""Finite-difference verification of every parameter gradient.

The reversal layer is invisible to central differences: its forward pass
is the identity, so numerically differentiating the recorded objective
reproduces the *unreversed* derivative. The check therefore compares
against two expressions assembled from one (ly, lh, ld) sweep:

  feature parameters:            d/dw [ ly + alpha*lh - lam*beta*ld ]
  residual and domain parameters: d/dw [ ly + alpha*lh +     beta*ld ]

which is precisely what the backward pass produces (the domain loss
reaches feature parameters only through the reversal layer; it reaches
the residual block not at all, and the domain classifier sits above the
reversal point). The analytic side is the flat gradient buffer a
training step applies, filled by one backward pass; the sweep walks it
entry by entry alongside the flat parameter vector.
"""

from dataclasses import dataclass

import numpy as np

from dart import autodiff as ad
from dart import model as dm
from dart.autodiff import Tape
from dart.rng import STREAM_DATA, STREAM_INIT, Prng, derive_seed

# Instance pinned for the oracle run: small enough to sweep every
# parameter, large enough that every operation participates.
TINY_INPUT_DIM = 4
TINY_FEATURE_DIM = 3
TINY_CLASS_COUNT = 3
TINY_BATCH = 2
TINY_DOMAIN_HIDDEN = 4
TINY_ALPHA = 0.6
TINY_BETA = 1.0
TINY_LAMBDA = 0.7
DEFAULT_SEED = 1  # TrainConfig's default seed, which dart gradcheck passes
STEP = 1e-6
TOLERANCE = 1e-4
# Entries below the floor are compared absolutely at tolerance*floor;
# keeps central-difference cancellation noise out of the ratio.
REL_ERR_FLOOR = 1e-4


@dataclass
class GradcheckReport:
    max_rel_err: float
    worst_param: str
    checked: int
    tolerance: float
    passed: bool


def build_tiny_instance(seed: int = DEFAULT_SEED):
    """Model and minibatch with every parameter randomized non-zero.

    Randomization replaces the usual zero-initialized residual output
    layer: at zero init that layer blocks gradient flow to the residual
    input layer and the check would compare zeros against zeros.
    """
    init_rng = Prng(derive_seed(seed, STREAM_INIT))
    model = dm.DartModel(
        input_dim=TINY_INPUT_DIM,
        hidden=(),
        feature_dim=TINY_FEATURE_DIM,
        class_count=TINY_CLASS_COUNT,
        domain_hidden=TINY_DOMAIN_HIDDEN,
        rng=init_rng,
    )
    flat = model.flat_parameters()
    init_rng.uniform_block(flat.size, -0.9, 0.9, out=flat)

    data_rng = Prng(derive_seed(seed, STREAM_DATA))

    def batch():
        return data_rng.uniform_block(TINY_BATCH * TINY_INPUT_DIM, -2, 2).reshape(
            TINY_BATCH, TINY_INPUT_DIM)

    xs, xt = batch(), batch()
    ys = ad.one_hot(
        [data_rng.randint(TINY_CLASS_COUNT) for _ in range(TINY_BATCH)],
        TINY_CLASS_COUNT,
    )
    return model, xs, ys, xt


def run_gradcheck(seed: int = DEFAULT_SEED) -> GradcheckReport:
    model, xs, ys, xt = build_tiny_instance(seed)
    h, alpha, beta, lam = STEP, TINY_ALPHA, TINY_BETA, TINY_LAMBDA

    flat = model.flat_parameters()
    analytic = np.empty_like(flat)
    tape = Tape()
    ws = dm.bind(model.parameters(), tape, model.views_of(analytic))
    graph = dm.build_training_graph(model, ws, xs, ys, xt, lam, alpha, beta)
    ad.backward(tape, graph.total)

    def losses_now():
        ws = dm.bind(model.parameters(), Tape())
        g = dm.build_training_graph(model, ws, xs, ys, xt, lam, alpha, beta)
        return float(g.ly.value), float(g.lh.value), float(g.ld.value)

    # (label, sign of ld's difference) of each entry of flat
    feature_names = set(model.feature_param_names())
    entries = [(f"{name}[{i}]", -lam * beta if name in feature_names else beta)
               for name, arr in model.parameters().items() for i in range(arr.size)]
    worst, worst_param = 0.0, ""
    for k, (label, sign) in enumerate(entries):
        orig = flat[k]
        flat[k] = orig + h
        ly_p, lh_p, ld_p = losses_now()
        flat[k] = orig - h
        ly_m, lh_m, ld_m = losses_now()
        flat[k] = orig
        fd = ((ly_p - ly_m) + alpha * (lh_p - lh_m) + sign * (ld_p - ld_m)) / (2.0 * h)
        a = analytic[k]
        err = abs(a - fd) / max(abs(a), abs(fd), REL_ERR_FLOOR)
        if err > worst:
            worst, worst_param = err, label
    return GradcheckReport(max_rel_err=worst, worst_param=worst_param, checked=flat.size,
                           tolerance=TOLERANCE, passed=worst < TOLERANCE)
