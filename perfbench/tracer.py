"""Spans around calls into the dart modules, installed from outside.

The dart modules call each other through module attributes (``ad.matmul``,
``tr.train_loop``, ``dm.save_checkpoint``) and class methods
(``Tape.register``, ``Prng.permutation``), so replacing those attributes
with timing wrappers sees every call without editing the program. A
wrapper only times and counts: it passes arguments and results through
untouched, so traced runs write the same bytes as untraced ones.

Two levels:

* coarse spans (``install_coarse``) stay on in every run: one wrapper per
  config parse, task build, model build, training run, ablation run and
  probe, plus a tick after every ``TICK``-th backward pass (one per
  training or probe step), so their cost is negligible next to the work
  they time. They write the repeat's timeline: marks at the start
  (``name>``) and end (``name<``) of each coarse span and at each tick.
  A calibrated tracer also times the calibration kernel at each mark
  (see ``mark``), which the timeline leaves out;
* fine spans (``install_fine``) wrap every tape op, each backward rule,
  leaf registration, the backward loop, sampling, the update and the
  data/model entry points. They are installed only for a traced
  repeat and removed afterwards.

Self time of a span is its duration minus the time covered by the spans it
encloses; rows are kept per phase (``train`` inside ``train_loop``,
``probe`` inside ``a_distance``, ``other`` elsewhere).
"""

import time
from collections import defaultdict

import numpy as np

OPS = (
    "matmul", "add_bias", "relu", "softmax_rows", "sigmoid", "kron_rows",
    "log_eps", "clamp", "sum_all", "scalar_mul", "add", "subtract",
    "multiply", "gradient_reversal", "stop_gradient",
)

TICK = 10  # backward passes between timeline ticks: 10-120 ms of work

# Calibration kernel: the kinds of work a dart step is made of, small numpy
# ops and plain Python, on private data; 0.32 ms in a 2-vCPU VM's fast state.
_CAL_A = np.random.default_rng(0).random((32, 64))
_CAL_B = np.random.default_rng(1).random((64, 16))


def calibration():
    """Runs the calibration kernel; returns the seconds it took."""
    t0 = time.perf_counter()
    total = 0.0
    for _ in range(40):
        total += float(np.maximum(_CAL_A @ _CAL_B, 0.5).sum())
    table, acc = {}, 0
    for i in range(1500):
        table[i & 63] = acc
        acc = (acc + 7 * i) % 1000003
    return time.perf_counter() - t0


_MASK = (1 << 64) - 1
# splitmix64 advances its state by this odd increment once per draw, so
# the number of draws is (state - initial state) times its inverse.
_GOLDEN_INV = pow(0x9E3779B97F4A7C15, -1, 1 << 64)


class Tracer:
    def __init__(self, calibrated=False):
        self.m = None  # name -> module: autodiff, model, training, ...
        self.calibrated = calibrated
        self.clock = time.perf_counter
        self.stack = []  # time covered by child spans, one entry per open span
        self.phase = "other"
        self.op = "other"  # tape op currently registering nodes
        self._iter_start = 0.0
        self._patched = []
        self.rows = defaultdict(lambda: [0, 0.0, 0.0])  # (phase, name) -> calls, total, self
        self.counts = defaultdict(int)  # (phase, name) -> count
        self.durations = defaultdict(list)  # name -> per-call seconds
        self.runs = []  # one dict per train_loop call
        self.iterations = []  # seconds from batch draw to end of step
        self.prngs = []  # (Prng, initial state)
        self.events = []  # the timeline: (label, time, calibration seconds)
        self._backwards = 0

    # -- span core ---------------------------------------------------------

    def call(self, key, fn, args, kwargs=None):
        stack = self.stack
        stack.append(0.0)
        t0 = self.clock()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            dt = self.clock() - t0
            child = stack.pop()
            if stack:
                stack[-1] += dt
            row = self.rows[key]
            row[0] += 1
            row[1] += dt
            row[2] += dt - child

    def _span(self, name, fn, phase=None, keep=False, mark=False):
        tracer = self

        def wrapper(*args, **kwargs):
            outer = tracer.phase
            if phase is not None:
                tracer.phase = phase
            if mark:
                tracer.mark(f"{name}>")
            t0 = tracer.clock()
            try:
                return tracer.call((tracer.phase, name), fn, args, kwargs)
            finally:
                tracer.phase = outer
                if keep:
                    tracer.durations[name].append(tracer.clock() - t0)
                if mark:
                    tracer.mark(f"{name}<")

        return wrapper

    def mark(self, label):
        """Adds ``(label, time, calibration seconds)`` to the timeline. A
        calibrated tracer runs the calibration kernel right after ``time``;
        the program's work between two marks starts when it ends."""
        t = self.clock()
        self.events.append((label, t, calibration() if self.calibrated else 0.0))

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- coarse spans ------------------------------------------------------

    def install_coarse(self, modules):
        self.m = modules
        ad, tr = self.m["autodiff"], self.m["training"]
        ev, cli = self.m["evaluation"], self.m["cli"]

        def span(name, fn, phase=None):
            return self._span(name, fn, phase, keep=True, mark=True)

        for name in ("parse_config", "build_task"):
            self._patch(cli, name, span(f"cli.{name}", getattr(cli, name)))
        self._patch(tr, "build_model", span("training.build_model", tr.build_model))
        self._patch(ev, "run_ablation", span("evaluation.run_ablation", ev.run_ablation))
        self._patch(ev, "a_distance", span("evaluation.a_distance", ev.a_distance, "probe"))
        self._patch(tr, "train_loop", self._train_loop(tr.train_loop))
        self._patch(ad, "backward", self._tick(ad.backward))

    def _train_loop(self, fn):
        tracer = self
        timed = self._span("training.train_loop", fn, phase="train", mark=True)

        def train_loop(model, source, target, cfg, *args, **kwargs):
            kron_before = tracer.row("train", "autodiff.kron_rows.fwd")[0]
            t0 = tracer.clock()
            report = timed(model, source, target, cfg, *args, **kwargs)
            tracer.runs.append({
                "variant": cfg.variant,
                "steps": report.state.p,
                "seconds": tracer.clock() - t0,
                "kron_calls": tracer.row("train", "autodiff.kron_rows.fwd")[0] - kron_before,
            })
            return report

        return train_loop

    def _tick(self, fn):
        tracer = self

        def backward(tape, loss):
            grads = fn(tape, loss)
            tracer._backwards += 1
            if tracer._backwards % TICK == 0:
                tracer.mark("tick")
            return grads

        return backward

    # -- fine spans --------------------------------------------------------

    def install_fine(self):
        ad, dm, tr = self.m["autodiff"], self.m["model"], self.m["training"]
        ev, dd, rng = self.m["evaluation"], self.m["data"], self.m["rng"]
        span = self._span
        for op in OPS:
            self._patch(ad, op, self._op(op, getattr(ad, op)))
        self._patch(ad.Tape, "register", self._register(ad.Tape.register))
        self._patch(ad.Tape, "variable", span("autodiff.variable", ad.Tape.variable))
        self._patch(ad, "backward", self._backward(ad.backward))
        self._patch(dm, "build_training_graph",
                    span("model.build_training_graph", dm.build_training_graph))
        self._patch(tr, "train_step", self._train_step(tr.train_step))
        self._patch(tr.PairedSampler, "next_batch", self._next_batch(tr.PairedSampler.next_batch))
        self._patch(rng.Prng, "permutation",
                    span("rng.permutation", rng.Prng.permutation, keep=True))
        self._patch(rng.Prng, "__init__", self._prng_init(rng.Prng.__init__))
        for module, layer, names in (
            (dm, "model", ("save_checkpoint", "load_checkpoint", "forward_features")),
            (ev, "evaluation", ("accuracy",)),
            (dd, "data", ("gen_blobs", "apply_shift", "normalize_pair", "load_idx")),
        ):
            for name in names:
                self._patch(module, name, span(f"{layer}.{name}", getattr(module, name), keep=True))

    def _op(self, op, fn):
        tracer = self
        name = f"autodiff.{op}.fwd"

        def wrapper(*args, **kwargs):
            outer = tracer.op
            tracer.op = op
            try:
                return tracer.call((tracer.phase, name), fn, args, kwargs)
            finally:
                tracer.op = outer

        return wrapper

    def _register(self, fn):
        tracer = self

        def register(tape, value, parents, rule):
            op, phase = tracer.op, tracer.phase
            key = (phase, f"autodiff.{op}.bwd")
            work_key, fwd_work, bwd_work = _computed_work(op, tape, value, parents)
            if work_key:
                tracer.counts[(phase, work_key)] += fwd_work

            def timed_rule(g):
                if work_key:
                    tracer.counts[(phase, work_key)] += bwd_work
                return tracer.call(key, rule, (g,))

            return fn(tape, value, parents, timed_rule)

        return register

    def _backward(self, fn):
        tracer = self
        timed = self._span("autodiff.backward", fn)

        def backward(tape, loss):
            tracer.counts[(tracer.phase, "autodiff.tape_nodes")] += len(tape.nodes)
            return timed(tape, loss)

        return backward

    def _next_batch(self, fn):
        tracer = self
        timed = self._span("training.sampler", fn)

        def next_batch(sampler):
            tracer._iter_start = tracer.clock()
            return timed(sampler)

        return next_batch

    def _train_step(self, fn):
        tracer = self
        timed = self._span("training.train_step", fn)

        def train_step(*args, **kwargs):
            try:
                return timed(*args, **kwargs)
            finally:
                tracer.iterations.append(tracer.clock() - tracer._iter_start)

        return train_step

    def _prng_init(self, fn):
        tracer = self

        def init(prng, seed):
            fn(prng, seed)
            tracer.prngs.append((prng, prng._state))

        return init

    # -- readings ----------------------------------------------------------

    def row(self, phase, name):
        return self.rows.get((phase, name), (0, 0.0, 0.0))

    def prng_draws(self):
        return sum(((p._state - s0) * _GOLDEN_INV) & _MASK for p, s0 in self.prngs)


def _computed_work(op, tape, value, parents):
    """(counter name, forward work, backward work) computed from shapes.

    matmul: 2*n*k*m flops forward and twice that backward (two products).
    kron_rows: bytes read and written by the forward (f, y in; out out)
    and by the backward (g, f, y in; gf, gy out), float64, no temporaries.
    """
    if op == "matmul":
        n, k = tape.values[parents[0]].shape
        flops = 2 * n * k * value.shape[1]
        return "autodiff.matmul.flops", flops, 2 * flops
    if op == "kron_rows":
        f_size = tape.values[parents[0]].size
        y_size = tape.values[parents[1]].size
        return ("autodiff.kron_rows.bytes", 8 * (f_size + y_size + value.size),
                8 * (value.size + 2 * (f_size + y_size)))
    return None, 0, 0
