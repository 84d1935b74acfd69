"""Schedules, samplers, the SGD step, and loop-level behavior."""

import copy
import gc
import math
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from dart import autodiff as ad
from dart import data as dd
from dart import evaluation as ev
from dart import model as dm
from dart import training as tr
from dart.errors import ConfigError, ContractError, NumericError
from dart.rng import STREAM_INIT, Prng, derive_seed

from conftest import central_diff_grads, max_rel_err, peak_bytes


SHIFT = dd.TaskConfig(rotation=math.pi / 6, translation=(1.0, -0.5))


def small_task(seed=3, per_class=20, spread=0.8, dim=2, shift=SHIFT):
    """Unstandardized 3-blob source and target datasets."""
    x, labels = dd.gen_blobs(3, per_class, dim, spread, Prng(seed))
    return (dd.Dataset(x, labels, "source", 3),
            dd.Dataset(dd.apply_shift(x, shift), None, "target", 3,
                       sealed_labels=labels))


def small_config(**kw):
    kw.setdefault("total_steps", 20)
    kw.setdefault("batch_size", 8)
    kw.setdefault("hidden", (8,))
    kw.setdefault("feature_dim", 4)
    kw.setdefault("domain_hidden", 8)
    kw.setdefault("seed", 5)
    return tr.TrainConfig(**kw)


# ---------------------------------------------------------------------------
# config validation


def test_config_defaults_match_published_settings():
    cfg = tr.TrainConfig()
    assert cfg.alpha == 0.6
    assert cfg.beta == 1.0
    assert cfg.gamma_lr == 0.92
    assert cfg.lambda0 == 1.0
    assert cfg.gamma_lambda == 2.5
    assert cfg.lr_decay_interval == 3000
    cfg.validate()


def test_config_rejects_bad_values():
    for bad in (
        {"alpha": -0.1},
        {"gamma_lr": 0.0},
        {"gamma_lr": 1.5},
        {"batch_size": 0},
        {"total_steps": -1},
        {"variant": "other"},
        {"log_every": 0},
    ):
        with pytest.raises(ConfigError):
            tr.TrainConfig(**bad).validate()


@pytest.mark.parametrize("variant", tr.VARIANTS)
def test_effective_config_zeroes_weights_for_source_only(variant):
    # the adapts column alone decides whether alpha and beta survive
    cfg = tr.TrainConfig(variant=variant, alpha=0.6, beta=1.0)
    eff = cfg.effective()
    adapts = tr.VARIANTS[variant][2]
    assert (eff.alpha, eff.beta) == ((0.6, 1.0) if adapts else (0.0, 0.0))
    assert adapts == (variant != "source_only")
    assert (cfg.alpha, cfg.beta) == (0.6, 1.0)  # original untouched
    assert replace(eff, alpha=0.6, beta=1.0) == cfg


@pytest.mark.parametrize("bad, key", [
    ({"variant": "dann"}, "variant"),
    # source_only zeroes alpha, but only after validate() has seen it
    ({"variant": "source_only", "alpha": -1.0}, "alpha"),
])
def test_effective_config_refuses_an_invalid_config(bad, key):
    with pytest.raises(ConfigError, match=key):
        tr.TrainConfig(**bad).effective()


@pytest.mark.parametrize("variant", tr.VARIANTS)
def test_build_model_variant_wiring(variant):
    src, _ = small_task()
    m = tr.build_model(small_config(variant=variant), src, Prng(1))
    domain_on_joint, use_residual, _ = tr.VARIANTS[variant]
    assert (m.domain_on_joint, m.use_residual) == (domain_on_joint, use_residual)


def test_build_model_refuses_an_unknown_variant():
    # the ConfigError of validate(), not a KeyError from the table lookup
    src, _ = small_task()
    with pytest.raises(ConfigError, match="variant must be one of"):
        tr.build_model(tr.TrainConfig(variant="dann"), src, None)


# ---------------------------------------------------------------------------
# schedules


def test_lr_schedule_brackets():
    assert tr.lr_schedule(0, 0.01, 0.92) == 0.01
    assert tr.lr_schedule(2999, 0.01, 0.92) == 0.01
    assert tr.lr_schedule(3000, 0.01, 0.92) == 0.01 * 0.92
    assert tr.lr_schedule(3000, 0.01, 0.92) == pytest.approx(0.0092, abs=1e-18)
    assert tr.lr_schedule(9000, 0.01, 0.92) == pytest.approx(
        0.01 * 0.92**3, abs=1e-18
    )
    # configurable interval
    assert tr.lr_schedule(10, 0.01, 0.92, interval=10) == 0.01 * 0.92


def test_lambda_schedule_endpoints_and_values():
    assert tr.lambda_schedule(0.0, 1.0, 2.5) == 0.0
    assert tr.lambda_schedule(0.0, 7.0, 100.0) == 0.0
    # direct evaluation of the ramp formula
    assert tr.lambda_schedule(1.0, 1.0, 10.0) == pytest.approx(
        0.9999092042625952, abs=1e-12
    )
    assert tr.lambda_schedule(0.5, 1.0, 2.5) == pytest.approx(
        0.5545997223493822, abs=1e-12
    )


def test_lambda_schedule_monotone_on_grid():
    values = [tr.lambda_schedule(i / 1000.0, 1.0, 2.5) for i in range(1001)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_lambda_schedule_rejects_out_of_range():
    with pytest.raises(ContractError):
        tr.lambda_schedule(-0.01, 1.0, 2.5)
    with pytest.raises(ContractError):
        tr.lambda_schedule(1.01, 1.0, 2.5)
    with pytest.raises(ContractError):
        tr.lr_schedule(-1, 0.01, 0.92)


# ---------------------------------------------------------------------------
# samplers


def test_epoch_sampler_golden_sequence():
    # frozen from the first run: seed 42, 10 samples, batch 5
    s = tr.EpochSampler(10, 5, Prng(42))
    got = [s.next_indices().tolist() for _ in range(4)]
    assert got == [
        [0, 9, 5, 8, 6],
        [4, 7, 2, 1, 3],
        [0, 9, 3, 2, 5],
        [7, 1, 6, 8, 4],
    ]


def test_epoch_sampler_full_batch_covers_everything():
    s = tr.EpochSampler(6, 6, Prng(1))
    assert sorted(s.next_indices().tolist()) == list(range(6))
    assert sorted(s.next_indices().tolist()) == list(range(6))


def test_epoch_sampler_epochs_are_permutations():
    s = tr.EpochSampler(10, 5, Prng(9))
    e1 = s.next_indices().tolist() + s.next_indices().tolist()
    e2 = s.next_indices().tolist() + s.next_indices().tolist()
    assert sorted(e1) == list(range(10))
    assert sorted(e2) == list(range(10))
    assert e1 != e2


def test_epoch_sampler_drops_tail():
    s = tr.EpochSampler(7, 3, Prng(7))
    seen = [s.next_indices().tolist() for _ in range(4)]
    # two batches per epoch, never a short one
    assert all(len(b) == 3 for b in seen)
    epoch1 = set(seen[0] + seen[1])
    assert len(epoch1) == 6  # one index dropped


def test_epoch_sampler_rejects_oversize_batch():
    with pytest.raises(ConfigError):
        tr.EpochSampler(4, 5, Prng(1))


def test_paired_sampler_batches_and_label_sealing():
    src, tgt = small_task()
    ps = tr.PairedSampler(src, tgt, 8, seed=4)
    batch = ps.next_batch()
    assert batch.xs.shape == (8, 2)
    assert batch.ys.shape == (8, 3)
    assert batch.xt.shape == (8, 2)
    assert not hasattr(batch, "yt")
    # deterministic under the same seed
    ps2 = tr.PairedSampler(src, tgt, 8, seed=4)
    b2 = ps2.next_batch()
    assert np.array_equal(batch.xs, b2.xs)
    assert np.array_equal(batch.xt, b2.xt)


def test_paired_sampler_domains_advance_independently():
    src, _ = small_task(per_class=10)   # 30 samples
    _, tgt = small_task(per_class=20)   # 60 samples
    ps = tr.PairedSampler(src, tgt, 10, seed=4)
    src_seen, tgt_seen = [], []
    for _ in range(6):  # two source epochs, one target epoch
        ps_batch = ps.next_batch()
        src_seen.append(ps_batch.xs)
        tgt_seen.append(ps_batch.xt)
    src_rows = np.concatenate(src_seen)
    assert len(np.unique(src_rows, axis=0)) == 30
    tgt_rows = np.concatenate(tgt_seen)
    assert len(np.unique(tgt_rows, axis=0)) == 60


# ---------------------------------------------------------------------------
# train_step


def test_train_step_updates_match_minus_eta_grad():
    src, tgt = small_task()
    cfg = small_config(eta0=0.1, total_steps=100)
    model = tr.build_model(cfg, src, Prng(derive_seed(cfg.seed, STREAM_INIT)))
    before = {k: v.copy() for k, v in model.parameters().items()}

    # recompute the update by hand on a frozen copy
    frozen = copy.deepcopy(model)
    sampler = tr.PairedSampler(src, tgt, cfg.batch_size, cfg.seed)
    batch = sampler.next_batch()

    state = tr.SgdState()
    metrics = tr.train_step(model, batch, cfg, state)
    assert state.p == 1
    assert metrics.step == 0
    assert metrics.eta == 0.1
    assert metrics.lam == tr.lambda_schedule(0.0, cfg.lambda0, cfg.gamma_lambda)

    from dart.autodiff import Tape, backward
    tape = Tape()
    ws = dm.bind(frozen.parameters(), tape)
    graph = dm.build_training_graph(
        frozen, ws, batch.xs, batch.ys, batch.xt,
        metrics.lam, cfg.alpha, cfg.beta,
    )
    grads = backward(tape, graph.total)
    for name, var in graph.params.items():
        expected = before[name] - 0.1 * grads[var.vid]
        assert np.array_equal(model.parameters()[name], expected), name


def test_train_step_fills_one_flat_gradient_buffer():
    # dart_s binds the residual block but never reaches it: its gradient
    # views are zero-filled and its parameters stay as they are
    src, tgt = small_task()
    cfg = small_config(eta0=0.1, variant="dart_s")
    model = tr.build_model(cfg, src, Prng(derive_seed(cfg.seed, STREAM_INIT)))
    frozen = copy.deepcopy(model)
    batch = tr.PairedSampler(src, tgt, cfg.batch_size, cfg.seed).next_batch()
    state = tr.SgdState()
    tr.train_step(model, batch, cfg, state)
    grad = state.grad
    assert grad.shape == model.flat_parameters().shape
    assert list(state.grads) == list(model.parameters())
    assert all(np.shares_memory(view, grad) for view in state.grads.values())
    assert not np.shares_memory(grad, model.flat_parameters())

    tape = ad.Tape()
    ws = dm.bind(frozen.parameters(), tape)
    graph = dm.build_training_graph(frozen, ws, batch.xs, batch.ys, batch.xt,
                                    tr.lambda_schedule(0.0, cfg.lambda0, cfg.gamma_lambda),
                                    cfg.alpha, cfg.beta)
    grads = ad.backward(tape, graph.total)
    for name, var in graph.params.items():
        # the buffer holds eta * g after the update
        assert state.grads[name].tobytes() == (0.1 * grads[var.vid]).tobytes(), name
        expected = frozen.parameters()[name] - 0.1 * grads[var.vid]
        assert model.parameters()[name].tobytes() == expected.tobytes(), name
    assert not state.grads["residual.fc1.weight"].any()

    tr.train_step(model, batch, cfg, state)
    assert state.grad is grad and state.p == 2
    report = tr.train_loop(model, src, tgt, cfg)
    assert report.state.grad is None and report.state.grads is None


@pytest.mark.parametrize("weights", [
    {"variant": "full"}, {"variant": "dart_c"}, {"variant": "dart_s"},
    {"variant": "source_only"}, {"alpha": 0.0}, {"beta": 0.0},
], ids=["full", "dart_c", "dart_s", "source_only", "alpha=0", "beta=0"])
def test_train_step_holds_one_first_layer_gradient_at_a_time(weights):
    # backward computes the first matmul contribution of a weight straight
    # into the flat buffer and adds the other branch's in place, so one
    # step never holds two full-size extractor.0.weight gradients; where a
    # zero weight skips the target branch, the source side writes first
    cfg = tr.TrainConfig(hidden=(128,), feature_dim=8, domain_hidden=16,
                         batch_size=16, total_steps=10, **weights).effective()
    shape = SimpleNamespace(dim=1024, class_count=4)
    model = tr.build_model(cfg, shape, Prng(derive_seed(cfg.seed, STREAM_INIT)))
    rows = Prng(5).uniform_block(2 * 16 * 1024, -1.0, 1.0).reshape(2, 16, 1024)
    batch = tr.Batch(xs=rows[0], ys=ad.one_hot([i % 4 for i in range(16)], 4),
                     xt=rows[1])
    state = tr.SgdState()
    tr.train_step(model, batch, cfg, state)  # makes the flat buffer
    peak, _ = peak_bytes(lambda: tr.train_step(model, batch, cfg, state))
    assert peak < 2.0 * model.parameters()["extractor.0.weight"].nbytes


def test_train_step_gradient_against_finite_differences():
    # one step at desk scale: parameter delta == -eta * FD gradient of the
    # sign-split objective (domain term flipped for feature parameters)
    src, tgt = small_task(per_class=4)
    cfg = tr.TrainConfig(
        total_steps=10, batch_size=4, hidden=(), feature_dim=3,
        domain_hidden=4, eta0=0.1, seed=7,
    )
    model = tr.build_model(cfg, src, Prng(derive_seed(cfg.seed, STREAM_INIT)))
    # non-zero residual weights so every parameter participates
    p = Prng(11)
    for name in model.residual_param_names():
        arr = model.parameters()[name]
        model.set_parameter(
            name, np.array([p.uniform_range(-0.5, 0.5) for _ in arr.flat]
                           ).reshape(arr.shape)
        )

    sampler = tr.PairedSampler(src, tgt, cfg.batch_size, cfg.seed)
    batch = sampler.next_batch()
    lam = 0.7

    from dart.autodiff import Tape, backward
    tape = Tape()
    ws = dm.bind(model.parameters(), tape)
    graph = dm.build_training_graph(
        model, ws, batch.xs, batch.ys, batch.xt, lam, cfg.alpha, cfg.beta
    )
    grads = backward(tape, graph.total)

    params = model.parameters()
    feature_names = set(model.feature_param_names())

    def losses_now():
        t2 = Tape()
        ws = dm.bind(model.parameters(), t2)
        g2 = dm.build_training_graph(
            model, ws, batch.xs, batch.ys, batch.xt, lam, cfg.alpha, cfg.beta
        )
        return float(g2.ly.value), float(g2.lh.value), float(g2.ld.value)

    h = 1e-6
    for name, var in graph.params.items():
        arr = params[name]
        flat = arr.reshape(-1)
        analytic = grads[var.vid].reshape(-1)
        sign = -lam if name in feature_names else 1.0
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            ly_p, lh_p, ld_p = losses_now()
            flat[idx] = orig - h
            ly_m, lh_m, ld_m = losses_now()
            flat[idx] = orig
            # the reversal layer is invisible to finite differences, so the
            # domain term enters with the sign the backward pass applies
            f_p = ly_p + cfg.alpha * lh_p + sign * cfg.beta * ld_p
            f_m = ly_m + cfg.alpha * lh_m + sign * cfg.beta * ld_m
            fd = (f_p - f_m) / (2 * h)
            err = abs(analytic[idx] - fd) / max(abs(analytic[idx]), abs(fd), 1e-4)
            assert err < 1e-4, (name, idx, analytic[idx], fd)


def test_train_step_source_only_leaves_domain_parameters_untouched():
    src, tgt = small_task()
    cfg = small_config(variant="source_only").effective()
    model = tr.build_model(cfg, src, Prng(2))
    before = {n: model.parameters()[n].copy() for n in model.domain_param_names()}
    sampler = tr.PairedSampler(src, tgt, cfg.batch_size, cfg.seed)
    state = tr.SgdState()
    for _ in range(3):
        tr.train_step(model, sampler.next_batch(), cfg, state)
    for name in model.domain_param_names():
        assert np.array_equal(model.parameters()[name], before[name]), name


def test_train_step_reports_non_finite_term():
    src, tgt = small_task()
    cfg = small_config()
    model = tr.build_model(cfg, src, Prng(4))
    # force constant features, then logits [inf, -inf, 0]: the softmax
    # max-shift computes inf - inf = nan and the loss goes non-finite
    params = model.parameters()
    model.set_parameter("extractor.0.weight", np.zeros_like(params["extractor.0.weight"]))
    model.set_parameter("extractor.0.bias", np.full(8, 10.0))
    model.set_parameter("extractor.1.weight", np.zeros_like(params["extractor.1.weight"]))
    model.set_parameter("extractor.1.bias", np.full(4, 10.0))
    bw = np.zeros((4, 3))
    bw[:, 0] = 1e308
    bw[:, 1] = -1e308
    model.set_parameter("bottleneck.weight", bw)
    sampler = tr.PairedSampler(src, tgt, cfg.batch_size, cfg.seed)
    state = tr.SgdState()
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(NumericError) as exc:
            tr.train_step(model, sampler.next_batch(), cfg, state)
    assert "loss_" in str(exc.value)


# ---------------------------------------------------------------------------
# train_loop


def test_train_loop_zero_steps_returns_initial_model(tmp_path):
    src, tgt = small_task()
    cfg = small_config(total_steps=0)
    model = tr.build_model(cfg, src, Prng(derive_seed(cfg.seed, STREAM_INIT)))
    before = {k: v.copy() for k, v in model.parameters().items()}
    report = tr.train_loop(model, src, tgt, cfg,
                           metrics_path=tmp_path / "m.csv")
    assert report.state.p == 0
    for name, arr in report.model.parameters().items():
        assert np.array_equal(arr, before[name])
    assert (tmp_path / "m.csv").read_text().splitlines() == [
        "step,eta,lambda,loss_y,loss_h,loss_d,loss_total"
    ]


def test_train_loop_step_accounting_and_logging(tmp_path):
    src, tgt = small_task()
    cfg = small_config(total_steps=23, log_every=10)
    model = tr.build_model(cfg, src, Prng(6))
    report = tr.train_loop(model, src, tgt, cfg, metrics_path=tmp_path / "m.csv")
    assert report.state.p == 23
    logged_steps = [m.step for m in report.history]
    assert logged_steps == [0, 10, 20, 22]
    lines = (tmp_path / "m.csv").read_text().splitlines()
    assert lines[0] == "step,eta,lambda,loss_y,loss_h,loss_d,loss_total"
    assert len(lines) == 1 + len(logged_steps)


def test_train_loop_determinism_bitwise(tmp_path):
    src, tgt = small_task()
    cfg = small_config(total_steps=30)

    def run(tag):
        model = tr.build_model(cfg, src, Prng(derive_seed(cfg.seed, STREAM_INIT)))
        path = tmp_path / f"{tag}.csv"
        tr.train_loop(model, src, tgt, cfg, metrics_path=path)
        return model, path.read_bytes()

    m1, csv1 = run("a")
    m2, csv2 = run("b")
    assert csv1 == csv2
    for name, arr in m1.parameters().items():
        assert np.array_equal(arr, m2.parameters()[name]), name


def test_train_loop_applies_the_variant_loss_weights():
    task = dd.make_blobs_task(1, per_class=30)

    def trained(cfg):
        model = tr.build_model(cfg, task.source,
                               Prng(derive_seed(cfg.seed, STREAM_INIT)))
        tr.train_loop(model, task.source, task.target, cfg)
        return model.parameters()

    cfg = tr.TrainConfig(variant="source_only", total_steps=50)
    got = trained(cfg)
    want = trained(cfg.effective())
    full = trained(replace(cfg, variant="full"))
    assert all(np.array_equal(got[k], want[k]) for k in got)
    assert not all(np.array_equal(got[k], full[k]) for k in got)


def test_train_loop_learns_separable_identical_domains():
    # source == target, linearly separable: source accuracy should saturate
    for seed in (1, 2, 3, 4, 5):
        identity = dd.TaskConfig(rotation=0.0, translation=(0.0, 0.0))
        src, tgt = small_task(100 + seed, per_class=30, spread=0.3,
                              shift=identity)
        cfg = tr.TrainConfig(
            total_steps=300, batch_size=30, hidden=(16,), feature_dim=8,
            domain_hidden=8, seed=seed,
            eta0=0.02,
        )
        model = tr.build_model(cfg, src, Prng(derive_seed(seed, STREAM_INIT)))
        tr.train_loop(model, src, tgt, cfg)
        _, _, probs = dm.forward_features(model, src.samples)
        pred = np.argmax(probs, axis=1)
        truth = np.argmax(src.labels, axis=1)
        assert np.mean(pred == truth) >= 0.99, seed


def test_train_loop_classification_loss_trends_down():
    src, tgt = small_task(per_class=30, spread=0.5)
    cfg = small_config(total_steps=500, log_every=1, seed=8, eta0=0.02,
                       batch_size=16)
    model = tr.build_model(cfg, src, Prng(derive_seed(cfg.seed, STREAM_INIT)))
    report = tr.train_loop(model, src, tgt, cfg)
    ly = [m.loss_y for m in report.history]
    first_window = sum(ly[:50]) / 50
    last_window = sum(ly[-50:]) / 50
    assert last_window < first_window


def test_train_loop_non_finite_parameter_is_numeric_error():
    # a -inf bias is a dead ReLU unit: every loss stays finite, and the scan
    # after the last step is what catches it
    task = dd.make_blobs_task(1, per_class=20)
    cfg = tr.TrainConfig(total_steps=3)
    model = tr.build_model(cfg, task.source, Prng(1))
    model.parameters()["extractor.0.bias"][0] = -np.inf
    with pytest.raises(NumericError, match="extractor.0.bias"):
        tr.train_loop(model, task.source, task.target, cfg)


def test_train_loop_refuses_a_non_integer_step_count():
    # refused before the first step, not by range() as a TypeError
    task = dd.make_blobs_task(1, per_class=20)
    model = tr.build_model(tr.TrainConfig(), task.source, Prng(1))
    with pytest.raises(ConfigError, match="total_steps"):
        tr.train_loop(model, task.source, task.target,
                      tr.TrainConfig(total_steps=2.5))


@pytest.mark.parametrize("key, value", [
    ("harden_pseudo_labels", "no"),
    ("alpha", 10**400),
    ("eta0", 10**400),
    ("lambda0", 10**400),
    ("eta0", math.inf),
])
def test_train_loop_refuses_a_bad_field_before_the_first_step(monkeypatch, key, value):
    # "no" would train with hardened pseudo-labels, 10**400 overflow in a
    # schedule and inf end in a numeric failure: each is a ConfigError first
    task = dd.make_blobs_task(1, per_class=20)
    model = tr.build_model(tr.TrainConfig(), task.source, Prng(1))
    monkeypatch.setattr(tr, "train_step", None)
    with pytest.raises(ConfigError, match=key):
        tr.train_loop(model, task.source, task.target,
                      tr.TrainConfig(total_steps=3, **{key: value}))


def test_train_loop_validates_widths():
    src, tgt = small_task()
    cfg = small_config()
    wide, _ = small_task(dim=7)
    model = tr.build_model(cfg, wide, Prng(9))
    with pytest.raises(ContractError):
        tr.train_loop(model, src, tgt, cfg)
    # same width, another class count: one ContractError, not a ShapeError
    # from a matmul deep in the graph
    four = dd.make_blobs_task(1, classes=4, per_class=20)
    model = tr.build_model(cfg, four.source, Prng(9))
    with pytest.raises(ContractError, match="class count"):
        tr.train_loop(model, src, tgt, cfg)


# ---------------------------------------------------------------------------
# shape of a step


@pytest.mark.parametrize("step,nodes", [
    ("full", 30), ("dart_c", 28), ("dart_s", 27), ("source_only", 30),
], ids=["full", "dart_c", "dart_s", "source_only"])
def test_one_step_records_fixed_tape_node_count(monkeypatch, step, nodes):
    # the golden digests catch a changed value, not an added no-op node;
    # each dense layer is one matmul node, with its bias and its ReLU, and
    # each loss term one summed log_eps node
    recorded = []
    backward = ad.backward

    def counting_backward(tape, loss):
        recorded.append(len(tape.nodes))
        return backward(tape, loss)

    monkeypatch.setattr(ad, "backward", counting_backward)
    task = dd.make_blobs_task(1, per_class=20)
    cfg = tr.TrainConfig(variant=step, total_steps=1)
    tr.train_loop(tr.build_model(cfg, task.source, Prng(1)),
                  task.source, task.target, cfg)
    assert recorded == [nodes]


def test_probe_clamp_keeps_log_eps_rule_a_division():
    # train_domain_probe divides by d and 1 - d without log_eps's floor.
    # The clamp keeps d, and 1 - d below the upper clamp, at or above
    # LOG_EPS; at the upper clamp 1 - d falls below it, but no sigmoid
    # output 1 / (1 + e) rounds to that bound, so d reaches it only from
    # above, where the clamp's mask cuts the row
    hi = 1.0 - dm.DOMAIN_PROB_EPS
    assert dm.DOMAIN_PROB_EPS >= ad.LOG_EPS
    assert 1.0 - np.nextafter(hi, 0.0) >= ad.LOG_EPS
    y = 1.0 / hi
    assert not (1.0 / (y + np.arange(-64, 65) * np.spacing(y)) == hi).any()


@pytest.mark.parametrize("ns,nt,width,scale,at_clamp", [
    (150, 150, 8, 1.0, "none"), (150, 150, 64, 1.0, "none"),
    (150, 150, 8, 1e3, "some"), (150, 97, 8, 1.0, "none"),
    (150, 150, 8, 1e6, "all"),
], ids=["150x8", "150x64", "150x8-saturated", "150+97x8", "150x8-all-clamped"])
def test_probe_step_matches_tape_bit_for_bit(ns, nt, width, scale, at_clamp):
    # the probe's closed-form steps against the tape step they restate:
    # domain_head and domain_loss on a tape, backward and the same update
    rng = Prng(width)

    def rows(n, shift):
        return scale * (rng.uniform_block(n * width, -1.0, 1.0)
                        .reshape(n, width) + shift)

    xs, xt = rows(ns, 0.3), rows(nt, -0.3)
    fused = dm.init_layers({}, dm.DOMAIN_LAYERS, (width, ev.PROBE_HIDDEN, 1), rng)
    taped, at_once = copy.deepcopy(fused), copy.deepcopy(fused)
    clamped = 0
    for _ in range(25):
        tape = ad.Tape()
        ws = dm.bind(taped, tape)
        d_src = dm.domain_head(tape.constant(xs), ws)
        d_tgt = dm.domain_head(tape.constant(xt), ws)
        grads = ad.backward(tape, dm.domain_loss(d_src, d_tgt))
        for name, var in ws.items():
            taped[name] -= ev.PROBE_ETA * grads[var.vid]
        dm.train_domain_probe(fused, xs, xt, ev.PROBE_ETA, steps=1)
        d = np.concatenate([d_src.value, d_tgt.value])
        clamped += np.isin(d, (dm.DOMAIN_PROB_EPS, 1.0 - dm.DOMAIN_PROB_EPS)).sum()
    # saturated features hold outputs at the clamp, where its mask cuts
    # the gradient and 1 - d meets log_eps's floor
    total = 25 * (ns + nt)
    assert at_clamp == ("none" if clamped == 0 else "all" if clamped == total else "some")
    # the same 25 steps in one call reuse its buffers from step to step
    dm.train_domain_probe(at_once, xs, xt, ev.PROBE_ETA, steps=25)
    for name in taped:
        assert fused[name].tobytes() == taped[name].tobytes(), name
        assert at_once[name].tobytes() == taped[name].tobytes(), name


# ---------------------------------------------------------------------------
# zero loss weights

ZERO_WEIGHTS = {
    "source_only": {"variant": "source_only"},
    "alpha=0": {"alpha": 0.0},
    "beta=0": {"beta": 0.0},
    "dart_s,alpha=beta=0": {"variant": "dart_s", "alpha": 0.0, "beta": 0.0},
}


@pytest.mark.parametrize("weights", ZERO_WEIGHTS.values(), ids=ZERO_WEIGHTS)
def test_zero_weighted_terms_keep_the_dense_rules_bytes(monkeypatch, weights):
    # scalar_mul(., 0.0) sends back None, and backward skips the branch;
    # the dense rule sends back 0 * g through all of it
    task = dd.make_blobs_task(6, per_class=30)
    cfg = tr.TrainConfig(total_steps=200, log_every=1, seed=6, **weights)

    def trained():
        model = tr.build_model(cfg, task.source,
                               Prng(derive_seed(cfg.seed, STREAM_INIT)))
        report = tr.train_loop(model, task.source, task.target, cfg)
        return (model.flat_parameters().tobytes(),
                [tr.format_metrics_row(m) for m in report.history])

    pruned = trained()
    dense_calls = []

    def dense_scalar_mul(x, s):
        dense_calls.append(s)
        s = float(s)
        return x.tape.register(s * x.value, (x.vid,), lambda g: (s * g,))

    monkeypatch.setattr(ad, "scalar_mul", dense_scalar_mul)
    assert trained() == pruned
    assert 0.0 in dense_calls


@pytest.mark.parametrize("weights,rules", [
    ({"variant": "full"}, 30), ({"variant": "source_only"}, 12),
    ({"alpha": 0.0}, 29), ({"beta": 0.0}, 17),
], ids=["full", "source_only", "alpha=0", "beta=0"])
def test_one_step_runs_the_rules_of_weighted_terms_only(monkeypatch, weights,
                                                        rules):
    ran = []
    register = ad.Tape.register

    def counting_register(tape, value, parents, rule):
        def counted(g):
            ran.append(rule)
            return rule(g)

        return register(tape, value, parents, counted)

    monkeypatch.setattr(ad.Tape, "register", counting_register)
    task = dd.make_blobs_task(1, per_class=20)
    cfg = tr.TrainConfig(total_steps=1, **weights)
    tr.train_loop(tr.build_model(cfg, task.source, Prng(1)),
                  task.source, task.target, cfg)
    assert len(ran) == rules


# ---------------------------------------------------------------------------
# record once, replay

REPLAYED = {**{variant: {"variant": variant} for variant in tr.VARIANTS},
            "harden_pseudo_labels": {"harden_pseudo_labels": True}}


@pytest.mark.parametrize("weights", REPLAYED.values(), ids=REPLAYED)
def test_replayed_steps_keep_the_bytes_of_a_fresh_tape_every_step(monkeypatch,
                                                                 weights):
    task = dd.make_blobs_task(2, per_class=30)
    cfg = tr.TrainConfig(total_steps=50, log_every=1, seed=4, **weights)
    tapes = []
    backward = ad.backward

    def keeping_backward(tape, loss):
        tapes.append(tape)
        return backward(tape, loss)

    def trained():
        tapes.clear()
        model = tr.build_model(cfg, task.source,
                               Prng(derive_seed(cfg.seed, STREAM_INIT)))
        report = tr.train_loop(model, task.source, task.target, cfg)
        return (model.flat_parameters().tobytes(),
                [tr.format_metrics_row(m) for m in report.history])

    monkeypatch.setattr(ad, "backward", keeping_backward)
    replayed = trained()
    assert len(tapes) == 50 and all(tape is tapes[0] for tape in tapes)
    train_step = tr.train_step

    def fresh_step(model, batch, cfg, state):
        state.tape = None
        return train_step(model, batch, cfg, state)

    monkeypatch.setattr(tr, "train_step", fresh_step)
    assert trained() == replayed
    assert len({id(tape) for tape in tapes}) == 50


def test_the_recorded_tape_dies_when_train_loop_returns(monkeypatch):
    # no tape -> node -> rule -> tape cycle: without a gc pass, dropping the
    # state's reference frees the tape and every buffer it holds
    refs = []
    backward = ad.backward

    def keeping_backward(tape, loss):
        refs.append(weakref.ref(tape))
        return backward(tape, loss)

    monkeypatch.setattr(ad, "backward", keeping_backward)
    task = dd.make_blobs_task(1, per_class=20)
    cfg = tr.TrainConfig(total_steps=5)
    model = tr.build_model(cfg, task.source, Prng(1))
    gc.disable()
    try:
        report = tr.train_loop(model, task.source, task.target, cfg)
        assert len(refs) == 5 and all(ref() is None for ref in refs)
        assert report.state.tape is None
    finally:
        gc.enable()


def test_a_state_reused_with_another_model_records_afresh():
    # the recorded tape's parameter leaves are views of the first model's
    # vector; another model of the same shapes records its own tape
    src, tgt = small_task()
    cfg = small_config(eta0=0.1)
    model = tr.build_model(cfg, src, Prng(derive_seed(cfg.seed, STREAM_INIT)))
    other = tr.build_model(cfg, src, Prng(derive_seed(cfg.seed + 1, STREAM_INIT)))
    fresh_other = copy.deepcopy(other)
    batch = tr.PairedSampler(src, tgt, cfg.batch_size, cfg.seed).next_batch()
    state = tr.SgdState()
    tr.train_step(model, batch, cfg, state)
    tapes = [state.tape]
    fresh = tr.SgdState(p=state.p)
    for _ in range(2):
        want = tr.train_step(fresh_other, batch, cfg, fresh)
        assert tr.train_step(other, batch, cfg, state) == want
        assert state.flat is other.flat_parameters()
        assert other.flat_parameters().tobytes() == \
            fresh_other.flat_parameters().tobytes()
        assert state.grad.tobytes() == fresh.grad.tobytes()
        tapes.append(state.tape)
    # other's first step records a tape, and its second replays it
    assert tapes[1] is not tapes[0] and tapes[2] is tapes[1]


def test_a_batch_of_another_shape_records_afresh():
    src, tgt = small_task()
    cfg = small_config(eta0=0.1)
    model = tr.build_model(cfg, src, Prng(derive_seed(cfg.seed, STREAM_INIT)))
    batch = tr.PairedSampler(src, tgt, cfg.batch_size, cfg.seed).next_batch()
    state = tr.SgdState()
    tr.train_step(model, batch, cfg, state)
    recorded = state.tape
    tr.train_step(model, batch, cfg, state)
    assert state.tape is recorded
    for shorter in (tr.Batch(batch.xs[:6], batch.ys[:6], batch.xt[:6]),
                    tr.Batch(batch.xs, batch.ys, batch.xt[:6])):
        fresh_model = copy.deepcopy(model)
        fresh = tr.SgdState(p=state.p)
        want = tr.train_step(fresh_model, shorter, cfg, fresh)
        assert tr.train_step(model, shorter, cfg, state) == want
        assert state.tape is not recorded
        assert model.flat_parameters().tobytes() == \
            fresh_model.flat_parameters().tobytes()
        recorded = state.tape
