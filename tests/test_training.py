"""Schedules, samplers, the SGD step, and loop-level behavior."""

import math

import numpy as np
import pytest

from dart import data as dd
from dart import model as dm
from dart import training as tr
from dart.errors import ConfigError, ContractError, NumericError
from dart.rng import STREAM_INIT, Prng, derive_seed

from conftest import central_diff_grads, max_rel_err


def small_task(seed=3, per_class=20, spread=0.8):
    src = dd.gen_blobs(3, per_class, 2, spread, Prng(seed))
    tgt = dd.apply_shift(
        src, dd.ShiftSpec(math.pi / 6, (1.0, -0.5), 1.0, 0.0), Prng(seed + 1)
    )
    return src, tgt


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
        {"momentum": 1.0},
        {"variant": "other"},
        {"log_every": 0},
    ):
        with pytest.raises(ConfigError):
            tr.TrainConfig(**bad).validate()


def test_effective_config_zeroes_weights_for_source_only():
    cfg = tr.TrainConfig(variant="source_only", alpha=0.6, beta=1.0)
    eff = cfg.effective()
    assert eff.alpha == 0.0 and eff.beta == 0.0
    assert cfg.alpha == 0.6  # original untouched
    assert tr.TrainConfig(variant="full").effective().alpha == 0.6


def test_build_model_variant_wiring():
    cfg = small_config(variant="dart_c")
    m = tr.build_model(cfg, Prng(1))
    assert m.domain_on_joint is False and m.use_residual is True
    cfg = small_config(variant="dart_s")
    m = tr.build_model(cfg, Prng(1))
    assert m.domain_on_joint is True and m.use_residual is False


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
    model = tr.build_model(cfg, Prng(derive_seed(cfg.seed, STREAM_INIT)))
    before = {k: v.copy() for k, v in model.parameters().items()}

    # recompute the update by hand on a frozen copy
    frozen = model.clone()
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
    graph = dm.build_training_graph(
        frozen, tape, batch.xs, batch.ys, batch.xt,
        metrics.lam, cfg.alpha, cfg.beta,
    )
    grads = backward(tape, graph.total)
    for name, var in graph.bound.params.items():
        expected = before[name] - 0.1 * grads[var.vid]
        assert np.array_equal(model.parameters()[name], expected), name


def test_train_step_gradient_against_finite_differences():
    # one step at desk scale: parameter delta == -eta * FD gradient of the
    # sign-split objective (domain term flipped for feature parameters)
    src, tgt = small_task(per_class=4)
    cfg = tr.TrainConfig(
        total_steps=10, batch_size=4, hidden=(), feature_dim=3,
        class_count=3, input_dim=2, domain_hidden=4, eta0=0.1, seed=7,
    )
    model = tr.build_model(cfg, Prng(derive_seed(cfg.seed, STREAM_INIT)))
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
    graph = dm.build_training_graph(
        model, tape, batch.xs, batch.ys, batch.xt, lam, cfg.alpha, cfg.beta
    )
    grads = backward(tape, graph.total)

    params = model.parameters()
    feature_names = set(model.feature_param_names())

    def losses_now():
        t2 = Tape()
        g2 = dm.build_training_graph(
            model, t2, batch.xs, batch.ys, batch.xt, lam, cfg.alpha, cfg.beta
        )
        return float(g2.ly.value), float(g2.lh.value), float(g2.ld.value)

    h = 1e-6
    for name, var in graph.bound.params.items():
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
    model = tr.build_model(cfg, Prng(2))
    before = {n: model.parameters()[n].copy() for n in model.domain_param_names()}
    sampler = tr.PairedSampler(src, tgt, cfg.batch_size, cfg.seed)
    state = tr.SgdState()
    for _ in range(3):
        tr.train_step(model, sampler.next_batch(), cfg, state)
    for name in model.domain_param_names():
        assert np.array_equal(model.parameters()[name], before[name]), name


def test_train_step_momentum_accumulates():
    src, tgt = small_task()
    cfg = small_config(momentum=0.9, eta0=0.05)
    model = tr.build_model(cfg, Prng(3))
    sampler = tr.PairedSampler(src, tgt, cfg.batch_size, cfg.seed)
    state = tr.SgdState()
    tr.train_step(model, sampler.next_batch(), cfg, state)
    assert state.velocity  # buffers exist once momentum is on
    tr.train_step(model, sampler.next_batch(), cfg, state)
    assert state.p == 2


def test_train_step_reports_non_finite_term():
    src, tgt = small_task()
    cfg = small_config()
    model = tr.build_model(cfg, Prng(4))
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
    model = tr.build_model(cfg, Prng(derive_seed(cfg.seed, STREAM_INIT)))
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
    model = tr.build_model(cfg, Prng(6))
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
        model = tr.build_model(cfg, Prng(derive_seed(cfg.seed, STREAM_INIT)))
        path = tmp_path / f"{tag}.csv"
        tr.train_loop(model, src, tgt, cfg, metrics_path=path)
        return model, path.read_bytes()

    m1, csv1 = run("a")
    m2, csv2 = run("b")
    assert csv1 == csv2
    for name, arr in m1.parameters().items():
        assert np.array_equal(arr, m2.parameters()[name]), name


def test_train_loop_learns_separable_identical_domains():
    # source == target, linearly separable: source accuracy should saturate
    for seed in (1, 2, 3, 4, 5):
        src = dd.gen_blobs(3, 30, 2, spread=0.3, rng=Prng(100 + seed))
        tgt = dd.apply_shift(src, dd.ShiftSpec(0.0, (0.0, 0.0), 1.0, 0.0),
                             Prng(200 + seed))
        cfg = tr.TrainConfig(
            total_steps=300, batch_size=30, hidden=(16,), feature_dim=8,
            class_count=3, input_dim=2, domain_hidden=8, seed=seed,
            eta0=0.02,
        )
        model = tr.build_model(cfg, Prng(derive_seed(seed, STREAM_INIT)))
        tr.train_loop(model, src, tgt, cfg)
        _, _, probs = dm.forward_features(model, src.samples)
        pred = np.argmax(probs, axis=1)
        truth = np.argmax(src.labels, axis=1)
        assert np.mean(pred == truth) >= 0.99, seed


def test_train_loop_classification_loss_trends_down():
    src, tgt = small_task(per_class=30, spread=0.5)
    cfg = small_config(total_steps=500, log_every=1, seed=8, eta0=0.02,
                       batch_size=16)
    model = tr.build_model(cfg, Prng(derive_seed(cfg.seed, STREAM_INIT)))
    report = tr.train_loop(model, src, tgt, cfg)
    ly = [m.loss_y for m in report.history]
    first_window = sum(ly[:50]) / 50
    last_window = sum(ly[-50:]) / 50
    assert last_window < first_window


def test_train_loop_validates_widths():
    src, tgt = small_task()
    cfg = small_config(input_dim=7)
    model = tr.build_model(cfg, Prng(9))
    with pytest.raises(ContractError):
        tr.train_loop(model, src, tgt, cfg)
