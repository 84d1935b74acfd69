"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Criteria 7 and 8 share one 15-run training sweep (3 variants x 5 seeds at
full step count) through a session fixture; everything else runs in
seconds. Verdict lines bypass pytest capture so the tee'd log always
shows them.
"""

import filecmp
import math
import struct
import time

import numpy as np
import pytest

from dart import autodiff as ad
from dart import cli
from dart import data as dd
from dart import evaluation as ev
from dart import gradcheck as gc
from dart import model as dm
from dart import training as tr
from dart.autodiff import Tape
from dart.errors import DataFormatError
from dart.rng import STREAM_INIT, STREAM_PROBE, Prng, derive_seed

SWEEP_SEEDS = (1, 2, 3, 4, 5)
SWEEP_VARIANTS = ("full", "dart_c", "source_only")


def announce(capsys, num, name, ok, detail):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"\n[acceptance {num:2d}] {name}: {verdict} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="session")
def adaptation_sweep():
    """Trains full/dart_c/source_only over five seeds on the shifted-blobs
    task at default settings, then one extra full model whose features
    serve as the identical-distribution control."""
    t0 = time.perf_counter()
    reports = {variant: [] for variant in SWEEP_VARIANTS}
    for seed in SWEEP_SEEDS:
        task = dd.make_blobs_task(seed)
        cfg = tr.TrainConfig(seed=seed)
        for variant in SWEEP_VARIANTS:
            reports[variant].append(ev.run_ablation(variant, task, cfg))
    elapsed = time.perf_counter() - t0

    task = dd.make_blobs_task(SWEEP_SEEDS[0])
    cfg = tr.TrainConfig(seed=SWEEP_SEEDS[0]).effective()
    model = tr.build_model(cfg, task.source,
                           Prng(derive_seed(cfg.seed, STREAM_INIT)))
    tr.train_loop(model, task.source, task.target, cfg)
    feats, _, _ = dm.forward_features(model, task.target.samples)
    control = ev.a_distance(
        feats, feats.copy(), Prng(derive_seed(cfg.seed, STREAM_PROBE))
    )
    return {"reports": reports, "control": control, "elapsed": elapsed}


# ---------------------------------------------------------------------------
# 1. gradient oracle


def test_criterion_1_gradient_oracle(capsys):
    t0 = time.perf_counter()
    report = gc.run_gradcheck()
    elapsed = time.perf_counter() - t0
    ok = report.passed and report.max_rel_err < 1e-4 and elapsed < 5.0
    announce(
        capsys, 1, "gradient oracle", ok,
        f"max rel err {report.max_rel_err:.2e} over {report.checked} "
        f"params in {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. GRL law


def _domain_grads_through_grl(model, xs, ys, xt, lam):
    tape = Tape()
    ws = dm.bind(model.parameters(), tape)
    graph = dm.build_training_graph(model, ws, xs, ys, xt, lam, 0.6, 1.0)
    grads = ad.backward(tape, graph.ld)
    return {
        name: grads[graph.params[name].vid]
        for name in model.feature_param_names()
    }


def _domain_grads_through_identity(model, xs, ys, xt):
    # same forward subgraph with the reversal call skipped
    tape = Tape()
    ws = dm.bind(model.parameters(), tape)
    fs = dm.features(model, ws, tape.variable(xs))
    ft = dm.features(model, ws, tape.variable(xt))
    yt_pred = ad.softmax_rows(dm.mlp(ft, ws, model.bottleneck_keys))
    fused_src = ad.kron_rows(fs, tape.variable(ys))
    fused_tgt = ad.kron_rows(ft, yt_pred)

    def prob(joint):
        h = ad.relu(ad.add_bias(
            ad.matmul(joint, ws["domain.fc1.weight"]),
            ws["domain.fc1.bias"],
        ))
        d = ad.sigmoid(ad.add_bias(
            ad.matmul(h, ws["domain.fc2.weight"]),
            ws["domain.fc2.bias"],
        ))
        return ad.clamp(d, dm.DOMAIN_PROB_EPS, 1.0 - dm.DOMAIN_PROB_EPS)

    ld = dm.domain_loss(prob(fused_src), prob(fused_tgt))
    grads = ad.backward(tape, ld)
    return {
        name: grads[ws[name].vid]
        for name in model.feature_param_names()
    }


def test_criterion_2_grl_law(capsys):
    model, xs, ys, xt = gc.build_tiny_instance()
    identity = _domain_grads_through_identity(model, xs, ys, xt)
    ok = True
    for lam in (0.0, 0.5, 1.0, 2.0):
        got = _domain_grads_through_grl(model, xs, ys, xt, lam)
        for name in identity:
            if not np.array_equal(got[name], -lam * identity[name]):
                ok = False
    zero = _domain_grads_through_grl(model, xs, ys, xt, 0.0)
    all_zero = all(np.all(g == 0.0) for g in zero.values())
    announce(
        capsys, 2, "GRL law", ok and all_zero,
        "grad == -lam * identity-grad elementwise for lam in {0, 0.5, 1, 2}; "
        f"lam=0 exactly zero: {all_zero}",
    )


# ---------------------------------------------------------------------------
# 3. Kronecker identities


def _kron_pair(f_np, y_np):
    tape = Tape()
    return ad.kron_rows(tape.variable(f_np), tape.variable(y_np)).value


def test_criterion_3_kron_identities(capsys):
    rng = Prng(derive_seed(33, STREAM_INIT))
    n, m, c = 5, 4, 3
    projection_ok = bilinear_ok = oracle_ok = True
    for _ in range(100):
        f = np.array(
            [[rng.uniform_range(-2, 2) for _ in range(m)] for _ in range(n)]
        )
        y1 = np.array(
            [[rng.uniform() for _ in range(c)] for _ in range(n)]
        )
        y2 = np.array(
            [[rng.uniform() for _ in range(c)] for _ in range(n)]
        )

        oracle = np.zeros((n, m * c))
        for i in range(n):
            for a in range(m):
                for b in range(c):
                    oracle[i, a * c + b] = f[i, a] * y1[i, b]
        if not np.array_equal(_kron_pair(f, y1), oracle):
            oracle_ok = False

        hot = ad.one_hot([rng.randint(c) for _ in range(n)], c)
        proj = _kron_pair(f, hot)
        for i in range(n):
            b = int(np.argmax(hot[i]))
            block = proj[i].reshape(m, c)
            if not np.array_equal(block[:, b], f[i]):
                projection_ok = False
            rest = np.delete(block, b, axis=1)
            if np.any(rest != 0.0):
                projection_ok = False

        lhs = _kron_pair(f, y1 + y2)
        rhs = _kron_pair(f, y1) + _kron_pair(f, y2)
        if np.max(np.abs(lhs - rhs)) >= 1e-12:
            bilinear_ok = False
        if np.max(np.abs(_kron_pair(2.0 * f, y1) - 2.0 * _kron_pair(f, y1))) \
                >= 1e-12:
            bilinear_ok = False

    ok = projection_ok and bilinear_ok and oracle_ok
    announce(
        capsys, 3, "Kronecker identities", ok,
        f"100 random pairs: nested-loop agreement {oracle_ok}, one-hot "
        f"projection {projection_ok}, bilinearity within 1e-12 {bilinear_ok}",
    )


# ---------------------------------------------------------------------------
# 4. loss analytics


def test_criterion_4_loss_analytics(capsys):
    uniform_ok = True
    worst_uniform = 0.0
    for c in (2, 3, 4, 10):
        tape = Tape()
        probs = tape.variable(np.full((6, c), 1.0 / c))
        labels = ad.one_hot([i % c for i in range(6)], c)
        ly = dm.classification_loss(probs, labels)
        err = abs(float(ly.value) - math.log(c))
        worst_uniform = max(worst_uniform, err)
        if err >= 1e-9:
            uniform_ok = False

    rng = Prng(7)
    entropy_ok = True
    for _ in range(50):
        c = 2 + rng.randint(9)
        raw = np.array([[rng.uniform() + 1e-3 for _ in range(c)]
                        for _ in range(4)])
        probs = raw / raw.sum(axis=1, keepdims=True)
        tape = Tape()
        lh = float(dm.entropy_loss(tape.variable(probs)).value)
        if not 0.0 <= lh <= math.log(c) + 1e-12:
            entropy_ok = False
    tape = Tape()
    hot = tape.variable(ad.one_hot([0, 1, 2], 3))
    onehot_entropy = float(dm.entropy_loss(hot).value)
    entropy_ok = entropy_ok and abs(onehot_entropy) <= 1e-11

    tape = Tape()
    half_src = tape.variable(np.full((4, 1), 0.5))
    half_tgt = tape.variable(np.full((3, 1), 0.5))
    ld = float(dm.domain_loss(half_src, half_tgt).value)
    balance_err = abs(ld - 2.0 * math.log(2.0))
    balance_ok = balance_err < 1e-9

    model, xs, ys, xt = gc.build_tiny_instance()
    tape = Tape()
    ws = dm.bind(model.parameters(), tape)
    g = dm.build_training_graph(model, ws, xs, ys, xt, 0.7, 0.6, 1.0)
    lyv, lhv, ldv = float(g.ly.value), float(g.lh.value), float(g.ld.value)
    expected = (lyv + 0.6 * lhv) + 1.0 * ldv
    comp_err = abs(float(g.total.value) - expected)
    comp_ok = comp_err <= math.ulp(expected)

    ok = uniform_ok and entropy_ok and balance_ok and comp_ok
    announce(
        capsys, 4, "loss analytics", ok,
        f"uniform L_Y vs ln c err {worst_uniform:.1e}, one-hot entropy "
        f"{onehot_entropy:.1e}, balanced L_D err {balance_err:.1e}, "
        f"composition err {comp_err:.1e} <= 1 ulp",
    )


# ---------------------------------------------------------------------------
# 5. residual identity at initialization


def test_criterion_5_residual_identity(capsys):
    model = dm.DartModel(
        4, (8,), 5, 3, rng=Prng(derive_seed(5, STREAM_INIT)),
    )
    rng = Prng(99)
    x = np.array(
        [[rng.uniform_range(-3, 3) for _ in range(4)] for _ in range(100)]
    )
    _, target, source = dm.forward_features(model, x)
    same = np.array_equal(source, target)
    announce(
        capsys, 5, "residual identity", same,
        "fresh model: source and target predictions bitwise equal on "
        "100 random inputs",
    )


# ---------------------------------------------------------------------------
# 6. schedules


def test_criterion_6_schedules(capsys):
    start_zero = tr.lambda_schedule(0.0, 1.0, 2.5) == 0.0
    grid = [tr.lambda_schedule(i / 1000, 1.0, 2.5) for i in range(1001)]
    monotone = all(a < b for a, b in zip(grid, grid[1:]))
    saturation = tr.lambda_schedule(1.0, 1.0, 10.0)
    saturation_ok = abs(saturation - 0.99991) <= 1e-4
    eta_start = tr.lr_schedule(0, 0.01, 0.92) == 0.01
    eta_decayed = tr.lr_schedule(3000, 0.01, 0.92) == 0.01 * 0.92
    ok = start_zero and monotone and saturation_ok and eta_start and eta_decayed
    announce(
        capsys, 6, "schedules", ok,
        f"lambda(0)=0 {start_zero}, monotone on 1001-point grid {monotone}, "
        f"lambda(1;1,10)={saturation:.6f}, eta(0)=eta0 {eta_start}, "
        f"eta(3000)=0.92*eta0 exact {eta_decayed}",
    )


# ---------------------------------------------------------------------------
# 7. adaptation ordering


def test_criterion_7_adaptation_ordering(capsys, adaptation_sweep):
    reports = adaptation_sweep["reports"]
    means = {
        variant: float(np.mean([r.target_accuracy for r in rs]))
        for variant, rs in reports.items()
    }
    gap = means["full"] - means["source_only"]
    elapsed = adaptation_sweep["elapsed"]
    ok = gap >= 0.05 and means["full"] >= means["dart_c"] and elapsed < 300.0
    announce(
        capsys, 7, "adaptation ordering", ok,
        f"mean target acc: full {means['full']:.3f}, dart_c "
        f"{means['dart_c']:.3f}, source_only {means['source_only']:.3f}; "
        f"gap {100 * gap:+.1f} pts >= 5; sweep {elapsed:.0f}s < 300s",
    )


# ---------------------------------------------------------------------------
# 8. A-distance ordering


def test_criterion_8_a_distance_ordering(capsys, adaptation_sweep):
    reports = adaptation_sweep["reports"]
    med_full = float(np.median([r.a_distance for r in reports["full"]]))
    med_src = float(np.median([r.a_distance for r in reports["source_only"]]))
    control = adaptation_sweep["control"]
    ok = med_full < med_src and abs(control) < 0.3
    announce(
        capsys, 8, "A-distance ordering", ok,
        f"median d_A: full {med_full:.3f} < source_only {med_src:.3f}; "
        f"identical-distribution control {control:+.3f} within 0.3",
    )


# ---------------------------------------------------------------------------
# 9. determinism


def test_criterion_9_determinism(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "steps=40\nbatch=16\nseed=6\nlog_every=10\ntask.per_class=25\n",
        encoding="ascii",
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    rc_a = cli.main(["train", "--config", str(cfg), "--out", str(out_a)])
    rc_b = cli.main(["train", "--config", str(cfg), "--out", str(out_b)])
    metrics_same = filecmp.cmp(
        out_a / "metrics.csv", out_b / "metrics.csv", shallow=False,
    )
    ckpt_same = filecmp.cmp(
        out_a / "model.ckpt", out_b / "model.ckpt", shallow=False,
    )
    ok = rc_a == 0 and rc_b == 0 and metrics_same and ckpt_same
    announce(
        capsys, 9, "determinism", ok,
        f"two runs, same config: metrics byte-identical {metrics_same}, "
        f"checkpoints byte-identical {ckpt_same}",
    )


# ---------------------------------------------------------------------------
# 10. IDX ingestion


def test_criterion_10_idx_ingestion(capsys, tmp_path):
    pixel_bytes = bytes([0, 51, 102, 153, 204, 255, 10, 20])
    img = struct.pack(">IIII", 0x00000803, 2, 2, 2) + pixel_bytes
    lab = struct.pack(">II", 0x00000801, 2) + bytes([3, 7])
    img_path, lab_path = tmp_path / "im.idx", tmp_path / "lab.idx"
    img_path.write_bytes(img)
    lab_path.write_bytes(lab)

    samples, labels = dd.load_idx(img_path, lab_path)
    expected = np.frombuffer(pixel_bytes, dtype=np.uint8).reshape(2, 4) / 255.0
    parse_ok = (
        np.array_equal(samples, expected)
        and np.array_equal(labels, ad.one_hot([3, 7], 10))
        and labels.shape[1] == 10
    )

    bad_magic = tmp_path / "bad.idx"
    bad_magic.write_bytes(struct.pack(">IIII", 0x00000804, 2, 2, 2)
                          + pixel_bytes)
    with pytest.raises(DataFormatError, match="bad image magic"):
        dd.load_idx(bad_magic, lab_path)

    bad_label_magic = tmp_path / "badlab.idx"
    bad_label_magic.write_bytes(struct.pack(">II", 0x00000802, 2)
                                + bytes([3, 7]))
    with pytest.raises(DataFormatError, match="bad label magic"):
        dd.load_idx(img_path, bad_label_magic)

    short = tmp_path / "short.idx"
    short.write_bytes(img[:-3])
    with pytest.raises(DataFormatError, match="expected 8 pixel bytes, got 5"):
        dd.load_idx(short, lab_path)

    short_lab = tmp_path / "shortlab.idx"
    short_lab.write_bytes(lab[:-1])
    with pytest.raises(DataFormatError, match="expected 2 label bytes, got 1"):
        dd.load_idx(img_path, short_lab)

    announce(
        capsys, 10, "IDX ingestion", parse_ok,
        "2-image fixture parses exactly; wrong-magic and truncated files "
        "raise the documented format errors",
    )
