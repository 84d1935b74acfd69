"""Accuracy, A-distance probe, ablation wiring, and report serialization."""

import math
from dataclasses import replace

import numpy as np
import pytest

from dart import data as dd
from dart import evaluation as ev
from dart import model as dm
from dart import training as tr
from dart.errors import ConfigError, ContractError, NumericError, ShapeError
from dart.rng import Prng


def uniform_model():
    # zero weights everywhere: both classifiers output uniform rows
    return dm.DartModel(2, (), 2, 3, domain_hidden=4, rng=None)


def labeled_ds(labels, c=3):
    n = len(labels)
    return dd.Dataset(np.zeros((n, 2)), np.eye(c)[labels], "source", c)


def target_accuracy(m, ds):
    """(overall, per-class) accuracy of the target classifier on ``ds``."""
    _, probs, _ = dm.forward_features(m, ds.samples)
    return ev.accuracy(probs, ds)


# ---------------------------------------------------------------------------
# accuracy


def test_accuracy_tie_break_toward_lowest_index():
    # uniform predictions tie every class; argmax picks index 0
    ds = labeled_ds([0, 0, 0])
    assert target_accuracy(uniform_model(), ds)[0] == 1.0
    ds_other = labeled_ds([1, 2, 1])
    assert target_accuracy(uniform_model(), ds_other)[0] == 0.0


def test_accuracy_saturated_predictions():
    m = uniform_model()
    m.set_parameter("extractor.0.weight", np.eye(2))
    m.set_parameter("bottleneck.weight", [[1000.0, 0.0, 0.0], [0.0, 1000.0, 0.0]])
    samples = np.array([[1.0, 0.0], [0.0, 1.0]])
    ds = dd.Dataset(samples, np.eye(3)[[0, 1]], "source", 3)
    assert target_accuracy(m, ds)[0] == 1.0


def test_accuracy_hand_built_three_of_four():
    m = uniform_model()
    m.set_parameter("extractor.0.weight", np.eye(2))
    m.set_parameter("bottleneck.weight", [[10.0, 0.0, 0.0], [0.0, 10.0, 0.0]])
    samples = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    labels = np.eye(3)[[0, 0, 1, 2]]  # last one is wrong on purpose
    ds = dd.Dataset(samples, labels, "source", 3)
    assert target_accuracy(m, ds)[0] == 0.75


def test_accuracy_requires_labels():
    ds = dd.Dataset(np.zeros((2, 2)), None, "target", 3)
    with pytest.raises(ContractError):
        target_accuracy(uniform_model(), ds)


@pytest.mark.parametrize("shape", [(1, 3), (4, 3), (3, 2)])
def test_accuracy_rejects_predictions_not_matching_labels(shape):
    # a single row would otherwise broadcast against every label
    with pytest.raises(ShapeError):
        ev.accuracy(np.ones(shape), labeled_ds([0, 1, 2]))


def test_accuracy_reads_sealed_labels():
    ds = dd.Dataset(np.zeros((2, 2)), None, "target", 3,
                    sealed_labels=np.eye(3)[[0, 0]])
    assert target_accuracy(uniform_model(), ds)[0] == 1.0


def test_accuracy_invariant_under_monotone_probability_transform():
    # argmax is what matters: compare source vs target classifier on a model
    # whose residual is a positive scaling of logits
    rng = Prng(3)
    m = dm.DartModel(2, (4,), 3, 3, rng=rng)
    samples = np.array([[rng.uniform_range(-2, 2), rng.uniform_range(-2, 2)]
                        for _ in range(20)])
    _, probs, _ = dm.forward_features(m, samples)
    squashed = np.sqrt(probs)  # strictly monotone per entry
    assert np.array_equal(np.argmax(probs, axis=1), np.argmax(squashed, axis=1))


@pytest.mark.filterwarnings("error")
def test_per_class_accuracy_vector():
    m = uniform_model()
    m.set_parameter("extractor.0.weight", np.eye(2))
    m.set_parameter("bottleneck.weight", [[10.0, 0.0, 0.0], [0.0, 10.0, 0.0]])
    # predictions: class 0, class 0, class 1; truth: 0, 1, 1
    samples = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    ds = dd.Dataset(samples, np.eye(3)[[0, 1, 1]], "source", 3)
    _, got = target_accuracy(m, ds)
    assert got[0] == 1.0
    assert got[1] == 0.5
    assert math.isnan(got[2])


# ---------------------------------------------------------------------------
# A-distance


def cluster_features(seed=17, n=300, d=4, wobble=0.4):
    rng = Prng(seed)
    centers = np.zeros((3, d))
    for j in range(3):
        centers[j, j] = 3.0
    rows = []
    for i in range(n):
        c = centers[i % 3]
        rows.append(c + wobble * rng.normal_block(d))
    return np.asarray(rows)


def test_a_distance_identical_tensor_near_zero():
    f = cluster_features()
    da = ev.a_distance(f, f, Prng(1))
    assert abs(da) < 0.3


def test_a_distance_separated_clouds_near_two():
    f = cluster_features()
    far = f + 4.0  # ten within-cluster standard deviations
    da = ev.a_distance(f, far, Prng(1))
    assert abs(da - 2.0) < 0.1


def test_a_distance_range_bound():
    f = cluster_features(n=40)
    g = cluster_features(seed=23, n=40) + 1.0
    da = ev.a_distance(f, g, Prng(2))
    assert -2.0 <= da <= 2.0


def test_a_distance_requires_ten_per_domain():
    f = cluster_features(n=9)
    g = cluster_features(n=30)
    with pytest.raises(ContractError):
        ev.a_distance(f, g, Prng(1))
    with pytest.raises(ContractError):
        ev.a_distance(g, f, Prng(1))


def test_a_distance_rejects_non_finite_features():
    f = cluster_features(n=30)
    g = f.copy()
    g[3, 1] = np.nan
    for a, b in ((f, g), (g, f)):
        with pytest.raises(ContractError, match="finite"):
            ev.a_distance(a, b, Prng(1))


def test_a_distance_diverging_probe_is_numeric_error(monkeypatch):
    # an overflowing step size sends the probe's weights to inf; the scan
    # after its last step reports it
    monkeypatch.setattr(ev, "PROBE_ETA", 1e300)
    f = cluster_features(n=40)
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="probe"):
        ev.a_distance(f, f + 1.0, Prng(3))


def test_a_distance_deterministic_given_rng():
    f = cluster_features(n=40)
    g = cluster_features(seed=29, n=40)
    assert ev.a_distance(f, g, Prng(5)) == ev.a_distance(f, g, Prng(5))


# ---------------------------------------------------------------------------
# ablations (short runs; the full-scale orderings live in the acceptance suite)


def short_cfg(seed=1, steps=200):
    return tr.TrainConfig(
        total_steps=steps, batch_size=16, hidden=(8,), feature_dim=4,
        domain_hidden=8, seed=seed,
    )


def test_run_ablation_produces_complete_report():
    task = dd.make_blobs_task(seed=1, per_class=30)
    report = ev.run_ablation("full", task, short_cfg())
    assert report.variant == "full"
    assert 0.0 <= report.target_accuracy <= 1.0
    assert 0.0 <= report.source_accuracy <= 1.0
    assert -2.0 <= report.a_distance <= 2.0
    assert len(report.per_class_accuracy) == 3
    assert report.config_echo["probe_steps"] == ev.PROBE_STEPS
    assert report.config_echo["alpha"] == 0.6


def test_run_ablation_dart_c_never_fuses(kron_calls):
    task = dd.make_blobs_task(seed=2, per_class=20)
    ev.run_ablation("dart_c", task, short_cfg(seed=2, steps=50))
    assert len(kron_calls) == 0


def test_run_ablation_source_only_zeroes_weights():
    task = dd.make_blobs_task(seed=3, per_class=20)
    report = ev.run_ablation("source_only", task, short_cfg(seed=3, steps=50))
    assert report.config_echo["alpha"] == 0.0
    assert report.config_echo["beta"] == 0.0


def test_evaluate_model_runs_one_forward_per_domain(monkeypatch):
    task = dd.make_blobs_task(seed=4, per_class=10)
    model = tr.build_model(short_cfg(seed=4), task.source, Prng(4))
    forwards, probed = [], []
    original = dm.forward_features

    def counting_forward(model, x):
        forwards.append(original(model, x))
        return forwards[-1]

    def recording_probe(fs, ft, rng):
        probed.append((fs, ft))
        return 0.0

    monkeypatch.setattr(dm, "forward_features", counting_forward)
    monkeypatch.setattr(ev, "a_distance", recording_probe)
    ev.evaluate_model(model, task, seed=4)
    assert len(forwards) == 2
    # the probe reads the features of those same two forwards
    (fs, ft), = probed
    assert fs is forwards[0][0] and ft is forwards[1][0]


def test_run_ablation_rejects_unknown_variant():
    task = dd.make_blobs_task(seed=4, per_class=20)
    with pytest.raises(ConfigError):
        ev.run_ablation("dann", task, short_cfg())


def test_run_ablation_refuses_what_train_loop_refuses():
    # source_only trains with alpha 0 whatever the config says, yet a
    # negative alpha is refused on both paths, before any training
    task = dd.make_blobs_task(seed=4, per_class=20)
    cfg = replace(short_cfg(), alpha=-1.0)
    with pytest.raises(ConfigError, match="alpha"):
        ev.run_ablation("source_only", task, cfg)
    with pytest.raises(ConfigError, match="alpha"):
        tr.train_loop(tr.build_model(short_cfg(), task.source, None),
                      task.source, task.target, replace(cfg, variant="source_only"))


def test_source_only_no_shift_target_matches_source_accuracy():
    # identity shift: the two domains coincide, so accuracies agree closely
    rng_task = dd.make_blobs_task(
        seed=5, per_class=50, rotation=0.0, translation=(0.0, 0.0)
    )
    report = ev.run_ablation("source_only", rng_task, short_cfg(seed=5, steps=400))
    assert abs(report.target_accuracy - report.source_accuracy) <= 0.02


def test_dart_s_equals_full_at_step_zero():
    task = dd.make_blobs_task(seed=6, per_class=20)
    cfg = short_cfg(seed=6, steps=0)
    full = tr.build_model(
        tr.TrainConfig(**{**vars(cfg), "variant": "full"}), task.source, Prng(42)
    )
    darts = tr.build_model(
        tr.TrainConfig(**{**vars(cfg), "variant": "dart_s"}), task.source,
        Prng(42)
    )
    x = task.target.samples
    f_full, _, s_full = dm.forward_features(full, x)
    f_s, _, s_s = dm.forward_features(darts, x)
    assert np.array_equal(f_full, f_s)
    assert np.array_equal(s_full, s_s)


# ---------------------------------------------------------------------------
# serialization


def make_report():
    return ev.EvalReport(
        variant="full", seed=7, target_accuracy=0.9, source_accuracy=0.95,
        a_distance=1.25, per_class_accuracy=[1.0, 0.8, 0.9],
        config_echo={"alpha": 0.6, "probe_steps": 2000},
    )


def test_serialize_report_key_value_layout():
    text = ev.serialize_report(make_report())
    lines = text.splitlines()
    assert "variant=full" in lines
    assert "seed=7" in lines
    assert "a_distance=1.25" in lines
    assert "config.alpha=0.6" in lines
    assert "config.probe_steps=2000" in lines


def test_results_csv_append_and_header(tmp_path):
    path = tmp_path / "results.csv"
    ev.append_results_csv(path, [make_report()])
    ev.append_results_csv(path, [make_report()])
    lines = path.read_text().splitlines()
    assert lines[0] == "variant,seed,src_acc,tgt_acc,a_distance"
    assert len(lines) == 3
    assert lines[1] == lines[2] == "full,7,0.95,0.9,1.25"
