"""Network forwards, losses, wiring flags, and checkpoint round-trips."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dart import autodiff as ad
from dart import model as dm
from dart.autodiff import Tape
from dart.errors import ContractError, DataFormatError, ShapeError
from dart.rng import Prng

from conftest import mutate_bytes


def tiny_model(rng=None, **kw):
    kw.setdefault("input_dim", 2)
    kw.setdefault("hidden", ())
    kw.setdefault("feature_dim", 2)
    kw.setdefault("class_count", 3)
    kw.setdefault("domain_hidden", 4)
    return dm.DartModel(rng=rng, **kw)


def scalar(var):
    return float(var.value)


def classifier_probs(m, f):
    """Target and source probabilities for features ``f``: an identity
    extractor makes the features equal the inputs."""
    m.set_parameter("extractor.0.weight", np.eye(m.input_dim))
    _, target, source = dm.forward_features(m, f)
    return target, source


# ---------------------------------------------------------------------------
# forward_features


def test_features_zero_weights_give_zero_output():
    m = dm.DartModel(2, (3,), 2, 3, rng=None)
    out = dm.forward_features(m, [[1.0, -2.0], [0.5, 4.0]])[0]
    assert np.all(out == 0.0)


def test_features_identity_single_layer():
    m = tiny_model()
    m.set_parameter("extractor.0.weight", np.eye(2))
    x = np.array([[1.5, -2.0], [0.0, 3.0]])
    assert np.array_equal(dm.forward_features(m, x)[0], x)


def test_features_hand_computed_product():
    m = tiny_model()
    m.set_parameter("extractor.0.weight", [[1.0, 2.0], [3.0, 4.0]])
    m.set_parameter("extractor.0.bias", [0.5, -1.0])
    out = dm.forward_features(m, [[1.0, 1.0]])[0]
    # [1*1 + 1*3 + 0.5, 1*2 + 1*4 - 1] by hand
    assert out.tolist() == [[4.5, 5.0]]


def test_features_width_mismatch():
    m = tiny_model()
    with pytest.raises(ShapeError):
        dm.forward_features(m, np.zeros((3, 5)))


def test_features_inner_relu_applied():
    m = dm.DartModel(2, (2,), 2, 3, rng=None)
    m.set_parameter("extractor.0.weight", np.eye(2))
    m.set_parameter("extractor.1.weight", np.eye(2))
    out = dm.forward_features(m, [[-3.0, 2.0]])[0]
    assert out.tolist() == [[0.0, 2.0]]


# ---------------------------------------------------------------------------
# target / source classifier forwards


def test_target_probs_zero_logits_uniform():
    m = tiny_model()
    probs, _ = classifier_probs(m, np.zeros((4, 2)))
    assert np.allclose(probs, 1.0 / 3.0, atol=1e-15)


def test_target_probs_saturated_logit():
    m = tiny_model()
    m.set_parameter("bottleneck.weight", [[1000.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    probs, _ = classifier_probs(m, [[1.0, 0.0]])
    assert probs[0, 0] == pytest.approx(1.0)


def test_target_probs_unit_feature_selects_bottleneck_row():
    m = tiny_model()
    m.set_parameter("bottleneck.weight", [[1.0, 2.0, 3.0], [9.0, 9.0, 9.0]])
    probs, _ = classifier_probs(m, [[1.0, 0.0]])
    # softmax([1, 2, 3]) evaluated directly
    expected = [0.09003057317038046, 0.24472847105479767, 0.6652409557748219]
    assert np.allclose(probs[0], expected, atol=1e-15)


def test_source_equals_target_at_zero_init_bitwise():
    rng = Prng(3)
    m = dm.DartModel(3, (), 3, 4, rng=rng)
    prng = Prng(5)
    for _ in range(100):
        f = np.array([[prng.uniform_range(-3, 3) for _ in range(3)]])
        t, s = classifier_probs(m, f)
        assert np.array_equal(s, t)


def test_source_probs_residual_saturation():
    m = tiny_model()
    # constant perturbation of +1000 on class 1 via the residual output bias
    m.set_parameter("residual.fc2.bias", [0.0, 1000.0, 0.0])
    _, probs = classifier_probs(m, [[0.3, -0.2]])
    assert probs[0, 1] == pytest.approx(1.0)


def test_source_probs_match_standalone_recomputation():
    rng = Prng(11)
    m = tiny_model(rng=rng)
    # small random residual weights so the perturbation is active
    p = Prng(13)
    m.set_parameter(
        "residual.fc2.weight",
        [[p.uniform_range(-0.5, 0.5) for _ in range(3)] for _ in range(3)],
    )
    f = np.array([[0.8, -1.1], [2.0, 0.4]])
    _, got = classifier_probs(m, f)

    # independent numpy recomposition
    p = m.parameters()
    z = f @ p["bottleneck.weight"] + p["bottleneck.bias"]
    h = np.maximum(z @ p["residual.fc1.weight"] + p["residual.fc1.bias"], 0.0)
    delta = h @ p["residual.fc2.weight"] + p["residual.fc2.bias"]
    logits = z + delta
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    want = e / e.sum(axis=1, keepdims=True)
    assert np.allclose(got, want, atol=1e-12)


# ---------------------------------------------------------------------------
# domain classifier forward


def domain_prob(m, joint):
    """The model's domain head on a fresh tape; numpy in and out."""
    tape = Tape()
    p = m.parameters()
    ws = [tape.variable(p[f"domain.{k}"])
          for k in ("fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias")]
    return dm.domain_head(tape.variable(np.asarray(joint, float)), *ws).value


def test_domain_zero_weights_gives_half():
    m = tiny_model()
    # features [[1, 2], [0, -1]] fused with labels [[1, 0, 0], [0, 1, 0]]
    joint = [[1.0, 0.0, 0.0, 2.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, -1.0, 0.0]]
    d = domain_prob(m, joint)
    assert d.shape == (2, 1)
    assert np.all(d == 0.5)


def test_domain_matches_hand_composed_pipeline():
    m = dm.DartModel(2, (), 2, 2, domain_hidden=2, rng=None)
    w1 = np.array(
        [[0.3, -0.1], [0.2, 0.5], [-0.4, 0.1], [0.6, -0.2]]
    )
    b1 = np.array([0.05, -0.05])
    w2 = np.array([[0.7], [-0.3]])
    b2 = np.array([0.1])
    m.set_parameter("domain.fc1.weight", w1)
    m.set_parameter("domain.fc1.bias", b1)
    m.set_parameter("domain.fc2.weight", w2)
    m.set_parameter("domain.fc2.bias", b2)

    # features [[1, 2]] fused with labels [[0, 1]], feature-major
    joint = np.array([[0.0, 1.0, 0.0, 2.0]])
    got = domain_prob(m, joint)

    h = np.maximum(joint @ w1 + b1, 0.0)
    want = 1.0 / (1.0 + np.exp(-(h @ w2 + b2)))
    assert np.allclose(got, want, atol=1e-12)
    assert np.all((got > 0.0) & (got < 1.0))


def test_domain_output_clamped_inside_open_interval():
    m = tiny_model()
    m.set_parameter("domain.fc2.bias", [1000.0])
    d = domain_prob(m, np.zeros((1, 6)))
    assert d[0, 0] < 1.0
    assert d[0, 0] == 1.0 - dm.DOMAIN_PROB_EPS


# ---------------------------------------------------------------------------
# losses


def test_classification_loss_perfect_prediction_near_zero():
    tape = Tape()
    y = np.array([[1.0, 0.0], [0.0, 1.0]])
    pred = tape.variable(np.array([[1.0 - 1e-12, 1e-12], [1e-12, 1.0 - 1e-12]]))
    assert scalar(dm.classification_loss(pred, y)) <= 1e-11


def test_classification_loss_uniform_is_log_c():
    tape = Tape()
    y = np.eye(4)
    pred = tape.variable(np.full((4, 4), 0.25))
    got = scalar(dm.classification_loss(pred, y))
    assert got == pytest.approx(1.3862943611198906, abs=1e-12)


def test_classification_loss_direct_value():
    tape = Tape()
    pred = tape.variable(np.array([[0.7, 0.2, 0.1]]))
    got = scalar(dm.classification_loss(pred, np.array([[1.0, 0.0, 0.0]])))
    assert got == pytest.approx(0.35667494393873245, abs=1e-12)


def test_classification_loss_rejects_soft_labels():
    tape = Tape()
    pred = tape.variable(np.full((1, 2), 0.5))
    with pytest.raises(ContractError):
        dm.classification_loss(pred, np.array([[0.9, 0.1]]))
    with pytest.raises(ContractError):
        dm.classification_loss(pred, np.array([[1.0, 1.0]]))


def test_entropy_loss_bounds_and_values():
    tape = Tape()
    one_hot = tape.variable(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    assert abs(scalar(dm.entropy_loss(one_hot))) <= 1e-11
    uniform = tape.variable(np.full((2, 3), 1.0 / 3.0))
    assert scalar(dm.entropy_loss(uniform)) == pytest.approx(
        1.0986122886681098, abs=1e-12
    )
    half = tape.variable(np.array([[0.5, 0.5, 0.0]]))
    assert scalar(dm.entropy_loss(half)) == pytest.approx(
        0.6931471805599453, abs=1e-12
    )


def test_entropy_loss_within_log_c_on_random_rows():
    rng = Prng(17)
    for c in (2, 3, 10):
        logits = np.array(
            [[rng.uniform_range(-4, 4) for _ in range(c)] for _ in range(8)]
        )
        tape = Tape()
        p = ad.softmax_rows(tape.variable(logits))
        v = scalar(dm.entropy_loss(p))
        assert 0.0 <= v <= math.log(c) + 1e-9


def test_domain_loss_values():
    tape = Tape()
    near_one = tape.variable(np.full((3, 1), 1.0 - 1e-12))
    near_zero = tape.variable(np.full((3, 1), 1e-12))
    assert scalar(dm.domain_loss(near_one, near_zero)) <= 1e-10

    half_s = tape.variable(np.full((4, 1), 0.5))
    half_t = tape.variable(np.full((2, 1), 0.5))
    assert scalar(dm.domain_loss(half_s, half_t)) == pytest.approx(
        2.0 * math.log(2.0), abs=1e-9
    )

    s = tape.variable(np.array([[0.8]]))
    t = tape.variable(np.array([[0.3]]))
    assert scalar(dm.domain_loss(s, t)) == pytest.approx(
        0.5798184952529422, abs=1e-12
    )


def test_domain_loss_rejects_out_of_interval():
    tape = Tape()
    ok = tape.variable(np.array([[0.5]]))
    bad = tape.variable(np.array([[1.0]]))
    with pytest.raises(ContractError):
        dm.domain_loss(bad, ok)
    with pytest.raises(ContractError):
        dm.domain_loss(ok, tape.variable(np.array([[0.0]])))


def test_total_loss_weighting():
    tape = Tape()

    def const(v):
        return tape.variable(np.asarray(v))

    assert scalar(dm.total_loss(const(1.0), const(1.0), const(1.0), 0.6, 1.0)) == 2.6
    assert scalar(dm.total_loss(const(0.37), const(0.0), const(0.0), 5.0, 9.0)) == 0.37
    got = scalar(dm.total_loss(const(0.3567), const(0.6931), const(0.5798), 0.6, 1.0))
    assert got == pytest.approx(1.35236, abs=5e-6)


def test_total_loss_composition_within_one_ulp():
    rng = Prng(19)
    tape = Tape()
    for _ in range(50):
        ly, lh, ld = (rng.uniform_range(0, 3) for _ in range(3))
        alpha, beta = rng.uniform_range(0, 2), rng.uniform_range(0, 2)
        got = scalar(
            dm.total_loss(
                tape.variable(np.asarray(ly)),
                tape.variable(np.asarray(lh)),
                tape.variable(np.asarray(ld)),
                alpha,
                beta,
            )
        )
        want = ly + alpha * lh + beta * ld
        assert abs(got - want) <= math.ulp(want)


# ---------------------------------------------------------------------------
# training graph wiring


def batch_fixture(m, ns=4, nt=4, seed=23):
    rng = Prng(seed)
    xs = np.array(
        [[rng.uniform_range(-2, 2) for _ in range(m.input_dim)] for _ in range(ns)]
    )
    xt = np.array(
        [[rng.uniform_range(-2, 2) for _ in range(m.input_dim)] for _ in range(nt)]
    )
    ys = ad.one_hot([rng.randint(m.class_count) for _ in range(ns)], m.class_count)
    return xs, ys, xt


def test_training_graph_losses_are_consistent():
    m = tiny_model(rng=Prng(29))
    xs, ys, xt = batch_fixture(m)
    tape = Tape()
    g = dm.build_training_graph(m, tape, xs, ys, xt, lam=0.5, alpha=0.6, beta=1.0)
    total = scalar(g.total)
    parts = scalar(g.ly) + 0.6 * scalar(g.lh) + 1.0 * scalar(g.ld)
    assert abs(total - parts) <= math.ulp(parts)
    assert scalar(g.ly) >= 0.0
    assert 0.0 <= scalar(g.lh) <= math.log(m.class_count) + 1e-9
    assert scalar(g.ld) >= 0.0


def test_lambda_zero_blocks_domain_gradient_to_features():
    m = tiny_model(rng=Prng(31))
    xs, ys, xt = batch_fixture(m)
    tape = Tape()
    g = dm.build_training_graph(m, tape, xs, ys, xt, lam=0.0, alpha=0.6, beta=1.0)
    grads = ad.backward(tape, g.ld)
    for name in m.feature_param_names():
        assert np.all(grads[g.bound.params[name].vid] == 0.0), name
    # the domain classifier itself still learns
    d_grads = [grads[g.bound.params[n].vid] for n in m.domain_param_names()]
    assert any(np.any(gr != 0.0) for gr in d_grads)


def test_adversarial_direction_grl_vs_identity():
    # gradient of the domain loss through the reversal layer equals
    # -lam times the gradient with the reversal replaced by identity
    m = tiny_model(rng=Prng(37))
    xs, ys, xt = batch_fixture(m)

    def feature_grads(lam):
        tape = Tape()
        g = dm.build_training_graph(m, tape, xs, ys, xt, lam=lam, alpha=0.0, beta=1.0)
        grads = ad.backward(tape, g.ld)
        return {n: grads[g.bound.params[n].vid] for n in m.feature_param_names()}

    base = feature_grads(1.0)  # lam=1 keeps magnitude, flips sign once
    for lam in (0.0, 0.5, 1.0, 2.0):
        got = feature_grads(lam)
        for name in base:
            assert np.array_equal(got[name], lam * base[name]), (lam, name)
    near = feature_grads(0.7)
    for name in base:
        ref = 0.7 * base[name]
        assert np.allclose(near[name], ref, rtol=1e-12, atol=1e-15)


def test_marginal_wiring_never_builds_fusion(kron_calls):
    m = tiny_model(rng=Prng(41), domain_on_joint=False)
    xs, ys, xt = batch_fixture(m)
    tape = Tape()
    g = dm.build_training_graph(m, tape, xs, ys, xt, lam=0.5, alpha=0.6, beta=1.0)
    ad.backward(tape, g.total)
    assert len(kron_calls) == 0


def test_joint_wiring_builds_two_fusions_per_pass(kron_calls):
    m = tiny_model(rng=Prng(43))
    xs, ys, xt = batch_fixture(m)
    tape = Tape()
    dm.build_training_graph(m, tape, xs, ys, xt, lam=0.5, alpha=0.6, beta=1.0)
    assert len(kron_calls) == 2


def test_residual_disabled_gets_zero_gradient():
    m = tiny_model(rng=Prng(47), use_residual=False)
    xs, ys, xt = batch_fixture(m)
    tape = Tape()
    g = dm.build_training_graph(m, tape, xs, ys, xt, lam=0.5, alpha=0.6, beta=1.0)
    grads = ad.backward(tape, g.total)
    for name in m.residual_param_names():
        assert np.all(grads[g.bound.params[name].vid] == 0.0), name


def test_stop_pseudo_label_grad_cuts_bottleneck_path_from_domain_loss():
    # the only route from the domain loss to the bottleneck runs through
    # the predicted target distribution in the fusion; cutting it zeroes
    # the bottleneck gradient of that loss
    m = tiny_model(rng=Prng(53))
    xs, ys, xt = batch_fixture(m)

    def bottleneck_grad(stop):
        tape = Tape()
        g = dm.build_training_graph(
            m, tape, xs, ys, xt, lam=1.0, alpha=0.0, beta=1.0,
            stop_pseudo_label_grad=stop,
        )
        grads = ad.backward(tape, g.ld)
        return grads[g.bound.params["bottleneck.weight"].vid]

    assert np.all(bottleneck_grad(True) == 0.0)
    assert np.any(bottleneck_grad(False) != 0.0)


def test_hardened_pseudo_labels_are_one_hot_in_fusion():
    m = tiny_model(rng=Prng(59))
    xs, ys, xt = batch_fixture(m)
    tape = Tape()
    g = dm.build_training_graph(
        m, tape, xs, ys, xt, lam=1.0, alpha=0.6, beta=1.0,
        harden_pseudo_labels=True,
    )
    grads = ad.backward(tape, g.ld)
    # hardening severs the pseudo-label path just like the stop flag
    assert np.all(grads[g.bound.params["bottleneck.weight"].vid] == 0.0)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bitwise(tmp_path):
    m = dm.DartModel(3, (4,), 2, 3, domain_hidden=5, rng=Prng(61))
    path = tmp_path / "model.ckpt"
    dm.save_checkpoint(m, path)
    loaded = dm.load_checkpoint(path)
    assert loaded.hidden == m.hidden
    assert loaded.domain_on_joint == m.domain_on_joint
    for name, arr in m.parameters().items():
        assert np.array_equal(loaded.parameters()[name], arr), name


def test_checkpoint_rewrite_is_byte_identical(tmp_path):
    m = tiny_model(rng=Prng(67))
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    dm.save_checkpoint(m, p1)
    dm.save_checkpoint(m, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_bad_header(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("NOTACKPT\n")
    with pytest.raises(DataFormatError) as exc:
        dm.load_checkpoint(path)
    assert "DARTCKPT1" in str(exc.value)


def test_checkpoint_truncated(tmp_path):
    m = tiny_model(rng=Prng(71))
    path = tmp_path / "model.ckpt"
    dm.save_checkpoint(m, path)
    text = path.read_text().splitlines()
    path.write_text("\n".join(text[: len(text) // 2]) + "\n")
    with pytest.raises(DataFormatError):
        dm.load_checkpoint(path)


def test_checkpoint_preserves_ablation_wiring(tmp_path):
    m = tiny_model(rng=Prng(73), domain_on_joint=False, use_residual=False)
    path = tmp_path / "m.ckpt"
    dm.save_checkpoint(m, path)
    loaded = dm.load_checkpoint(path)
    assert loaded.domain_on_joint is False
    assert loaded.use_residual is False


# the residual output bias block of the tiny model's checkpoint
RESIDUAL_BIAS_BLOCK = b"param residual.fc2.bias 3\n0.0 0.0 0.0\n"


def zero_checkpoint_bytes(tmp_path):
    # a zero-initialized model: every parameter row reads "0.0 0.0 ..."
    path = tmp_path / "zero.ckpt"
    dm.save_checkpoint(tiny_model(), path)
    return path.read_bytes()


@pytest.mark.parametrize("old, new", [
    (b"meta feature_dim 2\n", b"meta feature_dim\n"),
    (b"meta input_dim 2\n", b"meta input_dim 2\xe9\n"),
    (b"0.0", b"abc"),
    (b"param bottleneck.weight 2 3\n", b"param\n"),
    (b"0.0", b"nan"),
    (b"meta class_count 3\n", b"meta class_count 1\n"),
    (b"meta domain_hidden 4\n", b"meta domain_hidden 0\n"),
    (b"meta input_dim 2\n", b"meta input_dim 1000000000000000\n"),
    (RESIDUAL_BIAS_BLOCK, b""),
    (RESIDUAL_BIAS_BLOCK, RESIDUAL_BIAS_BLOCK * 2),
], ids=["meta-without-value", "non-ascii", "non-number", "bare-param",
        "nan", "one-class", "zero-width", "huge-width", "missing-block",
        "repeated-block"])
def test_malformed_checkpoint_is_data_format_error(tmp_path, old, new):
    raw = zero_checkpoint_bytes(tmp_path)
    assert old in raw
    path = tmp_path / "bad.ckpt"
    path.write_bytes(raw.replace(old, new, 1))
    with pytest.raises(DataFormatError):
        dm.load_checkpoint(path)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_checkpoint_loads_or_is_data_format_error(tmp_path, data):
    path = tmp_path / "fuzz.ckpt"
    path.write_bytes(mutate_bytes(data, zero_checkpoint_bytes(tmp_path)))
    try:
        dm.load_checkpoint(path)
    except DataFormatError:
        pass


def test_set_parameter_validates():
    m = tiny_model()
    with pytest.raises(ContractError):
        m.set_parameter("nope.weight", np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        m.set_parameter("bottleneck.weight", np.zeros((5, 5)))


@pytest.mark.parametrize("width", [
    {"hidden": (0,)}, {"feature_dim": 0}, {"residual_hidden": 0},
    {"domain_hidden": 0},
], ids=lambda w: next(iter(w)))
def test_zero_width_layer_rejected(width):
    with pytest.raises(ContractError):
        tiny_model(**width)
