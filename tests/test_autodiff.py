"""Tape and operator tests, anchored to hand-checkable and oracle values."""

import gc
import math
import weakref

import numpy as np
import pytest

from dart import autodiff as ad
from dart.errors import ContractError, ShapeError
from dart.rng import Prng

from conftest import central_diff_grads, max_rel_err, peak_bytes


def make_var(tape, data):
    return tape.variable(np.asarray(data, dtype=np.float64))


# ---------------------------------------------------------------------------
# tensor constructors


def test_variable_validates_dtype_and_finiteness():
    tape = ad.Tape()
    v = tape.variable([[1, 2], [3, 4]])
    assert v.shape == (2, 2)
    assert v.value.dtype == np.float64
    with pytest.raises(ContractError):
        tape.variable([1.0, float("nan")])
    with pytest.raises(ContractError):
        tape.variable([float("inf")])
    assert len(tape.values) == 1


def test_parameter_registers_the_array_as_given():
    # no copy and no finiteness scan: parameters are checked by their owner
    tape = ad.Tape()
    arr = np.array([1.0, float("nan")])
    p = tape.parameter(arr)
    assert p.value is arr and tape.leaves == [p.vid]


def test_one_hot_rows_are_exact():
    y = ad.one_hot([2, 0], 3)
    assert y.tolist() == [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
    with pytest.raises(ContractError):
        ad.one_hot([3], 3)


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    tape = ad.Tape()
    a = make_var(tape, [[1.0, 0.0], [0.0, 1.0]])
    b = make_var(tape, [[3.0, 4.0], [5.0, 6.0]])
    out = ad.matmul(a, b)
    assert out.value.tolist() == [[3.0, 4.0], [5.0, 6.0]]


def test_matmul_hand_arithmetic():
    tape = ad.Tape()
    a = make_var(tape, [[1.0, 2.0]])
    b = make_var(tape, [[3.0], [4.0]])
    assert ad.matmul(a, b).value.tolist() == [[11.0]]


def test_matmul_shape_error_names_both_shapes():
    tape = ad.Tape()
    a = make_var(tape, np.zeros((2, 3)))
    b = make_var(tape, np.zeros((2, 3)))
    with pytest.raises(ShapeError) as exc:
        ad.matmul(a, b)
    assert "(2, 3)" in str(exc.value)


def test_matmul_gradient_structure_and_finite_differences():
    rng = Prng(7)
    a_data = np.array(
        [[rng.uniform_range(-2, 2) for _ in range(4)] for _ in range(3)]
    )
    b_data = np.array(
        [[rng.uniform_range(-2, 2) for _ in range(2)] for _ in range(4)]
    )

    tape = ad.Tape()
    a = tape.variable(a_data)
    b = tape.variable(b_data)
    loss = ad.sum_all(ad.matmul(a, b))
    grads = ad.backward(tape, loss)

    # d(sum(a@b))/da[i,k] = sum_j b[k,j]: row sums of b, replicated per row.
    expected_a = np.tile(b_data.sum(axis=1), (3, 1))
    assert np.allclose(grads[a.vid], expected_a, atol=1e-12)

    def loss_fn():
        t = ad.Tape()
        return float(
            ad.sum_all(ad.matmul(t.variable(a_data), t.variable(b_data))).value
        )

    fd_a, fd_b = central_diff_grads(loss_fn, [a_data, b_data])
    assert max_rel_err(grads[a.vid], fd_a) < 1e-6
    assert max_rel_err(grads[b.vid], fd_b) < 1e-6


# (n, k, m) of every matmul the benchmark workloads record: blobs (batch
# 32, 300-row evaluation, 150-row probe) and idx-wide (batch 64, 600-row
# evaluation, 300-row probe); then k=1, n=1 and m=1 shapes
MATMUL_SHAPES = [
    (32, 2, 16), (32, 16, 8), (32, 8, 3), (32, 3, 3), (32, 24, 64),
    (32, 8, 64), (32, 64, 1), (300, 2, 16), (300, 16, 8), (300, 8, 3),
    (300, 3, 3), (150, 8, 64), (150, 64, 1),
    (64, 784, 256), (64, 256, 64), (64, 64, 10), (64, 10, 10), (64, 640, 64),
    (64, 64, 1), (600, 784, 256), (600, 256, 64), (600, 64, 10), (600, 10, 10),
    (300, 64, 64), (300, 64, 1),
    (32, 1, 64), (150, 1, 1), (1, 8, 3), (1, 784, 256), (1, 1, 1), (17, 31, 1),
]


@pytest.mark.parametrize("n, k, m", MATMUL_SHAPES)
def test_matmul_products_equal_the_operator_bitwise(n, k, m):
    rng = Prng(n * 1_000_003 + k * 1009 + m)
    a_data, b_data, g = (rng.uniform_block(r * c, -2.0, 2.0).reshape(r, c)
                         for r, c in ((n, k), (k, m), (n, m)))
    tape = ad.Tape()
    out = ad.matmul(tape.variable(a_data), tape.variable(b_data))
    ga, gb = tape.nodes[-1][2](g)
    for got, want in ((out.value, a_data @ b_data), (ga, g @ b_data.T),
                      (gb, a_data.T @ g)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# matmul's bias and ReLU: a dense layer in one node


def _dense_layers(tape, data, x_leaf, dests, fused):
    """Three dense layers and a bias-free ReLU layer on one tape: the first
    two share the weight w and the bias b, the last two the weight u. With
    ``fused`` each layer is one matmul node, else relu(add_bias(matmul)).
    ``x_leaf`` registers the input ("constant" or "variable"); ``dests``
    gives each parameter a nan-filled gradient destination. Returns the
    layer values, the gradients by leaf name and the destinations."""
    outs = {name: np.full(data[name].shape, np.nan) for name in "wbue"} if dests else {}
    x = getattr(tape, x_leaf)(data["x"])
    p = {name: tape.parameter(data[name], outs.get(name)) for name in "wbue"}

    def layer(h, w, b=None, relu=False):
        if fused:
            return ad.matmul(h, w, b, relu=relu)
        h = ad.matmul(h, w)
        if b is not None:
            h = ad.add_bias(h, b)
        return ad.relu(h) if relu else h

    h1 = layer(x, p["w"], p["b"], relu=True)
    h2 = layer(h1, p["w"], p["b"], relu=True)
    h3 = layer(h2, p["u"], p["e"])
    h4 = layer(h2, p["u"], relu=True)
    loss = ad.add(ad.sum_all(ad.multiply(h3, tape.constant(data["g3"]))),
                  ad.sum_all(ad.multiply(h4, tape.constant(data["g4"]))))
    grads = ad.backward(tape, loss)
    p["x"] = x
    return ([h.value for h in (h1, h2, h3, h4)],
            {name: grads[var.vid] for name, var in p.items()}, outs)


def _dense_data(seed):
    rng = Prng(seed)

    def draw(*shape):
        return rng.uniform_block(math.prod(shape), -1.5, 1.5).reshape(shape)

    data = {"x": draw(5, 3), "w": draw(3, 3), "b": draw(3), "u": draw(3, 2),
            "e": draw(2), "g3": draw(5, 2), "g4": draw(5, 2)}
    data["x"][0] = 0.0  # a row whose layers are their bias alone
    data["g3"][1] = [0.0, -0.0]
    return data


@pytest.mark.parametrize("x_leaf", ["constant", "variable"])
@pytest.mark.parametrize("dests", [False, True], ids=["fresh", "destinations"])
def test_matmul_with_bias_and_relu_keeps_the_bits_of_the_three_ops(x_leaf, dests):
    data = _dense_data(71)
    values, grads, outs = _dense_layers(ad.Tape(), data, x_leaf, dests, fused=True)
    want_values, want_grads, _ = _dense_layers(ad.Tape(), data, x_leaf, False,
                                               fused=False)
    for got, want in zip(values, want_values):
        assert got.tobytes() == want.tobytes()
    assert set(grads) == set(want_grads) == set("wbuex")
    for name, g in grads.items():
        assert g.tobytes() == want_grads[name].tobytes(), name
        if name in outs:
            assert g is outs[name], name
    assert (grads["x"] == 0.0).all() == (x_leaf == "constant")


def test_matmul_with_bias_and_relu_records_one_node_per_layer():
    tape = ad.Tape()
    _dense_layers(tape, _dense_data(71), "variable", True, fused=True)
    kinds = [rule.__qualname__.split(".")[0] for _, _, rule in tape.nodes]
    assert kinds[:4] == ["matmul"] * 4
    assert [parents for _, parents, _ in tape.nodes[:4]] == [
        (0, 1, 2), (5, 1, 2), (6, 3, 4), (6, 3)]


def test_a_replayed_dense_layer_keeps_the_bits_of_a_fresh_tape():
    tape = ad.Tape()
    for seed in (71, 73, 79):
        if seed != 71:
            tape.rewind()
        data = _dense_data(seed)
        values, grads, outs = _dense_layers(tape, data, "variable", True,
                                            fused=True)
        want_values, want_grads, _ = _dense_layers(ad.Tape(), data, "variable",
                                                   False, fused=False)
        assert len(tape.nodes) == 9
        for got, want in zip(values, want_values):
            assert got.tobytes() == want.tobytes()
        for name, g in grads.items():
            assert g.tobytes() == want_grads[name].tobytes(), name


@pytest.mark.parametrize("width", [2, 4])
def test_matmul_bias_of_another_width_raises_shape_error(width):
    tape = ad.Tape()
    x, w = tape.variable(np.ones((2, 3))), tape.variable(np.ones((3, 3)))
    with pytest.raises(ShapeError, match="bias"):
        ad.matmul(x, w, tape.variable(np.ones(width)), relu=True)
    with pytest.raises(ShapeError, match="bias"):
        ad.matmul(x, w, tape.variable(np.ones((1, 3))))
    assert tape.nodes == []


def test_matmul_bias_on_another_tape_is_refused():
    tape = ad.Tape()
    x, w = tape.variable(np.ones((2, 3))), tape.variable(np.ones((3, 3)))
    with pytest.raises(ContractError, match="different tapes"):
        ad.matmul(x, w, ad.Tape().variable(np.ones(3)))
    assert tape.nodes == []


# ---------------------------------------------------------------------------
# relu


def test_relu_values():
    tape = ad.Tape()
    x = make_var(tape, [-1.0, 0.0, 2.0])
    assert ad.relu(x).value.tolist() == [0.0, 0.0, 2.0]


def test_relu_all_negative_zero_output_and_gradient():
    tape = ad.Tape()
    x = make_var(tape, [-3.0, -0.5, -2.0])
    out = ad.relu(x)
    assert out.value.tolist() == [0.0, 0.0, 0.0]
    grads = ad.backward(tape, ad.sum_all(out))
    assert grads[x.vid].tolist() == [0.0, 0.0, 0.0]


def test_relu_gradient_matches_finite_differences_away_from_kink():
    rng = Prng(11)
    x_data = np.array([rng.uniform_range(-3, 3) for _ in range(20)])
    x_data = x_data[np.abs(x_data) >= 1e-4]

    tape = ad.Tape()
    x = tape.variable(x_data)
    grads = ad.backward(tape, ad.sum_all(ad.relu(x)))

    def loss_fn():
        t = ad.Tape()
        return float(ad.sum_all(ad.relu(t.variable(x_data))).value)

    (fd,) = central_diff_grads(loss_fn, [x_data])
    assert max_rel_err(grads[x.vid], fd) < 1e-6


# ---------------------------------------------------------------------------
# softmax_rows


def test_softmax_symmetric_row():
    tape = ad.Tape()
    out = ad.softmax_rows(make_var(tape, [[0.0, 0.0, 0.0]]))
    assert np.allclose(out.value, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)


def test_softmax_large_logit_is_stable():
    tape = ad.Tape()
    out = ad.softmax_rows(make_var(tape, [[1000.0, 0.0]])).value
    assert np.all(np.isfinite(out))
    assert out[0, 0] == pytest.approx(1.0)
    assert out[0, 1] < 1e-300


def test_softmax_direct_evaluation_oracle():
    tape = ad.Tape()
    out = ad.softmax_rows(make_var(tape, [[1.0, 2.0, 3.0]])).value
    # Direct evaluation: exp(1), exp(2), exp(3) normalized.
    expected = [0.09003057317038046, 0.24472847105479767, 0.6652409557748219]
    assert np.allclose(out[0], expected, atol=1e-15)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)


def test_softmax_rows_sum_to_one_and_positive():
    rng = Prng(13)
    z = np.array([[rng.uniform_range(-50, 50) for _ in range(5)] for _ in range(40)])
    tape = ad.Tape()
    s = ad.softmax_rows(tape.variable(z)).value
    assert np.all(np.abs(s.sum(axis=1) - 1.0) <= 1e-12)
    assert np.all(s > 0.0)
    assert np.all(s <= 1.0)


def test_softmax_gradient_finite_differences():
    rng = Prng(17)
    z = np.array([[rng.uniform_range(-2, 2) for _ in range(4)] for _ in range(3)])
    w = np.array([[rng.uniform_range(-1, 1) for _ in range(4)] for _ in range(3)])

    def build(t, zv):
        # weighted sum keeps the check sensitive to off-diagonal terms
        return ad.sum_all(ad.multiply(ad.softmax_rows(t.variable(zv)), t.variable(w)))

    tape = ad.Tape()
    zv = tape.variable(z)
    loss = ad.sum_all(ad.multiply(ad.softmax_rows(zv), tape.variable(w)))
    grads = ad.backward(tape, loss)

    def loss_fn():
        t = ad.Tape()
        return float(build(t, z).value)

    (fd,) = central_diff_grads(loss_fn, [z])
    assert max_rel_err(grads[zv.vid], fd) < 1e-6


# ---------------------------------------------------------------------------
# gradient reversal


def test_grl_forward_is_bitwise_identity():
    tape = ad.Tape()
    x = make_var(tape, [1.5, -2.0])
    out = ad.gradient_reversal(x, 7.0)
    assert out.value is x.value  # shared storage, bitwise identical


def test_grl_lambda_zero_gives_zero_gradient():
    tape = ad.Tape()
    x = make_var(tape, [3.0, -1.0, 4.0])
    loss = ad.sum_all(ad.gradient_reversal(x, 0.0))
    grads = ad.backward(tape, loss)
    assert np.all(grads[x.vid] == 0.0)


def test_grl_sum_gradient_hand_derivation():
    tape = ad.Tape()
    x = make_var(tape, [1.0, 2.0, 3.0])
    loss = ad.sum_all(ad.gradient_reversal(x, 2.0))
    grads = ad.backward(tape, loss)
    assert grads[x.vid].tolist() == [-2.0, -2.0, -2.0]


def test_grl_negative_lambda_rejected():
    tape = ad.Tape()
    x = make_var(tape, [1.0])
    with pytest.raises(ContractError):
        ad.gradient_reversal(x, -0.5)


def test_grl_matches_finite_differences_of_sign_flipped_objective():
    # FD sees the identity forward, so it differentiates the unreversed
    # objective; the recorded gradient must equal FD of -lam * objective.
    rng = Prng(19)
    lam = 0.7
    x_data = np.array([[rng.uniform_range(-2, 2) for _ in range(3)] for _ in range(2)])
    w_data = np.array([[rng.uniform_range(-1, 1) for _ in range(2)] for _ in range(3)])

    tape = ad.Tape()
    x = tape.variable(x_data)
    w = tape.variable(w_data)
    loss = ad.sum_all(ad.relu(ad.matmul(ad.gradient_reversal(x, lam), w)))
    grads = ad.backward(tape, loss)

    def flipped_loss():
        t = ad.Tape()
        out = ad.sum_all(ad.relu(ad.matmul(t.variable(x_data), t.variable(w_data))))
        return -lam * float(out.value)

    (fd,) = central_diff_grads(flipped_loss, [x_data])
    assert max_rel_err(grads[x.vid], fd) < 1e-6


def test_grl_law_exact_for_halving_doubling_lambdas():
    # For lam in {0, 0.5, 1, 2} scaling by -lam is exact in binary floating
    # point, so gradients must match -lam times the identity-graph gradients
    # elementwise exactly, even through a composed graph.
    rng = Prng(23)
    x_data = np.array([[rng.uniform_range(-2, 2) for _ in range(3)] for _ in range(4)])
    w_data = np.array([[rng.uniform_range(-1, 1) for _ in range(5)] for _ in range(3)])

    def grads_for(lam):
        tape = ad.Tape()
        x = tape.variable(x_data)
        w = tape.variable(w_data)
        h = ad.matmul(x, w)
        h = ad.gradient_reversal(h, lam) if lam is not None else h
        loss = ad.sum_all(ad.sigmoid(h))
        return ad.backward(tape, loss)[x.vid]

    base = grads_for(None)
    for lam in (0.0, 0.5, 1.0, 2.0):
        assert np.array_equal(grads_for(lam), -lam * base)


# ---------------------------------------------------------------------------
# kron_rows


def test_kron_one_hot_places_feature_block():
    tape = ad.Tape()
    f = make_var(tape, [[2.0, 3.0]])
    y = make_var(tape, [[0.0, 1.0, 0.0]])
    out = ad.kron_rows(f, y)
    assert out.value.tolist() == [[0.0, 2.0, 0.0, 0.0, 3.0, 0.0]]


def test_kron_zero_labels_zero_output():
    tape = ad.Tape()
    f = make_var(tape, [[1.0, -2.0, 3.0]])
    y = make_var(tape, [[0.0, 0.0]])
    assert ad.kron_rows(f, y).value.tolist() == [[0.0] * 6]


def test_kron_matches_nested_loop_oracle():
    rng = Prng(29)
    f_data = np.array([[rng.uniform_range(-2, 2) for _ in range(2)]])
    y_data = np.array([[rng.uniform_range(0, 1) for _ in range(2)]])
    tape = ad.Tape()
    out = ad.kron_rows(tape.variable(f_data), tape.variable(y_data)).value

    expected = np.zeros((1, 4))
    for i in range(1):
        for a in range(2):
            for b in range(2):
                expected[i, a * 2 + b] = f_data[i, a] * y_data[i, b]
    assert np.array_equal(out, expected)


def test_kron_oracle_agreement_random_shapes():
    rng = Prng(31)
    for _ in range(25):
        n = 1 + rng.randint(4)
        m = 1 + rng.randint(5)
        c = 1 + rng.randint(4)
        f_data = np.array([[rng.uniform_range(-3, 3) for _ in range(m)] for _ in range(n)])
        y_data = np.array([[rng.uniform_range(0, 1) for _ in range(c)] for _ in range(n)])
        tape = ad.Tape()
        got = ad.kron_rows(tape.variable(f_data), tape.variable(y_data)).value
        want = np.zeros((n, m * c))
        for i in range(n):
            for a in range(m):
                for b in range(c):
                    want[i, a * c + b] = f_data[i, a] * y_data[i, b]
        assert np.array_equal(got, want)


def test_kron_bilinearity():
    rng = Prng(37)
    n, m, c = 3, 4, 2
    f = np.array([[rng.uniform_range(-2, 2) for _ in range(m)] for _ in range(n)])
    y1 = np.array([[rng.uniform_range(0, 1) for _ in range(c)] for _ in range(n)])
    y2 = np.array([[rng.uniform_range(0, 1) for _ in range(c)] for _ in range(n)])

    def kron(fv, yv):
        t = ad.Tape()
        return ad.kron_rows(t.variable(fv), t.variable(yv)).value

    alpha = 1.7
    assert np.allclose(kron(alpha * f, y1), alpha * kron(f, y1), atol=1e-12)
    assert np.allclose(
        kron(f, y1 + y2), kron(f, y1) + kron(f, y2), atol=1e-12
    )


def test_kron_gradients_flow_to_both_operands():
    rng = Prng(41)
    f_data = np.array([[rng.uniform_range(-2, 2) for _ in range(3)] for _ in range(2)])
    y_data = np.array([[rng.uniform_range(0.1, 1) for _ in range(2)] for _ in range(2)])
    w = np.array([[rng.uniform_range(-1, 1) for _ in range(6)] for _ in range(2)])

    tape = ad.Tape()
    f = tape.variable(f_data)
    y = tape.variable(y_data)
    loss = ad.sum_all(ad.multiply(ad.kron_rows(f, y), tape.variable(w)))
    grads = ad.backward(tape, loss)

    def loss_fn():
        t = ad.Tape()
        k = ad.kron_rows(t.variable(f_data), t.variable(y_data))
        return float(ad.sum_all(ad.multiply(k, t.variable(w))).value)

    fd_f, fd_y = central_diff_grads(loss_fn, [f_data, y_data])
    assert max_rel_err(grads[f.vid], fd_f) < 1e-6
    assert max_rel_err(grads[y.vid], fd_y) < 1e-6


def test_kron_row_count_mismatch():
    tape = ad.Tape()
    f = make_var(tape, np.zeros((2, 3)))
    y = make_var(tape, np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        ad.kron_rows(f, y)


# ---------------------------------------------------------------------------
# log_eps


def test_log_eps_values():
    tape = ad.Tape()
    assert ad.log_eps(make_var(tape, [1.0])).value.tolist() == [0.0]
    out = ad.log_eps(make_var(tape, [0.0])).value
    assert out[0] == pytest.approx(-27.631021115928547, abs=1e-12)
    out_e = ad.log_eps(make_var(tape, [math.e])).value
    assert out_e[0] == pytest.approx(1.0, abs=1e-15)


def test_log_eps_gradient_zero_below_eps():
    tape = ad.Tape()
    x = make_var(tape, [0.0, 1e-15, 1e-3, 2.0])
    grads = ad.backward(tape, ad.sum_all(ad.log_eps(x)))
    g = grads[x.vid]
    assert g[0] == 0.0 and g[1] == 0.0
    assert g[2] == pytest.approx(1e3)
    assert g[3] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# backward engine


def test_backward_scalar_passthrough_seed():
    tape = ad.Tape()
    x = make_var(tape, [2.5])
    grads = ad.backward(tape, ad.sum_all(x))
    assert grads[x.vid].tolist() == [1.0]
    # a 0-d leaf gets a 0-d array, though scalar_mul's rule makes a scalar
    z = tape.parameter(np.array(2.0))
    gz = ad.backward(tape, ad.scalar_mul(z, 3.0))[z.vid]
    assert type(gz) is np.ndarray and gz.shape == () and gz == 3.0


def test_backward_fanout_accumulates():
    tape = ad.Tape()
    x = make_var(tape, [1.0, 2.0, 3.0])
    loss = ad.sum_all(ad.add(x, x))
    grads = ad.backward(tape, loss)
    assert grads[x.vid].tolist() == [2.0, 2.0, 2.0]


def test_backward_holds_a_fixed_number_of_gradients_on_a_long_chain():
    # a node's gradient is dropped once its rule has run, so a chain of 60
    # elementwise nodes holds about two gradient arrays at a time, not 60
    tape = ad.Tape()
    x = tape.parameter(np.linspace(-1.0, 1.0, 1000))
    y = x
    for _ in range(60):
        y = ad.scalar_mul(y, 1.01)
    loss = ad.sum_all(y)
    peak, grads = peak_bytes(lambda: ad.backward(tape, loss))
    expected = np.ones(1000)
    for _ in range(60):
        expected = 1.01 * expected
    assert grads[x.vid].tobytes() == expected.tobytes()
    assert peak < 5 * x.value.nbytes


def test_backward_rejects_non_scalar_loss():
    tape = ad.Tape()
    x = make_var(tape, [[1.0, 2.0]])
    with pytest.raises(ContractError):
        ad.backward(tape, x)


def test_backward_returns_zeros_for_unreached_variables():
    tape = ad.Tape()
    x = make_var(tape, [1.0])
    unused = make_var(tape, [5.0, 6.0])
    grads = ad.backward(tape, ad.sum_all(x))
    assert grads[unused.vid].tolist() == [0.0, 0.0]


def test_backward_returns_exactly_the_leaf_gradients():
    tape = ad.Tape()
    w = make_var(tape, [[1.0, -2.0]])
    x = tape.constant([[3.0], [4.0]])
    p = tape.parameter(np.array([0.5, 0.25]))
    h = ad.relu(ad.matmul(x, w))
    grads = ad.backward(tape, ad.sum_all(ad.add_bias(h, p)))
    assert list(grads) == tape.leaves == [w.vid, x.vid, p.vid]
    assert all(v.value is tape.values[v.vid] for v in (w, x, p, h))
    assert grads[w.vid].tolist() == [[7.0, 0.0]]
    assert grads[x.vid].tolist() == [[0.0], [0.0]]
    assert grads[p.vid].tolist() == [2.0, 2.0]


def _destination_graph(with_out, passes=1):
    """A loss over parameter leaves that get 0 ("none"), 1, 2 and 3
    gradient contributions, a 0-d leaf with 2, a weight that two matmuls
    share ("shared"), a matmul weight whose first contribution in backward
    order comes from another op ("mixed"), a constant operand and a
    variable without a destination ("free", 2 contributions). With
    ``with_out`` each parameter is bound with a nan-filled destination.
    ``backward`` runs ``passes`` times on the one tape. Returns the last
    pass's gradients by leaf name and the destinations."""
    rng = Prng(53)

    def draw(*shape):
        return rng.uniform_block(math.prod(shape), -1.5, 1.5).reshape(shape)

    data = {"none": draw(3, 2), "one": draw(3, 2), "two": draw(2),
            "three": draw(4, 2), "scalar": np.array(0.75),
            "shared": draw(2, 2), "mixed": draw(2, 2)}
    x, free_data = draw(4, 3), draw(4, 2)
    outs = {name: np.full(arr.shape, np.nan) for name, arr in data.items()} if with_out else {}
    tape = ad.Tape()
    v = {name: tape.parameter(arr, outs.get(name)) for name, arr in data.items()}
    free = tape.variable(free_data)
    h = ad.matmul(tape.constant(x), v["one"])
    h = ad.add(ad.matmul(h, v["shared"]), ad.matmul(ad.relu(h), v["shared"]))
    h = ad.matmul(h, v["mixed"])
    h = ad.add_bias(ad.add_bias(h, v["two"]), v["two"])
    t = v["three"]
    h = ad.add(ad.multiply(h, t), t)
    h = ad.subtract(h, ad.multiply(t, free))
    h = ad.sigmoid(ad.add(h, free))
    s = v["scalar"]
    m = ad.sum_all(ad.multiply(v["mixed"], v["mixed"]))
    loss = ad.add(ad.add(ad.add(ad.sum_all(h), s), ad.scalar_mul(s, 3.0)), m)
    for _ in range(passes):
        grads = ad.backward(tape, loss)
    v["free"] = free
    return {name: grads[var.vid] for name, var in v.items()}, outs


def test_gradient_destination_gets_the_fresh_array_bits():
    _check_destinations(passes=1)


def test_second_backward_refills_the_destinations_with_the_same_bits():
    _check_destinations(passes=2)


def _check_destinations(passes):
    fresh, _ = _destination_graph(with_out=False)
    filled, outs = _destination_graph(with_out=True, passes=passes)
    assert set(outs) == {"none", "one", "two", "three", "scalar", "shared", "mixed"}
    for name, out in outs.items():
        # backward hands back the destination itself, filled in place
        assert filled[name] is out, name
        assert out.tobytes() == fresh[name].tobytes(), name
    assert outs["none"].tobytes() == np.zeros((3, 2)).tobytes()
    assert outs["scalar"].shape == () and outs["scalar"] == 4.0
    assert filled["free"].tobytes() == fresh["free"].tobytes()
    assert not any(np.shares_memory(filled["free"], out) for out in outs.values())


def test_backward_after_a_raising_rule_refills_the_destinations(monkeypatch):
    # a pass stopped part-way leaves its sums in tape.grads and in the
    # destinations it reached; the next pass on the tape starts afresh
    fresh, _ = _destination_graph(with_out=False)
    backward = ad.backward

    def stopped_then_rerun(tape, loss):
        vid, parents, rule = tape.nodes[0]  # x @ one: its rule runs last

        def failing(g):
            raise RuntimeError("stopped")

        tape.nodes[0] = (vid, parents, failing)
        with pytest.raises(RuntimeError, match="stopped"):
            backward(tape, loss)
        tape.nodes[0] = (vid, parents, rule)
        assert tape.grads
        return backward(tape, loss)

    monkeypatch.setattr(ad, "backward", stopped_then_rerun)
    filled, outs = _destination_graph(with_out=True)
    for name, out in outs.items():
        assert filled[name] is out, name
        assert out.tobytes() == fresh[name].tobytes(), name
    assert filled["free"].tobytes() == fresh["free"].tobytes()


def test_backward_leaves_no_reference_cycle_through_the_tape():
    # a rule that held its tape would keep the tape, and the batch it
    # holds, alive until a gc pass; freed at once, the weakref dies
    x = np.linspace(-1.0, 1.0, 12).reshape(4, 3)
    ref = weakref.ref(x)
    gc.disable()
    try:
        tape = ad.Tape()
        w = tape.parameter(np.ones((3, 2)), np.empty((3, 2)))
        loss = ad.sum_all(ad.relu(ad.matmul(tape.constant(x), w)))
        ad.backward(tape, loss)
        del tape, w, loss, x
        assert ref() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# record once, replay


def _every_op_graph(tape, x, w, b, y, lam, s):
    """Each op of a training step, and mean_rows, on a constant x [4x3], a
    parameter w [3x2] with a gradient destination, a variable b [2] and a
    constant y [4x2]; returns the leaves, every value and the loss."""
    leaves = [tape.constant(x), tape.parameter(w, np.full(w.shape, np.nan)),
              tape.variable(b), tape.constant(y)]
    xv, wv, bv, yv = leaves
    r = ad.relu(ad.add_bias(ad.matmul(xv, wv), bv))
    # matmul's three other forms, one on the output of another
    h = ad.matmul(xv, wv, bv, relu=True)
    h = ad.add(ad.matmul(h, yv.tape.constant(np.eye(2)), bv), ad.matmul(xv, wv, relu=True))
    p = ad.softmax_rows(ad.add(r, h))
    q = ad.sigmoid(ad.gradient_reversal(ad.kron_rows(r, p), lam))
    c = ad.clamp(q, 0.1, 0.9)
    d = ad.subtract(ad.add(ad.multiply(ad.log_eps(p), yv), p), yv)
    loss = ad.add(ad.scalar_mul(ad.sum_all(d), s),
                  ad.sum_all(ad.mean_rows(ad.multiply(c, ad.kron_rows(yv, p)))))
    return leaves, [r, h, p, q, c, d, loss], loss


def test_a_replay_keeps_the_bytes_of_a_fresh_tape():
    # a replay writes each op's forward into the arrays it recorded and
    # reruns the recorded rules on this pass's operands, scale and lam
    rng = Prng(67)

    def draw(*shape):
        return rng.uniform_block(math.prod(shape), -2.0, 2.0).reshape(shape)

    tape = ad.Tape()
    passes = [(0.5, -0.25), (1.5, 0.0), (0.0, 2.0), (0.75, 1.0)]
    for i, (lam, s) in enumerate(passes):
        labels = ad.one_hot([i % 2, 1, (i + 1) % 2, i // 2], 2)
        args = (draw(4, 3), draw(3, 2), draw(2), labels, lam, s)
        if i:
            tape.rewind()
        leaves, values, loss = _every_op_graph(tape, *args)
        fresh_tape = ad.Tape()
        fresh_leaves, fresh_values, fresh_loss = _every_op_graph(fresh_tape, *args)
        assert len(tape.values) == len(fresh_tape.values)
        assert len(tape.nodes) == len(fresh_tape.nodes)
        for got, want in zip(values, fresh_values):
            assert got.vid == want.vid
            assert got.value.tobytes() == want.value.tobytes()
        grads = ad.backward(tape, loss)
        fresh_grads = ad.backward(fresh_tape, fresh_loss)
        assert list(grads) == list(fresh_grads)
        for vid, g in grads.items():
            assert g.tobytes() == fresh_grads[vid].tobytes(), vid
        assert grads[leaves[1].vid] is tape.grad_out[leaves[1].vid]


def test_a_replayed_fresh_value_replaces_the_recorded_node():
    # an op that makes a fresh array registers it over the recorded one,
    # with its own rule; a leaf of another shape than recorded is refused
    tape = ad.Tape()
    x = tape.parameter(np.array([1.0, -2.0]))
    y = ad.scalar_mul(x, 3.0)
    ad.sum_all(y)
    tape.rewind()
    x2 = tape.parameter(np.array([4.0, 5.0]))
    y2 = tape.register(x2.value * 2.0, (x2.vid,), lambda g: (2.0 * g,))
    loss = ad.sum_all(y2)
    assert (y2.vid, len(tape.values), len(tape.nodes)) == (y.vid, 3, 2)
    assert tape.values[y.vid] is y2.value and float(loss.value) == 18.0
    assert ad.backward(tape, loss)[x2.vid].tolist() == [2.0, 2.0]
    tape.rewind()
    with pytest.raises(ContractError, match="recorded"):
        tape.parameter(np.zeros(3))


def test_a_replay_that_puts_an_op_on_a_recorded_leaf_is_refused():
    # the op finds no node to replace at that id: the node after it is
    # left as it is, and the replay stops
    tape = ad.Tape()
    x = tape.variable(np.ones((2, 2)))
    w = tape.variable(np.ones((2, 2)))
    ad.sum_all(ad.relu(ad.matmul(x, w)))
    nodes = list(tape.nodes)
    tape.rewind()
    x = tape.variable(np.ones((2, 2)))
    with pytest.raises(ContractError, match="recorded as a leaf"):
        ad.relu(x)  # id 1 is the recorded leaf w
    assert tape.nodes == nodes


def test_a_replay_that_calls_another_op_is_refused():
    # subtract would run add's rule, and backward would return +1 for b
    tape = ad.Tape()
    a, b = tape.variable(np.ones(2)), tape.variable(np.ones(2))
    ad.sum_all(ad.add(a, b))
    nodes = list(tape.nodes)
    tape.rewind()
    a, b = tape.variable(np.ones(2)), tape.variable(np.ones(2))
    with pytest.raises(ContractError,
                       match="replayed subtract on id 2, recorded as add"):
        ad.subtract(a, b)
    assert tape.nodes == nodes


MATMUL_FORMS = {"plain": (False, False), "relu": (False, True),
                "bias": (True, False), "bias+relu": (True, True)}


@pytest.mark.parametrize("recorded", list(MATMUL_FORMS))
@pytest.mark.parametrize("replayed", list(MATMUL_FORMS))
def test_a_replay_of_matmul_in_another_form_is_refused(recorded, replayed):
    # the bias form's rule returns a third gradient, and the ReLU form's
    # masks g: each form replays only the form it recorded
    tape = ad.Tape()

    def layer(form):
        x, w = tape.variable(np.ones((2, 3))), tape.variable(np.ones((3, 2)))
        b = tape.variable(np.ones(2))
        with_bias, relu = MATMUL_FORMS[form]
        return ad.sum_all(ad.matmul(x, w, b if with_bias else None, relu=relu))

    layer(recorded)
    tape.rewind()
    if replayed == recorded:
        assert float(layer(replayed).value) == 12.0 + 4.0 * MATMUL_FORMS[recorded][0]
        assert len(tape.nodes) == 2
    else:
        with pytest.raises(ContractError, match="replayed matmul.* on id 3, "
                                                "recorded as matmul"):
            layer(replayed)


# each fused form, the two ops whose bits it keeps and the plain form,
# with a setting that a replay may change; the inputs reach the clamp, 1 - x
# below LOG_EPS, and 1 - x < 0
FUSED_FORMS = {
    "sigmoid with clamp": (lambda x, s: ad.sigmoid(x, s, 1.0 - s),
                           lambda x, s: ad.clamp(ad.sigmoid(x), s, 1.0 - s),
                           lambda x, s: ad.sigmoid(x), (0.2, 1e-12)),
    "log_eps of 1 - x": (
        lambda x, s: ad.log_eps(x, complement=True),
        lambda x, s: ad.log_eps(ad.subtract(x.tape.constant(np.ones(x.shape)), x)),
        lambda x, s: ad.log_eps(x), (None, None)),
}


@pytest.mark.parametrize("form", list(FUSED_FORMS))
def test_a_fused_form_keeps_the_bits_of_its_two_ops(form):
    # value and gradient, recorded and then replayed on new inputs and a
    # new setting, against the two ops on a fresh tape
    fused, pair, _, settings = FUSED_FORMS[form]
    rng = Prng(83)
    tape = ad.Tape()
    for i, s in enumerate(settings):
        x = rng.uniform_block(12, -40.0, 40.0).reshape(3, 4)
        x[0] = [1.0, 1.0 - 1e-13, 1.0 + 1e-9, 0.0]
        y = rng.uniform_block(12, -2.0, 2.0).reshape(3, 4)
        outs, grads = [], []
        for op, t in ((fused, tape), (pair, ad.Tape())):
            if i and t is tape:
                t.rewind()
            dest = np.full(x.shape, np.nan)
            out = op(t.parameter(x.copy(), dest), s)
            weights = t.constant(y if out.shape else np.array(1.5))
            ad.backward(t, ad.sum_all(ad.multiply(out, weights)))
            outs.append(out.value.tobytes())
            grads.append(dest.tobytes())
        assert len(tape.nodes) == 3
        assert outs[0] == outs[1]
        assert grads[0] == grads[1]


@pytest.mark.parametrize("form", list(FUSED_FORMS))
def test_a_fused_form_replays_only_the_form_it_recorded(form):
    fused, _, plain, (s, _) = FUSED_FORMS[form]
    for first, second in ((fused, plain), (plain, fused)):
        tape = ad.Tape()
        first(tape.parameter(np.full(2, 0.5)), s)
        tape.rewind()
        x = tape.parameter(np.full(2, 0.5))
        with pytest.raises(ContractError, match="replayed (sigmoid|log_eps)"
                                                ".* on id 1, recorded as"):
            second(x, s)


# each summed form of log_eps and the op chain whose bits it keeps, each
# called with a scale and a weight array, which only the mask form reads
LOG_EPS_SUMS = {
    "plain": (lambda x, s, w: ad.log_eps(x, scale=s),
              lambda x, s, w: ad.scalar_mul(ad.sum_all(ad.log_eps(x)), s)),
    "complement": (
        lambda x, s, w: ad.log_eps(x, complement=True, scale=s),
        lambda x, s, w: ad.scalar_mul(
            ad.sum_all(ad.log_eps(x, complement=True)), s)),
    "label mask": (
        lambda x, s, w: ad.log_eps(x, scale=s, weight=x.tape.constant(w)),
        lambda x, s, w: ad.scalar_mul(ad.sum_all(
            ad.multiply(ad.log_eps(x), x.tape.constant(w))), s)),
    "self-weight": (
        lambda x, s, w: ad.log_eps(x, scale=s, weight=x),
        lambda x, s, w: ad.scalar_mul(
            ad.sum_all(ad.multiply(x, ad.log_eps(x))), s)),
}


@pytest.mark.parametrize("form", list(LOG_EPS_SUMS))
def test_a_summed_log_eps_keeps_the_bits_of_its_op_chain(form):
    # value, gradient and destination, recorded and then replayed on new
    # inputs, weights and scale, against the chain on a fresh tape; the
    # inputs are at LOG_EPS, below it, near 1 and above 1
    fused, chain = LOG_EPS_SUMS[form]
    rng = Prng(89)
    tape = ad.Tape()
    for i, s in enumerate((-1.0 / 3.0, 0.7)):
        x = rng.uniform_block(12, -0.5, 1.5).reshape(3, 4)
        x[0] = [ad.LOG_EPS, ad.LOG_EPS / 2, 0.0, -1.0]
        x[1, :3] = [1.0 - ad.LOG_EPS, 1.0 - 1e-13, 1.0 + 1e-9]
        w = rng.uniform_block(12, 0.0, 1.0).reshape(3, 4)
        w += np.eye(3, 4)[[2 * i, 1, 0]]
        results = []
        for op, t in ((fused, tape), (chain, ad.Tape())):
            if i and t is tape:
                t.rewind()
            dest = np.full(x.shape, np.nan)
            out = op(t.parameter(x.copy(), dest), s, w)
            ad.backward(t, ad.scalar_mul(out, 1.5))
            results.append((out.shape, out.value.tobytes(), dest.tobytes()))
        assert len(tape.nodes) == 2
        assert results[0] == results[1]


# every form of log_eps, each called with a constant it may weight by
LOG_EPS_FORMS = {
    "elementwise": lambda x, c: ad.log_eps(x),
    "complement": lambda x, c: ad.log_eps(x, complement=True),
    "summed": lambda x, c: ad.log_eps(x, scale=0.5),
    "summed complement": lambda x, c: ad.log_eps(x, complement=True, scale=0.5),
    "label mask": lambda x, c: ad.log_eps(x, scale=0.5, weight=c),
    "self-weight": lambda x, c: ad.log_eps(x, scale=0.5, weight=x),
}


@pytest.mark.parametrize("recorded", list(LOG_EPS_FORMS))
def test_a_log_eps_form_replays_only_the_form_it_recorded(recorded):
    for replayed in LOG_EPS_FORMS:
        tape = ad.Tape()
        x = tape.parameter(np.full(2, 0.5))
        LOG_EPS_FORMS[recorded](x, tape.constant(np.ones(2)))
        tape.rewind(1)
        c = tape.constant(np.ones(2))
        if replayed == recorded:
            LOG_EPS_FORMS[replayed](x, c)
            continue
        with pytest.raises(ContractError, match="replayed log_eps.* on id 2, "
                                                "recorded as log_eps"):
            LOG_EPS_FORMS[replayed](x, c)


def test_log_eps_takes_x_or_a_constant_as_its_weight_with_a_scale():
    tape = ad.Tape()
    x, p = tape.parameter(np.full(2, 0.5)), tape.parameter(np.ones(2))
    for weight, scale in ((x, None), (p, 1.0)):
        with pytest.raises(ContractError, match="x or a constant, with a scale"):
            ad.log_eps(x, scale=scale, weight=weight)
    with pytest.raises(ShapeError, match=r"weight \(3,\) does not fit \(2,\)"):
        ad.log_eps(x, scale=1.0, weight=tape.constant(np.ones(3)))
    with pytest.raises(ContractError, match="different tapes"):
        ad.log_eps(x, scale=1.0, weight=ad.Tape().constant(np.ones(2)))
    # the refusals saved nothing: the next op records on the same id
    assert float(ad.log_eps(x, scale=1.0, weight=x).value) == math.log(0.5)
    assert len(tape.nodes) == 1


# ---------------------------------------------------------------------------
# constant leaves


def test_constant_is_a_finite_leaf():
    tape = ad.Tape()
    c = tape.constant([[1, 2]])
    assert c.value.dtype == np.float64 and tape.constants == {c.vid}
    assert len(tape.values) == 1


def test_backward_gives_constants_exact_zeros():
    tape = ad.Tape()
    w = make_var(tape, [[0.5, -1.0], [2.0, 0.25]])
    x = tape.constant([[1.0, 2.0], [3.0, -4.0]])
    ones = tape.constant(np.ones((2, 2)))
    h = ad.matmul(x, w)
    loss = ad.sum_all(ad.multiply(ad.subtract(ones, h), x))
    grads = ad.backward(tape, loss)
    for c in (x, ones):
        assert grads[c.vid].tolist() == [[0.0, 0.0], [0.0, 0.0]]
    assert np.any(grads[w.vid] != 0.0)


# second operand's shape for each op; the first is always 4x3
B_SHAPES = {ad.matmul: (3, 2), ad.kron_rows: (4, 2), ad.multiply: (4, 3)}
OUT_SHAPES = {ad.matmul: (4, 2), ad.kron_rows: (4, 6), ad.multiply: (4, 3)}


def _constant_side_graph(op, const_side, leaf):
    """loss = sum(op(a, b) * w) on a fresh tape, with the operand on
    ``const_side`` registered through ``leaf`` ("variable" or "constant")
    and the other one a parameter; returns the gradient of the parameter
    and the op's node."""
    rng = Prng(47)
    a_data = np.array([[rng.uniform_range(-2, 2) for _ in range(3)] for _ in range(4)])
    b_rows, b_cols = B_SHAPES[op]
    b_data = np.array([[rng.uniform_range(0.1, 1) for _ in range(b_cols)]
                       for _ in range(b_rows)])
    tape = ad.Tape()
    register = {"variable": tape.variable, "constant": tape.constant}
    a = (register[leaf] if const_side == 0 else tape.variable)(a_data)
    b = (register[leaf] if const_side == 1 else tape.variable)(b_data)
    out = op(a, b)
    node = tape.nodes[-1]
    w = np.linspace(-1.0, 1.0, out.value.size).reshape(out.shape)
    grads = ad.backward(tape, ad.sum_all(ad.multiply(out, tape.constant(w))))
    param = b if const_side == 0 else a
    return grads[param.vid], node


CONSTANT_SIDES = [(ad.matmul, 0), (ad.kron_rows, 0), (ad.kron_rows, 1),
                  (ad.multiply, 0), (ad.multiply, 1)]


@pytest.mark.parametrize("op, const_side", CONSTANT_SIDES)
def test_constant_operand_skips_only_its_own_product(op, const_side):
    as_variable, _ = _constant_side_graph(op, const_side, "variable")
    as_constant, (_, _, rule) = _constant_side_graph(op, const_side, "constant")
    assert as_constant.tobytes() == as_variable.tobytes()
    assert rule(np.ones(OUT_SHAPES[op]))[const_side] is None


def test_backward_composed_graph_vs_finite_differences():
    # An arbitrary composition touching every plumbing op, <= 20 parameters.
    rng = Prng(43)
    w1 = np.array([[rng.uniform_range(-1, 1) for _ in range(3)] for _ in range(2)])
    b1 = np.array([rng.uniform_range(-1, 1) for _ in range(3)])
    w2 = np.array([[rng.uniform_range(-1, 1) for _ in range(2)] for _ in range(3)])
    x_data = np.array([[0.7, -1.2], [2.0, 0.3], [-0.5, 1.1]])

    def build(t, w1v, b1v, w2v):
        x = t.variable(x_data)
        h = ad.add_bias(ad.matmul(x, t.variable(w1v)), t.variable(b1v))
        h = ad.relu(h)
        z = ad.matmul(h, t.variable(w2v))
        p = ad.softmax_rows(z)
        q = ad.sigmoid(ad.scalar_mul(z, 0.5))
        mixed = ad.subtract(ad.multiply(p, q), ad.scalar_mul(q, 0.25))
        return ad.sum_all(ad.mean_rows(ad.log_eps(ad.add(q, ad.relu(mixed)))))

    tape = ad.Tape()
    # register parameters first so their vids are stable
    w1_var = tape.variable(w1)
    b1_var = tape.variable(b1)
    w2_var = tape.variable(w2)
    x = tape.variable(x_data)
    h = ad.relu(ad.add_bias(ad.matmul(x, w1_var), b1_var))
    z = ad.matmul(h, w2_var)
    p = ad.softmax_rows(z)
    q = ad.sigmoid(ad.scalar_mul(z, 0.5))
    mixed = ad.subtract(ad.multiply(p, q), ad.scalar_mul(q, 0.25))
    loss = ad.sum_all(ad.mean_rows(ad.log_eps(ad.add(q, ad.relu(mixed)))))
    grads = ad.backward(tape, loss)

    def loss_fn():
        t = ad.Tape()
        return float(build(t, w1, b1, w2).value)

    fd = central_diff_grads(loss_fn, [w1, b1, w2])
    assert max_rel_err(grads[w1_var.vid], fd[0]) < 1e-6
    assert max_rel_err(grads[b1_var.vid], fd[1]) < 1e-6
    assert max_rel_err(grads[w2_var.vid], fd[2]) < 1e-6


# ---------------------------------------------------------------------------
# plumbing ops


def test_add_subtract_multiply_scalar_shapes_and_values():
    tape = ad.Tape()
    a = make_var(tape, [1.0, 2.0])
    b = make_var(tape, [3.0, 5.0])
    assert ad.add(a, b).value.tolist() == [4.0, 7.0]
    assert ad.subtract(a, b).value.tolist() == [-2.0, -3.0]
    assert ad.multiply(a, b).value.tolist() == [3.0, 10.0]
    assert ad.scalar_mul(a, -2.0).value.tolist() == [-2.0, -4.0]
    c = make_var(tape, [[1.0]])
    for op in (ad.add, ad.subtract, ad.multiply):
        with pytest.raises(ShapeError):
            op(a, c)


def test_add_bias_broadcasts_rows():
    tape = ad.Tape()
    x = make_var(tape, [[1.0, 2.0], [3.0, 4.0]])
    b = make_var(tape, [10.0, 20.0])
    out = ad.add_bias(x, b)
    assert out.value.tolist() == [[11.0, 22.0], [13.0, 24.0]]
    grads = ad.backward(tape, ad.sum_all(out))
    assert grads[b.vid].tolist() == [2.0, 2.0]
    assert grads[x.vid].tolist() == [[1.0, 1.0], [1.0, 1.0]]


def test_mean_rows_value_and_gradient():
    tape = ad.Tape()
    x = make_var(tape, [[1.0, 2.0], [3.0, 6.0]])
    out = ad.mean_rows(x)
    assert out.value.tolist() == [2.0, 4.0]
    grads = ad.backward(tape, ad.sum_all(out))
    assert grads[x.vid].tolist() == [[0.5, 0.5], [0.5, 0.5]]


def test_sigmoid_stable_at_extremes():
    tape = ad.Tape()
    x = make_var(tape, [-800.0, 0.0, 800.0])
    out = ad.sigmoid(x).value
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(0.0)
    assert out[1] == pytest.approx(0.5)
    assert out[2] == pytest.approx(1.0)


def two_branch_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_equals_the_two_branch_form_bitwise():
    edges = [0.0, 1e-300, 1e-12, 0.5, 1.0, 36.0, 37.0, 745.0, 746.0, 1e308,
             np.inf, float("nan")]
    x = np.array(edges + [-v for v in edges]
                 + Prng(53).uniform_block(200, -50.0, 50.0).tolist())
    x = x.reshape(-1, 1)
    out = ad.sigmoid(ad.Tape().parameter(x)).value
    assert out.tobytes() == two_branch_sigmoid(x).tobytes()
    for v in (-3.0, -0.0, 2.0):  # a 0-d input gives a 0-d array
        out = ad.sigmoid(ad.Tape().parameter(np.array(v))).value
        assert type(out) is np.ndarray and out.shape == ()
        assert out.tobytes() == two_branch_sigmoid(np.array(v)).tobytes()


@pytest.mark.parametrize("lo, hi", [(1e-12, 1.0 - 1e-12), (0.0, 1.0),
                                    (-0.0, 0.0), (-2.0, 0.5)])
def test_clamp_equals_np_clip_bitwise(lo, hi):
    x = np.array([float("nan"), -float("nan"), np.inf, -np.inf, 0.0, -0.0,
                  lo, hi, np.nextafter(lo, -1.0), np.nextafter(hi, 2.0),
                  np.nextafter(lo, 2.0), np.nextafter(hi, -1.0), 0.25, -3.0,
                  1e-300, -1e-300, 745.0, 1.0])
    tape = ad.Tape()
    out = ad.clamp(tape.parameter(x), lo, hi).value
    assert out.tobytes() == np.clip(x, lo, hi).tobytes()
    # the rule passes g exactly where lo <= x <= hi
    g = upstream(x.shape)
    mask = (x >= lo) & (x <= hi)
    assert tape.nodes[-1][2](g)[0].tobytes() == (g * mask).tobytes()


def test_clamp_gradient_mask():
    tape = ad.Tape()
    x = make_var(tape, [-1.0, 0.2, 2.0])
    out = ad.clamp(x, 0.0, 1.0)
    assert out.value.tolist() == [0.0, 0.2, 1.0]
    grads = ad.backward(tape, ad.sum_all(out))
    assert grads[x.vid].tolist() == [0.0, 1.0, 0.0]


def test_stop_gradient_blocks_flow():
    tape = ad.Tape()
    x = make_var(tape, [1.0, 2.0])
    out = ad.stop_gradient(x)
    assert out.value is x.value
    grads = ad.backward(tape, ad.sum_all(out))
    assert grads[x.vid].tolist() == [0.0, 0.0]


# second operand of each binary op, shaped to fit a 2x2 first operand
SECOND_OPERANDS = {ad.matmul: [[1.0, 0.0], [0.0, 1.0]],
                   ad.add: [[1.0, 2.0], [3.0, 4.0]],
                   ad.subtract: [[1.0, 2.0], [3.0, 4.0]],
                   ad.multiply: [[1.0, 2.0], [3.0, 4.0]],
                   ad.add_bias: [1.0, 2.0],
                   ad.kron_rows: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}


@pytest.mark.parametrize("op", list(SECOND_OPERANDS), ids=lambda op: op.__name__)
def test_binary_op_rejects_operands_on_different_tapes(op):
    a = make_var(ad.Tape(), [[1.0, 2.0], [3.0, 4.0]])
    b = make_var(ad.Tape(), SECOND_OPERANDS[op])
    with pytest.raises(ContractError, match="different tapes"):
        op(a, b)


def test_finiteness_preserved_on_bounded_inputs():
    # Public ops keep finite inputs finite for inputs bounded in [-5, 5].
    rng = Prng(47)
    for _ in range(20):
        x_data = np.array(
            [[rng.uniform_range(-5, 5) for _ in range(4)] for _ in range(3)]
        )
        tape = ad.Tape()
        x = tape.variable(x_data)
        outs = [
            ad.relu(x),
            ad.softmax_rows(x),
            ad.sigmoid(x),
            ad.gradient_reversal(x, 2.0),
            ad.log_eps(ad.softmax_rows(x)),
            ad.kron_rows(x, ad.softmax_rows(x)),
        ]
        for out in outs:
            assert np.all(np.isfinite(out.value))
        grads = ad.backward(tape, ad.sum_all(ad.log_eps(ad.softmax_rows(x))))
        assert np.all(np.isfinite(grads[x.vid]))


# ---------------------------------------------------------------------------
# exact forms: each op's forward and backward against the plain numpy
# expressions it restates, bit for bit, on edge inputs (sigmoid and clamp
# are pinned above)

EPS = 1e-12  # dart.model.DOMAIN_PROB_EPS, the domain head's clamp
EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, EPS, 1.0 - EPS,
         np.nextafter(EPS, 0.0), np.nextafter(1.0 - EPS, 2.0),
         745.0, -745.0, 1e-300, -1e-300, 36.0, -37.0, 0.5, -3.0, 1.0]


def edge_rows(width):
    """The edge values and a random block as rows of ``width``, plus rows
    clamped at the domain head's bounds."""
    values = EDGES + Prng(59).uniform_block(4 * width, -4.0, 4.0).tolist()
    values += [EPS, 1.0 - EPS] * width
    values += [0.0] * (-len(values) % width)
    return np.array(values).reshape(-1, width)


def upstream(shape):
    n = math.prod(shape)
    g = Prng(61).uniform_block(n + 4, -2.0, 2.0)
    g[-4:] = [0.0, -0.0, 1e-300, 7.0]
    return g[-n:].reshape(shape)


def forward_and_rule(op, *operands):
    """The op's value and its backward rule, on a tape of unscanned
    leaves (so nan and inf get in)."""
    tape = ad.Tape()
    out = op(*(tape.parameter(x) for x in operands))
    return out.value, tape.nodes[-1][2]


def plain_softmax_rows(z, g):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    s = e / e.sum(axis=1, keepdims=True)
    return s, (s * (g - (g * s).sum(axis=1, keepdims=True)),)


def plain_sum_all(x, g):
    return np.asarray(x.sum()), (np.full(x.shape, float(g)),)


def plain_mean_rows(x, g):
    n = x.shape[0]
    return x.mean(axis=0), (np.broadcast_to(g / n, x.shape).copy(),)


def plain_add_bias(x, b, g):
    return x + b, (g, g.sum(axis=0))


def plain_kron_rows(f, y, g):
    n, m = f.shape
    c = y.shape[1]
    g3 = g.reshape(n, m, c)
    return ((f[:, :, None] * y[:, None, :]).reshape(n, m * c),
            ((g3 * y[:, None, :]).sum(axis=2), (g3 * f[:, :, None]).sum(axis=1)))


EXACT_FORMS = {
    "softmax_rows": (ad.softmax_rows, plain_softmax_rows, lambda: [edge_rows(3)]),
    "sum_all": (ad.sum_all, plain_sum_all, lambda: [edge_rows(3)]),
    "sum_all-finite": (ad.sum_all, plain_sum_all,
                       lambda: [edge_rows(3)[np.isfinite(edge_rows(3)).all(axis=1)]]),
    "sum_all-0d": (ad.sum_all, plain_sum_all, lambda: [np.array(-0.0)]),
    "mean_rows": (ad.mean_rows, plain_mean_rows, lambda: [edge_rows(3)]),
    "add_bias": (ad.add_bias, plain_add_bias,
                 lambda: [edge_rows(3), np.array([-0.0, np.inf, 1e-300])]),
    "kron_rows": (ad.kron_rows, plain_kron_rows,
                  lambda: [edge_rows(2)[:12], edge_rows(3)[:12]]),
}


@pytest.mark.parametrize("name", list(EXACT_FORMS))
def test_op_keeps_the_bits_of_its_plain_numpy_form(name):
    op, plain, operands = EXACT_FORMS[name]
    xs = operands()
    with np.errstate(all="ignore"):
        out, rule = forward_and_rule(op, *xs)
        g = upstream(out.shape)
        want_out, want_grads = plain(*xs, g)
        grads = rule(g)
    assert out.tobytes() == want_out.tobytes()
    assert len(grads) == len(want_grads)
    for got, want in zip(grads, want_grads):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("c", range(1, 13))
def test_kron_rows_rule_keeps_the_plain_bits_at_every_width(c):
    # the rule lays a sum out axis first only where numpy's reduce adds in
    # the same order: gf for c < 8, gy for c > 1 (m >= 8 sums pairwise)
    for n, m in [(1, 1), (5, 3), (7, 16), (32, 8)]:
        rng = Prng(71 + 13 * c + m)
        f = rng.uniform_block(n * m, -4.0, 4.0).reshape(n, m)
        y = rng.uniform_block(n * c, -4.0, 4.0).reshape(n, c)
        out, rule = forward_and_rule(ad.kron_rows, f, y)
        g = upstream(out.shape)
        for got, want in zip(rule(g), plain_kron_rows(f, y, g)[1]):
            assert got.tobytes() == want.tobytes(), (n, m)


@pytest.mark.parametrize("y, answer", [
    (np.eye(3)[[0, 2, 1, 0]], True),
    (np.array([[1.0, -0.0, 0.0], [-0.0, -0.0, 1.0]]), True),
    (np.zeros((0, 3)), True),
    (np.array([[0.5, 0.5, 0.0]]), False),
    (np.array([[1.0, 1.0, 0.0]]), False),
    (np.array([[1.0, 1e-17, 0.0]]), False),
    (np.array([[1.0, 0.0], [0.0, 0.0]]), False),
    (np.array([[2.0, 0.0], [1.0, 0.0]]), False),
    (np.array([[np.nan, 0.0], [1.0, 0.0]]), False),
    (np.array([[1.0, 1.0, -1.0]]), False),
    (np.zeros((2, 0)), False),
    (np.array([1.0, 0.0, 0.0]), False),
])
def test_is_one_hot_answers(y, answer):
    assert ad.is_one_hot(y) is answer
