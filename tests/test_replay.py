"""The replay contract of a tape: a rewound tape either runs a program
with the bytes a fresh tape gives it, or refuses it (ContractError).

A replayed op checks its tag and parent ids against its record, a leaf
its kind (parameter or constant) and shape, ``backward`` that the replay
registered the whole record, and ``rewind(start)`` that every id it keeps
is a parameter leaf."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dart import autodiff as ad
from dart.errors import ContractError


# ---------------------------------------------------------------------------
# the known holes, one test each


def test_a_leaf_replayed_on_an_op_id_is_refused():
    # b would take scalar_mul's id and backward would rerun its rule:
    # {a: [3, 3]} and nothing for b
    tape = ad.Tape()
    x = tape.parameter(np.array([1.0, 2.0]))
    ad.sum_all(ad.scalar_mul(x, 3.0))
    tape.rewind()
    tape.parameter(np.array([1.0, 1.0]))
    with pytest.raises(ContractError,
                       match="replayed parameter on id 1, recorded as scalar_mul"):
        tape.parameter(np.array([1.0, 1.0]))


def _constant_times_parameter(tape, c_kind, p_kind):
    c = getattr(tape, c_kind)(np.array([1.0, 1.0]))
    p = getattr(tape, p_kind)(np.array([2.0, 3.0]))
    return c, ad.sum_all(ad.multiply(c, p))


@pytest.mark.parametrize("recorded, replayed", [
    (("constant", "parameter"), ("parameter", "parameter")),
    (("parameter", "parameter"), ("constant", "parameter")),
], ids=["parameter-on-constant", "constant-on-parameter"])
def test_a_leaf_replayed_as_another_kind_is_refused(recorded, replayed):
    # multiply's rule keeps the constant flag it read when it recorded,
    # so a parameter on a constant's id would get [0, 0], not [2, 3]
    tape = ad.Tape()
    _constant_times_parameter(tape, *recorded)
    constants = set(tape.constants)
    tape.rewind()
    with pytest.raises(ContractError, match=f"replayed {replayed[0]} on id 0, "
                                            f"recorded as {recorded[0]}"):
        _constant_times_parameter(tape, *replayed)
    assert tape.constants == constants


def test_an_op_replayed_on_other_parents_is_refused():
    # multiply(a, a) on multiply(a, b)'s record: the loss would read 5.0,
    # and backward give {a: [5, 7], b: [1, 2]}, not {a: [2, 4], b: [0, 0]}
    tape = ad.Tape()
    a, b = tape.parameter(np.array([1.0, 2.0])), tape.parameter(np.array([3.0, 5.0]))
    ad.sum_all(ad.multiply(a, b))
    tape.rewind()
    a, b = tape.parameter(np.array([1.0, 2.0])), tape.parameter(np.array([3.0, 5.0]))
    with pytest.raises(ContractError, match=r"replayed multiply on id 2, recorded "
                                            r"as multiply; parents \(0, 0\), "
                                            r"recorded \(0, 1\)"):
        ad.multiply(a, a)


def test_a_refused_op_leaves_the_record_as_it_was():
    # the op saves its record on the parameter's id before register
    # refuses it; the recorded program must still replay afterwards
    tape = ad.Tape()
    x, w = tape.parameter(np.ones(2)), tape.parameter(np.array([2.0, 3.0]))
    ad.sum_all(ad.multiply(x, w))
    tape.rewind()
    x = tape.parameter(np.ones(2))
    with pytest.raises(ContractError, match="recorded as a leaf"):
        ad.relu(x)
    tape.rewind()
    x, w = tape.parameter(np.ones(2)), tape.parameter(np.array([2.0, 3.0]))
    loss = ad.sum_all(ad.multiply(x, w))
    assert ad.backward(tape, loss)[x.vid].tolist() == [2.0, 3.0]


def test_backward_refuses_a_replay_that_stops_short():
    # c is never registered again, so backward would zero its destination
    # and report it as a leaf of this pass
    tape = ad.Tape()
    a, b = tape.parameter(np.array([1.0, 2.0])), tape.parameter(np.array([3.0, 5.0]))
    ad.sum_all(ad.multiply(a, b))
    dest = np.full(2, 7.0)
    c = tape.parameter(np.array([4.0, 6.0]), dest)
    ad.sum_all(ad.multiply(c, c))
    tape.rewind()
    a, b = tape.parameter(np.array([1.0, 2.0])), tape.parameter(np.array([3.0, 5.0]))
    first = ad.sum_all(ad.multiply(a, b))
    with pytest.raises(ContractError, match="replayed up to id 4 of the 7"):
        ad.backward(tape, first)
    assert dest.tolist() == [7.0, 7.0]


def test_a_rewind_outside_the_record_is_refused():
    tape = ad.Tape()
    ad.sum_all(tape.parameter(np.ones(2)))
    tape.rewind(1)
    for start in (3, -1):
        with pytest.raises(ContractError,
                           match=f"rewind to id {start}, outside the 2 recorded"):
            tape.rewind(start)


@pytest.mark.parametrize("start", [2, 3])
def test_a_rewind_that_keeps_an_op_is_refused(start):
    # ids 0: a parameter, 1: relu of it, 2: a constant; the kept relu
    # would keep last step's output
    tape = ad.Tape()
    relu = ad.relu(tape.parameter(np.array([1.0, -2.0])))
    ad.sum_all(ad.multiply(relu, tape.constant(np.ones(2))))
    with pytest.raises(ContractError, match=f"rewind to id {start} keeps id 1, "
                                            f"recorded as relu"):
        tape.rewind(start)


def test_a_rewind_that_keeps_a_constant_is_refused():
    # the kept constant would keep last step's input
    tape = ad.Tape()
    c = tape.constant(np.ones(2))
    p = tape.parameter(np.array([2.0, 3.0]))
    ad.sum_all(ad.multiply(c, p))
    with pytest.raises(ContractError, match="rewind to id 2 keeps id 0, "
                                            "recorded as constant"):
        tape.rewind(2)


def test_a_rewind_keeps_the_parameters_below_its_start():
    # the kept parameter keeps its array and its destination
    tape, fresh = ad.Tape(), ad.Tape()
    dest, fresh_dest = np.full(2, 7.0), np.full(2, 7.0)
    p = tape.parameter(np.array([1.0, -2.0]), dest)
    ad.backward(tape, ad.sum_all(ad.multiply(p, tape.constant(np.ones(2)))))
    tape.rewind(1)
    loss = ad.sum_all(ad.multiply(p, tape.constant(np.array([3.0, 5.0]))))
    ad.backward(tape, loss)
    fresh_p = fresh.parameter(np.array([1.0, -2.0]), fresh_dest)
    fresh_loss = ad.sum_all(ad.multiply(fresh_p,
                                        fresh.constant(np.array([3.0, 5.0]))))
    ad.backward(fresh, fresh_loss)
    assert loss.value.tobytes() == fresh_loss.value.tobytes()
    assert dest.tobytes() == fresh_dest.tobytes()
    assert tape.values[0] is p.value and tape.grad_out[0] is dest


# ---------------------------------------------------------------------------
# random programs: a replay of program 2 on program 1's record either is
# refused or has the bytes of a fresh tape running program 2
#
# A program is a tuple of steps. A leaf step is ("leaf", shape, kind); an
# op step is (op, picks, option): each pick chooses an operand among the
# values made so far that fit it (pick modulo their number), and option
# one of the op's settings. An op with no operand that fits is skipped.
# The program's loss is its last value if that is 0-d, else sum_all of it,
# times the scale if the program has one. A replay rewinds to a drawn
# start and keeps the recorded leaves below it; the fresh tape registers
# parameters of the same values and destinations there.

SHAPES = ((), (2,), (3,), (2, 3), (3, 3))
KINDS = ("parameter", "destination", "constant")
OPTIONS = {
    "matmul": ((False, False), (False, True), (True, False), (True, True)),
    "relu": (None,), "softmax_rows": (None,),
    "sigmoid": (None, (0.25, 0.75)),
    "gradient_reversal": (0.0, 0.5, 1.5),
    "kron_rows": (None,),
    # (complement, weight: None, "mask" or "x", scale)
    "log_eps": ((False, None, None), (True, None, None), (False, None, -0.25),
                (True, None, 2.0), (False, "mask", -0.5), (True, "mask", 1.5),
                (False, "x", -0.5), (True, "x", 2.0)),
    "add": (None,), "subtract": (None,), "multiply": (None,),
    "scalar_mul": (0.0, -0.5, 3.0), "add_bias": (None,), "mean_rows": (None,),
    "sum_all": (None,),
    "clamp": ((-0.5, 0.5),),
    "stop_gradient": (None,),
}
SCALES = (None, -0.5)


def _operands(op, picks, pool):
    """The operand Vars ``picks`` choose for ``op`` from ``pool``, or None
    when no value in the pool fits."""
    def choose(i, fits):
        fitting = [v for v in pool if fits(v.shape)]
        return fitting[picks[i] % len(fitting)] if fitting else None

    if op in ("matmul", "add_bias"):
        x = choose(0, lambda s: len(s) == 2)
        if x is None:
            return None
        if op == "add_bias":
            b = choose(1, lambda s: s == (x.shape[1],))
            return None if b is None else (x, b)
        w = choose(1, lambda s: len(s) == 2 and s[0] == x.shape[1])
        if w is None:
            return None
        b = choose(2, lambda s: s == (w.shape[1],))
        return x, w, b
    if op in ("softmax_rows", "mean_rows"):
        x = choose(0, lambda s: len(s) == 2)
        return None if x is None else (x,)
    a = choose(0, lambda s: True)
    if op == "log_eps":
        # the mask form's weight: a constant of a's shape, or None
        masks = [v for v in pool if v.shape == a.shape and v.vid in v.tape.constants]
        return a, masks[picks[1] % len(masks)] if masks else None
    if op in ("add", "subtract", "multiply"):
        return a, choose(1, lambda s: s == a.shape)
    if op == "kron_rows":
        if len(a.shape) != 2:
            return None
        return a, choose(1, lambda s: len(s) == 2 and s[0] == a.shape[0])
    return (a,)


def _apply(op, args, option):
    if op == "matmul":
        with_bias, relu = option
        if with_bias and args[2] is None:
            return None
        return ad.matmul(args[0], args[1], args[2] if with_bias else None, relu=relu)
    if op == "sigmoid":
        return ad.sigmoid(args[0]) if option is None else ad.sigmoid(args[0], *option)
    if op == "log_eps":
        complement, weight, scale = option
        if weight == "mask" and args[1] is None:
            return None
        weight = {None: None, "mask": args[1], "x": args[0]}[weight]
        return ad.log_eps(args[0], complement, scale, weight)
    if op == "clamp":
        return ad.clamp(args[0], *option)
    if op in ("gradient_reversal", "scalar_mul"):
        return getattr(ad, op)(args[0], option)
    if op == "stop_gradient":
        return ad.stop_gradient(args[0])
    return getattr(ad, op)(*args)


def _run(tape, program, seed, kept=(), kept_dests=None):
    """Registers ``program`` on ``tape`` after the leaves ``kept``, with
    their destinations ``kept_dests`` by id; returns every value registered,
    the loss and each destination by leaf id."""
    steps, scale = program
    pool, dests = list(kept), dict(kept_dests or {})
    rng = np.random.default_rng(seed)
    for step in steps:
        if step[0] == "leaf":
            _, shape, kind = step
            value = rng.uniform(-2.0, 2.0, shape)
            if kind == "constant":
                var = tape.constant(value)
            else:
                dest = np.full(shape, 7.0) if kind == "destination" else None
                var = tape.parameter(value, dest)
                if dest is not None:
                    dests[var.vid] = dest
        else:
            op, picks, option = step
            args = _operands(op, picks, pool) if pool else None
            if args is None or op != "log_eps" and None in args[:2]:
                continue
            var = _apply(op, args, OPTIONS[op][option])
            if var is None:
                continue
        pool.append(var)
    if not pool:
        pool.append(tape.parameter(rng.uniform(-2.0, 2.0, (2,))))
    last = pool[-1]
    loss = last if last.shape == () else ad.sum_all(last)
    if scale is not None:
        loss = ad.scalar_mul(loss, scale)
    return pool, loss, dests


LEAF = st.tuples(st.just("leaf"), st.sampled_from(SHAPES), st.sampled_from(KINDS))
OP = st.sampled_from(sorted(OPTIONS)).flatmap(lambda op: st.tuples(
    st.just(op), st.tuples(*[st.integers(0, 5)] * 3),
    st.integers(0, len(OPTIONS[op]) - 1)))
PROGRAM = st.tuples(
    st.lists(st.one_of(LEAF, OP), min_size=1, max_size=8).map(tuple),
    st.sampled_from(SCALES))


STARTS = st.sampled_from((0, 0, 0, 1, 2, 3))
EDITS = ("replace", "insert", "drop", "cut", "scale", "picks", "option", "kind")


@st.composite
def program_pairs(draw):
    """Program 1 and a program 2 made from it by up to three edits: a step
    replaced, inserted or dropped, an op's operands or setting or a leaf's
    kind redrawn, the program cut short, or its scale changed; with the
    same values or others. One pair in ten is two programs of their own.
    Then the seed of program 2's values and the replay's start: 0 in half
    the pairs."""
    first = draw(PROGRAM)
    if draw(st.integers(0, 9)) == 0:
        return first, draw(PROGRAM), draw(st.integers(0, 3)), draw(STARTS)
    steps, scale = list(first[0]), first[1]
    for edit in draw(st.lists(st.sampled_from(EDITS), max_size=3)):
        if edit in ("insert", "cut"):
            i = draw(st.integers(0, len(steps)))
            steps = steps[:i] if edit == "cut" else (
                steps[:i] + [draw(st.one_of(LEAF, OP))] + steps[i:])
            continue
        if edit == "scale":
            scale = draw(st.sampled_from(SCALES))
            continue
        fits = [i for i, (name, *_) in enumerate(steps)
                if edit in ("replace", "drop") or (name == "leaf") == (edit == "kind")]
        if not fits:
            continue
        i = draw(st.sampled_from(fits))
        name, a, b = steps[i]
        if edit == "replace":
            steps[i] = draw(st.one_of(LEAF, OP))
        elif edit == "drop":
            del steps[i]
        elif edit == "kind":
            steps[i] = name, a, draw(st.sampled_from(KINDS))
        elif edit == "picks":
            steps[i] = name, draw(st.tuples(*[st.integers(0, 5)] * 3)), b
        else:
            steps[i] = name, a, draw(st.integers(0, len(OPTIONS[name]) - 1))
    return first, (tuple(steps), scale), draw(st.integers(0, 3)), draw(STARTS)


def _leaf(shape, kind):
    return ("leaf", shape, kind)


@settings(max_examples=500, deadline=None)
@given(program_pairs())
# a leaf on an op's id
@example((((_leaf((2,), "parameter"), ("scalar_mul", (0, 0, 0), 2)), None),
          ((_leaf((2,), "parameter"), _leaf((2,), "parameter")), None), 0, 0))
# a parameter on a constant's id, and a constant on a parameter's id
@example((((_leaf((2,), "constant"), _leaf((2,), "parameter"),
            ("multiply", (0, 1, 0), 0)), None),
          ((_leaf((2,), "parameter"), _leaf((2,), "parameter"),
            ("multiply", (0, 1, 0), 0)), None), 0, 0))
@example((((_leaf((2,), "parameter"), _leaf((2,), "parameter"),
            ("multiply", (0, 1, 0), 0)), None),
          ((_leaf((2,), "constant"), _leaf((2,), "parameter"),
            ("multiply", (0, 1, 0), 0)), None), 0, 0))
# a replay that stops short of its record
@example((((_leaf((2,), "parameter"), _leaf((2,), "parameter"),
            ("multiply", (0, 1, 0), 0), ("sum_all", (2, 0, 0), 0),
            _leaf((2,), "destination"), ("multiply", (4, 0, 0), 0)), None),
          ((_leaf((2,), "parameter"), _leaf((2,), "parameter"),
            ("multiply", (0, 1, 0), 0)), None), 0, 0))
# an op on other parents: multiply(a, a) on multiply(a, b)'s record
@example((((_leaf((2,), "parameter"), _leaf((2,), "parameter"),
            ("multiply", (0, 1, 0), 0)), None),
          ((_leaf((2,), "parameter"), _leaf((2,), "parameter"),
            ("multiply", (0, 0, 0), 0)), None), 0, 0))
# a rewind that keeps two parameters, one with a destination, and one
# that would keep a constant
@example((((_leaf((2,), "destination"), _leaf((2,), "parameter"),
            ("multiply", (0, 1, 0), 0)), None),
          ((("multiply", (0, 1, 0), 0),), None), 1, 2))
@example((((_leaf((2,), "parameter"), _leaf((2,), "constant"),
            ("multiply", (0, 1, 0), 0)), None),
          ((("multiply", (0, 1, 0), 0),), None), 0, 2))
# the summed log_eps forms with a mask (kept leaf below it) and with x
@example((((_leaf((2, 3), "destination"), _leaf((2, 3), "constant"),
            ("log_eps", (0, 0, 0), 4)), None),
          ((_leaf((2, 3), "constant"), ("log_eps", (0, 0, 0), 4)), None), 1, 1))
@example((((_leaf((3,), "parameter"), ("log_eps", (0, 0, 0), 7)), -0.5),
          ((_leaf((3,), "destination"), ("log_eps", (0, 0, 0), 7)), -0.5), 2, 0))
def test_a_replay_is_refused_or_keeps_the_bytes_of_a_fresh_tape(pair):
    first, second, seed, start = pair
    tape = ad.Tape()
    recorded_pool, recorded_loss, recorded_dests = _run(tape, first, 0)
    ad.backward(tape, recorded_loss)
    kept = [v for v in recorded_pool if v.vid < start]
    kept_dests = {vid: d for vid, d in recorded_dests.items() if vid < start}
    try:
        tape.rewind(start)
        pool, loss, dests = _run(tape, second, seed, kept, kept_dests)
        grads = ad.backward(tape, loss)
    except ContractError:
        return
    fresh = ad.Tape()
    fresh_kept, fresh_kept_dests = [], {}
    for v in kept:
        dest = np.full(v.shape, 7.0) if v.vid in kept_dests else None
        fresh_kept.append(fresh.parameter(v.value, dest))
        if dest is not None:
            fresh_kept_dests[v.vid] = dest
    fresh_pool, fresh_loss, fresh_dests = _run(fresh, second, seed, fresh_kept,
                                               fresh_kept_dests)
    fresh_grads = ad.backward(fresh, fresh_loss)
    assert [v.vid for v in pool] == [v.vid for v in fresh_pool]
    for got, want in zip(pool + [loss], fresh_pool + [fresh_loss]):
        assert got.value.tobytes() == want.value.tobytes(), got.vid
    assert list(grads) == list(fresh_grads)
    for vid, g in grads.items():
        assert g.tobytes() == fresh_grads[vid].tobytes(), vid
    assert list(dests) == list(fresh_dests)
    for vid, dest in dests.items():
        assert dest.tobytes() == fresh_dests[vid].tobytes(), vid
