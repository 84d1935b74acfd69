"""The benchmark's hook points exist and are restored.

``perfbench/tracer.py`` times a run by replacing attributes of the dart
modules (functions such as ``data.normalize_pair`` and ``cli.build_task``,
methods such as ``Tape.register``). Installing every span here makes a
renamed or deleted hook point fail tier-1, not only the benchmark, and
checks that ``uninstall`` puts each original back.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
MODULES = ("autodiff", "model", "training", "rng", "evaluation", "data", "cli")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_every_hook_and_uninstall_restores_it():
    mods = {name: importlib.import_module(f"dart.{name}") for name in MODULES}
    tracer = load_tracer().Tracer()
    try:
        tracer.install_coarse(mods)
        tracer.install_fine()
        patched = list(tracer._patched)
    finally:
        tracer.uninstall()
    assert tracer._patched == []
    # an attribute patched twice (backward: a tick, then a span) is
    # restored to the original recorded first
    originals = {}
    for owner, attr, original in patched:
        originals.setdefault((owner, attr), original)
    assert (mods["data"], "normalize_pair") in originals
    assert (mods["cli"], "build_task") in originals
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"


def test_tracer_books_every_op_of_a_training_step(monkeypatch):
    # the benchmark's per-op rows see an op only through ad.<op> and
    # Tape.register; one full step must book each of its tape nodes once
    mods = {name: importlib.import_module(f"dart.{name}") for name in MODULES}
    ad, dd, tr = mods["autodiff"], mods["data"], mods["training"]
    tapes = []
    backward = ad.backward

    def keeping_backward(tape, loss):
        tapes.append((tape, loss))
        return backward(tape, loss)

    monkeypatch.setattr(ad, "backward", keeping_backward)
    task = dd.make_blobs_task(1, per_class=20)
    cfg = tr.TrainConfig(variant="full", total_steps=1)
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    try:
        tracer.install_coarse(mods)
        tracer.install_fine()
        model = tr.build_model(cfg, task.source, mods["rng"].Prng(1))
        tr.train_loop(model, task.source, task.target, cfg)
    finally:
        tracer.uninstall()

    [(tape, loss)] = tapes
    calls = {kind: {op: tracer.row("train", f"autodiff.{op}.{kind}")[0]
                    for op in tracer_module.OPS}
             for kind in ("fwd", "bwd")}
    assert sum(calls["fwd"].values()) == len(tape.nodes) == 30
    assert tracer.counts[("train", "autodiff.tape_nodes")] == 30
    # the rules backward runs: nodes a path from the loss reaches through
    # non-constant ids
    reached, ran = {loss.vid}, 0
    for vid, parents, _ in reversed(tape.nodes):
        if vid in reached:
            ran += 1
            reached.update(p for p in parents if p not in tape.constants)
    assert sum(calls["bwd"].values()) == ran == 30
    assert calls["bwd"] == calls["fwd"]


def test_tracer_books_a_source_only_step_without_its_zeroed_branches():
    # source_only weights the entropy and domain losses 0: every op still
    # runs forward, wiring included (2 kron_rows calls), and backward runs
    # only the rules that reach the classification loss
    mods = {name: importlib.import_module(f"dart.{name}") for name in MODULES}
    dd, tr = mods["data"], mods["training"]
    task = dd.make_blobs_task(1, per_class=20)
    cfg = tr.TrainConfig(variant="source_only", total_steps=1)
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    try:
        tracer.install_coarse(mods)
        tracer.install_fine()
        model = tr.build_model(cfg, task.source, mods["rng"].Prng(1))
        tr.train_loop(model, task.source, task.target, cfg)
    finally:
        tracer.uninstall()

    calls = {kind: sum(tracer.row("train", f"autodiff.{op}.{kind}")[0]
                       for op in tracer_module.OPS)
             for kind in ("fwd", "bwd")}
    assert calls == {"fwd": 30, "bwd": 12}
    assert tracer.row("train", "autodiff.kron_rows.fwd")[0] == 2
    assert tracer.runs[0]["kron_calls"] == 2


@pytest.mark.parametrize("variant, rules", [("full", 30), ("source_only", 12)],
                         ids=["full", "source_only"])
def test_tracer_books_each_replayed_step_like_the_first(variant, rules):
    # steps after the first replay the recorded tape through the same
    # ad.<op>, Tape.register and ad.backward calls, so three steps book
    # three times what one step books
    mods = {name: importlib.import_module(f"dart.{name}") for name in MODULES}
    dd, tr = mods["data"], mods["training"]
    task = dd.make_blobs_task(1, per_class=20)
    tracer_module = load_tracer()

    def booked(steps):
        cfg = tr.TrainConfig(variant=variant, total_steps=steps)
        tracer = tracer_module.Tracer()
        try:
            tracer.install_coarse(mods)
            tracer.install_fine()
            model = tr.build_model(cfg, task.source, mods["rng"].Prng(1))
            tr.train_loop(model, task.source, task.target, cfg)
        finally:
            tracer.uninstall()
        calls = {kind: sum(tracer.row("train", f"autodiff.{op}.{kind}")[0]
                           for op in tracer_module.OPS)
                 for kind in ("fwd", "bwd")}
        counts = {name: n for (phase, name), n in tracer.counts.items()
                  if phase == "train"}
        return calls, tracer.row("train", "autodiff.kron_rows.fwd")[0], counts

    one, three = booked(1), booked(3)
    assert one[:2] == ({"fwd": 30, "bwd": rules}, 2)
    assert three[:2] == ({"fwd": 90, "bwd": 3 * rules}, 6)
    assert set(one[2]) == {"autodiff.matmul.flops", "autodiff.kron_rows.bytes",
                           "autodiff.tape_nodes"}
    assert three[2] == {name: 3 * n for name, n in one[2].items()}
