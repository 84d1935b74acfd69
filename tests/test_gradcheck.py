"""The finite-difference oracle over the full network."""

import functools
import time

import pytest

from dart import cli
from dart import gradcheck as gc
from dart import training as tr


def test_gradcheck_passes_on_tiny_instance():
    t0 = time.time()
    report = gc.run_gradcheck()
    elapsed = time.time() - t0
    assert report.passed
    assert report.max_rel_err < 1e-4
    assert elapsed < 5.0


def test_gradcheck_sweeps_every_parameter():
    report = gc.run_gradcheck()
    # 4x3+3 extractor, 3x3+3 bottleneck, two 3x3+3 residual layers,
    # 9x4+4 and 4x1+1 domain layers
    assert report.checked == 96
    assert report.worst_param  # names the worst coordinate


def test_gradcheck_reads_the_buffer_backward_fills(monkeypatch):
    # the one backward pass has a destination for every parameter, each a
    # view of one buffer laid out like the flat parameter vector
    tapes = []
    backward = gc.ad.backward

    def spy(tape, loss):
        tapes.append(tape)
        return backward(tape, loss)

    monkeypatch.setattr(gc.ad, "backward", spy)
    report = gc.run_gradcheck()
    model = gc.build_tiny_instance()[0]
    (tape,) = tapes
    outs = [out for out in tape.grad_out if out is not None]
    assert len(outs) == len(model.parameters())
    assert all(out.base is outs[0].base for out in outs)
    assert outs[0].base.shape == (report.checked,)


@pytest.mark.parametrize("target, kwargs, checked", [
    ("DartModel", {"domain_on_joint": False}, 72),  # dart_c's wiring
    ("DartModel", {"use_residual": False}, 96),  # dart_s's wiring
    ("DartModel", {"domain_on_joint": False, "use_residual": False}, 72),
    ("build_training_graph", {"harden_pseudo_labels": True}, 96),
], ids=["marginal", "no_residual", "marginal_no_residual", "hard_pseudo_labels"])
def test_gradcheck_passes_on_every_wiring(monkeypatch, target, kwargs, checked):
    monkeypatch.setattr(gc.dm, target,
                        functools.partial(getattr(gc.dm, target), **kwargs))
    for seed in (1, 2, 3, 11):
        report = gc.run_gradcheck(seed=seed)
        assert report.passed, (seed, report)
        assert report.checked == checked


def test_gradcheck_alternate_seeds_also_pass():
    for seed in (2, 3, 11):
        assert gc.run_gradcheck(seed=seed).passed


def test_gradcheck_command_checks_the_default_instance(capsys):
    # dart gradcheck passes the config's seed, the module's default
    assert gc.DEFAULT_SEED == tr.TrainConfig().seed
    report = gc.run_gradcheck()
    assert cli.main(["gradcheck"]) == cli.EXIT_OK
    assert capsys.readouterr().out == (
        f"max relative error {report.max_rel_err:.3e} over {report.checked} "
        f"parameters (worst: {report.worst_param})\n")


@pytest.mark.parametrize("weight", ["TINY_ALPHA", "TINY_BETA"])
def test_gradcheck_passes_with_a_zero_loss_weight(monkeypatch, weight):
    # backward skips the zero-weighted term's branch; the finite
    # differences still sweep it, so its exact zeros are checked too
    monkeypatch.setattr(gc, weight, 0.0)
    report = gc.run_gradcheck()
    assert report.passed
    assert report.checked == 96


def test_gradcheck_detects_a_broken_gradient(monkeypatch):
    # sanity: the harness is actually sensitive; corrupt the backward rule
    # of the reversal layer and the check must fail
    from dart import autodiff as ad

    original = ad.gradient_reversal

    def broken(x, lam):
        return original(x, lam * 0.5)  # wrong scale behind the scenes

    monkeypatch.setattr(
        "dart.model.ad.gradient_reversal", broken, raising=True
    )
    report = gc.run_gradcheck()
    assert not report.passed
