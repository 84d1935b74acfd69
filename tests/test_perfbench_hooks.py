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
