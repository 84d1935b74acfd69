"""dart-uda benchmark: one command, one workload per process.

    python3 perfbench/run.py --workload blobs-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (closed loop, one caller, sequential):

* ``blobs-sweep``: in-process ``dart ablate`` on the blobs config (300
  points per domain, batch 32) over one seed: the four variants, 1000
  steps each, each followed by accuracy and a 2000-step A-distance probe.
  Arrays are at most 32x64, so a step is per-op Python overhead, tape
  bookkeeping and sampling; this is the shape cross-run batching targets.
  1000 steps rather than the default 3000 keep a repeat near 7 s, so
  several repeats fit a run (see ``end_to_end``).
* ``blobs-run``: ``dart train`` (3000 steps) then ``dart eval`` of its
  checkpoint on the same config. Same tiny-op layers, one run, so
  cross-run batching is bypassed and any per-run cost it adds shows here.
* ``idx-wide``: ``dart train`` (300 steps) and ``dart eval`` on a
  synthetic 28x28, 10-class IDX pair of 600 images written from the seed
  with ``data.write_idx``; hidden=256, feature_dim=64, batch=64. Matmul
  and kron FLOPs and the 5.4 MB text checkpoint dominate instead of
  per-op overhead.

The program receives only the generated config (and IDX files). A repeat
is a fresh import of dart followed by the workload's commands; repeats use
the same inputs and start while ``--seconds`` has not run out. Each repeat
records a timeline of marks at its coarse spans and every few training or
probe steps, with a calibration kernel timed at each mark; end-to-end
times are medians over the repeats of the times read from the timeline,
scaled by the kernel's speed (see ``normalised``). With ``--trace 0`` the
last stdout line carries the end-to-end metrics; with ``--trace 1`` the run
makes one untraced and one traced repeat and reports per-layer metrics.
The line before it holds the environment, output digests, per-repeat
samples and any failed checks.
Every command is checked: exit code 0, expected outputs present, accuracy
floors, output digests equal across repeats and between the traced and
untraced repeats, and (traced) the variant wiring seen in the kron_rows
call counts.
"""

import os

# One BLAS thread. With the default two threads on two cores, OpenBLAS
# spins on a busy core and a 64x784 product slowed 40x under any outside
# load; single-threaded it was also faster on idle cores for these sizes.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["DART_LOG"] = "quiet"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracer import OPS, Tracer  # noqa: E402

VARIANTS = ("full", "dart_c", "dart_s", "source_only")

# Floors on every evaluated model. Source accuracy was >= 0.94 for all four
# variants on blobs seeds 1-24, at 1000 and 3000 steps. Target accuracy on
# blobs is not floored: adversarial training collapses on some seeds
# (0.37-0.69 for full on 10 of seeds 1-24 at 3000 steps), so any floor
# that holds on every seed sits at chance.
SRC_FLOOR = 0.9
TGT_FLOOR = {"idx-wide": 0.9}

WORKLOADS = ("blobs-sweep", "blobs-run", "idx-wide")

BLOBS_KEYS = ["batch=32", "task.kind=blobs", "task.classes=3", "task.per_class=100"]
IDX_KEYS = ["steps=300", "batch=64", "hidden=256", "feature_dim=64",
            "task.kind=idx", "task.scale=0.8", "task.rotation=0",
            "task.translation=0"]
IDX_SIDE, IDX_CLASSES, IDX_PER_CLASS = 28, 10, 60

# The calibration kernel's time in the host's fast state (5th percentile
# of 5000 runs on a 2-vCPU VM, numpy 2.4.6 with scipy-openblas 0.3.31,
# Python 3.11): end-to-end times are given as on a host where the kernel
# takes this long (see ``normalised``).
REF_CALIBRATION_S = 0.32e-3

OUTPUTS = {
    "train": ("metrics.csv", "model.ckpt"),
    "eval": ("results.csv", "report.txt"),
    "ablate": ("results.csv", "reports.txt"),
}

# Spans whose first call in a repeat is set-up: the import of dart, then
# the config parse, the task build (data generation or IDX load, shift,
# normalisation) and the model initialisation of the first command.
SETUP_SPANS = ("import", "cli.parse_config", "cli.build_task", "training.build_model")


# ---------------------------------------------------------------------------
# Inputs


def write_inputs(workload, seed, work):
    """Writes the workload's config (and IDX pair); returns the config path."""
    dart_seed = seed % (1 << 63)
    if workload == "blobs-sweep":
        keys = BLOBS_KEYS + ["steps=1000", f"seed={dart_seed}", f"seeds={dart_seed}"]
    elif workload == "blobs-run":
        keys = BLOBS_KEYS + ["steps=3000", f"seed={dart_seed}"]
    else:
        images, labels = work / "images.idx", work / "labels.idx"
        write_idx_pair(seed, images, labels)
        keys = IDX_KEYS + [f"seed={dart_seed}", f"task.images={images}",
                           f"task.labels={labels}"]
    path = work / "workload.cfg"
    path.write_text("\n".join(keys) + "\n", encoding="ascii")
    return path


def write_idx_pair(seed, images, labels):
    """Each class is a template of three Gaussian strokes; a sample is its
    template at a random contrast plus pixel noise, clipped to [0, 1]."""
    from dart import data as dd

    gen = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:IDX_SIDE, 0:IDX_SIDE]
    templates = []
    for _ in range(IDX_CLASSES):
        t = np.zeros((IDX_SIDE, IDX_SIDE))
        for _ in range(3):
            cy, cx = gen.uniform(4, IDX_SIDE - 4, 2)
            width = gen.uniform(2.0, 4.0)
            t += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * width * width))
        templates.append(np.clip(t, 0.0, 1.0).ravel())
    classes = np.repeat(np.arange(IDX_CLASSES), IDX_PER_CLASS)
    gen.shuffle(classes)
    contrast = gen.uniform(0.6, 1.0, (classes.size, 1))
    x = np.asarray(templates)[classes] * contrast
    x = np.clip(x + gen.normal(0.0, 0.2, x.shape), 0.0, 1.0)
    ds = dd.Dataset(samples=x, labels=dd.one_hot(classes.tolist(), IDX_CLASSES),
                    domain_tag="source", class_count=IDX_CLASSES)
    dd.write_idx(ds, images, labels, IDX_SIDE, IDX_SIDE)


def commands(workload, cfg, out):
    if workload == "blobs-sweep":
        return [("ablate", ["ablate", "--config", str(cfg), "--out", str(out)])]
    return [
        ("train", ["train", "--config", str(cfg), "--out", str(out)]),
        ("eval", ["eval", "--config", str(cfg), "--out", str(out),
                  "--checkpoint", str(out / "model.ckpt")]),
    ]


# ---------------------------------------------------------------------------
# A fresh import of dart


def import_dart(tracer):
    """Imports dart afresh between two marks; returns the modules. numpy
    stays imported: its import is not dart's cost."""
    for name in [n for n in sys.modules if n == "dart" or n.startswith("dart.")]:
        del sys.modules[name]
    tracer.mark("import>")
    importlib.import_module("dart.cli")
    tracer.mark("import<")
    names = ("autodiff", "model", "training", "rng", "evaluation", "data", "cli")
    return {n: sys.modules[f"dart.{n}"] for n in names}


# ---------------------------------------------------------------------------
# Commands and their checks


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def run_command(cli, tracer, workload, kind, argv, out):
    """Runs one dart command in-process and checks what it wrote."""
    runs_before = len(tracer.runs)
    sink = io.StringIO()
    t0 = time.perf_counter()
    tracer.mark(f"command.{kind}>")
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
    except Exception as exc:  # an uncaught error is a failed operation, not a crash
        code = f"{type(exc).__name__}: {exc}"
    tracer.mark(f"command.{kind}<")
    seconds = time.perf_counter() - t0
    cmd = {"kind": kind, "seconds": seconds, "problems": [], "digests": {},
           "rows": [], "runs": tracer.runs[runs_before:]}
    if code != 0:
        cmd["problems"].append(f"{kind} exited with {code}")
        return cmd
    for name in OUTPUTS[kind]:
        path = out / name
        if path.is_file():
            cmd["digests"][name] = digest(path)
        else:
            cmd["problems"].append(f"{kind} did not write {name}")
    if kind != "train" and "results.csv" in cmd["digests"]:
        check_results(cmd, workload, out / "results.csv")
    return cmd


def check_results(cmd, workload, path):
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    expected = len(VARIANTS) if workload == "blobs-sweep" else 1
    if len(rows) != expected:
        cmd["problems"].append(f"results.csv has {len(rows)} rows, expected {expected}")
    for r in rows:
        src, tgt, da = float(r["src_acc"]), float(r["tgt_acc"]), float(r["a_distance"])
        name = f"{r['variant']} seed {r['seed']}"
        if src < SRC_FLOOR:
            cmd["problems"].append(f"{name}: src_acc {src} below {SRC_FLOOR}")
        if tgt < TGT_FLOOR.get(workload, 0.0):
            cmd["problems"].append(f"{name}: tgt_acc {tgt} below {TGT_FLOOR[workload]}")
        if not -2.0 <= da <= 2.0:
            cmd["problems"].append(f"{name}: a_distance {da} outside [-2, 2]")
    cmd["rows"] = rows


def check_wiring(cmd):
    """dart_c never fuses; every other variant fuses twice per step."""
    for run in cmd["runs"]:
        want = 0 if run["variant"] == "dart_c" else 2 * run["steps"]
        if run["kron_calls"] != want:
            cmd["problems"].append(
                f"{run['variant']}: {run['kron_calls']} kron_rows calls, expected {want}")


def run_repeat(workload, cfg, out, fine=False, calibrated=False):
    """A fresh import of dart, then the workload's commands, with coarse
    spans (and fine spans if ``fine``) on the freshly imported modules."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    tracer = Tracer(calibrated)
    mods = import_dart(tracer)
    tracer.install_coarse(mods)
    if fine:
        tracer.install_fine()
    try:
        cmds = [run_command(mods["cli"], tracer, workload, kind, argv, out)
                for kind, argv in commands(workload, cfg, out)]
    finally:
        tracer.uninstall()
    return {"commands": cmds, "tracer": tracer, "out": out}


def compare_repeats(reference, repeat, label):
    """Output digests, and the timeline's marks (the control flow), must
    match the reference repeat's."""
    for ref, cmd in zip(reference["commands"], repeat["commands"]):
        if cmd["digests"] != ref["digests"]:
            cmd["problems"].append(f"{cmd['kind']} outputs differ from {label}")
    if marks(repeat["tracer"].events) != marks(reference["tracer"].events):
        repeat["commands"][0]["problems"].append(f"timeline marks differ from {label}")


# ---------------------------------------------------------------------------
# Metrics


def median(values):
    return statistics.median(values) if values else 0.0


def step_ms(runs):
    steps = sum(r["steps"] for r in runs)
    return 1e3 * sum(r["seconds"] for r in runs) / steps if steps else 0.0


def marks(timeline):
    return [label for label, _, _ in timeline]


def normalised(timeline, ref=None):
    """The timeline as ``(label, time)`` with the calibration kernel's runs
    cut out. With ``ref``, each gap between marks is scaled by ``ref`` over
    the mean of the calibrations at its two ends: the time the work would
    have taken on a host where the kernel takes ``ref`` seconds.

    On a shared host the CPU alternates between a fast state and one up to
    ~1.8x slower, CPU time as much as wall time; it stays in either for
    seconds to minutes, so whole runs can fall in one state. The kernel,
    run at every mark (10-120 ms of work apart), slows with it: over
    1-s blocks of blobs training its time tracked the step time with
    r = 0.94 and a log-log slope of 0.9, and scaling by it cut the spread
    of 10-30 s windows from 0.10-0.16 to 0.04-0.05 (IQR over median).
    """
    t, out = 0.0, [(timeline[0][0], 0.0)]
    for (_, t0, c0), (label, t1, c1) in zip(timeline, timeline[1:]):
        gap = t1 - (t0 + c0)
        t += gap * ref / ((c0 + c1) / 2) if ref else gap
        out.append((label, t))
    return out


def span_durations(timeline):
    """name -> durations of its spans, in order, from the start/end marks."""
    starts, spans = {}, defaultdict(list)
    for label, t in timeline:
        if label.endswith(">"):
            starts[label[:-1]] = t
        elif label.endswith("<"):
            spans[label[:-1]].append(t - starts.pop(label[:-1]))
    return spans


def timings(timeline, steps):
    """End-to-end times on one timeline. train and eval are per run: a
    train and an eval command, or, inside ablate, model build plus
    training and the rest of the run; probe_s is the median probe."""
    d = span_durations(timeline)
    train = d["command.train"] or [b + t for b, t in
                                   zip(d["training.build_model"], d["training.train_loop"])]
    evals = d["command.eval"] or [a - t for a, t in zip(d["evaluation.run_ablation"], train)]
    return {
        "setup_s": sum(d[name][0] for name in SETUP_SPANS if d[name]),
        "wall_s": sum(t for kind in OUTPUTS for t in d[f"command.{kind}"]),
        "train_s": statistics.fmean(train) if train else 0.0,
        "eval_s": statistics.fmean(evals) if evals else 0.0,
        "step_ms": 1e3 * sum(d["training.train_loop"]) / steps if steps else 0.0,
        "probe_s": median(d["evaluation.a_distance"]),
    }


def end_to_end(repeats, failed, attempted):
    """Medians over the repeats of their calibrated times (``normalised``);
    the samples also hold each repeat's measured times."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    steps = sum(r["steps"] for r in repeats[0]["tracer"].runs)
    timelines = [rep["tracer"].events for rep in repeats]
    scaled = [timings(normalised(tl, REF_CALIBRATION_S), steps) for tl in timelines]
    measured = [timings(normalised(tl), steps) for tl in timelines]
    values = {k: statistics.median(t[k] for t in scaled) for k in scaled[0]}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["ok_frac"] = (attempted - failed) / attempted
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    samples = {"repeats": len(timelines), "marks": len(timelines[0]),
               "calibrated": {k: [t[k] for t in scaled] for k in scaled[0]},
               "measured": {k: [t[k] for t in measured] for k in measured[0]}}
    return metrics, samples


def per_layer(traced, untraced):
    """Layer metrics of the traced repeat. Per-step values divide the
    train-phase totals by the steps trained; ``_s`` values are medians per
    call and read 0 where the workload never calls the function."""
    tracer = traced["tracer"]
    runs = tracer.runs
    steps = sum(r["steps"] for r in runs) or 1
    d = tracer.durations

    def step_us(name, field=1):  # field 1: total time, 2: self time
        return tracer.row("train", name)[field] * 1e6 / steps, "us"

    def per_call(name):
        return median(d.get(name, [])), "s"

    def per_step(counter, unit):
        return tracer.counts[("train", counter)] / steps, unit

    m = {}
    for op in OPS:
        m[f"autodiff.{op}.fwd_us"] = step_us(f"autodiff.{op}.fwd")
        m[f"autodiff.{op}.bwd_us"] = step_us(f"autodiff.{op}.bwd")
        m[f"autodiff.{op}.calls"] = tracer.row("train", f"autodiff.{op}.fwd")[0] / steps, "count"
    m["autodiff.variable_us"] = step_us("autodiff.variable")
    m["autodiff.variable.calls"] = tracer.row("train", "autodiff.variable")[0] / steps, "count"
    m["autodiff.backward.self_us"] = step_us("autodiff.backward", 2)
    m["autodiff.tape_nodes"] = per_step("autodiff.tape_nodes", "count")
    m["autodiff.matmul.flops"] = per_step("autodiff.matmul.flops", "computed-flop")
    m["autodiff.kron_rows.bytes"] = per_step("autodiff.kron_rows.bytes", "computed-B")

    m["model.build_training_graph.self_us"] = step_us("model.build_training_graph", 2)
    m["model.save_checkpoint_s"] = per_call("model.save_checkpoint")
    m["model.load_checkpoint_s"] = per_call("model.load_checkpoint")
    ckpt = traced["out"] / "model.ckpt"
    m["model.checkpoint_bytes"] = ckpt.stat().st_size if ckpt.is_file() else 0, "B"
    m["model.forward_features_s"] = per_call("model.forward_features")

    iters = tracer.iterations or [0.0]
    m["training.step_us.p50"] = 1e6 * np.percentile(iters, 50), "us"
    m["training.step_us.p99"] = 1e6 * np.percentile(iters, 99), "us"
    m["training.update.self_us"] = step_us("training.train_step", 2)
    m["training.sampler_us"] = step_us("training.sampler")
    m["training.train_loop_s"] = median([r["seconds"] for r in runs]), "s"
    ref_runs = untraced["tracer"].runs
    for v in VARIANTS:
        m[f"training.step_ms.{v}"] = step_ms([r for r in ref_runs if r["variant"] == v]), "ms"

    perm = [tracer.row(phase, "rng.permutation") for phase in ("train", "probe", "other")]
    perm_calls = sum(row[0] for row in perm)
    perm_us = 1e6 * sum(row[1] for row in perm) / perm_calls if perm_calls else 0.0
    m["rng.permutation_us"] = perm_us, "us"
    m["rng.permutation.calls"] = perm_calls, "count"
    m["rng.next_u64.calls"] = tracer.prng_draws(), "count"

    probes = d.get("evaluation.a_distance", [])
    probe_steps = tracer.row("probe", "autodiff.backward")[0] / len(probes) if probes else 0.0
    m["evaluation.a_distance_s"] = per_call("evaluation.a_distance")
    m["evaluation.probe_steps"] = probe_steps, "count"
    m["evaluation.accuracy_s"] = per_call("evaluation.accuracy")
    accs = [float(r["tgt_acc"]) for c in traced["commands"] for r in c["rows"]]
    m["evaluation.target_acc"] = statistics.fmean(accs) if accs else 0.0, "ratio"

    for name in ("gen_blobs", "apply_shift", "normalize_pair", "load_idx"):
        m[f"data.{name}_s"] = per_call(f"data.{name}")
    m["cli.parse_config_s"] = per_call("cli.parse_config")
    m["cli.build_task_s"] = per_call("cli.build_task")
    m["cli.command_s"] = median([c["seconds"] for c in traced["commands"]]), "s"

    # traced step time against the untraced repeat of the same commands;
    # coverage is the share of training-loop time inside the spans below it
    loop = tracer.row("train", "training.train_loop")
    m["trace.overhead"] = step_ms(runs) / step_ms(ref_runs) - 1.0, "ratio"
    m["trace.coverage"] = (loop[1] - loop[2]) / loop[1] if loop[1] else 0.0, "ratio"
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


# ---------------------------------------------------------------------------
# Environment


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
    src = hashlib.sha256()
    for path in sorted((SRC / "dart").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "processes": 1,
        "git_sha": sha,
        "src_sha256": src.hexdigest()[:16],
        "workload_seed": seed,
    }


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "dart" / "__init__.py").is_file():
        print(f"benchmark: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other run is using it


def measure(args, work):
    cfg = write_inputs(args.workload, args.seed, work)
    if args.trace:
        untraced = run_repeat(args.workload, cfg, work / "untraced")
        traced = run_repeat(args.workload, cfg, work / "traced", fine=True)
        for cmd in traced["commands"]:
            check_wiring(cmd)
        compare_repeats(untraced, traced, "the untraced repeat")
        repeats = [untraced, traced]
    else:
        repeats = []
        start = time.perf_counter()
        while not repeats or time.perf_counter() - start < args.seconds:
            repeats.append(run_repeat(args.workload, cfg, work / f"r{len(repeats)}",
                                      calibrated=True))
        for rep in repeats[1:]:
            compare_repeats(repeats[0], rep, "the first repeat")

    cmds = [c for rep in repeats for c in rep["commands"]]
    failed = sum(1 for c in cmds if c["problems"])
    if args.trace:
        metrics, samples = per_layer(traced, untraced), {"untraced_repeats": 1, "traced_repeats": 1}
    else:
        metrics, samples = end_to_end(repeats, failed, len(cmds))
    for c in cmds:
        for p in c["problems"]:
            print(f"check failed: {p}", file=sys.stderr)
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "env": environment(args.seed),
        "samples": samples,
        "digests": [c["digests"] for c in repeats[0]["commands"]],
        "problems": [p for c in cmds for p in c["problems"]],
    }
    print(json.dumps(detail, sort_keys=True))
    result = {"correct": failed == 0, "attempted": len(cmds), "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
