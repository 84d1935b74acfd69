"""Command-line entry point.

Commands: ``dart train|eval|ablate|gradcheck --config <path> [--key value]``.
Configuration is a flat key=value file; command-line flags override file
values. All randomness flows from the single ``seed`` key through derived
streams (init, sampling, data generation, probe), so runs are bitwise
reproducible.

Exit codes: 0 success, 1 configuration error, 2 data/IO error,
3 numeric failure.
"""

import argparse
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from dart import data as dd
from dart import evaluation as ev
from dart import gradcheck as gc
from dart import model as dm
from dart import training as tr
from dart.errors import (
    ConfigError,
    ContractError,
    DataFormatError,
    NumericError,
    ShapeError,
    check_fields,
)
from dart.rng import STREAM_INIT, Prng, derive_seed

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# error class -> (exit code, message prefix), looked up along the class's MRO
EXIT_CODES = {
    ConfigError: (EXIT_CONFIG, "configuration error"),
    ContractError: (EXIT_CONFIG, "invalid request"),
    ShapeError: (EXIT_CONFIG, "invalid request"),
    DataFormatError: (EXIT_DATA, "data error"),
    OSError: (EXIT_DATA, "data error"),
    NumericError: (EXIT_NUMERIC, "numeric failure"),
    MemoryError: (EXIT_CONFIG, "out of memory"),
}

_LOG_LEVELS = ("quiet", "info", "debug")


def _log_level() -> str:
    level = os.environ.get("DART_LOG", "info").lower()
    return level if level in _LOG_LEVELS else "info"


def log(level: str, message: str) -> None:
    if _LOG_LEVELS.index(level) <= _LOG_LEVELS.index(_log_level()):
        print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# Configuration


@dataclass
class RunConfig:
    command: str = ""
    train: tr.TrainConfig = field(default_factory=tr.TrainConfig)
    task: dd.TaskConfig = field(default_factory=dd.TaskConfig)
    out_dir: str = "runs"
    overwrite: bool = False
    checkpoint: str = ""
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected a boolean: 1/0, true/false, yes/no or on/off")


def _parse_float(raw: str) -> float:
    # refuse nan and inf at the key, so the message quotes the text given
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("value must be finite")
    return value


def _parse_optional_int(raw: str) -> int | None:
    if raw in ("", "-", "none"):
        return None
    return int(raw)


def _parse_list(item, raw: str) -> tuple:
    if raw in ("", "-"):
        return ()
    return tuple(item(part) for part in raw.split(","))


# field type -> converter of the stripped raw text; _assign reports a
# ValueError as a ConfigError naming the key
_PARSERS = {float: _parse_float, int: int, str: str, bool: _parse_bool,
            int | None: _parse_optional_int,
            tuple[int, ...]: partial(_parse_list, int),
            tuple[float, ...]: partial(_parse_list, _parse_float)}

_RENAMED = {"total_steps": "steps", "batch_size": "batch", "out_dir": "out"}

# key -> (section, attribute, converter): one key per field of TrainConfig
# and TaskConfig (prefixed ``task.``) and per RunConfig field other than
# the command and those two parts, named after the field unless renamed;
# sections address RunConfig parts. A type with no parser fails a test.
_KEYS = {
    prefix + _RENAMED.get(f.name, f.name): (section, f.name, _PARSERS.get(f.type))
    for section, prefix, kind in (("train", "", tr.TrainConfig),
                                  ("task", "task.", dd.TaskConfig),
                                  ("run", "", RunConfig))
    for f in fields(kind)
    if f.name not in ("command", "train", "task")
}

# keys that also get a dedicated --KEY flag; flags win over file and --set
_FLAGS = ("alpha", "beta", "eta0", "steps", "batch", "seed", "variant",
          "seeds", "checkpoint", "out")


def _assign(cfg: RunConfig, key: str, raw: str) -> None:
    if key not in _KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    section, attr, convert = _KEYS[key]
    try:
        value = convert(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc
    target = {"train": cfg.train, "task": cfg.task, "run": cfg}[section]
    setattr(target, attr, value)


def _read_config_file(cfg: RunConfig, path: str) -> None:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DataFormatError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"config file {path} is not UTF-8: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"{path}:{lineno}: expected key=value, got {stripped!r}"
            )
        key, raw = stripped.split("=", 1)
        _assign(cfg, key.strip(), raw)


class _ArgumentParser(argparse.ArgumentParser):
    """Reports bad flags as ConfigError instead of exiting on its own."""

    def error(self, message):
        raise ConfigError(message)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="dart",
        description="Adversarial domain adaptation with joint feature-label "
                    "alignment and a residual source classifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train", "eval", "ablate", "gradcheck"):
        p = sub.add_parser(name)
        p.add_argument("--config", default="", help="key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override any config key")
        for key in _FLAGS:
            p.add_argument(f"--{key}", metavar="VALUE", help=f"sets {key}")
        p.add_argument("--overwrite", action="store_true")
    return parser


def parse_config(argv: list[str]) -> RunConfig:
    args = build_arg_parser().parse_args(argv)
    cfg = RunConfig(command=args.command)
    if args.config:
        _read_config_file(cfg, args.config)
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        _assign(cfg, key.strip(), raw)
    for key in _FLAGS:
        if getattr(args, key) is not None:
            _assign(cfg, key, getattr(args, key))
    if args.overwrite:
        cfg.overwrite = True
    if not cfg.seeds:
        raise ConfigError("seeds must list at least one seed")
    cfg.task.validate()
    cfg.train.validate()
    for seed in cfg.seeds:
        replace(cfg.train, seed=seed).validate()
    return cfg


# ---------------------------------------------------------------------------
# Task construction


def build_task(cfg: RunConfig) -> dd.Task:
    """Builds the dataset pair at the run's seed; its source sets the
    model's input width and class count."""
    return dd.make_task(cfg.task, cfg.train.seed)


def _check_batch(train: tr.TrainConfig, task: dd.Task) -> None:
    """The sampler's batch-size check, before any output is written."""
    if train.total_steps > 0:
        tr.PairedSampler(task.source, task.target, train.batch_size, train.seed)


def _refuse_overwrite(cfg: RunConfig, filenames: list[str]) -> None:
    """ConfigError if an output file exists and ``overwrite`` is off; run
    before any costly work, and changes nothing."""
    if not cfg.overwrite:
        for name in filenames:
            path = os.path.join(cfg.out_dir, name)
            if os.path.exists(path):
                raise ConfigError(
                    f"refusing to overwrite {path}; pass --overwrite to allow"
                )


def _out_path(cfg: RunConfig, name: str) -> str:
    """``name`` in the output directory, which is made here, so that a
    command that checks its input first leaves no directory on bad
    input."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


# ---------------------------------------------------------------------------
# Commands. Each checks the types of its RunConfig's fields first: a
# RunConfig built in Python has been through no parser (overwrite="no" is
# a true string).


def cmd_train(cfg: RunConfig) -> int:
    check_fields(cfg, {}, {})
    _refuse_overwrite(cfg, ["metrics.csv", "model.ckpt"])
    task = build_task(cfg)
    _check_batch(cfg.train, task)
    model = tr.build_model(cfg.train, task.source,
                           Prng(derive_seed(cfg.train.seed, STREAM_INIT)))
    metrics_path = _out_path(cfg, "metrics.csv")
    report = tr.train_loop(model, task.source, task.target, cfg.train,
                           metrics_path=metrics_path)
    ckpt_path = _out_path(cfg, "model.ckpt")
    dm.save_checkpoint(report.model, ckpt_path)
    if report.history:
        last = report.history[-1]
        log("info", f"step {last.step}: loss_total={last.loss_total:.6f} "
                    f"loss_y={last.loss_y:.6f}")
    log("info", f"wrote {metrics_path} and {ckpt_path}")
    return EXIT_OK


def cmd_eval(cfg: RunConfig) -> int:
    check_fields(cfg, {}, {})
    if not cfg.checkpoint:
        raise ConfigError("eval needs a checkpoint (checkpoint=... or --checkpoint)")
    _refuse_overwrite(cfg, ["report.txt"])
    model = dm.load_checkpoint(cfg.checkpoint)
    task = build_task(cfg)
    ckpt_shape = (model.input_dim, model.class_count,
                  model.domain_on_joint, model.use_residual)
    task_shape = (task.source.dim, task.source.class_count,
                  *tr.VARIANTS[cfg.train.variant][:2])
    if ckpt_shape != task_shape:
        raise ConfigError(
            f"checkpoint (input width, class count, domain_on_joint, "
            f"use_residual) {ckpt_shape} does not match the task and "
            f"variant's {task_shape}"
        )
    report = ev.evaluate_model(model, task, cfg.train.seed, cfg.train.variant)
    with open(_out_path(cfg, "report.txt"), "w", encoding="ascii") as fh:
        fh.write(ev.serialize_report(report))
    ev.append_results_csv(_out_path(cfg, "results.csv"), [report])
    log("info", f"target accuracy {report.target_accuracy:.4f}, "
                f"a_distance {report.a_distance:+.4f}")
    print(ev.serialize_report(report), end="")
    return EXIT_OK


def cmd_ablate(cfg: RunConfig) -> int:
    # every seed's task, batch size and probe rows, then one model with
    # full's wiring (the largest), as in train: bad input fails before the
    # output directory is made, and that is made before the first run, so
    # an --out that cannot be made fails at once. One task is held at a
    # time: the first run's is checked last and kept, the others are built
    # again from their seed.
    check_fields(cfg, {}, {})
    _refuse_overwrite(cfg, ["results.csv", "reports.txt"])
    runs = [replace(cfg.train, seed=seed) for seed in cfg.seeds]
    for run in reversed(runs):
        task = None
        task = build_task(replace(cfg, train=run))
        _check_batch(run, task)
        ev.check_probe_rows(task.source.size, task.target.size)
    tr.build_model(replace(runs[0], variant="full"), task.source, None)
    results_path = _out_path(cfg, "results.csv")
    reports = []
    for run in runs:
        if task is None:
            task = build_task(replace(cfg, train=run))
        for variant in tr.VARIANTS:
            log("debug", f"ablate: variant={variant} seed={run.seed}")
            reports.append(ev.run_ablation(variant, task, run))
        task = None
    if cfg.overwrite and os.path.exists(results_path):
        os.remove(results_path)
    ev.append_results_csv(results_path, reports)
    with open(_out_path(cfg, "reports.txt"), "w", encoding="ascii") as fh:
        for r in reports:
            fh.write(ev.serialize_report(r) + "\n")
    log("info", f"wrote {results_path} ({len(reports)} rows)")
    return EXIT_OK


def cmd_gradcheck(cfg: RunConfig) -> int:
    check_fields(cfg, {}, {})
    report = gc.run_gradcheck(seed=cfg.train.seed)
    print(f"max relative error {report.max_rel_err:.3e} over "
          f"{report.checked} parameters (worst: {report.worst_param})")
    if not report.passed:
        raise NumericError(
            f"gradient check failed: {report.max_rel_err:.3e} >= "
            f"{report.tolerance:.0e} at {report.worst_param}"
        )
    return EXIT_OK


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "gradcheck": cmd_gradcheck,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        # a diverging run reports itself through the loss check (exit 3),
        # not through numpy's overflow warnings on the way there
        with np.errstate(all="ignore"):
            cfg = parse_config(argv)
            return _COMMANDS[cfg.command](cfg)
    except tuple(EXIT_CODES) as exc:
        code, what = next(EXIT_CODES[c] for c in type(exc).__mro__ if c in EXIT_CODES)
        log("quiet", f"{what}: {exc}")
        return code


if __name__ == "__main__":
    sys.exit(main())
