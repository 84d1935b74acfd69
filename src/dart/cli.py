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
from dataclasses import dataclass, field, replace

import numpy as np

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
    task: ev.TaskConfig = field(default_factory=ev.TaskConfig)
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
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _parse_hidden(raw: str) -> tuple[int, ...]:
    if raw in ("", "-"):
        return ()
    return tuple(int(part) for part in raw.split(","))


def _parse_float(raw: str) -> float:
    # nan passes every range check in validate(), so refuse it here
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("value must be finite")
    return value


def _parse_floats(raw: str) -> tuple[float, ...]:
    if not raw:
        return ()
    return tuple(_parse_float(part) for part in raw.split(","))


def _parse_ints(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.split(","))


def _parse_optional_int(raw: str) -> int | None:
    if raw in ("", "-", "none"):
        return None
    return int(raw)


# key -> (section, attribute, converter); sections address RunConfig parts.
# Converters get the stripped raw text; _assign reports their ValueError as
# a ConfigError naming the key.
_KEYS = {
    "alpha": ("train", "alpha", _parse_float),
    "beta": ("train", "beta", _parse_float),
    "eta0": ("train", "eta0", _parse_float),
    "gamma_lr": ("train", "gamma_lr", _parse_float),
    "lr_decay_interval": ("train", "lr_decay_interval", int),
    "lambda0": ("train", "lambda0", _parse_float),
    "gamma_lambda": ("train", "gamma_lambda", _parse_float),
    "steps": ("train", "total_steps", int),
    "batch": ("train", "batch_size", int),
    "seed": ("train", "seed", int),
    "hidden": ("train", "hidden", _parse_hidden),
    "feature_dim": ("train", "feature_dim", int),
    "residual_hidden": ("train", "residual_hidden", _parse_optional_int),
    "domain_hidden": ("train", "domain_hidden", int),
    "stop_pseudo_label_grad": ("train", "stop_pseudo_label_grad", _parse_bool),
    "harden_pseudo_labels": ("train", "harden_pseudo_labels", _parse_bool),
    "momentum": ("train", "momentum", _parse_float),
    "variant": ("train", "variant", str),
    "log_every": ("train", "log_every", int),
    "task.kind": ("task", "kind", str),
    "task.classes": ("task", "classes", int),
    "task.per_class": ("task", "per_class", int),
    "task.dim": ("task", "dim", int),
    "task.spread": ("task", "spread", _parse_float),
    "task.rotation": ("task", "rotation", _parse_float),
    "task.translation": ("task", "translation", _parse_floats),
    "task.scale": ("task", "scale", _parse_float),
    "task.label_noise": ("task", "label_noise", _parse_float),
    "task.normalization": ("task", "normalization", str),
    "task.images": ("task", "images", str),
    "task.labels": ("task", "labels", str),
    "task.subsample": ("task", "subsample", int),
    "out": ("run", "out_dir", str),
    "overwrite": ("run", "overwrite", _parse_bool),
    "checkpoint": ("run", "checkpoint", str),
    "seeds": ("run", "seeds", _parse_ints),
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
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc
    target = {"train": cfg.train, "task": cfg.task, "run": cfg}[section]
    setattr(target, attr, value)


def _read_config_file(cfg: RunConfig, path: str) -> None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
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
    cfg.task.validate()
    cfg.train.validate()
    return cfg


# ---------------------------------------------------------------------------
# Task construction


def build_task(cfg: RunConfig) -> ev.Task:
    """Builds the dataset pair and patches the width keys the model needs."""
    task = ev.make_task(cfg.task, cfg.train.seed)
    cfg.train.input_dim = task.source.dim
    cfg.train.class_count = task.source.class_count
    return task


def _prepare_out_dir(cfg: RunConfig, filenames: list[str]) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    if not cfg.overwrite:
        for name in filenames:
            path = os.path.join(cfg.out_dir, name)
            if os.path.exists(path):
                raise ConfigError(
                    f"refusing to overwrite {path}; pass --overwrite to allow"
                )
    return cfg.out_dir


# ---------------------------------------------------------------------------
# Commands


def cmd_train(cfg: RunConfig) -> int:
    task = build_task(cfg)
    out = _prepare_out_dir(cfg, ["metrics.csv", "model.ckpt"])
    run_cfg = cfg.train.effective()
    model = tr.build_model(run_cfg, Prng(derive_seed(run_cfg.seed, STREAM_INIT)))
    metrics_path = os.path.join(out, "metrics.csv")
    report = tr.train_loop(model, task.source, task.target, run_cfg,
                           metrics_path=metrics_path)
    ckpt_path = os.path.join(out, "model.ckpt")
    dm.save_checkpoint(report.model, ckpt_path)
    if report.history:
        last = report.history[-1]
        log("info", f"step {last.step}: loss_total={last.loss_total:.6f} "
                    f"loss_y={last.loss_y:.6f}")
    log("info", f"wrote {metrics_path} and {ckpt_path}")
    return EXIT_OK


def cmd_eval(cfg: RunConfig) -> int:
    if not cfg.checkpoint:
        raise ConfigError("eval needs a checkpoint (checkpoint=... or --checkpoint)")
    model = dm.load_checkpoint(cfg.checkpoint)
    task = build_task(cfg)
    ckpt_shape = (model.input_dim, model.class_count,
                  model.domain_on_joint, model.use_residual)
    task_shape = (cfg.train.input_dim, cfg.train.class_count,
                  *tr.WIRING[cfg.train.variant])
    if ckpt_shape != task_shape:
        raise ConfigError(
            f"checkpoint (input width, class count, domain_on_joint, "
            f"use_residual) {ckpt_shape} does not match the task and "
            f"variant's {task_shape}"
        )
    report = ev.evaluate_model(model, task, cfg.train.seed, cfg.train.variant)
    out = _prepare_out_dir(cfg, ["report.txt"])
    report_path = os.path.join(out, "report.txt")
    with open(report_path, "w", encoding="ascii") as fh:
        fh.write(ev.serialize_report(report))
    ev.append_results_csv(os.path.join(out, "results.csv"), [report])
    log("info", f"target accuracy {report.target_accuracy:.4f}, "
                f"a_distance {report.a_distance:+.4f}")
    print(ev.serialize_report(report), end="")
    return EXIT_OK


def cmd_ablate(cfg: RunConfig) -> int:
    out = _prepare_out_dir(cfg, ["results.csv", "reports.txt"])
    reports = []
    for seed in cfg.seeds:
        run = RunConfig(command="ablate", train=replace(cfg.train, seed=seed),
                        task=cfg.task, out_dir=cfg.out_dir,
                        overwrite=cfg.overwrite)
        task = build_task(run)
        for variant in tr.VARIANTS:
            log("debug", f"ablate: variant={variant} seed={seed}")
            reports.append(ev.run_ablation(variant, task, run.train))
    results_path = os.path.join(out, "results.csv")
    if cfg.overwrite and os.path.exists(results_path):
        os.remove(results_path)
    ev.append_results_csv(results_path, reports)
    with open(os.path.join(out, "reports.txt"), "w", encoding="ascii") as fh:
        for r in reports:
            fh.write(ev.serialize_report(r) + "\n")
    log("info", f"wrote {results_path} ({len(reports)} rows)")
    return EXIT_OK


def cmd_gradcheck(cfg: RunConfig) -> int:
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
