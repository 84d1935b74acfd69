"""Config parsing and precedence, command flows, exit codes, determinism."""

import dataclasses
import filecmp
import gc
import inspect
import math
import os
import pathlib
import re
import struct
import subprocess
import sys
import typing
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dart import autodiff as ad
from dart import cli
from dart import data as dd
from dart import evaluation as ev
from dart import model as dm
from dart import training as tr
from dart.errors import (
    ConfigError,
    ContractError,
    DartError,
    DataFormatError,
    NumericError,
    ShapeError,
    fits_type,
)
from dart.rng import STREAM_INIT, Prng, derive_seed

from conftest import mutate_bytes

TINY_KEYS = [
    "steps=12",
    "batch=6",
    "seed=3",
    "log_every=5",
    "task.per_class=10",
]


def write_cfg(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return str(path)


def tiny_cfg(tmp_path, extra=()):
    return write_cfg(tmp_path / "run.cfg", TINY_KEYS + list(extra))


def write_tiny_idx(tmp_path, width=2):
    """12 images of 1 x ``width`` pixels with labels cycling over 10
    classes; returns the image and label paths."""
    rng = Prng(5)
    samples = np.array([[rng.uniform() for _ in range(width)] for _ in range(12)])
    labels = np.eye(10)[[i % 10 for i in range(12)]]
    ds = dd.Dataset(samples, labels, "source", 10)
    images, label_path = tmp_path / "im.idx", tmp_path / "lab.idx"
    dd.write_idx(ds, images, label_path, 1, width)
    return images, label_path


# ---------------------------------------------------------------------------
# parse_config


def test_defaults_match_published_settings():
    cfg = cli.parse_config(["train"])
    t = cfg.train
    assert (t.alpha, t.beta) == (0.6, 1.0)
    assert (t.lambda0, t.gamma_lambda) == (1.0, 2.5)
    assert t.gamma_lr == 0.92
    assert t.eta0 == 0.01


def test_every_config_field_has_exactly_one_key():
    # one table of config keys: no field is settable twice, and none is
    # left for the program to fill in behind the table's back
    targets = [(section, attr) for section, attr, _ in cli._KEYS.values()]
    for section, kind in (("train", tr.TrainConfig), ("task", dd.TaskConfig)):
        for f in dataclasses.fields(kind):
            assert targets.count((section, f.name)) == 1, f"{section}.{f.name}"
    for attr in ("out_dir", "overwrite", "checkpoint", "seeds"):
        assert targets.count(("run", attr)) == 1, attr
    assert len(targets) == 17 + 12 + 4


@pytest.mark.parametrize("kind, f", [
    pytest.param(kind, f, id=f"{kind.__name__}.{f.name}")
    for kind in (tr.TrainConfig, dd.TaskConfig) for f in dataclasses.fields(kind)
    if f.type not in (str, bool)])
def test_nan_in_a_numeric_field_fails_validate_naming_it(kind, f):
    # a config built in Python skips the parser's finiteness check, and nan
    # compares False with every bound: the type check must refuse it
    nan = float("nan")
    cfg = kind(**{f.name: (nan,) if typing.get_origin(f.type) is tuple else nan})
    with pytest.raises(ConfigError, match=f.name):
        cfg.validate()


@pytest.mark.parametrize("kind, f", [
    pytest.param(kind, f, id=f"{kind.__name__}.{f.name}")
    for kind in (tr.TrainConfig, dd.TaskConfig) for f in dataclasses.fields(kind)
    if f.type in (int, int | None, tuple[int, ...])])
def test_non_integer_in_an_integer_field_fails_validate_naming_it(kind, f):
    # the parser's int converter refuses 2.5 at the key; a config built in
    # Python must be refused by validate() too
    cfg = kind(**{f.name: (2.5,) if f.type == tuple[int, ...] else 2.5})
    with pytest.raises(ConfigError, match=f.name):
        cfg.validate()


@pytest.mark.parametrize("kind, key, value", [
    (tr.TrainConfig, "total_steps", 2.0),
    (tr.TrainConfig, "residual_hidden", "8"),
    (tr.TrainConfig, "hidden", 16),
    (dd.TaskConfig, "per_class", 20.0),
    (tr.TrainConfig, "total_steps", True),
    (tr.TrainConfig, "residual_hidden", True),
    (tr.TrainConfig, "hidden", (4, False)),
])
def test_integer_fields_refuse_every_non_integer(kind, key, value):
    with pytest.raises(ConfigError, match=key):
        kind(**{key: value}).validate()


def test_integer_fields_take_numpy_integers_and_none_where_typed():
    tr.TrainConfig(total_steps=np.int64(3), hidden=(np.int32(4),), seed=np.uint64(7),
                   residual_hidden=None).validate()
    tr.TrainConfig(hidden=[4, 2]).validate()
    dd.TaskConfig(per_class=np.int64(5)).validate()
    with pytest.raises(ConfigError, match="domain_hidden"):
        tr.TrainConfig(domain_hidden=None).validate()


def test_fields_take_numpy_scalars_of_their_kind():
    tr.TrainConfig(alpha=np.float64(0.5), beta=np.float32(2.0), eta0=np.int64(1),
                   harden_pseudo_labels=np.bool_(True)).validate()
    dd.TaskConfig(spread=np.float32(0.5), rotation=np.float64(0.1),
                  translation=(np.float32(1.0), np.float64(-1.0))).validate()


@pytest.mark.parametrize("value", [math.inf, -math.inf, 10**400],
                         ids=["inf", "-inf", "10**400"])
@pytest.mark.parametrize("kind, f", [
    pytest.param(kind, f, id=f"{kind.__name__}.{f.name}")
    for kind in (tr.TrainConfig, dd.TaskConfig) for f in dataclasses.fields(kind)
    if f.type in (float, tuple[float, ...])])
def test_non_finite_float_fails_validate_naming_it(kind, f, value):
    # 10**400 is a real number that no float holds: float() overflows
    cfg = kind(**{f.name: (value,) if f.type == tuple[float, ...] else value})
    with pytest.raises(ConfigError, match=f.name):
        cfg.validate()


@pytest.mark.parametrize("kind, key, value", [
    (tr.TrainConfig, "harden_pseudo_labels", "no"),
    (tr.TrainConfig, "harden_pseudo_labels", 1),
    (tr.TrainConfig, "alpha", "1"),
    (tr.TrainConfig, "beta", False),
    (tr.TrainConfig, "variant", ["full"]),
    (dd.TaskConfig, "translation", 2.5),
    (dd.TaskConfig, "translation", ("1.5", -1.0)),
    (dd.TaskConfig, "rotation", "x"),
    (dd.TaskConfig, "kind", None),
    (dd.TaskConfig, "images", 0),
])
def test_a_value_of_the_wrong_type_fails_validate_naming_it(kind, key, value):
    with pytest.raises(ConfigError, match=f"{key} must be "):
        kind(**{key: value}).validate()


@pytest.mark.parametrize("kind", [tr.TrainConfig, dd.TaskConfig, cli.RunConfig])
def test_every_config_field_type_is_parsed_and_checked(kind):
    # a field of a new type fails here by name: the parser table and the
    # type check must both know it; RunConfig's sections are not keys
    for f in dataclasses.fields(kind):
        if dataclasses.is_dataclass(f.type):
            continue
        name = f"{kind.__name__}.{f.name}: {f.type}"
        assert f.type in cli._PARSERS, f"{name} has no parser"
        assert fits_type(f.type, getattr(kind(), f.name)), f"{name} refuses its default"
        assert not fits_type(f.type, 1 if f.type is str else "1"), \
            f"{name} takes a value of another type"


def test_readme_key_tables_list_exactly_the_config_keys():
    # the key column of README's two tables under "Config file"
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("### Config file")[1]
    section = section.split("\n### ")[0]
    listed = [key for line in section.splitlines() if line.startswith("| `")
              for key in re.findall(r"`([^`]+)`", line.split("|")[1])]
    assert sorted(listed) == sorted(cli._KEYS)


def test_readme_autodiff_row_names_every_op():
    # an op is a public function of dart.autodiff that returns a Var
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    (row,) = [line for line in readme.read_text(encoding="utf-8").splitlines()
              if line.startswith("| `dart.autodiff` |")]
    ops = [name for name, f in vars(ad).items() if inspect.isfunction(f)
           and f.__module__ == ad.__name__ and not name.startswith("_")
           and f.__annotations__.get("return") == "Var"]
    assert len(ops) == 16
    assert set(ops) <= set(re.findall(r"`([^`]+)`", row))


def test_readme_variant_row_names_every_variant():
    # the values column of the `variant` row lists tr.VARIANTS, in order
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    (row,) = [line for line in readme.read_text(encoding="utf-8").splitlines()
              if line.startswith("| `variant` |")]
    assert re.findall(r"`([^`]+)`", row.split("|")[3]) == list(tr.VARIANTS)


def readme_key_rows():
    """(keys, default) for each row of README's two tables under
    "Config file", backticks stripped from the default."""
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("### Config file")[1]
    section = section.split("\n### ")[0]
    return [(re.findall(r"`([^`]+)`", cells[1]), cells[2].strip().strip("`"))
            for line in section.splitlines() if line.startswith("| `")
            for cells in [line.split("|")]]


def test_readme_default_column_matches_the_config_defaults():
    cfg = cli.RunConfig()
    for keys, default in readme_key_rows():
        for key in keys:
            section, attr, convert = cli._KEYS[key]
            target = {"train": cfg.train, "task": cfg.task, "run": cfg}[section]
            assert convert(default) == getattr(target, attr), key


def test_config_file_keys_parse(tmp_path):
    path = write_cfg(tmp_path / "a.cfg", [
        "alpha=0.3",
        "hidden=32,16",
        "residual_hidden=-",
        "task.kind=blobs",
        "task.translation=2.0,-0.5,0.25",
        "task.dim=3",
        "overwrite=true",
        "seeds=7,8,9",
    ])
    cfg = cli.parse_config(["train", "--config", path])
    assert cfg.train.alpha == 0.3
    assert cfg.train.hidden == (32, 16)
    assert cfg.train.residual_hidden is None
    assert cfg.task.translation == (2.0, -0.5, 0.25)
    assert cfg.overwrite is True
    assert cfg.seeds == (7, 8, 9)


def test_config_file_with_byte_order_mark_and_crlf_parses(tmp_path):
    # as saved by editors that write "UTF-8 with BOM" and CRLF line ends
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbfsteps=2\r\nalpha=0.25\r\n")
    cfg = cli.parse_config(["train", "--config", str(path)])
    assert (cfg.train.total_steps, cfg.train.alpha) == (2, 0.25)


@pytest.mark.parametrize("key", ["hidden", "task.translation"])
@pytest.mark.parametrize("raw", ["-", ""])
def test_list_key_reads_dash_or_empty_as_none(key, raw):
    cfg = cli.parse_config(["train", "--set", f"{key}={raw}"])
    section, attr, _ = cli._KEYS[key]
    assert getattr(getattr(cfg, section), attr) == ()


@pytest.mark.parametrize("item", ["hidden=16,", "seeds=1,,2",
                                  "task.translation=1.5,,0"])
def test_empty_list_entry_exits_config_naming_the_key(capsys, item):
    assert cli.main(["train", "--set", item]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    key = item.split("=")[0]
    assert err.startswith(f"configuration error: bad value for {key}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("raw", ["-", ""])
def test_empty_seeds_exits_config_before_any_output(tmp_path, capsys,
                                                    command, raw):
    out = tmp_path / "run"
    rc = cli.main([command, "--set", f"seeds={raw}", "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    assert capsys.readouterr().err == \
        "configuration error: seeds must list at least one seed\n"
    assert not out.exists()


def test_comments_and_blank_lines_skipped(tmp_path):
    path = write_cfg(tmp_path / "a.cfg", [
        "# comment",
        "",
        "alpha=0.25",
        "   # indented comment",
    ])
    assert cli.parse_config(["train", "--config", path]).train.alpha == 0.25


def test_unknown_key_error_names_the_key(tmp_path):
    path = write_cfg(tmp_path / "a.cfg", ["bogus_knob=1"])
    with pytest.raises(ConfigError, match="bogus_knob"):
        cli.parse_config(["train", "--config", path])


def test_negative_alpha_reports_expected_range(tmp_path):
    path = write_cfg(tmp_path / "a.cfg", ["alpha=-1"])
    with pytest.raises(ConfigError, match=">= 0"):
        cli.parse_config(["train", "--config", path])


def test_flag_overrides_file_value(tmp_path):
    path = write_cfg(tmp_path / "a.cfg", ["alpha=0.6"])
    cfg = cli.parse_config(["train", "--config", path, "--alpha", "0.2"])
    assert cfg.train.alpha == 0.2


def test_precedence_file_then_set_then_flag(tmp_path):
    path = write_cfg(tmp_path / "a.cfg", ["alpha=0.6"])
    cfg = cli.parse_config(["train", "--config", path, "--set", "alpha=0.4"])
    assert cfg.train.alpha == 0.4
    cfg = cli.parse_config([
        "train", "--config", path, "--set", "alpha=0.4", "--alpha", "0.2",
    ])
    assert cfg.train.alpha == 0.2


def test_malformed_line_reports_position(tmp_path):
    path = write_cfg(tmp_path / "a.cfg", ["alpha=0.6", "beta 1.0"])
    with pytest.raises(ConfigError, match=":2"):
        cli.parse_config(["train", "--config", path])


def test_bad_boolean_rejected(tmp_path):
    path = write_cfg(tmp_path / "a.cfg", ["overwrite=maybe"])
    with pytest.raises(ConfigError, match="boolean"):
        cli.parse_config(["train", "--config", path])


@pytest.mark.parametrize("item", ["overwrite=maybe", "harden_pseudo_labels=2"])
@pytest.mark.parametrize("where", ["set", "file"])
def test_bad_boolean_exits_config_naming_the_key(tmp_path, capsys, item, where):
    key, raw = item.split("=")
    given = (["--set", item] if where == "set"
             else ["--config", write_cfg(tmp_path / "a.cfg", [item])])
    out = tmp_path / "run"
    assert cli.main(["train", *given, "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: bad value for {key}: {raw!r} (")
    assert err.count("\n") == 1
    assert not out.exists()


def test_bad_integer_names_the_key(tmp_path):
    path = write_cfg(tmp_path / "a.cfg", ["steps=soon"])
    with pytest.raises(ConfigError, match="steps"):
        cli.parse_config(["train", "--config", path])


def test_unknown_variant_rejected():
    with pytest.raises(ConfigError, match="variant"):
        cli.parse_config(["train", "--set", "variant=bogus"])


def test_bad_task_kind_rejected():
    with pytest.raises(ConfigError, match="task.kind"):
        cli.parse_config(["train", "--set", "task.kind=parquet"])


def test_bad_set_syntax_exits_config(capsys):
    assert cli.main(["train", "--set", "alpha"]) == cli.EXIT_CONFIG
    assert "KEY=VALUE" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit codes


def test_missing_config_file_is_data_error():
    assert cli.main(["train", "--config", "/nonexistent/run.cfg"]) == cli.EXIT_DATA


def test_non_utf8_config_file_is_data_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"steps=5\nalpha=0.\xe9\n")
    rc = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "run")])
    assert rc == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1


def test_unknown_key_exits_config(tmp_path):
    path = write_cfg(tmp_path / "a.cfg", ["bogus=1"])
    assert cli.main(["train", "--config", path]) == cli.EXIT_CONFIG


def test_exit_code_values():
    assert (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_DATA, cli.EXIT_NUMERIC) == \
        (0, 1, 2, 3)


# the exit-code table of the README, one row per error class
DOCUMENTED_EXITS = {
    ConfigError: cli.EXIT_CONFIG,
    ContractError: cli.EXIT_CONFIG,
    ShapeError: cli.EXIT_CONFIG,
    DataFormatError: cli.EXIT_DATA,
    NumericError: cli.EXIT_NUMERIC,
}


def test_every_error_class_has_a_documented_exit_code():
    assert set(DartError.__subclasses__()) == set(DOCUMENTED_EXITS)


@pytest.mark.parametrize("error", DartError.__subclasses__(),
                         ids=lambda cls: cls.__name__)
def test_error_class_exits_with_its_code(monkeypatch, capsys, error):
    def fail(cfg):
        raise error("boom")

    monkeypatch.setitem(cli._COMMANDS, "gradcheck", fail)
    assert cli.main(["gradcheck"]) == DOCUMENTED_EXITS[error]
    assert capsys.readouterr().err.endswith(": boom\n")


@pytest.mark.parametrize("argv", [
    ["train", "--alpha", "abc"],
    ["train", "--steps", "1.5"],
    ["train", "--bogus"],
    ["bogus"],
    [],
])
def test_bad_flag_exits_config_with_one_line(capsys, argv):
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1


@pytest.mark.parametrize("key", ["hidden", "residual_hidden", "domain_hidden",
                                 "feature_dim"])
def test_zero_width_exits_config(tmp_path, capsys, key):
    cfg = tiny_cfg(tmp_path, [f"{key}=0"])
    out = tmp_path / "run"
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == \
        cli.EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, raw", [
    ("alpha", "nan"),
    ("beta", "-inf"),
    ("eta0", "nan"),
    ("lambda0", "nan"),
    ("gamma_lambda", "1e400"),
    ("task.spread", "nan"),
    ("task.scale", "inf"),
    ("task.rotation", "nan"),
    ("task.translation", "1.5,nan"),
])
def test_non_finite_value_exits_config_naming_key(tmp_path, capsys, key, raw):
    # the parser refuses a non-finite value at its key, before validate()
    out = tmp_path / "run"
    assert cli.main(["train", "--config", tiny_cfg(tmp_path), "--set",
                     f"{key}={raw}", "--steps", "5", "--out", str(out)]) == \
        cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: bad value for {key}: ")
    assert err.count("\n") == 1
    assert not out.exists()


# ---------------------------------------------------------------------------
# gradcheck command


def test_gradcheck_command_prints_max_error(capsys):
    assert cli.main(["gradcheck"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "max relative error" in out


def test_gradcheck_module_entry_point():
    # the child imports the same dart as this test, installed or not
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "dart.cli", "gradcheck"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0
    assert "max relative error" in proc.stdout


# ---------------------------------------------------------------------------
# train command


def test_train_writes_metrics_and_checkpoint(tmp_path):
    cfg = tiny_cfg(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == "step,eta,lambda,loss_y,loss_h,loss_d,loss_total"
    # steps 0, 5, 10 from log_every=5 plus final step 11
    assert [row.split(",")[0] for row in lines[1:]] == ["0", "5", "10", "11"]
    model = dm.load_checkpoint(out / "model.ckpt")
    assert model.input_dim == 2 and model.class_count == 3


def test_train_zero_steps_checkpoint_equals_init(tmp_path):
    cfg = tiny_cfg(tmp_path, ["steps=0"])
    out = tmp_path / "run"
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "metrics.csv").read_text() == \
        "step,eta,lambda,loss_y,loss_h,loss_d,loss_total\n"
    loaded = dm.load_checkpoint(out / "model.ckpt")
    fresh = tr.build_model(
        tr.TrainConfig(seed=3), dd.make_blobs_task(3, per_class=10).source,
        Prng(derive_seed(3, STREAM_INIT)),
    )
    for name, value in fresh.parameters().items():
        assert np.array_equal(loaded.parameters()[name], value)


def test_train_refuses_overwrite_without_flag(tmp_path, capsys):
    cfg = tiny_cfg(tmp_path, ["steps=1"])
    out = tmp_path / "run"
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == \
        cli.EXIT_CONFIG
    assert "overwrite" in capsys.readouterr().err
    assert cli.main([
        "train", "--config", cfg, "--out", str(out), "--overwrite",
    ]) == 0


@pytest.mark.parametrize("command", ["train", "eval", "ablate", "gradcheck"])
def test_command_refuses_a_python_run_config_of_the_wrong_type(tmp_path,
                                                               command):
    # a RunConfig built in Python has had no parser: "no" is a true string,
    # so an unchecked train would overwrite metrics.csv
    (tmp_path / "metrics.csv").write_text("kept\n")
    cfg = cli.RunConfig(command=command, out_dir=str(tmp_path), overwrite="no")
    with pytest.raises(ConfigError, match="overwrite must be of type bool"):
        cli._COMMANDS[command](cfg)
    assert (tmp_path / "metrics.csv").read_text() == "kept\n"
    assert sorted(os.listdir(tmp_path)) == ["metrics.csv"]


def test_diverging_run_exits_numeric_with_one_line(tmp_path, capsys):
    # eta0=1e300 overflows the first update; the loss check reports it
    # and numpy's overflow warnings on the way stay silent. Hardened
    # pseudo-labels are a constant leaf made by argmax, which stays
    # finite, and the nan reaches the same check by the other paths.
    for extra in ([], ["harden_pseudo_labels=1"]):
        cfg = tiny_cfg(tmp_path, extra)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["train", "--config", cfg, "--steps", "50",
                             "--eta0", "1e300", "--overwrite",
                             "--out", str(tmp_path / "run")])
        assert code == cli.EXIT_NUMERIC, extra
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert err.startswith("numeric failure: non-finite")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_overflowing_shift_is_rejected_before_any_output(tmp_path, capsys):
    cfg = tiny_cfg(tmp_path, ["task.scale=1e308"])
    out = tmp_path / "run"
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == \
        cli.EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "invalid request: target samples must be finite"]
    assert not out.exists()


@pytest.mark.parametrize("spread", ["1e160", "1e200"])
@pytest.mark.parametrize("command", ["train", "eval", "ablate"])
def test_overflowing_source_std_is_rejected_before_any_output(
        tmp_path, capsys, command, spread):
    # np.std overflows to inf and x / inf is 0: unchecked, both domains
    # would standardize to all-zero samples and train without complaint
    cfg = tiny_cfg(tmp_path)
    argv = [command, "--config", cfg, "--set", f"task.spread={spread}"]
    if command == "eval":
        ckpt = tmp_path / "ckpt"
        assert cli.main(["train", "--config", cfg, "--out", str(ckpt)]) == 0
        argv += ["--checkpoint", str(ckpt / "model.ckpt")]
    if command == "ablate":
        argv += ["--seeds", "1"]
    capsys.readouterr()
    out = tmp_path / "run"
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "invalid request: source samples are too large to standardize: "
        "a per-feature std is not finite"]
    assert not out.exists()


def test_one_wide_samples_are_rejected_before_any_output(tmp_path, capsys):
    # the shift rotates the first two coordinates; 1x1-pixel images have one
    images, labels = write_tiny_idx(tmp_path, width=1)
    cfg = tiny_cfg(tmp_path, ["task.kind=idx", f"task.images={images}",
                              f"task.labels={labels}", "task.translation=0"])
    out = tmp_path / "run"
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == \
        cli.EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "invalid request: the shift rotates 2 coordinates, samples have 1"]
    assert not out.exists()


def test_empty_idx_is_rejected_with_one_line_and_no_warning(tmp_path, capsys):
    # the source mean and std of no rows would warn before the Dataset check
    images, labels = tmp_path / "im.idx", tmp_path / "lab.idx"
    images.write_bytes(struct.pack(">IIII", dd.IDX_IMAGES_MAGIC, 0, 2, 2))
    labels.write_bytes(struct.pack(">II", dd.IDX_LABELS_MAGIC, 0))
    cfg = tiny_cfg(tmp_path, ["task.kind=idx", f"task.images={images}",
                              f"task.labels={labels}"])
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["train", "--config", cfg, "--out", str(out)]) == \
            cli.EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "invalid request: samples must be a non-empty 2-d array, got (0, 4)"]
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


@pytest.mark.parametrize("command", [["train"], ["ablate", "--seeds", "1"]],
                         ids=["train", "ablate"])
def test_batch_larger_than_a_domain_is_rejected_before_any_output(
        tmp_path, capsys, command):
    out = tmp_path / "run"
    assert cli.main([*command, "--batch", "1000", "--out", str(out)]) == \
        cli.EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "configuration error: batch_size 1000 exceeds dataset size 300"]
    assert not out.exists()


# each request exceeds the 128 TiB user address space, so none is
# allocated whatever the machine's overcommit setting
TOO_LARGE_TO_ALLOCATE = [
    "task.dim=10000000000000",
    "task.dim=100000000000000000",
    "hidden=100000000000000000",
    "feature_dim=10000000000000",
    "residual_hidden=10000000000000",
    "hidden=1000000000000000000",
]


@pytest.mark.parametrize("setting", TOO_LARGE_TO_ALLOCATE)
@pytest.mark.parametrize("command", [["train"], ["ablate", "--seeds", "1"]],
                         ids=["train", "ablate"])
def test_size_too_large_to_allocate_exits_config_before_any_output(
        tmp_path, capsys, command, setting):
    out = tmp_path / "run"
    assert cli.main([*command, "--steps", "1", "--set", setting,
                     "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()]
    assert not out.exists()


@pytest.mark.parametrize("setting, keys", [
    ("task.dim=100000000000000000", "task.classes * task.per_class * task.dim"),
    ("task.classes=1000000000000",
     "task.classes * task.per_class * task.classes"),
    ("hidden=1000000000000000000", "hidden, feature_dim, residual_hidden"),
])
def test_size_no_array_can_hold_is_rejected_naming_its_keys(
        tmp_path, capsys, setting, keys):
    out = tmp_path / "run"
    assert cli.main(["train", "--steps", "1", "--set", setting,
                     "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert keys in err and "more than an array can hold" in err
    assert not out.exists()


def test_train_metrics_byte_identical_across_runs(tmp_path):
    cfg = tiny_cfg(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["train", "--config", cfg, "--out", str(out_a)]) == 0
    assert cli.main(["train", "--config", cfg, "--out", str(out_b)]) == 0
    assert filecmp.cmp(out_a / "metrics.csv", out_b / "metrics.csv",
                       shallow=False)
    assert filecmp.cmp(out_a / "model.ckpt", out_b / "model.ckpt",
                       shallow=False)


def test_train_on_idx_task(tmp_path):
    images, labels = write_tiny_idx(tmp_path)
    cfg = write_cfg(tmp_path / "run.cfg", [
        "task.kind=idx",
        f"task.images={images}",
        f"task.labels={labels}",
        "task.rotation=0.5",
        "steps=2",
        "batch=4",
        "log_every=1",
    ])
    out = tmp_path / "run"
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
    model = dm.load_checkpoint(out / "model.ckpt")
    assert model.input_dim == 2 and model.class_count == 10


def test_translation_padded_to_dim(tmp_path):
    cfg = cli.parse_config([
        "train", "--set", "task.dim=4", "--set", "task.per_class=5",
        "--seed", "2",
    ])
    task = cli.build_task(cfg)
    assert task.source.samples.shape == (15, 4)
    assert tr.build_model(cfg.train, task.source, None).input_dim == 4
    # the library builder pads the default translation the same way
    direct = dd.make_blobs_task(2, dim=4, per_class=5)
    assert direct.name == task.name
    for side in ("source", "target"):
        ours, theirs = getattr(direct, side), getattr(task, side)
        assert ours.samples.tobytes() == theirs.samples.tobytes()
        for attr in ("labels", "sealed_labels"):
            a, b = getattr(ours, attr), getattr(theirs, attr)
            assert (a is None and b is None) or a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# eval command


def test_eval_flow_writes_report_and_results(tmp_path, capsys):
    cfg = tiny_cfg(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
    eval_out = tmp_path / "eval"
    rc = cli.main([
        "eval", "--config", cfg,
        "--checkpoint", str(out / "model.ckpt"),
        "--out", str(eval_out),
    ])
    assert rc == 0
    assert "target_accuracy=" in capsys.readouterr().out
    report = (eval_out / "report.txt").read_text()
    assert report.startswith("variant=full\nseed=3\n")
    rows = (eval_out / "results.csv").read_text().splitlines()
    assert rows[0] == "variant,seed,src_acc,tgt_acc,a_distance"
    assert len(rows) == 2 and rows[1].startswith("full,3,")


def test_refused_eval_never_evaluates(tmp_path, capsys, monkeypatch):
    cfg = tiny_cfg(tmp_path)
    trained = tmp_path / "run"
    assert cli.main(["train", "--config", cfg, "--out", str(trained)]) == 0
    out = tmp_path / "eval"
    out.mkdir()
    (out / "report.txt").write_text("kept\n")
    calls = []
    monkeypatch.setattr(ev, "evaluate_model", lambda *args: calls.append(args))
    capsys.readouterr()
    assert cli.main(["eval", "--config", cfg, "--checkpoint",
                     str(trained / "model.ckpt"), "--out", str(out)]) == \
        cli.EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        f"configuration error: refusing to overwrite {out / 'report.txt'}; "
        "pass --overwrite to allow"]
    assert calls == []
    assert (out / "report.txt").read_text() == "kept\n"


def test_eval_missing_checkpoint_is_data_error(tmp_path):
    cfg = tiny_cfg(tmp_path)
    rc = cli.main([
        "eval", "--config", cfg, "--checkpoint", str(tmp_path / "no.ckpt"),
        "--out", str(tmp_path / "eval"),
    ])
    assert rc == cli.EXIT_DATA


def test_eval_without_checkpoint_is_config_error(tmp_path, capsys):
    cfg = tiny_cfg(tmp_path)
    assert cli.main(["eval", "--config", cfg]) == cli.EXIT_CONFIG
    assert "checkpoint" in capsys.readouterr().err


def test_eval_checkpoint_width_mismatch(tmp_path):
    cfg = tiny_cfg(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
    # input width, class count, then the variant's wiring
    for override in ("task.dim=3", "task.classes=4", "variant=dart_c"):
        rc = cli.main([
            "eval", "--config", cfg, "--checkpoint", str(out / "model.ckpt"),
            "--set", override, "--out", str(tmp_path / "eval"),
        ])
        assert rc == cli.EXIT_CONFIG
    assert not (tmp_path / "eval").exists()


def test_eval_non_finite_checkpoint_is_data_error(tmp_path, capsys):
    cfg = tiny_cfg(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    source = dd.make_blobs_task(3, per_class=10).source
    dm.save_checkpoint(tr.build_model(tr.TrainConfig(), source, None), ckpt)
    ckpt.write_bytes(ckpt.read_bytes().replace(b"0.0", b"nan", 1))
    rc = cli.main([
        "eval", "--config", cfg, "--checkpoint", str(ckpt),
        "--out", str(tmp_path / "eval"),
    ])
    assert rc == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# ablate command


def test_ablate_emits_variants_times_seeds_rows(tmp_path):
    cfg = tiny_cfg(tmp_path, ["steps=2"])
    out = tmp_path / "ab"
    rc = cli.main([
        "ablate", "--config", cfg, "--seeds", "1,2", "--out", str(out),
    ])
    assert rc == 0
    rows = (out / "results.csv").read_text().splitlines()
    assert len(rows) == 1 + 4 * 2
    variants = [row.split(",")[0] for row in rows[1:]]
    assert variants == ["full", "dart_c", "dart_s", "source_only"] * 2
    seeds = [row.split(",")[1] for row in rows[1:]]
    assert seeds == ["1"] * 4 + ["2"] * 4
    assert (out / "reports.txt").read_text().count("variant=") == 8


def test_library_ablation_on_another_task_matches_ablate(tmp_path):
    # the model's widths come from the task, so a library run needs no
    # width keys, whatever the task's dimension and class count
    task = dd.make_blobs_task(1, classes=4, dim=4, per_class=30)
    report = ev.run_ablation("full", task, tr.TrainConfig(total_steps=20))
    ev.append_results_csv(tmp_path / "library.csv", [report])
    out = tmp_path / "ab"
    assert cli.main([
        "ablate", "--steps", "20", "--seeds", "1", "--set", "task.classes=4",
        "--set", "task.dim=4", "--set", "task.per_class=30", "--out", str(out),
    ]) == 0
    library = (tmp_path / "library.csv").read_text().splitlines()
    rows = (out / "results.csv").read_text().splitlines()
    assert library == rows[:2]


@pytest.mark.parametrize("argv, message", [
    pytest.param(["--set", "seeds=1,18446744073709551616"],
                 "configuration error: seed must fit in 64 unsigned bits",
                 id="1,18446744073709551616"),
    pytest.param(["--set", "seeds=-1"],
                 "configuration error: seed must fit in 64 unsigned bits",
                 id="-1"),
    pytest.param(["--set", "task.scale=1e308", "--seeds", "1"],
                 "invalid request: target samples must be finite",
                 id="task.scale=1e308"),
    # 9 rows per domain: the A-distance probe after the first variant's
    # training would fail with the directory made
    pytest.param(["--steps", "5", "--seeds", "1,2", "--batch", "4",
                  "--set", "task.per_class=3"],
                 "invalid request: a_distance needs at least 10 samples per domain",
                 id="task.per_class=3"),
])
def test_ablate_checks_every_seed_before_any_output(tmp_path, capsys, argv,
                                                     message):
    out = tmp_path / "abl"
    rc = cli.main(["ablate", *argv, "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_ablate_fails_on_an_unmakeable_out_before_any_run(tmp_path, capsys,
                                                          monkeypatch):
    # the directory is made after the input checks and before the first
    # run, so an --out under a file fails at once, not after the sweep
    afile = tmp_path / "afile"
    afile.write_text("")
    runs = []
    monkeypatch.setattr(ev, "run_ablation", lambda *args: runs.append(args))
    rc = cli.main(["ablate", "--steps", "300", "--seeds", "1",
                   "--out", str(afile / "x")])
    assert rc == cli.EXIT_DATA
    assert "data error" in capsys.readouterr().err
    assert runs == []


def test_ablate_holds_one_task_at_a_time(tmp_path, monkeypatch):
    # every seed's task is checked before any output, then dropped and
    # built again for its runs
    built, alive = [], []
    build_task, run_ablation = cli.build_task, ev.run_ablation

    def tracked_build_task(cfg):
        task = build_task(cfg)
        built.append(weakref.ref(task))
        return task

    def counting_run_ablation(variant, task, cfg):
        gc.collect()
        alive.append(sum(ref() is not None for ref in built))
        return run_ablation(variant, task, cfg)

    monkeypatch.setattr(cli, "build_task", tracked_build_task)
    monkeypatch.setattr(ev, "run_ablation", counting_run_ablation)
    cfg = tiny_cfg(tmp_path, ["steps=2"])
    assert cli.main([
        "ablate", "--config", cfg, "--seeds", "1,2,3", "--out", str(tmp_path / "ab"),
    ]) == 0
    assert alive == [1] * 12


def test_ablate_refuses_existing_results(tmp_path, capsys):
    cfg = tiny_cfg(tmp_path, ["steps=1"])
    out = tmp_path / "ab"
    assert cli.main([
        "ablate", "--config", cfg, "--seeds", "1", "--out", str(out),
    ]) == 0
    assert cli.main([
        "ablate", "--config", cfg, "--seeds", "1", "--out", str(out),
    ]) == cli.EXIT_CONFIG
    assert "overwrite" in capsys.readouterr().err


@pytest.mark.parametrize("command, existing", [
    (["train"], "model.ckpt"),
    (["eval", "--checkpoint", "missing.ckpt"], "report.txt"),
    (["ablate", "--seeds", "1"], "reports.txt"),
])
def test_refusal_comes_before_any_task_is_built(tmp_path, capsys, monkeypatch,
                                                 command, existing):
    out = tmp_path / "run"
    out.mkdir()
    (out / existing).write_text("")
    built = []
    monkeypatch.setattr(cli, "build_task", built.append)
    assert cli.main([*command, "--config", tiny_cfg(tmp_path),
                     "--out", str(out)]) == cli.EXIT_CONFIG
    assert "refusing to overwrite" in capsys.readouterr().err
    assert built == []


def test_ablate_overwrite_replaces_results(tmp_path):
    cfg = tiny_cfg(tmp_path, ["steps=1"])
    out = tmp_path / "ab"
    assert cli.main([
        "ablate", "--config", cfg, "--seeds", "1", "--out", str(out),
    ]) == 0
    assert cli.main([
        "ablate", "--config", cfg, "--seeds", "2", "--out", str(out),
        "--overwrite",
    ]) == 0
    rows = (out / "results.csv").read_text().splitlines()
    # replaced, not appended: only seed-2 rows remain
    assert len(rows) == 5
    assert all(row.split(",")[1] == "2" for row in rows[1:])


# ---------------------------------------------------------------------------
# logging


def test_dart_log_quiet_silences_info(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DART_LOG", "quiet")
    cfg = tiny_cfg(tmp_path, ["steps=1"])
    assert cli.main([
        "train", "--config", cfg, "--out", str(tmp_path / "run"),
    ]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""


def test_dart_log_unknown_level_falls_back_to_info(tmp_path, capsys,
                                                   monkeypatch):
    monkeypatch.setenv("DART_LOG", "shout")
    cfg = tiny_cfg(tmp_path, ["steps=1"])
    assert cli.main([
        "train", "--config", cfg, "--out", str(tmp_path / "run"),
    ]) == 0
    assert "wrote" in capsys.readouterr().err


def test_errors_still_reported_when_quiet(tmp_path, capsys, monkeypatch):
    # quiet level keeps hard errors on stderr
    monkeypatch.setenv("DART_LOG", "quiet")
    path = write_cfg(tmp_path / "a.cfg", ["bogus=1"])
    assert cli.main(["train", "--config", path]) == cli.EXIT_CONFIG
    assert "bogus" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fuzzed inputs: a mutated file ends in a documented exit code, never a
# traceback


FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def train_zero_steps(tmp_path, cfg):
    return cli.main(["train", "--config", cfg, "--steps", "0",
                     "--out", str(tmp_path / "run"), "--overwrite"])


@FUZZ
@given(data=st.data())
def test_mutated_config_file_exits_with_a_documented_code(tmp_path, data):
    path = tmp_path / "fuzz.cfg"
    valid = ("\n".join(TINY_KEYS) + "\n").encode("ascii")
    path.write_bytes(mutate_bytes(data, valid))
    assert train_zero_steps(tmp_path, str(path)) in (0, 1, 2, 3)


# what a config built in Python may hold in any one field
ATOMS = (st.none() | st.booleans() | st.integers()
         | st.integers(-10**400, 10**400) | st.floats() | st.text(max_size=6))
VALUES = ATOMS | st.lists(ATOMS, max_size=3) | st.lists(ATOMS, max_size=3).map(tuple)
CONFIG_FIELDS = [(kind, f.name) for kind in (tr.TrainConfig, dd.TaskConfig)
                 for f in dataclasses.fields(kind)]


@FUZZ
@given(field=st.sampled_from(CONFIG_FIELDS), value=VALUES)
def test_any_value_in_a_field_validates_or_names_it(field, value):
    kind, name = field
    try:
        kind(**{name: value}).validate()
    except ConfigError as exc:
        assert name in str(exc)


@FUZZ
@given(data=st.data())
def test_mutated_idx_pair_exits_with_a_documented_code(tmp_path, data):
    images, labels = write_tiny_idx(tmp_path)
    victim = data.draw(st.sampled_from([images, labels]))
    victim.write_bytes(mutate_bytes(data, victim.read_bytes()))
    cfg = write_cfg(tmp_path / "run.cfg", [
        "task.kind=idx", f"task.images={images}", f"task.labels={labels}",
    ])
    assert train_zero_steps(tmp_path, cfg) in (0, 1, 2, 3)
