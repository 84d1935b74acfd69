"""Config parsing and precedence, command flows, exit codes, determinism."""

import filecmp
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


def write_tiny_idx(tmp_path):
    """12 two-pixel images with labels cycling over 10 classes; returns
    the image and label paths."""
    rng = Prng(5)
    samples = np.array([[rng.uniform(), rng.uniform()] for _ in range(12)])
    labels = np.eye(10)[[i % 10 for i in range(12)]]
    ds = dd.Dataset(samples, labels, "source", 10)
    images, label_path = tmp_path / "im.idx", tmp_path / "lab.idx"
    dd.write_idx(ds, images, label_path, 1, 2)
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
    ("momentum", "1e400"),
    ("task.spread", "nan"),
    ("task.scale", "inf"),
    ("task.rotation", "nan"),
    ("task.translation", "1.5,nan"),
])
def test_non_finite_value_exits_config_naming_key(tmp_path, capsys, key, raw):
    # nan compares False with every bound, so no validate() range check sees it
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
        tr.TrainConfig(seed=3), Prng(derive_seed(3, STREAM_INIT)),
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


def test_diverging_run_exits_numeric_with_one_line(tmp_path, capsys):
    # eta0=1e300 overflows the first update; the loss check reports it
    # and numpy's overflow warnings on the way stay silent
    cfg = tiny_cfg(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["train", "--config", cfg, "--steps", "50",
                         "--eta0", "1e300", "--out", str(tmp_path / "run")])
    assert code == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()]
    assert err.startswith("numeric failure: non-finite")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


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
    assert cfg.train.input_dim == 4
    # the library builder pads the default translation the same way
    direct = ev.make_blobs_task(2, dim=4, per_class=5)
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
    dm.save_checkpoint(tr.build_model(tr.TrainConfig(), None), ckpt)
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
