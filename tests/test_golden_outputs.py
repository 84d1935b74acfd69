"""Byte-identity guard: fixed digests of the files the CLI writes.

Runs ``train``, ``eval`` of that checkpoint, and a ``dart_c`` train with
momentum and hardened pseudo-labels on the criterion-9 config, in
process, and compares the sha256 of every output file against digests
recorded before any refactor of ``src/``. A change that moves a single
byte of a checkpoint, a metrics row or a report fails here.

The digests were taken with numpy 2.4.6 on Python 3.11. A different
numpy or BLAS may move the last bits of a float; re-record the digests
from the unchanged code before refactoring on such a setup.
"""

import hashlib

import pytest

from dart import cli

CONFIG = "steps=40\nbatch=16\nseed=6\nlog_every=10\ntask.per_class=25\n"

GOLDEN = {
    "train/metrics.csv":
        "000cccfcf543dc5565321075a1695a59cfb74ba3479066d7e555ccd7c5b8fe29",
    "train/model.ckpt":
        "d38e311a444c2dffb535a42b64fc73e24db3af0cd71d63e5ca8d0c727b7ca3be",
    "eval/report.txt":
        "ca24cb75a8d4a466f5070a5c85171f4bf351f2f618da50d6d3d19d36203fe805",
    "eval/results.csv":
        "4700eea57f3f0ae219677f32acd2397fea67a96f645e7d0fcc9cbdf2dfe3eb6a",
    "dart_c/metrics.csv":
        "9aa1a09e4d2e75d46c9a72ad7c31388ca096386ee75c5dfe10838b9683d9f9ec",
    "dart_c/model.ckpt":
        "325c693a96d686bcbca200ffd15129422a235635490a53fa13fe142186cdae05",
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    cfg = root / "run.cfg"
    cfg.write_text(CONFIG, encoding="ascii")
    base = ["--config", str(cfg)]
    runs = [
        ["train", *base, "--out", str(root / "train")],
        ["eval", *base, "--checkpoint", str(root / "train" / "model.ckpt"),
         "--out", str(root / "eval")],
        ["train", *base, "--variant", "dart_c", "--set", "momentum=0.5",
         "--set", "harden_pseudo_labels=1", "--out", str(root / "dart_c")],
    ]
    for argv in runs:
        assert cli.main(argv) == 0, argv
    return root


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_match_recorded_digest(outputs, name):
    assert sha256(outputs / name) == GOLDEN[name]
