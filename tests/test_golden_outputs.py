"""Byte-identity guard: fixed digests of the files the CLI writes.

Runs ``train``, ``eval`` of that checkpoint, a ``dart_c`` train, a
train with hardened pseudo-labels, a ``source_only`` train and a train
with ``beta=0`` on the criterion-9 config, plus a ``train`` and ``eval``
on a small subsampled IDX pair, in process. Compares the sha256 of every
output file against digests recorded before any refactor of ``src/``
(the ``dart_c`` and ``harden`` digests were recorded later, from the
code as it was before ``momentum`` was removed; the ``source_only`` and
``beta0`` ones, which pin training with a zero loss weight, from the
code as it was before backward skipped the branches such a weight
zeroes). A change that moves a single byte of a checkpoint, a metrics
row or a report fails here.

The digests were taken with numpy 2.4.6 (OpenBLAS 0.3.31) on Python
3.11, one set per OpenBLAS kernel, since the kernels round matrix
products differently. The test compares against the running kernel's
set (``OPENBLAS_CORETYPE`` picks it) and fails on a kernel with none. A
different numpy or BLAS may move the last bits of a float; re-record the
digests from the unchanged code before refactoring on such a setup.
"""

import hashlib
import struct

import pytest

from conftest import kernel_digests
from dart import cli

CONFIG = "steps=40\nbatch=16\nseed=6\nlog_every=10\ntask.per_class=25\n"

# IDX fixture: 60 images of 4x4 pixels from a fixed formula, labels 0..2
IDX_COUNT, IDX_SIDE = 60, 4

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
        "72ebc7d8580b8dd0fce94f9bd67530b6ae106bb9738107f1bb842137c80863eb",
    "dart_c/model.ckpt":
        "d400fa2dd337e9eea4f5172bc49270545a797793215ff1a54c1a6e1d5a0fe812",
    "harden/metrics.csv":
        "9fded8553a0ae46208acae0872abef2e18a540152972035b886a7cfbd1f2926b",
    "harden/model.ckpt":
        "42cff0fd1873cb116053009e34d9b627c63c83da6baa2faf68c6306b98eb239f",
    "source_only/metrics.csv":
        "7b39e9cf669e4f891897cd0e2b91f3e3f0b47e06ba993cc7ca651275ebe23e6c",
    "source_only/model.ckpt":
        "afa15c394e8b04726d10af4e0629f0290f7d48ed760c535a9e0acf3ab774af5b",
    "beta0/metrics.csv":
        "2963055f58120a5110ebbe843ce96114a2a8b1559ad74a0eadbe456cd969baca",
    "beta0/model.ckpt":
        "8dee2bd401cccc8d3a9006f66f34e139d258b5c7dab9929f529cd063fc0d7ca2",
    "idx_train/metrics.csv":
        "c01503a47bfad404e02b0a7c730b0a5badbd6e0b83879db936905b012a0ada94",
    "idx_train/model.ckpt":
        "f4a1376615f2291603e5857939b5a57e43251424d4fb1498b5afd1090ff0232f",
    "idx_eval/report.txt":
        "8b5a21012b7679a63e7c5fa2eebfbc6a2a8a5895c2132df101a895d9e8ac4b32",
    "idx_eval/results.csv":
        "ccf8cb98a2fde4274a145ed01a72a1e4bacdfa07c0f294144afc749e6a03c58b",
}

# kernel -> digests; the other kernels differ from SkylakeX's (GOLDEN) on
# the files listed, recorded from the same unchanged code
GOLDEN_BY_KERNEL = {
    "SkylakeX": GOLDEN,
    "Haswell": {
        **GOLDEN,
        "train/model.ckpt":
            "b8fa4909374b801d440efe021feb8e836fdcad17f3b20c4e66ae7ecbc21288b1",
        "dart_c/metrics.csv":
            "fb82d2230951247a3fc54720446c43130454040a55b3bf0859cb4ab813373c35",
        "dart_c/model.ckpt":
            "6be2de1749e739f523af3342680b634317fac216f340e9379501c7ac02b92dce",
        "harden/metrics.csv":
            "67c286561e20c3e3d86ae30dac27ee722727d5e99f72c83815d2bd22e279a519",
        "harden/model.ckpt":
            "c456892fe8c15720d5cb62d311fb9089626e5dab3672261e68d7547d96274e83",
        "idx_train/metrics.csv":
            "c27093e515a3edaa6dcd09ae209a04d5a29d0cba74909d61aaa677e3aa314a0f",
        "idx_train/model.ckpt":
            "be9dcd649d23589d277083a32fd72c7be9d17463a6e6a0a64800df3ff6631e83",
    },
    "Sandybridge": {
        **GOLDEN,
        "train/model.ckpt":
            "7c84e150a0933bbdf4dec5bcffdcec3cda80529629ec2ee27db456bc6b2167c0",
        "dart_c/metrics.csv":
            "5b1bfc09d1432f6dbf6e87cced8d298233d3dbc2ffa0a6733405cc88b303f0e4",
        "dart_c/model.ckpt":
            "6e4ba77c7d7f9b3315eaf8698467681deb19e4ff258087a3cd9a2a8554adcef9",
        "harden/metrics.csv":
            "36c045b5158c3179e6b5f6cc86a8014c428eb06b4fba69037fe4a0f32a34eedf",
        "harden/model.ckpt":
            "36a54ac635cb1d7967023eba8546078ffc9d93ea2086707df32277f0de3b6f6b",
        "source_only/metrics.csv":
            "064be59c25dd433c1fd7022ac9368b04fbd1b6fd5cec1634a1f8af2395e9cc64",
        "source_only/model.ckpt":
            "8161fd577f254e77ca22610e855be02143ee816d602c304f00549b1e5f8386c6",
        "beta0/metrics.csv":
            "e049cee27c78059a4211da1027594eb134b959dffe048b5503b064a87d457da5",
        "beta0/model.ckpt":
            "49fb9d7cb7a00c8b8753e2264786367d2d7b0b85f76057470c6c30607e64811d",
        "idx_train/metrics.csv":
            "27dae3c1e640dcbdf729914670707527795330ac7963a1901700d8ffc3634729",
        "idx_train/model.ckpt":
            "4af056a211ab4c7c55eb3b0ff8adaba11fc356aab2432f1714f40aab59e40dbd",
    },
}


def write_idx_fixture(root):
    images, labels = root / "images.idx", root / "labels.idx"
    pixels = bytes((37 * i + 11 * j + (i % 3) * 60) % 256
                   for i in range(IDX_COUNT) for j in range(IDX_SIDE * IDX_SIDE))
    images.write_bytes(struct.pack(">IIII", 0x00000803, IDX_COUNT, IDX_SIDE,
                                   IDX_SIDE) + pixels)
    labels.write_bytes(struct.pack(">II", 0x00000801, IDX_COUNT)
                       + bytes(i % 3 for i in range(IDX_COUNT)))
    return ["--set", "task.kind=idx", "--set", f"task.images={images}",
            "--set", f"task.labels={labels}", "--set", "task.subsample=40"]


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    cfg = root / "run.cfg"
    cfg.write_text(CONFIG, encoding="ascii")
    base = ["--config", str(cfg)]
    idx = [*base, *write_idx_fixture(root)]
    runs = [
        ["train", *base, "--out", str(root / "train")],
        ["eval", *base, "--checkpoint", str(root / "train" / "model.ckpt"),
         "--out", str(root / "eval")],
        ["train", *base, "--variant", "dart_c", "--out", str(root / "dart_c")],
        ["train", *base, "--set", "harden_pseudo_labels=1",
         "--out", str(root / "harden")],
        ["train", *base, "--variant", "source_only",
         "--out", str(root / "source_only")],
        ["train", *base, "--set", "beta=0", "--out", str(root / "beta0")],
        ["train", *idx, "--out", str(root / "idx_train")],
        ["eval", *idx, "--checkpoint", str(root / "idx_train" / "model.ckpt"),
         "--out", str(root / "idx_eval")],
    ]
    for argv in runs:
        assert cli.main(argv) == 0, argv
    return root


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_match_recorded_digest(outputs, name):
    assert sha256(outputs / name) == kernel_digests(GOLDEN_BY_KERNEL)[name]
