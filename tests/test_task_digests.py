"""Pins the bytes of the four arrays ``make_task`` hands to training and
evaluation: source samples, source labels, target samples and the
target's sealed labels, for blobs and IDX tasks with and without
standardization. Any change to the task build that moves one bit fails
here. One set per OpenBLAS kernel: the shift's rotation is a matrix
product, which the kernels round differently; the test picks the running
kernel's set and fails on a kernel with none."""

import hashlib
import struct

import numpy as np
import pytest

from conftest import kernel_digests
from dart import data as dd
from dart.rng import Prng


def digest(a):
    """sha256 of an array's shape and its C-order bytes, 16 hex digits."""
    h = hashlib.sha256(repr(a.shape).encode())
    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def write_idx_fixture(root, n=60, rows=6, cols=6):
    """An IDX pair of n drawn rows x cols images, labels cycling 0..9."""
    img, lab = root / "images.idx", root / "labels.idx"
    pixels = Prng(31).block(n * rows * cols).astype(np.uint8)
    img.write_bytes(struct.pack(">IIII", dd.IDX_IMAGES_MAGIC, n, rows, cols)
                    + pixels.tobytes())
    lab.write_bytes(struct.pack(">II", dd.IDX_LABELS_MAGIC, n)
                    + bytes(i % 10 for i in range(n)))
    return {"kind": "idx", "images": str(img), "labels": str(lab)}


BLOB_LABELS = "d5a3ed8fbc0d3af5"  # 3 classes x 100 rows, class-major
# name: (TaskConfig fields, built on the IDX fixture, digests of source
# samples, source labels, target samples, target sealed labels)
CASES = {
    "blobs": ({}, False, ("d6ac95648e2510fd", BLOB_LABELS,
                          "5ff599e4bd0818d7", BLOB_LABELS)),
    "blobs-raw": ({"normalization": "none"}, False,
                  ("65e011639363186b", BLOB_LABELS,
                   "da3661ade55e20bd", BLOB_LABELS)),
    "blobs-wide": ({"dim": 4, "translation": (1.5,), "scale": 0.7,
                    "rotation": 0.3}, False,
                   ("91ffd7f360726b99", BLOB_LABELS,
                    "6c2a3a471abfbbd5", BLOB_LABELS)),
    "idx": ({}, True, ("1713e005f1da62c6", "e710b28731c1777b",
                       "db1312984d1dcc99", "e710b28731c1777b")),
    "idx-subsample-raw": ({"subsample": 25, "normalization": "none"}, True,
                          ("580f95c9db0cd663", "20e8bbab1beb9905",
                           "9de878b8b20121a1", "20e8bbab1beb9905")),
}

# kernel -> name -> the four digests. Haswell gives SkylakeX's (CASES)
# bytes; Sandybridge moves every target sample array, recorded from the
# same unchanged code.
SKYLAKEX = {name: case[2] for name, case in CASES.items()}
DIGESTS_BY_KERNEL = {
    "SkylakeX": SKYLAKEX,
    "Haswell": SKYLAKEX,
    "Sandybridge": {
        "blobs": ("d6ac95648e2510fd", BLOB_LABELS,
                  "0c7b11c4161c470f", BLOB_LABELS),
        "blobs-raw": ("65e011639363186b", BLOB_LABELS,
                      "685d5fb9a4c4889b", BLOB_LABELS),
        "blobs-wide": ("91ffd7f360726b99", BLOB_LABELS,
                       "5c90a1e3a0d73604", BLOB_LABELS),
        "idx": ("1713e005f1da62c6", "e710b28731c1777b",
                "7d0698a6b9bb902b", "e710b28731c1777b"),
        "idx-subsample-raw": ("580f95c9db0cd663", "20e8bbab1beb9905",
                              "818f50e4f484b47f", "20e8bbab1beb9905"),
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_make_task_arrays_keep_their_bytes(tmp_path, name):
    fields, idx, _ = CASES[name]
    if idx:
        fields = {**fields, **write_idx_fixture(tmp_path)}
    task = dd.make_task(dd.TaskConfig(**fields), 7)
    got = tuple(digest(a) for a in (task.source.samples, task.source.labels,
                                    task.target.samples,
                                    task.target.sealed_labels))
    assert got == kernel_digests(DIGESTS_BY_KERNEL)[name]
