"""Dataset construction, synthetic shifts, normalization, and IDX I/O."""

import math
import struct

import numpy as np
import pytest

from dart import data as dd
from dart.errors import ConfigError, ContractError, DataFormatError
from dart.rng import STREAM_DATA, Prng, derive_seed

from conftest import peak_bytes


# ---------------------------------------------------------------------------
# Dataset contracts


def test_dataset_validates_one_hot():
    with pytest.raises(ContractError):
        dd.Dataset(np.zeros((2, 2)), np.array([[0.5, 0.5], [1, 0]]), "source", 2)
    with pytest.raises(ContractError):
        dd.Dataset(np.zeros((2, 2)), np.array([[1, 1], [1, 0]]), "source", 2)


def test_dataset_rejects_bad_tag_and_empty():
    with pytest.raises(ContractError):
        dd.Dataset(np.zeros((1, 2)), None, "middle", 2)
    with pytest.raises(ContractError):
        dd.Dataset(np.zeros((0, 2)), None, "source", 2)


def test_dataset_rejects_non_finite_samples():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ContractError, match="target samples must be finite"):
            dd.Dataset(np.array([[0.0, bad], [1.0, 2.0]]), None, "target", 2)


def test_dataset_arrays_are_read_only():
    ds = dd.Dataset(np.zeros((2, 2)), np.eye(2), "source", 2)
    with pytest.raises(ValueError):
        ds.samples[0, 0] = 1.0
    with pytest.raises(ValueError):
        ds.labels[0, 0] = 0.0


def test_true_label_indices_prefers_open_then_sealed():
    ds = dd.Dataset(np.zeros((2, 3)), np.eye(3)[[2, 0]], "source", 3)
    assert dd.true_label_indices(ds).tolist() == [2, 0]
    sealed = dd.Dataset(
        np.zeros((2, 3)), None, "target", 3, sealed_labels=np.eye(3)[[1, 1]]
    )
    assert dd.true_label_indices(sealed).tolist() == [1, 1]
    bare = dd.Dataset(np.zeros((2, 3)), None, "target", 3)
    with pytest.raises(ContractError):
        dd.true_label_indices(bare)


# ---------------------------------------------------------------------------
# gen_blobs


def test_blobs_zero_spread_sits_on_means():
    ds = dd.gen_blobs(3, 2, 2, spread=0.0, rng=Prng(1))
    for j in range(3):
        angle = 2 * math.pi * j / 3
        mean = [4 * math.cos(angle), 4 * math.sin(angle)]
        for k in range(2):
            assert np.allclose(ds.samples[2 * j + k], mean, atol=1e-12)


def test_blobs_counts_and_label_layout():
    ds = dd.gen_blobs(2, 3, 2, spread=0.5, rng=Prng(2))
    assert ds.size == 6
    assert ds.labels[:3].tolist() == [[1.0, 0.0]] * 3
    assert ds.labels[3:].tolist() == [[0.0, 1.0]] * 3
    assert ds.domain_tag == "source"


def test_blobs_golden_checksum():
    # frozen after the first verified run; guards the draw order
    ds = dd.gen_blobs(3, 4, 2, spread=1.0, rng=Prng(42))
    digest = float(np.sum(np.abs(ds.samples)))
    assert digest == pytest.approx(GOLDEN_BLOB_ABS_SUM, abs=1e-9)
    assert ds.samples[0, 0] == pytest.approx(GOLDEN_BLOB_FIRST, abs=1e-12)


# Values recorded from the initial run of gen_blobs(3, 4, 2, 1.0, Prng(42)).
GOLDEN_BLOB_ABS_SUM = 59.42505960894693
GOLDEN_BLOB_FIRST = 4.8822489062222685


def test_blobs_rejects_bad_arguments():
    with pytest.raises(ConfigError):
        dd.make_blobs_task(1, classes=1)
    with pytest.raises(ConfigError):
        dd.make_blobs_task(1, dim=1)


# ---------------------------------------------------------------------------
# apply_shift


def shift_spec(rotation, translation, scale=1.0):
    return dd.TaskConfig(rotation=rotation, translation=translation, scale=scale)


def identity_spec(d=2):
    return shift_spec(0.0, tuple([0.0] * d))


def test_shift_identity_preserves_samples():
    ds = dd.gen_blobs(2, 5, 2, 1.0, Prng(3))
    out = dd.apply_shift(ds, identity_spec())
    assert np.allclose(out.samples, ds.samples, atol=1e-12)
    assert out.domain_tag == "target"
    assert out.labels is None
    assert np.array_equal(out.sealed_labels, ds.labels)


def test_shift_half_turn():
    ds = dd.Dataset(np.array([[1.0, 0.0, 7.0]]), np.array([[1.0, 0.0]]),
                    "source", 2)
    spec = shift_spec(math.pi, (0.5, 0.5, 0.0))
    out = dd.apply_shift(ds, spec)
    assert np.allclose(out.samples, [[-0.5, 0.5, 7.0]], atol=1e-12)


def test_shift_quarter_rotation_with_scale():
    ds = dd.Dataset(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]), "source", 2)
    spec = shift_spec(math.pi / 4, (0.0, 0.0), scale=2.0)
    out = dd.apply_shift(ds, spec)
    root2 = math.sqrt(2.0)
    assert np.allclose(out.samples, [[root2, root2]], atol=1e-12)


def inverse_shift(spec):
    """Spec undoing ``spec``: x = (1/s) R(-theta) (x' - t), the rotation
    acting on the first two coordinates."""
    c, s = math.cos(-spec.rotation), math.sin(-spec.rotation)
    inv_t = -np.asarray(spec.translation) / spec.scale
    inv_t[:2] = np.array([[c, -s], [s, c]]) @ inv_t[:2]
    return shift_spec(-spec.rotation, tuple(inv_t), scale=1.0 / spec.scale)


def test_shift_inverse_recovers_samples():
    ds = dd.gen_blobs(3, 10, 4, 0.8, Prng(7))
    spec = shift_spec(0.9, (1.5, -1.0, 0.3, 2.0), scale=1.7)
    fwd = dd.apply_shift(ds, spec)
    back = dd.apply_shift(fwd, inverse_shift(spec))
    assert np.allclose(back.samples, ds.samples, atol=1e-9)


def test_shift_spec_validation():
    with pytest.raises(ConfigError):
        dd.make_blobs_task(1, scale=0.0)
    ds = dd.gen_blobs(2, 3, 2, 0.5, Prng(12))
    with pytest.raises(ContractError, match="translation length 3"):
        dd.apply_shift(ds, shift_spec(0.0, (1.0, 2.0, 3.0)))
    # a translation shorter than the data is zero-padded
    out = dd.apply_shift(ds, shift_spec(0.0, (1.0,)))
    assert np.allclose(out.samples, ds.samples + [1.0, 0.0], atol=1e-12)


# ---------------------------------------------------------------------------
# subsample


def test_subsample_keeps_alignment():
    ds = dd.gen_blobs(3, 20, 2, 0.5, Prng(14))
    sub = dd.subsample(ds, 10, Prng(15))
    assert sub.size == 10
    # every subsampled row exists in the original with the same label
    for i in range(10):
        matches = np.where((ds.samples == sub.samples[i]).all(axis=1))[0]
        assert len(matches) == 1
        assert np.array_equal(ds.labels[matches[0]], sub.labels[i])


def test_subsample_out_of_range():
    ds = dd.gen_blobs(2, 2, 2, 0.5, Prng(16))
    with pytest.raises(ContractError):
        dd.subsample(ds, 5, Prng(17))


# ---------------------------------------------------------------------------
# normalization


def test_normalize_constant_feature_floored_to_zero():
    ds = dd.Dataset(
        np.array([[3.0, 1.0], [3.0, 2.0], [3.0, 3.0]]), None, "source", 2
    )
    out, _ = dd.normalize_pair(ds, ds)
    assert np.all(out.samples[:, 0] == 0.0)


def test_normalize_two_point_feature():
    ds = dd.Dataset(np.array([[0.0, 0.0], [2.0, 2.0]]), None, "source", 2)
    out, _ = dd.normalize_pair(ds, ds)
    assert np.allclose(out.samples, [[-1.0, -1.0], [1.0, 1.0]], atol=1e-12)


def test_normalize_idempotent_on_standardized_data():
    rng = Prng(18)
    raw = np.array([[rng.normal() for _ in range(3)] for _ in range(50)])
    raw_ds = dd.Dataset(raw, None, "source", 2)
    ds, _ = dd.normalize_pair(raw_ds, raw_ds)
    again, _ = dd.normalize_pair(ds, ds)
    assert np.allclose(again.samples, ds.samples, atol=1e-9)


def test_normalize_pair_uses_source_statistics():
    src = dd.Dataset(np.array([[0.0, 0.0], [2.0, 2.0], [4.0, 4.0]]),
                     None, "source", 2)
    tgt = dd.Dataset(np.array([[10.0, 10.0]]), None, "target", 2,
                     sealed_labels=None)
    ns, nt = dd.normalize_pair(src, tgt)
    mean, std = src.samples.mean(axis=0), src.samples.std(axis=0)
    assert np.allclose(nt.samples, (tgt.samples - mean) / std, atol=1e-12)
    # target keeps its own shift relative to the source frame
    assert nt.samples[0, 0] > ns.samples[:, 0].max()


def test_normalize_pair_none_mode_is_passthrough():
    cfg = dd.TaskConfig(classes=2, per_class=3, normalization="none")
    rng = Prng(derive_seed(19, STREAM_DATA))
    src = dd.gen_blobs(2, 3, 2, cfg.spread, rng)
    tgt = dd.apply_shift(src, cfg)
    task = dd.make_task(cfg, 19)
    assert task.source.samples.tobytes() == src.samples.tobytes()
    assert task.target.samples.tobytes() == tgt.samples.tobytes()
    with pytest.raises(ConfigError):
        dd.make_blobs_task(19, normalization="target")


# ---------------------------------------------------------------------------
# IDX binary I/O


def write_fixture_pair(tmp_path, pixels, labels, rows=2, cols=2,
                       images_magic=dd.IDX_IMAGES_MAGIC,
                       labels_magic=dd.IDX_LABELS_MAGIC,
                       truncate_images=False):
    img = tmp_path / "images.idx"
    lab = tmp_path / "labels.idx"
    n = len(labels)
    body = struct.pack(">IIII", images_magic, n, rows, cols) + bytes(pixels)
    if truncate_images:
        body = body[:-3]
    img.write_bytes(body)
    lab.write_bytes(struct.pack(">II", labels_magic, n) + bytes(labels))
    return img, lab


def test_idx_two_image_fixture_parses_exactly(tmp_path):
    pixels = [0, 255, 128, 0, 255, 255, 0, 64]
    img, lab = write_fixture_pair(tmp_path, pixels, [3, 7])
    ds = dd.load_idx(img, lab)
    assert ds.size == 2
    assert ds.dim == 4
    assert ds.class_count == 10
    assert ds.samples[0].tolist() == [0.0, 1.0, 128 / 255.0, 0.0]
    assert ds.samples[1].tolist() == [1.0, 1.0, 0.0, 64 / 255.0]
    assert dd.true_label_indices(ds).tolist() == [3, 7]


def test_idx_wrong_image_magic_names_expected(tmp_path):
    img, lab = write_fixture_pair(
        tmp_path, [0, 0, 0, 0], [1], images_magic=dd.IDX_LABELS_MAGIC
    )
    with pytest.raises(DataFormatError) as exc:
        dd.load_idx(img, lab)
    assert "0x00000803" in str(exc.value)


def test_idx_wrong_label_magic(tmp_path):
    img, lab = write_fixture_pair(
        tmp_path, [0, 0, 0, 0], [1], labels_magic=0x00000903
    )
    with pytest.raises(DataFormatError) as exc:
        dd.load_idx(img, lab)
    assert "0x00000801" in str(exc.value)


def test_idx_count_mismatch(tmp_path):
    img = tmp_path / "images.idx"
    lab = tmp_path / "labels.idx"
    img.write_bytes(struct.pack(">IIII", dd.IDX_IMAGES_MAGIC, 2, 1, 1) + bytes([5, 9]))
    lab.write_bytes(struct.pack(">II", dd.IDX_LABELS_MAGIC, 3) + bytes([1, 2, 3]))
    with pytest.raises(DataFormatError) as exc:
        dd.load_idx(img, lab)
    assert "2" in str(exc.value) and "3" in str(exc.value)


def test_idx_truncated_payload(tmp_path):
    img, lab = write_fixture_pair(
        tmp_path, [0, 0, 0, 0, 0, 0, 0, 0], [1, 2], truncate_images=True
    )
    with pytest.raises(DataFormatError) as exc:
        dd.load_idx(img, lab)
    assert "truncated" in str(exc.value)


def test_idx_round_trip_exact(tmp_path):
    rng = Prng(21)
    pixels = [rng.randint(256) for _ in range(3 * 4)]
    img, lab = write_fixture_pair(tmp_path, pixels, [0, 5, 9])
    ds = dd.load_idx(img, lab)
    img2 = tmp_path / "images2.idx"
    lab2 = tmp_path / "labels2.idx"
    dd.write_idx(ds, img2, lab2, rows=2, cols=2)
    assert img2.read_bytes() == img.read_bytes()
    assert lab2.read_bytes() == lab.read_bytes()
    again = dd.load_idx(img2, lab2)
    assert np.array_equal(again.samples, ds.samples)


def idx_task_config(tmp_path, n=200, rows=16, cols=16):
    """A shifted IDX task on n random rows x cols images."""
    pixels = Prng(23).block(n * rows * cols).astype(np.uint8)
    img, lab = write_fixture_pair(tmp_path, pixels, [i % 10 for i in range(n)],
                                  rows, cols)
    return dd.TaskConfig(kind="idx", images=str(img), labels=str(lab),
                         rotation=0.3, translation=(0.5, -0.25), scale=0.8)


def test_idx_task_keeps_the_bits_of_the_out_of_place_build(tmp_path):
    cfg = idx_task_config(tmp_path)
    task = dd.make_task(cfg, 1)
    source = dd.load_idx(cfg.images, cfg.labels)
    x = source.samples * cfg.scale
    c, s = np.cos(cfg.rotation), np.sin(cfg.rotation)
    rotated = x.copy()
    rotated[:, :2] = x[:, :2] @ np.array([[c, -s], [s, c]]).T
    shifted = rotated + np.array([0.5, -0.25] + [0.0] * (source.dim - 2))
    mean = source.samples.mean(axis=0)
    std = np.maximum(source.samples.std(axis=0), dd.STD_FLOOR)
    assert task.source.samples.tobytes() == ((source.samples - mean) / std).tobytes()
    assert task.target.samples.tobytes() == ((shifted - mean) / std).tobytes()


def test_make_task_on_idx_holds_at_most_four_sample_arrays(tmp_path):
    # the loaded pixels, the shifted copy and the two standardized outputs;
    # each step makes one new array and works in place on it
    cfg = idx_task_config(tmp_path)
    peak, task = peak_bytes(lambda: dd.make_task(cfg, 1))
    assert peak <= 4.5 * task.source.samples.nbytes
