"""Dataset construction, synthetic shifts, normalization, and IDX I/O."""

import math
import struct

import numpy as np
import pytest

from dart import data as dd
from dart.errors import ConfigError, ContractError, DataFormatError
from dart.rng import STREAM_DATA, Prng, derive_seed

from conftest import peak_bytes, scalar_normal


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
    x, _ = dd.gen_blobs(3, 2, 2, spread=0.0, rng=Prng(1))
    for j in range(3):
        angle = 2 * math.pi * j / 3
        mean = [4 * math.cos(angle), 4 * math.sin(angle)]
        for k in range(2):
            assert np.allclose(x[2 * j + k], mean, atol=1e-12)


def test_blobs_counts_and_label_layout():
    x, labels = dd.gen_blobs(2, 3, 2, spread=0.5, rng=Prng(2))
    assert len(x) == 6
    assert labels[:3].tolist() == [[1.0, 0.0]] * 3
    assert labels[3:].tolist() == [[0.0, 1.0]] * 3
    task = dd.make_blobs_task(2, classes=2, per_class=3)
    assert task.source.domain_tag == "source"
    assert np.array_equal(task.source.labels, labels)


def test_blobs_golden_checksum():
    # frozen after the first verified run; guards the draw order
    x, _ = dd.gen_blobs(3, 4, 2, spread=1.0, rng=Prng(42))
    digest = float(np.sum(np.abs(x)))
    assert digest == pytest.approx(GOLDEN_BLOB_ABS_SUM, abs=1e-9)
    assert x[0, 0] == pytest.approx(GOLDEN_BLOB_FIRST, abs=1e-12)


def looped_blobs(classes, per_class, d, spread, rng):
    """gen_blobs row by row and coordinate by coordinate, one scalar
    normal at a time."""
    samples = np.zeros((classes * per_class, d))
    indices = []
    for j in range(classes):
        angle = 2.0 * np.pi * j / classes
        mean = np.zeros(d)
        mean[0] = 4.0 * np.cos(angle)
        mean[1] = 4.0 * np.sin(angle)
        for _ in range(per_class):
            noise = np.array([scalar_normal(rng) for _ in range(d)])
            samples[len(indices)] = mean + spread * noise
            indices.append(j)
    return samples, np.eye(classes)[indices]


@pytest.mark.parametrize("shape", [(3, 100, 2, 1.1), (5, 40, 4, 0.3),
                                   (2, 1, 2, 0.0)])
def test_blobs_equal_the_row_by_row_loop(shape):
    for seed in range(1, 11):
        a, b = Prng(seed), Prng(seed)
        x, labels = dd.gen_blobs(*shape, a)
        want_x, want_labels = looped_blobs(*shape, b)
        assert x.shape == want_x.shape and x.dtype == want_x.dtype
        assert x.tobytes() == want_x.tobytes()
        assert labels.tobytes() == want_labels.tobytes()
        assert a._state == b._state


# Values recorded from the initial run of gen_blobs(3, 4, 2, 1.0, Prng(42)).
GOLDEN_BLOB_ABS_SUM = 59.42505960894693
GOLDEN_BLOB_FIRST = 4.8822489062222685


def test_blobs_rejects_bad_arguments():
    with pytest.raises(ConfigError):
        dd.make_blobs_task(1, classes=1)
    with pytest.raises(ConfigError):
        dd.make_blobs_task(1, dim=1)


def test_blobs_refuse_a_non_integer_count():
    # refused, not rounded into a task of some other size
    with pytest.raises(ConfigError, match="task.per_class"):
        dd.make_blobs_task(1, per_class=2.5)


@pytest.mark.parametrize("key, value", [
    ("translation", 2.5),
    ("rotation", "x"),
    ("rotation", 10**400),
])
def test_blobs_refuse_a_shift_of_the_wrong_type_before_generating(monkeypatch, key,
                                                                 value):
    monkeypatch.setattr(dd, "gen_blobs", None)
    with pytest.raises(ConfigError, match=f"task.{key}"):
        dd.make_blobs_task(1, **{key: value})


# ---------------------------------------------------------------------------
# apply_shift


def shift_spec(rotation, translation, scale=1.0):
    return dd.TaskConfig(rotation=rotation, translation=translation, scale=scale)


def identity_spec(d=2):
    return shift_spec(0.0, tuple([0.0] * d))


def test_shift_identity_preserves_samples():
    x, _ = dd.gen_blobs(2, 5, 2, 1.0, Prng(3))
    out = dd.apply_shift(x, identity_spec())
    assert np.allclose(out, x, atol=1e-12)


def test_shift_leaves_its_input_unwritten():
    x, _ = dd.gen_blobs(3, 10, 4, 0.8, Prng(7))
    before = x.copy()
    x.flags.writeable = False
    out = dd.apply_shift(x, shift_spec(0.9, (1.5, -1.0), scale=1.7))
    assert x.tobytes() == before.tobytes()
    assert not np.shares_memory(out, x)
    assert out.flags.writeable


def test_shift_half_turn():
    spec = shift_spec(math.pi, (0.5, 0.5, 0.0))
    out = dd.apply_shift(np.array([[1.0, 0.0, 7.0]]), spec)
    assert np.allclose(out, [[-0.5, 0.5, 7.0]], atol=1e-12)


def test_shift_quarter_rotation_with_scale():
    spec = shift_spec(math.pi / 4, (0.0, 0.0), scale=2.0)
    out = dd.apply_shift(np.array([[1.0, 0.0]]), spec)
    root2 = math.sqrt(2.0)
    assert np.allclose(out, [[root2, root2]], atol=1e-12)


def inverse_shift(spec):
    """Spec undoing ``spec``: x = (1/s) R(-theta) (x' - t), the rotation
    acting on the first two coordinates."""
    c, s = math.cos(-spec.rotation), math.sin(-spec.rotation)
    inv_t = -np.asarray(spec.translation) / spec.scale
    inv_t[:2] = np.array([[c, -s], [s, c]]) @ inv_t[:2]
    return shift_spec(-spec.rotation, tuple(inv_t), scale=1.0 / spec.scale)


def test_shift_inverse_recovers_samples():
    x, _ = dd.gen_blobs(3, 10, 4, 0.8, Prng(7))
    spec = shift_spec(0.9, (1.5, -1.0, 0.3, 2.0), scale=1.7)
    fwd = dd.apply_shift(x, spec)
    back = dd.apply_shift(fwd, inverse_shift(spec))
    assert np.allclose(back, x, atol=1e-9)


def test_shift_spec_validation():
    with pytest.raises(ConfigError):
        dd.make_blobs_task(1, scale=0.0)
    x, _ = dd.gen_blobs(2, 3, 2, 0.5, Prng(12))
    with pytest.raises(ContractError, match="translation length 3"):
        dd.apply_shift(x, shift_spec(0.0, (1.0, 2.0, 3.0)))
    # a translation shorter than the data is zero-padded
    out = dd.apply_shift(x, shift_spec(0.0, (1.0,)))
    assert np.allclose(out, x + [1.0, 0.0], atol=1e-12)


# ---------------------------------------------------------------------------
# subsample


def test_subsample_keeps_alignment(tmp_path):
    cfg = idx_task_config(tmp_path, n=40)
    x, labels = dd.load_idx(cfg.images, cfg.labels)
    cfg.subsample, cfg.normalization = 10, "none"
    sub = dd.make_task(cfg, 15).source
    assert sub.size == 10
    # every subsampled row exists in the original with the same label
    for i in range(10):
        matches = np.where((x == sub.samples[i]).all(axis=1))[0]
        assert len(matches) == 1
        assert np.array_equal(labels[matches[0]], sub.labels[i])


def test_subsample_out_of_range():
    with pytest.raises(ContractError, match="out of range 1..4"):
        dd.subsample(4, 5, Prng(17))


# ---------------------------------------------------------------------------
# normalization


def normalized_pair(x):
    """``normalize_pair`` on two copies of ``x``; returns both."""
    source, target = x.copy(), x.copy()
    dd.normalize_pair(source, target)
    return source, target


def test_normalize_constant_feature_floored_to_zero():
    out, _ = normalized_pair(np.array([[3.0, 1.0], [3.0, 2.0], [3.0, 3.0]]))
    assert np.all(out[:, 0] == 0.0)


def test_normalize_two_point_feature():
    out, _ = normalized_pair(np.array([[0.0, 0.0], [2.0, 2.0]]))
    assert np.allclose(out, [[-1.0, -1.0], [1.0, 1.0]], atol=1e-12)


def test_normalize_idempotent_on_standardized_data():
    rng = Prng(18)
    raw = rng.normal_block(150).reshape(50, 3)
    ds, _ = normalized_pair(raw)
    again, _ = normalized_pair(ds)
    assert np.allclose(again, ds, atol=1e-9)


def test_normalize_pair_uses_source_statistics():
    src = np.array([[0.0, 0.0], [2.0, 2.0], [4.0, 4.0]])
    tgt = np.array([[10.0, 10.0]])
    ns, nt = src.copy(), tgt.copy()
    dd.normalize_pair(ns, nt)
    mean, std = src.mean(axis=0), src.std(axis=0)
    assert np.allclose(nt, (tgt - mean) / std, atol=1e-12)
    # target keeps its own shift relative to the source frame
    assert nt[0, 0] > ns[:, 0].max()


def test_normalize_pair_none_mode_is_passthrough():
    cfg = dd.TaskConfig(classes=2, per_class=3, normalization="none")
    rng = Prng(derive_seed(19, STREAM_DATA))
    src, _ = dd.gen_blobs(2, 3, 2, cfg.spread, rng)
    tgt = dd.apply_shift(src, cfg)
    task = dd.make_task(cfg, 19)
    assert task.source.samples.tobytes() == src.tobytes()
    assert task.target.samples.tobytes() == tgt.tobytes()
    with pytest.raises(ConfigError):
        dd.make_blobs_task(19, normalization="target")


def test_overflowing_source_std_is_a_contract_error():
    # the std of values near 1e160 overflows to inf, and x / inf would
    # standardize both domains to zeros
    src, tgt = np.array([[1e160, 0.0], [-1e160, 1.0]]), np.ones((1, 2))
    with np.errstate(over="ignore"):
        for spread in (1e160, 1e200):
            with pytest.raises(ContractError, match="std is not finite"):
                dd.make_blobs_task(1, spread=spread)
        with pytest.raises(ContractError, match="too large to standardize"):
            dd.normalize_pair(src, tgt)
    # the check comes before either array is written
    assert src.tolist() == [[1e160, 0.0], [-1e160, 1.0]]
    assert tgt.tolist() == [[1.0, 1.0]]
    task = dd.make_blobs_task(1, spread=1e150)
    assert np.all(task.source.samples.std(axis=0) > 0.5)
    assert np.all(np.isfinite(task.target.samples))


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
    x, labels = dd.load_idx(img, lab)
    assert x.shape == (2, 4)
    assert labels.shape == (2, 10)
    assert x[0].tolist() == [0.0, 1.0, 128 / 255.0, 0.0]
    assert x[1].tolist() == [1.0, 1.0, 0.0, 64 / 255.0]
    assert np.argmax(labels, axis=1).tolist() == [3, 7]


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
    x, labels = dd.load_idx(img, lab)
    img2 = tmp_path / "images2.idx"
    lab2 = tmp_path / "labels2.idx"
    dd.write_idx(dd.Dataset(x, labels, "source", 10), img2, lab2,
                 rows=2, cols=2)
    assert img2.read_bytes() == img.read_bytes()
    assert lab2.read_bytes() == lab.read_bytes()
    again, _ = dd.load_idx(img2, lab2)
    assert np.array_equal(again, x)


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
    source, _ = dd.load_idx(cfg.images, cfg.labels)
    x = source * cfg.scale
    c, s = np.cos(cfg.rotation), np.sin(cfg.rotation)
    rotated = x.copy()
    rotated[:, :2] = x[:, :2] @ np.array([[c, -s], [s, c]]).T
    shifted = rotated + np.array([0.5, -0.25] + [0.0] * (source.shape[1] - 2))
    mean = source.mean(axis=0)
    std = np.maximum(source.std(axis=0), dd.STD_FLOOR)
    assert task.source.samples.tobytes() == ((source - mean) / std).tobytes()
    assert task.target.samples.tobytes() == ((shifted - mean) / std).tobytes()


def test_make_task_on_idx_holds_at_most_two_and_three_quarter_sample_arrays(
        tmp_path):
    # the loaded pixels and their shifted copy, which the task keeps; the
    # source std sums squared deviations a block of rows at a time, and
    # both arrays are standardized in place
    cfg = idx_task_config(tmp_path)
    peak, task = peak_bytes(lambda: dd.make_task(cfg, 1))
    assert peak <= 2.75 * task.source.samples.nbytes


@pytest.mark.parametrize("kind", ["blobs", "idx"])
def test_make_task_builds_exactly_two_datasets(tmp_path, monkeypatch, kind):
    # every transform works on arrays; make_task checks each domain once
    built = []
    post_init = dd.Dataset.__post_init__

    def counting(ds):
        built.append(ds.domain_tag)
        post_init(ds)

    monkeypatch.setattr(dd.Dataset, "__post_init__", counting)
    cfg = dd.TaskConfig()
    if kind == "idx":
        cfg = idx_task_config(tmp_path)
        cfg.subsample = 50
    dd.make_task(cfg, 1)
    assert built == ["source", "target"]


@pytest.mark.parametrize("kind", ["blobs", "idx"])
def test_make_task_seals_the_target_labels(tmp_path, kind):
    cfg = idx_task_config(tmp_path) if kind == "idx" else dd.TaskConfig()
    task = dd.make_task(cfg, 1)
    assert task.source.domain_tag == "source"
    assert task.target.domain_tag == "target"
    assert task.target.labels is None
    assert np.array_equal(task.target.sealed_labels, task.source.labels)
    assert np.array_equal(dd.true_label_indices(task.target),
                          np.argmax(task.source.labels, axis=1))
    # make_task hands its own arrays over; nothing a Dataset holds is
    # writable
    for arr in (task.source.samples, task.source.labels,
                task.target.samples, task.target.sealed_labels):
        assert not arr.flags.writeable
