import struct

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from rtda.data import (
    SceneDataset,
    ShiftConfig,
    batches_per_epoch,
    class_palette,
    derive_seed,
    epoch_schedule,
    generate_dataset,
    generate_scene,
    load_raster,
    paired_batch,
    read_sample,
    save_raster,
    write_sample,
)


# ---------------------------------------------------------------------------
# config and palette


def test_palette_shape_and_range():
    pal = class_palette(5)
    assert pal.shape == (5, 3)
    assert pal.min() >= 0.0 and pal.max() <= 1.0
    assert len({tuple(row) for row in pal.round(6).tolist()}) == 5


def test_shift_config_row_sums_validated():
    bad = np.array([[0.5, 0.5, 0.5], [0.2, 0.6, 0.2], [0.1, 0.1, 0.8]])
    with pytest.raises(ValueError):
        ShiftConfig(mixing=bad, gamma=np.ones(3), sigma_source=0.05,
                    sigma_target=0.1, palette=class_palette(5))


def test_shift_config_default_rows_sum_to_one():
    cfg = ShiftConfig.default(5)
    np.testing.assert_allclose(cfg.mixing.sum(axis=1), 1.0, atol=1e-6)
    assert np.all(cfg.gamma > 0)


def test_derive_seed_spreads_salts():
    assert derive_seed(0, 1) != derive_seed(0, 2)
    assert derive_seed(1, 1) != derive_seed(2, 1)
    assert derive_seed(5, 7) == derive_seed(5, 7)


# ---------------------------------------------------------------------------
# scene generation


def test_scene_deterministic():
    cfg = ShiftConfig.default(5)
    a = generate_scene(3, "target", cfg)
    b = generate_scene(3, "target", cfg)
    assert np.array_equal(a.image.data, b.image.data)
    assert np.array_equal(a.labels, b.labels)


def test_labels_shared_across_domains():
    cfg = ShiftConfig.default(5)
    for seed in range(10):
        src = generate_scene(seed, "source", cfg)
        tgt = generate_scene(seed, "target", cfg)
        assert np.array_equal(src.labels, tgt.labels)
        assert not np.array_equal(src.image.data, tgt.image.data)


def test_scene_value_ranges():
    cfg = ShiftConfig.default(5)
    s = generate_scene(0, "source", cfg)
    assert s.image.data.dtype == np.float32
    assert s.image.data.shape == (3, 64, 64)
    assert s.image.data.min() >= 0.0 and s.image.data.max() <= 1.0
    assert s.labels.shape == (64, 64)
    assert s.labels.max() < 5


def test_identity_config_matches_distributions():
    """With identity mixing, unit gamma, and equal noise, the two domains
    differ only by their independent noise streams."""
    cfg = ShiftConfig.identity(5, sigma=0.05)
    diffs = []
    for seed in range(100):
        src = generate_scene(seed, "source", cfg, size=(32, 32))
        tgt = generate_scene(seed, "target", cfg, size=(32, 32))
        diffs.append(np.abs(src.image.data.mean(axis=(1, 2)) - tgt.image.data.mean(axis=(1, 2))))
    assert float(np.mean(diffs)) < 0.01


def test_class_balance_over_thousand_seeds():
    cfg = ShiftConfig.default(5)
    k = 5
    hits = np.zeros(k)
    n = 1000
    for seed in range(n):
        labels = generate_scene(seed, "source", cfg).labels
        present = np.unique(labels)
        hits[present] += 1
    assert np.all(hits / n >= 0.95)


def test_scene_rejects_bad_arguments():
    cfg = ShiftConfig.default(5)
    with pytest.raises(ValueError):
        generate_scene(0, "middle", cfg)
    with pytest.raises(ValueError):
        generate_scene(0, "source", cfg, size=(8, 8))
    with pytest.raises(ValueError):
        generate_scene(0, "source", cfg, num_classes=1)
    with pytest.raises(ValueError):
        generate_scene(0, "source", cfg, num_classes=9)  # palette too small


# ---------------------------------------------------------------------------
# raster format


def test_raster_round_trip_f32():
    img = np.random.default_rng(0).random((3, 16, 16)).astype(np.float32)
    back = load_raster(save_raster(img))
    assert back.dtype == np.float32
    assert np.array_equal(back, img)


def test_raster_round_trip_u8():
    labels = np.random.default_rng(1).integers(0, 5, (1, 8, 8)).astype(np.uint8)
    back = load_raster(save_raster(labels))
    assert back.dtype == np.uint8
    assert np.array_equal(back, labels)


def test_raster_header_layout():
    img = np.zeros((3, 64, 64), dtype=np.float32)
    blob = save_raster(img)
    assert blob[:4] == b"SDR1"
    version, c, h, w, code = struct.unpack("<5I", blob[4:24])
    assert (version, c, h, w, code) == (1, 3, 64, 64, 1)
    assert len(blob) == 24 + 3 * 64 * 64 * 4  # 49,152 payload floats


def test_raster_bad_magic():
    blob = bytearray(save_raster(np.zeros((1, 4, 4), dtype=np.float32)))
    blob[:4] = b"NOPE"
    with pytest.raises(ValueError, match="bad magic"):
        load_raster(bytes(blob))


def test_raster_truncation_detected():
    blob = save_raster(np.ones((1, 4, 4), dtype=np.float32))
    with pytest.raises(ValueError, match="truncated"):
        load_raster(blob[:-3])
    with pytest.raises(ValueError, match="truncated"):
        load_raster(blob[:10])


def test_raster_unknown_dtype_code():
    blob = bytearray(save_raster(np.zeros((1, 4, 4), dtype=np.float32)))
    blob[20:24] = struct.pack("<I", 9)
    with pytest.raises(ValueError, match="dtype"):
        load_raster(bytes(blob))


def test_raster_rejects_unsupported_input():
    with pytest.raises(ValueError):
        save_raster(np.zeros((2, 2, 2, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        save_raster(np.zeros((1, 4, 4), dtype=np.float64))


# ---------------------------------------------------------------------------
# dataset directory layout


def test_write_read_sample_round_trip(tmp_path):
    cfg = ShiftConfig.default(5)
    sample = generate_scene(7, "target", cfg)
    write_sample(str(tmp_path), "train", sample)
    img_path = tmp_path / "train" / "target" / "7.img.sdr"
    lbl_path = tmp_path / "train" / "target" / "7.lbl.sdr"
    assert img_path.exists() and lbl_path.exists()
    back = read_sample(str(tmp_path), "train", "target", 7)
    assert np.array_equal(back.image.data, sample.image.data)
    assert np.array_equal(back.labels, sample.labels)


def test_generate_dataset_and_scene_dataset(tmp_path):
    cfg = ShiftConfig.default(5)
    generate_dataset(str(tmp_path), "train", range(6), cfg, size=(32, 32))
    src = SceneDataset.from_dir(str(tmp_path), "train", "source")
    tgt = SceneDataset.from_dir(str(tmp_path), "train", "target")
    assert len(src) == len(tgt) == 6
    imgs = src.images([0, 2])
    assert imgs.shape == (2, 3, 32, 32)
    labels = tgt.eval_labels([1])
    assert labels.shape == (1, 32, 32)


def test_scene_dataset_missing_dir(tmp_path):
    with pytest.raises(FileNotFoundError):
        SceneDataset.from_dir(str(tmp_path), "train", "source")


def test_scene_dataset_empty_dir_and_no_samples(tmp_path):
    (tmp_path / "train" / "source").mkdir(parents=True)
    with pytest.raises(ValueError, match="empty dataset directory"):
        SceneDataset.from_dir(str(tmp_path), "train", "source")
    with pytest.raises(ValueError, match="empty dataset"):
        SceneDataset.generate(range(0), "source", ShiftConfig.default(5))


def test_array_dataset_matches_scene_generation():
    cfg = ShiftConfig.default(5)
    ds = SceneDataset.generate(range(4), "source", cfg, size=(32, 32))
    assert len(ds) == 4
    one = generate_scene(2, "source", cfg, size=(32, 32))
    assert np.array_equal(ds.images([2])[0], one.image.data)
    assert np.array_equal(ds.eval_labels([2])[0], one.labels)


# ---------------------------------------------------------------------------
# batching


def test_batch_indices_cover_dataset():
    batches = epoch_schedule(10, 4, seed=0, epoch=0)
    assert [len(b) for b in batches] == [4, 4, 2]
    assert isinstance(batches, tuple) and all(isinstance(b, tuple) for b in batches)
    flat = sorted(i for b in batches for i in b)
    assert flat == list(range(10))


def test_batch_indices_same_seed_same_order():
    assert epoch_schedule(10, 4, seed=3, epoch=1) == epoch_schedule(10, 4, seed=3, epoch=1)


def test_batch_indices_differ_across_seeds_and_epochs():
    a = epoch_schedule(10, 4, seed=0, epoch=0)
    b = epoch_schedule(10, 4, seed=1, epoch=0)
    c = epoch_schedule(10, 4, seed=0, epoch=1)
    assert a != b
    assert a != c


@given(n=st.integers(1, 40), batch=st.integers(1, 8),
       seed=st.integers(0, 1 << 32), epoch=st.integers(0, 5))
@settings(max_examples=50, deadline=None)
def test_batch_indices_is_partition(n, batch, seed, epoch):
    batches = epoch_schedule(n, batch, seed, epoch)
    flat = [i for b in batches for i in b]
    assert sorted(flat) == list(range(n))
    assert all(len(b) <= batch for b in batches)


def test_paired_batch_shuffles_once_per_epoch(monkeypatch):
    from rtda.rng import Xoshiro256StarStar
    cfg = ShiftConfig.default(5)
    src = SceneDataset.generate(range(6), "source", cfg, size=(32, 32))
    tgt = SceneDataset.generate(range(60, 66), "target", cfg, size=(32, 32))
    calls = []
    permutation = Xoshiro256StarStar.permutation
    monkeypatch.setattr(Xoshiro256StarStar, "permutation",
                        lambda self, n: calls.append(n) or permutation(self, n))
    for it in range(2 * batches_per_epoch(6, 6, 2)):
        paired_batch(src, tgt, 2, seed=31337, iteration=it)
    assert len(calls) == 4  # source and target schedule, two epochs


def test_batches_per_epoch_uses_smaller_side():
    assert batches_per_epoch(10, 100, 4) == 3
    assert batches_per_epoch(100, 10, 4) == 3
    assert batches_per_epoch(8, 8, 4) == 2


def test_paired_batch_shapes_and_privacy():
    cfg = ShiftConfig.default(5)
    src = SceneDataset.generate(range(6), "source", cfg, size=(32, 32))
    tgt = SceneDataset.generate(range(100, 105), "target", cfg, size=(32, 32))
    batch = paired_batch(src, tgt, 4, seed=0, iteration=0)
    assert batch.src_images.shape[0] == batch.tgt_images.shape[0] == 4
    assert batch.src_labels.shape == (4, 32, 32)
    assert not hasattr(batch, "tgt_labels")


def test_paired_batch_deterministic_and_epoch_wraps():
    cfg = ShiftConfig.default(5)
    src = SceneDataset.generate(range(6), "source", cfg, size=(32, 32))
    tgt = SceneDataset.generate(range(50, 56), "target", cfg, size=(32, 32))
    a = paired_batch(src, tgt, 4, seed=9, iteration=5)
    b = paired_batch(src, tgt, 4, seed=9, iteration=5)
    assert np.array_equal(a.src_images.data, b.src_images.data)
    assert np.array_equal(a.tgt_images.data, b.tgt_images.data)
    # many iterations keep producing full batches by re-shuffling per epoch
    for it in range(12):
        got = paired_batch(src, tgt, 4, seed=9, iteration=it)
        assert got.src_images.shape[0] == got.tgt_images.shape[0] in (2, 4)

