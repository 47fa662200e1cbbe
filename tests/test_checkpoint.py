import struct

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from rtda.checkpoint import (
    CheckpointError,
    deserialize,
    load_checkpoint,
    save_checkpoint,
    seed_to_limbs,
    serialize,
)


def sample_tensors():
    rng = np.random.default_rng(0)
    return {
        "b.bias": rng.standard_normal(7).astype(np.float32),
        "a.weight": rng.standard_normal((3, 2, 4, 4)).astype(np.float32),
        "scalar": np.float32(2.5),
    }


def test_round_trip_exact():
    tensors = sample_tensors()
    it, back = deserialize(serialize(123, tensors))
    assert it == 123
    assert set(back) == set(tensors)
    for name in tensors:
        got, want = back[name], np.asarray(tensors[name])
        assert got.dtype == np.float32
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_serialization_is_canonical():
    """Insertion order must not leak into the bytes."""
    tensors = sample_tensors()
    reordered = {k: tensors[k] for k in reversed(list(tensors))}
    assert serialize(5, tensors) == serialize(5, reordered)
    # save -> load -> save reproduces the file exactly
    blob = serialize(5, tensors)
    assert serialize(*deserialize(blob)) == blob


def test_header_layout():
    blob = serialize(9, {})
    assert blob[:4] == b"RTDA"
    version, iteration, count = struct.unpack("<IQ I", blob[4:20])
    assert (version, iteration, count) == (1, 9, 0)
    (checksum,) = struct.unpack("<Q", blob[-8:])
    assert checksum == sum(blob[:-8]) & 0xFFFFFFFFFFFFFFFF


def test_checksum_detects_corruption():
    blob = bytearray(serialize(1, sample_tensors()))
    blob[40] ^= 0x01
    with pytest.raises(CheckpointError, match="checksum"):
        deserialize(bytes(blob))


def test_bad_magic():
    blob = bytearray(serialize(0, {}))
    blob[:4] = b"ATDR"
    with pytest.raises(CheckpointError, match="magic"):
        deserialize(bytes(blob))


def test_version_mismatch():
    blob = bytearray(serialize(0, {}))
    blob[4:8] = struct.pack("<I", 2)
    # checksum must be patched so the version check is what fires
    body = bytes(blob[:-8])
    blob[-8:] = struct.pack("<Q", sum(body) & 0xFFFFFFFFFFFFFFFF)
    with pytest.raises(CheckpointError, match="version"):
        deserialize(bytes(blob))


def test_truncation_detected():
    blob = serialize(3, sample_tensors())
    with pytest.raises(CheckpointError):
        deserialize(blob[:10])
    with pytest.raises(CheckpointError):
        deserialize(blob[:-9] + blob[-8:])  # drop a payload byte, keep a checksum


def test_trailing_bytes_rejected():
    tensors = sample_tensors()
    blob = serialize(3, tensors)
    body = blob[:-8] + b"\x00\x00\x00\x00"
    patched = body + struct.pack("<Q", sum(body) & 0xFFFFFFFFFFFFFFFF)
    with pytest.raises(CheckpointError, match="trailing"):
        deserialize(patched)


def test_rejects_non_float32():
    with pytest.raises(CheckpointError, match="float32"):
        serialize(0, {"w": np.zeros(3, dtype=np.float64)})
    with pytest.raises(ValueError):
        serialize(-1, {})


def limbs_to_seed(limbs):
    """Oracle decoder: four base-2^16 limbs, low first."""
    return sum(int(v) << (16 * i) for i, v in enumerate(limbs))


def test_seed_limbs_round_trip():
    for seed in [0, 1, 42, 0xFFFF, 0x10000, 2**63, 2**64 - 1, 0xDEADBEEFCAFEBABE]:
        limbs = seed_to_limbs(seed)
        assert limbs.dtype == np.float32
        assert limbs.shape == (4,)
        assert limbs_to_seed(limbs) == seed


def test_seed_limbs_validation():
    with pytest.raises(ValueError):
        seed_to_limbs(2**64)
    with pytest.raises(ValueError):
        seed_to_limbs(-1)


@given(seed=st.integers(0, 2**64 - 1))
@settings(max_examples=200, deadline=None)
def test_seed_limbs_round_trip_property(seed):
    assert limbs_to_seed(seed_to_limbs(seed)) == seed


def test_file_round_trip(tmp_path):
    path = str(tmp_path / "state.ckpt")
    tensors = sample_tensors()
    save_checkpoint(path, 77, tensors)
    it, back = load_checkpoint(path)
    assert it == 77
    assert all(np.array_equal(back[k], np.asarray(tensors[k])) for k in tensors)


def test_zero_rank_and_empty_names_ok():
    it, back = deserialize(serialize(0, {"": np.float32(1.0)}))
    assert it == 0
    assert back[""].shape == ()
    assert back[""] == np.float32(1.0)


def test_save_writes_serialized_bytes(tmp_path):
    path = tmp_path / "state.ckpt"
    tensors = sample_tensors()
    save_checkpoint(str(path), 12, tensors)
    assert path.read_bytes() == serialize(12, tensors)


def test_failed_save_keeps_previous_file(tmp_path):
    """A save that fails part-way (here on a non-float32 tensor late in
    sort order, after earlier payloads were written) leaves the previous
    checkpoint's bytes in place and no temporary file."""
    path = tmp_path / "state.ckpt"
    save_checkpoint(str(path), 1, sample_tensors())
    before = path.read_bytes()
    bad = dict(sample_tensors(), zzz=np.zeros(3, dtype=np.float64))
    with pytest.raises(CheckpointError, match="float32"):
        save_checkpoint(str(path), 2, bad)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.ckpt"]


def test_filtered_load_keeps_only_matching_names(tmp_path):
    path = str(tmp_path / "state.ckpt")
    tensors = sample_tensors()
    save_checkpoint(path, 4, tensors)
    it, back = load_checkpoint(path, keep=("a.", "scalar"))
    assert it == 4
    assert sorted(back) == ["a.weight", "scalar"]
    assert np.array_equal(back["a.weight"], tensors["a.weight"])
    it, back = deserialize(serialize(4, tensors), keep=("b.",))
    assert sorted(back) == ["b.bias"]


def test_filtered_load_still_checks_skipped_payloads(tmp_path):
    """A flipped byte inside a payload the filter skips still fails the
    checksum."""
    tensors = sample_tensors()
    blob = bytearray(serialize(1, tensors))
    # "b.bias" sorts second; its payload is the 28 bytes before "scalar"'s header
    scalar_header = struct.pack("<H", 6) + b"scalar"
    offset = blob.index(scalar_header) - 4
    assert np.frombuffer(bytes(blob[offset:offset + 4]), "<f4")[0] == tensors["b.bias"][6]
    blob[offset] ^= 0x01
    path = tmp_path / "state.ckpt"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(str(path), keep=("a.", "scalar"))
    with pytest.raises(CheckpointError, match="checksum"):
        deserialize(bytes(blob), keep=("a.",))


def test_corrupt_dimension_reports_checksum_not_allocation():
    """A flipped high byte in a stored dimension claims a payload far
    larger than the file; the reader must report the bad checksum rather
    than allocate for it."""
    blob = bytearray(serialize(1, sample_tensors()))
    blob[34] ^= 0x80  # top byte of a.weight's first dimension
    with pytest.raises(CheckpointError, match="checksum"):
        deserialize(bytes(blob))
