import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from rtda.benchmark import BenchmarkSettings, make_datasets
from rtda.data import ShiftConfig, generate_scene
from rtda.models import build_discriminator
from rtda.rng import Xoshiro256StarStar, mix64, splitmix64
from rtda.trainer import TrainState, run_training

MASK = (1 << 64) - 1


def test_splitmix64_known_sequence():
    """First outputs of the reference stream seeded with 0."""
    state = 0
    expected = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    for want in expected:
        state, out = splitmix64(state)
        assert out == want


def test_xoshiro_reference_state():
    gen = Xoshiro256StarStar(0)
    gen.set_state((1, 2, 3, 4))
    got = [gen.next_u64() for _ in range(5)]
    assert got == [11520, 0, 1509978240, 1215971899390074240, 1216172134540287360]


def test_xoshiro_seed_expansion():
    """Seeding runs splitmix64 four times to fill the state."""
    gen = Xoshiro256StarStar(42)
    got = [gen.next_u64() for _ in range(4)]
    assert got == [
        1546998764402558742,
        6990951692964543102,
        12544586762248559009,
        17057574109182124193,
    ]


def test_u64_block_matches_scalar_path():
    a = Xoshiro256StarStar(7)
    b = Xoshiro256StarStar(7)
    block = a.u64_block(64)
    singles = np.array([b.next_u64() for _ in range(64)], dtype=np.uint64)
    assert np.array_equal(block, singles)


def test_state_round_trip():
    gen = Xoshiro256StarStar(9)
    gen.u64_block(10)
    snap = gen.get_state()
    ahead = gen.u64_block(8)
    gen.set_state(snap)
    assert np.array_equal(gen.u64_block(8), ahead)


def test_uniform_block_range_and_moments():
    gen = Xoshiro256StarStar(123)
    u = gen.uniform_block(100_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(u.var() - 1.0 / 12.0) < 0.002


def test_normal_block_moments():
    gen = Xoshiro256StarStar(2024)
    z = gen.normal_block(100_000)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02
    assert np.isfinite(z).all()


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=MASK))
@settings(max_examples=40, deadline=None)
def test_randint_in_range(n, seed):
    gen = Xoshiro256StarStar(seed)
    draws = [gen.randint(n) for _ in range(32)]
    assert all(0 <= d < n for d in draws)


def test_randint_hits_every_value():
    gen = Xoshiro256StarStar(5)
    seen = {gen.randint(4) for _ in range(200)}
    assert seen == {0, 1, 2, 3}


@given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=MASK))
@settings(max_examples=40, deadline=None)
def test_permutation_is_permutation(n, seed):
    gen = Xoshiro256StarStar(seed)
    perm = gen.permutation(n)
    assert sorted(perm) == list(range(n))


def test_shuffle_in_place_matches_permutation():
    a = Xoshiro256StarStar(77)
    items = list(range(12))
    a.shuffle(items)
    assert items == Xoshiro256StarStar(77).permutation(12)
    assert sorted(items) == list(range(12))


def test_mix64_is_deterministic_and_spreads():
    assert mix64(1) != mix64(2)
    assert mix64(123) == mix64(123)
    assert 0 <= mix64(999) <= MASK


def test_determinism_across_instances():
    assert Xoshiro256StarStar(555).u64_block(16).tolist() == \
        Xoshiro256StarStar(555).u64_block(16).tolist()


# ---------------------------------------------------------------------------
# laned blocks: the same stream as single draws, whatever the cut


def singles(gen, n):
    return np.array([gen.next_u64() for _ in range(n)], dtype=np.uint64)


# n = k * 2**j + d puts the end of the block on, just before, and just
# after a lane boundary for every lane length 2**p <= 2**j
boundary_sizes = st.one_of(
    st.integers(min_value=0, max_value=600),
    st.builds(lambda j, k, d: max(0, k * (1 << j) + d),
              st.integers(min_value=2, max_value=9), st.integers(min_value=1, max_value=40),
              st.sampled_from([-1, 0, 1])),
)


@given(boundary_sizes, st.integers(min_value=0, max_value=MASK))
@settings(max_examples=80, deadline=None)
def test_u64_block_equals_single_draws(n, seed):
    a = Xoshiro256StarStar(seed)
    b = Xoshiro256StarStar(seed)
    block = a.u64_block(n)
    assert block.dtype == np.uint64 and block.shape == (n,)
    assert np.array_equal(block, singles(b, n))
    assert a.get_state() == b.get_state()
    assert all(type(w) is int for w in a.get_state())


@pytest.mark.parametrize("n", [12288, 49152, 300001])
def test_large_u64_block_equals_single_draws(n):
    a = Xoshiro256StarStar(n)
    b = Xoshiro256StarStar(n)
    assert np.array_equal(a.u64_block(n), singles(b, n))
    assert a.get_state() == b.get_state()


@given(st.integers(min_value=0, max_value=3000), st.integers(min_value=0, max_value=3000),
       st.integers(min_value=0, max_value=MASK))
@settings(max_examples=40, deadline=None)
def test_split_block_equals_one_block(first, second, seed):
    whole = Xoshiro256StarStar(seed)
    split = Xoshiro256StarStar(seed)
    joined = np.concatenate([split.u64_block(first), split.u64_block(second)])
    assert np.array_equal(whole.u64_block(first + second), joined)
    assert whole.get_state() == split.get_state()


# ---------------------------------------------------------------------------
# pinned bytes: the stream, scenes, and initial weights


def sha256_arrays(items):
    digest = hashlib.sha256()
    for name, arr in items:
        arr = np.ascontiguousarray(arr)
        digest.update(name.encode())
        digest.update(str(arr.dtype).encode())
        digest.update(str(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def test_pinned_stream_digest():
    block = Xoshiro256StarStar(99).u64_block(300001)
    assert hashlib.sha256(block.tobytes()).hexdigest() == \
        "c402014f1a760107e7c27bb501a6848d40cef3300eef5b9de430f899dce694f3"


@pytest.mark.parametrize("size,domain,want", [
    (64, "target", "459ae7d09379e7db9df6be10272f6010e67661aeaf5f26b97a3279170df869fc"),
    (128, "source", "c159474f326aa6cc4baba97a925dc9e07fbda038ac7e3761c5d241d7ca44ccd7"),
], ids=["64x64", "128x128"])
def test_pinned_scene_digest(size, domain, want):
    scene = generate_scene(11, domain, ShiftConfig.default(5), (size, size), 5)
    got = hashlib.sha256(scene.image.data.tobytes() + scene.labels.tobytes()).hexdigest()
    assert got == want


@pytest.mark.parametrize("variant,want", [
    ("fcd", "609690adac9547d64a53f5117ad3d9600cbcac224c735d577614773bc808cd0a"),
    ("fcd-light-thin", "a81244a53bdedb352537433a648f6b1544d6786115ea1df0be56d61e6d114811"),
], ids=["fcd", "fcd-light-thin"])
def test_pinned_initial_discriminator_digest(variant, want):
    disc = build_discriminator(variant, 5, seed=2021)
    assert sha256_arrays((name, p.data) for name, p in disc.named_parameters()) == want


def test_outputs_match_single_draw_generator(tmp_path, monkeypatch):
    """Splits, initial training state, and a short run's checkpoints and
    loss log are byte-identical when every block is drawn one output at a
    time."""

    def outputs(out_dir):
        settings = BenchmarkSettings(max_iter=4, n_source=4, n_target=4, n_eval=2,
                                     image_size=32, variant="fcd-light-thin")
        splits = make_datasets(3, settings)
        cfg = dataclasses.replace(settings.to_config(0, 0.01), checkpoint_interval=2)
        got = {f"split{i}": sha256_arrays([("img", ds.images(range(len(ds)))),
                                          ("lbl", ds.eval_labels(range(len(ds))))])
               for i, ds in enumerate(splits)}
        got["state"] = sha256_arrays(sorted(TrainState(cfg).state_tensors().items()))
        run_training(cfg, splits[0], splits[1], out_dir=str(out_dir))
        for path in sorted(out_dir.iterdir()):
            got[path.name] = path.read_bytes()
        return got

    laned = outputs(tmp_path / "laned")
    monkeypatch.setattr(Xoshiro256StarStar, "u64_block", singles)
    assert outputs(tmp_path / "singles") == laned
