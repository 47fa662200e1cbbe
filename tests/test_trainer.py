import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

import rtda
import rtda.models
from rtda import tensor as T
from rtda.checkpoint import load_checkpoint, save_checkpoint
from rtda.config import TrainConfig
from rtda.data import ArrayDataset, DomainBatch, ShiftConfig, paired_batch
from rtda.losses import LossValue, adv_loss, disc_loss, seg_cross_entropy
from rtda.optim import poly_lr
from rtda.tensor import Tensor, backward
from rtda.trainer import (
    CSV_HEADER,
    LossRecord,
    NumericalAbort,
    TrainState,
    evaluate,
    load_seg_for_eval,
    predict_labels,
    run_training,
    train_iteration,
)

SHIFT = ShiftConfig.default(5)
SRC = ArrayDataset.generate(range(4), "source", SHIFT, size=(32, 32))
TGT = ArrayDataset.generate(range(100, 104), "target", SHIFT, size=(32, 32))


def small_cfg(**kw):
    base = dict(seed=0, num_classes=5, image_size=32, batch=2, max_iter=8,
                checkpoint_interval=500)
    base.update(kw)
    return TrainConfig(**base)


def batch_at(it, cfg):
    return paired_batch(SRC, TGT, cfg.batch, cfg.seed, it)


# ---------------------------------------------------------------------------
# loss values at initialization


def test_zero_init_discriminator_outputs_exact_zeros():
    state = TrainState(small_cfg())
    batch = batch_at(0, state.cfg)
    probs = T.softmax_channels(state.seg(batch.tgt_images, train=True))
    logits = state.disc(probs, train=True)
    assert np.all(logits.data == 0.0)


def test_first_iteration_loss_values():
    """With the final discriminator layer zeroed, the adversarial loss
    starts at ln 2 and the discriminator loss at 2 ln 2 (up to one f32
    rounding step from the mean reduction)."""
    state = TrainState(small_cfg())
    rec = train_iteration(state, batch_at(0, state.cfg))
    assert abs(rec.l_adv - math.log(2.0)) < 1.5e-7
    assert abs(rec.l_d - 2.0 * math.log(2.0)) < 1.5e-7
    assert rec.l_seg == pytest.approx(math.log(5.0), rel=0.5)
    assert rec.iteration == 0


# ---------------------------------------------------------------------------
# gradient-flow invariants


def test_frozen_discriminator_receives_no_gradients():
    state = TrainState(small_cfg(lambda_adv=0.01))
    batch = batch_at(0, state.cfg)
    src_probs = T.softmax_channels(state.seg(batch.src_images, train=True))
    l_seg = seg_cross_entropy(src_probs, batch.src_labels)
    state.disc.set_requires_grad(False)
    tgt_probs = T.softmax_channels(state.seg(batch.tgt_images, train=True))
    from rtda.losses import adv_loss, total_seg_objective
    l_adv = adv_loss(state.disc(tgt_probs, train=True))
    total = total_seg_objective(l_seg, l_adv, 0.01)
    backward(total.value)
    assert all(p.grad is None for _, p in state.disc.named_parameters())
    seg_grads = [p.grad for _, p in state.seg.named_parameters()]
    assert all(g is not None for g in seg_grads)
    assert any(np.any(g != 0) for g in seg_grads)


def test_detached_maps_cut_gradients_to_segmenter():
    state = TrainState(small_cfg())
    batch = batch_at(0, state.cfg)
    src_probs = T.softmax_channels(state.seg(batch.src_images, train=True))
    tgt_probs = T.softmax_channels(state.seg(batch.tgt_images, train=True))
    n = src_probs.shape[0]
    both = Tensor(np.concatenate([src_probs.data, tgt_probs.data], axis=0))
    d = state.disc(both, train=True)
    l_d = disc_loss(T.slice_batch(d, 0, n), T.slice_batch(d, n, d.shape[0]))
    backward(l_d.value)
    assert all(p.grad is None for _, p in state.seg.named_parameters())
    assert all(p.grad is not None for _, p in state.disc.named_parameters())


def test_lambda_zero_trains_segmenter_as_if_alone():
    """lambda = 0 must reduce to plain source-only training: segmentation
    updates and normalization buffers bitwise match a supervised loop that
    never saw the target domain, and the discriminator stays at init."""
    cfg = small_cfg(lambda_adv=0.0, max_iter=6)
    full = TrainState(cfg)
    for it in range(cfg.max_iter):
        rec = train_iteration(full, batch_at(it, cfg))
        assert rec.l_adv == 0.0 and rec.l_d == 0.0

    ref = TrainState(cfg)
    for it in range(cfg.max_iter):
        batch = batch_at(it, cfg)
        probs = T.softmax_channels(ref.seg(batch.src_images, train=True))
        l = seg_cross_entropy(probs, batch.src_labels)
        ref.seg_opt.zero_grad()
        backward(l.value)
        ref.seg_opt.lr = poly_lr(cfg.seg_lr, it, cfg.max_iter, cfg.poly_power)
        ref.seg_opt.step()

    for (name, p), (_, q) in zip(full.seg.named_parameters(), ref.seg.named_parameters()):
        assert np.array_equal(p.data, q.data), name
    for (name, b), (_, c) in zip(full.seg.named_buffers(), ref.seg.named_buffers()):
        assert np.array_equal(b.data, c.data), name

    fresh = TrainState(small_cfg(lambda_adv=0.0, max_iter=6))
    for (name, p), (_, q) in zip(full.disc.named_parameters(), fresh.disc.named_parameters()):
        assert np.array_equal(p.data, q.data), name


# ---------------------------------------------------------------------------
# determinism, logging, resume


def test_two_runs_bitwise_identical(tmp_path):
    cfg = small_cfg(max_iter=6)
    outs = []
    for sub in ("a", "b"):
        final, _ = run_training(cfg, SRC, TGT, out_dir=str(tmp_path / sub))
        outs.append((open(final, "rb").read(),
                     (tmp_path / sub / "loss_log.csv").read_text()))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]


def test_csv_log_rows_and_lr_schedule(tmp_path):
    cfg = small_cfg(max_iter=5)
    _, records = run_training(cfg, SRC, TGT, out_dir=str(tmp_path))
    lines = (tmp_path / "loss_log.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER == "iter,l_seg,l_adv,l_d,lr_seg,lr_disc"
    assert len(lines) == 1 + cfg.max_iter
    assert len(records) == cfg.max_iter
    for it, line in enumerate(lines[1:]):
        cols = line.split(",")
        assert int(cols[0]) == it
        # repr round-trips, so the logged rates match the closed form exactly
        assert float(cols[4]) == poly_lr(cfg.seg_lr, it, cfg.max_iter, cfg.poly_power)
        assert float(cols[5]) == poly_lr(cfg.disc_lr, it, cfg.max_iter, cfg.poly_power)
        assert all(math.isfinite(float(c)) for c in cols[1:])


def test_checkpoint_interval_and_final(tmp_path):
    cfg = small_cfg(max_iter=6, checkpoint_interval=2)
    final, _ = run_training(cfg, SRC, TGT, out_dir=str(tmp_path))
    names = sorted(p.name for p in tmp_path.iterdir() if p.suffix == ".ckpt")
    assert names == ["ckpt_000002.ckpt", "ckpt_000004.ckpt", "ckpt_000006.ckpt"]
    assert final == str(tmp_path / "ckpt_000006.ckpt")


def test_zero_iterations_still_writes_initial_state(tmp_path):
    cfg = small_cfg(max_iter=0)
    final, records = run_training(cfg, SRC, TGT, out_dir=str(tmp_path))
    assert records == []
    assert os.path.basename(final) == "ckpt_000000.ckpt"
    assert (tmp_path / "loss_log.csv").read_text() == CSV_HEADER + "\n"


def test_resume_is_bitwise_identical_to_uninterrupted(tmp_path):
    cfg = small_cfg(max_iter=8)
    straight_final, _ = run_training(cfg, SRC, TGT, out_dir=str(tmp_path / "straight"))

    # first half driven manually, then resumed through the runner
    state = TrainState(cfg)
    for it in range(4):
        train_iteration(state, batch_at(it, cfg))
    mid = str(tmp_path / "mid.ckpt")
    state.save(mid)
    resumed_cfg = dataclasses.replace(cfg, resume=mid)
    resumed_final, _ = run_training(resumed_cfg, SRC, TGT, out_dir=str(tmp_path / "resumed"))

    assert open(resumed_final, "rb").read() == open(straight_final, "rb").read()
    straight_rows = (tmp_path / "straight" / "loss_log.csv").read_text().splitlines()
    resumed_rows = (tmp_path / "resumed" / "loss_log.csv").read_text().splitlines()
    assert resumed_rows[0] == CSV_HEADER
    assert resumed_rows[1:] == straight_rows[5:]


def test_resume_into_same_dir_keeps_one_row_per_iteration(tmp_path):
    """Resuming into the run's own directory replaces the log rows from the
    checkpoint's iteration on instead of appending a second copy."""
    cfg = small_cfg(max_iter=6, checkpoint_interval=2)
    straight_final, _ = run_training(cfg, SRC, TGT, out_dir=str(tmp_path / "straight"))
    straight_log = (tmp_path / "straight" / "loss_log.csv").read_text()

    out = tmp_path / "run"
    run_training(cfg, SRC, TGT, out_dir=str(out))
    resumed_cfg = dataclasses.replace(cfg, resume=str(out / "ckpt_000002.ckpt"))
    resumed_final, _ = run_training(resumed_cfg, SRC, TGT, out_dir=str(out))

    rows = (out / "loss_log.csv").read_text().splitlines()
    assert [int(r.split(",")[0]) for r in rows[1:]] == list(range(6))
    assert (out / "loss_log.csv").read_text() == straight_log
    assert open(resumed_final, "rb").read() == open(straight_final, "rb").read()


def test_resume_refuses_log_missing_rows(tmp_path):
    cfg = small_cfg(max_iter=6, checkpoint_interval=2)
    run_training(cfg, SRC, TGT, out_dir=str(tmp_path))
    log = tmp_path / "loss_log.csv"
    rows = log.read_text().splitlines()
    log.write_text("\n".join(rows[:2] + rows[3:]) + "\n")  # drop iteration 1
    resumed_cfg = dataclasses.replace(cfg, resume=str(tmp_path / "ckpt_000004.ckpt"))
    with pytest.raises(ValueError, match="loss_log.csv"):
        run_training(resumed_cfg, SRC, TGT, out_dir=str(tmp_path))


def test_state_round_trip_and_continued_equality(tmp_path):
    cfg = small_cfg(max_iter=8)
    a = TrainState(cfg)
    for it in range(3):
        train_iteration(a, batch_at(it, cfg))
    path = str(tmp_path / "s.ckpt")
    a.save(path)

    b = TrainState(cfg)
    b.load(path)
    assert b.iteration == 3
    ta, tb = a.state_tensors(), b.state_tensors()
    assert set(ta) == set(tb)
    for k in ta:
        assert np.array_equal(np.asarray(ta[k]), np.asarray(tb[k])), k
    ra = train_iteration(a, batch_at(3, cfg))
    rb = train_iteration(b, batch_at(3, cfg))
    assert ra == rb


def test_load_rejects_conflicting_config(tmp_path):
    cfg = small_cfg()
    state = TrainState(cfg)
    path = str(tmp_path / "s.ckpt")
    state.save(path)
    other = TrainState(small_cfg(batch=4))
    with pytest.raises(ValueError, match="batch"):
        other.load(path)
    wrong_seed = TrainState(small_cfg(seed=1))
    with pytest.raises(ValueError, match="seed"):
        wrong_seed.load(path)


# ---------------------------------------------------------------------------
# failure handling


def test_non_finite_input_aborts_with_iteration():
    state = TrainState(small_cfg())
    batch = batch_at(0, state.cfg)
    poisoned = DomainBatch(
        src_images=Tensor(np.full_like(batch.src_images.data, np.nan)),
        src_labels=batch.src_labels,
        tgt_images=batch.tgt_images,
    )
    with pytest.raises(NumericalAbort) as exc_info:
        train_iteration(state, poisoned)
    assert exc_info.value.iteration == 0
    assert "non-finite" in str(exc_info.value)


def test_abort_in_adversarial_step_unfreezes_discriminator(monkeypatch):
    import rtda.trainer as trainer

    def poisoned_adv_loss(logits, reduction="mean"):
        loss = adv_loss(logits, reduction)
        return LossValue(value=Tensor(np.array(np.inf, dtype=np.float32)),
                         reduction=loss.reduction, count=loss.count)

    monkeypatch.setattr(trainer, "adv_loss", poisoned_adv_loss)
    state = TrainState(small_cfg(lambda_adv=0.01))
    with pytest.raises(NumericalAbort) as exc_info:
        train_iteration(state, batch_at(0, state.cfg))
    assert exc_info.value.loss_name == "l_adv"
    assert all(p.requires_grad for _, p in state.disc.named_parameters())


def test_numerical_abort_carries_context():
    err = NumericalAbort(7, "l_d")
    assert isinstance(err, ArithmeticError)
    assert err.iteration == 7
    assert err.loss_name == "l_d"
    assert "iteration 7" in str(err) and "l_d" in str(err)


def test_iterating_past_max_iter_rejected():
    cfg = small_cfg(max_iter=1)
    state = TrainState(cfg)
    train_iteration(state, batch_at(0, cfg))
    with pytest.raises(ValueError, match="max_iter"):
        train_iteration(state, batch_at(1, cfg))


# ---------------------------------------------------------------------------
# evaluation


def test_predict_labels_shape_and_range():
    state = TrainState(small_cfg())
    images = Tensor(SRC.images(range(3)))
    pred = predict_labels(state.seg, images)
    assert pred.shape == (3, 32, 32)
    assert pred.min() >= 0 and pred.max() < 5


def test_evaluate_outputs_and_flag_restoration():
    state = TrainState(small_cfg())
    names = [n for n, _ in state.seg.named_parameters()]
    # pin one flag off to check restoration is per-parameter
    dict(state.seg.named_parameters())[names[0]].requires_grad = False
    per_class, mean, cm = evaluate(state.seg, SRC, 5)
    assert len(per_class) == 5
    assert 0.0 <= mean <= 1.0
    assert cm.counts.sum() == 4 * 32 * 32
    flags = [p.requires_grad for _, p in state.seg.named_parameters()]
    assert flags[0] is False and all(flags[1:])


def test_evaluate_rejects_empty_split():
    state = TrainState(small_cfg())

    class Empty:
        def __len__(self):
            return 0

    with pytest.raises(ValueError, match="empty"):
        evaluate(state.seg, Empty(), 5)


def test_load_seg_for_eval_reproduces_predictions(tmp_path):
    cfg = small_cfg(max_iter=3)
    final, _ = run_training(cfg, SRC, TGT, out_dir=str(tmp_path))
    model, num_classes, iteration = load_seg_for_eval(final)
    assert (num_classes, iteration) == (5, 3)

    state = TrainState(cfg)
    state.load(final)
    images = Tensor(SRC.images(range(2)))
    assert np.array_equal(predict_labels(model, images),
                          predict_labels(state.seg, images))


# ---------------------------------------------------------------------------
# end-to-end sanity


def test_overfit_tiny_source_split():
    """Memorizing one scene drives training mIoU above 0.9; resolution has
    to be generous because the classifier works on a stride-8 grid."""
    shift = ShiftConfig.identity(5, sigma=0.02)
    src = ArrayDataset.generate(range(1), "source", shift, size=(128, 128))
    tgt = ArrayDataset.generate(range(1), "target", shift, size=(128, 128))
    cfg = TrainConfig(seed=0, num_classes=5, image_size=128, batch=1, max_iter=400,
                      seg_lr=0.1, weight_decay=0.0, lambda_adv=0.0)
    state = TrainState(cfg)
    for it in range(cfg.max_iter):
        train_iteration(state, paired_batch(src, tgt, cfg.batch, cfg.seed, it))
    _, mean, _ = evaluate(state.seg, src, 5)
    assert mean > 0.9


def test_untrained_network_scores_near_chance():
    tgt_eval = ArrayDataset.generate(range(200, 206), "target", SHIFT, size=(64, 64))
    for seed in range(3):
        state = TrainState(small_cfg(seed=seed, image_size=64))
        _, mean, _ = evaluate(state.seg, tgt_eval, 5)
        assert mean < 0.35


# ---------------------------------------------------------------------------
# checkpoint bytes and bounded-memory I/O

# SHA-256 of every file of a 6-iteration run (checkpoint interval 2,
# lambda 0.01) of the allocating checkpoint writer, Adam and training
# step; memory work on those paths must leave every byte unchanged.
PINNED_RUN_DIGESTS = {
    "fcd": {
        "ckpt_000002.ckpt": "15424b46fb89d3df5d7af615f9507971ebef20fd66d055f2b72ecd402671b7f9",
        "ckpt_000004.ckpt": "14b0ddde7df965becd442bd63706ee689e372b21ad39f3112f0becdcb44246eb",
        "ckpt_000006.ckpt": "cb62ba9fcb7435442e83004efbab8601359c5bd02a7c08839e547ecc35e78c5d",
        "loss_log.csv": "f59b120b5285f9705e8ced3711b0bd74ba512e55fa0558cd2819bfe6f443f480",
    },
    "fcd-light-thin": {
        "ckpt_000002.ckpt": "e805579ac0cc218cd4868424a9dd9dd053734c7a540b881f10d133033f04bb17",
        "ckpt_000004.ckpt": "6eb4b0fac7c3744840b21462fc676517ebd4a43912537c338cfa73a5e16887f7",
        "ckpt_000006.ckpt": "f428bdb01db5c2851abfb17441f5b80fba38cfc6ad3f75f001b72241262699ff",
        "loss_log.csv": "a9187ddee6cd09ebd8e42411a2cf099ce0129580979840f2566c12640401c199",
    },
}


@pytest.mark.parametrize("variant", sorted(PINNED_RUN_DIGESTS))
def test_pinned_run_digests(tmp_path, variant):
    cfg = small_cfg(max_iter=6, checkpoint_interval=2, lambda_adv=0.01, disc_variant=variant)
    run_training(cfg, SRC, TGT, out_dir=str(tmp_path))
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == PINNED_RUN_DIGESTS[variant]


def test_save_checkpoint_memory_is_bounded(tmp_path):
    """Writing an fcd state (about 35 MB of tensors) allocates little
    beyond the state itself: no whole-file copy of the bytes."""
    state = TrainState(small_cfg(disc_variant="fcd"))
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        state.save(str(tmp_path / "state.ckpt"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < 16 * 2**20


_KILL_AFTER_SAVE = textwrap.dedent("""
    import os, sys
    sys.path[:0] = {paths!r}
    import rtda.trainer as trainer
    from rtda.data import ArrayDataset, ShiftConfig
    from rtda.config import TrainConfig

    save = trainer.TrainState.save

    def save_then_die(self, path):
        save(self, path)
        if path.endswith("ckpt_000004.ckpt"):
            os._exit(0)  # no atexit, no buffer flush: a killed process

    trainer.TrainState.save = save_then_die
    shift = ShiftConfig.default(5)
    src = ArrayDataset.generate(range(4), "source", shift, size=(32, 32))
    tgt = ArrayDataset.generate(range(100, 104), "target", shift, size=(32, 32))
    cfg = TrainConfig(seed=0, num_classes=5, image_size=32, batch=2, max_iter=6,
                      checkpoint_interval=2)
    trainer.run_training(cfg, src, tgt, out_dir={out!r})
    sys.exit(3)  # not reached when the kill fires
""")


def test_resume_after_kill_following_checkpoint(tmp_path):
    """A process killed right after a periodic checkpoint leaves a loss log
    that holds every row up to it, so resuming in place gives the bytes of
    an uninterrupted run."""
    cfg = small_cfg(max_iter=6, checkpoint_interval=2)
    straight_final, _ = run_training(cfg, SRC, TGT, out_dir=str(tmp_path / "straight"))

    out = tmp_path / "killed"
    paths = [os.path.dirname(os.path.dirname(rtda.__file__))] + sys.path
    script = _KILL_AFTER_SAVE.format(paths=paths, out=str(out))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300, env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    assert proc.returncode == 0, proc.stderr
    assert not (out / "ckpt_000006.ckpt").exists()

    resumed_cfg = dataclasses.replace(cfg, resume=str(out / "ckpt_000004.ckpt"))
    resumed_final, _ = run_training(resumed_cfg, SRC, TGT, out_dir=str(out))
    assert (out / "loss_log.csv").read_bytes() == \
        (tmp_path / "straight" / "loss_log.csv").read_bytes()
    for name in ("ckpt_000002.ckpt", "ckpt_000004.ckpt", "ckpt_000006.ckpt"):
        assert (out / name).read_bytes() == (tmp_path / "straight" / name).read_bytes(), name


def test_load_seg_for_eval_draws_no_init(tmp_path, monkeypatch):
    """The checkpoint overwrites every weight, so the eval load builds the
    network without drawing a Kaiming init."""
    cfg = small_cfg(max_iter=1)
    final, _ = run_training(cfg, SRC, TGT, out_dir=str(tmp_path))
    expect = TrainState(cfg)
    expect.load(final)

    def no_init(*args, **kwargs):
        raise AssertionError("Kaiming init drawn for weights the checkpoint overwrites")

    monkeypatch.setattr(rtda.models, "init_kaiming", no_init)
    model, _, _ = load_seg_for_eval(final)
    for (name, p), (_, q) in zip(model.named_parameters(), expect.seg.named_parameters()):
        assert np.array_equal(p.data, q.data), name


def test_load_seg_for_eval_rejects_missing_and_misshapen_tensors(tmp_path):
    cfg = small_cfg(max_iter=0)
    final, _ = run_training(cfg, SRC, TGT, out_dir=str(tmp_path))
    iteration, tensors = load_checkpoint(final)
    param = next(k for k in sorted(tensors) if k.startswith("model.seg."))
    buffer = next(k for k in sorted(tensors) if k.startswith("buffer.seg."))
    for name, change in ((param, "drop"), (buffer, "drop"), (param, "reshape"),
                         (buffer, "reshape")):
        broken = dict(tensors)
        if change == "drop":
            del broken[name]
        else:
            broken[name] = np.zeros(broken[name].size + 1, dtype=np.float32)
        path = str(tmp_path / "broken.ckpt")
        save_checkpoint(path, iteration, broken)
        with pytest.raises((KeyError, ValueError), match=name):
            load_seg_for_eval(path)
