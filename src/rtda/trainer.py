"""Alternating adversarial training loop, checkpointing, and evaluation.

Each iteration executes, in order: (1) segmentation forward on the
source batch and its cross-entropy; (2) segmentation forward on the
target batch and the confusion loss through the frozen discriminator;
(3) one SGD step on loss_seg + lambda * loss_adv; (4) discriminator
forward on both gradient-detached probability maps, its binary loss, and
one Adam step; (5) both learning rates advance on the shared poly
schedule. A weight of zero turns the loop into plain source-only
training: the target batch is never run through the network and the
discriminator never updates, so the baseline model sees no target
pixels at all. Batches come from a pure function of (seed, iteration), the
loop itself draws no randomness, and all mutable state lives in the
checkpoint, so a resumed run is bitwise identical to an uninterrupted
one. A non-finite loss aborts with the iteration index and loss name.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from rtda import tensor as T
from rtda.checkpoint import load_checkpoint, save_checkpoint, seed_to_limbs
from rtda.config import TrainConfig
from rtda.data import DomainBatch, SceneDataset, derive_seed, paired_batch
from rtda.losses import adv_loss, disc_loss, seg_cross_entropy, total_seg_objective
from rtda.metrics import ConfusionMatrix, miou
from rtda.models import build_discriminator, build_mini_bisenet, canonical_variant
from rtda.nn import Module
from rtda.optim import SGD, Adam, poly_lr
from rtda.tensor import NonFiniteError, Tensor, backward

_SEG_SALT = 0x7365676D
_DISC_SALT = 0x64697363

CSV_HEADER = "iter,l_seg,l_adv,l_d,lr_seg,lr_disc"


class NumericalAbort(ArithmeticError):
    """Training hit a non-finite loss; carries iteration and loss name."""

    def __init__(self, iteration: int, loss_name: str, detail: str = ""):
        self.iteration = iteration
        self.loss_name = loss_name
        msg = f"iteration {iteration}: non-finite {loss_name}"
        super().__init__(msg + (f" ({detail})" if detail else ""))


@dataclass
class LossRecord:
    iteration: int
    l_seg: float
    l_adv: float
    l_d: float
    lr_seg: float
    lr_disc: float

    def csv_row(self) -> str:
        return (f"{self.iteration},{self.l_seg!r},{self.l_adv!r},{self.l_d!r},"
                f"{self.lr_seg!r},{self.lr_disc!r}")


class TrainState:
    """Networks, optimizers and iteration of one run. With `cfg.resume` set
    the state is filled from that checkpoint, and no init is drawn for the
    weights it overwrites."""

    def __init__(self, cfg: TrainConfig):
        cfg.validate()
        self.cfg = cfg
        init = not cfg.resume
        self.seg = build_mini_bisenet(cfg.num_classes, cfg.width_multiplier,
                                      seed=derive_seed(cfg.seed, _SEG_SALT), init=init)
        self.disc = build_discriminator(cfg.disc_variant, cfg.num_classes,
                                        seed=derive_seed(cfg.seed, _DISC_SALT),
                                        final_zero_init=True, init=init)
        self.seg_opt = SGD(self.seg.named_parameters(), lr=cfg.seg_lr,
                           momentum=cfg.momentum, weight_decay=cfg.weight_decay)
        self.disc_opt = Adam(self.disc.named_parameters(), lr=cfg.disc_lr,
                             betas=(cfg.adam_beta1, cfg.adam_beta2), eps=cfg.adam_eps)
        self.iteration = 0
        self.history: list[LossRecord] = []
        if cfg.resume:
            self.load(cfg.resume)

    # -- checkpoint plumbing ------------------------------------------------

    def state_tensors(self) -> dict:
        """Every checkpoint entry by name: the one table that save writes,
        load checks and fills, and the eval load filters."""
        cfg = self.cfg
        out = _seg_tensors(self.seg)
        for name, p in self.disc.named_parameters():
            out[f"model.disc.{name}"] = p.data
        for name, arr in self.seg_opt.state_tensors().items():
            out[f"opt.seg.{name}"] = arr
        for name, arr in self.disc_opt.state_tensors().items():
            out[f"opt.disc.{name}"] = arr
        out["meta.adam_step"] = np.float32(self.disc_opt.step_count)
        out["meta.num_classes"] = np.float32(cfg.num_classes)
        out["meta.width_multiplier"] = np.float32(cfg.width_multiplier)
        out["meta.image_size"] = np.float32(cfg.image_size)
        out["meta.batch"] = np.float32(cfg.batch)
        out["meta.max_iter"] = np.float32(cfg.max_iter)
        out["meta.seed"] = seed_to_limbs(cfg.seed)
        out["meta.disc_variant"] = np.array(
            [ord(ch) for ch in canonical_variant(cfg.disc_variant)], dtype=np.float32)
        return out

    def save(self, path: str) -> None:
        save_checkpoint(path, self.iteration, self.state_tensors())

    def load(self, path: str) -> None:
        """Fill the state from a checkpoint, refusing one whose meta entries
        (all but Adam's step count) differ from this config's."""
        iteration, tensors = load_checkpoint(path)
        own = self.state_tensors()
        for name, expect in own.items():
            if name.startswith("meta.") and name != "meta.adam_step":
                got = tensors.get(name)
                if got is None or not np.array_equal(got, expect):
                    field = name[len("meta."):]
                    raise ValueError(f"checkpoint {name} conflicts with config "
                                     f"{field} = {getattr(self.cfg, field)!r}")
        _fill({k: v for k, v in own.items() if not k.startswith("meta.")}, tensors)
        self.disc_opt.step_count = int(tensors["meta.adam_step"])
        self.iteration = iteration


def _seg_tensors(seg: Module) -> dict:
    """The segmenter's checkpoint entries: parameters and BatchNorm buffers."""
    out = {f"model.seg.{name}": p.data for name, p in seg.named_parameters()}
    out.update((f"buffer.seg.{name}", b) for name, b in seg.named_buffers())
    return out


def _fill(targets: dict, tensors: dict) -> None:
    """Copy each checkpoint tensor into the target array of the same name,
    refusing a missing name or a shape that differs from the target's."""
    for name, target in targets.items():
        if name not in tensors:
            raise KeyError(f"checkpoint missing tensor {name}")
        src = tensors[name]
        if src.shape != target.shape:
            raise ValueError(f"{name}: checkpoint shape {src.shape} != state {target.shape}")
        target[...] = src


def _finite_loss(loss: Tensor, iteration: int, name: str) -> float:
    value = loss.item()
    if not np.isfinite(value):
        raise NumericalAbort(iteration, name)
    return value


def train_iteration(state: TrainState, batch: DomainBatch) -> LossRecord:
    cfg = state.cfg
    it = state.iteration
    if it >= cfg.max_iter:
        raise ValueError(f"iteration {it} beyond max_iter {cfg.max_iter}")
    lr_seg = poly_lr(cfg.seg_lr, it, cfg.max_iter, cfg.poly_power)
    lr_disc = poly_lr(cfg.disc_lr, it, cfg.max_iter, cfg.poly_power)

    adapting = cfg.lambda_adv != 0.0
    adv_val = 0.0
    d_val = 0.0
    disc_flags = [p.requires_grad for p in state.disc.parameters()]
    try:
        # (1) supervised segmentation loss on the source batch
        src_probs = T.softmax_channels(state.seg(batch.src_images, train=True))
        l_seg = seg_cross_entropy(src_probs, batch.src_labels)
        seg_val = _finite_loss(l_seg, it, "l_seg")

        if adapting:
            # (2) confusion loss on the target batch through the frozen
            # discriminator; at weight zero the target batch never runs,
            # keeping the baseline a true source-only model
            state.disc.set_requires_grad(False)
            tgt_probs = T.softmax_channels(state.seg(batch.tgt_images, train=True))
            l_adv = adv_loss(state.disc(tgt_probs, train=True))
            _finite_loss(l_adv, it, "l_adv")
            total = total_seg_objective(l_seg, l_adv, cfg.lambda_adv)
            adv_val = l_adv.item()
            maps = (src_probs.data, tgt_probs.data)
            del tgt_probs, l_adv
        else:
            total = l_seg

        # (3) one segmentation step on the combined objective
        state.seg_opt.zero_grad()
        backward(total)
        state.seg_opt.lr = lr_seg
        state.seg_opt.step()
        # the tensors above hold the segmenter's whole tape; step (4) needs
        # only the two probability maps, so the tape is freed here
        del src_probs, l_seg, total

        if adapting:
            # (4) one discriminator step on detached probability maps; both
            # domains ride one forward and are split back off the batch axis
            state.disc.set_requires_grad(True)
            n_src = maps[0].shape[0]
            both = Tensor(np.concatenate(maps, axis=0))
            d_both = state.disc(both, train=True)
            l_d = disc_loss(T.slice_batch(d_both, 0, n_src),
                            T.slice_batch(d_both, n_src, d_both.shape[0]))
            _finite_loss(l_d, it, "l_d")
            state.disc_opt.zero_grad()
            backward(l_d)
            state.disc_opt.lr = lr_disc
            state.disc_opt.step()
            d_val = l_d.item()
    except NonFiniteError as exc:
        raise NumericalAbort(it, "forward", str(exc)) from exc
    finally:
        # an abort inside steps (2)-(3) must not leave the discriminator frozen
        for flag, p in zip(disc_flags, state.disc.parameters()):
            p.requires_grad = flag

    # (5) the shared poly schedule advances with the iteration counter
    state.iteration = it + 1
    record = LossRecord(iteration=it, l_seg=seg_val, l_adv=adv_val,
                        l_d=d_val, lr_seg=lr_seg, lr_disc=lr_disc)
    state.history.append(record)
    return record


def _truncate_log(csv_path: str, iteration: int) -> None:
    """Cut a loss log back to its rows for iterations below `iteration`, so
    a run resumed into its own directory logs each iteration once. The
    kept rows must run without a gap up to iteration - 1."""
    with open(csv_path, encoding="utf-8") as f:
        # a run killed mid-write can leave a last row without its newline;
        # rows below a checkpoint were synced whole, so it is never one of them
        lines = f.read().split("\n")[:-1]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{csv_path}: not a loss log, cannot resume it")
    kept = [row for row in lines[1:] if int(row.split(",", 1)[0]) < iteration]
    iters = [int(row.split(",", 1)[0]) for row in kept]
    start = iters[0] if iters else 0
    if iters != list(range(start, iteration)):
        raise ValueError(f"{csv_path}: rows for iterations {start}..{iteration - 1} are "
                         f"incomplete, cannot resume the log at iteration {iteration}")
    tmp_path = csv_path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as f:
        f.write("".join(line + "\n" for line in [CSV_HEADER] + kept))
    os.replace(tmp_path, csv_path)


def _sync(f) -> None:
    f.flush()
    os.fsync(f.fileno())


def run_training(cfg: TrainConfig, source: SceneDataset, target: SceneDataset,
                 out_dir: str | None = None, log=None):
    """Train to cfg.max_iter, appending one CSV row per iteration and a
    checkpoint every cfg.checkpoint_interval iterations plus one at the
    end. Resuming into a directory that holds a loss log keeps its rows
    below the checkpoint's iteration and drops the rest. A `log` callable
    gets a progress line every tenth of the run. Returns (final checkpoint
    path, loss records)."""
    cfg.validate()
    for split, data in (("source", source), ("target", target)):
        size = data.images([0]).shape[2:]
        if size != (cfg.image_size, cfg.image_size):
            raise ValueError(f"{split} images are {size[0]}x{size[1]}, "
                             f"config image_size is {cfg.image_size}")
    out_dir = out_dir or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    state = TrainState(cfg)

    csv_path = os.path.join(out_dir, "loss_log.csv")
    mode = "w"
    if cfg.resume and os.path.exists(csv_path):
        _truncate_log(csv_path, state.iteration)
        mode = "a"
    final_path = os.path.join(out_dir, f"ckpt_{cfg.max_iter:06d}.ckpt")
    log_every = max(1, cfg.max_iter // 10)
    with open(csv_path, mode, encoding="utf-8") as csv_file:
        if mode == "w":
            csv_file.write(CSV_HEADER + "\n")
        t0 = time.perf_counter()
        for it in range(state.iteration, cfg.max_iter):
            batch = paired_batch(source, target, cfg.batch, cfg.seed, it)
            record = train_iteration(state, batch)
            csv_file.write(record.csv_row() + "\n")
            done = it + 1
            if log and done % log_every == 0:
                log(f"  seed {cfg.seed} weight {cfg.lambda_adv:g} iter {done}/{cfg.max_iter} "
                    f"l_seg {record.l_seg:.4f} l_adv {record.l_adv:.4f} l_d {record.l_d:.4f} "
                    f"({time.perf_counter() - t0:.0f}s)")
            if done % cfg.checkpoint_interval == 0 and done != cfg.max_iter:
                _sync(csv_file)
                state.save(os.path.join(out_dir, f"ckpt_{done:06d}.ckpt"))
        # a checkpoint on disk implies the log rows before it are on disk,
        # so a run killed at any point can resume into its own directory
        _sync(csv_file)
        state.save(final_path)
    return final_path, state.history


def predict_labels(model: Module, images: Tensor) -> np.ndarray:
    """Per-pixel argmax of the softmax segmentation map, eval mode."""
    probs = T.softmax_channels(model(images, train=False))
    return probs.data.argmax(axis=1)


def evaluate(model: Module, dataset: SceneDataset, num_classes: int,
             class_subset=None, batch: int = 8):
    """Confusion-matrix evaluation of a segmentation model on a dataset
    split; returns (per-class IoUs, mean IoU, confusion matrix)."""
    if len(dataset) == 0:
        raise ValueError("empty evaluation split")
    flags = [p.requires_grad for _, p in model.named_parameters()]
    model.set_requires_grad(False)
    try:
        cm = ConfusionMatrix(num_classes)
        for start in range(0, len(dataset), batch):
            idx = range(start, min(start + batch, len(dataset)))
            images = Tensor(dataset.images(idx))
            labels = dataset.eval_labels(idx)
            cm.accumulate(predict_labels(model, images), labels)
    finally:
        for flag, (_, p) in zip(flags, model.named_parameters()):
            p.requires_grad = flag
    per_class, mean = miou(cm, class_subset)
    return per_class, mean, cm


def load_seg_for_eval(ckpt_path: str):
    """Rebuild just the segmentation network from a checkpoint; the
    discriminator and optimizer tensors are checksummed but not kept, and
    no init is drawn for weights the checkpoint overwrites."""
    iteration, tensors = load_checkpoint(ckpt_path, keep=("meta.", "model.seg.", "buffer.seg."))
    num_classes = int(tensors["meta.num_classes"])
    width = float(tensors["meta.width_multiplier"])
    model = build_mini_bisenet(num_classes, width, init=False)
    _fill(_seg_tensors(model), tensors)
    return model, num_classes, iteration
