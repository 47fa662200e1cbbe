"""Desk-scale adaptation experiments on the synthetic benchmark.

Two harnesses: the paired adaptation-gap run (adversarial weight 0.01
versus the source-only 0 baseline, same seeds, same data, target mIoU
compared) and the discriminator-variant comparison that trains all three
variants from a single config switch and tabulates the results.

Settings pinned by the gap experiment: 64x64 scenes, 5 classes, batch 4,
2000 iterations, the 3-layer depthwise-separable discriminator, weight
0.01. Learning rates and dataset sizes are free desk-scale choices: the
published rates (2.5e-4 / 1e-5) are tuned for 30k-iteration runs behind
an ImageNet-pretrained backbone and barely move a small net trained from
scratch for 2k iterations, so the harness re-tunes them for this regime.
Class count, batch and the two desk-scale rates are module constants;
the fields of `BenchmarkSettings` are what a caller varies.
"""

from __future__ import annotations

import dataclasses
import tempfile
from dataclasses import dataclass

from rtda.config import TrainConfig
from rtda.data import SceneDataset, ShiftConfig, derive_seed
from rtda.models import DISCRIMINATOR_VARIANTS, build_discriminator, canonical_variant
from rtda.nn import num_params
from rtda.trainer import evaluate, load_seg_for_eval, run_training

_SRC_SALT = 0x62736E63
_TGT_SALT = 0x62746774
_EVAL_SALT = 0x6265766C

NUM_CLASSES = 5
BATCH = 4
SEG_LR = 0.02
DISC_LR = 5e-4


@dataclass
class BenchmarkSettings:
    image_size: int = 64
    max_iter: int = 2000
    variant: str = "fcd-light-thin"
    lambda_adv: float = 0.01
    n_source: int = 64
    n_target: int = 64
    n_eval: int = 48

    def to_config(self, seed: int, lambda_adv: float) -> TrainConfig:
        return TrainConfig(
            seed=seed,
            num_classes=NUM_CLASSES,
            image_size=self.image_size,
            batch=BATCH,
            max_iter=self.max_iter,
            seg_lr=SEG_LR,
            disc_lr=DISC_LR,
            lambda_adv=lambda_adv,
            disc_variant=self.variant,
        ).validate()


def make_datasets(seed: int, settings: BenchmarkSettings, config: ShiftConfig | None = None):
    """Disjoint seed ranges per role: unpaired source/target training
    scenes plus a held-out target evaluation split."""
    config = config or ShiftConfig.default(NUM_CLASSES)
    size = (settings.image_size, settings.image_size)
    k = NUM_CLASSES

    def seeds(salt, n):
        base = derive_seed(seed, salt) % 1_000_000_000
        return range(base, base + n)

    source = SceneDataset.generate(seeds(_SRC_SALT, settings.n_source), "source", config, size, k)
    target = SceneDataset.generate(seeds(_TGT_SALT, settings.n_target), "target", config, size, k)
    target_eval = SceneDataset.generate(seeds(_EVAL_SALT, settings.n_eval), "target", config, size, k)
    return source, target, target_eval


def run_single(seed: int, lambda_adv: float, settings: BenchmarkSettings,
               config: ShiftConfig | None = None, log=None) -> float:
    """One full training run through `run_training` into a temporary
    directory; returns the target mIoU of its final checkpoint."""
    cfg = settings.to_config(seed, lambda_adv)
    source, target, target_eval = make_datasets(seed, settings, config)
    with tempfile.TemporaryDirectory() as out_dir:
        final_path, _ = run_training(cfg, source, target, out_dir=out_dir, log=log)
        model, num_classes, _ = load_seg_for_eval(final_path)
    _, mean_iou, _ = evaluate(model, target_eval, num_classes)
    return mean_iou


@dataclass
class GapReport:
    seeds: tuple
    baseline: list
    adapted: list

    @property
    def baseline_mean(self) -> float:
        return sum(self.baseline) / len(self.baseline)

    @property
    def adapted_mean(self) -> float:
        return sum(self.adapted) / len(self.adapted)

    @property
    def gap_points(self) -> float:
        return 100.0 * (self.adapted_mean - self.baseline_mean)

    def to_text(self) -> str:
        lines = ["seed  baseline  adapted   delta(points)"]
        for s, b, a in zip(self.seeds, self.baseline, self.adapted):
            lines.append(f"{s:<6}{b:8.4f}  {a:8.4f}  {100.0 * (a - b):+8.2f}")
        lines.append(f"mean  {self.baseline_mean:8.4f}  {self.adapted_mean:8.4f}  {self.gap_points:+8.2f}")
        return "\n".join(lines) + "\n"


def adaptation_gap(seeds=(0, 1, 2), settings: BenchmarkSettings | None = None,
                   config: ShiftConfig | None = None, log=None) -> GapReport:
    """Paired adversarial vs source-only runs over several seeds."""
    settings = settings or BenchmarkSettings()
    baseline, adapted = [], []
    for seed in seeds:
        b = run_single(seed, 0.0, settings, config, log)
        if log:
            log(f"seed {seed}: source-only target mIoU {b:.4f}")
        baseline.append(b)
        a = run_single(seed, settings.lambda_adv, settings, config, log)
        if log:
            log(f"seed {seed}: adapted target mIoU {a:.4f}")
        adapted.append(a)
    return GapReport(seeds=tuple(seeds), baseline=baseline, adapted=adapted)


@dataclass
class VariantRow:
    variant: str
    params: int
    miou: float


def compare_variants(seed: int = 0, settings: BenchmarkSettings | None = None,
                     config: ShiftConfig | None = None, log=None):
    """Train once per discriminator variant, changing only that config
    field, and tabulate parameter count and target mIoU."""
    settings = settings or BenchmarkSettings()
    rows = []
    for variant in DISCRIMINATOR_VARIANTS:
        run_settings = dataclasses.replace(settings, variant=variant)
        if log:
            log(f"variant {variant}:")
        miou_value = run_single(seed, run_settings.lambda_adv, run_settings, config, log)
        params = num_params(build_discriminator(variant, NUM_CLASSES, init=False))
        rows.append(VariantRow(variant=variant, params=params, miou=miou_value))
        if log:
            log(f"variant {variant}: target mIoU {miou_value:.4f}")
    return rows


def variant_table(rows) -> str:
    lines = [f"{'discriminator':<18}{'params':>10}{'target mIoU':>14}"]
    for r in rows:
        lines.append(f"{canonical_variant(r.variant):<18}{r.params:>10,}{r.miou:>14.4f}")
    return "\n".join(lines) + "\n"
