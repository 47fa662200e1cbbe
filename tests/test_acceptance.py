"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (visible with `pytest -s` or in the
captured-output section) and then asserts, so a red run still shows every
measured number. The adaptation-effect test trains 6 full runs and
dominates the suite's runtime; everything else is seconds.
"""

import dataclasses
import math
import time

import numpy as np

from rtda.benchmark import BenchmarkSettings, adaptation_gap, compare_variants, variant_table
from rtda.config import TrainConfig
from rtda.data import SceneDataset, ShiftConfig
from rtda.gradcheck import run_primitive_suite
from rtda.losses import adv_loss, disc_loss, seg_cross_entropy
from rtda.metrics import ConfusionMatrix, miou
from rtda.models import build_discriminator, discriminator_cost
from rtda.nn import num_params
from rtda.optim import poly_lr
from rtda.tensor import Tensor
from rtda.trainer import TrainState, run_training, train_iteration
from rtda.data import paired_batch

from oracles import tally_conv_multiplies

VARIANTS = ("fcd", "fcd-light", "fcd-light-thin")
PARAM_TARGETS = {"fcd": 2_781_121, "fcd-light": 191_364, "fcd-light-thin": 13_316}
GFLOP_TARGETS = {"fcd": 30.883e9, "fcd-light": 2.14e9, "fcd-light-thin": 1.038e9}


def _line(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f": {detail}" if detail else ""))


# ---------------------------------------------------------------------------


def test_parameter_totals_exact():
    t0 = time.perf_counter()
    got = {v: num_params(build_discriminator(v, 19, init=False)) for v in VARIANTS}
    elapsed = time.perf_counter() - t0
    ok = got == PARAM_TARGETS and elapsed < 1.0
    _line("parameter totals", ok, f"{got} in {elapsed * 1e3:.0f} ms")
    assert got == PARAM_TARGETS
    assert elapsed < 1.0


def test_flop_totals_within_half_percent():
    t0 = time.perf_counter()
    got = {v: discriminator_cost(v, 19, 512, 1024).total_flops for v in VARIANTS}
    elapsed = time.perf_counter() - t0
    rel = {v: abs(got[v] - GFLOP_TARGETS[v]) / GFLOP_TARGETS[v] for v in VARIANTS}
    ok = max(rel.values()) < 0.005 and elapsed < 1.0
    _line("flop totals at 19x512x1024", ok,
          ", ".join(f"{v}={got[v] / 1e9:.3f}G ({rel[v] * 100:.2f}%)" for v in VARIANTS))
    assert max(rel.values()) < 0.005
    assert elapsed < 1.0


def test_size_orderings_strict():
    params = [num_params(build_discriminator(v, 19, init=False)) for v in VARIANTS]
    flops = [discriminator_cost(v, 19, 512, 1024).total_flops for v in VARIANTS]
    ok = params[0] > params[1] > params[2] and flops[0] > flops[1] > flops[2]
    _line("architecture size orderings", ok, f"params {params}, flops {flops}")
    assert params[0] > params[1] > params[2]
    assert flops[0] > flops[1] > flops[2]


def test_gradient_suite():
    t0 = time.perf_counter()
    results = run_primitive_suite(instances_per_op=20, seed=2024)
    elapsed = time.perf_counter() - t0
    worst = max(results.values())
    ok = worst < 1e-4 and elapsed < 60.0
    _line("finite-difference gradient suite", ok,
          f"{len(results)} primitives, worst rel err {worst:.2e}, {elapsed:.1f} s")
    assert worst < 1e-4
    assert elapsed < 60.0


def test_loss_reference_values():
    zeros = Tensor(np.zeros((2, 1, 4, 4), dtype=np.float32))
    l_d = disc_loss(zeros, zeros).item()
    l_adv = adv_loss(zeros).item()
    uniform = Tensor(np.full((1, 19, 4, 4), 1.0 / 19.0, dtype=np.float32))
    labels = np.zeros((1, 4, 4), dtype=np.uint8)
    l_seg = seg_cross_entropy(uniform, labels).item()
    lr = poly_lr(2.5e-4, 15000, 30000, 0.9)
    checks = {
        "disc@0": abs(l_d - 2 * math.log(2)) < 1e-6,
        "adv@0": abs(l_adv - math.log(2)) < 1e-6,
        "seg@uniform19": abs(l_seg - math.log(19)) < 1e-5,
        "poly@half": abs(lr - 1.33972e-4) < 1e-9,
    }
    _line("loss and schedule reference values", all(checks.values()),
          f"l_d={l_d:.7f} l_adv={l_adv:.7f} l_seg={l_seg:.6f} lr={lr:.6e}")
    assert all(checks.values()), checks


def _set_based_iou(pred: np.ndarray, truth: np.ndarray, k: int):
    """Brute-force oracle: per-class pixel sets, IoU from set sizes."""
    per_class = []
    for c in range(k):
        p = {tuple(ij) for ij in np.argwhere(pred == c)}
        t = {tuple(ij) for ij in np.argwhere(truth == c)}
        union = len(p | t)
        per_class.append(None if union == 0 else len(p & t) / union)
    scored = [v for v in per_class if v is not None]
    return per_class, (sum(scored) / len(scored) if scored else None)


def test_miou_matches_set_oracle():
    rng = np.random.default_rng(606)
    exact = 0
    for _ in range(200):
        k = int(rng.integers(2, 7))
        h, w = int(rng.integers(1, 17)), int(rng.integers(1, 17))
        pred = rng.integers(0, k, (h, w)).astype(np.int64)
        truth = rng.integers(0, k, (h, w)).astype(np.int64)
        cm = ConfusionMatrix(k)
        cm.accumulate(pred[None], truth[None])
        got_per, got_mean = miou(cm)
        want_per, want_mean = _set_based_iou(pred, truth, k)
        assert got_per == want_per
        assert got_mean == want_mean
        exact += 1
    _line("mIoU vs set-based oracle", exact == 200, f"{exact}/200 pairs exact")
    assert exact == 200


def test_flop_counter_matches_loop_tally():
    agree = {}
    for v in VARIANTS:
        report = discriminator_cost(v, 19, 32, 64)
        model = build_discriminator(v, 19, init=False)
        tally = tally_conv_multiplies(model, 32, 64)
        agree[v] = report.total_macs == tally and report.total_flops == 2 * tally
    _line("flop counter vs loop tally at 19x32x64", all(agree.values()), str(agree))
    assert all(agree.values()), agree


def test_determinism_and_resume(tmp_path):
    shift = ShiftConfig.default(5)
    src = SceneDataset.generate(range(4), "source", shift, size=(32, 32))
    tgt = SceneDataset.generate(range(50, 54), "target", shift, size=(32, 32))
    cfg = TrainConfig(seed=0, image_size=32, batch=2, max_iter=6, checkpoint_interval=100)

    finals, csvs = [], []
    for sub in ("a", "b"):
        final, _ = run_training(cfg, src, tgt, out_dir=str(tmp_path / sub))
        finals.append(open(final, "rb").read())
        csvs.append((tmp_path / sub / "loss_log.csv").read_text())
    repeat_ok = finals[0] == finals[1] and csvs[0] == csvs[1]

    state = TrainState(cfg)
    for it in range(3):
        train_iteration(state, paired_batch(src, tgt, cfg.batch, cfg.seed, it))
    mid = str(tmp_path / "mid.ckpt")
    state.save(mid)
    resumed, _ = run_training(dataclasses.replace(cfg, resume=mid), src, tgt,
                              out_dir=str(tmp_path / "resumed"))
    resume_ok = open(resumed, "rb").read() == finals[0]

    _line("bitwise determinism and resume", repeat_ok and resume_ok,
          f"identical reruns: {repeat_ok}, resumed == uninterrupted: {resume_ok}")
    assert repeat_ok
    assert resume_ok


def test_adaptation_beats_source_only_baseline():
    settings = BenchmarkSettings()  # 64x64, K=5, batch 4, 2000 iters, fcd-light-thin
    t0 = time.perf_counter()
    report = adaptation_gap(seeds=(0, 1, 2), settings=settings)
    elapsed = time.perf_counter() - t0
    ok = report.gap_points >= 2.0 and elapsed < 900.0
    _line("adversarial adaptation gap", ok,
          f"baseline {report.baseline_mean:.4f}, adapted {report.adapted_mean:.4f}, "
          f"gap {report.gap_points:+.2f} points in {elapsed / 60:.1f} min")
    print(report.to_text())
    assert report.gap_points >= 2.0
    assert elapsed < 900.0


def test_variant_comparison_table():
    """All three discriminators run from one config switch; the resulting
    mIoU ordering is noise at this scale and is deliberately not checked."""
    settings = BenchmarkSettings(max_iter=80, n_source=12, n_target=12, n_eval=6)
    rows = compare_variants(seed=0, settings=settings)
    table = variant_table(rows)
    print(table)
    names = [r.variant for r in rows]
    params = {r.variant: r.params for r in rows}
    ok = (names == list(VARIANTS)
          and params == {"fcd": 2_766_785, "fcd-light": 190_230, "fcd-light-thin": 12_182}
          and all(0.0 <= r.miou <= 1.0 for r in rows)
          and all(v in table for v in VARIANTS))
    _line("discriminator variant comparison", ok,
          "; ".join(f"{r.variant}: {r.params} params, mIoU {r.miou:.4f}" for r in rows))
    assert names == list(VARIANTS)
    assert all(v in table for v in VARIANTS)
    assert all(0.0 <= r.miou <= 1.0 for r in rows)
