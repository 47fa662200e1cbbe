"""Workloads, output checks and metrics of the rtda benchmark.

A workload drives rtda along the path `rtda train` and `rtda eval` take:

1. set-up: seeded source, target and held-out target splits generated in
   memory (rtda.benchmark.make_datasets over rtda.data), then the models
   and optimizers (trainer.TrainState); repeated, and the median reported;
2. trainer.run_training into a scratch out_dir, with periodic checkpoints
   and the loss CSV;
3. trainer.load_seg_for_eval on the final checkpoint;
4. trainer.evaluate over the held-out split, pass after pass until the run
   has measured for the requested seconds.

Every operation (iteration, checkpoint write and read, eval batch, output
check) is counted as attempted, and as failed when it raises or its check
does not hold; any other exception counts as one failed operation, so a
run always ends with a result.

The end-to-end times are read from the process's CPU clock
(`time.process_time`), not the wall clock. The process computes on one
thread (BLAS is pinned to one), so on an idle host the two agree within a
few percent; on a busy one the CPU clock leaves out the time the process
waits for a CPU, which otherwise moves a run's figures by a third and
more. Time the process spends waiting on anything else, such as I/O, is
left out too; `samples` keeps the wall time of training and eval.
"""

from __future__ import annotations

import dataclasses
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

import numpy as np

import rtda.models
import rtda.tensor
import rtda.trainer
from rtda.benchmark import BenchmarkSettings, make_datasets

import spans as sp

EVAL_BATCH = 8
# setup_s is the median of three set-ups: over ten seeds a single set-up
# spread up to 0.115 on adapt-fcd, the median of three 0.079 (README).
SETUP_REPS = 3
MIN_EVAL_PASSES = 5

cpu_clock = time.process_time


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    settings: BenchmarkSettings
    checkpoint_interval: int


# All at K=5, batch 4, seg_lr 0.02, disc_lr 5e-4 (BenchmarkSettings'
# defaults). Iteration budgets are fixed, not timed, so target_miou is a
# pure function of the seed; each times at least 150 iterations, so p90
# has 15 samples beyond it. Longer budgets let some seeds, not others,
# learn a fourth class, which splits target_miou into two modes. The
# 64x64 workloads train on 192 scenes per domain instead of 64: on 64,
# target_miou spread 0.11 (quartile distance over median) across eight
# seeds on adapt-thin, on 192 it spread 0.04 and 0.08 on two sets of eight.
# fcd-light is left out: it has the layers of fcd-light-thin, only wider.
WORKLOADS = {w.name: w for w in (
    Workload(
        "adapt-thin",
        "The paper's headline setting (fcd-light-thin, lambda 0.01, 64x64); the only workload "
        "where depthwise conv and leaky ReLU carry work, at per-call overhead scale.",
        BenchmarkSettings(max_iter=300, variant="fcd-light-thin", lambda_adv=0.01,
                          n_source=192, n_target=192),
        checkpoint_interval=100),
    Workload(
        "adapt-fcd",
        "Dense fcd discriminator: im2col GEMMs beyond L2, Adam over 2.8M parameters, 33 MB "
        "checkpoints; with adapt-thin it gives the FLOP-vs-wall ratio.",
        BenchmarkSettings(max_iter=150, variant="fcd", lambda_adv=0.01,
                          n_source=192, n_target=192),
        checkpoint_interval=50),
    Workload(
        "source-only-128",
        "lambda 0 at 128x128: the segmenter alone doing array work, not call overhead; "
        "discriminator and adversarial changes should leave it unchanged.",
        BenchmarkSettings(max_iter=400, image_size=128, lambda_adv=0.0),
        checkpoint_interval=100),
)}

# The workload seed generates the data splits; the program's own seed
# (weight init and batch order) stays fixed, so the program receives only
# the generated inputs. With both varying, target_miou spread about twice
# as wide across seeds on adapt-thin.
PROGRAM_SEED = 0


def train_config(wl: Workload):
    return dataclasses.replace(wl.settings.to_config(PROGRAM_SEED, wl.settings.lambda_adv),
                               checkpoint_interval=wl.checkpoint_interval)


class CheckFailed(Exception):
    """An output of the program is not what it must be."""


def check_loss_log(path: str, max_iter: int) -> None:
    """The loss CSV has its header and one row per iteration, in order,
    with every value finite."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != rtda.trainer.CSV_HEADER:
        raise CheckFailed(f"{path}: bad header")
    if len(lines) - 1 != max_iter:
        raise CheckFailed(f"{path}: {len(lines) - 1} rows for {max_iter} iterations")
    for i, row in enumerate(lines[1:]):
        fields = row.split(",")
        if int(fields[0]) != i:
            raise CheckFailed(f"{path}: row {i} logs iteration {fields[0]}")
        if not all(math.isfinite(float(v)) for v in fields[1:]):
            raise CheckFailed(f"{path}: iteration {i} logs a non-finite value")


def check_reload(ckpt_path: str, seg, dataset):
    """The segmenter reloaded from the checkpoint predicts the same labels
    as the in-memory one on every image of the dataset, predicted in eval
    batches; returns the reloaded model."""
    model, _, _ = rtda.trainer.load_seg_for_eval(ckpt_path)
    differ = 0
    for start in range(0, len(dataset), EVAL_BATCH):
        batch = range(start, min(start + EVAL_BATCH, len(dataset)))
        images = rtda.tensor.Tensor(dataset.images(batch))
        want = rtda.trainer.predict_labels(seg, images)
        differ += int((rtda.trainer.predict_labels(model, images) != want).sum())
    if differ:
        raise CheckFailed(f"reloaded checkpoint changes {differ} predicted labels")
    return model


def check_disc_macs(variant: str, num_classes: int, size: int, batch: int) -> int:
    """The conv MACs one discriminator forward performs, read from the
    shapes of its conv calls, equal batch x the analytical cost model's
    total; returns the observed count."""
    disc = rtda.models.build_discriminator(variant, num_classes, init=False)
    counter, patches = sp.Tracer(), sp.Patches()
    sp.install(counter, patches, [(rtda.tensor, op, op, sp.conv_macs) for op in sp.MAC_OPS])
    try:
        probs = np.full((batch, num_classes, size, size), 1.0 / num_classes, dtype=np.float32)
        disc(rtda.tensor.Tensor(probs))
    finally:
        patches.undo()
    observed = sum(s[sp.MACS] for s in counter.spans)
    expected = batch * rtda.models.discriminator_cost(variant, num_classes, size, size).total_macs
    if observed != expected:
        raise CheckFailed(f"{variant}: {observed} conv MACs observed, cost model gives {expected}")
    return observed


class Ops:
    """Attempted and failed operation counts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def count(self, attempted: int, failed: int = 0, error: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.errors.append(error)

    def check(self, what: str, fn, *args):
        """One output check; returns fn's result, or None when it fails."""
        try:
            result = fn(*args)
        except Exception as exc:  # every failure of a check is a counted result
            traceback.print_exc(file=sys.stderr)
            self.count(1, 1, f"{what}: {exc}")
            return None
        self.count(1)
        return result


class Recorder:
    """Replaces run_training's batch and step helpers to time each
    iteration on the CPU clock, from the start of its batch assembly to
    the end of its step, and to keep the TrainState that run_training
    builds.

    With a tracer it records spans on odd iterations only: the trace
    points are installed before an odd iteration's batch and removed
    before an even one's, so one run gives traced and untraced iteration
    times under the same conditions."""

    def __init__(self, tracer: sp.Tracer | None, points):
        self.tracer = tracer
        self.points = points
        self.group = sp.Patches()
        self.state = None
        self.times: list[tuple[float, bool]] = []
        self._t0 = 0.0

    def install(self, patches: sp.Patches) -> None:
        trainer = rtda.trainer
        batch_fn, step_fn = trainer.paired_batch, trainer.train_iteration
        if self.tracer is not None:
            traced_batch = self.tracer.wrap("data.paired_batch", batch_fn)
            traced_step = self.tracer.wrap("trainer.iteration", step_fn)

        def paired_batch(source, target, batch, seed, iteration):
            self._switch(iteration)
            self._t0 = cpu_clock()
            return (traced_batch if self.group else batch_fn)(source, target, batch, seed, iteration)

        def train_iteration(state, batch):
            self.state = state
            traced = bool(self.group)
            record = (traced_step if traced else step_fn)(state, batch)
            self.times.append((cpu_clock() - self._t0, traced))
            return record

        patches.set(trainer, "paired_batch", paired_batch)
        patches.set(trainer, "train_iteration", train_iteration)

    def _switch(self, iteration: int) -> None:
        if self.tracer is None:
            return
        self.tracer.request = iteration
        want = iteration % 2 == 1 and self.state is not None
        if want and not self.group:
            sp.install(self.tracer, self.group, self.points)
            disc = self.state.disc
            self.group.set(disc, "forward", self.tracer.wrap("models.disc_fwd", disc.forward))
        elif not want:
            self.group.undo()

    def iter_ms(self, traced: bool | None = None) -> list[float]:
        return [t * 1e3 for t, tr in self.times if traced is None or tr == traced]


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict            # name -> (value, unit)
    errors: list
    samples: dict = dataclasses.field(default_factory=dict)  # counts and figures behind the metrics
    series: dict = dataclasses.field(default_factory=dict)   # raw timings, and spans if traced

    def line(self) -> dict:
        return {"correct": self.correct, "attempted": self.attempted, "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()}}


def _percentile(values, q) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, work_root: str) -> Result:
    """Run one workload; with `trace` the metrics are the per-layer ones
    and the spans are kept in `Result.series["spans"]`."""
    cfg = train_config(wl)
    tracer = sp.Tracer() if trace else None
    points = sp.trace_points() if trace else []
    hooks, group = sp.Patches(), sp.Patches()
    recorder = Recorder(tracer, points)
    ops = Ops()
    os.makedirs(work_root, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=work_root)

    def phase(request):
        group.undo()
        if tracer is not None:
            tracer.request = request
            sp.install(tracer, group, points)

    try:
        if tracer is not None:
            sp.install(tracer, hooks, sp.checkpoint_points())
        recorder.install(hooks)

        setup_s, splits = [], None
        for rep in range(SETUP_REPS):
            phase(f"setup-{rep}")
            splits = None  # free the previous repetition's data first
            t0 = cpu_clock()
            splits = make_datasets(seed, wl.settings)
            rtda.trainer.TrainState(cfg)
            setup_s.append(cpu_clock() - t0)
        group.undo()
        source, target, held_out = splits

        w0, t0 = sp.perf(), cpu_clock()
        try:
            final_path, _ = rtda.trainer.run_training(cfg, source, target, out_dir=out_dir)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            done = len(recorder.times)
            ops.count(cfg.max_iter, cfg.max_iter - done, f"training stopped after {done} iterations")
            return Result(False, ops.attempted, ops.failed, {}, ops.errors)
        train_s, train_wall_s = cpu_clock() - t0, sp.perf() - w0
        recorder.group.undo()
        ops.count(cfg.max_iter)

        written = list(range(cfg.checkpoint_interval, cfg.max_iter, cfg.checkpoint_interval))
        written.append(cfg.max_iter)
        missing = [n for n in written
                   if not os.path.isfile(os.path.join(out_dir, f"ckpt_{n:06d}.ckpt"))]
        ops.count(len(written), len(missing), f"checkpoints missing for iterations {missing}")

        phase("check")
        ops.check("loss log", check_loss_log, os.path.join(out_dir, "loss_log.csv"), cfg.max_iter)
        model = ops.check("checkpoint reload", check_reload, final_path, recorder.state.seg, held_out)
        ops.check("discriminator MACs", check_disc_macs, cfg.disc_variant, cfg.num_classes,
                  cfg.image_size, cfg.batch)
        if model is None:
            return Result(False, ops.attempted, ops.failed, {}, ops.errors)
        ckpt_bytes = os.path.getsize(final_path)

        passes, first, target_miou = [], None, 0.0
        measured = train_wall_s  # the run's length is wall time
        batches = -(-len(held_out) // EVAL_BATCH)
        while len(passes) < MIN_EVAL_PASSES or measured < seconds:
            phase(f"eval-{len(passes)}")
            w0, t0 = sp.perf(), cpu_clock()
            try:
                _, mean, cm = rtda.trainer.evaluate(model, held_out, cfg.num_classes,
                                                    batch=EVAL_BATCH)
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                ops.count(batches, batches, f"eval pass {len(passes) + 1}: {exc}")
                return Result(False, ops.attempted, ops.failed, {}, ops.errors)
            passes.append(cpu_clock() - t0)
            measured += sp.perf() - w0
            if first is None:
                first, target_miou = cm.counts.copy(), mean
            same = np.array_equal(cm.counts, first)
            ops.count(batches, 0 if same else batches, f"eval pass {len(passes)} differs from the first")
    except Exception as exc:  # any other failure still ends in a result
        traceback.print_exc(file=sys.stderr)
        ops.count(1, 1, f"{type(exc).__name__}: {exc}")
        return Result(False, ops.attempted, ops.failed, {}, ops.errors)
    finally:
        group.undo()
        recorder.group.undo()
        hooks.undo()
        shutil.rmtree(out_dir, ignore_errors=True)

    samples = {"setup_s_each": setup_s, "iterations_timed": len(recorder.times),
               "eval_passes": len(passes), "eval_images_per_pass": len(held_out),
               "train_cpu_s": train_s, "train_wall_s": train_wall_s,
               "eval_cpu_s": sum(passes), "eval_wall_s": measured - train_wall_s}
    series = {"iter_ms": recorder.iter_ms(), "eval_pass_s": passes}
    if trace:
        metrics = sp.layer_metrics(tracer.spans)
        traced, untraced = recorder.iter_ms(True), recorder.iter_ms(False)
        metrics["checkpoint.bytes"] = (ckpt_bytes, sp.unit_of("checkpoint.bytes"))
        metrics["trace.iter_ms_p50"] = (_percentile(traced, 50), "ms")
        metrics["trace.overhead_ms"] = (_percentile(traced, 50) - _percentile(untraced, 50), "ms")
        samples.update(traced_iterations=len(traced), untraced_iterations=len(untraced))
        series.update(traced=[tr for _, tr in recorder.times], spans=tracer.spans)
    else:
        iter_ms = series["iter_ms"]
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "iter_ms_p50": (_percentile(iter_ms, 50), "ms"),
            "iter_ms_p90": (_percentile(iter_ms, 90), "ms"),
            "train_iters_per_s": (cfg.max_iter / train_s, "1/s"),
            "eval_images_per_s": (len(held_out) / statistics.median(passes), "1/s"),
            "target_miou": (target_miou, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_rate": (1.0 - ops.failed / ops.attempted, "ratio"),
        }
    return Result(ops.failed == 0, ops.attempted, ops.failed, metrics, ops.errors, samples, series)
