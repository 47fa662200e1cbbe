"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench

They run a tiny workload end to end and show that corrupted outputs are
counted as failed checks.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import spans as sp  # noqa: E402
import rtda.models  # noqa: E402
import rtda.tensor  # noqa: E402
import rtda.trainer  # noqa: E402
from rtda.benchmark import BenchmarkSettings, make_datasets  # noqa: E402

TINY = harness.Workload(
    "tiny", "smallest run that still crosses every layer",
    BenchmarkSettings(image_size=32, max_iter=6, n_source=8, n_target=8, n_eval=8),
    checkpoint_interval=2)


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def declared(kind):
    return {m["name"]: m["unit"] for m in benchmark_json()[kind]}


def test_declared_workloads_are_the_harness_workloads():
    assert {w["name"]: w["why"] for w in benchmark_json()["workloads"]} == \
        {w.name: w.why for w in harness.WORKLOADS.values()}


@pytest.mark.parametrize("trace, kind", [(False, "end_to_end"), (True, "per_layer")])
def test_tiny_run_emits_every_metric_with_its_unit(tmp_path, trace, kind):
    originals = (rtda.tensor.conv2d, rtda.trainer.paired_batch, rtda.models.MiniBiSeNet.forward)
    result = harness.run_workload(TINY, seed=5, seconds=0.01, trace=trace, work_root=str(tmp_path))
    assert (result.correct, result.failed) == (True, 0), result.errors
    assert result.attempted >= TINY.settings.max_iter
    line = result.line()
    assert {k: m["unit"] for k, m in line["metrics"].items()} == declared(kind)
    json.dumps(line)
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    # every replaced attribute is restored and the scratch out_dir removed
    assert originals == (rtda.tensor.conv2d, rtda.trainer.paired_batch,
                         rtda.models.MiniBiSeNet.forward)
    assert os.listdir(tmp_path) == []
    if trace:
        m = line["metrics"]
        cost = rtda.models.discriminator_cost("fcd-light-thin", 5, 32, 32)
        assert m["models.disc_macs_per_fwd"]["value"] == 4 * cost.total_macs
        assert m["tensor.depthwise_conv2d.calls"]["value"] == 6
        assert result.samples["traced_iterations"] == 3


@pytest.mark.parametrize("stage", ["evaluate", "TrainState"])
def test_exception_is_a_failed_operation_not_a_crash(tmp_path, monkeypatch, stage):
    def broken(*args, **kwargs):
        raise RuntimeError("broken on purpose")

    monkeypatch.setattr(rtda.trainer, stage, broken)
    result = harness.run_workload(TINY, seed=5, seconds=0.01, trace=False, work_root=str(tmp_path))
    assert not result.correct
    # a broken eval pass fails its batches (8 images, one batch); a broken
    # set-up fails as one operation
    assert result.failed == 1
    assert result.attempted >= (TINY.settings.max_iter if stage == "evaluate" else 1)
    assert "broken on purpose" in result.errors[-1]
    assert os.listdir(tmp_path) == []


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("run"))
    cfg = harness.train_config(TINY)
    source, target, held_out = make_datasets(7, TINY.settings)
    state = {}
    step = rtda.trainer.train_iteration

    def keep_state(s, batch):
        state["seg"] = s.seg
        return step(s, batch)

    rtda.trainer.train_iteration = keep_state
    try:
        final_path, _ = rtda.trainer.run_training(cfg, source, target, out_dir=out)
    finally:
        rtda.trainer.train_iteration = step
    return out, final_path, state["seg"], held_out


def failed_checks(what, fn, *args):
    ops = harness.Ops()
    ops.check(what, fn, *args)
    assert ops.attempted == 1
    return ops.failed


def test_intact_outputs_pass_every_check(trained):
    out, final_path, seg, held_out = trained
    assert failed_checks("log", harness.check_loss_log, os.path.join(out, "loss_log.csv"), 6) == 0
    assert failed_checks("reload", harness.check_reload, final_path, seg, held_out) == 0
    assert failed_checks("macs", harness.check_disc_macs, "fcd", 5, 64, 4) == 0


def test_flipped_checkpoint_byte_fails_the_reload_check(trained, tmp_path):
    _, final_path, seg, held_out = trained
    blob = bytearray(open(final_path, "rb").read())
    blob[len(blob) // 2] ^= 0x01
    corrupt = tmp_path / "corrupt.ckpt"
    corrupt.write_bytes(bytes(blob))
    assert failed_checks("reload", harness.check_reload, str(corrupt), seg, held_out) == 1


def test_reload_check_compares_predictions(trained):
    out, _, seg, held_out = trained
    # an earlier checkpoint loads cleanly but predicts other labels
    early = os.path.join(out, "ckpt_000002.ckpt")
    assert failed_checks("reload", harness.check_reload, early, seg, held_out) == 1


def test_wrong_mac_total_fails_the_mac_check(monkeypatch):
    real = rtda.models.discriminator_cost

    def off_by_one(*args):
        report = real(*args)
        report.rows.append(rtda.models.CostRow("extra", 0, 1))
        return report

    monkeypatch.setattr(rtda.models, "discriminator_cost", off_by_one)
    assert failed_checks("macs", harness.check_disc_macs, "fcd-light-thin", 5, 64, 4) == 1


@pytest.mark.parametrize("damage", ["nan", "missing_row", "header"])
def test_damaged_loss_log_fails_the_log_check(trained, tmp_path, damage):
    out, _, _, _ = trained
    lines = open(os.path.join(out, "loss_log.csv")).read().splitlines()
    if damage == "nan":
        lines[3] = ",".join(lines[3].split(",")[:2] + ["nan"] + lines[3].split(",")[3:])
    elif damage == "missing_row":
        del lines[4]
    else:
        lines[0] = "iter,loss"
    path = tmp_path / "loss_log.csv"
    path.write_text("\n".join(lines) + "\n")
    assert failed_checks("log", harness.check_loss_log, str(path), 6) == 1


def test_self_time_and_phases_from_nested_spans():
    # iteration [0, 10]: seg fwd [0, 2], seg fwd [2, 4] with a child [2.5, 3.5],
    # backward [5, 6], disc fwd [7, 8]
    spans = [["trainer.iteration", 0.0, 10.0, -1, 1, 0],
             ["models.seg_fwd", 0.0, 2.0, 0, 1, 0],
             ["models.seg_fwd", 2.0, 4.0, 0, 1, 0],
             ["tensor.conv2d", 2.5, 3.5, 2, 1, 7],
             ["tensor.backward", 5.0, 6.0, 0, 1, 0],
             ["models.disc_fwd", 7.0, 8.0, 0, 1, 0]]
    self_s, macs, children = sp.self_times(spans)
    assert self_s == [4.0, 2.0, 1.0, 1.0, 1.0, 1.0]
    assert macs[0] == macs[2] == 7
    assert sp.iteration_phases(spans, children, 0) == [2.0, 3.0, 2.0, 3.0]


def test_run_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "adapt-thin", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
