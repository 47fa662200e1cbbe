import ast
import dataclasses
import glob
import os

import numpy as np
import pytest

import rtda
from rtda.cli import main
from rtda.config import ConfigError, TrainConfig, dump_config, load_config, parse_config
from rtda.data import SceneSample, ShiftConfig, write_sample
from rtda.tensor import Tensor


# ---------------------------------------------------------------------------
# config parsing


def test_parse_types_comments_and_quotes():
    cfg = parse_config(
        """
        # training length
        seed = 3
        max_iter = 12

        seg_lr = 1e-3
        disc_variant = "fcd-light"
        out_dir = runs/smoke
        """
    )
    assert cfg.seed == 3
    assert cfg.max_iter == 12
    assert cfg.seg_lr == 1e-3
    assert cfg.disc_variant == "fcd-light"
    assert cfg.out_dir == "runs/smoke"
    # untouched keys keep their defaults
    assert cfg.batch == TrainConfig().batch


def test_parse_reports_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("seed = 1\nnot a key value\n")
    with pytest.raises(ConfigError, match="line 3.*unknown key"):
        parse_config("seed = 1\n\nlearning_rate = 2\n")


@pytest.mark.parametrize("key", ["eval_split", "eval_domain", "class_subset",
                                 "loss_reduction", "disc_final_zero_init",
                                 "momentum", "weight_decay", "adam_beta1", "adam_beta2",
                                 "adam_eps", "poly_power"])
def test_removed_eval_keys_are_unknown(key):
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(f"{key} = target")


def test_parse_value_errors():
    with pytest.raises(ConfigError, match="expected integer"):
        parse_config("batch = 2.5")
    with pytest.raises(ConfigError, match="expected float"):
        parse_config("seg_lr = fast")


def test_parse_refuses_repeated_key():
    with pytest.raises(ConfigError, match="line 3: key 'batch' already set on line 1"):
        parse_config("batch = 2\nseed = 1\nbatch = 8")


@pytest.mark.parametrize("line", [
    "num_classes = 1",
    "image_size = 48",
    "image_size = 0",
    "batch = 0",
    "max_iter = -1",
    "seg_lr = 0",
    "poly_power = 0",
    "poly_power = 1.5",
    "lambda_adv = -0.1",
    "loss_reduction = median",
    "checkpoint_interval = 0",
    "width_multiplier = 0",
    "seed = -1",
    "seed = 18446744073709551616",
    "seg_lr = nan",
    "disc_lr = inf",
    "lambda_adv = inf",
    "width_multiplier = nan",
])
def test_validation_rejects_bad_values(line):
    with pytest.raises(ConfigError):
        parse_config(line)


def test_dump_config_pinned():
    assert dump_config(TrainConfig()) == (
        "seed = 0\n"
        "num_classes = 5\n"
        "image_size = 64\n"
        "batch = 4\n"
        "max_iter = 2000\n"
        "seg_lr = 0.00025\n"
        "disc_lr = 1e-05\n"
        "lambda_adv = 0.01\n"
        "disc_variant = fcd-light-thin\n"
        "width_multiplier = 1.0\n"
        "data_root = data\n"
        "train_split = train\n"
        "out_dir = runs/exp\n"
        "checkpoint_interval = 500\n"
        "resume = \n"
    )


def test_dump_round_trip(tmp_path):
    cfg = TrainConfig(seed=5, batch=2, seg_lr=3.25e-4, disc_variant="fcd",
                      lambda_adv=0.02)
    path = tmp_path / "run.cfg"
    path.write_text(dump_config(cfg))
    assert load_config(str(path)) == cfg


def test_every_config_field_is_read():
    """Each TrainConfig field is read as an attribute somewhere in the
    package outside config.py, so no field is validated but unused."""
    pkg = os.path.dirname(rtda.__file__)
    read = set()
    for path in glob.glob(os.path.join(pkg, "*.py")):
        if os.path.basename(path) == "config.py":
            continue
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        read.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    fields = [f.name for f in dataclasses.fields(TrainConfig)]
    assert [name for name in fields if name not in read] == []


# Stored for a reader outside the program: the abort's context, which
# callers and tests inspect after catching it.
_STORED_FOR_CALLERS = {"loss_name"}


def test_every_stored_attribute_is_read():
    """Each `self.<attr>` the package stores is read as an attribute
    somewhere in the package, the scripts or the benchmark, so no state is
    kept that nothing uses."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    stored, read = set(), set()
    for sub in ("src/rtda", "scripts", "perfbench"):
        for path in glob.glob(os.path.join(root, sub, "*.py")):
            with open(path, encoding="utf-8") as f:
                tree = ast.parse(f.read())
            for node in ast.walk(tree):
                if not isinstance(node, ast.Attribute):
                    continue
                if isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif (sub == "src/rtda" and isinstance(node.value, ast.Name)
                      and node.value.id == "self"):
                    stored.add(node.attr)
    assert sorted(stored - read - _STORED_FOR_CALLERS) == []


def _unused_imports(root, rel):
    """Names a module imports but never reads; names in `__all__` count as
    read, and `from __future__` imports are compiler directives."""
    with open(os.path.join(root, rel), encoding="utf-8") as f:
        tree = ast.parse(f.read())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted(f"{rel}:{line} {name}" for name, line in imported.items() if name not in read)


def test_no_unused_imports():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    unused = []
    for sub in ("src/rtda", "scripts", "tests"):
        for path in sorted(glob.glob(os.path.join(root, sub, "*.py"))):
            unused += _unused_imports(root, os.path.relpath(path, root))
    assert unused == []


# ---------------------------------------------------------------------------
# CLI


def test_count_discriminator(capsys):
    assert main(["count", "FCD"]) == 0
    assert capsys.readouterr().out.strip() == "fcd: 2781121 parameters"


def test_count_all_variants_and_seg(capsys):
    for variant, total in [("fcd", 2781121), ("fcd-light", 191364), ("fcd-light-thin", 13316)]:
        assert main(["count", variant]) == 0
        assert f"{total} parameters" in capsys.readouterr().out
    assert main(["count", "mini-bisenet", "--classes", "5"]) == 0
    assert "221509 parameters" in capsys.readouterr().out


def test_flops_csv_output(capsys):
    assert main(["flops", "fcd-light-thin", "--h", "64", "--w", "64", "--classes", "5",
                 "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "layer,params,macs,flops"
    assert lines[-1].startswith("total,")
    body = [line.split(",") for line in lines[1:-1]]
    total = lines[-1].split(",")
    for col in (1, 2, 3):
        assert sum(int(r[col]) for r in body) == int(total[col])


def test_flops_text_output(capsys):
    assert main(["flops", "fcd"]) == 0
    out = capsys.readouterr().out
    assert "fcd at 19x512x1024" in out
    assert "total" in out
    assert main(["flops", "fcd-light-thin"]) == 0
    assert capsys.readouterr().out == (
        "fcd-light-thin at 19x512x1024\n"
        "\n"
        "layer                    params            macs           flops\n"
        "conv1 (19->64)            1,603     199,229,440     398,458,880\n"
        "conv2 (64->128)           9,408     301,989,888     603,979,776\n"
        "conv3 (128->1)            2,305      17,825,792      35,651,584\n"
        "total                    13,316     519,045,120   1,038,090,240\n"
    )


def test_gradcheck_command(capsys):
    assert main(["gradcheck", "--instances", "2", "--seed", "11"]) == 0
    out = capsys.readouterr().out
    assert "within tolerance" in out
    assert "conv2d" in out


@pytest.mark.parametrize("count", ["0", "-1"])
def test_gradcheck_refuses_no_instances(count, capsys):
    assert main(["gradcheck", "--instances", count]) == 1
    assert capsys.readouterr().err == "error: instances_per_op must be at least 1\n"


def test_gen_data_layout(tmp_path, capsys):
    root = str(tmp_path / "data")
    assert main(["gen-data", "--root", root, "--seeds", "3", "--size", "32"]) == 0
    assert "wrote 3 scenes" in capsys.readouterr().out
    for domain in ("source", "target"):
        for seed in range(3):
            assert os.path.exists(os.path.join(root, "train", domain, f"{seed}.img.sdr"))
            assert os.path.exists(os.path.join(root, "train", domain, f"{seed}.lbl.sdr"))


def test_train_and_eval_commands(tmp_path, capsys):
    root = str(tmp_path / "data")
    assert main(["gen-data", "--root", root, "--seeds", "4", "--size", "32"]) == 0
    out_dir = str(tmp_path / "run")
    cfg = TrainConfig(seed=0, image_size=32, batch=2, max_iter=2,
                      data_root=root, out_dir=out_dir)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(dump_config(cfg))
    capsys.readouterr()

    assert main(["train", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "finished 2 iterations" in out
    assert "checkpoint:" in out
    ckpt = os.path.join(out_dir, "ckpt_000002.ckpt")
    assert os.path.exists(ckpt)
    assert os.path.exists(os.path.join(out_dir, "loss_log.csv"))

    assert main(["eval", "--ckpt", ckpt, "--root", root, "--split", "train",
                 "--domain", "target"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "class,iou"
    assert lines[-1].startswith("mIoU,")
    assert 0.0 <= float(lines[-1].split(",")[1]) <= 1.0

    # a seed outside [0, 2^64) is refused as the config loads, not at the
    # first checkpoint after some iterations have been trained and logged
    bad_dir = tmp_path / "bad_seed"
    cfg_path.write_text(dump_config(dataclasses.replace(
        cfg, seed=-1, out_dir=str(bad_dir), checkpoint_interval=1)))
    assert main(["train", "--config", str(cfg_path)]) == 1
    assert not (bad_dir / "loss_log.csv").exists()

    # a non-finite rate is refused too, not trained until a forward overflows
    nan_dir = tmp_path / "nan_lr"
    cfg_path.write_text(dump_config(dataclasses.replace(
        cfg, seg_lr=float("nan"), out_dir=str(nan_dir))))
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path)]) == 1
    assert "error: seg_lr must be finite" in capsys.readouterr().err
    assert not (nan_dir / "loss_log.csv").exists()

    # so are scenes of another size than image_size, the size every
    # checkpoint records as meta.image_size
    wrong_size = tmp_path / "wrong_size"
    cfg_path.write_text(dump_config(dataclasses.replace(
        cfg, image_size=64, out_dir=str(wrong_size))))
    assert main(["train", "--config", str(cfg_path)]) == 1
    assert "source images are 32x32, config image_size is 64" in capsys.readouterr().err
    assert not (wrong_size / "loss_log.csv").exists()


EVAL_STDOUT = {
    (): "class,iou\n0,0.373551\n1,0.034831\n2,0.151717\n3,0.000000\n4,0.094262\n"
        "mIoU,0.130872\n",
    ("--classes", "0,2"): "class,iou\n0,0.373551\n2,0.151717\nmIoU,0.262634\n",
}


def test_eval_stdout_pinned(tmp_path, capsys):
    """The full `rtda eval` output of a 4-iteration run, with and without a
    class subset."""
    root = str(tmp_path / "data")
    assert main(["gen-data", "--root", root, "--seeds", "4", "--size", "32"]) == 0
    out_dir = str(tmp_path / "run")
    cfg = TrainConfig(seed=0, image_size=32, batch=2, max_iter=4,
                      data_root=root, out_dir=out_dir)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(dump_config(cfg))
    assert main(["train", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    ckpt = os.path.join(out_dir, "ckpt_000004.ckpt")
    for extra, want in EVAL_STDOUT.items():
        assert main(["eval", "--ckpt", ckpt, "--root", root, "--split", "train",
                     *extra]) == 0
        assert capsys.readouterr().out == want


def test_validation_failures_exit_one(tmp_path, capsys):
    assert main(["count", "megadisc"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["train", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert main(["eval", "--ckpt", str(tmp_path / "no.ckpt"), "--root", str(tmp_path)]) == 1
    assert main(["gen-data", "--root", str(tmp_path), "--seeds", "0"]) == 1
    assert main([]) == 1  # argparse rejection is a validation failure
    assert main(["--help"]) == 0


def test_numerical_abort_exits_two(tmp_path, capsys):
    root = str(tmp_path / "data")
    shift = ShiftConfig.default(5)
    labels = np.zeros((32, 32), dtype=np.uint8)
    for domain in ("source", "target"):
        for seed in range(2):
            image = Tensor(np.full((3, 32, 32), np.nan, dtype=np.float32))
            write_sample(root, "train", SceneSample(image=image, labels=labels,
                                                    domain=domain, seed=seed))
    cfg = TrainConfig(seed=0, image_size=32, batch=2, max_iter=3,
                      data_root=root, out_dir=str(tmp_path / "run"))
    cfg_path = tmp_path / "boom.cfg"
    cfg_path.write_text(dump_config(cfg))

    assert main(["train", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "numerical abort" in err
