"""Command-line front end.

Subcommands: `count` (parameter totals per architecture), `flops` (cost
report at a resolution), `gen-data` (write a synthetic two-domain split),
`train` (run a config), `eval` (score a checkpoint on a split), and
`gradcheck` (finite-difference suite over every differentiable
primitive). Exit codes: 0 success, 1 validation error, 2 numerical abort.
"""

from __future__ import annotations

import argparse
import os
import sys

from rtda import checkpoint as ckpt_mod
from rtda.config import ConfigError, load_config
from rtda.data import SceneDataset, ShiftConfig, generate_dataset
from rtda.metrics import report_csv
from rtda.models import (
    build_discriminator,
    build_mini_bisenet,
    canonical_variant,
    discriminator_cost,
)
from rtda.nn import num_params
from rtda.tensor import NonFiniteError
from rtda.trainer import NumericalAbort, evaluate, load_seg_for_eval, run_training

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERIC = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rtda", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="parameter count for an architecture")
    p_count.add_argument("variant", help="FCD, FCD-Light, FCD-Light&Thin, or mini-bisenet")
    p_count.add_argument("--classes", type=int, default=19)
    p_count.add_argument("--width", type=float, default=1.0, help="mini-bisenet width multiplier")

    p_flops = sub.add_parser("flops", help="per-layer cost report for a discriminator")
    p_flops.add_argument("variant")
    p_flops.add_argument("--h", type=int, default=512)
    p_flops.add_argument("--w", type=int, default=1024)
    p_flops.add_argument("--classes", type=int, default=19)
    p_flops.add_argument("--csv", action="store_true", help="emit CSV instead of the text table")

    p_gen = sub.add_parser("gen-data", help="write a synthetic two-domain split")
    p_gen.add_argument("--root", required=True)
    p_gen.add_argument("--seeds", type=int, required=True, help="number of scenes per domain")
    p_gen.add_argument("--size", type=int, default=64)
    p_gen.add_argument("--classes", type=int, default=5)
    p_gen.add_argument("--split", default="train")
    p_gen.add_argument("--start", type=int, default=0, help="first scene seed")

    p_train = sub.add_parser("train", help="run training from a config file")
    p_train.add_argument("--config", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    p_eval.add_argument("--ckpt", required=True)
    p_eval.add_argument("--root", required=True)
    p_eval.add_argument("--split", default="val")
    p_eval.add_argument("--domain", default="target", choices=["source", "target"])
    p_eval.add_argument("--classes", default="", help="comma-separated class subset")

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p_grad.add_argument("--instances", type=int, default=20)
    p_grad.add_argument("--seed", type=int, default=2024)

    return parser


def _cmd_count(args) -> int:
    name = args.variant.strip().lower().replace("_", "-")
    if name in ("mini-bisenet", "minibisenet", "seg"):
        model = build_mini_bisenet(args.classes, args.width, init=False)
        label = f"mini-bisenet (C={args.classes}, width {args.width:g})"
    else:
        model = build_discriminator(args.variant, args.classes, init=False)
        label = canonical_variant(args.variant)
    total = num_params(model)
    print(f"{label}: {total} parameters")
    return EXIT_OK


def _cmd_flops(args) -> int:
    report = discriminator_cost(args.variant, args.classes, args.h, args.w)
    sys.stdout.write(report.to_csv() if args.csv else report.to_text())
    return EXIT_OK


def _cmd_gen_data(args) -> int:
    if args.seeds < 1:
        raise ValueError("--seeds must be at least 1")
    config = ShiftConfig.default(args.classes)
    seeds = range(args.start, args.start + args.seeds)
    generate_dataset(args.root, args.split, seeds, config,
                     size=(args.size, args.size), num_classes=args.classes)
    print(f"wrote {args.seeds} scenes per domain under {os.path.join(args.root, args.split)}")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    source = SceneDataset.from_dir(cfg.data_root, cfg.train_split, "source")
    target = SceneDataset.from_dir(cfg.data_root, cfg.train_split, "target")
    final_path, history = run_training(cfg, source, target)
    last = history[-1] if history else None
    if last is not None:
        print(f"finished {len(history)} iterations; final l_seg {last.l_seg:.4f} "
              f"l_adv {last.l_adv:.4f} l_d {last.l_d:.4f}")
    print(f"checkpoint: {final_path}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    model, num_classes, _ = load_seg_for_eval(args.ckpt)
    dataset = SceneDataset.from_dir(args.root, args.split, args.domain)
    subset = [int(tok) for tok in args.classes.split(",") if tok.strip()] if args.classes.strip() else None
    _, _, cm = evaluate(model, dataset, num_classes, subset)
    sys.stdout.write(report_csv(cm, subset))
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    from rtda.gradcheck import run_primitive_suite

    results = run_primitive_suite(instances_per_op=args.instances, seed=args.seed)
    width = max(len(name) for name in results)
    for name, worst in sorted(results.items()):
        print(f"{name:<{width}}  worst rel err {worst:.3e}")
    print(f"all {len(results)} primitives within tolerance")
    return EXIT_OK


_COMMANDS = {
    "count": _cmd_count,
    "flops": _cmd_flops,
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (NumericalAbort, NonFiniteError, AssertionError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, ckpt_mod.CheckpointError, ValueError, KeyError,
            FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
