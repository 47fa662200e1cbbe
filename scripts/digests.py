"""Byte-identity digests of short fixed training runs.

Trains every discriminator variant at adversarial weights 0 and 0.01
(32x32 scenes, 6 iterations, a checkpoint every 2) into a temporary
directory, then prints the SHA-256 of every checkpoint, of the loss log
and of the target-split confusion matrix of the final checkpoint. Two
trees that should produce the same bytes print the same lines, so
comparing them is a diff of this script's output:

    PYTHONPATH=src python3 scripts/digests.py > after.txt
"""

import argparse
import dataclasses
import hashlib
import os
import sys
import tempfile

from rtda.benchmark import BenchmarkSettings, make_datasets
from rtda.models import DISCRIMINATOR_VARIANTS
from rtda.trainer import evaluate, load_seg_for_eval, run_training

LAMBDAS = (0.0, 0.01)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(variant: str, lambda_adv: float, seed: int, work_dir: str):
    """(name, digest) pairs of one short run's files and eval result."""
    settings = BenchmarkSettings(image_size=32, max_iter=6, variant=variant,
                                 n_source=4, n_target=4, n_eval=4)
    source, target, target_eval = make_datasets(seed, settings)
    cfg = dataclasses.replace(settings.to_config(seed, lambda_adv), checkpoint_interval=2)
    final, _ = run_training(cfg, source, target, out_dir=work_dir)
    out = []
    for name in sorted(os.listdir(work_dir)):
        with open(os.path.join(work_dir, name), "rb") as f:
            out.append((name, sha256(f.read())))
    model, num_classes, _ = load_seg_for_eval(final)
    _, _, cm = evaluate(model, target_eval, num_classes)
    out.append(("eval_confusion", sha256(cm.counts.tobytes())))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0, help="data and program seed")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as root:
        for variant in DISCRIMINATOR_VARIANTS:
            for lam in LAMBDAS:
                work_dir = os.path.join(root, f"{variant}-{lam}")
                for name, digest in run_digests(variant, lam, args.seed, work_dir):
                    print(f"{variant} lambda={lam} {name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
