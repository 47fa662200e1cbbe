#!/usr/bin/env python3
"""Run a workload once per seed and report each metric's run-to-run spread.

    python3 perfbench/steady.py --workload adapt-fcd --seeds 1-10 --out set1.json
    python3 perfbench/steady.py --workload adapt-fcd --seeds 1-10 --out set2.json \\
        --against set1.json

Runs `perfbench/run.py` in a fresh process per seed, one after another,
for BENCHMARK.json's run_seconds, and prints for every end-to-end metric
(per-layer with `--trace 1`) its median, quartiles and spread: the
distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median. With
`--against` an earlier output of this script, it also prints each
metric's drift: how much worse this set's median is than that set's, as a
share of that median. A spread over a third of the metric's bound, or a
drift over the bound, is marked. `--out` keeps the summary together with
every run's seed, wall time, metrics and samples. Exits 1 if any run
fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    """`lo-hi`, both included."""
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def spread(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0, "values": values}


def drift(median: float, before: float, better: str) -> float:
    """How much worse `median` is than `before`, as a share of `before`."""
    if not before:
        return 0.0
    worse = median - before if better == "lower" else before - median
    return worse / abs(before)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--against", help="an earlier --out of this script, for drift")
    parser.add_argument("--out", help="write the summary and every run as JSON here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    before = {}
    if args.against:
        with open(args.against, encoding="utf-8") as f:
            before = json.load(f)["metrics"]

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", str(args.trace)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        wall_s = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        runs.append({"seed": seed, "wall_s": wall_s, "environment": info["environment"],
                     "samples": info["samples"], "metrics": metrics})
        print(f"seed {seed}: {wall_s:.1f} s wall, "
              + " ".join(f"{k}={v:.4g}" for k, v in metrics.items()), file=sys.stderr)

    summary = {"workload": args.workload, "run_seconds": bench["run_seconds"],
               "trace": args.trace, "against": args.against,
               "wall_s": spread([r["wall_s"] for r in runs]), "metrics": {}}
    for name in runs[0]["metrics"]:
        s = spread([r["metrics"][name] for r in runs])
        s["bound"] = declared.get(name, {}).get("bound")
        if name in before:
            s["drift"] = drift(s["median"], before[name]["median"], declared[name]["better"])
        summary["metrics"][name] = s
    summary["runs"] = runs

    print(f"{'metric':<34}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'drift':>9}  bound")
    for name, s in summary["metrics"].items():
        bound, d = s["bound"], s.get("drift")
        flags = []
        if bound is not None and s["spread"] > bound / 3:
            flags.append("spread over a third of bound")
        if bound is not None and d is not None and d > bound:
            flags.append("drift over bound")
        print(f"{name:<34}{s['median']:>14.6g}{s['q1']:>14.6g}{s['q3']:>14.6g}"
              f"{s['spread']:>9.4f}{'' if d is None else f'{d:.4f}':>9}  "
              f"{'-' if bound is None else bound}  {'; '.join(flags)}")
    print(f"wall per run: median {summary['wall_s']['median']:.1f} s, "
          f"max {max(r['wall_s'] for r in runs):.1f} s")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
