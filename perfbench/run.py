#!/usr/bin/env python3
"""Run one workload of the rtda benchmark and print its metrics.

    python3 perfbench/run.py --workload adapt-thin --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: the benchmark imports rtda from the
checkout's `src/` and nothing else. With `--trace 0` it prints the
end-to-end metrics; with `--trace 1` it records spans and prints the
per-layer metrics instead, and writes the spans to `perfbench/out/`.
Either way the environment and sample counts are printed first and
written with the metrics to `perfbench/out/`. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is 0 when every operation and output check
succeeded, 1 when one failed and 2 when the benchmark cannot run.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="least time the run measures, training and eval together")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rtda", "__init__.py")):
        print(f"no rtda sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads: training state does not
    # depend on the thread count, and the runs are timed on a shared box.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import harness

    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; expected one of {sorted(harness.WORKLOADS)}",
              file=sys.stderr)
        return 2

    env = harness.environment(args.seed)
    result = harness.run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                  os.path.join(OUT, "work"))
    trace_spans = result.series.pop("spans", None)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {"workload": workload.name, "why": workload.why, "environment": env,
              "samples": result.samples, "errors": result.errors, **result.line(),
              "series": result.series}
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    if trace_spans is not None:
        import spans
        with open(os.path.join(OUT, f"{tag}.spans.json"), "w", encoding="utf-8") as f:
            json.dump(spans.span_records(trace_spans), f)

    print(json.dumps({"environment": env, "why": workload.why, "samples": result.samples}))
    print(json.dumps(result.line()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
