"""Run one benchmark workload and print its result as the last output line.

    python3 bench/run.py --workload mc-large --seed 1 --seconds 45 --trace 0

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 makes
a separate traced run for the per-layer metrics.  The last line of stdout is
a JSON object with the keys correct, attempted, failed and metrics.  A
result file with the environment, the gate's findings and (traced) every
function's statistics goes to bench/out/, and the traced run also writes
its spans there.  The exit code is 0 only when the correctness gate passes.

The package is imported from src/ of the same checkout, never from an
installed copy.  OpenBLAS and OpenMP are pinned to one thread and
CFOMIMO_WORKERS is cleared before numpy is imported.
"""

import argparse
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
BLAS_THREADS = "1"


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be nonnegative")
    return value


def _seconds(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("seconds must be positive")
    return value


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=_seed, default=1)
    parser.add_argument("--seconds", type=_seconds, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, workloads=None, reference=None, out_dir=OUT_DIR) -> int:
    import harness

    workloads = harness.WORKLOADS if workloads is None else workloads
    args = parse_args(argv, workloads)
    run = harness.measure(workloads[args.workload], args.seed, args.seconds,
                          bool(args.trace), reference=reference)
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({**run["details"], "result": run["result"]}, fh, indent=1)
    if args.trace:
        run["tracer"].write_csv(stem + "-spans.csv")
    for problem in run["details"]["problems"]:
        print(f"gate: {problem}", file=sys.stderr)
    print(json.dumps(run["result"]))
    return 0 if run["result"]["correct"] else 1


def prepare_process():
    """Pin the environment and make src/ the only source of the package."""
    if not os.path.isfile(os.path.join(SRC_DIR, "cfomimo", "__init__.py")):
        print(f"error: no cfomimo package under {SRC_DIR}", file=sys.stderr)
        sys.exit(2)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ.pop("CFOMIMO_WORKERS", None)
    sys.path.insert(0, SRC_DIR)


if __name__ == "__main__":
    prepare_process()
    sys.exit(main())
