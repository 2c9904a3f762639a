"""Run every workload, print every metric by name and unit, and save them.

    python3 bench/report.py [--seed 1] [--seconds 45] [--label local] [--workload W ...]

Each workload runs twice in its own process through bench/run.py: once
untraced for the end-to-end metrics and once traced for the per-layer
metrics.  All metrics go to bench/out/BENCH_<label>.json together with the
environment of the runs, and a per-module self-time table of the traced
runs is printed at the end.  Exits nonzero if any run fails its gate.
"""

import argparse
import json
import os
import subprocess
import sys

import run

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    result["exit_code"] = proc.returncode
    return result


def main(argv=None) -> int:
    run.prepare_process()
    from harness import MODULES, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--label", default="local")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)

    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workload or WORKLOADS:
        entry = {}
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = run_workload(workload, args.seed, args.seconds, trace)
            ok = ok and result["exit_code"] == 0 and result["correct"]
            entry[kind] = result
            print(f"== {workload} {kind}: correct={result['correct']} "
                  f"attempted={result.get('attempted')} failed={result.get('failed')}")
            for name, metric in result["metrics"].items():
                print(f"{workload:10s} {name:48s} {metric['value']:>16.6g} {metric['unit']}")
        result_file = os.path.join(run.OUT_DIR, f"{workload}-seed{args.seed}-trace0.json")
        if os.path.exists(result_file):
            with open(result_file) as fh:
                entry["environment"] = json.load(fh)["environment"]
        report["workloads"][workload] = entry

    path = os.path.join(run.OUT_DIR, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)

    names = list(report["workloads"])
    print("\nself time per module, traced run (s, share of traced wall time)")
    print(f"{'module':10s}" + "".join(f"{n:>24s}" for n in names))
    for module in MODULES:
        cells = []
        for name in names:
            metrics = report["workloads"][name]["per_layer"]["metrics"]
            self_s = metrics.get(f"{module}.self_s", {}).get("value", 0.0)
            total = sum(metrics.get(f"{m}.self_s", {}).get("value", 0.0) for m in MODULES)
            share = self_s / total if total else 0.0
            cells.append(f"{self_s:14.3f} ({share:6.1%})")
        print(f"{module:10s}" + "".join(f"{c:>24s}" for c in cells))
    print(f"\nwrote {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
