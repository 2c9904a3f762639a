"""Record the reference CSV of every workload for the default seed.

    python3 bench/record_reference.py [workload ...]

The references in bench/reference/ were recorded at the commit that added
the benchmark; re-record them only when a change is meant to move the
numbers, and say so with the change.
"""

import os
import sys

import run

if __name__ == "__main__":
    run.prepare_process()
    import harness

    for name in sys.argv[1:] or sorted(harness.WORKLOADS):
        workload = harness.WORKLOADS[name]
        sweep = harness.run_sweep(workload, harness.sweep_seed(harness.DEFAULT_SEED, 0))
        os.makedirs(harness.REFERENCE_DIR, exist_ok=True)
        with open(workload.reference_path, "w", newline="") as fh:
            fh.write(sweep.csv)
        print(f"{name}: {workload.reference_path}")
