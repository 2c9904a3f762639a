"""Print one sha256 per program output that a refactor must keep byte for
byte: the output ledger.

Each command runs in its own process, with one BLAS thread:

- on tests/golden/config.yaml: bounds-vs-rho --rho-grid 0:1:5,
  bounds-vs-snr --snr-db 0,10,20,30 and mse-vs-snr, each CSV and its
  --emit-plot-data series, and single plain, with --zero-rx and with
  --no-noise --f-true 0.03;
- on tests/configs/large.yaml: bounds-vs-rho --rho-grid 0:1:3,
  bounds-vs-snr, mse-vs-snr --trials 20 and single;
- on a TD pilot with iid antennas and a zero mean (TD_IID_ZERO):
  mse-vs-snr, single, single --zero-rx and bounds-vs-rho;
- validate, and the stdout of every demo;
- the CSV of bench/harness.py's run_sweep for every benchmark workload at
  seeds 1 and 2, all from one process.

    python scripts/output_hashes.py [--base REV]

With --base REV (any git revision), the same list also runs on a git
archive of REV, and the script lists the outputs whose bytes or exit status
differ and exits 1 if any do.  Both trees read the config files of the
working tree, so only the code differs; each runs its own demos and bench.
"""

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "config.yaml"
LARGE = ROOT / "tests" / "configs" / "large.yaml"
TD_IID_ZERO = """\
pilot: {structure: td, l_t: 4, m: 5}
l_r: 4
channel:
  rho_h: 0.99
  spatial: {kind: iid, sigma_h_sq: 1.0}
  mean: {kind: zero}
prior: {mu_f: 0.1, sigma_f_sq: 1.0e-5}
snr_db: [10, 20, 30]
trials: 200
seed: 1
"""
SEEDS = (1, 2)
# the CSV text of every workload at every seed, as one JSON object
HARNESS = f"""
import json, sys
import harness
json.dump({{f"{{name}} seed {{seed}}": harness.run_sweep(workload, seed).csv
           for name, workload in sorted(harness.WORKLOADS.items()) for seed in {SEEDS}}},
          sys.stdout)
"""
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}


def cli_runs(td_iid_zero: Path) -> list:
    """(name, CLI arguments, plot data?) of every CLI output."""
    runs = []
    for config, label, sweeps, singles in (
            (GOLDEN, "golden",
             [("bounds-vs-rho", "--rho-grid", "0:1:5"),
              ("bounds-vs-snr", "--snr-db", "0,10,20,30"), ("mse-vs-snr",)],
             [(), ("--zero-rx",), ("--no-noise", "--f-true", "0.03")]),
            (LARGE, "large",
             [("bounds-vs-rho", "--rho-grid", "0:1:3"), ("bounds-vs-snr",),
              ("mse-vs-snr", "--trials", "20")], [()]),
            (td_iid_zero, "td-iid-zero", [("mse-vs-snr",), ("bounds-vs-rho",)],
             [(), ("--zero-rx",)])):
        for args in sweeps:
            runs.append((f"{label}: {' '.join(args)}", [*args, "--config", str(config)],
                         label == "golden"))
        for args in singles:
            runs.append((f"{label}: {' '.join(('single',) + args)}",
                         ["single", *args, "--config", str(config)], False))
    return runs


def run(tree: Path, argv: list, path: str = "src") -> tuple:
    """(exit status, stdout bytes) of python argv, in tree with one BLAS
    thread and tree's path (os.pathsep-separated, relative) to import from."""
    env = {**os.environ, **ONE_THREAD,
           "PYTHONPATH": os.pathsep.join(str(tree / p) for p in path.split(os.pathsep))}
    done = subprocess.run([sys.executable, *argv], cwd=tree, env=env, capture_output=True)
    if done.returncode:
        sys.stderr.write(f"{tree}: {' '.join(argv)} exited {done.returncode}\n"
                         f"{done.stderr.decode(errors='replace')}")
    return done.returncode, done.stdout


def ledger(tree: Path, workdir: Path) -> dict:
    """{output name: (exit status, sha256)} of every output of the code in tree."""
    td_iid_zero = workdir / "td-iid-zero.yaml"
    td_iid_zero.write_text(TD_IID_ZERO)
    out = {}

    def add(name, status, data):
        out[name] = (status, hashlib.sha256(data).hexdigest())

    for name, args, plot in cli_runs(td_iid_zero):
        plot_path = workdir / "plot.csv"
        plot_path.unlink(missing_ok=True)
        extra = ["--emit-plot-data", str(plot_path)] if plot else []
        status, stdout = run(tree, ["-m", "cfomimo.simcli", *args, *extra])
        add(name, status, stdout)
        if plot:
            add(f"{name} (plot data)", status,
                plot_path.read_bytes() if plot_path.exists() else b"")
    add("validate", *run(tree, ["-m", "cfomimo.simcli", "validate"]))
    for demo in sorted((tree / "demos").glob("*.py")):
        add(f"demo {demo.stem}", *run(tree, [str(demo)]))
    status, stdout = run(tree, ["-c", HARNESS], f"src{os.pathsep}bench")
    sweeps = json.loads(stdout) if status == 0 else {}
    for name, workload in sweeps.items():
        add(f"harness {name}", status, workload.encode())
    if not sweeps:
        add("harness", status, b"")
    return out


def archive(rev: str, dest: Path):
    """The files of git revision rev, extracted under dest."""
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                          capture_output=True).stdout
    # extraction filters came with Python 3.10.12 and 3.11.4
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, **safe)


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--base", metavar="REV",
                        help="also run the list on this git revision and list what differs")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "now").mkdir()
        now = ledger(ROOT, tmp / "now")
        for name, (status, digest) in now.items():
            print(f"{digest}  {name}" + (f"  (exit {status})" if status else ""))
        if args.base is None:
            return 0
        try:
            archive(args.base, tmp / "tree")
        except subprocess.CalledProcessError as exc:
            print(f"error: {' '.join(exc.cmd)}: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        (tmp / "base").mkdir()
        base = ledger(tmp / "tree", tmp / "base")
    differing = [name for name in sorted(set(now) | set(base)) if now.get(name) != base.get(name)]
    if not differing:
        print(f"no output differs from {args.base} ({len(now)} outputs)")
        return 0
    print(f"{len(differing)} of {len(now)} outputs differ from {args.base}:")
    for name in differing:
        print(f"  {name}")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
