"""Sweep CSVs and the single-trial JSON must keep matching the files in
tests/golden/, which were recorded from tests/golden/config.yaml.

Tolerances: the sweep coordinates and the trial and failure counts are
exact, crlb and bcrlb agree to a relative 1e-8, and every quantity that
passes through the offset search (mse, mean_iters and the single-trial
floats) to a relative 1e-6.
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from cfomimo.simcli import main

GOLDEN = Path(__file__).parent / "golden"
CONFIG = str(GOLDEN / "config.yaml")
EXACT = ("sweep_var", "value", "trials", "failures")
BOUND_RTOL = 1e-8
SEARCH_RTOL = 1e-6
SWEEPS = {
    "bounds-vs-rho": ["--rho-grid", "0:1:5"],
    "bounds-vs-snr": ["--snr-db", "0,10,20,30"],
    "mse-vs-snr": [],
}


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _number(cell):
    return np.nan if cell == "" else float(cell)


@pytest.mark.parametrize("command", sorted(SWEEPS))
def test_sweep_matches_golden(command, tmp_path):
    out = tmp_path / "out.csv"
    assert main([command, "--config", CONFIG, *SWEEPS[command], "--out", str(out)]) == 0
    got = _read_csv(out)
    want = _read_csv(GOLDEN / f"{command}.csv")
    assert [list(row) for row in got] == [list(row) for row in want]
    for g, w in zip(got, want):
        assert [g[key] for key in EXACT] == [w[key] for key in EXACT]
        for key, rtol in (("crlb", BOUND_RTOL), ("bcrlb", BOUND_RTOL),
                          ("mse", SEARCH_RTOL), ("mean_iters", SEARCH_RTOL)):
            np.testing.assert_allclose(_number(g[key]), _number(w[key]), rtol=rtol,
                                       atol=0.0, err_msg=f"{command} {key}")


def _flat(value):
    if isinstance(value, dict):
        return np.asarray(value["re"]) + 1j * np.asarray(value["im"])
    return np.asarray(value, dtype=float)


def test_single_matches_golden(tmp_path):
    out = tmp_path / "single.json"
    assert main(["single", "--config", CONFIG, "--out", str(out)]) == 0
    got = json.loads(out.read_text())
    want = json.loads((GOLDEN / "single.json").read_text())
    assert sorted(got) == sorted(want)
    for key in ("status", "iterations", "converged"):
        assert got[key] == want[key], key
    for key in sorted(set(want) - {"status", "iterations", "converged"}):
        rtol = BOUND_RTOL if key in ("crlb", "bcrlb") else SEARCH_RTOL
        np.testing.assert_allclose(_flat(got[key]), _flat(want[key]), rtol=rtol,
                                   atol=0.0, err_msg=key)
