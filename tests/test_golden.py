"""Sweep CSVs, their --emit-plot-data series (<command>.plot.csv) and the
single-trial JSON must keep matching the files in tests/golden/, which were
recorded from tests/golden/config.yaml; so must the three sweeps and single
on the large array of tests/configs/large.yaml (n = 128,
tests/golden/large/), the per-antenna estimates of per_antenna.json and the
stdout of every demo (demos/*.txt).

Tolerances: the sweep coordinates, the plot figure, series and x, and the
trial and failure counts are exact, crlb and bcrlb agree to a relative 1e-8,
and every quantity that passes through the offset search (mse, mean_iters,
the single-trial and per-antenna floats) to a relative 1e-6.  Iteration counts and flags are
exact.  Run this file as a script to re-record per_antenna.json and the
demo outputs.
"""

import contextlib
import csv
import io
import json
import re
import runpy
from pathlib import Path

import numpy as np
import pytest

from cfomimo import (CfoPrior, build_stats, build_workspace, estimate_cfo_per_antenna,
                     generate_periodic_pilot, generate_td_pilot, make_model,
                     sample_ar1_trajectory, synthesize_rx)
from cfomimo.simcli import main

from conftest import spatial_model

GOLDEN = Path(__file__).parent / "golden"
DEMOS = Path(__file__).parent.parent / "demos"
CONFIG = str(GOLDEN / "config.yaml")
LARGE = str(Path(__file__).parent / "configs" / "large.yaml")
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


def _check_sweep(command, got_path, want_path):
    got = _read_csv(got_path)
    want = _read_csv(want_path)
    assert [list(row) for row in got] == [list(row) for row in want]
    for g, w in zip(got, want):
        assert [g[key] for key in EXACT] == [w[key] for key in EXACT]
        for key, rtol in (("crlb", BOUND_RTOL), ("bcrlb", BOUND_RTOL),
                          ("mse", SEARCH_RTOL), ("mean_iters", SEARCH_RTOL)):
            np.testing.assert_allclose(_number(g[key]), _number(w[key]), rtol=rtol,
                                       atol=0.0, err_msg=f"{command} {key}")


@pytest.mark.parametrize("command", sorted(SWEEPS))
def test_sweep_matches_golden(command, tmp_path):
    out = tmp_path / "out.csv"
    assert main([command, "--config", CONFIG, *SWEEPS[command], "--out", str(out)]) == 0
    _check_sweep(command, out, GOLDEN / f"{command}.csv")


@pytest.mark.parametrize("command", sorted(SWEEPS))
def test_plot_data_matches_golden(command, tmp_path):
    plot = tmp_path / "plot.csv"
    assert main([command, "--config", CONFIG, *SWEEPS[command], "--out",
                 str(tmp_path / "out.csv"), "--emit-plot-data", str(plot)]) == 0
    got = _read_csv(plot)
    want = _read_csv(GOLDEN / f"{command}.plot.csv")
    assert [list(row) for row in got] == [list(row) for row in want]
    for g, w in zip(got, want):
        assert [g[key] for key in ("figure", "series", "x")] == [
            w[key] for key in ("figure", "series", "x")]
        rtol = SEARCH_RTOL if w["series"].startswith("mse") else BOUND_RTOL
        np.testing.assert_allclose(float(g["y"]), float(w["y"]), rtol=rtol, atol=0.0,
                                   err_msg=f"{command} {w['series']} at x = {w['x']}")


def _flat(value):
    if isinstance(value, dict):
        return np.asarray(value["re"]) + 1j * np.asarray(value["im"])
    return np.asarray(value, dtype=float)


def _check_single(got_path, want_path):
    got = json.loads(got_path.read_text())
    want = json.loads(want_path.read_text())
    assert sorted(got) == sorted(want)
    for key in ("status", "iterations", "converged"):
        assert got[key] == want[key], key
    for key in sorted(set(want) - {"status", "iterations", "converged"}):
        rtol = BOUND_RTOL if key in ("crlb", "bcrlb") else SEARCH_RTOL
        np.testing.assert_allclose(_flat(got[key]), _flat(want[key]), rtol=rtol,
                                   atol=0.0, err_msg=key)


def test_single_matches_golden(tmp_path):
    out = tmp_path / "single.json"
    assert main(["single", "--config", CONFIG, "--out", str(out)]) == 0
    _check_single(out, GOLDEN / "single.json")


LARGE_SWEEPS = {
    "bounds-vs-rho": ["--rho-grid", "0:1:3"],
    "bounds-vs-snr": [],
    "mse-vs-snr": [],
}


def test_large_array_matches_golden(tmp_path):
    # the offset search at n = 128 (a 512-point grid, 127 lags), which no
    # other golden reaches: 20 trials of mse-vs-snr and one single trial;
    # and both bounds sweeps at l_t*l_r*n = 8192
    for command, flags in LARGE_SWEEPS.items():
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", LARGE, *flags, "--out", str(out)]) == 0
        _check_sweep(command, out, GOLDEN / "large" / f"{command}.csv")
    out = tmp_path / "single.json"
    assert main(["single", "--config", LARGE, "--out", str(out)]) == 0
    _check_single(out, GOLDEN / "large" / "single.json")


# ---------------------------------------------------------------------------
# per-antenna estimates and demo output


def _per_antenna_cases():
    """(name, estimate) of estimate_cfo_per_antenna: the demo's case under
    the ML prior and under its per-antenna priors, then the six
    complex-Kronecker cases of test_separable_stats_match_dense_copy, from
    the same draws."""
    rng = np.random.default_rng(3)
    pilot = generate_td_pilot(l_t=2, m=6, rho=10 ** 2.5)
    model = make_model(l_t=2, l_r=2, rho_h=1.0)
    stats = build_stats(model, pilot.n)
    y = synthesize_rx(pilot, model.l_r, np.array([0.05, -0.08]),
                      sample_ar1_trajectory(model, pilot.n, rng), rng)
    ws = build_workspace(pilot, stats, CfoPrior.ml())
    yield "demo-ml", estimate_cfo_per_antenna(y, ws)
    priors = [CfoPrior(0.05, 1e-6), CfoPrior(-0.08, 1e-6)]
    yield "demo-priors", estimate_cfo_per_antenna(y, ws, priors)
    l_t, l_r = 2, 3
    for maker in (generate_periodic_pilot, generate_td_pilot):
        for rho_h in (0.0, 0.5, 1.0):
            pilot = maker(l_t, 4, rho=1.7)
            model = spatial_model("complex-kron", l_t, l_r, rho_h)
            stats = build_stats(model, pilot.n)
            ws = build_workspace(pilot, stats, CfoPrior.ml())
            rng = np.random.default_rng(11)
            rng.standard_normal(2 * pilot.n * l_r)
            rng.uniform(-0.3, 0.3, l_r)
            rng.standard_normal(2 * pilot.n * l_r)
            x = synthesize_rx(pilot, l_r, 0.04,
                              sample_ar1_trajectory(model, pilot.n, rng), rng)
            yield (f"complex-kron-{maker.__name__}-{rho_h}",
                   estimate_cfo_per_antenna(x, ws, CfoPrior(0.0, 1e-3)))


def _per_antenna_record(est) -> dict:
    return {"f_hat": est.f_hat.tolist(), "metric": est.metric,
            "iterations": est.iterations, "converged": est.converged,
            "degraded": est.degraded}


def test_per_antenna_matches_golden():
    want = json.loads((GOLDEN / "per_antenna.json").read_text())
    got = {name: _per_antenna_record(est) for name, est in _per_antenna_cases()}
    assert sorted(got) == sorted(want)
    for name in want:
        for key in ("iterations", "converged", "degraded"):
            assert got[name][key] == want[name][key], (name, key)
        for key in ("f_hat", "metric"):
            np.testing.assert_allclose(got[name][key], want[name][key], rtol=SEARCH_RTOL,
                                       atol=0.0, err_msg=f"{name} {key}")


# a printed number: an optional sign, digits with optional thousands
# separators and a fraction, and an optional exponent
NUMBER = re.compile(r"[-+]?(?:(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?")


def _last_place(token: str) -> float:
    """One unit in the last printed digit of a number token."""
    mantissa, _, exponent = token.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def _run_demo(path: Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue()


@pytest.mark.parametrize("demo", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_demo_matches_golden(demo):
    # the text around the numbers must match exactly; a number within
    # SEARCH_RTOL of the golden one, plus one unit in its last printed digit
    # for a rounding flip, so BLAS rounding elsewhere does not fail the test
    got = _run_demo(DEMOS / f"{demo}.py")
    want = (GOLDEN / "demos" / f"{demo}.txt").read_text()
    assert NUMBER.split(got) == NUMBER.split(want)
    for g, w in zip(NUMBER.findall(got), NUMBER.findall(want)):
        g_val, w_val = (float(token.replace(",", "")) for token in (g, w))
        assert abs(g_val - w_val) <= SEARCH_RTOL * abs(w_val) + _last_place(w), (demo, g, w)


def record_goldens():
    """Re-record per_antenna.json and demos/*.txt from the current code;
    the sweep goldens are recorded through the CLI (see CHANGES.md)."""
    records = {name: _per_antenna_record(est) for name, est in _per_antenna_cases()}
    (GOLDEN / "per_antenna.json").write_text(json.dumps(records, indent=1) + "\n")
    (GOLDEN / "demos").mkdir(exist_ok=True)
    for path in sorted(DEMOS.glob("*.py")):
        (GOLDEN / "demos" / f"{path.stem}.txt").write_text(_run_demo(path))


if __name__ == "__main__":
    record_goldens()
