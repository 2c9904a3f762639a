"""Harness tests at toy sizes.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import json
import os
from dataclasses import replace

import pytest

import harness
import run

BENCHMARK_JSON = os.path.join(os.path.dirname(harness.BENCH_DIR), "BENCHMARK.json")


def toy(workload):
    """The same workload, shrunk to (l_t, m, l_r) = (2, 3, 2) and 20 trials."""
    config = replace(workload.config, l_t=2, m=3, l_r=2,
                     trials=min(workload.config.trials, 20))
    return replace(workload, config=config)


@pytest.fixture(scope="module")
def toys():
    return {name: toy(w) for name, w in harness.WORKLOADS.items()}


@pytest.fixture(scope="module")
def references(toys):
    seed = harness.sweep_seed(harness.DEFAULT_SEED, 0)
    return {name: harness.run_sweep(w, seed).csv for name, w in toys.items()}


def run_main(capsys, tmp_path, toys, references, name, trace):
    code = run.main(["--workload", name, "--seconds", "0.01", "--trace", str(trace)],
                    workloads=toys, reference=references[name], out_dir=str(tmp_path))
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_each_workload_runs_and_passes_its_gate(toys, references, name):
    for trace in (False, True):
        out = harness.measure(toys[name], harness.DEFAULT_SEED, 0.01, trace,
                              reference=references[name])
        assert out["details"]["problems"] == []
        assert out["result"]["correct"] and out["result"]["failed"] == 0
        assert out["details"]["sweeps"] >= harness.MIN_SWEEPS - (1 if trace else 0)


def test_bounds_workload_never_reaches_the_trial_path(toys, references):
    out = harness.measure(toys["bounds-rho"], harness.DEFAULT_SEED, 0.01, True,
                          reference=references["bounds-rho"])
    functions = out["details"]["functions"]
    for name in ("channel.sample_ar1_trajectory", "estimator.compute_z",
                 "estimator.map_metric"):
        assert functions[name]["calls"] == 0
    assert functions["channel.build_stats"]["calls"] == 6


def test_tracer_restores_the_package(toys):
    import cfomimo
    from cfomimo import estimator, simcli
    before = (simcli.run_mse_vs_snr, estimator.compute_z, cfomimo.build_stats)
    tracer = harness.Tracer()
    with tracer:
        assert estimator.compute_z is not before[1]
        harness.run_sweep(toys["mc-small"], 5)
    assert (simcli.run_mse_vs_snr, estimator.compute_z, cfomimo.build_stats) == before
    parents = {span[3] for span in tracer.spans}
    assert -1 in parents and len(tracer.spans) > 20


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_output_parses_and_names_match_benchmark_json(capsys, tmp_path, toys,
                                                      references, trace, kind):
    with open(BENCHMARK_JSON) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    for name in sorted(toys):
        code, result = run_main(capsys, tmp_path, toys, references, name, trace)
        assert code == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], (int, float))


def test_benchmark_json_workloads_exist():
    with open(BENCHMARK_JSON) as fh:
        declared = {w["name"] for w in json.load(fh)["workloads"]}
    assert declared <= set(harness.WORKLOADS)


def _perturb(reference, column, scale):
    """Scale one cell of the last row, whose value and bounds are nonzero."""
    lines = reference.splitlines()
    cells = lines[-1].split(",")
    index = lines[0].split(",").index(column)
    cells[index] = repr(float(cells[index]) * scale)
    return "\n".join(lines[:-1] + [",".join(cells)]) + "\n"


@pytest.mark.parametrize("column", ["crlb", "bcrlb", "value"])
def test_perturbed_reference_fails_the_gate(capsys, tmp_path, toys, references, column):
    for name in sorted(toys):
        bad = dict(references, **{name: _perturb(references[name], column, 1.0 + 1e-6)})
        code, result = run_main(capsys, tmp_path, toys, bad, name, 0)
        assert code != 0 and result["correct"] is False


def test_gate_tolerances(references):
    ref = references["mc-small"]
    check = harness.check_against_reference
    assert check(ref, ref, check_mse=True) == []
    assert check(_perturb(ref, "mse", 1.0 + 1e-9), ref, check_mse=True) == []
    assert check(_perturb(ref, "mse", 1.0 + 1e-4), ref, check_mse=True)
    assert check(_perturb(ref, "mse", 1.0 + 1e-4), ref, check_mse=False) == []
    failures = ref.replace(",20,0,", ",20,1,")
    assert check(failures, ref, check_mse=False)


def test_gate_catches_repeats_that_differ(toys, references):
    workload = toys["mc-small"]
    same = harness.run_sweep(workload, harness.sweep_seed(harness.DEFAULT_SEED, 0))
    other = harness.run_sweep(workload, harness.sweep_seed(harness.DEFAULT_SEED, 1))
    reference = references["mc-small"]
    check = harness.check_run
    assert check(workload, harness.DEFAULT_SEED, [same, same], reference, repeated=True) == []
    assert check(workload, harness.DEFAULT_SEED, [same, other], reference, repeated=True)
    assert check(workload, harness.DEFAULT_SEED, [same, other], reference, repeated=False) == []


def test_held_out_seed_keeps_seed_independent_columns(toys, references):
    out = harness.measure(toys["bounds-rho"], harness.HELD_OUT_SEED, 0.01, False,
                          reference=references["bounds-rho"])
    assert out["result"]["correct"]
    held = harness.run_sweep(toys["mc-small"], harness.sweep_seed(harness.HELD_OUT_SEED, 0))
    assert harness.check_against_reference(held.csv, references["mc-small"],
                                           check_mse=False) == []
    assert held.csv != references["mc-small"]
