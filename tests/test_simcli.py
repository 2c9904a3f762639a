import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
import yaml

from cfomimo import (CfoPrior, ParameterError, build_stats, build_workspace,
                     sample_ar1_trajectory, synthesize_rx)
from cfomimo.channel import _receive_map, _unit_complex
from cfomimo.simcli import (CSV_HEADER, PILOT_STRUCTURES, ExperimentConfig,
                            _draw_block, _sample_block, _trial_rng, _trial_streams,
                            load_config, main, run_bounds_vs_rho, run_bounds_vs_snr,
                            run_mse_vs_snr, run_single)

from conftest import spatial_model
from reference_impls import reference_trial_rng

FAST = dict(l_t=2, m=3, l_r=2, snr_db=(15.0,), trials=6, seed=11,
            rho_h=0.95, mu_f=0.05, sigma_f_sq=1e-4)


def test_config_defaults_and_nested_mapping():
    config = ExperimentConfig.from_mapping({
        "pilot": {"structure": "periodic", "l_t": 2, "m": 4},
        "l_r": 3,
        "channel": {
            "rho_h": 0.7,
            "spatial": {"kind": "exponential", "a": 0.3, "b": 0.6,
                        "sigma_h_sq": 2.0},
            "mean": {"kind": "rician", "k_factor": 0.5},
        },
        "prior": {"mu_f": 0.02, "sigma_f_sq": 1e-6},
        "snr_db": [5, 10],
        "trials": 7,
        "seed": 42,
        "f_true": "fixed",
    })
    assert config.pilot_structure == "periodic"
    assert config.n == 8
    assert config.l_r == 3
    assert config.spatial_kind == "exponential" and config.spatial_a == 0.3
    assert config.mean_kind == "rician" and config.rician_k == 0.5
    assert config.snr_db == (5.0, 10.0)
    assert config.f_true_mode == "fixed"
    assert not config.prior_ml
    assert config.prior().sigma_f_sq == 1e-6


def test_config_rejects_unknown_keys():
    for data in ({"bogus": 1},
                 {"pilot": {"structre": "periodic"}},
                 {"channel": {"rho": 0.5}},
                 {"channel": {"spatial": {"kind": "iid", "sigma": 2.0}}},
                 {"channel": {"mean": {"kind": "rician", "k": 2.0}}},
                 {"prior": {"sigma_f": 1}},
                 {"prior": [0.1, 1e-5]}):
        with pytest.raises(ParameterError):
            ExperimentConfig.from_mapping(data)


def test_config_validation():
    with pytest.raises(ParameterError):
        ExperimentConfig(trials=0)
    with pytest.raises(ParameterError):
        ExperimentConfig(snr_db=())
    with pytest.raises(ParameterError):
        ExperimentConfig(pilot_structure="zadoff")
    with pytest.raises(ParameterError):
        ExperimentConfig(f_true_mode="oracle")
    # integer fields: spelled-out integers are coerced, anything else rejected
    config = ExperimentConfig.from_mapping({"trials": "10", "pilot": {"m": "3"}})
    assert config.trials == 10 and config.m == 3
    for bad in ("ten", 2.5, True, None):
        with pytest.raises(ParameterError):
            ExperimentConfig.from_mapping({"trials": bad})
    with pytest.raises(ParameterError):
        ExperimentConfig.from_mapping({"channel": {"rho_h": "high"}})
    with pytest.raises(ParameterError):
        ExperimentConfig.from_mapping({"snr_db": [10, "loud"]})
    # a quoted "false" is not a boolean
    with pytest.raises(ParameterError):
        ExperimentConfig.from_mapping({"prior": {"ml": "false"}})
    with pytest.raises(ParameterError):
        ExperimentConfig.from_mapping({"noise": "false"})
    # non-finite floats are named as such; sigma_f_sq = inf means ML mode
    for data in ({"channel": {"spatial": {"kind": "exponential", "a": math.inf}}},
                 {"channel": {"spatial": {"sigma_h_sq": math.inf}}},
                 {"channel": {"mean": {"kind": "rician", "k_factor": math.inf}}},
                 {"channel": {"rho_h": math.nan}},
                 {"channel": {"rho_h_grid": [0.5, math.inf]}},
                 {"prior": {"mu_f": math.inf}},
                 {"prior": {"mu_f": math.nan}},
                 {"prior": {"sigma_f_sq": math.nan}},
                 {"prior": {"sigma_f_sq": -math.inf}}):
        with pytest.raises(ParameterError, match="must be finite"):
            ExperimentConfig.from_mapping(data)
    assert ExperimentConfig.from_mapping({"prior": {"sigma_f_sq": math.inf}}).prior().is_ml
    # rho_h is a correlation coefficient: outside [0, 1] it fails at once
    for data in ({"channel": {"rho_h": 1.5}}, {"channel": {"rho_h": -0.1}},
                 {"channel": {"rho_h_grid": [0.5, 2.0]}},
                 {"channel": {"rho_h_grid": -0.5}}):
        with pytest.raises(ParameterError, match=r"rho_h must lie in \[0, 1\]"):
            ExperimentConfig.from_mapping(data)
    assert ExperimentConfig.from_mapping({"channel": {"rho_h_grid": [0, 1]}}).rho_h_grid == (0.0, 1.0)
    # workers: 0 defers to the environment, negative counts are errors
    assert ExperimentConfig(workers=0).workers == 0
    for bad in (-1, -3):
        with pytest.raises(ParameterError):
            ExperimentConfig.from_mapping({"workers": bad})


def test_load_config_yaml_with_overrides(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump({
        "pilot": {"structure": "td", "l_t": 2, "m": 3},
        "snr_db": [10.0],
        "trials": 9,
    }))
    config = load_config(str(path), {"trials": 3, "seed": 5})
    assert config.trials == 3 and config.seed == 5
    assert config.pilot_structure == "td" and config.n == 6


def test_ml_prior_mode():
    config = ExperimentConfig.from_mapping({"prior": {"ml": True, "mu_f": 0.0}})
    assert config.prior().is_ml


def test_bounds_vs_rho_single_point_grid():
    config = ExperimentConfig(**FAST, rho_h_grid=(1.0,))
    result = run_bounds_vs_rho(config)
    assert len(result.rows) == 2  # one per pilot structure
    for row in result.rows:
        assert row.value == 1.0
        assert row.mse is None and row.trials == 0
        assert row.bcrlb <= row.crlb


def test_bounds_vs_rho_default_config_has_pilot_crossing():
    # defaults: l_t = l_r = 4, n = 20, prior N(0.1, 1e-5), zero-mean fading
    config = ExperimentConfig(snr_db=(20.0,),
                              rho_h_grid=tuple(np.linspace(0.05, 0.995, 16)))
    result = run_bounds_vs_rho(config)
    by_structure = {}
    for row in result.rows:
        by_structure.setdefault(row.sweep_var, []).append((row.value, row.crlb))
    periodic = dict(by_structure["rho_h[periodic]"])
    td = dict(by_structure["rho_h[td]"])
    signs = [np.sign(td[v] - periodic[v]) for v in sorted(td)]
    assert min(signs) < 0 < max(signs)  # ordering flips inside (0, 1)


def test_bounds_vs_rho_small_slip_hurts():
    config = replace(ExperimentConfig(**FAST), snr_db=(30.0,), l_t=4, m=5,
                     l_r=4, rho_h_grid=(1.0, 1.0 - 1e-4))
    result = run_bounds_vs_rho(config)
    for structure in ("periodic", "td"):
        rows = [r for r in result.rows if r.sweep_var == f"rho_h[{structure}]"]
        frozen = next(r for r in rows if r.value == 1.0)
        slipped = next(r for r in rows if r.value != 1.0)
        assert slipped.crlb > frozen.crlb


def test_bounds_vs_snr_rows_and_schema():
    config = replace(ExperimentConfig(**FAST), snr_db=(0.0, 10.0, 20.0))
    result = run_bounds_vs_snr(config)
    assert len(result.rows) == 6
    text = result.to_csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "snr_db[periodic]"
    assert first[2] == ""  # no MSE for bound-only sweeps


def test_mse_vs_snr_basic_row_contract():
    config = ExperimentConfig(**FAST)
    result = run_mse_vs_snr(config)
    assert len(result.rows) == 1
    row = result.rows[0]
    assert row.mse is not None and row.mse >= 0.0
    assert row.trials == 6 and row.failures == 0
    assert row.bcrlb <= row.crlb
    assert row.mean_iters is not None


def test_mse_vs_snr_deterministic_rerun_and_workers(monkeypatch):
    import cfomimo.simcli as cli

    config = ExperimentConfig(**FAST, workers=1)
    text1 = run_mse_vs_snr(config).to_csv_text()
    text2 = run_mse_vs_snr(config).to_csv_text()
    text4 = run_mse_vs_snr(replace(config, workers=4)).to_csv_text()
    shape = (config.n, config.l_r, config.l_t * config.l_r)
    assert cli._trial_block(*shape) >= config.trials  # one block
    # blocks of 4 for 6 trials: a full block and a partial one
    monkeypatch.setattr(cli, "BLOCK_BYTES", 4 * cli._trial_bytes(*shape))
    assert cli._trial_block(*shape) == 4
    blocked = run_mse_vs_snr(config).to_csv_text()
    monkeypatch.setattr(cli, "BLOCK_BYTES", 1)
    assert cli._trial_block(*shape) == 1
    one_by_one = run_mse_vs_snr(config).to_csv_text()
    assert text1 == text2 == text4 == blocked == one_by_one


@pytest.mark.parametrize("noise", [True, False])
def test_one_call_draws_match_four_calls(noise):
    # one standard_normal call per trial fills the normals that the four
    # calls of sample_ar1_trajectory and synthesize_rx draw, bit for bit
    config = ExperimentConfig(**FAST, noise=noise)
    n, l_r, d = config.n, config.l_r, config.l_t * config.l_r
    prior = config.prior()
    trials = range(3, 8)
    f_true, re, im, rx_noise = _draw_block(config, 2, trials, prior, d)
    for i, trial in enumerate(trials):
        rng = reference_trial_rng(config.seed, 2, trial)
        assert f_true[i] == prior.sample(rng)
        np.testing.assert_array_equal(re[i], rng.standard_normal((n, d)))
        np.testing.assert_array_equal(im[i], rng.standard_normal((n, d)))
        if noise:
            want = _unit_complex(rng.standard_normal((l_r, n)), rng.standard_normal((l_r, n)))
            np.testing.assert_array_equal(rx_noise[i], want)
    assert (rx_noise is None) == (not noise)
    # a sweep point's buffer, larger than the block and holding stale rows
    stale = np.full((len(trials) + 2, re[0].size * 2 + (2 * l_r * n if noise else 0)), np.nan)
    refilled = _draw_block(config, 2, trials, prior, d, stale)
    for got, want in zip(refilled, (f_true, re, im, rx_noise)):
        np.testing.assert_array_equal(got, want)


def test_block_seeded_streams_match_numpy():
    # the streams _trial_streams seeds for a whole block in one pass, and
    # _trial_rng, against numpy's own SeedSequence seeding, bit for bit;
    # the trials span 2^32, so one block mixes one- and two-word indices
    prior = CfoPrior(0.1, 1e-3)
    trials = (0, 1, 5, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 3)
    for seed in (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 7):
        for point in (0, 1, 2 ** 32 + 1):
            for trial, rng in zip(trials, _trial_streams(seed, point, trials)):
                for got in (rng, _trial_rng(seed, point, trial)):
                    want = reference_trial_rng(seed, point, trial)
                    assert prior.sample(got) == prior.sample(want), (seed, point, trial)
                    np.testing.assert_array_equal(got.standard_normal(3456),
                                                  want.standard_normal(3456))


def _sampler_cases():
    for spatial in ("iid", "exponential", "complex-kron", "non-kron"):
        for rho_h in (0.0, 0.5, 1.0):
            yield pytest.param(spatial, rho_h, id=f"{spatial}-{rho_h}")


@pytest.mark.parametrize("spatial,rho_h", _sampler_cases())
def test_receive_space_sampler_matches_channel_path(spatial, rho_h):
    # a sweep trial's y, sampled in the receive space, against the channel
    # path sample_ar1_trajectory + synthesize_rx from the same stream; and
    # byte-identical whether the trial runs in a block or alone
    l_t, l_r, trials = 2, 3, range(5)
    model = spatial_model(spatial, l_t, l_r, rho_h)
    for structure, noise, mode in itertools.product(PILOT_STRUCTURES, (True, False),
                                                    ("prior", "fixed")):
        config = ExperimentConfig(pilot_structure=structure, l_t=l_t, m=4, l_r=l_r,
                                  seed=7, noise=noise, f_true_mode=mode, mu_f=0.05,
                                  sigma_f_sq=1e-3)
        prior, pilot, n = config.prior(), config.pilot(2.0), config.n
        ws = build_workspace(pilot, l_r, build_stats(model, n), prior)
        rx_map, ybar = _receive_map(model, pilot.entries), ws.ybar.reshape(l_r, n)
        f_true, y = _sample_block(config, 1, trials, prior, model, rx_map, ybar)
        for i, trial in enumerate(trials):
            rng = _trial_rng(config.seed, 1, trial)
            f = prior.sample(rng) if mode == "prior" else prior.mu_f
            h = sample_ar1_trajectory(model, n, rng)
            want = synthesize_rx(pilot, l_r, f, h, rng if noise else None)
            assert f_true[i] == f
            np.testing.assert_allclose(y[i].ravel(), want, rtol=0,
                                       atol=1e-12 * np.max(np.abs(want)))
            alone = _sample_block(config, 1, range(trial, trial + 1), prior, model,
                                  rx_map, ybar)[1]
            np.testing.assert_array_equal(alone[0], y[i])


def test_mse_vs_snr_seed_changes_result_not_schema():
    config = ExperimentConfig(**FAST)
    other = replace(config, seed=config.seed + 1)
    t1 = run_mse_vs_snr(config).to_csv_text()
    t2 = run_mse_vs_snr(other).to_csv_text()
    assert t1 != t2
    assert t1.split("\n")[0] == t2.split("\n")[0] == CSV_HEADER


def test_failures_are_counted_and_excluded(monkeypatch):
    # the sweep runs its trials through the batch search; every third trial
    # is reported as failed there and must be counted, not averaged
    import cfomimo.simcli as cli

    seen = {"trials": 0}
    real = cli.estimate_cfo_universal_batch

    def flaky(y, ws, **kwargs):
        est = real(y, ws, **kwargs)
        index = seen["trials"] + np.arange(len(y))
        seen["trials"] += len(y)
        failed = est.failed | (index % 3 == 2)
        return replace(est, f_hat=np.where(failed, np.nan, est.f_hat), failed=failed)

    monkeypatch.setattr(cli, "estimate_cfo_universal_batch", flaky)
    config = ExperimentConfig(**FAST)
    row = run_mse_vs_snr(config).rows[0]
    assert row.failures == 2
    assert row.trials == 6
    assert row.mse is not None


def test_inf_serialization():
    config = replace(ExperimentConfig(**FAST), rho_h=0.0, mean_kind="zero",
                     pilot_structure="periodic", rho_h_grid=(0.0,))
    text = run_bounds_vs_rho(config).to_csv_text()
    row = text.strip().split("\n")[1].split(",")
    assert row[3] == "inf"


def test_run_single_noiseless_recovers_truth():
    # ML mode: with noise off nothing pulls the estimate away from the truth
    config = replace(ExperimentConfig(**FAST), noise=False, rho_h=1.0,
                     pilot_structure="td", snr_db=(20.0,), prior_ml=True)
    record = run_single(config, f_true_override=0.07)
    assert record.status == "ok"
    assert abs(record.f_hat - 0.07) < 1e-8
    assert record.z.size == config.n - 1
    assert record.grid_candidates.size > 0


def test_run_single_zero_rx_degenerate_is_reported():
    config = replace(ExperimentConfig(**FAST), prior_ml=True, mean_kind="zero")
    record = run_single(config, force_zero_rx=True)
    assert record.status == "low_confidence"
    assert math.isnan(record.f_hat)

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    payload = json.loads(record.to_json(), parse_constant=reject)
    assert payload["f_hat"] is None and payload["metric"] is None


def test_run_single_seed_repetition_identical():
    config = ExperimentConfig(**FAST)
    r1 = run_single(config)
    r2 = run_single(config)
    assert r1.f_true == r2.f_true and r1.f_hat == r2.f_hat
    assert np.array_equal(r1.z, r2.z)
    assert r1.to_json() == r2.to_json()


def test_cli_bounds_vs_rho_writes_csv(tmp_path):
    out = tmp_path / "bounds.csv"
    plot = tmp_path / "plot.csv"
    code = main(["bounds-vs-rho", "--rho-grid", "0.5:1.0:3", "--snr-db", "15",
                 "--out", str(out), "--emit-plot-data", str(plot)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 3
    plot_lines = plot.read_text().strip().split("\n")
    assert plot_lines[0] == "figure,series,x,y"
    assert any(line.startswith("bounds_vs_rho,crlb[periodic],") for line in plot_lines)


def test_cli_mse_with_config_file(tmp_path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(yaml.safe_dump({
        "pilot": {"structure": "td", "l_t": 2, "m": 3},
        "l_r": 2,
        "channel": {"rho_h": 0.9},
        "snr_db": [12.0],
        "trials": 4,
        "seed": 2,
    }))
    out = tmp_path / "mse.csv"
    code = main(["mse-vs-snr", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith(CSV_HEADER)


def test_cli_single_json(tmp_path, capsys):
    code = main(["single", "--f-true", "0.05", "--snr-db", "25"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] in ("ok", "low_confidence")


def test_cli_error_paths(tmp_path, capsys, monkeypatch):
    missing = tmp_path / "nope.yaml"
    assert main(["mse-vs-snr", "--config", str(missing)]) == 1
    bad = tmp_path / "bad.yaml"
    for text in ("bogus_key: 1\n", "pilot: {structre: periodic}\n",
                 "prior: {sigma_f: 1}\n", "trials: ten\n", "workers: -3\n",
                 "pilot: [unclosed\n"):
        bad.write_text(text)
        capsys.readouterr()
        assert main(["mse-vs-snr", "--config", str(bad)]) == 1, text
        assert capsys.readouterr().err.startswith("error: "), text
    for text in ("channel: {spatial: {kind: exponential, a: .inf}}\n",
                 "channel: {spatial: {sigma_h_sq: .inf}}\n",
                 "prior: {mu_f: .inf}\n",
                 "channel: {mean: {kind: rician, k_factor: .inf}}\n",
                 "channel: {rho_h: .nan}\n"):
        bad.write_text(text)
        capsys.readouterr()
        assert main(["mse-vs-snr", "--config", str(bad)]) == 1, text
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be finite" in err, (text, err)
    assert main(["mse-vs-snr", "--workers", "-3"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    for argv in (["bounds-vs-rho", "--rho-grid", "0:1"],
                 ["bounds-vs-rho", "--rho-grid", "0:1:-2"],
                 ["bounds-vs-rho", "--rho-grid", "0:1:0"],
                 ["bounds-vs-snr", "--snr-db", "abc"],
                 ["mse-vs-snr", "--snr-db", "10,inf"]):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error: "), argv
    # an out-of-range rho_h is rejected before any point is computed
    for argv in (["bounds-vs-rho", "--rho-grid", "0:2:3"],
                 ["bounds-vs-rho", "--rho-grid=-1:1:3"]):
        assert main(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: rho_h must lie in [0, 1]"), (argv, err)
    bad.write_text("channel: {rho_h: 1.5}\n")
    assert main(["bounds-vs-snr", "--config", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: rho_h must lie in [0, 1]")
    for env in ("junk", "-1", "2.5"):
        monkeypatch.setenv("CFOMIMO_WORKERS", env)
        assert main(["mse-vs-snr", "--trials", "2"]) == 1, env
        assert capsys.readouterr().err.startswith("error: "), env


def test_cli_validate_passes():
    assert main(["validate"]) == 0


def test_validate_determinism_check_sees_block_dependence(monkeypatch):
    # a result that depends on how many trials share a block must fail the
    # check, which runs one block of 8 and then one trial per block
    import cfomimo.simcli as cli

    batch = cli.estimate_cfo_universal_batch

    def block_dependent(y, ws):
        est = batch(y, ws)
        return replace(est, f_hat=est.f_hat + 1e-6 * len(y))

    saved = cli.BLOCK_BYTES
    assert cli._check_determinism()[0]
    monkeypatch.setattr(cli, "estimate_cfo_universal_batch", block_dependent)
    ok, detail = cli._check_determinism()
    assert not ok and detail.startswith("blocks of 8 vs 1 trial"), detail
    assert cli.BLOCK_BYTES == saved


def test_package_import_leaves_yaml_unloaded():
    # only load_config reads YAML; the CLI module must not import it
    code = ("import sys, cfomimo, cfomimo.simcli; "
            "sys.exit('yaml' in sys.modules)")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_oracles_and_validate_run_without_scipy():
    # the package needs numpy and pyyaml only: with scipy unimportable the
    # MMSE covariance, the Fisher oracle and validate still run
    code = ("import sys; sys.modules['scipy'] = None\n"
            "import numpy as np\n"
            "from cfomimo import *\n"
            "from cfomimo.simcli import main\n"
            "pilot = generate_td_pilot(2, 3)\n"
            "stats = build_stats(make_model(2, 2, 0.5), pilot.n)\n"
            "mmse_gain(expand_block(pilot, 2), stats.sigma_h)\n"
            "build_workspace(pilot, 2, stats, CfoPrior.ml()).A\n"
            "fisher_oracle(pilot, 2, stats, n_samples=10, rng=np.random.default_rng(0))\n"
            "sys.exit(main(['validate']))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr


def test_worker_env_var(monkeypatch):
    monkeypatch.setenv("CFOMIMO_WORKERS", "3")
    assert ExperimentConfig(**FAST).effective_workers() == 3
    monkeypatch.setenv("CFOMIMO_WORKERS", "")
    assert ExperimentConfig(**FAST).effective_workers() == 1
    for env in ("junk", "-2", "1.5"):
        monkeypatch.setenv("CFOMIMO_WORKERS", env)
        with pytest.raises(ParameterError):
            ExperimentConfig(**FAST).effective_workers()
        with pytest.raises(ParameterError):
            load_config(None)
    # an explicit worker count never reads the environment
    config = replace(ExperimentConfig(**FAST), workers=2)
    assert config.effective_workers() == 2
    assert load_config(None, {"workers": 2}).workers == 2
