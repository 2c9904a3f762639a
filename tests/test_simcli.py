import inspect
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import threading
from dataclasses import fields, replace

import numpy as np
import pytest
import yaml

from cfomimo import (CfoPrior, ParameterError, build_stats, build_workspace,
                     sample_ar1_trajectory, synthesize_rx)
from cfomimo.channel import _received_trials
from cfomimo.simcli import (CONFIG_PATHS, CSV_HEADER, MAX_RHO_POINTS, MINIMUMS,
                            PILOT_STRUCTURES, ExperimentConfig,
                            _block_sizes, _BlockDraws, _pcg64_states, _rho_grid,
                            load_config, main, run_bounds_vs_rho, run_bounds_vs_snr,
                            run_mse_vs_snr, run_single)

from conftest import spatial_model
from reference_impls import reference_trial_rng

GOLDEN_CONFIG = pathlib.Path(__file__).parent / "golden" / "config.yaml"
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


def test_config_paths_name_every_field_once(tmp_path):
    # one table entry per field, no path shared, no path inside another
    assert list(CONFIG_PATHS) == [f.name for f in fields(ExperimentConfig)]
    paths = list(CONFIG_PATHS.values())
    assert len(set(paths)) == len(paths)
    for a, b in itertools.permutations(paths, 2):
        assert a != b[:len(a)], (a, b)
    # one file that sets every key path at once
    path = tmp_path / "every.yaml"
    path.write_text(
        "pilot: {structure: periodic, l_t: 3, m: 2}\n"
        "l_r: 5\n"
        "channel:\n"
        "  rho_h: 0.8\n"
        "  rho_h_grid: [0.1, 0.9]\n"
        "  spatial: {kind: exponential, a: 0.2, b: 0.7, sigma_h_sq: 3.0}\n"
        "  mean: {kind: rician, k_factor: 4.0}\n"
        "prior: {ml: true, mu_f: -0.01, sigma_f_sq: 2.0e-4}\n"
        "snr_db: [0, 5]\n"
        "trials: 17\n"
        "seed: 9\n"
        "f_true: fixed\n"
        "noise: false\n"
        "workers: 2\n")
    assert load_config(str(path)) == ExperimentConfig(
        pilot_structure="periodic", l_t=3, m=2, l_r=5, rho_h=0.8,
        rho_h_grid=(0.1, 0.9), spatial_kind="exponential", spatial_a=0.2,
        spatial_b=0.7, sigma_h_sq=3.0, mean_kind="rician", rician_k=4.0,
        prior_ml=True, mu_f=-0.01, sigma_f_sq=2e-4, snr_db=(0.0, 5.0),
        trials=17, seed=9, f_true_mode="fixed", noise=False, workers=2)
    # an unknown key in each section is rejected under that section's label
    for label, data in (("config", {"bogus": 1}),
                        ("pilot", {"pilot": {"bogus": 1}}),
                        ("channel", {"channel": {"bogus": 1}}),
                        ("spatial", {"channel": {"spatial": {"bogus": 1}}}),
                        ("mean", {"channel": {"mean": {"bogus": 1}}}),
                        ("prior", {"prior": {"bogus": 1}})):
        with pytest.raises(ParameterError, match=rf"^unknown {label} keys: \['bogus'\]$"):
            ExperimentConfig.from_mapping(data)
    # keys of mixed types are listed, not compared
    with pytest.raises(ParameterError, match=r"^unknown config keys: \['foo', 1\]$"):
        ExperimentConfig.from_mapping({1: "a", "foo": "b"})


def test_lower_bounds_name_the_field_and_value():
    for name, minimum in MINIMUMS.items():
        with pytest.raises(ParameterError,
                           match=rf"^{name} must be >= {minimum}, got {minimum - 1}$"):
            ExperimentConfig(**{name: minimum - 1})


def test_config_validation(tmp_path):
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
    # workers: accepted without effect, but negative counts are errors
    assert ExperimentConfig(workers=0).workers == 0
    for bad in (-1, -3):
        with pytest.raises(ParameterError):
            ExperimentConfig.from_mapping({"workers": bad})
    # the channel power divides the SNR: zero or negative power is named
    for bad in (0, 0.0, -1.0):
        with pytest.raises(ParameterError, match="sigma_h_sq must be > 0"):
            ExperimentConfig.from_mapping({"channel": {"spatial": {"sigma_h_sq": bad}}})
        with pytest.raises(ParameterError, match="sigma_h_sq must be > 0"):
            ExperimentConfig(sigma_h_sq=bad)
    # an SNR whose linear power overflows a float is named, not raised as
    # OverflowError when a pilot is scaled
    for grid in (1e5, [10, 3100], "1e5"):
        with pytest.raises(ParameterError, match="snr_db must have a finite linear power"):
            ExperimentConfig.from_mapping({"snr_db": grid})
    assert ExperimentConfig(snr_db=(3000.0,)).snr_db == (3000.0,)
    # only a list, a tuple or an array of one or more dimensions is a grid:
    # a mapping or a set is one point, which is named, not read as its keys
    config_file = tmp_path / "mapping.yaml"
    for data, name in (({"snr_db": {10: 1, 20: 3}}, "snr_db"),
                       ({"channel": {"rho_h_grid": {0.5: "x"}}}, "rho_h_grid")):
        config_file.write_text(yaml.safe_dump(data))
        with pytest.raises(ParameterError, match=f"{name} must be float, got {{"):
            load_config(str(config_file))
    for bad in ({10: 1, 20: 3}, {10, 20}):
        with pytest.raises(ParameterError, match=re.escape(f"snr_db must be float, got {bad!r}")):
            ExperimentConfig(snr_db=bad)
    assert ExperimentConfig(snr_db=np.array(10.0)).snr_db == (10.0,)
    assert ExperimentConfig(rho_h_grid=np.array([0.25, 0.5])).rho_h_grid == (0.25, 0.5)
    # the estimator reports offsets in [-0.5, 0.5), so a prior mean outside it
    # could never be met
    for mu_f in (0.9, 0.5, -0.6, -2.0):
        for prior in ({"mu_f": mu_f, "sigma_f_sq": 1e-5}, {"ml": True, "mu_f": mu_f}):
            with pytest.raises(ParameterError,
                               match=r"mu_f must lie in the acquisition range \[-0.5, 0.5\)"):
                ExperimentConfig.from_mapping({"prior": prior})
    assert ExperimentConfig(mu_f=-0.5).mu_f == -0.5


def test_scalar_grids_are_one_point_grids():
    # a scalar SNR or rho_h grid, number or spelled-out string, is one point
    for value in (20, 20.0, "20", np.float64(20.0)):
        assert ExperimentConfig(snr_db=value).snr_db == (20.0,), value
        assert ExperimentConfig.from_mapping({"snr_db": value}).snr_db == (20.0,), value
    for value in (0.5, "0.5"):
        assert ExperimentConfig(rho_h_grid=value).rho_h_grid == (0.5,), value
        config = ExperimentConfig.from_mapping({"channel": {"rho_h_grid": value}})
        assert config.rho_h_grid == (0.5,), value
    assert ExperimentConfig(snr_db=[5, "10"]).snr_db == (5.0, 10.0)
    for bad in ("loud", None, True):
        with pytest.raises(ParameterError, match="snr_db must be float"):
            ExperimentConfig(snr_db=bad)
    with pytest.raises(ParameterError, match=r"rho_h must lie in \[0, 1\]"):
        ExperimentConfig(rho_h_grid=2.0)
    with pytest.raises(ParameterError, match="must be finite"):
        ExperimentConfig(snr_db=math.inf)


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


@pytest.mark.parametrize("sigma_h_sq", [1e8, 1e-8, 1e-10, 1e-300])
def test_bounds_stay_when_power_moves_between_pilot_and_channel(sigma_h_sq):
    # at a fixed SNR the pilot power rho scales as 1 / sigma_h_sq, so the
    # received moments R and ybar stay, and so do beta and the floor
    config = ExperimentConfig(l_t=2, m=3, l_r=2, snr_db=(10.0,))
    want = run_bounds_vs_snr(config).rows
    got = run_bounds_vs_snr(replace(config, sigma_h_sq=sigma_h_sq)).rows
    assert [row.sweep_var for row in got] == [row.sweep_var for row in want]
    assert all(math.isfinite(row.crlb) for row in got)
    np.testing.assert_allclose([(row.crlb, row.bcrlb) for row in got],
                               [(row.crlb, row.bcrlb) for row in want], rtol=1e-12, atol=0)


def test_cli_bounds_at_a_tiny_channel_power(tmp_path, capsys):
    # a pilot power of 1e301 is finite, so the bounds print and exit 0
    cfg = tmp_path / "tiny.yaml"
    cfg.write_text("pilot: {l_t: 2, m: 3}\nl_r: 2\n"
                   "channel: {spatial: {sigma_h_sq: 1.0e-300}}\nsnr_db: [10]\n")
    assert main(["bounds-vs-snr", "--config", str(cfg)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == run_bounds_vs_snr(load_config(str(cfg))).to_csv_text()
    assert "inf" not in out


def test_mse_vs_snr_basic_row_contract():
    config = ExperimentConfig(**FAST)
    result = run_mse_vs_snr(config)
    assert len(result.rows) == 1
    row = result.rows[0]
    assert row.mse is not None and row.mse >= 0.0
    assert row.trials == 6 and row.failures == 0
    assert row.bcrlb <= row.crlb
    assert row.mean_iters is not None


def test_mse_vs_snr_deterministic_rerun_and_workers(monkeypatch, draw_log):
    import cfomimo.simcli as cli

    config = ExperimentConfig(**FAST, workers=1)
    text1 = run_mse_vs_snr(config).to_csv_text()
    text2 = run_mse_vs_snr(config).to_csv_text()
    text4 = run_mse_vs_snr(replace(config, workers=4)).to_csv_text()
    # a block holds as many trials as fit their rows of 2*n*(d + l_r) normals
    row_bytes = 8 * 2 * config.n * (config.l_t * config.l_r + config.l_r)
    # every trial as a thread takes it from its block's shared queue, and
    # every block as it is sampled (draw_log)
    draw_log.clear()
    run_mse_vs_snr(config)
    draw_log.check(config, [config.trials])  # one block, no helper
    # at most 4 trials a block, 6 trials split evenly over two blocks
    draw_log.clear()
    monkeypatch.setattr(cli, "BLOCK_BYTES", 4 * row_bytes)
    blocked = run_mse_vs_snr(config).to_csv_text()
    draw_log.check(config, [3, 3])
    # one trial per block, the two threads switching as often as the
    # interpreter allows, so a trial handed out twice or never would show
    draw_log.clear()
    monkeypatch.setattr(cli, "BLOCK_BYTES", 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        one_by_one = run_mse_vs_snr(config).to_csv_text()
    finally:
        sys.setswitchinterval(interval)
    draw_log.check(config, [1] * config.trials)
    assert text1 == text2 == text4 == blocked == one_by_one


@pytest.fixture
def started_threads(monkeypatch):
    """Every thread started while the test runs, recorded at its start."""
    started, start = [], threading.Thread.start

    def recording(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", recording)
    return started


def hold_back(monkeypatch, held: str):
    """Hold one of the two threads that share each block's draws, the
    "sweep" thread or the "helper", on a threading.Event until the other
    has drained the block's queue; the other waits, on a second Event, until
    the held one has reached the block, so the order is fixed.  Only for
    points of two or more blocks: a one-block point has no helper."""
    import cfomimo.simcli as cli

    draw, events = cli._BlockDraws.draw, {}

    def ordered(draws):
        arrived, drained = events.setdefault(draws, (threading.Event(), threading.Event()))
        on_sweep = threading.current_thread() is threading.main_thread()
        if on_sweep == (held == "sweep"):
            arrived.set()
            assert drained.wait(timeout=30)
            return draw(draws)
        else:
            assert arrived.wait(timeout=30)
            drawn = draw(draws)
            drained.set()
            return drawn

    monkeypatch.setattr(cli._BlockDraws, "draw", ordered)


class DrawFailure(Exception):
    pass


def test_no_thread_outlives_a_sweep(monkeypatch, started_threads):
    # a point of several blocks shares their draws with one helper thread,
    # joined before the sweep returns, and also when a draw on the helper
    # raises, whose exception reaches the caller; a point of one block
    # starts no thread
    import cfomimo.simcli as cli

    before = threading.active_count()
    golden = load_config(str(GOLDEN_CONFIG))
    assert golden.trials == 40
    run_mse_vs_snr(golden)  # two points of one block each
    run_bounds_vs_rho(replace(golden, rho_h_grid=(0.5,)))  # no trials at all
    assert started_threads == []
    assert threading.active_count() == before

    config = ExperimentConfig(**{**FAST, "snr_db": (10.0, 20.0)})
    row_bytes = 8 * 2 * config.n * (config.l_t * config.l_r + config.l_r)
    monkeypatch.setattr(cli, "BLOCK_BYTES", 4 * row_bytes)  # blocks of 3 and 3
    run_mse_vs_snr(config)
    assert len(started_threads) == len(config.snr_db)  # one helper per point
    assert threading.active_count() == before
    assert not any(thread.is_alive() for thread in started_threads)

    # the helper's first trial raises; the sweep thread, which draws the
    # other trials, waits for that before it goes on, so the failure is
    # always the helper's
    raised, helper_failed, sample = [], threading.Event(), CfoPrior.sample

    def failing(prior, rng):
        if threading.current_thread() is threading.main_thread():
            assert helper_failed.wait(timeout=30)
            return sample(prior, rng)
        raised.append(DrawFailure("a draw on the helper"))
        helper_failed.set()
        raise raised[-1]

    monkeypatch.setattr(CfoPrior, "sample", failing)
    started_threads.clear()
    with pytest.raises(DrawFailure) as failure:
        run_mse_vs_snr(config)
    assert failure.value is raised[0]
    assert len(started_threads) == 1
    assert started_threads[0] is not threading.main_thread()
    assert threading.active_count() == before
    assert not started_threads[0].is_alive()


def test_a_draw_failing_on_the_sweep_thread_reaches_the_caller(monkeypatch, started_threads):
    # the sweep thread's own draws of a shared block raise: the exception
    # reaches the caller once the helper, which may still be drawing the
    # block, has been joined; the helper's trial waits for that failure, so
    # the sweep thread always has a trial of its own to fail on
    import cfomimo.simcli as cli

    config = ExperimentConfig(**FAST)
    row_bytes = 8 * 2 * config.n * (config.l_t * config.l_r + config.l_r)
    monkeypatch.setattr(cli, "BLOCK_BYTES", 4 * row_bytes)  # blocks of 3 and 3
    before = threading.active_count()
    raised, sweep_failed, sample = [], threading.Event(), CfoPrior.sample

    def failing(prior, rng):
        if threading.current_thread() is threading.main_thread():
            raised.append(DrawFailure("a draw on the sweep thread"))
            sweep_failed.set()
            raise raised[-1]
        assert sweep_failed.wait(timeout=30)
        return sample(prior, rng)

    monkeypatch.setattr(CfoPrior, "sample", failing)
    with pytest.raises(DrawFailure) as failure:
        run_mse_vs_snr(config)
    assert failure.value is raised[0] and len(raised) == 1
    assert len(started_threads) == 1
    assert not started_threads[0].is_alive()
    assert threading.active_count() == before


def test_a_held_back_helper_leaves_every_draw_to_the_sweep_thread(monkeypatch, draw_log):
    # a stall on the helper costs the sweep at most the helper's trial in
    # flight: with the helper held until the sweep thread has drained each
    # block's queue, the sweep completes on its own draws, byte for byte
    import cfomimo.simcli as cli

    config = ExperimentConfig(**{**FAST, "snr_db": (10.0, 20.0)})
    row_bytes = 8 * 2 * config.n * (config.l_t * config.l_r + config.l_r)
    monkeypatch.setattr(cli, "BLOCK_BYTES", 2 * row_bytes)  # blocks of 2, 2 and 2
    want = run_mse_vs_snr(config).to_csv_text()
    draw_log.clear()
    hold_back(monkeypatch, "helper")
    assert run_mse_vs_snr(config).to_csv_text() == want
    draw_log.check(config, [2, 2, 2])
    assert draw_log.threads() == [{threading.main_thread()}] * 6


def test_the_draw_helper_calls_no_public_function(monkeypatch, draw_log):
    # the benchmark's tracer keeps one span stack for one thread: with the
    # helper making every draw of a multi-block sweep, every public function
    # of the package, wherever a cfomimo module binds it, still runs on the
    # sweep's own thread only
    import cfomimo
    import cfomimo.simcli as cli

    public = {id(value) for name in cfomimo.__all__
              if inspect.isfunction(value := getattr(cfomimo, name))}
    calls = []

    def wrap(fn):
        def recording(*args, **kwargs):
            calls.append((fn.__name__, threading.current_thread()))
            return fn(*args, **kwargs)
        return recording

    for module in [m for name, m in sys.modules.items()
                   if name == "cfomimo" or name.startswith("cfomimo.")]:
        for attr, value in list(vars(module).items()):
            if id(value) in public:
                monkeypatch.setattr(module, attr, wrap(value))
    config = ExperimentConfig(**{**FAST, "snr_db": (10.0, 20.0)})
    row_bytes = 8 * 2 * config.n * (config.l_t * config.l_r + config.l_r)
    monkeypatch.setattr(cli, "BLOCK_BYTES", 4 * row_bytes)  # blocks of 3 and 3
    hold_back(monkeypatch, "sweep")
    run_mse_vs_snr(config)
    draw_log.check(config, [3, 3])
    helpers = draw_log.threads()
    assert all(len(drew) == 1 and threading.main_thread() not in drew for drew in helpers)
    assert {"estimate_cfo_universal_batch", "evaluate_bounds"} <= {name for name, _ in calls}
    assert {thread for _, thread in calls} == {threading.main_thread()}


def test_consecutive_blocks_draw_into_separate_buffers(monkeypatch, draw_log):
    # the helper draws block b + 1 while block b is sampled, so the two
    # must not share memory; block b + 2 reuses block b's buffer, so a point
    # holds two buffers of rows, whatever its number of blocks (draw_log
    # checks both halves against each block's view at sampling time)
    import cfomimo.simcli as cli

    monkeypatch.setattr(cli, "BLOCK_BYTES", 1)  # one trial per block
    config = ExperimentConfig(**FAST)
    run_mse_vs_snr(config)
    assert len(draw_log.sampled) == config.trials
    draw_log.check(config, [1] * config.trials)


@pytest.mark.parametrize("trials,cap", [(1, 1), (1, 5), (3, 7), (7, 1), (8, 3), (6, 4),
                                        (12, 4), (13, 4), (97, 10), (300, 75), (300, 80),
                                        (2000, 286), (200, 14)])
def test_block_sizes_split_trials_evenly(trials, cap):
    # the fewest blocks of at most cap trials, sizes differing by at most one
    sizes = _block_sizes(trials, cap)
    assert sum(sizes) == trials
    assert max(sizes) <= cap
    assert max(sizes) - min(sizes) <= 1
    assert len(sizes) == -(-trials // cap)


@pytest.mark.parametrize("noise", [True, False])
def test_one_call_draws_match_four_calls(noise):
    # one standard_normal call per trial fills the row of normals that the
    # four calls of sample_ar1_trajectory and synthesize_rx draw, bit for
    # bit: innovation real and imaginary parts (n, d), then noise real and
    # imaginary parts (l_r, n); a noiseless row stops after the innovations
    config = ExperimentConfig(**FAST, noise=noise)
    n, l_r, d = config.n, config.l_r, config.l_t * config.l_r
    prior, model = config.prior(), config.model()
    ws = build_workspace(config.pilot(2.0), build_stats(model, n), prior)
    trials = range(3, 8)
    width = 2 * n * d + (2 * l_r * n if noise else 0)
    # a sweep point's buffer, larger than the block and holding stale rows
    stale = np.full((len(trials) + 2, width), np.nan)
    f_true, rows = _BlockDraws(config, 2, trials, prior, stale).draw()
    assert np.shares_memory(rows, stale) and rows.shape == (len(trials), width)
    for i, trial in enumerate(trials):
        rng = reference_trial_rng(config.seed, 2, trial)
        assert f_true[i] == prior.sample(rng)
        parts = [rng.standard_normal((n, d)), rng.standard_normal((n, d))]
        if noise:
            parts += [rng.standard_normal((l_r, n)), rng.standard_normal((l_r, n))]
        np.testing.assert_array_equal(rows[i], np.concatenate([p.ravel() for p in parts]))
    assert np.isnan(stale[len(trials):]).all()
    y = _received_trials(model, ws, f_true, rows)
    # a fresh buffer gives the same draws and signals
    fresh_f, fresh_rows = _BlockDraws(config, 2, trials, prior).draw()
    fresh_y = _received_trials(model, ws, fresh_f, fresh_rows)
    for got, want in zip((fresh_f, fresh_rows, fresh_y), (f_true, rows, y)):
        np.testing.assert_array_equal(got, want)


def test_block_seeded_streams_match_numpy():
    # the stream states _pcg64_states computes for a whole block in one
    # pass, and for each trial alone, loaded into a Generator, against
    # numpy's own SeedSequence seeding, bit for bit; the trials span 2^32,
    # so one block mixes one- and two-word indices; a five-word seed and a
    # three-word point hash past the pool of 4
    prior = CfoPrior(0.1, 1e-3)
    trials = (0, 1, 5, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 3)
    got = np.random.Generator(np.random.PCG64(0))
    for seed in (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 7, 2 ** 128 + 5):
        for point in (0, 1, 2 ** 32 + 1, 2 ** 64 + 1):
            for trial, state in zip(trials, _pcg64_states(seed, point, trials)):
                for loaded in (state, _pcg64_states(seed, point, [trial])[0]):
                    got.bit_generator.state = loaded
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
        ws = build_workspace(pilot, build_stats(model, n), prior)

        def sample(trials):
            f_true, rows = _BlockDraws(config, 1, trials, prior).draw()
            return f_true, _received_trials(model, ws, f_true, rows)

        f_true, y = sample(trials)
        for i, trial in enumerate(trials):
            rng = reference_trial_rng(config.seed, 1, trial)
            f = prior.sample(rng) if mode == "prior" else prior.mu_f
            h = sample_ar1_trajectory(model, n, rng)
            want = synthesize_rx(pilot, l_r, f, h, rng if noise else None)
            assert f_true[i] == f
            np.testing.assert_allclose(y[i], want, rtol=0,
                                       atol=1e-12 * np.max(np.abs(want)))
            alone = sample(range(trial, trial + 1))[1]
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


def test_a_point_where_every_trial_fails_leaves_mse_and_mean_iters_empty(monkeypatch):
    # every trial reported as failed by the batch search: the row counts
    # them all, and its mse and mean_iters cells are empty
    import cfomimo.simcli as cli

    real = cli.estimate_cfo_universal_batch

    def failing(y, ws, **kwargs):
        est = real(y, ws, **kwargs)
        return replace(est, f_hat=np.full(len(y), np.nan), failed=np.ones(len(y), dtype=bool))

    monkeypatch.setattr(cli, "estimate_cfo_universal_batch", failing)
    result = run_mse_vs_snr(ExperimentConfig(**FAST))
    row = result.rows[0]
    assert row.failures == row.trials == 6
    assert row.mse is None and row.mean_iters is None
    cells = dict(zip(CSV_HEADER.split(","), result.to_csv_text().splitlines()[1].split(",")))
    assert cells["mse"] == cells["mean_iters"] == ""
    assert cells["trials"] == cells["failures"] == "6"


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


def test_run_single_rejects_a_true_offset_outside_the_acquisition_range():
    # the search wraps into [-0.5, 0.5), so a truth outside it reads as a
    # wrapped offset's whole-cycle error; the range's edges are kept as is
    config = replace(ExperimentConfig(**FAST), noise=False, rho_h=1.0, prior_ml=True)
    for f_true in (0.5, 0.9, -0.51, math.nan):
        with pytest.raises(ParameterError, match=r"f_true must lie in the acquisition range"):
            run_single(config, f_true_override=f_true)
    assert run_single(config, f_true_override=-0.5).f_true == -0.5


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


@pytest.mark.parametrize("noise", [True, False])
@pytest.mark.parametrize("mode", ["prior", "fixed"])
@pytest.mark.parametrize("base", ["golden", "fast"])
def test_single_is_trial_zero_of_the_sweep(monkeypatch, base, mode, noise):
    # single draws and samples its trial through the sweep's own code: its
    # true offset and the y it estimates from are those of mse-vs-snr's
    # trial 0 at the first SNR point, bit for bit
    import cfomimo.simcli as cli

    config = load_config(str(GOLDEN_CONFIG)) if base == "golden" else ExperimentConfig(**FAST)
    config = replace(config, f_true_mode=mode, noise=noise)
    seen = {"f_true": [], "batch": [], "single": []}
    received, batch, single = (cli._received_trials, cli.estimate_cfo_universal_batch,
                               cli.estimate_cfo_universal)

    def recording_received(model, ws, f_true, rows):
        seen["f_true"].append(f_true.copy())
        return received(model, ws, f_true, rows)

    def recording_batch(y, ws):
        seen["batch"].append(y.copy())
        return batch(y, ws)

    def recording_single(y, ws):
        seen["single"].append(y.copy())
        return single(y, ws)

    monkeypatch.setattr(cli, "_received_trials", recording_received)
    monkeypatch.setattr(cli, "estimate_cfo_universal_batch", recording_batch)
    monkeypatch.setattr(cli, "estimate_cfo_universal", recording_single)
    run_mse_vs_snr(config)
    sweep_f, sweep_y = seen["f_true"][0][0], seen["batch"][0][0]
    record = run_single(config)
    assert record.f_true == sweep_f
    assert len(seen["single"]) == 1
    np.testing.assert_array_equal(seen["single"][0], sweep_y)


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
    # --seed and --trials override the file's values
    assert main(["mse-vs-snr", "--config", str(cfg), "--seed", "5", "--trials", "3",
                 "--out", str(out)]) == 0
    config = replace(load_config(str(cfg)), seed=5, trials=3)
    assert out.read_text() == run_mse_vs_snr(config).to_csv_text()


def test_cli_single_json(tmp_path, capsys):
    code = main(["single", "--f-true", "0.05", "--snr-db", "25"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] in ("ok", "low_confidence")


def test_plot_data_flag_is_declared_on_sweeps_only(tmp_path, capsys):
    # a command declares only the flags its run reads, so argparse rejects
    # any other instead of ignoring it: single writes no plot series, the
    # bounds sweeps draw nothing and single runs one trial; workers is a
    # config key only.  Each command's --out help names what it writes
    plot = tmp_path / "plot.csv"
    with pytest.raises(SystemExit) as exc:
        main(["single", "--emit-plot-data", str(plot)])
    assert exc.value.code == 2 and not plot.exists()
    assert "unrecognized arguments: --emit-plot-data" in capsys.readouterr().err
    removed = [(command, flag) for command in ("bounds-vs-rho", "bounds-vs-snr")
               for flag in ("--seed", "--trials", "--workers")]
    removed += [("mse-vs-snr", "--workers"), ("single", "--trials"), ("single", "--workers")]
    for command, flag in removed:
        with pytest.raises(SystemExit) as exc:
            main([command, flag, "3"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == "", (command, flag)
        assert f"unrecognized arguments: {flag} 3" in err, (command, flag, err)
    common = {"--help", "--config", "--out", "--snr-db"}
    for command, out_help, own in (
            ("bounds-vs-rho", "output CSV path", {"--emit-plot-data", "--rho-grid"}),
            ("bounds-vs-snr", "output CSV path", {"--emit-plot-data"}),
            ("mse-vs-snr", "output CSV path", {"--emit-plot-data", "--seed", "--trials"}),
            ("single", "output JSON path", {"--seed", "--f-true", "--zero-rx", "--no-noise"})):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = capsys.readouterr().out
        assert out_help in text, command
        assert set(re.findall(r"--[a-z][a-z-]*", text)) == common | own, command


def test_cli_single_flags_reach_the_trial(tmp_path, capsys):
    out = tmp_path / "single.json"
    assert main(["single", "--config", str(GOLDEN_CONFIG), "--no-noise", "--out", str(out)]) == 0
    config = load_config(str(GOLDEN_CONFIG))
    assert out.read_text() == run_single(replace(config, noise=False)).to_json() + "\n"
    assert out.read_text() != run_single(config).to_json() + "\n"
    assert main(["single", "--config", str(GOLDEN_CONFIG), "--seed", "3", "--out", str(out)]) == 0
    assert out.read_text() == run_single(replace(config, seed=3)).to_json() + "\n"
    assert out.read_text() != run_single(config).to_json() + "\n"
    # with y = 0 and a flat prior the metric is degenerate: reported, not an error
    cfg = tmp_path / "ml.yaml"
    cfg.write_text(yaml.safe_dump({"pilot": {"l_t": 2, "m": 3}, "l_r": 2,
                                   "prior": {"ml": True, "mu_f": 0.0}}))
    capsys.readouterr()
    assert main(["single", "--config", str(cfg), "--zero-rx"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "low_confidence"
    assert main(["single", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ok"


def test_cli_error_paths(tmp_path, capsys):
    missing = tmp_path / "nope.yaml"
    assert main(["mse-vs-snr", "--config", str(missing)]) == 1
    bad = tmp_path / "bad.yaml"
    for text in ("bogus_key: 1\n", "pilot: {structre: periodic}\n",
                 "prior: {sigma_f: 1}\n", "trials: ten\n", "workers: -3\n",
                 "pilot: [unclosed\n", "1: a\nfoo: b\n", "pilot: {2: x, structre: td}\n"):
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
    # workers is a config key only: the flag is not declared
    with pytest.raises(SystemExit) as exc:
        main(["mse-vs-snr", "--workers", "-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers -3" in capsys.readouterr().err
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
    # a non-finite end or span is named before linspace could warn on it
    for grid, message in (("0:inf:3", "--rho-grid STOP must be finite, got inf"),
                          ("1e308:-1e308:3", "--rho-grid STOP - START must be finite, got -inf")):
        assert main(["bounds-vs-rho", "--rho-grid", grid]) == 1, grid
        assert capsys.readouterr() == ("", f"error: {message}\n"), grid
    bad.write_text("channel: {rho_h: 1.5}\n")
    assert main(["bounds-vs-snr", "--config", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: rho_h must lie in [0, 1]")
    bad.write_text("channel: {spatial: {sigma_h_sq: 0}}\n")
    for argv in (["mse-vs-snr", "--trials", "3"], ["single"], ["bounds-vs-snr"]):
        assert main([*argv, "--config", str(bad)]) == 1, argv
        assert capsys.readouterr().err.startswith("error: sigma_h_sq must be > 0"), argv
    # an SNR that overflows, from a flag or a config, and an offset outside
    # the acquisition range, from the prior or --f-true, fail before any output
    bad.write_text("snr_db: 1.0e+5\n")
    for argv, message in ((["single", "--snr-db", "1e5"], "snr_db must have a finite"),
                          (["bounds-vs-snr", "--snr-db", "3100"], "snr_db must have a finite"),
                          (["mse-vs-snr", "--config", str(bad)], "snr_db must have a finite"),
                          (["single", "--f-true", "0.5"], "f_true must lie in the acquisition"),
                          (["single", "--f-true", "-0.7"], "f_true must lie in the acquisition")):
        assert main(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {message}"), (argv, err)
    # an SNR whose linear power is finite but whose pilot's total power n*rho
    # (n = 20 by default) overflows, or underflows to 0, is rejected by name,
    # before the pilot's power trace could overflow
    for command in ("bounds-vs-rho", "bounds-vs-snr", "mse-vs-snr", "single"):
        for snr_db in ("3070", "3075", "3082", "-4000"):
            assert main([command, f"--snr-db={snr_db}"]) == 1, (command, snr_db)
            out, err = capsys.readouterr()
            assert out == "" and err == (
                "error: snr_db must give a pilot of positive, finite total power n*rho "
                f"(n = 20), got {float(snr_db)}\n"), (command, snr_db, err)
    bad.write_text("prior: {mu_f: 0.9, sigma_f_sq: 1.0e-5}\ntrials: 50\nsnr_db: [20]\n")
    assert main(["mse-vs-snr", "--config", str(bad)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: mu_f must lie in the acquisition range"), err


def test_rho_grid_count_is_capped():
    # a COUNT past the cap is named before linspace allocates the grid;
    # the cap itself passes
    assert len(_rho_grid(f"0:1:{MAX_RHO_POINTS}")) == MAX_RHO_POINTS
    with pytest.raises(ParameterError, match=rf"^--rho-grid COUNT must be <= {MAX_RHO_POINTS}, "
                                             rf"got {MAX_RHO_POINTS + 1}$"):
        _rho_grid(f"0:1:{MAX_RHO_POINTS + 1}")


def test_cli_numerical_failure_exits_1(capsys):
    # at 200 dB the workspace is too ill-conditioned to build
    assert main(["bounds-vs-snr", "--snr-db", "200"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("numerical failure: "), err


def test_a_bad_snr_point_fails_before_any_point_runs(monkeypatch, capsys):
    # every SNR point's total pilot power n*rho is checked before the first
    # point sets up, so a bad later point costs no earlier point's work
    import cfomimo.simcli as cli

    calls = []

    def counting(name):
        inner = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)
        return wrapper

    for name in ("build_workspace", "evaluate_bounds", "_pcg64_states"):
        monkeypatch.setattr(cli, name, counting(name))
    # the first-point commands too, although they run at 10 dB only
    for argv in (["bounds-vs-snr"], ["mse-vs-snr", "--trials", "20000"],
                 ["bounds-vs-rho", "--rho-grid", "0:1:3"], ["single"]):
        for grid, bad in (("10,20,3070", 3070.0), ("10,-4000", -4000.0)):
            assert main([*argv, f"--snr-db={grid}"]) == 1, (argv, grid)
            out, err = capsys.readouterr()
            assert out == "" and err == ("error: snr_db must give a pilot of positive, finite "
                                         f"total power n*rho (n = 20), got {bad}\n"), (argv, err)
            assert calls == [], (argv, grid, calls)


def test_first_point_commands_name_the_snr_they_use(tmp_path, capsys):
    # bounds-vs-rho and single run at the first SNR point only: a longer
    # grid gets one stderr line naming that point and how many it ignores,
    # and stdout and --out hold what the one-point grid gives
    out = tmp_path / "out"
    for command, extra in (("bounds-vs-rho", ["--rho-grid", "0:1:2"]),
                           ("single", []), ("single", ["--config", str(GOLDEN_CONFIG)])):
        texts = []
        for grid, ignored in (("10", 0), ("10,20,30", 2), ("10,40", 1)):
            note = (f"note: {command} uses the first snr_db point, 10.0 dB, and ignores "
                    f"the other {ignored}\n" if ignored else "")
            assert main([command, *extra, "--snr-db", grid]) == 0
            stdout, err = capsys.readouterr()
            assert err == note, (command, grid, err)
            assert main([command, *extra, "--snr-db", grid, "--out", str(out)]) == 0
            assert capsys.readouterr() == ("", note), (command, grid)
            texts.append((stdout, out.read_text()))
        assert len(set(texts)) == 1, command
    # the golden config's own two-point grid is legal, and noted
    assert main(["single", "--config", str(GOLDEN_CONFIG), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ("note: single uses the first snr_db point, 10.0 dB, "
                                       "and ignores the other 1\n")
    assert out.read_text() == texts[0][1]


def test_cli_validate_passes():
    assert main(["validate"]) == 0


def test_cli_validate_fails_with_exit_1_naming_the_check(monkeypatch, capsys):
    # CI relies on the exit code: one failing check fails the run, and the
    # other checks still run and report
    import cfomimo.simcli as cli

    monkeypatch.setattr(cli, "_check_bound_ordering", lambda rng: (False, "forced failure"))
    assert main(["validate"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL  bound ordering: forced failure" in lines
    assert len(lines) == 9 and sum(line.startswith("PASS  ") for line in lines) == 8


def test_validate_determinism_check_sees_block_dependence(monkeypatch):
    # a result that depends on how many trials share a block must fail the
    # check, which runs 8 trials in one block, in blocks of 3, 3 and 2, and
    # one trial per block
    import cfomimo.simcli as cli

    batch = cli.estimate_cfo_universal_batch

    def block_dependent(y, ws):
        est = batch(y, ws)
        return replace(est, f_hat=est.f_hat + 1e-6 * len(y))

    saved = cli.BLOCK_BYTES
    assert cli._check_determinism()[0]
    monkeypatch.setattr(cli, "estimate_cfo_universal_batch", block_dependent)
    ok, detail = cli._check_determinism()
    assert not ok and detail.startswith(
        "8 trials in one block vs blocks of 3+3+2 vs one trial per block"), detail
    assert cli.BLOCK_BYTES == saved


def test_validate_fisher_check_sees_a_wrong_beta(monkeypatch):
    # the closed form off by one part in 1e8 must fail the 1e-9 bound
    import cfomimo.simcli as cli

    closed_form = cli.compute_beta
    ok, detail = cli._check_fisher_formula(np.random.default_rng(3))
    assert ok, detail
    monkeypatch.setattr(cli, "compute_beta", lambda *args: closed_form(*args) * (1 + 1e-8))
    ok, detail = cli._check_fisher_formula(np.random.default_rng(3))
    assert not ok and detail.startswith("worst relative gap 1.0"), detail


def test_validate_trial_stream_check_sees_a_wrong_stream_or_sample(monkeypatch):
    # one trial's PCG64 state off by one bit, at trial index 2^32, fails the
    # draws; a received signal off by 1e-10 fails the 1e-12 bound on y
    import cfomimo.simcli as cli

    states, received = cli._pcg64_states, cli._received_trials
    ok, detail = cli._check_trial_streams(np.random.default_rng(3))
    assert ok, detail

    def perturbed(seed, point, trials):
        out = states(seed, point, trials)
        for trial, state in zip(trials, out):
            if trial == 2 ** 32:
                state["state"]["state"] ^= 1
        return out

    monkeypatch.setattr(cli, "_pcg64_states", perturbed)
    ok, detail = cli._check_trial_streams(np.random.default_rng(3))
    assert not ok and detail == "stream (seed 0, point 0, trial 4294967296) differs", detail
    monkeypatch.setattr(cli, "_pcg64_states", states)
    monkeypatch.setattr(cli, "_received_trials", lambda *args: received(*args) * (1 + 1e-10))
    ok, detail = cli._check_trial_streams(np.random.default_rng(3))
    assert not ok and "worst relative y gap 1.0" in detail, detail


def test_each_sweep_point_sets_up_once_before_its_trials(monkeypatch):
    # the benchmark marks a point's set-up as done when simcli.evaluate_bounds
    # returns, so every point calls it once, after its other set-up and
    # before its first draw; a sweep builds its model once
    import cfomimo.simcli as cli

    calls = []

    def counting(name):
        inner = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls.append((name, args[1]) if name == "_pcg64_states" else name)
            return inner(*args, **kwargs)
        return wrapper

    # a block's draws start with its streams' states (_pcg64_states), on
    # whichever thread takes the block's first trial
    for name in ("make_model", "build_stats", "build_workspace", "evaluate_bounds",
                 "_pcg64_states"):
        monkeypatch.setattr(cli, name, counting(name))
    config = ExperimentConfig(**FAST, rho_h_grid=(0.0, 0.5, 1.0))
    run_bounds_vs_rho(config)
    points = len(PILOT_STRUCTURES) * len(config.rho_h_grid)
    assert calls == ["make_model"] + ["build_stats", "build_workspace", "evaluate_bounds"] * points
    calls.clear()
    row_bytes = 8 * cli._trial_normals(config.n, config.l_r, config.l_t * config.l_r, True)
    monkeypatch.setattr(cli, "BLOCK_BYTES", 3 * row_bytes)  # two blocks of 3
    run_mse_vs_snr(replace(config, snr_db=(10.0, 20.0)))
    assert calls == ["make_model", "build_stats"] + [
        step for point in (0, 1) for step in
        ("build_workspace", "evaluate_bounds", ("_pcg64_states", point),
         ("_pcg64_states", point))]


def test_sweeps_single_and_oracle_form_no_channel_space_matrix(monkeypatch):
    # the dense sigma_h of model-built stats and the block design Sb are
    # formed only for a caller that names them; none of these runs does
    import cfomimo
    from cfomimo import estimate_cfo_per_antenna, fisher_oracle
    from cfomimo.channel import _SeparableStats

    def refuse(*args, **kwargs):
        raise AssertionError("a channel-space matrix was formed")

    monkeypatch.setattr(_SeparableStats, "sigma_h", property(refuse))
    for module in (cfomimo, cfomimo.pilots, cfomimo.estimator, cfomimo.simcli):
        monkeypatch.setattr(module, "expand_block", refuse)
    config = ExperimentConfig(**FAST, spatial_kind="exponential", mean_kind="rician",
                              rho_h_grid=(0.0, 0.5, 1.0))
    assert run_mse_vs_snr(config).rows[0].failures == 0
    assert len(run_bounds_vs_rho(config).rows) == 3 * len(PILOT_STRUCTURES)
    assert len(run_bounds_vs_snr(config).rows) == len(PILOT_STRUCTURES)
    assert run_single(config).status == "ok"
    model, pilot = config.model(), config.pilot(10.0)
    stats = build_stats(model, config.n)
    rng = np.random.default_rng(5)
    y = synthesize_rx(pilot, config.l_r, [0.02, -0.03],
                      sample_ar1_trajectory(model, config.n, rng), rng)
    ws = build_workspace(pilot, stats, CfoPrior(0.0, 1e-3))
    assert estimate_cfo_per_antenna(y, ws).f_hat.shape == (2,)
    assert fisher_oracle(pilot, stats, n_samples=10,
                         rng=np.random.default_rng(0)) > 0


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
            "build_workspace(pilot, stats, CfoPrior.ml())\n"
            "fisher_oracle(pilot, stats, n_samples=10, rng=np.random.default_rng(0))\n"
            "sys.exit(main(['validate']))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr


def test_malformed_worker_env_var_is_ignored(monkeypatch, tmp_path, capsys):
    # CFOMIMO_WORKERS is no longer read: a malformed value changes nothing
    out = tmp_path / "sweep.csv"
    argv = ["mse-vs-snr", "--trials", "3", "--snr-db", "15", "--out", str(out)]
    monkeypatch.delenv("CFOMIMO_WORKERS", raising=False)
    assert main(argv) == 0
    want = out.read_text()
    for env in ("junk", "-1", "2.5"):
        monkeypatch.setenv("CFOMIMO_WORKERS", env)
        assert main(argv) == 0, env
        assert out.read_text() == want, env
    assert capsys.readouterr().err == ""
