"""Acceptance criteria, one test per criterion at its pinned tolerance.

Run with `pytest -s tests/test_acceptance.py` to see the PASS line printed
per criterion (each line carries the measured margin and elapsed time).
"""

import math
import pathlib
import time

import numpy as np
import pytest

import cfomimo
from cfomimo import (CfoPrior, build_stats, build_workspace, compute_beta,
                     estimate_cfo_universal, evaluate_bounds, fisher_oracle,
                     generate_periodic_pilot, generate_td_pilot, make_model,
                     map_metric, metric_gradient, mmse_gain,
                     resolvability_floor, rotated_design,
                     sample_ar1_trajectory, synthesize_rx)
from cfomimo import simcli
from cfomimo.channel import _trial_normals
from cfomimo.simcli import ExperimentConfig, run_mse_vs_snr

from conftest import random_case


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.perf_counter()

    def done(self, number, message):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.limit, f"criterion {number} over budget: {elapsed:.1f}s"
        print(f"PASS criterion {number:>2}: {message} [{elapsed:.1f}s]")


def test_criterion_01_pilot_orthogonality():
    budget = Budget(1.0)
    rng = np.random.default_rng(101)
    worst = 0.0
    for l_t in range(1, 5):
        for m in range(1, 9):
            n = l_t * m
            rho = 1.3
            scrambling = np.exp(2j * np.pi * rng.random(n))
            target = (n * rho / l_t) * np.eye(l_t)
            for pilot in (generate_periodic_pilot(l_t, m, rho, scrambling),
                          generate_td_pilot(l_t, m, rho, scrambling)):
                gram = pilot.entries.conj().T @ pilot.entries
                worst = max(worst, float(np.max(np.abs(gram - target))))
    assert worst < 1e-12
    budget.done(1, f"pilot orthogonality, worst defect {worst:.2e}")


def test_criterion_02_gradient_oracle():
    budget = Budget(30.0)
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        pilot, model, stats, prior = random_case(rng, n_max=12)
        ws = build_workspace(pilot, model.l_r, stats, prior)
        h = sample_ar1_trajectory(model, pilot.n, rng)
        y = synthesize_rx(pilot, model.l_r, float(rng.uniform(-0.4, 0.4)), h, rng)
        f = float(rng.uniform(-0.45, 0.45))
        step = 1e-7
        fd = (map_metric(y, f + step, ws) - map_metric(y, f - step, ws)) / (2 * step)
        cf = metric_gradient(y, f, ws)
        worst = max(worst, abs(cf - fd) / max(abs(cf), abs(fd), 1e-9))
    assert worst < 1e-6
    budget.done(2, f"gradient vs finite differences on 100 configs, worst {worst:.2e}")


def test_criterion_03_fisher_oracle_equivalence():
    budget = Budget(300.0)
    cases = [
        ("rho_h=0 rician td", 0.0,
         make_model(2, 2, 0.0, mean="rician", rician_k=1.0),
         generate_td_pilot(2, 3, rho=2.0)),
        ("rho_h=0.5 zero-mean periodic", 0.5,
         make_model(2, 2, 0.5),
         generate_periodic_pilot(2, 3, rho=3.0)),
        ("rho_h=0.99 exponential td", 0.99,
         make_model(2, 2, 0.99, spatial="exponential"),
         generate_td_pilot(2, 3, rho=2.5)),
        ("rho_h=1 rician periodic", 1.0,
         make_model(2, 2, 1.0, mean="rician", rician_k=1.0),
         generate_periodic_pilot(2, 3, rho=2.0,
                                 scrambling=np.exp(2j * np.pi * np.linspace(0, 0.9, 6)))),
        ("rho_h=0.5 rician exponential td", 0.5,
         make_model(2, 2, 0.5, spatial="exponential", mean="rician", rician_k=2.0),
         generate_td_pilot(2, 3, rho=4.0)),
    ]
    gaps = []
    for i, (label, _, model, pilot) in enumerate(cases):
        stats = build_stats(model, 6)
        beta = compute_beta(pilot, 2, stats)
        oracle = fisher_oracle(pilot, 2, stats, n_samples=100000,
                               rng=np.random.default_rng(300 + i))
        gap = abs(oracle - beta) / beta
        assert gap < 0.03, f"{label}: closed {beta:.4e} vs oracle {oracle:.4e}"
        gaps.append(gap)
    budget.done(3, f"Fisher oracle within 3% on 5 configs, worst {max(gaps):.2%}")


def test_criterion_04_separability_invariance():
    budget = Budget(10.0)
    pilot = generate_td_pilot(2, 6, rho=1.4)
    model = make_model(2, 2, 0.9, spatial="exponential", mean="rician")
    stats = build_stats(model, pilot.n)
    det_spread, gain_spread = [], []
    for f in np.linspace(-0.5, 0.5, 20, endpoint=False):
        design = rotated_design(pilot, 2, f)
        mat = np.eye(stats.dim) + stats.sigma_h @ (design.conj().T @ design)
        det_spread.append(np.linalg.slogdet(mat)[1])
        gain, _ = mmse_gain(design, stats.sigma_h)
        gain_spread.append(np.linalg.slogdet(gain)[1])
    spread1 = max(det_spread) - min(det_spread)
    spread2 = max(gain_spread) - min(gain_spread)
    assert spread1 < 1e-8
    assert spread2 < 1e-8
    budget.done(4, f"log-det invariance over 20 offsets, spreads "
                   f"{spread1:.1e} / {spread2:.1e}")


def test_criterion_05_bound_ordering():
    budget = Budget(60.0)
    rng = np.random.default_rng(505)
    for _ in range(200):
        pilot, model, stats, prior = random_case(rng, l_t_max=3, l_r_max=3, n_max=10)
        res = evaluate_bounds(pilot, model.l_r, stats, prior)
        assert res.bcrlb <= res.crlb + 1e-15
        assert res.bcrlb <= prior.sigma_f_sq + 1e-15
    budget.done(5, "BCRLB <= min(CRLB, prior variance) on 200 random configs")


def test_criterion_06_noiseless_consistency():
    budget = Budget(5.0)
    rng = np.random.default_rng(606)
    pilot = generate_td_pilot(4, 5)
    model = make_model(4, 4, 1.0)
    stats = build_stats(model, 20)
    ws = build_workspace(pilot, 4, stats, CfoPrior.ml())
    worst = 0.0
    for f_true in (-0.3, 0.0, 0.1, 0.45):
        h = sample_ar1_trajectory(model, 20, rng)
        y = synthesize_rx(pilot, 4, f_true, h, None)
        est = estimate_cfo_universal(y, ws)
        worst = max(worst, abs(est.f_hat - f_true))
    assert worst < 1e-8
    # the search must not rely on phase unwrapping anywhere
    package_dir = pathlib.Path(cfomimo.__file__).parent
    for source in package_dir.glob("*.py"):
        text = source.read_text()
        assert "np.unwrap" not in text and "unwrap(" not in text, source
    budget.done(6, f"noiseless recovery across the acquisition range, worst "
                   f"error {worst:.1e}; no phase unwrapping in the package")


def test_criterion_07_estimator_achieves_bcrlb():
    budget = Budget(600.0)
    ratios = {}
    for rho_h in (1.0, 0.99):
        config = ExperimentConfig(pilot_structure="td", l_t=4, m=5, l_r=4,
                                  rho_h=rho_h, mu_f=0.1, sigma_f_sq=1e-5,
                                  snr_db=(10.0, 20.0, 30.0), trials=2000,
                                  seed=707, f_true_mode="prior")
        for row in run_mse_vs_snr(config).rows:
            assert row.failures == 0
            ratio = row.mse / row.bcrlb
            ratios[(rho_h, row.value)] = ratio
            assert 0.5 <= ratio <= 2.0, f"rho_h={rho_h} snr={row.value}: {ratio:.3f}"
    spread = f"{min(ratios.values()):.2f}..{max(ratios.values()):.2f}"
    budget.done(7, f"MSE/BCRLB in [0.5, 2.0] over 6 operating points ({spread})")


def test_criterion_08_error_floor():
    budget = Budget(5.0)
    prior = CfoPrior(0.1, 1e-5)
    ratios = {}
    for rho_h in (1.0, 0.99):
        crlb = {}
        for snr_db in (20.0, 40.0):
            pilot = generate_td_pilot(4, 5, rho=10.0 ** (snr_db / 10.0))
            stats = build_stats(make_model(4, 4, rho_h), 20)
            crlb[snr_db] = evaluate_bounds(pilot, 4, stats, prior).crlb
        ratios[rho_h] = crlb[40.0] / crlb[20.0]
    assert ratios[0.99] > 0.1
    assert ratios[1.0] < 0.02
    budget.done(8, f"error floor: CRLB(40dB)/CRLB(20dB) = {ratios[0.99]:.3f} at "
                   f"rho_h=0.99 vs {ratios[1.0]:.4f} at rho_h=1")


def test_criterion_09_nonmonotone_bound():
    budget = Budget(10.0)
    pilot = generate_td_pilot(4, 5, rho=100.0)
    prior = CfoPrior(0.1, 1e-5)
    curve = []
    for rho_h in np.linspace(0.0, 1.0, 50):
        model = make_model(4, 4, float(rho_h), spatial="exponential",
                           mean="rician", rician_k=1.0)
        stats = build_stats(model, 20)
        curve.append(evaluate_bounds(pilot, 4, stats, prior).crlb)
    diffs = np.diff(curve)
    assert np.any(diffs > 0) and np.any(diffs < 0), "CRLB curve is monotone"
    budget.done(9, "CRLB vs time correlation is non-monotone for nonzero-mean "
                   "fading with the TD pilot at 20 dB")


def test_criterion_10_degenerate_identifiability():
    budget = Budget(1.0)
    pilot = generate_periodic_pilot(4, 5, rho=100.0)
    stats = build_stats(make_model(4, 4, 0.0), 20)
    beta = compute_beta(pilot, 4, stats)
    assert beta < resolvability_floor(pilot)
    res = evaluate_bounds(pilot, 4, stats, CfoPrior(0.1, 1e-5))
    assert math.isinf(res.crlb)
    budget.done(10, f"zero-mean i.i.d. fading: beta {beta:.1e} below the "
                    f"resolvability floor, CRLB reported infinite")


def test_criterion_11_map_ml_limit():
    budget = Budget(30.0)
    rng = np.random.default_rng(1111)
    worst = 0.0
    for _ in range(50):
        pilot, model, stats, _ = random_case(rng)
        h = sample_ar1_trajectory(model, pilot.n, rng)
        y = synthesize_rx(pilot, model.l_r, float(rng.uniform(-0.3, 0.3)), h, rng)
        ws_ml = build_workspace(pilot, model.l_r, stats, CfoPrior.ml())
        ws_wide = build_workspace(pilot, model.l_r, stats, CfoPrior(0.0, 1e12))
        gap = abs(estimate_cfo_universal(y, ws_ml).f_hat
                  - estimate_cfo_universal(y, ws_wide).f_hat)
        worst = max(worst, gap)
    assert worst < 1e-9
    budget.done(11, f"ML limit of the MAP search on 50 trials, worst gap {worst:.1e}")


def test_criterion_12_determinism(monkeypatch):
    budget = Budget(60.0)
    config = ExperimentConfig(pilot_structure="td", l_t=2, m=4, l_r=2,
                              rho_h=0.95, snr_db=(10.0, 20.0), trials=40,
                              seed=1212)
    row_bytes = 8 * _trial_normals(config.n, config.l_r, config.l_t * config.l_r,
                                   config.noise)
    sizes, sample_block = [], simcli._sample_block

    def counting(config, point, trials, *args):
        sizes.append(len(trials))
        return sample_block(config, point, trials, *args)

    monkeypatch.setattr(simcli, "_sample_block", counting)
    texts = []
    # one block, an uneven balanced split and one trial per block, set by
    # the block budget as validate does; each SNR point splits alike
    for cap, split in ((config.trials, [40]), (14, [14, 13, 13]), (1, [1] * 40)):
        monkeypatch.setattr(simcli, "BLOCK_BYTES", cap * row_bytes)
        sizes.clear()
        texts.append(run_mse_vs_snr(config).to_csv_text())
        assert sizes == split * len(config.snr_db)
    rerun = run_mse_vs_snr(config).to_csv_text()
    assert texts[0] == rerun
    assert texts[0] == texts[1] == texts[2]
    budget.done(12, "identical config+seed gives byte-identical CSV in one block, "
                    "in blocks of 14+13+13 and one trial per block, rerun included")
