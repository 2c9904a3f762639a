import dataclasses
import math

import numpy as np
import pytest

from cfomimo import (CfoPrior, ChannelStats, ParameterError, build_stats,
                     build_workspace, compute_beta, compute_bounds, custom_pilot,
                     evaluate_bounds, fisher_oracle, generate_periodic_pilot,
                     generate_td_pilot, make_model, resolvability_floor)

from conftest import dense_gain_and_offset, random_case
from reference_impls import reference_beta


def test_single_symbol_has_no_information():
    pilot = custom_pilot(np.ones((1, 1), dtype=complex))
    stats = build_stats(make_model(1, 1, 0.5), 1)
    assert compute_beta(pilot, 1, stats) == 0.0
    res = compute_bounds(0.0, CfoPrior(0.0, 1e-5))
    assert math.isinf(res.crlb)
    assert res.bcrlb == pytest.approx(1e-5)


def test_compute_bounds_rejects_nan_and_negative_beta():
    for beta in (float("nan"), -1.0):
        with pytest.raises(ParameterError, match="beta"):
            compute_bounds(beta, CfoPrior(0.1, 1e-5))


def test_fisher_oracle_rejects_bad_sample_count_and_step():
    pilot = generate_td_pilot(2, 3)
    stats = build_stats(make_model(2, 2, 0.9), pilot.n)
    for kwargs, name in (({"n_samples": 2.5}, "n_samples"), ({"n_samples": True}, "n_samples"),
                         ({"n_samples": 0}, "n_samples"), ({"step": 0.0}, "step"),
                         ({"step": -1e-4}, "step"), ({"step": np.nan}, "step"),
                         ({"step": np.inf}, "step")):
        with pytest.raises(ParameterError, match=name):
            fisher_oracle(pilot, 2, stats, rng=np.random.default_rng(0), **kwargs)


def test_zero_mean_iid_fading_not_identifiable():
    # without time correlation or a mean, the offset phase is absorbed by the
    # fading phase: the Fisher information vanishes
    pilot = generate_periodic_pilot(4, 5)
    stats = build_stats(make_model(4, 4, 0.0), 20)
    beta = compute_beta(pilot, 4, stats)
    assert beta < 1e-9 * resolvability_floor(pilot) + 1e-12
    res = evaluate_bounds(pilot, 4, stats, CfoPrior(0.1, 1e-5))
    assert math.isinf(res.crlb)
    assert res.bcrlb == pytest.approx(1e-5)


def _dense_case():
    """A scrambled pilot with dense stats, which the workspace holds as one
    (n*l_r)^2 kernel (p = 1, q = n*l_r)."""
    pilot = generate_td_pilot(2, 3, 1.5, np.exp(0.7j * np.arange(6)))
    stats = build_stats(make_model(2, 2, 0.8, spatial="exponential", mean="rician"), pilot.n)
    return pilot, 2, ChannelStats(2, 2, pilot.n, stats.mu_h, stats.sigma_h)


def _near_iid_case(rng, rho_h):
    """A scrambled pilot under fading that is close to iid in time, where
    most of M's eigenvalues nearly coincide."""
    l_t, l_r = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    scrambling = np.exp(2j * np.pi * rng.random(l_t * 3))
    pilot = generate_td_pilot(l_t, 3, float(rng.uniform(0.5, 5.0)), scrambling)
    model = make_model(l_t, l_r, rho_h, spatial="exponential", mean="rician")
    return pilot, l_r, build_stats(model, pilot.n)


def test_beta_matches_direct_loop_reference(rng):
    cases = []
    for _ in range(4):
        pilot, model, stats, _ = random_case(rng, n_max=8, allow_frozen=False)
        cases.append((pilot, model.l_r, stats))
    cases += [_near_iid_case(rng, rho_h) for rho_h in (0.0, 1e-3, 1e-2)]
    # a long pilot: n = 40 symbols, lags up to 39
    long_pilot = generate_periodic_pilot(2, 20, 2.0, np.exp(0.3j * np.arange(40)))
    cases.append((long_pilot, 1, build_stats(make_model(2, 1, 0.95, mean="rician"), 40)))
    for pilot, l_r, stats in cases + [_dense_case()]:
        ws = build_workspace(pilot, l_r, stats, CfoPrior.ml())
        fast = compute_beta(pilot, l_r, stats, workspace=ws)
        slow = reference_beta(pilot.entries, l_r, stats.mu_h, stats.sigma_h,
                              *dense_gain_and_offset(pilot, l_r, stats))
        assert fast == pytest.approx(slow, rel=1e-9, abs=1e-9)


def test_beta_reads_only_the_eigenpairs():
    # the kernels and the linear table never enter beta; with a zero mean
    # only the covariance sum is left, still >= 0
    pilot = generate_td_pilot(2, 3)
    for mean in ("rician", "zero"):
        stats = build_stats(make_model(2, 2, 0.9, mean=mean), pilot.n)
        ws = build_workspace(pilot, 2, stats, CfoPrior.ml())
        beta = compute_beta(pilot, 2, stats, workspace=ws)
        blind = dataclasses.replace(ws, kernels=np.full_like(ws.kernels, np.nan),
                                    lin_table=np.full_like(ws.lin_table, np.nan))
        assert compute_beta(pilot, 2, stats, workspace=blind) == beta
        assert beta >= 0.0 and np.any(ws.ybar) == (mean == "rician")


def test_beta_nonnegative_on_random_configs(rng):
    for _ in range(20):
        pilot, model, stats, _ = random_case(rng)
        assert compute_beta(pilot, model.l_r, stats) >= 0.0


def test_bounds_ordering_and_trivial_cases():
    prior = CfoPrior(0.0, 1e-5)
    res = compute_bounds(0.0, prior)
    assert math.isinf(res.crlb) and res.bcrlb == pytest.approx(1e-5)
    ml = compute_bounds(123.4, CfoPrior.ml())
    assert ml.crlb == ml.bcrlb == pytest.approx(1.0 / 123.4)
    with pytest.raises(ParameterError):
        compute_bounds(-1.0, prior)


def test_bcrlb_below_prior_variance_at_default_operating_point():
    snr = 10.0 ** 2.0  # 20 dB
    pilot = generate_td_pilot(4, 5, rho=snr)
    stats = build_stats(make_model(4, 4, 0.99), 20)
    res = evaluate_bounds(pilot, 4, stats, CfoPrior(0.1, 1e-5))
    assert res.bcrlb < 1e-5
    assert res.bcrlb <= res.crlb


def test_crlb_monotone_in_pilot_power():
    stats = build_stats(make_model(2, 2, 0.9), 12)
    prior = CfoPrior.ml()
    last = math.inf
    for rho in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0):
        pilot = generate_td_pilot(2, 6, rho=rho)
        crlb = evaluate_bounds(pilot, 2, stats, prior).crlb
        assert crlb < last
        last = crlb


def test_pilot_crossing_in_time_correlation():
    # zero-mean fading at 20 dB: TD ahead for weak correlation, periodic for
    # strong; assert the ordering flips somewhere inside (0, 1)
    snr = 100.0
    prior = CfoPrior(0.1, 1e-5)
    periodic = generate_periodic_pilot(4, 5, rho=snr)
    td = generate_td_pilot(4, 5, rho=snr)
    signs = []
    for rho_h in np.linspace(0.05, 0.995, 20):
        stats = build_stats(make_model(4, 4, rho_h), 20)
        gap = (evaluate_bounds(td, 4, stats, prior).crlb
               - evaluate_bounds(periodic, 4, stats, prior).crlb)
        signs.append(np.sign(gap))
    assert signs[0] < 0 < signs[-1]


def test_nonmonotone_crlb_with_nonzero_mean():
    snr = 100.0
    td = generate_td_pilot(4, 5, rho=snr)
    prior = CfoPrior(0.1, 1e-5)
    curve = []
    for rho_h in np.linspace(0.0, 1.0, 21):
        model = make_model(4, 4, rho_h, spatial="exponential",
                           mean="rician", rician_k=1.0)
        stats = build_stats(model, 20)
        curve.append(evaluate_bounds(td, 4, stats, prior).crlb)
    diffs = np.diff(curve)
    assert np.any(diffs > 0) and np.any(diffs < 0)


def test_error_floor_when_correlation_slips():
    prior = CfoPrior(0.1, 1e-5)
    ratios = {}
    for rho_h in (1.0, 0.99):
        crlb = {}
        for snr_db in (20.0, 40.0):
            pilot = generate_td_pilot(4, 5, rho=10.0 ** (snr_db / 10.0))
            stats = build_stats(make_model(4, 4, rho_h), 20)
            crlb[snr_db] = evaluate_bounds(pilot, 4, stats, prior).crlb
        ratios[rho_h] = crlb[40.0] / crlb[20.0]
    assert ratios[1.0] < 0.02
    assert ratios[0.99] > 0.1


def test_fisher_oracle_agrees_and_tightens(rng):
    pilot = generate_td_pilot(2, 3, rho=2.0)
    model = make_model(2, 2, 0.5, mean="rician", rician_k=1.0)
    stats = build_stats(model, 6)
    beta = compute_beta(pilot, 2, stats)
    small = fisher_oracle(pilot, 2, stats, n_samples=1000,
                          rng=np.random.default_rng(0))
    large = fisher_oracle(pilot, 2, stats, n_samples=25000,
                          rng=np.random.default_rng(1))
    assert abs(small - beta) / beta < 0.25
    assert abs(large - beta) / beta < 0.05


def test_fisher_oracle_invariant_to_probe_offset():
    pilot = generate_td_pilot(2, 3, rho=2.0)
    model = make_model(2, 2, 0.5, mean="rician", rician_k=1.0)
    stats = build_stats(model, 6)
    beta = compute_beta(pilot, 2, stats)
    estimates = [fisher_oracle(pilot, 2, stats, f_probe=fp, n_samples=20000,
                               rng=np.random.default_rng(7 + i))
                 for i, fp in enumerate((0.0, 0.1, 0.3))]
    for est in estimates:
        assert abs(est - beta) / beta < 0.05


def test_fisher_oracle_single_symbol_is_zero():
    pilot = custom_pilot(np.ones((1, 1), dtype=complex))
    stats = build_stats(make_model(1, 1, 0.5), 1)
    est = fisher_oracle(pilot, 1, stats, n_samples=200,
                        rng=np.random.default_rng(2))
    assert abs(est) < 1e-6


def test_fisher_oracle_takes_no_prior_and_tuning_by_keyword():
    # no prior, and the tuning arguments by keyword only, so a call that
    # passes a prior or tuning values by position fails instead of shifting
    pilot = custom_pilot(np.ones((1, 1), dtype=complex))
    stats = build_stats(make_model(1, 1, 0.5), 1)
    with pytest.raises(TypeError):
        fisher_oracle(pilot, 1, stats, None, 0.0)
    with pytest.raises(TypeError):
        fisher_oracle(pilot, 1, stats, prior=CfoPrior.ml())


def test_bound_ordering_random_sweep(rng):
    for _ in range(30):
        pilot, model, stats, prior = random_case(rng)
        res = evaluate_bounds(pilot, model.l_r, stats, prior)
        assert res.bcrlb <= res.crlb + 1e-15
        assert res.bcrlb <= prior.sigma_f_sq + 1e-15
        assert res.beta >= 0.0
