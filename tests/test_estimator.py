import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cfomimo import (CfoPrior, ChannelStats, CorrelationModel, EstimationError,
                     NumericalError,
                     ParameterError, build_stats, build_workspace, compute_beta,
                     compute_z, custom_pilot, estimate_cfo_per_antenna,
                     estimate_cfo_universal, estimate_cfo_universal_batch,
                     estimate_channel_mmse,
                     evaluate_bounds, expand_block, generate_periodic_pilot,
                     generate_td_pilot, make_model, map_metric,
                     metric_gradient, mmse_gain, per_antenna_metric,
                     rotated_design, sample_ar1_trajectory, synthesize_rx,
                     wrap_frequency)
from cfomimo.estimator import (CONDITION_LIMIT, NEWTON_HALVINGS, _grid_sums, _lag_metric,
                               _lag_terms, _per_antenna_grad_hess, _prior_vectors,
                               _universal_search)

from conftest import (dense_gain_and_offset, dense_kernel, random_case, random_psd,
                      spatial_model)
from reference_impls import reference_beta, reference_gain_and_offset, reference_z


def draw_y(rng, pilot, model, stats, f_true, noisy=True):
    h = sample_ar1_trajectory(model, pilot.n, rng)
    return synthesize_rx(pilot, model.l_r, f_true, h, rng if noisy else None), h


# ---------------------------------------------------------------------------
# workspace construction


def test_gain_frozen_channel_iid_spatial_closed_form():
    # time-invariant channel with per-antenna variance sigma^2 and an
    # orthogonal pilot: every time-pair block of A equals the classic
    # (sigma^-2 + n rho / l_t)^-1 on the antenna-pair diagonal
    sigma_sq, l_t, l_r, m, rho = 0.8, 3, 2, 4, 2.0
    pilot = generate_periodic_pilot(l_t, m, rho=rho)
    stats = build_stats(make_model(l_t, l_r, 1.0, sigma_h_sq=sigma_sq), pilot.n)
    gain = mmse_gain(expand_block(pilot, l_r), stats.sigma_h)[0]
    alpha = 1.0 / (1.0 / sigma_sq + pilot.n * rho / l_t)
    a6 = gain.reshape(l_r, pilot.n, l_t, l_r, pilot.n, l_t)
    for r1 in range(l_r):
        for r2 in range(l_r):
            for t1 in range(l_t):
                for t2 in range(l_t):
                    block = a6[r1, :, t1, r2, :, t2]
                    expected = alpha if (r1 == r2 and t1 == t2) else 0.0
                    np.testing.assert_allclose(block, expected, atol=1e-12)


def test_offset_zero_for_zero_mean(rng):
    pilot, _, stats, prior = random_case(rng)
    zero_mean = ChannelStats(stats.l_t, stats.l_r, stats.n,
                             np.zeros_like(stats.mu_h), stats.sigma_h)
    np.testing.assert_array_equal(dense_gain_and_offset(pilot, stats.l_r, zero_mean)[1], 0.0)
    # and its receive-space image lin = Sb b
    ws = build_workspace(pilot, zero_mean, prior)
    np.testing.assert_array_equal(ws.lin_table, 0.0)


def test_gain_matches_direct_inverse(rng):
    n, l_t, l_r = 4, 2, 2
    pilot = custom_pilot(rng.standard_normal((n, l_t))
                         + 1j * rng.standard_normal((n, l_t)))
    dim = l_t * l_r * n
    sigma = random_psd(rng, dim)
    mu = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    stats = ChannelStats(l_t, l_r, n, mu, sigma)
    gain, offset = dense_gain_and_offset(pilot, l_r, stats)
    gain_ref, offset_ref = reference_gain_and_offset(expand_block(pilot, l_r), mu, sigma)
    scale = np.max(np.abs(gain_ref))
    assert np.max(np.abs(gain - gain_ref)) < 1e-9 * scale
    assert np.max(np.abs(offset - offset_ref)) < 1e-9 * max(1.0, np.max(np.abs(offset_ref)))


def test_offset_two_forms_agree(rng):
    pilot, _, stats, _ = random_case(rng, allow_frozen=False)
    sb = expand_block(pilot, stats.l_r)
    offset = dense_gain_and_offset(pilot, stats.l_r, stats)[1]
    alt = np.linalg.solve(np.eye(stats.dim) + stats.sigma_h @ (sb.conj().T @ sb), stats.mu_h)
    assert np.max(np.abs(offset - alt)) < 1e-9 * max(1.0, np.max(np.abs(alt)))


def test_workspace_accepts_singular_sigma(rng):
    pilot = generate_td_pilot(2, 3)
    stats = build_stats(make_model(2, 2, 1.0), pilot.n)  # rank-deficient
    build_workspace(pilot, stats, CfoPrior.ml())
    gain = mmse_gain(expand_block(pilot, 2), stats.sigma_h)[0]
    assert np.all(np.isfinite(gain))
    assert np.linalg.eigvalsh(gain)[0] > -1e-10


def _dense_copy_cases():
    # exponential is the default spatial model and carries no prefix
    for spatial in ("exponential", "iid", "complex-kron", "non-kron"):
        for maker in (generate_periodic_pilot, generate_td_pilot):
            for rho_h in (0.0, 0.5, 1.0):
                prefix = "" if spatial == "exponential" else f"{spatial}-"
                yield pytest.param(spatial, maker, rho_h,
                                   id=f"{prefix}{maker.__name__}-{rho_h}")


@pytest.mark.parametrize("spatial,maker,rho_h", _dense_copy_cases())
def test_separable_stats_match_dense_copy(spatial, maker, rho_h):
    # build_stats keeps Sigma_h as its time and spatial factors and R as
    # kron(A_r, M) when the spatial covariance factors; a workspace built
    # from them must equal one built from the dense matrix (1 x 1 kron R)
    l_t, l_r = 2, 3
    pilot = maker(l_t, 4, rho=1.7)
    model = spatial_model(spatial, l_t, l_r, rho_h)
    stats = build_stats(model, pilot.n)
    dense = ChannelStats(l_t, l_r, pilot.n, stats.mu_h, stats.sigma_h)
    ws = build_workspace(pilot, stats, CfoPrior.ml())
    ref = build_workspace(pilot, dense, CfoPrior.ml())

    def close(a, b):
        return np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    # R = Sb Sigma_h Sb^H, in both of the stats' receive-space forms
    sb = expand_block(pilot, l_r)
    r_dense = sb @ stats.sigma_h @ sb.conj().T
    assert close(stats._receive_cov(pilot.entries), r_dense)
    assert close(np.kron(*stats._receive_factors(pilot.entries)), r_dense)
    assert close(ws.lin_table, ref.lin_table)
    assert close(ws.condition, ref.condition)
    assert close(compute_beta(ws), compute_beta(ref))
    a, m = stats._receive_factors(pilot.entries)
    if spatial == "non-kron":
        assert model._kronecker_factors is None
        assert (a.shape, m.shape) == ((1, 1), (pilot.n * l_r, pilot.n * l_r))
    else:
        assert (a.shape, m.shape) == ((l_r, l_r), (pilot.n, pilot.n))
    a, m = dense._receive_factors(pilot.entries)
    assert (a.shape, m.shape) == ((1, 1), (pilot.n * l_r, pilot.n * l_r))
    # the factor-basis data term and (I - K) product against the p = 1 path
    rng = np.random.default_rng(11)
    y = rng.standard_normal(pilot.n * l_r) + 1j * rng.standard_normal(pilot.n * l_r)
    f_vec = rng.uniform(-0.3, 0.3, l_r)
    # the factor-form K through the metric, against the dense oracle
    # w^H K w + 2 Re<lin, w> with K = I - (I + R)^{-1} and lin = (I + R)^{-1} Sb mu_h
    eye = np.eye(pilot.n * l_r)
    inv = np.linalg.inv(eye + r_dense)
    w = (np.exp(-2j * np.pi * 0.13 * np.arange(pilot.n)) * y.reshape(l_r, pilot.n)).ravel()
    lin = inv @ (sb @ stats.mu_h)
    assert close(map_metric(y, 0.13, ws),
                 np.real(np.vdot(w, (eye - inv) @ w)) + 2.0 * np.real(np.vdot(lin, w)))
    assert close(map_metric(y, 0.13, ws), map_metric(y, 0.13, ref))
    assert close(per_antenna_metric(y, f_vec, ws), per_antenna_metric(y, f_vec, ref))
    assert close(estimate_channel_mmse(y, 0.13, ws), estimate_channel_mmse(y, 0.13, ref))
    # the eigen-basis lag fold, the per-antenna derivatives and search
    rows = np.stack([y, rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size)])
    rows3 = rows.reshape(2, l_r, pilot.n)
    assert close(_lag_terms(rows3, ws)[0], _lag_terms(rows3, ref)[0])
    mu, inv_var = np.zeros(l_r), np.full(l_r, 1e3)
    for got, want in zip(_per_antenna_grad_hess(rows3[0], ws, f_vec, mu, inv_var),
                         _per_antenna_grad_hess(rows3[0], ref, f_vec, mu, inv_var)):
        assert close(got, want)
    prior = CfoPrior(0.0, 1e-3)
    x = synthesize_rx(pilot, l_r, 0.04, sample_ar1_trajectory(model, pilot.n, rng), rng)
    got, want = (estimate_cfo_per_antenna(x, w, prior) for w in (ws, ref))
    # a refinement that stops unconverged can stop anywhere, and rounding
    # alone then sends the two paths apart
    assert got.converged == want.converged
    if got.converged:
        np.testing.assert_allclose(got.f_hat, want.f_hat, rtol=0, atol=1e-9)


def _factor_dtype_cases():
    # (pilot scrambled, spatial model, dtype of U, dtype of M and the K_i)
    real, cplx = np.float64, np.complex128
    for maker in (generate_periodic_pilot, generate_td_pilot):
        name = maker.__name__
        for spatial in ("iid", "exponential"):
            yield pytest.param(maker, False, spatial, real, real, id=f"{spatial}-{name}")
        yield pytest.param(maker, True, "exponential", real, cplx, id=f"scrambled-{name}")
        yield pytest.param(maker, False, "complex-receive", cplx, real,
                           id=f"complex-receive-{name}")
        yield pytest.param(maker, False, "complex-kron", cplx, cplx, id=f"complex-kron-{name}")


@pytest.mark.parametrize("maker,scrambled,spatial,u_dtype,m_dtype", _factor_dtype_cases())
def test_workspace_factors_are_real_when_r_factors_are(maker, scrambled, spatial,
                                                       u_dtype, m_dtype):
    # A_r and M are diagonalized in real arithmetic exactly when their
    # imaginary parts vanish: unscrambled 0/1 pilots and real spatial factors
    l_t, l_r, m = 2, 3, 3
    rng = np.random.default_rng(4)
    scrambling = np.exp(2j * np.pi * rng.random(l_t * m)) if scrambled else None
    pilot = maker(l_t, m, rho=1.7, scrambling=scrambling)
    if spatial == "complex-receive":
        a_r = random_psd(rng, l_r)
        model = CorrelationModel(l_t, l_r, 0.7, np.kron(0.5 * (a_r + a_r.conj().T),
                                                        np.eye(l_t)),
                                 np.full(l_t * l_r, 0.6 + 0.2j))
    else:
        model = spatial_model(spatial, l_t, l_r, 0.7)
    stats = build_stats(model, pilot.n)
    ws = build_workspace(pilot, stats, CfoPrior(0.02, 1e-3))
    assert ws.U.dtype == u_dtype
    assert ws.V.dtype == ws.kernels.dtype == m_dtype
    assert ws.a.dtype == ws.m.dtype == np.float64
    assert ws.lin_table.dtype == ws.ybar.dtype == np.complex128
    # K against the dense oracle I - (I + R)^{-1}, R = Sb Sigma_h Sb^H
    eye = np.eye(pilot.n * l_r)
    sb = expand_block(pilot, l_r)
    want = eye - np.linalg.inv(eye + sb @ stats.sigma_h @ sb.conj().T)
    assert np.max(np.abs(dense_kernel(ws) - want)) <= 1e-12 * np.max(np.abs(want))
    beta = compute_beta(ws)
    assert beta == pytest.approx(
        reference_beta(pilot.entries, l_r, stats.mu_h, stats.sigma_h,
                       *dense_gain_and_offset(pilot, l_r, stats)),
        rel=1e-9, abs=1e-9)
    # every reader of U, V and the K_i against the same factors held complex
    cws = replace(ws, U=ws.U.astype(complex), V=ws.V.astype(complex),
                  kernels=ws.kernels.astype(complex))

    def close(a, b):
        return np.max(np.abs(np.asarray(a) - b)) <= 1e-13 * np.max(np.abs(b))

    rows = rng.standard_normal((2, l_r, pilot.n)) + 1j * rng.standard_normal((2, l_r, pilot.n))
    y, f_vec = rows[0].ravel(), rng.uniform(-0.2, 0.2, l_r)
    assert close(_lag_terms(rows, ws)[0], _lag_terms(rows, cws)[0])
    assert close(compute_beta(cws), beta)
    assert close(map_metric(y, 0.13, ws), map_metric(y, 0.13, cws))
    assert close(estimate_channel_mmse(y, 0.13, ws), estimate_channel_mmse(y, 0.13, cws))
    _, mu, inv_var = _prior_vectors(ws.prior, l_r)
    for got, want in zip(_per_antenna_grad_hess(rows[0], ws, f_vec, mu, inv_var),
                         _per_antenna_grad_hess(rows[0], cws, f_vec, mu, inv_var)):
        assert close(got, want)
    assert close(dense_kernel(ws), dense_kernel(cws))
    # R = kron(A_r, M) with A_r = U diag(a) U^H and M = V diag(m) V^H
    receive_cov = [np.kron((w.U * w.a) @ w.U.conj().T, (w.V * w.m) @ w.V.conj().T)
                   for w in (ws, cws)]
    assert close(*receive_cov)
    assert close(receive_cov[0], stats._receive_cov(pilot.entries))


def test_zero_covariance_workspace():
    # a deterministic channel: R = 0, so K = 0, I + R = I and lin = ybar
    l_t, l_r = 2, 3
    pilot = generate_td_pilot(l_t, 3)
    model = CorrelationModel(l_t, l_r, 0.5, np.zeros((6, 6)), np.arange(6) + 1j)
    stats = build_stats(model, pilot.n)
    a, m = stats._receive_factors(pilot.entries)
    assert (a.shape, m.shape) == ((l_r, l_r), (pilot.n, pilot.n))
    ws = build_workspace(pilot, stats, CfoPrior.ml())
    assert ws.condition == 1.0
    np.testing.assert_array_equal(ws.kernels, 0.0)
    np.testing.assert_allclose(ws.lin_table.ravel(), ws.ybar, rtol=1e-14, atol=0)
    assert np.isfinite(compute_beta(ws))


def test_large_array_setup_never_forms_dense_covariance():
    # (l_t, m, l_r) = (8, 16, 8): one dense (l_t l_r n)^2 complex matrix is
    # 1024 MB, the n*l_r receive-space tables are 16 MB each
    pilot = generate_periodic_pilot(8, 16, rho=1.0)
    model = make_model(8, 8, 0.95, spatial="exponential", mean="rician")
    rng = np.random.default_rng(7)
    tracemalloc.start()
    try:
        stats = build_stats(model, pilot.n)
        ws = build_workspace(pilot, stats, CfoPrior.ml())
        evaluate_bounds(ws)
        h = sample_ar1_trajectory(model, pilot.n, rng)
        y = synthesize_rx(pilot, 8, 0.05, h, rng)
        est = estimate_cfo_universal(y, ws)
        h_hat = estimate_channel_mmse(y, est.f_hat, ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(h_hat))
    assert peak < 256 * 2 ** 20, f"peak {peak / 2 ** 20:.0f} MB"


def test_workspace_and_beta_stay_factored():
    # (l_t, m, l_r) = (8, 16, 8): one dense (n l_r)^2 complex matrix is 16 MB,
    # the l_r kernels K_i of n^2 are 2 MB together
    pilot = generate_periodic_pilot(8, 16, rho=1.0)
    model = make_model(8, 8, 0.95, spatial="exponential", mean="rician")
    stats = build_stats(model, pilot.n)
    rng = np.random.default_rng(9)
    rows = np.stack([draw_y(rng, pilot, model, stats, f)[0] for f in (-0.1, 0.02, 0.3)])
    tracemalloc.start()
    try:
        ws = build_workspace(pilot, stats, CfoPrior.ml())
        beta = compute_beta(ws)
        batch = estimate_cfo_universal_batch(rows, ws)
        per_antenna = estimate_cfo_per_antenna(rows[1], ws, CfoPrior(0.0, 1e-3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert beta > 0
    assert not np.any(batch.failed) and per_antenna.f_hat.shape == (8,)
    assert peak < 12 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"
    assert ws.kernels.shape == (8, pilot.n, pilot.n)
    dense = (pilot.n * 8) ** 2
    cached = [name for name, value in vars(ws).items()
              if isinstance(value, np.ndarray) and value.size >= dense]
    assert not cached, cached


def test_ill_conditioned_raises():
    # coefficient variances spanning 16 decades push I + Sb Sigma Sb^H past
    # the trust threshold
    pilot = custom_pilot(np.ones((4, 1), dtype=complex))
    sigma = np.diag([1e16, 1e16, 1.0, 1.0]).astype(complex)
    stats = ChannelStats(1, 1, 4, np.zeros(4, dtype=complex), sigma)
    with pytest.raises(NumericalError) as info:
        build_workspace(pilot, stats, CfoPrior.ml())
    assert info.value.condition is not None
    with pytest.raises(NumericalError) as info:
        mmse_gain(rotated_design(pilot, 1, 0.0), sigma)
    assert info.value.condition > CONDITION_LIMIT
    # an indefinite Sigma leaves I + design Sigma design^H indefinite, which
    # has no finite condition number to trust
    with pytest.raises(NumericalError) as info:
        mmse_gain(np.eye(2), np.diag([1.0, -2.0]))
    assert info.value.condition == np.inf


def test_ill_conditioned_model_raises():
    # a channel frozen over the pilot with a huge variance: R is singular,
    # so the condition of I + R is 1 + its largest eigenvalue, about 1e15
    pilot = generate_periodic_pilot(2, 3, rho=1.0)
    stats = build_stats(make_model(2, 2, 1.0, spatial="exponential",
                                   sigma_h_sq=1e14), pilot.n)
    assert stats._receive_factors(pilot.entries)[0].shape == (2, 2)
    with pytest.raises(NumericalError) as info:
        build_workspace(pilot, stats, CfoPrior.ml())
    assert np.isfinite(info.value.condition)
    assert info.value.condition > CONDITION_LIMIT


# ---------------------------------------------------------------------------
# lag series


def test_z_empty_for_single_symbol():
    pilot = custom_pilot(np.ones((1, 1), dtype=complex))
    stats = build_stats(make_model(1, 1, 0.5), 1)
    ws = build_workspace(pilot, stats, CfoPrior.ml())
    assert compute_z(np.ones(1, dtype=complex), ws).size == 0


def test_z_matches_six_loop_reference(rng):
    for _ in range(5):
        pilot, model, stats, prior = random_case(rng, n_max=8)
        ws = build_workspace(pilot, stats, prior)
        y, _ = draw_y(rng, pilot, model, stats, 0.12)
        z_fast = compute_z(y, ws)
        z_ref = reference_z(y, pilot.entries, *dense_gain_and_offset(pilot, model.l_r, stats),
                            model.l_r)
        np.testing.assert_allclose(z_fast, z_ref, atol=1e-10 * max(1.0, np.max(np.abs(z_ref))))


def test_z_is_scaled_autocorrelation_for_frozen_scalar_channel(rng):
    # single antenna, unit pilot, frozen channel: the coupling table is the
    # constant alpha over all time pairs, so z_k collapses to
    # alpha * sum_k1 y[k1-k] conj(y[k1])
    n = 8
    pilot = custom_pilot(np.ones((n, 1), dtype=complex))
    sigma_sq = 1.7
    stats = build_stats(make_model(1, 1, 1.0, sigma_h_sq=sigma_sq), n)
    ws = build_workspace(pilot, stats, CfoPrior.ml())
    alpha = 1.0 / (1.0 / sigma_sq + n)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    z = compute_z(y, ws)
    for lag in range(1, n):
        expected = alpha * np.sum(y[:n - lag] * np.conj(y[lag:]))
        assert z[lag - 1] == pytest.approx(expected, abs=1e-12)


def test_z_phase_tracks_offset_noiselessly():
    n = 10
    pilot = custom_pilot(np.ones((n, 1), dtype=complex))
    stats = build_stats(make_model(1, 1, 1.0), n)
    ws = build_workspace(pilot, stats, CfoPrior.ml())
    f = 0.03
    y = synthesize_rx(pilot, 1, f, np.ones(n, dtype=complex), None)
    z = compute_z(y, ws)
    for lag in range(1, n):
        expected = wrap_phase(-2.0 * np.pi * f * lag)
        assert np.angle(z[lag - 1]) == pytest.approx(expected, abs=1e-9)


def wrap_phase(theta):
    return (theta + np.pi) % (2.0 * np.pi) - np.pi


def test_z_ignores_prior_and_trial_offset(rng):
    pilot, model, stats, _ = random_case(rng)
    y, _ = draw_y(rng, pilot, model, stats, 0.2)
    ws_map = build_workspace(pilot, stats, CfoPrior(0.3, 1e-4))
    ws_ml = build_workspace(pilot, stats, CfoPrior.ml())
    assert np.array_equal(compute_z(y, ws_map), compute_z(y, ws_ml))


# ---------------------------------------------------------------------------
# metric and gradient


def test_metric_zero_for_zero_signal_ml(rng):
    pilot, model, stats, _ = random_case(rng)
    ws = build_workspace(pilot, stats, CfoPrior.ml())
    y0 = np.zeros(model.l_r * pilot.n, dtype=complex)
    for f in (-0.3, 0.0, 0.17):
        assert map_metric(y0, f, ws) == 0.0


def test_lag_metric_matches_direct_up_to_constant(rng):
    pilot, model, stats, prior = random_case(rng)
    ws = build_workspace(pilot, stats, prior)
    y, _ = draw_y(rng, pilot, model, stats, 0.05)
    z = compute_z(y, ws)
    fgrid = np.linspace(-0.45, 0.45, 9)
    direct = np.array([map_metric(y, f, ws) for f in fgrid])
    lagged = _lag_metric(z, fgrid, ws.prior.mu_f, ws.prior.inv_var)
    diffs = direct - lagged
    scale = max(1.0, np.max(np.abs(direct)))
    assert (np.max(diffs) - np.min(diffs)) < 1e-8 * scale


def test_prior_only_maximum_at_prior_mean(rng):
    pilot, model, stats, _ = random_case(rng)
    ws = build_workspace(pilot, stats, CfoPrior(0.1, 1e-5))
    y0 = np.zeros(model.l_r * pilot.n, dtype=complex)
    est = estimate_cfo_universal(y0, ws)
    assert est.f_hat == pytest.approx(0.1, abs=1e-12)


def test_gradient_zero_when_z_vanishes_ml(rng):
    pilot, model, stats, _ = random_case(rng)
    ws = build_workspace(pilot, stats, CfoPrior.ml())
    y0 = np.zeros(model.l_r * pilot.n, dtype=complex)
    for f in (-0.2, 0.0, 0.4):
        assert metric_gradient(y0, f, ws) == 0.0


def test_gradient_matches_finite_differences(rng):
    for _ in range(20):
        pilot, model, stats, prior = random_case(rng)
        ws = build_workspace(pilot, stats, prior)
        y, _ = draw_y(rng, pilot, model, stats, float(rng.uniform(-0.4, 0.4)))
        f = float(rng.uniform(-0.45, 0.45))
        step = 1e-7
        fd = (map_metric(y, f + step, ws) - map_metric(y, f - step, ws)) / (2 * step)
        cf = metric_gradient(y, f, ws)
        assert abs(cf - fd) / max(abs(cf), abs(fd), 1e-9) < 1e-6


def test_gradient_stationary_at_estimate(rng):
    for _ in range(5):
        pilot, model, stats, prior = random_case(rng)
        ws = build_workspace(pilot, stats, prior)
        y, _ = draw_y(rng, pilot, model, stats, 0.08)
        est = estimate_cfo_universal(y, ws)
        if not est.converged:
            continue
        g = map_metric(y, est.f_hat, ws)
        assert abs(metric_gradient(y, est.f_hat, ws)) < 1e-6 * (1.0 + abs(g))


# ---------------------------------------------------------------------------
# universal search


def test_noiseless_consistency_td(rng):
    pilot = generate_td_pilot(4, 5)
    model = make_model(4, 4, 1.0)
    stats = build_stats(model, 20)
    ws = build_workspace(pilot, stats, CfoPrior.ml())
    for f_true in (-0.31, 0.1, 0.433):
        y, _ = draw_y(rng, pilot, model, stats, f_true, noisy=False)
        est = estimate_cfo_universal(y, ws)
        assert abs(est.f_hat - f_true) < 1e-8


def test_periodic_pilot_acquisition_range(rng):
    # unscrambled periodic pilots only see lags that are multiples of l_t for
    # zero-mean fading, so the estimate is exact modulo 1/l_t
    pilot = generate_periodic_pilot(4, 5)
    model = make_model(4, 4, 1.0)
    stats = build_stats(model, 20)
    ws = build_workspace(pilot, stats, CfoPrior.ml())
    y, _ = draw_y(rng, pilot, model, stats, 0.3, noisy=False)
    est = estimate_cfo_universal(y, ws)
    alias = abs(wrap_frequency(est.f_hat - 0.3))
    assert min(alias % 0.25, 0.25 - alias % 0.25) < 1e-8


def test_prior_dominated_estimate(rng):
    pilot, model, stats, _ = random_case(rng)
    ws = build_workspace(pilot, stats, CfoPrior(0.12, 1e-18))
    y, _ = draw_y(rng, pilot, model, stats, -0.2)
    est = estimate_cfo_universal(y, ws)
    assert est.f_hat == pytest.approx(0.12, abs=1e-6)


def test_map_reduces_to_ml(rng):
    for _ in range(5):
        pilot, model, stats, _ = random_case(rng)
        y, _ = draw_y(rng, pilot, model, stats, 0.07)
        ws_ml = build_workspace(pilot, stats, CfoPrior.ml())
        ws_wide = build_workspace(pilot, stats, CfoPrior(0.0, 1e12))
        f_ml = estimate_cfo_universal(y, ws_ml).f_hat
        f_wide = estimate_cfo_universal(y, ws_wide).f_hat
        assert abs(f_ml - f_wide) < 1e-9


def test_estimate_always_in_acquisition_range(rng):
    for _ in range(10):
        pilot, model, stats, prior = random_case(rng)
        ws = build_workspace(pilot, stats, prior)
        y, _ = draw_y(rng, pilot, model, stats, float(rng.uniform(-0.5, 0.5)))
        est = estimate_cfo_universal(y, ws)
        assert -0.5 <= est.f_hat < 0.5


def test_degenerate_input_raises_estimation_error(rng):
    pilot, model, stats, _ = random_case(rng)
    zero_mean = ChannelStats(stats.l_t, stats.l_r, stats.n,
                             np.zeros_like(stats.mu_h), stats.sigma_h)
    ws0 = build_workspace(pilot, zero_mean, CfoPrior.ml())
    y0 = np.zeros(model.l_r * pilot.n, dtype=complex)
    with pytest.raises(EstimationError):
        estimate_cfo_universal(y0, ws0)
    # in a batch the degenerate row is marked failed and the others go on
    y, _ = draw_y(rng, pilot, model, stats, 0.1)
    batch = estimate_cfo_universal_batch(np.stack([y, y0, y]), ws0)
    np.testing.assert_array_equal(batch.failed, [False, True, False])
    assert np.isnan(batch.f_hat[1]) and np.isnan(batch.metric[1])
    assert batch.iterations[1] == 0 and not batch.converged[1]
    assert batch.f_hat[0] == batch.f_hat[2] == estimate_cfo_universal(y, ws0).f_hat


def test_per_antenna_input_errors():
    # one prior per receive antenna; y = 0 under zero-mean fading and flat
    # priors is a degenerate metric on every antenna, as in the universal search
    pilot = generate_td_pilot(2, 3)
    stats = build_stats(make_model(2, 2, 0.9), pilot.n)
    y0 = np.zeros(2 * pilot.n, dtype=complex)
    ws = build_workspace(pilot, stats, CfoPrior.ml())
    with pytest.raises(ParameterError, match=r"need one prior per receive antenna \(2\)"):
        estimate_cfo_per_antenna(y0, ws, [CfoPrior.ml()] * 3)
    # anything but one CfoPrior or a sequence of l_r of them is named as such
    for prior in ("ab", (0.1, 0.2), [CfoPrior(), None], 5):
        for call in (lambda: estimate_cfo_per_antenna(y0, ws, prior),
                     lambda: per_antenna_metric(y0, np.zeros(2), ws, prior)):
            with pytest.raises(ParameterError, match=r"need one prior per receive antenna \(2\): "
                               r"a CfoPrior or a sequence of 2 of them, got "):
                call()
    with pytest.raises(EstimationError, match="degenerate metric"):
        estimate_cfo_per_antenna(y0, ws, [CfoPrior.ml()] * 2)


def reference_search(z, mu_f, inv_var, grid_size, epsilon=1e-10, max_iter=10):
    """The universal search on one lag series with every sum over lags taken
    directly against a phase matrix: (f0, iterations, converged), or None
    when every grid denominator is numerically zero."""
    k = np.arange(1, z.size + 1)
    prior_scale = inv_var / (8.0 * np.pi ** 2)

    def step_terms(f):
        phases = np.exp(2j * np.pi * np.outer(f, k))
        return (-np.imag(phases @ (k * z)) / (2.0 * np.pi) + prior_scale * (mu_f - f),
                np.real(phases @ (k * k * z)) + prior_scale)

    def metric(f):
        return (2.0 * np.real(np.exp(2j * np.pi * np.outer(f, k)) @ z)
                - 0.5 * inv_var * f * f + inv_var * mu_f * f)

    grid = -0.5 + np.arange(grid_size) / grid_size
    num, den = step_terms(grid)
    usable = np.abs(den) >= 1e-300
    if not np.any(usable):
        return None
    fe = num[usable] / den[usable]
    candidates = grid[usable] + fe
    metrics = metric(candidates)
    best = np.max(metrics)
    tied = np.flatnonzero(metrics >= best - 1e-12 * max(1.0, abs(best)))
    pick = tied[np.argmin(np.abs(candidates[tied] - mu_f))]
    f0, step, iterations = candidates[pick], fe[pick], 0
    while abs(step) > epsilon and iterations < max_iter:
        num, den = step_terms(np.array([f0]))
        if abs(den[0]) < 1e-300:
            break
        step = num[0] / den[0]
        f0 += step
        iterations += 1
    return f0, iterations, abs(step) <= epsilon


def _check_batch_against_reference_search(rng, case, pilot, model, stats, prior):
    ws = build_workspace(pilot, stats, prior)
    rows = [draw_y(rng, pilot, model, stats, float(rng.uniform(-0.5, 0.5)))[0]
            for _ in range(5)]
    rows.append(np.zeros(model.l_r * pilot.n, dtype=complex))
    batch = estimate_cfo_universal_batch(np.stack(rows), ws)
    for i, y in enumerate(rows):
        ref = reference_search(compute_z(y, ws), prior.mu_f, prior.inv_var, 4 * pilot.n)
        assert batch.failed[i] == (ref is None), (case, i)
        if ref is None:
            continue
        f0, iterations, converged = ref
        assert abs(wrap_frequency(batch.f_hat[i] - f0)) < 1e-9, (case, i)
        assert batch.iterations[i] == iterations, (case, i)
        assert batch.converged[i] == converged, (case, i)
        assert batch.metric[i] == pytest.approx(map_metric(y, batch.f_hat[i], ws),
                                                rel=1e-9, abs=1e-9)


def test_batch_search_matches_reference_search(rng):
    # every row of a batch against the search with direct lag sums: the
    # same offsets up to the refinement tolerance, the same iteration
    # counts and the same failures
    for case in range(20):
        pilot, model, stats, prior = random_case(rng)
        if case % 4 == 0:  # zero-mean stats and ML prior make y = 0 degenerate
            prior = CfoPrior.ml(prior.mu_f)
            stats = ChannelStats(stats.l_t, stats.l_r, stats.n,
                                 np.zeros_like(stats.mu_h), stats.sigma_h)
        _check_batch_against_reference_search(rng, case, pilot, model, stats, prior)
    # and one case of up to n = 64, for the search at sizes the cases above
    # (n <= 12) do not reach
    _check_batch_against_reference_search(rng, "large", *random_case(rng, n_max=64))


@pytest.mark.parametrize("n", [1, 2, 12, 64])
def test_fft_grid_sums_match_direct_sums(n, rng):
    # the G = 4n grid sums of n - 1 lags, from n = 1 (no lags) up
    z = rng.standard_normal((3, n - 1)) + 1j * rng.standard_normal((3, n - 1))
    k = np.arange(1, n)
    grid = -0.5 + np.arange(4 * n) / (4 * n)
    phases = np.exp(2j * np.pi * np.outer(grid, k))
    sums = _grid_sums(z)
    assert sums.shape == (3, 2, 4 * n)
    for row in range(3):
        for m in (1, 2):
            direct = phases @ (k ** m * z[row])
            np.testing.assert_allclose(sums[row, m - 1], direct,
                                       atol=1e-12 * np.sum(k ** m * np.abs(z[row])))


@pytest.mark.parametrize("derotate", [False, True])
def test_batch_results_do_not_depend_on_the_split(derotate, rng):
    # byte-identical per-trial results whether the trials run one by one,
    # all together or in uneven blocks
    pilot = generate_periodic_pilot(4, 3, rho=10.0)
    model = make_model(4, 4, 0.9, spatial="exponential", mean="rician")
    stats = build_stats(model, pilot.n)
    ws = build_workspace(pilot, stats, CfoPrior(0.05, 1e-3))
    rows = np.stack([draw_y(rng, pilot, model, stats, float(f))[0]
                     for f in rng.uniform(-0.3, 0.3, 11)])
    whole = estimate_cfo_universal_batch(rows, ws, derotate_by_prior_mean=derotate)
    fields = ("f_hat", "metric", "iterations", "converged", "failed")
    for cuts in ((3, 7), (1, 2, 10), tuple(range(1, 11))):
        parts = [estimate_cfo_universal_batch(part, ws, derotate_by_prior_mean=derotate)
                 for part in np.split(rows, cuts)]
        for name in fields:
            np.testing.assert_array_equal(
                np.concatenate([getattr(p, name) for p in parts]), getattr(whole, name))
    empty = estimate_cfo_universal_batch(rows[:0], ws, derotate_by_prior_mean=derotate)
    assert all(getattr(empty, name).shape == (0,) for name in fields)
    for i, y in enumerate(rows):
        single = estimate_cfo_universal(y, ws, derotate_by_prior_mean=derotate)
        assert (single.f_hat, single.metric, single.iterations, single.converged) == (
            whole.f_hat[i], whole.metric[i], whole.iterations[i], whole.converged[i])
    # a batch whose refinement temporaries pass numpy's 256 KiB threshold for
    # computing a product in place of a temporary (n = 20, 1000 rows): the
    # complex product must not swap its operands there, or a few rows in a
    # thousand move in the last bit against blocks of 40
    pilot = generate_td_pilot(4, 5, rho=10.0)
    model = make_model(4, 4, 0.99)
    ws = build_workspace(pilot, build_stats(model, pilot.n), CfoPrior(0.1, 1e-5))
    rows = np.stack([synthesize_rx(pilot, 4, f, sample_ar1_trajectory(model, pilot.n, rng),
                                   rng) for f in rng.normal(0.1, 10 ** -2.5, 1000)])
    whole = estimate_cfo_universal_batch(rows, ws, derotate_by_prior_mean=derotate)
    parts = [estimate_cfo_universal_batch(part, ws, derotate_by_prior_mean=derotate)
             for part in np.split(rows, range(40, 1000, 40))]
    for name in fields:
        np.testing.assert_array_equal(
            np.concatenate([getattr(p, name) for p in parts]), getattr(whole, name))


def test_derotation_matches_manual_recentering(rng):
    # the re-centering option must equal: rotate y by exp(-j 2 pi mu_f k),
    # estimate the residual with a zero-mean prior, then shift back
    pilot = generate_td_pilot(2, 6)
    model = make_model(2, 2, 0.95)
    stats = build_stats(model, 12)
    prior = CfoPrior(0.31, 1e-4)
    ws = build_workspace(pilot, stats, prior)
    y, _ = draw_y(rng, pilot, model, stats, 0.32)
    recentered = estimate_cfo_universal(y, ws, derotate_by_prior_mean=True)
    y_rot = (y.reshape(2, 12) * np.exp(-2j * np.pi * 0.31 * np.arange(12))).ravel()
    ws0 = build_workspace(pilot, stats, CfoPrior(0.0, 1e-4))
    manual = estimate_cfo_universal(y_rot, ws0)
    assert recentered.f_hat == pytest.approx(wrap_frequency(manual.f_hat + 0.31),
                                             abs=1e-12)
    assert recentered.f_hat == pytest.approx(0.32, abs=0.01)


# ---------------------------------------------------------------------------
# channel estimation


def test_channel_estimate_zero_input(rng):
    pilot, model, stats, prior = random_case(rng)
    zero_mean = ChannelStats(stats.l_t, stats.l_r, stats.n,
                             np.zeros_like(stats.mu_h), stats.sigma_h)
    ws = build_workspace(pilot, zero_mean, prior)
    y0 = np.zeros(model.l_r * pilot.n, dtype=complex)
    np.testing.assert_array_equal(estimate_channel_mmse(y0, 0.1, ws),
                                  np.zeros(stats.dim))


def test_channel_estimate_matches_normal_equations(rng):
    n, l_t, l_r = 4, 2, 2
    pilot = custom_pilot(rng.standard_normal((n, l_t))
                         + 1j * rng.standard_normal((n, l_t)))
    dim = l_t * l_r * n
    sigma = random_psd(rng, dim)
    mu = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    user_supplied = ChannelStats(l_t, l_r, n, mu, sigma)
    model_built = build_stats(make_model(l_t, l_r, 0.6, spatial="exponential",
                                         mean="rician"), n)
    for stats in (user_supplied, model_built):
        ws = build_workspace(pilot, stats, CfoPrior.ml())
        y = rng.standard_normal(n * l_r) + 1j * rng.standard_normal(n * l_r)
        f_hat = 0.09
        h_hat = estimate_channel_mmse(y, f_hat, ws)
        design = rotated_design(pilot, l_r, f_hat)
        sigma_inv = np.linalg.inv(stats.sigma_h)
        lhs = design.conj().T @ design + sigma_inv
        rhs = design.conj().T @ y + sigma_inv @ stats.mu_h
        h_ref = np.linalg.solve(lhs, rhs)
        assert np.max(np.abs(h_hat - h_ref)) < 1e-9 * max(1.0, np.max(np.abs(h_ref)))


def test_channel_estimate_high_snr_recovers_truth(rng):
    pilot = generate_td_pilot(2, 4, rho=1e6)
    model = make_model(2, 2, 1.0)
    stats = build_stats(model, 8)
    ws = build_workspace(pilot, stats, CfoPrior.ml())
    y, h = draw_y(rng, pilot, model, stats, 0.08, noisy=False)
    est = estimate_cfo_universal(y, ws)
    h_hat = estimate_channel_mmse(y, est.f_hat, ws)
    assert np.max(np.abs(h_hat - h)) < 1e-4


def test_error_covariance_is_gain_matrix(rng):
    pilot, model, stats, _ = random_case(rng)
    gain = mmse_gain(expand_block(pilot, model.l_r), stats.sigma_h)[0]
    assert gain.shape == (stats.dim, stats.dim)
    assert np.max(np.abs(gain - gain.conj().T)) < 1e-10 * max(1.0, np.max(np.abs(gain)))


# ---------------------------------------------------------------------------
# separability and conditional-covariance invariance


def test_posterior_covariance_constant_in_offset(rng):
    pilot = generate_td_pilot(2, 3, rho=1.3)
    model = make_model(2, 2, 0.9, spatial="exponential", mean="rician")
    stats = build_stats(model, pilot.n)
    logdets = []
    for f in np.linspace(-0.5, 0.5, 20, endpoint=False):
        design = rotated_design(pilot, 2, f)
        gain, _ = mmse_gain(design, stats.sigma_h)
        logdets.append(np.linalg.slogdet(gain)[1])
    assert np.max(logdets) - np.min(logdets) < 1e-8


def test_conditional_covariance_determinant_constant_in_offset(rng):
    pilot = generate_periodic_pilot(2, 3, rho=0.8)
    model = make_model(2, 2, 0.7, mean="rician")
    stats = build_stats(model, pilot.n)
    dim = stats.dim
    logdets = []
    for f in np.linspace(-0.5, 0.5, 20, endpoint=False):
        design = rotated_design(pilot, 2, f)
        mat = np.eye(dim) + stats.sigma_h @ (design.conj().T @ design)
        logdets.append(np.linalg.slogdet(mat)[1])
    assert np.max(logdets) - np.min(logdets) < 1e-8


# ---------------------------------------------------------------------------
# per-antenna estimation


def test_per_antenna_gradient_matches_finite_differences(rng):
    pilot, model, stats, prior = random_case(rng, l_r_max=2)
    if model.l_r == 1:
        pilot = generate_td_pilot(2, 3)
        model = make_model(2, 2, 0.8)
        stats = build_stats(model, pilot.n)
        prior = CfoPrior(0.05, 1e-4)
    ws = build_workspace(pilot, stats, prior)
    y, _ = draw_y(rng, pilot, model, stats, 0.06)
    y2 = y.reshape(model.l_r, pilot.n)
    _, mu, inv_var = _prior_vectors(prior, model.l_r)
    fv = rng.uniform(-0.2, 0.2, model.l_r)
    grad, hess = _per_antenna_grad_hess(y2, ws, fv, mu, inv_var)
    step = 1e-6
    for r in range(model.l_r):
        up, down = fv.copy(), fv.copy()
        up[r] += step
        down[r] -= step
        fd = (per_antenna_metric(y, up, ws) - per_antenna_metric(y, down, ws)) / (2 * step)
        assert abs(grad[r] - fd) / max(abs(fd), 1e-9) < 1e-5
    for r1 in range(model.l_r):
        for r2 in range(model.l_r):
            pp, pm, mp, mm = (fv.copy() for _ in range(4))
            pp[r1] += step; pp[r2] += step
            pm[r1] += step; pm[r2] -= step
            mp[r1] -= step; mp[r2] += step
            mm[r1] -= step; mm[r2] -= step
            fd2 = (per_antenna_metric(y, pp, ws) - per_antenna_metric(y, pm, ws)
                   - per_antenna_metric(y, mp, ws) + per_antenna_metric(y, mm, ws)) / (4 * step * step)
            assert abs(hess[r1, r2] - fd2) / max(abs(fd2), 1e-3) < 1e-3


def test_per_antenna_matches_scalar_for_common_offset(rng):
    # spatial covariance block-diagonal across receive antennas and a common
    # true offset: in the exact-recovery regime both code paths must land on
    # the same answer per component
    pilot = generate_td_pilot(2, 4)
    model = make_model(2, 2, 1.0)
    stats = build_stats(model, pilot.n)
    prior = CfoPrior.ml(0.05)
    ws = build_workspace(pilot, stats, prior)
    y, _ = draw_y(rng, pilot, model, stats, 0.05, noisy=False)
    scalar = estimate_cfo_universal(y, ws)
    vector = estimate_cfo_per_antenna(y, ws)
    np.testing.assert_allclose(vector.f_hat,
                               np.full(2, scalar.f_hat), atol=1e-6)


def test_per_antenna_single_receiver_delegates(rng):
    pilot = generate_td_pilot(2, 4)
    model = make_model(2, 1, 0.9)
    stats = build_stats(model, pilot.n)
    prior = CfoPrior(0.0, 1e-3)
    ws = build_workspace(pilot, stats, prior)
    y, _ = draw_y(rng, pilot, model, stats, 0.04)
    scalar = estimate_cfo_universal(y, ws)
    vector = estimate_cfo_per_antenna(y, ws)
    assert vector.f_hat.shape == (1,)
    assert vector.f_hat[0] == scalar.f_hat
    # a prior passed in replaces the workspace's, on the one antenna too
    ml = build_workspace(pilot, stats, CfoPrior.ml())
    assert estimate_cfo_per_antenna(y, ml).metric != vector.metric
    for priors in (prior, [prior]):
        got = estimate_cfo_per_antenna(y, ml, priors)
        assert np.array_equal(got.f_hat, vector.f_hat) and got.metric == vector.metric


def test_per_antenna_noiseless_distinct_offsets(rng):
    pilot = generate_td_pilot(2, 6)
    model = make_model(2, 2, 1.0)
    stats = build_stats(model, pilot.n)
    y, _ = draw_y(rng, pilot, model, stats, np.array([0.05, -0.08]), noisy=False)
    est = estimate_cfo_per_antenna(y, build_workspace(pilot, stats, CfoPrior.ml()))
    np.testing.assert_allclose(est.f_hat, [0.05, -0.08], atol=1e-6)
    assert not est.degraded


def test_per_antenna_degraded_fallback(rng, monkeypatch):
    pilot = generate_td_pilot(2, 4)
    model = make_model(2, 2, 0.9)
    stats = build_stats(model, pilot.n)
    prior = CfoPrior(0.05, 1e-4)
    y, _ = draw_y(rng, pilot, model, stats, 0.05)

    import cfomimo.estimator as est_mod

    def singular(*args, **kwargs):
        return np.zeros(2), np.zeros((2, 2))

    monkeypatch.setattr(est_mod, "_per_antenna_grad_hess", singular)
    est = est_mod.estimate_cfo_per_antenna(y, build_workspace(pilot, stats, prior))
    assert est.degraded and not est.converged
    assert est.f_hat.shape == (2,)


@pytest.mark.parametrize("accepted", [0, 1])
def test_per_antenna_stops_unconverged_when_every_halving_fails(rng, monkeypatch, accepted):
    # after `accepted` steps every step lowers the metric at every length
    # tried: the refinement stops there, unconverged but not degraded, and
    # counts only the steps it took
    import cfomimo.estimator as est_mod

    pilot = generate_td_pilot(2, 4)
    # correlated receive antennas, so stage 1 is not already the joint optimum
    model = make_model(2, 2, 0.9, spatial="exponential", mean="rician")
    stats = build_stats(model, pilot.n)
    ws = build_workspace(pilot, stats, CfoPrior(0.05, 1e-4))
    y, _ = draw_y(rng, pilot, model, stats, 0.05)
    free = estimate_cfo_per_antenna(y, ws)
    assert free.converged and free.iterations > accepted
    metric, grad_hess = est_mod.per_antenna_metric, est_mod._per_antenna_grad_hess
    steps, seen, refused = [], [], []

    def counting(*args):
        steps.append(None)
        return grad_hess(*args)

    def lowered(y, f_vec, ws, prior=None):
        # the final metrics are read at the wrapped offsets, within an ulp
        if len(steps) <= accepted:  # stage 1 and the steps let through
            seen.append(np.array(f_vec))
        elif min(np.max(np.abs(f_vec - f)) for f in seen) > 1e-15:
            refused.append(np.array(f_vec))
            return -np.inf
        return metric(y, f_vec, ws, prior)

    monkeypatch.setattr(est_mod, "_per_antenna_grad_hess", counting)
    monkeypatch.setattr(est_mod, "per_antenna_metric", lowered)
    est = estimate_cfo_per_antenna(y, ws)
    assert not est.converged and not est.degraded
    assert est.iterations == accepted and len(steps) == accepted + 1
    assert len(refused) == NEWTON_HALVINGS + 1  # the full step and each halving
    assert est.metric == metric(y, est.f_hat, ws) > -np.inf


def test_no_refinement_step_leaves_both_searches_unconverged(rng, monkeypatch):
    # MAX_ITER caps both refinements: at 0 the batch search keeps its best
    # grid candidate and the per-antenna search its stage 1, each after 0
    # steps and unconverged, and stage 1 kept as it is is not degraded
    import cfomimo.estimator as est_mod

    pilot = generate_td_pilot(2, 4)
    model = make_model(2, 2, 0.9, spatial="exponential", mean="rician")
    stats = build_stats(model, pilot.n)
    prior = CfoPrior(0.05, 1e-4)
    ws = build_workspace(pilot, stats, prior)
    rows = np.stack([draw_y(rng, pilot, model, stats, f)[0] for f in (-0.3, 0.05, 0.2)])
    free = estimate_cfo_universal_batch(rows, ws)
    free_per_antenna = estimate_cfo_per_antenna(rows[0], ws)
    assert np.all(free.converged) and free_per_antenna.converged
    monkeypatch.setattr(est_mod, "MAX_ITER", 0)
    batch = estimate_cfo_universal_batch(rows, ws)
    assert np.all(batch.iterations == 0) and not np.any(batch.converged | batch.failed)
    est = estimate_cfo_per_antenna(rows[0], ws)
    assert est.iterations == 0 and not est.converged and not est.degraded
    _, mu, inv_var = _prior_vectors(prior, 2)
    z_rows = _lag_terms(rows[0].reshape(2, pilot.n) * np.eye(2)[:, :, None], ws)[0]
    stage1 = wrap_frequency(_universal_search(z_rows, mu, inv_var).f0)
    np.testing.assert_array_equal(est.f_hat, stage1)
    assert est.metric == per_antenna_metric(rows[0], stage1, ws, prior)


@pytest.mark.parametrize("maker,rho_h", [(generate_td_pilot, 1.0),
                                         (generate_periodic_pilot, 0.5)])
def test_per_antenna_never_ends_below_stage_one(maker, rho_h):
    # the complex-kron per-antenna cases of test_separable_stats_match_dense_copy,
    # from the same draws: stage 1 ends at metric 64.8 and 80.1 where the
    # Hessian is indefinite, and full Newton steps from there ended at 43.5
    # without settling and settled at 78.8, below stage 1; uphill steps,
    # halved when they overshoot, must settle above stage 1 instead
    l_t, l_r = 2, 3
    pilot = maker(l_t, 4, rho=1.7)
    model = spatial_model("complex-kron", l_t, l_r, rho_h)
    stats = build_stats(model, pilot.n)
    ws = build_workspace(pilot, stats, CfoPrior.ml())
    rng = np.random.default_rng(11)
    rng.standard_normal(2 * pilot.n * l_r)
    rng.uniform(-0.3, 0.3, l_r)
    rng.standard_normal(2 * pilot.n * l_r)
    x = synthesize_rx(pilot, l_r, 0.04, sample_ar1_trajectory(model, pilot.n, rng), rng)
    prior = CfoPrior(0.0, 1e-3)
    est = estimate_cfo_per_antenna(x, ws, prior)
    # stage 1: the universal search on each antenna's own rows
    _, mu, inv_var = _prior_vectors(prior, l_r)
    z_rows = _lag_terms(x.reshape(l_r, pilot.n) * np.eye(l_r)[:, :, None], ws)[0]
    stage1 = wrap_frequency(_universal_search(z_rows, mu, inv_var).f0)
    stage1_metric = per_antenna_metric(x, stage1, ws, prior)
    assert stage1_metric < {1.0: 65.0, 0.5: 80.2}[rho_h]
    assert est.converged and not est.degraded
    assert est.metric == per_antenna_metric(x, est.f_hat, ws, prior)
    assert est.metric > stage1_metric + 5.0


# ---------------------------------------------------------------------------
# input validation


def _small_case():
    pilot = generate_td_pilot(2, 3)
    model = make_model(2, 2, 0.9)
    stats = build_stats(model, pilot.n)
    prior = CfoPrior(0.05, 1e-4)
    return pilot, model, stats, prior, build_workspace(pilot, stats, prior)


OFFSET_CALLERS = {
    "synthesize_rx": lambda pilot, model, ws, y, f: synthesize_rx(
        pilot, 2, f, np.zeros(model.l_t * model.l_r * pilot.n, dtype=complex)),
    "rotated_design": lambda pilot, model, ws, y, f: rotated_design(pilot, 2, f),
    "estimate_channel_mmse": lambda pilot, model, ws, y, f: estimate_channel_mmse(y, f, ws),
    "per_antenna_metric": lambda pilot, model, ws, y, f: per_antenna_metric(y, f, ws),
    "map_metric": lambda pilot, model, ws, y, f: map_metric(y, f, ws),
    "metric_gradient": lambda pilot, model, ws, y, f: metric_gradient(y, f, ws),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("caller", sorted(OFFSET_CALLERS))
def test_wrong_length_offset_raises(caller, rng):
    # a wrong shape or a non-finite offset, never a silent NaN
    pilot, model, stats, _, ws = _small_case()
    y, _ = draw_y(rng, pilot, model, stats, 0.05)
    for f in (np.zeros(3), np.zeros((2, 2)), np.nan, np.array([0.0, np.inf])):
        with pytest.raises(ParameterError):
            OFFSET_CALLERS[caller](pilot, model, ws, y, f)
    # a complex offset is named, not cast to its real part with numpy's
    # ComplexWarning (an error here), and a ragged one never reaches numpy
    complex_offset = "^offset must be real, got complex values$"
    for f, message in ((0.05 + 1j, complex_offset),
                       (np.array([0.05 + 1j]), complex_offset),
                       ([0.05 + 1j, 0.0], complex_offset),
                       ([[0.0], [0.0, 0.1]], "^offset must be an array of numbers, got list$")):
        with pytest.raises(ParameterError, match=message):
            OFFSET_CALLERS[caller](pilot, model, ws, y, f)


Y_CALLERS = {
    "compute_z": lambda pilot, stats, ws, y: compute_z(y, ws),
    "estimate_cfo_universal_batch": lambda pilot, stats, ws, y: estimate_cfo_universal_batch(
        [y, y], ws),
    "map_metric": lambda pilot, stats, ws, y: map_metric(y, 0.05, ws),
    "per_antenna_metric": lambda pilot, stats, ws, y: per_antenna_metric(y, [0.0, 0.1], ws),
    "estimate_cfo_universal": lambda pilot, stats, ws, y: estimate_cfo_universal(y, ws),
    "estimate_cfo_universal_derotated": lambda pilot, stats, ws, y: estimate_cfo_universal(
        y, ws, derotate_by_prior_mean=True),
    "estimate_cfo_per_antenna": lambda pilot, stats, ws, y: estimate_cfo_per_antenna(y, ws),
    "estimate_channel_mmse": lambda pilot, stats, ws, y: estimate_channel_mmse(y, 0.05, ws),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("caller", sorted(Y_CALLERS))
def test_received_signal_is_validated(caller, rng):
    pilot, model, stats, _, ws = _small_case()
    y, _ = draw_y(rng, pilot, model, stats, 0.05)
    call = Y_CALLERS[caller]
    call(pilot, stats, ws, y)  # a well-formed y passes
    name = r"^y \(l_r\*n = 12 samples a signal\)"
    with pytest.raises(ParameterError, match=name + r" must have shape \(any, 12\), "
                                                    r"got \([12], 5\)$"):
        call(pilot, stats, ws, y[:5])
    for bad in (np.nan, np.inf):
        y_bad = y.copy()
        y_bad[3] = bad
        with pytest.raises(ParameterError, match=name + " has non-finite entries$"):
            call(pilot, stats, ws, y_bad)
    # a ragged signal is named by the array rule before any reshape
    with pytest.raises(ParameterError, match=name + " must be an array of numbers, got list$"):
        call(pilot, stats, ws, [list(y[:6]), list(y[6:11])])


def test_universal_search_always_reports_its_grid(rng):
    # diagnostics are always attached: the usable points of the 4n grid,
    # their candidates after one step and those candidates' metrics; the
    # grid is not an option
    pilot, model, stats, _, ws = _small_case()
    y, _ = draw_y(rng, pilot, model, stats, 0.05)
    est = estimate_cfo_universal(y, ws)
    sizes = {len(est.diagnostics[key]) for key in ("grid_f0", "grid_candidates", "grid_metrics")}
    assert len(sizes) == 1 and 0 < sizes.pop() <= 4 * pilot.n
    assert set(est.diagnostics["grid_f0"]) <= set(-0.5 + np.arange(4 * pilot.n) / (4 * pilot.n))
    assert estimate_cfo_per_antenna(y, ws).diagnostics is None
    for option in ("return_diagnostics", "grid_size"):
        with pytest.raises(TypeError, match=option):
            estimate_cfo_universal(y, ws, **{option: True})
