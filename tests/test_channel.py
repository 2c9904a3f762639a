import numpy as np
import pytest

from cfomimo import (CfoPrior, ChannelStats, CorrelationModel, ModelError, ParameterError,
                     build_stats,
                     custom_pilot, expand_block, exponential_spatial_cov,
                     generate_td_pilot, make_model, mmse_gain, sample_ar1_trajectory,
                     synthesize_rx)
from cfomimo.channel import _ar1_trajectories, _unit_complex


def scalar_model(rho_h, var=1.0, mean=0.0):
    return CorrelationModel(l_t=1, l_r=1, rho_h=rho_h,
                            spatial_cov=np.array([[var]], dtype=complex),
                            mean=np.array([mean], dtype=complex))


def test_build_stats_fully_correlated():
    stats = build_stats(scalar_model(1.0), 3)
    np.testing.assert_allclose(stats.sigma_h, np.ones((3, 3)), atol=1e-15)
    np.testing.assert_array_equal(stats.mu_h, np.zeros(3))


def test_build_stats_iid_over_time():
    stats = build_stats(scalar_model(0.0), 3)
    np.testing.assert_allclose(stats.sigma_h, np.eye(3), atol=1e-15)


@pytest.mark.parametrize("rho_h", [0.0, 0.3, 0.5, 0.95, 0.99, 1.0])
def test_build_stats_power_table_matches_elementwise_powers(rho_h):
    # time_corr reads n powers rho_h^k through the lag table; it must equal
    # the n^2 powers rho_h^|k-k'| bit for bit
    for n in (1, 2, 7, 24, 64):
        lags = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
        time_corr = build_stats(scalar_model(0.5), n, rho_h).time_corr
        assert time_corr.dtype == np.float64
        np.testing.assert_array_equal(time_corr, rho_h ** lags)


def test_build_stats_geometric_decay():
    stats = build_stats(scalar_model(0.5), 3)
    expected = np.array([
        [1.0, 0.5, 0.25],
        [0.5, 1.0, 0.5],
        [0.25, 0.5, 1.0],
    ])
    np.testing.assert_allclose(stats.sigma_h, expected, atol=1e-15)
    # rho_h given to build_stats replaces the model's, and is range-checked
    override = build_stats(scalar_model(0.9), 3, 0.5)
    np.testing.assert_array_equal(override.sigma_h, stats.sigma_h)
    for bad in (-0.1, 1.5, float("nan")):
        with pytest.raises(ModelError):
            build_stats(scalar_model(0.9), 3, bad)


def test_build_stats_separability_entrywise():
    model = make_model(2, 2, 0.7, spatial="exponential", mean="rician")
    n = 4
    stats = build_stats(model, n)
    c4 = model.spatial_cov.reshape(2, 2, 2, 2)
    sig6 = stats.sigma_h.reshape(2, n, 2, 2, n, 2)
    for r1 in range(2):
        for t1 in range(2):
            for k1 in range(n):
                for r2 in range(2):
                    for t2 in range(2):
                        for k2 in range(n):
                            expected = 0.7 ** abs(k1 - k2) * c4[r1, t1, r2, t2]
                            assert sig6[r1, k1, t1, r2, k2, t2] == pytest.approx(expected)


@pytest.mark.parametrize("rho_h", [0.0, 0.3, 0.7, 1.0])
@pytest.mark.parametrize("spatial", ["iid", "exponential"])
def test_build_stats_always_hermitian_psd(rho_h, spatial):
    model = make_model(2, 2, rho_h, spatial=spatial, mean="rician", rician_k=0.5)
    stats = build_stats(model, 5)
    sigma = stats.sigma_h
    assert np.max(np.abs(sigma - sigma.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(sigma)[0] > -1e-10


def test_time_replicated_mean():
    model = make_model(2, 2, 0.5, mean="rician", rician_k=1.0)
    stats = build_stats(model, 3)
    mu3 = stats.mu_h.reshape(2, 3, 2)
    for k in range(3):
        np.testing.assert_allclose(mu3[:, k, :].ravel(), model.mean)


def test_rician_split_keeps_unit_power():
    model = make_model(2, 2, 0.5, mean="rician", rician_k=1.0)
    assert model.per_coefficient_power() == pytest.approx(1.0)
    np.testing.assert_allclose(np.diag(model.spatial_cov), 0.5)
    np.testing.assert_allclose(model.mean, np.sqrt(0.5))


def test_non_psd_spatial_rejected():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex)  # eigenvalue -1
    with pytest.raises(ModelError):
        CorrelationModel(l_t=2, l_r=1, rho_h=0.5, spatial_cov=bad,
                         mean=np.zeros(2, dtype=complex))
    # non-finite entries are named before any eigenvalue solve sees them
    for cov, mean, name in ((np.diag([1.0, np.inf]), np.zeros(2), "spatial_cov"),
                            (np.diag([1.0, np.nan]), np.zeros(2), "spatial_cov"),
                            (np.eye(2), np.array([0.0, np.inf]), "mean")):
        with pytest.raises(ModelError, match=f"^{name} has non-finite entries$"):
            CorrelationModel(l_t=2, l_r=1, rho_h=0.5, spatial_cov=cov, mean=mean)


def test_malformed_model_stats_and_channel_are_rejected_by_name():
    # each message names the argument at fault
    pilot = generate_td_pilot(1, 2)
    nan_at_1 = np.array([0.0, np.nan, 0.0, 0.0])
    cases = [
        (lambda: CorrelationModel(l_t=2, l_r=1, rho_h=0.5, spatial_cov=np.eye(3),
                                  mean=np.zeros(2)), ModelError,
         r"spatial_cov must have shape \(2, 2\), got \(3, 3\)"),
        (lambda: CorrelationModel(l_t=2, l_r=1, rho_h=0.5, spatial_cov=np.eye(2),
                                  mean=np.zeros(3)), ModelError,
         r"mean must have shape \(2,\), got \(3,\)"),
        (lambda: exponential_spatial_cov(2.5, 2), ModelError,
         "l_t must be an integer >= 1, got 2.5"),
        (lambda: exponential_spatial_cov(2, 0), ModelError,
         "l_r must be an integer >= 1, got 0"),
        (lambda: make_model(2, 2, 0.5, spatial="bogus"), ModelError,
         "unknown spatial model 'bogus'"),
        (lambda: make_model(2, 2, 0.5, mean="rician", rician_k=-1.0), ModelError,
         "rician_k must be nonnegative"),
        (lambda: make_model(2, 2, 0.5, mean="rician", rician_k=float("nan")), ModelError,
         "rician_k must be nonnegative and finite, got nan"),
        (lambda: make_model(2, 2, 0.5, mean="rician", rician_k=float("inf")), ModelError,
         "rician_k must be nonnegative and finite, got inf"),
        (lambda: make_model(2, 2, 0.5, mean="bogus"), ModelError, "unknown mean model 'bogus'"),
        (lambda: ChannelStats(1, 2, 2, np.zeros(3), np.eye(4)), ModelError,
         r"mu_h must have shape \(4,\), got \(3,\)"),
        (lambda: ChannelStats(1, 2, 2, np.zeros(4), np.eye(3)), ModelError,
         r"sigma_h must have shape \(4, 4\), got \(3, 3\)"),
        # a NaN or inf in the stats is named, not left to the workspace or
        # the bounds to blame on conditioning or a negative beta
        (lambda: ChannelStats(1, 2, 2, nan_at_1, np.eye(4)), ModelError,
         "^mu_h has non-finite entries$"),
        (lambda: ChannelStats(1, 2, 2, np.array([0.0, np.inf, 0.0, 0.0]), np.eye(4)),
         ModelError, "^mu_h has non-finite entries$"),
        (lambda: ChannelStats(1, 2, 2, np.zeros(4), np.diag(1.0 + nan_at_1)), ModelError,
         "^sigma_h has non-finite entries$"),
        (lambda: synthesize_rx(pilot, 2, 0.0, np.zeros(3)), ParameterError,
         r"channel vector h \(l_r\*n\*l_t\) must have shape \(4,\), got \(3,\)"),
        (lambda: synthesize_rx(pilot, 2, 0.0, nan_at_1), ParameterError,
         r"^channel vector h \(l_r\*n\*l_t\) has non-finite entries$"),
        (lambda: synthesize_rx(pilot, 2.0, 0.0, np.zeros(4)), ParameterError,
         "l_r must be an integer >= 1, got 2.0"),
        (lambda: synthesize_rx(pilot, 0, 0.0, np.zeros(0)), ParameterError,
         "l_r must be an integer >= 1, got 0"),
        # mmse_gain names a design and a covariance that do not fit, or a NaN
        (lambda: mmse_gain(expand_block(pilot, 2), np.eye(3)), ParameterError,
         r"sigma_h must have shape \(4, 4\), got \(3, 3\)"),
        (lambda: mmse_gain(expand_block(pilot, 2), np.diag(1.0 + nan_at_1)), ParameterError,
         "^sigma_h has non-finite entries$"),
        (lambda: mmse_gain(np.full((2, 2), np.nan), np.eye(2)), ParameterError,
         "^design has non-finite entries$"),
    ]
    for make, error, message in cases:
        with pytest.raises(error, match=message):
            make()


def _count_decompositions(monkeypatch) -> list:
    calls = []
    for name in ("cholesky", "eigvalsh", "eigh"):
        def counted(*args, _inner=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append(_name)
            return _inner(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_psd_check_and_sampler_factor_share_one_cholesky(monkeypatch):
    cov = make_model(2, 3, 0.5, spatial="exponential", spatial_a=0.7).spatial_cov
    calls = _count_decompositions(monkeypatch)
    model = CorrelationModel(l_t=2, l_r=3, rho_h=0.5, spatial_cov=cov,
                             mean=np.zeros(6, dtype=complex))
    assert calls == ["cholesky"]  # the check's factor is the sampler's
    monkeypatch.undo()
    np.testing.assert_array_equal(model._spatial_factor, np.linalg.cholesky(cov))


def test_psd_check_falls_back_to_eigenvalues(monkeypatch):
    # a singular covariance fails Cholesky and is accepted by its eigenvalues;
    # the one eigh behind that check also gives the sampler's factor
    calls = _count_decompositions(monkeypatch)
    ones = np.ones((3, 3), dtype=complex)  # rank one
    model = CorrelationModel(l_t=3, l_r=1, rho_h=0.5, spatial_cov=ones,
                             mean=np.zeros(3, dtype=complex))
    assert calls == ["cholesky", "eigh"]
    factor = model._spatial_factor
    np.testing.assert_allclose(factor @ factor.conj().T, ones, atol=1e-12)
    # an eigenvalue of -1e-3 is rejected with the eigenvalue check's message
    rng = np.random.default_rng(3)
    q = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    bad = (q * np.array([1.0, 0.5, -1e-3])) @ q.conj().T
    with pytest.raises(ModelError, match=r"spatial_cov is not positive semidefinite "
                                         r"\(eigmin -1\.000e-03\)"):
        CorrelationModel(l_t=3, l_r=1, rho_h=0.5, spatial_cov=bad,
                         mean=np.zeros(3, dtype=complex))


def test_dense_stats_check_unchanged():
    # a directly constructed ChannelStats accepts a positive definite and a
    # singular sigma_h and rejects a non-Hermitian or indefinite one
    mu = np.zeros(3, dtype=complex)
    for rho_h in (0.5, 1.0):  # rho_h = 1 makes sigma_h rank one
        sigma = build_stats(scalar_model(rho_h), 3).sigma_h
        np.testing.assert_array_equal(ChannelStats(1, 1, 3, mu, sigma).sigma_h, sigma)
    skew = np.eye(3, dtype=complex)
    skew[0, 1] = 0.5
    with pytest.raises(ModelError, match="sigma_h is not Hermitian"):
        ChannelStats(1, 1, 3, mu, skew)
    with pytest.raises(ModelError, match="sigma_h is not positive semidefinite"):
        ChannelStats(1, 1, 3, mu, np.diag([1.0, 1.0, -1e-3]).astype(complex))


def test_dense_stats_check_takes_eigenvalues_only(monkeypatch):
    # ChannelStats keeps no factor, so a singular sigma_h that fails Cholesky
    # is checked by its eigenvalues alone, never by a full eigh
    sigma = build_stats(scalar_model(1.0), 3).sigma_h  # rank one
    calls = _count_decompositions(monkeypatch)

    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh computes eigenvectors the check drops")
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    stats = ChannelStats(1, 1, 3, np.zeros(3, dtype=complex), sigma)
    assert calls == ["cholesky", "eigvalsh"]
    np.testing.assert_array_equal(stats.sigma_h, sigma)


def test_repr_of_model_stats_forms_no_dense_covariance():
    # a dataclass repr would read the cached dense sigma_h, 1 GB at (8,16,8)
    stats = build_stats(make_model(2, 3, 0.9, spatial="exponential"), 4)
    assert repr(stats) == "ChannelStats(l_t=2, l_r=3, n=4, separable)"
    assert "sigma_h" not in vars(stats)


def test_rho_h_range_checked():
    with pytest.raises(ModelError):
        scalar_model(1.5)
    with pytest.raises(ModelError):
        scalar_model(-0.1)


def test_ar1_frozen_channel_is_constant(rng):
    model = make_model(2, 2, 1.0)
    h = sample_ar1_trajectory(model, 6, rng).reshape(2, 6, 2)
    for k in range(1, 6):
        np.testing.assert_allclose(h[:, k, :], h[:, 0, :], atol=1e-12)


def test_ar1_iid_matches_spatial_covariance(rng):
    # rho_h = 0: every symbol is a fresh draw, so pooling times gives many samples
    model = make_model(2, 1, 0.0, spatial="exponential", spatial_a=0.4, spatial_b=0.4)
    n, trials = 5, 20000
    pool = _ar1_trajectories(model, n, rng.standard_normal((trials, 4 * n)))
    pool = pool.reshape(trials * n, 2)  # l_r = 1, d = 2
    count = pool.shape[0]
    emp = (pool.conj().T @ pool / count).T  # E[h h^H]
    band = 3.0 / np.sqrt(count)
    assert np.max(np.abs(emp - model.spatial_cov)) < band


def test_ar1_lag_one_autocorrelation(rng):
    rho = 0.9
    model = scalar_model(rho)
    n, trials = 6, 100000
    h = _ar1_trajectories(model, n, rng.standard_normal((trials, 2 * n)))
    lag1 = np.sum(h[:, 1:] * np.conj(h[:, :-1])).real / trials / (n - 1)
    marginal = np.sum(np.abs(h) ** 2) / trials / n
    assert lag1 / marginal == pytest.approx(rho, abs=0.01)


def test_ar1_mean_is_constant(rng):
    model = make_model(1, 1, 0.6, mean="rician", rician_k=2.0)
    trials, n = 20000, 4
    avg = np.mean(_ar1_trajectories(model, n, rng.standard_normal((trials, 2 * n))), axis=0)
    np.testing.assert_allclose(avg, model.mean[0] * np.ones(n), atol=0.02)


@pytest.mark.parametrize("l_t, l_r, n, trials, options", [
    (1, 1, 6, 500, dict(rho_h=0.9)),
    (2, 1, 5, 200, dict(rho_h=0.0, spatial="exponential", spatial_a=0.4, spatial_b=0.4)),
    (1, 1, 4, 200, dict(rho_h=0.6, mean="rician", rician_k=2.0)),
    (3, 2, 7, 100, dict(rho_h=0.7, spatial="exponential", mean="rician")),
])
def test_ar1_batch_matches_sequential_trajectories(l_t, l_r, n, trials, options):
    # the batch core, from one (trials, 2*n*d) draw, reads the same normals
    # as one sample_ar1_trajectory call per trajectory, in order; only the
    # spatial product's rounding may differ, one (trials*n, d) matmul
    # against trials (n, d) ones
    model = make_model(l_t, l_r, **options)
    normals = np.random.default_rng(5).standard_normal((trials, 2 * n * l_t * l_r))
    batch = _ar1_trajectories(model, n, normals)
    rng = np.random.default_rng(5)
    sequential = np.array([sample_ar1_trajectory(model, n, rng) for _ in range(trials)])
    assert batch.shape == sequential.shape == (trials, l_t * l_r * n)
    np.testing.assert_allclose(batch, sequential, rtol=1e-14, atol=0.0)


def test_psd_factor_handles_singular():
    cov = np.ones((3, 3), dtype=complex)  # rank one
    factor = CorrelationModel(l_t=3, l_r=1, rho_h=0.5, spatial_cov=cov,
                              mean=np.zeros(3, dtype=complex))._spatial_factor
    np.testing.assert_allclose(factor @ factor.conj().T, cov, atol=1e-12)


def test_complex_gaussian_unit_variance_split(rng):
    draws = _unit_complex(rng.standard_normal(1000000), rng.standard_normal(1000000))
    assert np.var(draws.real) == pytest.approx(0.5, rel=0.01)
    assert np.var(draws.imag) == pytest.approx(0.5, rel=0.01)
    assert np.mean(np.abs(draws) ** 2) == pytest.approx(1.0, rel=0.01)


def test_synthesize_constant_channel_no_offset():
    pilot = custom_pilot(np.ones((4, 1), dtype=complex))
    h = np.full(4, 2.0 - 1.0j)
    y = synthesize_rx(pilot, 1, 0.0, h, None)
    np.testing.assert_allclose(y, np.full(4, 2.0 - 1.0j), atol=1e-15)


def test_synthesize_quarter_cycle_rotation():
    pilot = custom_pilot(np.ones((4, 1), dtype=complex))
    y = synthesize_rx(pilot, 1, 0.25, np.ones(4, dtype=complex), None)
    np.testing.assert_allclose(y, np.array([1.0, 1j, -1.0, -1j]), atol=1e-12)


def test_synthesize_matches_matrix_form(rng):
    model = make_model(2, 2, 0.5, spatial="exponential", mean="rician")
    n = 6
    pilot = generate_td_pilot(2, 3, rho=1.4)
    h = sample_ar1_trajectory(model, n, rng)
    f = 0.07
    y = synthesize_rx(pilot, 2, f, h, None)
    phases = np.tile(np.exp(2j * np.pi * f * np.arange(n)), 2)
    oracle = phases * (expand_block(pilot, 2) @ h)
    np.testing.assert_allclose(y, oracle, atol=1e-12)


def test_synthesize_per_antenna_offsets(rng):
    model = make_model(1, 2, 1.0)
    pilot = custom_pilot(np.ones((3, 1), dtype=complex))
    h = np.ones(6, dtype=complex)
    y = synthesize_rx(pilot, 2, np.array([0.25, -0.25]), h, None).reshape(2, 3)
    np.testing.assert_allclose(y[0], np.array([1.0, 1j, -1.0]), atol=1e-12)
    np.testing.assert_allclose(y[1], np.array([1.0, -1j, -1.0]), atol=1e-12)


def test_synthesize_linear_and_phase_equivariant(rng):
    model = make_model(2, 2, 0.8)
    pilot = generate_td_pilot(2, 3)
    h1 = sample_ar1_trajectory(model, 6, rng)
    h2 = sample_ar1_trajectory(model, 6, rng)
    f = 0.11
    y1 = synthesize_rx(pilot, 2, f, h1, None)
    y2 = synthesize_rx(pilot, 2, f, h2, None)
    y12 = synthesize_rx(pilot, 2, f, 2.0 * h1 + 3.0 * h2, None)
    np.testing.assert_allclose(y12, 2.0 * y1 + 3.0 * y2, atol=1e-12)
    phase = np.exp(0.73j)
    np.testing.assert_allclose(synthesize_rx(pilot, 2, f, phase * h1, None),
                               phase * y1, atol=1e-12)


def test_synthesize_noise_variance(rng):
    pilot = custom_pilot(np.ones((1000, 1), dtype=complex))
    h = np.zeros(1000, dtype=complex)
    samples = np.concatenate([synthesize_rx(pilot, 1, 0.0, h, rng)
                              for _ in range(100)])
    assert np.mean(np.abs(samples) ** 2) == pytest.approx(1.0, rel=0.01)
    assert np.var(samples.real) == pytest.approx(0.5, rel=0.02)


def test_prior_modes():
    ml = CfoPrior.ml(0.1)
    assert ml.is_ml and ml.inv_var == 0.0
    gauss = CfoPrior(0.1, 1e-5)
    assert not gauss.is_ml
    assert gauss.inv_var == pytest.approx(1e5)
    with pytest.raises(ModelError):
        CfoPrior(0.0, 0.0)
    for mu_f in (np.inf, -np.inf, np.nan):
        with pytest.raises(ModelError, match="mu_f"):
            CfoPrior(mu_f, 1e-5)
    with pytest.raises(ModelError):
        ml.sample(np.random.default_rng(0))


def test_size_arguments_must_be_integers(rng):
    # a float or a bool size is rejected with the site's own error class
    for l_t, l_r, name in ((2.5, 2, "l_t"), (2, 2.5, "l_r"), (True, 2, "l_t"), (2, 0, "l_r")):
        with pytest.raises(ModelError, match=name):
            make_model(l_t, l_r, 0.5)
    with pytest.raises(ModelError, match="l_r"):
        CorrelationModel(l_t=1, l_r=True, rho_h=0.5, spatial_cov=np.eye(1), mean=np.zeros(1))
    model = make_model(2, 2, 0.5)
    for n in (2.5, True, 0):
        with pytest.raises(ParameterError, match="n must be an integer"):
            build_stats(model, n)
        with pytest.raises(ParameterError, match="n must be an integer"):
            sample_ar1_trajectory(model, n, rng)
    assert build_stats(model, np.int64(3)).n == 3
