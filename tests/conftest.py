import numpy as np
import pytest

from cfomimo import (CfoPrior, CorrelationModel, build_stats, expand_block,
                     generate_periodic_pilot, generate_td_pilot, make_model,
                     mmse_gain)


def random_psd(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return raw @ raw.conj().T / dim + 0.1 * np.eye(dim)


def _hermitian(matrix):
    return 0.5 * (matrix + matrix.conj().T)


def spatial_model(spatial, l_t, l_r, rho_h):
    """A Rician model whose spatial covariance is iid, exponential, a
    Kronecker product of complex Hermitian factors, or a PSD matrix that
    is not a Kronecker product."""
    if spatial in ("iid", "exponential"):
        return make_model(l_t, l_r, rho_h, spatial=spatial, spatial_a=0.6,
                          spatial_b=0.4, mean="rician", rician_k=1.5)
    rng = np.random.default_rng(5)
    if spatial == "complex-kron":
        cov = np.kron(_hermitian(random_psd(rng, l_r)), _hermitian(random_psd(rng, l_t)))
    else:
        cov = _hermitian(random_psd(rng, l_t * l_r))
    mean = 0.5 * np.exp(2j * np.pi * rng.random(l_t * l_r))
    return CorrelationModel(l_t, l_r, rho_h, cov, mean)


def dense_gain_and_offset(pilot, l_r, stats):
    """The channel-space MMSE error covariance A = (Sb^H Sb + Sigma_h^{-1})^{-1}
    and offset b = (I - A Sb^H Sb) mu_h, formed densely for the oracles."""
    sb = expand_block(pilot, l_r)
    gain = mmse_gain(sb, stats.sigma_h)[0]
    return gain, stats.mu_h - gain @ (sb.conj().T @ (sb @ stats.mu_h))


def dense_kernel(ws):
    """The workspace's quadratic kernel K = sum_i (u_i u_i^H) kron K_i, dense."""
    p, q = ws.kernels.shape[:2]
    weights = (ws.U[:, None, :] * ws.U.conj()[None, :, :]).reshape(p * p, p)
    kernel = (weights @ ws.kernels.reshape(p, q * q)).reshape(p, p, q, q)
    return kernel.transpose(0, 2, 1, 3).reshape(p * q, p * q)


def random_case(rng, l_t_max=2, l_r_max=2, n_max=12, allow_frozen=True):
    """One random (pilot, model, stats, prior) configuration for property tests."""
    l_t = int(rng.integers(1, l_t_max + 1))
    l_r = int(rng.integers(1, l_r_max + 1))
    m = int(rng.integers(2, max(3, n_max // l_t) + 1))
    scrambling = np.exp(2j * np.pi * rng.random(l_t * m))
    maker = generate_periodic_pilot if rng.random() < 0.5 else generate_td_pilot
    pilot = maker(l_t, m, rho=float(rng.uniform(0.5, 5.0)), scrambling=scrambling)
    rho_h = float(rng.uniform(0.0, 1.0 if allow_frozen else 0.999))
    model = make_model(
        l_t, l_r, rho_h,
        spatial="exponential" if rng.random() < 0.5 else "iid",
        spatial_a=float(rng.uniform(0.1, 0.9)),
        spatial_b=float(rng.uniform(0.1, 0.9)),
        sigma_h_sq=float(rng.uniform(0.5, 2.0)),
        mean="rician" if rng.random() < 0.5 else "zero",
        rician_k=float(rng.uniform(0.2, 3.0)))
    stats = build_stats(model, pilot.n)
    if rng.random() < 0.25:
        prior = CfoPrior.ml(float(rng.uniform(-0.2, 0.2)))
    else:
        prior = CfoPrior(float(rng.uniform(-0.2, 0.2)),
                         float(rng.uniform(1e-6, 1e-2)))
    return pilot, model, stats, prior


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
