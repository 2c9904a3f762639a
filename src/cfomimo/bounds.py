"""Closed-form Fisher information and Cramer-Rao bounds for the common offset.

The Fisher information of the normalized offset under the Gaussian signal
model is obtained by taking the expected lag series: replace the data terms
of z_k by the moments of y at zero offset,

    E[y] = Sb mu_h,     E[y y^H] = Sb (Sigma_h + mu_h mu_h^H) Sb^H + I,

and accumulate beta = 8 pi^2 Re sum_k k^2 zbar_k.  In the eigen-antenna
basis of the trial lag series (see estimator), with yt = U^H ybar, the
covariance R = A_r kron M and W[k1, k2] = (k1 - k2)^2 for k1 > k2 (zero
elsewhere), that sum is a set of quadratic forms,

    sum_k k^2 zbar_k = sum_i [yt_i^H (W o K_i) yt_i + a_i <W o K_i, M^T>]
                       + sum_k k^2 first_k,

with <A, B> = sum A o B and first_k = sum_r lin[r, k] conj(ybar[r, k]);
the noise I only reaches lag 0.  The result does not depend on the true
offset.  Bounds follow as

    CRLB  = 1 / beta                (error floor of any unbiased estimator),
    BCRLB = 1 / (beta + 1/sigma_f^2)   (Bayesian version, ML prior gives CRLB).

A Monte-Carlo curvature oracle (finite differences of the exact Gaussian
log-likelihood) is included for validating the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import CfoPrior, ChannelStats, _psd_factor, _rotation
from .errors import NumericalError, ParameterError
from .estimator import EstimatorWorkspace, _workspace_for, rotated_design
from .pilots import PilotMatrix

BETA_REL_TOL = 1e-9


@dataclass(frozen=True)
class BoundResult:
    """Fisher information beta with the derived CRLB and BCRLB (variances)."""

    beta: float
    crlb: float
    bcrlb: float


def compute_beta(pilot: PilotMatrix, l_r: int, stats: ChannelStats, *,
                 workspace: EstimatorWorkspace | None = None) -> float:
    """Closed-form Fisher information of the common normalized offset.

    The k^2-weighted expected lag series, read as quadratic forms in the
    workspace's kernels K_i (see the module docstring): the kernel K is
    contracted against the second moment R + ybar ybar^H + I of y instead
    of an observed y (the noise term I only reaches lag 0).  A workspace
    passed in must be built for this pilot, l_r and stats.
    """
    ws = _workspace_for(pilot, l_r, stats, CfoPrior.ml(), workspace)
    n = ws.n
    if n == 1:
        return 0.0
    p, q = ws.kernels.shape[:2]
    k = np.arange(q) % n  # the symbol time of each row of a kernel
    lag = np.subtract.outer(k, k)
    weighted = np.where(lag > 0, lag * lag, 0) * ws.kernels  # W o K_i
    yt = ws.U.conj().T @ ws.ybar.reshape(p, q)
    first = np.einsum("rk,rk->k", ws.lin_table, ws.ybar.reshape(l_r, n).conj())

    def total(f):
        kernels, rows = f(weighted), f(yt)
        mean = np.vdot(rows, np.matmul(kernels, rows[..., None])[..., 0])
        cov = f(ws.a) @ (kernels.reshape(p, -1) @ f(ws.M).T.ravel())
        return mean + cov + np.arange(n) ** 2 @ f(first)

    beta = 8.0 * np.pi ** 2 * float(np.real(total(lambda x: x)))
    # every term in absolute value: a bound on the rounding of the sum
    scale = 8.0 * np.pi ** 2 * float(total(np.abs)) + 1.0
    if beta < -BETA_REL_TOL * scale:
        raise NumericalError(f"Fisher information came out negative ({beta:.3e})")
    return max(beta, 0.0)


def compute_bounds(beta: float, prior: CfoPrior, *, beta_floor: float = 0.0) -> BoundResult:
    """CRLB and BCRLB from a Fisher information value.

    beta below beta_floor is treated as exactly zero: the bound is then
    beyond numerical resolvability and the CRLB is reported infinite.
    """
    if beta < 0:
        raise ParameterError("beta must be nonnegative")
    effective = 0.0 if beta < beta_floor else beta
    crlb = math.inf if effective == 0.0 else 1.0 / effective
    denom = effective + prior.inv_var
    bcrlb = math.inf if denom == 0.0 else 1.0 / denom
    return BoundResult(beta=beta, crlb=crlb, bcrlb=bcrlb)


def resolvability_floor(pilot: PilotMatrix) -> float:
    """Fisher values below 1e-14 n^2 rho^2 are indistinguishable from zero."""
    return 1e-14 * pilot.n ** 2 * pilot.rho ** 2


def evaluate_bounds(pilot: PilotMatrix, l_r: int, stats: ChannelStats,
                    prior: CfoPrior, *, workspace: EstimatorWorkspace | None = None
                    ) -> BoundResult:
    """compute_beta + compute_bounds with the standard resolvability floor."""
    beta = compute_beta(pilot, l_r, stats, workspace=workspace)
    return compute_bounds(beta, prior, beta_floor=resolvability_floor(pilot))


def fisher_oracle(pilot: PilotMatrix, l_r: int, stats: ChannelStats,
                  prior: CfoPrior | None = None, f_probe: float = 0.0,
                  n_samples: int = 10000, rng: np.random.Generator | None = None,
                  step: float = 1e-4) -> float:
    """Monte-Carlo estimate of the Fisher information at a probe offset.

    Draws y from the exact conditional law at f_probe and averages the
    central second difference of the Gaussian log-likelihood.  The prior
    term is deliberately excluded, so the estimate targets beta itself;
    the prior argument is accepted only for interface symmetry.
    """
    del prior
    if n_samples < 1:
        raise ParameterError("n_samples must be positive")
    rng = rng or np.random.default_rng()
    probe_design = rotated_design(pilot, l_r, f_probe)
    mu_y = probe_design @ stats.mu_h
    cov_y = probe_design @ stats.sigma_h @ probe_design.conj().T + np.eye(mu_y.size)
    cov_y = 0.5 * (cov_y + cov_y.conj().T)
    factor = _psd_factor(cov_y)
    d = mu_y.size
    z = (rng.standard_normal((n_samples, d)) + 1j * rng.standard_normal((n_samples, d)))
    samples = mu_y[None, :] + (z / np.sqrt(2.0)) @ factor.T
    # the law at f is D(f) times that at 0, with D(f) the unitary rotation:
    # one eigendecomposition of cov_0 = D^H cov_y D scores every offset on
    # the de-rotated residuals D(f)^H y - mu_0, and log det cov_f = log det
    # cov_0 drops out of the second difference
    probe = _rotation(f_probe, l_r, pilot.n).ravel()
    eig, vec = np.linalg.eigh(probe.conj()[:, None] * cov_y * probe[None, :])
    mu_0 = probe.conj() * mu_y
    loglik = np.empty((3, n_samples))
    for idx, f in enumerate((f_probe - step, f_probe, f_probe + step)):
        proj = (samples * _rotation(f, l_r, pilot.n).conj().ravel() - mu_0) @ vec.conj()
        loglik[idx] = -(np.abs(proj) ** 2) @ (1.0 / eig)
    curvature = (loglik[2] - 2.0 * loglik[1] + loglik[0]) / step ** 2
    return float(-np.mean(curvature))
