"""Closed-form Fisher information and Cramer-Rao bounds for the common offset.

The Fisher information of the normalized offset under the Gaussian signal
model is obtained by taking the expected lag series: replace the data terms
of z_k by the moments of y at zero offset,

    E[y] = Sb mu_h,     E[y y^H] = Sb (Sigma_h + mu_h mu_h^H) Sb^H + I,

and accumulate beta = 8 pi^2 Re sum_k k^2 zbar_k.  zbar is the estimator's
lag series at ybar plus the fold of the covariance R = A_r kron M, read in
the same eigen-antenna basis as the trial lag series (see estimator):
with yt = U^H ybar, its folded lag matrix is F[k1, k2] = sum_i K_i[k1, k2]
(a_i M[k2, k1] + conj(yt_i[k1]) yt_i[k2]), and the noise I only reaches
lag 0.  The result does not depend on the true offset.  Bounds follow as

    CRLB  = 1 / beta                (error floor of any unbiased estimator),
    BCRLB = 1 / (beta + 1/sigma_f^2)   (Bayesian version, ML prior gives CRLB).

A Monte-Carlo curvature oracle (finite differences of the exact Gaussian
log-likelihood) is included for validating the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import CfoPrior, ChannelStats, _psd_factor
from .errors import NumericalError, ParameterError
from .estimator import (EstimatorWorkspace, _expected_lags, build_workspace,
                        rotated_design)
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

    Shares the contraction of the estimator: the expected lag series zbar
    is the lag series at ybar plus the fold of the covariance,
    sum_i a_i K_i o M^T in the eigen-antenna basis, so the kernel K is
    contracted against the second moment R + ybar ybar^H + I of y instead
    of an observed y (the noise term I only reaches lag 0).
    """
    ws = workspace or build_workspace(pilot, l_r, stats, CfoPrior.ml())
    n = ws.n
    if n == 1:
        return 0.0
    zbar = _expected_lags(ws)
    lags = np.arange(1, n)
    beta = 8.0 * np.pi ** 2 * float(np.real(np.sum(lags ** 2 * zbar)))
    scale = 8.0 * np.pi ** 2 * float(np.sum(lags ** 2 * np.abs(zbar))) + 1.0
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
    import scipy.linalg  # oracle only; loading it costs about 27 MB of RSS

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
    loglik = np.empty((3, n_samples))
    for idx, f in enumerate((f_probe - step, f_probe, f_probe + step)):
        design = rotated_design(pilot, l_r, f)
        mu_f = design @ stats.mu_h
        cov_f = design @ stats.sigma_h @ design.conj().T + np.eye(d)
        cho = scipy.linalg.cho_factor(0.5 * (cov_f + cov_f.conj().T), check_finite=False)
        logdet = 2.0 * float(np.sum(np.log(np.real(np.diag(cho[0])))))
        resid = samples - mu_f[None, :]
        solved = scipy.linalg.cho_solve(cho, resid.T, check_finite=False)
        quad = np.einsum("ij,ji->i", resid.conj(), solved).real
        loglik[idx] = -logdet - quad
    curvature = (loglik[2] - 2.0 * loglik[1] + loglik[0]) / step ** 2
    return float(-np.mean(curvature))
