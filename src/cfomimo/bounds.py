"""Closed-form Fisher information and Cramer-Rao bounds for the common offset.

Under the Gaussian signal model y has the law CN(D(f) ybar, D(f) C D(f)^H)
at offset f, with

    ybar = Sb mu_h,     C = R + I,     R = Sb Sigma_h Sb^H,

and D(f) = diag(exp(j 2 pi f k)) the rotation, k the symbol time of each
receive sample.  With K = diag(k), d/df D = j 2 pi K D, so the Gaussian
Fisher formula 2 Re(mu'^H C^{-1} mu') + tr(C^{-1} C' C^{-1} C') gives

    beta = 8 pi^2 (K ybar)^H C^{-1} (K ybar) - 4 pi^2 tr(C^{-1} [K, C] C^{-1} [K, C]),

which does not depend on the true offset.  In R's eigenbasis W = U kron V
(see estimator: R = A_r kron M, A_r = U diag(a) U^H, M = V diag(m) V^H,
lam_ij = a_i m_j) C is diagonal, K becomes I kron Kt with Kt = V^H diag(k) V
and [K, C] has entries Kt_jl a_i (m_l - m_j) on each eigen-antenna i, so

    beta = 8 pi^2 [ sum_ij |t_ij|^2 / (1 + lam_ij)
                    + 1/2 sum_i a_i^2 sum_jl |Kt_jl|^2 (m_j - m_l)^2
                                              / ((1 + lam_ij)(1 + lam_il)) ],

t = U^H (ybar o k) conj(V) of shape (p, q): a sum of nonnegative terms once
I + R is positive definite.  Bounds follow as

    CRLB  = 1 / beta                (error floor of any unbiased estimator),
    BCRLB = 1 / (beta + 1/sigma_f^2)   (Bayesian version, ML prior gives CRLB).

A Monte-Carlo curvature oracle (finite differences of the exact Gaussian
log-likelihood) is included for validating the closed form.  Like the
closed form, it works in the n*l_r receive space, on R and ybar; nothing
in this module forms Sigma_h or a channel-space design matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import CfoPrior, ChannelStats, _rotation, _unit_complex
from .errors import ParameterError, _check_int
from .estimator import EstimatorWorkspace, _workspace_for
from .pilots import PilotMatrix


@dataclass(frozen=True)
class BoundResult:
    """Fisher information beta with the derived CRLB and BCRLB (variances)."""

    beta: float
    crlb: float
    bcrlb: float


def compute_beta(pilot: PilotMatrix, l_r: int, stats: ChannelStats, *,
                 workspace: EstimatorWorkspace | None = None) -> float:
    """Closed-form Fisher information of the common normalized offset.

    The eigenbasis form of the Gaussian Fisher formula (see the module
    docstring), read from the workspace's eigenpairs of R alone: a, U, m,
    V and ybar, never the kernels or the linear table.  k is the symbol
    time of each of the q rows of a factor, arange(q) mod n, so dense stats
    (p = 1, q = n*l_r) run the same code.  Every term is nonnegative, and a
    single symbol, n = 1, has k = 0 and hence beta = 0.  A workspace passed
    in must be built for this pilot, l_r and stats.
    """
    ws = _workspace_for(pilot, l_r, stats, CfoPrior.ml(), workspace)
    p, q = ws.a.size, ws.m.size
    k = np.arange(q) % ws.n
    scale = 1.0 / (1.0 + np.multiply.outer(ws.a, ws.m))  # 1 / (1 + lam), (p, q)
    t = ws.U.conj().T @ (ws.ybar.reshape(p, q) * k) @ ws.V.conj()
    # |Kt_jl (m_j - m_l)|^2, Kt = V^H diag(k) V: the commutator [diag(k), M] in M's eigenbasis
    spread = (np.abs(ws.V.conj().T @ (k[:, None] * ws.V)) * np.subtract.outer(ws.m, ws.m)) ** 2
    terms = np.abs(t) ** 2 + 0.5 * ws.a[:, None] ** 2 * (scale @ spread)
    return 8.0 * np.pi ** 2 * float(np.sum(scale * terms))


def compute_bounds(beta: float, prior: CfoPrior, *, beta_floor: float = 0.0) -> BoundResult:
    """CRLB and BCRLB from a Fisher information value.

    beta below beta_floor is treated as exactly zero: the bound is then
    beyond numerical resolvability and the CRLB is reported infinite.
    """
    if not beta >= 0:
        raise ParameterError(f"beta must be nonnegative, got {beta!r}")
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


def fisher_oracle(pilot: PilotMatrix, l_r: int, stats: ChannelStats, *,
                  f_probe: float = 0.0, n_samples: int = 10000,
                  rng: np.random.Generator | None = None, step: float = 1e-4) -> float:
    """Monte-Carlo estimate of the Fisher information at a probe offset.

    Draws y from the exact conditional law at f_probe and averages the
    central second difference of the Gaussian log-likelihood.  The prior
    term is deliberately excluded, so the estimate targets beta itself and
    takes no prior.  The tuning arguments are keyword-only.

    Everything is formed in the n*l_r receive space: at offset f, y has the
    law D(f) CN(ybar, R + I) with R = Sb Sigma_h Sb^H and ybar = Sb mu_h,
    D(f) the unitary rotation.  y is drawn with D chol(R + I) D^H, the
    Cholesky factor of the covariance at f_probe, and each offset is scored
    on the de-rotated residuals D(f)^H y - ybar through one eigen-
    decomposition of R + I; log det(R + I) does not depend on f and drops
    out of the second difference.  R + I >= I, so no fallback for a
    singular covariance is needed.  At (l_t, m, l_r) = (8, 16, 8) it takes
    about 3 s and 300 MB for 2000 samples (one BLAS thread, 2-core host).
    """
    _check_int("n_samples", n_samples)
    if not 0.0 < step < math.inf:
        raise ParameterError(f"step must be finite and > 0, got {step!r}")
    rng = rng or np.random.default_rng()
    n = pilot.n
    cov = stats._receive_cov(pilot.entries) + np.eye(l_r * n)
    cov = 0.5 * (cov + cov.conj().T)
    mu_0 = stats._receive_mean(pilot.entries).ravel()
    probe = _rotation(f_probe, l_r, n).ravel()
    factor = probe[:, None] * np.linalg.cholesky(cov) * probe.conj()[None, :]
    z = _unit_complex(*rng.standard_normal((2, n_samples, mu_0.size)))
    samples = probe * mu_0 + z @ factor.T
    eig, vec = np.linalg.eigh(cov)
    loglik = np.empty((3, n_samples))
    for idx, f in enumerate((f_probe - step, f_probe, f_probe + step)):
        proj = (samples * _rotation(f, l_r, n).conj().ravel() - mu_0) @ vec.conj()
        loglik[idx] = -(np.abs(proj) ** 2) @ (1.0 / eig)
    curvature = (loglik[2] - 2.0 * loglik[1] + loglik[0]) / step ** 2
    return float(-np.mean(curvature))
