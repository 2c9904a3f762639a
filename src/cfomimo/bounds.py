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

compute_beta, resolvability_floor and evaluate_bounds take the
configuration's EstimatorWorkspace (build_workspace) as their one model
argument, as the estimator's routines do; evaluate_bounds reads the prior
from it.  The floor, like beta, reads only the received moments R and ybar,
so neither changes when power moves between the pilot and the channel at a
fixed SNR.  A Monte-Carlo curvature oracle (finite differences of the exact
Gaussian log-likelihood) is included for validating the closed form; it
takes the pilot and stats, which give l_r, and builds no workspace.  Like
the closed form, it works in the n*l_r receive space, on R and ybar;
nothing in this module forms Sigma_h or a channel-space design matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import CfoPrior, ChannelStats, _rotation, _unit_complex
from .errors import ParameterError, _check_int, _coerce
from .estimator import EstimatorWorkspace, _check_stats_match
from .pilots import PilotMatrix

FISHER_STEP = 1e-4  # fisher_oracle's second-difference step in f


@dataclass(frozen=True)
class BoundResult:
    """Fisher information beta with the derived CRLB and BCRLB (variances)."""

    beta: float
    crlb: float
    bcrlb: float


def compute_beta(ws: EstimatorWorkspace) -> float:
    """Closed-form Fisher information of the common normalized offset.

    The eigenbasis form of the Gaussian Fisher formula (see the module
    docstring), read from the workspace's eigenpairs of R alone: a, U, m,
    V and ybar, never the kernels, the linear table or the prior.  k is the
    symbol time of each of the q rows of a factor, arange(q) mod n, so dense
    stats (p = 1, q = n*l_r) run the same code.  Every term is nonnegative,
    and a single symbol, n = 1, has k = 0 and hence beta = 0.
    """
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
    beyond numerical resolvability and the CRLB is reported infinite.  Both
    are read by the scalar rule (errors._coerce) and must be nonnegative.
    """
    beta = _coerce("beta", beta, float)
    beta_floor = _coerce("beta_floor", beta_floor, float)
    for name, value in (("beta", beta), ("beta_floor", beta_floor)):
        if not value >= 0:
            raise ParameterError(f"{name} must be nonnegative, got {value!r}")
    effective = 0.0 if beta < beta_floor else beta
    crlb = math.inf if effective == 0.0 else 1.0 / effective
    denom = effective + prior.inv_var
    bcrlb = math.inf if denom == 0.0 else 1.0 / denom
    return BoundResult(beta=beta, crlb=crlb, bcrlb=bcrlb)


def resolvability_floor(ws: EstimatorWorkspace) -> float:
    """Fisher values below 1e-14 (n P)^2 are indistinguishable from zero.

    P = (tr R + |ybar|^2) / (n l_r) is the mean received power per sample,
    read from the workspace: tr R = sum(a) sum(m) and ybar.  P is the pilot
    power rho for every built-in pilot at unit per-coefficient channel
    power.
    """
    scale = float(ws.a.sum() * ws.m.sum() + np.vdot(ws.ybar, ws.ybar).real) / ws.l_r
    return 1e-14 * scale * scale  # scale = n P; a Python float overflows to inf


def evaluate_bounds(ws: EstimatorWorkspace) -> BoundResult:
    """compute_beta + compute_bounds under the workspace's prior, with its
    resolvability floor."""
    return compute_bounds(compute_beta(ws), ws.prior, beta_floor=resolvability_floor(ws))


def fisher_oracle(pilot: PilotMatrix, stats: ChannelStats, *, f_probe: float = 0.0,
                  n_samples: int = 10000, rng: np.random.Generator | None = None) -> float:
    """Monte-Carlo estimate of the Fisher information at a probe offset.

    Draws y from the exact conditional law at f_probe and averages the
    central second difference, of step FISHER_STEP, of the Gaussian
    log-likelihood.  The prior term is deliberately excluded, so the
    estimate targets beta itself and takes no prior.  The stats give the
    receive size l_r.  The tuning arguments are keyword-only.

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
    _check_stats_match(pilot, stats)
    rng = rng or np.random.default_rng()
    n, l_r = pilot.n, stats.l_r
    cov = stats._receive_cov(pilot.entries) + np.eye(l_r * n)
    cov = 0.5 * (cov + cov.conj().T)
    mu_0 = stats._receive_mean(pilot.entries).ravel()
    probe = _rotation(f_probe, l_r, n).ravel()
    factor = probe[:, None] * np.linalg.cholesky(cov) * probe.conj()[None, :]
    z = _unit_complex(*rng.standard_normal((2, n_samples, mu_0.size)))
    samples = probe * mu_0 + z @ factor.T
    eig, vec = np.linalg.eigh(cov)
    loglik = np.empty((3, n_samples))
    for idx, f in enumerate((f_probe - FISHER_STEP, f_probe, f_probe + FISHER_STEP)):
        proj = (samples * _rotation(f, l_r, n).conj().ravel() - mu_0) @ vec.conj()
        loglik[idx] = -(np.abs(proj) ** 2) @ (1.0 / eig)
    curvature = (loglik[2] - 2.0 * loglik[1] + loglik[0]) / FISHER_STEP ** 2
    return float(-np.mean(curvature))
