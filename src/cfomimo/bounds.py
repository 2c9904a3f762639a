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
log-likelihood) is included for validating the closed form.  Like the
closed form, it works in the n*l_r receive space, on R and ybar; nothing
in this module forms Sigma_h or a channel-space design matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import CfoPrior, ChannelStats, _rotation, _unit_complex
from .errors import NumericalError, ParameterError, _check_int
from .estimator import EstimatorWorkspace, _workspace_for
from .pilots import PilotMatrix

BETA_REL_TOL = 1e-9


@dataclass(frozen=True)
class BoundResult:
    """Fisher information beta with the derived CRLB and BCRLB (variances)."""

    beta: float
    crlb: float
    bcrlb: float


@lru_cache(maxsize=16)
def _lag_weights(q: int, n: int) -> np.ndarray:
    """W[k1, k2] = (k1 - k2)^2 for k1 > k2 and 0 elsewhere, over the q rows
    of a kernel, row k1 at symbol time k1 mod n; float64 and read-only."""
    k = np.arange(q) % n
    lag = np.subtract.outer(k, k)
    weights = np.where(lag > 0, lag * lag, 0).astype(np.float64)
    weights.setflags(write=False)
    return weights


def compute_beta(pilot: PilotMatrix, l_r: int, stats: ChannelStats, *,
                 workspace: EstimatorWorkspace | None = None) -> float:
    """Closed-form Fisher information of the common normalized offset.

    The k^2-weighted expected lag series, read as quadratic forms in the
    workspace's kernels K_i (see the module docstring): the kernel K is
    contracted against the second moment R + ybar ybar^H + I of y instead
    of an observed y (the noise term I only reaches lag 0).  The weights W
    come from a read-only table built once per kernel shape.  A single
    symbol, n = 1, has only lag 0, so every k^2 weight and hence beta is
    zero.  A negative beta is rounding, returned as zero, unless its size
    exceeds BETA_REL_TOL times the same sum over every term's magnitude,
    which raises NumericalError; that magnitude pass runs only for a
    negative beta.  A workspace passed in must be built for this pilot, l_r
    and stats.
    """
    ws = _workspace_for(pilot, l_r, stats, CfoPrior.ml(), workspace)
    n = ws.n
    p, q = ws.kernels.shape[:2]
    weighted = _lag_weights(q, n) * ws.kernels  # W o K_i
    yt = ws.U.conj().T @ ws.ybar.reshape(p, q)
    first = np.einsum("rk,rk->k", ws.lin_table, ws.ybar.reshape(l_r, n).conj())

    def total(f):
        kernels, rows = f(weighted), f(yt)
        mean = np.vdot(rows, np.matmul(kernels, rows[..., None])[..., 0])
        cov = f(ws.a) @ (kernels.reshape(p, -1) @ f(ws.M).T.ravel())
        return mean + cov + np.arange(n) ** 2 @ f(first)

    beta = 8.0 * np.pi ** 2 * float(np.real(total(lambda x: x)))
    if beta < 0.0:
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
