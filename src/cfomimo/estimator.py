"""MAP joint frequency-offset and channel estimation.

For a Gaussian channel prior and a Gaussian (or flat) prior on the normalized
carrier frequency offset f, the joint MAP problem separates: maximize a scalar
metric g(y, f) over f alone, then read off the channel as the MMSE estimate
at the chosen offset.

The offset problem lives in the n*l_r receive space.  With Sb the zero-offset
block design matrix, D(f) = diag(exp(j 2 pi f_r k)) the per-antenna rotation
and w = D(f)^H y the de-rotated received signal,

    R = Sb Sigma_h Sb^H,   ybar = Sb mu_h     zero-offset received moments,
    K = I - (I + R)^{-1}                      quadratic kernel,
    lin = (I + R)^{-1} ybar                   linear table,
    g(y, f) = w^H K w + 2 Re<lin, w> - f^2 / (2 sigma_f^2) + mu_f f / sigma_f^2.

K and lin are computed once per configuration.  Only I + R is factored, so
singular channel covariances (a channel frozen over the pilot) are fine.
The MMSE channel estimate h_hat(f) = A X(f)^H y + b, with X(f) = D(f) Sb,
A = (Sb^H Sb + Sigma_h^{-1})^{-1} its error covariance and
b = (I - A Sb^H Sb) mu_h, is evaluated in the receive space too: by
A Sb^H = Sigma_h Sb^H (I + R)^{-1} and (I + R)^{-1} = I - K,

    h_hat(f) = mu_h + Sigma_h Sb^H (I - K)(w - ybar),

one product with Sigma_h, which ChannelStats applies in its separable form.
A, b and Sb exist only for the oracles (K = Sb A Sb^H, lin = Sb b) and are
built on demand.

Collecting g by time lag turns it into a short complex series,

    g(y, f) = const + 2 Re sum_{k=1}^{n-1} e^{j 2 pi f k} z_k + prior terms,

with z_k a pure function of (y, K, lin).  The universal search evaluates a
coarse grid of 4n offsets, solves the linearized stationary condition at each
point, keeps the candidate with the best metric, and polishes it by repeating
the linearized step.  No phase unwrapping is involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .channel import CfoPrior, ChannelStats, _rotation
from .errors import EstimationError, NumericalError, ParameterError
from .pilots import PilotMatrix, expand_block

CONDITION_LIMIT = 1e13
DENOMINATOR_FLOOR = 1e-300
METRIC_TIE_TOL = 1e-12


@dataclass(frozen=True)
class CfoEstimate:
    """Result of a frequency-offset search.

    f_hat is a float for the common-offset estimator and a length-l_r array
    for the per-antenna variant, always wrapped into [-0.5, 0.5).  metric is
    the MAP objective at f_hat.  degraded marks a per-antenna refinement that
    fell back to its independent first stage.
    """

    f_hat: float | np.ndarray
    metric: float
    iterations: int
    converged: bool
    degraded: bool = False
    diagnostics: dict | None = None


@dataclass(frozen=True)
class EstimatorWorkspace:
    """Precomputed, f-independent quantities for one (pilot, stats, prior) triple.

    Immutable and shareable across threads; every estimation routine is a
    pure function of (y, workspace).  The offset search and the bounds read
    only n*l_r receive-space tables: R = Sb Sigma_h Sb^H and ybar = Sb mu_h
    (the zero-offset received covariance and mean), quad_kernel
    K = I - (I + R)^{-1} and lin_table (I + R)^{-1} ybar shaped (l_r, n),
    which give g = w^H K w + 2 Re<lin, w> at w = D(f)^H y.  condition is
    that of I + R.  The channel estimate adds one product with Sigma_h:
    h_hat = mu_h + Sigma_h Sb^H (I - K)(w - ybar).  sbreve, A (the MMSE
    error covariance) and b are channel-space objects, built on first
    access for the oracles only.
    """

    pilot: PilotMatrix
    l_r: int
    stats: ChannelStats
    prior: CfoPrior
    R: np.ndarray
    ybar: np.ndarray
    quad_kernel: np.ndarray
    lin_table: np.ndarray
    condition: float

    @property
    def n(self) -> int:
        return self.pilot.n

    @property
    def l_t(self) -> int:
        return self.pilot.l_t

    @cached_property
    def sbreve(self) -> np.ndarray:
        return expand_block(self.pilot, self.l_r)

    @cached_property
    def A(self) -> np.ndarray:
        return mmse_gain(self.sbreve, self.stats.sigma_h)[0]

    @cached_property
    def b(self) -> np.ndarray:
        mu, sb = self.stats.mu_h, self.sbreve
        return mu - self.A @ (sb.conj().T @ (sb @ mu))


def _solve_hermitian(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """SPD solve with a single jitter retry before giving up."""
    try:
        factor = scipy.linalg.cho_factor(matrix, check_finite=False)
    except scipy.linalg.LinAlgError:
        jitter = 1e-12 * np.trace(matrix).real / matrix.shape[0]
        try:
            factor = scipy.linalg.cho_factor(
                matrix + jitter * np.eye(matrix.shape[0]), check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise NumericalError("Hermitian solve failed even with jitter",
                                 condition=float(np.linalg.cond(matrix))) from exc
    return scipy.linalg.cho_solve(factor, rhs, check_finite=False)


def mmse_gain(design: np.ndarray, sigma_h: np.ndarray,
              condition_limit: float = CONDITION_LIMIT) -> tuple[np.ndarray, float]:
    """Posterior covariance (design^H design + sigma_h^{-1})^{-1} and cond estimate.

    Evaluated in the inversion-lemma form, so sigma_h may be singular.  The
    inner matrix I + design sigma_h design^H is checked against
    condition_limit before factoring.
    """
    cross = design @ sigma_h
    inner = np.eye(design.shape[0], dtype=np.complex128) + cross @ design.conj().T
    inner = 0.5 * (inner + inner.conj().T)
    condition = float(np.linalg.cond(inner))
    if not np.isfinite(condition) or condition > condition_limit:
        raise NumericalError("I + Sb Sigma_h Sb^H is too ill-conditioned",
                             condition=condition)
    gain = sigma_h - cross.conj().T @ _solve_hermitian(inner, cross)
    return 0.5 * (gain + gain.conj().T), condition


def build_workspace(pilot: PilotMatrix, l_r: int, stats: ChannelStats,
                    prior: CfoPrior) -> EstimatorWorkspace:
    """Assemble the receive-space kernel and linear table for one configuration."""
    if stats.l_t != pilot.l_t or stats.n != pilot.n or stats.l_r != l_r:
        raise ParameterError(
            f"stats built for (l_t={stats.l_t}, l_r={stats.l_r}, n={stats.n}) do not "
            f"match pilot (l_t={pilot.l_t}, n={pilot.n}) with l_r={l_r}")
    n, l_t, s = pilot.n, pilot.l_t, pilot.entries
    r = stats._receive_cov(s)
    r = 0.5 * (r + r.conj().T)
    ybar = np.einsum("kt,rkt->rk", s, stats.mu_h.reshape(l_r, n, l_t)).ravel()
    eye = np.eye(l_r * n)
    inner = eye + r
    eig = np.linalg.eigvalsh(inner)
    condition = float(eig[-1] / eig[0]) if eig[0] > 0 else np.inf
    if not condition <= CONDITION_LIMIT:
        raise NumericalError("I + Sb Sigma_h Sb^H is too ill-conditioned",
                             condition=condition)
    solved = _solve_hermitian(inner, np.column_stack([eye, ybar]))
    kernel = eye - solved[:, :-1]
    return EstimatorWorkspace(pilot=pilot, l_r=l_r, stats=stats, prior=prior,
                              R=r, ybar=ybar,
                              quad_kernel=0.5 * (kernel + kernel.conj().T),
                              lin_table=solved[:, -1].reshape(l_r, n),
                              condition=condition)


def _received(y, ws: EstimatorWorkspace) -> np.ndarray:
    """y as an (l_r, n) complex array; a wrong length or a non-finite sample is rejected."""
    y = np.asarray(y, dtype=np.complex128)
    if y.size != ws.l_r * ws.n:
        raise ParameterError(f"y must have l_r*n = {ws.l_r * ws.n} samples, got {y.size}")
    if not np.all(np.isfinite(y)):
        raise ParameterError("y has non-finite samples")
    return y.reshape(ws.l_r, ws.n)


def _lag_series(first: np.ndarray, weighted: np.ndarray, l_r: int, n: int) -> np.ndarray:
    """z_k = first[k] + the k-th subdiagonal sum of weighted, folded over
    receive-antenna pairs, for k = 1 .. n-1."""
    folded = weighted.reshape(l_r, n, l_r, n).sum(axis=(0, 2))
    return np.array([first[lag] + np.trace(folded, offset=-lag)
                     for lag in range(1, n)], dtype=np.complex128)


def lag_statistics(y2: np.ndarray, lin_table: np.ndarray,
                   quad_kernel: np.ndarray) -> np.ndarray:
    """The complex lag series z_1 .. z_{n-1} of an (l_r, n) signal from its tables."""
    l_r, n = y2.shape
    y = y2.ravel()
    first = np.einsum("rk,rk->k", lin_table, y2.conj())
    weighted = (y.conj()[:, None] * quad_kernel) * y[None, :]
    return _lag_series(first, weighted, l_r, n)


def compute_z(y: np.ndarray, ws: EstimatorWorkspace) -> np.ndarray:
    """Lag series z_k; depends only on (y, pilot, stats), never on the prior or a trial f."""
    return lag_statistics(_received(y, ws), ws.lin_table, ws.quad_kernel)


def rotated_design(pilot: PilotMatrix, l_r: int, f) -> np.ndarray:
    """Design matrix X(f): the block expansion of S with rows rotated by
    exp(j 2 pi f_r k); f is a scalar or a length-l_r vector."""
    return _rotation(f, l_r, pilot.n).reshape(-1, 1) * expand_block(pilot, l_r)


def _derotated(y2: np.ndarray, f) -> np.ndarray:
    """w = D(f)^H y on the (l_r, n) grid, for a scalar or per-antenna offset."""
    return _rotation(f, *y2.shape).conj() * y2


def _data_term(w: np.ndarray, ws: EstimatorWorkspace) -> float:
    """The y-dependent part of g at the de-rotated signal w: w^H K w + 2 Re<lin, w>."""
    w = w.ravel()
    return float(np.real(np.vdot(w, ws.quad_kernel @ w))
                 + 2.0 * np.real(np.vdot(ws.lin_table, w)))


def map_metric(y: np.ndarray, f: float, ws: EstimatorWorkspace) -> float:
    """MAP objective g(y, f) for a common offset, exact matrix form.

    The prior contribution is -f^2/(2 sigma_f^2) + mu_f f / sigma_f^2 and
    vanishes in ML mode.
    """
    g = _data_term(_derotated(_received(y, ws), float(f)), ws)
    iv = ws.prior.inv_var
    if iv:
        g += -0.5 * iv * f * f + iv * ws.prior.mu_f * f
    return float(g)


def _lag_metric(z: np.ndarray, f, mu_f: float, inv_var: float) -> np.ndarray:
    """g up to an f-independent constant, from the lag series; vectorized in f."""
    f = np.atleast_1d(np.asarray(f, dtype=float))
    k = np.arange(1, z.size + 1)
    val = 2.0 * np.real(np.exp(2j * np.pi * np.outer(f, k)) @ z)
    if inv_var:
        val = val - 0.5 * inv_var * f * f + inv_var * mu_f * f
    return val


def metric_gradient(y: np.ndarray, f: float, ws: EstimatorWorkspace,
                    z: np.ndarray | None = None) -> float:
    """dg/df at a common offset: -4 pi Im sum k e^{j2pi f k} z_k - (f - mu_f)/sigma_f^2."""
    if z is None:
        z = compute_z(y, ws)
    k = np.arange(1, ws.n)
    grad = -4.0 * np.pi * np.imag(np.exp(2j * np.pi * f * k) @ (k * z))
    iv = ws.prior.inv_var
    if iv:
        grad -= iv * (f - ws.prior.mu_f)
    return float(grad)


def wrap_frequency(f):
    """Wrap into the acquisition range [-0.5, 0.5)."""
    return (f + 0.5) % 1.0 - 0.5


def _refine_terms(z: np.ndarray, f0, mu_f: float, inv_var: float):
    """Numerator and denominator of the linearized stationary-point step.

    Vectorized over candidate grid offsets f0.
    """
    f0 = np.atleast_1d(np.asarray(f0, dtype=float))
    k = np.arange(1, z.size + 1)
    phases = np.exp(2j * np.pi * np.outer(f0, k))
    s1 = phases @ (k * z)
    s2 = phases @ (k * k * z)
    prior_scale = inv_var / (8.0 * np.pi ** 2)
    num = -np.imag(s1) / (2.0 * np.pi) + prior_scale * (mu_f - f0)
    den = np.real(s2) + prior_scale
    return num, den


def _universal_from_z(z: np.ndarray, n: int, mu_f: float, inv_var: float,
                      grid_size: int | None, epsilon: float, max_iter: int):
    """Core grid-plus-refinement search on a precomputed lag series."""
    if grid_size is None:
        grid_size = 4 * n
    if grid_size < 1:
        raise ParameterError("grid_size must be positive")
    grid = -0.5 + np.arange(grid_size) / grid_size
    num, den = _refine_terms(z, grid, mu_f, inv_var)
    usable = np.abs(den) >= DENOMINATOR_FLOOR
    if not np.any(usable):
        raise EstimationError(
            "all grid candidates were skipped: every refinement denominator "
            "is numerically zero (degenerate metric)")
    grid = grid[usable]
    fe = num[usable] / den[usable]
    candidates = grid + fe
    metrics = _lag_metric(z, candidates, mu_f, inv_var)
    best = float(np.max(metrics))
    tied = np.flatnonzero(metrics >= best - METRIC_TIE_TOL * max(1.0, abs(best)))
    pick = tied[np.argmin(np.abs(candidates[tied] - mu_f))]
    f0 = float(candidates[pick])
    fe_cur = float(fe[pick])
    iterations = 0
    while abs(fe_cur) > epsilon and iterations < max_iter:
        num, den = _refine_terms(z, f0, mu_f, inv_var)
        if abs(den[0]) < DENOMINATOR_FLOOR:
            break
        fe_cur = float(num[0] / den[0])
        f0 += fe_cur
        iterations += 1
    diagnostics = {"grid_f0": grid, "grid_candidates": candidates,
                   "grid_metrics": metrics}
    return f0, iterations, abs(fe_cur) <= epsilon, diagnostics


def estimate_cfo_universal(y: np.ndarray, ws: EstimatorWorkspace, *,
                           grid_size: int | None = None, epsilon: float = 1e-10,
                           max_iter: int = 10, derotate_by_prior_mean: bool = False,
                           return_diagnostics: bool = False) -> CfoEstimate:
    """Common-offset MAP estimate via the universal grid-plus-refinement search.

    The default grid has 4n points over [-0.5, 0.5); each point gets one
    linearized stationary step, the candidate with the largest MAP metric is
    kept and then refined until the step falls below epsilon (at most
    max_iter times).  With derotate_by_prior_mean the received signal is
    first rotated by exp(-j 2 pi mu_f k), which re-centers the acquisition
    range on the prior mean.
    """
    prior = ws.prior
    y2 = _received(y, ws)
    if derotate_by_prior_mean and prior.mu_f != 0.0:
        z = compute_z(_derotated(y2, prior.mu_f), ws)
        offset, mu_f = prior.mu_f, 0.0
    else:
        z = compute_z(y2, ws)
        offset, mu_f = 0.0, prior.mu_f
    f0, iterations, converged, diagnostics = _universal_from_z(
        z, ws.n, mu_f, prior.inv_var, grid_size, epsilon, max_iter)
    f_hat = float(wrap_frequency(f0 + offset))
    return CfoEstimate(f_hat=f_hat, metric=map_metric(y2, f_hat, ws),
                       iterations=iterations, converged=converged,
                       diagnostics=diagnostics if return_diagnostics else None)


def estimate_channel_mmse(y: np.ndarray, f_hat, ws: EstimatorWorkspace) -> np.ndarray:
    """MMSE channel estimate mu_h + Sigma_h Sb^H (I - K)(w - ybar) at w = D(f_hat)^H y.

    Equal to A X(f_hat)^H y + b (ws.A is its error covariance) by
    A Sb^H = Sigma_h Sb^H (I + R)^{-1} and (I + R)^{-1} = I - K.
    """
    resid = _derotated(_received(y, ws), f_hat).ravel() - ws.ybar
    resid = resid - ws.quad_kernel @ resid
    u = resid.reshape(ws.l_r, ws.n)[:, :, None] * ws.pilot.entries.conj()[None, :, :]
    return ws.stats.mu_h + ws.stats._apply_cov(u.ravel())


def _prior_vectors(prior, l_r: int):
    if isinstance(prior, CfoPrior):
        priors = [prior] * l_r
    else:
        priors = list(prior)
        if len(priors) != l_r:
            raise ParameterError(f"need one prior per receive antenna ({l_r})")
    mu = np.array([p.mu_f for p in priors], dtype=float)
    inv_var = np.array([p.inv_var for p in priors], dtype=float)
    return priors, mu, inv_var


def per_antenna_metric(y: np.ndarray, f_vec: np.ndarray, ws: EstimatorWorkspace,
                       prior=None) -> float:
    """MAP objective for a vector of per-receive-antenna offsets."""
    _, mu, inv_var = _prior_vectors(ws.prior if prior is None else prior, ws.l_r)
    f_vec = np.asarray(f_vec, dtype=float)
    g = _data_term(_derotated(_received(y, ws), f_vec), ws)
    g += np.sum(-0.5 * inv_var * f_vec ** 2 + inv_var * mu * f_vec)
    return float(g)


def _per_antenna_grad_hess(y2: np.ndarray, ws: EstimatorWorkspace, f_vec: np.ndarray,
                           mu: np.ndarray, inv_var: np.ndarray):
    """Exact gradient and Hessian of g with respect to the offset vector.

    Differentiating w(f) = D(f)^H y through g gives, with M_r the diagonal
    symbol-index mask k on antenna r,

        dg/df_r = 4 pi Im[lin^H M_r w] - 4 pi Im[(M_r w)^H K w] - (f_r - mu_r)/sigma_r^2.
    """
    l_r, n = ws.l_r, ws.n
    k = np.arange(n, dtype=float)
    w = _derotated(y2, f_vec)
    kw = k * w
    lin_terms = ws.lin_table.conj() * kw  # summed over k: lin^H M_r w, (M_r w)^H K w
    quad_terms = kw.conj() * (ws.quad_kernel @ w.ravel()).reshape(l_r, n)
    grad = (4.0 * np.pi * np.imag(np.sum(lin_terms - quad_terms, axis=1))
            - inv_var * (f_vec - mu))
    cross = np.einsum("ak,akbl,bl->ab", kw.conj(),
                      ws.quad_kernel.reshape(l_r, n, l_r, n), kw)
    hess = 8.0 * np.pi ** 2 * np.real(cross)
    curvature = np.real(np.sum(k * (lin_terms + quad_terms), axis=1))
    hess[np.diag_indices(l_r)] -= 8.0 * np.pi ** 2 * curvature + inv_var
    return grad, hess


def estimate_cfo_per_antenna(y: np.ndarray, pilot: PilotMatrix, stats: ChannelStats,
                             prior, *, grid_size: int | None = None,
                             epsilon: float = 1e-10, max_iter: int = 10,
                             workspace: EstimatorWorkspace | None = None) -> CfoEstimate:
    """Per-receive-antenna offsets f_r under independent Gaussian priors.

    Stage 1 runs the scalar universal search on each antenna's decoupled
    subproblem (cross-antenna coupling in K ignored), costing O(l_r n) grid
    work.  Stage 2 jointly refines all offsets by linearizing the rotations
    around the stage-1 values and solving the resulting l_r x l_r real
    system, repeated until the step is below epsilon.  A singular refinement
    system returns the stage-1 estimates flagged as degraded.
    """
    priors, mu, inv_var = _prior_vectors(prior, stats.l_r)
    ws = workspace or build_workspace(pilot, stats.l_r, stats, priors[0])
    l_r, n = ws.l_r, ws.n
    y2 = _received(y, ws)
    if l_r == 1:
        est = estimate_cfo_universal(y2, ws, grid_size=grid_size, epsilon=epsilon,
                                     max_iter=max_iter)
        return CfoEstimate(f_hat=np.array([est.f_hat]), metric=est.metric,
                           iterations=est.iterations, converged=est.converged)
    kernel = ws.quad_kernel.reshape(l_r, n, l_r, n)
    stage1 = np.empty(l_r)
    for r in range(l_r):
        z_r = lag_statistics(y2[r:r + 1], ws.lin_table[r:r + 1], kernel[r, :, r, :])
        f_r, _, _, _ = _universal_from_z(z_r, n, mu[r], inv_var[r],
                                         grid_size, epsilon, max_iter)
        stage1[r] = f_r
    f_vec = stage1.copy()
    iterations = 0
    converged = False
    for _ in range(max_iter):
        grad, hess = _per_antenna_grad_hess(y2, ws, f_vec, mu, inv_var)
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = np.full(l_r, np.nan)
        if not np.all(np.isfinite(step)):
            f_hat = wrap_frequency(stage1)
            return CfoEstimate(f_hat=f_hat,
                               metric=per_antenna_metric(y2, f_hat, ws, priors),
                               iterations=iterations, converged=False, degraded=True)
        f_vec = f_vec + step
        iterations += 1
        if np.max(np.abs(step)) <= epsilon:
            converged = True
            break
    f_hat = wrap_frequency(f_vec)
    return CfoEstimate(f_hat=f_hat, metric=per_antenna_metric(y2, f_hat, ws, priors),
                       iterations=iterations, converged=converged)
