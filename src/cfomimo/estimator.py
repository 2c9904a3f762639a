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

K and lin are computed once per configuration, from the spectrum of R.  The
channel statistics give R as a Kronecker product R = A_r kron M of two
Hermitian PSD factors: for a spatial covariance A_r kron B_t (every model of
make_model) A_r acts on the receive antennas and M = rho_h^|k-k'| o
(S B_t S^H) on the symbol times; for any other covariance, and for a
directly constructed ChannelStats, A_r is the 1 x 1 matrix 1 and M = R.
With A_r = U diag(a) U^H (p eigenpairs) and M = V diag(m) V^H (q x q),
R = W diag(lam) W^H for W = U kron V and lam_i = a_i m, so

    K = sum_i (u_i u_i^H) kron K_i,   K_i = V diag(lam_i / (1 + lam_i)) V^H,
    lin = W diag(1 / (1 + lam)) W^H ybar,

and the condition of I + R is max(1 + lam) / min(1 + lam).  Only the two
factors are diagonalized, never Sigma_h, so singular channel covariances
(a channel frozen over the pilot) are fine.  A factor whose imaginary part
is exactly zero (an unscrambled 0/1 pilot, a real spatial covariance) is
diagonalized as a real symmetric matrix, so U, V and the K_i are real
whenever R's factors are, at a fraction of the complex cost; the linear
table, ybar and every received signal stay complex, and the same code runs
on either dtype.  The workspace keeps K as its p
kernels K_i, (p, q, q): l_r kernels of n^2 when R factors, one of (n*l_r)^2
for dense stats, which run the same code with p = 1.  Once the de-rotated
w is formed, for a common or a per-antenna offset, K applies row by row in
the eigen-antenna basis: with wt = U^H w (one row of length q per i),
w^H K w = sum_i wt_i^H K_i wt_i and K w = U (K_i wt_i).  The metric, the
channel estimate and the lag series are evaluated that way, and the dense
K is never formed; the bounds read the eigenpairs a, U, m, V alone.

The MMSE channel estimate h_hat(f) = A X(f)^H y + b, with X(f) = D(f) Sb,
A = (Sb^H Sb + Sigma_h^{-1})^{-1} its error covariance and
b = (I - A Sb^H Sb) mu_h, is evaluated in the receive space too: by
A Sb^H = Sigma_h Sb^H (I + R)^{-1} and (I + R)^{-1} = I - K,

    h_hat(f) = mu_h + Sigma_h Sb^H (I - K)(w - ybar),

one product with Sigma_h, which ChannelStats applies in its separable form.
No routine here forms a channel-space matrix on its own: Sb is
pilots.expand_block, X(f) is rotated_design and A is mmse_gain, each built
only when a caller asks for it by name (K = Sb A Sb^H and lin = Sb b tie
them to the receive-space tables).

Collecting g by time lag turns it into a short complex series,

    g(y, f) = const + 2 Re sum_{k=1}^{n-1} e^{j 2 pi f k} z_k + prior terms,

with z_k a pure function of (y, K, lin): with yt = U^H y,
z_k = sum_i sum_w conj(yt_i[k + w]) K_i[k + w, w] yt_i[w] plus a linear
term, read along the k-th subdiagonal of each K_i (a table the workspace
builds once), so no n x n matrix is formed per trial.  The universal
search evaluates a coarse grid of 4n offsets, solves the linearized
stationary condition at each point, keeps the candidate with the best
metric, and polishes it by repeating the linearized step.  No phase
unwrapping is involved anywhere.

On the grid f_g = -1/2 + g/G of G = 4n points the step needs
sum_k e^{j 2 pi f_g k} {z_k, k z_k, k^2 z_k}; since e^{j 2 pi f_g k} =
(-1)^k e^{j 2 pi g k / G}, all G points come from one inverse FFT of length
G of (-1)^k k^m z_k, zero-padded from the n - 1 lags (the periodogram trick
of Rife and Boorstyn, IEEE Trans. IT, 1974).  The refinements stop once a
step is at most EPSILON, or after MAX_ITER steps.  The candidates' metrics
follow from the lag series by Horner's rule in e^{j 2 pi f}.  Every trial
routine works on a batch of received signals at once, the single-trial
functions being the batch of one: estimate_cfo_universal_batch takes a
(T, n*l_r) array, forms all T lag series with one contraction against the
K_i and refines all trials together under per-trial convergence masks.  No
arithmetic mixes two trials, so a trial's results do not depend on the
batch it was run in.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .channel import CfoPrior, ChannelStats, _phases, _rotation
from .errors import EstimationError, NumericalError, ParameterError
from .pilots import PilotMatrix, expand_block

CONDITION_LIMIT = 1e13
DENOMINATOR_FLOOR = 1e-300
METRIC_TIE_TOL = 1e-12
NEWTON_HALVINGS = 10  # per-antenna refinement: a step is cut at most to 2^-10
EPSILON = 1e-10  # both refinements stop once a step is at most this
MAX_ITER = 10  # or after this many steps


@dataclass(frozen=True)
class CfoEstimate:
    """Result of a frequency-offset search.

    f_hat is a float for the common-offset estimator and a length-l_r array
    for the per-antenna variant, always wrapped into [-0.5, 0.5).  metric is
    the MAP objective at f_hat.  degraded marks a per-antenna refinement that
    fell back to its independent first stage, because its system was
    singular or it ended below the first stage's metric.  diagnostics is
    always set by the universal search (its usable grid points grid_f0, the
    candidates after one linearized step, grid_candidates, and their
    metrics, grid_metrics, at most 4n of each) and None for per-antenna
    estimates.
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
    pure function of (y, workspace), and the bounds (compute_beta,
    evaluate_bounds) of the workspace alone.  The offset search and the
    bounds read only n*l_r receive-space tables, kept in the factor form of
    R = Sb Sigma_h Sb^H = A_r kron M (a 1 x 1 A_r = 1 and M = R for dense
    stats): ybar = Sb mu_h, the zero-offset received mean; lin_table
    (I + R)^{-1} ybar shaped (l_r, n); a and U, the eigenvalues and
    eigenvectors of A_r (p of them: l_r, or 1 for dense stats); m and V, the
    eigenvalues and eigenvectors of the time factor M = V diag(m) V^H (q of
    them: n, or n*l_r for dense stats); and kernels, the stack
    K_i = V diag(lam_i / (1 + lam_i)) V^H of shape (p, q, q), with
    lam_i = a_i m.  The bounds read only a, U, m, V and ybar.  The
    quadratic kernel is K = I - (I + R)^{-1} = sum_i (u_i u_i^H) kron K_i,
    so w^H K w = sum_i wt_i^H K_i wt_i over the rows of wt = U^H w, and
    g = w^H K w + 2 Re<lin, w> at w = D(f)^H y.  condition is that of
    I + R, max(1 + lam) / min(1 + lam).  The channel estimate adds one
    product with Sigma_h: h_hat = mu_h + Sigma_h Sb^H (I - K)(w - ybar).
    U is float64 when A_r is real, and V and kernels are float64 when M is
    real (an unscrambled 0/1 pilot and a real B_t); otherwise complex.
    a and m are always float64, ybar and lin_table always complex.

    subdiagonals, the kernels' subdiagonals in time that the lag series is
    read along, is built on its first read.  The workspace holds no dense
    (n*l_r)^2 or channel-space matrix: a caller that wants Sb, X(f) or the
    MMSE error covariance A builds it with expand_block, rotated_design or
    mmse_gain.
    """

    pilot: PilotMatrix
    l_r: int
    stats: ChannelStats
    prior: CfoPrior
    ybar: np.ndarray
    lin_table: np.ndarray
    condition: float
    a: np.ndarray
    U: np.ndarray
    m: np.ndarray
    V: np.ndarray
    kernels: np.ndarray

    @property
    def n(self) -> int:
        return self.pilot.n

    @cached_property
    def subdiagonals(self) -> tuple:
        """The kernels' k-th subdiagonals for k = 0 .. n-1, in time: entries
        K_i[(a, k + w), (b, w)] of receive blocks a, b ordered (w, i, a, b),
        one complex (m_k, 1) column per k, as _lag_terms contracts them."""
        n = self.n
        p, q = self.kernels.shape[:2]
        kernels = self.kernels.astype(np.complex128).reshape(p, q // n, n, q // n, n)
        return tuple(np.einsum("iawbw->wiab", kernels[:, :, k:, :, :n - k]).reshape(-1, 1)
                     for k in range(n))


def _condition(eigenvalues: np.ndarray) -> float:
    """max / min of the eigenvalues of I + Sb Sigma_h Sb^H, inf unless it is
    positive definite; NumericalError above CONDITION_LIMIT."""
    low = eigenvalues.min()
    condition = float(eigenvalues.max() / low) if low > 0 else np.inf
    if not condition <= CONDITION_LIMIT:
        raise NumericalError("I + Sb Sigma_h Sb^H is too ill-conditioned",
                             condition=condition)
    return condition


def mmse_gain(design: np.ndarray, sigma_h: np.ndarray) -> tuple[np.ndarray, float]:
    """Posterior covariance (design^H design + sigma_h^{-1})^{-1} and the
    condition number of I + design sigma_h design^H.

    Evaluated in the inversion-lemma form, so sigma_h may be singular.  One
    eigendecomposition of the inner matrix I + design sigma_h design^H gives
    both its condition number, the ratio of its extreme eigenvalues (inf when
    it is not positive definite), checked against CONDITION_LIMIT, and the
    solve.
    """
    cross = design @ sigma_h
    inner = np.eye(design.shape[0], dtype=np.complex128) + cross @ design.conj().T
    eig, vec = np.linalg.eigh(inner)
    condition = _condition(eig)
    half = vec.conj().T @ cross / np.sqrt(eig)[:, None]  # gain = sigma_h - half^H half
    gain = sigma_h - half.conj().T @ half
    return 0.5 * (gain + gain.conj().T), condition


def build_workspace(pilot: PilotMatrix, l_r: int, stats: ChannelStats,
                    prior: CfoPrior) -> EstimatorWorkspace:
    """Assemble the receive-space kernels K_i and linear table for one
    configuration, from one eigendecomposition per factor of R = A_r kron M;
    no (n*l_r)^2 matrix is formed when R factors.  A factor with an exactly
    zero imaginary part is diagonalized, and kept, in real arithmetic."""
    if stats.l_t != pilot.l_t or stats.n != pilot.n or stats.l_r != l_r:
        raise ParameterError(
            f"stats built for (l_t={stats.l_t}, l_r={stats.l_r}, n={stats.n}) do not "
            f"match pilot (l_t={pilot.l_t}, n={pilot.n}) with l_r={l_r}")
    n, s = pilot.n, pilot.entries
    a, m = (0.5 * (x + x.conj().T) for x in stats._receive_factors(s))
    # a factor with an exactly zero imaginary part is kept real, so eigh takes
    # the real symmetric path and U, V and the K_i below stay float64
    a, m = (x if x.imag.any() else x.real.copy() for x in (a, m))
    ybar = stats._receive_mean(s)
    eig_a, u = np.linalg.eigh(a)
    eig_m, v = np.linalg.eigh(m)
    p, q = eig_a.size, eig_m.size  # (l_r, n), or (1, n*l_r) for dense stats
    lam = np.multiply.outer(eig_a, eig_m)  # eigenvalues of R on W = U kron V
    inner = 1.0 + lam
    condition = _condition(inner)
    # K_i = V diag(lam_i / (1 + lam_i)) V^H, made exactly Hermitian, so the
    # (r, r') and (r', r) blocks of K are conjugate sums of the same terms
    kernels = (v * (lam / inner)[:, None, :]) @ v.conj().T
    kernels = 0.5 * (kernels + kernels.conj().transpose(0, 2, 1))
    # lin = W diag(1 / (1 + lam)) W^H ybar, with W^H ybar = U^H ybar conj(V)
    lin = u @ ((u.conj().T @ ybar.reshape(p, q) @ v.conj()) / inner) @ v.T
    return EstimatorWorkspace(pilot=pilot, l_r=l_r, stats=stats, prior=prior,
                              ybar=ybar.ravel(), lin_table=lin.reshape(l_r, n),
                              condition=condition, a=eig_a, U=u, m=eig_m,
                              V=v, kernels=kernels)


def _received_rows(y, ws: EstimatorWorkspace) -> np.ndarray:
    """A (T, n*l_r) batch of received signals as a (T, l_r, n) complex array;
    a wrong shape or a non-finite sample is rejected."""
    y = np.asarray(y, dtype=np.complex128)
    if y.ndim != 2 or y.shape[1] != ws.l_r * ws.n:
        raise ParameterError(f"each received signal must have l_r*n = {ws.l_r * ws.n} "
                             f"samples, one signal per row, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ParameterError("y has non-finite samples")
    return y.reshape(-1, ws.l_r, ws.n)


def _received(y, ws: EstimatorWorkspace) -> np.ndarray:
    """One received signal of any shape as an (l_r, n) complex array: the
    one-row batch of _received_rows."""
    return _received_rows(np.reshape(y, (1, -1)), ws)[0]


def _lag_terms(y3: np.ndarray, ws: EstimatorWorkspace):
    """Lag series (T, n-1) and the f-independent lag-0 part of g (T,) of a
    (T, l_r, n) batch.

    With yt = U^H y (one product per trial, so no BLAS call spans two
    trials), z_k = first_k + sum_i sum_w conj(yt_i[k + w]) K_i[k + w, w] yt_i[w],
    summed over the l_r^2 receive blocks for dense stats, where first_k =
    sum_r lin[r, k] conj(y[r, k]).  The products along the k-th subdiagonal
    are contracted with the workspace's table of that subdiagonal, so no
    (n, n) matrix is formed per trial.  Lag 0 is the trace of the quadratic
    form, which with the k = 0 linear term is g's f-independent part.
    """
    n = ws.n
    p, q = ws.kernels.shape[:2]
    trials, blocks = y3.shape[0], q // n
    yt = np.matmul(ws.U.conj().T, y3.reshape(-1, p, q)).reshape(trials, p, blocks, n)
    yt = np.ascontiguousarray(yt.transpose(0, 3, 1, 2))  # (T, n, p, blocks)
    ytc = yt.conj()
    lags = np.empty((trials, n), dtype=np.complex128)
    for k, table in enumerate(ws.subdiagonals):
        pairs = ytc[:, k:, :, :, None] * yt[:, :n - k, :, None, :]
        lags[:, k] = np.matmul(pairs.reshape(trials, 1, table.shape[0]), table)[:, 0, 0]
    first = np.einsum("rk,trk->tk", ws.lin_table, y3.conj())
    return first[:, 1:] + lags[:, 1:], lags[:, 0].real + 2.0 * first[:, 0].real


def compute_z(y: np.ndarray, ws: EstimatorWorkspace) -> np.ndarray:
    """Lag series z_k; depends only on (y, pilot, stats), never on the prior or a trial f."""
    return _lag_terms(_received(y, ws)[None], ws)[0][0]


def rotated_design(pilot: PilotMatrix, l_r: int, f) -> np.ndarray:
    """Design matrix X(f): the block expansion of S with rows rotated by
    exp(j 2 pi f_r k); f is a scalar or a length-l_r vector."""
    return _rotation(f, l_r, pilot.n).reshape(-1, 1) * expand_block(pilot, l_r)


def _derotated(y2: np.ndarray, f) -> np.ndarray:
    """w = D(f)^H y on the (l_r, n) grid, for a scalar or per-antenna offset."""
    return _rotation(f, *y2.shape).conj() * y2


def _eigen_rows(w: np.ndarray, ws: EstimatorWorkspace):
    """wt = U^H w for a batch of receive-space vectors w (any shape holding
    T*n*l_r entries), one row per eigen-antenna i, and the rows K_i wt_i,
    shape (T, p, q) each: K w = U (K_i wt_i)."""
    p, q = ws.kernels.shape[:2]
    wt = np.matmul(ws.U.conj().T, w.reshape(-1, p, q))
    return wt, np.matmul(ws.kernels, wt[..., None])[..., 0]


def _data_term(w: np.ndarray, ws: EstimatorWorkspace) -> float:
    """The y-dependent part of g at the de-rotated signal w:
    w^H K w + 2 Re<lin, w>, with w^H K w = sum_i wt_i^H K_i wt_i."""
    wt, kernel_wt = _eigen_rows(w, ws)
    return float(np.real(np.vdot(wt, kernel_wt))
                 + 2.0 * np.real(np.vdot(ws.lin_table, w)))


def _common_offset(f) -> float:
    """A common offset as a float; anything but one finite number is rejected."""
    f = np.asarray(f, dtype=float)
    if f.size != 1 or not np.isfinite(f).all():
        raise ParameterError(f"a common offset must be one finite number, got {f!r}")
    return float(f.reshape(()))


def map_metric(y: np.ndarray, f: float, ws: EstimatorWorkspace) -> float:
    """MAP objective g(y, f) for a common offset, exact matrix form.

    The prior contribution is -f^2/(2 sigma_f^2) + mu_f f / sigma_f^2 and
    vanishes in ML mode.
    """
    f = _common_offset(f)
    g = _data_term(_derotated(_received(y, ws), f), ws)
    iv = ws.prior.inv_var
    if iv:
        g += -0.5 * iv * f * f + iv * ws.prior.mu_f * f
    return float(g)


def _lag_metric(z: np.ndarray, f, mu_f, inv_var) -> np.ndarray:
    """g up to an f-independent constant, from the lag series.

    z has shape (..., n-1) and f (..., m), with matching leading axes; mu_f
    and inv_var broadcast against f.  sum_k z_k e^{j 2 pi f k} is evaluated
    by Horner's rule in e^{j 2 pi f}, in two preallocated buffers.
    """
    f = np.asarray(f, dtype=float)
    u = np.exp(2j * np.pi * f)
    acc = np.zeros(f.shape, dtype=np.complex128)
    part = np.empty_like(acc)
    for k in range(z.shape[-1] - 1, -1, -1):
        np.add(acc, z[..., k, None], out=part)
        # never in place: numpy's in-place complex product of a single
        # element can round differently, so a row's metric would depend
        # on its batch
        np.multiply(part, u, out=acc)
    return 2.0 * acc.real - 0.5 * inv_var * f * f + inv_var * mu_f * f


def metric_gradient(y: np.ndarray, f: float, ws: EstimatorWorkspace) -> float:
    """dg/df at a common offset, -4 pi Im sum k e^{j2pi f k} z_k - (f - mu_f)/sigma_f^2
    with z the lag series of y: 8 pi^2 times the numerator of the search's
    linearized step at f (_step_terms)."""
    f = _common_offset(f)
    kz = np.arange(1, ws.n) * compute_z(y, ws)
    num = _step_terms(np.sum(_phases(f, ws.n)[1:] * kz), 0.0, f, ws.prior.mu_f,
                      ws.prior.inv_var)[0]
    return float(8.0 * np.pi ** 2 * num)


def wrap_frequency(f):
    """Wrap into the acquisition range [-0.5, 0.5)."""
    return (f + 0.5) % 1.0 - 0.5


def _step_terms(s1, s2, f0, mu_f, inv_var):
    """Numerator and denominator of the linearized stationary-point step at
    f0, from s_m = sum_k e^{j 2 pi f0 k} k^m z_k."""
    prior_scale = inv_var / (8.0 * np.pi ** 2)
    return (-np.imag(s1) / (2.0 * np.pi) + prior_scale * (mu_f - f0),
            np.real(s2) + prior_scale)


def _grid_sums(z: np.ndarray) -> np.ndarray:
    """sum_k e^{j 2 pi f_g k} k^m z_k for m = 1, 2 at the G = 4n grid points
    f_g = -1/2 + g/G of a (T, n-1) batch of lag series, shape (T, 2, G), by
    one unnormalized inverse FFT."""
    trials, lags = z.shape
    k = np.arange(1, lags + 1)
    terms = np.zeros((trials, 2, 4 * (lags + 1)), dtype=np.complex128)
    alternating = np.where(k % 2, -1.0, 1.0) * k
    terms[:, 0, 1:lags + 1] = alternating * z
    terms[:, 1, 1:lags + 1] = alternating * k * z
    return np.fft.ifft(terms, axis=-1, norm="forward")


@dataclass(frozen=True)
class _Search:
    """Per-row outcome of the universal search on a batch of lag series."""

    f0: np.ndarray          # (T,) refined offsets, not wrapped; NaN where failed
    iterations: np.ndarray  # (T,) int
    converged: np.ndarray   # (T,) bool, False where failed
    failed: np.ndarray      # (T,) bool: every grid denominator was numerically zero
    grid: np.ndarray        # (G,)
    usable: np.ndarray      # (T, G) bool
    candidates: np.ndarray  # (T, G) grid points after one linearized step
    metrics: np.ndarray     # (T, G) -inf where not usable


def _universal_search(z: np.ndarray, mu_f: np.ndarray, inv_var: np.ndarray) -> _Search:
    """Grid-plus-refinement search on a (T, n-1) batch of lag series, each
    row under its own prior mean and inverse variance."""
    trials, lags = z.shape
    mu_col, iv_col = mu_f[:, None], inv_var[:, None]
    s1, s2 = _grid_sums(z).transpose(1, 0, 2)
    grid = -0.5 + np.arange(s1.shape[-1]) / s1.shape[-1]
    num, den = _step_terms(s1, s2, grid, mu_col, iv_col)
    usable = np.abs(den) >= DENOMINATOR_FLOOR
    fe = num / np.where(usable, den, 1.0)
    candidates = grid + fe
    metrics = np.where(usable, _lag_metric(z, candidates, mu_col, iv_col), -np.inf)
    failed = ~usable.any(axis=1)
    best = metrics.max(axis=1, keepdims=True)
    tied = metrics >= best - METRIC_TIE_TOL * np.maximum(1.0, np.abs(best))
    pick = np.argmin(np.where(tied, np.abs(candidates - mu_col), np.inf), axis=1)
    rows = np.arange(trials)
    f0 = np.where(failed, np.nan, candidates[rows, pick])
    step = np.where(failed, np.nan, fe[rows, pick])
    iterations = np.zeros(trials, dtype=int)
    active = (np.abs(step) > EPSILON) & (iterations < MAX_ITER)
    k = np.arange(1, lags + 1)
    kz = k * z
    k2z = k * kz
    while np.any(active):
        idx = np.flatnonzero(active)
        phases = _phases(f0[idx], lags + 1)[:, 1:]
        # np.multiply, not phases * kz[idx]: on a temporary past 256 KiB numpy
        # would compute kz[idx] *= phases, and a complex product with the
        # operands swapped can differ in the last bit, so a row's result
        # would depend on how many rows are still refining
        num, den = _step_terms(np.sum(np.multiply(phases, kz[idx]), axis=1),
                               np.sum(np.multiply(phases, k2z[idx]), axis=1),
                               f0[idx], mu_f[idx], inv_var[idx])
        moving = np.abs(den) >= DENOMINATOR_FLOOR  # a flat row stops where it is
        idx, fe = idx[moving], num[moving] / den[moving]
        active[:] = False
        step[idx] = fe
        f0[idx] += fe
        iterations[idx] += 1
        active[idx] = (np.abs(fe) > EPSILON) & (iterations[idx] < MAX_ITER)
    return _Search(f0=f0, iterations=iterations, converged=np.abs(step) <= EPSILON,
                   failed=failed, grid=grid, usable=usable, candidates=candidates,
                   metrics=metrics)


DEGENERATE = ("all grid candidates were skipped: every refinement denominator "
              "is numerically zero (degenerate metric)")


@dataclass(frozen=True)
class CfoBatchEstimate:
    """Per-trial results of estimate_cfo_universal_batch, one entry per row of Y.

    f_hat is wrapped into [-0.5, 0.5) and metric is the MAP objective there.
    failed marks rows whose every grid candidate was skipped (a degenerate
    metric, such as y = 0 under zero-mean fading in ML mode); on those
    f_hat and metric are NaN, iterations 0 and converged False.
    """

    f_hat: np.ndarray
    metric: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    failed: np.ndarray


def _estimate_rows(y3: np.ndarray, ws: EstimatorWorkspace, derotate_by_prior_mean: bool):
    """The common-offset search on a validated (T, l_r, n) batch; returns the
    CfoBatchEstimate and the _Search behind it."""
    prior = ws.prior
    offset, mu_f = 0.0, prior.mu_f
    if derotate_by_prior_mean and prior.mu_f != 0.0:
        y3 = _rotation(prior.mu_f, ws.l_r, ws.n).conj() * y3
        offset, mu_f = prior.mu_f, 0.0
    z, lag0 = _lag_terms(y3, ws)
    trials = z.shape[0]
    search = _universal_search(z, np.full(trials, mu_f), np.full(trials, prior.inv_var))
    f_hat = wrap_frequency(search.f0 + offset)
    iv = prior.inv_var
    metric = (lag0 + _lag_metric(z, (f_hat - offset)[:, None], 0.0, 0.0)[:, 0]
              - 0.5 * iv * f_hat * f_hat + iv * prior.mu_f * f_hat)
    estimate = CfoBatchEstimate(f_hat=f_hat, metric=metric, iterations=search.iterations,
                                converged=search.converged, failed=search.failed)
    return estimate, search


def estimate_cfo_universal_batch(y: np.ndarray, ws: EstimatorWorkspace, *,
                                 derotate_by_prior_mean: bool = False) -> CfoBatchEstimate:
    """estimate_cfo_universal for every row of a (T, n*l_r) array of received
    signals, in one pass.

    Each row gets exactly the search of estimate_cfo_universal, and a row's
    results do not depend on the other rows.  A row whose metric is
    degenerate is marked in failed instead of raising.
    """
    return _estimate_rows(_received_rows(y, ws), ws, derotate_by_prior_mean)[0]


def estimate_cfo_universal(y: np.ndarray, ws: EstimatorWorkspace, *,
                           derotate_by_prior_mean: bool = False) -> CfoEstimate:
    """Common-offset MAP estimate via the universal grid-plus-refinement search.

    The grid has 4n points over [-0.5, 0.5); each point gets one linearized
    stationary step, the candidate with the largest MAP metric is kept and
    then refined until the step is at most EPSILON (at most MAX_ITER
    times).  With derotate_by_prior_mean the received signal is
    first rotated by exp(-j 2 pi mu_f k), which re-centers the acquisition
    range on the prior mean.  This is estimate_cfo_universal_batch on one
    row; a degenerate metric raises EstimationError.  diagnostics always
    holds the search's usable grid points (grid_f0), their candidates after
    one linearized step (grid_candidates) and those candidates' metrics
    (grid_metrics), at most 4n of each.
    """
    estimate, search = _estimate_rows(_received(y, ws)[None], ws, derotate_by_prior_mean)
    if estimate.failed[0]:
        raise EstimationError(DEGENERATE)
    usable = search.usable[0]
    diagnostics = {"grid_f0": search.grid[usable],
                   "grid_candidates": search.candidates[0, usable],
                   "grid_metrics": search.metrics[0, usable]}
    return CfoEstimate(f_hat=float(estimate.f_hat[0]), metric=float(estimate.metric[0]),
                       iterations=int(estimate.iterations[0]),
                       converged=bool(estimate.converged[0]), diagnostics=diagnostics)


def estimate_channel_mmse(y: np.ndarray, f_hat, ws: EstimatorWorkspace) -> np.ndarray:
    """MMSE channel estimate mu_h + Sigma_h Sb^H (I - K)(w - ybar) at w = D(f_hat)^H y.

    Equal to A X(f_hat)^H y + b (A, from mmse_gain, is its error covariance) by
    A Sb^H = Sigma_h Sb^H (I + R)^{-1} and (I + R)^{-1} = I - K.
    """
    resid = _derotated(_received(y, ws), f_hat).ravel() - ws.ybar
    resid = resid - (ws.U @ _eigen_rows(resid, ws)[1][0]).ravel()
    u = resid.reshape(ws.l_r, ws.n)[:, :, None] * ws.pilot.entries.conj()[None, :, :]
    return ws.stats.mu_h + ws.stats._apply_cov(u.ravel())


def _prior_vectors(prior, l_r: int):
    """(priors, mu, inv_var) of one CfoPrior for every receive antenna or a
    sequence of l_r of them; ParameterError for anything else."""
    priors = [prior] * l_r if isinstance(prior, CfoPrior) else prior
    if (not isinstance(priors, Sequence) or len(priors) != l_r
            or not all(isinstance(p, CfoPrior) for p in priors)):
        raise ParameterError(f"need one prior per receive antenna ({l_r}): a CfoPrior or "
                             f"a sequence of {l_r} of them, got {prior!r}")
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
    # K applied to w and to the l_r masked vectors M_r w, in the eigen basis
    wt, kernel_wt = _eigen_rows(np.concatenate([w[None], kw * np.eye(l_r)[:, :, None]]), ws)
    lin_terms = ws.lin_table.conj() * kw  # summed over k: lin^H M_r w, (M_r w)^H K w
    quad_terms = kw.conj() * (ws.U @ kernel_wt[0]).reshape(l_r, n)
    grad = (4.0 * np.pi * np.imag(np.sum(lin_terms - quad_terms, axis=1))
            - inv_var * (f_vec - mu))
    cross = np.einsum("aiq,biq->ab", wt[1:].conj(), kernel_wt[1:])  # (M_a w)^H K (M_b w)
    hess = 8.0 * np.pi ** 2 * np.real(cross)
    curvature = np.real(np.sum(k * (lin_terms + quad_terms), axis=1))
    hess[np.diag_indices(l_r)] -= 8.0 * np.pi ** 2 * curvature + inv_var
    return grad, hess


def estimate_cfo_per_antenna(y: np.ndarray, ws: EstimatorWorkspace,
                             prior=None) -> CfoEstimate:
    """Per-receive-antenna offsets f_r under independent Gaussian priors.

    prior is one CfoPrior for every antenna or a sequence of l_r of them,
    and defaults to ws.prior.  Stage 1 runs the scalar universal search on
    each antenna's decoupled subproblem (cross-antenna coupling in K
    ignored), costing O(l_r n) grid work.  Stage 2 jointly refines all
    offsets by Newton steps on the l_r x l_r real system of the metric's
    gradient and Hessian, repeated until the step is at most EPSILON, at
    most MAX_ITER times.  Where
    the Hessian is not negative definite the step uses its eigenvalues'
    magnitudes, so it still points uphill, and a step that lowers the metric
    is halved, at most NEWTON_HALVINGS times, before the refinement stops
    unconverged.  A singular refinement system, or a refinement that ends
    with a lower metric than stage 1 (by more than the grid's tie
    tolerance), returns the stage-1 estimates flagged as degraded.
    """
    l_r = ws.l_r
    priors, mu, inv_var = _prior_vectors(ws.prior if prior is None else prior, l_r)
    y2 = _received(y, ws)
    if l_r == 1:
        # the universal search reads its prior from the workspace
        if priors[0] is not ws.prior:
            ws = replace(ws, prior=priors[0])
        est = estimate_cfo_universal(y2, ws)
        return CfoEstimate(f_hat=np.array([est.f_hat]), metric=est.metric,
                           iterations=est.iterations, converged=est.converged)
    # one row per antenna, under its own prior: the lag series of y masked
    # to that antenna, which reads only the antenna's diagonal block of K
    z_rows = _lag_terms(y2 * np.eye(l_r)[:, :, None], ws)[0]
    search = _universal_search(z_rows, mu, inv_var)
    if np.any(search.failed):
        raise EstimationError(DEGENERATE)
    f_vec = search.f0
    current = per_antenna_metric(y2, f_vec, ws, priors)
    iterations = 0
    converged = singular = False
    for _ in range(MAX_ITER):
        grad, hess = _per_antenna_grad_hess(y2, ws, f_vec, mu, inv_var)
        try:
            curv, basis = np.linalg.eigh(hess)
            # the Newton step -hess^{-1} grad where every curvature is negative;
            # elsewhere the step of the system with its upward curvatures
            # flipped, which still points up (saddle-free Newton); a zero
            # curvature leaves it non-finite, as singular
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = basis @ ((basis.T @ grad) / np.abs(curv))
        except np.linalg.LinAlgError:
            newton = np.full(l_r, np.nan)
        if not np.all(np.isfinite(newton)):
            singular = True
            break
        # halve a step that lowers g; one that lowers it at every length
        # tried ends the refinement unconverged
        step = newton
        for _ in range(NEWTON_HALVINGS + 1):
            trial = per_antenna_metric(y2, f_vec + step, ws, priors)
            if trial >= current - METRIC_TIE_TOL * max(1.0, abs(current)):
                break
            step = 0.5 * step
        else:
            break
        f_vec, current = f_vec + step, trial
        iterations += 1
        if np.max(np.abs(newton)) <= EPSILON:
            converged = True
            break
    stage1 = wrap_frequency(search.f0)
    stage1_metric = per_antenna_metric(y2, stage1, ws, priors)
    f_hat = wrap_frequency(f_vec)
    metric = per_antenna_metric(y2, f_hat, ws, priors)
    # steps within the tie tolerance can still drift below stage 1
    if singular or metric < stage1_metric - METRIC_TIE_TOL * max(1.0, abs(stage1_metric)):
        return CfoEstimate(f_hat=stage1, metric=stage1_metric, iterations=iterations,
                           converged=False, degraded=True)
    return CfoEstimate(f_hat=f_hat, metric=metric, iterations=iterations,
                       converged=converged)
