"""Correlated MIMO fading statistics, AR(1) trajectory sampling, and the
received-signal model.

The channel coefficient h[r, t, k] (receive antenna r, transmit antenna t,
symbol time k) is complex Gaussian with a time-constant mean and a separable
covariance

    Cov[h[r, t, k], h[r', t', k']] = rho_h^|k - k'| * C[(r, t), (r', t')],

which is exactly the stationary law of the first-order Gauss-Markov
recursion simulated by :func:`sample_ar1_trajectory`.  rho_h = 1 is a
channel frozen over the pilot, rho_h = 0 is i.i.d. fading.

The received sample at antenna r, time k (0-based) is

    y[r, k] = exp(j 2 pi f_r k) * sum_t S[k, t] h[r, t, k] + noise,

with i.i.d. unit-variance circularly-symmetric complex Gaussian noise.

Both samplers write h_k = mu + L e_k (L L^H = spatial_cov), where one
zero-mean AR(1) recursion, _ar1, makes e_k from white innovations xi_k.
sample_ar1_trajectory and synthesize_rx build y through the channel h.  The
Monte-Carlo trials need only y, so _received_trials samples it in the n*l_r
receive space from the same normals and a sweep point's workspace.  One
core, _innovations, reads the innovations from a trial's row of normals and
makes e_k; after it a trajectory applies L and mu (_ar1_trajectories), a
received signal the pilot's map of L and the workspace's mean
(_received_trials).  The two paths agree up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ModelError, _array, _check_int
from .pilots import PilotMatrix

HERMITIAN_TOL = 1e-12
PSD_TOL = -1e-10
# the scale of each part of a CN(0, 1) sample from two standard normals
PART_SCALE = 1.0 / math.sqrt(2.0)


def _check_hermitian_psd(matrix: np.ndarray, label: str, factor: bool = True):
    """Reject a square matrix that is not Hermitian and positive
    semidefinite (each caller checks the shape first); return L with
    L L^H = matrix, or None when no factor is asked for.  L is the Cholesky
    factor when that succeeds, which proves the matrix positive definite.
    When it fails, the smallest eigenvalue is checked, from one
    eigendecomposition that also gives the eigen factor
    vec sqrt(clip(eig, 0)), or from the eigenvalues alone.
    """
    if np.max(np.abs(matrix - matrix.conj().T)) > HERMITIAN_TOL * max(1.0, np.max(np.abs(matrix))):
        raise ModelError(f"{label} is not Hermitian")
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        pass
    eig, vec = np.linalg.eigh(matrix) if factor else (np.linalg.eigvalsh(matrix), None)
    eigmin = float(eig[0])
    if eigmin < PSD_TOL * max(1.0, float(np.max(np.abs(matrix)))):
        raise ModelError(f"{label} is not positive semidefinite (eigmin {eigmin:.3e})")
    return None if vec is None else vec * np.sqrt(np.clip(eig, 0.0, None))[None, :]


def _check_rho_h(rho_h, error=ModelError):
    """error unless the time correlation rho_h lies in [0, 1]: the one range
    rule of CorrelationModel, build_stats and the CLI config."""
    if not 0.0 <= rho_h <= 1.0:
        raise error(f"rho_h must lie in [0, 1], got {rho_h}")


@dataclass(frozen=True)
class CorrelationModel:
    """Separable space-time correlation: AR(1) in time, arbitrary in space.

    spatial_cov is the (l_t*l_r) x (l_t*l_r) Hermitian PSD covariance across
    antenna pairs, indexed by (r, t) -> r*l_t + t; mean is the matching
    complex mean vector, constant over time.
    """

    l_t: int
    l_r: int
    rho_h: float
    spatial_cov: np.ndarray
    mean: np.ndarray

    def __post_init__(self):
        for name in ("l_t", "l_r"):
            _check_int(name, getattr(self, name), error=ModelError)
        _check_rho_h(self.rho_h)
        d = self.l_t * self.l_r
        cov = _array("spatial_cov", self.spatial_cov, (d, d), error=ModelError)
        mean = _array("mean", self.mean, (d,), error=ModelError)
        # the samplers' L with L L^H = spatial_cov, from the check's
        # decomposition: Cholesky, or the eigen factor of a singular one
        factor = _check_hermitian_psd(cov, "spatial_cov")
        for value in (cov, mean, factor):
            value.setflags(write=False)
        object.__setattr__(self, "spatial_cov", cov)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "_spatial_factor", factor)

    @cached_property
    def _kronecker_factors(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(A_r, B_t) with spatial_cov = kron(A_r, B_t), A_r over the receive
        and B_t over the transmit antennas, or None when it does not factor.

        Van Loan and Pitsianis's rearrangement maps kron(A_r, B_t) to the
        rank-one vec(A_r) vec(B_t)^T, so a Kronecker covariance C is fixed by
        its largest diagonal entry C[(r0,t0),(r0,t0)] = A_r[r0,r0] B_t[t0,t0]
        and the two diagonal blocks through it, C[(:,t0),(:,t0)] =
        B_t[t0,t0] A_r and C[(r0,:),(r0,:)] = A_r[r0,r0] B_t.  Both are
        principal submatrices, hence Hermitian PSD even for a complex B_t.
        The pair is kept only if its Kronecker product reproduces C within
        HERMITIAN_TOL, that is, if the rearranged C is rank one.
        """
        l_r, l_t = self.l_r, self.l_t
        c4 = self.spatial_cov.reshape(l_r, l_t, l_r, l_t)
        diag = np.einsum("rtrt->rt", c4).real
        r0, t0 = np.unravel_index(np.argmax(diag), diag.shape)
        pivot = diag[r0, t0]
        if pivot > 0:
            a = c4[:, t0, :, t0] / pivot
        else:  # a PSD matrix with a zero diagonal is zero
            a = np.zeros((l_r, l_r), dtype=np.complex128)
        b = c4[r0, :, r0, :].copy()
        # |C_ij| <= max_i C_ii for a PSD C, so the pivot is max |C|
        misfit = np.abs(a[:, None, :, None] * b[None, :, None, :] - c4).max()
        if misfit > HERMITIAN_TOL * max(1.0, pivot):
            return None
        for factor in (a, b):
            factor.setflags(write=False)
        return a, b

    def per_coefficient_power(self) -> float:
        """Average of E|h[r,t,k]|^2 over antenna pairs (variance plus |mean|^2)."""
        return float(np.mean(np.diag(self.spatial_cov).real + np.abs(self.mean) ** 2))


def exponential_spatial_cov(l_t: int, l_r: int, a: float = 0.5, b: float = 0.5,
                            sigma_h_sq: float = 1.0) -> np.ndarray:
    """C[(r,t),(r',t')] = sigma_h^2 * a^|r-r'| * b^|t-t'|."""
    for name, value in (("l_t", l_t), ("l_r", l_r)):
        _check_int(name, value, error=ModelError)
    r = np.arange(l_r)
    t = np.arange(l_t)
    corr_r = a ** np.abs(r[:, None] - r[None, :])
    corr_t = b ** np.abs(t[:, None] - t[None, :])
    return sigma_h_sq * np.kron(corr_r, corr_t).astype(np.complex128)


def make_model(l_t: int, l_r: int, rho_h: float, *, spatial: str = "iid",
               spatial_a: float = 0.5, spatial_b: float = 0.5,
               sigma_h_sq: float = 1.0, mean: str = "zero",
               rician_k: float = 1.0) -> CorrelationModel:
    """Build the standard experiment models.

    spatial "iid" gives sigma_h_sq * I; "exponential" the separable
    a^|dr| b^|dt| profile.  mean "zero" or "rician"; the Rician option puts
    the power K/(K+1) of each coefficient into a constant mean and scales
    the fluctuating part by 1/(K+1), keeping E|h|^2 = sigma_h_sq.
    """
    for name, value in (("l_t", l_t), ("l_r", l_r)):
        _check_int(name, value, error=ModelError)
    d = l_t * l_r
    if spatial == "iid":
        cov = sigma_h_sq * np.eye(d, dtype=np.complex128)
    elif spatial == "exponential":
        cov = exponential_spatial_cov(l_t, l_r, spatial_a, spatial_b, sigma_h_sq)
    else:
        raise ModelError(f"unknown spatial model {spatial!r}")
    if mean == "zero":
        mu = np.zeros(d, dtype=np.complex128)
    elif mean == "rician":
        if not 0.0 <= rician_k < math.inf:  # a NaN fails too
            raise ModelError(f"rician_k must be nonnegative and finite, got {rician_k}")
        mu = np.full(d, math.sqrt(sigma_h_sq * rician_k / (rician_k + 1.0)),
                     dtype=np.complex128)
        cov = cov / (rician_k + 1.0)
    else:
        raise ModelError(f"unknown mean model {mean!r}")
    return CorrelationModel(l_t=l_t, l_r=l_r, rho_h=rho_h, spatial_cov=cov, mean=mu)


@dataclass(frozen=True)
class ChannelStats:
    """Mean and covariance of the length l_t*l_r*n vectorized channel.

    Constructed directly, it holds a finite mean mu_h and the dense
    (l_t*l_r*n)^2 covariance sigma_h, which must be finite, Hermitian and
    positive semidefinite.  Stats made by build_stats keep the covariance
    in its separable form instead (see there); sigma_h is then built
    densely on first read.  Other modules
    reach the covariance only through _receive_factors, _receive_cov and
    _apply_cov, which work on either form.
    """

    l_t: int
    l_r: int
    n: int
    mu_h: np.ndarray
    sigma_h: np.ndarray

    def __post_init__(self):
        dim = self.l_t * self.l_r * self.n
        mu = _array("mu_h", self.mu_h, (dim,), error=ModelError)
        sigma = _array("sigma_h", self.sigma_h, (dim, dim), error=ModelError)
        _check_hermitian_psd(sigma, "sigma_h", factor=False)
        mu.setflags(write=False)
        sigma.setflags(write=False)
        object.__setattr__(self, "mu_h", mu)
        object.__setattr__(self, "sigma_h", sigma)

    @property
    def dim(self) -> int:
        return self.l_t * self.l_r * self.n

    def _receive_mean(self, entries: np.ndarray) -> np.ndarray:
        """ybar = Sb mu_h for the (n, l_t) pilot entries, shape (l_r, n)."""
        return np.einsum("kt,rkt->rk", entries,
                         self.mu_h.reshape(self.l_r, self.n, self.l_t))

    def _receive_cov(self, entries: np.ndarray) -> np.ndarray:
        """R = Sb Sigma_h Sb^H for the (n, l_t) pilot entries, (n*l_r)^2."""
        l_t, l_r, n = self.l_t, self.l_r, self.n
        sigma6 = self.sigma_h.reshape(l_r, n, l_t, l_r, n, l_t)
        return np.einsum("kt,rktRKT,KT->rkRK", entries, sigma6, entries.conj(),
                         optimize=True).reshape(l_r * n, l_r * n)

    def _receive_factors(self, entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(A_r, M) with R = Sb Sigma_h Sb^H = kron(A_r, M): A_r over the
        receive antennas, M over the symbol times.  A dense covariance has no
        such split and gives the 1 x 1 factor and R itself."""
        return np.ones((1, 1), dtype=np.complex128), self._receive_cov(entries)

    def _apply_cov(self, u: np.ndarray) -> np.ndarray:
        """Sigma_h u for a channel-space vector u."""
        return self.sigma_h @ u


class _SeparableStats(ChannelStats):
    """ChannelStats of a CorrelationModel, Sigma_h = rho_h^|k-k'| * C kept as
    its two factors: time_corr (n x n) and spatial_cov (l_t*l_r square).
    spatial_factors is the model's (A_r, B_t) with spatial_cov =
    kron(A_r, B_t), or None when spatial_cov does not factor.

    No dense Hermitian or PSD check is run: spatial_cov was checked by
    CorrelationModel, rho_h^|k-k'| is PSD for rho_h in [0, 1] (the AR(1)
    correlation), and the Kronecker product of PSD factors is PSD.
    """

    def __init__(self, l_t: int, l_r: int, n: int, mu_h: np.ndarray,
                 time_corr: np.ndarray, spatial_cov: np.ndarray,
                 spatial_factors: tuple[np.ndarray, np.ndarray] | None):
        for name, value in (("l_t", l_t), ("l_r", l_r), ("n", n), ("mu_h", mu_h),
                            ("time_corr", time_corr), ("spatial_cov", spatial_cov),
                            ("spatial_factors", spatial_factors)):
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        return f"ChannelStats(l_t={self.l_t}, l_r={self.l_r}, n={self.n}, separable)"

    def _spatial4(self) -> np.ndarray:
        return self.spatial_cov.reshape(self.l_r, self.l_t, self.l_r, self.l_t)

    @cached_property
    def sigma_h(self) -> np.ndarray:
        sigma = np.einsum("kK,rtRT->rktRKT", self.time_corr,
                          self._spatial4()).reshape(self.dim, self.dim)
        sigma.setflags(write=False)
        return sigma

    def _receive_cov(self, entries: np.ndarray) -> np.ndarray:
        # R[(r,k),(r',k')] = T[k,k'] * S[k,:] C_{rr'} S[k',:]^H
        r4 = np.einsum("kt,rtRT,KT->rkRK", entries, self._spatial4(), entries.conj(),
                       optimize=True)
        r4 *= self.time_corr[None, :, None, :]
        return r4.reshape(self.l_r * self.n, self.l_r * self.n)

    def _receive_factors(self, entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self.spatial_factors is None:
            return super()._receive_factors(entries)
        # R[(r,k),(r',k')] = A_r[r,r'] * T[k,k'] * (S B_t S^H)[k,k']
        a, b = self.spatial_factors
        return a, self.time_corr * (entries @ b @ entries.conj().T)

    def _apply_cov(self, u: np.ndarray) -> np.ndarray:
        u3 = u.reshape(self.l_r, self.n, self.l_t)
        return np.einsum("kK,rtRT,RKT->rkt", self.time_corr, self._spatial4(), u3,
                         optimize=True).ravel()


@lru_cache(maxsize=16)
def _lags(n: int) -> np.ndarray:
    """The read-only (n, n) table |k - k'| of symbol-time lags."""
    lags = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    lags.setflags(write=False)
    return lags


def build_stats(model: CorrelationModel, n: int,
                rho_h: float | None = None) -> ChannelStats:
    """Channel statistics of a correlation model over n symbol times, in the
    package layout.

    The covariance stays in its separable form rho_h^|k-k'| * spatial_cov:
    no (l_t*l_r*n)^2 matrix is formed until sigma_h is read, and the dense
    Hermitian/PSD check of a directly constructed ChannelStats is skipped,
    because the model's factors make it PSD by construction.  rho_h, when
    given, replaces the model's time correlation, so that a sweep over
    rho_h reuses one model's checks and factors.
    """
    _check_int("n", n)
    rho_h = model.rho_h if rho_h is None else rho_h
    _check_rho_h(rho_h)
    l_t, l_r = model.l_t, model.l_r
    time_corr = (rho_h ** np.arange(n))[_lags(n)]  # 0**0 == 1 covers rho_h = 0
    time_corr.setflags(write=False)
    mu = np.broadcast_to(model.mean.reshape(l_r, 1, l_t), (l_r, n, l_t)).ravel()
    mu.setflags(write=False)
    return _SeparableStats(l_t, l_r, n, mu, time_corr, model.spatial_cov,
                           model._kronecker_factors)


def _unit_complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """CN(0, 1) samples from independent standard-normal real and imaginary parts."""
    out = np.empty(np.shape(re), dtype=np.complex128)
    np.multiply(re, PART_SCALE, out=out.real)
    np.multiply(im, PART_SCALE, out=out.imag)
    return out


def _ar1(xi: np.ndarray, rho_h: float) -> np.ndarray:
    """The zero-mean AR(1) recursion e_0 = xi_0, e_k = rho_h e_{k-1} +
    sqrt(1 - rho_h^2) xi_k along the first (time) axis of xi, in place;
    returns xi.  Each step reads one contiguous slab."""
    xi[1:] *= math.sqrt(1.0 - rho_h * rho_h)
    for k in range(1, len(xi)):
        xi[k] += rho_h * xi[k - 1]
    return xi


def sample_ar1_trajectory(model: CorrelationModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """One channel trajectory h of length l_t*l_r*n in the package layout.

    h_k = mu + L e_k with L L^H = spatial_cov and e_k the zero-mean AR(1)
    recursion (_ar1) of white xi_k ~ CN(0, I), so every marginal has mean
    mu and covariance spatial_cov, and lag-l correlation rho_h^l.  The
    batch of one of _ar1_trajectories, from one row of 2*n*d normals.
    """
    _check_int("n", n)
    return _ar1_trajectories(model, n, rng.standard_normal((1, 2 * n * model.l_t * model.l_r)))[0]


def _innovations(normals: np.ndarray, n: int, d: int, rho_h: float) -> np.ndarray:
    """The zero-mean AR(1) e (n, T, d) of T trials, time-major, from their
    rows of normals: each row starts with the white innovations' real
    parts (n, d), then their imaginary parts (n, d), and any normals after
    those (a trial's noise) are left alone.  _unit_complex makes xi from
    the parts and _ar1 runs the recursion on it."""
    parts = normals[:, :2 * n * d].reshape(len(normals), 2, n, d).transpose(1, 2, 0, 3)
    return _ar1(_unit_complex(parts[0], parts[1]), rho_h)


def _ar1_trajectories(model: CorrelationModel, n: int, normals: np.ndarray) -> np.ndarray:
    """Channel trajectories (T, l_t*l_r*n) from T rows of normals as
    _innovations reads them, so a trial's row of _received_trials gives its
    channel.  The spatial factor applies in one (T*n, d) product, which for
    one trial is a single call's (n, d) product."""
    d = model.l_t * model.l_r
    e = _innovations(normals, n, d, model.rho_h)  # (n, T, d)
    h = model.mean + e.transpose(1, 0, 2).reshape(-1, d) @ model._spatial_factor.T
    # (T*n, l_r*l_t) -> (T, flat (r, k, t))
    return h.reshape(-1, n, model.l_r, model.l_t).transpose(0, 2, 1, 3).reshape(len(normals), -1)


def _received_trials(model: CorrelationModel, ws, f: np.ndarray,
                     normals: np.ndarray) -> np.ndarray:
    """Received signals (T, n*l_r) of T trials of the model's channel under
    the pilot of the workspace ws, sampled in the receive space.

    normals holds one row per trial of standard normals as a stream draws
    them for sample_ar1_trajectory and synthesize_rx: the innovations' real
    and imaginary parts (n, d each), then the noise's real and imaginary
    parts (l_r, n each); a row of exactly 2*n*d normals is a noiseless
    trial.  f holds the T offsets.  _innovations makes the zero-mean AR(1)
    e in time-major (n, T, d) layout.  With h_k = mu + L e_k (L L^H =
    spatial_cov), the zero-offset noiseless sample of symbol k is
    sum_t S[k, t] h[r, t, k] = ybar[r, k] + (G[k] e_k)[r], with ybar = Sb mu_h
    the workspace's zero-offset mean and G[k] = (I_r kron S[k, :]) L for the
    pilot entries S.  So y = D(f)(ybar + G[k] e_k) + noise: one
    (l_r x d)(d) product per symbol and trial, so no BLAS call spans two
    trials and a trial's y does not depend on its block.  Any L will do, so
    a spatial covariance that is not a Kronecker product runs the same code.
    Same law as synthesize_rx of sample_ar1_trajectory from the same draws,
    equal to it up to rounding.
    """
    n, l_r, d = ws.n, ws.l_r, model.l_t * model.l_r
    factor = model._spatial_factor.reshape(l_r, model.l_t, d)
    rx_map = np.matmul(ws.pilot.entries, factor).transpose(1, 0, 2)  # G, (n, l_r, d)
    e = _innovations(normals, n, d, model.rho_h)
    y0 = np.matmul(rx_map[:, None], e[..., None])[..., 0]  # (n, T, l_r)
    y = np.empty(y0.shape[1:] + (n,), dtype=np.complex128)
    np.add(ws.ybar.reshape(l_r, n), y0.transpose(1, 2, 0), out=y)
    y *= _phases(f, n)[:, None, :]
    if normals.shape[1] > 2 * n * d:
        noise = normals[:, 2 * n * d:].reshape(-1, 2, l_r, n)
        y += _unit_complex(noise[:, 0], noise[:, 1])
    return y.reshape(len(normals), -1)


def _phases(f: np.ndarray, n: int) -> np.ndarray:
    """exp(j 2 pi f k) for k = 0 .. n-1, one row per entry of f: shape
    f.shape + (n,).  One exp per row; the powers come from a cumulative
    product along the row."""
    f = np.asarray(f, dtype=float)
    steps = np.empty(f.shape + (n,), dtype=np.complex128)
    steps[..., :1] = 1.0
    steps[..., 1:] = np.exp(2j * np.pi * f)[..., None]
    return np.cumprod(steps, axis=-1)


def _rotation(f, l_r: int, n: int) -> np.ndarray:
    """exp(j 2 pi f_r k) on the (l_r, n) receive grid.

    f is a scalar offset shared by every receive antenna or a length-l_r
    vector of per-antenna offsets, in cycles per symbol; a non-finite
    offset is rejected.
    """
    # one offset, in an array of any shape with one entry, serves every antenna
    f = _array("offset", f, np.shape(f) if np.size(f) == 1 else (l_r,), dtype=float)
    return _phases(np.broadcast_to(f.ravel(), (l_r,)), n)


def synthesize_rx(pilot: PilotMatrix, l_r: int, f_true, h: np.ndarray,
                  noise_rng: np.random.Generator | None = None) -> np.ndarray:
    """Received vector y of length n*l_r; pass noise_rng=None for a noiseless run.

    f_true may be a scalar (common offset) or a length-l_r vector of
    per-receive-antenna offsets, in cycles per symbol.
    """
    _check_int("l_r", l_r)
    n, l_t = pilot.entries.shape
    h = _array("channel vector h (l_r*n*l_t)", h, (l_r * n * l_t,))
    y = _rotation(f_true, l_r, n) * np.einsum("kt,rkt->rk", pilot.entries,
                                                h.reshape(l_r, n, l_t))
    if noise_rng is not None:
        y = y + _unit_complex(noise_rng.standard_normal((l_r, n)),
                              noise_rng.standard_normal((l_r, n)))
    return y.ravel()


@dataclass(frozen=True)
class CfoPrior:
    """Gaussian prior on the normalized CFO; sigma_f_sq = inf disables it (ML)."""

    mu_f: float = 0.0
    sigma_f_sq: float = math.inf

    def __post_init__(self):
        if not math.isfinite(self.mu_f):
            raise ModelError(f"mu_f must be finite, got {self.mu_f}")
        if not (self.sigma_f_sq > 0):
            raise ModelError("sigma_f_sq must be positive (use inf for ML mode)")

    @classmethod
    def ml(cls, mu_f: float = 0.0) -> "CfoPrior":
        """No-prior (maximum-likelihood) mode, inverse variance zero."""
        return cls(mu_f=mu_f, sigma_f_sq=math.inf)

    @property
    def inv_var(self) -> float:
        return 0.0 if math.isinf(self.sigma_f_sq) else 1.0 / self.sigma_f_sq

    @property
    def is_ml(self) -> bool:
        return self.inv_var == 0.0

    def sample(self, rng: np.random.Generator) -> float:
        if self.is_ml:
            raise ModelError("cannot sample from the improper ML prior")
        return float(rng.normal(self.mu_f, math.sqrt(self.sigma_f_sq)))
