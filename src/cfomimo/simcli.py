"""Monte-Carlo experiment harness and command-line runner.

Subcommands: bounds-vs-rho, bounds-vs-snr, mse-vs-snr, single, validate.
Experiments are driven by a YAML config file; command-line flags override
file values.  Example config::

    pilot: {structure: td, l_t: 4, m: 5}
    l_r: 4
    channel:
      rho_h: 0.99
      spatial: {kind: iid, sigma_h_sq: 1.0}
      mean: {kind: zero}
    prior: {mu_f: 0.1, sigma_f_sq: 1.0e-5}   # or {ml: true, mu_f: 0.0}
    snr_db: [10, 20, 30]
    trials: 2000
    seed: 1
    f_true: prior        # "prior" samples f from the prior, "fixed" pins mu_f

SNR is defined as pilot power times per-coefficient channel power with unit
noise variance, so sweeps rescale the pilot power only.  Every trial draws
from its own counter-based random stream keyed by (sweep point, trial), so
results are reproducible; identical config and seed give byte-identical CSV
output.  Trials run on one thread, in blocks.  A trial's normals are the
ones sample_ar1_trajectory and synthesize_rx would draw from its stream,
but mse-vs-snr takes them straight to the n*l_r received signal: the AR(1)
recursion runs on the white innovations and one map per symbol,
G[k] = (I_r kron S[k, :]) L, replaces the l_t*l_r*n channel and its
projection through the pilot (channel._received_trials).  The batched
estimator core then searches the whole block.  A trial's result depends
neither on the block it ran in nor on the worker count, which is accepted
and validated but no longer used.

CSV schema (fixed): sweep_var,value,mse,crlb,bcrlb,trials,failures,mean_iters
with infinities serialized as "inf" and inapplicable cells left empty.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .bounds import evaluate_bounds
from .channel import (CfoPrior, _receive_map, _received_trials, _unit_complex,
                      build_stats, make_model, sample_ar1_trajectory,
                      synthesize_rx)
from .errors import (EstimationError, ModelError, NumericalError,
                     ParameterError)
from .estimator import (build_workspace, compute_z, estimate_cfo_universal,
                        estimate_cfo_universal_batch, estimate_channel_mmse,
                        map_metric, metric_gradient)
from .pilots import generate_periodic_pilot, generate_td_pilot

CSV_HEADER = "sweep_var,value,mse,crlb,bcrlb,trials,failures,mean_iters"
PLOT_HEADER = "figure,series,x,y"
WORKERS_ENV = "CFOMIMO_WORKERS"
PILOT_STRUCTURES = ("periodic", "td")
CONFIG_KEYS = ("pilot", "l_r", "channel", "prior", "f_true", "snr_db", "trials",
               "seed", "noise", "workers")
INT_FIELDS = ("l_t", "m", "l_r", "trials", "seed", "workers")
FLOAT_FIELDS = ("rho_h", "spatial_a", "spatial_b", "sigma_h_sq", "rician_k",
                "mu_f", "sigma_f_sq")
# trials run in blocks of T, with T * _trial_bytes (a trial's share of the
# block's draws, innovations and lag-fold arrays, whichever phase holds
# more) kept near this size: 40 trials at the benchmark's (8,3,8), where the
# grid search stops being overhead-bound, at about 1 MB more peak RSS
BLOCK_BYTES = 1 << 21


def _coerce(name: str, value, kind):
    """value converted by kind (int or float).  Strings that spell a number
    are accepted; booleans and values the conversion would change (2.5 for
    an integer) are not."""
    try:
        out = kind(value)
    except (TypeError, ValueError):
        out = None
    if out is None or isinstance(value, bool) or (
            not isinstance(value, str) and out != value and out == out):
        raise ParameterError(f"{name} must be {kind.__name__}, got {value!r}")
    return out


def _as_tuple(value) -> tuple:
    return (value,) if np.isscalar(value) else tuple(value)


def _section(section, label: str, allowed: tuple) -> dict:
    """A config mapping (empty when absent) whose keys must all be in allowed."""
    section = section or {}
    if not isinstance(section, dict):
        raise ParameterError(f"config section {label!r} must be a mapping")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ParameterError(f"unknown {label} keys: {unknown}")
    return section


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment (see module docstring)."""

    pilot_structure: str = "td"
    l_t: int = 4
    m: int = 5
    l_r: int = 4
    rho_h: float = 1.0
    rho_h_grid: tuple = ()
    spatial_kind: str = "iid"
    spatial_a: float = 0.5
    spatial_b: float = 0.5
    sigma_h_sq: float = 1.0
    mean_kind: str = "zero"
    rician_k: float = 1.0
    prior_ml: bool = False
    mu_f: float = 0.1
    sigma_f_sq: float = 1e-5
    snr_db: tuple = (20.0,)
    trials: int = 1000
    seed: int = 0
    f_true_mode: str = "prior"
    noise: bool = True
    workers: int = 0  # 0: take CFOMIMO_WORKERS, else 1

    def __post_init__(self):
        for name in INT_FIELDS:
            object.__setattr__(self, name, _coerce(name, getattr(self, name), int))
        for name in FLOAT_FIELDS:
            value = _coerce(name, getattr(self, name), float)
            if not (math.isfinite(value) or (name == "sigma_f_sq" and value == math.inf)):
                raise ParameterError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        for name in ("prior_ml", "noise"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise ParameterError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if self.pilot_structure not in PILOT_STRUCTURES:
            raise ParameterError(f"pilot structure must be one of {PILOT_STRUCTURES}")
        if self.l_t < 1 or self.m < 1 or self.l_r < 1:
            raise ParameterError("l_t, m and l_r must be positive")
        if self.trials < 1:
            raise ParameterError("trials must be >= 1")
        if self.seed < 0:
            raise ParameterError("seed must be >= 0")
        if self.workers < 0:
            raise ParameterError(f"workers must be >= 0 (0: ${WORKERS_ENV}, else 1)")
        if len(self.snr_db) == 0:
            raise ParameterError("snr_db grid must be non-empty")
        if self.f_true_mode not in ("prior", "fixed"):
            raise ParameterError("f_true must be 'prior' or 'fixed'")
        for name in ("snr_db", "rho_h_grid"):
            object.__setattr__(self, name, tuple(_coerce(name, v, float)
                                                 for v in getattr(self, name)))
        for name in ("snr_db", "rho_h_grid"):
            if not all(math.isfinite(v) for v in getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        for rho_h in (self.rho_h,) + self.rho_h_grid:
            if not 0.0 <= rho_h <= 1.0:
                raise ParameterError(f"rho_h must lie in [0, 1], got {rho_h}")

    @property
    def n(self) -> int:
        return self.m * self.l_t

    @classmethod
    def from_mapping(cls, data: dict) -> "ExperimentConfig":
        data = _section(data, "config", CONFIG_KEYS)
        pilot = _section(data.get("pilot"), "pilot", ("structure", "l_t", "m"))
        channel = _section(data.get("channel"), "channel",
                           ("rho_h", "rho_h_grid", "spatial", "mean"))
        spatial = _section(channel.get("spatial"), "spatial",
                           ("kind", "a", "b", "sigma_h_sq"))
        mean = _section(channel.get("mean"), "mean", ("kind", "k_factor"))
        prior = _section(data.get("prior"), "prior", ("ml", "mu_f", "sigma_f_sq"))
        kwargs = {
            "pilot_structure": pilot.get("structure", cls.pilot_structure),
            "l_t": pilot.get("l_t", cls.l_t),
            "m": pilot.get("m", cls.m),
            "spatial_kind": spatial.get("kind", cls.spatial_kind),
            "spatial_a": spatial.get("a", cls.spatial_a),
            "spatial_b": spatial.get("b", cls.spatial_b),
            "sigma_h_sq": spatial.get("sigma_h_sq", cls.sigma_h_sq),
            "mean_kind": mean.get("kind", cls.mean_kind),
            "rician_k": mean.get("k_factor", cls.rician_k),
            "prior_ml": prior.get("ml", cls.prior_ml),
            "mu_f": prior.get("mu_f", cls.mu_f),
            "sigma_f_sq": prior.get("sigma_f_sq", cls.sigma_f_sq),
            "rho_h": channel.get("rho_h", cls.rho_h),
            "rho_h_grid": _as_tuple(channel.get("rho_h_grid", cls.rho_h_grid)),
            "snr_db": _as_tuple(data.get("snr_db", cls.snr_db)),
            "f_true_mode": data.get("f_true", cls.f_true_mode),
        }
        for key in ("l_r", "trials", "seed", "noise", "workers"):
            if key in data:
                kwargs[key] = data[key]
        return cls(**kwargs)

    def prior(self) -> CfoPrior:
        if self.prior_ml:
            return CfoPrior.ml(self.mu_f)
        return CfoPrior(self.mu_f, self.sigma_f_sq)

    def model(self):
        return make_model(self.l_t, self.l_r, self.rho_h,
                          spatial=self.spatial_kind, spatial_a=self.spatial_a,
                          spatial_b=self.spatial_b, sigma_h_sq=self.sigma_h_sq,
                          mean=self.mean_kind, rician_k=self.rician_k)

    def pilot(self, rho: float, structure: str | None = None):
        structure = structure or self.pilot_structure
        if structure == "periodic":
            return generate_periodic_pilot(self.l_t, self.m, rho)
        return generate_td_pilot(self.l_t, self.m, rho)

    def effective_workers(self) -> int:
        """The worker count the config resolves to (workers, else
        $CFOMIMO_WORKERS, else 1).  Results do not depend on it; an
        environment value that is not an integer >= 0 raises ParameterError."""
        if self.workers > 0:
            return self.workers
        env = os.environ.get(WORKERS_ENV, "").strip()
        if not env:
            return 1
        try:
            workers = int(env)
            if workers < 0:
                raise ValueError(env)
        except ValueError:
            raise ParameterError(
                f"${WORKERS_ENV} must be an integer >= 0, got {env!r}") from None
        return max(1, workers)


def load_config(path: str | None, overrides: dict | None = None) -> ExperimentConfig:
    """Load YAML (or defaults when path is None) and apply flag overrides."""
    data = {}
    if path:
        import yaml  # only a config file needs it; importing it costs about 0.9 MB of RSS
        with open(path) as fh:
            data = yaml.safe_load(fh) or {}
    config = ExperimentConfig.from_mapping(data)
    if overrides:
        config = replace(config, **overrides)
    config.effective_workers()  # reject a malformed $CFOMIMO_WORKERS here
    return config


@dataclass(frozen=True)
class SweepRow:
    sweep_var: str
    value: float
    mse: float | None
    crlb: float
    bcrlb: float
    trials: int
    failures: int
    mean_iters: float | None


@dataclass(frozen=True)
class SweepResult:
    rows: tuple

    def to_csv_text(self) -> str:
        lines = [CSV_HEADER]
        for row in self.rows:
            lines.append(",".join([
                row.sweep_var,
                _fmt(row.value),
                _fmt(row.mse),
                _fmt(row.crlb),
                _fmt(row.bcrlb),
                str(row.trials),
                str(row.failures),
                _fmt(row.mean_iters),
            ]))
        return "\n".join(lines) + "\n"

    def plot_data_text(self, figure: str) -> str:
        """Long-format per-figure series for external plotting tools."""
        lines = [PLOT_HEADER]
        for row in self.rows:
            for series, value in (("mse", row.mse), ("crlb", row.crlb),
                                  ("bcrlb", row.bcrlb)):
                if value is None:
                    continue
                label = row.sweep_var.partition("[")[2].rstrip("]")
                name = f"{series}[{label}]" if label else series
                lines.append(f"{figure},{name},{_fmt(row.value)},{_fmt(value)}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class TrialRecord:
    """Everything produced by one synthesize -> estimate -> report cycle."""

    status: str
    f_true: float
    f_hat: float
    sq_error: float
    channel_sq_error: float
    metric: float
    iterations: int
    converged: bool
    crlb: float
    bcrlb: float
    z: np.ndarray
    grid_candidates: np.ndarray
    grid_metrics: np.ndarray

    def to_json(self) -> str:
        def enc(value):
            if isinstance(value, np.ndarray):
                if np.iscomplexobj(value):
                    return {"re": value.real.tolist(), "im": value.imag.tolist()}
                return value.tolist()
            if isinstance(value, float) and not math.isfinite(value):
                return "inf" if math.isinf(value) else None  # JSON has no NaN
            return value
        payload = {k: enc(v) for k, v in self.__dict__.items()}
        return json.dumps(payload, indent=2, allow_nan=False)


def _fmt(value) -> str:
    if value is None:
        return ""
    value = float(value)
    if math.isinf(value):
        return "inf"
    return repr(value)


def _trial_rng(seed: int, point: int, trial: int) -> np.random.Generator:
    """One independent counter-based stream per (sweep point, trial)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(point, trial)))


def _snr_to_rho(snr_db: float, model) -> float:
    # SNR = rho * per-coefficient channel power, unit noise variance
    return 10.0 ** (snr_db / 10.0) / model.per_coefficient_power()


def run_bounds_vs_rho(config: ExperimentConfig) -> SweepResult:
    """Closed-form CRLB/BCRLB over a rho_h grid for both pilot structures.

    No sampling; evaluated at the first SNR grid point.  The model and, per
    structure, the pilot are built once: neither the per-coefficient power
    nor the pilot depends on rho_h.
    """
    grid = config.rho_h_grid or tuple(np.linspace(0.0, 1.0, 50))
    prior = config.prior()
    model = config.model()
    rho = _snr_to_rho(config.snr_db[0], model)
    rows = []
    for structure in PILOT_STRUCTURES:
        pilot = config.pilot(rho, structure)
        for rho_h in grid:
            stats = build_stats(model, config.n, rho_h)
            res = evaluate_bounds(pilot, config.l_r, stats, prior)
            rows.append(SweepRow(f"rho_h[{structure}]", rho_h, None,
                                 res.crlb, res.bcrlb, 0, 0, None))
    return SweepResult(rows=tuple(rows))


def run_bounds_vs_snr(config: ExperimentConfig) -> SweepResult:
    """Closed-form CRLB/BCRLB over the SNR grid for both pilot structures."""
    prior = config.prior()
    model = config.model()
    stats = build_stats(model, config.n)
    rows = []
    for structure in PILOT_STRUCTURES:
        for snr_db in config.snr_db:
            pilot = config.pilot(_snr_to_rho(snr_db, model), structure)
            res = evaluate_bounds(pilot, config.l_r, stats, prior)
            rows.append(SweepRow(f"snr_db[{structure}]", snr_db, None,
                                 res.crlb, res.bcrlb, 0, 0, None))
    return SweepResult(rows=tuple(rows))


def _trial_bytes(n: int, l_r: int, d: int) -> int:
    """Bytes one trial holds in a block at the larger of its two peaks:
    sampling (its 2*n*d + 2*l_r*n normals and n*d complex innovations) and
    estimation (its n^2 complex folded lag matrix and the 2 n^2 skewed copy
    _lag_fold reads it through).  _sample_block drops the draws before the
    estimator runs, so the two never coexist."""
    return max(8 * (2 * n * d + 2 * l_r * n) + 16 * n * d, 48 * n * n)


def _trial_block(n: int, l_r: int, d: int) -> int:
    """Trials per block: as many as keep the block's largest arrays near BLOCK_BYTES."""
    return max(1, BLOCK_BYTES // _trial_bytes(n, l_r, d))


def _draw_block(config: ExperimentConfig, point: int, trials: range, prior: CfoPrior,
                d: int):
    """Random inputs of the given trials, each from its own stream: the
    prior sample, then one standard_normal call that fills the trial's row
    of 2*n*d (+ 2*l_r*n with noise) normals in the order innovation real and
    imaginary parts (n, d each), noise real and imaginary parts (l_r, n
    each).  The normals are the same as four calls in that order, which is
    how sample_ar1_trajectory and synthesize_rx draw them.  Returns f_true,
    the innovations' real and imaginary parts (T, n, d), views of the row
    buffer, and the complex noise (T, l_r, n), None for a noiseless config."""
    sample_from_prior = config.f_true_mode == "prior" and not prior.is_ml
    count, n, l_r = len(trials), config.n, config.l_r
    f_true = np.full(count, prior.mu_f)
    normals = np.empty((count, 2 * n * d + (2 * l_r * n if config.noise else 0)))
    for i, trial in enumerate(trials):
        rng = _trial_rng(config.seed, point, trial)
        if sample_from_prior:
            f_true[i] = prior.sample(rng)
        rng.standard_normal(out=normals[i])
    innovations = normals[:, :2 * n * d].reshape(count, 2, n, d)
    noise = None
    if config.noise:
        parts = normals[:, 2 * n * d:].reshape(count, 2, l_r, n)
        noise = _unit_complex(parts[:, 0], parts[:, 1])
    return f_true, innovations[:, 0], innovations[:, 1], noise


def _sample_block(config: ExperimentConfig, point: int, trials: range, prior: CfoPrior,
                  model, rx_map: np.ndarray, ybar: np.ndarray):
    """f_true (T,) and received signals (T, l_r, n) of the given trials,
    sampled in the receive space from the draws of _draw_block; the draws
    are dropped on return."""
    f_true, w_re, w_im, noise = _draw_block(config, point, trials, prior, rx_map.shape[2])
    return f_true, _received_trials(model.rho_h, rx_map, ybar, f_true, w_re, w_im, noise)


def _run_point_trials(config: ExperimentConfig, point: int, pilot, model, ws,
                      prior: CfoPrior):
    """Monte-Carlo trials for one sweep point; returns (mse, fails, mean_iters).

    Trials run in blocks of _trial_block(n, l_r, d): the draws of a block
    are made trial by trial, everything after them for the whole block at
    once.  The received signals are sampled in the receive space: the
    point's map G[k] = (I_r kron S[k, :]) L takes each trial's white
    innovations, run through the AR(1) recursion, straight to y, and the
    l_t*l_r*n channel is never formed.
    """
    n, l_r, d = config.n, config.l_r, model.l_t * model.l_r
    rx_map = _receive_map(model, pilot.entries)
    ybar = ws.ybar.reshape(l_r, n)
    block = _trial_block(n, l_r, d)
    sq_errors, iterations = [], []
    for start in range(0, config.trials, block):
        trials = range(start, min(start + block, config.trials))
        f_true, y = _sample_block(config, point, trials, prior, model, rx_map, ybar)
        est = estimate_cfo_universal_batch(y.reshape(len(trials), -1), ws)
        ok = ~est.failed
        sq_errors.append((est.f_hat[ok] - f_true[ok]) ** 2)
        iterations.append(est.iterations[ok])
    sq_errors, iterations = np.concatenate(sq_errors), np.concatenate(iterations)
    failures = config.trials - sq_errors.size
    if sq_errors.size:
        mse, mean_iters = float(np.mean(sq_errors)), float(np.mean(iterations))
    else:
        mse, mean_iters = None, None
    return mse, failures, mean_iters


def run_mse_vs_snr(config: ExperimentConfig) -> SweepResult:
    """Empirical MSE of the universal estimator next to its bounds, per SNR."""
    prior = config.prior()
    model = config.model()
    stats = build_stats(model, config.n)
    rows = []
    for point, snr_db in enumerate(config.snr_db):
        pilot = config.pilot(_snr_to_rho(snr_db, model))
        ws = build_workspace(pilot, config.l_r, stats, prior)
        res = evaluate_bounds(pilot, config.l_r, stats, prior, workspace=ws)
        mse, failures, mean_iters = _run_point_trials(config, point, pilot,
                                                      model, ws, prior)
        rows.append(SweepRow("snr_db", snr_db, mse, res.crlb, res.bcrlb,
                             config.trials, failures, mean_iters))
    return SweepResult(rows=tuple(rows))


def run_single(config: ExperimentConfig, f_true_override: float | None = None,
               force_zero_rx: bool = False) -> TrialRecord:
    """One fully instrumented trial at the first SNR point."""
    prior = config.prior()
    model = config.model()
    pilot = config.pilot(_snr_to_rho(config.snr_db[0], model))
    stats = build_stats(model, config.n)
    ws = build_workspace(pilot, config.l_r, stats, prior)
    res = evaluate_bounds(pilot, config.l_r, stats, prior, workspace=ws)
    rng = _trial_rng(config.seed, 0, 0)
    if f_true_override is not None:
        f_true = float(f_true_override)
    elif config.f_true_mode == "prior" and not prior.is_ml:
        f_true = prior.sample(rng)
    else:
        f_true = prior.mu_f
    h = sample_ar1_trajectory(model, config.n, rng)
    if force_zero_rx:
        y = np.zeros(config.n * config.l_r, dtype=np.complex128)
    else:
        y = synthesize_rx(pilot, config.l_r, f_true, h,
                          rng if config.noise else None)
    z = compute_z(y, ws)
    try:
        est = estimate_cfo_universal(y, ws, return_diagnostics=True)
    except EstimationError:
        nan = float("nan")
        return TrialRecord(status="low_confidence", f_true=f_true, f_hat=nan,
                           sq_error=nan, channel_sq_error=nan, metric=nan,
                           iterations=0, converged=False, crlb=res.crlb,
                           bcrlb=res.bcrlb, z=z,
                           grid_candidates=np.array([]), grid_metrics=np.array([]))
    h_hat = estimate_channel_mmse(y, est.f_hat, ws)
    return TrialRecord(status="ok", f_true=f_true, f_hat=est.f_hat,
                       sq_error=(est.f_hat - f_true) ** 2,
                       channel_sq_error=float(np.sum(np.abs(h_hat - h) ** 2)),
                       metric=est.metric, iterations=est.iterations,
                       converged=est.converged, crlb=res.crlb, bcrlb=res.bcrlb,
                       z=z, grid_candidates=est.diagnostics["grid_candidates"],
                       grid_metrics=est.diagnostics["grid_metrics"])


# ---------------------------------------------------------------------------
# validate: fast self-checks of the oracle identities and invariants


def _validate_checks():
    rng = np.random.default_rng(20240201)
    yield "pilot orthogonality", _check_pilot_orthogonality(rng)
    yield "woodbury equivalence", _check_woodbury(rng)
    yield "metric gradient vs finite differences", _check_gradient(rng)
    yield "lag series ignores prior and trial offset", _check_z_purity(rng)
    yield "bound ordering", _check_bound_ordering(rng)
    yield "map reduces to ml", _check_ml_reduction(rng)
    yield ("receive-space sampler matches sample_ar1_trajectory + synthesize_rx",
           _check_receive_sampler(rng))
    yield "sweep determinism across block sizes and worker counts", _check_determinism()


def _random_setup(rng, n_max=10):
    l_t = int(rng.integers(1, 3))
    l_r = int(rng.integers(1, 3))
    m = int(rng.integers(2, max(3, n_max // l_t + 1)))
    pilot = (generate_periodic_pilot if rng.random() < 0.5 else generate_td_pilot)(
        l_t, m, rho=float(rng.uniform(0.5, 4.0)))
    model = make_model(l_t, l_r, float(rng.uniform(0.0, 1.0)),
                       spatial="exponential" if rng.random() < 0.5 else "iid",
                       mean="rician" if rng.random() < 0.5 else "zero",
                       rician_k=float(rng.uniform(0.2, 3.0)))
    stats = build_stats(model, pilot.n)
    prior = CfoPrior(float(rng.uniform(-0.2, 0.2)), float(rng.uniform(1e-6, 1e-2)))
    return pilot, model, stats, prior


def _check_pilot_orthogonality(rng):
    worst = 0.0
    for l_t in range(1, 5):
        for m in range(1, 9):
            scr = np.exp(2j * np.pi * rng.random(l_t * m))
            for pilot in (generate_periodic_pilot(l_t, m, 1.5, scr),
                          generate_td_pilot(l_t, m, 1.5, scr)):
                worst = max(worst, pilot.orthogonality_defect())
    return worst < 1e-12, f"worst defect {worst:.2e}"


def _check_woodbury(rng):
    pilot, model, stats, prior = _random_setup(rng)
    ws = build_workspace(pilot, model.l_r, stats, prior)
    sb = ws.sbreve
    try:
        direct = np.linalg.inv(sb.conj().T @ sb + np.linalg.inv(stats.sigma_h))
    except np.linalg.LinAlgError:
        return True, "sigma_h singular, skipped"
    gap = np.max(np.abs(ws.A - direct)) / max(1.0, np.max(np.abs(direct)))
    return gap < 1e-9, f"relative gap {gap:.2e}"


def _check_gradient(rng):
    worst = 0.0
    for _ in range(10):
        pilot, model, stats, prior = _random_setup(rng)
        ws = build_workspace(pilot, model.l_r, stats, prior)
        h = sample_ar1_trajectory(model, pilot.n, rng)
        y = synthesize_rx(pilot, model.l_r, float(rng.uniform(-0.4, 0.4)), h, rng)
        f = float(rng.uniform(-0.45, 0.45))
        step = 1e-7
        fd = (map_metric(y, f + step, ws) - map_metric(y, f - step, ws)) / (2 * step)
        cf = metric_gradient(y, f, ws)
        worst = max(worst, abs(cf - fd) / max(abs(cf), abs(fd), 1e-9))
    return worst < 1e-6, f"worst relative error {worst:.2e}"


def _check_z_purity(rng):
    pilot, model, stats, _ = _random_setup(rng)
    h = sample_ar1_trajectory(model, pilot.n, rng)
    y = synthesize_rx(pilot, model.l_r, 0.1, h, rng)
    ws1 = build_workspace(pilot, model.l_r, stats, CfoPrior(0.2, 1e-3))
    ws2 = build_workspace(pilot, model.l_r, stats, CfoPrior.ml())
    same = np.array_equal(compute_z(y, ws1), compute_z(y, ws2))
    return same, "bit-identical across priors" if same else "z depends on prior"


def _check_bound_ordering(rng):
    for _ in range(20):
        pilot, model, stats, prior = _random_setup(rng)
        res = evaluate_bounds(pilot, model.l_r, stats, prior)
        if not (res.bcrlb <= res.crlb + 1e-15 and res.bcrlb <= prior.sigma_f_sq + 1e-15):
            return False, f"violated: {res}"
    return True, "bcrlb <= min(crlb, sigma_f^2) on 20 random configs"


def _check_ml_reduction(rng):
    pilot, model, stats, _ = _random_setup(rng)
    h = sample_ar1_trajectory(model, pilot.n, rng)
    y = synthesize_rx(pilot, model.l_r, 0.07, h, rng)
    ws_ml = build_workspace(pilot, model.l_r, stats, CfoPrior.ml())
    ws_wide = build_workspace(pilot, model.l_r, stats, CfoPrior(0.0, 1e12))
    gap = abs(estimate_cfo_universal(y, ws_ml).f_hat
              - estimate_cfo_universal(y, ws_wide).f_hat)
    return gap < 1e-9, f"|f_ml - f_wide| = {gap:.2e}"


def _check_receive_sampler(rng):
    pilot, model, stats, prior = _random_setup(rng)
    l_r, n = model.l_r, pilot.n
    config = ExperimentConfig(l_t=pilot.l_t, m=n // pilot.l_t, l_r=l_r,
                              seed=int(rng.integers(1 << 31)), f_true_mode="prior")
    ws = build_workspace(pilot, l_r, stats, prior)
    trials = range(4)
    f_true, y = _sample_block(config, 0, trials, prior, model,
                              _receive_map(model, pilot.entries), ws.ybar.reshape(l_r, n))
    worst = 0.0
    for i, trial in enumerate(trials):
        stream = _trial_rng(config.seed, 0, trial)
        f = prior.sample(stream)
        h = sample_ar1_trajectory(model, n, stream)
        want = synthesize_rx(pilot, l_r, f, h, stream)
        if f != f_true[i]:
            return False, f"trial {trial} drew f_true {f_true[i]!r}, not {f!r}"
        worst = max(worst, float(np.max(np.abs(y[i].ravel() - want)) / np.max(np.abs(want))))
    return worst < 1e-12, f"worst relative gap {worst:.2e} over {len(trials)} trials"


def _check_determinism():
    global BLOCK_BYTES
    config = ExperimentConfig(snr_db=(15.0,), trials=8, seed=123, m=3, l_t=2,
                              l_r=2, rho_h=0.9)
    block = _trial_block(config.n, config.l_r, config.l_t * config.l_r)
    serial = run_mse_vs_snr(replace(config, workers=1)).to_csv_text()
    threaded = run_mse_vs_snr(replace(config, workers=4)).to_csv_text()
    saved, BLOCK_BYTES = BLOCK_BYTES, 1  # one trial per block
    try:
        one_by_one = run_mse_vs_snr(config).to_csv_text()
    finally:
        BLOCK_BYTES = saved
    return (serial == threaded == one_by_one,
            f"blocks of {min(block, config.trials)} vs 1 trial, 1 vs 4 workers, "
            "CSV compared byte for byte")


def run_validate() -> int:
    failures = 0
    for name, (ok, detail) in _validate_checks():
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        if not ok:
            failures += 1
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# command line


def _add_common(parser):
    parser.add_argument("--config", help="YAML experiment config")
    parser.add_argument("--out", help="output CSV path (default: stdout)")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--workers", type=int,
                        help=f"accepted for compatibility; trials run in blocks on "
                             f"one thread (default ${WORKERS_ENV} or 1)")
    parser.add_argument("--snr-db", help="comma-separated SNR grid override, dB")
    parser.add_argument("--emit-plot-data", metavar="PATH",
                        help="also write long-format plot series CSV")


def _overrides_from(args) -> dict:
    overrides = {}
    for key in ("seed", "trials", "workers"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    if getattr(args, "snr_db", None) is not None:
        overrides["snr_db"] = tuple(_coerce("--snr-db", v, float)
                                    for v in args.snr_db.split(","))
    if getattr(args, "rho_grid", None) is not None:
        parts = args.rho_grid.split(":")
        if len(parts) != 3:
            raise ParameterError(f"--rho-grid must be START:STOP:COUNT, got {args.rho_grid!r}")
        start, stop = (_coerce("--rho-grid", v, float) for v in parts[:2])
        count = _coerce("--rho-grid COUNT", parts[2], int)
        if count < 1:
            raise ParameterError(f"--rho-grid COUNT must be >= 1, got {count}")
        overrides["rho_h_grid"] = tuple(np.linspace(start, stop, count))
    return overrides


def _emit(result: SweepResult, args, figure: str):
    text = result.to_csv_text()
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.emit_plot_data:
        with open(args.emit_plot_data, "w", newline="") as fh:
            fh.write(result.plot_data_text(figure))


def _input_errors() -> tuple:
    """Exception types that main reports as bad input ("error:");
    yaml.YAMLError joins them once load_config has imported yaml."""
    yaml = sys.modules.get("yaml")
    return (ParameterError, ModelError, OSError) + ((yaml.YAMLError,) if yaml else ())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cfomimo-sim",
        description="Frequency-offset estimation experiments: closed-form "
                    "bounds and Monte-Carlo sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds-vs-rho",
                       help="CRLB/BCRLB vs time-correlation for both pilots")
    _add_common(p)
    p.add_argument("--rho-grid", metavar="START:STOP:COUNT")

    p = sub.add_parser("bounds-vs-snr", help="CRLB/BCRLB vs SNR for both pilots")
    _add_common(p)

    p = sub.add_parser("mse-vs-snr",
                       help="Monte-Carlo estimator MSE vs SNR next to the bounds")
    _add_common(p)

    p = sub.add_parser("single", help="one instrumented trial, JSON output")
    _add_common(p)
    p.add_argument("--f-true", type=float, help="override the true offset")
    p.add_argument("--zero-rx", action="store_true",
                   help="force y = 0 (degenerate-input check)")
    p.add_argument("--no-noise", action="store_true")

    sub.add_parser("validate", help="run the fast oracle/invariant suite")

    args = parser.parse_args(argv)
    if args.command == "validate":
        return run_validate()
    try:
        overrides = _overrides_from(args)
        if getattr(args, "no_noise", False):
            overrides["noise"] = False
        config = load_config(args.config, overrides)
        if args.command == "bounds-vs-rho":
            _emit(run_bounds_vs_rho(config), args, "bounds_vs_rho")
        elif args.command == "bounds-vs-snr":
            _emit(run_bounds_vs_snr(config), args, "bounds_vs_snr")
        elif args.command == "mse-vs-snr":
            _emit(run_mse_vs_snr(config), args, "mse_vs_snr")
        elif args.command == "single":
            record = run_single(config, f_true_override=args.f_true,
                                force_zero_rx=args.zero_rx)
            text = record.to_json() + "\n"
            if args.out:
                with open(args.out, "w", newline="") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
    except _input_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
