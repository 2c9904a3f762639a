"""Monte-Carlo experiment harness and command-line runner.

Subcommands: bounds-vs-rho, bounds-vs-snr, mse-vs-snr, single, validate.
COMMANDS is the one table of them: each one's help, --out help and flags of
its own, and the step main runs on its loaded config; main builds the parser
and dispatches from it.  A command declares only the flags its run reads,
so any other flag exits 2 as unrecognized: --config, --out and --snr-db on
all four that run on a config, --emit-plot-data on the three sweeps,
--rho-grid on bounds-vs-rho, --seed and --trials on mse-vs-snr, and --seed,
--f-true, --zero-rx and --no-noise on single.  single's one trial is trial
0 of the first SNR point, drawn (_BlockDraws) and sampled
(channel._received_trials) through the sweep's own code, so its f_true and
y are bit for bit those of mse-vs-snr's trial 0 there; its channel h comes
from the same row of normals (channel._ar1_trajectories).  bounds-vs-rho
and single run at the first SNR point only and name it on stderr when the
grid has more; every command checks every point's pilot power before the
first point runs.  Every point of every command is set up one way
(_point_setup): one workspace and the bounds read from it; the bounds
sweeps are closed form and draw nothing.
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

CONFIG_PATHS, which maps each ExperimentConfig field to its key path, is the
one list of config keys; any other key is an error that names its section.
The example leaves out noise (false drops the receiver noise),
workers, channel.rho_h_grid (the bounds-vs-rho grid, 50 points on [0, 1]
when empty) and prior.ml (true for the flat ML prior at mu_f).  mu_f, and
single's --f-true, must lie in the acquisition range [-0.5, 0.5), where
the estimator reports its offsets.

SNR is defined as pilot power times per-coefficient channel power with unit
noise variance, so sweeps rescale the pilot power only.  Every trial draws
from its own PCG64 stream, the one numpy's
default_rng(SeedSequence(entropy=seed, spawn_key=(sweep point, trial)))
gives (_pcg64_states), so results are reproducible; identical config and
seed give byte-identical CSV output.  A sweep point runs its trials in
blocks whose draws it shares with one helper thread (_run_point_trials,
_BlockDraws), and samples each block's received signals in the n*l_r
receive space (channel._received_trials); a trial's result does not depend
on the block it ran in, nor on the thread that drew it.  The workers config
key, which has no flag, is accepted and must be >= 0, but has no effect:
the one helper sharing the draws is not a setting.

CSV schema (fixed): sweep_var,value,mse,crlb,bcrlb,trials,failures,mean_iters,
one column per SweepRow field, with infinities serialized as "inf" and
inapplicable cells left empty.  failures counts only the trials whose search
failed; mse and mean_iters average the others (empty when every trial
failed), so a trial that stops unconverged after the estimator's MAX_ITER
steps goes into mse.

validate runs 9 fast self-checks and exits 1 if any fails.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import threading
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from itertools import accumulate
from operator import attrgetter

import numpy as np

from .bounds import compute_beta, evaluate_bounds
from .channel import (CfoPrior, _ar1_trajectories, _check_rho_h, _received_trials,
                      build_stats, make_model, sample_ar1_trajectory, synthesize_rx)
from .errors import (EstimationError, ModelError, NumericalError,
                     ParameterError, _coerce)
from .estimator import (build_workspace, compute_z, estimate_cfo_universal,
                        estimate_cfo_universal_batch, estimate_channel_mmse,
                        map_metric, metric_gradient, mmse_gain)
from .pilots import expand_block, generate_periodic_pilot, generate_td_pilot

PLOT_HEADER = "figure,series,x,y"
# each structure's generator, (l_t, m, rho) -> PilotMatrix; its keys are the
# structure names.  Each entry calls the generator by its module-level name,
# so a wrapper bound to that name in its place (bench/tracer.py) is called.
PILOT_GENERATORS = {"periodic": lambda *args: generate_periodic_pilot(*args),
                    "td": lambda *args: generate_td_pilot(*args)}
PILOT_STRUCTURES = tuple(PILOT_GENERATORS)
# the key path of each ExperimentConfig field in a config file: the one list
# of config keys, which from_mapping walks
CONFIG_PATHS = {
    "pilot_structure": ("pilot", "structure"), "l_t": ("pilot", "l_t"), "m": ("pilot", "m"),
    "l_r": ("l_r",),
    "rho_h": ("channel", "rho_h"), "rho_h_grid": ("channel", "rho_h_grid"),
    "spatial_kind": ("channel", "spatial", "kind"), "spatial_a": ("channel", "spatial", "a"),
    "spatial_b": ("channel", "spatial", "b"), "sigma_h_sq": ("channel", "spatial", "sigma_h_sq"),
    "mean_kind": ("channel", "mean", "kind"), "rician_k": ("channel", "mean", "k_factor"),
    "prior_ml": ("prior", "ml"), "mu_f": ("prior", "mu_f"), "sigma_f_sq": ("prior", "sigma_f_sq"),
    "snr_db": ("snr_db",), "trials": ("trials",), "seed": ("seed",), "f_true_mode": ("f_true",),
    "noise": ("noise",), "workers": ("workers",),
}
FIELD_AT = {path: name for name, path in CONFIG_PATHS.items()}
MINIMUMS = {"l_t": 1, "m": 1, "l_r": 1, "trials": 1, "seed": 0, "workers": 0}
# the most points --rho-grid takes: at about 0.5 ms a point, a 2-minute sweep
MAX_RHO_POINTS = 100_000
# a block's rows of normals fit into this many bytes, each of the two buffers
# a sweep point of two or more blocks allocates (one for a single block);
# the trials are split evenly over the fewest such blocks:
# 4 blocks of 75 for 300 trials at the benchmark's (8,3,8), 15 blocks of
# 13-14 for 200 trials at (8,16,8)
BLOCK_BYTES = 2 << 20

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and the PCG64
# multiplier (O'Neill, "PCG: a family of simple fast space-efficient
# statistically good algorithms for random number generation", 2014)
MASK32, MASK128 = (1 << 32) - 1, (1 << 128) - 1
HASH_INIT_A, HASH_MULT_A = 0x43b0d7e5, 0x931e8875
HASH_INIT_B, HASH_MULT_B = 0x8b51f9dd, 0x58f38ded
MIX_MULT_L, MIX_MULT_R = 0xca01f9dd, 0x4973f715
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _config_values(section, label: str = "config", prefix: tuple = ()) -> dict:
    """{field: value} of every CONFIG_PATHS key set in section, the mapping
    at prefix (empty when absent), whose keys must all lead to a path.
    Sections are checked depth first in table order."""
    section = section or {}
    if not isinstance(section, dict):
        raise ParameterError(f"config section {label!r} must be a mapping")
    depth = len(prefix)
    keys = dict.fromkeys(path[depth] for path in CONFIG_PATHS.values() if path[:depth] == prefix)
    unknown = sorted(set(section) - set(keys), key=repr)
    if unknown:
        raise ParameterError(f"unknown {label} keys: {unknown}")
    values = {}
    for key in keys:
        path = prefix + (key,)
        if path not in FIELD_AT:
            values.update(_config_values(section.get(key), key, path))
        elif key in section:
            values[FIELD_AT[path]] = section[key]
    return values


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
    # config key only (no flag), checked and without effect, since one helper
    # always shares the draws; kept while bench/harness.py passes workers=1
    workers: int = 0

    def __post_init__(self):
        # every int field first, then every float field, by annotation
        # (a string under postponed evaluation)
        for kind in (int, float):
            for name in (f.name for f in fields(self) if f.type == kind.__name__):
                value = _coerce(name, getattr(self, name), kind)
                if kind is float and not (math.isfinite(value)
                                          or (name == "sigma_f_sq" and value == math.inf)):
                    raise ParameterError(f"{name} must be finite, got {value}")
                object.__setattr__(self, name, value)
        if self.sigma_h_sq <= 0:
            raise ParameterError(f"sigma_h_sq must be > 0, got {self.sigma_h_sq}")
        for name in (f.name for f in fields(self) if f.type == "bool"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise ParameterError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if self.pilot_structure not in PILOT_STRUCTURES:
            raise ParameterError(f"pilot structure must be one of {PILOT_STRUCTURES}")
        for name, minimum in MINIMUMS.items():
            if getattr(self, name) < minimum:
                raise ParameterError(f"{name} must be >= {minimum}, got {getattr(self, name)}")
        if self.f_true_mode not in ("prior", "fixed"):
            raise ParameterError("f_true must be 'prior' or 'fixed'")
        for name in ("snr_db", "rho_h_grid"):
            grid = getattr(self, name)
            # a list, a tuple or an array of one or more dimensions is a grid;
            # anything else is one point, which _coerce accepts or names
            if not isinstance(grid, (list, tuple)) and np.ndim(grid) == 0:
                grid = (grid,)
            grid = tuple(_coerce(name, v, float) for v in grid)
            if not all(math.isfinite(v) for v in grid):
                raise ParameterError(f"{name} must be finite, got {grid}")
            object.__setattr__(self, name, grid)
        if len(self.snr_db) == 0:
            raise ParameterError("snr_db grid must be non-empty")
        for snr_db in self.snr_db:
            try:
                10.0 ** (snr_db / 10.0)
            except OverflowError:
                raise ParameterError(f"snr_db must have a finite linear power "
                                     f"(at most about 3082 dB), got {snr_db}") from None
        _check_offset("mu_f", self.mu_f)
        for rho_h in (self.rho_h,) + self.rho_h_grid:
            _check_rho_h(rho_h, ParameterError)

    @property
    def n(self) -> int:
        return self.m * self.l_t

    @property
    def trial_row(self) -> int:
        """Standard normals in one trial's row, as _received_trials reads it:
        2*n*l_t*l_r for the innovations, plus 2*l_r*n for the noise."""
        return 2 * self.n * self.l_r * (self.l_t + (1 if self.noise else 0))

    @classmethod
    def from_mapping(cls, data: dict) -> "ExperimentConfig":
        return cls(**_config_values(data))

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
        return PILOT_GENERATORS[structure or self.pilot_structure](self.l_t, self.m, rho)


def load_config(path: str | None, overrides: dict | None = None) -> ExperimentConfig:
    """Load YAML (or defaults when path is None) and apply flag overrides."""
    data = {}
    if path:
        import yaml  # only a config file needs it; importing it costs about 0.9 MB of RSS
        with open(path) as fh:
            data = yaml.safe_load(fh) or {}
    return replace(ExperimentConfig.from_mapping(data), **(overrides or {}))


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


# the CSV schema: one column per SweepRow field, in field order
CSV_HEADER = ",".join(f.name for f in fields(SweepRow))
_csv_cells = attrgetter(*CSV_HEADER.split(","))


@dataclass(frozen=True)
class SweepResult:
    rows: tuple

    def to_csv_text(self) -> str:
        lines = [CSV_HEADER] + [",".join(map(_fmt, _csv_cells(row))) for row in self.rows]
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
    """A CSV cell: empty for None, "inf" or the shortest repr for a float,
    a str or int cell as it is."""
    if value is None:
        return ""
    if not isinstance(value, float):
        return str(value)
    return "inf" if math.isinf(value) else repr(float(value))


def _hash_consts(const: int, mult: int, count: int) -> list:
    """The hash constants const * mult^j mod 2^32 for j = 0 .. count."""
    consts = [const]
    for _ in range(count):
        consts.append(consts[-1] * mult & MASK32)
    return consts


def _hashmix(value, before, after):
    """SeedSequence's hashmix of value under the hash constant before, which
    steps to after; elementwise on uint32 arrays."""
    value = (value ^ before) * after & MASK32
    return value ^ value >> 16


def _pcg64_states(seed: int, point: int, trials) -> list:
    """The PCG64 state dict of default_rng(SeedSequence(entropy=seed,
    spawn_key=(point, trial))) for every trial index below 2^64, computed
    for all trials in one vectorized pass.

    numpy hashes seed and point: the pool of SeedSequence(entropy=seed,
    spawn_key=(point,)) is common to every trial, and its hash constant has
    stepped once per hashmix, four per word of seed (zero-padded to the
    pool of 4) and point.  Each trial's word is then mixed in on uint32
    arrays of shape (4 pool entries, trials), a second word (an index of
    2^32 or more) under a mask.  The pool's output seeds PCG64 with two
    128-bit integers: inc = 2 initseq + 1 and
    state = (inc + initstate) MULT + inc mod 2^128.
    """
    seed_words, point_words = ((int(v).bit_length() + 31) // 32 for v in (seed, point))
    words = max(4, seed_words) + max(1, point_words)
    const = HASH_INIT_A * pow(HASH_MULT_A, 4 * words, 1 << 32) & MASK32
    pool = np.random.SeedSequence(entropy=seed, spawn_key=(point,)).pool[:, None]
    trial = np.asarray(trials, dtype=np.uint64).reshape(1, -1)
    high = trial >> np.uint64(32)
    for word, present in ((trial & np.uint64(MASK32), None), (high, high > 0)):
        if present is not None and not present.any():
            break
        consts = _hash_consts(const, HASH_MULT_A, 4)
        const, consts = consts[-1], np.array(consts, dtype=np.uint32)[:, None]
        hashed = _hashmix(word.astype(np.uint32), consts[:-1], consts[1:])
        mixed = pool * MIX_MULT_L - hashed * MIX_MULT_R  # SeedSequence's mix
        mixed ^= mixed >> 16
        pool = mixed if present is None else np.where(present, mixed, pool)
    # generate_state(4, np.uint64): 8 words from the pool read cyclically,
    # paired little-endian into the (high, low) halves of initstate and initseq
    consts = np.array(_hash_consts(HASH_INIT_B, HASH_MULT_B, 8), dtype=np.uint32)[:, None]
    out = _hashmix(np.tile(pool, (2, 1)), consts[:-1], consts[1:]).astype(np.uint64)
    s0, s1, q0, q1 = (out[0::2] | out[1::2] << np.uint64(32)).astype(object)
    inc = (((q0 << 64 | q1) << 1) | 1) & MASK128
    state = ((inc + (s0 << 64 | s1)) * PCG64_MULT + inc) & MASK128
    return [{"bit_generator": "PCG64", "state": {"state": s, "inc": i},
             "has_uint32": 0, "uinteger": 0} for s, i in zip(state, inc)]


def _check_offset(name: str, f: float):
    """ParameterError unless the offset f lies in the acquisition range."""
    if not -0.5 <= f < 0.5:
        raise ParameterError(f"{name} must lie in the acquisition range [-0.5, 0.5), got {f}")


def _snr_to_rho(config: ExperimentConfig, model) -> list:
    """The pilot power rho of every SNR point, in grid order; ParameterError
    naming the first snr_db whose pilot's total power n*rho is not positive
    and finite (it underflows to 0 or overflows).
    Every command takes them all before its first point runs, a command
    that runs at the first point only included."""
    rhos = []
    for snr_db in config.snr_db:
        # SNR = rho * per-coefficient channel power, unit noise variance
        rhos.append(10.0 ** (snr_db / 10.0) / model.per_coefficient_power())
        if not 0.0 < config.n * rhos[-1] < math.inf:
            raise ParameterError(f"snr_db must give a pilot of positive, finite total power "
                                 f"n*rho (n = {config.n}), got {snr_db}")
    return rhos


def _point_setup(pilot, stats, prior: CfoPrior):
    """(workspace, bounds) of one sweep point of any command: the workspace
    of the pilot, stats and prior, and the bounds read from it.  Its one
    evaluate_bounds call comes after the point's other set-up."""
    ws = build_workspace(pilot, stats, prior)
    return ws, evaluate_bounds(ws)


def _bounds_sweep(sweep_var: str, prior: CfoPrior, points) -> SweepResult:
    """The closed-form rows of a bounds sweep, one per (structure, value,
    pilot, stats) point, each set up as it is reached; no sampling."""
    rows = []
    for structure, value, pilot, stats in points:
        res = _point_setup(pilot, stats, prior)[1]
        rows.append(SweepRow(f"{sweep_var}[{structure}]", value, None,
                             res.crlb, res.bcrlb, 0, 0, None))
    return SweepResult(rows=tuple(rows))


def run_bounds_vs_rho(config: ExperimentConfig) -> SweepResult:
    """Closed-form CRLB/BCRLB over a rho_h grid for both pilot structures.

    Evaluated at the first SNR grid point.  The model and, per structure,
    the pilot are built once: neither the per-coefficient power nor the
    pilot depends on rho_h.  Each rho_h point builds its own stats.
    """
    grid = config.rho_h_grid or tuple(np.linspace(0.0, 1.0, 50))
    prior = config.prior()
    model = config.model()
    rho = _snr_to_rho(config, model)[0]
    pilots = ((structure, config.pilot(rho, structure)) for structure in PILOT_STRUCTURES)
    return _bounds_sweep("rho_h", prior, (
        (structure, rho_h, pilot, build_stats(model, config.n, rho_h))
        for structure, pilot in pilots for rho_h in grid))


def run_bounds_vs_snr(config: ExperimentConfig) -> SweepResult:
    """Closed-form CRLB/BCRLB over the SNR grid for both pilot structures."""
    prior = config.prior()
    model = config.model()
    stats = build_stats(model, config.n)
    rhos = _snr_to_rho(config, model)
    return _bounds_sweep("snr_db", prior, (
        (structure, snr_db, config.pilot(rho, structure), stats)
        for structure in PILOT_STRUCTURES for snr_db, rho in zip(config.snr_db, rhos)))


class _BlockDraws:
    """One block's draws as a queue that any number of threads drain.

    The queue holds the block's trials in order, each with the PCG64 state
    of its stream from one _pcg64_states call, made by the first pull; take
    hands each trial out once, under one lock.  A thread draining the queue
    (draw) sets its own Generator to each trial's state, draws the trial's
    prior sample, if it has one, into f_true and fills the trial's row of
    normals in one standard_normal call, which releases the GIL; the rows
    are the first len(trials) rows of normals (a new buffer when None).
    Every trial has its own stream, so the draws do not depend on the
    thread that made them.  The helper thread of _run_point_trials drains
    the queue too, so nothing here calls a BLAS routine or a public
    function of the package (the benchmark's tracer keeps one span stack
    for one thread).
    """

    def __init__(self, config: ExperimentConfig, point: int, trials: range,
                 prior: CfoPrior, normals: np.ndarray | None = None):
        count = len(trials)
        if normals is None:
            normals = np.empty((count, config.trial_row))
        self.f_true = np.full(count, prior.mu_f)
        self.rows = normals[:count]
        self._streams = (config.seed, point, trials)
        # a trial draws its true offset from the prior unless f_true is
        # fixed or the prior is the flat ML one; otherwise it is mu_f
        self._prior = prior if config.f_true_mode == "prior" and not prior.is_ml else None
        self._states = None
        self._taken = 0
        self._lock = threading.Lock()

    def take(self):
        """(index in the block, PCG64 state) of the next trial not yet
        handed out, or None once every trial has been."""
        with self._lock:
            if self._states is None:
                self._states = _pcg64_states(*self._streams)
            i = self._taken
            if i == len(self._states):
                return None
            self._taken = i + 1
        return i, self._states[i]

    def draw(self):
        """Draw trials from the queue on this thread until it is empty, and
        return the block's f_true (T,) and rows of normals (T, row), which
        _received_trials makes into y; a trial another thread took may still
        be in flight on return."""
        rng = np.random.Generator(np.random.PCG64(0))
        for i, state in iter(self.take, None):
            rng.bit_generator.state = state
            if self._prior is not None:
                self.f_true[i] = self._prior.sample(rng)
            rng.standard_normal(out=self.rows[i])
        return self.f_true, self.rows


def _block_sizes(trials: int, cap: int) -> list:
    """Sizes of the ceil(trials / cap) blocks that trials split into, none
    above cap and differing by at most one, the larger ones first."""
    count = -(-trials // cap)
    base, extra = divmod(trials, count)
    return [base + 1] * extra + [base] * (count - extra)


def _run_point_trials(config: ExperimentConfig, point: int, model, ws):
    """Monte-Carlo trials for one sweep point, under the pilot and prior of
    its workspace ws; returns (mse, fails, mean_iters).

    Trials run in the fewest blocks whose rows of normals fit into
    BLOCK_BYTES, split evenly (_block_sizes), so a block's fixed cost is
    never paid for a small tail: the draws of a block are made trial by
    trial, everything after them for the whole block at once.  A point of
    two or more blocks shares each block's draws (_BlockDraws) between this
    thread and one helper thread, block b into buffer half b % 2: the
    helper is handed block 0, which this thread drains too, and block b + 1
    as soon as block b is drawn, while this thread samples and searches
    block b; then this thread drains what is left of block b + 1 and waits
    only for the helper's trial in flight, so it never waits for a whole
    block.  A one-block point draws on this thread alone and starts no
    thread.  The helper is joined before this returns or raises, and its
    exception reaches the caller.  _received_trials samples each block's
    received signals in the receive space, so the l_t*l_r*n channel is
    never formed.
    """
    row = config.trial_row
    sizes = _block_sizes(config.trials, max(1, BLOCK_BYTES // (8 * row)))
    blocks = [range(end - size, end) for size, end in zip(sizes, accumulate(sizes))]
    # block b's rows go to buffers[b % 2], free again once block b - 2 has
    # passed through _received_trials; one allocation holds both (two
    # separate ones were handed back and faulted in again every sweep)
    buffers = np.empty((min(2, len(blocks)), sizes[0], row))
    sq_errors, iterations = [], []
    # imported here: it costs up to 0.5 MB of RSS, which the bounds sweeps
    # need not pay; the executor starts its thread on the first submit, so
    # a one-block point starts none
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=1) as helper:
        draws = _BlockDraws(config, point, blocks[0], ws.prior, buffers[0])
        shared = helper.submit(draws.draw) if len(blocks) > 1 else None
        for b in range(len(blocks)):
            f_true, rows = draws.draw()
            # a helper that has not yet started on the block has nothing in
            # flight: cancelling spares the wait for it to be scheduled
            if shared is not None and not shared.cancel():
                shared.result()
            if b + 1 < len(blocks):
                draws = _BlockDraws(config, point, blocks[b + 1], ws.prior,
                                    buffers[(b + 1) % 2])
                shared = helper.submit(draws.draw)
            est = estimate_cfo_universal_batch(_received_trials(model, ws, f_true, rows), ws)
            ok = ~est.failed
            sq_errors.append((est.f_hat[ok] - f_true[ok]) ** 2)
            iterations.append(est.iterations[ok])
    sq_errors, iterations = np.concatenate(sq_errors), np.concatenate(iterations)
    if not sq_errors.size:
        return None, config.trials, None
    return float(np.mean(sq_errors)), config.trials - sq_errors.size, float(np.mean(iterations))


def run_mse_vs_snr(config: ExperimentConfig) -> SweepResult:
    """Empirical MSE of the universal estimator next to its bounds, per SNR."""
    prior = config.prior()
    model = config.model()
    stats = build_stats(model, config.n)
    rows = []
    for point, (snr_db, rho) in enumerate(zip(config.snr_db, _snr_to_rho(config, model))):
        ws, res = _point_setup(config.pilot(rho), stats, prior)
        mse, failures, mean_iters = _run_point_trials(config, point, model, ws)
        rows.append(SweepRow("snr_db", snr_db, mse, res.crlb, res.bcrlb,
                             config.trials, failures, mean_iters))
    return SweepResult(rows=tuple(rows))


def run_single(config: ExperimentConfig, f_true_override: float | None = None,
               force_zero_rx: bool = False) -> TrialRecord:
    """One fully instrumented trial: trial 0 of the first SNR point, drawn
    and sampled as mse-vs-snr draws and samples it, its channel h taken
    from the same row of normals as y.  An f_true_override, which must lie
    in the acquisition range [-0.5, 0.5), is the true offset, and no prior
    sample is drawn for it; force_zero_rx estimates from y = 0."""
    if f_true_override is not None:
        _check_offset("f_true", f_true_override)
    prior = config.prior()
    model = config.model()
    stats = build_stats(model, config.n)
    ws, res = _point_setup(config.pilot(_snr_to_rho(config, model)[0]), stats, prior)
    # a pinned offset is the mean of the flat ML prior, which no trial samples
    f_true, rows = _BlockDraws(config, 0, range(1), prior if f_true_override is None
                               else CfoPrior.ml(f_true_override)).draw()
    h = _ar1_trajectories(model, config.n, rows)[0]
    y = _received_trials(model, ws, f_true, rows)[0]
    if force_zero_rx:
        y[:] = 0.0
    f_true = float(f_true[0])
    try:
        est = estimate_cfo_universal(y, ws)
    except EstimationError:
        nan, empty = float("nan"), np.array([])
        found = dict(status="low_confidence", f_hat=nan, sq_error=nan, channel_sq_error=nan,
                     metric=nan, iterations=0, converged=False, grid_candidates=empty,
                     grid_metrics=empty)
    else:
        h_hat = estimate_channel_mmse(y, est.f_hat, ws)
        found = dict(status="ok", f_hat=est.f_hat, sq_error=(est.f_hat - f_true) ** 2,
                     channel_sq_error=float(np.sum(np.abs(h_hat - h) ** 2)),
                     metric=est.metric, iterations=est.iterations, converged=est.converged,
                     grid_candidates=est.diagnostics["grid_candidates"],
                     grid_metrics=est.diagnostics["grid_metrics"])
    return TrialRecord(f_true=f_true, crlb=res.crlb, bcrlb=res.bcrlb, z=compute_z(y, ws),
                       **found)


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
    yield "Fisher closed form vs Gaussian formula", _check_fisher_formula(rng)
    yield ("trial streams match numpy's seeding and sample_ar1_trajectory + synthesize_rx",
           _check_trial_streams(rng))
    yield "sweep determinism across block splits", _check_determinism()


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
    pilot, model, stats, _ = _random_setup(rng)
    sb = expand_block(pilot, model.l_r)
    try:
        direct = np.linalg.inv(sb.conj().T @ sb + np.linalg.inv(stats.sigma_h))
    except np.linalg.LinAlgError:
        return True, "sigma_h singular, skipped"
    gain = mmse_gain(sb, stats.sigma_h)[0]
    gap = np.max(np.abs(gain - direct)) / max(1.0, np.max(np.abs(direct)))
    return gap < 1e-9, f"relative gap {gap:.2e}"


def _check_gradient(rng):
    worst = 0.0
    for _ in range(10):
        pilot, model, stats, prior = _random_setup(rng)
        ws = build_workspace(pilot, stats, prior)
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
    ws1 = build_workspace(pilot, stats, CfoPrior(0.2, 1e-3))
    ws2 = build_workspace(pilot, stats, CfoPrior.ml())
    same = np.array_equal(compute_z(y, ws1), compute_z(y, ws2))
    return same, "bit-identical across priors" if same else "z depends on prior"


def _check_bound_ordering(rng):
    for _ in range(20):
        pilot, _, stats, prior = _random_setup(rng)
        res = evaluate_bounds(build_workspace(pilot, stats, prior))
        if not (res.bcrlb <= res.crlb + 1e-15 and res.bcrlb <= prior.sigma_f_sq + 1e-15):
            return False, f"violated: {res}"
    return True, "bcrlb <= min(crlb, sigma_f^2) on 20 random configs"


def _check_ml_reduction(rng):
    pilot, model, stats, _ = _random_setup(rng)
    h = sample_ar1_trajectory(model, pilot.n, rng)
    y = synthesize_rx(pilot, model.l_r, 0.07, h, rng)
    ws_ml = build_workspace(pilot, stats, CfoPrior.ml())
    ws_wide = build_workspace(pilot, stats, CfoPrior(0.0, 1e12))
    gap = abs(estimate_cfo_universal(y, ws_ml).f_hat
              - estimate_cfo_universal(y, ws_wide).f_hat)
    return gap < 1e-9, f"|f_ml - f_wide| = {gap:.2e}"


def _check_fisher_formula(rng):
    """compute_beta against the dense Gaussian Fisher formula at f = 0,
    8 pi^2 Re (K ybar)^H C^{-1} K ybar - 4 pi^2 Re tr(C^{-1} [K, C] C^{-1} [K, C]),
    with C = R + I and K = diag(k), k the symbol time of each receive sample."""
    worst = 0.0
    for _ in range(4):
        pilot, model, stats, prior = _random_setup(rng)
        l_r, n = model.l_r, pilot.n
        cov = stats._receive_cov(pilot.entries) + np.eye(l_r * n)
        k = np.arange(l_r * n) % n
        ky = k * stats._receive_mean(pilot.entries).ravel()
        inv = np.linalg.inv(cov)
        term = inv @ (k[:, None] * cov - cov * k)  # C^{-1} [K, C]
        want = 8.0 * np.pi ** 2 * (np.real(np.vdot(ky, inv @ ky))
                                   - 0.5 * np.real(np.trace(term @ term)))
        got = compute_beta(build_workspace(pilot, stats, prior))
        worst = max(worst, abs(got - want) / abs(want))
    return worst < 1e-9, f"worst relative gap {worst:.2e} over 4 random configs"


def _check_trial_streams(rng):
    """The sweep's own draws (_BlockDraws) and samples (_received_trials)
    against numpy's stream of each trial, at boundary seeds, points and
    trial indices, on a random setup per seed: the prior draw and the row of
    normals bit for bit, and y within 1e-12 of sample_ar1_trajectory +
    synthesize_rx drawn from the same stream."""
    trials = (0, 1, 5, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 3)
    worst, count = 0.0, 0
    for seed in (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 7, 2 ** 128 + 5):
        pilot, model, stats, prior = _random_setup(rng)
        l_r, n = model.l_r, pilot.n
        config = ExperimentConfig(l_t=pilot.l_t, m=n // pilot.l_t, l_r=l_r, seed=seed)
        ws = build_workspace(pilot, stats, prior)
        for point in (0, 1, 2 ** 32 + 1):
            f_true, rows = _BlockDraws(config, point, trials, prior).draw()
            y = _received_trials(model, ws, f_true, rows)
            for i, trial in enumerate(trials):
                stream = np.random.default_rng(np.random.SeedSequence(seed,
                                                                      spawn_key=(point, trial)))
                f = prior.sample(stream)
                state = stream.bit_generator.state
                if f != f_true[i] or not np.array_equal(rows[i],
                                                        stream.standard_normal(rows.shape[1])):
                    return False, f"stream (seed {seed}, point {point}, trial {trial}) differs"
                stream.bit_generator.state = state
                want = synthesize_rx(pilot, l_r, f, sample_ar1_trajectory(model, n, stream),
                                     stream)
                worst = max(worst, float(np.max(np.abs(y[i] - want)) / np.max(np.abs(want))))
                count += 1
    return worst < 1e-12, (f"{count} streams: prior draw and row of normals bit-identical, "
                           f"worst relative y gap {worst:.2e}")


def _check_determinism():
    global BLOCK_BYTES
    config = ExperimentConfig(snr_db=(15.0,), trials=8, seed=123, m=3, l_t=2,
                              l_r=2, rho_h=0.9)
    row_bytes = 8 * config.trial_row
    saved, texts = BLOCK_BYTES, []
    try:
        # one block, an uneven balanced split and one trial per block
        for cap in (config.trials, 3, 1):
            BLOCK_BYTES = cap * row_bytes
            texts.append(run_mse_vs_snr(config).to_csv_text())
    finally:
        BLOCK_BYTES = saved
    uneven = "+".join(map(str, _block_sizes(config.trials, 3)))
    return (len(set(texts)) == 1,
            f"{config.trials} trials in one block vs blocks of {uneven} vs one "
            "trial per block, CSV compared byte for byte")


def run_validate() -> int:
    failures = 0
    for name, (ok, detail) in _validate_checks():
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        if not ok:
            failures += 1
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# command line


def _add_common(parser, out_help: str):
    parser.add_argument("--config", help="YAML experiment config")
    parser.add_argument("--out", help=out_help)
    parser.add_argument("--snr-db", help="comma-separated SNR grid override, dB")


def _rho_grid(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise ParameterError(f"--rho-grid must be START:STOP:COUNT, got {text!r}")
    start, stop = (_coerce("--rho-grid", v, float) for v in parts[:2])
    # named before linspace could warn on a NaN or an overflowing span
    for name, value in (("START", start), ("STOP", stop), ("STOP - START", stop - start)):
        if not math.isfinite(value):
            raise ParameterError(f"--rho-grid {name} must be finite, got {value}")
    count = _coerce("--rho-grid COUNT", parts[2], int)
    if count < 1:
        raise ParameterError(f"--rho-grid COUNT must be >= 1, got {count}")
    if count > MAX_RHO_POINTS:  # checked before linspace allocates the grid
        raise ParameterError(f"--rho-grid COUNT must be <= {MAX_RHO_POINTS}, got {count}")
    return tuple(np.linspace(start, stop, count))


# the flags whose text main parses, not argparse, so a bad grid exits 1 as
# any bad config value does
GRIDS = {"snr_db": lambda text: tuple(_coerce("--snr-db", v, float) for v in text.split(",")),
         "rho_h_grid": _rho_grid}


def _overrides_from(args) -> dict:
    """Config overrides from the flags given: a flag that overrides a config
    key has that key as its dest, and args holds only the flags its command
    declared."""
    return {key: GRIDS[key](value) if key in GRIDS else value
            for key, value in vars(args).items() if key in CONFIG_PATHS and value is not None}


def _write(text: str, path: str | None):
    """text to the file at path, or to stdout when no path is given."""
    with open(path, "w", newline="") if path else nullcontext(sys.stdout) as fh:
        fh.write(text)


def _sweep(runner, figure: str):
    """A sweep command's step: its CSV to --out, and its plot series under
    figure to --emit-plot-data when that is given."""
    def step(config: ExperimentConfig, args):
        result = runner(config)
        _write(result.to_csv_text(), args.out)
        if args.emit_plot_data:
            _write(result.plot_data_text(figure), args.emit_plot_data)
    return step


def _at_first_snr(step):
    """The step of a command that runs at the first SNR point only; a grid
    of more points gets one stderr line, once the step has run, naming the
    SNR used and how many points are ignored."""
    def run(config: ExperimentConfig, args):
        step(config, args)
        if len(config.snr_db) > 1:
            print(f"note: {args.command} uses the first snr_db point, {config.snr_db[0]!r} dB, "
                  f"and ignores the other {len(config.snr_db) - 1}", file=sys.stderr)
    return run


def _single(config: ExperimentConfig, args):
    record = run_single(config, f_true_override=args.f_true, force_zero_rx=args.zero_rx)
    _write(record.to_json() + "\n", args.out)


CSV_OUT = "output CSV path (default: stdout)"
PLOT_DATA = ("--emit-plot-data", dict(metavar="PATH",
                                      help="also write long-format plot series CSV"))
SEED = ("--seed", dict(type=int, help="seed of the trials' random streams (config key seed)"))
TRIALS = ("--trials", dict(type=int, help="Monte-Carlo trials per SNR point (config key trials)"))
# every subcommand once: its help, then, for a command that runs on a config,
# its --out help, the flags of its own beside _add_common's and the step that
# runs it on the loaded config and writes its output (validate has neither);
# a command declares only the flags its run reads
COMMANDS = {
    "bounds-vs-rho": ("CRLB/BCRLB vs time-correlation for both pilots", CSV_OUT,
                      [PLOT_DATA, ("--rho-grid", dict(dest="rho_h_grid",
                                                      metavar="START:STOP:COUNT"))],
                      _at_first_snr(_sweep(run_bounds_vs_rho, "bounds_vs_rho"))),
    "bounds-vs-snr": ("CRLB/BCRLB vs SNR for both pilots", CSV_OUT, [PLOT_DATA],
                      _sweep(run_bounds_vs_snr, "bounds_vs_snr")),
    "mse-vs-snr": ("Monte-Carlo estimator MSE vs SNR next to the bounds", CSV_OUT,
                   [PLOT_DATA, SEED, TRIALS], _sweep(run_mse_vs_snr, "mse_vs_snr")),
    "single": ("one instrumented trial, JSON output", "output JSON path (default: stdout)",
               [SEED, ("--f-true", dict(type=float, help="override the true offset")),
                ("--zero-rx", dict(action="store_true",
                                   help="force y = 0 (degenerate-input check)")),
                ("--no-noise", dict(dest="noise", action="store_const", const=False,
                                    help="drop the receiver noise"))],
               _at_first_snr(_single)),
    "validate": ("run the fast oracle/invariant suite", None, [], None),
}


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
    for name, (help_text, out_help, flags, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if out_help:
            _add_common(p, out_help)
        for flag, options in flags:
            p.add_argument(flag, **options)
    args = parser.parse_args(argv)
    step = COMMANDS[args.command][3]
    if step is None:
        return run_validate()
    try:
        step(load_config(args.config, _overrides_from(args)), args)
    except _input_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
