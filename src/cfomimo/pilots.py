"""Pilot (training) signal construction for MIMO frequency-offset estimation.

Two orthogonal pilot families are provided.  The periodic pilot keeps every
transmit antenna active at all times by stacking m copies of a unitary core;
the time-division (TD) pilot lets the antennas take turns, each sending a
burst of m symbols.  Both have the 0/1 skeleton property of one nonzero per
row and m nonzeros per column, and both satisfy S^H S = (n rho / l_t) I
exactly.  An optional unit-modulus scrambling sequence multiplies the rows;
it never affects S^H S.

Arbitrary complex matrices are accepted as custom pilots.  Their
orthogonality is measured and reported, not enforced.

Each input rule is stated, and checked, in one place: the entries and their
power in _average_power, the power rho in _check_rho, the scrambling in
_scrambling and the unitary core in _unitary_core.  The shape and
finiteness of every array among them, and of the raw entries expand_block
takes, are checked by the package's one array rule, errors._array, and the
sizes l_t, m, n and l_r by its size rule, errors._check_int.  The
generators and PilotMatrix call the same helpers, so an input is rejected
with the same message whichever way the pilot is built.  pilot_from_config
reads the scrambling and core specs, a default name ("ones", "identity")
or a list of complex numbers, with one reader, _spec.

Index conventions used throughout the package (all 0-based):

* pilot entries ``S[k, t]``: symbol time k, transmit antenna t;
* received samples flatten as ``(r, k) -> r*n + k``;
* channel coefficients flatten as ``(r, t, k) -> (r*n + k)*l_t + t``,
  i.e. transmit antenna fastest, then symbol time, then receive antenna.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError, _array, _check_int, _coerce

UNITARY_TOL = 1e-12
UNIT_MODULUS_TOL = 1e-12


class PilotStructure(enum.Enum):
    PERIODIC = "periodic"
    TIME_DIVISION = "td"
    CUSTOM = "custom"


@dataclass(frozen=True)
class PilotMatrix:
    """Pilot signal S of shape (n, l_t) with average power rho = tr(S^H S)/n.

    Instances are immutable (arrays are copied and marked read-only) and safe
    to share across threads.
    """

    entries: np.ndarray
    rho: float
    structure: PilotStructure
    scrambling: np.ndarray
    unitary_core: np.ndarray | None = None

    def __post_init__(self):
        entries, power = _average_power(self.entries)
        n, l_t = entries.shape
        object.__setattr__(self, "scrambling", _scrambling(self.scrambling, n))
        object.__setattr__(self, "rho", _check_rho(self.rho, n))
        if abs(power - self.rho) > 1e-9 * max(1.0, self.rho):
            raise ParameterError(
                f"entries have average power {power:.6g}, expected rho={self.rho:.6g}"
            )
        object.__setattr__(self, "entries", _read_only(entries))
        if self.unitary_core is not None:
            object.__setattr__(self, "unitary_core", _unitary_core(self.unitary_core, l_t))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def l_t(self) -> int:
        return self.entries.shape[1]

    def orthogonality_defect(self) -> float:
        """max |S^H S - (n rho / l_t) I|, zero for the built-in structures."""
        gram = self.entries.conj().T @ self.entries
        target = (self.n * self.rho / self.l_t) * np.eye(self.l_t)
        return float(np.max(np.abs(gram - target)))

    def is_orthogonal(self, tol: float = 1e-12) -> bool:
        return self.orthogonality_defect() <= tol * max(1.0, self.n * self.rho / self.l_t)

    def with_power(self, rho: float) -> "PilotMatrix":
        """Same pilot rescaled to a new average power."""
        rho = _check_rho(rho, self.n)
        return replace(self, entries=self.entries * np.sqrt(rho / self.rho), rho=rho)


def _check_rho(rho, n: int) -> float:
    """rho as a float; ParameterError unless it is a number (_coerce), is
    positive and the total power n*rho of an n-symbol pilot, which its
    power trace sums to, is finite."""
    rho = _coerce("pilot power rho", rho, float)
    if not (0 < rho and math.isfinite(n * rho)):
        raise ParameterError(f"pilot power rho must be positive with a finite "
                             f"total power n*rho, got rho={rho!r} at n={n}")
    return rho


def _average_power(values) -> tuple[np.ndarray, float]:
    """(S, tr(S^H S)/n): values as a complex copy S of the pilot entries,
    which must be a finite (n, l_t) array of n >= 1 rows, and their
    average power; inf when the trace overflows, which it does, without a
    warning, once an entry passes about 1e154.  The entries are finite, so
    a trace that is not is an overflow (inf, or inf - inf in a product)."""
    entries = _array("pilot entries (n, l_t)", values, (None, None))
    _check_int("pilot length n", entries.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        trace = float(np.trace(entries.conj().T @ entries).real)
    return entries, trace / entries.shape[0] if math.isfinite(trace) else math.inf


def _read_only(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


def _scrambling(values, n: int) -> np.ndarray:
    """values as a read-only copy of n finite unit-modulus complex entries:
    the one scrambling rule, which both the generators and PilotMatrix apply."""
    scrambling = _array("scrambling", values, (n,))
    if np.max(np.abs(np.abs(scrambling) - 1.0)) > UNIT_MODULUS_TOL:
        raise ParameterError("scrambling entries must have unit modulus")
    return _read_only(scrambling)


def _unitary_core(values, l_t: int) -> np.ndarray:
    """values as a read-only copy of a unitary l_t x l_t complex matrix: the
    one core rule, which both generate_periodic_pilot and PilotMatrix apply."""
    core = _array("unitary core (l_t x l_t)", values, (l_t, l_t))
    defect = np.max(np.abs(core.conj().T @ core - np.eye(l_t)))
    if not defect <= UNITARY_TOL:  # an overflow's NaN defect fails too
        raise ParameterError(f"core is not unitary (defect {defect:.3e})")
    return _read_only(core)


def _prepare(l_t: int, m: int, rho: float, scrambling) -> tuple[float, np.ndarray]:
    """Check l_t and m, and return rho as _check_rho reads it and the
    scrambling of the m*l_t-symbol pilot: all ones for None, else checked
    by _scrambling."""
    _check_int("l_t", l_t)
    _check_int("m", m)
    n = m * l_t
    rho = _check_rho(rho, n)
    if scrambling is None:
        return rho, np.ones(n, dtype=np.complex128)
    return rho, _scrambling(scrambling, n)


def generate_periodic_pilot(l_t: int, m: int, rho: float = 1.0,
                            scrambling=None, unitary_core=None) -> PilotMatrix:
    """Scrambled periodic pilot: sqrt(rho) * diag(c) * [O; O; ...; O] (m copies).

    O is an l_t x l_t unitary core (identity by default) and c a unit-modulus
    scrambling sequence (all ones by default).  Shape is (m*l_t, l_t).
    """
    rho, scrambling = _prepare(l_t, m, rho, scrambling)
    core = np.eye(l_t) if unitary_core is None else _unitary_core(unitary_core, l_t)
    entries = np.sqrt(rho) * scrambling[:, None] * np.tile(core, (m, 1))
    return PilotMatrix(entries=entries, rho=rho, structure=PilotStructure.PERIODIC,
                       scrambling=scrambling, unitary_core=core)


def generate_td_pilot(l_t: int, m: int, rho: float = 1.0, scrambling=None) -> PilotMatrix:
    """Time-division pilot: antenna t alone transmits scrambled ones for m symbols."""
    rho, scrambling = _prepare(l_t, m, rho, scrambling)
    skeleton = np.kron(np.eye(l_t), np.ones((m, 1)))
    entries = np.sqrt(rho) * scrambling[:, None] * skeleton
    return PilotMatrix(entries=entries, rho=rho, structure=PilotStructure.TIME_DIVISION,
                       scrambling=scrambling)


def custom_pilot(entries) -> PilotMatrix:
    """Wrap an arbitrary complex matrix; rho is derived from the entries."""
    entries, rho = _average_power(entries)
    return PilotMatrix(entries=entries, rho=rho,
                       structure=PilotStructure.CUSTOM,
                       scrambling=np.ones(entries.shape[0], dtype=np.complex128))


def expand_block(pilot, l_r: int) -> np.ndarray:
    """Expand S into the (n*l_r) x (l_t*l_r*n) block design matrix.

    Row (r, k) carries the row vector (s[k, 0], ..., s[k, l_t-1]) in the
    columns belonging to (r, *, k); everything else is zero.  The column
    layout matches the channel vectorization, so the zero-offset received
    signal is exactly this matrix times the channel vector.
    """
    _check_int("l_r", l_r)
    entries = (pilot.entries if isinstance(pilot, PilotMatrix)
               else _array("pilot entries (n, l_t)", pilot, (None, None)))
    n, l_t = entries.shape
    out = np.zeros((n * l_r, l_r * n * l_t), dtype=np.complex128)
    for r in range(l_r):
        for k in range(n):
            row = r * n + k
            out[row, row * l_t:(row + 1) * l_t] = entries[k]
    return out


def pilot_to_config(pilot: PilotMatrix) -> dict:
    """Serializable description: {structure, l_t, m, rho, scrambling, core}.

    A periodic or TD pilot is written as its generator's spec, so it must be
    that generator's output: the pilot the spec rebuilds must have the same
    entries (within UNIT_MODULUS_TOL of sqrt(rho)), scrambling and core, or
    ParameterError names the structure.  A custom pilot writes its entries.
    """
    kind = pilot.structure.value
    cfg = {"structure": kind, "l_t": pilot.l_t, "rho": float(pilot.rho)}
    if pilot.structure is PilotStructure.CUSTOM:
        cfg["entries"] = [[repr(v) for v in row] for row in pilot.entries.tolist()]
        return cfg
    cfg["m"] = pilot.n // pilot.l_t
    # only an exact default is written by name, so the round trip is lossless
    cfg["scrambling"] = ("ones" if np.all(pilot.scrambling == 1.0)
                         else [repr(v) for v in pilot.scrambling.tolist()])
    if pilot.structure is PilotStructure.PERIODIC:
        core = pilot.unitary_core
        cfg["core"] = ("identity" if core is None or np.array_equal(core, np.eye(pilot.l_t))
                       else [[repr(v) for v in row] for row in core.tolist()])
    # the scrambling and core are written exactly, so the rebuilt pilot has
    # the same scrambling, and a core unless the spec has none (TD)
    rebuilt = pilot_from_config(cfg) if pilot.n % pilot.l_t == 0 else None
    if rebuilt is None or not (
            np.allclose(rebuilt.entries, pilot.entries, rtol=0.0,
                        atol=UNIT_MODULUS_TOL * math.sqrt(pilot.rho))
            and (pilot.unitary_core is None
                 or np.array_equal(rebuilt.unitary_core, pilot.unitary_core))):
        raise ParameterError(f"this {kind} pilot's entries, scrambling or core are not those "
                             f"of the {kind} generator, so no config rebuilds it")
    return cfg


def _parse_complex(value):
    if isinstance(value, str):
        return complex(value.replace(" ", ""))
    return complex(value)


def _complex_array(cfg: dict, key: str) -> np.ndarray:
    """cfg[key], a list (of rows) of numbers or strings that spell complex
    numbers, as a complex array."""
    try:
        return np.vectorize(_parse_complex, otypes=[complex])(np.array(cfg.get(key),
                                                                        dtype=object))
    except (TypeError, ValueError):
        raise ParameterError(f"pilot {key} must be complex numbers, "
                             f"got {cfg.get(key)!r}") from None


def _spec(cfg: dict, key: str, default: str):
    """cfg[key], default when absent: None for the name default, the one
    name the key takes, else the complex array it lists (_complex_array)."""
    value = cfg.get(key, default)
    if not isinstance(value, str):
        return _complex_array(cfg, key)
    if value != default:
        raise ParameterError(f"unknown {key} spec {value!r}")
    return None


def pilot_from_config(cfg: dict) -> PilotMatrix:
    """Inverse of :func:`pilot_to_config`; also accepts hand-written configs.
    A missing, unknown or malformed value raises ParameterError naming its key."""
    try:
        structure = PilotStructure(cfg.get("structure", "periodic"))
    except ValueError:
        raise ParameterError(f"unknown pilot structure {cfg.get('structure')!r}; "
                             f"one of {[s.value for s in PilotStructure]}") from None
    if structure is PilotStructure.CUSTOM:
        return custom_pilot(_complex_array(cfg, "entries"))
    l_t = _coerce("l_t", cfg.get("l_t"), int)  # a missing key reads None
    m = _coerce("m", cfg.get("m"), int)
    rho = _coerce("rho", cfg.get("rho", 1.0), float)
    scrambling = _spec(cfg, "scrambling", "ones")
    if structure is PilotStructure.TIME_DIVISION:
        return generate_td_pilot(l_t, m, rho, scrambling)
    return generate_periodic_pilot(l_t, m, rho, scrambling, _spec(cfg, "core", "identity"))
