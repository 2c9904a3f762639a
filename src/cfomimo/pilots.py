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

Index conventions used throughout the package (all 0-based):

* pilot entries ``S[k, t]``: symbol time k, transmit antenna t;
* received samples flatten as ``(r, k) -> r*n + k``;
* channel coefficients flatten as ``(r, t, k) -> (r*n + k)*l_t + t``,
  i.e. transmit antenna fastest, then symbol time, then receive antenna.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, _check_int, _coerce

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
        entries = np.array(self.entries, dtype=np.complex128)
        if entries.ndim != 2:
            raise ParameterError("pilot entries must be a 2-D (n, l_t) array")
        n = entries.shape[0]
        scrambling = np.array(self.scrambling, dtype=np.complex128)
        if scrambling.shape != (n,):
            raise ParameterError(
                f"scrambling length {scrambling.shape} does not match n={n}"
            )
        _check_rho(self.rho, n)
        _check_finite("scrambling", scrambling)
        _check_finite("entries", entries)
        if np.max(np.abs(np.abs(scrambling) - 1.0)) > UNIT_MODULUS_TOL:
            raise ParameterError("scrambling entries must have unit modulus")
        power = np.trace(entries.conj().T @ entries).real / n
        if abs(power - self.rho) > 1e-9 * max(1.0, self.rho):
            raise ParameterError(
                f"entries have average power {power:.6g}, expected rho={self.rho:.6g}"
            )
        entries.setflags(write=False)
        scrambling.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "scrambling", scrambling)
        if self.unitary_core is not None:
            core = np.array(self.unitary_core, dtype=np.complex128)
            _check_unitary(core)
            core.setflags(write=False)
            object.__setattr__(self, "unitary_core", core)

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
        _check_rho(rho, self.n)
        scale = np.sqrt(rho / self.rho)
        return PilotMatrix(
            entries=self.entries * scale,
            rho=rho,
            structure=self.structure,
            scrambling=self.scrambling,
            unitary_core=self.unitary_core,
        )


def _check_rho(rho, n: int):
    """ParameterError unless rho is positive and the total power n*rho of
    an n-symbol pilot, which its power trace sums to, is finite."""
    if not (0 < rho and math.isfinite(n * rho)):
        raise ParameterError(f"pilot power rho must be positive with a finite "
                             f"total power n*rho, got rho={rho!r} at n={n}")


def _check_finite(name: str, values: np.ndarray):
    if not np.all(np.isfinite(values)):
        raise ParameterError(f"pilot {name} must be finite")


def _check_unitary(core: np.ndarray):
    if core.ndim != 2 or core.shape[0] != core.shape[1]:
        raise ParameterError("unitary core must be a square matrix")
    defect = np.max(np.abs(core.conj().T @ core - np.eye(core.shape[0])))
    if defect > UNITARY_TOL:
        raise ParameterError(f"core is not unitary (defect {defect:.3e})")


def _prepare(l_t: int, m: int, rho: float, scrambling) -> np.ndarray:
    _check_int("l_t", l_t)
    _check_int("m", m)
    n = m * l_t
    _check_rho(rho, n)
    if scrambling is None:
        return np.ones(n, dtype=np.complex128)
    scrambling = np.asarray(scrambling, dtype=np.complex128)
    if scrambling.shape != (n,):
        raise ParameterError(f"scrambling must have length n = m*l_t = {n}")
    _check_finite("scrambling", scrambling)
    return scrambling


def generate_periodic_pilot(l_t: int, m: int, rho: float = 1.0,
                            scrambling=None, unitary_core=None) -> PilotMatrix:
    """Scrambled periodic pilot: sqrt(rho) * diag(c) * [O; O; ...; O] (m copies).

    O is an l_t x l_t unitary core (identity by default) and c a unit-modulus
    scrambling sequence (all ones by default).  Shape is (m*l_t, l_t).
    """
    scrambling = _prepare(l_t, m, rho, scrambling)
    if unitary_core is None:
        core = np.eye(l_t, dtype=np.complex128)
    else:
        core = np.asarray(unitary_core, dtype=np.complex128)
        _check_unitary(core)
    stacked = np.tile(core, (m, 1))
    entries = np.sqrt(rho) * scrambling[:, None] * stacked
    return PilotMatrix(entries=entries, rho=rho, structure=PilotStructure.PERIODIC,
                       scrambling=scrambling, unitary_core=core)


def generate_td_pilot(l_t: int, m: int, rho: float = 1.0, scrambling=None) -> PilotMatrix:
    """Time-division pilot: antenna t alone transmits scrambled ones for m symbols."""
    scrambling = _prepare(l_t, m, rho, scrambling)
    skeleton = np.kron(np.eye(l_t), np.ones((m, 1)))
    entries = np.sqrt(rho) * scrambling[:, None] * skeleton
    return PilotMatrix(entries=entries, rho=rho, structure=PilotStructure.TIME_DIVISION,
                       scrambling=scrambling)


def custom_pilot(entries) -> PilotMatrix:
    """Wrap an arbitrary complex matrix; rho is derived from the entries."""
    entries = np.asarray(entries, dtype=np.complex128)
    if entries.ndim != 2:
        raise ParameterError("pilot entries must be a 2-D (n, l_t) array")
    _check_finite("entries", entries)
    n = entries.shape[0]
    rho = float(np.trace(entries.conj().T @ entries).real / n)
    if not (rho > 0):
        raise ParameterError("custom pilot has zero power")
    return PilotMatrix(entries=entries, rho=rho, structure=PilotStructure.CUSTOM,
                       scrambling=np.ones(n, dtype=np.complex128))


def expand_block(pilot, l_r: int) -> np.ndarray:
    """Expand S into the (n*l_r) x (l_t*l_r*n) block design matrix.

    Row (r, k) carries the row vector (s[k, 0], ..., s[k, l_t-1]) in the
    columns belonging to (r, *, k); everything else is zero.  The column
    layout matches the channel vectorization, so the zero-offset received
    signal is exactly this matrix times the channel vector.
    """
    _check_int("l_r", l_r)
    entries = pilot.entries if isinstance(pilot, PilotMatrix) else np.asarray(pilot)
    n, l_t = entries.shape
    out = np.zeros((n * l_r, l_r * n * l_t), dtype=np.complex128)
    for r in range(l_r):
        for k in range(n):
            row = r * n + k
            out[row, row * l_t:(row + 1) * l_t] = entries[k]
    return out


def pilot_to_config(pilot: PilotMatrix) -> dict:
    """Serializable description: {structure, l_t, m, rho, scrambling, core}."""
    cfg = {
        "structure": pilot.structure.value,
        "l_t": pilot.l_t,
        "rho": float(pilot.rho),
    }
    if pilot.structure is PilotStructure.CUSTOM:
        cfg["entries"] = [[repr(v) for v in row] for row in pilot.entries.tolist()]
        return cfg
    cfg["m"] = pilot.n // pilot.l_t
    # only an exact default is written by name, so the round trip is lossless
    if np.all(pilot.scrambling == 1.0):
        cfg["scrambling"] = "ones"
    else:
        cfg["scrambling"] = [repr(v) for v in pilot.scrambling.tolist()]
    if pilot.structure is PilotStructure.PERIODIC:
        if pilot.unitary_core is None or np.array_equal(pilot.unitary_core, np.eye(pilot.l_t)):
            cfg["core"] = "identity"
        else:
            cfg["core"] = [[repr(v) for v in row] for row in pilot.unitary_core.tolist()]
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
    scrambling = cfg.get("scrambling", "ones")
    if isinstance(scrambling, str):
        if scrambling != "ones":
            raise ParameterError(f"unknown scrambling spec {scrambling!r}")
        scrambling = None
    else:
        scrambling = _complex_array(cfg, "scrambling")
    if structure is PilotStructure.TIME_DIVISION:
        return generate_td_pilot(l_t, m, rho, scrambling)
    core = cfg.get("core", "identity")
    if isinstance(core, str):
        if core != "identity":
            raise ParameterError(f"unknown core spec {core!r}")
        core = None
    else:
        core = _complex_array(cfg, "core")
    return generate_periodic_pilot(l_t, m, rho, scrambling, core)
